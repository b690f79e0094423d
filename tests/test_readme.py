"""README.md's library tour runs, and its comments state what it binds."""

import pathlib
import re

from basepack import enumerate_bases, rank, verify_certificate

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_library_tour_runs_as_its_comments_state(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    tour: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), tour)
    m = tour["m"]
    assert rank(m) == 2
    assert len(enumerate_bases(m)) == 6
    assert tour["cert"].ok and len(tour["cert"].witness_large) == 10
    red = tour["red"]
    assert red.instance.m1.ground.size == red.instance.m2.ground.size == 40
    assert verify_certificate("common-bases", red.instance, tour["lifted"]).ok
