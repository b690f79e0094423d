"""The benchmark's own tests: exact counts and answers repeat, metrics match BENCHMARK.json.

    python3 -m pytest perfbench/test_determinism.py

Each workload runs traced twice on the same seed; the exact counts and
the answer digest must be identical.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

EXACT = (
    "intersection.oracle_calls",
    "constructions.leaf_calls",
    "solvers.oracle_calls",
    "gadget.feasible_bipartitions",
    "adversary.total_queries",
    "reductions.r5_elements",
    "formats.bytes_out",
)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _traced(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("answers sha256"))
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_exact_counts_and_answers_repeat(workload):
    digest1, first = _traced(workload)
    digest2, second = _traced(workload)
    assert digest1 == digest2
    assert first["failed"] == 0 and second["failed"] == 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, _, unit) in run.PER_LAYER.items()
    }
    proc = _bench(ROOT, "--workload", "oracles", "--seconds", "1")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "pipeline", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
