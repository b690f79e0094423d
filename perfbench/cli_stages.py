"""CLI jobs of the ``pipeline`` workload: one ``python -m basepack.cli`` process per job.

Per formula (the golden ``three_clause.cnf`` and three seeded
not-all-equal satisfiable ones) the stages are ``reduce --rule r2``,
``solve --problem modular-trees``, ``verify``, ``reduce --rule r1`` and
``reduce --rule r5``, passing files between them.  Interpreter start-up
is most of each stage; the descriptor round trips rebuild the matroids
without ``memoized``.  A stage checks its exit code, ``verify`` must
print VALID, and the answer records the SHA-256 of the bytes the stage
wrote, so that two commits can be shown to write the same JSON.

When tracing, each formula also times ``python -c "import basepack.cli"``
and the in-process ``load_instance`` and ``dump_instance`` of every
instance a stage writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

from basepack.formats import dump_instance, load_instance

import gen
from harness import Job

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "golden", "three_clause.cnf")
SHAPES = ((3, (2, 2)), (3, (3, 2)), (4, (3, 2)))
STAGE_TIMEOUT = 120


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(args, env):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=STAGE_TIMEOUT, check=False,
    )


def _pipeline(cnf_path: str, prefix: str, env: dict) -> list[Job]:
    """The five stage jobs for one formula; files are named after ``prefix``."""
    trees, cert, common, normal = (prefix + s for s in (".trees.json", ".cert.json",
                                                        ".common.json", ".normal.json"))
    stages = [
        ("reduce_r2", ["reduce", "--rule", "r2", cnf_path], trees),
        ("solve", ["solve", "--problem", "modular-trees", trees], cert),
        ("verify", ["verify", "--problem", "modular-trees", "--instance", trees,
                    "--certificate", cert], None),
        ("reduce_r1", ["reduce", "--rule", "r1", trees], common),
        ("reduce_r5", ["reduce", "--rule", "r5", common], normal),
    ]
    jobs = []
    for name, args, out_path in stages:
        def run(tr, _, name=name, args=args, out_path=out_path):
            proc = tr.call("cli " + name, _python, ["-m", "basepack.cli", *args], env)
            if out_path is not None:
                with open(out_path, "wb") as handle:
                    handle.write(proc.stdout)
            return proc

        def check(tr, _, proc, name=name, out_path=out_path):
            digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
            tr.count("bytes_out", len(proc.stdout))
            ok = proc.returncode == 0
            if name == "verify":
                ok = ok and json.loads(proc.stdout).get("answer") == "VALID"
            elif name == "reduce_r2" and tr.enabled:
                tr.call("cli startup", _python, ["-c", "import basepack.cli"], env)
            if ok and out_path is not None and name != "solve":
                data = json.loads(proc.stdout)
                instance = tr.call("load_instance", load_instance, data)
                tr.call("dump_instance", dump_instance, instance, data.get("provenance"))
            return ok, f"exit={proc.returncode} sha256={digest}"

        jobs.append(Job(name, lambda tr: None, run, check))
    return jobs


def make_jobs(seed: int, workdir: str) -> list[Job]:
    if not os.path.isfile(GOLDEN):
        raise FileNotFoundError(f"golden formula missing: {GOLDEN}")
    os.makedirs(workdir, exist_ok=True)
    env = _env()
    rng = random.Random(seed)
    jobs = _pipeline(GOLDEN, os.path.join(workdir, "golden"), env)
    for i, (n, sizes) in enumerate(SHAPES):
        path = os.path.join(workdir, f"seeded{i}.cnf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(gen.to_dimacs(n, gen.random_formula(rng, n, sizes, satisfiable=True)))
        jobs.extend(_pipeline(path, os.path.join(workdir, f"seeded{i}"), env))
    return jobs
