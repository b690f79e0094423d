#!/usr/bin/env python3
"""Run one basepack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 60 --trace 0

Run from a checkout of the repository: the benchmark imports basepack
from ``src/`` and exits with code 2 when it is missing.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from the traced rounds, and the spans are written to
``.bench_work/trace-<workload>-<seed>.json``.  The lines before it give
the answers of the first round, their digest, the tail percentile and
the failure ratio.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# The default seed is the one to develop against; confirm a claimed gain
# on the held-out seed as well.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20191
# workload -> the modules whose jobs make up its round, in order
WORKLOADS = {"pipeline": ("chain", "cli_stages"), "oracles": ("intersect", "search")}

# metric -> (how it is computed, span / node kind / count name, unit)
PER_LAYER = {
    "core.rank_s": ("span", "rank", "s"),
    "constructions.leaf_calls": ("count", "leaf_calls", "count"),
    "constructions.dual_self_us": ("node", "dual", "us"),
    "constructions.direct_sum_self_us": ("node", "direct-sum", "us"),
    "constructions.truncation_self_us": ("node", "truncation", "us"),
    "constructions.relabel_self_us": ("node", "relabel", "us"),
    "constructions.parallel_copies_self_us": ("node", "parallel-copies", "us"),
    "constructions.partition_query_us": ("node", "partition", "us"),
    "constructions.paving_query_us": ("node", "paving", "us"),
    "constructions.uniform_query_us": ("node", "uniform", "us"),
    "fields.gfp_query_us": ("node", "linear-gfp", "us"),
    "fields.gfsmall_query_us": ("node", "linear-gfsmall", "us"),
    "graphs.forest_query_us": ("node", "graphic", "us"),
    "graphs.matching_query_us": ("node", "transversal", "us"),
    "intersection.mci_s": ("span", "max_common_independent", "s"),
    "intersection.partition_s": ("span", "partition_into_independent", "s"),
    "intersection.oracle_calls": ("count", "oracle_calls", "count"),
    "intersection.calls_per_augment": ("count", "calls_per_augment", "ratio"),
    "intersection.distinct_ratio": ("count", "oracle_calls.distinct_ratio", "ratio"),
    "reductions.r2_s": ("span", "naesat_to_modular_trees", "s"),
    "reductions.r1_s": ("span", "modular_to_common_bases", "s"),
    "reductions.r5_s": ("span", "to_partition_matroid_form", "s"),
    "reductions.lift_s": ("span", "lift", "s"),
    "reductions.pull_s": ("span", "pull", "s"),
    "reductions.r5_elements": ("count", "r5_elements", "count"),
    "solvers.modular_trees_s": ("span", "solve_modular_trees", "s"),
    "solvers.naesat_s": ("span", "solve_naesat", "s"),
    "solvers.common_bases_s": ("span", "solve_common_bases", "s"),
    "solvers.even_factor_s": ("span", "solve_perfect_even_factor", "s"),
    "solvers.mod4_s": ("span", "solve_mod4_two_factor", "s"),
    "solvers.verify_s": ("span", "verify_certificate", "s"),
    "solvers.oracle_calls": ("count", "solver_oracle_calls", "count"),
    "gadget.verify_s": ("span", "verify_gadget", "s"),
    "gadget.feasible_bipartitions": ("count", "feasible_bipartitions", "count"),
    "adversary.run_s": ("span", "run_indistinguishability", "s"),
    "adversary.total_queries": ("count", "total_queries", "count"),
    "cli.startup_s": ("span", "cli startup", "s"),
    "cli.reduce_r2_s": ("span", "cli reduce_r2", "s"),
    "cli.solve_s": ("span", "cli solve", "s"),
    "cli.verify_s": ("span", "cli verify", "s"),
    "cli.reduce_r1_s": ("span", "cli reduce_r1", "s"),
    "cli.reduce_r5_s": ("span", "cli reduce_r5", "s"),
    "formats.load_s": ("span", "load_instance", "s"),
    "formats.dump_s": ("span", "dump_instance", "s"),
    "formats.bytes_out": ("count", "bytes_out", "count"),
    "bench.trace_overhead": ("overhead", "", "ratio"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "basepack", "__init__.py")):
        print(f"error: no basepack sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    start = perf_counter()
    import harness
    sources = [importlib.import_module(name) for name in WORKLOADS[args.workload]]
    import_seconds = perf_counter() - start

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    # The host's speed wanders over seconds to minutes, so set-up is
    # repeated before every round and its median taken over the whole run.
    def make():
        return [source.make_jobs(args.seed, workdir) for source in sources]

    try:
        jobs, seconds = harness.setup(make)
        setup_times = [seconds]
        tracer = harness.Tracer()
        records = harness.measure(jobs, args.seconds, bool(args.trace), tracer,
                                  lambda: setup_times.append(harness.setup(make)[1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines, digest = harness.answers_digest(records)
    for line in lines:
        print("answer", line)
    print(f"answers sha256 {digest}")
    failed = sum(1 for r in records if not r.ok)
    print(f"jobs {len(records)} in {records[-1].round + 1} rounds of {len(jobs)}, "
          f"failed {failed}, fail_ratio {failed / len(records):.4f}")

    if args.trace:
        metrics = harness.per_layer(records, PER_LAYER)
        tracer.dump(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json"))
    else:
        rss = harness.peak_rss_mib(include_children="cli_stages" in WORKLOADS[args.workload])
        setup_seconds = import_seconds + statistics.median(setup_times)
        metrics, pct = harness.end_to_end(records, setup_seconds, rss)
        print(f"job_s_tail is p{pct} of {len(records)} jobs")
    harness.emit(metrics, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
