"""Intersection jobs of the ``oracles`` workload: one intersection or partition call each.

Many cheap queries on shallow oracles.  Each template below is a pair of
oracle trees over 24 to 96 elements (or one tree and a class count k);
the seed draws their graphs, matrices and families.  Leaves: graphic,
transversal, linear over GF(2^31 - 1) (from
``transversal_linear_representation``), linear over GF(2) and GF(3),
partition, paving and uniform.  Combinators: dual, truncation, direct
sum, relabel and parallel copies.  When tracing, every node is wrapped,
so each kind reports its own time per query.

Partition inputs have a verdict known by construction: a union of k
spanning trees or of k planted perfect matchings (YES), or more
elements than k times the rank (NO).
"""

from __future__ import annotations

import random

from basepack.constructions import (
    HyperplaneFamily,
    PartitionOfGroundSet,
    direct_sum,
    dual,
    graphic_matroid,
    linear_matroid,
    parallel_copies,
    partition_matroid,
    paving_matroid,
    relabel,
    transversal_linear_representation,
    transversal_matroid,
    truncate,
    uniform_matroid,
)
from basepack.core import GroundSet, rank
from basepack.fields import Matrix, gf
from basepack.graphs import BipartiteGraph, MultiGraph
from basepack.intersection import max_common_independent, partition_into_independent

import checks
import gen
from harness import Job


def build(tr, spec, top=False):
    """Build an oracle tree from its spec, wrapping every node when tracing."""
    kind, *args = spec
    if kind == "graphic":
        m = graphic_matroid(MultiGraph.build(*args))
    elif kind == "transversal":
        m = transversal_matroid(BipartiteGraph.build(*args))
    elif kind == "linear-gfp":
        n_left, n_right, edges, seed = args
        graph = BipartiteGraph.build(n_left, n_right, edges)
        m = linear_matroid(transversal_linear_representation(graph, seed=seed))
    elif kind == "linear-gfsmall":
        q, rows = args
        m = linear_matroid(Matrix.build(gf(q), rows))
    elif kind == "partition":
        n, blocks, caps = args
        m = partition_matroid(PartitionOfGroundSet.build(GroundSet(n), blocks), caps)
    elif kind == "uniform":
        m = uniform_matroid(GroundSet(args[0]), args[1])
    elif kind == "paving":
        n, r, sets = args
        m = paving_matroid(HyperplaneFamily.build(GroundSet(n), r, sets))
    elif kind == "dual":
        m = dual(build(tr, args[0]))
    elif kind == "truncation":
        m = truncate(build(tr, args[0]), args[1])
    elif kind == "direct-sum":
        m = direct_sum(build(tr, args[0]), build(tr, args[1]))
    elif kind == "relabel":
        m = relabel(build(tr, args[0]), args[1])
    else:  # parallel-copies
        m = parallel_copies(build(tr, args[0]), args[1])
    return tr.wrap(m, kind, tag="oracle_calls" if top else None, distinct=top)


def _mci_templates(rng: random.Random) -> list:
    def unit_blocks(n, size, cap):
        parts = gen.blocks(rng, n, size)
        return ("partition", n, parts, [min(cap, len(b)) for b in parts])

    return [
        ("graphic-partition",
         ("graphic", 33, gen.connected_multigraph(rng, 33, 96)), unit_blocks(96, 3, 1)),
        ("transversal-uniform",
         ("transversal", 64, 24, gen.bipartite(rng, 64, 24, 3)), ("uniform", 64, 20)),
        ("gfp-partition",
         ("linear-gfp", 24, 8, gen.bipartite(rng, 24, 8, 3), rng.randrange(1 << 30)),
         unit_blocks(24, 3, 1)),
        ("gf2-graphic",
         ("linear-gfsmall", 2, gen.matrix(rng, 14, 48, 2)),
         ("graphic", 16, gen.connected_multigraph(rng, 16, 48))),
        ("gf3-paving",
         ("linear-gfsmall", 3, gen.matrix(rng, 10, 48, 3)),
         ("paving", 48, 8, gen.paving_family(rng, 48, 8, 20))),
        ("dual-truncation",
         ("dual", ("graphic", 17, gen.connected_multigraph(rng, 17, 48))),
         ("truncation", ("transversal", 48, 24, gen.bipartite(rng, 48, 24, 2)), 18)),
        ("relabel-copies",
         ("relabel", ("direct-sum", ("graphic", 13, gen.connected_multigraph(rng, 13, 32)),
                      ("uniform", 32, 8)), gen.permutation(rng, 64)),
         ("parallel-copies", unit_blocks(32, 2, 1), 2)),
        ("uniform-partition",
         ("uniform", 96, 40), unit_blocks(96, 4, 2)),
        ("paving-graphic",
         ("paving", 48, 8, gen.paving_family(rng, 48, 8, 24)),
         ("graphic", 18, gen.connected_multigraph(rng, 18, 48))),
    ]


def _partition_templates(rng: random.Random) -> list:
    return [
        ("partition-graphic-k2", ("graphic", 25, gen.union_of_trees(rng, 25, 2)), 2, True),
        ("partition-graphic-k3", ("graphic", 17, gen.connected_multigraph(rng, 17, 49)), 3, False),
        ("partition-transversal-k3",
         ("transversal", 48, 16, gen.planted_matchings(rng, 16, 3, 1)), 3, True),
    ]


def _run_mci(tr, pair):
    return tr.call("max_common_independent", max_common_independent, *pair)


def _check_mci(tr, pair, common):
    size = len(common)
    if tr.enabled and size:
        tr.count("calls_per_augment", tr.counts["oracle_calls"] / size)
    ok, why = checks.max_common_certified(pair[0], pair[1], common.mask)
    return ok, f"I={size}" + ("" if ok else f" ({why})")


def _run_partition(tr, inputs):
    matroid, k, _ = inputs
    return tr.call("partition_into_independent", partition_into_independent, matroid, k)


def _check_partition(tr, inputs, verdict):
    matroid, k, expected = inputs
    if expected:
        ok = verdict.feasible and checks.partition_classes_ok(matroid, verdict.classes, k)
    else:
        # No k independent sets cover more than k * rank elements.
        ok = not verdict.feasible and matroid.ground.size > k * rank(matroid)
    return ok, f"k={k} {'YES' if verdict.feasible else 'NO'}"


# Eight seeded instances of every template per round, so that the median
# and the 90th percentile do not hinge on one instance; the costly GF(p)
# template four times, so that its 1 ms queries do not dominate the round.
def make_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for copy in range(8):
        for name, spec1, spec2 in _mci_templates(rng):
            if name == "gfp-partition" and copy % 2:
                continue
            jobs.append(Job(
                name,
                lambda tr, s1=spec1, s2=spec2: (build(tr, s1, True), build(tr, s2, True)),
                _run_mci, _check_mci,
            ))
        for name, spec, k, expected in _partition_templates(rng):
            jobs.append(Job(
                name,
                lambda tr, s=spec, k=k, e=expected: (build(tr, s, True), k, e),
                _run_partition, _check_partition,
            ))
    return jobs
