"""Matroid intersection and matroid partition via exchange-graph augmentation.

Both run in polynomial time measured in oracle calls and serve as
independent cross-checks for the brute-force solvers: intersection finds
a maximum common independent set; partition decides whether the ground
set splits into k independent sets (by reducing to intersection of a
k-fold copy sum with a partition matroid, so one augmentation engine
drives both).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import ElementSet, GroundSet, Matroid, UniverseMismatch
from .constructions import (
    PartitionOfGroundSet,
    direct_sum_all,
    partition_matroid,
)


def max_common_independent(m1: Matroid, m2: Matroid) -> ElementSet:
    """A maximum-cardinality common independent set of two matroids.

    Augments along shortest source-sink paths in the exchange graph.
    Tie-breaking is deterministic: breadth-first search explores elements
    in ascending index order, so runs are reproducible.
    """
    if m1.ground.size != m2.ground.size:
        raise UniverseMismatch("matroids must share a ground set")
    n = m1.ground.size
    i1, i2 = m1.indep_mask, m2.indep_mask
    current = 0

    while True:
        outside = [e for e in range(n) if not current >> e & 1]
        inside = [e for e in range(n) if current >> e & 1]
        sources = [x for x in outside if i1(current | 1 << x)]
        sinks = set(x for x in outside if i2(current | 1 << x))
        if not sources or not sinks:
            break

        # Arcs: y -> x (y inside, x outside) when current - y + x is
        # independent in m1; x -> y when it is independent in m2.
        parent: dict[int, int] = {}
        queue = deque()
        for x in sources:
            parent[x] = -1
            queue.append(x)
        target = -1
        for x in sources:
            if x in sinks:
                target = x
                break
        while target < 0 and queue:
            v = queue.popleft()
            if not current >> v & 1:
                neighbors = [
                    y for y in inside
                    if y not in parent and i2((current ^ 1 << y) | 1 << v)
                ]
            else:
                neighbors = [
                    x for x in outside
                    if x not in parent and i1((current ^ 1 << v) | 1 << x)
                ]
            for w in neighbors:
                parent[w] = v
                if w in sinks:
                    target = w
                    queue.clear()
                    break
                queue.append(w)
        if target < 0:
            break
        path = []
        v = target
        while v != -1:
            path.append(v)
            v = parent[v]
        for v in path:
            current ^= 1 << v

    return ElementSet.from_mask(m1.ground, current)


@dataclass(frozen=True)
class PartitionVerdict:
    """Outcome of a partition-into-independent-sets attempt."""

    feasible: bool
    classes: Optional[tuple[ElementSet, ...]] = None


def partition_into_independent(matroid: Matroid, k: int) -> PartitionVerdict:
    """Partition the ground set into at most ``k`` independent sets, or report impossible.

    Reduction: spread the ground set over k disjoint copies carrying the
    same matroid, and intersect with the partition matroid allowing one
    copy per element.  A common independent set of full size assigns each
    element a class.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = matroid.ground.size
    if n == 0:
        return PartitionVerdict(True, tuple())
    copies = direct_sum_all([matroid] * k)
    universe = GroundSet(n * k)
    blocks = [[e + c * n for c in range(k)] for e in range(n)]
    chooser = partition_matroid(
        PartitionOfGroundSet.build(universe, blocks), [1] * n
    )
    common = max_common_independent(copies, chooser)
    if len(common) < n:
        return PartitionVerdict(False)
    class_masks = [0] * k
    for idx in common:
        class_masks[idx // n] |= 1 << (idx % n)
    classes = tuple(
        ElementSet.from_mask(matroid.ground, m) for m in class_masks
    )
    return PartitionVerdict(True, classes)


@dataclass(frozen=True)
class NecessaryCheck:
    """Outcome of the counting + partition necessary condition for packing
    common bases.  Passing does not imply feasibility; failing refutes it."""

    passed: bool
    size_condition: bool
    partitionable_1: bool
    partitionable_2: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"necessary-check: {status} (size={self.size_condition}, "
            f"m1-partitionable={self.partitionable_1}, m2-partitionable={self.partitionable_2})"
        )


def common_bases_necessary_check(m1: Matroid, m2: Matroid, k: int) -> NecessaryCheck:
    """Necessary condition for partitioning into k common bases.

    Requires |S| = k * rank for both matroids and that the ground set
    partitions into k independent sets in each matroid separately.
    """
    if m1.ground.size != m2.ground.size:
        raise UniverseMismatch("matroids must share a ground set")
    n = m1.ground.size
    size_ok = n == k * m1.full_rank == k * m2.full_rank
    p1 = partition_into_independent(m1, k).feasible
    p2 = partition_into_independent(m2, k).feasible
    return NecessaryCheck(size_ok and p1 and p2, size_ok, p1, p2)
