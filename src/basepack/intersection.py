"""Matroid intersection and matroid partition via exchange-graph augmentation.

Both run in polynomial time measured in oracle calls and serve as
independent cross-checks for the brute-force solvers: intersection finds
a maximum common independent set; partition decides whether the ground
set splits into k independent sets (by reducing to intersection of a
k-fold copy sum with a chooser that allows one copy per element, so one
augmentation engine drives both).

The engine is Cunningham's (SIAM J. Comput. 1986).  A greedy scan in
index order first keeps every element that stays independent in both
matroids.  Then each phase finds the sources and sinks of the exchange
graph once, layers it by breadth-first distance from the sources up to
the first layer holding a sink, and augments along as many shortest
paths as a depth-first walk through consecutive layers finds.  The
greedy scan and the scans for sinks, sources and even layers ask "is
B + x independent?" for many x and one base set B, so each asks a class
state of one matroid over single elements, built at B by
:func:`core.class_states`, which reduces GF(2) vectors where the
matroid has them and asks its oracle about B + x otherwise.  The circuit
searches and the walk always ask the oracle.  The layers come from
circuit queries, not from one test per arc, as in Chakrabarty, Lee,
Sidford, Singla and Wong ("Faster Matroid Intersection", FOCS 2019) and
Nguyen (2019): a vertex that is no source
(or no sink) closes a unique circuit with the current set, so one query
asks whether that circuit meets a whole layer, and binary search over
the unseen elements finds each neighbour in O(log n) queries.  The walk
tests every exchange arc against the current set, and a vertex it
cannot extend, or that lies on an augmented path, is dead for the rest
of the phase.  Shortest path lengths never decrease (Cunningham's
lemma), so every path found is shortest, and the phases end when no
sink can be reached.  Elements are always scanned in ascending index
order and layers are sorted, so results are deterministic.  Partition
first refutes by counting: more than k * r(E) elements never split into
k independent sets.
"""

from __future__ import annotations

from typing import Callable, Optional

from .core import ElementSet, GroundSet, Matroid, Record, StateAt, UniverseMismatch, class_states
from .constructions import direct_sum_all


def max_common_independent(m1: Matroid, m2: Matroid) -> ElementSet:
    """A maximum-cardinality common independent set of two matroids.

    Starts from the greedy common independent set in index order, then
    augments in phases along shortest source-sink paths of the exchange
    graph, all paths of one length per phase.  Ties break by ascending
    element index, so runs are reproducible.  The answer is the same
    whether or not the matroids carry GF(2) vectors; only the oracle
    queries differ.
    """
    if m1.ground.size != m2.ground.size:
        raise UniverseMismatch("matroids must share a ground set")
    singles = [1 << e for e in range(m1.ground.size)]
    at1, at2 = class_states(singles, m1), class_states(singles, m2)
    s1, s2 = at1(0), at2(0)
    current = 0
    for x in singles:
        if s1.fits(x) and s2.fits(x):
            s1.add(x)
            s2.add(x)
            current |= x
    while True:
        layers = _distance_layers(m1, m2, at1, at2, current)
        if layers is None:
            return ElementSet.from_mask(m1.ground, current)
        current = _augment_phase(m1.indep_mask, m2.indep_mask, current, layers)


# Arcs of the exchange graph of I: x -> y (x outside, y inside) when
# I - y + x is independent in m2, y -> x when it is independent in m1.
# Paths run from a source (I + x independent in m1) to a sink (I + x
# independent in m2), so even layers hold outside elements, odd layers
# inside ones.


def _distance_layers(
    m1: Matroid, m2: Matroid, at1: StateAt, at2: StateAt, current: int
) -> Optional[list[list[int]]]:
    """Breadth-first layers from the sources up to the first layer holding
    a sink, which keeps only its sinks; None when no sink is reachable.

    ``at1`` and ``at2`` are :func:`core.class_states` of the two
    matroids over single elements: the sinks, the sources and each even
    layer come from one state built at a base set, and m2's oracle
    answers the circuit searches.

    Each layer comes from circuit tests rather than one test per arc.
    An unseen outside x is no source, so I + x holds a unique m1-circuit,
    and some y of the inside layer L has the arc y -> x exactly when that
    circuit meets L, that is when (I - L) + x is m1-independent: one
    query per x.  An outside x of the previous layer is no sink, so its
    m2-circuit in I + x is unique too, and (I - U) + x is m2-independent
    exactly when the circuit meets U.  Binary search over the unseen
    inside elements U with this test finds each out-neighbour of x in
    O(log n) queries, and one more query shows that none is left.  Layers
    are sorted, so they equal those of the all-pairs arc tests.
    """
    n, i2 = m1.ground.size, m2.indep_mask
    outside = [e for e in range(n) if not current >> e & 1]
    fits = at2(current).fits
    sinks = {x for x in outside if fits(1 << x)}
    if not sinks:
        return None
    fits = at1(current).fits
    layer = [x for x in outside if fits(1 << x)]
    seen = set(layer)
    unseen_inside = [e for e in range(n) if current >> e & 1]
    layers = []
    while layer:
        hits = [x for x in layer if x in sinks]
        if hits:
            layers.append(hits)
            return layers
        layers.append(layer)
        if len(layers) % 2:
            nxt = []
            for x in layer:
                part = _circuit_part(i2, current | 1 << x, unseen_inside)
                if part:
                    nxt += part
                    unseen_inside = [y for y in unseen_inside if y not in part]
            nxt.sort()
        else:
            without = current
            for y in layer:
                without ^= 1 << y
            fits = at1(without).fits
            nxt = [x for x in outside if x not in seen and fits(1 << x)]
        seen.update(nxt)
        layer = nxt
    return None


def _circuit_part(indep: Callable[[int], bool], grown: int, pool: list[int]) -> list[int]:
    """The elements of ``pool`` (ascending, all in I) on the unique circuit
    of ``grown`` = I + x, for I independent and I + x dependent.

    (I - U) + x is independent exactly when U meets the circuit.  Binary
    search with this test over pool[start:] finds its first circuit
    element; everything before that is off the circuit, so the next
    search starts after it, until a test finds no circuit element left.
    """
    prefix = [0]
    for y in pool:
        prefix.append(prefix[-1] | 1 << y)
    # prefix[j] ^ prefix[i] is the mask of pool[i:j].
    found = []
    start, end = 0, len(pool)
    while start < end and indep(grown ^ prefix[start] ^ prefix[end]):
        lo, hi = start, end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if indep(grown ^ prefix[lo] ^ prefix[mid]):
                hi = mid
            else:
                lo = mid
        found.append(pool[lo])
        start = lo + 1
    return found


def _augment_phase(
    i1: Callable[[int], bool], i2: Callable[[int], bool], current: int, layers: list[list[int]]
) -> int:
    """Augment ``current`` along vertex-disjoint source-sink paths that take
    one vertex from each layer in turn; returns the augmented set."""
    d = len(layers) - 1
    dead = 0
    for source in layers[0]:
        if not i1(current | 1 << source):
            continue
        path = [source]
        scanned = [0]  # per path vertex: candidates of the next layer tried
        while path:
            j = len(path) - 1
            v = path[j]
            w = -1
            if j == d:
                if i2(current | 1 << v):
                    for u in path:
                        current ^= 1 << u
                        dead |= 1 << u
                    break
            else:
                nxt = layers[j + 1]
                k = scanned[j]
                while k < len(nxt):
                    u = nxt[k]
                    k += 1
                    if dead >> u & 1:
                        continue
                    if j % 2:
                        arc = i1((current ^ 1 << v) | 1 << u)
                    else:
                        arc = i2((current ^ 1 << u) | 1 << v)
                    if arc:
                        w = u
                        break
                scanned[j] = k
            if w < 0:
                dead |= 1 << v
                path.pop()
                scanned.pop()
            else:
                path.append(w)
                scanned.append(0)
    return current


class PartitionVerdict(Record):
    """Outcome of a partition-into-independent-sets attempt."""

    __slots__ = {"feasible": "bool", "classes": "Optional[tuple[ElementSet, ...]]"}
    _defaults = {"classes": None}


def partition_into_independent(matroid: Matroid, k: int) -> PartitionVerdict:
    """Partition the ground set into at most ``k`` independent sets, or report impossible.

    More than k * r(E) elements never split into k independent sets (the
    easy direction of Edmonds 1965), so that case is refuted with one
    rank call and no augmentation.  Otherwise, reduction: spread the
    ground set over min(k, |E|) disjoint copies carrying the same
    matroid, since more classes than elements are never needed, and
    intersect with the chooser allowing one copy per element, through
    the one engine of :func:`max_common_independent`.  The chooser is the
    partition matroid with one block of copies per element, computed in
    closed form: it ORs the copy slices together and fails on the first
    overlap.  The engine asks only independence, so the chooser supplies
    no closed-form rank.  Nor does it carry GF(2) vectors: its closed form
    answers in fewer steps than a basis reduction.  A common independent
    set of full size assigns each element a class; the verdict holds one
    class per copy, so at most k of them.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = matroid.ground.size
    if n == 0:
        return PartitionVerdict(True, tuple())
    if n > k * matroid.full_rank:
        return PartitionVerdict(False)
    k = min(k, n)
    copies = direct_sum_all([matroid] * k)
    full = (1 << n) - 1
    shifts = range(0, n * k, n)

    def one_copy_each(mask: int) -> bool:
        chosen = 0
        for shift in shifts:
            part = mask >> shift & full
            if part & chosen:
                return False
            chosen |= part
        return True

    chooser = Matroid(GroundSet(n * k), "chooser", one_copy_each)
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


class NecessaryCheck(Record):
    """Outcome of the counting + partition necessary condition for packing
    common bases.  Passing does not imply feasibility; failing refutes it."""

    __slots__ = {
        "passed": "bool", "size_condition": "bool", "partitionable_1": "bool",
        "partitionable_2": "bool",
    }

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
