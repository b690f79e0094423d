"""Answer checks that do not call the algorithm under test.

Intersection answers are certified by the matroid intersection theorem:
a common independent set I is maximum iff some A has
r1(A) + r2(E - A) = |I|.  The set A comes from the benchmark's own
reachability search in the exchange graph of I, and the ranks from the
public ``rank``.
"""

from __future__ import annotations

from collections import deque

from basepack.core import ElementSet, Matroid, rank


def nae_satisfied(clauses, values) -> bool:
    """Every clause has a true and a false literal under ``values``."""
    return all(
        len({values[v] == positive for v, positive in clause}) == 2 for clause in clauses
    )


def max_common_certified(m1: Matroid, m2: Matroid, mask: int) -> tuple[bool, str]:
    """Check that ``mask`` is a maximum common independent set of m1 and m2."""
    i1, i2 = m1.indep_mask, m2.indep_mask
    if not (i1(mask) and i2(mask)):
        return False, "not independent in both matroids"
    n = m1.ground.size
    inside = [e for e in range(n) if mask >> e & 1]
    outside = [e for e in range(n) if not mask >> e & 1]
    sources = {x for x in outside if i1(mask | 1 << x)}
    # U: the elements that reach a sink (I + x independent in m2) along
    # exchange arcs y -> x (I - y + x in m1) and x -> y (I - y + x in m2).
    reach = {x for x in outside if i2(mask | 1 << x)}
    queue = deque(reach)
    while queue:
        v = queue.popleft()
        if v in sources:
            return False, "an augmenting path exists"
        if mask >> v & 1:
            preds = [x for x in outside if x not in reach and i2((mask ^ 1 << v) | 1 << x)]
        else:
            preds = [y for y in inside if y not in reach and i1((mask ^ 1 << y) | 1 << v)]
        for w in preds:
            reach.add(w)
            queue.append(w)
    a = ElementSet(m1.ground, reach)
    bound = rank(m1, a) + rank(m2, a.complement())
    if bound != mask.bit_count():
        return False, f"rank bound {bound} != |I| = {mask.bit_count()}"
    return True, ""


def partition_classes_ok(matroid: Matroid, classes, k: int) -> bool:
    """At most k disjoint independent classes that cover the ground set."""
    seen = 0
    for c in classes:
        if c.mask & seen or not matroid.indep_mask(c.mask):
            return False
        seen |= c.mask
    return len(classes) <= k and seen == matroid.ground.full_mask
