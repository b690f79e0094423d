"""Concrete matroid classes and combinators.

Free, uniform, partition, graphic, transversal, paving, and linear
matroids, plus direct sum, truncation, dual, parallel copies, and index
relabeling.  Every constructor returns an immutable oracle
:class:`~basepack.core.Matroid` carrying a serializable descriptor tree.

All combinators work at the oracle level.  In particular truncation is an
oracle filter, not a representation-level operation: behaviorally the two
agree, and no field extensions are needed.  Every constructor and
combinator also supplies its rank in closed form (a count, one
union-find pass, one column reduction, one maximum matching, or one call
per inner rank), so a rank query on a tree built here never falls back to
a greedy scan of an independence oracle.  Transversal and linear oracles
resume each query from the last one, the last matching or the reduction
of the columns the two masks share, and direct sums ask only the parts a
query changes.  Graphic, GF(2) linear and 0/1-capped partition matroids,
and their direct sums, relabelings and parallel copies, also carry GF(2)
vectors (:attr:`Matroid.gf2`); no other kind does, not even free
matroids (unit vectors take n^2 / 2 bits).
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .core import BYTE_BITS, ElementSet, GroundSet, Matroid, Record, bits_of
from .fields import Matrix, gf
from .graphs import BipartiteGraph, MultiGraph, augment

MIN_REPRESENTATION_PRIME = 10**6
DEFAULT_REPRESENTATION_PRIME = 2147483647  # 2^31 - 1


class PartitionOfGroundSet(Record):
    """A partition of a ground set into non-empty, disjoint, covering blocks."""

    __slots__ = {"universe": "GroundSet", "blocks": "tuple[ElementSet, ...]"}

    @staticmethod
    def build(universe: GroundSet, blocks: Iterable[Iterable[int]]) -> "PartitionOfGroundSet":
        return PartitionOfGroundSet(universe, tuple(ElementSet(universe, b) for b in blocks))

    def __post_init__(self) -> None:
        seen = 0
        for block in self.blocks:
            if block.mask == 0:
                raise ValueError("partition blocks must be non-empty")
            if block.mask & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= block.mask
        if seen != self.universe.full_mask:
            raise ValueError("partition blocks must cover the universe")

    def block_masks(self) -> tuple[int, ...]:
        return tuple(b.mask for b in self.blocks)

    def to_json(self) -> list[list[int]]:
        return [sorted(b) for b in self.blocks]


class HyperplaneFamily(Record):
    """Rank-r exclusion family: proper subsets of size >= r with pairwise
    intersections of size <= r - 2.  Avoiding these sets defines the bases
    of a paving matroid."""

    __slots__ = {"universe": "GroundSet", "r": "int", "sets": "tuple[ElementSet, ...]"}

    @staticmethod
    def build(universe: GroundSet, r: int, sets: Iterable[Iterable[int]]) -> "HyperplaneFamily":
        return HyperplaneFamily(universe, r, tuple(ElementSet(universe, s) for s in sets))

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError("rank must be at least 2")
        if self.universe.size < self.r:
            raise ValueError("ground set smaller than rank")
        full = self.universe.full_mask
        for i, h in enumerate(self.sets):
            if len(h) < self.r:
                raise ValueError(f"family set {i} has fewer than r={self.r} elements")
            if h.mask == full:
                raise ValueError(f"family set {i} is not a proper subset")
        for i in range(len(self.sets)):
            for j in range(i + 1, len(self.sets)):
                inter = self.sets[i].mask & self.sets[j].mask
                if inter.bit_count() > self.r - 2:
                    raise ValueError(
                        f"family sets {i} and {j} intersect in more than r-2 elements"
                    )


def free_matroid(ground: GroundSet) -> Matroid:
    """Every subset independent."""
    desc = {"kind": "free", "size": ground.size}
    return Matroid(ground, "free", lambda mask: True, desc, int.bit_count)


def uniform_matroid(ground: GroundSet, r: int) -> Matroid:
    """Independent iff at most ``r`` elements."""
    if not 0 <= r <= ground.size:
        raise ValueError(f"uniform rank {r} out of range for size {ground.size}")
    desc = {"kind": "uniform", "size": ground.size, "r": r}
    return Matroid(ground, "uniform", lambda mask: mask.bit_count() <= r, desc,
                   lambda mask: min(mask.bit_count(), r))


def partition_matroid(partition: PartitionOfGroundSet, caps: Sequence[int]) -> Matroid:
    """Independent iff each block contributes at most its cap.

    When every cap is 0 or 1, an element of block i has the GF(2) vector
    ``cap << i``: a loop under cap 0, and under cap 1 the same unit
    vector as the rest of its block.
    """
    blocks = partition.block_masks()
    if len(caps) != len(blocks):
        raise ValueError("one cap per block required")
    for cap, block in zip(caps, blocks):
        if not 0 <= cap <= block.bit_count():
            raise ValueError(f"cap {cap} out of range for block of size {block.bit_count()}")
    caps = tuple(int(c) for c in caps)

    def indep(mask: int) -> bool:
        for block, cap in zip(blocks, caps):
            if (mask & block).bit_count() > cap:
                return False
        return True

    def rank(mask: int) -> int:
        return sum(min((mask & block).bit_count(), cap) for block, cap in zip(blocks, caps))

    listed = partition.to_json()
    vectors = None
    if all(cap <= 1 for cap in caps):
        vectors = [0] * partition.universe.size
        for i, (members, cap) in enumerate(zip(listed, caps)):
            for e in members:
                vectors[e] = cap << i
    desc = {"kind": "partition", "size": partition.universe.size,
            "blocks": listed, "caps": list(caps)}
    return Matroid(partition.universe, "partition", indep, desc, rank, vectors)


def graphic_matroid(graph: MultiGraph) -> Matroid:
    """Edge sets independent iff they form a forest.

    Self-loops are dependent singletons; two parallel edges form a
    two-element circuit.  The GF(2) vectors are the edges' vertex
    incidence vectors.
    """
    desc = {"kind": "graphic", "graph": graph.to_json()}
    return Matroid(graph.ground_set(), "graphic", graph.is_forest_mask, desc,
                   graph.forest_rank_mask, graph.incidence_vectors())


def transversal_matroid(graph: BipartiteGraph) -> Matroid:
    """Left-side sets independent iff a matching saturates them; the rank
    of a set is the size of a maximum matching of it.

    Each query resumes from the last one's matching (right -> left): it
    keeps the pairs whose left vertex is in its mask and augments only
    the mask's other elements, in index order, independence up to the
    first that fails.  Kuhn's lemma makes this exact: a vertex with no
    augmenting path never gains one as the matching grows.  Each query
    builds a new matching and stores it only after it returns, so a query
    that raises leaves nothing behind and concurrent queries only ever
    read a whole one.
    """
    adj = graph.adjacency()
    last = [{}]  # the last query's matching, right -> left

    def grow(mask: int, stop: bool) -> int:
        match, rest = {}, mask
        for t, s in last[0].items():
            if mask >> s & 1:
                match[t] = s
                rest ^= 1 << s
        for s in bits_of(rest):
            if not augment(adj, match, s) and stop:
                break
        last[0] = match
        return len(match)

    desc = {"kind": "transversal", "graph": graph.to_json()}
    return Matroid(graph.left, "transversal",
                   lambda mask: grow(mask, True) == mask.bit_count(), desc,
                   lambda mask: grow(mask, False))


def paving_matroid(family: HyperplaneFamily) -> Matroid:
    """Bases are the r-sets contained in no family set.

    Every set smaller than r is independent, so the result is paving by
    construction; the family invariants guarantee the basis axioms.  The
    family sets are the hyperplanes with at least r elements, so a set of
    r or more elements has rank r - 1 inside a family set and r otherwise.
    """
    r = family.r
    exclusions = tuple(h.mask for h in family.sets)

    def indep(mask: int) -> bool:
        size = mask.bit_count()
        if size < r:
            return True
        if size > r:
            return False
        for h in exclusions:
            if mask & ~h == 0:
                return False
        return True

    def rank(mask: int) -> int:
        size = mask.bit_count()
        if size < r:
            return size
        for h in exclusions:
            if mask & ~h == 0:
                return r - 1
        return r

    desc = {"kind": "paving", "size": family.universe.size, "r": r,
            "hyperplanes": [sorted(h) for h in family.sets]}
    return Matroid(family.universe, "paving", indep, desc, rank)


def linear_matroid(matrix: Matrix) -> Matroid:
    """Column sets independent iff linearly independent over the exact field;
    over GF(2) the packed columns are the GF(2) vectors.

    Each query resumes from the last one's column reduction
    (:meth:`~basepack.fields.Matrix.column_rank`): the two masks share
    the columns below their lowest differing element, so only the rest
    is reduced.  More columns than rows are dependent at once.  Each
    query builds a new step list and stores it with its mask only after
    it returns, so a query that raises leaves nothing behind and
    concurrent queries only ever read a whole pair.
    """
    ground = GroundSet(matrix.cols)
    last = [(0, [])]  # the last query's mask and reduction steps

    def reduce(mask: int, stop_at_zero: bool) -> int:
        seen, steps = last[0]
        low = (seen ^ mask) & -(seen ^ mask)  # 0 when the masks are equal
        steps = steps[:(mask & low - 1).bit_count()]
        answer = matrix.column_rank(list(bits_of(mask)), steps, stop_at_zero)
        last[0] = (mask, steps)
        return answer

    def indep(mask: int) -> bool:
        size = mask.bit_count()
        return size <= matrix.rows and reduce(mask, True) == size

    desc = {"kind": "linear", "matrix": matrix.to_json()}
    return Matroid(ground, "linear", indep, desc, lambda mask: reduce(mask, False),
                   matrix._columns if matrix.field == gf(2) else None)


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    """Disjoint union of two matroids; see :func:`direct_sum_all`."""
    return direct_sum_all([m1, m2])


def direct_sum_all(parts: Sequence[Matroid]) -> Matroid:
    """Disjoint union: independent iff every part's projection is independent.

    Each ground set is shifted past the ones before it.  The parts are
    queried left to right, stopping at the first dependent projection;
    the rank is the sum of the projected part ranks.  The descriptor
    lists every part in one flat ``parts`` list.
    Labels are merged when every part has them and they stay unique,
    otherwise dropped.  When every part has GF(2) vectors, each part's are
    shifted past the bits that the parts before it use.  A single part is
    returned as it is.

    Each part remembers its last projected mask and its answer, one
    ``(mask, answer)`` pair for independence and one for rank, so a
    query pays only for the parts it changes (the dynamic-oracle view of
    Blikstad, Mukhopadhyay, Nanongkai and Tu, STOC 2023).  This relies on
    the parts being deterministic.  A pair is stored only after the part
    returns, and is replaced as one tuple, so a part that raises leaves
    no answer behind and concurrent queries only ever read a whole pair.
    """
    if len(parts) == 1:
        return parts[0]
    labels = None
    if parts and all(m.ground.labels is not None for m in parts):
        merged = tuple(t for m in parts for t in m.ground.labels)
        if len(set(merged)) == len(merged):
            labels = merged
    pieces = []  # (index, shift, width mask, oracle, rank) per part
    size = 0
    for i, m in enumerate(parts):
        pieces.append((i, size, (1 << m.ground.size) - 1, m.indep_mask, m.rank_mask))
        size += m.ground.size
    vectors = None
    if all(m.gf2 is not None for m in parts):
        vectors, used = [], 0
        for m in parts:
            vectors += [v << used for v in m.gf2]
            used += max(m.gf2, default=0).bit_length()
    # Per part, the last (projected mask, answer); -1 matches no mask.
    last_indep = [(-1, False)] * len(parts)
    last_rank = [(-1, 0)] * len(parts)

    def indep(mask: int) -> bool:
        for i, shift, width, inner, _ in pieces:
            sub = mask >> shift & width
            seen, answer = last_indep[i]
            if seen != sub:
                answer = inner(sub)
                last_indep[i] = (sub, answer)
            if not answer:
                return False
        return True

    def rank(mask: int) -> int:
        total = 0
        for i, shift, width, _, inner in pieces:
            sub = mask >> shift & width
            seen, answer = last_rank[i]
            if seen != sub:
                answer = inner(sub)
                last_rank[i] = (sub, answer)
            total += answer
        return total

    desc = {"kind": "direct-sum", "parts": [m.descriptor for m in parts]}
    return Matroid(GroundSet(size, labels), "direct-sum", indep, desc, rank, vectors)


def truncate(matroid: Matroid, k: int) -> Matroid:
    """Keep independent sets of size at most ``k``; rank is ``min(k, r)``."""
    if k < 0:
        raise ValueError("truncation bound must be non-negative")
    inner = matroid.indep_mask
    inner_rank = matroid.rank_mask

    def indep(mask: int) -> bool:
        return mask.bit_count() <= k and inner(mask)

    desc = {"kind": "truncation", "k": k, "inner": matroid.descriptor}
    return Matroid(matroid.ground, "truncation", indep, desc,
                   lambda mask: min(k, inner_rank(mask)))


def dual(matroid: Matroid) -> Matroid:
    """Independent iff the complement spans the original matroid:
    X is co-independent exactly when r(E - X) = r(E).  The dual rank is
    r*(X) = |X| + r(E - X) - r(E) (Oxley, *Matroid Theory*, section 2.1):
    one inner rank call per query either way, after the full rank."""
    full = matroid.ground.full_mask
    inner_rank = matroid.rank_mask

    def indep(mask: int) -> bool:
        need = matroid.full_rank
        return inner_rank(full & ~mask) == need

    def rank(mask: int) -> int:
        need = matroid.full_rank
        return mask.bit_count() + inner_rank(full & ~mask) - need

    desc = {"kind": "dual", "inner": matroid.descriptor}
    return Matroid(matroid.ground, "dual", indep, desc, rank)


def _element_map(matroid: Matroid, image: Sequence[int], ground: GroundSet, desc: dict) -> Matroid:
    """New element i is inner element ``image[i]``.

    A set is independent when no two of its elements share an image and
    the inner matroid accepts the images; its rank is the inner rank of
    the images, and each element has its image's GF(2) vector.  A mask
    with a shared image asks the inner oracle nothing: its walk stops at
    the first element whose image is taken already.
    """
    inner = matroid.indep_mask
    inner_rank = matroid.rank_mask
    images = tuple(1 << j for j in image)
    shared = len(set(image)) < len(image)  # parallel copies, not a relabeling

    def remap(mask: int, strict: bool = False) -> int:
        # A byte at a time, as graphs.union_find reads its masks; when
        # strict, -1 at the first element whose image is taken already.
        inner_mask = 0
        for j, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
            if byte:
                for b in BYTE_BITS[byte]:
                    bit = images[8 * j + b]
                    if strict and inner_mask & bit:
                        return -1
                    inner_mask |= bit
        return inner_mask

    def indep(mask: int) -> bool:
        inner_mask = remap(mask, shared)
        return inner_mask >= 0 and inner(inner_mask)

    vectors = None if matroid.gf2 is None else [matroid.gf2[j] for j in image]
    return Matroid(ground, desc["kind"], indep, desc,
                   lambda mask: inner_rank(remap(mask)), vectors)


def parallel_copies(matroid: Matroid, k: int) -> Matroid:
    """Replace each element by ``k`` parallel copies.

    Copy j of element e sits at index e*k + j and is labeled "<e>#<j+1>".
    Independent iff at most one copy of each element is used and the
    projection is independent in the original; the rank is the rank of
    the projection.  Each copy has its element's GF(2) vector.
    """
    if k < 1:
        raise ValueError("need at least one copy")
    n = matroid.ground.size
    labels = tuple(
        f"{matroid.ground.label(e)}#{j + 1}" for e in range(n) for j in range(k)
    )
    desc = {"kind": "parallel-copies", "k": k, "inner": matroid.descriptor}
    return _element_map(matroid, [e for e in range(n) for _ in range(k)],
                        GroundSet(n * k, labels), desc)


def relabel(matroid: Matroid, perm: Sequence[int]) -> Matroid:
    """Reindex the ground set: new element i is old element perm[i] and keeps
    its label and GF(2) vector, if any; :meth:`~basepack.core.Matroid.with_labels`
    sets new labels."""
    n = matroid.ground.size
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of the ground set")
    perm = tuple(int(p) for p in perm)
    labels = matroid.ground.labels
    ground = GroundSet(n, None if labels is None else tuple(labels[p] for p in perm))
    desc = {"kind": "relabel", "perm": list(perm), "inner": matroid.descriptor}
    return _element_map(matroid, perm, ground, desc)


def transversal_linear_representation(
    graph: BipartiteGraph, p: int = DEFAULT_REPRESENTATION_PRIME, seed: int = 0
) -> Matrix:
    """Randomized GF(p) representation of the transversal matroid of ``graph``.

    Entry (t, s) is a uniformly random nonzero field element when (s, t)
    is an edge, else zero.  By a union bound over subset determinants the
    linear matroid of the result differs from the transversal matroid
    with probability at most |S| * 2^|S| / p, so p must be large; primes
    below 10^6 are rejected, and the matrix constructor rejects a
    composite p.  Deterministic for a fixed seed.
    """
    if p < MIN_REPRESENTATION_PRIME:
        raise ValueError(f"prime {p} too small for a trustworthy representation")
    rng = random.Random(seed)
    edges = graph.edges
    entries = [[0] * graph.left.size for _ in range(graph.right.size)]
    for s in range(graph.left.size):
        for t in range(graph.right.size):
            if (s, t) in edges:
                entries[t][s] = rng.randrange(1, p)
    return Matrix(gf(p), graph.right.size, graph.left.size, entries)


def matroid_from_descriptor(desc: dict) -> Matroid:
    """Rebuild a matroid from its serialized construction tree."""
    kind = desc["kind"]
    if kind == "free":
        return free_matroid(GroundSet(desc["size"]))
    if kind == "uniform":
        return uniform_matroid(GroundSet(desc["size"]), desc["r"])
    if kind == "partition":
        universe = GroundSet(desc["size"])
        part = PartitionOfGroundSet.build(universe, desc["blocks"])
        return partition_matroid(part, desc["caps"])
    if kind == "graphic":
        return graphic_matroid(MultiGraph.from_json(desc["graph"]))
    if kind == "transversal":
        return transversal_matroid(BipartiteGraph.from_json(desc["graph"]))
    if kind == "paving":
        universe = GroundSet(desc["size"])
        family = HyperplaneFamily.build(universe, desc["r"], desc["hyperplanes"])
        return paving_matroid(family)
    if kind == "linear":
        return linear_matroid(Matrix.from_json(desc["matrix"]))
    if kind == "direct-sum":
        parts = [matroid_from_descriptor(d) for d in desc["parts"]]
        return direct_sum_all(parts)
    if kind == "truncation":
        return truncate(matroid_from_descriptor(desc["inner"]), desc["k"])
    if kind == "dual":
        return dual(matroid_from_descriptor(desc["inner"]))
    if kind == "parallel-copies":
        return parallel_copies(matroid_from_descriptor(desc["inner"]), desc["k"])
    if kind == "relabel":
        return relabel(matroid_from_descriptor(desc["inner"]), desc["perm"])
    raise ValueError(f"unknown matroid descriptor kind {kind!r}")
