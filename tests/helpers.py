"""Shared test utilities: naive reference oracles and instance generators.

The naive functions here deliberately avoid the library's algorithmic
paths (no greedy rank, no exchange graphs, no pruned sweeps): they
enumerate, so the fast implementations have something independent to be
checked against.  Beyond enumeration sizes, ``check_min_max_certificate``
certifies an intersection answer by the min-max theorem, with a
reachability search of its own and no call into the engine.
"""

from __future__ import annotations

import itertools
import random

from basepack.core import ElementSet, GroundSet, Matroid, bits_of, mask_of, rank
from basepack.constructions import (
    HyperplaneFamily,
    PartitionOfGroundSet,
    direct_sum,
    dual,
    free_matroid,
    graphic_matroid,
    linear_matroid,
    partition_matroid,
    paving_matroid,
    transversal_matroid,
    truncate,
    uniform_matroid,
)
from basepack.fields import Matrix, gf
from basepack.gadget import LETTERS
from basepack.graphs import BipartiteGraph, Digraph, MultiGraph
from basepack.instances import CommonBasesInstance, ModularInstance


def naive_rank(matroid: Matroid, mask: int) -> int:
    """Max size of an independent submask, by full submask enumeration."""
    best = 0
    sub = mask
    while True:
        if matroid.indep_mask(sub):
            best = max(best, sub.bit_count())
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return best


def reference_rank(matroid: Matroid, mask: int) -> int:
    """Greedy rank through the independence oracle alone, in ascending
    element order with no early stop: what every native rank must equal."""
    kept = 0
    for e in bits_of(mask):
        if matroid.indep_mask(kept | 1 << e):
            kept |= 1 << e
    return kept.bit_count()


def naive_bases(matroid: Matroid) -> list[int]:
    n = matroid.ground.size
    r = naive_rank(matroid, (1 << n) - 1)
    return [
        m for m in range(1 << n) if m.bit_count() == r and matroid.indep_mask(m)
    ]


def naive_max_common(m1: Matroid, m2: Matroid) -> int:
    n = m1.ground.size
    best = 0
    for mask in range(1 << n):
        if m1.indep_mask(mask) and m2.indep_mask(mask):
            best = max(best, mask.bit_count())
    return best


def check_min_max_certificate(m1: Matroid, m2: Matroid, mask: int) -> None:
    """Certify ``mask`` as a maximum common independent set without the engine.

    By the matroid intersection theorem, a common independent set I is
    maximum iff some A has r1(A) + r2(E - A) = |I|.  A here is the set of
    elements that reach a sink (I + x independent in m2) in the exchange
    graph of I, arcs x -> y when I - y + x is independent in m2 and
    y -> x when it is independent in m1 (x outside I, y inside), found by
    a backward breadth-first search of its own.  No source (I + x
    independent in m1) may be reached, and the ranks come from the public
    ``rank``.  Raises AssertionError on the first failure.
    """
    i1, i2 = m1.indep_mask, m2.indep_mask
    if not (i1(mask) and i2(mask)):
        raise AssertionError("not independent in both matroids")
    n = m1.ground.size
    inside = [e for e in range(n) if mask >> e & 1]
    outside = [e for e in range(n) if not mask >> e & 1]
    reached = [x for x in outside if i2(mask | 1 << x)]
    seen = set(reached)
    for v in reached:  # grows while it is walked: breadth-first order
        if not mask >> v & 1 and i1(mask | 1 << v):
            raise AssertionError(f"source {v} reaches a sink: I is not maximum")
        if mask >> v & 1:
            preds = [x for x in outside if x not in seen and i2((mask ^ 1 << v) | 1 << x)]
        else:
            preds = [y for y in inside if y not in seen and i1((mask ^ 1 << y) | 1 << v)]
        seen.update(preds)
        reached.extend(preds)
    a = ElementSet(m1.ground, seen)
    bound = rank(m1, a) + rank(m2, a.complement())
    if bound != len(inside):
        raise AssertionError(f"r1(A) + r2(E - A) = {bound} != |I| = {len(inside)}")


def reference_distance_layers(i1, i2, current: int, n: int):
    """The exchange-graph layers of ``current`` by all-pairs arc tests.

    Breadth-first from the sources (I + x independent in m1) up to the
    first layer holding a sink (I + x independent in m2), which keeps
    only its sinks; None when no sink is reachable.  Each unseen vertex
    is tested against every vertex of the previous layer: x -> y when
    I - y + x is independent in m2, y -> x when it is independent in m1.
    Kept to check the engine's circuit-query layering against.
    """
    outside = [e for e in range(n) if not current >> e & 1]
    inside = [e for e in range(n) if current >> e & 1]
    sinks = {x for x in outside if i2(current | 1 << x)}
    if not sinks:
        return None
    layer = [x for x in outside if i1(current | 1 << x)]
    seen = set(layer)
    layers = []
    while layer:
        hits = [x for x in layer if x in sinks]
        if hits:
            layers.append(hits)
            return layers
        layers.append(layer)
        if len(layers) % 2:
            nxt = [
                y for y in inside
                if y not in seen and any(i2((current ^ 1 << y) | 1 << x) for x in layer)
            ]
        else:
            nxt = [
                x for x in outside
                if x not in seen and any(i1((current ^ 1 << y) | 1 << x) for y in layer)
            ]
        seen.update(nxt)
        layer = nxt
    return None


def naive_partition_feasible(matroid: Matroid, k: int) -> bool:
    """Can the ground set be split into k independent sets?  Plain DFS."""
    n = matroid.ground.size
    classes = [0] * k

    def place(e: int) -> bool:
        if e == n:
            return True
        for c in range(k):
            grown = classes[c] | (1 << e)
            if matroid.indep_mask(grown):
                classes[c] = grown
                if place(e + 1):
                    return True
                classes[c] ^= 1 << e
            if classes[c] == 0:
                break  # later empty classes are symmetric
        return False

    return place(0)


def naive_common_bases_feasible(inst: CommonBasesInstance) -> bool:
    """All k-colorings of the ground set, no symmetry break."""
    n = inst.ground.size
    r1 = naive_rank(inst.m1, (1 << n) - 1)
    r2 = naive_rank(inst.m2, (1 << n) - 1)
    if r1 != r2 or n != inst.k * r1:
        return False
    if n == 0:
        return True
    for coloring in itertools.product(range(inst.k), repeat=n):
        ok = True
        masks = [0] * inst.k
        for e, c in enumerate(coloring):
            masks[c] |= 1 << e
        for m in masks:
            if m.bit_count() != r1 or not (inst.m1.indep_mask(m) and inst.m2.indep_mask(m)):
                ok = False
                break
        if ok:
            return True
    return False


def naive_modular_bases_feasible(inst: ModularInstance) -> bool:
    """All subsets of modules, no symmetry break."""
    blocks = [b.mask for b in inst.modules.blocks]
    n = inst.matroid.ground.size
    full = (1 << n) - 1
    r = naive_rank(inst.matroid, full)
    if n != 2 * r:
        return False
    for choose in range(1 << len(blocks)):
        mask = 0
        for i in range(len(blocks)):
            if choose >> i & 1:
                mask |= blocks[i]
        other = full ^ mask
        if (
            mask.bit_count() == r
            and other.bit_count() == r
            and inst.matroid.indep_mask(mask)
            and inst.matroid.indep_mask(other)
        ):
            return True
    return False


def naive_nae_satisfiable(formula) -> bool:
    """All assignments, literal-by-literal check."""
    n = formula.num_vars
    for bits in range(1 << n):
        assignment = [bool(bits >> v & 1) for v in range(n)]
        good = True
        for clause in formula.clauses:
            values = [assignment[v] == positive for v, positive in clause]
            if all(values) or not any(values):
                good = False
                break
        if good:
            return True
    return False


def first_nae_assignment(formula) -> tuple[bool, ...] | None:
    """The first not-all-equal assignment with x1 false, counting in binary
    with x1 the lowest bit: the answer the solver must give."""
    n = formula.num_vars
    for bits in range(0, 1 << n, 2):
        assignment = tuple(bool(bits >> v & 1) for v in range(n))
        if all(
            len({assignment[v] == positive for v, positive in clause}) == 2
            for clause in formula.clauses
        ):
            return assignment
    return None


def first_even_factor(digraph: Digraph) -> tuple[int, ...] | None:
    """The first successor tuple, in lexicographic order (vertex 0 most
    significant, heads ascending), that is a permutation supported by the
    arcs with only even cycles: the answer the solver must give."""
    n = digraph.vertex_count
    arcs = digraph.arc_set()
    for perm in itertools.permutations(range(n)):
        if any((v, perm[v]) not in arcs for v in range(n)):
            continue
        seen = set()
        ok = True
        for start in range(n):
            if start in seen:
                continue
            length = 0
            v = start
            while v not in seen:
                seen.add(v)
                v = perm[v]
                length += 1
            if length % 2:
                ok = False
                break
        if ok:
            return perm
    return None


def naive_even_factor_feasible(digraph: Digraph) -> bool:
    """Try every vertex permutation supported by the arcs."""
    return first_even_factor(digraph) is not None


def cycle_lengths(n_left: int, n_right: int, edges) -> list[int]:
    """Independent cycle-length computation for a 2-factor edge set."""
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for s, t in edges:
        adj.setdefault(("s", s), []).append(("t", t))
        adj.setdefault(("t", t), []).append(("s", s))
    seen = set()
    lengths = []
    for node in sorted(adj):
        if node in seen:
            continue
        length = 0
        prev = None
        cur = node
        while cur not in seen:
            seen.add(cur)
            nxt = [x for x in adj[cur] if x != prev]
            step = nxt[0] if nxt else prev
            prev, cur = cur, step
            length += 1
        lengths.append(length)
    return lengths


def first_mod4_two_factor(graph: BipartiteGraph) -> frozenset | None:
    """The first choice of two edges per left vertex (vertex 0 most
    significant, pairs in index order) that is a 2-factor with every cycle
    length a multiple of 4: the answer the solver must give."""
    n = graph.left.size
    if n != graph.right.size:
        return None
    choices = [list(itertools.combinations(nbrs, 2)) for nbrs in graph.adjacency()]
    for pairs in itertools.product(*choices):
        degree = [0] * n
        for pair in pairs:
            for t in pair:
                degree[t] += 1
        if any(d != 2 for d in degree):
            continue
        edges = [(s, t) for s, pair in enumerate(pairs) for t in pair]
        if all(length % 4 == 0 for length in cycle_lengths(n, n, edges)):
            return frozenset(edges)
    return None


def naive_mod4_two_factor_feasible(graph: BipartiteGraph) -> bool:
    """Sweep all edge subsets at tiny sizes; degree filter then cycle check."""
    if graph.left.size != graph.right.size:
        return False
    if graph.left.size == 0:
        return True
    edges = sorted(graph.edges)
    m = len(edges)
    need = 2 * graph.left.size
    for mask in range(1 << m):
        if mask.bit_count() != need:
            continue
        chosen = [edges[i] for i in bits_of(mask)]
        sdeg = [0] * graph.left.size
        tdeg = [0] * graph.right.size
        for s, t in chosen:
            sdeg[s] += 1
            tdeg[t] += 1
        if any(d != 2 for d in sdeg) or any(d != 2 for d in tdeg):
            continue
        if all(l % 4 == 0 for l in cycle_lengths(graph.left.size, graph.right.size, chosen)):
            return True
    return False


# ---------------------------------------------------------------------------
# The plain search that core.split_blocks must match


def reference_split_blocks(blocks, k: int, cap: int, indep):
    """``core.split_blocks`` without forced placement, as it stood before:
    the same assignments in the same order, found by plain backtracking."""
    n = len(blocks)
    classes = [0] * k
    where = [-1] * n  # class holding block i, -1 while unplaced
    opened = [0] * (n + 1)  # classes in use before block i is placed
    step = 0
    while True:
        if step == n:
            yield tuple(classes)
            if step == 0:
                return
            step -= 1
        block = blocks[step]
        c = where[step]
        if c >= 0:
            classes[c] ^= block
        limit = min(opened[step] + 1, k)
        c += 1
        while c < limit:
            grown = classes[c] | block
            if grown.bit_count() <= cap and indep(grown):
                break
            c += 1
        if c < limit:
            classes[c] |= block
            where[step] = c
            opened[step + 1] = max(opened[step], c + 1)
            step += 1
        else:
            where[step] = -1
            if step == 0:
                return
            step -= 1


# ---------------------------------------------------------------------------
# Random instance generators (all seeded by the caller)


def random_multigraph(rng: random.Random, n_edges: int) -> MultiGraph:
    n_vertices = rng.randint(max(2, n_edges // 2), n_edges + 1)
    edges = []
    for _ in range(n_edges):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        edges.append((u, v))
    return MultiGraph.build(n_vertices, edges)


def random_connected_multigraph(rng: random.Random, n_vertices: int, n_edges: int) -> MultiGraph:
    """A random spanning tree on shuffled vertices plus random extra edges,
    self-loops and parallel edges among them, in shuffled edge order."""
    names = list(range(n_vertices))
    rng.shuffle(names)
    edges = [(names[v], names[rng.randrange(v)]) for v in range(1, n_vertices)]
    edges += [(rng.randrange(n_vertices), rng.randrange(n_vertices))
              for _ in range(n_edges - len(edges))]
    rng.shuffle(edges)
    return MultiGraph.build(n_vertices, edges)


def gf2_independent(vectors) -> bool:
    """Whether no nonempty subset of the GF(2) vectors sums to zero, by
    growing their span one vector at a time."""
    span = {0}
    for v in vectors:
        if v in span:
            return False
        span |= {x ^ v for x in span}
    return True


def reference_column_rank(matrix: Matrix, cols) -> int:
    """Rank of the columns ``cols`` of a matrix over GF(p) or Q, by
    Gaussian elimination on a copy of its rows with no early stop, apart
    from the column reduction that ``Matrix.column_rank`` runs."""
    p = 0 if matrix.field == "q" else int(matrix.field[3:])
    work = [[row[c] for c in cols] for row in matrix.entries]
    rank = 0
    for col in range(len(cols)):
        pivot = next((r for r in range(rank, matrix.rows) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        head = work[rank][col]
        for r in range(rank + 1, matrix.rows):
            if p:
                scale = work[r][col] * pow(head, p - 2, p) % p
                work[r] = [(a - scale * b) % p for a, b in zip(work[r], work[rank])]
            else:
                scale = work[r][col] / head
                work[r] = [a - scale * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def random_bipartite(rng: random.Random, n_left: int, n_right: int, p: float = 0.5) -> BipartiteGraph:
    edges = [
        (s, t)
        for s in range(n_left)
        for t in range(n_right)
        if rng.random() < p
    ]
    return BipartiteGraph.build(n_left, n_right, edges)


def random_digraph(rng: random.Random, n: int, p: float = 0.4) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph.build(n, arcs)


def random_paving_family(rng: random.Random, ground: GroundSet, r: int) -> HyperplaneFamily:
    sets: list[int] = []
    for _ in range(rng.randint(0, 3)):
        size = rng.randint(r, max(r, ground.size - 1))
        candidate = mask_of(rng.sample(range(ground.size), size))
        if candidate == ground.full_mask:
            continue
        if all((candidate & h).bit_count() <= r - 2 for h in sets):
            sets.append(candidate)
    return HyperplaneFamily.build(
        ground, r, [list(bits_of(m)) for m in sets]
    )


MATROID_KINDS = (
    "uniform", "free", "graphic", "transversal", "partition", "paving", "linear", "combined"
)


def random_matroid(rng: random.Random, n: int, kind: str | None = None) -> Matroid:
    """A random small matroid drawn across the construction classes, or of
    the given ``kind`` (paving needs n >= 2, combined n >= 2 to combine)."""
    if kind is None:
        kind = rng.choice(MATROID_KINDS)
    ground = GroundSet(n)
    if n == 0:
        return free_matroid(ground)
    if kind == "free":
        return free_matroid(ground)
    if kind == "uniform":
        return uniform_matroid(ground, rng.randint(0, n))
    if kind == "graphic":
        return graphic_matroid(random_multigraph(rng, n))
    if kind == "transversal":
        return transversal_matroid(random_bipartite(rng, n, rng.randint(1, n)))
    if kind == "partition":
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))) if n > 1 else [])
        bounds = [0] + cuts + [n]
        blocks = [list(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)]
        caps = [rng.randint(0, len(b)) for b in blocks]
        return partition_matroid(PartitionOfGroundSet.build(ground, blocks), caps)
    if kind == "paving" and n >= 2:
        r = rng.randint(2, n)
        return paving_matroid(random_paving_family(rng, ground, r))
    if kind == "linear":
        rows = rng.randint(1, max(1, n))
        p = rng.choice([2, 3, 5])
        entries = [[rng.randrange(p) for _ in range(n)] for _ in range(rows)]
        return linear_matroid(Matrix.build(gf(p), entries))
    # combined: a combinator over two smaller matroids
    if n >= 2:
        left = random_matroid(rng, n // 2)
        right = random_matroid(rng, n - n // 2)
        out = direct_sum(left, right)
        choice = rng.random()
        if choice < 0.33:
            out = truncate(out, rng.randint(0, n))
        elif choice < 0.5:
            out = dual(out)
        return out
    return uniform_matroid(ground, rng.randint(0, n))


def random_matroid_of_rank(rng: random.Random, n: int, r: int) -> Matroid:
    """A random matroid on n elements with rank exactly r (via truncation)."""
    for _ in range(200):
        m = random_matroid(rng, n)
        if m.full_rank >= r:
            return truncate(m, r) if m.full_rank > r else m
    # Fallback: uniform always works.
    return uniform_matroid(GroundSet(n), r)


def random_partition(rng: random.Random, ground: GroundSet, max_block: int = 3) -> PartitionOfGroundSet:
    elements = list(range(ground.size))
    rng.shuffle(elements)
    blocks = []
    i = 0
    while i < len(elements):
        size = rng.randint(1, min(max_block, len(elements) - i))
        blocks.append(sorted(elements[i : i + size]))
        i += size
    blocks.sort()
    return PartitionOfGroundSet.build(ground, blocks)


def random_modular_instance(rng: random.Random, n: int) -> ModularInstance:
    assert n % 2 == 0 and n >= 2
    matroid = random_matroid_of_rank(rng, n, n // 2)
    modules = random_partition(rng, matroid.ground)
    return ModularInstance(matroid, modules)


def random_common_bases_instance(rng: random.Random, n: int) -> CommonBasesInstance:
    assert n % 2 == 0 and n >= 2
    m1 = random_matroid_of_rank(rng, n, n // 2)
    m2 = random_matroid_of_rank(rng, n, n // 2)
    return CommonBasesInstance(m1, m2, 2)


def oracle_equal(m1: Matroid, m2: Matroid) -> bool:
    """Exhaustive oracle agreement on every subset."""
    if m1.ground.size != m2.ground.size:
        return False
    for mask in range(1 << m1.ground.size):
        if m1.indep_mask(mask) != m2.indep_mask(mask):
            return False
    return True


def reference_gadget_sweep(pair) -> dict:
    """The mask sweep over all 2^(9*ell - 1) bipartitions of a gadget pair.

    Element 0 is fixed in the first class; each class is tested for being
    a forest in both graphs with its own union-find.  Returns the feasible
    count, the first size-(5*ell, 4*ell) witness (large class first), the
    first size violation and the three per-block structure flags, for
    checking ``verify_gadget`` against.
    """
    ell = pair.ell
    n = 9 * ell
    full = (1 << n) - 1
    first_ends = pair.first_graph.endpoints()
    second_ends = pair.second_graph.endpoints()
    vcount = 6 * ell

    def forest(ends, mask: int) -> bool:
        parent = list(range(vcount))
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = ends[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                return False
            parent[u] = v
        return True

    block_masks = [sum(1 << (9 * j + t) for t in range(9)) for j in range(ell)]
    efgh_masks = [sum(1 << (9 * j + LETTERS.index(t)) for t in "efgh") for j in range(ell)]
    i_bits = [1 << (9 * j + 8) for j in range(ell)]
    hat_masks = [block_masks[j] & ~i_bits[j] for j in range(ell)]
    target_sizes = {5 * ell, 4 * ell}
    out = {"feasible": 0, "witness": None, "violation": None,
           "efgh_ok": True, "i_ok": True, "split53_ok": True}

    for half in range(1 << (n - 1)):
        s1 = (half << 1) | 1
        s2 = full ^ s1
        if not (forest(first_ends, s1) and forest(first_ends, s2)
                and forest(second_ends, s1) and forest(second_ends, s2)):
            continue
        out["feasible"] += 1
        size1 = s1.bit_count()
        if {size1, n - size1} != target_sizes:
            if out["violation"] is None:
                out["violation"] = (s1, s2)
        elif out["witness"] is None:
            out["witness"] = (s1, s2) if size1 == 5 * ell else (s2, s1)
        agreed_class = None
        for j in range(ell):
            inside = s1 & efgh_masks[j]
            if inside != 0 and inside != efgh_masks[j]:
                out["efgh_ok"] = False
                break
            cls = 1 if inside else 2
            if agreed_class is None:
                agreed_class = cls
            elif cls != agreed_class:
                out["i_ok"] = False
            if (cls == 1) == bool(s1 & i_bits[j]):
                out["i_ok"] = False
            hat1 = (s1 & hat_masks[j]).bit_count()
            if {hat1, 8 - hat1} != {5, 3}:
                out["split53_ok"] = False
    return out


def reference_direct_sum(parts: list[Matroid]) -> Matroid:
    """The left-deep chain of two-part sums, ((m1 + m2) + m3) + ...

    Each link checks its left side on the low bits first and its right
    side only when that passes, so the parts are queried left to right
    with short circuit, for checking the flat n-ary node against.
    """
    out = parts[0]
    for m in parts[1:]:
        n1 = out.ground.size
        low = (1 << n1) - 1

        def indep(mask: int, i1=out.indep_mask, i2=m.indep_mask, n1=n1, low=low) -> bool:
            return i1(mask & low) and i2(mask >> n1)

        out = Matroid(GroundSet(n1 + m.ground.size), "direct-sum", indep)
    return out


def reference_remap(perm, mask: int) -> int:
    """``mask`` through the permutation bit by bit: new bit i is old bit perm[i]."""
    out = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            out |= 1 << perm[i]
    return out


def reference_matching(adj, lefts) -> dict[int, int]:
    """Recursive augmenting-path matching: right -> left, scanning in the given order."""
    match_right: dict[int, int] = {}

    def augment(s: int, seen: set[int]) -> bool:
        for t in adj[s]:
            if t in seen:
                continue
            seen.add(t)
            if t not in match_right or augment(match_right[t], seen):
                match_right[t] = s
                return True
        return False

    for s in lefts:
        augment(s, set())
    return match_right


def reference_dual(matroid: Matroid) -> Matroid:
    """The dual as a scan of its own: a greedy scan of the complement that
    stops once it holds full-rank many elements.

    The full rank comes from a plain greedy scan over the whole ground
    set on the first query.  Kept to check that the dual built on
    ``Matroid.rank_mask`` answers the same with the same inner queries.
    """
    full = matroid.ground.full_mask
    inner = matroid.indep_mask
    known: list[int] = []

    def greedy(mask: int, stop: int) -> int:
        kept = 0
        rest = mask
        while rest and kept.bit_count() != stop:
            low = rest & -rest
            rest ^= low
            if inner(kept | low):
                kept |= low
        return kept.bit_count()

    def indep(mask: int) -> bool:
        if not known:
            known.append(greedy(full, -1))
        return greedy(full & ~mask, known[0]) == known[0]

    return Matroid(matroid.ground, "dual", indep)
