"""Desk-scale exact solvers, polynomial-time certificate verifiers, and the
problem registry that ties each problem name to them.

Each solver sweeps its full search space (with a documented symmetry
break and independence pruning) and returns a certificate or None; the
verifiers check a certificate against the defining conditions of its
problem with oracle calls only, never enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .core import DEFAULT_EXHAUSTIVE_CAP, ElementSet, ResourceCapExceeded, mask_of
from .certificates import (
    ArcSetCertificate,
    AssignmentCertificate,
    EdgeSetCertificate,
    ModularCertificate,
    PartitionCertificate,
)
from .formats import FormatError, parse_arc_list, parse_bipartite, parse_dimacs
from .graphs import BipartiteGraph, Digraph, two_factor_cycles
from .instances import (
    CnfFormula,
    CommonBasesInstance,
    ModularInstance,
    ModularTreesInstance,
    ParityInstance,
)

EVEN_FACTOR_CAP = 12
TWO_FACTOR_CAP = DEFAULT_EXHAUSTIVE_CAP


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def solve_common_bases(
    inst: CommonBasesInstance, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> Optional[PartitionCertificate]:
    """Partition the ground set into k common bases, or return None.

    k = 2 sweeps all candidate first classes of the right size with
    element 0 pinned to the first class (the two classes are
    interchangeable); larger k assigns elements to classes by
    backtracking, pruning on class size and on independence in both
    matroids.
    """
    n = inst.ground.size
    if n > cap:
        raise ResourceCapExceeded(f"common-bases sweep over {n} elements exceeds cap {cap}")
    r1, r2 = inst.m1.full_rank, inst.m2.full_rank
    if r1 != r2 or n != inst.k * r1:
        return None
    r = r1
    i1, i2 = inst.m1.indep_mask, inst.m2.indep_mask
    ground = inst.ground

    if n == 0:
        empty = ElementSet.from_mask(ground, 0)
        return PartitionCertificate(tuple(empty for _ in range(inst.k)))

    if inst.k == 2:
        full = ground.full_mask
        for combo in itertools.combinations(range(1, n), r - 1):
            first = 1 | mask_of(combo)
            if not (i1(first) and i2(first)):
                continue
            second = full ^ first
            if i1(second) and i2(second):
                return PartitionCertificate(
                    (
                        ElementSet.from_mask(ground, first),
                        ElementSet.from_mask(ground, second),
                    )
                )
        return None

    classes = [0] * inst.k

    def assign(e: int, used: int) -> bool:
        if e == n:
            return True
        for c in range(min(used + 1, inst.k)):
            grown = classes[c] | (1 << e)
            if grown.bit_count() <= r and i1(grown) and i2(grown):
                classes[c] = grown
                if assign(e + 1, max(used, c + 1)):
                    return True
                classes[c] ^= 1 << e
        return False

    if not assign(0, 0):
        return None
    return PartitionCertificate(
        tuple(ElementSet.from_mask(ground, m) for m in classes)
    )


def solve_modular_bases(
    inst: Union[ModularInstance, ParityInstance],
) -> Optional[ModularCertificate]:
    """Partition the ground set into two bases along the modules, or return None.

    Also answers parity instances, whose modules are pairs; those whose
    size is not twice the rank are infeasible by counting and answered
    None directly.  Depth-first over modules in descending size order
    (ties by index), the largest module pinned to the first class;
    prunes on class size and on independence of the grown class.
    """
    matroid = inst.matroid
    r = matroid.full_rank
    if matroid.ground.size != 2 * r:
        return None
    indep = matroid.indep_mask
    blocks = inst.modules.blocks
    masks = [b.mask for b in blocks]
    order = sorted(range(len(masks)), key=lambda i: (-masks[i].bit_count(), i))

    picked: list[int] = []

    def place(step: int, mask_a: int, size_a: int, mask_b: int, size_b: int) -> bool:
        if step == len(order):
            return True
        block = masks[order[step]]
        size = block.bit_count()
        if size_a + size <= r:
            grown = mask_a | block
            if indep(grown):
                picked.append(order[step])
                if place(step + 1, grown, size_a + size, mask_b, size_b):
                    return True
                picked.pop()
        if step > 0 and size_b + size <= r:
            grown = mask_b | block
            if indep(grown):
                if place(step + 1, mask_a, size_a, grown, size_b + size):
                    return True
        return False

    if not place(0, 0, 0, 0, 0):
        return None
    return ModularCertificate.from_modules(matroid.ground, blocks, picked)


solve_parity_bases = solve_modular_bases


class _RollbackForest:
    """Union-find without path compression, so unions can be undone."""

    __slots__ = ("parent", "size", "trail", "components")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[int] = []
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def add_edges(self, idxs: Sequence[int], ends: Sequence[tuple[int, int]]) -> Optional[int]:
        """Union the endpoints of each edge; None and self-rollback on a cycle."""
        mark = len(self.trail)
        for i in idxs:
            u, v = ends[i]
            ru, rv = self.find(u), self.find(v)
            if ru == rv:
                self.rollback(mark)
                return None
            if self.size[ru] > self.size[rv]:
                ru, rv = rv, ru
            self.parent[ru] = rv
            self.size[rv] += self.size[ru]
            self.components -= 1
            self.trail.append(ru)
        return mark

    def rollback(self, mark: int) -> None:
        while len(self.trail) > mark:
            ru = self.trail.pop()
            rv = self.parent[ru]
            self.size[rv] -= self.size[ru]
            self.parent[ru] = ru
            self.components += 1


def solve_modular_trees(inst: ModularTreesInstance) -> Optional[ModularCertificate]:
    """Partition the edges into two modular spanning trees, or return None.

    Specialized graph sweep: besides forest pruning it rejects a branch
    as soon as a class plus every still-unassigned module can no longer
    connect the graph, which is what makes tightly packed instances
    tractable.  Cross-checked against the generic modular solver on the
    graphic matroid.
    """
    if not inst.shape_feasible():
        return None
    graph = inst.graph
    n_vertices = graph.vertex_count
    ends = graph.endpoints()
    half = n_vertices - 1
    blocks = inst.modules.blocks
    order = sorted(range(len(blocks)), key=lambda i: (-len(blocks[i]), i))
    module_edges = [sorted(blocks[i]) for i in order]

    # suffix_edges[k]: edges of modules still unassigned at step k.
    suffix_edges: list[list[int]] = [[] for _ in range(len(order) + 1)]
    for k in range(len(order) - 1, -1, -1):
        suffix_edges[k] = module_edges[k] + suffix_edges[k + 1]

    forest_a = _RollbackForest(n_vertices)
    forest_b = _RollbackForest(n_vertices)

    def spannable(forest: _RollbackForest, step: int) -> bool:
        if forest.components == 1:
            return True
        mark = len(forest.trail)
        parent = forest.parent
        size = forest.size
        trail = forest.trail
        for i in suffix_edges[step]:
            u, v = ends[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                continue
            if size[u] > size[v]:
                u, v = v, u
            parent[u] = v
            size[v] += size[u]
            trail.append(u)
            forest.components -= 1
            if forest.components == 1:
                break
        ok = forest.components == 1
        forest.rollback(mark)
        return ok

    picked: list[int] = []

    def place(step: int, size_a: int, size_b: int) -> bool:
        if step == len(order):
            return size_a == half and size_b == half
        edges = module_edges[step]
        size = len(edges)
        if size_a + size <= half:
            mark = forest_a.add_edges(edges, ends)
            if mark is not None:
                if spannable(forest_a, step + 1) and spannable(forest_b, step + 1):
                    picked.append(order[step])
                    if place(step + 1, size_a + size, size_b):
                        return True
                    picked.pop()
                forest_a.rollback(mark)
        if step > 0 and size_b + size <= half:
            mark = forest_b.add_edges(edges, ends)
            if mark is not None:
                if spannable(forest_a, step + 1) and spannable(forest_b, step + 1):
                    if place(step + 1, size_a, size_b + size):
                        return True
                forest_b.rollback(mark)
        return False

    if not place(0, 0, 0):
        return None
    return ModularCertificate.from_modules(graph.ground_set(), blocks, picked)


def solve_naesat(
    formula: CnfFormula, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> Optional[AssignmentCertificate]:
    """Find an assignment leaving every clause with a true and a false literal.

    Sweeps assignments with the first variable pinned false: an
    assignment works exactly when its complement does, so half the
    space decides.
    """
    n = formula.num_vars
    if n > cap:
        raise ResourceCapExceeded(f"{n} variables exceeds cap {cap}")
    pos_masks = []
    neg_masks = []
    for clause in formula.clauses:
        pos_masks.append(mask_of(v for v, positive in clause if positive))
        neg_masks.append(mask_of(v for v, positive in clause if not positive))
    for half in range(1 << max(0, n - 1)):
        assignment = half << 1
        ok = True
        for pos, neg in zip(pos_masks, neg_masks):
            if assignment & pos == pos and assignment & neg == 0:
                ok = False  # every literal true
                break
            if assignment & pos == 0 and assignment & neg == neg:
                ok = False  # every literal false
                break
        if ok:
            return AssignmentCertificate(
                tuple(bool(assignment >> v & 1) for v in range(n))
            )
    return None


def solve_perfect_even_factor(
    digraph: Digraph, cap: int = EVEN_FACTOR_CAP
) -> Optional[ArcSetCertificate]:
    """Find arcs giving every vertex in- and out-degree 1 with all cycles even.

    Backtracks over successor choices in vertex order, maintaining the
    open paths of the partial successor function; a cycle is checked for
    even length the moment it closes, which prunes odd cycles early.
    """
    n = digraph.vertex_count
    if n > cap:
        raise ResourceCapExceeded(f"{n} vertices exceeds cap {cap}")
    if n == 0:
        return ArcSetCertificate(frozenset())
    out = digraph.out_neighbors()
    indeg = [0] * n
    for _, v in set(digraph.arcs):
        indeg[v] += 1
    if any(not neighbors for neighbors in out) or any(d == 0 for d in indeg):
        return None

    succ = [-1] * n
    has_pred = [False] * n
    path_start = list(range(n))  # valid at path ends
    path_end = list(range(n))  # valid at path starts
    path_len = [1] * n  # valid at path starts, counts vertices

    def place(v: int) -> bool:
        while v < n and succ[v] != -1:
            v += 1
        if v == n:
            return True
        start = path_start[v]
        for w in out[v]:
            if w == start:
                if path_len[start] % 2 != 0 or has_pred[w]:
                    continue
                succ[v] = w
                has_pred[w] = True
                if place(v + 1):
                    return True
                succ[v] = -1
                has_pred[w] = False
            elif not has_pred[w]:
                # w starts another path; merging cannot create a cycle.
                e2 = path_end[w]
                old_len = path_len[start]
                succ[v] = w
                has_pred[w] = True
                path_start[e2] = start
                path_end[start] = e2
                path_len[start] = old_len + path_len[w]
                if place(v + 1):
                    return True
                succ[v] = -1
                has_pred[w] = False
                path_start[e2] = w
                path_end[start] = v
                path_len[start] = old_len
        return False

    if not place(0):
        return None
    return ArcSetCertificate(frozenset((v, succ[v]) for v in range(n)))


def solve_mod4_two_factor(
    graph: BipartiteGraph, cap: int = TWO_FACTOR_CAP
) -> Optional[EdgeSetCertificate]:
    """Find a 2-factor whose cycle lengths are all multiples of 4.

    Enumerates 2-factors by choosing two incident edges per left vertex
    in index order (right degrees capped at 2 during the sweep), then
    filters complete factors by cycle length.
    """
    n_s, n_t = graph.left.size, graph.right.size
    if n_s != n_t:
        return None
    if n_s > cap:
        raise ResourceCapExceeded(f"{n_s} vertices per side exceeds cap {cap}")
    if n_s == 0:
        return EdgeSetCertificate(frozenset())
    adj = graph.adjacency()
    if any(len(nbrs) < 2 for nbrs in adj) or any(d < 2 for d in graph.right_degrees()):
        return None

    t_deg = [0] * n_t
    chosen: list[tuple[int, int]] = []

    def place(s: int) -> Optional[frozenset]:
        if s == n_s:
            edges = frozenset((i, t) for i, pair in enumerate(chosen) for t in pair)
            cycles = two_factor_cycles(n_s, n_t, edges)
            if all(len(c) % 4 == 0 for c in cycles):
                return edges
            return None
        for t1, t2 in itertools.combinations(adj[s], 2):
            if t_deg[t1] == 2 or t_deg[t2] == 2:
                continue
            t_deg[t1] += 1
            t_deg[t2] += 1
            chosen.append((t1, t2))
            got = place(s + 1)
            if got is not None:
                return got
            chosen.pop()
            t_deg[t1] -= 1
            t_deg[t2] -= 1
        return None

    edges = place(0)
    return EdgeSetCertificate(edges) if edges is not None else None


# ---------------------------------------------------------------------------
# Certificate verification: each verifier returns None or the reason for
# rejecting.  Only oracle calls, degree counts and cycle walks: no
# enumeration, so verification stays polynomial.


def _verify_partition(classes: Sequence[ElementSet], full_mask: int) -> Optional[str]:
    seen = 0
    for c in classes:
        if c.mask & seen:
            return "classes overlap"
        seen |= c.mask
    if seen != full_mask:
        return "classes do not cover the ground set"
    return None


def _verify_common_bases(inst: CommonBasesInstance, cert: PartitionCertificate) -> Optional[str]:
    if len(cert.classes) != inst.k:
        return f"expected {inst.k} classes, got {len(cert.classes)}"
    bad = _verify_partition(cert.classes, inst.ground.full_mask)
    if bad:
        return bad
    for idx, c in enumerate(cert.classes):
        for tag, m in (("first", inst.m1), ("second", inst.m2)):
            if len(c) != m.full_rank or not m.indep_mask(c.mask):
                return f"class {idx} is not a basis of the {tag} matroid"
    return None


def _verify_modular_partition(
    blocks: Sequence[ElementSet],
    cert: ModularCertificate,
    full_mask: int,
    basis_size: int,
    indep: Callable[[int], bool],
) -> Optional[str]:
    """Two classes of ``basis_size`` independent elements, each a union of modules."""
    if len(cert.classes) != 2:
        return "expected two classes"
    bad = _verify_partition(cert.classes, full_mask)
    if bad:
        return bad
    union = 0
    for i in cert.first_modules:
        if not 0 <= i < len(blocks):
            return f"module index {i} out of range"
        union |= blocks[i].mask
    if union != cert.classes[0].mask:
        return "first class is not the union of its declared modules"
    for i, block in enumerate(blocks):
        inside = block.mask & cert.classes[0].mask
        if inside != 0 and inside != block.mask:
            return f"module {i} is split between classes"
    for idx, c in enumerate(cert.classes):
        if len(c) != basis_size or not indep(c.mask):
            return f"class {idx} is not a basis"
    return None


def _verify_modular_bases(
    inst: Union[ModularInstance, ParityInstance], cert: ModularCertificate
) -> Optional[str]:
    m = inst.matroid
    return _verify_modular_partition(
        inst.modules.blocks, cert, m.ground.full_mask, m.full_rank, m.indep_mask
    )


def _verify_modular_trees(inst: ModularTreesInstance, cert: ModularCertificate) -> Optional[str]:
    if not inst.shape_feasible():
        return "the graph is disconnected or does not have 2(V - 1) edges"
    graph = inst.graph
    return _verify_modular_partition(
        inst.modules.blocks, cert, (1 << graph.edge_count) - 1, graph.vertex_count - 1,
        graph.is_forest_mask,
    )


def _verify_naesat(formula: CnfFormula, cert: AssignmentCertificate) -> Optional[str]:
    if len(cert.values) != formula.num_vars:
        return "assignment length mismatch"
    if not formula.nae_satisfied(cert.values):
        return "some clause has all literals equal"
    return None


def _verify_even_factor(digraph: Digraph, cert: ArcSetCertificate) -> Optional[str]:
    available = digraph.arc_set()
    outdeg = [0] * digraph.vertex_count
    indeg = [0] * digraph.vertex_count
    for u, v in cert.arcs:
        if (u, v) not in available:
            return f"arc ({u},{v}) not in the digraph"
        outdeg[u] += 1
        indeg[v] += 1
    for v in range(digraph.vertex_count):
        if outdeg[v] != 1 or indeg[v] != 1:
            return f"vertex {v} does not have in- and out-degree 1"
    succ = {u: v for u, v in cert.arcs}
    seen: set[int] = set()
    for v0 in range(digraph.vertex_count):
        if v0 in seen:
            continue
        length = 0
        v = v0
        while v not in seen:
            seen.add(v)
            v = succ[v]
            length += 1
        if length % 2 != 0:
            return f"cycle through {v0} has odd length {length}"
    return None


def _verify_mod4_two_factor(graph: BipartiteGraph, cert: EdgeSetCertificate) -> Optional[str]:
    for s, t in cert.edges:
        if (s, t) not in graph.edges:
            return f"edge ({s},{t}) not in the graph"
    s_deg = [0] * graph.left.size
    t_deg = [0] * graph.right.size
    for s, t in cert.edges:
        s_deg[s] += 1
        t_deg[t] += 1
    if any(d != 2 for d in s_deg) or any(d != 2 for d in t_deg):
        return "not every vertex has degree 2"
    cycles = two_factor_cycles(graph.left.size, graph.right.size, cert.edges)
    for cycle in cycles:
        if len(cycle) % 4 != 0:
            return f"cycle of length {len(cycle)} is not a multiple of 4"
    return None


# ---------------------------------------------------------------------------
# The problem registry: the one place that says how each problem is read,
# solved, certified and verified.


@dataclass(frozen=True)
class Problem:
    """One row of the registry; ``solve`` accepts ``cap=`` when ``takes_cap``."""

    instance: type
    parse: Optional[Callable]  # text format, read when the input is not JSON
    solve: Callable
    takes_cap: bool
    certificate: type
    verify: Callable[..., Optional[str]]


REGISTRY: dict[str, Problem] = {
    "common-bases": Problem(CommonBasesInstance, None, solve_common_bases, True,
                            PartitionCertificate, _verify_common_bases),
    "modular-bases": Problem(ModularInstance, None, solve_modular_bases, False,
                             ModularCertificate, _verify_modular_bases),
    "parity-bases": Problem(ParityInstance, None, solve_parity_bases, False,
                            ModularCertificate, _verify_modular_bases),
    "modular-trees": Problem(ModularTreesInstance, None, solve_modular_trees, False,
                             ModularCertificate, _verify_modular_trees),
    "naesat": Problem(CnfFormula, parse_dimacs, solve_naesat, True,
                      AssignmentCertificate, _verify_naesat),
    "even-factor": Problem(Digraph, parse_arc_list, solve_perfect_even_factor, True,
                           ArcSetCertificate, _verify_even_factor),
    "mod4-2factor": Problem(BipartiteGraph, parse_bipartite, solve_mod4_two_factor, True,
                            EdgeSetCertificate, _verify_mod4_two_factor),
}

PROBLEMS = tuple(sorted(REGISTRY))


def lookup(problem: str) -> Problem:
    try:
        return REGISTRY[problem]
    except KeyError:
        raise FormatError(f"unknown problem {problem!r}") from None


def load_certificate(problem: str, data: dict, instance) -> object:
    """Read a certificate's JSON; set-valued ones over the instance's ground set."""
    read = lookup(problem).certificate.from_json
    try:
        return read(data, instance.ground) if hasattr(instance, "ground") else read(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad certificate payload: {exc}") from None


def verify_certificate(problem: str, instance, certificate) -> VerifyResult:
    """Check a certificate against its instance's defining conditions."""
    reason = lookup(problem).verify(instance, certificate)
    return VerifyResult(reason is None, reason)
