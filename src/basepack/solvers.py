"""Desk-scale exact solvers, polynomial-time certificate verifiers, and the
problem registry that ties each problem name to them.

Each solver sweeps its full search space (with a documented symmetry
break and independence pruning) and returns a certificate or None; the
verifiers check a certificate against the defining conditions of its
problem with oracle calls only, never enumeration.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Union

from .core import (
    DEFAULT_EXHAUSTIVE_CAP,
    ElementSet,
    GroundSet,
    MaskState,
    Record,
    ResourceCapExceeded,
    StateAt,
    class_states,
    gf2_states,
    mask_of,
    split_blocks,
)
from .certificates import (
    ArcSetCertificate,
    AssignmentCertificate,
    EdgeSetCertificate,
    ModularCertificate,
    PartitionCertificate,
)
from .formats import FormatError, parse_arc_list, parse_bipartite, parse_dimacs, read_payload
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


class VerifyResult(Record):
    __slots__ = {"ok": "bool", "reason": "Optional[str]"}
    _defaults = {"reason": None}

    def __bool__(self) -> bool:
        return self.ok


def solve_common_bases(
    inst: CommonBasesInstance, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> Optional[PartitionCertificate]:
    """Partition the ground set into k common bases, or return None.

    Assigns the elements in index order to the k classes with
    :func:`split_blocks`, which breaks the symmetry between classes and
    prunes on class size and on independence in both matroids, asked
    through :func:`class_states`.  At k = 2 the first answer is the
    lexicographically first valid first class.
    """
    n = inst.ground.size
    if n > cap:
        raise ResourceCapExceeded(f"common-bases sweep over {n} elements exceeds cap {cap}")
    r1, r2 = inst.m1.full_rank, inst.m2.full_rank
    if r1 != r2 or n != inst.k * r1:
        return None
    blocks = [1 << e for e in range(n)]
    at = class_states(blocks, inst.m1, inst.m2)
    classes = next(split_blocks(blocks, inst.k, r1, [at(0) for _ in range(inst.k)]), None)
    if classes is None:
        return None
    return PartitionCertificate.from_masks(inst.ground, classes)


def _split_modules(
    ground: GroundSet, blocks: Sequence[ElementSet], cap: int, at: StateAt
) -> Optional[ModularCertificate]:
    """The first split of the modules into two classes of at most ``cap``
    elements, each class asking a state ``at(0)`` of the maker ``at``;
    modules go in by descending size, ties by index, and the largest is
    pinned to the first class."""
    order = sorted(blocks, key=lambda b: -len(b))
    classes = next(split_blocks([b.mask for b in order], 2, cap, [at(0), at(0)]), None)
    if classes is None:
        return None
    first = [i for i, b in enumerate(blocks) if b.mask & classes[0]]
    return ModularCertificate.from_modules(ground, blocks, first)


def solve_modular_bases(
    inst: Union[ModularInstance, ParityInstance],
) -> Optional[ModularCertificate]:
    """Partition the ground set into two bases along the modules, or return None.

    Also answers parity instances, whose modules are pairs; those whose
    size is not twice the rank are infeasible by counting and answered
    None directly.  Prunes on class size and on independence, asked
    through :func:`class_states`.
    """
    matroid = inst.matroid
    r = matroid.full_rank
    if matroid.ground.size != 2 * r:
        return None
    blocks = inst.modules.blocks
    at = class_states([b.mask for b in blocks], matroid)
    return _split_modules(matroid.ground, blocks, r, at)


solve_parity_bases = solve_modular_bases


def solve_modular_trees(inst: ModularTreesInstance) -> Optional[ModularCertificate]:
    """Partition the edges into two modular spanning trees, or return None.

    The modular-bases search on the graphic matroid, plus a prune: a
    class may grow only while the edges outside it, which are the other
    class and every still-unassigned module, still connect the graph.
    This is what makes tightly packed instances tractable.  Both tests
    are GF(2)-linear, so each class keeps two bases (:func:`gf2_states`):
    a class is a forest iff its edges' vertex-incidence vectors are
    independent, and the rest of the connected graph still connects iff
    the class's cut labels (:meth:`MultiGraph.cut_labels`) are, that is,
    iff the class is independent in the cographic matroid.
    """
    if not inst.shape_feasible():
        return None
    graph, blocks = inst.graph, inst.modules.blocks
    at = gf2_states([b.mask for b in blocks], graph.incidence_vectors(), graph.cut_labels())
    return _split_modules(graph.ground_set(), blocks, graph.vertex_count - 1, at)


def solve_naesat(
    formula: CnfFormula, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> Optional[AssignmentCertificate]:
    """Find an assignment leaving every clause with a true and a false literal.

    Two-colours, with :func:`split_blocks`, a hypergraph on the 2n
    literals whose edges are the pairs {x, not x} and the clauses: a class
    may hold no whole edge, so one class is the false literals and the
    other the true ones, and no clause lies in either.  The positive
    literals go first, x1 and then x_n down to x2, followed by the negated
    literals in the same order; x sits at its position p and not x at
    n + p, so one shift finds a pair.  Pinning x1 to the false class is the
    complement symmetry (an assignment works exactly when its complement
    does).  The check is hereditary, so forced placement is unit
    propagation: a literal whose complement is placed, or whose clause has
    every other literal in one class, must go to the other class.  The
    first answer is the smallest assignment in binary, x_n most
    significant, with x1 false.
    """
    n = formula.num_vars
    if n > cap:
        raise ResourceCapExceeded(f"{n} variables exceeds cap {cap}")
    position = [n - v if v else 0 for v in range(n)]
    clauses = sorted(
        mask_of(position[v] if positive else n + position[v] for v, positive in clause)
        for clause in formula.clauses
    )  # a clause inside a mask is no larger than the mask

    def no_whole_edge(grown: int) -> bool:
        if grown & grown >> n:  # a pair {x, not x}
            return False
        for clause in clauses:
            if clause > grown:
                return True
            if clause & grown == clause:
                return False
        return True

    states = [MaskState(no_whole_edge), MaskState(no_whole_edge)]
    classes = next(split_blocks([1 << p for p in range(2 * n)], 2, n, states), None)
    if classes is None:
        return None
    return AssignmentCertificate(tuple(bool(classes[1] >> p & 1) for p in position))


def solve_perfect_even_factor(
    digraph: Digraph, cap: int = EVEN_FACTOR_CAP
) -> Optional[ArcSetCertificate]:
    """Find arcs giving every vertex in- and out-degree 1 with all cycles even.

    Backtracks over successor choices in vertex order, heads ascending,
    keeping only the predecessor of each vertex.  Vertex v always ends a
    path of placed arcs, found by following predecessors back from v; a
    head that already has a predecessor is skipped, and so is the start
    of v's own path when the arc to it would close an odd cycle.
    """
    n = digraph.vertex_count
    if n > cap:
        raise ResourceCapExceeded(f"{n} vertices exceeds cap {cap}")
    out = digraph.out_neighbors()
    indeg = [0] * n
    for _, v in set(digraph.arcs):
        indeg[v] += 1
    if any(not neighbors for neighbors in out) or any(d == 0 for d in indeg):
        return None

    pred = [-1] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        start, arcs = v, 1
        while pred[start] != -1:
            start, arcs = pred[start], arcs + 1
        for w in out[v]:
            if pred[w] != -1 or w == start and arcs % 2:
                continue
            pred[w] = v
            if place(v + 1):
                return True
            pred[w] = -1
        return False

    if not place(0):
        return None
    return ArcSetCertificate(frozenset((v, w) for w, v in enumerate(pred)))


def solve_mod4_two_factor(
    graph: BipartiteGraph, cap: int = TWO_FACTOR_CAP
) -> Optional[EdgeSetCertificate]:
    """Find a 2-factor whose cycle lengths are all multiples of 4.

    Enumerates 2-factors by choosing two incident edges per left vertex
    in index order (right degrees capped at 2 during the sweep).  Two
    prunes cut only choices that cannot complete, so the first answer is
    the plain enumeration's.  A pair is skipped when one of the left
    vertex's right neighbours could no longer reach degree 2 from its
    unplaced left neighbours.  The chosen edges form paths between right
    vertices of degree 1, and cycles; each path end knows the other end
    and the path's length, so a pair that closes a cycle whose length is
    not a multiple of 4 is skipped at once.  A complete choice is
    therefore an answer.
    """
    n_s, n_t = graph.left.size, graph.right.size
    if n_s != n_t:
        return None
    if n_s > cap:
        raise ResourceCapExceeded(f"{n_s} vertices per side exceeds cap {cap}")
    if n_s == 0:
        return EdgeSetCertificate(frozenset())
    adj = graph.adjacency()
    unplaced = graph.right_degrees()  # left neighbours not yet placed
    if any(len(nbrs) < 2 for nbrs in adj) or any(d < 2 for d in unplaced):
        return None

    t_deg = [0] * n_t
    end = list(range(n_t))  # the other end of the path ending at t (t while bare)
    length = [0] * n_t  # edges on the path ending at t
    chosen: list[tuple[int, int]] = []

    def place(s: int) -> bool:
        if s == n_s:
            return True
        nbrs = adj[s]
        for t in nbrs:
            unplaced[t] -= 1
        for t1, t2 in itertools.combinations(nbrs, 2):
            if t_deg[t1] == 2 or t_deg[t2] == 2:
                continue
            a, b = end[t1], end[t2]
            closes = a == t2
            if closes and (length[t1] + 2) % 4:
                continue
            t_deg[t1] += 1
            t_deg[t2] += 1
            if all(t_deg[t] + unplaced[t] >= 2 for t in nbrs):
                if not closes:
                    saved = end[a], length[a], end[b], length[b]
                    end[a], end[b] = b, a
                    length[a] = length[b] = length[t1] + length[t2] + 2
                chosen.append((t1, t2))
                if place(s + 1):
                    return True
                chosen.pop()
                if not closes:
                    end[a], length[a], end[b], length[b] = saved
            t_deg[t1] -= 1
            t_deg[t2] -= 1
        for t in nbrs:
            unplaced[t] += 1
        return False

    if not place(0):
        return None
    return EdgeSetCertificate(frozenset((s, t) for s, pair in enumerate(chosen) for t in pair))


# ---------------------------------------------------------------------------
# Certificate verification: each verifier returns None or the reason for
# rejecting.  Only oracle calls, degree counts and cycle walks: no
# enumeration, so verification stays polynomial.


def _verify_partition(classes: Sequence[ElementSet], k: int, full_mask: int) -> Optional[str]:
    if len(classes) != k:
        return f"expected {k} classes, got {len(classes)}"
    seen = 0
    for c in classes:
        if c.mask & seen:
            return "classes overlap"
        seen |= c.mask
    if seen != full_mask:
        return "classes do not cover the ground set"
    return None


def _verify_common_bases(inst: CommonBasesInstance, cert: PartitionCertificate) -> Optional[str]:
    bad = _verify_partition(cert.classes, inst.k, inst.ground.full_mask)
    if bad:
        return bad
    for idx, c in enumerate(cert.classes):
        for tag, m in (("first", inst.m1), ("second", inst.m2)):
            if len(c) != m.full_rank or not m.indep_mask(c.mask):
                return f"class {idx} is not a basis of the {tag} matroid"
    return None


def _verify_modular_bases(
    inst: Union[ModularInstance, ParityInstance], cert: ModularCertificate
) -> Optional[str]:
    """Two bases of the matroid, each a union of modules."""
    m = inst.matroid
    blocks = inst.modules.blocks
    bad = _verify_partition(cert.classes, 2, m.ground.full_mask)
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
        if len(c) != m.full_rank or not m.indep_mask(c.mask):
            return f"class {idx} is not a basis"
    return None


def _verify_modular_trees(inst: ModularTreesInstance, cert: ModularCertificate) -> Optional[str]:
    if not inst.shape_feasible():
        return "the graph is disconnected or does not have 2(V - 1) edges"
    return _verify_modular_bases(inst.to_modular_instance(), cert)


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


class Problem(Record):
    """One row of the registry; ``solve`` accepts ``cap=`` when ``takes_cap``.

    ``parse`` reads the problem's text format, used when the input is not
    JSON.
    """

    __slots__ = {
        "instance": "type", "parse": "Optional[Callable]", "solve": "Callable",
        "takes_cap": "bool", "certificate": "type", "verify": "Callable[..., Optional[str]]",
    }


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
    """Read a certificate's JSON, which must carry the schema of the problem's
    certificate class; set-valued ones are read over the instance's ground set."""
    ground = (instance.ground,) if hasattr(instance, "ground") else ()
    return read_payload(data, (lookup(problem).certificate,), "certificate payload", *ground)


def verify_certificate(problem: str, instance, certificate) -> VerifyResult:
    """Check a certificate against its instance's defining conditions."""
    reason = lookup(problem).verify(instance, certificate)
    return VerifyResult(reason is None, reason)
