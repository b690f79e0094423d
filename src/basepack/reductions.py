"""Instance transformations between the packing problems.

Five reductions, each bundling the target instance with enough
bookkeeping to map certificates both ways:

* modular bases -> common bases (gadget-backed, rule r1)
* not-all-equal SAT -> modular spanning trees (rule r2)
* perfect even factor -> 2-factor with cycle lengths divisible by 4 (r3)
* that 2-factor problem -> parity bases of a transversal matroid (r4)
* common bases -> common bases against a partition matroid (r5)

Certificate maps verify their input before mapping and their output
after; a verified YES never silently degrades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import ElementSet, GroundSet, Matroid, mask_of, memoized
from .certificates import (
    ArcSetCertificate,
    AssignmentCertificate,
    EdgeSetCertificate,
    ModularCertificate,
    PartitionCertificate,
)
from .constructions import (
    PartitionOfGroundSet,
    direct_sum,
    direct_sum_all,
    dual,
    free_matroid,
    parallel_copies,
    partition_matroid,
    relabel,
    transversal_matroid,
    truncate,
)
from .gadget import DEFAULT_LABELING, BlockLabeling, GadgetPair, build_gadget
from .graphs import BipartiteGraph, Digraph, MultiGraph, maximum_matching, two_factor_cycles
from .instances import (
    CnfFormula,
    CommonBasesInstance,
    ModularInstance,
    ModularTreesInstance,
    ParityInstance,
)
from .solvers import verify_certificate


class CertificateRejected(ValueError):
    """A certificate handed to a solution map failed verification."""


def _require(problem: str, instance, certificate, side: str) -> None:
    result = verify_certificate(problem, instance, certificate)
    if not result.ok:
        raise CertificateRejected(f"{side} certificate invalid: {result.reason}")


def _with_ground(matroid: Matroid, ground: GroundSet) -> Matroid:
    """The same oracle presented over a relabeled ground set."""
    return Matroid(ground, matroid.kind, matroid.indep_mask, matroid.descriptor)


# ---------------------------------------------------------------------------
# r1: modular bases -> common bases


@dataclass(frozen=True)
class CommonBasesReduction:
    source: ModularInstance
    instance: CommonBasesInstance
    labeling: BlockLabeling
    gadgets: tuple[GadgetPair, ...]
    module_offsets: tuple[int, ...]
    provenance: dict[str, str]

    def gadget_mask(self, module_idx: int, letters: str) -> int:
        return self.gadgets[module_idx].letters_mask(letters) << self.module_offsets[module_idx]


def modular_to_common_bases(
    inst: ModularInstance, labeling: BlockLabeling = DEFAULT_LABELING
) -> CommonBasesReduction:
    """Embed a modular-bases instance into a plain common-bases instance.

    Each module of size p receives its own p-block gadget pair.  The new
    ground set keeps the original elements first, then the gadget
    elements module by module, ten times the original size in total.
    The first output matroid is the half-size truncation of the original
    matroid summed with every gadget's first matroid; the second is, per
    module, the 5p-truncation of the free matroid on the module summed
    with the gadget's second matroid, all summed together.
    """
    matroid = inst.matroid
    n = matroid.ground.size
    blocks = inst.modules.blocks
    gadgets = []
    offsets = []
    labels = [matroid.ground.label(e) for e in range(n)]
    provenance = {label: "original element" for label in labels}
    pos = n
    for m, block in enumerate(blocks):
        pair = build_gadget(labeling, len(block))
        gadgets.append(pair)
        offsets.append(pos)
        for local in range(9 * len(block)):
            label = f"P{m}:{pair.ground.label(local)}"
            labels.append(label)
            provenance[label] = f"gadget element for module {m}"
        pos += 9 * len(block)
    total = pos
    ground = GroundSet(total, tuple(labels))

    # Sweeps and greedy rank scans hit each gadget component with highly
    # repetitive local masks, so cache the component oracles.
    m1 = truncate(
        direct_sum_all(
            [matroid] + [memoized(g.first_matroid) for g in gadgets]
        ),
        total // 2,
    )
    m1 = _with_ground(m1, ground)

    # The second matroid groups each module with its gadget, so build it
    # module-major and then relabel onto the canonical layout.
    components = []
    raw_positions: dict[int, int] = {}
    raw = 0
    for m, block in enumerate(blocks):
        p = len(block)
        for t, e in enumerate(sorted(block)):
            raw_positions[e] = raw + t
        for local in range(9 * p):
            raw_positions[offsets[m] + local] = raw + p + local
        components.append(
            truncate(
                direct_sum(free_matroid(GroundSet(p)), memoized(gadgets[m].second_matroid)),
                5 * p,
            )
        )
        raw += 10 * p
    perm = [raw_positions[i] for i in range(total)]
    m2 = relabel(direct_sum_all(components), perm, labels)
    m2 = _with_ground(m2, ground)

    return CommonBasesReduction(
        source=inst,
        instance=CommonBasesInstance(m1, m2, 2),
        labeling=labeling,
        gadgets=tuple(gadgets),
        module_offsets=tuple(offsets),
        provenance=provenance,
    )


def lift_modular_to_common(
    red: CommonBasesReduction, cert: ModularCertificate
) -> PartitionCertificate:
    """Map a modular-bases partition to a common-bases partition.

    The class containing a module also receives that module's small
    gadget witness class; the other class receives the large one.
    """
    _require("modular-bases", red.source, cert, "source")
    ground = red.instance.ground
    b1 = cert.classes[0].mask
    first = b1
    second = cert.classes[1].mask
    for m, block in enumerate(red.source.modules.blocks):
        small = red.gadget_mask(m, "abci")
        large = red.gadget_mask(m, "defgh")
        if block.mask & b1 == block.mask:
            first |= small
            second |= large
        else:
            first |= large
            second |= small
    lifted = PartitionCertificate(
        (ElementSet.from_mask(ground, first), ElementSet.from_mask(ground, second))
    )
    _require("common-bases", red.instance, lifted, "lifted")
    return lifted


def pull_common_to_modular(
    red: CommonBasesReduction, cert: PartitionCertificate
) -> ModularCertificate:
    """Restrict a common-bases partition back to the original ground set.

    In any valid partition every module lands whole inside one class, so
    the restriction is module-respecting; a split module means the input
    certificate was invalid.
    """
    _require("common-bases", red.instance, cert, "target")
    n = red.source.matroid.ground.size
    s_mask = (1 << n) - 1
    b1 = cert.classes[0].mask & s_mask
    first_modules = []
    for m, block in enumerate(red.source.modules.blocks):
        inside = block.mask & b1
        if inside == block.mask:
            first_modules.append(m)
        elif inside != 0:
            raise CertificateRejected(f"module {m} split between classes")
    pulled = ModularCertificate.from_modules(
        red.source.ground, red.source.modules.blocks, first_modules
    )
    _require("modular-bases", red.source, pulled, "pulled")
    return pulled


# ---------------------------------------------------------------------------
# r2: not-all-equal SAT -> modular spanning trees


@dataclass(frozen=True)
class SatTreesReduction:
    formula: CnfFormula
    instance: ModularTreesInstance
    hub: int
    pos_path_edges: tuple[tuple[int, ...], ...]
    neg_path_edges: tuple[tuple[int, ...], ...]
    pos_path_module: tuple[int, ...]
    neg_path_module: tuple[int, ...]
    pos_pair_modules: tuple[tuple[int, ...], ...]
    neg_pair_modules: tuple[tuple[int, ...], ...]
    clause_edge_modules: tuple[tuple[int, ...], ...]
    provenance: dict[str, str]


def naesat_to_modular_trees(formula: CnfFormula) -> SatTreesReduction:
    """Compile a formula into a graph that splits into two modular spanning
    trees exactly when the formula has a not-all-equal satisfying assignment.

    Per variable: a ladder of two parallel paths (one per polarity, one
    rung vertex per occurrence; a polarity with no occurrences collapses
    to a single edge), chained variable to variable.  Per occurrence: a
    spoke to its rung vertex paired with an edge tying the rung to the
    final chain vertex.  Per clause: a cycle through its occurrence
    rungs.  Paths are modules, spoke+tie pairs are modules, everything
    else is a singleton.
    """
    n = formula.num_vars
    hub = n  # last chain vertex
    next_vid = n + 1
    u_nodes: list[list[int]] = []
    w_nodes: list[list[int]] = []
    v_nodes: list[list[int]] = []
    z_nodes: list[list[int]] = []
    for j in range(n):
        p = formula.positive_count(j)
        q = formula.negative_count(j)
        u_nodes.append(list(range(next_vid, next_vid + p)))
        next_vid += p
        w_nodes.append(list(range(next_vid, next_vid + p)))
        next_vid += p
        v_nodes.append(list(range(next_vid, next_vid + q)))
        next_vid += q
        z_nodes.append(list(range(next_vid, next_vid + q)))
        next_vid += q

    edges: list[tuple[int, int, str]] = []
    modules: list[list[int]] = []
    provenance: dict[str, str] = {}

    def add_edge(a: int, b: int, label: str, role: str) -> int:
        edges.append((a, b, label))
        provenance[label] = role
        return len(edges) - 1

    pos_path: list[tuple[int, ...]] = []
    neg_path: list[tuple[int, ...]] = []
    pos_path_module: list[int] = []
    neg_path_module: list[int] = []
    for j in range(n):
        s_j, t_j = j, j + 1
        p = formula.positive_count(j)
        if p == 0:
            e = add_edge(s_j, t_j, f"x{j + 1}+st", f"variable {j + 1} positive side, no occurrences")
            ids = (e,)
        else:
            chain = [s_j] + u_nodes[j] + [t_j]
            ids = tuple(
                add_edge(chain[i], chain[i + 1], f"x{j + 1}+path{i}",
                         f"variable {j + 1} positive path")
                for i in range(p + 1)
            )
        pos_path.append(ids)
        pos_path_module.append(len(modules))
        modules.append(list(ids))

        q = formula.negative_count(j)
        if q == 0:
            e = add_edge(s_j, t_j, f"x{j + 1}-st", f"variable {j + 1} negative side, no occurrences")
            ids = (e,)
        else:
            chain = [s_j] + v_nodes[j] + [t_j]
            ids = tuple(
                add_edge(chain[i], chain[i + 1], f"x{j + 1}-path{i}",
                         f"variable {j + 1} negative path")
                for i in range(q + 1)
            )
        neg_path.append(ids)
        neg_path_module.append(len(modules))
        modules.append(list(ids))

    pos_pairs: list[tuple[int, ...]] = []
    neg_pairs: list[tuple[int, ...]] = []
    for j in range(n):
        mods = []
        for k in range(formula.positive_count(j)):
            spoke = add_edge(u_nodes[j][k], w_nodes[j][k], f"x{j + 1}+spoke{k + 1}",
                             f"variable {j + 1} positive occurrence {k + 1} spoke")
            tie = add_edge(w_nodes[j][k], hub, f"x{j + 1}+tie{k + 1}",
                           f"variable {j + 1} positive occurrence {k + 1} hub tie")
            mods.append(len(modules))
            modules.append([spoke, tie])
        pos_pairs.append(tuple(mods))
        mods = []
        for k in range(formula.negative_count(j)):
            spoke = add_edge(v_nodes[j][k], z_nodes[j][k], f"x{j + 1}-spoke{k + 1}",
                             f"variable {j + 1} negative occurrence {k + 1} spoke")
            tie = add_edge(z_nodes[j][k], hub, f"x{j + 1}-tie{k + 1}",
                           f"variable {j + 1} negative occurrence {k + 1} hub tie")
            mods.append(len(modules))
            modules.append([spoke, tie])
        neg_pairs.append(tuple(mods))

    clause_modules: list[tuple[int, ...]] = []
    for i, clause in enumerate(formula.clauses):
        ys = []
        for var, positive in clause:
            occ = formula.occurrences(var, positive)
            k = occ.index(i)
            ys.append(w_nodes[var][k] if positive else z_nodes[var][k])
        mods = []
        for k in range(len(ys)):
            e = add_edge(ys[k], ys[k - 1], f"c{i + 1}cyc{k + 1}",
                         f"clause {i + 1} cycle edge {k + 1}")
            mods.append(len(modules))
            modules.append([e])
        clause_modules.append(tuple(mods))

    graph = MultiGraph(next_vid, tuple(edges))
    partition = PartitionOfGroundSet.build(graph.ground_set(), modules)
    return SatTreesReduction(
        formula=formula,
        instance=ModularTreesInstance(graph, partition),
        hub=hub,
        pos_path_edges=tuple(pos_path),
        neg_path_edges=tuple(neg_path),
        pos_path_module=tuple(pos_path_module),
        neg_path_module=tuple(neg_path_module),
        pos_pair_modules=tuple(pos_pairs),
        neg_pair_modules=tuple(neg_pairs),
        clause_edge_modules=tuple(clause_modules),
        provenance=provenance,
    )


def lift_assignment_to_trees(
    red: SatTreesReduction, cert: AssignmentCertificate
) -> ModularCertificate:
    """Build the tree pair for a not-all-equal satisfying assignment.

    The first tree takes each true variable's positive path with its
    negative occurrence pairs, each false variable's negative path with
    its positive occurrence pairs, and the cycle edge of every true
    literal; its complement is the second tree.
    """
    _require("naesat", red.formula, cert, "source")
    first: list[int] = []
    for j, value in enumerate(cert.values):
        if value:
            first.append(red.pos_path_module[j])
            first.extend(red.neg_pair_modules[j])
        else:
            first.append(red.neg_path_module[j])
            first.extend(red.pos_pair_modules[j])
    for i, clause in enumerate(red.formula.clauses):
        for k, (var, positive) in enumerate(clause):
            if cert.values[var] == positive:
                first.append(red.clause_edge_modules[i][k])
    lifted = ModularCertificate.from_modules(
        red.instance.ground, red.instance.modules.blocks, first
    )
    _require("modular-trees", red.instance, lifted, "lifted")
    return lifted


def pull_assignment_from_trees(
    red: SatTreesReduction, cert: ModularCertificate
) -> AssignmentCertificate:
    """Read the assignment off the first tree of a verified partition:
    a variable is true exactly when its positive path lies in that tree."""
    _require("modular-trees", red.instance, cert, "target")
    t1 = cert.classes[0].mask
    values = []
    for j in range(red.formula.num_vars):
        path_mask = mask_of(red.pos_path_edges[j])
        values.append(path_mask & t1 == path_mask)
    pulled = AssignmentCertificate(tuple(values))
    _require("naesat", red.formula, pulled, "pulled")
    return pulled


# ---------------------------------------------------------------------------
# r3: perfect even factor -> 2-factor with cycle lengths divisible by 4


@dataclass(frozen=True)
class EvenFactorReduction:
    digraph: Digraph
    graph: BipartiteGraph
    arc_edges: dict[tuple[int, int], tuple[int, int]]
    path_edges: tuple[tuple[tuple[int, int], ...], ...]
    provenance: dict[str, str]

    @property
    def instance(self) -> BipartiteGraph:
        return self.graph


def even_factor_to_mod4_factor(digraph: Digraph) -> EvenFactorReduction:
    """Blow each vertex up into a five-edge path between its two copies
    and turn each arc into an edge between the tail's first copy and the
    head's second copy; directed cycles become cycles six times as long."""
    n = digraph.vertex_count
    # Left side: v' = v, then two interior path vertices per v.
    # Right side: v'' = v, then the other two interior path vertices.
    left_labels = [f"v{v}'" for v in range(n)]
    right_labels = [f"v{v}''" for v in range(n)]
    for v in range(n):
        left_labels.extend([f"w{v}.2", f"w{v}.4"])
        right_labels.extend([f"w{v}.1", f"w{v}.3"])
    edges = set()
    provenance: dict[str, str] = {}
    path_edges = []
    for v in range(n):
        w2, w4 = n + 2 * v, n + 2 * v + 1
        w1, w3 = n + 2 * v, n + 2 * v + 1
        path = ((v, w1), (w2, w1), (w2, w3), (w4, w3), (w4, v))
        path_edges.append(path)
        edges.update(path)
        provenance[f"path:{v}"] = f"vertex {v} forced path"
    arc_edges = {}
    for u, v in sorted(set(digraph.arcs)):
        arc_edges[(u, v)] = (u, v)
        edges.add((u, v))
        provenance[f"arc:{u}->{v}"] = f"arc ({u},{v}) edge"
    # Reorder labels: lefts are 0..3n-1 as [v' block, interior block].
    graph = BipartiteGraph.build(3 * n, 3 * n, edges, left_labels, right_labels)
    return EvenFactorReduction(
        digraph=digraph,
        graph=graph,
        arc_edges=arc_edges,
        path_edges=tuple(path_edges),
        provenance=provenance,
    )


def lift_even_factor(red: EvenFactorReduction, cert: ArcSetCertificate) -> EdgeSetCertificate:
    """A perfect even factor lifts to the arc edges plus every forced path."""
    _require("even-factor", red.digraph, cert, "source")
    edges = set()
    for path in red.path_edges:
        edges.update(path)
    for arc in cert.arcs:
        edges.add(red.arc_edges[arc])
    lifted = EdgeSetCertificate(frozenset(edges))
    _require("mod4-2factor", red.graph, lifted, "lifted")
    return lifted


def pull_even_factor(red: EvenFactorReduction, cert: EdgeSetCertificate) -> ArcSetCertificate:
    """Drop the forced paths and read the arcs off the remaining edges."""
    _require("mod4-2factor", red.graph, cert, "target")
    arcs = frozenset(arc for arc, edge in red.arc_edges.items() if edge in cert.edges)
    pulled = ArcSetCertificate(arcs)
    _require("even-factor", red.digraph, pulled, "pulled")
    return pulled


# ---------------------------------------------------------------------------
# r4: mod-4 2-factor -> parity bases of a transversal matroid


@dataclass(frozen=True)
class ParityBasesReduction:
    graph: BipartiteGraph
    instance: ParityInstance
    doubled: BipartiteGraph
    provenance: dict[str, str]

    def copies(self, s: int) -> tuple[int, int]:
        return 2 * s, 2 * s + 1


def mod4_factor_to_parity_bases(graph: BipartiteGraph) -> Optional[ParityBasesReduction]:
    """Double the left side and take the transversal matroid, pairing the
    two copies of each vertex.  Sides of unequal size cannot carry a
    2-factor at all, so such inputs map to an immediate no (None)."""
    n_s, n_t = graph.left.size, graph.right.size
    if n_s != n_t:
        return None
    left_labels = []
    provenance = {}
    for s in range(n_s):
        left_labels.extend([f"s{s}'", f"s{s}''"])
        provenance[f"s{s}'"] = f"first copy of left vertex {s}"
        provenance[f"s{s}''"] = f"second copy of left vertex {s}"
    plus_edges = set()
    for s, t in graph.edges:
        plus_edges.add((2 * s, t))
        plus_edges.add((2 * s + 1, t))
    doubled = BipartiteGraph.build(2 * n_s, n_t, plus_edges, left_labels)
    matroid = transversal_matroid(doubled)
    pairs = PartitionOfGroundSet.build(
        matroid.ground, [[2 * s, 2 * s + 1] for s in range(n_s)]
    )
    return ParityBasesReduction(
        graph=graph,
        instance=ParityInstance(matroid, pairs),
        doubled=doubled,
        provenance=provenance,
    )


def lift_factor_to_parity(
    red: ParityBasesReduction, cert: EdgeSetCertificate
) -> ModularCertificate:
    """Split the 2-factor's cycles into alternating halves.

    Walking a cycle, every other left vertex goes to the first class
    (cycle lengths divisible by 4 make the halves even); each class then
    carries both copies of its vertices.
    """
    _require("mod4-2factor", red.graph, cert, "source")
    cycles = two_factor_cycles(red.graph.left.size, red.graph.right.size, cert.edges)
    first_pairs = []
    for cycle in cycles:
        s_seq = [edge[0] for edge in cycle[0::2]]
        first_pairs.extend(s_seq[0::2])
    lifted = ModularCertificate.from_modules(
        red.instance.ground, red.instance.pairs.blocks, first_pairs
    )
    _require("parity-bases", red.instance, lifted, "lifted")
    return lifted


def pull_factor_from_parity(
    red: ParityBasesReduction, cert: ModularCertificate
) -> EdgeSetCertificate:
    """Turn each class's saturating matching into half of a 2-factor.

    Each class is a basis, so a matching covering it exists; identifying
    matched copies with their underlying vertices gives every right
    vertex degree 1 per class and every chosen left vertex degree 2.
    """
    _require("parity-bases", red.instance, cert, "target")
    adj = red.doubled.adjacency()
    factor: set[tuple[int, int]] = set()
    for cls in cert.classes:
        lefts = sorted(cls)
        matching = maximum_matching(adj, lefts)
        if len(matching) != len(lefts):
            raise CertificateRejected("class is not saturated by any matching")
        for t, left in matching.items():
            factor.add((left // 2, t))
    pulled = EdgeSetCertificate(frozenset(factor))
    _require("mod4-2factor", red.graph, pulled, "pulled")
    return pulled


# ---------------------------------------------------------------------------
# r5: common bases -> common bases against a partition matroid


@dataclass(frozen=True)
class PartitionFormReduction:
    source: CommonBasesInstance
    instance: CommonBasesInstance
    provenance: dict[str, str]


def to_partition_matroid_form(inst: CommonBasesInstance) -> PartitionFormReduction:
    """Reshape a two-class common-bases instance so one matroid is a
    partition matroid.

    The big matroid is the first matroid summed with the dual of the
    second on a mirror copy of the ground set; the partition matroid
    allows one element per original/mirror pair.  A class must then pick,
    for every element, either the element or its mirror, which is exactly
    a basis of the first matroid whose complement co-spans the second.
    With two classes each pair splits across them, so a single mirror
    copy per element is what makes the count 2 * rank come out; more
    copies would leave unused elements and no partition could exist.
    """
    if inst.k != 2:
        raise ValueError("partition normal form implemented for two classes")
    n = inst.ground.size
    if n != 2 * inst.m1.full_rank or n != 2 * inst.m2.full_rank:
        raise ValueError("ground set size must be twice both ranks")
    mirror = parallel_copies(dual(inst.m2), 1)
    labels = tuple(
        [inst.ground.label(e) for e in range(n)]
        + [mirror.ground.label(e) for e in range(n)]
    )
    ground = GroundSet(2 * n, labels)
    big = _with_ground(direct_sum(inst.m1, mirror), ground)
    chooser = partition_matroid(
        PartitionOfGroundSet.build(ground, [[e, n + e] for e in range(n)]),
        [1] * n,
    )
    provenance = {}
    for e in range(n):
        provenance[ground.label(e)] = "original element"
        provenance[ground.label(n + e)] = f"mirror of element {e}"
    return PartitionFormReduction(
        source=inst,
        instance=CommonBasesInstance(big, chooser, 2),
        provenance=provenance,
    )


def lift_to_partition_form(
    red: PartitionFormReduction, cert: PartitionCertificate
) -> PartitionCertificate:
    """Each class keeps its elements and adds the mirrors of the other's."""
    _require("common-bases", red.source, cert, "source")
    n = red.source.ground.size
    ground = red.instance.ground
    b1, b2 = cert.classes[0].mask, cert.classes[1].mask
    lifted = PartitionCertificate(
        (
            ElementSet.from_mask(ground, b1 | (b2 << n)),
            ElementSet.from_mask(ground, b2 | (b1 << n)),
        )
    )
    _require("common-bases", red.instance, lifted, "lifted")
    return lifted


def pull_from_partition_form(
    red: PartitionFormReduction, cert: PartitionCertificate
) -> PartitionCertificate:
    """Restrict both classes to the original elements."""
    _require("common-bases", red.instance, cert, "target")
    n = red.source.ground.size
    s_mask = (1 << n) - 1
    ground = red.source.ground
    pulled = PartitionCertificate(
        (
            ElementSet.from_mask(ground, cert.classes[0].mask & s_mask),
            ElementSet.from_mask(ground, cert.classes[1].mask & s_mask),
        )
    )
    _require("common-bases", red.source, pulled, "pulled")
    return pulled
