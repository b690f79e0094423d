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

import sys
from typing import TYPE_CHECKING, Optional

from .core import GroundSet, Matroid, Record
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
    partition_matroid,
    relabel,
    transversal_matroid,
    truncate,
)
from .graphs import BipartiteGraph, Digraph, MultiGraph, augment, two_factor_cycles
from .instances import (
    CnfFormula,
    CommonBasesInstance,
    ModularInstance,
    ModularTreesInstance,
    ParityInstance,
)
from .solvers import verify_certificate

if TYPE_CHECKING:
    from .gadget import GadgetPair


class CertificateRejected(ValueError):
    """A certificate handed to a solution map failed verification."""


def _require(problem: str, instance, certificate, side: str) -> None:
    result = verify_certificate(problem, instance, certificate)
    if not result.ok:
        raise CertificateRejected(f"{side} certificate invalid: {result.reason}")


# ---------------------------------------------------------------------------
# r1: modular bases -> common bases


class CommonBasesReduction(Record):
    __slots__ = {
        "source": "ModularInstance", "instance": "CommonBasesInstance",
        "gadgets": "tuple[GadgetPair, ...]", "module_offsets": "tuple[int, ...]",
        "provenance": "dict[str, str]",
    }


def modular_to_common_bases(inst: ModularInstance) -> CommonBasesReduction:
    """Embed a modular-bases instance into a plain common-bases instance.

    Each module of size p receives a p-block gadget pair; gadgets of equal
    size are identical, so modules of one size share one pair and one
    oracle per side.  The new ground set keeps the original
    elements first, then the gadget elements module by module, ten times
    the original size in total.  The first output matroid is the
    half-size truncation of the original matroid summed with every
    gadget's first matroid; the second is, per module, the
    5p-truncation of the free matroid on the module summed with the
    gadget's second matroid, all summed together.
    """
    from .gadget import default_gadget  # only r1 needs the gadget

    matroid = inst.matroid
    n = matroid.ground.size
    blocks = inst.modules.blocks
    # Module size -> (gadget pair, first-side part, second-side component).
    by_size: dict[int, tuple[GadgetPair, Matroid, Matroid]] = {}
    for block in blocks:
        p = len(block)
        if p not in by_size:
            pair = default_gadget(p)
            second = direct_sum(free_matroid(GroundSet(p)), pair.second_matroid)
            by_size[p] = (pair, pair.first_matroid, truncate(second, 5 * p))
    gadgets = [by_size[len(block)][0] for block in blocks]
    offsets = []
    labels = [matroid.ground.label(e) for e in range(n)]
    provenance = {label: "original element" for label in labels}
    pos = n
    for m, pair in enumerate(gadgets):
        offsets.append(pos)
        for local in range(pair.ground.size):
            label = f"P{m}:{pair.ground.label(local)}"
            labels.append(label)
            provenance[label] = f"gadget element for module {m}"
        pos += pair.ground.size
    total = pos

    m1 = truncate(
        direct_sum_all([matroid] + [by_size[len(block)][1] for block in blocks]),
        total // 2,
    ).with_labels(labels)

    # The second matroid groups each module with its gadget, so build it
    # module-major and then relabel onto the canonical layout.
    raw_positions: dict[int, int] = {}
    raw = 0
    for m, block in enumerate(blocks):
        p = len(block)
        for t, e in enumerate(sorted(block)):
            raw_positions[e] = raw + t
        for local in range(9 * p):
            raw_positions[offsets[m] + local] = raw + p + local
        raw += 10 * p
    perm = [raw_positions[i] for i in range(total)]
    module_major = direct_sum_all([by_size[len(block)][2] for block in blocks])
    m2 = relabel(module_major, perm).with_labels(labels)

    return CommonBasesReduction(
        source=inst,
        instance=CommonBasesInstance(m1, m2, 2),
        gadgets=tuple(gadgets),
        module_offsets=tuple(offsets),
        provenance=provenance,
    )


def lift_modular_to_common(
    red: CommonBasesReduction, cert: ModularCertificate
) -> PartitionCertificate:
    """Map a modular-bases partition to a common-bases partition.

    The class containing a module also receives the small class of that
    module's gadget witness split; the other class receives the large one.
    """
    _require("modular-bases", red.source, cert, "source")
    b1 = cert.classes[0].mask
    first = b1
    second = cert.classes[1].mask
    for m, block in enumerate(red.source.modules.blocks):
        large, small = red.gadgets[m].canonical_split()
        shift = red.module_offsets[m]
        if block.mask & b1 == block.mask:
            first |= small.mask << shift
            second |= large.mask << shift
        else:
            first |= large.mask << shift
            second |= small.mask << shift
    lifted = PartitionCertificate.from_masks(red.instance.ground, (first, second))
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


class SatTreesReduction(Record):
    __slots__ = {
        "formula": "CnfFormula", "instance": "ModularTreesInstance",
        "pos_path_module": "tuple[int, ...]", "neg_path_module": "tuple[int, ...]",
        "pos_pair_modules": "tuple[tuple[int, ...], ...]",
        "neg_pair_modules": "tuple[tuple[int, ...], ...]",
        "clause_edge_modules": "tuple[tuple[int, ...], ...]", "provenance": "dict[str, str]",
    }


# (polarity, label sign, provenance word), positive first.
_POLARITIES = ((True, "+", "positive"), (False, "-", "negative"))


def naesat_to_modular_trees(formula: CnfFormula) -> SatTreesReduction:
    """Compile a formula into a graph that splits into two modular spanning
    trees exactly when the formula has a not-all-equal satisfying assignment.

    Per variable: a ladder of two parallel paths (one per polarity, one
    rung vertex per occurrence; a polarity with no occurrences collapses
    to a single edge), chained variable to variable.  Per occurrence: a
    spoke from its rung vertex to a tie vertex paired with an edge tying
    that vertex to the final chain vertex.  Per clause: a cycle through
    its occurrences' tie vertices.  Paths are modules, spoke+tie pairs are
    modules, everything else is a singleton.  Every per-polarity step
    runs positive before negative, variable by variable.
    """
    n = formula.num_vars
    hub = n  # last chain vertex
    next_vid = n + 1
    occurrences: dict[tuple[int, bool], list[int]] = {}
    rungs: dict[tuple[int, bool], range] = {}
    tie_ends: dict[tuple[int, bool], range] = {}
    for j in range(n):
        for positive, _, _ in _POLARITIES:
            occ = occurrences[j, positive] = formula.occurrences(j, positive)
            rungs[j, positive] = range(next_vid, next_vid + len(occ))
            next_vid += len(occ)
            tie_ends[j, positive] = range(next_vid, next_vid + len(occ))
            next_vid += len(occ)

    edges: list[tuple[int, int, str]] = []
    modules: list[list[int]] = []
    provenance: dict[str, str] = {}

    def add_edge(a: int, b: int, label: str, role: str) -> int:
        # Formulas share most labels, so one string serves every graph.
        label = sys.intern(label)
        edges.append((a, b, label))
        provenance[label] = role
        return len(edges) - 1

    path_module: dict[bool, list[int]] = {True: [], False: []}
    for j in range(n):
        for positive, sign, word in _POLARITIES:
            chain = [j, *rungs[j, positive], j + 1]
            if len(chain) == 2:
                ids = [add_edge(j, j + 1, f"x{j + 1}{sign}st",
                                f"variable {j + 1} {word} side, no occurrences")]
            else:
                ids = [
                    add_edge(chain[i], chain[i + 1], f"x{j + 1}{sign}path{i}",
                             f"variable {j + 1} {word} path")
                    for i in range(len(chain) - 1)
                ]
            path_module[positive].append(len(modules))
            modules.append(ids)

    pair_modules: dict[bool, list[tuple[int, ...]]] = {True: [], False: []}
    for j in range(n):
        for positive, sign, word in _POLARITIES:
            mods = []
            for k, (rung, tie_end) in enumerate(zip(rungs[j, positive], tie_ends[j, positive]), 1):
                spoke = add_edge(rung, tie_end, f"x{j + 1}{sign}spoke{k}",
                                 f"variable {j + 1} {word} occurrence {k} spoke")
                tie = add_edge(tie_end, hub, f"x{j + 1}{sign}tie{k}",
                               f"variable {j + 1} {word} occurrence {k} hub tie")
                mods.append(len(modules))
                modules.append([spoke, tie])
            pair_modules[positive].append(tuple(mods))

    clause_modules: list[tuple[int, ...]] = []
    for i, clause in enumerate(formula.clauses):
        ys = [tie_ends[lit][occurrences[lit].index(i)] for lit in clause]
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
        pos_path_module=tuple(path_module[True]),
        neg_path_module=tuple(path_module[False]),
        pos_pair_modules=tuple(pair_modules[True]),
        neg_pair_modules=tuple(pair_modules[False]),
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
    blocks = red.instance.modules.blocks
    pulled = AssignmentCertificate(
        tuple(blocks[m].mask & t1 == blocks[m].mask for m in red.pos_path_module)
    )
    _require("naesat", red.formula, pulled, "pulled")
    return pulled


# ---------------------------------------------------------------------------
# r3: perfect even factor -> 2-factor with cycle lengths divisible by 4


class EvenFactorReduction(Record):
    __slots__ = {
        "digraph": "Digraph", "graph": "BipartiteGraph",
        "path_edges": "tuple[tuple[tuple[int, int], ...], ...]", "provenance": "dict[str, str]",
    }

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
    # Arc (u, v) becomes the edge (u', v''), which is (u, v) again.
    for u, v in sorted(set(digraph.arcs)):
        edges.add((u, v))
        provenance[f"arc:{u}->{v}"] = f"arc ({u},{v}) edge"
    # Reorder labels: lefts are 0..3n-1 as [v' block, interior block].
    graph = BipartiteGraph.build(3 * n, 3 * n, edges, left_labels, right_labels)
    return EvenFactorReduction(
        digraph=digraph,
        graph=graph,
        path_edges=tuple(path_edges),
        provenance=provenance,
    )


def lift_even_factor(red: EvenFactorReduction, cert: ArcSetCertificate) -> EdgeSetCertificate:
    """A perfect even factor lifts to the arc edges plus every forced path."""
    _require("even-factor", red.digraph, cert, "source")
    edges = set()
    for path in red.path_edges:
        edges.update(path)
    edges.update(cert.arcs)
    lifted = EdgeSetCertificate(frozenset(edges))
    _require("mod4-2factor", red.graph, lifted, "lifted")
    return lifted


def pull_even_factor(red: EvenFactorReduction, cert: EdgeSetCertificate) -> ArcSetCertificate:
    """Drop the forced paths and read the arcs off the remaining edges."""
    _require("mod4-2factor", red.graph, cert, "target")
    pulled = ArcSetCertificate(red.digraph.arc_set() & cert.edges)
    _require("even-factor", red.digraph, pulled, "pulled")
    return pulled


# ---------------------------------------------------------------------------
# r4: mod-4 2-factor -> parity bases of a transversal matroid


class ParityBasesReduction(Record):
    __slots__ = {
        "graph": "BipartiteGraph", "instance": "ParityInstance", "doubled": "BipartiteGraph",
        "provenance": "dict[str, str]",
    }


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
        matching: dict[int, int] = {}
        if not all(augment(adj, matching, s) for s in sorted(cls)):
            raise CertificateRejected("class is not saturated by any matching")
        for t, left in matching.items():
            factor.add((left // 2, t))
    pulled = EdgeSetCertificate(frozenset(factor))
    _require("mod4-2factor", red.graph, pulled, "pulled")
    return pulled


# ---------------------------------------------------------------------------
# r5: common bases -> common bases against a partition matroid


class PartitionFormReduction(Record):
    __slots__ = {
        "source": "CommonBasesInstance", "instance": "CommonBasesInstance",
        "provenance": "dict[str, str]",
    }


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
    labels = [inst.ground.label(e) for e in range(n)]
    labels += [f"{inst.m2.ground.label(e)}#1" for e in range(n)]
    big = direct_sum(inst.m1, dual(inst.m2)).with_labels(labels)
    ground = big.ground
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
    b1, b2 = cert.classes[0].mask, cert.classes[1].mask
    lifted = PartitionCertificate.from_masks(red.instance.ground, (b1 | b2 << n, b2 | b1 << n))
    _require("common-bases", red.instance, lifted, "lifted")
    return lifted


def pull_from_partition_form(
    red: PartitionFormReduction, cert: PartitionCertificate
) -> PartitionCertificate:
    """Restrict both classes to the original elements."""
    _require("common-bases", red.instance, cert, "target")
    ground = red.source.ground
    pulled = PartitionCertificate.from_masks(
        ground, [c.mask & ground.full_mask for c in cert.classes]
    )
    _require("common-bases", red.source, pulled, "pulled")
    return pulled
