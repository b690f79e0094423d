"""Brute-force solvers against independent naive enumerators, and the verifiers."""

import random

import pytest

from basepack.core import ElementSet, GroundSet, ResourceCapExceeded
from basepack.certificates import (
    ArcSetCertificate,
    ModularCertificate,
    PartitionCertificate,
)
from basepack.constructions import (
    PartitionOfGroundSet,
    free_matroid,
    graphic_matroid,
    uniform_matroid,
)
from basepack.graphs import BipartiteGraph, Digraph, MultiGraph
from basepack.instances import (
    CnfFormula,
    CommonBasesInstance,
    ModularInstance,
    ModularTreesInstance,
    ParityInstance,
)
from basepack.solvers import (
    solve_common_bases,
    solve_mod4_two_factor,
    solve_modular_bases,
    solve_modular_trees,
    solve_naesat,
    solve_parity_bases,
    solve_perfect_even_factor,
    verify_certificate,
)

from helpers import (
    naive_common_bases_feasible,
    naive_even_factor_feasible,
    naive_mod4_two_factor_feasible,
    naive_modular_bases_feasible,
    naive_nae_satisfiable,
    random_bipartite,
    random_common_bases_instance,
    random_digraph,
    random_modular_instance,
    random_partition,
)


class TestCommonBases:
    def test_uniform_yes(self):
        m = uniform_matroid(GroundSet(4), 2)
        cert = solve_common_bases(CommonBasesInstance(m, m, 2))
        assert cert is not None
        assert verify_certificate("common-bases", CommonBasesInstance(m, m, 2), cert).ok

    def test_size_mismatch_is_no(self):
        # Nine elements of rank five: no two disjoint bases can partition.
        from basepack.gadget import default_gadget

        pair = default_gadget(1)
        inst = CommonBasesInstance(pair.first_matroid, pair.second_matroid, 2)
        assert solve_common_bases(inst) is None

    def test_matches_naive_on_random_instances(self):
        rng = random.Random(211)
        for _ in range(150):
            n = rng.choice([2, 4, 6])
            inst = random_common_bases_instance(rng, n)
            cert = solve_common_bases(inst)
            assert (cert is not None) == naive_common_bases_feasible(inst)
            if cert is not None:
                assert verify_certificate("common-bases", inst, cert).ok

    def test_three_classes(self):
        m = uniform_matroid(GroundSet(6), 2)
        inst = CommonBasesInstance(m, m, 3)
        cert = solve_common_bases(inst)
        assert cert is not None and len(cert.classes) == 3
        assert verify_certificate("common-bases", inst, cert).ok

    def test_cap(self):
        m = free_matroid(GroundSet(30))
        with pytest.raises(ResourceCapExceeded):
            solve_common_bases(CommonBasesInstance(m, m, 2))

    def test_empty_ground(self):
        m = free_matroid(GroundSet(0))
        cert = solve_common_bases(CommonBasesInstance(m, m, 2))
        assert cert is not None


class TestModularBases:
    def test_uniform_pairs_yes(self):
        g = GroundSet(4)
        inst = ModularInstance(
            uniform_matroid(g, 2), PartitionOfGroundSet.build(g, [[0, 1], [2, 3]])
        )
        cert = solve_modular_bases(inst)
        assert cert is not None
        assert verify_certificate("modular-bases", inst, cert).ok

    def test_unbalanced_modules_no(self):
        g = GroundSet(4)
        inst = ModularInstance(
            uniform_matroid(g, 2), PartitionOfGroundSet.build(g, [[0, 1, 2], [3]])
        )
        assert solve_modular_bases(inst) is None

    def test_matches_naive_on_random_instances(self):
        rng = random.Random(223)
        for _ in range(150):
            n = rng.choice([2, 4, 6])
            inst = random_modular_instance(rng, n)
            cert = solve_modular_bases(inst)
            assert (cert is not None) == naive_modular_bases_feasible(inst)
            if cert is not None:
                assert verify_certificate("modular-bases", inst, cert).ok


class TestParityBases:
    def test_free_matroid_counting_no(self):
        g = GroundSet(4)
        inst = ParityInstance(free_matroid(g), PartitionOfGroundSet.build(g, [[0, 1], [2, 3]]))
        assert solve_parity_bases(inst) is None

    def test_requires_pairs(self):
        g = GroundSet(4)
        with pytest.raises(ValueError):
            ParityInstance(free_matroid(g), PartitionOfGroundSet.build(g, [[0, 1, 2], [3]]))

    def test_uniform_pairs(self):
        g = GroundSet(4)
        inst = ParityInstance(
            uniform_matroid(g, 2), PartitionOfGroundSet.build(g, [[0, 1], [2, 3]])
        )
        cert = solve_parity_bases(inst)
        assert cert is not None
        assert verify_certificate("parity-bases", inst, cert).ok


class TestModularTrees:
    def test_doubled_path_yes(self):
        graph = MultiGraph.build(3, [(0, 1), (1, 2), (0, 1), (1, 2)])
        modules = PartitionOfGroundSet.build(graph.ground_set(), [[i] for i in range(4)])
        inst = ModularTreesInstance(graph, modules)
        cert = solve_modular_trees(inst)
        assert cert is not None
        assert verify_certificate("modular-trees", inst, cert).ok

    def test_doubled_triangle_cannot_partition(self):
        # Two edge-disjoint spanning trees exist, but six edges can never
        # PARTITION into two spanning trees of a 3-vertex graph.
        graph = MultiGraph.build(3, [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)])
        modules = PartitionOfGroundSet.build(graph.ground_set(), [[i] for i in range(6)])
        inst = ModularTreesInstance(graph, modules)
        assert solve_modular_trees(inst) is None

    def test_doubled_path_with_fused_module_no(self):
        # Both copies of one edge in one module force a parallel cycle.
        graph = MultiGraph.build(3, [(0, 1), (1, 2), (0, 1), (1, 2)])
        modules = PartitionOfGroundSet.build(graph.ground_set(), [[0, 2], [1], [3]])
        inst = ModularTreesInstance(graph, modules)
        assert solve_modular_trees(inst) is None

    def test_wrong_edge_count_no(self):
        graph = MultiGraph.build(3, [(0, 1), (1, 2), (2, 0)])
        modules = PartitionOfGroundSet.build(graph.ground_set(), [[0], [1], [2]])
        inst = ModularTreesInstance(graph, modules)
        assert solve_modular_trees(inst) is None

    def test_disconnected_no(self):
        graph = MultiGraph.build(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
        modules = PartitionOfGroundSet.build(graph.ground_set(), [[i] for i in range(4)])
        assert solve_modular_trees(ModularTreesInstance(graph, modules)) is None

    def test_agrees_with_generic_solver(self):
        rng = random.Random(227)
        checked = 0
        while checked < 60:
            v = rng.randint(2, 5)
            graph = MultiGraph.build(
                v,
                [
                    (rng.randrange(v), rng.randrange(v))
                    for _ in range(2 * (v - 1))
                ],
            )
            modules = random_partition(rng, graph.ground_set())
            inst = ModularTreesInstance(graph, modules)
            fast = solve_modular_trees(inst)
            if inst.shape_feasible():
                generic = solve_modular_bases(inst.to_modular_instance()) if graphic_rank_ok(graph) else None
            else:
                generic = None
            assert (fast is None) == (generic is None)
            checked += 1

    def test_empty_graph(self):
        graph = MultiGraph.build(1, [])
        modules = PartitionOfGroundSet.build(graph.ground_set(), [])
        cert = solve_modular_trees(ModularTreesInstance(graph, modules))
        assert cert is not None


def graphic_rank_ok(graph: MultiGraph) -> bool:
    """Whether the graphic matroid meets the modular-instance balance."""
    m = graphic_matroid(graph)
    return graph.edge_count == 2 * m.full_rank


class TestNaesat:
    def test_two_literal_clause(self):
        f = CnfFormula.normalize(2, [[(0, True), (1, True)]])
        cert = solve_naesat(f)
        assert cert is not None
        assert f.nae_satisfied(cert.values)

    def test_forced_unsat(self):
        # x1 != x2 and x1 == x2 cannot both hold.
        f = CnfFormula.normalize(
            2, [[(0, True), (1, True)], [(0, True), (1, False)]]
        )
        # One clause wants them unequal... enumerate to be sure of the truth.
        assert (solve_naesat(f) is not None) == naive_nae_satisfiable(f)

    def test_matches_naive_on_random_formulas(self):
        rng = random.Random(229)
        for _ in range(150):
            n = rng.randint(2, 5)
            clauses = []
            for _ in range(rng.randint(0, 5)):
                size = rng.randint(2, min(3, n))
                variables = rng.sample(range(n), size)
                clauses.append([(v, rng.random() < 0.5) for v in variables])
            f = CnfFormula.normalize(n, clauses)
            cert = solve_naesat(f)
            assert (cert is not None) == naive_nae_satisfiable(f)
            if cert is not None:
                assert verify_certificate("naesat", f, cert).ok

    def test_complement_symmetry(self):
        rng = random.Random(233)
        for _ in range(60):
            n = rng.randint(2, 4)
            clauses = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(2, min(3, n))
                variables = rng.sample(range(n), size)
                clauses.append([(v, rng.random() < 0.5) for v in variables])
            f = CnfFormula.normalize(n, clauses)
            flipped = CnfFormula.normalize(
                n, [[(v, not s) for v, s in clause] for clause in f.clauses]
            )
            assert (solve_naesat(f) is None) == (solve_naesat(flipped) is None)

    def test_empty_formula_yes(self):
        f = CnfFormula.normalize(0, [])
        assert solve_naesat(f) is not None

    def test_cap(self):
        f = CnfFormula.normalize(30, [])
        with pytest.raises(ResourceCapExceeded):
            solve_naesat(f)


class TestEvenFactor:
    def test_two_cycle_yes(self):
        d = Digraph.build(2, [(0, 1), (1, 0)])
        cert = solve_perfect_even_factor(d)
        assert cert is not None and sorted(cert.arcs) == [(0, 1), (1, 0)]

    def test_three_cycle_no(self):
        d = Digraph.build(3, [(0, 1), (1, 2), (2, 0)])
        assert solve_perfect_even_factor(d) is None

    def test_matches_permutation_enumeration(self):
        rng = random.Random(239)
        for _ in range(200):
            d = random_digraph(rng, rng.randint(1, 6))
            cert = solve_perfect_even_factor(d)
            assert (cert is not None) == naive_even_factor_feasible(d)
            if cert is not None:
                assert verify_certificate("even-factor", d, cert).ok

    def test_cap(self):
        d = Digraph.build(13, [(i, (i + 1) % 13) for i in range(13)])
        with pytest.raises(ResourceCapExceeded):
            solve_perfect_even_factor(d)


def cycle_graph(length: int) -> BipartiteGraph:
    """A single bipartite cycle of the given even length."""
    assert length % 2 == 0
    half = length // 2
    edges = []
    for i in range(half):
        edges.append((i, i))
        edges.append(((i + 1) % half, i))
    return BipartiteGraph.build(half, half, edges)


class TestMod4TwoFactor:
    def test_eight_cycle_yes(self):
        cert = solve_mod4_two_factor(cycle_graph(8))
        assert cert is not None and len(cert.edges) == 8

    def test_six_cycle_no(self):
        assert solve_mod4_two_factor(cycle_graph(6)) is None

    def test_k33_no(self):
        k33 = BipartiteGraph.build(3, 3, [(s, t) for s in range(3) for t in range(3)])
        assert solve_mod4_two_factor(k33) is None

    def test_unequal_sides_no(self):
        g = BipartiteGraph.build(2, 3, [(0, 0), (1, 1)])
        assert solve_mod4_two_factor(g) is None

    def test_matches_subset_enumeration(self):
        rng = random.Random(241)
        for _ in range(120):
            n = rng.randint(1, 4)
            g = random_bipartite(rng, n, n, p=0.7)
            cert = solve_mod4_two_factor(g)
            assert (cert is not None) == naive_mod4_two_factor_feasible(g)
            if cert is not None:
                assert verify_certificate("mod4-2factor", g, cert).ok


class TestVerifierRejections:
    def test_split_module_rejected(self):
        g = GroundSet(4)
        inst = ModularInstance(
            uniform_matroid(g, 2), PartitionOfGroundSet.build(g, [[0, 1], [2, 3]])
        )
        bad = ModularCertificate(
            (0,), (ElementSet(g, [0, 2]), ElementSet(g, [1, 3]))
        )
        result = verify_certificate("modular-bases", inst, bad)
        assert not result.ok

    def test_overlap_rejected(self):
        m = uniform_matroid(GroundSet(4), 2)
        inst = CommonBasesInstance(m, m, 2)
        bad = PartitionCertificate(
            (ElementSet(m.ground, [0, 1]), ElementSet(m.ground, [1, 2]))
        )
        result = verify_certificate("common-bases", inst, bad)
        assert not result.ok and "overlap" in result.reason

    def test_non_basis_rejected(self):
        m = uniform_matroid(GroundSet(4), 2)
        inst = CommonBasesInstance(m, m, 2)
        bad = PartitionCertificate(
            (ElementSet(m.ground, [0]), ElementSet(m.ground, [1, 2, 3]))
        )
        assert not verify_certificate("common-bases", inst, bad).ok

    def test_foreign_arc_rejected(self):
        d = Digraph.build(2, [(0, 1), (1, 0)])
        bad = ArcSetCertificate(frozenset([(0, 1), (0, 0)]))
        assert not verify_certificate("even-factor", d, bad).ok

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            verify_certificate("sudoku", None, None)

    @pytest.mark.parametrize("offset", [-1, 1], ids=["negative", "out-of-range"])
    def test_module_index_outside_range_rejected(self, offset):
        graph = MultiGraph.build(3, [(0, 1), (1, 2), (0, 1), (1, 2)])
        modules = PartitionOfGroundSet.build(graph.ground_set(), [[i] for i in range(4)])
        inst = ModularTreesInstance(graph, modules)
        cert = solve_modular_trees(inst)
        # Shifting by the module count names the same block under Python
        # indexing, so only a range check can tell.
        first = (cert.first_modules[0] + offset * 4,) + cert.first_modules[1:]
        bad = ModularCertificate(first, cert.classes)
        result = verify_certificate("modular-trees", inst, bad)
        assert not result.ok and "out of range" in result.reason

    def test_disconnected_trees_rejected(self):
        graph = MultiGraph.build(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
        ground = graph.ground_set()
        inst = ModularTreesInstance(
            graph, PartitionOfGroundSet.build(ground, [[i] for i in range(4)])
        )
        forests = ModularCertificate(
            (0, 2), (ElementSet(ground, [0, 2]), ElementSet(ground, [1, 3]))
        )
        assert not verify_certificate("modular-trees", inst, forests).ok

    def test_solver_yes_iff_verifier_accepts(self):
        rng = random.Random(251)
        for _ in range(60):
            inst = random_modular_instance(rng, rng.choice([2, 4, 6]))
            cert = solve_modular_bases(inst)
            if cert is not None:
                assert verify_certificate("modular-bases", inst, cert).ok
