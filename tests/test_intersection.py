"""Matroid intersection and partition against brute-force references."""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basepack import constructions, intersection
from basepack.core import GroundSet, Matroid, UniverseMismatch, class_states
from basepack.constructions import (
    HyperplaneFamily,
    PartitionOfGroundSet,
    direct_sum_all,
    free_matroid,
    graphic_matroid,
    linear_matroid,
    partition_matroid,
    paving_matroid,
    transversal_matroid,
    uniform_matroid,
)
from basepack.formats import parse_dimacs
from basepack.fields import Matrix, gf
from basepack.graphs import BipartiteGraph, MultiGraph, augment
from basepack.intersection import (
    common_bases_necessary_check,
    max_common_independent,
    partition_into_independent,
)
from basepack.gadget import default_gadget
from basepack.reductions import (
    modular_to_common_bases,
    naesat_to_modular_trees,
    to_partition_matroid_form,
)

from helpers import (
    check_min_max_certificate,
    naive_max_common,
    naive_partition_feasible,
    random_bipartite,
    random_matroid,
    random_multigraph,
    random_binary_matroid,
    random_connected_multigraph,
    random_partition,
    reference_distance_layers,
    without_vectors,
)
from test_pipeline import FORMULA

TRIANGLE = MultiGraph.build(3, [(0, 1), (1, 2), (2, 0)])


class TestMaxCommonIndependent:
    def test_same_uniform(self):
        m = uniform_matroid(GroundSet(4), 2)
        assert len(max_common_independent(m, m)) == 2

    def test_uniform_vs_partition(self):
        m1 = uniform_matroid(GroundSet(4), 2)
        part = PartitionOfGroundSet.build(GroundSet(4), [[0, 1], [2, 3]])
        m2 = partition_matroid(part, [1, 1])
        got = max_common_independent(m1, m2)
        assert len(got) == 2
        assert m1.is_independent(got) and m2.is_independent(got)

    def test_gadget_pair_reaches_five(self):
        pair = default_gadget(1)
        got = max_common_independent(pair.first_matroid, pair.second_matroid)
        assert len(got) == 5

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatch):
            max_common_independent(
                free_matroid(GroundSet(2)), free_matroid(GroundSet(3))
            )

    def test_result_is_common_independent(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(0, 8)
            m1 = random_matroid(rng, n)
            m2 = random_matroid(rng, n)
            got = max_common_independent(m1, m2)
            assert m1.is_independent(got) and m2.is_independent(got)
            assert len(got) == naive_max_common(m1, m2)

    def test_matches_brute_force_500(self):
        rng = random.Random(103)
        for _ in range(300):
            n = rng.randint(1, 7)
            m1 = random_matroid(rng, n)
            m2 = random_matroid(rng, n)
            assert len(max_common_independent(m1, m2)) == naive_max_common(m1, m2)

    def test_deterministic(self):
        rng = random.Random(107)
        m1 = random_matroid(rng, 7)
        m2 = random_matroid(rng, 7)
        first = max_common_independent(m1, m2)
        second = max_common_independent(m1, m2)
        assert first.mask == second.mask


def checked_layering(monkeypatch) -> list:
    """Make the engine check each phase's layers against the all-pairs
    reference, which asks the oracles even where the engine reduces GF(2)
    vectors; returns the list the checked layers are appended to."""
    engine = intersection._distance_layers
    phases = []

    def checked(m1, m2, at1, at2, current):
        got = engine(m1, m2, at1, at2, current)
        assert got == reference_distance_layers(
            m1.indep_mask, m2.indep_mask, current, m1.ground.size)
        phases.append(got)
        return got

    monkeypatch.setattr(intersection, "_distance_layers", checked)
    return phases


class TestLayersEqualAllPairsReference:
    def test_every_phase_of_random_pairs(self, monkeypatch):
        phases = checked_layering(monkeypatch)
        rng = random.Random(139)
        for _ in range(2000):
            n = rng.randint(0, 10)
            max_common_independent(random_matroid(rng, n), random_matroid(rng, n))
        # The greedy warm start leaves a phase with paths to augment on few pairs.
        assert sum(layers is not None for layers in phases) >= 10

    def test_every_common_independent_set(self):
        # Not only the sets the phases reach: every set independent in both.
        rng = random.Random(149)
        deep = 0
        for _ in range(300):
            n = rng.randint(4, 10)
            m1, m2 = random_matroid(rng, n), random_matroid(rng, n)
            i1, i2 = m1.indep_mask, m2.indep_mask
            singles = [1 << e for e in range(n)]
            at1, at2 = class_states(singles, m1), class_states(singles, m2)
            for mask in range(1 << n):
                if i1(mask) and i2(mask):
                    got = intersection._distance_layers(m1, m2, at1, at2, mask)
                    assert got == reference_distance_layers(i1, i2, mask, n)
                    deep += got is not None and len(got) > 1
        assert deep >= 20


class TestPartitionIntoIndependent:
    def test_free_matroid_single_class(self):
        m = free_matroid(GroundSet(4))
        verdict = partition_into_independent(m, 1)
        assert verdict.feasible
        assert sorted(verdict.classes[0]) == [0, 1, 2, 3]

    def test_uniform_two_classes(self):
        m = uniform_matroid(GroundSet(4), 2)
        verdict = partition_into_independent(m, 2)
        assert verdict.feasible
        assert sorted(len(c) for c in verdict.classes) == [2, 2]

    def test_triangle_single_class_impossible(self):
        m = graphic_matroid(TRIANGLE)
        assert not partition_into_independent(m, 1).feasible

    def test_classes_are_independent_partition(self):
        rng = random.Random(109)
        for _ in range(100):
            n = rng.randint(1, 7)
            k = rng.randint(1, 3)
            m = random_matroid(rng, n)
            verdict = partition_into_independent(m, k)
            assert verdict.feasible == naive_partition_feasible(m, k)
            if verdict.feasible:
                union = 0
                for c in verdict.classes:
                    assert m.is_independent(c)
                    assert union & c.mask == 0
                    union |= c.mask
                assert union == m.ground.full_mask


class TestNecessaryCheck:
    def test_triangle_pair_fails_size(self):
        m = graphic_matroid(TRIANGLE)
        check = common_bases_necessary_check(m, m, 2)
        assert not check.passed
        assert not check.size_condition

    def test_uniform_passes(self):
        m = uniform_matroid(GroundSet(4), 2)
        check = common_bases_necessary_check(m, m, 2)
        assert check.passed

    def test_pass_does_not_imply_feasible(self):
        # The relaxed/strict oracle pair: the strict matroid passes the
        # necessary condition with its pairing partition matroid yet has
        # no partition into parity bases.
        from basepack.adversary import build_adversary
        from basepack.solvers import solve_modular_bases
        from basepack.instances import ModularInstance

        pair = build_adversary(1)
        strict = pair.strict
        check = common_bases_necessary_check(strict, strict, 2)
        assert check.passed
        inst = ModularInstance(strict, pair.pairing)
        assert solve_modular_bases(inst) is None

    def test_solver_yes_implies_necessary_pass(self):
        from basepack.solvers import solve_common_bases
        from helpers import random_common_bases_instance

        rng = random.Random(113)
        seen_yes = 0
        for _ in range(80):
            inst = random_common_bases_instance(rng, rng.choice([2, 4, 6]))
            if solve_common_bases(inst) is not None:
                check = common_bases_necessary_check(inst.m1, inst.m2, 2)
                assert check.passed
                seen_yes += 1
        assert seen_yes >= 10

    def test_gadget_reduction_of_feasible_instance_passes(self):
        from basepack.instances import ModularInstance
        from basepack.reductions import modular_to_common_bases

        g = GroundSet(4)
        inst = ModularInstance(
            uniform_matroid(g, 2), PartitionOfGroundSet.build(g, [[0, 1], [2, 3]])
        )
        red = modular_to_common_bases(inst)
        check = common_bases_necessary_check(red.instance.m1, red.instance.m2, 2)
        assert check.passed

    def test_brute_force_agreement_up_to_twelve(self):
        rng = random.Random(127)
        for n in (10, 12):
            for _ in range(4):
                m1 = random_matroid(rng, n)
                m2 = random_matroid(rng, n)
                assert len(max_common_independent(m1, m2)) == naive_max_common(m1, m2)


def counted(matroid: Matroid) -> tuple[Matroid, list[int]]:
    """The same oracles, with every independence query's mask logged."""
    log: list[int] = []
    inner = matroid.indep_mask

    def indep(mask: int) -> bool:
        log.append(mask)
        return inner(mask)

    return Matroid(matroid.ground, matroid.kind, indep, matroid.descriptor, matroid.rank_mask), log


def test_r1_instance_call_count_is_pinned():
    # The 400-element r1 instance of the golden formula: 316,570 distinct
    # queries with one breadth-first search per augmentation, 18,520 with
    # the warm start and the phases, and 4,444 with layers from circuit
    # queries and binary search.
    text = (pathlib.Path(__file__).resolve().parent.parent / "golden" / "three_clause.cnf").read_text()
    sat = naesat_to_modular_trees(parse_dimacs(text))
    inst = modular_to_common_bases(sat.instance.to_modular_instance()).instance
    assert inst.ground.size == 400
    m1, log1 = counted(inst.m1)
    m2, log2 = counted(inst.m2)
    got = max_common_independent(m1, m2)
    assert len(got) == 200
    assert len(set(log1)) + len(set(log2)) <= 4_444
    assert inst.m1.is_independent(got) and inst.m2.is_independent(got)


def test_r5_partition_call_count_is_pinned():
    # The m1 side of the necessary check on the 800-element r5 output of
    # the pipeline formula: 200,887 queries (with repeats) with all-pairs
    # arc tests in the layering, 15,283 with circuit queries, and 10,027
    # once the copy sum answers a part's repeated projection from memory.
    sat = naesat_to_modular_trees(FORMULA)
    embed = modular_to_common_bases(sat.instance.to_modular_instance())
    m1 = to_partition_matroid_form(embed.instance).instance.m1
    assert m1.ground.size == 800
    m, log = counted(m1)
    verdict = partition_into_independent(m, 2)
    assert verdict.feasible
    assert len(log) <= 10_027


def test_r5_partition_m2_call_count_is_pinned():
    # The m2 side of the same check: 2,800 queries while the copy sum
    # asked every part again on each query, 1,602 with its memo.
    sat = naesat_to_modular_trees(FORMULA)
    embed = modular_to_common_bases(sat.instance.to_modular_instance())
    m2 = to_partition_matroid_form(embed.instance).instance.m2
    assert m2.ground.size == 800
    m, log = counted(m2)
    verdict = partition_into_independent(m, 2)
    assert verdict.feasible
    assert len(log) <= 1_602


def test_transversal_augment_count_is_pinned(monkeypatch):
    # A 64 x 24 degree-3 bipartite graph against U(64, 20): 1,134 augmenting
    # steps with a fresh matching per query, 64 once each query resumes
    # from the last one's matching.
    rng = random.Random(64)
    edges = [(s, t) for s in range(64) for t in rng.sample(range(24), 3)]
    m1 = transversal_matroid(BipartiteGraph.build(64, 24, edges))
    m2 = uniform_matroid(GroundSet(64), 20)
    calls = []
    monkeypatch.setattr(constructions, "augment", lambda *args: calls.append(1) or augment(*args))
    got = max_common_independent(m1, m2)
    check_min_max_certificate(m1, m2, got.mask)
    assert len(got) == 20
    assert len(calls) <= 64


def test_linear_reduced_column_count_is_pinned(monkeypatch):
    # A GF(3) 10 x 48 matrix against a rank-8 paving matroid: 396 column
    # reductions with a fresh basis per query, 48 once each query resumes
    # from the last one's common prefix.
    rng = random.Random(48)
    matrix = Matrix.build(gf(3), [[rng.randrange(3) for _ in range(48)] for _ in range(10)])
    sets: list[set[int]] = []
    while len(sets) < 20:
        candidate = set(rng.sample(range(48), 8))
        if all(len(candidate & h) <= 6 for h in sets):
            sets.append(candidate)
    m1 = linear_matroid(matrix)
    m2 = paving_matroid(HyperplaneFamily.build(GroundSet(48), 8, sets))
    reduced = []
    column_rank = Matrix.column_rank

    def counting(self, cols, steps, stop_at_zero):
        kept = len(steps)
        answer = column_rank(self, cols, steps, stop_at_zero)
        reduced.append(len(steps) - kept)
        return answer

    monkeypatch.setattr(Matrix, "column_rank", counting)
    got = max_common_independent(m1, m2)
    check_min_max_certificate(m1, m2, got.mask)
    assert len(got) == 8
    assert sum(reduced) <= 48


class TestCountingRefutation:
    def test_more_than_k_rank_elements_costs_no_independence_query(self):
        # 49 edges on 17 vertices against k * r = 3 * 16 = 48.
        rng = random.Random(131)
        edges = [(v, v + 1) for v in range(16)]
        edges += [tuple(rng.sample(range(17), 2)) for _ in range(33)]
        m, log = counted(graphic_matroid(MultiGraph.build(17, edges)))
        assert not partition_into_independent(m, 3).feasible
        assert log == []

    def test_exactly_k_rank_elements_still_augments(self):
        # A tripled path on four vertices: 9 edges against 3 * 3, feasible.
        edges = [(0, 1), (1, 2), (2, 3)] * 3
        m, log = counted(graphic_matroid(MultiGraph.build(4, edges)))
        verdict = partition_into_independent(m, 3)
        assert verdict.feasible and len(verdict.classes) == 3
        assert log

    def test_more_classes_than_elements_answers_at_once(self):
        # One copy per class would take minutes for k in the tens of thousands.
        verdict = partition_into_independent(graphic_matroid(TRIANGLE), 10**6)
        assert verdict.feasible and len(verdict.classes) <= 3


STRUCTURED_KINDS = ("graphic", "transversal", "partition", "gadget")


def structured_side(rng: random.Random, kind: str, n: int) -> Matroid:
    if kind == "graphic":
        return graphic_matroid(random_multigraph(rng, n))
    if kind == "transversal":
        right = rng.randint(n // 4, n)
        return transversal_matroid(random_bipartite(rng, n, right, 3 / right))
    if kind == "partition":
        part = random_partition(rng, GroundSet(n), rng.randint(1, 6))
        return partition_matroid(part, [rng.randint(0, len(b)) for b in part.blocks])
    # A direct sum of gadget parts: either graph of 1- or 2-block gadgets.
    parts = []
    left = n // 9
    while left:
        ell = rng.randint(1, min(2, left))
        pair = default_gadget(ell)
        parts.append(rng.choice([pair.first_matroid, pair.second_matroid]))
        left -= ell
    return direct_sum_all(parts)


@st.composite
def structured_pairs(draw):
    kinds = (draw(st.sampled_from(STRUCTURED_KINDS)), draw(st.sampled_from(STRUCTURED_KINDS)))
    if "gadget" in kinds:
        n = 9 * draw(st.integers(3, 6))
    else:
        n = draw(st.integers(20, 60))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return tuple(structured_side(rng, kind, n) for kind in kinds)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(structured_pairs())
def test_min_max_certificate_on_structured_pairs(pair):
    m1, m2 = pair
    check_min_max_certificate(m1, m2, max_common_independent(m1, m2).mask)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(structured_pairs())
def test_layers_equal_all_pairs_reference_on_structured_pairs(pair):
    m1, m2 = pair
    with pytest.MonkeyPatch.context() as monkeypatch:
        phases = checked_layering(monkeypatch)
        max_common_independent(m1, m2)
    assert phases


@st.composite
def binary_pairs(draw):
    """Two random matroids over one ground set, each with GF(2) vectors, or
    now and then one side without them."""
    n = draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m1, m2 = random_binary_matroid(rng, n), random_binary_matroid(rng, n)
    if draw(st.integers(0, 3)) == 0:
        m2 = random_matroid(rng, n)
    return m1, m2


@settings(max_examples=300, derandomize=True, deadline=None)
@given(binary_pairs())
def test_intersection_answers_alike_with_and_without_vectors(pair):
    m1, m2 = pair
    with pytest.MonkeyPatch.context() as monkeypatch:
        checked_layering(monkeypatch)
        common = max_common_independent(m1, m2)
    assert common == max_common_independent(without_vectors(m1), without_vectors(m2))
    assert len(common) == naive_max_common(m1, m2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(binary_pairs(), st.integers(1, 4))
def test_partition_answers_alike_with_and_without_vectors(pair, k):
    m = pair[0]
    assert partition_into_independent(m, k) == partition_into_independent(without_vectors(m), k)


def test_vectors_save_forest_queries(monkeypatch):
    # A graphic matroid on 33 vertices and 96 edges against one element of
    # each of 32 triples: 506 forest queries when every scan asks the
    # oracle, 63 when the greedy start and the scans reduce vectors.
    calls = []
    forest = MultiGraph.is_forest_mask

    def counted_forest(graph, mask):
        calls.append(mask)
        return forest(graph, mask)

    monkeypatch.setattr(MultiGraph, "is_forest_mask", counted_forest)
    rng = random.Random(20)
    graphic = graphic_matroid(random_connected_multigraph(rng, 33, 96))
    order = list(range(96))
    rng.shuffle(order)
    triples = PartitionOfGroundSet.build(GroundSet(96), [order[i:i + 3] for i in range(0, 96, 3)])
    partition = partition_matroid(triples, [1] * 32)
    common = max_common_independent(graphic, partition)
    with_vectors = len(calls)
    calls.clear()
    assert max_common_independent(without_vectors(graphic), without_vectors(partition)) == common
    assert len(common) == 32
    assert len(calls) == 506
    assert with_vectors <= 63
