"""Ground sets, element sets, oracle queries, axiom checks, query logging, the block search,
the value records."""

import copy
import inspect
import json
import pathlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basepack.core import (
    ElementSet,
    GroundSet,
    MaskState,
    Record,
    ResourceCapExceeded,
    UniverseMismatch,
    check_basis_axioms,
    check_independence_axioms,
    enumerate_bases,
    is_basis,
    is_independent,
    mask_of,
    rank,
    split_blocks,
    with_query_log,
    Matroid,
)
from basepack.adversary import build_adversary, run_indistinguishability
from basepack.certificates import (
    ArcSetCertificate,
    AssignmentCertificate,
    EdgeSetCertificate,
    PartitionCertificate,
)
from basepack.constructions import (
    HyperplaneFamily,
    PartitionOfGroundSet,
    direct_sum_all,
    free_matroid,
    graphic_matroid,
    uniform_matroid,
)
from basepack.fields import Matrix
from basepack.formats import load_instance, parse_arc_list, parse_bipartite, parse_dimacs
from basepack.gadget import DEFAULT_LABELING, default_gadget, verify_gadget
from basepack.graphs import Digraph, MultiGraph
from basepack.instances import CommonBasesInstance, ModularInstance
from basepack.intersection import common_bases_necessary_check, partition_into_independent
from basepack.reductions import (
    even_factor_to_mod4_factor,
    mod4_factor_to_parity_bases,
    modular_to_common_bases,
    naesat_to_modular_trees,
    to_partition_matroid_form,
)
from basepack.solvers import REGISTRY, solve_modular_bases, verify_certificate

from helpers import (
    naive_bases,
    naive_rank,
    random_matroid,
    random_partition,
    reference_axiom_report,
    reference_split_blocks,
)

TRIANGLE = MultiGraph.build(3, [(0, 1), (1, 2), (2, 0)])


class TestGroundSet:
    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError):
            GroundSet(2, ("a", "a"))

    def test_labels_must_match_size(self):
        with pytest.raises(ValueError):
            GroundSet(3, ("a", "b"))

    def test_default_labels_are_indices(self):
        g = GroundSet(3)
        assert g.label(2) == "2"

    def test_index_of(self):
        g = GroundSet(2, ("x", "y"))
        assert g.index_of("y") == 1


class TestElementSet:
    def test_set_algebra_stays_in_universe(self):
        g = GroundSet(5)
        a = ElementSet(g, [0, 1, 2])
        b = ElementSet(g, [2, 3])
        assert sorted(a | b) == [0, 1, 2, 3]
        assert sorted(a & b) == [2]
        assert sorted(a - b) == [0, 1]
        assert sorted(a.complement()) == [3, 4]

    def test_out_of_range_rejected(self):
        g = GroundSet(3)
        with pytest.raises(ValueError):
            ElementSet(g, [3])

    def test_universe_mismatch(self):
        a = ElementSet(GroundSet(3), [0])
        b = ElementSet(GroundSet(4), [0])
        with pytest.raises(UniverseMismatch):
            a | b

    def test_membership_iteration(self):
        g = GroundSet(4)
        s = ElementSet(g, [3, 1])
        assert list(s) == [1, 3]
        assert 1 in s and 0 not in s
        assert len(s) == 2

    def test_add_remove_issubset(self):
        g = GroundSet(4)
        s = ElementSet(g, [1])
        grown = s.add(3)
        assert sorted(grown) == [1, 3]
        assert sorted(grown.remove(1)) == [3]
        assert s.issubset(grown) and not grown.issubset(s)
        with pytest.raises(ValueError):
            s.add(9)


class TestOracleQueries:
    def test_empty_set_always_independent(self):
        for m in (uniform_matroid(GroundSet(4), 2), graphic_matroid(TRIANGLE)):
            assert is_independent(m, m.subset())

    def test_uniform_over_rank_dependent(self):
        m = uniform_matroid(GroundSet(4), 2)
        assert not is_independent(m, m.subset([0, 1, 2]))

    def test_triangle_cycle_dependent(self):
        m = graphic_matroid(TRIANGLE)
        assert not is_independent(m, m.subset([0, 1, 2]))

    def test_is_independent_checks_universe(self):
        m = uniform_matroid(GroundSet(4), 2)
        with pytest.raises(UniverseMismatch):
            is_independent(m, ElementSet(GroundSet(5), [0]))

    def test_rank_uniform(self):
        m = uniform_matroid(GroundSet(4), 2)
        assert rank(m) == 2

    def test_rank_free_is_size(self):
        m = free_matroid(GroundSet(5))
        assert rank(m, m.subset([0, 2, 4])) == 3

    def test_greedy_rank_matches_enumeration(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(0, 7)
            m = random_matroid(rng, n)
            for _ in range(10):
                mask = rng.randrange(1 << n) if n else 0
                assert m.rank_mask(mask) == naive_rank(m, mask)

    def test_is_basis(self):
        m = uniform_matroid(GroundSet(4), 2)
        assert is_basis(m, m.subset([0, 1]))
        assert not is_basis(m, m.subset([0]))

    def test_enumerate_bases_uniform(self):
        m = uniform_matroid(GroundSet(3), 1)
        assert [sorted(b) for b in enumerate_bases(m)] == [[0], [1], [2]]

    def test_enumerate_bases_triangle(self):
        m = graphic_matroid(TRIANGLE)
        assert [sorted(b) for b in enumerate_bases(m)] == [[0, 1], [0, 2], [1, 2]]

    def test_enumerate_bases_matches_filter(self):
        rng = random.Random(11)
        for _ in range(20):
            m = random_matroid(rng, rng.randint(0, 7))
            assert [b.mask for b in enumerate_bases(m)] == naive_bases(m)

    def test_enumerate_bases_cap(self):
        m = free_matroid(GroundSet(25))
        with pytest.raises(ResourceCapExceeded):
            enumerate_bases(m)


class TestIndependenceAxioms:
    def test_free_matroid_passes(self):
        report = check_independence_axioms(free_matroid(GroundSet(5)))
        assert report.ok

    def test_downward_closure_failure_with_witness(self):
        g = GroundSet(2)
        family = {0b00, 0b11}
        bogus = Matroid(g, "custom", lambda m: m in family)
        report = check_independence_axioms(bogus)
        i2 = report.checks[1]
        assert not i2.passed
        x, y = i2.witness
        assert x.mask & ~y.mask == 0 and len(y) == len(x) + 1

    def test_exchange_failure_with_witness(self):
        g = GroundSet(3)
        # Downward closed but sizes 1 and 2 cannot exchange into {0}.
        family = {0b000, 0b001, 0b010, 0b100, 0b110}
        bogus = Matroid(g, "custom", lambda m: m in family)
        report = check_independence_axioms(bogus)
        assert report.checks[1].passed
        assert not report.checks[2].passed

    def test_cap(self):
        with pytest.raises(ResourceCapExceeded):
            check_independence_axioms(free_matroid(GroundSet(30)))

    def test_random_constructions_pass(self):
        rng = random.Random(23)
        for _ in range(40):
            m = random_matroid(rng, rng.randint(0, 8))
            assert check_independence_axioms(m).ok, m.kind

    def test_twelve_element_constructions_pass(self):
        ring = MultiGraph.build(
            7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2), (1, 4), (3, 6), (2, 5)]
        )
        assert ring.edge_count == 11
        assert check_independence_axioms(graphic_matroid(ring)).ok
        assert check_independence_axioms(uniform_matroid(GroundSet(12), 5)).ok


def family_matroid(n: int, family) -> Matroid:
    """The set family over n elements as an oracle, axioms or not."""
    family = frozenset(family)
    return Matroid(GroundSet(n), "custom", family.__contains__)


def assert_same_report(matroid: Matroid) -> None:
    report = check_independence_axioms(matroid)
    assert report == reference_axiom_report(matroid)
    assert [c.name for c in report.checks] == ["I1", "I2", "I3"]


class TestExchangeTableAgainstPairwiseSweep:
    """The subset-table exchange check reports what the pairwise sweep
    does: every flag and every witness mask."""

    def test_every_family_on_at_most_three_elements(self):
        count = 0
        for n in range(4):
            for code in range(1 << (1 << n)):
                assert_same_report(family_matroid(n, (m for m in range(1 << n) if code >> m & 1)))
                count += 1
        assert count == 278

    def test_every_downward_closed_family_on_four_elements(self):
        closed = []
        for code in range(1 << 16):
            family = [m for m in range(16) if code >> m & 1]
            if all(code >> (m & ~(1 << e)) & 1 for m in family for e in range(4)):
                closed.append(family)
        assert len(closed) == 168  # the Dedekind number M(4), empty family included
        for family in closed:
            assert_same_report(family_matroid(4, family))

    def test_seeded_random_families_on_at_most_seven_elements(self):
        rng = random.Random(2019)
        failed = set()
        for i in range(3000):
            n = rng.randint(0, 7)
            if i % 2:
                family = [m for m in range(1 << n) if rng.random() < 0.5]
            else:
                # Downward closures of a few generators, sometimes with one
                # set toggled so that only the exchange axiom can tell.
                gens = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
                family = {m for m in range(1 << n) if any(m & ~g == 0 for g in gens)}
                if rng.random() < 0.3:
                    family ^= {rng.getrandbits(n)}
            matroid = family_matroid(n, family)
            assert_same_report(matroid)
            failed |= {c.name for c in check_independence_axioms(matroid).checks if not c.passed}
        assert failed == {"I1", "I2", "I3"}


def test_axiom_check_keeps_a_few_bytes_a_subset():
    # One flag byte and one four-byte size-set entry a subset: 5.2 bytes a
    # subset at 14 elements, where Python lists of flags and of size-set
    # ints peaked at 29.4.  Tracing slows the n * 2^n loops about eightfold,
    # so the bound is held at 14 elements rather than at 18.
    n = 14
    matroid = free_matroid(GroundSet(n))
    tracemalloc.start()
    try:
        report = check_independence_axioms(matroid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8 << n


class TestBasisAxioms:
    def test_simple_family_passes(self):
        g = GroundSet(3)
        fam = [ElementSet(g, [0, 1]), ElementSet(g, [1, 2])]
        assert check_basis_axioms(fam).ok

    def test_empty_family_fails_b1(self):
        report = check_basis_axioms([])
        assert not report.checks[0].passed

    def test_exchange_failure(self):
        g = GroundSet(4)
        fam = [ElementSet(g, [0, 1]), ElementSet(g, [2, 3])]
        report = check_basis_axioms(fam)
        assert not report.checks[1].passed

    def test_all_bases_of_random_matroids_pass(self):
        rng = random.Random(5)
        for _ in range(15):
            m = random_matroid(rng, rng.randint(1, 6))
            fam = enumerate_bases(m)
            assert check_basis_axioms(fam).ok


class TestRankProperties:
    def test_monotone_and_submodular_exhaustive(self):
        rng = random.Random(3)
        for _ in range(6):
            n = 6
            m = random_matroid(rng, n)
            table = [m.rank_mask(mask) for mask in range(1 << n)]
            for x in range(1 << n):
                for y in range(1 << n):
                    if x & ~y == 0:
                        assert table[x] <= table[y]
                    assert table[x] + table[y] >= table[x | y] + table[x & y]


class TestQueryLog:
    def test_dedup(self):
        m = uniform_matroid(GroundSet(4), 2)
        wrapped, log = with_query_log(m)
        empty = wrapped.subset()
        wrapped.is_independent(empty)
        wrapped.is_independent(empty)
        assert log.count == 1

    def test_two_distinct(self):
        m = uniform_matroid(GroundSet(4), 2)
        wrapped, log = with_query_log(m)
        wrapped.is_independent(wrapped.subset([0]))
        wrapped.is_independent(wrapped.subset([0, 1]))
        assert log.count == 2

    def test_greedy_rank_queries_one_per_element(self):
        m = uniform_matroid(GroundSet(4), 2)
        wrapped, log = with_query_log(m)
        assert rank(wrapped) == 2
        assert log.count == 4
        assert [sorted(s) for s in log.queried_sets()] == [
            [0],
            [0, 1],
            [0, 1, 2],
            [0, 1, 3],
        ]

    def test_rank_stops_at_cached_full_rank(self):
        m = uniform_matroid(GroundSet(10), 2)
        calls = []

        def counting(mask):
            calls.append(mask)
            return m.indep_mask(mask)

        counted = Matroid(m.ground, m.kind, counting)
        assert counted.full_rank == 2 and len(calls) == 10
        calls.clear()
        assert counted.rank_mask(m.ground.full_mask) == 2
        assert len(calls) == 2

    def test_wrapping_never_changes_answers(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(1, 7)
            m = random_matroid(rng, n)
            wrapped, _ = with_query_log(m)
            for mask in range(1 << n):
                assert wrapped.indep_mask(mask) == m.indep_mask(mask)

    def test_first_query_order(self):
        m = free_matroid(GroundSet(3))
        wrapped, log = with_query_log(m)
        for mask in (0b101, 0b001, 0b101, 0b111):
            wrapped.indep_mask(mask)
        assert log.masks() == (0b101, 0b001, 0b111)


def test_with_labels_keeps_oracle_and_descriptor():
    m = uniform_matroid(GroundSet(3), 2)
    named = m.with_labels(["x", "y", "z"])
    assert named.ground.labels == ("x", "y", "z")
    assert named.indep_mask is m.indep_mask
    assert named.rank_mask is m.rank_mask
    assert named.descriptor is m.descriptor and named.kind == m.kind
    assert m.ground.labels is None
    with pytest.raises(ValueError):
        m.with_labels(["x", "x", "y"])


def test_query_log_answers_repeats_without_the_oracle():
    calls = []

    def indep(mask):
        calls.append(mask)
        return mask.bit_count() <= 1

    wrapped, log = with_query_log(Matroid(GroundSet(3), "custom", indep))
    for mask in (0b011, 0b001, 0b011, 0b001):
        wrapped.indep_mask(mask)
    assert calls == [0b011, 0b001] and log.masks() == (0b011, 0b001)


def test_logged_rank_is_a_greedy_scan_through_the_log():
    # The native rank is not forwarded, so a rank query spends (and
    # records) independence queries.
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 8)
        m = random_matroid(rng, n)
        wrapped, log = with_query_log(m)
        mask = rng.randrange(1, 1 << n)
        assert wrapped.rank_mask(mask) == m.rank_mask(mask)
        assert log.count > 0


LEAF_KINDS = ("graphic", "uniform", "partition")


def search_matroid(rng: random.Random, kind: str, n: int) -> Matroid:
    if kind in LEAF_KINDS:
        return random_matroid(rng, n, kind)
    cut = rng.randint(1, n - 1)
    parts = [random_matroid(rng, size, rng.choice(LEAF_KINDS)) for size in (cut, n - cut)]
    return direct_sum_all(parts)


@st.composite
def hereditary_searches(draw):
    """Blocks, k, cap and one or two matroids whose joint independence is
    the (hereditary) check, as the solvers and the gadget use it."""
    n = draw(st.integers(2, 9))
    k = draw(st.sampled_from((2, 3, 4)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(LEAF_KINDS + ("direct-sum",)), min_size=1, max_size=2))
    matroids = [search_matroid(rng, kind, n) for kind in kinds]
    if draw(st.booleans()):
        blocks = [1 << e for e in range(n)]
    else:
        blocks = [mask_of(b) for b in random_partition(rng, GroundSet(n)).blocks]
        rng.shuffle(blocks)
    return blocks, k, rng.randint(1, n), matroids


@settings(max_examples=400, derandomize=True, deadline=None)
@given(hereditary_searches())
def test_split_blocks_yields_the_plain_search_sequence(search):
    # Forced placement may only cut subtrees without a complete assignment.
    blocks, k, cap, matroids = search

    def indep(mask: int) -> bool:
        return all(m.indep_mask(mask) for m in matroids)

    states = [MaskState(indep) for _ in range(k)]
    assert list(split_blocks(blocks, k, cap, states)) == list(
        reference_split_blocks(blocks, k, cap, indep)
    )


def test_split_blocks_refuses_a_zero_block():
    # The open classes are read off the class masks, so every block must
    # make its class non-empty.
    with pytest.raises(ValueError):
        next(split_blocks([0b01, 0, 0b10], 2, 2, [MaskState(lambda mask: True)] * 2))


# ---------------------------------------------------------------------------
# The immutable value records: every class built on core.Record, with its
# fields in constructor order.

RECORD_FIELDS = {
    "GroundSet": ("size", "labels"),
    "AxiomCheck": ("name", "passed", "witness"),
    "AxiomReport": ("checks",),
    "Matrix": ("field", "rows", "cols", "entries"),
    "MultiGraph": ("vertex_count", "edges"),
    "BipartiteGraph": ("left", "right", "edges"),
    "Digraph": ("vertex_count", "arcs"),
    "PartitionOfGroundSet": ("universe", "blocks"),
    "HyperplaneFamily": ("universe", "r", "sets"),
    "ModularInstance": ("matroid", "modules"),
    "CommonBasesInstance": ("m1", "m2", "k"),
    "ParityInstance": ("matroid", "pairs"),
    "ModularTreesInstance": ("graph", "modules"),
    "CnfFormula": ("num_vars", "clauses", "dropped_tautologies"),
    "PartitionCertificate": ("classes",),
    "ModularCertificate": ("first_modules", "classes"),
    "AssignmentCertificate": ("values",),
    "ArcSetCertificate": ("arcs",),
    "EdgeSetCertificate": ("edges",),
    "BlockLabeling": ("first_path", "first_copath", "second_path", "second_copath"),
    "GadgetPair": ("ell", "labeling", "ground", "first_graph", "second_graph",
                   "first_matroid", "second_matroid"),
    "GadgetCertificate": ("ell", "ok_a", "witness_large", "witness_small", "ok_b",
                          "counterexample", "feasible_bipartitions", "efgh_always_together",
                          "i_always_opposite", "blocks_always_split_53", "elapsed_seconds"),
    "PartitionVerdict": ("feasible", "classes"),
    "NecessaryCheck": ("passed", "size_condition", "partitionable_1", "partitionable_2"),
    "CommonBasesReduction": ("source", "instance", "gadgets", "module_offsets", "provenance"),
    "SatTreesReduction": ("formula", "instance", "pos_path_module", "neg_path_module",
                          "pos_pair_modules", "neg_pair_modules", "clause_edge_modules",
                          "provenance"),
    "EvenFactorReduction": ("digraph", "graph", "path_edges", "provenance"),
    "ParityBasesReduction": ("graph", "instance", "doubled", "provenance"),
    "PartitionFormReduction": ("source", "instance", "provenance"),
    "AdversaryPair": ("t", "pairing", "hidden_set", "strict", "relaxed"),
    "ExperimentReport": ("t", "hidden", "total_queries", "distinguishing_query_index",
                         "agreement_verified", "solver_answer"),
    "VerifyResult": ("ok", "reason"),
    "Problem": ("instance", "parse", "solve", "takes_cap", "certificate", "verify"),
}


@pytest.fixture(scope="module")
def records():
    """One record of every class, built through the public API."""
    golden = pathlib.Path(__file__).resolve().parent.parent / "golden"
    ground = GroundSet(4, ("a", "b", "c", "d"))
    formula = parse_dimacs((golden / "three_clause.cnf").read_text())
    sat = naesat_to_modular_trees(formula)
    modular = load_instance(json.loads((golden / "modular_u42.json").read_text()))
    common = modular_to_common_bases(modular)
    digraph = parse_arc_list((golden / "two_cycle.digraph").read_text())
    bipartite = parse_bipartite((golden / "eight_cycle.bipartite").read_text())
    pair = build_adversary(1)
    cert = solve_modular_bases(modular)
    out = [
        ground,
        check_independence_axioms(uniform_matroid(ground, 2)),
        check_independence_axioms(uniform_matroid(ground, 2)).checks[0],
        Matrix.build("gf:3", [[1, 2], [4, 0]]),
        sat.instance.graph,
        bipartite,
        digraph,
        PartitionOfGroundSet.build(ground, [[0, 1], [2, 3]]),
        HyperplaneFamily.build(ground, 3, [[0, 1, 2]]),
        modular,
        common.instance,
        pair.parity_instance(pair.strict),
        sat.instance,
        formula,
        PartitionCertificate.from_masks(ground, (3, 12)),
        cert,
        AssignmentCertificate((True, False)),
        ArcSetCertificate(frozenset({(0, 1), (1, 0)})),
        EdgeSetCertificate(frozenset({(0, 0), (1, 1)})),
        DEFAULT_LABELING,
        default_gadget(1),
        verify_gadget(default_gadget(1)),
        partition_into_independent(uniform_matroid(ground, 2), 2),
        common_bases_necessary_check(common.instance.m1, common.instance.m2, 2),
        common,
        sat,
        even_factor_to_mod4_factor(digraph),
        mod4_factor_to_parity_bases(bipartite),
        to_partition_matroid_form(common.instance),
        pair,
        run_indistinguishability(pair, lambda matroid: None),
        verify_certificate("modular-bases", modular, cert),
        REGISTRY["naesat"],
    ]
    return {type(r).__name__: r for r in out}


def test_every_record_class_is_sampled(records):
    assert sorted(records) == sorted(RECORD_FIELDS)


@pytest.mark.parametrize("name", sorted(RECORD_FIELDS))
def test_record_value_semantics(records, name):
    record = records[name]
    fields = RECORD_FIELDS[name]
    values = [getattr(record, f) for f in fields]
    a, b = type(record)(*values), type(record)(**dict(zip(fields, values)))
    assert a is not b and a == b == record and not a != b
    assert a != object() and a != records["GroundSet" if name != "GroundSet" else "Digraph"]
    if any(isinstance(v, dict) for v in values):  # provenance maps are unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(record)
    assert copy.copy(a) == a
    assert repr(a).startswith(f"{name}({fields[0]}=")
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is getattr(record, f) or getattr(a, f) == getattr(record, f)
    with pytest.raises(AttributeError):
        a.not_a_field = 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: GroundSet(-1), ValueError, "non-negative"),
    (lambda: GroundSet(2, ("a", "a")), ValueError, "unique"),
    (lambda: GroundSet(3, ("a", "b")), ValueError, "label count"),
    (lambda: Matrix.build("gf:4", [[1]]), ValueError, "must be prime"),
    (lambda: ModularInstance(uniform_matroid(GroundSet(4), 2),
                             PartitionOfGroundSet.build(GroundSet(2), [[0], [1]])),
     UniverseMismatch, "different ground set"),
    (lambda: CommonBasesInstance(uniform_matroid(GroundSet(2), 1),
                                 uniform_matroid(GroundSet(2), 1), 0),
     ValueError, "k must be positive"),
], ids=["negative-size", "duplicate-labels", "label-count", "composite-modulus",
        "modules-elsewhere", "k-zero"])
def test_record_constructor_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


# The fields that may be omitted, with their defaults; no other class has one.
RECORD_DEFAULTS = {
    "GroundSet": {"labels": None},
    "AxiomCheck": {"witness": None},
    "VerifyResult": {"reason": None},
    "CommonBasesInstance": {"k": 2},
    "CnfFormula": {"dropped_tautologies": 0},
    "PartitionVerdict": {"classes": None},
    "ExperimentReport": {"solver_answer": None},
}


def test_records_declare_their_fields_once(records):
    for name, record in records.items():
        cls = type(record)
        assert "__init__" not in vars(cls), name
        assert isinstance(cls.__slots__, dict), name
        assert all(isinstance(t, str) and t for t in cls.__slots__.values()), name
        assert cls._defaults == RECORD_DEFAULTS.get(name, {}), name
    assert not hasattr(Record, "_init")
    assert inspect.getdoc(GroundSet.size) == "int"


@pytest.mark.parametrize("name", sorted(RECORD_DEFAULTS))
def test_record_defaults_apply_when_omitted(records, name):
    record, defaults = records[name], RECORD_DEFAULTS[name]
    given = {f: getattr(record, f) for f in RECORD_FIELDS[name] if f not in defaults}
    for built in (type(record)(*given.values()), type(record)(**given)):
        assert {f: getattr(built, f) for f in defaults} == defaults


@pytest.mark.parametrize("build, message", [
    (lambda: GroundSet(4, None, "extra"), "GroundSet() takes 2 fields but 3 were given"),
    (lambda: GroundSet(4, label=("a",)), "GroundSet() got an unexpected field 'label'"),
    (lambda: Digraph(vertex_count=2), "Digraph() missing field 'arcs'"),
    (lambda: Digraph(2, (), vertex_count=2),
     "Digraph() got multiple values for field 'vertex_count'"),
], ids=["too-many-positional", "unknown-keyword", "missing-field", "field-twice"])
def test_record_binding_errors(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message
