"""Matroid classes, combinators, and their exchange-format round trips."""

import itertools
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basepack.core import (
    Gf2Basis,
    GroundSet,
    MaskState,
    Matroid,
    bits_of,
    check_independence_axioms,
    class_states,
    gf2_states,
    mask_of,
    rank,
    with_query_log,
)
from basepack.constructions import (
    DEFAULT_REPRESENTATION_PRIME,
    HyperplaneFamily,
    PartitionOfGroundSet,
    direct_sum,
    direct_sum_all,
    dual,
    free_matroid,
    graphic_matroid,
    linear_matroid,
    matroid_from_descriptor,
    parallel_copies,
    partition_matroid,
    paving_matroid,
    relabel,
    transversal_linear_representation,
    transversal_matroid,
    truncate,
    uniform_matroid,
)
from basepack.fields import Matrix, gf, is_prime
from basepack.graphs import BipartiteGraph, MultiGraph, augment, union_find

from helpers import (
    MATROID_KINDS,
    gf2_identity_matroid,
    gf2_independent,
    oracle_equal,
    random_bipartite,
    random_connected_multigraph,
    random_matroid,
    random_multigraph,
    reference_direct_sum,
    reference_dual,
    reference_matching,
    reference_column_rank,
    reference_rank,
    reference_remap,
)

K4 = MultiGraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestBasicClasses:
    def test_free_everything_independent(self):
        m = free_matroid(GroundSet(3))
        assert all(m.indep_mask(mask) for mask in range(8))

    def test_uniform_equals_free_at_full_rank(self):
        assert oracle_equal(uniform_matroid(GroundSet(4), 4), free_matroid(GroundSet(4)))

    def test_uniform_range_check(self):
        with pytest.raises(ValueError):
            uniform_matroid(GroundSet(3), 4)

    def test_partition_matroid(self):
        g = GroundSet(4)
        part = PartitionOfGroundSet.build(g, [[0, 1], [2, 3]])
        m = partition_matroid(part, [1, 1])
        assert m.indep_mask(0b0101)
        assert not m.indep_mask(0b0011)
        assert rank(m) == 2

    def test_partition_cap_out_of_range(self):
        g = GroundSet(2)
        part = PartitionOfGroundSet.build(g, [[0, 1]])
        with pytest.raises(ValueError):
            partition_matroid(part, [3])

    def test_partition_blocks_must_cover(self):
        g = GroundSet(3)
        with pytest.raises(ValueError):
            PartitionOfGroundSet.build(g, [[0, 1]])


class TestGraphic:
    def test_self_loop_dependent(self):
        m = graphic_matroid(MultiGraph.build(2, [(0, 0), (0, 1)]))
        assert not m.indep_mask(0b01)
        assert m.indep_mask(0b10)

    def test_parallel_pair_dependent(self):
        m = graphic_matroid(MultiGraph.build(2, [(0, 1), (0, 1)]))
        assert m.indep_mask(0b01) and m.indep_mask(0b10)
        assert not m.indep_mask(0b11)

    def test_rank_is_vertices_minus_components(self):
        rng = random.Random(31)
        for _ in range(25):
            graph = random_multigraph(rng, rng.randint(1, 9))
            m = graphic_matroid(graph)
            expected = graph.vertex_count - graph.component_count()
            assert rank(m) == expected

    @staticmethod
    def small_multigraphs(seed: int):
        """Random multigraphs of at most 8 edges, with self-loops and
        parallel edges, half of them connected."""
        rng = random.Random(seed)
        for _ in range(30):
            yield random_multigraph(rng, rng.randint(1, 8))
            n = rng.randint(1, 6)
            yield random_connected_multigraph(rng, n, rng.randint(n - 1, 8))

    def test_incidence_vectors_are_independent_exactly_on_forests(self):
        for graph in self.small_multigraphs(71):
            vectors = graph.incidence_vectors()
            for mask in range(1 << graph.edge_count):
                chosen = [vectors[e] for e in range(graph.edge_count) if mask >> e & 1]
                assert gf2_independent(chosen) == graph.is_forest_mask(mask)

    def test_cut_labels_are_independent_exactly_where_the_rest_connects(self):
        # Over every edge mask X: the labels of X are independent iff the
        # edges outside X leave the components as they were (one, when the
        # graph is connected), and a Gf2Basis state agrees.
        connected = 0
        for graph in self.small_multigraphs(72):
            n, edges, m = graph.vertex_count, graph.edges, graph.edge_count
            labels, components, full = graph.cut_labels(), graph.component_count(), (1 << m) - 1
            connected += components == 1
            state = gf2_states(range(1 << m), labels)(0)
            for mask in range(1 << m):
                independent = gf2_independent([labels[e] for e in range(m) if mask >> e & 1])
                assert independent == (union_find(n, edges, full ^ mask) == components)
                assert state.fits(mask) == independent
        assert connected >= 30

    def test_agrees_with_gf2_incidence(self):
        rng = random.Random(13)
        for _ in range(15):
            graph = random_multigraph(rng, rng.randint(1, 10))
            graphic = graphic_matroid(graph)
            vectors = graph.incidence_vectors()  # entry (r, c) is bit r of vector c
            entries = [[v >> r & 1 for v in vectors] for r in range(graph.vertex_count)]
            linear = linear_matroid(Matrix.build(gf(2), entries))
            assert oracle_equal(graphic, linear)


class TestTransversal:
    def test_star_rank_one(self):
        g = BipartiteGraph.build(3, 1, [(0, 0), (1, 0), (2, 0)])
        m = transversal_matroid(g)
        assert all(m.indep_mask(1 << s) for s in range(3))
        assert not m.indep_mask(0b011)

    def test_perfect_matching_full_rank(self):
        g = BipartiteGraph.build(3, 3, [(i, i) for i in range(3)])
        m = transversal_matroid(g)
        assert m.indep_mask(0b111)

    def test_isolated_left_vertex_is_loop(self):
        g = BipartiteGraph.build(2, 1, [(0, 0)])
        m = transversal_matroid(g)
        assert not m.indep_mask(0b10)

    def test_matching_matches_recursive_reference(self):
        # Same scan order: the same pairs, inserted in the same order, and
        # a failed step leaves the matching as it was.
        rng = random.Random(29)
        for _ in range(200):
            g = random_bipartite(rng, rng.randint(1, 9), rng.randint(1, 9), rng.random())
            adj = g.adjacency()
            lefts = rng.sample(range(g.left.size), rng.randint(0, g.left.size))
            expected = reference_matching(adj, lefts)
            match: dict[int, int] = {}
            steps = [augment(adj, match, s) for s in lefts]
            assert sum(steps) == len(expected)
            assert list(match.items()) == list(expected.items())
            # The lefts the reference matched, in order, are saturable.
            matched = set(expected.values())
            assert [s for s, ok in zip(lefts, steps) if ok] == [s for s in lefts if s in matched]

    def test_augmenting_path_longer_than_recursion_limit(self):
        # Left i sees rights i and i+1; the last left sees right 0 only, so
        # matching it shifts every earlier left along one 1,500-step path.
        n = 1501
        edges = [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n)] + [(n, 0)]
        m = transversal_matroid(BipartiteGraph.build(n + 1, n + 1, edges))
        assert m.full_rank == n + 1


class TestPaving:
    def test_two_excluded_pairs(self):
        g = GroundSet(4)
        fam = HyperplaneFamily.build(g, 2, [[0, 1], [2, 3]])
        m = paving_matroid(fam)
        assert not m.indep_mask(0b0011)  # inside a family set
        assert m.indep_mask(0b0101)
        assert m.indep_mask(0b0001)

    def test_empty_family_is_uniform(self):
        g = GroundSet(5)
        m = paving_matroid(HyperplaneFamily.build(g, 3, []))
        assert oracle_equal(m, uniform_matroid(g, 3))

    def test_every_small_set_independent(self):
        rng = random.Random(41)
        from helpers import random_paving_family

        for _ in range(20):
            n = rng.randint(3, 8)
            r = rng.randint(2, n)
            g = GroundSet(n)
            m = paving_matroid(random_paving_family(rng, g, r))
            for mask in range(1 << n):
                if mask.bit_count() <= r - 1:
                    assert m.indep_mask(mask)

    def test_intersection_invariant_rejected(self):
        g = GroundSet(5)
        with pytest.raises(ValueError, match="intersect"):
            HyperplaneFamily.build(g, 2, [[0, 1, 2], [1, 2, 3]])

    def test_small_set_rejected(self):
        g = GroundSet(5)
        with pytest.raises(ValueError, match="fewer"):
            HyperplaneFamily.build(g, 3, [[0, 1]])

    def test_improper_subset_rejected(self):
        g = GroundSet(3)
        with pytest.raises(ValueError, match="proper"):
            HyperplaneFamily.build(g, 2, [[0, 1, 2]])


class TestLinear:
    def test_identity_is_free(self):
        m = linear_matroid(Matrix.build(gf(2), [[1, 0], [0, 1]]))
        assert oracle_equal(m, free_matroid(GroundSet(2)))

    def test_repeated_column_dependent(self):
        m = linear_matroid(Matrix.build(gf(3), [[1, 1], [2, 2]]))
        assert m.indep_mask(0b01) and m.indep_mask(0b10)
        assert not m.indep_mask(0b11)

    def test_rational_field(self):
        m = linear_matroid(
            Matrix.build("q", [[Fraction(1, 2), 1], [0, Fraction(3)]])
        )
        assert m.indep_mask(0b11)

    def test_scaled_signed_incidence_over_q_is_graphic(self):
        # Each non-loop column is +c at one end and -c at the other, with a
        # random nonzero rational c per column, so elimination over Q
        # subtracts rational multiples of rows.
        rng = random.Random(107)
        checked = 0
        for _ in range(40):
            graph = random_multigraph(rng, rng.randint(1, 9))
            entries = [[Fraction(0)] * graph.edge_count for _ in range(graph.vertex_count)]
            for j, (u, v) in enumerate(graph.endpoints()):
                if u != v:
                    scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                    entries[u][j], entries[v][j] = scale, -scale
            linear = linear_matroid(Matrix.build("q", entries))
            graphic = graphic_matroid(graph)
            for mask in range(1 << graph.edge_count):
                assert linear.indep_mask(mask) == graphic.indep_mask(mask)
                assert linear.rank_mask(mask) == graphic.rank_mask(mask)
            checked += 1 << graph.edge_count
        assert checked > 1000

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 130])
    def test_gf2_packed_columns_agree_with_references(self, rows):
        # Columns are zero, copies of earlier ones, sums of two earlier
        # ones, random, or set only in the top rows, so that packing crosses
        # the machine word; entries 3, -1 and 2 must reduce mod 2.
        rng = random.Random(400 + rows)
        for _ in range(12):
            columns: list[list[int]] = []
            for _ in range(rng.randint(1, 8)):
                shape = rng.choice(["zero", "copy", "sum", "random", "top"] if columns
                                   else ["zero", "random", "top"])
                if shape == "zero":
                    column = [rng.choice([0, 2]) for _ in range(rows)]
                elif shape == "copy":
                    column = [x + rng.choice([0, 2, -2]) for x in rng.choice(columns)]
                elif shape == "sum":
                    column = [x + y for x, y in zip(rng.choice(columns), rng.choice(columns))]
                else:
                    low = max(rows - 3, 0) if shape == "top" else 0
                    column = [rng.choice([0, 1, 3, -1, 2]) if r >= low else 0 for r in range(rows)]
                columns.append(column)
            m = linear_matroid(Matrix.build(gf(2), [list(row) for row in zip(*columns)]))
            packed = [sum((x % 2) << r for r, x in enumerate(column)) for column in columns]
            for mask in range(1 << len(columns)):
                chosen = [packed[c] for c in range(len(columns)) if mask >> c & 1]
                assert m.indep_mask(mask) == gf2_independent(chosen)
                assert m.rank_mask(mask) == reference_rank(m, mask)

    @pytest.mark.parametrize("field", [gf(3), gf(5), gf(2**31 - 1), "q"])
    def test_column_reduction_agrees_with_row_elimination(self, field):
        # Columns are zero, copies, multiples or sums of earlier ones, or
        # random, so that many masks are dependent; the reference eliminates
        # rows with no early stop.
        rng = random.Random(field)
        def entry():
            x = rng.randint(-4, 4)
            return Fraction(x, rng.randint(1, 3)) if field == "q" else x
        checked = 0
        for _ in range(40):
            rows, columns = rng.randint(0, 5), []
            for _ in range(rng.randint(1, 7)):
                shape = rng.choice(["zero", "copy", "scale", "sum", "random"] if columns
                                   else ["zero", "random"])
                if shape == "zero":
                    column = [0] * rows
                elif shape == "copy":
                    column = list(rng.choice(columns))
                elif shape == "scale":
                    scale = rng.choice([2, -3, 5, Fraction(1, 2)] if field == "q" else [2, -3, 5])
                    column = [x * scale for x in rng.choice(columns)]
                elif shape == "sum":
                    column = [x + y for x, y in zip(rng.choice(columns), rng.choice(columns))]
                else:
                    column = [entry() for _ in range(rows)]
                columns.append(column)
            matrix = Matrix(field, rows, len(columns), [list(row) for row in zip(*columns)])
            m = linear_matroid(matrix)
            for mask in range(1 << len(columns)):
                expected = reference_column_rank(matrix, list(bits_of(mask)))
                assert m.rank_mask(mask) == expected
                assert m.indep_mask(mask) == (expected == mask.bit_count())
                checked += 1
        assert checked > 1000

    def test_entries_must_be_field_elements(self):
        # Rows may be any sequence but a string; a GF(p) entry is an int
        # other than a bool, a rational one an int, a Fraction or a string.
        assert Matrix.build(gf(2), [(1, 3)]) == Matrix.build(gf(2), [[1, 1]])
        for field, entries in [(gf(2), [[1.5, "3", True]]), (gf(2), [[True]]),
                               (gf(3), [["3"]]), ("q", [[1.5]]), ("q", [[False]])]:
            with pytest.raises(TypeError, match="entr"):
                Matrix.build(field, entries)
        for field, entries in [(gf(3), ["21"]), ("q", ["12", "34"])]:
            with pytest.raises(TypeError, match="row must be a list"):
                Matrix(field, len(entries), 2, entries)

    @pytest.mark.parametrize("field", ["gf:07", "gf: 7", "gf:+7", "gf:1_009", "gf:7 ", "gf:",
                                       "gf:\u0667"])
    def test_field_modulus_is_canonical_decimal(self, field):
        with pytest.raises(ValueError, match="unknown field descriptor"):
            Matrix.build(field, [[1]])

    def test_zero_column_is_loop(self):
        m = linear_matroid(Matrix.build(gf(2), [[0, 1]]))
        assert not m.indep_mask(0b01)

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="rational entry with a zero denominator"):
            Matrix.build("q", [["1/2", "1/0"]])

    def test_rational_exponent_is_bounded(self):
        m = Matrix.build("q", [["3/4", "1.5", "1.5e3", "-2E-3", "1e4300"]])
        assert m.entries[0][:4] == (Fraction(3, 4), Fraction(3, 2), 1500, Fraction(-1, 500))
        for entry in ("1e4301", "1E-4301", "2.5e+999999999"):
            with pytest.raises(ValueError, match="exponent exceeds 4300 in magnitude"):
                Matrix.build("q", [[entry]])


# Leaf oracles that answer each query from the last one, against memo-free
# references: a fresh matching per query, and the row elimination.
MEMO_FIELDS = (gf(2), gf(3), gf(DEFAULT_REPRESENTATION_PRIME), "q")


@st.composite
def leaf_walks(draw):
    """A transversal or linear oracle, its memo-free rank, and a walk of
    (mask, ask rank) queries that mixes fresh masks with one-element
    additions and removals."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("transversal",) + MEMO_FIELDS))
    n = draw(st.integers(1, 10))
    if kind == "transversal":
        graph = random_bipartite(rng, n, rng.randint(1, 8), rng.random())
        adj = graph.adjacency()
        m = transversal_matroid(graph)

        def reference(mask):
            return len(reference_matching(adj, list(bits_of(mask))))
    else:
        # Few distinct small entries, so that columns often depend.
        values = [0, 0, 1, -1, 2] + ([Fraction(1, 2)] if kind == "q" else [rng.randrange(1 << 40)])
        rows = rng.randint(0, 6)
        matrix = Matrix(kind, rows, n, [[rng.choice(values) for _ in range(n)] for _ in range(rows)])
        m = linear_matroid(matrix)

        def reference(mask):
            return reference_column_rank(matrix, list(bits_of(mask)))
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, (1 << n) - 1), st.booleans()),
                          min_size=1, max_size=40))
    walk, mask = [], 0
    for fresh, value, ask_rank in steps:
        mask = value if fresh else mask ^ 1 << value % n
        walk.append((mask, ask_rank))
    return m, reference, walk


@settings(max_examples=400, derandomize=True, deadline=None)
@given(leaf_walks())
def test_leaf_memos_answer_as_fresh_queries(case):
    m, reference, walk = case
    for mask, ask_rank in walk:
        if ask_rank:
            assert m.rank_mask(mask) == reference(mask)
        else:
            assert m.indep_mask(mask) == (reference(mask) == mask.bit_count())


class TestIsPrime:
    def test_agrees_with_trial_division_below_100000(self):
        small = [q for q in range(2, 317) if all(q % d for d in range(2, q))]
        for n in range(-2, 100_000):
            expected = n >= 2 and all(n % q for q in small if q * q <= n and q != n)
            assert is_prime(n) == expected, n

    @pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
    def test_rejects_strong_pseudoprimes(self, n):
        # Each passes the Miller-Rabin test for every prime base up to 2, 7
        # and 23 respectively.
        assert not is_prime(n)

    @pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**64 - 59])
    def test_accepts_large_primes(self, p):
        assert is_prime(p)

    @pytest.mark.parametrize("p", [2**64, 2**64 + 13, 10**30 + 57])
    def test_refuses_moduli_from_2_to_the_64(self, p):
        with pytest.raises(ValueError, match=r"modulus must be below 2\^64"):
            is_prime(p)


class TestCombinators:
    def test_direct_sum_of_frees_is_free(self):
        m = direct_sum(free_matroid(GroundSet(2)), free_matroid(GroundSet(3)))
        assert oracle_equal(m, free_matroid(GroundSet(5)))

    def test_direct_sum_blocks(self):
        m = direct_sum(uniform_matroid(GroundSet(2), 1), uniform_matroid(GroundSet(2), 1))
        assert m.indep_mask(0b0101)
        assert not m.indep_mask(0b0011)

    def test_direct_sum_rank_additive(self):
        rng = random.Random(9)
        for _ in range(15):
            m1 = random_matroid(rng, rng.randint(0, 5))
            m2 = random_matroid(rng, rng.randint(0, 5))
            assert rank(direct_sum(m1, m2)) == rank(m1) + rank(m2)

    def test_direct_sum_all_matches_left_deep_fold(self):
        # Same answers, and the parts see the same queries in the same
        # order, less each part's immediate repeats, which the flat node
        # answers from its memo.
        rng = random.Random(47)

        def taped(m, i, tape):
            logged, log = with_query_log(m)

            def indep(mask):
                tape.append((i, mask))
                return logged.indep_mask(mask)
            return Matroid(m.ground, m.kind, indep), log

        for _ in range(60):
            parts = [random_matroid(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 6))]
            flat_tape, fold_tape = [], []
            flat_logs = [taped(m, i, flat_tape) for i, m in enumerate(parts)]
            fold_logs = [taped(m, i, fold_tape) for i, m in enumerate(parts)]
            flat = direct_sum_all([m for m, _ in flat_logs])
            fold = reference_direct_sum([m for m, _ in fold_logs])
            assert flat.ground.size == fold.ground.size
            masks = list(range(1 << flat.ground.size))
            rng.shuffle(masks)
            for mask in masks:
                assert flat.indep_mask(mask) == fold.indep_mask(mask)
            # Rank through the flat node sums the part ranks instead of
            # querying the parts' independence, so the tapes are compared
            # over the independence sweep only.
            last: dict[int, int] = {}
            unrepeated = []
            for i, mask in fold_tape:
                if last.get(i) != mask:
                    unrepeated.append((i, mask))
                last[i] = mask
            assert flat_tape == unrepeated
            assert flat.full_rank == fold.full_rank
            for (_, a), (_, b) in zip(flat_logs, fold_logs):
                assert a.masks() == b.masks()

    def test_direct_sum_memo_keeps_no_answer_from_a_raising_part(self):
        # The part raises once, as a too-deep descriptor raises
        # RecursionError; the same query next must ask the part again.
        base = uniform_matroid(GroundSet(3), 2)
        asked = []
        armed = [False]

        def ask(answer, mask):
            asked.append(mask)
            if armed[0]:
                armed[0] = False
                raise RecursionError("too deep")
            return answer(mask)

        part = Matroid(base.ground, "uniform", lambda mask: ask(base.indep_mask, mask),
                       rank=lambda mask: ask(base.rank_mask, mask))
        m = direct_sum_all([part, free_matroid(GroundSet(1))])
        for query, answers in ((m.indep_mask, (True, False, False)), (m.rank_mask, (1, 2, 3))):
            asked.clear()
            assert query(0b0001) == answers[0]
            armed[0] = True
            with pytest.raises(RecursionError):
                query(0b0111)
            assert query(0b0111) == answers[1]
            assert asked == [0b001, 0b111, 0b111]
            assert query(0b1111) == answers[2]

    def test_direct_sum_memo_answers_one_bit_walks(self):
        # Walks that flip one bit at a time, mixing rank and independence
        # queries, against the memo-free left-deep fold; the dual of a sum
        # is the r5 output's shape.
        rng = random.Random(61)
        for _ in range(40):
            if rng.random() < 0.3:
                parts = [random_matroid(rng, rng.randint(1, 3))] * rng.randint(2, 4)
            else:
                parts = [random_matroid(rng, rng.randint(0, 3)) for _ in range(rng.randint(2, 5))]
            flat = direct_sum_all(parts)
            fold = reference_direct_sum(parts)
            n = flat.ground.size
            if n == 0:
                continue
            pairs = [(flat, fold), (dual(flat), dual(fold))]
            mask = rng.getrandbits(n)
            for _ in range(60):
                mask ^= 1 << rng.randrange(n)
                for got, want in pairs:
                    if rng.random() < 0.5:
                        assert got.indep_mask(mask) == want.indep_mask(mask)
                    else:
                        assert got.rank_mask(mask) == reference_rank(want, mask)

    def test_direct_sum_memo_is_safe_across_threads(self):
        # Four threads walk one shared sum, its dual, a transversal and a
        # linear oracle with a short switch interval.  A memo that stored
        # the mask before asking the part, or a matching or step list that
        # a later query grows in place, would let another thread read a
        # stale or half-built answer; the parallel pairs and the walks flip
        # their answers often, so such a read shows.
        pair = linear_matroid(Matrix.build(gf(3), [[1, 2, 0], [2, 1, 1]]))
        parts = [pair, pair, uniform_matroid(GroundSet(1), 0)]
        flat = direct_sum_all(parts)
        fold = reference_direct_sum(parts)
        graph = BipartiteGraph.build(7, 4, [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 2),
                                            (3, 3), (4, 0), (4, 3), (5, 3), (6, 2)])
        adj = graph.adjacency()
        matrix = Matrix.build(gf(3), [[1, 0, 1, 2, 0, 1, 0], [0, 1, 1, 1, 0, 2, 0],
                                      [0, 0, 0, 0, 1, 1, 2]])
        dual_fold = dual(fold)
        pairs = [(flat, lambda x: reference_rank(fold, x)),
                 (dual(flat), lambda x: reference_rank(dual_fold, x)),
                 (transversal_matroid(graph),
                  lambda x: len(reference_matching(adj, list(bits_of(x))))),
                 (linear_matroid(matrix), lambda x: reference_column_rank(matrix, list(bits_of(x))))]
        want = []
        for _, reference in pairs:
            ranks = [reference(x) for x in range(128)]
            want.append(([r == x.bit_count() for x, r in enumerate(ranks)], ranks))
        assert all(False in indep and True in indep for indep, _ in want)
        wrong, done = [], []
        gate = threading.Barrier(4)

        def walk(seed):
            local = random.Random(seed)
            gate.wait(timeout=60)
            mask = 0
            for _ in range(5000):
                mask ^= 1 << local.randrange(7)
                for (got, _), (indep, ranks) in zip(pairs, want):
                    if got.indep_mask(mask) != indep[mask] or got.rank_mask(mask) != ranks[mask]:
                        wrong.append(mask)
            done.append(seed)  # not reached when a query raises

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and sorted(done) == [0, 1, 2, 3]

    def test_direct_sum_descriptor_is_flat(self):
        parts = [uniform_matroid(GroundSet(2), 1), free_matroid(GroundSet(1)),
                 graphic_matroid(K4), uniform_matroid(GroundSet(3), 2)]
        m = direct_sum_all(parts)
        assert m.descriptor == {"kind": "direct-sum", "parts": [p.descriptor for p in parts]}
        assert matroid_from_descriptor(m.descriptor).descriptor == m.descriptor
        assert direct_sum_all(parts[:1]) is parts[0]

    def test_direct_sum_labels_merge_only_when_unique(self):
        a = uniform_matroid(GroundSet(2, ("a", "b")), 1)
        c = uniform_matroid(GroundSet(1, ("c",)), 1)
        assert direct_sum_all([a, c, c.with_labels(["d"])]).ground.labels == ("a", "b", "c", "d")
        assert direct_sum_all([a, c, c]).ground.labels is None
        assert direct_sum_all([a, free_matroid(GroundSet(1))]).ground.labels is None

    def test_nested_direct_sum_descriptor_loads_like_flat(self):
        # Descriptors written by the left-deep fold nest once per part.
        rng = random.Random(59)
        for _ in range(30):
            parts = [random_matroid(rng, rng.randint(0, 3)) for _ in range(rng.randint(2, 6))]
            nested = parts[0].descriptor
            for m in parts[1:]:
                nested = {"kind": "direct-sum", "parts": [nested, m.descriptor]}
            flat = {"kind": "direct-sum", "parts": [m.descriptor for m in parts]}
            assert oracle_equal(matroid_from_descriptor(nested), matroid_from_descriptor(flat))

    def test_wide_direct_sum(self):
        m = direct_sum_all([uniform_matroid(GroundSet(2), 1)] * 1500)
        assert m.ground.size == 3000 and m.full_rank == 1500
        assert len(m.descriptor["parts"]) == 1500

    def test_truncate_free_is_uniform(self):
        m = truncate(free_matroid(GroundSet(5)), 2)
        assert oracle_equal(m, uniform_matroid(GroundSet(5), 2))

    def test_truncate_at_rank_is_identity(self):
        rng = random.Random(19)
        for _ in range(10):
            m = random_matroid(rng, rng.randint(0, 6))
            assert oracle_equal(truncate(m, rank(m)), m)

    def test_truncate_rank_formula(self):
        rng = random.Random(29)
        for _ in range(15):
            m = random_matroid(rng, rng.randint(0, 6))
            k = rng.randint(0, 7)
            assert rank(truncate(m, k)) == min(k, rank(m))

    def test_dual_of_uniform(self):
        assert oracle_equal(
            dual(uniform_matroid(GroundSet(5), 2)), uniform_matroid(GroundSet(5), 3)
        )

    def test_dual_involution(self):
        rng = random.Random(37)
        for _ in range(12):
            m = random_matroid(rng, rng.randint(0, 6))
            assert oracle_equal(dual(dual(m)), m)

    def test_dual_matches_reference_scan(self):
        # Same answers, and the inner oracle sees the same queries in the
        # same order, repeats included.
        rng = random.Random(53)

        def taped(m, tape):
            def indep(mask):
                tape.append(mask)
                return m.indep_mask(mask)
            return Matroid(m.ground, m.kind, indep)

        inners = [uniform_matroid(GroundSet(n), 0) for n in (0, 1, 5)]
        inners += [random_matroid(rng, rng.randint(0, 9)) for _ in range(60)]
        for m in inners:
            tape, ref_tape = [], []
            co, ref = dual(taped(m, tape)), reference_dual(taped(m, ref_tape))
            masks = list(range(1 << m.ground.size))
            rng.shuffle(masks)
            for mask in masks[:40]:
                assert co.indep_mask(mask) == ref.indep_mask(mask)
            assert tape == ref_tape

    def test_dual_of_k4_rank(self):
        m = dual(graphic_matroid(K4))
        assert rank(m) == 3  # six edges minus spanning-tree rank

    def test_parallel_copies_identity_at_one(self):
        rng = random.Random(43)
        for _ in range(8):
            m = random_matroid(rng, rng.randint(0, 5))
            assert oracle_equal(parallel_copies(m, 1), m)

    def test_parallel_copies_pair_dependent(self):
        m = parallel_copies(free_matroid(GroundSet(1)), 2)
        assert not m.indep_mask(0b11)
        assert m.indep_mask(0b01) and m.indep_mask(0b10)

    def test_parallel_copies_preserves_rank(self):
        rng = random.Random(47)
        for _ in range(10):
            m = random_matroid(rng, rng.randint(0, 4))
            k = rng.randint(1, 3)
            assert rank(parallel_copies(m, k)) == rank(m)

    def test_parallel_copy_labels(self):
        m = parallel_copies(uniform_matroid(GroundSet(2), 1), 2)
        assert m.ground.labels == ("0#1", "0#2", "1#1", "1#2")

    def test_relabel_permutes_oracle(self):
        m = uniform_matroid(GroundSet(3), 1)
        shifted = relabel(direct_sum(m, free_matroid(GroundSet(1))), [3, 0, 1, 2])
        assert shifted.indep_mask(0b0001)  # new 0 is the free element
        assert shifted.indep_mask(0b0011)
        assert not shifted.indep_mask(0b0110)  # two uniform elements

    def test_relabel_remaps_masks_as_bit_by_bit(self):
        # Relabelings and parallel copies (k = 1, 2, 3) share one element
        # map: each inner query is the mask taken through it bit by bit,
        # and a mask that holds two copies of one element asks nothing.
        rng = random.Random(151)
        for copies, n in itertools.product((None, 1, 2, 3), (1, 7, 8, 9, 63, 64, 65, 800)):
            asked = []
            probe = Matroid(GroundSet(n), "probe", lambda mask: asked.append(mask) or True)
            if copies is None:
                image = list(range(n))
                rng.shuffle(image)
                mapped = relabel(probe, image)
            else:
                image = [e for e in range(n) for _ in range(copies)]
                mapped = parallel_copies(probe, copies)
            size = len(image)
            masks = [0, 1 << (size - 1)]
            masks += [rng.getrandbits(size) & rng.getrandbits(size) for _ in range(50)]
            if copies is None:
                masks.append((1 << size) - 1)
            else:
                # At most one copy of each element, chosen at random; and
                # for k > 1 the first two copies of element 0.
                masks += [mask_of(e * copies + rng.randrange(copies) for e in range(n)
                                  if rng.random() < 0.5) for _ in range(20)]
                masks += [0b11] if copies > 1 else []
            for mask in masks:
                before = len(asked)
                answer = mapped.indep_mask(mask)
                inner = reference_remap(image, mask)
                if inner.bit_count() == mask.bit_count():
                    assert answer and asked[before:] == [inner]
                else:
                    assert answer is False and asked[before:] == []

    def test_relabel_requires_permutation(self):
        with pytest.raises(ValueError):
            relabel(free_matroid(GroundSet(2)), [0, 0])


# Small matroids with GF(2) vectors: loops, parallel edges, a zero column,
# repeated columns, and partition blocks under caps 0 and 1.
LOOPY = MultiGraph.build(4, [(0, 1), (0, 1), (1, 2), (2, 2), (2, 3), (3, 1)])
GF2_MATRIX = Matrix.build(gf(2), [[1, 0, 1, 1, 0], [0, 1, 1, 1, 0], [0, 0, 0, 0, 0]])
CAP01 = PartitionOfGroundSet.build(GroundSet(6), [[0, 3], [1], [2, 4, 5]])


def binary_cases() -> dict:
    identity = gf2_identity_matroid(3)  # free matroids carry no vectors
    graphic = graphic_matroid(LOOPY)
    linear = linear_matroid(GF2_MATRIX)
    partition = partition_matroid(CAP01, [1, 0, 1])
    return {
        "identity": identity, "graphic": graphic, "linear-gf2": linear,
        "partition-01": partition,
        "sum": direct_sum_all([identity,
                               graphic_matroid(MultiGraph.build(2, [(0, 0), (0, 1), (1, 0)])),
                               partition_matroid(CAP01, [0, 1, 1])]),
        "relabel": relabel(graphic, [3, 0, 5, 1, 4, 2]),
        "copies": parallel_copies(linear, 2),
        "relabel-of-sum": relabel(direct_sum(linear, identity), [7, 2, 0, 4, 6, 1, 3, 5]),
        "copies-of-sum": parallel_copies(direct_sum(partition_matroid(
            PartitionOfGroundSet.build(GroundSet(3), [[0, 2], [1]]), [1, 1]), identity), 2),
        "labelled": graphic.with_labels("abcdef"),
    }


def non_binary_cases() -> dict:
    graphic = graphic_matroid(LOOPY)
    return {
        "free": free_matroid(GroundSet(3)),
        "uniform": uniform_matroid(GroundSet(4), 2),
        "transversal": transversal_matroid(random_bipartite(random.Random(3), 4, 3)),
        "paving": paving_matroid(HyperplaneFamily.build(GroundSet(5), 3, [[0, 1, 2]])),
        "truncation": truncate(graphic, 2),
        "dual": dual(graphic),
        "linear-gf3": linear_matroid(Matrix.build(gf(3), [[1, 0, 1], [0, 1, 1]])),
        "partition-cap-2": partition_matroid(CAP01, [1, 0, 2]),
        "sum-with-cap-2": direct_sum(graphic, partition_matroid(CAP01, [2, 1, 1])),
        "logged": with_query_log(graphic)[0],
    }


class TestGf2Vectors:
    @pytest.mark.parametrize("name", binary_cases())
    def test_vectors_are_independent_exactly_on_independent_sets(self, name):
        m = binary_cases()[name]
        assert m.gf2 is not None and len(m.gf2) == m.ground.size
        for mask in range(1 << m.ground.size):
            chosen = [m.gf2[e] for e in bits_of(mask)]
            assert gf2_independent(chosen) == m.indep_mask(mask), (name, mask)

    @pytest.mark.parametrize("name", binary_cases())
    def test_descriptor_round_trip_keeps_the_vectors(self, name):
        m = binary_cases()[name]
        assert matroid_from_descriptor(m.descriptor).gf2 == m.gf2

    @pytest.mark.parametrize("name", non_binary_cases())
    def test_other_kinds_carry_none(self, name):
        assert non_binary_cases()[name].gf2 is None

    def test_one_vector_per_element(self):
        with pytest.raises(ValueError, match="one GF"):
            Matroid(GroundSet(2), "ad-hoc", lambda mask: True, gf2=[1])

    def test_a_large_free_matroid_stores_nothing_per_element(self):
        # Unit vectors took n^2 / 2 bits: a 103.5 MiB peak at this size.
        tracemalloc.start()
        try:
            m = matroid_from_descriptor({"kind": "free", "size": 40_000})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.gf2 is None and peak < 1 << 20


# Five-element matroids for the class states: with vectors (a graphic
# one with a loop and a parallel pair, GF(2) columns with a zero one, a
# cap-1 partition) and without (uniform, a dual, a truncation).
FIVE_GRAPH = MultiGraph.build(3, [(0, 1), (0, 1), (1, 2), (2, 2), (2, 0)])
FIVE_BLOCKS = PartitionOfGroundSet.build(GroundSet(5), [[0, 3], [1], [2, 4]])


def class_state_cases() -> dict:
    graphic, linear = graphic_matroid(FIVE_GRAPH), linear_matroid(GF2_MATRIX)
    partition, uniform = partition_matroid(FIVE_BLOCKS, [1, 1, 1]), uniform_matroid(GroundSet(5), 3)
    dual_graphic, truncated = dual(graphic), truncate(linear, 2)
    return {
        "both-vectors": (graphic, linear),
        "both-vectors-relabelled": (partition, relabel(graphic, [4, 2, 0, 1, 3])),
        "one-with-vectors": (linear,),
        "neither": (uniform, dual_graphic),
        "one-without": (truncated,),
        "first-only": (graphic, uniform),
        "second-only": (dual_graphic, partition),
    }


class TestClassStates:
    @pytest.mark.parametrize("blocks", ["singles", "all"])
    @pytest.mark.parametrize("name", class_state_cases())
    def test_states_answer_as_the_oracles_do(self, name, blocks):
        # For every base independent in all matroids and every block off
        # it, fits is the conjunction of the oracles, also after an add,
        # and undo restores every answer.
        matroids = class_state_cases()[name]
        blocks = [1 << e for e in range(5)] if blocks == "singles" else list(range(1, 32))
        at = class_states(blocks, *matroids)
        vectors = all(m.gf2 is not None for m in matroids)

        def indep(mask: int) -> bool:
            return all(m.indep_mask(mask) for m in matroids)

        for base in filter(indep, range(32)):
            state = at(base)
            assert isinstance(state, Gf2Basis if vectors else MaskState)
            off = [b for b in blocks if not b & base]
            answers = [state.fits(b) for b in off]
            assert answers == [indep(base | b) for b in off], base
            for block in (b for b, fits in zip(off, answers) if fits):
                state.add(block)
                rest = [b for b in off if not b & block]
                assert [state.fits(b) for b in rest] == [indep(base | block | b) for b in rest]
                state.undo()
            assert [state.fits(b) for b in off] == answers

    def test_the_oracle_path_asks_in_matroid_order_and_stops_at_the_first_no(self):
        asked = []

        def logged(tag, m):
            return Matroid(m.ground, m.kind, lambda mask: asked.append(tag) or m.indep_mask(mask))

        first, second = class_state_cases()["first-only"]
        state = class_states(range(1, 32), logged(1, first), logged(2, second))(0)
        for block in range(1, 32):
            asked.clear()
            state.fits(block)
            assert asked == ([1, 2] if first.indep_mask(block) else [1])


class TestAxiomsAcrossConstructions:
    def test_constructions_pass_axioms(self):
        rng = random.Random(53)
        for _ in range(30):
            m = random_matroid(rng, rng.randint(0, 8))
            report = check_independence_axioms(m)
            assert report.ok, f"{m.kind}: {report}"


class TestTransversalRepresentation:
    def test_small_prime_rejected(self):
        g = random_bipartite(random.Random(1), 3, 3)
        with pytest.raises(ValueError, match="small"):
            transversal_linear_representation(g, p=101, seed=0)

    def test_composite_rejected(self):
        g = random_bipartite(random.Random(1), 3, 3)
        with pytest.raises(ValueError, match="prime"):
            transversal_linear_representation(g, p=2**30, seed=0)

    def test_field_parsed_once_per_matrix(self, monkeypatch):
        import basepack.fields as fields

        calls = []
        real = fields.is_prime

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(fields, "is_prime", counting)
        g = random_bipartite(random.Random(3), 4, 4)
        matrix = transversal_linear_representation(g, seed=1)
        assert len(calls) == 1
        assert Matrix.from_json(matrix.to_json()) == matrix
        assert len(calls) == 2

    def test_deterministic_for_seed(self):
        g = random_bipartite(random.Random(2), 4, 4)
        a = transversal_linear_representation(g, seed=5)
        b = transversal_linear_representation(g, seed=5)
        assert a == b

    def test_perfect_matching_graph_has_full_rank(self):
        g = BipartiteGraph.build(4, 4, [(i, i) for i in range(4)])
        m = linear_matroid(transversal_linear_representation(g, seed=1))
        assert m.indep_mask(0b1111)

    def test_isolated_left_vertex_gives_zero_column(self):
        g = BipartiteGraph.build(2, 2, [(0, 0), (0, 1)])
        matrix = transversal_linear_representation(g, seed=1)
        assert all(matrix.entries[t][1] == 0 for t in range(2))
        assert not linear_matroid(matrix).indep_mask(0b10)

    def test_matches_matching_oracle_on_most_seeds(self):
        rng = random.Random(71)
        good = 0
        trials = 100
        for seed in range(trials):
            n = rng.randint(2, 6)
            g = random_bipartite(rng, n, rng.randint(1, n + 1))
            matrix = transversal_linear_representation(g, seed=seed)
            if oracle_equal(linear_matroid(matrix), transversal_matroid(g)):
                good += 1
        assert good >= 99, f"only {good}/{trials} seeds agreed"


class TestDescriptorRoundTrip:
    def test_random_matroids_rebuild(self):
        rng = random.Random(61)
        for _ in range(25):
            m = random_matroid(rng, rng.randint(0, 6))
            rebuilt = matroid_from_descriptor(m.descriptor)
            assert oracle_equal(m, rebuilt), m.descriptor

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            matroid_from_descriptor({"kind": "mystery"})


def assert_rank_matches_reference(m, rng, samples=40):
    n = m.ground.size
    masks = [0, m.ground.full_mask] + [rng.getrandbits(n) for _ in range(samples)]
    for mask in masks:
        assert m.rank_mask(mask) == reference_rank(m, mask), (m.descriptor, mask)


class TestNativeRank:
    """Every closed-form rank equals the greedy scan of its own oracle."""

    @pytest.mark.parametrize("kind", MATROID_KINDS)
    def test_each_constructor(self, kind):
        rng = random.Random(MATROID_KINDS.index(kind))
        for _ in range(25):
            m = random_matroid(rng, rng.randint(2, 10), kind)
            # A closed form of its own, not the greedy fallback.
            assert getattr(m.rank_mask, "__self__", None) is not m
            assert_rank_matches_reference(m, rng)

    def test_parallel_copies_and_relabel(self):
        rng = random.Random(67)
        for _ in range(25):
            m = random_matroid(rng, rng.randint(1, 6))
            assert_rank_matches_reference(parallel_copies(m, rng.randint(1, 3)), rng)
            perm = list(range(m.ground.size))
            rng.shuffle(perm)
            once = relabel(m, perm)
            rng.shuffle(perm)
            assert_rank_matches_reference(once, rng)
            assert_rank_matches_reference(relabel(once, perm), rng)

    def test_dual_and_truncation_nest(self):
        rng = random.Random(71)
        for _ in range(25):
            m = random_matroid(rng, rng.randint(0, 9))
            k = rng.randint(0, m.ground.size)
            for nested in (dual(dual(m)), dual(truncate(m, k)), truncate(dual(m), k)):
                assert_rank_matches_reference(nested, rng)

    def test_direct_sum_with_empty_parts(self):
        rng = random.Random(73)
        empty = [free_matroid(GroundSet(0)), uniform_matroid(GroundSet(0), 0)]
        for _ in range(25):
            parts = [random_matroid(rng, rng.randint(0, 4)) for _ in range(rng.randint(1, 4))]
            parts += [rng.choice(empty) for _ in range(rng.randint(1, 3))]
            rng.shuffle(parts)
            m = direct_sum_all(parts)
            assert_rank_matches_reference(m, rng)
            assert m.full_rank == sum(p.full_rank for p in parts)

    def test_rank_zero_matroids(self):
        rng = random.Random(79)
        g = GroundSet(5)
        loops = [
            uniform_matroid(g, 0),
            partition_matroid(PartitionOfGroundSet.build(g, [[0, 1], [2, 3, 4]]), [0, 0]),
            graphic_matroid(MultiGraph.build(2, [(0, 0)] * 5)),
            transversal_matroid(BipartiteGraph.build(5, 2, [])),
            linear_matroid(Matrix.build(gf(3), [[0] * 5])),
            dual(free_matroid(g)),
            truncate(free_matroid(g), 0),
        ]
        for m in loops:
            assert m.full_rank == 0
            assert_rank_matches_reference(m, rng)
