"""The indistinguishable oracle pair and the query experiment."""

import pytest

from basepack.core import GroundSet, check_independence_axioms
from basepack.adversary import (
    AdversaryPair,
    build_adversary,
    count_parity_hiding_sets,
    disagreement_masks,
    run_indistinguishability,
)
from basepack.constructions import HyperplaneFamily, paving_matroid, uniform_matroid
from basepack.instances import ModularInstance, ParityInstance
from basepack.solvers import solve_modular_bases, solve_parity_bases

from helpers import oracle_equal


class TestConstruction:
    def test_t1_relaxed_is_uniform(self):
        pair = build_adversary(1)
        assert oracle_equal(pair.relaxed, uniform_matroid(GroundSet(4), 2))

    def test_t1_relaxed_bases_are_all_two_subsets(self):
        from basepack.core import enumerate_bases

        pair = build_adversary(1)
        assert len(enumerate_bases(pair.relaxed)) == 6

    def test_t1_strict_excludes_pairs_from_bases(self):
        from basepack.core import is_basis

        pair = build_adversary(1)
        assert not is_basis(pair.strict, pair.strict.subset([0, 1]))
        assert is_basis(pair.strict, pair.strict.subset([0, 2]))

    def test_hidden_set_default(self):
        pair = build_adversary(2)
        assert sorted(pair.hidden_set) == [0, 1, 2, 3]

    def test_custom_hidden_pairs(self):
        pair = build_adversary(2, hidden_pairs=(0, 2))
        assert sorted(pair.hidden_set) == [0, 1, 4, 5]

    def test_bad_hidden_pairs_rejected(self):
        with pytest.raises(ValueError):
            build_adversary(2, hidden_pairs=(0,))

    @pytest.mark.parametrize("t", [1, 2])
    def test_axioms(self, t):
        pair = build_adversary(t)
        assert check_independence_axioms(pair.strict).ok
        assert check_independence_axioms(pair.relaxed).ok

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_paving_small_sets_independent(self, t):
        pair = build_adversary(t)
        for mask in range(1 << (4 * t)):
            if mask.bit_count() <= 2 * t - 1:
                assert pair.strict.indep_mask(mask)
                assert pair.relaxed.indep_mask(mask)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_disagreement_is_exactly_hidden_pair(self, t):
        pair = build_adversary(t)
        hidden = pair.hidden_set.mask
        other = pair.ground.full_mask ^ hidden
        assert sorted(disagreement_masks(pair)) == sorted([hidden, other])

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_solver_answers_differ(self, t):
        pair = build_adversary(t)
        assert solve_parity_bases(pair.parity_instance(pair.strict)) is None
        relaxed_answer = solve_parity_bases(pair.parity_instance(pair.relaxed))
        assert relaxed_answer is not None
        masks = {c.mask for c in relaxed_answer.classes}
        assert masks == {pair.hidden_set.mask, pair.ground.full_mask ^ pair.hidden_set.mask}

    def test_modular_solver_agrees(self):
        pair = build_adversary(2)
        inst = ModularInstance(pair.relaxed, pair.pairing)
        assert solve_modular_bases(inst) is not None


class TestCounting:
    def test_values(self):
        assert count_parity_hiding_sets(1) == 2
        assert count_parity_hiding_sets(2) == 6
        assert count_parity_hiding_sets(3) == 20

    def test_range(self):
        with pytest.raises(ValueError):
            count_parity_hiding_sets(0)


class TestExperiment:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_solver_must_distinguish_before_yes(self, t):
        pair = build_adversary(t)
        report = run_indistinguishability(
            pair, lambda m: solve_parity_bases(ParityInstance(m, pair.pairing))
        )
        assert report.solver_answer is not None  # relaxed side is feasible
        assert report.distinguishing_query_index is not None
        assert report.agreement_verified
        assert report.total_queries > report.distinguishing_query_index

    def test_avoider_never_distinguishes(self):
        pair = build_adversary(2)

        def avoider(matroid):
            n = matroid.ground.size
            for mask in range(1 << n):
                if mask.bit_count() != 2 * pair.t:
                    matroid.indep_mask(mask)
            return None

        report = run_indistinguishability(pair, avoider)
        assert report.distinguishing_query_index is None
        assert report.agreement_verified

    def test_full_sweep_distinguishes_only_twice(self):
        pair = build_adversary(1)

        def sweeper(matroid):
            for mask in range(1 << matroid.ground.size):
                matroid.indep_mask(mask)

        report = run_indistinguishability(pair, sweeper)
        assert report.total_queries == 16
        # First disagreement is the hidden set itself (mask order).
        assert report.distinguishing_query_index == pair.hidden_set.mask

    def test_extra_disagreement_is_not_agreement(self):
        # Tamper the relaxed oracle so it also admits the union of pairs 0
        # and 2 as a basis: the sweep then meets a differing query that is
        # neither the hidden set nor its complement.
        pair = build_adversary(2)
        ground = pair.ground
        kept = [h for h in pair.relaxed.descriptor["hyperplanes"] if h != [0, 1, 4, 5]]
        assert len(kept) == 3
        tampered = AdversaryPair(
            pair.t, pair.pairing, pair.hidden_set, pair.strict,
            relaxed=paving_matroid(HyperplaneFamily.build(ground, 4, kept)),
        )

        def sweeper(matroid):
            for mask in range(1 << matroid.ground.size):
                matroid.indep_mask(mask)

        report = run_indistinguishability(tampered, sweeper)
        assert report.distinguishing_query_index == pair.hidden_set.mask
        assert not report.agreement_verified
        assert run_indistinguishability(pair, sweeper).agreement_verified

    def test_hidden_choice(self):
        pair = build_adversary(1)
        report = run_indistinguishability(pair, lambda m: None, hidden="strict")
        assert report.hidden == "strict"
        with pytest.raises(ValueError):
            run_indistinguishability(pair, lambda m: None, hidden="upside-down")

    def test_report_json(self):
        pair = build_adversary(1)
        report = run_indistinguishability(pair, lambda m: m.indep_mask(0))
        data = report.to_json()
        assert data["t"] == 1 and data["total_queries"] == 1
