"""The certified gadget pair: search, structure, and exhaustive sweeps."""

import itertools
import json

import pytest

from basepack.core import (
    Gf2Basis,
    check_basis_axioms,
    check_independence_axioms,
    enumerate_bases,
    rank,
    ResourceCapExceeded,
)
from basepack.gadget import (
    DEFAULT_LABELING,
    BlockLabeling,
    build_gadget,
    default_gadget,
    local_block_forcing,
    search_block_labeling,
    verify_gadget,
)

from helpers import reference_gadget_sweep


class TestSearch:
    def test_search_reproduces_default_labeling(self):
        assert search_block_labeling() == DEFAULT_LABELING

    def test_default_has_local_forcing(self):
        assert local_block_forcing(DEFAULT_LABELING)

    def test_plain_alphabetical_labeling_fails(self):
        plain = BlockLabeling(("a", "b", "c"), ("d", "e", "f"), ("a", "b", "c"), ("d", "g", "h"))
        cert = verify_gadget(build_gadget(plain, 2))
        assert not (cert.ok and cert.structure_ok and local_block_forcing(plain))

    def test_labeling_validation(self):
        with pytest.raises(ValueError):
            BlockLabeling(("a", "b", "d"), ("c", "e", "f"), ("a", "b", "c"), ("d", "g", "h"))


class TestBuild:
    def test_ground_size_and_labels(self):
        pair = default_gadget(1)
        assert pair.ground.size == 9
        assert pair.ground.labels == tuple(f"{t}1" for t in "abcdefghi")

    def test_two_block_labels(self):
        pair = default_gadget(2)
        assert pair.ground.size == 18
        assert pair.ground.label(9) == "a2"

    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_ranks_are_five_per_block(self, ell):
        pair = default_gadget(ell)
        assert rank(pair.first_matroid) == 5 * ell
        assert rank(pair.second_matroid) == 5 * ell

    def test_parallel_structure(self):
        pair = default_gadget(2)
        # block j's i edge is parallel to h in the first graph ...
        ends1 = pair.first_graph.endpoints()
        for j in range(2):
            assert set(ends1[pair.element(j, "i")]) == set(ends1[pair.element(j, "h")])
        # ... and to the next block's f edge in the second (cyclically).
        ends2 = pair.second_graph.endpoints()
        assert set(ends2[pair.element(0, "i")]) == set(ends2[pair.element(1, "f")])
        assert set(ends2[pair.element(1, "i")]) == set(ends2[pair.element(0, "f")])

    def test_both_matroids_pass_axioms_at_one_block(self):
        pair = default_gadget(1)
        assert check_independence_axioms(pair.first_matroid).ok
        assert check_independence_axioms(pair.second_matroid).ok

    def test_first_matroid_bases_satisfy_basis_axioms(self):
        pair = default_gadget(1)
        assert check_basis_axioms(enumerate_bases(pair.first_matroid)).ok


class TestVerify:
    def test_one_block_certificate(self):
        cert = verify_gadget(default_gadget(1))
        assert cert.ok and cert.ok_a and cert.ok_b
        assert sorted(cert.witness_large.labels()) == ["d1", "e1", "f1", "g1", "h1"]
        assert sorted(cert.witness_small.labels()) == ["a1", "b1", "c1", "i1"]
        assert cert.structure_ok

    def test_two_block_certificate(self):
        cert = verify_gadget(default_gadget(2))
        assert cert.ok
        assert len(cert.witness_large) == 10 and len(cert.witness_small) == 8
        assert cert.structure_ok
        assert cert.counterexample is None

    def test_witness_is_common_independent(self):
        pair = default_gadget(2)
        cert = verify_gadget(pair)
        for side in (cert.witness_large, cert.witness_small):
            assert pair.first_matroid.is_independent(side)
            assert pair.second_matroid.is_independent(side)
        assert cert.witness_large.mask | cert.witness_small.mask == pair.ground.full_mask

    @pytest.mark.parametrize("ell", [3, 4])
    def test_certificate_past_two_blocks(self, ell):
        cert = verify_gadget(default_gadget(ell))
        assert cert.ok and cert.structure_ok
        assert cert.feasible_bipartitions == 4**ell

    def test_ell_cap(self):
        with pytest.raises(ResourceCapExceeded):
            verify_gadget(default_gadget(6))

    def test_four_blocks_take_few_forest_tests(self, monkeypatch):
        # One forward pass of forced placement after each placement makes
        # 10,287 state tests here; each is one forest test in both graphs.
        calls = 0
        fits = Gf2Basis.fits

        def counted(state, block):
            nonlocal calls
            calls += 1
            return fits(state, block)

        monkeypatch.setattr(Gf2Basis, "fits", counted)
        assert verify_gadget(default_gadget(4)).feasible_bipartitions == 4**4
        assert calls <= 10_287

    def test_certificate_json(self):
        cert = verify_gadget(default_gadget(1))
        data = cert.to_json()
        text = json.dumps(data)
        assert "condition_a" in text and data["ok"] is True


def _is_common_split(pair, large, small) -> bool:
    """Two disjoint classes covering the ground set, each independent in both matroids."""
    if large.mask & small.mask or large.mask | small.mask != pair.ground.full_mask:
        return False
    return all(
        m.is_independent(side)
        for m in (pair.first_matroid, pair.second_matroid)
        for side in (large, small)
    )


def _agrees_with_reference(pair) -> None:
    cert = verify_gadget(pair)
    ref = reference_gadget_sweep(pair)
    assert cert.ok_a == (ref["witness"] is not None)
    assert cert.ok_b == (ref["violation"] is None)
    assert cert.feasible_bipartitions == ref["feasible"]
    assert cert.efgh_always_together == ref["efgh_ok"]
    assert cert.i_always_opposite == ref["i_ok"]
    assert cert.blocks_always_split_53 == ref["split53_ok"]
    ell = pair.ell
    if cert.ok_a:
        assert (len(cert.witness_large), len(cert.witness_small)) == (5 * ell, 4 * ell)
        assert _is_common_split(pair, cert.witness_large, cert.witness_small)
    if cert.counterexample is not None:
        s1, s2 = cert.counterexample
        assert {len(s1), len(s2)} != {5 * ell, 4 * ell}
        assert _is_common_split(pair, s1, s2)


ALL_LABELINGS = [
    BlockLabeling(fp, fc, sp, sc)
    for fp in itertools.permutations("abc")
    for fc in itertools.permutations("def")
    for sp in itertools.permutations("abc")
    for sc in itertools.permutations("dgh")
]


class TestReferenceSweep:
    """verify_gadget against the plain mask sweep over every bipartition."""

    def test_every_labeling_at_one_block(self):
        assert len(ALL_LABELINGS) == 1296
        for labeling in ALL_LABELINGS:
            _agrees_with_reference(build_gadget(labeling, 1))

    @pytest.mark.parametrize("labeling", [
        DEFAULT_LABELING,
        BlockLabeling(("a", "b", "c"), ("d", "e", "f"), ("a", "b", "c"), ("d", "g", "h")),
    ], ids=["default", "alphabetical"])
    def test_two_blocks(self, labeling):
        _agrees_with_reference(build_gadget(labeling, 2))


class TestLabelingJson:
    def test_round_trip(self):
        data = DEFAULT_LABELING.to_json()
        assert BlockLabeling.from_json(data) == DEFAULT_LABELING

    def test_dot_emission(self):
        pair = default_gadget(1)
        dot = pair.first_graph.to_dot("first")
        assert "a1" in dot and dot.startswith("graph first")
