"""Indistinguishable oracle pairs and the query-counting experiment.

On 4t elements paired off into 2t pairs, exclude every size-2t union of
pairs from being a basis and you get one matroid; put back a single such
set and its complement and you get another.  The two differ on exactly
those two subsets, the first admits no partition into parity bases while
the second does, and the number of candidate hidden sets grows as a
central binomial coefficient, so any solver must query an exponential
family to tell the matroids apart.  The lab runs a solver against a
logged oracle and replays the log against both matroids afterward: no
trust is placed in the solver's self-reporting.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

from .core import ElementSet, GroundSet, Matroid, Record, ResourceCapExceeded, with_query_log
from .constructions import HyperplaneFamily, PartitionOfGroundSet, paving_matroid
from .instances import ParityInstance

# Largest t built: the family check compares all C(2t, t) parity sets
# pairwise, about 18 s at t = 8 and about 1.2e9 pairs at t = 9.
MAX_T = 8
# Largest t for a solver that queries all 2^(4t) masks: its query log
# holds one entry per mask, 2^20 at t = 5 (the run peaks near 100 MiB)
# and sixteen times that at t = 6.
SWEEP_MAX_T = 5


class AdversaryPair(Record):
    """The hidden matroid pair with its pairing and the distinguished set.

    In ``strict`` no parity set of size 2t is a basis; ``relaxed`` is the
    same, except the hidden set and its complement.
    """

    __slots__ = {
        "t": "int", "pairing": "PartitionOfGroundSet", "hidden_set": "ElementSet",
        "strict": "Matroid", "relaxed": "Matroid",
    }

    @property
    def ground(self) -> GroundSet:
        return self.pairing.universe

    def parity_instance(self, matroid: Matroid) -> ParityInstance:
        return ParityInstance(matroid, self.pairing)


def _parity_sets(pairing: PartitionOfGroundSet, count: int) -> list[int]:
    """Masks of all unions of exactly ``count`` pairs."""
    masks = pairing.block_masks()
    out = []
    for combo in itertools.combinations(range(len(masks)), count):
        m = 0
        for i in combo:
            m |= masks[i]
        out.append(m)
    return out


def build_adversary(t: int, hidden_pairs: Optional[Sequence[int]] = None) -> AdversaryPair:
    """Build the matroid pair for parameter t on 4t elements.

    The elements pair off as {2i, 2i+1}; ``hidden_pairs`` names the pair
    indices forming the distinguished parity set (default: the first t
    pairs).  Both matroids are paving with rank 2t: distinct
    parity sets of that size share at most 2t - 2 elements, so the
    exclusion family is always admissible.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if t > MAX_T:
        raise ResourceCapExceeded(f"adversary t = {t} exceeds cap {MAX_T}")
    ground = GroundSet(4 * t)
    pairing = PartitionOfGroundSet.build(ground, [[2 * i, 2 * i + 1] for i in range(2 * t)])
    if hidden_pairs is None:
        hidden_pairs = tuple(range(t))
    if len(set(hidden_pairs)) != t:
        raise ValueError("hidden set must consist of exactly t pairs")
    hidden_mask = 0
    for i in hidden_pairs:
        hidden_mask |= pairing.blocks[i].mask
    hidden = ElementSet.from_mask(ground, hidden_mask)

    exclusions = _parity_sets(pairing, t)
    strict_family = HyperplaneFamily.build(
        ground, 2 * t, [list(ElementSet.from_mask(ground, m)) for m in exclusions]
    )
    complement_mask = ground.full_mask ^ hidden_mask
    kept = [m for m in exclusions if m not in (hidden_mask, complement_mask)]
    relaxed_family = HyperplaneFamily.build(
        ground, 2 * t, [list(ElementSet.from_mask(ground, m)) for m in kept]
    )
    return AdversaryPair(
        t=t,
        pairing=pairing,
        hidden_set=hidden,
        strict=paving_matroid(strict_family),
        relaxed=paving_matroid(relaxed_family),
    )


def count_parity_hiding_sets(t: int) -> int:
    """Number of candidate hidden sets: ways to pick t of the 2t pairs."""
    if t < 1 or t > 16:
        raise ValueError("t out of supported range")
    return math.comb(2 * t, t)


class ExperimentReport(Record):
    """Replay record of one solver run against a hidden oracle."""

    __slots__ = {
        "t": "int", "hidden": "str", "total_queries": "int",
        "distinguishing_query_index": "Optional[int]", "agreement_verified": "bool",
        "solver_answer": "Optional[object]",
    }
    _defaults = {"solver_answer": None}

    def to_json(self) -> dict:
        return {
            "schema": "adversary-report/1",
            "t": self.t,
            "hidden": self.hidden,
            "total_queries": self.total_queries,
            "distinguishing_query_index": self.distinguishing_query_index,
            "agreement_verified": self.agreement_verified,
        }


def run_indistinguishability(
    pair: AdversaryPair,
    solver: Callable[[Matroid], object],
    hidden: str = "relaxed",
) -> ExperimentReport:
    """Run a solver against a logged copy of one hidden matroid, then
    replay its distinct queries against both matroids.

    The report records the index of the first query where the answers
    differ, and ``agreement_verified`` confirms that every query where
    they differ is the hidden set or its complement: nothing else the
    solver asked could tell the matroids apart.
    """
    if hidden not in ("strict", "relaxed"):
        raise ValueError("hidden must be 'strict' or 'relaxed'")
    target = pair.relaxed if hidden == "relaxed" else pair.strict
    wrapped, log = with_query_log(target)
    answer = solver(wrapped)

    hidden_mask = pair.hidden_set.mask
    expected = (hidden_mask, pair.ground.full_mask ^ hidden_mask)
    distinguishing = None
    agreement = True
    for idx, mask in enumerate(log.masks()):
        if pair.strict.indep_mask(mask) != pair.relaxed.indep_mask(mask):
            if distinguishing is None:
                distinguishing = idx
            agreement = agreement and mask in expected
    return ExperimentReport(
        t=pair.t,
        hidden=hidden,
        total_queries=log.count,
        distinguishing_query_index=distinguishing,
        agreement_verified=agreement,
        solver_answer=answer,
    )


def disagreement_masks(pair: AdversaryPair) -> list[int]:
    """Full-sweep diff of the two oracles (2^(4t) subsets)."""
    n = pair.ground.size
    out = []
    for mask in range(1 << n):
        if pair.strict.indep_mask(mask) != pair.relaxed.indep_mask(mask):
            out.append(mask)
    return out
