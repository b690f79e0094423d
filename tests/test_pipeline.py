"""End-to-end certificate transport along the full reduction chain.

A satisfying assignment is lifted through the SAT compilation, the
gadget embedding, and the partition normal form; each hop verifies.
The final instance has one partition matroid, eight hundred elements,
and still carries the original assignment's structure.
"""

import random

from basepack.certificates import AssignmentCertificate, ModularCertificate
from basepack.instances import CnfFormula
from basepack.reductions import (
    lift_assignment_to_trees,
    lift_modular_to_common,
    lift_to_partition_form,
    modular_to_common_bases,
    naesat_to_modular_trees,
    pull_assignment_from_trees,
    pull_common_to_modular,
    pull_from_partition_form,
    to_partition_matroid_form,
)
from basepack.solvers import verify_certificate

from helpers import reference_rank

FORMULA = CnfFormula.normalize(
    4,
    [
        [(0, True), (1, True), (2, True)],
        [(0, True), (2, False)],
        [(0, False), (1, True), (3, False)],
    ],
)
WITNESS = AssignmentCertificate((True, False, True, False))


def test_certificate_survives_the_whole_chain():
    sat = naesat_to_modular_trees(FORMULA)
    trees_cert = lift_assignment_to_trees(sat, WITNESS)

    modular_instance = sat.instance.to_modular_instance()
    modular_cert = ModularCertificate(trees_cert.first_modules, trees_cert.classes)
    assert verify_certificate("modular-bases", modular_instance, modular_cert).ok

    embed = modular_to_common_bases(modular_instance)
    assert embed.instance.ground.size == 400
    common_cert = lift_modular_to_common(embed, modular_cert)

    normal = to_partition_matroid_form(embed.instance)
    assert normal.instance.ground.size == 800
    assert normal.instance.m2.kind == "partition"
    final_cert = lift_to_partition_form(normal, common_cert)
    assert verify_certificate("common-bases", normal.instance, final_cert).ok

    # And all the way back down.
    back_common = pull_from_partition_form(normal, final_cert)
    back_modular = pull_common_to_modular(embed, back_common)
    back_trees = ModularCertificate(back_modular.first_modules, back_modular.classes)
    assignment = pull_assignment_from_trees(sat, back_trees)
    assert assignment.values == WITNESS.values


def test_r5_rank_matches_greedy_reference():
    sat = naesat_to_modular_trees(FORMULA)
    embed = modular_to_common_bases(sat.instance.to_modular_instance())
    normal = to_partition_matroid_form(embed.instance)
    rng = random.Random(5)
    for m in (normal.instance.m1, normal.instance.m2):
        assert m.full_rank == 400
        for mask in [m.ground.full_mask] + [rng.getrandbits(800) for _ in range(2)]:
            assert m.rank_mask(mask) == reference_rank(m, mask)
