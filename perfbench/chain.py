"""Chain jobs of the ``pipeline`` workload: a NAE-SAT formula down the reduction chain and back.

Each job compiles a not-all-equal satisfiable formula to modular
spanning trees (r2), solves that, embeds it into common bases (r1) and
partition normal form (r5), takes the explicit rank of both r5
matroids, lifts the solution through r1 and r5 and pulls it back to an
assignment.  The r5 rank dominates: it queries a dual over relabel,
direct-sum and truncation chains of memoized gadget parts.

A round holds one formula per shape below (variables, clause sizes).
The r2 graph has 4 * literals + 2 * variables edges, 12 to 22 here.
Shapes with three clauses (28 to 42 edges, 4 to 13 s a job) are left
out: a few of them would take most of a round.
"""

from __future__ import annotations

import random

from basepack.certificates import ModularCertificate
from basepack.constructions import graphic_matroid
from basepack.core import rank
from basepack.instances import CnfFormula, ModularInstance
from basepack.reductions import (
    lift_modular_to_common,
    lift_to_partition_form,
    modular_to_common_bases,
    naesat_to_modular_trees,
    pull_assignment_from_trees,
    pull_common_to_modular,
    pull_from_partition_form,
    to_partition_matroid_form,
)
from basepack.solvers import solve_modular_trees

import checks
import gen
from harness import Job

SHAPES = ((2, (2,)), (3, (2,)), (3, (3,)), (2, (2, 2)), (3, (2, 2)))


def _run(tr, clauses_and_n):
    clauses, n = clauses_and_n
    formula = CnfFormula.normalize(n, clauses)
    sat = tr.call("naesat_to_modular_trees", naesat_to_modular_trees, formula)
    trees = tr.call("solve_modular_trees", solve_modular_trees, sat.instance)
    if trees is None:
        return None
    graph = sat.instance.graph
    leaf = tr.wrap(graphic_matroid(graph), "graphic", tag="leaf_calls")
    modular = ModularInstance(leaf, sat.instance.modules)
    embed = tr.call("modular_to_common_bases", modular_to_common_bases, modular)
    normal = tr.call("to_partition_matroid_form", to_partition_matroid_form, embed.instance)
    tr.call("rank", rank, normal.instance.m1)
    tr.call("rank", rank, normal.instance.m2)
    common = tr.call("lift", lift_modular_to_common, embed,
                     ModularCertificate(trees.first_modules, trees.classes))
    final = tr.call("lift", lift_to_partition_form, normal, common)
    back = tr.call("pull", pull_from_partition_form, normal, final)
    back = tr.call("pull", pull_common_to_modular, embed, back)
    assignment = tr.call("pull", pull_assignment_from_trees, sat,
                         ModularCertificate(back.first_modules, back.classes))
    return graph.edge_count, embed.instance.ground.size, normal.instance.ground.size, assignment


def _check(tr, inputs, result):
    clauses, _ = inputs
    if result is None:
        return False, "NO"
    edges, r1_size, r5_size, assignment = result
    tr.count("r5_elements", r5_size)
    values = "".join("1" if v else "0" for v in assignment.values)
    answer = f"YES edges={edges} r1={r1_size} r5={r5_size} x={values}"
    ok = (
        checks.nae_satisfied(clauses, assignment.values)
        and r1_size == 10 * edges
        and r5_size == 2 * r1_size
    )
    return ok, answer


def make_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n, sizes in SHAPES:
        data = (gen.random_formula(rng, n, sizes, satisfiable=True), n)
        jobs.append(Job(f"e{4 * sum(sizes) + 2 * n}", lambda tr, d=data: d, _run, _check))
    return jobs
