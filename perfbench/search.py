"""Search jobs of the ``oracles`` workload: exhaustive solvers, each answer cross-checked.

Few combinators and no large prime: the search loops and union-find
dominate.  A round holds, in this order:

* ``solve_modular_trees`` on the r2 graphs of the chain formulas
  x_i v x_{i+1} with 8 to 14 variables, and of 60 seeded random
  formulas with 5 or 6 variables (YES and NO), each cross-checked with
  ``solve_naesat``;
* ``solve_common_bases`` on 60 graphic pairs: with a planted
  partition into k = 2 (16 elements) or k = 3 (18 elements) common bases,
  or unplanted with k = 2;
* ``solve_perfect_even_factor`` on seeded 8-vertex digraphs and
  ``solve_mod4_two_factor`` on their r3 graphs, each cross-checked with
  the other;
* ``verify_gadget(default_gadget(2))``;
* ``run_indistinguishability`` at t = 2 and 3, hiding either matroid.
"""

from __future__ import annotations

import random

from basepack.adversary import build_adversary, run_indistinguishability
from basepack.constructions import graphic_matroid
from basepack.gadget import default_gadget, verify_gadget
from basepack.graphs import Digraph, MultiGraph
from basepack.instances import CnfFormula, CommonBasesInstance
from basepack.reductions import even_factor_to_mod4_factor, naesat_to_modular_trees
from basepack.solvers import (
    solve_common_bases,
    solve_mod4_two_factor,
    solve_modular_trees,
    solve_naesat,
    solve_parity_bases,
    solve_perfect_even_factor,
    verify_certificate,
)

import gen
from harness import Job

CHAIN_VARS = range(8, 15)
# Seeded formulas and common-bases pairs per round.  Their costs spread
# widely, so it takes this many draws for the median and the 90th
# percentile (which falls among them, below the chain family) not to
# hinge on the seed.
RANDOM_DRAWS = 60


def _verified(tr, problem, instance, cert) -> bool:
    return tr.call("verify_certificate", verify_certificate, problem, instance, cert).ok


def _yes_no(cert) -> str:
    return "NO" if cert is None else "YES"


# -- modular trees ----------------------------------------------------------


def _trees_job(kind, formula):
    instance = naesat_to_modular_trees(formula).instance

    def run(tr, _):
        return tr.call("solve_modular_trees", solve_modular_trees, instance)

    def check(tr, _, cert):
        reference = tr.call("solve_naesat", solve_naesat, formula)
        ok = (cert is None) == (reference is None)
        if cert is not None:
            ok = ok and _verified(tr, "modular-trees", instance, cert)
        return ok, _yes_no(cert)

    return Job(kind, lambda tr: None, run, check)


# -- common bases -----------------------------------------------------------


def _planted_graph(rng, vertex_count, classes):
    """One random spanning tree per class, on the same edge indices."""
    edges = [None] * sum(len(c) for c in classes)
    for cls in classes:
        tree: list = []
        gen.random_tree(rng, range(vertex_count), tree)
        for idx, edge in zip(cls, tree):
            edges[idx] = edge
    return edges


def _common_bases_job(rng, vertex_count, k, planted):
    n = k * (vertex_count - 1)
    if planted:
        order = gen.permutation(rng, n)
        classes = [order[c::k] for c in range(k)]
        graphs = [_planted_graph(rng, vertex_count, classes) for _ in range(2)]
    else:
        graphs = [gen.connected_multigraph(rng, vertex_count, n) for _ in range(2)]

    def prepare(tr):
        m1, m2 = (
            tr.wrap(graphic_matroid(MultiGraph.build(vertex_count, g)), "graphic",
                    tag="solver_oracle_calls")
            for g in graphs
        )
        return CommonBasesInstance(m1, m2, k)

    def run(tr, instance):
        return tr.call("solve_common_bases", solve_common_bases, instance)

    def check(tr, instance, cert):
        ok = cert is not None or not planted
        if cert is not None:
            ok = ok and _verified(tr, "common-bases", instance, cert)
        return ok, _yes_no(cert)

    kind = f"common-bases-k{k}" + ("-planted" if planted else "")
    return Job(kind, prepare, run, check)


# -- even factors and mod-4 2-factors ----------------------------------------


def _factor_jobs(rng, n):
    digraph = Digraph.build(n, gen.digraph(rng, n, 3 * n))
    graph = even_factor_to_mod4_factor(digraph).graph

    def run_even(tr, _):
        return tr.call("solve_perfect_even_factor", solve_perfect_even_factor, digraph)

    def run_mod4(tr, _):
        return tr.call("solve_mod4_two_factor", solve_mod4_two_factor, graph)

    def checker(problem, instance, reference):
        def check(tr, _, cert):
            ok = (cert is None) == (reference() is None)
            if cert is not None:
                ok = ok and _verified(tr, problem, instance, cert)
            return ok, _yes_no(cert)
        return check

    return [
        Job("even-factor", lambda tr: None, run_even,
            checker("even-factor", digraph, lambda: solve_mod4_two_factor(graph))),
        Job("mod4-2factor", lambda tr: None, run_mod4,
            checker("mod4-2factor", graph, lambda: solve_perfect_even_factor(digraph))),
    ]


# -- gadget and adversary ----------------------------------------------------


def _gadget_job():
    pair = default_gadget(2)

    def run(tr, _):
        return tr.call("verify_gadget", verify_gadget, pair)

    def check(tr, _, cert):
        tr.count("feasible_bipartitions", cert.feasible_bipartitions)
        return cert.ok, f"ok={cert.ok} feasible={cert.feasible_bipartitions}"

    return Job("gadget-ell2", lambda tr: None, run, check)


def _adversary_job(rng, t, hidden):
    pair = build_adversary(t, hidden_pairs=sorted(rng.sample(range(2 * t), t)))

    def solver(matroid):
        return solve_parity_bases(pair.parity_instance(matroid))

    def run(tr, _):
        return tr.call("run_indistinguishability", run_indistinguishability, pair, solver, hidden)

    def check(tr, _, report):
        tr.count("total_queries", report.total_queries)
        answer = report.solver_answer
        if hidden == "strict":
            ok = answer is None
        else:
            ok = answer is not None and _verified(
                tr, "parity-bases", pair.parity_instance(pair.relaxed), answer)
        ok = ok and report.agreement_verified
        return ok, f"{_yes_no(answer)} queries={report.total_queries}"

    return Job(f"adversary-t{t}-{hidden}", lambda tr: None, run, check)


def make_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for n in CHAIN_VARS:
        chain = [[(i, True), (i + 1, True)] for i in range(n - 1)]
        jobs.append(_trees_job(f"trees-chain{n}", CnfFormula.normalize(n, chain)))
    for _ in range(RANDOM_DRAWS):
        n, m = rng.choice(((5, 5), (5, 6), (6, 6), (6, 7)))
        sizes = [rng.choice((2, 3)) for _ in range(m)]
        formula = CnfFormula.normalize(n, gen.random_formula(rng, n, sizes))
        jobs.append(_trees_job("trees-random", formula))
    for _ in range(RANDOM_DRAWS // 3):
        jobs.append(_common_bases_job(rng, 9, 2, True))
        jobs.append(_common_bases_job(rng, 7, 3, True))
        jobs.append(_common_bases_job(rng, 9, 2, False))
    for _ in range(2):
        jobs.extend(_factor_jobs(rng, 8))
    jobs.append(_gadget_job())
    for t in (2, 3):
        for hidden in ("strict", "relaxed"):
            jobs.append(_adversary_job(rng, t, hidden))
    return jobs
