"""Seeded input generators.

Everything here is plain data (edge lists, clause lists, matrices) drawn
from a ``random.Random``; the workloads turn it into basepack objects.
The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random

import checks


def nae_satisfiable(num_vars: int, clauses) -> bool:
    """Brute force: some assignment leaves every clause with a true and a false literal."""
    return any(
        checks.nae_satisfied(clauses, [bool(bits >> v & 1) for v in range(num_vars)])
        for bits in range(1 << num_vars)
    )


def random_formula(rng: random.Random, num_vars: int, clause_sizes, satisfiable=None):
    """Clauses over distinct variables with random polarities.

    With ``satisfiable`` set, draws until the formula's not-all-equal
    satisfiability matches it.
    """
    while True:
        clauses = [
            [(v, rng.random() < 0.5) for v in sorted(rng.sample(range(num_vars), size))]
            for size in clause_sizes
        ]
        if satisfiable is None or nae_satisfiable(num_vars, clauses) == satisfiable:
            return clauses


def to_dimacs(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        lits = [(v + 1) if positive else -(v + 1) for v, positive in clause]
        lines.append(" ".join(str(x) for x in lits) + " 0")
    return "\n".join(lines) + "\n"


def random_tree(rng: random.Random, vertices, edges_out: list) -> None:
    """Append the edges of a uniformly shuffled spanning tree on ``vertices``."""
    order = list(vertices)
    rng.shuffle(order)
    for i in range(1, len(order)):
        edges_out.append((order[rng.randrange(i)], order[i]))


def connected_multigraph(rng: random.Random, vertex_count: int, edge_count: int):
    """A spanning tree plus random extra edges (parallels allowed, no loops)."""
    edges: list = []
    random_tree(rng, range(vertex_count), edges)
    while len(edges) < edge_count:
        u, v = rng.sample(range(vertex_count), 2)
        edges.append((u, v))
    rng.shuffle(edges)
    return edges


def union_of_trees(rng: random.Random, vertex_count: int, k: int):
    """k random spanning trees on the same vertices, as one shuffled edge list."""
    edges: list = []
    for _ in range(k):
        random_tree(rng, range(vertex_count), edges)
    rng.shuffle(edges)
    return edges


def bipartite(rng: random.Random, n_left: int, n_right: int, degree: int):
    """Each left vertex joins ``degree`` distinct random right vertices."""
    return sorted(
        (s, t) for s in range(n_left) for t in rng.sample(range(n_right), degree)
    )


def planted_matchings(rng: random.Random, n_right: int, k: int, extra: int):
    """Left side of k * n_right vertices saturated by k planted perfect matchings.

    Left vertex c * n_right + i is matched to a permuted right vertex in
    class c, and every left vertex gets ``extra`` more random neighbours.
    """
    edges = set()
    for c in range(k):
        perm = list(range(n_right))
        rng.shuffle(perm)
        for i in range(n_right):
            s = c * n_right + i
            edges.add((s, perm[i]))
            for t in rng.sample(range(n_right), extra):
                edges.add((s, t))
    return sorted(edges)


def matrix(rng: random.Random, rows: int, cols: int, q: int):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def blocks(rng: random.Random, n: int, size: int):
    """A random partition of range(n) into blocks of ``size`` (the last may be short)."""
    order = list(range(n))
    rng.shuffle(order)
    return [sorted(order[i:i + size]) for i in range(0, n, size)]


def paving_family(rng: random.Random, n: int, r: int, count: int):
    """Up to ``count`` random r-sets with pairwise intersections of at most r - 2."""
    family: list = []
    for _ in range(50 * count):
        if len(family) == count:
            break
        cand = set(rng.sample(range(n), r))
        if all(len(cand & h) <= r - 2 for h in family):
            family.append(cand)
    return [sorted(h) for h in family]


def permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def digraph(rng: random.Random, n: int, arc_count: int):
    """A loopless digraph whose every vertex has an in- and an out-arc."""
    arcs = set()
    perm = permutation(rng, n)
    for i in range(n):
        arcs.add((perm[i], perm[(i + 1) % n]))
    pairs = list(itertools.permutations(range(n), 2))
    while len(arcs) < arc_count:
        arcs.add(rng.choice(pairs))
    return sorted(arcs)
