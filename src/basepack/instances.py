"""Problem instances: matroids paired with module structure, CNF formulas.

The packing problems all ask for a partition of a ground set into two
bases subject to side structure: modules that must stay whole, pairs,
or nothing at all (plain common bases of two matroids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import GroundSet, Matroid, UniverseMismatch
from .constructions import PartitionOfGroundSet, graphic_matroid
from .graphs import MultiGraph


@dataclass(frozen=True)
class ModularInstance:
    """A matroid plus a module partition; the ground set has size twice the rank.

    Asks: partition the ground set into two bases, each a union of modules.
    """

    matroid: Matroid
    modules: PartitionOfGroundSet

    def __post_init__(self) -> None:
        if self.modules.universe.size != self.matroid.ground.size:
            raise UniverseMismatch("module partition is over a different ground set")
        n = self.matroid.ground.size
        if n != 2 * self.matroid.full_rank:
            raise ValueError(
                f"ground set size {n} must be twice the rank {self.matroid.full_rank}"
            )

    @property
    def ground(self) -> GroundSet:
        return self.matroid.ground


@dataclass(frozen=True)
class CommonBasesInstance:
    """Two matroids on a shared ground set; partition it into k common bases."""

    m1: Matroid
    m2: Matroid
    k: int = 2

    def __post_init__(self) -> None:
        if self.m1.ground.size != self.m2.ground.size:
            raise UniverseMismatch("matroids must share a ground set")
        if self.k < 1:
            raise ValueError("k must be positive")

    @property
    def ground(self) -> GroundSet:
        return self.m1.ground


@dataclass(frozen=True)
class ParityInstance:
    """A matroid with its ground set partitioned into pairs.

    Asks: partition the ground set into two bases, each a union of
    pairs.  Unlike :class:`ModularInstance` the size-vs-rank balance is
    not required up front; unbalanced instances are simply infeasible.
    """

    matroid: Matroid
    pairs: PartitionOfGroundSet

    def __post_init__(self) -> None:
        if self.pairs.universe.size != self.matroid.ground.size:
            raise UniverseMismatch("pair partition is over a different ground set")
        for block in self.pairs.blocks:
            if len(block) != 2:
                raise ValueError("every module of a parity instance must be a pair")

    @property
    def modules(self) -> PartitionOfGroundSet:
        """The pairs, as the modules of the same modular-bases question."""
        return self.pairs

    @property
    def ground(self) -> GroundSet:
        return self.matroid.ground


@dataclass(frozen=True)
class ModularTreesInstance:
    """A multigraph with its edge set partitioned into modules.

    Asks: partition the edges into two spanning trees, each a union of
    modules.  The graphic-matroid view is available on demand; graphs
    that cannot possibly split (wrong edge count, disconnected) are kept
    representable so solvers can return a verdict instead of failing.
    """

    graph: MultiGraph
    modules: PartitionOfGroundSet

    def __post_init__(self) -> None:
        if self.modules.universe.size != self.graph.edge_count:
            raise ValueError("module partition must cover the edge set")

    @property
    def ground(self) -> GroundSet:
        return self.graph.ground_set()

    def shape_feasible(self) -> bool:
        return (
            self.graph.is_connected()
            and self.graph.edge_count == 2 * (self.graph.vertex_count - 1)
        )

    def to_modular_instance(self) -> ModularInstance:
        return ModularInstance(graphic_matroid(self.graph), self.modules)


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula normalized for not-all-equal satisfaction.

    Clauses are tuples of (variable index, polarity) sorted by variable;
    a clause never repeats a variable.  Normalization drops clauses
    containing a variable both ways (no assignment can make their
    literals all equal, and they are always satisfied) and rejects
    clauses left with fewer than two literals: a unit clause's literal
    set is all-equal under every assignment, and the downstream graph
    construction needs honest cycles.
    """

    num_vars: int
    clauses: tuple[tuple[tuple[int, bool], ...], ...]
    dropped_tautologies: int = 0

    def __post_init__(self) -> None:
        for clause in self.clauses:
            vars_seen = [v for v, _ in clause]
            if len(set(vars_seen)) != len(vars_seen):
                raise ValueError("clause repeats a variable")
            if len(clause) < 2:
                raise ValueError("unit or empty clause not representable")
            for v, _ in clause:
                if not 0 <= v < self.num_vars:
                    raise ValueError(f"variable index {v} out of range")

    @staticmethod
    def normalize(num_vars: int, raw_clauses: Iterable[Iterable[tuple[int, bool]]]) -> "CnfFormula":
        clauses = []
        dropped = 0
        for raw in raw_clauses:
            lits = sorted(set((int(v), bool(s)) for v, s in raw))
            by_var: dict[int, set[bool]] = {}
            for v, s in lits:
                by_var.setdefault(v, set()).add(s)
            if any(len(s) == 2 for s in by_var.values()):
                dropped += 1
                continue
            if len(lits) == 0:
                raise ValueError("empty clause can never be not-all-equal satisfied")
            if len(lits) == 1:
                raise ValueError("unit clause can never be not-all-equal satisfied")
            clauses.append(tuple(lits))
        return CnfFormula(num_vars, tuple(clauses), dropped)

    def occurrences(self, var: int, positive: bool) -> list[int]:
        """Clause indices containing the literal, in clause order."""
        out = []
        for i, clause in enumerate(self.clauses):
            if (var, positive) in clause:
                out.append(i)
        return out

    def positive_count(self, var: int) -> int:
        return len(self.occurrences(var, True))

    def negative_count(self, var: int) -> int:
        return len(self.occurrences(var, False))

    def literal_total(self) -> int:
        return sum(len(c) for c in self.clauses)

    def nae_satisfied(self, assignment: Sequence[bool]) -> bool:
        """No clause has all its literals equal under ``assignment``."""
        for clause in self.clauses:
            values = {assignment[v] == positive for v, positive in clause}
            if len(values) == 1:
                return False
        return True

    def to_dimacs(self) -> str:
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        for clause in self.clauses:
            lits = [(v + 1) if positive else -(v + 1) for v, positive in clause]
            lines.append(" ".join(str(x) for x in lits) + " 0")
        return "\n".join(lines) + "\n"
