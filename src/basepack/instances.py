"""Problem instances: matroids paired with module structure, CNF formulas.

The packing problems all ask for a partition of a ground set into two
bases subject to side structure: modules that must stay whole, pairs,
or nothing at all (plain common bases of two matroids).  Each class but
:class:`CnfFormula` names its JSON ``SCHEMA`` and reads and writes its
body; :func:`basepack.formats.read_payload` checks the tag.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .core import GroundSet, Matroid, Record, UniverseMismatch, is_string_list
from .constructions import PartitionOfGroundSet, graphic_matroid, matroid_from_descriptor
from .graphs import MultiGraph


def _labels_json(ground: GroundSet) -> Optional[list[str]]:
    return list(ground.labels) if ground.labels is not None else None


def _matroid_json(data: dict, key: str) -> Matroid:
    """The matroid of descriptor ``data[key]``, over the payload's labels if it has them."""
    matroid, labels = matroid_from_descriptor(data[key]), data.get("labels")
    if labels is None:
        return matroid
    if not is_string_list(labels):
        raise ValueError("labels must be a list of strings")
    return matroid.with_labels(labels)


class ModularInstance(Record):
    """A matroid plus a module partition; the ground set has size twice the rank.

    Asks: partition the ground set into two bases, each a union of modules.
    """

    SCHEMA = "modular-instance/1"

    __slots__ = {"matroid": "Matroid", "modules": "PartitionOfGroundSet"}

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

    def to_json(self) -> dict:
        return {"matroid": self.matroid.descriptor, "modules": self.modules.to_json(),
                "labels": _labels_json(self.ground)}

    @staticmethod
    def from_json(data: dict) -> "ModularInstance":
        matroid = _matroid_json(data, "matroid")
        return ModularInstance(matroid, PartitionOfGroundSet.build(matroid.ground, data["modules"]))


class CommonBasesInstance(Record):
    """Two matroids on a shared ground set; partition it into k common bases."""

    SCHEMA = "common-bases-instance/1"

    __slots__ = {"m1": "Matroid", "m2": "Matroid", "k": "int"}
    _defaults = {"k": 2}

    def __post_init__(self) -> None:
        if self.m1.ground.size != self.m2.ground.size:
            raise UniverseMismatch("matroids must share a ground set")
        if self.k < 1:
            raise ValueError("k must be positive")

    @property
    def ground(self) -> GroundSet:
        return self.m1.ground

    def to_json(self) -> dict:
        return {"m1": self.m1.descriptor, "m2": self.m2.descriptor, "k": self.k,
                "labels": _labels_json(self.ground)}

    @staticmethod
    def from_json(data: dict) -> "CommonBasesInstance":
        m1, m2 = _matroid_json(data, "m1"), _matroid_json(data, "m2")
        return CommonBasesInstance(m1, m2, data.get("k", 2))


class ParityInstance(Record):
    """A matroid with its ground set partitioned into pairs.

    Asks: partition the ground set into two bases, each a union of
    pairs.  Unlike :class:`ModularInstance` the size-vs-rank balance is
    not required up front; unbalanced instances are simply infeasible.
    """

    SCHEMA = "parity-instance/1"

    __slots__ = {"matroid": "Matroid", "pairs": "PartitionOfGroundSet"}

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

    def to_json(self) -> dict:
        return {"matroid": self.matroid.descriptor, "pairs": self.pairs.to_json(),
                "labels": _labels_json(self.ground)}

    @staticmethod
    def from_json(data: dict) -> "ParityInstance":
        matroid = _matroid_json(data, "matroid")
        return ParityInstance(matroid, PartitionOfGroundSet.build(matroid.ground, data["pairs"]))


class ModularTreesInstance(Record):
    """A multigraph with its edge set partitioned into modules.

    Asks: partition the edges into two spanning trees, each a union of
    modules.  The graphic-matroid view is available on demand; graphs
    that cannot possibly split (wrong edge count, disconnected) are kept
    representable so solvers can return a verdict instead of failing.
    """

    SCHEMA = "modular-trees-instance/1"

    __slots__ = {"graph": "MultiGraph", "modules": "PartitionOfGroundSet"}

    def __post_init__(self) -> None:
        if self.modules.universe.size != self.graph.edge_count:
            raise ValueError("module partition must cover the edge set")

    @property
    def ground(self) -> GroundSet:
        return self.graph.ground_set()

    def to_json(self) -> dict:
        return {"graph": self.graph.to_json(), "modules": self.modules.to_json()}

    @staticmethod
    def from_json(data: dict) -> "ModularTreesInstance":
        graph = MultiGraph.from_json(data["graph"])
        modules = PartitionOfGroundSet.build(graph.ground_set(), data["modules"])
        return ModularTreesInstance(graph, modules)

    def shape_feasible(self) -> bool:
        return (
            self.graph.is_connected()
            and self.graph.edge_count == 2 * (self.graph.vertex_count - 1)
        )

    def to_modular_instance(self) -> ModularInstance:
        return ModularInstance(graphic_matroid(self.graph), self.modules)


class CnfFormula(Record):
    """A CNF formula normalized for not-all-equal satisfaction.

    Clauses are tuples of (variable index, polarity) sorted by variable;
    a clause never repeats a variable.  Normalization drops clauses
    containing a variable both ways (no assignment can make their
    literals all equal, and they are always satisfied) and rejects
    clauses left with fewer than two literals: a unit clause's literal
    set is all-equal under every assignment, and the downstream graph
    construction needs honest cycles.
    """

    __slots__ = {
        "num_vars": "int", "clauses": "tuple[tuple[tuple[int, bool], ...], ...]",
        "dropped_tautologies": "int",
    }
    _defaults = {"dropped_tautologies": 0}

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("variable count must be non-negative")
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

    def literal_total(self) -> int:
        return sum(len(c) for c in self.clauses)

    def nae_satisfied(self, assignment: Sequence[bool]) -> bool:
        """No clause has all its literals equal under ``assignment``."""
        for clause in self.clauses:
            values = {assignment[v] == positive for v, positive in clause}
            if len(values) == 1:
                return False
        return True
