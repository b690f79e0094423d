"""First-class solution certificates.

Solvers never answer with a bare boolean: a YES comes with a certificate
that a polynomial-time verifier can check against the instance, and the
round-trip tests lean on that.  All certificates serialize to JSON with
element labels alongside indices.  Reading one back checks the shape and
types of its payload and raises ValueError on anything else, so a
verifier only ever sees well-typed certificates.
"""

from __future__ import annotations

from typing import Sequence

from .core import ElementSet, GroundSet, Record


def _class_json(subset: ElementSet) -> dict:
    return {"indices": sorted(subset), "labels": list(subset.labels())}


def _ints(value, what: str) -> list[int]:
    """``value`` if it is a JSON list of integers (booleans excluded)."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ValueError(f"{what} must be a list of integers")
    return value


def _classes(data: dict, ground: GroundSet) -> tuple[ElementSet, ...]:
    classes = data["classes"]
    if not isinstance(classes, list) or not all(isinstance(c, dict) for c in classes):
        raise ValueError("classes must be a list of objects")
    return tuple(ElementSet(ground, _ints(c["indices"], "class indices")) for c in classes)


def _pairs(value, what: str) -> frozenset[tuple[int, int]]:
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p) for p in value
    ):
        raise ValueError(f"{what} must be a list of integer pairs")
    return frozenset((a, b) for a, b in value)


class PartitionCertificate(Record):
    """A partition of a ground set into classes (common bases, usually two)."""

    SCHEMA = "certificate/common-bases/1"

    __slots__ = {"classes": "tuple[ElementSet, ...]"}

    def to_json(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "classes": [_class_json(c) for c in self.classes],
        }

    @staticmethod
    def from_json(data: dict, ground: GroundSet) -> "PartitionCertificate":
        return PartitionCertificate(_classes(data, ground))

    @staticmethod
    def from_masks(ground: GroundSet, masks: Sequence[int]) -> "PartitionCertificate":
        """The partition whose classes are the given bitmasks, in order."""
        return PartitionCertificate(tuple(ElementSet.from_mask(ground, m) for m in masks))


class ModularCertificate(Record):
    """A bipartition of a ground set into two module-respecting classes.

    ``first_modules`` lists the module indices whose union is the first
    class; the explicit element sets are carried for verification.
    """

    SCHEMA = "certificate/modular-bases/1"

    __slots__ = {"first_modules": "tuple[int, ...]", "classes": "tuple[ElementSet, ElementSet]"}

    def to_json(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "first_modules": list(self.first_modules),
            "classes": [_class_json(c) for c in self.classes],
        }

    @staticmethod
    def from_json(data: dict, ground: GroundSet) -> "ModularCertificate":
        return ModularCertificate(
            tuple(_ints(data["first_modules"], "first_modules")), _classes(data, ground)
        )

    @staticmethod
    def from_modules(
        ground: GroundSet, blocks: Sequence[ElementSet], first_modules
    ) -> "ModularCertificate":
        """The bipartition whose first class is the union of ``first_modules``."""
        mask = 0
        for i in first_modules:
            mask |= blocks[i].mask
        second = ground.full_mask ^ mask
        return ModularCertificate(
            tuple(sorted(first_modules)),
            (ElementSet.from_mask(ground, mask), ElementSet.from_mask(ground, second)),
        )


class AssignmentCertificate(Record):
    """A truth assignment, indexed by variable."""

    SCHEMA = "certificate/naesat/1"

    __slots__ = {"values": "tuple[bool, ...]"}

    def to_json(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "assignment": {f"x{i + 1}": v for i, v in enumerate(self.values)},
        }

    @staticmethod
    def from_json(data: dict) -> "AssignmentCertificate":
        raw = data["assignment"]
        keys = [f"x{i + 1}" for i in range(len(raw))] if isinstance(raw, dict) else None
        if keys is None or set(raw) != set(keys):
            raise ValueError("assignment must be an object with keys x1..xn")
        if any(type(v) is not bool for v in raw.values()):
            raise ValueError("assignment values must be true or false")
        return AssignmentCertificate(tuple(raw[k] for k in keys))


class ArcSetCertificate(Record):
    """A set of arcs of a digraph (a perfect even factor)."""

    SCHEMA = "certificate/even-factor/1"

    __slots__ = {"arcs": "frozenset[tuple[int, int]]"}

    def to_json(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "arcs": sorted([u, v] for u, v in self.arcs),
        }

    @staticmethod
    def from_json(data: dict) -> "ArcSetCertificate":
        return ArcSetCertificate(_pairs(data["arcs"], "arcs"))


class EdgeSetCertificate(Record):
    """A set of edges of a bipartite graph (a 2-factor)."""

    SCHEMA = "certificate/mod4-2factor/1"

    __slots__ = {"edges": "frozenset[tuple[int, int]]"}

    def to_json(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "edges": sorted([s, t] for s, t in self.edges),
        }

    @staticmethod
    def from_json(data: dict) -> "EdgeSetCertificate":
        return EdgeSetCertificate(_pairs(data["edges"], "edges"))
