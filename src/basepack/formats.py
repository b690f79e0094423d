"""Text and JSON exchange formats.

Text formats: DIMACS CNF (not-all-equal semantics documented in the
README), digraph arc lists, bipartite edge lists.  Everything else is
versioned JSON carrying a "schema" field; matroids travel as their
construction descriptor trees.
"""

from __future__ import annotations

import json
from typing import Optional, TextIO, Union

from .core import GroundSet, Matroid
from .constructions import PartitionOfGroundSet, matroid_from_descriptor
from .graphs import BipartiteGraph, Digraph, MultiGraph
from .instances import (
    CnfFormula,
    CommonBasesInstance,
    ModularInstance,
    ModularTreesInstance,
    ParityInstance,
)


class FormatError(ValueError):
    """Malformed input file or stream."""


def payload_error(what: str, exc: Exception) -> FormatError:
    """A loader's KeyError, ValueError or TypeError, worded as a format error
    about ``what``: a KeyError names the missing key."""
    detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
    return FormatError(f"bad {what}: {detail}")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF file.

    Clauses are read with not-all-equal semantics downstream.  A clause
    containing a variable and its negation is dropped (it can never have
    all literals equal) and counted in the formula's
    ``dropped_tautologies``; unit and empty clauses are format errors,
    since a single literal is all-equal under every assignment.
    """
    num_vars = None
    num_clauses = None
    literals: list[int] = []
    raw_clauses: list[list[tuple[int, bool]]] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        token = line.strip()
        if not token or token.startswith("c") or token.startswith("%"):
            continue
        if token.startswith("p"):
            parts = token.split()
            try:
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ValueError
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {line_no}: malformed problem line {token!r}") from None
            continue
        if num_vars is None:
            raise FormatError(f"line {line_no}: clause before problem line")
        for tok in token.split():
            try:
                lit = int(tok)
            except ValueError:
                raise FormatError(f"line {line_no}: bad literal {tok!r}") from None
            if lit == 0:
                if not literals:
                    raise FormatError(f"line {line_no}: empty clause")
                raw_clauses.append([(abs(x) - 1, x > 0) for x in literals])
                literals = []
            else:
                if abs(lit) > num_vars:
                    raise FormatError(f"line {line_no}: variable {abs(lit)} out of range")
                literals.append(lit)
    if literals:
        raw_clauses.append([(abs(x) - 1, x > 0) for x in literals])
    if num_vars is None:
        raise FormatError("missing problem line")
    if num_clauses is not None and len(raw_clauses) != num_clauses:
        raise FormatError(
            f"problem line promises {num_clauses} clauses, found {len(raw_clauses)}"
        )
    try:
        return CnfFormula.normalize(num_vars, raw_clauses)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_arc_list(text: str) -> Digraph:
    """Parse "n" header then "u v" arc lines (0-indexed); '#' comments."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty digraph file")
    try:
        n = int(lines[0])
        arcs = []
        for ln in lines[1:]:
            u, v = ln.split()
            arcs.append((int(u), int(v)))
        return Digraph.build(n, arcs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse "nS nT" header then "s t" edge lines (0-indexed); '#' comments."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty bipartite graph file")
    try:
        n_s, n_t = lines[0].split()
        edges = []
        for ln in lines[1:]:
            s, t = ln.split()
            edges.append((int(s), int(t)))
        return BipartiteGraph.build(int(n_s), int(n_t), edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _labels_of(ground: GroundSet) -> Optional[list[str]]:
    return list(ground.labels) if ground.labels is not None else None


def _apply_labels(matroid: Matroid, labels: Optional[list[str]]) -> Matroid:
    if labels is None:
        return matroid
    if not isinstance(labels, list) or not all(isinstance(t, str) for t in labels):
        raise FormatError("labels must be a list of strings")
    return matroid.with_labels(labels)


Instance = Union[
    ModularInstance,
    CommonBasesInstance,
    ParityInstance,
    ModularTreesInstance,
    BipartiteGraph,
    Digraph,
]


def dump_instance(instance: Instance, provenance: Optional[dict] = None) -> dict:
    if isinstance(instance, ModularInstance):
        data = {
            "schema": "modular-instance/1",
            "matroid": instance.matroid.descriptor,
            "modules": instance.modules.to_json(),
            "labels": _labels_of(instance.matroid.ground),
        }
    elif isinstance(instance, CommonBasesInstance):
        data = {
            "schema": "common-bases-instance/1",
            "m1": instance.m1.descriptor,
            "m2": instance.m2.descriptor,
            "k": instance.k,
            "labels": _labels_of(instance.ground),
        }
    elif isinstance(instance, ParityInstance):
        data = {
            "schema": "parity-instance/1",
            "matroid": instance.matroid.descriptor,
            "pairs": instance.pairs.to_json(),
            "labels": _labels_of(instance.matroid.ground),
        }
    elif isinstance(instance, ModularTreesInstance):
        data = {
            "schema": "modular-trees-instance/1",
            "graph": instance.graph.to_json(),
            "modules": instance.modules.to_json(),
        }
    elif isinstance(instance, BipartiteGraph):
        data = {"schema": "bipartite-graph/1", **instance.to_json()}
    elif isinstance(instance, Digraph):
        data = {"schema": "digraph/1", **instance.to_json()}
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    if provenance:
        data["provenance"] = provenance
    return data


def _reject_floats(data) -> None:
    """Counts and indices are integers and rationals are "num/den" strings,
    so a float or a boolean anywhere in instance or descriptor JSON is
    malformed (Python would read ``true`` as the integer 1)."""
    if isinstance(data, (float, bool)):
        raise FormatError(f"JSON holds the non-integer value {json.dumps(data)}")
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        for child in data:
            _reject_floats(child)


def load_matroid(descriptor: dict) -> Matroid:
    """Rebuild a matroid from descriptor JSON read from outside the program."""
    _reject_floats(descriptor)
    try:
        return matroid_from_descriptor(descriptor)
    except (KeyError, ValueError, TypeError) as exc:
        raise payload_error("matroid descriptor", exc) from None


def load_instance(data: dict) -> Instance:
    try:
        schema = data["schema"]
    except (KeyError, TypeError):
        raise FormatError("instance JSON must carry a schema field") from None
    _reject_floats(data)
    try:
        if schema == "modular-instance/1":
            matroid = _apply_labels(
                matroid_from_descriptor(data["matroid"]), data.get("labels")
            )
            modules = PartitionOfGroundSet.build(matroid.ground, data["modules"])
            return ModularInstance(matroid, modules)
        if schema == "common-bases-instance/1":
            labels = data.get("labels")
            m1 = _apply_labels(matroid_from_descriptor(data["m1"]), labels)
            m2 = _apply_labels(matroid_from_descriptor(data["m2"]), labels)
            return CommonBasesInstance(m1, m2, data.get("k", 2))
        if schema == "parity-instance/1":
            matroid = _apply_labels(
                matroid_from_descriptor(data["matroid"]), data.get("labels")
            )
            pairs = PartitionOfGroundSet.build(matroid.ground, data["pairs"])
            return ParityInstance(matroid, pairs)
        if schema == "modular-trees-instance/1":
            graph = MultiGraph.from_json(data["graph"])
            modules = PartitionOfGroundSet.build(graph.ground_set(), data["modules"])
            return ModularTreesInstance(graph, modules)
        if schema == "bipartite-graph/1":
            return BipartiteGraph.from_json(data)
        if schema == "digraph/1":
            return Digraph.from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise payload_error(f"{schema} payload", exc) from None
    raise FormatError(f"unknown schema {schema!r}")


def read_text(path_or_dash: str, stdin: TextIO) -> str:
    if path_or_dash == "-":
        return stdin.read()
    try:
        with open(path_or_dash, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path_or_dash}: {exc}") from None


def parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None


def read_json(path_or_dash: str, stdin: TextIO) -> dict:
    return parse_json(read_text(path_or_dash, stdin))
