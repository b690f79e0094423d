"""Text and JSON exchange formats.

Text formats: DIMACS CNF (not-all-equal semantics documented in the
README), digraph arc lists, bipartite edge lists.  Everything else is
versioned JSON carrying its class's ``SCHEMA`` tag, which only
:func:`read_payload` checks; matroids travel as descriptor trees.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence, TextIO

from .core import Matroid, Record
from .constructions import matroid_from_descriptor
from .graphs import BipartiteGraph, Digraph
from .instances import (
    CnfFormula,
    CommonBasesInstance,
    ModularInstance,
    ModularTreesInstance,
    ParityInstance,
)

# The classes load_instance reads, each tagged with its own SCHEMA.
INSTANCES = (ModularInstance, CommonBasesInstance, ParityInstance, ModularTreesInstance,
             BipartiteGraph, Digraph)


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


def _read_rows(text: str, header: str, row: str, what: str, build):
    """``build(*header, rows)`` over the integer rows of a text format, each
    named by its fields ("n", "u v"); blank and '#' lines are skipped.  A bad
    row is a FormatError naming its line; a ValueError from build becomes one."""
    rows: list[list[int]] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        fields = row if rows else header
        parts = token.split()
        try:
            if len(parts) != len(fields.split()):
                raise ValueError
            rows.append([int(t) for t in parts])
        except ValueError:
            raise FormatError(f"line {line_no}: expected {fields!r}, got {token!r}") from None
    if not rows:
        raise FormatError(f"empty {what} file")
    try:
        return build(*rows[0], rows[1:])
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_arc_list(text: str) -> Digraph:
    """Parse "n" header then "u v" arc lines (0-indexed); '#' comments."""
    return _read_rows(text, "n", "u v", "digraph", Digraph.build)


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse "nS nT" header then "s t" edge lines (0-indexed); '#' comments."""
    return _read_rows(text, "nS nT", "s t", "bipartite graph", BipartiteGraph.build)


def read_payload(data, classes: Sequence[type], what: str, *context) -> Record:
    """``cls.from_json(data, *context)`` for the one of ``classes`` whose
    ``SCHEMA`` is ``data``'s "schema".  A non-object, an unknown schema and
    a KeyError, ValueError or TypeError from the body are FormatErrors about
    ``what``; a body error names the chosen schema when there were several.
    """
    if not isinstance(data, dict):
        raise FormatError(f"bad {what}: expected a JSON object")
    schema = data.get("schema")
    for cls in classes:
        if cls.SCHEMA == schema:
            try:
                return cls.from_json(data, *context)
            except (KeyError, ValueError, TypeError) as exc:
                label = what if len(classes) == 1 else f"{schema} payload"
                raise payload_error(label, exc) from None
    expected = " or ".join(repr(cls.SCHEMA) for cls in classes)
    raise FormatError(f"bad {what}: schema must be {expected}")


def dump_instance(instance: Record, provenance: Optional[dict] = None) -> dict:
    """An instance's schema-tagged JSON, with the reduction's provenance if given."""
    data = {"schema": instance.SCHEMA, **instance.to_json()}
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


def load_instance(data: dict) -> Record:
    """Rebuild one of the :data:`INSTANCES` from JSON read from outside the program."""
    _reject_floats(data)
    return read_payload(data, INSTANCES, "instance payload")


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
