"""Exact linear algebra over GF(p) and the rationals.

Column-subset rank is the only operation the linear matroid oracle
needs; everything is done with exact arithmetic, never floats.  Each
column is stored once and the chosen columns are reduced one by one
against an echelon basis: over GF(2) a column is one int, bit r holding
row r, reduced by XOR; over GF(p > 2) and Q it is a tuple of machine
ints mod p, or of :class:`fractions.Fraction`, reduced by row-scaled
subtraction.  The reduction can resume from a reduced prefix of the
chosen columns, as the linear oracle does from its last query.
"""

from __future__ import annotations

from typing import Sequence

from .core import Record

Entry = "int | Fraction"  # a string, so that only rational matrices import fractions

RATIONALS = "q"

# Python's own limit on the digits of a str -> int conversion.  A rational
# entry's decimal exponent is held to it, so "1e999999999" is refused
# before Fraction builds a billion-digit power of ten.
MAX_DECIMAL_EXPONENT = 4300


def gf(p: int) -> str:
    return f"gf:{p}"


# Miller-Rabin with these bases decides primality exactly below 2^64.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for p >= 2^64, past its proven range."""
    if p >= 1 << 64:
        raise ValueError(f"GF({p}): modulus must be below 2^64")
    if p < 2 or any(p % b == 0 for b in PRIME_BASES):
        return p in PRIME_BASES
    d = p - 1
    while d % 2 == 0:
        d //= 2
    for b in PRIME_BASES:  # b^d, squared until it reaches -1 or b^((p-1)/2)
        x, e = pow(b, d, p), d
        while x not in (1, p - 1) and 2 * e < p - 1:
            x, e = x * x % p, 2 * e
        if x != p - 1 and (x != 1 or e != d):
            return False  # b witnesses that p is composite
    return True


def parse_field(descriptor: str) -> tuple[str, int]:
    """Return ("gf", p) or ("q", 0); p is written in canonical decimal
    digits, with no sign, space, underscore or leading zero."""
    if not isinstance(descriptor, str):
        raise TypeError(f"field descriptor must be a string, not {descriptor!r}")
    if descriptor == RATIONALS:
        return ("q", 0)
    digits = descriptor[3:]
    if descriptor[:3] == "gf:" and digits.isascii() and digits.isdigit() and digits[0] != "0":
        p = int(digits)
        if not is_prime(p):
            raise ValueError(f"GF({p}): modulus must be prime")
        return ("gf", p)
    raise ValueError(f"unknown field descriptor {descriptor!r}")


def _rational(x: Entry) -> "Fraction":
    """``Fraction(x)`` of an int other than a bool, a Fraction or a string,
    refusing a string whose decimal exponent exceeds MAX_DECIMAL_EXPONENT
    in magnitude before Fraction builds the number."""
    from fractions import Fraction

    if type(x) is not int and not isinstance(x, (Fraction, str)):
        raise TypeError(f"rational matrix entry must be an integer, a Fraction or a string, "
                        f"not {x!r}")
    if isinstance(x, str):
        _, mark, exponent = x.lower().partition("e")
        try:
            too_large = bool(mark) and abs(int(exponent)) > MAX_DECIMAL_EXPONENT
        except ValueError:  # no integer exponent: Fraction refuses the entry
            too_large = False
        if too_large:
            raise ValueError(
                f"rational entry exponent exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    return Fraction(x)


class Matrix(Record):
    """A dense matrix over GF(p) (field="gf:p") or the rationals (field="q")."""

    __slots__ = {
        "field": "str", "rows": "int", "cols": "int", "entries": "tuple[tuple[Entry, ...], ...]",
        "_field": "tuple[str, int]", "_columns": "tuple[int, ...] | tuple[tuple[Entry, ...], ...]",
    }

    def __post_init__(self) -> None:
        """Parse the field (the one place that does), normalize the
        entries, ``x % p`` over GF(p) and ``Fraction(x)`` over Q, and store
        each column once: over GF(2) packed into an int, otherwise as a
        tuple.  Each row must be a sequence other than a string, and a
        GF(p) entry an int other than a bool; see :func:`_rational` for Q."""
        kind, p = parse_field(self.field)
        # Parsed once: the oracle's column_rank runs on every query.
        object.__setattr__(self, "_field", (kind, p))
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        to_entry = (lambda x: x % p) if kind == "gf" else _rational
        norm = []
        for row in self.entries:
            if isinstance(row, str) or not isinstance(row, Sequence):
                raise TypeError(f"matrix row must be a list, not {row!r}")
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            if kind == "gf" and not all(type(x) is int for x in row):
                raise TypeError(f"GF({p}) matrix entries must be integers, not {row!r}")
            try:
                norm.append(tuple(map(to_entry, row)))
            except ZeroDivisionError:
                raise ValueError("rational entry with a zero denominator") from None
        object.__setattr__(self, "entries", tuple(norm))
        columns = [tuple([row[c] for row in norm]) for c in range(self.cols)]
        if p == 2:  # packed: bit r of column c is entry (r, c)
            columns = [sum(x << r for r, x in enumerate(column)) for column in columns]
        object.__setattr__(self, "_columns", tuple(columns))

    @staticmethod
    def build(field: str, entries: Sequence[Sequence[Entry]]) -> "Matrix":
        """A matrix whose shape is read off ``entries``."""
        return Matrix(field, len(entries), len(entries[0]) if entries else 0, entries)

    def column_rank(self, cols: Sequence[int], steps: list | None = None,
                    stop_at_zero: bool = False) -> int:
        """Rank of the columns ``cols`` by one column reduction, in order.

        Each column is reduced against a basis that maps a pivot to its
        vector.  Over GF(2) the pivot is the bit length and a step an XOR,
        as in :class:`core.Gf2Basis`; otherwise the pivot is the first
        non-zero row, where a basis vector holds 1, and a step is
        ``v - v[pivot] * w``, mod p over GF(p).  The reduction stops once
        the rank reaches the row count, and with ``stop_at_zero`` once a
        column has reduced to zero.

        The basis after the first j columns depends only on those columns,
        so a query can resume from the last one.  ``steps`` holds one entry
        per column already reduced, a prefix of ``cols``: the
        ``(pivot, vector)`` that the column added, or None.  The basis is
        rebuilt from them, the reduction resumes after them, and each
        column reduced here appends its entry.
        """
        p, columns, m = self._field[1], self._columns, self.rows
        steps = [] if steps is None else steps
        basis = dict(step for step in steps if step)
        get = basis.get
        zero = 0 if p == 2 else m  # the pivot of a column reduced to zero
        for c in cols[len(steps):]:
            if len(basis) == m or stop_at_zero and len(basis) < len(steps):
                break
            v = columns[c]
            if p == 2:
                pivot = v.bit_length()
                w = get(pivot)
                while w is not None:
                    v ^= w
                    pivot = v.bit_length()
                    w = get(pivot)
            else:
                pivot = 0
                while pivot < m:
                    x = v[pivot]
                    if x:
                        w = get(pivot)
                        if w is None:  # a new pivot: scale v so that it holds 1 there
                            inv = pow(x, -1, p) if p else 1 / x
                            v = [a * inv % p for a in v] if p else [a * inv for a in v]
                            break
                        v = ([(a - x * b) % p for a, b in zip(v, w)] if p
                             else [a - x * b for a, b in zip(v, w)])
                    pivot += 1
            if pivot != zero:
                basis[pivot] = v
                steps.append((pivot, v))
            else:
                steps.append(None)
        return len(basis)

    def to_json(self) -> dict:
        kind, _ = self._field
        if kind == "gf":
            data = [list(row) for row in self.entries]
        else:
            data = [
                [f"{x.numerator}/{x.denominator}" for x in row]
                for row in self.entries
            ]
        return {"field": self.field, "rows": self.rows, "cols": self.cols, "entries": data}

    @staticmethod
    def from_json(data: dict) -> "Matrix":
        return Matrix(data["field"], data["rows"], data["cols"], data["entries"])

