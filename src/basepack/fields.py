"""Exact linear algebra over GF(p) and the rationals.

Column-subset rank is the only operation the linear matroid oracle
needs; everything is done with exact arithmetic, never floats.  Over
GF(2) each column is one int, bit r holding row r, and a column is
reduced against the others by XOR; over GF(p > 2) and Q rows of machine
ints mod p, or of :class:`fractions.Fraction`, are eliminated.
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
    """Return ("gf", p) or ("q", 0)."""
    if not isinstance(descriptor, str):
        raise TypeError(f"field descriptor must be a string, not {descriptor!r}")
    if descriptor == RATIONALS:
        return ("q", 0)
    if descriptor.startswith("gf:"):
        p = int(descriptor[3:])
        if not is_prime(p):
            raise ValueError(f"GF({p}): modulus must be prime")
        return ("gf", p)
    raise ValueError(f"unknown field descriptor {descriptor!r}")


def _rational(x: Entry) -> "Fraction":
    """``Fraction(x)``, refusing a string whose decimal exponent exceeds
    MAX_DECIMAL_EXPONENT in magnitude before Fraction builds the number."""
    from fractions import Fraction

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
        "_field": "tuple[str, int]", "_columns": "tuple[int, ...] | None",
    }

    def __post_init__(self) -> None:
        """Parse the field (the one place that does), normalize the
        entries, ``int(x) % p`` over GF(p) and ``Fraction(x)`` over Q, and
        over GF(2) pack each column into an int."""
        kind, p = parse_field(self.field)
        # Parsed once: the oracle's column_rank runs on every query.
        object.__setattr__(self, "_field", (kind, p))
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        to_entry = (lambda x: int(x) % p) if kind == "gf" else _rational
        norm = []
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            try:
                norm.append(tuple(map(to_entry, row)))
            except ZeroDivisionError:
                raise ValueError("rational entry with a zero denominator") from None
        object.__setattr__(self, "entries", tuple(norm))
        columns = None
        if (kind, p) == ("gf", 2):  # packed once: bit r of column c is entry (r, c)
            columns = tuple([sum(row[c] << r for r, row in enumerate(norm))
                             for c in range(self.cols)])
        object.__setattr__(self, "_columns", columns)

    @staticmethod
    def build(field: str, entries: Sequence[Sequence[Entry]]) -> "Matrix":
        """A matrix whose shape is read off ``entries``."""
        return Matrix(field, len(entries), len(entries[0]) if entries else 0, entries)

    def _gf2_rank(self, cols: Sequence[int], stop_at_zero: bool) -> int:
        """Rank of the packed GF(2) columns ``cols``, or with ``stop_at_zero``
        of those before the first one that reduces to zero; a basis maps
        each vector's bit length, its pivot, to it, as in :class:`core.Gf2Basis`."""
        columns, basis, m = self._columns, {}, self.rows
        get = basis.get
        for c in cols:
            v = columns[c]
            top = v.bit_length()  # 0, never a pivot, once v is reduced to zero
            w = get(top)
            while w is not None:
                v ^= w
                top = v.bit_length()
                w = get(top)
            if top:
                basis[top] = v
                if len(basis) == m:
                    break
            elif stop_at_zero:
                break
        return len(basis)

    def column_rank(self, cols: Sequence[int]) -> int:
        """Rank of the submatrix given by ``cols``: over GF(2) by reducing
        its packed columns, otherwise by Gaussian elimination on its rows."""
        if self._columns is not None:
            return self._gf2_rank(cols, False)
        kind, p = self._field
        if not cols:
            return 0
        work = [[self.entries[r][c] for c in cols] for r in range(self.rows)]
        m, n = self.rows, len(cols)
        rank = 0
        for col in range(n):
            pivot = -1
            for r in range(rank, m):
                if work[r][col] != 0:
                    pivot = r
                    break
            if pivot < 0:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            head = work[rank][col]
            inv = pow(head, p - 2, p) if kind == "gf" else 1 / head
            for r in range(rank + 1, m):
                factor = work[r][col]
                if factor == 0:
                    continue
                if kind == "gf":
                    scale = factor * inv % p
                    work[r] = [
                        (work[r][j] - scale * work[rank][j]) % p for j in range(n)
                    ]
                else:
                    scale = factor * inv
                    work[r] = [work[r][j] - scale * work[rank][j] for j in range(n)]
            rank += 1
            if rank == m:
                break
        return rank

    def columns_independent(self, cols: Sequence[int]) -> bool:
        """Whether the columns ``cols`` are linearly independent; over GF(2)
        the reduction stops at the first column that reduces to zero."""
        if self._columns is not None:
            return self._gf2_rank(cols, True) == len(cols)
        return self.column_rank(cols) == len(cols)

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

