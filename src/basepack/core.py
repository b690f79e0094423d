"""Ground sets, independence oracles, and derived matroid queries.

A matroid here is a ground set of dense integer indices together with an
independence oracle over subsets.  Subsets are carried as bitmasks so that
exhaustive sweeps, set algebra, and oracle dispatch stay cheap at desk
scale.  Rank is answered in native closed form where the builder
supplies one, greedily through the independence oracle otherwise; the
other derived notions (bases, axiom checks) go through the independence
oracle alone.

Matroids are immutable after construction and safe to query concurrently.
The only mutable object in this module is :class:`QueryLog`, which is
explicitly single-threaded: wrap a matroid per experiment, do not share
the wrapper across threads.
"""

from __future__ import annotations

from array import array
import functools
from typing import Callable, Iterable, Iterator, Optional, Sequence

DEFAULT_EXHAUSTIVE_CAP = 24


class ResourceCapExceeded(RuntimeError):
    """An exhaustive operation was asked to sweep more elements than its cap."""


class UniverseMismatch(ValueError):
    """An element set was used against a ground set of a different size."""


class Record:
    """Base of the immutable value records: ground sets, graphs, instances,
    certificates and reports.

    A record declares its fields once, as a ``__slots__`` dict that maps
    each field, in constructor order, to its type string; Python keeps
    the strings as the slots' docstrings.  An underscored slot holds a
    value derived from the fields.  ``_defaults`` maps the fields that
    may be omitted to their values.  The one constructor binds its
    arguments to the fields by position or by name, fills in the
    defaults, and raises TypeError for a missing, unknown or repeated
    field; then ``__post_init__`` checks and normalizes them.  Records
    of one class are equal, and hash alike, when their fields are;
    setting or deleting an attribute raises AttributeError.
    """

    __slots__: dict[str, str] = {}
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *args: object, **named: object) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{self.__class__.__name__}() takes {len(fields)} fields "
                            f"but {len(args)} were given")
        for name in named:
            if name not in fields or fields.index(name) < len(args):
                problem = "multiple values for" if name in fields else "an unexpected"
                raise TypeError(f"{self.__class__.__name__}() got {problem} field {name!r}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in named:
                object.__setattr__(self, name, named[name])
            elif name in self._defaults:
                object.__setattr__(self, name, self._defaults[name])
            else:
                raise TypeError(f"{self.__class__.__name__}() missing field {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalize the fields; any values pass by default."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__


class GroundSet(Record):
    """A dense ground set 0..size-1 with optional unique display labels."""

    __slots__ = {"size": "int", "labels": "Optional[tuple[str, ...]]"}
    _defaults = {"labels": None}

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("ground set size must be non-negative")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise ValueError("label count must equal ground set size")
            if len(set(self.labels)) != self.size:
                raise ValueError("labels must be unique")

    def label(self, i: int) -> str:
        if self.labels is None:
            return str(i)
        return self.labels[i]

    def index_of(self, label: str) -> int:
        if self.labels is None:
            return int(label)
        return self.labels.index(label)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def subset(self, members: Iterable[int] = ()) -> "ElementSet":
        return ElementSet(self, members)

    def full(self) -> "ElementSet":
        return ElementSet.from_mask(self, self.full_mask)

    def empty(self) -> "ElementSet":
        return ElementSet.from_mask(self, 0)


# The set bit positions of each byte value, for walking a mask byte by byte.
BYTE_BITS = tuple(tuple(b for b in range(8) if x >> b & 1) for x in range(256))


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for e in members:
        m |= 1 << e
    return m


def is_string_list(value: object) -> bool:
    """Whether a JSON value is a list of strings, as every label list must be."""
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def is_int_list(value: object, length: Optional[int] = None) -> bool:
    """Whether a JSON value is a list of integers (booleans excluded), of
    ``length`` items when given, as index lists and edge endpoints must be."""
    return (isinstance(value, list) and length in (None, len(value))
            and all(type(x) is int for x in value))


class Gf2Basis:
    """A class state for :func:`split_blocks`: one incremental echelon
    basis over GF(2) per table of element vectors.  A block fits when each
    basis stays independent with the block's vectors added.

    Each table, shared by the states of one :func:`gf2_states` maker,
    maps a block mask to the vectors of its elements.  A basis maps each
    pivot, the bit length of one of its vectors, to that vector.  A new
    vector is reduced by the basis vector whose pivot is its bit length
    until it is zero (dependent) or its bit length is a free pivot, so a
    test costs O(|block|) reductions.  :meth:`undo` drops the pivots of the
    latest :meth:`add` still in force.
    """

    __slots__ = ("tables", "bases", "added")

    def __init__(self, tables: Sequence[dict[int, tuple[int, ...]]]):
        self.tables = tables
        self.bases: list[dict[int, int]] = [{} for _ in tables]
        self.added: list[list[tuple[dict[int, int], int]]] = []  # (basis, pivot) pairs per add

    def fits(self, block: int) -> bool:
        """Whether each basis stays independent with the block's vectors;
        the bases are left as they are."""
        for table, basis in zip(self.tables, self.bases):
            get = basis.get
            own: dict[int, int] = {}  # the block's vectors so far, reduced, by pivot
            for v in table[block]:
                top = v.bit_length()  # 0, never a pivot, once v is reduced to zero
                w = get(top) or own.get(top)
                while w:
                    v ^= w
                    top = v.bit_length()
                    w = get(top) or own.get(top)
                if not top:
                    return False
                own[top] = v
        return True

    def add(self, block: int) -> None:
        """Add a block that fits."""
        self.added.append([(basis, _place(basis, v))
                           for table, basis in zip(self.tables, self.bases) for v in table[block]])

    def undo(self) -> None:
        for basis, pivot in self.added.pop():
            del basis[pivot]


def _place(basis: dict[int, int], v: int) -> int:
    """Put ``v``, independent of the basis, into it reduced; its pivot."""
    get = basis.get
    top = v.bit_length()
    w = get(top)
    while w is not None:
        v ^= w
        top = v.bit_length()
        w = get(top)
    basis[top] = v
    return top


class MaskState:
    """The class state behind a plain hereditary ``indep(mask)``, holding
    ``mask`` to start with; ``fits(block)`` is one query of the grown mask."""

    __slots__ = ("indep", "mask", "before")

    def __init__(self, indep: Callable[[int], bool], mask: int = 0):
        self.indep = indep
        self.mask = mask
        self.before: list[int] = []  # the class mask before each add still in force

    def fits(self, block: int) -> bool:
        return self.indep(self.mask | block)

    def add(self, block: int) -> None:
        self.before.append(self.mask)
        self.mask |= block

    def undo(self) -> None:
        self.mask = self.before.pop()


# A maker of class states that each hold a given base set.
StateAt = Callable[[int], "Gf2Basis | MaskState"]


def gf2_states(blocks: Sequence[int], *vectors: Sequence[int]) -> StateAt:
    """A maker of :class:`Gf2Basis` class states over ``blocks``, one basis
    per list of element vectors; ``at(base)`` holds the vectors of ``base``
    for good.  The tables are built once, and when the blocks are distinct
    single elements each takes its one vector without a bit walk."""
    single = sum(blocks).bit_count() == len(blocks)  # iff no carries and all blocks are one bit
    tables = [{b: (vec[b.bit_length() - 1],) if single else tuple([vec[e] for e in bits_of(b)])
               for b in blocks} for vec in vectors]

    def at(base: int) -> Gf2Basis:
        state = Gf2Basis(tables)
        for basis, vec in zip(state.bases, vectors):
            for e in bits_of(base):
                _place(basis, vec[e])  # held for good: nothing to undo
        return state

    return at


def class_states(blocks: Sequence[int], *matroids: "Matroid") -> StateAt:
    """A maker of class states over ``blocks`` that test independence in
    each of ``matroids``: ``at(base)`` holds ``base``, independent in each,
    and its ``fits(block)`` says whether base + block stays so.

    The one place that chooses between vectors and oracle queries: with
    GF(2) vectors (:attr:`Matroid.gf2`) on every matroid, :func:`gf2_states`
    of them, which ask no oracle; otherwise mask adapters, which ask the
    oracles in matroid order and stop at the first no.
    """
    vectors = [m.gf2 for m in matroids]
    if None not in vectors:
        return gf2_states(blocks, *vectors)
    indep = functools.reduce(lambda first, then: lambda mask: first(mask) and then(mask),
                             [m.indep_mask for m in matroids])
    return lambda base: MaskState(indep, base)


def split_blocks(
    blocks: Sequence[int],
    k: int,
    cap: int,
    states: Sequence["Gf2Basis | MaskState"],
) -> Iterator[tuple[int, ...]]:
    """Yield every assignment of the disjoint ``blocks`` masks to ``k`` classes.

    The one exhaustive search behind the solvers and the gadget
    certificate.  Blocks are placed in the given order, each into the
    classes in index order; block 0 goes to class 0 and a block may open
    only the lowest empty class, so each partition is met once up to
    renaming its classes.  A grown class must hold at most ``cap``
    elements and pass the independence test (checked in that order), else
    the search backtracks.  Yields the class masks of each complete
    assignment, depth-first with an explicit stack, so the block count is
    not bounded by the recursion limit.

    The test is asked through ``states``, one per class: ``fits(block)``
    says whether the class may take the block, ``add(block)`` puts a
    fitting block in, and ``undo()`` takes the latest added block out
    again, in stack order.  :func:`class_states` makes states for
    matroids and :class:`MaskState` for a plain test of the grown mask.

    The test must be hereditary: if it rejects a class, it rejects every
    superset.  From the search's first dead end on, each placement is
    followed by one forward pass of forced placement: each unplaced block
    after the one just placed is tested, once and in block order, against
    every class.  The search backtracks at once when one fits none, and a
    block that fits exactly one is placed there until the search
    backtracks past this point.  A block that fits one empty class fits
    them all, so it is forced into an empty class only when that is the
    last empty one (for k = 2, class 1 once block 0 is placed), and class
    labels stay those of the plain search.  Classes only grow, so by
    heredity these cuts remove only subtrees without a complete
    assignment, and the yielded sequence is the plain search's.  A search
    that never backtracks never tests an unplaced block.

    Blocks must be non-empty: the classes in use, always 0 up to some
    index, are read off the class masks as the non-empty ones.  A zero
    block raises ``ValueError``.
    """
    if not all(blocks):
        raise ValueError("split_blocks needs non-empty blocks")
    n = len(blocks)
    classes = [0] * k
    where = [-1] * n  # class holding block i, -1 while unplaced
    trail: list[int] = []  # placed blocks, chosen and forced, in placement order
    chosen: list[tuple[int, int]] = []  # (block, trail length) per choice
    propagating = False  # set at the first dead end
    tests = [state.fits for state in states]  # bound once; the tests are the hot path

    def place(i: int, c: int) -> None:
        classes[c] |= blocks[i]
        states[c].add(blocks[i])
        where[i] = c
        trail.append(i)

    def force(start: int) -> bool:
        """Forced placement over the unplaced blocks from ``start`` on, each
        tested once in block order; False when some block fits no class."""
        for j in range(start, n):
            if where[j] < 0:
                fit = -1
                for c in range(k):
                    if (classes[c] | blocks[j]).bit_count() <= cap and tests[c](blocks[j]):
                        if fit >= 0:
                            break  # two classes fit: nothing is forced
                        fit = c
                else:
                    if fit < 0:
                        return False
                    place(j, fit)
        return True

    i = c = 0  # the block to choose a class for, and the first class to try
    while True:
        while i < n and where[i] >= 0:
            i += 1  # placed by force
        if i == n:
            yield tuple(classes)
        else:
            block = blocks[i]
            limit = min(k + 1 - classes.count(0), k)  # the open classes and one empty one
            while c < limit and not (
                (classes[c] | block).bit_count() <= cap and tests[c](block)
            ):
                c += 1
            if c < limit:
                chosen.append((i, len(trail)))
                place(i, c)
                if not propagating or force(i + 1):
                    i, c = i + 1, 0
                    continue
            else:
                propagating = True
        if not chosen:
            return
        i, mark = chosen.pop()
        c = where[i] + 1
        while len(trail) > mark:
            j = trail.pop()
            classes[where[j]] ^= blocks[j]
            states[where[j]].undo()
            where[j] = -1


class ElementSet:
    """A subset of a ground set with bitset semantics.

    Set algebra never leaves the universe; combining sets over ground sets
    of different sizes raises :class:`UniverseMismatch`.  Ground sets of
    equal size are treated as the same universe (labels are display-only).
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: GroundSet, members: Iterable[int] = ()):
        mask = 0
        for e in members:
            if not 0 <= e < universe.size:
                raise ValueError(f"element {e} outside ground set of size {universe.size}")
            mask |= 1 << e
        self.universe = universe
        self.mask = mask

    @classmethod
    def from_mask(cls, universe: GroundSet, mask: int) -> "ElementSet":
        if mask < 0 or mask >> universe.size:
            raise ValueError("mask has bits outside the universe")
        out = cls.__new__(cls)
        out.universe = universe
        out.mask = mask
        return out

    def _check(self, other: "ElementSet") -> None:
        if self.universe.size != other.universe.size:
            raise UniverseMismatch(
                f"universe sizes differ: {self.universe.size} vs {other.universe.size}"
            )

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet.from_mask(self.universe, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet.from_mask(self.universe, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet.from_mask(self.universe, self.mask & ~other.mask)

    def complement(self) -> "ElementSet":
        return ElementSet.from_mask(self.universe, self.universe.full_mask & ~self.mask)

    def add(self, e: int) -> "ElementSet":
        if not 0 <= e < self.universe.size:
            raise ValueError(f"element {e} outside universe")
        return ElementSet.from_mask(self.universe, self.mask | (1 << e))

    def remove(self, e: int) -> "ElementSet":
        return ElementSet.from_mask(self.universe, self.mask & ~(1 << e))

    def issubset(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, e: int) -> bool:
        return bool(self.mask >> e & 1) if 0 <= e < self.universe.size else False

    def __iter__(self) -> Iterator[int]:
        return bits_of(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.universe.size == other.universe.size
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe.size, self.mask))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.label(e) for e in self)

    def __repr__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


class Matroid:
    """An independence oracle over a ground set.

    ``indep`` answers "is this subset independent?" for bitmask-encoded
    subsets.  The oracle must be deterministic and is assumed (and, for
    everything built in :mod:`basepack.constructions`, machine-checked at
    small sizes) to satisfy the independence axioms: the empty set is
    independent, independence is closed downward, and independent sets of
    unequal size admit an exchange element.

    ``indep_mask`` is the oracle itself, stored as given, so a query
    costs no forwarding call.  ``rank_mask`` is stored the same way: the
    optional ``rank`` callable, the builder's closed form for the rank of
    a bitmask, or else the greedy scan through ``indep_mask``.
    ``descriptor`` is a JSON-friendly construction tree used for
    serialization; oracles built ad hoc may leave it as a bare kind tag.

    ``gf2``, when given, holds one int per element: its vector over GF(2),
    bit i the i-th coordinate.  It may be given only where a set is
    independent exactly when its vectors are linearly independent; then
    :func:`class_states`, its only reader outside the constructors, has
    the searches reduce vectors instead of asking the oracle.  Those in
    :mod:`basepack.constructions` set it for graphic, GF(2) linear and
    0/1-capped partition matroids, and for sums, relabelings and parallel
    copies of those.  A matroid built around another's oracle without
    passing it on has none: a wrapper such as :func:`with_query_log` sees
    every query its callers make.
    """

    __slots__ = ("ground", "kind", "indep_mask", "rank_mask", "descriptor", "gf2", "_rank_full")

    def __init__(
        self,
        ground: GroundSet,
        kind: str,
        indep: Callable[[int], bool],
        descriptor: Optional[dict] = None,
        rank: Optional[Callable[[int], int]] = None,
        gf2: Optional[Sequence[int]] = None,
    ):
        if gf2 is not None and len(gf2) != ground.size:
            raise ValueError("one GF(2) vector per element required")
        self.ground = ground
        self.kind = kind
        self.indep_mask = indep
        self.rank_mask = rank if rank is not None else self._greedy_rank
        self.descriptor = descriptor if descriptor is not None else {"kind": kind}
        self.gf2: Optional[tuple[int, ...]] = None if gf2 is None else tuple(gf2)
        self._rank_full: Optional[int] = None

    def with_labels(self, labels: Sequence[str]) -> "Matroid":
        """The same oracles, vectors and descriptor over a ground set with new labels."""
        ground = GroundSet(self.ground.size, tuple(labels))
        return Matroid(ground, self.kind, self.indep_mask, self.descriptor, self.rank_mask,
                       self.gf2)

    def is_independent(self, subset: ElementSet) -> bool:
        if subset.universe.size != self.ground.size:
            raise UniverseMismatch(
                f"subset over {subset.universe.size} elements, matroid over {self.ground.size}"
            )
        return self.indep_mask(subset.mask)

    def _greedy_rank(self, mask: int) -> int:
        """Greedy rank: scan elements in ascending index order, keep what stays
        independent, and stop early on reaching the full rank once it is cached."""
        indep = self.indep_mask
        need = self._rank_full  # None until the full rank is known
        kept = 0
        count = 0
        rest = mask
        while rest and count != need:
            low = rest & -rest
            if indep(kept | low):
                kept |= low
                count += 1
            rest ^= low
        return count

    @property
    def full_rank(self) -> int:
        if self._rank_full is None:
            self._rank_full = self.rank_mask(self.ground.full_mask)
        return self._rank_full

    def subset(self, members: Iterable[int] = ()) -> ElementSet:
        return ElementSet(self.ground, members)

    def __repr__(self) -> str:
        return f"Matroid(kind={self.kind!r}, n={self.ground.size})"


def is_independent(matroid: Matroid, subset: ElementSet) -> bool:
    """Oracle dispatch: true iff ``subset`` is independent in ``matroid``."""
    return matroid.is_independent(subset)


def rank(matroid: Matroid, subset: Optional[ElementSet] = None) -> int:
    """Rank of ``subset`` (default: whole ground set): in native closed form
    where the matroid's builder supplies one, greedily otherwise."""
    if subset is None:
        return matroid.full_rank
    if subset.universe.size != matroid.ground.size:
        raise UniverseMismatch("subset universe does not match matroid ground set")
    return matroid.rank_mask(subset.mask)


def is_basis(matroid: Matroid, subset: ElementSet) -> bool:
    """True iff ``subset`` is independent and as large as the matroid's rank."""
    if subset.universe.size != matroid.ground.size:
        raise UniverseMismatch("subset universe does not match matroid ground set")
    return len(subset) == matroid.full_rank and matroid.indep_mask(subset.mask)


def enumerate_bases(
    matroid: Matroid, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> list[ElementSet]:
    """All bases, in ascending order of their bitmask encoding.

    Sweeps all 2^n subsets; refuses ground sets larger than ``cap``.
    """
    n = matroid.ground.size
    if n > cap:
        raise ResourceCapExceeded(f"enumerate_bases over {n} elements exceeds cap {cap}")
    r = matroid.full_rank
    out = []
    for m in range(1 << n):
        if m.bit_count() == r and matroid.indep_mask(m):
            out.append(ElementSet.from_mask(matroid.ground, m))
    return out


class AxiomCheck(Record):
    __slots__ = {"name": "str", "passed": "bool", "witness": "Optional[tuple]"}
    _defaults = {"witness": None}

    def __str__(self) -> str:
        if self.passed:
            return f"{self.name}: pass"
        return f"{self.name}: FAIL witness={self.witness}"


class AxiomReport(Record):
    __slots__ = {"checks": "tuple[AxiomCheck, ...]"}

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        return "; ".join(str(c) for c in self.checks)


def check_independence_axioms(
    matroid: Matroid, cap: int = DEFAULT_EXHAUSTIVE_CAP
) -> AxiomReport:
    """Exhaustively check the three independence axioms.

    Downward closure is checked by single-element removals and the
    exchange axiom only for |Y| = |X| + 1; together with downward closure
    these imply the general statements.  Failures carry concrete
    witnesses: (X, Y) pairs as element sets.

    Exchange reads one table: bit s of ``sizes[A]`` is set when A has an
    independent subset of s elements (ORed in one element at a time).
    With stuck(X) = X plus every e for which X + e is dependent, an
    independent Y one larger than X misses all of X's extensions exactly
    when Y lies in stuck(X); so X fails when bit |X| + 1 of
    ``sizes[stuck(X)]`` is set.  The witness is the first failing X by
    size, then by mask, with its first such Y by mask.  The flags take one
    byte a set and the table four (n <= 24 needs 25 bits).
    """
    n = matroid.ground.size
    if n > cap:
        raise ResourceCapExceeded(f"axiom check over {n} elements exceeds cap {cap}")
    ground = matroid.ground
    full = ground.full_mask
    total = full + 1
    indep = bytearray(map(matroid.indep_mask, range(total)))

    i1 = AxiomCheck("I1", bool(indep[0]),
                    None if indep[0] else (ElementSet.from_mask(ground, 0),))

    i2_witness = None
    for m in range(total):
        if not indep[m]:
            continue
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            if not indep[m ^ low]:
                i2_witness = (
                    ElementSet.from_mask(ground, m ^ low),
                    ElementSet.from_mask(ground, m),
                )
                break
        if i2_witness:
            break
    i2 = AxiomCheck("I2", i2_witness is None, i2_witness)

    sizes = array("I", (1 << m.bit_count() if indep[m] else 0 for m in range(total)))
    for bit in (1 << i for i in range(n)):
        for start in range(bit, total, 2 * bit):  # each run of sets that hold the element
            for a in range(start, start + bit):
                sizes[a] |= sizes[a ^ bit]

    def stuck(x: int) -> int:
        out, rest = x, full & ~x
        while rest:
            low = rest & -rest
            rest ^= low
            if not indep[x | low]:
                out |= low
        return out

    first = min(((x.bit_count(), x) for x in range(total)
                 if indep[x] and sizes[stuck(x)] >> x.bit_count() + 1 & 1), default=None)
    i3_witness = None
    if first is not None:
        k, x = first
        y = next(y for y in range(total) if indep[y] and y.bit_count() == k + 1
                 and y & ~stuck(x) == 0)
        i3_witness = (ElementSet.from_mask(ground, x), ElementSet.from_mask(ground, y))
    i3 = AxiomCheck("I3", i3_witness is None, i3_witness)

    return AxiomReport((i1, i2, i3))


def check_basis_axioms(family: Sequence[ElementSet]) -> AxiomReport:
    """Check the basis axioms on an explicit family of sets.

    B1: the family is non-empty.  B2: for bases B1, B2 and u in B1 - B2
    there is v in B2 - B1 with B1 - u + v in the family.  The failure
    witness for B2 is (B1, B2, u).
    """
    b1 = AxiomCheck("B1", len(family) > 0)
    if not family:
        return AxiomReport((b1, AxiomCheck("B2", True)))
    universe = family[0].universe
    masks = set()
    for s in family:
        if s.universe.size != universe.size:
            raise UniverseMismatch("basis family mixes universes")
        masks.add(s.mask)

    b2_witness = None
    for m1 in masks:
        for m2 in masks:
            only1 = m1 & ~m2
            only2 = m2 & ~m1
            rest = only1
            while rest:
                u = rest & -rest
                rest ^= u
                swap = only2
                found = False
                while swap:
                    v = swap & -swap
                    swap ^= v
                    if (m1 ^ u) | v in masks:
                        found = True
                        break
                if not found:
                    b2_witness = (
                        ElementSet.from_mask(universe, m1),
                        ElementSet.from_mask(universe, m2),
                        ElementSet.from_mask(universe, u),
                    )
                    break
            if b2_witness:
                break
        if b2_witness:
            break
    return AxiomReport((b1, AxiomCheck("B2", b2_witness is None, b2_witness)))


class QueryLog:
    """Distinct independence queries and their answers, in first-query order.

    Repeated queries of the same subset are answered from the log and
    recorded once, so ``count`` measures the information actually
    extracted from the oracle.  Not thread-safe: use one logged wrapper
    per experiment thread.
    """

    __slots__ = ("universe", "answers")

    def __init__(self, universe: GroundSet):
        self.universe = universe
        self.answers: dict[int, bool] = {}

    @property
    def count(self) -> int:
        return len(self.answers)

    def masks(self) -> tuple[int, ...]:
        return tuple(self.answers)

    def queried_sets(self) -> list[ElementSet]:
        return [ElementSet.from_mask(self.universe, m) for m in self.answers]

    def __contains__(self, subset: ElementSet) -> bool:
        return subset.mask in self.answers


def with_query_log(matroid: Matroid) -> tuple[Matroid, QueryLog]:
    """Wrap a matroid so every distinct oracle query is answered once and logged.

    The wrapper answers exactly as the original; only the log is new.  It
    does not forward the original's native rank: a rank query on the
    wrapper is a greedy scan through the logged oracle, so every
    independence query a rank costs is recorded.  Nor does it forward
    the GF(2) vectors, so no search answers from them past the log.
    """
    log = QueryLog(matroid.ground)
    answers = log.answers
    inner = matroid.indep_mask

    def cached(mask: int) -> bool:
        hit = answers.get(mask)
        if hit is None:
            hit = answers[mask] = inner(mask)
        return hit

    return Matroid(matroid.ground, matroid.kind, cached, matroid.descriptor), log
