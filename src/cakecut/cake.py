"""Exact-arithmetic primitives for cake cutting over the unit interval.

The cake is [0, 1].  Everything here is computed with ``fractions.Fraction``:
interval endpoints, step-function densities, measures, and values.  No floats
enter any computation, so every comparison made by mechanisms, checkers, and
counterexample chains downstream is an exact decision.  The cell sweep
(:func:`cell_grid`) places every endpoint at an exact integer numerator over one
common denominator, the lcm of the endpoints' denominators, so it sorts,
indexes and measures cells with plain ints and still decides exactly; the
segment walks do the same on a valuation's ``integer_image`` and build one
``Fraction`` per result.  The public walks are the two Robertson-Webb
queries, ``value_between`` (eval) and ``cut_point`` (cut), which read their
arguments through :func:`frac`, and ``value``, eval summed over a piece.
The halving recursion's node cuts come from one private walk, as int pairs.
Strings are parsed exactly too; a decimal exponent beyond
``MAX_DECIMAL_EXPONENT`` is refused before ``Fraction`` can expand it.

Pieces are built in two ways: :meth:`Piece.of` sorts intervals given in any
order, and :meth:`Piece.ordered` takes ``(lo, hi)`` spans already in
increasing order (as the mechanisms and the cell sweep produce them), merges
touching neighbours without sorting, and refuses input that is not.

Every value class of the package is a :class:`Record`: an immutable
record whose fields are the parameters of its ``__init__``.  Records of one
class are equal when their fields are, a record never equals one of another
class (``==`` returns ``NotImplemented``), ``hash`` is the hash of the tuple
of fields and ``repr`` reads ``Name(field=value, ...)``, all as a frozen
dataclass's would; ``_replace`` runs the checks again.  The package does
not import ``dataclasses``, whose ``inspect`` import would add to every
command's start-up.

Values are immutable after construction and all operations are pure.  A
valuation computes its integer image once, at construction, runs every
validity check on those ints and keeps it; the image is a pure function of
the fields and stays out of equality, hashing, ``repr`` and JSON, so values
may be shared between threads.  Intervals and valuations refuse a float
with :func:`frac`'s ``TypeError``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import total_ordering
from itertools import chain, combinations, repeat

RationalLike = Fraction | int | str

ZERO = Fraction(0)
ONE = Fraction(1)


class InfeasibleCutError(ValueError):
    """Raised when a cut query asks for more value than remains to the right."""


# Fraction("1e999999999") computes 10**999999999 before anything can check
# its size, so decimal exponents beyond this bound are refused as input errors.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?0*([\d_]*)\s*$")


def check_decimal_exponent(text: str) -> None:
    """Raise ValueError if text carries a decimal exponent beyond MAX_DECIMAL_EXPONENT."""
    match = _EXPONENT.search(text)
    digits = match.group(1).replace("_", "") if match else ""
    if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent in {text!r} exceeds {MAX_DECIMAL_EXPONENT}")


def frac(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or exact string ("3/4", "0.8") to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing inexact float {x!r}; pass a string or Fraction")
    if isinstance(x, str):
        check_decimal_exponent(x)
    return Fraction(x)


class Record:
    """An immutable record.  Its fields are the parameters of the subclass's
    ``__init__``, in order, which writes them into the instance ``__dict__``
    and runs the class's checks; :meth:`_replace` builds through it, so a
    copy is checked again.  Assigning or deleting an attribute raises
    AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes: object) -> Record:
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _inexact(values: Iterable) -> TypeError:
    """The error for the first of `values` that is neither an int nor a
    ``Fraction``: frac's TypeError for a float."""
    x = next(x for x in values if not isinstance(x, (int, Fraction)))
    try:
        frac(x)
    except TypeError as error:
        return error
    return TypeError(f"{x!r} is not an int or a Fraction")


@total_ordering
class Interval(Record):
    """A closed subinterval [lo, hi] of the cake, possibly degenerate; ordered
    as the tuple ``(lo, hi)``."""

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        self.__dict__.update(lo=lo, hi=hi)
        try:                            # compared as ints: denominators are positive
            within = (0 <= lo.numerator and hi.numerator <= hi.denominator
                      and lo.numerator * hi.denominator <= hi.numerator * lo.denominator)
        except AttributeError:
            raise _inexact((lo, hi)) from None
        if not within:
            raise ValueError(f"interval [{lo}, {hi}] not within [0, 1]")

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) < (other.lo, other.hi)
        return NotImplemented

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def ival(lo: RationalLike, hi: RationalLike) -> Interval:
    return Interval(frac(lo), frac(hi))


class Piece(Record):
    """A finite union of intervals, kept in canonical form.

    Canonical form: intervals sorted by left endpoint, pairwise disjoint with
    no shared endpoints (touching intervals are merged), and no zero-length
    intervals.  Sets differing on finitely many points are therefore
    identified, and equality is structural.
    """

    def __init__(self, intervals: tuple[Interval, ...] = ()) -> None:
        self.__dict__["intervals"] = intervals

    @staticmethod
    def of(intervals: Iterable[Interval]) -> "Piece":
        merged: list[list[Fraction]] = []
        for iv in sorted(intervals, key=lambda i: (i.lo, i.hi)):
            if iv.length == 0:
                continue
            if merged and iv.lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], iv.hi)
            else:
                merged.append([iv.lo, iv.hi])
        return Piece(tuple(Interval(lo, hi) for lo, hi in merged))

    @staticmethod
    def ordered(spans: Iterable[tuple[Fraction, Fraction]]) -> "Piece":
        """Build from exact ``(lo, hi)`` spans already in increasing order.

        Only touching neighbours are merged and nothing is sorted, so this is
        linear in the spans.  Raises ValueError on an empty span or on one
        that starts before the previous one ends: the result is always
        canonical.
        """
        merged: list[list[Fraction]] = []
        for lo, hi in spans:
            if not lo < hi:
                raise ValueError(f"empty span [{lo}, {hi}]")
            if merged and lo == merged[-1][1]:
                merged[-1][1] = hi
            elif merged and lo < merged[-1][1]:
                raise ValueError(f"span [{lo}, {hi}] starts before {merged[-1][1]}")
            else:
                merged.append([lo, hi])
        return Piece(tuple(Interval(lo, hi) for lo, hi in merged))

    @staticmethod
    def interval(lo: RationalLike, hi: RationalLike) -> "Piece":
        return Piece.of([ival(lo, hi)])

    @staticmethod
    def empty() -> "Piece":
        return Piece()

    @staticmethod
    def whole() -> "Piece":
        return Piece((Interval(ZERO, ONE),))

    @property
    def measure(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), ZERO)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_contiguous(self) -> bool:
        """True when the piece is a single interval (or empty)."""
        return len(self.intervals) <= 1

    def boundaries(self) -> list[Fraction]:
        out = []
        for iv in self.intervals:
            out.append(iv.lo)
            out.append(iv.hi)
        return out

    def union(self, other: "Piece") -> "Piece":
        return Piece.of(self.intervals + other.intervals)

    def intersect(self, other: "Piece") -> "Piece":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
                if lo < hi:
                    out.append(Interval(lo, hi))
        return Piece.of(out)

    def subtract(self, other: "Piece") -> "Piece":
        return self.intersect(other.complement())

    def complement(self) -> "Piece":
        """The closure of [0,1] minus this piece.  The gaps of a canonical
        piece are canonical already, so they are not merged again."""
        out = []
        cursor = ZERO
        for iv in self.intervals:
            if cursor < iv.lo:
                out.append(Interval(cursor, iv.lo))
            cursor = max(cursor, iv.hi)
        if cursor < ONE:
            out.append(Interval(cursor, ONE))
        return Piece(tuple(out))

    def __repr__(self) -> str:
        if not self.intervals:
            return "{}"
        return " ∪ ".join(repr(iv) for iv in self.intervals)


class PiecewiseConstantValuation(Record):
    """A normalized step-function density over the cake.

    ``bounds`` is the full breakpoint sequence 0 = b_0 < ... < b_{m+1} = 1 and
    ``densities`` holds one non-negative density per segment [b_j, b_{j+1}].
    Canonical form merges adjacent segments of equal density, so the interior
    breakpoint count is exact.  Total mass must be exactly 1; non-normalized
    input is rejected (use :func:`normalized` to rescale fixtures).  Every
    bound and density is an int or a ``Fraction``; a float is refused.

    Construction computes ``integer_image == (L, M, bounds * L, densities *
    M)`` as plain ints, L the lcm of the bounds' denominators and M of the
    densities', runs every check on it and keeps it as an attribute that is
    not a field: it is a pure function of the fields, so it stays out of
    equality, hashing, ``repr`` and JSON.  The segment walks run on it.
    """

    def __init__(self, bounds: tuple[Fraction, ...], densities: tuple[Fraction, ...]
                 ) -> None:
        self.__dict__.update(bounds=bounds, densities=densities)
        # every check runs on the integer image, which is kept for the walks
        try:
            lcm_b = math.lcm(*(b.denominator for b in bounds))
            lcm_d = math.lcm(*(d.denominator for d in densities))
        except AttributeError:
            raise _inexact(chain(bounds, densities)) from None
        bounds = tuple([b.numerator * (lcm_b // b.denominator) for b in bounds])
        densities = tuple([d.numerator * (lcm_d // d.denominator) for d in densities])
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != lcm_b:
            raise ValueError("bounds must run from 0 to 1")
        if len(densities) != len(bounds) - 1:
            raise ValueError("need one density per segment")
        for a, b in zip(bounds, bounds[1:]):
            if not a < b:
                raise ValueError("bounds must be strictly increasing")
        if any(d < 0 for d in densities):
            raise ValueError("densities must be non-negative")
        # canonical form: no adjacent segments with the same density
        for d, e in zip(densities, densities[1:]):
            if d == e:
                raise ValueError("adjacent equal densities; construct via of()")
        total = sum(d * (b - a) for a, b, d in zip(bounds, bounds[1:], densities))
        if total != lcm_b * lcm_d:
            raise ValueError(f"valuation has total mass {Fraction(total, lcm_b * lcm_d)}, "
                             "expected exactly 1")
        self.__dict__["integer_image"] = (lcm_b, lcm_d, bounds, densities)

    @staticmethod
    def of(breakpoints: Sequence[RationalLike], densities: Sequence[RationalLike]
           ) -> "PiecewiseConstantValuation":
        """Build from interior breakpoints and per-segment densities."""
        bounds = [ZERO] + [frac(b) for b in breakpoints] + [ONE]
        dens = [frac(d) for d in densities]
        if len(dens) != len(bounds) - 1:
            raise ValueError("need one density per segment")
        # checked before merging, which would hide a repeated or
        # out-of-order breakpoint between equal densities
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bounds must be strictly increasing")
        merged_b = [bounds[0]]
        merged_d: list[Fraction] = []
        for b, d in zip(bounds[1:], dens):
            if merged_d and d == merged_d[-1]:
                merged_b[-1] = b
            else:
                merged_b.append(b)
                merged_d.append(d)
        return PiecewiseConstantValuation(tuple(merged_b), tuple(merged_d))

    @staticmethod
    def from_masses(points: Sequence[RationalLike], masses: Sequence[RationalLike]
                    ) -> "PiecewiseConstantValuation":
        """Build from interior breakpoints and per-segment total masses."""
        bounds = [ZERO] + [frac(p) for p in points] + [ONE]
        dens = [frac(m) / (b - a) for a, b, m in zip(bounds, bounds[1:], masses)]
        return PiecewiseConstantValuation.of(bounds[1:-1], dens)

    @staticmethod
    def from_chunks(chunks: Iterable[tuple[Fraction, Fraction, Fraction]]
                    ) -> "PiecewiseConstantValuation":
        """Build from disjoint ``(lo, hi, density)`` chunks in any order;
        the density is zero wherever no chunk lies."""
        bounds: list[Fraction] = [ZERO]
        dens: list[Fraction] = []
        for lo, hi, d in sorted(chunks):
            if lo > bounds[-1]:
                bounds.append(lo)
                dens.append(ZERO)
            bounds.append(hi)
            dens.append(d)
        if bounds[-1] < ONE:
            bounds.append(ONE)
            dens.append(ZERO)
        return PiecewiseConstantValuation.of(bounds[1:-1], dens)

    @staticmethod
    def on_piece(piece: Piece) -> "PiecewiseConstantValuation":
        """The uniform indicator valuation: density 1/|piece| on the piece."""
        if piece.measure == 0:
            raise ValueError("cannot spread unit mass over a null piece")
        d = 1 / piece.measure
        return PiecewiseConstantValuation.from_chunks(
            (iv.lo, iv.hi, d) for iv in piece.intervals)

    @staticmethod
    def uniform() -> "PiecewiseConstantValuation":
        return PiecewiseConstantValuation((ZERO, ONE), (ONE,))

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """Interior breakpoints only."""
        return self.bounds[1:-1]

    def segments(self) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        for a, b, d in zip(self.bounds, self.bounds[1:], self.densities):
            yield a, b, d

    @property
    def is_hungry(self) -> bool:
        """True iff the density is strictly positive everywhere."""
        return all(d > 0 for d in self.densities)

    def density_at(self, x: Fraction) -> Fraction:
        """Density on the segment containing x (right-continuous; at 1, last)."""
        for a, b, d in self.segments():
            if a <= x < b:
                return d
        return self.densities[-1]

    def _overlaps(self, x: int, y: int, q: int) -> tuple[int, list[tuple[int, int, int]]]:
        """``(unit, overlaps)`` for the query [x/q, y/q], 0 <= x <= y <= q: each
        positive-density segment meeting it in more than a point as ``(lo, d,
        mass)``, lo its left end clipped to the query over ``unit = L * q``, d
        its density over M and mass its value on the query over ``unit * M``."""
        lcm_b, _, bounds, densities = self.integer_image
        x *= lcm_b
        y *= lcm_b
        out = []
        for lo, hi, d in zip(bounds, bounds[1:], densities):
            hi *= q
            if hi <= x:
                continue
            lo *= q
            if lo >= y:
                break
            if d:
                lo = x if lo < x else lo
                out.append((lo, d, d * ((y if hi > y else hi) - lo)))
        return lcm_b * q, out

    @staticmethod
    def _cut(overlaps: list[tuple[int, int, int]], unit: int, s: int,
             rest: int) -> tuple[int, int] | None:
        """The leftmost point where the ``overlaps`` of :meth:`_overlaps` reach
        value ``rest`` > 0 over ``s * unit * M``, as an unreduced ``(numerator,
        denominator)`` pair; None if they fall short."""
        for lo, d, mass in overlaps:
            mass *= s
            if mass >= rest:
                return lo * s * d + rest, s * unit * d
            rest -= mass
        return None

    def value_between(self, x: RationalLike, y: RationalLike) -> Fraction:
        """Exact value of the interval [x, y], summed in ints on the integer
        image with x and y over the lcm of their denominators."""
        x, y = frac(x), frac(y)
        q = math.lcm(x.denominator, y.denominator)
        xq, yq = x.numerator * (q // x.denominator), y.numerator * (q // y.denominator)
        if not 0 <= xq <= yq <= q:
            raise ValueError(f"interval [{x}, {y}] not within [0, 1]")
        unit, overlaps = self._overlaps(xq, yq, q)
        return Fraction(sum(mass for _, _, mass in overlaps), unit * self.integer_image[1])

    def value(self, piece: Piece) -> Fraction:
        """Exact value of a piece; additive over its intervals."""
        return sum((self.value_between(iv.lo, iv.hi) for iv in piece.intervals), ZERO)

    def cut_point(self, x: RationalLike, r: RationalLike) -> Fraction:
        """Leftmost y >= x with value_between(x, y) == r.

        Walks segments exactly in ints on the integer image, with r's
        denominator folded into the running value; cut_point(x, 0) == x by
        the leftmost convention.  Raises InfeasibleCutError if r exceeds the
        value of [x, 1].
        """
        x, r = frac(x), frac(r)
        q = x.denominator
        if r.numerator < 0 or not 0 <= x.numerator <= q:
            raise ValueError("need 0 <= x <= 1 and r >= 0")
        if r.numerator == 0:
            return x
        unit, overlaps = self._overlaps(x.numerator, q, q)
        m = self.integer_image[1]
        cut = self._cut(overlaps, unit, r.denominator, r.numerator * unit * m)
        if cut is None:
            remaining = Fraction(sum(mass for _, _, mass in overlaps), unit * m)
            raise InfeasibleCutError(f"requested value {r} exceeds remaining {remaining}")
        return Fraction(*cut)

    def _share_cut(self, aq: int, bq: int, q: int, num: int, s: int
                   ) -> tuple[int, int] | None:
        """``cut_point(a, num/s * value_between(a, b))`` for the node [a, b] =
        [aq/q, bq/q], as an unreduced ``(numerator, denominator)`` pair, or
        None when that share of the node's value is zero and the cut is a;
        the caller has checked 0 <= aq <= bq <= q and 0 <= num <= s.

        One walk keeps each positive-density overlap with its mass, in ints
        on the integer image, and the cut is found among those overlaps, so
        the segments are not walked from the start again.  The halving
        recursion's node step calls it with each node's ends over one q.
        """
        unit, overlaps = self._overlaps(aq, bq, q)
        rest = num * sum(mass for _, _, mass in overlaps)   # over s * unit * M
        return self._cut(overlaps, unit, s, rest) if rest else None


def normalized(breakpoints: Sequence[RationalLike], densities: Sequence[RationalLike]
               ) -> PiecewiseConstantValuation:
    """Rescale raw densities to unit total mass (fixture helper).

    Construction through PiecewiseConstantValuation.of rejects non-normalized
    input on purpose; this helper is the explicit opt-in.
    """
    bounds = [ZERO] + [frac(b) for b in breakpoints] + [ONE]
    dens = [frac(d) for d in densities]
    total = sum(d * (b - a) for a, b, d in zip(bounds, bounds[1:], dens))
    if total <= 0:
        raise ValueError("cannot normalize a zero valuation")
    return PiecewiseConstantValuation.of(bounds[1:-1], [d / total for d in dens])


class Profile(Record):
    """An ordered tuple of n >= 2 normalized valuations."""

    def __init__(self, valuations: tuple[PiecewiseConstantValuation, ...]) -> None:
        self.__dict__["valuations"] = valuations
        if len(valuations) < 2:
            raise ValueError("a profile needs at least two agents")

    @staticmethod
    def of(valuations: Iterable[PiecewiseConstantValuation]) -> "Profile":
        return Profile(tuple(valuations))

    @property
    def n(self) -> int:
        return len(self.valuations)

    def __getitem__(self, i: int) -> PiecewiseConstantValuation:
        return self.valuations[i]

    def __iter__(self) -> Iterator[PiecewiseConstantValuation]:
        return iter(self.valuations)

    def replace(self, i: int, v: PiecewiseConstantValuation) -> "Profile":
        vals = list(self.valuations)
        vals[i] = v
        return Profile(tuple(vals))


class Allocation(Record):
    """One piece per agent plus the discarded remainder."""

    def __init__(self, pieces: tuple[Piece, ...], discarded: Piece) -> None:
        self.__dict__.update(pieces=pieces, discarded=discarded)

    @staticmethod
    def of(pieces: Sequence[Piece]) -> "Allocation":
        """Build with the discarded piece inferred as the uncovered remainder."""
        covered = Piece.of(iv for p in pieces for iv in p.intervals)
        return Allocation(tuple(pieces), covered.complement())

    @property
    def n(self) -> int:
        return len(self.pieces)

    @property
    def is_contiguous(self) -> bool:
        return all(p.is_contiguous for p in self.pieces)

    def boundaries(self) -> list[Fraction]:
        pts = {ZERO, ONE}
        for p in self.pieces:
            pts.update(p.boundaries())
        return sorted(pts)


CellGrid = tuple[list[Fraction], list[int], int, list[list[int]],
                 list[list[tuple[int, int, Fraction]]]]


def cell_grid(profile: Profile, allocation: Allocation | None = None) -> CellGrid:
    """The merged breakpoint grid of a profile and, optionally, an allocation,
    as ``(points, keys, scale, owners, segments)``.

    ``points`` are the distinct endpoints of every agent's segments and of
    every allocated and discarded interval, in increasing order; cell k is
    [points[k], points[k+1]].  ``keys[k] == points[k] * scale`` is the exact
    integer numerator of points[k] over ``scale``, the lcm of every
    endpoint's denominator, so endpoints are sorted, deduplicated and
    matched as ints, and cell k is ``keys[k+1] - keys[k]`` wide in units of
    1/scale.  ``owners[k]`` lists the parts covering cell k in ascending
    order, where parts are the allocation's pieces followed by its discarded
    piece; ``segments[i]`` lists agent i's segments as ``(first cell, end
    cell, density)``.
    """
    parts = (*allocation.pieces, allocation.discarded) if allocation is not None else ()
    spans = [(i, iv) for i, part in enumerate(parts) for iv in part.intervals]
    ends = [x for v in profile for x in v.bounds]
    ends.extend(x for _, iv in spans for x in (iv.lo, iv.hi))
    factor = dict.fromkeys({x.denominator for x in ends})
    scale = math.lcm(*factor)
    for q in factor:
        factor[q] = scale // q
    keyed = [x.numerator * factor[x.denominator] for x in ends]
    point = dict(zip(keyed, ends))
    keys = sorted(point)
    index = {key: k for k, key in enumerate(keys)}
    at = [index[key] for key in keyed]
    segments = []
    start = 0
    for v in profile:
        bounds = at[start:start + len(v.bounds)]
        segments.append(list(zip(bounds, bounds[1:], v.densities)))
        start += len(v.bounds)
    owners: list[list[int]] = [[] for _ in keys[1:]]
    for (i, _), lo, hi in zip(spans, at[start::2], at[start + 1::2]):
        for k in range(lo, hi):
            if not owners[k] or owners[k][-1] != i:
                owners[k].append(i)
    return [point[key] for key in keys], keys, scale, owners, segments


def cells(profile: Profile, allocation: Allocation | None = None) -> Iterator[tuple]:
    """Sweep the merged grid of every agent's bounds and, given an allocation,
    its piece and discarded endpoints once, yielding for each cell
    ``(lo, hi, holders, discarded, densities)``: the agents whose piece covers
    it in ascending order (several only where pieces overlap), whether the
    discarded piece covers it, and every agent's density, constant on the
    cell.  The cells come from :func:`cell_grid`, which sorts and matches the
    endpoints as exact integer numerators over the lcm of their
    denominators, so no float enters and no ``Fraction`` is compared or
    hashed; ``lo`` and ``hi`` are the original ``Fraction`` endpoints.  The
    sweep is linear in the cells covered.
    """
    points, _, _, owners, segments = cell_grid(profile, allocation)
    discard = allocation.n if allocation is not None else -1
    columns = [list(chain.from_iterable(repeat(d, hi - lo) for lo, hi, d in agent))
               for agent in segments]
    for lo, hi, held, dens in zip(points, points[1:], owners, zip(*columns)):
        discarded = bool(held) and held[-1] == discard
        yield lo, hi, tuple(held[:-1] if discarded else held), discarded, dens


def validate_allocation(allocation: Allocation, profile: Profile) -> list[str]:
    """Check allocation invariants against a profile; [] means valid.

    Verifies pairwise interior-disjointness, coverage of the whole cake by
    agent pieces plus the discarded remainder, and the free-disposal rule:
    discarded cake must have zero density under every agent's valuation.
    """
    if allocation.n != profile.n:
        raise ValueError(f"allocation has {allocation.n} pieces for {profile.n} agents")
    # cells arrive in order, so each reported set of cells is already a
    # sorted span list; only the cells reported become intervals
    overlaps: dict[tuple[int, int], list[tuple[Fraction, Fraction]]] = {}
    missing: list[tuple[Fraction, Fraction]] = []
    wanted: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(profile.n)]
    for lo, hi, holders, discarded, densities in cells(profile, allocation):
        for pair in combinations(holders, 2):
            overlaps.setdefault(pair, []).append((lo, hi))
        if discarded:
            for i, d in enumerate(densities):
                if d > 0:
                    wanted[i].append((lo, hi))
        elif not holders:
            missing.append((lo, hi))
    problems = [f"overlap between agents {i} and {j} on {Piece.ordered(overlaps[i, j])}"
                for i, j in sorted(overlaps)]
    if missing:
        problems.append(f"uncovered cake {Piece.ordered(missing)}")
    problems.extend(f"free-disposal violation: agent {i} values discarded {Piece.ordered(w)}"
                    for i, w in enumerate(wanted) if w)
    return problems
