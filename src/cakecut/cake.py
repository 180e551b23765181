"""Exact-arithmetic primitives for cake cutting over the unit interval.

The cake is [0, 1].  Everything here is computed with ``fractions.Fraction``:
interval endpoints, step-function densities, measures, and values.  No floats
enter any computation, so every comparison made by mechanisms, checkers, and
counterexample chains downstream is an exact decision.  The cell sweep
(:func:`cell_grid`) places every endpoint at an exact integer numerator over one
common denominator, the lcm of the endpoints' denominators, so it sorts,
indexes and measures cells with plain ints and still decides exactly; eval
and cut do the same on a valuation's ``integer_image``, one bisection each
on its prefix masses, and build one ``Fraction`` per result; every
step-function builder ends in :func:`_merged`, on ints, and the checks are
stated once, in :func:`_image`.  The public queries are the Robertson-Webb
eval (``value_between``) and cut (``cut_point``), which read their arguments
through :func:`frac`, and ``value``, eval over a piece; eval, ``value`` and
a gain search's score of a halving walk are one integer sum of P(y) - P(x)
over spans, P the prefix mass.  The halving recursion's node cuts are int
pairs from the same bisections.  The cell sweep's consumers (:func:`cells`,
:func:`validate_allocation`) work on the grid's int keys too, and
:func:`_wanting` alone decides who wants a cell.
Strings are parsed exactly too; a decimal exponent beyond
``MAX_DECIMAL_EXPONENT`` is refused before ``Fraction`` can expand it.

Pieces are built in two ways: :meth:`Piece.of` sorts intervals given in any
order, and :meth:`Piece.ordered` takes ``(lo, hi)`` int-key spans already
in increasing order (as the mechanisms and the cell sweep produce them),
merges touching neighbours without sorting, refuses input that is not and
reads kept keys through :class:`KeyedPoints`, the one key-to-point table.

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
may be shared between threads.  An allocation keeps its last
:func:`cell_grid` the same way, with a weak reference to its profile, and a
profile its halving allocations, so one profile's work is not redone.
Intervals and valuations refuse a float with :func:`frac`'s ``TypeError``.
"""

from __future__ import annotations

import math
import re
from bisect import bisect, bisect_left
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import total_ordering
from itertools import accumulate, chain, combinations, repeat
from operator import eq, lt, mul, sub
from weakref import ref

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

    @staticmethod
    def _checked(lo: Fraction, hi: Fraction) -> "Interval":
        """The interval [lo, hi], which the caller has checked."""
        iv = object.__new__(Interval)
        iv.__dict__.update(lo=lo, hi=hi)
        return iv

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


class KeyedPoints(dict):
    """Points of the cake by int key over ``scale``: a key given at
    construction reads as the ``Fraction`` given with it, any other key as
    one new ``Fraction`` of key / scale, built when first read."""

    def __init__(self, scale: int, items: Iterable[tuple[int, Fraction]]) -> None:
        super().__init__(items)
        self.scale = scale

    def __missing__(self, key: int) -> Fraction:
        self[key] = point = Fraction(key, self.scale)
        return point

    def over(self, c: int) -> "KeyedPoints":
        """The same points with their keys over ``scale * c``."""
        return KeyedPoints(self.scale * c, [(key * c, x) for key, x in self.items()])


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
    def ordered(spans: Iterable[tuple[int, int]], points: KeyedPoints) -> "Piece":
        """Build from ``(lo, hi)`` spans of int keys over ``points.scale``,
        already in increasing order.

        Only touching neighbours are merged and nothing is sorted, so this is
        linear in the spans.  Raises ValueError on an empty span, one that
        starts before the previous one ends or ends outside [0, scale]: the
        result is always canonical.  A kept key reads as ``points[key]``,
        and messages show those ``Fraction``s.
        """
        merged: list[list[int]] = []
        for lo, hi in spans:
            if not lo < hi:
                raise ValueError(f"empty span [{points[lo]}, {points[hi]}]")
            if merged and lo == merged[-1][1]:
                merged[-1][1] = hi
            elif merged and lo < merged[-1][1]:
                raise ValueError(f"span [{points[lo]}, {points[hi]}] "
                                 f"starts before {points[merged[-1][1]]}")
            else:
                merged.append([lo, hi])
        if merged and not (0 <= merged[0][0] and merged[-1][1] <= points.scale):
            lo, hi = merged[0] if merged[0][0] < 0 else merged[-1]
            raise ValueError(f"interval [{points[lo]}, {points[hi]}] not within [0, 1]")
        return Piece(tuple([Interval._checked(points[lo], points[hi]) for lo, hi in merged]))

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


def _keys(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(L, keys)``: L the lcm of the values' denominators and each key the
    value times L, as ints."""
    scale = math.lcm(*(x.denominator for x in values))
    return scale, tuple([x.numerator * (scale // x.denominator) for x in values])


def _increasing(keys: Sequence[int]) -> None:
    """Raise ValueError unless the bound keys strictly increase."""
    if not all(map(lt, keys, keys[1:])):
        raise ValueError("bounds must be strictly increasing")


def _image(lcm_b: int, keys: tuple[int, ...], lcm_d: int, weights: tuple[int, ...]) -> tuple:
    """The integer image of bounds `keys` over `lcm_b` and densities
    `weights` over `lcm_d`, with its prefix masses, after every validity
    check of a valuation: the constructor and :func:`_merged` both end here."""
    if len(keys) < 2 or keys[0] != 0 or keys[-1] != lcm_b:
        raise ValueError("bounds must run from 0 to 1")
    if len(weights) != len(keys) - 1:
        raise ValueError("need one density per segment")
    _increasing(keys)
    if min(weights) < 0:
        raise ValueError("densities must be non-negative")
    # canonical form: no adjacent segments with the same density
    if any(map(eq, weights, weights[1:])):
        raise ValueError("adjacent equal densities; construct via of()")
    prefix = tuple(accumulate(map(mul, weights, map(sub, keys[1:], keys)), initial=0))
    if prefix[-1] != lcm_b * lcm_d:
        raise ValueError(f"valuation has total mass {Fraction(prefix[-1], lcm_b * lcm_d)}, "
                         "expected exactly 1")
    return lcm_b, lcm_d, keys, weights, prefix


def _merged(scale: int, keys: Sequence[int], masses: Sequence[int], d: int
            ) -> tuple[tuple, list[int]]:
    """The one step-function builder, on ints: the checked integer image of
    bounds `keys` over `scale` (0 first, `scale` last) and segment masses
    `masses` over `d`, equal neighbours merged, and the indices of the keys
    kept.  Order is checked before merging, which would hide a repeated
    bound.  A segment joins the run before it when their masses and widths
    cross-multiply equally; a run's density is its first segment's, ``m *
    scale / (d * width)`` in lowest terms, and L is ``scale // gcd(scale,
    *kept keys)``, so the image is the one the constructor computes."""
    _increasing(keys)
    kept = [0]
    nums: list[int] = []            # each run's density, in lowest terms
    dens: list[int] = []
    before = 0, 0                   # the previous segment's (mass, width)
    for j, m in enumerate(masses, 1):
        w = keys[j] - keys[j - 1]
        if j > 1 and m * before[1] == before[0] * w:
            kept[-1] = j
        else:
            kept.append(j)
            num, den = m * scale, d * w
            g = math.gcd(num, den)
            nums.append(num // g)
            dens.append(den // g)
        before = m, w
    bounds = [keys[k] for k in kept]
    step = math.gcd(scale, *bounds)
    lcm_d = math.lcm(*dens)
    return _image(scale // step, tuple([k // step for k in bounds]), lcm_d,
                  tuple([num * (lcm_d // den) for num, den in zip(nums, dens)])), kept


class PiecewiseConstantValuation(Record):
    """A normalized step-function density over the cake.

    ``bounds`` is the full breakpoint sequence 0 = b_0 < ... < b_{m+1} = 1 and
    ``densities`` holds one non-negative density per segment [b_j, b_{j+1}].
    Canonical form merges adjacent segments of equal density, so the interior
    breakpoint count is exact.  Total mass must be exactly 1; non-normalized
    input is rejected (use :func:`normalized` to rescale fixtures).  Every
    bound and density is an int or a ``Fraction``; a float is refused.

    Construction computes ``integer_image == (L, M, bounds * L, densities *
    M, prefix)`` as plain ints, L the lcm of the bounds' denominators, M of
    the densities' and ``prefix[j]`` the mass left of bound j over ``L *
    M``, runs every check on it and keeps it as an attribute that is not a
    field: it is a pure function of the fields, so it stays out of
    equality, hashing, ``repr`` and JSON.  Eval and cut run on it.
    """

    def __init__(self, bounds: tuple[Fraction, ...], densities: tuple[Fraction, ...]
                 ) -> None:
        self.__dict__.update(bounds=bounds, densities=densities)
        # every check runs on the integer image, which is kept for eval and cut
        try:
            (lcm_b, keys), (lcm_d, weights) = _keys(bounds), _keys(densities)
        except AttributeError:
            raise _inexact(chain(bounds, densities)) from None
        self.__dict__["integer_image"] = _image(lcm_b, keys, lcm_d, weights)

    @staticmethod
    def _checked(bounds: Sequence[Fraction], densities: Sequence[Fraction], image: tuple
                 ) -> "PiecewiseConstantValuation":
        """The valuation with these fields and the integer image that
        :func:`_merged` built and checked for them."""
        v = object.__new__(PiecewiseConstantValuation)
        v.__dict__.update(bounds=tuple(bounds), densities=tuple(densities),
                          integer_image=image)
        return v

    @staticmethod
    def of(breakpoints: Sequence[RationalLike], densities: Sequence[RationalLike]
           ) -> "PiecewiseConstantValuation":
        """Build from interior breakpoints and per-segment densities, merging
        neighbouring segments of equal density: both are keyed once, and
        :func:`_merged` takes each segment's density times its width."""
        bounds = [ZERO, *map(frac, breakpoints), ONE]
        dens = [frac(d) for d in densities]
        if len(dens) != len(bounds) - 1:
            raise ValueError("need one density per segment")
        (scale, keys), (lcm_d, weights) = _keys(bounds), _keys(dens)
        image, kept = _merged(scale, keys, [
            w * (b - a) for a, b, w in zip(keys, keys[1:], weights)], lcm_d * scale)
        return PiecewiseConstantValuation._checked(
            [bounds[k] for k in kept], [dens[k] for k in kept[:-1]], image)

    @staticmethod
    def from_masses(points: Sequence[RationalLike], masses: Sequence[RationalLike]
                    ) -> "PiecewiseConstantValuation":
        """Build from interior breakpoints and per-segment total masses, one
        mass per segment: both are keyed once for :func:`_merged`, and each
        density is one ``Fraction`` read off the integer image."""
        bounds = [ZERO, *map(frac, points), ONE]
        masses = [frac(m) for m in masses]
        if len(masses) != len(bounds) - 1:
            raise ValueError("need one mass per segment")
        (scale, keys), (d, numerators) = _keys(bounds), _keys(masses)
        image, kept = _merged(scale, keys, numerators, d)
        return PiecewiseConstantValuation._checked(
            [bounds[k] for k in kept], [Fraction(w, image[1]) for w in image[3]], image)

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

    def _mass(self, x: int, q: int) -> int:
        """P(x/q), the value of [0, x/q] for 0 <= x <= q, over ``L * q * M``:
        the prefix mass of the segment that holds x, found by one bisection
        on the bound keys, plus its density times the part of it left of x."""
        lcm_b, _, bounds, densities, prefix = self.integer_image
        x *= lcm_b
        j = bisect(bounds, x, 1, len(densities), key=q.__mul__) - 1
        return prefix[j] * q + densities[j] * (x - bounds[j] * q)

    def _inverse(self, target: int, s: int, q: int) -> tuple[int, int]:
        """The leftmost point whose :meth:`_mass` reaches ``target`` over ``s
        * L * q * M``, 0 < target <= s * L * q * M, as an unreduced
        ``(numerator, denominator)`` pair: one bisection finds the first
        prefix mass that reaches the target, and the segment before it has
        positive density."""
        lcm_b, _, bounds, densities, prefix = self.integer_image
        j = bisect_left(prefix, target, key=(s * q).__mul__) - 1
        d = densities[j]
        return target + s * q * (d * bounds[j] - prefix[j]), s * lcm_b * q * d

    def value_between(self, x: RationalLike, y: RationalLike) -> Fraction:
        """Exact value of the interval [x, y], which :class:`Interval` checks
        lies within the cake: :meth:`_spans_value` of that one span."""
        iv = Interval(frac(x), frac(y))
        return self._spans_value([(iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio())])

    def value(self, piece: Piece) -> Fraction:
        """Exact value of a piece: :meth:`_spans_value` of its intervals."""
        return self._spans_value([(iv.lo.as_integer_ratio(), iv.hi.as_integer_ratio())
                                  for iv in piece.intervals])

    def cut_point(self, x: RationalLike, r: RationalLike) -> Fraction:
        """Leftmost y >= x with value_between(x, y) == r: the first answer
        of :meth:`_cuts`.  cut_point(x, 0) == x by the leftmost convention.
        Raises InfeasibleCutError if r exceeds the value of [x, 1].
        """
        return next(self._cuts(frac(x), frac(r), 1))

    def _cuts(self, x: Fraction, r: Fraction, count: int) -> Iterator[Fraction]:
        """`count` chained cuts, yielded in turn: y_1 = cut_point(x, r) and
        y_j = cut_point(y_(j-1), r).  Under the leftmost convention P(y_j) =
        P(x) + j·r exactly, P the prefix mass, so the chain is one
        :meth:`_mass` and one :meth:`_inverse` per answer, in ints, with r's
        denominator folded into the targets; an infeasible cut raises
        InfeasibleCutError when it is reached."""
        q = x.denominator
        if r.numerator < 0 or not 0 <= x.numerator <= q:
            raise ValueError("need 0 <= x <= 1 and r >= 0")
        if r.numerator == 0:
            yield from repeat(x, count)
            return
        lcm_b, lcm_d = self.integer_image[:2]
        whole, s = lcm_b * q * lcm_d, r.denominator
        target, step = s * self._mass(x.numerator, q), r.numerator * whole   # over s * whole
        for _ in range(count):
            if target + step > s * whole:
                remaining = Fraction(s * whole - target, s * whole)
                raise InfeasibleCutError(f"requested value {r} exceeds remaining {remaining}")
            target += step
            yield Fraction(*self._inverse(target, s, q))

    def _share_cut(self, aq: int, bq: int, q: int, num: int, s: int
                   ) -> tuple[int, int] | None:
        """``cut_point(a, num/s * value_between(a, b))`` for the node [a, b] =
        [aq/q, bq/q], as an unreduced ``(numerator, denominator)`` pair, or
        None when that share of the node's value is zero and the cut is a;
        the caller has checked 0 <= aq <= bq <= q and 0 <= num <= s.

        The node's value is P(b) - P(a) and the cut one :meth:`_inverse`
        from P(a), in ints on the integer image.  The halving recursion's
        node step calls it with each node's ends over one q.
        """
        start = self._mass(aq, q)
        rest = num * (self._mass(bq, q) - start)                # over s * L * q * M
        return self._inverse(s * start + rest, s, q) if rest else None

    def _spans_value(self, spans: Sequence[tuple[tuple[int, int], tuple[int, int]]]
                     ) -> Fraction:
        """Exact value of the spans ``((x_num, x_den), (y_num, y_den))``, 0 <=
        x <= y <= 1, as one ``Fraction``: the ends go over q, the lcm of their
        denominators, and each span's P(y) - P(x) is summed in ints."""
        q = math.lcm(*(den for span in spans for _, den in span))
        total = sum(self._mass(yn * (q // yd), q) - self._mass(xn * (q // xd), q)
                    for (xn, xd), (yn, yd) in spans)
        lcm_b, lcm_d = self.integer_image[:2]
        return Fraction(total, lcm_b * q * lcm_d)


def normalized(breakpoints: Sequence[RationalLike], densities: Sequence[RationalLike]
               ) -> PiecewiseConstantValuation:
    """Rescale raw densities to unit total mass (fixture helper).

    Construction through PiecewiseConstantValuation.of rejects non-normalized
    input on purpose; this helper is the explicit opt-in.  Both are keyed
    once, each segment's mass is its density key times its width key, and
    :func:`_merged` takes the masses over their int total.
    """
    bounds = [ZERO, *map(frac, breakpoints), ONE]
    dens = [frac(d) for d in densities]
    (scale, keys), (_, weights) = _keys(bounds), _keys(dens)
    masses = [w * (b - a) for a, b, w in zip(keys, keys[1:], weights)]
    total = sum(masses)
    if total <= 0:
        raise ValueError("cannot normalize a zero valuation")
    if len(dens) != len(bounds) - 1:
        raise ValueError("need one density per segment")
    image, kept = _merged(scale, keys, masses, total)
    return PiecewiseConstantValuation._checked(
        [bounds[k] for k in kept], [Fraction(w, image[1]) for w in image[3]], image)


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


CellGrid = tuple[KeyedPoints, list[int], list[list[int]],
                 list[list[tuple[int, int, Fraction]]]]


def cell_grid(profile: Profile, allocation: Allocation | None = None) -> CellGrid:
    """The merged breakpoint grid of a profile and, optionally, an allocation,
    as ``(points, keys, owners, segments)``.

    ``keys`` are the distinct endpoints of every agent's segments and of
    every allocated and discarded interval, in increasing order, each as
    the exact integer numerator of the endpoint over ``points.scale``, the
    lcm of every endpoint's denominator; cell k is [keys[k], keys[k+1]], so
    endpoints are sorted, deduplicated and matched as ints, and cell k is
    ``keys[k+1] - keys[k]`` wide in units of 1/scale.  ``points`` reads
    each key as the endpoint's own ``Fraction``.  ``owners[k]`` lists the
    parts covering cell k in ascending order, where parts are the
    allocation's pieces followed by its discarded piece; ``segments[i]``
    lists agent i's segments as ``(first cell, end cell, density)``.

    The allocation keeps the grid it gets, with a weak reference to the
    profile it was built for, as an attribute that is not a field, so it
    stays out of equality, hashing, ``repr`` and JSON: a second call with
    the same allocation and the same profile object (``is``, not ``==``)
    returns the same grid, and :func:`validate_allocation` and
    ``properties.report_for`` share one build.  A profile keeps its halving
    allocations, so a strong reference would make a cycle.  The grid is
    shared, so its ``keys``, ``owners`` and ``segments`` lists are
    read-only; ``points`` only adds the keys it is asked for.  A grid with
    no allocation is not kept.
    """
    if allocation is not None:
        kept = allocation.__dict__.get("_cell_grid")
        if kept is not None and kept[0]() is profile:
            return kept[1]
    parts = (*allocation.pieces, allocation.discarded) if allocation is not None else ()
    spans = [(i, iv) for i, part in enumerate(parts) for iv in part.intervals]
    ends = [x for v in profile for x in v.bounds]
    ends.extend(x for _, iv in spans for x in (iv.lo, iv.hi))
    ratios = [x.as_integer_ratio() for x in ends]
    factor = dict.fromkeys({q for _, q in ratios})
    scale = math.lcm(*factor)
    for q in factor:
        factor[q] = scale // q
    keyed = [p * factor[q] for p, q in ratios]
    points = KeyedPoints(scale, zip(keyed, ends))
    keys = sorted(points)
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
    grid = points, keys, owners, segments
    if allocation is not None:
        allocation.__dict__["_cell_grid"] = ref(profile), grid
    return grid


def _wanting(segments: list[list[tuple[int, int, Fraction]]], ks: Sequence[int]
             ) -> list[list[int]]:
    """For each of the increasing cell indices `ks` of :func:`cell_grid`'s
    `segments`, the agents who want the cell, ascending: the one statement
    of that rule, positive density there."""
    wanting: list[list[int]] = [[] for _ in ks]
    for i, agent in enumerate(segments):
        j = 0
        for _, hi, d in agent:          # an agent's segments tile the cells in order
            start, j = j, bisect_left(ks, hi, j)
            if d:                       # densities are non-negative
                for want in wanting[start:j]:
                    want.append(i)
    return wanting


def cells(profile: Profile, allocation: Allocation | None = None
          ) -> tuple[KeyedPoints, list[tuple]]:
    """Sweep the merged grid of every agent's bounds and, given an allocation,
    its piece and discarded endpoints once: :func:`cell_grid`'s ``points``
    and a row ``(lo, hi, holders, wanting)`` per cell in order, with its ends
    as the grid's int keys, the agents whose piece covers it (several only
    where pieces overlap; the discarded piece is not one) and the agents who
    want it (:func:`_wanting`), agents in ascending order.  The sweep is
    linear in the cells covered.
    """
    points, keys, owners, segments = cell_grid(profile, allocation)
    discard = allocation.n if allocation is not None else -1
    rows = []
    for lo, hi, held, want in zip(keys, keys[1:], owners,
                                  _wanting(segments, range(len(owners)))):
        rows.append((lo, hi, held[:-1] if held and held[-1] == discard else held, want))
    return points, rows


def validate_allocation(allocation: Allocation, profile: Profile) -> list[str]:
    """Check allocation invariants against a profile; [] means valid.

    Verifies that the agents' pieces are interior-disjoint, from each other
    and from the discarded piece, that they and the discarded remainder
    cover the cake, and free disposal: discarded cake must have zero density
    under every agent's valuation.  Who wants a cell is asked only of the
    discarded cells.  The sweep reads the :func:`cell_grid` the allocation
    keeps for this profile object, which ``properties.report_for`` shares.
    """
    n = profile.n
    if allocation.n != n:
        raise ValueError(f"allocation has {allocation.n} pieces for {n} agents")
    points, keys, owners, segments = cell_grid(profile, allocation)
    # cells arrive in order, so each reported set of cells is already a
    # sorted list of key spans; only the cells reported become intervals
    overlaps: dict[tuple[int, int], list[tuple[int, int]]] = {}    # part n: discarded
    missing: list[tuple[int, int]] = []
    dropped: list[int] = []             # the discarded cells
    for k, held in enumerate(owners):
        if len(held) == 1 and held[0] < n:
            continue
        span = keys[k], keys[k + 1]
        if not held:
            missing.append(span)
            continue
        if held[-1] == n:
            dropped.append(k)
        for pair in combinations(held, 2):
            overlaps.setdefault(pair, []).append(span)
    wanted: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, want in zip(dropped, _wanting(segments, dropped)):
        for i in want:
            wanted[i].append((keys[k], keys[k + 1]))
    if not (overlaps or missing or any(wanted)):
        return []
    pairs = sorted(overlaps)
    problems = [f"overlap between agents {i} and {j} on {Piece.ordered(overlaps[i, j], points)}"
                for i, j in pairs if j < n]
    problems.extend(f"overlap between agent {i} and the discarded piece on "
                    f"{Piece.ordered(overlaps[i, j], points)}" for i, j in pairs if j == n)
    if missing:
        problems.append(f"uncovered cake {Piece.ordered(missing, points)}")
    problems.extend(f"free-disposal violation: agent {i} values discarded "
                    f"{Piece.ordered(w, points)}" for i, w in enumerate(wanted) if w)
    return problems
