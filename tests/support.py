"""Helpers shared by the reference checks in the tests."""

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import ClassVar, Optional

from cakecut import cake
from cakecut.cake import ONE, ZERO, InfeasibleCutError, _inexact, frac


def support(v, positive=True):
    """The piece on which v's density is strictly positive, or with
    ``positive=False`` the piece on which it is zero."""
    return cake.Piece.of(cake.Interval(a, b) for a, b, d in v.segments()
                         if (d > 0) == positive)


# Reference records: the package's value classes as they were defined with
# ``@dataclass(frozen=True)`` (``order=True`` for Interval), with their
# fields, defaults, checks and custom reprs but none of their other methods.
# Each carries its package twin's name, so reprs compare as they are; the
# records of cakecut.cake.Record must match them in ==, hash, repr, ordering
# and every error.


@dataclass(frozen=True, order=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi       # compared as ints: denominators are positive
        try:
            within = (0 <= lo.numerator and hi.numerator <= hi.denominator
                      and lo.numerator * hi.denominator <= hi.numerator * lo.denominator)
        except AttributeError:
            raise _inexact((lo, hi)) from None
        if not within:
            raise ValueError(f"interval [{lo}, {hi}] not within [0, 1]")

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class Piece:
    intervals: tuple[Interval, ...] = ()

    def __repr__(self) -> str:
        if not self.intervals:
            return "{}"
        return " ∪ ".join(repr(iv) for iv in self.intervals)


@dataclass(frozen=True)
class PiecewiseConstantValuation:
    bounds: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # every check runs on the integer image, which is kept for the walks
        try:
            lcm_b = math.lcm(*(b.denominator for b in self.bounds))
            lcm_d = math.lcm(*(d.denominator for d in self.densities))
        except AttributeError:
            raise _inexact(chain(self.bounds, self.densities)) from None
        bounds = tuple([b.numerator * (lcm_b // b.denominator) for b in self.bounds])
        densities = tuple([d.numerator * (lcm_d // d.denominator) for d in self.densities])
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
        object.__setattr__(self, "integer_image", (lcm_b, lcm_d, bounds, densities))


@dataclass(frozen=True)
class Profile:
    valuations: tuple[PiecewiseConstantValuation, ...]

    def __post_init__(self) -> None:
        if len(self.valuations) < 2:
            raise ValueError("a profile needs at least two agents")


@dataclass(frozen=True)
class Allocation:
    pieces: tuple[Piece, ...]
    discarded: Piece


@dataclass(frozen=True)
class Mechanism:
    name: str
    run: Callable[[Profile], Allocation]


@dataclass(frozen=True)
class PropertyReport:
    proportionality_deficit: Fraction
    envy: Fraction
    wasted_measure: Fraction
    contiguous: bool


@dataclass(frozen=True)
class Certificate:
    kind: ClassVar[str]
    mechanism: str
    profile: Profile


@dataclass(frozen=True)
class GainCertificate(Certificate):
    kind = "gain"
    agent: int
    misreport: PiecewiseConstantValuation
    truthful_value: Fraction
    deviated_value: Fraction
    gain: Fraction


@dataclass(frozen=True)
class PropertyCertificate(Certificate):
    kind = "report"
    report: PropertyReport


@dataclass(frozen=True)
class SearchConfig:
    mass_denominator: int = 4
    max_breakpoints: int = 2
    offset_rounds: int = 1
    max_candidates: Optional[int] = 64
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("mass_denominator", 1), ("max_breakpoints", 0),
                            ("offset_rounds", 0), ("max_candidates", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"SearchConfig.{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class ChainParameters:
    n: int
    eps1: Fraction = ZERO
    eps2: Fraction = ZERO
    overrides: tuple[tuple[str, Fraction], ...] = ()


@dataclass(frozen=True)
class ViolationWitness:
    chain: str
    mechanism: str
    violated: str
    epsilon: Fraction
    certificate: Certificate
    profiles: tuple[Profile, ...]
    parameters: tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class LearnedValuation:
    valuation: PiecewiseConstantValuation
    queries_used: int
    epsilon: Fraction
    k: int


@dataclass(frozen=True)
class LiftRun:
    allocation: Allocation
    learned: Profile
    queries: int


@dataclass(frozen=True)
class LiftedMechanism:
    base: Mechanism
    k: int
    epsilon: Fraction


RECORDS = {cls.__name__: cls for cls in (
    Interval, Piece, PiecewiseConstantValuation, Profile, Allocation, Mechanism,
    PropertyReport, Certificate, GainCertificate, PropertyCertificate, SearchConfig,
    ChainParameters, ViolationWitness, LearnedValuation, LiftRun, LiftedMechanism)}


def check_valuation(bounds, densities):
    """The earlier Fraction body of PiecewiseConstantValuation.__post_init__:
    raise ValueError where construction must refuse ``(bounds, densities)``."""
    if len(bounds) < 2 or bounds[0] != ZERO or bounds[-1] != ONE:
        raise ValueError("bounds must run from 0 to 1")
    if len(densities) != len(bounds) - 1:
        raise ValueError("need one density per segment")
    for a, b in zip(bounds, bounds[1:]):
        if not a < b:
            raise ValueError("bounds must be strictly increasing")
    if any(d < 0 for d in densities):
        raise ValueError("densities must be non-negative")
    for d, e in zip(densities, densities[1:]):
        if d == e:
            raise ValueError("adjacent equal densities; construct via of()")
    total = sum(d * (b - a) for a, b, d in zip(bounds, bounds[1:], densities))
    if total != 1:
        raise ValueError(f"valuation has total mass {total}, expected exactly 1")


# Reference segment walks on Fraction arithmetic: the earlier bodies of
# PiecewiseConstantValuation.value_between and cut_point, with ``self`` as
# ``v``, and of the one-pass node cut that mechanisms._node_step now takes
# for each agent.  The kernel's integer walks must agree with them.


def value_between(v, x, y):
    """Exact value of the interval [x, y]."""
    x, y = frac(x), frac(y)
    if not (ZERO <= x <= y <= ONE):
        raise ValueError(f"interval [{x}, {y}] not within [0, 1]")
    total = ZERO
    for a, b, d in v.segments():
        lo, hi = max(a, x), min(b, y)
        if lo < hi:
            total += d * (hi - lo)
    return total


def cut_point(v, x, r):
    """Leftmost y >= x with value_between(x, y) == r."""
    x, r = frac(x), frac(r)
    if r < 0 or not (ZERO <= x <= ONE):
        raise ValueError("need 0 <= x <= 1 and r >= 0")
    if r == 0:
        return x
    acc = ZERO
    for a, b, d in v.segments():
        lo = max(a, x)
        if lo >= b:
            continue
        mass = d * (b - lo)
        if d > 0 and acc + mass >= r:
            return lo + (r - acc) / d
        acc += mass
    raise InfeasibleCutError(f"requested value {r} exceeds remaining {acc}")


def node_cut(v, a, b, share):
    """``cut_point(a, share * value_between(a, b))`` for 0 <= share <= 1."""
    if not (ZERO <= a <= b <= ONE and ZERO <= share <= ONE):
        raise ValueError("need 0 <= a <= b <= 1 and 0 <= share <= 1")
    bounds = v.bounds
    overlaps = []
    total = ZERO
    for lo, hi, d in zip(bounds, bounds[1:], v.densities):
        if hi <= a:
            continue
        if lo >= b:
            break
        if d:
            lo = a if lo < a else lo
            mass = d * ((b if hi > b else hi) - lo)
            total += mass
            overlaps.append((lo, d, mass))
    rest = share * total
    if rest:
        for lo, d, mass in overlaps:
            if mass >= rest:
                return lo + rest / d
            rest -= mass
    return a


# Reference Even-Paz and modified Even-Paz, written from the paper's
# description: each agent of a node [a, b] reports the point splitting its
# value of the node in the floor(k/2) : ceil(k/2) ratio; the first floor(k/2)
# agents in (cut, index) order take the cake left of the floor(k/2)-th cut,
# the others the cake right of it.  Modified Even-Paz gives the others the
# cake right of the next cut instead, and the cake between the two cuts is
# shared among all k agents by plain Even-Paz.  No table, no integer image.


def halving(profile, share_middle):
    """Each agent's ``(lo, hi)`` spans, left to right; a leaf adds one only
    when it is not empty."""
    spans = [[] for _ in range(profile.n)]

    def solve(a, b, agents, share_middle):
        k = len(agents)
        if k == 1:
            if a < b:
                spans[agents[0]].append((a, b))
            return
        half = k // 2
        cuts = sorted((node_cut(profile[i], a, b, Fraction(half, k)), i) for i in agents)
        d_lo, d_hi = cuts[half - 1][0], cuts[half][0]
        left, right = [i for _, i in cuts[:half]], [i for _, i in cuts[half:]]
        solve(a, d_lo, left, share_middle)
        if not share_middle:
            solve(d_lo, b, right, False)
            return
        if d_lo < d_hi:
            solve(d_lo, d_hi, agents, False)
        solve(d_hi, b, right, True)

    solve(ZERO, ONE, list(range(profile.n)), share_middle)
    return spans
