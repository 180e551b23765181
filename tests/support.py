"""Helpers shared by the reference checks in the tests."""

import math
from bisect import bisect
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import ClassVar, Optional

from cakecut import cake, mechanisms, properties
from cakecut.cake import ONE, ZERO, InfeasibleCutError, _inexact, frac


def support(v, positive=True):
    """The piece on which v's density is strictly positive, or with
    ``positive=False`` the piece on which it is zero."""
    return cake.Piece.of(cake.Interval(a, b) for a, b, d in v.segments()
                         if (d > 0) == positive)


def reduced_pair(x):
    """Whether x is a point as the halving recursion carries it: a reduced
    ``(numerator, denominator)`` int pair."""
    return (type(x) is tuple and len(x) == 2 and all(type(i) is int for i in x)
            and x[1] > 0 and math.gcd(*x) == 1)


def boundaries(allocation):
    """0, 1 and the ends of every allocated interval, sorted and distinct."""
    points = {ZERO, ONE}
    for piece in allocation.pieces:
        points.update(piece.boundaries())
    return sorted(points)


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
        # every check runs on the integer image, which is kept for eval and cut
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
        prefix = [0]
        for a, b, d in zip(bounds, bounds[1:], densities):
            prefix.append(prefix[-1] + d * (b - a))
        if prefix[-1] != lcm_b * lcm_d:
            raise ValueError(f"valuation has total mass {Fraction(prefix[-1], lcm_b * lcm_d)}, "
                             "expected exactly 1")
        object.__setattr__(self, "integer_image",
                           (lcm_b, lcm_d, bounds, densities, tuple(prefix)))


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


# Reference step-function builders on Fraction arithmetic: the earlier bodies
# of PiecewiseConstantValuation.of and from_masses, and of cake.normalized.
# The builders on integer keys must agree with them, except that from_masses
# now refuses a mass past the last segment, which zip dropped, and a segment
# of zero width, which divided by zero.


def of(breakpoints, densities):
    """Build from interior breakpoints and per-segment densities."""
    bounds = [ZERO] + [frac(b) for b in breakpoints] + [ONE]
    dens = [frac(d) for d in densities]
    if len(dens) != len(bounds) - 1:
        raise ValueError("need one density per segment")
    if not all(a < b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("bounds must be strictly increasing")
    merged_b = [bounds[0]]
    merged_d = []
    for b, d in zip(bounds[1:], dens):
        if merged_d and d == merged_d[-1]:
            merged_b[-1] = b
        else:
            merged_b.append(b)
            merged_d.append(d)
    return cake.PiecewiseConstantValuation(tuple(merged_b), tuple(merged_d))


def from_masses(points, masses):
    """Build from interior breakpoints and per-segment total masses."""
    bounds = [ZERO] + [frac(p) for p in points] + [ONE]
    dens = [frac(m) / (b - a) for a, b, m in zip(bounds, bounds[1:], masses)]
    return of(bounds[1:-1], dens)



def normalized(breakpoints, densities):
    """Rescale raw densities to unit total mass."""
    bounds = [ZERO] + [frac(b) for b in breakpoints] + [ONE]
    dens = [frac(d) for d in densities]
    total = sum(d * (b - a) for a, b, d in zip(bounds, bounds[1:], dens))
    if total <= 0:
        raise ValueError("cannot normalize a zero valuation")
    return cake.PiecewiseConstantValuation.of(bounds[1:-1], [d / total for d in dens])

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


def share_cut(v, aq, bq, q, num, s):
    """``PiecewiseConstantValuation._share_cut`` as the segment walk on the
    first four entries of ``v.integer_image`` spelled it before prefix
    masses: the node [aq/q, bq/q] and the cut as the same unreduced
    ``(numerator, denominator)`` pair, or None when the share is zero."""
    lcm_b, _, bounds, densities = v.integer_image[:4]
    x, y, unit = aq * lcm_b, bq * lcm_b, lcm_b * q
    overlaps = []       # (lo over unit, density over M, mass over unit * M)
    for lo, hi, d in zip(bounds, bounds[1:], densities):
        hi *= q
        if hi <= x:
            continue
        lo *= q
        if lo >= y:
            break
        if d:
            lo = x if lo < x else lo
            overlaps.append((lo, d, d * ((y if hi > y else hi) - lo)))
    rest = num * sum(mass for _, _, mass in overlaps)   # over s * unit * M
    if rest:
        for lo, d, mass in overlaps:
            mass *= s
            if mass >= rest:
                return lo * s * d + rest, s * unit * d
            rest -= mass
    return None


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


# Reference candidate sets of the gain engines on Fraction arithmetic: the
# earlier bodies of properties._candidate_points and _node_candidates, the
# latter with the planner's earlier rank filter, a bisect over (Fraction,
# agent) pairs.  The engines now collect both on integer keys, and the
# planner builds only the candidates of the rank window; they must agree.


def candidate_points(profile, truthful, offset_rounds):
    """The grid engine's sorted pool of breakpoint candidates."""
    base = set()
    for v in profile:
        base.update(v.breakpoints)
    base.update(p for p in boundaries(truthful) if ZERO < p < ONE)
    anchored = sorted(base | {ZERO, ONE})
    gamma = min(q - p for p, q in zip(anchored, anchored[1:])) / 64
    points = set(base)
    for _ in range(offset_rounds):
        for p in list(base):
            for off in (p - gamma, p + gamma):
                if ZERO < off < ONE:
                    points.add(off)
        gamma /= 2
    return sorted(points)


def node_candidates(a, b, others, rank, agent, own, own_cut):
    """The planner's candidate cuts at the node [a, b] that the other agents'
    sorted ``(numerator, denominator, agent)`` cuts `others` place at
    `rank`, with the manipulator's own cut `own_cut` a ``Fraction``."""
    anchors = {a, b, own_cut}
    anchors.update(Fraction(num, den) for num, den, _ in others)
    anchors.update(p for p in own.bounds if a < p < b)
    pts = sorted(anchors)
    cands = set(pts)
    for p, q in zip(pts, pts[1:]):
        gap = q - p
        cands.add(p + gap / 2)
        cands.add(q - gap / 64)
    cands.discard(b)
    pairs = [(Fraction(num, den), i) for num, den, i in others]
    return [c for c in sorted(cands) if bisect(pairs, (c, agent)) == rank]


# Reference piece builders on Fraction spans: the earlier body of
# cake.Piece.ordered, which also took ``(lo, hi)`` spans of ``Fraction``s,
# and of mechanisms._halving_allocation, which built the halving leaves'
# pieces through it.  The package now builds every piece from int-key spans
# read through one cake.KeyedPoints table; they must agree.


def ordered(spans):
    """The piece of the ``Fraction`` spans, already in increasing order:
    touching neighbours merged, an empty or out-of-order span refused."""
    merged = []
    for lo, hi in spans:
        if not lo < hi:
            raise ValueError(f"empty span [{lo}, {hi}]")
        if merged and lo == merged[-1][1]:
            merged[-1][1] = hi
        elif merged and lo < merged[-1][1]:
            raise ValueError(f"span [{lo}, {hi}] starts before {merged[-1][1]}")
        else:
            merged.append([lo, hi])
    return cake.Piece(tuple(cake.Interval(lo, hi) for lo, hi in merged))


def halving_allocation(profile, share_middle):
    """A full halving run's allocation, one ``Fraction`` per distinct leaf
    end, nothing discarded."""
    spans = mechanisms._halving(profile, share_middle)
    ends = {end for agent in spans for span in agent for end in span}
    point = {end: Fraction(*end) for end in ends}
    return cake.Allocation(tuple(ordered([(point[lo], point[hi]) for lo, hi in agent])
                                 for agent in spans), cake.Piece.empty())


# Reference cell-sweep consumers on Fraction arithmetic: the earlier bodies
# of cake.cells, mechanisms.equal_split_nonwasteful, the exchange wrapper's
# run (on the base mechanism's allocation) and cake.validate_allocation.
# The package now runs them on the cell grid's int keys; they must agree,
# except that validate_allocation now also reports an agent's piece that
# overlaps the discarded piece, which these let pass.


def cells(profile, allocation=None):
    """Each cell's ``(lo, hi, holders, discarded, wanting)``, its ends the
    grid's ``Fraction`` points."""
    grid, keys, owners, segments = cake.cell_grid(profile, allocation)
    points = [grid[key] for key in keys]
    discard = allocation.n if allocation is not None else -1
    wanting = [[] for _ in owners]
    for i, agent in enumerate(segments):
        for lo, hi, d in agent:
            if d:                       # densities are non-negative
                for k in range(lo, hi):
                    wanting[k].append(i)
    for lo, hi, held, want in zip(points, points[1:], owners, wanting):
        discarded = bool(held) and held[-1] == discard
        yield lo, hi, tuple(held[:-1] if discarded else held), discarded, tuple(want)


def exchange(base, profile):
    """The zero-piece exchange of the allocation `base` under `profile`."""
    held = [[] for _ in range(profile.n)]
    free = []
    for lo, hi, holders, _, wanting in cells(profile, base):
        if not holders:
            free.append((lo, hi))
            continue
        if wanting and holders[0] not in wanting:
            holders = (wanting[0], *holders[1:])
        for i in holders:
            held[i].append((lo, hi))
    return cake.Allocation(tuple(ordered(p) for p in held), ordered(free))


def equal_split_nonwasteful(profile):
    """Each cell split equally, by length, among the agents who want it."""
    held = [[] for _ in range(profile.n)]
    free = []
    for lo, hi, _, _, desirers in cells(profile):
        if not desirers:
            free.append((lo, hi))
            continue
        width = (hi - lo) / len(desirers)
        start = lo
        for i in desirers[:-1]:
            end = start + width
            held[i].append((start, end))
            start = end
        held[desirers[-1]].append((start, hi))
    return cake.Allocation(tuple(ordered(p) for p in held), ordered(free))


def validate_allocation(allocation, profile):
    """The allocation's problems, [] when it is valid."""
    if allocation.n != profile.n:
        raise ValueError(f"allocation has {allocation.n} pieces for {profile.n} agents")
    overlaps = {}
    missing = []
    wanted = [[] for _ in range(profile.n)]
    for lo, hi, holders, discarded, wanting in cells(profile, allocation):
        for pair in combinations(holders, 2):
            overlaps.setdefault(pair, []).append((lo, hi))
        if discarded:
            for i in wanting:
                wanted[i].append((lo, hi))
        elif not holders:
            missing.append((lo, hi))
    problems = [f"overlap between agents {i} and {j} on {ordered(overlaps[i, j])}"
                for i, j in sorted(overlaps)]
    if missing:
        problems.append(f"uncovered cake {ordered(missing)}")
    problems.extend(f"free-disposal violation: agent {i} values discarded "
                    f"{ordered(w)}" for i, w in enumerate(wanted) if w)
    return problems


# Reference checker on the cell grid, one step per (agent, desired cell,
# holder): the earlier body of properties.report_for.  The package now sums
# per-part totals copied at the agents' segment ends; they must agree.


def report_for(profile, allocation):
    """The allocation's exact ``PropertyReport``."""
    n = profile.n
    if allocation.n != n:
        raise ValueError(f"allocation has {allocation.n} pieces for {n} agents")
    points, keys, owners, segments = cake.cell_grid(profile, allocation)
    scale = points.scale
    widths = [b - a for a, b in zip(keys, keys[1:])]
    share = Fraction(1, n)
    deficit = envy = ZERO
    desired = [False] * len(widths)
    served = 0                      # desired width whose lowest holder desires it
    for i, (v, agent) in enumerate(zip(profile, segments)):
        _, denominator, _, weights, _ = v.integer_image
        values = [0] * (n + 1)      # of each part (index n: discarded), in 1/(denominator*scale)
        for (lo, hi, _), weight in zip(agent, weights):
            if weight:
                for k in range(lo, hi):
                    desired[k] = True
                    for j in owners[k]:
                        values[j] += weight * widths[k]
                    if owners[k] and owners[k][0] == i:
                        served += widths[k]
        unit = denominator * scale
        own = values[i]
        deficit = max(deficit, share - Fraction(own, unit))
        envy = max(envy, Fraction(max(values[:i] + values[i + 1:n]) - own, unit))
    wasted = sum(width for width, wanted in zip(widths, desired) if wanted) - served
    return properties.PropertyReport(deficit, envy, Fraction(wasted, scale),
                                     allocation.is_contiguous)
