"""Exact fairness/efficiency checkers and manipulation-gain search.

The checkers compute proportionality deficit, envy, wasted measure, and
contiguity as exact rationals, in one sweep over the allocation's cell grid
that copies per-part running totals only where an agent's segment ends.
The gain engines search for profitable misreports and return
self-verifying certificates.  Halving-family candidates are scored by
walking the manipulator's path through the recursion, but every
certificate's values come from full runs of the mechanism on the deviated
and, once per grid search, the truthful profile (the cut-point engine
reuses the grid certificate's), so a certificate can never overstate a
gain.

Both engines produce LOWER bounds on the true supremum gain.  The grid
engine numbers the misreports of a breakpoint/mass grid and builds only a
seeded sample of them, on integer keys, so its cost follows the budget.
The cut-point engine, specific to the recursive-halving mechanisms,
enumerates where the manipulator's report can sit relative to the other
agents' (fixed) cuts at every recursion node, building candidate cuts only
inside the rank window where its cut splits the node, takes the best path
by dynamic programming on the recursion's int-pair node ends, and builds
``Fraction``s only to realize that path as an actual misreport.  Both
engines collect candidate points on integer keys, so neither hashes a
``Fraction``.
Candidate evaluation is embarrassingly parallel in principle; selection is a
pure reduction (max gain, ties broken by the lexicographically smallest
misreport encoding).
"""

from __future__ import annotations

import sys
from bisect import bisect
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import compress
from math import comb, lcm
from operator import add, sub
from random import Random

from cakecut.cake import (
    Allocation,
    KeyedPoints,
    ONE,
    PiecewiseConstantValuation,
    Profile,
    Record,
    ZERO,
    _merged,
    cell_grid,
)
from cakecut.mechanisms import (
    SHARES_MIDDLE, Cuts, Mechanism, NodeCuts, Point, _halving, _lowest, _node_step, _rank,
    _split, get_mechanism)


# ---------------------------------------------------------------------------
# property checking


class PropertyReport(Record):
    """Exact slack of an allocation against the standard properties.

    deficit == 0 iff proportional; envy == 0 iff envy-free; wasted_measure
    is the measure of cake that some agent desires (positive density there)
    but whose lowest-index holder does not desire, or that no agent holds
    (unallocated or only discarded).
    """

    def __init__(self, proportionality_deficit: Fraction, envy: Fraction,
                 wasted_measure: Fraction, contiguous: bool) -> None:
        self.__dict__.update(proportionality_deficit=proportionality_deficit, envy=envy,
                             wasted_measure=wasted_measure, contiguous=contiguous)


def report_for(profile: Profile, allocation: Allocation) -> PropertyReport:
    """Measure an allocation exactly in one sweep over its :func:`cell_grid`.

    Cell widths are integer key differences over the grid's scale and each
    agent's densities the integer numerators of its ``integer_image``.  One
    pass over the cells keeps two running totals per part (the pieces, then
    the discarded piece): the width it covers and the width it holds as the
    lowest holder, copied only at the cells where an agent's segment ends.
    Agent i values every part at its weights times differences of those
    copies, an integer over one denominator; the desired width it is served
    is the same difference of the lowest-holder totals.  So the work is
    linear in the cells plus n + 1 per agent segment, deficit and envy are
    compared as integer cross-products, and the report makes three
    ``Fraction``s.  The grid is the one the allocation keeps for this
    profile object, so after :func:`cakecut.cake.validate_allocation` it is
    not built again.
    """
    n = profile.n
    if allocation.n != n:
        raise ValueError(f"allocation has {allocation.n} pieces for {n} agents")
    points, keys, owners, segments = cell_grid(profile, allocation)
    widths = list(map(sub, keys[1:], keys))
    ends = bytearray(len(keys))
    for agent in segments:
        for _, hi, _ in agent:
            ends[hi] = 1
    covered = [0] * (n + 1)         # width each part covers left of the cell
    lowest = [0] * (n + 1)          # of that, the width it holds as lowest holder
    totals = {0: (covered[:], lowest[:])}
    for k, (held, width) in enumerate(zip(owners, widths), 1):
        if held:
            lowest[held[0]] += width
            for j in held:
                covered[j] += width
        if ends[k]:
            totals[k] = covered[:], lowest[:]
    desired = bytearray(len(widths))
    every = b"\1" * len(widths)
    served = 0                      # desired width whose lowest holder desires it
    deficit = envy = (0, 1)         # the largest so far, as (numerator, denominator)
    for i, (v, agent) in enumerate(zip(profile, segments)):
        _, denominator, _, weights, _ = v.integer_image
        values = [0] * (n + 1)      # of each part, in 1/(denominator*scale)
        for (lo, hi, _), weight in zip(agent, weights):
            if weight:
                (left, below), (right, upto) = totals[lo], totals[hi]
                values = list(map(add, values, map(weight.__mul__, map(sub, right, left))))
                served += upto[i] - below[i]
                desired[lo:hi] = every[lo:hi]
        unit = denominator * points.scale
        own = values[i]
        short = unit - n * own      # 1/n - own/unit, over n*unit
        if short * deficit[1] > deficit[0] * unit:
            deficit = short, unit
        ahead = max(values[:i] + values[i + 1:n]) - own
        if ahead * envy[1] > envy[0] * unit:
            envy = ahead, unit
    wasted = sum(compress(widths, desired)) - served
    return PropertyReport(Fraction(deficit[0], n * deficit[1]), Fraction(*envy),
                          Fraction(wasted, points.scale), allocation.is_contiguous)


def check_properties(mechanism: Mechanism, profile: Profile) -> PropertyReport:
    """Run the mechanism once and measure every property exactly."""
    return report_for(profile, mechanism.run(profile))


# ---------------------------------------------------------------------------
# certificates


class Certificate(Record):
    """A finding tied to the mechanism and profile it was measured on.

    `kind` is the certificate's JSON kind, "gain" or "report"; verify()
    re-derives every field by running the mechanism (by default the one the
    certificate names) and reports any mismatch.
    """

    def __init__(self, mechanism: str, profile: Profile) -> None:
        self.__dict__.update(mechanism=mechanism, profile=profile)

    def verify(self, mechanism: Mechanism | None = None) -> bool:
        mech = mechanism if mechanism is not None else get_mechanism(self.mechanism)
        return recompute(self, mech)[0] == self


class GainCertificate(Certificate):
    """A verified manipulation: misreport plus exact before/after values.

    gain == deviated_value - truthful_value, both recomputed from mechanism
    runs.
    """

    kind = "gain"

    def __init__(self, mechanism: str, profile: Profile, agent: int,
                 misreport: PiecewiseConstantValuation, truthful_value: Fraction,
                 deviated_value: Fraction, gain: Fraction) -> None:
        self.__dict__.update(mechanism=mechanism, profile=profile, agent=agent,
                             misreport=misreport, truthful_value=truthful_value,
                             deviated_value=deviated_value, gain=gain)


class PropertyCertificate(Certificate):
    """A property report of the mechanism's allocation of the profile."""

    kind = "report"

    def __init__(self, mechanism: str, profile: Profile, report: PropertyReport) -> None:
        self.__dict__.update(mechanism=mechanism, profile=profile, report=report)


def _reported_value(mechanism: Mechanism, profile: Profile, agent: int,
                    report: PiecewiseConstantValuation) -> Fraction:
    """The agent's true value of its piece when it reports `report`."""
    return profile[agent].value(mechanism.run(profile.replace(agent, report)).pieces[agent])


def evaluate_misreport(mechanism: Mechanism, profile: Profile, agent: int,
                       misreport: PiecewiseConstantValuation) -> GainCertificate:
    """Score one fixed misreport by running the mechanism on both profiles."""
    truthful = profile[agent].value(mechanism.run(profile).pieces[agent])
    deviated = _reported_value(mechanism, profile, agent, misreport)
    return GainCertificate(mechanism.name, profile, agent, misreport,
                           truthful, deviated, deviated - truthful)


def recompute(certificate: Certificate, mechanism: Mechanism
              ) -> tuple[Certificate, Allocation | None]:
    """`certificate` with its values recomputed by running `mechanism` once
    on each profile it names, and the allocation a report certificate
    measures (None for a gain certificate)."""
    if certificate.kind == "gain":
        fresh = evaluate_misreport(mechanism, certificate.profile, certificate.agent,
                                   certificate.misreport)
        return fresh._replace(mechanism=certificate.mechanism), None
    allocation = mechanism.run(certificate.profile)
    return certificate._replace(report=report_for(certificate.profile, allocation)), allocation


def _encoding(v: PiecewiseConstantValuation) -> tuple:
    return (v.bounds, v.densities)


# ---------------------------------------------------------------------------
# grid search over misreports


class SearchConfig(Record):
    """Budget knobs for the grid engine.

    Breakpoint candidates come from the agents' true breakpoints and the cut
    points observed in the truthful run, plus offsets on both sides of each
    (the base offset is 1/64 of the smallest candidate gap, halved per
    round).  Masses range over the simplex grid with the given denominator,
    so every candidate misreport is normalized by construction.
    """

    def __init__(self, mass_denominator: int = 4, max_breakpoints: int = 2,
                 offset_rounds: int = 1, max_candidates: int | None = 64,
                 seed: int = 0) -> None:
        self.__dict__.update(mass_denominator=mass_denominator, max_breakpoints=max_breakpoints,
                             offset_rounds=offset_rounds, max_candidates=max_candidates,
                             seed=seed)
        # below these bounds a search tries no misreport but the truthful one
        # (or fails midway), and its gain of 0 would read as "none found"
        for name, least in (("mass_denominator", 1), ("max_breakpoints", 0),
                            ("offset_rounds", 0), ("max_candidates", 1)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"SearchConfig.{name} must be at least {least}, got {value}")


def _candidate_points(profile: Profile, truthful: Allocation,
                      cfg: SearchConfig) -> tuple[int, list[int]]:
    """``(scale, keys)``: the grid pool, in increasing order: see
    :class:`SearchConfig`.  The points are integer keys over the lcm of
    their denominators times 2**(6 + offset_rounds), on which every offset
    is an exact int."""
    ends = [x for v in profile for x in v.breakpoints]
    ends.extend(x for piece in truthful.pieces for x in piece.boundaries())
    # a list: a generator's argument tuple is resized, so each search would add
    # one tuple to the tuple free lists, which only a full collection empties
    scale = lcm(*[x.denominator for x in ends]) << (6 + cfg.offset_rounds)
    base = {key for x in ends if 0 < (key := x.numerator * (scale // x.denominator)) < scale}
    anchored = sorted(base | {0, scale})
    gamma = min(q - p for p, q in zip(anchored, anchored[1:])) // 64
    points = set(base)
    for _ in range(cfg.offset_rounds):
        # both offsets lie in (0, scale): every base key is 64 * gamma or more from each end
        for p in base:
            points.update((p - gamma, p + gamma))
        gamma //= 2
    return scale, sorted(points)


def _unrank(n: int, size: int, rank: int) -> list[int]:
    """The `rank`-th `size`-combination of range(n) in ``itertools.combinations``
    order.  Mirrored (x to n - 1 - x) it is the combination whose sum of
    ``comb(x, slots)`` is ``comb(n, size) - 1 - rank``, unranked greedily
    (the last slot directly: ``comb(x, 1) == x``)."""
    rest, out = comb(n, size) - 1 - rank, []
    for slots in range(size, 0, -1):
        top = rest if slots == 1 else bisect(range(n), rest, key=lambda x: comb(x, slots)) - 1
        rest -= comb(top, slots)
        out.append(n - 1 - top)
    return out


def _descriptors(pool: list[int], cfg: SearchConfig
                 ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The ``(keys, masses)`` misreports a grid search tries.  They are
    numbered by size, then by keys as ``combinations(pool, size)``, then
    by the compositions of d into size + 1 masses in lexicographic order,
    which are the bar positions ``combinations(range(d + size), size)``.
    Past ``max_candidates`` only the numbers ``Random(seed).sample`` draws
    are unranked, so nothing grows with the number of misreports."""
    d = cfg.mass_denominator
    # (misreports, mass splits) per size; no misreport has more keys than the pool
    blocks = [(comb(len(pool), size) * comb(d + size, size), comb(d + size, size))
              for size in range(min(cfg.max_breakpoints, len(pool)) + 1)]
    total = sum(count for count, _ in blocks)
    indices: Iterable[int] = range(total)
    if cfg.max_candidates is not None and total > cfg.max_candidates:
        rng = Random(cfg.seed)
        if total <= sys.maxsize:
            indices = rng.sample(indices, cfg.max_candidates)
        else:   # len(indices) overflows: draw as sample's set branch does
            picked: dict[int, None] = {}
            while len(picked) < cfg.max_candidates:
                picked[rng.randrange(total)] = None
            indices = picked
    for index in indices:
        for size, (count, splits) in enumerate(blocks):
            if index < count:
                break
            index -= count
        rank, bars = divmod(index, splits)
        ends = (-1, *_unrank(d + size, size, bars), d + size)
        yield (tuple([pool[j] for j in _unrank(len(pool), size, rank)]),
               tuple([hi - lo - 1 for lo, hi in zip(ends, ends[1:])]))


def best_response_gain(mechanism: Mechanism, profile: Profile, agent: int,
                       cfg: SearchConfig = SearchConfig()) -> GainCertificate:
    """Grid search for a profitable misreport by one agent.

    Indexes candidate misreports (breakpoint subsets x mass simplex),
    deterministically samples indices to the configured budget, builds only
    the sampled misreports (:func:`_descriptors`) on the pool's keys, drops
    repeats by their integer image before building a ``Fraction``, builds
    one ``Fraction`` per pool point and per density, scores each by the
    manipulator's value (by the path walk for the ``SHARES_MIDDLE`` family,
    whose walks share one table of the other agents' cuts, else by running
    the mechanism), and re-derives the winner by one full run; a walk that
    disagrees raises AssertionError.  The truthful report is always among
    the candidates, so the result never has negative gain.  This is a lower
    bound on the supremum gain, never an upper-bound claim.
    """
    true_v = profile[agent]
    truthful_alloc = mechanism.run(profile)
    truthful_value = true_v.value(truthful_alloc.pieces[agent])
    scale, pool = _candidate_points(profile, truthful_alloc, cfg)
    d = cfg.mass_denominator
    points = KeyedPoints(scale, [(0, ZERO), (scale, ONE)])   # each bound's Fraction, built once
    seen: set[tuple] = set()
    candidates = [profile[agent]]
    for keys, masses in _descriptors(pool, cfg):
        keys = (0, *keys, scale)
        image, kept = _merged(scale, keys, masses, d)
        if image not in seen:           # equal images, equal valuations
            seen.add(image)
            candidates.append(PiecewiseConstantValuation._checked(
                [points[keys[k]] for k in kept], [Fraction(w, image[1]) for w in image[3]], image))
    middle = SHARES_MIDDLE.get(mechanism.name)
    others: NodeCuts = {}      # the other agents' cuts, shared by this search's walks

    def full_run(cand: PiecewiseConstantValuation) -> Fraction:
        return _reported_value(mechanism, profile, agent, cand)

    def path_walk(cand: PiecewiseConstantValuation) -> Fraction:
        walk = _halving(profile.replace(agent, cand), middle, follow=agent, others=others)
        return true_v._spans_value(walk[agent])

    score = full_run if middle is None else path_walk
    scores = [score(cand) for cand in candidates]
    scored = max(scores)
    winner = min((cand for value, cand in zip(scores, candidates) if value == scored),
                 key=_encoding)
    deviated = scored if middle is None else full_run(winner)
    if deviated != scored:
        raise AssertionError(
            f"{mechanism.name}: path walk scored {scored}, full run gives {deviated}")
    return GainCertificate(mechanism.name, profile, agent, winner,
                           truthful_value, deviated, deviated - truthful_value)


# ---------------------------------------------------------------------------
# cut-point best response for the recursive-halving family

def _node_candidates(a: Point, b: Point, others: Cuts, rank: int, agent: int,
                     own: PiecewiseConstantValuation, own_cut: Point) -> list[Point]:
    """The manipulator's candidate cuts at the node [a, b] that :func:`_rank`
    places at `rank` among the other agents' sorted cuts `others`, in
    increasing order.

    They lie in the rank window [lo, hi]: lo is the cut before that rank
    (a at rank 0) and hi the cut at it.  The candidates are the window's
    anchors (its ends, and the manipulator's cut `own_cut` and breakpoints
    where they fall in it) and, between each two neighbouring anchors p <
    q, the midpoint and ``q - (q - p)/64``; b is never one.  An offset lies
    strictly between its anchors, so one inside the window comes from
    anchors inside it.  The anchors are integer keys over one scale, the
    lcm of their denominators times 128, on which both offsets are exact
    ints.  Only a candidate at a window end can tie with another agent's
    cut, so only those are tested by :func:`_rank`, and a kept candidate
    is returned as a reduced int pair.
    """
    lo = others[rank - 1][:2] if rank else a
    hi = others[rank][:2]
    lcm_b, _, bounds, _, _ = own.integer_image
    scale = lcm(lo[1], hi[1], own_cut[1], lcm_b) * 128
    lo_key, hi_key, own_key = (num * (scale // den) for num, den in (lo, hi, own_cut))
    step = scale // lcm_b
    keys = {key for key in (lo_key, hi_key, own_key, *(x * step for x in bounds))
            if lo_key <= key <= hi_key}
    anchors = sorted(keys)
    for p, q in zip(anchors, anchors[1:]):
        keys.add((p + q) // 2)
        keys.add(q - (q - p) // 64)
    if hi[0] * b[1] == b[0] * hi[1]:
        keys.discard(hi_key)
    return [_lowest(key, scale) for key in sorted(keys)
            if lo_key < key < hi_key or _rank(others, key, scale, agent) == rank]


def _dp_best_path(profile: Profile, agent: int, a: Point, b: Point, agents: list[int],
                  middles: bool) -> tuple[Fraction, list[tuple[Fraction, Point, Point]],
                                          tuple[Point, Point]]:
    """(value, steps, leaf): the best true value the manipulator can steer
    its recursion piece to, its left steps as (share, rest_lo, hi), its leaf
    span; ends are reduced int pairs, as in the recursion.

    At each node the manipulator either pins d_lo to a candidate cut of its
    own (left branch; realizable exactly), taken only from the rank window
    where :func:`_rank` places it at d_lo (:func:`_node_candidates`), or
    joins the right group (right branch; no step: its realized cut may
    drift inside the right piece without changing the split).  Both
    branches take the split from :func:`_split` on the other agents' cuts
    with the manipulator's placed among them.  With `middles` (the
    middle-sharing mechanism) the manipulator's plan places no mass on
    middle pieces, so middle shares contribute nothing to the planned value;
    at k = 2 its right branch leaves it [b, b], worth 0, and ``max`` keeps
    the left plan found before it.
    """
    true_v = profile[agent]
    if len(agents) == 1:
        return true_v._spans_value([(a, b)]), [], (a, b)
    k = len(agents)
    share = Fraction(k // 2, k)
    rank = k // 2 - 1               # the manipulator's rank when its cut is d_lo
    others = _node_step(profile, a, b, [i for i in agents if i != agent], k)

    plans = []
    (an, ad), (bn, bd) = a, b
    q = lcm(ad, bd)
    aq = an * (q // ad)
    own_cut = true_v._share_cut(aq, bn * (q // bd), q, k // 2, k) or (aq, q)
    for c in _node_candidates(a, b, others, rank, agent, true_v, own_cut):
        placed = others.copy()
        placed.insert(rank, (*c, agent))
        _, d_hi, left, _ = _split(placed, middles)     # d_lo is c
        value, steps, leaf = _dp_best_path(profile, agent, a, c, left, middles)
        plans.append((value, [(share, d_hi, b)] + steps, leaf))

    # single right branch: the manipulator sits beyond the split however it
    # reports (its cut placed last), so only the resulting child matters
    _, d_hi, _, right = _split(others + [(*b, agent)], middles)
    plans.append(_dp_best_path(profile, agent, d_hi, b, right, middles))
    return max(plans, key=lambda plan: plan[0])


def _realize_path(steps: list[tuple[Fraction, Point, Point]], leaf: tuple[Point, Point]
                  ) -> PiecewiseConstantValuation:
    """Build a misreport whose node cuts walk the planned path exactly.

    Works upward from the leaf: a left step keeps a `share` fraction of the
    mass in the child (so the prefix reaches the target precisely at the
    child's right edge) and spreads the remainder on [rest_lo, hi], beyond
    the recursion boundary; right steps leave the child mass alone.
    """
    # No span is empty.  A plan is realized only when its value, the leaf's,
    # beats the truthful value >= 0, so lo < hi; every node on the path holds
    # the leaf, so a < b there.  A left step's rest_lo is the node's d_hi:
    # the manipulator's candidate cut, never b (see _node_candidates), or in
    # a shared middle another agent's cut, which is a if that agent values
    # the node at 0 and else the leftmost point worth floor(k/2)/k < 1 of
    # the node's value, before b.
    lo, hi = (Fraction(*end) for end in leaf)
    chunks: list[tuple[Fraction, Fraction, Fraction]] = [(lo, hi, Fraction(1))]
    for share, rest_lo, hi in reversed(steps):
        rest_lo, hi = Fraction(*rest_lo), Fraction(*hi)
        chunks = [(lo, top, m * share) for lo, top, m in chunks]
        chunks.append((rest_lo, hi, 1 - share))
    return PiecewiseConstantValuation.from_chunks(
        (lo, hi, mass / (hi - lo)) for lo, hi, mass in chunks)


def ep_cutpoint_best_response(mechanism: Mechanism, profile: Profile, agent: int,
                              cfg: SearchConfig = SearchConfig(),
                              grid_certificate: GainCertificate | None = None
                              ) -> GainCertificate:
    """Best response for the recursive-halving family via path enumeration.

    Plans the manipulator's position among the other agents' fixed cut
    points over the whole recursion tree, realizes the best plan as an
    actual misreport, and verifies it by running the mechanism.  The grid
    engine's candidates (same config) are also evaluated, so the result
    never falls below best_response_gain on the same instance; pass a
    previously computed grid certificate for the same instance to skip the
    duplicate search; its truthful value is reused, so a certificate for
    another mechanism, agent or profile is rejected.
    """
    if mechanism.name not in SHARES_MIDDLE:
        raise ValueError(f"{mechanism.name!r} is not in the recursive-halving family")
    middles = SHARES_MIDDLE[mechanism.name]
    if grid_certificate is None:
        grid_certificate = best_response_gain(mechanism, profile, agent, cfg)
    elif (grid_certificate.mechanism != mechanism.name
          or grid_certificate.agent != agent or grid_certificate.profile != profile):
        raise ValueError("grid_certificate belongs to another mechanism, agent or profile")
    certificates = [grid_certificate]
    planned, steps, leaf = _dp_best_path(
        profile, agent, (0, 1), (1, 1), list(range(profile.n)), middles)
    truthful = grid_certificate.truthful_value
    if planned > truthful:
        misreport = _realize_path(steps, leaf)
        deviated = _reported_value(mechanism, profile, agent, misreport)
        if deviated < planned:
            raise AssertionError(f"realized value {deviated} below planned {planned}")
        certificates.append(grid_certificate._replace(
            misreport=misreport, deviated_value=deviated, gain=deviated - truthful))
    best = max(c.gain for c in certificates)
    return min((c for c in certificates if c.gain == best), key=lambda c: _encoding(c.misreport))
