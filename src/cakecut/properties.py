"""Exact fairness/efficiency checkers and manipulation-gain search.

The checkers compute proportionality deficit, envy, wasted measure, and
contiguity as exact rationals.  The gain engines search for profitable
misreports and return self-verifying certificates.  Halving-family
candidates are scored by walking the manipulator's path through the
recursion, but every certificate's values come from re-running the
mechanism on the truthful and the deviated profile, so a certificate can
never overstate a gain.

Both engines produce LOWER bounds on the true supremum gain.  The grid
engine numbers the misreports of a breakpoint/mass grid and builds only a
seeded sample of them, so its cost follows the budget.  The cut-point
engine, specific to the recursive-halving mechanisms, enumerates where the
manipulator's report can sit relative to the other agents' (fixed) cuts at
every recursion node, takes the best path by dynamic programming, and then
builds an actual misreport realizing that path.  Candidate evaluation is
embarrassingly parallel in principle; selection is a pure reduction (max
gain, ties broken by the lexicographically smallest misreport encoding).
"""

from __future__ import annotations

import sys
from bisect import bisect
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import comb
from random import Random

from cakecut.cake import (
    Allocation,
    ONE,
    PiecewiseConstantValuation,
    Profile,
    Record,
    ZERO,
    cell_grid,
)
from cakecut.mechanisms import (
    SHARES_MIDDLE, Mechanism, NodeCuts, Span, _halving, _node_step, get_mechanism)


# ---------------------------------------------------------------------------
# property checking


class PropertyReport(Record):
    """Exact slack of an allocation against the standard properties.

    deficit == 0 iff proportional; envy == 0 iff envy-free; wasted_measure
    is the measure of cake desired by someone yet held by an agent with zero
    density there (or discarded).
    """

    def __init__(self, proportionality_deficit: Fraction, envy: Fraction,
                 wasted_measure: Fraction, contiguous: bool) -> None:
        self.__dict__.update(proportionality_deficit=proportionality_deficit, envy=envy,
                             wasted_measure=wasted_measure, contiguous=contiguous)


def report_for(profile: Profile, allocation: Allocation) -> PropertyReport:
    """Measure an allocation exactly in one pass over its :func:`cell_grid`.

    Cell widths are integer key differences over the grid's scale and each
    agent's densities the integer numerators of its ``integer_image``, so
    agent i values every piece at an integer over one denominator: the sums
    run on ints, and envy and deficit take one ``Fraction`` per agent, waste
    one in all.
    """
    n = profile.n
    if allocation.n != n:
        raise ValueError(f"allocation has {allocation.n} pieces for {n} agents")
    _, keys, scale, owners, segments = cell_grid(profile, allocation)
    widths = [b - a for a, b in zip(keys, keys[1:])]
    share = Fraction(1, n)
    deficit = envy = ZERO
    desired = [False] * len(widths)
    served = 0                      # desired width whose lowest holder desires it
    for i, (v, agent) in enumerate(zip(profile, segments)):
        _, denominator, _, weights = v.integer_image
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
    return PropertyReport(deficit, envy, Fraction(wasted, scale), allocation.is_contiguous)


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


def evaluate_misreport(mechanism: Mechanism, profile: Profile, agent: int,
                       misreport: PiecewiseConstantValuation) -> GainCertificate:
    """Score one fixed misreport by running the mechanism on both profiles."""
    true_v = profile[agent]
    truthful = true_v.value(mechanism.run(profile).pieces[agent])
    deviated = true_v.value(mechanism.run(profile.replace(agent, misreport)).pieces[agent])
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
                      cfg: SearchConfig) -> list[Fraction]:
    base: set[Fraction] = set()
    for v in profile:
        base.update(v.breakpoints)
    base.update(p for p in truthful.boundaries() if ZERO < p < ONE)
    anchored = sorted(base | {ZERO, ONE})
    gamma = min(q - p for p, q in zip(anchored, anchored[1:])) / 64
    points = set(base)
    for _ in range(cfg.offset_rounds):
        for p in list(base):
            for off in (p - gamma, p + gamma):
                if ZERO < off < ONE:
                    points.add(off)
        gamma /= 2
    return sorted(points)


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


def _descriptors(pool: list[Fraction], cfg: SearchConfig
                 ) -> Iterator[tuple[tuple[Fraction, ...], tuple[int, ...]]]:
    """The ``(points, masses)`` misreports a grid search tries.  They are
    numbered by size, then by points as ``combinations(pool, size)``, then
    by the compositions of d into size + 1 masses in lexicographic order,
    which are the bar positions ``combinations(range(d + size), size)``.
    Past ``max_candidates`` only the numbers ``Random(seed).sample`` draws
    are unranked, so nothing grows with the number of misreports."""
    d = cfg.mass_denominator
    blocks = [(comb(len(pool), size) * comb(d + size, size), comb(d + size, size))
              for size in range(cfg.max_breakpoints + 1)]   # (misreports, mass splits)
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
    the sampled misreports (:func:`_descriptors`), scores each by the
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
    pool = _candidate_points(profile, truthful_alloc, cfg)
    d = cfg.mass_denominator
    seen: set[tuple] = set()
    candidates = [profile[agent]]
    for points, masses in _descriptors(pool, cfg):
        try:
            cand = PiecewiseConstantValuation.from_masses(
                points, [Fraction(m, d) for m in masses])
        except (ValueError, ZeroDivisionError):
            continue
        if cand.integer_image not in seen:     # equal images, equal valuations
            seen.add(cand.integer_image)
            candidates.append(cand)
    middle = SHARES_MIDDLE.get(mechanism.name)
    others: NodeCuts = {}      # the other agents' cuts, shared by this search's walks

    def full_run(cand: PiecewiseConstantValuation) -> Fraction:
        return true_v.value(mechanism.run(profile.replace(agent, cand)).pieces[agent])

    def path_walk(cand: PiecewiseConstantValuation) -> Fraction:
        walk = _halving(profile.replace(agent, cand), middle, follow=agent, others=others)
        return sum((true_v.value_between(lo, hi) for lo, hi in walk[agent]), ZERO)

    score = full_run if middle is None else path_walk
    scored, winner = min(((score(cand), cand) for cand in candidates),
                         key=lambda pair: (-pair[0], _encoding(pair[1])))
    deviated = scored if middle is None else full_run(winner)
    if deviated != scored:
        raise AssertionError(
            f"{mechanism.name}: path walk scored {scored}, full run gives {deviated}")
    return GainCertificate(mechanism.name, profile, agent, winner,
                           truthful_value, deviated, deviated - truthful_value)


# ---------------------------------------------------------------------------
# cut-point best response for the recursive-halving family


def _node_candidates(a: Fraction, b: Fraction, others: list[tuple[Fraction, int]],
                     own: PiecewiseConstantValuation,
                     own_cut: Fraction) -> list[Fraction]:
    anchors = {a, b, own_cut}
    anchors.update(c for c, _ in others)
    anchors.update(p for p in own.bounds if a < p < b)
    pts = sorted(anchors)
    cands: set[Fraction] = set(pts)
    for p, q in zip(pts, pts[1:]):
        gap = q - p
        cands.add(p + gap / 2)
        cands.add(q - gap / 64)
    cands.discard(b)
    return sorted(cands)


def _dp_best_path(profile: Profile, agent: int, a: Fraction, b: Fraction,
                  agents: list[int], middles: bool
                  ) -> tuple[Fraction, list[tuple[Fraction, Fraction, Fraction]], Span]:
    """(value, steps, leaf): the best true value the manipulator can steer
    its recursion piece to, its left steps as (share, rest_lo, hi), its leaf span.

    At each node the manipulator either pins the left boundary to a candidate
    cut of its own (left branch; realizable exactly) or joins the right
    group (right branch; no step: its realized cut may drift inside the right
    piece without changing the split).  With `middles` (the middle-sharing
    mechanism) the manipulator's plan places no mass on middle pieces, so
    middle shares contribute nothing to the planned value, and the
    right branch requires another agent between it and the middle.
    """
    true_v = profile[agent]
    if len(agents) == 1:
        return true_v.value_between(a, b), [], (a, b)
    k = len(agents)
    half = k // 2
    share = Fraction(half, k)
    others = [(Fraction(num, den), i) for num, den, i
              in _node_step(profile, a, b, [i for i in agents if i != agent], k)]

    plans = []
    own_cut = Fraction(*_node_step(profile, a, b, [agent], k)[0][:2])
    for c in _node_candidates(a, b, others, true_v, own_cut):
        if bisect(others, (c, agent)) != half - 1:
            continue  # manipulator does not pin the boundary; drift would move it
        left = [i for _, i in others[:half - 1]] + [agent]
        rest_lo = others[half - 1][0] if middles else c
        value, steps, leaf = _dp_best_path(profile, agent, a, c, left, middles)
        plans.append((value, [(share, rest_lo, b)] + steps, leaf))

    # single right branch: the manipulator sits beyond the split however it
    # reports, so only the resulting child matters
    if not middles or k - half >= 2:
        d = others[half if middles else half - 1][0]
        right = [agent] + [i for _, i in others[half:]]
        plans.append(_dp_best_path(profile, agent, d, b, right, middles))

    if not plans:
        raise AssertionError(f"no plan for agent {agent} at node [{a}, {b}]")
    return max(plans, key=lambda plan: plan[0])


def _realize_path(steps: list[tuple[Fraction, Fraction, Fraction]], leaf: Span
                  ) -> PiecewiseConstantValuation:
    """Build a misreport whose node cuts walk the planned path exactly.

    Works upward from the leaf: a left step keeps a `share` fraction of the
    mass in the child (so the prefix reaches the target precisely at the
    child's right edge) and spreads the remainder on [rest_lo, hi], beyond
    the recursion boundary; right steps leave the child mass alone.
    """
    if not leaf[0] < leaf[1]:
        raise ValueError("cannot realize a path ending in a null piece")
    chunks: list[tuple[Fraction, Fraction, Fraction]] = [(*leaf, Fraction(1))]
    for share, rest_lo, hi in reversed(steps):
        if not rest_lo < hi:
            raise AssertionError("left step has nowhere to park the rest mass")
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
        profile, agent, ZERO, ONE, list(range(profile.n)), middles)
    if planned > grid_certificate.truthful_value:
        cert = evaluate_misreport(mechanism, profile, agent, _realize_path(steps, leaf))
        if cert.deviated_value < planned:
            raise AssertionError(
                f"realized value {cert.deviated_value} below planned {planned}")
        certificates.append(cert)
    return min(certificates, key=lambda c: (-c.gain, _encoding(c.misreport)))
