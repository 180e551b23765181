"""Deterministic direct-revelation cake-cutting mechanisms.

All mechanisms map a profile of reported valuations to an allocation, are
pure functions (identical inputs give structurally identical outputs), and
produce allocations that pass :func:`cakecut.cake.validate_allocation`.

Even-Paz and modified Even-Paz run one recursion, :func:`_halving`; the
``SHARES_MIDDLE`` table names this recursive-halving family and whether each
member shares the cake between a node's two median cuts among all of the
node's agents.  The gain engines and the CLI read the table.  One node
step, :func:`_node_step`, puts a node's ``Fraction`` ends over one
denominator, takes each agent's cut as an unreduced int pair from one walk
over its segments and sorts the cuts on exact int keys; the recursion and
the cut-point planner both use it.  A node's sorted cuts come from a table
keyed by the ints of its ends and its agents' bitmask, the only cache of
node cuts: a full run keeps its own and follows nobody.  With ``follow=i`` the table holds the other
agents' cuts, shared by all walks of a gain search, i's cut is placed
among them by bisection on integer cross-products, and only i's path (in
modified Even-Paz, also the middles on it) is walked, which is all a
search needs to score a misreport of agent i.  A ``Fraction`` is built
only for the cuts that split a node and for the leaves.

Every mechanism builds its allocation from spans it already produces in
increasing order (the recursion's left-middle-right leaves, the cell sweep
of :func:`cakecut.cake.cells`), through :meth:`cakecut.cake.Piece.ordered`,
which merges touching neighbours and never sorts; the discarded piece is
collected the same way instead of being inferred by a complement.

Tie handling in the halving recursion: cut points are ordered with the agent
index as a secondary key, and exactly the first floor(k/2) agents of that
total order recurse left.  This keeps the left/right group sizes correct
even when several agents report the same cut point, and agrees with the
plain rule whenever cut points are distinct.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections.abc import Callable
from fractions import Fraction

from cakecut.cake import (
    Allocation,
    Piece,
    PiecewiseConstantValuation,
    Profile,
    Record,
    ZERO,
    ONE,
    cells,
)


class Mechanism(Record):
    """A named deterministic mechanism."""

    def __init__(self, name: str, run: Callable[[Profile], Allocation]) -> None:
        self.__dict__.update(name=name, run=run)


# A node's cuts as unreduced ``(numerator, denominator, agent)`` triples in
# (cut, agent) order.
Cuts = list[tuple[int, int, int]]
# A halving run's sorted cuts at each node it visits, without the followed
# agent's, keyed (a.numerator, a.denominator, b.numerator, b.denominator,
# the node's agents as a bitmask): see _halving.
NodeCuts = dict[tuple[int, int, int, int, int], Cuts]
Span = tuple[Fraction, Fraction]


def _node_step(profile: Profile, a: Fraction, b: Fraction, agents: list[int],
               k: int) -> Cuts:
    """The cuts of `agents` at the node [a, b] of k agents, each the leftmost
    point where the agent's value reaches the floor(k/2)/k share of its value
    for the node, taken over q, the lcm of the ends' denominators, and sorted
    on the exact int keys ``(numerator * (D // denominator), agent)``, D the
    lcm of the cuts' denominators."""
    q = math.lcm(a.denominator, b.denominator)
    aq, bq = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    half = k // 2
    cuts = [(*(profile[i]._share_cut(aq, bq, q, half, k) or (aq, q)), i) for i in agents]
    if len(cuts) > 1:
        lcm = math.lcm(*(den for _, den, _ in cuts))
        cuts.sort(key=lambda cut: (cut[0] * (lcm // cut[1]), cut[2]))
    return cuts


def _halving(profile: Profile, share_middle: bool, follow: int | None = None,
             others: NodeCuts | None = None) -> list[list[Span]]:
    """Recursive halving; returns each agent's list of ``(lo, hi)`` spans.
    At a node [a, b] the first floor(k/2) agents recurse on [a, d_lo], d_lo
    the floor(k/2)-th smallest cut, and the rest on [d_lo, b].  With
    `share_middle` the rest recurse on [d_hi, b], d_hi the next cut, and the
    middle [d_lo, d_hi] is halved among all k agents without sharing.  The
    sorted cuts of a node's agents but `follow` are read from, or computed
    into, `others` (a fresh table if None).  With `follow` that agent's cut
    is placed among them by integer cross-multiplication, with the same
    agent-index tie-break, and only the children holding it are descended
    (a middle holds them all), so only its list is filled.  The cuts depend
    only on the node's ends, its agents and their valuations, so a search
    that varies only the followed agent's report walks all its candidates
    through one table; the table must not outlive that search.

    Cuts stay int pairs; only d_lo, d_hi (where a middle is shared) and so
    the leaves' ends become ``Fraction``s.  Children are visited left,
    middle, right and a leaf appends only a positive-length span, so every
    list is strictly increasing and feeds :meth:`Piece.ordered` directly.
    The leaves partition the cake.
    """
    pieces: list[list[Span]] = [[] for _ in range(profile.n)]
    if others is None:
        others = {}

    def solve(a: Fraction, b: Fraction, agents: list[int], share_middle: bool) -> None:
        if not agents:
            raise AssertionError("recursed on an empty agent set")
        k = len(agents)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        if k == 1:
            if an * bd < bn * ad:
                pieces[agents[0]].append((a, b))
            return
        half = k // 2
        key = (an, ad, bn, bd, sum(1 << i for i in agents))
        cuts = others.get(key)
        if cuts is None:    # a new node; k >= 2, so it has an agent but `follow`
            cuts = others[key] = _node_step(
                profile, a, b, [i for i in agents if i != follow], k)
        if follow is not None:
            num, den, _ = own = _node_step(profile, a, b, [follow], k)[0]
            at = bisect(cuts, (0, follow),
                        key=lambda cut: (cut[0] * den - num * cut[1], cut[2]))
            cuts = cuts[:at] + [own] + cuts[at:]
        lo_num, lo_den, _ = cuts[half - 1]
        d_lo = d_hi = Fraction(lo_num, lo_den)
        if share_middle:
            hi_num, hi_den, _ = cuts[half]
            if lo_num * hi_den < hi_num * lo_den:
                d_hi = Fraction(hi_num, hi_den)
        left, right = [cut[2] for cut in cuts[:half]], [cut[2] for cut in cuts[half:]]
        if follow not in right:
            solve(a, d_lo, left, share_middle)
        if d_hi is not d_lo:    # a shared middle of positive length
            solve(d_lo, d_hi, agents, False)
        if follow not in left:
            solve(d_hi, b, right, share_middle)

    solve(ZERO, ONE, list(range(profile.n)), share_middle)
    return pieces


def _halving_allocation(profile: Profile, share_middle: bool) -> Allocation:
    """The full run's allocation: the leaves cover the cake, so nothing is
    discarded."""
    return Allocation(tuple(map(Piece.ordered, _halving(profile, share_middle))),
                      Piece.empty())


def even_paz(profile: Profile) -> Allocation:
    """Recursive halving.  Contiguous and exactly proportional.

    Each agent of a node reports the point splitting its value of the node
    sub-cake in the floor(k/2) : ceil(k/2) ratio; the lower half of the
    agents recurses on the cake left of the floor(k/2)-th cut, the upper
    half on the cake right of it.
    """
    return _halving_allocation(profile, share_middle=False)


def modified_even_paz(profile: Profile) -> Allocation:
    """Recursive halving with the middle piece shared at every node.

    As :func:`even_paz`, except the cake between the floor(k/2)-th and the
    next cut is split proportionally among all k agents of the node (by
    plain Even-Paz restricted to that piece) instead of going to the right
    group.  Exactly proportional; allocations need not be contiguous.
    """
    return _halving_allocation(profile, share_middle=True)


EVEN_PAZ = Mechanism("even-paz", even_paz)
MODIFIED_EVEN_PAZ = Mechanism("modified-ep", modified_even_paz)

# The recursive-halving mechanisms, by name, and whether each shares the middle.
SHARES_MIDDLE: dict[str, bool] = {EVEN_PAZ.name: False, MODIFIED_EVEN_PAZ.name: True}


def with_zero_piece_exchange(mechanism: Mechanism) -> Mechanism:
    """Wrap a mechanism with a reallocation stage for reported-zero cake.

    After the base mechanism runs, every cell an agent holds but reports
    zero density on is transferred to the lowest-index agent reporting
    positive density there (cells nobody reports positive stay put).  Each
    agent's reported value weakly increases versus the base output.
    """

    def run(profile: Profile) -> Allocation:
        held: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(profile.n)]
        free: list[tuple[Fraction, Fraction]] = []
        for lo, hi, holders, _, densities in cells(profile, mechanism.run(profile)):
            if not holders:
                free.append((lo, hi))
                continue
            if densities[holders[0]] == 0:
                taker = next((j for j, d in enumerate(densities) if d > 0), None)
                if taker is not None:
                    holders = (taker, *holders[1:])
            for i in holders:
                held[i].append((lo, hi))
        return Allocation(tuple(Piece.ordered(p) for p in held), Piece.ordered(free))

    return Mechanism(f"{mechanism.name}-exchange", run)


def equal_split_nonwasteful(profile: Profile) -> Allocation:
    """Split every cell of the common breakpoint grid equally, by length,
    among the agents reporting positive density on it (left to right in
    agent-index order).  Cells desired by nobody are discarded, so the
    output is non-wasteful by construction.
    """
    held: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(profile.n)]
    free: list[tuple[Fraction, Fraction]] = []
    for lo, hi, _, _, densities in cells(profile):
        desirers = [i for i, d in enumerate(densities) if d > 0]
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
    return Allocation(tuple(Piece.ordered(p) for p in held), Piece.ordered(free))


EQUAL_SPLIT = Mechanism("equal-split", equal_split_nonwasteful)
EVEN_PAZ_EXCHANGE = with_zero_piece_exchange(EVEN_PAZ)._replace(name="ep-exchange")
MODIFIED_EP_EXCHANGE = with_zero_piece_exchange(MODIFIED_EVEN_PAZ)

MECHANISMS: dict[str, Mechanism] = {
    m.name: m
    for m in (EVEN_PAZ, MODIFIED_EVEN_PAZ, EQUAL_SPLIT,
              EVEN_PAZ_EXCHANGE, MODIFIED_EP_EXCHANGE)
}


def get_mechanism(name: str) -> Mechanism:
    try:
        return MECHANISMS[name]
    except KeyError:
        raise KeyError(f"unknown mechanism {name!r}; known: {sorted(MECHANISMS)}") from None
