"""Deterministic direct-revelation cake-cutting mechanisms.

All mechanisms map a profile of reported valuations to an allocation, are
pure functions (identical inputs give structurally identical outputs), and
produce allocations that pass :func:`cakecut.cake.validate_allocation`.

Even-Paz and modified Even-Paz run one recursive halving, :func:`_halving`,
a loop over a stack of nodes that makes no reference cycle; the gain engines
and the CLI read the ``SHARES_MIDDLE`` table, which names this family and
whether each member shares the cake between a node's two median cuts among
all of the node's agents.  Node ends are reduced int pairs.
One node step, :func:`_node_step`, puts a node's ends over one denominator,
takes each agent's cut as an unreduced int pair from one walk over its
segments and sorts the cuts on exact int keys; the recursion and the
cut-point planner both use it on these pairs, and both read a node's split
from :func:`_split` and place one agent's cut among the others' by
:func:`_rank`, which state the tie-break and the split rule once.  A node's
sorted cuts come from a table keyed by the ints of its ends and its agents'
bitmask, the only cache of node cuts: a full run keeps its own and follows
nobody.  With ``follow=i`` the table holds the other agents' cuts, shared
by all walks of a gain search, and only i's path (in modified Even-Paz,
also the middles on it) is walked, which is all a search needs to score a
misreport of agent i.  A ``Fraction`` is built only for the leaves of a
full run, and by the planner only when it realizes a plan as a misreport.

Every mechanism builds its allocation from int-key spans it already
produces in increasing order (the recursion's leaves over the lcm of their
denominators, the cell sweep of :func:`cakecut.cake.cells`), through
:meth:`cakecut.cake.Piece.ordered`, which merges touching neighbours, never
sorts and builds a ``Fraction`` only for a key it keeps; the discarded
piece is collected the same way instead of being inferred by a complement.
"""

from __future__ import annotations

import math
from bisect import bisect
from collections.abc import Callable

from cakecut.cake import (
    Allocation,
    KeyedPoints,
    Piece,
    PiecewiseConstantValuation,
    Profile,
    Record,
    cells,
)


class Mechanism(Record):
    """A named deterministic mechanism."""

    def __init__(self, name: str, run: Callable[[Profile], Allocation]) -> None:
        self.__dict__.update(name=name, run=run)


# A point of the cake as a reduced ``(numerator, denominator)`` int pair.
Point = tuple[int, int]
# A node's cuts as unreduced ``(numerator, denominator, agent)`` triples in
# (cut, agent) order.
Cuts = list[tuple[int, int, int]]
# A halving run's sorted cuts at each node it visits, without the followed
# agent's, keyed (a's numerator, a's denominator, b's numerator, b's
# denominator, the node's agents as a bitmask): see _halving.
NodeCuts = dict[tuple[int, int, int, int, int], Cuts]


def _node_step(profile: Profile, a: Point, b: Point, agents: list[int], k: int) -> Cuts:
    """The cuts of `agents` at the node [a, b] of k agents, each the leftmost
    point where the agent's value reaches the floor(k/2)/k share of its value
    for the node, taken over q, the lcm of the ends' denominators, and sorted
    on the exact int keys ``(numerator * (D // denominator), agent)``, D the
    lcm of the cuts' denominators."""
    (an, ad), (bn, bd) = a, b
    q = math.lcm(ad, bd)
    aq, bq = an * (q // ad), bn * (q // bd)
    half = k // 2
    cuts = [(*(profile[i]._share_cut(aq, bq, q, half, k) or (aq, q)), i) for i in agents]
    # not an idle test: at a node of two agents a path walk or the planner
    # asks for the other agent's cut alone, and skipping the lcm and the sort
    # there keeps `gain` faster
    if len(cuts) > 1:
        lcm = math.lcm(*(den for _, den, _ in cuts))
        cuts.sort(key=lambda cut: (cut[0] * (lcm // cut[1]), cut[2]))
    return cuts


def _rank(cuts: Cuts, num: int, den: int, agent: int) -> int:
    """How many of the sorted `cuts` precede `agent`'s cut num/den: cuts are
    ordered by value, compared by integer cross-multiplication (so unreduced
    spellings of one point are equal), and among equal cuts the lower agent
    index goes first."""
    return bisect(cuts, (0, agent), key=lambda cut: (cut[0] * den - num * cut[1], cut[2]))


def _lowest(num: int, den: int) -> Point:
    g = math.gcd(num, den)
    return num // g, den // g


def _split(cuts: Cuts, share_middle: bool) -> tuple[Point, Point, list[int], list[int]]:
    """``(d_lo, d_hi, left, right)`` for a node whose k agents cut at the
    sorted `cuts`: the first floor(k/2) agents (`left`) recurse on [a, d_lo],
    d_lo the floor(k/2)-th cut, and the others (`right`) on [d_hi, b].  d_hi
    is d_lo itself, the same object, unless `share_middle` and the next cut
    lies beyond d_lo; then d_hi is that cut, and the middle [d_lo, d_hi] of
    positive length is halved among all k agents without sharing.  Both are
    reduced int pairs."""
    half = len(cuts) // 2
    lo_num, lo_den, _ = cuts[half - 1]
    d_lo = d_hi = _lowest(lo_num, lo_den)
    if share_middle:
        hi_num, hi_den, _ = cuts[half]
        if lo_num * hi_den < hi_num * lo_den:
            d_hi = _lowest(hi_num, hi_den)
    agents = [cut[2] for cut in cuts]
    return d_lo, d_hi, agents[:half], agents[half:]


def _halving(profile: Profile, share_middle: bool, follow: int | None = None,
             others: NodeCuts | None = None) -> list[list[tuple[Point, Point]]]:
    """Recursive halving as one loop over a stack of nodes; returns each
    agent's list of ``(lo, hi)`` spans.  Each node [a, b] is split by
    :func:`_split` and its children are pushed right, middle (where there is
    one), left, so they are solved left, middle, right.  The sorted cuts of
    a node's agents but `follow` are read from, or computed into, `others`
    (a fresh table if None).  With `follow` that agent's cut is placed
    among them by :func:`_rank`, and only the children holding it are
    descended (a middle holds them all), so only its list is filled.  The
    cuts depend only on the node's ends, its agents and their valuations,
    so a search that varies only the followed agent's report walks all its
    candidates through one table; the table must not outlive that search.

    Node ends, and so the spans' ends, are reduced int pairs; no
    ``Fraction`` is built.  Children are visited left, middle, right and a
    leaf appends only a positive-length span, so every list is strictly
    increasing.  The leaves partition the cake.
    """
    pieces: list[list[tuple[Point, Point]]] = [[] for _ in range(profile.n)]
    if others is None:
        others = {}
    bits = [1 << i for i in range(profile.n)]
    stack = [((0, 1), (1, 1), list(range(profile.n)), share_middle)]
    while stack:
        a, b, agents, shared = stack.pop()
        if not agents:
            raise AssertionError("recursed on an empty agent set")
        k = len(agents)
        (an, ad), (bn, bd) = a, b
        if k == 1:
            if an * bd < bn * ad:
                pieces[agents[0]].append((a, b))
            continue
        key = (an, ad, bn, bd, sum(map(bits.__getitem__, agents)))
        cuts = others.get(key)
        if cuts is None:    # a new node; k >= 2, so it has an agent but `follow`
            cuts = others[key] = _node_step(
                profile, a, b, [i for i in agents if i != follow], k)
        if follow is not None:
            q = math.lcm(ad, bd)
            aq = an * (q // ad)
            num, den = profile[follow]._share_cut(aq, bn * (q // bd), q, k // 2, k) or (aq, q)
            cuts = cuts.copy()
            cuts.insert(_rank(cuts, num, den, follow), (num, den, follow))
        d_lo, d_hi, left, right = _split(cuts, shared)
        if follow not in left:
            stack.append((d_hi, b, right, shared))
        if d_hi is not d_lo:    # a shared middle of positive length
            stack.append((d_lo, d_hi, agents, False))
        if follow not in right:
            stack.append((a, d_lo, left, shared))
    return pieces


# The names under which a profile keeps its halving allocations, by share_middle.
_KEPT = ("_halving_allocation", "_halving_allocation_shared")


def _halving_allocation(profile: Profile, share_middle: bool) -> Allocation:
    """The full run's allocation: leaf ends as int keys over the lcm of their
    denominators, for :meth:`Piece.ordered`; the leaves cover the cake, so
    nothing is discarded.  The profile keeps it, like a valuation's
    ``integer_image`` out of ``==``, ``hash``, ``repr`` and JSON, so a second
    run on the same profile object (an exchange wrapper's base run) returns
    it with the :func:`cakecut.cake.cell_grid` kept on it."""
    allocation = profile.__dict__.get(_KEPT[share_middle])
    if allocation is None:
        spans = _halving(profile, share_middle)
        scale = math.lcm(*{den for agent in spans for span in agent for _, den in span})
        points = KeyedPoints(scale, ())
        allocation = profile.__dict__[_KEPT[share_middle]] = Allocation(
            tuple(Piece.ordered([(lo * (scale // p), hi * (scale // q))
                                 for (lo, p), (hi, q) in agent], points)
                  for agent in spans), Piece.empty())
    return allocation


def even_paz(profile: Profile) -> Allocation:
    """Recursive halving, each node split by :func:`_split` with no shared
    middle.  Contiguous and exactly proportional."""
    return _halving_allocation(profile, share_middle=False)


def modified_even_paz(profile: Profile) -> Allocation:
    """Recursive halving, each node split by :func:`_split` with its middle
    shared among all the node's agents.  Exactly proportional; allocations
    need not be contiguous."""
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
        points, rows = cells(profile, mechanism.run(profile))
        held: list[list[tuple[int, int]]] = [[] for _ in range(profile.n)]
        free: list[tuple[int, int]] = []
        for lo, hi, holders, wanting in rows:
            if not holders:
                free.append((lo, hi))
                continue
            if wanting and holders[0] not in wanting:
                holders = (wanting[0], *holders[1:])
            for i in holders:
                held[i].append((lo, hi))
        return Allocation(tuple(Piece.ordered(p, points) for p in held),
                          Piece.ordered(free, points))

    return Mechanism(f"{mechanism.name}-exchange", run)


def equal_split_nonwasteful(profile: Profile) -> Allocation:
    """Split every cell of the common breakpoint grid equally, by length,
    among the agents reporting positive density on it (left to right in
    agent-index order).  Cells desired by nobody are discarded, so the
    output is non-wasteful by construction.

    It splits on the grid's int keys times c, the lcm of the cells' desirer
    counts, so every split point is an exact int.
    """
    points, rows = cells(profile)
    c = math.lcm(*{len(desirers) for *_, desirers in rows if desirers})
    held: list[list[tuple[int, int]]] = [[] for _ in range(profile.n)]
    free: list[tuple[int, int]] = []
    for lo, hi, _, desirers in rows:
        start, hi = lo * c, hi * c
        if not desirers:
            free.append((start, hi))
            continue
        width = (hi - start) // len(desirers)
        for i in desirers[:-1]:
            held[i].append((start, start + width))
            start += width
        held[desirers[-1]].append((start, hi))
    points = points.over(c)
    return Allocation(tuple(Piece.ordered(p, points) for p in held),
                      Piece.ordered(free, points))


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
