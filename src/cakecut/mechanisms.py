"""Deterministic direct-revelation cake-cutting mechanisms.

All mechanisms map a profile of reported valuations to an allocation, are
pure functions (identical inputs give structurally identical outputs), and
produce allocations that pass :func:`cakecut.cake.validate_allocation`.

Tie handling in the divide-and-conquer mechanisms: cut points are ordered
with the agent index as a secondary key, and exactly the first floor(k/2)
agents of that total order recurse left.  This keeps the left/right group
sizes correct even when several agents report the same cut point, and agrees
with the plain rule whenever cut points are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from cakecut.cake import (
    Allocation,
    Interval,
    Piece,
    PiecewiseConstantValuation,
    Profile,
    ZERO,
    ONE,
    cells,
)


@dataclass(frozen=True)
class Mechanism:
    """A named deterministic mechanism."""

    name: str
    run: Callable[[Profile], Allocation]

    def __call__(self, profile: Profile) -> Allocation:
        return self.run(profile)


def _node_cut(v: PiecewiseConstantValuation, a: Fraction, b: Fraction,
              k: int) -> Fraction:
    """The reported cut on sub-cake [a, b]: leftmost point where the agent's
    value reaches the floor(k/2)/k share of its value for [a, b].

    The cut depends only on the valuation and (a, b, k), so it is memoised
    on the valuation: repeated runs on profiles that share valuation objects
    (every candidate of a manipulation search) compute each cut once.
    """
    memo = v.node_cuts
    key = (a, b, k)
    cut = memo.get(key)
    if cut is None:
        cut = memo[key] = v.cut_point(a, Fraction(k // 2, k) * v.value_between(a, b))
    return cut


def _split(profile: Profile, a: Fraction, b: Fraction,
           agents: Sequence[int]) -> tuple[Fraction, Fraction, list[int], list[int]]:
    """Sort reported cuts (index-tiebroken) and split the agent set in half.

    Returns (d_lo, d_hi, left, right) where d_lo is the floor(k/2)-th
    smallest cut, d_hi the next one, and left holds exactly floor(k/2) agents.
    """
    k = len(agents)
    half = k // 2
    cuts = sorted((_node_cut(profile[i], a, b, k), i) for i in agents)
    d_lo = cuts[half - 1][0]
    d_hi = cuts[half][0]
    left = [i for _, i in cuts[:half]]
    right = [i for _, i in cuts[half:]]
    return d_lo, d_hi, left, right


def even_paz(profile: Profile) -> Allocation:
    """Recursive halving.  Contiguous and exactly proportional.

    Each agent of a node reports the point splitting its value of the node
    sub-cake in the floor(k/2) : ceil(k/2) ratio; the lower half of the
    agents recurses on the cake left of the floor(k/2)-th cut, the upper
    half on the cake right of it.
    """
    pieces: dict[int, list[Interval]] = {i: [] for i in range(profile.n)}

    def solve(a: Fraction, b: Fraction, agents: list[int]) -> None:
        if not agents:
            raise AssertionError("recursed on an empty agent set")
        if len(agents) == 1:
            pieces[agents[0]].append(Interval(a, b))
            return
        d_lo, _, left, right = _split(profile, a, b, agents)
        solve(a, d_lo, left)
        solve(d_lo, b, right)

    solve(ZERO, ONE, list(range(profile.n)))
    return Allocation.of([Piece.of(pieces[i]) for i in range(profile.n)])


def modified_even_paz(profile: Profile) -> Allocation:
    """Recursive halving with the middle piece shared at every node.

    As :func:`even_paz`, except the cake between the floor(k/2)-th and the
    next cut is split proportionally among all k agents of the node (by
    plain Even-Paz restricted to that piece) instead of going to the right
    group.  Exactly proportional; allocations need not be contiguous.
    """
    pieces: dict[int, list[Interval]] = {i: [] for i in range(profile.n)}

    def solve_plain(a: Fraction, b: Fraction, agents: list[int]) -> None:
        if len(agents) == 1:
            pieces[agents[0]].append(Interval(a, b))
            return
        d_lo, _, left, right = _split(profile, a, b, agents)
        solve_plain(a, d_lo, left)
        solve_plain(d_lo, b, right)

    def solve(a: Fraction, b: Fraction, agents: list[int]) -> None:
        if len(agents) == 1:
            pieces[agents[0]].append(Interval(a, b))
            return
        d_lo, d_hi, left, right = _split(profile, a, b, agents)
        if d_lo < d_hi:
            solve_plain(d_lo, d_hi, agents)
        solve(a, d_lo, left)
        solve(d_hi, b, right)

    solve(ZERO, ONE, list(range(profile.n)))
    return Allocation.of([Piece.of(pieces[i]) for i in range(profile.n)])


def with_zero_piece_exchange(mechanism: Mechanism) -> Mechanism:
    """Wrap a mechanism with a reallocation stage for reported-zero cake.

    After the base mechanism runs, every cell an agent holds but reports
    zero density on is transferred to the lowest-index agent reporting
    positive density there (cells nobody reports positive stay put).  Each
    agent's reported value weakly increases versus the base output.
    """

    def run(profile: Profile) -> Allocation:
        held: list[list[Interval]] = [[] for _ in range(profile.n)]
        for lo, hi, holders, _, densities in cells(profile, mechanism.run(profile)):
            if holders and densities[holders[0]] == 0:
                taker = next((j for j, d in enumerate(densities) if d > 0), None)
                if taker is not None:
                    holders = (taker, *holders[1:])
            for i in holders:
                held[i].append(Interval(lo, hi))
        return Allocation.of([Piece.of(p) for p in held])

    return Mechanism(f"{mechanism.name}-exchange", run)


def equal_split_nonwasteful(profile: Profile) -> Allocation:
    """Split every cell of the common breakpoint grid equally, by length,
    among the agents reporting positive density on it (left to right in
    agent-index order).  Cells desired by nobody are discarded, so the
    output is non-wasteful by construction.
    """
    pieces: list[list[Interval]] = [[] for _ in range(profile.n)]
    for lo, hi, _, _, densities in cells(profile):
        desirers = [i for i, d in enumerate(densities) if d > 0]
        if not desirers:
            continue
        width = (hi - lo) / len(desirers)
        for slot, i in enumerate(desirers):
            pieces[i].append(Interval(lo + slot * width, lo + (slot + 1) * width))
    return Allocation.of([Piece.of(p) for p in pieces])


EVEN_PAZ = Mechanism("even-paz", even_paz)
MODIFIED_EVEN_PAZ = Mechanism("modified-ep", modified_even_paz)
EQUAL_SPLIT = Mechanism("equal-split", equal_split_nonwasteful)
EVEN_PAZ_EXCHANGE = replace(with_zero_piece_exchange(EVEN_PAZ), name="ep-exchange")
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
