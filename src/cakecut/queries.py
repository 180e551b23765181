"""Simulated Robertson-Webb query oracles, valuation learning, and lifting.

A mechanism in the query model never sees a valuation function; it interacts
through ``eval`` (value of an interval) and ``cut`` (leftmost point
accumulating a target value).  The oracles here answer those queries exactly
from a backing step function and count them.  Query accounting counts
distinct oracle queries: repeats of an already-answered query are served from
a memo and not recounted, while any cuts the center computes for itself are
free.

On top of the oracle sits the valuation learner: with ``floor(2k/eps)`` cut
queries it builds a unit-mass step function w whose value differs from the
hidden valuation's by at most eps/2 on every piece of cake (k must bound the
hidden interior breakpoint count).  Feeding learned valuations to a direct-
revelation mechanism lifts it into the query model with at most
``n * floor(2k/eps)`` queries in total.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from cakecut.cake import (
    Allocation,
    ONE,
    PiecewiseConstantValuation,
    Profile,
    RationalLike,
    Record,
    ZERO,
    frac,
)
from cakecut.mechanisms import Mechanism


class RWOracle:
    """Answers eval/cut queries for a hidden valuation, with a query log.

    Single-owner mutable state; use one oracle per agent per run.  Distinct
    oracles are independent.
    """

    def __init__(self, hidden: PiecewiseConstantValuation):
        self.hidden = hidden
        self.log: list[tuple[str, tuple[Fraction, ...], Fraction]] = []
        self._memo: dict[tuple[str, Fraction, Fraction], Fraction] = {}

    @property
    def query_count(self) -> int:
        return len(self.log)

    def _ask(self, kind: str, x: Fraction, y: Fraction) -> Fraction:
        key = (kind, x, y)
        if key not in self._memo:
            if kind == "eval":
                answer = self.hidden.value_between(x, y)
            else:
                answer = self.hidden.cut_point(x, y)
            self._memo[key] = answer
            self.log.append((kind, (x, y), answer))
        return self._memo[key]

    def eval(self, x: RationalLike, y: RationalLike) -> Fraction:
        """Exact value of [x, y]."""
        x, y = frac(x), frac(y)
        if not (ZERO <= x <= y <= ONE):
            raise ValueError(f"eval range [{x}, {y}] not within [0, 1]")
        return self._ask("eval", x, y)

    def cut(self, x: RationalLike, r: RationalLike) -> Fraction:
        """Leftmost y with value of [x, y] equal to r; cut(x, 0) == x.

        Raises InfeasibleCutError when r exceeds the value of [x, 1]; callers
        must only issue feasible cuts.
        """
        x, r = frac(x), frac(r)
        return self._ask("cut", x, r)


class LearnedValuation(Record):
    """Result of the cut-query learner: a unit-mass approximation."""

    def __init__(self, valuation: PiecewiseConstantValuation, queries_used: int,
                 epsilon: Fraction, k: int) -> None:
        self.__dict__.update(valuation=valuation, queries_used=queries_used,
                             epsilon=epsilon, k=k)


def query_budget(k: int, epsilon: Fraction) -> int:
    return math.floor(Fraction(2 * k) / epsilon)


def approximate_valuation(oracle: RWOracle, k: int,
                          epsilon: RationalLike) -> LearnedValuation:
    """Learn a step function w from cut queries alone.

    Issues exactly floor(2k/eps) cuts, each advancing by an eps/(2k) slice of
    value; each learned segment carries that slice as its mass, and whatever
    lies right of the last cut carries the remainder.  The result has total
    mass exactly 1 and approximates the hidden valuation within eps/2 on
    every piece of cake.
    """
    epsilon = frac(epsilon)
    if epsilon <= 0 or k < 1:
        raise ValueError("need epsilon > 0 and k >= 1")
    if len(oracle.hidden.breakpoints) > k:
        raise ValueError(
            f"k={k} below the hidden breakpoint count {len(oracle.hidden.breakpoints)}")
    slice_mass = epsilon / (2 * k)
    n_queries = query_budget(k, epsilon)
    before = oracle.query_count
    xs = [ZERO]
    for _ in range(n_queries):
        x = oracle.cut(xs[-1], slice_mass)
        if not x > xs[-1]:
            raise AssertionError(f"cut did not advance past {xs[-1]}")
        xs.append(x)
    points = xs[1:]
    masses = [slice_mass] * n_queries
    if not points or points[-1] != ONE:
        masses.append(1 - n_queries * slice_mass)
    else:
        points = points[:-1]
    w = PiecewiseConstantValuation.from_masses(points, masses)
    used = oracle.query_count - before
    if used != n_queries:
        raise AssertionError(f"issued {used} queries, budget {n_queries}")
    return LearnedValuation(w, used, epsilon, k)


class LiftRun(Record):
    def __init__(self, allocation: Allocation, learned: Profile, queries: int) -> None:
        self.__dict__.update(allocation=allocation, learned=learned, queries=queries)


class LiftedMechanism(Record):
    """A query-model mechanism: learn every agent, then run the base."""

    def __init__(self, base: Mechanism, k: int, epsilon: Fraction) -> None:
        self.__dict__.update(base=base, k=k, epsilon=epsilon)

    def _learn(self, oracles: Sequence[RWOracle]) -> Profile:
        return Profile.of(
            approximate_valuation(o, self.k, self.epsilon).valuation for o in oracles)

    def run_on_oracles(self, oracles: Sequence[RWOracle]) -> Allocation:
        return self.base.run(self._learn(oracles))

    def run_profile(self, profile: Profile) -> LiftRun:
        """Convenience wrapper: make truthful oracles, learn, and run."""
        oracles = [RWOracle(v) for v in profile]
        learned = self._learn(oracles)
        return LiftRun(self.base.run(learned), learned,
                       sum(o.query_count for o in oracles))


def lift_direct_to_rw(mechanism: Mechanism, k: int,
                      epsilon: RationalLike) -> LiftedMechanism:
    """Lift a direct-revelation mechanism into the query model.

    Total queries are at most n * floor(2k/eps).  Properties degrade by the
    learning error: a proportional base guarantees every agent a true value
    of at least 1/n - eps/2, an envy-free base bounds true envy by eps.
    """
    return LiftedMechanism(mechanism, k, frac(epsilon))
