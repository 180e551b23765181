import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cakecut.cake import (
    InfeasibleCutError,
    Piece,
    PiecewiseConstantValuation as PCV,
    Profile,
    ival,
    normalized,
)
from cakecut.mechanisms import MODIFIED_EVEN_PAZ
from cakecut.queries import (
    LearnedValuation,
    RWOracle,
    approximate_valuation,
    lift_direct_to_rw,
    query_budget,
)
from cakecut.sampling import random_profile, random_valuation
import support as reference

F = Fraction
U = PCV.uniform()
FRONT = PCV.of(["1/2"], [2, 0])


def approximation_gap(v: PCV, w: PCV) -> F:
    """Exact max over all pieces X of |W(X) - V(X)|.

    Both functions are constant on the cells of their combined breakpoint
    grid, so the worst piece is the union of all cells where one function
    exceeds the other; the two signed cell sums give the exact maximum.
    """
    pts = sorted(set(v.bounds) | set(w.bounds))
    over = under = F(0)
    for a, b in zip(pts, pts[1:]):
        diff = w.value_between(a, b) - v.value_between(a, b)
        if diff > 0:
            over += diff
        else:
            under -= diff
    return max(over, under)


class TestOracle:
    def test_eval_whole(self):
        assert RWOracle(U).eval(0, 1) == 1

    def test_eval_middle(self):
        assert RWOracle(U).eval("1/4", "3/4") == F(1, 2)

    def test_eval_past_support(self):
        assert RWOracle(FRONT).eval("1/4", 1) == F(1, 2)

    def test_eval_outside_cake_is_refused_unlogged(self):
        o = RWOracle(U)
        with pytest.raises(ValueError, match=r"^interval \[1/2, 3/2\] not within \[0, 1\]$"):
            o.eval("1/2", "3/2")
        assert o.log == [] and o.query_count == 0

    def test_cut_median(self):
        assert RWOracle(U).cut(0, "1/2") == F(1, 2)

    def test_cut_front_loaded(self):
        assert RWOracle(FRONT).cut(0, "1/2") == F(1, 4)

    def test_cut_zero_target(self):
        assert RWOracle(FRONT).cut("1/2", 0) == F(1, 2)

    def test_infeasible_cut(self):
        with pytest.raises(InfeasibleCutError):
            RWOracle(FRONT).cut("1/2", "1/10")

    def test_counts_distinct_queries_only(self):
        o = RWOracle(U)
        o.eval(0, "1/2")
        o.eval(0, "1/2")
        o.cut(0, "1/4")
        o.eval(0, "1/2")
        assert o.query_count == 2
        assert len(o.log) == 2

    @pytest.mark.parametrize("spellings", [
        (F(1, 2), "2/4", "0.5", F(2, 4), "1/2"),
        (0, F(0), "0", "0/3", "0.0"),
    ], ids=["half", "zero"])
    def test_one_value_in_any_spelling_is_one_query(self, spellings):
        o = RWOracle(U)
        evals = {o.eval(x, 1) for x in spellings}
        cuts = {o.cut(x, "1/4") for x in spellings}
        assert len(evals) == len(cuts) == 1
        assert o.query_count == 2
        assert [kind for kind, _, _ in o.log] == ["eval", "cut"]

    def test_eval_and_cut_on_the_same_numbers_are_two_queries(self):
        o = RWOracle(U)
        assert (o.eval("1/4", "1/2"), o.cut("1/4", "1/2")) == (F(1, 4), F(3, 4))
        assert (o.eval("1/4", "1/2"), o.cut("1/4", "1/2")) == (F(1, 4), F(3, 4))
        assert o.log == [("eval", (F(1, 4), F(1, 2)), F(1, 4)),
                         ("cut", (F(1, 4), F(1, 2)), F(3, 4))]

    def test_log_holds_fraction_triples(self):
        o = RWOracle(FRONT)
        o.eval(0, "1/2")
        o.cut("0.25", 0)
        o.eval(F(1, 4), 1)
        assert o.log == [("eval", (F(0), F(1, 2)), F(1)),
                         ("cut", (F(1, 4), F(0)), F(1, 4)),
                         ("eval", (F(1, 4), F(1)), F(1, 2))]
        assert all(type(v) is F for _, args, answer in o.log for v in (*args, answer))

    def test_log_consistent_with_hidden(self):
        rng = random.Random(20)
        o = RWOracle(random_valuation(rng, 3))
        for _ in range(30):
            x = F(rng.randrange(0, 10), 10)
            y = x + F(rng.randrange(0, 11 - 10 * x.numerator // x.denominator if x < 1 else 1), 10) * (1 - x)
            o.eval(x, min(y, F(1)))
        for kind, args, answer in o.log:
            assert o.hidden.value_between(*args) == answer

    def test_cut_eval_consistency(self):
        rng = random.Random(21)
        for _ in range(150):
            o = RWOracle(random_valuation(rng, 3))
            x = F(rng.randrange(0, 12), 12)
            y = x + F(rng.randrange(0, 13), 12) * (1 - x)
            r = o.eval(x, y)
            cut = o.cut(x, r)
            assert cut <= y
            if r > 0 and o.hidden.value_between(x, y) == r:
                assert o.eval(x, cut) == r

    def test_strategic_oracle_answers_report(self):
        o = RWOracle(FRONT)
        assert o.cut(0, "1/2") == F(1, 4)
        assert U.value_between(0, o.cut(0, "1/2")) == F(1, 4)


@st.composite
def cut_chains(draw):
    """A valuation on a 1/12 grid with zero-density segments, a chain's
    start x, slice r and count, and the chain positions (0 the first cut)
    whose queries the oracle has answered before the chain runs."""
    points = sorted(set(draw(st.lists(st.integers(1, 11), max_size=5))))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(points) + 1,
                            max_size=len(points) + 1).filter(any))
    v = normalized([F(p, 12) for p in points], weights)
    x = F(draw(st.integers(0, 12)), 12)
    r = F(draw(st.integers(0, 6)), draw(st.integers(1, 30)))
    count = draw(st.integers(1, 25))
    return v, x, r, count, draw(st.lists(st.integers(0, count - 1), max_size=4))


def outcome(ask):
    """ask()'s answers, or the type and message of what it raised."""
    try:
        return ask()
    except InfeasibleCutError as error:
        return type(error), str(error)


class TestChainedCuts:
    """The learner's chained cuts come from one pass of the hidden
    valuation's prefix masses, and read as the same cut queries one at a
    time."""

    @settings(max_examples=300, deadline=None)
    @given(cut_chains())
    def test_matches_repeated_cut_queries(self, case):
        v, x, r, count, asked = case
        chained, repeated = RWOracle(v), RWOracle(v)
        starts = [x]        # the reference's chain, by the Fraction segment walk
        for _ in range(count):
            try:
                starts.append(reference.cut_point(v, starts[-1], r))
            except InfeasibleCutError:
                break
        for oracle in (chained, repeated):
            oracle.eval(0, x)
            for j in asked:
                if j < len(starts) - 1:
                    oracle.cut(starts[j], r)

        def one_at_a_time():
            answers, y = [], x
            for _ in range(count):
                y = repeated.cut(y, r)
                answers.append(y)
            return answers

        expected = outcome(one_at_a_time)
        assert outcome(lambda: chained._cuts(x, r, count)) == expected
        assert chained.log == repeated.log
        assert chained._memo == repeated._memo
        assert chained.query_count == repeated.query_count
        if len(starts) > count:
            assert expected == starts[1:]
        else:
            assert expected == outcome(lambda: reference.cut_point(v, starts[-1], r))

    def test_infeasible_chain_keeps_the_earlier_queries(self):
        o = RWOracle(FRONT)
        with pytest.raises(InfeasibleCutError,
                           match="^requested value 1/3 exceeds remaining 0$"):
            o._cuts(F(0), F(1, 3), 4)
        assert o.log == [("cut", (F(0), F(1, 3)), F(1, 6)),
                         ("cut", (F(1, 6), F(1, 3)), F(1, 3)),
                         ("cut", (F(1, 3), F(1, 3)), F(1, 2))]
        with pytest.raises(InfeasibleCutError, match="^requested value 1/3 exceeds remaining 0$"):
            o.cut(F(1, 2), F(1, 3))
        assert o.query_count == 3


class TestLearner:
    def test_uniform_k1_eps1(self):
        o = RWOracle(U)
        learned = approximate_valuation(o, k=1, epsilon=1)
        assert learned.queries_used == 2
        assert learned.valuation == U
        assert o.query_count == 2

    def test_front_loaded_recovered_exactly(self):
        o = RWOracle(FRONT)
        learned = approximate_valuation(o, k=1, epsilon=1)
        assert [args for kind, args, _ in o.log] == [(F(0), F(1, 2)), (F(1, 4), F(1, 2))]
        assert learned.valuation == FRONT
        assert learned.queries_used == 2

    def test_budget_and_bound_two_breakpoints(self):
        rng = random.Random(22)
        hits = 0
        for _ in range(40):
            v = random_valuation(rng, max_breakpoints=2, denom=10)
            learned = approximate_valuation(RWOracle(v), k=2, epsilon="1/5")
            assert learned.queries_used == 20
            assert learned.valuation.value(Piece.whole()) == 1
            assert approximation_gap(v, learned.valuation) <= F(1, 10)
            hits += 1
        assert hits == 40

    def test_random_piece_error_bound(self):
        rng = random.Random(23)
        v = random_valuation(rng, max_breakpoints=2, denom=10)
        w = approximate_valuation(RWOracle(v), k=2, epsilon="1/5").valuation
        for _ in range(1000):
            cuts = sorted(F(rng.randrange(0, 61), 60) for _ in range(4))
            x = Piece.of([ival(cuts[0], cuts[1]), ival(cuts[2], cuts[3])])
            assert abs(w.value(x) - v.value(x)) <= F(1, 10)

    def test_per_slice_cell_bound(self):
        # within each learned cell both functions carry the same slice of
        # mass, so any sub-piece deviates by at most eps/(2k)
        rng = random.Random(24)
        for _ in range(30):
            v = random_valuation(rng, max_breakpoints=3, denom=8)
            k, eps = 3, F(1, 2)
            learned = approximate_valuation(RWOracle(v), k, eps)
            w = learned.valuation
            slice_mass = eps / (2 * k)
            bounds = [F(0)]
            for _ in range(learned.queries_used):
                bounds.append(v.cut_point(bounds[-1], slice_mass))
            for a, b in zip(bounds, bounds[1:]):
                assert w.value_between(a, b) == v.value_between(a, b) == slice_mass
                mid = (a + b) / 2
                assert abs(w.value_between(a, mid) - v.value_between(a, mid)) <= slice_mass

    def test_mass_exactly_one_always(self):
        rng = random.Random(25)
        for _ in range(100):
            v = random_valuation(rng, max_breakpoints=4, denom=9)
            for eps in (F(1), F(1, 2), F(2, 7)):
                learned = approximate_valuation(RWOracle(v), 4, eps)
                assert learned.valuation.value(Piece.whole()) == 1
                assert learned.queries_used == query_budget(4, eps)

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "2", F(2)])
    def test_k_that_is_not_an_int_is_refused_before_any_query(self, k):
        o = RWOracle(U)
        with pytest.raises(TypeError, match=r"^k must be an int, not "):
            approximate_valuation(o, k, "1/5")
        lifted = lift_direct_to_rw(MODIFIED_EVEN_PAZ, k, "1/5")
        oracles = [RWOracle(U), RWOracle(FRONT)]
        with pytest.raises(TypeError, match=r"^k must be an int, not "):
            lifted.run_on_oracles(oracles)
        assert o.log == [] and all(oracle.log == [] for oracle in oracles)

    def test_k_below_breakpoints_rejected(self):
        v = PCV.of(["1/4", "1/2", "3/4"], [1, 2, 0, 1])
        with pytest.raises(ValueError, match="below the hidden breakpoint count"):
            approximate_valuation(RWOracle(v), k=2, epsilon=1)


class TestLifting:
    def test_query_accounting_exact(self):
        # three agents, k=4, eps=1/2: 16 cuts each, 48 in total
        rng = random.Random(26)
        lifted = lift_direct_to_rw(MODIFIED_EVEN_PAZ, k=4, epsilon="1/2")
        profile = random_profile(rng, 3)
        run = lifted.run_profile(profile)
        assert run.queries == 48

    def test_uniform_agents_lift_exactly(self):
        lifted = lift_direct_to_rw(MODIFIED_EVEN_PAZ, k=2, epsilon="1/5")
        profile = Profile.of([U, U])
        run = lifted.run_profile(profile)
        assert run.learned == profile
        assert run.allocation == MODIFIED_EVEN_PAZ.run(profile)

    def test_lifted_proportionality_bound(self):
        rng = random.Random(27)
        lifted = lift_direct_to_rw(MODIFIED_EVEN_PAZ, k=2, epsilon="1/5")
        for _ in range(60):
            profile = random_profile(rng, 2, max_breakpoints=2)
            run = lifted.run_profile(profile)
            assert run.queries <= 2 * 20
            for i, v in enumerate(profile):
                assert v.value(run.allocation.pieces[i]) >= F(1, 2) - F(1, 10)

    def test_run_on_oracles_counts_visible_to_caller(self):
        lifted = lift_direct_to_rw(MODIFIED_EVEN_PAZ, k=1, epsilon=1)
        oracles = [RWOracle(U), RWOracle(FRONT)]
        allocation = lifted.run_on_oracles(oracles)
        assert [o.query_count for o in oracles] == [2, 2]
        assert allocation.n == 2

    def test_strategic_oracles_shift_outcome(self):
        lifted = lift_direct_to_rw(MODIFIED_EVEN_PAZ, k=2, epsilon="1/5")
        truthful = lifted.run_on_oracles([RWOracle(D) for D in (U, FRONT)])
        strategic = lifted.run_on_oracles(
            [RWOracle(U), RWOracle(U)])
        assert truthful != strategic
