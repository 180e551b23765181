import math
import random
from bisect import bisect
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cakecut import io
from cakecut.cake import (
    Piece,
    PiecewiseConstantValuation as PCV,
    Profile,
    normalized,
    validate_allocation,
)
from cakecut.mechanisms import (
    _halving,
    _node_step,
    _rank,
    _split,
    EVEN_PAZ,
    EQUAL_SPLIT,
    EVEN_PAZ_EXCHANGE,
    MECHANISMS,
    MODIFIED_EP_EXCHANGE,
    MODIFIED_EVEN_PAZ,
    SHARES_MIDDLE,
    equal_split_nonwasteful,
    even_paz,
    get_mechanism,
    modified_even_paz,
    with_zero_piece_exchange,
)
from cakecut.chains import ChainParameters, thm1_chain
from cakecut.properties import (
    SearchConfig, best_response_gain, ep_cutpoint_best_response, report_for)
from cakecut.sampling import random_profile, random_valuation
import support as reference
from support import reduced_pair, support

F = Fraction
U = PCV.uniform()

# two-agent reallocation-stage example: one agent ignores the bottom half,
# the other concentrates on the top fifth
D1 = PCV.of(["1/2"], [0, 2])
D2 = PCV.of(["1/2", "4/5"], [1, 0, "5/2"])
D2_LIE = PCV.of(["1/2", "4/5"], ["2/5", 1, "5/2"])

# near-worst-case manipulation fixture: half the mass in a thin front spike
SPIKE = PCV.of(["1/100", "1/2"], [50, 1, "1/50"])


def fraction_spans(spans):
    """_halving's spans, whose ends are reduced int pairs, as Fraction spans."""
    return [(F(*lo), F(*hi)) for lo, hi in spans]


class TestEvenPaz:
    def test_two_uniform_agents(self):
        alloc = even_paz(Profile.of([U, U]))
        assert alloc.pieces[0] == Piece.interval(0, "1/2")
        assert alloc.pieces[1] == Piece.interval("1/2", 1)
        assert U.value(alloc.pieces[0]) == F(1, 2)

    def test_four_uniform_agents_get_quarters(self):
        alloc = even_paz(Profile.of([U, U, U, U]))
        for i in range(4):
            assert alloc.pieces[i] == Piece.interval(F(i, 4), F(i + 1, 4))
            assert U.value(alloc.pieces[i]) == F(1, 4)

    def test_spike_agent_gets_front_sliver(self):
        alloc = even_paz(Profile.of([SPIKE, U]))
        assert alloc.pieces[0] == Piece.interval(0, "1/100")
        assert SPIKE.value(alloc.pieces[0]) == F(1, 2)
        assert U.value(alloc.pieces[1]) == F(99, 100)

    def test_contiguous_and_proportional_random(self):
        rng = random.Random(42)
        for _ in range(120):
            n = rng.randrange(2, 7)
            profile = random_profile(rng, n)
            alloc = even_paz(profile)
            assert validate_allocation(alloc, profile) == []
            assert alloc.is_contiguous
            for i, v in enumerate(profile):
                assert v.value(alloc.pieces[i]) >= F(1, n)

    def test_boundaries_nondecreasing(self):
        rng = random.Random(5)
        for _ in range(50):
            profile = random_profile(rng, 5)
            pts = reference.boundaries(even_paz(profile))
            assert pts == sorted(pts)

    def test_deterministic(self):
        rng = random.Random(9)
        profile = random_profile(rng, 4)
        assert even_paz(profile) == even_paz(profile)


class TestModifiedEvenPaz:
    def test_two_uniform_agents_match_even_paz(self):
        profile = Profile.of([U, U])
        assert modified_even_paz(profile) == even_paz(profile)

    def test_middle_goes_to_hungry_agent(self):
        # reports (D1, D2): cuts at 3/4 and 1/2; the shared middle [1/2, 3/4]
        # is worthless to agent 1, so agent 0 takes all of it
        alloc = modified_even_paz(Profile.of([D1, D2]))
        assert alloc.pieces[0] == Piece.interval("1/2", 1)
        assert alloc.pieces[1] == Piece.interval(0, "1/2")
        assert D2.value(alloc.pieces[1]) == F(1, 2)

    def test_misreport_shifts_boundary(self):
        alloc = modified_even_paz(Profile.of([D1, D2_LIE]))
        assert alloc.pieces[0] == Piece.interval(0, "31/40")
        assert alloc.pieces[1] == Piece.interval("31/40", 1)
        # true value of the lie's piece is the top-fifth mass only
        assert D2.value(alloc.pieces[1]) == F(1, 2)

    def test_proportional_random(self):
        rng = random.Random(43)
        for _ in range(120):
            n = rng.randrange(2, 7)
            profile = random_profile(rng, n)
            alloc = modified_even_paz(profile)
            assert validate_allocation(alloc, profile) == []
            for i, v in enumerate(profile):
                assert v.value(alloc.pieces[i]) >= F(1, n)

    def test_can_be_noncontiguous(self):
        rng = random.Random(44)
        seen = False
        for _ in range(200):
            profile = random_profile(rng, 3, max_breakpoints=3)
            seen = seen or not modified_even_paz(profile).is_contiguous
        assert seen


class TestZeroPieceExchange:
    def test_reallocation_rewards_the_lie(self):
        wrapped = MODIFIED_EP_EXCHANGE
        alloc = wrapped.run(Profile.of([D1, D2_LIE]))
        # agent 1 additionally receives [0, 1/2], which agent 0 reported at zero
        assert alloc.pieces[1] == Piece.of(
            Piece.interval(0, "1/2").union(Piece.interval("31/40", 1)).intervals)
        assert D2.value(alloc.pieces[1]) == 1

    def test_truthful_run_unchanged_here(self):
        wrapped = MODIFIED_EP_EXCHANGE
        base = modified_even_paz(Profile.of([D1, D2]))
        assert wrapped.run(Profile.of([D1, D2])) == base

    def test_gain_of_the_lie_is_half(self):
        wrapped = MODIFIED_EP_EXCHANGE
        truthful = D2.value(wrapped.run(Profile.of([D1, D2])).pieces[1])
        deviated = D2.value(wrapped.run(Profile.of([D1, D2_LIE])).pieces[1])
        assert truthful == F(1, 2)
        assert deviated == 1
        assert deviated - truthful == F(1, 2)

    def test_identity_on_hungry_profiles(self):
        rng = random.Random(45)
        wrapped = with_zero_piece_exchange(EVEN_PAZ)
        for _ in range(60):
            profile = random_profile(rng, 3, hungry=True)
            assert wrapped.run(profile) == EVEN_PAZ.run(profile)

    def test_cake_nobody_wants_stays_discarded(self):
        # both agents report zero on [1/2, 1], which equal-split discards
        profile = Profile.of([PCV.of(["1/2"], [2, 0]), PCV.of(["1/4", "1/2"], [1, 3, 0])])
        base = EQUAL_SPLIT.run(profile)
        after = with_zero_piece_exchange(EQUAL_SPLIT).run(profile)
        assert base.discarded == Piece.interval("1/2", 1)
        assert after == base
        assert validate_allocation(after, profile) == []

    @settings(max_examples=150, deadline=None)
    @given(pair=st.sampled_from([(EVEN_PAZ, EVEN_PAZ_EXCHANGE),
                                 (MODIFIED_EVEN_PAZ, MODIFIED_EP_EXCHANGE)]),
           seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7),
           denom=st.sampled_from([2, 3, 4, 12]))
    def test_weakly_improves_reported_values(self, pair, seed, n, denom):
        base_mechanism, wrapped = pair
        profile = random_profile(random.Random(seed), n, max_breakpoints=3, denom=denom)
        base = base_mechanism.run(profile)
        after = wrapped.run(profile)
        assert validate_allocation(after, profile) == []
        for i, v in enumerate(profile):
            assert v.value(after.pieces[i]) >= v.value(base.pieces[i])


class TestEqualSplit:
    def test_two_uniform_agents(self):
        alloc = equal_split_nonwasteful(Profile.of([U, U]))
        assert alloc.pieces[0] == Piece.interval(0, "1/2")
        assert alloc.pieces[1] == Piece.interval("1/2", 1)

    def test_undesired_cell_discarded(self):
        left = PCV.of(["1/2"], [2, 0])
        alloc = equal_split_nonwasteful(Profile.of([left, left]))
        assert alloc.discarded == Piece.interval("1/2", 1)

    def test_never_wasteful_random(self):
        rng = random.Random(47)
        for _ in range(120):
            profile = random_profile(rng, rng.randrange(2, 5))
            alloc = equal_split_nonwasteful(profile)
            assert validate_allocation(alloc, profile) == []
            # every cell some agent desires is held by an agent desiring it
            for i, piece in enumerate(alloc.pieces):
                for other in profile:
                    undesired = piece.intersect(support(profile[i], positive=False))
                    assert undesired.intersect(support(other)).measure == 0


class TestRegistry:
    def test_spec_names_present(self):
        assert set(MECHANISMS) == {
            "even-paz", "modified-ep", "equal-split",
            "ep-exchange", "modified-ep-exchange"}

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown mechanism"):
            get_mechanism("nope")


class TestEveryMechanism:
    PROPORTIONAL = {*SHARES_MIDDLE, EVEN_PAZ_EXCHANGE.name, MODIFIED_EP_EXCHANGE.name}

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(MECHANISMS)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 7))
    def test_valid_deterministic_and_proportional(self, name, seed, n):
        mechanism = MECHANISMS[name]
        profile = random_profile(random.Random(seed), n, max_breakpoints=3)
        allocation = mechanism.run(profile)
        assert validate_allocation(allocation, profile) == []
        assert mechanism.run(profile) == allocation
        if name in self.PROPORTIONAL:
            assert report_for(profile, allocation).proportionality_deficit == 0


class TestPathWalk:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(SHARES_MIDDLE)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 8), denom=st.sampled_from([2, 3, 4, 12]))
    def test_follow_gives_the_full_runs_piece(self, name, seed, n, denom):
        # small denominators make agents share breakpoints and tie on cuts;
        # random_valuation draws zero densities
        profile = random_profile(random.Random(seed), n, max_breakpoints=3, denom=denom)
        full = MECHANISMS[name].run(profile)
        for i in range(n):
            walk = _halving(profile, SHARES_MIDDLE[name], follow=i)
            assert reference.ordered(fraction_spans(walk[i])) == full.pieces[i]
            assert not any(walk[j] for j in range(n) if j != i)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(SHARES_MIDDLE)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 6), denom=st.sampled_from([2, 3, 4, 12]))
    def test_walks_share_one_table_of_other_cuts(self, name, seed, n, denom):
        # one agent's truthful report and five misreports walk through one
        # table of the other agents' cuts, as in a gain search
        rng = random.Random(seed)
        profile = random_profile(rng, n, max_breakpoints=3, denom=denom)
        agent = rng.randrange(n)
        others = {}
        lies = [profile[agent]] + [random_valuation(rng, max_breakpoints=3, denom=denom)
                                   for _ in range(5)]
        for lie in lies:
            deviated = profile.replace(agent, lie)
            walk = _halving(deviated, SHARES_MIDDLE[name], follow=agent, others=others)
            assert (reference.ordered(fraction_spans(walk[agent]))
                    == MECHANISMS[name].run(deviated).pieces[agent])
        # keyed on the ends' numerators and denominators and the agents' bitmask
        assert (0, 1, 1, 1, 2 ** n - 1) in others
        for (a_num, a_den, b_num, b_den, mask), cuts in others.items():
            a, b = F(a_num, a_den), F(b_num, b_den)
            agents = [i for i in range(n) if mask >> i & 1]
            k = len(agents)
            assert [(F(num, den), i) for num, den, i in cuts] == sorted(
                (profile[i].cut_point(a, F(k // 2, k) * profile[i].value_between(a, b)), i)
                for i in agents if i != agent)

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(SHARES_MIDDLE)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 7), denom=st.sampled_from([2, 3, 4, 12]))
    def test_walk_score_is_the_full_runs_value(self, name, seed, n, denom):
        # a gain search scores a walk by one integer sum over its int-pair
        # spans; modified-ep's walks hold middles
        rng = random.Random(seed)
        profile = random_profile(rng, n, max_breakpoints=3, denom=denom)
        agent = rng.randrange(n)
        true_v = profile[agent]
        others = {}
        for lie in [profile[agent], *(random_valuation(rng, max_breakpoints=3, denom=denom)
                                      for _ in range(4))]:
            deviated = profile.replace(agent, lie)
            spans = _halving(deviated, SHARES_MIDDLE[name], follow=agent, others=others)[agent]
            score = true_v._spans_value(spans)
            assert type(score) is Fraction
            assert score == true_v.value(reference.ordered(fraction_spans(spans)))
            assert score == true_v.value(MECHANISMS[name].run(deviated).pieces[agent])


class TestPaperReference:
    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(SHARES_MIDDLE)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 7), denom=st.sampled_from([2, 3, 4, 12]),
           copies=st.integers(0, 3))
    def test_runs_and_walks_follow_the_paper(self, name, seed, n, denom, copies):
        # small denominators make agents share breakpoints and tie on cuts,
        # random_valuation draws zero densities (zero-mass nodes), and the
        # copies give equal reports
        rng = random.Random(seed)
        agents = list(random_profile(rng, n, max_breakpoints=3, denom=denom))
        for _ in range(copies):
            agents[rng.randrange(n)] = agents[rng.randrange(n)]
        profile = Profile.of(agents)
        share_middle = SHARES_MIDDLE[name]
        expected = reference.halving(profile, share_middle)
        full = _halving(profile, share_middle)
        assert list(map(fraction_spans, full)) == expected
        assert all(reduced_pair(x) for spans in full for span in spans for x in span)
        assert MECHANISMS[name].run(profile).pieces == tuple(map(reference.ordered, expected))
        for i in range(n):
            assert fraction_spans(_halving(profile, share_middle, follow=i)[i]) == expected[i]
        # misreports of one agent walk through one table, as in a gain search
        agent = rng.randrange(n)
        others = {}
        lies = [profile[agent], profile[(agent + 1) % n],
                *(random_valuation(rng, max_breakpoints=3, denom=denom) for _ in range(4))]
        for lie in lies:
            deviated = profile.replace(agent, lie)
            walk = _halving(deviated, share_middle, follow=agent, others=others)
            assert (fraction_spans(walk[agent])
                    == reference.halving(deviated, share_middle)[agent])
            assert all(reduced_pair(x) for span in walk[agent] for x in span)


class TestHalvingOrder:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(SHARES_MIDDLE)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 8), denom=st.sampled_from([2, 3, 4, 12]))
    def test_every_list_strictly_increasing(self, name, seed, n, denom):
        # ties and zero densities give zero-length leaves, which are skipped
        profile = random_profile(random.Random(seed), n, max_breakpoints=3, denom=denom)
        for spans in map(fraction_spans, _halving(profile, SHARES_MIDDLE[name])):
            assert all(lo < hi for lo, hi in spans)
            assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


class TestSplitRule:
    # the two node rules the run and the planner share, against the
    # statements they replaced: the planner's bisect over (Fraction, agent)
    # pairs, and the reference's split (support.halving)
    @staticmethod
    def spelled(data):
        """A point of the 1/4 grid as an int pair, reduced or not (1/2 or 2/4)."""
        value = F(data.draw(st.integers(0, 4)), 4)
        factor = data.draw(st.integers(1, 3))
        return value.numerator * factor, value.denominator * factor

    def sorted_cuts(self, data, k):
        """k cuts of the agents of range(k) in (cut, agent) order; on the 1/4
        grid they repeat, and in several spellings."""
        agents = data.draw(st.permutations(range(k)))
        cuts = [(*self.spelled(data), i) for i in agents]
        return sorted(cuts, key=lambda cut: (F(cut[0], cut[1]), cut[2]))

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 8), data=st.data())
    def test_rank_is_the_bisect_over_fraction_pairs(self, k, data):
        cuts = self.sorted_cuts(data, k)
        _, _, agent = cuts.pop(data.draw(st.integers(0, k - 1)))
        num, den = self.spelled(data)
        pairs = [(F(n, d), i) for n, d, i in cuts]
        assert _rank(cuts, num, den, agent) == bisect(pairs, (F(num, den), agent))

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 8), share_middle=st.booleans(), data=st.data())
    def test_split_is_the_reference_rule(self, k, share_middle, data):
        cuts = self.sorted_cuts(data, k)
        half = k // 2
        lo, hi = F(*cuts[half - 1][:2]), F(*cuts[half][:2])
        d_lo, d_hi, left, right = _split(cuts, share_middle)
        assert reduced_pair(d_lo) and reduced_pair(d_hi)
        assert F(*d_lo) == lo
        assert left == [i for _, _, i in cuts[:half]]
        assert right == [i for _, _, i in cuts[half:]]
        if share_middle and lo < hi:
            assert F(*d_hi) == hi and d_hi is not d_lo
        else:
            assert d_hi is d_lo


class TestNodeCutMemo:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ends=st.tuples(st.integers(0, 24), st.integers(0, 24)),
           k=st.integers(1, 9))
    def test_memoised_cut_equals_direct_cut(self, seed, ends, k):
        v = random_valuation(random.Random(seed), max_breakpoints=4, denom=24)
        a, b = F(min(ends), 24), F(max(ends), 24)
        expected = v.cut_point(a, F(k // 2, k) * v.value_between(a, b))
        [(num, den, _)] = _node_step(Profile.of([v, U]), a.as_integer_ratio(),
                                     b.as_integer_ratio(), [0], k)
        assert F(num, den) == expected

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_one_pass_cut_equals_two_walks(self, seed, data):
        # ends drawn from the valuations' own bounds and from the 1/24 grid, and
        # some agents copies of others, so a == b, ends on breakpoints,
        # zero-mass nodes and tied cuts all occur
        rng = random.Random(seed)
        valuations = [random_valuation(rng, max_breakpoints=4, denom=24)]
        for _ in range(data.draw(st.integers(1, 4))):
            valuations.append(rng.choice(valuations) if rng.randrange(3) == 0
                              else random_valuation(rng, max_breakpoints=4, denom=24))
        profile = Profile.of(valuations)
        bounds = sorted({x for v in profile for x in v.bounds})
        point = st.sampled_from(bounds) | st.integers(0, 24).map(lambda i: F(i, 24))
        a, b = sorted(data.draw(st.tuples(point, point)))
        agents = data.draw(st.lists(st.sampled_from(range(profile.n)), min_size=1,
                                    unique=True))
        k = data.draw(st.integers(max(2, len(agents)), 9))
        share = F(k // 2, k)
        cuts = [(F(num, den), i) for num, den, i in _node_step(
            profile, a.as_integer_ratio(), b.as_integer_ratio(), agents, k)]
        assert cuts == sorted((reference.node_cut(profile[i], a, b, share), i)
                              for i in agents)
        for cut, i in cuts:
            assert cut == profile[i].cut_point(a, share * profile[i].value_between(a, b))

    @settings(max_examples=400, deadline=None)
    @given(points=st.lists(st.integers(1, 23), unique=True, max_size=6).map(sorted),
           data=st.data())
    def test_share_cut_is_the_walks_pair(self, points, data):
        # the unreduced pair fixes _node_candidates' scale, so the node cut must
        # spell it as the segment walk did, not only reach the same Fraction;
        # zero-density heads, a == b and num == 0 all occur
        weights = data.draw(st.lists(st.integers(0, 4), min_size=len(points) + 1,
                                     max_size=len(points) + 1).filter(any))
        v = normalized([F(p, 24) for p in points], weights)
        g = data.draw(st.sampled_from([24, 7, 10]))
        point = st.sampled_from(v.bounds) | st.integers(0, g).map(lambda i: F(i, g))
        a, b = sorted(data.draw(st.tuples(point, point | st.just(F(0)))))
        q = math.lcm(a.denominator, b.denominator) * data.draw(st.integers(1, 3))
        s = data.draw(st.integers(1, 9))
        num = data.draw(st.sampled_from([0, s]) | st.integers(0, s))
        args = (a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q,
                num, s)
        cut = v._share_cut(*args)
        assert cut == reference.share_cut(v, *args)
        if cut is not None:
            assert all(type(i) is int for i in cut)
            assert F(*cut) == reference.node_cut(v, a, b, F(num, s))
        else:
            assert num * v.value_between(a, b) == 0

    @pytest.mark.parametrize("a, b, share, cut", [
        ("1/3", "1/3", "1/2", "1/3"),     # a == b
        ("0", "1/2", "1/2", "0"),         # zero mass: the cut stays at a
        ("1/2", "1", "1/2", "3/4"),       # both ends on breakpoints
        ("1/4", "1", "1/2", "3/4"),       # zero-density head, then mass
        ("1/2", "1", "0", "1/2"),         # a node of one agent: share 0
    ])
    def test_one_pass_cut_edge_cases(self, a, b, share, cut):
        a, b, share = F(a), F(b), F(share)
        k = share.denominator                       # share == F(k // 2, k)
        [(num, den, _)] = _node_step(Profile.of([D1, U]), a.as_integer_ratio(),
                                     b.as_integer_ratio(), [0], k)
        assert F(num, den) == F(cut)
        assert D1.cut_point(a, share * D1.value_between(a, b)) == F(cut)

    def test_valuations_hold_no_hidden_state(self):
        v = PCV.of(["1/3", "3/4"], [F(3, 4), F(3, 2), F(1, 2)])
        profile = Profile.of([v, U, SPIKE])
        for mechanism in MECHANISMS.values():
            mechanism.run(profile)
        cfg = SearchConfig(mass_denominator=3, max_breakpoints=1, offset_rounds=0,
                           max_candidates=12)
        best_response_gain(EVEN_PAZ, profile, 0, cfg)
        ep_cutpoint_best_response(MODIFIED_EVEN_PAZ, profile, 0, cfg)
        witness = thm1_chain(EVEN_PAZ, ChainParameters.of(3))
        fields = set(PCV._fields)
        assert all("integer_image" in vars(w) for w in profile)
        for w in [*profile, *(u for p in witness.profiles for u in p)]:
            assert vars(w).keys() - fields <= {"integer_image"}
            twin = io.valuation_from_json(io.valuation_to_json(w), "twin")
            assert w == twin and hash(w) == hash(twin) and repr(w) == repr(twin)
            assert (io.canonical_dumps(io.valuation_to_json(w))
                    == io.canonical_dumps(io.valuation_to_json(twin)))
