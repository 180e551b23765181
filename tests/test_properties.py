import gc
import hashlib
import itertools
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from cakecut import cake, io, properties
from cakecut.cake import (
    Allocation,
    Interval,
    Piece,
    PiecewiseConstantValuation as PCV,
    Profile,
    ZERO,
    normalized,
    validate_allocation,
)
from cakecut.mechanisms import (
    EQUAL_SPLIT,
    EVEN_PAZ,
    EVEN_PAZ_EXCHANGE,
    MECHANISMS,
    MODIFIED_EP_EXCHANGE,
    MODIFIED_EVEN_PAZ,
    SHARES_MIDDLE,
    Mechanism,
    _node_step,
)
from cakecut.properties import (
    GainCertificate,
    PropertyCertificate,
    SearchConfig,
    best_response_gain,
    check_properties,
    ep_cutpoint_best_response,
    evaluate_misreport,
    report_for,
)
from cakecut.sampling import random_profile, random_valuation
import support as reference
from support import reduced_pair, support

F = Fraction
U = PCV.uniform()
SPIKE = PCV.of(["1/100", "1/2"], [50, 1, "1/50"])
D1 = PCV.of(["1/2"], [0, 2])
D2 = PCV.of(["1/2", "4/5"], [1, 0, "5/2"])

CONSTANT = Mechanism(
    "constant-halves",
    lambda p: Allocation.of(
        [Piece.interval(F(i, p.n), F(i + 1, p.n)) for i in range(p.n)]))

WASTEFUL = Mechanism(
    "wasteful-halver",
    lambda p: Allocation.of(
        [Piece.interval(F(i, 2 * p.n), F(i + 1, 2 * p.n)) for i in range(p.n)]))


def prop4_bound(n: int) -> F:
    if n in (2, 4):
        return F(1, 2)
    if n in (3, 5):
        return F(2, 3)
    return 1 - F(2, n)


class TestCheckProperties:
    def test_even_paz_uniform(self):
        report = check_properties(EVEN_PAZ, Profile.of([U, U]))
        assert report.proportionality_deficit == 0
        assert report.envy == 0
        assert report.contiguous
        assert report.wasted_measure == 0

    def test_modified_ep_on_exchange_example(self):
        report = check_properties(MODIFIED_EVEN_PAZ, Profile.of([D1, D2]))
        assert report.proportionality_deficit == 0
        # the middle collapses onto the neighbouring piece here
        assert report.contiguous

    def test_equal_split_never_wastes(self):
        rng = random.Random(60)
        for _ in range(60):
            profile = random_profile(rng, rng.randrange(2, 5))
            assert check_properties(EQUAL_SPLIT, profile).wasted_measure == 0

    def test_wasteful_mechanism_flagged(self):
        report = check_properties(WASTEFUL, Profile.of([U, U]))
        assert report.wasted_measure == F(1, 2)
        assert report.proportionality_deficit == F(1, 4)

    def test_unheld_desired_cake_is_wasted(self):
        # agent 0 holds [0, 1/2]; nobody holds [1/2, 1], which both desire
        allocation = Allocation((Piece.interval(0, "1/2"), Piece.empty()), Piece.empty())
        assert report_for(Profile.of([U, U]), allocation).wasted_measure == F(1, 2)

    def test_envy_detected(self):
        alloc = Allocation.of([Piece.interval(0, "1/4"), Piece.interval("1/4", 1)])
        report = report_for(Profile.of([U, U]), alloc)
        assert report.envy == F(1, 2)
        assert report.proportionality_deficit == F(1, 4)

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_size_mismatch_raises(self, pieces):
        alloc = Allocation.of([Piece.interval(F(i, pieces), F(i + 1, pieces))
                               for i in range(pieces)])
        with pytest.raises(ValueError, match="pieces for 2 agents"):
            report_for(Profile.of([U, U]), alloc)


class TestEvaluateMisreport:
    def test_spike_median_misreport(self):
        profile = Profile.of([SPIKE, U])
        lie = PCV.from_masses(["49/100"], ["1/2", "1/2"])
        cert = evaluate_misreport(EVEN_PAZ, profile, 0, lie)
        assert cert.truthful_value == F(1, 2)
        assert cert.deviated_value == F(98, 100)
        assert cert.gain == F(48, 100)
        assert cert.verify(EVEN_PAZ)

    def test_certificate_is_self_verifying(self):
        rng = random.Random(61)
        for _ in range(20):
            profile = random_profile(rng, 3)
            lie = random_profile(rng, 2)[0]
            cert = evaluate_misreport(MODIFIED_EVEN_PAZ, profile, 1, lie)
            assert cert.verify()

    def test_tampered_certificate_fails(self):
        profile = Profile.of([SPIKE, U])
        lie = PCV.from_masses(["49/100"], ["1/2", "1/2"])
        cert = evaluate_misreport(EVEN_PAZ, profile, 0, lie)
        forged = GainCertificate(cert.mechanism, cert.profile, cert.agent,
                                 cert.misreport, cert.truthful_value,
                                 cert.deviated_value + 1, cert.gain)
        assert not forged.verify(EVEN_PAZ)


class TestPropertyCertificate:
    def test_verify_recomputes_the_report(self):
        profile = Profile.of([D1, D2])
        cert = PropertyCertificate("modified-ep", profile,
                                   check_properties(MODIFIED_EVEN_PAZ, profile))
        assert cert.verify()
        forged = cert._replace(report=cert.report._replace(envy=cert.report.envy + 1))
        assert not forged.verify()


class TestGridEngine:
    def test_constant_mechanism_gain_zero(self):
        rng = random.Random(62)
        for _ in range(10):
            profile = random_profile(rng, 3)
            cert = best_response_gain(CONSTANT, profile, 0)
            assert cert.gain == 0

    @pytest.mark.parametrize("cfg, breakpoints, densities", [
        (SearchConfig(), ["63/6400", "1/100"], ["1600/63", "1600", "50/99"]),
        (SearchConfig(mass_denominator=3, max_candidates=None),
         ["63/6400", "1/100"], ["0", "6400/3", "200/297"]),
    ], ids=["default", "full-grid"])
    def test_ties_go_to_smallest_encoding(self, cfg, breakpoints, densities):
        # every misreport scores the same under CONSTANT, so the winner is the
        # candidate with the smallest (bounds, densities)
        profile = Profile.of([SPIKE, U, D2])
        cert = best_response_gain(CONSTANT, profile, 0, cfg)
        assert cert.gain == 0
        assert cert.misreport == PCV.of(breakpoints, densities)
        assert cert.misreport != profile[0]

    def test_finds_exchange_manipulation_exactly(self):
        cfg = SearchConfig(mass_denominator=10, max_breakpoints=2,
                           offset_rounds=0, max_candidates=None)
        cert = best_response_gain(MODIFIED_EP_EXCHANGE, Profile.of([D1, D2]), 1, cfg)
        assert cert.truthful_value == F(1, 2)
        assert cert.deviated_value == 1
        assert cert.gain == F(1, 2)
        assert cert.verify()

    def test_gain_never_negative(self):
        rng = random.Random(63)
        for _ in range(15):
            profile = random_profile(rng, 2)
            cert = best_response_gain(EVEN_PAZ, profile, rng.randrange(2))
            assert cert.gain >= 0
            assert cert.verify()

    @pytest.mark.parametrize("budget", [
        {"mass_denominator": 0}, {"mass_denominator": -2}, {"max_breakpoints": -1},
        {"offset_rounds": -1}, {"max_candidates": -3}, {"max_candidates": 0},
    ])
    def test_budget_that_searches_nothing_rejected(self, budget):
        with pytest.raises(ValueError, match=next(iter(budget))):
            SearchConfig(**budget)

    def test_deterministic_given_seed(self):
        rng = random.Random(64)
        profile = random_profile(rng, 3)
        a = best_response_gain(EVEN_PAZ, profile, 0)
        b = best_response_gain(EVEN_PAZ, profile, 0)
        assert a == b


def compositions(total, parts):
    """The compositions of `total` into `parts` masses, head first ascending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head, *rest)


def grid_candidate(scale, keys, masses, d):
    """The valuation a grid search builds from one descriptor on its pool's
    keys over `scale`."""
    keys = (0, *keys, scale)
    image, kept = cake._merged(scale, keys, masses, d)
    return PCV._checked([F(keys[k], scale) for k in kept],
                        [F(w, image[1]) for w in image[3]], image)


def wide_profile(m):
    """One agent with m breakpoints and one uniform agent."""
    wide = normalized([F(j, m + 1) for j in range(1, m + 1)], [1 + j % 2 for j in range(m + 1)])
    return Profile.of([wide, U])


class TestGridSampling:
    """The grid engine unranks sampled indices instead of listing every misreport."""

    @staticmethod
    def built(monkeypatch):
        """The (bound keys, masses) of every candidate valuation a search builds."""
        calls = []
        real = properties._merged

        def counted(scale, keys, masses, d):
            calls.append((tuple(keys), tuple(masses)))
            return real(scale, keys, masses, d)

        monkeypatch.setattr(properties, "_merged", counted)
        return calls

    @settings(max_examples=80, deadline=None)
    @given(pool_size=st.integers(0, 7), d=st.integers(1, 5), max_size=st.integers(0, 3))
    def test_unranked_equals_materialized(self, pool_size, d, max_size):
        pool = [F(j + 1, pool_size + 1) for j in range(pool_size)]
        materialized = [(points, masses) for size in range(max_size + 1)
                        for points in itertools.combinations(pool, size)
                        for masses in compositions(d, size + 1)]
        cfg = SearchConfig(mass_denominator=d, max_breakpoints=max_size, max_candidates=None)
        assert list(properties._descriptors(pool, cfg)) == materialized

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(MECHANISMS)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 5), denom=st.sampled_from([2, 3, 4, 12, 96]),
           d=st.integers(1, 6), max_size=st.integers(0, 3), rounds=st.integers(0, 2),
           budget=st.sampled_from([1, 16, 64]))
    def test_every_descriptor_builds(self, name, seed, n, denom, d, max_size, rounds, budget):
        # the pool is strictly increasing inside (0, 1) and the masses are a
        # composition of d, so every drawn misreport is a valid valuation
        profile = random_profile(random.Random(seed), n, max_breakpoints=3, denom=denom)
        cfg = SearchConfig(d, max_size, rounds, budget, seed)
        scale, pool = properties._candidate_points(profile, MECHANISMS[name].run(profile), cfg)
        assert all(0 < p < scale for p in pool)
        assert all(p < q for p, q in zip(pool, pool[1:]))
        for keys, masses in properties._descriptors(pool, cfg):
            assert len(masses) == len(keys) + 1 and sum(masses) == d
            v = grid_candidate(scale, keys, masses, d)
            assert v.value_between(0, 1) == 1

    @settings(max_examples=150, deadline=None)
    @given(scale=st.sampled_from([2, 4, 12, 96, 154]),
           drawn=st.sets(st.integers(1, 153), max_size=6), d=st.integers(1, 5),
           max_size=st.integers(0, 3), budget=st.sampled_from([None, 24]),
           seed=st.integers(0, 2**32 - 1))
    @example(scale=4, drawn={1, 2, 3}, d=4, max_size=3, budget=None, seed=0)
    def test_int_builder_is_from_masses(self, scale, drawn, d, max_size, budget, seed):
        # zero masses and equal densities merge (the example's (1, 1, 1, 1)
        # over quarters is uniform); the search's dedupe hashes the image
        pool = sorted(k for k in drawn if k < scale)
        cfg = SearchConfig(d, max_size, 0, budget, seed)
        for keys, masses in properties._descriptors(pool, cfg):
            points, fractions = [F(k, scale) for k in keys], [F(m, d) for m in masses]
            v = grid_candidate(scale, keys, masses, d)
            assert v == PCV.from_masses(points, fractions) == reference.from_masses(
                points, fractions)
            assert v.integer_image == PCV.from_masses(points, fractions).integer_image
            assert v.integer_image == PCV(v.bounds, v.densities).integer_image

    def test_wide_search_builds_at_most_max_candidates(self, monkeypatch):
        built = self.built(monkeypatch)
        cert = best_response_gain(EVEN_PAZ, wide_profile(400), 0)
        assert 0 < len(built) <= SearchConfig().max_candidates
        assert cert.gain >= 0

    def test_draws_past_maxsize_match_sample(self, monkeypatch):
        # 586 misreports: with maxsize below that, the draws come from
        # randrange and must pick the candidates random.sample picks
        profile, cfg = Profile.of([SPIKE, D2]), SearchConfig(max_candidates=7)
        built = self.built(monkeypatch)
        expected = best_response_gain(EVEN_PAZ, profile, 0, cfg)
        sampled = built.copy()
        monkeypatch.setattr(properties, "sys", SimpleNamespace(maxsize=300))
        del built[:]
        assert best_response_gain(EVEN_PAZ, profile, 0, cfg) == expected
        assert built == sampled and len(built) == cfg.max_candidates

    def test_sizes_stop_at_the_pool(self, monkeypatch):
        # no misreport has more breakpoints than the pool has points, so a
        # search allowed far more numbers, draws and builds the same
        # misreports and asks comb no more than one allowed the pool's size
        profile = Profile.of([SPIKE, D2])
        _, pool = properties._candidate_points(profile, EVEN_PAZ.run(profile), SearchConfig())
        calls = []
        real = properties.comb
        monkeypatch.setattr(properties, "comb", lambda n, k: calls.append((n, k)) or real(n, k))
        found = []
        for most in (len(pool), 10**5):
            del calls[:]
            cert = best_response_gain(EVEN_PAZ, profile, 0, SearchConfig(max_breakpoints=most))
            found.append((cert, calls.copy()))
        assert found[0] == found[1]

    def test_search_past_maxsize(self, monkeypatch):
        # C(pool, 16) * C(20, 16) misreports overflow len(range(...))
        built = self.built(monkeypatch)
        cfg = SearchConfig(max_breakpoints=16, offset_rounds=1)
        cert = best_response_gain(EVEN_PAZ, wide_profile(40), 0, cfg)
        assert len(built) == cfg.max_candidates and cert.verify()


class TestCutPointEngine:
    def test_uniform_pair_has_no_gain(self):
        cert = ep_cutpoint_best_response(EVEN_PAZ, Profile.of([U, U]), 0)
        assert cert.gain == 0

    def test_three_uniform_agents_no_gain(self):
        cert = ep_cutpoint_best_response(EVEN_PAZ, Profile.of([U, U, U]), 0)
        assert cert.gain == 0

    def test_spike_fixture_gain(self):
        cert = ep_cutpoint_best_response(EVEN_PAZ, Profile.of([SPIKE, U]), 0)
        assert cert.gain == F(49, 100)
        assert cert.verify()

    def test_rejects_non_family_mechanism(self):
        with pytest.raises(ValueError, match="recursive-halving"):
            ep_cutpoint_best_response(EQUAL_SPLIT, Profile.of([U, U]), 0)

    def test_dominates_grid_engine(self):
        rng = random.Random(65)
        for _ in range(25):
            n = rng.randrange(2, 5)
            profile = random_profile(rng, n)
            agent = rng.randrange(n)
            grid = best_response_gain(EVEN_PAZ, profile, agent)
            exact = ep_cutpoint_best_response(EVEN_PAZ, profile, agent)
            assert exact.gain >= grid.gain
            assert exact.verify()

    def test_modified_ep_engine_sound(self):
        rng = random.Random(66)
        for _ in range(25):
            n = rng.randrange(2, 5)
            profile = random_profile(rng, n)
            agent = rng.randrange(n)
            grid = best_response_gain(MODIFIED_EVEN_PAZ, profile, agent)
            exact = ep_cutpoint_best_response(MODIFIED_EVEN_PAZ, profile, agent)
            assert exact.gain >= grid.gain
            assert exact.verify()

    def test_gain_bounds_small_sample(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randrange(2, 6)
            profile = random_profile(rng, n)
            agent = rng.randrange(n)
            cert = ep_cutpoint_best_response(EVEN_PAZ, profile, agent)
            assert cert.gain <= prop4_bound(n)


class TestEveryCertificateVerifies:
    CFG = SearchConfig(mass_denominator=2, max_breakpoints=1, offset_rounds=0,
                       max_candidates=12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), data=st.data())
    def test_gain_engines(self, seed, n, data):
        profile = random_profile(random.Random(seed), n, max_breakpoints=3, denom=4)
        agent = data.draw(st.integers(0, n - 1))
        certs = [best_response_gain(m, profile, agent, self.CFG) for m in MECHANISMS.values()]
        certs += [ep_cutpoint_best_response(MECHANISMS[name], profile, agent, self.CFG)
                  for name in SHARES_MIDDLE]
        for cert in certs:
            assert cert.gain >= 0
            assert cert.verify()

    def test_wrong_path_walk_is_caught(self, monkeypatch):
        def whole_cake(profile, share_middle, follow=None, others=None):
            pieces = [[] for _ in range(profile.n)]
            pieces[follow].append(((0, 1), (1, 1)))
            return pieces

        monkeypatch.setattr(properties, "_halving", whole_cake)
        with pytest.raises(AssertionError, match="path walk"):
            best_response_gain(EVEN_PAZ, Profile.of([SPIKE, U]), 0)


class TestSharedNodeCuts:
    @staticmethod
    def fresh(profile):
        return io.profile_from_json(io.profile_to_json(profile))

    @staticmethod
    def searches(profile, agent):
        cfg = SearchConfig(mass_denominator=3, max_breakpoints=1, offset_rounds=0,
                           max_candidates=24)
        grid = best_response_gain(EVEN_PAZ, profile, agent, cfg)
        certs = [grid,
                 ep_cutpoint_best_response(EVEN_PAZ, profile, agent, cfg,
                                           grid_certificate=grid),
                 ep_cutpoint_best_response(MODIFIED_EVEN_PAZ, profile, agent, cfg)]
        return [io.canonical_dumps(io.gain_certificate_to_json(c)) for c in certs]

    def test_certificates_identical_on_warm_valuations(self):
        rng = random.Random(68)
        for _ in range(6):
            n = rng.randrange(2, 6)
            profile = random_profile(rng, n)
            agent = rng.randrange(n)
            cold = self.searches(self.fresh(profile), agent)
            for other in range(n):      # reuse every valuation in other searches first
                self.searches(profile, other)
            assert self.searches(profile, agent) == cold

    def test_grid_certificate_reused_for_truthful_value(self):
        profile = Profile.of([SPIKE, U, D2])
        grid = best_response_gain(EVEN_PAZ, profile, 0)
        reused = ep_cutpoint_best_response(EVEN_PAZ, profile, 0, grid_certificate=grid)
        assert reused == ep_cutpoint_best_response(EVEN_PAZ, profile, 0)
        assert reused.truthful_value == grid.truthful_value

    def test_truthful_profile_not_run_again(self):
        # the planned value beats the truthful one, so the plan is realized,
        # and only its deviated profile is run: the truthful value is the
        # grid certificate's
        profile = Profile.of([SPIKE, U])
        grid = best_response_gain(EVEN_PAZ, profile, 0)
        runs = []
        counted = Mechanism(EVEN_PAZ.name, lambda p: runs.append(p) or EVEN_PAZ.run(p))
        cert = ep_cutpoint_best_response(counted, profile, 0, grid_certificate=grid)
        assert cert.gain >= grid.gain and cert.verify(EVEN_PAZ)
        assert len(runs) == 1 and runs[0] != profile

    @pytest.mark.parametrize("mechanism, agent, profile", [
        (MODIFIED_EVEN_PAZ, 0, Profile.of([SPIKE, U, D2])),
        (EVEN_PAZ, 1, Profile.of([SPIKE, U, D2])),
        (EVEN_PAZ, 0, Profile.of([SPIKE, U, D1])),
    ])
    def test_mismatched_grid_certificate_rejected(self, mechanism, agent, profile):
        grid = best_response_gain(EVEN_PAZ, Profile.of([SPIKE, U, D2]), 0)
        with pytest.raises(ValueError, match="grid_certificate"):
            ep_cutpoint_best_response(mechanism, profile, agent, grid_certificate=grid)


class TestCertificateBytes:
    # every search engine's certificates for all five mechanisms, hashed as
    # canonical JSON; the digest was taken before the node step and the
    # valuation checks ran on integers, and no speed-up may change a byte
    CONFIGS = [
        SearchConfig(mass_denominator=1, max_breakpoints=0, offset_rounds=0,
                     max_candidates=None),
        SearchConfig(mass_denominator=2, max_breakpoints=1, offset_rounds=1,
                     max_candidates=None),
        SearchConfig(mass_denominator=3, max_breakpoints=2, offset_rounds=0,
                     max_candidates=7, seed=5),
        SearchConfig(mass_denominator=4, max_breakpoints=2, offset_rounds=1,
                     max_candidates=24),
        SearchConfig(mass_denominator=4, max_breakpoints=1, offset_rounds=1,
                     max_candidates=1),
    ]
    DIGEST = "08779ddb82a0679064cad16fae872901ed3f5262ee09dcab878def8bbdbc3784"

    def test_every_engine_keeps_its_bytes(self):
        digest = hashlib.sha256()
        for n, denom in [(n, denom) for n in range(2, 7) for denom in (4, 12)]:
            rng = random.Random(100 * n + denom)
            profile = random_profile(rng, n, max_breakpoints=2, denom=denom)
            agent = rng.randrange(n)
            for cfg in self.CONFIGS:
                for name, mechanism in MECHANISMS.items():
                    certs = [best_response_gain(mechanism, profile, agent, cfg)]
                    if name in SHARES_MIDDLE:
                        certs.append(ep_cutpoint_best_response(
                            mechanism, profile, agent, cfg, grid_certificate=certs[0]))
                    for cert in certs:
                        text = io.canonical_dumps(io.gain_certificate_to_json(cert))
                        digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestPlannerBytes:
    # the cut-point planner's own (value, steps, leaf), winning or not, on 96
    # seeded profiles: Even-Paz at n = 2..8 and modified Even-Paz at n = 2..6,
    # small denominators and copied agents so that cuts tie; the digest was
    # taken before the run and the planner shared one split rule
    DIGEST = "4c00a456582f041eb340487637b50affdc2d6deab0ebd3da99b299ee1e0bdf5b"

    def test_plans_keep_their_bytes(self):
        digest = hashlib.sha256()
        for name, sizes in (("even-paz", range(2, 9)), ("modified-ep", range(2, 7))):
            for n in sizes:
                rng = random.Random(f"{name}-{n}")
                for denom in (2, 3, 4, 12) * 2:
                    agents = list(random_profile(rng, n, max_breakpoints=3, denom=denom))
                    if rng.randrange(2):
                        agents[rng.randrange(n)] = agents[rng.randrange(n)]
                    agent = rng.randrange(n)
                    value, steps, leaf = properties._dp_best_path(
                        Profile.of(agents), agent, (0, 1), (1, 1), range(n), SHARES_MIDDLE[name])
                    steps = [(share, F(*rest_lo), F(*hi)) for share, rest_lo, hi in steps]
                    leaf = F(*leaf[0]), F(*leaf[1])
                    text = f"{value} {[tuple(map(str, step)) for step in steps]} {leaf[0]} {leaf[1]}"
                    digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestIntegerSearch:
    # the gain engines collect their candidate points on integer keys, and
    # the planner only those of the rank window; support holds the earlier
    # Fraction-set bodies they must agree with, in order

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(SHARES_MIDDLE)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 8), denom=st.sampled_from([2, 3, 4, 12]),
           copies=st.integers(0, 3))
    def test_rank_window_is_the_old_planners_kept_list(self, name, seed, n, denom, copies):
        # every node the planner visits (k = 2..n), with copied agents so
        # that cuts tie at the window ends
        rng = random.Random(seed)
        agents = list(random_profile(rng, n, max_breakpoints=3, denom=denom))
        for _ in range(copies):
            agents[rng.randrange(n)] = agents[rng.randrange(n)]
        window = properties._node_candidates
        nodes = []

        def checked(a, b, others, rank, agent, own, own_cut):
            kept = window(a, b, others, rank, agent, own, own_cut)
            assert [F(*c) for c in kept] == reference.node_candidates(
                F(*a), F(*b), others, rank, agent, own, F(*own_cut))
            assert all(reduced_pair(c) for c in kept)
            nodes.append(len(others) + 1)
            return kept

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(properties, "_node_candidates", checked)
            properties._dp_best_path(Profile.of(agents), rng.randrange(n), (0, 1), (1, 1),
                                     range(n), SHARES_MIDDLE[name])
        assert nodes[0] == n

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8), data=st.data())
    def test_rank_window_on_drawn_nodes(self, seed, k, data):
        # nodes on the valuations' bounds and the 1/12 grid, a == b and
        # zero-mass nodes included, with copied agents so that cuts tie
        rng = random.Random(seed)
        agents = [random_valuation(rng, max_breakpoints=3, denom=12)]
        while len(agents) < k:
            agents.append(rng.choice(agents) if rng.randrange(3) == 0
                          else random_valuation(rng, max_breakpoints=3, denom=12))
        profile = Profile.of(agents)
        bounds = sorted({x for v in profile for x in v.bounds})
        point = st.sampled_from(bounds) | st.integers(0, 12).map(lambda i: F(i, 12))
        a, b = sorted(data.draw(st.tuples(point, point)))
        agent = data.draw(st.integers(0, k - 1))
        ends = a.as_integer_ratio(), b.as_integer_ratio()
        others = _node_step(profile, *ends, [i for i in range(k) if i != agent], k)
        own_cut = _node_step(profile, *ends, [agent], k)[0][:2]
        rank = k // 2 - 1
        kept = properties._node_candidates(*ends, others, rank, agent, profile[agent], own_cut)
        assert [F(*c) for c in kept] == reference.node_candidates(
            a, b, others, rank, agent, profile[agent], F(*own_cut))

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(sorted(MECHANISMS)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 6), denom=st.sampled_from([2, 3, 4, 12, 96]),
           rounds=st.integers(0, 3))
    def test_grid_pool_is_the_old_pool(self, name, seed, n, denom, rounds):
        profile = random_profile(random.Random(seed), n, max_breakpoints=3, denom=denom)
        truthful = MECHANISMS[name].run(profile)
        cfg = SearchConfig(offset_rounds=rounds)
        scale, pool = properties._candidate_points(profile, truthful, cfg)
        assert [F(key, scale) for key in pool] == reference.candidate_points(
            profile, truthful, rounds)
        assert all(type(key) is int for key in pool)

    def test_gain_search_hashes_no_fraction(self, monkeypatch):
        def unhashable(self):
            raise AssertionError(f"hashed the Fraction {self}")

        rng = random.Random(23)
        searches = [(random_profile(rng, n, max_breakpoints=2, denom=12), n)
                    for n in range(2, 7) for _ in range(3)]
        monkeypatch.setattr(Fraction, "__hash__", unhashable)
        with pytest.raises(AssertionError, match="hashed the Fraction"):
            hash(F(1, 3))
        for profile, n in searches:
            agent = rng.randrange(n)
            for name in sorted(SHARES_MIDDLE):
                grid = best_response_gain(MECHANISMS[name], profile, agent)
                ep_cutpoint_best_response(MECHANISMS[name], profile, agent,
                                          grid_certificate=grid)


# ---------------------------------------------------------------------------
# the cell sweep against the pairwise and midpoint formulas it replaced


def reference_validate(allocation, profile):
    problems = []
    for i in range(allocation.n):
        for j in range(i + 1, allocation.n):
            overlap = allocation.pieces[i].intersect(allocation.pieces[j])
            if overlap.measure > 0:
                problems.append(f"overlap between agents {i} and {j} on {overlap}")
    for i, piece in enumerate(allocation.pieces):
        overlap = piece.intersect(allocation.discarded)
        if overlap.measure > 0:
            problems.append(f"overlap between agent {i} and the discarded piece on {overlap}")
    covered = Piece.of(
        iv for p in (*allocation.pieces, allocation.discarded) for iv in p.intervals)
    missing = Piece.whole().subtract(covered)
    if missing.measure > 0:
        problems.append(f"uncovered cake {missing}")
    for i, v in enumerate(profile):
        wanted = allocation.discarded.intersect(support(v))
        if wanted.measure > 0:
            problems.append(f"free-disposal violation: agent {i} values discarded {wanted}")
    return problems


def reference_grid(profile, allocation=None):
    points = {ZERO, F(1)}
    for v in profile:
        points.update(v.bounds)
    if allocation is not None:
        points.update(reference.boundaries(allocation))
        points.update(allocation.discarded.boundaries())
    return sorted(points)


def reference_holder(pieces, mid):
    return next((i for i, piece in enumerate(pieces)
                 if any(iv.lo <= mid <= iv.hi for iv in piece.intervals)), None)


def reference_report(profile, allocation):
    n = profile.n
    share = F(1, n)
    deficit = max(
        [max(ZERO, share - v.value(allocation.pieces[i])) for i, v in enumerate(profile)])
    envy = ZERO
    for i, v in enumerate(profile):
        own = v.value(allocation.pieces[i])
        for j in range(n):
            if j != i:
                envy = max(envy, v.value(allocation.pieces[j]) - own)
    wasted = ZERO
    grid = reference_grid(profile, allocation)
    for p, q in zip(grid, grid[1:]):
        mid = (p + q) / 2
        if not any(v.density_at(mid) > 0 for v in profile):
            continue
        holder = reference_holder(allocation.pieces, mid)
        if holder is None or profile[holder].density_at(mid) == 0:
            wasted += q - p
    return (deficit, max(envy, ZERO), wasted, allocation.is_contiguous)


def reference_exchange(base, profile):
    held = list(base.pieces)
    grid = reference_grid(profile, base)
    moves = []
    for p, q in zip(grid, grid[1:]):
        mid = (p + q) / 2
        holder = reference_holder(held, mid)
        if holder is None or profile[holder].density_at(mid) > 0:
            continue
        taker = next((j for j, v in enumerate(profile) if v.density_at(mid) > 0), None)
        if taker is not None and taker != holder:
            moves.append((holder, taker, Interval(p, q)))
    for holder, taker, cell in moves:
        chunk = Piece.of([cell])
        held[holder] = held[holder].subtract(chunk)
        held[taker] = held[taker].union(chunk)
    return Allocation.of(held)


def reference_equal_split(profile):
    pieces = {i: [] for i in range(profile.n)}
    grid = reference_grid(profile)
    for p, q in zip(grid, grid[1:]):
        mid = (p + q) / 2
        desirers = [i for i, v in enumerate(profile) if v.density_at(mid) > 0]
        if not desirers:
            continue
        width = (q - p) / len(desirers)
        for slot, i in enumerate(desirers):
            pieces[i].append(Interval(p + slot * width, p + (slot + 1) * width))
    return Allocation.of([Piece.of(pieces[i]) for i in range(profile.n)])


DENOM = 24


@st.composite
def profiles_with_allocations(draw):
    """A random profile and a random, often invalid, allocation: each cell of
    a random partition goes to an agent, to the discarded piece or to nobody
    (a gap), and up to three extra intervals are laid over the pieces."""
    n = draw(st.integers(2, 5))
    profile = random_profile(random.Random(draw(st.integers(0, 2**32 - 1))), n,
                             max_breakpoints=3, denom=DENOM)
    cuts = sorted(set(draw(st.lists(st.integers(1, DENOM - 1), max_size=8))))
    ends = [0, *cuts, DENOM]
    owners = draw(st.lists(st.integers(-2, n - 1), min_size=len(ends) - 1,
                           max_size=len(ends) - 1))
    parts = [[] for _ in range(n + 1)]          # index n is the discarded piece
    for lo, hi, owner in zip(ends, ends[1:], owners):
        if owner != -2:
            parts[owner].append(Interval(F(lo, DENOM), F(hi, DENOM)))
    for owner, x, y in draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, DENOM),
                                               st.integers(0, DENOM)), max_size=3)):
        parts[owner].append(Interval(F(min(x, y), DENOM), F(max(x, y), DENOM)))
    pieces = [Piece.of(p) for p in parts]
    return profile, Allocation(tuple(pieces[:n]), pieces[n])


class TestCellSweepMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(profiles_with_allocations())
    def test_checkers(self, case):
        profile, allocation = case
        assert validate_allocation(allocation, profile) == reference_validate(
            allocation, profile)
        report = report_for(profile, allocation)
        assert (report.proportionality_deficit, report.envy, report.wasted_measure,
                report.contiguous) == reference_report(profile, allocation)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    def test_mechanisms(self, seed, n):
        profile = random_profile(random.Random(seed), n, max_breakpoints=4, denom=DENOM)
        assert EQUAL_SPLIT.run(profile) == reference_equal_split(profile)
        for wrapped, base in ((EVEN_PAZ_EXCHANGE, EVEN_PAZ),
                              (MODIFIED_EP_EXCHANGE, MODIFIED_EVEN_PAZ)):
            assert wrapped.run(profile) == reference_exchange(base.run(profile), profile)

    def test_sample_covers_every_problem_kind(self):
        kinds = set()

        @settings(max_examples=200, deadline=None, database=None)
        @given(profiles_with_allocations())
        def collect(case):
            for problem in validate_allocation(case[1], case[0]):
                kinds.add(problem.split(" ")[0])

        collect()
        assert kinds == {"overlap", "uncovered", "free-disposal"}


# pairwise coprime, so the grid's common denominator is a real lcm
MIXED = (7, 11, 13, 24)


@st.composite
def mixed_points(draw, max_size):
    return sorted({F(draw(st.integers(1, q - 1)), q)
                   for q in draw(st.lists(st.sampled_from(MIXED), max_size=max_size))})


@st.composite
def mixed_profiles_with_allocations(draw):
    """As profiles_with_allocations, with every breakpoint, cut and overlaid
    endpoint drawn from 1/7, 1/11, 1/13 and 1/24 grids mixed together."""
    n = draw(st.integers(2, 5))
    valuations = []
    for _ in range(n):
        points = draw(mixed_points(4))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(points) + 1,
                                max_size=len(points) + 1).filter(any))
        valuations.append(normalized(points, weights))
    ends = [ZERO, *draw(mixed_points(8)), F(1)]
    owners = draw(st.lists(st.integers(-2, n - 1), min_size=len(ends) - 1,
                           max_size=len(ends) - 1))
    parts = [[] for _ in range(n + 1)]          # index n is the discarded piece
    for lo, hi, owner in zip(ends, ends[1:], owners):
        if owner != -2:
            parts[owner].append(Interval(lo, hi))
    endpoint = st.one_of(st.sampled_from([ZERO, F(1)]), mixed_points(1).filter(len)
                         .map(lambda p: p[0]))
    for owner, x, y in draw(st.lists(st.tuples(st.integers(0, n), endpoint, endpoint),
                                     max_size=3)):
        parts[owner].append(Interval(min(x, y), max(x, y)))
    pieces = [Piece.of(p) for p in parts]
    return Profile.of(valuations), Allocation(tuple(pieces[:n]), pieces[n])


def mixed_profile(rng, n, max_breakpoints):
    valuations = []
    for _ in range(n):
        points = sorted({F(rng.randrange(1, q), q) for q in
                         (rng.choice(MIXED) for _ in range(rng.randrange(max_breakpoints + 1)))})
        weights = [rng.randrange(0, 5) for _ in range(len(points) + 1)]
        weights[rng.randrange(len(weights))] += 1
        valuations.append(normalized(points, weights))
    return Profile.of(valuations)


class TestGridOnMixedDenominators:
    @settings(max_examples=300, deadline=None)
    @given(mixed_profiles_with_allocations())
    def test_checkers(self, case):
        profile, allocation = case
        points, keys, _, _ = cake.cell_grid(profile, allocation)
        assert keys == sorted(points)
        assert [F(key, points.scale) for key in keys] == [points[key] for key in keys]
        assert validate_allocation(allocation, profile) == reference_validate(
            allocation, profile)
        report = report_for(profile, allocation)
        assert (report.proportionality_deficit, report.envy, report.wasted_measure,
                report.contiguous) == reference_report(profile, allocation)

    def test_equal_split_sixteen_agents(self):
        profile = mixed_profile(random.Random(16), 16, max_breakpoints=6)
        split = EQUAL_SPLIT.run(profile)
        assert cake.cell_grid(profile, split)[0].scale % (7 * 11 * 13 * 24) == 0
        assert validate_allocation(split, profile) == []
        # the split itself, and its pieces handed one agent on, which envies
        rotated = Allocation(split.pieces[1:] + split.pieces[:1], split.discarded)
        for allocation in (split, rotated):
            values = [[v.value(piece) for piece in allocation.pieces] for v in profile]
            report = report_for(profile, allocation)
            assert report.proportionality_deficit == max(
                max(ZERO, F(1, 16) - values[i][i]) for i in range(16))
            assert report.envy == max(values[i][j] - values[i][i]
                                      for i in range(16) for j in range(16) if j != i)
            assert report.wasted_measure == reference_report(profile, allocation)[2]
        assert report_for(profile, split).wasted_measure == 0
        assert report_for(profile, rotated).envy > 0
        assert report_for(profile, rotated).wasted_measure > 0


WIDE_DENOM = 96


@st.composite
def fragmented_profiles(draw):
    """Profiles shaped like the wide benchmark's: up to 12 agents with up to
    12 breakpoints each on a 1/96 grid, no breakpoint shared by two agents,
    and segments of zero density."""
    n = draw(st.integers(2, 12))
    pool = draw(st.permutations(range(1, WIDE_DENOM)))
    valuations = []
    for _ in range(n):
        count = draw(st.integers(0, min(12, len(pool))))
        points, pool = sorted(pool[:count]), pool[count:]
        weights = draw(st.lists(st.integers(0, 3), min_size=count + 1, max_size=count + 1)
                       .filter(any))
        valuations.append(normalized([F(p, WIDE_DENOM) for p in points], weights))
    return Profile.of(valuations)


def random_profiles():
    return st.builds(lambda seed, n: random_profile(random.Random(seed), n, max_breakpoints=4,
                                                    denom=DENOM),
                     st.integers(0, 2**32 - 1), st.integers(2, 12))


def with_rotation(allocation):
    """The allocation and its pieces handed one agent on, which envies."""
    return allocation, Allocation(allocation.pieces[1:] + allocation.pieces[:1],
                                  allocation.discarded)


class TestReportSweep:
    """report_for sums per-part totals copied at the agents' segment ends;
    its per-cell body is kept in support.py."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(profiles_with_allocations(), mixed_profiles_with_allocations()))
    def test_allocations_match_cell_reference(self, case):
        profile, allocation = case
        for rotated in with_rotation(allocation):
            assert report_for(profile, rotated) == reference.report_for(profile, rotated)

    @settings(max_examples=100, deadline=None)
    @given(fragmented_profiles())
    def test_mechanisms_match_cell_reference(self, profile):
        for mechanism in (EQUAL_SPLIT, EVEN_PAZ_EXCHANGE, MODIFIED_EP_EXCHANGE):
            for allocation in with_rotation(mechanism.run(profile)):
                assert report_for(profile, allocation) == reference.report_for(profile, allocation)

    def test_equal_split_sixty_four_fragmented_agents(self):
        # the shape where the two bodies differ most: thousands of cells
        rng = random.Random(64)
        pool = rng.sample(range(1, 960), 64 * 6)
        valuations = []
        for j in range(64):
            points = sorted(pool[6 * j:6 * j + rng.randrange(7)])
            weights = [rng.randrange(4) for _ in range(len(points) + 1)]
            weights[rng.randrange(len(weights))] += 1
            valuations.append(normalized([F(p, 960) for p in points], weights))
        profile = Profile.of(valuations)
        split, rotated = with_rotation(EQUAL_SPLIT.run(profile))
        assert len(cake.cell_grid(profile, split)[1]) > 4000
        assert report_for(profile, split) == reference.report_for(profile, split)
        report = report_for(profile, rotated)
        assert report == reference.report_for(profile, rotated)
        assert report.envy > 0 and report.wasted_measure > 0


class TestKeyedHalvingAllocation:
    """Full halving runs build their pieces from the leaves' int pairs as
    keys; the earlier build on ``Fraction`` spans is kept in support.py."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_profiles(), fragmented_profiles()))
    def test_matches_fraction_spans(self, profile):
        for name, share_middle in SHARES_MIDDLE.items():
            allocation = MECHANISMS[name].run(profile)
            assert allocation == reference.halving_allocation(profile, share_middle)
            assert all(type(x) is F for piece in allocation.pieces for x in piece.boundaries())


class TestKeyedCellSweep:
    """The cell sweep's consumers on the grid's int keys against their
    ``Fraction`` bodies in support.py."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_profiles(), fragmented_profiles()))
    def test_mechanisms_match_fraction_reference(self, profile):
        assert EQUAL_SPLIT.run(profile) == reference.equal_split_nonwasteful(profile)
        for wrapped, base in ((EVEN_PAZ_EXCHANGE, EVEN_PAZ),
                              (MODIFIED_EP_EXCHANGE, MODIFIED_EVEN_PAZ)):
            assert wrapped.run(profile) == reference.exchange(base.run(profile), profile)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(profiles_with_allocations(), mixed_profiles_with_allocations()))
    def test_validate_matches_fraction_reference(self, case):
        # the same lines in the same order, with the discarded-overlap lines
        # put right after the overlaps between agents
        profile, allocation = case
        problems = validate_allocation(allocation, profile)
        old = reference.validate_allocation(allocation, profile)
        pairs = [p for p in old if p.startswith("overlap between agents ")]
        discard = [p for p in problems if " and the discarded piece on " in p]
        assert problems == pairs + discard + old[len(pairs):]


class TestSharedGrid:
    """An allocation keeps the cell grid built for it and one profile
    object, so validate_allocation and report_for share one build."""

    def test_kept_for_the_profile_object(self):
        profile = random_profile(random.Random(3), 4, max_breakpoints=3, denom=DENOM)
        allocation = EQUAL_SPLIT.run(profile)
        grid = cake.cell_grid(profile, allocation)
        assert cake.cell_grid(profile, allocation) is grid
        fresh = cake.cell_grid(profile, Allocation(allocation.pieces, allocation.discarded))
        assert fresh is not grid and fresh == grid
        regrid = cake.cell_grid(Profile(profile.valuations), allocation)
        assert regrid is not grid and regrid == grid
        assert cake.cell_grid(profile) is not cake.cell_grid(profile)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(profiles_with_allocations(), mixed_profiles_with_allocations()))
    def test_either_order_matches_fresh_copies(self, case):
        profile, allocation = case

        def fresh():
            return Allocation(allocation.pieces, allocation.discarded)

        problems, report = validate_allocation(fresh(), profile), report_for(profile, fresh())
        assert problems == reference_validate(fresh(), profile)
        assert report == reference.report_for(profile, fresh())
        first, second = fresh(), fresh()
        grid = cake.cell_grid(profile, first)
        assert validate_allocation(first, profile) == problems
        assert report_for(profile, first) == report
        assert report_for(profile, second) == report
        assert validate_allocation(second, profile) == problems
        # the checkers read the kept grid and leave it as built
        assert cake.cell_grid(profile, first) is grid
        _, keys, owners, segments = cake.cell_grid(profile, fresh())
        assert grid[1:] == (keys, owners, segments)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(profiles_with_allocations(), mixed_profiles_with_allocations()))
    def test_checked_allocation_reads_as_unchecked(self, case):
        profile, checked = case
        copy = Allocation(checked.pieces, checked.discarded)
        validate_allocation(checked, profile)
        report_for(profile, checked)
        assert checked == copy and hash(checked) == hash(copy)
        assert repr(checked) == repr(copy)
        assert (io.canonical_dumps(io.allocation_to_json(checked, profile))
                == io.canonical_dumps(io.allocation_to_json(copy, profile)))


class TestKeptHalvingAllocation:
    """A profile keeps each halving allocation it gets, so an exchange
    wrapper's base run reuses it and the cell grid kept on it; the grid
    refers back to its profile only weakly, so a profile that keeps them is
    freed by reference counting, without the cyclic collector."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_profiles(), fragmented_profiles()))
    def test_same_profile_object_same_allocation(self, profile):
        for name in SHARES_MIDDLE:
            allocation = MECHANISMS[name].run(profile)
            assert MECHANISMS[name].run(profile) is allocation
            fresh = MECHANISMS[name].run(Profile(profile.valuations))
            assert fresh is not allocation and fresh == allocation
        assert len(vars(profile).keys() - set(Profile._fields)) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_profiles(), fragmented_profiles()))
    def test_kept_values_read_as_fresh_copies(self, profile):
        for mechanism in MECHANISMS.values():
            allocation = mechanism.run(profile)
            validate_allocation(allocation, profile)
            report_for(profile, allocation)
        copy = Profile(profile.valuations)
        assert vars(profile).keys() != vars(copy).keys()
        assert profile == copy and hash(profile) == hash(copy) and repr(profile) == repr(copy)
        assert (io.canonical_dumps(io.profile_to_json(profile))
                == io.canonical_dumps(io.profile_to_json(copy)))
        for name in SHARES_MIDDLE:
            kept = MECHANISMS[name].run(profile)
            fresh = Allocation(kept.pieces, kept.discarded)
            assert "_cell_grid" in vars(kept) and "_cell_grid" not in vars(fresh)
            assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
            assert (io.canonical_dumps(io.allocation_to_json(kept, profile))
                    == io.canonical_dumps(io.allocation_to_json(fresh, copy)))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(random_profiles(), fragmented_profiles()), st.booleans())
    def test_exchange_wrappers_match_reference_on_fresh_base(self, profile, checked_first):
        for wrapped, base in ((EVEN_PAZ_EXCHANGE, EVEN_PAZ),
                              (MODIFIED_EP_EXCHANGE, MODIFIED_EVEN_PAZ)):
            if checked_first:   # the base allocation then arrives with its grid kept
                validate_allocation(base.run(profile), profile)
            expected = reference.exchange(base.run(Profile(profile.valuations)), profile)
            assert wrapped.run(profile) == expected
            assert wrapped.run(profile) == expected

    def test_kept_grid_holds_its_profile_weakly(self):
        profile = random_profile(random.Random(5), 4, max_breakpoints=3, denom=DENOM)
        for mechanism in MECHANISMS.values():
            allocation = mechanism.run(profile)
            validate_allocation(allocation, profile)
            kept = vars(allocation)["_cell_grid"]
            assert cake.cell_grid(profile, allocation) is kept[-1]
            assert not any(referrer is kept or referrer is vars(allocation)
                           for referrer in gc.get_referrers(profile))

    def test_profile_with_kept_allocations_is_freed_without_the_collector(self):
        profile = random_profile(random.Random(5), 4, max_breakpoints=3, denom=DENOM)
        allocations = [mechanism.run(profile) for mechanism in MECHANISMS.values()]
        for allocation in allocations:
            validate_allocation(allocation, profile)
            report_for(profile, allocation)
        gone = weakref.ref(profile)
        gc.disable()
        try:
            del profile, allocation, allocations
            assert gone() is None
        finally:
            gc.enable()
