import random
from fractions import Fraction

import pytest

from cakecut import io
from cakecut.cake import (
    Allocation,
    Piece,
    PiecewiseConstantValuation as PCV,
    Profile,
)
from cakecut.mechanisms import (
    EQUAL_SPLIT,
    EVEN_PAZ,
    MODIFIED_EP_EXCHANGE,
    MODIFIED_EVEN_PAZ,
    Mechanism,
)
from cakecut.properties import (
    GainCertificate,
    SearchConfig,
    best_response_gain,
    check_properties,
    ep_cutpoint_best_response,
    evaluate_misreport,
    report_for,
)
from cakecut.sampling import random_profile

F = Fraction
U = PCV.uniform()
SPIKE = PCV.of(["1/100", "1/2"], [50, 1, "1/50"])
D1 = PCV.of(["1/2"], [0, 2])
D2 = PCV.of(["1/2", "4/5"], [1, 0, "5/2"])

CONSTANT = Mechanism(
    "constant-halves",
    lambda p: Allocation.of(
        [Piece.interval(F(i, p.n), F(i + 1, p.n)) for i in range(p.n)]),
    frozenset({"contiguous"}))

WASTEFUL = Mechanism(
    "wasteful-halver",
    lambda p: Allocation.of(
        [Piece.interval(F(i, 2 * p.n), F(i + 1, 2 * p.n)) for i in range(p.n)]),
    frozenset())


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

    def test_envy_detected(self):
        alloc = Allocation.of([Piece.interval(0, "1/4"), Piece.interval("1/4", 1)])
        report = report_for(Profile.of([U, U]), alloc)
        assert report.envy == F(1, 2)
        assert report.proportionality_deficit == F(1, 4)


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


class TestGridEngine:
    def test_constant_mechanism_gain_zero(self):
        rng = random.Random(62)
        for _ in range(10):
            profile = random_profile(rng, 3)
            cert = best_response_gain(CONSTANT, profile, 0)
            assert cert.gain == 0

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

    def test_deterministic_given_seed(self):
        rng = random.Random(64)
        profile = random_profile(rng, 3)
        a = best_response_gain(EVEN_PAZ, profile, 0)
        b = best_response_gain(EVEN_PAZ, profile, 0)
        assert a == b


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
            for other in range(n):      # warm every valuation with other searches
                self.searches(profile, other)
            assert all(v.node_cuts for v in profile)
            assert self.searches(profile, agent) == cold

    def test_grid_certificate_reused_for_truthful_value(self):
        profile = Profile.of([SPIKE, U, D2])
        grid = best_response_gain(EVEN_PAZ, profile, 0)
        reused = ep_cutpoint_best_response(EVEN_PAZ, profile, 0, grid_certificate=grid)
        assert reused == ep_cutpoint_best_response(EVEN_PAZ, profile, 0)
        assert reused.truthful_value == grid.truthful_value

    @pytest.mark.parametrize("mechanism, agent, profile", [
        (MODIFIED_EVEN_PAZ, 0, Profile.of([SPIKE, U, D2])),
        (EVEN_PAZ, 1, Profile.of([SPIKE, U, D2])),
        (EVEN_PAZ, 0, Profile.of([SPIKE, U, D1])),
    ])
    def test_mismatched_grid_certificate_rejected(self, mechanism, agent, profile):
        grid = best_response_gain(EVEN_PAZ, Profile.of([SPIKE, U, D2]), 0)
        with pytest.raises(ValueError, match="grid_certificate"):
            ep_cutpoint_best_response(mechanism, profile, agent, grid_certificate=grid)
