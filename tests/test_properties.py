import hashlib
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

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
from cakecut.sampling import random_profile
from support import support

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


def wide_profile(m):
    """One agent with m breakpoints and one uniform agent."""
    wide = normalized([F(j, m + 1) for j in range(1, m + 1)], [1 + j % 2 for j in range(m + 1)])
    return Profile.of([wide, U])


class TestGridSampling:
    """The grid engine unranks sampled indices instead of listing every misreport."""

    @staticmethod
    def built(monkeypatch):
        """The (points, masses) of every candidate valuation a search builds."""
        calls = []
        real = PCV.from_masses

        def counted(points, masses):
            calls.append((tuple(points), tuple(masses)))
            return real(points, masses)

        monkeypatch.setattr(PCV, "from_masses", staticmethod(counted))
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
            pieces[follow].append((ZERO, F(1)))
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


# ---------------------------------------------------------------------------
# the cell sweep against the pairwise and midpoint formulas it replaced


def reference_validate(allocation, profile):
    problems = []
    for i in range(allocation.n):
        for j in range(i + 1, allocation.n):
            overlap = allocation.pieces[i].intersect(allocation.pieces[j])
            if overlap.measure > 0:
                problems.append(f"overlap between agents {i} and {j} on {overlap}")
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
        points.update(allocation.boundaries())
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
        points, keys, scale, _, _ = cake.cell_grid(profile, allocation)
        assert [F(key, scale) for key in keys] == points
        assert validate_allocation(allocation, profile) == reference_validate(
            allocation, profile)
        report = report_for(profile, allocation)
        assert (report.proportionality_deficit, report.envy, report.wasted_measure,
                report.contiguous) == reference_report(profile, allocation)

    def test_equal_split_sixteen_agents(self):
        profile = mixed_profile(random.Random(16), 16, max_breakpoints=6)
        split = EQUAL_SPLIT.run(profile)
        assert cake.cell_grid(profile, split)[2] % (7 * 11 * 13 * 24) == 0
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
