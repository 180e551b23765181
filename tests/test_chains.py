import dataclasses
import hashlib
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

from cakecut.cake import (
    Allocation,
    Piece,
    PiecewiseConstantValuation as PCV,
    Profile,
)
from cakecut.chains import (
    ChainError,
    ChainParameters,
    InfeasibleParameters,
    discussion_example,
    ep_worstcase_fixture,
    mirror_valuation,
    prop1_chain,
    prop1_default_deltas,
    thm1_chain,
    thm1_delta_bound,
    thm2_b_point,
    thm2_chain,
)
from cakecut.io import canonical_dumps, witness_to_json
from cakecut.mechanisms import EQUAL_SPLIT, EVEN_PAZ, MECHANISMS, Mechanism
from cakecut.properties import evaluate_misreport

F = Fraction
U = PCV.uniform()

WASTEFUL = Mechanism(
    "wasteful-halver",
    lambda p: Allocation.of(
        [Piece.interval(F(i, 2 * p.n), F(i + 1, 2 * p.n)) for i in range(p.n)]))

# contiguous, ignores reports, hands agent 0 the right piece
RIGHT_DICTATOR = Mechanism(
    "right-dictator",
    lambda p: Allocation.of([Piece.interval("1/3", 1), Piece.interval(0, "1/3")]))

# two agents, each holding two separated quarters
SCATTER = Mechanism(
    "scatter",
    lambda p: Allocation.of([
        Piece.of([*Piece.interval(0, "1/4").intervals,
                  *Piece.interval("1/2", "3/4").intervals]),
        Piece.of([*Piece.interval("1/4", "1/2").intervals,
                  *Piece.interval("3/4", 1).intervals])]))


def relabelled(base: Mechanism) -> Mechanism:
    """`base` with agents 0 and 1 trading places: agent 1 wins its ties."""
    def run(p):
        swapped = list(p)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        pieces = list(base.run(Profile.of(swapped)).pieces)
        pieces[0], pieces[1] = pieces[1], pieces[0]
        return Allocation.of(pieces)
    return Mechanism(f"relabelled-{base.name}", run)


def lean_left(tie_to: int) -> Mechanism:
    """Two agents; the lower of their 2/5-cuts takes [0, cut], agent `tie_to`
    on a tie, so the uniform profile is cut left of 1/2."""
    def run(p):
        cuts = [v.cut_point(0, F(2, 5)) for v in p]
        left = tie_to if cuts[tie_to] <= cuts[1 - tie_to] else 1 - tie_to
        pieces = [Piece.interval(cuts[left], 1)] * 2
        pieces[left] = Piece.interval(0, cuts[left])
        return Allocation.of(pieces)
    return Mechanism(f"lean-left-ties-to-{tie_to}", run)


class TestParameters:
    def test_thm1_delta_bound_example(self):
        bound = thm1_delta_bound(2, F(1, 12), F(1, 12))
        assert bound == F(2, 9)

    def test_thm1_default_is_midpoint(self):
        witness = thm1_chain(EQUAL_SPLIT, ChainParameters.of(2, "1/12", "1/12"))
        assert ("delta", F(1, 9)) in witness.parameters

    def test_thm1_rejects_infeasible(self):
        with pytest.raises(InfeasibleParameters):
            thm1_chain(EQUAL_SPLIT, ChainParameters.of(2, "1/6", 0))
        with pytest.raises(InfeasibleParameters):
            thm1_chain(EQUAL_SPLIT, ChainParameters.of(2, 0, 0, delta=1))

    # RIGHT_DICTATOR: prop1 finds its violation before it reads any delta
    @pytest.mark.parametrize("chain, n, mechanism, name", [
        (thm1_chain, 2, EQUAL_SPLIT, "delta1"),
        (thm2_chain, 3, EVEN_PAZ, "bogus"),
        (prop1_chain, 2, EVEN_PAZ, "delta"),
        (prop1_chain, 2, RIGHT_DICTATOR, "delta6"),
    ], ids=["thm1", "thm2", "prop1", "prop1-early-violation"])
    def test_unread_delta_rejected(self, chain, n, mechanism, name):
        with pytest.raises(InfeasibleParameters, match=rf"got \['{name}'\]$"):
            chain(mechanism, ChainParameters.of(n, **{name: "1/100"}))

    def test_prop1_default_deltas_match_hand_run(self):
        d = prop1_default_deltas(F(1, 2), F(2, 5), F(0))
        assert d["delta3"] == F(1, 40)
        assert d["delta5"] == F(1, 20)

    def test_prop1_defaults_feasible_everywhere(self):
        rng = random.Random(70)
        from cakecut.chains import _prop1_validate
        for _ in range(300):
            eps1 = F(rng.randrange(0, 50), 100)
            eps2 = F(rng.randrange(0, 50 - 100 * eps1.numerator // eps1.denominator
                                   if eps1 < F(1, 2) else 1), 100)
            if eps1 + eps2 >= F(1, 2):
                continue
            c1 = F(1, 2) + F(rng.randrange(0, 51), 102)
            _prop1_validate(c1, eps1, eps2, prop1_default_deltas(c1, eps1, eps2))

    def test_thm2_b_point_example(self):
        assert thm2_b_point(F(1, 2), F(2, 3), 3, F(0)) == F(11, 18)

    def test_thm2_band_valuation(self):
        witness = thm2_chain(EVEN_PAZ, ChainParameters.of(3))
        band = witness.profiles[0][2]
        assert band.value_between("1/9", "4/9") == 1
        assert band.density_at(F(2, 9)) == 3


class TestThm1Chain:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equal_split_yields_witness(self, n):
        witness = thm1_chain(EQUAL_SPLIT, ChainParameters.of(n))
        assert witness.chain == "thm1"
        assert witness.violated == "strategyproofness"
        assert witness.certificate.gain > 0
        assert witness.verify(EQUAL_SPLIT)

    def test_wasteful_mechanism_caught_at_first_profile(self):
        witness = thm1_chain(WASTEFUL, ChainParameters.of(2))
        assert witness.violated in ("free-disposal", "non-wastefulness")
        assert len(witness.profiles) == 1
        assert witness.verify(WASTEFUL)

    def test_free_disposal_needs_discarded_cake(self):
        # even-paz discards nothing, so its waste is cake held by an agent
        # who does not want it: a witness of the one is no witness of the other
        witness = thm1_chain(EVEN_PAZ, ChainParameters.of(3))
        assert witness.violated == "non-wastefulness"
        assert witness.verify(EVEN_PAZ)
        assert not dataclasses.replace(witness, violated="free-disposal").verify(EVEN_PAZ)

    def test_profiles_recorded(self):
        witness = thm1_chain(EQUAL_SPLIT, ChainParameters.of(3))
        assert 2 <= len(witness.profiles) <= 3
        front = witness.profiles[0][0]
        assert front.value_between(0, F(2, 3)) == 1


class TestProp1Chain:
    @pytest.mark.parametrize("eps1", [F(0), F(1, 5), F(2, 5)])
    def test_even_paz_yields_witness(self, eps1):
        witness = prop1_chain(EVEN_PAZ, ChainParameters.of(2, eps1, 0))
        assert witness.chain == "prop1"
        assert witness.violated == "strategyproofness"
        assert witness.certificate.gain > eps1
        assert witness.verify(EVEN_PAZ)

    def test_mirror_and_swap_path(self):
        witness = prop1_chain(RIGHT_DICTATOR, ChainParameters.of(2, 0, 0))
        assert witness.verify(RIGHT_DICTATOR)

    def test_requires_two_agents(self):
        with pytest.raises(InfeasibleParameters):
            prop1_chain(EVEN_PAZ, ChainParameters.of(3))

    def test_noncontiguous_mechanism_reported(self):
        witness = prop1_chain(SCATTER, ChainParameters.of(2))
        assert witness.violated == "contiguity"
        assert witness.verify(SCATTER)


class TestThm2Chain:
    @pytest.mark.parametrize("n", [3, 4])
    def test_even_paz_yields_witness(self, n):
        witness = thm2_chain(EVEN_PAZ, ChainParameters.of(n))
        assert witness.chain == "thm2"
        assert witness.violated == "strategyproofness"
        assert witness.certificate.gain > 0
        assert witness.verify(EVEN_PAZ)

    def test_third_stage_deviation(self):
        # agent 0 keeps [2/9, 5/9] on the first two profiles, so stages 1 and
        # 2 pass; on the third, agent 1's tail report gains 1/6 under even-paz
        p1 = Profile.of([U, U, PCV.on_piece(Piece.interval("1/9", "4/9"))])
        p2 = p1.replace(0, PCV.on_piece(Piece.interval("2/9", "5/9")))
        fixed = Allocation.of([Piece.interval("2/9", "5/9"), Piece.interval("5/9", 1),
                               Piece.interval(0, "2/9")])
        lookup = Mechanism("lookup", lambda p: fixed if p in (p1, p2) else EVEN_PAZ.run(p))
        witness = thm2_chain(lookup, ChainParameters.of(3))
        assert witness.violated == "strategyproofness"
        assert witness.profiles[:2] == (p1, p2) and len(witness.profiles) == 3
        assert witness.certificate.gain == F(1, 6)
        assert witness.verify(lookup)

    def test_rejects_small_n_and_nonzero_eps1(self):
        with pytest.raises(InfeasibleParameters):
            thm2_chain(EVEN_PAZ, ChainParameters.of(2))
        with pytest.raises(InfeasibleParameters):
            thm2_chain(EVEN_PAZ, ChainParameters.of(3, eps1="1/10"))


class TestUnregisteredMechanism:
    @pytest.mark.parametrize("certified", [
        lambda: thm1_chain(WASTEFUL, ChainParameters.of(2)),
        lambda: thm1_chain(WASTEFUL, ChainParameters.of(2)).certificate,
        lambda: evaluate_misreport(WASTEFUL, Profile.of([U, U]), 0, U),
    ], ids=["witness", "report-certificate", "gain-certificate"])
    def test_verify_names_the_known_mechanisms(self, certified):
        message = f"unknown mechanism 'wasteful-halver'; known: {sorted(MECHANISMS)}"
        with pytest.raises(KeyError, match=re.escape(message)):
            certified().verify()


class TestDiscussionExample:
    def test_exact_certificate(self):
        (truthful, deviated), witness = discussion_example()
        cert = witness.certificate
        assert cert.truthful_value == F(1, 2)
        assert cert.deviated_value == 1
        assert cert.gain == F(1, 2)
        assert witness.verify()
        assert deviated[1] == cert.misreport

    def test_profiles_are_the_published_ones(self):
        (truthful, _), _ = discussion_example()
        assert truthful[0].density_at(F(3, 4)) == 2
        assert truthful[1].density_at(F(9, 10)) == F(5, 2)


class TestWorstCaseFixture:
    def test_two_agent_gain(self):
        profile, agent, lie, bound = ep_worstcase_fixture(2, "1/50")
        assert bound == F(1, 2) - F(1, 50)
        cert = evaluate_misreport(EVEN_PAZ, profile, agent, lie)
        assert cert.gain == F(2401, 4950)
        assert cert.gain >= bound
        assert cert.gain >= F(1, 2) - F(1, 25)

    def test_three_agent_gain(self):
        profile, agent, lie, bound = ep_worstcase_fixture(3, "1/50")
        cert = evaluate_misreport(EVEN_PAZ, profile, agent, lie)
        assert cert.gain == F(2, 3) - F(1, 50)
        assert cert.gain >= bound
        assert cert.gain >= F(2, 3) - F(1, 25)

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            ep_worstcase_fixture(2, "1/2")
        with pytest.raises(ValueError):
            ep_worstcase_fixture(4, "1/50")


class TestMirrorHelpers:
    def test_mirror_involution(self):
        rng = random.Random(71)
        from cakecut.sampling import random_valuation
        for _ in range(100):
            v = random_valuation(rng, 3)
            assert mirror_valuation(mirror_valuation(v)) == v

    def test_mirror_preserves_values(self):
        v = PCV.of(["1/4"], [2, F(2, 3)])
        assert mirror_valuation(v).value_between("3/4", 1) == v.value_between(0, "1/4")


# every chain x mechanism x n = 2..5 x two (eps1, eps2) pairs per chain: the
# sha256 of the canonical witness JSON (which must verify), or the name of
# the exception raised.
# The relabelled and lean-left mechanisms drive prop1 and thm2 through the
# agent swap and the cake mirror.
DIGEST_CHAINS = {
    "thm1": (thm1_chain, ((0, 0), ("1/50", "1/50"))),
    "prop1": (prop1_chain, ((0, 0), ("1/5", "1/10"))),
    "thm2": (thm2_chain, ((0, 0), (0, "1/20"))),
}
DIGEST_CASES = [
    (f"{name}-{mechanism.name}-n{n}-{eps1}-{eps2}", chain, mechanism,
     ChainParameters.of(n, eps1, eps2))
    for name, (chain, pairs) in DIGEST_CHAINS.items()
    for mechanism in (*MECHANISMS.values(), WASTEFUL, RIGHT_DICTATOR, SCATTER,
                      relabelled(EVEN_PAZ), lean_left(0), lean_left(1))
    for n in range(2, 6)
    for eps1, eps2 in pairs]
WITNESS_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "witness_digests.json").read_text())


def witness_digest(chain, mechanism, params) -> str:
    try:
        witness = chain(mechanism, params)
    except Exception as exc:
        return type(exc).__name__
    assert witness.verify(mechanism)
    return hashlib.sha256(canonical_dumps(witness_to_json(witness)).encode()).hexdigest()


class TestWitnessDigests:
    """Witness bytes, including the relabel/mirror and early-stage paths."""

    @pytest.mark.parametrize("key, chain, mechanism, params", DIGEST_CASES,
                             ids=[case[0] for case in DIGEST_CASES])
    def test_witness_bytes_unchanged(self, key, chain, mechanism, params):
        assert witness_digest(chain, mechanism, params) == WITNESS_DIGESTS[key]
