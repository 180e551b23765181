"""Executable counterexample chains against concrete mechanisms.

Each chain runs a mechanism through a short sequence of adversarial profiles
and returns the first verified property violation it finds: wasted desired
cake, a missing piece of hungry-agent cake, a non-contiguous allocation where
contiguity was claimed, a proportionality deficit, or a profitable deviation
between consecutive profiles.  The constructions make the usual
"without loss of generality" steps concrete: when the observed run has the
opposite labeling or orientation, the chain conjugates the mechanism by an
agent swap and/or the cake mirror x -> 1-x, and translates the final witness
back into the real mechanism's coordinates, so every emitted certificate
re-verifies against the mechanism as-is.

Chains are sequential state machines (each profile depends on the previous
output); distinct chains can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from cakecut.cake import (
    Allocation,
    Interval,
    ONE,
    Piece,
    PiecewiseConstantValuation,
    Profile,
    RationalLike,
    ZERO,
    cells,
    frac,
)
from cakecut.mechanisms import (
    MECHANISMS,
    MODIFIED_EP_EXCHANGE,
    Mechanism,
)
from cakecut.properties import (
    GainCertificate,
    PropertyReport,
    evaluate_misreport,
    report_for,
)

UNIFORM = PiecewiseConstantValuation.uniform()


class ChainError(RuntimeError):
    """The chain ran to completion without finding a violation (a bug: the
    argument guarantees one for any mechanism meeting the preconditions)."""


class InfeasibleParameters(ValueError):
    """Chain parameters violate an exact feasibility constraint."""


@dataclass(frozen=True)
class ChainParameters:
    """Targets for the approximation thresholds plus optional delta choices.

    eps1 bounds tolerated manipulation gain, eps2 tolerated proportionality
    deficit.  Omitted deltas default to the midpoint of their exact
    feasibility interval.
    """

    n: int
    eps1: Fraction = ZERO
    eps2: Fraction = ZERO
    overrides: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def of(n: int, eps1: RationalLike = 0, eps2: RationalLike = 0,
           **deltas: RationalLike) -> "ChainParameters":
        return ChainParameters(
            n, frac(eps1), frac(eps2),
            tuple(sorted((k, frac(v)) for k, v in deltas.items())))

    def only_deltas(self, chain: str, names: tuple[str, ...]) -> None:
        """Refuse overrides other than `names`, the deltas `chain` reads."""
        unknown = sorted(k for k, _ in self.overrides if k not in names)
        if unknown:
            raise InfeasibleParameters(
                f"{chain} reads only the deltas {list(names)}; got {unknown}")

    def override(self, name: str) -> Optional[Fraction]:
        for key, value in self.overrides:
            if key == name:
                return value
        return None


@dataclass(frozen=True)
class PropertyCertificate:
    """A property finding tied to the profile it was measured on."""

    mechanism: str
    profile: Profile
    report: PropertyReport

    def verify(self, mechanism: Optional[Mechanism] = None) -> bool:
        mech = mechanism if mechanism is not None else MECHANISMS[self.mechanism]
        return report_for(self.profile, mech.run(self.profile)) == self.report


Certificate = Union[GainCertificate, PropertyCertificate]


@dataclass(frozen=True)
class ViolationWitness:
    """A verified violation produced by a chain."""

    chain: str
    mechanism: str
    violated: str          # strategyproofness | proportionality |
    #                        non-wastefulness | free-disposal | contiguity
    epsilon: Fraction      # the threshold the certificate exceeds
    certificate: Certificate
    profiles: tuple[Profile, ...]
    parameters: tuple[tuple[str, Fraction], ...]

    def verify(self, mechanism: Optional[Mechanism] = None) -> bool:
        if not self.certificate.verify(mechanism):
            return False
        if self.violated == "strategyproofness":
            return isinstance(self.certificate, GainCertificate) and \
                self.certificate.gain > self.epsilon
        report = self.certificate.report
        if self.violated == "proportionality":
            return report.proportionality_deficit > self.epsilon
        if self.violated in ("non-wastefulness", "free-disposal"):
            return report.wasted_measure > 0
        if self.violated == "contiguity":
            return not report.contiguous
        return False


# ---------------------------------------------------------------------------
# shared construction helpers


def mirror_valuation(v: PiecewiseConstantValuation) -> PiecewiseConstantValuation:
    bounds = tuple(1 - b for b in reversed(v.bounds))
    return PiecewiseConstantValuation(bounds, tuple(reversed(v.densities)))


def mirror_piece(piece: Piece) -> Piece:
    return Piece.of(Interval(1 - iv.hi, 1 - iv.lo) for iv in piece.intervals)


@dataclass(frozen=True)
class _Conjugation:
    """Conjugate a mechanism by an agent transposition and/or cake mirror."""

    base: Mechanism
    swap: tuple[int, ...]      # permutation applied to agent indices
    mirror: bool

    def profile_to_real(self, profile: Profile) -> Profile:
        vals = [profile[self.swap.index(i)] for i in range(len(self.swap))]
        if self.mirror:
            vals = [mirror_valuation(v) for v in vals]
        return Profile.of(vals)

    def valuation_to_real(self, v: PiecewiseConstantValuation
                          ) -> PiecewiseConstantValuation:
        return mirror_valuation(v) if self.mirror else v

    def agent_to_real(self, i: int) -> int:
        return self.swap[i]

    def mechanism(self) -> Mechanism:
        def run(profile: Profile) -> Allocation:
            alloc = self.base.run(self.profile_to_real(profile))
            pieces = [alloc.pieces[self.swap[i]] for i in range(len(self.swap))]
            if self.mirror:
                pieces = [mirror_piece(p) for p in pieces]
            return Allocation.of(pieces)

        return Mechanism(f"~{self.base.name}", run)


def _identity_conjugation(base: Mechanism, n: int, swap01: bool = False,
                          mirror: bool = False) -> _Conjugation:
    perm = list(range(n))
    if swap01:
        perm[0], perm[1] = perm[1], perm[0]
    return _Conjugation(base, tuple(perm), mirror)


class _ChainRun:
    """Collects profiles as a chain advances and builds real-coordinate
    witnesses from findings made in canonical coordinates."""

    def __init__(self, chain: str, mechanism: Mechanism, conj: _Conjugation,
                 parameters: Sequence[tuple[str, Fraction]]):
        self.chain = chain
        self.real = mechanism
        self.conj = conj
        self.parameters = tuple(parameters)
        self.profiles: list[Profile] = []

    def push(self, profile_c: Profile) -> None:
        self.profiles.append(self.conj.profile_to_real(profile_c))

    def _witness(self, violated: str, epsilon: Fraction,
                 certificate: Certificate) -> ViolationWitness:
        return ViolationWitness(self.chain, self.real.name, violated, epsilon,
                                certificate, tuple(self.profiles), self.parameters)

    def stage_violation(self, profile_c: Profile, eps2: Fraction,
                        require_contiguous: bool,
                        full_waste: bool = False) -> Optional[ViolationWitness]:
        """Waste, contiguity, and proportionality checks on one profile.

        With full_waste the stronger non-wastefulness notion is enforced
        (desired cake must go to someone desiring it); otherwise only the
        standing rule that desired cake is never discarded.
        """
        real_profile = self.conj.profile_to_real(profile_c)
        allocation = self.real.run(real_profile)
        report = report_for(real_profile, allocation)
        certificate = PropertyCertificate(self.real.name, real_profile, report)
        if any(discarded and any(d > 0 for d in densities)
               for _, _, _, discarded, densities in cells(real_profile, allocation)):
            return self._witness("free-disposal", ZERO, certificate)
        if full_waste and report.wasted_measure > 0:
            return self._witness("non-wastefulness", ZERO, certificate)
        if require_contiguous and not report.contiguous:
            return self._witness("contiguity", ZERO, certificate)
        if report.proportionality_deficit > eps2:
            return self._witness("proportionality", eps2, certificate)
        return None

    def gain_violation(self, profile_c: Profile, agent_c: int,
                       misreport_c: PiecewiseConstantValuation,
                       eps1: Fraction) -> Optional[ViolationWitness]:
        """Check one deviation; a gain above eps1 yields a witness."""
        cert = evaluate_misreport(
            self.real,
            self.conj.profile_to_real(profile_c),
            self.conj.agent_to_real(agent_c),
            self.conj.valuation_to_real(misreport_c))
        if cert.gain > eps1:
            return self._witness("strategyproofness", eps1, cert)
        return None


# ---------------------------------------------------------------------------
# chain 1: non-wasteful mechanisms


def thm1_delta_bound(n: int, eps1: Fraction, eps2: Fraction) -> Fraction:
    """Exact upper bound on the admissible mass-shift delta."""
    return (1 - n * (3 * eps1 + eps2)) / (n * (1 - 3 * eps1))


def thm1_chain(mechanism: Mechanism, params: ChainParameters) -> ViolationWitness:
    """Drive a non-wasteful mechanism to a violation.

    Profile 1 concentrates two agents on the front 2/n of the cake (the rest
    of the agents hold the remainder), profile 2 replaces the better-endowed
    of the two with an indicator on its own piece, and profile 3 lets the
    other shift all but a delta of its mass onto that piece.  For any
    feasible (eps1, eps2, delta) some check below must fire.
    """
    params.only_deltas("thm1", ("delta",))
    n, eps1, eps2 = params.n, params.eps1, params.eps2
    if n < 2:
        raise InfeasibleParameters("need n >= 2")
    if not (0 <= eps1 < Fraction(1, n) and 0 <= eps2 < Fraction(1, n)):
        raise InfeasibleParameters("need 0 <= eps1, eps2 < 1/n")
    if not 3 * eps1 + eps2 < Fraction(1, n):
        raise InfeasibleParameters("need 3*eps1 + eps2 < 1/n")
    bound = thm1_delta_bound(n, eps1, eps2)
    delta = params.override("delta")
    if delta is None:
        delta = bound / 2
    if not ZERO < delta < bound:
        raise InfeasibleParameters(f"delta must lie in (0, {bound})")

    front = Piece.interval(ZERO, Fraction(2, n))
    u = PiecewiseConstantValuation.on_piece(front)
    if n == 2:
        chain_profile = [u, u]
    else:
        y = PiecewiseConstantValuation.on_piece(
            Piece.interval(Fraction(2, n), ONE))
        chain_profile = [u, u] + [y] * (n - 2)
    p1 = Profile.of(chain_profile)

    run = _ChainRun("thm1", mechanism, _identity_conjugation(mechanism, n),
                    [("delta", delta), ("eps1", eps1), ("eps2", eps2)])
    run.push(p1)
    hit = run.stage_violation(p1, eps2, require_contiguous=False, full_waste=True)
    if hit:
        return hit

    alloc1 = mechanism.run(p1)
    big, small = (0, 1) if alloc1.pieces[0].measure >= alloc1.pieces[1].measure \
        else (1, 0)
    piece_big, piece_small = alloc1.pieces[big], alloc1.pieces[small]
    if piece_big.measure + piece_small.measure != Fraction(2, n):
        raise ChainError(
            "front cake not split between the two front agents despite passing "
            "the waste check")

    v = PiecewiseConstantValuation.on_piece(piece_big)
    p2 = p1.replace(big, v)
    run.push(p2)
    hit = run.stage_violation(p2, eps2, require_contiguous=False, full_waste=True)
    if hit:
        return hit
    hit = run.gain_violation(p2, big, u, eps1)
    if hit:
        return hit

    w = PiecewiseConstantValuation.from_chunks(
        (iv.lo, iv.hi, density)
        for piece, density in ((piece_big, (1 - delta) / piece_big.measure),
                               (piece_small, delta / piece_small.measure))
        for iv in piece.intervals)
    p3 = p2.replace(small, w)
    run.push(p3)
    hit = run.stage_violation(p3, eps2, require_contiguous=False, full_waste=True)
    if hit:
        return hit
    hit = run.gain_violation(p2, small, w, eps1)
    if hit:
        return hit
    raise ChainError("thm1 chain exhausted without a violation")


# ---------------------------------------------------------------------------
# chain 2: two hungry agents, contiguous allocations


PROP1_DELTAS = ("delta1", "delta2", "delta3", "delta4", "delta5")


def prop1_default_deltas(c1: Fraction, eps1: Fraction, eps2: Fraction
                         ) -> dict[str, Fraction]:
    """Midpoint-style delta choices, exact for every feasible (c1, eps)."""
    g = c1 - eps1
    return {
        "delta1": min(g / 8, (Fraction(1, 2) - eps2) / 2),
        "delta2": (Fraction(1, 2) - eps1 - eps2) / 2,
        "delta3": g / 4,
        "delta4": 3 * g / 8,
        "delta5": g / 2,
    }


def _prop1_validate(c1: Fraction, eps1: Fraction, eps2: Fraction,
                    d: dict[str, Fraction]) -> None:
    checks = [
        ZERO < d["delta2"] < Fraction(1, 2) - eps1 - eps2,
        ZERO < d["delta3"] < c1 - eps1,
        ZERO < d["delta1"] < min(c1 - eps1 - d["delta3"], Fraction(1, 2) - eps2),
        d["delta1"] < d["delta4"] < d["delta5"] < c1 - eps1 - d["delta3"],
    ]
    if not all(checks):
        raise InfeasibleParameters(f"delta choices {d} violate the exact constraints")


def prop1_chain(mechanism: Mechanism, params: ChainParameters) -> ViolationWitness:
    """Drive a contiguous mechanism for two hungry agents to a violation.

    Observes the cut on the all-uniform profile, then (relabeling and/or
    mirroring so agent 0 holds the left piece with a cut at or beyond 1/2)
    confronts the mechanism with a spike-plus-plateau valuation and a
    two-spike valuation; some exact check fires for any feasible epsilons.
    """
    params.only_deltas("prop1", PROP1_DELTAS)
    eps1, eps2 = params.eps1, params.eps2
    if params.n != 2:
        raise InfeasibleParameters("this construction is specific to n = 2")
    if not (0 <= eps1 < Fraction(1, 2) and 0 <= eps2 < Fraction(1, 2)):
        raise InfeasibleParameters("need 0 <= eps1, eps2 < 1/2")
    if not eps1 + eps2 < Fraction(1, 2):
        raise InfeasibleParameters("need eps1 + eps2 < 1/2")

    p1 = Profile.of([UNIFORM, UNIFORM])
    probe = _ChainRun("prop1", mechanism, _identity_conjugation(mechanism, 2),
                      [("eps1", eps1), ("eps2", eps2)])
    probe.push(p1)
    hit = probe.stage_violation(p1, eps2, require_contiguous=True)
    if hit:
        return hit

    alloc1 = mechanism.run(p1)
    left_getter = 0 if ZERO in [iv.lo for iv in alloc1.pieces[0].intervals] else 1
    c1 = alloc1.pieces[left_getter].intervals[0].hi
    needs_mirror = c1 < Fraction(1, 2)
    if needs_mirror:
        c1 = 1 - c1
    # mirroring alone also flips who holds the left piece, hence the xor
    conj = _identity_conjugation(
        mechanism, 2, swap01=(left_getter == 1) != needs_mirror, mirror=needs_mirror)
    canon = conj.mechanism()

    deltas = {**prop1_default_deltas(c1, eps1, eps2), **dict(params.overrides)}
    _prop1_validate(c1, eps1, eps2, deltas)
    d1, d2, d3, d4, d5 = (deltas[k] for k in PROP1_DELTAS)

    run = _ChainRun("prop1", mechanism, conj,
                    [("c1", c1), ("eps1", eps1), ("eps2", eps2)]
                    + sorted(deltas.items()))
    run.push(p1)

    v = PiecewiseConstantValuation.from_masses(
        [d1, c1 - d3, c1],
        [Fraction(1, 2) + eps2,
         Fraction(1, 2) - eps1 - eps2 - d2,
         eps1,
         d2])
    p2 = Profile.of([v, UNIFORM])
    run.push(p2)
    hit = run.stage_violation(p2, eps2, require_contiguous=True)
    if hit:
        return hit
    hit = run.gain_violation(p2, 0, UNIFORM, eps1)
    if hit:
        return hit

    alloc2 = canon.run(p2)
    if ZERO not in [iv.lo for iv in alloc2.pieces[0].intervals]:
        raise ChainError("right-left allocation at profile 2 despite passing "
                         "the deficit and deviation checks")

    w = PiecewiseConstantValuation.from_masses(
        [d4, d5, c1 - d3],
        [Fraction(1, 2) - eps2,
         2 * eps2,
         d4,
         Fraction(1, 2) - eps2 - d4])
    p3 = Profile.of([v, w])
    run.push(p3)
    hit = run.stage_violation(p3, eps2, require_contiguous=True)
    if hit:
        return hit
    hit = run.gain_violation(p2, 1, w, eps1)
    if hit:
        return hit
    raise ChainError("prop1 chain exhausted without a violation")


# ---------------------------------------------------------------------------
# chain 3: contiguous mechanisms, three or more agents


def thm2_b_point(c1: Fraction, c2: Fraction, n: int, eps: Fraction) -> Fraction:
    """Left end of the mass plateau in the third profile."""
    t = Fraction(1, n) - eps
    return max(c2 - t * (c2 - c1), t * t + t)


def thm2_chain(mechanism: Mechanism, params: ChainParameters) -> ViolationWitness:
    """Drive a contiguous mechanism for n >= 3 agents to a violation.

    Two uniform agents share the cake with n-2 agents concentrated on a
    narrow interior band.  The chain pins down who holds the right end,
    replaces the other front agent with an indicator on its own piece, and
    then squeezes the right-end holder with a near-empty tail valuation.
    Deviation gains are measured against a zero tolerance (the construction
    targets exact strategyproofness); eps2 is the proportionality tolerance.
    """
    params.only_deltas("thm2", ("delta",))
    n, eps = params.n, params.eps2
    if n < 3:
        raise InfeasibleParameters("need n >= 3 (the two-agent case has its own chain)")
    if params.eps1 != 0:
        raise InfeasibleParameters("this construction targets exact strategyproofness")
    if not 0 <= eps < Fraction(1, n):
        raise InfeasibleParameters("need 0 <= eps < 1/n")
    t = Fraction(1, n) - eps
    delta = params.override("delta")
    if delta is None:
        delta = t / 2
    if not ZERO < delta < t:
        raise InfeasibleParameters(f"delta must lie in (0, {t})")

    r = PiecewiseConstantValuation.on_piece(Piece.interval(t * t, t * t + t))
    p1 = Profile.of([UNIFORM, UNIFORM] + [r] * (n - 2))

    probe = _ChainRun("thm2", mechanism, _identity_conjugation(mechanism, n),
                      [("eps", eps), ("delta", delta)])
    probe.push(p1)
    hit = probe.stage_violation(p1, eps, require_contiguous=True)
    if hit:
        return hit

    alloc1 = mechanism.run(p1)
    right_end = next((i for i, piece in enumerate(alloc1.pieces)
                      if piece.intervals and piece.intervals[-1].hi == ONE), None)
    if right_end not in (0, 1):
        raise ChainError("an interior-band agent holds the right end despite "
                         "passing the proportionality check")
    conj = _identity_conjugation(mechanism, n, swap01=(right_end == 0))
    canon = conj.mechanism()

    run = _ChainRun("thm2", mechanism, conj,
                    [("eps", eps), ("delta", delta)])
    run.push(p1)
    alloc1c = canon.run(p1)
    a1 = alloc1c.pieces[0]

    v = PiecewiseConstantValuation.on_piece(a1)
    p2 = p1.replace(0, v)
    run.push(p2)
    hit = run.stage_violation(p2, eps, require_contiguous=True)
    if hit:
        return hit
    hit = run.gain_violation(p2, 0, UNIFORM, ZERO)
    if hit:
        return hit
    hit = run.gain_violation(p1, 0, v, ZERO)
    if hit:
        return hit

    alloc2 = canon.run(p2)
    piece1 = alloc2.pieces[0]
    if not piece1.is_contiguous or piece1.is_empty:
        raise ChainError("agent 0 lost its indicator piece without a deviation gain")
    c1, c2 = piece1.intervals[0].lo, piece1.intervals[0].hi
    rightc = alloc2.pieces[1]
    if not (rightc.intervals and rightc.intervals[-1].hi == ONE):
        raise ChainError("agent 1 lost the right end despite passing every check")
    b = thm2_b_point(c1, c2, n, eps)
    if not b < c2:
        raise ChainError(f"degenerate plateau [{b}, {c2}] for the third profile")

    w = PiecewiseConstantValuation.from_masses(
        [b, c2],
        [ZERO, 1 - Fraction(1, n) + eps + delta, Fraction(1, n) - eps - delta])
    p3 = p2.replace(1, w)
    run.push(p3)
    hit = run.stage_violation(p3, eps, require_contiguous=True)
    if hit:
        return hit
    hit = run.gain_violation(p2, 1, w, ZERO)
    if hit:
        return hit
    raise ChainError("thm2 chain exhausted without a violation")


# ---------------------------------------------------------------------------
# fixed examples


def discussion_example() -> tuple[tuple[Profile, Profile], ViolationWitness]:
    """The zero-piece-exchange backfire, reproduced exactly.

    Under the exchange-wrapped middle-sharing mechanism, the top-heavy agent
    halves its report on the bottom half of the cake, pushes the boundary
    right, and still receives the bottom half back in the reallocation
    stage: truthful value 1/2, deviated value 1, gain 1/2.
    """
    v1 = PiecewiseConstantValuation.of(["1/2"], [0, 2])
    v2 = PiecewiseConstantValuation.of(["1/2", "4/5"], [1, 0, "5/2"])
    v2_lie = PiecewiseConstantValuation.of(["1/2", "4/5"], ["2/5", 1, "5/2"])
    truthful = Profile.of([v1, v2])
    deviated = Profile.of([v1, v2_lie])
    cert = evaluate_misreport(MODIFIED_EP_EXCHANGE, truthful, 1, v2_lie)
    witness = ViolationWitness(
        "discussion", MODIFIED_EP_EXCHANGE.name, "strategyproofness", ZERO,
        cert, (truthful, deviated), ())
    return (truthful, deviated), witness


def ep_worstcase_fixture(n: int, gap: RationalLike
                         ) -> tuple[Profile, int, PiecewiseConstantValuation, Fraction]:
    """A profile, manipulator, and misreport with gain >= (1 - 1/n) - gap.

    The manipulator hides almost all its mass behind a thin front spike; by
    instead reporting a flat function whose halving point sits just below
    the crowd's, it drags the boundary almost all the way to its mass.
    Returns (profile, agent, misreport, guaranteed lower bound on the gain).
    """
    gap = frac(gap)
    if n not in (2, 3):
        raise ValueError("the worst-case fixture is defined for n in {2, 3}")
    if not ZERO < gap < Fraction(1, 2 * n):
        raise ValueError(f"need 0 < gap < 1/{2 * n}")
    share = Fraction(1, n)
    truth = PiecewiseConstantValuation.from_masses(
        [gap / 4, share], [share, 1 - share - gap / 2, gap / 2])
    lie = PiecewiseConstantValuation.from_masses(
        [share - gap / 4], [share, 1 - share])
    profile = Profile.of([truth] + [UNIFORM] * (n - 1))
    return profile, 0, lie, (1 - share) - gap


CHAINS = ("thm1", "prop1", "thm2", "discussion")
