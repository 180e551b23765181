"""Executable counterexample chains against concrete mechanisms.

Each chain runs a mechanism through a short sequence of adversarial profiles
and returns the first verified property violation it finds: discarded cake
that someone values, desired cake held by an agent who does not want it, a
non-contiguous allocation where contiguity was claimed, a proportionality
deficit, or a profitable deviation from one of its profiles to another, so
the mechanism runs once per profile.  ``VIOLATIONS`` defines each violation
for the chains' checks, ``ViolationWitness.verify`` and the witness reader.
The "without loss of generality" steps are concrete: no agent swap or cake
mirror x -> 1-x a chain may make changes its first profile, so after that
run the chain picks the labeling and orientation it assumes and translates
every later profile back into the real mechanism's coordinates; every
emitted certificate re-verifies against the mechanism as-is.

Chains are sequential state machines (each profile depends on the previous
output); distinct chains can run concurrently.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from cakecut.cake import (
    Allocation,
    Interval,
    ONE,
    Piece,
    PiecewiseConstantValuation,
    Profile,
    RationalLike,
    Record,
    ZERO,
    frac,
)
from cakecut.mechanisms import MODIFIED_EP_EXCHANGE, Mechanism, get_mechanism
from cakecut.properties import (
    Certificate, PropertyCertificate, evaluate_misreport, recompute, report_for)

UNIFORM = PiecewiseConstantValuation.uniform()


class ChainError(RuntimeError):
    """The chain ran to completion without finding a violation (a bug: the
    argument guarantees one for any mechanism meeting the preconditions)."""


class InfeasibleParameters(ValueError):
    """Chain parameters violate an exact feasibility constraint."""


class ChainParameters(Record):
    """Targets for the approximation thresholds plus optional delta choices.

    eps1 bounds tolerated manipulation gain, eps2 tolerated proportionality
    deficit.  Omitted deltas default to the midpoint of their exact
    feasibility interval.
    """

    def __init__(self, n: int, eps1: Fraction = ZERO, eps2: Fraction = ZERO,
                 overrides: tuple[tuple[str, Fraction], ...] = ()) -> None:
        self.__dict__.update(n=n, eps1=eps1, eps2=eps2, overrides=overrides)

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

    def override(self, name: str) -> Fraction | None:
        for key, value in self.overrides:
            if key == name:
                return value
        return None


# The certificate kind (as in JSON) a witness of one violation needs and
# ``holds(certificate, allocation, epsilon)``, its predicate; `allocation` is
# what a report certificate measures (None for a gain certificate).
Violation = namedtuple("Violation", ["kind", "holds"])


# every violation a witness can name, in the order a chain stage checks them
VIOLATIONS: dict[str, Violation] = {
    "free-disposal": Violation(     # discarded cake that some agent values
        "report", lambda c, a, eps: any(v.value(a.discarded) > 0 for v in c.profile)),
    "non-wastefulness": Violation("report", lambda c, a, eps: c.report.wasted_measure > 0),
    "contiguity": Violation("report", lambda c, a, eps: not c.report.contiguous),
    "proportionality": Violation(
        "report", lambda c, a, eps: c.report.proportionality_deficit > eps),
    "strategyproofness": Violation("gain", lambda c, a, eps: c.gain > eps),
}


class ViolationWitness(Record):
    """A verified violation produced by a chain."""

    def __init__(self, chain: str, mechanism: str,
                 violated: str,          # a VIOLATIONS name
                 epsilon: Fraction,      # the threshold the certificate exceeds
                 certificate: Certificate, profiles: tuple[Profile, ...],
                 parameters: tuple[tuple[str, Fraction], ...]) -> None:
        self.__dict__.update(chain=chain, mechanism=mechanism, violated=violated,
                             epsilon=epsilon, certificate=certificate, profiles=profiles,
                             parameters=parameters)

    def verify(self, mechanism: Mechanism | None = None) -> bool:
        mech = mechanism if mechanism is not None else get_mechanism(self.certificate.mechanism)
        fresh, allocation = recompute(self.certificate, mech)
        return fresh == self.certificate and self.holds(fresh, allocation)

    def holds(self, certificate: Certificate, allocation: Allocation | None) -> bool:
        """Whether `certificate` (measuring `allocation`, if a report) shows
        the violation this witness names."""
        violation = VIOLATIONS.get(self.violated)
        return (violation is not None
                and certificate.kind == violation.kind
                and violation.holds(certificate, allocation, self.epsilon))


# ---------------------------------------------------------------------------
# shared construction helpers


def mirror_valuation(v: PiecewiseConstantValuation) -> PiecewiseConstantValuation:
    bounds = tuple(1 - b for b in reversed(v.bounds))
    return PiecewiseConstantValuation(bounds, tuple(reversed(v.densities)))


def mirror_piece(piece: Piece) -> Piece:
    return Piece.of(Interval(1 - iv.hi, 1 - iv.lo) for iv in piece.intervals)


class _Found(Exception):
    """Carries the witness of the violation that ends a chain."""


class _ChainRun:
    """One chain's profiles, checks and frame, as ``with _ChainRun(...) as
    run:``.  A violation leaves the block with ``run.witness`` set; a block
    that ends without one raises ChainError.  The chain's frame swaps agents
    0 and 1 (`swap01`) and/or mirrors the cake (`mirror`); both are set, if
    at all, after the first stage.  Witnesses are in real coordinates.
    """

    def __init__(self, chain: str, mechanism: Mechanism, shape: str, eps2: Fraction,
                 parameters: Sequence[tuple[str, Fraction]]):
        self.chain = chain
        self.mechanism = Mechanism(mechanism.name, functools.cache(mechanism.run))
        # each stage checks free disposal, `shape` (non-wastefulness or
        # contiguity) and then proportionality
        self.checks = {"free-disposal": ZERO, shape: ZERO, "proportionality": eps2}
        self.parameters = tuple(parameters)
        self.swap01 = self.mirror = False
        self.profiles: list[Profile] = []
        self.witness: ViolationWitness | None = None

    def __enter__(self) -> "_ChainRun":
        return self

    def __exit__(self, kind, error, traceback) -> bool:
        if kind is None:
            raise ChainError(f"{self.chain} chain exhausted without a violation")
        if kind is not _Found:
            return False
        self.witness = error.args[0]
        return True

    def agent(self, i: int) -> int:
        return 1 - i if self.swap01 and i < 2 else i

    def valuation(self, v: PiecewiseConstantValuation) -> PiecewiseConstantValuation:
        return mirror_valuation(v) if self.mirror else v

    def real(self, profile_c: Profile) -> Profile:
        return Profile.of(self.valuation(profile_c[self.agent(i)])
                          for i in range(profile_c.n))

    def _check(self, violated: str, epsilon: Fraction, certificate: Certificate,
               allocation: Allocation | None = None) -> None:
        if VIOLATIONS[violated].holds(certificate, allocation, epsilon):
            raise _Found(ViolationWitness(
                self.chain, self.mechanism.name, violated, epsilon, certificate,
                tuple(self.profiles), self.parameters))

    def stage(self, profile_c: Profile) -> tuple[Piece, ...]:
        """Record and run the next profile and make the stage checks on it;
        returns its pieces in the chain's frame."""
        profile = self.real(profile_c)
        self.profiles.append(profile)
        allocation = self.mechanism.run(profile)
        certificate = PropertyCertificate(
            self.mechanism.name, profile, report_for(profile, allocation))
        for violated, epsilon in self.checks.items():
            self._check(violated, epsilon, certificate, allocation)
        pieces = [allocation.pieces[self.agent(i)] for i in range(profile.n)]
        return tuple(mirror_piece(p) if self.mirror else p for p in pieces)

    def deviation(self, profile_c: Profile, agent_c: int,
                  misreport_c: PiecewiseConstantValuation, eps1: Fraction) -> None:
        """Check whether agent_c gains more than eps1 by reporting
        misreport_c at profile_c.  Every deviation a chain checks leads from
        one staged profile to another, so the cached runs answer it."""
        certificate = evaluate_misreport(self.mechanism, self.real(profile_c),
                                         self.agent(agent_c), self.valuation(misreport_c))
        self._check("strategyproofness", eps1, certificate)


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

    with _ChainRun("thm1", mechanism, "non-wastefulness", eps2,
                   [("delta", delta), ("eps1", eps1), ("eps2", eps2)]) as run:
        pieces1 = run.stage(p1)
        big, small = (0, 1) if pieces1[0].measure >= pieces1[1].measure else (1, 0)
        piece_big, piece_small = pieces1[big], pieces1[small]
        if piece_big.measure + piece_small.measure != Fraction(2, n):
            raise ChainError(
                "front cake not split between the two front agents despite passing "
                "the waste check")

        v = PiecewiseConstantValuation.on_piece(piece_big)
        p2 = p1.replace(big, v)
        run.stage(p2)
        run.deviation(p2, big, u, eps1)

        w = PiecewiseConstantValuation.from_chunks(
            (iv.lo, iv.hi, density)
            for piece, density in ((piece_big, (1 - delta) / piece_big.measure),
                                   (piece_small, delta / piece_small.measure))
            for iv in piece.intervals)
        p3 = p2.replace(small, w)
        run.stage(p3)
        run.deviation(p2, small, w, eps1)
    return run.witness


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
    with _ChainRun("prop1", mechanism, "contiguity", eps2,
                   [("eps1", eps1), ("eps2", eps2)]) as run:
        pieces1 = run.stage(p1)
        left_getter = 0 if ZERO in [iv.lo for iv in pieces1[0].intervals] else 1
        c1 = pieces1[left_getter].intervals[0].hi
        # p1 is symmetric in both agents and under the mirror; mirroring
        # alone also flips who holds the left piece, hence the xor
        run.mirror = c1 < Fraction(1, 2)
        run.swap01 = (left_getter == 1) != run.mirror
        if run.mirror:
            c1 = 1 - c1

        deltas = {**prop1_default_deltas(c1, eps1, eps2), **dict(params.overrides)}
        _prop1_validate(c1, eps1, eps2, deltas)
        d1, d2, d3, d4, d5 = (deltas[k] for k in PROP1_DELTAS)
        run.parameters = (("c1", c1), ("eps1", eps1), ("eps2", eps2),
                          *sorted(deltas.items()))

        v = PiecewiseConstantValuation.from_masses(
            [d1, c1 - d3, c1],
            [Fraction(1, 2) + eps2,
             Fraction(1, 2) - eps1 - eps2 - d2,
             eps1,
             d2])
        p2 = Profile.of([v, UNIFORM])
        pieces2 = run.stage(p2)
        run.deviation(p2, 0, UNIFORM, eps1)
        if ZERO not in [iv.lo for iv in pieces2[0].intervals]:
            raise ChainError("right-left allocation at profile 2 despite passing "
                             "the deficit and deviation checks")

        w = PiecewiseConstantValuation.from_masses(
            [d4, d5, c1 - d3],
            [Fraction(1, 2) - eps2,
             2 * eps2,
             d4,
             Fraction(1, 2) - eps2 - d4])
        p3 = Profile.of([v, w])
        run.stage(p3)
        run.deviation(p2, 1, w, eps1)
    return run.witness


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

    with _ChainRun("thm2", mechanism, "contiguity", eps,
                   [("eps", eps), ("delta", delta)]) as run:
        pieces1 = run.stage(p1)
        right_end = next((i for i, piece in enumerate(pieces1)
                          if piece.intervals and piece.intervals[-1].hi == ONE), None)
        if right_end not in (0, 1):
            raise ChainError("an interior-band agent holds the right end despite "
                             "passing the proportionality check")
        run.swap01 = right_end == 0     # p1 is symmetric in agents 0 and 1

        v = PiecewiseConstantValuation.on_piece(pieces1[1 - right_end])
        p2 = p1.replace(0, v)
        pieces2 = run.stage(p2)
        run.deviation(p2, 0, UNIFORM, ZERO)
        run.deviation(p1, 0, v, ZERO)

        piece1 = pieces2[0]
        if not piece1.is_contiguous or piece1.is_empty:
            raise ChainError("agent 0 lost its indicator piece without a deviation gain")
        c1, c2 = piece1.intervals[0].lo, piece1.intervals[0].hi
        rightc = pieces2[1]
        if not (rightc.intervals and rightc.intervals[-1].hi == ONE):
            raise ChainError("agent 1 lost the right end despite passing every check")
        b = thm2_b_point(c1, c2, n, eps)
        if not b < c2:
            raise ChainError(f"degenerate plateau [{b}, {c2}] for the third profile")

        w = PiecewiseConstantValuation.from_masses(
            [b, c2],
            [ZERO, 1 - Fraction(1, n) + eps + delta, Fraction(1, n) - eps - delta])
        p3 = p2.replace(1, w)
        run.stage(p3)
        run.deviation(p2, 1, w, ZERO)
    return run.witness


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
