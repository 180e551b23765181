"""Exact JSON (de)serialization for profiles, reports, and witnesses.

Every rational travels as a "p/q" string in lowest terms (integers drop the
denominator), and decimal strings like "0.8" are converted exactly on input.
JSON numbers are parsed with Fraction as the float hook, so no value ever
passes through binary floating point.  Serialization is canonical: sorted
keys, fixed separators, trailing newline, which makes outputs byte-identical
across runs with the same inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction

from cakecut.cake import (
    Allocation,
    Piece,
    PiecewiseConstantValuation,
    Profile,
    check_decimal_exponent,
)

TYPE_CHECKING = False   # true for type checkers; `typing` is never imported
if TYPE_CHECKING:  # the readers below import these when they are called
    from cakecut.chains import ViolationWitness
    from cakecut.properties import (
        Certificate, GainCertificate, PropertyCertificate, PropertyReport)


class FormatError(ValueError):
    """Input error: a malformed file or argument, named in the message; the
    CLI prints it as one diagnostic line and exits 1."""


# Profiles and `chain --n` above this many agents are refused before any run.
MAX_AGENTS = 1000
# A valuation with more breakpoints than this is refused before any rational
# of it is parsed.
MAX_BREAKPOINTS = 10 ** 5


def _exact(text: str, where: str = "JSON number") -> Fraction:
    """Fraction(text), refusing a decimal exponent beyond MAX_DECIMAL_EXPONENT."""
    try:
        check_decimal_exponent(text)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: invalid rational {text!r} ({exc})") from None


def rat_str(x: Fraction) -> str:
    """str(x); a result beyond the int-to-string digit limit raises FormatError."""
    try:
        return str(x)
    except ValueError:
        raise FormatError("a result has more digits than the int-to-string limit "
                          "lets Python print") from None


def as_rational(value: object, where: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise FormatError(f"{where}: expected an exact rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _exact(value, where)
    raise FormatError(f"{where}: expected an exact rational, got {type(value).__name__}")


def _field(obj: dict, key: str, kind: type, where: str) -> object:
    """obj[key], which must be a `kind`."""
    if not isinstance(obj[key], kind):
        raise FormatError(f"{where}.{key}: expected {kind.__name__}, got {obj[key]!r}")
    return obj[key]


def require_keys(obj: object, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    missing = required - obj.keys()
    if missing:
        raise FormatError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise FormatError(f"{where}: unknown field(s) {sorted(unknown)}")


# ---------------------------------------------------------------------------
# valuations / profiles / pieces


def valuation_to_json(v: PiecewiseConstantValuation) -> dict:
    return {
        "breakpoints": [rat_str(b) for b in v.breakpoints],
        "densities": [rat_str(d) for d in v.densities],
    }


def valuation_from_json(obj: object, where: str) -> PiecewiseConstantValuation:
    require_keys(obj, {"breakpoints", "densities"}, set(), where)
    if not isinstance(obj["breakpoints"], list) or not isinstance(obj["densities"], list):
        raise FormatError(f"{where}: breakpoints and densities must be arrays")
    for key, most in (("breakpoints", MAX_BREAKPOINTS), ("densities", MAX_BREAKPOINTS + 1)):
        if len(obj[key]) > most:
            raise FormatError(f"{where}.{key}: at most {most} {key}, got {len(obj[key])}")
    points = [as_rational(b, f"{where}.breakpoints[{i}]")
              for i, b in enumerate(obj["breakpoints"])]
    densities = [as_rational(d, f"{where}.densities[{i}]")
                 for i, d in enumerate(obj["densities"])]
    try:
        return PiecewiseConstantValuation.of(points, densities)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def profile_to_json(profile: Profile) -> dict:
    return {"agents": [valuation_to_json(v) for v in profile]}


def profile_from_json(obj: object, where: str = "profile") -> Profile:
    require_keys(obj, {"agents"}, set(), where)
    agents = obj["agents"]
    if not isinstance(agents, list) or len(agents) < 2:
        raise FormatError(f"{where}.agents: need an array of at least two agents")
    if len(agents) > MAX_AGENTS:
        raise FormatError(f"{where}.agents: at most {MAX_AGENTS} agents, got {len(agents)}")
    return Profile.of(
        valuation_from_json(a, f"{where}.agents[{i}]") for i, a in enumerate(agents))


def piece_to_json(piece: Piece) -> list:
    return [[rat_str(iv.lo), rat_str(iv.hi)] for iv in piece.intervals]


def allocation_to_json(allocation: Allocation, profile: Profile) -> dict:
    return {
        "pieces": [piece_to_json(p) for p in allocation.pieces],
        "discarded": piece_to_json(allocation.discarded),
        "values": [rat_str(v.value(allocation.pieces[i]))
                   for i, v in enumerate(profile)],
    }


# ---------------------------------------------------------------------------
# reports, certificates, witnesses


def report_to_json(report: PropertyReport) -> dict:
    return {
        "proportionality_deficit": rat_str(report.proportionality_deficit),
        "envy": rat_str(report.envy),
        "wasted_measure": rat_str(report.wasted_measure),
        "contiguous": report.contiguous,
    }


def report_from_json(obj: object, where: str) -> PropertyReport:
    from cakecut.properties import PropertyReport

    require_keys(obj, {"proportionality_deficit", "envy", "wasted_measure",
                       "contiguous"}, set(), where)
    return PropertyReport(
        as_rational(obj["proportionality_deficit"], f"{where}.proportionality_deficit"),
        as_rational(obj["envy"], f"{where}.envy"),
        as_rational(obj["wasted_measure"], f"{where}.wasted_measure"),
        _field(obj, "contiguous", bool, where),
    )


def gain_certificate_to_json(cert: GainCertificate) -> dict:
    return {
        "kind": cert.kind,
        "mechanism": cert.mechanism,
        "profile": profile_to_json(cert.profile),
        "agent": cert.agent,
        "misreport": valuation_to_json(cert.misreport),
        "truthful_value": rat_str(cert.truthful_value),
        "deviated_value": rat_str(cert.deviated_value),
        "gain": rat_str(cert.gain),
    }


def property_certificate_to_json(cert: PropertyCertificate) -> dict:
    return {
        "kind": cert.kind,
        "mechanism": cert.mechanism,
        "profile": profile_to_json(cert.profile),
        "report": report_to_json(cert.report),
    }


def certificate_from_json(obj: object, where: str) -> Certificate:
    from cakecut.properties import GainCertificate, PropertyCertificate

    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"{where}: expected a certificate object with a kind")
    if obj["kind"] == "gain":
        require_keys(obj, {"kind", "mechanism", "profile", "agent", "misreport",
                           "truthful_value", "deviated_value", "gain"}, set(), where)
        profile = profile_from_json(obj["profile"], f"{where}.profile")
        agent = obj["agent"]
        if type(agent) is not int or not 0 <= agent < profile.n:
            raise FormatError(f"{where}.agent: expected an agent index below {profile.n}, "
                              f"got {agent!r}")
        return GainCertificate(
            _field(obj, "mechanism", str, where),
            profile,
            agent,
            valuation_from_json(obj["misreport"], f"{where}.misreport"),
            as_rational(obj["truthful_value"], f"{where}.truthful_value"),
            as_rational(obj["deviated_value"], f"{where}.deviated_value"),
            as_rational(obj["gain"], f"{where}.gain"),
        )
    if obj["kind"] == "report":
        require_keys(obj, {"kind", "mechanism", "profile", "report"}, set(), where)
        return PropertyCertificate(
            _field(obj, "mechanism", str, where),
            profile_from_json(obj["profile"], f"{where}.profile"),
            report_from_json(obj["report"], f"{where}.report"),
        )
    raise FormatError(f"{where}.kind: unknown certificate kind {obj['kind']!r}")


def witness_to_json(witness: ViolationWitness) -> dict:
    write = (gain_certificate_to_json if witness.certificate.kind == "gain"
             else property_certificate_to_json)
    return {
        "chain": witness.chain,
        "mechanism": witness.mechanism,
        "violated": witness.violated,
        "epsilon": rat_str(witness.epsilon),
        "certificate": write(witness.certificate),
        "profiles": [profile_to_json(p) for p in witness.profiles],
        "parameters": {k: rat_str(v) for k, v in witness.parameters},
    }


def witness_from_json(obj: object, where: str = "witness") -> ViolationWitness:
    """Read a witness whose `violated` names a ``chains.VIOLATIONS`` entry,
    whose certificate is of the kind that entry needs and whose mechanism is
    its certificate's."""
    from cakecut.chains import VIOLATIONS, ViolationWitness

    require_keys(obj, {"chain", "mechanism", "violated", "epsilon",
                       "certificate", "profiles", "parameters"}, set(), where)
    parameters = tuple(sorted(
        (k, as_rational(v, f"{where}.parameters.{k}"))
        for k, v in _field(obj, "parameters", dict, where).items()))
    chain = _field(obj, "chain", str, where)
    mechanism = _field(obj, "mechanism", str, where)
    violated = _field(obj, "violated", str, where)
    if violated not in VIOLATIONS:
        raise FormatError(f"{where}.violated: unknown violation {violated!r}; "
                          f"known: {sorted(VIOLATIONS)}")
    epsilon = as_rational(obj["epsilon"], f"{where}.epsilon")
    certificate = certificate_from_json(obj["certificate"], f"{where}.certificate")
    if mechanism != certificate.mechanism:
        raise FormatError(f"{where}.mechanism: {mechanism!r} differs from the "
                          f"certificate's mechanism {certificate.mechanism!r}")
    kind = VIOLATIONS[violated].kind
    if certificate.kind != kind:
        raise FormatError(f"{where}.violated: {violated!r} needs a {kind!r} certificate, "
                          f"got {certificate.kind!r}")
    return ViolationWitness(
        chain, mechanism, violated, epsilon, certificate,
        tuple(profile_from_json(p, f"{where}.profiles[{i}]")
              for i, p in enumerate(_field(obj, "profiles", list, where))),
        parameters,
    )


# ---------------------------------------------------------------------------
# canonical JSON plumbing


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path: str) -> object:
    """Load the JSON file at `path` with floats parsed exactly (0.8 becomes
    4/5); a file that cannot be read or is not UTF-8 JSON raises FormatError."""
    fh = None                       # still None if open() itself fails
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_exact)
    except FormatError as exc:     # a number refused by _exact
        raise FormatError(f"{path}: {exc}") from None
    except FileNotFoundError:
        raise FormatError(f"file not found: {path}") from None
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror})") from None
    except (ValueError, RecursionError) as exc:    # open() refuses a NUL in the path
        problem = "cannot read" if fh is None else "not valid JSON"
        raise FormatError(f"{path}: {problem} ({exc})") from None
