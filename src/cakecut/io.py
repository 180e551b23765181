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
    Record,
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
# reports, certificates, witnesses and learned valuations: each field of the
# record is one JSON key, read and written through its FIELDS codec


def record_to_json(record: Record) -> dict:
    """Each of the record's fields through its FIELDS writer, and a
    certificate's kind."""
    out = {f: FIELDS[f][0](getattr(record, f)) for f in record._fields}
    if hasattr(record, "kind"):
        out["kind"] = record.kind
    return out


def record_from_json(cls: type, obj: object, where: str,
                     extra: tuple[str, ...] = ()) -> Record:
    """A `cls` from the JSON object of its fields and the `extra` keys: each
    field is read through its FIELDS reader, in ``cls._fields`` order, so the
    first field at fault is the one reported."""
    require_keys(obj, {*cls._fields, *extra}, set(), where)
    return cls(*(FIELDS[f][1](obj[f], f"{where}.{f}") for f in cls._fields))


def report_to_json(report: PropertyReport) -> dict:
    return record_to_json(report)


def report_from_json(obj: object, where: str) -> PropertyReport:
    from cakecut.properties import PropertyReport

    return record_from_json(PropertyReport, obj, where)


def gain_certificate_to_json(cert: GainCertificate) -> dict:
    return record_to_json(cert)


def property_certificate_to_json(cert: PropertyCertificate) -> dict:
    return record_to_json(cert)


def certificate_from_json(obj: object, where: str) -> Certificate:
    """Read a certificate of the class its kind names; a gain certificate's
    agent must be below its profile's n."""
    from cakecut.properties import GainCertificate, PropertyCertificate

    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"{where}: expected a certificate object with a kind")
    # compared with ==, not looked up: a kind read from JSON may be unhashable
    cls = next((c for c in (GainCertificate, PropertyCertificate) if obj["kind"] == c.kind),
               None)
    if cls is None:
        raise FormatError(f"{where}.kind: unknown certificate kind {obj['kind']!r}")
    cert = record_from_json(cls, obj, where, ("kind",))
    if cls is GainCertificate and (type(cert.agent) is not int
                                   or not 0 <= cert.agent < cert.profile.n):
        raise FormatError(f"{where}.agent: expected an agent index below {cert.profile.n}, "
                          f"got {cert.agent!r}")
    return cert


def witness_to_json(witness: ViolationWitness) -> dict:
    return record_to_json(witness)


def witness_from_json(obj: object, where: str = "witness") -> ViolationWitness:
    """Read a witness whose `violated` names a ``chains.VIOLATIONS`` entry,
    whose mechanism is its certificate's and whose certificate is of the
    kind that entry needs."""
    from cakecut.chains import VIOLATIONS, ViolationWitness

    witness = record_from_json(ViolationWitness, obj, where)
    mechanism, certificate = witness.mechanism, witness.certificate
    if mechanism != certificate.mechanism:
        raise FormatError(f"{where}.mechanism: {mechanism!r} differs from the "
                          f"certificate's mechanism {certificate.mechanism!r}")
    kind = VIOLATIONS[witness.violated].kind
    if certificate.kind != kind:
        raise FormatError(f"{where}.violated: {witness.violated!r} needs a {kind!r} "
                          f"certificate, got {certificate.kind!r}")
    return witness


def _typed(kind: type):
    """The reader of a field whose JSON value must be a `kind`, taken as is."""
    def read(value: object, where: str) -> object:
        if not isinstance(value, kind):
            raise FormatError(f"{where}: expected {kind.__name__}, got {value!r}")
        return value
    return read


def _violation_from_json(value: object, where: str) -> str:
    from cakecut.chains import VIOLATIONS

    if _typed(str)(value, where) not in VIOLATIONS:
        raise FormatError(f"{where}: unknown violation {value!r}; known: {sorted(VIOLATIONS)}")
    return value


def _same(value: object, where: str = "") -> object:
    return value


# field name -> (write(value) -> JSON value, read(JSON value, where) -> value),
# for every field of PropertyReport, GainCertificate, PropertyCertificate,
# ViolationWitness and LearnedValuation
FIELDS = {
    **dict.fromkeys(("proportionality_deficit", "envy", "wasted_measure", "truthful_value",
                     "deviated_value", "gain", "epsilon"), (rat_str, as_rational)),
    **dict.fromkeys(("mechanism", "chain"), (_same, _typed(str))),
    "violated": (_same, _violation_from_json),
    "contiguous": (_same, _typed(bool)),
    # a certificate's agent is checked against its profile once both are read
    **dict.fromkeys(("agent", "k", "queries_used"), (_same, _same)),
    "profile": (profile_to_json, profile_from_json),
    **dict.fromkeys(("misreport", "valuation"), (valuation_to_json, valuation_from_json)),
    "report": (report_to_json, report_from_json),
    "certificate": (record_to_json, certificate_from_json),
    "profiles": (lambda profiles: [profile_to_json(p) for p in profiles],
                 lambda value, where: tuple(profile_from_json(p, f"{where}[{i}]")
                                            for i, p in enumerate(_typed(list)(value, where)))),
    "parameters": (lambda parameters: {k: rat_str(v) for k, v in parameters},
                   lambda value, where: tuple(sorted(
                       (k, as_rational(v, f"{where}.{k}"))
                       for k, v in _typed(dict)(value, where).items()))),
}


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
