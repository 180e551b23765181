"""Command-line front end: allocate, check, gain, learn, chain, verify, run.

Reports are emitted as canonical JSON (sorted keys, exact "p/q" rationals),
so identical inputs and seeds produce byte-identical output; --format text
renders the same report for humans and adds elapsed time.  Exit codes:
0 success, 1 input error, 2 violation-found (chains normally end this way;
that exit code is their success path).  Each handler imports the modules
it runs when it is called, so a command loads only what it uses.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from cakecut.cake import Profile
from cakecut.io import (
    MAX_AGENTS,
    FormatError,
    require_keys,
    allocation_to_json,
    as_rational,
    canonical_dumps,
    certificate_from_json,
    gain_certificate_to_json,
    load_json,
    profile_from_json,
    profile_to_json,
    rat_str,
    report_to_json,
    valuation_to_json,
    witness_from_json,
    witness_to_json,
)
from cakecut.mechanisms import MECHANISMS, SHARES_MIDDLE, Mechanism, get_mechanism

TYPE_CHECKING = False   # true for type checkers; `typing` is never imported
if TYPE_CHECKING:
    from cakecut.properties import Certificate, SearchConfig


# `learn` makes floor(2k/eps) cut queries, one at a time; a budget
# above this is refused before any query runs.
MAX_QUERY_BUDGET = 10 ** 5
# Each `gain` offset round adds two points per base point, with one more bit
# of denominator, so the candidate pool grows quadratically in bits; more
# rounds than this are refused.
MAX_OFFSET_ROUNDS = 64


def _error_line(message: str) -> str:
    """`message` as one diagnostic line of at most 300 bytes: an echoed
    number may run to thousands of digits, so each run of more than 40
    keeps its first 20; an echoed name may hold a newline or a NUL, so
    every character that is not printable is written as its backslash
    escape; an echoed array may be long, so the message keeps 280 bytes."""
    message = re.sub(r"\d{41,}", lambda m: f"{m[0][:20]}…({len(m[0])} digits)", message)
    message = "".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                      for c in message)
    if len(message.encode()) > 280:
        message = message.encode()[:277].decode(errors="ignore") + "…"
    return f"cakecut: error: {message}\n"


# ---------------------------------------------------------------------------
# the arguments of each command, for flags and scenario files alike


# One command argument: scenario key `name`, flag `flag` (by default `--`
# plus the name with `-` for `_`; no dashes: positional).  A scenario that
# omits it, or an optional flag left out, gets `default`.  `kind` is int, str,
# Fraction (read exactly) or dict (deltas); `bound` a lower bound on the
# value, "> 0" or ">= 1"; `required` says the flag must be given; with
# `nullable` a null passes through (max_candidates: no cap).
Arg = namedtuple("Arg", ["name", "kind", "default", "bound", "required", "nullable",
                         "help", "flag"],
                 defaults=(str, None, None, False, False, None, None))


MECHANISM = Arg("mechanism", default="", required=True, help=", ".join(sorted(MECHANISMS)))
AGENT = Arg("agent", int, 0, required=True, help="agent index")

ARGUMENTS: dict[str, tuple[Arg, ...]] = {
    "allocate": (MECHANISM,),
    "check": (MECHANISM,),
    "gain": (MECHANISM, AGENT,
             Arg("engine", default="grid", help="grid or ep-exact"),
             Arg("rounds", int, 1, ">= 0", help="offset refinement rounds"),
             Arg("mass_denominator", int, 4, ">= 1"),
             Arg("max_breakpoints", int, 2, ">= 0"),
             Arg("max_candidates", int, 64, ">= 1", nullable=True)),
    "learn": (AGENT,
              Arg("k", int, 1, "> 0", required=True,
                  help="upper bound on the agent's breakpoint count"),
              Arg("eps", Fraction, "1", "> 0", required=True,
                  help="approximation target, e.g. 1/5")),
    "chain": (Arg("name", default="", help="thm1, prop1, thm2 or discussion"),
              Arg("mechanism", nullable=True, help="the mechanism to drive"),
              Arg("n", int, 2),
              Arg("eps1", Fraction, "0"),
              Arg("eps2", Fraction, "0"),
              Arg("deltas", dict, {}, flag="--delta",
                  help="override a delta (a bare value sets 'delta')")),
    "verify": (Arg("witness", object, flag="witness", help="witness JSON file"),),
}


def _checked(command: str, args: dict) -> dict:
    """Every argument of `command`: `args` checked against ARGUMENTS, with
    defaults for the missing ones; Fraction arguments are read exactly."""
    specs = ARGUMENTS[command]
    unknown = sorted(args.keys() - {spec.name for spec in specs})
    if unknown:
        raise FormatError(f"unknown argument(s) {unknown} for {command}; "
                          f"known: {[spec.name for spec in specs]}")
    checked = {}
    for spec in specs:
        value = checked[spec.name] = args.get(spec.name, spec.default)
        where = f"argument {spec.name!r}"
        if value is None and spec.nullable:
            continue
        if spec.kind is Fraction:
            value = checked[spec.name] = as_rational(value, where)
        elif not isinstance(value, spec.kind) or isinstance(value, bool):
            raise FormatError(f"{where}: expected {spec.kind.__name__}, got {value!r}")
        elif spec.kind is dict:
            checked[spec.name] = {k: as_rational(v, f"argument '{spec.name}.{k}'")
                                  for k, v in value.items()}
        if spec.bound:
            op, least = spec.bound.split()
            if not (value > int(least) if op == ">" else value >= int(least)):
                raise FormatError(f"{where}: must be {spec.bound}, got {value}")
    return checked


# ---------------------------------------------------------------------------
# handlers (shared between CLI flags and scenario files)


def do_allocate(mechanism: Mechanism, profile: Profile) -> dict:
    allocation = mechanism.run(profile)
    return {"mechanism": mechanism.name,
            "allocation": allocation_to_json(allocation, profile)}


def do_check(mechanism: Mechanism, profile: Profile) -> dict:
    from cakecut.properties import report_for

    report = report_for(profile, mechanism.run(profile))
    return {"mechanism": mechanism.name, "report": report_to_json(report)}


def do_gain(mechanism: Mechanism, profile: Profile, agent: int, engine: str,
            cfg: SearchConfig) -> dict:
    from cakecut.properties import best_response_gain, ep_cutpoint_best_response

    if engine == "grid":
        cert = best_response_gain(mechanism, profile, agent, cfg)
    elif engine == "ep-exact":
        if mechanism.name not in SHARES_MIDDLE:
            raise FormatError(f"engine 'ep-exact' takes only the recursive-halving mechanisms "
                              f"{sorted(SHARES_MIDDLE)}; got {mechanism.name!r}")
        cert = ep_cutpoint_best_response(mechanism, profile, agent, cfg)
    else:
        raise FormatError(f"unknown engine {engine!r}")
    return {"engine": engine, "certificate": gain_certificate_to_json(cert)}


def do_learn(profile: Profile, agent: int, k: int, eps: Fraction) -> dict:
    from cakecut.queries import RWOracle, approximate_valuation, query_budget

    if k < len(profile[agent].breakpoints):
        raise FormatError(f"argument 'k': {k} is below agent {agent}'s breakpoint count "
                          f"{len(profile[agent].breakpoints)}")
    if query_budget(k, eps) > MAX_QUERY_BUDGET:
        raise FormatError(f"arguments 'k' and 'eps': query budget floor(2k/eps) = "
                          f"{query_budget(k, eps)} exceeds {MAX_QUERY_BUDGET}")
    learned = approximate_valuation(RWOracle(profile[agent]), k, eps)
    return {
        "agent": agent,
        "k": learned.k,
        "epsilon": rat_str(learned.epsilon),
        "queries_used": learned.queries_used,
        "valuation": valuation_to_json(learned.valuation),
    }


def do_chain(name: str, mechanism: Mechanism | None, n: int, eps1: Fraction,
             eps2: Fraction, deltas: dict[str, Fraction]) -> dict:
    import cakecut.chains as chains

    if n > MAX_AGENTS:
        raise FormatError(f"argument 'n': at most {MAX_AGENTS} agents, got {n}")
    if name not in chains.CHAINS:
        raise FormatError(f"unknown chain {name!r}; known: {chains.CHAINS}")
    if name == "discussion":
        return witness_to_json(chains.discussion_example()[1])
    if mechanism is None:
        raise FormatError("--mechanism is required for this chain")
    try:
        witness = getattr(chains, f"{name}_chain")(mechanism, chains.ChainParameters(
            n, eps1, eps2, tuple(sorted(deltas.items()))))
    except chains.InfeasibleParameters as exc:
        raise FormatError(str(exc)) from None
    except chains.ChainError as exc:
        raise FormatError(f"chain found no violation (unexpected): {exc}") from None
    return witness_to_json(witness)


def do_verify(obj: object) -> tuple[dict, bool]:
    """Re-run the mechanism behind a witness/certificate, once on each profile
    the certificate names, and compare values byte-for-byte with the stored
    ones; a witness must also still show its violation.  A report envelope as
    printed by ``chain`` is unwrapped to the witness in its ``output``."""
    from cakecut.properties import recompute

    if isinstance(obj, dict) and "command" in obj and "output" in obj:
        obj = obj["output"]
    if isinstance(obj, dict) and "chain" in obj:
        checked = witness_from_json(obj)
        certificate = checked.certificate
    elif isinstance(obj, dict) and obj.get("kind") in ("gain", "report"):
        checked = certificate = certificate_from_json(obj, "certificate")
    else:
        raise FormatError("expected a witness or certificate JSON object")
    fresh, allocation = recompute(certificate, _resolve(certificate.mechanism))
    stored, recomputed = _certificate_values(certificate), _certificate_values(fresh)
    verified = stored == recomputed and (checked is certificate
                                         or checked.holds(fresh, allocation))
    return ({"verified": verified, "stored": stored, "recomputed": recomputed},
            verified)


def _resolve(name: str) -> Mechanism:
    try:
        return get_mechanism(name)
    except KeyError as exc:
        raise FormatError(exc.args[0]) from None


def _certificate_values(certificate: Certificate) -> dict:
    if certificate.kind == "gain":
        return {f: rat_str(getattr(certificate, f))
                for f in ("truthful_value", "deviated_value", "gain")}
    return report_to_json(certificate.report)


# ---------------------------------------------------------------------------
# scenario files


Scenario = namedtuple("Scenario", ["version", "command", "arguments", "profile", "seed"])


def parse_scenario(obj: object, base_dir: str = ".") -> Scenario:
    require_keys(obj, {"version", "command"}, {"arguments", "profile", "seed"},
                 "scenario")
    if type(obj["version"]) is not int or obj["version"] != 1:
        raise FormatError(f"scenario.version: expected the integer 1, got {obj['version']!r}")
    if not isinstance(obj["command"], str) or obj["command"] not in ARGUMENTS:
        raise FormatError(f"scenario.command: unknown command {obj['command']!r}")
    profile = None
    if "profile" in obj:
        spec = obj["profile"]
        if isinstance(spec, dict) and set(spec.keys()) == {"file"}:
            if not isinstance(spec["file"], str):
                raise FormatError(f"scenario.profile.file: expected a string, "
                                  f"got {spec['file']!r}")
            profile = load_profile(os.path.join(base_dir, spec["file"]))
        else:
            profile = profile_from_json(spec, "scenario.profile")
    seed = obj.get("seed")
    if seed is not None and type(seed) is not int:
        raise FormatError("scenario.seed: expected an integer")
    arguments = obj.get("arguments", {})
    if not isinstance(arguments, dict):
        raise FormatError("scenario.arguments: expected an object")
    return Scenario(1, obj["command"], _normalize_json(arguments), profile, seed)


def _normalize_json(value: object) -> object:
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, dict):
        return {k: _normalize_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize_json(v) for v in value]
    return value


def scenario_to_json(scenario: Scenario) -> dict:
    out = {k: v for k, v in scenario._asdict().items() if v is not None and v != {}}
    if scenario.profile is not None:
        out["profile"] = profile_to_json(scenario.profile)
    return out


def run_scenario(path: str) -> tuple[dict, int]:
    """Execute a scenario file; returns (report, exit_code)."""
    base_dir = os.path.dirname(path) or "."
    scenario = parse_scenario(load_json(path), base_dir)
    seed = scenario.seed if scenario.seed is not None else 0
    output, code = _execute(scenario.command, scenario.arguments, scenario.profile, seed,
                            base_dir)
    report = {"command": scenario.command, "inputs": scenario_to_json(scenario),
              "output": output, "exact": True}
    return report, code


def load_profile(path: str) -> Profile:
    return profile_from_json(load_json(path), "profile")


def _need_profile(profile: Profile | None, agent: int = 0) -> Profile:
    """The profile a command runs on, which must hold `agent`."""
    if profile is None:
        raise FormatError("this command needs a profile (--profile or scenario field)")
    if not 0 <= agent < profile.n:
        raise FormatError(f"agent index {agent} out of range for {profile.n} agents")
    return profile


def _execute(command: str, args: dict, profile: Profile | None, seed: int,
             base_dir: str = "") -> tuple[dict, int]:
    """Run `command` on `args`, checked against ARGUMENTS; a witness path is
    read relative to `base_dir`.  Returns (output, exit code)."""
    a = _checked(command, args)
    mechanism = _resolve(a["mechanism"]) if a.get("mechanism") is not None else None
    if command == "allocate":
        return do_allocate(mechanism, _need_profile(profile)), 0
    if command == "check":
        return do_check(mechanism, _need_profile(profile)), 0
    if command == "gain":
        from cakecut.properties import SearchConfig

        if a["rounds"] > MAX_OFFSET_ROUNDS:
            raise FormatError(f"argument 'rounds': at most {MAX_OFFSET_ROUNDS}, "
                              f"got {a['rounds']}")
        cfg = SearchConfig(mass_denominator=a["mass_denominator"],
                           max_breakpoints=a["max_breakpoints"],
                           offset_rounds=a["rounds"],
                           max_candidates=a["max_candidates"], seed=seed)
        return do_gain(mechanism, _need_profile(profile, a["agent"]), a["agent"],
                       a["engine"], cfg), 0
    if command == "learn":
        return do_learn(_need_profile(profile, a["agent"]), a["agent"], a["k"], a["eps"]), 0
    if command == "chain":
        return do_chain(a["name"], mechanism, a["n"], a["eps1"], a["eps2"], a["deltas"]), 2
    target = a["witness"]  # verify
    if isinstance(target, str):
        target = load_json(os.path.join(base_dir, target))
    output, ok = do_verify(target)
    return output, 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        self.exit(1, _error_line(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cakecut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("allocate", "run a mechanism on a profile"),
                          ("check", "measure properties of a mechanism run"),
                          ("gain", "search for a profitable misreport"),
                          ("learn", "learn a valuation through cut queries"),
                          ("chain", "run a counterexample chain"),
                          ("verify", "re-verify a witness or certificate file")):
        p = sub.add_parser(command, help=text)
        for spec in ARGUMENTS[command]:
            flag = spec.flag or "--" + spec.name.replace("_", "-")
            options: dict[str, object] = {"help": spec.help}
            if flag.startswith("-"):
                options.update(dest=spec.name, required=spec.required)
            if spec.kind is dict:
                options.update(action="append", type=_override, default=[], metavar="NAME=P/Q")
            else:
                options.update(type=int if spec.kind is int else None, default=spec.default)
            p.add_argument(flag, **options)
        if command != "verify":
            p.add_argument("--profile", required=command != "chain",
                           help="profile JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _override(text: str) -> tuple[str, str]:
    """One `--delta`: NAME=P/Q, or a bare value for 'delta'."""
    name, sep, value = text.partition("=")
    return (name, value) if sep else ("delta", text)


def emit_report(report: dict, fmt: str = "json", elapsed_ms: float = 0.0) -> str:
    """Serialize a run report: canonical JSON, or flat text with timing.

    The JSON form is deterministic (sorted keys, lowest-terms rationals) and
    deliberately carries no timing, so identical inputs give identical bytes.
    """
    if fmt == "json":
        return canonical_dumps(report)
    lines: list[str] = []

    def walk(prefix: str, value: object) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        else:
            lines.append(f"{prefix[:-1]} = {value}")

    walk("", report)
    lines.append(f"elapsed_ms = {elapsed_ms:.1f}")
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if ns.command == "run":
            report, code = run_scenario(ns.scenario)
        else:
            args = {}
            for spec in ARGUMENTS[ns.command]:
                value = getattr(ns, spec.name)
                if value is not None:
                    args[spec.name] = dict(value) if spec.kind is dict else value
            profile = load_profile(ns.profile) if getattr(ns, "profile", None) else None
            output, code = _execute(ns.command, args, profile, ns.seed)
            inputs = dict(args)
            if profile is not None:
                inputs["profile"] = ns.profile
            if ns.seed:     # the default seed, 0, is not echoed
                inputs["seed"] = ns.seed
            report = {"command": ns.command, "inputs": inputs, "output": output,
                      "exact": True}
    except FormatError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return 1
    elapsed_ms = (time.perf_counter() - started) * 1000
    sys.stdout.write(emit_report(report, getattr(ns, "format", "json"), elapsed_ms))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
