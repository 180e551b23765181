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
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional, Sequence

from cakecut.cake import Profile
from cakecut.io import (
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
from cakecut.mechanisms import MECHANISMS, SHARES_MIDDLE, Mechanism

if TYPE_CHECKING:
    from cakecut.properties import SearchConfig

COMMANDS = ("allocate", "check", "gain", "learn", "chain", "verify")


class CliError(ValueError):
    """User input error; rendered as a diagnostic and exit code 1."""


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

    if not 0 <= agent < profile.n:
        raise CliError(f"agent index {agent} out of range for {profile.n} agents")
    if engine == "grid":
        cert = best_response_gain(mechanism, profile, agent, cfg)
    elif engine == "ep-exact":
        if mechanism.name not in SHARES_MIDDLE:
            raise CliError(f"engine 'ep-exact' takes only the recursive-halving mechanisms "
                           f"{sorted(SHARES_MIDDLE)}; got {mechanism.name!r}")
        cert = ep_cutpoint_best_response(mechanism, profile, agent, cfg)
    else:
        raise CliError(f"unknown engine {engine!r}")
    return {"engine": engine, "certificate": gain_certificate_to_json(cert)}


def do_learn(profile: Profile, agent: int, k: int, eps: Fraction) -> dict:
    from cakecut.queries import RWOracle, approximate_valuation

    if not 0 <= agent < profile.n:
        raise CliError(f"agent index {agent} out of range for {profile.n} agents")
    if k < len(profile[agent].breakpoints):
        raise CliError(f"argument 'k': {k} is below agent {agent}'s breakpoint count "
                       f"{len(profile[agent].breakpoints)}")
    learned = approximate_valuation(RWOracle(profile[agent]), k, eps)
    return {
        "agent": agent,
        "k": learned.k,
        "epsilon": rat_str(learned.epsilon),
        "queries_used": learned.queries_used,
        "valuation": valuation_to_json(learned.valuation),
    }


def do_chain(name: str, mechanism: Optional[Mechanism], n: int, eps1: Fraction,
             eps2: Fraction, deltas: dict[str, Fraction]) -> dict:
    from cakecut.chains import (ChainError, ChainParameters, InfeasibleParameters,
                                discussion_example, prop1_chain, thm1_chain,
                                thm2_chain)

    if name == "discussion":
        _, witness = discussion_example()
        return witness_to_json(witness)
    if mechanism is None:
        raise CliError("--mechanism is required for this chain")
    runner = {"thm1": thm1_chain, "prop1": prop1_chain, "thm2": thm2_chain}[name]
    try:
        witness = runner(mechanism, ChainParameters.of(n, eps1, eps2, **deltas))
    except InfeasibleParameters as exc:
        raise CliError(str(exc)) from None
    except ChainError as exc:
        raise CliError(f"chain found no violation (unexpected): {exc}") from None
    return witness_to_json(witness)


def do_verify(obj: Any) -> tuple[dict, bool]:
    """Re-run the mechanism behind a witness/certificate and compare values
    byte-for-byte with the stored ones.  A report envelope as printed by
    ``chain`` is unwrapped to the witness in its ``output``."""
    if isinstance(obj, dict) and "command" in obj and "output" in obj:
        obj = obj["output"]
    if isinstance(obj, dict) and "chain" in obj:
        checked = witness_from_json(obj)
        certificate = checked.certificate
    elif isinstance(obj, dict) and obj.get("kind") in ("gain", "report"):
        checked = certificate = certificate_from_json(obj, "certificate")
    else:
        raise FormatError("expected a witness or certificate JSON object")
    mechanism = _resolve(checked.mechanism)
    stored, recomputed = _certificate_values(certificate, mechanism)
    verified = checked.verify(mechanism) and stored == recomputed
    return ({"verified": verified, "stored": stored, "recomputed": recomputed},
            verified)


def _resolve(name: str) -> Mechanism:
    if name not in MECHANISMS:
        raise CliError(f"unknown mechanism {name!r}; known: {sorted(MECHANISMS)}")
    return MECHANISMS[name]


def _certificate_values(certificate, mechanism: Mechanism) -> tuple[dict, dict]:
    from cakecut.properties import GainCertificate, evaluate_misreport, report_for

    if isinstance(certificate, GainCertificate):
        fresh = evaluate_misreport(mechanism, certificate.profile,
                                   certificate.agent, certificate.misreport)
        stored = {"truthful_value": rat_str(certificate.truthful_value),
                  "deviated_value": rat_str(certificate.deviated_value),
                  "gain": rat_str(certificate.gain)}
        recomputed = {"truthful_value": rat_str(fresh.truthful_value),
                      "deviated_value": rat_str(fresh.deviated_value),
                      "gain": rat_str(fresh.gain)}
    else:
        fresh = report_for(certificate.profile,
                           mechanism.run(certificate.profile))
        stored = report_to_json(certificate.report)
        recomputed = report_to_json(fresh)
    return stored, recomputed


# ---------------------------------------------------------------------------
# scenario files


@dataclass(frozen=True)
class Scenario:
    version: int
    command: str
    arguments: dict
    profile: Optional[Profile]
    seed: Optional[int]


def parse_scenario(obj: Any, base_dir: str = ".") -> Scenario:
    require_keys(obj, {"version", "command"}, {"arguments", "profile", "seed"},
                 "scenario")
    if obj["version"] != 1:
        raise FormatError(f"scenario.version: unsupported version {obj['version']!r}")
    if obj["command"] not in COMMANDS:
        raise FormatError(f"scenario.command: unknown command {obj['command']!r}")
    profile = None
    if "profile" in obj:
        spec = obj["profile"]
        if isinstance(spec, dict) and set(spec.keys()) == {"file"}:
            profile = load_profile(os.path.join(base_dir, spec["file"]))
        else:
            profile = profile_from_json(spec, "scenario.profile")
    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise FormatError("scenario.seed: expected an integer")
    arguments = obj.get("arguments", {})
    if not isinstance(arguments, dict):
        raise FormatError("scenario.arguments: expected an object")
    return Scenario(1, obj["command"], _normalize_json(arguments), profile, seed)


def _normalize_json(value: Any) -> Any:
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, dict):
        return {k: _normalize_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize_json(v) for v in value]
    return value


def scenario_to_json(scenario: Scenario) -> dict:
    out: dict[str, Any] = {"version": scenario.version, "command": scenario.command}
    if scenario.arguments:
        out["arguments"] = scenario.arguments
    if scenario.profile is not None:
        out["profile"] = profile_to_json(scenario.profile)
    if scenario.seed is not None:
        out["seed"] = scenario.seed
    return out


def run_scenario(path: str) -> tuple[dict, int]:
    """Execute a scenario file; returns (report, exit_code)."""
    scenario = parse_scenario(load_json(path), os.path.dirname(path) or ".")
    args = scenario.arguments
    seed = scenario.seed if scenario.seed is not None else 0
    output, code = _execute(scenario.command, args, scenario.profile, seed, path)
    report = {"command": scenario.command, "inputs": scenario_to_json(scenario),
              "output": output, "exact": True}
    return report, code


def load_profile(path: str) -> Profile:
    return profile_from_json(load_json(path), "profile")


def _need_profile(profile: Optional[Profile]) -> Profile:
    if profile is None:
        raise CliError("this command needs a profile (--profile or scenario field)")
    return profile


def _execute(command: str, args: dict, profile: Optional[Profile], seed: int,
             base_path: str = ".") -> tuple[dict, int]:
    def argument(name: str, kind: type, default: Any, positive: bool = False,
                 optional: bool = False, least: Optional[int] = None) -> Any:
        """The argument `name`, checked against `kind` (None allowed if optional)
        and, if given, the lower bound `least`."""
        value = args.get(name, default)
        if value is None and optional:
            return None
        if kind is Fraction:
            try:
                value = as_rational(value, f"argument {name!r}")
            except FormatError as exc:
                raise CliError(str(exc)) from None
        elif not isinstance(value, kind) or isinstance(value, bool):
            raise CliError(f"argument {name!r}: expected {kind.__name__}, got {value!r}")
        if positive and not value > 0:
            raise CliError(f"argument {name!r}: must be positive, got {value}")
        if least is not None and value < least:
            raise CliError(f"argument {name!r}: must be at least {least}, got {value}")
        return value

    def mechanism() -> Mechanism:
        return _resolve(argument("mechanism", str, ""))

    if command == "allocate":
        return do_allocate(mechanism(), _need_profile(profile)), 0
    if command == "check":
        return do_check(mechanism(), _need_profile(profile)), 0
    if command == "gain":
        from cakecut.properties import SearchConfig

        mech = mechanism()
        cfg = SearchConfig(
            mass_denominator=argument("mass_denominator", int, 4, least=1),
            max_breakpoints=argument("max_breakpoints", int, 2, least=0),
            offset_rounds=argument("rounds", int, 1, least=0),
            max_candidates=argument("max_candidates", int, 64, optional=True, least=0),
            seed=seed)
        return do_gain(mech, _need_profile(profile), argument("agent", int, 0),
                       argument("engine", str, "grid"), cfg), 0
    if command == "learn":
        return do_learn(_need_profile(profile), argument("agent", int, 0),
                        argument("k", int, 1, positive=True),
                        argument("eps", Fraction, "1", positive=True)), 0
    if command == "chain":
        from cakecut.chains import CHAINS

        name = argument("name", str, "")
        if name not in CHAINS:
            raise CliError(f"unknown chain {name!r}; known: {CHAINS}")
        mech = mechanism() if args.get("mechanism") is not None else None
        deltas = {k: as_rational(v, f"delta.{k}")
                  for k, v in argument("deltas", dict, {}).items()}
        out = do_chain(name, mech, argument("n", int, 2),
                       argument("eps1", Fraction, 0), argument("eps2", Fraction, 0),
                       deltas)
        return out, 2
    if command == "verify":
        target = args.get("witness")
        if isinstance(target, str):
            target = load_json(os.path.join(os.path.dirname(base_path) or ".", target))
        out, ok = do_verify(target)
        return out, 0 if ok else 1
    raise CliError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cakecut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile_required=True):
        p.add_argument("--profile", required=profile_required,
                       help="profile JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("allocate", help="run a mechanism on a profile")
    p.add_argument("--mechanism", required=True, choices=sorted(MECHANISMS))
    common(p)

    p = sub.add_parser("check", help="measure properties of a mechanism run")
    p.add_argument("--mechanism", required=True, choices=sorted(MECHANISMS))
    common(p)

    p = sub.add_parser("gain", help="search for a profitable misreport")
    p.add_argument("--mechanism", required=True, choices=sorted(MECHANISMS))
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--engine", choices=("grid", "ep-exact"), default="grid")
    p.add_argument("--rounds", type=int, default=1, help="offset refinement rounds")
    p.add_argument("--mass-denominator", type=int, default=4)
    p.add_argument("--max-breakpoints", type=int, default=2)
    p.add_argument("--max-candidates", type=int, default=64)
    common(p)

    p = sub.add_parser("learn", help="learn a valuation through cut queries")
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--k", type=int, required=True,
                   help="upper bound on the agent's breakpoint count")
    p.add_argument("--eps", required=True, help="approximation target, e.g. 1/5")
    common(p)

    p = sub.add_parser("chain", help="run a counterexample chain")
    p.add_argument("--name")
    p.add_argument("--mechanism", choices=sorted(MECHANISMS))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps1", default="0")
    p.add_argument("--eps2", default="0")
    p.add_argument("--delta", action="append", default=[], metavar="NAME=P/Q",
                   help="override a delta (bare value sets 'delta')")
    p.add_argument("--verify", metavar="WITNESS",
                   help="re-verify a previously emitted witness file")
    common(p, profile_required=False)

    p = sub.add_parser("verify", help="re-verify a witness or certificate file")
    p.add_argument("witness", help="witness JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def _deltas_from_flags(pairs: Sequence[str]) -> dict[str, str]:
    out = {}
    for item in pairs:
        if "=" in item:
            key, _, value = item.partition("=")
        else:
            key, value = "delta", item
        out[key] = value
    return out


def emit_report(report: dict, fmt: str = "json", elapsed_ms: float = 0.0) -> str:
    """Serialize a run report: canonical JSON, or flat text with timing.

    The JSON form is deterministic (sorted keys, lowest-terms rationals) and
    deliberately carries no timing, so identical inputs give identical bytes.
    """
    if fmt == "json":
        return canonical_dumps(report)
    lines: list[str] = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        else:
            lines.append(f"{prefix[:-1]} = {value}")

    walk("", report)
    lines.append(f"elapsed_ms = {elapsed_ms:.1f}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        if ns.command == "run":
            report, code = run_scenario(ns.scenario)
        elif ns.command == "verify" or (ns.command == "chain" and ns.verify):
            witness = ns.witness if ns.command == "verify" else ns.verify
            out, ok = do_verify(load_json(witness))
            report, code = {"command": "verify", "inputs": {"witness": witness},
                            "output": out, "exact": True}, (0 if ok else 1)
        else:
            profile = load_profile(ns.profile) if getattr(ns, "profile", None) else None
            args: dict[str, Any] = {}
            if ns.command in ("allocate", "check", "gain"):
                args["mechanism"] = ns.mechanism
            if ns.command == "gain":
                args.update(agent=ns.agent, engine=ns.engine, rounds=ns.rounds,
                            mass_denominator=ns.mass_denominator,
                            max_breakpoints=ns.max_breakpoints,
                            max_candidates=ns.max_candidates)
            if ns.command == "learn":
                args.update(agent=ns.agent, k=ns.k, eps=ns.eps)
            if ns.command == "chain":
                if not ns.name:
                    raise CliError("chain requires --name (or --verify)")
                args.update(name=ns.name, mechanism=ns.mechanism, n=ns.n,
                            eps1=ns.eps1, eps2=ns.eps2,
                            deltas=_deltas_from_flags(ns.delta))
            inputs = {k: v for k, v in args.items() if v is not None}
            seed = getattr(ns, "seed", 0)
            output, code = _execute(ns.command, inputs, profile, seed)
            report = {"command": ns.command, "inputs": _normalize_json(inputs),
                      "output": output, "exact": True}
            if getattr(ns, "profile", None):
                report["inputs"]["profile"] = ns.profile
    except (CliError, FormatError) as exc:
        print(f"cakecut: error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter() - started) * 1000
    sys.stdout.write(emit_report(report, getattr(ns, "format", "json"), elapsed_ms))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
