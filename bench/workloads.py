"""The four benchmark workloads: seeded inputs, one operation, its checks.

Each workload turns ``(seed, op index)`` into plain input data with its own
generator, so a change to ``cakecut`` (including ``cakecut.sampling``) can
never change what is measured.  One operation builds fresh program objects
from that data and calls the program; nothing is shared between operations,
so a memo the program keeps on its objects cannot carry over from one
operation to the next.

Every operation is followed by a gate of self-checks that hold at any seed
(allocation invariants, the paper's proportionality and gain bounds,
certificate verification, expected CLI exit codes, byte-identical repeated
CLI output).  At ``GOLDEN_SEED`` the canonical JSON of every output is also
hashed and compared with ``golden.json``, taken at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import io as _stdio
import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import speed
from cakecut import cake, cli, io, mechanisms, properties, queries

GOLDEN_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# the acceptance sweeps' search budget (tests/test_acceptance.py SWEEP_CFG)
SWEEP_CFG = properties.SearchConfig(mass_denominator=3, max_breakpoints=1,
                                    offset_rounds=0, max_candidates=24)
SWEEP_MECHANISMS = ("even-paz", "modified-ep", "equal-split", "ep-exchange",
                    "modified-ep-exchange")
WIDE_MECHANISMS = ("equal-split", "ep-exchange", "modified-ep-exchange")
PROPORTIONAL = {"even-paz", "modified-ep", "ep-exchange", "modified-ep-exchange"}
LIFT_K, LIFT_EPS = 2, Fraction(1, 5)


class GateError(AssertionError):
    """An output failed a correctness check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def prop4_bound(n: int) -> Fraction:
    """Upper bound on an even-paz manipulation gain (paper, Prop. 4)."""
    if n in (2, 4):
        return Fraction(1, 2)
    if n in (3, 5):
        return Fraction(2, 3)
    return 1 - Fraction(2, n)


def thm3_bound(n: int) -> Fraction:
    """Upper bound on a modified-ep manipulation gain (paper, Thm. 3)."""
    bound = 1 - Fraction(3, 2 * n)
    if n % 2 == 1:
        bound += Fraction(1, 2 * n * n)
    return bound


def digest(*chunks: str) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# input generation: plain data, never program objects


def random_agent(rng: Random, m: int, denom: int) -> tuple:
    """(breakpoints, densities) of a unit-mass step function with up to m
    breakpoints on a 1/denom grid and integer weights 0..4."""
    points = sorted({Fraction(rng.randrange(1, denom), denom) for _ in range(m)})
    weights = [rng.randrange(0, 5) for _ in range(len(points) + 1)]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    return unit_mass(points, weights)


def unit_mass(points: list, weights: list) -> tuple:
    bounds = [Fraction(0), *points, Fraction(1)]
    total = sum(w * (b - a) for a, b, w in zip(bounds, bounds[1:], weights))
    return tuple(points), tuple(Fraction(w) / total for w in weights)


def random_agents(rng: Random, n: int, max_breakpoints: int, denom: int) -> tuple:
    """n agents whose breakpoint counts run through 0..max_breakpoints from a
    random start: each agent's count is uniform, as in the acceptance sweeps,
    but every profile of one size carries about the same total, so the
    figures of runs at different seeds do not differ by input size alone."""
    start = rng.randrange(max_breakpoints + 1)
    return tuple(random_agent(rng, (start + j) % (max_breakpoints + 1), denom)
                 for j in range(n))


def fragmented_agents(rng: Random, n: int, max_breakpoints: int, denom: int) -> tuple:
    """n agents whose breakpoint counts rise quadratically to max_breakpoints
    (most agents simple, a few fragmented), no breakpoint shared by two
    agents, and a fifth (rounded down) of each agent's segments at zero
    density.

    The checkers' cost grows with the square of the pieces an allocation
    has, which these properties nearly fix for each n; left random, they
    made one equal-split operation vary by 2x at one n.
    """
    counts = [max_breakpoints * (j + 1) ** 2 // n ** 2 for j in range(n)]
    rng.shuffle(counts)
    pool = rng.sample(range(1, denom), sum(counts))
    agents = []
    for m in counts:
        points = sorted(Fraction(p, denom) for p in pool[:m])
        del pool[:m]
        zeros = (m + 1) // 5
        # non-adjacent zero segments, and no two adjacent segments of equal
        # weight, so no breakpoint merges away
        at_zero = {p + k for k, p in enumerate(sorted(rng.sample(range(m + 2 - zeros), zeros)))}
        weights = []
        for k in range(m + 1):
            weights.append(0 if k in at_zero else
                           rng.choice([w for w in (1, 2, 3, 4) if not weights or w != weights[-1]]))
        agents.append(unit_mass(points, weights))
    return tuple(agents)


def build_profile(agents: tuple) -> cake.Profile:
    return cake.Profile.of(
        cake.PiecewiseConstantValuation.of(points, dens) for points, dens in agents)


def op_rng(seed, workload: str, i: int) -> Random:
    return Random(f"{seed}/{workload}/{i}")


# Agent counts in an order that alternates small and large, so a run that
# stops part-way through a cycle still measures a balanced mix.
SMALL_N = (2, 8, 5, 3, 7, 4, 6)
WIDE_N = (8, 12, 10, 9, 11)


# ---------------------------------------------------------------------------
# in-process workloads


class Workload:
    """One workload at one seed: ``spec(i)`` -> ``run(spec)`` -> ``check``."""

    name = ""
    trace_ops = 0          # fixed operation count of a traced run
    warm_ups = 1

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def spec(self, i: int, warm: bool = False):
        """Inputs of operation i; warm-up inputs are the same at every seed."""
        raise NotImplementedError

    def rng(self, i: int, warm: bool) -> Random:
        return op_rng("warm" if warm else self.seed, self.name, i)

    def run(self, spec):
        raise NotImplementedError

    def check(self, spec, out) -> None:
        raise NotImplementedError

    def canonical(self, spec, out) -> str:
        """Digest of the operation's canonical JSON outputs."""
        raise NotImplementedError

    def warm_up(self) -> None:
        for i in range(self.warm_ups):
            spec = self.spec(i, warm=True)
            self.check(spec, self.run(spec))

    def golden_index(self, i: int) -> int:
        """Position of operation i's digest in golden.json."""
        return i

    def close(self) -> None:
        pass


def _allocation_json(alloc, profile) -> str:
    return io.canonical_dumps(io.allocation_to_json(alloc, profile))


class Sweep(Workload):
    """The acceptance-sweep shape: every mechanism, both checkers, one lift."""

    name = "sweep"
    trace_ops = 140

    def spec(self, i, warm=False):
        return random_agents(self.rng(i, warm), SMALL_N[i % 7], 2, 12)

    def run(self, spec):
        profile = build_profile(spec)
        results = []
        for name in SWEEP_MECHANISMS:
            alloc = mechanisms.MECHANISMS[name].run(profile)
            problems = cake.validate_allocation(alloc, profile)
            report = properties.report_for(profile, alloc)
            results.append((name, alloc, problems, report))
        lifted = queries.lift_direct_to_rw(
            mechanisms.MECHANISMS["modified-ep"], LIFT_K, LIFT_EPS).run_profile(profile)
        return profile, results, lifted

    def check(self, spec, out):
        profile, results, lifted = out
        n = profile.n
        allocs = {}
        for name, alloc, problems, report in results:
            require(problems == [], f"{name}: invalid allocation {problems}")
            if name in PROPORTIONAL:
                require(report.proportionality_deficit == 0, f"{name}: not proportional")
            allocs[name] = alloc
        require(results[0][3].contiguous, "even-paz: not contiguous")
        require(results[2][3].wasted_measure == 0, "equal-split: wasteful")
        for base, wrapped in (("even-paz", "ep-exchange"),
                              ("modified-ep", "modified-ep-exchange")):
            for i, v in enumerate(profile):
                require(v.value(allocs[wrapped].pieces[i]) >= v.value(allocs[base].pieces[i]),
                        f"{wrapped}: agent {i} lost value in the exchange")
        budget = queries.query_budget(LIFT_K, LIFT_EPS)
        require(lifted.queries <= n * budget, "lift: query budget exceeded")
        for i, v in enumerate(profile):
            require(v.value(lifted.allocation.pieces[i]) >= Fraction(1, n) - LIFT_EPS / 2,
                    f"lift: agent {i} below 1/n - eps/2")

    def canonical(self, spec, out):
        profile, results, lifted = out
        chunks = [_allocation_json(alloc, profile)
                  + io.canonical_dumps(io.report_to_json(report))
                  for _, alloc, _, report in results]
        chunks.append(_allocation_json(lifted.allocation, profile))
        chunks.append(io.canonical_dumps(io.profile_to_json(lifted.learned)))
        chunks.append(str(lifted.queries))
        return digest(*chunks)


class Gain(Workload):
    """The manipulation-search shape of acceptance criteria 3 and 5."""

    name = "gain"
    trace_ops = 70

    def spec(self, i, warm=False):
        n = SMALL_N[i % 7]
        return random_agents(self.rng(i, warm), n, 2, 12), i % n

    def run(self, spec):
        agents, agent = spec
        profile = build_profile(agents)
        ep = mechanisms.MECHANISMS["even-paz"]
        grid = properties.best_response_gain(ep, profile, agent, SWEEP_CFG)
        exact = properties.ep_cutpoint_best_response(
            ep, profile, agent, SWEEP_CFG, grid_certificate=grid)
        certs = [grid, exact]
        if profile.n <= 6:
            certs.append(properties.ep_cutpoint_best_response(
                mechanisms.MECHANISMS["modified-ep"], profile, agent, SWEEP_CFG))
        return profile, certs, [c.verify() for c in certs]

    def check(self, spec, out):
        profile, certs, verified = out
        n = profile.n
        require(all(verified), "a gain certificate does not verify")
        grid, exact = certs[:2]
        require(grid.gain >= 0, "grid engine: negative gain")
        require(grid.gain <= prop4_bound(n), "grid engine: even-paz gain above Prop. 4 bound")
        require(exact.gain <= prop4_bound(n), "ep-exact: even-paz gain above Prop. 4 bound")
        require(exact.gain >= grid.gain, "ep-exact: below the grid engine")
        if n <= 6:
            require(0 <= certs[2].gain <= thm3_bound(n),
                    "ep-exact: modified-ep gain above Thm. 3 bound")

    def canonical(self, spec, out):
        return digest(*(io.canonical_dumps(io.gain_certificate_to_json(c))
                        for c in out[1]))


class Wide(Workload):
    """Many agents with fragmented valuations: checker and piece-algebra cost."""

    name = "wide"
    trace_ops = 30
    warm_ups = 3

    def spec(self, i, warm=False):
        n = 3 if warm else WIDE_N[(i // 3) % 5]
        return fragmented_agents(self.rng(i, warm), n, 12, 96), WIDE_MECHANISMS[i % 3]

    def run(self, spec):
        agents, name = spec
        profile = build_profile(agents)
        alloc = mechanisms.MECHANISMS[name].run(profile)
        return (profile, name, alloc, cake.validate_allocation(alloc, profile),
                properties.report_for(profile, alloc))

    def check(self, spec, out):
        profile, name, alloc, problems, report = out
        require(problems == [], f"{name}: invalid allocation {problems}")
        if name in PROPORTIONAL:
            require(report.proportionality_deficit == 0, f"{name}: not proportional")
        else:
            require(report.wasted_measure == 0, f"{name}: wasteful")

    def canonical(self, spec, out):
        profile, _, alloc, _, report = out
        return digest(_allocation_json(alloc, profile),
                      io.canonical_dumps(io.report_to_json(report)))


# ---------------------------------------------------------------------------
# the CLI workload


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple
    exit_code: int


CLI_MIX = (
    Command("allocate", ("allocate", "--mechanism", "even-paz", "--profile", "profile.json"), 0),
    Command("check", ("check", "--mechanism", "modified-ep", "--profile", "profile.json"), 0),
    Command("gain", ("gain", "--mechanism", "even-paz", "--engine", "ep-exact",
                     "--agent", "1", "--profile", "profile.json"), 0),
    # the slowest command twice, so p90 falls inside its cluster of samples
    # rather than on the edge between two clusters
    Command("gain-2", ("gain", "--mechanism", "even-paz", "--engine", "ep-exact",
                       "--agent", "2", "--profile", "profile.json"), 0),
    Command("learn", ("learn", "--profile", "profile.json", "--agent", "0",
                      "--k", "2", "--eps", "1/5"), 0),
    Command("chain-thm1", ("chain", "--name", "thm1", "--mechanism", "equal-split",
                           "--n", "3"), 2),
    Command("chain-prop1", ("chain", "--name", "prop1", "--mechanism", "even-paz"), 2),
    Command("chain-thm2", ("chain", "--name", "thm2", "--mechanism", "even-paz",
                           "--n", "3"), 2),
    Command("chain-discussion", ("chain", "--name", "discussion"), 2),
    Command("verify", ("verify", "witness.json"), 0),
    Command("run", ("run", "scenario.json"), 0),
)
CLI_AGENTS = 4
THM1_CHAIN = next(c for c in CLI_MIX if c.key == "chain-thm1")


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli_subprocess(argv, cwd: str, env: dict):
    """Run ``python -m cakecut.cli argv`` in cwd.

    Returns (exit code, stdout bytes, wall seconds, child max RSS in KiB).
    """
    out_path = os.path.join(cwd, ".stdout")
    with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cakecut.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        code, max_rss = speed.wait_exit(proc)
        wall = time.perf_counter() - started
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return code, stdout, wall, max_rss


class Cli(Workload):
    """One ``python -m cakecut.cli`` subprocess per operation, a fixed mix."""

    name = "cli"
    trace_ops = 3 * len(CLI_MIX)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = cli_env(root)
        self.work = os.path.join(root, ".bench_out", f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        rng = op_rng(seed, "cli", 0)
        self.profile_agents = random_agents(rng, CLI_AGENTS, 2, 12)
        profile = build_profile(self.profile_agents)
        self._write("profile.json", io.canonical_dumps(io.profile_to_json(profile)))
        self._write("scenario.json", io.canonical_dumps({
            "version": 1, "command": "check", "arguments": {"mechanism": "modified-ep"},
            "profile": {"file": "profile.json"}}))
        code, stdout = self._inprocess(THM1_CHAIN.argv)
        require(code == 2, f"setup: thm1 chain exited {code}")
        self._write("witness.json",
                    io.canonical_dumps(json.loads(stdout)["output"]))
        self.first_output: dict[str, bytes] = {}
        self.peak_rss_kib = 0
        self.last_wall = 0.0

    def _write(self, name: str, text: str) -> None:
        with open(os.path.join(self.work, name), "w") as fh:
            fh.write(text)

    def _inprocess(self, argv) -> tuple[int, bytes]:
        """``cakecut.cli.main(argv)`` in this process and the work directory."""
        out, err = _stdio.StringIO(), _stdio.StringIO()
        here = os.getcwd()
        os.chdir(self.work)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(argv))
        finally:
            os.chdir(here)
        return code, out.getvalue().encode()

    def spec(self, i, warm=False):
        return CLI_MIX[i % len(CLI_MIX)]

    def golden_index(self, i):
        return i % len(CLI_MIX)

    def run(self, spec):
        code, stdout, self.last_wall, rss = run_cli_subprocess(spec.argv, self.work, self.env)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code, stdout

    def run_inprocess(self, spec):
        return self._inprocess(spec.argv)

    def warm_up(self):
        self.check(CLI_MIX[0], self.run(CLI_MIX[0]))

    def check(self, spec, out):
        code, stdout = out
        require(code == spec.exit_code, f"{spec.key}: exit code {code}, expected {spec.exit_code}")
        # a command's first output gets the full checks; repeats must match it
        first = self.first_output.setdefault(spec.key, stdout)
        if first is not stdout:
            require(stdout == first, f"{spec.key}: output differs from an earlier identical run")
            return
        output = json.loads(stdout)["output"]
        n = CLI_AGENTS
        if spec.key == "allocate":
            require(all(Fraction(v) >= Fraction(1, n) for v in output["allocation"]["values"]),
                    "allocate: even-paz not proportional")
        elif spec.key in ("check", "run"):
            require(output["report"]["proportionality_deficit"] == "0",
                    f"{spec.key}: not proportional")
        elif spec.key.startswith("gain"):
            gain = Fraction(output["certificate"]["gain"])
            require(0 <= gain <= prop4_bound(n), "gain: outside [0, Prop. 4 bound]")
            cert = io.certificate_from_json(output["certificate"], "certificate")
            require(cert.verify(), "gain: certificate does not verify")
        elif spec.key == "learn":
            require(output["queries_used"] == queries.query_budget(2, Fraction(1, 5)),
                    "learn: query count is not floor(2k/eps)")
        elif spec.key.startswith("chain"):
            require(io.witness_from_json(output).verify(), f"{spec.key}: witness does not verify")
        elif spec.key == "verify":
            require(output["verified"] is True, "verify: bare witness did not verify")

    def canonical(self, spec, out):
        return digest(out[1].decode())

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def readme_roundtrip_failed(root: str) -> int:
    """The README's ``cakecut chain ... > w.json; cakecut verify w.json``.

    Known defect at the commit that introduced the benchmark: ``chain``
    prints a report envelope, which ``verify`` rejects.  Reported as a count,
    never as a failed operation.
    """
    work = os.path.join(root, ".bench_out", f"readme-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = cli_env(root)
    try:
        code, stdout, _, _ = run_cli_subprocess(THM1_CHAIN.argv, work, env)
        require(code == 2, f"readme probe: chain exited {code}")
        with open(os.path.join(work, "w.json"), "wb") as fh:
            fh.write(stdout)
        code, _, _, _ = run_cli_subprocess(("verify", "w.json"), work, env)
        return int(code != 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Gain, Wide, Cli)}


def load_golden(workload: str):
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[workload]
