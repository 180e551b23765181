#!/usr/bin/env python3
"""Run one workload of the cakecut benchmark and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

With ``--trace 0`` the workload runs in a closed loop with one client for
``--seconds`` seconds and the end-to-end metrics are printed.  With
``--trace 1`` a fixed, seed-determined set of operations runs once under
the tracer (per-layer counts repeat exactly at a fixed seed) and once
untraced (for the tracing overhead); the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every operation passed its checks.  The program is imported from
``src/`` next to this directory; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7          # fresh processes timed for setup_s; the median is reported
WORKLOAD_NAMES = ("sweep", "gain", "wide", "cli")

E2E_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Put ``src/`` first on the path and import the workload definitions."""
    if not os.path.isfile(os.path.join(SRC, "cakecut", "__init__.py")):
        sys.exit(f"bench: {SRC}/cakecut not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import cakecut
    if not os.path.abspath(cakecut.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported cakecut from {cakecut.__file__}, not from {SRC}")
    import workloads
    return workloads


def setup(workloads, name: str, seed: int):
    """Imports are done; generate the inputs and warm up.  Ends at the first timed op."""
    workload = workloads.WORKLOADS[name](seed, ROOT)
    workload.warm_up()
    return workload


def time_setup(name: str, seed: int) -> speed.Probe:
    """Wall time from spawning a fresh interpreter until its setup is done,
    each sample bracketed by spawn probes."""
    probe = speed.spawn(every=1)
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdin.close()          # lets the child clean up and exit
            proc.stdout.read()
            code, _ = speed.wait_exit(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        if ready.strip() != b"ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        probe.add(elapsed)
    return probe


class Gate:
    """Per-operation correctness: the workload's checks plus golden digests."""

    def __init__(self, workloads, workload, digests: bool):
        self.workloads = workloads
        self.workload = workload
        self.golden = (workloads.load_golden(workload.name)
                       if workload.seed == workloads.GOLDEN_SEED else None)
        self.digests = digests or self.golden is not None
        self.failures: list[str] = []
        self.outputs: list[str] = []

    def passed(self, i: int, spec, out) -> bool:
        try:
            self.workload.check(spec, out)
            if self.digests:
                got = self.workload.canonical(spec, out)
                self.outputs.append(got)
                key = self.workload.golden_index(i)
                if self.golden is not None and key < len(self.golden):
                    self.workloads.require(got == self.golden[key],
                                           f"op {i}: canonical output differs from golden.json")
        except Exception as exc:  # any check error marks the operation failed
            self.fail(i, exc)
            return False
        return True

    def fail(self, i: int, exc: BaseException) -> None:
        if len(self.failures) < 5:
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.failures.append(f"op {i}: {detail}")


def peak_rss_mb(child_kib: int = 0) -> float:
    kib = child_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024


def latency_stats(latencies: list[float]) -> tuple[float, float, float]:
    """(ops per second, p50 ms, p90 ms) of per-operation seconds."""
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return (len(latencies) / sum(latencies), statistics.median(latencies) * 1000,
            p90 * 1000)


def measure(workloads, name: str, seed: int, seconds: float) -> dict:
    setup_probe = time_setup(name, seed)
    workload = setup(workloads, name, seed)
    gate = Gate(workloads, workload, digests=False)
    probe = speed.spawn(every=3) if name == "cli" else speed.compute()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            i = attempted
            spec = workload.spec(i)
            attempted += 1
            error = None
            started = time.perf_counter()
            try:
                out = workload.run(spec)
            except Exception as exc:  # a crashing operation is a failed one
                error = exc
            probe.add(time.perf_counter() - started)
            if error is not None:
                gate.fail(i, error)
                failed += 1
            elif not gate.passed(i, spec, out):
                failed += 1
        probe.flush()
        readme = workloads.readme_roundtrip_failed(ROOT) if name == "cli" else None
    finally:
        workload.close()

    latencies = probe.scaled
    throughput, p50, p90 = latency_stats(latencies)
    metrics = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setup_probe.scaled),
        "peak_rss_mb": peak_rss_mb(getattr(workload, "peak_rss_kib", 0)),
    }
    raw_throughput, raw_p50, raw_p90 = latency_stats(probe.raw)
    print(f"# workload={name} seed={seed} seconds={seconds} closed loop, 1 client")
    print(f"# samples={len(latencies)} beyond_p90={sum(x * 1000 > p90 for x in latencies)} "
          f"failed_ratio={failed / attempted:.6f}")
    print(f"# raw wall clock: throughput_ops_s={raw_throughput:.3f} "
          f"latency_p50_ms={raw_p50:.3f} latency_p90_ms={raw_p90:.3f} "
          f"setup_s={statistics.median(setup_probe.raw):.4f}")
    if readme is not None:
        print(f"# cli.readme_roundtrip_failed={readme} (known defect: chain prints an envelope)")
    return result(metrics, E2E_UNITS, attempted, failed, gate)


def traced(workloads, name: str, seed: int) -> dict:
    from tracer import Tracer

    workload = setup(workloads, name, seed)
    gate = Gate(workloads, workload, digests=True)
    run_op = workload.run_inprocess if name == "cli" else workload.run
    n_ops = workload.trace_ops
    failed = 0
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(n_ops):
            spec = workload.spec(i)
            frame = tracer.begin_op(i)
            try:
                out = run_op(spec)
            except Exception as exc:  # a crashing operation is a failed one
                tracer.end_op(frame)
                gate.fail(i, exc)
                failed += 1
                continue
            tracer.end_op(frame)
            if not gate.passed(i, spec, out):
                failed += 1
    finally:
        tracer.uninstall()
    traced_digests = list(gate.outputs)

    untraced_s = []
    gate.outputs.clear()
    try:
        for i in range(n_ops):
            spec = workload.spec(i)
            started = time.perf_counter()
            try:
                out = run_op(spec)
            except Exception as exc:  # a crashing operation is a failed one
                gate.fail(i, exc)
                failed += 1
                continue
            finally:
                untraced_s.append(time.perf_counter() - started)
            if not gate.passed(i, spec, out):
                failed += 1
        if gate.outputs != traced_digests:
            gate.fail(-1, AssertionError("traced and untraced outputs differ"))
            failed += 1
        attempted = 2 * n_ops
        startup_ms = 0.0
        if name == "cli":
            # the same commands as subprocesses: start-up is what main() does not see
            gaps = []
            for i, seconds in enumerate(untraced_s):
                spec = workload.spec(i)
                out = workload.run(spec)
                gaps.append((workload.last_wall - seconds) * 1000)
                if not gate.passed(i, spec, out):
                    failed += 1
            attempted += n_ops
            startup_ms = statistics.median(gaps)
        readme = workloads.readme_roundtrip_failed(ROOT)
    finally:
        workload.close()

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    tracer.write_spans(spans_path)

    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    traced_total = sum(s.values())
    untraced_total = sum(untraced_s)
    metrics = {
        "cake.value_between.calls": (c["cake.value_between"], "count"),
        "cake.value_between.self_s": (s["cake.value_between"], "s"),
        "cake.cut_point.calls": (c["cake.cut_point"], "count"),
        "cake.cut_point.self_s": (s["cake.cut_point"], "s"),
        "cake.density_at.calls": (c["cake.density_at"], "count"),
        "cake.density_at.self_s": (s["cake.density_at"], "s"),
        "cake.piece_ops.calls": (c["cake.piece_ops"], "count"),
        "cake.piece_ops.self_s": (s["cake.piece_ops"], "s"),
        "cake.validate_allocation.calls": (c["cake.validate_allocation"], "count"),
        "cake.validate_allocation.self_s": (s["cake.validate_allocation"], "s"),
        "cake.fraction_ops": (k["fraction_ops"], "count"),
        "cake.max_denominator_bits": (k["max_denominator_bits"], "bits"),
        "mechanisms.runs": (c["mechanisms"], "count"),
        "mechanisms.self_s": (s["mechanisms"], "s"),
        "mechanisms.node_cuts": (k["node_cuts"], "count"),
        "properties.report_for.calls": (c["properties.report_for"], "count"),
        "properties.report_for.self_s": (s["properties.report_for"], "s"),
        "properties.search.calls": (c["properties.search"], "count"),
        "properties.search.self_s": (s["properties.search"], "s"),
        "properties.search.mech_runs_per_search":
            (ratio(k["search_mech_runs"], k["search_top"]), "runs/search"),
        "properties.search.unique_cut_ratio":
            (ratio(k["search_unique_cuts"], k["search_cut_calls"]), "ratio"),
        "queries.oracle_queries": (k["oracle_queries"], "count"),
        "queries.learner.calls": (c["queries.learner"], "count"),
        "queries.learner.self_s": (s["queries.learner"], "s"),
        "chains.runs": (c["chains"], "count"),
        "chains.mech_runs": (k["chain_mech_runs"], "count"),
        "chains.self_s": (s["chains"], "s"),
        "io.bytes_out": (k["bytes_out"], "bytes"),
        "io.dumps_s": (s["io.dumps"], "s"),
        "io.parse_s": (s["io.parse"], "s"),
        "cli.main_s": (s["cli.main"], "s"),
        "cli.startup_ms": (startup_ms, "ms"),
        "cli.readme_roundtrip_failed": (readme, "count"),
        "bench.residual_s": (s["bench.op"], "s"),
        "bench.traced_op_s": (traced_total, "s"),
        "bench.untraced_op_s": (untraced_total, "s"),
        "bench.tracing_overhead_pct": ((traced_total / untraced_total - 1) * 100, "%"),
    }
    counters = {key: value for key, (value, unit) in metrics.items()
                if unit in ("count", "bits", "bytes", "ratio", "runs/search")}
    print(f"# workload={name} seed={seed} traced ops={n_ops} spans={len(tracer.spans)} "
          f"-> {os.path.relpath(spans_path, ROOT)}")
    op_time = sum(end - start for span, start, end, _, _ in tracer.spans if span == "bench.op")
    print(f"# layer self times + residual = {traced_total:.6f} s; "
          f"traced op time = {op_time:.6f} s")
    print("# counters " + json.dumps(counters, sort_keys=True))
    print("# digest " + workloads.digest(*traced_digests))
    values = {key: value for key, (value, _) in metrics.items()}
    units = {key: unit for key, (_, unit) in metrics.items()}
    return result(values, units, attempted, failed, gate)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def result(values: dict, units: dict, attempted: int, failed: int, gate) -> dict:
    for key, value in values.items():
        print(f"{key} = {value} {units[key]}")
    for line in gate.failures:
        print(f"# FAILED {line}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in values.items()}}


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process; one table, non-zero on any failure."""
    ok = True
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            res = {}
        ok = ok and proc.returncode == 0 and res.get("correct", False)
        rows.append((name, proc.returncode, res))
    for name, code, res in rows:
        print(f"{name}: exit {code} correct={res.get('correct')} "
              f"attempted={res.get('attempted')} failed={res.get('failed')}")
        for key, metric in res.get("metrics", {}).items():
            print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_program()
    # One CPU for this process and every process it starts, so the speed
    # probes see the contention the measured work sees.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args.seed, int(args.seconds), args.trace)
    if args.setup_probe:
        workload = setup(workloads, args.workload, args.seed)
        print("ready", flush=True)
        # Block until the parent has read the time: on the shared CPU it
        # would otherwise wait for this process's clean-up and exit too.
        sys.stdin.read()
        workload.close()
        return 0
    if args.trace:
        res = traced(workloads, args.workload, args.seed)
    else:
        res = measure(workloads, args.workload, args.seed, args.seconds)
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
