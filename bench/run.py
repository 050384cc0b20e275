#!/usr/bin/env python3
"""Benchmark harness for the succession package (standard library only).

Run from the root of a checkout; the package is imported from ``src/``:

    python3 bench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One client runs ops back to back in a closed loop. ``--trace 0`` measures
the end-to-end metrics named in ``BENCHMARK.json`` for ``--seconds``
seconds of op time. Those times are calibrated against a fixed piece of
standard-library rational arithmetic run between ops (see ``Calibrator``),
so they read as times at one reference speed of the host; the uncalibrated
figures are printed on a comment line. ``--trace 1`` runs a fixed number
of input blocks twice, untraced and traced, and reports the per-layer
metrics from the spans (see ``spans.py``) plus the tracing overhead; the
spans are written to ``.bench_out/``. Every op's result is checked outside
the timed region.

``spec.json`` holds each workload's default seed, per-op time limit, tail
percentile and traced block count, the size-bucket edges and the
calibration settings; ``baseline.json`` holds the seed commit's figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when every op passed its check, 1 when any failed, and 2 when the
checkout holds no package source.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
MAX_REPORTED_FAILURES = 5


class OpTimeout(BaseException):
    """Raised inside an op or check that runs past its time limit. A
    BaseException, so handlers in the package cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class Failed:
    reason: str


def _identity(fn):
    return fn


def calibrate() -> float:
    """Seconds taken by a fixed piece of exact rational arithmetic from the
    standard library, the kind of work the engine does."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    return time.perf_counter() - start


class Calibrator:
    """Scales op times to a reference machine speed.

    The host this runs on is shared, and other tenants slow it down by up
    to 2x for tens of seconds at a time; raw wall times then spread by a
    third between runs. So a calibration runs between ops, at least every
    ``every_s`` seconds, and each op time is multiplied by
    ``reference / median(latest calibrations)``: the time the op would
    have taken had the calibration run in ``reference_ms``. The
    calibration does not use the package, so changes to the package show
    in full.
    """

    def __init__(self, reference_ms: float, every_s: float, window: int):
        self.reference = reference_ms / 1e3
        self.every = every_s
        self.window = window
        self.recent: list[float] = []
        self.last = -math.inf
        self.factors: list[float] = []

    def factor(self, force: bool = False) -> float:
        now = time.perf_counter()
        if force or now - self.last >= self.every:
            self.recent = (self.recent + [calibrate()])[-self.window:]
            self.last = time.perf_counter()
        return self.reference / statistics.median(self.recent)

    def before_op(self) -> None:
        self.factors.append(self.factor())

    def after_op(self, seconds: float) -> None:
        # an op longer than the calibration interval gets the mean of the
        # factors on either side of it
        if seconds >= self.every:
            self.factors[-1] = (self.factors[-1] + self.factor(force=True)) / 2

    def take(self) -> list[float]:
        factors, self.factors = self.factors, []
        return factors


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _timed_process(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                   check=True, timeout=120)
    return time.perf_counter() - start


class Session:
    """One workload's run: every op and check under the per-op time limit,
    the whole run under an overall deadline, so a regression into a
    pathological route fails ops instead of hanging the benchmark."""

    def __init__(self, workload, seed, limit: float, deadline_s: float):
        self.workload, self.seed, self.limit = workload, seed, limit
        self.deadline = time.perf_counter() + deadline_s
        self.calibrator = Calibrator(**SPEC["calibration"])
        self.problems: list[str] = []
        self.stopped = ""

    def past_deadline(self) -> bool:
        return time.perf_counter() > self.deadline

    def run_ops(self, ops, call=None, wrap=_identity, tracer=None, calibrate=False):
        """Run ``call(op, wrap)`` for each op; returns per-op latencies in
        seconds and results. An op that raises or runs past the limit
        yields a ``Failed``; ops left when the deadline passes are not run."""
        call = call or self.workload.run
        calibrator = self.calibrator if calibrate else None
        latencies, results = [], []
        clock = time.perf_counter
        for op in ops:
            if self.past_deadline():
                break
            if tracer is not None:
                tracer.op += 1
            if calibrator is not None:
                calibrator.before_op()
            start = clock()
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            try:
                result = call(op, wrap)
            except OpTimeout:
                result = Failed(f"ran past the {self.limit} s limit")
            except Exception as exc:  # a failing op is counted, the run goes on
                result = Failed(f"raised {type(exc).__name__}: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            latencies.append(clock() - start)
            results.append(result)
            if calibrator is not None:
                calibrator.after_op(latencies[-1])
        return latencies, results

    def check(self, ops, results) -> None:
        """Check every result, each check under the per-op limit; records
        one problem per failed op."""
        for op, result in zip(ops, results):
            if isinstance(result, Failed):
                problem = result.reason
            elif self.past_deadline():
                problem = "not checked before the run's deadline"
            else:
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                try:
                    problem = self.workload.check(op, result)
                except OpTimeout:
                    problem = f"check ran past the {self.limit} s limit"
                except Exception as exc:  # a malformed result fails its op
                    problem = f"check raised {type(exc).__name__}: {exc}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            if problem:
                self.problems.append(f"{op.kind} {op.params}: {problem}"[:400])

    def setup(self):
        """Generate the first input blocks, import the package in a fresh
        interpreter (writing the bytecode cache the first time) and warm up;
        repeated, and the median calibrated time reported."""
        times = []
        for _ in range(SPEC["setup_reps"]):
            before = self.calibrator.factor(force=True)
            start = time.perf_counter()
            blocks = [self.workload.block(self.seed, i) for i in range(SPEC["setup_blocks"])]
            _timed_process("import succession.cli")
            self.run_ops(self.workload.warmup())
            elapsed = time.perf_counter() - start
            times.append(elapsed * (before + self.calibrator.factor(force=True)) / 2)
        return statistics.median(times), blocks

    def measure(self, seconds, blocks):
        """Closed loop for ``seconds`` seconds of op time, whole blocks at a
        time; input generation, calibration and checks stay outside the
        timed region. Returns raw and calibrated per-op latencies."""
        raw, scaled, index = [], [], 0
        gc.collect()
        while sum(raw) < seconds and not self.past_deadline():
            ops = blocks[index] if index < len(blocks) else self.workload.block(self.seed, index)
            latencies, results = self.run_ops(ops, calibrate=True)
            raw += latencies
            scaled += [t * f for t, f in zip(latencies, self.calibrator.take())]
            self.check(ops, results)
            index += 1
        if sum(raw) < seconds:
            self.stopped = f"the run reached its deadline after {len(raw)} ops"
        return raw, scaled

    def measure_traced(self, blocks, tracer):
        """Each block runs untraced and traced, alternating which goes
        first; traced results are checked and must equal the untraced
        ones. Returns the traced ops and results and the op time of the
        traced and the untraced passes. These times are not calibrated:
        tracing itself would slow the calibration and hide part of its
        cost."""
        call = getattr(self.workload, "replay", self.workload.run)
        times = {False: 0.0, True: 0.0}
        all_ops, all_results = [], []
        for index in range(blocks):
            if self.past_deadline():
                self.stopped = f"the run reached its deadline after {index} blocks"
                break
            ops = self.workload.block(self.seed, index)
            results = {}
            for traced in (False, True) if index % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    latencies, results[traced] = self.run_ops(
                        ops, call, tracer.rule if traced else _identity,
                        tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                times[traced] += sum(latencies)
            ops = ops[:len(results[True])]
            self.check(ops, results[True])
            self.problems += [
                f"{op.kind} {op.params}: traced result differs from untraced"[:400]
                for op, a, b in zip(ops, results[False], results[True]) if a != b]
            all_ops += ops
            all_results += results[True]
        return all_ops, all_results, times[True], times[False]


def startup_probe(reps: int = 5) -> dict[str, float]:
    interpreter = statistics.median(_timed_process("pass") for _ in range(reps))
    imported = statistics.median(_timed_process("import succession.cli") for _ in range(reps))
    return {"cli.interpreter_ms": interpreter * 1e3,
            "cli.import_ms": (imported - interpreter) * 1e3}


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_one(args, contract) -> int:
    sys.path.insert(0, str(SRC))
    import succession
    from succession import binary, cli, exact, lab, simplex

    if not Path(succession.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported succession from {succession.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    settings = SPEC["workloads"][args.workload]
    seed = settings["seed"] if args.seed is None else args.seed
    limit = settings["op_limit_s"]
    workload = {
        "query-mix": workloads.QueryMix,
        "lab-sweep": workloads.LabSweep,
        "cli-oneshot": lambda: workloads.CliOneshot(ROOT, _child_env(), limit),
    }[args.workload]()
    signal.signal(signal.SIGALRM, _on_alarm)
    session = Session(workload, seed, limit, SPEC["run_deadline_s"])
    setup_s, blocks = session.setup()
    problems = session.problems

    if args.trace:
        modules = {"succession": succession, "exact": exact, "binary": binary,
                   "simplex": simplex, "lab": lab, "cli": cli}
        tracer = spans.Tracer(modules)
        ops, results, traced_s, untraced_s = session.measure_traced(
            settings["trace_blocks"], tracer)
        values = {m["name"]: 0 for m in contract["per_layer"]}
        values.update(tracer.metrics(
            {name: b["edges"] for name, b in SPEC["bucket_edges"].items()}))
        values.update(workload.properties(ops, results))
        if args.workload == "cli-oneshot":
            values.update(startup_probe())
        values["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
        values["trace.overhead_share"] = traced_s / untraced_s - 1 if untraced_s else 0
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{seed}.jsonl")
        declared = contract["per_layer"]
        attempted = 2 * len(ops)
    else:
        raw, latencies = session.measure(args.seconds, blocks)
        if not latencies:
            print(f"error: {session.stopped}", file=sys.stderr)
            return 1
        percentile = settings["tail_percentile"]
        summary = {}
        for label, times in (("raw", raw), ("calibrated", latencies)):
            times.sort()
            tail, beyond = nearest_rank(times, percentile)
            summary[label] = (len(times) / sum(times), statistics.median(times) * 1e3, tail * 1e3)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
        attempted = len(latencies)
        throughput, p50, tail = summary["calibrated"]
        values = {
            "throughput_ops_s": throughput,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "success_rate": 1 - len(problems) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        declared = contract["end_to_end"]
        print(f"# {args.workload} seed={seed}: {attempted} ops in {sum(raw):.3f} s of op time; "
              f"tail = p{percentile}, {beyond} samples beyond it; "
              f"error_rate = {len(problems) / attempted} ({len(problems)}/{attempted}); "
              "uncalibrated: throughput {:.6g} 1/s, p50 {:.6g} ms, tail {:.6g} ms".format(
                  *summary["raw"]))

    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for problem in problems[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {problem}", file=sys.stderr)
    if session.stopped:
        print(f"error: {session.stopped}", file=sys.stderr)
    correct = not problems and not session.stopped
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one row per workload."""
    rows, status = [], 0
    for name in SPEC["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode or 2
        status = max(status, proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, result in rows:
        error_rate = result["failed"] / result["attempted"]
        cells = [f"{metric}={m['value']:.6g} {m['unit']}"
                 for metric, m in result["metrics"].items()]
        print(f"{name:12} error_rate={error_rate:.6g} ratio  " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "workloads": {name: r for name, r in rows},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's seed in spec.json)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="op time to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "succession" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'succession'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
