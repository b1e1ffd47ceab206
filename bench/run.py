"""Benchmark of ``ppt``: closed-loop, single-process workloads of public calls.

Usage, from the root of a checkout:

    python3 bench/run.py --workload empirical-transport --seed 2025 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes

One client runs the workload's operations in order, each starting when the
previous one returned, and repeats the whole pass until ``--seconds`` have
elapsed (at least twice, so that results can be compared between passes).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of fresh-interpreter set-ups: import, spec parsing, intensity and coupling
construction, warm-up; two before the passes and one after each),
``wall_s`` (the median pass time; the pass count is in the details line) and
``peak_rss_mb``.  Times are scaled to a nominal machine speed sampled while
they are measured (``speed.py``); the raw times are in the details line.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` plus each operation's median untraced
time.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds per-operation details (times, result hashes, failures).

An operation fails if it raises, if one of its ``verify`` assertions fails
(except the declared defects of ``workloads.KNOWN_DEFECTS``, which are only
reported), if its result bytes differ between passes (or between traced and
untraced passes), or if a seed-independent exact value is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_SEED = 2025
OUT_DIR = BENCH_DIR / "out"

# One process, one thread of numerical work: fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_ppt():
    """Import ``ppt`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ppt" / "__init__.py").is_file():
        raise SystemExit(f"error: no ppt sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ppt

    if Path(ppt.__file__).resolve().parent != (SRC / "ppt").resolve():
        raise SystemExit(f"error: imported ppt from {ppt.__file__}, not from {SRC}")
    return ppt


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class OpRecord:
    """Times, result hashes and failures of one operation over a run."""

    def __init__(self, name: str):
        self.name = name
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.sha: str | None = None
        self.payload: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if message not in self.failures:
            self.failures.append(message)
            print(f"FAIL {self.name}: {message}", file=sys.stderr)


def _run_op(record: OpRecord, op, tracer=None):
    """Run one operation, check its outcome and return its ``speed.Clock``."""
    from speed import Clock
    from workloads import KNOWN_DEFECTS

    record.attempted += 1
    error = None
    with Clock() as clock:
        try:
            out = op() if tracer is None else tracer.span(record.name, op)
        except Exception:
            error = traceback.format_exc()
    (record.times if tracer is None else record.traced_times).append(clock.scaled)
    if error is not None:
        record.fail("raised:\n" + error)
        return clock

    failures = list(out.failures)
    for assertion, detail in out.assertions_failed:
        message = f"assertion {assertion} failed: {detail}"
        if (record.name, assertion) not in KNOWN_DEFECTS:
            failures.append(message)
        elif message not in record.known_defects:
            record.known_defects.append(message)
            print(f"KNOWN DEFECT {record.name}: {message}", file=sys.stderr)
    sha = _sha(out.payload)
    if record.sha is None:
        record.sha, record.payload = sha, out.payload
    elif sha != record.sha:
        failures.append(f"result bytes changed between passes ({record.sha} then {sha})")
    if failures:
        record.fail("; ".join(failures))
    return clock


def _run_pass(ops: dict, records: dict[str, OpRecord], tracer=None) -> tuple[float, float]:
    """Every operation once; the raw and the scaled pass time."""
    clocks = [_run_op(records[name], op, tracer) for name, op in ops.items()]
    return sum(c.raw for c in clocks), sum(c.scaled for c in clocks)


def _post_checks(seed: int, records: dict[str, OpRecord]) -> None:
    """Checks against independent oracles, run after the timed passes."""
    import workloads

    for name, check in workloads.POST_CHECKS.items():
        record = records.get(name)
        if record is not None and record.payload is not None:
            for message in check(seed, record.payload):
                record.fail(message)


def _setup_time(workload: str, seed: int) -> tuple[float, float]:
    """Raw and scaled wall time of a fresh interpreter that imports, builds
    and warms up.  The interpreter samples its own speed (``_setup_only``)."""
    from speed import scale

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )  # no timeout: with one, the wait polls and rounds times to 50 ms steps
    raw = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: set-up of {workload} exited with {done.returncode}")
    sampled = json.loads(done.stdout.strip().splitlines()[-1])
    return raw, scale(raw, sampled["busy"], sampled["chunk_mean"])


def _setup_only(workload: str, seed: int) -> None:
    """The set-up, in the interpreter that ``_setup_time`` times.

    Prints the sampling handlers' time and the mean chunk time, for scaling.
    numpy, which the sampler needs, is imported before sampling starts.
    """
    import speed

    with speed.Clock() as clock:
        _import_ppt()
        _build(workload, seed)
    print(json.dumps({"busy": clock.busy, "chunk_mean": clock.chunk_mean}))


def _build(workload: str, seed: int):
    """The workload's operations, after running each once at a tiny size."""
    import workloads

    for warm in workloads.build(workload, seed, small=True).values():
        warm()
    return workloads.build(workload, seed)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracer import Tracer, layer_metrics

    # Set-up is timed twice before the passes and once after each untraced
    # pass, so that its median samples the machine's speed across the run.
    setup = [] if trace else [_setup_time(workload, seed) for _ in range(2)]
    ops = _build(workload, seed)
    records = {name: OpRecord(name) for name in ops}
    tracer = Tracer() if trace else None
    passes: list[float] = []
    raw_passes: list[float] = []
    traced_passes: list[float] = []
    layer_runs: list[dict] = []
    start = time.perf_counter()
    min_untraced = 1 if trace else 2
    longest = 0.0
    while (
        len(passes) < min_untraced
        or (trace and not traced_passes)
        or time.perf_counter() - start + longest <= seconds
    ):
        traced = trace and len(passes) > len(traced_passes)
        pass_start = time.perf_counter()
        if traced:
            tracer.install()
        try:
            raw, scaled = _run_pass(ops, records, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_passes.append(scaled)
            # Span times are raw; scale them as the pass was scaled.
            factor = scaled / raw
            layer_runs.append({k: v * factor if k.endswith("_s") else v for k, v in layer_metrics(tracer).items()})
        else:
            passes.append(scaled)
            raw_passes.append(raw)
            if not trace:
                setup.append(_setup_time(workload, seed))
        longest = max(longest, time.perf_counter() - pass_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _post_checks(seed, records)

    wall = _median(passes)
    details = {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "pass_times_s": passes,
        "raw_pass_times_s": raw_passes,
        "ops": {
            name: {
                "median_s": _median(r.times),
                "samples": len(r.times),
                "results_sha": r.sha,
                "failed": r.failed,
                "failures": r.failures,
                "known_defects": r.known_defects,
            }
            for name, r in records.items()
        },
    }
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload}.jsonl"
        tracer.write_jsonl(trace_path)
        metrics = {
            key: (statistics.median(run[key] for run in layer_runs), _unit(key))
            for key in layer_runs[0]
        }
        metrics["trace.overhead_ratio"] = (_median(traced_passes) / wall - 1.0, "ratio")
        for w in workloads.WORKLOADS:
            for name in workloads.OPS[w]:
                r = records.get(name)
                metrics[f"op.{name}_s"] = (_median(r.times) if r else 0.0, "s")
        for name, r in records.items():
            untraced, traced = _median(r.times), _median(r.traced_times)
            details["ops"][name]["traced_median_s"] = traced
            details["ops"][name]["trace_within_5pct"] = bool(untraced) and abs(traced / untraced - 1.0) <= 0.05
        details["traced_passes"] = len(traced_passes)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        details["setup_times_s"] = [scaled for _, scaled in setup]
        details["raw_setup_times_s"] = [raw for raw, _ in setup]
    attempted = sum(r.attempted for r in records.values())
    failed = sum(r.failed for r in records.values())
    details["fail_ratio"] = failed / attempted
    return {
        "details": details,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg": os.getloadavg(),
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in its own interpreter, as a table."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(json.dumps({"environment": environment()}))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
            )
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"error: {workload} --trace {trace} exited with {done.returncode}", file=sys.stderr)
                return 1
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print(f"\n== {workload} (trace {trace}): {details['passes']} untraced passes")
            print(f"  {'fail_ratio':<56} {details['fail_ratio']:>14.6g} ratio")
            for name, op in details["ops"].items():
                line = f"  {'op.' + name + '_s':<56} {op['median_s']:>14.6g} s   n={op['samples']} sha={op['results_sha']}"
                if trace:
                    line += f" traced={op['traced_median_s']:.4g} s within_5pct={op['trace_within_5pct']}"
                print(line)
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
                if not name.startswith("op."):  # those are printed above, with sample counts
                    print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    _import_ppt()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected all or one of {workloads.WORKLOADS}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    env = environment()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out["details"]["environment"] = env
    print(json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
