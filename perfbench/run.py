"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/centlat``. Generates the
workload's inputs from the seed, runs a fixed number of passes of its
operations (the count follows from --seconds and the workload's nominal pass
length), checks every operation's output, and prints a human-readable report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
traced and the metrics are per layer. A copy of the report, with the run
context and the traced spans, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import mmap
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
DEADLINE = "deadline exceeded"
# Every reported time is scaled towards a machine on which the reference tasks
# take REF_NOMINAL_S (geometric mean), a typical figure on the shared 2-vCPU
# virtual machine the baseline was measured on; see NOTES.md.
REF_NOMINAL_S = 1.6e-3
REF_INTERVAL_S = 0.5
_REF_TABLE = [[random.Random(i).randrange(48) for _ in range(48)] for i in range(48)]
_REF_BYTES = 4 << 20
_REF_PAGES = b"\x01" * (_REF_BYTES // 4096)


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 samples above it (nearest rank).

    Returns (percentile, value), or None when there are fewer than 11 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def measure_setup(env: dict, refs: list) -> list[float]:
    """Seconds from spawning a fresh interpreter to `import centlat` done."""
    code = "import time, centlat; print(repr(time.time()))"
    times = []
    for _ in range(SETUP_PROBES):
        refs.append(reference_s())
        start = time.time()
        stdout = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
        times.append(float(stdout) - start)
    return times


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _on_deadline(signum, frame):
    raise spans.DeadlineExceeded()


def reference_s() -> tuple[float, float]:
    """Seconds two fixed reference tasks take right now, each the median of three.

    One walks a 48x48 pure-Python table (list indexing and bit operations,
    as in the library's inner loops); the other first-touches 4 MiB of freshly
    mapped memory (page faults and zeroing, as in NumPy's table validation).
    Neither touches centlat code, so together they track the speed the
    machine gives this process, which on a shared 2-vCPU virtual machine
    drifts by 10-80 % over minutes.
    """
    walks, touches = [], []
    for _ in range(3):
        start = time.perf_counter()
        mask = 0
        for _ in range(4):
            for row in _REF_TABLE:
                for b, v in enumerate(row):
                    mask |= 1 << _REF_TABLE[v][b]
        walks.append(time.perf_counter() - start)
        start = time.perf_counter()
        with mmap.mmap(-1, _REF_BYTES) as block:  # unmapped on close: RSS is unchanged
            block[::4096] = _REF_PAGES
        touches.append(time.perf_counter() - start)
    return sorted(walks)[1], sorted(touches)[1]


def reference_scale(refs: list[tuple[float, float]], exponent: float) -> float:
    """The factor that turns this run's seconds into seconds at reference speed.

    The reference time is the geometric mean of the run's median walk and
    median touch; ``exponent`` is how closely the workload's times follow it
    (``Workload.ref_exponent``).
    """
    walk = statistics.median(w for w, _ in refs)
    touch = statistics.median(t for _, t in refs)
    return (REF_NOMINAL_S / (walk * touch) ** 0.5) ** exponent


def run_passes(workload, tracer, refs: list) -> list[tuple[str, float, list]]:
    """Run every pass; returns (operation, seconds, problems) for each.

    A reference sample goes into ``refs`` at least every REF_INTERVAL_S.

    The inputs made so far are frozen out of the cyclic garbage collector, and
    each operation's time includes collecting the garbage it leaves behind.
    Groups and their subgroups refer to each other, so a dropped group is
    freed only by the collector; without this, a full collection of earlier
    operations' garbage lands inside whichever operation triggers it, and the
    same dihedral(256) enumeration took 1.4 s or 2.1 s at random.
    """
    records: list = []
    if workload.deadline_s:
        signal.signal(signal.SIGVTALRM, _on_deadline)
    gc.collect()
    gc.freeze()
    refs.append(reference_s())
    ref_time = time.perf_counter()
    for pass_index in range(workload.passes):
        for op in workload.ops(pass_index):
            if tracer is not None:
                tracer.op = len(records)
            args = op.prepare()
            if workload.deadline_s:
                signal.setitimer(signal.ITIMER_VIRTUAL, workload.deadline_s)
            start = time.perf_counter()
            try:
                problems = op.run(*args)
                gc.collect()
            except spans.DeadlineExceeded:
                problems = [DEADLINE]
            except Exception as exc:  # an undocumented error fails the operation
                problems = [f"{type(exc).__name__}: {exc}"]
            finally:
                if workload.deadline_s:
                    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            records.append((op.name, time.perf_counter() - start, problems))
            if time.perf_counter() - ref_time >= REF_INTERVAL_S:
                refs.append(reference_s())
                ref_time = time.perf_counter()
    refs.append(reference_s())
    gc.unfreeze()
    return records


def end_to_end(
    latencies: list[float], completed: int, setup: list[float], peak_rss_kb: int
) -> tuple[dict, dict]:
    """The end-to-end metrics from latencies and setup times (seconds)."""
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "ok_frac": (completed / len(latencies), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    info = {}
    tail = tail_percentile(latencies)
    if tail is not None:
        metrics["op_tail_ms"] = (tail[1] * 1e3, "ms")
        info["op_tail"] = f"p{tail[0]} of {len(latencies)}"
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "centlat" / "__init__.py").is_file():
        print(f"error: {src / 'centlat'} not found; run from a centlat checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # one process, one thread: keep NumPy's BLAS from starting a thread pool
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env = dict(os.environ, PYTHONPATH=str(src))
    load_before = os.getloadavg()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose from {known}", file=sys.stderr)
        return 2
    refs: list[tuple[float, float]] = []
    setup = measure_setup(env, refs)
    import centlat
    import numpy

    if Path(centlat.__file__).resolve().parent != src / "centlat":
        print(f"error: imported centlat from {centlat.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = spans.Tracer() if args.trace else None
    kind = workloads.WORKLOADS[args.workload]
    passes = kind.passes_for(args.seconds)
    workload = kind(args.seed, ROOT, passes, tracer)
    if tracer is not None:
        spans.install(tracer)
    try:
        records = run_passes(workload, tracer, refs)
    finally:
        if tracer is not None:
            spans.uninstall(tracer)
        workload.close()
    peak_rss_kb = getattr(workload, "peak_rss_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = [(name, problems) for name, _, problems in records if problems]
    attempted = len(records)
    completed = attempted - len(failures)
    timeouts = sum(1 for _, problems in failures if problems == [DEADLINE])
    wrong = len(failures) - timeouts
    scale = reference_scale(refs, workload.ref_exponent)
    latencies = [latency for _, latency, _ in records]
    e2e, info = end_to_end([t * scale for t in latencies], completed, [t * scale for t in setup], peak_rss_kb)
    raw, _ = end_to_end(latencies, completed, setup, peak_rss_kb)
    if tracer is not None:
        metrics = {name: (value, _unit(name)) for name, value in spans.layer_metrics(tracer).items()}
        metrics["trace.ops_per_s"] = (e2e["ops_per_s"][0], "1/s")
    else:
        metrics = e2e
    by_op: dict[str, list[float]] = {}
    for name, latency, _ in records:
        by_op.setdefault(name, []).append(latency * scale)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": attempted // passes,
        "operations": attempted,
        "fail_frac": len(failures) / attempted,
        "timeouts": timeouts,
        "deadline_s": workload.deadline_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "git_commit": git_commit(),
        "setup_probes_s": setup,
        "reference_walk_s": statistics.median(w for w, _ in refs),
        "reference_touch_s": statistics.median(t for _, t in refs),
        "reference_samples": len(refs),
        "reference_exponent": workload.ref_exponent,
        "raw_unnormalised": {name: value for name, (value, _) in raw.items()},
        **info,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:  # one file a workload: a traced sweep64 run has ~10^6 spans
        tracer.dump(out_dir / f"spans-{args.workload}.json.gz")
    report = {
        "context": context,
        "failures": [{"op": name, "problems": problems[:5]} for name, problems in failures],
        "op_median_s": {name: statistics.median(values) for name, values in by_op.items()},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(report, indent=2), encoding="utf-8")

    for key, value in context.items():
        print(f"# {key}: {value}")
    for name, problems in failures[:20]:
        print(f"# FAILED {name}: {'; '.join(problems[:3])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("self_s", "process_s")):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
