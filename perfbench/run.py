"""spinorlab benchmark: seeded verification workloads, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the inputs):

  metric-certify          metric-verify, ricci-compare and holonomy-estimate on
                          seeded metric specs; mostly jets and geometry.
  exact-evolution         cauchy-solve on seeded exact rational Cauchy data;
                          Fraction series arithmetic in cauchy.
  algebraic-certificates  orbit-report, curvature-space, clifford-table,
                          triality-check, algebra-selfcheck, purity certificates
                          up to spin(4,4) and random-spinor orbit dimensions;
                          a few very tall SVDs in linalg.

One client in a closed loop: each operation starts when the previous one has
returned.  A run repeats whole rounds of the workload's operation mix; the
number of rounds is ``--seconds`` over the round's nominal duration on the
reference machine (at least two, so every input runs twice), so a run does
the same work on every commit.  Every output is checked as it arrives.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates plain rounds with rounds in which every public function of each
spinorlab module is wrapped, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is 1
when an exact-output check fails and 2 when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10       # samples a tail percentile must leave above it
PROBE_TIMEOUT_S = 120


def percentile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of a percentile of a non-empty sample.

    A beta-weighted mean of all order statistics: unlike a single order
    statistic it does not jump when the rank falls between two operation
    classes of very different cost.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    p = pct / 100.0
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ xs)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile that leaves at least TAIL_BEYOND samples above it."""
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 50.0


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "machine": platform.machine(),
    }


class Loop:
    """Closed-loop execution of whole rounds, checking each output as it comes.

    Only the operation itself is timed; digests and independent checks run
    between operations.  Reports are not kept, so the heap does not grow
    with the run.
    """

    def __init__(self, workloads, plan, reference: dict):
        self.workloads = workloads
        self.plan = plan
        self.reference = reference     # input key -> digest
        self.checked: set = set()
        self.errors: list[str] = []
        self.samples: list[tuple[str, float, int | None]] = []
        self.failures: dict[str, str] = {}

    def record(self, desc: dict, seconds: float, report: dict, status) -> None:
        self.samples.append((desc["class"], seconds, status))
        if status != 0:
            self.failures.setdefault(desc["class"], report.get("error", "check failed"))
        key = json.dumps(desc, sort_keys=True)
        got = self.workloads.digest(report)
        if self.reference.setdefault(key, got) != got:
            self.errors.append(f"{desc['class']}: exact output differs between runs")
        if key not in self.checked:
            self.checked.add(key)
            self.errors += [f"{desc['class']}: {e}"
                            for e in self.workloads.independent_errors(desc, report)]

    def run_round(self, r: int, tracer=None) -> float:
        """Run round ``r`` of the plan; returns the time spent in operations."""
        attempt = self.workloads.attempt
        clock = time.perf_counter
        busy = 0.0
        for desc in self.plan.round(r):
            if tracer is not None:
                tracer.current_op = len(self.samples)
            t0 = clock()
            report, status = attempt(desc)
            seconds = clock() - t0
            busy += seconds
            self.record(desc, seconds, report, status)
        return busy


def setup_probes(workloads, plan, workdir: Path) -> tuple[list[float], dict]:
    ops_path = workdir / "warmup.json"
    ops_path.write_text(json.dumps(plan.warmup) + "\n", encoding="utf-8")
    times, reference = [], {}
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ops_path)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(out["setup_s"])
        for desc, dig in zip(plan.warmup, out["digests"]):
            reference.setdefault(json.dumps(desc, sort_keys=True), dig)
    return times, reference


def end_to_end(workloads, plan, workdir: Path, seconds: float):
    setup_times, reference = setup_probes(workloads, plan, workdir)
    loop = Loop(workloads, plan, reference)
    for desc in plan.warmup:
        loop.record(desc, 0.0, *workloads.attempt(desc))
    loop.samples.clear()
    rounds = plan.rounds_for(seconds, MIN_ROUNDS)
    busy = sum(loop.run_round(r) for r in range(rounds))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = [t for _, t, _ in loop.samples]
    passed = sum(status == 0 for *_, status in loop.samples)
    tail = tail_percentile(len(times))
    metrics = {
        "report_p50_s": (percentile(times, 50.0), "s", len(times)),
        "report_tail_s": (percentile(times, tail), "s", len(times)),
        "reports_per_s": (passed / busy, "1/s", len(times)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }
    info = [f"rounds {rounds}, {busy:.3f} s in operations, report_tail_s is p{tail:g}",
            "setup_s samples " + " ".join(f"{t:.4f}" for t in setup_times)]
    return metrics, loop, info


def per_layer(workloads, plan, seconds: float, spans_path: Path):
    import tracer as tracing

    reference: dict = {}
    plain, traced = Loop(workloads, plan, reference), Loop(workloads, plan, reference)
    for desc in plan.warmup:
        plain.record(desc, 0.0, *workloads.attempt(desc))
    plain.samples.clear()
    tracer = tracing.Tracer()
    rounds = plan.rounds_for(seconds, MIN_ROUNDS)
    busy_plain = busy_traced = 0.0
    # Plain and traced rounds alternate, so drift affects both alike.
    for r in range(rounds):
        busy_plain += plain.run_round(r)
        tracer.install()
        try:
            busy_traced += traced.run_round(r, tracer)
        finally:
            tracer.uninstall()
    tracer.save(spans_path)
    values = tracer.metrics(rounds)
    values["trace.overhead_ratio"] = busy_traced / busy_plain
    metrics = {name: (v, unit_of(name), rounds) for name, v in values.items()}
    layers = tracer.layer_self_s()
    total = sum(layers.values())
    info = [f"rounds {rounds}; per-layer values are per round",
            f"layer self time covers {total / busy_traced:.1%} of traced op time "
            f"({total:.3f} of {busy_traced:.3f} s)"]
    info += [f"  {layer:<9} self {s:9.4f} s  {s / total:6.1%}"
             for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])]
    plain.samples += traced.samples
    plain.errors += traced.errors
    plain.failures.update(traced.failures)
    return metrics, plain, info


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def class_table(samples) -> list[str]:
    by_class: dict[str, list[float]] = {}
    for name, t, _ in samples:
        by_class.setdefault(name, []).append(t)
    return [f"  {name:<34} n={len(ts):<4} median {statistics.median(ts):.4f} s"
            for name, ts in by_class.items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("metric-certify", "exact-evolution",
                                 "algebraic-certificates"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinorlab" / "__init__.py").is_file():
        print(f"perfbench: no spinorlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    os.environ["OMP_NUM_THREADS"] = str(threads)

    import workloads

    import spinorlab
    if Path(spinorlab.__file__).resolve().parent != ROOT / "src" / "spinorlab":
        print(f"perfbench: imported spinorlab from {spinorlab.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-s{args.seed}"
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    base = results / f"{args.workload}-s{args.seed}-trace{args.trace}"
    plan = workloads.make_plan(args.workload, args.seed, workdir)
    env = environment(threads)
    if args.trace:
        metrics, loop, info = per_layer(
            workloads, plan, args.seconds, base.with_name(base.name + "-spans"))
    else:
        metrics, loop, info = end_to_end(workloads, plan, workdir, args.seconds)
    attempted = len(loop.samples)
    failed = sum(status != 0 for *_, status in loop.samples)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in info:
        print(line)
    print("operation classes:")
    for line in class_table(loop.samples):
        print(line)
    for name, (value, unit, n) in metrics.items():
        print(f"{name:<40} {value:14.6f} {unit:<6} n={n}")
    print(f"{'ops_attempted':<40} {attempted:14d} count")
    print(f"{'ops_failed':<40} {failed:14d} count")
    for name, why in loop.failures.items():
        print(f"failed op class: {name}: {why}")
    for error in loop.errors:
        print(f"EXACT-OUTPUT CHECK FAILED: {error}")
    errors = loop.errors
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    base.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "info": info, "result": result,
         "sample_counts": {name: n for name, (_, _, n) in metrics.items()},
         "op_samples": loop.samples},
        indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
