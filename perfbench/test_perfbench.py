"""Tests of the benchmark itself: inputs, exact-output checks and tracing.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spinorlab import geometry, linalg

WORK = workloads.ROOT / "perfbench" / "_work"


def _cheap_ops(plan, per_class=1):
    seen, out = {}, []
    for desc in plan.round(0):
        if seen.setdefault(desc["class"], 0) < per_class:
            seen[desc["class"]] += 1
            out.append(desc)
    return out


@pytest.fixture
def plans():
    made = []

    def make(workload, seed, tag):
        workdir = WORK / f"test-{tag}"
        made.append(workdir)
        return workloads.make_plan(workload, seed, workdir)

    yield make
    for workdir in made:
        shutil.rmtree(workdir, ignore_errors=True)


def test_same_seed_same_inputs_and_digests(plans):
    first = plans("exact-evolution", 7, "a")
    second = plans("exact-evolution", 7, "b")
    ops_a, ops_b = first.round(0)[:2], second.round(0)[:2]
    for a, b in zip(ops_a, ops_b):
        assert ((workloads.ROOT / a["spec"]).read_bytes()
                == (workloads.ROOT / b["spec"]).read_bytes())
        report_a, status_a = workloads.execute(a)
        report_b, status_b = workloads.execute(b)
        assert status_a == status_b == 0
        assert workloads.digest(report_a) == workloads.digest(report_b)
    other = plans("exact-evolution", 8, "c")
    assert ((workloads.ROOT / other.round(0)[0]["spec"]).read_bytes()
            != (workloads.ROOT / ops_a[0]["spec"]).read_bytes())


def test_metric_specs_parse_and_repeat(plans):
    first = plans("metric-certify", 3, "a")
    second = plans("metric-certify", 3, "b")
    for a, b in zip(_cheap_ops(first)[:3], _cheap_ops(second)[:3]):
        assert workloads.digest(workloads.attempt(a)[0]) == \
            workloads.digest(workloads.attempt(b)[0])


def test_digest_ignores_floats_and_catches_integers():
    desc = {"op": "orbit-dim", "class": "orbit-dim (2, 2)", "signature": [2, 2], "seed": 5}
    report, status = workloads.execute(desc)
    assert status == 0
    base = workloads.digest(report)
    noisy = json.loads(json.dumps(report))
    noisy["checks"][0]["residual"] = 1.5e-13
    assert workloads.digest(noisy) == base
    changed = json.loads(json.dumps(report))
    changed["checks"][3]["orbit"] += 1
    assert workloads.digest(changed) != base


def test_series_coefficient_change_is_caught(plans):
    desc = plans("exact-evolution", 4, "a").round(0)[0]
    report, status = workloads.execute(desc)
    assert status == 0
    spec = json.loads((workloads.ROOT / desc["spec"]).read_text())
    assert workloads.cauchy_solution_errors(spec, report) == []
    row = next(r for r in report["checks"] if r["name"] == "solution emitted")
    coeffs = row["series"][0]["coefficients"]
    key = next(k for k in coeffs if k.startswith("0,"))
    tampered = json.loads(json.dumps(report))
    tampered_row = next(r for r in tampered["checks"] if r["name"] == "solution emitted")
    tampered_row["series"][0]["coefficients"][key] = "12345/7"
    assert workloads.digest(tampered) != workloads.digest(report)
    assert workloads.cauchy_solution_errors(spec, tampered)
    loop = run.Loop(workloads, None, {})
    loop.record(desc, 0.1, report, 0)
    assert loop.errors == []
    loop.record(desc, 0.1, tampered, 0)
    assert len(loop.errors) == 1


def test_known_defect_counts_as_failed_op(plans):
    plan = plans("metric-certify", 1, "a")
    desc = next(d for d in plan.round(0) if d["class"] == "metric-verify PUREEVEN(1)")
    report, status = workloads.attempt(desc)
    assert status is None and report["error"].startswith("ValueError")


def test_tracer_covers_op_time_and_restores():
    import tracer as tracing

    original = geometry.nullspace
    t = tracing.Tracer()
    t.install()
    try:
        assert geometry.nullspace is not original
        t.current_op = 0
        report, status = workloads.execute(
            {"op": "cli", "command": "orbit-report", "seed": 0, "class": "orbit-report"})
    finally:
        t.uninstall()
    assert status == 0
    assert geometry.nullspace is original and linalg.nullspace is original
    covered = sum(t.layer_self_s().values())
    assert covered == pytest.approx(t.top_level_s(), rel=1e-9)
    values = t.metrics(rounds=1)
    assert values["linalg.rank_decisions"] > 0
    assert values["linalg.svd_cells"] >= values["linalg.max_svd_cells"] > 0


def test_tail_percentile_leaves_ten_samples():
    assert run.tail_percentile(44) == 75.0
    assert run.tail_percentile(128) == 90.0
    assert run.tail_percentile(250) == 95.0
    assert run.percentile([3.0, 1.0, 2.0], 50.0) == pytest.approx(2.0)


def test_refuses_checkout_without_sources():
    bare = WORK / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(workloads.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact-evolution",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
