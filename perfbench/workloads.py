"""Seeded inputs, operations and exact-output checks of the spinorlab benchmark.

A workload is a *plan*: a list of distinct input draws, each one round of
operations, plus one cheap warm-up operation of each kind.  Every
operation is a JSON-serialisable descriptor, so the set-up probe (a fresh
interpreter) can run the same operations as the measuring process.  The
program only ever sees the generated spec files and the public API.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spinorlab import cli, geometry, orbits  # noqa: E402

METRIC_COMMANDS = ("metric-verify", "ricci-compare", "holonomy-estimate")
# (family, p, profile arity) in cheap-to-dear order; the pure families use
# degree-3 divergence-free profiles, the sizes of acceptance criterion 6.
METRIC_CLASSES = (
    ("PUREODD", 1, 3), ("PUREEVEN", 1, 2), ("M31", None, 3),
    ("M22DEG", None, 4), ("M41DEG", None, 4), ("M51NULL", None, 5),
    ("PUREEVEN", 2, 4), ("PUREODD", 2, 5), ("M101", None, 2),
    ("PUREEVEN", 3, 6), ("PUREODD", 3, 7),
)
METRIC_DRAWS = 2

# (p, truncation order, y-degree of the potentials).  Potentials have full
# support in the y variables, so per-op cost depends on the class and not
# on which monomials a draw happens to pick.
CAUCHY_CLASSES = ((3, 8, 3), (3, 10, 3), (3, 12, 3), (2, 8, 4), (2, 10, 4),
                  (2, 12, 4), (3, 8, 4))
CAUCHY_DRAWS = 2
CAUCHY_PER_ROUND = 2       # distinct inputs per class in one round

ALGEBRA_COMMANDS = ("clifford-table", "triality-check", "orbit-report",
                    "algebra-selfcheck", "curvature-space")
ORBIT_SIGNATURES = ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4))
ORBIT_BATCHES = 2          # orbit-dimension ops per signature and round
SPINORS_PER_BATCH = 128
# Clifford-module dimension and generic orbit dimension of spin(p,q).
MODULE_DIM = {(2, 2): 4, (3, 2): 4, (3, 3): 8, (4, 3): 8, (4, 4): 16}
GENERIC_ORBIT = {(2, 2): 4, (3, 2): 4, (3, 3): 7, (4, 3): 7, (4, 4): 14}
# Orbit of a pure spinor in the Clifford-path signatures: the null cone.
PURE_ORBIT = {(4, 3): 7, (4, 4): 7}


# Seconds one round takes on the reference machine (2 CPUs, OpenBLAS with 2
# threads, Python 3.11).  A run of S seconds does floor(S / this) rounds, so
# the work in a run, and with it every rank a percentile picks, is fixed.
NOMINAL_ROUND_S = {"metric-certify": 4.5, "exact-evolution": 5.8,
                   "algebraic-certificates": 17.0}


class Plan:
    """Rounds of operation descriptors; round r runs ``draws[r % len(draws)]``."""

    def __init__(self, workload: str, draws: list, warmup: list):
        self.workload = workload
        self.draws = draws
        self.warmup = warmup

    def round(self, r: int) -> list:
        return self.draws[r % len(self.draws)]

    def rounds_for(self, seconds: float, minimum: int) -> int:
        return max(minimum, int(seconds // NOMINAL_ROUND_S[self.workload]))


# -- input generation ---------------------------------------------------------


def _write_spec(workdir: Path, name: str, spec: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")
    return path.relative_to(ROOT).as_posix()


def _function_spec(f: geometry.FreeFunction) -> dict:
    return {"arity": f.arity,
            "coefficients": {",".join(map(str, e)): float(c)
                             for e, c in sorted(f.table.items())}}


def metric_spec(family: str, p, arity: int, rng: np.random.Generator) -> dict:
    """A metric description in the README's spec format."""
    if p is None:
        fs = [geometry.random_polynomial(arity, rng, degree=3, scale=0.3)]
    else:
        first_y = arity - p
        fs = geometry.divergence_free_draw(
            p, arity, tuple(first_y + j for j in range(p)), rng,
            degree=3, scale=0.3)
    spec = {"family": family, "functions": [_function_spec(f) for f in fs]}
    if p is not None:
        spec["p"] = p
    return spec


def _rational(r: random.Random) -> Fraction:
    return Fraction(r.choice((-1, 1)) * r.randint(1, 9), r.randint(1, 9))


def _d(poly: dict, var: int) -> dict:
    out = {}
    for e, c in poly.items():
        if e[var]:
            lowered = e[:var] + (e[var] - 1,) + e[var + 1:]
            out[lowered] = out.get(lowered, 0) + c * e[var]
    return out


def _accumulate(table: dict, poly: dict, sign: int) -> None:
    for e, c in poly.items():
        table[e] = table.get(e, 0) + sign * c


def _monomials_of_degree(nvars: int, degree: int) -> list:
    return [e for e in geometry.monomials_upto(nvars, degree) if sum(e) == degree]


def _pairs(p: int) -> list:
    """Index pairs i <= j in the row-major order of the spec tables.

    Kept here rather than taken from geometry, so that output checks make
    no spinorlab calls while the tracer is installed.
    """
    return [(i, j) for i in range(p) for j in range(i, p)]


def cauchy_layer(p: int, ydeg: int, r: random.Random) -> list:
    """Symmetric profile tables over (x^1..x^p, y_1..y_p) with zero divergence.

    Each pair j < k adds the 2x2 block of a rational potential phi:
    a_jj += phi_{y_k y_k}, a_jk -= phi_{y_j y_k}, a_kk += phi_{y_j y_j},
    whose divergence cancels identically; x-only terms have no y-derivative.
    """
    pairs = _pairs(p)
    at = {pair: t for t, pair in enumerate(pairs)}
    tables = [{} for _ in pairs]
    ymonos = [e for e in _monomials_of_degree(2 * p, ydeg) if sum(e[p:]) == ydeg]
    for j in range(p):
        for k in range(j + 1, p):
            phi = {e: _rational(r) for e in ymonos}
            yj, yk = p + j, p + k
            _accumulate(tables[at[(j, j)]], _d(_d(phi, yk), yk), 1)
            _accumulate(tables[at[(j, k)]], _d(_d(phi, yj), yk), -1)
            _accumulate(tables[at[(k, k)]], _d(_d(phi, yj), yj), 1)
    xsq = [e for e in _monomials_of_degree(2 * p, 2) if sum(e[p:]) == 0]
    for table in tables:
        _accumulate(table, {r.choice(xsq): _rational(r)}, 1)
    return [{"arity": 2 * p,
             "coefficients": {",".join(map(str, e)): str(c)
                              for e, c in sorted(table.items()) if c != 0}}
            for table in tables]


def cauchy_spec(p: int, order: int, ydeg: int, r: random.Random) -> dict:
    return {"p": p, "order": order, "a": cauchy_layer(p, ydeg, r),
            "b": cauchy_layer(p, ydeg, r)}


def _cli(command: str, kind_class: str, seed: int, spec: str | None = None) -> dict:
    desc = {"op": "cli", "command": command, "class": kind_class, "seed": seed}
    if spec is not None:
        desc["spec"] = spec
    return desc


def _metric_plan(seed: int, workdir: Path) -> Plan:
    rng = np.random.default_rng(seed)
    draws = []
    for d in range(METRIC_DRAWS):
        ops = []
        for family, p, arity in METRIC_CLASSES:
            label = family if p is None else f"{family}({p})"
            spec = metric_spec(family, p, arity, rng)
            path = _write_spec(workdir, f"metric-{d}-{label}.json", spec)
            probe_seed = int(rng.integers(1 << 31))
            for command in METRIC_COMMANDS:
                # M101 has no closed-form Ricci display to compare against.
                if family == "M101" and command == "ricci-compare":
                    continue
                ops.append(_cli(command, f"{command} {label}", probe_seed, path))
        draws.append(ops)
    warmup = [next(op for op in draws[0] if op["command"] == c)
              for c in METRIC_COMMANDS]
    return Plan("metric-certify", draws, warmup)


def _cauchy_plan(seed: int, workdir: Path) -> Plan:
    r = random.Random(seed)
    draws = []
    for d in range(CAUCHY_DRAWS):
        ops = []
        for p, order, ydeg in CAUCHY_CLASSES:
            label = f"p{p} order{order} ydeg{ydeg}"
            for k in range(CAUCHY_PER_ROUND):
                spec = cauchy_spec(p, order, ydeg, r)
                path = _write_spec(workdir, f"cauchy-{d}{k}-p{p}-o{order}-y{ydeg}.json", spec)
                ops.append(_cli("cauchy-solve", f"cauchy-solve {label}", 0, path))
        draws.append(ops)
    return Plan("exact-evolution", draws, [draws[0][0]])


def _algebra_plan(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    ops = [_cli(c, c, int(rng.integers(1 << 31))) for c in ALGEBRA_COMMANDS]
    ops += [{"op": "purity", "class": f"purity {sig}", "signature": list(sig)}
            for sig in orbits.PURITY_SIGNATURES]
    ops += [{"op": "orbit-dim", "class": f"orbit-dim {sig}", "signature": list(sig),
             "seed": int(rng.integers(1 << 31))}
            for sig in ORBIT_SIGNATURES for _ in range(ORBIT_BATCHES)]
    kinds = {}
    for op in ops:
        kinds.setdefault(op.get("command", op["op"]), op)
    return Plan("algebraic-certificates", [ops], list(kinds.values()))


def make_plan(workload: str, seed: int, workdir: Path) -> Plan:
    """Generate the workload's inputs under ``workdir`` from ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "metric-certify":
        return _metric_plan(seed, workdir)
    if workload == "exact-evolution":
        return _cauchy_plan(seed, workdir)
    if workload == "algebraic-certificates":
        return _algebra_plan(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- execution ------------------------------------------------------------------


def _purity(sig: tuple) -> dict:
    s = orbits.pure_spinor(sig)
    rows = [{"name": "pure spinor passes the purity test",
             "pass": bool(orbits.is_pure(sig, s))}]
    if sig in PURE_ORBIT:
        dim = orbits.spin_orbit_dimension(*sig, s)
        rows.append({"name": "pure spinor orbit dimension", "orbit": dim,
                     "expected": PURE_ORBIT[sig], "pass": dim == PURE_ORBIT[sig]})
    return {"checks": rows}


def _orbit_dims(sig: tuple, seed: int) -> dict:
    p, q = sig
    rng = np.random.default_rng(seed)
    so_dim = (p + q) * (p + q - 1) // 2
    rows = []
    for t in range(SPINORS_PER_BATCH):
        s = rng.standard_normal(MODULE_DIM[sig])
        orbit = orbits.spin_orbit_dimension(p, q, s)
        stab = orbits.spin_stabilizer_dimension(p, q, s)
        rows.append({"name": f"random spinor {t}", "orbit": orbit,
                     "stabilizer": stab, "expected_orbit": GENERIC_ORBIT[sig],
                     "pass": orbit == GENERIC_ORBIT[sig] and orbit + stab == so_dim})
    return {"checks": rows}


def execute(desc: dict) -> tuple[dict, int]:
    """Run one operation through the public API; returns (report, status)."""
    if desc["op"] == "cli":
        spec = desc.get("spec")
        return cli.run_command(cli.RunSpec(
            command=desc["command"], seed=desc["seed"],
            spec_path=None if spec is None else str(ROOT / spec)))
    sig = tuple(desc["signature"])
    if desc["op"] == "purity":
        report = _purity(sig)
    elif desc["op"] == "orbit-dim":
        report = _orbit_dims(sig, desc["seed"])
    else:
        raise ValueError(f"unknown operation {desc['op']!r}")
    report["signature"] = list(sig)
    report["pass"] = all(row["pass"] for row in report["checks"])
    return report, 0 if report["pass"] else 1


def attempt(desc: dict) -> tuple[dict, int | None]:
    """``execute`` with an exception turned into an error report (status None)."""
    try:
        return execute(desc)
    except Exception as exc:  # an op that raises is counted as failed
        return {"error": f"{type(exc).__name__}: {exc}"}, None


# -- exact-output checks -----------------------------------------------------------


def exact_part(value):
    """The report with every float dropped: integers, labels, flags, series."""
    if isinstance(value, dict):
        return {k: exact_part(v) for k, v in value.items() if not isinstance(v, float)}
    if isinstance(value, list):
        return [exact_part(v) for v in value if not isinstance(v, float)]
    return value


def digest(report: dict) -> str:
    text = json.dumps(exact_part(report), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_series(fd: dict) -> dict:
    return {tuple(int(s) for s in key.split(",")): Fraction(val)
            for key, val in fd["coefficients"].items()}


def cauchy_solution_errors(spec: dict, report: dict) -> list[str]:
    """Check an emitted solution against its own initial data, exactly.

    The z^0 and z^1 slices must reproduce a and b, and the divergence
    sum_j df_jl/dy_j must vanish identically up to the trusted order.
    """
    row = next((r for r in report.get("checks", ())
                if r["name"] == "solution emitted"), None)
    if row is None:
        return ["no solution emitted"]
    p, order = spec["p"], spec["order"]
    series = [_parse_series(fd) for fd in row["series"]]
    errors = []
    for layer, zpow in (("a", 0), ("b", 1)):
        for t, fd in enumerate(spec[layer]):
            want = {(zpow,) + e: c for e, c in _parse_series(fd).items()
                    if sum(e) + zpow <= order}
            got = {e: c for e, c in series[t].items() if e[0] == zpow}
            if got != want:
                errors.append(f"z^{zpow} slice of series {t} differs from {layer}")
    at = {pair: t for t, pair in enumerate(_pairs(p))}
    for l in range(p):
        div = {}
        for j in range(p):
            _accumulate(div, _d(series[at[tuple(sorted((j, l)))]], 1 + p + j), 1)
        if any(c != 0 for e, c in div.items() if sum(e) <= order - 1):
            errors.append(f"divergence {l} of the solution is not zero")
    return errors


def independent_errors(desc: dict, report: dict) -> list[str]:
    """Checks the benchmark makes itself, beyond the report's own rows."""
    if desc.get("command") != "cauchy-solve" or not report.get("pass"):
        return []
    spec = json.loads((ROOT / desc["spec"]).read_text(encoding="utf-8"))
    return cauchy_solution_errors(spec, report)
