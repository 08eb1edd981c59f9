"""Command-line verification driver with deterministic JSON reports.

Each subcommand runs a fixed battery of checks and writes one report:
per-check residuals and dimensions, a pass flag per row, the library
version and the frozen octonion-table checksum.  Rows are ordered by
check name and identical (spec, seed) inputs produce byte-identical
reports.  Exit status: 0 all checks pass, 1 any check failed, 2
malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__, algebra, cauchy, clifford, geometry, octospin, orbits
from .geometry import _worst

COMMANDS = (
    "algebra-selfcheck", "clifford-table", "orbit-report", "triality-check",
    "metric-verify", "ricci-compare", "holonomy-estimate", "cauchy-solve",
    "curvature-space",
)

DEFAULT_TOLS = {
    "algebra-selfcheck": 1e-12,
    "clifford-table": 0.0,
    "orbit-report": 0.0,
    "triality-check": 1e-9,
    "metric-verify": 1e-9,
    "ricci-compare": 1e-7,
    "holonomy-estimate": 1e-8,
    "cauchy-solve": 0.0,
    "curvature-space": 0.0,
}


@dataclass(frozen=True)
class RunSpec:
    """One verification run: subcommand plus the recorded inputs."""

    command: str
    spec_path: str | None = None
    seed: int = 0
    tol: float | None = None
    order: int | None = None
    p: int | None = None
    out_path: str | None = None

    @property
    def tolerance(self) -> float:
        return DEFAULT_TOLS[self.command] if self.tol is None else self.tol


class SpecError(ValueError):
    """Malformed or missing input; maps to exit status 2."""


def _row(name: str, anchor: str, ok: bool, **fields) -> dict:
    out = {"name": name, "anchor": anchor, "pass": bool(ok)}
    for key, val in fields.items():
        if isinstance(val, (np.floating, float)):
            val = float(val)
        elif isinstance(val, (np.integer, int)) and not isinstance(val, bool):
            val = int(val)
        out[key] = val
    return out


def _residual_row(name: str, anchor: str, residual: float, tol: float) -> dict:
    return _row(name, anchor, bool(np.isfinite(residual)) and residual <= tol,
                residual=float(residual), tolerance=float(tol))


def _magnitude_row(name: str, anchor: str, value: float) -> dict:
    return _row(name, anchor, bool(np.isfinite(value)), value=float(value))


# -- algebra -------------------------------------------------------------


def _sample(rng, count):
    return rng.normal(size=(count, 8))


def _cmd_algebra_selfcheck(rs: RunSpec) -> list[dict]:
    rng = np.random.default_rng(rs.seed)
    tol = rs.tolerance
    m = algebra.octonion_mul
    x, y, z = _sample(rng, 1000), _sample(rng, 1000), _sample(rng, 1000)
    rows = []
    moufang = {
        "left": (m(m(m(x, y), x), z), m(x, m(y, m(x, z)))),
        "right": (m(z, m(m(x, y), x)), m(m(m(z, x), y), x)),
        "middle": (m(m(x, m(y, z)), x), m(m(x, y), m(z, x))),
    }
    for form, (lhs, rhs) in moufang.items():
        rows.append(_residual_row(
            f"moufang {form}",
            "Moufang identity for the octonion product",
            float(np.abs(lhs - rhs).max()), tol))
    nl = algebra.octonion_norm_sq(m(x, y))
    nr = algebra.octonion_norm_sq(x) * algebra.octonion_norm_sq(y)
    rows.append(_residual_row(
        "norm multiplicativity", "composition algebra norm |xy| = |x||y|",
        float(np.max(np.abs(nl - nr) / np.maximum(1.0, np.abs(nr)))), tol))
    cl = algebra.octonion_conj(m(x, y))
    cr = m(algebra.octonion_conj(y), algebra.octonion_conj(x))
    rows.append(_residual_row(
        "conjugation reverses products",
        "conjugation anti-automorphism (xy)* = y* x*",
        float(np.abs(cl - cr).max()), tol))
    relations = []
    for p, q in ((4, 3), (10, 1)):
        gens = clifford.clifford_generators(p, q)
        eta = clifford.signature_eta(p, q)
        eye = np.eye(gens[0].shape[0])
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                relations.append(np.abs(gi @ gj + gj @ gi + 2.0 * eta[i, j] * eye).max())
    rows.append(_residual_row(
        "clifford relations", "generator relations v w + w v = -2 <v, w>",
        _worst(relations), tol))
    imag = _sample(rng, 200)
    imag[:, 0] = 0.0
    squares = []
    for v in imag:
        lm = algebra.left_mult_matrix(v)
        squares.append(np.abs(lm @ lm + algebra.octonion_norm_sq(v) * np.eye(8)).max())
    rows.append(_residual_row(
        "imaginary multiplication square",
        "left multiplication by imaginary x squares to -|x|^2",
        _worst(squares), tol))
    return rows


# -- clifford table -------------------------------------------------------


_BASE_DEFINITE = {
    0: ("R", 1, False), 1: ("C", 1, False), 2: ("H", 1, False),
    3: ("H", 1, True), 4: ("H", 2, False), 5: ("C", 4, False),
    6: ("R", 8, False), 7: ("R", 8, True), 8: ("R", 16, False),
}


def _expected_type(p: int, q: int):
    if p >= 1 and q >= 1:
        f, k, s = _expected_type(p - 1, q - 1)
        return f, 2 * k, s
    if q == 0:
        if p <= 8:
            return _BASE_DEFINITE[p]
        f, k, s = _expected_type(p - 8, 0)
        return f, 16 * k, s
    if q == 1:
        return "R", 1, True
    f, k, s = _expected_type(q - 2, 0)
    return f, 2 * k, s


def _expected_label(p: int, q: int) -> str:
    f, k, s = _expected_type(p, q)
    base = f"{f}({k})"
    return f"{base}+{base}" if s else base


def _cmd_clifford_table(rs: RunSpec) -> list[dict]:
    rows = []
    rng = np.random.default_rng(rs.seed)
    for n in range(0, 9):
        for p in range(n + 1):
            q = n - p
            got = clifford.classify(p, q, rng=rng).label
            want = _expected_label(p, q)
            rows.append(_row(
                f"signature ({p},{q})",
                "matrix algebra type of the real Clifford algebra",
                got == want, computed=got, expected=want))
    return rows


# -- orbit report ----------------------------------------------------------


_ORBIT_REFERENCE = (
    ("SPIN2", (1.0,), 0, 1, "sphere"),
    ("SPIN11", (1.0, 1.0), 0, 1, "generic"),
    ("SPIN3", (1.0, 0.0), 0, 3, "sphere"),
    ("SPIN21", (1.0, 0.0), 1, 2, "generic"),
    ("SPIN4", (1.0, 0.0, 1.0, 0.0), 0, 6, "generic"),
    ("SPIN4", (1.0, 0.0, 0.0, 0.0), 3, 3, "chiral"),
    ("SPIN31", (1.0, 0.0), 2, 4, "generic"),
    ("SPIN22", (1.0, 0.0, 1.0, 0.0), 2, 4, "generic"),
    ("SPIN22", (0.0, 0.0, 1.0, 0.0), 4, 2, "chiral"),
    ("SPIN5", (1.0, 0.0, 0.0, 0.0), 3, 7, "sphere"),
    ("SPIN41", (1.0, 1.0, 0.0, 0.0), 3, 7, "null"),
    ("SPIN32", (1.0, 0.0, 0.0, 0.0), 6, 4, "generic"),
    ("SPIN6", (1.0, 0.0, 0.0, 0.0), 8, 7, "sphere"),
    ("SPIN51", (0, 1, 0, 0, 1, 0, 0, 0), 4, 11, "null-pair"),
    ("SPIN51", (1, 0, 0, 0, 1, 0, 0, 0), 3, 12, "generic"),
    ("SPIN51", (1, 0, 0, 0, 0, 0, 0, 0), 7, 8, "chiral"),
    ("SPIN42", (1.0, 0.0, 0.0, 0.0), 8, 7, "positive"),
    ("SPIN33", (1, 0, 0, 0, 1, 0, 0, 0), 8, 7, "generic"),
    ("SPIN33", (1, 0, 0, 0, 0, 0, 0, 0), 11, 4, "chiral"),
)


def _cmd_orbit_report(rs: RunSpec) -> list[dict]:
    rows = []
    for name, coeffs, stab, orbit, label in _ORBIT_REFERENCE:
        model = orbits.get_model(name)
        s = np.asarray(coeffs, dtype=float)
        got_stab = model.stabilizer_dimension(s)
        got_orbit = model.orbit_dimension(s)
        rows.append(_row(
            f"{name.lower()} {label} class",
            "spin orbit and stabilizer dimensions of the model spinor",
            (got_stab, got_orbit) == (stab, orbit),
            stabilizer=got_stab, orbit=got_orbit,
            expected_stabilizer=stab, expected_orbit=orbit))
    pure = orbits.pure_spinor((4, 3))
    got = orbits.spin_orbit_dimension(4, 3, pure)
    rows.append(_row(
        "pure spinor orbit (4,3)",
        "pure spinor orbit is a hypersurface in the half-spinor space",
        got == 7, orbit=got, expected_orbit=7))
    nd = octospin.null_stabilizer_dimension()
    rows.append(_row(
        "null stabilizer (10,1)",
        "null spinor stabilizer dimension 30 in eleven dimensions",
        nd == 30, dimension=nd, expected=30))
    td = octospin.timelike_stabilizer_dimension()
    rows.append(_row(
        "timelike stabilizer (10,1)",
        "timelike spinor stabilizer dimension 24 in eleven dimensions",
        td == 24, dimension=td, expected=24))
    return rows


# -- triality ---------------------------------------------------------------


def _cmd_triality_check(rs: RunSpec) -> list[dict]:
    rng = np.random.default_rng(rs.seed)
    tol = rs.tolerance

    def dist(t1, t2):
        return _worst(np.abs(a - b).max() for a, b in zip(t1.as_tuple(), t2.as_tuple()))

    dists = {"alpha squared": [], "beta squared": [], "tau cubed": []}
    for _ in range(50):
        t = octospin.random_triple(rng)
        aa = octospin.triality_alpha(octospin.triality_alpha(t))
        bb = octospin.triality_beta(octospin.triality_beta(t))
        ttt = octospin.triality_tau(octospin.triality_tau(octospin.triality_tau(t)))
        dists["alpha squared"].append(dist(aa, t))
        dists["beta squared"].append(dist(bb, t))
        dists["tau cubed"].append(dist(ttt, t))
    anchors = {
        "alpha squared": "outer symmetry alpha is an involution on triples",
        "beta squared": "outer symmetry beta is an involution on triples",
        "tau cubed": "outer symmetry tau has order three on triples",
    }
    return [_residual_row(name, anchors[name], _worst(res), tol)
            for name, res in dists.items()]


# -- geometry commands -------------------------------------------------------


def _load_metric(rs: RunSpec):
    if rs.spec_path is None:
        raise SpecError(f"{rs.command} needs --spec with a metric description")
    try:
        with open(rs.spec_path, encoding="utf-8") as fh:
            desc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read metric spec: {exc}") from exc
    try:
        return geometry.metric_from_spec(desc)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad metric spec: {exc}") from exc


def _cmd_metric_verify(rs: RunSpec) -> list[dict]:
    m = _load_metric(rs)
    tol = rs.tolerance
    pts = geometry.probe_points(m, rs.seed, count=5)
    coframes = [geometry.adapted_coframe(m, pt) for pt in pts]
    gram = _worst(ac.gram_residual for ac in coframes)
    torsion = _worst(ac.torsion_residual for ac in coframes)
    skew = _worst(ac.skew_residual for ac in coframes)
    member = _worst(ac.membership_residual for ac in coframes)
    rows = [
        _residual_row("coframe gram reproduction",
                      "adapted coframe has the constant normal-form Gram matrix",
                      gram, tol),
        _residual_row("connection membership",
                      "Levi-Civita connection takes values in the stabilizer "
                      "subalgebra (parallel spinor certificate)",
                      member, tol),
        _residual_row("connection torsion",
                      "first structure equation of the adapted coframe",
                      torsion, tol),
        _residual_row("connection skewness",
                      "connection is skew for the coframe Gram matrix",
                      skew, tol),
    ]
    g0 = m.components(np.zeros(m.n))
    w = np.linalg.eigvalsh(g0)
    found = (int((w > 0).sum()), int((w < 0).sum()))
    rows.append(_row("metric signature",
                     "normal form has the family's split signature",
                     found == m.signature,
                     computed=list(found), expected=list(m.signature)))
    rep = geometry.constraint_check(m, pts)
    for cname, res in sorted(rep.residuals.items()):
        rows.append(_residual_row(
            f"constraint {cname}",
            "profile functions satisfy the family constraint equations",
            res, max(tol, 1e-12)))
    curv = _worst(np.abs(geometry.riemann_numeric(m, pt)).max() for pt in pts)
    rows.append(_magnitude_row("curvature magnitude",
                               "largest jet curvature component over the probe points",
                               curv))
    return rows


def _cmd_ricci_compare(rs: RunSpec) -> list[dict]:
    m = _load_metric(rs)
    if m.family not in geometry.RICCI_CALIBRATION:
        raise SpecError(f"family {m.family} has no closed-form Ricci display")
    tol = rs.tolerance
    residuals = []
    scales = []
    for pt in geometry.probe_points(m, rs.seed, count=5):
        num = geometry.ricci_numeric(m, pt)
        form = geometry.ricci_paper(m.family, m.functions, pt, p=m.p)
        scales.append(np.abs(num).max())
        residuals.append(np.abs(num - form).max() / max(1.0, scales[-1]))
    return [
        _residual_row("closed form vs jet ricci",
                      "closed-form Ricci display agrees with jet curvature",
                      _worst(residuals), tol),
        _magnitude_row("ricci magnitude", "largest Ricci component over the probe points",
                       _worst(scales)),
    ]


def _cmd_holonomy_estimate(rs: RunSpec) -> list[dict]:
    m = _load_metric(rs)
    est = geometry.holonomy_span(m, geometry.probe_points(m, rs.seed, count=3))
    rows = [
        _row("curvature span dimension",
             "bracket-closed span of curvature operators (holonomy estimate)",
             est.span_dim <= est.stabilizer_dim,
             dimension=est.span_dim, stabilizer=est.stabilizer_dim,
             generators=est.generator_count, sweeps=est.sweeps),
        _residual_row("curvature membership",
                      "curvature operators lie in the stabilizer subalgebra",
                      est.membership_residual, rs.tolerance),
    ]
    return rows


# -- cauchy -------------------------------------------------------------------


def _builtin_cauchy_tables(p: int):
    """Constraint-satisfying rational data for p in {1, 2, 3}."""
    if p == 1:
        return [{(2, 0): Fraction(1, 3), (1, 0): Fraction(-1, 2)}], \
               [{(3, 0): Fraction(2, 7)}]
    if p == 2:
        phi = cauchy.JetSeries.from_table(5, 9, {
            (0, 1, 0, 2, 1): Fraction(1, 2),
            (0, 0, 1, 1, 2): Fraction(1, 3),
            (0, 0, 0, 2, 2): Fraction(1, 5),
            (0, 1, 1, 3, 0): Fraction(-1, 4),
            (0, 0, 0, 0, 4): Fraction(1, 7),
        })
        a = [phi.diff(4).diff(4), -phi.diff(3).diff(4), phi.diff(3).diff(3)]
        atabs = [{e[1:]: c for e, c in s.terms.items()} for s in a]
        atabs[0][(2, 0, 0, 0)] = Fraction(1, 2)
        atabs[1][(1, 1, 0, 0)] = Fraction(1, 3)
        atabs[2][(0, 2, 0, 0)] = Fraction(-1, 5)
        psi = cauchy.JetSeries.from_table(5, 9, {
            (0, 0, 1, 2, 0): Fraction(1, 6),
            (0, 1, 0, 1, 1): Fraction(-1, 2),
        })
        b = [psi.diff(4).diff(4), -psi.diff(3).diff(4), psi.diff(3).diff(3)]
        btabs = [{e[1:]: c for e, c in s.terms.items()} for s in b]
        return atabs, btabs
    if p == 3:
        h4 = np.zeros((3, 3, 3, 3), dtype=int)
        pieces = (
            (1, ((0, 0, 1), (1, 1, -1)), ((2, 2, 1),)),
            (1, ((0, 1, 1), (1, 0, 1)), ((2, 2, 1),)),
            (2, ((1, 2, 1), (2, 1, 1)), ((0, 0, 1),)),
            (1, ((2, 2, 1),), ((0, 1, 1), (1, 0, 1))),
        )
        for coeff, aspec, bspec in pieces:
            amat = np.zeros((3, 3), dtype=int)
            bmat = np.zeros((3, 3), dtype=int)
            for i, j, v in aspec:
                amat[i, j] = v
            for i, j, v in bspec:
                bmat[i, j] = v
            h4 += coeff * np.einsum("ij,kl->ijkl", amat, bmat)
        atabs = []
        for i, j in geometry.symmetric_pairs(3):
            table = {}
            for k in range(3):
                for l in range(k, 3):
                    c = h4[i, j, k, l] if k != l else Fraction(h4[i, j, k, l], 2)
                    if c == 0:
                        continue
                    exps = [0] * 6
                    exps[3 + k] += 1
                    exps[3 + l] += 1
                    table[tuple(exps)] = table.get(tuple(exps), 0) + Fraction(c)
            exps = [0] * 6
            exps[min(i, 2)] = 2
            table[tuple(exps)] = table.get(tuple(exps), 0) + Fraction(1, 3 + i + j)
            atabs.append(table)
        return atabs, None
    raise SpecError("built-in data covers p in {1, 2, 3}")


def _cmd_cauchy_solve(rs: RunSpec) -> list[dict]:
    p = 2 if rs.p is None else rs.p
    order = 6 if rs.order is None else rs.order
    if rs.spec_path is not None:
        try:
            with open(rs.spec_path, encoding="utf-8") as fh:
                desc = json.load(fh)
            data = cauchy.cauchy_data_from_spec(desc)
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise SpecError(f"bad initial data: {exc}") from exc
    else:
        atabs, btabs = _builtin_cauchy_tables(p)
        try:
            data = cauchy.cauchy_data(p, order, atabs, btabs)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    tol = rs.tolerance
    data_res = data.max_constraint_residual()
    rows = [_residual_row(
        "initial data constraints",
        "divergence constraints of the initial profile and velocity",
        data_res, tol)]
    if data_res > tol:
        return rows
    f = cauchy.solve_ricci_ivp(data)
    rep = cauchy.verify_ricci_flat(f, data.p)
    rows.append(_residual_row(
        "divergence propagation",
        "constraint series stay zero under the distinguished-direction "
        "evolution", rep["constraint"], tol))
    rows.append(_residual_row(
        "ricci series", "Ricci-flat evolution residual series",
        rep["odd_ricci"], tol))
    rows.append(_residual_row(
        "even bracket consistency",
        "second-order coefficient reproduces the even-system bracket",
        rep["even_bracket"], tol))
    rows.append(_row(
        "solution emitted", "solved profile series in the shared polynomial "
        "format", True, series=[cauchy.series_to_spec(s) for s in f]))
    return rows


def _cmd_curvature_space(rs: RunSpec) -> list[dict]:
    stab = [e.rho for e in octospin.null_stabilizer_basis()]
    got = geometry.curvature_space_dim(stab)
    rows = [_row(
        "null-spinor stabilizer curvature space",
        "first Bianchi kernel of the eleven-dimensional stabilizer has "
        "dimension 325", got == 325, dimension=got, expected=325)]
    ref = geometry.curvature_space_dim(geometry.so_basis(4))
    rows.append(_row(
        "rotation algebra reference",
        "first Bianchi kernel of so(4) has dimension 20",
        ref == 20, dimension=ref, expected=20))
    return rows


_HANDLERS = {
    "algebra-selfcheck": _cmd_algebra_selfcheck,
    "clifford-table": _cmd_clifford_table,
    "orbit-report": _cmd_orbit_report,
    "triality-check": _cmd_triality_check,
    "metric-verify": _cmd_metric_verify,
    "ricci-compare": _cmd_ricci_compare,
    "holonomy-estimate": _cmd_holonomy_estimate,
    "cauchy-solve": _cmd_cauchy_solve,
    "curvature-space": _cmd_curvature_space,
}


def run_command(rs: RunSpec) -> tuple[dict, int]:
    """Execute one verification run; returns (report, exit status)."""
    report = {
        "command": rs.command,
        "seed": rs.seed,
        "tolerance": rs.tolerance,
        "version": __version__,
        "octonion_table_checksum": algebra.octonion_table_checksum(),
    }
    if rs.order is not None:
        report["order"] = rs.order
    if rs.p is not None:
        report["p"] = rs.p
    if rs.spec_path is not None:
        try:
            with open(rs.spec_path, "rb") as fh:
                report["spec_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            report["error"] = f"cannot read spec: {exc}"
            return report, 2
    try:
        checks = _HANDLERS[rs.command](rs)
    except SpecError as exc:
        report["error"] = str(exc)
        return report, 2
    report["checks"] = sorted(checks, key=lambda row: row["name"])
    report["pass"] = all(row["pass"] for row in checks)
    return report, 0 if report["pass"] else 1


def _write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinorlab",
        description="verification runs for metrics with parallel spinors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--spec", dest="spec_path", default=None,
                         help="JSON input description")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--out", dest="out_path", default=None,
                         help="report path (default: stdout)")
        cmd.add_argument("--tol", type=float, default=None)
        cmd.add_argument("--order", type=int, default=None)
        cmd.add_argument("--p", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rs = RunSpec(command=args.command, spec_path=args.spec_path,
                 seed=args.seed, tol=args.tol, order=args.order,
                 p=args.p, out_path=args.out_path)
    report, status = run_command(rs)
    _write_report(report, rs.out_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
