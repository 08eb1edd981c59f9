"""Command-line verification driver with deterministic JSON reports.

Each subcommand runs a fixed battery of checks and writes one report:
per-check residuals and dimensions, a pass flag per row, the library
version and the frozen octonion-table checksum.  ``_COMMAND_TABLE``
declares the inputs each subcommand reads: only those are accepted as
options (plus --out), passed to its handler and recorded in the header; a
spec is read once and recorded by its sha256.  Rows are ordered by check
name and identical inputs produce byte-identical reports.  Exit status: 0
all checks pass, 1 any check failed, 2 malformed input or a report that
cannot be written, 3 a rank decision refused inside its guard band.
Written reports are strict JSON: a non-finite number is spelled "inf",
"-inf" or "nan", and each row's pass flag is decided on the float.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real

import numpy as np

from . import __version__, algebra, cauchy, clifford, geometry, octospin, orbits
from .geometry import _worst
from .linalg import RankAmbiguityError


@dataclass(frozen=True)
class RunSpec:
    """One verification run: a subcommand and its inputs (others are ignored)."""

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


def _cmd_algebra_selfcheck(seed: int, tol: float) -> list[dict]:
    rng = np.random.default_rng(seed)
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
    # every pair of generators, composed as signed permutations
    relations = [clifford.relation_residual(*clifford.signed_permutations(p, q),
                                            clifford.signature_eta(p, q))
                 for p, q in ((4, 3), (10, 1))]
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


def _cmd_clifford_table() -> list[dict]:
    rows = []
    for n in range(0, 9):
        for p in range(n + 1):
            q = n - p
            got = clifford.classify(p, q).label
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


def _cmd_orbit_report() -> list[dict]:
    rows = []
    for name, coeffs, stab, orbit, label in _ORBIT_REFERENCE:
        model = orbits.get_model(name)
        s = np.asarray(coeffs, dtype=float)
        got_orbit = model.orbit_dimension(s)
        got_stab = model.group_dim - got_orbit
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


def _cmd_triality_check(seed: int, tol: float) -> list[dict]:
    rng = np.random.default_rng(seed)

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


def _load_metric(spec: dict | None):
    if spec is None:
        raise SpecError("--spec with a metric description is required")
    try:
        return geometry.metric_from_spec(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad metric spec: {exc}") from exc


def _probe_points(m, seed: int, count: int) -> np.ndarray:
    try:
        return geometry.probe_points(m, seed, count=count)
    except RuntimeError as exc:
        raise SpecError(f"metric degenerate across the probe box: {exc}") from exc


def _cmd_metric_verify(spec: dict | None, seed: int, tol: float) -> list[dict]:
    m = _load_metric(spec)
    pts = _probe_points(m, seed, count=5)
    ac = geometry.adapted_coframe(m, pts)
    gram = _worst(ac.gram_residual)
    torsion = _worst(ac.torsion_residual)
    skew = _worst(ac.skew_residual)
    member = _worst(ac.membership_residual)
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
    found = geometry._signature(m.components(np.zeros(m.n)))
    rows.append(_row("metric signature",
                     "normal form has the family's split signature",
                     found == m.signature,
                     computed=list(found), expected=list(m.signature)))
    for cname, res in sorted(geometry.constraint_check(m, pts).items()):
        rows.append(_residual_row(
            f"constraint {cname}",
            "profile functions satisfy the family constraint equations",
            res, max(tol, 1e-12)))
    curv = _worst(np.abs(geometry.riemann_numeric(m, pts)).max(axis=(1, 2, 3, 4)))
    rows.append(_magnitude_row("curvature magnitude",
                               "largest jet curvature component over the probe points",
                               curv))
    return rows


def _cmd_ricci_compare(spec: dict | None, seed: int, tol: float) -> list[dict]:
    m = _load_metric(spec)
    pts = _probe_points(m, seed, count=5)
    try:
        form = geometry.ricci_paper(m, pts)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    num = geometry.ricci_numeric(m, pts)
    scales = np.abs(num).max(axis=(1, 2))
    # fmax, as the builtin max(1.0, scale), reads a NaN scale as 1.0
    residuals = np.abs(num - form).max(axis=(1, 2)) / np.fmax(1.0, scales)
    return [
        _residual_row("closed form vs jet ricci",
                      "closed-form Ricci display agrees with jet curvature",
                      _worst(residuals), tol),
        _magnitude_row("ricci magnitude", "largest Ricci component over the probe points",
                       _worst(scales)),
    ]


def _cmd_holonomy_estimate(spec: dict | None, seed: int, tol: float) -> list[dict]:
    m = _load_metric(spec)
    est = geometry.holonomy_span(m, _probe_points(m, seed, count=3))
    rows = [
        _row("curvature span dimension",
             "bracket-closed span of curvature operators (holonomy estimate)",
             est.span_dim <= est.stabilizer_dim,
             dimension=est.span_dim, stabilizer=est.stabilizer_dim,
             generators=est.generator_count, sweeps=est.sweeps),
        _residual_row("curvature membership",
                      "curvature operators lie in the stabilizer subalgebra",
                      est.membership_residual, tol),
    ]
    return rows


# -- cauchy -------------------------------------------------------------------


def _builtin_cauchy_tables(p: int):
    """Constraint-satisfying rational data for p in {1, 2, 3}."""
    if p == 1:
        return [{(2, 0): Fraction(1, 3), (1, 0): Fraction(-1, 2)}], \
               [{(3, 0): Fraction(2, 7)}]
    if p == 2:
        phi = cauchy.JetSeries(5, 9, {
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
        psi = cauchy.JetSeries(5, 9, {
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
        profiles = geometry.quadratic_profile_functions(h4, np.zeros((3, 3)))
        atabs = [{e[1:]: c for e, c in f.terms.items()} for f in profiles]
        for table, (i, j) in zip(atabs, geometry.symmetric_pairs(3)):
            table[tuple(2 if v == i else 0 for v in range(6))] = Fraction(1, 3 + i + j)
        return atabs, None
    raise SpecError("built-in data covers p in {1, 2, 3}")


def _cmd_cauchy_solve(spec: dict | None, tol: float, order: int | None,
                      p: int | None) -> list[dict]:
    if spec is not None:
        given = " and ".join(f"{k} = {v}" for k, v in (("p", p), ("order", order))
                             if v is not None)
        if given:
            raise SpecError(f"{given} given with a spec, which carries its own p and order")
        try:
            data = cauchy.cauchy_data_from_spec(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad initial data: {exc}") from exc
    else:
        p = 2 if p is None else p
        atabs, btabs = _builtin_cauchy_tables(p)
        try:
            data = cauchy.cauchy_data(p, 6 if order is None else order, atabs, btabs)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    data_res = data.max_constraint_residual()
    rows = [_residual_row(
        "initial data constraints",
        "divergence constraints of the initial profile and velocity",
        data_res, tol)]
    if data_res > tol:
        return rows
    # the tolerance has decided on the data; the solver need not re-check it
    f = cauchy.solve_ricci_ivp(data, check_constraints=False)
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


def _cmd_curvature_space() -> list[dict]:
    null = geometry.normal_form("M101")
    got = geometry.curvature_space_dim(null.stabilizer, null.gram)
    rows = [_row(
        "null-spinor stabilizer curvature space",
        "first Bianchi kernel of the eleven-dimensional stabilizer has "
        "dimension 325", got == 325, dimension=got, expected=325)]
    ref = geometry.curvature_space_dim(geometry.so_basis(4), np.eye(4))
    rows.append(_row(
        "rotation algebra reference",
        "first Bianchi kernel of so(4) has dimension 20",
        ref == 20, dimension=ref, expected=20))
    return rows


# subcommand -> (handler, the inputs it takes as keywords, default tolerance
# or None when it reads no tol)
_COMMAND_TABLE = {
    "algebra-selfcheck": (_cmd_algebra_selfcheck, ("seed", "tol"), 1e-12),
    "clifford-table": (_cmd_clifford_table, (), None),
    "orbit-report": (_cmd_orbit_report, (), None),
    "triality-check": (_cmd_triality_check, ("seed", "tol"), 1e-9),
    "metric-verify": (_cmd_metric_verify, ("spec", "seed", "tol"), 1e-9),
    "ricci-compare": (_cmd_ricci_compare, ("spec", "seed", "tol"), 1e-7),
    "holonomy-estimate": (_cmd_holonomy_estimate, ("spec", "seed", "tol"), 1e-8),
    "cauchy-solve": (_cmd_cauchy_solve, ("spec", "tol", "order", "p"), 0.0),
    "curvature-space": (_cmd_curvature_space, (), None),
}
COMMANDS = tuple(_COMMAND_TABLE)
DEFAULT_TOLS = {name: tol for name, (_, _, tol) in _COMMAND_TABLE.items()
                if tol is not None}
# input -> (header key, option, argparse keywords); each option's dest is the
# RunSpec field, and the spec is recorded by its sha256
_INPUTS = {
    "spec": ("spec_sha256", "--spec", {"dest": "spec_path", "help": "JSON input description"}),
    "seed": ("seed", "--seed", {"type": int}),
    "tol": ("tolerance", "--tol", {"type": float}),
    "order": ("order", "--order", {"type": int}),
    "p": ("p", "--p", {"type": int}),
}


def _read_spec(path: str | os.PathLike, report: dict) -> dict:
    """The JSON object at ``path``, read once; its sha256 goes into ``report``.

    A path that is not a string or path-like is refused before ``open``,
    which would take an int or a bool for a file descriptor to read and close.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise SpecError(f"spec path must be a string or a path, got {path!r}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        report["spec_sha256"] = hashlib.sha256(raw).hexdigest()
        spec = json.loads(raw.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecError(f"cannot read spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError(f"spec must be a JSON object, got {type(spec).__name__}")
    return spec


def _check_seed_and_tol(args: dict) -> None:
    """Refuse a seed, order or p that is not an integer, a negative seed, and a
    tolerance that is not a number, NaN or negative; a bool is neither."""
    seed, tol = args.get("seed", 0), args.get("tol", 0.0)
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise SpecError(f"seed must be a nonnegative integer, got {seed!r}")
    for name, val in (("order", args.get("order")), ("p", args.get("p"))):
        if val is not None and (isinstance(val, bool) or not isinstance(val, Integral)):
            raise SpecError(f"{name} must be an integer, got {val!r}")
    # NaN compares false, so it is refused with the negative values
    if isinstance(tol, bool) or not (isinstance(tol, Real) and tol >= 0):
        raise SpecError(f"tolerance must be a nonnegative number, got {tol!r}")


def run_command(rs: RunSpec) -> tuple[dict, int]:
    """Execute one verification run; returns (report, exit status).

    The handler gets, and the header records, only the inputs it reads.
    """
    handler, inputs, _ = _COMMAND_TABLE[rs.command]
    report = {
        "command": rs.command,
        "version": __version__,
        "octonion_table_checksum": algebra.octonion_table_checksum(),
    }
    args = {name: rs.tolerance if name == "tol" else getattr(rs, name)
            for name in inputs if name != "spec"}
    report.update((_INPUTS[name][0], val) for name, val in args.items() if val is not None)
    try:
        _check_seed_and_tol(args)
        if "spec" in inputs:
            args["spec"] = None if rs.spec_path is None else _read_spec(rs.spec_path, report)
        # a non-finite value fails its row, so numpy's warnings about it are noise
        with np.errstate(all="ignore"):
            checks = handler(**args)
    except SpecError as exc:
        report["error"] = str(exc)
        return report, 2
    except RankAmbiguityError as exc:
        report["error"] = f"rank refused: {exc}"
        return report, 3
    report["checks"] = sorted(checks, key=lambda row: row["name"])
    report["pass"] = all(row["pass"] for row in checks)
    return report, 0 if report["pass"] else 1


def _strict_json(value):
    """``value`` with each non-finite float spelled "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {key: _strict_json(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(val) for val in value]
    if isinstance(value, float) and not np.isfinite(value):
        return str(value)
    return value


def _write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(_strict_json(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
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
    for name, (_, inputs, _) in _COMMAND_TABLE.items():
        # an option left out is left to its RunSpec default
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        for key in inputs:
            _, option, kwargs = _INPUTS[key]
            cmd.add_argument(option, **kwargs)
        cmd.add_argument("--out", dest="out_path",
                         help="report path (default: stdout)")
    return parser


def main(argv=None) -> int:
    rs = RunSpec(**vars(build_parser().parse_args(argv)))
    report, status = run_command(rs)
    try:
        _write_report(report, rs.out_path)
    except OSError as exc:
        print(f"spinorlab: cannot write the report to {rs.out_path or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
