"""Acceptance battery: eleven numbered end-to-end checks.

Each check prints one PASS/FAIL line straight to the terminal and
enforces its own residual tolerances and wall-clock budget.  The battery
is the contract for the whole package: classification table, identity
suites, frozen orbit integers, curvature oracles, holonomy spans, the
exact evolution theorem and the eleven-dimensional assembly.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from spinorlab import algebra, cauchy, clifford, geometry, octospin, orbits

SEED = 20260814


@pytest.fixture(name="verdict")
def _verdict(capsys):
    """Context manager printing one PASS/FAIL line past the capture."""

    @contextmanager
    def criterion(num, label, budget=None):
        def emit(text):
            with capsys.disabled():
                print(f"criterion {num:2d} ({label}): {text}", flush=True)

        start = time.perf_counter()
        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            emit(f"FAIL over {budget}s budget")
            raise AssertionError(f"{label}: {elapsed:.1f}s exceeds {budget}s")
        emit(f"PASS [{elapsed:.1f}s]")

    return criterion


# -- 1: classification table --------------------------------------------------

_BASE_DEFINITE = {
    0: ("R", 1, False), 1: ("C", 1, False), 2: ("H", 1, False),
    3: ("H", 1, True), 4: ("H", 2, False), 5: ("C", 4, False),
    6: ("R", 8, False), 7: ("R", 8, True), 8: ("R", 16, False),
}


def _expected_label(p, q):
    def walk(p, q):
        if p >= 1 and q >= 1:
            f, k, s = walk(p - 1, q - 1)
            return f, 2 * k, s
        if q == 0:
            if p <= 8:
                return _BASE_DEFINITE[p]
            f, k, s = walk(p - 8, 0)
            return f, 16 * k, s
        if q == 1:
            return "R", 1, True
        f, k, s = walk(q - 2, 0)
        return f, 2 * k, s

    f, k, s = walk(p, q)
    return f"{f}({k})+{f}({k})" if s else f"{f}({k})"


def test_criterion_01_clifford_classification(verdict):
    with verdict(1, "clifford classification, 45 signatures", budget=60):
        for n in range(9):
            for p in range(n + 1):
                q = n - p
                got = clifford.classify(p, q).label
                assert got == _expected_label(p, q), (p, q, got)


# -- 2: algebraic identity suite ----------------------------------------------


def test_criterion_02_algebraic_identities(verdict):
    with verdict(2, "algebraic identity suite, 1000 samples", budget=30):
        rng = np.random.default_rng(SEED)
        m = algebra.octonion_mul
        x, y, z = (rng.normal(size=(1000, 8)) for _ in range(3))

        for lhs, rhs in (
            (m(m(m(x, y), x), z), m(x, m(y, m(x, z)))),
            (m(z, m(m(x, y), x)), m(m(m(z, x), y), x)),
            (m(m(x, m(y, z)), x), m(m(x, y), m(z, x))),
        ):
            scale = np.maximum(1.0, np.max(np.abs(rhs), axis=-1))
            assert np.max(np.max(np.abs(lhs - rhs), axis=-1) / scale) <= 1e-12

        nl = algebra.octonion_norm_sq(m(x, y))
        nr = algebra.octonion_norm_sq(x) * algebra.octonion_norm_sq(y)
        assert np.max(np.abs(nl - nr) / np.maximum(1.0, np.abs(nr))) <= 1e-12

        cl = algebra.octonion_conj(m(x, y))
        cr = m(algebra.octonion_conj(y), algebra.octonion_conj(x))
        assert np.max(np.abs(cl - cr)) <= 1e-12

        for p, q in ((4, 3), (10, 1)):
            gens = np.stack(clifford.clifford_generators(p, q))
            eta = clifford.signature_eta(p, q)
            v = rng.normal(size=(1000, p + q))
            w = rng.normal(size=(1000, p + q))
            mv = np.einsum("si,ijk->sjk", v, gens)
            mw = np.einsum("si,ijk->sjk", w, gens)
            inner = np.einsum("si,ij,sj->s", v, eta, w)
            anti = mv @ mw + mw @ mv
            anti += 2.0 * inner[:, None, None] * np.eye(gens.shape[1])
            scale = np.maximum(1.0, np.abs(inner))
            assert np.max(np.abs(anti).max(axis=(1, 2)) / scale) <= 1e-12

        for v in rng.normal(size=(1000, 8)):
            v[0] = 0.0
            lm = algebra.left_mult_matrix(v)
            res = np.abs(lm @ lm + algebra.octonion_norm_sq(v) * np.eye(8))
            assert res.max() <= 1e-12 * max(1.0, algebra.octonion_norm_sq(v))


# -- 3: orbit and stabilizer integers ----------------------------------------


def test_criterion_03_orbit_integers(verdict):
    with verdict(3, "orbit and stabilizer integers", budget=120):
        model = orbits.get_model("SPIN41")
        assert model.stabilizer_dimension(np.array([1.0, 1.0, 0.0, 0.0])) == 3

        model = orbits.get_model("SPIN51")
        null_pair = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        assert model.orbit_dimension(null_pair) == 11
        assert model.stabilizer_dimension(null_pair) == 4

        model = orbits.get_model("SPIN32")
        assert model.orbit_dimension(np.array([1.0, 0.0, 0.0, 0.0])) == 4

        pure = orbits.pure_spinor((4, 3))
        assert orbits.spin_orbit_dimension(4, 3, pure) == 7

        assert octospin.null_stabilizer_dimension() == 30
        assert octospin.timelike_stabilizer_dimension() == 24


# -- 4: squaring-map identities -----------------------------------------------


def test_criterion_04_squaring_identities(verdict, sample_group):
    with verdict(4, "squaring-map identities and equivariance"):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            z = rng.standard_normal(32)
            s = octospin.sigma_10_1(z)
            scale = max(1.0, np.linalg.norm(z)) ** 4
            norm_sq = octospin.vector_inner_10_1(s, s)
            assert abs(norm_sq + 4.0 * octospin.p_invariant(z)) <= 1e-9 * scale

        for name in orbits.SQUARING_MODELS:
            model = orbits.get_model(name)
            for _ in range(200):
                s = model.sample_spinor(rng)
                g = sample_group(model, rng)
                lhs = model.square_spinor(model.act_spinor(g, s))
                rhs = model.act_vector(g, model.square_spinor(s))
                scale = max(1.0, float(np.linalg.norm(rhs)))
                assert np.max(np.abs(lhs - rhs)) <= 1e-8 * scale

        from scipy.linalg import expm
        for _ in range(50):
            e = octospin.sample_element(rng)
            z = rng.standard_normal(32)
            lhs = octospin.sigma_10_1(expm(e.matrix) @ z)
            rhs = expm(e.rho) @ octospin.sigma_10_1(z)
            scale = max(1.0, np.linalg.norm(z)) ** 2
            assert np.abs(lhs - rhs).max() <= 1e-8 * scale


# -- 5: triality ---------------------------------------------------------------


def test_criterion_05_triality_orders(verdict):
    with verdict(5, "triality symmetry orders, 50 triples"):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            t = octospin.random_triple(rng)
            pairs = (
                (octospin.triality_alpha(octospin.triality_alpha(t)), t),
                (octospin.triality_beta(octospin.triality_beta(t)), t),
                (octospin.triality_tau(octospin.triality_tau(
                    octospin.triality_tau(t))), t),
            )
            for got, want in pairs:
                res = max(np.abs(a - b).max()
                          for a, b in zip(got.as_tuple(), want.as_tuple()))
                assert res <= 1e-9


# -- 6: closed-form Ricci oracle equivalence -----------------------------------


RICCI_FAMILIES = [("M22DEG", None), ("PUREODD", 1), ("PUREODD", 2),
                  ("PUREODD", 3), ("PUREEVEN", 1), ("PUREEVEN", 2),
                  ("PUREEVEN", 3)]


def _ricci_family_draw(family, p, rng):
    if family == "M22DEG":
        return geometry.build_metric(
            family, [geometry.random_polynomial(4, rng, degree=4, scale=0.2)])
    arity = 2 * p + (1 if family == "PUREODD" else 0)
    first_y = 1 + p if family == "PUREODD" else p
    fs = geometry.divergence_free_draw(
        p, arity, tuple(first_y + j for j in range(p)), rng,
        degree=3, scale=0.3)
    return geometry.build_metric(family, fs, p=p)


def test_criterion_06_ricci_closed_forms(verdict):
    with verdict(6, "closed-form Ricci vs jet curvature", budget=60):
        assert geometry.RICCI_CALIBRATION == {
            "PUREODD": -1.0, "PUREEVEN": -2.0, "M22DEG": -2.0,
            "M31": 0.5, "M41DEG": 1.0, "M51NULL": 0.5,
        }
        for case, (family, p) in enumerate(RICCI_FAMILIES):
            for draw in range(3):
                rng = np.random.default_rng(SEED + 37 * draw + case)
                m = _ricci_family_draw(family, p, rng)
                for pt in geometry.probe_points(m, SEED + draw, count=5):
                    num = geometry.ricci_numeric(m, pt)
                    form = geometry.ricci_paper(m, pt)
                    rel = np.abs(num - form).max() / max(1.0, np.abs(num).max())
                    assert rel <= 1e-7, (family, p, draw, rel)


# -- 7: harmonicity criteria ----------------------------------------------------


HARMONIC_CASES = [
    ("M31",
     {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (1, 1, 1): 0.5},
     {(2, 0, 0): 1.0, (0, 2, 0): 1.0}),
    ("M41DEG",
     {(0, 2, 0, 0): 1.0, (0, 0, 2, 0): -1.0, (2, 1, 0, 1): 0.3},
     {(0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0}),
    ("M51NULL",
     {(2, 0, 0, 0, 0): 1.0, (0, 2, 0, 0, 0): 1.0, (0, 0, 2, 0, 0): -1.0,
      (0, 0, 0, 2, 0): -1.0, (1, 0, 0, 1, 1): 0.4},
     {(2, 0, 0, 0, 0): 1.0, (0, 2, 0, 0, 0): 1.0}),
]


def test_criterion_07_harmonicity_both_directions(verdict):
    with verdict(7, "Ricci-flat iff harmonic profile"):
        for family, harmonic, witness in HARMONIC_CASES:
            arity = len(next(iter(harmonic)))
            m = geometry.build_metric(
                family, [cauchy.JetSeries(arity, 4, harmonic)])
            for pt in geometry.probe_points(m, SEED, count=3):
                assert np.abs(geometry.ricci_numeric(m, pt)).max() <= 1e-8
            m = geometry.build_metric(
                family, [cauchy.JetSeries(arity, 4, witness)])
            worst = max(np.abs(geometry.ricci_numeric(m, pt)).max()
                        for pt in geometry.probe_points(m, SEED + 1, count=3))
            assert worst >= 0.1, (family, worst)


# -- 8: holonomy spans -----------------------------------------------------------


def test_criterion_08_holonomy_spans(verdict):
    with verdict(8, "holonomy spans 0 / 4 / 14", budget=120):
        flat = geometry.build_metric(
            "M21", [cauchy.JetSeries(2, 1, {(1, 0): 0.8, (0, 1): 0.2})])
        est = geometry.holonomy_span(flat, geometry.probe_points(flat, SEED, count=3))
        assert est.span_dim == 0

        quartic = cauchy.JetSeries(4, 4, {
            (0, 0, 2, 2): 1.0, (0, 0, 4, 0): 1.0, (0, 0, 0, 4): -1.0,
            (0, 0, 3, 1): 1.0})
        m = geometry.build_metric("M22DEG", [quartic])
        est = geometry.holonomy_span(m, geometry.probe_points(m, SEED, count=3))
        assert est.span_dim == 4 == est.stabilizer_dim
        assert est.membership_residual <= 1e-9

        h4 = np.zeros((3, 3, 3, 3))
        pieces = [
            (1.0, np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 0.0, 1.0])),
            (1.0, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], float),
             np.diag([0.0, 0.0, 1.0])),
            (-1.0, np.diag([0.0, 1.0, -1.0]), np.diag([1.0, 0.0, 0.0])),
            (2.0, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], float),
             np.diag([1.0, 0.0, 0.0])),
            (1.0, np.diag([1.0, 0.0, -1.0]), np.diag([0.0, 1.0, 0.0])),
            (-1.0, np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], float),
             np.diag([0.0, 1.0, 0.0])),
            (1.0, np.diag([0.0, 0.0, 1.0]),
             np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], float)),
        ]
        for c, a, b in pieces:
            h4 += c * np.einsum("ij,kl->ijkl", a, b)
        # generic quadratic family needs the mixed trace to vanish
        assert np.abs(np.einsum("kjkl->jl", h4)).max() == 0.0
        h2 = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 1.0], [0.0, 1.0, 2.0]])
        fs = geometry.quadratic_profile_functions(h4, h2)
        m = geometry.build_metric("PUREODD", fs, p=3)
        est = geometry.holonomy_span(m, geometry.probe_points(m, SEED, count=3))
        assert est.span_dim == 14 == est.stabilizer_dim
        assert est.membership_residual <= 1e-9


# -- 9: formal curvature spaces ---------------------------------------------------


def test_criterion_09_curvature_space_dimensions(verdict):
    with verdict(9, "curvature space dimensions 325 and 20", budget=120):
        stab = [e.rho for e in octospin.null_stabilizer_basis()]
        assert geometry.curvature_space_dim(stab, octospin.GRAM_10_1) == 325
        assert geometry.curvature_space_dim(geometry.so_basis(4), np.eye(4)) == 20


# -- 10: exact evolution of the constraints ---------------------------------------


def test_criterion_10_cauchy_propagation(verdict):
    with verdict(10, "exact constraint propagation, p=2 order 6", budget=60):
        phi = cauchy.JetSeries(5, 9, {
            (0, 1, 0, 2, 1): Fraction(1, 2), (0, 0, 1, 1, 2): Fraction(1, 3),
            (0, 0, 0, 2, 2): Fraction(1, 5), (0, 1, 1, 3, 0): Fraction(-1, 4),
            (0, 0, 0, 0, 4): Fraction(1, 7)})
        a = [phi.diff(4).diff(4), -phi.diff(3).diff(4), phi.diff(3).diff(3)]
        atabs = [{e[1:]: c for e, c in s.terms.items()} for s in a]
        atabs[0][(2, 0, 0, 0)] = Fraction(1, 2)
        atabs[1][(1, 1, 0, 0)] = Fraction(1, 3)
        psi = cauchy.JetSeries(5, 9, {
            (0, 0, 1, 2, 0): Fraction(1, 6), (0, 1, 0, 1, 1): Fraction(-1, 2)})
        b = [psi.diff(4).diff(4), -psi.diff(3).diff(4), psi.diff(3).diff(3)]
        btabs = [{e[1:]: c for e, c in s.terms.items()} for s in b]
        data = cauchy.cauchy_data(2, 6, atabs, btabs)
        assert data.max_constraint_residual() == 0.0

        f = cauchy.solve_ricci_ivp(data)
        assert all(s.max_abs() == 0.0 for s in cauchy.constraint_residual(f, 2))
        ricci = cauchy.ricci_series(f, 2)
        assert all(s.order >= 4 for s in ricci)
        assert all(s.max_abs() == 0.0 for s in ricci)

        bad = cauchy.cauchy_data(1, 4, [{(0, 1): Fraction(1)}])
        with pytest.raises(ValueError):
            cauchy.solve_ricci_ivp(bad)
        g = cauchy.solve_ricci_ivp(bad, check_constraints=False)
        leading = cauchy.constraint_residual(g, 1)[0].z_coefficient(0)
        assert leading.max_abs() > 0


# -- 11: the eleven-dimensional assembly -------------------------------------------


def test_criterion_11_eleven_dimensional_assembly(verdict):
    with verdict(11, "flat-fiber assembly in eleven dimensions"):
        g = cauchy.JetSeries(2, 3, {
            (1, 0): 0.4, (0, 1): -0.3, (2, 0): 0.6,
            (1, 1): 0.2, (0, 2): -0.5, (2, 1): 0.15})
        m = geometry.build_metric("M101", [g])
        pts = geometry.probe_points(m, SEED, count=5)
        for pt in pts:
            assert geometry.adapted_coframe(m, pt).membership_residual <= 1e-9
        assert max(np.abs(geometry.ricci_numeric(m, pt)).max()
                   for pt in pts) > 0.01
        forms = geometry.parallel_forms_10_1(m)
        for name in ("dx3", "dx2^dx3"):
            for pt in pts:
                assert geometry.parallel_form_residual(m, pt, forms[name]) <= 1e-9
