"""Clifford generator relations, algebra types, spinor modules."""

import itertools

import numpy as np
import pytest

from spinorlab import clifford
from spinorlab.clifford import (
    classify,
    classify_even,
    clifford_generators,
    even_generators,
    relation_residual,
    signature_eta,
    signed_permutations,
    spin_representation,
)
from spinorlab.linalg import (
    constrained_span,
    orthonormal_span,
    projection_residual,
    real_flat,
    span_dimension,
)

# Independent oracle for the algebra type: classical table for definite
# signatures plus the tensor steps that double the block size.
_BASE_DEFINITE = {
    0: ("R", 1, False),
    1: ("C", 1, False),
    2: ("H", 1, False),
    3: ("H", 1, True),
    4: ("H", 2, False),
    5: ("C", 4, False),
    6: ("R", 8, False),
    7: ("R", 8, True),
    8: ("R", 16, False),
}


def expected_type(p, q):
    if p >= 1 and q >= 1:
        f, k, s = expected_type(p - 1, q - 1)
        return f, 2 * k, s
    if q == 0:
        if p <= 8:
            return _BASE_DEFINITE[p]
        f, k, s = expected_type(p - 8, 0)
        return f, 16 * k, s
    if q == 1:
        return "R", 1, True
    f, k, s = expected_type(q - 2, 0)
    return f, 2 * k, s


def expected_label(p, q):
    f, k, s = expected_type(p, q)
    base = f"{f}({k})"
    return f"{base}+{base}" if s else base


_SMALL = [(p, n - p) for n in range(0, 6) for p in range(n + 1)]


class TestGenerators:
    @pytest.mark.parametrize("p,q", [s for s in _SMALL if s != (0, 0)] + [(4, 3), (10, 1)])
    def test_anticommutation_relations(self, p, q):
        gens = clifford_generators(p, q)
        eta = signature_eta(p, q)
        n = gens[0].shape[0]
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                want = -2.0 * eta[i, j] * np.eye(n)
                assert np.allclose(gi @ gj + gj @ gi, want, atol=1e-12)

    @pytest.mark.parametrize("p,q", [(3, 0), (0, 5), (2, 2), (10, 1)])
    def test_generators_are_orthogonal_signed_permutations(self, p, q):
        for g in clifford_generators(p, q):
            assert np.allclose(g.T @ g, np.eye(g.shape[0]), atol=1e-14)
            assert np.all(np.isin(g, [-1.0, 0.0, 1.0]))
            assert np.all(np.sum(np.abs(g), axis=0) == 1)

    def test_matrix_sizes_stay_modest(self):
        assert clifford_generators(10, 1)[0].shape == (256, 256)
        assert clifford_generators(4, 3)[0].shape == (16, 16)
        for n in range(1, 12):
            for p in range(n + 1):
                size = clifford_generators(p, n - p)[0].shape[0]
                assert size <= 512


def _dense_reference(p, q):
    """The generators by dense np.kron, on the recursion of signed_permutations."""
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    d2 = np.array([[1.0, 0.0], [0.0, -1.0]])
    x2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    li = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    lj = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    base = {(0, 0): [], (1, 0): [j2], (0, 1): [d2], (0, 2): [d2, x2], (2, 0): [li, lj]}
    if (p, q) in base:
        return base[p, q]
    if p >= 1 and q >= 1:
        sub = _dense_reference(p - 1, q - 1)
        omega, eye = j2 @ x2, np.eye(sub[0].shape[0] if sub else 1)
        return ([np.kron(g, omega) for g in sub[: p - 1]] + [np.kron(eye, j2)]
                + [np.kron(g, omega) for g in sub[p - 1:]] + [np.kron(eye, x2)])
    a, b, sub = (li, lj, _dense_reference(0, p - 2)) if q == 0 else (
        d2, x2, _dense_reference(q - 2, 0))
    eye = np.eye(sub[0].shape[0])
    return [np.kron(eye, a), np.kron(eye, b)] + [np.kron(g, a @ b) for g in sub]


def _dense_relation_residual(gens, eta):
    eye = np.eye(gens[0].shape[0])
    return max(np.abs(gi @ gj + gj @ gi + 2.0 * eta[i, j] * eye).max()
               for i, gi in enumerate(gens) for j, gj in enumerate(gens))


def _scatter(rows, signs):
    n, size = rows.shape
    gens = np.zeros((n, size, size))
    gens[np.arange(n)[:, None], rows, np.arange(size)] = signs
    return gens


class TestSignedPermutations:
    @pytest.mark.parametrize("n", range(12))
    def test_scatter_equals_dense_kron_without_negative_zeros(self, n):
        for p in range(n + 1):
            gens = clifford_generators(p, n - p)
            want = _dense_reference(p, n - p)
            assert len(gens) == len(want) == n
            for g, w in zip(gens, want):
                assert g.shape == w.shape and np.array_equal(g, w)
                assert not np.any(np.signbit(g[g == 0.0]))

    def test_cached_and_read_only(self):
        first = signed_permutations(10, 1)
        assert signed_permutations(10, 1) is first
        assert first[0].shape == first[1].shape == (11, 256)
        for arr in first:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_negative_signature_rejected(self):
        with pytest.raises(ValueError):
            signed_permutations(-1, 2)

    @pytest.mark.parametrize("p,q", [(4, 3), (10, 1)])
    def test_relation_residual_matches_dense(self, p, q):
        eta = signature_eta(p, q)
        rows, signs = signed_permutations(p, q)
        got = relation_residual(rows, signs, eta)
        assert got == _dense_relation_residual(_scatter(rows, signs), eta) == 0.0

    @pytest.mark.parametrize("p,q", [(4, 3), (10, 1)])
    @pytest.mark.parametrize("corrupt", ["flip a sign", "swap two columns"])
    def test_relation_residual_matches_dense_on_corrupted_generators(self, p, q, corrupt):
        eta = signature_eta(p, q)
        rows, signs = (a.copy() for a in signed_permutations(p, q))
        if corrupt == "flip a sign":
            signs[3, 5] *= -1.0
        else:
            rows[2, [1, 6]] = rows[2, [6, 1]]
            signs[2, [1, 6]] = signs[2, [6, 1]]
        got = relation_residual(rows, signs, eta)
        assert got == _dense_relation_residual(_scatter(rows, signs), eta)
        assert got > 0.0


class TestClassification:
    @pytest.mark.parametrize("p,q", _SMALL)
    def test_small_signatures_match_classical_table(self, p, q):
        assert classify(p, q).label == expected_label(p, q)

    @pytest.mark.parametrize(
        "p,q", [(6, 0), (0, 6), (3, 3), (7, 0), (0, 7), (8, 0), (0, 8), (4, 4)]
    )
    def test_eight_dimensional_band(self, p, q):
        assert classify(p, q).label == expected_label(p, q)

    def test_octave_periodicity_and_lorentzian_case(self):
        assert classify(9, 0).label == expected_label(9, 0)  # C(16)
        assert classify(10, 1).label == "C(32)"

    def test_commutant_dim_matches_field(self):
        for p, q in [(2, 0), (1, 0), (0, 2), (3, 1)]:
            c = classify(p, q)
            assert c.commutant_dim == {"R": 1, "C": 2, "H": 4}[c.field]
            assert c.module_dim == c.k * c.commutant_dim

    def test_classification_is_deterministic(self):
        assert classify(5, 2) == classify(5, 2)


class TestEvenSubalgebra:
    @pytest.mark.parametrize("p,q", [s for s in _SMALL if s[0] >= 1])
    def test_even_part_drops_one_spacelike_direction(self, p, q):
        assert classify_even(p, q).label == expected_label(p - 1, q)

    @pytest.mark.parametrize("p,q", [(0, 2), (0, 3), (0, 4), (1, 2), (2, 3)])
    def test_even_part_swaps_roles_from_timelike_side(self, p, q):
        assert classify_even(p, q).label == expected_label(q - 1, p)

    def test_even_generators_generate_even_monomials(self):
        gens = clifford_generators(2, 2)
        pairs = even_generators(gens)
        # pair products reach every even-degree monomial
        got = span_dimension(
            [np.eye(4)]
            + pairs
            + [a @ b for a in pairs for b in pairs]
            + [pairs[0] @ pairs[1] @ pairs[2]],
            "even span",
        )
        assert got == 8  # half of dim Cl(2,2) = 16


_SPIN_DIMS = {
    (1, 0): 1,
    (2, 1): 2,
    (3, 1): 4,
    (3, 2): 4,
    (4, 2): 8,
    (4, 3): 8,
    (10, 1): 32,
}


class TestSpinRepresentation:
    @pytest.mark.parametrize("p,q", sorted(_SPIN_DIMS))
    def test_module_dimensions(self, p, q):
        rep = spin_representation(p, q)
        assert rep.dim == _SPIN_DIMS[p, q]
        assert rep.halved == ((p - q) % 8 in (1, 2))

    @pytest.mark.parametrize("p,q", sorted(_SPIN_DIMS))
    def test_one_shared_read_only_module(self, p, q):
        rep = spin_representation(p, q)
        assert spin_representation(p, q) is rep
        n, d = p + q, rep.dim
        assert d == rep.basis.shape[1]
        assert isinstance(rep.so_basis, np.ndarray)
        assert rep.so_basis.shape == (n * (n - 1) // 2, d, d)
        assert rep.so_index == tuple(itertools.combinations(range(n), 2))
        arrays = [rep.basis, rep.so_basis, rep.volume, rep.gens_restricted]
        for a in [a for a in arrays if a is not None] + rep.invariant_forms():
            assert not a.flags.writeable

    @pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (4, 3), (2, 2), (3, 3)])
    def test_rotation_generators_act_faithfully(self, p, q):
        rep = spin_representation(p, q)
        n = p + q
        assert span_dimension(rep.so_basis, "so image") == n * (n - 1) // 2

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (1, 1)])
    def test_vector_equivariance_at_generator_level(self, p, q):
        # [a, v.] = (ad_a v).  with a = (1/2) g_i g_j acting on vectors by
        # e_i -> eta_ii e_j, e_j -> -eta_jj e_i
        rep = spin_representation(p, q)
        eta = signature_eta(p, q)
        rng = np.random.default_rng(7)
        for a, (i, j) in zip(rep.so_basis, rep.so_index):
            v = rng.standard_normal(p + q)
            rv = np.zeros(p + q)
            rv[j] = eta[i, i] * v[i]
            rv[i] = -eta[j, j] * v[j]
            lhs = a @ rep.vector_action(v) - rep.vector_action(v) @ a
            assert np.allclose(lhs, rep.vector_action(rv), atol=1e-12)

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 3)])
    def test_chirality_operator(self, p, q):
        rep = spin_representation(p, q)
        w = rep.chirality()
        d = rep.dim
        assert np.allclose(w @ w, np.eye(d), atol=1e-12)
        for a in rep.so_basis:
            assert np.allclose(w @ a - a @ w, 0.0, atol=1e-12)
        v = np.arange(1.0, p + q + 1.0)
        gv = rep.vector_action(v)
        assert np.allclose(w @ gv + gv @ w, 0.0, atol=1e-12)
        plus, minus = rep.chiral_projectors()
        assert int(round(np.trace(plus))) == d // 2
        assert int(round(np.trace(minus))) == d // 2

    def test_halved_module_refuses_vector_action(self):
        rep = spin_representation(2, 1)
        with pytest.raises(ValueError):
            rep.vector_action(np.array([1.0, 0.0, 0.0]))

    def test_invariant_form_in_signature_4_3(self):
        rep = spin_representation(4, 3)
        forms = rep.invariant_forms()
        assert len(forms) == 1
        ev = np.linalg.eigvalsh(forms[0])
        assert int(np.sum(ev > 1e-10)) == 4
        assert int(np.sum(ev < -1e-10)) == 4
        # invariance under the full rotation image, not just the generators
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(len(rep.so_basis))
        a = sum(c * b for c, b in zip(coeffs, rep.so_basis))
        assert np.linalg.norm(a.T @ forms[0] + forms[0] @ a) < 1e-10

    @pytest.mark.parametrize("p,q", [(3, 0), (1, 2), (5, 2)])
    def test_central_volume_acts_as_plus_one(self, p, q):
        # the full product is tried first, so a central volume element
        # squaring to +I fixes the primitive idempotent's module
        rep = spin_representation(p, q)
        assert np.allclose(rep.volume, np.eye(rep.dim), atol=1e-12)


# ---------------------------------------------------------------------------
# Invariant spinor forms by two routes


def _symmetric_units(d):
    rows, cols = np.triu_indices(d)
    k = np.arange(rows.size)
    units = np.zeros((rows.size, d, d))
    units[k, rows, cols] = units[k, cols, rows] = 1.0
    return units


def _dense_forms(rep):
    """Oracle: one dense ``constrained_span`` of the symmetric units, unit Frobenius norm."""
    forms = constrained_span(
        _symmetric_units(rep.dim), [lambda e, a=a: a.T @ e + e @ a for a in rep.so_basis],
        "dense spinor form")
    return forms / np.linalg.norm(forms, axis=(1, 2))[:, None, None]


@pytest.mark.parametrize("p,q", [(3, 3), (4, 3), (4, 4), (7, 0), (8, 0)])
def test_spinor_forms_by_two_routes(p, q):
    rep = spin_representation(p, q)
    # the constraint triples hold the dense images, cell by cell
    t = clifford._form_constraints(rep.so_basis)
    images = np.column_stack([np.concatenate([real_flat(a.T @ e + e @ a) for a in rep.so_basis])
                              for e in _symmetric_units(rep.dim)])
    scattered = np.zeros(t.shape)
    np.add.at(scattered, (t.rows, t.cols), t.values)
    assert np.array_equal(scattered, images)
    forms, dense = rep.invariant_forms(), _dense_forms(rep)
    assert len(forms) == len(dense) >= 1
    for a, b in ((forms, dense), (dense, forms)):
        span = orthonormal_span(list(b), "forms")
        assert max(projection_residual(f, span) for f in a) <= 1e-12


def test_spin_10_1_has_no_form_and_needs_no_large_svd(svd_cells):
    clifford.spin_representation.cache_clear()
    rep = spin_representation(10, 1)
    assert rep.invariant_forms() == []
    # one dense solve would take a 56,320 x 528 SVD: 29.7 M cells
    assert 0 < max(svd_cells) <= 600_000


def test_modules_draw_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Clifford module drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for p, q in [(1, 0), (3, 0), (2, 2), (5, 2), (4, 3), (4, 4), (10, 1)]:
        assert classify(p, q).label == expected_label(p, q)
        assert classify_even(p, q).label == expected_label(p - 1, q)
        basis = spin_representation(p, q).basis
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
