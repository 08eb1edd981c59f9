"""Octonion checks, and the orbit models' closed-form Pfaffian and
quaternion determinant.

The frozen multiplication table is re-derived here through an independent
quaternion model (complex 2x2 matrices) so the checked-in data cannot
drift silently.
"""

import numpy as np
import pytest

from spinorlab import algebra as al
from spinorlab import orbits
from spinorlab._octonion_table import TABLE

RNG = np.random.default_rng(20260814)

# -- independent reconstruction of the table --------------------------------

I2 = np.eye(2, dtype=complex)
QI = np.array([[1j, 0], [0, -1j]])
QJ = np.array([[0, 1], [-1, 0]], dtype=complex)
QK = QI @ QJ
QUAT = [I2, QI, QJ, QK]


def _qconj(m):
    return np.trace(m) * I2 - m


def _cd_mul(x, y):
    # (a, b)(c, d) = (a c - conj(d) b, d a + b conj(c))
    a, b = x
    c, d = y
    return (a @ c - _qconj(d) @ b, d @ a + b @ _qconj(c))


def _cd_basis(t):
    q = QUAT[t % 4]
    z = np.zeros((2, 2), dtype=complex)
    return (q, z) if t < 4 else (z, q)


def test_quaternion_model_consistency():
    assert np.allclose(QI @ QI, -I2)
    assert np.allclose(QJ @ QJ, -I2)
    assert np.allclose(QI @ QJ - QK, 0)
    assert np.allclose(QJ @ QK - QI, 0)


def test_frozen_table_matches_cayley_dickson():
    for s in range(8):
        for t in range(8):
            pa, pb = _cd_mul(_cd_basis(s), _cd_basis(t))
            hits = []
            for k in range(8):
                ba, bb = _cd_basis(k)
                for sign in (1, -1):
                    if np.allclose(pa, sign * ba) and np.allclose(pb, sign * bb):
                        hits.append((k, sign))
            assert len(hits) == 1, f"e{s} e{t} is not a signed basis element"
            assert hits[0] == TABLE[s][t]


# -- octonion identities -----------------------------------------------------


def _sample(n):
    return RNG.normal(size=(n, 8))


def test_norm_multiplicativity():
    x, y = _sample(1000), _sample(1000)
    lhs = al.octonion_norm_sq(al.octonion_mul(x, y))
    rhs = al.octonion_norm_sq(x) * al.octonion_norm_sq(y)
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-12


def test_conjugation_is_linear_reflection():
    x = _sample(200)
    expected = 2 * x[:, :1] * np.eye(8)[0] - x
    assert np.max(np.abs(al.octonion_conj(x) - expected)) == 0.0


def test_conjugation_reverses_products():
    x, y = _sample(200), _sample(200)
    lhs = al.octonion_conj(al.octonion_mul(x, y))
    rhs = al.octonion_mul(al.octonion_conj(y), al.octonion_conj(x))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("form", ["left", "right", "middle"])
def test_moufang_identities(form):
    x, y, z = _sample(1000), _sample(1000), _sample(1000)
    m = al.octonion_mul
    if form == "left":
        lhs = m(m(m(x, y), x), z)
        rhs = m(x, m(y, m(x, z)))
    elif form == "right":
        lhs = m(z, m(m(x, y), x))
        rhs = m(m(m(z, x), y), x)
    else:
        lhs = m(m(x, m(y, z)), x)
        rhs = m(m(x, y), m(z, x))
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=-1))
    assert np.max(np.max(np.abs(lhs - rhs), axis=-1) / scale) < 1e-12


def test_inverse_like_identity():
    x, y = _sample(500), _sample(500)
    lhs = al.octonion_mul(x, al.octonion_mul(al.octonion_conj(x), y))
    rhs = al.octonion_norm_sq(x)[:, None] * y
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_two_generated_subalgebras_associate():
    m = al.octonion_mul
    for trial in range(50):
        x, y = RNG.normal(size=8), RNG.normal(size=8)
        words = [x, y, m(x, y), m(y, x), m(x, x), m(m(x, y), y)]
        for a in words[:3]:
            for b in words:
                for c in words[:3]:
                    lhs = m(m(a, b), c)
                    rhs = m(a, m(b, c))
                    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(
                        1.0, np.max(np.abs(lhs))
                    )


def test_left_right_matrices_agree_with_products():
    for _ in range(50):
        x, y = RNG.normal(size=8), RNG.normal(size=8)
        assert np.allclose(al.left_mult_matrix(x) @ y, al.octonion_mul(x, y))
        assert np.allclose(al.right_mult_matrix(x) @ y, al.octonion_mul(y, x))


# -- a dense second route for the table ---------------------------------------

# (e_s e_t)_k = DENSE[s, t, k], built from TABLE without algebra's index arrays
DENSE = np.zeros((8, 8, 8))
for _s, _row in enumerate(TABLE):
    for _t, (_k, _sign) in enumerate(_row):
        DENSE[_s, _t, _k] = _sign


def test_products_equal_the_dense_contraction():
    rng = np.random.default_rng(29)
    x, y = rng.normal(size=(2, 300, 8))
    for i in range(50):
        assert np.array_equal(al.octonion_mul(x[i], y[i]),
                              np.einsum("s,t,stk->k", x[i], y[i], DENSE))
    assert np.array_equal(al.octonion_mul(x, y),
                          np.einsum("ns,nt,stk->nk", x, y, DENSE))
    # broadcast: each of 20 left factors against each of 30 right factors
    xb, yb = x[:20, None, :], y[None, :30, :]
    assert np.array_equal(al.octonion_mul(xb, yb),
                          np.einsum("...s,...t,stk->...k", xb, yb, DENSE))


def test_multiplication_matrices_equal_the_dense_contraction():
    rng = np.random.default_rng(30)
    for x in [*rng.normal(size=(50, 8)), *np.eye(8)]:
        assert np.array_equal(al.left_mult_matrix(x), np.einsum("s,stk->kt", x, DENSE))
        assert np.array_equal(al.right_mult_matrix(x), np.einsum("t,stk->ks", x, DENSE))


def test_unit_left_right_multiplication_is_orthogonal():
    for _ in range(100):
        x = RNG.normal(size=8)
        x /= np.sqrt(al.octonion_norm_sq(x))
        for mat in (al.left_mult_matrix(x), al.right_mult_matrix(x)):
            assert np.max(np.abs(mat.T @ mat - np.eye(8))) < 1e-12


def test_conjugation_swaps_left_and_right():
    c = al.CONJ_MATRIX
    for _ in range(100):
        x = RNG.normal(size=8)
        lhs = c @ al.left_mult_matrix(x) @ c
        rhs = al.right_mult_matrix(al.octonion_conj(x))
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_checksum_is_stable():
    assert al.octonion_table_checksum() == al.octonion_table_checksum()
    assert len(al.octonion_table_checksum()) == 64


# -- the quaternion subalgebra ------------------------------------------------

# Hamilton's table: e_s e_t = sign * e_k for (k, sign) = HAMILTON[s][t],
# with e_0..e_3 = 1, i, j, k.
HAMILTON = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
)


def test_scalar_quaternions_match_octonion_subalgebra():
    # e_0..e_3 of the octonion table multiply like 1, i, j, k
    for s in range(4):
        for t in range(4):
            k, sign = TABLE[s][t]
            assert k < 4
            assert (k, sign) == HAMILTON[s][t]
            prod = al.octonion_mul(al.octonion_basis(s), al.octonion_basis(t))
            assert np.max(np.abs(prod - sign * al.octonion_basis(k))) < 1e-14


# -- the orbit models' Pfaffian and quaternion determinant -------------------


def test_pfaffian_two_blocks():
    lam, mu = 2.5, -1.25
    a = np.zeros((4, 4))
    a[0, 1], a[1, 0] = lam, -lam
    a[2, 3], a[3, 2] = mu, -mu
    assert abs(orbits._pf_real(a) - lam * mu) < 1e-14


def test_pfaffian_squares_to_determinant():
    for _ in range(20):
        a = RNG.normal(size=(4, 4))
        a = a - a.T
        assert abs(orbits._pf_real(a) ** 2 - np.linalg.det(a)) < 1e-8 * max(
            1.0, abs(np.linalg.det(a))
        )


def test_pfaffian_congruence_with_unimodular():
    from scipy.linalg import expm

    for _ in range(20):
        a = RNG.normal(size=(4, 4))
        a = a - a.T
        g = expm(RNG.normal(size=(4, 4)) * 0.3)
        g /= np.linalg.det(g) ** 0.25
        lhs = orbits._pf_real(g @ a @ g.T)
        assert abs(lhs - orbits._pf_real(a)) < 1e-9 * max(1.0, abs(orbits._pf_real(a)))


def test_qdet2_on_squared_spinor_is_zero():
    # m embeds the quaternion s s^*, whose squared norm is half of m's
    for _ in range(50):
        z = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        m = orbits._quaternion_outer_embed(z, orbits._J4)
        assert abs(orbits._minus_qdet(m)) < 1e-10 * max(1.0, 0.5 * np.linalg.norm(m) ** 2)


def test_qdet2_diagonal():
    # the embedding of the quaternion diag(3, -2)
    m = np.diag([3.0, -2.0, 3.0, -2.0]).astype(complex)
    assert abs(orbits._minus_qdet(m) - 6.0) < 1e-14
