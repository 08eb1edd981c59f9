"""Orbit-model tests: group structure, equivariance, dimensions, purity."""

import zlib
from functools import partial

import numpy as np
import pytest

from spinorlab import octospin, orbits
from spinorlab.orbits import (
    MODEL_NAMES,
    SQUARING_MODELS,
    get_model,
    is_pure,
    pure_spinor,
    spin_orbit_dimension,
    spin_stabilizer_dimension,
)


def _rng(name, salt=0):
    return np.random.default_rng(zlib.crc32(repr((name, salt)).encode()))


# ---------------------------------------------------------------------------
# Realization conventions, checked against Hamilton's quaternion product


def _hamilton(p, q):
    """Product of quaternions given by components (w, x, y, z), with ij = k."""
    w1, x1, y1, z1 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    w2, x2, y2, z2 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def _qmatmul(p, q):
    """Product of quaternion matrices of shapes (n, k, 4) and (k, m, 4)."""
    return _hamilton(p[:, :, None, :], q[None, :, :, :]).sum(axis=1)


def _qconj_t(p):
    return np.swapaxes(p, 0, 1) * np.array([1.0, -1.0, -1.0, -1.0])


def _qembed(p):
    """[[A, -B], [conj(B), conj(A)]] for p = A + B j; column 0 of a column's
    embedding is its C^{2n} coordinates (a, conj(b))."""
    p = np.asarray(p, dtype=float)
    a, b = p[..., 0] + 1j * p[..., 1], p[..., 2] + 1j * p[..., 3]
    return np.block([[a, -b], [b.conj(), a.conj()]])


class TestQuaternionRealization:
    def test_matrix_action_matches_embedding(self):
        # embed(M) acting on (a, conj b) coordinates is quaternion action,
        # and embed(M) is quaternion-linear in the models' sense
        rng = np.random.default_rng(8)
        m = rng.normal(size=(2, 2, 4))
        s = rng.normal(size=(2, 1, 4))
        lhs = _qembed(m) @ _qembed(s)[:, 0]
        rhs = _qembed(_qmatmul(m, s))[:, 0]
        assert np.max(np.abs(lhs - rhs)) < 1e-13
        assert np.max(np.abs(orbits._quaternion_linear(_qembed(m)))) < 1e-14

    def test_outer_square_embedding(self):
        # s s^* as a quaternion matrix equals z z^* + (jz)(jz)^*
        rng = np.random.default_rng(9)
        j4 = orbits._jmat(2)
        for _ in range(10):
            s = rng.normal(size=(2, 1, 4))
            z = _qembed(s)[:, 0]
            direct = _qembed(_qmatmul(s, _qconj_t(s)))
            via_z = orbits._quaternion_outer_embed(z, j4)
            assert np.max(np.abs(direct - via_z)) < 1e-12

    def test_indefinite_form_matches_quaternion_form(self):
        rng = np.random.default_rng(10)
        q = np.zeros((2, 2, 4))
        q[0, 0, 0], q[1, 1, 0] = 1.0, -1.0
        for _ in range(10):
            s = rng.normal(size=(2, 1, 4))
            z = _qembed(s)[:, 0]
            quat_val = _qmatmul(_qconj_t(s), _qmatmul(q, s))[0, 0, 0]
            embed_val = (z.conj() @ (orbits._Q41 @ z)).real
            assert abs(quat_val - embed_val) < 1e-12


# ---------------------------------------------------------------------------
# Closed forms of the vector squares and the SPIN51 pairing


def _skew4(m01, m02, m03, m12, m13, m23):
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1], m[0, 2], m[0, 3], m[1, 2], m[1, 3], m[2, 3] = m01, m02, m03, m12, m13, m23
    return m - m.T


def _qhermitian(a, c, b):
    """Embedding of the quaternion-Hermitian [[a, b], [b^*, c]]."""
    b = np.asarray(b, dtype=float)
    return _qembed([[[a, 0, 0, 0], b], [b * [1, -1, -1, -1], [c, 0, 0, 0]]])


# One vector per model, as a matrix of its vector space, and its square as
# computed through a general Pfaffian expansion and a quaternion-matrix
# determinant, independently of the closed forms.
FROZEN_SQUARES = {
    "SPIN32": (_skew4(0.5, -1.25, 2.0, 0.75, 1.25, -0.375).real, 2.8749999999999996),
    "SPIN6": (_skew4(0.5 + 1.25j, -0.75 + 0.5j, 1.5 - 0.25j,
                     1.5 + 0.25j, 0.75 + 0.5j, 0.5 - 1.25j), 4.937500000000002),
    "SPIN42": (_skew4(0.5 + 1.25j, -0.75 + 0.5j, 1.5 - 0.25j,
                      -1.5 - 0.25j, -0.75 - 0.5j, 0.5 - 1.25j), 1.3125000000000007),
    "SPIN33": (_skew4(0.5, -1.25, 2.0, 0.75, 1.5, 0.625).real, 3.687499999999999),
    "SPIN41": (_qhermitian(0.75, 0.75, [0.5, -1.25, 1.0, 0.25]), 2.3124999999999987),
    "SPIN51": (_qhermitian(1.5, -0.5, [0.25, 0.75, -1.0, 0.5]), 2.6250000000000004),
}
FROZEN_PAIRING_SPINOR = np.array([
    0.5 + 0.25j, -1.0 + 0.75j, 0.375 - 0.5j, 1.25 + 0.125j,
    -0.625 + 1.0j, 0.75 - 0.25j, 1.5 + 0.5j, -0.25 - 0.875j,
])
FROZEN_PAIRING = (-1.109375, -0.21875, -0.296875, 0.84375)


class TestClosedForms:
    @pytest.mark.parametrize("name", sorted(FROZEN_SQUARES))
    def test_vector_square_matches_frozen_value(self, name):
        model = get_model(name)
        m, frozen = FROZEN_SQUARES[name]
        value = model.vector_square(model.vector_space.coefficients(m))
        assert abs(value - frozen) <= 1e-14 * abs(frozen)

    def test_spin51_pairing_matches_frozen_value(self):
        pairing = get_model("SPIN51").orbit_invariant(FROZEN_PAIRING_SPINOR)["pairing"]
        assert np.max(np.abs(np.subtract(pairing, FROZEN_PAIRING))) <= (
            1e-14 * np.linalg.norm(FROZEN_PAIRING)
        )

    def test_spin51_pairing_is_the_quaternion_product(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            plus, minus = rng.normal(size=(2, 2, 1, 4))
            s = np.concatenate([_qembed(plus)[:, 0], _qembed(minus)[:, 0]])
            direct = _qmatmul(_qconj_t(minus), plus)[0, 0]
            pairing = get_model("SPIN51").orbit_invariant(s)["pairing"]
            assert np.max(np.abs(np.subtract(pairing, direct))) < 1e-13


# ---------------------------------------------------------------------------
# Model construction


class TestConstruction:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_group_dimension_is_so_dimension(self, name):
        model = get_model(name)
        n = sum(model.signature)
        assert model.group_dim == n * (n - 1) // 2
        assert len(model.lie_basis) == model.group_dim

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_vector_space_dimension(self, name):
        model = get_model(name)
        assert model.vector_space.dim == sum(model.signature)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_vector_form_signature(self, name):
        # polarize v.v on the coefficient basis and count eigenvalue signs
        model = get_model(name)
        d = model.vector_space.dim
        gram = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                ei = np.eye(d)[i]
                ej = np.eye(d)[j]
                gram[i, j] = 0.25 * (
                    model.vector_square(ei + ej) - model.vector_square(ei - ej)
                )
        vals = np.linalg.eigvalsh(gram)
        plus = int(np.count_nonzero(vals > 1e-10))
        minus = int(np.count_nonzero(vals < -1e-10))
        assert (plus, minus) == model.signature

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_sampled_elements_are_members(self, name, sample_group):
        model = get_model(name)
        rng = _rng(name, 1)
        for _ in range(10):
            g = sample_group(model, rng)
            assert model.membership_residual(g) < 1e-12

    def test_spin11_is_the_identity_component(self):
        # diag(-1, -1) keeps the blocks and has unit determinant, but lies
        # outside the identity component
        model = get_model("SPIN11")
        g = np.diag([-1.0, -1.0])
        assert model.membership_residual(g) >= 1.0
        with pytest.raises(ValueError):
            model.act_spinor(g, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("name", ["SPIN33", "SPIN51"])
    def test_singular_plus_block_is_not_a_member(self, name):
        # the contragredient block has no inverse to compare against
        model = get_model(name)
        g = np.eye(8)
        g[0, 0] = 0.0
        residual = model.membership_residual(g)
        assert np.isfinite(residual) and residual >= 1.0
        with pytest.raises(ValueError, match="not a group element"):
            model.act_spinor(g, model.sample_spinor(_rng(name, 3)))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_act_spinor_rejects_perturbed_elements(self, name, sample_group):
        model = get_model(name)
        rng = _rng(name, 2)
        g = sample_group(model, rng)
        noise = rng.normal(size=g.shape) * 1e-6
        s = model.sample_spinor(rng)
        with pytest.raises(ValueError):
            model.act_spinor(g + noise, s)


# ---------------------------------------------------------------------------
# Actions and invariants


# The invariants each model reports, in order; derived from the blocks,
# compactness, the pairing and the spinor form of the declaration.
INVARIANT_KEYS = {
    "SPIN2": ("norm_sq",),
    "SPIN11": ("pairing", "support"),
    "SPIN3": ("norm_sq",),
    "SPIN21": (),
    "SPIN4": ("norm_plus", "norm_minus", "support"),
    "SPIN31": (),
    "SPIN22": ("support",),
    "SPIN5": ("norm_sq",),
    "SPIN41": ("nu",),
    "SPIN32": (),
    "SPIN6": ("norm_sq",),
    "SPIN51": ("pairing", "support"),
    "SPIN42": ("nu",),
    "SPIN33": ("pairing", "support"),
}


class TestActions:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_vector_square_is_invariant(self, name, sample_group):
        model = get_model(name)
        rng = _rng(name, 3)
        for _ in range(20):
            g = sample_group(model, rng)
            v = rng.normal(size=model.vector_space.dim)
            before = model.vector_square(v)
            after = model.vector_square(model.act_vector(g, v))
            assert abs(after - before) <= 1e-10 * max(1.0, abs(before))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_orbit_invariants_constant_on_orbits(self, name, sample_group):
        model = get_model(name)
        rng = _rng(name, 4)
        for _ in range(15):
            s = model.sample_spinor(rng)
            ref = model.orbit_invariant(s)
            g = sample_group(model, rng)
            moved = model.orbit_invariant(model.act_spinor(g, s))
            for key, value in ref.items():
                if isinstance(value, str):
                    assert moved[key] == value
                else:
                    assert np.allclose(moved[key], value, atol=1e-10, rtol=1e-10)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_vector_action_is_linear_in_v(self, name, sample_group):
        model = get_model(name)
        rng = _rng(name, 5)
        g = sample_group(model, rng)
        v1 = rng.normal(size=model.vector_space.dim)
        v2 = rng.normal(size=model.vector_space.dim)
        lhs = model.act_vector(g, v1 + 2.0 * v2)
        rhs = model.act_vector(g, v1) + 2.0 * model.act_vector(g, v2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_invariant_keys_are_frozen(self, name):
        model = get_model(name)
        s = model.sample_spinor(_rng(name, 22))
        assert tuple(model.orbit_invariant(s)) == INVARIANT_KEYS[name]


# ---------------------------------------------------------------------------
# Squaring maps


class TestSquaring:
    def test_only_listed_models_have_squaring(self):
        for name in MODEL_NAMES:
            model = get_model(name)
            s = model.sample_spinor(_rng(name, 6))
            if name in SQUARING_MODELS:
                model.square_spinor(s)
            else:
                with pytest.raises(ValueError):
                    model.square_spinor(s)

    @pytest.mark.parametrize("name", SQUARING_MODELS)
    def test_squaring_equivariance(self, name, sample_group):
        model = get_model(name)
        rng = _rng(name, 7)
        for _ in range(200):
            s = model.sample_spinor(rng)
            g = sample_group(model, rng)
            lhs = model.square_spinor(model.act_spinor(g, s))
            rhs = model.act_vector(g, model.square_spinor(s))
            scale = max(1.0, float(np.linalg.norm(rhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    @pytest.mark.parametrize("name", ["SPIN21", "SPIN31", "SPIN22", "SPIN51"])
    def test_squares_are_null(self, name):
        model = get_model(name)
        rng = _rng(name, 8)
        for _ in range(50):
            s = model.sample_spinor(rng)
            s = s / np.linalg.norm(s)
            value = model.vector_square(model.square_spinor(s))
            assert abs(value) <= 1e-12

    def test_spin5_square_norm(self):
        # traceless projection of s s^* has v.v = |s|^4 / 2
        model = get_model("SPIN5")
        rng = _rng("SPIN5", 9)
        for _ in range(25):
            s = model.sample_spinor(rng)
            norm_sq = float(np.vdot(s, s).real)
            value = model.vector_square(model.square_spinor(s))
            assert abs(value - 0.5 * norm_sq**2) <= 1e-9 * norm_sq**2

    def test_spin41_square_timelike_iff_nonnull(self):
        # the quaternion determinant -v.v of sigma(s) equals nu(s)^2 / 4:
        # nonnegative, zero only on the null cone of the spinor form
        model = get_model("SPIN41")
        rng = _rng("SPIN41", 10)
        for _ in range(50):
            s = model.sample_spinor(rng)
            nu = model.orbit_invariant(s)["nu"]
            det_value = -model.vector_square(model.square_spinor(s))
            assert det_value >= -1e-12
            assert abs(det_value - 0.25 * nu**2) <= 1e-9 * max(1.0, nu**2)
        null_s = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        assert abs(model.vector_square(model.square_spinor(null_s))) <= 1e-12

    def test_spin31_square_is_forward_pointing(self):
        # s s^* is positive semidefinite: one nappe of the null cone
        model = get_model("SPIN31")
        rng = _rng("SPIN31", 11)
        for _ in range(20):
            s = model.sample_spinor(rng)
            m = model.vector_space.matrix(model.square_spinor(s))
            vals = np.linalg.eigvalsh(m)
            assert vals.min() >= -1e-12


# ---------------------------------------------------------------------------
# Stabilizer and orbit integers


STABILIZER_TABLE = [
    ("SPIN2", [1.0], 0, 1, "sphere"),
    ("SPIN11", [1.0, 1.0], 0, 1, "generic"),
    ("SPIN11", [1.0, 0.0], 0, 1, "chiral-plus"),
    ("SPIN3", [1.0, 0.0], 0, 3, "sphere"),
    ("SPIN21", [1.0, 0.0], 1, 2, "generic"),
    ("SPIN4", [1.0, 0.0, 1.0, 0.0], 0, 6, "generic"),
    ("SPIN4", [1.0, 0.0, 0.0, 0.0], 3, 3, "chiral-plus"),
    ("SPIN4", [0.0, 0.0, 1.0, 0.0], 3, 3, "chiral-minus"),
    ("SPIN31", [1.0, 0.0], 2, 4, "generic"),
    ("SPIN22", [1.0, 0.0, 1.0, 0.0], 2, 4, "generic"),
    ("SPIN22", [0.0, 0.0, 1.0, 0.0], 4, 2, "chiral-minus"),
    ("SPIN5", [1.0, 0.0, 0.0, 0.0], 3, 7, "sphere"),
    ("SPIN41", [1.0, 1.0, 0.0, 0.0], 3, 7, "null"),
    ("SPIN41", [1.0, 0.0, 0.0, 0.0], 3, 7, "positive"),
    ("SPIN41", [0.0, 1.0, 0.0, 0.0], 3, 7, "negative"),
    ("SPIN32", [1.0, 0.0, 0.0, 0.0], 6, 4, "generic"),
    ("SPIN6", [1.0, 0.0, 0.0, 0.0], 8, 7, "sphere"),
    ("SPIN51", [0, 1, 0, 0, 1, 0, 0, 0], 4, 11, "null-pair"),
    ("SPIN51", [1, 0, 0, 0, 1, 0, 0, 0], 3, 12, "generic"),
    ("SPIN51", [1, 0, 0, 0, 0, 0, 0, 0], 7, 8, "chiral-plus"),
    ("SPIN42", [1.0, 0.0, 0.0, 0.0], 8, 7, "positive"),
    ("SPIN42", [0.0, 0.0, 1.0, 0.0], 8, 7, "negative"),
    ("SPIN42", [1.0, 0.0, 1.0, 0.0], 8, 7, "null"),
    ("SPIN33", [1, 0, 0, 0, 1, 0, 0, 0], 8, 7, "generic"),
    ("SPIN33", [1, 0, 0, 0, 0, 1, 0, 0], 8, 7, "null-pair"),
    ("SPIN33", [1, 0, 0, 0, 0, 0, 0, 0], 11, 4, "chiral-plus"),
]


class TestOrbitIntegers:
    @pytest.mark.parametrize(
        "name,spinor,stab,orbit,label",
        STABILIZER_TABLE,
        ids=[f"{row[0]}-{row[4]}-{i}" for i, row in enumerate(STABILIZER_TABLE)],
    )
    def test_stabilizer_table(self, name, spinor, stab, orbit, label):
        model = get_model(name)
        s = np.asarray(spinor, dtype=float)
        assert model.orbit_dimension(s) == orbit
        assert model.stabilizer_dimension(s) == stab
        assert model.orbit_label(s) == label
        assert orbit + stab == model.group_dim

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_zero_spinor_is_fixed(self, name):
        model = get_model(name)
        zero = np.zeros(model.spinor_dim)
        assert model.stabilizer_dimension(zero) == model.group_dim
        assert model.orbit_dimension(zero) == 0
        assert model.orbit_label(zero) == "zero"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_random_report_is_consistent(self, name, monkeypatch):
        model = get_model(name)
        rng = _rng(name, 12)
        s = model.sample_spinor(rng)
        # the stabilizer is read off one rank decision: the kernel of the action
        labels = []
        rank = orbits.guarded_rank
        monkeypatch.setattr(orbits, "guarded_rank",
                            lambda m, label: labels.append(label) or rank(m, label))
        stab = model.stabilizer_dimension(s)
        assert len(labels) == 1
        assert stab + model.orbit_dimension(s) == model.group_dim

    def test_stabilizer_invariant_along_orbit(self, sample_group):
        model = get_model("SPIN51")
        rng = _rng("SPIN51", 13)
        s = np.array([0, 1, 0, 0, 1, 0, 0, 0], dtype=complex)
        for _ in range(5):
            s = model.act_spinor(sample_group(model, rng), s)
            assert model.stabilizer_dimension(s) == 4

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_generic_orbit_matches_clifford_module(self, name):
        # second route: the generic Clifford-module action of spin(p,q)
        model = get_model(name)
        p, q = model.signature
        real_dim = model.spinor_dim * (2 if model.complex_field else 1)
        rng = _rng(name, 21)
        for _ in range(3):
            s = model.sample_spinor(rng)
            module_spinor = rng.standard_normal(real_dim)
            assert model.orbit_dimension(s) == spin_orbit_dimension(p, q, module_spinor)


# ---------------------------------------------------------------------------
# Purity


class TestPurity:
    @pytest.mark.parametrize("sig", [(2, 1), (3, 2)])
    def test_odd_split_all_nonzero_pure(self, sig):
        rng = np.random.default_rng(16)
        dim = {(2, 1): 2, (3, 2): 4}[sig]
        for _ in range(5):
            assert is_pure(sig, rng.normal(size=dim))

    @pytest.mark.parametrize(
        "sig,dim", [((1, 1), 2), ((2, 2), 4), ((3, 3), 8)]
    )
    def test_even_split_chiral_iff_pure(self, sig, dim):
        rng = np.random.default_rng(17)
        half = dim // 2
        plus = np.concatenate([rng.normal(size=half), np.zeros(half)])
        minus = np.concatenate([np.zeros(half), rng.normal(size=half)])
        mixed = rng.normal(size=dim)
        assert is_pure(sig, plus)
        assert is_pure(sig, minus)
        assert not is_pure(sig, mixed)

    def test_zero_spinor_rejected(self):
        with pytest.raises(ValueError):
            is_pure((2, 2), np.zeros(4))

    @pytest.mark.parametrize("check, shape, dim", [
        (partial(is_pure, (2, 1)), (5,), 2),
        (partial(is_pure, (2, 2)), (3,), 4),
        (partial(is_pure, (4, 3)), (9,), 8),
        (partial(is_pure, (4, 4)), (8,), 16),
        (octospin.spinor_action_matrix, (31,), 32),
        (octospin.orbit_dimension_10_1, (32, 1), 32),
        (octospin.stabilizer_dimension_10_1, (33,), 32),
    ], ids=["is_pure-2-1", "is_pure-2-2", "is_pure-4-3", "is_pure-4-4",
            "spinor_action_matrix", "orbit_dimension_10_1", "stabilizer_dimension_10_1"])
    def test_spinor_shape_checked(self, check, shape, dim):
        with pytest.raises(ValueError, match=rf"spinor must have shape \({dim},\)"):
            check(np.ones(shape))

    def test_unsupported_signature_rejected(self):
        with pytest.raises(ValueError):
            is_pure((5, 4), np.ones(16))

    def test_4_3_pure_cone(self):
        s = pure_spinor((4, 3))
        assert is_pure((4, 3), s)
        # eigenvectors of the invariant form are as non-null as possible
        from spinorlab import clifford

        rep = clifford.spin_representation(4, 3)
        form = rep.invariant_forms()[0]
        vals, vecs = np.linalg.eigh(form)
        assert not is_pure((4, 3), vecs[:, -1])

    def test_4_3_pure_orbit_is_hypersurface(self):
        s = pure_spinor((4, 3))
        assert spin_orbit_dimension(4, 3, s) == 7
        assert spin_stabilizer_dimension(4, 3, s) == 14

    def test_4_4_purity_needs_chirality_and_nullity(self):
        rng = np.random.default_rng(18)
        s = pure_spinor((4, 4))
        assert is_pure((4, 4), s)
        assert not is_pure((4, 4), rng.normal(size=16))
        from spinorlab import clifford

        rep = clifford.spin_representation(4, 4)
        half = rep.half_spinor_bases()[0]
        forms = rep.invariant_forms()
        restricted = max(
            (half.T @ f @ half for f in forms), key=np.linalg.norm
        )
        vals, vecs = np.linalg.eigh(restricted)
        chiral_non_null = half @ vecs[:, -1]
        assert not is_pure((4, 4), chiral_non_null)

    def test_invariant_forms_solved_once_per_representation(self, monkeypatch):
        from spinorlab import clifford

        calls = []
        solve = clifford.block_kernel

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(clifford, "block_kernel", counted)
        clifford.spin_representation.cache_clear()
        s = pure_spinor((4, 4))
        assert is_pure((4, 4), s)
        assert is_pure((4, 4), s)
        assert len(calls) == 1

    def test_half_spinor_bases_solved_once_per_representation(self, monkeypatch):
        from spinorlab import clifford

        calls = []
        for module in (clifford, orbits):
            span = getattr(module, "orthonormal_span", None)
            if span is None:
                continue

            def counted(vectors, label="span", span=span):
                if "half-spinors" in label:
                    calls.append(label)
                return span(vectors, label)

            monkeypatch.setattr(module, "orthonormal_span", counted)
        clifford.spin_representation.cache_clear()
        s = pure_spinor((4, 4))
        for _ in range(3):
            assert is_pure((4, 4), s)
        assert len(calls) == 2

    def test_4_4_pure_orbit_dimension(self):
        s = pure_spinor((4, 4))
        assert spin_orbit_dimension(4, 4, s) == 7
        assert spin_stabilizer_dimension(4, 4, s) == 21

    def test_4_4_mixed_orbit_consistent(self):
        rng = np.random.default_rng(19)
        s = rng.normal(size=16)
        orbit = spin_orbit_dimension(4, 4, s)
        stab = spin_stabilizer_dimension(4, 4, s)
        assert orbit + stab == 28


# ---------------------------------------------------------------------------
# Model registry


class TestRegistry:
    def test_all_models_listed(self):
        assert len({get_model(name) for name in MODEL_NAMES}) == 14

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            get_model("SPIN99")

    def test_purity_signatures_are_frozen(self):
        # derived from the declared signatures; perfbench runs one purity op each
        assert orbits.PURITY_SIGNATURES == (
            (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))
