"""Orbit-model tests: group structure, equivariance, dimensions, purity."""

import zlib

import numpy as np
import pytest

from spinorlab.algebra import QMatrix, qdet2
from spinorlab import orbits
from spinorlab.orbits import (
    MODEL_NAMES,
    PIN_SWAP_MODELS,
    SQUARING_MODELS,
    get_model,
    is_pure,
    pure_spinor,
    quaternion_vector_embed,
    quaternion_vector_unembed,
    spin_orbit_dimension,
    spin_stabilizer_dimension,
)


def _rng(name, salt=0):
    return np.random.default_rng(zlib.crc32(repr((name, salt)).encode()))


# ---------------------------------------------------------------------------
# Realization conventions


class TestQuaternionRealization:
    def test_vector_embed_roundtrip(self):
        rng = np.random.default_rng(7)
        s = QMatrix.from_real(rng.normal(size=8), (2, 1))
        z = quaternion_vector_embed(s)
        back = quaternion_vector_unembed(z)
        assert (back - s).norm() < 1e-14

    def test_matrix_action_matches_embedding(self):
        # embed(M) acting on (a, conj b) coordinates is quaternion action
        rng = np.random.default_rng(8)
        m = QMatrix.from_real(rng.normal(size=16), (2, 2))
        s = QMatrix.from_real(rng.normal(size=8), (2, 1))
        lhs = m.embed() @ quaternion_vector_embed(s)
        rhs = quaternion_vector_embed(m @ s)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_outer_square_embedding(self):
        # s s^* as a quaternion matrix equals z z^* + (jz)(jz)^*
        rng = np.random.default_rng(9)
        j4 = orbits._jmat(2)
        for _ in range(10):
            s = QMatrix.from_real(rng.normal(size=8), (2, 1))
            z = quaternion_vector_embed(s)
            direct = (s @ s.conj_t()).embed()
            via_z = orbits._quaternion_outer_embed(z, j4)
            assert np.max(np.abs(direct - via_z)) < 1e-12

    def test_indefinite_form_matches_quaternion_form(self):
        rng = np.random.default_rng(10)
        q = QMatrix(np.diag([1.0, -1.0]).astype(complex))
        for _ in range(10):
            s = QMatrix.from_real(rng.normal(size=8), (2, 1))
            z = quaternion_vector_embed(s)
            quat_val = (s.conj_t() @ (q @ s)).a[0, 0].real
            embed_val = (z.conj() @ (orbits._Q41 @ z)).real
            assert abs(quat_val - embed_val) < 1e-12


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
    def test_sampled_elements_are_members(self, name):
        model = get_model(name)
        rng = _rng(name, 1)
        for _ in range(10):
            g = model.sample_group(rng)
            assert model.membership_residual(g) < 1e-12

    def test_spin11_is_the_identity_component(self):
        # diag(-1, -1) keeps the blocks and has unit determinant, but lies
        # outside the identity component
        model = get_model("SPIN11")
        g = np.diag([-1.0, -1.0])
        assert model.membership_residual(g) >= 1.0
        with pytest.raises(ValueError):
            model.act_spinor(g, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_act_spinor_rejects_perturbed_elements(self, name):
        model = get_model(name)
        rng = _rng(name, 2)
        g = model.sample_group(rng)
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
    def test_vector_square_is_invariant(self, name):
        model = get_model(name)
        rng = _rng(name, 3)
        for _ in range(20):
            g = model.sample_group(rng)
            v = model.sample_vector(rng)
            before = model.vector_square(v)
            after = model.vector_square(model.act_vector(g, v))
            assert abs(after - before) <= 1e-10 * max(1.0, abs(before))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_orbit_invariants_constant_on_orbits(self, name):
        model = get_model(name)
        rng = _rng(name, 4)
        for _ in range(15):
            s = model.sample_spinor(rng)
            ref = model.orbit_invariant(s)
            g = model.sample_group(rng)
            moved = model.orbit_invariant(model.act_spinor(g, s))
            for key, value in ref.items():
                if isinstance(value, str):
                    assert moved[key] == value
                else:
                    assert np.allclose(moved[key], value, atol=1e-10, rtol=1e-10)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_vector_action_is_linear_in_v(self, name):
        model = get_model(name)
        rng = _rng(name, 5)
        g = model.sample_group(rng)
        v1 = model.sample_vector(rng)
        v2 = model.sample_vector(rng)
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
    def test_squaring_equivariance(self, name):
        model = get_model(name)
        rng = _rng(name, 7)
        for _ in range(200):
            s = model.sample_spinor(rng)
            g = model.sample_group(rng)
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
        # qdet2 of sigma(s) equals nu(s)^2 / 4: nonnegative, zero only on
        # the null cone of the spinor form
        model = get_model("SPIN41")
        rng = _rng("SPIN41", 10)
        for _ in range(50):
            s = model.sample_spinor(rng)
            nu = model.orbit_invariant(s)["nu"]
            m = model.vector_space.matrix(model.square_spinor(s))
            det_value = qdet2(QMatrix.unembed(m, (2, 2)))
            assert det_value >= -1e-12
            assert abs(det_value - 0.25 * nu**2) <= 1e-9 * max(1.0, nu**2)
        null_s = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        m = model.vector_space.matrix(model.square_spinor(null_s))
        assert abs(qdet2(QMatrix.unembed(m, (2, 2)))) <= 1e-12

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
        report = model.orbit_report(np.asarray(spinor, dtype=float))
        assert report.stabilizer_dim == stab
        assert report.orbit_dim == orbit
        assert report.label == label
        assert report.orbit_dim + report.stabilizer_dim == model.group_dim

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_zero_spinor_is_fixed(self, name):
        model = get_model(name)
        zero = np.zeros(model.spinor_dim)
        assert model.stabilizer_dimension(zero) == model.group_dim
        assert model.orbit_dimension(zero) == 0
        assert model.orbit_label(zero) == "zero"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_random_report_is_consistent(self, name):
        model = get_model(name)
        rng = _rng(name, 12)
        report = model.orbit_report(model.sample_spinor(rng))
        assert report.orbit_dim + report.stabilizer_dim == model.group_dim

    def test_stabilizer_invariant_along_orbit(self):
        model = get_model("SPIN51")
        rng = _rng("SPIN51", 13)
        s = np.array([0, 1, 0, 0, 1, 0, 0, 0], dtype=complex)
        for _ in range(5):
            s = model.act_spinor(model.sample_group(rng), s)
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
# Pin swap


class TestPinSwap:
    @pytest.mark.parametrize("name", PIN_SWAP_MODELS)
    def test_swap_exchanges_chirality_labels(self, name):
        model = get_model(name)
        rng = _rng(name, 14)
        s = model.sample_spinor(rng)
        plus, minus = model.blocks
        chiral = s.copy()
        chiral[minus] = 0.0
        assert model.orbit_label(chiral) == "chiral-plus"
        assert model.orbit_label(model.pin_swap(chiral)) == "chiral-minus"

    @pytest.mark.parametrize("name", PIN_SWAP_MODELS)
    def test_swap_preserves_dimensions(self, name):
        model = get_model(name)
        rng = _rng(name, 15)
        s = model.sample_spinor(rng)
        swapped = model.pin_swap(s)
        assert model.orbit_dimension(s) == model.orbit_dimension(swapped)
        assert model.stabilizer_dimension(s) == model.stabilizer_dimension(
            swapped
        )

    def test_swap_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            get_model("SPIN21").pin_swap(np.array([1.0, 0.0]))


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
        half = orbits._half_spinor_basis(rep)[0]
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
        solve = clifford.invariant_symmetric_forms

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(clifford, "invariant_symmetric_forms", counted)
        orbits._cached_rep.cache_clear()
        s = pure_spinor((4, 4))
        assert is_pure((4, 4), s)
        assert is_pure((4, 4), s)
        assert len(calls) == 1

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
        assert len(orbits.all_models()) == 14

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            get_model("SPIN99")
