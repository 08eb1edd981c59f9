"""Octonionic Clifford maps, triality triples, and the (10,1) spinor action."""

import zlib

import numpy as np
import pytest
from scipy.linalg import expm

from spinorlab.algebra import (
    CONJ_MATRIX,
    left_mult_matrix,
    octonion_basis,
    octonion_conj,
    octonion_inner,
    octonion_mul,
    octonion_norm_sq,
    right_mult_matrix,
)
from spinorlab.octospin import (
    GRAM_10_1,
    Spin101Element,
    TrialityTriple,
    bracket_element,
    clifford_map_mx,
    compose_triples,
    derive_middle_component,
    element_from_coefficients,
    generator_triple,
    null_spinor,
    null_stabilizer_basis,
    null_stabilizer_dimension,
    orbit_dimension_10_1,
    p_invariant,
    random_triple,
    sample_element,
    sigma_10_1,
    spin101_basis,
    spin101_element,
    spinor_action_matrix,
    stabilizer_dimension_10_1,
    template_span,
    timelike_spinor,
    timelike_stabilizer_dimension,
    triality_apply,
    triality_triple,
    triple_algebra_basis,
    triple_residual,
    unit_stabilizer_basis,
    vector_inner_10_1,
)
from spinorlab.linalg import span_dimension


def _rng(salt):
    return np.random.default_rng(zlib.crc32(repr(("octospin", salt)).encode()))


def _random_octonion(rng, scale=1.0):
    return scale * rng.standard_normal(8)


class TestCliffordMap:
    def test_square_is_minus_norm(self):
        rng = _rng("mx-square")
        for _ in range(100):
            x = _random_octonion(rng)
            m = clifford_map_mx(x)
            assert np.abs(m @ m + octonion_norm_sq(x) * np.eye(16)).max() < 1e-12

    def test_anticommutator_is_polarized_inner(self):
        rng = _rng("mx-anticomm")
        for _ in range(50):
            x, y = _random_octonion(rng), _random_octonion(rng)
            mx, my = clifford_map_mx(x), clifford_map_mx(y)
            target = -2.0 * octonion_inner(x, y) * np.eye(16)
            assert np.abs(mx @ my + my @ mx - target).max() < 1e-12

    def test_composite_blocks_are_twisted_multiplications(self):
        # m_x m_y is block diagonal with blocks -L_xbar L_y and -R_xbar R_y.
        rng = _rng("mx-blocks")
        x, y = _random_octonion(rng), _random_octonion(rng)
        prod = clifford_map_mx(x) @ clifford_map_mx(y)
        xb = octonion_conj(x)
        assert np.abs(prod[:8, :8] + left_mult_matrix(xb) @ left_mult_matrix(y)).max() < 1e-12
        assert np.abs(prod[8:, 8:] + right_mult_matrix(xb) @ right_mult_matrix(y)).max() < 1e-12
        assert np.abs(prod[:8, 8:]).max() == 0.0

    def test_conjugation_intertwines_left_and_right(self):
        rng = _rng("mx-conj")
        for _ in range(20):
            x = _random_octonion(rng)
            xb = octonion_conj(x)
            c = CONJ_MATRIX
            assert np.abs(c @ left_mult_matrix(x) @ c - right_mult_matrix(xb)).max() < 1e-12
            assert np.abs(c @ right_mult_matrix(x) @ c - left_mult_matrix(xb)).max() < 1e-12


class TestTrialityTriples:
    def test_generator_triples_are_valid(self):
        rng = _rng("gen-triples")
        for _ in range(20):
            t = generator_triple(_random_octonion(rng))
            assert triple_residual(*t.as_tuple()) < 1e-12

    def test_products_of_generators_are_valid(self):
        rng = _rng("triple-products")
        for _ in range(20):
            t = random_triple(rng, factors=4)
            assert triple_residual(*t.as_tuple()) < 1e-11

    def test_constructor_rejects_broken_triple(self):
        t = generator_triple(octonion_basis(1))
        g1 = t.g1.copy()
        g1[0, 0] += 1e-4
        with pytest.raises(ValueError):
            triality_triple(g1, t.g2, t.g3)

    def test_apply_rejects_broken_triple(self):
        t = generator_triple(octonion_basis(2))
        bad = TrialityTriple(t.g1 + 1e-4, t.g2, t.g3)
        with pytest.raises(ValueError):
            triality_apply("alpha", bad)

    def test_apply_rejects_unknown_operation(self):
        t = generator_triple(octonion_basis(1))
        with pytest.raises(ValueError):
            triality_apply("gamma", t)

    @pytest.mark.parametrize("op", ["alpha", "beta", "tau"])
    def test_outer_maps_preserve_validity(self, op):
        rng = _rng(f"outer-{op}")
        for _ in range(10):
            t = random_triple(rng)
            s = triality_apply(op, t)
            assert triple_residual(*s.as_tuple()) < 1e-11

    def test_involutions_and_order_three(self):
        rng = _rng("outer-orders")
        for _ in range(50):
            t = random_triple(rng)
            a2 = triality_apply("alpha", triality_apply("alpha", t))
            b2 = triality_apply("beta", triality_apply("beta", t))
            t3 = t
            for _ in range(3):
                t3 = triality_apply("tau", t3)
            for back in (a2, b2, t3):
                err = max(
                    np.abs(g - h).max()
                    for g, h in zip(back.as_tuple(), t.as_tuple())
                )
                assert err < 1e-9

    def test_composition_respects_identity(self):
        rng = _rng("triple-compose")
        t, s = random_triple(rng), random_triple(rng)
        assert triple_residual(*compose_triples(t, s).as_tuple()) < 1e-11


class TestTripleAlgebra:
    def test_dimension_and_integrality(self):
        kb = triple_algebra_basis()
        assert len(kb) == 28
        for t in kb:
            for a in t:
                assert np.abs(a - np.round(a)).max() == 0.0
                assert np.abs(a + a.T).max() == 0.0

    @pytest.mark.parametrize("component", [0, 1, 2])
    def test_each_projection_is_bijective(self, component):
        kb = triple_algebra_basis()
        mats = [t[component] for t in kb]
        assert span_dimension(mats, f"component {component}") == 28

    def test_exponentiated_elements_are_triples(self):
        rng = _rng("exp-triples")
        kb = triple_algebra_basis()
        for _ in range(10):
            c = 0.2 * rng.standard_normal(28)
            gs = tuple(expm(sum(ci * t[i] for ci, t in zip(c, kb))) for i in range(3))
            assert triple_residual(*gs) < 1e-11

    def test_unit_stabilizer_dimension(self):
        ub = unit_stabilizer_basis()
        assert len(ub) == 21
        for t in ub:
            assert np.abs(t[0][:, 0]).max() < 1e-12

    def test_derived_middle_matches_closure(self):
        for t in triple_algebra_basis():
            a2 = derive_middle_component(t[0], t[2])
            assert np.abs(a2 - t[1]).max() < 1e-10

    def test_incompatible_pair_rejected(self):
        # Left multiplication alone is not a derivation-compatible pair.
        with pytest.raises(ValueError):
            derive_middle_component(left_mult_matrix(octonion_basis(1)), np.zeros((8, 8)))

    def test_non_antisymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            derive_middle_component(np.eye(8), np.eye(8))


class TestTemplateAlgebra:
    def test_basis_count_and_span(self):
        basis = spin101_basis()
        assert len(basis) == 55
        assert template_span().dim == 55
        assert span_dimension([e.matrix for e in basis], "template") == 55

    def test_vector_action_is_gram_antisymmetric(self):
        for e in spin101_basis():
            assert np.abs(e.rho.T @ GRAM_10_1 + GRAM_10_1 @ e.rho).max() < 1e-12

    def test_element_construction_from_pair(self):
        kb = triple_algebra_basis()
        e = spin101_element(kb[3][0], kb[3][2], x=0.5, yv=octonion_basis(2))
        assert isinstance(e, Spin101Element)
        assert np.abs(e.a2 - kb[3][1]).max() < 1e-10

    def test_element_rejects_incompatible_pair(self):
        with pytest.raises(ValueError):
            spin101_element(left_mult_matrix(octonion_basis(1)), np.zeros((8, 8)))

    def test_bracket_closure_and_homomorphism(self):
        rng = _rng("closure")
        for _ in range(50):
            m, n = sample_element(rng), sample_element(rng)
            br = bracket_element(m, n)
            direct = m.matrix @ n.matrix - n.matrix @ m.matrix
            assert np.abs(br.matrix - direct).max() < 1e-9
            assert np.abs(br.rho - (m.rho @ n.rho - n.rho @ m.rho)).max() < 1e-9

    def test_coefficient_roundtrip(self):
        rng = _rng("coeff-roundtrip")
        c = rng.standard_normal(55)
        e = element_from_coefficients(c)
        assert np.abs(template_span().coefficients(e.matrix) - c).max() < 1e-10


class TestSquaringMap:
    def test_reference_values(self):
        z0 = null_spinor()
        assert np.allclose(sigma_10_1(z0), np.eye(11)[0])
        assert p_invariant(z0) == 0.0
        assert p_invariant(timelike_spinor()) == pytest.approx(1.0)

    def test_first_pair_spinors_have_zero_invariant(self):
        rng = _rng("first-pair")
        for _ in range(30):
            z = np.zeros(32)
            z[:16] = rng.standard_normal(16)
            assert abs(p_invariant(z)) < 1e-12 * max(1.0, np.linalg.norm(z)) ** 4

    def test_square_norm_is_minus_four_p(self):
        rng = _rng("sigma-norm")
        for _ in range(200):
            z = rng.standard_normal(32)
            s = sigma_10_1(z)
            scale = max(1.0, np.linalg.norm(z)) ** 4
            assert abs(vector_inner_10_1(s, s) + 4.0 * p_invariant(z)) < 1e-9 * scale

    def test_image_lies_in_forward_cone(self):
        rng = _rng("cone")
        for _ in range(500):
            z = rng.standard_normal(32)
            s = sigma_10_1(z)
            scale = max(1.0, np.linalg.norm(z)) ** 4
            assert s[0] >= 0.0 and s[2] >= 0.0
            assert vector_inner_10_1(s, s) <= 1e-10 * scale

    def test_equivariance(self):
        rng = _rng("equivariance")
        for _ in range(50):
            m = sample_element(rng)
            z = rng.standard_normal(32)
            lhs = sigma_10_1(expm(m.matrix) @ z)
            rhs = expm(m.rho) @ sigma_10_1(z)
            assert np.abs(lhs - rhs).max() < 1e-8 * max(1.0, np.linalg.norm(z)) ** 2

    def test_p_is_invariant(self):
        rng = _rng("p-invariant")
        for _ in range(200):
            m = sample_element(rng)
            z = rng.standard_normal(32)
            moved = expm(m.matrix) @ z
            scale = max(1.0, np.linalg.norm(z), np.linalg.norm(moved)) ** 4
            assert abs(p_invariant(moved) - p_invariant(z)) < 1e-9 * scale

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            sigma_10_1(np.zeros(16))


class TestStabilizers:
    def test_null_stabilizer_is_thirty(self):
        assert null_stabilizer_dimension() == 30
        assert orbit_dimension_10_1(null_spinor()) == 25

    def test_null_template_kills_spinor(self):
        z0 = null_spinor()
        basis = null_stabilizer_basis()
        assert len(basis) == 30
        for e in basis:
            assert np.abs(e.matrix @ z0).max() < 1e-12

    def test_timelike_stabilizer_is_twentyfour(self):
        assert timelike_stabilizer_dimension() == 24
        assert orbit_dimension_10_1(timelike_spinor()) == 31

    def test_stabilizer_constant_on_null_orbit(self):
        rng = _rng("null-orbit")
        z = null_spinor()
        for _ in range(3):
            z = expm(sample_element(rng).matrix) @ z
        assert abs(p_invariant(z)) < 1e-9
        assert stabilizer_dimension_10_1(z) == 30

    def test_action_matrix_shape(self):
        assert spinor_action_matrix(null_spinor()).shape == (32, 55)
