from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_disquant import algebra
from dirac_disquant.covariant import (
    CovariantAux,
    f3_without_inner_factor,
    kinetic_term_matrix,
    lagrangian_pieces,
    quasi_uniformity,
    random_param_field,
    split_derivative,
)
from dirac_disquant.errors import DomainError, SingularDenominatorError
from dirac_disquant.minkowski import BASIS4, eps4, mdot


class TestSplitDerivative:
    def test_rest_frame(self):
        par, perp = split_derivative([1, 0, 0, 0], [3, 1, 2, 0])
        assert np.abs(par - [3, 0, 0, 0]).max() < 1e-14
        assert np.abs(perp - [0, 1, 2, 0]).max() < 1e-14

    def test_gradient_parallel_to_flux(self):
        j = np.array([2.0, 0.5, -0.3, 0.1])
        par, perp = split_derivative(j, 3.7 * j)
        assert np.abs(perp).max() < 1e-12

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=80, deadline=None)
    def test_recomposition_and_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3)
        j = np.concatenate(([np.sqrt(1.0 + v @ v) + rng.uniform(0.1, 1.0)], v))
        grad = rng.normal(size=4)
        par, perp = split_derivative(j, grad)
        assert np.abs(par + perp - grad).max() < 1e-12 * max(1, np.abs(grad).max())
        assert abs(mdot(j, perp)) < 1e-12 * np.abs(grad).max() * np.abs(j).max()

    def test_spacelike_flux_rejected(self):
        with pytest.raises(DomainError):
            split_derivative([0.1, 1, 0, 0], [1, 0, 0, 0])


class TestQuasiUniformity:
    def test_longitudinal_gradient_is_uniform(self):
        j = np.array([1.5, 0.3, 0.2, -0.1])
        assert quasi_uniformity(j, 0.8 * j, u=2.0, m=1.0, hbar=1.0) < 1e-12

    def test_transversal_hand_value(self):
        val = quasi_uniformity([1, 0, 0, 0], [0.0, 0.7, 0, 0], u=1.0, m=1.0, hbar=1.0)
        assert abs(val - 0.7) < 1e-14

    def test_homogeneity_in_u(self):
        j = np.array([1.2, 0.1, 0, 0])
        g = np.array([0.3, 0.5, -0.2, 0.1])
        assert abs(quasi_uniformity(j, g, 2.0, 1.0, 1.0)
                   - 0.5 * quasi_uniformity(j, g, 1.0, 1.0, 1.0)) < 1e-14

    def test_zero_u_rejected(self):
        with pytest.raises(DomainError):
            quasi_uniformity([1, 0, 0, 0], [0, 1, 0, 0], u=0.0, m=1.0, hbar=1.0)


class TestParamField:
    @pytest.mark.parametrize("seed", range(8))
    def test_n_is_unit_with_tangent_derivative(self, seed):
        fld = random_param_field(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        for _ in range(10):
            jet = fld.jet(rng.uniform(-0.5, 0.5, size=4))
            assert abs(np.linalg.norm(jet.params.n) - 1.0) < 1e-12
            for l in range(4):
                assert abs(np.dot(jet.params.n, jet.d_n[l])) < 1e-12

    def test_derivatives_match_finite_differences(self):
        fld = random_param_field(np.random.default_rng(3))
        x = np.array([0.1, -0.2, 0.3, 0.05])
        jet = fld.jet(x)
        h = 1e-6
        for l in range(4):
            step = np.zeros(4)
            step[l] = h
            pp = fld.params(x + step)
            pm = fld.params(x - step)
            assert abs((pp.amplitude - pm.amplitude) / (2 * h) - jet.d_amp[l]) < 1e-8
            assert abs((pp.kappa - pm.kappa) / (2 * h) - jet.d_kappa[l]) < 1e-8
            assert np.abs((pp.eta - pm.eta) / (2 * h) - jet.d_eta[l]).max() < 1e-8
            assert np.abs((pp.n - pm.n) / (2 * h) - jet.d_n[l]).max() < 1e-8


def constant_field(fld, c0):
    """fld with the six scalars constant at c0 and a constant n field."""
    return replace(fld, c0=c0, c1=np.zeros((6, 4)), c2=np.zeros((6, 4, 4)),
                   n_lin=np.zeros((3, 4)))


class TestLagrangianPieces:
    def test_constant_field(self):
        fld = constant_field(random_param_field(np.random.default_rng(1)),
                             [1.1, 0.7, 0.2, 0.5, -0.3, 0.8])
        pieces = lagrangian_pieces(fld, np.zeros(4), m=1.3, hbar=1.0)
        rho = 1.1 ** 2
        assert pieces.f1 == pieces.f2 == pieces.f3 == pieces.f4 == 0.0
        assert abs(pieces.l_cl + 1.3 * rho) < 1e-14
        assert abs(pieces.l_q1 - 2 * 1.3 * rho * np.sin(0.35) ** 2) < 1e-14
        assert pieces.l_q2 == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_dual_forms_agree(self, seed):
        fld = random_param_field(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 50)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=4)
            pc = lagrangian_pieces(fld, x, m=1.0, hbar=1.0)
            scale3 = max(abs(pc.f3), 1e-3)
            scale4 = max(abs(pc.f4), 1e-3)
            assert abs(pc.f3 - pc.f3_cov) / scale3 < 1e-10
            assert abs(pc.f4 - pc.f4_cov) / scale4 < 1e-10
            assert abs(pc.f4_cov - pc.f4_cov_q) / scale4 < 1e-10
            assert abs(pc.f3_cov - f3_without_inner_factor(fld, x, 1.0)) / scale3 < 1e-10

    def test_decomposition_identity(self):
        fld = random_param_field(np.random.default_rng(11))
        x = np.array([0.2, 0.1, -0.3, 0.4])
        pc = lagrangian_pieces(fld, x, m=0.9, hbar=1.2)
        p = fld.params(x)
        rho = p.amplitude ** 2
        total = pc.l_cl + pc.l_q1 + pc.l_q2
        assert abs(total - (-0.9 * rho * np.cos(p.kappa) + pc.kinetic_total)) < 1e-12

    def test_auxiliary_vectors_unit(self):
        fld = random_param_field(np.random.default_rng(7))
        p = fld.params(np.array([0.1, 0.2, -0.1, 0.3]))
        b = algebra.bilinears_closed_form(p)
        aux = CovariantAux.from_state(b.j, b.rho, p.xi, p.z)
        assert abs(mdot(aux.nu, aux.nu) + 1.0) < 1e-10
        assert abs(mdot(aux.q, aux.q) - 1.0) < 1e-10

    def test_antipodal_xi_z_rejected(self):
        with pytest.raises(SingularDenominatorError):
            CovariantAux.from_state(np.array([1.0, 0, 0, 0]), 1.0,
                                    np.array([0.0, 0, -1]), np.array([0.0, 0, 1]))


class TestKineticTermMatrix:
    def test_constant_field_vanishes(self):
        fld = constant_field(random_param_field(np.random.default_rng(2)),
                             [1.0, 0.1, 0.0, 0.4, 0.2, -0.6])
        g = algebra.build_gamma_basis(fld.z)
        assert abs(kinetic_term_matrix(fld, np.zeros(4), g, hbar=1.0)) < 1e-10

    def test_linear_phase_hand_value(self):
        fld = random_param_field(np.random.default_rng(5))
        k = np.array([0.3, -0.2, 0.1, 0.4])
        c0, c1, c2 = fld.c0.copy(), fld.c1.copy(), fld.c2.copy()
        c0[2], c1[2], c2[2] = 0.0, k, 0.0       # phi = k.x
        fld = replace(fld, c0=c0, c1=c1, c2=c2)
        x = np.array([0.1, 0.0, -0.1, 0.2])
        g = algebra.build_gamma_basis(fld.z)
        fd = kinetic_term_matrix(fld, x, g, hbar=1.0)
        pc = lagrangian_pieces(fld, x, m=1.0, hbar=1.0)
        b = algebra.bilinears_closed_form(fld.params(x))
        assert abs(pc.f1 + float(b.j @ k)) < 1e-14
        assert abs(fd - pc.kinetic_total) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_closed_forms(self, seed):
        fld = random_param_field(np.random.default_rng(seed + 30))
        g = algebra.build_gamma_basis(fld.z)
        x = np.random.default_rng(seed).uniform(-0.4, 0.4, size=4)
        fd = kinetic_term_matrix(fld, x, g, hbar=1.0, h=1e-4)
        pc = lagrangian_pieces(fld, x, m=1.0, hbar=1.0)
        assert abs(fd - pc.kinetic_total) < 1e-6

    def test_nonunit_hbar(self):
        fld = random_param_field(np.random.default_rng(77))
        g = algebra.build_gamma_basis(fld.z)
        x = np.array([0.05, -0.1, 0.2, 0.15])
        fd = kinetic_term_matrix(fld, x, g, hbar=0.7, h=1e-4)
        pc = lagrangian_pieces(fld, x, m=0.8, hbar=0.7)
        assert abs(fd - pc.kinetic_total) < 1e-6

    def test_step_out_of_range_rejected(self):
        fld = random_param_field(np.random.default_rng(1))
        g = algebra.build_gamma_basis(fld.z)
        with pytest.raises(DomainError):
            kinetic_term_matrix(fld, np.zeros(4), g, hbar=1.0, h=1e-2)


def test_eps4_is_column_stack_det_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(500):
        cols = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-6, 6, size=(4, 1))
        cols[rng.integers(4)] = BASIS4[rng.integers(4)]
        expected = float(np.linalg.det(np.column_stack(cols)))
        got = eps4(*cols)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
