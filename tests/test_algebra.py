import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_disquant import algebra
from dirac_disquant.algebra import (
    GAMMA,
    GAMMA5,
    METRIC,
    SIGMA,
    Bilinears,
    SpinorParams,
    bilinears_closed_form,
    bilinears_matrix,
    build_gamma_basis,
    n_from_xi,
    random_spinor_params,
    sigma_dot,
    spin_from_xi,
    spinor_from_params,
    xi_from_bilinears,
)
from dirac_disquant.errors import (
    DomainError,
    LightlikeFluxError,
    NumericConsistencyError,
)
from dirac_disquant.minkowski import mdot

from conftest import expm_taylor, unit3


class TestGammaBasis:
    def test_anticommutation(self):
        eye = np.eye(4)
        for k in range(4):
            for l in range(4):
                resid = np.abs(GAMMA[l] @ GAMMA[k] + GAMMA[k] @ GAMMA[l]
                               - 2 * METRIC[k, l] * eye).max()
                assert resid < 1e-12

    def test_pauli_relation(self):
        eye = np.eye(4)
        cyclic = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        for a in range(3):
            assert np.abs(SIGMA[a] @ SIGMA[a] - eye).max() < 1e-12
        for (a, b), c in cyclic.items():
            assert np.abs(SIGMA[a] @ SIGMA[b] - 1j * SIGMA[c]).max() < 1e-12
            assert np.abs(SIGMA[b] @ SIGMA[a] + 1j * SIGMA[c]).max() < 1e-12

    def test_gamma5_relations(self):
        assert np.abs(GAMMA5 @ GAMMA5 + np.eye(4)).max() < 1e-12
        for a in range(3):
            assert np.abs(GAMMA5 @ SIGMA[a] - SIGMA[a] @ GAMMA5).max() < 1e-12
            assert np.abs(GAMMA[0] @ GAMMA[a + 1]
                          + 1j * GAMMA5 @ SIGMA[a]).max() < 1e-12
        assert np.abs(GAMMA[0] @ GAMMA5 + GAMMA5 @ GAMMA[0]).max() < 1e-12

    def test_hermiticity(self):
        assert np.abs(GAMMA[0].conj().T - GAMMA[0]).max() < 1e-12
        for a in (1, 2, 3):
            assert np.abs(GAMMA[a].conj().T + GAMMA[a]).max() < 1e-12

    def test_proper_representation_projector(self, basis_z):
        assert np.abs(basis_z.pi_projector - np.diag([1.0, 0, 0, 0])).max() < 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_projector_invariants_random_z(self, seed):
        z = unit3(np.random.default_rng(seed))
        g = build_gamma_basis(z)
        pi = g.pi_projector
        # The kinetic oracle's column form rests on Pi = pi pi^dagger.
        assert np.abs(np.outer(g.pi_column, g.pi_column.conj()) - pi).max() < 1e-14
        assert np.abs(pi @ pi - pi).max() < 1e-14
        assert np.abs(GAMMA[0] @ pi - pi).max() < 1e-14
        assert np.abs(sigma_dot(z) @ pi - pi).max() < 1e-14
        assert np.abs(pi @ GAMMA5 @ pi).max() < 1e-14
        for a in range(3):
            assert np.abs(pi @ SIGMA[a] @ pi - z[a] * pi).max() < 1e-14
        assert abs(np.trace(pi) - 1.0) < 1e-14

    def test_shared_matrices_are_read_only(self, basis_z):
        # A basis holds only what depends on z; the Dirac matrices are the
        # module constants.
        assert set(vars(basis_z)) == {"pi_projector", "pi_column"}
        for m in (GAMMA, GAMMA5, SIGMA, METRIC):
            with pytest.raises(ValueError):
                m[0, 0] = 2.0

    def test_non_unit_z_rejected(self):
        with pytest.raises(DomainError):
            build_gamma_basis((0.0, 0.0, 2.0))


class TestSpinor:
    def test_identity_exponentials(self, basis_z):
        p = SpinorParams(1.0, 0.0, 0.0, np.zeros(3), (0, 0, 1), (0, 0, 1))
        b = bilinears_matrix(spinor_from_params(p, basis_z))
        assert abs(b.scalar - 1.0) < 1e-14
        assert np.abs(b.j - [1, 0, 0, 0]).max() < 1e-14

    def test_scalar_closed_form(self, basis_z):
        for kappa in (0.0, 0.4, -1.2, np.pi / 2):
            p = SpinorParams(2.0, kappa, 0.1, np.zeros(3), (0, 1, 0), (0, 0, 1))
            b = bilinears_matrix(spinor_from_params(p, basis_z))
            assert abs(b.scalar - 4.0 * np.cos(kappa)) < 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_against_taylor_series_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = random_spinor_params(rng)
        g = build_gamma_basis(p.z)
        closed = spinor_from_params(p, g)
        assert closed.shape == (4,) and closed.dtype == complex

        eye = np.eye(4, dtype=complex)
        arg1 = 1j * p.phi * eye + 0.5 * p.kappa * GAMMA5
        arg2 = -0.5j * GAMMA5 @ sigma_dot(p.eta)
        arg3 = 0.5j * np.pi * sigma_dot(p.n)
        oracle = (p.amplitude
                  * expm_taylor(arg1) @ expm_taylor(arg2) @ expm_taylor(arg3)
                  @ g.pi_column)
        assert np.abs(closed - oracle).max() < 1e-10

    def test_matrix_reconstruction_is_projector_multiple(self, basis_z):
        p = SpinorParams(1.3, 0.2, -0.5, (0.4, 0.1, -0.2), (0, 0, 1), (0, 0, 1))
        m = np.outer(spinor_from_params(p, basis_z), basis_z.pi_column.conj())
        # psi = M Pi: right-multiplying by Pi changes nothing.
        assert np.abs(m @ basis_z.pi_projector - m).max() < 1e-12


class TestBilinears:
    def test_rest_frame(self, basis_z):
        p = SpinorParams(1.0, 0.0, 0.0, np.zeros(3), (0, 0, 1), (0, 0, 1))
        b = bilinears_matrix(spinor_from_params(p, basis_z))
        assert np.abs(b.j - [1, 0, 0, 0]).max() < 1e-14
        assert abs(b.S[0]) < 1e-14

    def test_pure_boost_flux(self, basis_z):
        eta = 1.3
        p = SpinorParams(1.0, 0.0, 0.0, (eta, 0, 0), (0, 0, 1), (0, 0, 1))
        b = bilinears_matrix(spinor_from_params(p, basis_z))
        assert np.abs(b.j - [np.cosh(eta), np.sinh(eta), 0, 0]).max() < 1e-12

    def test_boost_along_spin(self, basis_z):
        p = SpinorParams(1.0, 0.0, 0.0, (0, 0, 2.0), (0, 0, 1), (0, 0, 1))
        b = bilinears_closed_form(p)
        assert abs(b.S[0] - np.sinh(2.0)) < 1e-12
        assert abs(b.S[3] - np.cosh(2.0)) < 1e-12

    def test_closed_form_eta_zero_limit(self):
        p = SpinorParams(1.0, 0.0, 0.0, np.zeros(3), (0, 1, 0), (0, 0, 1))
        b = bilinears_closed_form(p)
        assert np.abs(b.j - [1, 0, 0, 0]).max() == 0.0
        assert np.abs(b.S[1:] - p.xi).max() == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_matrix_equals_closed_form(self, seed):
        p = random_spinor_params(np.random.default_rng(seed))
        g = build_gamma_basis(p.z)
        bm = bilinears_matrix(spinor_from_params(p, g))
        bc = bilinears_closed_form(p)
        scale = max(np.abs(bc.j).max(), np.abs(bc.S).max())
        assert np.abs(bm.j - bc.j).max() / scale < 1e-10
        assert np.abs(bm.S - bc.S).max() / scale < 1e-10
        assert abs(bm.scalar - bc.scalar) / scale < 1e-10
        assert abs(bm.rho - p.amplitude ** 2) / p.amplitude ** 2 < 1e-12

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_flux_spin_identities_property(self, seed):
        p = random_spinor_params(np.random.default_rng(seed))
        g = build_gamma_basis(p.z)
        b = bilinears_matrix(spinor_from_params(p, g))
        a4 = p.amplitude ** 4
        assert abs(mdot(b.S, b.S) + mdot(b.j, b.j)) < 1e-10 * a4
        assert abs(mdot(b.j, b.S)) < 1e-10 * a4

    def test_flux_timelike_future(self):
        for seed in range(20):
            p = random_spinor_params(np.random.default_rng(seed))
            b = bilinears_closed_form(p)
            assert b.j[0] >= b.rho > 0

    def test_consistency_guard_fires_on_broken_basis(self, basis_z, monkeypatch):
        # A deliberately non-Hermitian gamma^0 leaks imaginary parts.
        p = SpinorParams(1.0, 0.3, 0.2, (0.5, 0, 0), (0, 0, 1), (0, 0, 1))
        c = spinor_from_params(p, basis_z)
        monkeypatch.setattr(algebra, "GAMMA",
                            np.array([GAMMA[0] + 0.1j * np.eye(4), *GAMMA[1:]]))
        with pytest.raises(NumericConsistencyError):
            bilinears_matrix(c)

    def test_imaginary_guard_is_relative_to_the_norm(self):
        # An absolute 1e-8 bound raised for 49 of these 200 sets at A = 1e4
        # and for all of them at A = 1e5, on roundoff alone.
        for amplitude in (1e4, 1e5):
            params = [dataclasses.replace(random_spinor_params(np.random.default_rng(s)),
                                          amplitude=amplitude) for s in range(200)]
            ps = SpinorParams.stack(params)
            cols = np.array([spinor_from_params(p, build_gamma_basis(p.z)) for p in params])
            b = bilinears_matrix(cols)
            assert b.j.shape == (200, 4)
            assert np.abs(b.rho / amplitude ** 2 - 1.0).max() < 1e-12
            assert np.abs(bilinears_closed_form(ps).j - b.j).max() / amplitude ** 2 < 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_consistency_guard_fires_at_any_amplitude(self, basis_z, monkeypatch, scale):
        # A leak of 1e-7 c^dagger c fails at every scale, in a column and in
        # any row of a stack.
        p = SpinorParams(1.0, 0.3, 0.2, (0.5, 0, 0), (0, 0, 1), (0, 0, 1))
        c = scale * spinor_from_params(p, basis_z)
        monkeypatch.setattr(algebra, "GAMMA",
                            np.array([GAMMA[0] + 1e-7j * np.eye(4), *GAMMA[1:]]))
        with pytest.raises(NumericConsistencyError):
            bilinears_matrix(c)
        with pytest.raises(NumericConsistencyError):
            bilinears_matrix(np.stack([c, c / scale]))

    def test_zero_spinor_passes_the_guard(self):
        b = bilinears_matrix(np.zeros((2, 4), dtype=complex))
        assert (b.j == 0.0).all() and (b.rho == 0.0).all()

    # (1, 4) is a stack of one column; (1, 1, 4) is neither a column nor a stack.
    @pytest.mark.parametrize("shape", [(3,), (4, 1), (1, 1, 4), (8,)])
    def test_column_that_is_not_four_components_rejected(self, shape):
        with pytest.raises(DomainError, match="4 components"):
            bilinears_matrix(np.ones(shape, dtype=complex))


class TestXiMaps:
    def test_rest_frame_extraction(self):
        b = Bilinears(scalar=1.0, j=np.array([1.0, 0, 0, 0]),
                      S=np.array([0.0, 0, 0, 1]), rho=1.0)
        assert np.abs(xi_from_bilinears(b) - [0, 0, 1]).max() < 1e-14

    @pytest.mark.parametrize("seed", range(25))
    def test_roundtrip_through_spin(self, seed):
        rng = np.random.default_rng(seed)
        p = random_spinor_params(rng)
        b = bilinears_closed_form(p)
        xi = xi_from_bilinears(b)
        assert abs(np.linalg.norm(xi) - 1.0) < 1e-10
        assert np.abs(xi - p.xi).max() < 1e-10
        s_back = spin_from_xi(xi, b.j, b.rho)
        assert np.abs(s_back - b.S).max() / np.abs(b.S).max() < 1e-12

    def test_lightlike_row_of_a_stack_rejected(self):
        b = Bilinears(scalar=np.zeros(2), j=np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0]]),
                      S=np.zeros((2, 4)), rho=np.array([1.0, 0.0]))
        with pytest.raises(LightlikeFluxError):
            xi_from_bilinears(b)

    def test_lightlike_flux_rejected(self):
        b = Bilinears(scalar=0.0, j=np.array([1.0, 1.0, 0, 0]),
                      S=np.zeros(4), rho=0.0)
        with pytest.raises(LightlikeFluxError):
            xi_from_bilinears(b)

    @pytest.mark.parametrize("seed", range(25))
    def test_n_inversion(self, seed):
        rng = np.random.default_rng(seed)
        z = unit3(rng)
        xi = unit3(rng)
        if 1.0 + np.dot(xi, z) < 1e-6:
            xi = -xi
        n = n_from_xi(xi, z)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        assert np.abs(2 * n * np.dot(n, z) - z - xi).max() < 1e-10

    def test_n_inversion_antipodal_rejected(self):
        with pytest.raises(DomainError):
            n_from_xi(np.array([0.0, 0, -1]), np.array([0.0, 0, 1]))
