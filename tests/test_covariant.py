from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_disquant import algebra, covariant, particle
from dirac_disquant.covariant import (
    CovariantAux,
    LagrangianPieces,
    _derived_jet,
    f3_without_inner_factor,
    kinetic_term_matrix,
    lagrangian_pieces,
    random_param_field,
    split_derivative,
)
from dirac_disquant.errors import (
    DomainError,
    SingularDenominatorError,
)
from dirac_disquant.minkowski import BASIS4, eps4, mdot
from dirac_disquant.report import RunConfig
from dirac_disquant.verification import run_suite


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

    def test_huge_raw_n_norm_is_refused_by_both_routes(self):
        # n does not depend on the scale of the raw field, but at 1e155 its
        # squared norm overflows.  kinetic_term_matrix normalized without
        # the bound of jet and returned 0.0 here, against -0.0997.
        fld = random_param_field(np.random.default_rng(77))
        big = replace(fld, n0=fld.n0 * 1e155, n_lin=fld.n_lin * 1e155)
        x = np.array([0.05, -0.1, 0.2, 0.15])
        g = algebra.build_gamma_basis(fld.z)
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="overflows its cube"):
                lagrangian_pieces(big, x, m=1.0, hbar=1.0)
            with pytest.raises(DomainError, match="overflows its cube"):
                kinetic_term_matrix(big, x, g, hbar=1.0)

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

    @pytest.mark.parametrize("m, hbar", [(1.0, 1.0), (2.0, 0.5)])
    def test_f3_per_density_is_the_worldline_spin_term(self, m, hbar):
        # Along the flux lines, with velocity u = j/rho and spin rate
        # xidot = u^l d_l xi, F3/rho is the spin term
        # hbar (xidot x xi).z / (2 (1 + xi.z)) of the worldline Lagrangian,
        # with the field's z.  j^l contracts the derivative index of F3, so
        # no transversal derivative enters: the field layer and the particle
        # layer compute the same number by separate code.
        rng = np.random.default_rng(9)
        for _ in range(10):
            fld = random_param_field(rng)
            for _ in range(10):
                x = rng.uniform(-0.5, 0.5, size=4)
                f3 = lagrangian_pieces(fld, x, m, hbar).f3
                rho, _, j, _, _, _, _, _, xi, d_xi, _ = _derived_jet(fld.jet(x))
                xidot = (j / rho) @ d_xi
                spin = hbar * particle._spin_term(xi, xidot, fld.z)
                assert abs(f3 / rho - spin) <= 1e-12 * abs(spin)


def bits(pieces):
    return np.array(astuple(pieces)).tobytes()


class TestLagrangianPiecesMemo:
    X = np.array([0.2, 0.0, -0.3, 0.4])

    def test_repeated_call_returns_the_stored_object(self):
        fld = random_param_field(np.random.default_rng(4))
        first = lagrangian_pieces(fld, self.X, 1.1, 0.8)
        assert lagrangian_pieces(fld, self.X.copy(), 1.1, 0.8) is first
        assert lagrangian_pieces(fld, self.X.tolist(), 1.1, 0.8) is first
        assert len(fld.memo) == 1

    def test_changed_bits_miss_and_match_the_body(self):
        fld = random_param_field(np.random.default_rng(4))
        first = lagrangian_pieces(fld, self.X, 1.1, 0.8)
        ulp = self.X.copy()
        ulp[2] = np.nextafter(ulp[2], np.inf)
        signed_zero = self.X.copy()
        signed_zero[1] = -0.0
        variants = [(ulp, 1.1, 0.8), (signed_zero, 1.1, 0.8), (self.X, 1.2, 0.8),
                    (self.X, 1.1, 0.9)]
        for k, args in enumerate(variants, 2):
            got = lagrangian_pieces(fld, *args)
            assert got is not first
            assert len(fld.memo) == k
            assert bits(got) == bits(covariant._lagrangian_pieces(fld, *args))

    def test_a_raising_call_stores_nothing(self):
        fld = random_param_field(np.random.default_rng(3))
        c0, c1, c2 = fld.c0.copy(), fld.c1.copy(), fld.c2.copy()
        # The amplitude=0 wall of test_fail_closed: rho + j^0 = 0.
        c0[0], c1[0], c2[0] = 0.0, 0.0, 0.0
        fld = replace(fld, c0=c0, c1=c1, c2=c2)
        for _ in range(2):
            with pytest.raises(DomainError):
                lagrangian_pieces(fld, self.X, 1.0, 1.0)
        assert fld.memo == {}

    def test_replace_starts_with_an_empty_memo(self):
        fld = random_param_field(np.random.default_rng(4))
        lagrangian_pieces(fld, self.X, 1.1, 0.8)
        changed = replace(fld, z=fld.z)
        assert changed.memo == {} and len(fld.memo) == 1

    @pytest.mark.parametrize("seed", (0, 7, 31))    # test_array_routes.FIELD_SEEDS
    def test_hits_keep_the_bits_of_the_body(self, seed):
        fld = random_param_field(np.random.default_rng(seed))
        for x in np.random.default_rng(seed + 1000).uniform(-0.5, 0.5, size=(5, 4)):
            want = bits(covariant._lagrangian_pieces(fld, x, 1.1, 0.8))
            assert bits(lagrangian_pieces(fld, x, 1.1, 0.8)) == want
            assert bits(lagrangian_pieces(fld, x, 1.1, 0.8)) == want

    def test_oracles_do_not_read_the_memo(self):
        fld = random_param_field(np.random.default_rng(4))
        g = algebra.build_gamma_basis(fld.z)
        f3_alt = f3_without_inner_factor(fld, self.X, 0.8)
        fd = kinetic_term_matrix(fld, self.X, g, 0.8)
        lagrangian_pieces(fld, self.X, 1.1, 0.8)
        (key,) = fld.memo
        nan = fld.memo[key] = LagrangianPieces(*[float("nan")] * 10)
        assert lagrangian_pieces(fld, self.X, 1.1, 0.8) is nan
        assert f3_without_inner_factor(fld, self.X, 0.8).hex() == f3_alt.hex()
        assert kinetic_term_matrix(fld, self.X, g, 0.8).hex() == fd.hex()

    @pytest.mark.parametrize("suite, calls, computed", [("appendixA", 500, 100),
                                                        ("appendixB", 2100, 500)])
    def test_no_memo_outlives_a_suite_run(self, suite, calls, computed, monkeypatch):
        # Each run builds its own fields, so each computes every distinct
        # point again: the counts of the second run equal the first's.
        counts = {"calls": 0, "computed": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(covariant, "lagrangian_pieces",
                            counting("calls", covariant.lagrangian_pieces))
        monkeypatch.setattr(covariant, "_lagrangian_pieces",
                            counting("computed", covariant._lagrangian_pieces))
        for _ in range(2):
            counts.update(calls=0, computed=0)
            assert run_suite(suite, RunConfig(seed=42)).passed
            assert counts == {"calls": calls, "computed": computed}


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

    @pytest.mark.parametrize("hbar", [1e-12, 1e9, 1e12])
    def test_projector_guards_scale_with_hbar(self, hbar):
        # The value scales like hbar.  With the absolute 1e-6 projector
        # guards of the matrix-spinor form this point raised at hbar = 1e9;
        # the scaled value keeps to 7e-16 relative.
        fld = random_param_field(np.random.default_rng(77))
        g = algebra.build_gamma_basis(fld.z)
        x = np.array([0.05, -0.1, 0.2, 0.15])
        at_one = kinetic_term_matrix(fld, x, g, hbar=1.0)
        scaled = kinetic_term_matrix(fld, x, g, hbar=hbar) / hbar
        assert abs(scaled - at_one) <= 1e-14 * abs(at_one)

    @pytest.mark.parametrize("k", [-4, 3, 4, 6])
    def test_projector_guards_scale_with_amplitude(self, k):
        # The value scales like hbar A^2.  With projector guards of 1e-6
        # hbar the matrix-spinor form raised here from k = 4.
        fld = random_param_field(np.random.default_rng(77))
        g = algebra.build_gamma_basis(fld.z)
        x = np.array([0.05, -0.1, 0.2, 0.15])
        amp = np.ones(6)
        amp[0] = 10.0 ** k
        scaled = replace(fld, c0=fld.c0 * amp, c1=fld.c1 * amp[:, None],
                         c2=fld.c2 * amp[:, None, None])
        at_one = kinetic_term_matrix(fld, x, g, hbar=1.0)
        got = kinetic_term_matrix(scaled, x, g, hbar=1.0) / 10.0 ** (2 * k)
        assert abs(got - at_one) <= 1e-10 * abs(at_one)

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
