import dataclasses
import math

import numpy as np
import pytest

from dirac_disquant.errors import DomainError
from dirac_disquant.minkowski import as4, cross3, mdot
from dirac_disquant.particle import (
    DcParams,
    HelixSolution,
    WorldlineState,
    _y_rate,
    boost_matrix,
    helix_solution,
    integrate_xi_along_helix,
    lagrangian_dc,
    lagrangian_dc_covariant,
    momentum,
    momentum_covariant,
    observables,
    observables_from_zeta,
    reduced_residuals,
    relativize,
    xi_equation_check,
    xi_rate,
)

from conftest import unit3

P_UNIT = DcParams(m=1.0, hbar=1.0)
EPS = np.finfo(float).eps


def random_jet(rng):
    v = rng.normal(size=3)
    xdot = np.concatenate(([np.sqrt(1.0 + v @ v)], v))
    xddot = np.concatenate(([0.0], rng.normal(size=3)))
    xddot[0] = float(v @ xddot[1:]) / xdot[0]
    return WorldlineState(xdot, xddot, unit3(rng))


class TestLagrangian:
    def test_straight_worldline(self):
        st = WorldlineState(np.array([1.3, 0.5, 0.2, 0.1]), np.zeros(4),
                            np.array([1.0, 0, 0]))
        expect = -np.sqrt(mdot(st.xdot, st.xdot))
        assert abs(lagrangian_dc(st, P_UNIT) - expect) < 1e-14

    def test_rest_state(self):
        st = WorldlineState(np.array([1.0, 0, 0, 0]), np.zeros(4),
                            np.array([0.0, 0, 1]))
        assert abs(lagrangian_dc(st, P_UNIT) + 1.0) < 1e-15

    def test_helix_state_matches_covariant_form(self):
        sol = helix_solution(1.0, 0.0, P_UNIT)
        st = sol.state(0.0)
        val = lagrangian_dc(st, P_UNIT)
        assert np.isfinite(val)
        assert abs(val - lagrangian_dc_covariant(st, P_UNIT)) < 1e-12

    @pytest.mark.parametrize("seed", range(15))
    def test_covariant_equivalence_generic(self, seed):
        rng = np.random.default_rng(seed)
        st = random_jet(rng)
        xidot = xi_rate(st)
        a = lagrangian_dc(st, P_UNIT, xidot)
        b = lagrangian_dc_covariant(st, P_UNIT, xidot)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_spacelike_velocity_rejected(self):
        st = WorldlineState(np.array([0.5, 1.0, 0, 0]), np.zeros(4),
                            np.array([0.0, 0, 1]))
        with pytest.raises(DomainError):
            lagrangian_dc(st, P_UNIT)


class TestMomentum:
    def test_rest_state(self):
        st = WorldlineState(np.array([1.0, 0, 0, 0]), np.zeros(4),
                            np.array([0.0, 0, 1]))
        P = momentum(st, np.zeros(3), P_UNIT)
        assert np.abs(P - [-1.0, 0, 0, 0]).max() < 1e-15

    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_helix_momentum_constant_and_rest(self, b):
        sol = helix_solution(b, 0.4, P_UNIT)
        P0 = momentum(sol.state(0.0), np.zeros(3), P_UNIT)
        assert np.abs(P0[1:]).max() < 1e-12
        assert abs(P0[0] - P_UNIT.m * sol.w0) < 1e-12
        scale = abs(P0[0])
        for tau in np.linspace(0.0, sol.tau_period, 40):
            P = momentum(sol.state(tau), np.zeros(3), P_UNIT)
            assert np.abs(P - P0).max() / scale < 1e-8

    @pytest.mark.parametrize("b", [0.4, 2.0])
    def test_boosted_helix_momentum_covariance(self, b):
        # General-momentum solutions come from boosting the rest-frame helix;
        # the momentum with the boosted frame vector must be the boosted
        # constant (lower components transform with the inverse boost).
        u = np.array([0.3, -0.2, 0.4])
        lam = boost_matrix(u)
        lam_inv = boost_matrix(-u)
        f_boosted = lam[:, 0]
        sol = helix_solution(b, 0.1, P_UNIT)
        P_rest = momentum(sol.state(0.0), np.zeros(3), P_UNIT)
        expect = lam_inv @ P_rest
        for tau in np.linspace(0.0, sol.tau_period, 16):
            st = sol.state(tau)
            P = momentum_covariant(lam @ st.xdot, lam @ st.xddot,
                                   lam @ as4(0.0, st.xi), np.zeros(4),
                                   P_UNIT, f_boosted)
            assert np.abs(P - expect).max() < 1e-10

    def test_superluminal_boost_rejected(self):
        with pytest.raises(DomainError):
            boost_matrix(np.array([1.0, 0.2, 0.0]))


class TestRelativize:
    def test_rest_momentum(self):
        u, mass = relativize(np.array([-1.0, 0, 0, 0]))
        assert np.abs(u - [1, 0, 0, 0]).max() < 1e-15
        assert mass == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_velocity(self, seed):
        rng = np.random.default_rng(seed)
        sp = rng.normal(size=3)
        P = -np.concatenate(([np.sqrt(4.0 + sp @ sp)], sp))
        u, mass = relativize(P)
        assert abs(mdot(u, u) - 1.0) < 1e-14

    def test_helix_momentum_mass(self):
        for b in (0.1, 1.0, 10.0):
            sol = helix_solution(b, 0.0, P_UNIT)
            _, mass = relativize(momentum(sol.state(0.3), np.zeros(3), P_UNIT))
            assert abs(mass - 1.0 / (b + 1.0)) < 1e-12

    def test_spacelike_rejected(self):
        with pytest.raises(DomainError):
            relativize(np.array([0.1, 1.0, 0, 0]))


class TestHelixSolution:
    def test_static_limit(self):
        sol = helix_solution(0.0, 0.0, P_UNIT)
        assert sol.obs.a_dcr == 0.0
        assert sol.obs.v == 0.0
        assert sol.obs.m_dcr == 1.0
        # At rest x^0 = tau: the time after a proper time of 2.5 is 2.5.
        assert np.abs(sol.position_at_time(2.5)).max() == 0.0
        st = sol.state(2.5)
        assert st.xdot.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert np.abs(st.xddot).max() == 0.0

    def test_b_one_spot_values(self):
        sol = helix_solution(1.0, 0.0, P_UNIT)
        assert abs(sol.w0 + 0.5) < 1e-15
        assert abs(abs(sol.omega) - 1.0) < 1e-15
        assert abs(abs(sol.omega / 2.0) - 0.5) < 1e-15
        assert abs(sol.obs.a_dcr - np.sqrt(3.0)) < 1e-15
        assert abs(sol.obs.v - np.sqrt(3.0) / 2.0) < 1e-15

    def test_negative_b_rejected(self):
        with pytest.raises(DomainError):
            helix_solution(-0.5, 0.0, P_UNIT)

    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_reduced_system_residuals(self, b):
        sol = helix_solution(b, 0.7, P_UNIT)
        for tau in np.linspace(0.0, sol.tau_period, 50):
            st = sol.state(tau)
            r1, r2, r3 = reduced_residuals(st, _y_rate(sol, tau), sol.w0, P_UNIT)
            assert np.abs(r1).max() < 1e-9
            assert abs(r2) < 1e-9
            assert abs(r3) < 1e-9
            assert abs(mdot(st.xdot, st.xdot) - 1.0) < 1e-10
            assert abs(np.dot(st.y, st.y) - b) < 1e-10
            assert abs(np.dot(st.y, st.xi)) < 1e-10
            assert abs(np.dot(st.y, _y_rate(sol, tau))) < 1e-10

    def test_w0_and_lab_frequency_relations(self):
        for b in (0.1, 1.0, 10.0, 63.0):
            sol = helix_solution(b, 0.0, P_UNIT)
            assert abs(sol.w0 * (b + 1.0) + 1.0) < 1e-12
            lab_rate = sol.omega / (b + 1.0)
            assert abs(abs(lab_rate) - 2.0 / (P_UNIT.lam * (b + 1) ** 2)) < 1e-12

    def test_trajectory_radius_and_velocity(self):
        sol = helix_solution(1.0, 0.0, P_UNIT)
        for t in np.linspace(0.0, 20.0, 25):
            assert abs(np.linalg.norm(sol.position_at_time(t))
                       - sol.obs.a_dcr) < 1e-10
        h = 1e-6
        speed = np.linalg.norm(
            (sol.position_at_time(1.0 + h) - sol.position_at_time(1.0 - h)) / (2 * h))
        assert abs(speed - sol.obs.v) < 1e-8

    def test_velocity_derivative_consistency(self):
        # dx/dtau from the sampled states matches finite differences of the
        # worldline x = ((b+1) tau, position_at_time((b+1) tau)).
        sol = helix_solution(2.3, 0.2, P_UNIT)

        def x(tau):
            t = (sol.b + 1.0) * tau
            return as4(t, sol.position_at_time(t))
        h = 1e-6
        for tau in (0.0, 0.4, 1.1):
            fd = (x(tau + h) - x(tau - h)) / (2 * h)
            assert np.abs(fd - sol.state(tau).xdot).max() < 1e-8
            fd2 = (sol.state(tau + h).xdot - sol.state(tau - h).xdot) / (2 * h)
            assert np.abs(fd2 - sol.state(tau).xddot).max() < 1e-7

    def test_xi_constancy_by_integration(self):
        for b in (0.1, 1.0, 10.0):
            sol = helix_solution(b, 0.0, P_UNIT)
            assert integrate_xi_along_helix(sol) < 1e-9

    @pytest.mark.parametrize("s", [1e-170, 1e170])
    @pytest.mark.parametrize("b", [0.1, 1.0, 10.0])
    def test_xi_constancy_at_extreme_hbar(self, b, s):
        # h^2 and |w|^2 leave the float range at hbar = 1e-170 and 1e170
        # (their product was 0 inf = NaN); h |w| = 2 pi b / steps does not.
        sol = helix_solution(b, 0.0, DcParams(m=1.0, hbar=s))
        assert integrate_xi_along_helix(sol) == 0.0

    @pytest.mark.parametrize("xi", [(0.6, 0.0, 0.8), (0.0, 0.6, 0.8),
                                    (math.sin(0.7), 0.0, math.cos(0.7))])
    @pytest.mark.parametrize("b, phase", [(0.1, 0.0), (1.0, 0.3), (10.0, 0.0)])
    def test_integrator_matches_reference_stepper(self, b, phase, xi):
        # From a tilted start the rate (y x ydot) x xi is not zero: xi
        # precesses about z.  The map with one w and the staged stages with
        # w at every stage time round differently; the bound allows 4 eps a
        # step, 4.4e-13 over 500 steps (measured: at most 1.1e-15).
        sol = tilted(helix_solution(b, phase, P_UNIT), xi)
        drift = integrate_xi_along_helix(sol, steps=500)
        assert drift > 0.1
        assert abs(drift - reference_xi_drift(sol, steps=500)) <= 4 * EPS * 500

    @pytest.mark.parametrize("b, phase", [(0.1, 0.0), (1.0, 0.3), (10.0, 0.0)])
    def test_spin_map_local_error_is_fifth_order(self, b, phase):
        # One step of size dt from xi = (s, 0, c) against the exact rotation
        # about z by theta = b omega dt, the angle w = y x ydot = (0, 0, b
        # omega) turns xi by.  That rotation moves xi by s |sin theta| in y
        # and by s (1 - cos theta) in x, so its drift is s |sin theta|; the
        # map's is s |theta (1 - theta^2 / 6)|.  Halving theta from 0.2 cuts
        # the difference by 2^5 (measured 31.98 and 31.99).
        sol = helix_solution(b, phase, P_UNIT)
        s, c = math.sin(0.7), math.cos(0.7)

        def step_error(theta):
            dt = theta / abs(sol.b * sol.omega)
            one_step = tilted(sol, (s, 0.0, c), tau_period=dt)
            exact = max(s * math.sin(theta), s * (1.0 - math.cos(theta)))
            return abs(integrate_xi_along_helix(one_step, steps=1) - exact)

        errors = np.array([step_error(theta) for theta in (0.2, 0.1, 0.05)])
        ratios = errors[:-1] / errors[1:]
        assert np.all((30.0 <= ratios) & (ratios <= 34.0)), ratios


def tilted(sol, xi, tau_period=None):
    """``sol`` on a test-only subclass whose spin axis starts at ``xi`` and,
    if ``tau_period`` is given, whose period is that proper time."""
    attrs = {"xi": property(lambda self: np.array(xi))}
    if tau_period is not None:
        attrs["tau_period"] = property(lambda self: tau_period)
    cls = type("TiltedHelix", (HelixSolution,), attrs)
    return cls(**{f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)})


def reference_xi_drift(sol, steps):
    """The spin RK4 stepper written plainly: a WorldlineState and two
    np.cross calls per stage, arrays throughout."""
    h = sol.tau_period / steps
    xi = sol.xi.copy()
    xis = np.empty((steps + 1, 3))
    xis[0] = xi

    def rate(tau, xi_c):
        th = sol.omega * tau + sol.phase
        ydot = np.sqrt(sol.b) * sol.omega * np.array([-np.sin(th), np.cos(th), 0.0])
        return np.cross(np.cross(sol.state(tau).y, ydot), xi_c)

    tau = 0.0
    for k in range(1, steps + 1):
        k1 = rate(tau, xi)
        k2 = rate(tau + h / 2, xi + h / 2 * k1)
        k3 = rate(tau + h / 2, xi + h / 2 * k2)
        k4 = rate(tau + h, xi + h * k3)
        xis[k] = xi = xi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += h
    return float(np.abs(xis - sol.xi).max())


def test_cross3_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-6, 6, size=(2, 1))
        a[rng.integers(3)] = 0.0
        b[rng.integers(3)] *= rng.choice([0.0, -0.0, 1.0])
        for u, v in ((a, b), (b, a), (a, a), (a, np.zeros(3)), (-a, -np.zeros(3))):
            assert cross3(u, v).tobytes() == np.cross(u, v).tobytes()


class TestObservables:
    def test_static_values(self):
        ob = observables(0.0, P_UNIT)
        assert ob == (1.0, 0.0, 0.0, 2.0, 0.0, 0.0)

    def test_b_one_dual_route(self):
        ob = observables(1.0, P_UNIT)
        oz = observables_from_zeta(ob.zeta, P_UNIT)
        for a, b in zip(ob, oz):
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))

    def test_dual_forms_on_log_grid(self):
        for b in np.concatenate(([0.0], np.logspace(-2, 2, 30))):
            ob = observables(b, P_UNIT)
            assert abs(ob.zeta - np.sinh(2 * ob.beta)) < 1e-12 * max(1.0, ob.zeta)
            assert abs(ob.v - np.tanh(ob.beta)) < 1e-12
            assert abs(ob.m_dcr - 1.0 / np.cosh(ob.beta)) < 1e-12
            assert abs(ob.v - np.sqrt(b * (b + 2)) / (b + 1)) < 1e-12

    def test_explicit_c(self):
        p = DcParams(m=2.0, hbar=3.0, c=2.0)
        ob = observables(1.0, p)
        assert abs(ob.v - 2.0 * np.sqrt(3.0) / 2.0) < 1e-14
        assert abs(ob.omega_dcr - 2 * 2.0 * 4.0 / (3.0 * 4.0)) < 1e-14
        assert abs(ob.zeta - 4 * ob.a_dcr * 2.0 * 2.0 / 3.0) < 1e-14

    def test_speed_subluminal(self):
        for b in np.logspace(-3, 3, 40):
            assert observables(b, P_UNIT).v < 1.0


class TestXiEquation:
    @pytest.mark.parametrize("seed", range(20))
    def test_z_independence(self, seed):
        rng = np.random.default_rng(seed)
        st = random_jet(rng)
        xidot = xi_rate(st)
        for _ in range(5):
            z = unit3(rng)
            if 1.0 + np.dot(st.xi, z) < 1e-3:
                z = -z
            full, reduced = xi_equation_check(st, xidot, z)
            assert full < 1e-10
            assert reduced < 1e-14

    def test_trivial_case(self):
        st = WorldlineState(np.array([1.2, 0.3, 0.0, 0.0]),
                            np.array([0.25, 1.0, 0.0, 0.0]),  # spatially parallel to xdot
                            np.array([0.0, 0.0, 1.0]))
        full, reduced = xi_equation_check(st, np.zeros(3), np.array([0.0, 1.0, 0.0]))
        assert full < 1e-14
        assert reduced < 1e-14

    def test_linear_sensitivity(self):
        rng = np.random.default_rng(5)
        st = random_jet(rng)
        xidot = xi_rate(st)
        z = unit3(rng)
        if 1.0 + np.dot(st.xi, z) < 1e-3:
            z = -z
        direction = np.cross(st.xi, unit3(rng))
        direction /= np.linalg.norm(direction)
        r1, _ = xi_equation_check(st, xidot + 1e-4 * direction, z)
        r2, _ = xi_equation_check(st, xidot + 1e-5 * direction, z)
        assert abs(r1 / r2 - 10.0) < 1e-2

    def test_nontangent_xidot_rejected(self):
        st = WorldlineState(np.array([1.5, 0.5, 0.3, 0.0]),
                            np.array([0.0, 0.1, -0.2, 0.3]), np.array([0.0, 0, 1]))
        with pytest.raises(DomainError):
            xi_equation_check(st, np.array([0.0, 0, 0.5]), np.array([1.0, 0, 0]))
