import math
import tracemalloc

import numpy as np
import pytest

from dirac_disquant import rotator
from dirac_disquant.cli import main
from dirac_disquant.errors import (
    DomainError,
    StabilityError,
    SubThresholdError,
)
from dirac_disquant.minkowski import mdot
from dirac_disquant.rotator import (
    RotatorClosedForm,
    RotatorParams,
    RotatorState,
    constraint_monitors,
    identify_dcr_rr,
    integrate_rotator,
    mass_increase,
    monitor_scales,
    rigidity,
    rigidity_domain_bound,
    zeta_vector,
)

PR = RotatorParams(m0=1.0, a=1.0, P0=2.0 * np.sqrt(2.0))


class TestClosedForm:
    def test_frequencies(self):
        assert abs(PR.omega - 0.5) < 1e-15
        assert abs(PR.omega0 + 1.0 / np.sqrt(2.0)) < 1e-15
        assert PR.a * abs(PR.omega0) < 1.0

    def test_threshold_is_static(self):
        pr = RotatorParams(m0=1.0, a=1.0, P0=2.0)
        cf = RotatorClosedForm(pr)
        assert pr.omega == 0.0
        one, two = cf.worldlines_at_time(3.0)
        assert np.abs(one[1:] + two[1:]).max() < 1e-15
        assert np.abs(one[1:] - [1.0, 0, 0]).max() < 1e-15

    def test_sub_threshold_rejected(self):
        with pytest.raises(SubThresholdError):
            RotatorParams(m0=1.0, a=1.0, P0=1.9)

    def test_steady_state_conditions(self):
        cf = RotatorClosedForm(PR)
        for t in np.linspace(0.0, 10.0, 20):
            assert cf.steady_state_residual(t) < 1e-12

    def test_steady_state_residual_evaluates_the_worldlines_once(self, monkeypatch):
        cf = RotatorClosedForm(PR)
        calls = []
        worldlines = RotatorClosedForm.worldlines_at_time

        def counted(self, t):
            calls.append(t)
            return worldlines(self, t)
        monkeypatch.setattr(RotatorClosedForm, "worldlines_at_time", counted)
        cf.steady_state_residual(0.7)
        assert calls == [0.7]

    @pytest.mark.parametrize("m0, a", [(1e4, 1.0), (1e5, 1.0), (1e5, 1e-3), (3.0, 0.2)])
    def test_monitors_are_unit_free(self, m0, a):
        # p.x scales like m0 a; every divisor is 1 at m0 = a = 1.
        pr = RotatorParams(m0=m0, a=a, P0=2.0 * np.sqrt(2.0) * m0)
        s = RotatorClosedForm(pr).state(np.linspace(0.0, 10.0, 32))
        mon = constraint_monitors(s, pr)
        assert (mon / monitor_scales(pr)[:, None]).max() < 1e-12
        assert list(monitor_scales(PR)) == [1.0] * 5

    @pytest.mark.parametrize("mode", ["closed", "integrate"])
    def test_monitor_layout_has_one_owner(self, mode, tmp_path):
        # One row per monitor, named by MONITOR_COLUMNS and scaled by
        # monitor_scales in the same order; the rotator table uses the names.
        cf = RotatorClosedForm(PR)
        assert constraint_monitors(cf.state(0.3), PR).shape == (5,)
        assert constraint_monitors(cf.state(np.linspace(0.0, 1.0, 7)), PR).shape == (5, 7)
        assert len(rotator.MONITOR_COLUMNS) == len(monitor_scales(PR)) == 5
        out = tmp_path / "rotator.csv"
        assert main(["rotator", "--a", "1", "--P0", "3", "--mode", mode,
                     "--steps", "100", "--out", str(out)]) == 0
        header = next(line for line in out.read_text().splitlines()
                      if not line.startswith("#"))
        assert header == ",".join(["t", "x1_1", "x1_2", "x2_1", "x2_2",
                                   *rotator.MONITOR_COLUMNS])

    def test_constraints_and_worldlines(self):
        cf = RotatorClosedForm(PR)
        for tau in np.linspace(0.0, cf.tau_period, 20):
            s = cf.state(tau)
            mon = constraint_monitors(s, PR)
            assert mon.max() < 1e-12
            one, two = s.X + s.x, s.X - s.x
            assert np.abs((one + two) / 2 - s.X).max() < 1e-14
            assert abs(np.linalg.norm(one[1:] - two[1:]) - 2 * PR.a) < 1e-12

    def test_equations_of_motion_by_finite_differences(self):
        from dirac_disquant.rotator import _rhs
        cf = RotatorClosedForm(PR)
        h = 1e-6
        for tau in np.linspace(0.0, cf.tau_period, 12):
            s, sp, sm = cf.state(tau), cf.state(tau + h), cf.state(tau - h)
            dX, dx, dp, nu = _rhs(s.x, s.p, s.P, PR)
            assert abs(nu) < 1e-14
            assert np.abs((sp.x - sm.x) / (2 * h) - dx).max() < 1e-8
            assert np.abs((sp.p - sm.p) / (2 * h) - dp).max() < 1e-7
            assert np.abs((sp.X - sm.X) / (2 * h) - dX).max() < 1e-8


class TestIntegrator:
    def test_matches_closed_form_over_period(self):
        cf = RotatorClosedForm(PR)
        steps = 2000
        dt = cf.tau_period / steps
        traj = integrate_rotator(PR, cf.state(0.0), steps, dt)
        dev = max(np.abs(x - cf.state(k * dt).x).max()
                  for k, x in enumerate(traj.states.x))
        assert dev < 1e-6
        assert constraint_monitors(traj.states, PR).max() < 1e-8
        assert traj.zeta_drift < 1e-8
        assert traj.nu_max < 1e-9

    def test_zeta_vector_spacelike_conserved(self):
        cf = RotatorClosedForm(PR)
        s0 = cf.state(0.0)
        z0 = zeta_vector(s0.x, s0.p, s0.P)
        assert mdot(z0, z0) < 0
        for tau in np.linspace(0.0, cf.tau_period, 10):
            s = cf.state(tau)
            assert np.abs(zeta_vector(s.x, s.p, s.P) - z0).max() < 1e-12

    def test_zeta_vector_is_column_stack_det_bit_for_bit(self):
        rng = np.random.default_rng(3)
        cf = RotatorClosedForm(PR)
        states = [cf.state(tau) for tau in np.linspace(0.0, cf.tau_period, 7)]
        states += [RotatorState(0.0, *rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3, 3))
                   for _ in range(100)]
        for s in states:
            expected = np.empty(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = 1.0
                expected[i] = np.linalg.det(np.column_stack([e, s.x, s.p, s.P]))
            assert zeta_vector(s.x, s.p, s.P).tobytes() == expected.tobytes()

    def test_static_start_stays_static(self):
        pr = RotatorParams(m0=1.0, a=1.0, P0=2.0)
        cf = RotatorClosedForm(pr)
        traj = integrate_rotator(pr, cf.state(0.0), 100, 0.05)
        ref = cf.state(0.0)
        for x, q in zip(traj.states.x, traj.states.p):
            assert np.abs(x - ref.x).max() < 1e-12
            assert np.abs(q).max() < 1e-12

    def test_rk4_convergence_order(self):
        cf = RotatorClosedForm(PR)

        def position_error(steps):
            dt = cf.tau_period / steps
            traj = integrate_rotator(PR, cf.state(0.0), steps, dt)
            return np.max([np.abs(x - cf.state(k * dt).x).max()
                           for k, x in enumerate(traj.states.x)])

        errors = [position_error(steps) for steps in (100, 200, 400)]
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 3.8), orders

    # 4095, 4096 and 8192 steps end one state before, on and after a block
    # edge of the zeta reduction (report.CSV_BLOCK_ROWS = 4096 states).
    @pytest.mark.parametrize("steps", [0, 1, 2000, 4095, 4096, 8192])
    def test_zeta_vector_called_once_per_state(self, monkeypatch, steps):
        # The benchmark pins this count; integrate_rotator must look
        # zeta_vector up as a module global, once per returned state.
        calls = []

        def counted(x, prel, P):
            calls.append(None)
            return zeta_vector(x, prel, P)

        monkeypatch.setattr(rotator, "zeta_vector", counted)
        cf = RotatorClosedForm(PR)
        integrate_rotator(PR, cf.state(0.0), steps, cf.tau_period / 2000)
        assert len(calls) == steps + 1

    @pytest.mark.parametrize("steps", [0, 1, 2000, 4095, 4096, 8192])
    def test_zeta_drift_is_the_drift_of_the_returned_rows(self, steps):
        cf = RotatorClosedForm(PR)
        traj = integrate_rotator(PR, cf.state(0.0), steps, cf.tau_period / 2000)
        s = traj.states
        zetas = np.array([zeta_vector(x, q, s.P) for x, q in zip(s.x, s.p)])
        drift = np.abs(zetas - zetas[0]).max() / max(np.abs(zetas[0]).max(), 1e-30)
        assert np.float64(traj.zeta_drift).tobytes() == np.float64(drift).tobytes()

    @pytest.mark.parametrize("steps, state", [
        (4100, 4096),   # the first state of the second block
        (4100, 4100),   # the last state, inside a part block
        (8192, 8192),   # the last state, alone in its block
    ])
    def test_one_bad_zeta_row_reaches_the_drift(self, monkeypatch, steps, state):
        cf = RotatorClosedForm(PR)
        dt = cf.tau_period / 2000
        clean = integrate_rotator(PR, cf.state(0.0), steps, dt).zeta_drift

        def drift_with(bad):
            rows = []

            def stub(x, prel, P):
                rows.append(bad if len(rows) == state else zeta_vector(x, prel, P))
                return rows[-1]

            monkeypatch.setattr(rotator, "zeta_vector", stub)
            drift = integrate_rotator(PR, cf.state(0.0), steps, dt).zeta_drift
            assert len(rows) == steps + 1
            return drift, np.array(rows)

        drift, rows = drift_with(np.array([0.0, 0.0, 0.0, 1.0]))
        want = np.abs(rows - rows[0]).max() / max(np.abs(rows[0]).max(), 1e-30)
        assert drift > 1e3 * clean
        assert np.float64(drift).tobytes() == np.float64(want).tobytes()
        assert math.isnan(drift_with(np.full(4, np.nan))[0])

    def test_zero_steps_give_the_initial_row_only(self):
        cf = RotatorClosedForm(PR)
        initial = cf.state(0.0)
        traj = integrate_rotator(PR, initial, 0, cf.tau_period / 2000)
        s = traj.states
        assert s.tau.shape == s.nu.shape == (1,)
        assert constraint_monitors(s, PR).shape == (5, 1)
        for got, want in ((s.X, initial.X), (s.x, initial.x), (s.p, initial.p)):
            assert got.shape == (1, 4) and got[0].tobytes() == want.tobytes()
        assert s.tau[0] == initial.tau and s.nu[0] == initial.nu
        assert traj.pre_projection_drift == 0.0 and traj.zeta_drift == 0.0

    def test_memory_grows_by_the_preallocated_rows_only(self):
        # The 15-float state rows take 120 B per step; a whole-trajectory
        # zeta or monitor array would add 32 or 40 B more.
        cf = RotatorClosedForm(PR)

        def peak(steps):
            tracemalloc.start()
            try:
                integrate_rotator(PR, cf.state(0.0), steps, cf.tau_period / steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2000), peak(20000)
        assert (large - small) / 18000 <= 140

    def test_too_large_step_rejected(self):
        cf = RotatorClosedForm(PR)
        with pytest.raises(StabilityError):
            integrate_rotator(PR, cf.state(0.0), 10, cf.tau_period / 10)

    def test_bad_initial_state_rejected(self):
        cf = RotatorClosedForm(PR)
        import dataclasses
        bad = dataclasses.replace(cf.state(0.0), x=np.array([0.0, 1.5, 0, 0]))
        with pytest.raises(DomainError):
            integrate_rotator(PR, bad, 10, 0.01)


class TestMassIncrease:
    def test_zero_speed(self):
        assert mass_increase(0.0) == 0.0

    def test_spot_values(self):
        assert abs(mass_increase(1 / np.sqrt(2.0)) - (np.sqrt(2.0) - 1)) < 1e-12
        assert abs(mass_increase(0.5) - (2 / np.sqrt(3.0) - 1)) < 1e-15

    def test_matches_total_mass_route(self):
        # (M - 2 m0)/(2 m0) with M = P0 on the closed-form solution.
        v = PR.a * abs(PR.omega0)
        assert abs(mass_increase(v) - (PR.P0 - 2.0) / 2.0) < 1e-12

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            mass_increase(1.0)
        with pytest.raises(DomainError):
            mass_increase(2.0, c=1.5)


class TestRigidity:
    def test_zero_radius(self):
        assert rigidity(0.0, 1.0) == 0.0

    def test_spot_value(self):
        bound = rigidity_domain_bound(1.0)
        assert abs(rigidity(0.6 * bound, 1.0) - 0.25) < 1e-15

    def test_monotone_increasing(self):
        bound = rigidity_domain_bound(2.0, hbar=1.5, c=1.0)
        grid = np.linspace(0.0, 0.999 * bound, 100)
        vals = [rigidity(a, 2.0, hbar=1.5) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain_bound_enforced(self):
        bound = rigidity_domain_bound(1.0)
        with pytest.raises(DomainError):
            rigidity(bound, 1.0)
        with pytest.raises(DomainError):
            rigidity(-0.1, 1.0)


class TestIdentification:
    def test_zeta_zero(self):
        out = identify_dcr_rr("dcr_to_rr", m=1.0, zeta=0.0)
        assert abs(out["M"] - 1.0) < 1e-15
        assert abs(out["m0"] - 0.5) < 1e-15
        assert out["a"] == 0.0

    def test_v_zero(self):
        out = identify_dcr_rr("rr_to_dcr", m0=1.0, v=0.0)
        assert out["m"] == 2.0
        assert out["m_dcr"] == 2.0
        assert out["a"] == 0.0

    def test_half_speed_spot_values(self):
        out = identify_dcr_rr("rr_to_dcr", m0=1.0, v=0.5)
        assert abs(out["m"] - 8.0 / 3.0) < 1e-15
        assert abs(out["m_dcr"] - 2.0 / np.sqrt(0.75)) < 1e-12
        assert out["omega_dcr"] == 4.0
        assert out["a"] == 0.125
        assert abs(out["moment_to_angular_momentum"] - 0.25) < 1e-15

    @pytest.mark.parametrize("zeta", [0.1, 1.0, 10.0])
    def test_roundtrip(self, zeta):
        fwd = identify_dcr_rr("dcr_to_rr", m=1.0, zeta=zeta)
        back = identify_dcr_rr("rr_to_dcr", m0=fwd["m0"], v=fwd["v"])
        assert abs(back["m"] - 1.0) < 1e-12
        assert abs(back["zeta"] - zeta) < 1e-12 * max(1.0, zeta)
        assert abs(back["m_dcr"] - fwd["M"]) < 1e-12

    def test_rigidity_equals_mass_increase(self):
        for v in (0.1, 0.5, 0.9):
            out = identify_dcr_rr("rr_to_dcr", m0=1.0, v=v)
            assert abs(rigidity(out["a"], 1.0) - mass_increase(v)) < 1e-12

    @pytest.mark.parametrize("P0, expected", [(2.2, 0.274955), (2.0 * np.sqrt(2.0), 0.6),
                                              (4.0, 1.03923), (10.0, 2.93939)])
    def test_angular_momentum_by_three_routes(self, P0, expected):
        m0, a = 1.0, 0.3
        pr = RotatorParams(m0=m0, a=a, P0=P0)
        cf = RotatorClosedForm(pr)

        # Sum of m0 gamma r x v over the two particles, the velocities by
        # central differences of the worldlines.  omega0 < 0, so the
        # particles turn clockwise about z and this route points along -z.
        t, h = 0.37, 1e-6
        orbit = np.zeros(3)
        for x, x_plus, x_minus in zip(cf.worldlines_at_time(t), cf.worldlines_at_time(t + h),
                                      cf.worldlines_at_time(t - h)):
            v = (x_plus[1:] - x_minus[1:]) / (2.0 * h)
            orbit += m0 / np.sqrt(1.0 - v @ v) * np.cross(x[1:], v)
        assert np.abs(orbit[:2]).max() < 1e-12
        assert -orbit[2] == pytest.approx(expected, abs=5e-6)

        # |zeta| / P0 of the conserved vector on closed-form states.
        for tau in (0.0, 0.4, 2.5):
            s = cf.state(tau)
            zeta = zeta_vector(s.x, s.p, s.P)
            assert np.linalg.norm(zeta) / P0 == pytest.approx(-orbit[2], rel=1e-9)

        # The closed form of the identification, at hbar = 4 m0 a / v.
        v = a * abs(pr.omega0)
        ident = identify_dcr_rr("rr_to_dcr", m0=m0, v=v, hbar=4.0 * m0 * a / v)
        assert ident["a"] == pytest.approx(a, rel=1e-15)
        assert ident["angular_momentum"] == pytest.approx(-orbit[2], rel=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            identify_dcr_rr("rr_to_dcr", m0=1.0, v=1.0)
        with pytest.raises(DomainError):
            identify_dcr_rr("dcr_to_rr", m=1.0)
        with pytest.raises(DomainError):
            identify_dcr_rr("sideways", m=1.0, zeta=1.0)
