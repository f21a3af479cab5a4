import math
import tracemalloc

import numpy as np
import pytest

from dirac_disquant import rotator
from dirac_disquant.cli import main
from dirac_disquant.errors import (
    DomainError,
    StabilityError,
    StepSizeError,
    SubThresholdError,
)
from dirac_disquant.minkowski import mdot
from dirac_disquant.particle import boost_matrix
from dirac_disquant.rotator import (
    MONITOR_COLUMNS,
    RotatorClosedForm,
    RotatorParams,
    RotatorState,
    constraint_monitors,
    dcr_to_rr,
    integrate_rotator,
    mass_increase,
    monitor_scales,
    rigidity,
    rigidity_domain_bound,
    rr_to_dcr,
    zeta_vector,
)

PR = RotatorParams(m0=1.0, a=1.0, P0=2.0 * np.sqrt(2.0))
XDOTX = MONITOR_COLUMNS.index("res_Xdotx")


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

    def test_xdot_x_monitor_sees_p_dot_x_on_the_sphere(self):
        # x on the sphere, P.x = -0.36: Xdot.x = -P.x / (4 m0) fails on its
        # own, where a monitor that only rescaled res_xx would read 0.
        params = RotatorParams(m0=0.9, a=1.2, P0=2.5)
        s = RotatorState(X=np.zeros(4), x=[0.0, 1.2, 0.0, 0.0],
                         p=np.zeros(4), P=[2.5, 0.3, 0.0, 0.0])
        mon = dict(zip(MONITOR_COLUMNS, constraint_monitors(s, params)))
        assert mon["res_xx"] == 0.0
        px = abs(mdot(s.P, s.x))
        assert px > 0.0
        assert mon["res_Xdotx"] == pytest.approx(px / (4.0 * params.m0), rel=1e-15)

    @pytest.mark.parametrize("length, mass", [(10.0, 1.0), (0.1, 1.0), (10.0, 10.0),
                                              (0.1, 0.1)])
    def test_scaled_xdot_x_monitor_is_unit_free(self, length, mass):
        # The sphere state above with its lengths (a, x) times lambda = 10 or
        # 0.1 and its masses (m0, P) times 1 or lambda: |P.x| / (4 m0) scales
        # like a, so divided by monitor_scales it reads the same.
        def scaled_xdotx(length, mass):
            params = RotatorParams(m0=0.9 * mass, a=1.2 * length, P0=2.5 * mass)
            s = RotatorState(X=np.zeros(4), x=[0.0, 1.2 * length, 0.0, 0.0],
                             p=np.zeros(4), P=[2.5 * mass, 0.3 * mass, 0.0, 0.0])
            mon = constraint_monitors(s, params) / monitor_scales(params)
            return dict(zip(MONITOR_COLUMNS, mon))["res_Xdotx"]

        assert scaled_xdotx(length, mass) == pytest.approx(scaled_xdotx(1.0, 1.0), rel=1e-14)

    def test_equations_of_motion_by_finite_differences(self):
        from dirac_disquant.rotator import _rhs
        cf = RotatorClosedForm(PR)
        h = 1e-6
        for tau in np.linspace(0.0, cf.tau_period, 12):
            s, sp, sm = cf.state(tau), cf.state(tau + h), cf.state(tau - h)
            dX, dx, dp = _rhs(s, PR)
            assert mdot(s.P, s.x) == 0.0
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
        mons = constraint_monitors(traj.states, PR)
        assert mons.max() < 1e-8
        assert traj.zeta_drift < 1e-8
        # |P.x| / (4 m0) below 2.5e-10 a is |P.x| below 1e-9 a^2 at m0 = 1.
        assert mons[XDOTX].max() / PR.a < 2.5e-10

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
        states += [RotatorState(0.0, *(rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-3, 3))[:3])
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

    @pytest.mark.parametrize("pr", [PR, RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2)])
    def test_rk4_step_local_error_is_fifth_order(self, pr):
        # One step from the closed-form start against the closed form at dt:
        # halving dt cuts the error by 2^5 (measured 31.92 to 32.00).
        cf = RotatorClosedForm(pr)
        s0 = cf.state(0.0)

        def step_error(dt):
            k = rotator._rk4_constants(pr, s0.P.tolist(), dt)
            out = np.array(rotator._rk4_step(*s0.X.tolist(), *s0.x.tolist(),
                                             *s0.p.tolist(), k))
            ref = cf.state(dt)
            return max(np.abs(out[4:8] - ref.x).max(), np.abs(out[8:] - ref.p).max())

        errors = np.array([step_error(cf.tau_period / n) for n in (50, 100, 200)])
        ratios = errors[:-1] / errors[1:]
        assert np.all((30.0 <= ratios) & (ratios <= 34.0)), ratios

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
        assert constraint_monitors(s, PR).shape == (5, 1)
        for got, want in ((s.X, initial.X), (s.x, initial.x), (s.p, initial.p)):
            assert got.shape == (1, 4) and got[0].tobytes() == want.tobytes()
        want = constraint_monitors(initial, PR)[XDOTX]
        assert constraint_monitors(s, PR)[XDOTX, 0] == want
        assert traj.pre_projection_drift == 0.0 and traj.zeta_drift == 0.0

    def test_memory_grows_by_the_preallocated_rows_only(self):
        # The 12-float state rows take 96 B per step; a whole-trajectory
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
        assert (large - small) / 18000 <= 120

    def test_coarse_long_run_needs_the_rescale(self, monkeypatch):
        # 100 steps a period over 100 periods.  With the rescale of x onto
        # x.x = -a^2 the run stays within 8.2e-5 of the closed form, its
        # worst monitor at 4.1e-8 and its zeta drift at 5.1e-9; without it
        # the drift before projection passes its bound.
        cf = RotatorClosedForm(PR)
        dt = cf.tau_period / 100
        steps = 100 * 100
        traj = integrate_rotator(PR, cf.state(0.0), steps, dt)
        ref = cf.state(np.arange(steps + 1) * dt)
        assert np.abs(traj.states.x - ref.x).max() < 1e-3
        assert np.abs(traj.states.X - ref.X).max() < 1e-3
        assert (constraint_monitors(traj.states, PR) / monitor_scales(PR)[:, None]).max() < 1e-5
        assert traj.zeta_drift < 1e-6

        monkeypatch.setattr(rotator, "_project", lambda x, a: x)
        with pytest.raises(StepSizeError):
            integrate_rotator(PR, cf.state(0.0), steps, dt)

    def test_boosted_coarse_long_run_keeps_p_unprojected(self):
        # 200 steps a period over 50 periods from the closed-form start seen
        # from a moving frame, where P has spatial components.  p is never
        # projected, yet P.p and P.x stay at roundoff: (P.x, P.p) is a
        # stable linear subsystem that starts there.  The Xdot.x bound,
        # |P.x| / (4 m0 a) <= 2.5e-13, is |P.x| <= 1e-12 a^2 at m0 = a = 1.
        lam = boost_matrix([0.3, -0.2, 0.1])
        cf = RotatorClosedForm(PR)
        s = cf.state(0.0)
        start = RotatorState(X=lam @ s.X, x=lam @ s.x, p=lam @ s.p, P=lam @ s.P)
        dt = cf.tau_period / 200
        steps = 200 * 50
        traj = integrate_rotator(PR, start, steps, dt)
        ref = cf.state(np.arange(steps + 1) * dt)
        scaled = constraint_monitors(traj.states, PR) / monitor_scales(PR)[:, None]
        assert scaled[MONITOR_COLUMNS.index("res_Pp")].max() <= 1e-12
        assert scaled[XDOTX].max() <= 2.5e-13
        assert np.abs(traj.states.x - ref.x @ lam.T).max() < 1e-5
        assert np.abs(traj.states.X - ref.X @ lam.T).max() < 1e-5

    def test_too_large_step_rejected(self):
        cf = RotatorClosedForm(PR)
        with pytest.raises(StabilityError):
            integrate_rotator(PR, cf.state(0.0), 10, cf.tau_period / 10)

    @pytest.mark.parametrize("dt", [-0.25, -0.3])
    def test_too_large_negative_step_rejected(self, dt):
        # |omega dt| = 0.14 and 0.17 at m0 = a = 1, P0 = 3, against the wall
        # at 0.1.  Tested as omega dt < 0.1, they ran 1000 steps with zeta
        # drifts of 2.9e-7 and 7.4e-7, above the suite's 1e-8.
        pr = RotatorParams(m0=1.0, a=1.0, P0=3.0)
        with pytest.raises(StabilityError):
            integrate_rotator(pr, RotatorClosedForm(pr).state(0.0), 1000, dt)

    def test_negative_step_keeps_the_suite_bounds(self):
        # The rotator suite's run, 200 steps a period over 10 periods,
        # stepped backward in tau as the rotator command steps: the bounds
        # the suite holds the forward run to.
        cf = RotatorClosedForm(PR)
        steps = 2000
        dt = -cf.tau_period / 200
        traj = integrate_rotator(PR, cf.state(0.0), steps, dt)
        ref = cf.state(np.arange(steps + 1) * dt)
        assert np.abs(traj.states.x - ref.x).max() < 1e-6
        assert np.abs(traj.states.X - ref.X).max() < 1e-6
        assert constraint_monitors(traj.states, PR).max() < 1e-8
        assert traj.zeta_drift < 1e-8
        assert traj.pre_projection_drift <= 1e-6

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

    @pytest.mark.parametrize("s", [1e-170, 1e170])
    def test_depends_on_a_over_hbar_alone(self, s):
        # hbar^2 underflows or overflows at hbar = 1e-170 and 1e170, and
        # u = 4 a m0 c / hbar does not; scaling a and hbar together keeps
        # gamma to a few ulps.
        for a in (0.05, 0.1, 0.15, 0.2):
            want = rigidity(a, 1.0)
            assert abs(rigidity(a * s, 1.0, hbar=s) - want) <= 4 * math.ulp(want)

    def test_domain_bound_enforced(self):
        bound = rigidity_domain_bound(1.0)
        with pytest.raises(DomainError):
            rigidity(bound, 1.0)
        with pytest.raises(DomainError):
            rigidity(-0.1, 1.0)


class TestIdentification:
    def test_zeta_zero(self):
        out = dcr_to_rr(1.0, 0.0)
        assert abs(out["M"] - 1.0) < 1e-15
        assert abs(out["m0"] - 0.5) < 1e-15
        assert out["a"] == 0.0

    def test_v_zero(self):
        out = rr_to_dcr(1.0, 0.0)
        assert out["m"] == 2.0
        assert out["m_dcr"] == 2.0
        assert out["a"] == 0.0

    def test_half_speed_spot_values(self):
        out = rr_to_dcr(1.0, 0.5)
        assert abs(out["m"] - 8.0 / 3.0) < 1e-15
        assert abs(out["m_dcr"] - 2.0 / np.sqrt(0.75)) < 1e-12
        assert out["omega_dcr"] == 4.0
        assert out["a"] == 0.125
        assert abs(out["moment_to_angular_momentum"] - 0.25) < 1e-15

    @pytest.mark.parametrize("zeta", [0.1, 1.0, 10.0])
    def test_roundtrip(self, zeta):
        fwd = dcr_to_rr(1.0, zeta)
        back = rr_to_dcr(fwd["m0"], fwd["v"])
        assert abs(back["m"] - 1.0) < 1e-12
        assert abs(back["zeta"] - zeta) < 1e-12 * max(1.0, zeta)
        assert abs(back["m_dcr"] - fwd["M"]) < 1e-12

    def test_rigidity_equals_mass_increase(self):
        for v in (0.1, 0.5, 0.9):
            out = rr_to_dcr(1.0, v)
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
        ident = rr_to_dcr(m0, v, hbar=4.0 * m0 * a / v)
        assert ident["a"] == pytest.approx(a, rel=1e-15)
        assert ident["angular_momentum"] == pytest.approx(-orbit[2], rel=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            rr_to_dcr(1.0, 1.0)
