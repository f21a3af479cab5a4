"""The generators' array routes give the bytes of a scalar reference kept here.

Each reference is the per-value or per-step form the array route replaced;
comparisons go through ``tobytes`` or string equality, so a flipped sign of
zero or a last-bit difference fails.
"""

import numpy as np
import pytest

from dirac_disquant import report, rotator
from dirac_disquant.errors import DomainError, StepSizeError
from dirac_disquant.minkowski import mdot
from dirac_disquant.particle import DcParams, boost_matrix, helix_solution
from dirac_disquant.report import csv_table, fmt, json_table
from dirac_disquant.rotator import RotatorParams, RotatorState, closed_form_rotator


@pytest.mark.parametrize("b", [0.0, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("hbar", [1.0, 1e-3])
def test_position_at_time_matches_state_per_row(b, hbar):
    sol = helix_solution(b, phase=0.7, p=DcParams(m=1.3, hbar=hbar))
    times = np.arange(5001) * 0.0137 - 20.0
    got = sol.position_at_time(times)
    assert got.shape == (len(times), 3)
    for t, row in zip(times, got):
        assert row.tobytes() == sol.state(t / (b + 1.0)).x[1:].tobytes()
    # The z column keeps the sign of root/omega: -0.0 here, since omega < 0.
    assert np.all(np.signbit(got[:, 2]))
    assert sol.position_at_time(times[7]).tobytes() == got[7].tobytes()


def test_worldlines_at_time_array_matches_scalar_per_row():
    pr = RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2)
    cf = closed_form_rotator(pr)
    times = np.linspace(0.0, 40.0, 3001)
    one, two = cf.worldlines_at_time(times)
    assert one.shape == two.shape == (len(times), 4)
    for k, t in enumerate(times):
        th = pr.omega0 * t + pr.phase
        ref_one = np.array([t, pr.a * np.cos(th), pr.a * np.sin(th), 0.0])
        ref_two = np.array([t, -pr.a * np.cos(th), -pr.a * np.sin(th), 0.0])
        s_one, s_two = cf.worldlines_at_time(t)
        assert one[k].tobytes() == ref_one.tobytes() == s_one.tobytes()
        assert two[k].tobytes() == ref_two.tobytes() == s_two.tobytes()


# ------------------------------------------------------------------ CSV


def csv_reference(header_meta, columns, rows):
    """The per-value writer: fmt on every value, joined line by line."""
    lines = [f"# {k}={fmt(v) if isinstance(v, float) else v}"
             for k, v in header_meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def awkward_rows(n, seed=5):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-300, 300, size=(n, 4))
    special = [-0.0, 0.0, 1e-300, -1e-300, 1e300, 5e-324, 0.1, 1.0 / 3.0,
               123456789012345678.0, 0.30000000000000004, -2.2250738585072014e-308]
    flat = rows.reshape(-1)
    flat[:len(special)] = special[:len(flat)]
    return rows


@pytest.mark.parametrize("n", [1, report.CSV_BLOCK_ROWS, report.CSV_BLOCK_ROWS + 1])
def test_csv_table_matches_per_value_fmt(n):
    rows = awkward_rows(n)
    meta = {"kind": "test", "x": -0.0, "y": 1e-300, "units": "c=1"}
    columns = ["c1", "c2", "c3", "c4"]
    text = csv_table(meta, columns, rows)
    assert text == csv_reference(meta, columns, rows)
    assert text == csv_table(meta, columns, rows.tolist())
    assert "-0," not in text and ",-0\n" not in text


def test_csv_table_zero_rows_and_lists():
    assert csv_table({"k": 1.5}, ["a", "b"], []) == "# k=1.5\na,b\n"
    rows = [[np.float64(-0.0), 2.5], [1e300, -1e-300]]
    assert csv_table({}, ["a", "b"], rows) == csv_reference({}, ["a", "b"], rows)


def test_json_table_keeps_negative_zero():
    rows = np.array([[-0.0, 1.0], [2.0, -0.0]])
    text = json_table({"kind": "t"}, ["a", "b"], rows)
    assert '"rows": [\n    [\n      -0.0,' in text
    assert text == json_table({"kind": "t"}, ["a", "b"], rows.tolist())


# ------------------------------------------------------------- rigidity


def rigidity_reference(a, m0, hbar, c):
    """The Python-float formula, with its libm pow squares."""
    return hbar / np.sqrt(hbar ** 2 - (4.0 * a * m0 * c) ** 2) - 1.0


@pytest.mark.parametrize("m0, hbar, c", [(1.0, 1.0, 1.0), (0.7, 2.5, 3.0),
                                         (1.3, 1e-3, 1e3), (2.0, 1e-8, 1.0)])
def test_rigidity_array_matches_scalar_per_point(m0, hbar, c):
    bound = rotator.rigidity_domain_bound(m0, hbar, c)
    a = np.concatenate([np.linspace(0.0, 0.999 * bound, 20001),
                        np.random.default_rng(1).uniform(0.0, bound, 10000)])
    gamma = rotator.rigidity(a, m0, hbar, c)
    assert gamma.shape == a.shape
    for v, g in zip(a.tolist(), gamma.tolist()):
        scalar = rotator.rigidity(v, m0, hbar, c)
        assert isinstance(scalar, float)
        assert scalar == g == rigidity_reference(v, m0, hbar, c)


def test_rigidity_array_fails_closed():
    bound = rotator.rigidity_domain_bound(1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="got 0.25"):
        rotator.rigidity(np.array([0.0, 0.1, bound]), 1.0)
    with pytest.raises(DomainError):
        rotator.rigidity(np.array([0.1, np.nan]), 1.0)
    with pytest.raises(DomainError, match="= inf is not a positive finite number"):
        rotator.rigidity(np.array([0.0, 0.1]), 1.0, hbar=1e200)


# ------------------------------------------------------------ integrator


def integrate_reference(p, initial, steps, dt):
    """RK4 with projection on numpy 4-vectors: the array form the float
    stepper follows.  Returns the states, monitors and drift summary."""
    def rhs(x, prel, P):
        nu = -mdot(P, x) / p.a ** 2
        xdot_center = -(P - nu * x) / (4.0 * p.m0)
        xdot = -prel / (4.0 * p.m0)
        pdot = (-x * (4.0 * p.m0 ** 2 - mdot(P, P)) / (4.0 * p.m0 * p.a ** 2)
                - nu * P / (4.0 * p.m0))
        return xdot_center, xdot, pdot

    def monitors(s):
        xdot_center = -(s.P - s.nu * s.x) / (4.0 * p.m0)
        pp_target = -(mdot(s.P, s.P) - 4.0 * p.m0 ** 2) - p.a ** 2 * s.nu ** 2
        return [abs(mdot(s.x, s.x) + p.a ** 2), abs(mdot(s.p, s.x)),
                abs(mdot(s.P, s.p)), abs(mdot(s.p, s.p) - pp_target),
                abs(mdot(xdot_center, s.x))]

    X, x, prel, P = initial.X.copy(), initial.x.copy(), initial.p.copy(), initial.P.copy()
    tau = initial.tau
    states, mons, pre = [initial], [monitors(initial)], []
    for _ in range(steps):
        k1 = rhs(x, prel, P)
        k2 = rhs(x + 0.5 * dt * k1[1], prel + 0.5 * dt * k1[2], P)
        k3 = rhs(x + 0.5 * dt * k2[1], prel + 0.5 * dt * k2[2], P)
        k4 = rhs(x + dt * k3[1], prel + dt * k3[2], P)
        X = X + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        x = x + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        prel = prel + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        tau += dt
        pre.append(abs(mdot(x, x) + p.a ** 2))
        x = x * (p.a / np.sqrt(-mdot(x, x)))
        prel = prel - x * (mdot(prel, x) / mdot(x, x)) - P * (mdot(prel, P) / mdot(P, P))
        nu = -mdot(P, x) / p.a ** 2
        states.append(RotatorState(tau=tau, X=X, x=x, p=prel, P=P, nu=nu))
        mons.append(monitors(states[-1]))
    zetas = np.array([rotator.zeta_vector(s) for s in states])
    zeta_drift = np.abs(zetas - zetas[0]).max() / max(np.abs(zetas[0]).max(), 1e-30)
    nu_max = max(abs(s.nu) for s in states)
    return states, np.array(mons), (max(pre, default=0.0), zeta_drift, nu_max)


def boosted(s, u):
    """The state seen from a frame moving with 3-velocity -u: every
    constraint is a Minkowski product, so it still holds, and P gains
    spatial components."""
    lam = boost_matrix(u)
    return RotatorState(tau=s.tau, X=lam @ s.X, x=lam @ s.x, p=lam @ s.p, P=lam @ s.P)


@pytest.mark.parametrize("params, steps, dt, u", [
    (RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2), 500, None, None),
    (RotatorParams(m0=1.0, a=1.0, P0=2.0 * np.sqrt(2.0)), 2000, None, None),
    (RotatorParams(m0=0.9, a=1.2, P0=2.5, phase=1.0), 400, None, (0.3, -0.2, 0.1)),
    (RotatorParams(m0=1.0, a=1.0, P0=2.0), 200, 0.05, None),
], ids=["established", "suite-params", "boosted", "static"])
def test_integrate_rotator_matches_array_stepper(params, steps, dt, u):
    cf = closed_form_rotator(params)
    dt = cf.tau_period / steps if dt is None else dt
    start = cf.state(0.0) if u is None else boosted(cf.state(0.0), u)
    traj = rotator.integrate_rotator(params, start, steps, dt)
    states, mons, summary = integrate_reference(params, start, steps, dt)
    assert len(traj.states) == len(states) == steps + 1
    for got, ref in zip(traj.states, states):
        assert got.tau == ref.tau and got.nu == ref.nu
        for name in ("X", "x", "p", "P"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert traj.monitors.tobytes() == mons.tobytes()
    assert (traj.pre_projection_drift, traj.zeta_drift, traj.nu_max) == summary


def test_rhs_float_form_matches_array_form():
    cf = closed_form_rotator(RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2))
    rng = np.random.default_rng(2)
    p = cf.params
    for _ in range(200):
        x, prel = rng.normal(size=4), rng.normal(size=4)
        P = cf.state(0.0).P + rng.normal(size=4) * 1e-3
        nu = -mdot(P, x) / p.a ** 2
        ref = (-(P - nu * x) / (4.0 * p.m0), -prel / (4.0 * p.m0),
               -x * (4.0 * p.m0 ** 2 - mdot(P, P)) / (4.0 * p.m0 * p.a ** 2)
               - nu * P / (4.0 * p.m0))
        got = rotator._rhs(x.tolist(), prel.tolist(), P.tolist(), p)
        assert got[3] == nu
        for g, r in zip(got[:3], ref):
            assert np.array(g).tobytes() == r.tobytes()


def test_projection_guard_fires_on_a_timelike_x():
    with pytest.raises(StepSizeError):
        rotator._project((1.0, 0.5, 0.0, 0.0), (0.0,) * 4, (3.0, 0.0, 0.0, 0.0), 1.0)
