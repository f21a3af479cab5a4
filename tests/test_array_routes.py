"""The array routes give the bytes of a scalar reference kept here.

This covers the generators and the covariant layer of ``verify``.  Each
reference is the per-value, per-step or per-point form the array route
replaced; comparisons go through ``tobytes`` or string equality, so a flipped
sign of zero or a last-bit difference fails.
"""

import dataclasses

import numpy as np
import pytest

from dirac_disquant import algebra, covariant, report, rotator
from dirac_disquant.algebra import SpinorParams, build_gamma_basis
from dirac_disquant.covariant import (
    ParamField,
    f3_without_inner_factor,
    kinetic_term_matrix,
    lagrangian_pieces,
    random_param_field,
)
from dirac_disquant.errors import DomainError, StepSizeError
from dirac_disquant.minkowski import BASIS4, eps4, eps4_stack, mdot
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
    stepper follows, one state and one monitor row per step.  Returns the
    stacked states, the monitors and the drift summary."""
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
    zetas = np.array([rotator.zeta_vector(s.x, s.p, s.P) for s in states])
    zeta_drift = np.abs(zetas - zetas[0]).max() / max(np.abs(zetas[0]).max(), 1e-30)
    nu_max = max(abs(s.nu) for s in states)
    stack = RotatorState(tau=np.array([s.tau for s in states]),
                         X=np.array([s.X for s in states]),
                         x=np.array([s.x for s in states]),
                         p=np.array([s.p for s in states]), P=P,
                         nu=np.array([s.nu for s in states]))
    return stack, np.array(mons), (max(pre, default=0.0), zeta_drift, nu_max)


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
    ref, mons, summary = integrate_reference(params, start, steps, dt)
    assert traj.states.x.shape == ref.x.shape == (steps + 1, 4)
    for name in ("tau", "X", "x", "p", "P", "nu"):
        assert same(getattr(traj.states, name), getattr(ref, name))
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


@pytest.mark.parametrize("params", [
    RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2),
    RotatorParams(m0=0.7, a=1.3, P0=2.0 * 0.7, phase=2.5),
], ids=["established", "static"])
def test_closed_form_states_and_monitors_match_per_state(params):
    cf = closed_form_rotator(params)
    taus = np.concatenate([np.linspace(-30.0, 30.0, 401), [0.0, -0.0]])
    stack = cf.state(taus)
    mon = rotator.constraint_monitors(stack, params)
    assert stack.x.shape == stack.p.shape == stack.X.shape == (len(taus), 4)
    assert same(stack.tau, taus) and stack.P.shape == (4,)
    for k, tau in enumerate(taus.tolist()):
        one = cf.state(tau)
        assert isinstance(one.tau, float) and one.tau == tau
        assert same(one.P, stack.P)
        for name in ("X", "x", "p"):
            assert same(getattr(one, name), getattr(stack, name)[k])
        for key, value in rotator.constraint_monitors(one, params).items():
            assert isinstance(value, float)
            assert np.float64(value).tobytes() == mon[key][k].tobytes()


def test_stacked_monitors_match_per_state_off_shell():
    # Random stacks with nonzero nu: every monitor column is nonzero.
    rng = np.random.default_rng(9)
    params = RotatorParams(m0=0.9, a=1.2, P0=2.5)
    n = 300
    stack = RotatorState(tau=np.zeros(n), X=rng.normal(size=(n, 4)),
                         x=rng.normal(size=(n, 4)), p=rng.normal(size=(n, 4)),
                         P=rng.normal(size=4), nu=rng.normal(size=n))
    mon = rotator.constraint_monitors(stack, params)
    for k in range(n):
        one = RotatorState(tau=0.0, X=stack.X[k], x=stack.x[k], p=stack.p[k],
                           P=stack.P, nu=float(stack.nu[k]))
        for key, value in rotator.constraint_monitors(one, params).items():
            assert np.float64(value).tobytes() == mon[key][k].tobytes()


@pytest.mark.parametrize("field", ["tau", "X", "x", "p", "P", "nu"])
def test_nan_initial_state_raises(field):
    params = RotatorParams(m0=1.0, a=1.0, P0=3.0)
    start = closed_form_rotator(params).state(0.0)
    value = np.array(getattr(start, field), dtype=float)
    value.flat[0] = np.nan
    bad = dataclasses.replace(start, **{field: value if value.ndim else float(value)})
    with pytest.raises(DomainError):
        rotator.integrate_rotator(params, bad, 10, 0.01)


def test_projection_guard_fires_on_a_timelike_x():
    with pytest.raises(StepSizeError):
        rotator._project((1.0, 0.5, 0.0, 0.0), (0.0,) * 4, (3.0, 0.0, 0.0, 0.0), 1.0)


# ------------------------------------------------------ covariant layer


def same(a, b):
    """Equal shapes and equal bytes, so signed zeros must match too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()




def scalar_value(c0, c1, c2, x):
    return c0 + float(c1 @ x) + float(x @ c2 @ x)


def scalar_grad(c1, c2, x):
    return c1 + 2.0 * (c2 @ x)


def scalar_jet(fld, x):
    """Values, gradients, n and d_n of one point, one scalar at a time."""
    vals = [scalar_value(float(fld.c0[a]), fld.c1[a], fld.c2[a], x) for a in range(6)]
    grads = [scalar_grad(fld.c1[a], fld.c2[a], x) for a in range(6)]
    raw = fld.n0 + fld.n_lin @ x
    r = np.linalg.norm(raw)
    d_n = np.empty((4, 3))
    for l in range(4):
        dr = fld.n_lin[:, l]
        d_n[l] = dr / r - raw * float(raw @ dr) / r ** 3
    return vals, grads, raw / r, d_n


def scalar_params(fld, x):
    vals, _, n, _ = scalar_jet(fld, x)
    return SpinorParams(amplitude=vals[0], kappa=vals[1], phi=vals[2],
                        eta=np.array(vals[3:]), n=n, z=fld.z)


def scalar_rotors(p, g):
    eye4 = np.eye(4, dtype=complex)
    half_kappa = 0.5 * p.kappa
    f_phase = p.amplitude * np.exp(1j * p.phi) * (
        np.cos(half_kappa) * eye4 + np.sin(half_kappa) * g.gamma5
    )
    e = p.eta_norm
    if e == 0.0:
        f_boost = eye4.copy()
    else:
        sigma_v = np.einsum("a,aij->ij", p.v, g.sigma)
        f_boost = np.cosh(e / 2) * eye4 - 1j * np.sinh(e / 2) * (g.gamma5 @ sigma_v)
    f_rot = 1j * np.einsum("a,aij->ij", p.n, g.sigma)
    return f_phase, f_boost, f_rot


def scalar_column(p, g):
    f_phase, f_boost, f_rot = scalar_rotors(p, g)
    return f_phase @ f_boost @ f_rot @ g.pi_column


def scalar_kinetic(fld, x, g, hbar, h):
    """The nine-call stencil: one jet and one spinor per stencil point."""
    def psi_matrix(pt):
        return np.outer(scalar_column(scalar_params(fld, pt), g), g.pi_column.conj())

    psi0 = psi_matrix(x)
    bar0 = psi0.conj().T @ g.gamma[0]
    total = np.zeros((4, 4), dtype=complex)
    for l in range(4):
        step = np.zeros(4)
        step[l] = h
        psi_p = psi_matrix(x + step)
        psi_m = psi_matrix(x - step)
        d_psi = (psi_p - psi_m) / (2.0 * h)
        d_bar = (psi_p.conj().T - psi_m.conj().T) @ g.gamma[0] / (2.0 * h)
        total += 0.5j * hbar * (bar0 @ g.gamma[l] @ d_psi - d_bar @ g.gamma[l] @ psi0)
    return float(np.trace(total).real)


FIELD_SEEDS = (0, 7, 31)


def random_points(seed, n):
    return np.random.default_rng(seed + 1000).uniform(-0.5, 0.5, size=(n, 4))


@pytest.mark.parametrize("seed", FIELD_SEEDS)
def test_values_and_jet_match_scalar_evaluation(seed):
    fld = random_param_field(np.random.default_rng(seed))
    X = random_points(seed, 12)
    s, raw = fld.values(X)
    for i, x in enumerate(X):
        vals, grads, n, d_n = scalar_jet(fld, x)
        assert same(s[i], np.array(vals))
        assert same(raw[i], fld.n0 + fld.n_lin @ x)
        jet = fld.jet(x)
        p = jet.params
        assert [p.amplitude, p.kappa, p.phi] == vals[:3]
        assert same(p.eta, np.array(vals[3:]))
        assert same(p.n, n)
        assert same(jet.d_n, d_n)
        for got, want in zip((jet.d_amp, jet.d_kappa, jet.d_phi), grads):
            assert same(got, want)
        assert same(jet.d_eta, np.stack(grads[3:], axis=1))


@pytest.mark.parametrize("seed", FIELD_SEEDS)
@pytest.mark.parametrize("h", [1e-3, 5e-4, 2.5e-4, 1e-4])
def test_kinetic_oracle_matches_nine_call_stencil(seed, h):
    fld = random_param_field(np.random.default_rng(seed))
    g = build_gamma_basis(fld.z)
    for x in random_points(seed, 3):
        assert kinetic_term_matrix(fld, x, g, 0.9, h=h) == scalar_kinetic(fld, x, g, 0.9, h)


def test_stacked_det_equals_eps4_sum():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, c, d = rng.normal(size=(3, 4))
        rows = rng.normal(size=(4, 4))
        w = rng.normal(size=4)
        for stack, ref in (
            (eps4_stack(a, rows, c, d), [eps4(a, rows[k], c, d) for k in range(4)]),
            (eps4_stack(rows, BASIS4, c, d), [eps4(rows[k], BASIS4[k], c, d)
                                              for k in range(4)]),
            (eps4_stack(a, BASIS4, rows, d), [eps4(a, BASIS4[k], rows[k], d)
                                              for k in range(4)]),
        ):
            assert sum(w * stack) == sum(w[k] * ref[k] for k in range(4))


@pytest.mark.parametrize("seed", FIELD_SEEDS)
def test_lagrangian_pieces_match_eps4_sums(seed, monkeypatch):
    fld = random_param_field(np.random.default_rng(seed))
    X = random_points(seed, 5)
    stacked = [(lagrangian_pieces(fld, x, 1.1, 0.8), f3_without_inner_factor(fld, x, 0.8))
               for x in X]

    def eps4_calls(a, b, c, d):
        return np.array([eps4(*cols) for cols in zip(*np.broadcast_arrays(a, b, c, d))])

    monkeypatch.setattr(covariant, "eps4_stack", eps4_calls)
    for x, (pieces, f3_alt) in zip(X, stacked):
        assert pieces == lagrangian_pieces(fld, x, 1.1, 0.8)
        assert f3_alt == f3_without_inner_factor(fld, x, 0.8)


def test_spinor_batch_size_invariance():
    rng = np.random.default_rng(17)
    g = build_gamma_basis(algebra.random_unit(rng))
    params = [algebra.random_spinor_params(rng) for _ in range(9)]
    params[4] = dataclasses.replace(params[4], eta=np.zeros(3))
    batch = (np.array([p.amplitude for p in params]), np.array([p.kappa for p in params]),
             np.array([p.phi for p in params]), np.array([p.eta for p in params]),
             np.array([p.n for p in params]))
    cols = algebra.spinor_columns(*batch, g)
    rotors = algebra.spinor_rotor_stack(*batch, g)
    assert same(rotors[1][4], np.eye(4, dtype=complex))
    for i, p in enumerate(params):
        one = algebra.spinor_columns(*(b[i:i + 1] for b in batch), g)
        assert same(cols[i], one[0])
        assert same(cols[i], scalar_column(p, g))
        assert same(algebra.spinor_from_params(p, g).components, scalar_column(p, g))
        for got, want in zip(algebra.spinor_rotor_matrices(p, g), scalar_rotors(p, g)):
            assert same(got, want)
        for stack, want in zip(rotors, scalar_rotors(p, g)):
            assert same(stack[i], want)


def test_param_field_is_immutable_and_rebuilt_by_replace():
    fld = random_param_field(np.random.default_rng(3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        fld.c0 = np.zeros(6)
    with pytest.raises(ValueError):
        fld.c0[0] = 2.0
    c0 = fld.c0.copy()
    c0[0] = 2.0
    moved = dataclasses.replace(fld, c0=c0)
    x = np.zeros(4)
    assert moved.params(x).amplitude == 2.0
    assert fld.params(x).amplitude == float(fld.c0[0])
    assert np.array_equal(moved.c2, np.swapaxes(moved.c2, 1, 2))
    with pytest.raises(DomainError):
        ParamField(c0=c0[:5], c1=fld.c1, c2=fld.c2, n0=fld.n0, n_lin=fld.n_lin, z=fld.z)
