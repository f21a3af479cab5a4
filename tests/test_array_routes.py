"""The array routes give the bytes of a scalar reference kept here.

This covers the generators, the covariant layer of ``verify`` and the
stacked algebra kernels of its ``algebra`` suite.  Each
reference is the per-value, per-step or per-point form the array route
replaced; comparisons go through ``tobytes`` or string equality, so a flipped
sign of zero or a last-bit difference fails.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from dirac_disquant import algebra, covariant, minkowski, particle, report, rotator, verification
from dirac_disquant.algebra import SpinorParams, build_gamma_basis
from dirac_disquant.covariant import (
    ParamField,
    f3_without_inner_factor,
    kinetic_term_matrix,
    lagrangian_pieces,
    random_param_field,
)
from dirac_disquant.errors import DomainError, StepSizeError
from dirac_disquant.minkowski import (
    BASIS4,
    F_REST,
    cross3,
    eps4,
    eps4_free,
    eps4_stack,
    mdot,
)
from dirac_disquant.particle import DcParams, boost_matrix, helix_solution
from dirac_disquant.report import csv_chunks, csv_table, fmt, json_chunks, json_table
from dirac_disquant.rotator import RotatorClosedForm, RotatorParams, RotatorState


@pytest.mark.parametrize("b", [0.0, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("hbar", [1.0, 1e-3])
def test_position_at_time_matches_state_per_row(b, hbar):
    sol = helix_solution(b, phase=0.7, p=DcParams(m=1.3, hbar=hbar))
    times = np.arange(5001) * 0.0137 - 20.0
    got = sol.position_at_time(times)
    assert got.shape == (len(times), 3)
    # The closed form at each time on its own, one numpy scalar at a time.
    k = np.sqrt(b * (b + 2.0)) / sol.omega
    for t, row in zip(times, got):
        th = sol.omega * (t / (b + 1.0)) + sol.phase
        ref = np.array([k * np.sin(th), k * -np.cos(th), k * 0.0])
        assert row.tobytes() == ref.tobytes()
    # The z column keeps the sign of root/omega: -0.0 here, since omega < 0.
    assert np.all(np.signbit(got[:, 2]))
    assert sol.position_at_time(times[7]).tobytes() == got[7].tobytes()


def test_worldlines_at_time_array_matches_scalar_per_row():
    pr = RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2)
    cf = RotatorClosedForm(pr)
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


def json_reference(meta, columns, rows):
    """The pure-Python encoder on the whole payload."""
    payload = {"schema": report.SCHEMA_TAG, **meta, "columns": columns,
               "rows": np.asarray(rows, dtype=float).tolist()}
    return json.dumps(payload, indent=2) + "\n"


def non_finite_rows():
    rows = awkward_rows(7)
    rows[1, 2], rows[3, 0], rows[5, 3], rows[6, 1] = np.nan, np.inf, -np.inf, -np.nan
    return rows


@pytest.mark.parametrize("columns, rows", [
    (["c1", "c2", "c3", "c4"], awkward_rows(1)),
    (["c1", "c2", "c3", "c4"], awkward_rows(report.CSV_BLOCK_ROWS)),
    (["c1", "c2", "c3", "c4"], awkward_rows(report.CSV_BLOCK_ROWS + 1)),
    (["c1", "c2", "c3", "c4"], non_finite_rows()),
    (["a", "b"], []),
    ([], []),
    ([], np.zeros((3, 0))),
    (["a"], [[-0.0], [5e-324]]),
], ids=["one", "block", "block+1", "non-finite", "empty", "no-columns", "empty-rows",
        "one-column"])
def test_json_table_matches_json_dumps(columns, rows):
    meta = {"kind": "test", "x": -0.0, "y": float("nan"), "units": "c=1", "n": 3}
    assert json_table(meta, columns, rows) == json_reference(meta, columns, rows)


# ------------------------------------------------------- streamed tables


def csv_block_reference(header_meta, columns, rows):
    """The whole-table CSV writer: the text of every block held at once."""
    lines = [f"# {k}={fmt(v) if isinstance(v, float) else v}"
             for k, v in header_meta.items()]
    lines.append(",".join(columns))
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * len(columns))
    for start in range(0, len(rows), report.CSV_BLOCK_ROWS):
        block = rows[start:start + report.CSV_BLOCK_ROWS] + 0.0
        lines.append("\n".join([line % tuple(row) for row in block.tolist()]))
    return "\n".join(lines) + "\n"


def json_block_reference(meta, columns, rows):
    """The whole-table JSON writer: the text of every block held at once."""
    head = json.dumps({"schema": report.SCHEMA_TAG, **meta, "columns": columns},
                      indent=2)[:-2]
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        return head + ',\n  "rows": []\n}\n'
    values = ",\n".join(["      %r"] * rows.shape[1])
    row = f"    [\n{values}\n    ]" if values else "    []"
    blocks = []
    for start in range(0, len(rows), report.CSV_BLOCK_ROWS):
        block = rows[start:start + report.CSV_BLOCK_ROWS]
        text = ",\n".join([row % tuple(r) for r in block.tolist()])
        if not np.isfinite(block).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        blocks.append(text)
    body = ",\n".join(blocks)
    return f'{head},\n  "rows": [\n{body}\n  ]\n}}\n'


def uneven_blocks(rows, seed=3):
    """``rows`` cut at random places, empty blocks included."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, len(rows) + 1, size=7))
    return [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]


def special_rows(n, ncols=4):
    """awkward_rows with -0.0, NaN and both infinities spread over the table."""
    rows = awkward_rows(n)[:, :ncols].copy()
    flat = rows.reshape(-1)
    if flat.size >= 5:
        flat[np.arange(5) * (flat.size // 5)] = [-0.0, np.nan, np.inf, -np.inf, -np.nan]
    return rows


BLOCK = report.CSV_BLOCK_ROWS
TABLE_META = {"kind": "test", "x": -0.0, "y": float("nan"), "units": "c=1", "n": 3}


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
@pytest.mark.parametrize("ncols", [0, 1, 4])
def test_chunk_writers_match_whole_table_writers(n, ncols):
    rows = special_rows(n, ncols)
    columns = [f"c{k}" for k in range(ncols)]
    pairs = ((csv_chunks, csv_table, csv_block_reference),
             (json_chunks, json_table, json_block_reference))
    for chunks, table, reference in pairs:
        expect = reference(TABLE_META, columns, rows)
        assert table(TABLE_META, columns, rows) == expect
        assert "".join(chunks(TABLE_META, columns, uneven_blocks(rows))) == expect
        assert "".join(chunks(TABLE_META, columns, [r[None] for r in rows])) == expect
        assert "".join(chunks(TABLE_META, columns, [rows[:0], rows, rows[:0]])) == expect
    text = json_table(TABLE_META, columns, rows)
    assert text == json_reference(TABLE_META, columns, rows)
    if rows.size >= 5:
        assert "      NaN" in text and "      -Infinity" in text


def constant_column_rows(n, seed=6):
    """Rows whose columns are constant over some or all rows: one column
    steps from a constant first half to random values, and one column per
    special value (-0.0, denormals, +-inf, NaN, ...) holds that value in every
    row, beside two random columns."""
    rng = np.random.default_rng(seed)
    specials = [-0.0, 0.0, 1e-300, 5e-324, 1.0 / 3.0, 123456789012345678.0,
                -2.2250738585072014e-308, np.inf, -np.inf, np.nan]
    step = np.where(np.arange(n) < n // 2, 2.5, rng.normal(size=n))
    return np.column_stack([awkward_rows(n, seed)[:, 0], step,
                            *(np.full(n, v) for v in specials),
                            rng.normal(size=n) * 1e-7])


@pytest.mark.parametrize("n", [1, 2, 9, BLOCK + 3])
@pytest.mark.parametrize("ncols", [0, 13])
def test_csv_chunks_format_constant_columns_as_the_reference(n, ncols):
    # csv_chunks formats a column that is constant over a block once; this
    # is the same text as "%.17g" on every value, whatever the cut.
    rows = constant_column_rows(n)[:, :ncols]
    columns = [f"c{k}" for k in range(ncols)]
    expect = csv_block_reference(TABLE_META, columns, rows)
    assert expect == csv_reference(TABLE_META, columns, rows)
    half = n // 2
    for blocks in ([rows], uneven_blocks(rows), [r[None] for r in rows],
                   [rows[:half], rows[half:half + 1], rows[half + 1:]]):
        assert "".join(csv_chunks(TABLE_META, columns, blocks)) == expect
    if ncols and n > 1:
        assert ",2.5,0,0,1e-300,4.9406564584124654e-324," in expect
        assert ",inf,-inf,nan," in expect


def test_chunk_writers_yield_whole_lines():
    rows = special_rows(BLOCK + 5)
    for chunk in csv_chunks({"k": 1}, ["a", "b", "c", "d"], uneven_blocks(rows)):
        assert chunk == "" or chunk.endswith("\n")


# ------------------------------------------------------------- rigidity


def rigidity_reference(a, m0, hbar, c):
    """The Python-float formula in u = 4 a m0 c / hbar."""
    u = 4.0 * a * m0 * c / hbar
    return 1.0 / np.sqrt(1.0 - u * u) - 1.0


def squares_reference(a, m0, hbar, c):
    """The formula in hbar^2 - (4 a m0 c)^2, with its libm pow squares."""
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
        # The squares form loses what the rounding of its two squares does
        # to their difference, 1 - u^2 of it relative, so its distance from
        # gamma is bounded after scaling by 1 - u^2.
        u = 4.0 * v * m0 * c / hbar
        old = squares_reference(v, m0, hbar, c)
        assert abs(g - old) / max(g, 1.0) * (1.0 - u * u) <= 1e-15


def test_rigidity_array_fails_closed():
    bound = rotator.rigidity_domain_bound(1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="got 0.25"):
        rotator.rigidity(np.array([0.0, 0.1, bound]), 1.0)
    with pytest.raises(DomainError):
        rotator.rigidity(np.array([0.1, np.nan]), 1.0)
    # 4 a m0 c overflows to inf, which u < 1 refuses without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="got 1e"):
            rotator.rigidity(np.array([0.0, 1e300]), 1e10)


def test_rigidity_array_serves_a_large_hbar():
    # hbar^2 overflows at hbar = 1e200, but u = 4 a m0 c / hbar does not;
    # gamma is u^2/2 to double precision, 8e-402, which rounds to 0.0.
    assert rotator.rigidity(np.array([0.0, 0.1]), 1.0, hbar=1e200).tolist() == [0.0, 0.0]


# ------------------------------------------------------------ integrator


def rk4_reference(p, X, x, prel, P, dt):
    """One staged RK4 step of the ``_rhs`` equations on numpy 4-vectors,
    before projection: the oracle of the map that ``rotator._rk4_step``
    takes.  Returns the stepped X, x and prel."""
    def rhs(x, prel):
        xdot_center = -P / (4.0 * p.m0)
        xdot = -prel / (4.0 * p.m0)
        pdot = -x * (4.0 * p.m0 ** 2 - mdot(P, P)) / (4.0 * p.m0 * p.a ** 2)
        return xdot_center, xdot, pdot

    k1 = rhs(x, prel)
    k2 = rhs(x + 0.5 * dt * k1[1], prel + 0.5 * dt * k1[2])
    k3 = rhs(x + 0.5 * dt * k2[1], prel + 0.5 * dt * k2[2])
    k4 = rhs(x + dt * k3[1], prel + dt * k3[2])
    return (X + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            x + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
            prel + dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]))


def map_reference(p, X, x, prel, P, dt):
    """One RK4 step as the map c I + g L on numpy 4-vectors, before
    projection: the array form of ``rotator._rk4_step``, with c and g
    computed by the operations of ``rotator._rk4_constants``."""
    m4 = 4.0 * p.m0
    s = 4.0 * p.m0 ** 2 - mdot(P, P)
    d = m4 * p.a ** 2
    q = dt * dt * s / (m4 * d)
    c = 1.0 + q / 2.0 + q * q / 24.0
    g = dt * (1.0 + q / 6.0)
    return X + dt * (P / -m4), c * x + g / -m4 * prel, c * prel + g * -s / d * x


def integrate_reference(p, initial, steps, dt, step=map_reference):
    """``step`` with the rescale of x on numpy 4-vectors, one state and one
    monitor row per step; the map's array form is the one the float stepper
    follows.  Returns the stacked states, the monitors and the drift
    summary."""
    X, x, prel, P = initial.X.copy(), initial.x.copy(), initial.p.copy(), initial.P.copy()
    states, mons, pre = [initial], [monitors_reference(p, initial)], []
    for _ in range(steps):
        X, x, prel = step(p, X, x, prel, P, dt)
        pre.append(abs(mdot(x, x) + p.a ** 2))
        x = x * (p.a / np.sqrt(-mdot(x, x)))
        states.append(RotatorState(X=X, x=x, p=prel, P=P))
        mons.append(monitors_reference(p, states[-1]))
    zetas = np.array([rotator.zeta_vector(s.x, s.p, s.P) for s in states])
    zeta_drift = np.abs(zetas - zetas[0]).max() / max(np.abs(zetas[0]).max(), 1e-30)
    stack = RotatorState(X=np.array([s.X for s in states]),
                         x=np.array([s.x for s in states]),
                         p=np.array([s.p for s in states]), P=P)
    return stack, np.array(mons), (max(pre, default=0.0), zeta_drift)


def monitors_reference(p, s):
    """The five constraint monitors of one state in array form, with Xdot
    the established-motion rate of ``_rhs``."""
    xdot_center = -s.P / (4.0 * p.m0)
    pp_target = -(mdot(s.P, s.P) - 4.0 * p.m0 ** 2)
    return [abs(mdot(s.x, s.x) + p.a ** 2), abs(mdot(s.p, s.x)),
            abs(mdot(s.P, s.p)), abs(mdot(s.p, s.p) - pp_target),
            abs(mdot(xdot_center, s.x))]


def boosted(s, u):
    """The state seen from a frame moving with 3-velocity -u: every
    constraint is a Minkowski product, so it still holds, and P gains
    spatial components."""
    lam = boost_matrix(u)
    return RotatorState(X=lam @ s.X, x=lam @ s.x, p=lam @ s.p, P=lam @ s.P)


RUNS = pytest.mark.parametrize("params, steps, dt, u", [
    (RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2), 500, None, None),
    (RotatorParams(m0=1.0, a=1.0, P0=2.0 * np.sqrt(2.0)), 2000, None, None),
    (RotatorParams(m0=0.9, a=1.2, P0=2.5, phase=1.0), 400, None, (0.3, -0.2, 0.1)),
    (RotatorParams(m0=1.0, a=1.0, P0=2.0), 200, 0.05, None),
    (RotatorParams(m0=1.0, a=1e3, P0=3.0), 200, None, None),
], ids=["established", "suite-params", "boosted", "static", "a-1e3"])


def run_start(params, steps, dt, u):
    """(start, dt) of one ``RUNS`` case: the closed form at tau = 0, boosted
    by u if given, and dt one period over steps unless given."""
    cf = RotatorClosedForm(params)
    dt = cf.tau_period / steps if dt is None else dt
    return (cf.state(0.0) if u is None else boosted(cf.state(0.0), u)), dt


@RUNS
def test_integrate_rotator_matches_array_stepper(params, steps, dt, u):
    start, dt = run_start(params, steps, dt, u)
    traj = rotator.integrate_rotator(params, start, steps, dt)
    ref, mons, summary = integrate_reference(params, start, steps, dt)
    assert traj.states.x.shape == ref.x.shape == (steps + 1, 4)
    for name in ("X", "x", "p", "P"):
        assert same(getattr(traj.states, name), getattr(ref, name))
    assert rotator.constraint_monitors(traj.states, params).T.tobytes() == mons.tobytes()
    assert (traj.pre_projection_drift, traj.zeta_drift) == summary


@RUNS
def test_integrate_rotator_matches_staged_rk4(params, steps, dt, u):
    # The map and the staged stages round differently; over a whole run
    # they stay within 1.4e-14 of each other, relative to the largest
    # entry of X, x and p each.
    start, dt = run_start(params, steps, dt, u)
    traj = rotator.integrate_rotator(params, start, steps, dt)
    ref = integrate_reference(params, start, steps, dt, step=rk4_reference)[0]
    for name in ("X", "x", "p"):
        got, want = getattr(traj.states, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


def rk4_step_cases():
    """(params, X, x, prel, P, dt): random states, boosted and rest-frame P,
    and components that are +0.0 or -0.0."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(100):
        p = RotatorParams(m0=rng.uniform(0.5, 2.0), a=rng.uniform(0.5, 2.0), P0=4.5)
        P = np.array([rng.uniform(2.0, 5.0), *rng.normal(size=3)])
        cases.append((p, *rng.normal(size=(3, 4)), P, rng.uniform(1e-3, 0.1)))
    cf = RotatorClosedForm(RotatorParams(m0=0.9, a=1.2, P0=2.5, phase=1.0))
    for _ in range(100):
        s = boosted(cf.state(rng.uniform(0.0, 20.0)), rng.uniform(-0.45, 0.45, size=3))
        assert np.all(s.P[1:] != 0.0)
        cases.append((cf.params, s.X, s.x, s.p, s.P, cf.tau_period / 1000))
    for _ in range(100):
        s = cf.state(rng.uniform(0.0, 20.0))
        assert s.P.tolist() == [2.5, 0.0, 0.0, 0.0]
        cases.append((cf.params, s.X, s.x, s.p, s.P, cf.tau_period / 1000))
    for _ in range(200):
        signed = rng.choice([0.0, -0.0, 1.0], size=(4, 4)) * rng.normal(size=(4, 4))
        signed[3, 0] = rng.uniform(2.0, 4.0)
        cases.append((cf.params, *signed, 0.01))
    return cases


def test_rk4_step_matches_array_form():
    # The map is the staged step up to rounding: at most 1.09 eps of the
    # largest component was measured over these cases.
    zeros = 0
    for p, X, x, prel, P, dt in rk4_step_cases():
        k = rotator._rk4_constants(p, P.tolist(), dt)
        got = np.array(rotator._rk4_step(*X.tolist(), *x.tolist(), *prel.tolist(), k))
        assert same(got, np.concatenate(map_reference(p, X, x, prel, P, dt)))
        staged = np.concatenate(rk4_reference(p, X, x, prel, P, dt))
        assert np.abs(got - staged).max() <= 4 * np.finfo(float).eps * np.abs(staged).max()
        zeros += np.count_nonzero(got == 0.0)
    assert zeros > 0


def test_rhs_matches_array_form_on_single_and_stacked_states():
    # One state or a stack of n, each in its own layout, with the bits of
    # the array formula; a stack's rows are its one-state rates.
    rng = np.random.default_rng(2)
    for n in (None, *rng.integers(1, 50, size=199)):
        m0, a = rng.uniform(0.5, 2.0, size=2)
        p = RotatorParams(m0=m0, a=a, P0=2.0 * m0 + rng.uniform(0.0, 2.0))
        shape = (4,) if n is None else (n, 4)
        X, x, prel = (rng.normal(size=shape) for _ in range(3))
        P = np.array([p.P0, 0.0, 0.0, 0.0]) + rng.normal(size=4) * 1e-3
        ref = (-P / (4.0 * p.m0), -prel / (4.0 * p.m0),
               -x * (4.0 * p.m0 ** 2 - mdot(P, P)) / (4.0 * p.m0 * p.a ** 2))
        got = rotator._rhs(RotatorState(X=X, x=x, p=prel, P=P), p)
        assert len(got) == 3
        for g, r in zip(got, ref):
            assert g.shape == r.shape and g.tobytes() == r.tobytes()
        if n is not None:
            for i in range(n):
                one = rotator._rhs(RotatorState(X=X[i], x=x[i], p=prel[i], P=P), p)
                assert one[0].tobytes() == got[0].tobytes()
                assert one[1].tobytes() == got[1][i].tobytes()
                assert one[2].tobytes() == got[2][i].tobytes()


def test_project_float_form_matches_array_form():
    rng = np.random.default_rng(8)
    cf = RotatorClosedForm(RotatorParams(m0=0.9, a=1.2, P0=2.5, phase=1.0))
    cases = []
    for _ in range(150):
        # Integrated states slightly off the sphere, seen from a moving frame.
        s = boosted(cf.state(rng.uniform(0.0, 20.0)), rng.uniform(-0.45, 0.45, size=3))
        cases.append((s.x + rng.normal(size=4) * 1e-4, cf.params.a))
        # Generic spacelike x at any radius.
        x = rng.normal(size=4)
        x[0] *= 0.1
        cases.append((x, rng.uniform(0.5, 2.0)))
    for x, a in cases:
        ref_x = x * (a / np.sqrt(-mdot(x, x)))
        got_x = rotator._project(tuple(x.tolist()), a)
        assert all(type(v) is float for v in got_x)
        assert np.array(got_x).tobytes() == ref_x.tobytes()


@pytest.mark.parametrize("params", [
    RotatorParams(m0=1.1, a=0.8, P0=3.0, phase=0.2),
    RotatorParams(m0=0.7, a=1.3, P0=2.0 * 0.7, phase=2.5),
], ids=["established", "static"])
def test_closed_form_states_and_monitors_match_per_state(params):
    cf = RotatorClosedForm(params)
    taus = np.concatenate([np.linspace(-30.0, 30.0, 401), [0.0, -0.0]])
    stack = cf.state(taus)
    mon = rotator.constraint_monitors(stack, params)
    assert stack.x.shape == stack.p.shape == stack.X.shape == (len(taus), 4)
    assert stack.P.shape == (4,)
    for k, tau in enumerate(taus.tolist()):
        one = cf.state(tau)
        assert same(one.P, stack.P)
        for name in ("X", "x", "p"):
            assert same(getattr(one, name), getattr(stack, name)[k])
        one_mon = rotator.constraint_monitors(one, params)
        assert one_mon.shape == (5,) and one_mon.dtype == np.float64
        for row, value in enumerate(one_mon):
            assert value.tobytes() == mon[row, k].tobytes()


def test_stacked_monitors_match_per_state_off_shell():
    # Random stacks, whose random x and P give a nonzero P.x: every monitor
    # column is nonzero.
    rng = np.random.default_rng(9)
    params = RotatorParams(m0=0.9, a=1.2, P0=2.5)
    n = 300
    stack = RotatorState(X=rng.normal(size=(n, 4)),
                         x=rng.normal(size=(n, 4)), p=rng.normal(size=(n, 4)),
                         P=rng.normal(size=4))
    mon = rotator.constraint_monitors(stack, params)
    assert np.all(mdot(stack.P, stack.x.T) != 0.0) and np.all(mon != 0.0)
    for k in range(n):
        one = RotatorState(X=stack.X[k], x=stack.x[k], p=stack.p[k], P=stack.P)
        for row, value in enumerate(rotator.constraint_monitors(one, params)):
            assert value.tobytes() == mon[row, k].tobytes()
        assert np.array(monitors_reference(params, one)).tobytes() == mon[:, k].tobytes()


@pytest.mark.parametrize("field", ["X", "x", "p", "P"])
def test_nan_initial_state_raises(field):
    params = RotatorParams(m0=1.0, a=1.0, P0=3.0)
    start = RotatorClosedForm(params).state(0.0)
    value = np.array(getattr(start, field), dtype=float)
    value.flat[0] = np.nan
    bad = dataclasses.replace(start, **{field: value})
    with pytest.raises(DomainError):
        rotator.integrate_rotator(params, bad, 10, 0.01)


def test_projection_guard_fires_on_a_timelike_x():
    with pytest.raises(StepSizeError):
        rotator._project((1.0, 0.5, 0.0, 0.0), 1.0)


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


def scalar_rotors(p):
    eye4 = np.eye(4, dtype=complex)
    half_kappa = 0.5 * p.kappa
    f_phase = p.amplitude * np.exp(1j * p.phi) * (
        np.cos(half_kappa) * eye4 + np.sin(half_kappa) * algebra.GAMMA5
    )
    e = p.eta_norm
    if e == 0.0:
        f_boost = eye4.copy()
    else:
        sigma_v = np.einsum("a,aij->ij", p.v, algebra.SIGMA)
        f_boost = np.cosh(e / 2) * eye4 - 1j * np.sinh(e / 2) * (algebra.GAMMA5 @ sigma_v)
    f_rot = 1j * np.einsum("a,aij->ij", p.n, algebra.SIGMA)
    return f_phase, f_boost, f_rot


def scalar_column(p, g):
    f_phase, f_boost, f_rot = scalar_rotors(p)
    return f_phase @ f_boost @ f_rot @ g.pi_column


def scalar_kinetic(fld, x, g, hbar, h):
    """The nine-call stencil: one jet and one spinor column per stencil
    point, and -hbar Im sum_l c-bar gamma^l d_l c."""
    gamma = algebra.GAMMA
    c0 = scalar_column(scalar_params(fld, x), g)
    d_c = np.empty((4, 4), dtype=complex)
    for l in range(4):
        step = np.zeros(4)
        step[l] = h
        c_p = scalar_column(scalar_params(fld, x + step), g)
        c_m = scalar_column(scalar_params(fld, x - step), g)
        d_c[l] = (c_p - c_m) / (2.0 * h)
    bar0 = c0.conj() @ gamma[0]
    return float(-hbar * np.sum((bar0 @ gamma) * d_c).imag)


def matrix_spinor_kinetic(fld, x, g, hbar, h):
    """The oracle of the column form: the trace of the 4x4 sum
    i/2 hbar sum_l (psi-bar gamma^l d_l psi - d_l psi-bar gamma^l psi) over
    the matrix spinors psi = c pi^dagger, one per stencil point."""
    def psi_matrix(pt):
        return np.outer(scalar_column(scalar_params(fld, pt), g), g.pi_column.conj())

    gamma = algebra.GAMMA
    psi0 = psi_matrix(x)
    bar0 = psi0.conj().T @ gamma[0]
    total = np.zeros((4, 4), dtype=complex)
    for l in range(4):
        step = np.zeros(4)
        step[l] = h
        psi_p = psi_matrix(x + step)
        psi_m = psi_matrix(x - step)
        d_psi = (psi_p - psi_m) / (2.0 * h)
        d_bar = (psi_p.conj().T - psi_m.conj().T) @ gamma[0] / (2.0 * h)
        total += 0.5j * hbar * (bar0 @ gamma[l] @ d_psi - d_bar @ gamma[l] @ psi0)
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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("h", [1e-3, 5e-4, 2.5e-4, 1e-4])
def test_kinetic_columns_match_matrix_spinor_trace(seed, h):
    # The trace of c pi^dagger products is the column bilinear times
    # |pi|^2 = 1; the two forms differ only in rounding, which the central
    # difference divides by 2 h.
    fld = random_param_field(np.random.default_rng(seed))
    g = build_gamma_basis(fld.z)
    for x in random_points(seed, 20):
        old = matrix_spinor_kinetic(fld, x, g, 0.9, h)
        assert abs(kinetic_term_matrix(fld, x, g, 0.9, h=h) - old) <= 1e-9 * max(abs(old), 1.0)


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


def eps4_calls(a, b, c, d):
    """``eps4_stack`` as one ``eps4`` call per matrix."""
    cols = np.broadcast_arrays(a, b, c, d)
    return np.array([eps4(*m) for m in zip(*(v.reshape(-1, 4) for v in cols))]
                    ).reshape(cols[0].shape[:-1])


@pytest.mark.parametrize("seed", FIELD_SEEDS)
def test_lagrangian_pieces_match_eps4_sums(seed, monkeypatch):
    fld = random_param_field(np.random.default_rng(seed))
    X = random_points(seed, 5)
    stacked = f3_without_inner_factor(fld, X, 0.8)
    for x in X:
        pieces, _ = covariant_reference(fld, x, 1.1, 0.8, eps=eps4_calls)
        assert dataclasses.astuple(lagrangian_pieces(fld, x, 1.1, 0.8)) == pieces

    shapes = []

    def counted(*cols):
        shapes.append(np.broadcast_shapes(*(np.shape(v) for v in cols)))
        return eps4_calls(*cols)
    monkeypatch.setattr(covariant, "eps4_stack", counted)
    assert same(f3_without_inner_factor(fld, X, 0.8), stacked)
    for x, f3_alt in zip(X, stacked):
        assert same(f3_without_inner_factor(fld, x, 0.8), f3_alt)
    # One eps4_stack call per oracle call, over all its rows.
    assert shapes == [(5, 4, 4)] + [(1, 4, 4)] * 5


@pytest.mark.parametrize("seed", FIELD_SEEDS)
def test_stacked_oracle_rows_match_one_point_calls(seed):
    # Each row of a stack of 1, 50 or 500 points has the bits of the
    # one-point call and of the reference's F3.
    fld = random_param_field(np.random.default_rng(seed))
    X = random_points(seed, 500)
    rows = f3_without_inner_factor(fld, X, 0.8)
    assert rows.shape == (500,)
    for n in (1, 50):
        assert same(f3_without_inner_factor(fld, X[:n], 0.8), rows[:n])
    for x, row in zip(X, rows):
        one = f3_without_inner_factor(fld, x, 0.8)
        assert type(one) is float and same(one, row)
        assert same(covariant_reference(fld, x, 1.1, 0.8)[1], row)


def test_spinor_batch_size_invariance():
    rng = np.random.default_rng(17)
    g = build_gamma_basis(algebra.random_unit(rng))
    params = [algebra.random_spinor_params(rng) for _ in range(9)]
    params[4] = dataclasses.replace(params[4], eta=np.zeros(3))
    batch = (np.array([p.amplitude for p in params]), np.array([p.kappa for p in params]),
             np.array([p.phi for p in params]), np.array([p.eta for p in params]),
             np.array([p.n for p in params]))
    cols = algebra.spinor_columns(*batch, g.pi_column)
    rotors = algebra.spinor_rotor_stack(*batch)
    assert same(rotors[1][4], np.eye(4, dtype=complex))
    for i, p in enumerate(params):
        one_row = [b[i:i + 1] for b in batch]
        assert same(cols[i], algebra.spinor_columns(*one_row, g.pi_column)[0])
        assert same(cols[i], scalar_column(p, g))
        assert same(algebra.spinor_from_params(p, g), scalar_column(p, g))
        for got, want in zip(algebra.spinor_rotor_stack(*one_row), scalar_rotors(p)):
            assert same(got[0], want)
        for stack, want in zip(rotors, scalar_rotors(p)):
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
    assert moved.jet(x).params.amplitude == 2.0
    assert fld.jet(x).params.amplitude == float(fld.c0[0])
    assert np.array_equal(moved.c2, np.swapaxes(moved.c2, 1, 2))
    with pytest.raises(DomainError):
        ParamField(c0=c0[:5], c1=fld.c1, c2=fld.c2, n0=fld.n0, n_lin=fld.n_lin, z=fld.z)


# ----------------------------------------- per-call kernels, bit for bit
#
# The bodies below are the kernels as they were before their per-call
# overhead was cut: list comprehensions over k or l, np.outer, a fresh
# identity and metric per call, and one det per eps4 sum.  The kernels must
# keep their bits on every input.


def gamma_basis_reference(z):
    z = np.asarray(z, dtype=float)
    eye4 = np.eye(4, dtype=complex)
    z_sigma = np.einsum("a,aij->ij", z, algebra.SIGMA)
    pi = 0.25 * (eye4 + algebra.GAMMA[0]) @ (eye4 + z_sigma)
    norms = np.linalg.norm(pi, axis=0)
    col = pi[:, int(np.argmax(norms))]
    col = col / np.linalg.norm(col)
    k = int(np.argmax(np.abs(col)))
    return pi, col * np.exp(-1j * np.angle(col[k]))


def rotor_stack_reference(amplitude, kappa, phi, eta, n):
    amplitude = np.asarray(amplitude, dtype=float)
    eta = np.asarray(eta, dtype=float)
    eye4 = np.eye(4, dtype=complex)
    half_kappa = (0.5 * np.asarray(kappa, dtype=float))[:, None, None]
    f_phase = (amplitude * np.exp(1j * np.asarray(phi, dtype=float)))[:, None, None] * (
        np.cos(half_kappa) * eye4 + np.sin(half_kappa) * algebra.GAMMA5)
    e = np.sqrt(np.matmul(eta[:, None, :], eta[:, :, None]))[:, :, 0]
    v = eta / np.where(e == 0.0, 1.0, e)
    half_e = (e / 2)[:, :, None]
    f_boost = (np.cosh(half_e) * eye4
               - 1j * np.sinh(half_e) * (algebra.GAMMA5 @ algebra.sigma_dot(v)))
    return f_phase, f_boost, 1j * algebra.sigma_dot(n)


def bilinears_matrix_reference(c):
    gamma, gamma5 = algebra.GAMMA, algebra.GAMMA5
    bar = c.conj() @ gamma[0]
    scalar_c = bar @ c
    j_c = np.array([bar @ (gamma[k] @ c) for k in range(4)])
    s_c = np.array([1j * (bar @ (gamma5 @ gamma[k] @ c)) for k in range(4)])
    return float(scalar_c.real), j_c.real, s_c.real


def closed_form_reference(p):
    a2 = p.amplitude ** 2
    e = float(np.linalg.norm(p.eta))
    v = np.zeros(3) if e == 0.0 else p.eta / e
    xi = 2.0 * p.n * float(np.dot(p.n, p.z)) - p.z
    j = np.empty(4)
    j[0] = a2 * np.cosh(e)
    j[1:] = a2 * np.sinh(e) * v
    S = np.empty(4)
    S[0] = a2 * np.sinh(e) * float(np.dot(xi, v))
    S[1:] = a2 * (xi + (np.cosh(e) - 1.0) * v * float(np.dot(v, xi)))
    return a2 * np.cos(p.kappa), j, S


def mdot_rows_reference(d, f):
    return np.array([mdot(d[l], f) for l in range(4)])


def derived_jet_reference(jet):
    p = jet.params
    eta_vec = p.eta
    eta = float(np.linalg.norm(eta_vec))
    v = eta_vec / eta
    d_eta_norm = jet.d_eta @ v
    d_v = jet.d_eta / eta - np.outer(d_eta_norm, eta_vec) / eta ** 2
    nz = float(np.dot(p.n, p.z))
    xi = 2.0 * p.n * nz - p.z
    d_xi = 2.0 * jet.d_n * nz + 2.0 * np.outer(jet.d_n @ p.z, p.n)
    rho = p.amplitude ** 2
    d_rho = 2.0 * p.amplitude * jet.d_amp
    ch, sh = np.cosh(eta), np.sinh(eta)
    j = np.concatenate(([rho * ch], rho * sh * v))
    d_j = np.empty((4, 4))
    d_j[:, 0] = d_rho * ch + rho * sh * d_eta_norm
    d_j[:, 1:] = np.outer(d_rho * sh + rho * ch * d_eta_norm, v) + rho * sh * d_v
    S = algebra.spin_from_xi(xi, j, rho)
    return rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S


def aux_reference(j, rho, xi, z):
    f = F_REST
    xi4 = np.concatenate(([0.0], xi))
    z4 = np.concatenate(([0.0], z))
    nu = xi4 - mdot(xi4, f) * f
    mu = nu / np.sqrt(2.0 * (1.0 + float(np.dot(xi, z))))
    q = (j + f * rho) / np.sqrt(2.0 * rho * (rho + mdot(j, f)))
    return z4, nu, mu, q


def covariant_reference(fld, x, m, hbar, eps=eps4_stack):
    """The ten fields of lagrangian_pieces, in order, and the F3 of
    f3_without_inner_factor, with numpy-scalar arithmetic, a Python ``sum``
    over numpy scalars and one ``eps`` call per eps4 sum."""
    f = F_REST
    jet = fld.jet(x)
    p = jet.params
    rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S = derived_jet_reference(jet)
    f1 = -hbar * float(j @ jet.d_phi)
    f2 = -0.5 * hbar * float(S @ jet.d_kappa)
    one_plus = 1.0 + float(np.dot(xi, p.z))
    dets = [np.linalg.det(np.array([xi, d_xi[l], p.z]).T) for l in range(4)]
    f3 = -hbar / (2.0 * one_plus) * sum(j[l] * dets[l] for l in range(4))
    z4, nu, mu, q = aux_reference(j, rho, xi, p.z)
    d_nu = np.zeros((4, 4))
    d_nu[:, 1:] = d_xi
    d_nu -= np.outer(mdot_rows_reference(d_nu, f), f)
    norm = np.sqrt(2.0 * one_plus)
    d_norm = (d_xi @ p.z) / norm
    d_mu = d_nu / norm - np.outer(d_norm, nu) / norm ** 2
    curl_v = np.array([d_v[2, 2] - d_v[3, 1], d_v[3, 0] - d_v[1, 2], d_v[1, 1] - d_v[2, 0]])
    f4 = -0.5 * hbar * rho * float(
        np.cross(d_eta_norm[1:], v).dot(xi)
        + np.sinh(eta) * curl_v.dot(xi)
        + 2.0 * np.sinh(eta / 2) ** 2 * np.cross(v, d_v[0]).dot(xi))
    f3_cov = hbar * sum(j * eps(mu, d_mu, z4, f))
    w = j + f * rho
    d_w = d_j + np.outer(d_rho, f)
    d_up = np.array([1.0, -1.0, -1.0, -1.0])
    jf = mdot(j, f)
    f4_cov = -hbar / (2.0 * (rho + jf)) * sum(d_up * eps(d_w, BASIS4, w, nu))
    n2 = 2.0 * rho * (rho + jf)
    d_n2 = 2.0 * d_rho * (rho + jf) + 2.0 * rho * (d_rho + mdot_rows_reference(d_j, f))
    nq = np.sqrt(n2)
    d_nq = d_n2 / (2.0 * nq)
    d_q = d_w / nq - np.outer(d_nq, w) / n2
    f4_cov_q = hbar * rho * sum(d_up * eps(q, BASIS4, d_q, nu))
    f3_alt = hbar / (2.0 * one_plus) * sum(j * eps(nu, d_nu, z4, f))
    l_cl = -m * rho + f1 + f3
    l_q1 = 2.0 * m * rho * np.sin(p.kappa / 2) ** 2 + f2
    return (f1, f2, f3, f4, f3_cov, f4_cov, f4_cov_q, l_cl, l_q1, f4), f3_alt


def one_point_pieces_reference(fld, x, m, hbar):
    """The one-point body that the stacked ``_lagrangian_pieces`` replaced:
    elementwise arithmetic on Python floats, numpy for every BLAS
    contraction, det, cosh, sinh and sin, and one det call for the three
    covariant eps4 sums."""
    def products(a, b):
        # The additions of ``sum`` over numpy scalars, from its start value 0.
        return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]

    f, f_list = F_REST, F_REST.tolist()
    jet = fld.jet(x)
    p = jet.params
    rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S = derived_jet_reference(jet)
    f1 = -hbar * float(j @ jet.d_phi)
    f2 = -0.5 * hbar * float(S @ jet.d_kappa)
    one_plus = 1.0 + float(xi.dot(p.z))
    cols = np.empty((4, 3, 3))
    cols[:, :, 0] = xi
    cols[:, :, 1] = d_xi
    cols[:, :, 2] = p.z
    j_list = j.tolist()
    f3 = -hbar / (2.0 * one_plus) * products(j_list, minkowski.det(cols).tolist())
    z4, nu, mu, q = aux_reference(j, rho, xi, p.z)
    d_nu = np.zeros((4, 4))
    d_nu[:, 1:] = d_xi
    d_nu -= np.array([mdot(row, f_list) for row in d_nu.tolist()])[:, None] * f
    norm = math.sqrt(2.0 * one_plus)
    d_mu = d_nu / norm - ((d_xi @ p.z) / norm)[:, None] * nu / norm ** 2
    v_list, dv = v.tolist(), d_v.tolist()
    curl_v = np.array([dv[2][2] - dv[3][1], dv[3][0] - dv[1][2], dv[1][1] - dv[2][0]])
    f4 = -0.5 * hbar * rho * (
        float(cross3(d_eta_norm[1:].tolist(), v_list).dot(xi))
        + float(np.sinh(eta)) * float(curl_v.dot(xi))
        + 2.0 * float(np.sinh(eta / 2) ** 2) * float(cross3(v_list, dv[0]).dot(xi)))
    w = j + f * rho
    d_w = d_j + d_rho[:, None] * f
    rho_jf = rho + mdot(j_list, f_list)
    n2 = 2.0 * rho * rho_jf
    nq = math.sqrt(n2)
    d_nq = np.array([(2.0 * a * rho_jf + 2.0 * rho * (a + mdot(b, f_list))) / (2.0 * nq)
                     for a, b in zip(d_rho.tolist(), d_j.tolist())])
    d_q = d_w / nq - d_nq[:, None] * w / n2
    cols = np.empty((3, 4, 4, 4))
    cols[0, :, :, 0] = mu
    cols[0, :, :, 1] = d_mu
    cols[0, :, :, 2] = z4
    cols[0, :, :, 3] = f
    cols[1, :, :, 0] = d_w
    cols[1:, :, :, 1] = BASIS4
    cols[1, :, :, 2] = w
    cols[1:, :, :, 3] = nu
    cols[2, :, :, 0] = q
    cols[2, :, :, 2] = d_q
    eps_mu, eps_w, eps_q = minkowski.det(cols).tolist()
    d_up = [1.0, -1.0, -1.0, -1.0]
    f3_cov = hbar * products(j_list, eps_mu)
    f4_cov = -hbar / (2.0 * rho_jf) * products(d_up, eps_w)
    f4_cov_q = hbar * rho * products(d_up, eps_q)
    l_cl = -m * rho + f1 + f3
    l_q1 = 2.0 * m * rho * float(np.sin(p.kappa / 2)) ** 2 + f2
    return f1, f2, f3, f4, f3_cov, f4_cov, f4_cov_q, l_cl, l_q1, f4


def random_parameter_sets(n, seed):
    """n generic parameter sets; every tenth has eta = 0, one has tiny eta."""
    rng = np.random.default_rng(seed)
    params = [algebra.random_spinor_params(rng) for _ in range(n)]
    for i in range(0, n, 10):
        params[i] = dataclasses.replace(params[i], eta=np.zeros(3))
    params[1] = dataclasses.replace(params[1], eta=np.array([1e-300, 0.0, -0.0]))
    return params


def test_gamma_basis_matches_reference():
    rng = np.random.default_rng(41)
    axes = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    for z in axes + [algebra.random_unit(rng) for _ in range(250)]:
        g = build_gamma_basis(z)
        pi, col = gamma_basis_reference(z)
        assert same(g.pi_projector, pi) and same(g.pi_column, col)
    assert same(algebra.METRIC, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_algebra_kernels_match_references():
    params = random_parameter_sets(250, 43)
    for p in params:
        g = build_gamma_basis(p.z)
        one = [p.amplitude], [p.kappa], [p.phi], p.eta[None], p.n[None]
        for got, want in zip(algebra.spinor_rotor_stack(*one),
                             rotor_stack_reference(*one)):
            assert same(got, want)
        c = algebra.spinor_from_params(p, g)
        bm = algebra.bilinears_matrix(c)
        scalar, j, S = bilinears_matrix_reference(c)
        assert bm.scalar == scalar and same(bm.j, j) and same(bm.S, S)
        bc = algebra.bilinears_closed_form(p)
        scalar, j, S = closed_form_reference(p)
        assert bc.scalar == scalar and same(bc.j, j) and same(bc.S, S)
        assert p.eta_norm == float(np.linalg.norm(p.eta))
    # The same rows as one stack of 250.
    batch = (np.array([p.amplitude for p in params]), np.array([p.kappa for p in params]),
             np.array([p.phi for p in params]), np.array([p.eta for p in params]),
             np.array([p.n for p in params]))
    for got, want in zip(algebra.spinor_rotor_stack(*batch),
                         rotor_stack_reference(*batch)):
        assert same(got, want)


def test_stacked_algebra_kernels_match_one_set_calls():
    # Rows 0, 10, 20, ... have eta = 0 and row 1 has |eta| = 1e-300.
    params = random_parameter_sets(250, 47)
    bases = [build_gamma_basis(p.z) for p in params]
    ps = SpinorParams.stack(params)
    cols = algebra.spinor_columns(ps.amplitude, ps.kappa, ps.phi, ps.eta, ps.n,
                                  np.array([g.pi_column for g in bases]))
    bm = algebra.bilinears_matrix(cols)
    bc = algebra.bilinears_closed_form(ps)
    xi = algebra.xi_from_bilinears(bc)
    s_back = algebra.spin_from_xi(xi, bc.j, bc.rho)
    assert cols.shape == (250, 4) and xi.shape == (250, 3) and s_back.shape == (250, 4)
    assert same(ps.eta_norm, [p.eta_norm for p in params])
    assert same(ps.v, [p.v for p in params]) and same(ps.xi, [p.xi for p in params])
    for i, (p, g) in enumerate(zip(params, bases)):
        c = algebra.spinor_from_params(p, g)
        assert same(cols[i], c)
        one = SpinorParams.stack([p])
        assert same(algebra.spinor_columns(one.amplitude, one.kappa, one.phi, one.eta,
                                           one.n, g.pi_column[None])[0], c)
        bm1, bc1 = algebra.bilinears_matrix(c), algebra.bilinears_closed_form(p)
        for stack, row, b1 in ((bm, i, bm1), (algebra.bilinears_matrix(c[None]), 0, bm1),
                               (bc, i, bc1), (algebra.bilinears_closed_form(one), 0, bc1)):
            assert same(stack.scalar[row], b1.scalar) and same(stack.rho[row], b1.rho)
            assert same(stack.j[row], b1.j) and same(stack.S[row], b1.S)
        xi1 = algebra.xi_from_bilinears(bc1)
        assert same(xi[i], xi1)
        assert same(s_back[i], algebra.spin_from_xi(xi1, bc1.j, bc1.rho))
        assert same(algebra.spin_from_xi(xi1[None], bc1.j[None], np.array([bc1.rho]))[0],
                    s_back[i])


def test_stacked_rho_rounds_as_the_scalar_squares():
    # ``j[k] ** 2`` of a float is libm pow, which differs from numpy's
    # array square j * j in about one value in a thousand.
    rng = np.random.default_rng(48)
    params = [algebra.random_spinor_params(rng) for _ in range(5000)]
    ps = SpinorParams.stack(params)
    cols = algebra.spinor_columns(ps.amplitude, ps.kappa, ps.phi, ps.eta, ps.n,
                                  np.array([build_gamma_basis(p.z).pi_column for p in params]))
    bm = algebra.bilinears_matrix(cols)
    for j, rho in zip(bm.j, bm.rho):
        j0, j1, j2, j3 = (float(x) for x in j)
        assert same(rho, np.sqrt(max(j0 ** 2 - j1 ** 2 - j2 ** 2 - j3 ** 2, 0.0)))


def per_set_algebra_residuals(seed):
    """The four heavy algebra checks as the per-set loops they replaced."""
    params = [algebra.random_spinor_params(np.random.default_rng(seed + 1000 + i))
              for i in range(1000)]

    def matrix_route(p):
        return algebra.bilinears_matrix(
            algebra.spinor_from_params(p, algebra.build_gamma_basis(p.z)))

    def equivalence(p):
        bm = matrix_route(p)
        bc = algebra.bilinears_closed_form(p)
        scale = max(np.abs(bc.j).max(), np.abs(bc.S).max(), abs(bc.scalar), 1e-300)
        return (np.abs(bm.j - bc.j).max() / scale, np.abs(bm.S - bc.S).max() / scale,
                abs(bm.scalar - bc.scalar) / scale)

    def identities(p):
        bm = matrix_route(p)
        a4 = p.amplitude ** 4
        return (abs(mdot(bm.S, bm.S) + mdot(bm.j, bm.j)) / a4,
                abs(mdot(bm.j, bm.S)) / a4)

    def rho_check(p):
        return abs(matrix_route(p).rho - p.amplitude ** 2) / p.amplitude ** 2

    def xi_checks(p):
        bc = algebra.bilinears_closed_form(p)
        xi = algebra.xi_from_bilinears(bc)
        s_back = algebra.spin_from_xi(xi, bc.j, bc.rho)
        return (np.abs(xi - p.xi).max(), abs(np.linalg.norm(xi) - 1.0),
                np.abs(s_back - bc.S).max() / max(np.abs(bc.S).max(), 1e-300))

    worst = verification._worst
    return {
        "bilinear-equivalence": worst(map(equivalence, params)),
        "flux-spin-identities": worst(map(identities, params)),
        "rho-equals-amplitude-squared": worst(map(rho_check, params)),
        "xi-extraction-roundtrip": worst(map(xi_checks, params)),
    }


@pytest.mark.parametrize("seed", [42, 7, 123])
def test_batched_algebra_records_match_per_set_checks(seed):
    rep = verification.run_suite("algebra", report.RunConfig(seed=seed))
    got = {r.check_id: r.residual for r in rep.records}
    for check_id, residual in per_set_algebra_residuals(seed).items():
        assert same(got[check_id], residual), check_id


def test_algebra_suite_builds_one_basis_per_set_and_check(monkeypatch):
    # Each matrix-route check keeps its own bases and one call per kernel.
    calls = {"build_gamma_basis": 0, "bilinears_matrix": 0, "spinor_columns": 0}
    for name in calls:
        fn = getattr(algebra, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(algebra, name, counted)
    verification.run_suite("algebra", report.RunConfig(seed=42))
    assert calls == {"build_gamma_basis": 1 + 8 + 3 * 1000, "bilinears_matrix": 3,
                     "spinor_columns": 3}


def test_mdot_of_transposed_rows_matches_row_calls():
    rng = np.random.default_rng(44)
    frames = [F_REST] + [boost_matrix(rng.uniform(-0.45, 0.45, size=3))[:, 0]
                         for _ in range(250)]
    for f in frames:
        d = rng.normal(size=(4, 4))
        d[:, rng.integers(4)] = 0.0
        assert same(mdot(d.T, f), mdot_rows_reference(d, f))


def test_covariant_kernels_match_references():
    for k in range(24):
        fld = random_param_field(np.random.default_rng(500 + k))
        for x in random_points(500 + k, 10):
            jet = fld.jet(x)
            for got, want in zip(covariant._derived_jet(fld.jet(x[None])),
                                 derived_jet_reference(jet)):
                assert same(got[0], want)
            rho, _, j, _, _, _, _, _, xi, _, _ = derived_jet_reference(jet)
            aux = covariant.CovariantAux.from_state(j, rho, xi, fld.z)
            for got, want in zip((aux.z4, aux.nu, aux.mu, aux.q),
                                 aux_reference(j, rho, xi, fld.z)):
                assert same(got, want)
            pieces = dataclasses.astuple(lagrangian_pieces(fld, x, 1.1, 0.8))
            want, f3_alt = covariant_reference(fld, x, 1.1, 0.8)
            assert len(pieces) == len(want) == 10
            for got, ref, old in zip(pieces, want, one_point_pieces_reference(fld, x, 1.1, 0.8)):
                assert same(got, ref) and same(got, old)
            assert same(f3_without_inner_factor(fld, x, 0.8), f3_alt)


@pytest.mark.parametrize("seed", FIELD_SEEDS)
@pytest.mark.parametrize("m, hbar", [(1.0, 1.0), (1.1, 0.8)])
@pytest.mark.parametrize("n", [1, 10, 50])
def test_stacked_covariant_rows_match_one_point_references(seed, m, hbar, n):
    # Each row of the stacked jet, _derived_jet, CovariantAux and body has
    # the bits of the per-point references, whatever the stack's size.
    fld = random_param_field(np.random.default_rng(seed))
    X = random_points(seed, n)
    jet = fld.jet(X)
    p = jet.params
    derived = covariant._derived_jet(jet)
    rho, _, j, _, _, _, _, _, xi, _, _ = derived
    aux = covariant.CovariantAux.from_state(j, rho, xi, fld.z)
    rows = covariant._lagrangian_pieces(fld, X, m, hbar)
    assert len(rows) == n and p.amplitude.shape == rho.shape == (n,)
    for i, x in enumerate(X):
        vals, grads, n_vec, d_n = scalar_jet(fld, x)
        assert [p.amplitude[i], p.kappa[i], p.phi[i], *p.eta[i]] == vals
        assert same(p.n[i], n_vec) and same(jet.d_n[i], d_n)
        for got, want in zip((jet.d_amp[i], jet.d_kappa[i], jet.d_phi[i]), grads):
            assert same(got, want)
        assert same(jet.d_eta[i], np.stack(grads[3:], axis=1))
        ref = derived_jet_reference(fld.jet(x))
        for got, want in zip(derived, ref):
            assert same(got[i], want)
        for got, want in zip((aux.z4, aux.nu, aux.mu, aux.q),
                             aux_reference(ref[2], ref[0], ref[8], fld.z)):
            assert same(got[i], want)
        want, _ = covariant_reference(fld, x, m, hbar)
        old = one_point_pieces_reference(fld, x, m, hbar)
        for got, ref_value, old_value in zip(dataclasses.astuple(rows[i]), want, old):
            assert type(got) is float and same(got, ref_value) and same(got, old_value)


def _wall_field(wall):
    """A seeded field whose only wall in x0 >= 0 is the plane x0 = 0."""
    fld = random_param_field(np.random.default_rng(3))
    c0, c1, c2 = fld.c0.copy(), fld.c1.copy(), fld.c2.copy()
    n0, n_lin, z = fld.n0, fld.n_lin, fld.z
    if wall in ("amplitude=0", "amplitude=1e-5"):
        # A = A0 + 2 x0: rho + j^0 = 0, or rho (rho + j.f) below 1e-9.
        c0[0], c1[0], c2[0] = (0.0 if wall == "amplitude=0" else 1e-5), 0.0, 0.0
        c1[0, 0] = 2.0
    elif wall == "eta=0":
        c0[3:], c1[3:], c2[3:] = 0.0, 0.0, 0.0
        c1[3, 0] = 2.0
    elif wall == "xi=-z":
        # raw n = (1, 0, 2 x0) and z = (0, 0, 1): n.z = 0 at x0 = 0.
        n0, n_lin, z = [1.0, 0.0, 0.0], np.zeros((3, 4)), [0.0, 0.0, 1.0]
        n_lin[2, 0] = 2.0
    else:
        # raw n = (x0, 0, 0) vanishes at x0 = 0; n = z elsewhere.
        n0, n_lin, z = np.zeros(3), np.zeros((3, 4)), [1.0, 0.0, 0.0]
        n_lin[0, 0] = 1.0
    return dataclasses.replace(fld, c0=c0, c1=c1, c2=c2, n0=n0, n_lin=n_lin, z=z)


@pytest.mark.parametrize("wall", ["amplitude=0", "amplitude=1e-5", "eta=0", "xi=-z", "n=0"])
def test_a_stack_with_one_wall_row_raises_and_stores_nothing(wall):
    fld = _wall_field(wall)
    X = random_points(3, 10)
    X[:, 0] = np.abs(X[:, 0]) + 0.1
    off = X.copy()
    X[6, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            covariant.prefill_pieces(fld, X, 1.0, 1.0)
        assert fld.memo == {}
        # With row 6 off the wall, the stack fills one entry per row.
        covariant.prefill_pieces(fld, off, 1.0, 1.0)
    assert len(fld.memo) == 10


@pytest.mark.parametrize("seed", [42, 7])
def test_field_suites_fill_the_memo_with_one_body_call_per_field(seed, monkeypatch):
    # Every one of the 2600 per-point calls of appendixA and appendixB reads
    # the memo that one body call per field filled: 10 fields per suite.
    calls = {"lagrangian_pieces": 0, "_lagrangian_pieces": 0}
    for name in calls:
        fn = getattr(covariant, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(covariant, name, counted)
    assert verification.run_suite("all", report.RunConfig(seed=seed)).passed
    assert calls == {"lagrangian_pieces": 2600, "_lagrangian_pieces": 20}


def eps_free_reference(slot, b, c, d):
    out = np.empty(4)
    for i in range(4):
        args = [b, c, d]
        args.insert(slot, BASIS4[i])
        out[i] = eps4(*args)
    return out


def test_eps4_free_templates_are_read_only_and_stay_clean():
    # eps4_free fills a copy of a per-slot template that holds BASIS4; the
    # templates themselves can be neither written nor changed by a call.
    for template in minkowski._EPS4_TEMPLATES:
        with pytest.raises(ValueError):
            template[0, 0, 0] = 1.0
    rng = np.random.default_rng(47)
    calls = [(slot, *rng.normal(size=(3, 4)) * 10.0 ** rng.uniform(-3, 3))
             for slot in rng.integers(0, 4, size=40)]
    calls += [(slot, rng.normal(size=4), BASIS4[1], np.full(4, np.nan)) for slot in range(4)]
    with np.errstate(invalid="ignore"):
        for call in calls:
            eps4_free(*call)
    for slot in range(4):
        b, c, d = rng.normal(size=(3, 4))
        assert same(eps4_free(slot, b, c, d), eps_free_reference(slot, b, c, d))


def det_inputs():
    rng = np.random.default_rng(48)
    yield rng.normal(size=(4, 4))
    yield rng.normal(size=(7, 4, 4)) * 10.0 ** rng.uniform(-3, 3, size=(7, 1, 1))
    yield rng.normal(size=(5, 4, 4, 4))
    singular = rng.normal(size=(3, 4, 4))
    singular[0, :, 3] = singular[0, :, 0]                  # two equal columns
    singular[1, 2] = 0.0                                   # a zero row
    singular[2, :, 1] = 2.0 * singular[2, :, 0] - singular[2, :, 2]
    yield singular
    yield np.zeros((4, 4))
    for bad in (np.nan, np.inf, -np.inf):
        for index in ((0, 0), (2, 1), (3, 3)):
            m = rng.normal(size=(4, 4))
            m[index] = bad
            yield m
    yield np.stack([np.full((4, 4), np.inf), np.eye(4), np.full((4, 4), np.nan)])
    for template in minkowski._EPS4_TEMPLATES:
        cols = template.copy()
        for slot in range(4):
            if not template[:, :, slot].any():
                cols[:, :, slot] = rng.normal(size=4)
        yield cols


def test_det_matches_numpy_det_bit_for_bit():
    # minkowski.det calls the gufunc behind np.linalg.det; it must give the
    # same bits, NaN and inf included, on every shape the package uses.
    with np.errstate(all="ignore"):
        for m in det_inputs():
            got, want = minkowski.det(m), np.linalg.det(m)
            assert type(got) is type(want)
            assert same(got, want), m


def test_momentum_of_boosted_jets_matches_eps4_calls(monkeypatch):
    rng = np.random.default_rng(46)
    p = DcParams(m=1.3, hbar=0.7)
    jets = []
    for _ in range(250):
        lam = boost_matrix(rng.uniform(-0.45, 0.45, size=3))
        xdot = lam @ np.array([1.2, *rng.normal(size=3) * 0.3])
        jets.append((xdot, lam @ rng.normal(size=4), lam @ np.array([0.0, *rng.normal(size=3)]),
                     rng.normal(size=4), lam[:, 0]))
    for slot in range(4):
        for xdot, xddot, xi4, _, f in jets[:50]:
            assert same(eps4_free(slot, xddot, xi4, f),
                        eps_free_reference(slot, xddot, xi4, f))
    got = [particle.momentum_covariant(*jet, p, f) for *jet, f in jets]
    monkeypatch.setattr(particle, "eps4_free", eps_free_reference)
    for g, (*jet, f) in zip(got, jets):
        assert same(g, particle.momentum_covariant(*jet, p, f))
