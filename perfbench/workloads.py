"""Workloads: CLI argument lists made from the benchmark seed, and output checks.

Each workload is a list of operations.  An operation is one call of
``dirac_disquant.cli.main`` with a generated argv that writes to a file.  The
program sees only that argv; the benchmark seed never reaches it directly.

A check reads the bytes an operation wrote and returns
``(attempted, failed, rows, problems)``.  For ``verify`` an attempt is one
verification check of the report; for a generator it is the whole call.
"""

import json
import math
import os
import random

HELIX_ROWS = 100_000
ROTATOR_STEPS = 20_000
RIGIDITY_POINTS = 100_000

# The bounds the rotator suite puts on its integrator.
ZETA_DRIFT_MAX = 1e-8
PRE_PROJECTION_DRIFT_MAX = 1e-6
MONITOR_MAX = 1e-8

# Call counts of one ``verify all`` unit that follow from the suite code, so
# they hold at every seed.  The traced run must reproduce them exactly.
#   kinetic_term_matrix: appendixA, 100 points x 4 step sizes h
#   lagrangian_pieces: appendixA 4 x 100 + 100, appendixB 4 x 500 + 100
#   integrate_xi_along_helix: particle suite, b in {0.1, 1, 10}
#   integrate_rotator: rotator suite, established and static motion
#   zeta_vector: (2000 + 1) + (200 + 1) integrated states
#   build_gamma_basis: algebra 1 + 8 + 3 x 1000, appendixA 4 x 100
VERIFY_ALL_COUNTS = {
    "covariant.kinetic_term_matrix": 400,
    "covariant.lagrangian_pieces": 2600,
    "particle.integrate_xi_along_helix": 3,
    "rotator.integrate_rotator": 2,
    "rotator.zeta_vector": 2202,
    "algebra.build_gamma_basis": 3409,
}


class Op:
    """One CLI call: its argv (with ``--out``), output file and checker."""

    def __init__(self, name, argv, out_path, check):
        self.name = name
        self.argv = list(argv) + ["--out", out_path]
        self.out_path = out_path
        self.check = check


class Workload:
    def __init__(self, name, ops, expected_counts=None):
        self.name = name
        self.ops = ops
        self.expected_counts = expected_counts or {}


def _num(x):
    return repr(float(x))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rotator_params(rng):
    """m0 and a in [0.5, 2], P0/m0 in [2.2, 4], any phase."""
    m0 = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.5, 2.0)
    p0 = rng.uniform(2.2, 4.0) * m0
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return m0, a, p0, phase


def make(name, seed, out_dir):
    """Build workload ``name`` for benchmark seed ``seed``."""
    rng = random.Random(f"{name}:{seed}")

    def out(tag):
        return os.path.join(out_dir, f"{name}-{tag}.out")

    if name == "verify-all":
        program_seed = rng.randrange(1, 2 ** 31)
        return Workload(name, [Op("verify", ["verify", "all", "--seed", str(program_seed)],
                                  out("verify"), check_verify)],
                        expected_counts=VERIFY_ALL_COUNTS)

    if name == "sample-closed":
        b = _log_uniform(rng, 0.1, 10.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        dt = rng.uniform(0.005, 0.02)
        # floor(tmax/dt) lands half a step inside, so the row count is exact.
        tmax = dt * (HELIX_ROWS - 0.5)
        helix = Op("helix", ["helix", "--b", _num(b), "--phase", _num(phase),
                             "--dt", _num(dt), "--tmax", _num(tmax)],
                   out("helix"), lambda data: check_helix(data, HELIX_ROWS))

        m0, a, p0, phase = _rotator_params(rng)
        closed = Op("rotator-closed",
                    ["rotator", "--m0", _num(m0), "--a", _num(a), "--P0", _num(p0),
                     "--phase", _num(phase), "--mode", "closed",
                     "--steps", str(ROTATOR_STEPS)],
                    out("rotator-closed"),
                    lambda data: check_rotator(data, ROTATOR_STEPS + 1, a, integrated=False))

        m0r = rng.uniform(0.5, 2.0)
        a_max = rng.uniform(0.5, 0.95) / (4.0 * m0r)
        rigidity = Op("rigidity",
                      ["rigidity", "--m0", _num(m0r), "--a-max", _num(a_max),
                       "--n", str(RIGIDITY_POINTS)],
                      out("rigidity"),
                      lambda data: check_rigidity(data, RIGIDITY_POINTS, m0r, a_max))

        # The sequential RK4 loop: per-step overhead, which batching across
        # points cannot remove, shows here.
        m0, a_int, p0, phase = _rotator_params(rng)
        integrate = Op("rotator-integrate",
                       ["rotator", "--m0", _num(m0), "--a", _num(a_int), "--P0", _num(p0),
                        "--phase", _num(phase), "--mode", "integrate",
                        "--steps", str(ROTATOR_STEPS)],
                       out("rotator-integrate"),
                       lambda data: check_rotator(data, ROTATOR_STEPS + 1, a_int,
                                                  integrated=True))
        return Workload(name, [helix, closed, rigidity, integrate])

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


NAMES = ("verify-all", "sample-closed")


# ---------------------------------------------------------------- checks


def check_verify(data):
    try:
        report = json.loads(data)
        checks = report["checks"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError) as exc:
        return 1, 1, 0, [f"unreadable report: {exc}"]
    failed = [c["id"] for c in checks if c.get("passed") is not True]
    problems = [f"check {cid} failed" for cid in failed]
    if summary.get("failed") != len(failed) or summary.get("total") != len(checks):
        problems.append("report summary disagrees with its checks")
    if not checks:
        return 1, 1, 0, ["report has no checks"]
    return len(checks), len(failed), len(checks), problems


def _read_csv(data):
    """(meta, columns, rows) of a generator CSV; values parsed as floats."""
    meta, rows, columns = {}, [], None
    for line in data.decode("ascii").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns or [], rows


def _table_problems(columns, rows, n_columns, n_rows):
    problems = []
    if len(columns) != n_columns:
        problems.append(f"expected {n_columns} columns, got {len(columns)}")
    if len(rows) != n_rows:
        problems.append(f"expected {n_rows} rows, got {len(rows)}")
    if any(len(r) != len(columns) for r in rows):
        problems.append("ragged rows")
    elif not all(math.isfinite(v) for r in rows for v in r):
        problems.append("non-finite value")
    return problems


def _generator_result(rows, problems):
    return 1, int(bool(problems)), len(rows), problems


def check_helix(data, n_rows):
    """Rows lie on one circle about the spin axis xi = (0, 0, 1), evenly spaced in t."""
    try:
        _, columns, rows = _read_csv(data)
    except (UnicodeDecodeError, ValueError) as exc:
        return 1, 1, 0, [f"unreadable output: {exc}"]
    problems = _table_problems(columns, rows, 7, n_rows)
    if problems:
        return _generator_result(rows, problems)
    r2 = rows[0][1] ** 2 + rows[0][2] ** 2
    dt = rows[1][0] - rows[0][0]
    for k, (t, x, y, z, xi1, xi2, xi3) in enumerate(rows):
        if (abs(x * x + y * y - r2) > 1e-9 * max(r2, 1e-300) or z != 0.0
                or (xi1, xi2, xi3) != (0.0, 0.0, 1.0)
                or abs(t - k * dt) > 1e-9 * max(abs(t), 1.0)):
            problems.append(f"row {k} leaves the helix")
            break
    return _generator_result(rows, problems)


def check_rotator(data, n_rows, a, integrated):
    """Antipodal particles on the circle of radius a, constraints kept."""
    try:
        meta, columns, rows = _read_csv(data)
    except (UnicodeDecodeError, ValueError) as exc:
        return 1, 1, 0, [f"unreadable output: {exc}"]
    problems = _table_problems(columns, rows, 10, n_rows)
    if problems:
        return _generator_result(rows, problems)
    radius_tol = 1e-8 if integrated else 1e-12
    for k, row in enumerate(rows):
        x11, x12, x21, x22 = row[1:5]
        if (abs(x11 + x21) > radius_tol * a or abs(x12 + x22) > radius_tol * a
                or abs(math.hypot(x11, x12) - a) > radius_tol * a
                or max(row[5:]) > MONITOR_MAX):
            problems.append(f"row {k} breaks the rotator constraints")
            break
    if integrated:
        try:
            zeta = float(meta["zeta_drift"])
            pre = float(meta["pre_projection_drift"])
        except (KeyError, ValueError):
            problems.append("drift summary missing")
        else:
            if not zeta <= ZETA_DRIFT_MAX:
                problems.append(f"zeta_drift {zeta!r} above {ZETA_DRIFT_MAX}")
            if not pre <= PRE_PROJECTION_DRIFT_MAX:
                problems.append(f"pre_projection_drift {pre!r} above "
                                f"{PRE_PROJECTION_DRIFT_MAX}")
    return _generator_result(rows, problems)


def check_rigidity(data, n_rows, m0, a_max):
    """gamma(a) = 1/sqrt(1 - (4 a m0)^2) - 1 on [0, a_max] (hbar = c = 1)."""
    try:
        _, columns, rows = _read_csv(data)
    except (UnicodeDecodeError, ValueError) as exc:
        return 1, 1, 0, [f"unreadable output: {exc}"]
    problems = _table_problems(columns, rows, 2, n_rows)
    if problems:
        return _generator_result(rows, problems)
    if rows[0][0] != 0.0 or rows[-1][0] != a_max:
        problems.append("abscissae do not span [0, a-max]")
    for k, (a, gamma) in enumerate(rows):
        expect = 1.0 / math.sqrt(1.0 - (4.0 * a * m0) ** 2) - 1.0
        if abs(gamma - expect) > 1e-12 * max(abs(expect), 1.0):
            problems.append(f"row {k}: gamma {gamma!r} against {expect!r}")
            break
    return _generator_result(rows, problems)
