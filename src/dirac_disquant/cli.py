"""Command-line front end.

Subcommands: verify, helix, rotator, rigidity, identify.  All numeric output
goes through deterministic serializers (17 significant digits, LF endings);
progress and timing go to stderr so files and stdout stay byte-reproducible.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error or
an output that cannot be written (OSError: a missing directory, a closed pipe).
"""

import argparse
import json
import math
import sys

import numpy as np

from . import particle, rotator
from .errors import DomainError
from .report import SCHEMA_TAG, RunConfig, csv_chunks, fmt, json_chunks, row_blocks
from .verification import SUITE_NAMES, run_suite

# Largest table a generator writes; checked before any row is built.
MAX_ROWS = 10 ** 7


def _check_rows(n):
    if not n <= MAX_ROWS:
        raise DomainError(f"{n:.6g} rows requested; at most {MAX_ROWS} are written")


def finite_float(text):
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def int_at_least(low):
    """argparse type factory: an integer no smaller than ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is below {low}")
        return value
    return integer


def _output_flags(sub, run, formats=("csv", "json")):
    """Add --out and --format (default: the first of ``formats``) and bind ``run``."""
    sub.add_argument("--out", default=None,
                     help="output path (default: stdout)")
    sub.add_argument("--format", choices=formats, default=formats[0],
                     dest="out_format",
                     help=f"output format (default: {formats[0]})")
    sub.set_defaults(run=run)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dirac-disquant",
        description="Verification suites and data generators for the classical "
                    "Dirac particle and the relativistic rotator.")
    subs = ap.add_subparsers(dest="command", required=True)

    v = subs.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--m", type=finite_float, default=1.0)
    v.add_argument("--m0", type=finite_float, default=1.0)
    v.add_argument("--hbar", type=finite_float, default=1.0)
    v.add_argument("--c", type=finite_float, default=1.0)
    v.add_argument("--seed", type=int_at_least(0), default=42,
                   help="random seed (default 42)")
    _output_flags(v, cmd_verify, formats=("json", "csv"))

    h = subs.add_parser("helix", help="sample a helix worldline")
    h.add_argument("--b", type=finite_float, required=True,
                   help="y^2 integration constant")
    h.add_argument("--m", type=finite_float, default=1.0)
    h.add_argument("--hbar", type=finite_float, default=1.0)
    h.add_argument("--phase", type=finite_float, default=0.0)
    h.add_argument("--tmax", type=finite_float, default=None,
                   help="sampling horizon in coordinate time (default: one turn)")
    h.add_argument("--dt", type=finite_float, default=None,
                   help="sampling step (default: tmax/256)")
    _output_flags(h, cmd_helix)

    r = subs.add_parser("rotator", help="rotator worldlines with constraint columns")
    r.add_argument("--m0", type=finite_float, default=1.0)
    r.add_argument("--a", type=finite_float, required=True)
    r.add_argument("--P0", type=finite_float, required=True)
    r.add_argument("--phase", type=finite_float, default=0.0)
    r.add_argument("--mode", choices=("closed", "integrate"), default="closed")
    r.add_argument("--steps", type=int_at_least(1), default=2000)
    _output_flags(r, cmd_rotator)

    g = subs.add_parser("rigidity", help="sample the rigidity curve gamma(a)")
    g.add_argument("--m0", type=finite_float, default=1.0)
    g.add_argument("--hbar", type=finite_float, default=1.0)
    g.add_argument("--c", type=finite_float, default=1.0)
    g.add_argument("--a-min", type=finite_float, default=0.0)
    g.add_argument("--a-max", type=finite_float, required=True)
    g.add_argument("--n", type=int_at_least(2), default=64)
    _output_flags(g, cmd_rigidity)

    i = subs.add_parser("identify", help="map parameters between helix and rotator")
    i.add_argument("--direction", choices=("dcr_to_rr", "rr_to_dcr"), required=True)
    i.add_argument("--v", type=finite_float, default=None)
    i.add_argument("--zeta", type=finite_float, default=None)
    i.add_argument("--m", type=finite_float, default=None)
    i.add_argument("--m0", type=finite_float, default=None)
    i.add_argument("--hbar", type=finite_float, default=1.0)
    i.add_argument("--c", type=finite_float, default=1.0)
    i.add_argument("--e", type=finite_float, default=1.0, dest="e_charge")
    _output_flags(i, cmd_identify, formats=("json",))

    return ap


def _emit(chunks, out_path):
    """Write the text chunks to ``out_path``, or to stdout for None or "-"."""
    if out_path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(chunks)


def _emit_table(args, meta, columns, n, rows_of):
    """Write an n-row data table in the chosen format, one block at a time.

    ``rows_of(slice)`` makes the rows of one block.  It must not raise: every
    check runs before this call, so a failing command writes no file.
    """
    chunks = json_chunks if args.out_format == "json" else csv_chunks
    _emit(chunks(meta, columns, row_blocks(n, rows_of)), args.out)


def cmd_verify(args) -> int:
    cfg = RunConfig(seed=args.seed, m=args.m, m0=args.m0, hbar=args.hbar, c=args.c)
    report = run_suite(args.suite, cfg)
    _emit([report.render(args.out_format)], args.out)
    for sub, seconds in report.suite_times.items():
        print(f"  {sub}: {seconds:.3f} s", file=sys.stderr)
    ok, total = report.counts
    print(f"suite {args.suite}: {ok}/{total} checks passed "
          f"in {report.wall_time:.2f} s", file=sys.stderr)
    if not report.passed:
        for rec in report.failures():
            print(f"FAIL {rec.check_id}: residual {fmt(rec.residual)} "
                  f"> tolerance {fmt(rec.tolerance)} ({rec.description})",
                  file=sys.stderr)
        return 1
    return 0


def cmd_helix(args) -> int:
    p = particle.DcParams(m=args.m, hbar=args.hbar)
    sol = particle.helix_solution(args.b, phase=args.phase, p=p)
    ob = sol.obs

    if args.tmax is None:
        tmax = 2.0 * np.pi / ob.omega_dcr if args.b > 0 else 1.0
    else:
        tmax = args.tmax
    if not tmax >= 0:
        raise DomainError(f"tmax must be nonnegative, got {tmax!r}")
    dt = args.dt if args.dt is not None else tmax / 256.0
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt!r}")
    span = np.floor(tmax / dt)
    _check_rows(span + 1)
    n = int(span) + 1

    meta = {
        "kind": "helix-trajectory",
        "b": float(args.b), "m": float(args.m), "hbar": float(args.hbar),
        "phase": float(args.phase),
        "m_dcr": ob.m_dcr, "a_dcr": ob.a_dcr, "v": ob.v,
        "omega_dcr": ob.omega_dcr, "zeta": ob.zeta, "beta": ob.beta,
        "w0": sol.w0, "units": "c=1",
    }
    columns = ["t", "x", "y_coord", "z_coord", "xi1", "xi2", "xi3"]

    def rows_of(block):
        t = np.arange(*block.indices(n)) * dt
        rows = np.empty((len(t), len(columns)))
        rows[:, 0] = t
        rows[:, 1:4] = sol.position_at_time(t)
        rows[:, 4:] = sol.xi
        return rows
    _emit_table(args, meta, columns, n, rows_of)
    return 0


def cmd_rotator(args) -> int:
    n = args.steps + 1
    _check_rows(n)
    pr = rotator.RotatorParams(m0=args.m0, a=args.a, P0=args.P0, phase=args.phase)
    cf = rotator.RotatorClosedForm(pr)
    meta = {
        "kind": f"rotator-trajectory-{args.mode}",
        "m0": float(args.m0), "a": float(args.a), "P0": float(args.P0),
        "phase": float(args.phase),
        "omega": float(pr.omega), "omega0": float(pr.omega0), "units": "c=1",
    }
    columns = ["t", "x1_1", "x1_2", "x2_1", "x2_2", *rotator.MONITOR_COLUMNS]

    # Both modes sample tau_k = -k dtau, on which t = X^0 = -P0 tau / (4 m0)
    # grows; one period of tau in `steps` steps, or 0.05 a step when static.
    dtau = 0.05 if pr.omega == 0.0 else cf.tau_period / args.steps
    if args.mode == "closed":
        def states_of(block):
            return cf.state(np.arange(*block.indices(n)) * -dtau)
    else:
        traj = rotator.integrate_rotator(pr, cf.state(0.0), args.steps, -dtau)
        meta["zeta_drift"] = traj.zeta_drift
        meta["pre_projection_drift"] = traj.pre_projection_drift
        s = traj.states

        def states_of(block):
            return rotator.RotatorState(X=s.X[block], x=s.x[block], p=s.p[block], P=s.P)

    def rows_of(block):
        states = states_of(block)
        X, x = states.X, states.x
        return np.column_stack((X[:, 0], X[:, 1:3] + x[:, 1:3], X[:, 1:3] - x[:, 1:3],
                                rotator.constraint_monitors(states, pr).T))
    _emit_table(args, meta, columns, n, rows_of)
    return 0


def cmd_rigidity(args) -> int:
    _check_rows(args.n)
    bound = rotator.rigidity_domain_bound(args.m0, args.hbar, args.c)
    if not 0.0 <= args.a_min < args.a_max:
        raise DomainError("need 0 <= a_min < a_max")
    # Every a lies in [a_min, a_max], and u = 4 a m0 c / hbar only grows with
    # a: if the call at a_max passes, no block's call can raise, so gamma is
    # made per block after this call and no failing call opens the file.
    rotator.rigidity(args.a_max, args.m0, args.hbar, args.c)
    a = np.linspace(args.a_min, args.a_max, args.n)
    meta = {
        "kind": "rigidity-curve",
        "m0": float(args.m0), "hbar": float(args.hbar), "c": float(args.c),
        "domain_bound": bound,
    }
    _emit_table(args, meta, ["a", "gamma"], args.n, lambda block: np.column_stack(
        (a[block], rotator.rigidity(a[block], args.m0, args.hbar, args.c))))
    return 0


def cmd_identify(args) -> int:
    if args.direction == "dcr_to_rr":
        if args.m is None or args.zeta is None:
            raise DomainError("dcr_to_rr needs m and zeta")
        result = rotator.dcr_to_rr(args.m, args.zeta, args.hbar, args.c)
    else:
        if args.m0 is None or args.v is None:
            raise DomainError("rr_to_dcr needs m0 and v")
        result = rotator.rr_to_dcr(args.m0, args.v, args.hbar, args.c, args.e_charge)
    residual = abs(rotator.rigidity(result["a"], result["m0"], args.hbar, args.c)
                   - rotator.mass_increase(result["v"], args.c))

    payload = {"schema": SCHEMA_TAG, "kind": "identification",
               "hbar": args.hbar, "c": args.c,
               "parameters": result, "consistency_residual": residual}
    _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
