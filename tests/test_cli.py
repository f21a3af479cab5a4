import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dirac_disquant import algebra, cli, rotator
from dirac_disquant.cli import main
from dirac_disquant.errors import DomainError
from dirac_disquant.report import RunConfig, VerificationReport
from dirac_disquant.verification import run_suite


def run_cli(args):
    """Exit status of the CLI, including the usage exits argparse raises."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestVerifyCommand:
    def test_algebra_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["verify", "algebra", "--seed", "42",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "dirac-disquant/2"
        assert payload["summary"]["failed"] == 0
        assert all(c["residual"] <= c["tolerance"] for c in payload["checks"])

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run_cli(["verify", "consistency", "--format", "csv",
                        "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[1] == "id,description,residual,tolerance,passed,seed"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_seed_changes_report_content(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["verify", "appendixC", "--seed", "1", "--out", str(a)])
        run_cli(["verify", "appendixC", "--seed", "2", "--out", str(b)])
        ja, jb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ja["summary"]["failed"] == jb["summary"]["failed"] == 0
        assert ja != jb

    def test_one_failing_check_is_exit_1(self, tmp_path, capsys, monkeypatch):
        add = VerificationReport.add

        def add_with_negative_tolerance(rep, check_id, description, residual, tolerance):
            if check_id == "pauli-relation":
                tolerance = -1.0
            add(rep, check_id, description, residual, tolerance)

        monkeypatch.setattr(VerificationReport, "add", add_with_negative_tolerance)
        out = tmp_path / "r.json"
        assert run_cli(["verify", "algebra", "--out", str(out)]) == 1
        assert "FAIL pauli-relation: " in capsys.readouterr().err
        checks = json.loads(out.read_text())["checks"]
        assert [c["id"] for c in checks if not c["passed"]] == ["pauli-relation"]

    def test_numeric_consistency_error_is_exit_2(self, monkeypatch, capsys):
        # A non-Hermitian gamma^0 leaks imaginary parts into the bilinears,
        # and the guard of algebra.bilinears_matrix raises.
        gamma = algebra.GAMMA
        monkeypatch.setattr(algebra, "GAMMA",
                            np.array([gamma[0] + 0.1j * np.eye(4), *gamma[1:]]))
        assert run_cli(["verify", "algebra"]) == 2
        assert "error: bilinears acquired imaginary parts" in capsys.readouterr().err

    def test_suite_times_go_to_stderr_and_not_to_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["verify", "all", "--seed", "42", "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        names = ("algebra", "appendixA", "appendixB", "appendixC", "particle",
                 "rotator", "consistency")
        assert [line.split(":")[0].strip() for line in lines[:7]] == list(names)
        assert all(line.endswith(" s") for line in lines[:7])
        assert lines[7].startswith("suite all: 47/47 checks passed")
        # The report has the bytes of one rendered without its times.
        rep = run_suite("all", RunConfig(seed=42))
        assert list(rep.suite_times) == list(names)
        assert out.read_text() == VerificationReport(
            suite="all", seed=42, records=rep.records).to_json()
        assert list(json.loads(out.read_text())) == [
            "schema", "kind", "suite", "seed", "summary", "checks"]

    def test_particle_suite_passes_at_small_hbar(self, tmp_path):
        # ydot scales like 1/lam; its check compares residuals times lam.
        out = tmp_path / "particle.json"
        assert run_cli(["verify", "particle", "--hbar", "1e-8", "--out", str(out)]) == 0

    @pytest.mark.parametrize("constants", [
        ["--hbar", "1e-8"],
        ["--c", "3e8"],
        ["--m", "1e3"],
        ["--hbar", "1e-8", "--c", "3e8", "--m", "1e3"],
        ["--hbar", "1e4"],
        ["--m0", "50"],
        ["--m0", "1e-3"],
        ["--m", "1e-3"],
        ["--c", "3"],
    ])
    def test_consistency_suite_passes_at_nonunit_constants(self, constants, tmp_path):
        # The identification residuals are divided by m, lam, c and c/lam.
        out = tmp_path / "consistency.json"
        assert run_cli(["verify", "consistency", *constants, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["failed"] == 0

    @pytest.mark.parametrize("m0", ["50", "1e-3", "1e3"])
    def test_rotator_suite_passes_at_nonunit_m0(self, m0, tmp_path):
        # Only the rotator and consistency suites read m0, so with the
        # consistency cases above this covers `verify all --m0 50`, `1e-3`
        # and `1e3`; the integrator's initial-state guard and both monitor
        # checks divide the momentum monitors by m0^2 and p.x by m0 a.
        out = tmp_path / "rotator.json"
        assert run_cli(["verify", "rotator", "--m0", m0, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["failed"] == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--m", "1e3"],
        ["verify", "appendixA", "--hbar", "1e4"],
        ["verify", "all", "--hbar", "1e4"],
        ["verify", "all", "--hbar", "1e-8", "--c", "3e8", "--m", "1e3", "--m0", "50"],
        ["verify", "all", "--m0", "1e4"],
        ["verify", "all", "--c", "0.5"],
        # One constant at each end of [1e-6, 1e6], a range fixed before the
        # first run, the others at 1.
        *(["verify", "all", flag, value] for flag in ("--m", "--hbar", "--c", "--m0")
          for value in ("1e-6", "1e6")),
        # hbar where hbar^2 and the spin map's h^2 |w|^2 leave the float
        # range; the rigidity and the spin map form neither.
        ["verify", "all", "--hbar", "1e-160"],
        ["verify", "all", "--hbar", "1e160"],
        # c where c^2 is subnormal; the identification forms v/c and 4 m0 c.
        ["verify", "all", "--c", "1e-160"],
    ])
    def test_unit_free_residuals_at_nonunit_constants(self, argv, tmp_path):
        # The Lagrangian, mass and momentum residuals are divided by m, the
        # kinetic split residual and the full spin-equation residual by
        # hbar, the tanh part of the dual observables by c, and the generic
        # dual-Lagrangian residual by max(m, hbar).  Without the m divisors
        # --m 1e6 fails, and without the hbar divisor --hbar 1e6.  The
        # rotator's p.x monitor is divided by m0 a, and the
        # grand-consistency speeds are fractions of c, so any c > 0 admits
        # them.
        out = tmp_path / "report.json"
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["failed"] == 0


@pytest.mark.parametrize("argv", [
    ["helix", "--b", "1", "--dt", "nan"],
    ["helix", "--b", "1", "--tmax", "inf"],
    ["helix", "--b", "inf"],
    ["verify", "particle", "--m", "inf"],
    ["rotator", "--a", "1", "--P0", "nan"],
    ["rotator", "--a", "1", "--P0", "inf"],
    ["rotator", "--a", "1", "--P0", "3", "--steps", "-5"],
    ["rotator", "--a", "1", "--P0", "3", "--steps", "0"],
    ["rigidity", "--m0", "nan", "--a-max", "0.1"],
    ["identify", "--direction", "rr_to_dcr", "--m0", "nan", "--v", "0.5"],
    ["verify", "consistency", "--seed", "-1"],
    # finite input whose derived scales overflow
    ["helix", "--b", "1e200"],
    ["helix", "--b", "1", "--m", "1e-320"],
    ["rotator", "--a", "1e300", "--P0", "3e300", "--m0", "1e300"],
    ["rotator", "--a", "1", "--P0", "3", "--m0", "1e-320"],
    # more rows than MAX_ROWS, refused before any is built
    ["helix", "--b", "1", "--dt", "1e-300"],
    ["rotator", "--a", "1", "--P0", "3", "--steps", "100000000000000000000"],
    ["rigidity", "--a-max", "0.1", "--n", "100000000000000000000"],
    # zero constants, refused before any division by them
    ["helix", "--b", "1", "--m", "0"],
    ["verify", "particle", "--m", "0"],
    ["rigidity", "--m0", "0", "--a-max", "0.1"],
    ["rigidity", "--c", "0", "--a-max", "0.1"],
    ["identify", "--direction", "rr_to_dcr", "--m0", "0", "--v", "0.5"],
    ["identify", "--direction", "dcr_to_rr", "--m", "0", "--zeta", "1"],
    ["identify", "--direction", "rr_to_dcr", "--m0", "1", "--v", "0.5", "--hbar", "0"],
    ["rigidity", "--m0", "1e-200", "--c", "1e-200", "--a-max", "0.1"],  # 4 m0 c underflows
    # a negative sampling horizon, and a zero one that makes the default step 0
    ["helix", "--b", "1", "--tmax", "-5", "--dt", "0.1"],
    ["helix", "--b", "1", "--tmax", "0"],
    # flags that only verify has, the deleted tolerance scale, and formats
    # that identify does not write
    ["helix", "--b", "1", "--seed", "1"],
    ["verify", "consistency", "--tol-scale", "2"],
    ["verify", "consistency", "--tol-scale", "1"],
    ["rotator", "--a", "1", "--P0", "3", "--tol-scale", "2"],
    ["identify", "--direction", "rr_to_dcr", "--m0", "1", "--v", "0.5", "--format", "csv"],
    # a direction without both of its parameters
    ["identify", "--direction", "dcr_to_rr", "--m", "1"],
    ["identify", "--direction", "rr_to_dcr", "--v", "0.5"],
    # physical constants that no suite-built parameter object would check
    ["verify", "appendixA", "--m", "-3"],
    ["verify", "algebra", "--m", "0"],
    ["verify", "appendixC", "--c", "0"],
    # a radius above the bound hbar/(4 m0 c) at a large hbar
    ["rigidity", "--hbar", "1e200", "--a-max", "1e200"],
    # finite input whose Python-float powers overflow
    ["identify", "--direction", "dcr_to_rr", "--m", "1", "--zeta", "1e200"],
    # positive constants whose product underflows to 0 before a division
    ["verify", "consistency", "--m", "1e-200", "--c", "1e-200"],
    ["identify", "--direction", "dcr_to_rr", "--m", "1e-200", "--zeta", "1", "--c", "1e-200"],
    ["identify", "--direction", "rr_to_dcr", "--m0", "1e-200", "--v", "1e-210",
     "--c", "1e-200"],
    # one constant at 1e160, where a quantity the suites need leaves the float
    # range: omega_dcr = 2 m c^2 / (hbar (b+1)^2) is 1.65e320 at b = 0.1
    ["verify", "all", "--c", "1e160"],
    # P.P = (m / (b+1))^2 of the helix momentum is 8.3e319 at b = 0.1
    ["verify", "all", "--m", "1e160"],
    # P0^2 = 8 m0^2 = 8e320 in the rotator suite's frequencies
    ["verify", "all", "--m0", "1e160"],
])
def test_bad_numeric_input_is_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, extra_rows", [
    (["helix", "--b", "1", "--tmax", "{}", "--dt", "1"], 1),    # floor(tmax/dt) + 1
    (["rotator", "--a", "1", "--P0", "3", "--steps", "{}"], 1),  # steps + 1
    (["rigidity", "--a-max", "0.1", "--n", "{}"], 0),
])
def test_row_ceiling_boundary(argv, extra_rows, monkeypatch, capsys):
    """MAX_ROWS rows are written; one more is refused with exit 2."""
    monkeypatch.setattr(cli, "MAX_ROWS", 8)
    at_ceiling = 8 - extra_rows
    assert run_cli([a.format(at_ceiling) for a in argv]) == 0
    capsys.readouterr()
    assert run_cli([a.format(at_ceiling + 1) for a in argv]) == 2
    assert capsys.readouterr().out == ""


NAN_STATE = (np.nan,) * 12


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["helix", "--b", "1", "--dt", "nan"],
    ["rigidity", "--hbar", "1e200", "--a-max", "1e200"],
    ["helix", "--b", "1", "--tmax", str(cli.MAX_ROWS), "--dt", "1"],
    ["rotator", "--a", "1", "--P0", "3", "--steps", str(cli.MAX_ROWS)],
    ["rigidity", "--a-max", "0.1", "--n", str(cli.MAX_ROWS + 1)],
    ["rotator", "--a", "1", "--P0", "3", "--mode", "integrate", "--steps", "100"],
    ["rigidity", "--a-max", repr(rotator.rigidity_domain_bound(1.0))],
    ["rigidity", "--a-max", "0.1", "--n", "1"],
    ["rigidity", "--a-min", "0.2", "--a-max", "0.1"],
], ids=["helix-nan-dt", "rigidity-overflow", "helix-rows", "rotator-rows",
        "rigidity-rows", "integrate-step-size", "rigidity-at-bound",
        "rigidity-one-sample", "rigidity-reversed-range"])
def test_failing_generator_writes_no_output(argv, out_format, tmp_path, monkeypatch, capsys):
    """Every check runs before the output file is opened: a failing command
    leaves an existing file as it was and creates no new one."""
    # A NaN RK4 step trips the integrator's pre-projection drift guard.
    monkeypatch.setattr(rotator, "_rk4_step", lambda *state_k: NAN_STATE)
    existing, fresh = tmp_path / "existing.out", tmp_path / "fresh.out"
    existing.write_bytes(b"old bytes\n")
    for out in (existing, fresh):
        assert run_cli([*argv, "--format", out_format, "--out", str(out)]) == 2
    assert existing.read_bytes() == b"old bytes\n"
    assert not fresh.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["helix", "--b", "1.3", "--phase", "0.4", "--tmax", "4096.5", "--dt", "1"],
    ["rotator", "--a", "0.7", "--P0", "3.1", "--steps", "4096"],
    ["rotator", "--a", "0.7", "--P0", "3.1", "--mode", "integrate", "--steps", "4096"],
    ["rigidity", "--a-max", "0.2", "--n", "4097"],
], ids=["helix", "rotator-closed", "rotator-integrate", "rigidity"])
def test_file_and_stdout_get_the_same_bytes(argv, out_format, tmp_path, capsysbinary):
    out = tmp_path / "table.out"
    assert run_cli([*argv, "--format", out_format, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert run_cli([*argv, "--format", out_format, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert run_cli([*argv, "--format", out_format]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["helix", "--b", "1", "--out", "{tmp}/missing/x.csv"],
    ["verify", "consistency", "--out", "{tmp}"],
], ids=["missing-directory", "directory"])
def test_unwritable_output_is_exit_2(argv, tmp_path, capsys):
    """An output that cannot be opened is an OSError: exit 2, not 1, the
    code of a failed check, and no traceback."""
    assert run_cli([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno")


def test_stdout_closed_after_one_line_is_exit_2():
    """A reader that stops after one line, as ``| head -1`` does, gives the
    writer a BrokenPipeError: exit 2 with one error line, no traceback.
    The table is far larger than a pipe buffer, so the writer is still
    writing when the reader closes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dirac_disquant.cli", "helix", "--b", "1",
         "--tmax", "10000", "--dt", "1"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"# kind=helix-trajectory\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert "Traceback" not in err and err.startswith("error: [Errno 32]")


def traced_peak(argv):
    """tracemalloc's peak over one CLI command."""
    tracemalloc.start()
    try:
        assert run_cli(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("table, out_format", [
    ("helix", "csv"), ("helix", "json"), ("rotator-closed", "csv")])
def test_closed_form_memory_does_not_grow_with_rows(table, out_format, tmp_path):
    """Tables stream in blocks, and helix and the closed rotator make each
    block's times or taus themselves: nothing grows with n.  One array of
    8 B a row would add 1.5 MB."""
    def argv(rows):
        if table == "helix":
            return ["helix", "--b", "1.7", "--dt", "0.01", "--tmax", repr(0.01 * (rows - 0.5))]
        return ["rotator", "--a", "0.7", "--P0", "3.1", "--steps", str(rows - 1)]

    def peak(rows):
        return traced_peak([*argv(rows), "--format", out_format,
                            "--out", str(tmp_path / "table.out")])

    small, large = peak(10 ** 4), peak(2 * 10 ** 5)
    assert large - small <= 2 ** 20


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_rigidity_memory_grows_by_the_abscissa_only(out_format, tmp_path):
    """gamma is made per block, so only the 8 B a point of ``a`` grows with n;
    a whole-array gamma call and its temporaries add 20 B a point or more."""
    def peak(n):
        return traced_peak(["rigidity", "--a-max", "0.2", "--n", str(n),
                            "--format", out_format, "--out", str(tmp_path / "g.out")])

    small, large = peak(10 ** 4), peak(2 * 10 ** 5)
    assert large - small <= 8 * (2 * 10 ** 5 - 10 ** 4) + 2 * 2 ** 20


class TestHelixCommand:
    def test_static_point(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["helix", "--b", "0", "--tmax", "1", "--dt", "0.5",
                        "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        for row in rows:
            vals = [float(v) for v in row.split(",")]
            assert vals[1] == vals[2] == vals[3] == 0.0
        assert "# m_dcr=1" in out.read_text()

    def test_circle_radius(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run_cli(["helix", "--b", "1", "--m", "1", "--hbar", "1",
                        "--out", str(out)]) == 0
        radius = np.sqrt(3.0)
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("t,"):
                continue
            vals = [float(v) for v in line.split(",")]
            assert abs(np.hypot(vals[1], vals[2]) - radius) < 1e-10
            assert (vals[4], vals[5], vals[6]) == (0.0, 0.0, 1.0)

    def test_json_metadata_roundtrip(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli(["helix", "--b", "1", "--format", "json",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "dirac-disquant/2"
        assert abs(payload["a_dcr"] - np.sqrt(3.0)) < 1e-12
        assert abs(payload["m_dcr"] - 0.5) < 1e-15
        assert abs(payload["zeta"] - np.sinh(2 * payload["beta"])) < 1e-10
        assert payload["columns"][0] == "t"
        assert len(payload["rows"][0]) == len(payload["columns"])

    def test_domain_error_exit_code(self, capsys):
        assert run_cli(["helix", "--b", "-1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRotatorCommand:
    P0 = str(2.0 * np.sqrt(2.0))

    def test_closed_static_pair(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["rotator", "--m0", "1", "--a", "1", "--P0", "2",
                        "--steps", "4", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t,")]
        first = [float(v) for v in rows[0].split(",")]
        for row in rows[1:]:
            vals = [float(v) for v in row.split(",")]
            assert vals[1:5] == first[1:5]

    def test_integrate_matches_closed(self, tmp_path):
        # Both modes step the same tau grid, on which t = X^0 grows: the
        # same t column and the same positions, row for row.
        tables = {}
        for mode in ("closed", "integrate"):
            out = tmp_path / f"{mode}.csv"
            assert run_cli(["rotator", "--m0", "1", "--a", "1", "--P0", self.P0,
                            "--mode", mode, "--steps", "400", "--out", str(out)]) == 0
            tables[mode] = np.array([[float(v) for v in line.split(",")]
                                     for line in out.read_text().splitlines()
                                     if not line.startswith(("#", "t,"))])
        closed, integ = tables["closed"], tables["integrate"]
        assert closed.shape == integ.shape == (401, 10)
        for table in (closed, integ):
            assert (np.diff(table[:, 0]) > 0).all()
        assert (np.abs(integ[:, 0] - closed[:, 0]) <= 1e-12 * closed[:, 0]).all()
        assert np.abs(integ[:, 1:5] - closed[:, 1:5]).max() <= 1e-6
        assert integ[:, 5:].max() < 1e-8
        assert np.abs(np.hypot(integ[:, 1], integ[:, 2]) - 1.0).max() < 1e-6

    def test_integrate_monitors_are_one_whole_stack_call(self, tmp_path):
        # 4097 rows: a whole block and a one-row block.
        pr = rotator.RotatorParams(m0=1.0, a=0.7, P0=3.1)
        out = tmp_path / "i.json"
        assert run_cli(["rotator", "--a", "0.7", "--P0", "3.1", "--mode", "integrate",
                        "--steps", "4096", "--format", "json", "--out", str(out)]) == 0
        cf = rotator.RotatorClosedForm(pr)
        traj = rotator.integrate_rotator(pr, cf.state(0.0), 4096, -cf.tau_period / 4096)
        want = rotator.constraint_monitors(traj.states, pr).T
        rows = np.array(json.loads(out.read_text())["rows"])
        assert rows.shape == (4097, 10)
        assert rows[:, 5:].tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", ["1e3", "1e4"])
    def test_integrate_guards_are_unit_free(self, a, tmp_path):
        # The drift guard holds |x.x + a^2| to 1e-6 a^2, and the initial-state
        # guard divides x.x + a^2 by a^2.
        out = tmp_path / "r.csv"
        assert run_cli(["rotator", "--a", a, "--P0", "3", "--mode", "integrate",
                        "--steps", "200", "--out", str(out)]) == 0
        meta = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                    if line.startswith("# "))
        assert float(meta["pre_projection_drift"]) <= 1e-6 * float(a) ** 2

    def test_sub_threshold_usage_error(self, capsys):
        assert run_cli(["rotator", "--m0", "1", "--a", "1", "--P0", "1"]) == 2


class TestRigidityCommand:
    def test_curve_values_and_monotonicity(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(["rigidity", "--m0", "1", "--a-min", "0",
                        "--a-max", "0.2", "--n", "41", "--out", str(out)]) == 0
        rows = []
        text = out.read_text()
        assert "# domain_bound=0.25" in text
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("a,"):
                continue
            a, gamma = (float(v) for v in line.split(","))
            rows.append((a, gamma))
        assert rows[0] == (0.0, 0.0)
        gammas = [g for _, g in rows]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        a_mid = 0.15  # 4 a m0 c / hbar = 0.6
        match = [g for a, g in rows if abs(a - a_mid) < 1e-12]
        assert match and abs(match[0] - 0.25) < 1e-12

    def test_curve_type_invariants(self, tmp_path):
        bound = rotator.rigidity_domain_bound(1.0)
        out = tmp_path / "g.json"
        assert run_cli(["rigidity", "--a-max", repr(0.9999 * bound), "--n", "300",
                        "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        gamma = np.array(payload["rows"])[:, 1]
        assert gamma[0] == 0.0
        assert np.all(np.diff(gamma) > 0)
        assert gamma[-1] > 20.0  # diverges toward the bound
        assert payload["domain_bound"] == bound

    def test_large_hbar_is_served(self, tmp_path):
        # hbar^2 overflows, but u = 4 a m0 c / hbar <= 4e-201, and gamma =
        # u^2/2 rounds to 0.0 on the whole curve.
        out = tmp_path / "g.json"
        assert run_cli(["rigidity", "--hbar", "1e200", "--a-max", "0.1",
                        "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["domain_bound"] == 1e200 / 4.0
        assert np.array(payload["rows"])[:, 1].tolist() == [0.0] * 64

    def test_bound_violation_cites_bound(self, capsys):
        assert run_cli(["rigidity", "--m0", "1", "--a-max", "0.25"]) == 2
        assert "0.25" in capsys.readouterr().err

    def test_blocks_hold_the_bytes_of_one_whole_array_call(self, tmp_path):
        # 4097 points: a whole block and a one-point block.
        m0, hbar, c, a_min, a_max, n = 1.7, 2.3, 0.9, 0.01, 0.3, 4097
        out = tmp_path / "g.json"
        assert run_cli(["rigidity", "--m0", repr(m0), "--hbar", repr(hbar), "--c", repr(c),
                        "--a-min", repr(a_min), "--a-max", repr(a_max), "--n", str(n),
                        "--format", "json", "--out", str(out)]) == 0
        a = np.linspace(a_min, a_max, n)
        want = np.column_stack((a, rotator.rigidity(a, m0, hbar, c)))
        assert np.array(json.loads(out.read_text())["rows"]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m0, hbar, c, code", [
        (1.0, 1.0, 1.0, 0),     # 1 - u^2 = 2^-52 at a_max
        (0.7, 1.0, 3.0, 2),     # u = 4 a_max m0 c / hbar rounds to 1
    ])
    def test_one_ulp_below_the_bound(self, m0, hbar, c, code, tmp_path, capsys):
        """Exit 2 exactly when one whole-array call over the curve raises,
        and then no file is made; otherwise the whole-array bytes."""
        a_max = math.nextafter(rotator.rigidity_domain_bound(m0, hbar, c), 0.0)
        a = np.linspace(0.0, a_max, 64)
        try:
            want = np.column_stack((a, rotator.rigidity(a, m0, hbar, c)))
        except DomainError:
            want = None
        assert (want is None) == (code == 2)
        out = tmp_path / "g.json"
        assert run_cli(["rigidity", "--m0", repr(m0), "--hbar", repr(hbar), "--c", repr(c),
                        "--a-max", repr(a_max), "--format", "json", "--out", str(out)]) == code
        if want is None:
            assert not out.exists()
            assert capsys.readouterr().out == ""
        else:
            assert np.array(json.loads(out.read_text())["rows"]).tobytes() == want.tobytes()


class TestIdentifyCommand:
    def test_v_zero(self, tmp_path):
        out = tmp_path / "i.json"
        assert run_cli(["identify", "--direction", "rr_to_dcr", "--m0", "1",
                        "--v", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        par = payload["parameters"]
        assert par["m"] == 2.0 and par["m_dcr"] == 2.0 and par["a"] == 0.0

    def test_half_speed(self, tmp_path):
        out = tmp_path / "i.json"
        assert run_cli(["identify", "--direction", "rr_to_dcr", "--m0", "1",
                        "--v", "0.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        par = payload["parameters"]
        assert abs(par["m"] - 8 / 3) < 1e-12
        assert abs(par["omega_dcr"] - 4.0) < 1e-15
        assert abs(par["a"] - 0.125) < 1e-15
        assert payload["consistency_residual"] < 1e-12

    def test_missing_argument_is_usage_error(self, capsys):
        assert run_cli(["identify", "--direction", "dcr_to_rr", "--m", "1"]) == 2


class TestFailClosed:
    @pytest.mark.parametrize("residual, tolerance", [
        (float("nan"), 1.0),
        (0.0, float("inf")),
        (-float("inf"), 1.0),
    ])
    def test_non_finite_record_fails(self, residual, tolerance):
        rep = VerificationReport(suite="t", seed=0)
        rep.add("check", "non-finite value", residual, tolerance)
        assert not rep.records[0].passed
        assert not rep.passed
        assert rep.counts == (0, 1)


class TestRunSuiteApi:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite", RunConfig())

    def test_report_render_determinism(self):
        cfg = RunConfig(seed=7)
        a = run_suite("appendixC", cfg).render("json")
        b = run_suite("appendixC", cfg).render("json")
        assert a == b
