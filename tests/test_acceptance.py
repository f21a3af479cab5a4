"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run `pytest -s tests/test_acceptance.py`
to see them streamed.  The whole module re-derives its numbers through the
verification suites and direct oracles rather than trusting cached values.
"""

import numpy as np

from dirac_disquant import algebra, covariant, particle, rotator
from dirac_disquant.cli import main
from dirac_disquant.minkowski import mdot
from dirac_disquant.report import RunConfig
from dirac_disquant.verification import run_suite


def _report(name, residual, tolerance):
    ok = residual <= tolerance
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} "
          f"(residual {residual:.3e}, tolerance {tolerance:g})")
    assert ok, f"{name}: residual {residual!r} exceeds tolerance {tolerance!r}"


def test_gamma_algebra_suite():
    rep = run_suite("algebra", RunConfig(seed=42))
    ids = ("gamma-anticommutation", "pauli-relation", "gamma5-spin-relations",
           "projector-relations", "projector-proper-form")
    residual = max(r.residual for r in rep.records if r.check_id in ids)
    _report("gamma-algebra-invariants", residual, 1e-12)


def test_bilinear_equivalence():
    worst_eq = worst_id = 0.0
    for i in range(1000):
        p = algebra.random_spinor_params(np.random.default_rng(9000 + i))
        g = algebra.build_gamma_basis(p.z)
        bm = algebra.bilinears_matrix(algebra.spinor_from_params(p, g))
        bc = algebra.bilinears_closed_form(p)
        scale = max(np.abs(bc.j).max(), np.abs(bc.S).max(), abs(bc.scalar))
        worst_eq = max(worst_eq,
                       np.abs(bm.j - bc.j).max() / scale,
                       np.abs(bm.S - bc.S).max() / scale,
                       abs(bm.scalar - bc.scalar) / scale)
        a4 = p.amplitude ** 4
        worst_id = max(worst_id,
                       abs(mdot(bm.S, bm.S) + mdot(bm.j, bm.j)) / a4,
                       abs(mdot(bm.j, bm.S)) / a4)
    _report("bilinear-equivalence-1000", worst_eq, 1e-10)
    _report("flux-spin-identities-1000", worst_id, 1e-10)


def test_kinetic_term_splitting():
    cfg = RunConfig(seed=42)
    rep = run_suite("appendixA", cfg)
    by_id = {r.check_id: r for r in rep.records}
    _report("kinetic-split-residual-h1e-4",
            by_id["kinetic-split-residual"].residual, 1e-6)
    order_record = by_id["kinetic-split-convergence"]
    _report("kinetic-split-order-at-least-1.9", order_record.residual, 0.0)


def test_orbit_term_covariant_equivalence():
    cfg = RunConfig(seed=42)
    rep = run_suite("appendixB", cfg)
    by_id = {r.check_id: r for r in rep.records}
    _report("orbit-term-3d-vs-covariant-500",
            by_id["orbit-term-covariant-equivalence"].residual, 1e-10)


def test_spin_equation_z_independence():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(9500 + i)
        v = rng.normal(size=3)
        xdot = np.concatenate(([np.sqrt(1.0 + v @ v)], v))
        xddot = np.concatenate(([0.0], rng.normal(size=3)))
        xddot[0] = float(v @ xddot[1:]) / xdot[0]
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        z = rng.normal(size=3)
        z /= np.linalg.norm(z)
        if 1.0 + np.dot(xi, z) < 1e-2:
            z = -z
        st = particle.WorldlineState(xdot, xddot, xi)
        xidot = particle.xi_rate(st)
        full, reduced = particle.xi_equation_check(st, xidot, z)
        worst = max(worst, full, reduced)
    _report("spin-equation-z-independence-100", worst, 1e-10)


def test_helix_verification():
    p = particle.DcParams(m=1.0, hbar=1.0)
    res_sys = res_w0 = res_omega = drift = 0.0
    for b in (0.1, 1.0, 10.0):
        sol = particle.helix_solution(b, phase=0.0, p=p)
        res_w0 = max(res_w0, abs(sol.w0 * (b + 1) + 1.0))
        # The lab angular velocity is omega / (b+1).
        res_omega = max(res_omega,
                        abs(abs(sol.omega / (b + 1)) - 2.0 / (p.lam * (b + 1) ** 2)))
        P0 = particle.momentum(sol.state(0.0), np.zeros(3), p)
        scale = np.abs(P0).max()
        for tau in np.linspace(0.0, sol.tau_period, 128):
            st = sol.state(tau)
            r1, r2, r3 = particle.reduced_residuals(st, particle._y_rate(sol, tau),
                                                    sol.w0, p)
            res_sys = max(res_sys, np.abs(r1).max(), abs(r2), abs(r3))
            P = particle.momentum(st, np.zeros(3), p)
            drift = max(drift, np.abs(P - P0).max() / scale)
    _report("helix-reduced-system", res_sys, 1e-9)
    _report("helix-momentum-drift", drift, 1e-8)
    _report("helix-w0-relation", res_w0, 1e-12)
    _report("helix-lab-frequency", res_omega, 1e-12)


def test_observable_identities():
    p = particle.DcParams(m=1.0, hbar=1.0)
    worst = 0.0
    for b in np.concatenate(([0.0], np.logspace(-3, 2, 60))):
        ob = particle.observables(b, p)
        oz = particle.observables_from_zeta(ob.zeta, p)
        scale = max(abs(ob.m_dcr), abs(ob.v), abs(ob.omega_dcr), abs(ob.a_dcr), 1.0)
        worst = max(worst,
                    abs(ob.m_dcr - oz.m_dcr) / scale,
                    abs(ob.v - oz.v) / scale,
                    abs(ob.omega_dcr - oz.omega_dcr) / scale,
                    abs(ob.zeta - np.sinh(2 * ob.beta)) / max(ob.zeta, 1.0),
                    abs(ob.v - np.tanh(ob.beta)),
                    abs(ob.m_dcr - 1.0 / np.cosh(ob.beta)))
    _report("observable-dual-forms", worst, 1e-12)


def test_rotator_integration():
    pr = rotator.RotatorParams(m0=1.0, a=1.0, P0=2.0 * np.sqrt(2.0))
    cf = rotator.RotatorClosedForm(pr)
    steps = 2000
    dt = cf.tau_period / steps
    traj = rotator.integrate_rotator(pr, cf.state(0.0), steps, dt)
    dev = max(np.abs(x - cf.state(k * dt).x).max()
              for k, x in enumerate(traj.states.x))
    dev = max(dev, max(np.abs(X - cf.state(k * dt).X).max()
                       for k, X in enumerate(traj.states.X)))
    _report("rotator-positional-deviation", dev, 1e-6)
    _report("rotator-constraint-monitors",
            float(rotator.constraint_monitors(traj.states, pr).max()), 1e-8)
    _report("rotator-zeta-conservation", traj.zeta_drift, 1e-8)


def test_rigidity_grand_consistency():
    worst = 0.0
    for v in (0.1, 0.5, 0.9):
        out = rotator.rr_to_dcr(1.0, v)
        worst = max(worst, abs(rotator.rigidity(out["a"], 1.0)
                               - rotator.mass_increase(v)))
    _report("rigidity-vs-mass-increase", worst, 1e-12)
    bound = rotator.rigidity_domain_bound(1.0)
    spots = max(abs(rotator.rigidity(0.0, 1.0)),
                abs(rotator.rigidity(0.6 * bound, 1.0) - 0.25))
    _report("rigidity-spot-values", spots, 1e-12)


def test_determinism_of_verify_all(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "all", "--seed", "42", "--out", str(first)]) == 0
    assert main(["verify", "all", "--seed", "42", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    print(f"ACCEPTANCE verify-all-determinism: {'PASS' if identical else 'FAIL'} "
          f"(byte-identical reports)")
    assert identical
