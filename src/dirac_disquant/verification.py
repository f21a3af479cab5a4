"""Verification suites: every closed form checked against an independent route.

``run_suite`` builds the run's one VerificationReport, and each suite adds
its records to it; the records are deterministic functions of the seed.
"""

import functools
import time

import numpy as np

from . import algebra, covariant, particle, rotator
from .algebra import random_unit
from .minkowski import F_REST, as4, cross3, mdot
from .report import RunConfig, VerificationReport

SUITE_NAMES = ("all", "algebra", "appendixA", "appendixB", "appendixC",
               "particle", "rotator", "consistency")


def _worst(residuals):
    """Largest value over residuals given as numbers, arrays or tuples.

    NaN anywhere gives NaN, so a check fed a NaN fails instead of passing on
    the values around it (Python's ``max`` drops a NaN that is not first).
    """
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def run_suite(name, cfg: RunConfig) -> VerificationReport:
    # Built per call, not at import, so the suites are looked up by name
    # and a wrapper installed on the module attribute is the one that runs.
    fns = {
        "algebra": suite_algebra,
        "appendixA": suite_appendix_a,
        "appendixB": suite_appendix_b,
        "appendixC": suite_appendix_c,
        "particle": suite_particle,
        "rotator": suite_rotator,
        "consistency": suite_consistency,
    }
    if name != "all" and name not in fns:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    t0 = time.perf_counter()
    report = VerificationReport(suite=name, seed=cfg.seed)
    for sub in fns if name == "all" else (name,):
        t_sub = time.perf_counter()
        fns[sub](cfg, report)
        report.suite_times[sub] = time.perf_counter() - t_sub
    report.wall_time = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------- algebra


def suite_algebra(cfg: RunConfig, rep: VerificationReport) -> None:
    rng = np.random.default_rng(cfg.seed)
    g = algebra.build_gamma_basis((0.0, 0.0, 1.0))
    gamma, gamma5, sigma = algebra.GAMMA, algebra.GAMMA5, algebra.SIGMA
    eye = np.eye(4)

    r = _worst(
        np.abs(gamma[l] @ gamma[k] + gamma[k] @ gamma[l]
               - 2.0 * algebra.METRIC[k, l] * eye)
        for k in range(4) for l in range(4)
    )
    rep.add("gamma-anticommutation",
            "gamma^l gamma^k + gamma^k gamma^l = 2 g^kl over all 16 pairs",
            r, 1e-12)

    eps3 = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps3[a, b, c] = 1.0
        eps3[a, c, b] = -1.0
    r = _worst(
        np.abs(sigma[a] @ sigma[b]
               - ((1.0 if a == b else 0.0) * eye
                  + 1j * np.einsum("c,cij->ij", eps3[a, b], sigma)))
        for a in range(3) for b in range(3)
    )
    rep.add("pauli-relation",
            "sigma_a sigma_b = delta_ab + i eps_abc sigma_c", r, 1e-12)

    r = _worst([
        np.abs(gamma5 @ gamma5 + eye),
        *(np.abs(gamma5 @ sigma[a] - sigma[a] @ gamma5) for a in range(3)),
        *(np.abs(gamma[0] @ gamma[a + 1] + 1j * gamma5 @ sigma[a])
          for a in range(3)),
        np.abs(gamma[0] @ gamma5 + gamma5 @ gamma[0]),
        np.abs(gamma[0].conj().T - gamma[0]),
        *(np.abs(gamma[a].conj().T + gamma[a]) for a in (1, 2, 3)),
        *(np.abs(gamma[0] @ sigma[a] - sigma[a] @ gamma[0]) for a in range(3)),
    ])
    rep.add("gamma5-spin-relations",
            "gamma5^2 = -1, [gamma5, sigma] = 0, gamma0 gamma^a = -i gamma5 sigma_a, "
            "hermiticity", r, 1e-12)

    def projector():
        z = random_unit(rng)
        pi = algebra.build_gamma_basis(z).pi_projector
        zs = algebra.sigma_dot(z)
        return (np.abs(pi @ pi - pi).max(),
                np.abs(gamma[0] @ pi - pi).max(),
                np.abs(zs @ pi - pi).max(),
                np.abs(pi @ gamma5 @ pi).max(),
                *(np.abs(pi @ sigma[a] @ pi - z[a] * pi).max() for a in range(3)),
                abs(np.trace(pi) - 1.0))

    r = _worst(projector() for _ in range(8))
    rep.add("projector-relations",
            "Pi^2 = Pi, gamma0 Pi = Pi, (z.sigma) Pi = Pi, Pi gamma5 Pi = 0, "
            "Pi sigma Pi = z Pi, tr Pi = 1 over random z", r, 1e-12)

    rep.add("projector-proper-form",
            "z = (0,0,1) gives Pi = diag(1,0,0,0)",
            np.abs(g.pi_projector - np.diag([1.0, 0, 0, 0])).max(), 1e-12)

    n_params = 1000
    params = [algebra.random_spinor_params(np.random.default_rng(cfg.seed + 1000 + i))
              for i in range(n_params)]
    ps = algebra.SpinorParams.stack(params)

    def matrix_route():
        # Each check builds its own basis per set and its own spinor stack.
        cols = np.array([algebra.build_gamma_basis(p.z).pi_column for p in params])
        return algebra.bilinears_matrix(
            algebra.spinor_columns(ps.amplitude, ps.kappa, ps.phi, ps.eta, ps.n, cols))

    # The residuals below are (n_params,) arrays, one entry per set, with the
    # operations of the per-set check: a per-row max, then the division.
    bm = matrix_route()
    bc = algebra.bilinears_closed_form(ps)
    scale = np.maximum(np.maximum(np.abs(bc.j).max(axis=1), np.abs(bc.S).max(axis=1)),
                       np.maximum(np.abs(bc.scalar), 1e-300))
    rep.add("bilinear-equivalence",
            f"matrix-route vs closed-form bilinears, {n_params} random parameter sets "
            "(relative)",
            _worst((np.abs(bm.j - bc.j).max(axis=1) / scale,
                    np.abs(bm.S - bc.S).max(axis=1) / scale,
                    np.abs(bm.scalar - bc.scalar) / scale)), 1e-10)

    bm = matrix_route()
    a4 = np.float_power(ps.amplitude, 4.0)
    rep.add("flux-spin-identities",
            "S.S = -j.j and j.S = 0 (relative to A^4)",
            _worst((np.abs(mdot(bm.S.T, bm.S.T) + mdot(bm.j.T, bm.j.T)) / a4,
                    np.abs(mdot(bm.j.T, bm.S.T)) / a4)), 1e-10)

    bm = matrix_route()
    a2 = np.float_power(ps.amplitude, 2.0)
    rep.add("rho-equals-amplitude-squared", "sqrt(j.j) = A^2 (relative)",
            _worst([np.abs(bm.rho - a2) / a2]), 1e-12)

    xi = algebra.xi_from_bilinears(bc)
    s_back = algebra.spin_from_xi(xi, bc.j, bc.rho)
    rep.add("xi-extraction-roundtrip",
            "xi from (j,S) is unit, equals 2n(n.z)-z, and regenerates S",
            _worst((np.abs(xi - ps.xi).max(axis=1),
                    np.abs(np.sqrt(np.matmul(xi[:, None, :], xi[:, :, None]))[:, 0, 0] - 1.0),
                    np.abs(s_back - bc.S).max(axis=1)
                    / np.maximum(np.abs(bc.S).max(axis=1), 1e-300))), 1e-10)

    def inversion(i):
        rng_i = np.random.default_rng(cfg.seed + 5000 + i)
        z = random_unit(rng_i)
        xi = random_unit(rng_i)
        if 1.0 + float(np.dot(xi, z)) < 1e-6:
            return 0.0      # antipodal pair: outside the map's domain, skipped
        n = algebra.n_from_xi(xi, z)
        xi_back = 2.0 * n * float(np.dot(n, z)) - z
        return np.abs(xi_back - xi).max(), abs(np.linalg.norm(n) - 1.0)

    rep.add("n-from-xi-inversion",
            "n = (xi+z)/sqrt(2(1+xi.z)) reproduces xi = 2n(n.z)-z",
            _worst(inversion(i) for i in range(200)), 1e-10)


# ------------------------------------------------------------ appendix A


def _field_points(cfg: RunConfig, offset, n_points):
    """The ten seeded parameter fields of a field suite and its n_points
    points in the box |x_l| <= 0.5; point i lies on field i % 10.

    Each field's memo then holds the Lagrangian pieces of its points at
    cfg.m and cfg.hbar, from one stacked body call per field.
    """
    fields = [covariant.random_param_field(np.random.default_rng(cfg.seed + offset + k))
              for k in range(10)]
    points = np.random.default_rng(cfg.seed).uniform(-0.5, 0.5, size=(n_points, 4))
    for k, fld in enumerate(fields):
        covariant.prefill_pieces(fld, points[k::len(fields)], cfg.m, cfg.hbar)
    return fields, points


def _worst_over_points(cfg: RunConfig, fields, points, residual, count=None):
    """``_worst`` of residual(i, fld, x, pieces) over the first count points.

    Each call gets point i's field and x and makes its own
    ``lagrangian_pieces`` call, so every check reads the pieces itself,
    from the memo that ``_field_points`` filled.
    """
    def at(i, x):
        fld = fields[i % len(fields)]
        return residual(i, fld, x, covariant.lagrangian_pieces(fld, x, cfg.m, cfg.hbar))
    return _worst(at(i, x) for i, x in enumerate(points[:count]))


def suite_appendix_a(cfg: RunConfig, rep: VerificationReport) -> None:
    n_points = 100
    fields, points = _field_points(cfg, 100, n_points)
    worst = functools.partial(_worst_over_points, cfg, fields, points)

    def kinetic_error(h):
        return worst(lambda i, fld, x, pc: abs(covariant.kinetic_term_matrix(
            fld, x, algebra.build_gamma_basis(fld.z), cfg.hbar, h=h) - pc.kinetic_total))

    errors = {h: kinetic_error(h) for h in (1e-3, 5e-4, 2.5e-4, 1e-4)}

    # The kinetic term is linear in hbar; divided by it the residual is unit-free.
    rep.add("kinetic-split-residual",
            f"finite-difference kinetic term vs F1+F2+F3+F4 at h=1e-4, "
            f"{n_points} points", errors[1e-4] / cfg.hbar, 1e-6)

    order1 = np.log2(errors[1e-3] / errors[5e-4])
    order2 = np.log2(errors[5e-4] / errors[2.5e-4])
    rep.add("kinetic-split-convergence",
            "observed finite-difference order across h = 1e-3, 5e-4, 2.5e-4 "
            "(record = 1.9 - min order)", _worst([1.9 - order1, 1.9 - order2]), 0.0)

    # The amplitude and kappa of each field's points i = k (mod 10).
    s = np.empty((n_points, 6))
    for k, fld in enumerate(fields):
        s[k::len(fields)] = fld.values(points[k::len(fields)])[0]
    amplitude, kappa = s[:, 0].tolist(), s[:, 1].tolist()

    def decomposition(i, fld, x, pc):
        rho = amplitude[i] ** 2
        total = pc.l_cl + pc.l_q1 + pc.l_q2
        expect = -cfg.m * rho * np.cos(kappa[i]) + pc.kinetic_total
        return abs(total - expect) / max(abs(expect), 1.0)

    rep.add("lagrangian-decomposition",
            "L_cl + L_q1 + L_q2 = -m rho cos kappa + (F1+F2+F3+F4)",
            worst(decomposition), 1e-12)


# ------------------------------------------------------------ appendix B


def suite_appendix_b(cfg: RunConfig, rep: VerificationReport) -> None:
    n_points = 500
    fields, points = _field_points(cfg, 200, n_points)
    worst = functools.partial(_worst_over_points, cfg, fields, points)

    rep.add("orbit-term-covariant-equivalence",
            f"F4 three-dimensional vs covariant form, {n_points} points (relative)",
            worst(lambda i, fld, x, pc: abs(pc.f4 - pc.f4_cov) / max(abs(pc.f4), 1e-3)),
            1e-10)

    rep.add("orbit-term-unit-vector-form",
            "covariant F4 through (j + f rho) vs through the unit vector q",
            worst(lambda i, fld, x, pc: abs(pc.f4_cov - pc.f4_cov_q) / max(abs(pc.f4), 1e-3)),
            1e-10)

    rep.add("spin-term-covariant-equivalence",
            "F3 three-dimensional vs covariant form through mu (relative)",
            worst(lambda i, fld, x, pc: abs(pc.f3 - pc.f3_cov) / max(abs(pc.f3), 1e-3)),
            1e-10)

    # The oracle once per field, over that field's points i = k (mod 10).
    alt = np.empty(n_points)
    for k, fld in enumerate(fields):
        alt[k::len(fields)] = covariant.f3_without_inner_factor(
            fld, points[k::len(fields)], cfg.hbar)

    rep.add("spin-term-regularization-invariance",
            "normalization factor inside vs outside the derivative leaves F3 unchanged",
            worst(lambda i, fld, x, pc: abs(pc.f3_cov - alt[i]) / max(abs(pc.f3), 1e-3)),
            1e-10)

    # nu.nu + 1 and q.q - 1 at the first n_aux points, from one stacked jet
    # per field over its points i = k (mod 10).
    n_aux = 100
    units = np.empty((n_aux, 2))
    for k, fld in enumerate(fields):
        p = fld.jet(points[k:n_aux:len(fields)]).params
        bc = algebra.bilinears_closed_form(p)
        aux = covariant.CovariantAux.from_state(bc.j, bc.rho, p.xi, p.z)
        units[k::len(fields)] = np.stack([mdot(aux.nu.T, aux.nu.T) + 1.0,
                                          mdot(aux.q.T, aux.q.T) - 1.0], axis=1)

    rep.add("auxiliary-unit-vectors", "nu.nu = -1, q.q = 1, f.f = 1",
            worst(lambda i, fld, x, pc: (*np.abs(units[i]), abs(mdot(F_REST, F_REST) - 1.0)),
                  n_aux), 1e-10)

    def splitting(i):
        rng_i = np.random.default_rng(cfg.seed + 300 + i)
        j = np.array([0.0, 0, 0, 0])
        while mdot(j, j) <= 0.1:
            j = rng_i.normal(size=4)
            j[0] = abs(j[0]) + 1.0
        grad = rng_i.normal(size=4)
        par, perp = covariant.split_derivative(j, grad)
        return np.abs(par + perp - grad).max(), abs(mdot(j, perp)) / np.abs(grad).max()

    rep.add("derivative-splitting",
            "parallel + transversal = gradient and j.transversal = 0",
            _worst(splitting(i) for i in range(200)), 1e-12)


# ------------------------------------------------------------ appendix C


def suite_appendix_c(cfg: RunConfig, rep: VerificationReport) -> None:
    n_z = 100

    def full_residual(i):
        rng_i = np.random.default_rng(cfg.seed + 400 + i)
        st = _random_worldline_jet(rng_i)
        xidot = particle.xi_rate(st)
        z = random_unit(rng_i)
        # Near xi.z = -1 the formulas are genuinely singular and the check
        # would only measure roundoff amplification; keep clear of the wall.
        if 1.0 + float(np.dot(st.xi, z)) < 1e-2:
            z = -z
        # The full residual scales like hbar, exactly 1 at unit constants, so
        # divided by it the check is unit-free.
        full, reduced = particle.xi_equation_check(st, xidot, z, hbar=cfg.hbar)
        return full / cfg.hbar, reduced

    rep.add("spin-equation-z-independence",
            f"full variational spin equation residual with the z-free rate, "
            f"{n_z} random z and jets",
            _worst(full_residual(i) for i in range(n_z)), 1e-10)

    rng = np.random.default_rng(cfg.seed + 450)
    st = _random_worldline_jet(rng)
    z = random_unit(rng)
    if 1.0 + float(np.dot(st.xi, z)) < 1e-3:
        z = -z
    xidot = particle.xi_rate(st)
    direction = cross3(st.xi, random_unit(rng))
    direction /= np.linalg.norm(direction)
    ratios = []
    for delta in (1e-4, 1e-5):
        res, _ = particle.xi_equation_check(st, xidot + delta * direction, z,
                                            hbar=cfg.hbar)
        ratios.append(res / delta)
    rep.add("spin-equation-linear-sensitivity",
            "residual of the full equation grows linearly in a xidot perturbation",
            abs(ratios[0] / ratios[1] - 1.0), 1e-3)


def _random_worldline_jet(rng) -> particle.WorldlineState:
    """A timelike velocity in the proper gauge, an acceleration, a unit spin."""
    v = rng.normal(size=3)
    xdot = np.concatenate(([np.sqrt(1.0 + v @ v)], v))
    xddot = np.concatenate(([0.0], rng.normal(size=3)))
    # Proper-time gauge is preserved to first order when xdot.xddot = 0.
    xddot[0] = float(np.dot(v, xddot[1:])) / xdot[0]
    return particle.WorldlineState(xdot=xdot, xddot=xddot, xi=random_unit(rng))


# -------------------------------------------------------------- particle


def suite_particle(cfg: RunConfig, rep: VerificationReport) -> None:
    p = particle.DcParams(m=cfg.m, hbar=cfg.hbar)

    b_values = (0.1, 1.0, 10.0)
    n_tau = 64

    reduced, gauge, constraints, w0_rel = [], [], [], []
    drift, rest_frame, lag, mass = [], [], [], []
    for b in b_values:
        sol = particle.helix_solution(b, phase=0.3, p=p)
        w0_rel.append(abs(sol.w0 * (b + 1.0) + 1.0))
        P0_ref = particle.momentum(sol.state(0.0), np.zeros(3), p)
        scale = max(np.abs(P0_ref).max(), 1e-300)
        for tau in np.linspace(0.0, sol.tau_period, n_tau):
            st = sol.state(tau)
            ydot = particle._y_rate(sol, tau)
            r1, r2, r3 = particle.reduced_residuals(st, ydot, sol.w0, p)
            reduced.append((np.abs(r1).max(), abs(r2), abs(r3)))
            gauge.append(abs(mdot(st.xdot, st.xdot) - 1.0))
            # ydot scales like 1/lam; lam is exactly 1 at unit constants.
            constraints.append((abs(float(np.dot(st.y, ydot))) * p.lam,
                                abs(float(np.dot(st.y, st.xi))),
                                abs(float(np.dot(st.y, st.y)) - b)))
            P = particle.momentum(st, np.zeros(3), p)
            drift.append(np.abs(P - P0_ref).max() / scale)
            # The momentum, the Lagrangian and the mass scale like m; divided
            # by it they are unit-free (m is exactly 1 at unit constants).
            rest_frame.append((np.abs(P[1:]).max() / p.m,
                               abs(P[0] - p.m * sol.w0) / p.m))
            lag.append(abs(particle.lagrangian_dc(st, p)
                           - particle.lagrangian_dc_covariant(st, p)) / p.m)
        u, m_rel = particle.relativize(particle.momentum(sol.state(0.1), np.zeros(3), p))
        mass.append((abs(m_rel - sol.obs.m_dcr) / p.m, abs(mdot(u, u) - 1.0)))

    rep.add("helix-reduced-system",
            "closed-form helix satisfies the reduced first-order system, "
            "b in {0.1, 1, 10}", _worst(reduced), 1e-9)
    rep.add("helix-proper-gauge", "xdot.xdot = 1 along the helix", _worst(gauge), 1e-10)
    rep.add("helix-y-constraints", "y.ydot = 0, y.xi = 0, y^2 = b",
            _worst(constraints), 1e-10)
    rep.add("helix-w0-relation", "w0 (b+1) = -1", _worst(w0_rel), 1e-12)
    rep.add("momentum-conservation",
            "momentum drift over one period (relative)", _worst(drift), 1e-8)
    rep.add("momentum-rest-frame",
            "spatial momentum vanishes and P_0 = m w0 on the helix",
            _worst(rest_frame), 1e-8)
    rep.add("lagrangian-covariant-equivalence",
            "three-dimensional vs covariant worldline Lagrangian on helix states",
            _worst(lag), 1e-12)
    rep.add("relativized-mass", "sqrt(P.P) = m/(b+1) and u.u = 1", _worst(mass), 1e-12)

    b_grid = np.concatenate(([0.0], np.logspace(-2, 2, 41)))

    def dual_forms(b):
        ob = particle.observables(b, p)
        oz = particle.observables_from_zeta(ob.zeta, p)
        scale = max(abs(ob.m_dcr), abs(ob.v), abs(ob.omega_dcr), abs(ob.a_dcr), 1.0)
        return (abs(ob.m_dcr - oz.m_dcr) / scale,
                abs(ob.v - oz.v) / scale,
                abs(ob.omega_dcr - oz.omega_dcr) / scale,
                abs(ob.a_dcr - oz.a_dcr) / scale,
                abs(ob.zeta - np.sinh(2.0 * ob.beta)) / max(ob.zeta, 1.0),
                abs(ob.v - p.c * np.tanh(ob.beta)) / p.c,
                abs(ob.m_dcr - p.m / np.cosh(ob.beta)) / p.m)

    rep.add("observable-dual-forms",
            "b-parametrized vs rapidity-parametrized observables, b in [0, 100]",
            _worst(dual_forms(b) for b in b_grid), 1e-12)

    r = _worst(particle.integrate_xi_along_helix(particle.helix_solution(b, 0.0, p))
               for b in b_values)
    rep.add("spin-axis-constancy",
            "integrated spin equation keeps xi constant along the helix", r, 1e-9)

    rng = np.random.default_rng(cfg.seed + 600)

    def generic_jet():
        st = _random_worldline_jet(rng)
        xidot = particle.xi_rate(st)
        # The mass term scales like m and the spin and orbit terms like
        # hbar; both divisors are exactly 1 at unit constants.
        return abs(particle.lagrangian_dc(st, p, xidot)
                   - particle.lagrangian_dc_covariant(st, p, xidot)) / max(p.m, p.hbar)

    rep.add("lagrangian-covariant-equivalence-generic",
            "dual Lagrangian forms on random worldline jets",
            _worst(generic_jet() for _ in range(100)), 1e-12)

    def boosted(i, b):
        rng_b = np.random.default_rng(cfg.seed + 700 + i)
        u = rng_b.uniform(-0.45, 0.45, size=3)
        lam = particle.boost_matrix(u)
        f_boost = lam[:, 0]
        sol = particle.helix_solution(b, 0.0, p)
        expect = particle.boost_matrix(-u) @ particle.momentum(
            sol.state(0.0), np.zeros(3), p)
        states = (sol.state(tau) for tau in np.linspace(0.0, sol.tau_period, 16))
        return [np.abs(particle.momentum_covariant(
                    lam @ st.xdot, lam @ st.xddot, lam @ as4(0.0, st.xi),
                    np.zeros(4), p, f_boost) - expect).max() / p.m
                for st in states]

    rep.add("boosted-momentum-covariance",
            "momentum of the boosted helix is the boosted constant",
            _worst(boosted(i, b) for i, b in enumerate((0.5, 3.0))), 1e-10)


# --------------------------------------------------------------- rotator


def suite_rotator(cfg: RunConfig, rep: VerificationReport) -> None:
    pr = rotator.RotatorParams(m0=cfg.m0, a=1.0, P0=2.0 * np.sqrt(2.0) * cfg.m0)
    cf = rotator.RotatorClosedForm(pr)

    h = 1e-6
    taus = np.linspace(0.0, cf.tau_period, 32)
    s, sp, sm = cf.state(taus), cf.state(taus + h), cf.state(taus - h)
    xdot_c, xdot, pdot = rotator._rhs(s, pr)
    pdot_scale = np.maximum(np.abs(pdot).max(axis=1), 1.0)[:, None]
    dyn = (np.abs((sp.x - sm.x) / (2 * h) - xdot),
           np.abs((sp.p - sm.p) / (2 * h) - pdot) / pdot_scale,
           np.abs((sp.X - sm.X) / (2 * h) - xdot_c))
    rep.add("closed-form-dynamics",
            "closed-form rotator satisfies the constrained equations of motion "
            "(finite-difference check)", _worst(dyn), 1e-6)
    # p.x scales like m0 a and the momentum monitors like m0^2; divided by
    # monitor_scales they are unit-free.
    scales = rotator.monitor_scales(pr)
    mon = rotator.constraint_monitors(s, pr) / scales[:, None]
    steady = [cf.steady_state_residual(t) for t in -pr.P0 * taus / (4 * pr.m0)]
    rep.add("closed-form-constraints",
            "steady-state and constraint residuals of the closed form",
            _worst([steady, mon]), 1e-12)

    # 200 steps a period over 10 periods: the monitors and the zeta drift
    # pass only with the integrator's per-step rescale of x.
    steps = 2000
    dt = cf.tau_period / 200
    traj = rotator.integrate_rotator(pr, cf.state(0.0), steps, dt)
    ref = cf.state(np.arange(steps + 1) * dt)
    rep.add("integrator-vs-closed-form",
            "integrated established motion vs closed form over 10 periods "
            "(dt = period/200)",
            _worst((np.abs(traj.states.x - ref.x), np.abs(traj.states.X - ref.X))), 1e-6)
    rep.add("integrator-constraint-monitors",
            "all five constraint monitors along the trajectory",
            float((rotator.constraint_monitors(traj.states, pr) / scales[:, None]).max()),
            1e-8)
    rep.add("integrator-conserved-zeta",
            "conserved eps_iklm x^k p^l P^m drift (relative)", traj.zeta_drift, 1e-8)

    static = rotator.RotatorParams(m0=cfg.m0, a=1.0, P0=2.0 * cfg.m0)
    scf = rotator.RotatorClosedForm(static)
    straj = rotator.integrate_rotator(static, scf.state(0.0), 200, 0.05)
    r = _worst((np.abs(straj.states.x - scf.state(0.0).x), np.abs(straj.states.p)))
    rep.add("static-threshold-motion",
            "P0 = 2 m0 start stays a static antipodal pair", r, 1e-12)

    def speed(p0_factor):
        prx = rotator.RotatorParams(m0=cfg.m0, a=1.0, P0=2.0 * cfg.m0 * p0_factor)
        return prx.a * abs(prx.omega0)

    rep.add("subluminal-speed",
            "particle speed a |omega0| stays below c for P0 > 2 m0",
            _worst(speed(f) for f in (1.0 + 1e-9, 1.5, 2.0, 10.0, 1e3)), 1.0 - 1e-12)

    r = _worst([abs(rotator.mass_increase(1.0 / np.sqrt(2.0)) - (np.sqrt(2.0) - 1.0)),
                abs(rotator.mass_increase(0.5) - (2.0 / np.sqrt(3.0) - 1.0)),
                abs(rotator.mass_increase(0.0))])
    rep.add("mass-increase-values",
            "gamma(v) spot values at v = 0, 1/sqrt(2), 1/2", r, 1e-12)

    bound = rotator.rigidity_domain_bound(cfg.m0, cfg.hbar, cfg.c)
    a_grid = np.linspace(0.0, 0.999 * bound, 200)
    gam = rotator.rigidity(a_grid, cfg.m0, cfg.hbar, cfg.c)
    mono = float(np.max(np.maximum(0.0, gam[:-1] - gam[1:])))
    rep.add("rigidity-monotone", "rigidity curve strictly increases on its domain",
            mono, 0.0)


# ----------------------------------------------------------- consistency


def suite_consistency(cfg: RunConfig, rep: VerificationReport) -> None:
    p = particle.DcParams(m=cfg.m, hbar=cfg.hbar, c=cfg.c)

    def identification(b):
        ob = particle.observables(b, p)
        ident = rotator.dcr_to_rr(cfg.m, ob.zeta, cfg.hbar, cfg.c)
        gam_rig = rotator.rigidity(ob.a_dcr, ident["m0"], cfg.hbar, cfg.c)
        gam_kin = rotator.mass_increase(ident["v"], cfg.c)
        pr = rotator.RotatorParams(m0=ident["m0"], a=ob.a_dcr, P0=ident["M"])
        # omega0 is angle per unit x^0 = c t, so c |omega0| is the lab rate.
        # Each part is divided by its natural scale (m, lam, c, c/lam), all
        # exactly 1 at unit constants; the rigidity is dimensionless.
        return (abs(ident["M"] - ob.m_dcr) / cfg.m, abs(ident["a"] - ob.a_dcr) / p.lam,
                abs(ident["v"] - ob.v) / cfg.c, abs(gam_rig - gam_kin),
                abs(cfg.c * abs(pr.omega0) - ob.omega_dcr) / (cfg.c / p.lam))

    rep.add("helix-rotator-identification",
            "helix observables match the rotator under the parameter map, "
            "b in {0.1, 1, 10}", _worst(identification(b) for b in (0.1, 1.0, 10.0)),
            1e-12)

    def grand(beta):
        # The speeds are fractions of c, so every one is below c at any c.
        v = beta * cfg.c
        back = rotator.rr_to_dcr(cfg.m0, v, cfg.hbar, cfg.c)
        gam_rig = rotator.rigidity(back["a"], cfg.m0, cfg.hbar, cfg.c)
        return abs(gam_rig - rotator.mass_increase(v, cfg.c))

    rep.add("rigidity-grand-consistency",
            "rigidity(a) equals the kinematic mass increase for v in {0.1, 0.5, 0.9}",
            _worst(grand(beta) for beta in (0.1, 0.5, 0.9)), 1e-12)

    bound = rotator.rigidity_domain_bound(cfg.m0, cfg.hbar, cfg.c)
    r = _worst([abs(rotator.rigidity(0.0, cfg.m0, cfg.hbar, cfg.c)),
                abs(rotator.rigidity(0.6 * bound, cfg.m0, cfg.hbar, cfg.c) - 0.25)])
    rep.add("rigidity-spot-values", "gamma(0) = 0 and gamma at 4 a m0 c/hbar = 0.6 "
            "equals 0.25", r, 1e-12)

    def roundtrip(zeta):
        fwd = rotator.dcr_to_rr(cfg.m, zeta, cfg.hbar, cfg.c)
        back = rotator.rr_to_dcr(fwd["m0"], fwd["v"], cfg.hbar, cfg.c)
        return (abs(back["m"] - cfg.m) / cfg.m, abs(back["zeta"] - zeta) / zeta,
                abs(back["a"] - fwd["a"]) / max(fwd["a"], 1e-300),
                abs(back["m_dcr"] - fwd["M"]) / fwd["M"])

    rep.add("identification-roundtrip",
            "dcr->rr->dcr is the identity for zeta in {0.1, 1, 10} (relative)",
            _worst(roundtrip(zeta) for zeta in (0.1, 1.0, 10.0)), 1e-12)

    back = rotator.rr_to_dcr(1.0, 0.5, hbar=1.0, c=1.0)
    r = _worst([abs(back["m"] - 8.0 / 3.0), abs(back["m_dcr"] - 2.0 / np.sqrt(0.75)),
                abs(back["omega_dcr"] - 4.0), abs(back["a"] - 0.125),
                abs(back["moment_to_angular_momentum"] - 0.25)])
    rep.add("identification-spot-values",
            "rr->dcr at v = 0.5, m0 = 1 (m, m_dcr, omega_dcr, a, mu0/A)", r, 1e-12)
