"""Every check must be able to fail: a table of named mutations.

Each row replaces one program function or constant, as one module or class
binds it, by a plausible defect, and names the checks that must then fail
at seed 42.  The rows were fixed before they were first run; a row whose
check still passes shows a check that cannot see the defect it guards
against.  Such rows are kept in ``UNSEEN``, with the reason no check sees
them, until one does.
"""

import dataclasses
import math

import numpy as np
import pytest

from dirac_disquant import algebra, covariant, minkowski, particle, rotator
from dirac_disquant.errors import DomainError, SubThresholdError
from dirac_disquant.minkowski import mdot
from dirac_disquant.report import RunConfig
from dirac_disquant.verification import run_suite


def scaled_guard(one_plus):
    """The antipodal guard, its returned 1 + xi.z off by a relative 1e-3."""
    return algebra.require_off_antipode(one_plus) * (1.0 + 1e-3)


def map_constants(c_of, g_of):
    """``rotator._rk4_constants`` with its map's c and g replaced by
    c_of(q) and g_of(q, dt), q = dt^2 s / (m4 d) as in the original."""
    rk4_constants = rotator._rk4_constants

    def mutant(p, P, dt):
        *X_step, _, _, _ = rk4_constants(p, P, dt)
        m4, s, d = rotator._motion_constants(p, P)
        q = dt * dt * s / (m4 * d)
        g = g_of(q, dt)
        return (*X_step, c_of(q), g / -m4, g * -s / d)
    return mutant


def gamma3_of_sigma1():
    """The Dirac matrices with gamma^3 built from sigma_1 in place of
    sigma_3, a Pauli index off by two."""
    gamma = algebra.GAMMA.copy()
    gamma[3] = gamma[1]
    return gamma


def radius_off_by_1e11(project):
    """The rescale of x onto a sphere of radius a (1 + 1e-11)."""
    return lambda x, a: project(x, a * (1.0 + 1e-11))


def zeta_with_p_and_P_swapped(x, prel, P):
    """eps_iklm x^k P^l p^m: the conserved vector with its sign flipped."""
    return minkowski.eps4_free(0, x, P, prel)


def negated(fn):
    """``fn`` with its result negated."""
    return lambda *args: -fn(*args)


def s0_negated(bilinears_closed_form):
    """The closed-form bilinears with the time component of S negated."""
    def mutant(p):
        bc = bilinears_closed_form(p)
        S = bc.S.copy()
        S[..., 0] = -S[..., 0]
        return dataclasses.replace(bc, S=S)
    return mutant


def at_half_radius(rigidity):
    """The rigidity function evaluated at a / 2."""
    return lambda a, m0, hbar=1.0, c=1.0: rigidity(0.5 * a, m0, hbar, c)


def omega0_without_P0(params):
    """The lab frequency -sqrt(P0^2 - 4 m0^2) / a, its division by P0 left out."""
    return -np.sqrt(params.P0 ** 2 - 4.0 * params.m0 ** 2) / params.a


def mass_increase_unsquared(v, c=1.0):
    """The mass increase 1/sqrt(1 - v/c) - 1, with v/c not squared."""
    return 1.0 / np.sqrt(1.0 - v / c) - 1.0


def q_over_norm2(from_state):
    """``CovariantAux.from_state`` with q divided by 2 rho (rho + j.f) in
    place of its square root."""
    def mutant(j, rho, xi, z):
        aux = from_state(j, rho, xi, z)
        norm2 = 2.0 * rho * (rho + mdot(j, minkowski.F_REST))
        return dataclasses.replace(aux, q=aux.q / math.sqrt(norm2))
    return mutant


def speed_without_root_plus_one(observables_from_zeta):
    """The zeta-parametrized observables with v = c zeta / sqrt(1 + zeta^2)
    in place of c zeta / (sqrt(1 + zeta^2) + 1)."""
    def mutant(zeta, p):
        ob = observables_from_zeta(zeta, p)
        return ob._replace(v=p.c * zeta / math.sqrt(1.0 + zeta ** 2))
    return mutant


def split_without_parallel_part(j, grad):
    """The derivative split with its parallel part dropped: zero parallel,
    and the whole gradient as the transversal part."""
    grad = np.asarray(grad, dtype=float)
    return np.zeros_like(grad), grad


def z_negated(n_from_xi):
    """The rotation axis computed from -z."""
    return lambda xi, z: n_from_xi(xi, -np.asarray(z, dtype=float))


def p_negated(state):
    """The closed-form rotator state with its relative momentum negated."""
    def mutant(self, tau):
        s = state(self, tau)
        return dataclasses.replace(s, p=-s.p)
    return mutant


def y_rate_of_spatial_velocity(y_rate):
    """ydot without its division by sqrt(1 + xdot^0) = sqrt(b + 2): the rate
    of xdot_sp in place of the rate of y."""
    return lambda sol, tau: y_rate(sol, tau) * np.sqrt(sol.b + 2.0)


def y_over_sqrt_xdot0(self):
    """The reduced velocity xdot_sp / sqrt(xdot^0), the 1 + left out."""
    return self.xdot[1:] / np.sqrt(self.xdot[0])


def w0_sign_lost(helix_solution):
    """The helix with w0 = 1/(b+1) in place of -1/(b+1)."""
    def mutant(b, phase, p):
        sol = helix_solution(b, phase, p)
        return dataclasses.replace(sol, w0=-sol.w0)
    return mutant


def omega_off_by_1e9(helix_solution):
    """The helix with its tau frequency omega off by a relative 1e-9."""
    def mutant(b, phase, p):
        sol = helix_solution(b, phase, p)
        return dataclasses.replace(sol, omega=sol.omega * (1.0 + 1e-9))
    return mutant


def off_by_1e9(prop):
    """The property ``prop`` with its value off by a relative 1e-9."""
    return property(lambda self: prop.fget(self) * (1.0 + 1e-9))


def mass_without_sqrt(P):
    """``relativize`` with M = P.P in place of its square root."""
    P = np.asarray(P, dtype=float)
    M = mdot(P, P)
    return -P / M, float(M)


def full_residual_squared(xi_equation_check):
    """The spin equation's full residual reported squared."""
    def mutant(s, xidot, z, hbar=1.0):
        full, reduced = xi_equation_check(s, xidot, z, hbar)
        return full ** 2, reduced
    return mutant


def raised_index(momentum):
    """The momentum with upper components P^i in place of P_i."""
    return lambda s, xidot, p: minkowski.lower(momentum(s, xidot, p))


def m0_without_plus_one(dcr_to_rr):
    """The map to the rotator with m0 = m / sqrt(1 + zeta^2), the + 1 left
    out; v = 4 a m0 c^2 / hbar follows it."""
    def mutant(m, zeta, hbar=1.0, c=1.0):
        out = dcr_to_rr(m, zeta, hbar, c)
        m0 = m / math.sqrt(1.0 + zeta ** 2)
        return {**out, "m0": m0, "v": 4.0 * out["a"] * m0 * c ** 2 / hbar}
    return mutant


def m_dcr_without_sqrt(rr_to_dcr):
    """The map to the particle with m_dcr = 2 m0 / (1 - v^2/c^2), the square
    root left out."""
    def mutant(m0, v, hbar=1.0, c=1.0, e_charge=1.0):
        out = rr_to_dcr(m0, v, hbar, c, e_charge)
        return {**out, "m_dcr": 2.0 * m0 / (1.0 - (v / c) ** 2)}
    return mutant


MUTATIONS = [
    # Both F3 shapes of lagrangian_pieces divide by the guarded value: the
    # three-dimensional one by 2 (1 + xi.z), the covariant one through mu and
    # d_mu, each over sqrt(2 (1 + xi.z)); the d_norm part of d_mu lies along
    # nu = sqrt(2 (1 + xi.z)) mu and drops out of the eps4.  Both shapes scale
    # by 1 / (1 + 1e-3), so spin-term-covariant-equivalence stays at roundoff
    # (2.8e-14) and cannot see this defect.  The oracle
    # f3_without_inner_factor computes its own 1 + xi.z.
    pytest.param(covariant, "require_off_antipode", scaled_guard,
                 {"kinetic-split-residual": "appendixA",
                  "spin-term-regularization-invariance": "appendixB"},
                 id="covariant-antipodal-guard-scaled"),
    pytest.param(particle, "require_off_antipode", scaled_guard,
                 {"spin-equation-z-independence": "appendixC",
                  "lagrangian-covariant-equivalence-generic": "particle"},
                 id="particle-antipodal-guard-scaled"),
    # On the linear (x, p) system a midpoint (RK2) step is the degree-2
    # map: c = 1 + q/2 and g = dt.
    pytest.param(rotator, "_rk4_constants",
                 map_constants(lambda q: 1.0 + q / 2.0, lambda q, dt: dt),
                 {"integrator-vs-closed-form": "rotator",
                  "integrator-constraint-monitors": "rotator",
                  "integrator-conserved-zeta": "rotator"},
                 id="rotator-midpoint-step"),
    pytest.param(rotator, "_rk4_constants",
                 map_constants(lambda q: 1.0 + q / 2.0, lambda q, dt: dt * (1.0 + q / 6.0)),
                 {"integrator-vs-closed-form": "rotator",
                  "integrator-constraint-monitors": "rotator",
                  "integrator-conserved-zeta": "rotator"},
                 id="rotator-map-c-without-q-squared-term"),
    # The suite's established run, 200 steps a period over 10 periods,
    # needs the rescale: without it the monitors and the zeta drift exceed
    # their tolerances.
    pytest.param(rotator, "_project", lambda x, a: x,
                 {"integrator-constraint-monitors": "rotator",
                  "integrator-conserved-zeta": "rotator"},
                 id="rotator-projection-without-rescale"),
    # A radius off by 1e-11 moves the static pair by 1e-11 a against the
    # check's 1e-12.  The established run's monitors allow x.x + a^2 up to
    # 1e-8 a^2, so they pass it.
    pytest.param(rotator, "_project", radius_off_by_1e11(rotator._project),
                 {"static-threshold-motion": "rotator"},
                 id="rotator-projection-radius-off-by-1e-11"),
    pytest.param(algebra, "bilinears_closed_form", s0_negated(algebra.bilinears_closed_form),
                 {"bilinear-equivalence": "algebra"},
                 id="algebra-closed-form-S0-negated"),
    pytest.param(particle, "q_gradient", negated(particle.q_gradient),
                 {"momentum-conservation": "particle",
                  "boosted-momentum-covariance": "particle"},
                 id="particle-q-gradient-negated"),
    pytest.param(rotator, "rigidity", at_half_radius(rotator.rigidity),
                 {"rigidity-grand-consistency": "consistency",
                  "helix-rotator-identification": "consistency",
                  "rigidity-spot-values": "consistency"},
                 id="rotator-rigidity-at-half-radius"),
    pytest.param(particle, "observables_from_zeta",
                 speed_without_root_plus_one(particle.observables_from_zeta),
                 {"observable-dual-forms": "particle"},
                 id="particle-zeta-speed-without-root-plus-one"),
    pytest.param(particle, "xi_rate", negated(particle.xi_rate),
                 {"spin-equation-z-independence": "appendixC"},
                 id="particle-xi-rate-negated"),
    pytest.param(covariant, "split_derivative", split_without_parallel_part,
                 {"derivative-splitting": "appendixB"},
                 id="covariant-split-without-parallel-part"),
    pytest.param(algebra, "n_from_xi", z_negated(algebra.n_from_xi),
                 {"n-from-xi-inversion": "algebra"},
                 id="algebra-n-from-xi-z-negated"),
    pytest.param(rotator.RotatorClosedForm, "state", p_negated(rotator.RotatorClosedForm.state),
                 {"closed-form-dynamics": "rotator"},
                 id="rotator-closed-form-p-negated"),
    pytest.param(rotator.RotatorParams, "omega0", property(omega0_without_P0),
                 {"subluminal-speed": "rotator"},
                 id="rotator-omega0-without-P0"),
    pytest.param(rotator.RotatorParams, "omega0", off_by_1e9(rotator.RotatorParams.omega0),
                 {"helix-rotator-identification": "consistency"},
                 id="rotator-omega0-off-by-1e-9"),
    pytest.param(rotator, "mass_increase", mass_increase_unsquared,
                 {"mass-increase-values": "rotator"},
                 id="rotator-mass-increase-unsquared"),
    pytest.param(rotator, "rigidity", negated(rotator.rigidity),
                 {"rigidity-monotone": "rotator"},
                 id="rotator-rigidity-negated"),
    pytest.param(covariant.CovariantAux, "from_state",
                 q_over_norm2(covariant.CovariantAux.from_state),
                 {"auxiliary-unit-vectors": "appendixB"},
                 id="covariant-aux-q-over-norm2"),
    pytest.param(particle, "_y_rate", y_rate_of_spatial_velocity(particle._y_rate),
                 {"helix-reduced-system": "particle"},
                 id="particle-y-rate-of-spatial-velocity"),
    pytest.param(particle.WorldlineState, "y", property(y_over_sqrt_xdot0),
                 {"helix-y-constraints": "particle",
                  "helix-reduced-system": "particle"},
                 id="particle-y-without-one-plus"),
    pytest.param(particle, "helix_solution", w0_sign_lost(particle.helix_solution),
                 {"momentum-rest-frame": "particle",
                  "helix-w0-relation": "particle",
                  "helix-reduced-system": "particle"},
                 id="particle-helix-w0-sign-lost"),
    # The lab frequency omega / (b+1) has no check of its own: every check
    # that reads the helix's motion sees its tau frequency.
    pytest.param(particle, "helix_solution", omega_off_by_1e9(particle.helix_solution),
                 {"helix-reduced-system": "particle",
                  "momentum-conservation": "particle",
                  "momentum-rest-frame": "particle",
                  "relativized-mass": "particle",
                  "boosted-momentum-covariance": "particle"},
                 id="particle-helix-omega-off-by-1e-9"),
    pytest.param(particle, "relativize", mass_without_sqrt,
                 {"relativized-mass": "particle"},
                 id="particle-relativize-without-sqrt"),
    pytest.param(particle, "xi_equation_check",
                 full_residual_squared(particle.xi_equation_check),
                 {"spin-equation-linear-sensitivity": "appendixC"},
                 id="particle-xi-full-residual-squared"),
    pytest.param(rotator, "rr_to_dcr", m_dcr_without_sqrt(rotator.rr_to_dcr),
                 {"identification-roundtrip": "consistency",
                  "identification-spot-values": "consistency"},
                 id="rotator-rr-to-dcr-m-dcr-without-sqrt"),
    # The four algebra identities on exact matrices read 0.0 at seed 42;
    # each row replaces one constant that the algebra suite and the
    # algebra functions read at call time.  A sign flip of one block of a
    # gamma^k would make gamma^0 gamma^k anti-Hermitian, so bilinears_matrix
    # would raise on imaginary parts and stop the suite; a gamma^3 built
    # from sigma_1 keeps every bilinear real.
    pytest.param(algebra, "GAMMA", gamma3_of_sigma1(),
                 {"gamma-anticommutation": "algebra",
                  "gamma5-spin-relations": "algebra",
                  "bilinear-equivalence": "algebra"},
                 id="algebra-gamma3-of-sigma1"),
    pytest.param(algebra, "SIGMA", -algebra.SIGMA,
                 {"pauli-relation": "algebra",
                  "gamma5-spin-relations": "algebra",
                  "projector-proper-form": "algebra",
                  "bilinear-equivalence": "algebra"},
                 id="algebra-sigma-negated"),
    pytest.param(algebra, "GAMMA5", -algebra.GAMMA5,
                 {"gamma5-spin-relations": "algebra",
                  "bilinear-equivalence": "algebra"},
                 id="algebra-gamma5-negated"),
    pytest.param(algebra, "_PI_LEFT", 0.25 * (np.eye(4) - algebra.GAMMA[0]),
                 {"projector-proper-form": "algebra",
                  "projector-relations": "algebra",
                  "bilinear-equivalence": "algebra"},
                 id="algebra-projector-of-lower-components"),
]


# Mutations that stop their suite with a DomainError before it records any
# check: the suite fails closed, and ``verify`` exits 2.
STOPS = [
    # At b = 0.1, helix-rotator-identification builds the rotator with
    # P0 = M = 0.909 m, below 2 m0 = 1.408 m.
    pytest.param(rotator, "dcr_to_rr", m0_without_plus_one(rotator.dcr_to_rr),
                 "consistency", SubThresholdError,
                 id="rotator-dcr-to-rr-m0-without-plus-one"),
    # The closed-form start then has p.p off its target by 8e-9 m0^2, which
    # the integrator's initial-state guard refuses.
    pytest.param(rotator.RotatorParams, "omega", off_by_1e9(rotator.RotatorParams.omega),
                 "rotator", DomainError,
                 id="rotator-omega-off-by-1e-9"),
]


# Mutations that no check of their suite sees yet, each with the reason.
# Each row is a strict xfail: once a check fails under the mutation, the
# row passes, strict turns that into a failure, and the row moves to
# MUTATIONS with the check that now sees it.
UNSEEN = [
    pytest.param(rotator, "zeta_vector", zeta_with_p_and_P_swapped, "rotator",
                 id="rotator-zeta-slots-swapped",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "integrator-conserved-zeta compares zeta with its own "
                     "start value, so a flipped sign cancels; no check "
                     "compares zeta with the closed form"))),
    pytest.param(particle, "momentum", raised_index(particle.momentum), "particle",
                 id="particle-momentum-raised-index",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "the suite's helix is at rest, where the spatial momentum "
                     "is roundoff (at most 3e-13), so the raised index flips "
                     "only its sign; the one residual that moves, "
                     "boosted-momentum-covariance, goes from 1.47e-13 to "
                     "1.52e-13 against 1e-10"))),
]


@pytest.mark.parametrize("module, name, mutant, must_fail", MUTATIONS)
def test_mutation_fails_its_checks(monkeypatch, module, name, mutant, must_fail):
    monkeypatch.setattr(module, name, mutant)
    records = {}
    for suite in set(must_fail.values()):
        records.update((r.check_id, r) for r in run_suite(suite, RunConfig(seed=42)).records)
    for check_id in must_fail:
        rec = records[check_id]
        assert not rec.passed, f"{check_id} passed at {rec.residual!r} <= {rec.tolerance!r}"


@pytest.mark.parametrize("module, name, mutant, suite, error", STOPS)
def test_mutation_stops_its_suite(monkeypatch, module, name, mutant, suite, error):
    monkeypatch.setattr(module, name, mutant)
    with pytest.raises(error):
        run_suite(suite, RunConfig(seed=42))


@pytest.mark.parametrize("module, name, mutant, suite", UNSEEN)
def test_unseen_mutation_fails_a_check(monkeypatch, module, name, mutant, suite):
    monkeypatch.setattr(module, name, mutant)
    records = run_suite(suite, RunConfig(seed=42)).records
    passed = [f"{r.check_id} {r.residual!r} <= {r.tolerance!r}" for r in records if r.passed]
    assert len(passed) < len(records), "every check passed:\n" + "\n".join(passed)
