"""Every check must be able to fail: a table of named mutations.

Each row replaces one program function, as one module or class binds it,
by a plausible defect, and names the checks that must then fail at seed 42.
The rows were fixed before they were first run; a row whose check still
passes shows a check that cannot see the defect it guards against.  Such
rows are kept in ``UNSEEN``, with the reason no check sees them, until one
does.
"""

import dataclasses
import math
import types

import numpy as np
import pytest

from dirac_disquant import algebra, covariant, minkowski, particle, rotator
from dirac_disquant.minkowski import mdot
from dirac_disquant.report import RunConfig
from dirac_disquant.verification import run_suite


def scaled_guard(one_plus):
    """The antipodal guard, its returned 1 + xi.z off by a relative 1e-3."""
    return algebra.require_off_antipode(one_plus) * (1.0 + 1e-3)


def midpoint_step(X0, X1, X2, X3, x0, x1, x2, x3, p0, p1, p2, p3, nu, k):
    """A midpoint (RK2) step of the ``_rhs`` equations in place of RK4."""
    P, h2, dt = k[:4], k[9], k[11]
    params = types.SimpleNamespace(m0=k[4] / 4.0, a=math.sqrt(-k[6]))
    X, x, p = (X0, X1, X2, X3), (x0, x1, x2, x3), (p0, p1, p2, p3)
    _, xdot, pdot, _ = rotator._rhs(x, p, P, params)
    x_mid = [u + h2 * r for u, r in zip(x, xdot)]
    p_mid = [u + h2 * r for u, r in zip(p, pdot)]
    rates = rotator._rhs(x_mid, p_mid, P, params)[:3]
    return tuple(u + dt * r for y, rate in zip((X, x, p), rates) for u, r in zip(y, rate))


def projection_without(part):
    """``rotator._project`` in its array form with one part left out: the
    rescale of x onto x.x = -a^2, or the x or the P part of the momentum
    projection."""
    def project(x, prel, P, a):
        x, prel, P = np.array(x), np.array(prel), np.array(P)
        if part != "rescale":
            x = x * (a / math.sqrt(-mdot(x, x)))
        cx = 0.0 if part == "x" else mdot(prel, x) / mdot(x, x)
        cP = 0.0 if part == "P" else mdot(prel, P) / mdot(P, P)
        return x.tolist(), (prel - x * cx - P * cP).tolist()
    return project


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


def monitors_at_nu_zero(constraint_monitors):
    """The constraint monitors with the multiplier nu taken as 0."""
    def mutant(s, p):
        return constraint_monitors(dataclasses.replace(s, nu=np.zeros_like(s.nu)), p)
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
    pytest.param(rotator, "_rk4_step", midpoint_step,
                 {"integrator-vs-closed-form": "rotator"},
                 id="rotator-midpoint-step"),
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
]


# Mutations that no check of their suite sees yet, each with the reason.
# Each row is a strict xfail: once a check fails under the mutation, the
# row passes, strict turns that into a failure, and the row moves to
# MUTATIONS with the check that now sees it.
UNSEEN = [
    pytest.param(rotator, "_project", projection_without("rescale"), "rotator",
                 id="rotator-projection-without-rescale",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "RK4 at dt = period/2000 keeps x.x + a^2 near 1e-13 a^2 "
                     "without the rescale, and the monitors allow 1e-8"))),
    pytest.param(rotator, "_project", projection_without("x"), "rotator",
                 id="rotator-projection-without-x-part",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "RK4 keeps p.x near 1e-14 without the projection, and "
                     "the monitors allow 1e-8"))),
    pytest.param(rotator, "_project", projection_without("P"), "rotator",
                 id="rotator-projection-without-P-part",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "the suite starts in the rest frame of P with p^0 = 0, "
                     "which RK4 keeps exactly, so the P part removes nothing"))),
    pytest.param(rotator, "zeta_vector", zeta_with_p_and_P_swapped, "rotator",
                 id="rotator-zeta-slots-swapped",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "integrator-conserved-zeta compares zeta with its own "
                     "start value, so a flipped sign cancels; no check "
                     "compares zeta with the closed form"))),
    pytest.param(rotator, "constraint_monitors",
                 monitors_at_nu_zero(rotator.constraint_monitors), "rotator",
                 id="rotator-monitors-at-nu-zero",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "the suite starts in the rest frame of P, where "
                     "nu = P.x / (-a^2) is exactly 0.0 at every step, so "
                     "taking nu as 0 changes no monitor"))),
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


@pytest.mark.parametrize("module, name, mutant, suite", UNSEEN)
def test_unseen_mutation_fails_a_check(monkeypatch, module, name, mutant, suite):
    monkeypatch.setattr(module, name, mutant)
    records = run_suite(suite, RunConfig(seed=42)).records
    passed = [f"{r.check_id} {r.residual!r} <= {r.tolerance!r}" for r in records if r.passed]
    assert len(passed) < len(records), "every check passed:\n" + "\n".join(passed)
