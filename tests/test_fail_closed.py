"""A NaN or an overflow anywhere must fail a check or raise DomainError."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from dirac_disquant import algebra, covariant, particle, rotator
from dirac_disquant.algebra import SpinorParams, build_gamma_basis, spin_from_xi
from dirac_disquant.cli import main
from dirac_disquant.errors import (
    DomainError,
    LightlikeFluxError,
    NumericConsistencyError,
    SingularDenominatorError,
    StabilityError,
    StepSizeError,
)
from dirac_disquant.minkowski import F_REST, mdot
from dirac_disquant.particle import DcParams, helix_solution, observables_from_zeta
from dirac_disquant.report import RunConfig
from dirac_disquant.rotator import RotatorParams
from dirac_disquant.verification import _worst, run_suite

NAN = float("nan")
INF = float("inf")
P_UNIT = DcParams(m=1.0, hbar=1.0)


class TestWorst:
    def test_nan_in_the_middle_propagates(self):
        assert math.isnan(_worst([0.1, NAN, 0.2]))

    def test_nan_inside_a_tuple_or_array_propagates(self):
        assert math.isnan(_worst([(0.1, 0.2), (0.3, NAN)]))
        assert math.isnan(_worst([0.1, np.array([[0.2, NAN]])]))

    def test_mixed_parts(self):
        assert _worst([(0.1, 0.3), np.array([[0.2, 0.5]]), 0.4]) == 0.5


def test_nan_mass_increase_fails_consistency(monkeypatch, tmp_path):
    monkeypatch.setattr(rotator, "mass_increase", lambda v, c=1.0: NAN)
    out = tmp_path / "r.json"
    assert main(["verify", "consistency", "--out", str(out)]) == 1
    passed = {c["id"]: c["passed"] for c in json.loads(out.read_text())["checks"]}
    assert not passed["helix-rotator-identification"]
    assert not passed["rigidity-grand-consistency"]


def test_nan_oracle_call_fails_regularization_check(monkeypatch):
    original = covariant.f3_without_inner_factor
    calls = []

    def seventh_call_nan(*args, **kwargs):
        calls.append(None)
        return NAN if len(calls) == 7 else original(*args, **kwargs)

    monkeypatch.setattr(covariant, "f3_without_inner_factor", seventh_call_nan)
    report = run_suite("appendixB", RunConfig(seed=42))
    rec = next(r for r in report.records
               if r.check_id == "spin-term-regularization-invariance")
    assert math.isnan(rec.residual)
    assert not rec.passed


def test_nan_rotator_step_trips_step_guard(monkeypatch):
    monkeypatch.setattr(rotator, "_rk4_step", lambda *state_k: (NAN,) * 12)
    pr = RotatorParams(m0=1.0, a=1.0, P0=3.0)
    cf = rotator.RotatorClosedForm(pr)
    with pytest.raises(StepSizeError):
        rotator.integrate_rotator(pr, cf.state(0.0), 10, cf.tau_period / 100)


def test_integrator_rejects_a_start_off_p_dot_x_zero():
    # x = (s, sqrt(a^2 + s^2), 0, 0) and p = (0, 0, -sqrt(P0^2 - 4 m0^2 +
    # a^2 nu^2), 0) at s = 0.1, so nu = P.x / (-a^2) = -0.283.  Its p.p
    # meets the target 4 m0^2 - P.P - a^2 nu^2 of a nonzero nu, so the
    # monitors refuse it: p.p by 8.0e-2 and Xdot.x = P.x / (4 m0) by 7.07e-2.
    pr = RotatorParams(m0=1.0, a=1.0, P0=2.0 * math.sqrt(2.0))
    nu = -pr.P0 * 0.1
    start = rotator.RotatorState(
        X=np.zeros(4), x=[0.1, math.sqrt(1.01), 0.0, 0.0],
        p=[0.0, 0.0, -math.sqrt(pr.P0 ** 2 - 4.0 + nu * nu), 0.0], P=[pr.P0, 0.0, 0.0, 0.0])
    mon = dict(zip(rotator.MONITOR_COLUMNS, rotator.constraint_monitors(start, pr)))
    assert mon["res_pp"] == pytest.approx(0.08, rel=1e-12)
    assert mon["res_Xdotx"] == pytest.approx(pr.P0 * 0.1 / 4.0, rel=1e-12)
    with pytest.raises(DomainError, match="violates the constraints"):
        rotator.integrate_rotator(pr, start, 10, 0.01)


def test_integrator_guard_rejects_a_small_p_dot_x():
    # P.x = 1e-11 passes the monitors (Xdot.x = P.x / (4 m0) = 2.5e-12
    # against 1e-10) but not the start guard, 1e-12 a max|P^i| = 2.8e-12.
    pr = RotatorParams(m0=1.0, a=1.0, P0=2.0 * math.sqrt(2.0))
    s = 1e-11 / pr.P0
    start = rotator.RotatorState(
        X=np.zeros(4), x=[s, math.sqrt(1.0 + s * s), 0.0, 0.0],
        p=[0.0, 0.0, -math.sqrt(pr.P0 ** 2 - 4.0), 0.0], P=[pr.P0, 0.0, 0.0, 0.0])
    assert mdot(start.P, start.x) == pytest.approx(1e-11, rel=1e-12)
    assert np.max(rotator.constraint_monitors(start, pr)) <= 1e-10
    with pytest.raises(DomainError, match="P.x"):
        rotator.integrate_rotator(pr, start, 10, 0.01)


def test_integrator_accepts_a_boosted_start():
    # The closed-form start seen from a moving frame.  P.x is
    # Lorentz-invariant and 0 on this motion; the boost leaves roundoff,
    # 1.1e-16 at a = 1.
    pr = RotatorParams(m0=1.0, a=1.0, P0=2.0 * math.sqrt(2.0))
    lam = particle.boost_matrix([0.3, -0.2, 0.1])
    s = rotator.RotatorClosedForm(pr).state(0.0)
    start = rotator.RotatorState(X=lam @ s.X, x=lam @ s.x, p=lam @ s.p, P=lam @ s.P)
    assert 0.0 < abs(mdot(start.P, start.x)) < 1e-14
    traj = rotator.integrate_rotator(pr, start, 10, 0.01)
    assert np.isfinite(traj.states.x).all()


@pytest.mark.parametrize("steps", [-1, 2.5, 2.0, "3", None])
def test_bad_rotator_step_count_rejected(steps):
    # Unchecked, -1 raised numpy's "negative dimensions" and 2.5 a TypeError.
    pr = RotatorParams(m0=1.0, a=1.0, P0=3.0)
    cf = rotator.RotatorClosedForm(pr)
    with pytest.raises(DomainError, match="steps must be an integer >= 0"):
        rotator.integrate_rotator(pr, cf.state(0.0), steps, cf.tau_period / 100)


@pytest.mark.parametrize("steps", [0, np.int64(3)])
def test_integer_rotator_step_counts_accepted(steps):
    pr = RotatorParams(m0=1.0, a=1.0, P0=3.0)
    cf = rotator.RotatorClosedForm(pr)
    traj = rotator.integrate_rotator(pr, cf.state(0.0), steps, cf.tau_period / 100)
    assert traj.states.x.shape == (steps + 1, 4)
    assert np.isfinite(rotator.constraint_monitors(traj.states, pr)).all()


@pytest.mark.parametrize("b", [0.0, 1.0])
@pytest.mark.parametrize("steps", [0, -1, 2.5, 100.0])
def test_bad_spin_step_count_rejected(b, steps):
    # Unchecked, 0 divided by zero and -1 gave a drift of 0.0 from no step.
    with pytest.raises(DomainError, match="steps must be an integer >= 1"):
        particle.integrate_xi_along_helix(helix_solution(b, 0.0, P_UNIT), steps)


NON_FINITE = [
    (DcParams, dict(m=NAN, hbar=1.0)),
    (DcParams, dict(m=1.0, hbar=INF)),
    (DcParams, dict(m=1.0, hbar=1.0, c=NAN)),
    (DcParams, dict(m=1e-320, hbar=1.0)),           # lam overflows
    (DcParams, dict(m=1e300, hbar=1e-300)),         # lam underflows to 0
    (helix_solution, dict(b=1e200, phase=0.0, p=P_UNIT)),  # observables overflow
    (RotatorParams, dict(m0=1.0, a=1.0, P0=NAN)),
    (RotatorParams, dict(m0=NAN, a=1.0, P0=3.0)),
    (RotatorParams, dict(m0=1.0, a=INF, P0=3.0)),
    (RotatorParams, dict(m0=1.0, a=1.0, P0=3.0, phase=NAN)),
    (RotatorParams, dict(m0=1e300, a=1e300, P0=3e300)),  # P0**2 overflows
    (RotatorParams, dict(m0=1e-320, a=1.0, P0=3.0)),     # omega overflows
    (RunConfig, dict(m=-3.0)),
    (RunConfig, dict(m=0.0)),
    (RunConfig, dict(m0=INF)),
    (RunConfig, dict(hbar=NAN)),
    (RunConfig, dict(c=0.0)),
]


@pytest.mark.parametrize(
    "factory, kwargs", NON_FINITE,
    ids=["-".join([f.__name__, *(f"{k}={v}" for k, v in kw.items())])
         for f, kw in NON_FINITE])
def test_constructors_reject_non_finite(factory, kwargs):
    with pytest.raises(DomainError):
        factory(**kwargs)


# One change per row to a good worldline jet.  Unchecked, each would reach
# the Lagrangians and the momentum in its own way: an IndexError, a
# ValueError, a result for a non-unit xi, NaN, a finite Lagrangian from an
# infinite acceleration, or no acceleration at all.
GOOD_JET = dict(xdot=[1.0, 0.0, 0.0, 0.0], xddot=[0.0, 0.3, -0.2, 0.1], xi=[0.0, 0.6, 0.8])
MALFORMED_JETS = {
    "xdot-3-components": dict(xdot=[1.0, 0.0, 0.0]),
    "xi-2-components": dict(xi=[0.6, 0.8]),
    "xi-squared-4": dict(xi=[0.0, 0.0, 2.0]),
    "xdot-nan": dict(xdot=[NAN, 0.0, 0.0, 0.0]),
    "xddot-inf": dict(xddot=[0.0, INF, 0.0, 0.0]),
    "xddot-None": dict(xddot=None),
}


@pytest.mark.parametrize("changes", MALFORMED_JETS.values(), ids=MALFORMED_JETS)
def test_worldline_state_rejects_malformed_jets(changes):
    with pytest.raises(DomainError):
        particle.WorldlineState(**{**GOOD_JET, **changes})


def test_worldline_state_holds_the_good_jet_as_float_arrays():
    st = particle.WorldlineState(**GOOD_JET)
    for name, value in GOOD_JET.items():
        got = getattr(st, name)
        assert got.dtype == float and got.tolist() == value
    assert math.isfinite(particle.lagrangian_dc(st, DcParams(m=1.0, hbar=1.0)))


@pytest.mark.parametrize("f", [None, F_REST], ids=["xdot0", "F_REST"])
def test_q_factor_rejects_nan_velocity(f):
    # Unchecked, ss <= 0 and denom < 1e-9 were both false for NaN, and Q was nan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            particle.q_factor([NAN, 0.0, 0.0, 0.0], f)


def test_q_factor_keeps_the_bits_of_its_array_form():
    # xdot.f on Python floats: the products and order of mdot on arrays.
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=3)
        xdot = np.concatenate(([np.sqrt(1.0 + v @ v)], v))
        u = 0.5 * rng.uniform(-1.0, 1.0, size=3) / np.sqrt(3.0)
        f = particle.boost_matrix(u)[:, 0]
        s = np.sqrt(xdot[0] * xdot[0] - xdot[1] * xdot[1] - xdot[2] * xdot[2]
                    - xdot[3] * xdot[3])
        xf = xdot[0] * f[0] - xdot[1] * f[1] - xdot[2] * f[2] - xdot[3] * f[3]
        for frame, dot in ((None, xdot[0]), (f, xf)):
            want = np.float64(1.0 / (s * (s + dot)))
            assert np.float64(particle.q_factor(xdot, frame)).tobytes() == want.tobytes()


def _good_jet():
    return particle.WorldlineState(**GOOD_JET)


# Non-finite raw arguments of the particle layer, and a non-unit axis z.
# Unchecked, each returned a number (Q = 0.0 for an infinite velocity, NaN,
# a NaN boost matrix, a residual for a non-unit z) or ran into a numpy
# RuntimeWarning.
RAW_ARGUMENTS = {
    "q_factor-inf": lambda: particle.q_factor([INF, 0.0, 0.0, 0.0]),
    "q_gradient-inf": lambda: particle.q_gradient([INF, 0.0, 0.0, 0.0], F_REST),
    "relativize-nan": lambda: particle.relativize([NAN, 0.0, 0.0, 0.0]),
    "relativize-inf": lambda: particle.relativize([INF, 0.0, 0.0, 0.0]),
    # inf^2 - inf^2 is NaN, and 1e200^2 overflows to inf before the same
    # subtraction: a RuntimeWarning inside numpy's Minkowski product.
    "q_factor-inf-inf": lambda: particle.q_factor([INF, INF, 0.0, 0.0]),
    "q_factor-overflow": lambda: particle.q_factor([1e200, 1e200, 0.0, 0.0]),
    "relativize-inf-inf": lambda: particle.relativize([INF, INF, 0.0, 0.0]),
    "relativize-overflow": lambda: particle.relativize([1e200, 1e200, 0.0, 0.0]),
    "boost_matrix-nan": lambda: particle.boost_matrix([NAN, 0.0, 0.0]),
    "lagrangian_dc-xidot-nan":
        lambda: particle.lagrangian_dc(_good_jet(), P_UNIT, xidot=[NAN, 0.0, 0.0]),
    "lagrangian_dc_covariant-xidot-nan":
        lambda: particle.lagrangian_dc_covariant(_good_jet(), P_UNIT, xidot=[NAN, 0.0, 0.0]),
    "xi_equation_check-xidot-nan":
        lambda: particle.xi_equation_check(_good_jet(), [NAN, 0.0, 0.0], [0.0, 0.0, 1.0]),
    "xi_equation_check-z-nan":
        lambda: particle.xi_equation_check(_good_jet(), np.zeros(3), [NAN, 0.0, 0.0]),
    "xi_equation_check-z-norm-2":
        lambda: particle.xi_equation_check(_good_jet(), np.zeros(3), [2.0, 0.0, 0.0]),
    "reduced_residuals-ydot-nan":
        lambda: particle.reduced_residuals(_good_jet(), [NAN, 0.0, 0.0], -0.5, P_UNIT),
    # An infinite frame vector: xdot.f = inf gave Q = 0.0, and inf - 0.5 inf
    # a RuntimeWarning inside numpy's Minkowski product.
    "q_factor-f-inf": lambda: particle.q_factor([1.0, 0.0, 0.0, 0.0], [INF, 0.0, 0.0, 0.0]),
    "q_factor-f-inf-inf":
        lambda: particle.q_factor([1.0, 0.5, 0.0, 0.0], [INF, INF, 0.0, 0.0]),
}


@pytest.mark.parametrize("call", RAW_ARGUMENTS.values(), ids=RAW_ARGUMENTS)
def test_particle_raw_arguments_fail_closed(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


# xdot, xddot, xi4, xidot4 and f of a finite momentum.  Unchecked, each row
# below ran into a numpy RuntimeWarning, from det, a multiply or a division.
GOOD_4VECTORS = ([1.0, 0.0, 0.0, 0.0], [0.0, 0.3, -0.2, 0.1], [0.0, 0.0, 0.6, 0.8],
                 [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
@pytest.mark.parametrize("slot", range(5), ids=["xdot", "xddot", "xi4", "xidot4", "f"])
def test_momentum_covariant_rejects_non_finite_vectors(slot, value):
    vecs = [np.array(v) for v in GOOD_4VECTORS]
    assert np.isfinite(particle.momentum_covariant(*vecs[:4], P_UNIT, vecs[4])).all()
    vecs[slot][0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            particle.momentum_covariant(*vecs[:4], P_UNIT, vecs[4])


POSITIVE_CONSTANTS = {
    "RunConfig": lambda v: RunConfig(m=v),
    "DcParams": lambda v: DcParams(m=1.0, hbar=v),
    "RotatorParams": lambda v: RotatorParams(m0=1.0, a=v, P0=3.0),
    "rigidity_domain_bound": lambda v: rotator.rigidity_domain_bound(1.0, 1.0, c=v),
    "dcr_to_rr": lambda v: rotator.dcr_to_rr(v, 1.0),
    "rr_to_dcr": lambda v: rotator.rr_to_dcr(v, 0.5),
}


@pytest.mark.parametrize("call", [
    *(pytest.param(lambda f=f, v=v: f(v), id=f"{name}-{v}")
      for name, f in POSITIVE_CONSTANTS.items() for v in (0.0, -1.0, NAN, INF)),
    # Positive inputs whose derived scale is not: hbar/(m c) overflows and
    # 4 m0 c underflows.
    pytest.param(lambda: DcParams(m=1e-320, hbar=1.0), id="DcParams-length-scale"),
    pytest.param(lambda: rotator.rigidity_domain_bound(1e-200, 1.0, 1e-200),
                 id="rigidity_domain_bound-bound"),
])
def test_positive_constants_share_one_guard(call):
    with pytest.raises(DomainError, match="must be finite and positive"):
        call()


@pytest.mark.parametrize("cls, base", [(NumericConsistencyError, ArithmeticError),
                                       (StepSizeError, RuntimeError),
                                       (StabilityError, RuntimeError)])
def test_errors_share_the_domain_error_root(cls, base):
    # The CLI catches DomainError and exits 2 for every one of them.
    assert issubclass(cls, DomainError) and issubclass(cls, base)


@pytest.mark.parametrize("field", ["n", "z"])
def test_nan_unit_vector_rejected_by_spinor_params(field):
    kwargs = dict(amplitude=1.0, kappa=0.0, phi=0.0, eta=np.zeros(3),
                  n=[0.0, 0.0, 1.0], z=[0.0, 0.0, 1.0])
    kwargs[field] = [NAN, 0.0, 0.0]
    with pytest.raises(DomainError):
        SpinorParams(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("amplitude", NAN), ("amplitude", INF), ("kappa", NAN), ("kappa", -INF),
    ("phi", NAN), ("phi", INF), ("eta", [NAN, 0.0, 0.0]), ("eta", [0.0, 0.0, -INF]),
])
def test_non_finite_parameter_rejected_by_spinor_params(field, value):
    # Unchecked, amplitude = nan gave an all-NaN flux and phi = inf a finite
    # scalar bilinear.
    kwargs = dict(amplitude=1.0, kappa=0.0, phi=0.0, eta=np.zeros(3),
                  n=[0.0, 0.0, 1.0], z=[0.0, 0.0, 1.0])
    kwargs[field] = value
    with pytest.raises(DomainError, match="must be finite"):
        SpinorParams(**kwargs)


@pytest.mark.parametrize("eta", [np.zeros((1, 3)), [0.1, 0.2], [0.1, 0.2, 0.3, 0.4], 0.5])
def test_rapidity_that_is_not_a_3_vector_rejected(eta):
    with pytest.raises(DomainError, match="eta must be a 3-vector"):
        SpinorParams(amplitude=1.0, kappa=0.0, phi=0.0, eta=eta,
                     n=[0.0, 0.0, 1.0], z=[0.0, 0.0, 1.0])


def _stack_kwargs():
    return dict(amplitude=np.ones(3), kappa=np.zeros(3), phi=np.zeros(3),
                eta=np.zeros((3, 3)), n=np.tile([0.0, 0.0, 1.0], (3, 1)),
                z=np.tile([0.0, 0.0, 1.0], (3, 1)))


@pytest.mark.parametrize("field, row, value, match", [
    ("amplitude", 1, NAN, "must be finite"), ("phi", 2, INF, "must be finite"),
    ("eta", 0, [0.0, NAN, 0.0], "must be finite"), ("amplitude", 2, -1.0, "nonnegative"),
    ("n", 1, [0.0, 0.0, 2.0], "unit vector"), ("z", 0, [NAN, 0.0, 0.0], "unit vector"),
])
def test_bad_row_of_a_spinor_params_stack_rejected(field, row, value, match):
    kwargs = _stack_kwargs()
    kwargs[field][row] = value
    with pytest.raises(DomainError, match=match):
        SpinorParams(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("kappa", np.zeros(2)), ("eta", np.zeros((2, 3))), ("n", np.zeros(3)),
    ("z", np.zeros((3, 4))),
])
def test_spinor_params_stack_of_mismatched_shapes_rejected(field, value):
    kwargs = _stack_kwargs()
    kwargs[field] = value
    with pytest.raises(DomainError):
        SpinorParams(**kwargs)


@pytest.mark.parametrize("z", [[NAN, 0.0, 0.0], [0.0, 0.0, NAN]])
def test_nan_axis_rejected_by_gamma_basis(z):
    with pytest.raises(DomainError):
        build_gamma_basis(z)


@pytest.mark.parametrize("call", [
    lambda: rotator.rigidity(NAN, 1.0),
    lambda: rotator.dcr_to_rr(1.0, NAN),
    lambda: observables_from_zeta(NAN, DcParams(m=1.0, hbar=1.0)),
    lambda: spin_from_xi([0.0, 0.0, 1.0], [NAN, 0.0, 0.0, 0.0], 1.0),
    lambda: spin_from_xi([0.0, 0.0, 1.0], np.zeros(4), 0.0),
    lambda: spin_from_xi(np.eye(3)[:2], [[2.0, 1.0, 0.0, 0.0], [0.0] * 4], [1.0, 0.0]),
], ids=["rigidity", "dcr_to_rr", "observables_from_zeta", "spin_from_xi-nan",
        "spin_from_xi-zero-flux", "spin_from_xi-zero-flux-row"])
def test_nan_argument_raises(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: spin_from_xi([0.0, 0.0, 1.0], np.zeros(4), 0.0),
     "spin_from_xi needs rho + j^0 > 0, got 0.0"),
    (lambda: spin_from_xi([0.0, 0.0, 1.0], [NAN, 0.0, 0.0, 0.0], 1.0),
     "spin_from_xi needs rho + j^0 > 0, got nan"),
    (lambda: spin_from_xi(np.eye(3), [[2.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                                      [0.0] * 4], [1.0, 0.5, 0.0]),
     "spin_from_xi needs rho + j^0 > 0, got -0.5 in row 1"),
], ids=["one-point", "one-point-nan", "stack"])
def test_spin_from_xi_names_the_first_bad_row_as_a_float(call, message):
    with pytest.raises(LightlikeFluxError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda: rotator.dcr_to_rr(1.0, 1e200),
    lambda: rotator.rr_to_dcr(1.0, 0.5, c=1e200),
    lambda: observables_from_zeta(1e200, DcParams(m=1.0, hbar=1.0)),
], ids=["dcr_to_rr", "rr_to_dcr", "observables_from_zeta"])
def test_overflowing_argument_raises(call):
    with pytest.raises(DomainError):
        call()


def test_rigidity_serves_an_hbar_whose_square_overflows():
    # hbar^2 overflows at hbar = 1e200, but gamma depends on u = 4 a m0 c /
    # hbar = 4e-201 alone: u^2/2 = 8e-402 rounds to 0.0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rotator.rigidity(0.1, 1.0, hbar=1e200) == 0.0


def _field(**changes):
    return dataclasses.replace(covariant.random_param_field(np.random.default_rng(3)),
                               **changes)


def _row_changed(name, index, value):
    arr = getattr(_field(), name).copy()
    arr[index] = value
    return {name: arr}


@pytest.mark.parametrize("changes", [
    {"z": [0.0, 0.0, 2.0]},
    {"z": [0.6, 0.8, 1e-4]},
    {"z": [NAN, 0.0, 1.0]},
    _row_changed("c0", 2, NAN),
    _row_changed("c1", (4, 1), INF),
    _row_changed("c2", (0, 1, 2), -INF),
    _row_changed("n0", 1, NAN),
    _row_changed("n_lin", (2, 3), INF),
], ids=["z-norm-2", "z-norm-off-1e-4", "z-nan", "c0-nan", "c1-inf", "c2-inf",
        "n0-nan", "n_lin-inf"])
def test_param_field_rejects_bad_arrays_at_construction(changes):
    # Before, such a field constructed, and kinetic_term_matrix, which reads
    # z from its basis, returned a number for a non-unit z.
    with pytest.raises(DomainError):
        _field(**changes)


def _antipodal(nz):
    # n . z = nz everywhere, so 1 + xi.z = 2 nz^2.
    return {"z": [0.0, 0.0, 1.0], "n0": [math.sqrt(1.0 - nz * nz), 0.0, nz],
            "n_lin": np.zeros((3, 4))}


def _rapidity(eta):
    fld = _field()
    c0, c1, c2 = fld.c0.copy(), fld.c1.copy(), fld.c2.copy()
    c0[3:] = (eta, 0.0, 0.0)
    c1[3:] = 0.0
    c2[3:] = 0.0
    return {"c0": c0, "c1": c1, "c2": c2}


def _amplitude(a):
    fld = _field()
    c0, c1, c2 = fld.c0.copy(), fld.c1.copy(), fld.c2.copy()
    c0[0], c1[0], c2[0] = a, 0.0, 0.0
    return {"c0": c0, "c1": c1, "c2": c2}


def _n_scaled(scale):
    # The raw n norm stays finite and its cube overflows.
    fld = _field()
    return {"n0": fld.n0 * scale, "n_lin": fld.n_lin * scale}


WALLS = [_antipodal(0.0), _antipodal(1e-8), _antipodal(2e-5),
         _rapidity(0.0), _rapidity(1e-300), _rapidity(9e-7),
         _amplitude(0.0), _amplitude(1e-300), _amplitude(1e-5),
         _n_scaled(1e110), _n_scaled(1e150)]


@pytest.mark.parametrize("changes", WALLS, ids=[
    "xi=-z", "xi.z+1=2e-16", "xi.z+1=8e-10", "eta=0", "eta=1e-300", "eta=9e-7",
    "amplitude=0", "amplitude=1e-300", "amplitude=1e-5", "n*1e110", "n*1e150"])
@pytest.mark.parametrize("call", [
    lambda fld, x: covariant.lagrangian_pieces(fld, x, 1.0, 1.0),
    lambda fld, x: covariant.f3_without_inner_factor(fld, x, 1.0),
], ids=["lagrangian_pieces", "f3_without_inner_factor"])
def test_one_point_kernels_raise_domain_error_at_the_walls(changes, call):
    # Only a DomainError subclass: no ValueError from math.sqrt, no
    # ZeroDivisionError from a float division, no numpy warning.
    fld = _field(**changes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (np.zeros(4), np.array([0.3, -0.2, 0.1, 0.4])):
            with pytest.raises(DomainError):
                call(fld, x)


# Each route computes 1 + xi.z itself and hands it to the one guard.
ANTIPODAL_SITES = [
    lambda xi, z: algebra.n_from_xi(xi, z),
    lambda xi, z: covariant.CovariantAux.from_state(np.array([1.0, 0.0, 0.0, 0.0]),
                                                    1.0, xi, z),
    lambda xi, z: particle.lagrangian_dc(
        particle.WorldlineState(xdot=[1.0, 0.0, 0.0, 0.0], xddot=np.zeros(4), xi=xi),
        DcParams(m=1.0, hbar=1.0), xidot=[0.0, 1.0, 0.0]),
    lambda xi, z: particle.xi_equation_check(
        particle.WorldlineState(xdot=[1.0, 0.0, 0.0, 0.0], xddot=np.zeros(4), xi=xi),
        [0.0, 1.0, 0.0], z),
]
ANTIPODAL_IDS = ["n_from_xi", "CovariantAux.from_state", "lagrangian_dc",
                 "xi_equation_check"]


def _xi_z(nz):
    """xi = 2 n (n.z) - z and z of the ``_antipodal(nz)`` field: 1 + xi.z = 2 nz^2.
    The spin rate (0, 1, 0) of the sites is tangent to every such xi."""
    wall = _antipodal(nz)
    n, z = np.array(wall["n0"]), np.array(wall["z"])
    return 2.0 * n * n.dot(z) - z, z


@pytest.mark.parametrize("nz", [0.0, 1e-8, 2e-5],
                         ids=["xi=-z", "xi.z+1=2e-16", "xi.z+1=8e-10"])
@pytest.mark.parametrize("call", ANTIPODAL_SITES, ids=ANTIPODAL_IDS)
def test_antipodal_wall_is_one_guard(call, nz):
    xi, z = _xi_z(nz)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularDenominatorError):
            call(xi, z)


@pytest.mark.parametrize("call", ANTIPODAL_SITES, ids=ANTIPODAL_IDS)
def test_antipodal_guard_accepts_twice_its_tolerance(call):
    xi, z = _xi_z(math.sqrt(algebra.XI_Z_TOL))
    assert 1.0 + xi.dot(z) == pytest.approx(2.0 * algebra.XI_Z_TOL, rel=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(xi, z)
