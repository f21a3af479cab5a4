"""Classical Dirac particle: worldline Lagrangian, momentum, helix solution.

The worldline action (proper-time parameter tau, metric +---) is

    L = -m sqrt(xdot.xdot) + hbar (xidot x xi).z / (2 (1 + xi.z))
        + (hbar/2) Q (xdot_sp x xddot_sp).xi

with Q = 1 / (sqrt(xdot.xdot) (sqrt(xdot.xdot) + xdot^0)).  Its conserved
momentum P_i (lower index; P_0 is negative for positive energy) is evaluated
exactly, and the reduced first-order system in y = xdot_sp / sqrt(1 + xdot^0)
is solved in closed form: a helix of radius

    a = hbar (b+1) sqrt(b (b+2)) / (2 m c),   b = y^2 = const >= 0

whose observables (total mass, speed, lab angular velocity) exist in two
algebraically equivalent parametrizations, by b and by the rapidity beta
with sinh(2 beta) = 4 a m c / hbar.  Trajectory machinery works in units
with c = 1 (x^0 is time); only the observable formulas carry an explicit c.
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import _check_unit3, require_off_antipode
from .errors import DomainError, SingularDenominatorError, require_positive
from .minkowski import F_REST, as4, cross3, eps4, eps4_free, lower, mdot

#: The constant axis z of the spin term.
Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class DcParams:
    """Mass, quantum constant and speed of light."""

    m: float
    hbar: float
    c: float = 1.0

    def __post_init__(self):
        require_positive(m=self.m, hbar=self.hbar, c=self.c)
        require_positive(**{"length scale hbar/(m c)": self.lam})

    @property
    def lam(self) -> float:
        """Length scale hbar / (m c); inf where m c underflows to 0."""
        mc = self.m * self.c
        return self.hbar / mc if mc > 0.0 else math.inf


@dataclass(frozen=True)
class WorldlineState:
    """One point of a worldline jet: velocity, acceleration, spin axis.

    The Lagrangian never reads the position, so the jet carries none.
    xdot and xddot must be finite 4-vectors and xi a unit 3-vector, or
    construction raises DomainError.
    """

    xdot: np.ndarray
    xddot: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        for name in ("xdot", "xddot"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (4,) or not np.isfinite(v).all():
                raise DomainError(f"{name} must be a finite 4-vector, got {v!r}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "xi", _check_unit3(self.xi, "xi"))

    @property
    def y(self) -> np.ndarray:
        """Reduced velocity xdot_sp / sqrt(1 + xdot^0)."""
        return self.xdot[1:] / np.sqrt(1.0 + self.xdot[0])


def q_factor(xdot, f=None):
    """Q(xdot; f) = 1 / (sqrt(xdot.xdot) (xdot.f + sqrt(xdot.xdot)))."""
    xdot = np.asarray(xdot, dtype=float)
    # On Python floats an overflow gives inf and inf - inf NaN, with no warning.
    ss = mdot(xdot.tolist(), xdot.tolist())
    if not 0.0 < ss < math.inf:
        raise DomainError(f"worldline velocity must be finite and timelike, "
                          f"got xdot.xdot = {ss!r}")
    s = np.sqrt(ss)
    xf = xdot[0] if f is None else mdot(xdot.tolist(), np.asarray(f, dtype=float).tolist())
    denom = s + xf
    if not 1e-9 <= denom < math.inf:
        raise SingularDenominatorError(
            f"sqrt(xdot.xdot) + xdot.f = {denom!r} is below tolerance or not finite")
    return 1.0 / (s * denom)


def q_gradient(xdot, f):
    """Lower-index gradient dQ/dxdot^i."""
    xdot = np.asarray(xdot, dtype=float)
    f = np.asarray(f, dtype=float)
    q = q_factor(xdot, f)
    s = np.sqrt(mdot(xdot, xdot))
    xf = mdot(xdot, f)
    xlow = lower(xdot)
    flow = lower(f)
    return -q * q * (2.0 * xlow + xlow * (xf / s) + s * flow)


def _finite3(v, name):
    """v as a finite float 3-vector, or DomainError."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise DomainError(f"{name} must be a finite 3-vector, got {v!r}")
    return v


def _spin_term(xi, xidot, z):
    one_plus = require_off_antipode(1.0 + float(np.dot(xi, z)))
    return float(np.dot(cross3(xidot, xi), z)) / (2.0 * one_plus)


def lagrangian_dc(s: WorldlineState, p: DcParams, xidot=None) -> float:
    """Worldline Lagrangian in the three-dimensional form."""
    xidot = np.zeros(3) if xidot is None else _finite3(xidot, "xidot")
    ss = mdot(s.xdot, s.xdot)
    q = q_factor(s.xdot)
    orbit = 0.5 * q * float(np.dot(cross3(s.xdot[1:], s.xddot[1:]), s.xi))
    return (-p.m * np.sqrt(ss)
            + p.hbar * _spin_term(s.xi, xidot, Z_AXIS)
            + p.hbar * orbit)


def lagrangian_dc_covariant(s: WorldlineState, p: DcParams, xidot=None) -> float:
    """Same Lagrangian through 4-dimensional epsilon contractions.

    The spin and orbit terms place the frame vector in the slot that makes
    them reduce to the three-dimensional form at f = F_REST: the spin term
    contracts (xi, xidot, f, z) and the orbit term (xdot, xddot, xi, f).
    """
    xidot = np.zeros(3) if xidot is None else _finite3(xidot, "xidot")
    xi4 = as4(0.0, s.xi)
    xidot4 = as4(0.0, xidot)
    z4 = as4(0.0, Z_AXIS)
    ss = mdot(s.xdot, s.xdot)
    denom = 2.0 * (1.0 - mdot(xi4, z4))
    # Its own guard, not a return through require_off_antipode: the
    # particle-antipodal-guard-scaled row of tests/test_sensitivity.py would
    # then scale both Lagrangian forms alike and stop failing.
    if denom < 2e-9:
        raise SingularDenominatorError("1 - xi.z (4d) below tolerance")
    q = q_factor(s.xdot, F_REST)
    return (-p.m * np.sqrt(ss)
            - p.hbar * eps4(xi4, xidot4, F_REST, z4) / denom
            - 0.5 * p.hbar * q * eps4(s.xdot, s.xddot, xi4, F_REST))


def momentum_covariant(xdot, xddot, xi4, xidot4, p: DcParams, f) -> np.ndarray:
    """Momentum P_i (lower components) for an arbitrary frame vector f.

    P_i = dL/dxdot^i - d/dtau (dL/dxddot^i) of the covariant Lagrangian;
    the derivative of the orbit term expands through the acceleration and
    the spin rate, nothing higher.  Raw 4-vectors, not a WorldlineState: a
    boosted spin axis xi4 has a time part.  DomainError unless all five are
    finite.
    """
    vecs = [np.asarray(v, dtype=float) for v in (xdot, xddot, xi4, xidot4, f)]
    if not all(np.isfinite(v).all() for v in vecs):
        raise DomainError(f"momentum_covariant needs finite 4-vectors, got {vecs!r}")
    xdot, xddot, xi4, xidot4, f = vecs

    s_norm = np.sqrt(mdot(xdot, xdot))
    q = q_factor(xdot, f)
    gq = q_gradient(xdot, f)
    qdot = float(gq @ xddot)
    w_f = eps4(xdot, xddot, xi4, f)

    out = -p.m * lower(xdot) / s_norm
    out -= 0.5 * p.hbar * w_f * gq
    out -= 0.5 * p.hbar * q * eps4_free(0, xddot, xi4, f)
    out += 0.5 * p.hbar * (qdot * eps4_free(1, xdot, xi4, f)
                           + q * eps4_free(1, xddot, xi4, f)
                           + q * eps4_free(1, xdot, xidot4, f))
    return out


def momentum(s: WorldlineState, xidot, p: DcParams) -> np.ndarray:
    """Conserved momentum P_i (lower components) with f = F_REST."""
    xidot = np.asarray(xidot, dtype=float)
    return momentum_covariant(s.xdot, s.xddot, as4(0.0, s.xi),
                              as4(0.0, xidot), p, F_REST)


def boost_matrix(velocity) -> np.ndarray:
    """Pure Lorentz boost (upper-index action) carrying the rest frame to
    one moving with the given 3-velocity, |velocity| < 1."""
    v = np.asarray(velocity, dtype=float)
    v2 = float(v @ v)
    if not v2 < 1.0:
        raise DomainError(f"boost velocity must satisfy |v| < 1, got v.v = {v2!r}")
    gamma = 1.0 / np.sqrt(1.0 - v2)
    lam = np.eye(4)
    lam[0, 0] = gamma
    lam[0, 1:] = lam[1:, 0] = gamma * v
    if v2 > 0:
        lam[1:, 1:] += (gamma - 1.0) * np.outer(v, v) / v2
    return lam


def relativize(P):
    """Unit 4-velocity and mass from a timelike momentum: u_i = -P_i / M."""
    P = np.asarray(P, dtype=float)
    pp = mdot(P.tolist(), P.tolist())  # on Python floats, as in q_factor
    if not 0.0 < pp < math.inf:
        raise DomainError(f"momentum must be finite and timelike, got P.P = {pp!r}")
    M = np.sqrt(pp)
    return -P / M, float(M)


class HelixObservables(NamedTuple):
    m_dcr: float
    a_dcr: float
    v: float
    omega_dcr: float
    zeta: float
    beta: float


def observables(b, p: DcParams) -> HelixObservables:
    """Helix observables in the b parametrization (c explicit).

    m_dcr = m/(b+1), a = lam (b+1) sqrt(b(b+2))/2, v = c sqrt(b(b+2))/(b+1),
    omega_dcr = 2 m c^2 / (hbar (b+1)^2), zeta = 4 a m c / hbar = sinh(2 beta).
    """
    if not b >= 0:
        raise DomainError("b must be nonnegative")
    try:
        root = np.sqrt(b * (b + 2.0))
        m_dcr = p.m / (b + 1.0)
        a_dcr = 0.5 * p.lam * (b + 1.0) * root
        v = p.c * root / (b + 1.0)
        omega_dcr = 2.0 * p.m * p.c ** 2 / (p.hbar * (b + 1.0) ** 2)
        zeta = 4.0 * a_dcr * p.m * p.c / p.hbar
        beta = np.arccosh(b + 1.0)
        obs = HelixObservables(m_dcr, a_dcr, v, omega_dcr, zeta, float(beta))
        if all(map(math.isfinite, obs)):
            return obs
    except OverflowError:
        pass
    raise DomainError(f"helix observables overflow at b = {b!r}")


def observables_from_zeta(zeta, p: DcParams) -> HelixObservables:
    """The same observables in the zeta / rapidity parametrization."""
    if not zeta >= 0:
        raise DomainError(f"zeta must be nonnegative, got {zeta!r}")
    try:
        root = np.sqrt(1.0 + zeta ** 2)
        beta = 0.5 * np.arcsinh(zeta)
        m_dcr = p.m * np.sqrt(2.0) / np.sqrt(root + 1.0)
        a_dcr = zeta * p.hbar / (4.0 * p.m * p.c)
        v = p.c * zeta / (root + 1.0)
        omega_dcr = 4.0 * p.m * p.c ** 2 / (p.hbar * (root + 1.0))
        obs = HelixObservables(float(m_dcr), float(a_dcr), float(v),
                               float(omega_dcr), float(zeta), float(beta))
        if all(map(math.isfinite, obs)):
            return obs
    except OverflowError:
        pass
    raise DomainError(f"helix observables overflow at zeta = {zeta!r}")


@dataclass(frozen=True)
class HelixSolution:
    """Closed-form helix worldline and all derived observables.

    Signs: omega = -2/(lam (b+1)) is the angular velocity of y in tau, and
    omega/(b+1) the signed lab angular velocity, whose size the observables
    report as omega_dcr.  The spin axis xi is constant along the rotation axis.
    """

    b: float
    phase: float
    w0: float
    omega: float
    obs: HelixObservables

    @property
    def xi(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0])

    @property
    def tau_period(self) -> float:
        if self.omega == 0.0:
            raise DomainError("static worldline (b = 0) has no period")
        return 2.0 * np.pi / abs(self.omega)

    def state(self, tau) -> WorldlineState:
        b = self.b
        th = self.omega * tau + self.phase
        root = np.sqrt(b * (b + 2.0))
        cs, sn = np.cos(th), np.sin(th)
        xdot = as4(b + 1.0, root * np.array([cs, sn, 0.0]))
        xddot = as4(0.0, root * self.omega * np.array([-sn, cs, 0.0]))
        return WorldlineState(xdot=xdot, xddot=xddot, xi=self.xi)

    def position_at_time(self, t) -> np.ndarray:
        """Spatial position as a function of coordinate time x^0 = t.

        Shape (3,) for one time, (n, 3) for an array of n times.  The z
        column is (root/omega) * 0.0 on every row, so its zero carries the
        sign of root/omega.
        """
        tau = np.asarray(t, dtype=float) / (self.b + 1.0)
        out = np.zeros(np.shape(tau) + (3,))
        if self.omega != 0.0:
            th = self.omega * tau + self.phase
            k = np.sqrt(self.b * (self.b + 2.0)) / self.omega
            out[..., 0] = k * np.sin(th)
            out[..., 1] = k * -np.cos(th)
            out[..., 2] = k * 0.0
        return out


def helix_solution(b, phase, p: DcParams) -> HelixSolution:
    """Closed-form solution of the reduced system with y^2 = b."""
    obs = observables(b, p)
    w0 = -1.0 / (b + 1.0)
    omega = (-(1.0 - w0) / (b + 2.0) + w0) / p.lam
    return HelixSolution(
        b=float(b), phase=float(phase), w0=w0,
        omega=float(omega), obs=obs,
    )


def reduced_residuals(s: WorldlineState, ydot, w0, p: DcParams):
    """Residuals of the reduced first-order system at one jet point.

    Returns (r1, r2, r3): the vector equation residual, the scalar equation
    residual, and the time-gauge residual xdot^0 - (y^2 + 1).
    """
    y, xi = s.y, s.xi
    ydot = _finite3(ydot, "ydot")
    lam = p.lam
    y2 = float(np.dot(y, y))
    r1 = lam * cross3(ydot, xi + 0.5 * y * float(np.dot(y, xi))) \
        + y * ((1.0 - w0) / (y2 + 2.0) - w0)
    r2 = lam * float(np.dot(ydot, cross3(y, xi))) \
        - 2.0 * (1.0 - (1.0 - w0) / (y2 + 2.0))
    r3 = s.xdot[0] - (y2 + 1.0)
    return r1, float(r2), float(r3)


def xi_rate(s: WorldlineState):
    """The z-free spin equation: xidot = -(xdot_sp x xddot_sp) x xi Q."""
    q = q_factor(s.xdot)
    return -cross3(cross3(s.xdot[1:], s.xddot[1:]), s.xi) * q


def xi_equation_check(s: WorldlineState, xidot, z, hbar=1.0):
    """Residuals of the full spin equation and of its z-free reduction.

    The full equation is the constrained variation of the Lagrangian in xi:
    xi x E = 0 with E = dL/dxi - d/dtau dL/dxidot.  Returns
    (|xi x E|_max, |xidot - xi_rate|_max).  When xidot solves the reduced
    equation the full residual vanishes for every unit z.
    """
    xi = s.xi
    xidot = np.asarray(xidot, dtype=float)
    z = _check_unit3(z, "z")
    if not abs(float(np.dot(xi, xidot))) <= 1e-10:
        raise DomainError("xidot must be tangent to the unit sphere (xi.xidot = 0)")
    one_plus = require_off_antipode(1.0 + float(np.dot(z, xi)))

    q = q_factor(s.xdot)
    w = q * cross3(s.xdot[1:], s.xddot[1:])
    e_vec = 0.5 * hbar * (
        2.0 * cross3(z, xidot) / one_plus
        + (float(np.dot(xidot, z)) * cross3(xi, z)
           - float(np.dot(cross3(xidot, xi), z)) * z) / one_plus ** 2
        + w
    )
    res_full = float(np.abs(cross3(xi, e_vec)).max())
    res_reduced = float(np.abs(xidot - xi_rate(s)).max())
    return res_full, res_reduced


def integrate_xi_along_helix(sol: HelixSolution, steps=2000):
    """RK4-integrate the spin equation over one period; returns max drift.

    The closed form asserts xi = const; this integrates xidot = (y x ydot) x xi
    from xi(0) = (0,0,1) and reports the largest deviation, an independent
    confirmation rather than an assumption.

    One w = y x ydot, with y of ``sol.state(0.0)`` and ydot of ``_y_rate``,
    serves every step: y and ydot turn together in the xy-plane at fixed
    lengths and at a right angle, so w lies on z with a size that does not
    depend on tau.  RK4 on the constant-rate system
    xidot = W xi, W = (w x), is then exactly sum_{k<=4} (h W)^k / k!, and
    (h W)^3 = -|h w|^2 h W collapses it to the map I + g h W + e (h W)^2 with
    q = -|h w|^2, g = 1 + q/6 and e = 1/2 + q/24.  w is multiplied by h
    once, so neither h^2 nor |w|^2 is formed: h |w| = 2 pi b / steps is
    unit-free.  The map runs on Python floats and has no cos or sin, so it
    stays a route separate from the closed form.
    """
    if not isinstance(steps, numbers.Integral) or steps < 1:
        raise DomainError(f"steps must be an integer >= 1, got {steps!r}")
    if sol.b == 0.0:
        return 0.0
    h = float(sol.tau_period / steps)
    w0, w1, w2 = (h * cross3(sol.state(0.0).y, _y_rate(sol, 0.0))).tolist()
    q = -(w0 * w0 + w1 * w1 + w2 * w2)
    g = 1.0 + q / 6.0
    e = 0.5 + q / 24.0
    x0, x1, x2 = sol.xi.tolist()
    # Row 0 is the initial axis; the drift is reduced once at the end, so
    # a NaN from any step reaches it.
    rows = [(x0, x1, x2)]
    for _ in range(steps):
        u0, u1, u2 = w1 * x2 - w2 * x1, w2 * x0 - w0 * x2, w0 * x1 - w1 * x0
        v0, v1, v2 = w1 * u2 - w2 * u1, w2 * u0 - w0 * u2, w0 * u1 - w1 * u0
        x0, x1, x2 = x0 + g * u0 + e * v0, x1 + g * u1 + e * v1, x2 + g * u2 + e * v2
        rows.append((x0, x1, x2))
    return float(np.abs(np.array(rows) - sol.xi).max())


def _y_rate(sol: HelixSolution, tau):
    """ydot at a proper time tau, or shape (3, n) for an array of n times."""
    th = sol.omega * tau + sol.phase
    return np.sqrt(sol.b) * sol.omega * np.array(
        [-np.sin(th), np.cos(th), np.zeros_like(th)])
