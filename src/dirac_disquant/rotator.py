"""Relativistic rotator: two equal masses in established rotation.

Center/relative variables X = (x1 + x2)/2, x = (x1 - x2)/2 with constraints
x.x = -a^2, p.x = 0, P.p = 0 and the synchronization condition Xdot.x = 0.
Established motion has P.x = 0, so the gauge scalar beta and the multiplier
nu = P.x / (-a^2) vanish and the equations of motion reduce to

    Xdot = -P / (4 m0)
    xdot = -p / (4 m0)
    pdot = -x (4 m0^2 - P.P) / (4 m0 a^2)

whose (x, p) part is linear and whose closed-form solution is a pair of
antipodal circular worldlines of radius a with tau-frequency
omega = sqrt(P0^2 - 4 m0^2)/(4 m0 a) and lab frequency
omega0 = -sqrt(P0^2 - 4 m0^2)/(a P0).  The module integrates these
equations with RK4 from starts with P.x = 0, as the map that RK4 is on a
linear system, rescaling x onto x.x = -a^2 after each step and leaving p as
RK4 returns it; it evaluates the closed form, and implements the rigidity
function and the parameter identification with the classical Dirac
particle's helix.
"""

import math
import numbers
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    StabilityError,
    StepSizeError,
    SubThresholdError,
    require_positive,
)
from .minkowski import eps4_free, mdot
from .particle import DcParams, observables_from_zeta
from .report import CSV_BLOCK_ROWS


@dataclass(frozen=True)
class RotatorParams:
    """Particle mass, half-separation, total energy and phase, in c = 1."""

    m0: float
    a: float
    P0: float
    phase: float = 0.0

    def __post_init__(self):
        require_positive(m0=self.m0, a=self.a)
        if not (math.isfinite(self.P0) and math.isfinite(self.phase)):
            raise DomainError(f"P0 and phase must be finite: {self!r}")
        if self.P0 < 2.0 * self.m0:
            raise SubThresholdError(
                f"P0 = {self.P0} below the two-particle threshold 2 m0 = {2 * self.m0}")
        try:
            with np.errstate(over="ignore"):
                finite = math.isfinite(self.omega) and math.isfinite(self.omega0)
        except OverflowError:
            finite = False
        if not finite:
            raise DomainError(f"rotation frequencies overflow for {self!r}")

    @property
    def omega(self) -> float:
        """Angular frequency in the worldline parameter tau."""
        return np.sqrt(self.P0 ** 2 - 4.0 * self.m0 ** 2) / (4.0 * self.m0 * self.a)

    @property
    def omega0(self) -> float:
        """Angular frequency in coordinate time (negative by convention)."""
        return -np.sqrt(self.P0 ** 2 - 4.0 * self.m0 ** 2) / (self.a * self.P0)


@dataclass(frozen=True)
class RotatorState:
    """Center and relative coordinates and momenta.

    One state has X, x and p of shape (4,); a stack of n states has them of
    shape (n, 4).  P, the conserved total momentum, is one 4-vector either
    way.  On established motion P.x = 0; the monitors read P.x from x and
    P, so nothing more is stored.
    """

    X: np.ndarray
    x: np.ndarray
    p: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        for name in ("X", "x", "p", "P"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))


def constraint_monitors(s: RotatorState, p: RotatorParams) -> np.ndarray:
    """The five on-shell constraint residuals (absolute values), in the order
    of ``MONITOR_COLUMNS``: shape (5,) for one state, (5, n) for a stack of n.

    ``mdot`` reads the transposed stack, so each component is a column.
    Xdot is the established-motion rate -P / (4 m0), so Xdot.x is
    |P.x| / (4 m0), a P.x monitor, and the p.p target is 4 m0^2 - P.P.
    """
    x, q, P = s.x.T, s.p.T, s.P
    xdot_center = [-Pi / (4.0 * p.m0) for Pi in P]
    pp_target = -(mdot(P, P) - 4.0 * p.m0 ** 2)
    return np.array([abs(mdot(x, x) + p.a ** 2), abs(mdot(q, x)), abs(mdot(P, q)),
                     abs(mdot(q, q) - pp_target), abs(mdot(xdot_center, x))])


#: Table column names of the ``constraint_monitors`` rows, in their order:
#: x.x + a^2, p.x, P.p, p.p - target and Xdot.x.
MONITOR_COLUMNS = ("res_xx", "res_px", "res_Pp", "res_pp", "res_Xdotx")


def monitor_scales(p: RotatorParams) -> np.ndarray:
    """Divisors that make the ``constraint_monitors`` unit-free, in its order.

    x.x + a^2 scales like a^2, p.x like m0 a, the momentum products P.p
    and p.p - target like m0^2, and Xdot.x = |P.x| / (4 m0) like a.  Every
    divisor is exactly 1 at m0 = a = 1.
    """
    m2 = p.m0 ** 2
    return np.array([p.a ** 2, p.m0 * p.a, m2, m2, p.a])


def zeta_vector(x, prel, P) -> np.ndarray:
    """Conserved spacelike vector zeta_i = eps_iklm x^k p^l P^m of one state."""
    return eps4_free(0, x, prel, P)


@dataclass(frozen=True)
class RotatorClosedForm:
    """Closed-form rotator motion in the frame P = (P0, 0, 0, 0)."""

    params: RotatorParams

    @property
    def tau_period(self) -> float:
        om = self.params.omega
        if om == 0.0:
            raise DomainError("static rotator (P0 = 2 m0) has no period")
        return 2.0 * np.pi / om

    def state(self, tau) -> RotatorState:
        """The state at one tau, or the stack of states at an array of them."""
        p = self.params
        om = p.omega
        tau = np.asarray(tau, dtype=float)
        th = om * tau + p.phase
        zero = np.zeros_like(tau)
        x = np.stack([zero, p.a * np.cos(th), p.a * np.sin(th), zero], axis=-1)
        # Upper components; the lower-index momentum has opposite spatial signs.
        prel = np.stack([zero,
                         4.0 * p.a * p.m0 * om * np.sin(th),
                         -4.0 * p.a * p.m0 * om * np.cos(th),
                         zero], axis=-1)
        X = np.stack([-p.P0 * tau / (4.0 * p.m0), zero, zero, zero], axis=-1)
        P = np.array([p.P0, 0.0, 0.0, 0.0])
        return RotatorState(X=X, x=x, p=prel, P=P)

    def worldlines_at_time(self, t):
        """Particle positions (4-vectors) as functions of coordinate time:
        shape (4,) each for one time, (n, 4) each for an array of n times."""
        p = self.params
        t = np.asarray(t, dtype=float)
        th = p.omega0 * t + p.phase
        zero = np.zeros_like(t)
        one = np.stack([t, p.a * np.cos(th), p.a * np.sin(th), zero], axis=-1)
        two = np.stack([t, -p.a * np.cos(th), -p.a * np.sin(th), zero], axis=-1)
        return one, two

    def steady_state_residual(self, t) -> float:
        """Residual of the orthogonality conditions udot.(x1 - x2) = 0."""
        p = self.params
        th = p.omega0 * t + p.phase
        d1 = np.array([1.0, -p.a * p.omega0 * np.sin(th),
                       p.a * p.omega0 * np.cos(th), 0.0])
        one, two = self.worldlines_at_time(t)
        sep = one - two
        return max(abs(mdot(d1, sep)), abs(mdot(-d1 + 2.0 * np.array([1.0, 0, 0, 0]), sep)))


@dataclass
class RotatorTrajectory:
    """Integrated samples plus drift summaries.  The constraint monitors of
    the states are one ``constraint_monitors`` call away, on the whole stack
    or on any slice of it."""

    states: RotatorState          # the stack of steps + 1 states
    zeta_drift: float             # max relative zeta_i drift
    pre_projection_drift: float


def _motion_constants(p: RotatorParams, P):
    """(m4, s, d) = (4 m0, 4 m0^2 - P.P, m4 a^2), the coefficients of the
    established-motion equations, as Python floats; P is a 4-sequence."""
    m4 = float(4.0 * p.m0)
    return m4, float(4.0 * p.m0 ** 2 - mdot(P, P)), m4 * float(p.a ** 2)


def _rhs(state: RotatorState, p: RotatorParams):
    """(Xdot, xdot, pdot) = (-P / m4, -p / m4, -x s / d) of the
    established-motion equations, at one state or at each of a stack, in
    the state's own layout.

    The equation of motion the ``closed-form-dynamics`` check holds the
    closed form to.  The integrator does not call it: ``_rk4_step`` applies
    the RK4 map of these linear equations, whose coefficients
    ``_rk4_constants`` computes once a run from the same
    ``_motion_constants``.
    """
    m4, s, d = _motion_constants(p, state.P)
    return -state.P / m4, -state.p / m4, -state.x * s / d


def _project(x, a):
    """Rescale x onto x.x = -a^2.

    Works on a 4-tuple of floats with the operations of the array form
    x * (a / sqrt(-x.x)).
    """
    x0, x1, x2, x3 = x
    # mdot written out, as in the drift of integrate_rotator.
    xx = x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3
    if xx >= 0:
        raise StepSizeError("relative coordinate left the spacelike sphere")
    scale = a / math.sqrt(-xx)
    return x0 * scale, x1 * scale, x2 * scale, x3 * scale


def _rk4_constants(p: RotatorParams, P, dt):
    """The run constants of ``_rk4_step``, computed once per integration:
    the four components of the X step dt (P / -m4), then c, g / -m4 and
    g (-s) / d, with (m4, s, d) from ``_motion_constants``.

    The (x, p) system y' = L y has xdot = p / -m4 and pdot = x (-s) / d, so
    L^2 = s / (m4 d) on each component, and RK4 on it is exactly
    sum_{k<=4} (dt L)^k / k! = c I + g L, with q = dt^2 s / (m4 d),
    c = 1 + q/2 + q^2/24 and g = dt (1 + q/6).  P is a 4-sequence of floats,
    and every constant is a Python float (a numpy scalar dt, as
    ``tau_period / steps`` is, would make every step's values numpy
    scalars, with the same bits at several times the cost).
    """
    m4, s, d = _motion_constants(p, P)
    dt = float(dt)
    q = dt * dt * s / (m4 * d)
    c = 1.0 + q / 2.0 + q * q / 24.0
    g = dt * (1.0 + q / 6.0)
    return (*(dt * (Pi / -m4) for Pi in P), c, g / -m4, g * -s / d)


def _rk4_step(X0, X1, X2, X3, x0, x1, x2, x3, p0, p1, p2, p3, k):
    """One RK4 step of the ``_rhs`` equations on floats, before projection.

    Takes the 12 components of X, x and p and the ``_rk4_constants`` tuple
    k; returns the 12 stepped components: X + its constant step, and the
    RK4 map x' = c x + (g / -m4) p, p' = c p + (g (-s) / d) x.
    """
    dX0, dX1, dX2, dX3, c, bx, bp = k
    return (X0 + dX0, X1 + dX1, X2 + dX2, X3 + dX3,
            c * x0 + bx * p0, c * x1 + bx * p1, c * x2 + bx * p2, c * x3 + bx * p3,
            c * p0 + bp * x0, c * p1 + bp * x1, c * p2 + bp * x2, c * p3 + bp * x3)


def integrate_rotator(p: RotatorParams, initial: RotatorState, steps, dt) -> RotatorTrajectory:
    """RK4 on the established-motion branch with a per-step rescale of x.

    The equations hold beta and nu at 0, as established motion does; that
    needs P.x = 0, which the start guard holds to roundoff.  After each step
    x is rescaled onto the sphere x.x = -a^2 and p is left as RK4 returns
    it: (P.x, P.p) is a stable linear subsystem that starts at roundoff, and
    removing the x part of p makes coarse runs worse.  Raises
    DomainError for a start off the constraints or with |P.x| above 1e-12 a
    max|P^i|, StabilityError for |omega dt| >= 0.1 and StepSizeError if the
    pre-projection constraint drift |x.x + a^2| exceeds 1e-6 a^2.

    Each step is one ``_rk4_step`` call on Python floats: the RK4 map
    c I + g L of the linear (x, p) equations of ``_rhs``, the same step as
    the staged RK4 up to rounding, with c, g and the X step computed once a
    run.  The Minkowski products of the drift and _project are written out
    on the floats, the products and order of ``mdot``, without its call.
    Each step appends its 12 floats (X, x and p) to one ``array('d')``
    buffer, and the stacked RotatorState holds column views of that buffer:
    96 B per step, all the memory that grows with the steps.  After the
    loop, one zeta_vector call per state fills the zeta rows of one
    ``CSV_BLOCK_ROWS``-row block at a time, whose zeta drift is reduced
    before the next block.  The monitors, whose Xdot.x column bounds P.x
    along the run, are left to the caller.
    """
    if not isinstance(steps, numbers.Integral) or steps < 0:
        raise DomainError(f"steps must be an integer >= 0, got {steps!r}")
    if not abs(p.omega * dt) < 0.1:
        raise StabilityError(
            f"|omega dt| = {abs(p.omega * dt):.3f} too large; reduce the step")
    worst0 = np.max(constraint_monitors(initial, p) / monitor_scales(p))
    if not worst0 <= 1e-10:
        raise DomainError(f"initial state violates the constraints by {worst0:.3e}")
    # Tighter than the Xdot.x monitor, |P.x| / (4 m0 a) <= 1e-10: the
    # equations hold nu at 0, which needs P.x = 0 up to roundoff.
    px = mdot(initial.P, initial.x)
    if not abs(px) <= 1e-12 * p.a * np.abs(initial.P).max():
        raise DomainError(f"initial state has P.x = {px:.3e}, not 0")
    if not np.isfinite(initial.X).all():
        raise DomainError("initial X must be finite")

    # One row of 12 floats per state, X, x and p; row 0 is the initial
    # state, and each step appends its row with one extend.  Every raw_drift
    # that reaches the running max has passed its bound, so none is NaN.
    P = initial.P.copy()
    rows = array("d", [*initial.X.tolist(), *initial.x.tolist(), *initial.p.tolist()])
    X0, X1, X2, X3 = initial.X.tolist()
    x0, x1, x2, x3 = initial.x.tolist()
    p0, p1, p2, p3 = initial.p.tolist()
    k = _rk4_constants(p, P.tolist(), dt)
    a, a2 = float(p.a), float(p.a ** 2)
    drift_bound = 1e-6 * a2
    pre_drift = 0.0

    for _ in range(steps):
        X0, X1, X2, X3, x0, x1, x2, x3, p0, p1, p2, p3 = _rk4_step(
            X0, X1, X2, X3, x0, x1, x2, x3, p0, p1, p2, p3, k)
        raw_drift = abs((x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3) + a2)
        if not raw_drift <= drift_bound:
            raise StepSizeError(
                f"constraint drift {raw_drift:.3e} before projection; reduce dt")
        if raw_drift > pre_drift:
            pre_drift = raw_drift
        x0, x1, x2, x3 = _project((x0, x1, x2, x3), a)
        rows.extend((X0, X1, X2, X3, x0, x1, x2, x3, p0, p1, p2, p3))

    n = steps + 1
    table = np.frombuffer(rows).reshape(n, 12)
    Xs, xs, ps = table[:, 0:4], table[:, 4:8], table[:, 8:12]
    # The zeta rows of one block at a time, in one reused buffer; zeta0 is
    # the first row of the first block.  The block maxima of the zeta drift
    # are reduced with numpy, so a NaN reaches the summary.
    zetas = np.empty((min(CSV_BLOCK_ROWS, n), 4))
    block_drifts = []
    for start in range(0, n, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, n)
        for i, (x, prel) in enumerate(zip(xs[start:stop], ps[start:stop])):
            zetas[i] = zeta_vector(x, prel, P)
        if start == 0:
            zeta0 = zetas[0].copy()
        block_drifts.append(np.abs(zetas[:stop - start] - zeta0).max())

    zeta_scale = max(np.abs(zeta0).max(), 1e-30)
    return RotatorTrajectory(
        states=RotatorState(X=Xs, x=xs, p=ps, P=P),
        zeta_drift=float(np.max(block_drifts) / zeta_scale),
        pre_projection_drift=pre_drift,
    )


def mass_increase(v, c=1.0) -> float:
    """Relative rotational mass increase gamma = 1/sqrt(1 - v^2/c^2) - 1."""
    if not 0.0 <= v < c:
        raise DomainError(f"speed must satisfy 0 <= v < c, got {v!r}")
    return 1.0 / np.sqrt(1.0 - (v / c) ** 2) - 1.0


def rigidity(a, m0, hbar=1.0, c=1.0):
    """Rigidity function gamma = 1 / sqrt(1 - u^2) - 1 with u = 4 a m0 c / hbar.

    Defined for 0 <= u < 1, that is 0 <= a < hbar / (4 m0 c); the bound is
    where the particle speed u c reaches c.  gamma depends on the unit-free
    u alone, so no square of hbar or of 4 a m0 c is formed, and u < 1 leaves
    1 - u^2 >= 2^-52.  A float for a scalar ``a``, elementwise for an array.
    """
    require_positive(m0=m0, hbar=hbar, c=c)
    a_arr = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):    # an overflowing 4 a m0 c gives u = inf
        u = 4.0 * a_arr * m0 * c / hbar
    inside = (0.0 <= u) & (u < 1.0)
    if not inside.all():
        raise DomainError(f"radius must satisfy 0 <= 4 a m0 c / hbar < 1, "
                          f"got {float(a_arr[~inside].flat[0])!r}")
    gamma = 1.0 / np.sqrt(1.0 - u * u) - 1.0
    return gamma if gamma.ndim else float(gamma)


def rigidity_domain_bound(m0, hbar=1.0, c=1.0) -> float:
    """The radius hbar / (4 m0 c) at which the particle speed reaches c."""
    require_positive(m0=m0, hbar=hbar, c=c)
    scale = 4.0 * m0 * c
    bound = hbar / scale if scale > 0.0 else math.inf
    require_positive(**{"hbar/(4 m0 c)": bound})
    return bound


def dcr_to_rr(m, zeta, hbar=1.0, c=1.0) -> dict:
    """From the helix particle's (m, zeta) to the rotator's (M, m0, a, v).

    M and a are the particle's m_dcr and a_dcr of ``observables_from_zeta``,
    which also checks the constants and zeta; m0 and v are the rotator's own.
    """
    ob = observables_from_zeta(zeta, DcParams(m=m, hbar=hbar, c=c))
    m0 = m / (np.sqrt(1.0 + zeta ** 2) + 1.0)
    v = c * (4.0 * ob.a_dcr * m0 * c / hbar)
    return _finite_values({
        "direction": "dcr_to_rr",
        "m": m, "zeta": zeta,
        "M": ob.m_dcr, "m0": float(m0), "a": ob.a_dcr, "v": float(v),
        "P0": ob.m_dcr,
    })


def rr_to_dcr(m0, v, hbar=1.0, c=1.0, e_charge=1.0) -> dict:
    """From the rotator's (m0, v) to the particle's (m, m_dcr, omega_dcr, a,
    zeta), plus the angular momentum and magnetic moment of the charged
    rotator."""
    require_positive(hbar=hbar, c=c, m0=m0)
    if not 0.0 <= v < c:
        raise DomainError(f"speed must satisfy 0 <= v < c, got {v!r}")
    try:
        g2 = 1.0 - (v / c) ** 2
        m_out = 2.0 * m0 / g2
        m_dcr = 2.0 * m0 / np.sqrt(g2)
        omega_dcr = c * (4.0 * m0 * c / hbar)
        a = (v / c) * hbar / (4.0 * m0 * c)
        zeta_out = 4.0 * a * m_out * c / hbar
        ang_mom = 2.0 * m0 * a * v / np.sqrt(g2)
        mag_moment = e_charge * a * v / (2.0 * np.sqrt(g2))
    except OverflowError:
        raise DomainError(f"rr_to_dcr overflows at m0 = {m0!r}, "
                          f"v = {v!r}") from None
    except ZeroDivisionError:
        raise DomainError(f"4 m0 c underflows to 0 at m0 = {m0!r}, c = {c!r}") from None
    return _finite_values({
        "direction": "rr_to_dcr",
        "m0": m0, "v": v,
        "m": float(m_out), "m_dcr": float(m_dcr),
        "omega_dcr": float(omega_dcr), "a": float(a), "zeta": float(zeta_out),
        "angular_momentum": float(ang_mom),
        "magnetic_moment": float(mag_moment),
        "moment_to_angular_momentum": float(e_charge / (4.0 * m0)),
    })


def _finite_values(out: dict) -> dict:
    """``out`` unless one of its float values overflowed or is NaN."""
    bad = [k for k, x in out.items() if isinstance(x, float) and not math.isfinite(x)]
    if bad:
        raise DomainError(f"non-finite {', '.join(bad)} in {out!r}")
    return out
