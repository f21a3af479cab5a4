"""Relativistic rotator: two equal masses in established rotation.

Center/relative variables X = (x1 + x2)/2, x = (x1 - x2)/2 with constraints
x.x = -a^2, p.x = 0, P.p = 0 and the synchronization condition Xdot.x = 0.
On established motion the gauge scalar beta and the multiplier nu vanish and
the equations of motion reduce to

    Xdot = -(P - nu x) / (4 m0)
    xdot = -p / (4 m0)
    pdot = -x (4 m0^2 - P.P) / (4 m0 a^2) - nu P / (4 m0)

whose closed-form solution is a pair of antipodal circular worldlines of
radius a with tau-frequency omega = sqrt(P0^2 - 4 m0^2)/(4 m0 a) and lab
frequency omega0 = -sqrt(P0^2 - 4 m0^2)/(a P0).  The module integrates the
constrained system with RK4 plus per-step projection, evaluates the closed
form, and implements the rigidity function and the parameter identification
with the classical Dirac particle's helix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    StabilityError,
    StepSizeError,
    SubThresholdError,
)
from .minkowski import eps4_free, mdot


@dataclass(frozen=True)
class RotatorParams:
    """Particle mass, half-separation, total energy, and constants."""

    m0: float
    a: float
    P0: float
    phase: float = 0.0
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m0, self.a, self.P0, self.phase,
                                       self.c, self.hbar))):
            raise DomainError(f"rotator parameters must be finite: {self!r}")
        if self.m0 <= 0 or self.a <= 0 or self.c <= 0 or self.hbar <= 0:
            raise DomainError("m0, a, c and hbar must be positive")
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
    """Center and relative coordinates/momenta with the multiplier nu.

    One state has X, x and p of shape (4,) and float tau and nu; a stack of
    n states has them of shape (n, 4) and (n,).  P, the conserved total
    momentum, is one 4-vector either way.
    """

    tau: float
    X: np.ndarray
    x: np.ndarray
    p: np.ndarray
    P: np.ndarray
    nu: float = 0.0

    def __post_init__(self):
        for name in ("X", "x", "p", "P"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))


def constraint_monitors(s: RotatorState, p: RotatorParams) -> dict:
    """The five on-shell constraint residuals (absolute values): floats for
    one state, (n,) arrays for a stack of n.

    ``mdot`` reads the transposed stack, so each component is a column;
    Xdot is the array form -(P - nu x) / (4 m0), one component at a time.
    """
    x, q, P = s.x.T, s.p.T, s.P
    m4 = 4.0 * p.m0
    xdot_center = [-(Pi - s.nu * xi) / m4 for Pi, xi in zip(P, x)]
    # float_power rounds as the libm pow behind a scalar ``** 2``.
    pp_target = -(mdot(P, P) - 4.0 * p.m0 ** 2) - p.a ** 2 * np.float_power(s.nu, 2.0)
    return {
        "x.x + a^2": abs(mdot(x, x) + p.a ** 2),
        "p.x": abs(mdot(q, x)),
        "P.p": abs(mdot(P, q)),
        "p.p - target": abs(mdot(q, q) - pp_target),
        "Xdot.x": abs(mdot(xdot_center, x)),
    }


def monitor_scales(p: RotatorParams) -> np.ndarray:
    """Divisors that make the ``constraint_monitors`` unit-free, in its order.

    x.x + a^2 scales like a^2, p.x like m0 a and the momentum products P.p
    and p.p - target like m0^2; Xdot.x is left as it is.  Every divisor is
    exactly 1 at m0 = a = 1.
    """
    m2 = p.m0 ** 2
    return np.array([p.a ** 2, p.m0 * p.a, m2, m2, 1.0])


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
        return RotatorState(tau=tau if tau.ndim else float(tau), X=X, x=x, p=prel, P=P)

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
    """Integrated samples plus per-sample diagnostics and drift summary."""

    states: RotatorState          # the stack of steps + 1 states
    monitors: np.ndarray          # (steps + 1, 5)
    zeta_drift: float             # max relative zeta_i drift
    nu_max: float
    pre_projection_drift: float


def _rhs(x, prel, P, p: RotatorParams):
    """(Xdot, xdot, pdot, nu) of the established-motion equations.

    x, prel and P are 4-sequences; the rates come back as 4-tuples of
    floats, each component computed with the operations, in order, of the
    array forms Xdot = -(P - nu x) / (4 m0), xdot = -p / (4 m0) and
    pdot = -x (4 m0^2 - P.P) / (4 m0 a^2) - nu P / (4 m0).
    """
    x0, x1, x2, x3 = x
    p0, p1, p2, p3 = prel
    P0, P1, P2, P3 = P
    m4 = 4.0 * p.m0
    a2 = p.a ** 2
    # mdot written out: this runs four times per step.
    nu = -(P0 * x0 - P1 * x1 - P2 * x2 - P3 * x3) / a2
    s = 4.0 * p.m0 ** 2 - (P0 * P0 - P1 * P1 - P2 * P2 - P3 * P3)
    d = m4 * a2
    xdot_center = (-(P0 - nu * x0) / m4, -(P1 - nu * x1) / m4,
                   -(P2 - nu * x2) / m4, -(P3 - nu * x3) / m4)
    xdot = (-p0 / m4, -p1 / m4, -p2 / m4, -p3 / m4)
    pdot = (-x0 * s / d - nu * P0 / m4, -x1 * s / d - nu * P1 / m4,
            -x2 * s / d - nu * P2 / m4, -x3 * s / d - nu * P3 / m4)
    return xdot_center, xdot, pdot, nu


def _project(x, prel, P, a):
    """Rescale x onto x.x = -a^2, then remove the x and P parts of prel.

    Works on 4-tuples of floats with the operations of the array forms
    x * (a / sqrt(-x.x)) and prel - x (prel.x / x.x) - P (prel.P / P.P).
    """
    x0, x1, x2, x3 = x
    p0, p1, p2, p3 = prel
    P0, P1, P2, P3 = P
    # mdot written out, as in _rhs.
    xx = x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3
    if xx >= 0:
        raise StepSizeError("relative coordinate left the spacelike sphere")
    scale = a / math.sqrt(-xx)
    x0, x1, x2, x3 = x0 * scale, x1 * scale, x2 * scale, x3 * scale
    cx = (p0 * x0 - p1 * x1 - p2 * x2 - p3 * x3) / (x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3)
    cP = (p0 * P0 - p1 * P1 - p2 * P2 - p3 * P3) / (P0 * P0 - P1 * P1 - P2 * P2 - P3 * P3)
    return (x0, x1, x2, x3), (p0 - x0 * cx - P0 * cP, p1 - x1 * cx - P1 * cP,
                              p2 - x2 * cx - P2 * cP, p3 - x3 * cx - P3 * cP)


def _stage(y, h, r):
    """y + h r for 4-tuples."""
    return (y[0] + h * r[0], y[1] + h * r[1], y[2] + h * r[2], y[3] + h * r[3])


def _rk4_update(y, h6, r1, r2, r3, r4):
    """y + h6 (r1 + 2 r2 + 2 r3 + r4) for 4-tuples, summed left to right."""
    return (y[0] + h6 * (r1[0] + 2 * r2[0] + 2 * r3[0] + r4[0]),
            y[1] + h6 * (r1[1] + 2 * r2[1] + 2 * r3[1] + r4[1]),
            y[2] + h6 * (r1[2] + 2 * r2[2] + 2 * r3[2] + r4[2]),
            y[3] + h6 * (r1[3] + 2 * r2[3] + 2 * r3[3] + r4[3]))


def integrate_rotator(p: RotatorParams, initial: RotatorState, steps, dt) -> RotatorTrajectory:
    """RK4 on the established-motion branch with per-step projection.

    beta is held at 0 and nu is computed algebraically from P.x each step
    (it stays near 0 and is monitored, not trusted).  After each step x is
    renormalized to the sphere x.x = -a^2 and p is orthogonalized against x
    and P.  Raises StabilityError for omega dt >= 0.1 and StepSizeError if
    the pre-projection constraint drift |x.x + a^2| exceeds 1e-6 a^2.

    The stepper runs on 4-tuples of Python floats, with the operations, in
    order, of the array form x + dt / 6 * (k1 + 2 k2 + 2 k3 + k4).  The
    Minkowski products of a step (in _rhs, the drift, _project and nu) are
    written out on the unpacked floats, the products and order of ``mdot``,
    without its call.  Each state is written into the rows of one stacked
    RotatorState, with one zeta_vector call per state; the monitors come
    from one constraint_monitors call at the end.
    """
    if not p.omega * dt < 0.1:
        raise StabilityError(
            f"omega dt = {p.omega * dt:.3f} too large; reduce the step")
    worst0 = np.max(np.array(list(constraint_monitors(initial, p).values()))
                    / monitor_scales(p))
    if not worst0 <= 1e-10:
        raise DomainError(f"initial state violates the constraints by {worst0:.3e}")
    if not np.isfinite([initial.tau, *initial.X]).all():
        raise DomainError("initial tau and X must be finite")

    # Row 0 is the initial state; each diagnostic is reduced once with numpy
    # at the end, so a NaN anywhere reaches the summary.
    taus = np.empty(steps + 1)
    Xs, xs, ps, zetas = (np.empty((steps + 1, 4)) for _ in range(4))
    nus = np.empty(steps + 1)
    pre_drift = np.empty(steps)
    P = initial.P.copy()
    taus[0], nus[0] = initial.tau, initial.nu
    Xs[0], xs[0], ps[0] = initial.X, initial.x, initial.p
    zetas[0] = zeta0 = zeta_vector(xs[0], ps[0], P)

    X = tuple(initial.X.tolist())
    x = tuple(initial.x.tolist())
    prel = tuple(initial.p.tolist())
    Pf = tuple(P.tolist())
    P0, P1, P2, P3 = Pf
    a2 = p.a ** 2
    drift_bound = 1e-6 * a2
    h2, h6 = 0.5 * dt, dt / 6.0
    tau = initial.tau

    for k in range(1, steps + 1):
        X1, x1, p1, _ = _rhs(x, prel, Pf, p)
        X2, x2, p2, _ = _rhs(_stage(x, h2, x1), _stage(prel, h2, p1), Pf, p)
        X3, x3, p3, _ = _rhs(_stage(x, h2, x2), _stage(prel, h2, p2), Pf, p)
        X4, x4, p4, _ = _rhs(_stage(x, dt, x3), _stage(prel, dt, p3), Pf, p)

        X = _rk4_update(X, h6, X1, X2, X3, X4)
        x = _rk4_update(x, h6, x1, x2, x3, x4)
        prel = _rk4_update(prel, h6, p1, p2, p3, p4)
        tau += dt

        # mdot written out here and for nu below, as in _rhs.
        y0, y1, y2, y3 = x
        raw_drift = pre_drift[k - 1] = abs((y0 * y0 - y1 * y1 - y2 * y2 - y3 * y3) + a2)
        if not raw_drift <= drift_bound:
            raise StepSizeError(
                f"constraint drift {raw_drift:.3e} before projection; reduce dt")
        x, prel = _project(x, prel, Pf, p.a)

        taus[k], Xs[k], xs[k], ps[k] = tau, X, x, prel
        y0, y1, y2, y3 = x
        nus[k] = -(P0 * y0 - P1 * y1 - P2 * y2 - P3 * y3) / a2
        zetas[k] = zeta_vector(xs[k], ps[k], P)

    states = RotatorState(tau=taus, X=Xs, x=xs, p=ps, P=P, nu=nus)
    zeta_scale = max(np.abs(zeta0).max(), 1e-30)
    return RotatorTrajectory(
        states=states,
        monitors=np.column_stack(list(constraint_monitors(states, p).values())),
        zeta_drift=float(np.abs(zetas - zeta0).max() / zeta_scale),
        nu_max=float(np.abs(nus).max()),
        pre_projection_drift=float(pre_drift.max(initial=0.0)),
    )


def _require_positive(**values):
    """DomainError unless every value is a finite positive number."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and positive, got {value!r}")


def mass_increase(v, c=1.0) -> float:
    """Relative rotational mass increase gamma = 1/sqrt(1 - v^2/c^2) - 1."""
    if not 0.0 <= v < c:
        raise DomainError(f"speed must satisfy 0 <= v < c, got {v!r}")
    return 1.0 / np.sqrt(1.0 - (v / c) ** 2) - 1.0


def rigidity(a, m0, hbar=1.0, c=1.0):
    """Rigidity function gamma = hbar / sqrt(hbar^2 - (4 a m0 c)^2) - 1.

    Defined for 0 <= a < hbar / (4 m0 c); the bound is where the particle
    speed reaches c.  A float for a scalar ``a``, elementwise for an array.
    The squares go through ``float_power``, which rounds as the libm
    ``pow`` behind a scalar ``** 2``; an array ``** 2`` multiplies instead.
    """
    bound = rigidity_domain_bound(m0, hbar, c)
    a_arr = np.asarray(a, dtype=float)
    inside = (0.0 <= a_arr) & (a_arr < bound)
    if not inside.all():
        raise DomainError(f"radius must satisfy 0 <= a < hbar/(4 m0 c) = {bound!r}, "
                          f"got {float(a_arr[~inside].flat[0])!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.float_power(hbar, 2.0) - np.float_power(4.0 * a_arr * m0 * c, 2.0)
    positive = (0.0 < den) & (den < math.inf)
    if not positive.all():
        raise DomainError(f"hbar^2 - (4 a m0 c)^2 = {float(den[~positive].flat[0])!r} "
                          "is not a positive finite number")
    gamma = hbar / np.sqrt(den) - 1.0
    return gamma if gamma.ndim else float(gamma)


def rigidity_domain_bound(m0, hbar=1.0, c=1.0) -> float:
    """The radius hbar / (4 m0 c) at which the particle speed reaches c."""
    _require_positive(m0=m0, hbar=hbar, c=c)
    scale = 4.0 * m0 * c
    bound = hbar / scale if scale > 0.0 else math.inf
    if not 0.0 < bound < math.inf:
        raise DomainError(f"hbar/(4 m0 c) = {bound!r} is not a positive finite number")
    return bound


@dataclass(frozen=True)
class RigidityCurve:
    """Sampled rigidity function: gamma(0) = 0, strictly increasing, and
    diverging at the domain bound hbar/(4 m0 c)."""

    m0: float
    hbar: float
    c: float
    a: np.ndarray
    gamma: np.ndarray

    @property
    def domain_bound(self) -> float:
        return rigidity_domain_bound(self.m0, self.hbar, self.c)

    @classmethod
    def sample(cls, m0, hbar, c, a_min, a_max, n) -> "RigidityCurve":
        if n < 2:
            raise DomainError("need at least 2 samples")
        bound = rigidity_domain_bound(m0, hbar, c)
        if not 0.0 <= a_min < a_max:
            raise DomainError("need 0 <= a_min < a_max")
        if a_max >= bound:
            raise DomainError(
                f"a_max must stay below hbar/(4 m0 c) = {bound!r}")
        a = np.linspace(a_min, a_max, n)
        gamma = rigidity(a, m0, hbar, c)
        return cls(m0=m0, hbar=hbar, c=c, a=a, gamma=gamma)


def identify_dcr_rr(direction, *, m=None, zeta=None, m0=None, v=None,
                    hbar=1.0, c=1.0, e_charge=1.0) -> dict:
    """Map parameters between the helix particle and the rotator.

    dcr_to_rr: from (m, zeta) to the rotator's (M, m0, a, v).
    rr_to_dcr: from (m0, v) to the particle's (m, m_dcr, omega_dcr, a, zeta),
    plus the angular momentum and magnetic moment of the charged rotator.
    """
    _require_positive(hbar=hbar, c=c)
    if direction == "dcr_to_rr":
        if m is None or zeta is None:
            raise DomainError("dcr_to_rr needs m and zeta")
        _require_positive(m=m)
        if not zeta >= 0:
            raise DomainError(f"zeta must be nonnegative, got {zeta!r}")
        try:
            root = np.sqrt(1.0 + zeta ** 2)
            M = m * np.sqrt(2.0) / np.sqrt(root + 1.0)
            m0_out = m / (root + 1.0)
            a = zeta * hbar / (4.0 * m * c)
            v_out = 4.0 * a * m0_out * c ** 2 / hbar
        except OverflowError:
            raise DomainError(f"dcr_to_rr overflows at m = {m!r}, "
                              f"zeta = {zeta!r}") from None
        return _finite_values({
            "direction": direction,
            "m": m, "zeta": zeta,
            "M": float(M), "m0": float(m0_out), "a": float(a), "v": float(v_out),
            "P0": float(M),
        })
    if direction == "rr_to_dcr":
        if m0 is None or v is None:
            raise DomainError("rr_to_dcr needs m0 and v")
        _require_positive(m0=m0)
        if not 0.0 <= v < c:
            raise DomainError(f"speed must satisfy 0 <= v < c, got {v!r}")
        try:
            g2 = 1.0 - (v / c) ** 2
            m_out = 2.0 * m0 / g2
            m_dcr = 2.0 * m0 / np.sqrt(g2)
            omega_dcr = 4.0 * m0 * c ** 2 / hbar
            a = v * hbar / (4.0 * m0 * c ** 2)
            zeta_out = 4.0 * a * m_out * c / hbar
            ang_mom = 2.0 * m0 * a * v / np.sqrt(g2)
            mag_moment = e_charge * a * v / (2.0 * np.sqrt(g2))
        except OverflowError:
            raise DomainError(f"rr_to_dcr overflows at m0 = {m0!r}, "
                              f"v = {v!r}") from None
        return _finite_values({
            "direction": direction,
            "m0": m0, "v": v,
            "m": float(m_out), "m_dcr": float(m_dcr),
            "omega_dcr": float(omega_dcr), "a": float(a), "zeta": float(zeta_out),
            "angular_momentum": float(ang_mom),
            "magnetic_moment": float(mag_moment),
            "moment_to_angular_momentum": float(e_charge / (4.0 * m0)),
        })
    raise DomainError(f"unknown direction {direction!r}")


def _finite_values(out: dict) -> dict:
    """``out`` unless one of its float values overflowed or is NaN."""
    bad = [k for k, x in out.items() if isinstance(x, float) and not math.isfinite(x)]
    if bad:
        raise DomainError(f"non-finite {', '.join(bad)} in {out!r}")
    return out
