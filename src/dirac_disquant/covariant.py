"""Covariant Lagrangian decomposition and derivative splitting.

The Dirac Lagrangian in hydrodynamic variables splits into

    L = L_cl + L_q1 + L_q2
    L_cl = -m rho - hbar j.d(phi) + F3
    L_q1 = 2 m rho sin^2(kappa/2) - (hbar/2) S.d(kappa)
    L_q2 = F4

where the kinetic term i/2 hbar (psi-bar gamma^l d_l psi - h.c.) equals
F1 + F2 + F3 + F4.  F1 and F2 are the phase and kappa gradients; F3 and F4
carry the rotation and boost gradients and exist in two algebraically
equivalent shapes, a three-dimensional one and a manifestly covariant one
built from the auxiliary vectors (nu, mu, q).  This module evaluates every
shape from an analytic parameter field and also recomputes the kinetic term
by finite differences of the spinor columns, which is the independent oracle
for the whole decomposition.  That oracle reads the Dirac matrices from the
``algebra`` constants and only the z-dependent projector column from a
``GammaBasis``.

Derivative layout: ``d_l u`` arrays are indexed by the coordinate l = 0..3
and hold plain lower-index derivatives; raising flips spatial signs.

Array routes and bits.  ``ParamField.values`` evaluates a stack of points,
and the finite-difference oracle makes one such call for its whole stencil.
Each point must keep the bits of a one-point evaluation, so every
contraction is a stacked ``np.matmul`` that keeps the one-row and one-column
shapes of the one-point product, e.g. ``matmul(X[:, None, None, :],
c1[:, :, None])`` for c1.x: numpy then calls the same BLAS ``ddot`` or
``gemv`` per point.  A flat ``X @ c1.T`` or an ``einsum`` picks another
kernel and another summation order, and the last bits change.  The three
covariant ``eps4`` sums of ``lagrangian_pieces`` fill one (3, 4, 4, 4) stack
for a single ``minkowski.det`` call, LAPACK factors each matrix on its own,
and each sum keeps the Python ``sum`` order over numpy scalars.  Outer
products are broadcast multiplies ``a[:, None] * b``, the products
``np.outer`` makes.

The one-point kernels behind ``lagrangian_pieces`` keep one more rule.
Elementwise arithmetic on scalars and on 3- and 4-vectors may run on Python
floats (``.tolist()``): +, -, *, / and sqrt round the same there, a scalar
``**`` is libm ``pow`` on both sides, the ``mdot`` products against
``F_REST`` are the same products, and a sum adds in the order ``sum`` does
over numpy scalars.  Every BLAS contraction (``@``, ``.dot``, ``matmul``)
stays a numpy call on the same operands, every ``det`` is
``minkowski.det``, the LAPACK gufunc behind ``np.linalg.det``, and ``cosh``,
``sinh`` and ``sin`` stay numpy ufuncs (numpy's SIMD ``cosh`` and ``sinh``
differ from ``math``'s in the last bit).  For example, a hand-written
three-term sum in place of ``cross3(grad, v).dot(xi)`` in F4 moves three
appendixB residuals of the ``verify all --seed 123`` report, because BLAS
``ddot`` rounds differently.  A float division by zero or ``math.sqrt`` of a
negative raises ZeroDivisionError or ValueError where numpy gave inf or nan,
so each one sits behind a check that raises a DomainError subclass first.
Each such wall is decided in one place.  The antipodal wall 1 + xi.z below
``algebra.XI_Z_TOL`` is ``algebra.require_off_antipode``, which
``lagrangian_pieces`` and ``CovariantAux.from_state`` each call with the
1 + xi.z they compute themselves.  A vanishing amplitude stops at
``algebra.spin_from_xi`` (rho + j^0 = 0) or, when small but not zero, at
the rho (rho + j.f) check of ``CovariantAux.from_state``; |eta| near 0 stops
at ``_derived_jet``, and a vanishing or overflowing raw n field at
``ParamField.jet``.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    GAMMA,
    GammaBasis,
    SpinorParams,
    _check_unit3,
    require_off_antipode,
    spin_from_xi,
    spinor_columns,
)
from .errors import (
    DomainError,
    LightlikeFluxError,
    SingularDenominatorError,
)
from .minkowski import BASIS4, F_REST, cross3, det, eps4_stack, mdot


def split_derivative(j, grad):
    """Split a gradient into components parallel and transversal to j.

    parallel^k = j^k (j.grad) / (j.j); transversal = grad - parallel.
    Requires timelike j.
    """
    j = np.asarray(j, dtype=float)
    grad = np.asarray(grad, dtype=float)
    jj = mdot(j, j)
    if jj <= 0:
        raise LightlikeFluxError(f"flux must be timelike, got j.j = {jj!r}")
    parallel = j * (mdot(j, grad) / jj)
    return parallel, grad - parallel


def _mdot_rows(rows, f):
    """``mdot(row, f)`` for each row of a 4-vector list, on floats: the row
    products that ``mdot`` of the transposed stack gives."""
    f0, f1, f2, f3 = f
    return [a * f0 - b * f1 - c * f2 - d * f3 for a, b, c, d in rows]


@dataclass(frozen=True)
class CovariantAux:
    """Auxiliary unit vectors entering the covariant F3/F4 shapes; f is ``F_REST``."""

    z4: np.ndarray     # (0, z)
    nu: np.ndarray     # xi4 - (xi4.f) f, unit spacelike
    mu: np.ndarray     # nu / sqrt(2 (1 + xi.z))
    q: np.ndarray      # (j + f rho) / sqrt(2 rho (rho + j.f)), unit timelike

    @classmethod
    def from_state(cls, j, rho, xi, z):
        f = F_REST.tolist()
        xi, z = np.asarray(xi, dtype=float), np.asarray(z, dtype=float)
        xi4 = [0.0, *xi.tolist()]
        j = np.asarray(j, dtype=float).tolist()
        xf, jf = _mdot_rows((xi4, j), f)
        nu = [a - xf * b for a, b in zip(xi4, f)]
        norm = math.sqrt(2.0 * require_off_antipode(1.0 + float(xi.dot(z))))
        norm2 = 2.0 * rho * (rho + jf)
        if norm2 < 1e-9:
            raise SingularDenominatorError("rho (rho + j.f) below tolerance")
        nq = math.sqrt(norm2)
        return cls(z4=np.array([0.0, *z.tolist()]),
                   nu=np.array(nu), mu=np.array([a / norm for a in nu]),
                   q=np.array([(a + b * rho) / nq for a, b in zip(j, f)]))


@dataclass(frozen=True)
class ParamJet:
    """Parameter values and their first coordinate derivatives at a point."""

    params: SpinorParams
    d_amp: np.ndarray     # (4,)
    d_kappa: np.ndarray   # (4,)
    d_phi: np.ndarray     # (4,)
    d_eta: np.ndarray     # (4, 3): d_eta[l] = d_l eta-vector
    d_n: np.ndarray       # (4, 3)


_SHAPES = {"c0": (6,), "c1": (6, 4), "c2": (6, 4, 4), "n0": (3,), "n_lin": (3, 4),
           "z": (3,)}

#: ``jet`` divides by r ** 3 of the raw n norm r; below this bound, the cube
#: root of the largest float, r ** 3 is finite.
_N_NORM_MAX = float(np.finfo(float).max) ** (1.0 / 3.0)


def _unit_n(raw):
    """Rows of the raw n field (N, 3) normalized, with their norms (N, 1).

    DomainError unless every norm lies in [1e-9, ``_N_NORM_MAX``).
    """
    r = np.sqrt(np.matmul(raw[:, None, :], raw[:, :, None]))[:, 0]
    if not r.min() >= 1e-9:
        raise DomainError("raw n field vanished at the evaluation point")
    if not r.max() < _N_NORM_MAX:
        raise DomainError(f"raw n field norm {float(r.max())!r} overflows its cube")
    return raw / r, r


@dataclass(frozen=True)
class ParamField:
    """Smooth map from spacetime points to spinor parameters.

    The amplitude, kappa, phi and the three rapidity components, in that
    order, are quadratic polynomials c0 + c1.x + x.c2.x, held as the stacked
    arrays c0 (6,), c1 (6, 4) and c2 (6, 4, 4); c2 is symmetrized at
    construction.  n comes from normalizing the affine raw field
    n0 + n_lin x, which keeps |n| = 1 and n.d_l n = 0 by construction.
    Derivatives are analytic.  The arrays are read-only copies;
    ``dataclasses.replace`` builds a changed field, with an empty ``memo``
    of ``lagrangian_pieces`` results.  Every array must be finite and z a
    unit vector, or construction raises DomainError.
    """

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    n0: np.ndarray
    n_lin: np.ndarray
    z: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, shape in _SHAPES.items():
            value = np.array(getattr(self, name), dtype=float, order="C")
            if value.shape != shape:
                raise DomainError(f"field {name} must have shape {shape}, "
                                  f"got {value.shape}")
            if name == "c2":
                value = 0.5 * (value + np.swapaxes(value, 1, 2))
            if not np.isfinite(value).all():
                raise DomainError(f"field {name} must be finite, got {value!r}")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        _check_unit3(self.z, "z")

    def values(self, X):
        """The six scalars (N, 6) and the raw n field (N, 3) at points X (N, 4).

        Each contraction is a stacked matmul that keeps the one-row and
        one-column shapes of the one-point products, so every entry has the
        bits of the one-point evaluation.
        """
        X = np.asarray(X, dtype=float)
        row = X[:, None, None, :]
        lin = np.matmul(row, self.c1[:, :, None])[..., 0, 0]
        quad = np.matmul(np.matmul(row, self.c2), X[:, None, :, None])[..., 0, 0]
        raw = self.n0 + np.matmul(self.n_lin, X[:, :, None])[..., 0]
        return self.c0 + lin + quad, raw

    def jet(self, x) -> ParamJet:
        x = np.asarray(x, dtype=float)
        s, raw = self.values(x[None])
        n, r = _unit_n(raw)
        s, raw, n, r = s[0], raw[0], n[0], r[0, 0]
        dr = self.n_lin.T
        d_n = dr / r - raw * np.matmul(raw, dr[:, :, None]) / r ** 3
        grad = self.c1 + 2.0 * np.matmul(self.c2, x[:, None])[..., 0]
        amplitude, kappa, phi = s[:3].tolist()
        params = SpinorParams(
            amplitude=amplitude,
            kappa=kappa,
            phi=phi,
            eta=s[3:],
            n=n,
            z=self.z,
        )
        return ParamJet(
            params=params,
            d_amp=grad[0],
            d_kappa=grad[1],
            d_phi=grad[2],
            # C order keeps the BLAS kernel of d_eta @ v in _derived_jet.
            d_eta=np.ascontiguousarray(grad[3:].T),
            d_n=d_n,
        )

    def params(self, x) -> SpinorParams:
        return self.jet(x).params


def random_param_field(rng: np.random.Generator) -> ParamField:
    """Seeded generic field, unit scale, bounded away from the singular sets.

    |eta| stays in roughly [0.4, 2.2] over the box |x_l| <= 0.5 and the n
    field keeps |n.z| >= ~0.5 so 1 + xi.z stays order one.
    """
    z = _unit(rng.normal(size=3))

    def scalar(base, lin=0.4, quad=0.15):
        return (base, rng.uniform(-lin, lin, size=4),
                rng.uniform(-quad, quad, size=(4, 4)))

    eta_base = _unit(rng.normal(size=3)) * rng.uniform(0.8, 1.4)
    eta = [scalar(eta_base[a], lin=0.3, quad=0.1) for a in range(3)]

    # Base n close to +-z keeps (n.z)^2 well away from the xi.z = -1 wall.
    tilt = rng.normal(size=3) * 0.25
    n0 = _unit(z + tilt)
    n_lin = rng.uniform(-0.2, 0.2, size=(3, 4))

    amp = scalar(rng.uniform(0.8, 1.3), lin=0.2, quad=0.08)
    kappa = scalar(rng.uniform(-0.8, 0.8))
    phi = scalar(rng.uniform(-1.0, 1.0))
    c0, c1, c2 = zip(amp, kappa, phi, *eta)
    return ParamField(c0=c0, c1=c1, c2=c2, n0=n0, n_lin=n_lin, z=z)


def _unit(v):
    return v / np.linalg.norm(v)


@dataclass(frozen=True)
class LagrangianPieces:
    """The four kinetic terms, their covariant twins, and the L split."""

    f1: float
    f2: float
    f3: float
    f4: float
    f3_cov: float
    f4_cov: float
    f4_cov_q: float
    l_cl: float
    l_q1: float
    l_q2: float

    @property
    def kinetic_total(self) -> float:
        return self.f1 + self.f2 + self.f3 + self.f4


def _derived_jet(jet: ParamJet):
    """Chain rule from parameter derivatives to (rho, j, v, xi, S) and theirs."""
    p = jet.params
    eta_vec = p.eta
    eta = p.eta_norm
    if eta < 1e-6:
        raise DomainError("field evaluation needs |eta| bounded away from 0")
    v = eta_vec / eta
    d_eta_norm = jet.d_eta @ v                       # (4,)
    d_v = jet.d_eta / eta - d_eta_norm[:, None] * eta_vec / eta ** 2

    # SpinorParams.xi, from the one n.z dot.
    nz = float(p.n.dot(p.z))
    xi = 2.0 * p.n * nz - p.z
    d_xi = 2.0 * jet.d_n * nz + 2.0 * ((jet.d_n @ p.z)[:, None] * p.n)

    rho = p.amplitude ** 2
    d_rho = 2.0 * p.amplitude * jet.d_amp

    ch, sh = float(np.cosh(eta)), float(np.sinh(eta))
    rho_ch, rho_sh = rho * ch, rho * sh
    v1, v2, v3 = v.tolist()
    j = np.array([rho_ch, rho_sh * v1, rho_sh * v2, rho_sh * v3])
    # Row l of d_j: d_rho ch + rho sh d_eta_norm, then
    # (d_rho sh + rho ch d_eta_norm) v + rho sh d_v.
    d_j = []
    for dr, de, (dv1, dv2, dv3) in zip(d_rho.tolist(), d_eta_norm.tolist(), d_v.tolist()):
        c = dr * sh + rho_ch * de
        d_j.append((dr * ch + rho_sh * de, c * v1 + rho_sh * dv1, c * v2 + rho_sh * dv2,
                    c * v3 + rho_sh * dv3))
    d_j = np.array(d_j)

    S = spin_from_xi(xi, j, rho)
    return rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S


#: Signs that raise the derivative index of the eps4 sums of the F4 shapes.
_D_UP = (1.0, -1.0, -1.0, -1.0)


def _sum_of_products(a, b):
    """``sum(a * b)`` of two 4-vectors held as floats, with the products and
    additions of ``sum`` over numpy scalars, from its start value 0.  (From
    Python 3.12 on, ``sum`` of floats compensates its additions.)"""
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def lagrangian_pieces(fld: ParamField, x, m, hbar) -> LagrangianPieces:
    """Evaluate F1..F4 (both shapes each where two exist) and the L split.

    Memoized on ``fld`` by the exact bits of x, m and hbar: a repeated call
    returns the stored (frozen, all-float) result, and a call that raises
    stores nothing.  The oracles ``f3_without_inner_factor`` and
    ``kinetic_term_matrix`` do not read the memo.
    """
    x = np.asarray(x, dtype=float)
    key = (x.shape, x.tobytes(), struct.pack("<2d", m, hbar))
    pieces = fld.memo.get(key)
    if pieces is None:
        pieces = fld.memo[key] = _lagrangian_pieces(fld, x, m, hbar)
    return pieces


def _lagrangian_pieces(fld: ParamField, x, m, hbar) -> LagrangianPieces:
    f = F_REST
    f_list = f.tolist()
    jet = fld.jet(x)
    p = jet.params
    rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S = _derived_jet(jet)

    f1 = -hbar * float(j @ jet.d_phi)
    f2 = -0.5 * hbar * float(S @ jet.d_kappa)

    one_plus = require_off_antipode(1.0 + float(xi.dot(p.z)))
    # det of the matrix with columns (xi, d_xi[l], z), for each l at once.
    cols = np.empty((4, 3, 3))
    cols[:, :, 0] = xi
    cols[:, :, 1] = d_xi
    cols[:, :, 2] = p.z
    j_list = j.tolist()
    f3 = -hbar / (2.0 * one_plus) * _sum_of_products(j_list, det(cols).tolist())

    # Covariant F3 through mu = nu / sqrt(2 (1 + xi.z)); d_nu = d_xi4 - (d_xi4.f) f.
    aux = CovariantAux.from_state(j, rho, xi, p.z)
    d_nu = np.zeros((4, 4))
    d_nu[:, 1:] = d_xi
    d_nu -= np.array(_mdot_rows(d_nu.tolist(), f_list))[:, None] * f
    norm = math.sqrt(2.0 * one_plus)
    d_norm = (d_xi @ p.z) / norm
    d_mu = d_nu / norm - d_norm[:, None] * aux.nu / norm ** 2

    v_list, dv = v.tolist(), d_v.tolist()
    curl_v = np.array([
        dv[2][2] - dv[3][1],
        dv[3][0] - dv[1][2],
        dv[1][1] - dv[2][0],
    ])
    f4 = -0.5 * hbar * rho * (
        float(cross3(d_eta_norm[1:].tolist(), v_list).dot(xi))
        + float(np.sinh(eta)) * float(curl_v.dot(xi))
        + 2.0 * float(np.sinh(eta / 2) ** 2) * float(cross3(v_list, dv[0]).dot(xi))
    )

    # Covariant F4, first from W = j + f rho with upper-index derivatives,
    # then through the unit vector q.
    w = j + f * rho
    d_w = d_j + d_rho[:, None] * f
    rho_jf = rho + mdot(j_list, f_list)
    n2 = 2.0 * rho * rho_jf
    nq = math.sqrt(n2)
    d_nq = np.array([(2.0 * a * rho_jf + 2.0 * rho * (a + b)) / (2.0 * nq)
                     for a, b in zip(d_rho.tolist(), _mdot_rows(d_j.tolist(), f_list))])
    d_q = d_w / nq - d_nq[:, None] * w / n2

    # The three covariant eps4 sums share one det call: block k, derivative
    # l, column i of the (3, 4, 4, 4) stack, with the columns that two blocks
    # share written once.
    cols = np.empty((3, 4, 4, 4))
    cols[0, :, :, 0] = aux.mu
    cols[0, :, :, 1] = d_mu
    cols[0, :, :, 2] = aux.z4
    cols[0, :, :, 3] = f
    cols[1, :, :, 0] = d_w
    cols[1:, :, :, 1] = BASIS4
    cols[1, :, :, 2] = w
    cols[1:, :, :, 3] = aux.nu
    cols[2, :, :, 0] = aux.q
    cols[2, :, :, 2] = d_q
    eps_mu, eps_w, eps_q = det(cols).tolist()
    f3_cov = hbar * _sum_of_products(j_list, eps_mu)
    f4_cov = -hbar / (2.0 * rho_jf) * _sum_of_products(_D_UP, eps_w)
    f4_cov_q = hbar * rho * _sum_of_products(_D_UP, eps_q)

    l_cl = -m * rho + f1 + f3
    l_q1 = 2.0 * m * rho * float(np.sin(p.kappa / 2)) ** 2 + f2
    l_q2 = f4

    return LagrangianPieces(f1=f1, f2=f2, f3=f3, f4=f4,
                            f3_cov=f3_cov, f4_cov=f4_cov, f4_cov_q=f4_cov_q,
                            l_cl=l_cl, l_q1=l_q1, l_q2=l_q2)


def f3_without_inner_factor(fld: ParamField, x, hbar) -> float:
    """F3 with the normalization kept outside the derivative.

    Moving [2(1 + xi.z)]^(-1/2) in or out of d_s mu cannot change the value
    because the leftover term contracts xi with itself inside the epsilon.
    Used as a regularization-invariance oracle.
    """
    f = F_REST
    jet = fld.jet(x)
    p = jet.params
    rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S = _derived_jet(jet)
    aux = CovariantAux.from_state(j, rho, xi, p.z)
    d_nu = np.zeros((4, 4))
    d_nu[:, 1:] = d_xi
    d_nu -= np.array(_mdot_rows(d_nu.tolist(), f.tolist()))[:, None] * f
    one_plus = 1.0 + float(xi.dot(p.z))
    eps = eps4_stack(aux.nu, d_nu, aux.z4, f).tolist()
    return hbar / (2.0 * one_plus) * _sum_of_products(j.tolist(), eps)


def kinetic_term_matrix(fld: ParamField, x, g: GammaBasis, hbar, h=1e-4) -> float:
    """Kinetic term i/2 hbar (psi-bar gamma^l d_l psi - h.c.) by central FD.

    The matrix spinor psi = M Pi is the outer product of the spinor column c
    with the conjugated unit projector column of ``g``, so the trace of the
    4x4 sum is the column bilinear i/2 hbar sum_l (c-bar gamma^l d_l c - h.c.)
    = -hbar Im sum_l c-bar gamma^l d_l c, with c-bar = c^dagger gamma^0; it is
    real by construction.  Central differences of step h give d_l c with an
    O(h^2) truncation error against the closed forms.
    """
    if not (1e-6 <= h <= 1e-3):
        raise DomainError(f"step h must lie in [1e-6, 1e-3], got {h!r}")
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(4)
    # One evaluation of the stencil x, x + h e_l, x - h e_l (l = 0..3).
    s, raw = fld.values(np.concatenate((x[None], x + steps, x - steps)))
    n, _ = _unit_n(raw)
    c = spinor_columns(s[:, 0], s[:, 1], s[:, 2], s[:, 3:], n, g.pi_column)
    d_c = (c[1:5] - c[5:]) / (2.0 * h)                  # row l is d_l c
    bar0 = c[0].conj() @ GAMMA[0]
    return float(-hbar * np.sum((bar0 @ GAMMA) * d_c).imag)
