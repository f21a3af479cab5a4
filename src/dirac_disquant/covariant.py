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
``ParamField.jet``, ``CovariantAux.from_state`` and the F3 oracle
``f3_without_inner_factor`` take one point or a stack of N; one point is the
N = 1 row of the same body.  ``_derived_jet`` and the body of
``lagrangian_pieces`` take stacks only: ``prefill_pieces`` makes one body
call per stack of points, and a ``lagrangian_pieces`` call at one point is
the one-row stack.  Each row must keep the bits of a one-point evaluation,
so every contraction is a stacked ``np.matmul`` that keeps the one-row and
one-column shapes of the one-point product, e.g. ``matmul(X[:, None, None,
:], c1[:, :, None])`` for c1.x or ``algebra._dot3`` for j.d(phi): numpy
then calls the same BLAS ``ddot`` or ``gemv`` per row, on C-contiguous rows
as the one-point product did.  A flat ``X @ c1.T`` or an ``einsum`` picks another
kernel and another summation order, and the last bits change; a hand-written
three-term sum in place of the ``ddot`` of ``cross3(grad, v).dot(xi)`` in F4
moved three appendixB residuals of the ``verify all --seed 123`` report.
Each ``det`` is one ``minkowski.det`` call over the stacked blocks (the
three covariant ``eps4`` sums share one (N, 3, 4, 4, 4) stack), LAPACK
factors each matrix on its own, and each sum keeps the Python ``sum`` order
over numpy scalars (``_sum_of_products``).  Outer products are broadcast
multiplies ``a[:, None] * b``, the products ``np.outer`` makes.  An array
cube or square is ``np.float_power(r, 3.0)`` or ``np.float_power(A, 2.0)``,
the libm ``pow`` of a scalar ``**``: an array ``r ** 3`` or ``A ** 2`` takes
another kernel and rounds some rows differently.  ``cosh``, ``sinh`` and
``sin`` stay numpy ufuncs (numpy's SIMD ``cosh`` and ``sinh`` differ from
``math``'s in the last bit).

A stack fails as a whole: if any row meets a wall, the call raises that
wall's DomainError subclass before it divides by anything the wall makes
zero, and ``prefill_pieces`` stores nothing.  Each wall is decided in one
place.  The antipodal wall 1 + xi.z below ``algebra.XI_Z_TOL`` is
``algebra.require_off_antipode``, which the body of ``lagrangian_pieces``
and ``CovariantAux.from_state`` each call with the 1 + xi.z rows they
compute themselves, and whose return value they divide by.  A vanishing
amplitude stops at ``algebra.spin_from_xi`` (rho + j^0 = 0) or, when small
but not zero, at the rho (rho + j.f) check of ``CovariantAux.from_state``;
|eta| near 0 stops at ``_derived_jet``, and a vanishing or overflowing raw n
field at ``_unit_n``.  ``f3_without_inner_factor`` reads none of these
routes: it checks the same walls over every row of its stack, with the
antipodal one through ``require_off_antipode`` of its smallest 1 + xi.z.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    GAMMA,
    GammaBasis,
    SpinorParams,
    _check_unit3,
    _dot3,
    bilinears_closed_form,
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


@dataclass(frozen=True)
class CovariantAux:
    """Auxiliary unit vectors entering the covariant F3/F4 shapes; f is ``F_REST``.

    Each is a 4-vector for one state and an (N, 4) stack for N states.
    """

    z4: np.ndarray     # (0, z)
    nu: np.ndarray     # xi4 - (xi4.f) f, unit spacelike
    mu: np.ndarray     # nu / sqrt(2 (1 + xi.z))
    q: np.ndarray      # (j + f rho) / sqrt(2 rho (rho + j.f)), unit timelike

    @classmethod
    def from_state(cls, j, rho, xi, z):
        """The vectors of one state, j (4,), rho, xi (3,) and z (3,), or of
        each row of j (N, 4), rho (N,) and xi (N, 3), with z (3,) or (N, 3);
        one state is the one-row stack."""
        j = np.asarray(j, dtype=float)
        rows = j.reshape(-1, 4)
        rho = np.asarray(rho, dtype=float).reshape(-1)
        xi = np.asarray(xi, dtype=float).reshape(-1, 3)
        z = np.broadcast_to(np.asarray(z, dtype=float), xi.shape)
        xi4, z4 = np.zeros((2, len(xi), 4))
        xi4[:, 1:], z4[:, 1:] = xi, z
        nu = xi4 - mdot(xi4.T, F_REST)[:, None] * F_REST
        norm = np.sqrt(2.0 * require_off_antipode(1.0 + _dot3(xi, z)[:, 0]))
        norm2 = 2.0 * rho * (rho + mdot(rows.T, F_REST))
        if not norm2.min() >= 1e-9:
            raise SingularDenominatorError("rho (rho + j.f) below tolerance")
        q = (rows + F_REST * rho[:, None]) / np.sqrt(norm2)[:, None]
        aux = (z4, nu, nu / norm[:, None], q)
        return cls(*(a[0] for a in aux) if j.ndim == 1 else aux)


@dataclass(frozen=True)
class ParamJet:
    """Parameter values and their first coordinate derivatives at a point,
    or at each of N points: then ``params`` is a stack and each array below
    gains a leading axis of N rows."""

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
        """The jet at one point x (4,), or at each row of a stack x (N, 4);
        one point is the one-row stack, and each row has the bits of a
        one-point evaluation, so the cube r^3 of the raw n norm is
        ``np.float_power``, not an array ``**``."""
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        s, raw = self.values(X)
        n, r = _unit_n(raw)
        # d_l n = d_l raw / r - raw (raw . d_l raw) / r^3, with d_l raw = n_lin[:, l].
        dr = self.n_lin.T
        raw_dr = np.matmul(raw[:, None, None, :], dr[:, :, None])[..., 0]
        d_n = dr / r[:, :, None] - raw[:, None, :] * raw_dr / np.float_power(r, 3.0)[:, :, None]
        grad = self.c1 + 2.0 * np.matmul(self.c2, X[:, None, :, None])[..., 0]
        if x.ndim == 1:
            (amplitude, kappa, phi), z = s[0, :3].tolist(), self.z
            s, n, d_n, grad = s[0], n[0], d_n[0], grad[0]
        else:
            amplitude, kappa, phi, z = s[:, 0], s[:, 1], s[:, 2], np.broadcast_to(self.z, n.shape)
        return ParamJet(
            params=SpinorParams(amplitude=amplitude, kappa=kappa, phi=phi, eta=s[..., 3:],
                                n=n, z=z),
            d_amp=grad[..., 0, :],
            d_kappa=grad[..., 1, :],
            d_phi=grad[..., 2, :],
            # C order keeps the BLAS kernel of d_eta @ v in _derived_jet.
            d_eta=np.ascontiguousarray(np.swapaxes(grad[..., 3:, :], -1, -2)),
            d_n=d_n,
        )


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
    """Chain rule from parameter derivatives to (rho, j, v, xi, S) and theirs,
    row by row for the jet of a stack of N points."""
    p = jet.params
    eta_vec = p.eta
    eta = p.eta_norm
    if not eta.min() >= 1e-6:
        raise DomainError("field evaluation needs |eta| bounded away from 0")
    v = eta_vec / eta[:, None]
    d_eta_norm = np.matmul(jet.d_eta, v[:, :, None])[..., 0]       # (N, 4)
    d_v = (jet.d_eta / eta[:, None, None]
           - d_eta_norm[:, :, None] * eta_vec[:, None, :]
           / np.float_power(eta, 2.0)[:, None, None])

    # SpinorParams.xi, from the one n.z dot.
    nz = _dot3(p.n, p.z)
    xi = 2.0 * p.n * nz - p.z
    d_xi = 2.0 * jet.d_n * nz[:, :, None] + 2.0 * (np.matmul(jet.d_n, p.z[:, :, None])
                                                   * p.n[:, None, :])

    rho = np.float_power(p.amplitude, 2.0)
    d_rho = (2.0 * p.amplitude)[:, None] * jet.d_amp

    ch, sh = np.cosh(eta), np.sinh(eta)
    rho_ch, rho_sh = rho * ch, rho * sh
    j = np.empty((len(rho), 4))
    j[:, 0] = rho_ch
    j[:, 1:] = rho_sh[:, None] * v
    # Row l of d_j: d_rho ch + rho sh d_eta_norm, then
    # (d_rho sh + rho ch d_eta_norm) v + rho sh d_v.
    c = d_rho * sh[:, None] + rho_ch[:, None] * d_eta_norm
    d_j = np.empty((len(rho), 4, 4))
    d_j[..., 0] = d_rho * ch[:, None] + rho_sh[:, None] * d_eta_norm
    d_j[..., 1:] = c[..., None] * v[:, None, :] + rho_sh[:, None, None] * d_v

    S = spin_from_xi(xi, j, rho)
    return rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S


#: Signs that raise the derivative index of the eps4 sums of the F4 shapes.
_D_UP = (1.0, -1.0, -1.0, -1.0)


def _sum_of_products(a, b):
    """``sum(a * b)`` of two 4-vectors, with the products and additions of
    ``sum`` over numpy scalars, from its start value 0, or of each column of
    two (4, N) arrays.  (From Python 3.12 on, ``sum`` of floats compensates
    its additions.)"""
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _cross_rows(a, b):
    """``cross3`` of each row pair of two (N, 3) stacks, C-contiguous."""
    return np.ascontiguousarray(cross3(a.T, b.T).T)


def _memo_key(x, m, hbar):
    """The ``lagrangian_pieces`` memo key of one point x: the exact bits of
    x, m and hbar."""
    return (x.shape, x.tobytes(), struct.pack("<2d", m, hbar))


def lagrangian_pieces(fld: ParamField, x, m, hbar) -> LagrangianPieces:
    """Evaluate F1..F4 (both shapes each where two exist) and the L split at
    one point x (4,).

    Memoized on ``fld`` by the exact bits of x, m and hbar: a repeated call
    returns the stored (frozen, all-float) result, and a call that raises
    stores nothing.  ``prefill_pieces`` stores the pieces of a whole stack
    of points from one body call, and a call at one of its rows reads them.
    The oracles ``f3_without_inner_factor`` and ``kinetic_term_matrix`` do
    not read the memo.
    """
    x = np.asarray(x, dtype=float)
    key = _memo_key(x, m, hbar)
    pieces = fld.memo.get(key)
    if pieces is None:
        (pieces,) = _lagrangian_pieces(fld, x[None], m, hbar)
        fld.memo[key] = pieces
    return pieces


def prefill_pieces(fld: ParamField, X, m, hbar) -> None:
    """Store the pieces of each row of X (N, 4) in ``fld.memo``, under the key
    of a ``lagrangian_pieces`` call at that row, from one body call; if any
    row meets a wall, raise its DomainError and store nothing."""
    X = np.asarray(X, dtype=float)
    for x, pieces in zip(X, _lagrangian_pieces(fld, X, m, hbar)):
        fld.memo[_memo_key(x, m, hbar)] = pieces


def _lagrangian_pieces(fld: ParamField, X, m, hbar) -> list:
    """The body of ``lagrangian_pieces``: one ``LagrangianPieces`` for each
    row of X (N, 4), each with the bits of the one-row stack."""
    f = F_REST
    jet = fld.jet(X)
    p = jet.params
    rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S = _derived_jet(jet)

    f1 = -hbar * _dot3(j, jet.d_phi)[:, 0]
    f2 = -0.5 * hbar * _dot3(S, jet.d_kappa)[:, 0]

    one_plus = require_off_antipode(1.0 + _dot3(xi, p.z)[:, 0])
    # det of the matrix with columns (xi, d_xi[l], z), for each row and l at once.
    cols = np.empty((len(rho), 4, 3, 3))
    cols[..., 0] = xi[:, None, :]
    cols[..., 1] = d_xi
    cols[..., 2] = p.z[:, None, :]
    f3 = -hbar / (2.0 * one_plus) * _sum_of_products(j.T, det(cols).T)

    # Covariant F3 through mu = nu / sqrt(2 (1 + xi.z)); d_nu = d_xi4 - (d_xi4.f) f.
    aux = CovariantAux.from_state(j, rho, xi, p.z)
    d_nu = np.zeros((len(rho), 4, 4))
    d_nu[..., 1:] = d_xi
    d_nu -= mdot(np.moveaxis(d_nu, -1, 0), f)[..., None] * f
    norm = np.sqrt(2.0 * one_plus)
    d_norm = np.matmul(d_xi, p.z[:, :, None])[..., 0] / norm[:, None]
    d_mu = (d_nu / norm[:, None, None]
            - d_norm[:, :, None] * aux.nu[:, None, :] / np.float_power(norm, 2.0)[:, None, None])

    curl_v = np.stack([d_v[:, 2, 2] - d_v[:, 3, 1],
                       d_v[:, 3, 0] - d_v[:, 1, 2],
                       d_v[:, 1, 1] - d_v[:, 2, 0]], axis=1)
    f4 = -0.5 * hbar * rho * (
        _dot3(_cross_rows(d_eta_norm[:, 1:], v), xi)
        + np.sinh(eta)[:, None] * _dot3(curl_v, xi)
        + 2.0 * np.float_power(np.sinh(eta / 2), 2.0)[:, None]
        * _dot3(_cross_rows(v, d_v[:, 0]), xi)
    )[:, 0]

    # Covariant F4, first from W = j + f rho with upper-index derivatives,
    # then through the unit vector q.
    w = j + f * rho[:, None]
    d_w = d_j + d_rho[..., None] * f
    rho_jf = rho + mdot(j.T, f)
    n2 = 2.0 * rho * rho_jf
    nq = np.sqrt(n2)
    d_nq = ((2.0 * d_rho * rho_jf[:, None]
             + 2.0 * rho[:, None] * (d_rho + mdot(np.moveaxis(d_j, -1, 0), f)))
            / (2.0 * nq)[:, None])
    d_q = d_w / nq[:, None, None] - d_nq[..., None] * w[:, None, :] / n2[:, None, None]

    # The three covariant eps4 sums share one det call: row, block k,
    # derivative l, column i of the (N, 3, 4, 4, 4) stack, with the columns
    # that two blocks share written once.
    cols = np.empty((len(rho), 3, 4, 4, 4))
    cols[:, 0, ..., 0] = aux.mu[:, None, :]
    cols[:, 0, ..., 1] = d_mu
    cols[:, 0, ..., 2] = aux.z4[:, None, :]
    cols[:, 0, ..., 3] = f
    cols[:, 1, ..., 0] = d_w
    cols[:, 1:, ..., 1] = BASIS4
    cols[:, 1, ..., 2] = w[:, None, :]
    cols[:, 1:, ..., 3] = aux.nu[:, None, None, :]
    cols[:, 2, ..., 0] = aux.q[:, None, :]
    cols[:, 2, ..., 2] = d_q
    eps_mu, eps_w, eps_q = np.moveaxis(det(cols), 1, 0)
    f3_cov = hbar * _sum_of_products(j.T, eps_mu.T)
    f4_cov = -hbar / (2.0 * rho_jf) * _sum_of_products(_D_UP, eps_w.T)
    f4_cov_q = hbar * rho * _sum_of_products(_D_UP, eps_q.T)

    l_cl = -m * rho + f1 + f3
    l_q1 = 2.0 * m * rho * np.float_power(np.sin(p.kappa / 2), 2.0) + f2
    l_q2 = f4

    columns = (f1, f2, f3, f4, f3_cov, f4_cov, f4_cov_q, l_cl, l_q1, l_q2)
    return [LagrangianPieces(*row) for row in zip(*(c.tolist() for c in columns))]


def f3_without_inner_factor(fld: ParamField, x, hbar):
    """F3 with the normalization kept outside the derivative: a float at one
    point x (4,), or the (N,) array of its values at the rows of a stack
    x (N, 4).

    Moving [2(1 + xi.z)]^(-1/2) in or out of d_s mu cannot change the value
    because the leftover term contracts xi with itself inside the epsilon.
    Used as a regularization-invariance oracle.  It reads the field through
    ``ParamField.values``, a ``SpinorParams`` stack and
    ``bilinears_closed_form``, not through ``jet``, ``_derived_jet`` or
    ``CovariantAux``; one point is the one-row stack, and each row has the
    bits of a one-point call, so the cube r^3 of the raw n norm is
    ``np.float_power``, not an array ``**``.  The walls are those of
    ``lagrangian_pieces``: DomainError if any row meets one.
    """
    x = np.asarray(x, dtype=float)
    s, raw = fld.values(np.atleast_2d(x))
    n, r = _unit_n(raw)
    # d_l n = d_l raw / r - raw (raw . d_l raw) / r^3, with d_l raw = n_lin[:, l].
    dr = fld.n_lin.T
    raw_dr = np.matmul(raw[:, None, None, :], dr[:, :, None])[..., 0]
    d_n = dr / r[:, :, None] - raw[:, None, :] * raw_dr / np.float_power(r, 3.0)[:, :, None]
    p = SpinorParams(amplitude=s[:, 0], kappa=s[:, 1], phi=s[:, 2], eta=s[:, 3:], n=n,
                     z=np.broadcast_to(fld.z, n.shape))
    if not p.eta_norm.min() >= 1e-6:
        raise DomainError("field evaluation needs |eta| bounded away from 0")
    bc = bilinears_closed_form(p)
    xi, nz = p.xi, _dot3(n, p.z)
    d_xi = 2.0 * d_n * nz[:, :, None] + 2.0 * ((d_n @ fld.z)[..., None] * n[:, None, :])
    one_plus = 1.0 + _dot3(xi, p.z)[:, 0]
    require_off_antipode(one_plus.min())
    if not (2.0 * bc.rho * (bc.rho + mdot(bc.j.T, F_REST))).min() >= 1e-9:
        raise SingularDenominatorError("rho (rho + j.f) below tolerance")
    # nu = xi4 - (xi4.f) f and d_nu = d_xi4 - (d_xi4.f) f, row by row.
    nu = np.zeros((len(xi), 4))
    nu[:, 1:] = xi
    nu -= mdot(nu.T, F_REST)[:, None] * F_REST
    d_nu = np.zeros((len(xi), 4, 4))
    d_nu[..., 1:] = d_xi
    d_nu -= mdot(np.moveaxis(d_nu, -1, 0), F_REST)[..., None] * F_REST
    eps = eps4_stack(nu[:, None, :], d_nu, np.array([0.0, *fld.z.tolist()]), F_REST)
    f3 = hbar / (2.0 * one_plus) * _sum_of_products(bc.j.T, eps.T)
    return float(f3[0]) if x.ndim == 1 else f3


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
