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
by finite differences of the matrix spinor, which is the independent oracle
for the whole decomposition.

Derivative layout: ``d_l u`` arrays are indexed by the coordinate l = 0..3
and hold plain lower-index derivatives; raising flips spatial signs.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import GammaBasis, SpinorParams, spin_from_xi
from .errors import (
    DomainError,
    LightlikeFluxError,
    NumericConsistencyError,
    SingularDenominatorError,
)
from .minkowski import BASIS4, cross3, eps4, mdot

# The frame vector f of the covariant shapes: the rest frame.
F_DEFAULT = np.array([1.0, 0.0, 0.0, 0.0])


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


def quasi_uniformity(j, grad_u, u, m, hbar, c=1.0):
    """Local uniformity measure: (hbar/mc) |transversal gradient| / |u|.

    The transversal gradient of u is spacelike for timelike j, so its
    Minkowski square is negative; the returned value uses
    sqrt((j.du)^2/(j.j) - du.du) which is +|d_perp u|.  Values much below 1
    mean the state varies negligibly over a Compton wavelength transversally
    to the flux.
    """
    if abs(u) < 1e-300:
        raise DomainError("quantity u is zero; relative variation undefined")
    j = np.asarray(j, dtype=float)
    grad_u = np.asarray(grad_u, dtype=float)
    jj = mdot(j, j)
    if jj <= 0:
        raise LightlikeFluxError(f"flux must be timelike, got j.j = {jj!r}")
    radicand = mdot(j, grad_u) ** 2 / jj - mdot(grad_u, grad_u)
    if radicand < -1e-12:
        raise NumericConsistencyError(
            f"transversal gradient norm came out imaginary (radicand {radicand:.3e})")
    return (hbar / (m * c)) * np.sqrt(max(radicand, 0.0)) / abs(u)


@dataclass(frozen=True)
class CovariantAux:
    """Auxiliary unit vectors entering the covariant F3/F4 shapes."""

    f: np.ndarray      # constant unit timelike 4-vector
    z4: np.ndarray     # (0, z)
    nu: np.ndarray     # xi4 - (xi4.f) f, unit spacelike
    mu: np.ndarray     # nu / sqrt(2 (1 + xi.z))
    q: np.ndarray      # (j + f rho) / sqrt(2 rho (rho + j.f)), unit timelike

    @classmethod
    def from_state(cls, j, rho, xi, z):
        f = F_DEFAULT
        xi4 = np.concatenate(([0.0], xi))
        z4 = np.concatenate(([0.0], z))
        nu = xi4 - mdot(xi4, f) * f
        one_plus = 1.0 + float(np.dot(xi, z))
        if one_plus < 1e-9:
            raise SingularDenominatorError("1 + xi.z below tolerance (antipodal xi, z)")
        mu = nu / np.sqrt(2.0 * one_plus)
        jf = mdot(np.asarray(j, dtype=float), f)
        norm2 = 2.0 * rho * (rho + jf)
        if norm2 < 1e-9:
            raise SingularDenominatorError("rho (rho + j.f) below tolerance")
        q = (np.asarray(j, dtype=float) + f * rho) / np.sqrt(norm2)
        return cls(f=f, z4=z4, nu=nu, mu=mu, q=q)


@dataclass(frozen=True)
class ParamJet:
    """Parameter values and their first coordinate derivatives at a point."""

    params: SpinorParams
    d_amp: np.ndarray     # (4,)
    d_kappa: np.ndarray   # (4,)
    d_phi: np.ndarray     # (4,)
    d_eta: np.ndarray     # (4, 3): d_eta[l] = d_l eta-vector
    d_n: np.ndarray       # (4, 3)


class _PolyScalar:
    """Quadratic scalar field c0 + c.x + x.Q.x with exact derivatives."""

    def __init__(self, c0, c1, c2):
        self.c0 = float(c0)
        self.c1 = np.asarray(c1, dtype=float)
        self.c2 = 0.5 * (np.asarray(c2, dtype=float) + np.asarray(c2, dtype=float).T)

    def value(self, x):
        return self.c0 + float(self.c1 @ x) + float(x @ self.c2 @ x)

    def grad(self, x):
        return self.c1 + 2.0 * (self.c2 @ x)


@dataclass
class ParamField:
    """Smooth map from spacetime points to spinor parameters.

    The amplitude, kappa, phi and the three rapidity components are quadratic
    polynomials; n comes from normalizing an affine raw field, which keeps
    |n| = 1 and n.d_l n = 0 by construction.  Derivatives are analytic.
    """

    amp: _PolyScalar
    kappa: _PolyScalar
    phi: _PolyScalar
    eta: list                 # three _PolyScalar components
    n0: np.ndarray            # base direction of the raw n field
    n_lin: np.ndarray         # (3, 4) linear part of the raw n field
    z: np.ndarray

    def jet(self, x) -> ParamJet:
        x = np.asarray(x, dtype=float)
        raw = self.n0 + self.n_lin @ x
        r = np.linalg.norm(raw)
        if r < 1e-9:
            raise DomainError("raw n field vanished at the evaluation point")
        n = raw / r
        d_n = np.empty((4, 3))
        for l in range(4):
            dr = self.n_lin[:, l]
            d_n[l] = dr / r - raw * float(raw @ dr) / r ** 3

        params = SpinorParams(
            amplitude=self.amp.value(x),
            kappa=self.kappa.value(x),
            phi=self.phi.value(x),
            eta=np.array([c.value(x) for c in self.eta]),
            n=n,
            z=self.z,
        )
        d_eta = np.stack([c.grad(x) for c in self.eta], axis=1)
        return ParamJet(
            params=params,
            d_amp=self.amp.grad(x),
            d_kappa=self.kappa.grad(x),
            d_phi=self.phi.grad(x),
            d_eta=d_eta,
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
        return _PolyScalar(base, rng.uniform(-lin, lin, size=4),
                           rng.uniform(-quad, quad, size=(4, 4)))

    eta_base = _unit(rng.normal(size=3)) * rng.uniform(0.8, 1.4)
    eta = [scalar(eta_base[a], lin=0.3, quad=0.1) for a in range(3)]

    # Base n close to +-z keeps (n.z)^2 well away from the xi.z = -1 wall.
    tilt = rng.normal(size=3) * 0.25
    n0 = _unit(z + tilt)
    n_lin = rng.uniform(-0.2, 0.2, size=(3, 4))

    return ParamField(
        amp=scalar(rng.uniform(0.8, 1.3), lin=0.2, quad=0.08),
        kappa=scalar(rng.uniform(-0.8, 0.8)),
        phi=scalar(rng.uniform(-1.0, 1.0)),
        eta=eta,
        n0=n0,
        n_lin=n_lin,
        z=z,
    )


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
    d_v = jet.d_eta / eta - np.outer(d_eta_norm, eta_vec) / eta ** 2

    nz = float(np.dot(p.n, p.z))
    xi = p.xi
    d_xi = 2.0 * jet.d_n * nz + 2.0 * np.outer(jet.d_n @ p.z, p.n)

    rho = p.amplitude ** 2
    d_rho = 2.0 * p.amplitude * jet.d_amp

    ch, sh = np.cosh(eta), np.sinh(eta)
    j = np.concatenate(([rho * ch], rho * sh * v))
    d_j = np.empty((4, 4))
    d_j[:, 0] = d_rho * ch + rho * sh * d_eta_norm
    d_j[:, 1:] = (np.outer(d_rho * sh + rho * ch * d_eta_norm, v)
                  + rho * sh * d_v)

    S = spin_from_xi(xi, j, rho)
    return rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S


def lagrangian_pieces(fld: ParamField, x, m, hbar) -> LagrangianPieces:
    """Evaluate F1..F4 (both shapes each where two exist) and the L split."""
    f = F_DEFAULT
    jet = fld.jet(np.asarray(x, dtype=float))
    p = jet.params
    rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S = _derived_jet(jet)

    f1 = -hbar * float(j @ jet.d_phi)
    f2 = -0.5 * hbar * float(S @ jet.d_kappa)

    one_plus = 1.0 + float(np.dot(xi, p.z))
    if one_plus < 1e-9:
        raise SingularDenominatorError("1 + xi.z below tolerance (antipodal xi, z)")
    # det of the matrix with columns (xi, d_xi[l], z), for each l at once.
    cols = np.empty((4, 3, 3))
    cols[:, :, 0] = xi
    cols[:, :, 1] = d_xi
    cols[:, :, 2] = p.z
    dets = np.linalg.det(cols)
    f3 = -hbar / (2.0 * one_plus) * sum(j[l] * dets[l] for l in range(4))

    # Covariant F3 through mu = nu / sqrt(2 (1 + xi.z)).
    aux = CovariantAux.from_state(j, rho, xi, p.z)
    d_nu = np.zeros((4, 4))
    d_nu[:, 1:] = d_xi
    d_nu -= np.outer(np.array([mdot(d_nu[l], f) for l in range(4)]), f)
    norm = np.sqrt(2.0 * one_plus)
    d_norm = (d_xi @ p.z) / norm
    d_mu = d_nu / norm - np.outer(d_norm, aux.nu) / norm ** 2
    f3_cov = hbar * sum(j[s] * eps4(aux.mu, d_mu[s], aux.z4, f) for s in range(4))

    grad_eta_sp = d_eta_norm[1:]
    curl_v = np.array([
        d_v[2, 2] - d_v[3, 1],
        d_v[3, 0] - d_v[1, 2],
        d_v[1, 1] - d_v[2, 0],
    ])
    f4 = -0.5 * hbar * rho * float(
        np.dot(cross3(grad_eta_sp, v), xi)
        + np.sinh(eta) * np.dot(curl_v, xi)
        + 2.0 * np.sinh(eta / 2) ** 2 * np.dot(cross3(v, d_v[0]), xi)
    )

    # Covariant F4, first from W = j + f rho with upper-index derivatives.
    w = j + f * rho
    d_w = d_j + np.outer(d_rho, f)
    d_up = np.array([1.0, -1.0, -1.0, -1.0])
    jf = mdot(j, f)
    f4_cov = -hbar / (2.0 * (rho + jf)) * sum(
        d_up[k] * eps4(d_w[k], BASIS4[k], w, aux.nu) for k in range(4)
    )

    # Same term through the unit vector q.
    n2 = 2.0 * rho * (rho + jf)
    d_n2 = 2.0 * d_rho * (rho + jf) + 2.0 * rho * (
        d_rho + np.array([mdot(d_j[l], f) for l in range(4)]))
    nq = np.sqrt(n2)
    d_nq = d_n2 / (2.0 * nq)
    d_q = d_w / nq - np.outer(d_nq, w) / n2
    f4_cov_q = hbar * rho * sum(
        d_up[k] * eps4(aux.q, BASIS4[k], d_q[k], aux.nu) for k in range(4)
    )

    l_cl = -m * rho + f1 + f3
    l_q1 = 2.0 * m * rho * np.sin(p.kappa / 2) ** 2 + f2
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
    f = F_DEFAULT
    jet = fld.jet(np.asarray(x, dtype=float))
    p = jet.params
    rho, d_rho, j, d_j, eta, d_eta_norm, v, d_v, xi, d_xi, S = _derived_jet(jet)
    aux = CovariantAux.from_state(j, rho, xi, p.z)
    d_nu = np.zeros((4, 4))
    d_nu[:, 1:] = d_xi
    d_nu -= np.outer(np.array([mdot(d_nu[l], f) for l in range(4)]), f)
    one_plus = 1.0 + float(np.dot(xi, p.z))
    return hbar / (2.0 * one_plus) * sum(
        j[s] * eps4(aux.nu, d_nu[s], aux.z4, f) for s in range(4)
    )


def kinetic_term_matrix(fld: ParamField, x, g: GammaBasis, hbar, h=1e-4) -> float:
    """Kinetic term i/2 hbar (psi-bar gamma^l d_l psi - h.c.) by central FD.

    Spinors are evaluated as full 4x4 matrices psi = M Pi; the product is an
    exact multiple of Pi, so the scalar is its trace.  Central differences of
    step h give an O(h^2) truncation error against the closed forms.
    """
    if not (1e-6 <= h <= 1e-3):
        raise DomainError(f"step h must lie in [1e-6, 1e-3], got {h!r}")
    from .algebra import spinor_from_params

    x = np.asarray(x, dtype=float)

    def psi_matrix(pt):
        return spinor_from_params(fld.params(pt), g).matrix(g)

    psi0 = psi_matrix(x)
    bar0 = psi0.conj().T @ g.gamma[0]
    total = np.zeros((4, 4), dtype=complex)
    for l in range(4):
        step = np.zeros(4)
        step[l] = h
        psi_p = psi_matrix(x + step)
        psi_m = psi_matrix(x - step)
        d_psi = (psi_p - psi_m) / (2.0 * h)
        d_bar = (psi_p.conj().T - psi_m.conj().T) @ g.gamma[0] / (2.0 * h)
        total += 0.5j * hbar * (bar0 @ g.gamma[l] @ d_psi - d_bar @ g.gamma[l] @ psi0)

    a = np.trace(total)
    off = np.abs(total - a * g.pi_projector).max()
    if not off <= 1e-6:
        raise NumericConsistencyError(
            f"kinetic term is not a multiple of the projector (off residual {off:.3e})")
    if not abs(a.imag) <= 1e-6:
        raise NumericConsistencyError(
            f"kinetic term scalar has imaginary part {a.imag:.3e}")
    return float(a.real)


STATIONARY_SIN_TOL = 1e-9


@dataclass(frozen=True)
class EffectiveMassBranch:
    """cos(kappa) snapped to +-1 when kappa is stationary (sin kappa = 0)."""

    value: float
    stationary: bool


def effective_mass_branch(kappa) -> EffectiveMassBranch:
    """Classify kappa against the stationarity condition sin(kappa) = 0.

    Stationary kappa gives effective mass +-m (cosine snapped exactly to
    +-1); anything else is flagged non-stationary and returns the raw cosine.
    """
    s = np.sin(kappa)
    c = float(np.cos(kappa))
    if abs(s) < STATIONARY_SIN_TOL:
        return EffectiveMassBranch(value=float(np.sign(c)), stationary=True)
    return EffectiveMassBranch(value=c, stationary=False)
