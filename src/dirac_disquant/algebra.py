"""Dirac gamma matrices, spinors from hydrodynamic parameters, and bilinears.

A state of the spinor field is held as eight real parameters: an amplitude
``A``, a pseudoscalar angle ``kappa``, a phase ``phi``, a rapidity 3-vector
``eta`` and a unit 3-vector ``n``, together with a fixed unit 3-vector ``z``
that selects the rank-1 projector ``Pi``.  The spinor is the matrix product

    psi = A exp(i phi + gamma5 kappa / 2) exp(-i gamma5 sigma.eta / 2)
            exp(i pi/2 sigma.n) Pi

and the module evaluates its bilinears (scalar, flux 4-vector ``j``, spin
4-pseudovector ``S``) twice: by direct matrix algebra and by closed forms in
the parameters.  The two routes are compared by the verification suites.

Representation.  The Dirac matrices do not depend on z, so they are the
read-only module constants ``GAMMA`` (gamma^k, shape (4, 4, 4)), ``GAMMA5``,
``SIGMA`` (shape (3, 4, 4)) and ``METRIC``; ``sigma_dot`` contracts SIGMA
with a 3-vector.  A ``GammaBasis`` holds only what z fixes: the projector
``Pi`` and the unit column spanning its range.  A spinor is that column
multiplied by the three exponential factors, a complex (4,) array; the
matrix spinor psi = M Pi is its outer product with the conjugated column.

Conventions.  Metric diag(+1,-1,-1,-1); standard Dirac basis for gamma^k.
The spin matrices are fixed by the Pauli relation

    sigma_a sigma_b = delta_ab + i eps_abc sigma_c

which forces sigma_a = +i gamma^b gamma^c (cyclic) and
gamma5 = -gamma^0 gamma^1 gamma^2 gamma^3, so that
gamma^0 gamma^a = -i gamma5 sigma_a holds.  All operations below are
basis-independent; only these product relations matter.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LightlikeFluxError, NumericConsistencyError

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

def _check_unit3(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise DomainError(f"{name} must be a 3-vector")
    if not abs(np.dot(v, v) - 1.0) <= 1e-10:
        raise DomainError(f"{name} must be a unit vector, got |{name}|^2 = {np.dot(v, v)!r}")
    return v


def _dirac_matrices():
    """gamma^k, gamma5 and sigma_a of the standard Dirac representation."""
    ident2 = np.eye(2, dtype=complex)
    zero2 = np.zeros((2, 2), dtype=complex)

    gamma = np.empty((4, 4, 4), dtype=complex)
    gamma[0] = np.block([[ident2, zero2], [zero2, -ident2]])
    for a in range(3):
        gamma[a + 1] = np.block([[zero2, _PAULI[a]], [-_PAULI[a], zero2]])

    # gamma5 = -g0 g1 g2 g3; sigma_a = +i g^b g^c (cyclic).  These signs make
    # the Pauli relation close with eps_123 = +1 and g0 g^a = -i gamma5 sigma_a.
    gamma5 = -gamma[0] @ gamma[1] @ gamma[2] @ gamma[3]
    sigma = np.empty((3, 4, 4), dtype=complex)
    sigma[0] = 1j * gamma[2] @ gamma[3]
    sigma[1] = 1j * gamma[3] @ gamma[1]
    sigma[2] = 1j * gamma[1] @ gamma[2]
    return gamma, gamma5, sigma


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# Independent of z, so built once, read-only: the Dirac matrices
# (GAMMA[k] is gamma^k), the metric, the 4x4 identity, the left factor
# (1 + gamma^0)/4 of the projector and the products gamma5 gamma^k.
GAMMA, GAMMA5, SIGMA = _read_only(*_dirac_matrices())
METRIC, _EYE4 = _read_only(np.diag([1.0, -1.0, -1.0, -1.0]), np.eye(4, dtype=complex))
_PI_LEFT, _G5_GAMMA = _read_only(0.25 * (_EYE4 + GAMMA[0]), GAMMA5 @ GAMMA)


def sigma_dot(v):
    """sigma . v for a real 3-vector v, or for each row of a (N, 3) stack."""
    return np.einsum("...a,aij->...ij", np.asarray(v, dtype=float), SIGMA)


@dataclass(frozen=True)
class GammaBasis:
    """The z-dependent part of the representation for one unit vector z.

    ``pi_projector`` is the rank-1 Hermitian projector
    (1 + gamma^0)(1 + z.sigma)/4 and ``pi_column`` a unit vector spanning its
    range, so any sandwich Pi X Pi equals (pi_column^* X pi_column) Pi.
    """

    z: np.ndarray
    pi_projector: np.ndarray
    pi_column: np.ndarray


def build_gamma_basis(z=(0.0, 0.0, 1.0)) -> GammaBasis:
    """Construct the projector and its column for unit vector z.

    With z = (0, 0, 1) the projector is diag(1, 0, 0, 0) (the proper
    representation); for other z it is still rank 1 with trace 1.
    """
    z = _check_unit3(z, "z")

    pi = _PI_LEFT @ (_EYE4 + sigma_dot(z))

    # Pi is Hermitian rank 1: take its largest column, normalize, and fix the
    # global phase so the dominant component is real positive (deterministic).
    norms = np.linalg.norm(pi, axis=0)
    col = pi[:, int(np.argmax(norms))]
    col = col / np.linalg.norm(col)
    k = int(np.argmax(np.abs(col)))
    col = col * np.exp(-1j * np.angle(col[k]))

    return GammaBasis(z=z, pi_projector=pi, pi_column=col)


@dataclass(frozen=True)
class SpinorParams:
    """The eight real parameters of the spinor plus the constant axis z."""

    amplitude: float
    kappa: float
    phi: float
    eta: np.ndarray   # rapidity 3-vector, may be zero
    n: np.ndarray     # unit 3-vector
    z: np.ndarray     # unit 3-vector, constant

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        if self.eta.shape != (3,):
            raise DomainError("eta must be a 3-vector")
        if not all(map(math.isfinite, (self.amplitude, self.kappa, self.phi, *self.eta))):
            raise DomainError("amplitude, kappa, phi and eta must be finite, got "
                              f"{self.amplitude!r}, {self.kappa!r}, {self.phi!r}, "
                              f"{self.eta!r}")
        object.__setattr__(self, "n", _check_unit3(self.n, "n"))
        object.__setattr__(self, "z", _check_unit3(self.z, "z"))
        if self.amplitude < 0:
            raise DomainError("amplitude must be nonnegative")

    @property
    def eta_norm(self) -> float:
        # The sqrt(eta.eta) of np.linalg.norm, without its dispatch.
        return math.sqrt(self.eta.dot(self.eta))

    @property
    def v(self) -> np.ndarray:
        """Unit rapidity direction; zero vector in the eta = 0 limit."""
        e = self.eta_norm
        if e == 0.0:
            return np.zeros(3)
        return self.eta / e

    @property
    def xi(self) -> np.ndarray:
        """The spin direction 2 n (n.z) - z, a unit 3-vector."""
        return 2.0 * self.n * float(self.n.dot(self.z)) - self.z


@dataclass(frozen=True)
class Bilinears:
    """Scalar psi-bar psi, flux j, spin pseudovector S, and rho = sqrt(j.j)."""

    scalar: float
    j: np.ndarray
    S: np.ndarray
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "j", np.asarray(self.j, dtype=float))
        object.__setattr__(self, "S", np.asarray(self.S, dtype=float))


def spinor_rotor_stack(amplitude, kappa, phi, eta, n):
    """The three closed-form exponential factors for N parameter sets.

    ``amplitude``, ``kappa`` and ``phi`` are (N,) arrays, ``eta`` and ``n``
    (N, 3); each factor comes back as an (N, 4, 4) stack, in order.  Every
    row has the bits of a one-set evaluation.  At |eta| = 0 the rapidity
    direction is taken as zero instead of dividing by |eta|, so the boost
    factor is exactly the identity there.
    """
    amplitude = np.asarray(amplitude, dtype=float)
    if not (amplitude >= 0).all():
        raise DomainError("amplitude must be nonnegative")
    eta = np.asarray(eta, dtype=float)
    half_kappa = (0.5 * np.asarray(kappa, dtype=float))[:, None, None]
    f_phase = (amplitude * np.exp(1j * np.asarray(phi, dtype=float)))[:, None, None] * (
        np.cos(half_kappa) * _EYE4 + np.sin(half_kappa) * GAMMA5
    )
    e = np.sqrt(np.matmul(eta[:, None, :], eta[:, :, None]))[:, :, 0]
    v = eta / np.where(e == 0.0, 1.0, e)
    half_e = (e / 2)[:, :, None]
    # (i gamma5 sigma.v)^2 = +1, so the exponential is hyperbolic.
    f_boost = np.cosh(half_e) * _EYE4 - 1j * np.sinh(half_e) * (GAMMA5 @ sigma_dot(v))
    f_rot = 1j * sigma_dot(n)           # exp(i pi/2 sigma.n), (sigma.n)^2 = 1
    return f_phase, f_boost, f_rot


def spinor_columns(amplitude, kappa, phi, eta, n, g: GammaBasis) -> np.ndarray:
    """Projector columns (N, 4) of the spinors of N parameter sets."""
    f_phase, f_boost, f_rot = spinor_rotor_stack(amplitude, kappa, phi, eta, n)
    return f_phase @ f_boost @ f_rot @ g.pi_column


def spinor_from_params(p: SpinorParams, g: GammaBasis) -> np.ndarray:
    """The spinor column (4,) by the closed half-angle exponential forms."""
    return spinor_columns([p.amplitude], [p.kappa], [p.phi], p.eta[None], p.n[None], g)[0]


IMAG_TOL = 1e-8


def bilinears_matrix(c) -> Bilinears:
    """Bilinears by direct matrix algebra on the spinor column c, shape (4,).

    j^k = psi-bar gamma^k psi and S^l = i psi-bar gamma5 gamma^l psi with
    psi-bar = psi^* gamma^0.  All eight numbers must come out real; an
    imaginary residual above 1e-8 raises NumericConsistencyError.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape != (4,):
        raise DomainError(f"a spinor column has 4 components, got shape {c.shape}")
    bar = c.conj() @ GAMMA[0]
    scalar_c = bar @ c
    # One stacked matmul per bilinear; the one-row and one-column shapes keep
    # the gemv and dot of the per-k products bar @ (gamma^k @ c).
    col = c[:, None]
    j_c = (bar @ (GAMMA @ col))[:, 0]
    s_c = 1j * (bar @ (_G5_GAMMA @ col))[:, 0]

    resid = np.abs(np.concatenate(([scalar_c], j_c, s_c)).imag).max()
    if not resid <= IMAG_TOL:
        raise NumericConsistencyError(
            f"bilinears acquired imaginary parts up to {resid:.3e}")

    j = j_c.real
    jj = j[0] ** 2 - j[1] ** 2 - j[2] ** 2 - j[3] ** 2
    return Bilinears(scalar=float(scalar_c.real), j=j, S=s_c.real,
                     rho=float(np.sqrt(max(jj, 0.0))))


def bilinears_closed_form(p: SpinorParams) -> Bilinears:
    """Bilinears straight from the parameters, no matrices.

    j^0 = A^2 cosh eta, j = A^2 sinh(eta) v, S^0 = A^2 sinh(eta) (xi.v),
    S = A^2 [xi + (cosh eta - 1) v (v.xi)] with xi = 2n(n.z) - z.  At
    eta = 0 every sinh-weighted term has the removable limit zero.
    """
    a2 = p.amplitude ** 2
    e = p.eta_norm
    v = p.v
    xi = p.xi
    ch, sh = np.cosh(e), np.sinh(e)
    xi_v = float(xi.dot(v))         # the products of v.xi, in the same order

    j = np.empty(4)
    j[0] = a2 * ch
    j[1:] = a2 * sh * v

    S = np.empty(4)
    S[0] = a2 * sh * xi_v
    S[1:] = a2 * (xi + (ch - 1.0) * v * xi_v)

    return Bilinears(scalar=a2 * np.cos(p.kappa), j=j, S=S, rho=a2)


RHO_TOL = 1e-12


def xi_from_bilinears(b: Bilinears) -> np.ndarray:
    """Recover the unit spin direction xi from (j, S).

    xi^a = [S^a - j^a S^0 / (j^0 + rho)] / rho; requires timelike flux.
    """
    if b.rho <= RHO_TOL:
        raise LightlikeFluxError(
            f"flux is lightlike within tolerance (rho = {b.rho:.3e})")
    return (b.S[1:] - b.j[1:] * b.S[0] / (b.j[0] + b.rho)) / b.rho


def spin_from_xi(xi, j, rho) -> np.ndarray:
    """Inverse map: spin pseudovector from xi and the flux."""
    xi = np.asarray(xi, dtype=float)
    j = np.asarray(j, dtype=float)
    jxi = float(np.dot(j[1:], xi))
    S = np.empty(4)
    S[0] = jxi
    S[1:] = rho * xi + jxi * j[1:] / (rho + j[0])
    return S


XI_Z_TOL = 1e-9


def n_from_xi(xi, z) -> np.ndarray:
    """Rotation axis n = (xi + z)/sqrt(2(1 + xi.z)); singular at xi = -z."""
    xi = np.asarray(xi, dtype=float)
    z = np.asarray(z, dtype=float)
    denom = 2.0 * (1.0 + float(np.dot(xi, z)))
    if denom < 2.0 * XI_Z_TOL:
        raise DomainError("xi antipodal to z: 1 + xi.z below tolerance")
    return (xi + z) / np.sqrt(denom)


def random_spinor_params(rng: np.random.Generator) -> SpinorParams:
    """Draw a generic parameter set; amplitudes in [0.3, 2], |eta| up to 2.5.

    The rapidity cap keeps cosh^2(eta) roundoff amplification below the
    1e-12 relative tolerance on the rho = A^2 identity.
    """
    z = random_unit(rng)
    n = random_unit(rng)
    return SpinorParams(
        amplitude=float(rng.uniform(0.3, 2.0)),
        kappa=float(rng.uniform(-np.pi, np.pi)),
        phi=float(rng.uniform(-np.pi, np.pi)),
        eta=random_unit(rng) * rng.uniform(0.0, 2.5),
        n=n,
        z=z,
    )


def random_unit(rng):
    """A uniformly random unit 3-vector drawn from rng by normal sampling."""
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm
