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

from .errors import (
    DomainError,
    LightlikeFluxError,
    NumericConsistencyError,
    SingularDenominatorError,
)

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

def _check_unit3(v, name, rows=None):
    """v as a float unit 3-vector, or as a (rows, 3) stack of them."""
    v = np.asarray(v, dtype=float)
    if rows is None:
        if v.shape != (3,):
            raise DomainError(f"{name} must be a 3-vector")
        vv = float(v.dot(v))
        off = abs(vv - 1.0)
    else:
        if v.shape != (rows, 3):
            raise DomainError(f"{name} must be a 3-vector in each of the {rows} rows")
        vv = np.einsum("ij,ij->i", v, v)
        off = np.abs(vv - 1.0).max()
    if not off <= 1e-10:
        raise DomainError(f"{name} must be a unit vector, got |{name}|^2 = {vv!r}")
    return v


def _dot3(a, b):
    """a.b over the last axis, kept: a scalar for two 3-vectors, an (N, 1)
    column for two (N, 3) stacks (or (N, 4)); each row keeps the ``ddot`` of
    the one-pair ``a.dot(b)`` or ``a @ b``."""
    if a.ndim == 1:
        return a.dot(b)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0]


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
    # The norms and the angle are numpy's own formulas for complex input,
    # written out to skip the dispatch of np.linalg.norm and np.angle: sqrt
    # of (x^* x).real summed down each column, for one column the dots of its
    # real and imaginary parts, and arctan2(imag, real).
    norms = np.sqrt(np.add.reduce((pi.conj() * pi).real, axis=0))
    col = pi[:, int(norms.argmax())]
    flat = col.ravel(order="K")
    col = col / math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
    top = col[int(np.abs(col).argmax())]
    col = col * np.exp(-1j * np.arctan2(top.imag, top.real))

    return GammaBasis(pi_projector=pi, pi_column=col)


@dataclass(frozen=True)
class SpinorParams:
    """The eight real parameters of the spinor plus the constant axis z.

    One set has float amplitude, kappa and phi and (3,) eta, n and z; a
    stack of N sets has them of shape (N,) and (N, 3), and ``stack`` builds
    one from N single sets.  The properties give each row of a stack the
    bits of the one-set property.
    """

    amplitude: float
    kappa: float
    phi: float
    eta: np.ndarray   # rapidity 3-vector, may be zero
    n: np.ndarray     # unit 3-vector
    z: np.ndarray     # unit 3-vector, constant

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        object.__setattr__(self, "eta", eta)
        # A stack is told by its amplitude: an (N,) array, not a number.
        rows = len(self.amplitude) if getattr(self.amplitude, "ndim", 0) else None
        if rows is None:
            if eta.shape != (3,):
                raise DomainError("eta must be a 3-vector")
            finite = all(map(math.isfinite, (self.amplitude, self.kappa, self.phi,
                                             *eta.tolist())))
        else:
            for name in ("amplitude", "kappa", "phi"):
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
                if getattr(self, name).shape != (rows,):
                    raise DomainError(f"a stack of {name} must have shape ({rows},)")
            if eta.shape != (rows, 3):
                raise DomainError(f"eta must be a 3-vector in each of the {rows} rows")
            finite = all(np.isfinite(a).all() for a in (self.amplitude, self.kappa,
                                                         self.phi, eta))
        if not finite:
            raise DomainError("amplitude, kappa, phi and eta must be finite, got "
                              f"{self.amplitude!r}, {self.kappa!r}, {self.phi!r}, "
                              f"{self.eta!r}")
        object.__setattr__(self, "n", _check_unit3(self.n, "n", rows))
        object.__setattr__(self, "z", _check_unit3(self.z, "z", rows))
        nonnegative = self.amplitude >= 0
        if not (nonnegative if rows is None else nonnegative.all()):
            raise DomainError("amplitude must be nonnegative")

    @classmethod
    def stack(cls, sets) -> "SpinorParams":
        """The one-set parameters ``sets`` as the rows of one stack, in order."""
        return cls(*(np.array([getattr(p, f) for p in sets])
                     for f in ("amplitude", "kappa", "phi", "eta", "n", "z")))

    @property
    def eta_norm(self) -> float:
        """|eta|, or the (N,) row norms of a stack."""
        if self.eta.ndim == 1:
            # The sqrt(eta.eta) of np.linalg.norm, without its dispatch.
            return math.sqrt(self.eta.dot(self.eta))
        return np.sqrt(_dot3(self.eta, self.eta))[:, 0]

    @property
    def v(self) -> np.ndarray:
        """Unit rapidity direction; zero vector in the eta = 0 limit."""
        e = self.eta_norm
        if self.eta.ndim == 1:
            return np.zeros(3) if e == 0.0 else self.eta / e
        e = e[:, None]
        return np.divide(self.eta, e, out=np.zeros(self.eta.shape), where=e != 0.0)

    @property
    def xi(self) -> np.ndarray:
        """The spin direction 2 n (n.z) - z, a unit 3-vector."""
        return 2.0 * self.n * _dot3(self.n, self.z) - self.z


@dataclass(frozen=True)
class Bilinears:
    """Scalar psi-bar psi, flux j, spin pseudovector S, and rho = sqrt(j.j).

    One set has float scalar and rho and (4,) j and S; a stack of N has them
    of shape (N,) and (N, 4).
    """

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


def spinor_columns(amplitude, kappa, phi, eta, n, pi_column) -> np.ndarray:
    """Spinor columns (N, 4) of N parameter sets.

    ``pi_column`` is the projector column of each set, (N, 4), or one (4,)
    column shared by all N.
    """
    f_phase, f_boost, f_rot = spinor_rotor_stack(amplitude, kappa, phi, eta, n)
    return (f_phase @ f_boost @ f_rot @ np.asarray(pi_column)[..., None])[..., 0]


def spinor_from_params(p: SpinorParams, g: GammaBasis) -> np.ndarray:
    """The spinor column (4,) by the closed half-angle exponential forms."""
    return spinor_columns([p.amplitude], [p.kappa], [p.phi], p.eta[None], p.n[None],
                          g.pi_column)[0]


#: Largest imaginary part of a bilinear, relative to c^dagger c = psi^dagger psi.
IMAG_TOL = 1e-8


def bilinears_matrix(c) -> Bilinears:
    """Bilinears by direct matrix algebra on the spinor column c, shape (4,),
    or on each row of an (N, 4) stack of columns.

    j^k = psi-bar gamma^k psi and S^l = i psi-bar gamma5 gamma^l psi with
    psi-bar = psi^* gamma^0.  All eight numbers must come out real; an
    imaginary part above 1e-8 c^dagger c in any row raises
    NumericConsistencyError.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape[-1:] != (4,) or c.ndim > 2:
        raise DomainError(f"a spinor column has 4 components, got shape {c.shape}")
    rows = c.reshape(-1, 4)
    conj = rows.conj()
    # One stacked matmul per bilinear; the one-row and one-column shapes keep
    # the gemv and dot of the one-column products bar @ (gamma^k @ c).
    bar = conj[:, None, :] @ GAMMA[0]
    scalar_c = np.matmul(bar, rows[:, :, None])[:, 0, 0]
    col = rows[:, None, :, None]
    j_c = (bar[:, None] @ (GAMMA @ col))[:, :, 0, 0]
    s_c = 1j * (bar[:, None] @ (_G5_GAMMA @ col))[:, :, 0, 0]

    imag = np.abs(np.concatenate((scalar_c[:, None], j_c, s_c), axis=1).imag).max(axis=1)
    norm2 = np.matmul(conj[:, None, :], rows[:, :, None]).real[:, 0, 0]
    bad = ~(imag <= IMAG_TOL * norm2)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericConsistencyError(
            f"bilinears acquired imaginary parts up to {imag[k]:.3e} "
            f"at c^dagger c = {norm2[k]:.3e}")

    j = j_c.real
    # float_power rounds as the libm pow behind a scalar ``** 2``.
    sq = np.float_power(j, 2.0)
    rho = np.sqrt(np.maximum(sq[:, 0] - sq[:, 1] - sq[:, 2] - sq[:, 3], 0.0))
    if c.ndim == 1:
        return Bilinears(scalar=float(scalar_c[0].real), j=j[0], S=s_c[0].real,
                         rho=float(rho[0]))
    return Bilinears(scalar=scalar_c.real, j=j, S=s_c.real, rho=rho)


def bilinears_closed_form(p: SpinorParams) -> Bilinears:
    """Bilinears straight from the parameters, no matrices; row by row for
    a stack.

    j^0 = A^2 cosh eta, j = A^2 sinh(eta) v, S^0 = A^2 sinh(eta) (xi.v),
    S = A^2 [xi + (cosh eta - 1) v (v.xi)] with xi = 2n(n.z) - z.  At
    eta = 0 every sinh-weighted term has the removable limit zero.
    """
    # float_power rounds as the libm pow behind a scalar ``** 2``.
    a2 = np.float_power(p.amplitude, 2.0)
    e = p.eta_norm
    v = p.v
    xi = p.xi
    ch, sh = np.cosh(e), np.sinh(e)
    xi_v = _dot3(xi, v).T           # the products of v.xi, in the same order

    # Written components first, through the transposes of the (N, 4) rows;
    # for one set .T changes nothing.
    shape = v.shape[:-1] + (4,)
    j, S = np.empty(shape), np.empty(shape)
    jT, ST, v, xi = j.T, S.T, v.T, xi.T
    a2_sh = a2 * sh
    jT[0] = a2 * ch
    jT[1:] = a2_sh * v
    ST[0] = a2_sh * xi_v
    ST[1:] = a2 * (xi + (ch - 1.0) * v * xi_v)

    return Bilinears(scalar=a2 * np.cos(p.kappa), j=j, S=S, rho=a2)


RHO_TOL = 1e-12


def xi_from_bilinears(b: Bilinears) -> np.ndarray:
    """Recover the unit spin direction xi from (j, S), row by row for a stack.

    xi^a = [S^a - j^a S^0 / (j^0 + rho)] / rho; requires timelike flux.
    """
    if np.any(b.rho <= RHO_TOL):
        raise LightlikeFluxError(
            f"flux is lightlike within tolerance (rho = {np.min(b.rho):.3e})")
    j, S = b.j.T, b.S.T
    return ((S[1:] - j[1:] * S[0] / (j[0] + b.rho)) / b.rho).T


def spin_from_xi(xi, j, rho) -> np.ndarray:
    """Inverse map: spin pseudovector from xi and the flux; row by row for
    xi (N, 3), j (N, 4) and rho (N,).

    rho + j^0 must be positive, as it is for a future-pointing flux;
    LightlikeFluxError otherwise.
    """
    xi = np.asarray(xi, dtype=float)
    j = np.asarray(j, dtype=float)
    jxi = _dot3(j[..., 1:], xi).T
    den = rho + j.T[0]
    if not (den > 0 if xi.ndim == 1 else (den > 0).all()):
        if xi.ndim == 1:
            raise LightlikeFluxError(f"spin_from_xi needs rho + j^0 > 0, got {float(den)!r}")
        row = int(np.argmin(den > 0))
        raise LightlikeFluxError(
            f"spin_from_xi needs rho + j^0 > 0, got {float(den[row])!r} in row {row}")
    if xi.ndim == 1:
        # One point: the operations of the stacked rows below, on floats.
        _, j1, j2, j3 = j.tolist()
        x1, x2, x3 = xi.tolist()
        jxi, den = float(jxi), float(den)
        return np.array([jxi, rho * x1 + jxi * j1 / den, rho * x2 + jxi * j2 / den,
                         rho * x3 + jxi * j3 / den])
    S = np.empty(j.shape)
    ST, j = S.T, j.T
    ST[0] = jxi
    ST[1:] = rho * xi.T + jxi * j[1:] / den
    return S


XI_Z_TOL = 1e-9


def require_off_antipode(one_plus):
    """The caller's own 1 + xi.z, a float or an array of rows, returned as
    given; SingularDenominatorError where a value lies below XI_Z_TOL, where
    xi is antipodal to z and every formula that divides by it is singular."""
    below = np.less(one_plus, XI_Z_TOL)
    if below.any():
        low = float(np.min(one_plus, where=below, initial=XI_Z_TOL))
        raise SingularDenominatorError(
            f"1 + xi.z = {low!r} below tolerance (antipodal xi, z)")
    return one_plus


def n_from_xi(xi, z) -> np.ndarray:
    """Rotation axis n = (xi + z)/sqrt(2(1 + xi.z)); singular at xi = -z."""
    xi = np.asarray(xi, dtype=float)
    z = np.asarray(z, dtype=float)
    denom = 2.0 * require_off_antipode(1.0 + float(np.dot(xi, z)))
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
