"""Small helpers for 4-vectors in the metric diag(+1, -1, -1, -1).

Arrays hold upper (contravariant) components unless a name says otherwise.
Index 0 is time.

Every determinant of the package goes through ``det``.  Its gufunc lives in
a private numpy module; if a numpy release moves it, importing this module
fails instead of falling back to another route.
"""

import numpy as np
from numpy.linalg import _umath_linalg

#: Coordinate basis vectors e_0..e_3 as rows.
BASIS4 = np.eye(4)

#: The frame vector f of the rest frame, read-only and shared by every
#: covariant shape that takes a frame vector.
F_REST = np.array([1.0, 0.0, 0.0, 0.0])
F_REST.flags.writeable = False


def mdot(a, b):
    """Minkowski scalar product a^i b_i = a0*b0 - a.b.

    A float for two 4-vectors; for transposed stacks, (4, n) arrays whose
    rows are the components, the (n,) array of row-by-row products.
    """
    r = a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
    return r if isinstance(r, np.ndarray) else float(r)


def det(m):
    """Determinant of each float64 (..., n, n) matrix: the bits of
    ``np.linalg.det``, whose LAPACK ``getrf`` gufunc this calls directly,
    without that wrapper's per-call Python.  A numpy float for one matrix,
    an array for a stack."""
    return _umath_linalg.det(m, signature="d->d")


def lower(v):
    """Flip spatial signs: upper components -> lower components (and back)."""
    out = np.array(v, dtype=float)
    out[1:] = -out[1:]
    return out


def eps4(a, b, c, d):
    """Total contraction eps_{iklm} a^i b^k c^l d^m with eps_0123 = +1.

    Equals the determinant of the matrix whose columns are (a, b, c, d).
    """
    return float(det(np.array([a, b, c, d], dtype=float).T))


def eps4_stack(a, b, c, d):
    """``eps4`` row by row for (K, 4) array stacks, single 4-vectors broadcast.

    One ``det`` call over the (K, 4, 4) stack of column matrices.  LAPACK
    factors each matrix on its own, so each entry has the bits of the
    matching ``eps4`` call.
    """
    cols = (a, b, c, d)
    m = np.empty(max((v.shape for v in cols), key=len) + (4,))
    for i, v in enumerate(cols):
        m[..., i] = v
    return det(m)


#: For each slot of the free index, the other three slots in order.
_OTHER_SLOTS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _eps4_template(slot):
    cols = np.zeros((4, 4, 4))
    cols[:, :, slot] = BASIS4
    cols.flags.writeable = False
    return cols


#: For each slot, the (4, 4, 4) stack of column matrices with e_i already
#: in that slot of matrix i; read-only, so ``eps4_free`` fills a copy.
_EPS4_TEMPLATES = tuple(_eps4_template(slot) for slot in range(4))


def eps4_free(slot, b, c, d):
    """eps contraction with one free lower index: component i puts e_i in
    ``slot`` and b, c, d in the other three slots, in order.

    The four column matrices go to LAPACK in one stacked ``det`` call, so
    each component has the bits of the matching ``eps4`` call.
    """
    i, k, l = _OTHER_SLOTS[slot]
    cols = _EPS4_TEMPLATES[slot].copy()
    cols[:, :, i] = b
    cols[:, :, k] = c
    cols[:, :, l] = d
    return det(cols)


def cross3(a, b):
    """Cross product of two 3-vectors: the products and differences of
    ``np.cross``, in the same order, without its per-call overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def as4(t, spatial):
    v = np.empty(4)
    v[0] = t
    v[1:] = spatial
    return v
