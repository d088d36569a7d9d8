"""Real scalar and vector spherical harmonics on the unit sphere.

The scalar basis is the real orthonormal one without Condon-Shortley
phase (Y_{1,1} ~ x, Y_{1,-1} ~ y, Y_{1,0} ~ z).  The vector basis has
three families per degree/order,

    V = grad_s Y - (l+1) Y n,   W = grad_s Y + l Y n,   X = n x grad_s Y,

with squared surface norms (l+1)(2l+1), l(2l+1) and l(l+1).  W and X
vanish identically at l = 0; those modes are carried in the index space
as degenerate placeholders with zero coefficients.

Evaluation goes through stable normalized associated-Legendre
recurrences with the sin^m(theta) factor split off, so that Y and its
surface gradient are polynomial in the Cartesian components of the unit
vector and free of pole singularities.  The recurrences are good far
beyond degree 60.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from math import isqrt, sqrt, pi

import numpy as np

from .materials import LameParams
from .quadrature import LebedevRule, SphereFrame

UNIT_TOL = 1e-12


class Family(IntEnum):
    """The three vector-harmonic families; X is the toroidal one."""

    V = 0
    W = 1
    X = 2


@dataclass(frozen=True)
class ModeIndex:
    """One (degree, order, family) basis label."""

    ell: int
    m: int
    family: Family

    def __post_init__(self):
        if self.ell < 0 or abs(self.m) > self.ell:
            raise ValueError(f"invalid mode (ell={self.ell}, m={self.m})")

    @property
    def degenerate(self) -> bool:
        """True for the identically-zero modes (l=0, W) and (l=0, X)."""
        return self.ell == 0 and self.family != Family.V

    @property
    def flat_offset(self) -> int:
        """Canonical flat position: l ascending, then m, then family."""
        return 3 * sh_index(self.ell, self.m) + int(self.family)


def num_scalar_modes(max_degree: int) -> int:
    return (max_degree + 1) ** 2


def sh_index(ell: int, m: int) -> int:
    """Position of (ell, m) in the l-ascending, m-ascending enumeration."""
    return ell * ell + ell + m


def sh_degree_order(index: int) -> tuple[int, int]:
    ell = isqrt(index)
    return ell, index - ell * ell - ell


def norm_sq(ell: int, family: Family) -> float:
    """Squared surface L2 norm of one vector harmonic."""
    if family == Family.V:
        return float((ell + 1) * (2 * ell + 1))
    if family == Family.W:
        return float(ell * (2 * ell + 1))
    return float(ell * (ell + 1))


def per_degree(table: np.ndarray) -> np.ndarray:
    """Expand per-degree rows (N+1, ...) over the 2l+1 orders of each degree.

    Row p of the result is row l of ``table`` for the scalar mode p of
    degree l, so the result is aligned with ``sh_index``.
    """
    table = np.asarray(table)
    return np.repeat(table, 2 * np.arange(table.shape[0]) + 1, axis=0)


@lru_cache(maxsize=None)
def norm_sq_table(max_degree: int) -> np.ndarray:
    """Squared norms of all vector harmonics as a read-only ((max_degree+1)^2, 3).

    Columns are the (V, W, X) families; the degenerate (l=0, W/X)
    entries are zero, as ``norm_sq`` gives them.
    """
    ells = np.arange(max_degree + 1, dtype=float)
    out = per_degree(np.stack(
        [(ells + 1.0) * (2.0 * ells + 1.0), ells * (2.0 * ells + 1.0), ells * (ells + 1.0)],
        axis=1,
    ))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def reflection_signs(max_degree: int) -> np.ndarray:
    """Signs of all vector harmonics under the coordinate reflections,
    as a read-only (8, 3 (max_degree+1)^2) in the canonical flat order.

    Row b is the reflection R: s -> sigma s with sigma_a = -1 exactly for
    the set bits a of b (bit 0 flips x, bit 1 y, bit 2 z).  Each family
    obeys F(R s) = h R F(s) with a sign h per mode.  For Y_lm a z flip
    gives (-1)^(l-|m|); an x flip gives (-1)^|m| for m >= 0 and
    (-1)^(|m|+1) for m < 0 (C[|m|] and S[|m|] of (x + i y)^|m|); a y flip
    gives -1 for m < 0.  V and W take the sign of Y, and X = n x grad_s Y
    also takes det R = (-1)^(flips).
    """
    ells = per_degree(np.arange(max_degree + 1))
    ms = np.arange(ells.size) - ells * ells - ells
    am = np.abs(ms)
    parity = 1 - 2 * (am % 2)
    flips = (np.where(ms < 0, -parity, parity), np.where(ms < 0, -1, 1),
             1 - 2 * ((ells - am) % 2))
    out = np.ones((8, ells.size, 3))
    for b in range(8):
        for axis, h in enumerate(flips):
            if b >> axis & 1:
                out[b] *= h[:, None]
                out[b, :, Family.X] *= -1.0
    out = out.reshape(8, -1)
    out.setflags(write=False)
    return out


def permutation_rotation(axes: tuple[int, int, int], max_degree: int,
                         rule: LebedevRule) -> tuple[np.ndarray, ...]:
    """Real Wigner matrices D^l, l = 0..max_degree, of the rotation P that
    permutes the coordinate axes cyclically, (P s)_a = s_{axes[a]}.

    In the frame whose axis a is the axis ``axes[a]``, a vector field f
    reads P f(P^T s), and its coefficients in the basis are R c, with R
    the block diagonal of D^l over the orders of each degree, every family
    alike: Y_q(P s) = sum_p D^l_qp Y_p(s), and V, W and X follow since
    grad_s, n and n x commute with rotations, F_q(P s) = P sum_p D^l_qp
    F_p(s).  D^l_qp = <Y_q(P .), Y_p> is an integrand of degree 2l, summed
    by the rule's own quadrature, exactly for a rule of degree 2 max_degree
    or more.  An entry between modes whose signs differ under a coordinate
    flip and its image (the flip of axis a in the frame is that of axis
    ``axes[a]`` outside it) is zero by symmetry, and is set to exactly
    zero: R maps each character of the flips onto its image exactly.
    Each D^l is orthogonal and read-only.
    """
    if tuple(axes) not in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        raise ValueError(f"axes {axes} are not a cyclic permutation of (0, 1, 2)")
    if rule.degree < 2 * max_degree:
        raise ValueError(
            f"quadrature rule degree {rule.degree} is below the rotation's "
            f"requirement 2*N = {2 * max_degree}"
        )
    Y, _ = scalar_basis(rule.points, max_degree)
    turned, _ = scalar_basis(rule.points[:, list(axes)], max_degree)
    # the signs of each scalar mode under the flips of x, y and z (V's column)
    signs = reflection_signs(max_degree).reshape(8, -1, 3)[[1, 2, 4], :, 0]
    frame_signs, global_signs = signs, signs[list(axes)]
    out = []
    for ell in range(max_degree + 1):
        sl = slice(ell * ell, (ell + 1) * (ell + 1))
        D = (turned[sl] * rule.weights) @ Y[sl].T
        D[(frame_signs[:, sl, None] != global_signs[:, None, sl]).any(axis=0)] = 0.0
        D.setflags(write=False)
        out.append(D)
    return tuple(out)


@lru_cache(maxsize=None)
def diagonal_mirror(max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The action of the mirror sigma: (x, y, z) -> (y, x, z) on the vector
    harmonics, as the read-only ``(image, signs)``, each (3 (max_degree+1)^2,)
    in the canonical flat order: F_q(sigma s) = signs[q] sigma F_image[q](s)
    for every mode q of every family, a signed permutation.

    sigma maps x + i y to i (x - i y), so (x + i y)^|m| to i^|m| times its
    conjugate: C[|m|] and S[|m|] keep their own mode at even |m| (with the
    signs (+, -) for |m| = 0 (mod 4) and (-, +) for |m| = 2 (mod 4)) and
    swap with each other at odd |m| (signs + for |m| = 1 and - for
    |m| = 3 (mod 4)); Q(z) stays.  V and W take the sign of Y, and X also
    takes det sigma = -1.  The permutation is an involution with equal
    signs on both modes of a swap, so it is its own inverse.
    """
    ells = per_degree(np.arange(max_degree + 1))
    ms = np.arange(ells.size) - ells * ells - ells
    odd = ms % 2 == 1
    scalar = np.where(odd, ells * ells + ells - ms, np.arange(ells.size))
    # the sign of Y by |m| (mod 4) (rows) for m >= 0 and m < 0 (columns)
    h = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])[np.abs(ms) % 4, (ms < 0).astype(int)]
    image = (3 * scalar[:, None] + np.arange(3)).reshape(-1)
    signs = (h[:, None] * np.array([1.0, 1.0, -1.0])).reshape(-1)
    for a in (image, signs):
        a.setflags(write=False)
    return image, signs


@lru_cache(maxsize=None)
def _mode_indices(max_degree: int) -> tuple[np.ndarray, ...]:
    """Per scalar mode p = (l, m), as read-only arrays: l; the packed
    Legendre row; the normalisation c_m (sqrt(2) for m != 0) as a column;
    (C/S row, power) index pairs of the tangential factor T(x, y), which
    is C[|m|], or S[|m|] for m < 0, and of the two factors C/S[|m| - 1]
    of its x and y derivatives; and those derivatives' integer factors
    |m| and -m as a (2, L2, 1) array."""
    ells = per_degree(np.arange(max_degree + 1))
    ms = np.arange(ells.size) - ells * ells - ells
    am = np.abs(ms)
    neg = (ms < 0).astype(int)
    out = (ells, _tri_index(ells, am), np.where(ms == 0, 1.0, sqrt(2.0))[:, None],
           np.stack([neg, neg, 1 - neg]), np.stack([am, am - 1, am - 1]),
           np.stack([am, -ms]).astype(float)[:, :, None])
    for a in out:
        a.setflags(write=False)
    return out


def _check_unit(s: np.ndarray) -> None:
    r = np.sqrt(np.einsum("...c,...c->...", s, s))
    if (np.abs(r - 1.0) > UNIT_TOL).any():
        raise ValueError("evaluation points must be unit vectors (|s| = 1 within 1e-12)")


def _tri_index(ell: int, m: int) -> int:
    # packed storage of (ell, m >= 0) pairs
    return ell * (ell + 1) // 2 + m


@lru_cache(maxsize=None)
def _legendre_factors(max_degree: int) -> tuple:
    """Constants of the recurrences in ``_legendre_tables``.

    The packed rows of the diagonal entries Q[l,l] and their values (as a
    column); the rows of the first off-diagonal Q[l+1,l] = c z Q[l,l] and
    the factors c and c Q[l,l] (columns); per degree l, the three-term
    factors (a, b) of the orders m <= l - 2 (columns).
    """
    diag, first, a, b = [], [], [], []
    d = 1.0 / sqrt(4.0 * pi)
    for m in range(max_degree + 1):
        if m > 0:
            d *= sqrt((2.0 * m + 1.0) / (2.0 * m))
        diag.append(d)
        first.append(sqrt(2.0 * m + 3.0))
    for ell in range(max_degree + 1):
        ms = range(max(ell - 1, 0))
        a.append(np.array([
            sqrt((2.0 * ell - 1.0) * (2.0 * ell + 1.0) / ((ell - m) * (ell + m))) for m in ms
        ])[:, None])
        b.append(np.array([
            sqrt((2.0 * ell + 1.0) * (ell - 1.0 - m) * (ell - 1.0 + m)
                 / ((2.0 * ell - 3.0) * (ell - m) * (ell + m))) for m in ms
        ])[:, None])
    ms = np.arange(max_degree)
    diag, first = np.array(diag)[:, None], np.array(first[:-1])[:, None]
    return (_tri_index(np.arange(max_degree + 1), np.arange(max_degree + 1)), diag,
            _tri_index(ms + 1, ms), first, first * diag[:-1], a, b)


def _legendre_tables(z: np.ndarray, max_degree: int, out: np.ndarray | None = None) -> np.ndarray:
    """Normalized associated Legendre values with sin^m factored out.

    Returns one array (2, n_pairs, len(z)) holding Q and its derivative
    in z, dQ, packed by ``_tri_index`` such that the orthonormal harmonic
    is ``c_m * Q[l,m](z) * Re/Im[(x+iy)^m]`` with c_m = sqrt(2) for m > 0.
    The diagonal and first off-diagonal entries are set for all degrees
    at once; each further degree l is one contiguous block of rows,
    filled from the two blocks before it for all orders at once.  ``out``
    is an array of the result's shape to fill, if given.
    """
    z = np.asarray(z, dtype=float)
    n = max_degree + 1
    if out is None:
        QdQ = np.zeros((2, n * (n + 1) // 2, z.size))
    else:
        QdQ = out
        QdQ[...] = 0.0
    Q, dQ = QdQ
    diag_rows, diag, first_rows, first, first_diag, a, b = _legendre_factors(max_degree)
    Q[diag_rows] = diag
    Q[first_rows] = first * z * diag[:-1]
    dQ[first_rows] = first_diag
    for ell in range(2, n):
        cur = slice(_tri_index(ell, 0), _tri_index(ell, 0) + ell - 1)
        q1 = slice(_tri_index(ell - 1, 0), _tri_index(ell - 1, 0) + ell - 1)
        q2 = slice(_tri_index(ell - 2, 0), _tri_index(ell - 2, 0) + ell - 1)
        np.multiply(a[ell] * z, Q[q1], out=Q[cur])
        Q[cur] -= b[ell] * Q[q2]
        np.multiply(a[ell], Q[q1] + z * dQ[q1], out=dQ[cur])
        dQ[cur] -= b[ell] * dQ[q2]
    return QdQ


def _azimuthal_powers(x: np.ndarray, y: np.ndarray, max_degree: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """C[m] + i S[m] = (x + i y)^m for m = 0..max_degree, by the product
    recursion, stacked as one array CS = (C, S) of shape
    (2, max_degree + 1, len(x)), written into ``out`` if given."""
    if out is None:
        CS = np.zeros((2, max_degree + 1, x.size))
    else:
        CS = out
        CS[...] = 0.0
    C, S = CS
    C[0] = 1.0
    for m in range(1, max_degree + 1):
        np.multiply(x, C[m - 1], out=C[m])
        C[m] -= y * S[m - 1]
        np.multiply(x, S[m - 1], out=S[m])
        S[m] += y * C[m - 1]
    return CS


def scalar_basis(points: np.ndarray, max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """All scalar harmonics and surface gradients at unit points.

    Parameters
    ----------
    points : (T, 3) array of unit vectors.
    max_degree : largest degree l to evaluate.

    Returns
    -------
    Y : ((max_degree+1)^2, T) values, modes ordered by ``sh_index``.
    gradY : ((max_degree+1)^2, T, 3) surface gradients (tangential).
    """
    s = np.atleast_2d(np.asarray(points, dtype=float))
    _check_unit(s)
    x, y, z = s[:, 0], s[:, 1], s[:, 2]
    QdQ = _legendre_tables(z, max_degree)
    CS = _azimuthal_powers(x, y, max_degree)

    # Y = c Q(z) T(x, y); the m = 0 modes index C[-1] for the derivative
    # factors, which only ever meets their zero factor |m|
    _, tri, cq, cs_rows, cs_cols, factors = _mode_indices(max_degree)
    q, dq = cq * QdQ[:, tri]
    tangents = CS[cs_rows, cs_cols]
    Y = q * tangents[0]
    # gradient of the polynomial extension c * Q(z) * T(x, y), one
    # component at a time to keep the temporaries small
    grad = np.empty(Y.shape + (3,))
    for c in range(2):
        np.multiply(q, factors[c] * tangents[1 + c], out=grad[:, :, c])
    np.multiply(dq, tangents[0], out=grad[:, :, 2])
    del q, dq, tangents, QdQ

    # project out the radial component: grad_s = (I - s s^T) grad
    radial = np.einsum("ptc,tc->pt", grad, s)
    for c in range(3):
        grad[:, :, c] -= radial * s[:, c]
    return Y, grad


@dataclass(frozen=True, eq=False)
class VshBasis:
    """Vector spherical harmonics tabulated at a fixed set of unit points."""

    max_degree: int
    points: np.ndarray  # (T, 3)
    Y: np.ndarray       # (L2, T)
    V: np.ndarray       # (L2, T, 3)
    W: np.ndarray       # (L2, T, 3)
    X: np.ndarray       # (L2, T, 3)

    def family(self, family: Family) -> np.ndarray:
        return (self.V, self.W, self.X)[int(family)]


def vsh_basis(points: np.ndarray, max_degree: int) -> VshBasis:
    """Evaluate all three vector families at the given unit points."""
    s = np.atleast_2d(np.asarray(points, dtype=float))
    Y, grad = scalar_basis(s, max_degree)
    # X = s x grad, written out: np.cross costs more than the products at
    # the few points of one quadrature rule.  In-place steps keep the
    # temporaries to one component.
    X = np.empty_like(grad)
    for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(s[:, i], grad[:, :, j], out=X[:, :, c])
        X[:, :, c] -= s[:, j] * grad[:, :, i]
    ells = _mode_indices(max_degree)[0][:, None, None]
    Yn = Y[:, :, None] * s
    W = ells * Yn
    W += grad  # grad + l Y n
    Yn *= ells + 1.0
    V = np.subtract(grad, Yn, out=grad)  # grad - (l+1) Y n
    return VshBasis(max_degree=max_degree, points=s, Y=Y, V=V, W=W, X=X)


# Weighted bases up to this size stay cached (degree 8 and below at the
# assembly rule).  Larger ones are not kept: a cached degree-16 or
# degree-20 basis (9 MB and 19 MB) raised the peak memory of a three-sphere
# solve by as much.  Projections above it take their moments from the
# scalar basis (``_scalar_moments``), a third of the values: rebuilding the
# weighted basis per projection took 27% of the three-sphere operation at
# N=20 (41 of 153 ms in one process; 13 ms from the scalar basis; 2-core
# x86-64 host).
_CACHED_BASIS_BYTES = 2**20
# Larger projections run over blocks of nodes whose scalar basis (Y and its
# gradients) is at most this size.
_PROJECT_BLOCK_BYTES = 2**20


def weighted_basis(rule: LebedevRule, max_degree: int) -> np.ndarray:
    """Weighted basis at the rule's nodes as a read-only (3 L2, 3 T) matrix.

    Row 3 p + k holds w_t Y^k_p(s_t) flattened over (node t, component
    c), so a product with a field sampled at the nodes (flattened the
    same way) gives its unnormalised Galerkin moments.  Projection, the
    assembly's test side and the matrix-free product share one cached
    copy per (rule, degree) when it is small.
    """
    if 9 * num_scalar_modes(max_degree) * rule.size * 8 <= _CACHED_BASIS_BYTES:
        return _cached_weighted_basis(rule, max_degree)
    return _weighted_basis(rule, max_degree)


def _weighted_basis(rule: LebedevRule, max_degree: int) -> np.ndarray:
    return weighted_rows(rule.points, rule.weights, max_degree)


def weighted_rows(points: np.ndarray, weights: np.ndarray, max_degree: int) -> np.ndarray:
    """``weighted_basis``'s rows for the given unit nodes (T, 3) and their weights (T,)."""
    basis = vsh_basis(points, max_degree)
    rows = np.empty((basis.V.shape[0], 3) + basis.V.shape[1:])  # (L2, 3, T, 3)
    for k, fam in enumerate((basis.V, basis.W, basis.X)):
        np.multiply(fam, weights[:, None], out=rows[:, k])
    rows = rows.reshape(3 * rows.shape[0], -1)
    rows.setflags(write=False)
    return rows


_cached_weighted_basis = lru_cache(maxsize=8)(_weighted_basis)


def eval_Y(ell: int, m: int, s) -> float:
    """One real orthonormal scalar harmonic at a unit vector."""
    ModeIndex(ell, m, Family.V)  # validates (ell, m)
    Y, _ = scalar_basis(np.asarray(s, dtype=float)[None, :], ell)
    return float(Y[sh_index(ell, m), 0])


def surface_gradient_Y(ell: int, m: int, s) -> np.ndarray:
    """Surface gradient of one scalar harmonic; tangential to the sphere."""
    ModeIndex(ell, m, Family.V)
    _, grad = scalar_basis(np.asarray(s, dtype=float)[None, :], ell)
    return grad[sh_index(ell, m), 0].copy()


def eval_VWX(ell: int, m: int, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three vector harmonics (V, W, X) of one mode at a unit vector."""
    ModeIndex(ell, m, Family.V)
    basis = vsh_basis(np.asarray(s, dtype=float)[None, :], ell)
    p = sh_index(ell, m)
    return basis.V[p, 0].copy(), basis.W[p, 0].copy(), basis.X[p, 0].copy()


def radial_profile_divergence(family: Family, ell: int, m: int, h, h_r, x) -> float:
    """Divergence of the field h(r) * (V|W|X)_{lm}(x/|x|) at a point x != 0.

    The toroidal family is exactly divergence free.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("divergence of a radial-profile field is undefined at the origin")
    if family == Family.X:
        return 0.0
    yval = eval_Y(ell, m, x / r)
    if family == Family.V:
        return -(ell + 1.0) * (h_r(r) + (ell + 2.0) * h(r) / r) * yval
    return ell * (h_r(r) - (ell - 1.0) * h(r) / r) * yval


def radial_profile_laplacian(family: Family, ell: int, m: int, h, h_r, h_rr, x) -> np.ndarray:
    """Vector Laplacian of h(r) * (V|W|X)_{lm}(x/|x|) at a point x != 0."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("Laplacian of a radial-profile field is undefined at the origin")
    vecs = eval_VWX(ell, m, x / r)
    if family == Family.V:
        shift = (ell + 1.0) * (ell + 2.0)
    elif family == Family.W:
        shift = (ell - 1.0) * ell
    else:
        shift = ell * (ell + 1.0)
    coeff = h_rr(r) + 2.0 * h_r(r) / r - shift * h(r) / r ** 2
    return coeff * vecs[int(family)]


def traction_of_radial_field(
    profiles: tuple[float, float, float, float, float, float],
    ell: int,
    params: LameParams,
) -> tuple[float, float, float]:
    """Traction coefficients of f(r)V + g(r)W + h(r)X on the unit sphere.

    ``profiles`` holds (f, f_r, g, g_r, h, h_r) evaluated at r = 1.  The
    return value (c_V, c_W, c_X) expands the surface traction of the
    displacement field in the (V, W, X) basis of the same (l, m); the
    expression is exact for any radial profiles.  At l = 0 only the V
    coefficient is meaningful and the other two are returned as zero.
    ``ell`` may be an array of degrees, broadcast against the profiles.
    """
    f1, f1r, g1, g1r, h1, h1r = profiles
    mu, lam = params.mu, params.lam
    ol = 1.0 / (2.0 * ell + 1.0)
    c_v = mu * ol * (
        (3.0 * ell + 2.0) * f1r - ell * (ell + 2.0) * f1
        - ell * g1r + ell * (ell - 1.0) * g1
    ) + lam * ol * (
        (ell + 1.0) * f1r + (ell + 1.0) * (ell + 2.0) * f1
        - ell * g1r + ell * (ell - 1.0) * g1
    )
    c_w = mu * ol * (
        -(ell + 1.0) * f1r - (ell + 1.0) * (ell + 2.0) * f1
        + (3.0 * ell + 1.0) * g1r + (ell + 1.0) * (ell - 1.0) * g1
    ) + lam * ol * (
        -(ell + 1.0) * f1r - (ell + 1.0) * (ell + 2.0) * f1
        + ell * g1r - ell * (ell - 1.0) * g1
    )
    c_x = mu * (h1r - h1)
    # the V formula holds at l = 0 as well; the W and X harmonics vanish there
    higher = np.asarray(ell) > 0
    return c_v, np.where(higher, c_w, 0.0), np.where(higher, c_x, 0.0)


@dataclass
class VshExpansion:
    """Coefficients of a sphere-surface vector field over the VSH basis.

    ``coeffs`` has shape ((max_degree+1)^2, 3) with the scalar-mode axis
    in ``sh_index`` order and the last axis the (V, W, X) family.
    Degenerate (l=0, W/X) entries are kept and must stay exactly zero.
    """

    sphere_id: int
    max_degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = (num_scalar_modes(self.max_degree), 3)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeffs shape {self.coeffs.shape} != {expected}")

    @classmethod
    def zeros(cls, sphere_id: int, max_degree: int) -> "VshExpansion":
        return cls(sphere_id, max_degree, np.zeros((num_scalar_modes(max_degree), 3)))

    @property
    def flat(self) -> np.ndarray:
        """Canonical flat coefficient vector (mode-major, family-minor)."""
        return self.coeffs.reshape(-1)

    @classmethod
    def from_flat(cls, sphere_id: int, max_degree: int, flat: np.ndarray) -> "VshExpansion":
        coeffs = np.asarray(flat, dtype=float).reshape(num_scalar_modes(max_degree), 3)
        return cls(sphere_id, max_degree, coeffs.copy())

    def get(self, ell: int, m: int, family: Family) -> float:
        return float(self.coeffs[sh_index(ell, m), int(family)])

    def set(self, ell: int, m: int, family: Family, value: float) -> None:
        if ModeIndex(ell, m, Family(family)).degenerate and value != 0.0:
            raise ValueError("degenerate (l=0, W/X) coefficients must be zero")
        self.coeffs[sh_index(ell, m), int(family)] = value

    def pad_to(self, max_degree: int) -> "VshExpansion":
        """Zero-pad (or keep) the expansion up to the requested degree."""
        if max_degree < self.max_degree:
            raise ValueError("pad_to cannot truncate")
        out = VshExpansion.zeros(self.sphere_id, max_degree)
        out.coeffs[: self.coeffs.shape[0]] = self.coeffs
        return out

    def norm_weights(self) -> np.ndarray:
        """Squared basis norms aligned with ``coeffs``; zero on degenerate modes."""
        return norm_sq_table(self.max_degree).copy()

    def l2_norm(self) -> float:
        """Surface L2 norm of the represented field."""
        return float(np.sqrt(np.sum(self.coeffs ** 2 * self.norm_weights())))


def project(fn, frame: SphereFrame, max_degree: int, rule: LebedevRule) -> VshExpansion:
    """Project a sphere-surface vector field onto the basis up to ``max_degree``.

    ``fn`` maps an (n, 3) array of surface points to (n, 3) values.  The
    rule must be exact at least to degree 2*max_degree; a weaker rule is
    rejected rather than silently accepted.
    """
    return project_fields([(fn, frame)], max_degree, rule)[0]


def project_fields(fields, max_degree: int, rule: LebedevRule) -> list[VshExpansion]:
    """``project`` of each (fn, frame) of ``fields``, in order, with one
    weighted-basis evaluation for all of them: the rows depend only on the
    rule and the degree.  Each field's moments are the same products, in
    the same order, as its own ``project`` makes."""
    if rule.degree < 2 * max_degree:
        raise ValueError(
            f"quadrature rule degree {rule.degree} is below the projection "
            f"requirement 2*N = {2 * max_degree}"
        )
    values = [np.asarray(fn(frame.surface_points(rule)), dtype=float) for fn, frame in fields]
    for v in values:
        if v.shape != (rule.size, 3):
            raise ValueError(f"field returned shape {v.shape}, expected {(rule.size, 3)}")
    # SciPy's BLAS, the direct path's one library (see ``system``), imported
    # here: imported with this module, SciPy's linalg loads before the rest
    # of the package, which moved its garbage collections and made
    # ``import elastisph`` 14 ms slower (2-core x86-64 host)
    from ._blas import product

    L2 = num_scalar_modes(max_degree)
    if 9 * L2 * 8 * rule.size <= _CACHED_BASIS_BYTES:
        basis = weighted_basis(rule, max_degree)
        raws = [product(basis, v.reshape(-1)) for v in values]
    else:
        raws = _scalar_moments(values, max_degree, rule, product)
    norms = norm_sq_table(max_degree)
    out = []
    for raw in raws:
        raw = raw.reshape(-1, 3)
        coeffs = np.divide(raw, norms, out=np.zeros_like(raw), where=norms > 0.0)
        out.append(VshExpansion(sphere_id=-1, max_degree=max_degree, coeffs=coeffs))
    return out


def _scalar_moments(values: list[np.ndarray], max_degree: int, rule: LebedevRule,
                    product) -> list[np.ndarray]:
    """The unnormalised moments of each field of ``values`` (T, 3), at the
    rule's nodes, as ``weighted_basis`` gives them, (3 L2,) each, from the
    scalar basis alone.  With g = w f at node s (= n):

        <f, V> = sum g . grad_s Y - (l + 1) Y g . n
        <f, W> = sum g . grad_s Y + l Y g . n
        <f, X> = sum grad_s Y . (g x n)

    two contractions of the gradients and one of Y instead of nine of the
    weighted vector basis, per field, so that a field's moments do not
    depend on the fields projected with it.  They accumulate over blocks
    of nodes whose scalar basis is at most ``_PROJECT_BLOCK_BYTES``.
    """
    L2 = num_scalar_modes(max_degree)
    # per field, the contractions with g and with g x n, and with g . n
    tangential, radial = np.zeros((len(values), L2, 2)), np.zeros((len(values), L2))
    step = max(1, _PROJECT_BLOCK_BYTES // (4 * L2 * 8))
    for t in range(0, rule.size, step):
        s = rule.points[t:t + step]
        Y, grad = scalar_basis(s, max_degree)
        grad = grad.reshape(L2, -1)
        for v, along, normal in zip(values, tangential, radial):
            g = v[t:t + step] * rule.weights[t:t + step, None]
            along += product(grad, np.stack((g, np.cross(g, s))).reshape(2, -1).T)
            normal += product(Y, (g * s).sum(axis=1))
    ells = _mode_indices(max_degree)[0]
    return [np.stack((along - (ells + 1.0) * normal, along + ells * normal, across), axis=1).reshape(-1)
            for (along, across), normal in zip(tangential.transpose(0, 2, 1), radial)]


def reconstruct(expansion: VshExpansion, directions: np.ndarray) -> np.ndarray:
    """Evaluate the expanded field at unit directions, shape (n, 3).

    This sums the three families of ``vsh_basis`` as they are defined,
    where ``spectra``'s layer potentials synthesise the same families
    from the scalar basis.  It is the density the brute-force oracle
    integrates (``kernels_oracle``, the benchmark's field check), so it
    stays on this separate path: a fault in that synthesis cannot hide
    in its own reference.
    """
    basis = vsh_basis(directions, expansion.max_degree)
    out = np.einsum("p,ptc->tc", expansion.coeffs[:, 0], basis.V)
    out += np.einsum("p,ptc->tc", expansion.coeffs[:, 1], basis.W)
    out += np.einsum("p,ptc->tc", expansion.coeffs[:, 2], basis.X)
    return out
