"""Closed-form spectra of the elastic layer operators on spheres.

The vector spherical harmonics V, W, X diagonalise the single layer and
the adjoint double layer boundary operators; ``single_layer_eigs`` and
``adjoint_double_eigs`` give the eigenvalues per degree.

Off the sphere, the potential of either layer with a degree-l density is
a power law in the scaled radius rho = |x - x0| / r:

* the spheroidal (V, W) 2x2 block is H rho^a + L rho^b;
* the toroidal X entry is T rho^c;
* (a, b, c) = (l+1, l-1, l) inside and (-l-2, -l, -l-1) outside.

One read-only table holds (H, L, T) per side for degrees 0..max, built by
array code over the degree array, per layer, material and mode.  One
evaluator turns it into the 3x3 matrices of ``single_layer_matrix`` and
``double_layer_matrix``.  ``traction_trace_matrices`` reads its rho = 1
profiles off the single-layer table.

``apply_single_layer`` and ``apply_double_layer`` sum the matrices over
an expansion without tabulating a harmonic per mode.  Every family is
linear in Y and its surface gradient, and Y = c_m Q_l|m|(z) T_m(x, y)
with T_m the real or imaginary part of (x + i y)^|m|.  So for each signed
order the weighted Legendre values are summed over the degree first;
the azimuthal factors then multiply these per-order rows once, and the
orders are summed (sum factorisation, as in fast spherical-harmonic
synthesis).  The tangential projection is made once, on the summed
gradient.  All sums are elementwise over the points in a fixed order,
so a point's potential does not depend on the batch it comes in.

Two coefficient modes exist for the double-layer table and the toroidal
adjoint eigenvalue:

* ``as_printed``  -- the published tables verbatim;
* ``self_consistent`` -- the table re-derived from the radial ODE
  solution basis and the jump relations, where the audit shows the
  published tables contradict them (the default).

``audit_spectra`` checks the tables against the jump relations and the
brute-force oracle.  The audit, not the tables, is the ground truth:
every contradiction is reported rather than silently patched.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

from . import kernels_oracle as oracle
from .harmonics import (VshExpansion, _azimuthal_powers, _check_unit, _legendre_tables,
                        traction_of_radial_field)
from .kernels_oracle import AuditRecord
from .materials import LameParams
from .quadrature import SphereFrame

MODE_SELF_CONSISTENT = "self_consistent"
MODE_AS_PRINTED = "as_printed"
MODES = (MODE_SELF_CONSISTENT, MODE_AS_PRINTED)
DEFAULT_MODE = MODE_SELF_CONSISTENT


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown spectra mode {mode!r}; expected one of {MODES}")


def single_layer_eigs(ell: int, params: LameParams) -> tuple[float, float, float]:
    """Diagonal of the single layer boundary operator at degree ell.

    The W and X entries at ell = 0 are returned for completeness but
    correspond to identically-zero harmonics and are never used.  An
    integer array of degrees gives arrays of eigenvalues.
    """
    mu, lam = params.mu, params.lam
    denom = mu * (2.0 * mu + lam)
    t1 = ((3.0 * ell + 1.0) * mu + ell * lam) / ((2.0 * ell + 3.0) * (2.0 * ell + 1.0) * denom)
    t2 = ((3.0 * ell + 2.0) * mu + (ell + 1.0) * lam) / (
        (2.0 * ell - 1.0) * (2.0 * ell + 1.0) * denom
    )
    t3 = 1.0 / (mu * (2.0 * ell + 1.0))
    return t1, t2, t3


def adjoint_double_eigs(
    ell: int, params: LameParams, mode: str = DEFAULT_MODE
) -> tuple[float, float, float]:
    """Diagonal of the adjoint double layer boundary operator at degree ell.

    The first two entries follow the published closed form; the toroidal
    entry is -3/(2(2l+1)) in self-consistent mode (forced by the
    traction traces of the single layer) versus the published
    1/(2 mu (2l+1)).  An integer array of degrees gives arrays.
    """
    _check_mode(mode)
    mu, lam = params.mu, params.lam
    d = 2.0 * mu + lam
    t1 = -(2.0 * (2.0 * ell ** 2 + 6.0 * ell + 1.0) * mu - 3.0 * lam) / (
        2.0 * (2.0 * ell + 1.0) * (2.0 * ell + 3.0) * d
    )
    t2 = (2.0 * (2.0 * ell ** 2 - 2.0 * ell - 3.0) * mu - 3.0 * lam) / (
        2.0 * (2.0 * ell + 1.0) * (2.0 * ell - 1.0) * d
    )
    if mode == MODE_AS_PRINTED:
        t3 = 1.0 / (2.0 * mu * (2.0 * ell + 1.0))
    else:
        t3 = -3.0 / (2.0 * (2.0 * ell + 1.0))
    return t1, t2, t3


# ---------------------------------------------------------------------------
# power-law tables
# ---------------------------------------------------------------------------

_SIDES = ("in", "out")


def _blank(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero (H, L, T) for both sides (axis 0: in, out) and ``size`` degrees."""
    H = np.zeros((2, size, 2, 2))
    return H, np.zeros_like(H), np.zeros((2, size))


def _single_layer_coeffs(ells: np.ndarray, params: LameParams):
    """Single-layer (H, L, T): the eigenvalues on the diagonal plus the
    coupling c (rho^a - rho^b) of the interior W row to the V density and
    of the exterior V row to the W density."""
    mu, lam = params.mu, params.lam
    t1, t2, t3 = single_layer_eigs(ells, params)
    denom = 2.0 * (2.0 * ells + 1.0) * mu * (2.0 * mu + lam)
    c_in, c_out = (ells + 1.0) * (mu + lam) / denom, ells * (mu + lam) / denom
    H, L, T = _blank(ells.size)
    H[:, :, 0, 0], L[:, :, 1, 1], T[:] = t1, t2, t3
    H[0, :, 1, 0], L[0, :, 1, 0] = c_in, -c_in
    H[1, :, 0, 1], L[1, :, 0, 1] = c_out, -c_out
    return H, L, T


def _ode_constants(ell, params: LameParams):
    """Coupling constants of the radial ODE solution basis at degree ell.

    The interior regular spheroidal solution is
    f = q11 r^(l+1), g = q21 r^(l+1) (plus the pure g = r^(l-1) one);
    the exterior decaying ones are f = r^(-l-2) and
    (f, g) = (p12, p22) r^(-l).
    """
    mu, lam = params.mu, params.lam
    p12 = -ell * (mu + lam) / (2.0 * ell + 1.0)
    p22 = (2.0 / (2.0 * ell - 1.0)) * (mu + (ell + 1.0) * (mu + lam) / (2.0 * ell + 1.0))
    q11 = (2.0 / (2.0 * ell + 3.0)) * (mu + ell * (mu + lam) / (2.0 * ell + 1.0))
    q21 = (ell + 1.0) * (mu + lam) / (2.0 * ell + 1.0)
    return p12, p22, q11, q21


def _derived_double_layer(ells: np.ndarray, params: LameParams):
    """Double-layer (H, L, T) from the jump relations.

    The potential of each spheroidal density family is expanded in the
    radial ODE solution basis with unknowns (alpha, beta, gamma, delta):

        interior f = alpha q11 rho^(l+1),  g = alpha q21 rho^(l+1) + beta rho^(l-1)
        exterior f = gamma rho^(-l-2) + delta p12 rho^(-l),  g = delta p22 rho^(-l)

    The displacement jump (-identity) and traction continuity fix them:
    one 4x4 system per degree and density column, solved as one batch.
    This reproduces the published Appendix values where those are
    consistent and corrects them where they are not.
    """
    mu, lam = params.mu, params.lam
    H, L, T = _blank(ells.size)
    # degree 0: interior alpha*r, exterior gamma*r^{-2}; jump alpha - gamma = -1,
    # traction continuity (2mu+3lam) alpha + 4 mu gamma = 0
    gamma = (2.0 * mu + 3.0 * lam) / (3.0 * (2.0 * mu + lam))
    H[:, 0, 0, 0] = gamma - 1.0, gamma
    l = ells[1:].astype(float)
    if not l.size:
        return H, L, T
    p12, p22, q11, q21 = _ode_constants(l, params)

    def traction(f1, f1r, g1, g1r):
        return traction_of_radial_field((f1, f1r, g1, g1r, 0.0, 0.0), l, params)[:2]

    tva, twa = traction(q11, (l + 1.0) * q11, q21, (l + 1.0) * q21)
    tvb, twb = traction(0.0, 0.0, 1.0, l - 1.0)
    tvc, twc = traction(1.0, -(l + 2.0), 0.0, 0.0)
    tvd, twd = traction(p12, -l * p12, p22, -l * p22)
    zero, one = np.zeros_like(l), np.ones_like(l)
    # rows: V and W displacement jump, V and W traction jump
    A = np.moveaxis(np.array([[q11, zero, -one, -p12],
                              [q21, one, zero, -p22],
                              [tva, tvb, -tvc, -tvd],
                              [twa, twb, -twc, -twd]]), -1, 0)
    # one right-hand side per density column (V, W), each solved on its own
    rhs = -np.eye(4)[:2, None, :, None]
    alpha, beta, gamma, delta = np.linalg.solve(A, rhs)[..., 0].transpose(2, 1, 0)
    H[0, 1:] = np.stack([q11, q21], axis=-1)[:, :, None] * alpha[:, None, :]
    L[0, 1:, 1] = beta
    H[1, 1:, 0] = gamma
    L[1, 1:] = np.stack([p12, p22], axis=-1)[:, :, None] * delta[:, None, :]
    # toroidal: interior c_in rho^l, exterior c_out rho^{-l-1}
    T[1, 1:] = (l - 1.0) / (2.0 * l + 1.0)
    T[0, 1:] = T[1, 1:] - 1.0
    return H, L, T


def _printed_double_layer(ells: np.ndarray, params: LameParams):
    """The published double-layer coefficient tables, verbatim.

    Kept exactly as printed (including the entries the audit flags as
    inconsistent with the jump relations) so the discrepancy can be
    reproduced and documented.
    """
    mu, lam = params.mu, params.lam
    l = ells.astype(float)
    d = 2.0 * mu + lam
    H, L, T = _blank(ells.size)
    # interior
    H[0, :, 0, 0] = -(l + 2.0) * ((3.0 * l + 2.0) * mu + (l + 1.0) * lam) * (
        (3.0 * l + 1.0) * mu + l * lam) / ((2.0 * l + 3.0) * (2.0 * l + 1.0) ** 2 * mu * d)
    H[0, :, 1, 0] = -(l + 1.0) * (l + 2.0) * ((3.0 * l + 2.0) * mu + (l + 1.0) * lam) * (
        mu + lam) / (2.0 * (2.0 * l + 1.0) ** 2 * d)
    L[0, :, 1, 0] = (l + 1.0) * (l + 2.0) * ((3.0 * l + 2.0) * mu + (l + 1.0) * lam) * (
        mu + lam) / (2.0 * (2.0 * l - 1.0) * (2.0 * l + 1.0) * mu * d)
    H[0, :, 0, 1] = -l * (l - 1.0) * (mu + lam) * ((3.0 * l + 1.0) * mu + l * lam) / (
        (2.0 * l + 3.0) * (2.0 * l + 1.0) ** 2 * mu * d)
    H[0, :, 1, 1] = -l * (l - 1.0) * (l + 1.0) * (mu + lam) ** 2 / (
        2.0 * (2.0 * l + 1.0) ** 2 * mu * d)
    L[0, :, 1, 1] = (
        (l ** 3 + 24.0 * l ** 2 - 5.0 * l - 8.0) * mu ** 2
        + 2.0 * (l ** 3 + 6.0 * l ** 2 - 2.0 * l - 2.0) * mu * lam
        + (l ** 3 - l) * lam ** 2
    ) / ((2.0 * l - 1.0) * (2.0 * l + 1.0) * mu * d)
    T[0] = -(l + 1.0) / ((2.0 * l + 1.0) * mu)
    # exterior
    H[1, :, 0, 0] = (l + 1.0) * (
        (l ** 2 + 10.0 * l + 4.0) * mu ** 2
        + (2.0 * l ** 2 + 8.0 * l + 2.0) * mu * lam
        + (l ** 2 + l) * lam
    ) / (2.0 * (2.0 * l + 1.0) * (2.0 * l + 3.0) * mu * d)
    L[1, :, 0, 0] = -l * (l + 1.0) * (l + 2.0) * (mu + lam) ** 2 / (
        2.0 * (2.0 * l + 1.0) ** 2 * mu * d)
    L[1, :, 1, 0] = (l + 1.0) * (l + 2.0) * (mu + lam) * (
        (3.0 * l + 2.0) * mu + (l + 1.0) * lam) / ((2.0 * l - 1.0) * (2.0 * l + 1.0) ** 2 * mu * d)
    H[1, :, 0, 1] = -l * (l - 1.0) * (mu + lam) * ((3.0 * l + 1.0) * mu + l * lam) / (
        2.0 * (2.0 * l + 3.0) * (2.0 * l + 1.0) * mu * (2.0 * mu + lam ** 2))
    L[1, :, 0, 1] = l * (l - 1.0) * ((3.0 * l + 1.0) * mu + l * lam) * (mu + lam) / (
        2.0 * (2.0 * l + 1.0) * (2.0 * l + 3.0) * mu * d)
    L[1, :, 1, 1] = (l - 1.0) * ((3.0 * l + 1.0) * mu + l * lam) * (
        (3.0 * l + 2.0) * mu + (l + 1.0) * lam) / ((2.0 * l - 1.0) * (2.0 * l + 1.0) ** 2 * mu * d)
    T[1] = l / ((2.0 * l + 1.0) * mu)
    return H, L, T


@lru_cache(maxsize=256)
def _power_table(layer: str, params: LameParams, max_degree: int, mode: str | None) -> dict:
    """Power-law coefficients of one layer for degrees 0..max_degree.

    Maps each side to read-only ``(H, L, T, terms)``: H and L (degrees,
    2, 2) multiply rho^a and rho^b in the (V, W) block, T (degrees,)
    multiplies rho^c in the X entry.  ``terms`` lists (row, column,
    power: 0 for a / 1 for b, coefficients over degrees) of the block
    terms that are nonzero at some degree; the evaluator skips the rest.
    At degree 0 only the V-V entry is kept: W and X vanish there.
    ``mode`` is None for the single layer.
    """
    ells = np.arange(max_degree + 1)
    if layer == "single":
        H, L, T = _single_layer_coeffs(ells, params)
    elif mode == MODE_AS_PRINTED:
        H, L, T = _printed_double_layer(ells, params)
    else:
        H, L, T = _derived_double_layer(ells, params)
    H[:, 0, [0, 1, 1], [1, 0, 1]] = L[:, 0, [0, 1, 1], [1, 0, 1]] = T[:, 0] = 0.0
    table = {}
    for s, side in enumerate(_SIDES):
        h, low, t = H[s], L[s], T[s]
        for arr in (h, low, t):
            arr.setflags(write=False)
        terms = tuple((i, j, p, coeffs[:, i, j]) for i in (0, 1) for j in (0, 1)
                      for p, coeffs in enumerate((h, low)) if coeffs[:, i, j].any())
        table[side] = (h, low, t, terms)
    return table


def _exponents(ell, side: str):
    """(a, b, c) of the power law; ``l - 1`` is clipped at 0 so that the
    degree-0 powers, which meet zero coefficients, stay finite at rho = 0."""
    if side == "in":
        return ell + 1, np.maximum(ell - 1, 0), ell
    return -ell - 2, -ell, -ell - 1


def _layer_matrix(layer: str, ell, params: LameParams, rho, side: str,
                  mode: str | None) -> np.ndarray:
    """The 3x3 matrices of one layer's potential, ``np.shape(ell) +
    rho.shape + (3, 3)``: (V, W) block H rho^a + L rho^b, X entry T rho^c."""
    rho = np.asarray(rho, dtype=float)
    if side == "in":
        if (rho > 1.0 + 1e-12).any():
            raise ValueError("side='in' requires rho <= 1")
    elif side == "out":
        if (rho < 1.0 - 1e-12).any():
            raise ValueError("side='out' requires rho >= 1")
    else:
        raise ValueError(f"side must be 'in' or 'out', got {side!r}")
    ells = np.asarray(ell)
    # one degree stays 0-d: numpy's power then takes the same loop for any
    # number of points, so a point's matrix does not depend on its batch
    ell = ells.reshape(ells.shape + (1,) * rho.ndim) if ells.ndim else ells
    _, _, T, terms = _power_table(layer, params, int(ells.max()), mode)[side]
    a, b, c = _exponents(ell, side)
    powers = (rho ** a, rho ** b)
    out = np.zeros(ells.shape + rho.shape + (3, 3))
    for i, j, p, coeffs in terms:
        out[..., i, j] += coeffs[ell] * powers[p]
    out[..., 2, 2] = T[ell] * rho ** c
    return out


def single_layer_matrix(ell, params: LameParams, rho, side: str) -> np.ndarray:
    """Radius-dependent matrix of the single layer potential.

    ``rho`` is the scaled radius |x - x0| / r (scalar or array); columns
    are the density family, rows the component family of the result.
    ``side`` must match rho ('in': rho <= 1, 'out': rho >= 1).  At
    ell = 0 the degenerate W/X rows and columns are zeroed.  ``ell`` is
    one degree or an integer array of degrees; the result has shape
    ``np.shape(ell) + rho.shape + (3, 3)``.
    """
    return _layer_matrix("single", ell, params, rho, side, None)


def double_layer_matrix(
    ell, params: LameParams, rho, side: str, mode: str = DEFAULT_MODE
) -> np.ndarray:
    """Radius-dependent matrix of the double layer potential; arguments and
    shape as in ``single_layer_matrix``, coefficients from ``mode``."""
    _check_mode(mode)
    return _layer_matrix("double", ell, params, rho, side, mode)


def traction_trace_matrices(ell: int, params: LameParams) -> tuple[np.ndarray, np.ndarray]:
    """Interior and exterior traction traces of the single layer.

    Returns 3x3 matrices (T_in, T_out) whose column k expands the
    traction of S Y^k on the unit sphere in the (V, W, X) basis.  The
    radial profiles (f, f', g, g', h, h') at rho = 1 are read off the
    single-layer table: value H + L, slope a H + b L (T and c T for h).
    """
    mats = []
    for side in _SIDES:
        H, L, T, _ = _power_table("single", params, ell, None)[side]
        a, b, c = _exponents(ell, side)
        prof = np.zeros((3, 6))  # one row per density family
        prof[:2, 0:4:2] = (H[ell] + L[ell]).T
        prof[:2, 1:4:2] = (a * H[ell] + b * L[ell]).T
        prof[2, 4:] = T[ell], c * T[ell]
        mats.append(np.array([traction_of_radial_field(p, ell, params) for p in prof]).T)
    return mats[0], mats[1]


def _split_sides(frame: SphereFrame, x: np.ndarray):
    rel = x - frame.center_array
    dist = np.linalg.norm(rel, axis=-1)
    rho = dist / frame.radius
    inner = rho <= 1.0
    return rel, dist, rho, inner


def _apply_layer(matrix_fn, frame, density: VshExpansion, x, radius_factor: float):
    """Sum the radial-profile fields of ``density`` at the points ``x``.

    The potential at a point is sum_j c_j (V|W|X)_j with the weights
    c_j = sum_k coeff_k A_jk of the family j at that radius.  All three
    families are linear in the scalar harmonic and its surface gradient,

        V = grad Y - (l+1) Y n,   W = grad Y + l Y n,   X = n x grad Y,

    so the sum is ``g + y n + n x g_X`` with g = sum a grad Y,
    y = sum b Y and g_X = sum c_X grad Y, where a = c_V + c_W and
    b = l c_W - (l+1) c_V.  ``_synthesise`` forms these sums per side
    without tabulating any harmonic.

    A point's result must not depend on the batch it comes in (the field
    evaluator splits batches by region and side).  Every step is
    elementwise over the points, and every sum is accumulated term by
    term in a fixed order (degrees ascending, then orders ascending): no
    matrix product and no numpy reduction, whose loop could depend on
    the batch's memory layout.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    rel, dist, rho, inner = _split_sides(frame, pts)
    out = np.zeros_like(pts)
    # direction is arbitrary at the center; only rho-constant terms survive there
    safe = np.where(dist[:, None] > 0.0, rel / np.maximum(dist, 1e-300)[:, None], 0.0)
    safe[dist == 0.0] = np.array([0.0, 0.0, 1.0])
    for side, idx in (("in", np.flatnonzero(inner)), ("out", np.flatnonzero(~inner))):
        if idx.size:
            out[idx] = _synthesise(matrix_fn, density, safe[idx], rho[idx], side)
    out *= radius_factor
    return out[0] if single else out


def _synthesise(matrix_fn, density: VshExpansion, n: np.ndarray, rho: np.ndarray,
                side: str) -> np.ndarray:
    """``g + y n + n x g_X`` (see ``_apply_layer``) at the unit directions
    ``n`` (P, 3) of points on one side, summed first over the degree for
    each order, then over the order.

    The harmonic of order m is c_m Q_l|m|(z) T_m(x, y), with T_m = C_|m|
    for m >= 0 and S_|m| for m < 0, C_m + i S_m = (x + i y)^m and c_m as
    in ``scalar_basis``.  Its polynomial extension off the sphere has the
    Cartesian gradient c_m (Q |m| T'_m, Q (-m) T''_m, dQ T_m), where T'_m
    and T''_m are the C/S_(|m|-1) factors of the x and y derivatives.  So
    one pass over the degrees collects five rows per signed order,

        sum_l a Q,  sum_l a dQ,  sum_l c_X Q,  sum_l c_X dQ,  sum_l b Q,

    and one pass over the orders multiplies them by the azimuthal factors
    and adds them up: y, the extended gradient G of the a-sum and G_X of
    the c_X-sum.  The surface gradient is G - (G.n) n, so only G needs
    the tangential projection; n x G_X drops the radial part of G_X
    by itself.  No per-mode array is made: the largest arrays are the
    packed Legendre tables (2, (N+1)(N+2)/2, P), the five order rows
    (5, 2N+1, P) and the azimuthal factors (3, 2N+1, P).

    Those tables are views of one work array.  Made apart, they left the
    call's peak at more than twice its largest block, and where the
    process had freed no larger block before, the allocator returned the
    memory after each call: on the three spheres at N=16, a batch of
    2 000 points faulted in 31 MB of fresh pages per call, and took 59 ms
    against 43 ms (2-core x86-64 host, glibc).
    """
    _check_unit(n)
    x, y, z = n.T
    N, P = density.max_degree, len(n)
    # the Legendre tables, the order rows, (C, S) and the azimuthal factors
    shapes = ((2, (N + 1) * (N + 2) // 2, P), (5, 2 * N + 1, P), (2, N + 1, P), (3, 2 * N + 1, P))
    stops = np.cumsum([a * b * c for a, b, c in shapes]).tolist()
    work = np.empty(stops[-1])
    QdQ, rows, CS, factors = (work[stop - a * b * c:stop].reshape(a, b, c)
                              for (a, b, c), stop in zip(shapes, stops))
    _legendre_tables(z, N, out=QdQ)
    # rows a Q, c_X Q, a dQ, c_X dQ, b Q; the signed order m at column N + m
    rows[...] = 0.0
    per_family = np.empty((2, 2, len(n)))  # (a | b, V | W density, point)
    for ell in range(N + 1):
        coeff = density.coeffs[ell * ell:(ell + 1) * (ell + 1)]  # (2l+1, 3)
        if not np.any(coeff):
            continue
        # what a unit V or W density adds to a and b at each point; the X
        # family couples to no other, so A has no V/W-X entries
        A = matrix_fn(ell, rho, side)  # (P, component family, density family)
        per_family[0] = (A[:, 0, :2] + A[:, 1, :2]).T
        per_family[1] = (ell * A[:, 1, :2] - (ell + 1.0) * A[:, 0, :2]).T
        a, b = (coeff[:, 0, None] * per_family[:, None, 0]
                + coeff[:, 1, None] * per_family[:, None, 1])
        c_x = coeff[:, 2, None] * np.ascontiguousarray(A[:, 2, 2])
        # orders 0..l read the packed (Q, dQ) rows of |m| = 0..l, orders
        # -l..-1 the same rows reversed (a view, |m| = l..1)
        t0 = ell * (ell + 1) // 2
        halves = ((slice(N, N + ell + 1), slice(ell, None), QdQ[:, t0:t0 + ell + 1]),
                  (slice(N - ell, N), slice(None, ell), QdQ[:, t0 + ell:t0:-1]))
        for orders, modes, qd in halves:
            rows[0:4:2, orders] += a[modes] * qd
            rows[1:4:2, orders] += c_x[modes] * qd
            rows[4, orders] += b[modes] * qd[0]
    # azimuthal factors per signed order: those of the x and y derivatives,
    # then T itself, with c_m; m = 0 reads C[-1] against its zero factors
    ms = np.arange(-N, N + 1)
    am, neg = np.abs(ms), (ms < 0).astype(int)
    cm = np.where(ms == 0, 1.0, sqrt(2.0))[:, None]
    _azimuthal_powers(x, y, N, out=CS)
    np.stack([cm * am[:, None] * CS[neg, am - 1],
              cm * -ms[:, None] * CS[1 - neg, am - 1],
              cm * CS[neg, am]], out=factors)
    # (G, G_X) x and y components, then G and G_X z components and y,
    # each summed over the orders in turn
    tangential, rest = np.zeros((2, 2, len(n))), np.zeros((3, len(n)))
    for r in range(2 * N + 1):
        tangential += rows[0:2, None, r] * factors[None, 0:2, r]
        rest += rows[2:5, r] * factors[2, r]
    (gx, gy), (hx, hy) = tangential
    gz, hz, yv = rest
    normal = yv - (gx * x + gy * y + gz * z)  # y minus the radial part of G
    return np.stack([gx + normal * x + (y * hz - z * hy),
                     gy + normal * y + (z * hx - x * hz),
                     gz + normal * z + (x * hy - y * hx)], axis=1)


def apply_single_layer(
    frame: SphereFrame, params: LameParams, density: VshExpansion, x
) -> np.ndarray:
    """Closed-form single layer potential of an expanded density.

    Works at any point; the side is chosen per point by |x - x0| vs r,
    and the potential carries the leading radius factor r.  The center
    is well defined (all interior powers vanish or are constant there).
    """
    fn = lambda ell, rho, side: single_layer_matrix(ell, params, rho, side)
    return _apply_layer(fn, frame, density, x, frame.radius)


def apply_double_layer(
    frame: SphereFrame,
    params: LameParams,
    density: VshExpansion,
    x,
    mode: str = DEFAULT_MODE,
) -> np.ndarray:
    """Closed-form double layer potential of an expanded density (no r factor)."""
    fn = lambda ell, rho, side: double_layer_matrix(ell, params, rho, side, mode)
    return _apply_layer(fn, frame, density, x, 1.0)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

_FAMILY_NAMES = ("V", "W", "X")


def audit_spectra(
    ell_max: int,
    params: LameParams,
    rule_degree: int = 47,
    mode: str = DEFAULT_MODE,
    oracle_points: bool = True,
    flag_tol: float = 1e-10,
    oracle_tol: float = 1e-6,
) -> list[AuditRecord]:
    """Self-consistency audit of the closed-form tables.

    Checks, per degree and family: (i) boundary consistency of the
    single-layer matrices, (ii) the traction-trace identities
    T^-+ S = (+-1/2 + K*) against the adjoint eigenvalues of the
    selected mode, (iii) the double-layer displacement jump, and
    optionally (iv) agreement with the brute-force oracle at off-surface
    points.  Entries where the selected tables contradict the identities
    are flagged.
    """
    _check_mode(mode)
    records: list[AuditRecord] = []
    for ell in range(ell_max + 1):
        families = (0,) if ell == 0 else (0, 1, 2)
        tau_v = single_layer_eigs(ell, params)
        a_in = single_layer_matrix(ell, params, np.array(1.0), "in")
        a_out = single_layer_matrix(ell, params, np.array(1.0), "out")
        t_in, t_out = traction_trace_matrices(ell, params)
        tau_k = adjoint_double_eigs(ell, params, mode)
        dl_in = double_layer_matrix(ell, params, np.array(1.0), "in", mode)
        dl_out = double_layer_matrix(ell, params, np.array(1.0), "out", mode)
        for k in families:
            name = _FAMILY_NAMES[k]
            res_bc = max(abs(a_in[k, k] - tau_v[k]), abs(a_out[k, k] - tau_v[k]))
            records.append(AuditRecord(
                identity="single_layer_boundary_consistency", ell=ell, k=name,
                residual=res_bc, flagged=res_bc > flag_tol,
            ))
            # traction jump must be the identity on the mode
            res_jump = float(np.max(np.abs((t_in - t_out)[:, k] - np.eye(3)[:, k])))
            records.append(AuditRecord(
                identity="single_layer_traction_jump", ell=ell, k=name,
                residual=res_jump, flagged=res_jump > flag_tol,
            ))
            # the two-sided average must reproduce the adjoint eigenvalue
            avg = 0.5 * (t_in + t_out)
            res_avg = float(np.max(np.abs(avg[:, k] - tau_k[k] * np.eye(3)[:, k])))
            records.append(AuditRecord(
                identity="adjoint_double_eigenvalue", ell=ell, k=name,
                residual=res_avg, inferred=float(avg[k, k]), flagged=res_avg > flag_tol,
            ))
            # double layer displacement jump = -identity
            res_dl = float(np.max(np.abs((dl_in - dl_out)[:, k] + np.eye(3)[:, k])))
            records.append(AuditRecord(
                identity="double_layer_trace_jump", ell=ell, k=name,
                residual=res_dl, flagged=res_dl > flag_tol,
            ))
    if oracle_points:
        records.extend(_oracle_records(min(ell_max, 3), params, rule_degree, mode, oracle_tol))
    return records


def _oracle_records(ell_max: int, params: LameParams, rule_degree: int, mode: str,
                    tol: float) -> list[AuditRecord]:
    """Compare closed-form potentials of every unit mode against brute-force quadrature."""
    frame = SphereFrame(center=(0.0, 0.0, 0.0), radius=1.0)
    # off-surface probes on both sides, dist >= 0.5
    dirs = np.array([
        [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
        [0.6, -0.48, 0.64], [-0.6, 0.64, 0.48],
    ])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.concatenate([0.5 * dirs, 2.0 * dirs])
    records = []
    for ell in range(ell_max + 1):
        for mm in range(-ell, ell + 1):
            for k in ((0,) if ell == 0 else (0, 1, 2)):
                density = VshExpansion.zeros(sphere_id=-1, max_degree=ell)
                density.coeffs[ell * ell + ell + mm, k] = 1.0
                ref_s = oracle.sl_offsurface(density, frame, params, pts, rule_degree)
                val_s = apply_single_layer(frame, params, density, pts)
                scale_s = max(np.max(np.abs(ref_s)), 1e-30)
                res_s = float(np.max(np.abs(ref_s - val_s)) / scale_s)
                records.append(AuditRecord(
                    identity="oracle_single_layer", ell=ell, k=_FAMILY_NAMES[k], m=mm,
                    residual=res_s, rule_degree=rule_degree, flagged=res_s > tol,
                ))
                ref_d = oracle.dl_offsurface(density, frame, params, pts, rule_degree)
                val_d = apply_double_layer(frame, params, density, pts, mode)
                scale_d = max(np.max(np.abs(ref_d)), 1e-30)
                res_d = float(np.max(np.abs(ref_d - val_d)) / scale_d)
                records.append(AuditRecord(
                    identity="oracle_double_layer", ell=ell, k=_FAMILY_NAMES[k], m=mm,
                    residual=res_d, rule_degree=rule_degree, flagged=res_d > tol,
                ))
    return records
