"""Brute-force ground truth for the elastic layer potentials.

Contains the fundamental solution of the isotropic elasticity operator,
the traction kernel, plain-quadrature off-surface evaluation of the
single and double layer potentials, finite-difference differential
operators, and the two-sided jump audit.  Everything here is derived
directly from the kernels; none of it uses the closed-form spectra, so
it serves as an independent check on them.

Every off-surface sum runs through one blocked quadrature, ``_layer_sums``.
It builds the kernel array of one block of target points at a time, at
most ``_KERNEL_BLOCK_BYTES``, and contracts it with a whole stack of
densities at once.  The kernels do not depend on the density, so the jump
audit of many modes pays for one kernel evaluation, and no call holds
more than one block's kernel array.

On-surface (singular) integrals are never evaluated: boundary traces
are estimated by Richardson-extrapolated two-sided off-surface limits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .harmonics import ModeIndex, VshExpansion, reconstruct, vsh_basis, sh_index
from .materials import LameParams
from .quadrature import LebedevRule, SphereFrame, rule_for_degree

DEFAULT_FD_STEP = 1e-5     # central stencils, O(h^2) error model
DEFAULT_MIN_DIST = 1e-3    # refuse quadrature closer than this (times r) to the surface
_KERNEL_BLOCK_BYTES = 2**22  # kernel array per block of targets, 72 bytes per target and node


def green(x, params: LameParams) -> np.ndarray:
    """Fundamental-solution matrix G(x); accepts (..., 3), returns (..., 3, 3).

    G is symmetric, even, and homogeneous of degree -1.
    """
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("fundamental solution is singular at x = 0")
    r = np.sqrt(r2)
    mu, lam = params.mu, params.lam
    ca = (lam + 3.0 * mu) / (lam + 2.0 * mu)
    cb = (lam + mu) / (lam + 2.0 * mu)
    eye = np.eye(3)
    out = ca * eye / r[..., None, None]
    out = out + cb * x[..., :, None] * x[..., None, :] / (r2 * r)[..., None, None]
    return out / (8.0 * np.pi * mu)


def _green_traction(z, n, params: LameParams) -> np.ndarray:
    """Traction of the columns of G(z) with respect to z, normal n.

    ``z`` and ``n`` broadcast as (..., 3); returns (..., 3, 3) whose
    column j is the traction vector of the j-th Green column:

        -(mu (zn I + z n^T - n z^T) + 3 (lam + mu) zn / r^2 z z^T)
          / (4 pi (lam + 2 mu) r^3),   zn = z . n.

    Formed in the returned array and one work array of its shape, each
    step in place, in the order of the expression, so that every entry
    is the expression's own rounding.
    """
    z = np.asarray(z, dtype=float)
    n = np.broadcast_to(np.asarray(n, dtype=float), z.shape)
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 == 0.0):
        raise ValueError("traction kernel is singular at coincident points")
    r = np.sqrt(r2)
    mu, lam = params.mu, params.lam
    zn = np.sum(z * n, axis=-1)
    zi, zj, ni, nj = z[..., :, None], z[..., None, :], n[..., :, None], n[..., None, :]
    term = np.multiply(np.eye(3), zn[..., None, None])
    work = np.multiply(nj, zi)
    term += work
    term -= np.multiply(ni, zj, out=work)
    term *= mu
    work = np.multiply(zi, zj, out=work)
    work *= 3.0 * (lam + mu) * (zn / r2)[..., None, None]
    term += work
    del work
    np.negative(term, out=term)
    term /= 4.0 * np.pi * (lam + 2.0 * mu) * (r2 * r)[..., None, None]
    return term


def traction_kernel(x, y, n_y, params: LameParams) -> np.ndarray:
    """Double-layer kernel matrix: traction in the y-variable of G(x - y).

    The y-derivative flips the sign of the argument derivative, hence
    the leading minus.  Shapes broadcast as (..., 3).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    K = _green_traction(x - y, n_y, params)
    return np.negative(K, out=K)


def _layer_sums(kind: str, phis, frame: SphereFrame, rule: LebedevRule, params: LameParams,
                x: np.ndarray, normals=None) -> np.ndarray:
    """Plain quadrature of one kernel against a (k, T, 3) stack of densities.

    ``phis`` holds the densities' values at the rule's nodes on ``frame``.
    Returns (k, n, 3) at the n points ``x``, the surface Jacobian r^2
    included.  ``kind`` names the kernel: ``"single"`` the Green matrix,
    ``"single_traction"`` its traction with respect to the target, normal
    ``normals`` (n, 3), and ``"double"`` the traction kernel, which acts
    transposed on the density (Somigliana convention).
    """
    yv = frame.surface_points(rule)
    n_y = (yv - frame.center_array) / frame.radius
    subscripts = "ntij,kti,t->knj" if kind == "double" else "ntij,ktj,t->kni"
    block = max(1, _KERNEL_BLOCK_BYTES // (72 * rule.size))
    out = np.empty((len(phis), len(x), 3))
    for s in range(0, len(x), block):
        xb = x[s:s + block, None, :]
        if kind == "single":
            K = green(xb - yv, params)
        elif kind == "single_traction":
            K = _green_traction(xb - yv, normals[s:s + block, None, :], params)
        else:
            K = traction_kernel(xb, yv, n_y, params)
        # a matrix product, except for the double layer: the jump audit
        # differentiates its potential by a 1e-5 stencil, which magnifies
        # the sums' rounding by orders of magnitude, and einsum's plain loop
        # sums each target point in one order, whatever the block or stack
        out[:, s:s + block] = np.einsum(subscripts, K, phis, rule.weights,
                                        optimize=kind != "double")
    return out * frame.radius ** 2


def _offsurface(kind, density, frame: SphereFrame, params: LameParams, x, rule_degree, min_dist):
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    d = np.abs(np.linalg.norm(pts - frame.center_array, axis=-1) - frame.radius)
    if np.any(d < min_dist * frame.radius):
        raise ValueError(
            "evaluation point too close to the surface for plain quadrature "
            f"(dist < {min_dist} * r); use the two-sided limit machinery instead"
        )
    rule = rule_for_degree(rule_degree)
    if isinstance(density, VshExpansion):
        phi = reconstruct(density, rule.points)
    else:
        phi = np.asarray(density(frame.surface_points(rule)), dtype=float)
    out = _layer_sums(kind, phi[None], frame, rule, params, pts)[0]
    return out[0] if x.ndim == 1 else out


def sl_offsurface(density, frame: SphereFrame, params: LameParams, x, rule_degree: int = 47,
                  min_dist: float = DEFAULT_MIN_DIST) -> np.ndarray:
    """Quadrature single-layer potential at off-surface points.

    ``density`` is a VshExpansion on the sphere or a callable on surface
    points.  ``x`` may be one point or an (n, 3) batch.  The surface
    Jacobian r^2 is included.
    """
    return _offsurface("single", density, frame, params, x, rule_degree, min_dist)


def dl_offsurface(density, frame: SphereFrame, params: LameParams, x, rule_degree: int = 47,
                  min_dist: float = DEFAULT_MIN_DIST) -> np.ndarray:
    """Quadrature double-layer potential at off-surface points.

    The kernel matrix acts transposed on the density (Somigliana
    convention); that orientation, not the plain matrix product, is the
    one satisfying D(rigid trace) = -rigid inside and 0 outside.
    """
    return _offsurface("double", density, frame, params, x, rule_degree, min_dist)


def apply_L_fd(field, x, params: LameParams, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Second-order central-difference elasticity operator -div(stress(u)).

    Uses L u = -mu Lap u - (mu + lam) grad(div u), valid for constant
    coefficients.  ``field`` maps (n, 3) points to (n, 3) values.
    """
    x = np.asarray(x, dtype=float)
    h = step
    eye = np.eye(3)
    pts = [x]
    for j in range(3):
        pts += [x + h * eye[j], x - h * eye[j]]
    for i in range(3):
        for j in range(i + 1, 3):
            pts += [
                x + h * eye[i] + h * eye[j],
                x + h * eye[i] - h * eye[j],
                x - h * eye[i] + h * eye[j],
                x - h * eye[i] - h * eye[j],
            ]
    vals = np.asarray(field(np.array(pts)), dtype=float)
    u0 = vals[0]
    upm = vals[1:7].reshape(3, 2, 3)          # axis, +/-, component
    second = (upm[:, 0] + upm[:, 1] - 2.0 * u0) / h ** 2   # d^2 u / dx_j^2
    lap = second.sum(axis=0)
    hess_diag = second                         # (j, component)
    mixed = vals[7:].reshape(3, 4, 3)          # pairs (0,1),(0,2),(1,2)
    pair_list = [(0, 1), (0, 2), (1, 2)]
    grad_div = np.zeros(3)
    for i in range(3):
        grad_div[i] += hess_diag[i, i]
        for pidx, (a, b) in enumerate(pair_list):
            if i in (a, b):
                j = b if i == a else a
                mpp, mpm, mmp, mmm = mixed[pidx]
                cross = (mpp[j] - mpm[j] - mmp[j] + mmm[j]) / (4.0 * h ** 2)
                grad_div[i] += cross
    return -params.mu * lap - (params.mu + params.lam) * grad_div


def traction_fd(
    field, p, normal, params: LameParams, step: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Stress of ``field`` at p contracted with ``normal``, by central FD.

    The field must be smooth in a ball of radius ``step`` around p, so
    for one-sided surface traces call this at points displaced off the
    surface.
    """
    p = np.asarray(p, dtype=float)
    n = np.asarray(normal, dtype=float)
    h = step
    eye = np.eye(3)
    pts = []
    for j in range(3):
        pts += [p + h * eye[j], p - h * eye[j]]
    vals = np.asarray(field(np.array(pts)), dtype=float).reshape(3, 2, 3)
    gradu = (vals[:, 0, :] - vals[:, 1, :]).T / (2.0 * h)  # gradu[i, j] = du_i/dx_j
    strain = 0.5 * (gradu + gradu.T)
    stress = 2.0 * params.mu * strain + params.lam * np.trace(strain) * np.eye(3)
    return stress @ n


@dataclass
class AuditRecord:
    """One identity-check entry of the jump audit; ``m`` is None on per-degree checks."""

    identity: str
    ell: int
    k: str
    residual: float
    m: int | None = None
    rule_degree: int | None = None
    epsilon: float | None = None
    inferred: float | None = None
    flagged: bool = False


def _neville_at(values, xs, x0):
    """Polynomial extrapolation of tabulated arrays to x0."""
    f = [np.array(v, dtype=float) for v in values]
    n = len(f)
    for j in range(1, n):
        for i in range(n - j):
            f[i] = ((x0 - xs[i]) * f[i + 1] - (x0 - xs[i + j]) * f[i]) / (xs[i + j] - xs[i])
    return f[0]


# geometric ladder of approach distances, as multiples of the base eps;
# the exterior traction of a degree-l density decays like rho^-(l+3), so
# the ladder must carry at least l+4 nodes for exact extrapolation
_LADDER = (1.0, 1.18, 1.39, 1.64, 1.94, 2.29, 2.70, 3.19)


def _trace_estimates(kind, phis, params, dirs, rule, eps):
    """Two-sided boundary estimates of a potential and its traction.

    ``phis`` is a (k, T, 3) stack of densities on the unit sphere, at the
    rule's nodes.  Each potential is sampled on a ladder of approach
    distances starting at ``eps`` and extrapolated to the surface per
    side, polynomially in the scaled radius rho inside and in 1/rho
    outside (interior fields carry ascending powers of rho, exterior ones
    descending powers, so these are the natural extrapolation variables).
    Returns ((val_in, trac_in), (val_out, trac_out)), each (k, probes, 3).
    """
    unit = SphereFrame((0.0, 0.0, 0.0), 1.0)
    h = min(DEFAULT_FD_STEP, eps / 20.0)
    eye = np.eye(3)
    shape = (len(phis), len(_LADDER), len(dirs), 3)
    est = []
    for sgn in (-1.0, +1.0):
        rhos = np.array([1.0 + sgn * eps * q for q in _LADDER])
        base = np.concatenate([r * dirs for r in rhos])
        normals = np.concatenate([dirs] * len(rhos))
        vals = _layer_sums(kind, phis, unit, rule, params, base).reshape(shape)
        if kind == "single":
            # traction of the single layer w.r.t. the target point; exact
            # differentiation under the integral, no FD noise
            tracs = _layer_sums("single_traction", phis, unit, rule, params, base,
                                normals).reshape(shape)
        else:
            stencil = np.concatenate([base + step * e for e in eye for step in (h, -h)])
            sv = _layer_sums(kind, phis, unit, rule, params, stencil).reshape(-1, 3, 2, *shape[1:])
            # gradu[..., i, j] = du_i/dx_j
            gradu = np.moveaxis((sv[:, :, 0] - sv[:, :, 1]) / (2.0 * h), 1, -1)
            strain = 0.5 * (gradu + np.swapaxes(gradu, -1, -2))
            trace = np.trace(strain, axis1=-2, axis2=-1)
            stress = 2.0 * params.mu * strain
            stress[..., np.arange(3), np.arange(3)] += params.lam * trace[..., None]
            tracs = np.einsum("...nij,nj->...ni", stress, dirs)
        xvar = rhos if sgn < 0 else 1.0 / rhos
        # extrapolate over the ladder, the second axis
        est.append(tuple(_neville_at(np.moveaxis(v, 1, 0), xvar, 1.0) for v in (vals, tracs)))
    return est


def _rms(v: np.ndarray, w: np.ndarray) -> float:
    return float(np.sqrt(np.sum(w * np.sum(v * v, axis=-1)) / np.sum(w)))


def _probe_directions(n: int = 24) -> tuple[np.ndarray, np.ndarray]:
    # fixed pseudo-random probe set; avoids the symmetry blind spots of
    # the small Lebedev grids (several harmonics vanish on all octahedral
    # points)
    rng = np.random.default_rng(20240814)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs, np.full(n, 4.0 * np.pi / n)


def jump_audit(modes: Sequence[ModeIndex], params: LameParams, rule_degree: int = 101,
               eps: float = 0.25, layers: tuple[str, ...] = ("single", "double")) -> list[AuditRecord]:
    """Numerically estimate the jump relations for a stack of basis densities.

    For each mode, phi = Y^k_{lm} on the unit sphere, the four jumps
    [[S phi]], [[T S phi]], [[D phi]], [[T D phi]] are compared against
    (0, phi, -phi, 0), and the two traction traces of S against
    (+1/2 + kappa) phi and (-1/2 + kappa) phi where kappa is the
    eigenvalue inferred from the two-sided average.  Residuals are RMS
    over probe points, relative to the RMS of phi.  Records come mode by
    mode, in the order of ``modes``, and carry each mode's order m.  The
    degenerate modes (l=0, W and X) vanish identically and are refused.

    ``layers`` names the layers to audit: ``"single"`` gives the first
    four records of each mode, ``"double"`` the two double-layer jumps;
    each record is the same whichever layers and other modes run.

    Cost: all modes share each kernel evaluation over the rule's nodes,
    the Green matrix and its traction at the 2 x 192 ladder points, or the
    traction kernel at the 2 x 1 344 points of the double layer's
    finite-difference stencil, most of a full audit; each mode adds one
    contraction per kernel block.

    ``eps`` is the closest approach distance of the extrapolation ladder.
    Distances below ~0.2 leave the quadrature-converged regime of the
    embedded rules and degrade the estimates; the defaults are chosen so
    the single-layer identities resolve to ~1e-6.
    """
    unknown = set(layers) - {"single", "double"}
    if unknown:
        raise ValueError(f"unknown layers {sorted(unknown)}; expected 'single' and/or 'double'")
    modes = list(modes)
    degenerate = [mode for mode in modes if mode.degenerate]
    if degenerate:
        raise ValueError(f"degenerate modes vanish identically and cannot be audited: {degenerate}")
    rule = rule_for_degree(rule_degree)
    dirs, pw = _probe_directions()
    top = max(mode.ell for mode in modes)
    basis, basis_p = vsh_basis(rule.points, top), vsh_basis(dirs, top)
    phis = np.stack([basis.family(mode.family)[sh_index(mode.ell, mode.m)] for mode in modes])
    est = {layer: _trace_estimates(layer, phis, params, dirs, rule, eps)
           for layer in ("single", "double") if layer in layers}

    records = []
    for i, mode in enumerate(modes):
        phi_p = basis_p.family(mode.family)[sh_index(mode.ell, mode.m)]
        scale = _rms(phi_p, pw)

        def rec(identity, diff, inferred=None):
            return AuditRecord(identity=identity, ell=mode.ell, k=mode.family.name, m=mode.m,
                               residual=_rms(diff, pw) / scale, rule_degree=rule_degree,
                               epsilon=eps, inferred=inferred)

        if "single" in est:
            (s_in, ts_in), (s_out, ts_out) = ((val[i], trac[i]) for val, trac in est["single"])
            records.append(rec("single_layer_jump", s_in - s_out))
            records.append(rec("single_layer_traction_jump", (ts_in - ts_out) - phi_p))
            avg = 0.5 * (ts_in + ts_out)
            kappa = float(np.sum(pw * np.sum(avg * phi_p, axis=-1))
                          / np.sum(pw * np.sum(phi_p * phi_p, axis=-1)))
            records.append(rec("traction_trace_interior", ts_in - (0.5 + kappa) * phi_p,
                               inferred=kappa))
            records.append(rec("traction_trace_exterior", ts_out - (-0.5 + kappa) * phi_p,
                               inferred=kappa))
        if "double" in est:
            (d_in, td_in), (d_out, td_out) = ((val[i], trac[i]) for val, trac in est["double"])
            records.append(rec("double_layer_jump", (d_in - d_out) + phi_p))
            records.append(rec("double_layer_traction_jump", td_in - td_out))
    return records
