"""Galerkin assembly and solution of the multi-sphere integral equation.

The trace unknown is expanded per sphere in vector spherical harmonics
up to degree N; testing against the same basis yields the dense system
(D - N) Lambda = F with D the diagonal of squared basis norms.  Diagonal
blocks of N are exactly diagonal by orthogonality; off-diagonal blocks
couple spheres through the closed-form single-layer matrices sampled at
the target sphere's quadrature nodes.  Such a block depends only on its
pair's key: the displacement x_tgt - x_src, the two radii and whether
the source is the enclosing sphere.  ``assemble`` generates the block of
every ordered pair; the matrix-free ``apply_operator`` generates one
block per distinct key and applies it to every pair with that key.

The operator is singular on rigid-motion traces (translations always;
rotations too when the toroidal adjoint eigenvalue takes its
self-consistent value), mirroring the rigid kernel of the continuous
Neumann problem.  The direct solver borders the operator with the known
rigid traces and factors the bordered matrix once by LU: it measures the
part of the load outside the operator's range, solves for the rest and
fixes the gauge in the same solve.  GMRES iterates on the singular
system and then removes the rigid-trace components by a deterministic
projection in the same D-weighted inner product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import pi, sqrt

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon, dlange
from scipy.sparse.linalg import LinearOperator, gmres

from .harmonics import Family, VshExpansion, norm_sq_table, num_scalar_modes, per_degree, vsh_basis, weighted_basis
from .materials import LameParams
from .problem import ProblemConfig, ROLE_TRANSMISSION, SphereSpec, build_sigma
from .quadrature import LebedevRule
from .spectra import DEFAULT_MODE, MODE_SELF_CONSISTENT, adjoint_double_eigs, single_layer_eigs, single_layer_matrix


class SolverError(RuntimeError):
    """Raised when the linear solver cannot produce a usable solution."""


@lru_cache(maxsize=None)
def _active_mask(degree: int) -> np.ndarray:
    mask = np.ones(3 * num_scalar_modes(degree), dtype=bool)
    mask[[1, 2]] = False
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class DofMap:
    """Active unknown layout: per-sphere blocks, degenerate modes excluded.

    Within a sphere the flat order is scalar-mode-major, family-minor
    (the canonical coefficient order); the two identically-zero modes
    (l=0, W) and (l=0, X) are excluded, so each sphere carries
    3 (N+1)^2 - 2 unknowns.
    """

    degree: int
    sphere_ids: tuple[int, ...]

    @property
    def modes_per_sphere(self) -> int:
        return 3 * num_scalar_modes(self.degree) - 2

    @property
    def size(self) -> int:
        return self.modes_per_sphere * len(self.sphere_ids)

    def active_mask(self) -> np.ndarray:
        """Read-only boolean mask of the active modes in the canonical order."""
        return _active_mask(self.degree)

    def sphere_slice(self, position: int) -> slice:
        n = self.modes_per_sphere
        return slice(position * n, (position + 1) * n)

    def expansion(self, vec: np.ndarray, position: int) -> VshExpansion:
        """Per-sphere coefficients of a global vector, degenerate zeros restored."""
        full = np.zeros(3 * num_scalar_modes(self.degree))
        full[self.active_mask()] = vec[self.sphere_slice(position)]
        return VshExpansion.from_flat(self.sphere_ids[position], self.degree, full)

    def insert(self, expansions: dict[int, VshExpansion]) -> np.ndarray:
        """Global vector from per-sphere expansions (inverse of ``expansion``)."""
        mask = self.active_mask()
        out = np.zeros(self.size)
        for pos, sid in enumerate(self.sphere_ids):
            out[self.sphere_slice(pos)] = expansions[sid].flat[mask]
        return out


@dataclass(eq=False)
class DenseSystem:
    dofmap: DofMap
    D: np.ndarray                    # diagonal entries, (size,)
    Nmat: np.ndarray                 # dense coupling matrix, (size, size)
    F: np.ndarray                    # right-hand side, (size,)
    sigma: dict[int, VshExpansion]
    rule_degree: int
    mode: str
    assembly_seconds: float = 0.0

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.D) - self.Nmat


@dataclass(eq=False)
class Solution:
    lambda_: np.ndarray
    residual: float
    iterations: int | None
    dofmap: DofMap
    sigma: dict[int, VshExpansion]
    mode: str
    diagnostics: dict = field(default_factory=dict)

    def trace(self, sphere_id: int) -> VshExpansion:
        position = self.dofmap.sphere_ids.index(sphere_id)
        return self.dofmap.expansion(self.lambda_, position)

    def traces(self) -> dict[int, VshExpansion]:
        return {sid: self.trace(sid) for sid in self.dofmap.sphere_ids}


def c_rows(role: str, material: LameParams | None, sign: int, background: LameParams,
           ells, mode: str) -> np.ndarray:
    """(V, W, X) eigenvalues of the local trace-to-density operator (times r).

    ``ells`` is one degree or an integer array of them; the result has
    shape ``np.shape(ells) + (3,)``.  The one source of C for assembly
    and field evaluation.
    """
    tau0_v = np.stack(single_layer_eigs(ells, background), axis=-1)
    tau0_k = np.stack(adjoint_double_eigs(ells, background, mode), axis=-1)
    if role == ROLE_TRANSMISSION:
        tauj_v = np.stack(single_layer_eigs(ells, material), axis=-1)
        tauj_k = np.stack(adjoint_double_eigs(ells, material, mode), axis=-1)
        return 0.5 * (1.0 / tau0_v - 1.0 / tauj_v) + (tau0_k / tau0_v - tauj_k / tauj_v)
    return (0.5 + sign * tau0_k) / tau0_v


def c_coefficient(
    sphere: SphereSpec,
    background: LameParams,
    ell: int,
    family: Family,
    mode: str = DEFAULT_MODE,
) -> float:
    """Per-mode eigenvalue of the local trace-to-density operator (times r).

    Transmission spheres combine the inverse single-layer and adjoint
    double-layer eigenvalues of both materials; Neumann spheres use the
    background ones with the orientation sign.
    """
    rows = c_rows(sphere.role, sphere.material, sphere.sign, background, ell, mode)
    return float(rows[int(family)])


@lru_cache(maxsize=64)
def _c_vector(role: str, material: LameParams | None, sign: int, background: LameParams,
              degree: int, mode: str) -> np.ndarray:
    """C coefficients of one kind of sphere over the active modes, (n_a,)."""
    table = c_rows(role, material, sign, background, np.arange(degree + 1), mode)
    return _active_read_only(per_degree(table).reshape(-1), degree)


@lru_cache(maxsize=64)
def _norms_tau0(background: LameParams, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared basis norms and background single-layer eigenvalues over the
    active modes, (n_a,) each."""
    tau0 = np.stack(single_layer_eigs(np.arange(degree + 1), background), axis=-1)
    return (_active_read_only(norm_sq_table(degree).reshape(-1), degree),
            _active_read_only(per_degree(tau0).reshape(-1), degree))


def _active_read_only(flat: np.ndarray, degree: int) -> np.ndarray:
    out = flat[_active_mask(degree)]
    out.setflags(write=False)
    return out


# Bound on one chunk's working set.  Its measured peak (basis evaluation,
# single-layer factors, fields, blocks and their temporaries) is about
# _PAIR_DOUBLES doubles per pair, source mode and node.  From degree 6 on,
# at the assembly rule, one pair alone exceeds the bound and runs as a
# chunk of one.
_CHUNK_BYTES = 5 * 2**18
_PAIR_DOUBLES = 28


def _geometry(config: ProblemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers (M, 3), radii (M,) and enclosing flags (M,) of the spheres."""
    return (np.array([s.frame.center for s in config.spheres], dtype=float),
            np.array([s.frame.radius for s in config.spheres]),
            np.array([s.enclosing for s in config.spheres]))


def _ordered_pairs(config: ProblemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Targets and sources of all ordered pairs of distinct spheres, those
    whose source is the enclosing sphere first (the order ``_pair_blocks``
    needs)."""
    enclosing = _geometry(config)[2]
    targets, sources = np.nonzero(~np.eye(enclosing.size, dtype=bool))
    first = np.argsort(~enclosing[sources], kind="stable")
    return targets[first], sources[first]


def _pair_blocks(config: ProblemConfig, rule: LebedevRule, dofmap: DofMap,
                 targets: np.ndarray, sources: np.ndarray):
    """Raw Galerkin coupling blocks of the given ordered sphere pairs, in chunks.

    Yields ``(ipos, jpos, raw)`` for consecutive chunks of the pairs
    (target ``targets[n]``, source ``sources[n]``) of distinct spheres,
    which must list the pairs whose source is the enclosing sphere first.
    ``raw[n]`` is the (n_a, n_a) block coupling source ``jpos[n]``'s
    densities (columns, active modes) into the test modes of target
    ``ipos[n]`` (rows).  Entry ((p,k), (p',k')) is

        sum_t w_t Y^k_p(s_t) . [Ybar_p'(y/|y|) A_S(|y|/r_src)]_k'

    with y = x_tgt + r_tgt s_t - x_src; the single-layer matrices use the
    'in' side exactly on the nodes whose source is the enclosing sphere.
    No C factors and no radius factors.  Each chunk takes one basis
    evaluation over the mapped nodes of all its pairs, one single-layer
    evaluation over all degrees per side, and one product against the
    test rows, which are the same for every target.
    """
    rows = weighted_basis(rule, dofmap.degree)[dofmap.active_mask()]
    centers, radii, enclosing = _geometry(config)
    pair_bytes = _PAIR_DOUBLES * num_scalar_modes(dofmap.degree) * rule.size * 8
    per_chunk = max(1, _CHUNK_BYTES // pair_bytes)
    for c0 in range(0, targets.size, per_chunk):
        ipos, jpos = targets[c0:c0 + per_chunk], sources[c0:c0 + per_chunk]
        y = centers[ipos][:, None, :] + radii[ipos][:, None, None] * rule.points
        y = (y - centers[jpos][:, None, :]).reshape(-1, 3)
        yield ipos, jpos, _chunk_blocks(config.background, rule, dofmap.degree, rows, y,
                                        radii[jpos], int(enclosing[jpos].sum()))


def _chunk_blocks(background: LameParams, rule: LebedevRule, degree: int, rows: np.ndarray,
                  y: np.ndarray, src_radii: np.ndarray, n_in: int) -> np.ndarray:
    """Raw blocks of one chunk of pairs, (pairs, n_a, n_a); see ``_pair_blocks``.

    ``y`` holds x_tgt + r_tgt s_t - x_src pair-major, and the first
    ``n_in`` pairs take the 'in' side.  A function of its own so that the
    chunk's temporaries are freed before the next one.
    """
    L2, T, n = num_scalar_modes(degree), rule.size, src_radii.size
    ells = np.arange(degree + 1)
    dist = np.sqrt((y * y).sum(axis=1))
    basis = vsh_basis(y / dist[:, None], degree)
    V, W, X = basis.V, basis.W, basis.X
    del basis
    rho = dist / np.repeat(src_radii, T)
    A = np.empty((degree + 1, rho.size, 3, 3))
    for side, nodes in (("in", slice(None, n_in * T)), ("out", slice(n_in * T, None))):
        if rho[nodes].size:
            A[:, nodes] = single_layer_matrix(ells, background, rho[nodes], side)
    # the field of density family q at each node is sum_k (V, W, X)_k A_kq
    G = np.empty((L2, 3, rho.size, 3))  # (source mode, density family, node, component)
    for ell in range(degree + 1):
        sl = slice(ell * ell, (ell + 1) * (ell + 1))
        G[sl] = np.einsum("kptc,tkq->pqtc", np.stack([V[sl], W[sl], X[sl]]), A[ell])
    del V, W, X
    raw = (rows @ G.reshape(3 * L2 * n, 3 * T).T).reshape(rows.shape[0], 3 * L2, n)
    return raw[:, _active_mask(degree)].transpose(2, 0, 1)


def _distinct_pairs(config: ProblemConfig):
    """The ordered pairs grouped by the key that fixes their raw block.

    The key is (x_tgt - x_src, r_tgt, r_src, source is enclosing), matched
    by exact (bitwise) float equality; pairs with one key have equal
    blocks up to the rounding of their mapped nodes.  Returns
    ``(rep_targets, rep_sources)``, one representative pair per key in
    ``_ordered_pairs`` order (so enclosing sources still lead), and
    ``(targets, sources, bounds)``: the pairs of key k are
    ``targets[bounds[k]:bounds[k + 1]]`` with the matching sources.  A
    target meets each key at most once, since the key and the target fix
    the source.
    """
    targets, sources = _ordered_pairs(config)
    centers, radii, enclosing = _geometry(config)
    keys = np.column_stack([centers[targets] - centers[sources], radii[targets],
                            radii[sources], enclosing[sources]])
    # one raw-bytes item per row: sorts about 4x faster than np.unique(axis=0)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    # number the keys by their first pair
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    key = rank[inverse]
    members = np.argsort(key, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=order.size))))
    reps = first[order]
    return (targets[reps], sources[reps]), (targets[members], sources[members], bounds)


def _diag_coupling(config: ProblemConfig, dofmap: DofMap, mode: str):
    """Tables shared by assembly and the product, over the active modes.

    Returns the squared norms <Y, Y> (n_a,), the background single-layer
    eigenvalues tau0 (n_a,), the C vectors of all spheres (M, n_a) and
    the exact diagonal blocks of N, C tau0 <Y, Y> (M, n_a).
    """
    norms, tau0 = _norms_tau0(config.background, dofmap.degree)
    C = np.array([_c_vector(s.role, s.material, s.sign, config.background, dofmap.degree, mode)
                  for s in config.spheres])
    return norms, tau0, C, C * tau0 * norms


def _dofmap(config: ProblemConfig) -> DofMap:
    return DofMap(degree=config.degree, sphere_ids=tuple(s.id for s in config.spheres))


def _check_rule(rule: LebedevRule, degree: int) -> None:
    if rule.degree < 2 * degree:
        raise ValueError(
            f"assembly rule degree {rule.degree} is below 2*N = {2 * degree}"
        )


def assemble(
    config: ProblemConfig,
    rule: LebedevRule | None = None,
    mode: str = DEFAULT_MODE,
    sigma: dict[int, VshExpansion] | None = None,
) -> DenseSystem:
    """Build the dense Galerkin system for a validated configuration."""
    t0 = time.perf_counter()
    rule = config.rule() if rule is None else rule
    degree = config.degree
    _check_rule(rule, degree)
    if sigma is None:
        sigma = build_sigma(config, degree, rule)
    dofmap = _dofmap(config)
    mask = dofmap.active_mask()
    M, na = len(config.spheres), dofmap.modes_per_sphere
    norms, tau0, C, diag = _diag_coupling(config, dofmap, mode)
    sig = np.array([sigma[s.id].flat[mask] for s in config.spheres])
    radii = np.array([s.frame.radius for s in config.spheres])
    D = np.tile(norms, M)
    Nmat = np.zeros((dofmap.size, dofmap.size))
    # the diagonal blocks are exactly diagonal by orthogonality
    Nmat.reshape(-1)[::dofmap.size + 1] = diag.reshape(-1)
    blocks = Nmat.reshape(M, na, M, na)  # (target, target mode, source, source mode)
    F = (radii[:, None] * sig * tau0 * norms).reshape(-1)
    loaded = np.any(sig != 0.0, axis=1)
    for ipos, jpos, raw in _pair_blocks(config, rule, dofmap, *_ordered_pairs(config)):
        blocks[ipos, :, jpos] = raw * C[jpos][:, None, :]
        for n in np.flatnonzero(loaded[jpos]):
            i, j = ipos[n], jpos[n]
            F[dofmap.sphere_slice(i)] += radii[j] * (raw[n] @ sig[j])
    return DenseSystem(
        dofmap=dofmap, D=D, Nmat=Nmat, F=F, sigma=sigma,
        rule_degree=rule.degree, mode=mode,
        assembly_seconds=time.perf_counter() - t0,
    )


def apply_operator(
    config: ProblemConfig,
    lam: np.ndarray,
    rule: LebedevRule | None = None,
    mode: str = DEFAULT_MODE,
) -> np.ndarray:
    """Matrix-free product (D - N) Lambda; never materializes N.

    The coupling blocks come from the same generator ``assemble`` reads,
    but only one per distinct pair key (see ``_distinct_pairs``): each is
    applied to every pair with its key, then dropped with its chunk.  No
    block outlives the call.  The result agrees with the dense product to
    rounding error.
    """
    rule = config.rule() if rule is None else rule
    dofmap = _dofmap(config)
    _check_rule(rule, dofmap.degree)
    lam = np.asarray(lam)
    if lam.size != dofmap.size:
        raise ValueError(
            f"lam has {lam.size} entries; the configuration has dofmap.size = {dofmap.size}"
        )
    norms, _tau0, C, diag = _diag_coupling(config, dofmap, mode)
    lam = lam.reshape(len(config.spheres), -1)
    # C belongs to the source sphere, not to the key
    scaled = C * lam
    out = norms * lam - diag * lam
    representatives, (targets, sources, bounds) = _distinct_pairs(config)
    k = 0
    for _ipos, _jpos, raw in _pair_blocks(config, rule, dofmap, *representatives):
        for block in raw:
            pairs = slice(bounds[k], bounds[k + 1])
            out[targets[pairs]] -= scaled[sources[pairs]] @ block.T
            k += 1
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# rigid-motion null space and gauge
# ---------------------------------------------------------------------------

# active offsets of the degree-1 W and X modes of order m = 1, -1, 0, i.e.
# of the x, y and z axes: 3 sh_index(1, m) + family, less the two
# degenerate (l=0, W/X) slots that precede them
_AXIS_W = np.array([3 * 3 + 1, 3 * 1 + 1, 3 * 2 + 1]) - 2
_AXIS_X = _AXIS_W + 1
# Levi-Civita symbol: (e_a x v)_b = eps[b, a, k] v_k
_EPS = np.zeros((3, 3, 3))
_EPS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0


def _rigid_traces(config: ProblemConfig, dofmap: DofMap, mode: str) -> np.ndarray:
    """Traces of the rigid motions that (D - N) annihilates, (size, 3 or 6).

    Column a < 3 is the translation along e_a, column 3 + a the rotation
    about e_a; not orthonormalized.
    """
    c = sqrt(4.0 * pi / 3.0)
    M = len(config.spheres)
    rotations = mode == MODE_SELF_CONSISTENT
    Z = np.zeros((M, dofmap.modes_per_sphere, 6 if rotations else 3))  # (sphere, mode, column)
    Z[:, _AXIS_W, :3] = c * np.eye(3)
    if rotations:
        centers = np.array([s.frame.center for s in config.spheres], dtype=float)
        radii = np.array([s.frame.radius for s in config.spheres])
        Z[:, _AXIS_W, 3:] = c * (_EPS @ centers.T).transpose(2, 0, 1)  # c (e_a x center)
        Z[:, _AXIS_X, 3 + np.arange(3)] = -c * radii[:, None]
    return Z.reshape(M * dofmap.modes_per_sphere, -1)


def rigid_trace_vectors(config: ProblemConfig, dofmap: DofMap, mode: str) -> np.ndarray:
    """Known null vectors of (D - N): traces of rigid motions.

    Translations give constant traces (pure degree-1 W content) on every
    sphere and are null in both coefficient modes.  Rotation traces mix
    W (center offset) and toroidal X content; they are null exactly when
    the toroidal adjoint eigenvalue is the self-consistent -1/2 at
    degree 1, so they are deflated only in that mode.  Returns a
    (size, 3 or 6) orthonormalized basis.
    """
    q, _ = np.linalg.qr(_rigid_traces(config, dofmap, mode))
    return q


def _gauge_project(x: np.ndarray, Z: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Remove rigid-trace components in the D-weighted inner product.

    Any basis Z of the rigid traces gives the same projection.
    """
    if Z.size == 0:
        return x
    G = Z.T @ (D[:, None] * Z)
    rhs = Z.T @ (D * x)
    return x - Z @ np.linalg.solve(G, rhs)


# A bordered matrix with a smaller reciprocal condition number (dgecon, 1-norm)
# is numerically singular: the null space of (D - N) exceeds the rigid traces.
_RCOND_MIN = 1e-13
# (D - N) Z must vanish to rounding relative to the bordered matrix's norm.
_NULL_TOL = 1e-12
# Largest incompatible share |F - F_c| / |F| of the load that is accepted.
_FLOOR_MAX = 1e-3


def solve_direct(system: DenseSystem, config: ProblemConfig) -> Solution:
    """Bordered LU solve in the rigid-trace gauge.

    With Z the orthonormal rigid-trace basis (k = 3 or 6 columns) and
    A = D - N, one LU factorisation of

        B = [[A, D Z], [Z^T D, 0]]

    serves two solves.  The transposed one, B^T [psi; nu] = [0; I],
    gives nu = 0 (Z^T D Z is SPD and A Z = 0), so A^T psi = 0: psi spans
    the left null space.  Projecting F onto its orthogonal complement,
    range(A), leaves the compatible load F_c, and B [x; mu] = [F_c; 0]
    gives A x = F_c with Z^T D x = 0.  That x is the least-squares
    solution of A x = F in the D-weighted rigid-trace gauge, and
    |F - F_c| / |F| is the measured incompatible share of the load.

    B is built in place of one (n+k)^2 array; its transpose is
    Fortran-ordered, so LAPACK factors it without a copy.
    """
    D, F, Nmat = system.D, system.F, system.Nmat
    n = D.size
    Z = rigid_trace_vectors(config, system.dofmap, system.mode)
    k = Z.shape[1]
    DZ = D[:, None] * Z
    B = np.empty((n + k, n + k))
    np.negative(Nmat, out=B[:n, :n])
    B.reshape(-1)[:n * (n + k + 1):n + k + 1] += D
    B[:n, n:] = DZ
    B[n:, :n] = DZ.T
    B[n:, n:] = 0.0
    # B.T is B's memory in Fortran order: its 1-norm is B's infinity norm
    anorm = dlange("1", B.T)
    factors = lu_factor(B.T, overwrite_a=True, check_finite=False)
    rcond, _info = dgecon(factors[0], anorm, norm="1")
    if not rcond >= _RCOND_MIN:
        raise SolverError(
            f"bordered matrix is numerically singular (rcond {rcond:.3e}); the null "
            f"space of the operator is larger than the {k} rigid traces"
        )
    null_resid = float(np.abs(DZ - Nmat @ Z).max() / anorm)
    if null_resid > _NULL_TOL:
        raise SolverError(
            f"rigid traces are not null vectors of the operator "
            f"(|(D - N) Z| = {null_resid:.3e} of its norm)"
        )
    # factors hold LU of B^T: trans=0 solves with B^T, trans=1 with B
    unit = np.zeros((n + k, k))
    unit[n:] = np.eye(k)
    psi = np.linalg.qr(lu_solve(factors, unit, trans=0, check_finite=False)[:n])[0]
    incompatible = psi @ (psi.T @ F)
    fnorm = np.linalg.norm(F)
    floor = float(np.linalg.norm(incompatible) / fnorm) if fnorm > 0 else 0.0
    if floor > _FLOOR_MAX:
        raise SolverError(
            f"the load is incompatible with equilibrium: {floor:.3e} of its norm "
            f"lies outside the range of the operator (rank {n - k} of {n})"
        )
    rhs = np.zeros(n + k)
    rhs[:n] = F - incompatible
    x = lu_solve(factors, rhs, trans=1, check_finite=False)[:n]
    resid = float(np.linalg.norm(D * x - Nmat @ x - F) / fnorm) if fnorm > 0 else 0.0
    return Solution(
        lambda_=x, residual=resid, iterations=None,
        dofmap=system.dofmap, sigma=system.sigma, mode=system.mode,
        diagnostics={"solver_path": "bordered_lu", "rank": n - k, "null_dim": k,
                     "rcond": float(rcond), "consistency_floor": floor},
    )


def _operator_inf_norm(system: DenseSystem, scale: np.ndarray) -> float:
    """Infinity norm of diag(scale) (D - N), one block of rows at a time."""
    D, Nmat = system.D, system.Nmat
    n = D.size
    step = max(1, _CHUNK_BYTES // (8 * n))
    best = 0.0
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        block = -Nmat[r0:r1]
        block[np.arange(r1 - r0), np.arange(r0, r1)] += D[r0:r1]
        best = max(best, float(np.max(np.abs(scale[r0:r1]) * np.abs(block).sum(axis=1))))
    return best


def solve_iterative(
    system: DenseSystem,
    config: ProblemConfig,
    tol: float = 1e-6,
    max_iter: int = 1000,
    restart: int = 50,
    row_scale: bool = False,
) -> Solution:
    """Restarted GMRES with relative-residual stopping, then gauge projection.

    The operator (D - N), row-scaled by 1/D on request, is applied as
    ``D*v - Nmat@v``; no n x n copy of it is made.
    """
    D, Nmat, b = system.D, system.Nmat, system.F
    scale = 1.0 / D if row_scale else np.ones_like(D)
    rhs = scale * b
    count = {"iters": 0}

    def _cb(_):
        count["iters"] += 1

    def apply(v):
        return scale * (D * v - Nmat @ v)

    op = LinearOperator(Nmat.shape, matvec=apply, dtype=float)
    x, info = gmres(
        op, rhs, rtol=tol, atol=0.0, restart=restart, maxiter=max_iter,
        callback=_cb, callback_type="pr_norm",
    )
    if info < 0:
        raise SolverError("GMRES received an illegal input or breakdown")
    stalled_floor = None
    if info > 0:
        # the stopping tolerance may sit below the consistency floor of the
        # right-hand side (data-projection quadrature error); accept the
        # stalled iterate only if its residual is essentially orthogonal to
        # the range, certifying the remainder is genuinely incompatible
        r = rhs - apply(x)
        rnorm = np.linalg.norm(r)
        sr = scale * r
        ortho = np.linalg.norm(D * sr - Nmat.T @ sr) / max(
            rnorm * _operator_inf_norm(system, scale), 1e-300
        )
        if ortho > 1e-2:
            raise SolverError(
                f"GMRES did not reach tol={tol} within the iteration budget "
                f"(achieved {rnorm / np.linalg.norm(rhs):.3e} relative)"
            )
        stalled_floor = float(rnorm / np.linalg.norm(rhs))
    Z = _rigid_traces(config, system.dofmap, system.mode)
    x = _gauge_project(x, Z, system.D)
    fnorm = np.linalg.norm(b)
    resid = float(np.linalg.norm(D * x - Nmat @ x - b) / fnorm) if fnorm > 0 else 0.0
    diagnostics = {"solver_path": "gmres", "deflated": Z.shape[1], "row_scaled": row_scale}
    if stalled_floor is not None:
        diagnostics["consistency_floor"] = stalled_floor
    return Solution(
        lambda_=x, residual=resid, iterations=count["iters"],
        dofmap=system.dofmap, sigma=system.sigma, mode=system.mode,
        diagnostics=diagnostics,
    )


def solve(system: DenseSystem, config: ProblemConfig) -> Solution:
    """Dispatch on the configured solver options."""
    opts = config.solver
    if opts.method == "direct":
        return solve_direct(system, config)
    return solve_iterative(
        system, config, tol=opts.tol, max_iter=opts.max_iter, restart=opts.restart,
    )

