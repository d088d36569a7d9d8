"""Galerkin assembly and solution of the multi-sphere integral equation.

The trace unknown is expanded per sphere in vector spherical harmonics
up to degree N; testing against the same basis yields the dense system
(D - N) Lambda = F with D the diagonal of squared basis norms.  Diagonal
blocks of N are exactly diagonal by orthogonality; off-diagonal blocks
couple spheres through the closed-form single-layer matrices sampled at
the target sphere's quadrature nodes.  Such a block depends only on its
pair's displacement d = x_tgt - x_src, the two radii and whether the
source is the enclosing sphere, and up to signs only on |d|: every
embedded Lebedev rule maps onto itself under each coordinate flip, node
for node and with equal weights, and a flip multiplies each vector
harmonic by a sign (``harmonics.reflection_signs``).  So a pair whose
displacement is sigma |d|, sigma = sign(d) componentwise (zero counts
as +), has exactly the block H_sigma B H_sigma, where B is the block at
|d| and H_sigma the diagonal of those signs over the active modes.  A z
flip gives (-1)^(l-|m|); an x flip (-1)^|m| for m >= 0 and (-1)^(|m|+1)
for m < 0; a y flip -1 for m < 0; X also takes det sigma.

The same flips fold each block's quadrature.  Those of the axes on which
d is exactly zero form the pair's stabilizer S: each maps the pair and
the rule onto themselves.  Entry (r, p) of the block has an S-even
integrand when test mode r and source mode p take the same signs under
S, and its sum over an orbit of nodes is then the orbit size times its
value at one node; otherwise the orbit sums vanish.  So ``_pair_blocks``
evaluates such a pair only at the orbit representatives (nodes with
nonnegative coordinates on the axes of S), weights each by its orbit
size, 2^(its nonzero coordinates on those axes), and computes only the
even entries, those between modes of one character class (equal signs
under S), in one product per class; the odd entries are
exact zeros.  A pair with no zero component takes every node and all
entries.  A pair on the x axis takes 162 of the 590 nodes of rule 41 and
a quarter of the entries (a pair of an axis frame, below, takes 92).  A
pair whose spheres share their centre (d = 0) takes no node at all:
there the vector harmonics are the single layer's eigenfunctions, and
its block is the closed form diag(<Y, Y>) A_l(r_tgt / r_src), which the
assembly rule integrates exactly.

When every sphere centre lies on one plane of symmetry, or on several,
every pair's stabilizer holds the flips about them, so N couples only
unknowns of one character under those flips, and so do the rigid traces
below: the system splits into one independent block per character
class (``_character_classes``).

The axis frame.  When the distinct centres lie on one line parallel to a
coordinate axis (``_common_axes`` holds exactly two axes, as for the
three spheres on the x axis), the system is assembled, applied and solved
in the frame whose z axis is that line (``_frame``): the cyclic
permutation of the axes that carries the line to z maps every Lebedev
rule onto itself node for node, so the pair blocks made there are R B R^T
to rounding, with R the block diagonal of the real D^l of that rotation
(``harmonics.permutation_rotation``).  In that frame every pair lies on
the z axis, and its stabilizer holds the flips of x and y and every
rotation about z, which couples only modes of one order |m|.  The rule
keeps of these only the group C4v of the square, the flips, the quarter
turns and the mirrors x <-> y, so the quadrature couples orders
m = m' (mod 4) by aliasing; those entries are not made: the axis pattern
of such a pair takes the bit ``_ROTATIONS``, and its character classes
(``_characters``) split each character of the flips by |m|.  Such a pair
is folded by all of C4v: it is evaluated at the 92 orbit representatives
of rule 41's 590 nodes (``_orbits``), where the flips alone leave 162.
The mirror sigma: (x, y, z) -> (y, x, z) acts on the modes as a signed
permutation (``harmonics.diagonal_mirror``); it maps each even-|m|
class onto itself with one sign, and swaps the two classes of each odd
|m|, whose parts are then one product of both classes' rows and a signed
permutation of it (``_mirrored_parts``).  For
the three spheres, the dropped entries are at most 8.9e-5 of N's largest
entry at N=3-8 and 1.4e-10 at N=20 (they shrink as the rule grows), the
traces move by 1.3e-11 at N=20 and come no farther from a solve with
rule-107 blocks anywhere (``docs/acceptance_evidence.py --part axis``),
and N=20 takes 42 classes of at most 180 unknowns in place of four of
about 1 000.  The public objects stay in the global
basis: ``assemble`` turns the loads into the frame and F out of it, its
``ClassBlocks`` holds the frame and turns each product in and out, and
the solvers' traces, ``apply_operator`` and ``rigid_trace_vectors`` are
global.  Lattices, planar and concentric sets and single spheres take no
frame.

``assemble`` holds N as just those blocks (``ClassBlocks``), one per
class, and writes the class parts of every ordered pair's block, times
the source's C, straight into them: the n^2 entries between classes are
never made, and a configuration with no common plane has one class, the
dense N.  The direct solver factors and solves the blocks one at a time,
in place.  ``CouplingOperator`` generates one block per key (|d|, r_tgt,
r_src, source is enclosing), turned to sigma = + by its representative
pair's H, and holds the blocks in classes of keys that share their pair
count c.  Its product, for ``apply_operator`` and GMRES, makes no n x n
array: per class, one batched matmul applies each block to the c
sources of its key, each turned by its pair's H, and the results are
added to their (pattern, target) rows, which take their H at the end.
``apply_operator`` keeps the last operator it built, so repeated
products on one configuration generate no blocks after the first.
``solver_bytes`` gives the memory either product holds in a solve.

The operator is singular on rigid-motion traces (translations always;
rotations too when the toroidal adjoint eigenvalue takes its
self-consistent value), mirroring the rigid kernel of the continuous
Neumann problem.  The direct solver borders the operator with the known
rigid traces and factors the bordered matrix once by LU, per character
class: it measures the part of the load outside the operator's range,
solves for the rest and fixes the gauge in the same solve.  It factors a float32 copy, whose
entries below 2^-40 of its largest diagonal entry are set to zero so
that none is a float32 subnormal, and refines both solves with residuals
computed in float64 from N itself, so its results keep float64 accuracy;
a system too ill-conditioned for float32 factors is factored in float64
instead.  GMRES iterates on a nonsingular
bordered system too, row-scaled by 1/D, with either the dense or the
matrix-free product: its column border r C Z spans the left null space
up to the quadrature asymmetry of the single-layer form (see
``solve_iterative``), so it measures the same part of the load, and the
final iterate is projected onto the same gauge.

One BLAS library.  numpy's and SciPy's wheels each ship an OpenBLAS, each
with its own thread pool, whose workers keep spinning for a while after
a call.  On two BLAS threads the two pools, interleaved, take the second
core from each other: on a 2-core x86-64 host the assembly and direct
solve of the three spheres at N=20 took 0.33-0.41 s on two threads
against 0.21 s on one, and their float32 LU 50-160 ms against 34 ms.  So
the direct path (``assemble``, ``solve_direct``) runs every dense product
large enough for OpenBLAS to thread on SciPy's BLAS, the library of its
LU (``_blas.product``): the pair blocks' class products, the moments of
``harmonics.project_fields``, ``ClassBlocks @ x`` and the refinement's
products; the rigid-trace QR is SciPy's ``dgeqrf`` and ``dorgqr``.  The
same operation then takes 0.17-0.20 s on two threads.  numpy keeps the
products below OpenBLAS's threading size (assembly's F shares, the
(D - N) Z check, the border's products), ``CouplingOperator``'s batched
products and SciPy's own GMRES internals.  The dense GMRES path shares
the pair blocks and ``ClassBlocks @ x`` with the direct path, so it too
runs its large products on one library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from math import pi, sqrt
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs, lu_factor
from scipy.linalg.lapack import dgeqrf, dorgqr
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csr_matvecs
from scipy.sparse.linalg import LinearOperator, gmres

from ._blas import product as _product
from .harmonics import (Family, VshExpansion, diagonal_mirror, norm_sq_table, num_scalar_modes,
                        per_degree, permutation_rotation, reflection_signs, vsh_basis, weighted_basis,
                        weighted_rows)
from .materials import LameParams
from .problem import ProblemConfig, ROLE_TRANSMISSION, SphereSpec, build_sigma
from .quadrature import LebedevRule, rule_for_degree
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


class ClassBlocks:
    """A square matrix held as its diagonal blocks over classes of indices.

    ``classes`` are disjoint sorted index arrays that hold every index
    once, and ``blocks[c]`` is the float64 (m_c, m_c) block between the
    indices of class c, m_c = ``classes[c].size``.  The entries between
    two classes are zero and not held.  ``whole`` holds an arbitrary
    matrix as one class, in place.

    With a ``frame`` (``_Frame``), the classes and blocks are those of the
    frame's basis, and the matrix is R^T N R in the global one: a product
    turns its operand into the frame and the result out of it, and
    ``toarray`` gives the global matrix.  Its diagonal sphere blocks, as
    ``assemble`` makes them, are diagonal and constant over the orders of
    each degree and family, so R leaves them as they are: ``diagonal``
    reads them, and ``toarray`` keeps them exact.
    """

    def __init__(self, classes: tuple[np.ndarray, ...], blocks: tuple[np.ndarray, ...],
                 frame: _Frame | None = None):
        self.classes, self.blocks, self.frame = classes, blocks, frame
        # the indices in class order, and each class's span of them
        self.order = np.concatenate(classes)
        self.size = self.order.size
        stops = list(accumulate(rows.size for rows in classes))
        self._spans = [(slice(stop - rows.size, stop), block)
                       for rows, stop, block in zip(classes, stops, blocks)]

    @classmethod
    def whole(cls, matrix: np.ndarray) -> ClassBlocks:
        return cls((np.arange(len(matrix)),), (matrix,))

    @property
    def shape(self) -> tuple[int, int]:
        return self.size, self.size

    @property
    def nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    def diagonal(self) -> np.ndarray:
        out = np.empty(self.size)
        for rows, block in zip(self.classes, self.blocks):
            out[rows] = np.diagonal(block)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector (n,) or the columns of an array (n, k)."""
        frame = self.frame
        if frame is not None:
            x = frame.turn(x)
        if len(self.blocks) == 1:
            out = _product(self.blocks[0], x)
        else:
            # one gather, one product per class and one scatter
            ordered = x[self.order]
            product = np.empty(ordered.shape)
            for span, block in self._spans:
                _product(block, ordered[span], product[span])
            out = np.empty(x.shape)
            out[self.order] = product
        return out if frame is None else frame.turn(out, back=True)

    def toarray(self) -> np.ndarray:
        """A fresh n x n array of the matrix."""
        if len(self.blocks) == 1 and self.frame is None:
            return self.blocks[0].copy()
        out = np.zeros(self.shape)
        for rows, block in zip(self.classes, self.blocks):
            out[np.ix_(rows, rows)] = block
        if self.frame is not None:
            # R^T N R, rows then columns, in place but for a band of rows at a
            # time; the diagonal, which R leaves as it is, is put back exact
            diagonal = np.diagonal(out).copy()
            np.fill_diagonal(out, 0.0)
            self.frame.turn_rows(out, back=True)
            band = max(1, self.size // 8)
            for r0 in range(0, self.size, band):
                rows = out[r0:r0 + band].T.copy()
                self.frame.turn_rows(rows, back=True)
                out[r0:r0 + band] = rows.T
            np.fill_diagonal(out, diagonal)
        return out


@dataclass(eq=False)
class DenseSystem:
    """The Galerkin system (D - N) Lambda = F with N held in memory, as one
    block per character class of ``_character_classes`` (``ClassBlocks``).

    With no common plane of symmetry that is one block of all unknowns,
    the dense n x n N; otherwise N couples only unknowns of one class,
    and the classes hold sum_c 8 m_c^2 bytes instead of 8 n^2.  A
    collinear configuration's blocks are those of its axis frame (module
    docstring), and ``Nmat`` turns each product into that frame and out of
    it: D, F and every product are in the global basis.  The three spheres
    on the x axis hold an eighth of 8 n^2 at N=3 and a 32nd at N=20.
    """

    dofmap: DofMap
    D: np.ndarray                    # diagonal entries, (size,)
    Nmat: ClassBlocks                # coupling matrix, one block per character class
    F: np.ndarray                    # right-hand side, (size,)
    sigma: dict[int, VshExpansion]
    mode: str

    product = "dense"

    @property
    def matrix(self) -> np.ndarray:
        """A fresh D - N, made as one n x n array."""
        A = self.Nmat.toarray()
        np.negative(A, out=A)
        A.reshape(-1)[::A.shape[0] + 1] += self.D
        return A

    @property
    def held_block_bytes(self) -> int:
        return self.Nmat.nbytes

    def coupling(self, x: np.ndarray) -> np.ndarray:
        """The product N x."""
        return self.Nmat @ x


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


# Bound on one chunk's working set.  Its peak per pair is that of the
# larger of two phases: _PAIR_DOUBLES doubles per source mode and
# evaluated node while the fields are formed (basis evaluation,
# single-layer factors, fields and their temporaries), and _RAW_DOUBLES
# per test row and source mode in the product (the stacked class parts,
# at most one entry each, and a consumer's index or signed copy of them).
# tracemalloc over every chunk of lattice r3 (N=3 and 6) and three-sphere
# N=8 and 20 reads at most 25.2 doubles for the first phase (30.7 while
# the fields took a stacked copy of V, W and X) and 0.99 for the stack;
# the bounds are kept, so the chunks stay as they were.  A folded pair
# evaluates only its orbit representatives, so its chunks take more
# pairs, until the raw rows bound them.  At the assembly rule one pair
# runs alone from degree 6 on without folding, and from degree 8 on
# with it.
_CHUNK_BYTES = 5 * 2**18
_PAIR_DOUBLES = 28
_RAW_DOUBLES = 2


def _centers(config: ProblemConfig) -> np.ndarray:
    """Centers (M, 3) of the spheres in the global frame."""
    return np.array([s.frame.center for s in config.spheres], dtype=float)


def _geometry(config: ProblemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers (M, 3) in the configuration's frame (the axis frame of a
    collinear one, ``_frame``; else the global one), radii (M,) and
    enclosing flags (M,) of the spheres."""
    centers = _centers(config)
    axes = _LINE_FRAMES.get(_axes_of(centers))
    return (centers if axes is None else centers[:, axes],
            np.array([s.frame.radius for s in config.spheres]),
            np.array([s.enclosing for s in config.spheres]))


# bit a of an axis pattern stands for axis a
_AXIS_BITS = np.array([1, 2, 4])
# bit 3 stands for every rotation about the z axis: set in a collinear
# configuration's axis frame, where every pair lies on that axis
_ROTATIONS = 8
# the axis frame of centres on a line along x, y or z, by the pattern of the
# two axes they share: frame axis a is global axis axes[a], the cyclic
# permutation that carries the line to the z axis
_LINE_FRAMES = {6: (1, 2, 0), 5: (2, 0, 1), 3: (0, 1, 2)}


class _Frame(NamedTuple):
    """A collinear configuration's axis frame (``_frame``).

    Its axis a is the global axis ``axes[a]``, so the line of centres is
    its z axis.  ``rotation`` holds the real D^l of each degree
    (``harmonics.permutation_rotation``): a sphere's global coefficients c
    are R c in the frame, every family alike.  It is empty for a line
    along z, whose frame is the global one.
    """

    axes: tuple[int, int, int]
    rotation: tuple[np.ndarray, ...]

    def turn(self, x: np.ndarray, back: bool = False) -> np.ndarray:
        """R x, or R^T x with ``back``, as a new array: x (n,) or (n, k)
        over the active unknowns of whole spheres."""
        out = np.array(x, dtype=float, order="C")
        self.turn_rows(out, back)
        return out

    def turn_rows(self, a: np.ndarray, back: bool = False) -> None:
        """``turn`` in place, of a C-ordered float64 a (n,) or (n, k)."""
        if not self.rotation:
            return
        na = 3 * len(self.rotation) ** 2 - 2
        view = a.reshape(len(a) // na, na, -1)
        for ell in range(1, len(self.rotation)):
            # the active modes of degree l: (order, family), order-major
            part = view[:, 3 * ell * ell - 2:3 * (ell + 1) ** 2 - 2].reshape(len(view), 2 * ell + 1, -1)
            D = self.rotation[ell]
            part[...] = (D.T if back else D) @ part


@lru_cache(maxsize=16)
def _axis_rotation(axes: tuple[int, int, int], degree: int) -> tuple[np.ndarray, ...]:
    return permutation_rotation(axes, degree, rule_for_degree(2 * degree))


def _frame(config: ProblemConfig) -> _Frame | None:
    """The axis frame of a configuration whose distinct centres lie on one
    line parallel to a coordinate axis (module docstring); None otherwise."""
    axes = _LINE_FRAMES.get(_axes_of(_centers(config)))
    if axes is None:
        return None
    return _Frame(axes, () if axes == (0, 1, 2) else _axis_rotation(axes, config.degree))


def _zero_axes(d: np.ndarray) -> np.ndarray:
    """Axis pattern of each displacement d (pairs, 3): bit a set when d_a
    is exactly zero, so that the flip of axis a maps the pair onto itself."""
    return (d == 0.0) @ _AXIS_BITS


def _ordered_pairs(config: ProblemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Targets and sources of all ordered pairs of distinct spheres, sorted
    stably by axis pattern and, within one pattern, those whose source is
    the enclosing sphere first (the order ``_pair_blocks`` needs)."""
    centers, _radii, enclosing = _geometry(config)
    targets, sources = np.nonzero(~np.eye(enclosing.size, dtype=bool))
    first = np.lexsort((~enclosing[sources], _zero_axes(centers[targets] - centers[sources])))
    return targets[first], sources[first]


def _orbits(rule: LebedevRule, axes: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representatives of the rule's nodes under the flips of the
    axes in the pattern ``axes``, and their orbit sizes.

    A representative has a nonnegative coordinate on each of those axes;
    its orbit holds 2^(its nonzero coordinates on them) nodes.  With
    ``_ROTATIONS`` in the pattern (x and y flips in an axis frame), the
    group is C4v, those flips and the mirror x <-> y: a representative
    also has y <= x, and its orbit is twice as large unless it lies on
    the mirror (x = y).  Exact for a rule that each flip and the mirror
    map onto itself, node for node and with equal weights, as every
    embedded Lebedev rule.
    """
    flipped = rule.points[:, [a for a in range(3) if axes >> a & 1]]
    kept = (flipped >= 0.0).all(axis=1)
    orbit = 2.0 ** np.count_nonzero(flipped, axis=1)
    if axes & _ROTATIONS:
        x, y = rule.points[:, 0], rule.points[:, 1]
        kept &= y <= x
        orbit[x != y] *= 2.0
    nodes = np.flatnonzero(kept)
    return nodes, orbit[nodes]


@lru_cache(maxsize=16)
def _characters(degree: int, axes: int) -> np.ndarray:
    """Character of each active mode under the flips of the axes in the
    pattern ``axes``, (n_a,): bit a is set when the flip of axis a changes
    the mode's sign (rows 1, 2 and 4 of ``reflection_signs``), and with
    ``_ROTATIONS`` in the pattern, the mode's order |m| times 8 is added.
    Read-only.

    A matrix that commutes with those flips couples only modes of one
    character: the pair blocks of a pair whose stabilizer holds them, and
    the whole N when every sphere centre lies on their planes.  One that
    commutes with every rotation about z couples only modes of one |m|.
    """
    bits = np.array([1 << a for a in range(3) if axes >> a & 1], dtype=int)
    active = _active_mask(degree)
    character = (reflection_signs(degree)[bits][:, active] < 0.0).T @ bits
    if axes & _ROTATIONS:
        ells = per_degree(np.arange(degree + 1))
        orders = np.abs(np.arange(ells.size) - ells * ells - ells)
        character += _ROTATIONS * np.repeat(orders, 3)[active]
    character.setflags(write=False)
    return character


def _classes(character: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indices of each distinct value of ``character``, in increasing value."""
    return tuple(np.flatnonzero(character == c) for c in np.unique(character))


class _Stack(NamedTuple):
    """The character classes of the pairs of one axis pattern, stacked
    (``_stack``).

    ``classes`` are the active modes of each character under the flips of
    the axes in the pattern ``axes`` (``_characters``; the pattern 0 gives
    one class of all modes).  A chunk's parts are held as one array over
    the classes, each padded to the ``width`` of the largest: ``modes``
    (classes, width) holds the active mode at each slot c width + i, 0 at
    a pad, ``slots`` (n_a,) the slot of each active mode and ``pads`` the
    slots that hold no mode.  ``at`` (L2, 3) gives the row of each (mode,
    family) of ``weighted_basis`` (0 where it is not active) in the fields
    of ``_chunk_blocks``: its slot, or, with a ``mirror``, its place in
    the classes' modes one after another, with no pads.

    With ``_ROTATIONS`` in the pattern, ``mirror`` gives per class c the
    action of the mirror sigma: (x, y, z) -> (y, x, z)
    (``harmonics.diagonal_mirror``) as ``(twin, where, signs)``: the image
    of the class's mode i is mode ``where[i]`` of class ``twin`` times
    ``signs[i]``.  An even-|m| class is its own twin, with ``where`` the
    identity and one sign; the two classes of each odd |m| are each
    other's.  Otherwise ``mirror`` is empty.  Read-only.
    """

    axes: int
    classes: tuple[np.ndarray, ...]
    modes: np.ndarray
    slots: np.ndarray
    at: np.ndarray
    pads: np.ndarray
    mirror: tuple[tuple[int, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=16)
def _stack(degree: int, axes: int) -> _Stack:
    classes = _classes(_characters(degree, axes))
    modes = np.zeros((len(classes), max(c.size for c in classes)), dtype=int)
    filled = np.zeros(modes.shape, dtype=bool)
    for c, cls in enumerate(classes):
        modes[c, :cls.size], filled[c, :cls.size] = cls, True
    slots = np.empty(filled.sum(), dtype=int)
    slots[modes[filled]] = np.flatnonzero(filled)
    active = _active_mask(degree)
    at = np.zeros(active.size, dtype=int)
    at[active] = slots
    mirror = ()
    if axes & _ROTATIONS:
        at[np.flatnonzero(active)[np.concatenate(classes)]] = np.arange(slots.size)
        image, signs = diagonal_mirror(degree)
        # the active index of each active mode's image, and the class of each
        image, signs = (np.cumsum(active) - 1)[image[active]], signs[active]
        owner = np.empty(slots.size, dtype=int)
        for c, cls in enumerate(classes):
            owner[cls] = c
        twins = [int(owner[image[cls[0]]]) for cls in classes]
        mirror = tuple((t, np.searchsorted(classes[t], image[cls]), signs[cls]) for t, cls in zip(twins, classes))
    out = _Stack(axes, classes, modes, slots, at.reshape(-1, 3), np.flatnonzero(~filled), mirror)
    for a in (*classes, *out[2:6], *(a for _twin, *pair in mirror for a in pair)):
        a.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _folded_table(rule: LebedevRule, degree: int, axes: int):
    """Nodes, test rows and stacked character classes of the pairs of axis
    pattern ``axes`` (nonzero); see ``_pair_blocks``.

    ``nodes`` are the orbit representatives of ``_orbits``, ``stack`` the
    classes of ``_stack``, and ``rows`` the active rows of
    ``weighted_basis`` at the nodes, each node's columns times its orbit
    size, at the slots of the stack, (classes, width, 3 nodes), zero at
    its pads.

    With ``_ROTATIONS`` in the pattern, ``rows`` holds one array per class
    instead, of its own modes only: an even-|m| class's rows, (m_c, 3
    nodes); for the first class of each odd-|m| twin pair, [R_c | S R_t]
    / 2, (m_c, 6 nodes), its own rows R_c beside the twin's rows R_t at
    the images of its modes times their signs (``_Stack.mirror``); None
    for the second.  Read-only.
    """
    nodes, orbit = _orbits(rule, axes)
    stack = _stack(degree, axes)
    # orbit sizes are powers of two: the rows are weighted_basis's to the bit
    active = weighted_rows(rule.points[nodes], rule.weights[nodes] * orbit, degree)[_active_mask(degree)]
    nodes.setflags(write=False)
    if not stack.mirror:
        rows = np.zeros((stack.modes.size, active.shape[1]))
        rows[stack.slots] = active
        rows = rows.reshape(*stack.modes.shape, -1)
        rows.setflags(write=False)
        return nodes, rows, stack
    rows = []
    for c, (modes, (twin, where, signs)) in enumerate(zip(stack.classes, stack.mirror)):
        own = None if twin < c else active[modes]
        if twin > c:
            # halved to the bit, as the orbit weights
            own = 0.5 * np.concatenate((own, signs[:, None] * active[stack.classes[twin][where]]), axis=1)
        if own is not None:
            own.setflags(write=False)
        rows.append(own)
    return nodes, tuple(rows), stack


def _pair_blocks(config: ProblemConfig, rule: LebedevRule, dofmap: DofMap,
                 targets: np.ndarray, sources: np.ndarray):
    """Raw Galerkin coupling blocks of the given ordered sphere pairs, in chunks.

    Yields ``(ipos, jpos, stack, raw)`` for consecutive chunks of the
    pairs (target ``targets[n]``, source ``sources[n]``) of distinct
    spheres, in the given order.  A chunk holds pairs of one axis pattern
    (``_zero_axes``), and those whose source is the enclosing sphere must
    lead each run of one pattern (``_ordered_pairs`` sorts so).  The raw
    block of pair n is the (n_a, n_a) block coupling source ``jpos[n]``'s
    densities (columns, active modes) into the test modes of target
    ``ipos[n]`` (rows).  Its (m_c, m_c) part between the sorted active
    modes ``stack.classes[c]`` is ``raw[c, :m_c, :m_c, n]``; ``raw``
    (classes, width, width, pairs) is zero at the pads of ``stack``
    (``_stack``), and the block's entries outside these class parts are
    exact zeros (see Folding).  Entry ((p,k), (p',k')) is

        sum_t w_t Y^k_p(s_t) . [Ybar_p'(y/|y|) A_S(|y|/r_src)]_k'

    with y = x_tgt + r_tgt s_t - x_src; the single-layer matrices use the
    'in' side exactly on the nodes whose source is the enclosing sphere.
    No C factors and no radius factors.

    Folding.  The flips of the axes on which d = x_tgt - x_src is exactly
    zero form the pair's stabilizer S: each maps the pair and the rule
    onto themselves, and multiplies the integrand of entry (r, p) by the
    product of the two modes' signs under it.  Where test and source
    mode take the same signs under S the integrand is S-even, and its
    sum over an orbit of nodes is the orbit size times its value at the
    orbit's representative; otherwise the orbit sums vanish.  So a pair
    with a nonzero pattern is evaluated only at the representatives of
    ``_folded_table``, with the test rows weighted by orbit size, and only
    the entries between modes of one character under S are computed, one
    part per character class; the others are exact zeros and are not
    made.  A pair with no zero component takes every node, and its one
    part is the whole block.  Concentric pairs (d = 0) take no node at
    all: their parts are closed forms (``_concentric_blocks``), which
    ``rule`` integrates exactly, as every assembly rule (``_check_rule``)
    does.  In a collinear configuration, whose centres ``_geometry`` gives
    in its axis frame, every pair lies on the z axis, and its pattern
    takes ``_ROTATIONS``: its parts are those of one character and one
    order |m|, and the entries that the rule's aliasing makes between
    orders m = m' (mod 4) are not made either (module docstring).  Such a
    pair is folded by the mirror x <-> y too, at the representatives of
    C4v, and the second class of each odd-|m| twin pair is the signed
    permutation of the first (``_mirrored_parts``).

    Each chunk takes one basis evaluation over the evaluated nodes of all
    its pairs, one single-layer evaluation over all degrees per side, and
    one product per class of the stacked classes' test rows, which are the
    same for every target, with their fields (``_chunk_blocks``).  Its
    working set is bounded by ``_CHUNK_BYTES``.
    """
    degree, L2 = dofmap.degree, num_scalar_modes(dofmap.degree)
    centers, radii, enclosing = _geometry(config)
    axes = _zero_axes(centers[targets] - centers[sources])
    if _common_axes(config) & _ROTATIONS:
        axes[(axes & 3) == 3] |= _ROTATIONS
    # the first pair of each run of one pattern
    starts = np.nonzero(np.concatenate(([-1], axes[:-1])) != axes)[0]
    for r0, r1 in zip(starts.tolist(), (*starts[1:].tolist(), targets.size)):
        pattern = int(axes[r0])
        concentric = (pattern & _CONCENTRIC) == _CONCENTRIC
        if concentric:
            stack, points = _stack(degree, pattern), ()
        elif pattern:
            nodes, rows, stack = _folded_table(rule, degree, pattern)
            points = rule.points[nodes]
        else:
            rows = weighted_basis(rule, degree)[dofmap.active_mask()][None]
            stack, points = _stack(degree, 0), rule.points
        pair_bytes = 8 * max(_PAIR_DOUBLES * L2 * len(points),
                             _RAW_DOUBLES * dofmap.modes_per_sphere * 3 * L2)
        per_chunk = max(1, _CHUNK_BYTES // pair_bytes)
        for c0 in range(r0, r1, per_chunk):
            chunk = slice(c0, min(c0 + per_chunk, r1))
            ipos, jpos = targets[chunk], sources[chunk]
            n_in = int(enclosing[jpos].sum())
            if concentric:
                yield ipos, jpos, stack, _concentric_blocks(
                    config.background, degree, radii[ipos] / radii[jpos], n_in, pattern)
                continue
            y = centers[ipos][:, None, :] + radii[ipos][:, None, None] * points
            y = (y - centers[jpos][:, None, :]).reshape(-1, 3)
            yield ipos, jpos, stack, _chunk_blocks(
                config.background, degree, rows, y, radii[jpos], n_in, stack)


# the axis pattern of a pair with d = 0: two spheres with one centre
_CONCENTRIC = 7


@lru_cache(maxsize=16)
def _concentric_table(degree: int, axes: int) -> tuple[np.ndarray, ...]:
    """Where ``_concentric_blocks`` reads each entry of the stacked parts of
    ``_stack(degree, axes)`` (7, or 15 in an axis frame): the degree of
    the row's mode, the families of the row and the column, and the
    squared norm of the row's mode where row and column share their scalar
    mode (zero elsewhere and at the pads), the first three to index
    (classes, width, width), the last (classes, width, width, 1).
    Read-only."""
    stack = _stack(degree, axes)
    active = _active_mask(degree)
    L2 = num_scalar_modes(degree)
    scalar = np.repeat(np.arange(L2), 3)[active][stack.modes]
    family = np.tile(np.arange(3), L2)[active][stack.modes]
    norms = norm_sq_table(degree).reshape(-1)[active][stack.modes]
    filled = np.ones(stack.modes.size, dtype=bool)
    filled[stack.pads] = False
    filled = filled.reshape(stack.modes.shape)
    same = (scalar[:, :, None] == scalar[:, None, :]) & filled[:, :, None] & filled[:, None, :]
    out = (per_degree(np.arange(degree + 1))[scalar][:, :, None], family[:, :, None],
           family[:, None, :], np.where(same, norms[:, :, None], 0.0)[..., None])
    for a in out:
        a.setflags(write=False)
    return out


def _concentric_blocks(background: LameParams, degree: int, rho: np.ndarray, n_in: int,
                       axes: int) -> np.ndarray:
    """``raw`` of ``_pair_blocks`` for pairs whose spheres share their
    centre, stacked as ``_stack(degree, axes)`` (7, or 15 in an axis
    frame): ``rho`` holds r_tgt / r_src per pair, and the first ``n_in``
    pairs take the 'in' side.

    On a concentric target every node sees its source at the same scaled
    radius rho, in its own direction, so the field of source mode p' and
    family q is sum_k Y^k_p'(s) A_kq(rho): the vector harmonics are the
    single layer's eigenfunctions, with the closed-form A.  Its Galerkin
    moments are exact in the assembly rule (degree 2N: the integrands
    Y^k_p . Y^k'_p' are of degree l + l' at most), and orthogonality leaves
    entry ((p,k), (p',q)) = delta_pp' <Y^k_p, Y^k_p> A_kq(rho): the
    quadrature's own value, to its rounding, with no quadrature made.
    """
    A = np.empty((degree + 1, rho.size, 3, 3))
    for side, pairs in (("in", slice(None, n_in)), ("out", slice(n_in, None))):
        if rho[pairs].size:
            A[:, pairs] = single_layer_matrix(np.arange(degree + 1), background, rho[pairs], side)
    ell, row, col, norms = _concentric_table(degree, axes)
    return norms * A[ell, :, row, col]


def _chunk_blocks(background: LameParams, degree: int, rows: np.ndarray, y: np.ndarray,
                  src_radii: np.ndarray, n_in: int, stack: _Stack) -> np.ndarray:
    """Stacked class parts of the raw blocks of one chunk of pairs, ``raw``
    of ``_pair_blocks``, (classes, width, width, pairs).

    ``y`` holds x_tgt + r_tgt s_t - x_src pair-major at the T nodes whose
    test rows are ``rows``, at the slots of ``stack`` (classes, width,
    3 T) and zero at its pads (with a ``stack.mirror``, the per-class rows
    of ``_folded_table``), and the first ``n_in`` pairs take the 'in'
    side.  The field of source mode p and density family q at a node is
    sum_k (V, W, X)_k(p) A_kq, A the single-layer matrix at the node.  A
    is structurally zero at (V, X), (W, X), (X, V) and (X, W), where
    ``spectra._layer_matrix`` writes nothing, so the three fields are

        V A_VV + W A_WV,   V A_VW + W A_WW,   X A_XX,

    each formed by broadcast products straight into the rows of G, at
    their mode's row ``stack.at`` (G's pad rows are zero); at l = 0 only
    the first, as (l=0, W) and (l=0, X) are not active.  One product per
    class of its test rows with its rows of G (``_blas.product``, SciPy's
    dgemm) then gives every class's part, entry (r, q) of class c and pair
    n at ``raw[c, r, q, n]``; in an axis frame, ``_mirrored_parts`` makes
    them from each class's own rows.  A function of its own so that the
    chunk's temporaries are freed before the next one.
    """
    L2, n = num_scalar_modes(degree), src_radii.size
    T = len(y) // n
    C, width = stack.modes.shape
    ells = np.arange(degree + 1)
    dist = np.sqrt((y * y).sum(axis=1))
    # a node at the source's centre (one of an inclusion that the enclosing
    # sphere's centre lies on) sees there only the degree-1 W field, the same
    # constant in every direction: any unit vector serves
    unit = y / np.where(dist > 0.0, dist, 1.0)[:, None]
    unit[dist == 0.0] = (0.0, 0.0, 1.0)
    basis = vsh_basis(unit, degree)
    del unit
    V, W, X = basis.V, basis.W, basis.X
    del basis
    rho = dist / np.repeat(src_radii, T)
    A = np.empty((degree + 1, rho.size, 3, 3))
    for side, nodes in (("in", slice(None, n_in * T)), ("out", slice(n_in * T, None))):
        if rho[nodes].size:
            A[:, nodes] = single_layer_matrix(ells, background, rho[nodes], side)
    at = stack.at
    if stack.mirror:
        # (mode in class order, pair, node and component)
        G = np.empty((stack.slots.size, n, 3 * T))
    else:
        G = np.empty((C * width, n, 3 * T))  # (slot, pair, node and component)
        G[stack.pads] = 0.0
    fields = G.reshape(len(G), rho.size, 3)
    for ell in range(degree + 1):
        sl = slice(ell * ell, (ell + 1) * (ell + 1))
        a = A[ell][..., None]  # (nodes, k, q, 1): broadcast over components
        v, w = V[sl], W[sl]
        fields[at[sl, 0]] = v * a[:, 0, 0] + w * a[:, 1, 0]
        if ell:
            fields[at[sl, 1]] = v * a[:, 0, 1] + w * a[:, 1, 1]
            fields[at[sl, 2]] = X[sl] * a[:, 2, 2]
    del V, W, X, v, w
    if stack.mirror:
        return _mirrored_parts(rows, G, stack)
    G = G.reshape(C, width * n, 3 * T)
    raw = np.empty((C, width, width * n))
    for c in range(C):
        _product(rows[c], G[c].T, out=raw[c])
    return raw.reshape(C, width, width, n)


def _mirrored_parts(rows: tuple, G: np.ndarray, stack: _Stack) -> np.ndarray:
    """``raw`` of ``_chunk_blocks`` for the pairs of an axis frame, from
    their fields G (n_a, pairs, 3 T), the classes' modes one after another
    (``_Stack.at``), at the representatives of the frame's C4v
    (``_orbits``), and the rows of ``_folded_table``.

    The mirror sigma (``_Stack.mirror``, S its signed permutation of the
    modes) maps the pair and the rule onto themselves, so the block is
    B = S B S^T.  The sum A over the representatives, weighted by orbit
    size, gives B = (A + S A S^T) / 2 on each class.  S is +-1 on an
    even-|m| class, whose part is then A's: one product of its own rows
    and columns.  The part of the first class c of an odd-|m| twin pair
    (c, t) is (A_c + S A_t S^T) / 2, one product of its rows [R_c | S R_t]
    / 2 with the stacked fields [G_c | S G_t]; the twin's part is S B_c
    S^T, its signed permutation, with no product.  Each product takes a
    class's own rows and columns, and the pads are zero.
    """
    C, width = stack.modes.shape
    n = G.shape[1]
    starts = [0, *accumulate(modes.size for modes in stack.classes)]
    raw = np.zeros((C, width, width, n))
    for c, (modes, (twin, where, signs)) in enumerate(zip(stack.classes, stack.mirror)):
        m = modes.size
        if twin < c:
            continue
        fields = G[starts[c]:starts[c] + m]
        if twin > c:
            fields = np.concatenate((fields, signs[:, None, None] * G[starts[twin] + where]), axis=2)
        part = _product(rows[c], fields.reshape(m * n, -1).T).reshape(m, m, n)
        raw[c, :m, :m] = part
        if twin > c:
            _, back, back_signs = stack.mirror[twin]
            raw[twin, :m, :m] = (back_signs[:, None] * back_signs)[..., None] * part[back[:, None], back]
    return raw


@lru_cache(maxsize=1)
def _distinct_pairs(config: ProblemConfig):
    """The ordered pairs grouped by the key that fixes their raw block up to
    a coordinate reflection.

    With d = x_tgt - x_src, the key is (|d_x|, |d_y|, |d_z|, r_tgt, r_src,
    source is enclosing), matched by exact (bitwise) float equality, and
    the pair's pattern is the reflection sigma = sign(d) that carries |d|
    to d, numbered as in ``harmonics.reflection_signs`` (bit a set when
    d_a < 0; a zero component counts as +).  Every embedded Lebedev rule
    maps onto itself under each coordinate flip, node for node and with
    equal weights, so the pairs of one key have the blocks H_sigma B H_sigma
    of one canonical block B (that of pattern 0), H_sigma being the
    pattern's diagonal of mode signs, up to the rounding of their mapped
    nodes.  Returns ``(rep_targets, rep_sources, rep_patterns)``, one
    representative pair per key in ``_ordered_pairs`` order (so the keys
    of one axis pattern stay together, enclosing sources first), and
    ``(targets, sources, patterns, bounds)``: the pairs of key k are
    ``targets[bounds[k]:bounds[k + 1]]`` with the matching sources and
    patterns.

    The last configuration's grouping is kept (read-only), so that
    ``solver_bytes``, called by ``validate``, and the ``CouplingOperator``
    of the solve that follows group the pairs once between them.
    """
    targets, sources = _ordered_pairs(config)
    centers, radii, enclosing = _geometry(config)
    d = centers[targets] - centers[sources]
    patterns = (d < 0.0) @ _AXIS_BITS
    keys = np.column_stack([np.abs(d), radii[targets], radii[sources], enclosing[sources]])
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
    out = ((targets[reps], sources[reps], patterns[reps]),
           (targets[members], sources[members], patterns[members], bounds))
    for a in (*out[0], *out[1]):
        a.setflags(write=False)
    return out


def _diag_coupling(config: ProblemConfig, dofmap: DofMap, mode: str):
    """Tables shared by assembly and the product, over the active modes.

    Returns the squared norms <Y, Y> (n_a,), the background single-layer
    eigenvalues tau0 (n_a,), the C vectors of all spheres (M, n_a) and
    the exact diagonal blocks of N, C tau0 <Y, Y> (M, n_a).
    """
    norms, tau0 = _norms_tau0(config.background, dofmap.degree)
    C = _c_matrix(config, dofmap, mode)
    return norms, tau0, C, C * tau0 * norms


def _c_matrix(config: ProblemConfig, dofmap: DofMap, mode: str) -> np.ndarray:
    """The C vectors of all spheres over the active modes, (M, n_a)."""
    return np.array([_c_vector(s.role, s.material, s.sign, config.background, dofmap.degree, mode)
                     for s in config.spheres])


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
    """Build the Galerkin system for a validated configuration.

    N is held as one block per character class (``_character_classes``),
    all of them views of one store, made once at its final size: class c
    takes the same active modes s_c of every sphere, so its block is
    viewed as (target, target mode, source, source mode), (M, s_c, M,
    s_c).  Each chunk of pair blocks arrives as the stacked class parts of
    the pairs' stabilizer (``_stack``), which holds the common flips, so
    each part lies in one class of N.  After F has taken its share, each
    part times the source's C is written straight into its (target,
    source) sub-block there: through those views when the stack's classes
    are the layout's, else each entry at its flat position in the store
    (``_scatter_template``).  A collinear configuration is assembled in its
    axis frame (``_frame``): the loads are turned into it, and F out of it.
    """
    rule = config.rule() if rule is None else rule
    degree = config.degree
    _check_rule(rule, degree)
    if sigma is None:
        sigma = build_sigma(config, degree, rule)
    dofmap = _dofmap(config)
    mask = dofmap.active_mask()
    M = len(config.spheres)
    norms, tau0, C, diag = _diag_coupling(config, dofmap, mode)
    sig = np.array([sigma[s.id].flat[mask] for s in config.spheres])
    frame = _frame(config)
    if frame is not None:
        sig = frame.turn(sig.reshape(-1)).reshape(M, -1)
    radii = np.array([s.frame.radius for s in config.spheres])
    D = np.tile(norms, M)
    F = radii[:, None] * sig * tau0 * norms
    layout = _character_classes(config, dofmap)
    # the class blocks, one after another, and a last entry for the pads
    store = np.zeros(layout.offsets[-1] + 1)
    # the diagonal blocks of N are exactly diagonal by orthogonality
    store[layout.diagonal] = diag.reshape(-1)
    sizes = [rows.size for rows in layout.classes]
    blocks = tuple(store[o:o + m * m].reshape(m, m) for o, m in zip(layout.offsets.tolist(), sizes))
    Nmat = ClassBlocks(layout.classes, blocks, frame)
    # each class's block as (target, target mode, source, source mode), (M, s_c, M, s_c)
    views = [block.reshape(M, m // M, M, m // M) for block, m in zip(blocks, sizes)]
    loaded = sig.any(axis=1)
    for ipos, jpos, stack, raw in _pair_blocks(config, rule, dofmap, *_ordered_pairs(config)):
        # F's share first: the loads of the sources that carry one, class
        # by class
        for n in np.flatnonzero(loaded[jpos]).tolist():
            loads = sig[jpos[n]][stack.modes]
            contrib = np.zeros(loads.shape)
            for c, modes in enumerate(stack.classes):
                m = modes.size
                np.dot(raw[c, :m, :m, n], loads[c, :m], out=contrib[c, :m])
            F[ipos[n]] += radii[jpos[n]] * contrib.reshape(-1)[stack.slots]
        # times the sources' C at each column
        raw *= C[jpos][:, stack.modes].transpose(1, 2, 0)[:, None]
        if stack.axes == layout.stack.axes:
            # the layout's own classes: whole (target, source) sub-blocks
            for c, view in enumerate(views):
                s = view.shape[1]
                view[ipos, :, jpos] = raw[c, :s, :s].transpose(2, 0, 1)
        else:
            # classes within the layout's: each entry at its flat position
            base, a, b = _scatter_template(degree, stack.axes, layout.stack.axes, M)
            store[base + ipos * a + jpos * b] = raw
        # freed before the next chunk is generated
        del raw
    F = F.reshape(-1) if frame is None else frame.turn(F.reshape(-1), back=True)
    return DenseSystem(dofmap=dofmap, D=D, Nmat=Nmat, F=F, sigma=sigma, mode=mode)


def _scatter_add(acc: np.ndarray, scatter: csr_array, res: np.ndarray) -> None:
    """acc += scatter @ res in place.

    SciPy's own CSR kernel, which touches only the rows of acc that
    ``scatter`` has entries in; ``scatter @ res`` would return a zeroed
    array of all of acc's rows for a second pass to add.  The kernel
    reads and writes through raw pointers, so the shapes and layouts are
    checked here.
    """
    if not (acc.flags.c_contiguous and res.flags.c_contiguous
            and acc.dtype == res.dtype == scatter.dtype == np.float64
            and scatter.shape == (acc.shape[0], res.shape[0]) and acc.shape[1] == res.shape[1]):
        raise ValueError("scatter_add needs C-ordered float64 arrays of matching shapes")
    csr_matvecs(*scatter.shape, res.shape[1], scatter.indptr, scatter.indices, scatter.data,
                res.reshape(-1), acc.reshape(-1))


class _PairClass(NamedTuple):
    """The ``keys`` keys of ``count`` pairs each, whose blocks are
    ``blocks[k0:k0 + keys]`` of a ``CouplingOperator``.

    Rows b M + i of a product's work arrays belong to pattern b and
    sphere i.  ``sources`` (keys * count,) lists the source rows of the
    class's pairs in (key, pair) order, and ``scatter`` is the CSR matrix
    (8 M, keys * count) with a 1 at the (pattern, target) row and column
    of each pair.
    """

    k0: int
    keys: int
    count: int
    sources: np.ndarray
    scatter: csr_array


class CouplingOperator:
    """The coupling of one configuration, held as one block per pair key.

    Built from the same generator ``assemble`` reads, but only for one
    representative pair per key of ``_distinct_pairs``, whose keys ignore
    the signs of the displacement.  Each generated class part is turned
    to the canonical orientation by its representative's H_sigma (a
    diagonal of +-1 per active mode, ``signs[sigma]``) and placed in its
    key's block, held read-only in ``blocks`` (keys, n_a, n_a), whose
    entries between the classes of a folded pair stay zero.  A pair of
    pattern sigma couples its source through H_sigma B H_sigma, exactly
    for the reflection-closed Lebedev rules.  The keys are ordered by
    their pair count c, stably, and the keys of one count form a class
    (``classes``, see ``_PairClass``) whose blocks are consecutive.

    A product turns every source by each pattern's H once, (8 M, n_a).
    Per class it takes one batched matmul of the blocks with the stacked
    (keys, c, n_a) turned sources and adds the results in place to just
    the (pattern, target) rows of its pairs.  At the end it applies each
    pattern's H to its rows and sums them per target.  Its work arrays
    are bounded by the largest class.  With the C and diagonal tables
    that is all of N; no n x n array is made.  The load ``F`` (computed
    on first use) takes the same product over the loaded sources.

    A collinear configuration's blocks, keys and patterns are those of its
    axis frame (``frame``, see ``_frame``); ``coupling`` turns its operand
    into the frame and the product out of it, and F is turned out too.

    Shares with ``DenseSystem`` what ``solve_iterative`` reads: ``D``,
    ``F``, ``dofmap``, ``sigma``, ``mode`` and the product ``coupling``.
    """

    product = "matrix_free"

    def __init__(self, config: ProblemConfig, rule: LebedevRule, mode: str):
        _check_rule(rule, config.degree)
        self.config, self.rule, self.mode = config, rule, mode
        self.frame = _frame(config)
        self.dofmap = _dofmap(config)
        self._norms, self._tau0, self.C, self.diag = _diag_coupling(config, self.dofmap, mode)
        M = len(config.spheres)
        self.D = np.tile(self._norms, M)
        self.D.setflags(write=False)
        self.signs = reflection_signs(config.degree)[:, self.dofmap.active_mask()]  # (8, n_a)
        self.signs.setflags(write=False)
        (rep_targets, rep_sources, rep_patterns), (targets, sources, patterns, bounds) = \
            _distinct_pairs(config)
        self.pairs = int(bounds[-1])
        counts = np.diff(bounds)
        order = np.argsort(counts, kind="stable")  # key of each slot
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        na = self.dofmap.modes_per_sphere
        # each part goes straight to its slot: no second copy of the blocks
        self.blocks = np.zeros((order.size, na, na))
        k = 0
        for _ipos, _jpos, stack, raw in _pair_blocks(config, rule, self.dofmap,
                                                     rep_targets, rep_sources):
            keys = slice(k, k + raw.shape[-1])
            for modes, part in zip(stack.classes, raw):
                part = part[:modes.size, :modes.size].transpose(2, 0, 1)
                h = self.signs[rep_patterns[keys]][:, modes]
                turned = h[:, :, None] * part * h[:, None, :]
                self.blocks[slot[keys][:, None, None], modes[:, None], modes] = turned
            k = keys.stop
        self.blocks.setflags(write=False)
        classes = []
        starts = np.flatnonzero(np.diff(counts[order], prepend=-1))
        for k0, k1 in zip(starts, (*starts[1:], order.size)):
            keys, count = order[k0:k1], counts[order[k0]]
            pairs = (bounds[keys][:, None] + np.arange(count)).reshape(-1)  # (key, pair) order
            shift = patterns[pairs] * M
            # 32-bit coordinates give 32-bit CSR indices
            coords = (shift + targets[pairs]).astype(np.int32), np.arange(pairs.size, dtype=np.int32)
            scatter = csr_array((np.ones(pairs.size), coords), shape=(8 * M, pairs.size))
            classes.append(_PairClass(int(k0), keys.size, int(count), shift + sources[pairs], scatter))
        self.classes = tuple(classes)

    @property
    def held_block_bytes(self) -> int:
        return self.blocks.nbytes

    def _add_pair_products(self, out: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """out[i] += H block H @ vectors[j] over all ordered pairs, (M, n_a)."""
        na = out.shape[1]
        # row b M + j: source j as the pairs of pattern b see it, H_b vectors[j]
        turned = (self.signs[:, None, :] * vectors).reshape(-1, na)
        acc = np.zeros_like(turned)
        for cls in self.classes:
            stacked = turned[cls.sources].reshape(cls.keys, cls.count, na)
            res = np.matmul(stacked, self.blocks[cls.k0:cls.k0 + cls.keys].transpose(0, 2, 1))
            del stacked
            _scatter_add(acc, cls.scatter, res.reshape(-1, na))
            # freed before the next class forms its own
            del res
        out += np.einsum("bn,bmn->mn", self.signs, acc.reshape(len(self.signs), -1, na))
        return out

    def coupling(self, x: np.ndarray) -> np.ndarray:
        """The product N x."""
        frame = self.frame
        lam = (x if frame is None else frame.turn(x)).reshape(len(self.config.spheres), -1)
        # C belongs to the source sphere, not to the key
        out = self._add_pair_products(self.diag * lam, self.C * lam).reshape(-1)
        return out if frame is None else frame.turn(out, back=True)

    @cached_property
    def sigma(self) -> dict[int, VshExpansion]:
        return build_sigma(self.config, self.config.degree, self.rule)

    @cached_property
    def F(self) -> np.ndarray:
        mask = self.dofmap.active_mask()
        sig = np.array([self.sigma[s.id].flat[mask] for s in self.config.spheres])
        frame = self.frame
        if frame is not None:
            sig = frame.turn(sig.reshape(-1)).reshape(sig.shape)
        radii = _geometry(self.config)[1][:, None]
        own = radii * sig * self._tau0 * self._norms
        # unloaded sources add exact zeros
        F = self._add_pair_products(own, radii * sig).reshape(-1)
        if frame is not None:
            F = frame.turn(F, back=True)
        F.setflags(write=False)
        return F


@lru_cache(maxsize=1)
def coupling_operator(config: ProblemConfig, rule: LebedevRule, mode: str) -> CouplingOperator:
    """The configuration's ``CouplingOperator``, for ``apply_operator``.

    The last one built is kept, so products repeated on one configuration
    generate no blocks after the first; a product on another
    configuration, rule or mode builds afresh (as fast as a product that
    holds nothing) and replaces it.  Its arrays are shared with later
    callers and read-only.  A solve builds its own ``CouplingOperator``
    and holds it only while it runs.
    """
    return CouplingOperator(config, rule, mode)


def solver_bytes(config: ProblemConfig, product: str) -> int:
    """Bytes of the largest arrays a solve of ``config`` holds.

    ``product`` is ``"dense"`` (the N of ``assemble``) or
    ``"matrix_free"`` (a ``CouplingOperator``).  The operator holds one
    raw block per key of ``_distinct_pairs``, which pairs whose
    displacements differ only in the signs of their components share
    (42 / 150 / 698 blocks on lattice r2 / r3 / r5, of 756 / 8 742 /
    235 710 ordered pairs), and per pair its source row (int64) and its
    scatter entry (float64 value, int32 column), per class the scatter's
    int32 row pointers.  Its product adds the sources turned by each
    pattern and their accumulated products, (8 M, n_a) each, and per
    class the stacked sources and their products, two arrays of the
    largest class (each class's are freed before the next class forms
    its own).  On lattice r5 that is 11.8 MB of blocks, 6.1 MB of class
    arrays and 11.5 MB of work arrays, against 18.7 MB held and an
    11.8 MB product peak measured by tracemalloc.

    The dense N is held as one block per class of ``_character_classes``,
    sum_c 8 m_c^2 bytes for classes of m_c unknowns (``ClassBlocks``), read
    from the class layout without assembling: 8 n^2 with one class, and
    50 MB for the three spheres at N=48 (216 classes).  The direct solver
    adds the bordered block of one class at a time (at most six rigid
    traces), charged for the largest class in float64.  That is what it
    takes in the float64 retry of an ill-conditioned system (see
    ``solve_direct``); the float32 block it factors first takes half of
    it, so that charge is an upper bound.  GMRES adds its Krylov basis of
    restart + 1 bordered vectors.
    """
    dofmap = _dofmap(config)
    n, na = dofmap.size, dofmap.modes_per_sphere
    # unknowns of the largest class the direct solver borders
    bordered = n
    if product == "dense":
        sizes = [rows.size for rows in _character_classes(config, dofmap).classes]
        held, bordered = sum(8 * m * m for m in sizes), max(sizes)
    elif product == "matrix_free":
        (rep_targets, _, _), (_, _, _, bounds) = _distinct_pairs(config)
        counts, keys_per_count = np.unique(np.diff(bounds), return_counts=True)
        spheres = len(config.spheres)
        largest = int((counts * keys_per_count).max(initial=0))
        held = (8 * rep_targets.size * na * na + 20 * int(bounds[-1])
                + 4 * (8 * spheres + 1) * counts.size + 8 * na * (2 * 8 * spheres + 2 * largest))
    else:
        raise ValueError(f"unknown product {product!r}; expected 'dense' or 'matrix_free'")
    if config.solver.method == "direct":
        return held + 8 * (bordered + 6) ** 2
    # SciPy's GMRES restarts after at most as many steps as the system has unknowns
    restart = min(config.solver.restart, n + 6)
    return held + 8 * (restart + 1) * (n + 6)


def apply_operator(
    config: ProblemConfig,
    lam: np.ndarray,
    rule: LebedevRule | None = None,
    mode: str = DEFAULT_MODE,
) -> np.ndarray:
    """Matrix-free product (D - N) Lambda; never materializes N.

    Gets the configuration's ``coupling_operator`` and applies it: the
    first product on a configuration generates its distinct blocks, and
    products repeated on it reuse them until a product on another
    configuration, rule or mode replaces them.  The result agrees with
    the dense product to rounding error.
    """
    rule = config.rule() if rule is None else rule
    lam = np.asarray(lam).reshape(-1)
    size = _dofmap(config).size
    if lam.size != size:
        raise ValueError(
            f"lam has {lam.size} entries; the configuration has dofmap.size = {size}"
        )
    operator = coupling_operator(config, rule, mode)
    return operator.D * lam - operator.coupling(lam)


# ---------------------------------------------------------------------------
# rigid-motion null space and gauge
# ---------------------------------------------------------------------------

# active offsets of the degree-1 W and X modes of order m = 1, -1, 0, i.e.
# of the x, y and z axes: 3 sh_index(1, m) + family, less the two
# degenerate (l=0, W/X) slots that precede them
_AXIS_W = np.array([3 * 3 + 1, 3 * 1 + 1, 3 * 2 + 1]) - 2
_AXIS_X = _AXIS_W + 1
_AXES = np.arange(3)
# Levi-Civita symbol: (e_a x v)_b = eps[b, a, k] v_k
_EPS = np.zeros((3, 3, 3))
_EPS[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0


def _common_axes(config: ProblemConfig) -> int:
    """Axis pattern on which every sphere centre has exactly the same
    coordinate, in the configuration's frame (``_geometry``): the flip of
    each such axis about that coordinate maps every sphere onto itself.
    A collinear configuration's is x and y with ``_ROTATIONS``: in its axis
    frame every rotation about the line maps every sphere onto itself."""
    axes = _axes_of(_centers(config))
    return 3 | _ROTATIONS if axes in _LINE_FRAMES else axes


def _axes_of(centers: np.ndarray) -> int:
    """``_common_axes`` of the centres (M, 3)."""
    return int((centers == centers[0]).all(axis=0) @ _AXIS_BITS)


class _ClassLayout(NamedTuple):
    """The character classes of a configuration's unknowns and where
    ``assemble`` puts each mode in their blocks (``_character_classes``).

    Each class takes the same active modes of every sphere, those of
    ``stack.classes[c]`` (``_stack`` of the common flips' pattern), s_c of
    them, sphere-major: ``classes[c]`` holds the m_c = M s_c sorted
    indices of its unknowns.  ``owner`` and ``place`` give each active
    mode's class and its place among that class's modes of one sphere,
    (n_a,) each, and ``character`` that of each unknown (n,).  ``assemble``
    holds the class blocks one after another in one flat store: block c
    starts at ``offsets[c]``, the store holds ``offsets[-1]`` entries and
    one more, and ``diagonal`` (n,) gives the position in it of each
    unknown's diagonal entry.  Read-only.
    """

    stack: _Stack
    classes: tuple[np.ndarray, ...]
    owner: np.ndarray
    place: np.ndarray
    character: np.ndarray
    offsets: np.ndarray
    diagonal: np.ndarray


def _character_classes(config: ProblemConfig, dofmap: DofMap) -> _ClassLayout:
    """The unknowns of each character under the configuration's common
    flips (``_common_axes``, ``_characters``), and their layout.

    Every pair's stabilizer holds those flips, so the blocks of N couple
    only unknowns of one character, and the diagonal blocks are diagonal:
    N is block-diagonal over these classes, up to a reordering.  A
    configuration with no common flip has one class.  A collinear one's
    classes are those of its axis frame, of one character under the flips
    of x and y and one order |m|: 2 N + 2 of them at degree N.
    """
    return _class_layout(dofmap.degree, _common_axes(config), len(dofmap.sphere_ids))


@lru_cache(maxsize=16)
def _class_layout(degree: int, axes: int, spheres: int) -> _ClassLayout:
    """``_character_classes`` of that many spheres under the flips of the
    axes in the pattern ``axes``; the pattern 0 gives one class."""
    stack = _stack(degree, axes)
    modes = stack.classes
    na = stack.slots.size
    classes = tuple((np.arange(spheres)[:, None] * na + c).reshape(-1) for c in modes)
    owner, place = np.empty(na, dtype=int), np.empty(na, dtype=int)
    for k, c in enumerate(modes):
        owner[c], place[c] = k, np.arange(c.size)
    sizes = np.array([rows.size for rows in classes])
    offsets = np.concatenate(([0], np.cumsum(sizes * sizes)))
    diagonal = np.empty(spheres * na, dtype=int)
    for rows, offset, m in zip(classes, offsets, sizes):
        diagonal[rows] = offset + np.arange(m) * (m + 1)
    character = np.tile(_characters(degree, axes), spheres)
    out = _ClassLayout(stack, classes, owner, place, character, offsets, diagonal)
    for a in (*classes, *out[2:]):
        a.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _scatter_template(degree: int, axes: int, layout_axes: int, spheres: int):
    """Where ``assemble`` writes the stacked parts of the pairs of axis
    pattern ``axes`` (``_stack``) in the store of ``_class_layout(degree,
    layout_axes, spheres)``: entry (c, r, q) of pair (i, j) goes to
    ``base + i a + j b`` at (c, r, q), arrays (classes, width, width, 1);
    the pads to the store's last entry.  Each class of the stack lies in
    one class of the layout, whose flips the stack's hold.  Read-only.
    """
    stack, layout = _stack(degree, axes), _class_layout(degree, layout_axes, spheres)
    rows, cols = stack.modes[:, :, None], stack.modes[:, None, :]
    owner = layout.owner[rows]
    s = np.array([c.size for c in layout.stack.classes])[owner]
    # block (M, s, M, s): entry (i, r, j, q) at ((i s + r) M + j) s + q
    base = layout.offsets[owner] + layout.place[rows] * spheres * s + layout.place[cols]
    a, b = np.broadcast_to(s * spheres * s, base.shape).copy(), np.broadcast_to(s, base.shape).copy()
    pads = np.zeros(stack.modes.shape, dtype=bool)
    pads.reshape(-1)[stack.pads] = True
    pads = pads[:, :, None] | pads[:, None, :]
    base[pads], a[pads], b[pads] = layout.offsets[-1], 0, 0
    out = base[..., None], a[..., None], b[..., None]
    for arr in out:
        arr.setflags(write=False)
    return out


def rigid_trace_vectors(config: ProblemConfig, dofmap: DofMap, mode: str) -> np.ndarray:
    """Known null vectors of (D - N): traces of rigid motions.

    Translations give constant traces (pure degree-1 W content) on every
    sphere and are null in both coefficient modes.  Rotation traces mix
    W (center offset) and toroidal X content; they are null exactly when
    the toroidal adjoint eigenvalue is the self-consistent -1/2 at
    degree 1, so they join the basis only in that mode.  Returns a
    (size, 3 or 6) orthonormalized basis of the translations along e_a
    and, after them, the rotations about e_a.

    The rotations are taken about a point on every common plane of
    symmetry (the global planes of ``_common_axes``; the origin when there
    is none), so that each motion is of one character under the common
    flips, and so is each orthonormalised column in exact arithmetic.  The
    QR leaves rounding, up to 7e-17, in the rows of other characters; it
    is set to zero, so that every column is pure (and orthonormal to
    rounding).  The basis is global; ``solve_direct`` turns it into a
    collinear configuration's axis frame, where each column, of degree 1,
    is of one class of ``_character_classes`` too.
    """
    c = sqrt(4.0 * pi / 3.0)
    M, na = len(config.spheres), dofmap.modes_per_sphere
    centers, radii = _centers(config), np.array([s.frame.radius for s in config.spheres])
    axes = _axes_of(centers)
    rotations = mode == MODE_SELF_CONSISTENT
    Z = np.zeros((M, na, 6 if rotations else 3))  # (sphere, mode, column)
    Z[:, _AXIS_W, _AXES] = c
    if rotations:
        offsets = centers - np.where(axes & _AXIS_BITS, centers[0], 0.0)
        Z[:, _AXIS_W, 3:] = c * (_EPS @ offsets.T).transpose(2, 0, 1)  # c (e_a x offset)
        Z[:, _AXIS_X, 3 + _AXES] = -c * radii[:, None]
    Q = _orthonormal_columns(Z.reshape(M * na, -1))
    if axes:
        character = _class_layout(dofmap.degree, axes, M).character
        Q[character[:, None] != character[np.abs(Q).argmax(axis=0)]] = 0.0
    return Q


def _orthonormal_columns(A: np.ndarray) -> np.ndarray:
    """The Q of the reduced QR factorisation of a tall float64 A, (m, k),
    Fortran-ordered: ``np.linalg.qr(A)[0]``'s two LAPACK kernels,
    ``dgeqrf`` and ``dorgqr``, from SciPy's LAPACK (the one-library rule
    of the module docstring), on a Fortran-ordered copy of A, without
    numpy's other wrappers and the R it forms.  Those took about 7% of
    the solve of lattice r1 (best of three in a fresh process), the M = 2
    anchor of criterion 8's slope.  An invalid argument raises
    ``LinAlgError``, as numpy does; NaN input gives NaN."""
    qr, tau, _, info = dgeqrf(A.astype(float, order="F", copy=True), overwrite_a=1)
    if info == 0:
        q, _, info = dorgqr(qr, tau, overwrite_a=1)
    if info != 0:
        raise LinAlgError("Incorrect argument found while performing QR factorization")
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


# A bordered matrix with a smaller reciprocal condition number (gecon, 1-norm)
# is numerically singular: the null space of (D - N) exceeds the rigid traces.
_RCOND_MIN = 1e-13
# (D - N) Z must vanish to rounding relative to the bordered matrix's norm.
_NULL_TOL = 1e-12
# Largest incompatible share |F - F_c| / |F| of the load that is accepted.
_FLOOR_MAX = 1e-3
# Float32 factors with a smaller reciprocal condition number (16 float32 unit
# roundoffs) leave refinement too little contraction: float64 factors are used.
_RCOND_F32 = 2.0**-20
# Entries of the float32 bordered matrix below this share of its largest
# diagonal entry are set to zero, so that none becomes a float32 subnormal.
_FLUSH = 2.0**-40
# Entries of N negated, flushed and rounded to float32 per row block.
_ROW_BLOCK = 2**15
# Correction steps of one refinement before it counts as not converged, as
# in LAPACK's dsgesv.
_REFINE_MAX = 30
# float64 unit roundoff, LAPACK's dlamch('E')
_EPS64 = np.finfo(np.float64).eps / 2


def _check_floor(floor: float, n: int, k: int) -> None:
    """Refuse a load whose incompatible share exceeds ``_FLOOR_MAX``."""
    if floor > _FLOOR_MAX:
        raise SolverError(
            f"the load is incompatible with equilibrium: {floor:.3e} of its norm "
            f"lies outside the range of the operator (rank {n - k} of {n})"
        )


def _radius_c(config: ProblemConfig, dofmap: DofMap, mode: str) -> np.ndarray:
    """r C per unknown (radius and C of its sphere and mode), (n,)."""
    radii = np.array([s.frame.radius for s in config.spheres])
    return (radii[:, None] * _c_matrix(config, dofmap, mode)).reshape(-1)


def _left_null_border(rc: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Orthonormalised r C Z, ``rc`` = r C (``_radius_c``) at the rows of
    the rigid traces ``Z``, which spans the left null space of D - N up to
    the quadrature asymmetry of the single-layer form (see
    ``solve_iterative``)."""
    return _orthonormal_columns(rc[:, None] * Z)


def _bordered_matrix(Nmat: np.ndarray, D: np.ndarray, DZ: np.ndarray, dtype,
                     top: float | None = None) -> np.ndarray:
    """B = [[D - N, D Z], [Z^T D, 0]] in ``dtype``, with no n x n temporary.

    In float32, -N is rounded into B's rows in blocks of about
    ``_ROW_BLOCK`` entries, and its rounded entries below ``_FLUSH`` of
    ``top`` (by default the largest diagonal entry of B) are set to zero
    there, so that every temporary is float32 or boolean.
    """
    n, k = DZ.shape
    B = np.empty((n + k, n + k), dtype)
    diagonal = D - np.diagonal(Nmat)
    if dtype == np.float64:
        np.negative(Nmat, out=B[:n, :n])
    else:
        tiny = _FLUSH * (np.abs(diagonal).max() if top is None else top)
        rows = max(1, _ROW_BLOCK // n)
        for r0 in range(0, n, rows):
            block = B[r0:min(r0 + rows, n), :n]
            np.negative(Nmat[r0:r0 + rows], out=block)
            block *= np.abs(block) >= tiny  # 3x faster than block[mask] = 0
    B.reshape(-1)[:n * (n + k + 1):n + k + 1] = diagonal
    B[:n, n:] = DZ
    B[n:, :n] = DZ.T
    B[n:, n:] = 0.0
    return B


def _refine(factors, trans: int, subtract_product, left, right, y: np.ndarray | None,
            tol: float):
    """Iterative refinement of bordered solves, residuals in float64.

    ``factors`` are LU factors of B^T in either precision; ``trans`` = 0
    solves B^T v = b and 1 solves B v = b, for each row v of ``y`` and
    b of the right-hand side.  b's first n entries are ``left`` (an array
    or a scalar that broadcasts), its last k the matching row of
    ``right`` (rows, k).  Rows keep each vector contiguous, for ``getrs``
    and the products.  ``subtract_product(r, y)`` subtracts the matrix
    times each row of y from that row of r, in float64.  From ``y``
    (None: the factors' own solve of b), each step adds the factors'
    solve for the residual r = b - (B or B^T) v.  It stops, as LAPACK's
    ``dgerfs``, once the residual of some row no longer halves, and has
    converged if every row then meets LAPACK dsgesv's test
    |r|_inf <= tol |v|_inf.  It also stops once every row's residual is
    below eps times that bound, as dgerfs stops at a backward error of
    eps: on a small, nearly diagonal block a lone right-hand side's
    residual can keep halving far below rounding.  Returns the float64
    y, the correction steps and whether it converged within
    ``_REFINE_MAX`` steps.
    """
    lu, piv = factors
    getrs, = get_lapack_funcs(("getrs",), (lu,))
    rows, k = right.shape
    n = len(lu) - k

    def rhs(r):
        r[:, :n], r[:, n:] = left, right
        return r

    def correction(r):
        # row by row: OpenBLAS's sgetrs takes 2x longer on six right-hand
        # sides at once than on six single ones.  Each row is scaled to a
        # largest entry of 1, or a converging residual drives the float32
        # solve into subnormals and slows it 3x.
        for row in r:
            scale = np.abs(row).max()
            if scale > 0.0:
                scaled = (row / scale).astype(lu.dtype, copy=False)
                row[:] = scale * getrs(lu, piv, scaled, trans=trans, overwrite_b=True)[0]
        return r

    r = np.empty((rows, len(lu)))
    y = correction(rhs(r)).astype(np.float64) if y is None else y
    last = np.inf
    for step in range(_REFINE_MAX + 1):
        subtract_product(rhs(r), y)
        residual = np.abs(r).max(axis=1)
        bound = tol * np.abs(y).max(axis=1)
        if not np.all(residual < last / 2) or np.all(residual <= _EPS64 * bound):
            return y, step, bool(np.all(residual <= bound))
        last = residual
        if step < _REFINE_MAX:
            y += correction(r)
    return y, _REFINE_MAX, False


def _bordered_solve(system: DenseSystem, config: ProblemConfig, Z: np.ndarray, dtype):
    """The two bordered solves of ``solve_direct`` with LU factors in ``dtype``,
    one character class at a time.

    N is block-diagonal over the classes of ``system.Nmat``, whose blocks
    are read in place, and each column of ``Z`` (global, as
    ``rigid_trace_vectors`` gives it) is nonzero in one class only, once
    turned into the axis frame of ``Nmat`` where it has one.  The solve
    runs in that frame, and x is turned out of it.  Returns the
    gauge-fixed least-squares x, the consistency floor,
    the rcond of the block-diagonal bordered matrix and the most
    refinement steps of any class ``{"psi": .., "x": ..}``, or None when
    float32 factors are too ill-conditioned or a refinement does not
    converge.  Only one class's arrays are alive at a time, and every
    large array it makes is freed on return.
    """
    D, F, Nmat = system.D, system.F, system.Nmat
    frame = Nmat.frame
    if frame is not None:
        F, Z = frame.turn(F), frame.turn(Z)
    n, k = Z.shape
    rc = _radius_c(config, system.dofmap, system.mode)
    retry = dtype == np.float32
    top = np.abs(D - Nmat.diagonal()).max()
    x = np.empty(n)
    steps = {"psi": 0, "x": 0}
    # per class: rcond times |B_c|, |B_c| and |(D - N) Z| (infinity norms)
    # and the squared norm of the incompatible load
    scaled, norms, nulls, incompatible = [], [], [], 0.0
    for rows, N in zip(Nmat.classes, Nmat.blocks):
        d, f, z = D[rows], F[rows], Z[rows]
        z = z[:, z.any(axis=0)]
        m, kc = z.shape
        dz = d[:, None] * z
        # z has a few nonzero rows per sphere: N z reads only those columns.
        # Taken before B exists, so that its temporaries do not add to B.
        nonzero = np.flatnonzero(z.any(axis=1))
        nulls.append(np.abs(dz - N[:, nonzero] @ z[nonzero]).max(initial=0.0))
        B = _bordered_matrix(N, d, dz, dtype, top)
        # B.T is B's memory in Fortran order: its 1-norm is B's infinity norm,
        # its infinity norm B's 1-norm, and LAPACK factors it without a copy
        lange, = get_lapack_funcs(("lange",), (B,))
        norm_inf, norm_one = lange("1", B.T), lange("I", B.T)
        factors = lu_factor(B.T, overwrite_a=True, check_finite=False)
        del B
        gecon, = get_lapack_funcs(("gecon",), (factors[0],))
        rcond = float(gecon(factors[0], norm_inf, norm="1")[0])
        # the rcond of the whole B is at most the class's: refused as it would be
        if retry and not rcond >= _RCOND_F32:
            return None
        _check_rcond(rcond, k)
        scaled.append(rcond * norm_inf)
        norms.append(norm_inf)

        def subtract_product(N):
            # rows of r -= v^T [[D - N, D Z], [Z^T D, 0]]: B^T v with N and B v
            # with N^T, since the border is symmetric
            def subtract(r, y):
                # row by row, on contiguous vectors: numpy buffers elementwise
                # operations on the strided (rows, m) blocks
                for rj, yj, pj in zip(r, y, _product(y[:, :m], N)):
                    rj[:m] += pj
                    rj[:m] -= d * yj[:m]
                    rj[:m] -= dz @ yj[m:]
                    rj[m:] -= yj[:m] @ dz
            return subtract

        tol = _EPS64 * sqrt(m + kc)
        compatible = f
        if kc:
            # B^T [psi; nu] = [0; I] gives nu = 0 and (D - N)^T psi = 0; the
            # seed is scaled to Z^T D psi = I.  Row j of psi is column j.
            seed = _left_null_border(rc[rows], z)
            psi = np.zeros((kc, m + kc))
            psi[:, :m] = np.linalg.solve(seed.T @ dz, seed.T)
            del seed
            psi, psi_steps, converged = _refine(factors, 0, subtract_product(N), 0.0, np.eye(kc),
                                                psi, tol * norm_one)
            if retry and not converged:
                return None
            steps["psi"] = max(steps["psi"], psi_steps)
            # |part|^2 from psi's Gram matrix: the load's incompatible part
            # can be 1e-9 of it, and orthonormalising psi moves its largest
            # entries by an ulp, which moves that part by 1e-10 of itself
            psi = psi[:, :m]
            moments = psi @ f
            incompatible += float(moments @ np.linalg.solve(psi @ psi.T, moments))
            psi = _orthonormal_columns(psi.T)
            part = psi @ (psi.T @ f)
            compatible = f - part
            del psi
        xc, x_steps, converged = _refine(factors, 1, subtract_product(N.T), compatible,
                                         np.zeros((1, kc)), None, tol * norm_inf)
        if retry and not converged:
            return None
        steps["x"] = max(steps["x"], x_steps)
        x[rows] = xc[0, :m]
        del factors
    # the 1-norm rcond of the block-diagonal B.T and its (D - N) Z check
    rcond = min(scaled) / max(norms)
    if retry and not rcond >= _RCOND_F32:
        return None
    _check_rcond(rcond, k)
    null_resid = float(max(nulls) / max(norms))
    if null_resid > _NULL_TOL:
        raise SolverError(
            f"rigid traces are not null vectors of the operator "
            f"(|(D - N) Z| = {null_resid:.3e} of its norm)"
        )
    fnorm = np.linalg.norm(F)
    floor = float(sqrt(incompatible) / fnorm) if fnorm > 0 else 0.0
    _check_floor(floor, n, k)
    return (x if frame is None else frame.turn(x, back=True)), floor, rcond, steps


def _check_rcond(rcond: float, k: int) -> None:
    """Refuse a bordered matrix that is numerically singular."""
    if not rcond >= _RCOND_MIN:
        raise SolverError(
            f"bordered matrix is numerically singular (rcond {rcond:.3e}); the null "
            f"space of the operator is larger than the {k} rigid traces"
        )


def solve_direct(system: DenseSystem, config: ProblemConfig) -> Solution:
    """Bordered LU solve in the rigid-trace gauge, float32 factors refined in float64.

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

    Characters.  When every sphere centre lies on a common plane of
    symmetry, each flip about such a plane multiplies every unknown by a
    sign, and N couples only unknowns of one character
    (``_character_classes``); so does B, since each column of Z is of one
    character.  ``assemble`` holds N as one block per class
    (``ClassBlocks``), so B is block-diagonal up to a reordering, and
    each class's block [[A_c, D_c Z_c], [Z_c^T D_c, 0]] is built from its
    block of N in place, factored and solved on its own, one class at a
    time.  A collinear configuration is solved in the axis frame of its
    ``Nmat`` (module docstring), whose classes are also of one order |m|:
    F and Z are turned into it, where each column of Z, of degree 1, lies
    in one class, and the traces out of it.  The three-sphere case, on
    the x axis, has 2N + 2 classes, 42 of at most 180 unknowns at N=20,
    where the flips alone gave four of about 1 000.  The two classes of
    each odd |m| there hold blocks of N that are signed permutations of
    each other (the mirror x <-> y of the frame, module docstring), but F
    need not be symmetric under it: each is factored and solved on its
    own.  With no common
    plane, or for a system built from an arbitrary N by
    ``ClassBlocks.whole``, one class holds every unknown.
    The reported rcond is the 1-norm rcond of the block-diagonal B,
    min_c(rcond_c |B_c|) / max_c |B_c|, and the diagnostics list the
    class sizes (``characters``), the ``product`` ("dense") and the
    bytes of the class blocks of N (``held_block_bytes``, sum_c 8 m_c^2),
    as ``solve_iterative``'s name the memory its product holds.

    Precision.  Each class's B is built in float32 and factored by LAPACK
    ``sgetrf``; its transpose is Fortran-ordered, so no copy is made.
    The LU, the QR and the refinement's products all run on SciPy's
    OpenBLAS (the module docstring's one-library rule), so that a second
    BLAS thread speeds the solve up instead of contending with numpy's.
    Besides ``Nmat``, a class holds its float32 B.  While -N is
    rounded into B's rows, its entries below 2^-40 of the largest
    diagonal entry of the whole B are set to zero: the coupling of
    distant high-degree modes decays to values that would become float32
    subnormals, and those slow the factorisation from 0.3 s to 15 s at
    N=20 (2-core x86-64, OpenBLAS).  The change is far below float32
    rounding.  Both solves are refined: each step solves with the
    float32 factors for the residual, which is computed in float64 from
    the untouched entries of N, until the residual of some right-hand
    side no longer halves (as LAPACK's ``dgerfs``); the refinement has
    converged when every residual then meets LAPACK ``dsgesv``'s test
    |r|_inf <= |v|_inf |B_c|_inf eps sqrt(n_c + k_c).  dsgesv's test alone
    stops one step early: at N=8 it leaves the consistency floor off by
    1.6e-6 of itself.  psi starts from the orthonormalised column border
    r C Z of ``solve_iterative``, scaled to Z^T D psi = I, and x from the
    factors' own solve.

    Retry.  When the float32 factors' rcond is below 2^-20, or a
    refinement does not converge within 30 steps, the float32 arrays are
    freed and the same code runs with float64 factors, built without the
    flush; the memory guard (``solver_bytes``) charges a float64 B of
    all unknowns.  On either path an rcond below 1e-13 is refused as a
    null space beyond the rigid traces, (D - N) Z must vanish to 1e-12 of
    |B|, and a consistency floor above 1e-3 is refused.  The diagnostics
    name the ``factorisation`` ("float32" or "float64") and the
    ``refinement_steps`` {"psi": .., "x": ..}, the most of any class.
    """
    Z = rigid_trace_vectors(config, system.dofmap, system.mode)
    for dtype in (np.float32, np.float64):
        solved = _bordered_solve(system, config, Z, dtype)
        if solved is not None:
            break
    x, floor, rcond, steps = solved
    D, F, Nmat = system.D, system.F, system.Nmat
    n, k = Z.shape
    fnorm = np.linalg.norm(F)
    resid = float(np.linalg.norm(D * x - Nmat @ x - F) / fnorm) if fnorm > 0 else 0.0
    return Solution(
        lambda_=x, residual=resid, iterations=None,
        dofmap=system.dofmap, sigma=system.sigma, mode=system.mode,
        diagnostics={"solver_path": "bordered_lu", "rank": n - k, "null_dim": k,
                     "rcond": rcond, "consistency_floor": floor,
                     "factorisation": np.dtype(dtype).name, "refinement_steps": steps,
                     "characters": [len(rows) for rows in Nmat.classes],
                     "product": system.product, "held_block_bytes": system.held_block_bytes},
    )


def solve_iterative(
    system: DenseSystem | CouplingOperator,
    config: ProblemConfig,
    tol: float = 1e-6,
    max_iter: int = 1000,
    restart: int = 50,
) -> Solution:
    """Restarted GMRES on a nonsingular bordered system, row-scaled by 1/D.

    With Z the orthonormal rigid-trace basis (k = 3 or 6 columns) and
    A = D - N, GMRES solves

        [[D^-1 A, D^-1 U], [Z^T D, 0]] [x; mu] = [D^-1 F; 0]

    with relative-residual stopping.  The column border U = r C Z
    (radius and C per sphere and mode) approximates the left null space
    of A: the off-diagonal blocks of N sample the symmetric Galerkin
    single-layer form G as N = r^-2 G r^-1 C, so A Z = 0 gives
    G r^-1 C Z = r^2 D Z and A^T (r C Z) = r C D Z - C r^-1 G r^-1 C Z = 0,
    up to the quadrature asymmetry of G.  U mu thus takes up the part of
    the load outside the range of A, and |U mu| / |F| is the consistency
    floor; x solves A x = F - U mu.  It differs from ``solve_direct``'s x,
    which takes the orthogonal projection, by about the border's angle to
    the exact left null space times the floor: 7.8e-9 of |x| on the
    three-sphere case at N=3 (angle 3.6e-4, floor 3.7e-5).  The
    constraint row holds only to the GMRES tolerance, so x is
    gauge-projected at the end.

    ``system`` is a ``DenseSystem`` (the product is ``Nmat @ x``) or a
    ``CouplingOperator`` (matrix-free); the operator is applied as
    ``D*x - system.coupling(x)`` and no n x n copy of it is made.  The
    diagnostics name the product and the bytes it holds, count the
    products GMRES made (``products``; the residual check of the returned
    x adds one more) and carry the ``pr_norm`` residual history, one value
    per iteration.  A ``CouplingOperator`` also reports its
    ``held_blocks`` and the ordered ``pairs`` they couple.
    """
    D, F = system.D, system.F
    n = D.size
    Z = rigid_trace_vectors(config, system.dofmap, system.mode)
    k = Z.shape[1]
    DZ = D[:, None] * Z
    # scaled to the columns of the row border D Z
    U = _left_null_border(_radius_c(config, system.dofmap, system.mode), Z)
    U *= np.sqrt((DZ * DZ).sum(axis=0))
    products = 0

    def apply(v):
        nonlocal products
        products += 1
        x = v[:n]
        return np.concatenate([(D * x - system.coupling(x) + U @ v[n:]) / D, DZ.T @ x])

    history: list[float] = []
    rhs = np.concatenate([F / D, np.zeros(k)])
    v, info = gmres(
        LinearOperator((n + k, n + k), matvec=apply, dtype=float), rhs,
        rtol=tol, atol=0.0, restart=restart, maxiter=max_iter,
        callback=history.append, callback_type="pr_norm",
    )
    if info < 0:
        raise SolverError("GMRES received an illegal input or breakdown")
    if info > 0:
        # each restart cycle makes one product beyond its inner iterations
        # (the true residual of its update); unconverged, SciPy leaves its
        # restart loop early only on a breakdown
        cycles = products - len(history)
        reason = ("the Krylov space stopped growing (breakdown)" if cycles < max_iter
                  else f"all {max_iter} restart cycles ran")
        achieved = np.linalg.norm(rhs - apply(v)) / np.linalg.norm(rhs)
        raise SolverError(
            f"GMRES did not reach tol={tol} within {len(history)} iterations: {reason}; "
            f"the returned iterate's true relative residual is {achieved:.3e}"
        )
    fnorm = sqrt(F.dot(F))
    border = U @ v[n:]
    floor = sqrt(border.dot(border)) / fnorm if fnorm > 0 else 0.0
    _check_floor(floor, n, k)
    x = _gauge_project(v[:n], Z, D)
    r = D * x - system.coupling(x) - F
    resid = sqrt(r.dot(r)) / fnorm if fnorm > 0 else 0.0
    diagnostics = {"solver_path": "gmres", "product": system.product,
                   "held_block_bytes": system.held_block_bytes,
                   "rank": n - k, "null_dim": k, "consistency_floor": floor,
                   "products": products, "residual_history": history}
    if isinstance(system, CouplingOperator):
        diagnostics |= {"held_blocks": len(system.blocks), "pairs": system.pairs}
    return Solution(
        lambda_=x, residual=resid, iterations=len(history),
        dofmap=system.dofmap, sigma=system.sigma, mode=system.mode, diagnostics=diagnostics,
    )


def solve(system: DenseSystem | CouplingOperator, config: ProblemConfig) -> Solution:
    """Dispatch on the configured solver options; the direct solver needs a
    ``DenseSystem``."""
    opts = config.solver
    if opts.method == "direct":
        return solve_direct(system, config)
    return solve_iterative(
        system, config, tol=opts.tol, max_iter=opts.max_iter, restart=opts.restart,
    )

