"""Matrix products on SciPy's BLAS.

numpy's and SciPy's wheels each ship their own OpenBLAS, each with its
own thread pool, and SciPy's does the direct solver's LU.  The dense
products of the direct path that OpenBLAS can thread run on that same
library through ``product``, so that only one pool works, and spins,
in a solve: see the ``system`` module docstring.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm, dgemv


def _fortran(x: np.ndarray) -> tuple[np.ndarray, int]:
    """A Fortran-ordered f and a BLAS ``trans`` flag t with op_t(f) = x:
    the transpose of x when x is C-ordered, x itself when it is
    Fortran-ordered, else the transpose of a C-ordered copy."""
    if x.flags.c_contiguous:
        return x.T, 1
    if x.flags.f_contiguous:
        return x, 0
    return np.ascontiguousarray(x).T, 1


def product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` for float64 a (m, k) or (k,) and b (k, n) or (k,), not both
    vectors, by SciPy's BLAS: C-ordered, and written into ``out``, a
    C-ordered float64 array of its shape, when it is given.  BLAS reads
    no entry of ``out`` (beta = 0).

    A matrix times a vector is ``dgemv``; a matrix product is ``dgemm`` of
    b^T a^T, whose Fortran order is a b's C order.  Each operand goes in
    as it lies, with a ``trans`` flag (``_fortran``), so that a C- or
    F-ordered one is not copied; any other layout is copied once.  The
    arguments are passed by position: f2py parses keywords slowly, and a
    product with a small class block took 0.9 us with them against 0.5
    us without (numpy's takes 0.4 us; 2-core x86-64 host).
    """
    if out is not None and not (out.flags.c_contiguous and out.dtype == np.float64):
        # SciPy would write the product into a copy of it
        raise ValueError("product needs a C-ordered float64 out")
    # dgemv(alpha, a, x, beta, y, offx, incx, offy, incy, trans, overwrite_y)
    # and dgemm(alpha, a, b, beta, c, trans_a, trans_b, overwrite_c)
    if b.ndim == 1:
        f, t = _fortran(a)
        y = dgemv(1.0, f, b, 0.0, out, 0, 1, 0, 1, t, 1)
    elif a.ndim == 1:
        f, t = _fortran(b)
        y = dgemv(1.0, f, a, 0.0, out, 0, 1, 0, 1, 1 - t, 1)
    elif len(a) == 1:
        # one row: dgemv, as numpy's matmul does; dgemm took twice as long
        # on the refinement's (1, 1023) x (1023, 1023), one thread of a
        # 2-core x86-64 host
        y = product(a[0], b, None if out is None else out[0])[None]
    else:
        (bt, tb), (at, ta) = _fortran(b.T), _fortran(a.T)
        y = dgemm(1.0, bt, at, 0.0, None if out is None else out.T, tb, ta, 1).T
    return y if out is None else out
