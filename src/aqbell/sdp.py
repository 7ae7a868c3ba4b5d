"""Dense standard-form semidefinite programming.

Solves  min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  (block-diagonal symmetric
X) with an infeasible-start primal-dual path-following method: Mehrotra
predictor-corrector steps in the HKM scaling direction, a dense Cholesky of
the Schur complement, and fraction-to-boundary step control.  The dual pair
is  max b.y  s.t.  S = C - sum_i y_i A_i >= 0.

A solve starts at X = tau_p I, S = tau_d I, y = 0, or, when the caller
knows a strictly dual-feasible y_0, at y_0, S_0 = C - sum_i y_0,i A_i and
X_0 = tau_p S_0^{-1}.  That start is on the central path (X_0 S_0 = tau_p I)
with no dual residual, so only primal feasibility and the gap are left to
close; S_0 is taken from the problem's own data, and a y_0 whose S_0 does
not factor is refused.

The iterates X, S and S^{-1} are kept per block, never as one joint matrix
(Borchers, CSDP, Optim. Methods Softw. 11, 1999).  Blocks of equal size form
a group, stored as one (k, n_b, n_b) stack, so that products broadcast over
the group.  Each iterate is factored once: backtracking inverts the
Cholesky factor L of every block of the X and S it accepts, so that
S^{-1} = L_s^{-T} L_s^{-1}, and each of the iteration's four step lengths
is one product L^{-1} D L^{-T} per group and its smallest eigenvalue per
block, the step rule of CSDP and SDPT3 (Toh, Todd & Tutuncu, Optim.
Methods Softw. 11, 1999).  A step length is the minimum
over the blocks, and a backtracked step is accepted only when every block
factors.  Residuals, mu and the infeasibility rays are sums or extrema over
the groups.

The constraints arrive as sparse (row, cell, value) triplets per block, and
no solve densifies them.  They form an :class:`SdpOperator`, built once
and shared by every problem that poses the same constraints, which supplies
only its objective C and right-hand side b (:class:`SdpProblem`).  The
operator checks its triplets once and reads each group's blocks' triplets
into one sparse operator, kept as plain read-only arrays with no scipy
matrix object: one array of nonzeros, indexed by a CSR row pointer and
column indices with one row per constraint over the vectorized cells of the
group's blocks.  The same arrays are the CSC form of A^T, so A
and its adjoint each cost one O(nnz) pass of scipy's CSR or CSC matvec
kernel, the kernels behind ``op @ v`` and ``op.T @ v``.  The Schur
complement M_ij = sum_l <A_i^l, X_l A_j^l S_l^{-1}> is summed over the
groups (Fujisawa, Kojima & Nakata, Math. Program. 79, 1997).  Within a
group, a second row pointer over the same nonzeros views the operator as
rows (j, l, r) over columns (l, c); its slice for a chunk of constraints j
forms A_j^l S_l^{-1} in one sparse product, one broadcast product applies X,
and the operator contracts the result while it is still in cache.  Every
chunk's products are written into a workspace that each solve allocates
once per group, so the shared operator holds no mutable state; arrays of
chunk size allocated per iteration would be handed back to the OS and
faulted in again, which costs small solves more than their arithmetic.
The public products take no output argument, so the solver calls scipy's
sparse kernels (``csr_matvecs``, ``csr_matvec`` and ``csc_matvec`` from
``scipy.sparse._sparsetools``) and its LAPACK without their validating
wrappers, with the same bits (pinned by tests): ``dpotrf`` factors the
iterates and the Schur complement, ``dtrtri`` inverts the iterates'
factors, ``dpotrs`` solves with the Schur factor, and ``dsyevr`` computes
only the smallest eigenvalue of each step matrix.  The seven kernels live
in two compiled modules, ``scipy.sparse._sparsetools`` and
``scipy.linalg._flapack``, that need only numpy; :func:`_scipy_extension`
loads each from its file.  Importing them through their packages would run
scipy's array-API layer, which reads every public attribute of numpy and so
loads ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``: about 0.3 s of
every start, more than numpy, the two modules and aqbell itself take
together.  The kernels are the packages' own objects either way.  A
non-finite iterate is caught by the residual check, and a non-finite search
direction by its step length (LAPACK reports it); either ends the solve as
``numerical_trouble``, so numpy's overflow warnings are off inside it.

At the sizes this package solves (blocks of a few dozen rows), an
iteration costs as much in interpreter overhead as in arithmetic, so the
loop body does the arithmetic of the step and the checks that guard it and
nothing else.  The predictor and the corrector share one Newton solve,
``_newton``, defined at module level; step lengths, finiteness tests and
residual norms are Python floats; sums over the groups start from the first
group's term; and a backtracking candidate and a symmetrization each make
one temporary.  Each keeps every floating-point operation's operands and
order: they are choices of speed, and the iterates do not depend on them.
"""
from __future__ import annotations

import importlib
import math
import os
import sys
from dataclasses import dataclass, field
from enum import Enum
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import numpy as np
import scipy

from .errors import SizeGuardError


def _scipy_extension(name: str):
    """scipy's compiled module ``scipy.<name>`` (``name`` such as
    ``"linalg._flapack"``), loaded from its file under ``scipy.__path__``
    without running its package's ``__init__``, and registered under its full
    name, so that a later import of the package finds this same module (as
    ``from scipy.linalg import _flapack`` does; the package does not bind it
    as its attribute).  A module already imported is returned as it is, and
    one whose file is not found is imported the ordinary way."""
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    package, _, leaf = name.rpartition(".")
    for root in scipy.__path__:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, package, leaf + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(full, path)
                module = module_from_spec(spec_from_loader(full, loader))
                sys.modules[full] = module
                loader.exec_module(module)
                return module
    return importlib.import_module(full)


_flapack = _scipy_extension("linalg._flapack")
_sparsetools = _scipy_extension("sparse._sparsetools")
dpotrf, dpotrs, dsyevr, dtrtri = _flapack.dpotrf, _flapack.dpotrs, _flapack.dsyevr, _flapack.dtrtri
csc_matvec, csr_matvec, csr_matvecs = _sparsetools.csc_matvec, _sparsetools.csr_matvec, _sparsetools.csr_matvecs


class SdpStatus(str, Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    NUMERICAL_TROUBLE = "numerical_trouble"


STEP_FRACTION = 0.98  # fraction-to-boundary step control
RAY_THRESHOLD = 1e8  # iterate norm, relative to the start, that signals an infeasibility ray
SCHUR_CHUNK_BYTES = 1 << 19  # X A S^{-1} products assembled at once, per group
MAX_ITERS = 200  # iterations before an unconverged solve ends as numerical_trouble
DIM_GUARD = 512  # largest total dimension solve accepts
GAP_TOL = 1e-8  # default relative duality gap of an optimal solve
FEAS_TOL = 1e-9  # relative primal and dual residuals of an optimal solve


@dataclass(frozen=True, eq=False)
class SdpOperator:
    """The m equality constraints over block-diagonal symmetric X, built
    once and shared by every :class:`SdpProblem` that poses them.

    ``a_triplets[l]`` holds every constraint's block-l component as
    ``(rows, cells, values)``: constraint ``rows[t]`` has ``values[t]`` at
    cell ``cells[t]`` = r * n_l + c.  They are kept sorted by row and then
    cell, with repeats summed and exact zeros dropped, and must be symmetric
    (an entry without a mirror compares against 0).  1x1 blocks act as
    nonnegative scalar variables.  ``groups`` holds the solver's form of the
    same constraints, one :class:`_Group` per block size, and ``row_norms``
    the Frobenius norm of each constraint.  Every array is read-only.
    """

    block_dims: tuple
    a_triplets: tuple
    m: int
    groups: tuple = field(init=False, repr=False)
    row_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError("block dimensions must be positive")
        m = int(self.m)
        if m < 1:
            raise ValueError("at least one constraint is required")
        total = sum(dims)
        if m > total * total:
            raise ValueError("more constraints than matrix entries")
        triplets = tuple(
            _canonical_triplets(n_l, m, *triplet) for n_l, triplet in zip(dims, self.a_triplets, strict=True)
        )
        groups = _block_groups(dims, triplets, m)
        a_sq = [np.zeros(m) for _ in groups]
        for g, sq in zip(groups, a_sq):  # each row summed as scipy's own CSR row sums are
            nonempty = np.flatnonzero(np.diff(g.indptr))
            sq[nonempty] = np.add.reduceat(g.data * g.data, g.indptr[nonempty])
        row_norms = np.sqrt(sum(a_sq))
        row_norms.flags.writeable = False
        fields = {"block_dims": dims, "a_triplets": triplets, "m": m, "groups": groups, "row_norms": row_norms}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def nbytes(self) -> int:
        """Bytes of the operator's arrays: its triplets and its groups."""
        arrays = [a for triplet in self.a_triplets for a in triplet] + [self.row_norms]
        for g in self.groups:
            arrays += [g.indptr, g.indices, g.data, g.row_ptr, g.row_cols]
        return sum(a.nbytes for a in arrays)

    @property
    def a_stacks(self) -> tuple:
        """Read-only dense (m, n_l, n_l) constraint stacks, made on each
        access; no solve reads them."""
        stacks = tuple(np.zeros((self.m, n_l, n_l)) for n_l in self.block_dims)
        for stack, (rows, cells, values) in zip(stacks, self.a_triplets):
            stack.reshape(self.m, -1)[rows, cells] = values
            stack.flags.writeable = False
        return stacks


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Objective and right-hand side of one solve over an :class:`SdpOperator`:
    min sum_l <c_blocks[l], X_l> s.t. <A_i, X> = b_i.  The block sizes,
    constraint triplets and their dense view ``a_stacks`` are the
    operator's."""

    operator: SdpOperator
    c_blocks: tuple
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1:
            raise ValueError("b must be a vector")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        if b.size != self.operator.m:
            raise ValueError("b must have one entry per constraint of the operator")
        cs = []
        for n_l, c in zip(self.operator.block_dims, self.c_blocks, strict=True):
            c = np.asarray(c, dtype=float)
            if c.shape != (n_l, n_l) or not np.all(np.isfinite(c)):
                raise ValueError("objective blocks must be finite and match block_dims")
            if np.abs(c - c.T).max(initial=0.0) > 1e-12:
                raise ValueError("objective blocks must be symmetric")
            cs.append(c)
        object.__setattr__(self, "c_blocks", tuple(cs))
        object.__setattr__(self, "b", b)

    @property
    def block_dims(self) -> tuple:
        return self.operator.block_dims

    @property
    def a_triplets(self) -> tuple:
        return self.operator.a_triplets

    @property
    def a_stacks(self) -> tuple:
        return self.operator.a_stacks

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def num_constraints(self) -> int:
        return self.b.size


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _canonical_triplets(n: int, m: int, rows, cells, values) -> tuple:
    """An n x n block's constraint triplets in the form SdpOperator keeps,
    read-only; ValueError unless they are in range, finite and symmetric."""
    rows, cells = (np.asarray(v).astype(np.int64, casting="same_kind") for v in (rows, cells))
    values = np.asarray(values, dtype=float)
    if not (rows.ndim == cells.ndim == values.ndim == 1 and rows.size == cells.size == values.size):
        raise ValueError("constraint triplets must be three vectors of equal length")
    if np.any((rows < 0) | (rows >= m) | (cells < 0) | (cells >= n * n)):
        raise ValueError("constraint triplets outside the problem")
    if not np.all(np.isfinite(values)):
        raise ValueError("constraint values must be finite")
    rows, cells, sums = _sparse(rows, cells, values, n * n)
    keys = rows * (n * n) + cells
    # each entry against its mirror (r, c) -> (c, r), or 0 where there is none
    mirror = rows * (n * n) + cells % n * n + cells // n
    at = np.searchsorted(keys, mirror).clip(max=max(keys.size - 1, 0))
    if np.abs(sums - np.where(keys[at] == mirror, sums[at], 0.0)).max(initial=0.0) > 1e-12:
        raise ValueError("constraint blocks must be symmetric")
    return rows, cells, sums


def _sparse(rows, cols, values, width: int) -> tuple:
    """Read-only ``(rows, cols, values)`` of a sparse matrix with ``width``
    columns, sorted by row and then column, repeats summed in input order and
    zeros dropped."""
    keys, at = np.unique(rows * width + cols, return_inverse=True)
    sums = np.bincount(at, weights=values, minlength=len(keys))
    nonzero = sums != 0.0
    return _read_only(*np.divmod(keys[nonzero], width), sums[nonzero])


@dataclass(frozen=True)
class Residuals:
    primal: float
    dual: float
    gap: float


@dataclass
class SdpSolution:
    status: SdpStatus
    x_blocks: list
    y: np.ndarray
    s_blocks: list
    primal_objective: float
    dual_objective: float
    residuals: Residuals
    iterations: int
    trace: list
    message: str = ""


@dataclass(frozen=True, eq=False)
class _Group:
    """The k blocks of one size n_b, and the constraints restricted to them.

    ``data`` holds the nonzeros of the operator, of ``shape`` (m, k*n_b*n_b):
    row i holds A_i^l for every block l of the group, vectorized row-major.
    ``indptr`` and ``indices`` index them as its CSR form, which is also the
    CSC form of its transpose, for the adjoint.  ``row_ptr`` and
    ``row_cols`` index them as the CSR form of the operator viewed as
    (m*k*n_b, k*n_b): row (i, l, r) is row r of A_i^l in block l's columns,
    so that these rows times the stacked S_l^{-1} give every A_i^l S_l^{-1}.
    The arrays are read-only and shared by every solve over the operator;
    a solve's mutable state is the workspace it passes to ``schur``."""

    blocks: tuple
    size: int
    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray

    @property
    def per_chunk(self) -> int:
        """Constraints per chunk of the Schur assembly, at the current
        ``SCHUR_CHUNK_BYTES``."""
        m, cells = self.shape
        return min(m, max(1, SCHUR_CHUNK_BYTES // (8 * cells)))

    def workspace(self) -> np.ndarray:
        """A Schur workspace for one solve: two rows, each the size of a
        chunk's largest product at ``per_chunk`` constraints per chunk."""
        m, cells = self.shape
        return np.empty((2, self.per_chunk * max(cells, m)))

    def apply(self, z: np.ndarray) -> np.ndarray:
        """(<A_i, Z>)_i over the group's blocks, for Z given as its stack."""
        return _matvec(csr_matvec, self.shape, self, z.ravel())

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """sum_i v_i A_i on the group's blocks, as a stack."""
        return _matvec(csc_matvec, self.shape[::-1], self, v).reshape(-1, self.size, self.size)

    def schur(self, x: np.ndarray, s_inv: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The group's term of the Schur complement: column j holds
        sum_l <A_i^l, X_l A_j^l S_l^{-1}> for every i, assembled a chunk of
        constraints j at a time, as many as ``work`` (from :meth:`workspace`)
        was sized for.  Every chunk-size product is written into ``work``:
        A S^{-1} into its first row, X A S^{-1} into its second, then the
        C-order transpose that the contraction reads into the first and the
        contraction itself into the second."""
        m, cells = self.shape
        k_n = cells // self.size
        per_chunk = work.shape[1] // max(cells, m)
        s_stack = s_inv.reshape(-1, self.size)
        a_s, x_a_s = work
        out = np.empty((m, m))
        for start in range(0, m, per_chunk):
            # the chunk's rows: a slice of row_ptr, whose offsets stay absolute
            rows = self.row_ptr[start * k_n : (start + per_chunk) * k_n + 1]
            width = (rows.size - 1) // k_n
            u = _csr_times_dense(rows, self.row_cols, self.data, k_n, s_stack, a_s)
            t = np.matmul(x, u.reshape(width, *x.shape), out=x_a_s[: u.size].reshape(width, *x.shape))
            t_c = a_s[: t.size].reshape(cells, width)
            t_c[...] = t.reshape(width, cells).T
            out[:, start : start + width] = _csr_times_dense(self.indptr, self.indices, self.data, cells, t_c, x_a_s)
        return out


def _csr_times_dense(indptr, indices, data, cols: int, z: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The CSR matrix (indptr, indices, data) with ``cols`` columns times a
    C-order 2-D z, written into a zeroed head of ``buf``.  The kernel reads
    row r from indptr[r] to indptr[r+1] of indices and data, so indptr may
    be a slice of a longer pointer."""
    rows = indptr.size - 1
    # the kernel trusts its sizes: check them before it reads or writes
    if z.shape[0] != cols or not z.dtype == data.dtype == buf.dtype:
        raise ValueError("operand does not match the sparse operator")
    out = buf[: rows * z.shape[1]].reshape(rows, z.shape[1])
    out.fill(0.0)
    csr_matvecs(rows, cols, z.shape[1], indptr, indices, data, z.ravel(), out.ravel())
    return out


def _matvec(kernel, shape: tuple, g: _Group, v: np.ndarray) -> np.ndarray:
    """A group's operator (``csr_matvec``) or its transpose (``csc_matvec``,
    on the same arrays), of the given shape, times a 1-D v."""
    rows, cols = shape
    # the kernel trusts its sizes: check them before it reads
    if v.shape != (cols,) or v.dtype != g.data.dtype:
        raise ValueError("operand does not match the sparse operator")
    out = np.zeros(rows)
    kernel(rows, cols, g.indptr, g.indices, g.data, v, out)
    return out


def _block_groups(block_dims: tuple, a_triplets: tuple, m: int) -> tuple:
    """Group the blocks by size, in order of first appearance."""
    by_size: dict = {}
    for l, n_l in enumerate(block_dims):
        by_size.setdefault(n_l, []).append(l)
    groups = []
    for nb, blocks in by_size.items():
        k = len(blocks)
        parts = [(i, p * nb * nb + cell, v) for p, (i, cell, v) in enumerate(a_triplets[l] for l in blocks)]
        rows, cols, vals = (np.concatenate(v) for v in zip(*parts))
        order = np.argsort(rows, kind="stable")  # row-major: by constraint, then block, then cell
        rows, cols, vals = rows[order], cols[order], vals[order]
        # the same nonzeros at rows (i, l, r), columns (l, c): still row-major
        block, r, c = cols // (nb * nb), cols // nb % nb, cols % nb
        # CSR row pointers: where each row's run of sorted row indices starts
        row_ptr = np.searchsorted((rows * k + block) * nb + r, np.arange(m * k * nb + 1))
        indptr, row_cols = np.searchsorted(rows, np.arange(m + 1)), block * nb + c
        arrays = _read_only(indptr, cols, vals, row_ptr, row_cols)
        groups.append(_Group(tuple(blocks), nb, (m, k * nb * nb), *arrays))
    return tuple(groups)


def _sym(z: np.ndarray) -> np.ndarray:
    out = z + z.transpose(0, 2, 1)
    out *= 0.5
    return out


def _inner(us, vs) -> float:
    """<U, V> summed over the groups' stacks, from the first group's term."""
    total = float(np.vdot(us[0], vs[0]))
    for i in range(1, len(us)):
        total += float(np.vdot(us[i], vs[i]))
    return total


def _apply(groups, mats) -> np.ndarray:
    """(<A_i, X>)_i for X given as per-group stacks, summed from the first
    group's term."""
    out = groups[0].apply(mats[0])
    for i in range(1, len(groups)):
        out += groups[i].apply(mats[i])
    return out


def _residuals(groups, c, b, norm_b: float, norm_c: float, x, y, s):
    """The dual residual matrices, both objectives and the relative
    primal, dual and gap residuals of an iterate, for the per-group objective
    stacks ``c``, right-hand side ``b`` and their norms."""
    rp = b - _apply(groups, x)
    rd = []
    for g, cg, sg in zip(groups, c, s):
        rd.append(cg - sg - g.adjoint(y))
    pobj = _inner(c, x)
    dobj = float(b @ y)
    primal = math.sqrt(float(rp @ rp)) / (1.0 + norm_b)
    dual = math.sqrt(_inner(rd, rd)) / (1.0 + norm_c)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return rd, pobj, dobj, primal, dual, gap


def _cholesky(mat: np.ndarray):
    """Lower Cholesky factor of a C-order symmetric matrix, read from its
    lower triangle (the upper one of the Fortran-order mat.T), by LAPACK
    directly; None when the matrix is not numerically positive definite."""
    upper, info = dpotrf(mat.T, lower=0)
    return upper.T if info == 0 else None


def _inverse_factors(stacks):
    """L^{-1} for the Cholesky factor L of every block of per-group stacks,
    or None when a block does not factor.  L.T is the Fortran-order upper
    factor, whose inverse L^{-T} dtrtri returns; a factor of a positive
    definite block has no zero pivot for it to report."""
    inverses = []
    for stack in stacks:
        out = np.empty(stack.shape)
        for z, h in zip(stack, out):
            chol = _cholesky(z)
            if chol is None:
                return None
            h[...] = dtrtri(chol.T, lower=0, overwrite_c=1)[0].T
        inverses.append(out)
    return inverses


def _lambda_min(stacks) -> float:
    """Smallest eigenvalue over per-group stacks of symmetric blocks, each
    read from its lower triangle, and nothing else of their spectra.  NaN
    when a block is not finite: dsyevr then reports info 4 (and returns
    0.0), except for a 1x1 block, whose eigenvalue is the entry itself."""
    lam = math.inf
    for stack in stacks:
        for w in stack:
            eig, _, _, _, info = dsyevr(w, compute_v=0, range="I", il=1, iu=1, lower=1)
            low = eig.item(0)
            if info != 0 or not math.isfinite(low):
                return math.nan
            lam = min(lam, low)
    return lam


def _step_length(inverses, directions) -> float:
    """Largest alpha with P + alpha*D >= 0 in every block, given the inverse
    Cholesky factors L^{-1} of P's blocks (both as per-group stacks): -1 over
    the smallest eigenvalue of L^{-1} D L^{-T}, inf when that is not
    negative, and NaN when a direction is not finite."""
    products = []
    for h, d in zip(inverses, directions):
        products.append(h @ d @ h.transpose(0, 2, 1))
    lam = _lambda_min(products)
    # NaN compares false and passes through
    return math.inf if lam >= -1e-14 else -1.0 / lam


def _step_lengths(inv_x, inv_s, dx, ds):
    """Fraction-to-boundary steps (alpha_p, alpha_d) for X and S, or None
    for a non-finite direction (which min(1.0, nan) would turn into a full
    step)."""
    alpha_p = _step_length(inv_x, dx)
    alpha_d = _step_length(inv_s, ds)
    if math.isnan(alpha_p) or math.isnan(alpha_d):
        return None
    return min(1.0, STEP_FRACTION * alpha_p), min(1.0, STEP_FRACTION * alpha_d)


def _backtrack_psd(mats, directions, alpha: float):
    """Shrink one step shared by every block until each block of the iterate
    is Cholesky-positive; returns (new_stacks, their_inverse_factors,
    alpha_used) or None."""
    for _ in range(40):
        candidate = []
        for z, d in zip(mats, directions):
            step = alpha * d
            step += z
            candidate.append(_sym(step))
        inverses = _inverse_factors(candidate)
        if inverses is not None:
            return candidate, inverses, alpha
        alpha *= 0.5
        if alpha < 1e-16:
            break
    return None


def _newton(groups, chol_m, b, rd, x, s_inv, x_rd_sinv, corr, sigma_mu: float):
    """The HKM Newton direction (dy, dx, ds), from the lower Cholesky factor
    of the Schur complement.  The predictor passes ``corr`` None and
    ``sigma_mu`` 0.0; the corrector passes the second-order term
    dX_aff dS_aff per group and the centring target sigma * mu."""
    if corr is None:
        rhs_mats = x_rd_sinv
    else:
        rhs_mats = []
        for a, cg, sg in zip(x_rd_sinv, corr, s_inv):
            rhs_mats.append(a + cg @ sg)
    rhs = b + _apply(groups, rhs_mats)
    if sigma_mu != 0.0:
        rhs -= sigma_mu * _apply(groups, s_inv)
    dy = dpotrs(chol_m.T, rhs, lower=0)[0]  # chol_m.T: the Fortran-order upper factor
    ds, x_ds = [], []
    for g, rg, xg in zip(groups, rd, x):
        dsg = rg - g.adjoint(dy)
        ds.append(dsg)
        x_ds.append(xg @ dsg)
    if corr is not None:
        for p, cg in zip(x_ds, corr):
            p += cg
    dx = []
    for xg, p, sg in zip(x, x_ds, s_inv):
        d = -xg - p @ sg
        if sigma_mu != 0.0:
            d += sigma_mu * sg
        dx.append(_sym(d))
    return dy, dx, ds


def _chol_with_jitter(mat: np.ndarray):
    chol = _cholesky(mat)
    if chol is not None:
        return chol
    scale = max(np.trace(mat) / mat.shape[0], 1.0)
    for attempt in range(3):
        chol = _cholesky(mat + scale * 10.0 ** (-14 + 2 * attempt) * np.eye(mat.shape[0]))
        if chol is not None:
            break
    return chol


@np.errstate(over="ignore", invalid="ignore")
def solve(problem: SdpProblem, gap_tol: float = GAP_TOL, y_start: np.ndarray | None = None) -> SdpSolution:
    """Solve ``problem`` from the default start X = tau_p I, S = tau_d I,
    y = 0, or, given a strictly dual-feasible ``y_start``, from
    y = y_start, S = C - sum_i y_i A_i and X = tau_p S^{-1}: a point of the
    central path (X S = tau_p I) at which only the primal residual is left.
    It is optimal at relative duality gap ``gap_tol`` and relative primal
    and dual residuals ``FEAS_TOL``.  ValueError unless ``gap_tol`` is
    finite and > 0, and when ``y_start`` is not a finite m-vector or a
    block of that S (or X) is not Cholesky-positive.
    The objectives and residuals reported are those of the returned
    iterate: the last one the loop evaluated, or, when a stall or an
    improving ray replaced it, an evaluation of the replacement."""
    if not (math.isfinite(gap_tol) and gap_tol > 0.0):
        raise ValueError(f"gap_tol must be finite and > 0, got {gap_tol}")
    n = problem.total_dim
    if n > DIM_GUARD:
        raise SizeGuardError(f"total dimension {n} exceeds guard {DIM_GUARD}")
    m = problem.num_constraints
    groups = problem.operator.groups
    c = [np.stack([problem.c_blocks[l] for l in g.blocks]) for g in groups]
    b = problem.b.copy()
    works = [g.workspace() for g in groups]

    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.sqrt(_inner(c, c)))
    a_norms = problem.operator.row_norms
    tau_p = max(1.0, np.sqrt(n), n * float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms))))
    tau_d = max(1.0, np.sqrt(n), norm_c, float(a_norms.max()))
    init_scale = max(tau_p, tau_d)

    if y_start is None:
        eyes = [np.eye(g.size) for g in groups]
        x = [tau_p * np.broadcast_to(e, (len(g.blocks),) + e.shape) for g, e in zip(groups, eyes)]
        s = [tau_d * np.broadcast_to(e, (len(g.blocks),) + e.shape) for g, e in zip(groups, eyes)]
        y = np.zeros(m)
        inv_x, inv_s = _inverse_factors(x), _inverse_factors(s)
    else:
        y = np.array(y_start, dtype=float)
        if y.shape != (m,) or not np.all(np.isfinite(y)):
            raise ValueError("y_start must be a finite vector with one entry per constraint")
        s = [_sym(cg - g.adjoint(y)) for g, cg in zip(groups, c)]
        inv_s = _inverse_factors(s)
        # X = tau_p S^{-1} = tau_p L_s^{-T} L_s^{-1}, so that X S = tau_p I
        x = None if inv_s is None else [_sym(tau_p * (h.transpose(0, 2, 1) @ h)) for h in inv_s]
        inv_x = None if x is None else _inverse_factors(x)
        if inv_x is None:
            raise ValueError("y_start is not strictly dual feasible: C - A^T y_start does not factor")

    trace: list = []
    status = SdpStatus.NUMERICAL_TROUBLE
    message = f"no convergence within {MAX_ITERS} iterations"
    iterations = 0
    best_score = math.inf
    best_iterate = (x, y, s)  # iterates are replaced, never written in place
    stalled_since = 0
    ray_bound = RAY_THRESHOLD * (1.0 + float(init_scale))
    moved = False  # whether an exit replaced the last evaluated iterate

    for it in range(MAX_ITERS + 1):
        iterations = it
        rd, pobj, dobj, primal, dual, gap = _residuals(groups, c, b, norm_b, norm_c, x, y, s)
        mu = _inner(x, s) / n
        trace.append(
            {
                "iteration": it,
                "mu": mu,
                "primal_residual": primal,
                "dual_residual": dual,
                "gap": gap,
                "primal_objective": pobj,
                "dual_objective": dobj,
            }
        )

        if not (math.isfinite(primal) and math.isfinite(dual) and math.isfinite(gap) and math.isfinite(mu)):
            message = "non-finite iterate"
            break

        if primal <= FEAS_TOL and dual <= FEAS_TOL and gap <= gap_tol:
            status = SdpStatus.OPTIMAL
            message = "converged"
            break

        score = max(primal, dual, gap)
        if score < 0.98 * best_score:
            best_score = score
            best_iterate = (x, y, s)
            stalled_since = 0
        else:
            stalled_since += 1
            if stalled_since >= 30:
                x, y, s = best_iterate
                moved = True
                message = "progress stalled"
                break

        # divergence: look for an improving ray before giving up
        y_norm = float(np.abs(y).max())
        if y_norm > ray_bound:
            ray = y / y_norm
            s_ray = [-g.adjoint(ray) for g in groups]
            eig_min = _lambda_min(s_ray)
            if b @ ray > 1e-3 and eig_min > -1e-6:
                status = SdpStatus.PRIMAL_INFEASIBLE
                message = "dual improving ray found"
                y = ray
                s = s_ray
                moved = True
            else:
                message = "diverging dual iterates"
            break
        x_norm = 0.0
        for xg in x:
            x_norm = max(x_norm, float(np.abs(xg).max()))
        if x_norm > ray_bound:
            ray = [z / x_norm for z in x]
            ray_feas = float(np.linalg.norm(_apply(groups, ray)))
            if -_inner(c, ray) > 1e-3 and ray_feas < 1e-6:
                status = SdpStatus.DUAL_INFEASIBLE
                message = "primal improving ray found"
                x = ray
                moved = True
            else:
                message = "diverging primal iterates"
            break

        if it == MAX_ITERS:
            break

        # S^{-1} = L_s^{-T} L_s^{-1}, from the inverse factors that the four
        # step lengths below reuse; the right-hand side term X R_d S^{-1}
        s_inv, x_rd_sinv = [], []
        for xg, rg, h in zip(x, rd, inv_s):
            sg = h.transpose(0, 2, 1) @ h
            s_inv.append(sg)
            x_rd_sinv.append(xg @ rg @ sg)

        # Schur complement M_ij = sum_l <A_i^l, X_l A_j^l S_l^{-1}>
        schur = groups[0].schur(x[0], s_inv[0], works[0])
        for i in range(1, len(groups)):
            schur += groups[i].schur(x[i], s_inv[i], works[i])
        sym = schur + schur.T
        sym *= 0.5
        chol_m = _chol_with_jitter(sym)
        if chol_m is None:
            message = "Schur complement factorization failed"
            break

        # Mehrotra predictor: the affine direction, its step lengths and the
        # complementarity they would reach
        _, dx_aff, ds_aff = _newton(groups, chol_m, b, rd, x, s_inv, x_rd_sinv, None, 0.0)
        steps = _step_lengths(inv_x, inv_s, dx_aff, ds_aff)
        if steps is None:
            message = "non-finite search direction"
            break
        alpha_p, alpha_d = steps
        x_aff, s_aff, corr = [], [], []
        for xg, sg, dxg, dsg in zip(x, s, dx_aff, ds_aff):
            x_aff.append(xg + alpha_p * dxg)
            s_aff.append(sg + alpha_d * dsg)
            corr.append(dxg @ dsg)
        mu_aff = _inner(x_aff, s_aff) / n
        sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)
        if max(primal, dual) > FEAS_TOL:
            # keep a sliver of centrality so complementarity cannot hit the
            # boundary before feasibility has converged
            sigma = max(sigma, 1e-3)

        # corrector: centring and the second-order term dX_aff dS_aff
        dy, dx, ds = _newton(groups, chol_m, b, rd, x, s_inv, x_rd_sinv, corr, sigma * mu)
        steps = _step_lengths(inv_x, inv_s, dx, ds)
        if steps is None:
            message = "non-finite search direction"
            break
        alpha_p, alpha_d = steps

        # eigenvalue roundoff can overshoot the cone boundary; back off until
        # every block of the stepped iterate factors
        x_new = _backtrack_psd(x, dx, alpha_p)
        s_new = _backtrack_psd(s, ds, alpha_d)
        if x_new is None or s_new is None:
            message = "step backtracking failed"
            break
        x, inv_x, alpha_p = x_new
        s, inv_s, alpha_d = s_new
        y = y + alpha_d * dy

    if moved:
        _, pobj, dobj, primal, dual, gap = _residuals(groups, c, b, norm_b, norm_c, x, y, s)
    x_blocks, s_blocks = [None] * len(problem.block_dims), [None] * len(problem.block_dims)
    for g, xg, sg in zip(groups, x, s):
        for p, l in enumerate(g.blocks):
            x_blocks[l], s_blocks[l] = xg[p].copy(), sg[p].copy()
    return SdpSolution(
        status=status,
        x_blocks=x_blocks,
        y=y,
        s_blocks=s_blocks,
        primal_objective=pobj,
        dual_objective=dobj,
        residuals=Residuals(primal, dual, gap),
        iterations=iterations,
        trace=trace,
        message=message,
    )


@dataclass
class CertificateItem:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


@dataclass
class CertificateReport:
    items: list

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def __str__(self):
        lines = []
        for item in self.items:
            flag = "pass" if item.passed else "FAIL"
            lines.append(f"{flag}  {item.name}: {item.value:.3e} (<= {item.threshold:.1e})")
        return "\n".join(lines)


def check_certificate(problem: SdpProblem, solution: SdpSolution, tol: float = 1e-7) -> CertificateReport:
    """Recompute all optimality residuals from scratch (per-block sums over
    the problem's constraint triplets by ``np.bincount``, no shared state
    with the solver) and report pass/fail."""
    if solution.status != SdpStatus.OPTIMAL:
        raise ValueError("certificate checking expects an optimal solution")
    b, y = problem.b, solution.y
    blocks = list(zip(problem.c_blocks, problem.a_triplets, solution.x_blocks, solution.s_blocks))

    lhs = sum(np.bincount(i, weights=v * np.ravel(xb)[cell], minlength=b.size) for _, (i, cell, v), xb, _ in blocks)
    primal = float(np.max(np.abs(lhs - b))) / (1.0 + float(np.abs(b).max()))

    dual, c_max = [], []
    for c, (i, cell, v), _, sb in blocks:
        dual_mat = c - sb - np.bincount(cell, weights=y[i] * v, minlength=c.size).reshape(c.shape)
        dual.append(float(np.abs(dual_mat).max()))
        c_max.append(float(np.abs(c).max()))
    dual = float(np.max(dual)) / (1.0 + max(c_max))

    pobj = sum(float(np.sum(c * xb)) for c, _, xb, _ in blocks)
    dobj = float(b @ y)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

    def floor(mats):
        # np.max keeps a NaN that the builtin max would drop
        return float(np.max([0.0] + [-np.linalg.eigvalsh(0.5 * (z + z.T)).min() for z in mats]))

    items = [
        CertificateItem("primal feasibility", primal, tol),
        CertificateItem("dual feasibility", dual, tol),
        CertificateItem("duality gap", gap, max(tol, 1e-7)),
        CertificateItem("primal eigenvalue floor", floor(solution.x_blocks), tol),
        CertificateItem("dual eigenvalue floor", floor(solution.s_blocks), tol),
    ]
    return CertificateReport(items)
