"""Dense standard-form semidefinite programming.

Solves  min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  (block-diagonal symmetric
X) with an infeasible-start primal-dual path-following method: Mehrotra
predictor-corrector steps in the HKM scaling direction, a dense Cholesky of
the Schur complement, and fraction-to-boundary step control.  The dual pair
is  max b.y  s.t.  S = C - sum_i y_i A_i >= 0.

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
no solve densifies them.  Each group reads its blocks' triplets into one
sparse operator, built once per solve and kept as plain arrays with no scipy
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
and the operator contracts the result while it is still in cache.  Each
group owns a workspace, allocated once per solve, that every chunk's
products are written into: arrays of chunk size allocated per iteration
would be handed back to the OS and faulted in again, which costs small
solves more than their arithmetic.  The public products take no output
argument, so the solver calls scipy's sparse kernels (``csr_matvecs``,
``csr_matvec`` and ``csc_matvec`` from ``scipy.sparse._sparsetools``) and
its LAPACK without their validating wrappers, with the same bits (pinned by
tests): ``dpotrf`` factors the iterates and the Schur complement, ``dtrtri``
inverts the iterates' factors, ``dpotrs`` solves with the Schur factor, and
``dsyevr`` computes only the smallest eigenvalue of each step matrix.  A
non-finite iterate is caught by the residual check, and a non-finite search
direction by its step length (LAPACK reports it); either ends the solve as
``numerical_trouble``, so numpy's overflow warnings are off inside it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevr, dtrtri
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_matvecs

from .errors import SizeGuardError


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


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-9


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Objective and equality constraints over block-diagonal symmetric X.

    ``a_triplets[l]`` holds every constraint's block-l component as
    ``(rows, cells, values)``: constraint ``rows[t]`` has ``values[t]`` at
    cell ``cells[t]`` = r * n_l + c.  They are kept sorted by row and then
    cell, with repeats summed and exact zeros dropped, and must be symmetric
    (an entry without a mirror compares against 0).  1x1 blocks act as
    nonnegative scalar variables.  ``a_stacks`` is their dense view.
    """

    block_dims: tuple
    c_blocks: tuple
    a_triplets: tuple
    b: np.ndarray

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        object.__setattr__(self, "block_dims", dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError("block dimensions must be positive")
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1:
            raise ValueError("b must be a vector")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        m = b.size
        if m < 1:
            raise ValueError("at least one constraint is required")
        total = sum(dims)
        if m > total * total:
            raise ValueError("more constraints than matrix entries")
        cs, triplets = [], []
        for n_l, c, triplet in zip(dims, self.c_blocks, self.a_triplets, strict=True):
            c = np.asarray(c, dtype=float)
            if c.shape != (n_l, n_l) or not np.all(np.isfinite(c)):
                raise ValueError("objective blocks must be finite and match block_dims")
            if np.abs(c - c.T).max(initial=0.0) > 1e-12:
                raise ValueError("objective blocks must be symmetric")
            cs.append(c)
            triplets.append(_canonical_triplets(n_l, m, *triplet))
        object.__setattr__(self, "c_blocks", tuple(cs))
        object.__setattr__(self, "a_triplets", tuple(triplets))
        object.__setattr__(self, "b", b)

    @property
    def a_stacks(self) -> tuple:
        """Read-only dense (m, n_l, n_l) constraint stacks, made on each
        access for inspection; no solve reads them."""
        stacks = tuple(np.zeros((self.b.size, n_l, n_l)) for n_l in self.block_dims)
        for stack, (rows, cells, values) in zip(stacks, self.a_triplets):
            stack.reshape(self.b.size, -1)[rows, cells] = values
            stack.flags.writeable = False
        return stacks

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def num_constraints(self) -> int:
        return self.b.size


def _canonical_triplets(n: int, m: int, rows, cells, values) -> tuple:
    """An n x n block's constraint triplets in the form SdpProblem keeps;
    ValueError unless they are in range, finite and symmetric."""
    rows, cells = (np.asarray(v).astype(np.int64, casting="same_kind") for v in (rows, cells))
    values = np.asarray(values, dtype=float)
    if not (rows.ndim == cells.ndim == values.ndim == 1 and rows.size == cells.size == values.size):
        raise ValueError("constraint triplets must be three vectors of equal length")
    if np.any((rows < 0) | (rows >= m) | (cells < 0) | (cells >= n * n)):
        raise ValueError("constraint triplets outside the problem")
    if not np.all(np.isfinite(values)):
        raise ValueError("constraint values must be finite")
    keys, at = np.unique(rows * (n * n) + cells, return_inverse=True)
    sums = np.bincount(at, weights=values, minlength=keys.size)  # repeats summed in input order
    keys, sums = keys[sums != 0.0], sums[sums != 0.0]
    rows, cells = np.divmod(keys, n * n)
    # each entry against its mirror (r, c) -> (c, r), or 0 where there is none
    mirror = rows * (n * n) + cells % n * n + cells // n
    at = np.searchsorted(keys, mirror).clip(max=max(keys.size - 1, 0))
    if np.abs(sums - np.where(keys[at] == mirror, sums[at], 0.0)).max(initial=0.0) > 1e-12:
        raise ValueError("constraint blocks must be symmetric")
    return rows, cells, sums


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
    so that these rows times the stacked S_l^{-1} give every A_i^l S_l^{-1}."""

    blocks: tuple
    size: int
    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray
    per_chunk: int  # constraints per chunk of the Schur assembly
    work: np.ndarray  # (2, largest chunk product), written by schur only

    def apply(self, z: np.ndarray) -> np.ndarray:
        """(<A_i, Z>)_i over the group's blocks, for Z given as its stack."""
        return _matvec(csr_matvec, self.shape, self, z.ravel())

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """sum_i v_i A_i on the group's blocks, as a stack."""
        return _matvec(csc_matvec, self.shape[::-1], self, v).reshape(-1, self.size, self.size)

    def schur(self, x: np.ndarray, s_inv: np.ndarray) -> np.ndarray:
        """The group's term of the Schur complement: column j holds
        sum_l <A_i^l, X_l A_j^l S_l^{-1}> for every i, assembled a chunk of
        constraints j at a time.  Every chunk-size product is written into
        ``work``: A S^{-1} into its first row, X A S^{-1} into its second,
        then the C-order transpose that the contraction reads into the first
        and the contraction itself into the second."""
        m, cells = self.shape
        k_n = cells // self.size
        s_stack = s_inv.reshape(-1, self.size)
        a_s, x_a_s = self.work
        out = np.empty((m, m))
        for start in range(0, m, self.per_chunk):
            # the chunk's rows: a slice of row_ptr, whose offsets stay absolute
            rows = self.row_ptr[start * k_n : (start + self.per_chunk) * k_n + 1]
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


def _block_groups(problem: SdpProblem) -> list:
    """Group the blocks by size, in order of first appearance."""
    by_size: dict = {}
    for l, n_l in enumerate(problem.block_dims):
        by_size.setdefault(n_l, []).append(l)
    m = problem.num_constraints
    groups = []
    for nb, blocks in by_size.items():
        k = len(blocks)
        parts = [(i, p * nb * nb + cell, v) for p, (i, cell, v) in enumerate(problem.a_triplets[l] for l in blocks)]
        rows, cols, vals = (np.concatenate(v) for v in zip(*parts))
        order = np.argsort(rows, kind="stable")  # row-major: by constraint, then block, then cell
        rows, cols, vals = rows[order], cols[order], vals[order]
        # the same nonzeros at rows (i, l, r), columns (l, c): still row-major
        block, r, c = cols // (nb * nb), cols // nb % nb, cols % nb
        # CSR row pointers: where each row's run of sorted row indices starts
        row_ptr = np.searchsorted((rows * k + block) * nb + r, np.arange(m * k * nb + 1))
        indptr, row_cols = np.searchsorted(rows, np.arange(m + 1)), block * nb + c
        cells = k * nb * nb
        per_chunk = min(m, max(1, SCHUR_CHUNK_BYTES // (8 * cells)))
        work = np.empty((2, per_chunk * max(cells, m)))
        groups.append(_Group(tuple(blocks), nb, (m, cells), indptr, cols, vals, row_ptr, row_cols, per_chunk, work))
    return groups


def _sym(z: np.ndarray) -> np.ndarray:
    return 0.5 * (z + z.transpose(0, 2, 1))


def _inner(us, vs) -> float:
    """<U, V> summed over the groups' stacks."""
    return sum(float(np.vdot(u, v)) for u, v in zip(us, vs))


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
    lam = np.inf
    for stack in stacks:
        for w in stack:
            eig, _, _, _, info = dsyevr(w, compute_v=0, range="I", il=1, iu=1, lower=1)
            if info != 0 or not np.isfinite(eig[0]):
                return np.nan
            lam = min(lam, eig[0])
    return float(lam)


def _step_length(inverses, directions) -> float:
    """Largest alpha with P + alpha*D >= 0 in every block, given the inverse
    Cholesky factors L^{-1} of P's blocks (both as per-group stacks): -1 over
    the smallest eigenvalue of L^{-1} D L^{-T}, inf when that is not
    negative, and NaN when a direction is not finite."""
    lam = _lambda_min([h @ d @ h.transpose(0, 2, 1) for h, d in zip(inverses, directions)])
    # NaN compares false and passes through
    return np.inf if lam >= -1e-14 else -1.0 / lam


def _backtrack_psd(mats, directions, alpha: float):
    """Shrink one step shared by every block until each block of the iterate
    is Cholesky-positive; returns (new_stacks, their_inverse_factors,
    alpha_used) or None."""
    for _ in range(40):
        candidate = [_sym(z + alpha * d) for z, d in zip(mats, directions)]
        inverses = _inverse_factors(candidate)
        if inverses is not None:
            return candidate, inverses, alpha
        alpha *= 0.5
        if alpha < 1e-16:
            break
    return None


def _chol_with_jitter(mat: np.ndarray):
    chol = _cholesky(mat)
    scale = max(np.trace(mat) / mat.shape[0], 1.0)
    for attempt in range(3):
        if chol is not None:
            break
        chol = _cholesky(mat + scale * 10.0 ** (-14 + 2 * attempt) * np.eye(mat.shape[0]))
    return chol


@np.errstate(over="ignore", invalid="ignore")
def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    cfg = config or SolverConfig()
    n = problem.total_dim
    if n > DIM_GUARD:
        raise SizeGuardError(f"total dimension {n} exceeds guard {DIM_GUARD}")
    m = problem.num_constraints
    groups = _block_groups(problem)
    c = [np.stack([problem.c_blocks[l] for l in g.blocks]) for g in groups]
    b = problem.b.copy()

    def apply(mats):
        """(<A_i, X>)_i for X given as per-group stacks."""
        return sum(g.apply(z) for g, z in zip(groups, mats))

    def adjoint(v):
        """sum_i v_i A_i as per-group stacks."""
        return [g.adjoint(v) for g in groups]

    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.sqrt(_inner(c, c)))
    a_sq = [np.zeros(m) for _ in groups]
    for g, sq in zip(groups, a_sq):  # each row summed as scipy's own CSR row sums are
        nonempty = np.flatnonzero(np.diff(g.indptr))
        sq[nonempty] = np.add.reduceat(g.data * g.data, g.indptr[nonempty])
    a_norms = np.sqrt(sum(a_sq))
    tau_p = max(1.0, np.sqrt(n), n * float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms))))
    tau_d = max(1.0, np.sqrt(n), norm_c, float(a_norms.max()))
    init_scale = max(tau_p, tau_d)

    eyes = [np.eye(g.size) for g in groups]
    x = [tau_p * np.broadcast_to(e, (len(g.blocks),) + e.shape) for g, e in zip(groups, eyes)]
    s = [tau_d * np.broadcast_to(e, (len(g.blocks),) + e.shape) for g, e in zip(groups, eyes)]
    y = np.zeros(m)
    inv_x, inv_s = _inverse_factors(x), _inverse_factors(s)

    def residuals(x, y, s):
        rp = b - apply(x)
        rd = [cg - sg - ag for cg, sg, ag in zip(c, s, adjoint(y))]
        pobj = _inner(c, x)
        dobj = float(b @ y)
        rel = Residuals(
            primal=float(np.linalg.norm(rp)) / (1.0 + norm_b),
            dual=float(np.sqrt(_inner(rd, rd))) / (1.0 + norm_c),
            gap=abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        )
        return rd, pobj, dobj, rel

    trace: list = []
    status = SdpStatus.NUMERICAL_TROUBLE
    message = f"no convergence within {MAX_ITERS} iterations"
    iterations = 0
    best_score = np.inf
    best_iterate = (x, y, s)  # iterates are replaced, never written in place
    stalled_since = 0

    for it in range(MAX_ITERS + 1):
        iterations = it
        rd, pobj, dobj, rel = residuals(x, y, s)
        mu = _inner(x, s) / n
        trace.append(
            {
                "iteration": it,
                "mu": mu,
                "primal_residual": rel.primal,
                "dual_residual": rel.dual,
                "gap": rel.gap,
                "primal_objective": pobj,
                "dual_objective": dobj,
            }
        )

        if not np.all(np.isfinite((rel.primal, rel.dual, rel.gap, mu))):
            message = "non-finite iterate"
            break

        if rel.primal <= cfg.feas_tol and rel.dual <= cfg.feas_tol and rel.gap <= cfg.gap_tol:
            status = SdpStatus.OPTIMAL
            message = "converged"
            break

        score = max(rel.primal, rel.dual, rel.gap)
        if score < 0.98 * best_score:
            best_score = score
            best_iterate = (x, y, s)
            stalled_since = 0
        else:
            stalled_since += 1
            if stalled_since >= 30:
                x, y, s = best_iterate
                message = "progress stalled"
                break

        # divergence: look for an improving ray before giving up
        y_norm = float(np.abs(y).max()) if m else 0.0
        if y_norm > RAY_THRESHOLD * (1.0 + init_scale):
            ray = y / y_norm
            s_ray = [-z for z in adjoint(ray)]
            eig_min = _lambda_min(s_ray)
            if b @ ray > 1e-3 and eig_min > -1e-6:
                status = SdpStatus.PRIMAL_INFEASIBLE
                message = "dual improving ray found"
                y = ray
                s = s_ray
            else:
                message = "diverging dual iterates"
            break
        x_norm = max(float(np.abs(z).max()) for z in x)
        if x_norm > RAY_THRESHOLD * (1.0 + init_scale):
            ray = [z / x_norm for z in x]
            ray_feas = float(np.linalg.norm(apply(ray)))
            if -_inner(c, ray) > 1e-3 and ray_feas < 1e-6:
                status = SdpStatus.DUAL_INFEASIBLE
                message = "primal improving ray found"
                x = ray
            else:
                message = "diverging primal iterates"
            break

        if it == MAX_ITERS:
            break

        # S^{-1} = L_s^{-T} L_s^{-1}, from the inverse factors that the four
        # step lengths below reuse
        s_inv = [h.transpose(0, 2, 1) @ h for h in inv_s]

        # Schur complement M_ij = sum_l <A_i^l, X_l A_j^l S_l^{-1}>
        schur = sum(g.schur(xg, sg) for g, xg, sg in zip(groups, x, s_inv))
        schur = 0.5 * (schur + schur.T)
        chol_m = _chol_with_jitter(schur)
        if chol_m is None:
            message = "Schur complement factorization failed"
            break

        x_rd_sinv = [xg @ rg @ sg for xg, rg, sg in zip(x, rd, s_inv)]

        def newton(sigma_mu, corr):
            corr = corr or [None] * len(groups)
            rhs_mat = [a if cg is None else a + cg @ sg for a, cg, sg in zip(x_rd_sinv, corr, s_inv)]
            rhs = b + apply(rhs_mat)
            if sigma_mu != 0.0:
                rhs = rhs - sigma_mu * apply(s_inv)
            dy = dpotrs(chol_m.T, rhs, lower=0)[0]  # chol_m.T: the Fortran-order upper factor
            ds = [rg - ag for rg, ag in zip(rd, adjoint(dy))]
            dx = []
            for xg, dsg, sg, cg in zip(x, ds, s_inv, corr):
                d = -xg - (xg @ dsg if cg is None else xg @ dsg + cg) @ sg
                if sigma_mu != 0.0:
                    d = d + sigma_mu * sg
                dx.append(_sym(d))
            return dy, dx, ds

        def step_lengths(dx, ds):
            """Fraction-to-boundary steps for X and S, or None for a
            non-finite direction (which min(1.0, nan) would turn into a full
            step)."""
            alphas = (_step_length(inv_x, dx), _step_length(inv_s, ds))
            if any(np.isnan(a) for a in alphas):
                return None
            return [min(1.0, STEP_FRACTION * a) for a in alphas]

        dy_aff, dx_aff, ds_aff = newton(0.0, None)
        steps = step_lengths(dx_aff, ds_aff)
        if steps is None:
            message = "non-finite search direction"
            break
        alpha_p, alpha_d = steps
        mu_aff = _inner(
            [xg + alpha_p * d for xg, d in zip(x, dx_aff)], [sg + alpha_d * d for sg, d in zip(s, ds_aff)]
        ) / n
        sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)
        if max(rel.primal, rel.dual) > cfg.feas_tol:
            # keep a sliver of centrality so complementarity cannot hit the
            # boundary before feasibility has converged
            sigma = max(sigma, 1e-3)

        dy, dx, ds = newton(sigma * mu, [a @ d for a, d in zip(dx_aff, ds_aff)])
        steps = step_lengths(dx, ds)
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

    _, pobj, dobj, rel = residuals(x, y, s)
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
        residuals=rel,
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
