"""Dense standard-form semidefinite programming.

Solves  min <C, X>  s.t.  <A_i, X> = b_i,  X >= 0  (block-diagonal symmetric
X) with an infeasible-start primal-dual path-following method: Mehrotra
predictor-corrector steps in the HKM scaling direction, a dense Cholesky of
the Schur complement, and fraction-to-boundary step control.  The dual pair
is  max b.y  s.t.  S = C - sum_i y_i A_i >= 0.

The constraints enter the solver as one sparse operator, built once per
solve from the nonzeros of every block: a CSR matrix with one row per
constraint over the vectorized cells of the joint matrix, so that applying
A or its adjoint costs O(nnz).  The Schur complement is assembled from the
same operator viewed as (m*n, n) rows (Fujisawa, Kojima & Nakata, Math.
Program. 79, 1997); no dense copy of the constraints is made.  The
moment-matrix problems produced by :mod:`aqbell.aqset` have a handful of
nonzeros per constraint, which is where the solver spends its time.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import SizeGuardError


class SdpStatus(str, Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    NUMERICAL_TROUBLE = "numerical_trouble"


STEP_FRACTION = 0.98  # fraction-to-boundary step control
RAY_THRESHOLD = 1e8  # iterate norm, relative to the start, that signals an infeasibility ray


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-9
    max_iters: int = 200
    dim_guard: int = 512


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Objective and equality constraints over block-diagonal symmetric X.

    ``a_stacks[l]`` holds the block-l component of every constraint as an
    (m, n_l, n_l) array; 1x1 blocks act as nonnegative scalar variables.
    This dense per-block form is the input format only: :func:`solve` reads
    its nonzeros into one sparse operator.
    """

    block_dims: tuple
    c_blocks: tuple
    a_stacks: tuple
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
        cs, stacks = [], []
        for n_l, c, stack in zip(dims, self.c_blocks, self.a_stacks, strict=True):
            c = np.asarray(c, dtype=float)
            stack = np.asarray(stack, dtype=float)
            if c.shape != (n_l, n_l) or stack.shape != (m, n_l, n_l):
                raise ValueError("block shapes do not match block_dims / b")
            if not (np.all(np.isfinite(c)) and np.all(np.isfinite(stack))):
                raise ValueError("objective and constraint blocks must be finite")
            if np.abs(c - c.T).max(initial=0.0) > 1e-12:
                raise ValueError("objective blocks must be symmetric")
            if np.abs(stack - stack.transpose(0, 2, 1)).max(initial=0.0) > 1e-12:
                raise ValueError("constraint blocks must be symmetric")
            cs.append(c)
            stacks.append(stack)
        object.__setattr__(self, "c_blocks", tuple(cs))
        object.__setattr__(self, "a_stacks", tuple(stacks))
        object.__setattr__(self, "b", b)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    @property
    def num_constraints(self) -> int:
        return self.b.size

    def block_offsets(self):
        offsets = [0]
        for n_l in self.block_dims:
            offsets.append(offsets[-1] + n_l)
        return offsets

    def split_blocks(self, joint: np.ndarray):
        out = []
        for off, n_l in zip(self.block_offsets(), self.block_dims):
            out.append(joint[off : off + n_l, off : off + n_l].copy())
        return out


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


def _eig_min(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())


def _max_step(chol_lower: np.ndarray, direction: np.ndarray) -> float:
    """Largest alpha with P + alpha*D >= 0, given the Cholesky factor of P."""
    t = sla.solve_triangular(chol_lower, direction, lower=True)
    w = sla.solve_triangular(chol_lower, t.T, lower=True).T
    lam = float(np.linalg.eigvalsh(0.5 * (w + w.T)).min())
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _backtrack_psd(mat: np.ndarray, direction: np.ndarray, alpha: float):
    """Shrink the step until the iterate is Cholesky-positive; returns
    (new_matrix, alpha_used) or None."""
    for _ in range(40):
        candidate = mat + alpha * direction
        candidate = 0.5 * (candidate + candidate.T)
        try:
            np.linalg.cholesky(candidate)
            return candidate, alpha
        except np.linalg.LinAlgError:
            alpha *= 0.5
            if alpha < 1e-16:
                break
    return None


def _chol_with_jitter(mat: np.ndarray):
    scale = max(np.trace(mat) / mat.shape[0], 1.0)
    jitter = 0.0
    for attempt in range(4):
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            jitter = scale * 10.0 ** (-14 + 2 * attempt)
    return None


def _constraint_operator(problem: SdpProblem) -> sp.csr_matrix:
    """A as an (m, n*n) CSR matrix: row i is the joint constraint matrix A_i
    vectorized row-major, read from the nonzeros of each block at its
    offset on the diagonal."""
    n, m = problem.total_dim, problem.num_constraints
    rows, cols, vals = [], [], []
    for off, stack in zip(problem.block_offsets(), problem.a_stacks):
        k, i, j = np.nonzero(stack)
        rows.append(k)
        cols.append((off + i) * n + off + j)
        vals.append(stack[k, i, j])
    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n * n))


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    cfg = config or SolverConfig()
    n = problem.total_dim
    if n > cfg.dim_guard:
        raise SizeGuardError(f"total dimension {n} exceeds guard {cfg.dim_guard}")
    m = problem.num_constraints
    a_op = _constraint_operator(problem)
    a_rows = a_op.reshape(m * n, n).tocsr()
    c = sla.block_diag(*problem.c_blocks)
    b = problem.b.copy()

    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(c))
    a_norms = np.sqrt(np.asarray(a_op.multiply(a_op).sum(axis=1)).ravel())
    tau_p = max(1.0, np.sqrt(n), n * float(np.max((1.0 + np.abs(b)) / (1.0 + a_norms))))
    tau_d = max(1.0, np.sqrt(n), norm_c, float(a_norms.max()))
    init_scale = max(tau_p, tau_d)

    x = tau_p * np.eye(n)
    s = tau_d * np.eye(n)
    y = np.zeros(m)

    def residuals(x, y, s):
        rp = b - a_op @ x.ravel()
        rd = c - s - (a_op.T @ y).reshape(n, n)
        pobj = float(np.vdot(c, x))
        dobj = float(b @ y)
        rel = Residuals(
            primal=float(np.linalg.norm(rp)) / (1.0 + norm_b),
            dual=float(np.linalg.norm(rd)) / (1.0 + norm_c),
            gap=abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
        )
        return rd, pobj, dobj, rel

    eye = np.eye(n)
    trace: list = []
    status = SdpStatus.NUMERICAL_TROUBLE
    message = f"no convergence within {cfg.max_iters} iterations"
    iterations = 0
    best_score = np.inf
    best_iterate = (x.copy(), y.copy(), s.copy())
    stalled_since = 0

    for it in range(cfg.max_iters + 1):
        iterations = it
        rd, pobj, dobj, rel = residuals(x, y, s)
        mu = float(np.vdot(x, s)) / n
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

        if rel.primal <= cfg.feas_tol and rel.dual <= cfg.feas_tol and rel.gap <= cfg.gap_tol:
            status = SdpStatus.OPTIMAL
            message = "converged"
            break

        score = max(rel.primal, rel.dual, rel.gap)
        if score < 0.98 * best_score:
            best_score = score
            best_iterate = (x.copy(), y.copy(), s.copy())
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
            s_ray = -(a_op.T @ ray).reshape(n, n)
            if b @ ray > 1e-3 and _eig_min(s_ray) > -1e-6:
                status = SdpStatus.PRIMAL_INFEASIBLE
                message = "dual improving ray found"
                y = ray
                s = s_ray
            else:
                message = "diverging dual iterates"
            break
        x_norm = float(np.abs(x).max())
        if x_norm > RAY_THRESHOLD * (1.0 + init_scale):
            ray = x / x_norm
            ray_feas = float(np.linalg.norm(a_op @ ray.ravel()))
            if -np.vdot(c, ray) > 1e-3 and ray_feas < 1e-6:
                status = SdpStatus.DUAL_INFEASIBLE
                message = "primal improving ray found"
                x = ray
            else:
                message = "diverging primal iterates"
            break

        if it == cfg.max_iters:
            break

        try:
            chol_x = np.linalg.cholesky(x)
            chol_s = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            message = "iterate lost positive definiteness"
            break
        s_inv_half = sla.solve_triangular(chol_s, eye, lower=True)
        s_inv = s_inv_half.T @ s_inv_half

        # Schur complement M_ij = <A_i, X A_j S^{-1}>
        t_stack = np.matmul(x, (a_rows @ s_inv).reshape(m, n, n))
        schur = a_op @ t_stack.reshape(m, n * n).T
        schur = 0.5 * (schur + schur.T)
        chol_m = _chol_with_jitter(schur)
        if chol_m is None:
            message = "Schur complement factorization failed"
            break

        x_rd_sinv = x @ rd @ s_inv

        def newton(sigma_mu, corr):
            rhs_mat = x_rd_sinv if corr is None else x_rd_sinv + corr @ s_inv
            rhs = b + a_op @ rhs_mat.ravel()
            if sigma_mu != 0.0:
                rhs = rhs - sigma_mu * (a_op @ s_inv.ravel())
            dy = sla.cho_solve((chol_m, True), rhs)
            ds = rd - (a_op.T @ dy).reshape(n, n)
            dx = -x - (x @ ds if corr is None else x @ ds + corr) @ s_inv
            if sigma_mu != 0.0:
                dx = dx + sigma_mu * s_inv
            dx = 0.5 * (dx + dx.T)
            return dy, dx, ds

        dy_aff, dx_aff, ds_aff = newton(0.0, None)
        alpha_p = min(1.0, STEP_FRACTION * _max_step(chol_x, dx_aff))
        alpha_d = min(1.0, STEP_FRACTION * _max_step(chol_s, ds_aff))
        mu_aff = float(np.vdot(x + alpha_p * dx_aff, s + alpha_d * ds_aff)) / n
        sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3)
        if max(rel.primal, rel.dual) > cfg.feas_tol:
            # keep a sliver of centrality so complementarity cannot hit the
            # boundary before feasibility has converged
            sigma = max(sigma, 1e-3)

        dy, dx, ds = newton(sigma * mu, dx_aff @ ds_aff)
        alpha_p = min(1.0, STEP_FRACTION * _max_step(chol_x, dx))
        alpha_d = min(1.0, STEP_FRACTION * _max_step(chol_s, ds))

        # eigenvalue roundoff can overshoot the cone boundary; back off until
        # the stepped iterate factors
        x_new = _backtrack_psd(x, dx, alpha_p)
        s_new = _backtrack_psd(s, ds, alpha_d)
        if x_new is None or s_new is None:
            message = "step backtracking failed"
            break
        x, alpha_p = x_new
        s, alpha_d = s_new
        y = y + alpha_d * dy

    _, pobj, dobj, rel = residuals(x, y, s)
    return SdpSolution(
        status=status,
        x_blocks=problem.split_blocks(x),
        y=y,
        s_blocks=problem.split_blocks(s),
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
    """Recompute all optimality residuals from scratch (plain per-block,
    per-constraint loops over the problem's blocks, no shared state with
    the solver) and report pass/fail."""
    if solution.status != SdpStatus.OPTIMAL:
        raise ValueError("certificate checking expects an optimal solution")
    m = problem.num_constraints
    b, y = problem.b, solution.y
    blocks = list(zip(problem.c_blocks, problem.a_stacks, solution.x_blocks, solution.s_blocks))

    primal = []
    for i in range(m):
        lhs = sum(float(np.sum(stack[i] * xb)) for _, stack, xb, _ in blocks)
        primal.append(abs(lhs - b[i]))
    primal = float(np.max(primal)) / (1.0 + float(np.abs(b).max()))

    dual, c_max = [], []
    for c, stack, _, sb in blocks:
        dual_mat = c - sb
        for i in range(m):
            dual_mat = dual_mat - y[i] * stack[i]
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


def matrix_to_triplets(mat: np.ndarray) -> list:
    """Upper-triangle sparse triplets [i, j, value] of a symmetric matrix."""
    out = []
    n = mat.shape[0]
    for i in range(n):
        for j in range(i, n):
            if mat[i, j] != 0.0:
                out.append([i, j, float(mat[i, j])])
    return out


def matrix_from_triplets(n: int, triplets) -> np.ndarray:
    mat = np.zeros((n, n))
    for i, j, value in triplets:
        mat[int(i), int(j)] = float(value)
        mat[int(j), int(i)] = float(value)
    return mat
