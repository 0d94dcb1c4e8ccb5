"""Estimate a dual transition matrix from a simulated trajectory.

Two constrained least-squares problems are solved in succession: the standard
part minimizes ||Y_s - P X_s||_F over column-stochastic P, then the
infinitesimal part minimizes ||Y_i - P_s X_i - P_i X_s||_F over matrices
whose columns sum to zero and are nonnegative on the zero pattern of P_s.
Both feasible sets are products of per-column convex sets with cheap exact
projections, so an accelerated projected-gradient method (FISTA with
adaptive restart) solves them without external solver dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DualMatrix
from .markov import validate_dtpm

ZERO_PATTERN_THRESHOLD = 1e-13
ILL_CONDITION_LIMIT = 1e10
KKT_FACTOR = 1e-6


@dataclass(frozen=True)
class SnapshotPair:
    """Aligned dual snapshot matrices (X, Y) built from a trajectory.

    Standard parts hold consecutive states, infinitesimal parts their first
    differences, so Y is X advanced by one step in both components.
    """

    x: DualMatrix
    y: DualMatrix

    def __post_init__(self):
        if self.x.shape != self.y.shape:
            raise ValueError(f"shape mismatch: {self.x.shape} vs {self.y.shape}")


def build_snapshots(trajectory) -> SnapshotPair:
    """Slice a state sequence x_1..x_{T+2} (columns) into snapshot duals.

    X_s = columns 1..T, Y_s = columns 2..T+1; the infinitesimal parts are
    the forward differences of the corresponding slices.  A DualMatrix
    trajectory (a simulated DTPM) already carries its infinitesimal part,
    so X = columns 1..T+1 and Y = columns 2..T+2 of it, both parts as given.
    """
    if isinstance(trajectory, DualMatrix):
        if trajectory.shape[1] < 3:
            raise ValueError("trajectory must contain at least 3 states")
        s, i = trajectory.s, trajectory.i
        return SnapshotPair(DualMatrix(s[:, :-1], i[:, :-1]), DualMatrix(s[:, 1:], i[:, 1:]))
    traj = np.asarray(trajectory, dtype=float)
    if traj.ndim != 2:
        raise ValueError("trajectory must be a 2-D array of state columns")
    t = traj.shape[1] - 2
    if t < 1:
        raise ValueError("trajectory must contain at least 3 states")
    x_s = traj[:, 0:t]
    x_i = traj[:, 1 : t + 1] - traj[:, 0:t]
    y_s = traj[:, 1 : t + 1]
    y_i = traj[:, 2 : t + 2] - traj[:, 1 : t + 1]
    return SnapshotPair(DualMatrix(x_s, x_i), DualMatrix(y_s, y_i))


def stack_snapshots(pairs) -> SnapshotPair:
    """Side-by-side columns of several trajectories' snapshot pairs."""
    pairs = list(pairs)
    if len(pairs) == 1:
        return pairs[0]

    def stack(part):
        return DualMatrix(
            np.hstack([part(q).s for q in pairs]), np.hstack([part(q).i for q in pairs])
        )

    return SnapshotPair(stack(lambda q: q.x), stack(lambda q: q.y))


def _project_simplex_columns(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of every column onto the unit simplex."""
    n = v.shape[0]
    u = np.sort(v, axis=0)[::-1]
    css = np.cumsum(u, axis=0) - 1.0
    j = np.arange(1, n + 1, dtype=float)[:, None]
    # The condition below holds on a prefix of each column; rho is its end.
    rho = np.sum(u > css / j, axis=0) - 1
    theta = css[rho, np.arange(v.shape[1])] / (rho + 1.0)
    return np.maximum(v - theta[None, :], 0.0)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto {u >= 0, sum(u) = 1}."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a nonempty 1-D vector")
    return _project_simplex_columns(v[:, None])[:, 0]


def _zero_sum_projector(mask: np.ndarray):
    """Per-column projection onto {u: sum(u) = 0, u_j >= 0 for mask_j}.

    The multiplier solves sum_free (v_j - lam) + sum_masked max(v_j - lam, 0)
    = 0.  Masked coordinates get breakpoint v_j and free ones +inf (they are
    active at every lam), so scanning prefix cuts of the breakpoints in
    descending order finds the root exactly.  Everything that depends only on
    the mask is built once here; the returned function maps v to its
    projection.  Work runs on the transposed layout, one row per column of v.
    Prefix sums add the free values in index order, then the masked ones in
    descending order.  Tied breakpoints are equal values, so how the sort
    orders them can change only the sign of a zero lam, and only in an
    all-masked column, whose clip returns +0.0 either way.
    """
    n, c = mask.shape
    mask_t = np.ascontiguousarray(mask.T)
    cols_free, rows_free = np.nonzero(~mask_t)
    # Flat indices into v of each column's free entries, column by column.
    gather = rows_free * c + cols_free
    # Row r of the transposed layout starts with as many slots as column r
    # of v has free entries.
    free_prefix = np.arange(n)[None, :] < np.count_nonzero(~mask_t, axis=1)[:, None]
    counts = np.arange(1, n + 1, dtype=float)
    rows = np.arange(c)
    floor = np.full((c, 1), -np.inf)

    def project(v: np.ndarray) -> np.ndarray:
        keys = np.where(mask_t, v.T, np.inf)
        hi = np.sort(keys, axis=1)[:, ::-1]
        vals = hi.copy()
        vals[free_prefix] = np.take(v, gather)
        lam = np.cumsum(vals, axis=1) / counts
        lo = np.concatenate([hi[:, 1:], floor], axis=1)
        # Roundoff can push a root just outside its closed interval; rank cuts
        # by constraint violation with valid ones pinned first.
        viol = np.maximum(lo - lam, lam - hi)
        viol = np.where((lam <= hi) & (lam >= lo), -1.0, viol)
        lam_star = lam[rows, np.argmin(viol, axis=1)]
        out = v - lam_star[None, :]
        return np.where(mask, np.maximum(out, 0.0), out)

    return project


def project_zero_sum_masked(v, s) -> np.ndarray:
    """Projection of a vector onto {u: sum(u) = 0, u_j >= 0 for j in s}.

    s is a boolean mask or an iterable of 0-based indices.  With s empty the
    result is v minus its mean; with s covering every index and the mean
    positive, everything clips to 0 (the only feasible point dominates).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_zero_sum_masked expects a nonempty 1-D vector")
    mask = np.zeros(v.shape[0], dtype=bool)
    s = np.asarray(s)
    if s.dtype == bool:
        if s.shape != v.shape:
            raise ValueError("boolean mask must match the vector shape")
        mask = s
    elif s.size:
        mask[s.astype(int)] = True
    return _zero_sum_projector(mask[:, None])(v[:, None])[:, 0]


@dataclass(frozen=True)
class ZeroPatternMask:
    """Boolean matrix marking entries constrained to be nonnegative."""

    mask: np.ndarray
    threshold: float

    @classmethod
    def from_standard(
        cls, p_s: np.ndarray, threshold: float = ZERO_PATTERN_THRESHOLD
    ) -> "ZeroPatternMask":
        p_s = np.asarray(p_s, dtype=float)
        mask = p_s < threshold
        mask.setflags(write=False)
        return cls(mask, float(threshold))


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-10
    max_iter: int = 20000
    zero_threshold: float = ZERO_PATTERN_THRESHOLD


@dataclass(frozen=True)
class FitStage:
    """Result of one projected-gradient solve."""

    matrix: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float
    gradient_norm: float


@dataclass(frozen=True)
class FitReport:
    """Both stages combined into a validated dual transition matrix."""

    p: DualMatrix
    objective_s: float
    objective_i: float
    iterations: tuple
    converged: tuple
    condition_estimate: float
    ill_conditioned: bool
    mask: ZeroPatternMask

    def to_dict(self) -> dict:
        return {
            "objective_s": self.objective_s,
            "objective_i": self.objective_i,
            "iterations": list(self.iterations),
            "converged": list(self.converged),
            "condition_estimate": self.condition_estimate,
            "ill_conditioned": self.ill_conditioned,
            "zero_threshold": self.mask.threshold,
        }


def _spectral_norm_psd(m: np.ndarray, iters: int = 200, rtol: float = 1e-12) -> float:
    """Largest eigenvalue of a PSD matrix by power iteration.

    Deterministic start (normalized ones vector); the estimate converges
    from below, so callers add a small inflation before using it as a
    Lipschitz constant.
    """
    n = m.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = 0.0
    for _ in range(iters):
        w = m @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam_new = float(v @ (m @ v))
        if abs(lam_new - lam) <= rtol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def _fista(xxt, yxt, y_sq, project, p0, lipschitz, tol, max_iter):
    """Monotone FISTA with adaptive restart on the column-projected problem.

    Objective (1/2)||Y - P X||_F^2 expanded through the precomputed Gram
    pieces; stops when the relative objective decrease falls under tol AND
    the gradient mapping satisfies the first-order condition, or at
    max_iter.  Every accepted iterate is feasible and the objective never
    increases.  Each accepted iterate keeps its product P X X^T, which the
    objective formed, for the restart and stopping-test gradients.
    """

    def objective(p):
        pxx = p @ xxt
        return 0.5 * (y_sq - 2.0 * float(np.sum(p * yxt)) + float(np.sum(pxx * p))), pxx

    def mapping(p, g):
        """Norms of the gradient mapping and of the gradient g at p."""
        mapped = (p - project(p - step * g)) / step
        return float(np.linalg.norm(mapped)), float(np.linalg.norm(g))

    obj, pxx = objective(p0)
    if lipschitz <= 0.0:
        # Gradient is constant zero; the start point is already optimal.
        return FitStage(p0, obj, 0, True, 0.0, float(np.linalg.norm(pxx - yxt)))

    step = 1.0 / (lipschitz * (1.0 + 1e-9))
    p = p0
    z = p0
    t = 1.0
    iterations = 0
    converged = False
    kkt = math.inf
    grad_norm = math.inf

    for it in range(1, max_iter + 1):
        iterations = it
        cand = project(z - step * (z @ xxt - yxt))
        obj_cand, cxx = objective(cand)
        if obj_cand > obj:
            # Momentum overshoot: restart from the best point.  A plain
            # step with step <= 1/L cannot increase the objective beyond
            # float noise; if noise still wins, hold the iterate.
            t = 1.0
            cand = project(p - step * (pxx - yxt))
            obj_cand, cxx = objective(cand)
            if obj_cand > obj:
                cand, obj_cand, cxx = p, obj, pxx
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = cand + ((t - 1.0) / t_next) * (cand - p)
        decrease = obj - obj_cand
        prev_obj = obj
        p, obj, pxx, t = cand, obj_cand, cxx, t_next
        if decrease <= tol * max(1.0, prev_obj):
            kkt, grad_norm = mapping(p, pxx - yxt)
            if kkt <= KKT_FACTOR * (1.0 + grad_norm):
                converged = True
                break

    if not math.isfinite(kkt):
        kkt, grad_norm = mapping(p, pxx - yxt)

    return FitStage(p, obj, iterations, converged, kkt, grad_norm)


def _gram(x_s: np.ndarray):
    """X_s X_s^T and its largest eigenvalue, the gradient's Lipschitz constant."""
    xxt = x_s @ x_s.T
    return xxt, _spectral_norm_psd(xxt)


def fit_standard(
    x_s, y_s, opts: FitOptions = FitOptions(), gram: tuple | None = None
) -> FitStage:
    """Column-stochastic least squares: min (1/2)||Y_s - P X_s||_F^2.

    Accelerated projected gradient from the uniform matrix; every iterate
    has exactly stochastic columns, so the returned matrix is feasible even
    when not converged.  gram is ``_gram(x_s)`` when the caller already has
    it.
    """
    x_s = np.asarray(x_s, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    if x_s.shape != y_s.shape or x_s.ndim != 2:
        raise ValueError("X_s and Y_s must be equal-shape 2-D arrays")
    n = x_s.shape[0]
    xxt, lipschitz = _gram(x_s) if gram is None else gram
    p0 = np.full((n, n), 1.0 / n)
    return _fista(
        xxt, y_s @ x_s.T, float(np.sum(y_s * y_s)), _project_simplex_columns, p0,
        lipschitz, opts.tol, opts.max_iter,
    )


def fit_infinitesimal(
    pair: SnapshotPair,
    p_s: np.ndarray,
    opts: FitOptions = FitOptions(),
    gram: tuple | None = None,
    mask: ZeroPatternMask | None = None,
) -> FitStage:
    """Zero-column-sum least squares for the infinitesimal part.

    Minimizes (1/2)||R - P_i X_s||_F^2 with R = Y_i - P_s X_i, subject to
    columns of P_i summing to zero and nonnegativity on the zero pattern of
    P_s (entries below the threshold).  Starts from the zero matrix, which
    is feasible.  gram is ``_gram(pair.x.s)`` and mask the zero pattern of
    p_s, when the caller already has them.
    """
    p_s = np.asarray(p_s, dtype=float)
    n = p_s.shape[0]
    x_s, x_i = pair.x.s, pair.x.i
    r = pair.y.i - p_s @ x_i
    xxt, lipschitz = _gram(x_s) if gram is None else gram
    if mask is None:
        mask = ZeroPatternMask.from_standard(p_s, opts.zero_threshold)
    p0 = np.zeros((n, n))
    return _fista(
        xxt, r @ x_s.T, float(np.sum(r * r)), _zero_sum_projector(mask.mask), p0,
        lipschitz, opts.tol, opts.max_iter,
    )


def condition_estimate(xxt: np.ndarray) -> float:
    """Condition number of the Gram X_s X_s^T (collapsed trajectories blow this up)."""
    lam = np.linalg.eigvalsh(xxt)
    low = float(lam[0])
    high = float(lam[-1])
    if low <= 0.0:
        return math.inf
    return high / low


def fit_dtpm(pair: SnapshotPair, opts: FitOptions = FitOptions()) -> FitReport:
    """Run both fitting stages and assemble the validated dual matrix."""
    gram = _gram(pair.x.s)
    stage_s = fit_standard(pair.x.s, pair.y.s, opts, gram)
    mask = ZeroPatternMask.from_standard(stage_s.matrix, opts.zero_threshold)
    stage_i = fit_infinitesimal(pair, stage_s.matrix, opts, gram, mask)
    p = DualMatrix(stage_s.matrix, stage_i.matrix)
    validate_dtpm(p)
    cond = condition_estimate(gram[0])
    return FitReport(
        p=p,
        objective_s=stage_s.objective,
        objective_i=stage_i.objective,
        iterations=(stage_s.iterations, stage_i.iterations),
        converged=(stage_s.converged, stage_i.converged),
        condition_estimate=cond,
        ill_conditioned=bool(cond > ILL_CONDITION_LIMIT),
        mask=mask,
    )
