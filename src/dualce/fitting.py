"""Estimate a dual transition matrix from a simulated trajectory.

Two constrained least-squares problems are solved in succession: the standard
part minimizes ||Y_s - P X_s||_F over column-stochastic P, then the
infinitesimal part minimizes ||Y_i - P_s X_i - P_i X_s||_F over matrices
whose columns sum to zero and are nonnegative exactly where P_s == 0, the
zero support ``validate_dtpm`` checks.
Both feasible sets are products of per-column sets {u: sum(u) = b, u_j >= 0
where masked}, b = 1 and b = 0, with one exact sort-and-prefix-sum projection
(``_column_projector``), so an accelerated projected-gradient method (FISTA
with adaptive restart) solves them without external solver dependencies.

FISTA stops when the objective stalls and the gradient mapping
G(P) = (P - proj(P - step g)) / step passes the first-order test
||G|| <= KKT_FACTOR (1 + ||g||).  Most such tests fail, so each is first
tried against a closed-form lower bound on ||G|| that costs no projection
(``_kkt_terms``, a sum of per-column terms).  A column screen tries the
bound first on the SCREEN_COLUMNS columns that carried the largest terms at
the last full evaluation; the bound over every column runs only when the
screen does not rule out a pass, and the projection only when neither does.
Iterates and stopping are those of projecting at every test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import DualMatrix, check_integer
from .markov import validate_dtpm

ILL_CONDITION_LIMIT = 1e10
KKT_FACTOR = 1e-6
# A stopping test is skipped only when the lower bound clears its threshold
# KKT_FACTOR (1 + ||g||) by this relative margin.  The bound and the exact
# mapping norm are formed from the same g, and each is off its real value by
# roundoff of about n eps (L ||P|| + ||g||), L the Lipschitz constant: below
# 1e-12 on the default 85-state fits (L ~ 7, ||P|| < 3), where the computed
# bound exceeded the computed norm by at most 8e-18.  The margin adds at
# least 1e-3 * KKT_FACTOR = 1e-9 to the threshold, a thousand times that
# roundoff, so every skipped test is one the exact norm fails.  The bound is
# within 0.1% of the norm on most failing tests, so a larger margin would
# only project more often.
KKT_BOUND_MARGIN = 1e-3
# Columns whose bound terms ``_bound_fails`` tries before all of them.
SCREEN_COLUMNS = 8


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


class _ColumnSet(NamedTuple):
    """A product of per-column sets {u: sum(u) = b, u_j >= 0 where not free}.

    project maps an n x c matrix to its exact Euclidean projection, a new
    array; free marks the entries without a sign constraint.
    """

    project: Callable[[np.ndarray], np.ndarray]
    free: np.ndarray


def _column_projector(mask: np.ndarray, b: float) -> _ColumnSet:
    """Projection of each column of an n x c matrix onto
    {u: sum(u) = b, u_j >= 0 where mask_j}, built once per mask.

    The multiplier lam solves sum_free (v_j - lam) + sum_masked
    max(v_j - lam, 0) = b.  Breakpoints key_j (v_j where masked, +inf where
    free) are sorted in descending order and the values summed in that
    order, free ones first by index.  With S_j the j-th prefix sum and
    lam_j = (S_j - b) / (j + 1), the cut is rho = #{j: key_j > lam_j} - 1.
    The counted j form a prefix: key_j > lam_j means that
    (S_j - b) - (j + 1) key_j < 0, and over sorted keys that never decreases.
    An all-masked column at b = 0 counts none (key_j is the least value
    lam_j averages), so rho is clamped to 0: lam is the largest breakpoint
    and the column clips to zero, its only feasible point.  Rows of the
    transposed layout hold v's columns, so sorts and prefix sums run along
    contiguous memory.  With no free entry (the simplex) the sorted keys are
    the values, and nothing is gathered or scattered.
    """
    n, c = mask.shape
    counts = np.arange(1, n + 1, dtype=float)
    rows = np.arange(c)
    free_t = ~np.ascontiguousarray(mask.T)
    # A maximum with -inf leaves a value as it is, -0.0 included, so the clip
    # acts on masked entries only.
    lower = np.where(mask, 0.0, -np.inf)
    if free_t.any():
        cols_free, rows_free = np.nonzero(free_t)
        # Each column's free entries, column by column, as flat indices into
        # v, and the slots they take once the keys are sorted: row r starts
        # with as many as column r of v has free entries.
        gather = rows_free * c + cols_free
        slots = np.arange(n) < np.add.reduce(free_t, axis=1, dtype=np.intp)[:, None]
    else:
        gather = slots = None

    def project(v: np.ndarray) -> np.ndarray:
        keys = v.T.copy()
        if gather is not None:
            np.putmask(keys, free_t, np.inf)
        keys.sort(axis=1)
        keys = keys[:, ::-1]
        if gather is None:
            lam = np.add.accumulate(keys, axis=1)
        else:
            lam = keys.copy()
            lam[slots] = np.take(v, gather)
            np.add.accumulate(lam, axis=1, out=lam)
        if b:
            lam -= b
        lam /= counts
        rho = np.add.reduce(keys > lam, axis=1, dtype=np.intp) - 1
        out = v - lam[rows, np.maximum(rho, 0)]
        return np.maximum(out, lower, out=out)

    return _ColumnSet(project, ~mask)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a vector onto {u >= 0, sum(u) = 1}."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_simplex expects a nonempty 1-D vector")
    simplex = _column_projector(np.ones((v.size, 1), dtype=bool), 1.0)
    return simplex.project(v[:, None])[:, 0]


def project_zero_sum_masked(v, mask) -> np.ndarray:
    """Projection of a vector onto {u: sum(u) = 0, u_j >= 0 where mask_j}.

    mask is a boolean array of v's shape.  With mask all False the result
    is v minus its mean; with mask all True it is 0, the only feasible point.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("project_zero_sum_masked expects a nonempty 1-D vector")
    mask = np.asarray(mask)
    if mask.dtype != bool or mask.shape != v.shape:
        raise ValueError("mask must be a boolean array of the vector's shape")
    return _column_projector(mask[:, None], 0.0).project(v[:, None])[:, 0]


# Smallest allowed value of each FitOptions field: the bounds PipelineConfig
# puts on fit_tol and fit_max_iter.
_FIT_MINIMUM = {"tol": 0.0, "max_iter": 1}


@dataclass(frozen=True)
class FitOptions:
    """Solver settings; construction raises ValueError for a tol that is
    not a number, a max_iter that is not an integer (a bool is neither), or a
    value out of range (a NaN or negative tol would switch the stopping test
    off)."""

    tol: float = 1e-10
    max_iter: int = 20000

    def __post_init__(self):
        check_integer(self.max_iter, "FitOptions.max_iter", _FIT_MINIMUM["max_iter"])
        low = _FIT_MINIMUM["tol"]
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError(f"FitOptions.tol must be a number, got {self.tol!r}")
        if not low <= self.tol < math.inf:
            raise ValueError(
                f"FitOptions.tol must be finite and >= {low}, got {self.tol!r}"
            )


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

    def to_dict(self) -> dict:
        return {
            "objective_s": self.objective_s,
            "objective_i": self.objective_i,
            "iterations": list(self.iterations),
            "converged": list(self.converged),
            "condition_estimate": self.condition_estimate,
            "ill_conditioned": self.ill_conditioned,
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


def _kkt_terms(p, g, step, free) -> np.ndarray:
    """Per-column lower bounds on ||G_col(p)||^2, G(p) = (p - proj(p - step g)) / step,
    at a feasible p.

    Column by column the set is {u: sum(u) = b, u_j >= 0 where not free},
    and p is in it.  With a = step g, the projection q of p - a has
    (p - q)_j = a_j + tau, one multiplier tau per column, on every free row
    and on every constrained row with p_j - a_j >= tau.  The root equation
    at tau = -min(a) is at most sum(p) - b = 0, because p >= 0 where
    constrained, so tau <= -min(a).  Every row of
    cert = free | (p > a - min(a)) thus has (p - q)_j = a_j + tau, and
    minimizing over tau bounds column j's share of ||G||^2 below by
    sum_cert (g_j - mean_cert g)^2.  G is separable by columns, so the terms
    of any set of columns sum to a lower bound on ||G||^2.  No sort and no
    prefix sum.
    """
    h = g - np.minimum.reduce(g, axis=0)
    h *= step
    cert = p > h
    cert |= free
    w = cert.astype(float)
    # Column sums as products with a ones row: one BLAS call each.
    ones = np.ones(len(p))
    mean = (ones @ (g * w)) / np.maximum(ones @ w, 1.0)
    dev = g - mean
    dev *= w
    dev *= dev
    return ones @ dev


def _kkt_lower_bound(p, g, step, free) -> float:
    """Lower bound on ||G(p)|| from every column's ``_kkt_terms``."""
    return math.sqrt(float(_kkt_terms(p, g, step, free).sum()))


def _bound_fails(p, g, step, free, limit, screen):
    """Whether a lower bound on ||G(p)|| fails the test ||G(p)|| <= limit,
    so the test needs no projection; returns (fails, screen).

    A bound fails the test when it clears (1 + KKT_BOUND_MARGIN) limit.  The
    bound over the columns in screen, the at most SCREEN_COLUMNS whose terms
    exceeded all others at the last full evaluation, is tried first; the
    bound over every column runs only when that screen does not decide, and
    refreshes it.  screen is None before the first full evaluation, for a
    matrix of at most SCREEN_COLUMNS columns, and after a full evaluation
    whose largest SCREEN_COLUMNS terms alone did not clear the threshold:
    such a screen would most likely fail the next test too, and cost a
    bound for nothing.  The cut is read off a sort, as the projection
    sorts: ``np.argsort`` pages in a kernel of its own, 0.26 MB of peak RSS
    in an 85-state fit.
    """
    threshold = (1.0 + KKT_BOUND_MARGIN) * limit
    if screen is not None:
        if _kkt_lower_bound(p[:, screen], g[:, screen], step, free[:, screen]) > threshold:
            return True, screen
    terms = _kkt_terms(p, g, step, free)
    screen = None
    if len(terms) > SCREEN_COLUMNS:
        ranked = np.sort(terms)
        if math.sqrt(float(ranked[-SCREEN_COLUMNS:].sum())) > threshold:
            screen = np.flatnonzero(terms > ranked[-SCREEN_COLUMNS - 1])
    return math.sqrt(float(terms.sum())) > threshold, screen


def _fista(xxt, yxt, y_sq, columns: _ColumnSet, p0, lipschitz, tol, max_iter):
    """Monotone FISTA with adaptive restart on the column-projected problem.

    Objective (1/2)||Y - P X||_F^2 expanded through the precomputed Gram
    pieces.  Every accepted iterate is feasible and the objective never
    increases.  Each accepted iterate keeps its product P X X^T, which the
    objective formed, for the restart and stopping-test gradients.

    Stopping rule: once the objective decrease falls under tol * max(1, obj),
    the iterate is tested for the first-order condition
    ||G|| <= KKT_FACTOR (1 + ||g||), G the gradient mapping; the first pass
    stops the solve, or max_iter does.  A test that ``_bound_fails`` decides
    fails without projecting.  kkt_residual and gradient_norm report the
    last test, or the final iterate if no test ran; if the last test was
    decided by a bound, its mapping is projected once at the end.
    """
    project, free = columns
    buf = np.empty_like(p0)

    def objective(p):
        pxx = p @ xxt
        cross = float(np.add.reduce(np.multiply(p, yxt, out=buf), axis=None))
        quad = float(np.add.reduce(np.multiply(pxx, p, out=buf), axis=None))
        return 0.5 * (y_sq - 2.0 * cross + quad), pxx

    def mapping_norm(p, g):
        return float(np.linalg.norm((p - project(p - step * g)) / step))

    obj, pxx = objective(p0)
    if lipschitz <= 0.0:
        # Gradient is constant zero; the start point is already optimal.
        return FitStage(p0, obj, 0, True, 0.0, float(np.linalg.norm(pxx - yxt)))

    step = 1.0 / (lipschitz * (1.0 + 1e-9))
    p = z = p0
    momentum = np.empty_like(p0)
    v = np.empty_like(p0)
    t = 1.0
    iterations = 0
    converged = False
    kkt = math.inf
    grad_norm = math.inf
    unprojected = None  # (p, g) of the last test, when a bound decided it
    screen = None

    for it in range(1, max_iter + 1):
        iterations = it
        np.matmul(z, xxt, out=v)
        v -= yxt
        v *= step
        cand = project(np.subtract(z, v, out=v))
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
        np.subtract(cand, p, out=momentum)
        momentum *= (t - 1.0) / t_next
        momentum += cand
        z = momentum
        decrease = obj - obj_cand
        prev_obj = obj
        p, obj, pxx, t = cand, obj_cand, cxx, t_next
        if decrease <= tol * max(1.0, prev_obj):
            g = pxx - yxt
            grad_norm = float(np.linalg.norm(g))
            limit = KKT_FACTOR * (1.0 + grad_norm)
            fails, screen = _bound_fails(p, g, step, free, limit, screen)
            if fails:
                unprojected = (p, g)
            else:
                unprojected = None
                kkt = mapping_norm(p, g)
                if kkt <= limit:
                    converged = True
                    break

    if unprojected is not None:
        kkt = mapping_norm(*unprojected)
    elif not math.isfinite(kkt):
        g = pxx - yxt
        kkt, grad_norm = mapping_norm(p, g), float(np.linalg.norm(g))

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
    it.  A non-finite entry of x_s or y_s raises ValueError.
    """
    x_s = np.asarray(x_s, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    if x_s.shape != y_s.shape or x_s.ndim != 2:
        raise ValueError("X_s and Y_s must be equal-shape 2-D arrays")
    if not (np.isfinite(x_s).all() and np.isfinite(y_s).all()):
        raise ValueError("X_s and Y_s must contain only finite values")
    n = x_s.shape[0]
    xxt, lipschitz = _gram(x_s) if gram is None else gram
    p0 = np.full((n, n), 1.0 / n)
    simplex = _column_projector(np.ones((n, n), dtype=bool), 1.0)
    return _fista(
        xxt, y_s @ x_s.T, float(np.sum(y_s * y_s)), simplex, p0,
        lipschitz, opts.tol, opts.max_iter,
    )


def fit_infinitesimal(
    pair: SnapshotPair,
    p_s: np.ndarray,
    opts: FitOptions = FitOptions(),
    gram: tuple | None = None,
) -> FitStage:
    """Zero-column-sum least squares for the infinitesimal part.

    Minimizes (1/2)||R - P_i X_s||_F^2 with R = Y_i - P_s X_i, subject to
    columns of P_i summing to zero and nonnegativity exactly where
    P_s == 0, the zero support ``validate_dtpm`` checks.  Starts from the
    zero matrix, which is feasible.  gram is ``_gram(pair.x.s)``, when the
    caller already has it.  A non-finite entry of p_s raises ValueError.
    """
    p_s = np.asarray(p_s, dtype=float)
    if not np.isfinite(p_s).all():
        raise ValueError("P_s must contain only finite values")
    n = p_s.shape[0]
    x_s, x_i = pair.x.s, pair.x.i
    r = pair.y.i - p_s @ x_i
    xxt, lipschitz = _gram(x_s) if gram is None else gram
    p0 = np.zeros((n, n))
    return _fista(
        xxt, r @ x_s.T, float(np.sum(r * r)),
        _column_projector(p_s == 0.0, 0.0), p0,
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
    stage_i = fit_infinitesimal(pair, stage_s.matrix, opts, gram)
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
    )
