"""Estimate a dual transition matrix from simulated trajectories.

``build_snapshots`` turns one run, or several side by side as
``markov.simulate`` returns them, into one pair of dual snapshot matrices.

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
tried against a closed-form lower bound on ||G|| (``_kkt_lower_bound``),
and FISTA projects only when that bound cannot rule out a pass: iterates
and stopping are those of projecting at every test.

A solve ends converged at the first passing test, or unconverged at the
iteration cap or at a held iterate (its restart step rejected too, so every
later iteration would repeat it); either way ``FitStage``'s residuals are
||G|| and ||g|| at the matrix it returns.  ``fit_dtpm``'s ``FitReport``
holds the dual matrix, the two stages' ``FitStage`` records and the Gram's
condition estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import DualMatrix, check_integer, check_real
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


def build_snapshots(trajectory, runs: int = 1) -> SnapshotPair:
    """Snapshot duals of `runs` runs (an integer >= 1) of L >= 3 states each,
    side by side as `markov.simulate` returns them.

    A real run x_1..x_L becomes the dual run (x_j, x_{j+1} - x_j), j < L; a
    DualMatrix run (a simulated DTPM) carries its own infinitesimal part.
    X holds every dual run's columns but its last, and Y all but its first.

    The pair shares no memory with a real trajectory.  A real one is copied
    once, C-ordered, and differenced once by ``np.diff``; a DualMatrix run is
    not copied, since its parts are immutable.  For one run, X and Y are
    views of these, one column apart, so a pair of L-state runs holds about
    2 n L doubles, not the 4 n (L - 2) of four separate parts.  For several
    runs, each of the four parts is one reshape copy.
    """
    if isinstance(trajectory, DualMatrix):
        s, i = trajectory.s, trajectory.i
    else:
        s, i = np.array(trajectory, dtype=float, order="C"), None
        if s.ndim != 2:
            raise ValueError("trajectory must be a 2-D array of state columns")
    check_integer(runs, "runs", 1)
    n, width = s.shape
    if width % runs or width // runs < 3:
        raise ValueError(f"{width} states are not {runs} runs of at least 3 states")
    s = s.reshape(n, runs, -1)
    if i is None:
        i = np.diff(s, axis=2)
        s = s[:, :, :-1]
    else:
        i = i.reshape(n, runs, -1)

    def cut(cols):
        # One run's cut is a view with a wider row stride.  Several runs' is
        # copied C-ordered: a reshaped view would step over the gaps between
        # runs, and the fit multiplies every part.
        parts = (s[:, :, cols], i[:, :, cols])
        if runs > 1:
            parts = map(np.ascontiguousarray, parts)
        return DualMatrix._owned(*(part.reshape(n, -1) for part in parts))

    return SnapshotPair(cut(slice(None, -1)), cut(slice(1, None)))


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


@dataclass(frozen=True)
class FitOptions:
    """Solver settings.  A NaN or negative tol would switch the stopping test
    off, so construction rejects it, as it does a max_iter below 1."""

    tol: float = 1e-10
    max_iter: int = 20000

    def __post_init__(self):
        check_integer(self.max_iter, "FitOptions.max_iter", 1)
        check_real(self.tol, "FitOptions.tol", 0.0)


@dataclass(frozen=True, eq=False)
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
    """Both stages combined into a validated dual transition matrix.

    standard and infinitesimal are the two solves' FitStage records.
    to_dict gives their objectives as objective_s and objective_i, each
    other diagnostic as a [standard, infinitesimal] list, and
    condition_estimate, math.inf for a singular Gram, as None.
    """

    p: DualMatrix
    standard: FitStage
    infinitesimal: FitStage
    condition_estimate: float

    @property
    def iterations(self) -> tuple:
        # perfbench/scaling.py reports this pair as fit_iterations.
        return (self.standard.iterations, self.infinitesimal.iterations)

    def to_dict(self) -> dict:
        s, i = self.standard, self.infinitesimal
        cond = self.condition_estimate
        return {
            "objective_s": s.objective,
            "objective_i": i.objective,
            "iterations": [s.iterations, i.iterations],
            "converged": [s.converged, i.converged],
            "kkt_residual": [s.kkt_residual, i.kkt_residual],
            "gradient_norm": [s.gradient_norm, i.gradient_norm],
            "condition_estimate": cond if math.isfinite(cond) else None,
            "ill_conditioned": bool(cond > ILL_CONDITION_LIMIT),
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


def _kkt_lower_bound(p, g, step, free) -> float:
    """Lower bound on ||G(p)||, G(p) = (p - proj(p - step g)) / step, at a
    feasible p.

    Column by column the set is {u: sum(u) = b, u_j >= 0 where not free},
    and p is in it.  With a = step g, the projection q of p - a has
    (p - q)_j = a_j + tau, one multiplier tau per column, on every free row
    and on every constrained row with p_j - a_j >= tau.  The root equation
    at tau = -min(a) is at most sum(p) - b = 0, because p >= 0 where
    constrained, so tau <= -min(a).  Every row of
    cert = free | (p > a - min(a)) thus has (p - q)_j = a_j + tau, and
    minimizing over tau bounds column j's share of ||G||^2 below by
    sum_cert (g_j - mean_cert g)^2.  G is separable by columns, so these
    terms sum to a lower bound on ||G||^2.  No sort and no prefix sum.
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
    return math.sqrt(float((ones @ dev).sum()))


def _bound_fails(p, g, step, free, limit) -> bool:
    """Whether the lower bound on ||G(p)|| fails the test ||G(p)|| <= limit,
    so the test needs no projection: it clears (1 + KKT_BOUND_MARGIN) limit."""
    return _kkt_lower_bound(p, g, step, free) > (1.0 + KKT_BOUND_MARGIN) * limit


def _fista(xxt, yxt, y_sq, columns: _ColumnSet, p0, lipschitz, tol, max_iter):
    """Monotone FISTA with adaptive restart on the column-projected problem.

    Objective (1/2)||Y - P X||_F^2 expanded through the precomputed Gram
    pieces.  Every accepted iterate is feasible and the objective never
    increases.  Each accepted iterate keeps its product P X X^T, which the
    objective formed, for the restart and stopping-test gradients.

    Stopping rule: once the objective decrease falls under tol * max(1, obj),
    the iterate is tested for the first-order condition
    ||G|| <= KKT_FACTOR (1 + ||g||), G the gradient mapping.  A test that
    ``_bound_fails`` decides fails without projecting.  The solve has two
    exits.  The first passing test returns its iterate, converged.  Otherwise
    the loop ends after max_iter iterations, or after the failed test of a
    held iterate, and returns the last iterate unconverged.  Either way
    kkt_residual and gradient_norm are ||G|| and ||g|| at the returned matrix.
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

    for iterations in range(1, max_iter + 1):
        np.matmul(z, xxt, out=v)
        v -= yxt
        v *= step
        cand = project(np.subtract(z, v, out=v))
        obj_cand, cxx = objective(cand)
        held = False
        if obj_cand > obj:
            # Momentum overshoot: restart from the best point.  A plain
            # step with step <= 1/L cannot increase the objective beyond
            # float noise; if noise still wins, hold the iterate.  Every
            # later iteration would repeat the same two rejected steps, so
            # the solve ends after the held iterate's stopping test.
            t = 1.0
            cand = project(p - step * (pxx - yxt))
            obj_cand, cxx = objective(cand)
            held = obj_cand > obj
            if held:
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
            if not _bound_fails(p, g, step, free, limit):
                kkt = mapping_norm(p, g)
                if kkt <= limit:
                    return FitStage(p, obj, iterations, True, kkt, grad_norm)
        if held:
            break

    g = pxx - yxt
    return FitStage(p, obj, iterations, False, mapping_norm(p, g), float(np.linalg.norm(g)))


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

    R is formed in one n x T buffer, which then holds R * R for ||R||^2 and
    is released before FISTA starts: the solve holds only n x n matrices
    besides the pair.
    """
    p_s = np.asarray(p_s, dtype=float)
    if not np.isfinite(p_s).all():
        raise ValueError("P_s must contain only finite values")
    n = p_s.shape[0]
    x_s = pair.x.s
    r = p_s @ pair.x.i
    np.subtract(pair.y.i, r, out=r)
    rxt = r @ x_s.T
    r_sq = float(np.sum(np.multiply(r, r, out=r)))
    del r
    xxt, lipschitz = _gram(x_s) if gram is None else gram
    p0 = np.zeros((n, n))
    return _fista(
        xxt, rxt, r_sq, _column_projector(p_s == 0.0, 0.0), p0,
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
    p = DualMatrix._owned(stage_s.matrix, stage_i.matrix)
    validate_dtpm(p)
    return FitReport(p, stage_s, stage_i, condition_estimate(gram[0]))
