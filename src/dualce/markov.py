"""Transition matrices, effective information, and the dumbbell benchmark.

A TPM here is column-stochastic: column k holds the distribution of the next
state given current state k, so 1^T P = 1^T and P >= O.  A dual TPM pairs a
TPM standard part with an infinitesimal part whose columns sum to zero and
whose entries are nonnegative wherever the standard entry vanishes.

Effective information treats the columns as interventions over a uniform
prior; zero-probability entries contribute exactly 0, by branch rather than
by flooring.

`simulate` runs one start or many in one call, the runs side by side in the
layout `fitting.build_snapshots` splits with its `runs` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _LN2, DualMatrix, DualScalar, check_integer, check_real, check_square

STOCHASTIC_TOL = 1e-12
# DumbbellConfig's lower bound on each block size, which PipelineConfig
# checks its copies against.
DUMBBELL_MINIMUM = {"far_weight": 1, "near_weight": 1, "bar": 1}
# _block_chain's couplings between adjacent blocks: the fraction of
# cross-block entries made nonzero, and the bound on their raw magnitude
# before column normalization.
COUPLING_DENSITY = 0.1
COUPLING_SCALE = 0.05


def _real_square(p, name: str) -> np.ndarray:
    """p as a float array; raises ValueError naming the function unless p is
    an n x n real matrix with n >= 1.  A DualVector or DualMatrix is refused
    here: its entries are dual numbers, which float() cannot read."""
    try:
        p = np.asarray(p, dtype=float)
    except TypeError:
        raise ValueError(f"{name} needs a real matrix, got a {type(p).__name__}") from None
    check_square(p, name)
    if p.shape[0] == 0:
        raise ValueError(f"{name} needs at least one state, got a 0 x 0 matrix")
    return p


def validate_tpm(p: np.ndarray) -> np.ndarray:
    """Check that p is square, nonempty, finite, entrywise >= 0, with column
    sums 1 to STOCHASTIC_TOL."""
    p = _real_square(p, "validate_tpm")
    if not np.isfinite(p).all():
        raise ValueError("TPM must contain only finite values")
    if p.min() < 0.0:
        raise ValueError(f"TPM has a negative entry: {p.min()}")
    col_err = np.abs(p.sum(axis=0) - 1.0).max()
    if col_err > STOCHASTIC_TOL:
        raise ValueError(f"TPM columns must sum to 1 (max error {col_err:.3e})")
    return p


def validate_dtpm(p: DualMatrix) -> DualMatrix:
    """Check the dual-TPM invariants.

    Standard part is a valid TPM; infinitesimal columns sum to zero (both
    sums to STOCHASTIC_TOL); the infinitesimal part is nonnegative wherever
    the standard part is exactly zero (quantize fitted inputs before
    validating).
    """
    validate_tpm(p.s)
    col_err = np.abs(p.i.sum(axis=0)).max()
    if col_err > STOCHASTIC_TOL:
        raise ValueError(
            f"infinitesimal columns must sum to 0 (max error {col_err:.3e})"
        )
    zero_support = p.s == 0.0
    if np.any(p.i[zero_support] < 0.0):
        worst = np.min(p.i[zero_support])
        raise ValueError(
            f"infinitesimal part must be >= 0 where the standard part is 0 "
            f"(worst entry {worst:.3e})"
        )
    return p


def effective_information(p: np.ndarray) -> float:
    """EI of an n x n column-stochastic matrix, uniform intervention prior.

    (1/n) sum over positive entries of P_jk (log2 P_jk - log2(rowsum_j / n)).
    log2 n at permutations, 0 when all columns are identical or all zero.
    A negative or non-finite entry, or n = 0, raises ValueError.
    """
    p = _real_square(p, "effective_information")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("effective_information needs finite, nonnegative entries")
    n = p.shape[0]
    rows = p.sum(axis=1)
    jj, _ = np.nonzero(p > 0.0)
    vals = p[p > 0.0]
    total = float(np.sum(vals * (np.log2(vals) - np.log2(rows[jj] / n))))
    return total / n


def dual_effective_information(p: DualMatrix) -> DualScalar:
    """Dual-valued EI of an n x n dual TPM.

    Standard part is effective_information(P_s).  The infinitesimal part
    sums, over entries with [P_s]_jk > 0,
        [P_i]_jk / ln2 + [P_i]_jk log2 [P_s]_jk
        - ([P_s]_jk / ln2) (rowsum_i)_j / (rowsum_s)_j
    then subtracts [P_i]_jk log2((rowsum_s)_j / n) over all k in rows with
    (rowsum_s)_j > 0, all divided by n.  Entries outside these index sets
    contribute 0, matching the standard part's log convention.  A negative
    entry of P_s, or n = 0, raises ValueError.

    An entry with [P_s]_jk = 0 < [P_i]_jk = a also gives 0 in the first sum,
    the value eps^2 = 0 gives, though there the one-sided Gateaux derivative
    of EI along P_i is -inf: the entry adds t a log2(t a) / n to EI, so the
    finite-difference quotients fall by log2(10) sum(a) / n per decade of t
    and never converge.  Less those entries' a log2(t a) / n, they converge
    to this infinitesimal part.
    """
    check_square(p, "dual_effective_information")
    p_s, p_i = _real_square(p.s, "dual_effective_information"), p.i
    n = p_s.shape[0]
    ei_s = effective_information(p_s)

    rows_s = p_s.sum(axis=1)
    rows_i = p_i.sum(axis=1)
    support = p_s > 0.0
    jj, _ = np.nonzero(support)
    vals_s = p_s[support]
    vals_i = p_i[support]
    term1 = np.sum(
        vals_i / _LN2
        + vals_i * np.log2(vals_s)
        - (vals_s / _LN2) * (rows_i[jj] / rows_s[jj])
    )
    live = rows_s > 0.0
    term2 = np.sum(p_i[live, :] * np.log2(rows_s[live] / n)[:, None])
    return DualScalar(ei_s, float(term1 - term2) / n)


def is_dynamically_reversible(p: DualMatrix) -> bool:
    """Whether the dual inverse of a dual TPM is itself a dual TPM.

    Decided exactly by the characterization, with no tolerance: every entry
    of P_s is 0.0 or 1.0, each row and each column of P_s holds one 1.0,
    and every entry of P_i is 0.0.  A -0.0 counts as zero in both parts.
    Nothing is inverted.  A 0 x 0 input or a non-DTPM raises ValueError.
    """
    check_square(p, "reversibility")
    p_s = _real_square(p.s, "reversibility")
    validate_dtpm(p)
    ones = p_s == 1.0
    return bool(
        np.all(ones | (p_s == 0.0))
        and np.all(ones.sum(axis=0) == 1)
        and np.all(ones.sum(axis=1) == 1)
        and not p.i.any()
    )


@dataclass(frozen=True)
class DumbbellConfig:
    """Five-block chain topology: far - near - bar - near - far.

    Defaults give the 85-node benchmark (25 + 15 + 5 + 15 + 25).  Couplings
    exist only between adjacent blocks, at COUPLING_DENSITY and
    COUPLING_SCALE."""

    far_weight: int = 25
    near_weight: int = 15
    bar: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, low in {**DUMBBELL_MINIMUM, "seed": 0}.items():
            check_integer(getattr(self, name), name, low)

    @property
    def block_sizes(self) -> tuple:
        far, near = self.far_weight, self.near_weight
        return (far, near, self.bar, near, far)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)


def _blocks(sizes) -> list:
    """Each block's slice of the states, the blocks laid out in order."""
    stops = np.cumsum(sizes).tolist()
    return [slice(stop - size, stop) for size, stop in zip(sizes, stops)]


def _block_chain(sizes, rng: np.random.Generator) -> np.ndarray:
    """Column-stochastic chain of dense random diagonal blocks of these
    sizes, adjacent blocks coupled both ways: each coupling block draws its
    mask at COUPLING_DENSITY, then its weights below COUPLING_SCALE."""
    blocks = _blocks(sizes)
    n = sum(sizes)
    m = np.zeros((n, n))
    for block in blocks:
        m[block, block] = rng.uniform(0.0, 1.0, size=m[block, block].shape)
    for first, second in zip(blocks, blocks[1:]):
        for rows, cols in ((first, second), (second, first)):
            shape = m[rows, cols].shape
            mask = rng.random(size=shape) < COUPLING_DENSITY
            weights = rng.uniform(0.0, COUPLING_SCALE, size=shape)
            m[rows, cols] = np.where(mask, weights, 0.0)
    m /= m.sum(axis=0, keepdims=True)
    return m


def _lumping_drift(m: np.ndarray, sizes) -> np.ndarray:
    """T - M, T the lumped chain of the block chain M: M's diagonal blocks,
    columns renormalised, each column replaced by its block's mean column."""
    blocks = _blocks(sizes)
    b = np.zeros_like(m)
    for block in blocks:
        b[block, block] = m[block, block]
    b /= b.sum(axis=0, keepdims=True)
    t = np.empty_like(b)
    for block in blocks:
        # An F-ordered copy sums its columns in order, as the pinned bytes do.
        t[:, block] = np.asfortranarray(b[:, block]).mean(axis=1, keepdims=True)
    return t - m


def dumbbell_tpm(cfg: DumbbellConfig) -> np.ndarray:
    """Column-stochastic dumbbell chain, deterministic per cfg.seed: the
    block chain of cfg.block_sizes, five dense diagonal blocks with sparse
    couplings between adjacent blocks."""
    return _block_chain(cfg.block_sizes, np.random.default_rng(cfg.seed))


def dumbbell_dtpm(cfg: DumbbellConfig) -> DualMatrix:
    """The dumbbell chain M drifting toward its lumped five-class chain T:
    the DTPM M + eps (T - M), whose infinitesimal columns sum to zero with
    T - M >= 0 wherever M = 0, so M + t (T - M) is a TPM for t in [0, 1]."""
    m = dumbbell_tpm(cfg)
    return DualMatrix(m, _lumping_drift(m, cfg.block_sizes))


def simulate(m, x1: np.ndarray, t: int):
    """Propagate x_{t+1} = M x_t from one start or from r starts.

    x1 is one start (a vector of length n) or r starts (the columns of an
    n x r matrix), each a probability vector.  The result holds each run's
    x_1..x_{T+2} as T + 2 columns, the runs side by side: n x r(T+2).  The
    chain is validated once per call, and each step is one stacked
    matrix-vector product over the r runs, so every run is bit for bit the
    run simulated alone.

    A DualMatrix M (a DTPM) is propagated in dual arithmetic from
    x_1 + 0 eps, so the result is a DualMatrix whose infinitesimal columns
    are each state's first-order response to the drift M_i.
    """
    if isinstance(m, DualMatrix):
        validate_dtpm(m)
        m_s, m_i = m.s, m.i
    else:
        m_s, m_i = validate_tpm(m), None
    n = m_s.shape[0]
    x1 = np.asarray(x1, dtype=float)
    if x1.ndim not in (1, 2) or x1.shape[0] != n or x1.size == 0:
        raise ValueError(f"x1 must be a vector or columns of length {n}, got {x1.shape}")
    starts = x1.reshape(n, -1).T
    # NaN or +inf fails a start's sum test, and -inf the sign test first.
    if starts.min() < 0.0 or not (np.abs(starts.sum(axis=1) - 1.0) <= 1e-10).all():
        raise ValueError("every start in x1 must be a probability vector")
    check_integer(t, "t", 1)
    # states[step, run] is that run's state at that step, an n x 1 column.
    states = np.empty((t + 2, len(starts), n, 1))
    states[0, :, :, 0] = starts
    for step in range(1, t + 2):
        np.matmul(m_s, states[step - 1], out=states[step])

    def side_by_side(a):
        return a[..., 0].transpose(2, 1, 0).reshape(n, -1)

    if m_i is None:
        return side_by_side(states)
    drift = np.zeros_like(states)
    for step in range(1, t + 2):
        np.matmul(m_s, drift[step - 1], out=drift[step])
        drift[step] += m_i @ states[step - 1]
    # One run's reshape is an F-ordered view: C-order it for the fit's products.
    parts = (np.ascontiguousarray(side_by_side(a)) for a in (states, drift))
    return DualMatrix._owned(*parts)


def delta_gamma(p: np.ndarray, k: int, p_exp: float) -> float:
    """Vague causal-emergence degree (1/k)||P||_(k,p)^p - (1/n)||P||_Sp^p.

    Uses the real Ky Fan p-k and Schatten p norms of the real matrix P, so
    both terms are sums of sigma^p: over the first k singular values and
    over all of them.  Identically zero at k = n and at matrices with all
    singular values equal.
    """
    p = _real_square(p, "delta_gamma")
    n = p.shape[0]
    check_integer(k, "k", 1, n)
    p_exp = check_real(p_exp, "p_exp", 1.0, 2.0)
    powered = np.linalg.svd(p, compute_uv=False) ** p_exp
    return float(np.sum(powered[:k]) / k - np.sum(powered) / n)


def matrix_to_dict(m: np.ndarray) -> dict:
    """JSON-ready payload: shape plus row-major values."""
    m = np.asarray(m, dtype=float)
    return {"shape": list(m.shape), "values": m.ravel(order="C").tolist()}


def matrix_from_dict(d: dict) -> np.ndarray:
    shape = tuple(d["shape"])
    return np.asarray(d["values"], dtype=float).reshape(shape, order="C")


def write_matrix_csv(path, m: np.ndarray, header: str = "") -> None:
    """One matrix per file, 17 significant digits so values round-trip,
    under an optional header line."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, m, fmt="%.17g", delimiter=",", header=header, comments="")


def read_matrix_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)
