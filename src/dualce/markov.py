"""Transition matrices, effective information, and the dumbbell benchmark.

A TPM here is column-stochastic: column k holds the distribution of the next
state given current state k, so 1^T P = 1^T and P >= O.  A dual TPM pairs a
TPM standard part with an infinitesimal part whose columns sum to zero and
whose entries are nonnegative wherever the standard entry vanishes.

Effective information treats the columns as interventions over a uniform
prior; zero-probability entries contribute exactly 0, by branch rather than
by flooring.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DualMatrix, DualScalar, check_integer, check_square
from .svd import Decomposition

STOCHASTIC_TOL = 1e-12
# is_dynamically_reversible's bound on |P_s - permutation| and on |P_i|.
REVERSIBILITY_TOL = 1e-9

_LN2 = math.log(2.0)


def validate_tpm(p: np.ndarray) -> np.ndarray:
    """Check that p is square, finite, entrywise >= 0, with column sums 1 to
    STOCHASTIC_TOL."""
    p = np.asarray(p, dtype=float)
    check_square(p, "a TPM")
    if not np.all(np.isfinite(p)):
        raise ValueError("TPM must contain only finite values")
    if np.min(p) < 0.0:
        raise ValueError(f"TPM has a negative entry: {np.min(p)}")
    col_err = np.max(np.abs(p.sum(axis=0) - 1.0))
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
    col_err = np.max(np.abs(p.i.sum(axis=0)))
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
    log2 n at permutations, 0 when all columns are identical.  A negative or
    non-finite entry raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    check_square(p, "effective_information")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("effective_information needs finite, nonnegative entries")
    n = p.shape[0]
    rows = p.sum(axis=1)
    jj, _ = np.nonzero(p > 0.0)
    vals = p[p > 0.0]
    if vals.size == 0:
        return 0.0
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
    entry of P_s raises ValueError.
    """
    check_square(p, "dual_effective_information")
    p_s, p_i = p.s, p.i
    n = p_s.shape[0]
    ei_s = effective_information(p_s)

    rows_s = p_s.sum(axis=1)
    rows_i = p_i.sum(axis=1)
    support = p_s > 0.0
    jj, _ = np.nonzero(support)
    vals_s = p_s[support]
    vals_i = p_i[support]
    term1 = 0.0
    if vals_s.size:
        term1 = float(
            np.sum(
                vals_i / _LN2
                + vals_i * np.log2(vals_s)
                - (vals_s / _LN2) * (rows_i[jj] / rows_s[jj])
            )
        )
    live = rows_s > 0.0
    term2 = 0.0
    if np.any(live):
        term2 = float(np.sum(p_i[live, :] * np.log2(rows_s[live] / n)[:, None]))
    return DualScalar(ei_s, (term1 - term2) / n)


def _is_permutation(m: np.ndarray) -> bool:
    """Whether the square m is within REVERSIBILITY_TOL of a permutation."""
    ones = m > 0.5
    if np.max(np.abs(m - ones)) > REVERSIBILITY_TOL:
        return False
    return bool(
        np.all(ones.sum(axis=0) == 1) and np.all(ones.sum(axis=1) == 1)
    )


def is_dynamically_reversible(p: DualMatrix) -> bool:
    """Whether the dual inverse of a dual TPM is itself a dual TPM.

    Decided by the characterization: exactly when P_s is a permutation and
    P_i = O, both to REVERSIBILITY_TOL.  Nothing is inverted.
    """
    check_square(p, "reversibility")
    return _is_permutation(p.s) and float(np.max(np.abs(p.i))) <= REVERSIBILITY_TOL


@dataclass(frozen=True)
class DumbbellConfig:
    """Five-block chain topology: far - near - bar - near - far.

    Defaults give the 85-node benchmark (25 + 15 + 5 + 15 + 25).  Couplings
    exist only between adjacent blocks; coupling_density is the fraction of
    cross-block entries made nonzero and coupling_scale bounds their raw
    magnitude before column normalization.  A block size that is not an
    integer >= 1 (a bool is not one) raises ValueError, as do a seed that is
    not an integer >= 0 and a coupling that is not a real number (a bool is
    not one) or is out of range.
    """

    far_weight: int = 25
    near_weight: int = 15
    bar: int = 5
    coupling_density: float = 0.1
    coupling_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, low in (("far_weight", 1), ("near_weight", 1), ("bar", 1), ("seed", 0)):
            check_integer(getattr(self, name), name, low)
        for name in ("coupling_density", "coupling_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 0.0 <= self.coupling_density <= 1.0:
            raise ValueError("coupling_density must be in [0, 1]")
        if not 0.0 < self.coupling_scale < math.inf:
            raise ValueError("coupling_scale must be finite and positive")

    @property
    def block_sizes(self) -> tuple:
        return (
            self.far_weight,
            self.near_weight,
            self.bar,
            self.near_weight,
            self.far_weight,
        )

    @property
    def n(self) -> int:
        return 2 * self.far_weight + 2 * self.near_weight + self.bar


def dumbbell_tpm(cfg: DumbbellConfig) -> np.ndarray:
    """Column-stochastic dumbbell chain, deterministic per cfg.seed.

    Each of the five diagonal blocks is dense with random positive weights;
    adjacent blocks couple in both directions through a sparse random
    pattern.  Columns are normalized at the end.
    """
    rng = np.random.default_rng(cfg.seed)
    sizes = cfg.block_sizes
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    n = cfg.n
    m = np.zeros((n, n))

    for b, size in enumerate(sizes):
        a = offsets[b]
        m[a : a + size, a : a + size] = rng.uniform(0.0, 1.0, size=(size, size))

    for b in range(len(sizes) - 1):
        ra, rb = offsets[b], offsets[b + 1]
        ca, cb = offsets[b + 1], offsets[b + 2]
        for rows, cols in (((ra, rb), (ca, cb)), ((ca, cb), (ra, rb))):
            shape = (rows[1] - rows[0], cols[1] - cols[0])
            mask = rng.random(size=shape) < cfg.coupling_density
            weights = rng.uniform(0.0, cfg.coupling_scale, size=shape)
            m[rows[0] : rows[1], cols[0] : cols[1]] = np.where(mask, weights, 0.0)

    m /= m.sum(axis=0, keepdims=True)
    return m


def dumbbell_dtpm(cfg: DumbbellConfig) -> DualMatrix:
    """The dumbbell chain M drifting toward its five-class chain T.

    B keeps M's diagonal blocks, drops every cross-block entry and
    renormalises the columns; T replaces each column of B by the mean of
    B's columns over the same block, so T is lumpable by block and
    decoupled.  The result is the DTPM M + eps (T - M): its infinitesimal
    columns sum to zero and T - M >= 0 wherever M = 0, so M + t (T - M) is
    a TPM for t in [0, 1].
    """
    m = dumbbell_tpm(cfg)
    labels = np.repeat(np.arange(len(cfg.block_sizes)), cfg.block_sizes)
    b = np.where(labels[:, None] == labels[None, :], m, 0.0)
    b /= b.sum(axis=0, keepdims=True)
    t = np.empty_like(b)
    for block in range(len(cfg.block_sizes)):
        cols = labels == block
        t[:, cols] = b[:, cols].mean(axis=1, keepdims=True)
    return DualMatrix(m, t - m)


def simulate(m, x1: np.ndarray, t: int):
    """Propagate x_{t+1} = M x_t; returns the n x (T+2) matrix of x_1..x_{T+2}.

    A DualMatrix M (a DTPM) is propagated in dual arithmetic from
    x_1 + 0 eps, so the result is a DualMatrix whose infinitesimal columns
    are each state's first-order response to the drift M_i.
    """
    if isinstance(m, DualMatrix):
        validate_dtpm(m)
        m_s, m_i = m.s, m.i
    else:
        m_s, m_i = validate_tpm(m), None
    x1 = np.asarray(x1, dtype=float)
    if x1.shape != (m_s.shape[0],):
        raise ValueError(f"x1 must have shape ({m_s.shape[0]},), got {x1.shape}")
    if (
        not np.isfinite(x1).all()
        or np.min(x1) < 0.0
        or abs(float(x1.sum()) - 1.0) > 1e-10
    ):
        raise ValueError("x1 must be a probability vector")
    check_integer(t, "t", 1)
    out = np.empty((m_s.shape[0], t + 2))
    out[:, 0] = x1
    for step in range(1, t + 2):
        out[:, step] = m_s @ out[:, step - 1]
    if m_i is None:
        return out
    out_i = np.zeros_like(out)
    for step in range(1, t + 2):
        out_i[:, step] = m_s @ out_i[:, step - 1] + m_i @ out[:, step - 1]
    return DualMatrix(out, out_i)


def delta_gamma(p: np.ndarray | Decomposition, k: int, p_exp: float) -> float:
    """Vague causal-emergence degree (1/k)||P||_(k,p)^p - (1/n)||P||_Sp^p.

    Uses the real Ky Fan p-k and Schatten p norms of the matrix, so both
    terms are sums of sigma^p: over the first k singular values and over
    all of them.  A Decomposition supplies the singular values of its
    standard part.  Identically zero at k = n and at matrices with all
    singular values equal.
    """
    if not isinstance(p, Decomposition):
        p = np.asarray(p, dtype=float)
    check_square(p, "delta_gamma")
    n = p.shape[0]
    check_integer(k, "k", 1, n)
    p_exp = float(p_exp)
    if not 1.0 <= p_exp < 2.0:
        raise ValueError(f"p must be in [1, 2), got {p_exp}")
    sigma = p.s if isinstance(p, Decomposition) else np.linalg.svd(p, compute_uv=False)
    powered = sigma**p_exp
    return float(np.sum(powered[:k]) / k - np.sum(powered) / n)


def matrix_to_dict(m: np.ndarray) -> dict:
    """JSON-ready payload: shape plus row-major values."""
    m = np.asarray(m, dtype=float)
    return {"shape": list(m.shape), "values": m.ravel(order="C").tolist()}


def matrix_from_dict(d: dict) -> np.ndarray:
    shape = tuple(d["shape"])
    return np.asarray(d["values"], dtype=float).reshape(shape, order="C")


def write_matrix_csv(path, m: np.ndarray) -> None:
    """One matrix per file, 17 significant digits so values round-trip."""
    m = np.asarray(m, dtype=float)
    with open(path, "w", newline="") as fh:
        for row in np.atleast_2d(m):
            fh.write(",".join("%.17g" % v for v in row.tolist()))
            fh.write("\n")


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    return np.asarray(rows, dtype=float)
