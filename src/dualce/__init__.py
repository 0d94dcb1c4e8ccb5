"""Dual-number linear algebra and causal-emergence analysis.

Scalars, vectors, and matrices over the dual numbers (eps**2 = 0) with the
lexicographic total order; dual-valued vector and matrix norms with exact
infinitesimal parts; a compact dual SVD; effective information of dual
transition matrices; and a pipeline that detects emergent coarse-grainings
of Markov chains from the infinitesimal parts of Ky Fan norms.
"""

__version__ = "0.1.0"

from .core import (
    CONDITION_LIMIT,
    DualMatrix,
    DualScalar,
    DualVector,
    dm_inverse,
    dm_is_orthogonal,
    dual_abs,
    dual_log2,
    dual_pow,
    dual_root,
    skew,
    sym,
)
from .gateaux import FdEstimate, fd_directional
from .vector_norms import dual_vector_norm, quantize
from .svd import (
    GROUP_TOL,
    RANK_TOL,
    CdsvdResult,
    Decomposition,
    cdsvd,
    decompose,
    group_singular_values,
)
from .matrix_norms import (
    dual_det,
    dual_trace,
    frobenius_norm,
    ky_fan_norm,
    ky_fan_pk_norm,
    nuclear_norm,
    operator_inf_norm,
    operator_one_norm,
    schatten_norm,
    spectral_norm,
)
from .markov import (
    DumbbellConfig,
    delta_gamma,
    dual_effective_information,
    dumbbell_dtpm,
    dumbbell_tpm,
    effective_information,
    is_dynamically_reversible,
    simulate,
    validate_dtpm,
    validate_tpm,
)
from .fitting import (
    FitOptions,
    FitReport,
    FitStage,
    SnapshotPair,
    build_snapshots,
    fit_dtpm,
    fit_infinitesimal,
    fit_standard,
    project_simplex,
    project_zero_sum_masked,
)
from .pipeline import (
    WITH_INFINITESIMAL,
    WITHOUT_INFINITESIMAL,
    CoarseGraining,
    DetectionResult,
    PipelineConfig,
    PipelineResult,
    SweepTable,
    analyze,
    coarse_grain,
    detect_k,
    kmeans,
    norm_sweep,
    run_pipeline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
