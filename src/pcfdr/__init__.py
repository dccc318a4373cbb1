"""Multiple testing of partial conjunction hypotheses with (weighted) FDR
control, replicability analysis for meta-analysis, and a Monte Carlo
verification harness."""

from .combine import (
    BONFERRONI,
    DEFAULT_LAMBDA,
    FISHER,
    HOMMEL,
    SIMES,
    STOUFFER,
    CombiningMethod,
    combine_pvalues,
    simes_storey,
    storey_pi0,
)
from .numerics import chi_square_survival, std_normal_cdf, std_normal_quantile
from .partial_conjunction import pc_path, pc_pvalue, pc_pvalues
from .pc_testing import (
    GroupLayout,
    WeightScheme,
    compute_pc_pvalues,
    realized_weighted_fdp,
)
from .procedures import (
    IDENTITY,
    RECIPROCAL_SUM,
    RejectionSet,
    ShapeFunction,
    ThresholdCollection,
    adjusted_pvalues,
    step_up,
    weighted_volume,
)
from .replicability import (
    ReplicabilityReport,
    SelectionRule,
    khat_bounds,
    realized_replicability_error,
    select_features,
)
from .simulation import (
    McEstimate,
    SimulationScenario,
    dcc_probe,
    gen_meta_matrix,
    mc_fdr_pc,
    mc_replicability_error,
)

__version__ = "0.1.0"
