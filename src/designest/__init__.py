"""Design-based estimation for randomized experiments under arbitrary
assignment mechanisms, including network interference."""

from .bounds import (
    VarianceBound,
    aronow_samii_bound,
    build_bound,
    certify_bound,
    custom_bound,
    neyman_bound_crd,
    psd_clip,
)
from .designs import (
    AssignmentRealization,
    BernoulliDesign,
    ClusteredDesign,
    CompletelyRandomizedDesign,
    CustomDesign,
    Design,
    StratifiedDesign,
    SupportTable,
    build_design,
    stream_rng,
)
from .harness import (
    MetricsTable,
    SimConfig,
    fine_strata,
    impute_potential_outcomes,
    preprocess_covariates,
    run_simulation,
)
from .linear import (
    EstimateReport,
    ExperimentData,
    LinearFit,
    check_interpretation,
    estimate_linear,
    estimate_report,
    normal_ci,
    plugin_varbound,
    z_vector,
)
from .model_assisted import (
    ImputationModel,
    OptimizerConfig,
    fit_qmle,
    no_harm_alpha,
    no_harm_gr,
    opt_gr_linear,
    opt_gr_logit,
    opt_i_gr,
    qmle_gr,
    theoretical_asy_variance,
)
from .moments import (
    DesignMoments,
    SecondOrderTensor,
    analytic_bernoulli_moments,
    crd_first_order_matrix,
    design_complexity,
    exact_moments,
    largest_eigenvalue,
    mc_moments,
    second_order_tensor,
    tensor_sigma_max_oracle,
    tensor_slice_norm_bound,
)
from .network import (
    ExposureRules,
    InterferenceGraph,
    derive_exposure_design,
    exposure_map,
    positivity_report,
    standard_binary_exposure_rules,
)

__version__ = "0.1.0"
