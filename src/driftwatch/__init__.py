"""Sequential kernel-smoother monitoring of random walks for drift onset.

Modules: ``kernels`` (smoothing kernels and weight integrals), ``seriesgen``
(synthetic series, drift shapes, time designs), ``estimator`` (the one-sided
Nadaraya-Watson smoother and scalings), ``variance`` (nuisance-variance
estimators), ``monitor`` (stopping rules, intervals, streaming),
``limitsim`` (Gaussian limit processes and limit stopping objects),
``calibration`` (ARL curves, coverage, finite-vs-limit comparison),
``optkernel`` (optimal delay and optimal kernel), ``cli`` (command line).
"""

from .kernels import (
    KernelSpec,
    epanechnikov_kernel,
    eval_kernel,
    eval_rescaled,
    gaussian_kernel,
    kernel_by_name,
    laplace_kernel,
    limit_weight_integral,
    load_kernel_csv,
    tabulated_kernel,
    validate_kernel,
    weight_sum,
)
from .seriesgen import (
    DriftSpec,
    GenericAlternative,
    InnovationSpec,
    SeriesSpec,
    TimeDesign,
    TimeSeries,
    alternative_by_name,
    change_point_index,
    design_times,
    draw_innovations,
    drift_value,
    generate,
    load_alternative_csv,
    load_series_csv,
    save_series_csv,
    substream,
)
from .estimator import (
    DegenerateWeightsError,
    DriftwatchError,
    SmootherConfig,
    nw_estimate,
    nw_process,
    scaled_statistic,
    scaling_factor,
)
from .variance import (
    DegenerateVarianceError,
    VarianceEstimate,
    estimate_variance,
    gasser_var,
    naive_var,
    nuisance_free,
    rice_var,
    running_estimates,
)
from .monitor import (
    MonitorConfig,
    MonitoringError,
    StoppingResult,
    StreamMonitor,
    confidence_interval,
    false_alarm_rate,
    run_monitor,
)
from .limitsim import (
    LimitConfig,
    LimitDrift,
    alt_limit_process,
    asymptotic_normed_delay,
    check_km_condition,
    drift_term,
    limit_stop_sample,
    null_limit_process,
    sample_bm,
    sigma_k_sq,
)
from .calibration import (
    CalibrationTable,
    ConservativenessReport,
    FiniteSampleVariant,
    KernelComparison,
    arl_curve,
    conservativeness_check,
    coverage_sim,
    critical_value_for_arl,
    kernel_comparison_curves,
)
from .optkernel import (
    OptimalSolution,
    OptimalityReport,
    completed_kernel,
    optimal_delay,
    optimal_kernel,
    save_solution_csv,
    tau_ratio,
    verify_optimality,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
