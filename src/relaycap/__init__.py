"""Capacity bounds and rate regions for low-power relay networks.

The package studies two networks in the wideband (vanishing SNR per hertz)
regime, where mutual informations collapse to variance-over-noise ratios:

* a single-relay channel with a two-antenna source, whose capacity is known
  and computed here by two independent optimizers (:mod:`relaycap.capacity`);
* a two-relay diamond, whose MAC and broadcast cuts are tabulated and
  cross-checked (:mod:`relaycap.regions`), including the synchronous
  counterexample where common/private messaging cannot reach the outer
  bound (:mod:`relaycap.counterexample`).

:mod:`relaycap.wideband` verifies the limit formulas themselves at finite
bandwidth, and :mod:`relaycap.matrices` holds the small covariance-order
toolbox used throughout.
"""

from .capacity import (
    BindingBound,
    CapacityResult,
    MatrixBoundParams,
    PowerAllocation,
    achievable_rate,
    covariance_bounds,
    cutset_bounds,
    optimize_capacity,
    optimize_covariance_bound,
    phase_fading_capacity,
)
from .channel import (
    ChannelConfig,
    CsiMode,
    Topology,
    angle_between,
    load_config,
)
from .counterexample import CounterexampleReport, run_counterexample
from .matrices import (
    CovBoundReport,
    FiniteJoint,
    LoewnerRelation,
    LoewnerVerdict,
    conditional_cov_bound_check,
    eigenvalues_ascending,
    is_hermitian,
    loewner_compare,
)
from .regions import (
    BeamformingRates,
    BeamformingWeights,
    BroadcastGapReport,
    BroadcastOuterRates,
    CommonPrivateAllocation,
    CommonPrivateRates,
    MacRegionPoint,
    MinPowerResult,
    RatePoint,
    beamforming_condition,
    beamforming_rates,
    broadcast_outer_rates,
    broadcast_region_gap,
    common_private_rates,
    mac_region_point,
    max_min_beam_gain,
    min_power,
)
from .wideband import (
    DEFAULT_BANDWIDTHS,
    ConditionalLimitReports,
    LimitCheckReport,
    check_conditional_limits,
    check_limit_constant_phase,
    check_limit_phase_fading,
    gaussian_scaled_mi,
)

__version__ = "0.1.0"

__all__ = [
    "BindingBound",
    "CapacityResult",
    "MatrixBoundParams",
    "PowerAllocation",
    "achievable_rate",
    "covariance_bounds",
    "cutset_bounds",
    "optimize_capacity",
    "optimize_covariance_bound",
    "phase_fading_capacity",
    "ChannelConfig",
    "CsiMode",
    "Topology",
    "angle_between",
    "load_config",
    "CounterexampleReport",
    "run_counterexample",
    "CovBoundReport",
    "FiniteJoint",
    "LoewnerRelation",
    "LoewnerVerdict",
    "conditional_cov_bound_check",
    "eigenvalues_ascending",
    "is_hermitian",
    "loewner_compare",
    "BeamformingRates",
    "BeamformingWeights",
    "BroadcastGapReport",
    "BroadcastOuterRates",
    "CommonPrivateAllocation",
    "CommonPrivateRates",
    "MacRegionPoint",
    "MinPowerResult",
    "RatePoint",
    "beamforming_condition",
    "beamforming_rates",
    "broadcast_outer_rates",
    "broadcast_region_gap",
    "common_private_rates",
    "mac_region_point",
    "max_min_beam_gain",
    "min_power",
    "DEFAULT_BANDWIDTHS",
    "ConditionalLimitReports",
    "LimitCheckReport",
    "check_conditional_limits",
    "check_limit_constant_phase",
    "check_limit_phase_fading",
    "gaussian_scaled_mi",
    "__version__",
]
