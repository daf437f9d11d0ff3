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

import importlib

# Each public name, by the layer that defines it. A layer is imported the
# first time one of its names is read (PEP 562), so ``import relaycap``
# loads no layer and no numpy, and a program pays only for the layers it
# uses.
_EXPORTS = {
    "capacity": (
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
    ),
    "channel": (
        "ChannelConfig",
        "CsiMode",
        "Topology",
        "angle_between",
        "load_config",
    ),
    "counterexample": (
        "CounterexampleReport",
        "run_counterexample",
    ),
    "matrices": (
        "CovBoundReport",
        "FiniteJoint",
        "LoewnerRelation",
        "LoewnerVerdict",
        "conditional_cov_bound_check",
        "eigenvalues_ascending",
        "is_hermitian",
        "loewner_compare",
    ),
    "regions": (
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
    ),
    "wideband": (
        "DEFAULT_BANDWIDTHS",
        "ConditionalLimitReports",
        "LimitCheckReport",
        "check_conditional_limits",
        "check_limit_constant_phase",
        "check_limit_phase_fading",
        "gaussian_scaled_mi",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(("_search", *_EXPORTS))

__version__ = "0.1.0"

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
