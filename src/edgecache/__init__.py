"""Latency-storage tradeoff analysis for cache-aided wireless edge networks.

Exact-rational delivery-time bounds and envelopes, concrete caching
policies, a finite-SNR Monte-Carlo simulator for the delivery schemes, and
numerical checks of the converse's linear-algebra identities.

The names below are re-exported lazily (PEP 562): each loads its module,
and numpy where that needs it, on first access.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("bounds", "caching", "converse", "errors", "model", "phy")
_EXPORTS = {
    "bounds": ("CsiMode", "NdtPoint", "TradeoffCurve", "achievable_points",
               "convex_envelope", "corner_point_xchannel",
               "corner_point_zero_forcing", "lower_bound_curve",
               "ndt_lower_bound", "optimality_regions", "tradeoff_sweep"),
    "caching": ("CacheAllocation", "DeliveryAssignment",
                "assignment_for_demand", "full_placement", "shared_placement",
                "split_placement"),
    "model": ("DemandVector", "FileLibrary", "Scheme", "SystemConfig",
              "validate_config"),
    "phy": ("EmpiricalNdt", "PointResult", "estimate_ndt", "run_campaign",
            "run_trial"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_SUBMODULES, *_ORIGIN]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
