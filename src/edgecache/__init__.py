"""Latency-storage tradeoff analysis for cache-aided wireless edge networks.

Exact-rational delivery-time bounds and envelopes, concrete caching
policies, a finite-SNR Monte-Carlo simulator for the delivery schemes, and
numerical checks of the converse's linear-algebra identities.
"""

__version__ = "0.1.0"

from . import converse, errors  # noqa: F401
from .bounds import (  # noqa: F401
    CsiMode,
    NdtPoint,
    TradeoffCurve,
    achievable_points,
    convex_envelope,
    corner_point_xchannel,
    corner_point_zero_forcing,
    ndt_lower_bound,
    ndt_lower_bound_at,
    optimality_regions,
    tradeoff_sweep,
)
from .caching import (  # noqa: F401
    CacheAllocation,
    DeliveryAssignment,
    assignment_for_demand,
    full_placement,
    shared_placement,
    split_placement,
    verify_cache_budget,
)
from .model import (  # noqa: F401
    DemandVector,
    FileLibrary,
    SystemConfig,
    validate_config,
)
from .phy import (  # noqa: F401
    EmpiricalNdt,
    Scheme,
    TrialResult,
    estimate_ndt,
    run_campaign,
    run_trial,
)
