"""The checked one-draw API and a noisy channel: references for the phy tests.

`phy` runs its formulas on stacks of draws that its acceptance tests have
already taken. These wrappers run the same formulas on one draw and refuse
the draws those tests reject, with the error each refusal names, so that
symbol-level decoding and the empirical SINR oracle check the formulas the
simulator uses.
"""

import numpy as np

from edgecache import phy
from edgecache.errors import (
    AlignmentDegeneracyError,
    ArgumentError,
    SingularChannelError,
)
from edgecache.phy import EXTENSION_SLOTS, IaSolution


def awgn_channel(x: np.ndarray, h: np.ndarray, seed: int,
                 noiseless: bool = False) -> np.ndarray:
    """y = h @ x plus unit-variance Gaussian noise, deterministic per seed."""
    y = h @ x
    if noiseless:
        return y
    rng = np.random.default_rng(seed)
    return y + rng.standard_normal(y.shape)


def zf_precode(h: np.ndarray, power: float) -> np.ndarray:
    """Zero-forcing precoder for one K x M channel with M >= K."""
    k, m = h.shape
    if m < k:
        raise ArgumentError(f"zero-forcing needs M >= K, got M={m}, K={k}")
    if not phy._zf_accepts(h):
        raise SingularChannelError("channel matrix is row-rank deficient")
    return phy._zf_weights(h, power)


def ia_beamformers(h_slots: np.ndarray, power: float) -> IaSolution:
    """Closed-form alignment of one 3-slot draw of the 2x2 X-channel."""
    if h_slots.shape != (EXTENSION_SLOTS, 2, 2):
        raise ArgumentError(
            f"expected ({EXTENSION_SLOTS}, 2, 2) slot channels, got {h_slots.shape}"
        )
    if np.abs(h_slots).min() < 1e-12:
        raise SingularChannelError("a slot coefficient is numerically zero")
    if not phy._ia_accepts(h_slots):
        raise AlignmentDegeneracyError("a receive basis is rank deficient")
    return phy._ia_solution(h_slots, power)


def ia_xchannel_2x2(h_slots: np.ndarray, symbols: np.ndarray, power: float,
                    solution: IaSolution | None = None) -> np.ndarray:
    """Transmit matrix (2 x 3) carrying the 4 messages symbols[m, k]."""
    if symbols.shape != (2, 2):
        raise ArgumentError(f"expected (2, 2) message symbols, got {symbols.shape}")
    sol = ia_beamformers(h_slots, power) if solution is None else solution
    x = np.zeros((2, EXTENSION_SLOTS))
    for m in range(2):
        for k in range(2):
            x[m] += sol.amplitudes[m] * symbols[m, k] * sol.beams[m, k]
    return x
