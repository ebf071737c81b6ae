"""The checked one-draw API, a noisy channel and the one-trial redraw loop:
references for the phy tests.

`phy` runs its formulas on stacks of draws that its acceptance tests have
already taken. These wrappers run the same formulas on one draw and refuse
the draws those tests reject, with the error each refusal names, so that
symbol-level decoding and the empirical SINR oracle check the formulas the
simulator uses. `solve_draw` is one trial's redraw loop, which each row of
`phy._draw_stack` is held to.
"""

import numpy as np

from edgecache import phy
from edgecache.errors import ArgumentError, SingularChannelError
from edgecache.phy import EXTENSION_SLOTS, MAX_RESAMPLES, IaSolution


class AlignmentDegeneracyError(SingularChannelError):
    """The receive-space basis of the alignment scheme is rank deficient."""


def solve_draw(rng: np.random.Generator, shape: tuple[int, ...],
               accepts) -> np.ndarray:
    """Draw standard-normal channels of `shape` until `accepts` takes one.

    `accepts` is `phy._zf_accepts` or `phy._ia_accepts`, or None for a draw
    taken as it comes. A rejected draw is replaced by the next draw from
    the same generator, at most MAX_RESAMPLES times; returns the accepted
    draw.
    """
    for _ in range(MAX_RESAMPLES + 1):
        h = rng.standard_normal(shape)
        if accepts is None or accepts(h)[0]:
            return h
    raise SingularChannelError(
        f"no usable {shape} channel draw after {MAX_RESAMPLES} resamples "
        "(RNG misuse?)"
    )


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
    if not phy._zf_accepts(h)[0]:
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
    accepted, (beams, bases) = phy._ia_accepts(h_slots)
    if not accepted:
        raise AlignmentDegeneracyError("a receive basis is rank deficient")
    return phy._ia_solution(beams, bases, power)


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
