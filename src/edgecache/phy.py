"""Finite-SNR Monte-Carlo simulation of the delivery schemes.

Per-user rates come from post-equalization SINRs, rate = log2(1 + SINR),
divided by the symbol-extension length where one is used; channel coding is
deliberately not simulated since the delivery-time metric is a high-SNR
rate-slope object. The Monte-Carlo averaging is over channel draws, and the
empirical NDT is the ratio K / slope of mean sum-rate against log2(P).

Every trial owns two independent RNG substreams derived from its seed:
(seed, 0) for the full-interval channel draw (zero-forcing, TDMA and the
replicated part of the hybrid), (seed, 1) for the alignment scheme's
slot-varying 3-symbol extension; a trial builds only those it draws from.
Trials with the same seed thus see the same channels whatever the scheme,
pairing corner-scheme and hybrid campaigns for time-sharing comparisons.

One scheme stage runs every trial: the draws of an SNR point's trials
are stacked along a leading trial axis, and the precoder, alignment, SINR
and rate formulas run once on the stack. The formulas take that axis
(`...`) and are the ones the checked one-draw API (`zf_precode`,
`ia_beamformers`) uses. The stage's two callers differ only in their
draws. `run_trial`, the one-trial reference, feeds it one draw per
substream from numpy's own `SeedSequence` and generator. A campaign seeds
its trials in bulk: `trial_seeds` and `_first_draws` redo numpy's
`SeedSequence` and PCG64 seeding on arrays of seeds, and each point checks
them against numpy's own objects. Each point runs as one batch, and its
first trial also runs through `run_trial`, which must give the batch's
first row bit for bit. Both draw loops take the same acceptance tests,
`_zf_accepts` and `_ia_accepts`.

The alignment scheme needs slot-varying coefficients within its extension:
with constant slots the desired receive vectors collapse onto the aligned
interference direction and the receive basis is singular. The simulator
draws the three extension slots independently for exactly this reason.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .caching import CacheAllocation, DeliveryAssignment, assignment_for_demand
from .errors import (
    AlignmentDegeneracyError,
    ArgumentError,
    InsufficientDataError,
    SingularChannelError,
    UnsupportedError,
)
from .model import (
    MIN_SNR_POINTS,
    MIN_SNR_SPAN_DB,
    MIN_TRIALS_PER_SNR,
    DemandVector,
    Scheme,
    SystemConfig,
)

EXTENSION_SLOTS = 3
MAX_RESAMPLES = 16

@dataclass(frozen=True, eq=False)
class PointResult:
    """The trials of one SNR point: float64 columns in trial order."""

    scheme: Scheme
    snr_db: float
    seeds: tuple[int, ...]
    achieved_sum_rate: np.ndarray      # (T,)
    per_user_rates: np.ndarray         # (T, K)
    delivery_time_per_bit: np.ndarray  # (T,)
    peak_en_power: np.ndarray  # (T,) largest per-EN ensemble transmit power
    alignment_error: np.ndarray | None  # (T,) ia_alignment_error, or None


@dataclass(frozen=True)
class EmpiricalNdt:
    """DoF slope and NDT estimated by regressing sum-rate on log2(P)."""

    dof_estimate: float
    ndt_estimate: float
    fit_residual: float
    snr_grid: tuple[float, ...]


def snr_db_to_power(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def awgn_channel(x: np.ndarray, h: np.ndarray, seed: int,
                 noiseless: bool = False) -> np.ndarray:
    """y = h @ x plus unit-variance Gaussian noise, deterministic per seed."""
    y = h @ x
    if noiseless:
        return y
    rng = np.random.default_rng(seed)
    return y + rng.standard_normal(y.shape)


def _zf_accepts(h: np.ndarray) -> np.ndarray:
    """Whether each K x M draw of `h` (..., K, M) has full row rank."""
    return np.linalg.matrix_rank(h) >= h.shape[-2]


def zf_precode(h: np.ndarray, power: float) -> np.ndarray:
    """Zero-forcing precoder for a K x M channel with M >= K.

    The pseudo-inverse is scaled by a single factor chosen so the busiest
    EN transmits at exactly the power budget under unit-power user symbols;
    every other EN stays below it. The effective channel h @ w is then a
    positive multiple of the identity.
    """
    k, m = h.shape
    if m < k:
        raise ArgumentError(f"zero-forcing needs M >= K, got M={m}, K={k}")
    if not _zf_accepts(h):
        raise SingularChannelError("channel matrix is row-rank deficient")
    return _zf_weights(h, power)


def _zf_weights(h: np.ndarray, power: float) -> np.ndarray:
    """`zf_precode` of each accepted draw in a (..., K, M) stack, unchecked."""
    w0 = np.linalg.pinv(h)
    scale = np.sqrt(power / zf_per_en_power(w0).max(axis=-1))
    return w0 * scale[..., None, None]


def zf_sinrs(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Post-equalization SINR per user for precoder w (unit noise power)."""
    g = h @ w
    desired = np.diagonal(g, axis1=-2, axis2=-1) ** 2
    interference = (g ** 2).sum(axis=-1) - desired
    return desired / (1.0 + interference)


def zf_per_en_power(w: np.ndarray) -> np.ndarray:
    """Ensemble average transmit power per EN under unit-power symbols."""
    return (w ** 2).sum(axis=-1)


@dataclass(frozen=True)
class IaSolution:
    """Beamformers and receive bases for the 2x2 X-channel over 3 slots.

    beams[m, k] is the unit-norm length-3 vector EN m+1 uses for its message
    to user k+1; receive_bases[k] has columns [desired from EN1 | desired
    from EN2 | aligned interference direction] seen by user k+1 (amplitudes
    not included); amplitudes[m] is the symbol scaling of EN m+1 that meets
    its own per-slot power budget. The aligned interference direction is
    all ones in every solution. A campaign stacks solutions along leading
    trial axes, which every field then carries in front of these shapes.
    """

    beams: np.ndarray          # (2, 2, 3)
    receive_bases: np.ndarray  # (2, 3, 3)
    amplitudes: np.ndarray     # (2,)


def ia_beamformers(h_slots: np.ndarray, power: float) -> IaSolution:
    """Closed-form alignment for the 2x2 X-channel over a 3-slot extension.

    The two interfering messages at each user are forced onto a common
    reference direction by inverting the per-slot diagonal channels, so
    each user zero-forces one interference dimension and decodes its two
    desired symbols in the remaining plane: 4 symbols per 3 channel uses.
    Alignment fixes beam directions only, so each beam is normalized to
    unit norm; the interference stays collinear and the power budget stays
    conditioned.
    """
    if h_slots.shape != (EXTENSION_SLOTS, 2, 2):
        raise ArgumentError(
            f"expected ({EXTENSION_SLOTS}, 2, 2) slot channels, got {h_slots.shape}"
        )
    if np.abs(h_slots).min() < 1e-12:
        raise SingularChannelError("a slot coefficient is numerically zero")
    if not _ia_accepts(h_slots):
        raise AlignmentDegeneracyError("a receive basis is rank deficient")
    return _ia_solution(h_slots, power)


def _ia_bases(h_slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit beams and receive bases of each draw in a (..., 3, 2, 2) stack."""
    lead = h_slots.shape[:-3]
    beams = np.empty(lead + (2, 2, EXTENSION_SLOTS))
    # Messages for user 2 land on the all-ones reference at user 1 and
    # vice versa.
    for m in range(2):
        for k in range(2):
            beams[..., m, k, :] = 1.0 / h_slots[..., :, 1 - k, m]
    beams /= np.linalg.norm(beams, axis=-1, keepdims=True)
    bases = np.ones(lead + (2, EXTENSION_SLOTS, EXTENSION_SLOTS))
    for k in range(2):
        for m in range(2):
            bases[..., k, :, m] = h_slots[..., :, k, m] * beams[..., m, k, :]
    return beams, bases


def _ia_solution(h_slots: np.ndarray, power: float) -> IaSolution:
    """`ia_beamformers` of each draw in a (..., 3, 2, 2) stack, unchecked."""
    beams, bases = _ia_bases(h_slots)
    slot_power = (beams ** 2).sum(axis=-2)  # (..., en, slot), unit-power symbols
    amplitudes = np.sqrt(power / slot_power.max(axis=-1))
    return IaSolution(beams, bases, amplitudes)


def _ia_accepts(h_slots: np.ndarray) -> np.ndarray:
    """Whether each slot draw of a (..., 3, 2, 2) stack admits the alignment.

    A draw is usable when no coefficient is numerically zero and both
    users' receive bases are well conditioned.
    """
    nonzero = np.abs(h_slots).min(axis=(-3, -2, -1)) >= 1e-12
    # rejected draws are swapped for finite ones before the SVD sees them
    finite = np.where(nonzero[..., None, None, None], h_slots, 1.0)
    svals = np.linalg.svd(_ia_bases(finite)[1], compute_uv=False)
    return nonzero & (svals[..., -1] > svals[..., 0] * 1e-9).all(axis=-1)


def ia_alignment_error(h_slots: np.ndarray, solution: IaSolution):
    """Worst relative collinearity error of the aligned interference pair.

    One value per draw of a (..., 3, 2, 2) stack and its stacked solution.
    """
    worst = 0.0
    for k in range(2):
        other = 1 - k
        v1 = h_slots[..., :, k, 0] * solution.beams[..., 0, other, :]
        v2 = h_slots[..., :, k, 1] * solution.beams[..., 1, other, :]
        sine = np.linalg.norm(np.cross(v1, v2), axis=-1)
        sine /= np.linalg.norm(v1, axis=-1) * np.linalg.norm(v2, axis=-1)
        worst = np.maximum(worst, sine)
    return worst


def _interference_null_basis(reference: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3 x 2) of the reference direction's complement."""
    seedling = np.column_stack([reference, np.eye(EXTENSION_SLOTS)[:, :2]])
    q, _ = np.linalg.qr(seedling)
    return q[:, 1:]


# every alignment solution uses the all-ones reference direction
_IA_NULL_BASIS = _interference_null_basis(np.ones(EXTENSION_SLOTS))


def ia_message_sinrs(solution: IaSolution) -> np.ndarray:
    """Per-message SINRs, indexed [user, sending EN].

    Each user projects its 3-dimensional receive vector onto the plane
    orthogonal to the aligned interference (zero-forcing it), then decodes
    its two messages successively; the stream SINRs come from the Cholesky
    factor of the resulting 2x2 Gram matrix, so that log2(1 + SINR) summed
    over messages equals the plane's exact log-det rate.
    """
    scaled = (solution.receive_bases[..., :2]
              * solution.amplitudes[..., None, None, :])
    g = _IA_NULL_BASIS.T @ scaled
    gram = np.eye(2) + np.swapaxes(g, -1, -2) @ g
    chol = np.linalg.cholesky(gram)
    return np.diagonal(chol, axis1=-2, axis2=-1) ** 2 - 1.0


def ia_per_en_power(solution: IaSolution) -> np.ndarray:
    """Per-slot ensemble transmit power of each EN, shape (en, slot)."""
    return (solution.amplitudes[..., None] ** 2
            * (solution.beams ** 2).sum(axis=-2))


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


def ia_rates(solution: IaSolution) -> np.ndarray:
    """Per-user rates in bits per channel use (2 messages over 3 slots)."""
    sinrs = ia_message_sinrs(solution)
    return np.log2(1.0 + sinrs).sum(axis=-1) / EXTENSION_SLOTS


def tdma_delivery(h: np.ndarray, assignment: DeliveryAssignment,
                  file_bits: int, power: float):
    """Serve users one at a time with no CSI at the transmitters.

    Each owed fragment is sent by the EN that caches it; fragments every EN
    holds go to a round-robin EN (a CSI-free choice). The link runs at
    log2(1 + h_km^2 P). Returns the delivery time per bit, one per draw
    of a (..., K, M) stack.
    """
    num_users, num_ens = h.shape[-2:]
    links = [
        (user - 1, (user - 1) % num_ens if en is None else en - 1, frag.num_bits)
        for user in range(1, num_users + 1)
        for frag, en in assignment.fragments_for_user(user)
    ]
    users, ens, bits = (np.array(column) for column in zip(*links))
    gains = 1.0 + h[..., users, ens] ** 2 * power
    # math.log2, not np.log2: the two differ in the last bit on some inputs
    rates = np.array([math.log2(g) for g in gains.ravel().tolist()])
    rates = rates.reshape(gains.shape)
    dead = np.flatnonzero(rates <= 0.0)
    if dead.size:
        link = dead[0] % len(links)  # the first draw's first dead link
        raise SingularChannelError(
            f"dead link EN {ens[link] + 1} -> user {users[link] + 1}: "
            "rate is zero"
        )
    # cumsum adds the fragments' channel uses one after another, in order
    return np.cumsum(bits / rates, axis=-1)[..., -1] / file_bits


def _check_compatibility(config: SystemConfig, allocation: CacheAllocation,
                         scheme: Scheme) -> None:
    m, k = config.num_ens, config.num_users
    if allocation.num_ens != m:
        raise ArgumentError(
            f"allocation spans {allocation.num_ens} ENs, config has {m}"
        )
    if scheme is Scheme.ZERO_FORCING:
        if allocation.policy != "full":
            raise UnsupportedError("zero-forcing requires full replication (mu = 1)")
        if m < k:
            raise UnsupportedError(f"zero-forcing needs M >= K, got M={m}, K={k}")
    elif scheme is Scheme.IA_XCHANNEL_2X2:
        if allocation.policy != "split":
            raise UnsupportedError("the alignment scheme requires split placement")
        if (m, k) != (2, 2):
            raise UnsupportedError(
                f"the alignment scheme is implemented for M=K=2, got M={m}, K={k}"
            )
    elif scheme is Scheme.HYBRID_SHARE:
        if allocation.policy != "hybrid":
            raise UnsupportedError("hybrid time sharing requires shared placement")
        if (m, k) != (2, 2):
            raise UnsupportedError(
                f"hybrid time sharing is implemented for M=K=2, got M={m}, K={k}"
            )


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64 seeding
# (numpy/random/src/pcg64), redone on arrays of seeds
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """The uint32 entropy words numpy makes of a non-negative int, low first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """numpy's running hash constant over `count` hashes, as a column.

    Hash i xors its value with entry i and multiplies it by entry i + 1.
    The constants do not depend on the data, so one hash step serves a
    whole row of seeds. The cached array is read-only.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray, first: int) -> np.ndarray:
    """numpy's `hashmix` of each row of `values`, hashes first, first + 1, ...

    uint32 array arithmetic wraps, without numpy's overflow warnings.
    """
    values = values ^ consts[first:first + len(values)]
    values *= consts[first + 1:first + 1 + len(values)]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def _seed_sequence_words(rows: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(row).generate_state(n_words)` for each row.

    `rows` is a (T, L) uint32 array, one seed's entropy words per row. A
    row shorter than the pool is zero-padded on the right, which is what
    numpy's `hashmix(0)` on the empty pool slots amounts to; words beyond
    the pool go through numpy's extra mixing loop. Each of numpy's loops
    over pool words runs as one array step where its hashes do not depend
    on each other. Returns an (n_words, T) uint32 array.
    """
    entropy = np.zeros((max(rows.shape[1], _POOL_SIZE), len(rows)), np.uint32)
    entropy[:rows.shape[1]] = rows.T
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], consts, 0)
    used = _POOL_SIZE
    for src in range(_POOL_SIZE):
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        hashed = _hashmix(pool[[src] * len(others)], consts, used)
        pool[others] = _mix(pool[others], hashed)
        used += len(others)
    for word in entropy[_POOL_SIZE:]:
        hashed = _hashmix(np.tile(word, (_POOL_SIZE, 1)), consts, used)
        pool = _mix(pool, hashed)
        used += _POOL_SIZE
    consts = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hashmix(pool[np.arange(n_words) % _POOL_SIZE], consts, 0)


def _uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of rows of uint32 words, low word first, as uint64 rows."""
    return words[0::2].astype(np.uint64) | words[1::2].astype(np.uint64) << 32


def _pcg64_states(seeds: list[int], index: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of `_substream(seed, index)` for each seed.

    Each seed is below 2**64 (one entropy word, or two from 2**32 on) and
    the index below 2**32 (one word). SeedSequence's 4 uint64 words seed
    PCG64 through its `srandom` step, done here in Python ints.
    """
    seed_array = np.array(seeds, dtype=np.uint64)
    lo = (seed_array & _MASK32).astype(np.uint32)
    hi = (seed_array >> 32).astype(np.uint32)
    one_word = hi == 0
    rows = np.column_stack([lo, np.where(one_word, index, hi),
                            np.where(one_word, 0, index)]).astype(np.uint32)
    words = _uint64(_seed_sequence_words(rows, 8))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*words.tolist()):
        # srandom(initstate, initseq): from state 0, one LCG step, add
        # initstate, one more step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _first_draws(seeds: list[int], index: int,
                 shape: tuple[int, ...]) -> np.ndarray:
    """Each seed's first `shape` draw from its (seed, index) substream.

    One generator, `_substream` of the first seed, draws for every trial:
    it is set to each trial's bulk PCG64 state in turn. The first seed's
    bulk state must equal numpy's, or a numpy whose seeding changed would
    silently change every draw.
    """
    states = _pcg64_states(seeds, index)
    rng = _substream(seeds[0], index)
    bit_generator = rng.bit_generator
    state = bit_generator.state
    if (state["state"]["state"], state["state"]["inc"]) != states[0]:
        raise RuntimeError(
            f"bulk PCG64 seeding of substream ({seeds[0]}, {index}) "
            "differs from numpy's"
        )
    draws = np.empty((len(seeds),) + shape)
    for row, (value, inc) in zip(draws, states):
        state["state"] = {"state": value, "inc": inc}
        bit_generator.state = state
        rng.standard_normal(out=row)
    return draws


def _solve_draw(rng: np.random.Generator, shape: tuple[int, ...],
                accepts) -> np.ndarray:
    """Draw standard-normal channels of `shape` until `accepts` takes one.

    `accepts` is `_zf_accepts` or `_ia_accepts`, or None for a draw taken
    as it comes. A rejected draw is replaced by the next draw from the same
    generator, at most MAX_RESAMPLES times; returns the accepted draw.
    `_draw_stack` is the same loop for a stack of trials.
    """
    for _ in range(MAX_RESAMPLES + 1):
        h = rng.standard_normal(shape)
        if accepts is None or accepts(h):
            return h
    raise SingularChannelError(
        f"no usable {shape} channel draw after {MAX_RESAMPLES} resamples "
        "(RNG misuse?)"
    )


def _draw_stack(seeds: list[int], index: int, shape: tuple[int, ...],
                accepts) -> np.ndarray | None:
    """Each trial's accepted draw from its (seed, index) substream, stacked.

    `accepts` is the one `_solve_draw` takes. The first draws come from
    `_first_draws`. A rejected draw is replaced by the next draw from its
    trial's own generator, rebuilt by `_substream` past its first draw, at
    most MAX_RESAMPLES times, so every generator is used exactly as
    `_solve_draw` uses it. Returns None when some trial has no accepted
    draw.
    """
    h = _first_draws(seeds, index, shape)
    if accepts is None:
        return h
    todo = np.flatnonzero(~accepts(h))
    rngs = {i: _substream(seeds[i], index) for i in todo}
    for rng in rngs.values():
        rng.standard_normal(shape)  # the first draw, taken in bulk
    for _ in range(MAX_RESAMPLES):
        if not todo.size:
            break
        h[todo] = np.stack([rngs[i].standard_normal(shape) for i in todo])
        todo = todo[~accepts(h[todo])]
    return None if todo.size else h


def _trial_results(config: SystemConfig, allocation: CacheAllocation,
                   scheme: Scheme, assignment: DeliveryAssignment | None,
                   snr_db: float, seeds: list[int],
                   draw) -> PointResult | None:
    """The scheme stage: each seed's trial at one SNR point, as one array
    program.

    `draw(index, shape, accepts)` returns each trial's accepted draw from
    its (seed, index) substream, stacked as (T, *shape), or None when some
    trial has none. Returns None when some trial would fail (no accepted
    draw, or a zero sum rate); TDMA's dead links raise here, in trial
    order. A trial's `peak_en_power` is per slot for the alignment scheme
    and the larger of the two phases for the hybrid.
    """
    power = snr_db_to_power(snr_db)
    k, num_ens = config.num_users, config.num_ens
    peaks, alignment = np.zeros(len(seeds)), None
    phase_sums = []  # each delivery phase's sum rate per trial

    if scheme is Scheme.TDMA:
        h = draw(0, (k, num_ens), None)
        deltas = tdma_delivery(h, assignment, allocation.file_bits, power)
        peaks[:] = power
    if scheme in (Scheme.ZERO_FORCING, Scheme.HYBRID_SHARE):
        h = draw(0, (k, num_ens), _zf_accepts)
        if h is None:
            return None
        w = _zf_weights(h, power)
        rates = np.log2(1.0 + zf_sinrs(h, w))
        zf_sums = rates.sum(axis=-1)
        phase_sums.append(zf_sums)
        peaks = zf_per_en_power(w).max(axis=-1)
    if scheme in (Scheme.IA_XCHANNEL_2X2, Scheme.HYBRID_SHARE):
        h_slots = draw(1, (EXTENSION_SLOTS, 2, 2), _ia_accepts)
        if h_slots is None:
            return None
        sol = _ia_solution(h_slots, power)
        rates = ia_rates(sol)
        ia_sums = rates.sum(axis=-1)
        phase_sums.append(ia_sums)
        peaks = np.maximum(peaks, ia_per_en_power(sol).max(axis=(-2, -1)))
        alignment = ia_alignment_error(h_slots, sol)
    if any((sums <= 0.0).any() for sums in phase_sums):
        return None
    if scheme is Scheme.HYBRID_SHARE:
        split_frac = allocation.split_bits / allocation.file_bits
        # Time-shared delivery: split prefix over the X-channel, replicated
        # tail via cooperative ZF; delta adds the two phases' uses per bit.
        deltas = (k * split_frac / ia_sums
                  + k * (1.0 - split_frac) / zf_sums)

    if scheme in (Scheme.TDMA, Scheme.HYBRID_SHARE):
        sum_rates = k / deltas
        rates = np.repeat((sum_rates / k)[:, None], k, axis=1)
    else:
        sum_rates = phase_sums[0]
        deltas = k / sum_rates
    return PointResult(scheme, float(snr_db), tuple(seeds), sum_rates, rates,
                       deltas, peaks, alignment)


def run_trial(config: SystemConfig, allocation: CacheAllocation,
              scheme: Scheme, demand: DemandVector, snr_db: float,
              seed: int, *, assignment: DeliveryAssignment | None = None,
              ) -> PointResult:
    """One Monte-Carlo trial of `scheme` at `snr_db`, seeded by `seed`.

    The scheme stage is the campaign's, fed a stack of one draw per
    substream that numpy's own `SeedSequence` and generator make, so this
    is the reference for the campaign's bulk seeding and batching. Returns
    the one-row result. A zero sum rate is a SingularChannelError.

    TDMA serves `assignment`, which must be `assignment_for_demand(
    allocation, demand)`; when it is None the trial builds it. The other
    schemes ignore it.
    """
    _check_compatibility(config, allocation, scheme)
    demand.validate(config)
    if scheme is Scheme.TDMA and assignment is None:
        assignment = assignment_for_demand(allocation, demand)

    def draw(index, shape, accepts):
        return _solve_draw(_substream(seed, index), shape, accepts)[None]

    trial = _trial_results(config, allocation, scheme, assignment, snr_db,
                           [seed], draw)
    if trial is None:
        raise SingularChannelError("sum rate is zero at this SNR: no bit gets through")
    return trial


def trial_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed; independent of execution order."""
    ss = np.random.SeedSequence((master_seed, index))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_seeds(master_seed: int, start: int, count: int) -> list[int]:
    """`trial_seed(master_seed, i)` for i in range(start, start + count).

    One array pass per entropy-row length: an index below 2**32 is one
    word after the master seed's, a larger one (below 2**64) two.
    """
    index = np.arange(start, start + count, dtype=np.uint64)
    lo, hi = (index & _MASK32).astype(np.uint32), (index >> 32).astype(np.uint32)
    head = np.array(_words(master_seed), np.uint32)
    split = int(np.searchsorted(index, 2 ** 32))
    seeds = []
    for tail in ([lo[:split]], [lo[split:], hi[split:]]):
        if len(tail[0]):
            rows = np.column_stack([np.tile(head, (len(tail[0]), 1)), *tail])
            seeds += _uint64(_seed_sequence_words(rows, 2))[0].tolist()
    return seeds


def run_campaign(config: SystemConfig, allocation: CacheAllocation,
                 scheme: Scheme, demand: DemandVector, snr_grid_db,
                 trials_per_snr: int, master_seed: int) -> list[PointResult]:
    """Monte-Carlo campaign over an SNR grid: one result per grid point.

    Each trial has its own seed derived from (master seed, trial index), so
    results do not depend on execution order. Placement and demand are
    fixed for the campaign, so a trial's checks run once and TDMA's
    delivery assignment is built once. Each point runs as one batch. Its
    first trial also runs through `run_trial`, the one-trial reference,
    whose result must equal the batch's first row bit for bit; a per-trial
    profile keeps that one sample per point. A batch where some trial fails
    is rerun trial by trial, so the error raised is the first failing
    trial's. `trial_seeds` computes every seed in one array pass, and each
    point's first seed is checked against `trial_seed`, numpy's own. A
    failed check raises RuntimeError.
    """
    _check_compatibility(config, allocation, scheme)
    demand.validate(config)
    assignment = None
    if scheme is Scheme.TDMA:
        assignment = assignment_for_demand(allocation, demand)
    if trials_per_snr < 1:
        return []
    grid = list(snr_grid_db)
    campaign_seeds = trial_seeds(master_seed, 0, len(grid) * trials_per_snr)
    points = []
    for si, snr in enumerate(grid):
        base = si * trials_per_snr
        seeds = campaign_seeds[base:base + trials_per_snr]
        if seeds[0] != trial_seed(master_seed, base):
            raise RuntimeError(
                f"bulk trial seeds of master seed {master_seed} differ "
                "from numpy's SeedSequence"
            )
        first = run_trial(config, allocation, scheme, demand, snr, seeds[0],
                          assignment=assignment)
        point = _trial_results(config, allocation, scheme, assignment, snr,
                               seeds, functools.partial(_draw_stack, seeds))
        if point is None:
            for seed in seeds[1:]:
                run_trial(config, allocation, scheme, demand, snr, seed,
                          assignment=assignment)
            raise RuntimeError(
                f"the batch at {snr} dB fails where each trial alone succeeds")
        if any(isinstance(column, np.ndarray)
               and column.tobytes() != getattr(point, name)[:1].tobytes()
               for name, column in vars(first).items()):
            raise RuntimeError(
                f"the batch at {snr} dB differs from run_trial in its first trial")
        points.append(point)
    return points


def estimate_ndt(points) -> EmpiricalNdt:
    """Least-squares DoF slope of mean sum-rate against log2(P).

    `points` are `PointResult`s. Needs at least MIN_SNR_POINTS distinct SNR
    points spanning MIN_SNR_SPAN_DB or more, with at least
    MIN_TRIALS_PER_SNR trials each.
    """
    points = sorted(points, key=lambda p: p.snr_db)
    snrs = [p.snr_db for p in points]
    if len(set(snrs)) < len(snrs):
        raise ArgumentError(f"duplicate SNR points in {snrs}")
    if len(snrs) < MIN_SNR_POINTS:
        raise InsufficientDataError(
            f"need >= {MIN_SNR_POINTS} distinct SNR points, got {len(snrs)}"
        )
    if snrs[-1] - snrs[0] < MIN_SNR_SPAN_DB:
        raise InsufficientDataError(
            f"SNR grid spans {snrs[-1] - snrs[0]:.1f} dB, "
            f"need >= {MIN_SNR_SPAN_DB:g}"
        )
    short = [p.snr_db for p in points if len(p.seeds) < MIN_TRIALS_PER_SNR]
    if short:
        raise InsufficientDataError(
            f"fewer than {MIN_TRIALS_PER_SNR} trials at SNR points {short}"
        )
    x = np.array([math.log2(snr_db_to_power(s)) for s in snrs])
    y = np.array([float(np.mean(p.achieved_sum_rate)) for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    if slope <= 0:
        raise InsufficientDataError(f"non-positive rate slope {slope:.3g}")
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    k = points[0].per_user_rates.shape[1]
    return EmpiricalNdt(float(slope), k / float(slope), residual, tuple(snrs))
