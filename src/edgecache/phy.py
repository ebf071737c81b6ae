"""Finite-SNR Monte-Carlo simulation of the delivery schemes.

Per-user rates come from post-equalization SINRs, rate = log2(1 + SINR),
divided by the symbol-extension length where one is used; channel coding is
deliberately not simulated since the delivery-time metric is a high-SNR
rate-slope object. The Monte-Carlo averaging is over channel draws, and the
empirical NDT is the ratio K / slope of mean sum-rate against log2(P).

Every scheme's rates, TDMA's link rates among them, come from np.log2 on
the stack, so their last bits follow the SIMD loops numpy dispatches to:
these differ from math.log2 in the last bit on about one gain in a
thousand, most of them just above 1.

Every trial owns two independent RNG substreams derived from its seed:
(seed, 0) for the full-interval channel draw (zero-forcing, TDMA and the
replicated part of the hybrid), (seed, 1) for the alignment scheme's
slot-varying 3-symbol extension; a trial builds only those it draws from.
Trials with the same seed thus see the same channels whatever the scheme,
pairing corner-scheme and hybrid campaigns for time-sharing comparisons.

One scheme stage, `_trial_results`, runs every trial: a stack of draws
along a leading trial axis, each trial at its own power, goes once through
the precoder, alignment, SINR and rate formulas. A campaign seeds and
draws its trials in bulk and runs all its SNR points through the stage
together, in chunks of TRIAL_CHUNK trials, raising what running its trials
one by one would. The seeds, the substreams and the first draws come
from `streams`, the package's one redo of numpy's seeding and
`standard_normal`, which checks them against numpy's own generator;
`phy` redraws only the draws its acceptance tests reject. `run_trial`,
the one-trial reference the tests hold campaigns to, runs the stage on a
stack of one trial.

The alignment scheme needs slot-varying coefficients within its extension:
with constant slots the desired receive vectors collapse onto the aligned
interference direction and the receive basis is singular. The simulator
draws the three extension slots independently for exactly this reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .caching import CacheAllocation, DeliveryAssignment, assignment_for_demand
from .errors import (
    ArgumentError,
    InsufficientDataError,
    SingularChannelError,
    UnsupportedError,
)
from .model import (
    MIN_TRIALS_PER_SNR,
    DemandVector,
    Scheme,
    SystemConfig,
    check_cap,
    check_seed,
    check_snr_db,
    check_snr_grid,
    check_trials,
)

EXTENSION_SLOTS = 3
MAX_RESAMPLES = 16
TRIAL_CHUNK = 1024  # trials per array program; bounds memory for any campaign
_TINY = np.finfo(float).tiny  # the smallest normal float

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


def snr_db_to_power(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def _zf_accepts(h: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Whether each K x M draw of `h` (..., K, M), K <= M, has full row rank.

    The rank is numpy's `matrix_rank`: the count of singular values above
    sigma_1 * max(K, M) * eps. A draw is accepted without it when the
    eigenvalues of its Gram matrix h h^T have lambda_K > 1e-8 lambda_1 and
    lambda_K is a normal float. Forming h h^T errs by about
    M eps ||h||_F^2 <= K M eps lambda_1, plus at most K M subnormal steps
    where products underflow, and `eigvalsh` by a small multiple of
    eps lambda_1 (both backward stable; Higham 2002), so
    (sigma_K / sigma_1)^2 > 1e-8 - O(K M eps). LAPACK's singular values,
    within a small multiple of eps sigma_1, then clear the rank tolerance by
    ten orders of magnitude. Every other draw, NaN and overflowing ones
    included, goes through `matrix_rank` itself, so each answer is the
    rank test's. Returns the answers and no per-draw parts (`_ia_accepts`
    returns some).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN: undecided
        gram = h @ np.swapaxes(h, -1, -2)
    try:
        lam = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError:  # a non-finite Gram: the stack is undecided
        lam = np.zeros(gram.shape[:-1])
    accepts = np.asarray(lam[..., 0] > np.maximum(1e-8 * lam[..., -1], _TINY))
    undecided = ~accepts
    if undecided.any():
        accepts[undecided] = np.linalg.matrix_rank(h[undecided]) >= h.shape[-2]
    return accepts, ()


def _zf_weights(h: np.ndarray, power: float | np.ndarray) -> np.ndarray:
    """Zero-forcing precoder of each accepted draw in a (..., K, M) stack.

    Each draw's pseudo-inverse is scaled by a single factor chosen so the
    busiest EN transmits at exactly its power budget (one, or one per
    draw) under unit-power symbols; every other EN stays below it. The effective channel h @ w is
    then a positive multiple of the identity.
    """
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


def _ia_solution(beams: np.ndarray, bases: np.ndarray,
                 power: float | np.ndarray) -> IaSolution:
    """Closed-form alignment of accepted draws from their `_ia_bases`.

    The two interfering messages at each user are forced onto a common
    reference direction by inverting the per-slot diagonal channels, so
    each user zero-forces one interference dimension and decodes its two
    desired symbols in the remaining plane: 4 symbols per 3 channel uses.
    Alignment fixes beam directions only, so each beam is normalized to
    unit norm; the interference stays collinear and the power budget (one,
    or one per draw) stays conditioned.
    """
    slot_power = (beams ** 2).sum(axis=-2)  # (..., en, slot), unit-power symbols
    amplitudes = np.sqrt(np.expand_dims(power, -1) / slot_power.max(axis=-1))
    return IaSolution(beams, bases, amplitudes)


def _ia_accepts(h_slots: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Whether each slot draw of a (..., 3, 2, 2) stack admits the alignment.

    A draw is usable when no coefficient is numerically zero and both
    users' receive bases A are well conditioned: sigma_3 > 1e-9 sigma_1 by
    LAPACK's SVD. As sigma_1 sigma_2 sigma_3 = |det A| and
    sigma_2 <= sigma_1 <= ||A||_F, sigma_3 / sigma_1 >= |det A| / ||A||_F^3,
    so a draw is accepted without the SVD when the cofactor |det A| exceeds
    1e-6 ||A||_F^3 for both users. The cofactor rounds by about
    1e-15 ||A||_F^3 (its terms' magnitudes sum to at most ||A||_F^3) and
    LAPACK's singular values by a small multiple of eps sigma_1 (Demmel &
    Kahan 1990), both far inside the factor of 1000 between 1e-6 and 1e-9;
    the all-ones column keeps ||A||_F^3 >= 5, far above underflow. Every
    other draw goes through the SVD itself, so each answer is the SVD's.
    Returns the answers and each draw's `_ia_bases`, beams and bases, which
    are `_ia_solution`'s for an accepted draw.
    """
    nonzero = np.abs(h_slots).min(axis=(-3, -2, -1)) >= 1e-12
    # rejected draws are swapped for finite ones before the bases are built
    finite = np.where(nonzero[..., None, None, None], h_slots, 1.0)
    beams, bases = _ia_bases(finite)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, NaN: undecided
        frobenius2 = np.einsum("...ij,...ij->...", bases, bases)
        accepts = np.asarray(
            (_det3(bases) ** 2 > 1e-12 * frobenius2 ** 3).all(axis=-1))
    undecided = ~accepts
    if undecided.any():
        svals = np.linalg.svd(bases[undecided], compute_uv=False)
        accepts[undecided] = (svals[..., -1] > svals[..., 0] * 1e-9).all(axis=-1)
    return nonzero & accepts, (beams, bases)


def _det3(a: np.ndarray) -> np.ndarray:
    """Cofactor determinant of each matrix of a (..., 3, 3) stack."""
    r, s, t = a[..., 0, :], a[..., 1, :], a[..., 2, :]
    return (r[..., 0] * (s[..., 1] * t[..., 2] - s[..., 2] * t[..., 1])
            - r[..., 1] * (s[..., 0] * t[..., 2] - s[..., 2] * t[..., 0])
            + r[..., 2] * (s[..., 0] * t[..., 1] - s[..., 1] * t[..., 0]))


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


def ia_rates(solution: IaSolution) -> np.ndarray:
    """Per-user rates in bits per channel use (2 messages over 3 slots)."""
    sinrs = ia_message_sinrs(solution)
    return np.log2(1.0 + sinrs).sum(axis=-1) / EXTENSION_SLOTS


def tdma_delivery(h: np.ndarray, assignment: DeliveryAssignment,
                  file_bits: int, power: float | np.ndarray):
    """Serve users one at a time with no CSI at the transmitters.

    Each owed fragment is sent by the EN that caches it; fragments every EN
    holds go to a round-robin EN (a CSI-free choice). The link runs at
    log2(1 + h_km^2 P), P one power or one per draw. Returns the delivery
    time per bit, one per draw of a (..., K, M) stack.
    """
    num_users, num_ens = h.shape[-2:]
    links = [
        (user - 1, (user - 1) % num_ens if en is None else en - 1, frag.num_bits)
        for user in range(1, num_users + 1)
        for frag, en in assignment.fragments_for_user(user)
    ]
    users, ens, bits = (np.array(column) for column in zip(*links))
    gains = 1.0 + h[..., users, ens] ** 2 * np.expand_dims(power, -1)
    rates = np.log2(gains)
    dead = np.flatnonzero(rates <= 0.0)
    if dead.size:
        link = dead[0] % len(links)  # the first draw's first dead link
        raise SingularChannelError(
            f"dead link EN {ens[link] + 1} -> user {users[link] + 1}: "
            "rate is zero"
        )
    # cumsum adds the fragments' channel uses one after another, in order
    return np.cumsum(bits / rates, axis=-1)[..., -1] / file_bits


def _checked_assignment(config: SystemConfig, allocation: CacheAllocation,
                        scheme: Scheme, demand: DemandVector
                        ) -> DeliveryAssignment | None:
    """Refuse, before any work, a scheme the allocation or network cannot
    run and a demand outside the config; return TDMA's delivery
    assignment, None for the other schemes."""
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
    demand.validate(config)
    return (assignment_for_demand(allocation, demand)
            if scheme is Scheme.TDMA else None)


def _draw_stack(seeds: list[int], index: int, shape: tuple[int, ...],
                accepts) -> tuple[np.ndarray, tuple, int]:
    """Each trial's accepted draw from its (seed, index) substream, stacked.

    `_trial_results` calls it once per substream, on a campaign's chunk of
    seeds or on `run_trial`'s one seed. `accepts` is `_zf_accepts` or
    `_ia_accepts`, or None for a draw taken as it comes. The first draws
    come from `streams.first_draws`. A rejected draw is replaced by the
    next draw from its trial's own generator, rebuilt by
    `streams.substream` past its first draw, at most MAX_RESAMPLES times.
    Returns the stack, the per-draw parts the acceptance test built for
    each row's final draw, and the index of the first trial with no
    accepted draw, len(seeds) when every trial has one.
    """
    h = streams.first_draws(seeds, index, shape)
    if accepts is None:
        return h, (), len(seeds)
    accepted, parts = accepts(h)
    todo = np.flatnonzero(~accepted)
    rngs = {i: streams.substream(seeds[i], index) for i in todo}
    for rng in rngs.values():
        rng.standard_normal(shape)  # the first draw, taken in bulk
    for _ in range(MAX_RESAMPLES):
        if not todo.size:
            break
        h[todo] = np.stack([rngs[i].standard_normal(shape) for i in todo])
        accepted, redone = accepts(h[todo])
        for part, rows in zip(parts, redone):
            part[todo] = rows
        todo = todo[~accepted]
    return h, parts, int(todo[0]) if todo.size else len(seeds)


def _trial_results(config: SystemConfig, allocation: CacheAllocation,
                   scheme: Scheme, assignment: DeliveryAssignment | None,
                   power: np.ndarray, seeds: list[int]) -> tuple:
    """The scheme stage: one trial per entry of `power`, its transmit power,
    and of `seeds`, its seed, as one array program; the trials may span SNR
    points.

    `_draw_stack` gives each trial's accepted draw from its (seed, index)
    substream, stacked as (T, *shape), and the index of the first trial
    with none; the formulas run on the trials before it. The alignment
    takes its beams and bases from `_ia_accepts`, which built them.
    A failure raises the lowest failing trial's error at its first failing
    step, in a trial's order: full-interval draw, slot draw, zero sum rate
    (TDMA's dead links raise in `tdma_delivery`, in trial order). Returns
    the `PointResult` columns after `seeds`; `peak_en_power` is per slot
    for the alignment scheme and the larger phase for the hybrid.
    """
    k, num_ens = config.num_users, config.num_ens
    full, slots = (k, num_ens), (EXTENSION_SLOTS, 2, 2)
    failed = {}  # draw shape -> first trial with none accepted, in draw order
    if scheme in (Scheme.TDMA, Scheme.ZERO_FORCING, Scheme.HYBRID_SHARE):
        accepts = None if scheme is Scheme.TDMA else _zf_accepts
        h, _, failed[full] = _draw_stack(seeds, 0, full, accepts)
    if scheme in (Scheme.IA_XCHANNEL_2X2, Scheme.HYBRID_SHARE):
        h_slots, (beams, bases), failed[slots] = _draw_stack(
            seeds, 1, slots, _ia_accepts)
    drawn = min(failed.values())  # the trials the formulas run on
    peaks, alignment = np.zeros(drawn), None
    phase_sums = []  # each delivery phase's sum rate per trial

    if scheme is Scheme.TDMA:
        deltas = tdma_delivery(h, assignment, allocation.file_bits, power)
        peaks = power
    if scheme in (Scheme.ZERO_FORCING, Scheme.HYBRID_SHARE):
        h = h[:drawn]
        w = _zf_weights(h, power[:drawn])
        rates = np.log2(1.0 + zf_sinrs(h, w))
        zf_sums = rates.sum(axis=-1)
        phase_sums.append(zf_sums)
        peaks = zf_per_en_power(w).max(axis=-1)
    if scheme in (Scheme.IA_XCHANNEL_2X2, Scheme.HYBRID_SHARE):
        h_slots = h_slots[:drawn]
        sol = _ia_solution(beams[:drawn], bases[:drawn], power[:drawn])
        rates = ia_rates(sol)
        ia_sums = rates.sum(axis=-1)
        phase_sums.append(ia_sums)
        peaks = np.maximum(peaks, ia_per_en_power(sol).max(axis=(-2, -1)))
        alignment = ia_alignment_error(h_slots, sol)
    # a zero sum rate fails a trial that comes before any failed draw
    if any((sums <= 0.0).any() for sums in phase_sums):
        raise SingularChannelError("sum rate is zero at this SNR: no bit gets through")
    if drawn < len(power):  # of equal values, min keeps the earlier draw
        raise SingularChannelError(
            f"no usable {min(failed, key=failed.get)} channel draw after "
            f"{MAX_RESAMPLES} resamples (RNG misuse?)"
        )
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
    return sum_rates, rates, deltas, peaks, alignment


def run_trial(config: SystemConfig, allocation: CacheAllocation,
              scheme: Scheme, demand: DemandVector, snr_db: float,
              seed: int) -> PointResult:
    """One Monte-Carlo trial of `scheme` at `snr_db`, seeded by `seed`.

    The campaign's scheme stage on a stack of one trial, whose bulk PCG64
    state `streams.first_draws` checks against numpy's own: the one-trial
    reference that campaigns, with their chunks across seeds and SNR
    points, are tested against. Returns the one-row result. A zero sum rate
    is a SingularChannelError; a seed outside [0, model.MAX_SEED], an SNR
    that `check_snr_db` refuses or a K*M over MAX_LINKS is an ArgumentError.
    """
    check_seed(seed)
    check_snr_db([snr_db])
    check_cap(config.num_users * config.num_ens, "MAX_LINKS", "K*M")
    assignment = _checked_assignment(config, allocation, scheme, demand)
    columns = _trial_results(config, allocation, scheme, assignment,
                             np.array([snr_db_to_power(snr_db)]), [seed])
    return PointResult(scheme, float(snr_db), (seed,), *columns)


def run_campaign(config: SystemConfig, allocation: CacheAllocation,
                 scheme: Scheme, demand: DemandVector, snr_grid_db,
                 trials_per_snr: int, master_seed: int) -> list[PointResult]:
    """Monte-Carlo campaign over an SNR grid: one result per grid point.

    Each trial's seed derives from (master seed, trial index), so results
    do not depend on execution order. `streams.trial_seeds` makes every
    seed in one array pass, point after point; each point's first seed is
    checked against numpy's `streams.trial_seed`, and a mismatch raises
    RuntimeError. The checks and TDMA's assignment run once; then all
    trials, each at its point's power, go through the stage in trial order
    in chunks of TRIAL_CHUNK, so memory does not grow with the campaign.
    The first failing chunk raises what per-point runs would: the earliest
    failing point's lowest failing trial's error. A master seed outside
    [0, model.MAX_SEED], an SNR point that `check_snr_db` refuses, a trial
    count below 1, or a K*M or trials times SNR points over its `model` cap
    is an ArgumentError, raised before any trial is seeded.
    """
    check_seed(master_seed)
    grid = list(snr_grid_db)
    check_snr_db(grid)
    check_trials(trials_per_snr)
    check_cap(config.num_users * config.num_ens, "MAX_LINKS", "K*M")
    check_cap(trials_per_snr * len(grid), "MAX_CAMPAIGN_TRIALS",
              "trials x SNR points")
    assignment = _checked_assignment(config, allocation, scheme, demand)
    seeds = streams.trial_seeds(master_seed, 0, len(grid) * trials_per_snr)
    points = [slice(base, base + trials_per_snr)
              for base in range(0, len(seeds), trials_per_snr)]
    if any(seeds[p.start] != streams.trial_seed(master_seed, p.start)
           for p in points):
        raise RuntimeError(f"bulk trial seeds of master seed {master_seed} "
                           "differ from numpy's SeedSequence")
    power = np.repeat([snr_db_to_power(snr) for snr in grid], trials_per_snr)
    columns = []  # filled chunk by chunk: no second copy of the results
    for at in range(0, len(seeds), TRIAL_CHUNK):
        chunk = slice(at, at + TRIAL_CHUNK)
        parts = _trial_results(config, allocation, scheme, assignment,
                               power[chunk], seeds[chunk])
        columns = columns or [part if part is None else np.empty(
            (len(seeds),) + part.shape[1:]) for part in parts]
        for column, part in zip(columns, parts):
            if part is not None:
                column[chunk] = part
    return [PointResult(scheme, float(snr), tuple(seeds[point]), *(
        None if column is None else column[point] for column in columns))
            for point, snr in zip(points, grid)]


def estimate_ndt(points) -> EmpiricalNdt:
    """Least-squares DoF slope of mean sum-rate against log2(P).

    `points` are `PointResult`s, whose SNR points must pass
    `model.check_snr_grid`, the `--snr-grid` parser's check, with at least
    MIN_TRIALS_PER_SNR trials each.
    """
    points = sorted(points, key=lambda p: p.snr_db)
    snrs = [p.snr_db for p in points]
    check_snr_grid(snrs)
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
    return EmpiricalNdt(float(slope), k / float(slope), residual)
