"""Numerical checks of the linear algebra behind the delivery-time converse.

The converse argument reconstructs the signals of all users from ell channel
outputs plus (M-ell)+ cache contents. Its deterministic constituents are
verified here at double precision:

* the variance constant Lambda bounding the entropy of any ell outputs,
  computed from the literal channel expression max_k [sum_m h_km^2 +
  sum_{m != m~} h_km h_km~];
* the submatrix reconstruction identity built from the corner blocks H1
  (ell x ell, invertible almost surely), H2 and H3;
* the log-det residual term log det(I + Ht Ht^T) with Ht = H2 H1^-1, which
  is power independent, against an exact oracle that evaluates it as
  det(G^T G) / det(H1^T H1) with G = [H1; H2] (Sylvester's identity), both
  Gram determinants exact in Python ints;
* the covariance of the folded noise Ht n, which must match Ht Ht^T.

A stack of channel draws is sliced once into a `Cut`, whose H1s are
conditioned in one test; every check reads that cut and returns one value
per draw. Entropy inequalities themselves are not estimated; only these
deterministic pieces are.

`verify_converse` runs each cut as one array program over chunks of
`TRIAL_CHUNK` trials, and its noise check on a stack of one draw.
`sample_regular_channel` reads a stack's channels, inputs and noise from
one `standard_normal` call, in the order a per-draw loop draws them
(numpy's normal stream does not depend on how it is split into calls); a
rejected draw is redrawn from the next K*M values, which shifts every
later draw of the stack by K*M, and the stack draws those values on top.
Each check returns, for every draw of a stack, what it returns for that
draw alone, bit for bit. The oracle takes every determinant of a stack in
one pivot-free, fraction-free elimination of upper triangles. The noise
check reads one Wishart S per call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, SingularH1Error
from .model import (LOGDET_ORACLE_TOL, NOISE_COV_TOL, RECONSTRUCTION_TOL,
                    SystemConfig, check_cap, check_seed, check_trials)

H1_COND_LIMIT = 1e6  # draws beyond this conditioning are rejected as singular
NOISE_COV_SAMPLES = 100_000
TIME_COLUMNS = 8  # channel uses per reconstruction draw
MAX_REDRAWS = 16
TRIAL_CHUNK = 64  # trials per array program; bounds memory for any --trials


@dataclass(frozen=True)
class Cut:
    """A stack of channel draws, on leading axes, sliced at cut parameter ell.

    H1 (ell x ell) holds rows 1..ell and the last ell columns, H2 rows
    ell+1..K of the same columns and H3 rows ell+1..K of every column; all
    three are views of h. `build_submatrices` tests H1's conditioning
    before it makes a Cut, so every check reading one may solve with H1.
    """

    h: np.ndarray   # ... x K x M
    h1: np.ndarray  # ... x ell x ell
    h2: np.ndarray  # ... x (K-ell) x ell
    h3: np.ndarray  # ... x (K-ell) x M
    ell: int


def _frobenius(a: np.ndarray):
    """Frobenius norm of each matrix over the last two axes.

    A stacked (1, n) @ (n, 1) product, which matches `np.linalg.norm`'s
    ravel-and-dot bit for bit where an elementwise sum of squares does not.
    """
    flat = a.reshape(a.shape[:-2] + (1, -1))
    return np.sqrt(flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]


def _cut_parameter(ell, top: int) -> int:
    """ell as an int, or a RangeError unless it is an integer in 1..top."""
    if not (isinstance(ell, numbers.Integral) and 1 <= ell <= top):
        raise RangeError(f"ell {ell!r} outside {{1..{top}}}")
    return int(ell)


def lambda_constant(h: np.ndarray, ell: int):
    """Variance constant over the first ell receivers, literal expression."""
    ell = _cut_parameter(ell, h.shape[-2])
    rows = h[..., :ell, :]
    squares = (rows ** 2).sum(axis=-1)
    cross = (rows[..., :, None] * rows[..., None, :]).sum(axis=(-2, -1)) - squares
    return (squares + cross).max(axis=-1)  # ordered m != m~ terms


@dataclass(frozen=True)
class VarianceCheck:
    """Outcome of an empirical test of Var[Y_k] <= Lambda * P + 1."""

    holds: bool
    worst_margin: float
    bound: float
    empirical: np.ndarray


def variance_bound_check(h: np.ndarray, ell: int, power: float, trials: int,
                         seed: int = 0, correlated: bool = False,
                         rel_tol: float = 0.05) -> VarianceCheck:
    """Empirically probe the received-signal variance bound.

    Inputs are drawn at full per-EN power either independently or fully
    correlated (every EN transmits the same waveform, the equality case of
    the Cauchy-Schwarz step). Violations are reported, never hidden: for
    sign-mixed channel rows the literal constant can undershoot the
    independent-input variance, and the verdict will say so.
    """
    k, m = h.shape
    bound = lambda_constant(h, ell) * power + 1.0
    rng = np.random.default_rng(seed)
    if correlated:
        x = math.sqrt(power) * np.broadcast_to(
            rng.standard_normal(trials), (m, trials)
        )
    else:
        x = math.sqrt(power) * rng.standard_normal((m, trials))
    y = h @ x + rng.standard_normal((k, trials))
    empirical = np.var(y[:ell], axis=1)
    worst = float(bound - empirical.max())
    holds = bool(empirical.max() <= bound * (1.0 + rel_tol))
    return VarianceCheck(holds, worst, bound, empirical)


def _h1_usable(h1: np.ndarray) -> np.ndarray:
    """Per draw, whether H1 passes the conditioning test."""
    return np.linalg.cond(h1) <= H1_COND_LIMIT  # a NaN condition fails too


def build_submatrices(h: np.ndarray, ell: int) -> Cut:
    """Slice h at ell; SingularH1Error unless every H1 is well conditioned."""
    k, m = h.shape[-2:]
    ell = _cut_parameter(ell, min(m, k))
    h1 = h[..., :ell, m - ell:]
    if not _h1_usable(h1).all():
        raise SingularH1Error(
            f"H1 condition number exceeds {H1_COND_LIMIT:g}; redraw the channel"
        )
    return Cut(h, h1, h[..., ell:, m - ell:], h[..., ell:, :], ell)


def reconstruction_residual(cut: Cut, x: np.ndarray, noise: np.ndarray):
    """Relative Frobenius mismatch of the two sides of the identity.

    Left side: the bottom channel outputs plus the folded top noise
    H2 H1^-1 n_top. Right side: H3 applied to the known inputs stacked on
    the interference-cancelled, H1-inverted top outputs, plus the bottom
    noise. Algebraically zero; numerically limited by the H1 solve.
    """
    h, ell = cut.h, cut.ell
    k, m = h.shape[-2:]
    if ell == k:
        return np.zeros(h.shape[:-2])  # both sides are empty
    known = m - ell
    y = h @ x + noise
    y_top, y_bot = y[..., :ell, :], y[..., ell:, :]
    n_top, n_bot = noise[..., :ell, :], noise[..., ell:, :]
    y_tilde = y_top - h[..., :ell, :known] @ x[..., :known, :]
    left = y_bot + cut.h2 @ np.linalg.solve(cut.h1, n_top)
    top = np.linalg.solve(cut.h1, y_tilde)
    right = cut.h3 @ np.concatenate([x[..., :known, :], top], axis=-2) + n_bot
    scale, diff = _frobenius(left), _frobenius(left - right)
    return diff / np.where(scale > 0, scale, 1.0)


def folded_channel(cut: Cut) -> np.ndarray:
    """Ht = H2 H1^-1, the matrix folding top noise into the bottom outputs."""
    return np.swapaxes(np.linalg.solve(np.swapaxes(cut.h1, -1, -2),
                                       np.swapaxes(cut.h2, -1, -2)), -1, -2)


def logdet_term(cut: Cut):
    """log det(I + Ht Ht^T), finite and independent of any power level.

    Computed as sum log(1 + sigma_i^2) over the singular values of Ht,
    which stays accurate even when Ht is large (forming the Gram matrix
    explicitly would square its dynamic range).
    """
    ht = folded_channel(cut)
    if ht.shape[-2] == 0:
        return np.zeros(ht.shape[:-2])
    svals = np.linalg.svd(ht, compute_uv=False)
    return np.log1p(svals ** 2).sum(axis=-1)


def _gram_dets(packed: np.ndarray, n: int) -> np.ndarray:
    """Exact determinants of a stack of n x n Gram matrices of Python ints,
    each given by its upper triangle, packed row by row.

    Bareiss's (Math. Comp. 1968) fraction-free elimination, each step run
    on the whole stack: every step divides exactly by the previous pivot,
    so entries stay integers whose size grows only linearly with the step.
    A Gram's pivots are its leading principal minors, 0 only if it is
    singular (the oracle's are only where H1 is), so none is searched for;
    each step keeps it symmetric, and past the first row the packing is
    the next step's upper triangle in the same order.
    """
    rows, cols = np.triu_indices(n)
    prev = np.ones((len(packed), 1), dtype=object)
    while n:
        top = packed[:, :n]  # the pivot, then the rest of its row
        if not top[:, 0].all():
            raise SingularH1Error("H1 is exactly singular in the oracle path")
        rest = packed[:, n:] * top[:, :1]
        rest -= top[:, rows[n:]] * top[:, cols[n:]]  # A[i, 0] is A[0, i]
        rest //= prev
        rows, cols = rows[n:] - 1, cols[n:] - 1  # the rest's triangle
        packed, prev, n = rest, top[:, :1].copy(), n - 1  # no view keeps a step
    return prev[:, 0]


def _upper_gram(a: np.ndarray) -> np.ndarray:
    """The upper triangle of every a a^T in a stack, packed row by row."""
    return np.concatenate([a[:, i:i + 1] @ np.swapaxes(a[:, i:], -1, -2)
                           for i in range(a.shape[1])], axis=-1)[:, 0]


def _integer_blocks(g: np.ndarray) -> np.ndarray:
    """Every H1^T H1, then every G^T G = H1^T H1 + H2^T H2, of a stack of
    K x ell G, in exact ints, packed as `_gram_dets` reads them.

    One numpy pass splits G into 53-bit integer mantissas and exponents;
    each column, shifted to its own smallest exponent, is an integer vector
    equal to that column of G times a power of two.
    """
    k, ell = g.shape[-2:]
    frac, exp = np.frexp(np.swapaxes(g, -1, -2).reshape(-1, ell, k))
    cols = ((frac * 2.0 ** 53).astype(np.int64).astype(object)
            << (exp - exp.min(axis=-1, keepdims=True)))
    h1_gram = _upper_gram(cols[..., :ell])
    return np.concatenate([h1_gram, h1_gram + _upper_gram(cols[..., ell:])])


def logdet_oracle(cut: Cut):
    """Exact log det(I + Ht Ht^T) from two ell x ell determinants, per draw.

    With G = [H1; H2], Sylvester's identity gives det(I + Ht Ht^T) =
    det(I + Ht^T Ht) = det(G^T G) / det(H1^T H1), so no inverse is formed.
    A power of two per column makes G an integer matrix; the column scales
    cancel in the ratio. Both Gram determinants of every draw in the stack
    are taken at once, exactly, in Python ints; per draw only the reduced
    ratio's two logarithms are floating point, which keeps the oracle
    honest where a float determinant would cancel.
    """
    ell, h = cut.ell, cut.h
    k, m = h.shape[-2:]
    if ell == k:
        return np.zeros(h.shape[:-2])
    h1_dets, g_dets = np.split(_gram_dets(_integer_blocks(h[..., m - ell:]), ell), 2)
    values = []
    # both are positive, so the gcd reduces them as Fraction would
    for num, den in zip(g_dets.tolist(), h1_dets.tolist()):
        common = math.gcd(num, den)
        values.append(math.log(num // common) - math.log(den // common))
    return np.array(values).reshape(h.shape[:-2])


def noise_covariance(rng: np.random.Generator, dim: int, samples: int):
    """S ~ Wishart(samples, I_dim) / samples: the law of the sample covariance
    of `samples` >= `dim` standard-normal columns, in every leading corner.
    Bartlett (1933): S = L L^T / samples, L lower triangular; the L_ii^2 ~
    chi2(samples - i) are drawn first, then the N(0, 1) below the diagonal,
    row-major. einsum sums without BLAS, so no thread count moves a bit.
    """
    lower = np.diag(np.sqrt(rng.chisquare(samples - np.arange(dim))))
    lower[np.tril_indices(dim, -1)] = rng.standard_normal(dim * (dim - 1) // 2)
    return np.einsum("ij,kj->ik", lower, lower) / samples


def noise_cov_check(cut: Cut, cov: np.ndarray):
    """Max entry error between the covariance of the folded noise and Ht Ht^T.

    `cov` is S from `noise_covariance` (at least `ell` rows); Ht S[:ell, :ell]
    Ht^T is the covariance of Ht n. Ht is first scaled to unit spectral norm:
    the law is scale equivariant, so the identity is the same while the
    absolute error stays comparable across draws (the raw entries of Ht are
    ratio distributed and can be arbitrarily large). An empty or exactly
    zero Ht reads 0: both covariances vanish.
    """
    ht = folded_channel(cut)
    if ht.shape[-2] == 0:
        return np.zeros(ht.shape[:-2])
    norm = np.linalg.svd(ht, compute_uv=False)[..., :1, None]
    ht = ht / np.where(norm > 0, norm, 1.0)
    ht_t = np.swapaxes(ht, -1, -2)
    empirical = ht @ cov[:cut.ell, :cut.ell] @ ht_t
    return np.abs(empirical - ht @ ht_t).max(axis=(-2, -1))


def sample_regular_channel(rng: np.random.Generator, num_users: int,
                           num_ens: int, ell: int, count: int,
                           extra: int) -> tuple[Cut, np.ndarray]:
    """`count` standard-normal K x M draws, cut at ell with a well-conditioned
    H1, each followed by `extra` stream values.

    Reads the stream as `count` calls of (channel, redrawn while H1 fails,
    then `extra` values) would: a draw rejected at index i moves i's
    channel and everything after it on by K*M values, drawn on top. Returns
    the stacked cut and the (count, extra) values after each channel.
    """
    size = num_users * num_ens
    per = size + extra
    values = rng.standard_normal(count * per)
    starts = np.arange(count) * per
    attempts = np.ones(count, dtype=int)
    while True:
        draws = values[starts[:, None] + np.arange(per)]
        h = draws[:, :size].reshape(count, num_users, num_ens)
        try:
            return build_submatrices(h, ell), draws[:, size:]
        except SingularH1Error:
            first = int(np.argmin(_h1_usable(h[:, :ell, num_ens - ell:])))
        if attempts[first] > MAX_REDRAWS:
            raise SingularH1Error(
                f"no well-conditioned H1 after {MAX_REDRAWS} redraws (RNG misuse?)"
            )
        attempts[first] += 1
        starts[first:] += size
        values = np.concatenate([values, rng.standard_normal(size)])


@dataclass(frozen=True)
class ConverseReport:
    """Aggregate residuals for one cut parameter ell."""

    ell: int
    trials: int
    lambda_max: float
    max_reconstruction_residual: float
    max_logdet: float
    max_logdet_oracle_error: float
    noise_cov_error: float
    noise_cov_samples: int


def verify_converse(config: SystemConfig, ells=None, trials: int = 1000,
                    seed: int = 0) -> list[ConverseReport]:
    """Monte-Carlo verification of the identities for each requested ell.

    Every cut's noise check reads the leading ell x ell corner of one
    Wishart noise covariance S, drawn from `default_rng(seed + 1)`. A bad
    trial count or seed, then, once each ell is checked, a run over a
    `model` cap (K*M, trials x cuts, trials x the sum of ell**3 over the
    cuts) is an ArgumentError raised before any draw.
    """
    check_trials(trials)
    check_seed(seed)
    m, k = config.num_ens, config.num_users
    ells = (range(1, min(m, k) + 1) if ells is None
            else [_cut_parameter(ell, min(m, k)) for ell in ells])
    cuts = sorted(set(ells))
    check_cap(k * m, "MAX_LINKS", "K*M")
    check_cap(trials * len(cuts), "MAX_CAMPAIGN_TRIALS", "trials x cuts")
    check_cap(trials * sum(ell**3 for ell in cuts), "MAX_CONVERSE_COST",
              "trials x the sum of ell^3 over the cuts")
    rows = max([ell for ell in cuts if ell < k], default=0)  # ell = K folds none
    cov = noise_covariance(np.random.default_rng(seed + 1), rows, NOISE_COV_SAMPLES)
    reports = {}
    inputs = m * TIME_COLUMNS
    for ell in cuts:
        rng = np.random.default_rng((seed, ell))
        lam, worst_residual, worst_logdet, worst_oracle = -math.inf, 0.0, 0.0, 0.0
        for done in range(0, trials, TRIAL_CHUNK):
            count = min(TRIAL_CHUNK, trials - done)
            cut, rest = sample_regular_channel(rng, k, m, ell, count,
                                               inputs + k * TIME_COLUMNS)
            x = rest[:, :inputs].reshape(count, m, TIME_COLUMNS)
            noise = rest[:, inputs:].reshape(count, k, TIME_COLUMNS)
            lam = max(lam, float(lambda_constant(cut.h, ell).max()))
            worst_residual = max(
                worst_residual, float(reconstruction_residual(cut, x, noise).max())
            )
            values = logdet_term(cut)
            worst_logdet = max(worst_logdet, float(np.abs(values).max()))
            worst_oracle = max(worst_oracle,
                               float(np.abs(values - logdet_oracle(cut)).max()))
        cov_cut = sample_regular_channel(np.random.default_rng((seed, ell, 1)),
                                         k, m, ell, 1, 0)[0]
        reports[ell] = ConverseReport(
            ell=ell,
            trials=trials,
            lambda_max=lam,
            max_reconstruction_residual=worst_residual,
            max_logdet=worst_logdet,
            max_logdet_oracle_error=worst_oracle,
            noise_cov_error=float(noise_cov_check(cov_cut, cov)[0]),
            noise_cov_samples=NOISE_COV_SAMPLES,
        )
    return [reports[ell] for ell in ells]


def report_passes(report: ConverseReport,
                  reconstruction_tol: float = RECONSTRUCTION_TOL,
                  logdet_tol: float = LOGDET_ORACLE_TOL,
                  noise_tol: float = NOISE_COV_TOL) -> bool:
    return (
        report.max_reconstruction_residual < reconstruction_tol
        and report.max_logdet_oracle_error < logdet_tol
        and report.noise_cov_error < noise_tol
        and math.isfinite(report.max_logdet)
    )
