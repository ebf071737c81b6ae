"""Delivery-time bounds, achievable points and tradeoff envelopes.

Everything here is exact rational arithmetic over the fractional cache size
mu. Sweeps run on Python ints: a grid is integer numerators over one
denominator, and each curve value is an integer pair reduced once, where it
is emitted; a `Fraction` is built only when a caller asks for one. The
converse is a family of affine lower bounds on the normalized
delivery time (NDT), indexed by a cut parameter ell in {1..min(M,K)}:

    delta(mu) >= (K - (M-ell)+ (K-ell)+ mu) / ell

Achievability comes from two corner schemes (interference alignment over
the induced X-channel at mu = 1/M; zero-forcing broadcast at mu = 1), plus
known literature points for specific networks, glued together by the
cache/time-sharing convex envelope.
"""

from __future__ import annotations

import enum
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import ArgumentError, EmptyInputError, RangeError, UnsupportedError
from .model import SystemConfig, as_fraction

PROVENANCE_TAGS = (
    "lower-bound",
    "x-channel-corner",
    "zf-corner",
    "literature-point",
    "envelope",
)


@dataclass(frozen=True)
class NdtPoint:
    """One (mu, delta) point with a tag recording where it came from."""

    mu: Fraction
    ndt: Fraction
    provenance: str = "envelope"

    def __post_init__(self):
        object.__setattr__(self, "mu", as_fraction(self.mu))
        object.__setattr__(self, "ndt", as_fraction(self.ndt))
        if not 0 < self.mu <= 1:
            raise RangeError(f"mu {self.mu} outside (0, 1]")
        if self.ndt < 1:
            raise ArgumentError(
                f"ndt {self.ndt} < 1: nothing beats the interference-free baseline"
            )
        if self.provenance not in PROVENANCE_TAGS:
            raise ArgumentError(f"unknown provenance tag {self.provenance!r}")


class CsiMode(enum.Enum):
    """Channel knowledge available at the ENs."""

    PERFECT = "perfect"
    DELAYED = "delayed"
    NO_CSI = "nocsi"


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise-linear NDT curve given by breakpoints increasing in mu.

    `ells[i]` is the converse cut that segment i follows (a one-point curve
    is one flat segment); envelopes leave `ells` empty.
    """

    points: tuple[NdtPoint, ...]
    ells: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.points:
            raise EmptyInputError("a curve needs at least one breakpoint")
        if any(q.mu <= p.mu for p, q in zip(self.points, self.points[1:])):
            raise ArgumentError("breakpoints must be strictly increasing in mu")
        slopes = self._slopes
        if self.ells and len(self.ells) != len(slopes):
            raise ArgumentError(f"need {len(slopes)} ells, got {len(self.ells)}")
        if any(s > 0 for s in slopes):
            raise ArgumentError("curve must be non-increasing in mu")
        if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
            raise ArgumentError("curve must be convex in mu")

    @cached_property
    def _slopes(self) -> tuple[Fraction, ...]:
        pts = self.points
        return tuple(
            (q.ndt - p.ndt) / (q.mu - p.mu) for p, q in zip(pts, pts[1:])
        ) or (Fraction(0),)

    @cached_property
    def _lines(self) -> tuple[tuple[int, int, int], ...]:
        """Per segment, integers (a, b, c) with value (a + b*mu)/c on it."""
        lines = []
        for p, slope in zip(self.points, self._slopes):
            intercept = p.ndt - slope * p.mu
            c = math.lcm(intercept.denominator, slope.denominator)
            lines.append((intercept.numerator * (c // intercept.denominator),
                          slope.numerator * (c // slope.denominator), c))
        return tuple(lines)

    def _walk(self, grid: MuGrid) -> list[tuple[int, int, int]]:
        """(numerator, denominator, segment index) of the value at each mu of
        a sorted grid, in one pass; each value is reduced.

        Only the grid's ends are checked against the span. A breakpoint
        belongs to the segment on its left: its smallest maximizing cut.
        """
        pts, nums, den = self.points, grid.numerators, grid.denominator
        lo, hi = pts[0].mu, pts[-1].mu
        for n in nums[:1] + nums[-1:]:
            if not (lo.numerator * den <= n * lo.denominator
                    and n * hi.denominator <= hi.numerator * den):
                raise RangeError(
                    f"mu {Fraction(n, den)} outside curve span [{lo}, {hi}]")
        # n/den lies left of an inner breakpoint r iff n <= floor(r * den)
        stops = [bisect_right(nums, p.mu.numerator * den // p.mu.denominator)
                 for p in pts[1:len(self._lines)]] + [len(nums)]
        walked, start = [], 0
        for seg, ((a, b, c), stop) in enumerate(zip(self._lines, stops)):
            base, scale = a * den, c * den
            for n in nums[start:stop]:
                value = base + b * n
                g = math.gcd(value, scale)
                walked.append((value // g, scale // g, seg))
            start = stop
        return walked

    def value_at(self, mu) -> Fraction:
        """Exact value at one mu of the curve's span."""
        mu = as_fraction(mu)
        num, den, _ = self._walk(MuGrid((mu.numerator,), mu.denominator))[0]
        return Fraction(num, den)


def ndt_lower_bound_at(config: SystemConfig, mu, ell: int) -> Fraction:
    """One member of the bound family: (K - (M-ell)+ (K-ell)+ mu) / ell."""
    m, k = config.num_ens, config.num_users
    if not isinstance(ell, int) or not 1 <= ell <= min(m, k):
        raise RangeError(f"ell {ell!r} outside {{1..{min(m, k)}}}")
    mu = as_fraction(mu)
    if not Fraction(1, m) <= mu <= 1:
        raise RangeError(f"mu {mu} outside feasible range [1/{m}, 1]")
    return Fraction(k - max(m - ell, 0) * max(k - ell, 0) * mu, ell)


def ndt_lower_bound(config: SystemConfig, mu) -> tuple[Fraction, int]:
    """Exact max of the bound family and the smallest maximizing ell."""
    mu = as_fraction(mu)
    best: Fraction | None = None
    best_ell = 0
    for ell in range(1, min(config.num_ens, config.num_users) + 1):
        value = ndt_lower_bound_at(config, mu, ell)
        if best is None or value > best:
            best, best_ell = value, ell
    return best, best_ell


def corner_point_xchannel(config: SystemConfig) -> NdtPoint:
    """Interference-alignment corner: mu = 1/M, delta = (M+K-1)/M."""
    m, k = config.num_ens, config.num_users
    return NdtPoint(Fraction(1, m), Fraction(m + k - 1, m), "x-channel-corner")


def corner_point_zero_forcing(config: SystemConfig) -> NdtPoint:
    """Full-caching corner: mu = 1, delta = K/min(M,K) via cooperative ZF."""
    m, k = config.num_ens, config.num_users
    return NdtPoint(Fraction(1), Fraction(k, min(m, k)), "zf-corner")


def achievable_points(config: SystemConfig,
                      csi_mode: CsiMode = CsiMode.PERFECT) -> list[NdtPoint]:
    """Known achievable (mu, delta) points for the given CSI regime.

    Perfect CSI yields the two corner points for any (M, K), plus the
    published inner point (2/3, 7/6) for the 3x3 network. Delayed and
    absent CSI carry published points for the 2x2 network only; other
    sizes are rejected rather than extrapolated.
    """
    m, k = config.num_ens, config.num_users
    if csi_mode is CsiMode.PERFECT:
        points = [corner_point_xchannel(config), corner_point_zero_forcing(config)]
        if (m, k) == (3, 3):
            points.append(NdtPoint(Fraction(2, 3), Fraction(7, 6), "literature-point"))
        return points
    if (m, k) != (2, 2):
        raise UnsupportedError(
            f"{csi_mode.value} CSI points are only available for M=K=2, "
            f"got M={m}, K={k}"
        )
    if csi_mode is CsiMode.DELAYED:
        # 2x2 X-channel sum-DoF 6/5 and 2x2 broadcast sum-DoF 4/3 under delay.
        return [
            NdtPoint(Fraction(1, 2), Fraction(5, 3), "literature-point"),
            NdtPoint(Fraction(1), Fraction(3, 2), "literature-point"),
        ]
    # No CSI: time division, sum-DoF 1, flat NDT of K.
    return [
        NdtPoint(Fraction(1, 2), Fraction(k), "literature-point"),
        NdtPoint(Fraction(1), Fraction(k), "literature-point"),
    ]


def convex_envelope(points) -> TradeoffCurve:
    """Lower convex hull of (mu, delta) points, as an ordered breakpoint list.

    Duplicated points are tolerated; of several points sharing a mu only the
    lowest survives; collinear interior points are dropped so the breakpoint
    list is canonical (invariant to input order and duplication).
    """
    hull: list[NdtPoint] = []
    for p in sorted(points, key=lambda p: (p.mu, p.ndt)):
        if hull and hull[-1].mu == p.mu:
            continue  # the lowest point at this mu came first
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    if not hull:
        raise EmptyInputError("convex_envelope needs at least one point")
    return TradeoffCurve(tuple(hull))


def _cross(o: NdtPoint, a: NdtPoint, b: NdtPoint) -> Fraction:
    return (a.mu - o.mu) * (b.ndt - o.ndt) - (a.ndt - o.ndt) * (b.mu - o.mu)


def lower_bound_curve(config: SystemConfig) -> TradeoffCurve:
    """The exact converse over [1/M, 1]: the upper envelope of the cut lines.

    Slopes rise strictly with ell, so one stack pass (the convex-hull trick)
    is O(min(M, K)); dropping the middle of three concurrent lines keeps the
    smallest maximizing ell left of each break. ell = 1 alone is maximal at
    1/M; a line that only touches at mu = 1 (the flat ell = M = K) is cut.
    """
    m, k = config.num_ens, config.num_users
    lines: list[tuple[int, Fraction, Fraction]] = []  # (ell, intercept, slope)
    breaks: list[Fraction] = []
    for ell in range(1, min(m, k) + 1):
        intercept, slope = Fraction(k, ell), Fraction(-(m - ell) * (k - ell), ell)
        while lines:
            _, top_intercept, top_slope = lines[-1]
            overtake = (top_intercept - intercept) / (slope - top_slope)
            if not breaks or overtake > breaks[-1]:
                break
            del lines[-1], breaks[-1]
        if lines:
            breaks.append(overtake)
        lines.append((ell, intercept, slope))
    if breaks and breaks[-1] == 1:
        del lines[-1], breaks[-1]
    mus = sorted({Fraction(1, m), *breaks, Fraction(1)})
    points = [NdtPoint(mu, intercept + slope * mu, "lower-bound")
              for mu, (_, intercept, slope) in zip(mus, [lines[0], *lines])]
    return TradeoffCurve(tuple(points), tuple(ell for ell, _, _ in lines))


class MuGrid:
    """A mu grid as integer numerators over one common denominator.

    Indexing and iteration yield each mu as a `Fraction`; sweeps read the ints.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: tuple[int, ...], denominator: int):
        self.numerators, self.denominator = numerators, denominator

    @classmethod
    def of(cls, mus) -> MuGrid:
        """The grid of some rationals over the lcm of their denominators."""
        mus = [as_fraction(mu) for mu in mus]
        den = math.lcm(*(mu.denominator for mu in mus))
        return cls(tuple(mu.numerator * (den // mu.denominator) for mu in mus),
                   den)

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MuGrid(self.numerators[index], self.denominator)
        return Fraction(self.numerators[index], self.denominator)

    def reduced(self) -> list[tuple[int, int]]:
        """Each mu as a reduced (numerator, denominator) pair."""
        nums, den = self.numerators, self.denominator
        gcds = map(math.gcd, nums, itertools.repeat(den))
        return [(n // g, den // g) for n, g in zip(nums, gcds)]


@dataclass(frozen=True)
class TradeoffRow:
    """One grid point of a sweep; converse columns empty outside perfect CSI."""

    mu: Fraction
    lower: Fraction | None
    ell_star: int | None
    upper: Fraction
    gap: Fraction | None
    tight: bool | None


@dataclass(frozen=True)
class TradeoffTable:
    """A sweep's rows as ints; `rows` builds their `Fraction` form on request.

    Each int row is (mu_num, mu_den, lower_num, lower_den, ell_star,
    upper_num, upper_den), every pair reduced; outside perfect CSI the three
    converse entries are None.
    """

    config: SystemConfig
    csi_mode: CsiMode
    int_rows: tuple[tuple, ...]

    @cached_property
    def rows(self) -> tuple[TradeoffRow, ...]:
        rows = []
        for mu_num, mu_den, lo_num, lo_den, ell, up_num, up_den in self.int_rows:
            upper = Fraction(up_num, up_den)
            lower = None if ell is None else Fraction(lo_num, lo_den)
            gap = None if ell is None else upper - lower
            rows.append(TradeoffRow(Fraction(mu_num, mu_den), lower, ell, upper,
                                    gap, None if ell is None else gap == 0))
        return tuple(rows)


# A cap on the grid's rows, about 8x the 118,801 of the 100x100 default
# grid: a finer step is refused before any grid point is built.
MAX_GRID_ROWS = 1_000_000


def default_mu_grid(config: SystemConfig, step=None) -> MuGrid:
    """Grid over [1/M, 1]; the default step 1/(12*M*K) hits every known corner.

    For a step p/q the grid is numerators over lcm(M, q), stepping from 1/M
    and ending at 1. A step that gives more than MAX_GRID_ROWS rows is an
    ArgumentError.
    """
    m, k = config.num_ens, config.num_users
    step = Fraction(1, 12 * m * k) if step is None else as_fraction(step)
    if step <= 0:
        raise ArgumentError(f"grid step must be positive, got {step}")
    den = math.lcm(m, step.denominator)
    first, stride = den // m, step.numerator * (den // step.denominator)
    rows = -(-(den - first) // stride) + 1
    if rows > MAX_GRID_ROWS:
        raise ArgumentError(
            f"grid step {step} gives {rows} rows at M={m}, "
            f"more than the {MAX_GRID_ROWS} allowed"
        )
    return MuGrid((*range(first, den, stride), den), den)


def tradeoff_sweep(config: SystemConfig, mu_grid,
                   csi_mode: CsiMode = CsiMode.PERFECT) -> TradeoffTable:
    """Evaluate converse and achievable envelope over a mu grid.

    The grid is a `MuGrid` or any sorted rationals. Delayed and no-CSI modes
    report achievability only; the converse is proved for perfect CSI and
    emitting it elsewhere would invent results.
    """
    grid = mu_grid if isinstance(mu_grid, MuGrid) else MuGrid.of(mu_grid)
    nums = grid.numerators
    if any(b <= a for a, b in zip(nums, nums[1:])):
        raise ArgumentError("mu_grid must be sorted and duplicate-free")
    # the envelope spans the feasible range [1/M, 1]: its walk checks the grid
    uppers = convex_envelope(achievable_points(config, csi_mode))._walk(grid)
    if csi_mode is not CsiMode.PERFECT:
        rows = [(mu_num, mu_den, None, None, None, up_num, up_den)
                for (mu_num, mu_den), (up_num, up_den, _)
                in zip(grid.reduced(), uppers)]
        return TradeoffTable(config, csi_mode, tuple(rows))
    converse = lower_bound_curve(config)
    ells = converse.ells
    rows = [(mu_num, mu_den, lo_num, lo_den, ells[seg], up_num, up_den)
            for (mu_num, mu_den), (lo_num, lo_den, seg), (up_num, up_den, _)
            in zip(grid.reduced(), converse._walk(grid), uppers)]
    return TradeoffTable(config, csi_mode, tuple(rows))


def optimality_regions(config: SystemConfig) -> list[tuple[Fraction, Fraction]]:
    """Maximal mu-intervals where the converse meets the achievable envelope.

    Returned as (lo, hi) pairs with lo == hi for isolated touching points.
    Both curves are piecewise linear with rational breakpoints, so on any
    cell of the common refinement the gap is affine and non-negative: it
    vanishes on a cell interior only if it vanishes at both ends.
    """
    envelope = convex_envelope(achievable_points(config, CsiMode.PERFECT))
    converse = lower_bound_curve(config)
    candidates = sorted({p.mu for p in envelope.points + converse.points})
    regions: list[tuple[Fraction, Fraction]] = []
    touching = False
    for row in tradeoff_sweep(config, candidates).rows:
        if row.gap < 0:
            raise ArgumentError(
                f"achievable envelope below converse at mu={row.mu}: gap {row.gap}"
            )
        if row.tight:  # extend the region ending at the previous mu, or open one
            regions.append((regions.pop()[0] if touching else row.mu, row.mu))
        touching = row.tight
    return regions
