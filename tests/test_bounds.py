"""Tests for the exact-rational bound family, corner points and envelopes."""

import csv
import io
import itertools
import json
import random
import tempfile
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edgecache.bounds import (
    CsiMode,
    NdtPoint,
    TradeoffCurve,
    achievable_points,
    convex_envelope,
    corner_point_xchannel,
    corner_point_zero_forcing,
    default_mu_grid,
    lower_bound_curve,
    ndt_lower_bound,
    ndt_lower_bound_at,
    optimality_regions,
    tradeoff_sweep,
)
from edgecache.cli import main
from edgecache.errors import (
    ArgumentError,
    EmptyInputError,
    RangeError,
    UnsupportedError,
)
from edgecache.model import validate_config

F = Fraction


def cfg(m, k, n=None, mu=None, l=1200):
    return validate_config(m, k, n if n else max(m, k),
                           mu if mu is not None else F(1), l)


def cut_line_meets(m, k):
    """Every mu in [1/M, 1] where two cut lines cross: a superset of the
    converse's breakpoints, found without building its hull."""
    lines = [(F(k, ell), F(-(m - ell) * (k - ell), ell))
             for ell in range(1, min(m, k) + 1)]
    meets = {(a1 - a2) / (s2 - s1)
             for (a1, s1), (a2, s2) in itertools.combinations(lines, 2)}
    return {mu for mu in meets if F(1, m) <= mu <= 1}


def chord_value(curve, mu):
    """Reference evaluation: bisect for the bracketing breakpoints, then
    interpolate along their chord."""
    points = curve.points
    idx = bisect_right(points, mu, key=lambda p: p.mu) - 1
    if idx == len(points) - 1:
        return points[-1].ndt
    p, q = points[idx], points[idx + 1]
    alpha = (q.mu - mu) / (q.mu - p.mu)
    return alpha * p.ndt + (1 - alpha) * q.ndt


@st.composite
def networks_with_grids(draw):
    """(M, K, grid): a sorted rational grid on [1/M, 1] holding both ends
    and every crossing of two cut lines."""
    m, k = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    extra = draw(st.lists(st.fractions(F(1, m), 1, max_denominator=500),
                          max_size=20))
    return m, k, sorted({F(1, m), F(1), *cut_line_meets(m, k), *extra})


def fraction_grid(m, step):
    """Reference grid: Fraction steps from 1/M while below 1, then 1."""
    grid, mu = [], F(1, m)
    while mu < 1:
        grid.append(mu)
        mu += step
    return grid + [F(1)]


def fraction_walk(curve, grid):
    """Reference walk in Fractions: (intercept + slope * mu, segment)."""
    pts = curve.points
    slopes = [(q.ndt - p.ndt) / (q.mu - p.mu)
              for p, q in zip(pts, pts[1:])] or [F(0)]
    walked, i = [], 0
    for mu in grid:
        while i < len(slopes) - 1 and mu > pts[i + 1].mu:
            i += 1
        walked.append((pts[i].ndt + slopes[i] * (mu - pts[i].mu), i))
    return walked


def reference_files(c, step, csi):
    """The bounds CSV and JSON bytes from a Fraction sweep, csv.writer and
    json.dumps, with each row checked against the per-point references."""
    m, k = c.num_ens, c.num_users
    grid = fraction_grid(m, F(1, 12 * m * k) if step is None else step)
    envelope = convex_envelope(achievable_points(c, csi))
    uppers = [value for value, _ in fraction_walk(envelope, grid)]
    rows = []  # (mu, lower, ell_star, upper)
    if csi is CsiMode.PERFECT:
        converse = lower_bound_curve(c)
        for mu, upper, (lower, seg) in zip(grid, uppers,
                                           fraction_walk(converse, grid)):
            assert (lower, converse.ells[seg]) == ndt_lower_bound(c, mu)
            assert lower == chord_value(converse, mu)
            rows.append((mu, lower, converse.ells[seg], upper))
    else:
        rows = [(mu, None, None, upper) for mu, upper in zip(grid, uppers)]
    assert uppers == [chord_value(envelope, mu) for mu in grid]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["mu_num", "mu_den", "lower_num", "lower_den",
                     "upper_num", "upper_den", "ell_star", "tight"])
    for mu, lower, ell, upper in rows:
        writer.writerow([mu.numerator, mu.denominator,
                         *(("", "") if lower is None else
                           (lower.numerator, lower.denominator)),
                         upper.numerator, upper.denominator,
                         "" if ell is None else ell,
                         "" if lower is None else int(lower == upper)])
    doc = {"csi": csi.value, "rows": [
        {"mu": str(mu), "lower": None if lower is None else str(lower),
         "upper": str(upper), "ell_star": ell,
         "tight": None if lower is None else lower == upper}
        for mu, lower, ell, upper in rows]}
    return (text.getvalue().encode(),
            (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


@st.composite
def bounds_runs(draw):
    """(M, K, step or None, CSI mode): a `bounds` run of at most ~90 rows;
    the degraded modes exist only at 2x2."""
    csi = draw(st.sampled_from(list(CsiMode)))
    m, k = ((draw(st.integers(1, 12)), draw(st.integers(1, 12)))
            if csi is CsiMode.PERFECT else (2, 2))
    step = draw(st.builds(F, st.integers(1, 6), st.integers(1, 90)))
    return m, k, step, csi


class TestBoundsFilesMatchTheFractionReference:
    @given(bounds_runs())
    @example((12, 5, F(1, 97), CsiMode.PERFECT))    # does not divide 11/12
    @example((3, 4, F(3, 7), CsiMode.PERFECT))      # p > 1
    @example((5, 2, F(2), CsiMode.PERFECT))         # wider than 1 - 1/M
    @example((1, 4, F(1, 7), CsiMode.PERFECT))      # M = 1: the grid is {1}
    @example((7, 1, F(2, 9), CsiMode.PERFECT))      # K = 1
    @example((3, 3, None, CsiMode.PERFECT))         # default 1/(12MK)
    @example((2, 2, F(1, 10), CsiMode.DELAYED))
    @example((2, 2, None, CsiMode.NO_CSI))
    def test_csv_and_json_bytes(self, run):
        m, k, step, csi = run
        c = cfg(m, k)
        csv_bytes, json_bytes = reference_files(c, step, csi)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "b.csv"
            flags = [] if step is None else ["--grid-step", str(step)]
            assert main(["bounds", "--m", str(m), "--k", str(k), "--csi",
                         csi.value, *flags, "--json", "--out", str(out)]) == 0
            assert out.read_bytes() == csv_bytes
            assert out.with_suffix(".json").read_bytes() == json_bytes
        table = tradeoff_sweep(c, default_mu_grid(c, step), csi)
        for row in table.rows:
            if csi is CsiMode.PERFECT:
                assert (row.lower, row.ell_star) == ndt_lower_bound(c, row.mu)
                assert row.gap == row.upper - row.lower
                assert row.tight is (row.gap == 0)
            else:
                assert row.lower is row.ell_star is row.gap is row.tight is None


class TestLowerBoundFamily:
    def test_member_3x3(self):
        assert ndt_lower_bound_at(cfg(3, 3), F(1, 2), 2) == F(5, 4)

    def test_member_kills_mu_term(self):
        # (M-ell)+ = 0 for ell = M
        assert ndt_lower_bound_at(cfg(2, 2), F(1), 2) == F(1)

    def test_member_hand_evaluated(self):
        # 3 - 1*2*(3/4) = 3/2
        assert ndt_lower_bound_at(cfg(2, 3), F(3, 4), 1) == F(3, 2)

    @pytest.mark.parametrize("ell", [0, 3, -1, "1"])
    def test_rejects_bad_ell(self, ell):
        with pytest.raises(RangeError):
            ndt_lower_bound_at(cfg(2, 2), F(1, 2), ell)

    def test_rejects_mu_outside_feasible_range(self):
        with pytest.raises(RangeError):
            ndt_lower_bound_at(cfg(2, 2), F(1, 4), 1)

    def test_max_2x2(self):
        assert ndt_lower_bound(cfg(2, 2), F(1, 2)) == (F(3, 2), 1)

    def test_max_3x3_at_one_third(self):
        assert ndt_lower_bound(cfg(3, 3), F(1, 3)) == (F(5, 3), 1)

    def test_max_3x3_at_one_half(self):
        # max{1, 5/4, 1} over ell in {1,2,3}
        assert ndt_lower_bound(cfg(3, 3), F(1, 2)) == (F(5, 4), 2)

    def test_tie_break_prefers_smallest_ell(self):
        # at mu = 1 for M=K=2 both ells give 1
        value, ell = ndt_lower_bound(cfg(2, 2), F(1))
        assert (value, ell) == (F(1), 1)


class TestCornerPoints:
    @pytest.mark.parametrize("m,k,expect", [
        (2, 2, (F(1, 2), F(3, 2))),
        (3, 3, (F(1, 3), F(5, 3))),
        (2, 3, (F(1, 2), F(2))),
    ])
    def test_xchannel(self, m, k, expect):
        p = corner_point_xchannel(cfg(m, k))
        assert (p.mu, p.ndt) == expect
        assert p.provenance == "x-channel-corner"

    @pytest.mark.parametrize("m,k,expect", [
        (2, 2, (F(1), F(1))),
        (3, 2, (F(1), F(1))),
        (2, 3, (F(1), F(3, 2))),
    ])
    def test_zero_forcing(self, m, k, expect):
        p = corner_point_zero_forcing(cfg(m, k))
        assert (p.mu, p.ndt) == expect
        assert p.provenance == "zf-corner"

    def test_corners_meet_lower_bound_up_to_6x6(self):
        for m in range(1, 7):
            for k in range(1, 7):
                c = cfg(m, k)
                assert ndt_lower_bound(c, F(1, m))[0] == F(m + k - 1, m)
                assert ndt_lower_bound(c, F(1))[0] == F(k, min(m, k))


class TestAchievablePoints:
    def test_perfect_3x3_includes_literature_point(self):
        pts = {(p.mu, p.ndt) for p in achievable_points(cfg(3, 3))}
        assert pts == {(F(1, 3), F(5, 3)), (F(2, 3), F(7, 6)), (F(1), F(1))}

    def test_perfect_2x2(self):
        pts = {(p.mu, p.ndt) for p in achievable_points(cfg(2, 2))}
        assert pts == {(F(1, 2), F(3, 2)), (F(1), F(1))}

    def test_delayed_2x2(self):
        pts = {(p.mu, p.ndt)
               for p in achievable_points(cfg(2, 2), CsiMode.DELAYED)}
        assert pts == {(F(1, 2), F(5, 3)), (F(1), F(3, 2))}

    def test_nocsi_2x2_flat(self):
        pts = {(p.mu, p.ndt)
               for p in achievable_points(cfg(2, 2), CsiMode.NO_CSI)}
        assert pts == {(F(1, 2), F(2)), (F(1), F(2))}

    @pytest.mark.parametrize("mode", [CsiMode.DELAYED, CsiMode.NO_CSI])
    def test_degraded_csi_rejected_outside_2x2(self, mode):
        with pytest.raises(UnsupportedError):
            achievable_points(cfg(3, 3), mode)


class TestConvexEnvelope:
    def test_chord_evaluation(self):
        env = convex_envelope([
            NdtPoint(F(1, 2), F(3, 2)), NdtPoint(F(1), F(1)),
        ])
        assert env.value_at(F(3, 4)) == F(5, 4)

    def test_single_point_degenerate(self):
        env = convex_envelope([NdtPoint(F(1), F(1))])
        assert env.value_at(F(1)) == F(1)
        with pytest.raises(RangeError):
            env.value_at(F(1, 2))

    def test_strictly_below_point_is_retained(self):
        pts = [
            NdtPoint(F(1, 3), F(5, 3)),
            NdtPoint(F(2, 3), F(7, 6)),
            NdtPoint(F(1), F(1)),
        ]
        env = convex_envelope(pts)
        assert [(p.mu, p.ndt) for p in env.points] == [
            (F(1, 3), F(5, 3)), (F(2, 3), F(7, 6)), (F(1), F(1)),
        ]
        # the chord of the outer points sits strictly above the inner point
        chord_at_two_thirds = F(4, 3)
        assert F(7, 6) < chord_at_two_thirds

    def test_collinear_midpoint_dropped(self):
        env = convex_envelope([
            NdtPoint(F(1, 2), F(3, 2)),
            NdtPoint(F(3, 4), F(5, 4)),
            NdtPoint(F(1), F(1)),
        ])
        assert [p.mu for p in env.points] == [F(1, 2), F(1)]

    def test_point_above_hull_dropped(self):
        env = convex_envelope([
            NdtPoint(F(1, 2), F(3, 2)),
            NdtPoint(F(3, 4), F(7, 5)),  # above the 2 - mu chord
            NdtPoint(F(1), F(1)),
        ])
        assert [p.mu for p in env.points] == [F(1, 2), F(1)]

    def test_order_and_duplication_invariance(self):
        pts = [
            NdtPoint(F(1, 3), F(5, 3)),
            NdtPoint(F(2, 3), F(7, 6)),
            NdtPoint(F(1), F(1)),
        ]
        reference = convex_envelope(pts).points
        rng = random.Random(17)
        for _ in range(20):
            shuffled = pts + rng.sample(pts, k=2)
            rng.shuffle(shuffled)
            assert convex_envelope(shuffled).points == reference

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            convex_envelope([])

    def test_lowest_point_at_a_shared_mu_survives(self):
        first = NdtPoint(F(1, 2), F(3, 2))
        twin = NdtPoint(F(1, 2), F(3, 2), "zf-corner")
        for pts in ([NdtPoint(F(1, 2), F(2)), first, twin, NdtPoint(F(1), F(1))],
                    [NdtPoint(F(1), F(1)), first, NdtPoint(F(1, 2), F(2)), twin]):
            env = convex_envelope(pts)
            # of equal points the first one given is kept, provenance included
            assert env.points == (first, NdtPoint(F(1), F(1)))

    def test_exact_arithmetic_on_2x2_line(self):
        env = convex_envelope(achievable_points(cfg(2, 2)))
        rng = random.Random(23)
        for _ in range(100):
            q = rng.randrange(2, 60)
            p = rng.randrange((q + 1) // 2, q + 1)   # mu = p/q in [1/2, 1]
            assert env.value_at(F(p, q)) == F(2 * q - p, q)


class TestSweepAndRegions:
    def test_2x2_tight_everywhere(self):
        table = tradeoff_sweep(cfg(2, 2), [F(1, 2), F(3, 4), F(1)])
        values = [(r.lower, r.upper, r.tight) for r in table.rows]
        assert values == [
            (F(3, 2), F(3, 2), True),
            (F(5, 4), F(5, 4), True),
            (F(1), F(1), True),
        ]

    def test_3x3_gap_at_one_half(self):
        table = tradeoff_sweep(cfg(3, 3), [F(1, 2)])
        row = table.rows[0]
        assert row.lower == F(5, 4)
        assert row.upper == F(17, 12)
        assert row.gap == F(1, 6)
        assert row.tight is False

    def test_3x3_tight_at_five_sixths(self):
        row = tradeoff_sweep(cfg(3, 3), [F(5, 6)]).rows[0]
        assert row.lower == row.upper == F(13, 12)
        assert row.tight is True

    def test_degraded_modes_have_no_converse_columns(self):
        table = tradeoff_sweep(cfg(2, 2), [F(1, 2), F(1)], CsiMode.NO_CSI)
        for row in table.rows:
            assert row.lower is None
            assert row.ell_star is None
            assert row.gap is None
            assert row.upper == F(2)

    @pytest.mark.parametrize("mode", list(CsiMode))
    @pytest.mark.parametrize("grid", [[F(1, 4), F(1)], [F(1, 2), F(3, 2)],
                                      [F(0)], [F(1, 2), F(3, 4), F(1), F(2)]])
    def test_grid_outside_feasible_range_rejected(self, mode, grid):
        with pytest.raises(RangeError):
            tradeoff_sweep(cfg(2, 2), grid, mode)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ArgumentError):
            tradeoff_sweep(cfg(2, 2), [F(1), F(1, 2)])

    @pytest.mark.parametrize("m,step,expect", [
        (2, F(1, 3), [F(1, 2), F(5, 6), F(1)]),
        (2, F(1, 2), [F(1, 2), F(1)]),
        (2, F(2), [F(1, 2), F(1)]),
        (3, F(1, 4), [F(1, 3), F(7, 12), F(5, 6), F(1)]),
        (1, F(1, 7), [F(1)]),
    ])
    def test_grid_steps_from_one_over_m_and_ends_at_one(self, m, step, expect):
        assert list(default_mu_grid(cfg(m, 2), step)) == expect

    def test_default_grid_hits_breakpoints(self):
        grid = default_mu_grid(cfg(3, 3))
        assert grid[0] == F(1, 3)
        assert grid[-1] == F(1)
        assert F(2, 3) in grid
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_regions_2x2_full_range(self):
        assert optimality_regions(cfg(2, 2)) == [(F(1, 2), F(1))]

    def test_regions_3x3_point_plus_interval(self):
        assert optimality_regions(cfg(3, 3)) == [
            (F(1, 3), F(1, 3)), (F(2, 3), F(1)),
        ]

    def test_regions_2x3_two_singletons(self):
        assert optimality_regions(cfg(2, 3)) == [
            (F(1, 2), F(1, 2)), (F(1), F(1)),
        ]

    def test_regions_match_pointwise_gap_up_to_8x8(self):
        for m in range(1, 9):
            for k in range(1, 9):
                c = cfg(m, k)
                env = convex_envelope(achievable_points(c))

                def gap(mu):
                    return env.value_at(mu) - ndt_lower_bound(c, mu)[0]

                regions = optimality_regions(c)
                assert regions[0][0] == F(1, m) and regions[-1][1] == 1
                for lo, hi in regions:
                    assert gap(lo) == gap((lo + hi) / 2) == gap(hi) == 0, (m, k)
                for (_, hi), (lo, _) in zip(regions, regions[1:]):
                    assert gap((hi + lo) / 2) > 0, (m, k, hi, lo)


class TestCurveProperties:
    def test_bound_at_least_one_and_convex_non_increasing(self):
        for m in range(1, 7):
            for k in range(1, 7):
                c = cfg(m, k)
                grid = [F(1, m) + i * F(1, 60) for i in
                        range(int((1 - F(1, m)) / F(1, 60)) + 1)]
                if grid[-1] != 1:
                    grid.append(F(1))
                values = [ndt_lower_bound(c, mu)[0] for mu in grid]
                assert all(v >= 1 for v in values)
                assert all(b <= a for a, b in zip(values, values[1:]))
                slopes = [
                    (values[i + 1] - values[i]) / (grid[i + 1] - grid[i])
                    for i in range(len(grid) - 1)
                ]
                assert all(s2 >= s1 for s1, s2 in zip(slopes, slopes[1:]))

    def test_envelope_never_below_converse(self):
        for m in range(1, 7):
            for k in range(1, 7):
                c = cfg(m, k)
                env = convex_envelope(achievable_points(c))
                mu = F(1, m)
                while mu <= 1:
                    assert env.value_at(mu) >= ndt_lower_bound(c, mu)[0], (m, k, mu)
                    mu += F(1, 60)

    @given(networks_with_grids())
    def test_lower_bound_curve_matches_pointwise_max(self, case):
        m, k, grid = case
        c = cfg(m, k)
        curve = lower_bound_curve(c)
        envelope = convex_envelope(achievable_points(c))
        assert {p.mu for p in curve.points} <= set(grid)
        for row in tradeoff_sweep(c, grid).rows:
            assert (row.lower, row.ell_star) == ndt_lower_bound(c, row.mu)
            assert curve.value_at(row.mu) == chord_value(curve, row.mu) == row.lower
            assert row.upper == chord_value(envelope, row.mu)

    @pytest.mark.parametrize("m,k", [(1, 1), (1, 4), (2, 2), (3, 3), (5, 3),
                                     (12, 5)])
    def test_converse_ells_follow_its_segments(self, m, k):
        c = cfg(m, k)
        curve = lower_bound_curve(c)
        assert len(curve.ells) == max(len(curve.points) - 1, 1)
        for i, ell in enumerate(curve.ells):
            right = curve.points[min(i + 1, len(curve.points) - 1)]
            # the segment's right end is where its cut is the smallest maximizer
            assert ndt_lower_bound(c, right.mu) == (right.ndt, ell)

    @pytest.mark.parametrize("ells", [(1,), (1, 2, 3), (1, 2, 3, 4)])
    def test_curve_rejects_ells_of_wrong_length(self, ells):
        points = (NdtPoint(F(1, 3), F(5, 3)), NdtPoint(F(2, 3), F(7, 6)),
                  NdtPoint(F(1), F(1)))
        assert TradeoffCurve(points, (1, 2)).ells == (1, 2)
        with pytest.raises(ArgumentError):
            TradeoffCurve(points, ells)

    def test_one_point_curve_is_one_flat_segment(self):
        point = (NdtPoint(F(1), F(2)),)
        assert TradeoffCurve(point, (1,)).value_at(1) == 2
        with pytest.raises(ArgumentError):
            TradeoffCurve(point, (1, 1))

    def test_ndt_point_validation(self):
        with pytest.raises(ArgumentError):
            NdtPoint(F(1, 2), F(1, 2))  # below the baseline
        with pytest.raises(RangeError):
            NdtPoint(F(3, 2), F(2))
        with pytest.raises(ArgumentError):
            NdtPoint(F(1, 2), F(2), "mystery")
