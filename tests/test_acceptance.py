"""Acceptance suite: one test per headline criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its stated runtime ceiling.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from edgecache.bounds import (
    CsiMode,
    achievable_points,
    convex_envelope,
    corner_point_xchannel,
    corner_point_zero_forcing,
    default_mu_grid,
    lower_bound_curve,
    ndt_lower_bound,
    optimality_regions,
    tradeoff_sweep,
)
from edgecache.caching import (
    full_placement,
    shared_placement,
    split_placement,
)
from edgecache.converse import (
    LOGDET_ORACLE_TOL,
    NOISE_COV_TOL,
    RECONSTRUCTION_TOL,
    report_passes,
    verify_converse,
)
from edgecache.model import DemandVector, FileLibrary, validate_config
from edgecache.phy import (
    Scheme,
    estimate_ndt,
    run_campaign,
    snr_db_to_power,
)
from placement_reference import (
    cache_bits,
    en_bits,
    cached_fragments,
    verify_cache_budget,
)
from sweep_rows import fraction_rows

F = Fraction
SNR_GRID = [20.0, 30.0, 40.0, 50.0, 60.0]
TRIALS = 200
MASTER_SEED = 42


def report(name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < limit, f"{name} exceeded its {limit:.0f}s runtime budget"


def scheme_setup(scheme, mu, m=2, k=2, n=2, l=1200):
    cfg = validate_config(m, k, n, mu, l)
    lib = FileLibrary.random(cfg, seed=1)
    alloc = {
        "split": split_placement,
        "full": full_placement,
        "hybrid": shared_placement,
    }[{Scheme.ZERO_FORCING: "full", Scheme.IA_XCHANNEL_2X2: "split",
       Scheme.TDMA: "split", Scheme.HYBRID_SHARE: "hybrid"}[scheme]](lib, cfg)
    return cfg, alloc, DemandVector.worst_case(cfg)


def test_2x2_tradeoff_exact():
    t0 = time.monotonic()
    cfg = validate_config(2, 2, 2, F(1), 1200)
    grid = default_mu_grid(cfg, step=F(1, 24))
    assert grid[0] == F(1, 2) and grid[-1] == F(1) and len(grid) == 13
    table = tradeoff_sweep(cfg, grid)
    ok = all(
        row.lower == 2 - row.mu and row.upper == 2 - row.mu and row.tight
        for row in fraction_rows(table)
    )
    report("2x2 exact tradeoff", ok, time.monotonic() - t0, 1.0,
           "lower = upper = 2 - mu on the 1/24 grid, tight everywhere")


def test_3x3_partial_characterization():
    t0 = time.monotonic()
    cfg = validate_config(3, 3, 3, F(1), 1200)
    env = convex_envelope(achievable_points(cfg))
    breakpoints = [(p.mu, p.ndt) for p in env.points]
    ok = breakpoints == [(F(1, 3), F(5, 3)), (F(2, 3), F(7, 6)), (F(1), F(1))]
    for mu in default_mu_grid(cfg):
        expected = max(3 - 4 * mu, F(3 - mu, 2), F(1))
        ok = ok and ndt_lower_bound(cfg, mu)[0] == expected
    ok = ok and optimality_regions(lower_bound_curve(cfg), env) == [
        (F(1, 3), F(1, 3)), (F(2, 3), F(1)),
    ]
    row = fraction_rows(tradeoff_sweep(cfg, [F(1, 2)]))[0]
    ok = ok and row.gap == F(17, 12) - F(5, 4) == F(1, 6)
    report("3x3 partial characterization", ok, time.monotonic() - t0, 1.0,
           "breakpoints, piecewise converse, regions {1/3} u [2/3,1], gap 1/6")


def test_extremal_cache_corners_up_to_6x6():
    t0 = time.monotonic()
    ok = True
    for m in range(1, 7):
        for k in range(1, 7):
            cfg = validate_config(m, k, max(m, k), F(1), 1200)
            xc = corner_point_xchannel(cfg)
            zf = corner_point_zero_forcing(cfg)
            ok = ok and ndt_lower_bound(cfg, xc.mu)[0] == xc.ndt
            ok = ok and ndt_lower_bound(cfg, zf.mu)[0] == zf.ndt
    report("Extremal cache corners", ok, time.monotonic() - t0, 1.0,
           "converse meets both corners exactly for all M,K <= 6")


def test_csi_degradation_ordering():
    t0 = time.monotonic()
    cfg = validate_config(2, 2, 2, F(1), 1200)
    envs = {
        mode: convex_envelope(achievable_points(cfg, mode))
        for mode in (CsiMode.PERFECT, CsiMode.DELAYED, CsiMode.NO_CSI)
    }
    ok = (
        envs[CsiMode.PERFECT].value_at(F(1, 2)) == F(3, 2)
        and envs[CsiMode.DELAYED].value_at(F(1, 2)) == F(5, 3)
        and envs[CsiMode.NO_CSI].value_at(F(1, 2)) == F(2)
        and envs[CsiMode.PERFECT].value_at(F(1)) == F(1)
        and envs[CsiMode.DELAYED].value_at(F(1)) == F(3, 2)
        and envs[CsiMode.NO_CSI].value_at(F(1)) == F(2)
    )
    mu = F(1, 2)
    while mu <= 1:
        p = envs[CsiMode.PERFECT].value_at(mu)
        d = envs[CsiMode.DELAYED].value_at(mu)
        n = envs[CsiMode.NO_CSI].value_at(mu)
        ok = ok and p < d < n
        mu += F(1, 48)
    report("CSI degradation", ok, time.monotonic() - t0, 1.0,
           "perfect < delayed < nocsi pointwise with exact corners")


def test_zero_forcing_achievability():
    t0 = time.monotonic()
    cfg, alloc, dem = scheme_setup(Scheme.ZERO_FORCING, F(1))
    points = run_campaign(cfg, alloc, Scheme.ZERO_FORCING, dem, SNR_GRID,
                          TRIALS, MASTER_SEED)
    est = estimate_ndt(points)
    power_ok = all(
        p.peak_en_power.max() <= snr_db_to_power(p.snr_db) * (1 + 1e-6)
        for p in points
    )
    ok = 0.95 <= est.ndt_estimate <= 1.08 and power_ok
    report("ZF achievability", ok, time.monotonic() - t0, 30.0,
           f"ndt estimate {est.ndt_estimate:.4f} in [0.95, 1.08], power kept")


def test_ia_achievability():
    t0 = time.monotonic()
    cfg, alloc, dem = scheme_setup(Scheme.IA_XCHANNEL_2X2, F(1, 2))
    points = run_campaign(cfg, alloc, Scheme.IA_XCHANNEL_2X2, dem, SNR_GRID,
                          TRIALS, MASTER_SEED)
    est = estimate_ndt(points)
    target = 4.0 / 3.0
    worst_alignment = max(p.alignment_error.max() for p in points)
    ok = (target * 0.92 <= est.dof_estimate <= target * 1.08
          and worst_alignment < 1e-10)
    report("IA achievability", ok, time.monotonic() - t0, 60.0,
           f"sum-DoF {est.dof_estimate:.4f} within 8% of 4/3, "
           f"alignment {worst_alignment:.1e}")


def test_tdma_no_csi():
    t0 = time.monotonic()
    cfg, alloc, dem = scheme_setup(Scheme.TDMA, F(1, 2))
    est = estimate_ndt(run_campaign(cfg, alloc, Scheme.TDMA, dem, SNR_GRID,
                                    TRIALS, MASTER_SEED))
    ok = 1.85 <= est.ndt_estimate <= 2.15
    report("TDMA no-CSI", ok, time.monotonic() - t0, 30.0,
           f"ndt estimate {est.ndt_estimate:.4f} in [1.85, 2.15]")


def test_hybrid_time_cache_sharing():
    t0 = time.monotonic()
    cfg_h, alloc_h, dem = scheme_setup(Scheme.HYBRID_SHARE, F(3, 4))
    cfg_z, alloc_z, _ = scheme_setup(Scheme.ZERO_FORCING, F(1))
    cfg_i, alloc_i, _ = scheme_setup(Scheme.IA_XCHANNEL_2X2, F(1, 2))
    assert F(alloc_h.split_bits, alloc_h.file_bits) == F(1, 2)  # alpha
    alpha = alloc_h.split_bits / alloc_h.file_bits
    # paired campaigns: the same master seed gives every scheme the same
    # channel draws, making the time-sharing blend a sharp comparison
    runs = {
        scheme: run_campaign(cfg, alloc, scheme, dem, SNR_GRID, TRIALS,
                             MASTER_SEED)
        for scheme, cfg, alloc in (
            (Scheme.HYBRID_SHARE, cfg_h, alloc_h),
            (Scheme.ZERO_FORCING, cfg_z, alloc_z),
            (Scheme.IA_XCHANNEL_2X2, cfg_i, alloc_i),
        )
    }
    ok = True
    detail = []
    for i, snr in enumerate(SNR_GRID):
        deltas = {
            scheme: np.mean(points[i].delivery_time_per_bit)
            for scheme, points in runs.items()
        }
        blend = alpha * deltas[Scheme.IA_XCHANNEL_2X2] \
            + (1 - alpha) * deltas[Scheme.ZERO_FORCING]
        rel = abs(deltas[Scheme.HYBRID_SHARE] - blend) / blend
        ok = ok and rel < 0.02
        detail.append(f"{snr:.0f}dB:{rel:.1e}")
    report("Hybrid time/cache sharing", ok, time.monotonic() - t0, 60.0,
           "delta within 2% of the alpha-blend at " + ", ".join(detail))


def test_converse_identity_suite():
    # 1000 trials per cut up to 4x4, then every other M, K <= 8 at 50
    t0 = time.monotonic()
    ok = True
    worst = {"recon": 0.0, "oracle": 0.0, "cov": 0.0}
    sizes = [(m, k, 1000) for m in (2, 3, 4) for k in (2, 3, 4)]
    sizes += [(m, k, 50) for m in range(2, 9) for k in range(2, 9)
              if max(m, k) > 4]
    for m, k, trials in sizes:
        cfg = validate_config(m, k, max(m, k), F(1), 1200)
        for rep in verify_converse(cfg, trials=trials, seed=20240808):
            ok = ok and report_passes(rep)
            worst["recon"] = max(worst["recon"],
                                 rep.max_reconstruction_residual)
            worst["oracle"] = max(worst["oracle"],
                                  rep.max_logdet_oracle_error)
            worst["cov"] = max(worst["cov"], rep.noise_cov_error)
    ok = ok and worst["recon"] < RECONSTRUCTION_TOL
    ok = ok and worst["oracle"] < LOGDET_ORACLE_TOL
    ok = ok and worst["cov"] < NOISE_COV_TOL
    report("Converse identities", ok, time.monotonic() - t0, 30.0,
           f"recon {worst['recon']:.1e} < 1e-9, logdet {worst['oracle']:.1e} "
           f"< 1e-10, cov {worst['cov']:.3f} < 0.05")


class TestPropertySuites:
    def test_bound_convexity_and_monotonicity(self):
        for m in range(2, 7):
            for k in range(2, 7):
                cfg = validate_config(m, k, max(m, k), F(1), 1200)
                grid = default_mu_grid(cfg)
                values = [ndt_lower_bound(cfg, mu)[0] for mu in grid]
                assert all(v >= 1 for v in values)
                assert all(b <= a for a, b in zip(values, values[1:]))
                slopes = [
                    (values[i + 1] - values[i]) / (grid[i + 1] - grid[i])
                    for i in range(len(grid) - 1)
                ]
                assert all(s2 >= s1 for s1, s2 in zip(slopes, slopes[1:]))

    def test_envelope_order_invariance(self):
        cfg = validate_config(3, 3, 3, F(1), 1200)
        pts = achievable_points(cfg)
        reference = convex_envelope(pts).points
        rng = random.Random(7)
        for _ in range(25):
            shuffled = pts + rng.sample(pts, k=1)
            rng.shuffle(shuffled)
            assert convex_envelope(shuffled).points == reference

    def test_caching_round_trip_bit_exact(self):
        cfg = validate_config(3, 3, 3, F(1, 3), 9)
        lib = FileLibrary.random(cfg, seed=2)
        alloc = split_placement(lib, cfg)
        for n in (1, 2, 3):
            rebuilt = np.concatenate([
                cached_fragments(alloc.per_en_content, en, n)[0].bits
                for en in (1, 2, 3)
            ])
            np.testing.assert_array_equal(rebuilt, lib.files[n - 1])

    def test_budget_tight_at_minimum_cache(self):
        cfg = validate_config(4, 2, 4, F(1, 4), 16)
        alloc = split_placement(FileLibrary.random(cfg, 0), cfg)
        assert verify_cache_budget(alloc, cfg)
        for en in range(1, 5):
            assert en_bits(alloc, en) == cache_bits(cfg)  # exact equality

    @pytest.mark.parametrize("scheme,mu,bound_mu", [
        (Scheme.ZERO_FORCING, F(1), F(1)),
        (Scheme.IA_XCHANNEL_2X2, F(1, 2), F(1, 2)),
        (Scheme.TDMA, F(1, 2), F(1, 2)),
        (Scheme.HYBRID_SHARE, F(3, 4), F(3, 4)),
    ])
    def test_estimates_never_beat_the_converse(self, scheme, mu, bound_mu):
        cfg, alloc, dem = scheme_setup(scheme, mu)
        est = estimate_ndt(run_campaign(cfg, alloc, scheme, dem, SNR_GRID,
                                        60, master_seed=11))
        bound = float(ndt_lower_bound(cfg, bound_mu)[0])
        assert est.ndt_estimate >= bound - 0.1
