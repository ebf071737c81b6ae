"""Tests for the Monte-Carlo delivery simulator."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgecache
from edgecache import phy, streams
from edgecache.cli import EXIT_UNSUPPORTED, main
from edgecache.caching import (
    CacheAllocation,
    assignment_for_demand,
    full_placement,
    shared_placement,
    split_placement,
)
from edgecache.errors import (
    ArgumentError,
    InsufficientDataError,
    SingularChannelError,
    UnsupportedError,
)
from edgecache.model import (
    MAX_SNR_DB,
    DemandVector,
    FileLibrary,
    validate_config,
)
from edgecache.phy import (
    EXTENSION_SLOTS,
    MAX_RESAMPLES,
    PointResult,
    Scheme,
    estimate_ndt,
    ia_alignment_error,
    ia_per_en_power,
    ia_rates,
    run_campaign,
    run_trial,
    snr_db_to_power,
    tdma_delivery,
    zf_per_en_power,
    zf_sinrs,
)
from edgecache.streams import trial_seed, trial_seeds
from accepts_reference import ia_accepts_svd, zf_accepts_svd
from one_draw import (
    AlignmentDegeneracyError,
    awgn_channel,
    ia_beamformers,
    ia_xchannel_2x2,
    solve_draw,
    zf_precode,
)

F = Fraction
SNR_GRID = [20.0, 30.0, 40.0, 50.0, 60.0]
# a PointResult's per-trial columns
COLUMNS = ("achieved_sum_rate", "per_user_rates", "delivery_time_per_bit",
           "peak_en_power", "alignment_error")


def setup_scheme(scheme, mu=None, m=2, k=2, n=2, l=1200, seed=1):
    mu = {
        Scheme.ZERO_FORCING: F(1),
        Scheme.IA_XCHANNEL_2X2: F(1, m),
        Scheme.TDMA: F(1, m),
        Scheme.HYBRID_SHARE: F(3, 4),
    }[scheme] if mu is None else mu
    cfg = validate_config(m, k, n, mu, l)
    lib = FileLibrary.random(cfg, seed)
    if mu == F(1, m):
        alloc = split_placement(lib, cfg)
    elif mu == 1:
        alloc = full_placement(lib, cfg)
    else:
        alloc = shared_placement(lib, cfg)
    return cfg, alloc, DemandVector.worst_case(cfg)


def zf_draw(seed, power):
    """A 2x2 trial's first (seed, 0) draw and its zero-forcing precoder."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    h = rng.standard_normal((2, 2))
    return h, zf_precode(h, power)


def extension_draw(seed, power):
    """A trial's first (seed, 1) slot draw and its alignment solution."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    h_slots = rng.standard_normal((EXTENSION_SLOTS, 2, 2))
    return h_slots, ia_beamformers(h_slots, power)


class TestZeroForcing:
    def test_identity_channel(self):
        w = zf_precode(np.eye(2), power=1.0)
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(zf_sinrs(np.eye(2), w), [1.0, 1.0])
        w100 = zf_precode(np.eye(2), power=100.0)
        np.testing.assert_allclose(zf_sinrs(np.eye(2), w100), [100.0, 100.0])

    def test_effective_channel_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = rng.standard_normal((2, 2))
            w = zf_precode(h, power=10.0)
            g = h @ w
            off = g - np.diag(np.diag(g))
            assert np.abs(off).max() < 1e-10 * np.abs(np.diag(g)).max()

    def test_per_en_power_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            h = rng.standard_normal((3, 4))
            w = zf_precode(h, power=7.0)
            per_en = zf_per_en_power(w)
            assert per_en.max() <= 7.0 * (1 + 1e-12)
            assert per_en.max() == pytest.approx(7.0)  # busiest EN at budget

    def test_requires_enough_ens(self):
        with pytest.raises(ArgumentError):
            zf_precode(np.zeros((3, 2)), power=1.0)

    def test_singular_channel_rejected(self):
        h = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularChannelError):
            zf_precode(h, power=1.0)

    def test_interference_leakage_floor(self):
        # residual cross-user interference at 40 dB must sit at least
        # 30 dB below the desired signal power
        rng = np.random.default_rng(44)
        ratios = []
        for _ in range(200):
            h = rng.standard_normal((2, 2))
            w = zf_precode(h, power=1e4)
            g = h @ w
            desired = np.diag(g) ** 2
            leak = (g ** 2).sum(axis=1) - desired
            ratios.append((leak / desired).max())
        assert np.mean(ratios) < 1e-3

    def test_rate_matches_empirical_sinr_oracle(self):
        # M=3, K=2 at 40 dB: analytic rate vs symbol-level measured SINR
        rng = np.random.default_rng(8)
        h = rng.standard_normal((2, 3))
        power = 1e4
        w = zf_precode(h, power)
        analytic = float(np.log2(1.0 + zf_sinrs(h, w)).sum())
        symbols = rng.standard_normal((2, 200_000))
        y = awgn_channel(w @ symbols, h, seed=99)
        g = np.diag(h @ w)
        measured = 0.0
        for k in range(2):
            signal = g[k] ** 2 * np.var(symbols[k])
            residual = np.var(y[k] - g[k] * symbols[k])
            measured += math.log2(1.0 + signal / residual)
        assert abs(measured - analytic) < 0.1 * analytic


class TestAwgnChannel:
    def test_pure_noise_variance(self):
        y = awgn_channel(np.zeros((2, 50_000)), np.eye(2), seed=0)
        assert y.size == 100_000
        assert abs(np.var(y) - 1.0) < 0.05

    def test_noiseless_mode_exact(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 10))
        h = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(awgn_channel(x, h, 0, noiseless=True), h @ x)

    def test_deterministic_per_seed(self):
        x = np.ones((2, 5))
        h = np.eye(2)
        np.testing.assert_array_equal(
            awgn_channel(x, h, seed=11), awgn_channel(x, h, seed=11)
        )


class TestInterferenceAlignment:
    def draw(self, seed=5):
        return np.random.default_rng(seed).standard_normal((3, 2, 2))

    def test_beams_unit_norm(self):
        sol = ia_beamformers(self.draw(), power=100.0)
        np.testing.assert_allclose(np.linalg.norm(sol.beams, axis=2), 1.0)

    def test_alignment_collinear_to_machine_precision(self):
        for seed in range(1000):
            h = self.draw(seed)
            try:
                sol = ia_beamformers(h, power=100.0)
            except SingularChannelError:
                continue
            assert ia_alignment_error(h, sol) < 1e-10

    def test_receive_bases_full_rank(self):
        for seed in range(1000):
            h = self.draw(seed)
            try:
                sol = ia_beamformers(h, power=100.0)
            except SingularChannelError:
                continue
            for k in range(2):
                svals = np.linalg.svd(sol.receive_bases[k], compute_uv=False)
                assert np.isfinite(svals).all()
                assert svals[-1] > 0

    def test_constant_slots_are_degenerate(self):
        # without slot variation the desired directions collapse onto the
        # aligned interference: the scheme needs the slot-varying extension
        h = np.broadcast_to(
            np.random.default_rng(6).standard_normal((2, 2)), (3, 2, 2)
        ).copy()
        with pytest.raises(AlignmentDegeneracyError):
            ia_beamformers(h, power=100.0)

    def test_per_en_power_budget(self):
        for seed in range(100):
            sol = ia_beamformers(self.draw(seed), power=9.0)
            per_slot = ia_per_en_power(sol)
            assert per_slot.max() <= 9.0 * (1 + 1e-12)
            # each EN's own busiest slot sits exactly at the budget
            np.testing.assert_allclose(per_slot.max(axis=1), 9.0)

    def test_transmit_matrix_shape_and_power(self):
        h = self.draw()
        symbols = np.array([[1.0, -1.0], [1.0, 1.0]])
        x = ia_xchannel_2x2(h, symbols, power=4.0)
        assert x.shape == (2, EXTENSION_SLOTS)
        with pytest.raises(ArgumentError):
            ia_xchannel_2x2(h, np.ones((2, 3)), power=4.0)

    def test_noiseless_decode_recovers_symbols(self):
        rng = np.random.default_rng(12)
        h = self.draw(21)
        sol = ia_beamformers(h, power=25.0)
        symbols = rng.standard_normal((2, 2))
        x = ia_xchannel_2x2(h, symbols, power=25.0, solution=sol)
        for k in range(2):
            y = np.array([h[t, k] @ x[:, t] for t in range(EXTENSION_SLOTS)])
            coeffs = np.linalg.solve(sol.receive_bases[k], y)
            recovered = coeffs[:2] / sol.amplitudes
            np.testing.assert_allclose(recovered, symbols[:, k], atol=1e-10)

    def test_rates_positive_and_three_slot_normalized(self):
        sol = ia_beamformers(self.draw(), power=1e4)
        rates = ia_rates(sol)
        assert rates.shape == (2,)
        assert (rates > 0).all()
        # two messages over three channel uses
        assert rates.sum() < 2 * math.log2(1 + 1e4)

    def test_stacked_formulas_match_the_per_user_loops(self):
        # the formulas run on a stack of draws; per-user loops over one
        # draw at a time are the reference
        h = np.random.default_rng(15).standard_normal((200, 3, 2, 2))
        accepted, (beams, bases) = phy._ia_accepts(h)
        h = h[accepted]
        stacked = phy._ia_solution(beams[accepted], bases[accepted], power=1e3)
        sinrs = phy.ia_message_sinrs(stacked)
        errors = ia_alignment_error(h, stacked)
        for i, h_slots in enumerate(h):
            sol = ia_beamformers(h_slots, power=1e3)
            loop_sinrs = np.empty((2, 2))
            worst = 0.0
            for k in range(2):
                scaled = sol.receive_bases[k][:, :2] * sol.amplitudes
                g = phy._IA_NULL_BASIS.T @ scaled
                chol = np.linalg.cholesky(np.eye(2) + g.T @ g)
                loop_sinrs[k] = np.diag(chol) ** 2 - 1.0
                v1 = h_slots[:, k, 0] * sol.beams[0, 1 - k]
                v2 = h_slots[:, k, 1] * sol.beams[1, 1 - k]
                sine = np.linalg.norm(np.cross(v1, v2))
                worst = max(worst, sine / (np.linalg.norm(v1)
                                           * np.linalg.norm(v2)))
            np.testing.assert_array_equal(sinrs[i], loop_sinrs)
            # a 1-D norm is a BLAS dot product, rounded differently
            assert abs(errors[i] - worst) <= 1e-15


class TestTdma:
    def test_single_user_single_link_rate(self):
        cfg, alloc, _ = setup_scheme(Scheme.TDMA, m=2, k=1, n=1, mu=F(1, 2))
        assignment = assignment_for_demand(alloc, DemandVector((1,)))
        h = np.array([[2.0, 0.5]])
        delta = tdma_delivery(h, assignment, cfg.file_bits, power=100.0)
        r1 = math.log2(1 + 4.0 * 100)
        r2 = math.log2(1 + 0.25 * 100)
        assert delta == pytest.approx(0.5 / r1 + 0.5 / r2)
        # one transmission per EN, each over its own link
        assert [en for _, en in assignment.fragments_for_user(1)] == [1, 2]

    def test_single_user_ndt_approaches_baseline(self):
        # one user on a dedicated link is the ideal reference system
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, m=2, k=1, n=1, mu=F(1, 2))
        est = estimate_ndt(run_campaign(cfg, alloc, Scheme.TDMA, dem,
                                        SNR_GRID, 60, master_seed=21))
        assert 0.9 < est.ndt_estimate < 1.15

    def test_doubling_users_doubles_delta(self):
        cfg2, alloc2, _ = setup_scheme(Scheme.TDMA, m=2, k=2, n=4, mu=F(1, 2))
        cfg4, alloc4, _ = setup_scheme(Scheme.TDMA, m=2, k=4, n=4, mu=F(1, 2))
        h2 = np.random.default_rng(9).standard_normal((2, 2))
        h4 = np.vstack([h2, h2])
        a2 = assignment_for_demand(alloc2, DemandVector((1, 2)))
        a4 = assignment_for_demand(alloc4, DemandVector((1, 2, 1, 2)))
        d2 = tdma_delivery(h2, a2, cfg2.file_bits, power=50.0)
        d4 = tdma_delivery(h4, a4, cfg4.file_bits, power=50.0)
        assert d4 == pytest.approx(2 * d2)

    @staticmethod
    def fragment_loop(h, assignment, file_bits, power):
        """One draw's delivery time, one fragment after another, each rate
        np.log2 of that fragment's own gain, or log1p of its h^2 P where the
        gain rounds to 1."""
        num_users, num_ens = h.shape
        total_uses = 0.0
        for user in range(1, num_users + 1):
            for frag, en in assignment.fragments_for_user(user):
                if en is None:
                    en = (user - 1) % num_ens + 1
                snr = h[user - 1, en - 1] ** 2 * power
                rate = np.log2(1.0 + snr)
                if rate == 0.0:
                    rate = np.log1p(snr) / np.log(2.0)
                total_uses += frag.num_bits / rate
        return total_uses / file_bits

    # np.log2's SIMD loops part from math.log2 most often just above 1, so
    # low SNRs get their own share of the examples
    @settings(max_examples=100)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(["split", "full", "shared"]), st.integers(1, 8),
           st.one_of(st.floats(-40.0, 10.0), st.floats(10.0, MAX_SNR_DB)),
           st.integers(0, 2 ** 32 - 1))
    def test_stacked_delivery_matches_the_fragment_loop(
            self, m, k, placement, draws, snr, seed):
        # shared: alpha = 3/4, so alpha*L = 900 bits, a multiple of each M
        mu = {"split": F(1, m), "full": F(1),
              "shared": F(1, m) + (1 - F(1, m)) / 4}[placement]
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=mu, m=m, k=k, n=k + 1)
        assignment = assignment_for_demand(alloc, dem)
        h = np.random.default_rng(seed).standard_normal((draws, k, m))
        power = snr_db_to_power(snr)
        stacked = tdma_delivery(h, assignment, cfg.file_bits, power)
        assert [float(d).hex() for d in stacked] == [
            self.fragment_loop(one, assignment, cfg.file_bits, power).hex()
            for one in h]

    def test_every_stacked_rate_is_within_one_ulp_of_math_log2(
            self, monkeypatch):
        """The stack's rates come from np.log2, which parts from math.log2 in
        the last bit on about one gain in a thousand, most of them just
        above 1; none is further off than that bit. A million gains, 1 +
        10^u with u uniform on [-15, 6]: three in five are below 1.01."""
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=F(1, 4), m=4, k=4, n=4)
        assignment = assignment_for_demand(alloc, dem)
        rng = np.random.default_rng(3)
        h = np.sqrt(10.0 ** rng.uniform(-15.0, 6.0, (62_500, 4, 4)))
        numpy_log2, calls = np.log2, []

        def log2(gains):
            calls.append((gains, numpy_log2(gains)))
            return calls[-1][1]

        monkeypatch.setattr(np, "log2", log2)
        tdma_delivery(h, assignment, cfg.file_bits, power=1.0)
        monkeypatch.undo()
        [(gains, rates)] = calls
        assert gains.size == 10 ** 6
        want = np.array([math.log2(g) for g in gains.flat]).reshape(gains.shape)
        ulps = np.abs(rates.view(np.int64) - want.view(np.int64))
        assert ulps.max() <= 1

    def test_a_gain_that_rounds_to_one_is_a_live_link(self):
        """1 + h^2 P rounds to 1.0 when h^2 P is under half an ulp of 1; that
        link runs at log1p(h^2 P) / ln 2, not at rate 0. Each gain
        1 + k eps for 0 < k < 2000, nextafter(1, 2) first, keeps its np.log2
        rate."""
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=F(1, 2))
        assignment = assignment_for_demand(alloc, dem)
        eps = np.finfo(float).eps
        h = np.ones((2, 2))
        for tiny in (2.0 ** -27, 2.0 ** -26):  # h^2 = eps / 4, then eps
            h[1, 0] = tiny
            delta = tdma_delivery(h, assignment, cfg.file_bits, power=1.0)
            assert delta.hex() == self.fragment_loop(
                h, assignment, cfg.file_bits, 1.0).hex()
            assert 0.0 < delta < math.inf
        assert 1.0 + 2.0 ** -54 == 1.0  # the first gain was 1.0
        # one draw per k, its power k eps: every gain is 1 + k eps exactly
        k = np.arange(1, 2000)
        deltas = tdma_delivery(np.ones((k.size, 2, 2)), assignment,
                               cfg.file_bits, power=k * eps)
        assert np.all((deltas > 0.0) & np.isfinite(deltas))
        assert all(math.log2(1.0 + i * eps) > 0.0 for i in k)

    def test_one_link_below_half_an_ulp_of_one_is_live_and_zero_is_dead(
            self):
        """At M = K = 1, full placement: |h| = 1e-9 at P = 1e-3 (h^2 P =
        1e-21) delivers at 1e-21 / ln 2 bits per use; h = 0 is a dead link.
        """
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=F(1), m=1, k=1, n=1)
        assignment = assignment_for_demand(alloc, dem)
        power = np.array([1e-3])
        h = np.array([[[1e-9]]])
        [delta] = tdma_delivery(h, assignment, cfg.file_bits, power)
        assert delta.hex() == self.fragment_loop(
            h[0], assignment, cfg.file_bits, power[0]).hex()
        assert delta == pytest.approx(math.log(2.0) * 1e21, rel=1e-12)
        with pytest.raises(SingularChannelError,
                           match="EN 1 -> user 1: rate is zero"):
            tdma_delivery(np.zeros((1, 1, 1)), assignment, cfg.file_bits,
                          power)

    def test_a_delivery_time_past_every_float_is_a_dead_link(self):
        """A positive rate so small that its fragment's channel uses
        overflow fails its draw as a zero rate would, in draw order."""
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=F(1), m=1, k=1, n=1)
        assignment = assignment_for_demand(alloc, dem)
        h = np.array([[[1.0]], [[1e-160]], [[0.0]]])
        with pytest.raises(SingularChannelError,
                           match="EN 1 -> user 1: delivery time overflows"):
            tdma_delivery(h, assignment, cfg.file_bits, power=1e-3)
        with pytest.raises(SingularChannelError, match="rate is zero"):
            tdma_delivery(h[::-1], assignment, cfg.file_bits, power=1e-3)

    def test_a_chunk_of_16x16_trials_stays_within_16_mib(self):
        """One point of a full chunk of 16x16 trials, 272 links each, peaks
        below 16 MiB: no Python list holds every link gain at once."""
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=F(1, 2), m=16, k=16,
                                       n=16)
        args = (cfg, alloc, Scheme.TDMA, dem, [40.0])
        run_campaign(*args, 50, 0)  # fills numpy's and the module's caches
        tracemalloc.start()
        try:
            points = run_campaign(*args, phy.TRIAL_CHUNK, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(points[0].seeds) == phy.TRIAL_CHUNK
        assert peak <= 16 * 2 ** 20

    def test_dead_link_raises(self):
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=F(1, 2))
        assignment = assignment_for_demand(alloc, dem)
        h = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularChannelError, match="EN 1 -> user 1"):
            tdma_delivery(h, assignment, cfg.file_bits, power=10.0)
        # in a stack of draws, the first draw with a dead link names its
        # first dead link, as trials run one by one would
        later = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(SingularChannelError, match="EN 2 -> user 2"):
            tdma_delivery(np.stack([np.ones((2, 2)), later, h]), assignment,
                          cfg.file_bits, power=10.0)


class TestRunTrial:
    def test_compatibility_enforced(self):
        cfg_s, alloc_s, dem = setup_scheme(Scheme.IA_XCHANNEL_2X2)
        cfg_f, alloc_f, _ = setup_scheme(Scheme.ZERO_FORCING)
        with pytest.raises(UnsupportedError):
            run_trial(cfg_s, alloc_s, Scheme.ZERO_FORCING, dem, 40.0, 1)
        with pytest.raises(UnsupportedError):
            run_trial(cfg_f, alloc_f, Scheme.IA_XCHANNEL_2X2, dem, 40.0, 1)
        with pytest.raises(UnsupportedError):
            run_trial(cfg_f, alloc_f, Scheme.HYBRID_SHARE, dem, 40.0, 1)

    def test_half_stored_layout_is_refused_for_zero_forcing(self):
        # 1,200 of the 2,400 library bits per EN is the split layout
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        half = CacheAllocation(alloc.library, 2, 1200)
        assert half.policy == "split"
        with pytest.raises(UnsupportedError,
                           match="zero-forcing requires full replication"):
            run_campaign(cfg, half, Scheme.ZERO_FORCING, dem, SNR_GRID, 50, 0)

    def test_zero_forcing_needs_m_at_least_k(self):
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING, m=2, k=3, n=3)
        with pytest.raises(UnsupportedError):
            run_trial(cfg, alloc, Scheme.ZERO_FORCING, dem, 40.0, 1)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_deterministic_and_self_consistent(self, scheme):
        cfg, alloc, dem = setup_scheme(scheme)
        a = run_trial(cfg, alloc, scheme, dem, 40.0, seed=77)
        b = run_trial(cfg, alloc, scheme, dem, 40.0, seed=77)
        assert outcome(lambda: [a]) == outcome(lambda: [b])
        assert a.seeds == (77,)
        [rate], [user_rates] = a.achieved_sum_rate, a.per_user_rates
        [delta] = a.delivery_time_per_bit
        assert delta == pytest.approx(cfg.num_users / rate)
        assert user_rates.shape == (cfg.num_users,)
        assert user_rates.sum() == pytest.approx(rate)
        assert all(r >= 0 for r in user_rates)

    def test_zf_sum_rate_beats_gain_oracle(self):
        # sum rate must be at least 0.9 * 2*log2(1 + P*g) for the post-ZF
        # gain g realized by the constructed precoder
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        [rate] = run_trial(cfg, alloc, Scheme.ZERO_FORCING, dem, 40.0,
                           seed=5).achieved_sum_rate
        h, w = zf_draw(5, 1e4)
        assert rate == float(np.log2(1.0 + zf_sinrs(h, w)).sum())
        g = np.diag(h @ w).min() ** 2 / 1e4
        oracle = 2 * math.log2(1 + 1e4 * g)
        assert rate >= 0.9 * oracle

    def test_hybrid_trial_blends_corner_trials(self):
        cfg_h, alloc_h, dem = setup_scheme(Scheme.HYBRID_SHARE)
        cfg_z, alloc_z, _ = setup_scheme(Scheme.ZERO_FORCING)
        cfg_i, alloc_i, _ = setup_scheme(Scheme.IA_XCHANNEL_2X2)
        alpha = alloc_h.split_bits / alloc_h.file_bits
        for seed in (3, 14, 159):
            hyb = run_trial(cfg_h, alloc_h, Scheme.HYBRID_SHARE, dem, 40.0, seed)
            zf = run_trial(cfg_z, alloc_z, Scheme.ZERO_FORCING, dem, 40.0, seed)
            ia = run_trial(cfg_i, alloc_i, Scheme.IA_XCHANNEL_2X2, dem, 40.0, seed)
            [blend] = alpha * ia.delivery_time_per_bit \
                + (1 - alpha) * zf.delivery_time_per_bit
            [delta] = hyb.delivery_time_per_bit
            assert delta == pytest.approx(blend, rel=1e-12)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_power_constraint_every_trial(self, scheme):
        cfg, alloc, dem = setup_scheme(scheme)
        for snr in (20.0, 40.0):
            power = 10 ** (snr / 10)
            for idx in range(25):
                [peak] = run_trial(cfg, alloc, scheme, dem, snr,
                                   trial_seed(31, idx)).peak_en_power
                assert peak <= power * (1 + 1e-6)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_margins_match_helpers_on_own_draws(self, scheme):
        # the margins must come from the very draws the trial's rates use:
        # the (seed, 0) substream for ZF, TDMA and the hybrid's tail, the
        # (seed, 1) substream for the alignment extension
        cfg, alloc, dem = setup_scheme(scheme)
        for snr in (20.0, 40.0, 60.0):
            power = snr_db_to_power(snr)
            for seed in (0, 7, trial_seed(3, 11)):
                result = run_trial(cfg, alloc, scheme, dem, snr, seed)
                peaks, alignment = [], None
                if scheme is Scheme.TDMA:
                    peaks.append(power)
                if scheme in (Scheme.ZERO_FORCING, Scheme.HYBRID_SHARE):
                    _, w = zf_draw(seed, power)
                    peaks.append(float(zf_per_en_power(w).max()))
                if scheme in (Scheme.IA_XCHANNEL_2X2, Scheme.HYBRID_SHARE):
                    h_slots, sol = extension_draw(seed, power)
                    peaks.append(float(ia_per_en_power(sol).max()))
                    alignment = ia_alignment_error(h_slots, sol)
                assert result.peak_en_power.tolist() == [max(peaks)]
                if alignment is None:
                    assert result.alignment_error is None
                else:
                    assert result.alignment_error.tolist() == [alignment]
                    assert alignment < 1e-10

    # SNRs where, with master seed 3, trial 0 gets bits through and a
    # later trial of the same point does not. TDMA's links run at
    # log1p(h^2 P) / ln 2 where 1 + h^2 P rounds to 1, so its trials fail
    # only where a fragment's channel uses overflow
    MIXED_SNR_DB = {Scheme.ZERO_FORCING: -139.0, Scheme.IA_XCHANNEL_2X2: -153.0,
                    Scheme.TDMA: -3035.0, Scheme.HYBRID_SHARE: -139.0}

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_zero_sum_rate_is_a_singular_channel(self, scheme):
        # at -400 dB every log2(1 + SINR) rounds to 0; at -4000 dB the power
        # is 0.0, and so is every TDMA link's h^2 P: no bit gets through
        cfg, alloc, dem = setup_scheme(scheme)
        silent = -4000.0 if scheme is Scheme.TDMA else -400.0
        with pytest.raises(SingularChannelError):
            run_trial(cfg, alloc, scheme, dem, silent, seed=3)
        # a campaign raises its first failing trial's error: at the silent
        # SNR that of its second point's first trial, at the mixed SNR that
        # of a later trial of the point's batch
        mixed = self.MIXED_SNR_DB[scheme]
        run_trial(cfg, alloc, scheme, dem, mixed, seed=trial_seed(3, 0))
        for grid, per_snr in ([20.0, silent, 40.0], 4), ([mixed], 12):
            args = (cfg, alloc, scheme, dem, grid, per_snr, 3)
            expected = outcome(lambda: trial_by_trial(*args))
            assert isinstance(expected, tuple)  # an error, not trials
            assert outcome(lambda: run_campaign(*args)) == expected

    @pytest.mark.parametrize("scheme,substreams", [
        (Scheme.ZERO_FORCING, [0]),
        (Scheme.TDMA, [0]),
        (Scheme.IA_XCHANNEL_2X2, [1]),
        (Scheme.HYBRID_SHARE, [0, 1]),
    ])
    def test_builds_only_the_substreams_it_draws_from(self, monkeypatch,
                                                      scheme, substreams):
        built, substream = [], streams.substream

        def recording(seed, index):
            built.append(index)
            return substream(seed, index)

        monkeypatch.setattr(streams, "substream", recording)
        cfg, alloc, dem = setup_scheme(scheme)
        run_trial(cfg, alloc, scheme, dem, 40.0, seed=9)
        assert built == substreams


def zero_coefficient(h_slots):
    """The slot draw with one coefficient numerically zero."""
    spoiled = h_slots.copy()
    spoiled[0, 0, 0] = 0.0
    return spoiled


def constant_slots(h_slots):
    """The slot draw with its first slot's channel in every slot."""
    return np.broadcast_to(h_slots[0], h_slots.shape).copy()


def numpy_substream(seed, index):
    """numpy's own generator for a trial's (seed, index) substream."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def spoiling(rejections, index, shape, spoil, accepts, seen):
    """`accepts` on draws where each chosen seed's first n draws from its
    (seed, index) substream come out spoiled by `spoil`.

    `rejections` maps a seed to n. The test takes one draw or a stack, and
    appends each draw it checks, as checked, to `seen`.
    """
    marked = set()
    for seed, n in rejections.items():
        rng = numpy_substream(seed, index)
        marked |= {rng.standard_normal(shape).tobytes() for _ in range(n)}

    def test(h):
        draws = [spoil(d) if d.tobytes() in marked else d
                 for d in h.reshape((-1,) + shape)]
        seen.extend(draws)
        return accepts(np.array(draws).reshape(h.shape))
    return test


def record_substreams(monkeypatch):
    """Make `streams.substream` record each (seed, generator) it builds."""
    built, substream = [], streams.substream

    def recording(seed, index):
        built.append((seed, substream(seed, index)))
        return built[-1][1]

    monkeypatch.setattr(streams, "substream", recording)
    return built


# a stack of one seed, and one in which that seed is the second trial
STACKS = ([17], [3, 17, 2 ** 40 + 1, 5])


class TestSolveDraw:
    """`_draw_stack`'s redraw loop, with the acceptance tests campaigns use,
    against the one-trial loop `solve_draw`."""

    # a draw `ia_beamformers` refuses with each error
    SPOILERS = {SingularChannelError: zero_coefficient,
                AlignmentDegeneracyError: constant_slots}

    @pytest.mark.parametrize("error", [SingularChannelError,
                                       AlignmentDegeneracyError])
    @pytest.mark.parametrize("times", [0, 1, 3, MAX_RESAMPLES])
    def test_redraws_with_the_rng_of_n_plus_one_draws(self, monkeypatch,
                                                      times, error):
        shape, spoil = (EXTENSION_SLOTS, 2, 2), self.SPOILERS[error]
        reference = numpy_substream(17, 1)
        draws = [reference.standard_normal(shape) for _ in range(times + 1)]
        after = reference.standard_normal()
        built = record_substreams(monkeypatch)
        for seeds in STACKS:
            t, seen = seeds.index(17), []
            built.clear()
            h, _, failed = phy._draw_stack(seeds, 1, shape, spoiling(
                {17: times}, 1, shape, spoil, phy._ia_accepts, seen))
            assert failed == len(seeds)
            np.testing.assert_array_equal(h[t], draws[-1])
            for seed, row in zip(seeds, h):
                one = spoiling({17: times}, 1, shape, spoil, phy._ia_accepts, [])
                expected = solve_draw(numpy_substream(seed, 1), shape, one)
                assert row.tobytes() == expected.tobytes()
            # the stack's first draws are checked together, then the trial's
            # redraws one by one
            assert len(seen) == len(seeds) + times
            own = [seen[t], *seen[len(seeds):]]
            assert [d.tobytes() for d in own] == [
                d.tobytes() for d in [*map(spoil, draws[:-1]), draws[-1]]]
            # the acceptance test rejects exactly what the checked API refuses
            for spoiled in own[:-1]:
                with pytest.raises(SingularChannelError) as refused:
                    ia_beamformers(spoiled, 9.0)
                assert refused.type is error
            # the trial's generator is left where n + 1 draws leave it
            redraws = [rng for seed, rng in built[1:] if seed == 17]
            if times:
                assert redraws[-1].standard_normal() == after
            else:
                assert len(built) == 1  # the stack's first-draw generator

    def test_gives_up_after_max_resamples(self):
        shape = (EXTENSION_SLOTS, 2, 2)
        for seeds in STACKS:
            seen = []
            never = spoiling({17: MAX_RESAMPLES + 1}, 1, shape,
                             zero_coefficient, phy._ia_accepts, seen)
            h, _, failed = phy._draw_stack(seeds, 1, shape, never)
            assert failed == seeds.index(17)
            assert len(seen) == len(seeds) + MAX_RESAMPLES
            with pytest.raises(SingularChannelError, match="resamples"):
                solve_draw(numpy_substream(17, 1), shape, never)

    def test_other_errors_propagate_without_redraw(self, monkeypatch):
        built = record_substreams(monkeypatch)
        for seeds in STACKS:
            seen = []
            built.clear()

            def broken(h):
                seen.append(h)
                raise ArgumentError("broken acceptance test")

            with pytest.raises(ArgumentError):
                phy._draw_stack(seeds, 0, (2, 2), broken)
            assert [len(h) for h in seen] == [len(seeds)]
            assert len(built) == 1  # no trial's generator is rebuilt

    def test_no_acceptance_test_takes_exactly_one_draw(self, monkeypatch):
        built = record_substreams(monkeypatch)
        for seeds in STACKS:
            built.clear()
            h, _, failed = phy._draw_stack(seeds, 0, (2, 3), None)
            assert failed == len(seeds)
            for seed, row in zip(seeds, h):
                rng = numpy_substream(seed, 0)
                assert row.tobytes() == solve_draw(rng, (2, 3), None).tobytes()
            # one generator checks the stack's first draws and draws those
            # the ziggurat tables do not certify
            assert [seed for seed, _ in built] == [seeds[0]]


# unstacked, one and two leading axes, and an empty stack
LEADS = [(), (5,), (3, 4), (0,)]
ZF_SHAPES = [(2, 2), (2, 3), (4, 4), (6, 6), (16, 16)]


def per_draw(rng, lead, low, high):
    """One power of ten per draw of a `lead` stack, log-uniform in range."""
    return 10.0 ** rng.uniform(low, high, lead + (1, 1))


@st.composite
def slot_stacks(draw):
    """Slot draws for the alignment test, standard normal or spoiled.

    Near-constant and near-duplicate slots put a receive basis's
    sigma_3 / sigma_1 on both sides of 1e-9 (it falls with the spread);
    widely scaled entries condition it badly another way, and huge ones
    overflow ||A||_F^3; a coefficient at or near the 1e-12 screen, or
    exactly constant slots, is rejected.
    """
    lead = draw(st.sampled_from(LEADS))
    kind = draw(st.sampled_from(["normal", "near-constant", "near-duplicate",
                                 "scaled", "huge", "zeros", "constant"]))
    exponent = draw(st.floats(-14.0, -4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal(lead + (EXTENSION_SLOTS, 2, 2))
    spread = per_draw(rng, lead, exponent - 1, exponent + 1)[..., None]
    if kind == "near-constant":
        h = h[..., :1, :, :] + spread * rng.standard_normal(h.shape)
    elif kind == "near-duplicate":
        h[..., 2, :, :] = (h[..., 0, :, :]
                           + spread[..., 0] * rng.standard_normal(lead + (2, 2)))
    elif kind == "scaled":
        h *= 10.0 ** rng.uniform(-9.0, 9.0, h.shape)
    elif kind == "huge":
        h *= 10.0 ** rng.uniform(0.0, 150.0, h.shape)
    elif kind == "zeros":
        h[..., 0, 1, 0] = draw(st.sampled_from([0.0, 9.99e-13, 1e-12, 1e-11]))
    elif kind == "constant":
        h[...] = h[..., :1, :, :]
    return h


@st.composite
def channel_stacks(draw):
    """K x M draws for the zero-forcing test, standard normal or spoiled.

    Draws built from their singular values, a row scaled down, or a row
    near a multiple of another put sigma_K / sigma_1 on both sides of the
    rank tolerance, max(K, M) eps, or of the 1e-4 the certificate needs.
    Exact zeros, low-rank products and duplicate rows are singular or
    nearly so. Any of them may be scaled so far that the Gram matrix
    overflows or underflows.
    """
    lead = draw(st.sampled_from(LEADS))
    k, m = draw(st.sampled_from(ZF_SHAPES))
    kind = draw(st.sampled_from(["normal", "conditioned", "row-scaled",
                                 "near-duplicate", "zeros", "low-rank",
                                 "duplicate"]))
    scale = draw(st.sampled_from([1.0, 1e-165, 1e-160, 1e155, 1e165]))
    exponent = draw(st.one_of(st.floats(-18.0, -12.0), st.floats(-7.0, -2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal(lead + (k, m))
    ratio = per_draw(rng, lead, exponent - 1, exponent + 1)
    if kind == "conditioned":
        u = np.linalg.qr(rng.standard_normal(lead + (k, k)))[0]
        v = np.linalg.qr(rng.standard_normal(lead + (m, m)))[0][..., :k, :]
        svals = np.ones(lead + (1, k))
        svals[..., -1:] = ratio
        h = (u * svals) @ v
    elif kind == "row-scaled":
        h[..., :1, :] *= ratio
    elif kind == "near-duplicate" and k > 1:
        h[..., 1:2, :] = (h[..., :1, :] * rng.uniform(-2.0, 2.0, lead + (1, 1))
                          + ratio * rng.standard_normal(lead + (1, m)))
    elif kind == "zeros":
        h[rng.random(h.shape) < 0.3] = 0.0
    elif kind == "low-rank":
        rank = int(rng.integers(0, k))
        h = (rng.standard_normal(lead + (k, rank))
             @ rng.standard_normal(lead + (rank, m)))
    elif kind == "duplicate" and k > 1:
        h[..., -1, :] = h[..., 0, :]
    return h * scale


def assert_same_answers(accepts, reference):
    accepts, reference = np.asarray(accepts), np.asarray(reference)
    assert accepts.dtype == reference.dtype == bool
    assert accepts.shape == reference.shape
    np.testing.assert_array_equal(accepts, reference)


def count_fallbacks(monkeypatch):
    """Record the stacks `phy` hands to numpy's SVD and rank tests."""
    calls = []
    for name in ("svd", "matrix_rank"):
        def counting(a, *args, original=getattr(np.linalg, name), name=name,
                     **kwargs):
            calls.append((name, a.copy()))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


class TestAcceptanceCertificate:
    """The closed-form acceptance tests against the SVD ones they shortcut."""

    @settings(max_examples=300)
    @given(slot_stacks())
    def test_alignment_answers_equal_the_svd_tests(self, h_slots):
        accepts, (beams, bases) = phy._ia_accepts(h_slots)
        assert_same_answers(accepts, ia_accepts_svd(h_slots))
        # an accepted draw's parts are the ones `_ia_solution` would build
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            built = phy._ia_bases(h_slots)
        for part, expected in zip((beams, bases), built):
            assert part[accepts].tobytes() == expected[accepts].tobytes()

    @settings(max_examples=300)
    @given(channel_stacks())
    def test_zero_forcing_answers_equal_the_rank_tests(self, h):
        assert_same_answers(phy._zf_accepts(h)[0], zf_accepts_svd(h))

    def test_adversarial_draws_straddle_both_thresholds(self):
        # the spoiled draws the hypothesis tests take do reach the SVD
        # tests' boundaries, and are decided there as the SVD decides
        rng = np.random.default_rng(40)
        base = rng.standard_normal((2000, 1, 2, 2))
        spread = 10.0 ** rng.uniform(-11.0, -7.0, (2000, 1, 1, 1))
        h_slots = base + spread * rng.standard_normal((2000, 3, 2, 2))
        svals = np.linalg.svd(phy._ia_bases(h_slots)[1], compute_uv=False)
        ratio = (svals[..., -1] / svals[..., 0]).min(axis=-1)
        accepts = phy._ia_accepts(h_slots)[0]
        assert_same_answers(accepts, ia_accepts_svd(h_slots))
        near = (ratio > 1e-10) & (ratio < 1e-8)
        assert accepts[near].any() and not accepts[near].all()
        h = rng.standard_normal((2000, 4, 4))
        h[:, 0] *= 10.0 ** rng.uniform(-17.0, -14.0, (2000, 1))
        svals = np.linalg.svd(h, compute_uv=False)
        tolerance = svals[:, 0] * 4 * np.finfo(float).eps
        accepts = phy._zf_accepts(h)[0]
        assert_same_answers(accepts, zf_accepts_svd(h))
        near = np.abs(np.log10(svals[:, -1] / tolerance)) < 1
        assert accepts[near].any() and not accepts[near].all()
        # rank-1 draws whose Gram entries are subnormal: rounding there can
        # make the Gram look well conditioned, so they must reach the rank
        # test
        h = rng.standard_normal((2000, 2, 1)) @ rng.standard_normal((2000, 1, 2))
        h *= 1e-160
        assert not zf_accepts_svd(h).any()
        assert not phy._zf_accepts(h)[0].any()

    @pytest.mark.parametrize("lead", LEADS)
    def test_alignment_shapes(self, lead):
        h_slots = np.random.default_rng(41).standard_normal(
            lead + (EXTENSION_SLOTS, 2, 2))
        assert_same_answers(phy._ia_accepts(h_slots)[0],
                            ia_accepts_svd(h_slots))

    @pytest.mark.parametrize("shape", ZF_SHAPES)
    @pytest.mark.parametrize("lead", LEADS)
    def test_zero_forcing_shapes(self, lead, shape):
        h = np.random.default_rng(42).standard_normal(lead + shape)
        assert_same_answers(phy._zf_accepts(h)[0], zf_accepts_svd(h))

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_a_nan_slot_draw_is_rejected(self, lead):
        h_slots = np.random.default_rng(43).standard_normal(
            lead + (EXTENSION_SLOTS, 2, 2))
        h_slots[(0,) * len(lead) + (1, 0, 1)] = np.nan
        accepts = phy._ia_accepts(h_slots)[0]
        assert_same_answers(accepts, ia_accepts_svd(h_slots))
        assert not accepts[(0,) * len(lead)]

    @pytest.mark.parametrize("shape", ZF_SHAPES)
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_a_nan_channel_draw_raises_as_the_rank_test_does(self, lead,
                                                              shape):
        h = np.random.default_rng(44).standard_normal(lead + shape)
        h[(-1,) * len(lead) + (0, 1)] = np.nan
        for accepts in (zf_accepts_svd, phy._zf_accepts):
            with pytest.raises(np.linalg.LinAlgError,
                               match="SVD did not converge"):
                accepts(h)

    @pytest.mark.parametrize("lead", [(), (200,), (10, 20), (0,)])
    def test_well_conditioned_draws_take_no_svd(self, monkeypatch, lead):
        rng = np.random.default_rng(45)
        h_slots = rng.standard_normal(lead + (EXTENSION_SLOTS, 2, 2))
        channels = [rng.standard_normal(lead + shape)
                    for shape in [(2, 2), (6, 6), (16, 16)]]
        calls = count_fallbacks(monkeypatch)
        assert np.all(phy._ia_accepts(h_slots)[0])
        for h in channels:
            assert np.all(phy._zf_accepts(h)[0])
        assert calls == []

    @pytest.mark.parametrize("lead,at", [((), ()), ((6,), (4,)),
                                         ((3, 4), (1, 2))])
    @pytest.mark.parametrize("spread,usable", [(0.0, False), (1e-6, True)])
    def test_only_an_undecided_slot_draw_takes_the_svd(
            self, monkeypatch, lead, at, spread, usable):
        # near-constant slots: spread 1e-6 puts this draw's bases at
        # sigma_3 / sigma_1 of about 3e-8, below the certificate's 1e-6
        # and above 1e-9; constant slots make them singular
        rng = np.random.default_rng(46)
        h_slots = rng.standard_normal(lead + (EXTENSION_SLOTS, 2, 2))
        h_slots[at] = (constant_slots(h_slots[at])
                       + spread * rng.standard_normal((EXTENSION_SLOTS, 2, 2)))
        calls = count_fallbacks(monkeypatch)
        accepts = phy._ia_accepts(h_slots)[0]
        assert [name for name, _ in calls] == ["svd"]
        np.testing.assert_array_equal(
            calls[0][1], phy._ia_bases(h_slots[at][None])[1])
        expected = np.ones(lead, bool)
        expected[at] = usable
        assert_same_answers(accepts, expected)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (6, 6), (16, 16)])
    @pytest.mark.parametrize("lead,at", [((), ()), ((6,), (4,)),
                                         ((3, 4), (1, 2))])
    @pytest.mark.parametrize("ratio,usable", [(0.0, False), (1e-6, True)])
    def test_only_an_undecided_channel_draw_takes_the_rank_test(
            self, monkeypatch, shape, lead, at, ratio, usable):
        # the last row near (or at) a multiple of the first: sigma_K /
        # sigma_1 about `ratio`, below the certificate's 1e-4 and, unless
        # 0, far above the rank tolerance
        rng = np.random.default_rng(47)
        h = rng.standard_normal(lead + shape)
        h[at + (-1,)] = 2.0 * h[at + (0,)] + ratio * rng.standard_normal(
            shape[1])
        calls = count_fallbacks(monkeypatch)
        accepts = phy._zf_accepts(h)[0]
        assert [name for name, _ in calls] == ["matrix_rank"]
        np.testing.assert_array_equal(calls[0][1], h[at][None])
        expected = np.ones(lead, bool)
        expected[at] = usable
        assert_same_answers(accepts, expected)


def crafted_draws(rng, draws, k, m, ratio):
    """K x M draws h = U diag(sigma) V^T, U and V orthonormal from QRs of
    normal draws, sigma geometric from sigma_1 to sigma_K = ratio sigma_1,
    each draw at its own scale over six decades."""
    u = np.linalg.qr(rng.standard_normal((draws, k, k)))[0]
    v = np.linalg.qr(rng.standard_normal((draws, m, k)))[0]
    sigma = (np.geomspace(1.0, ratio, k)
             * 10.0 ** rng.uniform(-3.0, 3.0, (draws, 1)))
    return (u * sigma[:, None, :]) @ np.swapaxes(v, -1, -2)


class TestZfPrecoder:
    """The precoder's LU (K = M) and QR (K < M) against `pinv`, on the
    worst-conditioned draws that `_zf_accepts` certifies."""

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (16, 16), (3, 4),
                                       (8, 16)], ids="{0[0]}x{0[1]}".format)
    def test_draws_just_inside_the_threshold(self, monkeypatch, shape):
        # sigma_K / sigma_1 = 1.001e-4: lambda_K / lambda_1 = 1.002e-8,
        # just above the certificate's 1e-8
        k, m = shape
        h = crafted_draws(np.random.default_rng(48), 2000, k, m, 1.001e-4)
        calls = count_fallbacks(monkeypatch)
        assert phy._zf_accepts(h)[0].all()
        assert calls == []
        # unit per-EN powers make the scale exactly 1, so the weights are w0
        monkeypatch.setattr(phy, "zf_per_en_power",
                            lambda w: np.ones(w.shape[:-1]))
        w0 = phy._zf_weights(h, 1.0)
        assert np.abs(h @ w0 - np.eye(k)).max() <= 1e-10
        pinv = np.linalg.pinv(h)
        assert np.all(np.linalg.norm(w0 - pinv, axis=(-2, -1))
                      <= 1e-10 * np.linalg.norm(pinv, axis=(-2, -1)))

    @pytest.mark.parametrize("scheme,m,k", [(Scheme.ZERO_FORCING, 2, 2),
                                            (Scheme.ZERO_FORCING, 4, 3),
                                            (Scheme.HYBRID_SHARE, 2, 2)])
    def test_campaigns_take_no_pinv(self, monkeypatch, scheme, m, k):
        def no_pinv(*args, **kwargs):
            raise AssertionError("the precoder took a pseudo-inverse")

        cfg, alloc, dem = setup_scheme(scheme, m=m, k=k, n=k)
        calls = count_fallbacks(monkeypatch)
        monkeypatch.setattr(np.linalg, "pinv", no_pinv)
        points = run_campaign(cfg, alloc, scheme, dem, SNR_GRID, 50, 0)
        assert [len(point.seeds) for point in points] == [50] * len(SNR_GRID)
        assert all(np.all(point.achieved_sum_rate > 0.0) for point in points)
        # an SVD only of the alignment's receive bases
        assert all(a.shape[-2:] == (EXTENSION_SLOTS, EXTENSION_SLOTS)
                   for name, a in calls if name == "svd")


class TestCampaign:
    def test_trial_seeds_unique_and_stable(self):
        seeds = [trial_seed(5, i) for i in range(200)]
        assert len(set(seeds)) == 200
        assert seeds == [trial_seed(5, i) for i in range(200)]

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_mean_rate_increases_with_snr(self, scheme):
        cfg, alloc, dem = setup_scheme(scheme)
        points = run_campaign(cfg, alloc, scheme, dem, SNR_GRID, 60,
                              master_seed=13)
        assert [p.snr_db for p in points] == SNR_GRID
        means = [np.mean(p.achieved_sum_rate) for p in points]
        assert all(b > a for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("scheme,calls", [
        (Scheme.TDMA, 1),
        (Scheme.ZERO_FORCING, 0),
        (Scheme.IA_XCHANNEL_2X2, 0),
        (Scheme.HYBRID_SHARE, 0),
    ])
    def test_assignment_built_once_per_campaign(self, monkeypatch, scheme,
                                                calls):
        seen = []

        def counting(allocation, demand):
            seen.append(demand)
            return assignment_for_demand(allocation, demand)

        monkeypatch.setattr("edgecache.phy.assignment_for_demand", counting)
        cfg, alloc, dem = setup_scheme(scheme)
        run_campaign(cfg, alloc, scheme, dem, SNR_GRID, 4, master_seed=2)
        assert len(seen) == calls

    def test_an_empty_grid_returns_no_points(self, monkeypatch):
        def no_stage(*args):
            raise AssertionError("the scheme stage ran on no trials")

        monkeypatch.setattr(phy, "_trial_results", no_stage)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        assert run_campaign(cfg, alloc, Scheme.ZERO_FORCING, dem, [],
                            50, 0) == []

    @pytest.mark.parametrize("grid,per_snr,caps,message", [
        (SNR_GRID, 0, {}, "trials must be"),
        (SNR_GRID, -5, {}, "trials must be"),
        (SNR_GRID, 2.5, {}, "trials must be"),
        ([20.0, 40.0, math.nan], 50, {}, "SNR values"),
        ([20.0, 40.0, math.inf], 50, {}, "SNR values"),
        ([20.0, 40.0, MAX_SNR_DB + 1], 50, {}, "SNR values"),
        ([20.0, 40.0, "60"], 50, {}, "SNR values"),
        ([20.0, 40.0], 60_000, {},
         "trials x SNR points is 120000, more than the 100000 allowed"),
        ([20.0, 40.0, 60.0], 50, {"MAX_CAMPAIGN_TRIALS": 3 * 50 - 1},
         "trials x SNR points is 150, more than the 149 allowed"),
        (SNR_GRID, 50, {"MAX_LINKS": 2 * 2 - 1},
         "K*M is 4, more than the 3 allowed"),
    ], ids=["0-trials", "-5-trials", "2.5-trials", "nan", "inf", "over-max",
            "text", "over-trials-cap", "over-patched-trials-cap",
            "over-patched-links-cap"])
    def test_bad_campaigns_are_refused_before_any_trial(
            self, monkeypatch, grid, per_snr, caps, message):
        def no_work(*args):
            raise AssertionError("a refused campaign did work")

        monkeypatch.setattr(phy, "_trial_results", no_work)
        monkeypatch.setattr(phy, "_checked_assignment", no_work)
        monkeypatch.setattr(streams, "trial_seeds", no_work)
        for cap, value in caps.items():
            monkeypatch.setattr(f"edgecache.model.{cap}", value)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        with pytest.raises(ArgumentError, match=re.escape(message)):
            run_campaign(cfg, alloc, Scheme.ZERO_FORCING, dem, grid,
                         per_snr, 0)

    @pytest.mark.parametrize("m,k,caps,message", [
        (17, 16, {}, "K*M is 272, more than the 256 allowed"),
        (2, 2, {"MAX_LINKS": 2 * 2 - 1}, "K*M is 4, more than the 3 allowed"),
    ], ids=["17x16", "patched-cap"])
    def test_a_trial_over_the_links_cap_is_refused(self, monkeypatch, m, k,
                                                   caps, message):
        def no_work(*args):
            raise AssertionError("a refused trial did work")

        monkeypatch.setattr(phy, "_trial_results", no_work)
        monkeypatch.setattr(phy, "_checked_assignment", no_work)
        monkeypatch.setattr(streams, "trial_seeds", no_work)
        monkeypatch.setattr(streams, "first_draws", no_work)
        for cap, value in caps.items():
            monkeypatch.setattr(f"edgecache.model.{cap}", value)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING, m=m, k=k, n=k)
        with pytest.raises(ArgumentError, match=re.escape(message)):
            run_trial(cfg, alloc, Scheme.ZERO_FORCING, dem, 40.0, 0)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, MAX_SNR_DB + 1])
    def test_a_bad_trial_snr_is_refused(self, monkeypatch, snr):
        def no_work(*args):
            raise AssertionError("a refused trial did work")

        monkeypatch.setattr(phy, "_trial_results", no_work)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        with pytest.raises(ArgumentError, match="SNR values"):
            run_trial(cfg, alloc, Scheme.ZERO_FORCING, dem, snr, 0)

    def test_memory_stays_within_a_chunk(self):
        """A campaign of ten chunks' trials at one SNR point allocates, on
        top of the results it returns, no more than one chunk's working
        set: about a dozen arrays of the chunk's channel stack (the draw,
        its SVD factors, the precoder and the products), plus the Python
        ints that seed each trial of the chunk."""
        m = k = 4
        trials = 10 * phy.TRIAL_CHUNK
        bound = phy.TRIAL_CHUNK * (12 * k * m * 8 + 512)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING, m=m, k=k, n=k)
        args = (cfg, alloc, Scheme.ZERO_FORCING, dem, [40.0])
        run_campaign(*args, 50, 0)  # fills numpy's and the module's caches
        tracemalloc.start()
        try:
            points = run_campaign(*args, trials, 0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points[0].seeds) == trials
        assert peak - kept <= bound

    def test_tdma_campaign_matches_self_assigning_trials(self):
        # shared placement: both unicast and cooperative fragments
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=F(1, 2), m=3, k=3, n=4)
        points = run_campaign(cfg, alloc, Scheme.TDMA, dem, SNR_GRID, 4,
                              master_seed=8)
        assert outcome(lambda: points) == outcome(lambda: [
            run_trial(cfg, alloc, Scheme.TDMA, dem, snr,
                      trial_seed(8, si * 4 + ti))
            for si, snr in enumerate(SNR_GRID)
            for ti in range(4)
        ])



def exact(value):
    """A result field bit for bit: an array's bytes, a float's hex."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    return float(value).hex() if isinstance(value, float) else value


def outcome(run):
    """Each trial's fields bit for bit, or the error the run raised.

    `run` returns `PointResult`s; every row of every column comes out, so
    a campaign's points and `run_trial`'s one-row results compare trial by
    trial.
    """
    try:
        points = run()
    except SingularChannelError as exc:
        return type(exc), str(exc)
    trials = []
    for point in points:
        columns = [getattr(point, name) for name in COLUMNS]
        assert all(column is None or (column.dtype == np.float64
                                      and len(column) == len(point.seeds))
                   for column in columns)
        for t, seed in enumerate(point.seeds):
            trials.append((point.scheme, exact(point.snr_db), seed, *(
                None if column is None else exact(column[t])
                for column in columns)))
    return trials


# chunk sizes that cut across the SNR points of small campaigns
SMALL_CHUNKS = (2, 3)


def batched(cfg, alloc, scheme, dem, grid, per_snr, master, chunk=None):
    """`run_campaign` with `phy.run_trial` patched to raise.

    The campaign's trials run in stacks of `chunk` trials, TRIAL_CHUNK by
    default; no trial runs alone.
    """
    def alone(*args, **kw):
        raise AssertionError("the campaign ran a trial through run_trial")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phy, "run_trial", alone)
        if chunk is not None:
            patch.setattr(phy, "TRIAL_CHUNK", chunk)
        points = run_campaign(cfg, alloc, scheme, dem, grid, per_snr, master)
    assert [len(p.seeds) for p in points] == [per_snr] * len(grid)
    return points


def trial_by_trial(cfg, alloc, scheme, dem, grid, per_snr, master):
    return [run_trial(cfg, alloc, scheme, dem, snr,
                      trial_seed(master, si * per_snr + ti))
            for si, snr in enumerate(grid) for ti in range(per_snr)]


# the low bands fail trials at random positions and points: zero sum rates
# of the precoded schemes, and TDMA links whose channel uses overflow or
# whose h^2 P underflows to 0
snr_grids = st.lists(
    st.one_of(st.just(MAX_SNR_DB),
              st.floats(-20.0, MAX_SNR_DB, allow_nan=False),
              st.floats(-160.0, -130.0), st.floats(-3250.0, -3020.0)),
    min_size=1, max_size=3, unique=True)
campaigns = st.tuples(snr_grids, st.integers(1, 6),
                      st.integers(0, 2 ** 64 - 1))


class TestBatchedCampaign:
    """The batched campaign against `run_trial`, the one-trial reference."""

    @staticmethod
    def assert_matches_trials(scheme, setup, campaign):
        cfg, alloc, dem = setup
        args = (cfg, alloc, scheme, dem, *campaign)
        expected = outcome(lambda: trial_by_trial(*args))
        for chunk in (None, *SMALL_CHUNKS):
            assert outcome(lambda: batched(*args, chunk)) == expected

    @settings(max_examples=40)
    @given(st.integers(2, 4).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, m))), campaigns)
    def test_zero_forcing(self, network, campaign):
        m, k = network
        self.assert_matches_trials(
            Scheme.ZERO_FORCING,
            setup_scheme(Scheme.ZERO_FORCING, m=m, k=k, n=k), campaign)

    @settings(max_examples=40)
    @given(st.sampled_from([Scheme.IA_XCHANNEL_2X2, Scheme.HYBRID_SHARE]),
           campaigns)
    def test_alignment_and_hybrid(self, scheme, campaign):
        self.assert_matches_trials(scheme, setup_scheme(scheme), campaign)

    @settings(max_examples=40)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(["split", "full", "shared"]), campaigns)
    def test_tdma(self, m, k, placement, campaign):
        # shared: alpha = 3/4, so alpha*L = 900 bits, a multiple of each M
        mu = {"split": F(1, m), "full": F(1),
              "shared": F(1, m) + (1 - F(1, m)) / 4}[placement]
        setup = setup_scheme(Scheme.TDMA, mu=mu, m=m, k=k, n=k + 1)
        self.assert_matches_trials(Scheme.TDMA, setup, campaign)


def reject_first_draws(monkeypatch, predicate, index, shape, rejections):
    """Make `phy.<predicate>` reject each chosen seed's first n draws.

    `rejections` maps a trial seed to n; those draws reach the real test
    zeroed, which it rejects. The patched test is the one `_draw_stack`
    calls, on a campaign's stack or `run_trial`'s stack of one.
    """
    monkeypatch.setattr(phy, predicate, spoiling(
        rejections, index, shape, np.zeros_like, getattr(phy, predicate), []))


class TestBatchedRedraws:
    CASES = [
        (Scheme.ZERO_FORCING, "_zf_accepts", 0, (2, 2)),
        (Scheme.IA_XCHANNEL_2X2, "_ia_accepts", 1, (EXTENSION_SLOTS, 2, 2)),
        (Scheme.HYBRID_SHARE, "_zf_accepts", 0, (2, 2)),
        (Scheme.HYBRID_SHARE, "_ia_accepts", 1, (EXTENSION_SLOTS, 2, 2)),
    ]

    @pytest.mark.parametrize("scheme,predicate,index,shape", CASES)
    def test_redraws_consume_the_draws_of_one_trial(self, monkeypatch, scheme,
                                                    predicate, index, shape):
        cfg, alloc, dem = setup_scheme(scheme)
        grid, per_snr, master = [20.0, 40.0], 6, 5
        # trial index -> rejections; trial 6 is the second point's first
        chosen = {1: 1, 4: 3, 6: 2, 9: MAX_RESAMPLES}
        before = run_campaign(cfg, alloc, scheme, dem, grid, per_snr, master)
        reject_first_draws(monkeypatch, predicate, index, shape,
                           {trial_seed(master, i): n for i, n in chosen.items()})
        after = batched(cfg, alloc, scheme, dem, grid, per_snr, master)
        assert outcome(lambda: after) == outcome(
            lambda: trial_by_trial(cfg, alloc, scheme, dem, grid, per_snr,
                                   master))
        for chunk in SMALL_CHUNKS:
            assert outcome(lambda: batched(cfg, alloc, scheme, dem, grid,
                                           per_snr, master, chunk)) == \
                outcome(lambda: after)
        changed = [i for i, (a, b) in enumerate(zip(
            outcome(lambda: before), outcome(lambda: after))) if a != b]
        assert changed == sorted(chosen)

    @pytest.mark.parametrize("scheme,predicate,index,shape", CASES)
    def test_running_out_of_resamples(self, monkeypatch, tmp_path, scheme,
                                      predicate, index, shape):
        cfg, alloc, dem = setup_scheme(scheme)
        reject_first_draws(monkeypatch, predicate, index, shape,
                           {trial_seed(0, 7): MAX_RESAMPLES + 1})
        with pytest.raises(SingularChannelError, match="resamples") as single:
            run_trial(cfg, alloc, scheme, dem, 20.0, trial_seed(0, 7))
        with pytest.raises(SingularChannelError) as campaign:
            run_campaign(cfg, alloc, scheme, dem, SNR_GRID, 50, master_seed=0)
        assert type(campaign.value) is type(single.value)
        assert str(campaign.value) == str(single.value)
        mu = {Scheme.ZERO_FORCING: "1", Scheme.IA_XCHANNEL_2X2: "1/2",
              Scheme.HYBRID_SHARE: "3/4"}[scheme]
        code = main(["simulate", "--m", "2", "--k", "2", "--mu", mu,
                     "--scheme", scheme.value, "--trials", "50", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_UNSUPPORTED
        assert list(tmp_path.iterdir()) == []

    # (trial with no full-interval draw, trial with no slot draw); at (0, 0)
    # the formulas run on empty stacks
    @pytest.mark.parametrize("zf_trial,ia_trial",
                             [(3, 1), (1, 3), (2, 2), (0, 0)])
    def test_hybrid_raises_the_lowest_trials_first_failing_draw(
            self, monkeypatch, zf_trial, ia_trial):
        cfg, alloc, dem = setup_scheme(Scheme.HYBRID_SHARE)
        args = (cfg, alloc, Scheme.HYBRID_SHARE, dem, [20.0, 40.0], 6, 5)
        for predicate, index, shape, trial in (
                ("_zf_accepts", 0, (2, 2), zf_trial),
                ("_ia_accepts", 1, (EXTENSION_SLOTS, 2, 2), ia_trial)):
            reject_first_draws(monkeypatch, predicate, index, shape,
                               {trial_seed(5, trial): MAX_RESAMPLES + 1})
        expected = outcome(lambda: trial_by_trial(*args))
        # a trial draws its full interval before its slots
        shape = (2, 2) if zf_trial <= ia_trial else (EXTENSION_SLOTS, 2, 2)
        assert expected == (SingularChannelError,
                            f"no usable {shape} channel draw after "
                            f"{MAX_RESAMPLES} resamples (RNG misuse?)")
        for chunk in (None, *SMALL_CHUNKS):
            assert outcome(lambda: batched(*args, chunk)) == expected


MASK64 = 2 ** 64 - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # its 128-bit LCG multiplier
# word-count edges of numpy's entropy: a seed of 1 or 2 uint32 words, up
# to MAX_SEED, so with its index a row of 2 to 4 words
EDGE_MASTERS = EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


class TestBulkSeeding:
    """The array pass that seeds a point's trials, against numpy's objects."""

    @pytest.mark.parametrize("master", EDGE_MASTERS)
    @pytest.mark.parametrize("start,count", [(0, 3), (2 ** 32 - 2, 4),
                                             (2 ** 32, 2), (2 ** 40, 1),
                                             (2 ** 64 - 3, 3)])
    def test_trial_seeds_at_word_edges(self, master, start, count):
        assert trial_seeds(master, start, count) == [
            trial_seed(master, i) for i in range(start, start + count)]

    @settings(max_examples=60)
    @given(st.one_of(st.sampled_from(EDGE_MASTERS),
                     st.integers(0, 2 ** 64 - 1)),
           st.one_of(st.integers(0, 2 ** 48),
                     st.integers(2 ** 32 - 12, 2 ** 32 + 12),
                     st.integers(2 ** 64 - 40, 2 ** 64 - 12)),
           st.integers(0, 12))
    def test_trial_seeds_equal_numpys(self, master, start, count):
        assert trial_seeds(master, start, count) == [
            trial_seed(master, i) for i in range(start, start + count)]

    # up to 16 normals a draw take the ziggurat tables, where about 1.5% of
    # words send their trial to the per-trial loop; 17 take the loop alone
    @settings(max_examples=60)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                              st.integers(0, 2 ** 64 - 1)),
                    min_size=1, max_size=40),
           st.sampled_from([0, 1]),
           st.one_of(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                     st.sampled_from([(EXTENSION_SLOTS, 2, 2), (2, 2, 4),
                                      (16,), (17,)])))
    def test_first_draws_equal_numpys(self, seeds, index, shape):
        draws = streams.first_draws(seeds, index, shape)
        assert draws.shape == (len(seeds),) + shape
        for seed, draw in zip(seeds, draws):
            expected = streams.substream(seed, index).standard_normal(shape)
            assert draw.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index", [0, 1])
    def test_pcg64_states_at_word_edges(self, index):
        """Limb rows: state high, state low, inc high, inc low."""
        expected = []
        for seed in EDGE_SEEDS:
            pcg = streams.substream(seed, index).bit_generator.state["state"]
            expected.append([pcg["state"] >> 64, pcg["state"] & MASK64,
                             pcg["inc"] >> 64, pcg["inc"] & MASK64])
        states = streams.pcg64_states(EDGE_SEEDS, index)
        assert states.dtype == np.uint64
        assert states.T.tolist() == expected

    @pytest.mark.parametrize("index", [0, 1])
    def test_pcg64_words_equal_numpys(self, index):
        states = streams.pcg64_states(EDGE_SEEDS, index)
        words = streams.pcg64_words(states, 20)
        for seed, row in zip(EDGE_SEEDS, words):
            bit_generator = streams.substream(seed, index).bit_generator
            assert row.tolist() == bit_generator.random_raw(20).tolist()

    def test_only_streams_names_numpys_generator_internals(self):
        """`streams` is the one module that redoes numpy's generators."""
        internals = {"SeedSequence", "bit_generator", "random_raw", "PCG64"}
        named = {}  # module -> the internals it names
        for path in sorted(Path(phy.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # a name, an attribute, an import or its alias, a definition
            found = internals & {getattr(node, field, None)
                                 for node in ast.walk(tree)
                                 for field in ("id", "attr", "name", "asname")}
            if found:
                named[path.stem] = found
        assert set(named) == {"streams"}, named

    def test_a_wrong_trial_seed_fails_loudly(self, monkeypatch):
        bulk = streams.trial_seeds

        def second_point_off(master, start, count):
            seeds = bulk(master, start, count)
            seeds[4] ^= 1  # the second SNR point's first trial
            return seeds

        monkeypatch.setattr(streams, "trial_seeds", second_point_off)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            run_campaign(cfg, alloc, Scheme.ZERO_FORCING, dem, SNR_GRID, 4, 0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("field", [0, 1])  # PCG64 state, increment
    def test_a_wrong_pcg64_state_fails_loudly(self, monkeypatch, scheme, field):
        """Every chunk checks its first state of each substream: a wrong
        state in the first chunk, or in the second of 3-trial chunks,
        stops the campaign."""
        bulk, calls = streams.pcg64_states, []  # substream index per chunk

        def chunk_off(seeds, index):
            states = bulk(seeds, index)
            calls.append(index)
            if calls.count(index) == wrong_chunk:
                states[2 * field + 1, 0] ^= 2  # the field's low limb
            return states

        monkeypatch.setattr(streams, "pcg64_states", chunk_off)
        cfg, alloc, dem = setup_scheme(scheme)
        for wrong_chunk, chunk in (1, phy.TRIAL_CHUNK), (2, 3):
            monkeypatch.setattr(phy, "TRIAL_CHUNK", chunk)
            calls.clear()
            with pytest.raises(RuntimeError, match="PCG64"):
                run_campaign(cfg, alloc, scheme, dem, SNR_GRID, 4, 0)
            assert calls.count(calls[-1]) == wrong_chunk


    @pytest.mark.parametrize("table", ["wi", "lb"])
    def test_a_wrong_ziggurat_entry_fails_loudly(self, monkeypatch, table):
        """Every chunk checks its first trial's draw: a wrong wi entry, or
        an lb entry above ki, that this draw reads stops the campaign, in
        the first chunk or in the second of 3-trial chunks."""
        # at master seed 1, trials 0 and 3 draw every word by the tables;
        # at 220 each holds one word they do not certify, and certifying it
        # changes the draw
        master = {"wi": 1, "lb": 220}[table]
        tables, calls = streams.ziggurat_tables(), []
        wrong = {}  # chunk checked wrong -> its tables
        for wrong_chunk in (1, 2):
            seed = trial_seed(master, 3 * (wrong_chunk - 1))
            states = streams.pcg64_states([seed], 0)
            words = streams.pcg64_words(states, 4)[0]
            certified = streams.ziggurat_normals(words)[1]
            wi, lb = (part.copy() for part in tables)
            if table == "wi":
                assert certified.all()
                wi[words[0] & 0xFF] *= 2.0
            else:
                assert certified.sum() == len(words) - 1
                lb[words[~certified][0] & 0xFF] = 2 ** 52
            wrong[wrong_chunk] = wi, lb

        def chunk_off():
            calls.append(None)
            return wrong[wrong_chunk] if len(calls) == wrong_chunk else tables

        monkeypatch.setattr(streams, "ziggurat_tables", chunk_off)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        for wrong_chunk, chunk in (1, phy.TRIAL_CHUNK), (2, 3):
            monkeypatch.setattr(phy, "TRIAL_CHUNK", chunk)
            calls.clear()
            with pytest.raises(RuntimeError, match="standard_normal"):
                run_campaign(cfg, alloc, Scheme.ZERO_FORCING, dem, SNR_GRID,
                             4, master)
            assert len(calls) == wrong_chunk


class NumpyWord:
    """numpy's own standard_normal from a state whose next word is chosen.

    PCG64 steps its LCG and outputs the XSL-RR of the new state, which for
    a high word of 0 is the low word; the LCG step is inverted to reach it.
    """

    def __init__(self):
        self.bit_generator = np.random.PCG64(0)
        self.rng = np.random.Generator(self.bit_generator)
        self.inc = self.bit_generator.state["state"]["inc"]
        self.inverse = pow(PCG64_MULT, -1, 2 ** 128)

    def set(self, word):
        state = self.bit_generator.state
        state["state"] = {"state": (word - self.inc) * self.inverse % 2 ** 128,
                          "inc": self.inc}
        self.bit_generator.state = state

    def __call__(self, word):
        """The normal drawn, and whether it took that one word alone."""
        self.set(word)
        value = self.rng.standard_normal()
        return value, self.bit_generator.state["state"]["state"] == word

    def one_word_bound(self, layer):
        """ki: the least rabs numpy does not take alone on this layer."""
        low, high = 0, 2 ** 52
        while low < high:
            mid = (low + high) // 2
            if self(layer | mid << 9)[1]:
                low = mid + 1
            else:
                high = mid
        return low


def ziggurat_word(layer, negative, rabs):
    return layer | negative << 8 | rabs << 9


class TestZigguratTables:
    """The tables probed from the installed numpy, on crafted words."""

    def test_a_crafted_state_outputs_its_word(self):
        numpy_word = NumpyWord()
        for word in (0, 1, 2 ** 63, 2 ** 64 - 1, 0x1234_5678_9ABC_DEF0):
            numpy_word.set(word)
            assert int(numpy_word.bit_generator.random_raw()) == word

    def test_every_layer_against_numpy(self):
        """wi is exact at rabs = 1, rabs = lb - 1 is certified and equals
        numpy's draw, and rabs at or above ki is never certified; layer 0
        is the tail and layer 1 (ki = 0) certifies nothing."""
        wi, lb = streams.ziggurat_tables()
        numpy_word, rng = NumpyWord(), np.random.default_rng(48)
        ki = [numpy_word.one_word_bound(layer) for layer in range(256)]
        assert ki[1] == 0 and ki[0] == 0xEF33D8025EF6A
        assert np.flatnonzero(lb == 0).tolist() == [1]
        words, below = [], []
        for layer in range(256):
            assert lb[layer] <= ki[layer] <= lb[layer] + 2
            for negative in (0, 1):
                for rabs in {1, max(int(lb[layer]) - 1, 0), ki[layer],
                             2 ** 52 - 1, int(rng.integers(2 ** 52))}:
                    words.append(ziggurat_word(layer, negative, rabs))
                    below.append(rabs < ki[layer])
        normals, certified = streams.ziggurat_normals(
            np.array(words, np.uint64))
        for word, normal, sure, one_word in zip(words, normals, certified,
                                                below):
            layer, rabs = word & 0xFF, word >> 9
            value, alone = numpy_word(word)
            assert alone == one_word
            assert sure == (rabs < lb[layer])
            if sure:
                assert normal.tobytes() == np.float64(value).tobytes()
            if rabs == 1:
                assert abs(value) == wi[layer]

    @pytest.mark.parametrize("shape,tables", [((4, 4), True), ((16,), True),
                                              ((17,), False), ((6, 6), False)])
    def test_draws_of_more_than_16_normals_take_the_loop(
            self, monkeypatch, shape, tables):
        seeds = list(range(60))
        count = math.prod(shape)
        certified = streams.ziggurat_normals(streams.pcg64_words(
            streams.pcg64_states(seeds, 0), count))[1].all(axis=1)
        assert 0 < certified.sum() < len(seeds)  # both paths have trials
        read, probed = [], streams.ziggurat_tables
        monkeypatch.setattr(streams, "ziggurat_tables",
                            lambda: read.append(None) or probed())
        draws = streams.first_draws(seeds, 0, shape)
        assert bool(read) == tables
        for seed, draw in zip(seeds, draws):
            expected = streams.substream(seed, 0).standard_normal(shape)
            assert draw.tobytes() == expected.tobytes()


# Each seed a seeded entry point must refuse with ArgumentError before any
# work: every seed is one uint64, in [0, model.MAX_SEED].
BAD_SEEDS = """
import json
from fractions import Fraction
from edgecache.caching import full_placement
from edgecache.converse import verify_converse
from edgecache.model import DemandVector, FileLibrary, Scheme, validate_config
from edgecache.phy import run_campaign, run_trial

cfg = validate_config(2, 2, 2, Fraction(1), 12)
alloc = full_placement(FileLibrary.random(cfg, seed=0), cfg)
args = (cfg, alloc, Scheme.ZERO_FORCING, DemandVector.worst_case(cfg))
calls = {
    "run_campaign -1": lambda: run_campaign(*args, [20.0, 40.0, 60.0], 50, -1),
    "run_campaign 2**64": lambda: run_campaign(*args, [20.0, 40.0, 60.0], 50,
                                               2**64),
    "run_trial -1": lambda: run_trial(*args, 40.0, -1),
    "run_trial 2**64": lambda: run_trial(*args, 40.0, 2**64),
    "run_trial 1.0": lambda: run_trial(*args, 40.0, 1.0),
    "FileLibrary.random -1": lambda: FileLibrary.random(cfg, seed=-1),
    "FileLibrary.random 2**64": lambda: FileLibrary.random(cfg, seed=2**64),
    "verify_converse -1": lambda: verify_converse(cfg, trials=1, seed=-1),
    "verify_converse 2**64": lambda: verify_converse(cfg, trials=1,
                                                     seed=2**64),
}
raised = {}
for name, call in calls.items():
    try:
        call()
        raised[name] = None
    except Exception as exc:
        raised[name] = type(exc).__name__ + ": " + str(exc)
print(json.dumps(raised))
"""


class TestSeedChecks:
    def test_bad_seeds_are_refused_at_once_in_a_fresh_process(self):
        """The timeout fails a hang here rather than stalling the suite."""
        env = dict(os.environ, PYTHONPATH=str(
            Path(edgecache.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", BAD_SEEDS], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        raised = json.loads(proc.stdout)
        assert len(raised) == 9
        for name, error in raised.items():
            assert error and error.startswith("ArgumentError: seed must be"), (
                name, error)

    # the masters past one uint64 that seeding took before MAX_SEED bounded
    # every seed, among them each row length numpy's pool could not hold
    @pytest.mark.parametrize("master", [2 ** 64, 2 ** 96 - 1, 2 ** 96,
                                        2 ** 128, 2 ** 256])
    def test_masters_past_one_word_are_refused_before_seeding(
            self, monkeypatch, master):
        def no_work(*args):
            raise AssertionError("a refused campaign seeded its trials")

        monkeypatch.setattr(phy, "_trial_results", no_work)
        monkeypatch.setattr(streams, "trial_seeds", no_work)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        with pytest.raises(ArgumentError, match="seed must be"):
            run_campaign(cfg, alloc, Scheme.ZERO_FORCING, dem, SNR_GRID, 4,
                         master)

    def test_the_largest_trial_seed_runs(self):
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        result = run_trial(cfg, alloc, Scheme.ZERO_FORCING, dem, 40.0,
                           streams.MAX_SEED)
        assert result.seeds == (2**64 - 1,)


class TestEstimateNdt:
    @staticmethod
    def synthetic(rate_fn, snrs=(20.0, 40.0, 60.0), per_point=50, k=2):
        points = []
        for snr in snrs:
            rate = rate_fn(10 ** (snr / 10))
            points.append(PointResult(
                Scheme.ZERO_FORCING, snr, tuple(range(per_point)),
                np.full(per_point, rate), np.full((per_point, k), rate / k),
                np.full(per_point, k / rate),
                peak_en_power=np.full(per_point, 10 ** (snr / 10)),
                alignment_error=None))
        return points

    def test_exact_line_recovered(self):
        est = estimate_ndt(self.synthetic(lambda p: 2 * math.log2(p)))
        assert est.dof_estimate == pytest.approx(2.0, abs=1e-12)
        assert est.ndt_estimate == pytest.approx(1.0, abs=1e-12)
        assert est.fit_residual == pytest.approx(0.0, abs=1e-9)

    def test_too_few_snr_points(self):
        with pytest.raises(InsufficientDataError):
            estimate_ndt(self.synthetic(lambda p: math.log2(p),
                                        snrs=(20.0, 60.0)))

    def test_narrow_span(self):
        with pytest.raises(InsufficientDataError):
            estimate_ndt(self.synthetic(lambda p: math.log2(p),
                                        snrs=(20.0, 25.0, 30.0)))

    def test_too_few_trials(self):
        with pytest.raises(InsufficientDataError):
            estimate_ndt(self.synthetic(lambda p: math.log2(p), per_point=10))

    def test_duplicate_snr_points_rejected(self):
        with pytest.raises(ArgumentError, match="duplicate"):
            estimate_ndt(self.synthetic(lambda p: math.log2(p),
                                        snrs=(20.0, 40.0, 40.0, 60.0)))

    def test_flat_rates_rejected(self):
        with pytest.raises(InsufficientDataError):
            estimate_ndt(self.synthetic(lambda p: 5.0))
