"""Tests for the Monte-Carlo delivery simulator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecache import phy
from edgecache.cli import EXIT_UNSUPPORTED, main
from edgecache.caching import (
    assignment_for_demand,
    full_placement,
    shared_placement,
    split_placement,
)
from edgecache.errors import (
    AlignmentDegeneracyError,
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
    trial_seed,
    trial_seeds,
    zf_per_en_power,
    zf_sinrs,
)
from edgecache.phy import _solve_draw
from one_draw import awgn_channel, ia_beamformers, ia_xchannel_2x2, zf_precode

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
        h = h[phy._ia_accepts(h)]
        stacked = phy._ia_solution(h, power=1e3)
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
        """One draw's delivery time, one fragment after another."""
        num_users, num_ens = h.shape
        total_uses = 0.0
        for user in range(1, num_users + 1):
            for frag, en in assignment.fragments_for_user(user):
                if en is None:
                    en = (user - 1) % num_ens + 1
                rate = math.log2(1.0 + h[user - 1, en - 1] ** 2 * power)
                total_uses += frag.num_bits / rate
        return total_uses / file_bits

    # np.log2 and math.log2 disagree most often just above 1, so low SNRs
    # get their own share of the examples
    @settings(max_examples=100)
    @given(st.integers(1, 4), st.integers(1, 4),
           st.sampled_from(["split", "full", "shared"]), st.integers(1, 8),
           st.one_of(st.floats(-40.0, 10.0), st.floats(10.0, MAX_SNR_DB)),
           st.integers(0, 2 ** 32 - 1))
    def test_stacked_delivery_matches_the_fragment_loop(
            self, m, k, placement, draws, snr, seed):
        mu = {"split": F(1, m), "full": F(1),
              "shared": F(1, m) + (1 - F(1, m)) / 3}[placement]
        cfg, alloc, dem = setup_scheme(Scheme.TDMA, mu=mu, m=m, k=k, n=k + 1)
        assignment = assignment_for_demand(alloc, dem)
        h = np.random.default_rng(seed).standard_normal((draws, k, m))
        power = snr_db_to_power(snr)
        stacked = tdma_delivery(h, assignment, cfg.file_bits, power)
        assert [float(d).hex() for d in stacked] == [
            self.fragment_loop(one, assignment, cfg.file_bits, power).hex()
            for one in h]

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
        alpha = float(alloc_h.alpha)
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
    # later trial of the same point does not
    MIXED_SNR_DB = {Scheme.ZERO_FORCING: -139.0, Scheme.IA_XCHANNEL_2X2: -153.0,
                    Scheme.TDMA: -146.0, Scheme.HYBRID_SHARE: -139.0}

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_zero_sum_rate_is_a_singular_channel(self, scheme):
        # at -400 dB every log2(1 + SINR) rounds to 0: no bit gets through
        cfg, alloc, dem = setup_scheme(scheme)
        with pytest.raises(SingularChannelError):
            run_trial(cfg, alloc, scheme, dem, -400.0, seed=3)
        # a campaign raises its first failing trial's error: at -400 dB
        # that of its second point's first trial, at the mixed SNR that of
        # a later trial of the point's batch
        mixed = self.MIXED_SNR_DB[scheme]
        run_trial(cfg, alloc, scheme, dem, mixed, seed=trial_seed(3, 0))
        for grid, per_snr in ([20.0, -400.0, 40.0], 4), ([mixed], 12):
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
        built, substream = [], phy._substream

        def recording(seed, index):
            built.append(index)
            return substream(seed, index)

        monkeypatch.setattr(phy, "_substream", recording)
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


class Spoiling:
    """A generator whose first `times` draws come out spoiled by `spoil`."""

    def __init__(self, rng, times, spoil):
        self.rng, self.times, self.spoil = rng, times, spoil
        self.draws = []

    def standard_normal(self, shape):
        h = self.rng.standard_normal(shape)
        if len(self.draws) < self.times:
            h = self.spoil(h)
        self.draws.append(h)
        return h


class TestSolveDraw:
    """The one-trial redraw loop, with the acceptance tests the batch uses."""

    # a draw `ia_beamformers` refuses with each error
    SPOILERS = {SingularChannelError: zero_coefficient,
                AlignmentDegeneracyError: constant_slots}

    @pytest.mark.parametrize("error", [SingularChannelError,
                                       AlignmentDegeneracyError])
    @pytest.mark.parametrize("times", [0, 1, 3, MAX_RESAMPLES])
    def test_redraws_with_the_rng_of_n_plus_one_draws(self, times, error):
        seen = []

        def accepts(h):
            seen.append(h)
            return phy._ia_accepts(h)

        rng = np.random.default_rng(17)
        spoiling = Spoiling(rng, times, self.SPOILERS[error])
        h = _solve_draw(spoiling, (3, 2, 2), accepts)
        reference = np.random.default_rng(17)
        draws = [reference.standard_normal((3, 2, 2))
                 for _ in range(times + 1)]
        assert len(spoiling.draws) == len(seen) == times + 1
        np.testing.assert_array_equal(h, draws[-1])
        for drawn, checked in zip(spoiling.draws, seen):
            assert drawn is checked
        # the acceptance test rejects exactly what the checked API refuses
        for spoiled in spoiling.draws[:-1]:
            with pytest.raises(SingularChannelError) as refused:
                ia_beamformers(spoiled, 9.0)
            assert refused.type is error
        # the generator is left where n + 1 draws leave it
        assert rng.standard_normal() == reference.standard_normal()

    def test_gives_up_after_max_resamples(self):
        seen = []

        def never(h):
            seen.append(h)
            return False

        with pytest.raises(SingularChannelError, match="resamples"):
            _solve_draw(np.random.default_rng(0), (2, 2), never)
        assert len(seen) == MAX_RESAMPLES + 1

    def test_other_errors_propagate_without_redraw(self):
        seen = []

        def broken(h):
            seen.append(h)
            raise ArgumentError("broken acceptance test")

        with pytest.raises(ArgumentError):
            _solve_draw(np.random.default_rng(0), (2, 2), broken)
        assert len(seen) == 1

    def test_no_acceptance_test_takes_exactly_one_draw(self):
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        h = _solve_draw(rng, (2, 3), None)
        np.testing.assert_array_equal(h, reference.standard_normal((2, 3)))
        assert rng.standard_normal() == reference.standard_normal()


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


def batched(cfg, alloc, scheme, dem, grid, per_snr, master):
    """`run_campaign` with `phy.run_trial` patched to raise.

    Each SNR point runs as one batch; no trial runs alone.
    """
    def alone(*args, **kw):
        raise AssertionError("the campaign ran a trial through run_trial")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phy, "run_trial", alone)
        points = run_campaign(cfg, alloc, scheme, dem, grid, per_snr, master)
    assert [len(p.seeds) for p in points] == [per_snr] * len(grid)
    return points


def trial_by_trial(cfg, alloc, scheme, dem, grid, per_snr, master):
    return [run_trial(cfg, alloc, scheme, dem, snr,
                      trial_seed(master, si * per_snr + ti))
            for si, snr in enumerate(grid) for ti in range(per_snr)]


# the low band fails trials at random positions and points: dead TDMA links
# and zero sum rates
snr_grids = st.lists(
    st.one_of(st.just(MAX_SNR_DB),
              st.floats(-20.0, MAX_SNR_DB, allow_nan=False),
              st.floats(-160.0, -130.0)),
    min_size=1, max_size=3, unique=True)
campaigns = st.tuples(snr_grids, st.integers(1, 6),
                      st.integers(0, 2 ** 200))


class TestBatchedCampaign:
    """The batched campaign against `run_trial`, the one-trial reference."""

    @staticmethod
    def assert_matches_trials(scheme, setup, campaign):
        grid, per_snr, master = campaign
        cfg, alloc, dem = setup
        assert outcome(lambda: batched(cfg, alloc, scheme, dem, grid,
                                       per_snr, master)) == outcome(
            lambda: trial_by_trial(cfg, alloc, scheme, dem, grid, per_snr,
                                   master))

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
        mu = {"split": F(1, m), "full": F(1),
              "shared": F(1, m) + (1 - F(1, m)) / 3}[placement]
        setup = setup_scheme(Scheme.TDMA, mu=mu, m=m, k=k, n=k + 1)
        self.assert_matches_trials(Scheme.TDMA, setup, campaign)


def reject_first_draws(monkeypatch, predicate, index, shape, rejections):
    """Make `phy.<predicate>` reject each chosen seed's first n draws.

    `rejections` maps a trial seed to n; the patched test is the one both
    `_solve_draw`'s solvers and the batch call, for one draw or a stack.
    """
    original = getattr(phy, predicate)
    rejected = set()
    for seed, n in rejections.items():
        rng = phy._substream(seed, index)
        rejected |= {rng.standard_normal(shape).tobytes() for _ in range(n)}

    def patched(h):
        draws = h.reshape((-1,) + shape)
        hit = np.array([d.tobytes() in rejected for d in draws])
        return original(h) & ~hit.reshape(h.shape[:h.ndim - len(shape)])

    monkeypatch.setattr(phy, predicate, patched)


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
        assert outcome(lambda: batched(*args)) == expected


# word-count edges of numpy's entropy: 1, 2, 3, 4 and 5+ uint32 words
EDGE_MASTERS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
                2 ** 96 - 1, 2 ** 96, 2 ** 128, 2 ** 256]
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


class TestBulkSeeding:
    """The array pass that seeds a point's trials, against numpy's objects."""

    @pytest.mark.parametrize("master", EDGE_MASTERS)
    @pytest.mark.parametrize("start,count", [(0, 3), (2 ** 32 - 2, 4),
                                             (2 ** 32, 2), (2 ** 40, 1)])
    def test_trial_seeds_at_word_edges(self, master, start, count):
        assert trial_seeds(master, start, count) == [
            trial_seed(master, i) for i in range(start, start + count)]

    @settings(max_examples=60)
    @given(st.one_of(st.sampled_from(EDGE_MASTERS), st.integers(0, 2 ** 256)),
           st.one_of(st.integers(0, 2 ** 48),
                     st.integers(2 ** 32 - 12, 2 ** 32 + 12)),
           st.integers(0, 12))
    def test_trial_seeds_equal_numpys(self, master, start, count):
        assert trial_seeds(master, start, count) == [
            trial_seed(master, i) for i in range(start, start + count)]

    @settings(max_examples=40)
    @given(st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                              st.integers(0, 2 ** 64 - 1)),
                    min_size=1, max_size=8),
           st.sampled_from([0, 1]),
           st.sampled_from([(2, 2), (3, 4), (EXTENSION_SLOTS, 2, 2)]))
    def test_first_draws_equal_numpys(self, seeds, index, shape):
        draws = phy._first_draws(seeds, index, shape)
        assert draws.shape == (len(seeds),) + shape
        for seed, draw in zip(seeds, draws):
            expected = phy._substream(seed, index).standard_normal(shape)
            assert draw.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("index", [0, 1])
    def test_pcg64_states_at_word_edges(self, index):
        assert phy._pcg64_states(EDGE_SEEDS, index) == [
            tuple(phy._substream(seed, index).bit_generator.state["state"]
                  .values())
            for seed in EDGE_SEEDS]

    def test_a_wrong_trial_seed_fails_loudly(self, monkeypatch):
        bulk = phy.trial_seeds

        def second_point_off(master, start, count):
            seeds = bulk(master, start, count)
            seeds[4] ^= 1  # the second SNR point's first trial
            return seeds

        monkeypatch.setattr(phy, "trial_seeds", second_point_off)
        cfg, alloc, dem = setup_scheme(Scheme.ZERO_FORCING)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            run_campaign(cfg, alloc, Scheme.ZERO_FORCING, dem, SNR_GRID, 4, 0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("field", [0, 1])  # PCG64 state, increment
    def test_a_wrong_pcg64_state_fails_loudly(self, monkeypatch, scheme, field):
        bulk = phy._pcg64_states

        def first_off(seeds, index):
            states = bulk(seeds, index)
            wrong = list(states[0])
            wrong[field] ^= 2
            return [tuple(wrong)] + states[1:]

        monkeypatch.setattr(phy, "_pcg64_states", first_off)
        cfg, alloc, dem = setup_scheme(scheme)
        with pytest.raises(RuntimeError, match="PCG64"):
            run_campaign(cfg, alloc, scheme, dem, SNR_GRID, 4, 0)


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
