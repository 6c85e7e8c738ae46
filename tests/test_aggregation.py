"""Aggregate construction and the three stream segmenters."""

import math
import random

import numpy as np
import pytest

from alertsynth import RunConfig, aggregation
from alertsynth.action_space import Action, ConfigError
from alertsynth.aggregation import (FAR_US, SEGMENTERS, ControlChartSegmenter,
                                    GaussianSegmenter, ThresholdSegmenter,
                                    build_aggregate, gaussian_smooth,
                                    ks_critical, ks_statistic,
                                    longest_quiet_us)
from alertsynth.synthesis import support_bits
from oracles import (controlchart_boundaries_ref, gaussian_smooth_ref,
                     ks_critical_ref, ks_stat_ref, pmf_by_counting)

CARDS = (12, 45, 21, 10)


def mk(ts_s, seq=0, ais=0, service=0, maneuver=0, timebin=0, stream="s"):
    return Action(ais=ais, service=service, maneuver=maneuver, timebin=timebin,
                  ts=int(ts_s * 1e6), stream_id=stream, raw_seq=seq)


def us(gap_s):
    """A gap in seconds as the whole microseconds feed takes."""
    return None if gap_s is None else round(gap_s * 1e6)


def random_actions(rng, n):
    return [mk(ts_s=rng.random() * 1000, seq=i, ais=rng.randrange(CARDS[0]),
               service=rng.randrange(CARDS[1]), maneuver=rng.randrange(CARDS[2]),
               timebin=rng.randrange(CARDS[3])) for i in range(n)]


class TestBuildAggregate:
    def test_matches_counting_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            actions = random_actions(rng, rng.randint(1, 40))
            agg = build_aggregate(actions, CARDS)
            parts = []
            for pmf, field, card in zip(agg.pmfs,
                                        ("ais", "service", "maneuver", "timebin"),
                                        CARDS):
                values = [getattr(a, field) for a in actions]
                expected = pmf_by_counting(values, card)
                assert np.allclose(pmf, expected, atol=1e-12)
                assert abs(pmf.sum() - 1.0) < 1e-12
                assert np.shares_memory(pmf, agg.vec)
                parts.append(np.bincount(values, minlength=card) / len(actions))
            # one bincount over offset values equals one per component
            assert np.array_equal(agg.vec, np.concatenate(parts))

    def test_support_is_the_bitset_of_nonzero_columns(self):
        """The support build_aggregate takes from the column indices is the
        bitset the model set would take from the vector."""
        rng = random.Random(11)
        for _ in range(200):
            agg = build_aggregate(random_actions(rng, rng.randint(1, 40)), CARDS)
            assert agg.support == support_bits(agg.vec)

    def test_metadata(self):
        actions = [mk(5.0, seq=3), mk(1.0, seq=9), mk(2.0, seq=4)]
        agg = build_aggregate(actions, CARDS)
        assert agg.n == 3
        assert agg.t_end == 5_000_000
        assert agg.raw_seqs == [3, 9, 4]

    def test_single_category_is_indicator(self):
        actions = [mk(0, ais=10), mk(1, ais=10)]
        pmf = build_aggregate(actions, CARDS).pmfs[0]
        assert pmf[10] == 1.0 and pmf.sum() == 1.0

    def test_two_thirds_one_third_split(self):
        actions = [mk(0, service=7), mk(1, service=7), mk(2, service=3)]
        pmf = build_aggregate(actions, CARDS).pmfs[1]
        assert pmf[7] == pytest.approx(2 / 3) and pmf[3] == pytest.approx(1 / 3)

    def test_uniform_over_distinct_bins(self):
        actions = [mk(i, timebin=i) for i in range(4)]
        pmf = build_aggregate(actions, CARDS).pmfs[3]
        assert all(pmf[i] == 0.25 for i in range(4))

    def test_empty_is_contract_violation(self):
        with pytest.raises(AssertionError):
            build_aggregate([], CARDS)


class TestThresholdSegmenter:
    def test_strictly_greater_than_tau_closes(self):
        seg = ThresholdSegmenter(tau=600.0)
        assert seg.feed(mk(0), None) == []
        assert seg.feed(mk(600), 600_000_000) == []    # equal stays
        closed = seg.feed(mk(1300), 600_100_000)
        assert len(closed) == 1 and len(closed[0]) == 2
        assert seg.flush() == [[mk(1300)]]

    def test_flush_returns_open_run_once(self):
        seg = ThresholdSegmenter(tau=10.0)
        seg.feed(mk(0, seq=0), None)
        seg.feed(mk(1, seq=1), 1_000_000)
        out = seg.flush()
        assert len(out) == 1 and [a.raw_seq for a in out[0]] == [0, 1]
        assert seg.flush() == []

    def test_partition_property(self):
        rng = random.Random(11)
        seg = ThresholdSegmenter(tau=5.0)
        ts = 0.0
        batches = []
        seqs = []
        for i in range(200):
            gap = None if i == 0 else rng.random() * 12
            ts += gap or 0.0
            seqs.append(i)
            batches.extend(seg.feed(mk(ts, seq=i), us(gap)))
        batches.extend(seg.flush())
        seen = [a.raw_seq for b in batches for a in b]
        assert seen == seqs
        for batch in batches:
            gaps = [(b.ts - a.ts) / 1e6 for a, b in zip(batch, batch[1:])]
            assert all(g <= 5.0 + 1e-9 for g in gaps)


class TestGaussianSmooth:
    def test_matches_scipy_including_short_inputs(self):
        rng = np.random.default_rng(3)
        for length in (5, 10, 17, 24, 25, 26, 60):
            for sigma in (1.5, 3.0):
                counts = rng.integers(0, 30, size=length)
                ours = gaussian_smooth(counts, sigma)
                ref = gaussian_smooth_ref(counts, sigma)
                assert ours.shape == ref.shape
                assert np.allclose(ours, ref, atol=1e-9)


class TestGaussianSegmenter:
    def kwargs(self, window=21600.0):
        return dict(bin_width=60.0, sigma_bins=3.0, valley_frac=0.5,
                    window=window)

    def test_two_bursts_split_at_flush(self):
        seg = GaussianSegmenter(**self.kwargs())
        k = 0
        for base in (0.0, 1000.0):
            for i in range(20):
                seg.feed(mk(base + i * 0.5, seq=k), None if k == 0 else 500_000)
                k += 1
        episodes = seg.flush()
        assert [len(e) for e in episodes] == [20, 20]
        assert episodes[0][-1].ts < episodes[1][0].ts

    def test_window_overflow_emits_all_but_newest(self):
        seg = GaussianSegmenter(**self.kwargs(window=1200.0))
        emitted = []
        k = 0
        for base in (0.0, 900.0):
            for i in range(10):
                emitted.extend(seg.feed(mk(base + i * 0.1, seq=k), 100_000))
                k += 1
        emitted.extend(seg.feed(mk(2200.0, seq=k), 1_300_000_000))
        assert [len(e) for e in emitted] == [10]
        assert [a.raw_seq for a in emitted[0]] == list(range(10))
        tail = seg.flush()
        assert [len(e) for e in tail] == [10, 1]

    def test_window_overflow_without_valley_emits_whole_buffer(self):
        # an even buffer has no valley: past the window it leaves as one
        # episode and the buffer restarts with the overflowing action
        seg = GaussianSegmenter(**self.kwargs(window=600.0))
        emitted = []
        for k in range(61):
            emitted.extend(seg.feed(mk(k * 10.0, seq=k), 10_000_000))
        assert emitted == []
        emitted = seg.feed(mk(700.0, seq=61), 100_000_000)
        assert [[a.raw_seq for a in e] for e in emitted] == [list(range(61))]
        assert [[a.raw_seq for a in e] for e in seg.flush()] == [[61]]

    def test_shallow_valley_stays_single(self):
        seg = GaussianSegmenter(**self.kwargs())
        seq = 0
        for b, per_bin in enumerate((5, 4, 3, 4, 5)):
            for i in range(per_bin):
                seg.feed(mk(b * 60.0 + i * 60.0 / per_bin, seq=seq), 1_000_000)
                seq += 1
        episodes = seg.flush()
        assert [len(e) for e in episodes] == [21]

    @pytest.mark.parametrize("silence_us,over", [(8_200_000, False),
                                                 (8_200_001, True)])
    def test_window_is_whole_microseconds(self, silence_us, over):
        """A window of 8.2 s is 8,200,000 us (8.2 * 1e6 truncates to
        8,199,999): a span or a lateness of that many us is not over the
        window, one us more is, and the horizon adds the same integer."""
        for first, second in ((0, silence_us), (silence_us, 0)):
            seg = GaussianSegmenter(**self.kwargs(window=8.2))
            seg.feed(at_us(first), None)
            assert seg.horizon(first) == first + 8_200_000
            closed = seg.feed(at_us(second, 1), max(second - first, 0))
            assert closed == ([[at_us(first)]] if over else [])

    @pytest.mark.parametrize("bin_width,unit_us", [(1.0, 1_000_000),
                                                   (0.1, 100_000)])
    def test_bins_are_whole_microseconds(self, bin_width, unit_us):
        """A feed scaled with its bin width splits the same: 0.1 s bins are
        100,000 us, so the actions at 0.3, 0.6 and 0.7 s fall in bins 3, 6
        and 7 (0.3 // 0.1 is 2.0 in floats)."""
        seg = GaussianSegmenter(bin_width=bin_width, sigma_bins=0.5,
                                valley_frac=1.0, window=3600.0)
        for k, units in enumerate([4, 7, 16, 24, 28, 30, 31, 36]):
            seg.feed(at_us(units * unit_us, k), None if k == 0 else unit_us)
        assert [[a.raw_seq for a in e] for e in seg.flush()] == [
            [0], [1], [2], [3], [4], [5, 6], [7]]

    def test_single_action(self):
        seg = GaussianSegmenter(**self.kwargs())
        seg.feed(mk(0.0), None)
        assert [len(e) for e in seg.flush()] == [1]

    def test_far_late_actions_close_the_buffer_first(self, monkeypatch):
        """A line a year late and one from year 1 each close the open
        buffer and start their own; two bursts a year behind, then a
        current line, keep the newest burst beside that line.  No
        extraction bins more than the window's worth of cells."""
        binned = []

        def spy(counts, sigma_bins):
            binned.append(len(counts))
            return gaussian_smooth(counts, sigma_bins)

        monkeypatch.setattr(aggregation, "gaussian_smooth", spy)
        seg = GaussianSegmenter(**self.kwargs())
        t0 = 1_740_873_600.0                    # 2025-03-02
        year_1 = -62_135_596_799.0
        year = 365 * 86400.0
        stamps = [t0, t0 + 1, t0 + 2, t0 - year, year_1, year_1 + 1, t0 + 3,
                  t0 - year, t0 - year + 1, t0 - year + 3600, t0 + 4, t0 + 5]
        emitted = []
        for k, ts in enumerate(stamps):
            emitted.extend(seg.feed(mk(ts, seq=k), None if k == 0 else 1_000_000))
        emitted.extend(seg.flush())
        assert [[a.raw_seq for a in e] for e in emitted] == [
            [0, 1, 2], [3], [4, 5], [6], [7, 8], [9], [10, 11]]
        assert binned and max(binned) <= seg.window_us // seg.bin_us + 1

    @pytest.mark.parametrize("sigma_bins", [0.5, 3.0, 12.0])
    def test_long_silences_cut_as_when_binned_in_full(self, sigma_bins):
        """Shortening silences out of the kernel's reach gives the episodes
        that binning the buffer's whole span gives."""
        seg = GaussianSegmenter(bin_width=60.0, sigma_bins=sigma_bins,
                                valley_frac=0.5, window=21600.0)

        def full_span_episodes(actions):
            ts = np.array([a.ts for a in actions], dtype=np.int64)
            bins = (ts - ts.min()) // seg.bin_us
            cuts = seg._valleys(gaussian_smooth(np.bincount(bins), sigma_bins))
            episodes = [[] for _ in range(len(cuts) + 1)]
            for action, ep in zip(actions, np.searchsorted(cuts, bins)):
                episodes[ep].append(action)
            return [ep for ep in episodes if ep]

        rng = random.Random(11)
        for _ in range(200):
            t, actions = 0.0, []
            for k in range(rng.randint(1, 40)):
                actions.append(mk(t, seq=k))
                t += rng.choice([rng.random() * 120, rng.random() * 3600,
                                 rng.random() * 86400])
            rng.shuffle(actions)
            assert seg._extract(actions) == full_span_episodes(actions)


class TestKolmogorovSmirnov:
    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.lognormal(0.0, 1.0, size=rng.integers(5, 40))
            y = rng.lognormal(0.5, 1.2, size=rng.integers(5, 40))
            assert ks_statistic(x, y) == pytest.approx(ks_stat_ref(x, y),
                                                       abs=1e-12)

    def test_statistic_with_ties(self):
        x = [1.0, 1.0, 2.0, 3.0]
        y = [1.0, 2.0, 2.0, 2.0]
        assert ks_statistic(x, y) == pytest.approx(ks_stat_ref(x, y), abs=1e-12)

    def test_critical_value(self):
        assert ks_critical(0.01, 20, 80) == pytest.approx(0.406905907, abs=1e-6)
        assert ks_critical(0.01, 20, 80) == pytest.approx(
            ks_critical_ref(0.01, 20, 80), abs=1e-12)
        assert ks_critical(0.05, 30, 30) == pytest.approx(
            ks_critical_ref(0.05, 30, 30), abs=1e-12)


def replay_controlchart(gaps, window_n=20, ks_alpha=0.01):
    """Feed a gap sequence through the segmenter; return closing gap indices."""
    seg = ControlChartSegmenter(window_n=window_n, ks_alpha=ks_alpha)
    ts = 0.0
    boundaries = []
    seg.feed(mk(ts, seq=0), None)
    for k, g in enumerate(gaps):
        ts += g
        if seg.feed(mk(ts, seq=k + 1), us(g)):
            boundaries.append(k)
    return boundaries


def regime_shift_gaps(seed, n_small=100, n_big=60):
    rng = random.Random(seed)
    small = [math.exp(rng.gauss(0.0, 0.3)) for _ in range(n_small)]
    big = [1000.0 * math.exp(rng.gauss(0.0, 0.3)) for _ in range(n_big)]
    return small + big


class TestControlChartSegmenter:
    def test_replay_matches_offline_oracle(self):
        for seed in (1, 2, 9):
            gaps = regime_shift_gaps(seed)
            assert replay_controlchart(gaps) == controlchart_boundaries_ref(
                gaps, 20, 0.01)

    def test_replay_matches_oracle_on_iid(self):
        rng = random.Random(4)
        gaps = [math.exp(rng.gauss(0.0, 0.5)) for _ in range(300)]
        assert replay_controlchart(gaps) == controlchart_boundaries_ref(
            gaps, 20, 0.01)

    def test_level_shift_caught_within_twenty_gaps(self):
        boundaries = replay_controlchart(regime_shift_gaps(1))
        assert boundaries, "no boundary found after the rate change"
        assert not [b for b in boundaries if b < 100]
        assert 100 <= boundaries[0] <= 120

    def test_iid_false_alarms_are_rare(self):
        alarms = 0
        for seed in range(300):
            rng = random.Random(10_000 + seed)
            gaps = [math.exp(rng.gauss(0.0, 0.3)) for _ in range(150)]
            if replay_controlchart(gaps):
                alarms += 1
        assert alarms / 300 <= 0.02

    def test_fewer_than_window_never_splits(self):
        gaps = [1.0] * 10 + [1e6]
        assert replay_controlchart(gaps) == []

    def test_flush(self):
        seg = ControlChartSegmenter(window_n=20, ks_alpha=0.01)
        seg.feed(mk(0, seq=0), None)
        seg.feed(mk(1, seq=1), 1_000_000)
        out = seg.flush()
        assert len(out) == 1 and [a.raw_seq for a in out[0]] == [0, 1]
        assert seg.flush() == []


def at_us(us, seq=0):
    return Action(ais=0, service=0, maneuver=0, timebin=0, ts=us,
                  stream_id="s", raw_seq=seq)


def replayed(make, history):
    """A fresh segmenter fed history, a list of (action, elapsed_us)."""
    seg = make()
    for action, elapsed_us in history:
        seg.feed(action, elapsed_us)
    return seg


class TestHorizons:
    """horizon(last_ts): the event time past which the open buffer counts
    as closed; for threshold and control chart any later alert cuts."""

    def test_threshold_is_last_plus_tau(self):
        seg = ThresholdSegmenter(tau=600.0)
        assert seg.horizon(0) is None
        seg.feed(at_us(5_000_000), None)
        assert seg.horizon(5_000_000) == 605_000_000
        # stream-level: the tracker's last_ts, not the buffer's, is passed
        assert seg.horizon(9_000_000) == 609_000_000
        seg.flush()
        assert seg.horizon(5_000_000) is None

    @pytest.mark.parametrize("tau", [1e-6, 1 / 3, 0.1234567, 8.2, 599.9999995,
                                     600.0, 86400.1])
    def test_threshold_horizon_is_the_edge_of_the_cut(self, tau):
        history = [(at_us(0), None)]
        h = replayed(lambda: ThresholdSegmenter(tau), history).horizon(0)
        at = replayed(lambda: ThresholdSegmenter(tau), history)
        past = replayed(lambda: ThresholdSegmenter(tau), history)
        assert at.feed(at_us(h, 1), h) == []
        assert past.feed(at_us(h + 1, 1), h + 1) == [[at_us(0)]]

    def test_gaussian_is_last_plus_window(self):
        seg = GaussianSegmenter(bin_width=60.0, sigma_bins=3.0,
                                valley_frac=0.5, window=3600.0)
        assert seg.horizon(0) is None
        seg.feed(at_us(0), None)
        seg.feed(at_us(30_000_000), 30_000_000)
        assert seg.horizon(30_000_000) == 3_630_000_000
        seg.flush()
        assert seg.horizon(30_000_000) is None

    def test_controlchart_none_before_window_n_gaps(self):
        seg = ControlChartSegmenter(window_n=4, ks_alpha=0.9)
        assert seg.horizon(0) is None
        seg.feed(at_us(0), None)
        ts = 0
        # the recent window (three 1 s gaps and a new largest one) against
        # the 8 s gap before it: D = 3/4 over the critical value 0.71
        for k, gap in enumerate([8.0, 1.0, 1.0]):
            ts += int(gap * 1e6)
            seg.feed(at_us(ts, k + 1), int(gap * 1e6))
            assert seg.horizon(ts) is None
        ts += 1_000_000
        seg.feed(at_us(ts, 4), 1_000_000)
        assert seg.horizon(ts) is not None

    def test_controlchart_none_when_ks_would_not_confirm(self):
        # equal gaps: a largest new gap moves the KS statistic by 1/window_n
        # only, under the critical value, so no silence decides a cut
        seg = ControlChartSegmenter(window_n=20, ks_alpha=0.01)
        seg.feed(at_us(0), None)
        for k in range(1, 60):
            seg.feed(at_us(k * 1_000_000, k), 1_000_000)
        assert seg.horizon(59_000_000) is None
        assert seg.feed(at_us(10**15, 60), 10**15) == []

    def test_controlchart_any_alert_past_the_horizon_cuts(self):
        make = lambda: ControlChartSegmenter(window_n=4, ks_alpha=0.9)
        seen = 0
        for seed in range(8):
            rng = random.Random(seed)
            history, last = [(at_us(0), None)], 0
            seg = make()
            seg.feed(*history[0])
            for k in range(1, 60):
                h = seg.horizon(last)
                if h is not None:
                    seen += 1
                    assert h >= last
                    for t in (h + 1, h + 1 + rng.randrange(10**9)):
                        cut = replayed(make, history).feed(
                            at_us(t, -1), t - last)
                        assert len(cut) == 1
                gap_us = int(rng.lognormvariate(0.0, 1.5) * 1e6)
                last += gap_us
                history.append((at_us(last, k), gap_us))
                seg.feed(*history[-1])
        assert seen > 100

    def test_longest_quiet_finds_the_edge(self):
        for edge in (0, 1, 7, 10**6, 10**12, FAR_US - 1):
            assert longest_quiet_us(lambda d: d <= edge) == edge
        assert longest_quiet_us(lambda d: d <= FAR_US) is None


class TestMakeSegmenter:
    def test_kinds(self):
        config = RunConfig()
        assert isinstance(SEGMENTERS["threshold"](config), ThresholdSegmenter)
        assert isinstance(SEGMENTERS["gaussian"](config), GaussianSegmenter)
        assert isinstance(SEGMENTERS["controlchart"](config),
                          ControlChartSegmenter)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            RunConfig(segmenter="fourier")
