"""Aggregate construction and the three stream segmenters."""

import math
import random

import numpy as np
import pytest

from alertsynth.action_space import Action, ConfigError
from alertsynth.aggregation import (ControlChartSegmenter, GaussianSegmenter,
                                    ThresholdSegmenter, build_aggregate,
                                    gaussian_smooth, ks_critical, ks_statistic,
                                    make_segmenter)
from oracles import (controlchart_boundaries_ref, gaussian_smooth_ref,
                     ks_critical_ref, ks_stat_ref, pmf_by_counting)

CARDS = (12, 45, 21, 10)


def mk(ts_s, seq=0, ais=0, service=0, maneuver=0, timebin=0, stream="s"):
    return Action(ais=ais, service=service, maneuver=maneuver, timebin=timebin,
                  ts=int(ts_s * 1e6), stream_id=stream, raw_seq=seq)


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

    def test_metadata(self):
        actions = [mk(5.0, seq=3), mk(1.0, seq=9), mk(2.0, seq=4)]
        agg = build_aggregate(actions, CARDS)
        assert agg.n == 3
        assert agg.t_start == 1_000_000
        assert agg.t_end == 5_000_000
        assert agg.stream_id == "s"
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
        assert seg.feed(mk(600), 600.0) == []          # equal stays
        closed = seg.feed(mk(1300), 600.1)
        assert len(closed) == 1 and len(closed[0]) == 2
        assert seg.flush() == [[mk(1300)]]

    def test_flush_returns_open_run_once(self):
        seg = ThresholdSegmenter(tau=10.0)
        seg.feed(mk(0, seq=0), None)
        seg.feed(mk(1, seq=1), 1.0)
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
            batches.extend(seg.feed(mk(ts, seq=i), gap))
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
                seg.feed(mk(base + i * 0.5, seq=k), None if k == 0 else 0.5)
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
                emitted.extend(seg.feed(mk(base + i * 0.1, seq=k), 0.1))
                k += 1
        emitted.extend(seg.feed(mk(2200.0, seq=k), 1300.0))
        assert [len(e) for e in emitted] == [10]
        assert [a.raw_seq for a in emitted[0]] == list(range(10))
        tail = seg.flush()
        assert [len(e) for e in tail] == [10, 1]

    def test_shallow_valley_stays_single(self):
        seg = GaussianSegmenter(**self.kwargs())
        seq = 0
        for b, per_bin in enumerate((5, 4, 3, 4, 5)):
            for i in range(per_bin):
                seg.feed(mk(b * 60.0 + i * 60.0 / per_bin, seq=seq), 1.0)
                seq += 1
        episodes = seg.flush()
        assert [len(e) for e in episodes] == [21]

    def test_single_action(self):
        seg = GaussianSegmenter(**self.kwargs())
        seg.feed(mk(0.0), None)
        assert [len(e) for e in seg.flush()] == [1]


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
        if seg.feed(mk(ts, seq=k + 1), g):
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
        seg.feed(mk(1, seq=1), 1.0)
        out = seg.flush()
        assert len(out) == 1 and [a.raw_seq for a in out[0]] == [0, 1]
        assert seg.flush() == []


class TestMakeSegmenter:
    def kwargs(self):
        return dict(tau=600.0, bin_width=60.0, sigma_bins=3.0, valley_frac=0.5,
                    window_n=20, ks_alpha=0.01, window=21600.0)

    def test_kinds(self):
        assert isinstance(make_segmenter("threshold", **self.kwargs()),
                          ThresholdSegmenter)
        assert isinstance(make_segmenter("gaussian", **self.kwargs()),
                          GaussianSegmenter)
        assert isinstance(make_segmenter("controlchart", **self.kwargs()),
                          ControlChartSegmenter)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_segmenter("fourier", **self.kwargs())
