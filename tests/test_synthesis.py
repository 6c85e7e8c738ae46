"""Distances, decay, admission, merging, retirement, characteristics."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alertsynth.action_space import Action, ConfigError, WeightConfig
from alertsynth.aggregation import build_aggregate
from alertsynth.synthesis import (AttackModel, ModelSet, SynthConfig,
                                  admission_bound, create_model, cross_entropy,
                                  decay, effective_evidence, jsd,
                                  jsd_component, kl_divergence, model_distance,
                                  smoothed_pmf, smoothed_rows, update_model)
from oracles import (admission_bound_ref, cross_entropy_ref, decay_ref,
                     jsd_component_ref, kl_ref, model_distance_ref,
                     model_jsd_ref, smoothed_ref)

CARDS = (12, 45, 21, 10)
VOCABS = [tuple(f"v{i}" for i in range(c)) for c in CARDS]
EPS = 1e-6


def mk(ts_s, seq=0, ais=0, service=0, maneuver=0, timebin=0, stream="s"):
    return Action(ais=ais, service=service, maneuver=maneuver, timebin=timebin,
                  ts=int(ts_s * 1e6), stream_id=stream, raw_seq=seq)


def make_agg(ais_vals, service_vals=None, maneuver_vals=None,
             timebin_vals=None, ts=0.0):
    n = len(ais_vals)
    service_vals = service_vals or [0] * n
    maneuver_vals = maneuver_vals or [0] * n
    timebin_vals = timebin_vals or [0] * n
    actions = [mk(ts + i * 1e-3, seq=i, ais=a, service=s, maneuver=m,
                  timebin=t)
               for i, (a, s, m, t) in enumerate(zip(ais_vals, service_vals,
                                                    maneuver_vals,
                                                    timebin_vals))]
    return build_aggregate(actions, CARDS)


def random_pmf(rng, card, sparse=False):
    p = rng.random(card) + 1e-3
    if sparse:
        p[rng.random(card) < 0.4] = 0.0
        if p.sum() == 0:
            p[0] = 1.0
    return p / p.sum()


def nearby_agg(rng, now):
    """Aggregate over a few neighbouring values, so that models merge."""
    n = rng.randint(1, 12)
    base = rng.randrange(12)
    return make_agg([(base + rng.randrange(3)) % 12 for _ in range(n)],
                    [rng.randrange(4) for _ in range(n)],
                    [rng.randrange(3) for _ in range(n)],
                    [rng.randrange(3) for _ in range(n)], ts=now / 1e6)


def fresh_set(**overrides):
    cfg = SynthConfig(**overrides)
    return ModelSet(cfg, CARDS, VOCABS)


def assert_counts_are_matrix_views(ms, gone=()):
    """One counts row per live model, equal to its counts, which are views
    of the live matrix; models that left the set no longer alias it."""
    assert ms._counts.shape == (len(ms.models), sum(CARDS))
    for m, row in zip(ms.models, ms._counts):
        assert np.array_equal(row, np.concatenate(m.counts))
        assert all(np.shares_memory(c, ms._counts) for c in m.counts)
    for m in gone:
        assert not any(np.shares_memory(c, ms._counts) for c in m.counts)


class TestSynthConfig:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0}, {"gamma": 1.5}, {"gamma": math.nan},
        {"ewma_window": 0.0}, {"merge_threshold": -0.1},
        {"merge_threshold": 0.0}, {"retire_floor": 0.0},
        {"smoothing_eps": -1e-6},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)

    def test_gamma_one_is_legal(self):
        assert SynthConfig(gamma=1.0).gamma == 1.0


class TestSmoothedPmf:
    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            counts = rng.integers(0, 20, size=12).astype(float)
            if counts.sum() == 0:
                counts[3] = 1.0
            ours = smoothed_pmf(counts, EPS)
            assert np.allclose(ours, smoothed_ref(counts, EPS), atol=1e-12)
            assert abs(ours.sum() - 1.0) < 1e-12
            assert (ours > 0).all()

    def test_zero_vector_is_contract_violation(self):
        with pytest.raises(AssertionError):
            smoothed_pmf(np.zeros(4), EPS)


class TestDistances:
    def test_cross_entropy_frozen_value(self):
        h = cross_entropy(np.array([0.75, 0.25]), np.array([0.9, 0.1]))
        assert h == pytest.approx(0.6546666599918813, abs=1e-9)
        assert h == pytest.approx(
            cross_entropy_ref([0.75, 0.25], [0.9, 0.1]), abs=1e-12)

    def test_zero_p_cells_contribute_nothing(self):
        h = cross_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert h == pytest.approx(math.log(2.0), abs=1e-12)

    def test_gibbs_kl_and_jsd_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            card = int(rng.integers(2, 30))
            p = random_pmf(rng, card, sparse=bool(rng.integers(0, 2)))
            q = random_pmf(rng, card)
            assert cross_entropy(p, q) >= cross_entropy(p, p) - 1e-12
            assert kl_divergence(p, q) >= -1e-12
            d_pq = jsd_component(p, q)
            assert d_pq == pytest.approx(jsd_component(q, p), abs=1e-12)
            assert -1e-12 <= d_pq <= math.log(2.0) + 1e-12
            assert kl_divergence(p, q) == pytest.approx(kl_ref(p, q), abs=1e-9)
            assert d_pq == pytest.approx(jsd_component_ref(p, q), abs=1e-9)

    def test_jsd_of_identical_models_is_zero(self):
        agg = make_agg([2, 2, 5], [1, 1, 3])
        a = create_model(agg, 0, 0)
        b = create_model(agg, 0, 1)
        w = SynthConfig().weights
        assert jsd(a, b, w, EPS) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_one_hot_models(self):
        # ais carries 0.3 weight; every other component matches exactly
        a = create_model(make_agg([1] * 4), 0, 0)
        b = create_model(make_agg([7] * 4), 0, 1)
        w = SynthConfig().weights
        assert jsd(a, b, w, EPS) == pytest.approx(0.3 * math.log(2.0), abs=1e-4)

    def test_half_half_versus_one_hot(self):
        a = create_model(make_agg([1, 2]), 0, 0)
        b = create_model(make_agg([1, 1]), 0, 1)
        w = WeightConfig.normalized(1.0, 0.0, 0.0, 0.0)
        assert jsd(a, b, w, EPS) == pytest.approx(0.21576155, abs=2e-4)

    def test_model_distance_against_uniform_model(self):
        uniform = AttackModel(model_id=0,
                              counts=[np.ones(c, dtype=float) for c in CARDS],
                              evidence=float(CARDS[0]), created_at=0,
                              last_update_ts=0, last_decay_ts=0)
        w = WeightConfig.normalized(1.0, 0.0, 0.0, 0.0)
        agg = make_agg([0, 3, 3, 11])
        assert model_distance(agg, uniform, w, EPS) == pytest.approx(
            math.log(12.0), abs=1e-9)


class TestAdmissionBound:
    def test_single_component_closed_form(self):
        w = WeightConfig.normalized(1.0, 0.0, 0.0, 0.0)
        assert admission_bound(w, CARDS, 2 / 3) == pytest.approx(
            math.log(18.0), abs=1e-12)

    def test_default_configuration_value(self):
        b = admission_bound(SynthConfig().weights, CARDS, 2 / 3)
        assert b == pytest.approx(3.43655109, abs=1e-7)
        assert b == pytest.approx(
            admission_bound_ref(SynthConfig().weights.vector, CARDS, 2 / 3),
            abs=1e-12)

    def test_gamma_one_is_uniform_cross_entropy(self):
        w = SynthConfig().weights
        expected = sum(wi * math.log(c) for wi, c in zip(w.vector, CARDS))
        assert admission_bound(w, CARDS, 1.0) == pytest.approx(expected,
                                                               abs=1e-12)


class TestDecay:
    def model(self, evidence=100.0, t0=0):
        agg = make_agg([1] * 10)
        m = create_model(agg, t0, 0)
        factor = evidence / m.evidence
        for c in m.counts:
            c *= factor
        m.evidence = evidence
        return m

    def test_half_life_at_half_window(self):
        m = self.model(100.0)
        half = int(21600 / 2 * 1e6)
        decay(m, half, 21600.0)
        assert m.evidence == pytest.approx(50.0, abs=1e-9)
        decay(m, 2 * half, 21600.0)
        assert m.evidence == pytest.approx(25.0, abs=1e-9)
        assert m.last_decay_ts == 2 * half

    def test_zero_dt_is_identity(self):
        m = self.model(40.0)
        before = [c.copy() for c in m.counts]
        decay(m, 0, 21600.0)
        assert m.evidence == 40.0
        assert all(np.array_equal(a, b) for a, b in zip(before, m.counts))

    def test_composition(self):
        m1 = self.model(80.0)
        m2 = self.model(80.0)
        decay(m1, 3_000_000, 21600.0)
        decay(m1, 9_000_000, 21600.0)
        decay(m2, 9_000_000, 21600.0)
        assert m1.evidence == pytest.approx(m2.evidence, abs=1e-12)
        for a, b in zip(m1.counts, m2.counts):
            assert np.allclose(a, b, atol=1e-12)

    def test_counts_share_the_evidence_factor(self):
        m = self.model(60.0)
        decay(m, 5_000_000, 21600.0)
        assert m.evidence == pytest.approx(decay_ref(60.0, 5.0, 21600.0),
                                           abs=1e-9)
        for c in m.counts:
            assert c.sum() == pytest.approx(m.evidence, rel=1e-9)

    def test_backwards_clock_is_contract_violation(self):
        m = self.model(10.0)
        decay(m, 10_000_000, 21600.0)
        with pytest.raises(AssertionError):
            decay(m, 9_000_000, 21600.0)

    def test_effective_evidence_is_read_only(self):
        m = self.model(100.0)
        e = effective_evidence(m, int(10800 * 1e6), 21600.0)
        assert e == pytest.approx(50.0, abs=1e-9)
        assert m.evidence == 100.0
        assert m.last_decay_ts == 0


class TestModelUpdates:
    def test_create_model_single_action(self):
        agg = make_agg([4])
        m = create_model(agg, 123, 7)
        assert m.model_id == 7
        assert m.evidence == 1.0
        assert m.counts[0][4] == 1.0
        assert (m.created_at, m.last_update_ts, m.last_decay_ts) == (123, 123,
                                                                     123)

    def test_create_model_counts_scale_with_n(self):
        agg = make_agg([2] * 75 + [3] * 25)
        m = create_model(agg, 0, 0)
        assert m.evidence == 100.0
        assert m.counts[0][2] == pytest.approx(75.0)
        assert m.counts[0][3] == pytest.approx(25.0)

    def test_update_doubles_evidence_and_averages_pmfs(self):
        m = create_model(make_agg([1] * 10), 0, 0)
        update_model(m, make_agg([2] * 10), 0, SynthConfig())
        assert m.evidence == pytest.approx(20.0)
        assert m.pmf(0)[1] == pytest.approx(0.5)
        assert m.pmf(0)[2] == pytest.approx(0.5)

    def test_update_after_total_decay_tracks_aggregate(self):
        m = create_model(make_agg([1] * 10), 0, 0)
        far = int(100 * 21600 * 1e6)
        update_model(m, make_agg([5] * 10, ts=far / 1e6), far, SynthConfig())
        assert m.pmf(0)[5] == pytest.approx(1.0, abs=1e-9)
        assert m.evidence == pytest.approx(10.0, rel=1e-9)

    def test_mass_conservation(self):
        rng = random.Random(5)
        m = create_model(make_agg([0, 1, 2]), 0, 0)
        now = 0
        for _ in range(30):
            now += rng.randint(0, int(3600 * 1e6))
            vals = [rng.randrange(12) for _ in range(rng.randint(1, 9))]
            update_model(m, make_agg(vals, ts=now / 1e6), now, SynthConfig())
            for c in m.counts:
                assert c.sum() == pytest.approx(m.evidence, rel=1e-6)


class TestModelIdentity:
    def test_models_compare_by_identity(self):
        agg = make_agg([1] * 4)
        a, b = create_model(agg, 0, 3), create_model(agg, 0, 3)
        assert a != b
        assert a == a
        assert [b, a].index(a) == 1


class TestBestModelAndAdmit:
    def test_empty_set(self):
        ms = fresh_set()
        assert ms.best_model(make_agg([0])) is None
        assert ms.admit(None) == "create"

    def test_picks_the_generating_model(self):
        ms = fresh_set()
        ms.models = [create_model(make_agg([2] * 5), 0, 0),
                     create_model(make_agg([5] * 5), 0, 1)]
        probe = make_agg([5] * 3)
        model, h = ms.best_model(probe)
        assert model.model_id == 1
        assert h == pytest.approx(
            model_distance(probe, ms.models[1], ms.config.weights, EPS),
            abs=1e-9)

    def test_exact_tie_prefers_lowest_id(self):
        ms = fresh_set()
        agg = make_agg([3, 4])
        ms.models = [create_model(agg, 0, 0), create_model(agg, 0, 1)]
        model, _ = ms.best_model(make_agg([3]))
        assert model.model_id == 0

    def test_admit_thresholds(self):
        ms = fresh_set()
        assert ms.bound == pytest.approx(3.43655109, abs=1e-7)
        assert ms.admit(2.0) == "associate"
        assert ms.admit(3.0) == "associate"
        assert ms.admit(ms.bound) == "create"
        assert ms.admit(ms.bound - 1e-12) == "associate"
        assert ms.admit(ms.bound + 1e-12) == "create"

    def test_self_assignment(self):
        rng = random.Random(31)
        for trial in range(50):
            ms = fresh_set()
            n = rng.randint(1, 12)
            vals = dict(ais_vals=[rng.randrange(12) for _ in range(n)],
                        service_vals=[rng.randrange(45) for _ in range(n)],
                        maneuver_vals=[rng.randrange(21) for _ in range(n)],
                        timebin_vals=[rng.randrange(10) for _ in range(n)])
            first = ms.observe(make_agg(**vals), 0)
            again = ms.observe(make_agg(**vals), 0)
            assert first.action == "create"
            assert again.action == "associate"
            assert again.model_id == first.model_id


class TestObserve:
    def test_far_aggregates_create_separate_models(self):
        ms = fresh_set()
        a = ms.observe(make_agg([1] * 5, [3] * 5), 0)
        b = ms.observe(make_agg([7] * 5, [30] * 5), 1_000_000)
        assert (a.action, b.action) == ("create", "create")
        assert len(ms.models) == 2
        assert ms.created_total == 2

    def test_close_aggregate_associates_and_updates(self):
        ms = fresh_set()
        ms.observe(make_agg([1] * 20), 0)
        adm = ms.observe(make_agg([1] * 19 + [2]), 2_000_000)
        assert adm.action == "associate"
        assert adm.h_star < ms.bound
        m = ms.models[0]
        assert m.evidence == pytest.approx(
            20.0 * 0.5 ** (2.0 / 10800.0) + 20.0, rel=1e-9)
        assert m.last_update_ts == 2_000_000


class TestMerging:
    def two_model_set(self, e0, e1):
        ms = fresh_set()
        m0 = create_model(make_agg([1] * 10, [4] * 10), 0, 0)
        m1 = create_model(make_agg([1] * 10, [4] * 10), 0, 1)
        for m, e in ((m0, e0), (m1, e1)):
            scale = e / m.evidence
            for c in m.counts:
                c *= scale
            m.evidence = e
        ms.models = [m0, m1]
        ms._next_id = 2
        return ms

    def test_identical_pair_merges_once(self):
        ms = self.two_model_set(10.0, 5.0)
        pmf_before = ms.models[0].pmf(0).copy()
        merges = ms.merge_pass()
        assert merges == [(1, 0)]
        assert len(ms.models) == 1
        assert ms.models[0].evidence == pytest.approx(15.0)
        assert np.allclose(ms.models[0].pmf(0), pmf_before, atol=1e-12)
        assert ms.merged_total == 1
        assert ms.merge_pass() == []

    def test_larger_evidence_keeps_its_id_either_way(self):
        ms = self.two_model_set(5.0, 10.0)
        assert ms.merge_pass() == [(0, 1)]
        assert ms.resolve(0) == 1

    def test_equal_evidence_keeps_lower_id(self):
        ms = self.two_model_set(8.0, 8.0)
        assert ms.merge_pass() == [(1, 0)]

    def test_disjoint_one_hots_do_not_merge(self):
        ms = fresh_set()
        ms.models = [create_model(make_agg([1] * 10), 0, 0),
                     create_model(make_agg([7] * 10), 0, 1)]
        ms._next_id = 2
        assert ms.merge_pass() == []
        assert len(ms.models) == 2

    def test_minimum_distance_pair_merges_first(self):
        ms = fresh_set()
        close_a = make_agg([1] * 18 + [2] * 2)
        close_b = make_agg([1] * 17 + [2] * 3)
        far = make_agg([9] * 20)
        ms.models = [create_model(far, 0, 0), create_model(close_a, 0, 1),
                     create_model(close_b, 0, 2)]
        ms._next_id = 3
        matrix = ms.pairwise_jsd()
        w, eps = ms.config.weights.vector, ms.config.smoothing_eps
        for i in range(3):
            for j in range(3):
                expect = 0.0 if i == j else model_jsd_ref(
                    ms.models[i].counts, ms.models[j].counts, w, eps)
                assert matrix[i, j] == pytest.approx(expect, abs=1e-9)
        merges = ms.merge_pass()
        assert merges == [(2, 1)]
        assert {m.model_id for m in ms.models} == {0, 1}

    def test_merge_stamps_and_genealogy_chain(self):
        ms = fresh_set()
        base = make_agg([1] * 10)
        m0 = create_model(base, 5_000_000, 0)
        m1 = create_model(base, 1_000_000, 1)
        m2 = create_model(base, 9_000_000, 2)
        m0.evidence, m1.evidence, m2.evidence = 30.0, 20.0, 10.0
        ms.models = [m0, m1, m2]
        ms._next_id = 3
        merges = ms.merge_pass()
        assert merges == [(1, 0), (2, 0)]
        assert len(ms.models) == 1
        keeper = ms.models[0]
        assert keeper.created_at == 1_000_000
        assert keeper.last_update_ts == 9_000_000
        assert ms.resolve(1) == 0 and ms.resolve(2) == 0
        assert ms.resolve(0) == 0


class TestRetirement:
    def build(self, evidence, idle_s, now=int(1e9 * 1e6)):
        ms = fresh_set()
        m = create_model(make_agg([1] * 10), 0, 0)
        m.evidence = evidence
        m.last_update_ts = now - int(idle_s * 1e6)
        m.last_decay_ts = now
        ms.models = [m]
        ms._clock = now
        ms._next_id = 1
        return ms, now

    def test_weak_and_idle_retires(self):
        ms, now = self.build(0.5, 30000.0)
        gone = ms.retire_pass(now)
        assert [m.model_id for m in gone] == [0]
        assert ms.models == []
        assert ms.retired_total == 1

    def test_weak_but_recent_survives(self):
        ms, now = self.build(0.5, 300.0)
        assert ms.retire_pass(now) == []
        assert len(ms.models) == 1

    def test_strong_but_idle_survives(self):
        ms, now = self.build(5.0, 30000.0)
        assert ms.retire_pass(now) == []

    def test_exact_floor_survives(self):
        ms, now = self.build(1.0, 30000.0)
        assert ms.retire_pass(now) == []


class TestDecayAll:
    def test_matches_per_model_decay(self):
        ms = fresh_set()
        ms.observe(make_agg([1] * 8), 0)
        ms.observe(make_agg([7] * 8, [20] * 8), 0)
        twins = [AttackModel(model_id=m.model_id,
                             counts=[c.copy() for c in m.counts],
                             evidence=m.evidence, created_at=m.created_at,
                             last_update_ts=m.last_update_ts,
                             last_decay_ts=m.last_decay_ts)
                 for m in ms.models]
        now = int(4321 * 1e6)
        ms.decay_all(now)
        for m, t in zip(ms.models, twins):
            decay(t, now, ms.config.ewma_window)
            assert m.evidence == pytest.approx(t.evidence, rel=1e-12)
            for a, b in zip(m.counts, t.counts):
                assert np.allclose(a, b, rtol=1e-12)

    def test_decay_keeps_rows_and_choices(self):
        ms = fresh_set()
        ms.observe(make_agg([1] * 8), 0)
        ms.observe(make_agg([7] * 8, [20] * 8), 0)
        rows = ms._smoothed.copy(), ms._logq.copy()
        before = ms.best_model(make_agg([1]))[0].model_id
        ms.decay_all(int(3600 * 1e6))
        assert np.array_equal(ms._smoothed, rows[0])
        assert np.array_equal(ms._logq, rows[1])
        assert ms.best_model(make_agg([1]))[0].model_id == before

    def test_backwards_clock_is_contract_violation(self):
        ms = fresh_set()
        ms.decay_all(10)
        with pytest.raises(AssertionError):
            ms.decay_all(9)


class TestRouteEquivalence:
    """ModelSet's distance matrices, and the scalar functions that wrap the
    same kernel, agree with the component-by-component oracles."""

    def populated(self, seed):
        rng = random.Random(seed)
        ms = fresh_set(merge_threshold=1e-9)   # keep all models distinct
        now = 0
        for _ in range(8):
            n = rng.randint(1, 15)
            vals = dict(ais_vals=[rng.randrange(12) for _ in range(n)],
                        service_vals=[rng.randrange(45) for _ in range(n)],
                        maneuver_vals=[rng.randrange(21) for _ in range(n)],
                        timebin_vals=[rng.randrange(10) for _ in range(n)])
            ms.observe(make_agg(**vals, ts=now / 1e6), now)
            now += rng.randint(0, int(600 * 1e6))
        return ms, rng

    def test_best_model_equals_distance_scan(self):
        ms, rng = self.populated(17)
        w, eps = ms.config.weights.vector, ms.config.smoothing_eps
        for _ in range(20):
            n = rng.randint(1, 6)
            probe = make_agg([rng.randrange(12) for _ in range(n)],
                             [rng.randrange(45) for _ in range(n)])
            model, h = ms.best_model(probe)
            scan = [(model_distance_ref(probe.pmfs, m.counts, w, eps),
                     m.model_id) for m in ms.models]
            best = min(scan)
            assert h == pytest.approx(best[0], abs=1e-9)
            assert model.model_id == best[1]

    def test_pairwise_jsd_equals_scalar_jsd(self):
        ms, _ = self.populated(23)
        w, eps = ms.config.weights.vector, ms.config.smoothing_eps
        matrix = ms.pairwise_jsd()
        k = len(ms.models)
        assert matrix.shape == (k, k)
        for i in range(k):
            for j in range(k):
                expect = 0.0 if i == j else model_jsd_ref(
                    ms.models[i].counts, ms.models[j].counts, w, eps)
                assert matrix[i, j] == pytest.approx(expect, abs=1e-9)

    def test_scalar_wrappers_match_references(self):
        ms, rng = self.populated(29)
        w, eps = ms.config.weights, ms.config.smoothing_eps
        for qi in ms.models:
            probe = make_agg([rng.randrange(12) for _ in range(3)],
                             [rng.randrange(45) for _ in range(3)])
            assert model_distance(probe, qi, w, eps) == pytest.approx(
                model_distance_ref(probe.pmfs, qi.counts, w.vector, eps),
                abs=1e-9)
            for qj in ms.models:
                assert jsd(qi, qj, w, eps) == pytest.approx(
                    model_jsd_ref(qi.counts, qj.counts, w.vector, eps),
                    abs=1e-9)


class FullScanSet(ModelSet):
    """Reference twin: every merge pass scans every pair."""

    def merge_pass(self, changed=None):
        return super().merge_pass()


class TestMergeScanEquivalence:
    """Scanning only the changed model's row finds the same merges as a
    full scan, because a finished pass leaves no pair under threshold."""

    def test_changed_row_scan_matches_full_scan(self):
        merged = 0
        for seed in range(20):
            rng = random.Random(seed)
            cfg = dict(merge_threshold=0.3, ewma_window=3600.0)
            fast = fresh_set(**cfg)
            slow = FullScanSet(SynthConfig(**cfg), CARDS, VOCABS)
            w, eps = fast.config.weights, fast.config.smoothing_eps
            now = 0
            for _ in range(40):
                agg = nearby_agg(rng, now)
                a, b = fast.observe(agg, now), slow.observe(agg, now)
                assert (a.model_id, a.action, a.h_star, a.merges) == \
                    (b.model_id, b.action, b.h_star, b.merges)
                assert fast.genealogy == slow.genealogy
                if rng.random() < 0.2:
                    gone = [m.model_id for m in fast.retire_pass(now)]
                    assert gone == [m.model_id for m in slow.retire_pass(now)]
                for i, qi in enumerate(fast.models):
                    for qj in fast.models[i + 1:]:
                        assert jsd(qi, qj, w, eps) >= fast.config.merge_threshold
                now += rng.randint(0, int(1200 * 1e6))
            merged += fast.merged_total
        assert merged >= 20


class TestRowsTrackModels:
    """The two row matrices are state that follows the model list: one row
    per model, equal to a fresh smoothing of every model, after every
    admission, merge and retirement."""

    def assert_rows_match(self, ms, gone=()):
        eps = ms.config.smoothing_eps
        assert ms._smoothed.shape == ms._logq.shape == (len(ms.models),
                                                        sum(CARDS))
        assert_counts_are_matrix_views(ms, gone)
        if ms.models:
            smoothed, logq = smoothed_rows(ms.models, eps)
            assert np.allclose(ms._smoothed, smoothed, rtol=1e-12, atol=0)
            assert np.allclose(ms._logq, logq, rtol=1e-12, atol=0)

    def test_rows_follow_observe_and_retire(self):
        merged = retired = 0
        for seed in range(20):
            rng = random.Random(seed)
            ms = fresh_set(merge_threshold=0.3, ewma_window=3600.0)
            self.assert_rows_match(ms)
            now = 0
            for _ in range(40):
                before = list(ms.models)
                ms.observe(nearby_agg(rng, now), now)
                self.assert_rows_match(
                    ms, [m for m in before if m not in ms.models])
                if rng.random() < 0.2:
                    self.assert_rows_match(ms, ms.retire_pass(now))
                now += rng.randint(0, int(1200 * 1e6))
            merged += ms.merged_total
            retired += ms.retired_total
        assert merged >= 20 and retired >= 1

    def test_assignment_rebuilds_rows(self):
        ms = fresh_set()
        a = create_model(make_agg([1] * 5), 0, 0)
        b = create_model(make_agg([7] * 5, [9] * 5), 0, 1)
        ms.models = [a, b]
        self.assert_rows_match(ms)
        ms.models = [b]
        self.assert_rows_match(ms, [a])
        assert ms.best_model(make_agg([1]))[0] is b
        ms.models = []
        self.assert_rows_match(ms)
        assert ms.best_model(make_agg([1])) is None


AGG_ROWS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3),
                              st.integers(0, 2), st.integers(0, 2)),
                    min_size=1, max_size=8)
SET_OPS = st.lists(st.one_of(     # observe twice as often as retire or decay
    st.tuples(st.just("observe"), st.integers(0, 1200), AGG_ROWS),
    st.tuples(st.just("observe"), st.integers(0, 1200), AGG_ROWS),
    st.tuples(st.sampled_from(["retire", "decay"]), st.integers(0, 12000),
              st.none())), min_size=10, max_size=40)


class TestModelSetProperties:
    """Random observe/retire/decay sequences keep the model set's
    invariants after every step."""

    @settings(derandomize=True, deadline=None)
    @given(ops=SET_OPS)
    def test_invariants_hold_after_every_step(self, ops):
        ms = fresh_set(merge_threshold=0.3, ewma_window=3600.0)
        retired = set()
        now = 0
        for kind, dt_s, rows in ops:
            now += dt_s * 1_000_000
            before = list(ms.models)
            if kind == "observe":
                ms.observe(make_agg(*map(list, zip(*rows)), ts=now / 1e6), now)
            elif kind == "retire":
                retired |= {m.model_id for m in ms.retire_pass(now)}
            else:
                ms.decay_all(now)
            assert_counts_are_matrix_views(
                ms, [m for m in before if m not in ms.models])
            for a, b in ms._spans:
                sums = ms._smoothed[:, a:b].sum(axis=1)
                assert np.all(np.abs(sums - 1.0) <= 1e-12)
            assert all(m.evidence >= 0 for m in ms.models)
            assert all((c >= 0).all() for m in ms.models for c in m.counts)
            live = {m.model_id for m in ms.models}
            for model_id in ms.genealogy:
                seen = set()
                while model_id in ms.genealogy:
                    assert model_id not in seen, "genealogy has a cycle"
                    seen.add(model_id)
                    model_id = ms.genealogy[model_id]
            assert all(ms.resolve(i) in live | retired for i in ms.genealogy)
            assert not live & set(ms.genealogy)


class TestCharacteristics:
    def small_set(self, service_counts_by_model):
        cfg = SynthConfig()
        cards = (2, 3, 2, 2)
        vocabs = [("alpha", "beta"), ("dns", "http", "kerberos"),
                  ("in", "out"), ("fast", "slow")]
        ms = ModelSet(cfg, cards, vocabs)
        models = []
        for k, svc in enumerate(service_counts_by_model):
            counts = [np.array([10.0, 0.0]), np.array(svc, dtype=float),
                      np.array([10.0, 0.0]), np.array([10.0, 0.0])]
            models.append(AttackModel(model_id=k, counts=counts,
                                      evidence=10.0, created_at=0,
                                      last_update_ts=0, last_decay_ts=0))
        ms.models = models
        ms._next_id = len(ms.models)
        return ms

    def test_discriminative_value_beats_the_mode(self):
        # model 0 is mostly kerberos with some http; model 1 is mostly http
        # with some dns; http is common to both, so it characterizes neither
        ms = self.small_set([[0.0, 3.0, 7.0], [1.0, 9.0, 0.0]])
        feats = ms.characteristic_features()
        assert feats[0]["service"] == "kerberos"
        assert feats[1]["service"] == "dns"

    def test_single_model_uses_the_mode(self):
        ms = self.small_set([[1.0, 7.0, 2.0]])
        feats = ms.characteristic_features()
        assert feats[0]["service"] == "http"
        assert feats[0]["ais"] == "alpha"

    def test_identical_models_tie_lexicographically(self):
        ms = self.small_set([[0.0, 5.0, 5.0], [0.0, 5.0, 5.0]])
        feats = ms.characteristic_features()
        assert feats[0]["service"] == "http"
        assert feats[1]["service"] == "http"

    def test_empty_set(self):
        assert fresh_set().characteristic_features() == {}

    def test_real_vocabulary_round_trip(self, tables):
        cfg = SynthConfig()
        ms = ModelSet(cfg, tables.cardinalities, tables.vocabularies)
        agg = make_agg([10] * 10, [0] * 10)
        ms.models = [create_model(agg, 0, 0)]
        ms._next_id = 1
        feats = ms.characteristic_features()
        assert feats[0]["ais"] == tables.vocabularies[0][10]
        assert feats[0]["service"] == tables.vocabularies[1][0]
