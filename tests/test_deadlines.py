"""Quiet episodes close at export boundaries.

StreamTracker.gc, which checks only the streams whose due stamp has
passed, against a full check of every stream; the segment partition that
boundary closures leave unchanged, the admission lag they bound, and the
bounded catch-up after a timestamp jump.
"""

import json
from collections import Counter
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from alertsynth.export_cli import Engine, build_config
from alertsynth.ingest import parse_alert_line
from conftest import SCENARIOS
from test_export_cli import eve_line


def replay(lines, tmp_path, entries):
    """Run lines through an Engine; returns (engine, admissions), one
    (raw_seqs, now, t_end, at shutdown) per admitted aggregate.  Every
    boundary's gc is checked against a full scan of the stream table."""
    engine = Engine(build_config({**entries, "export_dir": str(tmp_path)}))
    admissions = []
    shutdown = [False]
    tracker = engine.tracker
    observe, gc = engine.model_set.observe, tracker.gc

    def observe_logged(agg, now):
        admissions.append((tuple(agg.raw_seqs), now, agg.t_end, shutdown[0]))
        return observe(agg, now)

    def gc_checked(now):
        limit = int(engine.config.idle_timeout * 1e6)
        states = list(tracker.states.values())
        evict = {s.stream_id for s in states if now - s.last_ts > limit}
        quiet = set()
        for s in states:
            # a stream whose segmenter was released has no horizon
            horizon = None if s.handle is None else s.handle.horizon(s.last_ts)
            if s.stream_id not in evict and horizon is not None and horizon < now:
                quiet.add(s.stream_id)
        evicted = gc(now)
        assert {s.stream_id for s in evicted} == evict
        assert {s.stream_id for s in tracker.quiet} == quiet
        return evicted

    engine.model_set.observe = observe_logged
    tracker.gc = gc_checked
    for seq, line in enumerate(lines):
        engine.process(parse_alert_line(line, seq))
    shutdown[0] = True
    engine.shutdown()
    return engine, admissions


def partition(admissions):
    return Counter(seqs for seqs, _, _, _ in admissions)


@pytest.fixture(scope="module")
def scenario_lines(tmp_path_factory):
    """The alert lines of the small and periodic scenarios."""
    out = {}
    for name in ("small", "periodic"):
        alerts, _ = SCENARIOS[name].generate(str(tmp_path_factory.mktemp(name)))
        with open(alerts, "r", encoding="utf-8") as fh:
            out[name] = fh.read().splitlines()
    return out


class TestPartitionInvariance:
    """Closing a segment at a boundary past its horizon cuts it where the
    stream's next alert would have: the admitted runs are the same whether
    closures happen at boundaries or all at shutdown."""

    @pytest.mark.parametrize("segmenter", ["threshold", "controlchart"])
    def test_small_scenario(self, scenario_lines, tmp_path, segmenter):
        config = {**SCENARIOS["small"].config, "segmenter": segmenter}
        lines = scenario_lines["small"]
        live, live_adm = replay(lines, tmp_path / "live", config)
        once, once_adm = replay(lines, tmp_path / "once",
                                {**config, "export_interval": "1000d"})
        assert once.exports_total == 1
        assert partition(live_adm) == partition(once_adm)
        if segmenter == "threshold":
            assert sum(not at_shutdown for *_, at_shutdown in live_adm) > 0

    # (seconds after the clock, or before it when negative, source, target)
    FEED = st.lists(st.tuples(
        st.sampled_from([0, 1, 2, 3, 5, 40, 70, 200, -20, -90, -400, -400]),
        st.sampled_from(["198.51.100.1", "198.51.100.2"]),
        st.sampled_from(["10.0.0.1", "10.0.0.2"])), min_size=1, max_size=60)

    @staticmethod
    def lines(feed):
        lines, clock = [], 0
        for step, src, dst in feed:
            ts = clock + step
            clock = max(clock, ts)
            lines.append(eve_line(ts, src=src, dst=dst))
        return lines

    def test_a_late_alert_after_the_horizon_starts_a_new_run(self, tmp_path):
        # the clock passes the first stream's horizon (60 s) on another
        # stream; a late alert of the first stream then starts a new run,
        # as it does when a boundary closed the first run in between
        feed = [(0, "198.51.100.1", "10.0.0.1"), (200, "198.51.100.2", "10.0.0.1"),
                (30, "198.51.100.2", "10.0.0.1"), (-400, "198.51.100.1", "10.0.0.1")]
        config = {"tau": "60s"}
        for interval in ("30s", "1000d"):
            _, admissions = replay(self.lines(feed), tmp_path / interval,
                                   {**config, "export_interval": interval})
            assert partition(admissions) == Counter([(0,), (1, 2), (3,)])

    def test_a_closed_stream_releases_its_segmenter(self, tmp_path):
        # the first stream's run closes at the 90 s boundary, past its
        # horizon (61 s); its next alert starts a fresh segmenter
        feed = [(0, "198.51.100.1", "10.0.0.1"), (1, "198.51.100.1", "10.0.0.1"),
                (200, "198.51.100.2", "10.0.0.1"), (10, "198.51.100.1", "10.0.0.1")]
        lines = self.lines(feed)
        config = {"tau": "60s", "export_interval": "30s"}
        engine = Engine(build_config({**config, "export_dir": str(tmp_path / "e")}))
        for seq, line in enumerate(lines[:3]):
            engine.process(parse_alert_line(line, seq))
        first = engine.tracker.states["198.51.100.1"]
        assert engine.aggregates_total == 1
        assert first.handle is None
        engine.process(parse_alert_line(lines[3], 3))
        assert first.handle is not None
        engine.shutdown()
        assert all(s.handle is None for s in engine.tracker.states.values())
        expect = Counter([(0, 1), (2,), (3,)])
        for interval in ("30s", "1000d"):
            _, admissions = replay(lines, tmp_path / interval,
                                   {**config, "export_interval": interval})
            assert partition(admissions) == expect

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(feed=FEED)
    def test_random_feeds_with_late_stamps(self, tmp_path_factory, feed):
        lines = self.lines(feed)
        # eviction happens at boundaries only, so it is kept out of the
        # comparison by an idle timeout longer than any feed
        base = {"tau": "60s", "window_n": "4", "ks_alpha": "0.9",
                "idle_timeout": "30d"}
        for segmenter in ("threshold", "controlchart"):
            config = {**base, "segmenter": segmenter}
            tmp = tmp_path_factory.mktemp(segmenter)
            _, live = replay(lines, tmp / "live",
                             {**config, "export_interval": "30s"})
            once, whole = replay(lines, tmp / "once",
                                 {**config, "export_interval": "1000d"})
            assert once.exports_total == 1
            assert partition(live) == partition(whole)


@pytest.mark.parametrize("name", ["small", "periodic"])
def test_admission_lag_is_at_most_tau_plus_one_interval(
        scenario_lines, tmp_path, name):
    config = build_config({**SCENARIOS[name].config, "export_dir": str(tmp_path)})
    bound = int((config.tau + config.export_interval) * 1e6)
    engine, admissions = replay(scenario_lines[name], tmp_path,
                                SCENARIOS[name].config)
    before = [now - t_end for _, now, t_end, at_shutdown in admissions
              if not at_shutdown]
    # the episodes of the feed's last tau + interval wait for shutdown
    assert len(before) >= len(admissions) // 2
    assert max(before) <= bound


class TestTimestampJump:
    """Once a boundary leaves no live model and no open stream, the clock
    goes on from the last boundary before the next alert."""

    def exports(self, tmp_path, lines):
        engine, admissions = replay(lines, tmp_path, {})
        rows = (tmp_path / "evidence.csv").read_text().splitlines()[1:]
        return engine, admissions, rows

    def test_a_month_of_silence(self, tmp_path):
        engine, admissions, rows = self.exports(
            tmp_path, [eve_line(0.0), eve_line(31 * 86400.0)])
        # 73 boundaries until the stream is evicted after 12 h, the last
        # boundary before the second alert, and the shutdown export
        assert engine.exports_total == 75
        assert engine.counters()["models_live"] == 1
        assert [len(seqs) for seqs, *_ in admissions] == [1, 1]
        # the first model shows in every export from its admission at
        # 00:20 through 06:20 and retires at 06:30; the second is in the last
        assert len(rows) == 37 + 1

    def test_an_alert_in_year_9999(self, tmp_path):
        late = json.loads(eve_line(0.0))
        late["timestamp"] = "9999-06-01T00:00:00.000000+0000"
        engine, admissions, _ = self.exports(
            tmp_path, [eve_line(0.0), json.dumps(late)])
        assert engine.exports_total == 75
        assert len(admissions) == 2

    def test_live_models_keep_every_interval(self, tmp_path):
        # a burst big enough to stay above the retirement floor for a day
        lines = [eve_line(i * 1.0) for i in range(600)]
        lines.append(eve_line(20 * 86400.0))
        engine, _, rows = self.exports(tmp_path, lines)
        stamps = sorted({datetime.strptime(row.split(",")[0], "%Y-%m-%dT%H:%M:%S.%fZ")
                         for row in rows})
        # the model shows in an export every 10 minutes for over a day,
        # then only the shutdown export remains after the skip
        steps = {(b - a).total_seconds() for a, b in zip(stamps, stamps[1:-1])}
        assert steps == {600.0}
        assert stamps[-2] - stamps[0] > timedelta(days=1)
        # three exports list no model: 00:10, before the burst is admitted,
        # the boundary where the model retires, and the last one before
        # the late alert
        assert engine.exports_total == len(stamps) + 3
