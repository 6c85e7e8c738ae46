"""Stream keying, transition labels, pivots, and GC."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from alertsynth.ingest import Alert
from alertsynth.stream_tracker import StreamTracker
from oracles import ip_key_ref

EXT_A = "198.51.100.1"
EXT_B = "198.51.100.2"
INT_A = "10.0.0.1"
INT_B = "10.0.0.2"
INT_C = "10.0.0.3"


def mk(ts_s, src, dst):
    return Alert(ts=int(ts_s * 1e6), src_ip=src, dst_ip=dst,
                 src_key=ip_key_ref(src), dst_key=ip_key_ref(dst), src_port=50000,
                 dst_port=80, proto="tcp", signature_id=1, signature_text="t",
                 raw_seq=0)


def tracker(tables, horizon=3600.0, idle_timeout=3600.0):
    return StreamTracker(tables.homenet, horizon, idle_timeout)


class TestDirection:
    def test_all_four_pairings(self, tables):
        def direction(src, dst):
            return tracker(tables).assign(mk(0, src, dst))[1]
        assert direction(EXT_A, INT_A) == "inbound"
        assert direction(INT_A, EXT_A) == "outbound"
        assert direction(INT_A, INT_B) == "internal"
        # external-to-external anchors on the source
        assert direction(EXT_A, EXT_B) == "inbound"


class TestExternalStreams:
    def test_inbound_keyed_by_source(self, tables):
        t = tracker(tables)
        sid, direction, trans, elapsed = t.assign(mk(0, EXT_A, INT_A))
        assert (sid, direction, trans, elapsed) == (EXT_A, "inbound",
                                                    "stream_start", None)
        sid2, _, trans2, elapsed2 = t.assign(mk(10, EXT_A, INT_B))
        assert sid2 == EXT_A
        assert trans2 == "same_src_new_dst"
        assert elapsed2 == 10_000_000
        _, _, trans3, _ = t.assign(mk(20, EXT_A, INT_B))
        assert trans3 == "same_src_same_dst"

    def test_outbound_keyed_by_destination(self, tables):
        t = tracker(tables)
        sid, direction, trans, _ = t.assign(mk(0, INT_A, EXT_A))
        assert (sid, direction, trans) == (EXT_A, "outbound", "stream_start")
        sid2, _, trans2, _ = t.assign(mk(5, INT_B, EXT_A))
        assert sid2 == EXT_A
        assert trans2 == "new_src_same_dst"

    def test_replies_join_the_same_stream(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))
        # the victim answers: same stream, source was the last destination
        sid, direction, trans, _ = t.assign(mk(1, INT_A, EXT_A))
        assert sid == EXT_A
        assert direction == "outbound"
        assert trans == "src_is_last_dst"

    def test_dst_is_last_src(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_C))
        # a different internal host reaches back to the anchor
        sid, _, trans, _ = t.assign(mk(1, INT_B, EXT_A))
        assert sid == EXT_A
        assert trans == "dst_is_last_src"

    def test_distinct_external_sources_distinct_streams(self, tables):
        t = tracker(tables)
        sid1 = t.assign(mk(0, EXT_A, INT_A))[0]
        sid2 = t.assign(mk(1, EXT_B, INT_A))[0]
        assert sid1 != sid2


class TestInternalPivots:
    def test_pivot_joins_recent_stream(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))       # stream EXT_A touches INT_A
        sid, direction, trans, elapsed = t.assign(mk(10, INT_A, INT_B))
        assert sid == EXT_A
        assert direction == "internal"
        assert trans == "internal_pivot"
        assert elapsed == 10_000_000

    def test_pivot_chain(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))
        t.assign(mk(10, INT_A, INT_B))      # touches INT_B too
        sid, _, trans, _ = t.assign(mk(20, INT_B, INT_C))
        assert sid == EXT_A
        assert trans == "internal_pivot"

    def test_pivot_horizon_expires(self, tables):
        t = tracker(tables, horizon=60.0)
        t.assign(mk(0, EXT_A, INT_A))
        sid, _, trans, elapsed = t.assign(mk(61.0, INT_A, INT_B))
        assert sid.startswith("internal#")
        assert trans == "stream_start"
        assert elapsed is None

    def test_orphan_internal_gets_synthetic_stream(self, tables):
        t = tracker(tables)
        sid1 = t.assign(mk(0, INT_A, INT_B))[0]
        sid2 = t.assign(mk(10000, INT_C, INT_B))[0]
        assert sid1 == "internal#0"
        assert sid2 == "internal#1"

    def test_anchor_reengages_after_pivot(self, tables):
        # a pivot must not erase the stream's external dialogue endpoints
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))
        t.assign(mk(10, INT_A, INT_B))
        sid, _, trans, _ = t.assign(mk(20, EXT_A, INT_C))
        assert sid == EXT_A
        assert trans == "same_src_new_dst"

    def test_most_recent_touch_wins(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))
        t.assign(mk(5, EXT_B, INT_A))       # EXT_B touched INT_A later
        sid = t.assign(mk(10, INT_A, INT_B))[0]
        assert sid == EXT_B

    def test_touch_tie_breaks_to_larger_stream_id(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))
        t.assign(mk(0, EXT_B, INT_A))       # same touch timestamp
        sid = t.assign(mk(1, INT_A, INT_B))[0]
        assert sid == max(EXT_A, EXT_B)


class TestClockAndGC:
    def test_out_of_order_clamps_elapsed(self, tables):
        t = tracker(tables)
        t.assign(mk(100, EXT_A, INT_A))
        _, _, _, elapsed = t.assign(mk(90, EXT_A, INT_A))
        assert elapsed == 0
        # last_ts stays monotone at the max seen
        _, _, _, elapsed2 = t.assign(mk(120, EXT_A, INT_A))
        assert elapsed2 == 20_000_000

    def test_gc_evicts_idle_streams(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))
        t.assign(mk(5000, EXT_B, INT_B))
        evicted = t.gc(int(6000 * 1e6))
        assert [s.stream_id for s in evicted] == [EXT_A]
        assert EXT_A not in t.states
        assert EXT_B in t.states

    def test_gc_detaches_pivot_index(self, tables):
        t = tracker(tables)
        t.assign(mk(0, EXT_A, INT_A))
        t.gc(int(7200 * 1e6))
        sid = t.assign(mk(7201, INT_A, INT_B))[0]
        assert sid.startswith("internal#")

    def test_gc_drops_evicted_streams_from_pivot_index(self, tables):
        t = tracker(tables, horizon=3600.0, idle_timeout=60.0)
        t.assign(mk(0, EXT_A, INT_A))
        assert [s.stream_id for s in t.gc(int(100 * 1e6))] == [EXT_A]
        # the same source comes back as a new stream that never touched INT_A
        assert t.assign(mk(110, EXT_A, INT_C))[2] == "stream_start"
        sid, _, trans, _ = t.assign(mk(120, INT_A, INT_B))
        assert (sid, trans) == ("internal#0", "stream_start")
        assert all(stream_id in t.states for entries in t._touch_index.values()
                   for stream_id in entries)


class TestWholeMicrosecondLimits:
    """A limit of 8.2 s is 8,200,000 us (8.2 * 1e6 truncates to 8,199,999):
    a silence of that many us is not over it, one us more is."""

    @pytest.mark.parametrize("silence_us,over", [(8_200_000, False),
                                                 (8_200_001, True)])
    def test_idle_timeout(self, tables, silence_us, over):
        t = tracker(tables, idle_timeout=8.2)
        t.assign(mk(0, EXT_A, INT_A))
        assert [s.stream_id for s in t.gc(silence_us)] == ([EXT_A] if over else [])

    @pytest.mark.parametrize("silence_us,over", [(8_200_000, False),
                                                 (8_200_001, True)])
    def test_pivot_horizon(self, tables, silence_us, over):
        t = tracker(tables, horizon=8.2)
        t.assign(mk(0, EXT_A, INT_A))
        sid = t.assign(replace(mk(0, INT_A, INT_B), ts=silence_us))[0]
        assert sid == ("internal#0" if over else EXT_A)


class TestTotality:
    def test_fuzzed_assign_never_fails(self, tables):
        rng = random.Random(42)
        internal = [f"10.0.0.{i}" for i in range(1, 6)]
        external = [f"198.51.100.{i}" for i in range(1, 6)]
        t = tracker(tables)
        transitions = {"stream_start", "same_src_same_dst", "same_src_new_dst",
                       "new_src_same_dst", "src_is_last_dst", "dst_is_last_src",
                       "internal_pivot"}
        ts = 0.0
        for _ in range(500):
            ts += rng.random() * 100
            src, dst = rng.choice(internal + external), rng.choice(internal + external)
            if src == dst:
                continue
            sid, direction, trans, elapsed = t.assign(mk(ts, src, dst))
            assert trans in transitions
            assert direction in ("inbound", "outbound", "internal")
            assert (elapsed is None) == (trans == "stream_start")
            assert sid in t.states


INTERNAL = (INT_A, INT_B, INT_C)
EXTERNAL = (EXT_A, EXT_B, "198.51.100.3")
HORIZON_S = 100.0
TRANSITIONS = {"stream_start", "same_src_same_dst", "same_src_new_dst",
               "new_src_same_dst", "src_is_last_dst", "dst_is_last_src",
               "internal_pivot"}
# ("assign", seconds after the previous op, src, dst, seconds the stamp lags
# the clock, silence of the stream's open segment or None) or ("gc",
# seconds); short steps keep several touches inside the horizon, gc's jumps
# expire them.  Internal alerts are never late: the pivot index prunes
# stamps against the alert's time.
ASSIGN = st.tuples(st.just("assign"), st.sampled_from([0, 0, 1, 2, 5, 10, 100]),
                   st.sampled_from(INTERNAL + EXTERNAL),
                   st.sampled_from(INTERNAL + EXTERNAL),
                   st.sampled_from([0, 0, 0, 3, 60, 150]),
                   st.sampled_from([None, 0, 20, 60, 150]))
GC = st.tuples(st.just("gc"), st.sampled_from([0, 1, 50, 99, 100, 101]))
OPS = st.lists(st.one_of(ASSIGN, ASSIGN, ASSIGN, GC), min_size=20, max_size=60)


class TestTrackerProperties:
    """Random interleavings of assign and gc against a brute-force model
    kept from the test's own log of touches and a full scan of the
    streams' deadlines."""

    @settings(derandomize=True, deadline=None)
    @given(ops=OPS, idle_s=st.sampled_from([HORIZON_S / 2, HORIZON_S * 2]))
    def test_assign_and_gc_match_touch_log(self, tables, ops, idle_s):
        t = tracker(tables, horizon=HORIZON_S, idle_timeout=idle_s)
        horizon_us, idle_us = int(HORIZON_S * 1e6), int(idle_s * 1e6)
        born = {}      # live stream id -> index into log when it started
        last = {}      # live stream id -> latest alert timestamp
        silence = {}   # live stream id -> silence of its open segment, us
        log = []       # (stream id, internal ip, us) per touch, in order
        clock = 0
        for op in ops:
            clock += op[1] * 1_000_000
            if op[0] == "gc":
                evict = {s for s in born if clock - last[s] > idle_us}
                quiet = {s for s in born if s not in evict
                         and silence[s] is not None
                         and last[s] + silence[s] < clock}
                evicted = {s.stream_id for s in t.gc(clock)}
                assert evicted == evict
                assert {s.stream_id for s in t.quiet} == quiet
                for state in t.quiet:    # the pipeline closes them
                    silence[state.stream_id] = state.horizon = None
                for s in evicted:
                    del born[s], last[s], silence[s]
            else:
                src, dst, lag, quiet_s = op[2:]
                internal = src in INTERNAL and dst in INTERNAL
                ts = clock if internal else clock - lag * 1_000_000
                pivot = None
                if internal:
                    recent = {}
                    for k, (s, ip, us) in enumerate(log):
                        if ip == src and s in born and k >= born[s]:
                            recent[s] = max(recent.get(s, us), us)
                    live = [(us, s) for s, us in recent.items()
                            if ts - us <= horizon_us]
                    pivot = max(live)[1] if live else None
                sid, direction, trans, elapsed = t.assign(mk(ts / 1e6, src, dst))
                assert trans in TRANSITIONS
                assert (elapsed is None) == (trans == "stream_start")
                if direction == "internal":
                    assert (trans == "internal_pivot") == (pivot is not None)
                    if pivot is not None:
                        assert sid == pivot
                if trans == "stream_start":
                    born[sid] = len(log)
                last[sid] = max(last.get(sid, ts), ts)
                silence[sid] = None if quiet_s is None else quiet_s * 1_000_000
                t.states[sid].horizon = (None if silence[sid] is None
                                         else last[sid] + silence[sid])
                log += [(sid, ip, ts) for ip in (src, dst) if ip in INTERNAL]
            assert set(t.states) == set(born)
            assert all(t.states[s].last_ts == last[s] for s in born)
            assert all(stream_id in t.states
                       for entries in t._touch_index.values()
                       for stream_id in entries)


class TestNewStreams:
    """A stream started since the last gc is due at its first alert; gc
    checks it then and makes it due at its next deadline."""

    def new_stream(self, tables, silence_s):
        t = tracker(tables, idle_timeout=3600.0)
        state = t.states[t.assign(mk(10, EXT_A, INT_A))[0]]
        state.horizon = (None if silence_s is None
                         else state.last_ts + int(silence_s * 1e6))
        return t, state

    def test_due_at_its_horizon(self, tables):
        t, state = self.new_stream(tables, 60)
        assert state.due == int(10 * 1e6)               # its first alert
        assert t.gc(int(10 * 1e6)) == [] and t.quiet == []
        assert state.due == int(10 * 1e6)               # not due before 10 s
        assert t.gc(int(11 * 1e6)) == [] and t.quiet == []
        assert state.due == int(70 * 1e6)               # its horizon
        assert t.gc(int(70 * 1e6)) == [] and t.quiet == []
        assert state.due == int(70 * 1e6)               # not checked
        assert t.gc(int(71 * 1e6)) == [] and t.quiet == [state]

    def test_due_at_its_eviction_without_a_horizon(self, tables):
        t, state = self.new_stream(tables, None)
        assert t.gc(int(11 * 1e6)) == [] and t.quiet == []
        assert state.due == int(3610 * 1e6)
        assert t.gc(int(3611 * 1e6)) == [state]

    def test_quiet_at_its_first_gc_when_the_horizon_passed(self, tables):
        t, state = self.new_stream(tables, 60)
        assert t.gc(int(71 * 1e6)) == [] and t.quiet == [state]
        assert state.due == int(3610 * 1e6)             # its eviction

    def test_evicted_at_its_first_gc_when_idle_past_the_timeout(self, tables):
        t, state = self.new_stream(tables, 60)
        assert t.gc(int(3611 * 1e6)) == [state] and t.quiet == []
        assert t.states == {} and t._touch_index == {}
