"""Alert-stream assignment and per-stream state.

A stream ties together the alerts anchored to one external endpoint: the
alerts it originates (inbound), the replies feeding back to it (outbound),
and internal continuations of the same maneuver (pivots).  Purely internal
chains with no qualifying pivot ancestor get synthetic stream keys.

Each stream carries a due stamp, no later than its earliest deadline: the
horizon of its open segment or its eviction once idle.  At each export
boundary gc passes over the stream table once and checks only the streams
that are due; see gc.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .action_space import Homenet
from .aggregation import within_us
from .ingest import Alert


@dataclass(slots=True)
class StreamState:
    """Mutable per-stream bookkeeping."""

    stream_id: str
    last_ts: int
    last_src: str
    last_dst: str
    handle: object = None        # open segmenter, owned by the pipeline;
                                 # None until the first alert and once closed
    due: int = 0                 # gc checks the stream once now passes this


def _direction(src_in: bool, dst_in: bool) -> str:
    """inbound | outbound | internal, from whether each endpoint is in the
    homenet; external-to-external counts as inbound."""
    if src_in:
        return "internal" if dst_in else "outbound"
    return "inbound"


class StreamTracker:
    """Owns the stream table; single pipeline stage, no concurrent mutation."""

    def __init__(self, homenet: Homenet, pivot_horizon: float,
                 idle_timeout: float) -> None:
        self.homenet = homenet
        self.pivot_horizon_us = within_us(pivot_horizon)
        self.idle_timeout_us = within_us(idle_timeout)
        self.states: Dict[str, StreamState] = {}
        # internal ip -> {live stream_id: last_touch_us}, the one record of
        # what each stream touched; lets a pivot alert find every stream that
        # recently touched its source host (lookups prune stale stamps)
        self._touch_index: Dict[str, Dict[str, int]] = {}
        self._synthetic_seq = 0
        # streams whose open segment's horizon the last gc passed; the
        # pipeline closes their segments
        self.quiet: List[StreamState] = []

    def assign(self, alert: Alert) -> Tuple[str, str, str, Optional[int]]:
        """Assign one alert; returns (stream_id, direction, transition, elapsed_us).

        elapsed_us is None exactly when the alert starts a new stream.
        """
        src_in = self.homenet.contains(alert.src_key)
        dst_in = self.homenet.contains(alert.dst_key)
        direction = _direction(src_in, dst_in)
        if direction == "internal":
            state = self._find_pivot_stream(alert.src_ip, alert.ts)
            if state is None:
                state = self._new_state(f"internal#{self._synthetic_seq}", alert)
                self._synthetic_seq += 1
                transition, elapsed = "stream_start", None
            else:
                transition, elapsed = "internal_pivot", max(0, alert.ts - state.last_ts)
            self._touch(state, alert.ts, alert.src_ip, alert.dst_ip)
        else:
            key = alert.src_ip if direction == "inbound" else alert.dst_ip
            state = self.states.get(key)
            if state is None:
                state = self._new_state(key, alert)
                transition, elapsed = "stream_start", None
            else:
                transition = self._transition(state, alert)
                elapsed = max(0, alert.ts - state.last_ts)
            if src_in or dst_in:  # outbound, or inbound to the homenet
                internal_end = alert.dst_ip if direction == "inbound" else alert.src_ip
                self._touch(state, alert.ts, internal_end)

        state.last_ts = max(state.last_ts, alert.ts)
        # every deadline of a stream lies at or after its last alert, so a
        # check there is never too late
        state.due = state.last_ts
        if direction != "internal" or transition == "stream_start":
            # a pivot continues the maneuver laterally; the stream's dialogue
            # endpoints stay on the external exchange so the next anchored
            # alert still matches one of the four transition equalities
            state.last_src = alert.src_ip
            state.last_dst = alert.dst_ip
        return state.stream_id, direction, transition, elapsed

    @staticmethod
    def _transition(state: StreamState, alert: Alert) -> str:
        # precedence order is significant
        if alert.src_ip == state.last_src:
            return ("same_src_same_dst" if alert.dst_ip == state.last_dst
                    else "same_src_new_dst")
        if alert.dst_ip == state.last_dst:
            return "new_src_same_dst"
        if alert.src_ip == state.last_dst:
            return "src_is_last_dst"
        if alert.dst_ip == state.last_src:
            return "dst_is_last_src"
        # the stream key is an endpoint of every anchored alert and pivots
        # leave last_src/last_dst untouched, so the key sits on both sides of
        # the comparison and one of the four equalities always holds
        raise AssertionError(f"unreachable transition in {state.stream_id}")

    def _new_state(self, stream_id: str, alert: Alert) -> StreamState:
        state = StreamState(stream_id=stream_id, last_ts=alert.ts,
                            last_src=alert.src_ip, last_dst=alert.dst_ip)
        self.states[stream_id] = state
        return state

    def _touch(self, state: StreamState, ts: int, *ips: str) -> None:
        """Stamp internal addresses as touched by state's stream."""
        for ip in ips:
            entries = self._touch_index.setdefault(ip, {})
            entries[state.stream_id] = max(entries.get(state.stream_id, ts), ts)

    def _find_pivot_stream(self, ip: str, now: int) -> Optional[StreamState]:
        entries = self._touch_index.get(ip)
        if not entries:
            return None
        best: Optional[Tuple[int, str]] = None
        stale: List[str] = []
        for stream_id, touched in entries.items():
            if now - touched > self.pivot_horizon_us:
                stale.append(stream_id)
            elif best is None or (touched, stream_id) > best:
                best = (touched, stream_id)
        for stream_id in stale:
            del entries[stream_id]
        if not entries:
            del self._touch_index[ip]
        return self.states[best[1]] if best else None

    def gc(self, now: int) -> List[StreamState]:
        """Evict streams idle longer than the idle timeout and return them;
        list in self.quiet the live streams whose open segment's horizon
        (its handle's horizon(last_ts)) lies before now.

        One pass over the stream table checks only the streams due before
        now: each stream's due stamp is no later than its earliest
        deadline, since an alert sets it to the stream's last_ts and a
        check to the next wake-up."""
        evicted: List[StreamState] = []
        self.quiet = []
        for state in [s for s in self.states.values() if s.due < now]:
            wake = self._check(state, now)
            if wake is None:
                del self.states[state.stream_id]
                evicted.append(state)
            else:
                state.due = wake
        if evicted:  # the index holds live streams only
            for ip, entries in list(self._touch_index.items()):
                for stream_id in [s for s in entries if s not in self.states]:
                    del entries[stream_id]
                if not entries:
                    del self._touch_index[ip]
        return evicted

    def _check(self, state: StreamState, now: int) -> Optional[int]:
        """The stream's next wake-up after a check at now, or None when it
        has been idle past the timeout and is to be evicted.  A passed
        horizon lists the stream in self.quiet and leaves its eviction as
        the next wake-up, since its segment is closed.  A stream without a
        handle has no horizon."""
        deadline = state.last_ts + self.idle_timeout_us
        if deadline < now:
            return None
        horizon = (None if state.handle is None
                   else state.handle.horizon(state.last_ts))
        if horizon is not None:
            if horizon < now:
                self.quiet.append(state)
            elif horizon < deadline:
                return horizon
        return deadline
