"""Segmentation of per-stream action sequences into aggregates.

Three pluggable segmenters split each stream where its temporal texture
changes: a fixed gap threshold, Gaussian smoothing of alert volume with
valley detection, and a control chart on log-gaps confirmed by a
two-sample Kolmogorov-Smirnov test.  A closed run of actions becomes an
Aggregate carrying per-component empirical pmfs.

Each segmenter also reports a horizon: given its stream's latest alert
time, the event time past which the open buffer counts as closed, because
the next alert would cut it anyway (threshold, control chart) or because
the episode has gone quiet for a whole window (Gaussian).  The pipeline
closes buffers whose horizon an export boundary has passed.  Segmenters
are fed the whole microseconds since the stream's previous alert, and a
threshold or Gaussian horizon adds the integer its cut compares against.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .action_space import COMPONENTS, Action

# build_aggregate names the components in this order, spelled out because
# the generic getattr loop over COMPONENTS costs about twice as much
assert COMPONENTS == ("ais", "service", "maneuver", "timebin"), COMPONENTS


@lru_cache(maxsize=None)
def _column_offsets(cardinalities: Tuple[int, ...]) -> Tuple[int, ...]:
    """Start column of each component in a side-by-side vector, then its width."""
    return tuple(accumulate(cardinalities, initial=0))


@dataclass(slots=True)
class Aggregate:
    """A temporally contiguous batch of actions from one stream, as the model
    set sees it: its pmfs, size, the lines it covers, its latest time and
    its support."""

    raw_seqs: List[int]          # of the actions, in arrival order
    vec: np.ndarray              # the component pmfs side by side
    n: int
    t_end: int                   # latest action ts, microseconds
    edges: Tuple[int, ...]       # start column of each component, then the width
    support: int                 # bit i set iff vec[i] > 0

    @property
    def pmfs(self) -> List[np.ndarray]:
        """Views of vec per component, each sums to 1."""
        return [self.vec[a:b] for a, b in zip(self.edges, self.edges[1:])]


def build_aggregate(actions: Sequence[Action],
                    cardinalities: Tuple[int, int, int, int]) -> Aggregate:
    """Empirical pmfs of a nonempty action batch: one bincount of offset
    values, whose distinct columns are the support."""
    assert len(actions) > 0, "aggregate needs at least one action"
    n = len(actions)
    edges = _column_offsets(tuple(cardinalities))
    _, s, m, t, width = edges
    columns = [v for a in actions for v in
               (a.ais, a.service + s, a.maneuver + m, a.timebin + t)]
    support = 0
    for c in set(columns):
        support |= 1 << c
    return Aggregate([a.raw_seq for a in actions],
                     np.bincount(columns, minlength=width) / n, n,
                     max([a.ts for a in actions]), edges, support)


# silences from here on (2**53 us, about 285 years) set no deadline
FAR_US = 2 ** 53


def longest_quiet_us(quiet: Callable[[int], bool]) -> Optional[int]:
    """Largest silence d in whole microseconds with quiet(d), by bisection,
    or None when FAR_US is still quiet.  quiet holds at 0 and, once false,
    stays false."""
    if quiet(FAR_US):
        return None
    lo, hi = 0, FAR_US
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if quiet(mid) else (lo, mid)
    return lo


@lru_cache(maxsize=None)
def within_us(seconds: float) -> int:
    """Whole microseconds of a duration, the one rule for every stage: the
    largest d <= FAR_US with d / 1e6 <= seconds, the longest silence not
    over it (0 for NaN).  Cached, as segmenters are built per stream."""
    d = longest_quiet_us(lambda d: d / 1e6 <= seconds)
    return FAR_US if d is None else d


class ThresholdSegmenter:
    """Boundary wherever the gap between consecutive actions exceeds tau."""

    def __init__(self, tau: float) -> None:
        self.tau_us = within_us(tau)
        self._buffer: List[Action] = []

    def feed(self, action: Action, elapsed_us: Optional[int]) -> List[List[Action]]:
        """Buffer action; returns the run that elapsed_us over tau closes."""
        closed = []
        if self._buffer and elapsed_us is not None and elapsed_us > self.tau_us:
            closed.append(self._buffer)
            self._buffer = []
        self._buffer.append(action)
        return closed

    def horizon(self, last_ts: int) -> Optional[int]:
        """last_ts + tau: an alert after it would cut the buffer."""
        return last_ts + self.tau_us if self._buffer else None

    def flush(self) -> List[List[Action]]:
        out = [self._buffer] if self._buffer else []
        self._buffer = []
        return out


class GaussianSegmenter:
    """Episodes from valleys in the Gaussian-smoothed alert volume.

    Actions are buffered over a closed window; when the buffer span exceeds
    the window, episodes are extracted and all but the newest are emitted.
    A late action stamped more than a window before the buffer's newest
    action closes the whole buffer, as flush does, and starts the next one,
    so that one stamp from long ago cannot make a buffer's bins span its
    lateness.
    """

    def __init__(self, bin_width: float, sigma_bins: float, valley_frac: float,
                 window: float) -> None:
        self.bin_us = within_us(bin_width)
        self.sigma_bins = sigma_bins
        self.valley_frac = valley_frac
        self.window_us = within_us(window)
        self._buffer: List[Action] = []
        self._newest = 0          # the buffer's latest stamp, when nonempty

    def feed(self, action: Action, elapsed_us: Optional[int]) -> List[List[Action]]:
        closed: List[List[Action]] = []
        if self._buffer and action.ts - self._buffer[0].ts > self.window_us:
            episodes = self._extract(self._buffer)
            if len(episodes) == 1:
                closed.extend(episodes)
                self._buffer = []
            else:
                closed.extend(episodes[:-1])
                self._buffer = episodes[-1]
        elif self._buffer and self._newest - action.ts > self.window_us:
            closed = self.flush()
        self._newest = max(self._newest, action.ts) if self._buffer else action.ts
        self._buffer.append(action)
        return closed

    def horizon(self, last_ts: int) -> Optional[int]:
        """last_ts + window: after a window without alerts the buffered
        episodes are over."""
        return last_ts + self.window_us if self._buffer else None

    def flush(self) -> List[List[Action]]:
        out = self._extract(self._buffer) if self._buffer else []
        self._buffer = []
        return out

    def _extract(self, actions: List[Action]) -> List[List[Action]]:
        ts = np.array([a.ts for a in actions], dtype=np.int64)
        bins = (ts - ts.min()) // self.bin_us
        # empty bins out of the kernel's reach of any action smooth to 0,
        # and one such bin cuts where a longer run of them does: shorten
        # every longer run to one, so that the bins grow with the actions
        # and not with the time they span
        occupied = np.unique(bins)
        longest = 2 * kernel_reach(self.sigma_bins) + 2
        excess = np.maximum(np.diff(occupied, prepend=0) - longest, 0)
        bins -= np.cumsum(excess)[np.searchsorted(occupied, bins)]
        counts = np.bincount(bins)
        smoothed = gaussian_smooth(counts, self.sigma_bins)
        cut_bins = self._valleys(smoothed)
        if not cut_bins:
            return [list(actions)]
        episode_of = np.searchsorted(np.asarray(cut_bins), bins, side="left")
        episodes: List[List[Action]] = [[] for _ in range(len(cut_bins) + 1)]
        for action, ep in zip(actions, episode_of):
            episodes[ep].append(action)
        return [ep for ep in episodes if ep]

    def _valleys(self, s: np.ndarray) -> List[int]:
        candidates = [i for i in range(1, len(s) - 1)
                      if s[i] < s[i - 1] and s[i] <= s[i + 1]]
        accepted: List[int] = []
        prev = 0
        for idx, m in enumerate(candidates):
            right_end = candidates[idx + 1] if idx + 1 < len(candidates) else len(s)
            left_peak = s[prev:m].max()
            right_peak = s[m + 1:right_end].max() if m + 1 < right_end else 0.0
            if s[m] < self.valley_frac * min(left_peak, right_peak):
                accepted.append(m)
                prev = m + 1
        return accepted


def kernel_reach(sigma_bins: float) -> int:
    """Half-width in bins of gaussian_smooth's kernel (+/-4 sigma)."""
    return int(4.0 * sigma_bins + 0.5)


def gaussian_smooth(counts: np.ndarray, sigma_bins: float) -> np.ndarray:
    """Convolve with a normalized Gaussian kernel truncated at +/-4 sigma,
    zero padding at the edges."""
    lw = kernel_reach(sigma_bins)
    x = np.arange(-lw, lw + 1, dtype=float)
    kernel = np.exp(-(x * x) / (2.0 * sigma_bins * sigma_bins))
    kernel /= kernel.sum()
    # full convolution sliced back to the input frame; mode="same" misaligns
    # whenever the kernel is longer than the input
    full = np.convolve(counts.astype(float), kernel)
    return full[lw:lw + len(counts)]


def ks_statistic(x: Sequence[float], y: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F1 - F2|."""
    xs = np.sort(np.asarray(x, dtype=float))
    ys = np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, pooled, side="right") / len(xs)
    cdf_y = np.searchsorted(ys, pooled, side="right") / len(ys)
    return float(np.abs(cdf_x - cdf_y).max())


def ks_critical(alpha: float, n: int, m: int) -> float:
    """Asymptotic two-sample critical value at significance alpha."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


class ControlChartSegmenter:
    """Split when a log-gap control chart signals and a KS test confirms.

    The chart tracks mean and standard deviation of log10(gap) over the open
    aggregate (Welford updates).  A gap beyond mean + 3 sd with at least
    window_n prior gap observations triggers a two-sample KS test of the
    last window_n gaps against the earlier ones; a significant statistic
    closes the aggregate at the signal point.
    """

    def __init__(self, window_n: int, ks_alpha: float) -> None:
        self.window_n = window_n
        self.ks_alpha = ks_alpha
        self._reset([])

    def feed(self, action: Action, elapsed_us: Optional[int]) -> List[List[Action]]:
        if not self._buffer:
            self._buffer.append(action)
            return []
        g = max(elapsed_us or 0, 0) / 1e6
        lg = math.log10(max(g, 1e-6))  # clamp keeps zero gaps finite
        limit = self._limit()
        if limit is not None and lg > limit and self._confirms(self._gaps + [g]):
            closed = self._buffer
            self._reset([action])
            return [closed]
        self._buffer.append(action)
        self._gaps.append(g)
        self._n += 1
        delta = lg - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (lg - self._mean)
        return []

    def horizon(self, last_ts: int) -> Optional[int]:
        """The end of the first silence that both signals and outlasts
        every gap in the buffer, when KS confirms a gap ranked largest.

        Past it the next gap signals and is the largest of the pooled
        gaps, and the KS statistic depends on ranks only, so the cut is
        decided.  None before window_n gaps or when KS would not confirm."""
        limit = self._limit()
        if limit is None or not self._confirms(self._gaps + [math.inf]):
            return None
        top = max(self._gaps)
        silence = longest_quiet_us(
            lambda d: d / 1e6 <= top or math.log10(max(d / 1e6, 1e-6)) <= limit)
        return None if silence is None else last_ts + silence

    def _limit(self) -> Optional[float]:
        """The signal level mean + 3 sd of the log-gaps, once window_n gaps
        are in; None before."""
        if self._n < self.window_n:
            return None
        sd = math.sqrt(self._m2 / (self._n - 1)) if self._n >= 2 else 0.0
        return self._mean + 3.0 * sd

    def _confirms(self, pooled: List[float]) -> bool:
        """KS test of the last window_n pooled gaps against the earlier ones."""
        recent = pooled[-self.window_n:]
        earlier = pooled[:-self.window_n]
        return bool(earlier) and ks_statistic(recent, earlier) > ks_critical(
            self.ks_alpha, len(recent), len(earlier))

    def _reset(self, buffer: List[Action]) -> None:
        self._buffer = buffer
        self._gaps: List[float] = []
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def flush(self) -> List[List[Action]]:
        out = [self._buffer] if self._buffer else []
        self._reset([])
        return out


# segmenter name -> its constructor from the run's settings (a RunConfig)
SEGMENTERS = {
    "threshold": lambda c: ThresholdSegmenter(c.tau),
    "gaussian": lambda c: GaussianSegmenter(c.bin_width, c.sigma_bins,
                                            c.valley_frac, c.window),
    "controlchart": lambda c: ControlChartSegmenter(c.window_n, c.ks_alpha),
}
