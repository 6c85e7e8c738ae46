"""Segmentation of per-stream action sequences into aggregates.

Three pluggable segmenters split each stream where its temporal texture
changes: a fixed gap threshold, Gaussian smoothing of alert volume with
valley detection, and a control chart on log-gaps confirmed by a
two-sample Kolmogorov-Smirnov test.  A closed run of actions becomes an
Aggregate carrying per-component empirical pmfs.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .action_space import COMPONENTS, Action, ConfigError


@dataclass
class Aggregate:
    """A temporally contiguous batch of actions from one stream."""

    raw_seqs: List[int]          # of the actions, in arrival order
    vec: np.ndarray              # the component pmfs side by side
    pmfs: List[np.ndarray]       # views of vec per component, each sums to 1
    n: int
    t_start: int
    t_end: int
    stream_id: str


def build_aggregate(actions: Sequence[Action],
                    cardinalities: Tuple[int, int, int, int]) -> Aggregate:
    """Empirical pmfs of a nonempty action batch: one bincount of offset values."""
    assert len(actions) > 0, "aggregate needs at least one action"
    n = len(actions)
    edges = list(accumulate(cardinalities, initial=0))
    vec = np.bincount([getattr(a, name) + offset for a in actions
                       for name, offset in zip(COMPONENTS, edges)],
                      minlength=edges[-1]) / n
    ts = [a.ts for a in actions]
    return Aggregate(raw_seqs=[a.raw_seq for a in actions], vec=vec,
                     pmfs=[vec[a:b] for a, b in zip(edges, edges[1:])],
                     n=n, t_start=min(ts), t_end=max(ts), stream_id=actions[0].stream_id)


class ThresholdSegmenter:
    """Boundary wherever the gap between consecutive actions exceeds tau."""

    def __init__(self, tau: float) -> None:
        self.tau = tau
        self._buffer: List[Action] = []

    def feed(self, action: Action, gap: Optional[float]) -> List[List[Action]]:
        closed = []
        if self._buffer and gap is not None and gap > self.tau:
            closed.append(self._buffer)
            self._buffer = []
        self._buffer.append(action)
        return closed

    def flush(self) -> List[List[Action]]:
        out = [self._buffer] if self._buffer else []
        self._buffer = []
        return out


class GaussianSegmenter:
    """Episodes from valleys in the Gaussian-smoothed alert volume.

    Actions are buffered over a closed window; when the buffer span exceeds
    the window, episodes are extracted and all but the newest are emitted.
    """

    def __init__(self, bin_width: float, sigma_bins: float, valley_frac: float,
                 window: float) -> None:
        self.bin_width = bin_width
        self.sigma_bins = sigma_bins
        self.valley_frac = valley_frac
        self.window = window
        self._buffer: List[Action] = []

    def feed(self, action: Action, gap: Optional[float]) -> List[List[Action]]:
        closed: List[List[Action]] = []
        if self._buffer and (action.ts - self._buffer[0].ts) / 1e6 > self.window:
            episodes = self._extract(self._buffer)
            if len(episodes) == 1:
                closed.extend(episodes)
                self._buffer = []
            else:
                closed.extend(episodes[:-1])
                self._buffer = episodes[-1]
        self._buffer.append(action)
        return closed

    def flush(self) -> List[List[Action]]:
        out = self._extract(self._buffer) if self._buffer else []
        self._buffer = []
        return out

    def _extract(self, actions: List[Action]) -> List[List[Action]]:
        ts = np.array([a.ts for a in actions], dtype=np.int64)
        bins = ((ts - ts.min()) / 1e6 // self.bin_width).astype(int)
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


def gaussian_smooth(counts: np.ndarray, sigma_bins: float) -> np.ndarray:
    """Convolve with a normalized Gaussian kernel truncated at +/-4 sigma,
    zero padding at the edges."""
    lw = int(4.0 * sigma_bins + 0.5)
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

    def feed(self, action: Action, gap: Optional[float]) -> List[List[Action]]:
        if not self._buffer:
            self._buffer.append(action)
            return []
        g = max(gap if gap is not None else 0.0, 0.0)
        lg = math.log10(max(g, 1e-6))  # clamp keeps zero gaps finite
        if self._signals(lg):
            pooled = self._gaps + [g]
            recent = pooled[-self.window_n:]
            earlier = pooled[:-self.window_n]
            if earlier:
                d = ks_statistic(recent, earlier)
                if d > ks_critical(self.ks_alpha, len(recent), len(earlier)):
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

    def _signals(self, lg: float) -> bool:
        if self._n < self.window_n:
            return False
        sd = math.sqrt(self._m2 / (self._n - 1)) if self._n >= 2 else 0.0
        return lg > self._mean + 3.0 * sd

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


def make_segmenter(name: str, *, tau: float, bin_width: float, sigma_bins: float,
                   valley_frac: float, window_n: int, ks_alpha: float,
                   window: float):
    """Fresh per-stream segmenter of the configured kind."""
    if name == "threshold":
        return ThresholdSegmenter(tau)
    if name == "gaussian":
        return GaussianSegmenter(bin_width, sigma_bins, valley_frac, window)
    if name == "controlchart":
        return ControlChartSegmenter(window_n, ks_alpha)
    raise ConfigError(f"unknown segmenter {name!r}")
