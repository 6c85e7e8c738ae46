"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (pure Python
loops, math.log, scipy where a well-known implementation exists) so that the
vectorized production code can be validated against a second route.  Nothing
in this module imports from alertsynth.
"""

import ipaddress
import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage, stats


def pmf_by_counting(values: Sequence[int], size: int) -> List[float]:
    """Empirical pmf over range(size) by plain dict counting."""
    counts = Counter(values)
    n = len(values)
    assert n > 0, "empty value list"
    return [counts.get(i, 0) / n for i in range(size)]


def smoothed_ref(counts: Sequence[float], eps: float) -> List[float]:
    total = sum(counts)
    assert total > 0, "all-zero counts"
    p = [c / total for c in counts]
    p = [eps if x == 0 else x for x in p]
    s = sum(p)
    return [x / s for x in p]


def cross_entropy_ref(p: Sequence[float], q: Sequence[float]) -> float:
    assert len(p) == len(q)
    out = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            out -= pi * math.log(qi)
    return out


def kl_ref(p: Sequence[float], q: Sequence[float]) -> float:
    assert len(p) == len(q)
    out = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            out += pi * math.log(pi / qi)
    return out


def jsd_component_ref(p: Sequence[float], q: Sequence[float]) -> float:
    avg = [(pi + qi) / 2 for pi, qi in zip(p, q)]
    return 0.5 * kl_ref(p, avg) + 0.5 * kl_ref(q, avg)


def model_distance_ref(pmfs: Sequence[Sequence[float]],
                       counts: Sequence[Sequence[float]],
                       weights: Sequence[float], eps: float) -> float:
    """Weighted cross-entropy of aggregate pmfs against a model's smoothed
    per-component counts, one component at a time."""
    return sum(w * cross_entropy_ref(p, smoothed_ref(c, eps))
               for w, p, c in zip(weights, pmfs, counts))


def model_jsd_ref(counts_a: Sequence[Sequence[float]],
                  counts_b: Sequence[Sequence[float]],
                  weights: Sequence[float], eps: float) -> float:
    """Weighted JSD of two models' smoothed per-component counts."""
    return sum(w * jsd_component_ref(smoothed_ref(a, eps), smoothed_ref(b, eps))
               for w, a, b in zip(weights, counts_a, counts_b))


def ip_key_ref(text: str) -> Tuple[int, int]:
    """(version, int) key of an address literal, straight from ipaddress."""
    addr = ipaddress.ip_address(text)
    return addr.version, int(addr)


def mapping_rows(path: str, fields: int) -> List[Tuple[str, ...]]:
    """Data rows of a packaged mapping CSV, split into `fields` stripped
    fields from the right; blank and # lines and the header row dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    rows = [tuple(f.strip() for f in line.rsplit(",", fields - 1))
            for line in lines if line and not line.startswith("#")]
    return rows[1:]


def ais_label_ref(sig_id: int, text: str, rows: Sequence[Tuple[str, str]]) -> str:
    """Intent label by the ais_map.csv rules: a signature-id row first, then
    the first keyword row (file order) found in the text, any case, then
    Discovery."""
    for key, label in rows:
        if key.isdigit() and int(key) == sig_id:
            return label
    for key, label in rows:
        if not key.isdigit() and key.lower() in text.lower():
            return label
    return "Discovery"


def service_label_ref(port: Optional[int], proto: str,
                      rows: Sequence[Tuple[int, str, str]]) -> str:
    """Service label by the port_table.csv rules ("any" is tcp and udp),
    then reserved (no port or 0), ephemeral (49152 up) or other."""
    for row_port, row_proto, label in rows:
        if row_port == port and proto in (("tcp", "udp") if row_proto == "any"
                                          else (row_proto,)):
            return label
    if port is None or port == 0:
        return "reserved"
    return "ephemeral" if port >= 49152 else "other"


def decay_ref(value: float, dt_seconds: float, window_seconds: float) -> float:
    """Exponential decay with half-life = window / 2."""
    return value * 2.0 ** (-dt_seconds / (window_seconds / 2.0))


def admission_bound_ref(weights: Sequence[float], cards: Sequence[int],
                        gamma: float) -> float:
    return sum(w * math.log(c) for w, c in zip(weights, cards)) - math.log(gamma)


class ModelRef:
    """One model of ModelSetRef: per-component count lists and its stamps."""

    def __init__(self, model_id: int, counts: List[List[float]],
                 evidence: float, now: int) -> None:
        self.model_id = model_id
        self.counts = counts
        self.evidence = evidence
        self.created_at = now
        self.last_update_ts = now


class ModelSetRef:
    """The evolving model set written from its definitions: at each call
    every model decays from the last call's stamp (decay_ref), an aggregate
    joins the nearest model (model_distance_ref, first model on a tie) when
    that distance is under admission_bound_ref and otherwise founds a
    model, and then the closest pair of all pairs (model_jsd_ref, first
    pair on a tie) merges into the one with more evidence (the first on a
    tie) until no pair is under the merge threshold.  retire_pass drops
    models under the evidence floor that have had no update for over a
    window.  Stamps are microseconds, window seconds.

    margins holds the smallest |h_star - bound| and |JSD - threshold| met,
    so that a near tie shows before it flips a decision."""

    def __init__(self, weights: Sequence[float], cards: Sequence[int],
                 gamma: float, window: float, merge_threshold: float,
                 retire_floor: float, eps: float) -> None:
        self.weights = list(weights)
        self.window = window
        self.merge_threshold = merge_threshold
        self.retire_floor = retire_floor
        self.eps = eps
        self.bound = admission_bound_ref(weights, cards, gamma)
        self.models: List[ModelRef] = []
        self.created = 0
        self.clock: Optional[int] = None
        self.margins = {"h_star": math.inf, "jsd": math.inf}

    def decay_to(self, now: int) -> None:
        if self.clock is not None:
            assert now >= self.clock, "clock moved backwards"
            dt = (now - self.clock) / 1e6
            for m in self.models:
                m.counts = [[decay_ref(c, dt, self.window) for c in comp]
                            for comp in m.counts]
                m.evidence = decay_ref(m.evidence, dt, self.window)
        self.clock = now

    def observe(self, pmfs: Sequence[Sequence[float]], n: int, now: int
                ) -> Tuple[int, str, Optional[float], List[Tuple[int, int]]]:
        """(model id, associate or create, h_star, merges) of one aggregate
        given by its component pmfs and size."""
        self.decay_to(now)
        nearest, h_star = None, None
        for m in self.models:
            d = model_distance_ref(pmfs, m.counts, self.weights, self.eps)
            if h_star is None or d < h_star:
                nearest, h_star = m, d
        if h_star is not None:
            self.margins["h_star"] = min(self.margins["h_star"],
                                         abs(h_star - self.bound))
        if h_star is not None and h_star < self.bound:
            model, action = nearest, "associate"
            model.counts = [[c + n * p for c, p in zip(comp, pmf)]
                            for comp, pmf in zip(model.counts, pmfs)]
            model.evidence += n
            model.last_update_ts = now
        else:
            model, action = ModelRef(self.created,
                                     [[n * p for p in pmf] for pmf in pmfs],
                                     float(n), now), "create"
            self.created += 1
            self.models.append(model)
        return model.model_id, action, h_star, self.merge_scan()

    def merge_scan(self) -> List[Tuple[int, int]]:
        """(absorbed id, surviving id) of each merge, in order."""
        merges = []
        while len(self.models) >= 2:
            best = None
            for i, a in enumerate(self.models):
                for j in range(i + 1, len(self.models)):
                    d = model_jsd_ref(a.counts, self.models[j].counts,
                                      self.weights, self.eps)
                    self.margins["jsd"] = min(self.margins["jsd"],
                                              abs(d - self.merge_threshold))
                    if best is None or d < best[0]:
                        best = (d, i, j)
            d, i, j = best
            if d >= self.merge_threshold:
                break
            keeper, loser = self.models[i], self.models[j]
            if loser.evidence > keeper.evidence:
                keeper, loser = loser, keeper
            keeper.counts = [[x + y for x, y in zip(a, b)]
                             for a, b in zip(keeper.counts, loser.counts)]
            keeper.evidence += loser.evidence
            keeper.created_at = min(keeper.created_at, loser.created_at)
            keeper.last_update_ts = max(keeper.last_update_ts,
                                        loser.last_update_ts)
            self.models.remove(loser)
            merges.append((loser.model_id, keeper.model_id))
        return merges

    def retire_pass(self, now: int) -> List[int]:
        """Ids of the models retired at now."""
        self.decay_to(now)
        retired = [m for m in self.models if m.evidence < self.retire_floor
                   and (now - m.last_update_ts) / 1e6 > self.window]
        self.models = [m for m in self.models if m not in retired]
        return [m.model_id for m in retired]


def gaussian_smooth_ref(counts: Sequence[float], sigma_bins: float) -> np.ndarray:
    """Gaussian smoothing with zero padding and a +/-4 sigma kernel."""
    return ndimage.gaussian_filter1d(
        np.asarray(counts, dtype=float), sigma=sigma_bins,
        mode="constant", cval=0.0, truncate=4.0)


def ks_stat_ref(x: Sequence[float], y: Sequence[float]) -> float:
    return float(stats.ks_2samp(x, y, method="asymp").statistic)


def ks_critical_ref(alpha: float, n: int, m: int) -> float:
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n + m) / (n * m))


def controlchart_boundaries_ref(gaps: Sequence[float], window_n: int,
                                ks_alpha: float) -> List[int]:
    """Offline replay of the control-chart rule, scipy KS route.

    gaps[k] is the gap that precedes action k+1.  Returns indices into the
    gap sequence at which an aggregate was closed (the gap became the first
    gap of a new aggregate).
    """
    boundaries = []
    cur: List[float] = []
    count, mean, m2 = 0, 0.0, 0.0
    for k, g in enumerate(gaps):
        lg = math.log10(max(g, 1e-6))
        sd = math.sqrt(m2 / (count - 1)) if count >= 2 else 0.0
        signal = count >= window_n and lg > mean + 3.0 * sd
        closed = False
        if signal:
            pooled = cur + [g]
            recent = pooled[-window_n:]
            earlier = pooled[:-window_n]
            if earlier:
                d = ks_stat_ref(recent, earlier)
                crit = ks_critical_ref(ks_alpha, len(recent), len(earlier))
                if d > crit:
                    boundaries.append(k)
                    cur = []
                    count, mean, m2 = 0, 0.0, 0.0
                    closed = True
        if not closed:
            cur.append(g)
            count += 1
            delta = lg - mean
            mean += delta / count
            m2 += delta * (lg - mean)
    return boundaries


def purity_ref(labels: Sequence[str], assigned: Sequence[int]) -> float:
    """Purity over the given label/assignment pairs, dict-counting route."""
    per_label: Dict[str, Counter] = {}
    for lab, mid in zip(labels, assigned):
        per_label.setdefault(lab, Counter())[mid] += 1
    num = sum(max(c.values()) for c in per_label.values())
    den = sum(sum(c.values()) for c in per_label.values())
    return num / den


def autocorr_peak_ref(series: Sequence[float], max_lag: int) -> int:
    """Lag in [1, max_lag] with the largest biased autocorrelation."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    assert denom > 0
    best_lag, best_val = 1, -np.inf
    for lag in range(1, max_lag + 1):
        val = float(np.dot(x[:-lag], x[lag:])) / denom
        if val > best_val:
            best_lag, best_val = lag, val
    return best_lag
