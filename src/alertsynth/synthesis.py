"""Attack-model synthesis: the evolving model set.

Each model is a set of per-component weighted count vectors with an
effective evidence count that decays exponentially (half-life = half the
moving window).  Aggregates are assigned to the nearest model by weighted
cross-entropy, or spawn a new model when no model beats the closed-form
admission bound.  Near-duplicate models are merged by weighted
Jensen-Shannon divergence; starved models are retired.

Distances are defined on per-component marginal pmfs and combined as a
weighted sum, so every divergence here reduces to its single-component
textbook form when one weight is 1.  Those forms (cross_entropy,
kl_divergence, binary_entropy, jsd_component) take raw pmfs and run on the
cross-entropy row kernel that scores aggregates, neg_cross_entropy_rows,
with weight 1 over the cells where p > 0.  The weighted JSD of ModelSet and
jsd has its own row kernel, jsd_rows, and every smoothed pmf, from a single
count vector to a model set's whole counts matrix, comes from one smoothing
kernel, smooth_rows.

A merge scan can be skipped when count supports alone prove that no pair
is under the merge threshold.  Smoothing leaves under delta = n * eps of a
pmf's mass outside its count support over n cells.  If two rows' supports
are disjoint in a component, coarse-graining that component into (support
of the first row, the rest) gives binary pmfs (a, 1 - a) and (b, 1 - b)
with a > 1 - delta and b < delta; by the data-processing inequality their
JSD is at most the component's, and over that box the binary JSD is least
at the corner, ln 2 - h(delta), h the binary entropy (Lin, IEEE Trans.
Inf. Theory 37(1), 1991).  A component whose weight times that floor is
above the threshold separates any pair disjoint in it (separating_masks,
separated).
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .action_space import COMPONENTS, ConfigError, WeightConfig
from .aggregation import Aggregate, within_us


@dataclass
class SynthConfig:
    """Knobs of the synthesis stage; all finite and positive, gamma in (0, 1]."""

    gamma: float = 2.0 / 3.0
    weights: WeightConfig = WeightConfig.normalized(0.3, 0.3, 0.3, 0.1)
    ewma_window: float = 21600.0      # seconds
    merge_threshold: float = 0.15     # nats
    retire_floor: float = 1.0         # evidence units
    smoothing_eps: float = 1e-6

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        for name in ("ewma_window", "merge_threshold", "retire_floor", "smoothing_eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive")


@dataclass(eq=False)
class AttackModel:
    """One live model: per-component count vectors plus lifecycle stamps."""

    model_id: int
    counts: List[np.ndarray]
    evidence: float
    created_at: int
    last_update_ts: int
    last_decay_ts: int

    def pmf(self, component: int) -> np.ndarray:
        c = self.counts[component]
        return c / c.sum()


def component_layout(sizes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """For count vectors of the given sizes side by side: the start column
    of each component, and the component of each column."""
    return (np.cumsum((0, *sizes[:-1])),
            np.repeat(np.arange(len(sizes)), sizes))


def smooth_rows(counts: np.ndarray, layout: Tuple[np.ndarray, np.ndarray],
                eps: float) -> np.ndarray:
    """Smoothed pmfs of rows of side-by-side count vectors laid out as
    component_layout gives: each component normalized, its zero cells
    floored at eps, renormalized.  Each sum is one reduceat over the
    component starts, which sends every segment through the same summation
    loop (not a left-to-right one), so a row comes out the same bits
    whether it is smoothed alone, as a 1-D row, or among others."""
    starts, component = layout
    totals = np.add.reduceat(counts, starts, axis=-1)
    # over a list, far cheaper than an array compare for one row; NaN fails
    assert all(map((0.0).__lt__, totals.ravel().tolist())), \
        "smoothing needs nonzero count vectors"
    p = counts / totals.take(component, axis=-1)
    np.putmask(p, p == 0, eps)
    return p / np.add.reduceat(p, starts, axis=-1).take(component, axis=-1)


def smoothed_pmf(counts: np.ndarray, eps: float) -> np.ndarray:
    """Normalize a count vector, floor zero cells at eps, renormalize."""
    return smooth_rows(counts, component_layout((len(counts),)), eps)


def cross_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """H(p, q) = -sum p ln q in nats; cells with p = 0 contribute nothing."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    assert p.shape == q.shape, "pmf dimension mismatch"
    on = p > 0
    return float(-neg_cross_entropy_rows(np.log(q[on]), 1.0, p[on]))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) = H(p, q) - H(p) in nats with the 0 ln 0 = 0 convention."""
    return cross_entropy(p, q) - cross_entropy(p, p)


def jsd_component(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence of two pmfs over one component, in nats."""
    avg = 0.5 * (np.asarray(p, dtype=float) + np.asarray(q, dtype=float))
    return 0.5 * kl_divergence(p, avg) + 0.5 * kl_divergence(q, avg)


def smoothed_rows(models: Sequence[AttackModel], eps: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per model one row of its smoothed component pmfs side by side, and logs."""
    counts = np.array([np.concatenate(m.counts) for m in models])
    smoothed = smooth_rows(
        counts, component_layout([len(c) for c in models[0].counts]), eps)
    return smoothed, np.log(smoothed)


def neg_cross_entropy_rows(logq: np.ndarray, wcol: np.ndarray,
                           vec: np.ndarray) -> np.ndarray:
    """Weighted cross-entropy of the side-by-side pmfs vec against every row,
    negated (negation is exact, so callers negate the one value they keep)."""
    return logq @ (wcol * vec)


def jsd_rows(smoothed: np.ndarray, logq: np.ndarray, wcol: np.ndarray,
             k: int) -> np.ndarray:
    """Weighted JSD between row k and every row (exactly 0 at k)."""
    p, logp = smoothed[k], logq[k]
    log_avg = np.log(0.5 * (smoothed + p))
    return 0.5 * (((logp - log_avg) * p + smoothed * (logq - log_avg)) @ wcol)


def jsd(qi: AttackModel, qj: AttackModel, weights: WeightConfig,
        eps: float) -> float:
    """Weighted sum of per-component JSDs between two models' smoothed pmfs."""
    smoothed, logq = smoothed_rows([qi, qj], eps)
    wcol = np.repeat(weights.vector, [len(c) for c in qi.counts])
    return float(jsd_rows(smoothed, logq, wcol, 0)[1])


def model_distance(agg: Aggregate, model: AttackModel, weights: WeightConfig,
                   eps: float) -> float:
    """Weighted cross-entropy between aggregate pmfs and smoothed model pmfs."""
    _, logq = smoothed_rows([model], eps)
    wcol = np.repeat(weights.vector, [len(c) for c in model.counts])
    return -float(neg_cross_entropy_rows(logq, wcol, agg.vec)[0])


def binary_entropy(x: float) -> float:
    """h(x) = -x ln x - (1 - x) ln(1 - x) in nats, for x in [0, 1]."""
    return cross_entropy((x, 1.0 - x), (x, 1.0 - x))


def disjoint_jsd_floor(n: int, eps: float) -> float:
    """Lower bound on the JSD of two eps-smoothed pmfs over n cells whose
    count supports are disjoint: ln 2 - h(n * eps), or 0 once n * eps
    reaches 1/2 and the bound no longer holds."""
    delta = n * eps
    return math.log(2.0) - binary_entropy(delta) if delta < 0.5 else 0.0


# covers jsd_rows' rounding, and other components' terms rounded below 0
JSD_FLOOR_SLACK = 1e-9


def separating_masks(weights: WeightConfig, cardinalities: Sequence[int],
                     eps: float, threshold: float) -> List[int]:
    """Column bitmask (bit i for column i of the side-by-side rows) of each
    component in which disjoint count supports alone put two rows' weighted
    JSD above threshold."""
    masks, start = [], 0
    for w, n in zip(weights.vector, cardinalities):
        if w * disjoint_jsd_floor(n, eps) - JSD_FLOOR_SLACK > threshold:
            masks.append(((1 << n) - 1) << start)
        start += n
    return masks


def support_bits(row: np.ndarray) -> int:
    """Bitset of a row's nonzero columns, bit i for column i."""
    return int.from_bytes(np.packbits(row > 0, bitorder="little").tobytes(),
                          "little")


def separated(supports: Sequence[int], masks: Sequence[int], k: int) -> bool:
    """Whether every row other than k shares no support column with row k in
    some masked component, which, with the masks of separating_masks and
    supports that cover the rows' nonzero counts, proves that no row is
    within the threshold of row k.  With no masks, no row is separated."""
    parts = [supports[k] & m for m in masks]
    for j, s in enumerate(supports):
        if j != k:
            for p in parts:
                if not s & p:
                    break
            else:
                return False
    return True


def admission_bound(weights: WeightConfig, cardinalities: Sequence[int],
                    gamma: float) -> float:
    """Largest distance at which an aggregate may still join a model.

    With gamma = 1 this is the weighted uniform cross-entropy over the
    action space; smaller gamma relaxes admission (raises the bound).
    """
    return sum(w * math.log(c) for w, c in
               zip(weights.vector, cardinalities)) - math.log(gamma)


def decay(model: AttackModel, now: int, window: float) -> AttackModel:
    """Exponential decay of all counts and evidence to time now, in place
    (half-life window / 2)."""
    assert now >= model.last_decay_ts, "decay clock moved backwards"
    if now > model.last_decay_ts:
        f = 0.5 ** ((now - model.last_decay_ts) / 1e6 / (window / 2.0))
        for c in model.counts:
            c *= f
        model.evidence *= f
        model.last_decay_ts = now
    return model


def create_model(agg: Aggregate, now: int, model_id: int) -> AttackModel:
    """Fresh model whose pmfs equal the aggregate's pmfs, evidence n."""
    counts = [agg.n * p for p in agg.pmfs]
    return AttackModel(model_id=model_id, counts=counts, evidence=float(agg.n),
                       created_at=now, last_update_ts=now, last_decay_ts=now)


@dataclass(slots=True)
class Admission:
    """Outcome of presenting one aggregate to the model set."""

    model_id: int
    action: str                      # associate | create
    h_star: Optional[float]
    merges: List[Tuple[int, int]]    # (absorbed id, surviving id)


class ModelSet:
    """The evolving model collection; single writer, snapshot readers.

    Three matrices hold one row per live model, in list order, over the
    components' columns side by side (88 with the packaged tables): counts,
    smoothed pmfs and their logs.  A live model's counts are views of its
    counts row, so decay and merges write the matrix in place, and an
    associate is one fold of the aggregate's vector into that row.
    Scoring is one matvec and a merge scan one JSD row; best_model returns
    a row index, and observe and merge_pass work on rows, so no admission
    searches the model list.  The matrices follow the models: assigning
    models (create, merge, retire) copies the counts into a fresh matrix,
    re-points the views and smooths every row, and an associate re-smooths
    its own row in one smooth_rows call.  Models that leave the set keep
    views of the old matrix.  Merging keeps no pairwise matrix: each merge
    pass scans one JSD row, from the row an admission touched, then from
    the keeper's row after each merge (merge_pass says why that suffices).

    Before scanning a row, merge_pass tries to prove the scan futile: each
    live row keeps a bitset covering its nonzero count columns (set from
    the counts whenever models are assigned, widened by each associate's
    Aggregate.support; decay only shrinks counts), and when every other
    row is disjoint from the scanned one in some component whose weighted
    JSD floor is above the merge threshold (see the module docstring), no
    pair can merge and the pass ends.  Otherwise the exact scan runs; identical
    rows always overlap, so they are still scored exactly 0.
    """

    def __init__(self, config: SynthConfig, cardinalities: Sequence[int],
                 vocabularies: Sequence[Sequence[str]]) -> None:
        self.config = config
        self.vocabularies = [tuple(v) for v in vocabularies]
        # each label's position in its vocabulary's sorted order
        self._label_rank = [np.argsort(np.argsort(np.array(v, dtype=str)))
                            for v in self.vocabularies]
        # (component, label) of each column of the side-by-side rows
        self.column_labels = [(name, label) for name, vocab
                              in zip(COMPONENTS, self.vocabularies)
                              for label in vocab]
        self.genealogy: Dict[int, int] = {}   # absorbed id -> surviving id
        self.created_total = 0
        self.merged_total = 0
        self.retired_total = 0
        self.bound = admission_bound(config.weights, cardinalities, config.gamma)
        self._window_us = within_us(config.ewma_window)
        self._clock: Optional[int] = None
        # each component's weight repeated over its vocabulary's columns
        self._wcol = np.repeat(config.weights.vector, cardinalities)
        edges = np.cumsum((0, *cardinalities)).tolist()
        self._spans = list(zip(edges, edges[1:]))   # each component's columns
        self._layout = component_layout(cardinalities)
        self._separating = separating_masks(
            config.weights, cardinalities, config.smoothing_eps,
            config.merge_threshold)
        self.models = []

    @property
    def models(self) -> List[AttackModel]:
        return self._models

    @models.setter
    def models(self, models: List[AttackModel]) -> None:
        """Store the list, copy the counts into a fresh matrix, re-point each
        model's counts at its row, and smooth every row and take its
        support."""
        self._models = models
        self._counts = np.empty((len(models), len(self._wcol)))
        for m, row in zip(models, self._counts):
            np.concatenate(m.counts, out=row)
            m.counts = [row[a:b] for a, b in self._spans]
        self._support = [support_bits(row) for row in self._counts]
        self._smoothed = smooth_rows(self._counts, self._layout,
                                     self.config.smoothing_eps)
        self._logq = np.log(self._smoothed)

    # -- lifecycle ---------------------------------------------------------

    def decay_all(self, now: int) -> None:
        """Decay every model to now and advance the shared decay clock to
        it; the first call starts the clock there."""
        assert self._clock is None or now >= self._clock, \
            "admission clock moved backwards"
        if now == self._clock:
            return
        for m in self.models:
            decay(m, now, self.config.ewma_window)
        self._clock = now

    def best_model(self, agg: Aggregate) -> Optional[Tuple[int, float]]:
        """Row of the model minimizing the weighted cross-entropy distance,
        and that distance; ties go to the lowest row, which holds the lowest
        model id."""
        if not self.models:
            return None
        neg = neg_cross_entropy_rows(self._logq, self._wcol, agg.vec)
        k = int(neg.argmax())  # the first maximum of neg is the first minimum
        return k, -float(neg[k])

    def admit(self, h_star: Optional[float]) -> str:
        """associate iff h_star beats the admission bound (strict)."""
        if h_star is not None and h_star < self.bound:
            return "associate"
        return "create"

    def observe(self, agg: Aggregate, now: int) -> Admission:
        """Assign one aggregate: decay, associate-or-create, then merge.

        An associate folds the aggregate into its model's counts row (add
        mass n to the row decay_all brought to now; the one fold of an
        aggregate into a model) and re-smooths that row."""
        self.decay_all(now)
        best = self.best_model(agg)
        h_star = best[1] if best else None
        if self.admit(h_star) == "associate":
            k = best[0]
            model = self.models[k]
            self._counts[k] += agg.n * agg.vec
            self._support[k] |= agg.support
            model.evidence += agg.n
            model.last_update_ts = now
            self._smoothed[k] = smooth_rows(self._counts[k], self._layout,
                                            self.config.smoothing_eps)
            np.log(self._smoothed[k], out=self._logq[k])
            action = "associate"
        else:
            k = len(self.models)
            model = create_model(agg, now, self.created_total)
            self.created_total += 1
            self.models = self.models + [model]
            action = "create"
        merges = self.merge_pass(k)
        return Admission(model_id=model.model_id, action=action,
                         h_star=h_star, merges=merges)

    def merge_pass(self, changed: int) -> List[Tuple[int, int]]:
        """Merge row changed with its nearest row while their JSD is under
        the threshold, then scan from the keeper's row; the smaller-evidence
        model folds into the larger, and ties go to the lowest other row.

        A finished pass leaves no pair under the threshold, and decay and
        retirement move no pmf, so only pairs involving the changed row can
        merge.  The pass ends unscanned when the supports prove that row
        separated from every other."""
        merges: List[Tuple[int, int]] = []
        while len(self.models) >= 2 and not separated(
                self._support, self._separating, changed):
            row = jsd_rows(self._smoothed, self._logq, self._wcol, changed)
            row[changed] = np.inf
            j = int(row.argmin())
            if not row[j] < self.config.merge_threshold:
                break
            # keep the larger-evidence model's row; ties keep the lower id
            i, j = min(changed, j), max(changed, j)
            keep, lose = ((i, j) if self.models[i].evidence
                          >= self.models[j].evidence else (j, i))
            keeper, loser = self.models[keep], self.models[lose]
            self._counts[keep] += self._counts[lose]
            keeper.evidence += loser.evidence
            keeper.created_at = min(keeper.created_at, loser.created_at)
            keeper.last_update_ts = max(keeper.last_update_ts, loser.last_update_ts)
            self.genealogy[loser.model_id] = keeper.model_id
            self.models = self.models[:lose] + self.models[lose + 1:]
            self.merged_total += 1
            merges.append((loser.model_id, keeper.model_id))
            changed = keep - (lose < keep)    # the keeper's row now
        return merges

    def retire_pass(self, now: int) -> List[AttackModel]:
        """Drop models below the evidence floor and idle for over a window."""
        self.decay_all(now)
        retired = [m for m in self.models
                   if m.evidence < self.config.retire_floor
                   and now - m.last_update_ts > self._window_us]
        if retired:
            self.models = [m for m in self.models if m not in retired]
            self.retired_total += len(retired)
        return retired

    def resolve(self, model_id: int) -> int:
        """Follow the merge genealogy to the surviving model id."""
        while model_id in self.genealogy:
            model_id = self.genealogy[model_id]
        return model_id

    # -- characteristics ----------------------------------------------------

    def pmf_rows(self) -> np.ndarray:
        """Each model's component pmfs side by side, one row per model."""
        return np.concatenate([c / c.sum(axis=1, keepdims=True) for c in
                               (self._counts[:, a:b] for a, b in self._spans)],
                              axis=1)

    def characteristic_features(self, pmf_rows: Optional[np.ndarray] = None
                                ) -> Dict[int, Dict[str, str]]:
        """Per model and component, the value that is prominent in this model
        yet rare everywhere else; ties go to the lexicographically first
        label.  With a single model the plain pmf mode is used.  pmf_rows,
        when given, is what pmf_rows() returns."""
        if not self.models:
            return {}
        score = self.pmf_rows() if pmf_rows is None else pmf_rows
        if len(self.models) > 1:
            # each row's max over the other rows: the column's maximum, or
            # its runner-up where the row holds the maximum
            rows = self._smoothed
            second, first = np.sort(rows, axis=0)[-2:]
            others = np.where(rows == first, second, first)
            score = score * -np.log(others)
        feats: List[Dict[str, str]] = [{} for _ in self.models]
        for name, (a, b), rank, vocab in zip(COMPONENTS, self._spans,
                                             self._label_rank, self.vocabularies):
            part = score[:, a:b]
            ties = part == part.max(axis=1, keepdims=True)
            for k, x in enumerate(np.where(ties, rank, len(rank)).argmin(axis=1)):
                feats[k][name] = vocab[x]
        return {m.model_id: f for m, f in zip(self.models, feats)}
