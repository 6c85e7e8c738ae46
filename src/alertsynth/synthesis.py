"""Attack-model synthesis: the evolving model set.

Each model is a set of per-component weighted count vectors with an
effective evidence count that decays exponentially (half-life = half the
moving window).  Aggregates are assigned to the nearest model by weighted
cross-entropy, or spawn a new model when no model beats the closed-form
admission bound.  Near-duplicate models are merged by weighted
Jensen-Shannon divergence; starved models are retired.

Distances are defined on per-component marginal pmfs and combined as a
weighted sum, so every divergence here reduces to its single-component
textbook form when one weight is 1.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .action_space import COMPONENTS, WeightConfig
from .aggregation import Aggregate


@dataclass
class SynthConfig:
    """Knobs of the synthesis stage; all positive, gamma in (0, 1]."""

    gamma: float = 2.0 / 3.0
    weights: WeightConfig = field(
        default_factory=lambda: WeightConfig.normalized(0.3, 0.3, 0.3, 0.1))
    ewma_window: float = 21600.0      # seconds
    merge_threshold: float = 0.15     # nats
    retire_floor: float = 1.0         # evidence units
    smoothing_eps: float = 1e-6


@dataclass
class AttackModel:
    """One live model: per-component count vectors plus lifecycle stamps."""

    model_id: int
    counts: List[np.ndarray]
    evidence: float
    created_at: int
    last_update_ts: int
    last_decay_ts: int
    version: int = 0                  # bumped when counts change, not on decay

    def pmf(self, component: int) -> np.ndarray:
        c = self.counts[component]
        return c / c.sum()


def smoothed_pmf(counts: np.ndarray, eps: float) -> np.ndarray:
    """Normalize counts, floor zero cells at eps, renormalize."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    assert total > 0, "smoothed_pmf needs a nonzero vector"
    p = counts / total
    p[p == 0] = eps
    return p / p.sum()


def cross_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """H(p, q) = -sum p ln q in nats; cells with p = 0 contribute nothing."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    assert p.shape == q.shape, "pmf dimension mismatch"
    mask = p > 0
    return float(-(p[mask] * np.log(q[mask])).sum())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats with the 0 ln 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    assert p.shape == q.shape, "pmf dimension mismatch"
    mask = p > 0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def jsd_component(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence of two pmfs over one component, in nats."""
    avg = 0.5 * (np.asarray(p, dtype=float) + np.asarray(q, dtype=float))
    return 0.5 * kl_divergence(p, avg) + 0.5 * kl_divergence(q, avg)


def jsd(qi: AttackModel, qj: AttackModel, weights: WeightConfig,
        eps: float) -> float:
    """Weighted sum of per-component JSDs between two models' smoothed pmfs."""
    total = 0.0
    for i, w in enumerate(weights.vector):
        total += w * jsd_component(smoothed_pmf(qi.counts[i], eps),
                                   smoothed_pmf(qj.counts[i], eps))
    return total


def model_distance(agg: Aggregate, model: AttackModel, weights: WeightConfig,
                   eps: float) -> float:
    """Weighted cross-entropy between aggregate pmfs and smoothed model pmfs."""
    total = 0.0
    for i, w in enumerate(weights.vector):
        total += w * cross_entropy(agg.pmfs[i], smoothed_pmf(model.counts[i], eps))
    return total


def admission_bound(weights: WeightConfig, cardinalities: Sequence[int],
                    gamma: float) -> float:
    """Largest distance at which an aggregate may still join a model.

    With gamma = 1 this is the weighted uniform cross-entropy over the
    action space; smaller gamma relaxes admission (raises the bound).
    """
    return sum(w * math.log(c) for w, c in
               zip(weights.vector, cardinalities)) - math.log(gamma)


def decay_factor(since: int, now: int, window: float) -> float:
    """Evidence multiplier from time since to now (half-life window / 2)."""
    return 0.5 ** ((now - since) / 1e6 / (window / 2.0))


def decay(model: AttackModel, now: int, window: float) -> AttackModel:
    """Exponential decay of all counts and evidence to time now, in place."""
    assert now >= model.last_decay_ts, "decay clock moved backwards"
    if now > model.last_decay_ts:
        f = decay_factor(model.last_decay_ts, now, window)
        for c in model.counts:
            c *= f
        model.evidence *= f
        model.last_decay_ts = now
    return model


def effective_evidence(model: AttackModel, now: int, window: float) -> float:
    """Evidence projected to time now without touching the model."""
    return model.evidence * decay_factor(model.last_decay_ts, now, window)


def update_model(model: AttackModel, agg: Aggregate, now: int,
                 config: SynthConfig) -> AttackModel:
    """Fold an associated aggregate into a model (decay, then add mass n)."""
    decay(model, now, config.ewma_window)
    for i in range(len(COMPONENTS)):
        model.counts[i] += agg.n * agg.pmfs[i]
    model.evidence += agg.n
    model.last_update_ts = now
    model.version += 1
    return model


def create_model(agg: Aggregate, now: int, model_id: int) -> AttackModel:
    """Fresh model whose pmfs equal the aggregate's pmfs, evidence n."""
    counts = [agg.n * p.astype(float) for p in agg.pmfs]
    return AttackModel(model_id=model_id, counts=counts, evidence=float(agg.n),
                       created_at=now, last_update_ts=now, last_decay_ts=now)


@dataclass
class Admission:
    """Outcome of presenting one aggregate to the model set."""

    model_id: int
    action: str                      # associate | create
    h_star: Optional[float]
    merges: List[Tuple[int, int]]    # (absorbed id, surviving id)


class ModelSet:
    """The evolving model collection; single writer, snapshot readers.

    The only cache is the per-component stack of smoothed pmfs (and their
    logs), rebuilt when a model's counts change; pure decay rescales every
    count vector by one shared factor and leaves it intact.  Merging keeps
    no pairwise matrix: a finished merge pass leaves no pair under the
    merge threshold, and decay and retirement move no pmf, so after an
    admission only pairs involving the touched model need checking, and
    after a merge only pairs involving the keeper.
    """

    def __init__(self, config: SynthConfig, cardinalities: Sequence[int],
                 vocabularies: Sequence[Sequence[str]]) -> None:
        self.config = config
        self.cardinalities = tuple(cardinalities)
        self.vocabularies = [tuple(v) for v in vocabularies]
        self.models: List[AttackModel] = []
        self.genealogy: Dict[int, int] = {}   # absorbed id -> surviving id
        self.created_total = 0
        self.merged_total = 0
        self.retired_total = 0
        self.bound = admission_bound(config.weights, self.cardinalities,
                                     config.gamma)
        self._next_id = 0
        self._clock: Optional[int] = None
        self._weights = np.array(config.weights.vector)
        self._stack_key: List[Tuple[int, int]] = []
        self._smoothed: List[np.ndarray] = []
        self._logq: List[np.ndarray] = []

    # -- lifecycle ---------------------------------------------------------

    def decay_all(self, now: int) -> None:
        """Advance the shared decay clock; one scalar rescale for all models."""
        if self._clock is None:
            self._clock = now
        assert now >= self._clock, "admission clock moved backwards"
        if now == self._clock:
            return
        for m in self.models:
            decay(m, now, self.config.ewma_window)
        self._clock = now

    def best_model(self, agg: Aggregate) -> Optional[Tuple[AttackModel, float]]:
        """Model minimizing the weighted cross-entropy distance, with ties
        broken toward the lowest model id."""
        if not self.models:
            return None
        self._refresh_stacks()
        dist = np.zeros(len(self.models))
        for i, w in enumerate(self._weights):
            dist -= w * (self._logq[i] @ agg.pmfs[i])
        k = int(np.argmin(dist))  # first hit = lowest id; list is id-sorted
        return self.models[k], float(dist[k])

    def admit(self, h_star: Optional[float]) -> str:
        """associate iff h_star beats the admission bound (strict)."""
        if h_star is not None and h_star < self.bound:
            return "associate"
        return "create"

    def observe(self, agg: Aggregate, now: int) -> Admission:
        """Assign one aggregate: decay, associate-or-create, then merge."""
        self.decay_all(now)
        best = self.best_model(agg)
        h_star = best[1] if best else None
        if self.admit(h_star) == "associate":
            model = best[0]
            update_model(model, agg, now, self.config)
            action = "associate"
        else:
            model = create_model(agg, now, self._next_id)
            self._next_id += 1
            self.created_total += 1
            self.models.append(model)
            action = "create"
        merges = self.merge_pass(model)
        return Admission(model_id=model.model_id, action=action,
                         h_star=h_star, merges=merges)

    def merge_pass(self, changed: Optional[AttackModel] = None
                   ) -> List[Tuple[int, int]]:
        """Repeatedly merge the minimum-JSD pair while it is under the
        threshold; the smaller-evidence model folds into the larger.

        With changed given, only pairs involving it (then the keeper of each
        merge) are scanned, which finds the same pairs as a full scan when
        no other pair is under the threshold.  Ties go to the lowest
        (i < j) pair."""
        merges: List[Tuple[int, int]] = []
        while len(self.models) >= 2:
            self._refresh_stacks()
            rows = (range(len(self.models)) if changed is None
                    else [self.models.index(changed)])
            best = (np.inf, 0, 0)
            for k in rows:
                row = self._jsd_row(k)
                row[k] = np.inf
                j = int(np.argmin(row))
                best = min(best, (float(row[j]), min(j, k), max(j, k)))
            dist, i, j = best
            if not dist < self.config.merge_threshold:
                break
            a, b = self.models[i], self.models[j]
            # keep the larger-evidence model's id; ties keep the lower id
            keeper, loser = (a, b) if a.evidence >= b.evidence else (b, a)
            for c in range(len(COMPONENTS)):
                keeper.counts[c] += loser.counts[c]
            keeper.evidence += loser.evidence
            keeper.created_at = min(keeper.created_at, loser.created_at)
            keeper.last_update_ts = max(keeper.last_update_ts, loser.last_update_ts)
            keeper.version += 1
            self.genealogy[loser.model_id] = keeper.model_id
            self.models.remove(loser)
            self.merged_total += 1
            merges.append((loser.model_id, keeper.model_id))
            if changed is not None:
                changed = keeper
        return merges

    def retire_pass(self, now: int) -> List[AttackModel]:
        """Drop models below the evidence floor and idle for over a window."""
        self.decay_all(now)
        window_us = self.config.ewma_window * 1e6
        retired = [m for m in self.models
                   if m.evidence < self.config.retire_floor
                   and now - m.last_update_ts > window_us]
        if retired:
            gone = {m.model_id for m in retired}
            self.models = [m for m in self.models if m.model_id not in gone]
            self.retired_total += len(retired)
        return retired

    def resolve(self, model_id: int) -> int:
        """Follow the merge genealogy to the surviving model id."""
        while model_id in self.genealogy:
            model_id = self.genealogy[model_id]
        return model_id

    # -- characteristics ----------------------------------------------------

    def characteristic_features(self) -> Dict[int, Dict[str, str]]:
        """Per model and component, the value that is prominent in this model
        yet rare everywhere else; ties go to the lexicographically first
        label.  With a single model the plain pmf mode is used."""
        out: Dict[int, Dict[str, str]] = {}
        if not self.models:
            return out
        self._refresh_stacks()
        single = len(self.models) == 1
        for k, model in enumerate(self.models):
            feats: Dict[str, str] = {}
            for i, name in enumerate(COMPONENTS):
                own = model.pmf(i)
                if single:
                    score = own
                else:
                    others = np.delete(self._smoothed[i], k, axis=0).max(axis=0)
                    score = own * -np.log(others)
                best = score.max()
                labels = [self.vocabularies[i][x]
                          for x in np.nonzero(score == best)[0]]
                feats[name] = min(labels)
            out[model.model_id] = feats
        return out

    # -- caches -------------------------------------------------------------

    def _refresh_stacks(self) -> None:
        key = [(m.model_id, m.version) for m in self.models]
        if key == self._stack_key:
            return
        eps = self.config.smoothing_eps
        self._smoothed = []
        self._logq = []
        for i, card in enumerate(self.cardinalities):
            stack = np.stack([m.counts[i] for m in self.models])
            stack = stack / stack.sum(axis=1, keepdims=True)
            stack[stack == 0] = eps
            stack /= stack.sum(axis=1, keepdims=True)
            self._smoothed.append(stack)
            self._logq.append(np.log(stack))
        self._stack_key = key

    def _jsd_row(self, k: int) -> np.ndarray:
        total = np.zeros(len(self.models))
        for i, w in enumerate(self._weights):
            stack = self._smoothed[i]
            p = stack[k]
            log_avg = np.log(0.5 * (stack + p))
            kl_p = ((self._logq[i][k] - log_avg) * p).sum(axis=1)
            kl_q = (stack * (self._logq[i] - log_avg)).sum(axis=1)
            total += w * 0.5 * (kl_p + kl_q)
        total[k] = 0.0
        return total

    def pairwise_jsd(self) -> np.ndarray:
        """Current pairwise JSD matrix, for inspection and tests."""
        self._refresh_stacks()
        m = len(self.models)
        return np.array([self._jsd_row(k) for k in range(m)]).reshape(m, m)
