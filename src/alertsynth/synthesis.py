"""Attack-model synthesis: the evolving model set.

Each model is a set of per-component weighted count vectors with an
effective evidence count that decays exponentially (half-life = half the
moving window).  Aggregates are assigned to the nearest model by weighted
cross-entropy, or spawn a new model when no model beats the closed-form
admission bound.  Near-duplicate models are merged by weighted
Jensen-Shannon divergence; starved models are retired.

Distances are defined on per-component marginal pmfs and combined as a
weighted sum, so every divergence here reduces to its single-component
textbook form when one weight is 1.  Those forms take raw pmfs; the weighted
distances of ModelSet, jsd and model_distance share one row kernel.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .action_space import COMPONENTS, ConfigError, WeightConfig
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

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        for name in ("ewma_window", "merge_threshold", "retire_floor", "smoothing_eps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")


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


def smoothed_pmf(counts: np.ndarray, eps: float) -> np.ndarray:
    """Normalize a count vector, floor zero cells at eps, renormalize."""
    total = np.add.reduce(counts)
    assert total > 0, "smoothed_pmf needs a nonzero vector"
    p = counts / total
    p[p == 0] = eps
    return p / np.add.reduce(p)


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


def smoothed_rows(models: Sequence[AttackModel], eps: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per model one row of its smoothed component pmfs side by side, and logs."""
    smoothed = np.array([np.concatenate([smoothed_pmf(c, eps) for c in m.counts])
                         for m in models])
    return smoothed, np.log(smoothed)


def cross_entropy_rows(logq: np.ndarray, wcol: np.ndarray,
                       vec: np.ndarray) -> np.ndarray:
    """Weighted cross-entropy of the side-by-side pmfs vec against every row."""
    return -(logq @ (wcol * vec))


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
    return float(cross_entropy_rows(logq, wcol, agg.vec)[0])


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
    return model


def create_model(agg: Aggregate, now: int, model_id: int) -> AttackModel:
    """Fresh model whose pmfs equal the aggregate's pmfs, evidence n."""
    counts = [agg.n * p for p in agg.pmfs]
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

    Three matrices hold one row per live model, in list order, over the
    components' columns side by side (88 with the packaged tables): counts,
    smoothed pmfs and their logs.  A live model's counts are views of its
    counts row, so update_model, decay and merges write the matrix in place;
    scoring is one matvec and a merge scan one JSD row.  The matrices follow
    the models: assigning models (create, merge, retire) rebuilds them and
    re-points the views, and an associate re-smooths its row only.  Merging
    keeps no pairwise matrix: a finished merge pass leaves no pair under the
    merge threshold, and decay and retirement move no pmf, so after an
    admission only pairs involving the touched model need checking, and
    after a merge only pairs involving the keeper.
    """

    def __init__(self, config: SynthConfig, cardinalities: Sequence[int],
                 vocabularies: Sequence[Sequence[str]]) -> None:
        self.config = config
        self.cardinalities = tuple(cardinalities)
        self.vocabularies = [tuple(v) for v in vocabularies]
        self.genealogy: Dict[int, int] = {}   # absorbed id -> surviving id
        self.created_total = 0
        self.merged_total = 0
        self.retired_total = 0
        self.bound = admission_bound(config.weights, self.cardinalities,
                                     config.gamma)
        self._next_id = 0
        self._clock: Optional[int] = None
        # each component's weight repeated over its vocabulary's columns
        self._wcol = np.repeat(config.weights.vector, self.cardinalities)
        edges = np.cumsum((0,) + self.cardinalities).tolist()
        self._spans = list(zip(edges, edges[1:]))   # each component's columns
        self.models = []

    @property
    def models(self) -> List[AttackModel]:
        return self._models

    @models.setter
    def models(self, models: List[AttackModel]) -> None:
        """Store the list, rebuild the matrices, re-point the models' counts."""
        self._models = models
        self._counts = np.empty((len(models), len(self._wcol)))
        for m, counts in zip(models, self._counts):
            np.concatenate(m.counts, out=counts)
            m.counts = [counts[a:b] for a, b in self._spans]
        if models:
            self._smoothed, self._logq = smoothed_rows(
                models, self.config.smoothing_eps)
        else:
            self._smoothed = self._logq = np.empty((0, len(self._wcol)))

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
        dist = cross_entropy_rows(self._logq, self._wcol, agg.vec)
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
            k = self.models.index(model)      # re-smooth only this row
            np.concatenate([smoothed_pmf(c, self.config.smoothing_eps)
                            for c in model.counts], out=self._smoothed[k])
            np.log(self._smoothed[k], out=self._logq[k])
            action = "associate"
        else:
            model = create_model(agg, now, self._next_id)
            self._next_id += 1
            self.created_total += 1
            self.models = self.models + [model]
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
            rows = (range(len(self.models)) if changed is None
                    else [self.models.index(changed)])
            best = (np.inf, 0, 0)
            for k in rows:
                row = jsd_rows(self._smoothed, self._logq, self._wcol, k)
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
            self.genealogy[loser.model_id] = keeper.model_id
            self.models = [m for m in self.models if m is not loser]
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
            self.models = [m for m in self.models if m not in retired]
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
        single = len(self.models) == 1
        for k, model in enumerate(self.models):
            feats: Dict[str, str] = {}
            for i, (name, (a, b)) in enumerate(zip(COMPONENTS, self._spans)):
                own = model.pmf(i)
                if single:
                    score = own
                else:
                    columns = self._smoothed[:, a:b]
                    others = np.delete(columns, k, axis=0).max(axis=0)
                    score = own * -np.log(others)
                best = score.max()
                labels = [self.vocabularies[i][x]
                          for x in np.nonzero(score == best)[0]]
                feats[name] = min(labels)
            out[model.model_id] = feats
        return out

    def pairwise_jsd(self) -> np.ndarray:
        """Current pairwise JSD matrix, for inspection and tests."""
        m = len(self.models)
        return np.array([jsd_rows(self._smoothed, self._logq, self._wcol, k)
                         for k in range(m)]).reshape(m, m)
