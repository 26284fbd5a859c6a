"""Flash admission policies.

Production flash caches throttle what gets admitted to flash to stretch
device endurance (Section 2.3 mentions threshold admission as the
common control alongside host overprovisioning).  The hybrid cache
consults one of these policies for every DRAM eviction before writing
to flash.

Two families live here:

* stateless/statistical gates — :class:`AcceptAll`,
  :class:`SizeThresholdAdmission`, :class:`ProbabilisticAdmission`,
  :class:`DynamicRandomAdmission` — that decide from the offered item
  alone (plus a byte budget);
* *learned and write-aware* gates — :class:`SurvivalAdmission`
  (Flashield-style: objects prove themselves in DRAM before earning a
  flash write, scored by an online-trained logistic model) and
  :class:`WriteBudgetAdmission` (meters admits against a NAND-byte
  budget priced by the device's live SMART DLWA ledger).  These feed
  the policy-vs-placement ablation (``python -m repro.bench.soak ablation``)
  that stresses the paper's claim that placement, not admission, is the
  cheap DLWA win.
"""

from __future__ import annotations

import abc
import math
import random
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from .item import CacheItem

__all__ = [
    "AdmissionPolicy",
    "AcceptAll",
    "ProbabilisticAdmission",
    "DynamicRandomAdmission",
    "SizeThresholdAdmission",
    "SurvivalFeatures",
    "SurvivalAdmission",
    "WriteBudgetAdmission",
]


class AdmissionPolicy(abc.ABC):
    """Decides whether an evicted item may be written to flash."""

    #: Policies that track DRAM residency (Flashield-style) set this so
    #: the hybrid cache routes its GET/SET observation stream to them;
    #: for every other policy the hooks are skipped entirely — the hot
    #: path pays one attribute check at cache construction, not per op.
    collects_features = False

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0

    def admit(self, item: CacheItem) -> bool:
        """Record the decision for ``item`` and return it."""
        self.offered += 1
        decision = self._decide(item)
        if decision:
            self.admitted += 1
        return decision

    @abc.abstractmethod
    def _decide(self, item: CacheItem) -> bool:
        """Policy-specific decision."""

    def reseed(self, seed: int) -> None:
        """Rebind the policy's RNG to ``seed``.

        Benches call this with the sweep point's ``point_seed`` so
        admission decisions are pinned by the same contract as every
        other random stream in a run (see
        :func:`repro.bench.runner.point_seed`).  Deterministic
        policies have no RNG and ignore it.
        """

    # -- optional seams ------------------------------------------------

    def attach_device(self, device) -> None:
        """Bind the policy to the cache's backing device.

        Called once by :class:`~repro.cache.hybrid.HybridCache` at
        construction.  Write-aware policies
        (:class:`WriteBudgetAdmission`) read the device's SMART ledger
        through this; everything else ignores it.
        """

    def observe_insert(self, key: int, size: int) -> None:
        """Feature hook: ``key`` was inserted/overwritten in DRAM."""

    def observe_access(self, key: int) -> None:
        """Feature hook: ``key`` was requested (any GET, hit or miss)."""

    @property
    def admit_ratio(self) -> float:
        return self.admitted / self.offered if self.offered else 1.0


class AcceptAll(AdmissionPolicy):
    """Admit everything (the default in the paper's experiments)."""

    def _decide(self, item: CacheItem) -> bool:
        return True


class ProbabilisticAdmission(AdmissionPolicy):
    """Admit a fixed fraction of offered items, size-independent."""

    def __init__(self, probability: float, seed: int = 0xADA1) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self._rng = random.Random(seed)

    def _decide(self, item: CacheItem) -> bool:
        return self._rng.random() < self.probability

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)


class DynamicRandomAdmission(AdmissionPolicy):
    """CacheLib's DynamicRandomAP-style write-budget controller.

    Tracks bytes offered vs. a byte budget accrued per offered
    operation and adapts the acceptance probability so that admitted
    bytes track the budget.  This is how deployments cap flash write
    rate when workloads get write-heavy.
    """

    def __init__(
        self,
        budget_bytes_per_op: int,
        *,
        adjust_interval: int = 1024,
        seed: int = 0xADA2,
    ) -> None:
        super().__init__()
        if budget_bytes_per_op <= 0:
            raise ValueError("budget_bytes_per_op must be positive")
        if adjust_interval <= 0:
            raise ValueError("adjust_interval must be positive")
        self.budget_bytes_per_op = budget_bytes_per_op
        self.adjust_interval = adjust_interval
        self.probability = 1.0
        self._rng = random.Random(seed)
        self._window_offered_bytes = 0
        self._window_ops = 0

    def _decide(self, item: CacheItem) -> bool:
        self._window_offered_bytes += item.size
        self._window_ops += 1
        if self._window_ops >= self.adjust_interval:
            budget = self._window_ops * self.budget_bytes_per_op
            if self._window_offered_bytes > 0:
                self.probability = min(
                    1.0, budget / self._window_offered_bytes
                )
            self._window_offered_bytes = 0
            self._window_ops = 0
        return self._rng.random() < self.probability

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)


class SizeThresholdAdmission(AdmissionPolicy):
    """Reject items above a size threshold (threshold admission)."""

    def __init__(self, max_size: int) -> None:
        super().__init__()
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size

    def _decide(self, item: CacheItem) -> bool:
        return item.size <= self.max_size


class SurvivalFeatures:
    """Feature-extraction seam for :class:`SurvivalAdmission`.

    Maps an item's DRAM-residency record to the model's input vector.
    Kept as a separate object so experiments can swap feature sets
    without touching the training loop.  All features are scaled to
    O(1) magnitudes so a single learning rate works.
    """

    #: Number of features produced by :meth:`extract`.
    width = 4

    names = ("log2_size", "dram_hits", "age", "recency")

    def extract(
        self,
        size: int,
        hits: int,
        age_ops: int,
        since_access_ops: int,
    ) -> Tuple[float, ...]:
        return (
            math.log2(size + 1) / 16.0,
            min(hits, 64) / 8.0,
            math.log2(age_ops + 1) / 16.0,
            math.log2(since_access_ops + 1) / 16.0,
        )


class SurvivalAdmission(AdmissionPolicy):
    """Flashield-style survival-trained admission.

    Objects prove themselves while resident in DRAM: the hybrid cache
    streams SET/GET observations through :meth:`observe_insert` /
    :meth:`observe_access`, and when DRAM evicts an item the policy
    scores its residency features with an online-trained logistic
    model.  Labels arrive from a ghost list — an offered key that is
    requested again within ``label_horizon`` observed ops was worth
    keeping (positive); one that ages out was not (negative).
    ``max_ghosts`` bounds ghost memory, and under heavy offer rates
    that capacity — not the horizon — sets the effective observation
    window; together the two knobs move the policy along the
    DLWA-vs-hit-ratio frontier the ablation bench reports.

    Phases are explicit: every offer runs :meth:`_train` on expired
    ghost labels first, then :meth:`_predict` for the decision.  During
    the first ``warmup_offers`` offers the model trains but its
    predictions are not enforced (admit-all), matching Flashield's
    bootstrap.  A seeded exploration RNG admits a small fraction of
    predicted-reject items so positive labels keep flowing; ``reseed``
    rebinds it under the bench seeding contract.

    ``threshold=0`` is the differential arm: sigmoid output is always
    > 0 so every offer admits and the device replays bit-identical to
    :class:`AcceptAll` — the proof that the observation hooks are a
    pure host-side overlay.
    """

    collects_features = True

    def __init__(
        self,
        *,
        threshold: float = 0.5,
        learning_rate: float = 0.05,
        warmup_offers: int = 256,
        label_horizon: int = 16384,
        max_tracked: int = 8192,
        max_ghosts: int = 4096,
        explore_fraction: float = 0.05,
        features: Optional[SurvivalFeatures] = None,
        seed: int = 0xF1A5,
    ) -> None:
        super().__init__()
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if label_horizon <= 0:
            raise ValueError("label_horizon must be positive")
        if not 0.0 <= explore_fraction <= 1.0:
            raise ValueError("explore_fraction must be in [0, 1]")
        self.threshold = threshold
        self.learning_rate = learning_rate
        self.warmup_offers = warmup_offers
        self.label_horizon = label_horizon
        self.max_tracked = max_tracked
        self.max_ghosts = max_ghosts
        self.explore_fraction = explore_fraction
        self.features = features if features is not None else SurvivalFeatures()
        self.weights = [0.0] * self.features.width
        self.bias = 0.0
        self._rng = random.Random(seed)
        # key -> [insert_clock, hits, last_access_clock, size]
        self._resident: "OrderedDict[int, list]" = OrderedDict()
        # key -> (features, expiry_clock); insertion order = offer order
        self._ghosts: "OrderedDict[int, Tuple[Tuple[float, ...], int]]" = (
            OrderedDict()
        )
        self._clock = 0
        self.trained_positive = 0
        self.trained_negative = 0
        self.explored = 0
        self.warmup_admits = 0
        self.predicted_admits = 0
        self.predicted_rejects = 0

    # -- observation stream -------------------------------------------

    def observe_insert(self, key: int, size: int) -> None:
        self._clock += 1
        state = self._resident.get(key)
        if state is not None:
            # Overwrite refreshes the residency but keeps the hit
            # history — repeated SETs are themselves a reuse signal.
            state[2] = self._clock
            state[3] = size
            self._resident.move_to_end(key)
        else:
            self._resident[key] = [self._clock, 0, self._clock, size]
            if len(self._resident) > self.max_tracked:
                self._resident.popitem(last=False)

    def observe_access(self, key: int) -> None:
        self._clock += 1
        state = self._resident.get(key)
        if state is not None:
            state[1] += 1
            state[2] = self._clock
        ghost = self._ghosts.pop(key, None)
        if ghost is not None:
            # Re-requested after eviction: it deserved flash.
            self._train(ghost[0], 1.0)

    # -- train / predict ----------------------------------------------

    def _features_for(self, item: CacheItem) -> Tuple[float, ...]:
        state = self._resident.pop(item.key, None)
        if state is None:
            state = [self._clock, 0, self._clock, item.size]
        insert_clock, hits, last_access, _ = state
        return self.features.extract(
            item.size,
            hits,
            self._clock - insert_clock,
            self._clock - last_access,
        )

    def _score(self, feats: Tuple[float, ...]) -> float:
        z = self.bias
        for w, x in zip(self.weights, feats):
            z += w * x
        # Clamp to keep exp() finite under adversarial weights.
        z = max(-30.0, min(30.0, z))
        return 1.0 / (1.0 + math.exp(-z))

    def _train(self, feats: Tuple[float, ...], label: float) -> None:
        error = label - self._score(feats)
        step = self.learning_rate * error
        self.weights = [w + step * x for w, x in zip(self.weights, feats)]
        self.bias += step
        if label >= 0.5:
            self.trained_positive += 1
        else:
            self.trained_negative += 1

    def _predict(self, feats: Tuple[float, ...]) -> bool:
        return self._score(feats) > self.threshold

    def _expire_ghosts(self) -> None:
        while self._ghosts:
            key, (feats, expiry) = next(iter(self._ghosts.items()))
            # ``<`` leaves room for the ghost the caller is about to
            # push, keeping the list at max_ghosts, never max_ghosts+1.
            if expiry > self._clock and len(self._ghosts) < self.max_ghosts:
                break
            # Aged out (or over capacity) without a re-request: flash
            # bytes spent on it would have been wasted.
            del self._ghosts[key]
            self._train(feats, 0.0)

    def _decide(self, item: CacheItem) -> bool:
        feats = self._features_for(item)
        self._expire_ghosts()
        self._ghosts[item.key] = (feats, self._clock + self.label_horizon)
        if self.threshold <= 0.0:
            # Differential arm: pure AcceptAll decision stream; the
            # model still trains so learning is observable host-side.
            return True
        if self.offered <= self.warmup_offers:
            self.warmup_admits += 1
            return True
        if self._predict(feats):
            self.predicted_admits += 1
            return True
        self.predicted_rejects += 1
        if self._rng.random() < self.explore_fraction:
            self.explored += 1
            return True
        return False

    def reseed(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def stats_dict(self) -> Dict[str, float]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "admit_ratio": self.admit_ratio,
            "trained_positive": self.trained_positive,
            "trained_negative": self.trained_negative,
            "explored": self.explored,
            "warmup_admits": self.warmup_admits,
            "predicted_admits": self.predicted_admits,
            "predicted_rejects": self.predicted_rejects,
            "tracked": len(self._resident),
            "ghosts": len(self._ghosts),
            "bias": self.bias,
        }


class WriteBudgetAdmission(AdmissionPolicy):
    """Meter admits against a NAND-byte budget priced by live DLWA.

    Every offered op accrues ``nand_budget_bytes_per_op`` of credit;
    admitting an item charges ``stored_size × DLWA`` where DLWA is read
    from the attached device's SMART ledger at decision time.  When the
    device's write amplification rises, each admitted byte costs more
    NAND, so the policy tightens automatically — the same feedback loop
    deployments run against SMART endurance counters.  Deterministic:
    no RNG, so ``reseed`` is a no-op and the decision stream is a pure
    function of the offered sequence and device state.
    """

    def __init__(
        self,
        nand_budget_bytes_per_op: int,
        *,
        burst_ops: int = 64,
    ) -> None:
        super().__init__()
        if nand_budget_bytes_per_op <= 0:
            raise ValueError("nand_budget_bytes_per_op must be positive")
        if burst_ops <= 0:
            raise ValueError("burst_ops must be positive")
        self.nand_budget_bytes_per_op = nand_budget_bytes_per_op
        self.burst_ops = burst_ops
        self._credit = float(nand_budget_bytes_per_op * burst_ops)
        self._device = None
        self.charged_nand_bytes = 0.0
        self.budget_rejects = 0

    def attach_device(self, device) -> None:
        self._device = device

    def _current_dlwa(self) -> float:
        if self._device is None:
            return 1.0
        stats = self._device.stats
        host = getattr(stats, "host_pages_written", 0)
        nand = getattr(stats, "nand_pages_written", 0)
        if host <= 0:
            return 1.0
        return max(1.0, nand / host)

    def _decide(self, item: CacheItem) -> bool:
        cap = float(self.nand_budget_bytes_per_op * self.burst_ops)
        self._credit = min(cap, self._credit + self.nand_budget_bytes_per_op)
        cost = item.stored_size * self._current_dlwa()
        if cost <= self._credit:
            self._credit -= cost
            self.charged_nand_bytes += cost
            return True
        self.budget_rejects += 1
        return False

    def stats_dict(self) -> Dict[str, float]:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "admit_ratio": self.admit_ratio,
            "credit_bytes": self._credit,
            "charged_nand_bytes": self.charged_nand_bytes,
            "budget_rejects": self.budget_rejects,
            "dlwa_seen": self._current_dlwa(),
        }

    def __getstate__(self):
        state = self.__dict__.copy()
        # The device holds unpicklable runtime state in some configs;
        # the binding is re-established by HybridCache at construction.
        state["_device"] = None
        return state
