"""Competition models: class spaces, transition structure, and path complexity.

A competition model describes which arm-selection sequences the bandit is
expected to track. Each model is a set of classes (one per arm: class i is
arm i), a prior over classes, and a row-stochastic transition between
consecutive rounds. The weight of a whole path is the prior of its first
class times the product of its transitions, and the path's learning
"hardness" is the complexity functional computed by :func:`complexity`.

Shipped models:

* ``fixed``            -- identity transitions; competes with constant arms.
* ``switching:<alpha>`` -- keep the current arm w.p. ``1 - alpha``, move to
  each other arm w.p. ``alpha / (M - 1)``; competes with switching sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CompetitionModel:
    """Immutable class space with prior and transition structure.

    ``arm_of`` maps class index -> arm index and must be the identity
    ``arange(n_arms)``. ``kind`` selects the weight sharing strategy:
    ``identity`` (fixed arms) or ``fixed_share`` (switching arms), both
    O(n) per round. The class space is the same at every round.
    """

    spec: str
    n_arms: int
    arm_of: np.ndarray
    log_prior: np.ndarray
    kind: str
    alpha: float | None = None

    def __post_init__(self):
        # own private copies so freezing them cannot alias caller arrays
        arm_of = np.array(self.arm_of, dtype=np.intp)
        log_prior = np.array(self.log_prior, dtype=np.float64)
        object.__setattr__(self, "arm_of", arm_of)
        object.__setattr__(self, "log_prior", log_prior)
        if self.n_arms < 2:
            raise ValueError("competition model needs at least 2 arms")
        if arm_of.shape != log_prior.shape:
            raise ValueError("arm_of and log_prior must have one entry per class")
        if not np.array_equal(arm_of, np.arange(self.n_arms)):
            raise ValueError("arm_of must be arange(n_arms): each arm covered by one class")
        total = np.exp(log_prior).sum()
        if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
            raise ValueError(f"prior must sum to 1, got {total!r}")
        if self.kind not in ("identity", "fixed_share"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "fixed_share" and not (self.alpha and 0.0 < self.alpha < 1.0):
            raise ValueError(f"fixed_share requires alpha in (0, 1), got {self.alpha!r}")
        for arr in (arm_of, log_prior):
            arr.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return int(self.arm_of.size)

    def log_transition_matrix(self) -> np.ndarray:
        """Dense log transitions, entry [prev, next] = log T(next | prev)."""
        n = self.n_classes
        out = np.full((n, n), self.log_transition_of(1, 0))
        np.fill_diagonal(out, self.log_transition_of(0, 0))
        return out

    def transition_matrix(self) -> np.ndarray:
        return np.exp(self.log_transition_matrix())

    def log_transition_of(self, next_class: int, prev_class: int) -> float:
        """log T(next | prev) without materializing the matrix."""
        if self.kind == "identity":
            return 0.0 if next_class == prev_class else -math.inf
        if next_class == prev_class:
            return math.log1p(-self.alpha)
        return math.log(self.alpha / (self.n_classes - 1))


def fixed_arm_model(n_arms: int) -> CompetitionModel:
    """One class per arm, identity transitions, uniform prior."""
    if n_arms < 2:
        raise ValueError("need at least 2 arms")
    return CompetitionModel(
        spec="fixed",
        n_arms=n_arms,
        arm_of=np.arange(n_arms),
        log_prior=np.full(n_arms, -math.log(n_arms)),
        kind="identity",
    )


def fixed_share_model(n_arms: int, alpha: float) -> CompetitionModel:
    """One class per arm; stay w.p. 1-alpha, spread alpha over the others."""
    if n_arms < 2:
        raise ValueError("need at least 2 arms")
    return CompetitionModel(
        spec=f"switching:{alpha!r}",
        n_arms=n_arms,
        arm_of=np.arange(n_arms),
        log_prior=np.full(n_arms, -math.log(n_arms)),
        kind="fixed_share",
        alpha=float(alpha),
    )


def parse_model(spec: str, n_arms: int) -> CompetitionModel:
    """Build a shipped model from its configuration string."""
    if spec == "fixed":
        return fixed_arm_model(n_arms)
    if spec.startswith("switching:"):
        raw = spec.split(":", 1)[1]
        try:
            alpha = float(raw)
        except ValueError:
            raise ValueError(f"bad switching rate {raw!r} in model spec {spec!r}") from None
        return fixed_share_model(n_arms, alpha)
    raise ValueError(f"unknown model spec {spec!r} (expected 'fixed' or 'switching:<alpha>')")


def path_arms(model: CompetitionModel, path) -> np.ndarray:
    """Arm sequence induced by a class path."""
    return model.arm_of[np.asarray(path, dtype=np.intp)]


def switch_count(path) -> int:
    path = np.asarray(path)
    if path.size <= 1:
        return 0
    return int(np.count_nonzero(path[1:] != path[:-1]))


def complexity(model: CompetitionModel, path) -> float:
    """Learning hardness of a class path.

    log of the largest class-space size seen strictly before the horizon
    (the round-0 space is the single start symbol) minus the log weight of
    the path, where the first factor of the path weight is the prior.
    Returns +inf for paths the model cannot realize.
    """
    path = np.asarray(path, dtype=np.intp)
    horizon = path.size
    if horizon < 1:
        raise ValueError("path must have at least one round")
    if path.min() < 0 or path.max() >= model.n_classes:
        raise ValueError("path contains out-of-range class indices")
    log_weight = float(model.log_prior[path[0]])
    for t in range(1, horizon):
        log_weight += model.log_transition_of(int(path[t]), int(path[t - 1]))
    if log_weight == -math.inf:
        return math.inf
    max_space = 1 if horizon == 1 else model.n_classes
    return math.log(max_space) - log_weight


def complexity_budget(model: CompetitionModel, horizon: int, switches: int) -> float:
    """Largest complexity over paths with at most `switches` changes.

    Closed form for both model kinds; used for auto-tuning gamma.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if switches < 0 or switches > horizon - 1:
        raise ValueError("switch budget must be in [0, horizon - 1]")
    n = model.n_classes
    log_space = 0.0 if horizon == 1 else math.log(n)
    log_m = math.log(n)
    if model.kind == "identity":
        return log_space + log_m
    per_switch = math.log((n - 1) / model.alpha)
    per_stay = -math.log1p(-model.alpha)
    # linear in the switch count k, so the largest value is at k = 0 or k = switches
    k = switches if per_switch > per_stay else 0
    return log_space + log_m + k * per_switch + (horizon - 1 - k) * per_stay


def default_gamma(model: CompetitionModel, horizon: int, switches: int) -> float:
    """sqrt of the complexity budget; the recommended tuning."""
    return math.sqrt(complexity_budget(model, horizon, switches))
