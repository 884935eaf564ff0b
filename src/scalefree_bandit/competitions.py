"""Competition models: prior, transition structure, and path complexity.

A competition model describes which arm-selection sequences the bandit is
expected to track. Each model is a prior over arms and a row-stochastic
transition between the arms of consecutive rounds. The weight of a whole
path is the prior of its first arm times the product of its transitions,
and the path's learning "hardness" is the complexity functional computed
by :func:`complexity`. For both shipped models that weight depends only on
the first arm and the number of switches.

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
    """Immutable prior over arms and transition structure.

    ``kind`` selects the weight sharing strategy: ``identity`` (fixed arms)
    or ``fixed_share`` (switching arms), both O(M) per round. The arms are
    the same at every round.
    """

    spec: str
    n_arms: int
    log_prior: np.ndarray
    kind: str
    alpha: float | None = None

    def __post_init__(self):
        # own private copy so freezing it cannot alias the caller's array
        log_prior = np.array(self.log_prior, dtype=np.float64)
        object.__setattr__(self, "log_prior", log_prior)
        if self.n_arms < 2:
            raise ValueError("competition model needs at least 2 arms")
        if log_prior.shape != (self.n_arms,):
            raise ValueError("log_prior must have one entry per arm")
        total = np.exp(log_prior).sum()
        if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
            raise ValueError(f"prior must sum to 1, got {total!r}")
        if self.kind not in ("identity", "fixed_share"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "fixed_share" and not (self.alpha and 0.0 < self.alpha < 1.0):
            raise ValueError(f"fixed_share requires alpha in (0, 1), got {self.alpha!r}")
        log_prior.setflags(write=False)

    def log_transition_matrix(self) -> np.ndarray:
        """Dense log transitions, entry [prev, next] = log T(next | prev)."""
        n = self.n_arms
        if self.kind == "identity":
            stay, move = 0.0, -math.inf
        else:
            stay, move = math.log1p(-self.alpha), math.log(self.alpha / (n - 1))
        out = np.full((n, n), move)
        np.fill_diagonal(out, stay)
        return out

    def transition_matrix(self) -> np.ndarray:
        return np.exp(self.log_transition_matrix())


def fixed_arm_model(n_arms: int) -> CompetitionModel:
    """Identity transitions, uniform prior."""
    if n_arms < 2:
        raise ValueError("need at least 2 arms")
    return CompetitionModel(
        spec="fixed",
        n_arms=n_arms,
        log_prior=np.full(n_arms, -math.log(n_arms)),
        kind="identity",
    )


def fixed_share_model(n_arms: int, alpha: float) -> CompetitionModel:
    """Stay w.p. 1-alpha, spread alpha over the other arms; uniform prior."""
    if n_arms < 2:
        raise ValueError("need at least 2 arms")
    return CompetitionModel(
        spec=f"switching:{alpha!r}",
        n_arms=n_arms,
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


def switch_count(path) -> int:
    path = np.asarray(path)
    return int(np.count_nonzero(path[1:] != path[:-1]))


def _path_complexity(model: CompetitionModel, horizon: int, first_log_prior: float,
                     switches: int) -> float:
    """log space size - log prior of the first arm - log transitions of a
    path with `switches` changes; +inf where the model cannot switch."""
    n = model.n_arms
    log_space = 0.0 if horizon == 1 else math.log(n)
    head = log_space - first_log_prior
    if model.kind == "identity":
        return head if switches == 0 else math.inf
    per_switch = math.log((n - 1) / model.alpha)
    per_stay = -math.log1p(-model.alpha)
    return head + switches * per_switch + (horizon - 1 - switches) * per_stay


def complexity(model: CompetitionModel, path) -> float:
    """Learning hardness of an arm path.

    log of the largest space size seen strictly before the horizon (the
    round-0 space is the single start symbol) minus the log weight of the
    path, where the first factor of the path weight is the prior. Returns
    +inf for paths the model cannot realize.
    """
    path = np.asarray(path, dtype=np.intp)
    if path.size < 1:
        raise ValueError("path must have at least one round")
    if path.min() < 0 or path.max() >= model.n_arms:
        raise ValueError("path contains out-of-range arm indices")
    return _path_complexity(model, path.size, float(model.log_prior[path[0]]),
                            switch_count(path))


def complexity_budget(model: CompetitionModel, horizon: int, switches: int) -> float:
    """Largest complexity over paths with at most `switches` changes.

    Closed form for both model kinds (uniform prior); used for auto-tuning
    gamma.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if switches < 0 or switches > horizon - 1:
        raise ValueError("switch budget must be in [0, horizon - 1]")
    n = model.n_arms
    # linear in the switch count k, so the largest value is at k = 0 or k = switches;
    # an identity model only realizes k = 0
    grows = (model.kind == "fixed_share"
             and math.log((n - 1) / model.alpha) > -math.log1p(-model.alpha))
    return _path_complexity(model, horizon, -math.log(n), switches if grows else 0)


def default_gamma(model: CompetitionModel, horizon: int, switches: int) -> float:
    """sqrt of the complexity budget; the recommended tuning."""
    return math.sqrt(complexity_budget(model, horizon, switches))
