"""Competition models: prior, transition structure, and path complexity.

A competition model describes which arm-selection sequences the bandit is
expected to track. A model is ``(n_arms, alpha)``: a uniform prior over the
arms and, from one round to the next, the identity transition (``alpha``
None) or fixed share with switching rate ``alpha``. The weight of a whole
path is the prior of its first arm times the product of its transitions,
so it depends only on the path's length and number of switches, and the
path's learning "hardness" is the complexity functional computed by
:func:`complexity`.

Shipped models:

* ``fixed``            -- identity transitions; competes with constant arms.
* ``switching:<alpha>`` -- keep the current arm w.p. ``1 - alpha``, move to
  each other arm w.p. ``alpha / (M - 1)``; competes with switching sequences.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CompetitionModel:
    """Immutable ``(n_arms, alpha)``: a uniform prior, and identity transitions
    (``alpha`` None) or fixed share at switching rate ``alpha`` in (0, 1).
    Stored as ``int`` and ``float``: numpy scalars snapshot as plain numbers.
    """

    n_arms: int
    alpha: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_arms", operator.index(self.n_arms))
        if self.n_arms < 2:
            raise ValueError("competition model needs at least 2 arms")
        if self.alpha is not None:
            object.__setattr__(self, "alpha", float(self.alpha))
            if not 0.0 < self.alpha < 1.0:
                raise ValueError(f"switching rate alpha must be in (0, 1), got {self.alpha!r}")

    @property
    def spec(self) -> str:
        """The configuration string :func:`parse_model` reads back."""
        return "fixed" if self.alpha is None else f"switching:{self.alpha!r}"

    @property
    def log_prior(self) -> np.ndarray:
        """Read-only uniform log prior, ``-log M`` per arm."""
        out = np.full(self.n_arms, -math.log(self.n_arms))
        out.setflags(write=False)
        return out

    def transition_matrix(self) -> np.ndarray:
        """Dense transitions, entry [prev, next] = T(next | prev).

        A move of a subnormal alpha may round to 0.0; the row stays stochastic.
        """
        n = self.n_arms
        if self.alpha is None:
            return np.eye(n)
        out = np.full((n, n), self.alpha / (n - 1))
        np.fill_diagonal(out, 1.0 - self.alpha)
        return out


def fixed_arm_model(n_arms: int) -> CompetitionModel:
    """Identity transitions, uniform prior."""
    return CompetitionModel(n_arms)


def fixed_share_model(n_arms: int, alpha: float) -> CompetitionModel:
    """Stay w.p. 1-alpha, spread alpha over the other arms; uniform prior."""
    return CompetitionModel(n_arms, alpha)


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


def _log_switch_cost(n_arms: int, alpha: float) -> float:
    """log((n_arms - 1) / alpha), as a difference of logs only where the quotient overflows.

    That happens only for subnormal alphas; every other alpha keeps the bits
    of the single log.
    """
    quotient = (n_arms - 1) / alpha
    if quotient < math.inf:
        return math.log(quotient)
    return math.log(n_arms - 1) - math.log(alpha)


def _path_complexity(model: CompetitionModel, horizon: int, switches: int) -> float:
    """log space size - log prior of the first arm (uniform: + log M) - log
    transitions of a path with `switches` changes; +inf where the model
    cannot switch."""
    n = model.n_arms
    log_space = 0.0 if horizon == 1 else math.log(n)
    head = log_space + math.log(n)
    if model.alpha is None:
        return head if switches == 0 else math.inf
    per_switch = _log_switch_cost(n, model.alpha)
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
    return _path_complexity(model, path.size, switch_count(path))


def complexity_budget(model: CompetitionModel, horizon: int, switches: int) -> float:
    """Largest complexity over paths with at most `switches` changes.

    Closed form for both transition structures; used for auto-tuning gamma.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if switches < 0 or switches > horizon - 1:
        raise ValueError("switch budget must be in [0, horizon - 1]")
    n = model.n_arms
    # linear in the switch count k, so the largest value is at k = 0 or k = switches;
    # an identity model only realizes k = 0
    grows = (model.alpha is not None
             and _log_switch_cost(n, model.alpha) > -math.log1p(-model.alpha))
    return _path_complexity(model, horizon, switches if grows else 0)


def default_gamma(model: CompetitionModel, horizon: int, switches: int) -> float:
    """sqrt of the complexity budget; the recommended tuning."""
    return math.sqrt(complexity_budget(model, horizon, switches))
