"""Verification oracles, the hindsight competition oracles, and an Exp3 comparison.

The oracles cross-check the optimized core by an independent route:

* :class:`DenseReference` -- the bandit recursion transcribed with plain
  nested loops in linear-domain arithmetic, no log-space tricks.
* :func:`sequence_mixture_oracle` -- for a constant learning rate, the
  weight recursion collapses to an explicit weighting over every arm
  sequence; this enumerates them all (against :func:`replay_constant_rate`).
* :func:`enumerate_best_sequence` -- brute force over arm sequences, the
  check of the switch-budget dynamic program.

:func:`best_fixed_arm`, :func:`best_switching_sequence` (brute force column
sums, and a switch-budgeted dynamic program) and :func:`path_loss` are also
the competition oracles that ``run`` and ``oracle`` measure regret against.
:func:`run_exp3` is Exp3, batched over seeds; it *requires* a declared loss
range, the assumption the scale-free learner removes.

Oracles take scripted arm choices instead of sampling so that comparisons
against the core are free of RNG effects.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .competitions import CompetitionModel
from .core import (ScaleFreeBandit, arm_probabilities, draw_arms, mixture_coefficient,
                   selection_probabilities, weight_step)
from .environments import LossStream
from .rng import make_generator


def path_loss(stream: LossStream, arms) -> float:
    """Canonical cumulative loss of an arm sequence: the prefix-order sum that ``run`` reports
    (a cumulative sum's last entry; ``ndarray.sum`` adds pairwise from 8 entries on)."""
    arms = np.asarray(arms, dtype=np.intp)
    return float(np.cumsum(stream.matrix[np.arange(stream.horizon), arms])[-1])


# ---------------------------------------------------------------------------
# dense linear-domain transcription
# ---------------------------------------------------------------------------

class DenseReference:
    """Line-by-line transcription of the adaptive-rate bandit round in linear weights.

    The sharing step multiplies by the model's linear transition matrix
    (:meth:`CompetitionModel.transition_matrix`). Same degenerate-rate
    convention as the core: while the adaptive rate is undefined, the
    current round's rate is substituted (power ratio 1), and if that is
    undefined too the exponential step is the identity. Weights are
    renormalized to sum 1 after each round, which leaves every arm
    probability unchanged.
    """

    def __init__(self, model: CompetitionModel, gamma: float):
        self.n_arms = model.n_arms
        self.gamma = gamma
        self.transition = model.transition_matrix().tolist()
        self.weights = [math.exp(lp) for lp in model.log_prior]
        self.t = 1
        self.min_loss = math.inf
        self.second_moment = 0.0
        self.spread_max = 0.0
        self.rate_prev: float | None = None

    def probabilities(self) -> list[float]:
        total = sum(self.weights)
        return [w / total for w in self.weights]

    def step(self, arm: int, loss: float) -> dict:
        """One scripted round; returns its probabilities ``p`` and its masses ``conservation``."""
        p = self.probabilities()
        eps = mixture_coefficient(self.t, self.n_arms)
        q = [(1.0 - eps) * pm + eps / self.n_arms for pm in p]
        self.min_loss = min(self.min_loss, loss)
        excess = (loss - self.min_loss) / q[arm]
        self.second_moment += p[arm] * excess * excess
        self.spread_max = max(self.spread_max, excess)

        denom = self.second_moment + self.spread_max * self.spread_max
        rate = None if denom <= 0.0 else self.gamma / math.sqrt(denom)
        if self.rate_prev is None:
            exponent_rate = rate
            power = 1.0
        else:
            exponent_rate = self.rate_prev
            power = rate / self.rate_prev

        z = list(self.weights)
        if excess != 0.0 and exponent_rate:
            z[arm] *= math.exp(-exponent_rate * excess)

        mass_in = 0.0
        z_pow = []
        for zc in z:
            zp = zc ** power
            z_pow.append(zp)
            mass_in += zp
        w_next = [0.0] * self.n_arms
        for m_next in range(self.n_arms):
            acc = 0.0
            for m_prev in range(self.n_arms):
                acc += self.transition[m_prev][m_next] * z_pow[m_prev]
            w_next[m_next] = acc
        mass_out = sum(w_next)
        self.weights = [w / mass_out for w in w_next]
        self.rate_prev = rate
        self.t += 1
        return {"p": p, "conservation": (mass_in, mass_out)}


def run_dense(model: CompetitionModel, gamma: float, losses: np.ndarray, arms) -> dict:
    """Run the dense transcription over scripted arms; stacked trajectories."""
    arms = np.asarray(arms, dtype=np.intp)
    ref = DenseReference(model, gamma)
    horizon = arms.shape[0]
    p_hist = np.empty((horizon, model.n_arms))
    conservation = np.empty((horizon, 2))
    for t in range(horizon):
        out = ref.step(int(arms[t]), float(losses[t, arms[t]]))
        p_hist[t] = out["p"]
        conservation[t] = out["conservation"]
    return {"p": p_hist, "conservation": conservation}


def replay_core(model: CompetitionModel, gamma: float, losses: np.ndarray,
                arms=None, seed: int = 0) -> dict:
    """Run the learner, with its adaptive rate, over a loss matrix, recording each round.

    With `arms` given the choices are forced (no RNG use); otherwise the
    core samples from its own stream seeded by `seed`.
    """
    losses = np.asarray(losses, dtype=np.float64)
    horizon, n_arms = losses.shape
    state = ScaleFreeBandit(model, gamma, seed=seed)
    p_hist = np.empty((horizon, n_arms))
    q_hist = np.empty((horizon, n_arms))
    arm_hist = np.empty(horizon, dtype=np.intp)
    conservation = np.empty((horizon, 2))
    stats_hist = np.empty((horizon, 4))  # min_loss, second_moment, spread, rate
    for t in range(horizon):
        p_hist[t] = state.probabilities
        forced = None if arms is None else int(arms[t])
        arm, q = state.select(force_arm=forced)
        q_hist[t] = q
        arm_hist[t] = arm
        state.update(float(losses[t, arm]))
        conservation[t] = state.last_conservation
        st = state.stats
        stats_hist[t] = (st.min_loss, st.second_moment, st.spread_max,
                         np.nan if st.rate_prev is None else st.rate_prev)
    return {
        "p": p_hist,
        "q": q_hist,
        "arms": arm_hist,
        "conservation": conservation,
        "stats": stats_hist,
        "final": state,
    }


# ---------------------------------------------------------------------------
# exhaustive sequence-mixture oracle (constant learning rate)
# ---------------------------------------------------------------------------

def replay_constant_rate(model: CompetitionModel, losses: np.ndarray, arms, rate: float):
    """Scripted rounds through the core's sharing step at a constant learning rate:
    the arm probabilities, row t in force before round t's update."""
    log_w, min_loss, p_hist = model.log_prior, math.inf, []
    for t, arm in enumerate(arms):
        p_hist.append(arm_probabilities(log_w))
        q = selection_probabilities(p_hist[-1], mixture_coefficient(t + 1, model.n_arms))
        loss = float(losses[t, arm])
        min_loss = min(min_loss, loss)  # the learner's tie rule: a tie keeps the old minimum
        log_w = weight_step(model, log_w, arm, rate * ((loss - min_loss) / q[arm]), 1.0)[0]
    return np.array(p_hist)


def sequence_mixture_oracle(model: CompetitionModel, losses: np.ndarray,
                            arms, rate: float) -> np.ndarray:
    """Arm probabilities from the explicit mixture over all arm paths.

    With the learning rate held constant the recursive weight update equals
    a direct weighting of every possible path: prior times transitions
    times exp(-rate * accumulated excess along the path), where the excess
    is nonzero only on the scripted selected arm of each past round. The
    returned row t is the distribution in force *before* round t's update.
    """
    arms = np.asarray(arms, dtype=np.intp)
    horizon = arms.shape[0]
    n = model.n_arms
    if n ** horizon > 2 ** 20:
        raise ValueError(f"{n}^{horizon} paths is too many to enumerate")
    prior = np.exp(model.log_prior)
    trans = model.transition_matrix()

    p_hist = np.empty((horizon, model.n_arms))
    excess = np.zeros(horizon)
    min_loss = math.inf
    for t in range(horizon):
        arm_w = np.zeros(model.n_arms)
        for path in itertools.product(range(n), repeat=t + 1):
            weight = prior[path[0]]
            for i in range(1, t + 1):
                weight *= trans[path[i - 1], path[i]]
            penalty = 0.0
            for i in range(t):
                if path[i] == arms[i]:
                    penalty += excess[i]
            arm_w[path[-1]] += weight * math.exp(-rate * penalty)
        p = arm_w / arm_w.sum()
        p_hist[t] = p
        eps = mixture_coefficient(t + 1, model.n_arms)
        q_sel = (1.0 - eps) * p[arms[t]] + eps / model.n_arms
        loss = float(losses[t, arms[t]])
        min_loss = min(min_loss, loss)
        excess[t] = (loss - min_loss) / q_sel
    return p_hist


# ---------------------------------------------------------------------------
# hindsight competition oracles
# ---------------------------------------------------------------------------

def best_fixed_arm(stream: LossStream) -> tuple[int, float]:
    """Arm with the smallest cumulative loss; ties go to the lowest index."""
    sums = stream.matrix.sum(axis=0)
    arm = int(np.argmin(sums))
    return arm, path_loss(stream, np.full(stream.horizon, arm, dtype=np.intp))


_BLOCK = 256  # rounds of the suffix pass between two bookkeeping steps


def best_switching_sequence(stream: LossStream, max_switches: int) -> tuple[np.ndarray, float]:
    """Minimum-loss arm sequence using at most `max_switches` changes.

    Suffix dynamic program over (round, arm, switches left), O(T*M*k), then
    a forward walk that takes, round by round, the smallest arm whose suffix
    attains the optimum: the lexicographically smallest minimizing path
    when the sums are exact. For every round t and budget j >= 1 the pass
    stores one decision, ``choice[t, m, j-1]``: the arm that round t plays
    after arm m with j switches left. The walk reads one entry per round and
    spends a switch when the arm changes. A cell takes the narrowest
    unsigned type that holds every arm index: one byte up to 256 arms, two
    up to 65536 and four above, so the table takes T*M*k bytes up to 256
    arms.

    The pass runs in blocks of ``_BLOCK`` rounds. Per round it only takes
    the values: the minimum of each column j-1 into a row whose budget-0
    entry is ``+inf``, the elementwise minimum of the next round's values
    with that row, plus the round's losses. They go into a ``(_BLOCK + 1,
    M, k+1)`` slab, from which the decisions of the whole block are taken
    at once. The values are those of the argmin-indexed step: the minimum
    is an element of its column, the ``+inf`` entry leaves column 0 as it
    is, and a tie of ``0.0`` with ``-0.0`` can change only the sign of a
    zero, which no comparison reads.

    A suffix never costs more with more switches left, and this holds
    exactly in floating point: the minimum is monotone, and adding the same
    loss to both sides is monotone under round-to-nearest. So switching
    "to" the current arm never beats staying on it, and the best switch
    from any arm is the plain minimum of column j-1; no second-smallest
    entry is needed to exclude the current arm. The decision is the argmin
    over column j-1 with arm m at its own value in column j, ties going to
    the smaller index: m stays when (its value, m) <= (the column's
    minimum, the smallest arm attaining it) in lexicographic order, and
    otherwise that smallest arm is played.
    """
    if max_switches < 0:
        raise ValueError("switch budget must be >= 0")
    matrix = stream.matrix
    horizon, n_arms = matrix.shape
    k = min(max_switches, horizon - 1)
    # slab[i, m, j]: best loss of the rounds from the i-th of the block on,
    # given arm m then and j switches left; slab[-1] holds the round after the block
    slab = np.zeros((_BLOCK + 1, n_arms, k + 1))
    # switch[j]: the next round's best value after a switch, the min of its
    # column j-1; no switch is left at j = 0
    switch = np.full(k + 1, np.inf)
    spend = switch[1:]
    choice = np.empty((horizon, n_arms, k), dtype=np.min_scalar_type(n_arms - 1))
    # m in every cell [t, m, j] of a block of choice: the bytewise steps run contiguous
    arms = np.tile(np.arange(n_arms, dtype=choice.dtype)[:, None], (min(_BLOCK, horizon), 1, k))
    for end in range(horizon, 0, -_BLOCK):
        start = max(end - _BLOCK, 0)
        block = slab[_BLOCK - (end - start):]
        losses = matrix[start:end, :, None]
        for cur, nxt, nxt_fewer, loss in zip(block[-2::-1], block[:0:-1], block[:0:-1, :, :-1],
                                             losses[::-1]):
            np.minimum.reduce(nxt_fewer, axis=0, out=spend)
            np.minimum(nxt, switch, out=cur)
            np.add(cur, loss, out=cur)
        stays, values = block[:-1, :, 1:], block[:-1, :, :-1]
        target = values.argmin(axis=1).astype(choice.dtype)[:, None, :]
        best = np.take_along_axis(values, target, axis=1)
        out, own = choice[start:end], arms[:end - start]
        out[...] = target
        stay = (stays < best) | ((stays == best) & (own <= out))
        np.bitwise_xor(out, stay * (own ^ out), out=out)  # m where it stays, else target
        slab[-1] = block[0]
    m, j = int(np.argmin(slab[-1, :, k])), k
    path = np.full(horizon, m, dtype=np.intp)
    for t in range(1, horizon):
        if j == 0:
            break
        arm = choice.item(t, m, j - 1)  # a Python int, compared cheaply
        if arm != m:
            m, j = arm, j - 1
            path[t:] = m
    return path, path_loss(stream, path)


def enumerate_best_sequence(stream: LossStream, max_switches: int) -> tuple[np.ndarray, float]:
    """Brute force over all arm sequences with at most `max_switches`
    changes; independent check for the dynamic program (tiny instances)."""
    matrix = stream.matrix
    horizon, n_arms = matrix.shape
    if n_arms ** horizon > 2 ** 20:
        raise ValueError("instance too large to enumerate")
    best_path = None
    best = math.inf
    for path in itertools.product(range(n_arms), repeat=horizon):
        switches = sum(1 for a, b in zip(path, path[1:]) if a != b)
        if switches > max_switches:
            continue
        loss = path_loss(stream, np.array(path, dtype=np.intp))
        if loss < best:
            best = loss
            best_path = path
    return np.array(best_path, dtype=np.intp), best


# ---------------------------------------------------------------------------
# Exp3
# ---------------------------------------------------------------------------

def run_exp3(stream: LossStream, seeds, loss_range: tuple[float, float] = (0.0, 1.0)) -> dict:
    """Exp3 (Auer, Cesa-Bianchi, Freund & Schapire 2002), one run per seed in lockstep.

    Exponential weights over importance-weighted losses rescaled from a range
    that no loss may leave. Rate sqrt(log(M) / (M t)); state ``(M, runs)``; run r draws with
    :func:`~scalefree_bandit.core.draw_arms` from ``make_generator(seeds[r]).random(T)``.
    Returns ``(runs, T)`` arms and losses, and ``(runs, M)`` final probabilities.
    """
    lo, hi = (float(x) for x in loss_range)
    if not hi > lo:
        raise ValueError("declared loss range must be non-degenerate")
    matrix = stream.matrix
    horizon, n_arms = matrix.shape
    runs = len(seeds)
    uniforms = np.stack([make_generator(seed).random(horizon) for seed in seeds], axis=1)  # (T, runs)
    cum_estimate = np.zeros((n_arms, runs))
    rows = np.arange(runs)
    arms = np.empty((runs, horizon), dtype=np.intp)

    def probabilities(t):
        scores = -math.sqrt(math.log(n_arms) / (n_arms * t)) * cum_estimate
        return arm_probabilities(scores - scores.max(axis=0))

    for t in range(horizon):
        p = probabilities(t + 1)
        arm = draw_arms(p, uniforms[t])
        loss = matrix[t, arm]
        outside = loss[(loss < lo) | (loss > hi)]  # stream losses are finite
        if outside.size:
            raise ValueError(f"loss {outside[0]} outside declared range [{lo}, {hi}]")
        sel = arm * runs + rows
        cum_estimate.reshape(-1)[sel] += (loss - lo) / (hi - lo) / p.reshape(-1)[sel]
        arms[:, t] = arm
    return {"arms": arms, "losses": matrix[np.arange(horizon), arms],
            "final_probs": np.ascontiguousarray(probabilities(horizon + 1).T)}
