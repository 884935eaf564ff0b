"""Adversarial bandit state machine with affine-invariant selection behavior.

The algorithm keeps one log-domain weight per arm, turns them into arm
probabilities, explores with a decaying uniform mixture, and learns from an
importance-weighted excess loss: the incurred loss minus the smallest loss
seen so far, divided by the probability of the selected arm. Translating or
positively rescaling every loss leaves the selection behavior unchanged
because the excess rescales while the learning rate rescales inversely.

One round, in order:

1. mix exploration into the current arm probabilities and sample an arm;
2. observe the selected arm's loss, update the running minimum, and form
   the excess estimate (zero for every unselected arm);
3. accumulate the second-moment sum and the running maximum spread that
   drive the adaptive learning rate;
4. multiply the selected arm's weight by exp(-rate * excess) using the
   previous round's rate, raise everything to the ratio of consecutive
   rates, and push the result through the model's probability-sharing
   transitions to obtain the next round's weights, divided by their mass.

The log-weights therefore have mass 1 after every round, and the arm
probabilities are their exponentials (:func:`mass_one_probabilities`), with
no renormalization pass: they sum to 1 within a few ulps, not exactly.

Steps 2-4 are :func:`round_step`, the only copy of the recursion, written
arm-major: the state (log-weights and probabilities) is ``(M,)`` for
:class:`ScaleFreeBandit` and ``(M, runs)`` for
:func:`scalefree_bandit.harness.simulate_runs`, every reduction over the
arms is along axis 0, and every per-run quantity is a scalar or a
``(runs,)`` row that broadcasts against the state as it is. A batched sum
over 8 or more arms goes through a contiguous ``(runs, M)`` copy, so it
keeps numpy's pairwise order and each run's sum has the bits it has alone.

The per-run statistics are (running minimum, second moment, spread, previous
rate), starting at :data:`START_STATS`. Before the first nonzero excess the
adaptive rate is undefined (NaN; None in the :class:`AdaptiveState` view): the
current rate is borrowed (power ratio one), and while that is undefined too
the update is the identity.

Two range checks guard the recursion: :func:`check_rates` (the rate stays in
(0, inf)) and :func:`check_mass` (the weight mass stays in (0, inf)). They
run where the state lives. For one learner the kernel runs them every round,
rate first, before any state changes. For a batch the kernel runs neither:
:func:`scalefree_bandit.harness.simulate_runs` runs both once per block of
rounds and raises the same error no later than the block's end (its docstring
says why nothing is missed). The batch route also skips the copy of the
log-weights, which it overwrites, and the masses of the sharing step, which
the engine never reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .competitions import CompetitionModel, parse_model
from .rng import generator_state, make_generator, restore_generator

SNAPSHOT_FORMAT = "scalefree-bandit-snapshot"
SNAPSHOT_VERSION = 1

# (running minimum, second moment, spread, previous rate) before any loss
START_STATS = (math.inf, 0.0, 0.0, math.nan)


class ProtocolError(RuntimeError):
    """select/update called out of order."""


class NumericalDegeneracyError(ArithmeticError):
    """The recursion left the float range: the adaptive rate fell outside
    (0, inf), or the weight mass vanished or stopped being finite."""


@dataclass(frozen=True)
class AdaptiveState:
    """Read-only view of the bookkeeping that drives exploration and the rate.

    ``rate_prev`` is the learning rate realized in the previous round, or
    None while it is still degenerate (no excess observed yet).
    """

    round: int
    min_loss: float
    second_moment: float
    spread_max: float
    rate_prev: float | None


def mixture_coefficient(t: int, n_arms: int) -> float:
    """Exploration floor for round t: min(1/2, sqrt(n_arms / t))."""
    if n_arms < 2:
        raise ValueError(f"need at least 2 arms, got {n_arms}")
    if t < 1:
        raise ValueError(f"rounds are numbered from 1, got {t}")
    return min(0.5, math.sqrt(n_arms / t))


def selection_probabilities(p: np.ndarray, eps: float) -> np.ndarray:
    """Mix the arm probabilities (axis 0) with a uniform floor of eps."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"mixture coefficient must be in (0, 1/2], got {eps}")
    return (1.0 - eps) * p + eps / p.shape[0]


# Per-run quantities are scalars for one learner and (runs,) arrays for a
# batch. These helpers take the plain Python route for scalars: numpy's
# per-call overhead on scalars would otherwise dominate a one-learner round.

def _spread(excess, spread):
    """``where(excess <= spread, spread, excess)``: a NaN excess propagates.

    A batch takes ``np.maximum(excess, spread)``, one call instead of two.
    The two differ only on a NaN spread, which follows a NaN excess (so the
    second moment is NaN already), and in the sign of a zero on a ±0 tie,
    which ``spread * spread`` and every comparison ignore. One learner keeps
    the where form, so its snapshots never hold a ``-0.0`` spread.
    """
    if isinstance(excess, np.ndarray):
        return np.maximum(excess, spread)
    return spread if excess <= spread else excess


def _arm_sum(x: np.ndarray):
    """Sum over the arms (axis 0) in the order numpy sums one contiguous row.

    numpy sums a contiguous row pairwise (8 accumulators once it holds 8
    elements) but a leading axis in sequence; the two agree bit for bit only
    below 8 arms. From 8 arms on, a batch is summed as a contiguous
    ``(runs, M)`` copy.
    """
    if x.ndim == 1 or x.shape[0] < 8:
        return np.add.reduce(x, axis=0)  # what ndarray.sum runs, without its wrapper
    return np.add.reduce(np.ascontiguousarray(x.T), axis=1)


def check_rates(rates, denom) -> None:
    """Raise unless every rate is in (0, inf) or marks the degenerate prefix.

    ``rates`` is one learner's rate (a scalar) or a batch's rates over some
    rounds (``(runs, rounds)``), and ``denom`` is the rate's denominator
    (second moment + spread^2) after the last of those rounds. A rate may be
    NaN only while its denominator is 0. One round fails exactly when
    ``not (denom == 0 or 0 < rate < inf)``.
    """
    if isinstance(rates, np.ndarray):
        last = rates[:, -1]
        bad = (np.count_nonzero((rates <= 0.0) | (rates == math.inf))
               or np.count_nonzero((last != last) & (denom != 0.0)))
    else:
        bad = rates <= 0.0 or rates == math.inf or (rates != rates and denom != 0.0)
    if bad:
        raise NumericalDegeneracyError("adaptive rate left (0, inf): extreme losses or gamma")


def check_mass(total) -> None:
    """Raise unless every weight mass (sum of exp(log-weights)) is in (0, inf)."""
    if isinstance(total, np.ndarray):
        ok = np.count_nonzero((total > 0.0) & (total < math.inf)) == total.size
    else:  # one learner: plain comparisons, no mask
        ok = 0.0 < total < math.inf
    if not ok:
        raise NumericalDegeneracyError("weight mass vanished or is not finite")


def arm_probabilities(log_w: np.ndarray) -> np.ndarray:
    """Normalized arm probabilities from any log-weights (axis 0), mass checked.

    The learner and the engine (its mass check too) do not take this route:
    their log-weights have mass 1, and their probabilities are the plain
    exponentials (:func:`weight_step`, :func:`mass_one_probabilities`). This
    form divides by the mass and serves the oracles only: Exp3's max-shifted
    scores and the constant-rate replay. Inputs must stay in exp's range.
    """
    e = np.exp(log_w)
    total = _arm_sum(e)
    check_mass(total)
    e /= total
    return e


def mass_one_probabilities(log_w: np.ndarray) -> np.ndarray:
    """``exp(log_w)``, mass checked: the arm probabilities of log-weights of mass 1.

    The start state, :meth:`ScaleFreeBandit.restore`, the engine's block
    check and every round of :func:`weight_step` take this route (a batch's
    rounds skip the check), so a restored learner has the kernel's
    probabilities bit for bit. They sum to 1 within a few ulps, not exactly.
    """
    p = np.exp(log_w)
    check_mass(_arm_sum(p))
    return p


def sample_arm(q: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw over arms in ascending index order (one uniform)."""
    u = rng.random()
    idx = int(q.cumsum().searchsorted(u, "right"))
    return min(idx, q.shape[0] - 1)


# Up to this many arms a loop over the rows beats one add.accumulate(axis=0).
# Measured crossover (numpy 2.4, 2-core Xeon): about 4 arms at 1 to 10 runs, 5
# at 20 runs, 8 at 200; at 5 arms the loop loses 1-3 us a call up to 20 runs
# and wins 3 us at 200.
_DRAW_LOOP_ARMS = 5


def draw_arms(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`sample_arm` per run, ``q`` ``(M, runs)``, ``u`` ``(runs,)``: the count of
    cumulative probabilities at or below u, capped at M - 1 (the total can round below 1).

    Up to ``_DRAW_LOOP_ARMS`` arms the rows are accumulated in a loop, with the
    additions of ``cumsum`` in its order, and counted as they grow; above it,
    ``np.add.accumulate`` makes the same additions in one call. The sums
    never fall (q >= 0), so counting only the first M - 1 of them is the cap.
    """
    n_arms = q.shape[0]
    if n_arms > _DRAW_LOOP_ARMS:  # add.accumulate: cumsum's additions, without its wrapper
        arm = np.add.reduce(np.add.accumulate(q, axis=0) <= u, axis=0)
        np.minimum(arm, n_arms - 1, out=arm)
        return arm
    c = q[0]
    arm = (c <= u).astype(np.intp)
    for i in range(1, n_arms - 1):
        c = c + q[i]
        arm += c <= u
    return arm


# ---------------------------------------------------------------------------
# the round kernel
# ---------------------------------------------------------------------------

def adaptive_step(loss, q_sel, p_sel, min_loss, second_moment, spread_max, rate_prev,
                  gamma, settled=False):
    """Statistics, rate, exponent and power of one round, per run.

    The rate is gamma / sqrt(second moment + spread^2), NaN while that sum is
    zero (no excess yet, or only excesses whose squares underflow); the
    exponent is the previous rate (the current one while the previous is NaN)
    times the excess, 0 while that rate is NaN; the power is the rate ratio, 1
    while the previous rate is NaN. ``settled`` says that no previous rate is
    NaN, so the degenerate-prefix selections are skipped. One learner's rate
    is checked here (:func:`check_rates`); a batch's is left to its caller.

    A batch selects with ``fmax(rate_prev, rate)`` and ``fmin(rate /
    rate_prev, 1)``, which ignore a NaN previous rate. Where the previous
    rate is defined they equal ``rate_prev`` and the ratio, because the rate
    never rises (see :func:`weight_step`); they can differ only after a rate
    that fails the check.

    A batch also takes the running minimum as ``fmin(loss, min_loss)`` and
    clamps the exponent with ``fmax(exponent, 0)``, where one learner
    compares plain floats. On a tie of ``0.0`` and ``-0.0`` these may keep
    the other zero, and that sign reaches no output: the excess is then a
    zero, whose square adds +0 to the second moment; :func:`_spread` and
    every comparison ignore the sign; a zero exponent subtracted from a
    log-weight leaves it equal, and ``exp(±0) = 1``; and the record's
    running minimum comes from the losses
    (:func:`scalefree_bandit.harness._running_minimum`), not from the
    kernel. A NaN exponent (the rate is NaN) clamps to 0 either way; the
    losses are finite, so the minimum is never NaN.

    Returns (min_loss, second_moment, spread_max, rate, exponent, power).
    """
    batch = isinstance(loss, np.ndarray)
    min_loss = np.fmin(loss, min_loss) if batch else (loss if loss < min_loss else min_loss)
    excess = (loss - min_loss) / q_sel
    second_moment = second_moment + p_sel * excess * excess
    spread_max = _spread(excess, spread_max)
    # the sum is non-decreasing, so a NaN rate only ever fills a prefix
    denom = second_moment + spread_max * spread_max
    if settled:  # denom >= the previous one > 0, or NaN
        rate = gamma / np.sqrt(denom)
        exponent_rate, power = rate_prev, rate / rate_prev
    elif isinstance(rate_prev, np.ndarray):
        rate = gamma / np.sqrt(np.where(denom > 0.0, denom, math.nan))
        exponent_rate = np.fmax(rate_prev, rate)
        power = np.fmin(rate / rate_prev, 1.0)
    else:  # one learner: plain floats in, plain floats out
        rate = gamma / math.sqrt(denom) if denom > 0.0 else math.nan
        check_rates(rate, denom)
        degenerate = rate_prev != rate_prev  # NaN: no excess before this round
        exponent_rate = rate if degenerate else rate_prev
        power = 1.0 if degenerate else rate / rate_prev
    exponent = exponent_rate * excess  # clamped to 0, not NaN, while the rate is NaN
    if batch:
        np.fmax(exponent, 0.0, out=exponent)
    elif not exponent > 0.0:
        exponent = 0.0
    return min_loss, second_moment, spread_max, rate, exponent, power


def fixed_share(z: np.ndarray, total, alpha: float) -> np.ndarray:
    """Fixed-share transitions in closed form, valid for every alpha in (0, 1).

    Each arm keeps 1 - alpha of its weight and receives alpha / (M - 1) of
    every other arm's: (1 - alpha) z + alpha / (M - 1) (total - z), where
    ``total`` is the sum of ``z`` over the arms, axis 0 (Herbster & Warmuth,
    "Tracking the best expert", 1998). All terms are non-negative. ``z`` is
    overwritten (scaled by 1 - alpha).
    """
    w = total - z
    w *= alpha / (z.shape[0] - 1)
    z *= 1.0 - alpha
    w += z
    return w


def weight_step(model: CompetitionModel, log_w: np.ndarray, sel, exponent, power):
    """Penalize the selected arm, raise to `power`, and share.

    One exp turns the max-shifted log-weights into linear weights; the
    identity model stays in the log domain, so small weights never underflow.
    The weights are divided by their mass once, before the log, so the next
    log-weights have mass 1 and the next arm probabilities are their
    exponentials, not renormalized again. Returns (next log-weights, their
    arm probabilities, log mass entering the sharing step, log mass leaving
    it); the two masses agree up to rounding because the transitions are
    stochastic.

    One learner's ``(M,)`` log-weights are left as they were, and the sum of
    its probabilities is checked (:func:`mass_one_probabilities`). A
    batch's ``(M, runs)`` log-weights are the engine's own state: they are
    overwritten, the mass is left to the engine, and the two masses are not
    formed (None).

    ``power`` is in (0, 1] by construction, so it is not checked: the rate's
    denominator (second moment + spread^2) never falls, as its terms never do
    and ``+``, ``*``, ``sqrt`` and ``gamma / x`` are monotone under
    round-to-nearest, so the rate ratio is at most 1; the rate check of
    :func:`adaptive_step` (finite, positive denominators) keeps it above
    1e-316. :meth:`ScaleFreeBandit.restore` rejects unreachable statistics.
    """
    batch = log_w.ndim == 2
    log_z = log_w if batch else log_w.copy()
    log_z.reshape(-1)[sel] -= exponent
    log_z *= power
    top = log_z.max(axis=0)
    log_z -= top
    z = np.exp(log_z)
    total = _arm_sum(z)
    if model.alpha is None:
        log_total = np.log(total)
        log_next = log_z - log_total
    else:
        w = fixed_share(z, total, model.alpha)
        total_out = _arm_sum(w)
        w /= total_out
        log_next = np.log(w, out=w)
    if batch:
        return log_next, np.exp(log_next), None, None
    p = mass_one_probabilities(log_next)
    if model.alpha is None:
        log_in = log_out = top + log_total
    else:
        log_in, log_out = top + np.log(total), top + np.log(total_out)
    return log_next, p, log_in, log_out


def round_step(model: CompetitionModel, log_w: np.ndarray, p: np.ndarray, q: np.ndarray,
               sel, loss, stats: tuple, gamma, settled=False):
    """One round after the selection: adaptive step, then weight step.

    ``log_w``, ``p``, ``q`` are arm-major, ``(M,)`` for one learner or
    ``(M, runs)`` for a batch, whose ``log_w`` is overwritten. ``sel`` is
    the flat index of the selected arm in them: ``arm``, or ``arm * runs +
    run`` per run. ``loss`` and ``stats`` (running minimum, second moment,
    spread, previous rate) are floats or ``(runs,)`` rows. Returns the next
    (log_w, p, stats, (log_in, log_out)).
    """
    if isinstance(sel, np.ndarray):
        q_sel, p_sel = q.take(sel), p.take(sel)
    else:
        q_sel, p_sel = q.item(sel), p.item(sel)
    min_loss, second, spread, rate, exponent, power = adaptive_step(
        loss, q_sel, p_sel, *stats, gamma, settled)
    log_w, p, log_in, log_out = weight_step(model, log_w, sel, exponent, power)
    return log_w, p, (min_loss, second, spread, rate), (log_in, log_out)


def _field(snap: dict, name: str, read=lambda value: value):  # read(snap[name]) or ValueError
    try:
        return read(snap[name])
    except (LookupError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad snapshot {name}: {type(exc).__name__}: {exc}") from None


def _number(value) -> float:
    """A JSON number (int or float, so never a bool or a numeric string) as a float."""
    if type(value) not in (int, float):
        raise TypeError(f"must be a JSON number, got {value!r}")
    return float(value)


class ScaleFreeBandit:
    """One bandit learner; strict two-phase select/reveal/update rounds.

    Parameters
    ----------
    model:
        Competition model supplying the prior and transitions.
    gamma:
        Positive, finite constant of the learning rate, which always adapts:
        gamma / sqrt(second moment + spread^2). A good default is the square
        root of the model's complexity budget
        (:func:`scalefree_bandit.competitions.default_gamma`).
    seed:
        Seed for the private Philox stream used only to sample arms.
    """

    def __init__(
        self,
        model: CompetitionModel,
        gamma: float,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ):
        if not isinstance(gamma, (int, float, np.number)) or not 0.0 < gamma < math.inf:
            raise ValueError(f"gamma must be a positive, finite number, got {gamma!r}")
        self._model = model
        self._gamma = float(gamma)  # JSON in snapshots
        self._log_w = model.log_prior.copy()
        self._p = mass_one_probabilities(self._log_w)
        self._round = 1
        self._stats = START_STATS  # what round_step takes and returns
        self._rng = rng if rng is not None else make_generator(seed)
        self._pending: tuple[int, np.ndarray] | None = None  # set between select and update
        self._conservation: tuple[float, float] | None = None

    # -- read-only views ---------------------------------------------------

    @property
    def model(self) -> CompetitionModel:
        return self._model

    @property
    def n_arms(self) -> int:
        return self._model.n_arms

    @property
    def round(self) -> int:
        return self._round

    @property
    def stats(self) -> AdaptiveState:
        min_loss, second, spread, rate = self._stats
        return AdaptiveState(self._round, min_loss, second, spread, None if rate != rate else rate)

    @property
    def probabilities(self) -> np.ndarray:
        """Current algorithmic arm probabilities (before exploration mixing)."""
        return self._p.copy()

    @property
    def log_weights(self) -> np.ndarray:
        return self._log_w.copy()

    @property
    def last_conservation(self) -> tuple[float, float] | None:
        """(log mass entering, log mass leaving) of the latest weight share."""
        return self._conservation

    # -- the round protocol ------------------------------------------------

    def select(self, force_arm: int | None = None) -> tuple[int, np.ndarray]:
        """Phase one: commit to an arm; returns (arm, selection probabilities).

        ``force_arm`` bypasses sampling (and leaves the random stream
        untouched) so oracles can replay scripted choices.
        """
        if self._pending is not None:
            raise ProtocolError("select() called twice without update()")
        eps = mixture_coefficient(self._round, self.n_arms)
        q = selection_probabilities(self._p, eps)
        if force_arm is None:
            arm = sample_arm(q, self._rng)
        else:
            arm = int(force_arm)
            if not 0 <= arm < self.n_arms:
                raise ValueError(f"forced arm {arm} out of range")
        self._pending = (arm, q)
        return arm, q

    def update(self, loss: float) -> None:
        """Phase two: reveal the selected arm's loss and advance one round."""
        if self._pending is None:
            raise ProtocolError("update() called without a pending select()")
        loss = float(loss)
        if not math.isfinite(loss):
            raise ValueError(f"losses must be finite, got {loss}")
        arm, q = self._pending
        self._log_w, self._p, self._stats, conservation = round_step(
            self._model, self._log_w, self._p, q, arm, loss, self._stats, self._gamma)
        self._conservation = (float(conservation[0]), float(conservation[1]))
        self._round += 1
        self._pending = None

    def play_round(self, loss_of_arm: Callable[[int], float]) -> tuple[int, float]:
        """Full round: select, look up the chosen arm's loss, update."""
        arm, _ = self.select()
        loss = float(loss_of_arm(arm))
        self.update(loss)
        return arm, loss

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """Exact state between rounds as strict JSON data; restore() resumes
        bit-for-bit. ``min_loss`` is null before the first update (restore()
        also reads the ``Infinity`` older snapshots wrote there)."""
        if self._pending is not None:
            raise ProtocolError("cannot snapshot mid-round (pending update)")
        st = self.stats
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "model": {"spec": self._model.spec, "n_arms": self.n_arms},
            "gamma": self._gamma,
            "round": st.round,
            "min_loss": None if st.min_loss == math.inf else st.min_loss,
            "second_moment": st.second_moment,
            "spread_max": st.spread_max,
            "rate_prev": st.rate_prev,
            "log_weights": [float(x) for x in self._log_w],
            "rng": generator_state(self._rng),
        }

    @classmethod
    def restore(cls, snap: dict) -> "ScaleFreeBandit":
        """Inverse of :meth:`snapshot`; a bad field raises ValueError naming it."""
        if not isinstance(snap, dict) or snap.get("format") != SNAPSHOT_FORMAT:
            raise ValueError("not a bandit snapshot")
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
        if snap.get("fixed_rate") is not None:  # older snapshots hold null; the rate always adapts
            raise ValueError(f"snapshot fixed_rate must be absent or null, not {snap['fixed_rate']!r}")
        model = _field(snap, "model", lambda m: parse_model(m["spec"], m["n_arms"]))
        state = cls(model, _field(snap, "gamma"), rng=_field(snap, "rng", restore_generator))
        rounds = _field(snap, "round")
        if type(rounds) is not int or rounds < 1:  # bool is not int here
            raise ValueError(f"snapshot round must be an integer >= 1, got {rounds!r}")
        min_loss = _field(snap, "min_loss", lambda x: math.inf if x is None else x)
        if type(min_loss) not in (int, float) or not -math.inf < min_loss:  # inf: older null
            raise ValueError(f"snapshot min_loss must be null or a finite number, got {min_loss!r}")
        if (min_loss == math.inf) != (rounds == 1):  # every update sets a finite minimum
            raise ValueError(f"snapshot min_loss must be null at round 1 and only there, "
                             f"got {snap['min_loss']!r} at round {rounds}")
        second, spread = _field(snap, "second_moment", _number), _field(snap, "spread_max", _number)
        for name, value in (("second_moment", second), ("spread_max", spread)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"snapshot {name} must be finite and >= 0, got {value!r}")
        rate_prev = _field(snap, "rate_prev", lambda x: None if x is None else _number(x))
        # the kernel's rate from these statistics, bit for bit; it raises at 0 and inf
        denom = second + spread * spread
        rate = None if denom == 0.0 else state._gamma / math.sqrt(denom)
        if rate_prev != rate or rate in (0.0, math.inf):
            raise ValueError(f"snapshot rate_prev {rate_prev!r} is not gamma / "
                             f"sqrt(second_moment + spread_max**2) = {rate!r}")

        def weights(values):  # the kernel's route to p: exp, then the mass check (NaN fails it)
            log_w = np.array([_number(x) for x in values], dtype=np.float64)
            if log_w.shape != (model.n_arms,):
                raise ValueError(f"must hold {model.n_arms} numbers, got shape {log_w.shape}")
            p = np.exp(log_w)
            mass = _arm_sum(p)
            if not abs(mass - 1.0) <= 1e-9:  # p = exp(log_w) is not renormalized
                raise ValueError(f"mass (the sum of their exps) {float(mass)!r} is not 1 within 1e-9")
            return log_w, p
        state._log_w, state._p = _field(snap, "log_weights", weights)
        state._round = rounds
        state._stats = (float(min_loss), second, spread,
                        math.nan if rate_prev is None else rate_prev)
        return state

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, allow_nan=False)

    @classmethod
    def load(cls, path) -> "ScaleFreeBandit":
        with open(path) as fh:
            return cls.restore(json.load(fh))
