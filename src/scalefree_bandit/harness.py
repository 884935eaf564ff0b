"""Experiment harness: config files, Monte Carlo sweeps, regret reports.

Experiments are described by a flat ``key=value`` config file (``#`` starts
a comment). Keys are exactly the fields of :class:`ExperimentConfig`:

===============  ==========================================================
``M``            number of arms
``T``            horizon (rounds per run)
``runs``         independent runs
``seed``         base seed; run r uses the spawned child stream (seed, r)
``gamma``        finite positive float, or ``auto`` = sqrt(complexity budget)
``model``        ``fixed`` or ``switching:<alpha>``
``env``          ``piecewise`` or ``csv:<path>``
``env_seed``     seed of the piecewise noise stream
``noise_width``  width of the uniform noise band (piecewise)
``segments``     ``<len>@<m1|m2|...>;<len>@...`` per-segment arm means
``affine``       optional ``a,b``: play against a*loss+b instead
``competition``  regret oracle: ``fixed`` or ``switching:<k>`` (k switches)
``output``       optional path prefix for ``<prefix>_runs.csv`` and
                 ``<prefix>_summary.csv``
===============  ==========================================================

An empty value (``output=``) unsets an optional key: ``segments``, ``affine``, ``output``.

All runs are advanced in lockstep as one batch through the learner's round
kernel (:func:`scalefree_bandit.core.round_step`); each run keeps its own
counter-based random stream, so every run selects exactly the arms it would
select if played alone (the test suite checks this equivalence).

CSV conventions match the scripted-stream format: 0-based round column
``t``, 1-based ``arm``. The ``eta`` column reports ``inf`` while the
adaptive rate is still degenerate.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import shutil
import signal
import sys
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from . import environments, reference
from .competitions import CompetitionModel, complexity, default_gamma, parse_model
from .core import (START_STATS, NumericalDegeneracyError, check_rates, draw_arms,
                   mass_one_probabilities, mixture_coefficient, round_step,
                   selection_probabilities)
from .environments import LossStream
from .rng import run_generator

RUNS_HEADER = "run,t,arm,loss,cum_loss,comp_arm,comp_loss,regret,eta,epsilon,psi"
SUMMARY_HEADER = "t,mean_regret,stderr_regret,bound"
_BLOCK_ROUNDS = 256  # rounds drawn, or formatted, per run at a time; bounds engine and writers


class ConfigError(ValueError):
    """Bad experiment configuration; the message names the offending key."""


@dataclass
class ExperimentConfig:
    M: int = 2
    T: int = 1
    runs: int = 1
    seed: int = 0
    gamma: str | float = "auto"
    model: str = "fixed"
    env: str = "piecewise"
    env_seed: int = 0
    noise_width: float = 0.0
    segments: str | None = None
    affine: str | None = None
    competition: str = "fixed"
    output: str | None = None


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
_OPTIONAL_KEYS = {f.name for f in fields(ExperimentConfig) if f.default is None}


def _convert(key: str, raw: str):
    """Parse one value; :func:`validate_config` checks its range."""
    if key in _OPTIONAL_KEYS and raw == "":
        return None
    if key in ("M", "T", "runs", "seed", "env_seed"):
        return int(raw)
    if key == "noise_width" or (key == "gamma" and raw != "auto"):
        return float(raw)
    return raw


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            updates[key] = _convert(key, raw.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for key {key!r}: {exc}") from None
    cfg = replace(cfg, **updates)
    validate_config(cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    pairs = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            pairs.append(line)
    return apply_overrides(ExperimentConfig(), pairs)


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise :class:`ConfigError` naming the first key whose value is out of range.

    Parsed and overridden configs are checked here, and so is a config
    built in Python, which :func:`run_experiment` checks before any work.
    """
    if cfg.M < 2:
        raise ConfigError(f"key 'M': need at least 2 arms, got {cfg.M}")
    if cfg.T < 1:
        raise ConfigError(f"key 'T': horizon must be >= 1, got {cfg.T}")
    if cfg.runs < 1:
        raise ConfigError(f"key 'runs': must be >= 1, got {cfg.runs}")
    for key, value in (("seed", cfg.seed), ("env_seed", cfg.env_seed)):
        if value < 0:
            raise ConfigError(f"bad value for key {key!r}: must be >= 0, got {value}")
    if cfg.env_seed >= 2 ** 64:  # the noise generator's uint64 key
        raise ConfigError(f"bad value for key 'env_seed': must be < 2**64, got {cfg.env_seed}")
    if not 0 <= cfg.noise_width < math.inf:
        raise ConfigError(
            f"bad value for key 'noise_width': must be finite and >= 0, got {cfg.noise_width}")
    if cfg.gamma != "auto" and not (math.isfinite(cfg.gamma) and cfg.gamma > 0):
        raise ConfigError(f"bad value for key 'gamma': must be finite and positive, got {cfg.gamma}")
    if cfg.output == "":
        raise ConfigError("bad value for key 'output': must be a path prefix, got ''")


def parse_segments(spec: str, n_arms: int) -> list[tuple[int, list[float]]]:
    segments = []
    for part in spec.split(";"):
        part = part.strip()
        if "@" not in part:
            raise ConfigError(f"key 'segments': segment {part!r} is not <len>@<means>")
        length, means_raw = part.split("@", 1)
        try:
            means = [float(x) for x in means_raw.split("|")]
            segments.append((int(length), means))
        except ValueError as exc:
            raise ConfigError(f"key 'segments': bad segment {part!r}: {exc}") from None
        if len(means) != n_arms:
            raise ConfigError(
                f"key 'segments': segment {part!r} has {len(means)} means, expected {n_arms}"
            )
    return segments


def build_stream(cfg: ExperimentConfig) -> LossStream:
    if cfg.env == "piecewise":
        if cfg.segments is None:
            raise ConfigError("key 'segments': required for the piecewise environment")
        segs = parse_segments(cfg.segments, cfg.M)
        try:
            stream = environments.piecewise_stationary(
                cfg.M, cfg.T, segs, cfg.noise_width, cfg.env_seed
            )
        except ValueError as exc:
            raise ConfigError(f"key 'segments': {exc}") from None
    elif cfg.env.startswith("csv:"):
        stream = environments.load_csv(cfg.env[4:])
        if stream.n_arms != cfg.M or stream.horizon != cfg.T:
            raise ConfigError(
                f"key 'env': stream is {stream.horizon}x{stream.n_arms}, "
                f"config wants {cfg.T}x{cfg.M}"
            )
    else:
        raise ConfigError(f"key 'env': unknown environment {cfg.env!r}")
    if cfg.affine is not None:
        try:
            a_raw, b_raw = cfg.affine.split(",")
            mapped = environments.affine(stream, float(a_raw), float(b_raw))
        except ValueError as exc:
            raise ConfigError(f"key 'affine': expected 'a,b' with a > 0: {exc}") from None
        if mapped.range_width() == 0 < stream.range_width():
            raise ConfigError(f"key 'affine': {cfg.affine!r} rounds every loss to one value")
        stream = mapped
    return stream


def competition_path(cfg: ExperimentConfig, stream: LossStream) -> tuple[np.ndarray, int]:
    """Oracle arm path for the configured competition, plus the switch budget it used (< T)."""
    if cfg.competition == "fixed":
        arm, _ = reference.best_fixed_arm(stream)
        return np.full(stream.horizon, arm, dtype=np.intp), 0
    if cfg.competition.startswith("switching:"):
        raw = cfg.competition.split(":", 1)[1]
        try:
            k = int(raw)
        except ValueError:
            raise ConfigError(f"key 'competition': bad switch count {raw!r}") from None
        if k < 0:
            raise ConfigError(f"key 'competition': switch count must be >= 0, got {k}")
        path, _ = reference.best_switching_sequence(stream, k)
        return path, min(k, stream.horizon - 1)  # the DP's own clamp
    raise ConfigError(f"key 'competition': unknown oracle {cfg.competition!r}")


# ---------------------------------------------------------------------------
# vectorized multi-run engine
# ---------------------------------------------------------------------------

def _running_minimum(losses: np.ndarray) -> np.ndarray:
    """Running minimum of one run's losses, keeping the earlier of two equal values.

    This is the learner's rule (``where(loss < min, loss, min)``). Equal
    floats differ in their bits only as ``0.0`` and ``-0.0``, where
    ``np.minimum.accumulate`` may return the later one, so wherever the
    minimum is zero it is the run's first zero loss.
    """
    psi = np.minimum.accumulate(losses)
    zero = psi == 0
    if zero.any():
        psi[zero] = losses[np.argmax(losses == 0)]
    return psi


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in its own anonymous memory map, outside the malloc heap.

    glibc serves a large block from the heap once an earlier one has been
    freed (its mmap threshold rises). A record there sometimes finds no
    free hole, the heap grows and stays grown, and sweeps repeated in one
    process read a bimodal peak RSS. A mapping goes back to the system with
    its array. An empty shape still maps one byte, as mmap needs.
    """
    count = math.prod(shape)
    nbytes = count * np.dtype(dtype).itemsize
    try:
        buf = mmap.mmap(-1, max(nbytes, 1))
    except (OverflowError, OSError) as exc:
        raise MemoryError(f"cannot allocate {nbytes} bytes: {exc}") from None
    return np.frombuffer(buf, dtype, count).reshape(shape)


@dataclass
class SimulationRecord:
    """Per-round, per-run trajectories of a Monte Carlo sweep.

    Only the arms and the rates are stored per run and round: 9 bytes up to
    256 arms, whose indices are unsigned and as narrow as fit
    (:func:`_arm_dtype`). The incurred losses and the running minimum
    follow from the arms and the loss stream, and are computed on access, a
    run at a time: one gather of the whole record would first cast the arms
    to a ``(runs, T)`` index array. Every ``(runs, T)`` array is mapped
    outside the heap (:func:`_mapped`). The engine writes the arms and the
    rates a block of rounds at a time.
    """

    arms: np.ndarray       # (runs, T) selected arm per round
    eta: np.ndarray        # (runs, T) realized rate, inf while degenerate
    eps: np.ndarray        # (T,) exploration floor (shared across runs)
    final_probs: np.ndarray  # (runs, M) arm probabilities after round T
    matrix: np.ndarray     # (T, M) the read-only loss stream that was played

    def _loss_rows(self, runs):
        """Yield ``(r, losses)`` of each run in `runs`: its arms gathered from the matrix."""
        horizon, n_arms = self.matrix.shape
        flat, base = self.matrix.reshape(-1), np.arange(horizon) * n_arms
        for r in runs:
            yield r, flat.take(base + self.arms[r])

    @property
    def losses(self) -> np.ndarray:
        """(runs, T) incurred loss."""
        out = _mapped(self.arms.shape, np.float64)
        for r, losses in self._loss_rows(range(len(out))):
            out[r] = losses
        return out

    @property
    def psi(self) -> np.ndarray:
        """(runs, T) running minimum after the round."""
        out = _mapped(self.arms.shape, np.float64)
        for r, losses in self._loss_rows(range(len(out))):
            out[r] = _running_minimum(losses)
        return out


def _arm_dtype(n_arms: int):
    """Smallest unsigned integer type that holds every arm index: uint8 up to 256 arms.

    Readers widen before any arithmetic (a uint8 ``arms + 1`` wraps 255 to 0).
    """
    return np.min_scalar_type(n_arms - 1)


def simulate_runs(model: CompetitionModel, gamma: float, stream: LossStream,
                  base_seed: int, runs: int) -> SimulationRecord:
    """Play `runs` independent learners over the stream in lockstep.

    Run r draws its arms from the spawned stream (base_seed, r). Each run
    goes through :func:`~scalefree_bandit.core.round_step` as a sequential
    :class:`~scalefree_bandit.core.ScaleFreeBandit` does, and gets the same
    bits: arms, running minima, rates and final probabilities (the tests
    compare their bytes). A run's bits do not depend on how many runs share
    its batch.

    The state is arm-major, ``(M, runs)``: each run is a column, so the
    reductions over the arms walk contiguous rows, and every per-run value
    is a ``(runs,)`` row. The arms are drawn by
    :func:`~scalefree_bandit.core.draw_arms`, one uniform per run.

    The rounds go in blocks of ``_BLOCK_ROUNDS``. Beside the record (mapped
    outside the heap) and the state, the engine holds three round-major
    buffers of a block by ``runs``: the uniforms, the arms and the rates.
    Each run's generator refills its column of uniforms every block, and
    successive Philox draws continue one stream, so the doubles are those
    of a single ``random(T)`` call. Each round writes one contiguous row of
    arms and of rates as computed. Once per block, after the checks below,
    the NaN of the degenerate prefix becomes ``inf`` in the rate buffer, and
    both buffers are copied, transposed, into the block's columns of the
    record. A block that starts with no run in the degenerate prefix tells
    the kernel so (``settled``), which skips the prefix's selections.

    The kernel's range checks run once per block, not per round: on the
    block's rates and on the state after its last round
    (:func:`~scalefree_bandit.core.check_rates`, and the mass check of
    :func:`~scalefree_bandit.core.mass_one_probabilities`). Between those
    checks the rounds take the probabilities as the exponentials of the
    mass-1 log-weights, as one learner does, with no renormalization and no
    mass check (:func:`~scalefree_bandit.core.weight_step`). A round that fails
    either check is still seen there, because what it leaves behind lasts:

    - A rate that is neither NaN nor in (0, inf) stays in the block's rates.
    - A NaN rate beside a nonzero denominator comes from a NaN gamma, or
      from a NaN denominator, which means a NaN second moment: a NaN spread
      comes only from a NaN excess, and that makes the second moment NaN in
      the same round. The second moment only ever adds to itself, so it
      stays NaN, and the last round's rate is NaN beside a NaN denominator.
    - Up to the first failure the kernel hands on normalized log-weights:
      their largest entry was 0 before the shift by the log of a sum in
      [1, M], so their mass is about 1 unless one of them is NaN. A NaN
      log-weight makes the next round's maximum NaN, so all of the run's
      log-weights stay NaN.

    A block that fails is played again from its saved start with both
    checks after every round, rate first, as one learner runs them, so the
    error raised is the first failing check in round order, no later than
    the block's end, and before the block reaches the record, which is
    dropped with it.
    """
    n_arms = model.n_arms
    matrix = stream.matrix
    horizon = stream.horizon
    # the record first: a size that cannot fit fails before any work
    arms = _mapped((runs, horizon), _arm_dtype(n_arms))
    eta = _mapped((runs, horizon), np.float64)
    eps_hist = np.empty(horizon)

    block = min(_BLOCK_ROUNDS, horizon)
    # round-major: each round reads one row of uniforms and writes one row of arms and rates
    uniforms, eta_buf = np.empty((block, runs)), np.empty((block, runs))
    arm_buf = np.empty((block, runs), arms.dtype)
    generators = (run_generator(base_seed, r) for r in range(runs))
    if horizon > block:
        generators = list(generators)  # kept for the refills; a single block needs none
    rows = np.arange(runs)

    def check(rates, log_w, stats):
        check_rates(rates, stats[1] + stats[2] * stats[2])
        mass_one_probabilities(log_w)  # raises on a bad weight mass

    def play(lo, hi, log_w, p, stats, checked):
        """Rounds lo..hi-1 from the given state (whose log_w they overwrite), into the buffers."""
        settled = not np.isnan(stats[3]).any()
        for t in range(lo, hi):
            eps = mixture_coefficient(t + 1, n_arms)
            q = selection_probabilities(p, eps)
            arm = draw_arms(q, uniforms[t - lo])
            arm_buf[t - lo] = arm
            loss = matrix[t].take(arm)
            arm *= runs
            arm += rows  # the flat index into the (M, runs) state
            log_w, p, stats, _ = round_step(model, log_w, p, q, arm, loss, stats, gamma,
                                            settled=settled)
            eta_buf[t - lo] = stats[3]
            eps_hist[t] = eps
            if checked:
                check(eta_buf[t - lo:t - lo + 1].T, log_w, stats)
        return log_w, p, stats

    log_w = np.repeat(model.log_prior[:, None], runs, axis=1)
    state = (log_w, mass_one_probabilities(log_w), tuple(np.full(runs, x) for x in START_STATS))
    for lo in range(0, horizon, block):
        hi = min(lo + block, horizon)
        for r, gen in enumerate(generators):
            uniforms[:hi - lo, r] = gen.random(hi - lo)
        start = (state[0].copy(),) + state[1:]
        with np.errstate(all="ignore"):  # past a failure; the replay warns as the caller asks
            state = play(lo, hi, *state, checked=False)
        rates = eta_buf[:hi - lo]
        failure = None
        try:
            check(rates.T, state[0], state[2])
        except NumericalDegeneracyError as exc:
            failure = exc
        if failure is not None:
            play(lo, hi, *start, checked=True)  # raises the first failing check
            raise failure
        np.copyto(rates, np.inf, where=np.isnan(rates))  # the degenerate prefix
        arms[:, lo:hi] = arm_buf[:hi - lo].T
        eta[:, lo:hi] = rates.T

    return SimulationRecord(arms, eta, eps_hist, np.ascontiguousarray(state[1].T), matrix)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass
class RegretReport:
    """Aggregated outcome of a Monte Carlo experiment.

    ``mean_regret[t]`` is the mean over runs of the cumulative regret after
    t+1 rounds against the fixed competition path; the bound column is the
    theoretical envelope D * sqrt(M*t) * (5 + 4*sqrt(W)) at every prefix.
    """

    gamma: float
    comp_path: np.ndarray
    comp_loss: float
    path_complexity: float
    range_width: float
    mean_regret: np.ndarray
    stderr_regret: np.ndarray
    bound_curve: np.ndarray
    final_regrets: np.ndarray
    record: SimulationRecord

    @property
    def mean_final(self) -> float:
        return float(self.mean_regret[-1])

    @property
    def stderr_final(self) -> float:
        return float(self.stderr_regret[-1])

    @property
    def bound(self) -> float:
        return float(self.bound_curve[-1])

    @property
    def bound_satisfied(self) -> bool:
        return self.mean_final + 2.0 * self.stderr_final <= self.bound


def _regret_rows(record: SimulationRecord, comp_cum: np.ndarray, runs):
    """Yield ``(r, losses, cumulative losses, regret)`` of each run in `runs`, one ``(T,)`` row each."""
    for r, losses in record._loss_rows(runs):
        cum = np.cumsum(losses)
        yield r, losses, cum, cum - comp_cum


def _regret_statistics(record: SimulationRecord, comp_cum: np.ndarray):
    """Mean and standard error over runs of the regret curve, and each final regret.

    Two passes add one run's row at a time into a zeroed ``(T,)`` accumulator,
    as numpy's axis-0 ``mean`` and ``std(ddof=1)`` do, so the results equal
    theirs bit for bit (a sum of ``-0.0`` rows included) without holding a
    ``(runs, T)`` loss or regret matrix.
    """
    runs, horizon = record.arms.shape
    final_regrets = np.empty(runs)
    total = np.zeros(horizon)
    for r, _, _, regret in _regret_rows(record, comp_cum, range(runs)):
        final_regrets[r] = regret[-1]
        total += regret
    mean = total / runs
    if runs == 1:
        return mean, np.zeros(horizon), final_regrets
    squares = np.zeros(horizon)
    for _, _, _, regret in _regret_rows(record, comp_cum, range(runs)):
        regret -= mean
        squares += regret * regret
    stderr = np.sqrt(squares / (runs - 1)) / math.sqrt(runs)
    return mean, stderr, final_regrets


def _check_writable(path) -> None:
    """Raise the error that writing `path` would raise; create no file."""
    existed = os.path.lexists(path)
    with open(path, "ab"):
        pass
    if not existed:
        os.remove(path)


def run_experiment(cfg: ExperimentConfig, engine=simulate_runs) -> RegretReport:
    validate_config(cfg)
    try:
        model = parse_model(cfg.model, cfg.M)
    except ValueError as exc:
        raise ConfigError(f"key 'model': {exc}") from None
    if cfg.output is not None:  # an unwritable prefix fails before any work
        _check_writable(f"{cfg.output}_runs.csv")
        _check_writable(f"{cfg.output}_summary.csv")
    stream = build_stream(cfg)
    comp_path, k = competition_path(cfg, stream)
    comp_losses = stream.matrix[np.arange(stream.horizon), comp_path]
    path_w = complexity(model, comp_path)
    if cfg.gamma == "auto":
        gamma = default_gamma(model, cfg.T, k)
    else:
        gamma = float(cfg.gamma)

    record = engine(model, gamma, stream, cfg.seed, cfg.runs)

    comp_cum = np.cumsum(comp_losses)
    mean_regret, stderr, final_regrets = _regret_statistics(record, comp_cum)
    width = stream.range_width()
    rounds = np.arange(1, stream.horizon + 1, dtype=np.float64)
    bound_curve = width * np.sqrt(cfg.M * rounds) * (5.0 + 4.0 * math.sqrt(path_w))

    report = RegretReport(
        gamma=gamma,
        comp_path=comp_path,
        comp_loss=float(comp_cum[-1]),
        path_complexity=path_w,
        range_width=width,
        mean_regret=mean_regret,
        stderr_regret=stderr,
        bound_curve=bound_curve,
        final_regrets=final_regrets,
        record=record,
    )
    if cfg.output is not None:
        write_runs_csv(f"{cfg.output}_runs.csv", record, comp_path, comp_losses)
        write_summary_csv(f"{cfg.output}_summary.csv", report)
    return report


@contextlib.contextmanager
def _removed_on_failure(path):
    """Remove `path` when the block raises, then re-raise."""
    try:
        yield
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(path)
        raise


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _part_path(path, chunk: int) -> str:
    """File that the worker formatting run chunk `chunk` (>= 1) writes."""
    return f"{path}.{chunk}.part"


def _shared_fields(record: SimulationRecord, comp_path: np.ndarray,
                   comp_losses: np.ndarray) -> list[str]:
    """The fields that every run writes alike, formatted once: one string per block of rounds.

    Round t contributes ``,{comp_arm},{comp_loss},`` and ``,{epsilon},``,
    each ended by ``\\n``, which no formatted field contains. A block's
    string is split back into its pieces where it is used. This is about 50
    bytes per round, where a ``str`` object per piece would take about 150.
    """
    horizon = record.arms.shape[1]
    blocks = []
    for lo in range(0, horizon, _BLOCK_ROUNDS):
        hi = min(lo + _BLOCK_ROUNDS, horizon)
        blocks.append("".join(
            f",{cm},{cl!r},\n,{ep!r},\n" for cm, cl, ep in zip(
                (comp_path[lo:hi] + 1).tolist(), comp_losses[lo:hi].tolist(),
                record.eps[lo:hi].tolist())
        ))
    return blocks


def _write_run_rows(fh, record: SimulationRecord, comp_losses: np.ndarray,
                    shared: list[str], runs: range) -> None:
    """Write the rows of `runs` to the binary file `fh`, a block of rounds at a time.

    Rows are what ``csv.writer`` made of them: fields joined by ``,``, floats
    as ``repr``, each row ended by ``\\r\\n``. The fields of every run come
    from `shared` (:func:`_shared_fields`). ``psi`` changes only in a round
    whose loss sets it (:func:`_running_minimum`: a new minimum, or the
    run's first zero), so its text is that round's loss text, carried
    forward. Each block's rows are joined and encoded once.
    """
    horizon = record.arms.shape[1]
    for r, losses, cum, regret in _regret_rows(record, np.cumsum(comp_losses), runs):
        bits = _running_minimum(losses).view(np.int64)
        sets_psi = np.empty(horizon, dtype=bool)
        sets_psi[0] = True
        np.not_equal(bits[1:], bits[:-1], out=sets_psi[1:])
        psi_text = None  # the text of the running minimum before the block
        for b, lo in enumerate(range(0, horizon, _BLOCK_ROUNDS)):
            hi = min(lo + _BLOCK_ROUNDS, horizon)
            pieces = shared[b].split("\n")
            loss_texts = list(map(repr, losses[lo:hi].tolist()))
            # index into [psi_text, *loss_texts] of the round that set each round's psi
            source = np.maximum.accumulate(np.where(sets_psi[lo:hi], np.arange(1, hi - lo + 1), 0))
            psi_texts = np.array([psi_text, *loss_texts], dtype=object)[source].tolist()
            psi_text = psi_texts[-1]
            block = zip(
                range(lo, hi),
                np.add(record.arms[r, lo:hi], 1, dtype=np.intp).tolist(),
                loss_texts,
                cum[lo:hi].tolist(),
                pieces[0::2],
                regret[lo:hi].tolist(),
                record.eta[r, lo:hi].tolist(),
                pieces[1::2],
                psi_texts,
            )
            fh.write("".join([
                f"{r},{t},{arm},{loss},{c!r}{comp}{g!r},{e!r}{ep}{ps}\r\n"
                for t, arm, loss, c, comp, g, e, ep, ps in block
            ]).encode())


def _fork_writer(part: str, *args) -> int:
    """Fork a worker that writes :func:`_write_run_rows` output to `part`; its pid."""
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        with open(part, "wb") as fh:
            _write_run_rows(fh, *args)
        status = 0
    except BaseException as exc:
        # one stderr line and the exit status: nothing may unwind into the
        # caller's frames, which this forked copy shares with the parent
        reason = " ".join((str(exc) or type(exc).__name__).split())
        sys.stderr.write(f"worker writing {part} failed: {reason}\n")
        sys.stderr.flush()
    finally:
        os._exit(status)


def write_runs_csv(path, record: SimulationRecord, comp_path: np.ndarray,
                   comp_losses: np.ndarray) -> None:
    """One row per run and round, in run order.

    The runs are split into contiguous chunks, one per usable CPU. This
    process writes the first chunk into `path`; a forked worker writes each
    other chunk into its own part file, which is then appended in order and
    deleted. `path` is opened before any fork, and the header is written
    after. The bytes do not depend on the number of chunks. Without
    ``os.fork``, or with other threads alive, every chunk is written here.
    On any failure after `path` is opened, `path` and every part file are
    removed and every worker is reaped.
    """
    runs = record.arms.shape[0]
    n_chunks = min(runs, _usable_cpus()) or 1
    cuts = [runs * i // n_chunks for i in range(n_chunks + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    args = (record, comp_losses, _shared_fields(record, comp_path, comp_losses))
    forking = n_chunks > 1 and hasattr(os, "fork") and threading.active_count() == 1
    fh = open(path, "wb")  # an unwritable path fails before any fork
    pids, parts = [], []
    try:
        with _removed_on_failure(path), fh:
            if forking:
                for i in range(1, n_chunks):
                    parts.append(_part_path(path, i))
                    pids.append(_fork_writer(parts[-1], *args, chunks[i]))
            fh.write(RUNS_HEADER.encode() + b"\n")
            for chunk in chunks[:1] if forking else chunks:
                _write_run_rows(fh, *args, chunk)
            while pids:
                _, status = os.waitpid(pids.pop(0), 0)
                part = parts[0]
                if status != 0:
                    code = os.waitstatus_to_exitcode(status)
                    raise OSError(f"{path}: worker writing {part} exited with status {code}")
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
                os.remove(parts.pop(0))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for part in parts:
            with contextlib.suppress(OSError):
                os.remove(part)


def write_summary_csv(path, report: RegretReport) -> None:
    """One row per count of completed rounds, from 0; a failure after `path` opens removes it."""
    horizon = report.mean_regret.shape[0]
    fh = open(path, "w", newline="")
    with _removed_on_failure(path), fh:
        fh.write(SUMMARY_HEADER + "\n")
        fh.write("0,0.0,0.0,0.0\r\n")
        for lo in range(0, horizon, _BLOCK_ROUNDS):
            hi = min(lo + _BLOCK_ROUNDS, horizon)
            block = zip(range(lo + 1, hi + 1), report.mean_regret[lo:hi].tolist(),
                        report.stderr_regret[lo:hi].tolist(), report.bound_curve[lo:hi].tolist())
            fh.writelines(f"{t},{m!r},{s!r},{b!r}\r\n" for t, m, s, b in block)
