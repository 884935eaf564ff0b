"""The four benchmark workloads: generated inputs, set-up, one iteration, output check.

Why each workload exists is written in ``README.md`` next to this file. Every
workload is built from the seed alone (``seed`` and ``env_seed`` of the
experiment, or the bench's own generator for streams it writes), so the same
seed gives the same inputs and, the library being counter-based throughout,
the same outputs on every iteration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter_ns
from typing import Any

import numpy as np
from scalefree_bandit import environments, harness, reference
from scalefree_bandit.competitions import default_gamma, fixed_share_model, parse_model, switch_count
from scalefree_bandit.core import ScaleFreeBandit
from scalefree_bandit.rng import run_generator

import repo
import tracing

CONSERVATION_TOL = 1e-9  # the tolerance `verify` applies to the scalar learner
LOSS_REL_TOL = 1e-9      # same losses summed in another order


@dataclass
class Outcome:
    result: Any
    round_us: list[float]  # per-round latency samples of this iteration


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _file_lines_and_digest(path) -> tuple[bytes, int, str]:
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        first = fh.readline()
        fh.seek(0)
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return first.rstrip(b"\n"), lines, digest.hexdigest()


def _write_stream_csv(matrix, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,arm,loss\n")
        for t, row in enumerate(matrix.tolist()):
            fh.writelines(f"{t},{m + 1},{loss!r}\n" for m, loss in enumerate(row))


def sequential_arms(model, gamma, stream, seed, run) -> np.ndarray:
    """Arms of run `run` replayed by one ScaleFreeBandit on the same random stream."""
    learner = ScaleFreeBandit(model, gamma, rng=run_generator(seed, run))
    arms = np.empty(stream.horizon, dtype=np.intp)
    for t in range(stream.horizon):
        arms[t], _ = learner.play_round(lambda arm: stream.loss(t, arm))
    return arms


def independent_switching_optimum(matrix: np.ndarray, max_switches: int) -> float:
    """Smallest loss of an arm sequence with at most `max_switches` changes.

    Forward O(T*M^2*k) dynamic program over (arm, switches used), kept
    deliberately unlike the library's suffix DP so that it checks it.
    """
    horizon, n_arms = matrix.shape
    k = min(max_switches, horizon - 1)
    no_self_switch = np.where(np.eye(n_arms, dtype=bool), np.inf, 0.0)[:, :, None]
    best = np.full((n_arms, k + 1), np.inf)
    best[:, 0] = matrix[0]
    for t in range(1, horizon):
        switched = (best[:, None, :-1] + no_self_switch).min(axis=0)
        best[:, 1:] = np.minimum(best[:, 1:], switched)
        best += matrix[t][:, None]
    return float(best.min())


class Workload:
    name: str
    # spans expected to take the most self time, and their predicted share of the iteration
    predicted: tuple[tuple[str, ...], str]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference = None     # independent expected output, computed on first check
        self.first_digest = None  # outputs of the first iteration; later ones must match

    def prepare(self) -> None:
        """Write the generated input files (bench side, not measured)."""

    def setup(self) -> None:
        """What the program does before its first iteration (timed as setup_s)."""
        raise NotImplementedError

    def iterate(self, tracer=None) -> Outcome:
        raise NotImplementedError

    def random_streams(self) -> tuple[int, int, int]:
        """(base seed, runs, rounds) of the per-run uniforms the iteration draws."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        """Failures of one iteration's outputs; empty when they are correct."""
        raise NotImplementedError


class _Experiment(Workload):
    """A `scalefree-bandit run` sweep, called through `harness.run_experiment`."""

    def setup(self):
        self.cfg = harness.parse_config(self.config_path())
        self.cfg = replace(harness.apply_overrides(self.cfg, self.overrides()), output=self.output())
        harness.validate_config(self.cfg)

    def config_path(self) -> Path:
        raise NotImplementedError

    def overrides(self) -> list[str]:
        return []

    def output(self) -> str | None:
        return None

    def iterate(self, tracer=None):
        engine_ns = []

        def engine(*args):
            start = perf_counter_ns()
            record = harness.simulate_runs(*args)
            engine_ns.append(perf_counter_ns() - start)
            return record

        if tracer is not None:
            engine = tracer.wrap("harness.simulate_runs", engine, tracing.engine_counts)
        report = harness.run_experiment(self.cfg, engine=engine)
        return Outcome(report, [ns / 1e3 / self.cfg.T for ns in engine_ns])

    def random_streams(self):
        return self.cfg.seed, self.cfg.runs, self.cfg.T

    def check(self, outcome):
        report = outcome.result
        rec = report.record
        failures = []
        if (np.isnan(rec.eta).any() or not np.isfinite(rec.losses).all()
                or not np.isfinite(rec.psi).all() or not np.isfinite(rec.final_probs).all()):
            failures.append("non-finite values in the engine record")
        digest = _digest(rec.arms) + _digest(report.comp_path) + self.check_files(failures)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            failures.append("arms, oracle path or files differ from the first iteration")
        return failures + self.check_report(report)

    def check_files(self, failures: list[str]) -> str:
        """Check the written files, appending to `failures`; returns their digest."""
        return ""

    def check_report(self, report) -> list[str]:
        return []


class TrackingSweep(_Experiment):
    name = "tracking-sweep"
    predicted = (("harness.simulate_runs",), "about 2.0 s of 2.2 s")
    runs = 200
    sample_runs = (0, runs - 1)

    def config_path(self):
        return repo.TRACKING_CFG

    def overrides(self):
        return [f"runs={self.runs}", f"seed={self.seed}", f"env_seed={self.seed}"]

    def check_report(self, report):
        failures = []
        if self.reference is None:
            model = parse_model(self.cfg.model, self.cfg.M)
            stream = harness.build_stream(self.cfg)
            self.reference = {r: sequential_arms(model, report.gamma, stream, self.cfg.seed, r)
                              for r in self.sample_runs}
        for r, arms in self.reference.items():
            if not np.array_equal(report.record.arms[r], arms):
                failures.append(f"run {r}: arms differ from simulate_runs_sequential")
        if not math.isclose(report.mean_final, float(report.final_regrets.mean()),
                            rel_tol=1e-12, abs_tol=1e-9):
            failures.append("mean regret differs from the mean of final_regrets")
        if not report.bound_satisfied:
            failures.append("regret bound not satisfied")
        return failures


class TrackingCsv(TrackingSweep):
    name = "tracking-csv"
    predicted = (("harness.write_runs_csv",), "about 3.1 s of 4.3 s")
    runs = 20
    sample_runs = ()

    def output(self):
        return str(self.workdir / "tracking")

    def check_files(self, failures):
        files = []
        for suffix, header, rows in (("_runs.csv", harness.RUNS_HEADER, self.runs * self.cfg.T),
                                     ("_summary.csv", harness.SUMMARY_HEADER, self.cfg.T + 1)):
            first, lines, digest = _file_lines_and_digest(self.cfg.output + suffix)
            if first.decode() != header:
                failures.append(f"{suffix}: header {first!r}")
            if lines != rows + 1:
                failures.append(f"{suffix}: {lines - 1} rows, expected {rows}")
            files.append(digest)
        return "".join(files)


class SwitchingOracle(_Experiment):
    name = "switching-oracle"
    predicted = (("reference.best_switching_sequence",), "about 1.77 s of 2.9 s")

    def __init__(self, seed, workdir, n_arms=8, horizon=10_000, segments=21, runs=10,
                 write_output=False):
        super().__init__(seed, workdir)
        self.n_arms, self.horizon, self.segments, self.runs = n_arms, horizon, segments, runs
        self.switches = segments - 1
        self.write_output = write_output

    def config_path(self):
        return self.workdir / "switching.cfg"

    def output(self):
        return str(self.workdir / "switching") if self.write_output else None

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        cuts = np.sort(rng.choice(np.arange(1, self.horizon), self.segments - 1, replace=False))
        means = rng.uniform(0.0, 1.0, (self.segments, self.n_arms))
        segment_of_round = np.searchsorted(cuts, np.arange(self.horizon), side="right")
        noise = rng.uniform(-0.1, 0.1, (self.horizon, self.n_arms))
        self.matrix = means[segment_of_round] + noise
        self.workdir.mkdir(parents=True, exist_ok=True)
        _write_stream_csv(self.matrix, self.workdir / "stream.csv")
        self.config_path().write_text(
            f"M={self.n_arms}\nT={self.horizon}\nruns={self.runs}\nseed={self.seed}\n"
            f"gamma=auto\nmodel=switching:0.002\nenv=csv:{self.workdir / 'stream.csv'}\n"
            f"env_seed={self.seed}\ncompetition=switching:{self.switches}\n")

    def check_report(self, report):
        failures = []
        own = reference.path_loss(environments.scripted(self.matrix), report.comp_path)
        if not math.isclose(report.comp_loss, own, rel_tol=LOSS_REL_TOL):
            failures.append(f"oracle loss {report.comp_loss!r} != path_loss {own!r}")
        if switch_count(report.comp_path) > self.switches:
            failures.append(f"oracle path uses {switch_count(report.comp_path)} switches")
        if self.reference is None:
            self.reference = independent_switching_optimum(self.matrix, self.switches)
        if not math.isclose(own, self.reference, rel_tol=LOSS_REL_TOL):
            failures.append(f"oracle loss {own!r} != independent DP optimum {self.reference!r}")
        return failures


@dataclass
class OnlineResult:
    arms: list[int]
    drift_max: float


class OnlineWide(Workload):
    name = "online-wide"
    predicted = (("core.select", "core.update"), "most of the loop")

    def __init__(self, seed, workdir, n_arms=256, horizon=20_000):
        super().__init__(seed, workdir)
        self.n_arms, self.horizon = n_arms, horizon

    def setup(self):
        rng = np.random.default_rng(self.seed)
        before, after = rng.choice(self.n_arms, 2, replace=False)
        half = self.horizon // 2
        segments = []
        for length, best in ((half, before), (self.horizon - half, after)):
            means = np.full(self.n_arms, 0.75)
            means[best] = 0.25
            segments.append((length, means))
        self.stream = environments.piecewise_stationary(self.n_arms, self.horizon, segments, 0.2, self.seed)
        self.model = fixed_share_model(self.n_arms, 1.0 / self.horizon)
        self.gamma = default_gamma(self.model, self.horizon, 1)

    def iterate(self, tracer=None):
        learner = ScaleFreeBandit(self.model, self.gamma, rng=run_generator(self.seed, 0))
        select, update = learner.select, learner.update
        if tracer is not None:
            select, update = tracer.wrap("core.select", select), tracer.wrap("core.update", update)
        loss = self.stream.loss
        arms, latency, conservation = [], [], []
        for t in range(self.horizon):
            t0 = perf_counter_ns()
            arm, _ = select()
            t1 = perf_counter_ns()
            value = loss(t, arm)
            t2 = perf_counter_ns()
            update(value)
            t3 = perf_counter_ns()
            latency.append((t1 - t0 + t3 - t2) / 1e3)
            arms.append(arm)
            conservation.append(learner.last_conservation)
        log_mass = np.array(conservation)
        drift = float(np.abs(np.expm1(log_mass[:, 1] - log_mass[:, 0])).max())
        if tracer is not None:
            tracer.note("core.conservation_drift_max", drift)
        return Outcome(OnlineResult(arms, drift), latency)

    def random_streams(self):
        return self.seed, 1, self.horizon

    def check(self, outcome):
        failures = []
        if not outcome.result.drift_max <= CONSERVATION_TOL:
            failures.append(f"conservation drift {outcome.result.drift_max:.3g} > {CONSERVATION_TOL:g}")
        if self.reference is None:
            record = harness.simulate_runs(self.model, self.gamma, self.stream, self.seed, 1)
            self.reference = record.arms[0].astype(np.intp)
        if not np.array_equal(np.array(outcome.result.arms), self.reference):
            failures.append("arms differ from simulate_runs(..., runs=1)")
        return failures


WORKLOADS = {w.name: w for w in (TrackingSweep, TrackingCsv, OnlineWide, SwitchingOracle)}


def off_path_probe(seed: int, workdir: Path, tracer) -> None:
    """One small traced pass over every layer, for per-layer metrics that the
    workload's own iteration never reaches (an untouched layer has no time to
    report). M=4, T=2000: a CSV-read, DP-scored, CSV-written sweep of 2 runs,
    then one scalar learner driven for 2000 rounds."""
    sweep = SwitchingOracle(seed, workdir / "probe", n_arms=4, horizon=2000, segments=3, runs=2,
                            write_output=True)
    learner = OnlineWide(seed, workdir, n_arms=4, horizon=2000)
    sweep.prepare()
    sweep.setup()
    learner.setup()
    tracer.run("probe", lambda tr: (sweep.iterate(tr), learner.iterate(tr)))
