import csv
import hashlib
import math
import mmap
import os
import shutil
import tracemalloc
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest

from scalefree_bandit import cli, core, harness
from scalefree_bandit.competitions import default_gamma, fixed_arm_model, fixed_share_model
from scalefree_bandit.core import NumericalDegeneracyError
from scalefree_bandit.environments import scripted, write_csv
from scalefree_bandit.harness import (
    RUNS_HEADER,
    SUMMARY_HEADER,
    ConfigError,
    SimulationRecord,
    ExperimentConfig,
    apply_overrides,
    build_stream,
    parse_config,
    run_experiment,
    simulate_runs,
    write_runs_csv,
)
from scalefree_bandit.rng import run_generator
from scalefree_bandit.verify import (check_conservation, check_dense_vs_core,
                                     check_sequence_mixture, two_segment_config,
                                     two_segment_stream)

CONFIG_TEXT = """\
# tracking demo
M=4
T=200
runs=3
seed=99
gamma=auto
model=switching:0.005
env=piecewise
env_seed=7
noise_width=0.2
segments=100@0.25|0.75|0.75|0.75;100@0.75|0.25|0.75|0.75  # swap best arm
competition=switching:1
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return path


class TestConfig:
    def test_parse_round_trip(self, config_file):
        cfg = parse_config(config_file)
        assert cfg.M == 4 and cfg.T == 200 and cfg.runs == 3
        assert cfg.gamma == "auto"
        assert cfg.model == "switching:0.005"
        assert cfg.segments.startswith("100@0.25")
        assert cfg.output is None

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("M=4\nhorizon=10\n")
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("M=four\n")
        with pytest.raises(ConfigError, match="'M'"):
            parse_config(path)

    def test_override(self, config_file):
        cfg = parse_config(config_file)
        cfg = apply_overrides(cfg, ["runs=7", "gamma=2.5"])
        assert cfg.runs == 7 and cfg.gamma == 2.5

    @pytest.mark.parametrize("raw", ["-1", "inf", "nan"])
    def test_nonpositive_gamma_rejected(self, config_file, raw):
        cfg = parse_config(config_file)
        with pytest.raises(ConfigError, match="gamma"):
            apply_overrides(cfg, [f"gamma={raw}"])

    def test_validation_bounds(self):
        with pytest.raises(ConfigError, match="'runs'"):
            run_experiment(ExperimentConfig(M=2, T=5, runs=0))

    # a config built in Python does not go through the parser's conversions
    @pytest.mark.parametrize("key,value", [
        ("seed", -1), ("env_seed", -3), ("noise_width", math.nan), ("gamma", -1.0),
        ("output", "")])
    def test_python_config_names_its_key(self, key, value):
        cfg = replace(ExperimentConfig(M=2, T=4, segments="4@0|1", noise_width=0.1), **{key: value})
        with pytest.raises(ConfigError, match=f"^bad value for key '{key}': "):
            run_experiment(cfg)

    def test_bad_segment_grammar(self):
        cfg = ExperimentConfig(M=2, T=4, runs=1, segments="4@0.1|0.2|0.3")
        with pytest.raises(ConfigError, match="segments"):
            build_stream(cfg)

    def test_csv_environment(self, tmp_path):
        stream = scripted(np.arange(8.0).reshape(4, 2))
        path = tmp_path / "s.csv"
        write_csv(stream, path)
        cfg = ExperimentConfig(M=2, T=4, runs=1, env=f"csv:{path}")
        assert np.array_equal(build_stream(cfg).matrix, stream.matrix)

    def test_csv_shape_mismatch_named(self, tmp_path):
        stream = scripted(np.zeros((4, 2)))
        path = tmp_path / "s.csv"
        write_csv(stream, path)
        cfg = ExperimentConfig(M=3, T=4, runs=1, env=f"csv:{path}")
        with pytest.raises(ConfigError, match="'env'"):
            build_stream(cfg)

    def test_affine_wrapping(self, tmp_path):
        stream = scripted(np.ones((3, 2)))
        path = tmp_path / "s.csv"
        write_csv(stream, path)
        cfg = ExperimentConfig(M=2, T=3, runs=1, env=f"csv:{path}", affine="2,5")
        assert np.array_equal(build_stream(cfg).matrix, np.full((3, 2), 7.0))

    def test_unknown_environment_named(self):
        cfg = ExperimentConfig(M=2, T=3, runs=1, env="simulator")
        with pytest.raises(ConfigError, match="'env'"):
            build_stream(cfg)

    def test_override_must_be_key_value(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(ExperimentConfig(), ["runs"])

    def test_config_line_must_be_key_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("M=2\njust some text\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config(path)

    def test_two_segment_config_rejects_unknown_keys(self):
        assert two_segment_config(competition="switching:1").competition == "switching:1"
        with pytest.raises(TypeError, match="compettion"):
            two_segment_config(compettion="switching:1")

    def test_bad_competition_specs(self, tmp_path):
        stream = scripted(np.zeros((4, 2)))
        csv_path = tmp_path / "s.csv"
        write_csv(stream, csv_path)
        base = dict(M=2, T=4, runs=1, env=f"csv:{csv_path}")
        with pytest.raises(ConfigError, match="'competition'"):
            run_experiment(ExperimentConfig(**base, competition="best"))
        with pytest.raises(ConfigError, match="switch count"):
            run_experiment(ExperimentConfig(**base, competition="switching:two"))
        with pytest.raises(ConfigError, match="switch count"):
            run_experiment(ExperimentConfig(**base, competition="switching:-1"))


@dataclass
class SequentialRecord:
    """What one ScaleFreeBandit per run recorded itself, losses and running minimum included."""

    arms: np.ndarray
    losses: np.ndarray
    eta: np.ndarray
    psi: np.ndarray
    eps: np.ndarray
    final_probs: np.ndarray


def simulate_runs_sequential(model, gamma, stream, base_seed, runs) -> SequentialRecord:
    """Reference path for the engine: one ScaleFreeBandit per run, played to the horizon."""
    horizon, n_arms = stream.horizon, stream.n_arms
    arms = np.empty((runs, horizon), dtype=harness._arm_dtype(n_arms))
    losses = np.empty((runs, horizon))
    eta = np.empty((runs, horizon))
    psi = np.empty((runs, horizon))
    eps_hist = np.empty(horizon)
    final_probs = np.empty((runs, n_arms))
    for r in range(runs):
        state = core.ScaleFreeBandit(model, gamma, rng=run_generator(base_seed, r))
        for t in range(horizon):
            arm, _ = state.select()
            loss = stream.loss(t, arm)
            state.update(loss)
            arms[r, t] = arm
            losses[r, t] = loss
            rate = state.stats.rate_prev
            eta[r, t] = np.inf if rate is None else rate
            psi[r, t] = state.stats.min_loss
            if r == 0:
                eps_hist[t] = core.mixture_coefficient(t + 1, n_arms)
        final_probs[r] = state.probabilities
    return SequentialRecord(arms, losses, eta, psi, eps_hist, final_probs)


def assert_engine_matches_sequential(model, stream):
    vec = simulate_runs(model, 1.5, stream, base_seed=7, runs=5)
    seq = simulate_runs_sequential(model, 1.5, stream, base_seed=7, runs=5)
    assert np.array_equal(vec.arms, seq.arms)
    assert np.array_equal(vec.psi, seq.psi)
    assert np.array_equal(vec.eps, seq.eps)
    assert vec.eta.tobytes() == seq.eta.tobytes()
    assert vec.final_probs.tobytes() == seq.final_probs.tobytes()


class TestEngineEquivalence:
    # the engine draws its uniforms 256 rounds at a time: cross the refills
    @pytest.mark.parametrize("horizon", [2, 255, 256, 257, 513])
    def test_vectorized_matches_sequential_runs(self, horizon):
        stream = two_segment_stream(horizon=horizon)
        for model in (fixed_share_model(4, 1 / 300), fixed_arm_model(4)):
            assert_engine_matches_sequential(model, stream)

    def test_engine_matches_core_at_full_horizon(self):
        # the Monte Carlo acceptance runs go through the engine; pin its
        # agreement with the sequential learner at the acceptance scale
        stream = two_segment_stream(horizon=10_000)
        model = fixed_share_model(4, 1e-4)
        vec = simulate_runs(model, 3.75, stream, base_seed=2024, runs=2)
        seq = simulate_runs_sequential(model, 3.75, stream, base_seed=2024, runs=2)
        assert np.array_equal(vec.arms, seq.arms)
        assert np.array_equal(vec.psi, seq.psi)
        assert vec.eta.tobytes() == seq.eta.tobytes()
        assert vec.final_probs.tobytes() == seq.final_probs.tobytes()

    def test_derived_losses_and_psi_equal_learners_bits(self):
        # the record derives losses and the running minimum from the arms;
        # they must equal what each learner saw and kept, -0.0 against 0.0
        # and subnormals included (np.minimum alone may keep the later zero)
        rng = np.random.default_rng(8)
        values = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 0.5, -0.25])
        matrix = rng.choice(values, size=(300, 3))
        matrix[:40] = rng.choice([0.0, -0.0, 5e-324], size=(40, 3))
        stream = scripted(matrix)
        for model in (fixed_share_model(3, 0.05), fixed_arm_model(3)):
            vec = simulate_runs(model, 1.5, stream, base_seed=4, runs=6)
            seq = simulate_runs_sequential(model, 1.5, stream, base_seed=4, runs=6)
            assert np.array_equal(vec.arms, seq.arms)
            assert vec.losses.tobytes() == seq.losses.tobytes()
            assert vec.psi.tobytes() == seq.psi.tobytes()
            negative_zero = (seq.psi == 0) & np.signbit(seq.psi)
            assert negative_zero.any() and (seq.psi == 0)[~negative_zero].any()

    @pytest.mark.parametrize("runs", [1, 5, 69])
    @pytest.mark.parametrize("n_arms", [3, 4, 8])
    def test_vectorized_matches_sequential_on_signed_zeros(self, n_arms, runs):
        # the batch's fmin (running minimum) and fmax (exponent clamp) may keep
        # the other zero of a +-0 tie where the learner's compares keep the
        # first; that sign must reach no output (69 runs reach numpy's SIMD
        # body and its tail)
        rng = np.random.default_rng(100 * n_arms + runs)
        stream = scripted(rng.choice([-0.0, 0.0, 0.5, 1.0], size=(150, n_arms)))
        for model in (fixed_share_model(n_arms, 0.05), fixed_arm_model(n_arms)):
            vec = simulate_runs(model, 1.5, stream, base_seed=3, runs=runs)
            seq = simulate_runs_sequential(model, 1.5, stream, base_seed=3, runs=runs)
            assert vec.arms.tobytes() == seq.arms.tobytes()
            assert vec.eta.tobytes() == seq.eta.tobytes()
            assert vec.final_probs.tobytes() == seq.final_probs.tobytes()

    @pytest.mark.parametrize("n_arms", [8, 16])
    def test_vectorized_matches_sequential_above_four_arms(self, n_arms):
        # from 8 arms on, the batched sums over the arms go through a (runs, M) copy
        stream = two_segment_stream(n_arms=n_arms, horizon=300)
        for model in (fixed_share_model(n_arms, 1 / 300), fixed_arm_model(n_arms)):
            assert_engine_matches_sequential(model, stream)

    @pytest.mark.parametrize("n_arms", [3, 4, 7, 8, 9, 16, 64])
    def test_run_bits_do_not_depend_on_batch(self, n_arms):
        # run 0 alone, and beside 1, 6 and 199 other runs
        stream = scripted(np.random.default_rng(n_arms).uniform(-1.0, 2.0, (60, n_arms)))
        for model in (fixed_share_model(n_arms, 0.01), fixed_arm_model(n_arms)):
            alone = simulate_runs(model, 2.5, stream, base_seed=9, runs=1)
            for runs in (2, 7, 200):
                batch = simulate_runs(model, 2.5, stream, base_seed=9, runs=runs)
                assert batch.arms[0].tobytes() == alone.arms[0].tobytes()
                assert batch.eta[0].tobytes() == alone.eta[0].tobytes()
                assert batch.final_probs[0].tobytes() == alone.final_probs[0].tobytes()

    def test_engine_matches_sequential_at_extreme_alpha(self):
        # alpha > (M-1)/M: leaving is likelier than staying
        stream = two_segment_stream(n_arms=2, horizon=300)
        assert_engine_matches_sequential(fixed_share_model(2, 0.9), stream)

    def test_arm_indices_past_int16(self):
        # loss = arm index, so a wrapped arm would show as a wrong loss
        n_arms = 40_000
        stream = scripted(np.tile(np.arange(n_arms, dtype=np.float64), (3, 1)))
        model = fixed_share_model(n_arms, 0.01)
        vec = simulate_runs(model, 1.0, stream, base_seed=1, runs=4)
        seq = simulate_runs_sequential(model, 1.0, stream, base_seed=1, runs=4)
        assert vec.arms.max() > np.iinfo(np.int16).max
        assert np.array_equal(vec.arms, seq.arms)
        assert np.array_equal(vec.losses, vec.arms.astype(np.float64))
        assert np.array_equal(seq.losses, seq.arms.astype(np.float64))

    # the base seeds draw the last arm, whose index the next narrower type would wrap
    @pytest.mark.parametrize("n_arms,dtype,base_seed", [
        (256, np.uint8, 109), (257, np.uint16, 109), (65537, np.uint32, 15835)])
    def test_arm_dtype_boundaries(self, n_arms, dtype, base_seed):
        # loss = arm index, so a wrapped arm would show as a wrong loss
        stream = scripted(np.tile(np.arange(n_arms, dtype=np.float64), (3, 1)))
        model = fixed_share_model(n_arms, 0.01)
        vec = simulate_runs(model, 1.0, stream, base_seed=base_seed, runs=2)
        seq = simulate_runs_sequential(model, 1.0, stream, base_seed=base_seed, runs=2)
        assert vec.arms.dtype == dtype
        assert (vec.arms == n_arms - 1).any()
        assert np.array_equal(vec.arms, seq.arms)
        assert vec.losses.tobytes() == seq.losses.tobytes()
        assert np.array_equal(seq.losses, seq.arms.astype(np.float64))

    def test_overflowing_losses_raise_named_error(self):
        cfg = ExperimentConfig(
            M=4, T=200, runs=3, seed=5, gamma=1.0, model="switching:0.01",
            env="piecewise", env_seed=2, noise_width=0.1,
            segments="100@0.2|0.7|0.7|0.7;100@0.7|0.2|0.7|0.7", affine="1e170,0",
        )
        with pytest.raises(NumericalDegeneracyError, match="rate"), np.errstate(over="ignore"):
            run_experiment(cfg)


def first_sequential_error(model, gamma, stream, base_seed, runs):
    """(round, message) of the first range error of one learner per run, in round order."""
    first = None
    for r in range(runs):
        state = core.ScaleFreeBandit(model, gamma, rng=run_generator(base_seed, r))
        for t in range(stream.horizon):
            try:
                state.play_round(lambda arm: stream.loss(t, arm))
            except NumericalDegeneracyError as exc:
                key = (t, "mass" in str(exc), str(exc))  # rate is checked before mass
                first = key if first is None else min(first, key)
                break
    return None if first is None else (first[0], first[2])


class TestEngineRangeChecks:
    """The engine checks once per block, and raises what the learners raise first."""

    # a round at a block's start, in its middle, at its end, and in a final partial block
    BAD_ROUNDS = [harness._BLOCK_ROUNDS, 300, 2 * harness._BLOCK_ROUNDS - 1,
                  2 * harness._BLOCK_ROUNDS + 8]

    @staticmethod
    def assert_raises_first_error(model, gamma, matrix, bad_round, message):
        stream = scripted(matrix)
        with np.errstate(all="ignore"):
            assert first_sequential_error(model, gamma, stream, 3, 4) == (bad_round, message)
            with pytest.raises(NumericalDegeneracyError) as info:
                simulate_runs(model, gamma, stream, base_seed=3, runs=4)
            assert str(info.value) == message
            # the rounds before the bad one pass, whatever block they end in
            simulate_runs(model, gamma, scripted(matrix[:bad_round]), base_seed=3, runs=4)

    @pytest.mark.parametrize("bad_round", BAD_ROUNDS)
    def test_rate_error(self, bad_round):
        # every squared excess overflows at the bad round: the rate falls to 0
        matrix = np.tile([0.2, 0.7, 0.7], (2 * harness._BLOCK_ROUNDS + 20, 1))
        matrix[bad_round] = 1e300
        self.assert_raises_first_error(fixed_share_model(3, 0.01), 1.0, matrix, bad_round,
                                       "adaptive rate left (0, inf): extreme losses or gamma")

    @pytest.mark.parametrize("bad_round", BAD_ROUNDS)
    def test_mass_error_before_the_rate_error_it_causes(self, bad_round):
        # gamma 1e300 sends the selected arm's log-weight to -inf at the
        # round before the bad one; a run that then selects the other arm
        # loses all its mass (NaN log-weights, so a NaN rate next round)
        matrix = np.tile([0.2, 0.7], (2 * harness._BLOCK_ROUNDS + 20, 1))
        matrix[bad_round - 1] = 1e12
        matrix[bad_round] = 1e40
        self.assert_raises_first_error(fixed_arm_model(2), 1e300, matrix, bad_round,
                                       "weight mass vanished or is not finite")

    @pytest.mark.parametrize("bad_round", BAD_ROUNDS)
    def test_nan_rate_with_a_nonzero_denominator(self, bad_round):
        # a NaN gamma leaves the rate NaN, which passes only while the
        # denominator is 0: zero losses keep it 0 until the bad round
        matrix = np.zeros((bad_round + 1, 2))
        matrix[bad_round] = [1.0, 2.0]
        model = fixed_arm_model(2)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalDegeneracyError, match="rate"):
                simulate_runs(model, math.nan, scripted(matrix), base_seed=3, runs=4)
            simulate_runs(model, math.nan, scripted(matrix[:bad_round]), base_seed=3, runs=4)


class TestRunExperiment:
    def zero_config(self, tmp_path, runs=1):
        stream = scripted(np.zeros((6, 2)))
        path = tmp_path / "zeros.csv"
        write_csv(stream, path)
        return ExperimentConfig(M=2, T=6, runs=runs, seed=3, gamma=1.0,
                                model="fixed", env=f"csv:{path}",
                                competition="fixed")

    def test_zero_losses_zero_regret(self, tmp_path):
        report = run_experiment(self.zero_config(tmp_path))
        assert np.all(report.mean_regret == 0.0)
        assert report.bound == 0.0
        assert report.bound_satisfied  # 0 <= 0

    def test_regret_accounting_identity(self, tmp_path):
        cfg = ExperimentConfig(
            M=4, T=150, runs=4, seed=5, gamma="auto", model="switching:0.01",
            env="piecewise", env_seed=2, noise_width=0.1,
            segments="75@0.2|0.7|0.7|0.7;75@0.7|0.2|0.7|0.7",
            competition="switching:1", output=str(tmp_path / "exp"),
        )
        report = run_experiment(cfg)
        with open(tmp_path / "exp_runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        per_run_loss = {}
        per_run_comp = {}
        final_regret = {}
        for row in rows:
            r = int(row["run"])
            per_run_loss[r] = per_run_loss.get(r, 0.0) + float(row["loss"])
            per_run_comp[r] = per_run_comp.get(r, 0.0) + float(row["comp_loss"])
            final_regret[r] = float(row["regret"])
        for r in range(cfg.runs):
            assert final_regret[r] == pytest.approx(
                per_run_loss[r] - per_run_comp[r], abs=1e-9
            )
        assert report.mean_final == pytest.approx(
            np.mean([final_regret[r] for r in range(cfg.runs)]), abs=1e-9
        )

    def test_csv_headers_exact(self, tmp_path):
        cfg = self.zero_config(tmp_path)
        cfg.output = str(tmp_path / "out")
        run_experiment(cfg)
        runs_first = open(tmp_path / "out_runs.csv").readline().rstrip("\n")
        summary_first = open(tmp_path / "out_summary.csv").readline().rstrip("\n")
        assert runs_first == RUNS_HEADER == "run,t,arm,loss,cum_loss,comp_arm,comp_loss,regret,eta,epsilon,psi"
        assert summary_first == SUMMARY_HEADER == "t,mean_regret,stderr_regret,bound"

    def test_summary_starts_at_zero(self, tmp_path):
        cfg = self.zero_config(tmp_path)
        cfg.output = str(tmp_path / "out")
        run_experiment(cfg)
        with open(tmp_path / "out_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["t"] == "0" and float(rows[0]["mean_regret"]) == 0.0
        assert len(rows) == cfg.T + 1

    def test_summary_bound_column_matches_report(self, tmp_path):
        cfg = ExperimentConfig(
            M=3, T=60, runs=2, seed=1, gamma=1.0, model="switching:0.05",
            env="piecewise", env_seed=4, noise_width=0.1,
            segments="30@0.1|0.6|0.6;30@0.6|0.1|0.6",
            competition="switching:1", output=str(tmp_path / "b"),
        )
        report = run_experiment(cfg)
        with open(tmp_path / "b_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["bound"]) == report.bound
        assert float(rows[-1]["mean_regret"]) == report.mean_final

    def test_byte_identical_reruns(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            cfg = ExperimentConfig(
                M=3, T=80, runs=3, seed=11, gamma="auto", model="switching:0.02",
                env="piecewise", env_seed=6, noise_width=0.3,
                segments="40@0.1|0.6|0.6;40@0.6|0.1|0.6",
                competition="switching:1", output=str(tmp_path / name),
            )
            run_experiment(cfg)
            blob = (tmp_path / f"{name}_runs.csv").read_bytes()
            blob += (tmp_path / f"{name}_summary.csv").read_bytes()
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    def test_affine_runs_select_identically(self, tmp_path):
        base = ExperimentConfig(
            M=4, T=250, runs=3, seed=13, gamma=2.0, model="switching:0.004",
            env="piecewise", env_seed=9, noise_width=0.2,
            segments="125@0.25|0.75|0.75|0.75;125@0.75|0.25|0.75|0.75",
            competition="switching:1",
        )
        wrapped = ExperimentConfig(**{**base.__dict__, "affine": "2,5"})
        plain = run_experiment(base)
        mapped = run_experiment(wrapped)
        assert np.array_equal(plain.record.arms, mapped.record.arms)
        # value-level outputs scale with the map
        assert mapped.range_width == pytest.approx(2 * plain.range_width, rel=1e-12)
        assert mapped.mean_final == pytest.approx(2 * plain.mean_final, rel=1e-9)

    @pytest.mark.parametrize("runs,horizon", [(1, 40), (7, 33), (2000, 500), (16, 10_000)])
    def test_statistics_equal_numpy_on_regret_matrix(self, runs, horizon):
        half = horizon // 2
        cfg = ExperimentConfig(
            M=4, T=horizon, runs=runs, seed=17, gamma="auto", model="switching:0.001",
            env="piecewise", env_seed=3, noise_width=0.2,
            segments=f"{half}@0.25|0.75|0.75|0.75;{horizon - half}@0.75|0.25|0.75|0.75",
            competition="switching:1",
        )
        report = run_experiment(cfg)
        matrix = build_stream(cfg).matrix
        comp_losses = matrix[np.arange(horizon), report.comp_path]
        regret = np.cumsum(report.record.losses, axis=1) - np.cumsum(comp_losses)
        if runs > 1:
            stderr = regret.std(axis=0, ddof=1) / math.sqrt(runs)
        else:
            stderr = np.zeros(horizon)
        for got, want in ((report.mean_regret, regret.mean(axis=0)),
                          (report.stderr_regret, stderr),
                          (report.final_regrets, regret[:, -1].copy())):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @staticmethod
    def traced_peak(cfg):
        # the record's (runs, T) arrays are mapped outside the heap, where
        # tracemalloc does not see them; everything else counts
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for array in (report.record.arms, report.record.eta):
            while isinstance(array, np.ndarray):
                array = array.base
            assert isinstance(array.obj, mmap.mmap)  # np.frombuffer holds a memoryview
        return peak

    def test_peak_memory_without_run_temporaries(self):
        # beside the mapped record, the engine and the aggregation may hold
        # (runs, T) float64 at most: no full draw matrix, no regret matrix
        cfg = ExperimentConfig(
            M=4, T=2000, runs=200, seed=5, gamma="auto", model="switching:0.001",
            env="piecewise", env_seed=2, noise_width=0.2,
            segments="1000@0.25|0.75|0.75|0.75;1000@0.75|0.25|0.75|0.75",
            competition="switching:1",
        )
        assert self.traced_peak(cfg) < cfg.runs * cfg.T * 8

    def test_peak_memory_of_many_short_runs(self):
        # below one block of rounds the draw buffer is (T, runs) and no run
        # keeps its generator (about 1 kB each); the kernel's own (runs, M)
        # working set is allowed 32 arrays
        cfg = ExperimentConfig(
            M=2, T=2, runs=20_000, seed=5, gamma=1.0, model="switching:0.001",
            env="piecewise", env_seed=2, noise_width=0.2, segments="1@0.25|0.75;1@0.75|0.25",
            competition="switching:1",
        )
        assert self.traced_peak(cfg) < cfg.runs * cfg.T * 8 + 32 * cfg.runs * cfg.M * 8

    def test_record_stores_no_other_run_round_array(self):
        # 9 bytes per run-round: the uint8 arms and the float64 rates;
        # losses and psi are computed from the arms and the stream's matrix
        cfg = ExperimentConfig(
            M=4, T=50, runs=3, seed=5, gamma=1.0, model="switching:0.01",
            env="piecewise", env_seed=2, noise_width=0.2,
            segments="25@0.25|0.75|0.75|0.75;25@0.75|0.25|0.75|0.75",
        )
        record = run_experiment(cfg).record
        stored = {f.name: getattr(record, f.name) for f in fields(record)}
        per_run_round = {name for name, value in stored.items()
                         if isinstance(value, np.ndarray) and value.shape == (cfg.runs, cfg.T)}
        assert per_run_round == {"arms", "eta"}
        assert record.arms.itemsize + record.eta.itemsize == 9
        assert np.array_equal(record.matrix, build_stream(cfg).matrix)
        assert not record.matrix.flags.writeable
        assert record.losses.shape == record.psi.shape == (cfg.runs, cfg.T)

    @staticmethod
    def recording_engine(calls, fail=False):
        def engine(*args):
            calls.append(args)
            if fail:
                raise NumericalDegeneracyError("stub engine")
            return simulate_runs(*args)
        return engine

    def test_unwritable_output_fails_before_the_engine(self, tmp_path):
        calls = []
        cfg = replace(self.zero_config(tmp_path), output=str(tmp_path / "absent" / "out"))
        before = sorted(tmp_path.iterdir())
        with pytest.raises(FileNotFoundError, match=r"absent/out_runs\.csv"):
            run_experiment(cfg, engine=self.recording_engine(calls))
        assert calls == []
        assert sorted(tmp_path.iterdir()) == before

    def test_output_check_creates_and_truncates_nothing(self, tmp_path):
        # the engine fails after the check: no new output file is left, and an
        # existing one keeps its bytes
        calls = []
        cfg = replace(self.zero_config(tmp_path), output=str(tmp_path / "out"))
        (tmp_path / "out_summary.csv").write_bytes(b"kept")
        with pytest.raises(NumericalDegeneracyError, match="stub"):
            run_experiment(cfg, engine=self.recording_engine(calls, fail=True))
        assert len(calls) == 1
        assert not (tmp_path / "out_runs.csv").exists()
        assert (tmp_path / "out_summary.csv").read_bytes() == b"kept"

    def test_unrealizable_competition_gives_infinite_bound(self, tmp_path):
        cfg = ExperimentConfig(
            M=2, T=40, runs=1, seed=0, gamma=1.0, model="fixed",
            env="piecewise", env_seed=1, noise_width=0.0,
            segments="20@0.0|1.0;20@1.0|0.0", competition="switching:1",
        )
        report = run_experiment(cfg)
        assert math.isinf(report.path_complexity) and math.isinf(report.bound)
        assert report.bound_satisfied


def reference_write_runs_csv(path, record: SimulationRecord, comp_path, comp_losses) -> None:
    """The runs CSV as ``csv.writer`` writes it, one row at a time."""
    runs, horizon = record.arms.shape
    cum_losses = np.cumsum(record.losses, axis=1)
    comp_cum = np.cumsum(comp_losses)
    with open(path, "w", newline="") as fh:
        fh.write(RUNS_HEADER + "\n")
        writer = csv.writer(fh)
        for r in range(runs):
            arm_row = record.arms[r]
            loss_row = record.losses[r]
            cum_row = cum_losses[r]
            eta_row = record.eta[r]
            psi_row = record.psi[r]
            writer.writerows(
                (
                    r,
                    t,
                    int(arm_row[t]) + 1,
                    repr(float(loss_row[t])),
                    repr(float(cum_row[t])),
                    int(comp_path[t]) + 1,
                    repr(float(comp_losses[t])),
                    repr(float(cum_row[t] - comp_cum[t])),
                    repr(float(eta_row[t])),
                    repr(float(record.eps[t])),
                    repr(float(psi_row[t])),
                )
                for t in range(horizon)
            )


@pytest.fixture
def forks(monkeypatch):
    """Pids of the writer workers forked during the test."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


class TestCsvWriters:
    """The CSV files have the bytes of the ``csv.writer`` version, for any split into chunks."""

    def assert_same_bytes(self, tmp_path, monkeypatch, record, comp_path, comp_losses, cpus=3):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        write_runs_csv(tmp_path / "fast.csv", record, comp_path, comp_losses)
        reference_write_runs_csv(tmp_path / "ref.csv", record, comp_path, comp_losses)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert not list(tmp_path.glob("*.part"))

    def sweep(self, stream, runs, comp_arm=0):
        model = fixed_share_model(stream.n_arms, 0.01)
        record = simulate_runs(model, 1.5, stream, base_seed=3, runs=runs)
        comp_path = np.full(stream.horizon, comp_arm, dtype=np.intp)
        return record, comp_path, stream.matrix[:, comp_arm]

    @pytest.mark.parametrize("runs,cpus", [(5, 2), (7, 3), (2, 8)])
    def test_uneven_chunks(self, tmp_path, monkeypatch, forks, runs, cpus):
        stream = two_segment_stream(horizon=300)
        self.assert_same_bytes(tmp_path, monkeypatch, *self.sweep(stream, runs), cpus=cpus)
        assert len(forks) == min(runs, cpus) - 1

    def test_single_run_uses_no_worker(self, tmp_path, monkeypatch, forks):
        stream = two_segment_stream(horizon=300)
        self.assert_same_bytes(tmp_path, monkeypatch, *self.sweep(stream, 1), cpus=4)
        assert forks == []

    @pytest.mark.parametrize("horizon", [1, harness._BLOCK_ROUNDS + 7])
    def test_partial_and_single_round_blocks(self, tmp_path, monkeypatch, horizon):
        stream = two_segment_stream(horizon=horizon) if horizon > 1 else scripted([[0.5, 0.25]])
        self.assert_same_bytes(tmp_path, monkeypatch, *self.sweep(stream, 3, comp_arm=1))

    def test_degenerate_prefix_and_odd_losses(self, tmp_path, monkeypatch):
        # zero rows keep the rate undefined (eta = inf); then negative,
        # subnormal and negative-zero losses
        matrix = np.zeros((40, 3))
        matrix[10:] = np.random.default_rng(4).normal(size=(30, 3))
        matrix[12] = [5e-324, -0.0, -5e-324]
        matrix[20, :] = -0.0
        record, comp_path, comp_losses = self.sweep(scripted(matrix), 5, comp_arm=2)
        assert np.isinf(record.eta[:, 0]).all()
        self.assert_same_bytes(tmp_path, monkeypatch, record, comp_path, comp_losses)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_largest_arm_of_its_dtype(self, tmp_path, monkeypatch, dtype):
        # M = 256 stores arms as uint8 and M = 65536 as uint16, so the last arm
        # index, 255 or 65535, is written as 256 or 65536, not wrapped to 0
        top = int(np.iinfo(dtype).max)
        assert harness._arm_dtype(top + 1) == dtype
        arms = np.array([[top, 0], [5, top]], dtype=dtype)
        matrix = np.zeros((2, top + 1))
        matrix[0, [5, top]] = [2.5, 0.5]
        matrix[1, [0, top]] = [1.5, -1.0]
        matrix.setflags(write=False)
        record = SimulationRecord(arms, np.array([[1.5, 2.5], [3.5, 0.0]]),
                                  np.array([0.5, 0.25]), np.zeros((2, 2)), matrix)
        comp_path = np.array([top, 1], dtype=np.intp)
        self.assert_same_bytes(tmp_path, monkeypatch, record, comp_path, np.array([0.5, 0.125]))
        assert b"\n0,0,%d,0.5," % (top + 1) in (tmp_path / "fast.csv").read_bytes()

    def test_affine_experiment(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            M=4, T=150, runs=5, seed=5, gamma="auto", model="switching:0.01",
            env="piecewise", env_seed=2, noise_width=0.1, affine="1e-30,-7e-30",
            segments="75@0.2|0.7|0.7|0.7;75@0.7|0.2|0.7|0.7", competition="switching:1",
        )
        report = run_experiment(cfg)
        comp_losses = build_stream(cfg).matrix[np.arange(cfg.T), report.comp_path]
        self.assert_same_bytes(tmp_path, monkeypatch, report.record, report.comp_path, comp_losses)

    def test_failed_worker_raises_and_is_reaped(self, tmp_path, monkeypatch, forks, capfd):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        path = tmp_path / "out.csv"
        os.mkdir(harness._part_path(path, 2))  # the last worker cannot open its part file
        record, comp_path, comp_losses = self.sweep(two_segment_stream(horizon=50), 3)
        with pytest.raises(OSError):
            write_runs_csv(path, record, comp_path, comp_losses)
        assert len(forks) == 2
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert not os.path.exists(harness._part_path(path, 1))
        assert not path.exists()
        err = capfd.readouterr().err  # the file descriptors: the workers' output shows too
        assert "Traceback" not in err
        assert err.count("\n") == 1 and harness._part_path(path, 2) in err

    def test_own_write_failure_reaps_workers(self, tmp_path, monkeypatch, forks, capfd):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        path = tmp_path / "out.csv"
        args = self.sweep(two_segment_stream(horizon=50), 3)

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        # this process fails appending the first part, with the second worker unreaped
        monkeypatch.setattr(shutil, "copyfileobj", full_disk)
        with pytest.raises(OSError, match="No space"):
            write_runs_csv(path, *args)
        assert len(forks) == 2
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        assert not list(tmp_path.glob("*.part"))
        assert not path.exists()
        assert "Traceback" not in capfd.readouterr().err

    def test_unwritable_path_fails_before_fork(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        path = tmp_path / "out.csv"
        path.mkdir()  # this process cannot open the output file
        with pytest.raises(OSError):
            write_runs_csv(path, *self.sweep(two_segment_stream(horizon=50), 3))
        assert forks == []
        assert not list(tmp_path.glob("*.part"))

    def test_summary_matches_csv_writer(self, tmp_path):
        cfg = ExperimentConfig(
            M=3, T=harness._BLOCK_ROUNDS + 3, runs=4, seed=2, gamma="auto",
            model="switching:0.01", env="piecewise", env_seed=3, noise_width=0.3,
            segments=f"100@0.1|0.6|0.6;{harness._BLOCK_ROUNDS - 97}@0.6|0.1|0.6",
            competition="switching:1", output=str(tmp_path / "s"),
        )
        report = run_experiment(cfg)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            fh.write(SUMMARY_HEADER + "\n")
            writer = csv.writer(fh)
            writer.writerow([0, repr(0.0), repr(0.0), repr(0.0)])
            for t in range(cfg.T):
                writer.writerow([t + 1, repr(float(report.mean_regret[t])),
                                 repr(float(report.stderr_regret[t])),
                                 repr(float(report.bound_curve[t]))])
        assert (tmp_path / "s_summary.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_summary_failure_leaves_no_partial_file(self, tmp_path):
        # formatting fails in the second block of rounds, after the first was written
        cfg = ExperimentConfig(
            M=2, T=2 * harness._BLOCK_ROUNDS, runs=2, seed=2, gamma=1.0, model="fixed",
            env="piecewise", env_seed=3, noise_width=0.3,
            segments=f"{2 * harness._BLOCK_ROUNDS}@0.1|0.6",
        )
        report = run_experiment(cfg)

        class Unprintable:
            def __repr__(self):
                raise RuntimeError("cannot format")

        stderr = report.stderr_regret.astype(object)
        stderr[harness._BLOCK_ROUNDS + 10] = Unprintable()
        path = tmp_path / "s_summary.csv"
        with pytest.raises(RuntimeError, match="cannot format"):
            harness.write_summary_csv(path, replace(report, stderr_regret=stderr))
        assert not path.exists()

    # Records built by hand: every run plays its row of `arms` on `matrix`.
    # Each case runs with 1, 2 and 3 writing processes, one per run.

    @staticmethod
    def record_of(matrix, arms, eps):
        matrix = np.array(matrix, dtype=np.float64)
        matrix.setflags(write=False)
        arms = np.array(arms, dtype=harness._arm_dtype(matrix.shape[1]))
        eta = np.random.default_rng(8).random(arms.shape) * 3.0
        eta[:, :5] = np.inf  # the degenerate prefix
        return SimulationRecord(arms, eta, np.array(eps, dtype=np.float64),
                                np.zeros((len(arms), matrix.shape[1])), matrix)

    @staticmethod
    def rows_of(path, run) -> list[bytes]:
        return [row for row in path.read_bytes().splitlines() if row.startswith(b"%d," % run)]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_psi_keeps_the_sign_of_its_first_zero(self, tmp_path, monkeypatch, forks, cpus):
        # arm 0 has -0.0 and then +0.0, arm 1 the reverse, at rounds 100-101 (in
        # a block) and 255-256 (across a block edge); arm 2 has no zero. Every
        # other loss sets a new minimum.
        edge = harness._BLOCK_ROUNDS
        horizon = 2 * edge + 40
        matrix = np.empty((horizon, 3))
        matrix[:] = np.linspace(2.0, 1.0, horizon)[:, None]
        for first in (100, edge - 1):
            matrix[first, 0] = matrix[first + 1, 1] = -0.0
            matrix[first + 1, 0] = matrix[first, 1] = 0.0
        # runs 0 and 1 meet their first zero at 100 (psi's text is then carried
        # over two block edges), runs 2 and 3 at 255 (carried over one)
        arms = np.array([[0], [1], [2], [2]], dtype=np.uint8).repeat(horizon, axis=1)
        arms[2:, edge - 1:] = [[0], [1]]
        record = self.record_of(matrix, arms, np.full(horizon, 0.25))
        comp_path = np.full(horizon, 2, dtype=np.intp)
        self.assert_same_bytes(tmp_path, monkeypatch, record, comp_path, matrix[:, 2], cpus=cpus)
        assert len(forks) == cpus - 1
        for run, first, text in ((0, 100, b",-0.0"), (1, 100, b",0.0"),
                                 (2, edge - 1, b",-0.0"), (3, edge - 1, b",0.0")):
            rows = self.rows_of(tmp_path / "fast.csv", run)
            assert len(rows) == horizon
            assert not any(row.endswith(b"0.0") for row in rows[:first])
            assert all(row.endswith(text) for row in rows[first:])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_exponent_form_values(self, tmp_path, monkeypatch, forks, cpus):
        horizon = harness._BLOCK_ROUNDS + 20
        values = [1e-05, 1e+16, 5e-324, -1e-05, -5e-324]
        matrix = np.resize(values, (horizon, 3))
        arms = (np.arange(horizon) + np.arange(3)[:, None]) % 3  # run r starts on arm r
        comp_path = np.resize(np.array([2, 1], dtype=np.intp), horizon)
        comp_losses = np.resize(values[::-1], horizon)
        eps = np.resize(values[1:], horizon)
        record = self.record_of(matrix, arms, eps)
        self.assert_same_bytes(tmp_path, monkeypatch, record, comp_path, comp_losses, cpus=cpus)
        assert len(forks) == cpus - 1
        text = (tmp_path / "fast.csv").read_bytes()
        for value in (b"1e-05", b"1e+16", b"5e-324"):
            assert b"," + value + b"," in text and b"," + value + b"\r\n" in text

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_competition_switching_inside_and_at_block_edges(self, tmp_path, monkeypatch,
                                                             forks, cpus):
        block = harness._BLOCK_ROUNDS
        stream = two_segment_stream(horizon=2 * block + 50)
        record, _, _ = self.sweep(stream, 3)
        comp_path = np.zeros(stream.horizon, dtype=np.intp)
        comp_path[100:block] = 1  # a switch inside the first block, and one at its edge
        comp_path[block:2 * block] = 3
        comp_path[2 * block:] = 2  # and at the next edge
        comp_losses = stream.matrix[np.arange(stream.horizon), comp_path]
        self.assert_same_bytes(tmp_path, monkeypatch, record, comp_path, comp_losses, cpus=cpus)
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [harness._BLOCK_ROUNDS, harness._BLOCK_ROUNDS + 1])
    def test_one_block_and_one_round_past_it(self, tmp_path, monkeypatch, forks, horizon, cpus):
        stream = two_segment_stream(horizon=horizon)
        self.assert_same_bytes(tmp_path, monkeypatch, *self.sweep(stream, 3, comp_arm=1),
                               cpus=cpus)
        assert len(forks) == cpus - 1

    def test_peak_memory_of_one_writer(self, tmp_path, monkeypatch):
        # the fields that every run shares are formatted once, about 50 bytes
        # a round (0.5 MB here); a table of loss strings per (round, arm) would
        # take several MB
        record, comp_path, comp_losses = self.sweep(two_segment_stream(horizon=10_000), 2)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            write_runs_csv(tmp_path / "runs.csv", record, comp_path, comp_losses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


class TestNegativeControls:
    """Each check must fail on a kernel broken in the way it guards against."""

    def test_dense_oracle_catches_dropped_power(self, monkeypatch):
        real = core.weight_step

        def powerless(model, log_w, sel, exponent, power):
            return real(model, log_w, sel, exponent, 1.0)  # power "forgotten"

        monkeypatch.setattr(core, "weight_step", powerless)
        result = check_dense_vs_core()
        assert not result.passed and result.deviation > 1e-9

    def test_conservation_check_catches_nonstochastic_share(self, monkeypatch):
        def leaky_share(z, total, alpha):
            # spreads the whole total instead of total - z, so mass grows
            return (1.0 - alpha) * z + alpha / (z.shape[-1] - 1) * total

        monkeypatch.setattr(core, "fixed_share", leaky_share)
        core_result, _ = check_conservation()
        assert core_result.name == "conservation-core"
        assert not core_result.passed and core_result.deviation > 1e-9

    def test_sequence_mixture_check_reaches_the_production_share(self, monkeypatch):
        def leaky_share(z, total, alpha):
            return (1.0 - alpha) * z + alpha / (z.shape[-1] - 1) * total

        assert check_sequence_mixture().passed
        monkeypatch.setattr(core, "fixed_share", leaky_share)
        result = check_sequence_mixture()
        assert result.name == "oracle-sequence-mixture"
        assert not result.passed and result.deviation > 1e-12


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys, config_file):
        code = cli.main([
            "run", "--config", str(config_file),
            "--override", f"output={tmp_path / 'cli'}", "--override", "runs=2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_regret=" in out and "bound=" in out
        assert (tmp_path / "cli_runs.csv").exists()
        assert (tmp_path / "cli_summary.csv").exists()

    def test_oracle_subcommand(self, tmp_path, capsys):
        matrix = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        path = tmp_path / "stream.csv"
        write_csv(scripted(matrix), path)
        code = cli.main(["oracle", "--stream", str(path), "--switches", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loss=0.0" in out
        assert "path=1@0-1;2@2-3" in out

    def test_verify_oracle_suite(self, capsys):
        code = cli.main(["verify", "--suite", "oracle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS oracle-dense-vs-core" in out
        assert "FAIL" not in out

    def test_numerical_error_exit_code(self, capsys, config_file):
        code = cli.main(["run", "--config", str(config_file),
                         "--override", "affine=1e170,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "bound=" not in captured.out

    def test_memory_error_exit_code(self, capsys, config_file):
        # 10^15 runs x 200 rounds of uint8 arms (178 PiB) exceed even a
        # 57-bit address space (128 PiB), whatever the overcommit policy
        code = cli.main(["run", "--config", str(config_file),
                         "--override", "runs=1000000000000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "allocate" in captured.err
        assert "bound=" not in captured.out

    def test_memory_error_past_the_size_range(self, capsys, config_file):
        # 10^17 runs x 200 rounds of uint8 arms is more than 2^63 bytes,
        # which no mapping can even be asked for
        code = cli.main(["run", "--config", str(config_file),
                         "--override", "runs=100000000000000000"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "allocate" in captured.err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus=1\n")
        code = cli.main(["run", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bogus" in err

    @staticmethod
    def assert_one_error_line(capfd, code, path):
        captured = capfd.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err
        assert "bound=" not in captured.out

    @staticmethod
    def assert_key_error(capsys, config_file, override, key):
        code = cli.main(["run", "--config", str(config_file), "--override", override])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: bad value for key '{key}': ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    def test_nan_noise_width_names_its_key(self, capsys, config_file):
        self.assert_key_error(capsys, config_file, "noise_width=nan", "noise_width")

    def test_infinite_noise_width_names_its_key(self, capsys, config_file):
        self.assert_key_error(capsys, config_file, "noise_width=inf", "noise_width")

    def test_negative_noise_width_names_its_key(self, capsys, config_file):
        self.assert_key_error(capsys, config_file, "noise_width=-0.5", "noise_width")

    def test_negative_seed_names_its_key(self, capsys, config_file):
        self.assert_key_error(capsys, config_file, "seed=-1", "seed")

    def test_negative_env_seed_names_its_key(self, capsys, config_file):
        self.assert_key_error(capsys, config_file, "env_seed=-5", "env_seed")

    def test_env_seed_past_uint64_names_its_key(self, capsys, config_file):
        self.assert_key_error(capsys, config_file, f"env_seed={2 ** 64}", "env_seed")

    def test_empty_output_unsets_it(self, capsys, config_file, tmp_path, monkeypatch):
        # an empty value unsets the prefix: no _runs.csv or _summary.csv in the working directory
        monkeypatch.chdir(tmp_path)
        config_file.write_text(CONFIG_TEXT + "output=tracking\n")
        before = sorted(tmp_path.iterdir())
        code = cli.main(["run", "--config", str(config_file), "--override", "output="])
        out = capsys.readouterr().out
        assert code == 0 and "wrote" not in out
        assert sorted(tmp_path.iterdir()) == before

    def test_empty_affine_is_left_out(self, capsys, config_file):
        assert cli.main(["run", "--config", str(config_file)]) == 0
        plain = capsys.readouterr().out
        config_file.write_text(CONFIG_TEXT + "affine=\n")
        assert cli.main(["run", "--config", str(config_file)]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("override,key", [
        ("M=1", "M"),
        ("T=0", "T"),
        ("segments=200", "segments"),
        ("segments=200@0.2|x|0.7|0.7", "segments"),
        ("segments=0@0.2|0.7|0.7|0.7;200@0.7|0.2|0.7|0.7", "segments"),
        (None, "segments"),  # the config sets none
        ("segments=", "segments"),  # an empty value unsets it
        ("affine=1", "affine"),
        ("affine=-1,0", "affine"),
        ("affine=1,1e300", "affine"),  # every loss becomes 1e300: no spread left
        ("model=switching:2", "model"),
    ])
    def test_config_error_names_its_key(self, tmp_path, capfd, override, key):
        config = tmp_path / "exp.cfg"
        config.write_text(CONFIG_TEXT if override else CONFIG_TEXT.replace("segments=", "#"))
        argv = ["run", "--config", str(config), "--override", f"output={tmp_path / 'x'}"]
        code = cli.main(argv + (["--override", override] if override else []))
        captured = capfd.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"'{key}'" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_constant_stream_runs_under_affine(self, capsys, config_file):
        code = cli.main(["run", "--config", str(config_file), "--override", "noise_width=0",
                         "--override", "segments=200@0.5|0.5|0.5|0.5", "--override", "affine=2,1"])
        out = capsys.readouterr().out
        assert code == 0 and "oracle_loss=400 " in out and "D=0\n" in out

    def test_subnormal_switching_rate_runs(self, capsys, config_file):
        # (M - 1) / alpha overflows: gamma=auto must still be finite
        code = cli.main(["run", "--config", str(config_file),
                         "--override", "model=switching:1e-320", "--override", "runs=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound=" in out and "inf" not in out and "nan" not in out

    @pytest.mark.parametrize("overrides", [
        ["competition=switching:20000"],
        ["T=1", "segments=1@0.25|0.75|0.75|0.75"],  # the config's own switching:1
    ], ids=["budget-above-T", "budget-equal-to-T"])
    def test_switch_budget_at_or_above_the_horizon_runs(self, capsys, config_file,
                                                        monkeypatch, overrides):
        # the oracle clamps the budget to T - 1, and gamma=auto is tuned for that budget
        reports = []

        def recorded(cfg, engine=simulate_runs):
            reports.append((cfg, run_experiment(cfg, engine)))
            return reports[-1][1]

        monkeypatch.setattr(harness, "run_experiment", recorded)
        argv = ["run", "--config", str(config_file), "--override", "runs=2"]
        code = cli.main(argv + [arg for o in overrides for arg in ("--override", o)])
        assert code == 0 and "bound=" in capsys.readouterr().out
        cfg, report = reports[0]
        model = fixed_share_model(cfg.M, 0.005)
        assert report.gamma == default_gamma(model, cfg.T, cfg.T - 1)

    def test_bound_line_is_vacuous_where_the_model_cannot_play_the_path(self, capsys,
                                                                        config_file):
        code = cli.main(["run", "--config", str(config_file), "--override", "model=fixed",
                         "--override", "runs=2"])
        out = capsys.readouterr().out
        assert code == 0 and "W=inf" in out
        assert "bound=inf (vacuous: mean+2se=" in out

    @pytest.mark.parametrize("gamma,named", [("auto", False), ("1e300", True), ("0.5", True)])
    def test_bound_line_names_the_tuned_gamma_form(self, capsys, config_file, gamma, named):
        # the bound is proved for gamma=auto; a hand-set gamma is measured against that form
        code = cli.main(["run", "--config", str(config_file), "--override", f"gamma={gamma}",
                         "--override", "runs=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert (", tuned-gamma form: mean+2se=" in out) == named
        assert ("satisfied" in out) != ("VIOLATED" in out)

    @pytest.mark.parametrize("budget,named", [(1999, True), (20, True), (1, False)])
    def test_bound_line_names_a_gamma_tuned_for_another_budget(self, capsys, config_file,
                                                                budget, named):
        # gamma=auto is tuned for the budget's W, the bound for the played path's
        # W (one switch here); only switching:1 gives gamma = sqrt(W_path)
        overrides = ["T=2000", "segments=1000@0.25|0.75|0.75|0.75;1000@0.75|0.25|0.75|0.75",
                     f"competition=switching:{budget}", "runs=2"]
        argv = ["run", "--config", str(config_file)]
        code = cli.main(argv + [arg for o in overrides for arg in ("--override", o)])
        out = capsys.readouterr().out
        assert code == 0 and "switches=1 " in out
        assert (", tuned-gamma form: mean+2se=" in out) == named
        assert "satisfied" in out

    def test_largest_env_seed_runs(self, capsys, config_file):
        code = cli.main(["run", "--config", str(config_file),
                         "--override", f"env_seed={2 ** 64 - 1}", "--override", "runs=1"])
        assert code == 0 and "bound=" in capsys.readouterr().out

    def test_missing_config_exit_code(self, tmp_path, capfd):
        path = tmp_path / "absent.cfg"
        self.assert_one_error_line(capfd, cli.main(["run", "--config", str(path)]), path)

    def test_missing_csv_environment_exit_code(self, tmp_path, capfd, config_file):
        path = tmp_path / "absent.csv"
        code = cli.main(["run", "--config", str(config_file), "--override", "M=2",
                         "--override", "T=4", "--override", f"env=csv:{path}"])
        self.assert_one_error_line(capfd, code, path)

    def test_missing_oracle_stream_exit_code(self, tmp_path, capfd):
        path = tmp_path / "absent.csv"
        code = cli.main(["oracle", "--stream", str(path), "--switches", "1"])
        self.assert_one_error_line(capfd, code, path)

    def test_long_csv_field_exit_code(self, tmp_path, capfd):
        path = tmp_path / "long.csv"
        path.write_text("t,arm," + "l" * (csv.field_size_limit() + 1) + "\n0,1,0.5\n0,2,0.5\n")
        code = cli.main(["oracle", "--stream", str(path), "--switches", "1"])
        captured = capfd.readouterr()
        assert code == 2 and captured.out == ""
        limit = csv.field_size_limit()
        assert captured.err == f"error: {path}:1: field larger than field limit ({limit})\n"

    def test_unwritable_output_exit_code(self, tmp_path, capfd, config_file, monkeypatch):
        # capfd sees the file descriptors, so a forked writer's traceback would show too
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        prefix = tmp_path / "absent" / "out"
        code = cli.main(["run", "--config", str(config_file),
                         "--override", f"output={prefix}", "--override", "runs=2"])
        self.assert_one_error_line(capfd, code, f"{prefix}_runs.csv")
