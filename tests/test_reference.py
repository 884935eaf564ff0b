import importlib.util
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scalefree_bandit import reference
from scalefree_bandit.competitions import fixed_arm_model, fixed_share_model, switch_count
from scalefree_bandit.core import mixture_coefficient, sample_arm
from scalefree_bandit.environments import scripted, write_csv
from scalefree_bandit.harness import ExperimentConfig, run_experiment
from scalefree_bandit.reference import (
    DenseReference,
    best_fixed_arm,
    best_switching_sequence,
    enumerate_best_sequence,
    path_loss,
    replay_constant_rate,
    replay_core,
    run_dense,
    run_exp3,
    sequence_mixture_oracle,
)
from scalefree_bandit.rng import make_generator


class TestDenseReference:
    def test_tiny_scripted_trajectory_matches_core(self):
        # smallest interesting instance: 2 arms, 3 rounds, share 1/4
        model = fixed_share_model(2, 0.25)
        losses = np.array([[0.9, 0.4], [0.1, 0.7], [0.8, 0.2]])
        arms = np.array([1, 0, 1])
        core = replay_core(model, 1.0, losses, arms=arms)
        dense = run_dense(model, 1.0, losses, arms)
        assert np.abs(core["p"] - dense["p"]).max() <= 1e-12

    def test_constant_losses_hold_prior_marginals(self):
        model = fixed_share_model(3, 0.2)
        losses = np.full((30, 3), 2.5)
        arms = np.zeros(30, dtype=int)
        dense = run_dense(model, 1.0, losses, arms)
        assert np.abs(dense["p"] - 1 / 3).max() <= 1e-12

    def test_identity_transitions_are_pure_exponential_weighting(self):
        # with identity sharing the power correction rescales every past
        # penalty to the current rate, so once the rate is defined the
        # weights equal exp(-rate * cumulative excess per arm) up to
        # normalization; the excess is the loss over the running minimum,
        # importance-weighted
        model = fixed_arm_model(2)
        rng = make_generator(4)
        losses = rng.random((12, 2))
        arms = rng.integers(0, 2, size=12)
        ref = DenseReference(model, 1.0)
        cum = np.zeros(2)
        for t in range(12):
            arm, loss = int(arms[t]), float(losses[t, arms[t]])
            out = ref.step(arm, loss)
            eps = mixture_coefficient(t + 1, 2)
            cum[arm] += (loss - ref.min_loss) / ((1.0 - eps) * out["p"][arm] + eps / 2)
            if ref.rate_prev is None:  # no excess yet, so no penalty either
                assert not cum.any()
                continue
            expected = np.exp(-ref.rate_prev * cum)
            expected /= expected.sum()
            actual = np.array(ref.weights) / sum(ref.weights)
            assert np.abs(actual - expected).max() <= 1e-12


class TestSequenceMixture:
    def test_first_round_is_prior(self):
        model = fixed_share_model(2, 0.25)
        losses = np.array([[0.3, 0.9]])
        p = sequence_mixture_oracle(model, losses, [0], 0.8)
        assert np.allclose(p[0], [0.5, 0.5], atol=1e-15)

    def test_zero_rate_gives_markov_marginals(self):
        model = fixed_share_model(2, 0.3)
        rng = make_generator(0)
        losses = rng.random((6, 2))
        arms = rng.integers(0, 2, size=6)
        p = sequence_mixture_oracle(model, losses, arms, 0.0)
        trans = model.transition_matrix()
        marginal = np.full(2, 0.5)
        for t in range(6):
            assert np.abs(p[t] - marginal).max() <= 1e-12
            marginal = marginal @ trans
        # uniform is stationary here, so every round stays uniform
        assert np.abs(p - 0.5).max() <= 1e-12

    def test_matches_constant_rate_core(self):
        model = fixed_share_model(2, 0.25)
        rng = make_generator(14)
        worst = 0.0
        for _ in range(5):
            losses = rng.random((8, 2)) * 3.0 - 1.0
            arms = rng.integers(0, 2, size=8)
            rate = float(rng.uniform(0.1, 1.5))
            oracle = sequence_mixture_oracle(model, losses, arms, rate)
            core = replay_constant_rate(model, losses, arms, rate)
            worst = max(worst, float(np.abs(oracle - core).max()))
        assert worst <= 1e-12

    def test_refuses_huge_enumerations(self):
        model = fixed_share_model(2, 0.25)
        losses = np.zeros((25, 2))
        with pytest.raises(ValueError, match="enumerate"):
            sequence_mixture_oracle(model, losses, np.zeros(25, dtype=int), 1.0)


@pytest.mark.parametrize("n_arms", [3, 4])
def test_oracles_check_a_subnormal_switching_rate(n_arms):
    # alpha / (M - 1) rounds to 0.0 here, a model that run plays
    model = fixed_share_model(n_arms, 5e-324)
    rng = make_generator(21)
    losses, arms = rng.random((40, n_arms)) * 3.0 - 1.0, rng.integers(0, n_arms, size=40)
    dense = run_dense(model, 1.5, losses, arms)
    core = replay_core(model, 1.5, losses, arms=arms)
    assert np.isfinite(dense["p"]).all()
    assert np.abs(dense["p"] - core["p"]).max() <= 1e-12
    short, rate = 6, 0.7
    oracle = sequence_mixture_oracle(model, losses[:short], arms[:short], rate)
    core = replay_constant_rate(model, losses[:short], arms[:short], rate)
    assert np.abs(oracle - core).max() <= 1e-12


def forward_dp_optimum(matrix: np.ndarray, k: int) -> float:
    """Optimal loss with at most k switches from a prefix DP over (arm at t,
    switches used), O(T*M^2*k), written independently of the suffix pass."""
    horizon, n_arms = matrix.shape
    prefix = np.full((n_arms, k + 1), np.inf)
    prefix[:, 0] = matrix[0]
    for t in range(1, horizon):
        nxt = prefix.copy()
        for m in range(n_arms):
            for m_prev in range(n_arms):
                if m_prev != m:
                    np.minimum(nxt[m, 1:], prefix[m_prev, :-1], out=nxt[m, 1:])
        prefix = nxt + matrix[t][:, None]
    return float(prefix.min())


class TestBestFixedArm:
    def test_zero_matrix_tie_breaks_low(self):
        arm, loss = best_fixed_arm(scripted(np.zeros((4, 3))))
        assert arm == 0 and loss == 0.0

    def test_alternating(self):
        stream = scripted(np.tile([[0.0, 1.0], [1.0, 0.0]], (5, 1)))
        arm, loss = best_fixed_arm(stream)
        assert arm == 0 and loss == 5.0

    def test_dominant_arm_in_noise(self):
        rng = make_generator(2)
        matrix = rng.random((200, 4))
        matrix[:, 2] -= 0.6
        arm, loss = best_fixed_arm(scripted(matrix))
        assert arm == 2
        assert loss == pytest.approx(matrix[:, 2].sum(), abs=1e-12)


class TestBestSwitchingSequence:
    def test_zero_budget_reduces_to_fixed(self):
        rng = make_generator(3)
        stream = scripted(rng.random((40, 3)))
        path, loss = best_switching_sequence(stream, 0)
        arm, fixed_loss = best_fixed_arm(stream)
        assert np.all(path == arm)
        assert loss == fixed_loss

    def test_unconstrained_is_per_round_minimum(self):
        rng = make_generator(4)
        matrix = rng.random((25, 3))
        stream = scripted(matrix)
        path, loss = best_switching_sequence(stream, 24)
        assert np.array_equal(path, matrix.argmin(axis=1))
        assert loss == pytest.approx(matrix.min(axis=1).sum(), abs=1e-12)

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.random((6, 3)),
        # {0, 1, 2}-valued losses: ties everywhere
        lambda rng: rng.integers(0, 3, size=(6, 3)).astype(np.float64),
    ], ids=["continuous", "ties"])
    def test_matches_enumeration(self, draw):
        rng = make_generator(5)
        for _ in range(40):
            stream = scripted(draw(rng))
            k = int(rng.integers(0, 4))
            dp_path, dp_loss = best_switching_sequence(stream, k)
            bf_path, bf_loss = enumerate_best_sequence(stream, k)
            assert np.array_equal(dp_path, bf_path)
            assert dp_loss == bf_loss

    def test_near_ties_attain_enumerated_optimum(self):
        # Losses rounded to 0.1 make sums that tie up to rounding, so which
        # tied path wins depends on the summation order, and the DP sums
        # from the last round back. Enumerated in that order, the optimum
        # is attained exactly, within the switch budget.
        rng = make_generator(5)
        for _ in range(40):
            matrix = np.round(rng.random((6, 3)), 1)
            k = int(rng.integers(0, 4))

            def suffix_sum(path):
                total = 0.0
                for t in range(len(path) - 1, -1, -1):
                    total += matrix[t, path[t]]
                return total

            optimum = min(suffix_sum(path) for path in itertools.product(range(3), repeat=6)
                          if switch_count(np.array(path)) <= k)
            path, loss = best_switching_sequence(scripted(matrix), k)
            assert switch_count(path) <= k
            assert suffix_sum(path) == optimum
            assert loss == path_loss(scripted(matrix), path)

    def test_lexicographic_tie_break(self):
        stream = scripted(np.zeros((4, 3)))
        path, loss = best_switching_sequence(stream, 2)
        assert np.array_equal(path, [0, 0, 0, 0]) and loss == 0.0

    def test_loss_nonincreasing_in_budget(self):
        rng = make_generator(6)
        stream = scripted(rng.random((30, 4)))
        losses = [best_switching_sequence(stream, k)[1] for k in range(6)]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_matches_forward_dp(self):
        # enumeration cannot reach T=200
        rng = make_generator(8)
        horizon, n_arms = 200, 5
        for k in (0, 1, 4, 10):
            matrix = rng.random((horizon, n_arms))
            path, loss = best_switching_sequence(scripted(matrix), k)
            assert switch_count(path) <= k
            assert loss == pytest.approx(forward_dp_optimum(matrix, k), rel=1e-12)

    @pytest.mark.parametrize("horizon", [1, 2, 255, 256, 257, 513])
    @pytest.mark.parametrize("kind", ["continuous", "ties"])
    def test_block_edges(self, horizon, kind, monkeypatch):
        # horizons around the pass's 256-round blocks, budgets up to past T - 1
        rng = make_generator(horizon)
        for k in sorted({0, 1, horizon - 1, horizon + 5}):
            if kind == "continuous":
                matrix = rng.random((horizon, 3))
            else:
                matrix = rng.integers(0, 3, size=(horizon, 3)).astype(np.float64)
            stream = scripted(matrix)
            path, loss = best_switching_sequence(stream, k)
            assert switch_count(path) <= k
            assert loss == path_loss(stream, path)
            if 3 ** horizon <= 2 ** 20:
                bf_path, bf_loss = enumerate_best_sequence(stream, k)
                assert np.array_equal(path, bf_path) and loss == bf_loss
            elif kind == "ties":  # integer sums are exact
                assert loss == forward_dp_optimum(matrix, k)
            else:
                assert loss == pytest.approx(forward_dp_optimum(matrix, k), rel=1e-12)
            for block in (1, 7, horizon):  # the path does not depend on where blocks end
                monkeypatch.setattr(reference, "_BLOCK", block)
                assert np.array_equal(best_switching_sequence(stream, k)[0], path)
            monkeypatch.undo()

    @staticmethod
    def peak_bytes(stream, max_switches):
        tracemalloc.start()
        try:
            best_switching_sequence(stream, max_switches)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_memory_without_float_table(self):
        # the walk keeps one byte per round, arm and budget, not a (T+1, M, k+1)
        # float table (13.7 MB here)
        stream = scripted(make_generator(9).random((10_000, 8)))
        assert self.peak_bytes(stream, 20) < 3e6

    def test_peak_memory_at_large_budget(self):
        # the decision table alone is T*M*k = 16 MB here, and the slab 16.4 MB
        stream = scripted(make_generator(9).random((2000, 4)))
        assert self.peak_bytes(stream, 1999) <= 65e6

    @staticmethod
    def plain_tie_walk(matrix, max_switches):
        """The smallest optimal path, walked over a full (T+1, M, k+1) table of suffix values.

        Round by round: the argmin over the values of column j-1, with the
        current arm at its own value in column j; ties go to the smaller arm.
        """
        horizon, n_arms = matrix.shape
        k = min(max_switches, horizon - 1)
        value = np.zeros((horizon + 1, n_arms, k + 1))
        for t in range(horizon - 1, -1, -1):
            nxt = value[t + 1]
            switch = np.concatenate(([np.inf], nxt[:, :-1].min(axis=0)))
            value[t] = matrix[t][:, None] + np.minimum(nxt, switch)
        path = [int(np.argmin(value[0, :, k]))]
        j = k
        for t in range(1, horizon):
            m = path[-1]
            if j > 0:
                candidates = value[t, :, j - 1].copy()
                candidates[m] = value[t, m, j]
                arm = int(np.argmin(candidates))
                if arm != m:
                    j -= 1
                m = arm
            path.append(m)
        return np.array(path)

    @pytest.mark.parametrize("horizon", [255, 256, 257, 513, 600])
    @pytest.mark.parametrize("n_arms", [2, 3, 5])
    def test_ties_follow_the_plain_walk(self, horizon, n_arms):
        # integer losses: every sum is exact and ties are everywhere
        rng = make_generator(horizon * n_arms)
        for k in (0, 1, 7, horizon - 1, horizon + 3):
            matrix = rng.integers(0, 3, size=(horizon, n_arms)).astype(np.float64)
            path, loss = best_switching_sequence(scripted(matrix), k)
            assert np.array_equal(path, self.plain_tie_walk(matrix, k))
            assert loss == matrix[np.arange(horizon), path].sum()

    def test_beats_random_paths(self):
        rng = make_generator(7)
        stream = scripted(rng.random((50, 3)))
        k = 3
        _, dp_loss = best_switching_sequence(stream, k)
        for _ in range(2000):
            switches = int(rng.integers(0, k + 1))
            cuts = np.sort(rng.choice(np.arange(1, 50), size=switches, replace=False))
            path = np.empty(50, dtype=np.intp)
            arm = int(rng.integers(0, 3))
            start = 0
            for cut in list(cuts) + [50]:
                path[start:cut] = arm
                start = cut
                arm = (arm + 1 + int(rng.integers(0, 2))) % 3
            assert dp_loss <= path_loss(stream, path) + 1e-12


class TestExp3Baseline:
    def test_uniform_start(self):
        # all-zero losses leave every estimate at zero
        out = run_exp3(scripted(np.zeros((5, 4))), [0])
        assert np.allclose(out["final_probs"], [[0.25] * 4], atol=1e-15)

    def test_concentrates_on_best_arm(self):
        # one arm always loses 0, the rest always lose 1
        horizon, runs = 10_000, 100
        matrix = np.ones((horizon, 3))
        matrix[:, 1] = 0.0
        out = run_exp3(scripted(matrix), range(1000, 1000 + runs))
        hits = int(np.count_nonzero(out["final_probs"][:, 1] > 0.9))
        assert hits / runs > 0.9

    @staticmethod
    def scalar_exp3(matrix, seed):
        """One Exp3 learner, round by round, with one uniform per draw."""
        horizon, n_arms = matrix.shape
        rng = make_generator(seed)
        cum = np.zeros(n_arms)
        arms = []

        def probabilities(t):
            scores = -math.sqrt(math.log(n_arms) / (n_arms * t)) * cum
            scores -= scores.max()
            e = np.exp(scores)
            return e / e.sum()

        for t in range(horizon):
            p = probabilities(t + 1)
            arm = sample_arm(p, rng)
            cum[arm] += float(matrix[t, arm]) / p[arm]
            arms.append(arm)
        return np.array(arms), probabilities(horizon + 1)

    @pytest.mark.parametrize("n_arms", [3, 8, 16])
    def test_batch_matches_scalar_loop(self, n_arms):
        # from 8 arms on the batched sums must take the one-row pairwise order
        matrix = make_generator(n_arms).random((300, n_arms))
        batch = run_exp3(scripted(matrix), [5, 6, 7])
        for r, seed in enumerate([5, 6, 7]):
            arms, final = self.scalar_exp3(matrix, seed)
            assert np.array_equal(batch["arms"][r], arms)
            assert batch["final_probs"][r].tobytes() == final.tobytes()

    def test_rejects_losses_outside_declared_range(self):
        stream = scripted(np.full((5, 2), 100.0))
        with pytest.raises(ValueError, match="declared range"):
            run_exp3(stream, [0])

    def test_degenerate_declared_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            run_exp3(scripted(np.zeros((3, 2))), [0], loss_range=(1.0, 1.0))


def test_switching_oracle_rejects_negative_budget():
    with pytest.raises(ValueError):
        best_switching_sequence(scripted(np.zeros((3, 2))), -1)


def test_path_loss_is_prefix_order_sum(tmp_path):
    matrix = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    assert path_loss(scripted(matrix), [0, 1, 0]) == 1.0 + 20.0 + 3.0
    # from 8 rounds on, ndarray.sum would add pairwise
    stream = scripted(make_generator(21).random((1000, 3)))
    arms = make_generator(22).integers(0, 3, size=1000)
    total = 0.0
    for t, arm in enumerate(arms):
        total += stream.matrix[t, arm]
    assert path_loss(stream, arms) == total
    # and it is the competition loss that run reports
    write_csv(stream, tmp_path / "s.csv")
    report = run_experiment(ExperimentConfig(M=3, T=1000, env=f"csv:{tmp_path / 's.csv'}",
                                             competition="switching:5"))
    assert path_loss(stream, report.comp_path) == report.comp_loss


def test_scale_invariance_script_runs(capsys):
    # the demo script is not imported by anything else; run its main() once
    script = Path(__file__).resolve().parents[1] / "scripts" / "show_scale_invariance.py"
    spec = importlib.util.spec_from_file_location("show_scale_invariance", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert out.count("identical selections = True") == 2
    assert "100x stream: rejected" in out


def test_tracking_script_runs_below_two_thousand_rounds(tmp_path, monkeypatch, capsys):
    # below T=2000 the checkpoint half + 1000 lies past the horizon and is not printed
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_tracking_experiment.py"
    spec = importlib.util.spec_from_file_location("run_tracking_experiment", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(script), "3", "400"])
    module.main()
    out = capsys.readouterr().out
    assert "bound satisfied: True" in out
    assert (tmp_path / "tracking_runs.csv").is_file()
    assert (tmp_path / "tracking_summary.csv").is_file()


@pytest.mark.parametrize("script,args,last", [
    pytest.param("run_tracking_experiment.py", ["2", "300"],
                 "wrote tracking_runs.csv and tracking_summary.csv", id="tracking"),
    pytest.param("show_scale_invariance.py", [], "  100x stream: rejected (loss ",
                 id="scale_invariance"),
])
def test_script_runs_as_a_program(tmp_path, script, args, last):
    # as a user runs it: its own sys.path entry finds the package, from any directory
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(path), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(last)
