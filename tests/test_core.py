import json
import math

import numpy as np
import pytest

from scalefree_bandit import core
from scalefree_bandit.competitions import CompetitionModel, fixed_arm_model, fixed_share_model
from scalefree_bandit.core import (
    NumericalDegeneracyError,
    ProtocolError,
    ScaleFreeBandit,
    adaptive_step,
    arm_probabilities,
    mixture_coefficient,
    sample_arm,
    selection_probabilities,
    weight_step,
)
from scalefree_bandit.reference import replay_core
from scalefree_bandit.rng import make_generator


def adapt(loss, q_sel=1.0, p_sel=1.0, min_loss=math.inf, V=0.0, D=0.0,
          rate_prev=math.nan, gamma=1.0):
    """adaptive_step as a dict, one learner."""
    out = adaptive_step(loss, q_sel, p_sel, min_loss, V, D, rate_prev, gamma)
    return dict(zip(("min_loss", "V", "D", "rate", "exponent", "power"), out))


def logsumexp(a):
    m = a.max()
    return m + math.log(np.exp(a - m).sum())


class TestArmSum:
    def test_batched_sum_has_the_bits_of_one_row(self):
        # numpy sums one contiguous row pairwise from 8 elements on, but a
        # leading axis in sequence; the batch must keep each run's row order
        rng = np.random.default_rng(0)
        for n_arms in range(2, 301):
            for runs in (1, 2, 7, 200):
                x = np.exp(rng.normal(0.0, 5.0, (n_arms, runs)))
                rows = np.ascontiguousarray(x.T)
                assert core._arm_sum(x).tobytes() == rows.sum(axis=-1).tobytes(), (n_arms, runs)
                assert core._arm_sum(rows[0]).tobytes() == rows[0].sum().tobytes()


class TestMixtureCoefficient:
    def test_clamps_at_half(self):
        assert mixture_coefficient(1, 4) == 0.5

    def test_decays_like_sqrt(self):
        assert mixture_coefficient(64, 4) == 0.25

    @pytest.mark.parametrize("n_arms", [2, 3, 4, 7, 16])
    def test_boundary_at_4m(self, n_arms):
        assert mixture_coefficient(4 * n_arms, n_arms) == 0.5

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            mixture_coefficient(1, 1)
        with pytest.raises(ValueError):
            mixture_coefficient(0, 4)


class TestSelectionProbabilities:
    def test_point_mass_mixed(self):
        q = selection_probabilities(np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
        assert np.allclose(q, [5 / 8, 1 / 8, 1 / 8, 1 / 8], atol=1e-15)

    def test_uniform_is_fixed_point(self):
        p = np.full(5, 0.2)
        for eps in (0.01, 0.25, 0.5):
            assert np.allclose(selection_probabilities(p, eps), p, atol=1e-15)

    def test_two_arm_arithmetic(self):
        q = selection_probabilities(np.array([0.6, 0.4]), 0.25)
        assert np.allclose(q, [0.575, 0.425], atol=1e-15)

    def test_sums_to_one(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        q = selection_probabilities(p, 0.3)
        assert abs(q.sum() - 1.0) < 1e-12

    def test_rejects_out_of_range_eps(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            selection_probabilities(p, 0.0)
        with pytest.raises(ValueError):
            selection_probabilities(p, 0.75)


class TestArmMarginals:
    def test_symmetric_classes(self):
        p = arm_probabilities(np.zeros(4))
        assert np.allclose(p, [0.25] * 4, atol=1e-15)

    def test_log_ratio(self):
        p = arm_probabilities(np.array([0.0, math.log(3.0)]))
        assert np.allclose(p, [0.25, 0.75], atol=1e-15)

    def test_uniform_shift_invariance(self):
        rng = make_generator(3)
        log_w = rng.normal(size=4)
        base = arm_probabilities(log_w)
        shifted = arm_probabilities(log_w + 100.0)
        assert np.abs(base - shifted).max() <= 1e-12

    def test_all_zero_weights_signal(self):
        with pytest.raises(NumericalDegeneracyError):
            arm_probabilities(np.array([-np.inf, -np.inf]))


class TestSampleArm:
    def test_degenerate_distribution(self):
        rng = make_generator(0)
        q = np.array([1.0, 0.0, 0.0])
        assert all(sample_arm(q, rng) == 0 for _ in range(20))

    def test_deterministic_given_seed(self):
        q = np.array([0.3, 0.7])
        first = [sample_arm(q, make_generator(42)) for _ in range(1)]
        draws_a = []
        draws_b = []
        rng = make_generator(42)
        for _ in range(10):
            draws_a.append(sample_arm(q, rng))
        rng = make_generator(42)
        for _ in range(10):
            draws_b.append(sample_arm(q, rng))
        assert draws_a == draws_b
        assert draws_a[0] == first[0]

    def test_uniform_frequencies_within_3_sigma(self):
        # binomial count per arm: mean n/M, sd sqrt(n (1/M)(1-1/M))
        n, m = 1_000_000, 4
        q = np.full(m, 1.0 / m)
        rng = make_generator(2718)
        counts = np.zeros(m, dtype=np.int64)
        for _ in range(n):
            counts[sample_arm(q, rng)] += 1
        sigma = math.sqrt(n * (1 / m) * (1 - 1 / m))
        assert np.abs(counts - n / m).max() <= 3 * sigma


class TestDrawArms:
    @staticmethod
    def cumsum_form(q, u):
        arm = np.add.reduce(np.cumsum(q, axis=0) <= u, axis=0)
        return np.minimum(arm, q.shape[0] - 1)

    @pytest.mark.parametrize("runs", [1, 7, 200])
    def test_equals_the_cumsum_form(self, runs):
        # the row loop (up to core._DRAW_LOOP_ARMS arms) and the cumsum both
        # count cumulative sums at or below u, capped at M - 1
        rng = np.random.default_rng(runs)
        for n_arms in range(2, 18):
            for scale in (1.0, 0.75):  # columns summing to 1, and below 1
                q = rng.dirichlet(np.ones(n_arms), size=runs).T * scale
                q[:, ::3] = np.round(q[:, ::3], 2)  # ties between cumulative sums
                cum = np.cumsum(q, axis=0)
                for u in (rng.random(runs),
                          cum[rng.integers(0, n_arms, runs), np.arange(runs)],  # u on a sum
                          np.full(runs, 0.0), np.full(runs, 1.0 - 2 ** -53)):
                    got, want = core.draw_arms(q, u), self.cumsum_form(q, u)
                    assert got.dtype == np.intp
                    assert np.array_equal(got, want), (n_arms, runs, scale)


class TestBatchSelections:
    """The batch forms that replace the where calls, on the values they can meet."""

    LENGTHS = range(1, 70)

    @staticmethod
    def cycled(pairs, n, shift):
        # every pair at every SIMD lane position: numpy's loops change with the length
        idx = (np.arange(n) + shift) % len(pairs)
        a, b = np.array(pairs).T
        return a[idx], b[idx]

    def test_spread_maximum(self):
        # excess: +-0 (a loss of -0.0 against a minimum of +0.0 gives -0.0),
        # positive, inf or NaN; spread: the running maximum, never NaN here
        pairs = [(x, d) for x in (0.0, -0.0, 0.5, 2.0, math.inf, math.nan)
                 for d in (0.0, -0.0, 0.5, 2.0, math.inf)]
        for n in self.LENGTHS:
            for shift in range(len(pairs)):
                excess, spread = self.cycled(pairs, n, shift)
                want = np.where(excess <= spread, spread, excess)
                got = core._spread(excess, spread)
                # equal values, NaN where the where form has NaN; a zero's
                # sign may differ, which the square and comparisons ignore
                assert np.array_equal(got, want, equal_nan=True)
                assert (got * got).tobytes() == (want * want).tobytes()
        # the learner's plain route keeps the where form, sign of zero included
        assert math.copysign(1.0, core._spread(-0.0, 0.0)) == 1.0
        assert math.isnan(core._spread(math.nan, 1.0))

    def test_running_minimum_and_exponent_clamp(self):
        # fmin (loss finite, minimum finite or inf) and fmax (exponent +-0,
        # positive, negative or NaN) equal the where forms up to a zero's sign;
        # the excess a minimum leaves squares, and the clamp exponentiates, alike
        minima = [(x, m) for x in (0.0, -0.0, 0.5, -2.0)
                  for m in (0.0, -0.0, 0.5, -2.0, math.inf)]
        clamps = [(x, 0.0) for x in (0.0, -0.0, 0.5, -0.5, math.nan)]
        for n in self.LENGTHS:
            for shift in range(len(minima)):
                loss, min_loss = self.cycled(minima, n, shift)
                got, want = np.fmin(loss, min_loss), np.where(loss < min_loss, loss, min_loss)
                assert np.array_equal(got, want)
                assert ((loss - got) ** 2).tobytes() == ((loss - want) ** 2).tobytes()
            for shift in range(len(clamps)):
                exponent, _ = self.cycled(clamps, n, shift)
                got, want = np.fmax(exponent, 0.0), np.where(exponent > 0.0, exponent, 0.0)
                assert np.array_equal(got, want)
                assert np.exp(-got).tobytes() == np.exp(-want).tobytes()

    def test_degenerate_prefix_selections(self):
        # a previous rate is NaN (degenerate) or positive, and then the rate is
        # at most it (the rate never rises); a NaN previous rate allows any rate
        pairs = [(math.nan, r) for r in (math.nan, 5e-324, 0.5, 1.0, 3.0)]
        pairs += [(prev, r) for prev in (5e-324, 0.5, 1.0, 3.0)
                  for r in (5e-324, 0.25, 0.5, 1.0, 3.0) if r <= prev]
        for n in self.LENGTHS:
            for shift in range(len(pairs)):
                rate_prev, rate = self.cycled(pairs, n, shift)
                degenerate = np.isnan(rate_prev)
                assert (np.fmax(rate_prev, rate).tobytes()
                        == np.where(degenerate, rate, rate_prev).tobytes())
                assert (np.fmin(rate / rate_prev, 1.0).tobytes()
                        == np.where(degenerate, 1.0, rate / rate_prev).tobytes())

    @pytest.mark.parametrize("runs", [1, 5, 69])
    def test_settled_step_equals_the_general_one(self, runs):
        rng = np.random.default_rng(runs)
        q_sel, p_sel = rng.uniform(0.05, 1.0, (2, runs))
        loss = rng.choice([-0.0, 0.0, 0.5, 1.5], runs)
        second, spread = rng.uniform(0.5, 2.0, (2, runs))
        min_loss = rng.choice([-0.0, 0.0, 0.25], runs)
        rate_prev = 1.3 / np.sqrt(second + spread * spread)
        args = (loss, q_sel, p_sel, min_loss, second, spread, rate_prev, 1.3)
        general = core.adaptive_step(*args)
        settled = core.adaptive_step(*args, settled=True)
        for a, b in zip(general, settled):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestPerformanceMeasure:
    # the excess is read from the spread, which starts at 0
    def test_excess_over_running_minimum(self):
        out = adapt(3.0, q_sel=0.5, min_loss=1.0)
        assert out["min_loss"] == 1.0
        assert out["D"] == 4.0

    def test_new_minimum_zeroes_measure(self):
        out = adapt(0.5, q_sel=0.2, min_loss=1.0, rate_prev=0.7)
        assert out["min_loss"] == 0.5
        assert out["D"] == 0.0 and out["exponent"] == 0.0

    def test_first_round_is_free(self):
        out = adapt(7.3, q_sel=0.123)
        assert out["min_loss"] == 7.3
        assert out["D"] == 0.0 and out["exponent"] == 0.0

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(NumericalDegeneracyError), np.errstate(invalid="ignore"):
            adaptive_step(1.0, np.float64(0.0), 1.0, math.inf, 0.0, 0.0, math.nan, 1.0)


class TestUpdateStatistics:
    def test_second_moment(self):
        out = adapt(3.0, q_sel=0.5, p_sel=0.25, min_loss=1.0)
        assert out["V"] == 4.0
        assert out["D"] == 4.0

    def test_zero_measure_is_noop(self):
        out = adapt(1.0, q_sel=0.5, p_sel=0.7, min_loss=1.0, V=1.5, D=2.0)
        assert out["V"] == 1.5
        assert out["D"] == 2.0

    def test_running_definitions(self):
        st = {"min_loss": math.inf, "V": 0.0, "D": 0.0, "rate": math.nan}
        for loss in (0.0, 2.0, 1.0):  # excesses 0, 2, 1
            st = adapt(loss, min_loss=st["min_loss"], V=st["V"], D=st["D"],
                       rate_prev=st["rate"])
        assert st["V"] == 5.0
        assert st["D"] == 2.0


class TestLearningRate:
    def test_inverse_sqrt(self):
        assert adapt(1.0, min_loss=1.0, V=3.0, D=1.0)["rate"] == 0.5

    def test_degenerate_marker(self):
        out = adapt(1.0, min_loss=1.0)
        assert math.isnan(out["rate"])
        assert out["power"] == 1.0 and out["exponent"] == 0.0

    def test_spread_only(self):
        assert adapt(1.0, min_loss=1.0, D=3.0, gamma=2.0)["rate"] == 2.0 / 3.0


class TestExponentialUpdate:
    def test_zero_excess_is_identity(self):
        model = fixed_arm_model(3)
        log_w = np.array([0.1, -0.2, 0.3])
        assert adapt(1.0, min_loss=1.0, D=2.0, rate_prev=0.5)["exponent"] == 0.0
        out, p, _, _ = weight_step(model, log_w, 1, 0.0, 1.0)
        assert np.allclose(out, log_w - logsumexp(log_w), atol=1e-15)
        assert np.allclose(p, arm_probabilities(log_w), atol=1e-15)

    def test_selected_arm_penalized(self):
        # rate 0.5 times excess 4 lowers arm 0 by 2 against arm 1
        model = fixed_arm_model(2)
        out, _, _, _ = weight_step(model, np.zeros(2), 0, 0.5 * 4.0, 1.0)
        assert out[0] - out[1] == pytest.approx(-2.0, abs=1e-15)

    def test_unselected_classes_untouched(self):
        model = fixed_arm_model(3)
        log_w = np.array([0.1, -0.2, 0.3])
        out, _, _, _ = weight_step(model, log_w, 1, 5.0, 1.0)
        assert out[2] - out[0] == pytest.approx(log_w[2] - log_w[0], abs=1e-15)


class TestWeightShare:
    def test_identity_transition_power_one(self):
        model = fixed_arm_model(3)
        log_z = np.array([0.0, -1.0, -2.0])
        out, _, mass_in, mass_out = weight_step(model, log_z, 0, 0.0, 1.0)
        assert np.allclose(out, log_z - logsumexp(log_z), atol=1e-15)
        assert mass_in == mass_out

    def test_uniform_fixed_point(self):
        model = fixed_share_model(2, 0.25)
        out, p, _, _ = weight_step(model, np.log(np.array([1.0, 1.0])), 0, 0.0, 1.0)
        assert np.allclose(np.exp(out), [0.5, 0.5], atol=1e-15)
        assert np.allclose(p, [0.5, 0.5], atol=1e-15)

    def test_hand_expanded_share(self):
        # z=(4,0), power 1/2 -> z^p=(2,0); rows (0.75,0.25):
        # w = (0.75*2 + 0.25*0, 0.25*2 + 0.75*0) = (1.5, 0.5), mass 2
        model = fixed_share_model(2, 0.25)
        with np.errstate(divide="ignore"):
            log_z = np.log(np.array([4.0, 0.0]))
        out, p, mass_in, mass_out = weight_step(model, log_z, 0, 0.0, 0.5)
        assert np.allclose(np.exp(out) * math.exp(mass_out), [1.5, 0.5], atol=1e-12)
        assert np.allclose(p, [0.75, 0.25], atol=1e-12)
        assert math.exp(mass_in) == pytest.approx(2.0, abs=1e-12)

    def test_large_alpha_dense_fallback(self):
        # alpha > (M-1)/M, where leaving is likelier than staying, once took a
        # dense fallback; the closed form covers it and must conserve mass
        model = fixed_share_model(2, 0.8)
        rng = make_generator(1)
        log_z = rng.normal(size=2)
        out, _, mass_in, mass_out = weight_step(model, log_z, 0, 0.0, 0.7)
        assert abs(math.exp(mass_out - mass_in) - 1.0) <= 1e-12


class TestInit:
    def test_fixed_arm_uniform_start(self):
        state = ScaleFreeBandit(fixed_arm_model(4), gamma=1.0, seed=0)
        assert np.allclose(state.probabilities, [0.25] * 4, atol=1e-15)

    def test_fixed_share_uniform_start(self):
        state = ScaleFreeBandit(fixed_share_model(2, 0.25), gamma=1.0, seed=0)
        assert np.allclose(state.probabilities, [0.5, 0.5], atol=1e-15)

    def test_rejects_zero_gamma(self):
        with pytest.raises(ValueError):
            ScaleFreeBandit(fixed_arm_model(2), gamma=0.0, seed=0)

    @pytest.mark.parametrize("gamma", [None, math.inf, math.nan, -1.0, "1"])
    def test_gamma_is_required_and_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ScaleFreeBandit(fixed_arm_model(2), gamma)

    def test_initial_bookkeeping(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        st = state.stats
        assert st.round == 1 and st.min_loss == math.inf
        assert st.second_moment == 0.0 and st.spread_max == 0.0
        assert st.rate_prev is None


class TestRoundProtocol:
    def test_first_round_is_pure_prior_step(self):
        state = ScaleFreeBandit(fixed_share_model(2, 0.25), gamma=1.0, seed=0)
        state.select()
        state.update(123.456)
        # any first loss becomes the running minimum: no exponential effect
        assert state.stats.min_loss == 123.456
        assert state.stats.second_moment == 0.0
        assert np.allclose(state.probabilities, [0.5, 0.5], atol=1e-15)

    def test_constant_losses_keep_prior_marginals(self):
        state = ScaleFreeBandit(fixed_share_model(3, 0.1), gamma=2.0, seed=1)
        for _ in range(50):
            state.play_round(lambda arm: 5.0)
        assert np.allclose(state.probabilities, [1 / 3] * 3, atol=1e-12)
        assert state.stats.rate_prev is None  # never left the degenerate regime

    def test_select_twice_raises(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        state.select()
        with pytest.raises(ProtocolError):
            state.select()

    def test_update_without_select_raises(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        with pytest.raises(ProtocolError):
            state.update(1.0)

    def test_nonfinite_losses_rejected(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        state.select()
        with pytest.raises(ValueError):
            state.update(math.nan)
        with pytest.raises(ValueError):
            state.update(math.inf)

    @pytest.mark.parametrize("bad_loss,error", [
        (2.0 ** 600, NumericalDegeneracyError), (math.nan, ValueError)], ids=["overflow", "nan"])
    def test_failed_update_changes_nothing(self, bad_loss, error):
        # a rejected loss leaves the learner as it was, still waiting for update()
        state = ScaleFreeBandit(fixed_share_model(4, 0.01), gamma=1.0, seed=0)
        for _ in range(20):
            state.play_round(lambda arm: (0.25, 0.75, 0.5, 1.0)[arm])
        state.select()
        before = (state.round, state.stats, state.log_weights, state.probabilities)
        assert before[1].rate_prev is not None
        with pytest.raises(error):
            state.update(bad_loss)
        assert (state.round, state.stats) == before[:2]
        assert np.array_equal(state.log_weights, before[2])
        assert np.array_equal(state.probabilities, before[3])
        with pytest.raises(ProtocolError):
            state.select()
        with pytest.raises(ProtocolError):
            state.snapshot()

    @pytest.mark.parametrize("model", [fixed_share_model(5, 0.05), fixed_arm_model(5),
                                       fixed_share_model(9, 1e-3)],
                             ids=["share", "fixed", "share9"])
    def test_probabilities_are_the_exp_of_the_log_weights(self, model):
        # no renormalization pass: p is exp of the mass-1 log-weights, bit for bit
        n_arms = model.n_arms
        losses = np.random.default_rng(n_arms).uniform(-1.0, 2.0, (300, n_arms))
        state = ScaleFreeBandit(model, gamma=1.3, seed=2)
        for t in range(300):
            p = state.probabilities
            assert p.tobytes() == np.exp(state.log_weights).tobytes()
            assert abs(p.sum() - 1.0) <= 1e-14
            state.play_round(lambda arm: losses[t, arm])
        assert state.probabilities.tobytes() == np.exp(state.log_weights).tobytes()

    def test_forced_arm_must_be_in_range(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        with pytest.raises(ValueError):
            state.select(force_arm=5)

    def test_forced_arm_leaves_rng_untouched(self):
        a = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=9)
        b = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=9)
        a.select(force_arm=1)
        a.update(2.0)
        b.select(force_arm=1)
        b.update(2.0)
        arm_a, _ = a.select()
        arm_b, _ = b.select()
        assert arm_a == arm_b


class TestSnapshot:
    def play(self, state, losses, rounds):
        out = []
        for _ in range(rounds):
            arm, _ = state.select()
            state.update(losses[arm])
            out.append(arm)
        return out

    def test_round_trip_resumes_exactly(self):
        losses = {0: 0.3, 1: 0.9, 2: 0.1, 3: 0.5}
        state = ScaleFreeBandit(fixed_share_model(4, 0.05), gamma=1.7, seed=11)
        self.play(state, losses, 37)
        snap = json.loads(json.dumps(state.snapshot(), allow_nan=False))
        twin = ScaleFreeBandit.restore(snap)
        assert np.array_equal(state.probabilities, twin.probabilities)
        arms_a = self.play(state, losses, 25)
        arms_b = self.play(twin, losses, 25)
        assert arms_a == arms_b
        assert np.array_equal(state.log_weights, twin.log_weights)
        assert np.array_equal(state.probabilities, twin.probabilities)
        assert state.stats == twin.stats

    def test_snapshot_mid_round_rejected(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        state.select()
        with pytest.raises(ProtocolError):
            state.snapshot()

    def test_save_load_files(self, tmp_path):
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        self.play(state, {0: 1.0, 1: 2.0, 2: 0.0}, 10)
        path = tmp_path / "state.json"
        state.save(path)
        twin = ScaleFreeBandit.load(path)
        assert np.array_equal(state.log_weights, twin.log_weights)
        assert state.stats == twin.stats

    def test_version_checked(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        snap = state.snapshot()
        snap["version"] = 99
        with pytest.raises(ValueError):
            ScaleFreeBandit.restore(snap)

    def test_format_checked(self):
        with pytest.raises(ValueError, match="snapshot"):
            ScaleFreeBandit.restore({"version": 1})

    @pytest.mark.parametrize("n_arms,alpha", [(2, None), (9, None), (2, 0.5), (3, 1 / 3),
                                              (5, 1e-300), (4, 1 - 2 ** -53), (300, 0.1)])
    def test_every_model_restores(self, n_arms, alpha):
        # a model is (n_arms, alpha), and its spec reads back to the same pair
        state = ScaleFreeBandit(CompetitionModel(n_arms, alpha), gamma=1.0, seed=3)
        self.play(state, {arm: (arm % 3) / 2 for arm in range(n_arms)}, 5)
        twin = ScaleFreeBandit.restore(json.loads(json.dumps(state.snapshot(), allow_nan=False)))
        assert (twin.model.n_arms, twin.model.alpha) == (n_arms, alpha)
        assert twin.stats == state.stats
        assert np.array_equal(twin.log_weights, state.log_weights)

    @pytest.mark.parametrize("make", [
        lambda: fixed_share_model(4, 1.0 / np.int64(10_000)),
        lambda: fixed_share_model(np.int64(4), 0.1),
        lambda: fixed_arm_model(np.int64(4)),
    ])
    def test_models_from_numpy_scalars_snapshot_as_plain_numbers(self, make):
        model = make()
        plain = CompetitionModel(int(model.n_arms), None if model.alpha is None else float(model.alpha))
        snaps = []
        for m in (model, plain):
            state = ScaleFreeBandit(m, gamma=1.0, seed=4)
            self.play(state, {0: 0.3, 1: 0.9, 2: 0.1, 3: 0.5}, 10)
            snaps.append(json.dumps(state.snapshot(), allow_nan=False))
        assert snaps[0] == snaps[1]
        twin = ScaleFreeBandit.restore(json.loads(snaps[0]))
        assert json.dumps(twin.snapshot(), allow_nan=False) == snaps[0]

    @pytest.mark.parametrize("rounds,field,value", [
        *(pytest.param(rounds, field, value, id=f"{rounds}-{field}-{value}")
          for field, value in [
              ("rate_prev", 1e-9), ("rate_prev", -1.0), ("second_moment", -1.0),
              ("spread_max", -0.5), ("second_moment", math.inf), ("spread_max", math.nan),
              ("round", 0), ("round", -3), ("round", 2.7), ("round", True), ("round", "7"),
              ("min_loss", math.nan), ("min_loss", -math.inf), ("min_loss", "0.5"),
          ] for rounds in (0, 6)),
        # a null (or the older Infinity) min_loss means no loss yet: round 1 only
        pytest.param(6, "min_loss", None, id="6-min_loss-None"),
        pytest.param(6, "min_loss", math.inf, id="6-min_loss-Infinity"),
        pytest.param(0, "min_loss", 0.25, id="0-min_loss-0.25"),
    ])
    def test_unreachable_statistics_rejected_at_restore(self, rounds, field, value):
        # statistics the recursion cannot produce fail at restore, naming the
        # field, instead of surfacing at some later update
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        self.play(state, {0: 1.0, 1: 2.0, 2: 0.0}, rounds)
        snap = json.loads(json.dumps(state.snapshot(), allow_nan=False))
        snap[field] = value
        with pytest.raises(ValueError, match=field):
            ScaleFreeBandit.restore(snap)

    @pytest.mark.parametrize("n_entries", [2, 4])
    def test_log_weights_of_the_wrong_length_rejected(self, n_entries):
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        self.play(state, {0: 1.0, 1: 2.0, 2: 0.0}, 6)
        snap = json.loads(json.dumps(state.snapshot(), allow_nan=False))
        snap["log_weights"] = (snap["log_weights"] * 2)[:n_entries]
        with pytest.raises(ValueError, match="log_weights"):
            ScaleFreeBandit.restore(snap)

    def test_numpy_gamma_snapshots_as_a_plain_number(self):
        snaps = []
        for gamma in (np.float32(0.5), 0.5):
            state = ScaleFreeBandit(fixed_arm_model(2), gamma, seed=0)
            self.play(state, {0: 1.0, 1: 0.0}, 4)
            snaps.append(json.dumps(state.snapshot(), allow_nan=False))
        assert snaps[0] == snaps[1]

    def test_snapshot_of_the_one_rate_rule_holds_no_fixed_rate(self):
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        assert "fixed_rate" not in state.snapshot()

    def test_null_fixed_rate_of_older_snapshots_restores_and_resumes(self):
        losses = {0: 0.3, 1: 0.9, 2: 0.1}
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        self.play(state, losses, 9)
        snap = json.loads(json.dumps(state.snapshot(), allow_nan=False))
        twin = ScaleFreeBandit.restore({**snap, "fixed_rate": None})
        assert self.play(twin, losses, 20) == self.play(state, losses, 20)
        assert twin.log_weights.tobytes() == state.log_weights.tobytes()
        assert twin.snapshot() == state.snapshot()

    @pytest.mark.parametrize("value", [0.5, 0.0, "0.5"], ids=["0.5", "0.0", "string"])
    def test_fixed_rate_snapshot_rejected(self, value):
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        self.play(state, {0: 1.0, 1: 2.0, 2: 0.0}, 6)
        with pytest.raises(ValueError, match="fixed_rate"):
            ScaleFreeBandit.restore({**state.snapshot(), "fixed_rate": value})

    @pytest.mark.parametrize("field,edit", [
        ("model", lambda snap: snap["model"].update(n_arms=3.0)),
        ("model", lambda snap: snap["model"].update(n_arms="3")),
        ("model", lambda snap: snap["model"].pop("spec")),
        ("model", lambda snap: snap.update(model=[3])),
        ("gamma", lambda snap: snap.update(gamma="1")),
        ("gamma", lambda snap: snap.pop("gamma")),
        ("round", lambda snap: snap.pop("round")),
        ("min_loss", lambda snap: snap.pop("min_loss")),
        ("second_moment", lambda snap: snap.update(second_moment=[0.5])),
        ("rate_prev", lambda snap: snap.pop("rate_prev")),
        ("rng", lambda snap: snap["rng"].pop("counter")),
        ("rng", lambda snap: snap["rng"].update(counter=[1])),
        ("rng", lambda snap: snap["rng"].update(key=[-1, 0])),
        ("rng", lambda snap: snap.update(rng=None)),
        ("log_weights", lambda snap: snap["log_weights"].__setitem__(0, math.nan)),
        ("log_weights", lambda snap: snap.update(log_weights=[800.0] * 3)),
        ("log_weights", lambda snap: snap.update(log_weights={"a": 0.0})),
        # JSON numbers only: the same values as strings or bools are rejected
        ("second_moment", lambda snap: snap.update(second_moment=repr(snap["second_moment"]))),
        ("second_moment", lambda snap: snap.update(second_moment=False)),
        ("spread_max", lambda snap: snap.update(spread_max=repr(snap["spread_max"]))),
        ("rate_prev", lambda snap: snap.update(rate_prev=repr(snap["rate_prev"]))),
        ("log_weights", lambda snap: snap.update(log_weights=list(map(repr, snap["log_weights"])))),
        ("log_weights", lambda snap: snap.update(log_weights=repr(snap["log_weights"]))),
        ("log_weights", lambda snap: snap["log_weights"].__setitem__(0, True)),
        ("log_weights", lambda snap: snap.update(log_weights=[0.0, 0.0, 0.0])),  # mass 3
    ], ids=["n_arms-float", "n_arms-str", "no-spec", "model-list", "gamma-str", "no-gamma",
            "no-round", "no-min_loss", "second_moment-list", "no-rate_prev", "no-counter",
            "short-counter", "negative-key", "rng-null", "nan-log_weights",
            "overflowing-log_weights", "log_weights-dict", "second_moment-str",
            "second_moment-bool", "spread_max-str", "rate_prev-str", "log_weights-entries-str",
            "log_weights-str", "log_weights-bool", "log_weights-mass-3"])
    def test_malformed_snapshot_raises_value_error_naming_the_field(self, field, edit):
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        self.play(state, {0: 1.0, 1: 2.0, 2: 0.0}, 6)
        snap = json.loads(json.dumps(state.snapshot(), allow_nan=False))
        edit(snap)
        with pytest.raises(ValueError, match=field), np.errstate(over="ignore"):
            ScaleFreeBandit.restore(snap)

    @pytest.mark.parametrize("shift,restores", [(0.0, True), (4e-10, True), (-4e-10, True),
                                                (2e-9, False), (-2e-9, False)])
    def test_log_weights_must_have_mass_one(self, shift, restores):
        # the kernel takes p = exp(log_w) without renormalizing, so restore
        # rejects a mass (sum of exps) off 1 by more than 1e-9
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        self.play(state, {0: 1.0, 1: 2.0, 2: 0.0}, 6)
        snap = json.loads(json.dumps(state.snapshot(), allow_nan=False))
        snap["log_weights"] = [x + shift for x in snap["log_weights"]]
        if restores:
            twin = ScaleFreeBandit.restore(snap)
            assert twin.probabilities.tobytes() == np.exp(twin.log_weights).tobytes()
        else:
            with pytest.raises(ValueError, match="log_weights: ValueError: mass"):
                ScaleFreeBandit.restore(snap)

    @pytest.mark.parametrize("snap", [[("format", "scalefree-bandit-snapshot")], "snapshot", None])
    def test_snapshot_that_is_not_an_object_rejected(self, snap):
        with pytest.raises(ValueError, match="not a bandit snapshot"):
            ScaleFreeBandit.restore(snap)

    def test_fresh_snapshot_is_strict_json(self):
        state = ScaleFreeBandit(fixed_share_model(3, 0.2), gamma=1.0, seed=4)
        text = json.dumps(state.snapshot(), allow_nan=False)
        assert json.loads(text)["min_loss"] is None
        twin = ScaleFreeBandit.restore(json.loads(text))
        assert twin.stats == state.stats
        assert np.array_equal(twin.probabilities, state.probabilities)

    def test_legacy_infinity_snapshot_loads(self):
        state = ScaleFreeBandit(fixed_arm_model(2), gamma=1.0, seed=0)
        snap = state.snapshot()
        snap["min_loss"] = math.inf
        twin = ScaleFreeBandit.restore(json.loads(json.dumps(snap)))
        assert twin.stats == state.stats


class TestNumericalRange:
    def test_overflowing_losses_raise_named_error(self):
        state = ScaleFreeBandit(fixed_share_model(4, 0.01), gamma=1.0, seed=0)
        losses = 1e170 * np.array([0.25, 0.75, 0.75, 0.75])
        with pytest.raises(NumericalDegeneracyError, match="rate"), np.errstate(over="ignore"):
            for _ in range(50):
                state.play_round(lambda arm: losses[arm])

    def test_underflowing_excess_keeps_the_rate_undefined(self):
        # every squared excess underflows, so the rate sum stays zero: the
        # rounds count as the degenerate prefix (no rate, no penalty), as in
        # the reference recursion, instead of raising or producing NaN
        model = fixed_share_model(4, 0.01)
        state = ScaleFreeBandit(model, gamma=1.0, seed=0)
        losses = 1e-200 * np.array([0.25, 0.75, 0.75, 0.75])
        for _ in range(50):
            state.play_round(lambda arm: losses[arm])
        assert state.stats.spread_max > 0.0
        assert state.stats.rate_prev is None
        assert np.array_equal(state.probabilities, arm_probabilities(model.log_prior))

    def test_underflowing_prefix_then_normal_losses(self):
        # a lone underflowing excess before ordinary losses leaves the run finite
        matrix = np.zeros((4, 2))
        matrix[3, 1] = 3.1297248454942404e-196
        matrix = np.vstack([matrix, np.array([[0.0, 1.0]] * 6)])
        run = replay_core(fixed_share_model(2, 0.5), 1.0, matrix, seed=0)
        assert np.isfinite(run["final"].log_weights).all()
        assert np.abs(run["p"].sum(axis=1) - 1.0).max() <= 1e-12
