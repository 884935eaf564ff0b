import math

import numpy as np
import pytest

from scalefree_bandit.competitions import (
    complexity,
    complexity_budget,
    default_gamma,
    fixed_arm_model,
    fixed_share_model,
    parse_model,
    switch_count,
)
from scalefree_bandit.rng import make_generator


class TestFixedArmModel:
    def test_identity_transitions(self):
        model = fixed_arm_model(3)
        assert model.transition_matrix().tobytes() == np.eye(3).tobytes()

    def test_uniform_prior(self):
        model = fixed_arm_model(5)
        assert np.allclose(np.exp(model.log_prior), np.full(5, 0.2), atol=1e-15)

    def test_constant_path_complexity(self):
        # log(max class-space size) + log(1/prior) = 2 log 3
        model = fixed_arm_model(3)
        for horizon in (2, 5, 11):
            path = np.full(horizon, 1)
            assert complexity(model, path) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_switching_path_unrealizable(self):
        model = fixed_arm_model(3)
        assert complexity(model, [0, 0, 2]) == math.inf

    def test_needs_two_arms(self):
        with pytest.raises(ValueError):
            fixed_arm_model(1)


class TestFixedShareModel:
    def test_row_structure(self):
        model = fixed_share_model(2, 0.25)
        assert np.allclose(model.transition_matrix(), [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)

    @pytest.mark.parametrize("n_arms,alpha", [(2, 0.25), (3, 0.5), (8, 0.9), (4, 1e-6)])
    def test_rows_are_stochastic(self, n_arms, alpha):
        rows = fixed_share_model(n_arms, alpha).transition_matrix().sum(axis=1)
        assert np.abs(rows - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n_arms", [2, 3, 4, 7, 64])
    def test_rows_sum_to_one_across_alpha(self, n_arms):
        for alpha in (5e-324, 1e-300, 1e-12, 1e-6, 0.1, 0.5, 1 - 1 / n_arms, 0.9, 1 - 2 ** -53):
            rows = fixed_share_model(n_arms, alpha).transition_matrix().sum(axis=1)
            assert np.abs(rows - 1.0).max() <= 1e-15

    def test_entries_are_the_rounded_rates(self):
        # entry by entry, not through a log: a subnormal move rounds to 0.0
        for n_arms, alpha in ((3, 0.17), (4, 1e-300), (4, 5e-324)):
            trans = fixed_share_model(n_arms, alpha).transition_matrix()
            assert (np.diag(trans) == 1.0 - alpha).all()
            assert (trans[~np.eye(n_arms, dtype=bool)] == alpha / (n_arms - 1)).all()

    def test_small_alpha_recovers_identity(self):
        near = fixed_share_model(4, 1e-12).transition_matrix()
        assert np.abs(near - np.eye(4)).max() <= 1e-11

    def test_alpha_range_enforced(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                fixed_share_model(3, alpha)


class TestParseModel:
    def test_fixed(self):
        assert parse_model("fixed", 4).alpha is None

    def test_switching(self):
        model = parse_model("switching:0.25", 4)
        assert model.alpha == 0.25

    @pytest.mark.parametrize("spec", ["switching:1.5", "switching:abc", "mystery", "switching:"])
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_model(spec, 4)


class TestComplexity:
    def test_two_arm_constant_path(self):
        model = fixed_arm_model(2)
        assert complexity(model, [0] * 5) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_one_switch_product(self):
        # prior 1/2, stay 3/4, move 1/4: W = log 2 - log(1/2 * 3/4 * 1/4) = log(64/3)
        model = fixed_share_model(2, 0.25)
        value = complexity(model, [0, 0, 1])
        assert value == pytest.approx(math.log(64 / 3), abs=1e-12)
        assert value == pytest.approx(3.0603, abs=5e-5)

    def test_single_round_path(self):
        # round-0 space is the lone start symbol: only the prior term remains
        model = fixed_arm_model(4)
        assert complexity(model, [2]) == pytest.approx(math.log(4), abs=1e-12)

    def test_closed_form_matches_product(self):
        # complexity is the closed form; the dense transition matrix summed
        # along the path is the independent route
        model = fixed_share_model(5, 0.17)
        log_t = np.log(model.transition_matrix())
        rng = make_generator(8)
        for _ in range(50):
            horizon = int(rng.integers(2, 30))
            path = [int(rng.integers(0, 5))]
            for _ in range(horizon - 1):
                if rng.random() < 0.3:
                    choices = [a for a in range(5) if a != path[-1]]
                    path.append(choices[int(rng.integers(0, 4))])
                else:
                    path.append(path[-1])
            log_weight = model.log_prior[path[0]] + sum(
                log_t[a, b] for a, b in zip(path, path[1:]))
            product = math.log(5) - log_weight
            assert complexity(model, path) == pytest.approx(product, rel=1e-12)

    def test_rejects_empty_and_out_of_range(self):
        model = fixed_arm_model(2)
        with pytest.raises(ValueError):
            complexity(model, [])
        with pytest.raises(ValueError):
            complexity(model, [0, 5])


class TestComplexityBudget:
    def test_fixed_arm_budget(self):
        model = fixed_arm_model(3)
        for horizon in (2, 10, 1000):
            assert complexity_budget(model, horizon, 0) == pytest.approx(2 * math.log(3), abs=1e-12)

    def test_zero_switch_fixed_share(self):
        model = fixed_share_model(4, 0.1)
        horizon = 50
        expected = 2 * math.log(4) + 49 * math.log(1 / 0.9)
        assert complexity_budget(model, horizon, 0) == pytest.approx(expected, rel=1e-12)

    def test_budget_dominates_random_paths(self):
        # every sampled <=2-switch path costs at most the budget, and paths
        # with exactly 2 switches attain it bit for bit
        horizon, k = 100, 2
        model = fixed_share_model(4, 1.0 / horizon)
        budget = complexity_budget(model, horizon, k)
        rng = make_generator(21)
        attained = -math.inf
        for _ in range(10_000):
            switches = int(rng.integers(0, k + 1))
            cuts = sorted(rng.choice(np.arange(1, horizon), size=switches, replace=False))
            path = np.empty(horizon, dtype=np.intp)
            arm = int(rng.integers(0, 4))
            start = 0
            for cut in list(cuts) + [horizon]:
                path[start:cut] = arm
                start = cut
                nxt = int(rng.integers(0, 3))
                arm = [a for a in range(4) if a != arm][nxt]
            value = complexity(model, path)
            assert value <= budget
            attained = max(attained, value)
        assert attained == budget

    def test_default_gamma_is_sqrt_budget(self):
        model = fixed_share_model(4, 0.01)
        assert default_gamma(model, 100, 1) == pytest.approx(
            math.sqrt(complexity_budget(model, 100, 1)), rel=1e-15
        )

    # pinned bits: an ordinary alpha takes log((M - 1) / alpha) as one log
    @pytest.mark.parametrize("alpha,m4_k1,m8_k20", [
        (1e-4, 3.752518004782521, 15.108998755785116),
        (0.002, 5.486513629867287, 13.687484527244457),
        (0.5, 83.27454508689796, 83.50961468288163),
        (0.9, 151.74426161660844, 151.74882941206113),
    ])
    def test_default_gamma_keeps_its_bits(self, alpha, m4_k1, m8_k20):
        assert default_gamma(fixed_share_model(4, alpha), 10_000, 1) == m4_k1
        assert default_gamma(fixed_share_model(8, alpha), 10_000, 20) == m8_k20

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324])
    def test_default_gamma_finite_at_subnormal_alpha(self, alpha):
        # (M - 1) / alpha overflows; its log does not
        model = fixed_share_model(4, alpha)
        gamma = default_gamma(model, 10_000, 1)
        assert math.isfinite(gamma)
        per_switch = math.log(3) - math.log(alpha)
        assert complexity_budget(model, 10_000, 1) == pytest.approx(
            2 * math.log(4) + per_switch - 9_998 * math.log1p(-alpha), rel=1e-15)
        assert complexity(model, [0, 1] + [1] * 9_998) == complexity_budget(model, 10_000, 1)

    def test_bad_arguments(self):
        model = fixed_arm_model(2)
        with pytest.raises(ValueError):
            complexity_budget(model, 0, 0)
        with pytest.raises(ValueError):
            complexity_budget(model, 5, 5)


def test_prior_marginals_uniform_for_shipped_models():
    from scalefree_bandit.core import arm_probabilities

    for model in (fixed_arm_model(6), fixed_share_model(6, 0.3)):
        p = arm_probabilities(model.log_prior.copy())
        assert np.allclose(p, np.full(6, 1 / 6), atol=1e-15)
