import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalefree_bandit import core
from scalefree_bandit.competitions import (
    CompetitionModel,
    complexity,
    fixed_share_model,
    switch_count,
)
from scalefree_bandit.core import (
    arm_probabilities,
    mixture_coefficient,
    selection_probabilities,
    weight_step,
)
from scalefree_bandit.environments import scripted
from scalefree_bandit.harness import simulate_runs
from scalefree_bandit.reference import replay_core

finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def simplex(draw, min_size=2, max_size=8):
    raw = draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                        min_size=min_size, max_size=max_size))
    arr = np.array(raw)
    return arr / arr.sum()


@given(p=simplex(), eps=st.floats(min_value=1e-9, max_value=0.5))
def test_selection_probabilities_sum_and_floor(p, eps):
    q = selection_probabilities(p, eps)
    assert abs(q.sum() - 1.0) <= 1e-12
    assert (q >= eps / p.shape[0] - 1e-15).all()


@given(
    log_w=st.lists(st.floats(min_value=-40, max_value=40), min_size=2, max_size=6),
    shift=st.floats(min_value=-200, max_value=200),
)
def test_arm_marginals_shift_invariant(log_w, shift):
    base = arm_probabilities(np.array(log_w))
    moved = arm_probabilities(np.array(log_w) + shift)
    assert np.abs(base - moved).max() <= 1e-12


@given(
    n_arms=st.integers(min_value=2, max_value=5),
    alpha=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    raw=st.lists(st.floats(min_value=-30, max_value=30), min_size=5, max_size=5),
    power=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=60)
def test_weight_share_conserves_mass(n_arms, alpha, raw, power):
    # alpha ranges over all of (0, 1), past (M-1)/M where leaving is likelier
    model = fixed_share_model(n_arms, alpha)
    log_z = np.array(raw[:n_arms])
    _, _, mass_in, mass_out = weight_step(model, log_z, 0, 0.0, power)
    assert abs(math.expm1(mass_out - mass_in)) <= 1e-12


@given(n_arms=st.integers(min_value=2, max_value=16),
       alpha=st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
def test_fixed_share_rows_stochastic(n_arms, alpha):
    rows = fixed_share_model(n_arms, alpha).transition_matrix().sum(axis=1)
    assert np.abs(rows - 1.0).max() <= 1e-12


@given(
    n_arms=st.integers(min_value=2, max_value=5),
    alpha=st.floats(min_value=1e-4, max_value=0.9),
    moves=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=20),
)
def test_complexity_closed_form(n_arms, alpha, moves):
    model = fixed_share_model(n_arms, alpha)
    path = [moves[0] % n_arms]
    for step in moves[1:]:
        path.append(step % n_arms)
    k = switch_count(path)
    horizon = len(path)
    expected = (
        (math.log(n_arms) if horizon > 1 else 0.0)
        + math.log(n_arms)
        + k * math.log((n_arms - 1) / alpha)
        + (horizon - 1 - k) * math.log(1 / (1 - alpha))
    )
    assert complexity(model, path) == pytest.approx(expected, rel=1e-9, abs=1e-9)


@given(t=st.integers(min_value=1, max_value=10 ** 9),
       n_arms=st.integers(min_value=2, max_value=64))
def test_mixture_coefficient_formula(t, n_arms):
    eps = mixture_coefficient(t, n_arms)
    assert 0.0 < eps <= 0.5
    assert eps == min(0.5, math.sqrt(n_arms / t))


@st.composite
def bandit_instance(draw):
    n_arms = draw(st.integers(min_value=2, max_value=4))
    horizon = draw(st.integers(min_value=1, max_value=30))
    scale = draw(st.floats(min_value=0.1, max_value=100.0))
    offset = draw(st.floats(min_value=-50.0, max_value=50.0))
    cells = draw(
        st.lists(unit, min_size=n_arms * horizon, max_size=n_arms * horizon)
    )
    matrix = offset + scale * np.array(cells).reshape(horizon, n_arms)
    alpha = draw(st.floats(min_value=1e-4, max_value=0.9))
    gamma = draw(st.floats(min_value=0.1, max_value=5.0))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    return matrix, alpha, gamma, seed


@given(instance=bandit_instance())
@settings(max_examples=40, deadline=None)
def test_trajectory_invariants(instance):
    """Audit a full random run against every stated state invariant."""
    matrix, alpha, gamma, seed = instance
    horizon, n_arms = matrix.shape
    model = fixed_share_model(n_arms, alpha)
    run = replay_core(model, gamma, matrix, seed=seed)

    # probability integrity, per round
    assert np.abs(run["p"].sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(run["q"].sum(axis=1) - 1.0).max() <= 1e-12
    for t in range(horizon):
        eps = mixture_coefficient(t + 1, n_arms)
        assert (run["q"][t] >= eps / n_arms - 1e-15).all()

    # conservation through every sharing step
    log_in, log_out = run["conservation"][:, 0], run["conservation"][:, 1]
    assert np.abs(np.expm1(log_out - log_in)).max() <= 1e-9

    # every class stays reachable under fixed-share, so weights stay finite
    assert np.isfinite(run["final"].log_weights).all()

    # replaying the same seed pins the whole trajectory (selected arms and
    # incurred losses fully determine the state)
    again = replay_core(model, gamma, matrix, seed=seed)
    assert np.array_equal(run["arms"], again["arms"])
    assert np.array_equal(run["p"], again["p"])


@given(instance=bandit_instance())
@settings(max_examples=40, deadline=None)
def test_adaptive_statistics_monotone(instance):
    """Running minimum falls, second-order statistics rise, rates fall."""
    matrix, alpha, gamma, seed = instance
    horizon, n_arms = matrix.shape
    model = fixed_share_model(n_arms, alpha)
    from scalefree_bandit.core import ScaleFreeBandit

    state = ScaleFreeBandit(model, gamma, seed=seed)
    prev_min = math.inf
    prev_second = 0.0
    prev_spread = 0.0
    prev_rate = None
    for t in range(horizon):
        arm, _ = state.select()
        state.update(matrix[t, arm])
        st_now = state.stats
        assert st_now.min_loss <= prev_min
        assert st_now.second_moment >= prev_second
        assert st_now.spread_max >= prev_spread
        if prev_rate is not None:
            assert st_now.rate_prev is not None
            assert st_now.rate_prev <= prev_rate
            assert 0.0 < st_now.rate_prev / prev_rate <= 1.0
        prev_min = st_now.min_loss
        prev_second = st_now.second_moment
        prev_spread = st_now.spread_max
        prev_rate = st_now.rate_prev


UNDERFLOW_STREAM = np.vstack([np.zeros((4, 2)), [[0.0, 1.0]] * 6])
UNDERFLOW_STREAM[3, 1] = 3.1297248454942404e-196


@st.composite
def scaled_stream(draw):
    """Losses with ties and zeros, scaled by 2^k, k in [-500, 500]."""
    n_arms = draw(st.integers(min_value=2, max_value=9))
    horizon = draw(st.integers(min_value=1, max_value=40))
    cells = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.1297248454942404e-196]), unit),
                          min_size=n_arms * horizon, max_size=n_arms * horizon))
    matrix = np.array(cells).reshape(horizon, n_arms) * 2.0 ** draw(st.integers(-500, 500))
    alpha = draw(st.one_of(st.none(), st.floats(min_value=1e-4, max_value=0.9)))
    gamma = math.exp(draw(st.floats(min_value=-5.0, max_value=5.0)))
    return matrix, alpha, gamma, draw(st.integers(min_value=0, max_value=2 ** 31))


@given(instance=scaled_stream())
@example(instance=(UNDERFLOW_STREAM, 0.5, 1.0, 0))
@settings(max_examples=60, deadline=None)
def test_power_stays_in_unit_interval(instance):
    """weight_step does not check the power; every round's must be in (0, 1]."""
    matrix, alpha, gamma, seed = instance
    model = CompetitionModel(matrix.shape[1], alpha)
    powers = []

    def recorded(*args, **kwargs):
        out = adaptive_step(*args, **kwargs)
        powers.append(np.asarray(out[5]))
        return out

    adaptive_step = core.adaptive_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "adaptive_step", recorded)
        replay_core(model, gamma, matrix, seed=seed)
        simulate_runs(model, gamma, scripted(matrix), seed, 3)
    assert len(powers) == 2 * matrix.shape[0]
    for power in powers:
        assert ((power > 0.0) & (power <= 1.0)).all()
