"""Self-check suites: oracle agreement, conservation, invariance, bounds.

Each check returns a :class:`CheckResult` with the maximum observed
deviation so the CLI can print one line per check. The default parameters
are the acceptance settings; the test suite calls these same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import environments, reference
from .competitions import fixed_share_model
from .harness import ExperimentConfig, RegretReport, build_stream, run_experiment
from .reference import (
    best_switching_sequence,
    enumerate_best_sequence,
    replay_constant_rate,
    replay_core,
    run_dense,
    sequence_mixture_oracle,
)
from .rng import make_generator


@dataclass
class CheckResult:
    name: str
    passed: bool
    deviation: float | None = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        dev = "" if self.deviation is None else f" max_dev={self.deviation:.3e}"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}{dev}{detail}"


def _random_instance(rng, n_arms, horizon, scale=1.0, offset=0.0):
    losses = offset + scale * rng.random((horizon, n_arms))
    arms = rng.integers(0, n_arms, size=horizon)
    return losses, arms


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

def check_dense_vs_core(n_arms=8, horizon=1000, alpha=0.1, gamma=1.5,
                        seed=7, tol=1e-9, name="oracle-dense-vs-core") -> CheckResult:
    rng = make_generator(seed)
    losses, arms = _random_instance(rng, n_arms, horizon, scale=3.0, offset=-1.0)
    model = fixed_share_model(n_arms, alpha)
    core = replay_core(model, gamma, losses, arms=arms)
    dense = run_dense(model, gamma, losses, arms)
    gap = float(np.abs(core["p"] - dense["p"]).max())
    return CheckResult(name, gap <= tol, gap,
                       f"M={n_arms} T={horizon} sup-norm p gap, tol={tol:g}")


def check_sequence_mixture(instances=100, seed=11, tol=1e-12) -> CheckResult:
    """Constant-rate sharing step of the core vs explicit enumeration over all arm sequences."""
    rng = make_generator(seed)
    model = fixed_share_model(2, 0.25)
    worst = 0.0
    for _ in range(instances):
        losses, arms = _random_instance(rng, 2, 8, scale=2.0, offset=-0.5)
        rate = float(rng.uniform(0.05, 2.0))
        core = replay_constant_rate(model, losses, arms, rate)
        oracle = sequence_mixture_oracle(model, losses, arms, rate)
        worst = max(worst, float(np.abs(core - oracle).max()))
    return CheckResult("oracle-sequence-mixture", worst <= tol, worst,
                       f"{instances} instances M=2 T=8 const-rate, tol={tol:g}")


def check_dp_oracle(instances=50, seed=13) -> CheckResult:
    """Switch-budget DP vs exhaustive enumeration; exact path and loss."""
    rng = make_generator(seed)
    mismatches = 0
    for _ in range(instances):
        stream = environments.scripted(rng.random((6, 3)))
        k = int(rng.integers(0, 3))
        dp_path, dp_loss = best_switching_sequence(stream, k)
        bf_path, bf_loss = enumerate_best_sequence(stream, k)
        if not (np.array_equal(dp_path, bf_path) and dp_loss == bf_loss):
            mismatches += 1
    return CheckResult("oracle-dp-enumeration", mismatches == 0, float(mismatches),
                       f"{instances} instances M=3 T=6 k<=2, exact match")


def check_conservation(total_rounds=1000, seed=17, core_tol=1e-9,
                       dense_tol=1e-12) -> list[CheckResult]:
    """Mass into the sharing step vs mass out, fuzzed over (M, alpha, losses)."""
    rng = make_generator(seed)
    worst_core = 0.0
    worst_dense = 0.0
    rounds_done = 0
    while rounds_done < total_rounds:
        n_arms = int(rng.integers(2, 9))
        alpha = float(rng.uniform(0.02, 0.98))
        horizon = int(min(rng.integers(10, 40), total_rounds - rounds_done))
        scale = float(np.exp(rng.uniform(-2, 4)))
        offset = float(rng.uniform(-5, 5))
        losses, arms = _random_instance(rng, n_arms, horizon, scale=scale, offset=offset)
        model = fixed_share_model(n_arms, alpha)
        gamma = float(rng.uniform(0.3, 4.0))
        core = replay_core(model, gamma, losses, arms=arms)
        dense = run_dense(model, gamma, losses, arms)
        log_in, log_out = core["conservation"][:, 0], core["conservation"][:, 1]
        worst_core = max(worst_core, float(np.abs(np.expm1(log_out - log_in)).max()))
        lin_in, lin_out = dense["conservation"][:, 0], dense["conservation"][:, 1]
        worst_dense = max(worst_dense, float(np.abs(lin_out / lin_in - 1.0).max()))
        rounds_done += horizon
    return [
        CheckResult("conservation-core", worst_core <= core_tol, worst_core,
                    f"{rounds_done} fuzzed rounds, tol={core_tol:g}"),
        CheckResult("conservation-dense", worst_dense <= dense_tol, worst_dense,
                    f"{rounds_done} fuzzed rounds, tol={dense_tol:g}"),
    ]


def oracle_suite() -> list[CheckResult]:
    results = [
        check_dense_vs_core(),
        check_dense_vs_core(n_arms=2, horizon=3, alpha=0.25, gamma=1.0,
                            seed=3, tol=1e-12, name="oracle-dense-vs-core-small"),
        check_sequence_mixture(),
        check_dp_oracle(),
    ]
    results.extend(check_conservation())
    return results


# ---------------------------------------------------------------------------
# invariance suite
# ---------------------------------------------------------------------------

def two_segment_stream(n_arms=4, horizon=10_000) -> environments.LossStream:
    """The canonical 2-segment experiment's loss stream (:func:`two_segment_config`)."""
    return build_stream(two_segment_config(M=n_arms, T=horizon))


def _relative_gap(actual, expected) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float((np.abs(actual - expected) / np.maximum(np.abs(expected), 1e-300)).max())


def check_affine_invariance(horizon=10_000, seed=29, tol=1e-9) -> list[CheckResult]:
    """Selections must not change under loss maps a*l+b; value-level state
    must scale accordingly, round by round."""
    stream = two_segment_stream(horizon=horizon)
    model = fixed_share_model(4, 1.0 / horizon)
    gamma = math.sqrt(2 * math.log(4))
    transforms = [(2.0 ** 10, 0.0), (2.0, 5.0)]
    base = replay_core(model, gamma, stream.matrix, seed=seed)

    arms_equal = True
    worst_q = 0.0
    worst_scale = 0.0
    min_b, second_b, spread_b, rate_b = base["stats"].T
    for a, b in transforms:
        mapped = environments.affine(stream, a, b)
        run = replay_core(model, gamma, mapped.matrix, seed=seed)
        arms_equal = arms_equal and np.array_equal(run["arms"], base["arms"])
        worst_q = max(worst_q, float(np.abs(run["q"] - base["q"]).max()))
        min_r, second_r, spread_r, rate_r = run["stats"].T
        live = ~np.isnan(rate_b)
        if not np.array_equal(live, ~np.isnan(rate_r)):
            worst_scale = math.inf  # degenerate-rate rounds must coincide
        worst_scale = max(
            worst_scale,
            _relative_gap(min_r, a * min_b + b),
            _relative_gap(second_r[live], a * a * second_b[live]),
            _relative_gap(spread_r[live], a * spread_b[live]),
            _relative_gap(rate_r[live], rate_b[live] / a),
        )
    return [
        CheckResult("invariance-selections", arms_equal, None,
                    f"T={horizon}, maps x1024 and 2x+5: identical arm sequences"),
        CheckResult("invariance-q", worst_q <= tol, worst_q,
                    f"per-round selection probabilities, tol={tol:g}"),
        CheckResult("invariance-scalings", worst_scale <= tol, worst_scale,
                    f"min-loss/second-moment/spread/rate scalings, tol={tol:g}"),
    ]


def check_hidden_loss_discipline(seed=31) -> CheckResult:
    """Altering unselected-arm losses must not change the trajectory at all."""
    rng = make_generator(seed)
    losses = rng.random((300, 4)) * 2.0
    model = fixed_share_model(4, 0.01)
    first = replay_core(model, 1.0, losses, seed=5)
    altered = losses.copy()
    for t in range(300):
        chosen = first["arms"][t]
        for m in range(4):
            if m != chosen:
                altered[t, m] += float(rng.uniform(-10, 10))
    second = replay_core(model, 1.0, altered, seed=5)
    same = (
        np.array_equal(first["arms"], second["arms"])
        and np.array_equal(first["q"], second["q"])
        and np.array_equal(first["p"], second["p"])
    )
    return CheckResult("invariance-hidden-loss", same, None,
                       "trajectory depends only on selected arms' losses")


def invariance_suite() -> list[CheckResult]:
    results = check_affine_invariance()
    results.append(check_hidden_loss_discipline())
    return results


# ---------------------------------------------------------------------------
# bound suite (Monte Carlo)
# ---------------------------------------------------------------------------

def two_segment_config(**overrides) -> ExperimentConfig:
    """The two-segment bound experiment with `overrides` applied; an unknown key raises TypeError.

    The best arm moves from 0 to 1 at round T // 2; it has mean 0.25 and
    every other arm 0.75, with noise of width 0.2. Unless `segments` is
    given, it is derived from the final M and T.
    """
    cfg = replace(ExperimentConfig(
        M=4, T=10_000, runs=200, seed=2024, gamma="auto",
        model="fixed", env="piecewise", env_seed=11, noise_width=0.2,
        competition="fixed", output=None,
    ), **overrides)
    if cfg.segments is None:
        half, rest = cfg.T // 2, "|0.75" * (cfg.M - 2)
        cfg = replace(cfg, segments=f"{half}@0.25|0.75{rest};{cfg.T - half}@0.75|0.25{rest}")
    return cfg


def check_bound(cfg: ExperimentConfig, name: str) -> tuple[CheckResult, RegretReport]:
    report = run_experiment(cfg)
    upper = report.mean_final + 2.0 * report.stderr_final
    margin = upper / report.bound if report.bound > 0 else math.inf
    result = CheckResult(
        name, report.bound_satisfied, margin,
        f"mean+2se={upper:.1f} vs bound={report.bound:.1f} "
        f"(W={report.path_complexity:.3f}, D={report.range_width:.3f})",
    )
    return result, report


def switching_config_at_horizon(horizon: int, runs=200) -> ExperimentConfig:
    """Experiment (b) re-instantiated at a horizon: the switch stays at the
    midpoint and the switching rate stays coupled to the horizon (1/T)."""
    return two_segment_config(T=horizon, runs=runs, model=f"switching:{1.0 / horizon}",
                              competition="switching:1")


def check_sublinearity(report_10k: RegretReport, ratio=0.6) -> CheckResult:
    """Regret per round must shrink as the experiment grows 10x.

    The horizon-10^3 instance is the same experiment family (midpoint
    switch, rate 1/T, gamma auto), not a prefix of the 10^4 run.
    """
    report_1k = run_experiment(switching_config_at_horizon(1000))
    rate_1k = report_1k.mean_final / 1000.0
    rate_10k = report_10k.mean_final / 10_000.0
    observed = rate_10k / rate_1k if rate_1k > 0 else math.inf
    return CheckResult(
        "bound-sublinearity", observed <= ratio, observed,
        f"rate(1e4)/rate(1e3)={observed:.3f}, need <= {ratio}",
    )


def check_tracking(runs=100, need=90) -> CheckResult:
    cfg = two_segment_config(model="switching:0.0001",
                             competition="switching:1", runs=runs, seed=555)
    report = run_experiment(cfg)
    wins = int((report.record.final_probs[:, 1] > 0.5).sum())
    return CheckResult(
        "bound-tracking", wins >= need, float(wins),
        f"{wins}/{runs} runs end with p(post-switch best) > 0.5, need {need}",
    )


def check_exp3_range_control() -> CheckResult:
    stream = two_segment_stream(horizon=100)
    big = environments.affine(stream, 100.0, 0.0)
    try:
        reference.run_exp3(big, [1])
    except ValueError:
        rejected = True
    else:
        rejected = False
    return CheckResult("bound-exp3-range-control", rejected, None,
                       "x100 losses outside the declared [0,1] range are rejected")


def bound_suite() -> list[CheckResult]:
    fixed_cfg = two_segment_config()
    switch_cfg = two_segment_config(model="switching:0.0001",
                                    competition="switching:1")
    result_a, _ = check_bound(fixed_cfg, "bound-fixed-competition")
    result_b, report_b = check_bound(switch_cfg, "bound-switching-competition")
    return [
        result_a,
        result_b,
        check_sublinearity(report_b),
        check_tracking(),
        check_exp3_range_control(),
    ]


SUITES = {
    "oracle": oracle_suite,
    "invariance": invariance_suite,
    "bound": bound_suite,
}


def run_suites(which: str = "all") -> list[CheckResult]:
    if which == "all":
        names = ["oracle", "invariance", "bound"]
    elif which in SUITES:
        names = [which]
    else:
        raise ValueError(f"unknown suite {which!r}")
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name]())
    return results
