"""Layer scan: single layers timed over the sizes of the ROADMAP baseline table.

    python3 perfbench/run.py --scan

Not a workload and claims nothing: it reproduces the baseline rows (learner
round over M, engine ns per run-round over runs, DP over k) so that a later
change can see how a layer scales. Each row is printed as it finishes; the
last line is one JSON object with every row. The runs=2000 engine row holds
about 0.7 GB of trajectories.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter, perf_counter_ns

import numpy as np
from scalefree_bandit import harness, reference
from scalefree_bandit.competitions import default_gamma, fixed_share_model, parse_model
from scalefree_bandit.core import ScaleFreeBandit

import repo

LEARNER_ARMS = (2, 16, 256, 4096)
LEARNER_ROUNDS = 2000
ENGINE_RUNS = (1, 200, 2000)
DP_SWITCHES = (1, 20)
DP_REPEATS = 3


def learner_round_us(n_arms: int, seed: int = 0) -> float:
    """Median select+update µs of a fixed-share learner (alpha = 1/T) on uniform losses."""
    losses = np.random.default_rng(seed).uniform(size=(LEARNER_ROUNDS, n_arms))
    model = fixed_share_model(n_arms, 1.0 / LEARNER_ROUNDS)
    learner = ScaleFreeBandit(model, default_gamma(model, LEARNER_ROUNDS, 1), seed=seed)
    samples = []
    for t in range(LEARNER_ROUNDS):
        start = perf_counter_ns()
        arm, _ = learner.select()
        learner.update(losses[t, arm])
        samples.append((perf_counter_ns() - start) / 1e3)
    return statistics.median(samples)


def main() -> None:
    print("provenance " + json.dumps(repo.provenance(None)))
    rows = {}

    def row(name, value, unit):
        rows[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>12.6g} {unit}", flush=True)

    for n_arms in LEARNER_ARMS:
        row(f"learner_round.M{n_arms}", learner_round_us(n_arms), "us")

    cfg = harness.parse_config(repo.TRACKING_CFG)
    stream = harness.build_stream(cfg)
    model = parse_model(cfg.model, cfg.M)
    gamma = default_gamma(model, cfg.T, 1)
    for runs in ENGINE_RUNS:
        start = perf_counter()
        harness.simulate_runs(model, gamma, stream, cfg.seed, runs)
        row(f"engine.runs{runs}", (perf_counter() - start) * 1e9 / (runs * cfg.T), "ns/run-round")

    for k in DP_SWITCHES:
        times = []
        for _ in range(DP_REPEATS):
            start = perf_counter()
            reference.best_switching_sequence(stream, k)
            times.append(perf_counter() - start)
        row(f"dp.k{k}", statistics.median(times), "s")
    print(json.dumps({"scan": rows}))
