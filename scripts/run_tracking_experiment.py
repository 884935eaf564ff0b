"""Tracking experiment: two-segment environment, switching competition.

Plays the adaptive learner against a piecewise-stationary stream whose
best arm swaps at the midpoint, measures regret against the best
one-switch sequence, and prints the mean regret curve at checkpoints
together with the theoretical envelope.

Usage: python scripts/run_tracking_experiment.py [runs] [horizon]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from scalefree_bandit.harness import run_experiment
from scalefree_bandit.verify import switching_config_at_horizon


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    horizon = int(sys.argv[2]) if len(sys.argv) > 2 else 10_000
    half = horizon // 2
    cfg = switching_config_at_horizon(horizon, runs)
    cfg.output = "tracking"
    report = run_experiment(cfg)
    print(f"runs={runs} T={horizon} gamma={report.gamma:.4f} "
          f"W={report.path_complexity:.3f} D={report.range_width:.3f}")
    print(f"oracle: one switch, loss={report.comp_loss:.1f}")
    print(f"{'t':>8} {'mean_regret':>12} {'stderr':>8} {'bound':>10}")
    for t in sorted(c for c in {100, 1000, half, half + 1000, horizon} if c <= horizon):
        i = t - 1
        print(f"{t:>8} {report.mean_regret[i]:>12.2f} "
              f"{report.stderr_regret[i]:>8.2f} {report.bound_curve[i]:>10.1f}")
    tracked = (report.record.final_probs[:, 1] > 0.5).mean()
    print(f"runs ending with p(post-switch best) > 1/2: {tracked:.0%}")
    print(f"bound satisfied: {report.bound_satisfied}")
    print("wrote tracking_runs.csv and tracking_summary.csv")


if __name__ == "__main__":
    main()
