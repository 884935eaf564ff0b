"""Demonstrate affine invariance against the Exp3 baseline.

The adaptive learner selects the same arms whether it sees losses l,
1024*l, or 2*l+5; Exp3 refuses the rescaled stream outright unless its
declared range is adjusted, and changing the range changes its behavior.

Usage: python scripts/show_scale_invariance.py
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from scalefree_bandit.competitions import default_gamma, fixed_share_model
from scalefree_bandit.environments import affine
from scalefree_bandit.reference import replay_core, run_exp3
from scalefree_bandit.verify import two_segment_stream


def main() -> None:
    horizon = 5000
    stream = two_segment_stream(horizon=horizon)
    model = fixed_share_model(4, 1.0 / horizon)
    gamma = default_gamma(model, horizon, 1)

    base = replay_core(model, gamma, stream.matrix, seed=17)
    for a, b in ((2.0 ** 10, 0.0), (2.0, 5.0)):
        mapped = affine(stream, a, b)
        run = replay_core(model, gamma, mapped.matrix, seed=17)
        same = np.array_equal(run["arms"], base["arms"])
        print(f"losses -> {a:g}*l + {b:g}: identical selections = {same}")

    print("\nExp3 with declared range [0, 1]:")
    out = run_exp3(stream, [17])
    print(f"  raw stream: final p = {np.round(out['final_probs'][0], 3)}")
    try:
        run_exp3(affine(stream, 100.0, 0.0), [17])
    except ValueError as exc:
        print(f"  100x stream: rejected ({exc})")


if __name__ == "__main__":
    main()
