"""Command-line interface: run experiments, verify, query the hindsight oracle."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import environments, harness, reference, verify
from .competitions import switch_count


def _cmd_run(args) -> int:
    cfg = harness.parse_config(args.config)
    cfg = harness.apply_overrides(cfg, args.override)
    report = harness.run_experiment(cfg)
    k = switch_count(report.comp_path)
    print(f"model={cfg.model} gamma={report.gamma:.6g} runs={cfg.runs} T={cfg.T} M={cfg.M}")
    print(f"competition={cfg.competition} oracle_loss={report.comp_loss:.6g} "
          f"switches={k} W={report.path_complexity:.6g} D={report.range_width:.6g}")
    print(f"mean_regret={report.mean_final:.6g} stderr={report.stderr_final:.6g}")
    if np.isinf(report.path_complexity):  # the model cannot play the path, at any gamma
        status = "vacuous"
    else:  # the bound is proved at gamma = sqrt(W) of the path that was played
        status = "satisfied" if report.bound_satisfied else "VIOLATED"
        status += "" if report.gamma == math.sqrt(report.path_complexity) else ", tuned-gamma form"
    print(f"bound={report.bound:.6g} ({status}: mean+2se="
          f"{report.mean_final + 2 * report.stderr_final:.6g})")
    if cfg.output is not None:
        print(f"wrote {cfg.output}_runs.csv and {cfg.output}_summary.csv")
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suites(args.suite)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _run_length_encode(path: np.ndarray) -> str:
    parts = []
    start = 0
    for t in range(1, len(path) + 1):
        if t == len(path) or path[t] != path[start]:
            parts.append(f"{int(path[start]) + 1}@{start}-{t - 1}")
            start = t
    return ";".join(parts)


def _cmd_oracle(args) -> int:
    stream = environments.load_csv(args.stream)
    path, loss = reference.best_switching_sequence(stream, args.switches)
    print(f"loss={loss!r}")
    print(f"switches_used={switch_count(path)} (allowed {args.switches})")
    print(f"path={_run_length_encode(path)}  # arm@first_t-last_t, 1-based arms")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scalefree-bandit",
        description="Scale- and translation-invariant adversarial bandit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte Carlo regret experiment")
    run_p.add_argument("--config", required=True, help="key=value config file")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the self-check suites")
    verify_p.add_argument("--suite", choices=["all", "oracle", "invariance", "bound"],
                          default="all")
    verify_p.set_defaults(func=_cmd_verify)

    oracle_p = sub.add_parser("oracle", help="best switching sequence for a stream")
    oracle_p.add_argument("--stream", required=True, help="CSV stream (t,arm,loss)")
    oracle_p.add_argument("--switches", type=int, required=True)
    oracle_p.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    try:
        # out-of-range numerics raise NumericalDegeneracyError; skip numpy's warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
