"""scalefree-bandit benchmark: four workloads, end-to-end metrics, per-layer spans.

    python3 perfbench/run.py                      # every workload, each in its own process
    python3 perfbench/run.py --workload tracking-sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload online-wide --trace 1   # per-layer spans
    python3 perfbench/run.py --scan               # per-layer scan over sizes; claims nothing

Run from anywhere; it measures the checkout it sits in. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import repo

repo.require_checkout()

import numpy as np  # noqa: E402
from scalefree_bandit.rng import run_generator  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5       # fresh processes timed per run for setup_s
MIN_ITERATIONS = 3      # timed iterations, even when one outlasts --seconds
MAX_TRACED = 5          # traced iterations kept in memory in a --trace 1 run
END_TO_END = [("wall_s", "s"), ("round_us_mean", "us"), ("round_us_p90", "us"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def measure_setup(name: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh process until its first iteration could start."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return ready - start


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, workload, outcome):
        """Check outside any timed region; count and print a failed iteration."""
        failures = workload.check(outcome)
        self.attempted += 1
        if failures:
            self.failed += 1
            print(f"  CHECK FAILED (iteration {self.attempted}): " + "; ".join(failures))


def timed(workload, tracer=None, iteration=None):
    start = perf_counter()
    if tracer is None:
        outcome = workload.iterate()
    else:
        outcome = tracer.run(iteration, workload.iterate)
    return perf_counter() - start, outcome


def show(name, value, unit, n, extra=""):
    print(f"  {name:<44} {value:>14.6g} {unit:<8} n={n}{extra}")


def run_untraced(workload, args, counter):
    setup = [measure_setup(workload.name, args.seed, workload.workdir) for _ in range(SETUP_SAMPLES)]
    workload.setup()
    counter.check(workload, timed(workload)[1])  # warm-up: caches, lazy imports, references
    walls, rounds = [], []
    start = perf_counter()
    last_cycle = 0.0
    # Once MIN_ITERATIONS are in, start no iteration (and check) that would end past --seconds.
    while len(walls) < MIN_ITERATIONS or perf_counter() - start + last_cycle <= args.seconds:
        cycle_start = perf_counter()
        wall, outcome = timed(workload)
        walls.append(wall)
        rounds.extend(outcome.round_us)
        counter.check(workload, outcome)
        last_cycle = perf_counter() - cycle_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "wall_s": (statistics.median(walls), len(walls)),
        "round_us_mean": (statistics.fmean(rounds), len(rounds)),
        "round_us_p90": (float(np.percentile(rounds, 90)), len(rounds)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss_mb, 1),
    }
    samples = ("select+update calls" if isinstance(workload, workloads.OnlineWide)
               else "engine time per lockstep round, one per iteration")
    print(f"end-to-end ({len(walls)} timed iterations after 1 warm-up; round_us samples: {samples})")
    for name, unit in END_TO_END:
        value, n = metrics[name]
        show(name, value, unit, n)
    # Printed, not in BENCHMARK.json: failed_frac is 0 on correct code; the per-round
    # median flips between the host's fast and slow modes (README.md, "Run-to-run spread").
    show("failed_frac", counter.failed / counter.attempted, "fraction", counter.attempted)
    show("round_us_p50", float(np.percentile(rounds, 50)), "us", len(rounds))
    return {name: {"value": metrics[name][0], "unit": unit} for name, unit in END_TO_END}


def run_traced(workload, args, counter):
    workload.setup()
    counter.check(workload, timed(workload)[1])  # warm-up
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = perf_counter()
    while not traced or (perf_counter() - start < args.seconds and len(traced) < MAX_TRACED):
        wall, outcome = timed(workload)
        plain.append(wall)
        counter.check(workload, outcome)
        wall, outcome = timed(workload, tracer, len(traced))
        traced.append(wall)
        counter.check(workload, outcome)
        seed, runs, rounds = workload.random_streams()
        t0 = perf_counter()
        for r in range(runs):
            run_generator(seed, r).random(rounds)
        tracer.note("rng.run_generator.s", perf_counter() - t0, iteration=len(traced) - 1)
    workloads.off_path_probe(args.seed, workload.workdir, tracer)

    ids = list(range(len(traced)))
    wall = statistics.mean(traced)
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"trace ({len(traced)} traced and {len(plain)} untraced iterations after 1 warm-up)")
    print(f"  tracing overhead: traced wall_s {statistics.median(traced):.4f} - untraced "
          f"{statistics.median(plain):.4f} = {overhead:+.4f} s")
    table = tracer.self_time_table(ids)
    print("  self time per span (mean per traced iteration; 'iteration' is the bench's own loop):")
    for name, seconds in table:
        print(f"    {name:<40} {seconds:>10.4f} s {seconds / wall:>7.1%}")
    layers = {}
    for name, seconds in table:
        layer = "bench" if name == tracing.ROOT_SPAN else name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    print("  self time per layer: " + ", ".join(
        f"{layer} {seconds:.4f} s ({seconds / wall:.1%})"
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])))
    top = next(row for row in table if row[0] != tracing.ROOT_SPAN)
    names, prediction = workload.predicted
    share = sum(s for n, s in table if n in names) / wall
    verdict = "as predicted" if top[0] in names else "NOT as predicted"
    print(f"  most self time: {top[0]} ({top[1] / wall:.1%}); predicted {'+'.join(names)} "
          f"with {prediction}, measured {share:.1%} -> {verdict}")

    metrics = tracer.layer_metrics(ids, "probe")
    print("  per-layer metrics (source 'probe': the workload never calls that layer; "
          "see workloads.off_path_probe):")
    for name, (value, unit, n, source) in metrics.items():
        show(name, value, unit, n, f" from {source}")
    path = repo.OUT / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(path, {"workload": workload.name, "provenance": repo.provenance(args.seed),
                        "traced_wall_s": traced, "untraced_wall_s": plain})
    print(f"  spans written to {path.relative_to(repo.ROOT)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _, _) in metrics.items()}


def declared_metrics(trace: int) -> set[str] | None:
    try:
        spec = json.loads((repo.ROOT / "BENCHMARK.json").read_text())
    except OSError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> None:
    workdir = repo.OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(repo.provenance(args.seed)))
    counter = Counter()
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        workload.prepare()
        metrics = (run_traced if args.trace else run_untraced)(workload, args, counter)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    print(json.dumps({"correct": counter.failed == 0, "attempted": counter.attempted,
                      "failed": counter.failed, "metrics": metrics}))


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time, then a summary table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        last = ""
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                print(line, end="", flush=True)
                last = line
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(last)
    print("summary")
    for name, result in results.items():
        cells = ", ".join(f"{m}={v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items())
        print(f"  {name:<18} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}  {cells}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=repo.run_seconds_default())
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scan", action="store_true",
                        help="time single layers over the sizes of the ROADMAP baseline instead")
    args = parser.parse_args(argv)
    if args.scan:
        import scan

        scan.main()
        return 0
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
