"""One set-up of a workload in a fresh process; prints ``ready`` when done.

``run.py`` times this process from its start until that line, which covers
interpreter start, package import, config parse and model/stream
construction: everything before a first iteration could begin.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

import repo

repo.require_checkout()

import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.WORKLOADS[name](seed, workdir).setup()
print("ready", flush=True)
