"""Locate the checkout the benchmark runs in, and describe where it ran.

The benchmark always measures the sources of the checkout it sits in:
``require_checkout`` puts ``<root>/src`` first on ``sys.path`` and refuses to
run when that tree is missing, so an installed copy of the package can never
be measured by mistake.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "scalefree_bandit"
TRACKING_CFG = ROOT / "scripts" / "configs" / "tracking.cfg"
OUT = ROOT / ".perfbench_out"

# Every workload runs in one single-threaded process; set before numpy loads.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def require_checkout() -> None:
    """Exit nonzero unless this is a scalefree-bandit checkout; else import from it."""
    os.environ.update(SINGLE_THREAD_ENV)
    missing = [p for p in (PACKAGE / "__init__.py", TRACKING_CFG) if not p.is_file()]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        sys.exit(f"perfbench: {ROOT} is not a scalefree-bandit checkout (missing {names})")
    sys.path.insert(0, str(SRC))


def run_seconds_default() -> int:
    """The measuring time fixed in BENCHMARK.json, or 20 s without it."""
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20


def provenance(seed: int | None) -> dict:
    """Machine, toolchain and source identity printed with every result."""
    import numpy as np

    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown (git failed)"
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }
