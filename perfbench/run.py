#!/usr/bin/env python3
"""hvforecast benchmark driver.

    python3 perfbench/run.py --workload desk-train --seed 23 --seconds 35 --trace 0

Runs one workload in a fresh Python process (`workload.py`) with at most
`nproc` BLAS threads, relays its report, and prints as the last line one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a traced run
with `--trace 1`. Run from the root of a checkout; hvforecast is imported
from its `src/`.

`--selfcheck` compares the harness's graph and parameter counts with the
baseline recorded at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from specs import DEFAULT_SECONDS, DEFAULT_SEED, MEMORY_HEADROOM, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def available_mb() -> int | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) // 1024
    except OSError:
        pass
    return None


def refuse(reason: str) -> int:
    """Report a run that cannot be made as an invalid result, not a crash."""
    print(f"error: {reason}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one hvforecast benchmark workload.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.selfcheck:
        parser.error("--workload is required")

    if not (ROOT / "src" / "hvforecast" / "__init__.py").is_file():
        print(f"error: no hvforecast sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    child = [sys.executable, str(HERE / "workload.py")]
    if args.selfcheck:
        child.append("--selfcheck")
    else:
        spec = WORKLOADS[args.workload]
        free = available_mb()
        need = int(spec.recorded_peak_mb * MEMORY_HEADROOM)
        if free is not None and free < need:
            return refuse(f"{spec.name} needs about {need} MB free (recorded peak "
                          f"{spec.recorded_peak_mb} MB x {MEMORY_HEADROOM}); only "
                          f"{free} MB is available, so the run is refused")
        child += ["--workload", spec.name, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]

    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    proc = subprocess.Popen(child, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1

    lines = out.splitlines()
    if args.selfcheck:
        print("\n".join(lines))
        return proc.returncode
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(f"error: workload exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
