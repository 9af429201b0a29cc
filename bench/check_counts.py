"""Determinism self-check: two traced runs on one seed must give identical counts.

    python3 bench/check_counts.py --workload verify-sweep --seed 1

Runs ``bench/run.py --trace 1`` twice and compares every per-layer metric
whose unit is ``count`` or ``fraction``.  Prints the counts of the first
run as JSON; exits with 1 if any of them differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "fraction")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    print(json.dumps(first, indent=1))
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    if differ:
        print(f"counts differ between two traced runs: {differ}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
