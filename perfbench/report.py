"""Print every end-to-end metric by name with its unit, per workload.

    python3 perfbench/report.py --seed 1 --seconds 30

Runs perfbench/run.py once per workload, each in its own process; exits
non-zero if any run fails or any case fails its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args()
    ok = True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok &= result["correct"]
        print(f"{workload}: {result['failed']}/{result['attempted']} cases failed")
        for name, m in result["metrics"].items():
            print(f"  {name:14s} {m['value']:12.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
