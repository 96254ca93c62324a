"""Self-test of the benchmark; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. Smoke: each workload at tiny size (its first cases) emits exactly the
   metrics BENCHMARK.json lists, with their units, untraced and traced.
2. Fault injection: a wrapper that corrupts one output of the program makes
   cases fail on every workload, so the correctness gate can fail.
3. Seeds: one seed always generates the same inputs, another seed different.
4. Without the program next to it, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import spans
import workloads

SMOKE_CASES = 6
# workload -> function whose output the fault wrapper corrupts by adding 1
FAULTS = {
    "star-window": ("star", "moyal_star"),
    "locus-build": ("poly", "sylvester_resultant"),
    "verify-suites": ("borel", "hadamard"),
}


def smoke(sb, bench):
    want = {"0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload, build in workloads.WORKLOADS.items():
        cases = build(sb, 1)[:SMOKE_CASES]
        for trace in (0, 1):
            loop, report, _ = run.run(sb, workload, 1, 0, trace, cases)
            got = {name: unit for name, _, unit, _ in report}
            assert got == want[str(trace)], (workload, trace, set(got) ^ set(want[str(trace)]))
            assert loop.failed == 0, (workload, loop.reasons)
        print(f"smoke {workload}: {len(want['0'])} end-to-end and {len(want['1'])} "
              f"per-layer metrics, {loop.attempted} cases, none failed")


def faults(sb):
    for workload, (module, name) in FAULTS.items():
        orig = getattr(sys.modules["starborel." + module], name)
        changed = spans.rebind(orig, lambda *a, **k: orig(*a, **k) + 1)
        try:
            loop, _, _ = run.run(sb, workload, 1, 0, 0,
                                 workloads.WORKLOADS[workload](sb, 1)[:SMOKE_CASES])
        finally:
            for namespace, key in changed:
                setattr(namespace, key, orig)
        assert loop.failed > 0, workload
        print(f"fault in {module}.{name}: {loop.failed}/{loop.attempted} cases failed on {workload}")


def seeds(sb):
    for workload, build in workloads.WORKLOADS.items():
        inputs = lambda seed: [case.inp for case in build(sb, seed)]
        assert inputs(1) == inputs(1), workload
        assert inputs(1) != inputs(2), workload
    print("seeds: same seed, same inputs; another seed, other inputs")


def bare():
    """Run the benchmark in a directory that holds only BENCHMARK.json and
    perfbench/."""
    where = run.OUT / "bare"
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(run.HERE, where / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", where)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "star-window",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=where, capture_output=True, text=True, timeout=60)
    shutil.rmtree(where)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"bare directory: exit code {proc.returncode}, {proc.stderr.strip()}")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sb = run.import_program()
    smoke(sb, bench)
    faults(sb)
    seeds(sb)
    bare()
    print("selftest OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
