"""starborel benchmark: one seeded workload, run in process as a closed loop
with one client (a case starts only after the previous one returns).

    python3 perfbench/run.py --workload star-window --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory.  Passes over
the workload's fixed case list repeat until ``--seconds`` have passed (at
least MIN_PASSES).  Every output is checked outside the timed spans: the
first pass against the workload's oracles, later passes against the first.

--trace 0 reports the end-to-end metrics, measured untraced.
--trace 1 spends half the time untraced and half with every public function
wrapped (see spans.py), and reports the per-layer metrics; spans are written
to .bench_out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 5
MIN_TRACED_PASSES = 3
SETUP_REPEATS = 5
TAIL_BEYOND = 10
CALIBRATE_EVERY = 0.1   # seconds between calibration samples
CALIBRATION_S = 0.002   # calibrate() time at the nominal speed all times are scaled to
# Source files whose size is reported as <module>.lines; __init__ is "init".
MODULES = ("init", "errors", "series", "star", "borel", "integral", "poly",
           "locus", "verify", "suites", "cli")


class ProgramMissing(Exception):
    pass


def import_program():
    """Import starborel from this checkout's src/, never from elsewhere."""
    init = SRC / "starborel" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no starborel source at {init}")
    sys.path.insert(0, str(SRC))
    import starborel
    import starborel.cli
    import starborel.suites
    if Path(starborel.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported starborel from {starborel.__file__}, not {init}")
    return starborel


def calibrate():
    """Time one run of a fixed pure-Python integer loop that shares no code
    with the program.  Its fastest time in a run measures the host's speed
    during that run."""
    t0 = perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    return perf_counter() - t0


class Loop:
    """Runs passes over the cases and keeps the first output of each case
    for checking; counts every attempted case and every failure."""

    def __init__(self, cases):
        self.cases = cases
        self.first = [None] * len(cases)    # (raw output, plain output) of the first run
        self.same = [0] * len(cases)        # runs whose output equals the first
        self.failed = 0
        self.attempted = 0
        self.reasons = {}
        self.calibration = [calibrate()]
        self._calibrated_at = perf_counter()

    def calibrate(self):
        if perf_counter() - self._calibrated_at > CALIBRATE_EVERY:
            self.calibration.append(calibrate())
            self._calibrated_at = perf_counter()

    def speed(self):
        """Factor that scales this run's times to the nominal host speed."""
        return CALIBRATION_S / min(self.calibration)

    def measure(self, seconds, min_passes, tracer=None):
        """Whole passes until `seconds` have passed; returns the case times
        in seconds, one list per pass."""
        passes = []
        start = perf_counter()
        while len(passes) < min_passes or perf_counter() - start < seconds:
            outputs, times = [], []
            for i, case in enumerate(self.cases):
                self.calibrate()
                t0 = perf_counter()
                try:
                    if tracer is None:
                        out = case.run()
                    else:
                        out = tracer.run_case((len(passes), i), case.run)
                except Exception as exc:  # a raising case is a failed case
                    out = exc
                    traceback.print_exc(file=sys.stderr)
                times.append(perf_counter() - t0)
                outputs.append(out)
            passes.append(times)
            self._compare(outputs)
        return passes

    def _compare(self, outputs):
        for i, out in enumerate(outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self._fail(i, f"raised {type(out).__name__}: {out}")
                continue
            flat = workloads.plain(out)
            if self.first[i] is None:
                self.first[i] = (out, flat)
            if flat == self.first[i][1]:
                self.same[i] += 1
            else:
                self._fail(i, "output differs from the first pass")

    def _fail(self, i, reason):
        self.failed += 1
        self.reasons.setdefault(self.cases[i].name, reason)

    def check(self):
        """Judge each case's first output against its oracle; runs that
        repeated a wrong output fail with it."""
        for i, case in enumerate(self.cases):
            if self.first[i] is None:
                continue
            try:
                bad = case.check(self.first[i][0])
            except Exception as exc:  # a check that cannot run fails the case
                bad = f"check raised {type(exc).__name__}: {exc}"
            if bad:
                self.failed += self.same[i]
                self.reasons.setdefault(case.name, bad)


def percentile(values, level):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(level / 100 * len(ordered)), 1) - 1]


def tail_level(ncases):
    """The highest whole percentile with at least TAIL_BEYOND cases beyond it."""
    return math.floor(100 * (1 - TAIL_BEYOND / ncases))


def fastest(passes):
    """Each case's fastest time over the passes."""
    return [min(times) for times in zip(*passes)]


def setup_probe(workload, seed):
    """Set-up as a user pays it, in a fresh interpreter: import the package,
    generate the inputs, run the warm-up case."""
    t0 = perf_counter()
    sb = import_program()
    cases = workloads.WORKLOADS[workload](sb, seed)
    cases[0].run()
    print(perf_counter() - t0)


def setup_seconds(loop, workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        loop.calibrate()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--setup-probe"],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def source_lines():
    """Non-blank lines that are not comment-only, per file of src/starborel/;
    a file that no longer exists counts 0."""
    out = {}
    for name in MODULES:
        path = SRC / "starborel" / ("__init__.py" if name == "init" else f"{name}.py")
        lines = path.read_text().splitlines() if path.is_file() else []
        out[name] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return out


def end_to_end(loop, passes, setup_s):
    speed = loop.speed()
    best = [t * speed for t in fastest(passes)]
    level = tail_level(len(best))
    n = f"n={len(best)} cases, fastest of {len(passes)} passes each"
    return [
        ("run_s", sum(best), "s",
         f"one pass; median pass as timed {statistics.median(map(sum, passes)):.6g} s"),
        ("case_ms.p50", 1000 * statistics.median(best), "ms", n),
        ("case_ms.tail", 1000 * percentile(best, level), "ms", f"p{level}, {n}"),
        ("setup_s", setup_s * speed, "s", f"median of {SETUP_REPEATS} fresh processes"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
         "before any check runs"),
    ]


def per_layer(loop, untraced, traced, tracer):
    speed = loop.speed()
    overhead = (sum(fastest(traced)) - sum(fastest(untraced))) * speed
    report = [(name, value * speed if unit == "s" else value, unit, "")
              for name, (value, unit) in tracer.layer_metrics(len(traced)).items()]
    report.append(("trace.overhead_s", overhead, "s",
                   f"traced minus untraced run_s, {len(traced)} and {len(untraced)} passes"))
    report += [(f"{name}.lines", n, "lines", "non-blank, non-comment")
               for name, n in source_lines().items()]
    _, rep, conj, pairs = tracer.rep_over_conj()
    notes = [f"integral.rep_over_conj.ratio = {rep:.6f} s / {conj:.6f} s over {pairs} "
             "evaluator/conjugation pairs in integral_reps_suite"]
    if tracer.missing:
        notes.append(f"not found in the program, reported as 0: {', '.join(tracer.missing)}")
    return report, notes


def run(sb, workload, seed, seconds, trace, cases=None):
    """Measure one workload (or the given subset of its cases) and check
    every output; returns (loop, [(metric, value, unit, note)], notes)."""
    cases = cases or workloads.WORKLOADS[workload](sb, seed)
    cases[0].run()  # warm-up
    loop = Loop(cases)
    notes = []
    if trace == 0:
        setup_s = setup_seconds(loop, workload, seed)
        report = end_to_end(loop, loop.measure(seconds, MIN_PASSES), setup_s)
    else:
        untraced = loop.measure(seconds / 2, MIN_TRACED_PASSES)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = loop.measure(seconds / 2, MIN_TRACED_PASSES, tracer)
        finally:
            tracer.uninstall()
        report, notes = per_layer(loop, untraced, traced, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.tsv")
    loop.check()
    notes.append(f"times scaled by {loop.speed():.6g} to the nominal host speed "
                 f"(calibration: fastest {min(loop.calibration):.6g} s of "
                 f"{len(loop.calibration)}, nominal {CALIBRATION_S} s)")
    return loop, report, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        sb = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    loop, report, notes = run(sb, args.workload, args.seed, args.seconds, args.trace)
    for name, value, unit, note in report:
        print(f"{name:36s} {value:>14.6g} {unit:6s} {note}")
    print(f"{'fail_ratio':36s} {loop.failed / loop.attempted:>14.6g} {'':6s} "
          f"{loop.failed}/{loop.attempted} attempted cases failed")
    for note in notes:
        print(note)
    for name, reason in loop.reasons.items():
        print(f"FAILED {name}: {reason}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in report},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
