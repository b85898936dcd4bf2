"""contraction-lab benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload catalog-line --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``.  A run sets up several times and
reports the median set-up time, then runs whole rounds of ops until
``--seconds`` have passed, checking every op's exit code and output.  A
calibration burst of fixed work follows each set-up and each timed op; the
timings are scaled by how fast the bursts ran against their reference time,
so that the metrics follow the program rather than the machine's speed at
the moment (the plain wall-clock figures are printed as well).  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs a
fixed number of rounds under the span tracer of ``tracing.py`` and prints the
per-layer metrics.  The last line of standard output is the result object;
the lines before it list every metric with its unit.  Run records, spans and
per-layer counters are written under ``.bench/`` in the repository root.

``--record-reference ROUNDS`` runs the default seed for that many rounds and
rewrites ``reference/<workload>.json`` from the outputs, which later runs
compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Seconds one calibration burst took on the reference machine (see README).
CALIBRATION_REF_S = 0.15
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import contraction_lab.cli"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("catalog-line", "table-load", "trial-stream"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", type=int, metavar="ROUNDS")
    return p.parse_args(argv)


def environment():
    import numpy

    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy.__version__, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def code_hash():
    """Hash of the program and benchmark sources, to key repeatable counters."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def calibration_burst():
    """Time a fixed mix of the kinds of work the program does, to gauge how
    fast this machine runs at the moment: Python loops over Fractions, ints
    and dicts, and numpy passes over arrays of a few thousand floats.  It
    calls no program code, so a change to the program cannot move it."""
    import numpy as np

    rng = random.Random(20261017)
    start = perf_counter()
    acc = Fraction(0)
    for _ in range(12):
        xs = [Fraction(rng.randint(1, 960), rng.randint(1, 960)) for _ in range(400)]
        acc += max((abs(a - b) / (a + b), i) for i, (a, b) in enumerate(zip(xs, xs[1:])))[0]
        table = {}
        for i in range(3000):
            table.setdefault(rng.randrange(1 << 20) % 97, []).append(i)
        acc += sum(len(v) for v in sorted(table.values(), key=len))
        t = np.array([float(x) for x in xs] * 8)
        for i in range(0, 1200, 8):
            ratio = np.abs(t[i + 1:] - t[i]) / np.arange(1, len(t) - i, dtype=np.float64)
            np.searchsorted(np.maximum.accumulate(ratio), ratio[:16], side="right")
    if acc <= 0:
        raise RuntimeError("calibration burst computed a wrong sum")
    return perf_counter() - start


class Runner:
    """Executes ops in order, checks their outputs and adds them to a tally."""

    def __init__(self, cli, theorem_lab, workloads, out_dir, reference, record=False):
        self.cli = cli
        self.theorem_lab = theorem_lab
        self.workloads = workloads
        self.out_dir = out_dir
        self.reference = reference
        self.seen = set()
        self.problems = []
        self.outputs = {} if record else None    # key -> semantic output

    def run(self, ops, tally, tracer=None, calibrate=False):
        """Run ops in order; with `calibrate`, time a calibration burst after each."""
        for op in ops:
            if op.key in self.seen:
                raise RuntimeError(f"op input repeats within the run: {op.key}")
            self.seen.add(op.key)
            if tracer is not None:
                tracer.op_id = len(self.seen) - 1
            problems, seconds = self._run_one(op)
            tally["ops"] += op.count
            tally["seconds"] += seconds
            tally["durations"].append([op.key, seconds])
            if problems:
                tally["failed"] += op.count
                self.problems.extend(f"{op.key}: {p}" for p in problems)
            if calibrate:
                tally["calibration"].append(calibration_burst())

    def _run_one(self, op):
        wl = self.workloads
        written = []
        try:
            if op.argv is not None:
                seconds, rc, doc, written = self._cli(op.argv)
            else:
                seconds, rc, doc = self._validation(op)
            problems = wl.check(op, rc, doc)
            if not problems:
                out = wl.semantic(op.expect["command"], doc)
                if self.outputs is not None:
                    self.outputs[op.key] = out
                ref = self.reference.get(op.key)
                if ref is not None and not wl.matches(ref, out):
                    problems.append("output differs from the reference")
        except Exception:     # a failing op is counted, and the run goes on
            seconds = 0.0
            problems = ["raised " + traceback.format_exc(limit=4).strip().replace("\n", " | ")]
        for path in written:
            path.unlink(missing_ok=True)
        return problems, seconds

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(argv + ["--out", str(self.out_dir)])
            except SystemExit as exc:     # argparse rejected the arguments
                rc = exc.code
            seconds = perf_counter() - start
        written = [Path(line.split(": ", 1)[1]) for line in out.getvalue().splitlines()
                   if line.startswith(("wrote: ", "report: "))]
        reports = [p for p in written if p.suffix == ".json"]
        if len(reports) != 1:
            raise RuntimeError(f"exit {rc}, no single JSON report; stderr: "
                               f"{err.getvalue().strip()!r}")
        doc = json.loads(reports[0].read_text(encoding="utf-8"))
        return seconds, rc, doc, written

    def _validation(self, op):
        config = self.theorem_lab.SearchConfig(seed=op.trial_seed, trials=op.count)
        start = perf_counter()
        doc = self.theorem_lab.run_validation(config)
        seconds = perf_counter() - start
        return seconds, 0, json.loads(json.dumps(doc))


def new_tally():
    return {"ops": 0, "failed": 0, "seconds": 0.0, "durations": [], "calibration": []}


def rate(tally):
    return tally["ops"] / tally["seconds"] if tally["seconds"] > 0 else 0.0


def speed_factor(tally):
    """How much slower than the reference machine the calibration bursts ran."""
    return statistics.fmean(tally["calibration"]) / CALIBRATION_REF_S


def set_up(workload_cls, seed, run_dir):
    """SETUP_REPEATS set-ups: a fresh interpreter importing the program, plus
    generating and writing the workload's first inputs.  Each is followed by
    a calibration burst."""
    times, calibration = [], []
    for i in range(SETUP_REPEATS):
        work_dir = run_dir / f"setup{i}"
        start = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROGRAM, str(SRC)], check=True)
        workload = workload_cls(seed, work_dir)
        workload.setup()
        times.append(perf_counter() - start)
        calibration.append(calibration_burst())
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(work_dir, ignore_errors=True)
    return workload, times, calibration


def timed_pass(workload, runner, seconds):
    """First ops, then whole rounds until `seconds` of wall time have passed."""
    tally = new_tally()
    start = perf_counter()
    runner.run(workload.first_ops(), tally, calibrate=True)
    r = 0
    while r == 0 or perf_counter() - start < seconds:
        runner.run(workload.round(r), tally, calibrate=True)
        r += 1
    tally["rounds"] = r
    return tally


def traced_passes(workload, runner, seconds, tracing):
    """A traced pass over fixed rounds, then an untraced pass of as many rounds.

    The round count depends only on --seconds, so counters repeat exactly
    for a seed; the untraced pass gives the rate that the traced rate is
    compared with.
    """
    rounds = max(1, int(seconds / (2 * workload.round_seconds)))
    tallies = {"first": new_tally(), "traced": new_tally(), "untraced": new_tally()}
    tracer = tracing.Tracer()
    with tracer:
        runner.run(workload.first_ops(), tallies["first"], tracer)
        for r in range(rounds):
            runner.run(workload.round(r), tallies["traced"], tracer)
    for r in range(rounds, 2 * rounds):
        runner.run(workload.round(r), tallies["untraced"])
    return tracer, tallies


def layer_metrics(workload, tracer, tallies, tracing, seed, seconds):
    traced, untraced = tallies["traced"], tallies["untraced"]
    totals = tracer.summary()
    metrics = {}
    for name, unit in tracing.metric_names():
        span, field = name.rsplit(".", 1)
        metrics[name] = {"value": totals[span][field], "unit": unit}
    metrics["trace.traced_ops_per_s"] = {"value": rate(traced), "unit": "1/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": rate(untraced), "unit": "1/s"}

    problems = [f"expected span {s} never fired" for s in workload.expected_spans
                if totals[s]["calls"] == 0]
    counters = {span: {k: v for k, v in entry.items() if k not in ("self_s", "failed")}
                for span, entry in totals.items()}
    path = STATE / "counters" / f"{workload.name}-seed{seed}-seconds{seconds:g}-{code_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        problems += [f"counters of {s} differ from an earlier run with this seed: "
                     f"{earlier.get(s)} != {c}" for s, c in counters.items() if earlier.get(s) != c]
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, sort_keys=True), encoding="utf-8")
    return metrics, problems


def main(argv=None):
    args = parse_args(argv)
    if args.record_reference is not None and args.seed != DEFAULT_SEED:
        print(f"error: references are recorded for seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:      # before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "contraction_lab" / "__init__.py").is_file():
        print(f"error: contraction_lab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads
    from contraction_lab import cli, theorem_lab

    workload_cls = workloads.WORKLOADS[args.workload]
    ref_path = BENCH / "reference" / f"{args.workload}.json"
    reference = {}
    if ref_path.exists() and args.record_reference is None:
        reference = json.loads(ref_path.read_text(encoding="utf-8"))

    run_dir = STATE / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workload, setup_times, setup_calibration = set_up(workload_cls, args.seed, run_dir)
        runner = Runner(cli, theorem_lab, workloads, run_dir / "out", reference,
                        record=args.record_reference is not None)
        if args.record_reference is not None:
            return record_reference(workload, runner, args, ref_path)
        wall = {"setup_s": statistics.median(setup_times)}
        if args.trace:
            tracer, tallies = traced_passes(workload, runner, args.seconds, tracing)
            metrics, run_problems = layer_metrics(workload, tracer, tallies, tracing,
                                                  args.seed, args.seconds)
            (STATE / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            tally = timed_pass(workload, runner, args.seconds)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_s = statistics.median(t * CALIBRATION_REF_S / c
                                        for t, c in zip(setup_times, setup_calibration))
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": rate(tally) * speed_factor(tally), "unit": "1/s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
                "ok_ratio": {"value": 1 - tally["failed"] / tally["ops"], "unit": "ratio"},
            }
            wall = {"setup_s": statistics.median(setup_times), "ops_per_s": rate(tally),
                    "speed_factor": speed_factor(tally)}
            run_problems = []
            tallies = {"timed": tally}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(t["ops"] for t in tallies.values())
    failed = sum(t["failed"] for t in tallies.values())
    problems = runner.problems + run_problems
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, "wall_clock": wall,
              "problems": problems, "tallies": tallies}
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    for p in problems:
        print(f"problem: {p}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    for name, value in wall.items():
        print(f"wall clock, not calibrated: {name} = {value}")
    print(f"failed_ratio = {failed / attempted} ({failed} of {attempted} ops)")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record_reference(workload, runner, args, path):
    tally = new_tally()
    runner.run(workload.first_ops(), tally)
    for r in range(args.record_reference):
        runner.run(workload.round(r), tally)
    if runner.problems:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(runner.outputs, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(runner.outputs)} reference outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
