"""Write every gated output of the program into one directory, for a byte-identity check.

Usage (from the repository root):

    python3 tools/gated_outputs.py OUT_DIR

The program is imported from ``src/`` of the checkout this script sits in.
Each run writes its files into ``OUT_DIR/<label>/`` and its exit code into
``OUT_DIR/exit-codes.txt``; no file holds a path or a timing.  A change keeps
its gated outputs when, with each output directory written by its own
checkout's copy of this script,

    diff -r PARENT_OUT CHANGE_OUT

prints nothing.  The runs are ``reproduce`` (its sha256 is pinned in
``tests/test_cli.py``), ``classify`` on the catalog scopes the line engine is
measured at and on two fine ones, ``burton_logistic`` at grid 1/16384 and
``composite`` at 1/8192, whose scans hold tens of thousands of range-bound
blocks, one with a small last eps where almost every item of the top
bucket lies past its row's cut, a CSV run with an ``--eps-grid``, a
``classify`` usage error between two ``classify`` runs, which must exit 1
with its usage and message (the one argument parser of the process reports
it, and the runs after it read that parser too), three ``verify`` runs,
three ``iterate`` runs (a 4096-step ``burton_logistic`` orbit at grid
1/65536 whose states are all distinct, a period-2 orbit, and a
``floor_half`` orbit that halts at its fixed point), and ``search`` for
seeds 3 and 7 under both theorems and both biases, each over 10**4 trials.
The ``instance-*`` runs read instance files that this script writes into
``OUT_DIR/instances/`` (_instance_docs):
``classify`` and ``verify --theorem corrected_main`` on exact and float twins
at n = 40, 64 and 88, on a table over 24 primes near 10**6 (an object
lattice) and on a float table of distances near 1e250 (outside the float
screen's range, so every item is a candidate and the exact folds' cross
products overflow); ``classify --mode float`` on an exact file;
``classify`` on a non-metric table with triangle violations in several row blocks of the
metric check, which must exit 1 with its message; and ``verify --theorem
corrected_main`` and ``verify --theorem burton`` on an n = 40 table whose map
sends every point to one, where strict decrease holds, so that the strict
search reads every block of pairs and triples; ``classify`` and ``verify
--theorem corrected_main`` on two n = 40 exact tables of numerators in [b, 2b)
over 96, b = 2**20 and 2**40, on which the metric check runs on int32 and on
int64 (on the other exact int64 tables it runs on int16); and ``classify`` on the
int32 table with triangle violations in three rows, which must exit 1 with
its message.  Every run works from
``OUT_DIR``, so an output records its instance by a relative path, and what
a run prints on stderr goes into ``OUT_DIR/stderr.txt``.  ``OUT_DIR/validation/`` holds the
``run_validation`` dict of seeds 0..19 under both biases, 500 trials each, as
JSON.  ``OUT_DIR/scans/`` holds the ``repr`` of both line scans of seven
inputs that no CLI run reaches: x/2 on the points 0..159 with the last image
raised by 1e-12, where every item is an exact candidate; images near 10**12,
whose distinct values share floats and whose exact ints pass 2**63; x/2
on the points 0..199 with one steep adjacent step near the end, where the
step-ratio bound of every row rises only at its last items; a sawtooth whose
teeth grow along the points 0, 1/2, .., 239/2, so that every bucket's
maximum lies in a late row, not the first one read, and a row's image lies
above some of its blocks' images and below others; x/4 on the points
0..119 with a rise at point 50 and a fall right after it, whose lex-first
strict triple (40, 50, 51) lies in a row that holds no violating pair and
no violator with a near middle point (family (c) of the strict check); and
two tie-heavy maps on the points k/300, whose spans are all below the last
eps, so no row is cut: the constant map, where every item ties at 0, and
a map of three steps of 10**-6 on 10**12, whose images share one float, so
that every item is a float-screen candidate.  The screen keeps all 44 850
pair and 44 551 triple items of each and settles them in batches past
``scan.SURVIVORS`` kept items.  Both scans of an input read one
``scan.LineBasis``, as a report's do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from contraction_lab import cli, scan, theorem_lab  # noqa: E402

SEARCH_TRIALS = 10_000
TIED_EPS = (Fraction(1, 64), Fraction(1, 8), Fraction(1, 2), Fraction(1))
VALIDATION_TRIALS = 500

RUNS = (
    ("reproduce", ["reproduce"]),
    ("classify-burton-2048", ["classify", "--catalog", "burton_logistic", "--grid-step", "1/2048"]),
    ("classify-usage-error", ["classify", "--catalog", "burton_logistic", "--grid-step", "1/0"]),
    ("classify-burton-2051", ["classify", "--catalog", "burton_logistic", "--grid-step", "1/2051"]),
    ("classify-burton-16384", ["classify", "--catalog", "burton_logistic",
                               "--grid-step", "1/16384"]),
    ("classify-floor-1024", ["classify", "--catalog", "floor_half", "--max-n", "1024"]),
    ("classify-floor-4096", ["classify", "--catalog", "floor_half", "--max-n", "4096"]),
    ("classify-floor-4097", ["classify", "--catalog", "floor_half", "--max-n", "4097"]),
    ("classify-floor-4097-small-eps", ["classify", "--catalog", "floor_half", "--max-n", "4097",
                                       "--eps-grid", "1/512,1/2,1"]),
    ("classify-composite-1024", ["classify", "--catalog", "composite", "--grid-step", "1/1024"]),
    ("classify-composite-8192", ["classify", "--catalog", "composite", "--grid-step", "1/8192"]),
    ("classify-composite-256-90", ["classify", "--catalog", "composite", "--grid-step", "1/256",
                                   "--max-n", "90"]),
    ("classify-period2", ["classify", "--catalog", "period2_counterexample"]),
    ("classify-csv", ["classify", "--catalog", "composite", "--grid-step", "1/256",
                      "--format", "csv", "--eps-grid", "1/8,1/2,1,2"]),
    ("verify-corrected-floor", ["verify", "--theorem", "corrected_main", "--catalog",
                                "floor_half", "--max-n", "256"]),
    ("verify-burton-logistic", ["verify", "--theorem", "burton", "--catalog", "burton_logistic",
                                "--grid-step", "1/256"]),
    ("verify-corrected-floor-4096", ["verify", "--theorem", "corrected_main", "--catalog",
                                     "floor_half", "--max-n", "4096"]),
    ("iterate-burton-4096", ["iterate", "--catalog", "burton_logistic", "--grid-step", "1/65536",
                             "--steps", "4096", "--x0", "1/2"]),
    ("iterate-period2", ["iterate", "--catalog", "period2_counterexample", "--x0", "0"]),
    ("iterate-floor-fixed-point", ["iterate", "--catalog", "floor_half", "--max-n", "256",
                                   "--x0", "256"]),
) + tuple(
    (f"search-{theorem}-{bias}-{seed}",
     ["search", "--theorem", theorem, "--seed", str(seed), "--trials", str(SEARCH_TRIALS),
      "--bias", bias])
    for theorem in ("mesmouli_uncorrected", "corrected_main")
    for bias in ("uniform", "period2")
    for seed in (3, 7)
)


INSTANCE_SIZES = (40, 64, 88)
INSTANCE_DEN = 96
INSTANCE_RUNS = tuple(
    (f"instance-{command}-n{n}-{mode}", argv + ["--instance", f"instances/n{n}-{mode}.json"])
    for n in INSTANCE_SIZES
    for mode in ("exact", "float")
    for command, argv in (("classify", ["classify"]),
                          ("verify", ["verify", "--theorem", "corrected_main"]))
) + tuple(
    (f"instance-{command}-{name}", argv + ["--instance", f"instances/{name}.json"])
    for name in ("wide", "huge")
    for command, argv in (("classify", ["classify"]),
                          ("verify", ["verify", "--theorem", "corrected_main"]))
) + (
    ("instance-classify-n64-exact-as-float",
     ["classify", "--instance", "instances/n64-exact.json", "--mode", "float"]),
    ("instance-classify-non-metric", ["classify", "--instance", "instances/non-metric.json"]),
    ("instance-verify-one-point", ["verify", "--theorem", "corrected_main", "--instance",
                                   "instances/one-point.json"]),
    ("instance-verify-burton-one-point", ["verify", "--theorem", "burton", "--instance",
                                          "instances/one-point.json"]),
) + tuple(
    (f"instance-{command}-{name}", argv + ["--instance", f"instances/{name}.json"])
    for name in ("int32", "int64")
    for command, argv in (("classify", ["classify"]),
                          ("verify", ["verify", "--theorem", "corrected_main"]))
) + (
    ("instance-classify-non-metric-int32",
     ["classify", "--instance", "instances/non-metric-int32.json"]),
)
EXPECTED_FAILURES = {"classify-usage-error", "instance-classify-non-metric",
                     "instance-classify-non-metric-int32"}  # these exit 1


def _closed_table(rng, n):
    """Integer distances k in 1..INSTANCE_DEN, closed under shortest paths: a metric."""
    raw = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            raw[i][j] = raw[j][i] = rng.randint(1, INSTANCE_DEN)
    for k in range(n):
        row_k = raw[k]
        for row in raw:
            via = row[k]
            for j, d in enumerate(row_k):
                if via + d < row[j]:
                    row[j] = via + d
    return raw


def _exact_rows(raw):
    """The "p/q" rows of integer distances over INSTANCE_DEN."""
    return [[str(Fraction(v, INSTANCE_DEN)) for v in row] for row in raw]


def _primes_above(q, count):
    primes = []
    while len(primes) < count:
        q += 1
        if all(q % f for f in range(2, int(q ** 0.5) + 1)):
            primes.append(q)
    return primes


def _instance_docs():
    """{file name: instance document} of the files the instance-* runs read."""
    rng = random.Random(21)
    docs = {}
    for n, kind in zip(INSTANCE_SIZES, ("uniform", "pool", "constant")):
        raw = _closed_table(rng, n)
        if kind == "uniform":
            images = [rng.randrange(n) for _ in range(n)]
        elif kind == "pool":
            pool = rng.sample(range(n), 3)
            images = [rng.choice(pool) for _ in range(n)]
        else:
            images = [rng.randrange(n)] * n
            images[rng.randrange(n)] = rng.randrange(n)
        for mode, cell in (("exact", lambda v: str(Fraction(v, INSTANCE_DEN))),
                           ("float", lambda v: v / INSTANCE_DEN)):
            docs[f"n{n}-{mode}.json"] = {
                "space": {"points": list(range(n)), "mode": mode,
                          "dist": [[cell(v) for v in row] for row in raw]},
                "map": images}
    # rows 5, 30 and 60 of 64 lie in three blocks of 16 rows of the triangle check
    raw = _closed_table(rng, 64)
    for i in (5, 30, 60):
        raw[i][(i + 9) % 64] = raw[(i + 9) % 64][i] = 3 * INSTANCE_DEN
    docs["non-metric.json"] = {
        "space": {"points": list(range(64)), "dist": _exact_rows(raw)},
        "map": [rng.randrange(64) for _ in range(64)]}
    # d(i, j) = m / p, p <= m < 2p, with p the ((i + j) mod 24)-th prime above 10**6: a
    # metric whose lcm passes 2**53
    primes = _primes_above(10 ** 6, 24)
    rows = [["0"] * 24 for _ in range(24)]
    for i in range(24):
        for j in range(i + 1, 24):
            p = primes[(i + j) % 24]
            rows[i][j] = rows[j][i] = f"{rng.randrange(p, 2 * p)}/{p}"
    pool = rng.sample(range(24), 3)
    docs["wide.json"] = {"space": {"points": list(range(24)), "dist": rows},
                         "map": [rng.choice(pool) for _ in range(24)]}
    # float distances in [1e250, 2e250), a metric far outside the screenable float range, so
    # that every item is a candidate and the exact folds' cross products overflow
    huge = [[0.0] * 24 for _ in range(24)]
    for i in range(24):
        for j in range(i + 1, 24):
            huge[i][j] = huge[j][i] = (1 + rng.randrange(1000) / 1000) * 1e250
    pool = rng.sample(range(24), 3)
    docs["huge.json"] = {"space": {"points": list(range(24)), "mode": "float", "dist": huge},
                         "map": [rng.choice(pool) for _ in range(24)]}
    # every point mapped to one: strict decrease holds, so a strict search reads every block
    raw = _closed_table(rng, 40)
    docs["one-point.json"] = {
        "space": {"points": list(range(40)), "dist": _exact_rows(raw)},
        "map": [rng.randrange(40)] * 40}
    # numerators in [b, 2b) with b = 2**20 and 2**40, a metric whose triangle check runs on
    # int32 and on int64; then the int32 one with d(i, i + 9) = 4b in rows 5, 18 and 30
    for name, base in (("int32", 2 ** 20), ("int64", 2 ** 40)):
        raw = [[0] * 40 for _ in range(40)]
        for i in range(40):
            for j in range(i + 1, 40):
                raw[i][j] = raw[j][i] = base + rng.randrange(base)
        docs[f"{name}.json"] = {
            "space": {"points": list(range(40)), "dist": _exact_rows(raw)},
            "map": [rng.randrange(40) for _ in range(40)]}
        if name == "int32":
            for i in (5, 18, 30):
                raw[i][i + 9] = raw[i + 9][i] = 4 * base
            docs["non-metric-int32.json"] = {
                "space": {"points": list(range(40)), "dist": _exact_rows(raw)},
                "map": [rng.randrange(40) for _ in range(40)]}
    return docs


def write_instances(out_dir):
    """Write the _instance_docs() files into out_dir/instances."""
    instances = Path(out_dir) / "instances"
    instances.mkdir(parents=True, exist_ok=True)
    for name, doc in _instance_docs().items():
        (instances / name).write_text(json.dumps(doc), encoding="utf-8")


def _scan_inputs():
    """(label, numerators, den, images, eps) of the line scans written as reprs."""
    half = [Fraction(k, 2) for k in range(160)]
    half[-1] += Fraction(1, 10 ** 12)
    rng = random.Random(12)
    near = [10 ** 12 + Fraction(rng.randrange(1000), 10 ** 7) for _ in range(64)]
    late = [Fraction(k, 2) + (40 if k >= 190 else 0) for k in range(200)]
    saw = [Fraction((k % 12) * (1 + k // 24), 6) for k in range(240)]
    fall = [Fraction(k, 4) for k in range(120)]
    fall[50] = fall[40] + Fraction(3, 4) * 11          # a rise of 3/4 of x_51 - x_40
    fall[51] = fall[50] - 11                            # and a fall of x_51 - x_40
    steps = [10 ** 12 + Fraction(k // 100, 10 ** 6) for k in range(300)]  # one float
    # the last eps lies above every span: no row is cut, so every item is a candidate
    return (("half-160", list(range(160)), 1, half, (Fraction(1, 2), Fraction(2), Fraction(160))),
            ("near-1e12", list(range(64)), 8, near, (Fraction(1, 8), Fraction(1), Fraction(4))),
            ("half-late-step", list(range(200)), 1, late,
             (Fraction(1, 2), Fraction(4), Fraction(64))),
            ("sawtooth-240", list(range(240)), 2, saw, (Fraction(1, 2), Fraction(3), Fraction(20))),
            ("family-c-120", list(range(120)), 1, fall, (Fraction(1), Fraction(8), Fraction(64))),
            ("constant-300", list(range(300)), 300, [0] * 300, TIED_EPS),
            ("near-1e12-steps-300", list(range(300)), 300, steps, TIED_EPS))


def write_scans(out_dir):
    """Write the repr of both line scans of each _scan_inputs() line into out_dir/scans."""
    scans = Path(out_dir) / "scans"
    scans.mkdir(parents=True, exist_ok=True)
    for label, nums, den, images, eps in _scan_inputs():
        basis = scan.LineBasis(nums, den, [v.numerator for v in images],
                               [v.denominator for v in images], eps)
        (scans / f"{label}.txt").write_text(
            "".join(f"{repr(engine(basis))}\n"
                    for engine in (scan.line_pair_analysis, scan.line_triple_analysis)),
            encoding="utf-8")


def write_validation(out_dir):
    """Write the run_validation dict of each seed 0..19 and bias into out_dir/validation."""
    validation = Path(out_dir) / "validation"
    validation.mkdir(parents=True, exist_ok=True)
    for bias in ("uniform", "period2"):
        for seed in range(20):
            doc = theorem_lab.run_validation(theorem_lab.SearchConfig(
                seed=seed, trials=VALIDATION_TRIALS, map_bias=bias))
            (validation / f"seed-{seed}-{bias}.json").write_text(
                json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_outputs(out_dir, runs=RUNS + INSTANCE_RUNS):
    """Run each (label, argv) through the CLI into out_dir/label, from out_dir, after writing
    the instance files; returns {label: exit code}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_instances(out_dir)
    codes, errors = {}, []
    home = os.getcwd()
    os.chdir(out_dir)
    try:
        for label, argv in runs:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                codes[label] = cli.main([*argv, "--out", label])
            if stderr.getvalue():
                errors.append(f"{label}: {stderr.getvalue()}")
    finally:
        os.chdir(home)
    (out_dir / "exit-codes.txt").write_text(
        "".join(f"{label} {code}\n" for label, code in codes.items()), encoding="utf-8")
    (out_dir / "stderr.txt").write_text("".join(errors), encoding="utf-8")
    return codes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/gated_outputs.py OUT_DIR", file=sys.stderr)
        return 1
    codes = write_outputs(args[0])
    write_scans(args[0])
    write_validation(args[0])
    failed = [label for label, code in codes.items()
              if code != (1 if label in EXPECTED_FAILURES else 0)]
    for label in failed:
        print(f"error: run {label} exited with code {codes[label]}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
