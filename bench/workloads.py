"""Seeded op streams for the three workloads, and the checks on their outputs.

An op is one in-process CLI command (``cli.main([...])``) or, on
``trial-stream``, one ``run_validation`` call that counts as ``trials`` ops.
A workload is a stream of rounds.  Every round has the same composition, so
a run that completes whole rounds measures the same mix of work at every
seed; the seed picks the instance contents and small truncation offsets.
Every op carries ``key``, its whole input: no key repeats within a run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

VERDICTS = ("pairwise_strict", "large_contraction", "uniform_tpc", "triple_strict",
            "large_tpc")


@dataclass
class Op:
    key: str                      # the op's whole input; unique within a run
    count: int = 1                # ops this call stands for
    argv: list = None             # CLI op: arguments to cli.main, without --out
    trial_seed: int = None        # trial-stream op: SearchConfig seed
    expect: dict = field(default_factory=dict)   # facts known from the input


# ---------------------------------------------------------------------------
# catalog-line: the line engine on sampled catalog spaces

class CatalogLine:
    """``reproduce`` once, then rounds of ``classify --catalog`` at fine truncations.

    Round r uses truncation base + 4 r + j, where the seed draws the jitter
    j in 0..3 per op kind, so truncations grow by the same amount in every
    run and never repeat within one.
    """

    name = "catalog-line"
    round_seconds = 5.2        # one round at the commit that defined the benchmark
    expected_spans = ("cli.main", "map_catalog.catalog", "classify.full_report",
                      "scan.line_pair_analysis", "scan.line_triple_analysis",
                      "scan.table_pair_analysis", "scan.table_triple_analysis",
                      "dynamics.picard_orbit", "dynamics.enumerate_fixed_points",
                      "dynamics.detect_period2", "theorem_lab.verdict")

    # (catalog id, truncation flag, base); burton/composite take --grid-step 1/k
    KINDS = (("burton_logistic", "--grid-step", 2048),
             ("floor_half", "--max-n", 1024),
             ("floor_half", "--max-n", 4096),
             ("composite", "--grid-step", 1024))

    def __init__(self, seed, work_dir):
        rng = random.Random(f"{self.name}:{seed}")
        self.jitter = [rng.randrange(4) for _ in self.KINDS]

    def setup(self):
        """Nothing to write: catalog spaces are built by the program."""

    def first_ops(self):
        return [Op(key="reproduce", argv=["reproduce"], expect={"command": "reproduce"})]

    def round(self, r):
        ops = []
        for (cat, flag, base), j in zip(self.KINDS, self.jitter):
            k = base + 4 * r + j
            value = f"1/{k}" if flag == "--grid-step" else str(k)
            argv = ["classify", "--catalog", cat, flag, value]
            ops.append(Op(key=" ".join(argv), argv=argv,
                          expect={"command": "classify", **_catalog_expect(cat, k)}))
        return ops


def _catalog_expect(cat, k):
    """Verdict pattern of each catalog map (README table), at any fine truncation."""
    if cat == "burton_logistic":
        return {"n_points": k, "passed": {"pairwise_strict": True, "large_contraction": True,
                                          "uniform_tpc": False, "large_tpc": True}}
    if cat == "floor_half":
        return {"n_points": k + 1, "tpc_alpha": "2/3",
                "passed": {"pairwise_strict": False, "large_contraction": False,
                           "uniform_tpc": True, "large_tpc": True}}
    return {"n_points": k + 1 + 2 * 50,
            "passed": {"pairwise_strict": True, "large_contraction": False,
                       "uniform_tpc": False, "large_tpc": True}}


# ---------------------------------------------------------------------------
# table-load: the table engine and metric validation on instance files

class TableLoad:
    """Random exact finite instances at n = 40, 64 and 88, each written twice.

    The exact file holds ``p/q`` distances; its twin holds the same distances
    as float64 with ``"mode": "float"``.  Ops alternate ``classify`` and
    ``verify --theorem corrected_main`` and use each file once.  The middle
    size classifies its float twin and verifies the exact one, the other
    sizes the reverse, so every round has the same mix of modes and commands.
    """

    name = "table-load"
    round_seconds = 12.0
    expected_spans = ("cli.main", "map_catalog.load_instance", "metric_core.validate_metric",
                      "classify.full_report", "scan.table_pair_analysis",
                      "scan.table_triple_analysis", "theorem_lab.verdict",
                      "dynamics.picard_orbit", "dynamics.enumerate_fixed_points",
                      "dynamics.detect_period2")

    SIZES = (40, 64, 88)
    DENOMINATOR = 96            # not a power of two, so float distances are rounded
    MAP_KINDS = ("uniform", "pool", "constant")

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.dir = Path(work_dir) / "instances"
        self._written = {}

    def setup(self):
        """Generate and write round 0's instance files."""
        self._written[0] = self._write_round(0)

    def first_ops(self):
        return []

    def round(self, r):
        files = self._written.pop(r, None) or self._write_round(r)
        ops = []
        for i, pair in enumerate(files):
            for path, n, fixed, period2 in (pair if i % 2 == 0 else pair[::-1]):
                if len(ops) % 2 == 0:
                    argv = ["classify", "--instance", str(path)]
                    expect = {"command": "classify", "n_points": n}
                else:
                    argv = ["verify", "--theorem", "corrected_main", "--instance", str(path)]
                    expect = {"command": "verify", "fixed_points": fixed,
                              "no_period2": "fail" if period2 else "pass"}
                ops.append(Op(key=f"{argv[0]} {path.stem}", argv=argv, expect=expect))
        return ops

    def _write_round(self, r):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        self.dir.mkdir(parents=True, exist_ok=True)
        files = []
        for i, n in enumerate(self.SIZES):
            dist, images = random_instance(rng, n, self.DENOMINATOR, rng.choice(self.MAP_KINDS))
            fixed = [x for x in range(n) if images[x] == x]
            period2 = any(images[images[x]] == x != images[x] for x in range(n))
            pair = []
            for mode in ("exact", "float"):
                text = json.dumps(instance_doc(dist, images, self.DENOMINATOR, mode))
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                path = self.dir / f"n{n}-{mode}-{digest}.json"
                path.write_text(text, encoding="utf-8")
                pair.append((path, n, fixed, period2))
            files.append(pair)
        return files


def random_instance(rng, n, den, map_kind):
    """A random metric on n points with distances in (0, 1], and a self-map.

    Raw distances k/den with k uniform in 1..den are closed under shortest
    paths, which yields a metric.  The map sends every point to a uniform
    image ("uniform"), into a pool of three points ("pool"), or mostly to a
    single point ("constant").
    """
    raw = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            raw[i, j] = raw[j, i] = rng.randint(1, den)
    for k in range(n):
        raw = np.minimum(raw, raw[:, k:k + 1] + raw[k:k + 1, :])
    if map_kind == "uniform":
        images = [rng.randrange(n) for _ in range(n)]
    elif map_kind == "pool":
        pool = rng.sample(range(n), 3)
        images = [rng.choice(pool) for _ in range(n)]
    else:
        target = rng.randrange(n)
        images = [target] * n
        images[rng.randrange(n)] = rng.randrange(n)
    return raw.tolist(), images


def instance_doc(dist, images, den, mode):
    """Instance JSON: exact ``p/q`` strings, or float64 numbers in float mode."""
    if mode == "exact":
        rows = [[str(Fraction(v, den)) for v in row] for row in dist]
    else:
        rows = [[v / den for v in row] for row in dist]
    n = len(images)
    return {"space": {"points": list(range(n)), "mode": mode, "dist": rows},
            "map": images}


# ---------------------------------------------------------------------------
# trial-stream: the acceptance sweep's code path

class TrialStream:
    """One ``run_validation(SearchConfig(seed=s, trials=250))`` call per round.

    The call seeds are distinct draws from the workload seed; sizes are the
    default 3..12 and orbit checks are on.  A call of 250 trials is long
    enough for batching across trials to show, and short enough that the
    calibration bursts between calls sample the machine's speed every second
    or so.
    """

    name = "trial-stream"
    round_seconds = 1.1
    trials = 250
    expected_spans = ("theorem_lab.run_validation", "theorem_lab.random_instance",
                      "metric_core.metric_repair", "classify.full_report",
                      "scan.table_pair_analysis", "scan.table_triple_analysis",
                      "dynamics.picard_orbit", "dynamics.enumerate_fixed_points",
                      "dynamics.detect_period2")

    def __init__(self, seed, work_dir):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seeds = []

    def setup(self):
        """Nothing to write: the program generates the trial stream from its seed."""

    def first_ops(self):
        return []

    def round(self, r):
        while len(self.seeds) <= r:
            s = self.rng.randrange(2 ** 31)
            if s not in self.seeds:
                self.seeds.append(s)
        s = self.seeds[r]
        return [Op(key=f"run_validation seed={s} trials={self.trials}", count=self.trials,
                   trial_seed=s, expect={"command": "run_validation", "trials": self.trials})]


WORKLOADS = {w.name: w for w in (CatalogLine, TableLoad, TrialStream)}


# ---------------------------------------------------------------------------
# output checks

def semantic(command, doc):
    """The parts of an output document that carry results; prose is dropped."""
    if command == "reproduce":
        return {"all_pass": doc["all_pass"],
                "checks": {c["id"]: {"computed": c["computed"], "pass": c["pass"]}
                           for c in doc["checks"]}}
    if command == "classify":
        rep = doc["report"]
        out = {k: rep[k] for k in ("enumeration_scope", "n_points", "pairs_enumerated",
                                   "triples_enumerated", "tpc_alpha", "tpc_alpha_witness",
                                   "pairwise_moduli", "triple_moduli")}
        for v in VERDICTS:
            out[v] = {k: rep[v][k] for k in ("passed", "conclusive", "witness") if k in rep[v]}
        return out
    if command == "verify":
        v = doc["verdict"]
        return {"status": v["status"], "scope_qualified": v["scope_qualified"],
                "conclusion": v["conclusion"],
                "hypotheses": [{k: h[k] for k in ("name", "status", "witness") if k in h}
                               for h in v["hypotheses"]]}
    return doc      # run_validation: every counter and violation list


def matches(reference, value):
    """True when value agrees with reference on every key the reference has."""
    if isinstance(reference, dict):
        return isinstance(value, dict) and all(
            k in value and matches(r, value[k]) for k, r in reference.items())
    if isinstance(reference, list):
        return (isinstance(value, (list, tuple)) and len(value) == len(reference)
                and all(matches(r, v) for r, v in zip(reference, value)))
    return reference == value


def check(op, rc, doc):
    """Problems with one op's exit code and output, from facts known about its input."""
    expect = op.expect
    command = expect["command"]
    if command == "run_validation":
        problems = [f"{k}: {v[:3]}" for k, v in doc.items()
                    if k.endswith("_violations") and v]
        if doc.get("trials") != expect["trials"]:
            problems.append(f"trials {doc.get('trials')} != {expect['trials']}")
        return problems
    if command == "verify":
        status = doc["verdict"]["status"]
        if rc != (2 if status == "refuted" else 0):
            return [f"exit code {rc} with status {status}"]
    elif rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if command == "reproduce":
        if not doc["all_pass"]:
            problems.append("reproduce reports mismatches")
    elif command == "classify":
        rep = doc["report"]
        n = expect["n_points"]
        got = (rep["n_points"], rep["pairs_enumerated"], rep["triples_enumerated"])
        if got != (n, comb(n, 2), comb(n, 3)):
            problems.append(f"n/pairs/triples {got} for n = {n}")
        for v, passed in expect.get("passed", {}).items():
            if rep[v]["passed"] != passed:
                problems.append(f"{v} passed = {rep[v]['passed']}, expected {passed}")
        if "tpc_alpha" in expect and rep["tpc_alpha"] != expect["tpc_alpha"]:
            problems.append(f"tpc_alpha {rep['tpc_alpha']} != {expect['tpc_alpha']}")
        if rep["uniform_tpc"]["passed"] and not rep["large_tpc"]["passed"]:
            problems.append("uniform_tpc passes while large_tpc fails")
    else:
        v = doc["verdict"]
        if v["conclusion"]["fixed_points"] != expect["fixed_points"]:
            problems.append(f"fixed points {v['conclusion']['fixed_points']} != "
                            f"{expect['fixed_points']}")
        no_p2 = [h["status"] for h in v["hypotheses"] if h["name"] == "no_period2"]
        if no_p2 != [expect["no_period2"]]:
            problems.append(f"no_period2 {no_p2} != {expect['no_period2']}")
    return problems
