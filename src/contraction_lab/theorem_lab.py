"""Theorem verdicts, random instance generation, and counterexample search.

A verdict evaluates a theorem's hypotheses through the classifiers and
dynamics, then checks its conclusion against the exact fixed-point set
(enumerable spaces) or a certified Picard limit (sampled spaces whose maps
leave the sample).  Refutation search runs verdicts over a deterministic
stream of random finite instances; the three-point 2-cycle instance is always
prepended so the search against the uncorrected statement is guaranteed a
hit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import classify, dynamics
from .map_catalog import SelfMap, apply, catalog
from .metric_core import (
    FiniteMetricSpace,
    InputError,
    SampledSpace,
    format_scalar,
    max_side,
    metric_repair,
    perimeter,
)

THEOREM_IDS = ("burton", "petrov", "mesmouli_uncorrected", "corrected_main")

SAMPLED_ORBIT_BUDGET = 4096
CERTIFY_TOL = Fraction(1, 10 ** 10)   # certification tolerance for sampled limits


@dataclass(frozen=True)
class HypothesisResult:
    name: str
    status: str            # "pass" | "fail" | "vacuous"
    detail: str
    witness: object = None

    def to_json(self) -> dict:
        doc = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    hypotheses: tuple
    fixed_points: tuple        # None when not enumerable
    fixed_point_exists: str    # "pass" | "fail" | "unknown"
    count_le_two: str
    unique: str                # "pass"/"fail" where the theorem claims uniqueness, else "not-claimed"
    status: str                # "confirmed" | "refuted" | "inapplicable" | "undetermined"
    scope_qualified: bool
    notes: tuple = ()

    @property
    def hypotheses_pass(self) -> bool:
        return all(h.status == "pass" for h in self.hypotheses)

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "conclusion": {
                "fixed_points": None if self.fixed_points is None
                else [_fmt_point(p) for p in self.fixed_points],
                "fixed_point_exists": self.fixed_point_exists,
                "count_le_two": self.count_le_two,
                "unique": self.unique,
            },
            "status": self.status,
            "scope_qualified": self.scope_qualified,
            "notes": list(self.notes),
        }


def _fmt_point(p):
    return str(p) if isinstance(p, Fraction) else p


_CLAIMS = {
    # theorem_id -> (claims_existence, claims_count_le_two, claims_unique)
    "burton": (True, True, True),
    "petrov": (True, True, False),
    "mesmouli_uncorrected": (True, True, True),
    "corrected_main": (True, True, False),
}


def _fmt_witness(witness):
    if witness is None:
        return None
    return {k: format_scalar(v) if isinstance(v, Fraction) else v
            for k, v in witness.items()}


def _hypothesis_from_verdict(name, verdict: classify.Verdict) -> HypothesisResult:
    return HypothesisResult(
        name=name,
        status="pass" if verdict.passed else "fail",
        detail=verdict.reason,
        witness=_fmt_witness(verdict.witness),
    )


def _hypothesis_no_period2(space, mapping) -> HypothesisResult:
    hits = dynamics.detect_period2(space, mapping)
    if hits:
        return HypothesisResult(
            name="no_period2",
            status="fail",
            detail=f"{len(hits)} point(s) of prime period 2 on the scope",
            witness=[_fmt_point(p) for p in hits],
        )
    return HypothesisResult(name="no_period2", status="pass",
                            detail="no prime period-2 point on the scope")


def _hypothesis_bounded_orbit(space, mapping, x0) -> tuple:
    """Bounded-orbit hypothesis; returns (result, trace)."""
    if isinstance(space, FiniteMetricSpace):
        budget = space.size + 2
    else:
        budget = SAMPLED_ORBIT_BUDGET
    trace = dynamics.picard_orbit(mapping, x0, max_steps=budget,
                                  residual_tol=CERTIFY_TOL)
    L = trace.orbit_bound
    if isinstance(space, FiniteMetricSpace):
        detail = (f"finite space: orbit cycles within {space.size} steps; "
                  f"L = {format_scalar(L)}")
        return HypothesisResult("bounded_orbit", "pass", detail,
                                witness={"L": format_scalar(L)}), trace
    detail = (f"recorded orbit of {len(trace.states) - 1} steps stays within "
              f"L = {format_scalar(L)} (scope evidence)")
    return HypothesisResult("bounded_orbit", "pass", detail,
                            witness={"L": format_scalar(L)}), trace


def _enumerable(space, mapping) -> bool:
    if isinstance(space, FiniteMetricSpace):
        return True
    sample = set(space.point_set())
    return all(apply(mapping, x) in sample for x in space.point_set())


def verdict(theorem_id: str, space, mapping: SelfMap, x0, *, eps_grid=None,
            report: classify.ContractionReport = None) -> TheoremVerdict:
    """Evaluate one theorem's hypotheses and conclusion on an instance."""
    if theorem_id not in THEOREM_IDS:
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    scope_qualified = isinstance(space, SampledSpace)
    notes = []

    if report is None:
        report = classify.full_report(space, mapping, eps_grid=eps_grid)

    hypotheses = []
    trace = None
    if theorem_id == "burton":
        hypotheses.append(_hypothesis_from_verdict("large_contraction",
                                                   report.large_contraction))
        bounded, trace = _hypothesis_bounded_orbit(space, mapping, x0)
        hypotheses.append(bounded)
    elif theorem_id == "petrov":
        hypotheses.append(_hypothesis_from_verdict("uniform_tpc", report.uniform_tpc))
        hypotheses.append(_hypothesis_no_period2(space, mapping))
    elif theorem_id == "mesmouli_uncorrected":
        hypotheses.append(_hypothesis_from_verdict("large_tpc", report.large_tpc))
        bounded, trace = _hypothesis_bounded_orbit(space, mapping, x0)
        hypotheses.append(bounded)
    else:  # corrected_main
        hypotheses.append(_hypothesis_from_verdict("large_tpc", report.large_tpc))
        hypotheses.append(_hypothesis_no_period2(space, mapping))
        bounded, trace = _hypothesis_bounded_orbit(space, mapping, x0)
        hypotheses.append(bounded)

    complete = getattr(space, "complete", True)
    hypotheses_pass = all(h.status == "pass" for h in hypotheses)

    fixed_points = None
    exists = count_le_two = unique = "unknown"
    if _enumerable(space, mapping):
        fixed_points = dynamics.enumerate_fixed_points(space, mapping)
        exists = "pass" if len(fixed_points) >= 1 else "fail"
        count_le_two = "pass" if len(fixed_points) <= 2 else "fail"
        unique = "pass" if len(fixed_points) == 1 else "fail"
        if scope_qualified:
            notes.append("fixed points enumerated over the sample (map closes over it)")
    else:
        if trace is None:
            trace = dynamics.picard_orbit(mapping, x0, max_steps=SAMPLED_ORBIT_BUDGET,
                                          residual_tol=CERTIFY_TOL)
        if trace.halted_by == "fixed-point":
            exists = "pass"
            notes.append(
                f"existence certified by a Picard limit at tolerance "
                f"{format_scalar(CERTIFY_TOL)} (state {_fmt_point(trace.final_state)})")
        else:
            notes.append("Picard orbit from x0 did not certify a fixed point within budget")

    claims_exist, claims_le_two, claims_unique = _CLAIMS[theorem_id]
    if not claims_unique:
        unique_out = "not-claimed"
    else:
        unique_out = unique

    if not complete:
        status = "inapplicable"
        notes.append("space is not complete (catalog assertion); the theorem's "
                     "conclusion is not asserted")
    elif not hypotheses_pass:
        status = "inapplicable"
    else:
        checked = []
        if claims_exist:
            checked.append(exists)
        if claims_le_two:
            checked.append(count_le_two)
        if claims_unique:
            checked.append(unique)
        if any(c == "fail" for c in checked):
            status = "refuted"
        elif all(c == "pass" for c in checked):
            status = "confirmed"
        else:
            status = "undetermined"
            notes.append("hypotheses hold on scope but the conclusion could not be "
                         "decided at desk scale")
    if scope_qualified and status == "refuted":
        notes.append("refutation is scope-qualified: hypotheses were checked on a "
                     "sampled truncation, not the full space")

    return TheoremVerdict(
        theorem_id=theorem_id,
        hypotheses=tuple(hypotheses),
        fixed_points=fixed_points,
        fixed_point_exists=exists,
        count_le_two=count_le_two,
        unique=unique_out,
        status=status,
        scope_qualified=scope_qualified,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# random instances

@dataclass(frozen=True)
class SearchConfig:
    seed: int
    trials: int
    size_min: int = 3
    size_max: int = 12
    denominator: int = 64
    map_bias: str = "uniform"   # "uniform" | "period2"

    def __post_init__(self):
        if self.size_min < 3:
            raise InputError("spaces need at least 3 points")
        if self.size_max < self.size_min:
            raise InputError("size range is empty")
        if self.trials < 0:
            raise InputError("trial count must be nonnegative")
        if self.map_bias not in ("uniform", "period2"):
            raise InputError(f"unknown map bias {self.map_bias!r}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "size_min": self.size_min,
            "size_max": self.size_max,
            "denominator": self.denominator,
            "map_bias": self.map_bias,
        }


def random_instance(config: SearchConfig, trial_index: int):
    """Deterministic (seed, trial) -> (space, map); the table is repaired to a metric."""
    if trial_index >= config.trials:
        raise InputError("trial index exceeds the configured trial count")
    rng = random.Random(f"{config.seed}:{trial_index}")
    n = rng.randint(config.size_min, config.size_max)
    den = config.denominator
    raw = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k = rng.randint(1, den)
            raw[i][j] = k
            raw[j][i] = k
    repaired = metric_repair(raw)  # integer shortest-path closure
    table = tuple(tuple(Fraction(v, den) for v in row) for row in repaired.dist_table)
    space = FiniteMetricSpace(points=tuple(range(n)), dist_table=table, mode="exact")
    images = [rng.randrange(n) for _ in range(n)]
    if config.map_bias == "period2":
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        images[a] = b
        images[b] = a
    mapping = SelfMap(space=space, name=f"random[{config.seed}:{trial_index}]",
                      table=tuple(images))
    return space, mapping


def seeded_counterexample():
    """The three-point 2-cycle instance, as a finite table instance."""
    entry = catalog("period2_counterexample")
    return entry.space, entry.map


@dataclass(frozen=True)
class Refutation:
    trial: int
    space: FiniteMetricSpace
    map: SelfMap
    verdict: TheoremVerdict

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "instance": self.map.to_json(),
            "verdict": self.verdict.to_json(),
        }


@dataclass(frozen=True)
class SearchFindings:
    theorem_id: str
    config: SearchConfig
    refutations: tuple
    two_fixed_point_trials: tuple
    hypothesis_pass_trials: int

    @property
    def hits(self) -> int:
        return len(self.refutations)

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "config": self.config.to_json(),
            "trials": self.config.trials,
            "hits": self.hits,
            "hypothesis_pass_trials": self.hypothesis_pass_trials,
            "two_fixed_point_trials": list(self.two_fixed_point_trials),
            "refutations": [r.to_json() for r in self.refutations],
        }


def search_refutations(theorem_id: str, config: SearchConfig) -> SearchFindings:
    """Verdict sweep over the trial stream, collecting refuted instances.

    Trial -1 is the seeded three-point counterexample.  Instances whose
    hypotheses pass with exactly two fixed points are logged (not asserted
    either way: uniqueness under these hypotheses is an open edge).
    """
    if theorem_id not in ("mesmouli_uncorrected", "corrected_main"):
        raise InputError("refutation search targets mesmouli_uncorrected or corrected_main")
    refutations = []
    two_fp = []
    pass_count = 0
    for trial in range(-1, config.trials):
        if trial == -1:
            space, mapping = seeded_counterexample()
        else:
            space, mapping = random_instance(config, trial)
        v = verdict(theorem_id, space, mapping, x0=space.points[0])
        if v.hypotheses_pass:
            pass_count += 1
            if v.fixed_points is not None and len(v.fixed_points) == 2:
                two_fp.append(trial)
        if v.status == "refuted":
            refutations.append(Refutation(trial=trial, space=space, map=mapping,
                                          verdict=v))
    return SearchFindings(
        theorem_id=theorem_id,
        config=config,
        refutations=tuple(refutations),
        two_fixed_point_trials=tuple(two_fp),
        hypothesis_pass_trials=pass_count,
    )


def _restrict(space: FiniteMetricSpace, mapping: SelfMap, keep):
    keep = tuple(keep)
    idx = [space.index(p) for p in keep]
    table = tuple(tuple(space.dist_table[i][j] for j in idx) for i in idx)
    sub_space = FiniteMetricSpace(points=keep, dist_table=table, mode=space.mode)
    sub_map = SelfMap(space=sub_space, name=mapping.name + "|restricted",
                      table=tuple(mapping.table[space.index(p)] for p in keep))
    return sub_space, sub_map


def minimize_refutation(space: FiniteMetricSpace, mapping: SelfMap,
                        theorem_id: str = "mesmouli_uncorrected"):
    """Greedy point deletion while the instance keeps refuting the theorem.

    A point is deletable when nothing else maps onto it (so the restricted
    map stays total) and at least three points remain.  The result is locally
    minimal: no single further deletion preserves the refutation.
    """
    v = verdict(theorem_id, space, mapping, x0=space.points[0])
    if v.status != "refuted":
        raise InputError("instance does not refute the theorem; nothing to minimize")
    cur_space, cur_map = space, mapping
    changed = True
    while changed and cur_space.size > 3:
        changed = False
        for p in cur_space.points:
            if cur_space.size <= 3:
                break
            targeted = any(cur_map.table[cur_space.index(q)] == p
                           for q in cur_space.points if q != p)
            if targeted:
                continue
            keep = tuple(q for q in cur_space.points if q != p)
            sub_space, sub_map = _restrict(cur_space, cur_map, keep)
            sub_v = verdict(theorem_id, sub_space, sub_map, x0=sub_space.points[0])
            if sub_v.status == "refuted":
                cur_space, cur_map = sub_space, sub_map
                changed = True
                break
    return cur_space, cur_map


# ---------------------------------------------------------------------------
# randomized theorem validation (the empirical main-result check)

def run_validation(config: SearchConfig, check_orbits: bool = True) -> dict:
    """Sweep the trial stream and validate every theorem-backed invariant.

    Counters cover: corrected-theorem conclusion (1..2 fixed points whenever
    its hypotheses pass), the at-most-two bound for strict perimeter
    contractions without 2-cycles, uniqueness for pairwise strict
    contractions, Picard halting behaviour against the enumerated fixed-point
    set, strict perimeter decrease along orbits, the pair-vs-perimeter
    domination, and the perimeter/3 bound on every triple.
    """
    out = {
        "trials": config.trials,
        "corrected_hypotheses_pass": 0,
        "corrected_conclusion_violations": [],
        "uniform_tpc_pass": 0,
        "petrov_count_violations": [],
        "large_contraction_pass": 0,
        "burton_uniqueness_violations": [],
        "two_fixed_point_trials": [],
        "orbit_halt_violations": [],
        "halt_membership_violations": [],
        "perimeter_decrease_violations": [],
        "pair_domination_violations": [],
        "perimeter_third_violations": [],
        "orbits_checked": 0,
    }
    for trial in range(config.trials):
        space, mapping = random_instance(config, trial)
        report = classify.full_report(space, mapping)
        fps = dynamics.enumerate_fixed_points(space, mapping)
        period2 = dynamics.detect_period2(space, mapping)

        _check_perimeter_third(space, out, trial)

        if report.large_contraction.passed:
            out["large_contraction_pass"] += 1
            if len(fps) != 1:
                out["burton_uniqueness_violations"].append(
                    {"trial": trial, "fixed_points": [_fmt_point(p) for p in fps]})
        if report.uniform_tpc.passed and not period2:
            out["uniform_tpc_pass"] += 1
            if not 1 <= len(fps) <= 2:
                out["petrov_count_violations"].append(
                    {"trial": trial, "fixed_points": [_fmt_point(p) for p in fps]})
        corrected_ok = report.large_tpc.passed and not period2
        if corrected_ok:
            out["corrected_hypotheses_pass"] += 1
            if not 1 <= len(fps) <= 2:
                out["corrected_conclusion_violations"].append(
                    {"trial": trial, "fixed_points": [_fmt_point(p) for p in fps]})
            if len(fps) == 2:
                out["two_fixed_point_trials"].append(trial)

        if not check_orbits:
            continue
        for x0 in space.points:
            trace = dynamics.picard_orbit(mapping, x0, max_steps=space.size + 2,
                                          residual_tol=Fraction(0))
            out["orbits_checked"] += 1
            if trace.halted_by == "fixed-point" and trace.final_state not in fps:
                out["halt_membership_violations"].append({"trial": trial, "x0": x0})
            for m in range(len(trace.states) - 1):
                for n in range(m):
                    lhs = space.distance(trace.states[m], trace.states[n])
                    rhs = perimeter(space, trace.states[m + 1], trace.states[m],
                                    trace.states[n])
                    if lhs > rhs:
                        out["pair_domination_violations"].append(
                            {"trial": trial, "x0": x0, "m": m, "n": n})
            if corrected_ok:
                if trace.halted_by != "fixed-point" or len(trace.states) > space.size + 1:
                    out["orbit_halt_violations"].append({"trial": trial, "x0": x0,
                                                         "halted_by": trace.halted_by})
                if len(trace.perimeters) >= 2:
                    ok, idx, _ = dynamics.check_perimeter_decrease(trace)
                    if not ok:
                        out["perimeter_decrease_violations"].append(
                            {"trial": trial, "x0": x0, "index": idx})
    return out


def _check_perimeter_third(space, out, trial):
    pts = space.points
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                p = perimeter(space, pts[i], pts[j], pts[k])
                side = max_side(space, pts[i], pts[j], pts[k])
                if p > 3 * side:
                    out["perimeter_third_violations"].append(
                        {"trial": trial, "triple": (i, j, k)})
                    return
