"""Theorem verdicts, random instance generation, and counterexample search.

A verdict evaluates a theorem's hypotheses through the classifiers and
dynamics, then checks its conclusion against the exact fixed-point set
(enumerable spaces) or a certified Picard limit (sampled spaces whose maps
leave the sample).

The trial stream feeds the validation sweep (run_validation) and refutation
search (search_refutations).  A source yields finite instances, as int
distance tables over one denominator with their maps, and builds any trial
as a (space, map); the seeded draws (_draws) are one.  The sweep stacks the
instances of one size into one int64 array and computes their verdict flags
(through scan._table_blocks), fixed points, orbits and orbit checks at once.
It recomputes its first instance through the per-trial path (the source's
build, the classifiers, the fixed-point and period-2 scans and Picard
orbits) and fails if the batch disagrees.  Hypotheses come from one table,
_HYPOTHESES, read by verdict, the sweep's tallies and the search, which
judges any theorem and gives a full verdict only to its refuted trials and
to the three-point 2-cycle instance, prepended as trial -1 so the search
against the uncorrected statement is guaranteed a hit.
"""

from __future__ import annotations

import functools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, islice, repeat

import numpy as np

from . import classify, dynamics, scan
from .map_catalog import SelfMap, apply, catalog
from .metric_core import (
    FiniteMetricSpace,
    InputError,
    InternalConsistencyError,
    SampledSpace,
    exact_lattice,
    format_point,
    format_scalar,
    metric_repair,
    pair_grid,
    shortest_path_closure,
)

# Each theorem's hypotheses, in the order its verdict lists them.
_HYPOTHESES = {
    "burton": ("large_contraction", "bounded_orbit"),
    "petrov": ("uniform_tpc", "no_period2"),
    "mesmouli_uncorrected": ("large_tpc", "bounded_orbit"),
    "corrected_main": ("large_tpc", "no_period2", "bounded_orbit"),
}
THEOREM_IDS = tuple(_HYPOTHESES)

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
                else [format_point(p) for p in self.fixed_points],
                "fixed_point_exists": self.fixed_point_exists,
                "count_le_two": self.count_le_two,
                "unique": self.unique,
            },
            "status": self.status,
            "scope_qualified": self.scope_qualified,
            "notes": list(self.notes),
        }


# Every theorem claims that a fixed point exists and that there are at most
# two; these also claim that it is unique.
_CLAIMS_UNIQUE = frozenset({"burton", "mesmouli_uncorrected"})


def _refuted(theorem_id, count):
    """Whether count fixed points (an int, or elementwise an int array) refute the theorem."""
    return (count < 1) | (count > (1 if theorem_id in _CLAIMS_UNIQUE else 2))


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
            witness=[format_point(p) for p in hits],
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
    L = format_scalar(trace.orbit_bound)
    if isinstance(space, FiniteMetricSpace):
        detail = f"finite space: orbit cycles within {space.size} steps; L = {L}"
    else:
        detail = (f"recorded orbit of {len(trace.states) - 1} steps stays within "
                  f"L = {L} (scope evidence)")
    return HypothesisResult("bounded_orbit", "pass", detail, witness={"L": L}), trace


def _enumerable(space, mapping) -> bool:
    if isinstance(space, FiniteMetricSpace):
        return True
    if (sampled := dynamics.sampled_images(space, mapping)) is not None:
        return bool((sampled[-1] >= 0).all())
    sample = set(space.point_set())
    return all(apply(mapping, x) in sample for x in space.point_set())


def verdict(theorem_id: str, space, mapping: SelfMap, x0, *, eps_grid=None,
            report: classify.ContractionReport = None) -> TheoremVerdict:
    """Evaluate one theorem's hypotheses and conclusion on an instance.

    The hypotheses read the verdicts of report, a full_report of the
    instance, when one is given.  Otherwise petrov runs the triple scan,
    whose tpc_alpha its uniform_tpc reads, and the other theorems their one
    large verdict alone (classify.large_verdict): on a finite space only the
    strict search, which stops at the first strict violation, and on a
    sampled space the pair scan for burton and the triple scan for the rest.
    """
    if theorem_id not in THEOREM_IDS:
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    scope_qualified = isinstance(space, SampledSpace)
    notes = []

    if report is None and theorem_id == "petrov":
        report = classify.triple_verdicts(space, mapping, eps_grid=eps_grid)

    hypotheses = []
    trace = None
    for name in _HYPOTHESES[theorem_id]:
        if name == "no_period2":
            hypotheses.append(_hypothesis_no_period2(space, mapping))
        elif name == "bounded_orbit":
            bounded, trace = _hypothesis_bounded_orbit(space, mapping, x0)
            hypotheses.append(bounded)
        elif report is None:
            hypotheses.append(_hypothesis_from_verdict(
                name, classify.large_verdict(space, mapping, name, eps_grid=eps_grid)))
        else:
            hypotheses.append(_hypothesis_from_verdict(name, getattr(report, name)))

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
                f"{format_scalar(CERTIFY_TOL)} (state {format_point(trace.final_state)})")
        else:
            notes.append("Picard orbit from x0 did not certify a fixed point within budget")

    if not complete:
        status = "inapplicable"
        notes.append("space is not complete (catalog assertion); the theorem's "
                     "conclusion is not asserted")
    elif not hypotheses_pass:
        status = "inapplicable"
    elif fixed_points is None:      # a certified limit never settles the count
        status = "undetermined"
        notes.append("hypotheses hold on scope but the conclusion could not be "
                     "decided at desk scale")
    else:
        status = "refuted" if _refuted(theorem_id, len(fixed_points)) else "confirmed"
    if scope_qualified and status == "refuted":
        notes.append("refutation is scope-qualified: hypotheses were checked on a "
                     "sampled truncation, not the full space")

    return TheoremVerdict(
        theorem_id=theorem_id,
        hypotheses=tuple(hypotheses),
        fixed_points=fixed_points,
        fixed_point_exists=exists,
        count_le_two=count_le_two,
        unique=unique if theorem_id in _CLAIMS_UNIQUE else "not-claimed",
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
        if self.denominator < 1:
            raise InputError("denominator must be a positive integer")
        if 3 * self.denominator > np.iinfo(np.int64).max:
            raise InputError("the trial stream sums three distances in int64: "
                             "the denominator must be below 2**63 / 3")
        if self.map_bias not in ("uniform", "period2"):
            raise InputError(f"unknown map bias {self.map_bias!r}")

    def to_json(self) -> dict:
        return asdict(self)


def _below(bits, m, count):
    """count draws of rng.randrange(m), made as CPython makes them.

    bits is the generator's getrandbits.  Each draw takes m.bit_length() bits
    and redraws until the value is below m (so m = 1 still takes a bit per
    try), which is the rule randrange and randint follow on random.Random.
    """
    return islice(filter(m.__gt__, map(bits, repeat(m.bit_length()))), count)


def _draw(config: SearchConfig, trial_index: int):
    """One trial's random draws: (n, ks, images).

    ks holds the raw distances k/den of the pairs i < j in row-major order.
    The draws are those of random.Random(f"{seed}:{trial}") making, in
    order, randint(size_min, size_max) for n, randint(1, den) per pair,
    randrange(n) per image and, under the period2 bias, randrange(n) and
    randrange(n - 1) for the 2-cycle; _below makes them from getrandbits
    directly.  random_instance and _draws both draw through here, so
    their streams agree call for call.
    """
    bits = random.Random(f"{config.seed}:{trial_index}").getrandbits
    n = config.size_min + next(_below(bits, config.size_max - config.size_min + 1, 1))
    ks = [k + 1 for k in _below(bits, config.denominator, n * (n - 1) // 2)]
    images = list(_below(bits, n, n))
    if config.map_bias == "period2":
        a = next(_below(bits, n, 1))
        b = next(_below(bits, n - 1, 1))
        if b >= a:
            b += 1
        images[a] = b
        images[b] = a
    return n, ks, images


def random_instance(config: SearchConfig, trial_index: int):
    """Deterministic (seed, trial) -> (space, map): the drawn int table, closed, over the denominator."""
    if trial_index >= config.trials:
        raise InputError("trial index exceeds the configured trial count")
    n, ks, images = _draw(config, trial_index)
    raw = [[0] * n for _ in range(n)]
    for (i, j), k in zip(combinations(range(n), 2), ks):
        raw[i][j] = raw[j][i] = k
    closed = metric_repair(raw).lattice.values      # over scale 1: the closed ints
    space = FiniteMetricSpace._from_lattice(
        tuple(range(n)), exact_lattice(closed, config.denominator), "exact")
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
    """Judge any of the four theorems on the trial stream, collecting refuted instances.

    Trial -1, the seeded counterexample, gets a verdict first, which refuses
    an unknown id; it stays out of the sweep, since over the stream's
    denominator its perimeters reach 4 den, past SearchConfig's int64 bound.
    The draws are judged from the sweep's flags (_held) and fixed-point
    counts (_refuted); only refuted ones are rebuilt, by the source's build,
    for a verdict.  Trials whose hypotheses pass with two fixed points are
    logged (not asserted: uniqueness under them is open).
    """
    space, mapping = seeded_counterexample()
    v = verdict(theorem_id, space, mapping, x0=space.points[0])
    instances, build = _draws(config)
    _, trials, flags, counts = _sweep(instances, build)
    held = np.append(v.hypotheses_pass, _held(theorem_id, flags))
    counts = np.append(len(v.fixed_points), counts)[held]
    passed = np.array([-1, *trials])[held]
    refutations = []
    for trial in passed[_refuted(theorem_id, counts)].tolist():
        if trial >= 0:      # trial -1's instance and verdict are at hand
            space, mapping = build(trial)
            v = verdict(theorem_id, space, mapping, x0=space.points[0])
        if v.status != "refuted":
            raise InternalConsistencyError(
                f"the batched stream refutes trial {trial} but its verdict is {v.status}")
        refutations.append(Refutation(trial=trial, space=space, map=mapping, verdict=v))
    return SearchFindings(
        theorem_id=theorem_id,
        config=config,
        refutations=tuple(refutations),
        two_fixed_point_trials=tuple(passed[counts == 2].tolist()),
        hypothesis_pass_trials=len(passed),
    )


def _restrict(space: FiniteMetricSpace, mapping: SelfMap, keep):
    keep = tuple(keep)
    idx = [space.index(p) for p in keep]
    sub_space = FiniteMetricSpace._from_lattice(
        keep, space.lattice.with_values(space.lattice.values[np.ix_(idx, idx)]), space.mode)
    sub_map = SelfMap(space=sub_space, name=mapping.name + "|restricted",
                      table=tuple(mapping.table[space.index(p)] for p in keep))
    return sub_space, sub_map


def minimize_refutation(space: FiniteMetricSpace, mapping: SelfMap,
                        theorem_id: str = "mesmouli_uncorrected", known_verdict=None):
    """Greedy point deletion while the instance keeps refuting the theorem.

    A point is deletable when nothing else maps onto it (so the restricted
    map stays total) and at least three points remain.  The result is locally
    minimal: no single further deletion preserves the refutation.
    known_verdict, when given, is the instance's verdict under theorem_id
    with x0 its first point (a search's Refutation.verdict), and is not
    computed again.
    """
    v = known_verdict
    if v is None:
        v = verdict(theorem_id, space, mapping, x0=space.points[0])
    if v.status != "refuted":
        raise InputError("instance does not refute the theorem; nothing to minimize")
    cur_space, cur_map = space, mapping
    changed = True
    while changed and cur_space.size > 3:
        changed = False
        for p in cur_space.points:
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
# the trial stream: randomized theorem validation, and the search's trials

SWEEP_ITEMS = 1 << 18    # instances x n**3 per batch of the trial stream
HALTS = ("fixed-point", "period-2", "budget")
_SWEPT = ("large_contraction", "large_tpc", "uniform_tpc", "no_period2")   # the flags per trial
_TALLIES = {        # theorem -> its hypotheses-pass counter and violation list
    "burton": ("large_contraction_pass", "burton_uniqueness_violations"),
    "petrov": ("uniform_tpc_pass", "petrov_count_violations"),
    "corrected_main": ("corrected_hypotheses_pass", "corrected_conclusion_violations"),
}


def _held(theorem_id, flags):
    """Whether theorem_id's hypotheses hold, elementwise over flags (a bool array per name of
    _SWEPT): the AND of its _HYPOTHESES but bounded_orbit, which every finite orbit passes."""
    return functools.reduce(np.logical_and, [
        flags[name] for name in _HYPOTHESES[theorem_id] if name != "bounded_orbit"])


def run_validation(config: SearchConfig) -> dict:
    """Sweep the trial stream's draws and validate every theorem-backed invariant.

    Counters cover: corrected-theorem conclusion (1..2 fixed points whenever
    its hypotheses pass), the at-most-two bound for strict perimeter
    contractions without 2-cycles, uniqueness for pairwise strict
    contractions, Picard halting behaviour against the enumerated fixed-point
    set, strict perimeter decrease along orbits, and the pair-vs-perimeter
    domination.  perimeter_third_violations, the triples whose perimeter
    exceeds three times their longest side, is always empty and not
    computed: a sum of three sides never exceeds three times the longest,
    for any ints, metric or not.
    """
    return _sweep(*_draws(config))[0]


def _draws(config: SearchConfig):
    """The seeded source: _draw's instances of trials 0..trials - 1, built by random_instance."""
    instances = ((trial, *_draw(config, trial)) for trial in range(config.trials))
    return instances, functools.partial(random_instance, config)


def _sweep(instances, build):
    """Sweep a source: (validation counters, its trial numbers, flags, fixed-point counts).

    instances yields (trial, n, ks, images): a table's int distances at the
    pairs i < j, row-major, over one denominator that no check reads (three
    must sum within int64, as SearchConfig's bound keeps the draws'), and
    its map (point i is label i); build(trial) returns that trial's (space,
    mapping).  Each size's instances are stacked once, filled in at
    metric_core.pair_grid's pairs, closed by shortest_path_closure and run
    through _sweep_batch in batches of at most SWEEP_ITEMS // n**3; the
    stream's first instance is audited (_audit_first_instance).  Violation
    lists are put in trial order; the flags (a bool array per name of
    _SWEPT) and counts are indexed by position in the stream, as the
    returned trial numbers are.
    """
    trials, groups = [], {}
    for trial, n, ks, images in instances:
        group = groups.setdefault(n, ([], [], []))
        group[0].append(len(trials))
        group[1].extend(ks)
        group[2].extend(images)
        trials.append(trial)
    flags = {name: np.zeros(len(trials), dtype=bool) for name in _SWEPT}
    counts = np.zeros(len(trials), dtype=np.intp)
    out = {"trials": len(trials),     # each theorem's counter next to its violation list
           "corrected_hypotheses_pass": 0, "corrected_conclusion_violations": [],
           "uniform_tpc_pass": 0, "petrov_count_violations": [],
           "large_contraction_pass": 0, "burton_uniqueness_violations": [],
           "two_fixed_point_trials": [], "orbit_halt_violations": [],
           "halt_membership_violations": [], "perimeter_decrease_violations": [],
           "pair_domination_violations": [], "perimeter_third_violations": [],
           "orbits_checked": 0}
    for n, (positions, ks, images) in groups.items():
        grid = pair_grid(n)
        ks = np.array(ks, dtype=np.int64).reshape(len(positions), -1)
        images = np.array(images, dtype=np.intp).reshape(len(positions), n)
        size = max(1, SWEEP_ITEMS // n ** 3)
        for s in range(0, len(positions), size):
            at = positions[s:s + size]
            raw = np.zeros((len(at), n * n), dtype=np.int64)
            raw[:, grid.upper] = raw[:, grid.lower] = ks[s:s + size]
            found = _sweep_batch(out, [trials[p] for p in at],
                                 shortest_path_closure(raw.reshape(-1, n, n)), images[s:s + size])
            for name, values in found[0].items():
                flags[name][at] = values
            counts[at] = found[1].sum(1)
            if at[0] == 0:
                _audit_first_instance(trials[0], build, found)
    for key, value in out.items():
        if key == "two_fixed_point_trials":
            value.sort()
        elif isinstance(value, list):
            value.sort(key=lambda entry: entry["trial"])   # stable: keeps (x0, m, n) order
    return out, trials, flags, counts


@functools.cache
def _state_pairs(n):
    """The orbit state pairs n < m below state n + 2, m-major, as read-only arrays (m, n)."""
    pairs = np.tril_indices(n + 2, -1)
    for values in pairs:
        values.flags.writeable = False      # every batch of the process reads them
    return pairs


def _sweep_batch(out, trials, dist, images):
    """The trial stream's checks on a stack of B instances of one size n.

    trials lists the instances' trial numbers in order, dist holds their
    (B, n, n) int64 tables over one denominator, and images their (B, n)
    maps (point i is label i).  Counters are added to out, each theorem's of
    _TALLIES where _held passes, and violation entries appended in (trial,
    x0, m, n) order, from Python ints.

    The verdict flags follow classify.full_report's exact-scope rules and
    read the table engine's enumeration (scan._table_blocks) of the (2, B,
    n, n) stack of the tables and their image tables d(Tp, Tq): an instance
    fails a strict flag at any pair or triple whose image measure is at
    least its measure (scan._strict_item's exact test), and the first
    nonpositive pair d(i, j), i < j, is refused with full_report's message.
    On a fully enumerated space a large verdict is the strict one
    (classify._strict_large_verdict): a strict violation fails every
    modulus below 1, and without one each grid modulus is a maximum of
    finitely many ratios below 1.  So the large and strict flags coincide,
    and so does uniform_tpc: a maximum of finitely many triple ratios is
    below 1 exactly when each ratio is.

    Every other lookup is a take at offsets into the raveled (B n n) table
    or the raveled (B n) map: point p of instance b is g = b n + p, and
    d(g, q) is entry g n + q.  The orbit checks read per-point arrays of
    d(p, Tp) <= 0, T(Tp) = p and P(p, Tp, T(Tp)), and a (B n, n)
    pair-domination table, each computed once per point and gathered along
    the orbits.

    Returns the instances' verdict flags, as a bool array per name of
    _SWEPT, their (B, n) fixed-point and period-2 masks, and the (B, n)
    arrays of orbit halts (indices into HALTS) and numbers of states.
    """
    count, n = images.shape
    table = dist.reshape(-1)
    pts = np.arange(n)
    cells = np.arange(count * n)                        # g = b n + p
    local = images.reshape(-1)                          # Tp, as a point of its instance
    image = local + cells - cells % n                   # Tp, as g
    image2 = local.take(image)                          # T(Tp), as a point of its instance
    image_cells = (image * n).reshape(count, n, 1) + images.reshape(count, 1, n)
    stack = np.stack([dist, table.take(image_cells)])  # d(p, q) and d(Tp, Tq)
    strict = []         # per kind, whether every item of an instance decreases strictly
    for kind in ("pairwise", "triple"):
        fails = np.zeros(count, dtype=bool)
        for num, den, _, _ in scan._table_blocks(kind, stack, range(n)):
            fails |= (num >= den).any(1)                # scan._strict_item's exact test
        strict.append(~fails)
    pair_strict, triple_strict = strict

    fixed = images == pts
    returns = image2.reshape(count, n) == pts
    period2 = returns & ~fixed
    flags = dict(zip(_SWEPT, (pair_strict, triple_strict, triple_strict, ~period2.any(1))))
    held = {theorem_id: _held(theorem_id, flags) for theorem_id in _TALLIES}
    corrected = np.repeat(held["corrected_main"], n)

    # Orbits, as picard_orbit runs them with max_steps = n + 2 and residual
    # tolerance 0.  orbit[i, g] is state i from g; a run halts at the first
    # state with d(x, Tx) <= 0 (fixed point), else with T(Tx) = x (period
    # 2: Tx, x, Tx are recorded next, which are the following states of the
    # orbit), else at state n + 2 (budget).  An orbit on n points is in its
    # cycle by state n - 1, so a period-2 halt keeps within the n + 3 states
    # of a budget halt.  Each orbit check reads only a state and its
    # successors, so it is computed once per point of an instance and
    # gathered along the orbits.
    steps = n + 3
    orbit = np.empty((steps + 1, count * n), dtype=np.intp)
    orbit[0] = cells
    for i in range(steps):
        image.take(orbit[i], out=orbit[i + 1])
    step_dist = table.take(cells * n + local)           # d(p, Tp)
    at_fixed = step_dist <= 0
    at_period2 = returns.reshape(-1)
    halts = (at_fixed | at_period2).take(orbit[:steps])
    halts[-1] = True
    halt = halts.argmax(0)
    final = orbit.reshape(-1).take(halt * (count * n) + cells)
    by_fixed = at_fixed.take(final)
    by_period2 = ~by_fixed & at_period2.take(final)
    length = np.where(by_period2, halt + 4, halt + 1)
    halted_by = np.where(by_fixed, 0, np.where(by_period2, 1, 2))
    membership = by_fixed & ~fixed.reshape(-1).take(final)
    orbit_halt = corrected & (~by_fixed | (length > n + 1))

    # d(x_m, x_n) <= P(x_{m+1}, x_m, x_n) for n < m, m + 1 < length.  Since
    # x_{m+1} = T x_m, a pair fails where dominated[x_m, x_n] holds, with
    # dominated[p, q] = d(p, q) > d(Tp, p) + d(p, q) + d(Tp, q) over the
    # (B n, n) rows; only the instances with a failing pair (p, q) are
    # gathered along their orbits.
    m_idx, n_idx = _state_pairs(n)
    rows_of = table.reshape(count * n, n)
    dominated = rows_of > (table.take(image * n + cells % n)[:, None] + rows_of
                           + rows_of.take(image, 0))
    hit = np.flatnonzero(dominated.reshape(count, n * n).any(1))
    hit_cells = (hit[:, None] * n + pts).reshape(-1)
    orbit_hit = orbit.take(hit_cells, 1)
    domination = (dominated.reshape(-1).take(orbit_hit[m_idx] * n + orbit_hit[n_idx] % n)
                  & (m_idx[:, None] + 1 < length.take(hit_cells)))

    # check_perimeter_decrease on P_i = P(x_i, x_{i+1}, x_{i+2}), i < length - 2
    per = (step_dist + step_dist.take(image) + table.take(cells * n + image2)).take(
        orbit[:steps - 2])
    n_per = length - 2
    recorded = np.arange(steps - 2)[:, None] < n_per
    no_drop = (per[1:] >= per[:-1]) & recorded[1:]
    decrease = (corrected & (n_per >= 2)
                & ((per != 0) & recorded).any(0) & no_drop.any(0))
    first_no_drop = no_drop.argmax(0)

    fixed_counts = fixed.sum(1)
    for theorem_id, (passes, violations) in _TALLIES.items():
        out[passes] += int(np.count_nonzero(held[theorem_id]))
        for b in np.flatnonzero(held[theorem_id] & _refuted(theorem_id, fixed_counts)).tolist():
            out[violations].append(
                {"trial": trials[b], "fixed_points": np.flatnonzero(fixed[b]).tolist()})
    two = np.flatnonzero(held["corrected_main"] & (fixed_counts == 2)).tolist()
    out["two_fixed_point_trials"].extend(trials[b] for b in two)
    out["orbits_checked"] += count * n
    for g in np.flatnonzero(membership).tolist():
        out["halt_membership_violations"].append({"trial": trials[g // n], "x0": g % n})
    for c, q in zip(*np.nonzero(domination.T)):
        out["pair_domination_violations"].append(
            {"trial": trials[hit[c // n]], "x0": int(c % n), "m": int(m_idx[q]),
             "n": int(n_idx[q])})
    for g in np.flatnonzero(orbit_halt).tolist():
        out["orbit_halt_violations"].append(
            {"trial": trials[g // n], "x0": g % n, "halted_by": HALTS[halted_by[g]]})
    for g in np.flatnonzero(decrease).tolist():
        out["perimeter_decrease_violations"].append(
            {"trial": trials[g // n], "x0": g % n, "index": int(first_no_drop[g])})

    return flags, fixed, period2, (halted_by.reshape(count, n), length.reshape(count, n))


def _audit_first_instance(trial, build, found):
    """Recompute the stream's first instance through the per-trial path (build(trial), the
    classifiers, the fixed-point and period-2 scans, and a Picard orbit from every start point),
    and raise InternalConsistencyError if it differs from the batch's instance 0."""
    flags, fixed, period2, (halted_by, length) = found
    batch = ({name: bool(values[0]) for name, values in flags.items()},
             tuple(np.flatnonzero(fixed[0]).tolist()), tuple(np.flatnonzero(period2[0]).tolist()),
             tuple(zip(map(HALTS.__getitem__, halted_by[0].tolist()), length[0].tolist())))
    space, mapping = build(trial)
    report = classify.full_report(space, mapping)
    cycle = dynamics.detect_period2(space, mapping)
    traces = [dynamics.picard_orbit(mapping, x0, max_steps=space.size + 2,
                                    residual_tol=Fraction(0)) for x0 in space.points]
    per_trial = ({name: getattr(report, name).passed for name in _SWEPT[:3]}
                 | {"no_period2": not cycle},
                 dynamics.enumerate_fixed_points(space, mapping), cycle,
                 tuple((t.halted_by, len(t.states)) for t in traces))
    if per_trial != batch:
        raise InternalConsistencyError(
            f"the batched sweep disagrees with the per-trial path on trial {trial}: "
            f"{batch} != {per_trial}")
