"""Contraction-class verdicts with witnesses and estimated moduli.

On finite spaces every verdict is exact: the space is fully enumerated, so a
passing check is a proof and a failing one carries a concrete witness.  On
sampled spaces a failure witness is still conclusive (it refutes a claim
quantified over the whole space), but passing checks are scope evidence only.

Sampled scopes additionally treat a modulus estimate that is not bounded away
from 1 as refuting evidence: a truncation of a genuinely large contraction
keeps delta(eps) <= 1 - eps/(1+eps) at each fixed eps, whereas the known
failure modes (ratio families approaching 1 at a fixed separation) push the
estimate arbitrarily close to 1.  The margin used is max(49/50, 1 - eps/4),
which excuses near-1 moduli at small eps (legitimate for large contractions)
by a factor-4 slack while flagging them at fixed separations.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import scan
from .map_catalog import SelfMap, image_arrays, image_index
from .metric_core import (
    InputError,
    InternalConsistencyError,
    SampledSpace,
    format_scalar,
)

DEFAULT_EPS_GRID = tuple(Fraction(1, 2 ** k) for k in range(9, 0, -1)) + (
    Fraction(1), Fraction(2), Fraction(4))

NEAR_ONE_RATIO = Fraction(49, 50)   # sampled-scope "indistinguishable from 1"
EPS_MARGIN_DIVISOR = 4              # slack factor on the 1/(1+eps) decay shape


def scope_threshold(eps) -> Fraction:
    """Sampled-scope failure threshold for a modulus estimate at eps."""
    eps = Fraction(eps)
    return max(NEAR_ONE_RATIO, 1 - min(eps, Fraction(1)) / EPS_MARGIN_DIVISOR)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    conclusive: bool
    reason: str
    witness: dict = None

    def to_json(self) -> dict:
        doc = {"passed": self.passed, "conclusive": self.conclusive, "reason": self.reason}
        if self.witness is not None:
            doc["witness"] = {k: _fmt(v) for k, v in self.witness.items()}
        return doc


@dataclass(frozen=True)
class ModulusEntry:
    eps: object
    delta: object          # None when vacuous
    count: int
    witness: dict = None

    @property
    def vacuous(self) -> bool:
        return self.delta is None


@dataclass(frozen=True)
class ModulusTable:
    kind: str              # "pairwise" | "triple"
    entries: tuple

    def lookup_at_or_below(self, eps):
        """Last non-vacuous entry with grid eps <= the requested value.

        Moduli are non-increasing in eps, so stepping down to a smaller grid
        value is conservative: it can only make a decay bound harder to meet.
        """
        chosen = None
        for entry in self.entries:
            if entry.eps <= eps and not entry.vacuous:
                chosen = entry
        if chosen is None:
            raise InputError(
                f"modulus table has no usable entry at or below eps={format_scalar(Fraction(eps))}")
        return chosen

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "entries": [
                {
                    "eps": _fmt(e.eps),
                    "delta": None if e.vacuous else _fmt(e.delta),
                    "vacuous": e.vacuous,
                    "count": e.count,
                    **({"witness": {k: _fmt(v) for k, v in e.witness.items()}}
                       if e.witness else {}),
                }
                for e in self.entries
            ],
        }

    def csv_rows(self):
        for e in self.entries:
            yield {
                "kind": self.kind,
                "eps": _fmt(e.eps),
                "delta": "" if e.vacuous else _fmt(e.delta),
                "count": e.count,
            }


@dataclass(frozen=True)
class ContractionReport:
    scope: str              # "exact" | "sampled"
    n_points: int
    eps_grid: tuple
    pairwise_strict: Verdict
    large_contraction: Verdict
    pairwise_moduli: ModulusTable
    tpc_alpha: object
    tpc_alpha_witness: dict
    uniform_tpc: Verdict
    triple_strict: Verdict
    large_tpc: Verdict
    triple_moduli: ModulusTable
    pairs_enumerated: int
    triples_enumerated: int

    def to_json(self) -> dict:
        return {
            "enumeration_scope": self.scope,
            "n_points": self.n_points,
            "eps_grid": [_fmt(e) for e in self.eps_grid],
            "pairwise_strict": self.pairwise_strict.to_json(),
            "large_contraction": self.large_contraction.to_json(),
            "pairwise_moduli": self.pairwise_moduli.to_json(),
            "tpc_alpha": _fmt(self.tpc_alpha),
            "tpc_alpha_witness": {k: _fmt(v) for k, v in (self.tpc_alpha_witness or {}).items()},
            "uniform_tpc": self.uniform_tpc.to_json(),
            "triple_strict": self.triple_strict.to_json(),
            "large_tpc": self.large_tpc.to_json(),
            "triple_moduli": self.triple_moduli.to_json(),
            "pairs_enumerated": self.pairs_enumerated,
            "triples_enumerated": self.triples_enumerated,
        }

    def moduli_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["kind", "eps", "delta", "count"])
        writer.writeheader()
        for table in (self.pairwise_moduli, self.triple_moduli):
            for row in table.csv_rows():
                writer.writerow(row)
        return buf.getvalue()


def _fmt(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return [_fmt(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# enumeration plumbing

def _subset_points(space, point_set):
    """A finite space's chosen points, in the space's order."""
    if point_set is None:
        return space.point_set()
    order = {}
    for p in point_set:
        order[space.index(p)] = p
    return tuple(order[i] for i in sorted(order))


def _sample_numerators(space, point_set):
    """The sorted int64 numerators over the space's denominator of a sampled space's chosen
    points."""
    if point_set is None:
        return space.numerator_array
    den, sample, chosen = space.denominator, set(space.numerators), set()
    for p in point_set:
        k = Fraction(p) * den
        if k.denominator != 1 or k.numerator not in sample:
            raise InputError(f"point {p!r} is not in the sampled point set")
        chosen.add(k.numerator)
    return np.array(sorted(chosen), dtype=np.int64)


def _prepare(space, mapping, point_set, eps_grid):
    """The number of chosen points and the scans' input of them: both scans share it.

    On a sampled space this is the points' scan.LineBasis over the eps
    grid, with their images from map_catalog.image_arrays; on a finite
    space, the chosen positions, each position's image position
    (map_catalog.image_index) and the chosen points.
    """
    if isinstance(space, SampledSpace):
        den = space.denominator
        nums = _sample_numerators(space, point_set)
        images = image_arrays(mapping, nums, den)
        return len(nums), scan.LineBasis(nums, den, *images, eps_grid)
    pts = _subset_points(space, point_set)
    nodes = [space.index(p) for p in pts]
    return len(pts), (nodes, image_index(space, mapping), pts)


def _analysis(kind, space, prepared, eps_grid):
    """The pairwise or triple enumeration of a prepared point set and its images."""
    scanned = prepared[1]
    pairwise = kind == "pairwise"
    if isinstance(space, SampledSpace):
        engine = scan.line_pair_analysis if pairwise else scan.line_triple_analysis
        return engine(scanned)
    engine = scan.table_pair_analysis if pairwise else scan.table_triple_analysis
    nodes, images, pts = scanned
    return engine(space.lattice, nodes, images, eps_grid, pts)


def _scope_of(space) -> str:
    return "sampled" if isinstance(space, SampledSpace) else "exact"


def _pair_witness(packed, ratio):
    """The witness dict of a pair entry (points, image measure, measure) and its ratio, or
    None."""
    if packed is None:
        return None
    (x, y), image_measure, measure = packed
    return {"x": x, "y": y, "distance": measure, "image_distance": image_measure,
            "ratio": ratio}


def _triple_witness(packed, ratio):
    """The witness dict of a triple entry and its ratio, or None (see _pair_witness)."""
    if packed is None:
        return None
    (x, y, z), image_measure, measure = packed
    return {"x": x, "y": y, "z": z, "perimeter": measure,
            "image_perimeter": image_measure, "ratio": ratio}


def _strict_witness(violation):
    """The witness dict of a strict violation (points, measure, image measure), or None."""
    if violation is None:
        return None
    points, measure, image_measure = violation
    if len(points) == 2:
        return {"x": points[0], "y": points[1], "distance": measure,
                "image_distance": image_measure}
    return {"x": points[0], "y": points[1], "z": points[2], "perimeter": measure,
            "image_perimeter": image_measure}


def _modulus_table(analysis, witness_fn) -> ModulusTable:
    """The modulus table of an enumeration; each delta is its witness's ratio."""
    entries = []
    for eps, delta, wit, count in zip(analysis.eps, analysis.deltas,
                                      analysis.delta_witnesses, analysis.counts):
        entries.append(ModulusEntry(eps=eps, delta=delta, count=count,
                                    witness=witness_fn(wit, delta)))
    return ModulusTable(kind=analysis.kind, entries=tuple(entries))


# ---------------------------------------------------------------------------
# verdict construction

def _strict_verdict(analysis, scope, what) -> Verdict:
    witness = _strict_witness(analysis.strict_violation)
    if witness is None:
        qualifier = "" if scope == "exact" else " on the enumerated scope"
        return Verdict(True, scope == "exact",
                       f"strict {what} decrease holds for all {analysis.total} "
                       f"enumerated items{qualifier}")
    return Verdict(False, True, f"{what} does not strictly decrease at the witness",
                   witness)


def _strict_large_verdict(witness, what) -> Verdict:
    """The large verdict that strictness decides, from the strict witness (None when strict
    decrease holds).

    A strict violation has ratio >= 1, so it fails every modulus below 1, on
    any scope.  On a fully enumerated space strictness also passes it: each
    grid modulus is the greatest of finitely many ratios below 1, and
    _modulus_verdict checks that it is.
    """
    if witness is not None:
        return Verdict(False, True,
                       f"strict {what} decrease fails, so no modulus below 1 exists", witness)
    return Verdict(True, True, "all grid moduli are below 1 on the fully enumerated space")


def _modulus_verdict(table, scope, strict: Verdict, what) -> Verdict:
    if scope == "exact" and strict.passed:
        bad = [e for e in table.entries if not e.vacuous and not e.delta < 1]
        if bad:
            raise InternalConsistencyError(
                f"delta({_fmt(bad[0].eps)}) = {_fmt(bad[0].delta)} is not below 1 while "
                f"strict {what} decrease holds on the fully enumerated space")
    if scope == "exact" or not strict.passed:
        return _strict_large_verdict(strict.witness, what)
    for e in table.entries:
        if e.vacuous:
            continue
        threshold = scope_threshold(e.eps)
        if e.delta >= threshold:
            return Verdict(
                False, False,
                f"delta({_fmt(e.eps)}) = {_fmt(e.delta)} is not bounded away from 1 "
                f"on the sampled scope (threshold {_fmt(threshold)})",
                e.witness)
    return Verdict(True, False, "grid moduli stay bounded away from 1 on the "
                                "sampled scope")


def _uniform_verdict(alpha, witness, scope, strict: Verdict) -> Verdict:
    if alpha is None:
        raise InputError("no triples enumerated")
    if not alpha < 1:
        return Verdict(False, True, f"perimeter ratio {_fmt(alpha)} reaches 1 at the witness",
                       witness)
    if not strict.passed:   # float mode: a perimeter within ETA of its image's
        return Verdict(False, True,
                       f"perimeter ratio supremum {_fmt(alpha)} is below 1, but the "
                       f"perimeter does not decrease by the float margin at the witness",
                       strict.witness)
    if scope == "exact":
        return Verdict(True, True,
                       f"perimeter ratio supremum {_fmt(alpha)} < 1 on the fully "
                       f"enumerated space")
    if alpha >= NEAR_ONE_RATIO:
        return Verdict(False, False,
                       f"perimeter ratio supremum {_fmt(alpha)} is not bounded away "
                       f"from 1 on the sampled scope (threshold {_fmt(NEAR_ONE_RATIO)})",
                       witness)
    return Verdict(True, False,
                   f"perimeter ratio supremum {_fmt(alpha)} stays bounded away from 1 "
                   f"on the sampled scope")


# ---------------------------------------------------------------------------
# public operations

@dataclass(frozen=True)
class PairVerdicts:
    """The pair scan's part of a ContractionReport."""

    pairwise_strict: Verdict
    large_contraction: Verdict
    pairwise_moduli: ModulusTable
    pairs_enumerated: int


@dataclass(frozen=True)
class TripleVerdicts:
    """The triple scan's part of a ContractionReport."""

    tpc_alpha: object
    tpc_alpha_witness: dict
    uniform_tpc: Verdict
    triple_strict: Verdict
    large_tpc: Verdict
    triple_moduli: ModulusTable
    triples_enumerated: int


def _grid(eps_grid):
    return tuple(eps_grid) if eps_grid is not None else DEFAULT_EPS_GRID


def _pair_verdicts(space, prepared, eps_grid) -> PairVerdicts:
    scope = _scope_of(space)
    pair = _analysis("pairwise", space, prepared, eps_grid)
    strict = _strict_verdict(pair, scope, "distance")
    table = _modulus_table(pair, _pair_witness)
    large = _modulus_verdict(table, scope, strict, "distance")
    if large.passed and not strict.passed:
        raise InternalConsistencyError(
            "large-contraction verdict passed while the pairwise strict check failed")
    return PairVerdicts(strict, large, table, pair.total)


def _triple_verdicts(space, prepared, eps_grid) -> TripleVerdicts:
    scope = _scope_of(space)
    triple = _analysis("triple", space, prepared, eps_grid)
    strict = _strict_verdict(triple, scope, "perimeter")
    table = _modulus_table(triple, _triple_witness)
    large = _modulus_verdict(table, scope, strict, "perimeter")
    alpha_witness = _triple_witness(triple.sup_witness, triple.sup_ratio)
    uniform = _uniform_verdict(triple.sup_ratio, alpha_witness, scope, strict)
    if large.passed and not strict.passed:
        raise InternalConsistencyError(
            "large perimeter-contraction verdict passed while the strict triple check failed")
    if uniform.passed and not large.passed:
        raise InternalConsistencyError(
            "uniform perimeter verdict passed while the large perimeter verdict failed")
    return TripleVerdicts(triple.sup_ratio, alpha_witness, uniform, strict, large, table,
                          triple.total)


def pair_verdicts(space, mapping: SelfMap, point_set=None, eps_grid=None) -> PairVerdicts:
    """The pair scan alone: pairwise strictness, large contraction and its moduli."""
    eps_grid = _grid(eps_grid)
    return _pair_verdicts(space, _prepare(space, mapping, point_set, eps_grid), eps_grid)


def triple_verdicts(space, mapping: SelfMap, point_set=None, eps_grid=None) -> TripleVerdicts:
    """The triple scan alone: perimeter strictness, the uniform and large perimeter verdicts."""
    eps_grid = _grid(eps_grid)
    return _triple_verdicts(space, _prepare(space, mapping, point_set, eps_grid), eps_grid)


def large_verdict(space, mapping: SelfMap, name, eps_grid=None) -> Verdict:
    """One large verdict alone: name is "large_contraction" (pairs) or "large_tpc" (triples).

    On a finite space the large verdict is the strict verdict
    (_strict_large_verdict), so only the strict search runs
    (scan.table_strict_violation): it reads the table's items in
    lexicographic order and stops at the first block that holds a strict
    violation.  On a sampled space the kind's whole scan runs, as in
    pair_verdicts and triple_verdicts.
    """
    eps_grid = _grid(eps_grid)
    prepared = _prepare(space, mapping, None, eps_grid)
    pairwise = name == "large_contraction"
    if isinstance(space, SampledSpace):
        if pairwise:
            return _pair_verdicts(space, prepared, eps_grid).large_contraction
        return _triple_verdicts(space, prepared, eps_grid).large_tpc
    nodes, images, pts = prepared[1]
    kind = "pairwise" if pairwise else "triple"
    violation = scan.table_strict_violation(kind, space.lattice, nodes, images, eps_grid, pts)
    return _strict_large_verdict(_strict_witness(violation),
                                 "distance" if pairwise else "perimeter")


def check_pairwise_strict(space, mapping: SelfMap, point_set=None) -> Verdict:
    """Does every distinct pair move strictly closer under the map?"""
    return pair_verdicts(space, mapping, point_set).pairwise_strict


def estimate_large_contraction_modulus(space, mapping: SelfMap, point_set=None,
                                       eps_grid=None):
    """Pairwise modulus table delta(eps) plus the large-contraction verdict."""
    found = pair_verdicts(space, mapping, point_set, eps_grid)
    return found.pairwise_moduli, found.large_contraction


def estimate_tpc_alpha(space, mapping: SelfMap, point_set=None):
    """Supremum of image-to-original perimeter ratios with attaining witness."""
    found = triple_verdicts(space, mapping, point_set)
    return found.tpc_alpha, found.tpc_alpha_witness, found.uniform_tpc


def estimate_large_tpc_modulus(space, mapping: SelfMap, point_set=None,
                               eps_grid=None):
    """Triple modulus table delta(eps) plus the large perimeter-contraction verdict."""
    found = triple_verdicts(space, mapping, point_set, eps_grid)
    return found.triple_moduli, found.large_tpc


def full_report(space, mapping: SelfMap, point_set=None,
                eps_grid=None) -> ContractionReport:
    """Both scans of one prepared point set, each with its cross-checks, as one report."""
    eps_grid = _grid(eps_grid)
    prepared = _prepare(space, mapping, point_set, eps_grid)
    return ContractionReport(scope=_scope_of(space), n_points=prepared[0],
                             eps_grid=eps_grid,
                             **vars(_pair_verdicts(space, prepared, eps_grid)),
                             **vars(_triple_verdicts(space, prepared, eps_grid)))
