"""Picard orbits and their diagnostics.

An orbit records states, step distances, the consecutive-triple perimeter
sequence, and the orbit bound L = max_n d(x0, x_n).  Halting priority is
fixed point, then prime period 2, then budget: a fixed point also satisfies
T^2 x = x, so the period-2 test requires Tx != x.  On period-2 detection the
trace is extended through one extra cycle revolution so the perimeter
plateau is visible to the diagnostics.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import scan
from .map_catalog import SelfMap, apply
from .metric_core import (
    ETA,
    FiniteMetricSpace,
    InputError,
    SampledSpace,
    format_point,
    format_scalar,
    perimeter,
)

EXACT_RESIDUAL_TOL = Fraction(0)
FLOAT_RESIDUAL_TOL = 1e-10
PAIR_SCAN_LIMIT = 512   # beyond this many states, decay pairs are strided


def default_residual_tol(space):
    return EXACT_RESIDUAL_TOL if space.exact else FLOAT_RESIDUAL_TOL


@dataclass(frozen=True)
class OrbitTrace:
    space: object
    map: SelfMap
    x0: object
    states: tuple
    step_dist: tuple
    perimeters: tuple
    orbit_bound: object
    halted_by: str          # "fixed-point" | "period-2" | "budget"
    residual: object        # d(x_N, T x_N) at the final recorded state
    period2_entry: int = None

    @property
    def final_state(self):
        return self.states[-1]

    def to_json(self) -> dict:
        return {
            "x0": format_point(self.x0),
            "states": [format_point(s) for s in self.states],
            "step_dist": [format_scalar(d) for d in self.step_dist],
            "perimeters": [format_scalar(p) for p in self.perimeters],
            "orbit_bound": format_scalar(self.orbit_bound),
            "halted_by": self.halted_by,
            "residual": format_scalar(self.residual),
            "period2_entry": self.period2_entry,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "x_n", "step_dist", "perimeter"])
        for n, state in enumerate(self.states):
            step = format_scalar(self.step_dist[n]) if n < len(self.step_dist) else ""
            per = format_scalar(self.perimeters[n]) if n < len(self.perimeters) else ""
            writer.writerow([n, _decimal_point(state), step, per])
        return buf.getvalue()


def _decimal_point(p):
    """A state as a float string; beyond the float range, +-inf (scan._quotient)."""
    if isinstance(p, Fraction):
        return repr(scan._quotient(p.numerator, p.denominator))
    return p


@dataclass(frozen=True)
class FixedPointCertificate:
    point: object
    residual: object
    tolerance: object


@dataclass(frozen=True)
class DecayRecord:
    m: int
    n: int
    separation: object      # d(x_m, x_n)
    perimeter: object       # P(x_{m+1}, x_m, x_n)
    bound: object           # 4 L delta^n
    ok: bool


@dataclass(frozen=True)
class CauchyDiagnostic:
    eps0: object
    delta_eps: object       # grid eps actually used for the lookup
    delta: object
    orbit_bound: object
    records: tuple
    stride: int = 1             # every stride-th n and m is checked
    pairs_left_out: int = 0     # pairs n < m < len(states) - 1 the stride skips

    @property
    def vacuous(self) -> bool:
        return not self.records

    @property
    def violations(self) -> tuple:
        return tuple(r for r in self.records if not r.ok)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self) -> dict:
        return {
            "eps0": format_scalar(self.eps0),
            "delta_eps": format_scalar(self.delta_eps),
            "delta": format_scalar(self.delta),
            "orbit_bound": format_scalar(self.orbit_bound),
            "vacuous": self.vacuous,
            "ok": self.ok,
            "qualifying_pairs": len(self.records),
            "stride": self.stride,
            "pairs_left_out": self.pairs_left_out,
            "violations": [
                {"m": r.m, "n": r.n, "separation": format_scalar(r.separation),
                 "perimeter": format_scalar(r.perimeter), "bound": format_scalar(r.bound)}
                for r in self.violations
            ],
        }


# ---------------------------------------------------------------------------
# orbit generation

def picard_orbit(mapping: SelfMap, x0, max_steps: int, residual_tol=None,
                 halt_on_period2: bool = True) -> OrbitTrace:
    """Iterate x_{n+1} = T(x_n) until a fixed point, a 2-cycle, or the budget.

    residual_tol defaults to 0 in exact mode and 1e-10 in float mode.  With
    halt_on_period2=False the orbit runs to the budget even inside a 2-cycle,
    which is how the decay diagnostic exhibits the failure of the geometric
    bound on period-2 orbits.
    """
    space = mapping.space
    if max_steps < 2:
        raise InputError("max_steps must be at least 2")
    if residual_tol is None:
        residual_tol = default_residual_tol(space)

    states = [x0]
    halted_by = "budget"
    period2_entry = None
    while True:
        x = states[-1]
        t1 = apply(mapping, x)
        residual = space.distance(x, t1)
        if residual <= residual_tol:
            halted_by = "fixed-point"
            break
        if halt_on_period2 and space.eq(apply(mapping, t1), x):
            halted_by = "period-2"
            period2_entry = len(states) - 1
            # record one extra cycle revolution so P_n shows its plateau
            states.append(t1)
            states.append(x)
            states.append(t1)
            residual = space.distance(t1, apply(mapping, t1))
            break
        if len(states) == max_steps + 1:
            halted_by = "budget"
            break
        states.append(t1)

    states = tuple(states)
    step_dist = tuple(space.distance(states[n], states[n + 1])
                      for n in range(len(states) - 1))
    perimeters = tuple(perimeter(space, states[n], states[n + 1], states[n + 2])
                       for n in range(len(states) - 2))
    zero = Fraction(0) if space.exact else 0.0
    orbit_bound = max((space.distance(states[0], s) for s in states[1:]), default=zero)
    return OrbitTrace(
        space=space,
        map=mapping,
        x0=x0,
        states=states,
        step_dist=step_dist,
        perimeters=perimeters,
        orbit_bound=orbit_bound,
        halted_by=halted_by,
        residual=residual,
        period2_entry=period2_entry,
    )


# ---------------------------------------------------------------------------
# diagnostics

def check_perimeter_decrease(trace: OrbitTrace):
    """Verify P_{n+1} < P_n strictly along the recorded orbit.

    Returns (passed, first_violation_index, detail).  A trace that sat at a
    fixed point from the start (all perimeters zero) is a vacuous pass.
    """
    perims = trace.perimeters
    if perims and all(p == 0 for p in perims):
        return True, None, "vacuous: orbit already at a fixed point"
    if len(perims) < 2:
        if trace.halted_by == "fixed-point":
            return True, None, "vacuous: fixed point reached before two perimeters"
        raise InputError("trace too short: need at least 2 perimeter entries")
    exact = trace.space.exact
    slack = 0 if exact else ETA
    for n in range(len(perims) - 1):
        if not perims[n + 1] < perims[n] - slack:
            detail = (f"P_{n + 1} = {format_scalar(perims[n + 1])} does not drop below "
                      f"P_{n} = {format_scalar(perims[n])}")
            return False, n, detail
    return True, None, f"strictly decreasing over {len(perims)} perimeters"


def check_distinct_iterates(trace: OrbitTrace):
    """Verify no two recorded states coincide (fixed-point tails excepted).

    One pass keys each state exactly, by its index on a finite space and by
    its Fraction on a sampled one, as space.eq compares them.  The witness
    is the lex-first (i, j) with x_i = x_j: the pair of first and second
    occurrences of the key whose first occurrence comes first.  When the
    orbit halted at a fixed point, the repeats of that final state pass.
    """
    states = trace.states
    key = trace.space.index if isinstance(trace.space, FiniteMetricSpace) else Fraction
    keys = [key(s) for s in states]
    exempt = keys[-1] if trace.halted_by == "fixed-point" else None
    first, witness = {}, None
    for j, k in enumerate(keys):
        i = first.setdefault(k, j)
        if i < j and k != exempt and (witness is None or i < witness[0]):
            witness = (i, j)
    if witness is None:
        return True, None, "all recorded states are pairwise distinct"
    i, j = witness
    return False, witness, f"x_{i} = x_{j} = {format_point(states[i])}"


def sampled_images(space, mapping: SelfMap):
    """On a sampled space whose map has an array form: the points' numerators, the reduced
    image numerators and denominators (the map's array form), and per point the index of its
    image among the points, or -1 when the image lies off the sample; None otherwise."""
    if not isinstance(space, SampledSpace) or mapping.array_func is None:
        return None
    nums, den = space.numerator_array, space.denominator
    inum, iden = mapping.array_func(nums, den)
    # an image p/q is the point k/den when q divides den and k = p * (den / q) is a numerator;
    # |p| beyond the numerators' range over den / q is no point, and its product is not formed
    scale = np.where(den % iden == 0, den // iden, 0)
    reach = max(abs(int(nums[0])), abs(int(nums[-1])))
    near = (scale > 0) & (np.abs(inum) <= reach // np.maximum(scale, 1))
    k = inum * np.where(near, scale, 0)
    index = np.minimum(np.searchsorted(nums, k), len(nums) - 1)
    return nums, den, inum, iden, np.where(near & (nums[index] == k), index, -1)


def detect_period2(space, mapping: SelfMap, point_set=None) -> tuple:
    """Every x in the scope with T^2 x = x but Tx != x.

    Over a whole sampled space whose map has an array form, this is one
    array pass: the map's array form also takes each image's own
    denominator, so T^2 x comes without a Fraction per point.
    """
    sampled = sampled_images(space, mapping) if point_set is None else None
    if sampled is not None:
        nums, den, inum, iden, _ = sampled
        g = np.gcd(nums, den)
        fixed = (inum == nums // g) & (iden == den // g)
        again_num, again_den = mapping.array_func(inum, iden)
        hits = ~fixed & (again_num == nums // g) & (again_den == den // g)
        return tuple(Fraction(int(k), den) for k in nums[hits])
    pts = space.point_set() if point_set is None else tuple(point_set)
    hits = []
    for x in pts:
        t1 = apply(mapping, x)
        if space.eq(t1, x):
            continue
        if space.eq(apply(mapping, t1), x):
            hits.append(x)
    return tuple(hits)


def certify_fixed_point(mapping: SelfMap, x, tol=None):
    """FixedPointCertificate when d(x, Tx) <= tol, else None."""
    space = mapping.space
    if tol is None:
        tol = default_residual_tol(space)
    residual = space.distance(x, apply(mapping, x))
    if residual <= tol:
        return FixedPointCertificate(point=x, residual=residual, tolerance=tol)
    return None


def enumerate_fixed_points(space, mapping: SelfMap) -> tuple:
    """Exact fixed-point set by exhaustive scan of an enumerable space.

    Finite table spaces are always enumerable; a sampled space is accepted
    when the map closes over its sample (otherwise the scan would miss
    off-sample behaviour and the result would not be exact).  A map with an
    array form is read from its images' sample indices (sampled_images).
    """
    sampled = sampled_images(space, mapping)
    if sampled is not None:
        nums, den, _, _, index = sampled
        if (index < 0).any():
            raise InputError(
                "map does not close over the sample; fixed points cannot be "
                "enumerated exhaustively")
        fixed = np.flatnonzero(index == np.arange(len(nums)))
        return tuple(Fraction(int(k), den) for k in nums[fixed])
    pts = space.point_set()
    if isinstance(space, SampledSpace):
        sample = set(pts)
        for x in pts:
            if apply(mapping, x) not in sample:
                raise InputError(
                    "map does not close over the sample; fixed points cannot be "
                    "enumerated exhaustively")
    return tuple(x for x in pts if space.eq(apply(mapping, x), x))


def geometric_decay_check(trace: OrbitTrace, modulus_table, eps0) -> CauchyDiagnostic:
    """Check P(x_{m+1}, x_m, x_n) <= 4 L delta(eps0/3)^n on separated pairs.

    delta is looked up at the largest grid eps not exceeding eps0/3, which is
    conservative because moduli are non-increasing in eps.  Pairs require
    m > n and d(x_m, x_n) >= eps0; every recorded pair with m+1 in range is
    checked, but past PAIR_SCAN_LIMIT such states only every stride-th n and
    m = n + 1, n + 1 + stride, ...: the diagnostic records the stride and
    how many pairs it left out.
    """
    eps0 = Fraction(eps0) if trace.space.exact else float(eps0)
    if eps0 <= 0:
        raise InputError("eps0 must be positive")
    entry = modulus_table.lookup_at_or_below(Fraction(eps0) / 3)
    delta = entry.delta
    L = trace.orbit_bound
    states = trace.states
    top = len(states) - 1  # need x_{m+1}
    stride = 1
    if top > PAIR_SCAN_LIMIT:
        stride = -(-top // PAIR_SCAN_LIMIT)
    records = []
    space = trace.space
    bound_cache = {}
    for n in range(0, top, stride):
        for m in range(n + 1, top, stride):
            sep = space.distance(states[m], states[n])
            if sep < eps0:
                continue
            p = perimeter(space, states[m + 1], states[m], states[n])
            if n not in bound_cache:
                bound_cache[n] = 4 * L * delta ** n
            bound = bound_cache[n]
            records.append(DecayRecord(m=m, n=n, separation=sep, perimeter=p,
                                       bound=bound, ok=p <= bound))
    checked = sum(len(range(n + 1, top, stride)) for n in range(0, top, stride))
    return CauchyDiagnostic(
        eps0=eps0,
        delta_eps=entry.eps,
        delta=delta,
        orbit_bound=L,
        records=tuple(records),
        stride=stride,
        pairs_left_out=top * (top - 1) // 2 - checked,
    )
