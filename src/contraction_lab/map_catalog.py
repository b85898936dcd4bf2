"""Self-maps and the catalog of worked examples.

Maps are total and deterministic: table-backed on finite spaces,
formula-backed on sampled spaces.  Formula maps evaluate exactly on rational
inputs, and their images may fall off the sample grid; distances to off-grid
images stay computable because sampled spaces use the absolute-difference
metric.  Each catalog formula also has an array form, which maps the int64
sample numerators k of the points k/den to the reduced images as numerator
and positive denominator arrays, with no Fraction per point; the line scans
read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .metric_core import (
    FiniteMetricSpace,
    InputError,
    SampledSpace,
    check_line_range,
    parse_scalar,
)

# default truncation parameters for the sampled catalog spaces
DEFAULT_UNIT_GRID_STEP = Fraction(1, 512)
DEFAULT_INTEGER_MAX = 256
DEFAULT_COMPOSITE_INDEX_MAX = 50

CATALOG_IDS = ("burton_logistic", "floor_half", "period2_counterexample", "composite")


@dataclass(frozen=True)
class SelfMap:
    """A total deterministic map from a space's points to itself."""

    space: object
    name: str
    table: tuple = None        # image label per point index (finite spaces)
    func: object = None        # point -> point (sampled spaces)
    array_func: object = None  # (int64 numerators k, den) -> images of k/den (func's array form)

    def __post_init__(self):
        if (self.table is None) == (self.func is None):
            raise InputError("a self-map is either table-backed or formula-backed")
        if self.array_func is not None and self.func is None:
            raise InputError("only a formula-backed map has an array form")
        if self.table is not None:
            if len(self.table) != self.space.size:
                raise InputError("map table must cover every point")
            index = self.space._index
            for img in self.table:
                if img not in index:
                    raise InputError(f"map image {img!r} is not a point of the space")

    def __call__(self, x):
        return apply(self, x)

    def to_json(self) -> dict:
        if self.table is None:
            raise InputError("only table-backed maps serialize to JSON")
        idx = self.space._index
        return {
            "space": self.space.to_json(),
            "map": [idx[img] for img in self.table],
            "name": self.name,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SelfMap":
        try:
            space = FiniteMetricSpace.from_json(doc["space"])
            images = doc["map"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed map document: {exc}") from exc
        if not isinstance(images, list):
            raise InputError("map must be a JSON array of point indices")
        if len(images) != space.size:
            raise InputError("map table must cover every point")
        for i in images:
            if isinstance(i, bool) or not isinstance(i, int):
                raise InputError(f"map image index {i!r} is not an integer")
            if not 0 <= i < space.size:
                raise InputError(f"map image index {i} out of range 0..{space.size - 1}")
        table = tuple(space.points[i] for i in images)
        return cls(space=space, name=doc.get("name", "table_map"), table=table)


def apply(mapping: SelfMap, x):
    """Evaluate T(x)."""
    if mapping.table is not None:
        return mapping.table[mapping.space.index(x)]
    return mapping.func(x)


def iterate(mapping: SelfMap, x, k: int):
    """Evaluate T^k(x); k = 0 returns x unchanged."""
    if k < 0:
        raise InputError("iteration count must be nonnegative")
    for _ in range(k):
        x = apply(mapping, x)
    return x


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    space: object
    map: SelfMap
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# catalog spaces

def _grid_denominator(step: Fraction) -> int:
    """den for a grid step 1/den of the unit interval."""
    step = Fraction(step)
    if step <= 0 or 1 % step != 0:
        raise InputError("grid step must divide 1")
    return int(1 / step)


def burton_space(step: Fraction = DEFAULT_UNIT_GRID_STEP) -> SampledSpace:
    """[0, 1) sampled on a uniform grid (not complete: sup point missing)."""
    den = _grid_denominator(step)
    check_line_range(0, den - 1)
    return SampledSpace(
        description=f"[0,1) grid step 1/{den}",
        denominator=den,
        numerators=tuple(range(den)),
        complete=False,
    )


def integer_space(max_n: int = DEFAULT_INTEGER_MAX) -> SampledSpace:
    if max_n < 2:
        raise InputError("integer range must contain at least {0,1,2}")
    check_line_range(0, max_n)
    return SampledSpace(
        description=f"{{0,...,{max_n}}}",
        denominator=1,
        numerators=tuple(range(max_n + 1)),
        complete=True,
    )


def composite_space(step: Fraction = DEFAULT_UNIT_GRID_STEP,
                    index_max: int = DEFAULT_COMPOSITE_INDEX_MAX) -> SampledSpace:
    """[0,1] grid plus the integer tail {4n, 4n+1 : 1 <= n <= index_max}."""
    if index_max < 1:
        raise InputError("index_max must be at least 1")
    den = _grid_denominator(step)
    check_line_range(0, (4 * index_max + 1) * den)
    tail = (4 * np.arange(1, index_max + 1)[:, None] + [0, 1]) * den    # rows 4n, 4n + 1
    return SampledSpace(
        description=f"[0,1] grid step 1/{den} + {{4n,4n+1 : n<={index_max}}}",
        denominator=den,
        numerators=tuple(range(den + 1)) + tuple(tail.ravel().tolist()),
        complete=True,
    )


def period2_space() -> FiniteMetricSpace:
    pts = (0, 1, 2)
    table = tuple(tuple(Fraction(abs(i - j)) for j in pts) for i in pts)
    return FiniteMetricSpace(points=pts, dist_table=table, mode="exact")


# ---------------------------------------------------------------------------
# catalog map formulas (module-level so maps stay picklable)

def logistic_ratio(x):
    x = Fraction(x)
    if x == -1:
        raise InputError(f"{x} is not a point of the map x/(1+x): 1 + x is zero")
    return x / (1 + x)


def floor_half(x):
    return Fraction(int(Fraction(x)) // 2)


def composite_action(x):
    x = Fraction(x)
    if 0 <= x <= 1:
        return x / (1 + x)
    if x.denominator == 1 and x >= 4:
        k = int(x)
        n, r = divmod(k, 4)
        if r == 0:
            return Fraction(0)
        if r == 1:
            return 1 - Fraction(1, n)
    raise InputError(f"{x} is not a point of the composite space")


# their array forms: int64 numerators k of the points k/den, den one positive int or an array
# of them like k -> (image numerators, image denominators), reduced, denominators positive;
# equal to the formulas at every point

def logistic_ratio_array(k, den):
    """x/(1+x) at x = k/den: k/(den + k)."""
    num, d = k, den + k
    if not d.all():
        raise InputError("-1 is not a point of the map x/(1+x): 1 + x is zero")
    g = np.gcd(num, d) * np.sign(d)
    return num // g, d // g


def floor_half_array(k, den):
    """floor_half at k/den: the truncated quotient, halved, over 1."""
    whole = np.abs(k) // den * np.sign(k)
    return whole // 2, np.ones_like(k)


def composite_action_array(k, den):
    """composite_action at k/den: x/(1+x) on [0, 1], 4n -> 0 and 4n+1 -> (n-1)/n on the tail."""
    grid = (k >= 0) & (k <= den)
    whole, rem = np.divmod(k, den)
    n, r = np.divmod(whole, 4)
    tail = (rem == 0) & (whole >= 4) & (r <= 1)
    if not (grid | tail).all():
        bad = ~(grid | tail)
        point = Fraction(int(k[bad][0]), int(np.broadcast_to(den, k.shape)[bad][0]))
        raise InputError(f"{point} is not a point of the composite space")
    num, d = logistic_ratio_array(k, den)
    num = np.where(grid, num, np.where(r == 0, 0, n - 1))
    return num, np.where(grid, d, np.where(r == 0, 1, n))


def catalog(entry_id: str,
            grid_step: Fraction = None,
            integer_max: int = None,
            index_max: int = None) -> CatalogEntry:
    """Build a catalog instance, optionally overriding truncation parameters."""
    if entry_id == "burton_logistic":
        step = Fraction(grid_step) if grid_step is not None else DEFAULT_UNIT_GRID_STEP
        space = burton_space(step)
        return CatalogEntry(
            id=entry_id,
            space=space,
            map=SelfMap(space=space, name="x/(1+x)", func=logistic_ratio,
                        array_func=logistic_ratio_array),
            params={"grid_step": str(step)},
        )
    if entry_id == "floor_half":
        top = integer_max if integer_max is not None else DEFAULT_INTEGER_MAX
        space = integer_space(top)
        return CatalogEntry(
            id=entry_id,
            space=space,
            map=SelfMap(space=space, name="floor(n/2)", func=floor_half,
                        array_func=floor_half_array),
            params={"integer_max": top},
        )
    if entry_id == "period2_counterexample":
        space = period2_space()
        return CatalogEntry(
            id=entry_id,
            space=space,
            map=SelfMap(space=space, name="0->1,1->0,2->1", table=(1, 0, 1)),
            params={},
        )
    if entry_id == "composite":
        step = Fraction(grid_step) if grid_step is not None else DEFAULT_UNIT_GRID_STEP
        top = index_max if index_max is not None else DEFAULT_COMPOSITE_INDEX_MAX
        space = composite_space(step, top)
        return CatalogEntry(
            id=entry_id,
            space=space,
            map=SelfMap(space=space, name="composite", func=composite_action,
                        array_func=composite_action_array),
            params={"grid_step": str(step), "index_max": top},
        )
    raise InputError(f"unknown catalog id {entry_id!r}; known: {', '.join(CATALOG_IDS)}")


def load_instance(path) -> tuple:
    """Read a JSON instance file holding a finite space and a table map."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:   # bad JSON or UTF-8, or an int past Python's digit limit
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    mapping = SelfMap.from_json(doc)
    return mapping.space, mapping


def resolve_point(space, text):
    """Interpret a CLI point argument for the given space."""
    if isinstance(space, FiniteMetricSpace):
        for candidate in (text, *(f(text) for f in (int,) if _parses(f, text))):
            if candidate in space._index:
                return candidate
        raise InputError(f"unknown point identifier {text!r}")
    value = parse_scalar(text, exact=True)
    return Fraction(value)


def _parses(f, text):
    try:
        f(text)
        return True
    except (TypeError, ValueError):
        return False
