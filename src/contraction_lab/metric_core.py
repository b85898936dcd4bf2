"""Metric spaces with exact or tolerance-based arithmetic.

Two space representations are provided: finite spaces backed by an explicit
distance table, and sampled one-dimensional spaces whose points are rational
coordinates under the absolute-difference metric.  All strict-inequality
decisions are exact in rational mode; float mode compares with a fixed
tolerance ETA.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence, Union

import numpy as np

ETA = 1e-12  # margin required for strict-inequality verdicts in float mode
FLOAT_LIMIT = sys.float_info.max / 3   # larger float distances overflow perimeters
LATTICE_LIMIT = 2 ** 53   # 3 * max |numerator| stays below this on the int64 lattice
# nonzero |entries| of a float lattice: products and quotients of perimeters stay normal
FLOAT_LATTICE_RANGE = (2.0 ** -200, 2.0 ** 200)

Scalar = Union[Fraction, float, int]


class InputError(ValueError):
    """Raised when a caller violates an operation's precondition."""


class InternalConsistencyError(RuntimeError):
    """Raised when sub-verdicts that must agree by construction disagree."""


# ---------------------------------------------------------------------------
# scalar helpers

def parse_scalar(value, exact: bool = True) -> Scalar:
    """Parse a number or a "p/q" / decimal string into the requested mode."""
    if isinstance(value, bool):
        raise InputError(f"not a scalar: {value!r}")
    if exact:
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(value).limit_denominator(10 ** 12)
        if isinstance(value, str):
            try:
                return Fraction(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"cannot parse scalar {value!r}") from exc
        raise InputError(f"cannot parse scalar {value!r}")
    if isinstance(value, str) and "/" in value:
        # "p/q" in float mode: the correctly rounded float of the exact quotient
        try:
            return float(Fraction(value.strip()))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"cannot parse scalar {value!r}") from exc
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot parse scalar {value!r}") from exc


def format_scalar(value: Scalar) -> str:
    """Render a scalar losslessly ("p/q" for rationals, repr for floats)."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def strictly_less(a: Scalar, b: Scalar, exact: bool) -> bool:
    """a < b, requiring an ETA margin in float mode."""
    if exact:
        return a < b
    return a < b - ETA


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class ValidationReport:
    """Per-axiom violation lists; each entry carries a concrete witness."""

    size: int
    diagonal: tuple = ()            # (i, value): dist[i][i] != 0
    positivity: tuple = ()          # (i, j, value): off-diagonal <= 0
    symmetry: tuple = ()            # (i, j, d_ij, d_ji)
    triangle: tuple = ()            # (i, j, k, d_ik, d_ij + d_jk)
    finite: tuple = ()              # (i, j, value): float NaN, inf or |value| > FLOAT_LIMIT

    @property
    def ok(self) -> bool:
        return not (self.diagonal or self.positivity or self.symmetry or self.triangle
                    or self.finite)

    def summary(self) -> str:
        if self.ok:
            return "metric: all axioms hold"
        parts = []
        for name in ("finite", "diagonal", "positivity", "symmetry", "triangle"):
            items = getattr(self, name)
            if items:
                parts.append(f"{name}: {len(items)} violation(s), first {items[0]}")
        return "; ".join(parts)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Point labels plus a symmetric distance table.

    In exact mode entries are Fractions and every comparison is decided
    exactly; in float mode entries are floats compared with tolerance ETA.
    """

    points: tuple
    dist_table: tuple
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise InputError(f"unknown arithmetic mode {self.mode!r}")
        if len(set(self.points)) != len(self.points):
            raise InputError("point labels must be distinct")
        if len(self.points) < 3:
            raise InputError("a metric space here carries at least 3 points")
        n = len(self.points)
        if any(len(row) != n for row in self.dist_table) or len(self.dist_table) != n:
            raise InputError("distance table must be square and match the point count")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    @property
    def exact(self) -> bool:
        return self.mode == "exact"

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InputError(f"unknown point identifier {label!r}") from None

    def distance(self, a, b) -> Scalar:
        return self.dist_table[self.index(a)][self.index(b)]

    def eq(self, a, b) -> bool:
        return self.index(a) == self.index(b)

    def point_set(self) -> tuple:
        return self.points

    @cached_property
    def lattice(self):
        """The table's Lattice, or None when the scans must run their loops."""
        return table_lattice(self.dist_table, self.exact)

    def validate(self) -> ValidationReport:
        return validate_metric(self.dist_table, exact=self.exact, lattice=self.lattice)

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "dist": [[format_scalar(v) for v in row] for row in self.dist_table],
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteMetricSpace":
        try:
            points = tuple(doc["points"])
            mode = doc.get("mode", "exact")
            rows = doc["dist"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed space document: {exc}") from exc
        exact = mode == "exact"
        table = tuple(tuple(parse_scalar(v, exact) for v in row) for row in rows)
        space = cls(points=points, dist_table=table, mode=mode)
        report = space.validate()
        if not report.ok:
            raise InputError(f"distance table is not a metric ({report.summary()})")
        return space


@dataclass(frozen=True)
class SampledSpace:
    """A deterministic rational sample of a subset of the real line.

    All sample coordinates are numerator/denominator with one shared
    denominator, so qualification thresholds (distance >= eps) can be decided
    in integer arithmetic.  Distances are absolute differences and remain
    well-defined for off-sample rational values such as map images.
    """

    description: str
    denominator: int
    numerators: tuple
    complete: bool = True

    def __post_init__(self):
        if self.denominator <= 0:
            raise InputError("denominator must be positive")
        nums = tuple(self.numerators)
        if len(set(nums)) != len(nums):
            raise InputError("sample coordinates must be distinct")
        if list(nums) != sorted(nums):
            raise InputError("sample coordinates must be sorted ascending")
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(
            self, "_points", tuple(Fraction(k, self.denominator) for k in nums)
        )

    mode = "exact"

    @property
    def exact(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return len(self.numerators)

    def point_set(self) -> tuple:
        return self._points

    def distance(self, a, b) -> Fraction:
        return abs(Fraction(a) - Fraction(b))

    def eq(self, a, b) -> bool:
        return Fraction(a) == Fraction(b)

    def as_finite(self) -> FiniteMetricSpace:
        pts = self.point_set()
        table = tuple(tuple(abs(p - q) for q in pts) for p in pts)
        return FiniteMetricSpace(points=pts, dist_table=table, mode="exact")

    def to_json(self) -> dict:
        return {
            "sampled": self.description,
            "denominator": self.denominator,
            "numerators": list(self.numerators),
            "complete": self.complete,
        }


# ---------------------------------------------------------------------------
# the integer lattice of a finite table

@dataclass(frozen=True)
class Lattice:
    """A distance table as one numpy array.

    Exact tables become int64 numerators over the lcm ``scale`` of their
    denominators, so sums and comparisons are exact integer operations; float
    tables stay float64 with ``scale`` 1, and numpy's IEEE arithmetic gives
    the same bits as Python's for each sum taken in the same order.
    """

    values: np.ndarray
    scale: int
    exact: bool

    def scalar(self, v):
        """The table scalar for one lattice value."""
        return Fraction(int(v), self.scale) if self.exact else float(v)


def table_lattice(dist_table, exact: bool):
    """Convert a square table to its Lattice, or None when loops must run.

    None is returned for entries of any other type than the mode's own
    (Fraction, or float), for exact tables whose perimeters would reach 2**53
    (3 * max |numerator| >= LATTICE_LIMIT, beyond which int64 sums and float64
    ratios stop being exact), and for float tables with NaN, inf, or a nonzero
    entry outside FLOAT_LATTICE_RANGE, where perimeter products could
    overflow or lose precision.
    """
    n = len(dist_table)
    entries = [v for row in dist_table for v in row]
    if exact:
        if not all(type(v) is Fraction for v in entries):
            return None
        scale = math.lcm(*{v.denominator for v in entries})
        try:
            values = np.fromiter((v.numerator * (scale // v.denominator) for v in entries),
                                 dtype=np.int64, count=len(entries))
        except OverflowError:
            return None
        if len(entries) and 3 * max(int(values.max()), -int(values.min())) >= LATTICE_LIMIT:
            return None
    else:
        if not all(type(v) is float for v in entries):
            return None
        values = np.array(entries, dtype=np.float64)
        size = np.abs(values)
        lo, hi = FLOAT_LATTICE_RANGE
        if not ((size == 0) | ((size >= lo) & (size <= hi))).all():
            return None
        scale = 1
    return Lattice(values=values.reshape(n, n), scale=scale, exact=exact)


# ---------------------------------------------------------------------------
# operations

def perimeter(space, a, b, c) -> Scalar:
    """Sum of the three pairwise distances; permutation invariant.

    Distinctness is not required: degenerate triangles have well-defined
    (possibly zero) perimeter.
    """
    return space.distance(a, b) + space.distance(b, c) + space.distance(a, c)


def max_side(space, a, b, c) -> Scalar:
    return max(space.distance(a, b), space.distance(b, c), space.distance(a, c))


def validate_metric(dist_table: Sequence[Sequence[Scalar]], exact: bool = True,
                    lattice=None) -> ValidationReport:
    """List every violated metric axiom with a concrete witness.

    The report is empty exactly when the table is a metric.  Float tables
    only report violations exceeding the ETA margin, and report every NaN,
    infinite or overflowing (beyond FLOAT_LIMIT) entry.  ``lattice`` is the
    table's precomputed Lattice; without one it is computed here.  Tables
    without a lattice are checked by the reference loops.
    """
    n = len(dist_table)
    if any(len(row) != n for row in dist_table):
        raise InputError("distance table must be square")
    finite = ()
    if not exact:
        finite = tuple((i, j, v) for i, row in enumerate(dist_table)
                       for j, v in enumerate(row) if not abs(v) <= FLOAT_LIMIT)
    if lattice is None:
        lattice = table_lattice(dist_table, exact)
    if lattice is None:
        axioms = _metric_violations_loops(dist_table, exact)
    else:
        axioms = _metric_violations_lattice(dist_table, lattice)
    return ValidationReport(size=n, finite=finite, **axioms)


def _metric_violations_loops(dist_table, exact):
    """Per-axiom violation lists by direct enumeration (the reference)."""
    n = len(dist_table)
    slack = 0 if exact else ETA
    diagonal = []
    positivity = []
    symmetry = []
    triangle = []
    for i in range(n):
        if abs(dist_table[i][i]) > slack:
            diagonal.append((i, dist_table[i][i]))
    for i, j in combinations(range(n), 2):
        if dist_table[i][j] <= slack:
            positivity.append((i, j, dist_table[i][j]))
        if abs(dist_table[i][j] - dist_table[j][i]) > slack:
            symmetry.append((i, j, dist_table[i][j], dist_table[j][i]))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            dij = dist_table[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dist_table[i][k] > dij + dist_table[j][k] + slack:
                    triangle.append((i, j, k, dist_table[i][k], dij + dist_table[j][k]))
    return {"diagonal": tuple(diagonal), "positivity": tuple(positivity),
            "symmetry": tuple(symmetry), "triangle": tuple(triangle)}


def _metric_violations_lattice(dist_table, lattice):
    """The same lists as the reference loops, found by numpy masks.

    Masks locate the violations in the reference order; each witness is then
    read from the table itself, so entries match the loops exactly.
    """
    d = lattice.values
    n = len(d)
    slack = 0 if lattice.exact else ETA
    diagonal = [(i, dist_table[i][i])
                for i in np.flatnonzero(np.abs(np.diagonal(d)) > slack).tolist()]
    rows, cols = np.triu_indices(n, 1)
    upper = d[rows, cols]
    lower = d[cols, rows]
    hits = upper <= slack
    positivity = [(i, j, dist_table[i][j])
                  for i, j in zip(rows[hits].tolist(), cols[hits].tolist())]
    hits = np.abs(upper - lower) > slack
    symmetry = [(i, j, dist_table[i][j], dist_table[j][i])
                for i, j in zip(rows[hits].tolist(), cols[hits].tolist())]
    triangle = []
    off_diagonal = ~np.eye(n, dtype=bool)
    for i in range(n):
        # bad[j, k]: d_ik > d_ij + d_jk (+ slack), for j, k distinct from i and each other
        bad = d[i][None, :] > d[i][:, None] + d + slack
        bad &= off_diagonal
        bad[i, :] = False
        bad[:, i] = False
        js, ks = np.nonzero(bad)
        row = dist_table[i]
        for j, k in zip(js.tolist(), ks.tolist()):
            triangle.append((i, j, k, row[k], row[j] + dist_table[j][k]))
    return {"diagonal": tuple(diagonal), "positivity": tuple(positivity),
            "symmetry": tuple(symmetry), "triangle": tuple(triangle)}


def metric_repair(table: Sequence[Sequence[Scalar]], points=None, mode: str = "exact") -> FiniteMetricSpace:
    """Shortest-path closure of a symmetric positive table.

    The result satisfies all metric axioms, never exceeds the input
    entrywise, and is the input itself when that is already a metric.
    """
    n = len(table)
    if any(len(row) != n for row in table):
        raise InputError("distance table must be square")
    exact = mode == "exact"
    slack = 0 if exact else ETA
    for i in range(n):
        if abs(table[i][i]) > slack:
            raise InputError(f"diagonal entry ({i},{i}) must be zero")
    for i, j in combinations(range(n), 2):
        if table[i][j] != table[j][i]:
            raise InputError(f"table must be symmetric; entries ({i},{j}) differ")
        if table[i][j] <= slack:
            raise InputError(f"off-diagonal entry ({i},{j}) must be positive (points are distinct)")

    dist = [list(row) for row in table]
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            di = dist[i]
            for j in range(n):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
    if points is None:
        points = tuple(range(n))
    return FiniteMetricSpace(
        points=tuple(points),
        dist_table=tuple(tuple(row) for row in dist),
        mode=mode,
    )
