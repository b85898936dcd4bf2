"""Metric spaces with exact or tolerance-based arithmetic.

Two space representations are provided: finite spaces backed by a distance
table, and sampled one-dimensional spaces whose points are rational
coordinates under the absolute-difference metric.  A finite space loaded
from JSON is stored as its lattice (int64 numerators over one scale, or
float64), parsed straight from the document; its table rows of Fractions
or floats are built only when read.  All strict-inequality
decisions are exact in rational mode; float mode compares with a fixed
tolerance ETA.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Union

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
    except (TypeError, ValueError, OverflowError) as exc:
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


class FiniteMetricSpace:
    """Point labels plus a symmetric distance table.

    In exact mode entries are Fractions and every comparison is decided
    exactly; in float mode entries are floats compared with tolerance ETA.
    A space built from a table keeps that table as ``dist_table``.  A space
    loaded by from_json stores its table as its Lattice only: ``dist_table``
    is then a view whose rows are built from the lattice on first read and
    cached, and ``distance`` indexes the same cached rows.
    """

    def __init__(self, points, dist_table, mode: str = "exact"):
        self._init_points(points, mode)
        n = len(self.points)
        if any(len(row) != n for row in dist_table) or len(dist_table) != n:
            raise InputError("distance table must be square and match the point count")
        self.dist_table = dist_table
        self._rows = dist_table

    def _init_points(self, points, mode):
        if mode not in ("exact", "float"):
            raise InputError(f"unknown arithmetic mode {mode!r}")
        if len(set(points)) != len(points):
            raise InputError("point labels must be distinct")
        if len(points) < 3:
            raise InputError("a metric space here carries at least 3 points")
        self.points = tuple(points)
        self.mode = mode
        self._index = {p: i for i, p in enumerate(self.points)}

    @classmethod
    def _from_lattice(cls, points, lattice, mode):
        """A space stored as its n x n lattice; rows are built on read."""
        space = cls.__new__(cls)
        space._init_points(points, mode)
        space.lattice = lattice
        space._rows = [None] * len(space.points)
        space.dist_table = _LatticeRows(space)
        return space

    def _row(self, i):
        """Row i of the table, built from the lattice on its first read."""
        row = self._rows[i]
        if row is None:
            lattice = self.lattice
            values = lattice.values[i].tolist()
            if lattice.exact:
                row = tuple(Fraction(v, lattice.scale) for v in values)
            else:
                row = tuple(values)
            self._rows[i] = row
        return row

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return (self.points == other.points and self.mode == other.mode
                and tuple(self.dist_table) == tuple(other.dist_table))

    def __hash__(self):
        return hash((self.points, self.mode))

    def __repr__(self):
        return f"FiniteMetricSpace(points={self.points!r}, mode={self.mode!r})"

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
        # the hot path of orbit and sweep checks: two dict lookups, one row index
        index = self._index
        try:
            i = index[a]
            j = index[b]
        except KeyError:
            i, j = self.index(a), self.index(b)     # raises InputError for the unknown label
        row = self._rows[i]
        if row is None:
            row = self._row(i)
        return row[j]

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

    def fingerprint(self) -> str:
        """A sha256 hex digest of the stored form: mode, points and table.

        The table enters as its lattice (scale and values) when it has one,
        so no row is built; otherwise as its formatted rows.
        """
        h = hashlib.sha256(json.dumps([self.mode, list(self.points)], default=str).encode())
        lattice = self.lattice
        if lattice is None:
            h.update(json.dumps(self.to_json()["dist"]).encode())
        else:
            h.update(f"{lattice.scale}:".encode())
            h.update(lattice.values.tobytes())
        return h.hexdigest()

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "dist": [[format_scalar(v) for v in row] for row in self.dist_table],
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FiniteMetricSpace":
        """Load and validate a space document.

        An exact table of "p/q" strings and ints, or a float table of JSON
        numbers, is read straight into its Lattice (see _ratio_lattice and
        _float_lattice).  Any other table, or one without a lattice, is
        parsed entry by entry with parse_scalar.
        """
        try:
            points = doc["points"]
            mode = doc.get("mode", "exact")
            rows = doc["dist"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed space document: {exc}") from exc
        if not isinstance(points, list):
            raise InputError("space points must be a JSON array")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InputError("distance table must be a JSON array of row arrays")
        exact = mode == "exact"
        n = len(points)
        lattice = None
        if mode in ("exact", "float") and n >= 3 and len(rows) == n and all(
                len(row) == n for row in rows):
            lattice = _ratio_lattice(rows) if exact else _float_lattice(rows)
        if lattice is not None:
            space = cls._from_lattice(points, lattice, mode)
        else:
            table = tuple(tuple(parse_scalar(v, exact) for v in row) for row in rows)
            space = cls(points=tuple(points), dist_table=table, mode=mode)
        return space._validated()

    def in_mode(self, mode: str) -> "FiniteMetricSpace":
        """This space in the given arithmetic mode, validated as from_json validates.

        An exact table with a lattice becomes float64 by dividing the lattice
        by its scale: both are below 2**53, so each quotient is the correctly
        rounded float of the exact distance, as parsing its "p/q" string
        gives.  Any other table goes through its JSON document.
        """
        lattice = self.lattice
        if mode == "float" and lattice is not None and lattice.exact:
            floats = _float_array_lattice(lattice.values / lattice.scale)
            if floats is not None:
                return FiniteMetricSpace._from_lattice(self.points, floats, mode)._validated()
        doc = self.to_json()
        doc["mode"] = mode
        return FiniteMetricSpace.from_json(doc)

    def _validated(self):
        report = self.validate()
        if not report.ok:
            raise InputError(f"distance table is not a metric ({report.summary()})")
        return self


class _LatticeRows(Sequence):
    """The dist_table of a lattice-stored space: row i is built on its first read."""

    __slots__ = ("_space",)

    def __init__(self, space):
        self._space = space

    def __len__(self):
        return len(self._space._rows)

    def __getitem__(self, i):
        return self._space._row(i)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None


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
        return Lattice(values=values.reshape(n, n), scale=scale, exact=True)
    if not all(type(v) is float for v in entries):
        return None
    return _float_array_lattice(np.array(entries, dtype=np.float64).reshape(n, n))


def _float_array_lattice(values):
    """The Lattice of a float64 table, or None when a nonzero |entry| lies
    outside FLOAT_LATTICE_RANGE (NaN and inf included)."""
    size = np.abs(values)
    lo, hi = FLOAT_LATTICE_RANGE
    if not ((size == 0) | ((size >= lo) & (size <= hi))).all():
        return None
    return Lattice(values=values, scale=1, exact=False)


_RATIO_CHARS = "0123456789+-/"
_RATIO_TYPES = {str, int}
_FLOAT_TYPES = {float, int}


def _ratio_lattice(rows):
    """The exact Lattice of a square table of "[+-]digits[/digits]" strings and ints.

    Entries are split into int numerators and denominators without building
    Fractions, reduced by their gcd, and put over the lcm of the
    denominators: the same Lattice that table_lattice gives for the parsed
    table.  None when an entry has any other form or a zero denominator,
    and whenever the lattice would not exist: int64 overflow, or a scale or
    3 * max |value| of at least LATTICE_LIMIT (an unreduced numerator that
    large also gives None, which keeps the int64 steps exact).  The caller
    then parses the table with parse_scalar, which raises its errors, and
    table_lattice decides.
    """
    nums = []
    dens = []
    try:
        for row in rows:
            types = set(map(type, row))
            if not types <= _RATIO_TYPES:
                return None
            cells = row if types == {str} else [str(v) for v in row]
            text = "".join(cells)
            # only digits, signs and slashes, and no sign after a slash: the
            # cells int() then splits are exactly "[+-]digits[/digits]"
            if text.strip(_RATIO_CHARS) or "/+" in text or "/-" in text:
                return None
            for cell in cells:
                num, slash, den = cell.partition("/")
                nums.append(int(num))
                dens.append(int(den) if slash else 1)
        num = np.array(nums, dtype=np.int64)
        den = np.array(dens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    limit = (LATTICE_LIMIT - 1) // 3       # 3 * |value| < LATTICE_LIMIT
    if not den.all() or num.min() < -limit or num.max() > limit:
        return None
    g = np.gcd(num, den)                   # gcd(0, q) = q: zero becomes 0/1, as in Fraction
    num //= g
    den //= g
    scale = 1
    for q in np.unique(den).tolist():
        scale = math.lcm(scale, q)
        if scale >= LATTICE_LIMIT:
            return None
    mult = scale // den
    if (np.abs(num) > limit // mult).any():
        return None
    n = len(rows)
    return Lattice(values=(num * mult).reshape(n, n), scale=scale, exact=True)


def _float_lattice(rows):
    """The float Lattice of a square table of JSON numbers, or None.

    The numbers go to one float64 array; the FLOAT_LATTICE_RANGE check runs
    on it, and since that range excludes NaN, inf and values beyond
    FLOAT_LIMIT, a table that passes has no non-finite entry either.  None
    for any other entry type (strings, bools) or a value outside the range.
    """
    if any(not set(map(type, row)) <= _FLOAT_TYPES for row in rows):
        return None
    try:
        values = np.array(rows, dtype=np.float64)
    except OverflowError:
        return None
    return _float_array_lattice(values)


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
    table's precomputed Lattice, square by construction; without one it is
    computed here.  Tables without a lattice are checked by the reference
    loops.  With a lattice, table entries are read only as witnesses of
    violations.
    """
    n = len(dist_table)
    if lattice is None:
        if any(len(row) != n for row in dist_table):
            raise InputError("distance table must be square")
        lattice = table_lattice(dist_table, exact)
    finite = ()
    if lattice is None:
        if not exact:
            finite = tuple((i, j, v) for i, row in enumerate(dist_table)
                           for j, v in enumerate(row) if not abs(v) <= FLOAT_LIMIT)
        axioms = _metric_violations_loops(dist_table, exact)
    else:
        # FLOAT_LATTICE_RANGE excludes NaN, inf and |v| > FLOAT_LIMIT: no finite entries
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
        for j, k in zip(js.tolist(), ks.tolist()):
            row = dist_table[i]
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
