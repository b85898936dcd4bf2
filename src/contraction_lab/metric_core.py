"""Metric spaces with exact or tolerance-based arithmetic.

Two space representations are provided: finite spaces backed by a distance
table, and sampled one-dimensional spaces whose points are rational
coordinates under the absolute-difference metric.  A finite space is
stored as its lattice (numerators over one scale, or float64), parsed
straight from the document when loaded (an exact table's cells are checked
as bytes and read by one np.fromstring, see _ratio_parts); its table rows
of Fractions or floats are built only when read.  All strict-inequality
decisions are exact in rational mode; float mode compares with a fixed
tolerance ETA.  shortest_path_closure is the one shortest-path closure, run
by metric_repair and by theorem_lab's validation sweep.  pair_grid(n) is the
one layout of an n-point table's pairs i < j, read by validate_metric, the
table engine (scan) and the sweep's table fill.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from numbers import Real
from typing import Union

import numpy as np

ETA = 1e-12  # margin required for strict-inequality verdicts in float mode
FLOAT_LIMIT = sys.float_info.max / 3   # larger float distances overflow perimeters
LATTICE_LIMIT = 2 ** 53   # 3 * max |numerator| stays below this on the int64 lattice
INT64_MAX = 2 ** 63 - 1
# nonzero |entries| of a screenable float lattice: perimeter products and quotients stay normal
FLOAT_LATTICE_RANGE = (2.0 ** -200, 2.0 ** 200)
TRIANGLE_BLOCK = 1 << 17   # bytes per temporary of a numpy pass of validate_metric's triangle check

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


def format_point(p):
    """Render a point label for output: a Fraction as "p/q", any other label as it is."""
    return str(p) if isinstance(p, Fraction) else p


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
    A space stores its table as its Lattice only (see table_lattice for the
    entries a table built in code may hold): ``dist_table`` is a view whose
    rows are built from the lattice on first read and cached, and
    ``distance`` converts the one lattice value it reads.
    """

    def __init__(self, points, dist_table, mode: str = "exact"):
        self._init_points(points, mode)
        self._store(table_lattice(dist_table, self.exact))

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
        """A space stored as its n x n lattice."""
        space = cls.__new__(cls)
        space._init_points(points, mode)
        space._store(lattice)
        return space

    def _store(self, lattice):
        if len(lattice.values) != len(self.points):
            raise InputError("distance table must be square and match the point count")
        self.lattice = lattice
        self._rows = [None] * len(self.points)
        self.dist_table = _LatticeRows(self)

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
        # the hot path of orbit and sweep checks: two dict lookups, one lattice value
        index = self._index
        try:
            i = index[a]
            j = index[b]
        except KeyError:
            i, j = self.index(a), self.index(b)     # raises InputError for the unknown label
        return self.lattice.scalar(self.lattice.values.item(i, j))

    def eq(self, a, b) -> bool:
        return self.index(a) == self.index(b)

    def point_set(self) -> tuple:
        return self.points

    def validate(self) -> ValidationReport:
        return validate_metric(self.lattice)

    def fingerprint(self) -> str:
        """A sha256 hex digest of the stored form: mode, points and table.

        The table enters as its lattice's scale and value bytes when the
        lattice is screenable, so no row is built; otherwise as its
        formatted rows (the bytes of an object array are pointers).
        """
        h = hashlib.sha256(json.dumps([self.mode, list(self.points)], default=str).encode())
        lattice = self.lattice
        if lattice.screenable:
            h.update(f"{lattice.scale}:".encode())
            h.update(lattice.values.tobytes())
        else:
            h.update(json.dumps(self.to_json()["dist"]).encode())
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
        _float_lattice).  Any other table, and any the two decline, is
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

        An exact lattice becomes float64 by dividing each value by the scale
        as Python ints, which gives the correctly rounded float of the exact
        distance, as parsing its "p/q" string does.  A float table goes
        through its JSON document.
        """
        lattice = self.lattice
        if mode == "float" and lattice.exact:
            try:
                floats = (lattice.values.astype(object) / lattice.scale).astype(np.float64)
            except OverflowError:
                raise InputError("a distance is too large for a float") from None
            return FiniteMetricSpace._from_lattice(
                self.points, Lattice(floats, 1, False), mode)._validated()
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


def check_line_range(lo: int, hi: int):
    """Refuse sample numerators lo <= ... <= hi that the line engine cannot hold.

    It stores the numerators, their spans and one past the longest span as
    int64, so all three must fit.  Catalog spaces check their largest
    numerator here before they build anything.
    """
    if lo < -INT64_MAX - 1 or hi >= INT64_MAX or hi - lo >= INT64_MAX:
        raise InputError(f"sample numerators {lo}..{hi} do not fit int64, the line engine's "
                         f"bound: choose a smaller truncation")


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
        if nums:
            check_line_range(nums[0], nums[-1])
        object.__setattr__(self, "numerators", nums)

    @cached_property
    def numerator_array(self) -> np.ndarray:
        """The numerators as a read-only int64 array."""
        nums = np.array(self.numerators, dtype=np.int64)
        nums.flags.writeable = False
        return nums

    @cached_property
    def _points(self) -> tuple:
        return tuple(Fraction(k, self.denominator) for k in self.numerators)

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

    Exact tables become integer numerators over the lcm ``scale`` of their
    denominators, so sums and comparisons are exact integer operations: int64
    when 3 * max |numerator| < LATTICE_LIMIT, so that perimeters fit, and an
    object array of Python ints otherwise.  Float tables stay float64 with
    ``scale`` 1, and numpy's IEEE arithmetic gives the same bits as Python's
    for each sum taken in the same order.
    """

    values: np.ndarray
    scale: int
    exact: bool

    def scalar(self, v):
        """The table scalar for one lattice value."""
        return Fraction(int(v), self.scale) if self.exact else float(v)

    def with_values(self, values: np.ndarray) -> "Lattice":
        """The Lattice of a square array in this lattice's units, reduced by exact_lattice when exact."""
        if self.exact:
            return exact_lattice(values, self.scale)
        return Lattice(values=values, scale=1, exact=False)

    @cached_property
    def screenable(self) -> bool:
        """True for an int64 lattice and for a float lattice in FLOAT_LATTICE_RANGE.

        On a float lattice whose nonzero |entries| lie in FLOAT_LATTICE_RANGE,
        perimeter products and quotients stay normal, and the scans screen
        candidates by float ratio only there.  They screen every exact lattice,
        since a quotient of ints is correctly rounded at any size, so in exact
        mode this only chooses the form in which fingerprint() hashes the
        table: the value bytes of an int64 lattice, the formatted rows of an
        object one.
        """
        if self.exact:
            return self.values.dtype != object
        size = np.abs(self.values)
        lo, hi = FLOAT_LATTICE_RANGE
        return bool(((size == 0) | ((size >= lo) & (size <= hi))).all())


# The entry types every table of the mode accepts (exact, float), tested in
# one pass; a table holding any other type runs the per-entry check.
_PLAIN_TYPES = {True: {int, Fraction}, False: {int, float, Fraction}}


def table_lattice(dist_table, exact: bool) -> Lattice:
    """Convert a square table of the mode's scalars to its Lattice.

    Exact tables hold ints and Fractions; float tables hold real numbers,
    converted with float().  Any other entry, a bool included, or a ragged
    table raises InputError, which names the first bad entry.
    """
    n = len(dist_table)
    if any(len(row) != n for row in dist_table):
        raise InputError("distance table must be square")
    entries = [v for row in dist_table for v in row]

    def refused(t, why):
        mode = "exact" if exact else "float"
        return InputError(f"distance table entry {divmod(t, n)} is {entries[t]!r}: {why} "
                          f"in {mode} mode")

    kinds, wanted = ((int, Fraction), "an int or a Fraction") if exact else (Real, "a real number")
    if not set(map(type, entries)) <= _PLAIN_TYPES[exact]:
        for t, v in enumerate(entries):
            if isinstance(v, bool) or not isinstance(v, kinds):
                raise refused(t, f"not {wanted}")
    if exact:
        scale = math.lcm(*{v.denominator for v in entries})
        nums = [v.numerator * (scale // v.denominator) for v in entries]
        return exact_lattice(np.array(nums, dtype=object).reshape(n, n), scale)
    floats = []
    for t, v in enumerate(entries):
        try:
            floats.append(float(v))
        except OverflowError:
            raise refused(t, "beyond the float range") from None
    return Lattice(values=np.array(floats, dtype=np.float64).reshape(n, n), scale=1, exact=False)


def exact_lattice(values: np.ndarray, scale: int) -> Lattice:
    """The canonical exact Lattice of a square int array over scale.

    Values and scale are divided by their gcd (a closed or restricted table
    can have a smaller lcm: 3/4 closes to 2/3 next to 1/3), then stored as
    int64 when 3 * max |value| < LATTICE_LIMIT, as Python ints otherwise.
    """
    nums = values.ravel().tolist()
    g = math.gcd(scale, *nums)
    nums = [v // g for v in nums]
    wide = 3 * max(map(abs, nums), default=0) >= LATTICE_LIMIT
    values = np.array(nums, dtype=object if wide else np.int64).reshape(values.shape)
    return Lattice(values=values, scale=scale // g, exact=True)


_RATIO_TYPES = {str, int}
_FLOAT_TYPES = {float, int}
_RATIO_DIGITS = 18          # 10**18 - 1 < 2**63: a part of at most this many digits fits int64
# each byte of a ratio table's text as its class: a digit, a sign, "," or "/"; else "x"
_DIGIT, _SIGN, _COMMA, _SLASH = b"ds,/"
_BYTE_CLASSES = bytes(_DIGIT if c in b"0123456789" else _SIGN if c in b"+-"
                      else c if c in b",/" else ord("x") for c in range(256))


def _ratio_parts(rows):
    """The int64 numerators and denominators of a table of "[+-]digits[/digits]" strings and ints.

    The cells are joined by commas, and the bytes of ",text," are checked
    once, as their classes (_BYTE_CLASSES).  The marks (the bytes other than
    digits) must come in cells of a comma, an optional sign and at most one
    slash; digits must lie between every two marks but a comma and the
    sign after it, and no digit run be longer than _RATIO_DIGITS, so that
    no part overflows int64 (np.fromstring would saturate without an
    error); and there must be one comma per cell and one more, so a comma
    inside a string cell is seen.  Then one np.fromstring reads every part.
    None when a cell fails the check.
    """
    try:
        text = ",".join(map(",".join, rows))
    except TypeError:               # a cell that is not a string
        if not set(map(type, itertools.chain.from_iterable(rows))) <= _RATIO_TYPES:
            return None
        text = ",".join(",".join(map(str, row)) for row in rows)
    if not text.isascii():
        return None
    classes = f",{text},".encode("ascii").translate(_BYTE_CLASSES)
    if b"x" in classes:
        return None
    cls = np.frombuffer(classes, dtype=np.uint8)
    at = np.flatnonzero(cls != _DIGIT)
    marks = cls[at]
    gap = np.diff(at) - 1                   # the digits between two marks
    sign = marks[1:] == _SIGN
    slash = marks == _SLASH
    count = len(rows) ** 2
    if (((gap == 0) != sign).any() or (sign & (marks[:-1] != _COMMA)).any()
            or (slash[:-1] & slash[1:]).any() or gap.max() > _RATIO_DIGITS
            or np.count_nonzero(marks == _COMMA) != count + 1):
        return None
    denominator = np.append(marks[:-1][gap > 0] == _SLASH, False)    # per part, then a pad
    parts = np.fromstring(text.replace("/", ","), dtype=np.int64, sep=",")
    first = np.flatnonzero(~denominator[:-1])      # each cell's numerator
    has_slash = denominator[first + 1]
    den = np.ones(count, dtype=np.int64)
    den[has_slash] = parts[first[has_slash] + 1]
    return parts[first], den


def _ratio_lattice(rows):
    """The exact Lattice of a square table of "[+-]digits[/digits]" strings and ints.

    The parts are read as int64 arrays (_ratio_parts) and put over the lcm
    of the denominators, with no Fraction built, then divided by the gcd of
    the values and that scale: the same Lattice that table_lattice gives for
    the parsed table.  When the scale or 3 * max |value| reaches
    LATTICE_LIMIT, the values are Python-int products reduced by
    exact_lattice, which picks int64 or an object lattice as table_lattice
    does.  None when an entry has any other form or a part longer than 18
    digits, or a denominator is zero; the caller then parses the table with
    parse_scalar, which raises its errors, and table_lattice builds the
    Lattice.
    """
    parts = _ratio_parts(rows)
    if parts is None:
        return None
    num, den = parts
    if not den.all():
        return None
    n = len(rows)
    dens, where = np.unique(den, return_inverse=True)
    scale = math.lcm(*dens.tolist())
    limit = (LATTICE_LIMIT - 1) // 3       # 3 * |value| < LATTICE_LIMIT
    if scale < LATTICE_LIMIT:
        mult = scale // den
        if not (np.abs(num) > limit // mult).any():
            values = num * mult
            g = math.gcd(scale, int(np.gcd.reduce(values)))
            return Lattice(values=(values // g).reshape(n, n), scale=scale // g, exact=True)
    mult = np.array([scale // q for q in dens.tolist()], dtype=object)[where]
    return exact_lattice((num.astype(object) * mult).reshape(n, n), scale)


def _float_lattice(rows):
    """The float Lattice of a square table of JSON numbers, as one float64 array.

    None for any other entry type (strings, bools) or an int beyond the
    float range; NaN, inf and values beyond FLOAT_LIMIT are left to
    validation.
    """
    if any(not set(map(type, row)) <= _FLOAT_TYPES for row in rows):
        return None
    try:
        values = np.array(rows, dtype=np.float64)
    except OverflowError:
        return None
    return Lattice(values=values, scale=1, exact=False)


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


class PairGrid:
    """The pairs i < j of n points, row-major (rows, cols), and their offsets upper = i n + j
    and lower = j n + i in a raveled (n, n) table, read-only: a process shares one (pair_grid)."""

    def __init__(self, n):
        self.rows, self.cols = np.triu_indices(n, 1)
        self.upper = self.rows * n + self.cols
        self.lower = self.cols * n + self.rows
        for values in vars(self).values():
            values.flags.writeable = False


@cache
def pair_grid(n) -> PairGrid:
    """The process's one PairGrid of n points, built on first use.  It keeps about twice the
    memory of one int64 table of the size, once per size the process reads."""
    return PairGrid(n)


def validate_metric(table, exact: bool = True) -> ValidationReport:
    """List every violated metric axiom with a concrete witness.

    ``table`` is a square table of the mode's scalars (see table_lattice),
    or a Lattice, as a space passes its own.  The report is empty exactly
    when the table is a metric.  Float tables only report violations
    exceeding the ETA margin, and report every NaN, infinite or overflowing
    (beyond FLOAT_LIMIT) entry.  The axioms are checked by numpy masks over
    the lattice; they locate the violations in the order of direct
    enumeration (i, then j, then k), and witnesses are values of the stored
    lattice read back as table scalars, sums taken in the same order.  The
    masks read an int64 lattice on the narrowest dtype that holds its sums
    (_narrowest): no entry or sum changes, only the width of the passes.
    The triangle check decides an exactly symmetric table (upper == lower,
    entry by entry) in one pass over its pairs i < k
    (_symmetric_triangle_holds).  A table that fails there, or is not
    exactly symmetric, takes the ordered pass over blocks of outer rows
    (_triangle_violations), the one pass that lists triangle witnesses.
    Both passes keep each temporary within TRIANGLE_BLOCK bytes.
    """
    lattice = table if isinstance(table, Lattice) else table_lattice(table, exact)
    d = lattice.values
    n = len(d)
    scalar = lattice.scalar
    finite = ()
    if not lattice.exact:
        finite = tuple((i, j, scalar(d[i, j]))
                       for i, j in np.argwhere(~(np.abs(d) <= FLOAT_LIMIT)).tolist())
    slack = 0 if lattice.exact else ETA
    narrow = _narrowest(d)
    with np.errstate(over="ignore", invalid="ignore"):   # inf and huge float entries
        diagonal = [(i, scalar(d[i, i]))
                    for i in np.flatnonzero(np.abs(np.diagonal(d)) > slack).tolist()]
        grid = pair_grid(n)
        rows, cols = grid.rows, grid.cols
        upper = narrow.take(grid.upper)
        lower = narrow.take(grid.lower)
        hits = upper <= slack
        positivity = [(i, j, scalar(d[i, j]))
                      for i, j in zip(rows[hits].tolist(), cols[hits].tolist())]
        hits = np.abs(upper - lower) > slack
        symmetry = [(i, j, scalar(d[i, j]), scalar(d[j, i]))
                    for i, j in zip(rows[hits].tolist(), cols[hits].tolist())]
        triangle = []
        symmetric = np.array_equal(upper, lower)
        if not (symmetric and _symmetric_triangle_holds(narrow, rows, cols, upper, slack)):
            triangle = _triangle_violations(narrow, d, slack, scalar)
    return ValidationReport(size=n, finite=finite, diagonal=tuple(diagonal),
                            positivity=tuple(positivity), symmetry=tuple(symmetry),
                            triangle=tuple(triangle))


def _narrowest(d):
    """An int64 lattice d on the narrowest signed dtype of int16, int32 and int64 that holds
    twice its largest |entry|, so every sum of two entries and their difference; any other
    lattice as it is.
    """
    if d.dtype != np.int64:
        return d
    top = 2 * max(int(d.max(initial=0)), -int(d.min(initial=0)))
    for dtype in (np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return d.astype(dtype)
    return d


def _symmetric_triangle_holds(d, rows, cols, upper, slack):
    """Whether every triangle inequality holds on an exactly symmetric lattice d, decided over
    its pairs i < k (rows, cols), whose distances are upper, alone.

    With d_ki = d_ik and d_kj = d_jk, (i, j, k) and (k, j, i) are one
    inequality: d_ki > d_kj + d_ji (+ slack) compares the same values, and
    float addition is commutative (equal entries differ at most in the sign
    of a zero, which no comparison sees).  Each pass takes a block of pairs
    and compares d_ik with d_ij + d_kj over every j, from rows i and k of d;
    j = i and j = k are masked out.  Two buffers serve every block, so at
    most two temporaries are live: rows i and k are gathered into one,
    within TRIANGLE_BLOCK bytes, which takes as many pairs as fit (more on
    an int lattice that _narrowest has narrowed) and then holds their sums,
    and the comparison writes the other, the block's mask.
    """
    n = len(d)
    width = max(1, TRIANGLE_BLOCK // (2 * n * d.itemsize))
    rows_ik = np.empty((2, min(width, len(rows)), n), dtype=d.dtype)
    mask = np.empty(rows_ik.shape[1:], dtype=bool)
    for s in range(0, len(rows), width):
        i, k = rows[s:s + width], cols[s:s + width]
        sums, other, bad = rows_ik[0, :len(i)], rows_ik[1, :len(i)], mask[:len(i)]
        np.take(d, i, axis=0, out=sums, mode="clip")   # "raise" would buffer out
        np.take(d, k, axis=0, out=other, mode="clip")
        np.add(sums, other, out=sums)                  # sums[p, j] = d_ij + d_kj (+ slack)
        if slack:
            sums += slack
        np.greater(upper[s:s + width, None], sums, out=bad)
        if bad.any():
            p = np.arange(len(i))
            bad[p, i] = False
            bad[p, k] = False
            if bad.any():
                return False
    return True


def _triangle_violations(d, stored, slack, scalar):
    """Every (i, j, k, d_ik, d_ij + d_jk) with d_ik > d_ij + d_jk (+ slack), for distinct i, j
    and k, in the order of direct enumeration.

    d is the stored lattice, or the same values on a narrower dtype (see
    _narrowest); the witness values are read from stored.  Each pass takes
    a block of outer rows I: d[I, None, :] > d[I, :, None] + d (+ slack),
    with as many rows as keep each temporary of d's dtype within
    TRIANGLE_BLOCK bytes, or one on an object lattice, whose entries are
    Python ints of any size; only a block that holds a violation is masked
    and searched for witnesses.
    """
    n = len(d)
    triangle = []
    height = 1 if d.dtype == object else max(1, TRIANGLE_BLOCK // (n * n * d.itemsize))
    for i0 in range(0, n, height):
        block = d[i0:i0 + height]
        # bad[r, j, k]: d_ik > d_ij + d_jk (+ slack) for i = i0 + r
        sums = block[:, :, None] + d
        if slack:
            sums += slack
        bad = block[:, None, :] > sums
        if not bad.any():
            continue
        r = np.arange(len(block))
        bad[:, np.arange(n), np.arange(n)] = False      # j, k distinct from i and each other
        bad[r, r + i0, :] = False
        bad[r, :, r + i0] = False
        i, j, k = np.nonzero(bad)
        i += i0
        triangle.extend(zip(i.tolist(), j.tolist(), k.tolist(),
                            map(scalar, stored[i, k].tolist()),
                            map(scalar, (stored[i, j] + stored[j, k]).tolist())))
    return triangle


def shortest_path_closure(tables: np.ndarray) -> np.ndarray:
    """The shortest-path closure of a (B, n, n) stack of lattice tables, as a new array.

    The stack holds int64, Python ints or float64 (checked with the ETA
    margin).  Each diagonal must lie in [0, margin], each table be symmetric
    and positive off it; else InputError names the first bad entry of the
    first bad table in loop order: the diagonal, then each pair i < j,
    symmetry first.  With no negative diagonal, Floyd-Warshall step k keeps
    row and column k, so one numpy pass gives the in-place loop's sums.
    """
    dist = np.array(tables)
    n = dist.shape[-1]
    slack = ETA if dist.dtype.kind == "f" else 0
    on_diagonal = np.diagonal(dist, 0, 1, 2)
    bad_diagonal = ~((on_diagonal >= 0) & (on_diagonal <= slack))
    pts = np.arange(n)
    asymmetric = dist != dist.transpose(0, 2, 1)
    bad_pair = (asymmetric | (dist <= slack)) & (pts[:, None] < pts)    # i < j
    bad = bad_diagonal.any(1) | bad_pair.any((1, 2))
    if bad.any():
        b = int(bad.argmax())
        if bad_diagonal[b].any():
            i = int(bad_diagonal[b].argmax())
            raise InputError(f"diagonal entry ({i},{i}) must be zero")
        i, j = divmod(int(bad_pair[b].argmax()), n)
        if asymmetric[b, i, j]:
            raise InputError(f"table must be symmetric; entries ({i},{j}) differ")
        raise InputError(f"off-diagonal entry ({i},{j}) must be positive (points are distinct)")
    for k in range(n):
        np.minimum(dist, dist[:, :, k, None] + dist[:, None, k, :], out=dist)
    return dist


def metric_repair(table: Sequence[Sequence[Scalar]], points=None, mode: str = "exact") -> FiniteMetricSpace:
    """Shortest-path closure of a symmetric positive table.

    The table's lattice (see table_lattice) is closed by
    shortest_path_closure as a batch of one, and an exact result is reduced
    to its canonical lattice (Lattice.with_values).  The result satisfies all
    metric axioms, never exceeds the input entrywise, and is the input
    itself when that is already a metric.
    """
    lattice = table_lattice(table, mode == "exact")
    closed = shortest_path_closure(lattice.values[None])[0]
    points = tuple(range(len(closed))) if points is None else tuple(points)
    return FiniteMetricSpace._from_lattice(points, lattice.with_values(closed), mode)
