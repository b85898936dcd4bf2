"""Exhaustive pair/triple enumeration with deterministic supremum reduction.

Two engines back the classifiers:

* a table engine for finite spaces.  It reads the space's lattice
  (metric_core.Lattice), the one stored form of every finite space:
  integer numerators over the lcm of the table's denominators for exact
  tables, float64 for float tables.  Pairs, and triples in blocks of whole
  outer indices, are scanned as numpy passes in lexicographic order:
  perimeters are summed in the order of direct enumeration from one gather
  of the distances and their images per side, eps buckets are found by
  searchsorted against lattice thresholds once per pair (a triple's bucket
  is the greatest of its three pairs'), and on every exact lattice and on a
  screenable float one each bucket's supremum is settled among the few
  items at its running float maximum, kept across blocks and folded
  exactly at the end (_LatticeReduction).
  Every value, witness and count equals that of a pure-Python enumeration
  in the table's scalars (the oracle the tests compare against).  A pair of
  points at distance <= 0 is refused.
* a line engine for sampled one-dimensional spaces.  Points there are sorted
  rationals k/den under the absolute-difference metric, so a sorted triple
  i<j<k has perimeter 2*(c_k - c_i) and its image perimeter depends on j only
  through the running extrema of the image values.  That collapses the triple
  scan to O(n^2) pairs (i, k) with prefix cumulative max/min.  Items sharing
  a first index i form a row, and position h of row i stands for the last
  index i + gap + h.  One pass computes the float ratios of each run of rows
  once, as a (rows, columns) tile of at most LINE_TILE entries, its rows
  times the width of their live positions, aligned by position or by last
  index, whichever fits more rows (_LineData.tile; images and spans are read
  through strided window views), keeps the items at or above a proven float
  error bound below their bucket's running maximum
  (_LineData.screen_floors), and checks strict suspects within their tile.
  At the end the items at or above the final bounds are settled exactly as
  array passes (_settle): their ratios as unreduced ints from the images'
  int numerators and denominators (int64, or object arrays of Python ints
  where a product could pass 2**63), a triple's best middle point from a
  range-extremum table over exact image ranks, and per bucket an exact
  step over the items at its float maximum (_exact_step); only a bucket's
  winner and the strict witness become Fractions.  Qualification
  thresholds (distance >= eps) are decided in integer arithmetic, so bucket
  membership never suffers float errors.
  Only the top bucket's minimal windows are tiled.  For sorted i < m < k,
  |T_k - T_i| <= |T_m - T_i| + |T_k - T_m| and the spans add up, so the
  ratio of (i, k) is at most the greater of its halves', and equal only if
  both halves equal it; the same holds for triples' best-middle spreads when
  m >= i+2 and k >= m+2, and on a tie the half (i, j', m) has j' <= j*, so
  its witness comes before (i, j*, k).  By induction on span, an item of the
  top bucket (span >= its threshold) that splits at a point into two such
  items never sets that bucket's maximum or lex-first witness, so row i is
  tiled up to its cut only (_LineData.cut); counts still cover every item.
  The lex-first strict violator may lie past a cut, but a violator there has
  a violating half, so with no violator before the cuts there is none, and
  with the first one in row r the lex-first one lies in a row <= r: rows
  0..r are then tiled again in full (a late r costs up to the whole scan).
  Items that a step-ratio bound keeps below their floors are not tiled
  either.  For i < k the image range over i..k is at most the total
  variation of the sampled map there, which is at most L(i, k) times the
  span, L(i, k) being the largest adjacent step ratio |T_{j+1} - T_j| /
  (x_{j+1} - x_j) for i <= j < k.  So the ratio of the pair (i, k), and the
  best-middle ratio of every triple (i, j, k), is at most L(i, k), which
  never falls as k grows: over a bucket's columns in row i it is greatest at
  the last one.  The adjacent float ratios obey the screen's error bound, so
  an item's float ratio is at most a + 4u*M*den/s1 + 10u*a, a being the
  largest adjacent float ratio over its steps and s1 the least adjacent step
  (u, M as in _LineData.screen_floors); _LineData.bounds adds twice that
  margin, 8u*M*den/s1 + 32u*a, which covers its own rounding, to a from a
  range-maximum table over the n - 1 adjacent float ratios.
  Before each run of rows, a row drops each bucket whose bound lies strictly
  below the bucket's floor in force; while no strict violator is found, the
  floor in force is the lesser of the bucket's floor and its strict floor.
  A dropped item's float ratio thus lies below every floor it is compared
  with: it is never kept, never raises a maximum and is never a strict
  suspect, and the floors lie below the exact maxima, so it is never a
  maximum or a tied lex-first witness.  A row's tile spans its first to its
  last kept bucket, and a row that keeps none is not tiled.  When the images'
  floats overflow, nothing is dropped.  Neither pruning subsumes the other:
  on floor_half every L is 1 and the cut does the work, while on
  burton_logistic the top bucket is empty and the bound drops most items.

Supremum ties break toward the lexicographically smallest witness.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .metric_core import ETA, LATTICE_LIMIT, InputError

FLOAT_SLACK = 1e-9       # line engine: relative width of the float screen
FLOAT_BAND = 1e-9        # float table candidates: relative width below a bucket maximum
TRIPLE_BLOCK = 1 << 12   # triples per numpy pass of the table engine
SURVIVORS = 1 << 12      # table engine: kept screen candidates before they are folded early
LINE_TILE = 1 << 15      # float ratios per tile of the line engine
_FLOAT_MAX = Fraction(sys.float_info.max)


@dataclass(frozen=True)
class EnumAnalysis:
    """Outcome of one exhaustive pair or triple enumeration.

    deltas[b] is the ratio supremum over items whose qualification measure
    (pair distance, or triple max side) is at least eps[b]; None marks a
    vacuous grid value with no qualifying items.  sup_ratio ranges over every
    enumerated item regardless of measure.
    """

    kind: str                 # "pairwise" | "triple"
    eps: tuple                # ascending positive scalars
    deltas: tuple
    delta_witnesses: tuple    # per eps: (points, image_measure, measure) or None
    counts: tuple             # per eps: number of qualifying items
    sup_ratio: object
    sup_witness: tuple
    strict_violation: tuple   # (points, measure, image_measure) or None
    total: int


def _better(num_a, den_a, wit_a, num_b, den_b, wit_b):
    """True when ratio a beats ratio b (ties go to the smaller witness)."""
    lhs = num_a * den_b
    rhs = num_b * den_a
    if lhs != rhs:
        return lhs > rhs
    return wit_a < wit_b


def _checked_eps(kind, eps, n_points):
    """The eps grid as a tuple, after checking it and then the point count."""
    eps = tuple(eps)
    if not eps:
        raise InputError("eps grid must be nonempty")
    if any(e <= 0 for e in eps):
        raise InputError("eps grid values must be positive")
    if list(eps) != sorted(eps):
        raise InputError("eps grid must be ascending")
    if len(set(eps)) != len(eps):
        raise InputError("eps grid values must be distinct")
    need = 2 if kind == "pairwise" else 3
    if n_points < need:
        raise InputError(f"need at least {need} points")
    return eps


def _ceil_thresholds(eps, scale, cap, dtype=np.int64):
    """Per eps value, the least integer m with m/scale >= eps, capped at cap.

    cap lies above every measure the thresholds are compared with, so an
    eps above all of them leaves its bucket empty (a vacuous entry).  With
    cap math.inf and dtype object the thresholds are uncapped Python ints.
    """
    return np.array([min(-(-f.numerator * scale // f.denominator), cap)
                     for f in map(Fraction, eps)], dtype=dtype)


# ---------------------------------------------------------------------------
# table engine (finite spaces)

def _nonpositive(points, a, b):
    return InputError(f"the distance between points {points[a]!r} and {points[b]!r} is not "
                      f"positive; pair and perimeter ratios need a metric table")


def _lattice_thresholds(eps, lattice):
    """Per eps value, the least lattice value v with scalar(v) >= eps.

    searchsorted(thresholds, v, "right") then equals bisect_right(eps,
    scalar(v)) for every lattice value v.  Thresholds of an int64 lattice
    are capped at LATTICE_LIMIT, above every value; those of an object
    lattice are uncapped Python ints.
    """
    if lattice.exact:
        if lattice.values.dtype == object:
            return _ceil_thresholds(eps, lattice.scale, math.inf, object)
        return _ceil_thresholds(eps, lattice.scale, LATTICE_LIMIT)
    out = []
    for f in map(Fraction, eps):
        x = float(min(f, _FLOAT_MAX))
        if x < f:
            x = math.nextafter(x, math.inf)
        out.append(x)
    return np.array(out, dtype=np.float64)


class _LatticeReduction:
    """Bucket counts, per-bucket suprema and the strict violation over lattice items.

    Items arrive in lexicographic witness order, a block of arrays at a time,
    and the result equals the sequential reduction of direct enumeration,
    which keeps the first item of each bucket's greatest ratio (_better).
    On every exact lattice, and on a screenable float one, a float screen
    narrows the candidates: each block raises the running float maximum of
    each bucket (one np.maximum.at), keeps its items at or above their
    bucket's floor, and prunes the items kept before whenever a floor rises.
    The items kept at the end are folded once, in witness order (_fold);
    past SURVIVORS kept items they are folded into the running entries
    early, which bounds the memory on tie-heavy tables.  On any other float
    lattice every item of a bucket is a candidate, and each block is folded
    into the running entries as it arrives.

    * Exact mode: the float quotient of two ints is correctly rounded
      (_float_ratios), hence monotone in the exact ratio, so the exact bucket
      maximum is among the items whose float ratio equals the bucket's float
      maximum, the floor.  Those are compared exactly; the lex-first one wins
      ties.  An entry folded early is at most that maximum, and a tie keeps
      the earlier item, so folding it first changes nothing.
    * Float mode: the enumeration compares float cross products.  Rounding
      is monotone, so an item whose float quotient is below the running
      entry's never replaces it, and the bucket maximum replaces every entry
      more than a few ulps below it.  Items below the band, a relative
      FLOAT_BAND under the maximum (seven orders above rounding), therefore
      cannot change the result, and a fold over any superset of the band, in
      witness order, reaches the same entry from the bucket's first item near
      its maximum on; the items in the band are folded into the running entry
      with the same cross-multiplication.  FLOAT_LATTICE_RANGE keeps those
      products and quotients normal.
    """

    def __init__(self, lattice, eps):
        self.lattice = lattice
        self.thresholds = _lattice_thresholds(eps, lattice)
        self.slack = 0 if lattice.exact else ETA
        self.screened = lattice.exact or lattice.screenable
        n_buckets = len(eps) + 1
        self.best = [None] * n_buckets        # (num, den, witness indices)
        self.counts = np.zeros(n_buckets, dtype=np.int64)
        self.top = np.full(n_buckets, -np.inf)    # running float maxima
        self.floors = self.top
        self.kept = []      # per block: (num, den, bucket, ratio, *witness columns) at the floors,
                            # pruned whenever a floor rises
        self.strict = None                    # (witness indices, measure, image measure)
        self.total = 0

    def bucket(self, longest):
        """The eps bucket of each qualification measure (pair distance or longest side), in the
        least unsigned int type that holds every bucket."""
        bucket = np.searchsorted(self.thresholds, longest, side="right")
        return bucket.astype(np.min_scalar_type(len(self.thresholds)))

    def feed(self, num, den, bucket, wit):
        """Add items: image measure num, measure den > 0, eps bucket (see bucket()).

        wit holds the witness index columns: item t's witness is
        tuple(w[t] for w in wit).
        """
        self.total += len(bucket)
        self.counts += np.bincount(bucket, minlength=len(self.counts))
        if self.strict is None:
            hits = np.flatnonzero(num >= den - self.slack)
            if len(hits):
                t = hits[0]
                self.strict = (_witness(wit)(t), den[t], num[t])
        if not self.screened:
            self._fold_buckets(num, den, bucket, wit)
            return
        ratio = _float_ratios(num, den)
        reach = ratio >= self.floors[bucket]
        if not reach.any():             # an item that raises a maximum is at or above its floor
            return
        top = self.top.copy()
        np.maximum.at(top, bucket, ratio)
        if (top > self.top).any():
            self.top = top
            if self.lattice.exact:
                self.floors = top
            else:
                self.floors = np.where(top > 0, top * (1 - FLOAT_BAND), top * (1 + FLOAT_BAND))
            if self.kept:
                self.kept = [_at_floors(self.kept, self.floors)]
            reach = ratio >= self.floors[bucket]
        keep = np.flatnonzero(reach)
        self.kept.append([column[keep] for column in (num, den, bucket, ratio, *wit)])
        if sum(len(items[0]) for items in self.kept) > SURVIVORS:
            self._fold_kept()

    def _fold_buckets(self, num, den, bucket, wit):
        """Fold items, in witness order, into the running entries, bucket by bucket."""
        for b in np.flatnonzero(np.bincount(bucket)).tolist():
            self.best[b] = _fold(num, den, np.flatnonzero(bucket == b), _witness(wit),
                                 self.best[b])

    def _fold_kept(self):
        num, den, bucket, _, *wit = (self.kept[0] if len(self.kept) == 1 else
                                     [np.concatenate(column) for column in zip(*self.kept)])
        self._fold_buckets(num, den, bucket, wit)
        self.kept = []

    def result(self, kind, eps, points):
        if self.kept:
            self._fold_kept()
        scalar = self.lattice.scalar
        best = [None if e is None else (scalar(e[0]), scalar(e[1]), e[2]) for e in self.best]
        strict = self.strict
        if strict is not None:
            strict = (strict[0], scalar(strict[1]), scalar(strict[2]))
        return _finalize(kind, eps, best, self.counts.tolist(), strict, self.total,
                         points.__getitem__, self.lattice.exact)


def _witness(wit):
    """Item t's witness indices, from the witness index columns wit."""
    return lambda t: tuple(int(w[t]) for w in wit)


def _quotient(a, b):
    """a / b for ints, b > 0, correctly rounded; beyond the float range +-inf keeps the order."""
    try:
        return a / b
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _float_ratios(num, den):
    """Correctly rounded float quotients num / den, monotone in the exact ratio (_quotient)."""
    if num.dtype != object:
        return num / den
    return np.frompyfunc(_quotient, 2, 1)(num, den).astype(np.float64)


def _exact_step(num, den, ratio, items, witness, order):
    """The lex-first exact maximum (num, den, witness) of one bucket's items, of exact ints
    num / den > 0.

    ratio holds the correctly rounded float quotients (_float_ratios), which
    are monotone in the exact ratio, so the bucket's exact maximum is among
    the items whose float equals the bucket's float maximum; only those reach
    _fold, sorted by the witness columns order.
    """
    r = ratio[items]
    items = items[r == r.max()]
    items = items[np.lexsort([column[items] for column in reversed(order)])]
    return _fold(num, den, items, witness, None)


def _fold(num, den, cands, witness, cur):
    """Fold candidates (in lex order) into the running entry as enumeration does.

    Every candidate follows cur in lex order, so a tie never replaces it:
    the next replacement is the first candidate whose cross product wins.
    """
    cn, cd = num[cands], den[cands]
    if cn.dtype != np.float64:      # exact: Python-int products; one item stands for one ratio
        g = np.gcd(cn, cd)
        if (cn // g == cn[0] // g[0]).all() and (cd // g == cd[0] // g[0]).all():
            cands, cn, cd = cands[:1], cn[:1], cd[:1]
        cn, cd = cn.astype(object), cd.astype(object)
    start = 0
    if cur is None:
        cur, start = (cn[0], cd[0], witness(cands[0])), 1
    while start < len(cands):
        wins = np.flatnonzero(cn[start:] * cur[1] > cur[0] * cd[start:])
        if not len(wins):
            break
        t = start + int(wins[0])
        cur = (cn[t], cd[t], witness(cands[t]))
        start = t + 1
    return cur


def _triple_blocks(m, rows):
    """Lex-ordered blocks of the triples a < j < k of m points.

    Yields (a, pair) arrays: pair indexes the row-major upper-triangle pairs
    (rows, cols) for (j, k).  A block holds whole outer indices a, as many as
    fit in TRIPLE_BLOCK items (at least one), which bounds the temporaries
    and amortizes numpy's per-call overhead on small tables.
    """
    n_pairs = len(rows)
    starts = np.searchsorted(rows, np.arange(m - 2), side="right").tolist()  # first j > a
    sizes = [n_pairs - s for s in starts]
    pairs = np.arange(n_pairs)
    a0 = 0
    while a0 < m - 2:
        a1 = a0 + 1
        total = sizes[a0]
        while a1 < m - 2 and total + sizes[a1] <= TRIPLE_BLOCK:
            total += sizes[a1]
            a1 += 1
        a = np.repeat(np.arange(a0, a1), sizes[a0:a1])
        pair = np.concatenate([pairs[s:] for s in starts[a0:a1]])
        yield a, pair
        a0 = a1


def _table_analysis(kind, lattice, nodes, images, eps, points):
    """The table enumeration as numpy passes over the lattice."""
    eps = _checked_eps(kind, eps, len(nodes))
    m = len(nodes)
    nodes = np.asarray(nodes, dtype=np.intp)
    # the distances (row 0) and the distances of the images (row 1), so one take gathers both
    ends = (nodes, np.asarray(images, dtype=np.intp)[nodes])
    both = np.stack([lattice.values[np.ix_(e, e)] for e in ends]).reshape(2, m * m)
    rows, cols = np.triu_indices(m, 1)
    flat = rows * m + cols
    both_pair = both.take(flat, axis=1)
    d_pair, t_pair = both_pair
    if not (d_pair > 0).all():
        first = int(np.argmin(d_pair > 0))
        raise _nonpositive(points, rows[first], cols[first])
    red = _LatticeReduction(lattice, eps)
    with np.errstate(over="ignore", invalid="ignore"):   # inf and huge float entries
        b_pair = red.bucket(d_pair)
        if kind == "pairwise":
            red.feed(t_pair, d_pair, b_pair, (rows, cols))
        else:
            # a triple's bucket, that of its longest side, is the greatest of its pairs' buckets
            b_flat = np.zeros(m * m, dtype=b_pair.dtype)
            b_flat[flat] = b_pair
            for a, pair in _triple_blocks(m, rows):
                j, k = rows[pair], cols[pair]
                aj, ak = a * m + j, a * m + k
                # sums in enumeration order keep float mode bit-identical
                p, pt = (both.take(aj, axis=1) + both_pair.take(pair, axis=1)
                         + both.take(ak, axis=1))
                bucket = np.maximum(np.maximum(b_flat.take(aj), b_pair.take(pair)),
                                    b_flat.take(ak))
                red.feed(pt, p, bucket, (a, j, k))
    return red.result(kind, eps, points)


# ---------------------------------------------------------------------------
# line engine (sampled one-dimensional spaces)

def _int_array(values):
    """Ints as an int64 array, or an object array of Python ints when one does not fit int64."""
    if isinstance(values, np.ndarray) and values.dtype in (np.int64, object):
        return values
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _windows(values, start, shape, step=1):
    """(rows, width) view of a contiguous 1-D array: row r holds values[start + step*r:][:width]."""
    size = values.strides[0]
    return np.ndarray(shape, values.dtype, values, start * size, (step * size, size))


def _extrema_table(keys, ufunc, longest):
    """Range-extremum table for ranges of up to longest keys: row p, column x holds ufunc over
    keys[x:x + 2**p] (_range_extremum)."""
    table = np.empty((longest.bit_length(), len(keys)), dtype=keys.dtype)
    table[0] = keys
    for p in range(1, len(table)):
        half = 1 << (p - 1)
        ufunc(table[p - 1, :-half], table[p - 1, half:], out=table[p, :-half])
        table[p, -half:] = table[p - 1, -half:]
    return table


def _range_extremum(table, ufunc, lo, hi):
    """Per query, ufunc over keys[lo..hi] (inclusive, lo <= hi): two overlapping table windows."""
    p = np.frexp(hi - lo + 1.0)[1] - 1             # floor(log2(length))
    row, flat = p * table.shape[1], table.ravel()   # flat indices gather faster than pairs
    return ufunc(flat[row + lo], flat[row + hi + 1 - np.left_shift(1, p)])


def _sliding(values, width, ufunc):
    """ufunc over each window values[j:j + width], as blocks of width and their prefix and
    suffix runs: a window is the suffix of one block and the prefix of the next."""
    count = len(values) - width + 1
    blocks = np.resize(values, (-(-len(values) // width), width))
    prefix = ufunc.accumulate(blocks, axis=1).ravel()
    suffix = ufunc.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return ufunc(suffix[:count], prefix[width - 1:width - 1 + count])


class _LineData:
    """Shared arrays for one sampled-space enumeration of one kind.

    Items are grouped in rows by their first index i.  Position h of row i
    stands for the items whose last index is i + gap + h; spans ascend with
    h.  Eps bucket b of row i holds positions before[i, b] to before[i, b+1]
    (bucket 0 lies below eps[0]); narrow holds the edges of the nonempty
    buckets, filled, only.
    """

    gap = None

    def __init__(self, numerators, den, image_nums, image_dens, eps):
        self.den = den
        self.nums = np.asarray(numerators, dtype=np.int64)
        self.numerators = self.nums.tolist()
        self.n = n = len(self.numerators)
        longest = self.numerators[-1] - self.numerators[0]
        # the images' int numerators and positive denominators, as Python ints for the
        # strict check, and as arrays for exact(): int64 while its quotients' operands stay
        # below 2**53 and its products below 2**63, object arrays of Python ints otherwise
        inum, iden = _int_array(image_nums), _int_array(image_dens)
        self.inums, self.idens = inum.tolist(), iden.tolist()
        a, b = max(-int(inum.min()), int(inum.max())), int(iden.max())
        wide = max(2 * a * b, b * b * longest) > 2 ** 53 or 4 * a * b ** 3 >= 2 ** 63
        self.inum, self.iden = (v.astype(object if wide else np.int64, copy=False)
                                for v in (inum, iden))
        self.tvals = _float_ratios(self.inum, self.iden)
        self.finite = bool(np.isfinite(self.tvals).all())
        # padded past the last point, so that every tile column has a window entry
        self.tpad = np.concatenate((self.tvals, np.zeros(n)))
        self.npad = np.concatenate((self.nums, np.zeros(n, dtype=np.int64)))
        thresholds = _ceil_thresholds(eps, den, longest + 1)
        # bucket edges in 1/den units: 0, the thresholds, one past the longest span
        edges = np.concatenate(([0], thresholds, [longest + 1]))
        rows = n - self.gap
        self.before = np.maximum(np.searchsorted(self.nums, self.nums[:rows, None] + edges)
                                 - np.arange(self.gap, n)[:, None], 0)
        self.counts = np.diff([int(self.items_before(self.before[:, e]).sum())
                               for e in range(len(edges))]).tolist()
        # the edges of the nonempty buckets: an empty one is empty in every row
        self.filled = np.flatnonzero(self.counts)
        self.narrow = self.before[:, np.append(self.filled, len(self.counts))]
        # row i's items with last index cut[i] or more split at j0 into two top-bucket items
        j0 = self.before[:, -2] + np.arange(self.gap, n)
        self.cut = np.minimum(np.maximum(j0 + self.gap, np.searchsorted(
            self.nums, self.nums[np.minimum(j0, n - 1)] + thresholds[-1])), n)
        # the float screen's absolute bound, over each bucket's least span (screen_floors)
        shortest = int((self.nums[self.gap:] - self.nums[:-self.gap]).min())
        largest = float(np.abs(self.tvals).max())
        self.absolute = (8 * 2.0 ** -53 * largest * float(den)
                         / np.maximum(shortest, np.concatenate(([0], thresholds))))
        self.strict_floors = 1.0 - FLOAT_SLACK - self.absolute
        # the absolute part of the step-ratio bound's margin (bounds())
        self.step_margin = 8 * 2.0 ** -53 * largest * float(den) / int(np.diff(self.nums).min())
        # tile buffers for the largest tile of fit(): fresh ones would be faulted in per tile
        self.work = np.empty((4, min(max(LINE_TILE, rows), rows * rows)))

    def point(self, i):
        """Point i as a Fraction."""
        return Fraction(self.numerators[i], self.den)

    def image(self, i):
        """The image of point i as a Fraction."""
        return Fraction(self.inums[i], self.idens[i])

    def entry(self, wit):
        """Exact (image measure, measure, witness) at a witness."""
        measure, image_measure = self.sides(wit)
        return image_measure, measure, wit

    def screen_floors(self, best):
        """Per-bucket float floors, given float ratios F of an item of each bucket.

        An item below floors[b] is not bucket b's exact maximum, and one
        below strict_floors[b] does not break strictness.  A float ratio r
        and its exact ratio R obey |r - R| <= 2u*M*den/span + 5u*R, with
        u = 2**-53 and M = max |image|: float images and their running extrema
        are within u*M of exact, an image difference adds one rounding, and
        den, span, the division and the scaling four more.  The exact maximum
        is at least the exact ratio of the item with float ratio F, so its
        float ratio is at least F - 4u*M*den/s - 10u*R, s being the bucket's
        least span, and an item with R >= 1 has r >= 1 - 5u - 2u*M*den/s.
        The floors take off FLOAT_SLACK * max(1, |F|) and 8u*M*den/s, which
        cover both with room for their own rounding; a bound that overflows,
        as an image beyond the float range makes it, turns the screen off.  A
        relative slack alone fails on large, close images: near 10**12,
        floats are 2**-13 apart.  F may thus be a running maximum over the
        rows seen so far; as F rises the floors never fall.
        """
        with np.errstate(invalid="ignore"):
            floors = best - (FLOAT_SLACK * np.maximum(1.0, np.abs(best)) + self.absolute)
        floors[np.isnan(floors)] = -np.inf
        floors[best == -np.inf] = np.inf            # empty bucket
        return floors

    def bounds(self, stop):
        """Per row i below len(stop) and nonempty bucket, a float above the float ratio of every
        item of the bucket whose last index is below stop[i] (the step-ratio lemma), or -inf when
        there is none; +inf when the images' floats overflow (nothing may be skipped).  Buckets
        go one at a time, which keeps each temporary to one bucket's rows."""
        bound = np.full((len(stop), len(self.filled)), -np.inf)
        if self.finite:
            with np.errstate(over="ignore"):        # adjacent float step ratios
                steps = np.abs(np.diff(self.tvals)) * (float(self.den) / np.diff(self.nums))
            table = _extrema_table(steps, np.maximum, self.n - 1)
        live = stop - np.arange(len(stop)) - self.gap
        for b in range(bound.shape[1]):
            ends = np.minimum(self.narrow[:len(stop), b + 1], live)
            i = np.flatnonzero(ends > self.narrow[:len(stop), b])
            if not self.finite:
                bound[i, b] = np.inf
                continue
            # the steps of an item run from its first index to its last index less one
            steepest = _range_extremum(table, np.maximum, i, i + self.gap - 2 + ends[i])
            bound[i, b] = steepest * (1 + 2.0 ** -48) + self.step_margin
        return bound

    def live(self, first, bound, floors, stop):
        """Per row from first on, its live positions [start, end): from its first bucket whose
        bound reaches the bucket's floor to the end of its last one, before the row's stop;
        start == end when no bucket does.  Ratios are >= 0, so a floor below 0 counts as 0."""
        keep = bound >= np.maximum(floors[self.filled], 0.0)
        r, lo = np.arange(len(keep)), np.argmax(keep, axis=1)
        before = self.narrow[first:len(stop)]
        start = before[r, lo]
        end = np.minimum(before[r, keep.shape[1] - np.argmax(keep[:, ::-1], axis=1)],
                         stop[first:] - (r + first + self.gap))
        return start, np.where(keep[r, lo], end, start)

    def fit(self, i, start, end):
        """(count, step) of the tile of the leading rows of a run of consecutive live rows from
        row i, with their positions [start, end): as many rows as fit in LINE_TILE entries (at
        least one) of the tile that tile() computes for them with that step, its rows times its
        width, and of their bucket edges, a row of narrow per row.  Step 0 is taken where it
        fits more rows, and only while the rows' least first live index is at or past the last
        row's index (tile())."""
        # a row is at least as wide as the first, so no more rows than these can fit
        most = LINE_TILE // (int(end[0] - start[0]) + self.narrow.shape[1]) + 1
        start, end = start[:most], end[:most]
        r = np.arange(len(start))
        best = (1, 1)
        for step in (1, 0):
            least = np.minimum.accumulate(start + (1 - step) * r)
            area = (np.maximum.accumulate(end + (1 - step) * r) - least
                    + self.narrow.shape[1]) * (r + 1)
            if step == 0:
                area[least + self.gap < r] = LINE_TILE + 1
            best = max(best, (int(np.searchsorted(area, LINE_TILE, side="right")), step))
        return best

    def tile(self, rows, start, end, step=1):
        """Float ratios of the items at positions [start, end) of a run of consecutive rows, as
        one (rows, columns) array, and per row the position of its column 0.

        Column c of row r stands for the last index first + step*r + c, first
        being the least over the rows of their first live index less step*r:
        step 1 aligns positions (items of like span), step 0 last indices,
        which needs first at or past every row's index.  The columns before a
        row's start and at or past its end hold -inf.  Each ratio is the float
        that the row-at-a-time formula gives, bit for bit.  The tile is a view
        of a buffer that the next call overwrites.
        """
        i0, r = int(rows[0]), np.arange(len(rows))
        lead = rows + self.gap - step * r      # the last index at row r's position 0, less step*r
        first = int((lead + start).min())
        shape = (len(rows), int((lead + end).max()) - first)
        shift = first - lead                          # row r's position at column 0
        ratio, factor, *scratch = (b[:shape[0] * shape[1]].reshape(shape) for b in self.work)
        with np.errstate(divide="ignore", invalid="ignore"):   # past the ends; inf - inf
            self.spreads(i0, first, step, ratio, factor, *scratch)
            spans = scratch[0].view(np.int64)       # free once the spreads are in ratio
            np.subtract(_windows(self.npad, first, shape, step), self.nums[rows, None],
                        out=spans)
            np.copyto(factor, spans)
            np.divide(float(self.den), factor, out=factor)
            np.multiply(ratio, factor, out=ratio)
        lo, hi = start - shift, end - shift
        narrow, wide = int(hi.min()), int(lo.max())
        ratio[:, narrow:][np.arange(narrow, shape[1]) >= hi[:, None]] = -np.inf
        ratio[:, :wide][np.arange(wide) < lo[:, None]] = -np.inf
        return ratio, shift


class _LinePairs(_LineData):
    gap = 1

    def spreads(self, i0, first, step, out, *scratch):
        """Float image distances |tv[k] - tv[i]| of a tile's rows i = i0 + r and columns
        k = first + step*r + c."""
        np.subtract(_windows(self.tpad, first, out.shape, step),
                    self.tvals[i0:i0 + len(out), None], out=out)
        np.abs(out, out=out)

    @staticmethod
    def items_before(h):
        """Pairs at row positions below h."""
        return h

    def sides(self, wit):
        """Exact (distance, image distance) at a pair witness."""
        i, j = wit
        return self.point(j) - self.point(i), abs(self.image(j) - self.image(i))

    def exact(self, rows, hs):
        """(image distance numerators, their denominators times the spans, witness columns) of
        the pairs (rows, rows + 1 + hs): unreduced ints that order items like their ratios."""
        i, j = rows, rows + 1 + hs
        a, b = self.inum, self.iden
        span = self.nums[j] - self.nums[i]
        return np.abs(a[j] * b[i] - a[i] * b[j]), b[i] * b[j] * span, (i, j)

    def row(self, i, reach):
        return _PairRow(self, i)


class _PairRow:
    """The strict check of the pairs (i, i+1+h) of one row, in Python ints."""

    def __init__(self, data, i):
        self.data, self.i = data, i

    def strict_witness(self, h):
        i, j = self.i, self.i + 1 + h
        a, b, nums = self.data.inums, self.data.idens, self.data.numerators
        image_distance, span = abs(a[j] * b[i] - a[i] * b[j]), nums[j] - nums[i]
        return (i, j) if image_distance * self.data.den >= b[i] * b[j] * span else None


class _LineTriples(_LineData):
    """Triples i < j < k, reduced over j to their (i, k) pairs."""

    gap = 2

    def ranks(self):
        """Dense ranks of the images in exact order: float order, refined exactly within runs
        of equal floats (reduced fractions: equal images have equal ints)."""
        a, b = self.inum, self.iden
        order = np.argsort(self.tvals, kind="stable")
        tied = self.tvals[order][1:] == self.tvals[order][:-1]

        def differ(order):
            return (a[order][1:] != a[order][:-1]) | (b[order][1:] != b[order][:-1])

        if (mixed := tied & differ(order)).any():   # distinct images share a float
            runs = np.flatnonzero(np.diff(np.concatenate(([0], tied, [0])))).reshape(-1, 2)
            order = order.tolist()
            for s, e in runs[np.logical_or.reduceat(mixed, runs[:, 0])].tolist():
                order[s:e + 1] = sorted(order[s:e + 1], key=self.image)
            order = np.array(order)
        rank = np.empty(self.n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(differ(order))))
        return rank

    def spreads(self, i0, first, step, out, low, high, bottom):
        """Float image spreads of a tile's rows i = i0 + r and columns k = first + step*r + c, at
        the best middle point.

        The row-at-a-time formula, max(hi - lo, top - lo, hi - bottom) with
        lo, hi the images of i and k and top, bottom the running extrema of
        the middle images, equals max(Top - lo, hi - Bottom) bit for bit,
        where Top and Bottom run over tv[i .. k]: max and min are exact and
        rounding is monotone.  Row r's column 0 stands for k0 = first +
        step*r; the extrema over tv[i .. k0] are windows of one width for
        step 1 (_sliding), and suffixes of tv[i0 .. first] for step 0, whose
        first lies at or past every i.  Top and Bottom are split at h1 =
        first + head: each row accumulates its own first head columns, head =
        max(last row - first, 1) unless the rows are narrower, and one
        accumulation over tv[h1 ..] serves every row beyond its own columns
        through a window view.  h1 lies past every row's i, and each row's own
        columns reach h1 - 1; max and min are idempotent, so the overlap
        changes nothing.
        """
        rows, width = out.shape
        tv = self.tpad
        head = min(max(i0 + rows - 1 - first, 1), width)
        for ufunc, run in ((np.maximum, out), (np.minimum, bottom)):
            if step:        # tv[i .. k0] are windows of one width
                init = _sliding(tv[i0:first + rows], first - i0 + 1, ufunc)
            else:           # tv[i .. first] are suffixes, first at or past every i
                init = ufunc.accumulate(tv[i0:first + 1][::-1])[::-1][:rows]
            ufunc.accumulate(_windows(tv, first, (rows, head), step), axis=1, out=run[:, :head])
            ufunc(run[:, :head], init[:, None], out=run[:, :head])
            if head < width:
                shared = ufunc.accumulate(tv[first + head:first + step * (rows - 1) + width])
                ufunc(run[:, head - 1:head], _windows(shared, 0, (rows, width - head), step),
                      out=run[:, head:])
        ends, starts = _windows(tv, first, out.shape, step), self.tvals[i0:i0 + rows, None]
        np.minimum(starts, ends, out=low)
        np.maximum(starts, ends, out=high)
        np.subtract(out, low, out=out)
        np.subtract(high, bottom, out=bottom)
        np.maximum(out, bottom, out=out)

    @staticmethod
    def items_before(h):
        """Triples at row positions below h: position p has p + 1 middle points."""
        return h * (h + 1) // 2

    def sides(self, wit):
        """Exact (perimeter, image perimeter) at a triple witness."""
        i, j, k = wit
        ims = (self.image(i), self.image(j), self.image(k))
        return 2 * (self.point(k) - self.point(i)), 2 * (max(ims) - min(ims))

    def exact(self, rows, hs):
        """(image spread numerators, their denominators times the spans, witness columns) of
        the pairs (rows, rows + 2 + hs) at their best middle points, the smallest on ties.

        The spread is the greatest of hi - lo, top - lo and hi - bottom, lo and
        hi being the images of i and k, and top and bottom the extreme middle
        images, at their first indices (the range-extremum tables).  Ranks
        decide which differences beat hi - lo; only when both do are they
        compared by cross products.  Entries are unreduced as for pairs
        (perimeters are twice spans).
        """
        i, k = rows, rows + 2 + hs
        n, rank, a, b = self.n, self.ranks(), self.inum, self.iden
        longest, index = int(hs.max()) + 1, np.arange(n)
        # the first index of the greatest and of the least image over each range of middle points
        tops = _extrema_table(rank * n + (n - 1 - index), np.maximum, longest)
        bottoms = _extrema_table(rank * n + index, np.minimum, longest)
        top = n - 1 - _range_extremum(tops, np.maximum, i + 1, k - 1) % n
        bottom = _range_extremum(bottoms, np.minimum, i + 1, k - 1) % n
        swap = rank[i] > rank[k]
        lo, hi = np.where(swap, k, i), np.where(swap, i, k)

        def minus(p, q):        # image p - image q, as (numerator, denominator)
            return a[p] * b[q] - a[q] * b[p], b[p] * b[q]

        ends, up, down = minus(hi, lo), minus(top, lo), minus(hi, bottom)
        over, under = rank[top] > rank[hi], rank[bottom] < rank[lo]    # beat hi - lo
        cmp = up[0] * down[1] - down[0] * up[1]
        use_up = over & ~(under & (cmp < 0))
        use_down = under & ~(over & (cmp >= 0))
        j = np.where(use_up, np.where(under & (cmp == 0), np.minimum(top, bottom), top),
                     np.where(use_down, bottom, i + 1))
        num, den = (np.where(use_up, u, np.where(use_down, d, e))
                    for u, d, e in zip(up, down, ends))
        return num, den * (self.nums[k] - self.nums[i]), (i, j, k)

    def row(self, i, reach):
        return _TripleRow(self, i, reach)


class _TripleRow:
    """The strict check of the triples (i, j, i+2+h) of one row, h <= reach, in Python ints.

    The running maximum and minimum of the middle images j = i+1..i+1+h, as
    (numerator, denominator), are computed once, so the lex-first strict
    violation of each (i, k) is found by bisection of the monotone running
    extrema.
    """

    def __init__(self, data, i, reach):
        self.data, self.i = data, i
        a, b = data.inums, data.idens
        ta, tb = ba, bb = a[i + 1], b[i + 1]
        self.tops, self.bottoms = tops, bottoms = [], []
        for j in range(i + 1, i + 2 + reach):
            aj, bj = a[j], b[j]
            if aj * tb > ta * bj:
                ta, tb = aj, bj
            elif aj * bb < ba * bj:
                ba, bb = aj, bj
            tops.append((ta, tb))
            bottoms.append((ba, bb))

    def strict_witness(self, h):
        """Lex-first triple (i, j, i+2+h) whose perimeter does not decrease, or None."""
        i, k = self.i, self.i + 2 + h
        a, b = self.data.inums, self.data.idens
        (la, lb), (ha, hb) = (a[i], b[i]), (a[k], b[k])
        if la * hb > ha * lb:
            (la, lb), (ha, hb) = (ha, hb), (la, lb)
        span, den = self.data.numerators[k] - self.data.numerators[i], self.data.den
        if (ha * lb - la * hb) * den >= span * hb * lb:      # hi - lo >= span / den
            return (self.i, self.i + 1, k)
        # a middle image at or above lo + span/den, or at or below hi - span/den, violates
        up_n, up_d = la * den + span * lb, lb * den
        down_n, down_d = ha * den - span * hb, hb * den
        t = min(bisect_left(self.tops, 0, 0, h + 1, key=lambda r: r[0] * up_d - up_n * r[1]),
                bisect_left(self.bottoms, 0, 0, h + 1,
                            key=lambda r: down_n * r[1] - r[0] * down_d))
        return (self.i, self.i + 1 + t, k) if t <= h else None


_LINE_KINDS = {"pairwise": _LinePairs, "triple": _LineTriples}


class _Tile(NamedTuple):
    """One tile of _line_tiles: its rows, each row's position at column 0 (_LineData.tile), the
    nonempty buckets' edges in each row as columns (the first and the last are the row's live
    columns' start and end), the float ratios and the row maxima per nonempty bucket."""

    rows: np.ndarray
    shift: np.ndarray
    edges: np.ndarray
    ratio: np.ndarray
    row_max: np.ndarray


def _line_tiles(data, stop, floors):
    """Runs of consecutive live rows below len(stop), each tiled once over its live positions.

    Before each run, floors() gives the floors in force, and a row keeps the
    buckets whose bound (_LineData.bounds) reaches them (_LineData.live);
    rows that keep none are not tiled.
    """
    bound, i, seen = data.bounds(stop), 0, None
    while True:
        if seen is None or (floors() != seen).any():       # the rows left, at the new floors
            seen = floors()
            start, end = (np.concatenate((np.zeros(i, dtype=np.int64), a))
                          for a in data.live(i, bound[i:], seen, stop))
            alive = start < end
        if not alive[i:].any():
            return
        i += int(np.argmax(alive[i:]))
        run = i + (int(np.argmin(alive[i:])) or len(stop) - i)
        count, step = data.fit(i, start[i:run], end[i:run])
        rows = np.arange(i, i + count)
        ratio, shift = data.tile(rows, start[rows], end[rows], step)
        if not data.finite:     # the screen is off: no floor may drop a NaN (inf - inf)
            ratio[np.isnan(ratio)] = np.inf
        # the nonempty buckets' edges, clipped to the live positions, as columns; the filled
        # buckets' starts in the flat tile, whose reductions run into -inf
        edges = (np.minimum(np.maximum(data.narrow[rows], start[rows, None]), end[rows, None])
                 - shift[:, None])
        lo, filled = edges[:, :-1], edges[:, 1:] > edges[:, :-1]
        starts = lo + (np.arange(len(rows)) * ratio.shape[1])[:, None]
        row_max = np.full(filled.shape, -np.inf)
        row_max[filled] = np.maximum.reduceat(ratio.ravel(), starts[filled])
        yield _Tile(rows, shift, edges, ratio, row_max)
        i += count


def _select(data, tile, pick, floors):
    """(row, position, bucket, float ratio) arrays, in (row, position) order, of the picked tile
    rows' items at or above their bucket's floor; a row's first and last segments are the
    columns before its start and at or past its end."""
    first, last = np.flatnonzero(pick)[[0, -1]]     # search the run of rows that holds the picks
    rows, shift, edges, ratio, pick = (a[first:last + 1] for a in (*tile[:4], pick))
    width = ratio.shape[1]
    lengths = np.concatenate((edges[:, :1], np.diff(edges), width - edges[:, -1:]), axis=1)
    floor_of = np.where(pick[:, None], np.concatenate(([np.inf], floors[data.filled], [np.inf])),
                        np.inf)
    flat = np.flatnonzero(ratio.ravel() >= np.repeat(floor_of.ravel(), lengths.ravel()))
    r, c = np.divmod(flat, width)
    segment = np.searchsorted(np.cumsum(lengths), flat, side="right") % lengths.shape[1]
    return rows[r], shift[r] + c, data.filled[segment - 1], ratio.ravel()[flat]


def _at_floors(kept, floors):
    """The kept item arrays joined, less the items below their bucket's floor."""
    items = [np.concatenate(column) for column in zip(*kept)]
    keep = items[3] >= floors[items[2]]
    return [column[keep] for column in items]


def _by_row(rows, *columns):
    """Per row of row-sorted item arrays: the row, then each column's items as a list."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
    rows, columns = rows.tolist(), [column.tolist() for column in columns]
    for a, b in zip(starts, starts[1:] + [len(rows)]):
        yield rows[a], *(column[a:b] for column in columns)


def _violation(data, tiles):
    """The lex-first strict violation among the tiled items, or None.  Suspects, the items at
    or above the strict floors, are checked exactly in row order up to the first violating row."""
    for tile in tiles:
        if (suspect := (tile.row_max >= data.strict_floors[data.filled]).any(axis=1)).any():
            picked = _select(data, tile, suspect, data.strict_floors)
            for i, hs in _by_row(*picked[:2]):
                row = data.row(i, hs[-1])
                found = [w for w in map(row.strict_witness, hs) if w is not None]
                if found:
                    return min(found)
    return None


def _settle(data, rows, hs, buckets, n_buckets):
    """Per bucket, the exact (image measure, measure, witness) ints of the candidates' maximum,
    lex-first, or None.  exact() evaluates the candidates as array passes, and each bucket takes
    an exact step, sorted by witness: for triples, (row, position) order is not witness
    order."""
    num, den, wit = data.exact(rows, hs)
    ratio = _float_ratios(num, den)
    best = [None] * n_buckets
    for b in np.flatnonzero(np.bincount(buckets, minlength=n_buckets)).tolist():
        best[b] = _exact_step(num, den, ratio, np.flatnonzero(buckets == b), _witness(wit), wit)
    return best


def _line_analysis(kind, numerators, den, image_nums, image_dens, eps):
    """Exact bucket suprema (lex-first witnesses) and the lex-first strict violation.

    One pass tiles each row at most once, over its buckets below its cut
    whose step-ratio bound reaches the floors in force (skip_floors).  Per
    tile, the items at or above the floors of the running bucket maxima are
    kept, and pruned whenever the floors rise; until a violation is found, the
    items at or above the strict floors are checked exactly in row order, and
    the rows up to the first violating one are then tiled again in full, less
    the buckets whose bound lies below the strict floors.  The items kept
    at the end, the float screen's candidates, are settled exactly as array
    passes (_settle).
    """
    eps = _checked_eps(kind, eps, len(numerators))
    data = _LINE_KINDS[kind](numerators, den, image_nums, image_dens, eps)
    top = np.full(len(data.counts), -np.inf)      # running float maxima per bucket
    floors = data.screen_floors(top)
    kept, strict = [], None         # the items seen so far at or above the floors

    def skip_floors():              # a bucket not yet seen has none
        seen = np.where(top > -np.inf, floors, -np.inf)
        return seen if strict is not None else np.minimum(seen, data.strict_floors)

    for tile in _line_tiles(data, data.cut, skip_floors):
        row_max = tile.row_max
        if (row_max > top[data.filled]).any():
            top[data.filled] = np.maximum(top[data.filled], row_max.max(axis=0))
            floors = data.screen_floors(top)
            kept = [_at_floors(kept, floors)] if kept else []
        if (reach := (row_max >= floors[data.filled]).any(axis=1)).any():
            kept.append(_select(data, tile, reach, floors))
        # last: tiling again overwrites this tile's buffers
        if strict is None and (first := _violation(data, [tile])) is not None:
            full = np.full(first[0] + 1, data.n)
            strict = _violation(data, _line_tiles(data, full, lambda: data.strict_floors))
            strict = (strict, *data.sides(strict))
    best = _settle(data, *_at_floors(kept, floors)[:3], len(top))
    return _finalize(kind, eps, [None if e is None else data.entry(e[2]) for e in best],
                     data.counts, strict, sum(data.counts), data.point, exact=True)


# ---------------------------------------------------------------------------
# assembly

def _finalize(kind, eps, bucket_entries, bucket_counts, strict, total, point, exact):
    """The EnumAnalysis of per-bucket entries; bucket b + 1 holds measures from eps[b].

    point(w) is the point at witness index w.
    """
    def pick(entry, running):
        better = running is None or (entry is not None and _better(*entry, *running))
        return entry if better else running

    def pack(entry):
        if entry is None:
            return None, None
        num, den, wit = entry
        ratio = Fraction(num, den) if exact else num / den
        return ratio, (tuple(map(point, wit)), num, den)

    # delta(eps[b]) is the best over buckets b+1..; vacuous when none qualify
    suffix, counts, running, count = [], [], None, 0
    for entry, n_items in zip(bucket_entries[:0:-1], bucket_counts[:0:-1]):
        running = pick(entry, running)
        count += n_items
        suffix.append(pack(running))
        counts.append(count)
    sup = None
    for entry in bucket_entries:
        sup = pick(entry, sup)
    sup_ratio, sup_witness = pack(sup)
    if strict is not None:      # (witness, measure, image measure)
        strict = (tuple(map(point, strict[0])), *strict[1:])
    return EnumAnalysis(
        kind=kind,
        eps=tuple(eps),
        deltas=tuple(value for value, _ in reversed(suffix)),
        delta_witnesses=tuple(packed for _, packed in reversed(suffix)),
        counts=tuple(reversed(counts)),
        sup_ratio=sup_ratio,
        sup_witness=sup_witness,
        strict_violation=strict,
        total=total,
    )


# ---------------------------------------------------------------------------
# public entry points

def table_pair_analysis(lattice, nodes, images, eps, points):
    """Pairwise enumeration of a finite table, given as its Lattice, over the positions ``nodes``.

    images[i] is the position of the image of position i; points[a] labels
    nodes[a] in witnesses.
    """
    return _table_analysis("pairwise", lattice, nodes, images, eps, points)


def table_triple_analysis(lattice, nodes, images, eps, points):
    """Triple (perimeter) enumeration; see table_pair_analysis."""
    return _table_analysis("triple", lattice, nodes, images, eps, points)


def line_pair_analysis(numerators, den, image_nums, image_dens, eps):
    """Pairwise enumeration of a sampled space: points numerators[i]/den, ascending.

    The image of point i is image_nums[i]/image_dens[i], reduced, with a
    positive denominator.  The three are int arrays (int64, or object arrays
    of Python ints) or sequences of ints; witnesses and their measures come
    out as Fractions.
    """
    return _line_analysis("pairwise", numerators, den, image_nums, image_dens, eps)


def line_triple_analysis(numerators, den, image_nums, image_dens, eps):
    """Triple (perimeter) enumeration; see line_pair_analysis."""
    return _line_analysis("triple", numerators, den, image_nums, image_dens, eps)
