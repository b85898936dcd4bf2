"""Exhaustive pair/triple enumeration with deterministic supremum reduction.

Two engines back the classifiers.  Both narrow each eps bucket's
candidates for the exact comparison by one float screen (_Screen): items
arrive in batches with their buckets and float ratios, each batch raises
its buckets' running float maxima, and the items at or above their
bucket's floor, which an engine's rule derives from the maximum, are kept
and pruned whenever a maximum rises.  The kept items are settled exactly
into per-bucket entries by the engine's settle step: early, whenever more
than SURVIVORS are kept, which bounds the memory of tie-heavy scans, and
once at the end.

* a table engine for finite spaces.  It reads the space's lattice
  (metric_core.Lattice), the one stored form of every finite space:
  integer numerators over the lcm of the table's denominators for exact
  tables, float64 for float tables.  Pairs, and triples in blocks of whole
  outer indices, are scanned as numpy passes in lexicographic order:
  perimeters are summed in the order of direct enumeration from one gather
  of the distances and their images per side, eps buckets are found by
  searchsorted against lattice thresholds once per pair (a triple's bucket
  is the greatest of its three pairs'), and the screen's floors are each
  bucket's float maximum on an exact lattice, a relative FLOAT_BAND below
  it on a screenable float one, and -inf on any other float lattice; its
  kept items are folded in witness order into the running entries
  (_LatticeReduction, _fold).
  Every value, witness and count equals that of a pure-Python enumeration
  in the table's scalars (the oracle the tests compare against).  A pair of
  points at distance <= 0 is refused.  One enumeration (_table_blocks)
  yields the blocks of a stack of B tables (one for a report, a batch of
  random instances for theorem_lab's sweep), and one strict test
  (_strict_item) finds a block's lex-first strict violation, for the
  reduction and for the strict search (table_strict_violation), which
  reads the blocks alone, without buckets, and stops at the first that
  holds a violation: on a finite space that violation decides the large
  verdicts (classify.large_verdict).
* a line engine for sampled one-dimensional spaces.  Points there are sorted
  rationals k/den under the absolute-difference metric, so a sorted triple
  i<j<k has perimeter 2*(c_k - c_i) and its image perimeter depends on j only
  through the extrema of the image values over i..k.  That collapses the
  triple scan to O(n^2) pairs (i, k).  Both scans of a report read one
  LineBasis, which checks the inputs and holds what the two derive alike,
  each made once: the images' ints and floats, the bucket edges of every
  row, the range-extremum tables over the float images and the exact image
  ranks with their tables.  Each scan reads it through a per-kind view
  (_LinePairs, _LineTriples), which derives the kind's own row edges,
  counts, cuts and screen bounds.  Items sharing a first index i form a
  row, and position h of row i stands for the last index i + gap + h; the
  positions of one eps bucket in one row form a cell.  One pass computes the
  float ratios of the items it reads as tiles of flat item arrays, about
  LINE_TILE items each (_LineData.items: a triple's middle-point extrema
  come from range-extremum tables over the float images), and feeds each
  tile to the screen, whose floors lie a proven float error bound below
  their bucket's running maximum (_LineData.screen_floors).  Each batch of
  kept items is settled exactly in one pass over all its buckets (_settle):
  their ratios as unreduced ints from the images' int numerators and
  denominators (int64, or object arrays of Python ints where a product
  could pass 2**63), a triple's best middle point from the basis'
  range-extremum tables over exact image ranks, the bucket float maxima
  from one np.maximum.at, and the items at them ordered by (bucket,
  witness) in one lexsort; only a bucket with more than one such item
  folds them (_fold).  Each bucket's result is merged into the running
  entries by _better, so ties still go to the lex-first witness.  The
  entries stay ints until _finalize, which folds them into the eps
  suffixes and the supremum and makes Fractions once per distinct winner
  (_LineData.entry).  Qualification thresholds (distance >= eps) are
  decided in integer arithmetic, so bucket membership never suffers float
  errors.
  Only the top bucket's minimal windows are read.  For sorted i < m < k,
  |T_k - T_i| <= |T_m - T_i| + |T_k - T_m| and the spans add up, so the
  ratio of (i, k) is at most the greater of its halves', and equal only if
  both halves equal it; the same holds for triples' best-middle spreads when
  m >= i+2 and k >= m+2, and on a tie the half (i, j', m) has j' <= j*, so
  its witness comes before (i, j*, k).  By induction on span, an item of the
  top bucket (span >= its threshold) that splits at a point into two such
  items never sets that bucket's maximum or lex-first witness, so row i is
  read up to its cut only (_LineData.cut); counts still cover every item.
  Two bounds keep most other items unread (_line_tiles), each a float above
  the float ratio and the exact ratio of every item it covers:
  - the step-ratio bound of a row.  For i < k the image range over i..k is
    at most the total variation of the sampled map there, which is at most
    L(i, k) times the span, L(i, k) being the largest adjacent step ratio
    |T_{j+1} - T_j| / (x_{j+1} - x_j) for i <= j < k.  So the ratio of the
    pair (i, k), and the best-middle ratio of every triple (i, j, k), is at
    most L(i, k), which never falls as k grows: over a row it is greatest
    at its last item below the cut, and that one bound serves each of the
    row's cells.  The adjacent float ratios obey the screen's error bound,
    so an item's float ratio is at most a + 4u*M*den/s1 + 10u*a, a being
    the largest adjacent float ratio over its steps and s1 the least
    adjacent step (u, M as in _LineData.screen_floors); the bound adds twice
    that margin, 8u*M*den/s1 + 32u*a, which covers its own rounding, to a
    from a range-maximum table over the n - 1 adjacent float ratios.
  - the range bound of a block of last indices k0 <= k < k1 in a cell of
    row i.  For pairs, |T_k - T_i| / (x_k - x_i) <= max(max T[k0..k1) - T_i,
    T_i - min T[k0..k1)) / (x_k0 - x_i); for triples, a best-middle spread
    is at most max T[i..k1) - min T[i..k1), over the same least span.  The
    bound D * (den / s0) is computed from the float extrema with the very
    operations that give an item's float ratio, and every one of them rounds
    monotonically, so it lies above each item's float ratio as it is.
    Against the exact ratio, the float extrema and images are within u*M of
    exact, so D's exact value is at most D(1 + u) + 2u*M, and D * (den / s0)
    took at most three roundings.  The bound adds 32u of itself, which
    covers the relative errors, and the bucket's screen error 8u*M*den/s_b
    (s_b <= s0 its least span), which covers 2u*M*den/s0, each with room for
    the bound's own rounding.  A
    cell splits into blocks whose spans grow by less than 2**(1/SPAN_BLOCKS)
    (_LineData.blocks), so the bound stays within that factor of the ratios
    where the images vary smoothly.
  Each nonempty bucket's first cell is read whole first, which sets its
  floor.  The other cells are read bucket by bucket: a cell whose row's
  step-ratio bound lies strictly below max(floor, 0) is dropped; one of more
  than SPAN_BLOCKS positions is split into blocks bounded by the lesser of
  the two bounds, and is read as its blocks whose bound reaches
  max(floor, 0) at the floors in force before each tile.  A dropped
  item's float ratio thus lies below every floor it is compared with, so it
  is never kept or raises a maximum; the floors lie below the exact maxima,
  so it is never a maximum or a tied lex-first witness.  When the images'
  floats overflow, every bound is +inf and nothing is dropped.  No bound
  subsumes another: on floor_half every L is 1 and the cut does most of the
  work, while on burton_logistic the top bucket is empty and the bounds drop
  most items.
  The lex-first strict violation is searched only when the exact supremum
  reaches 1: a strict violation is an item of ratio >= 1, so below 1 there
  is none.  The search needs no tile (_LinePairs.strict,
  _LineTriples.strict): it is found from suffix extrema of keys such as
  T_k - x_k and T_k + x_k, compared exactly over a common denominator or by
  exact ranks (_comparable), in O(n log n).

Supremum ties break toward the lexicographically smallest witness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .metric_core import ETA, LATTICE_LIMIT, InputError, InternalConsistencyError, pair_grid

FLOAT_BAND = 1e-9        # float table candidates: relative width below a bucket maximum
TRIPLE_BLOCK = 1 << 12   # triples per numpy pass of the table engine
SURVIVORS = 1 << 12      # both engines: kept screen candidates before they are settled early
LINE_TILE = 1 << 15      # line engine: items per tile, and blocks per run of cells
SPAN_BLOCKS = 8          # line engine: range-bound blocks per doubling of span in a row's bucket
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


def _checked_eps(eps):
    """The eps grid as a tuple, after checking it."""
    eps = tuple(eps)
    if not eps:
        raise InputError("eps grid must be nonempty")
    if any(e <= 0 for e in eps):
        raise InputError("eps grid values must be positive")
    if list(eps) != sorted(eps):
        raise InputError("eps grid must be ascending")
    if len(set(eps)) != len(eps):
        raise InputError("eps grid values must be distinct")
    return eps


def _need_points(kind, n_points):
    """Refuse fewer points than one item of the kind holds."""
    need = 2 if kind == "pairwise" else 3
    if n_points < need:
        raise InputError(f"need at least {need} points")


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


class _Screen:
    """The float candidate screen of both engines: per eps bucket, the items at or above a
    floor under the bucket's running float maximum, settled into exact per-bucket entries.

    feed() takes a batch of items: their buckets, float ratios and other
    columns.  It raises each bucket's running maximum (one np.maximum.at),
    takes the floors from the engine's rule(maxima), keeps the batch's items
    at or above their bucket's floor, and prunes the items kept before
    whenever a maximum rises.  A rule never lowers a floor as a maximum
    rises, so an item pruned lies below its bucket's final floor.  The kept
    items are settled by settle(entries, bucket, *columns), which returns the
    new per-bucket entries: early, whenever more than SURVIVORS are kept,
    which bounds the memory on tie-heavy scans, and once at the end
    (result()).  The items settled thus hold every item at or above the
    final floors; a NaN ratio is below no floor.
    """

    def __init__(self, n_buckets, rule, settle):
        self.rule, self.settle = rule, settle
        self.top = np.full(n_buckets, -np.inf)      # running float maxima
        self.floors = rule(self.top)
        self.entries = [None] * n_buckets
        self.kept = []          # per batch: (bucket, ratio, *columns) at or above the floors

    def feed(self, bucket, ratio, *columns):
        reach = ~(ratio < self.floors[bucket])
        if not reach.any():             # an item that raises a maximum is at or above its floor
            return
        top = self.top.copy()
        np.maximum.at(top, bucket, ratio)
        if (top > self.top).any():
            self.top, self.floors = top, self.rule(top)
            if self.kept:
                items = list(map(np.concatenate, zip(*self.kept)))
                keep = np.flatnonzero(~(items[1] < self.floors[items[0]]))
                self.kept = [[column[keep] for column in items]]
            reach = ~(ratio < self.floors[bucket])
        keep = np.flatnonzero(reach)
        self.kept.append([column[keep] for column in (bucket, ratio, *columns)])
        if sum(len(batch[0]) for batch in self.kept) > SURVIVORS:
            self.result()

    def result(self):
        """The per-bucket entries, after settling the items kept."""
        if self.kept:
            bucket, _, *columns = map(np.concatenate, zip(*self.kept))
            self.entries, self.kept = self.settle(self.entries, bucket, *columns), []
        return self.entries


class _LatticeReduction:
    """Bucket counts, per-bucket suprema and the strict violation over lattice items.

    Items arrive in lexicographic witness order, a block of arrays at a time,
    and the result equals the sequential reduction of direct enumeration,
    which keeps the first item of each bucket's greatest ratio (_better).
    The float screen (_Screen) narrows the candidates, and settles them by
    folding them in witness order into the running entries (_fold).  Its
    floors are the bucket maxima on an exact lattice, the band below them on
    a screenable float one, and -inf on any other float lattice, where every
    item is a candidate.

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
        n_buckets = len(eps) + 1
        self.counts = np.zeros(n_buckets, dtype=np.int64)
        self.strict = None                    # (witness indices, measure, image measure)
        if lattice.exact or lattice.screenable:
            band = 0 if lattice.exact else FLOAT_BAND
            def rule(top):
                return np.where(top > 0, top * (1 - band), top * (1 + band))
        else:
            def rule(top):
                return np.full_like(top, -np.inf)
        self.screen = _Screen(n_buckets, rule, self.settle)

    @staticmethod
    def settle(entries, bucket, num, den, *wit):
        """Fold items, in witness order, into the running entries (_fold), bucket by bucket."""
        for b in np.flatnonzero(np.bincount(bucket)).tolist():
            entries[b] = _fold(num, den, np.flatnonzero(bucket == b), _witness(wit), entries[b])
        return entries

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
        self.counts += np.bincount(bucket, minlength=len(self.counts))
        if self.strict is None:
            self.strict = _strict_item(self.lattice, num, den, wit)
        self.screen.feed(bucket, _float_ratios(num, den), num, den, *wit)

    def result(self, kind, eps, points):
        scalar = self.lattice.scalar
        strict = self.strict
        if strict is not None:
            strict = (strict[0], scalar(strict[1]), scalar(strict[2]))
        return _finalize(kind, eps, self.screen.result(), self.counts.tolist(), strict,
                         points.__getitem__, lambda e: (scalar(e[0]), scalar(e[1]), e[2]),
                         self.lattice.exact)


def _witness(wit):
    """Item t's witness indices, from the witness index columns wit."""
    return lambda t: tuple(int(w[t]) for w in wit)


def _strict_item(lattice, num, den, wit):
    """The strict test of a block of items: its first item, in witness order, whose image
    measure num is at least its measure den (less ETA on a float lattice), as (witness
    indices, measure, image measure); None when every item decreases strictly."""
    hit = num >= den if lattice.exact else num >= den - ETA
    t = int(hit.argmax())
    return (_witness(wit)(t), den[t], num[t]) if hit[t] else None


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


def _table_stack(lattice, nodes, images):
    """The (2, 1, m, m) stack of one table over the positions nodes: its distances and the
    distances of their images (images[i] is the position of the image of position i)."""
    nodes = np.asarray(nodes, dtype=np.intp)
    ends = (nodes, np.asarray(images, dtype=np.intp)[nodes])
    return np.stack([lattice.values[np.ix_(e, e)] for e in ends])[:, None]


def _table_blocks(kind, stack, points, bucket=None):
    """The pairs or triples of B tables of m points as blocks in lexicographic witness order.

    stack is a (2, B, m, m) array of the tables' distances d(p, q) and
    image distances d(Tp, Tq).  Yields (image measure, measure, witness
    index columns, eps buckets): measures and buckets as (B, items) arrays,
    the witness columns shared by the B rows; the pairs as one block, the
    triples in the blocks of _triple_blocks.  bucket, when given, maps pair
    distances to their eps buckets (_LatticeReduction.bucket), and a
    triple's bucket, that of its longest side, is the greatest of its
    pairs'; without it the buckets are None.  The point count and then the
    pair distances are checked before the first block: the first table's
    first nonpositive pair is refused, points labelling the m points.
    Callers iterate under np.errstate(over="ignore", invalid="ignore"), for
    inf and huge float entries.
    """
    _, count, m, _ = stack.shape
    _need_points(kind, m)
    grid = pair_grid(m)
    rows, cols = grid.rows, grid.cols
    # the distances (row 0) and the distances of the images (row 1), so one take gathers both
    both = stack.reshape(2, count, m * m)
    both_pair = both.take(grid.upper, axis=2)
    d_pair, t_pair = both_pair
    if not (d_pair > 0).all():
        _, first = np.argwhere(~(d_pair > 0))[0]
        raise InputError(f"the distance between points {points[rows[first]]!r} and "
                         f"{points[cols[first]]!r} is not positive; pair and perimeter "
                         f"ratios need a metric table")
    b_pair = None if bucket is None else bucket(d_pair)
    if kind == "pairwise":
        yield t_pair, d_pair, (rows, cols), b_pair
        return
    if b_pair is not None:
        b_flat = np.zeros((count, m * m), dtype=b_pair.dtype)
        b_flat[:, grid.upper] = b_pair
    for a, pair in _triple_blocks(m, rows):
        j, k = rows[pair], cols[pair]
        aj, ak = a * m + j, a * m + k
        # sums in enumeration order keep float mode bit-identical
        p, pt = both.take(aj, axis=2) + both_pair.take(pair, axis=2) + both.take(ak, axis=2)
        b = None
        if b_pair is not None:
            b = np.maximum(np.maximum(b_flat.take(aj, axis=1), b_pair.take(pair, axis=1)),
                           b_flat.take(ak, axis=1))
        yield pt, p, (a, j, k), b


def _table_analysis(kind, lattice, nodes, images, eps, points):
    """The table enumeration as numpy passes over the lattice."""
    eps = _checked_eps(eps)
    red = _LatticeReduction(lattice, eps)
    stack = _table_stack(lattice, nodes, images)
    with np.errstate(over="ignore", invalid="ignore"):   # inf and huge float entries
        for num, den, wit, bucket in _table_blocks(kind, stack, points, red.bucket):
            red.feed(num[0], den[0], bucket[0], wit)
        return red.result(kind, eps, points)


def _int_array(values):
    """Ints as an int64 array, or an object array of Python ints when one does not fit int64."""
    if isinstance(values, np.ndarray) and values.dtype in (np.int64, object):
        return values
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


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


def _range_windows(width, lo, hi, log2):
    """Per query keys[lo..hi] (inclusive, lo <= hi), the flat indices in an extremum table of
    rows of width keys of two overlapping windows that cover it; log2[m] is floor(log2(m))
    (_LineData.log2)."""
    p = log2[hi - lo + 1]
    row = p * width                                 # flat indices gather faster than pairs
    return row + lo, row + hi + 1 - np.left_shift(1, p)


def _range_extremum(table, ufunc, lo, hi, log2):
    """Per query, ufunc over keys[lo..hi] (inclusive, lo <= hi): two overlapping table windows
    (_range_windows)."""
    first, second = _range_windows(table.shape[1], lo, hi, log2)
    return ufunc(table.take(first), table.take(second))


def _ranks(num, den):
    """Dense ranks of the rationals num / den (den > 0) in exact order.

    num and den are int64 arrays below 2**53 in magnitude, or object arrays
    of Python ints, so that their float quotients are correctly rounded
    (_float_ratios) and never reverse the order; neighbours in float order
    with equal floats are compared exactly (_cross), and runs of equal
    floats that hold distinct values are sorted exactly.
    """
    values = _float_ratios(num, den)
    order = np.argsort(values)
    equal = values[order][1:] == values[order][:-1]
    tied = np.flatnonzero(equal)

    def differ(order):          # where neighbours in order differ, exactly
        out = np.ones(len(order) - 1, dtype=bool)
        out[tied] = _cross(num, den, order[tied], order[tied + 1]) != 0
        return out

    steps = differ(order)
    if (mixed := steps & equal).any():      # distinct values share a float
        runs = np.flatnonzero(np.diff(np.concatenate(([0], equal, [0])))).reshape(-1, 2)
        order = order.tolist()
        for s, e in runs[np.logical_or.reduceat(mixed, runs[:, 0])].tolist():
            order[s:e + 1] = sorted(order[s:e + 1], key=lambda t: Fraction(int(num[t]),
                                                                           int(den[t])))
        order = np.array(order)
        steps = differ(order)
    rank = np.empty(len(num), dtype=np.int64)
    rank[order] = np.concatenate(([0], np.cumsum(steps)))
    return rank


def _cross(num, den, p, q):
    """num[p]*den[q] - num[q]*den[p], exactly: in int64 where no product can pass 2**62."""
    terms = num[p], den[q], num[q], den[p]
    if num.dtype != object and int(np.abs(num).max()) * int(den.max()) >= 2 ** 62:
        terms = (t.astype(object) for t in terms)
    a, d, c, b = terms
    return a * d - c * b


def _suffix(ranks, ufunc):
    """ufunc over ranks[s:] for each s."""
    return ufunc.accumulate(ranks[::-1])[::-1]


def _comparable(*keys):
    """Int arrays that compare like the rationals of several (numerators, denominators) key
    arrays, all in one order, an array per key array: the numerators over a common
    denominator when each key array has one denominator and the scaled numerators stay within
    2**62, which needs no sort, and otherwise their joint exact ranks (_ranks)."""
    dens = [int(den[0]) if (den == den[0]).all() else 0 for _, den in keys]
    if all(dens):
        common = math.lcm(*dens)
        scales = [common // d for d in dens]
        if all(num.dtype != object and int(np.abs(num).max()) * m < 2 ** 62
               for (num, _), m in zip(keys, scales)):
            return [num * m for (num, _), m in zip(keys, scales)]
    ranks = _ranks(*(np.concatenate(parts) for parts in zip(*keys)))
    return np.split(ranks, np.cumsum([len(num) for num, _ in keys])[:-1])


def _shifted(a, b, x, den, sign):
    """(numerators, denominators) of the images a/b plus sign times the points x/den."""
    return a * den + sign * x * b, b * den


class LineBasis:
    """The checked inputs of a sampled space's two line scans, and what both derive from them.

    Points numerators[i]/den, ascending; the image of point i is
    image_nums[i]/image_dens[i], reduced, with a positive denominator.  The
    three are int arrays (int64, or object arrays of Python ints) or
    sequences of ints; eps is the scans' grid.  A report builds one basis and
    runs both scans on it, each through its per-kind view (_LinePairs,
    _LineTriples), so each of these is made once per report:
    - the checked int arrays: the images' numerators and denominators, int64
      while exact()'s quotients' operands stay below 2**53 and its products
      below 2**63, object arrays of Python ints otherwise;
    - the images' floats and the eps buckets' thresholds in 1/den units;
    - on first use, the pair rows' bucket edges (before), one searchsorted
      per distinct edge, of which a triple row's are one less;
    - on first use, the float range tables (log2, steepest, highs, lows),
      and the exact image ranks with their two first-index extremum tables
      (ranks, tops, bottoms), which each settle of a triple scan reads.
    Each scan checks the point count its kind needs (_need_points).
    """

    def __init__(self, numerators, den, image_nums, image_dens, eps):
        self.eps = _checked_eps(eps)
        if den <= 0:
            raise InputError(f"the points' denominator must be positive, not {den}")
        self.den = den
        self.nums = np.asarray(numerators, dtype=np.int64)
        if not (ascending := np.diff(self.nums) > 0).all():
            t = int(np.argmin(ascending))
            raise InputError(f"sample numerators must be strictly ascending: {self.nums[t]} at "
                             f"index {t} is followed by {self.nums[t + 1]}")
        inum, iden = _int_array(image_nums), _int_array(image_dens)
        if not (positive := iden > 0).all():
            t = int(np.argmin(positive))
            raise InputError(f"image denominators must be positive: {iden[t]} at index {t}")
        self.n = n = len(self.nums)
        self.longest = int(self.nums[-1]) - int(self.nums[0]) if n else 0
        a, b = (max(-int(inum.min()), int(inum.max())), int(iden.max())) if n else (0, 1)
        wide = max(2 * a * b, b * b * self.longest) > 2 ** 53 or 4 * a * b ** 3 >= 2 ** 63
        self.inum, self.iden = (v.astype(object if wide else np.int64, copy=False)
                                for v in (inum, iden))
        self.tvals = _float_ratios(self.inum, self.iden)
        self.finite = bool(np.isfinite(self.tvals).all())
        self.largest = float(np.abs(self.tvals).max(initial=0))
        self.thresholds = _ceil_thresholds(self.eps, den, self.longest + 1)

    @cached_property
    def before(self):
        """The pair rows' bucket edges: before[i, e] counts the positions h of row i (last index
        i + 1 + h) whose span lies below edge e, the edges being 0, the thresholds and one past
        the longest span (_LineData)."""
        n, rows = self.n, self.n - 1
        edges = np.concatenate(([0], self.thresholds, [self.longest + 1]))
        # searched once per distinct edge, edge by edge so that the queries ascend, and stored
        # transposed; edge 0 finds each row's own point and an edge past the longest span none
        distinct, edge = np.unique(edges, return_inverse=True)
        found = np.empty((len(distinct), rows), dtype=np.int64)
        found[0], found[-1] = np.arange(rows), n
        found[1:-1] = np.searchsorted(self.nums, distinct[1:-1, None] + self.nums[:rows])
        return np.maximum(found[edge] - np.arange(1, n), 0).T

    @cached_property
    def log2(self):
        """floor(log2(m)) at index m, for 0 < m <= n (index 0 holds 0): the range-extremum
        queries look it up, several times faster than frexp."""
        bits = self.n.bit_length()
        return np.concatenate(([0], np.repeat(np.arange(bits), 1 << np.arange(bits))))[:self.n + 1]

    @cached_property
    def steepest(self):
        """Range-maximum table of the adjacent float step ratios (_LineData.step_bounds)."""
        with np.errstate(over="ignore"):
            steps = np.abs(np.diff(self.tvals)) * (float(self.den) / np.diff(self.nums))
        return _extrema_table(steps, np.maximum, self.n - 1)

    @cached_property
    def step_margin(self):
        """The absolute part of the step-ratio bound's margin (_LineData.step_bounds)."""
        return 8 * 2.0 ** -53 * self.largest * float(self.den) / int(np.diff(self.nums).min())

    @cached_property
    def highs(self):
        """Range-maximum table of the float images (extrema())."""
        return _extrema_table(self.tvals, np.maximum, self.n)

    @cached_property
    def lows(self):
        """Range-minimum table of the float images (extrema())."""
        return _extrema_table(self.tvals, np.minimum, self.n)

    @cached_property
    def ranks(self):
        """Dense ranks of the images in exact order (_ranks)."""
        return _ranks(self.inum, self.iden)

    @cached_property
    def tops(self):
        """Range-maximum table of the keys rank * n + (n - 1 - index): a range's greatest image
        at its first index (_LineTriples.exact)."""
        index = np.arange(self.n)
        return _extrema_table(self.ranks * self.n + (self.n - 1 - index), np.maximum, self.n)

    @cached_property
    def bottoms(self):
        """Range-minimum table of the keys rank * n + index: a range's least image at its first
        index (_LineTriples.exact)."""
        return _extrema_table(self.ranks * self.n + np.arange(self.n), np.minimum, self.n)

    def extrema(self, lo, hi):
        """The greatest and the least float image over each range of indices lo..hi
        (inclusive), from one pair of table windows per range."""
        windows = _range_windows(self.n, lo, hi, self.log2)
        return (np.maximum(*map(self.highs.take, windows)),
                np.minimum(*map(self.lows.take, windows)))

    def point(self, i):
        """Point i as a Fraction."""
        return Fraction(int(self.nums[i]), self.den)

    def image(self, i):
        """The image of point i as a Fraction."""
        return Fraction(int(self.inum[i]), int(self.iden[i]))

    def widened(self, terms):
        """The images' ints and the points' numerators, as int64 arrays when an image plus a
        point (terms 2), less another image (terms 3), keeps its ints over their common
        denominator below 2**53 (_shifted), and as object arrays of Python ints otherwise."""
        a, b = max(-int(self.inum.min()), int(self.inum.max())), int(self.iden.max())
        num, den = a * self.den + int(np.abs(self.nums).max()) * b, b * self.den
        if terms == 3:
            num, den = num * b + a * den, den * b
        dtype = np.int64 if max(num, den) < 2 ** 53 else object
        return (v.astype(dtype) for v in (self.inum, self.iden, self.nums))


class _LineData:
    """One kind's view of a LineBasis (basis): the per-kind arrays of its scan.

    Items are grouped in rows by their first index i.  Position h of row i
    stands for the items whose last index is i + gap + h; spans ascend with
    h.  Eps bucket b of row i holds positions before[i, b] to before[i, b+1]
    (bucket 0 lies below eps[0]); narrow[j, i] is before[i, b] for the
    nonempty buckets b = filled[j] and, last, the end of row i.
    """

    gap = None

    def __init__(self, basis):
        self.basis = basis
        n, gap, nums, thresholds = basis.n, self.gap, basis.nums, basis.thresholds
        # a triple row i's last indices are a pair row's less one: its edges are one less
        self.before = basis.before if gap == 1 else np.maximum(basis.before[:-1] - 1, 0)
        self.counts = np.diff(self.items_before(self.before)).tolist()
        # the edges of the nonempty buckets: an empty one is empty in every row
        self.filled = np.flatnonzero(self.counts)
        self.narrow = self.before.T[np.append(self.filled, len(self.counts))]
        # row i's items with last index cut[i] or more split at j0 into two top-bucket items
        j0 = self.before[:, -2] + np.arange(gap, n)
        self.cut = np.minimum(np.maximum(j0 + gap, np.searchsorted(
            nums, nums[np.minimum(j0, n - 1)] + thresholds[-1])), n)
        # the float screen's absolute bound, over each bucket's least span (screen_floors)
        shortest = int((nums[gap:] - nums[:-gap]).min())
        self.absolute = (8 * 2.0 ** -53 * basis.largest * float(basis.den)
                         / np.maximum(shortest, np.concatenate(([0], thresholds))))

    def entry(self, wit):
        """Exact (image measure, measure, witness) at a witness."""
        measure, image_measure = self.sides(wit)
        return image_measure, measure, wit

    def screen_floors(self, best):
        """Per-bucket float floors, given float ratios F of an item of each bucket.

        An item below floors[b] is not bucket b's exact maximum.  A float
        ratio r and its exact ratio R obey |r - R| <= 2u*M*den/span + 5u*R,
        with u = 2**-53 and M = max |image|: float images and their running
        extrema are within u*M of exact, an image difference adds one
        rounding, and den, span, the division and the scaling four more.  The
        exact maximum is at least the exact ratio of the item with float ratio
        F, so its float ratio is at least F - 4u*M*den/s - 10u*R, s being the
        bucket's least span.  The floors take off 2**-48 * |F| = 32u*|F| and
        8u*M*den/s, which cover that with room for their own rounding; a
        bound that overflows, as an image beyond the float range makes it,
        turns the screen off.  An empty bucket's floor is -inf: the first
        tile fills every nonempty bucket before a floor is read.  A
        relative slack alone fails on large, close images: near 10**12,
        floats are 2**-13 apart.  F may thus be a running maximum over the
        rows seen so far; as F rises the floors never fall.
        """
        with np.errstate(invalid="ignore"):
            floors = best - (2.0 ** -48 * np.abs(best) + self.absolute)
        floors[np.isnan(floors)] = -np.inf
        return floors

    def step_bounds(self, rows, ends):
        """Per row i of rows, a float above the float and exact ratios of its items at positions
        below ends[i] > 0 (the step-ratio lemma): the steepest adjacent float step ratio over
        their steps plus its margin; +inf when the images' floats overflow."""
        basis = self.basis
        if not basis.finite:
            return np.full(len(rows), np.inf)
        # the steps of an item run from its first index to its last index less one
        steepest = _range_extremum(basis.steepest, np.maximum, rows, rows + self.gap - 2 + ends,
                                   basis.log2)
        return steepest * (1 + 2.0 ** -48) + basis.step_margin

    def edge_counts(self, rows, starts, ends):
        """Per cell (row rows[c], positions [starts[c], ends[c])), the number of block edges
        inside it (blocks()): one per 1/SPAN_BLOCKS octave of its spans past the first, and
        fewer than its positions."""
        nums = self.basis.nums
        base = nums[rows]
        ratio = (nums[rows + self.gap - 1 + ends] - base) / (nums[rows + self.gap + starts] - base)
        return np.minimum(np.ceil(SPAN_BLOCKS * np.log2(ratio)), ends - starts - 1).astype(np.int64)

    def blocks(self, rows, starts, ends, counts):
        """The nonempty blocks of cells (row rows[c], positions [starts[c], ends[c])), with
        counts[c] edges inside cell c: per block, its cell c and its positions [lo, hi), in cell
        order.  Edge m of a cell with first span s is its first last index at span s *
        2**(m/SPAN_BLOCKS) or more, so with edge_counts() a block's last span is below
        2**(1/SPAN_BLOCKS) times its first one, but in a cell that has fewer positions than
        octave steps."""
        if not counts.any():
            return np.arange(len(rows)), starts, ends
        nums = self.basis.nums
        # the inner edges: each one's cell, its number m from 1 in the cell, its position
        owner, g = np.repeat(np.arange(len(rows)), counts), np.arange(int(counts.sum()))
        m = g + 1 - np.repeat(np.cumsum(counts) - counts, counts)
        first, base = rows + self.gap, nums[rows]        # the last index at position 0
        s0, last = nums[first + starts] - base, nums[first + ends - 1] - base
        factor = 2.0 ** (np.arange(1, int(counts.max()) + 1) / SPAN_BLOCKS)
        step = np.minimum(np.ceil(s0[owner] * factor[m - 1]), last[owner])
        edge = np.searchsorted(nums, base[owner] + step.astype(np.int64)) - first[owner]
        # a cell's blocks run from its start through its inner edges to its end
        cell = np.repeat(np.arange(len(rows)), counts + 1)
        lo, hi = np.empty(len(cell), dtype=np.int64), np.empty(len(cell), dtype=np.int64)
        offsets = np.cumsum(counts + 1) - counts - 1
        lo[offsets], hi[offsets + counts] = starts, ends
        lo[owner + g + 1] = hi[owner + g] = edge
        return tuple(a[hi > lo] for a in (cell, lo, hi))

    def range_bounds(self, rows, lo, hi, margin):
        """Per block (row rows[t], positions [lo[t], hi[t])), a float above the float and exact
        ratio of each of its items (the range lemma), margin[t] being its bucket's screen error
        absolute[b]; +inf when the images' floats overflow."""
        basis = self.basis
        if not basis.finite:
            return np.full(len(rows), np.inf)
        k0, k1 = rows + self.gap + lo, rows + self.gap + hi - 1
        if self.gap == 1:       # the images of the block's last indices, about the row's image
            t, (top, bottom) = basis.tvals[rows], basis.extrema(k0, k1)
            spread = np.maximum(top - t, t - bottom)
        else:                   # the images from the row's first index to the block's last
            top, bottom = basis.extrema(rows, k1)
            spread = top - bottom
        factor = float(basis.den) / (basis.nums[k0] - basis.nums[rows]).astype(np.float64)
        return spread * factor * (1 + 2.0 ** -48) + margin

    def items(self, bucket, rows, start, end):
        """The tile of the items at positions [start[c], end[c]) of row rows[c], in bucket
        bucket[c], for each segment c (a cell, or a block of one), in segment and position
        order: their buckets, rows, last indices and float ratios, each the float that the
        row-at-a-time formula gives, bit for bit."""
        basis = self.basis
        width = end - start
        i = np.repeat(rows, width)
        k = np.arange(len(i)) + np.repeat(rows + self.gap + start - np.cumsum(width) + width, width)
        with np.errstate(invalid="ignore"):         # inf - inf
            ratio = self.spreads(i, k) * (float(basis.den)
                                          / (basis.nums[k] - basis.nums[i]).astype(np.float64))
        if not basis.finite:    # the screen is off: no floor may drop a NaN (inf - inf)
            ratio[np.isnan(ratio)] = np.inf
        return _Tile(np.repeat(bucket, width), i, k, ratio)


class _LinePairs(_LineData):
    gap = 1

    def spreads(self, i, k):
        """Float image distances |tv[k] - tv[i]|."""
        tvals = self.basis.tvals
        return np.abs(tvals[k] - tvals[i])

    @staticmethod
    def items_before(before):
        """Per edge e, the pairs of all rows at positions below before[:, e]."""
        return before.sum(axis=0)

    def sides(self, wit):
        """Exact (distance, image distance) at a pair witness."""
        i, j = wit
        point, image = self.basis.point, self.basis.image
        return point(j) - point(i), abs(image(j) - image(i))

    def exact(self, rows, hs):
        """(image distance numerators, their denominators times the spans, witness columns) of
        the pairs (rows, rows + 1 + hs): unreduced ints that order items like their ratios."""
        i, j = rows, rows + 1 + hs
        a, b, nums = self.basis.inum, self.basis.iden, self.basis.nums
        span = nums[j] - nums[i]
        return np.abs(a[j] * b[i] - a[i] * b[j]), b[i] * b[j] * span, (i, j)

    def strict(self):
        """The lex-first pair (i, k) that does not move closer, or None.

        |T_k - T_i| >= x_k - x_i iff T_k - x_k >= T_i - x_i or T_k + x_k <=
        T_i + x_i, so the first such row i is the first one where the
        greatest T - x after it reaches its own, or the least T + x after it
        reaches down to its own; its first k is one pass over the row.  Both
        key sets are compared exactly (_comparable).
        """
        a, b, x = self.basis.widened(2)
        (minus,), (plus,) = (_comparable(_shifted(a, b, x, self.basis.den, sign))
                             for sign in (-1, 1))
        hits = np.flatnonzero((_suffix(minus, np.maximum)[1:] >= minus[:-1])
                              | (_suffix(plus, np.minimum)[1:] <= plus[:-1]))
        if not len(hits):
            return None
        i = int(hits[0])
        return i, i + 1 + int(np.argmax((minus[i + 1:] >= minus[i]) | (plus[i + 1:] <= plus[i])))


class _LineTriples(_LineData):
    """Triples i < j < k, reduced over j to their (i, k) pairs."""

    gap = 2

    def spreads(self, i, k):
        """Float image spreads of the pairs (i, k) at their best middle points.

        The row-at-a-time formula, max(hi - lo, top - lo, hi - bottom) with
        lo, hi the images of i and k and top, bottom the running extrema of
        the middle images, equals max(Top - lo, hi - Bottom) bit for bit,
        where Top and Bottom run over tv[i .. k] (the range-extremum tables):
        max and min are exact and rounding is monotone.
        """
        tvals = self.basis.tvals
        ends, (top, bottom) = (tvals[i], tvals[k]), self.basis.extrema(i, k)
        return np.maximum(top - np.minimum(*ends), np.maximum(*ends) - bottom)

    @staticmethod
    def items_before(before):
        """Per edge e, the triples of all rows at positions below before[:, e]: position p has
        p + 1 middle points, so h positions hold h(h + 1)/2; einsum sums the squares with no
        temporary the size of before."""
        return (np.einsum("ij,ij->j", before, before) + before.sum(axis=0)) // 2

    def sides(self, wit):
        """Exact (perimeter, image perimeter) at a triple witness."""
        i, j, k = wit
        point, image = self.basis.point, self.basis.image
        ims = (image(i), image(j), image(k))
        return 2 * (point(k) - point(i)), 2 * (max(ims) - min(ims))

    def exact(self, rows, hs):
        """(image spread numerators, their denominators times the spans, witness columns) of
        the pairs (rows, rows + 2 + hs) at their best middle points, the smallest on ties.

        The spread is the greatest of hi - lo, top - lo and hi - bottom, lo and
        hi being the images of i and k, and top and bottom the extreme middle
        images, at their first indices (the basis' tables tops and bottoms,
        built once per basis).  Ranks decide which differences beat hi - lo;
        only when both do are they compared by cross products.  Entries are
        unreduced as for pairs (perimeters are twice spans).
        """
        basis = self.basis
        i, k = rows, rows + 2 + hs
        n, rank, a, b = basis.n, basis.ranks, basis.inum, basis.iden
        # the first index of the greatest and of the least image over each range of middle points
        top = n - 1 - _range_extremum(basis.tops, np.maximum, i + 1, k - 1, basis.log2) % n
        bottom = _range_extremum(basis.bottoms, np.minimum, i + 1, k - 1, basis.log2) % n
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
        return num, den * (basis.nums[k] - basis.nums[i]), (i, j, k)

    def strict(self):
        """The lex-first triple (i, j, k) whose perimeter does not decrease, or None.

        It does not iff one of its three image distances reaches x_k - x_i,
        and for two of its indices fixed the nearest third one is the best.
        So row i holds one iff
        (a) a pair (i, k) with k >= i + 2 does (T - x and T + x, as for pairs);
        (b) some j > i has |T_j - T_i| >= x_{j+1} - x_i: T_j - x_{j+1} and
            T_j + x_{j+1} against T_i - x_i and T_i + x_i;
        (c) some j > i has C_j >= -x_i, C_j being the larger of U_j - T_j and
            T_j - V_j, where U_j is the greatest T_k - x_k and V_j the least
            T_k + x_k over k > j.
        The same three tests at each j > i of the first such row give its
        first j.  Its first k is then j + 1 under (b), and otherwise the first
        k > j with T_k - x_k >= min(T_i, T_j) - x_i or T_k + x_k <= max(T_i,
        T_j) + x_i.  Each set of keys is compared exactly (_comparable).
        """
        n, den = self.basis.n, self.basis.den
        a, b, x = self.basis.widened(3)
        minus, plus = (_shifted(a, b, x, den, sign) for sign in (-1, 1))
        ra, rp = _comparable(minus, _shifted(a[:-1], b[:-1], x[1:], den, -1))
        rb, rq = _comparable(plus, _shifted(a[:-1], b[:-1], x[1:], den, 1))
        up, down = _suffix(ra, np.maximum), _suffix(rb, np.minimum)
        # C_j against -x_i: U_j and V_j are the keys at u and v, the first index after j that
        # holds the greatest (least) key from it on, which holds it from j + 1 on too
        m, index = np.arange(n - 1), np.arange(n)
        u = _suffix(np.where(ra == up, index, n), np.minimum)[1:]
        v = _suffix(np.where(rb == down, index, n), np.minimum)[1:]
        rise = minus[0][u] * b[m] - a[m] * minus[1][u], minus[1][u] * b[m]
        fall = a[m] * plus[1][v] - plus[0][v] * b[m], b[m] * plus[1][v]
        r_rise, r_fall, rx = _comparable(rise, fall, (-x, np.full_like(x, den)))
        rc = np.maximum(r_rise, r_fall)
        rows = np.flatnonzero((up[2:] >= ra[:-2]) | (down[2:] <= rb[:-2])
                              | (_suffix(rp, np.maximum)[1:] >= ra[:-2])
                              | (_suffix(rq, np.minimum)[1:] <= rb[:-2])
                              | (_suffix(rc, np.maximum)[1:] >= rx[:-2]))
        if not len(rows):
            return None
        i = int(rows[0])
        js = np.arange(i + 1, n - 1)
        near = (rp[js] >= ra[i]) | (rq[js] <= rb[i])
        j = i + 1 + int(np.argmax(near | (up[js + 1] >= ra[i]) | (down[js + 1] <= rb[i])
                                  | (rc[js] >= rx[i])))
        if near[j - i - 1]:
            return i, j, j + 1
        lows, low = _comparable(minus, _shifted(a[j:j + 1], b[j:j + 1], x[i:i + 1], den, -1))
        highs, high = _comparable(plus, _shifted(a[j:j + 1], b[j:j + 1], x[i:i + 1], den, 1))
        hit = ((lows[j + 1:] >= min(lows[i], low[0])) | (highs[j + 1:] <= max(highs[i], high[0])))
        return i, j, j + 1 + int(np.argmax(hit))


_LINE_KINDS = {"pairwise": _LinePairs, "triple": _LineTriples}


class _Tile(NamedTuple):
    """One tile of _line_tiles: its items as flat arrays, in cell and position order (the cells
    bucket-major): their buckets, rows (first indices), last indices and float ratios
    (_LineData.items)."""

    bucket: np.ndarray
    rows: np.ndarray
    lasts: np.ndarray
    ratio: np.ndarray


def _cells(data, stop):
    """The nonempty cells of the rows below len(stop), before each row's stop, bucket-major:
    (bucket, row, lo, hi) arrays, cell t holding positions [lo[t], hi[t]) of its row."""
    rows = np.arange(len(stop))
    edges = data.narrow[:, :len(stop)]
    ends = np.minimum(edges[1:], stop - rows - data.gap)
    cells = np.flatnonzero(ends > edges[:-1])       # flat indices gather faster than pairs
    column, row = np.divmod(cells, len(stop))
    return data.filled[column], row, edges[:-1].ravel().take(cells), ends.ravel().take(cells)


def _leading(sizes, budget):
    """How many leading sizes fit in budget by their sum, at least one."""
    return max(1, int(np.searchsorted(np.cumsum(sizes), budget, side="right")))


def _line_tiles(data, stop, floors):
    """Tiles of the items below the rows' stops that the bounds keep at the floors in force,
    floors(), bucket-major.

    The first tile holds each nonempty bucket's first cell (_cells), whole,
    which sets the bucket's floor.  Each other cell is bounded by its row's
    step-ratio bound over the row's positions below its stop, which is at
    least that of any of its cells, and is kept when that bound reaches
    max(floor, 0).  A kept cell of more than SPAN_BLOCKS positions is split
    into blocks (_LineData.blocks) bounded by the lesser of the step-ratio
    and the range bound, and a narrower one is one block under the
    step-ratio bound alone (bounding its blocks would cost more than tiling
    them).  Each cell is then read as its blocks whose bound reaches
    max(floor, 0) at the floors in force before each tile, in tiles of whole
    cells of about LINE_TILE items; blocks are made for runs of cells of
    about LINE_TILE blocks at a time.  Ratios are >= 0, so a floor below 0
    counts as 0.
    """
    bucket, row, lo, hi = _cells(data, stop)
    first = np.diff(bucket, prepend=-1) != 0
    yield data.items(bucket[first], row[first], lo[first], hi[first])
    bucket, row, lo, hi = (a[~first] for a in (bucket, row, lo, hi))
    rows = np.arange(len(stop))
    steep = data.step_bounds(rows, stop - rows - data.gap)[row]
    keep = steep >= np.maximum(floors()[bucket], 0.0)
    bucket, row, lo, hi, steep = (a[keep] for a in (bucket, row, lo, hi, steep))
    wide = hi - lo > SPAN_BLOCKS
    counts = np.zeros(len(row), dtype=np.int64)
    counts[wide] = data.edge_counts(row[wide], lo[wide], hi[wide])
    c = 0
    while c < len(row):
        part = slice(c, c + _leading(counts[c:] + 1, LINE_TILE))
        cell, start, end = data.blocks(row[part], lo[part], hi[part], counts[part])
        bound, split = steep[part][cell], np.flatnonzero(wide[part][cell])
        if len(split):
            at = cell[split] + c
            bound[split] = np.minimum(bound[split], data.range_bounds(
                row[at], start[split], end[split], data.absolute[bucket[at]]))
        d, size, seen = 0, part.stop - c, None
        while d < size:         # the cells' kept blocks at the floors in force, a tile at a time
            if seen is None or (floors() != seen).any():
                seen = floors()
                live = np.flatnonzero(bound >= np.maximum(seen[bucket[part]], 0.0)[cell])
                owner = cell[live]
                width = np.bincount(owner, weights=end[live] - start[live], minlength=size)
            take = d + _leading(width[d:], LINE_TILE)
            blocks = live[np.searchsorted(owner, d):np.searchsorted(owner, take)]
            if len(blocks):
                at = cell[blocks] + c
                yield data.items(bucket[at], row[at], start[blocks], end[blocks])
            d = take
        c = part.stop


def _settle(data, rows, hs, buckets, n_buckets):
    """Per bucket, the exact (image measure, measure, witness) ints of the candidates' maximum,
    lex-first, or None, settled in one pass over every bucket.

    exact() evaluates the candidates as array passes.  Their correctly
    rounded float quotients (_float_ratios) are monotone in the exact
    ratios, so a bucket's exact maximum is among its items at the bucket's
    float maximum (one np.maximum.at).  Those are sorted by (bucket, witness)
    in one lexsort, since for triples (row, position) order is not witness
    order; a bucket with one of them takes it, and only a bucket with more
    folds them (_fold).
    """
    num, den, wit = data.exact(rows, hs)
    ratio = _float_ratios(num, den)
    top = np.full(n_buckets, -np.inf)
    np.maximum.at(top, buckets, ratio)
    at = np.flatnonzero(ratio == top[buckets])
    at = at[np.lexsort([column[at] for column in reversed(wit)] + [buckets[at]])]
    bucket = buckets[at]
    first = np.flatnonzero(np.concatenate(([True], bucket[1:] != bucket[:-1])))
    size, head = np.diff(first, append=len(at)), at[first]
    heads = zip(num[head].tolist(), den[head].tolist(), zip(*(w[head].tolist() for w in wit)))
    best = [None] * n_buckets
    for b, s, count, entry in zip(bucket[first].tolist(), first.tolist(), size.tolist(), heads):
        best[b] = entry if count == 1 else _fold(num, den, at[s:s + count], _witness(wit), None)
    return best


def _line_analysis(kind, basis):
    """Exact bucket suprema (lex-first witnesses) and the lex-first strict violation.

    The items below the rows' cuts are tiled bucket by bucket over the
    positions that the step-ratio and range bounds keep at the screen's
    floors in force (_line_tiles), and each tile is fed to the float screen
    (_Screen) with the floors of _LineData.screen_floors.  Each batch of
    candidates it settles, early past SURVIVORS kept items and once at the
    end, is evaluated exactly as array passes (_settle) and merged with the
    running entries (_pick), so that ties keep the lex-first witness.  A
    strict violation is an item of ratio >= 1, so there is none when the
    exact supremum, the best entry, lies below 1; only when it reaches 1 is
    the violation searched, from suffix extrema (strict()), with no tile,
    and a search that finds none there is an internal inconsistency.
    """
    _need_points(kind, basis.n)
    data = _LINE_KINDS[kind](basis)

    def settle(entries, bucket, rows, lasts):
        return list(map(_pick, _settle(data, rows, lasts - rows - data.gap, bucket, len(entries)),
                        entries))

    screen = _Screen(len(data.counts), data.screen_floors, settle)
    for tile in _line_tiles(data, data.cut, lambda: screen.floors):
        screen.feed(tile.bucket, tile.ratio, tile.rows, tile.lasts)
    entries = screen.result()
    strict, (num, den, _) = None, _supremum(entries)
    if num * basis.den >= den:      # the supremum reaches 1: entries are ratios over den
        strict = data.strict()
        if strict is None:
            raise InternalConsistencyError(
                f"the {kind} ratio supremum {Fraction(num * basis.den, den)} reaches 1, but the "
                f"strict search found no item that does not decrease")
        strict = (strict, *data.sides(strict))
    return _finalize(kind, basis.eps, entries, data.counts, strict, basis.point,
                     lambda entry: data.entry(entry[2]), exact=True)


# ---------------------------------------------------------------------------
# assembly

def _pick(entry, running):
    """The better of two entries (num, den, witness), either of which may be None (_better)."""
    better = running is None or (entry is not None and _better(*entry, *running))
    return entry if better else running


def _supremum(entries):
    """The best of the per-bucket entries (_pick), None when every bucket is empty."""
    sup = None
    for entry in entries:
        sup = _pick(entry, sup)
    return sup


def _finalize(kind, eps, bucket_entries, bucket_counts, strict, point, convert, exact):
    """The EnumAnalysis of per-bucket entries; bucket b + 1 holds measures from eps[b].

    The entries are an engine's own (num, den, witness) values, which order
    items like their ratios (_better): the line engine's unreduced ints, or
    lattice values.  convert(entry) gives an entry's (image measure, measure,
    witness) in the space's scalars; it is called once per distinct winner
    of the suffixes and the supremum.  point(w) is the point at witness
    index w.
    """
    packed = {}

    def pack(entry):
        if entry is None:
            return None, None
        if entry[2] not in packed:      # a witness is one item, so one entry
            num, den, wit = convert(entry)
            ratio = Fraction(num, den) if exact else num / den
            packed[wit] = ratio, (tuple(map(point, wit)), num, den)
        return packed[entry[2]]

    # delta(eps[b]) is the best over buckets b+1..; vacuous when none qualify
    suffix, counts, running, count = [], [], None, 0
    for entry, n_items in zip(bucket_entries[:0:-1], bucket_counts[:0:-1]):
        running = _pick(entry, running)
        count += n_items
        suffix.append(pack(running))
        counts.append(count)
    sup_ratio, sup_witness = pack(_supremum(bucket_entries))
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
        total=sum(bucket_counts),
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


def table_strict_violation(kind, lattice, nodes, images, eps, points):
    """The lex-first strict violation alone of a table's pairs or triples: the
    strict_violation of its enumeration, (points, measure, image measure), or None.

    It reads the enumeration's blocks (_table_blocks) and applies its strict
    test (_strict_item) until the first block that holds a violation; with
    none, every block is read.  Inputs and errors are those of
    table_pair_analysis: the eps grid is checked, then the point count and
    the pair distances.
    """
    _checked_eps(eps)
    stack = _table_stack(lattice, nodes, images)
    with np.errstate(over="ignore", invalid="ignore"):   # inf and huge float entries
        for num, den, wit, _ in _table_blocks(kind, stack, points):
            item = _strict_item(lattice, num[0], den[0], wit)
            if item is not None:
                wit, measure, image_measure = item
                return (tuple(points[w] for w in wit), lattice.scalar(measure),
                        lattice.scalar(image_measure))
    return None


def line_pair_analysis(basis):
    """Pairwise enumeration of a sampled space, given as its LineBasis.

    Witnesses and their measures come out as Fractions.
    """
    return _line_analysis("pairwise", basis)


def line_triple_analysis(basis):
    """Triple (perimeter) enumeration; see line_pair_analysis."""
    return _line_analysis("triple", basis)
