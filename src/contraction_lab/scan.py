"""Exhaustive pair/triple enumeration with deterministic supremum reduction.

Two engines back the classifiers:

* a table engine for finite spaces.  It reads the space's lattice
  (metric_core.Lattice): int64 numerators over the lcm of the table's
  denominators for exact tables, float64 for float tables.  A space loaded
  from JSON is stored as its lattice; one built from a table of scalars
  converts it once (metric_core.table_lattice).  Pairs, and triples in
  blocks of whole outer indices, are scanned as numpy passes in
  lexicographic order: perimeters are summed in the reference
  order, eps buckets are found by searchsorted against lattice thresholds,
  and each bucket's supremum is settled among the few items tied with its
  float maximum (see _LatticeReduction).  Every value, witness and count
  equals that of the pure-Python reference loops (_table_loops), which run
  instead when a table has no lattice (numerators too large for int64
  perimeters, non-finite or extreme floats, other scalar types) or a pair
  distance <= 0, and which the tests compare against.
* a line engine for sampled one-dimensional spaces.  Points there are sorted
  rationals k/den under the absolute-difference metric, so a sorted triple
  i<j<k has perimeter 2*(c_k - c_i) and its image perimeter depends on j only
  through the running extrema of the image values.  That collapses the triple
  scan to O(n^2) pairs (i, k) with prefix cumulative max/min.  Two passes run
  over the rows of items sharing a first index i.  A float pass keeps the
  counts and each row's float ratio maximum per eps bucket, in one (rows,
  buckets) array; an exact pass revisits only the rows that reach some
  bucket's floor, a proven float error bound below its maximum
  (_LineData.screen_floors), and there re-evaluates every item at or above
  its floor exactly, checking strictness alike.  Qualification thresholds
  (distance >= eps) are decided in integer arithmetic, so bucket membership
  never suffers float boundary errors.

Supremum ties break toward the lexicographically smallest witness.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metric_core import ETA, LATTICE_LIMIT, InputError, table_lattice

FLOAT_SLACK = 1e-9       # line engine: relative width of the float screen
FLOAT_BAND = 1e-9        # float table candidates: relative width below a bucket maximum
TRIPLE_BLOCK = 1 << 12   # triples per numpy pass of the table engine
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


class _Partial:
    """Reduction state of one enumeration pass."""

    __slots__ = ("best", "counts", "strict", "total")

    def __init__(self, n_buckets):
        self.best = [None] * n_buckets   # (num, den, witness_indices)
        self.counts = [0] * n_buckets
        self.strict = None               # (witness_indices, measure, image_measure)
        self.total = 0


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
    for e in eps:
        if e <= 0:
            raise InputError("eps grid values must be positive")
    if list(eps) != sorted(eps):
        raise InputError("eps grid must be ascending")
    if len(set(eps)) != len(eps):
        raise InputError("eps grid values must be distinct")
    need = 2 if kind == "pairwise" else 3
    if n_points < need:
        raise InputError(f"need at least {need} points")
    return eps


def _ceil_thresholds(eps, scale, cap):
    """Per eps value, the least integer m with m/scale >= eps, capped at cap.

    cap lies above every measure the thresholds are compared with, so an
    eps above all of them leaves its bucket empty (a vacuous entry).
    """
    return np.array([min(-(-f.numerator * scale // f.denominator), cap)
                     for f in map(Fraction, eps)], dtype=np.int64)


# ---------------------------------------------------------------------------
# table engine (finite spaces)

def _table_pair_loop(dist, nodes, images, eps, exact):
    m = len(nodes)
    part = _Partial(len(eps) + 1)
    strict_slack = 0 if exact else ETA
    for a in range(m):
        i = nodes[a]
        di = dist[i]
        dti = dist[images[i]]
        for b_pos in range(a + 1, m):
            j = nodes[b_pos]
            d = di[j]
            dt = dti[images[j]]
            b = bisect_right(eps, d)
            part.counts[b] += 1
            part.total += 1
            cur = part.best[b]
            if cur is None or _better(dt, d, (a, b_pos), cur[0], cur[1], cur[2]):
                part.best[b] = (dt, d, (a, b_pos))
            if part.strict is None and dt >= d - strict_slack:
                part.strict = ((a, b_pos), d, dt)
    return part


def _table_triple_loop(dist, nodes, images, eps, exact):
    m = len(nodes)
    part = _Partial(len(eps) + 1)
    strict_slack = 0 if exact else ETA
    for a in range(m):
        i = nodes[a]
        di = dist[i]
        dti = dist[images[i]]
        for b_pos in range(a + 1, m):
            j = nodes[b_pos]
            dij = di[j]
            dj = dist[j]
            tj = images[j]
            dtij = dti[tj]
            dtj = dist[tj]
            for c_pos in range(b_pos + 1, m):
                k = nodes[c_pos]
                tk = images[k]
                p = dij + dj[k] + di[k]
                pt = dtij + dtj[tk] + dti[tk]
                side = dij
                if dj[k] > side:
                    side = dj[k]
                if di[k] > side:
                    side = di[k]
                b = bisect_right(eps, side)
                part.counts[b] += 1
                part.total += 1
                cur = part.best[b]
                if cur is None or _better(pt, p, (a, b_pos, c_pos), cur[0], cur[1], cur[2]):
                    part.best[b] = (pt, p, (a, b_pos, c_pos))
                if part.strict is None and pt >= p - strict_slack:
                    part.strict = ((a, b_pos, c_pos), p, pt)
    return part


def _table_loops(kind, dist, nodes, images, eps, points, exact):
    """The reference table enumeration: one pure-Python pass in the table's scalars."""
    loop = _table_pair_loop if kind == "pairwise" else _table_triple_loop
    part = loop(dist, nodes, images, eps, exact)
    return _finalize(kind, eps, part.best, part.counts, part.strict, part.total,
                     points, exact)


def _lattice_thresholds(eps, lattice):
    """Per eps value, the least lattice value v with scalar(v) >= eps.

    searchsorted(thresholds, v, "right") then equals bisect_right(eps,
    scalar(v)) for every lattice value v.  Exact thresholds are capped at
    LATTICE_LIMIT, above every lattice value.
    """
    if lattice.exact:
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
    and the result equals the reference loops' sequential reduction:

    * Exact mode: a float64 quotient of two ints below 2**53 is correctly
      rounded, hence monotone in the exact ratio, so the exact bucket maximum
      is among the items whose float ratio equals the bucket's float maximum.
      Those are compared exactly; the lex-first one wins ties.
    * Float mode: the loops compare float cross products.  Rounding is
      monotone, so an item whose float quotient is below the running entry's
      never replaces it, and the bucket maximum replaces every entry more
      than a few ulps below it.  Items below the band, a relative FLOAT_BAND
      under the maximum (seven orders above rounding), therefore cannot
      change the result; the items in it are folded into the running entry
      with the loops' own cross-multiplication.  FLOAT_LATTICE_RANGE keeps
      those products and quotients normal.
    """

    def __init__(self, lattice, eps):
        self.lattice = lattice
        self.thresholds = _lattice_thresholds(eps, lattice)
        self.part = _Partial(len(eps) + 1)
        self.slack = 0 if lattice.exact else ETA

    def feed(self, num, den, longest, witness):
        """Add items: image measure num, measure den > 0, qualification measure longest.

        longest is the pair distance, or the triple's longest side; witness(t)
        gives item t's witness indices.
        """
        part = self.part
        nb = len(part.counts)
        bucket = np.searchsorted(self.thresholds, longest, side="right")
        part.total += len(bucket)
        if part.strict is None:
            hits = np.flatnonzero(num >= den - self.slack)
            if len(hits):
                t = hits[0]
                part.strict = (witness(t), den[t].item(), num[t].item())
        ratio = num / den
        counts = np.bincount(bucket, minlength=nb).tolist()
        for b, count in enumerate(counts):
            if not count:
                continue
            part.counts[b] += count
            items = np.flatnonzero(bucket == b)
            r = ratio[items]
            top = r.max()
            if self.lattice.exact:
                entry = _exact_best(num, den, items[r == top], witness)
                cur = part.best[b]
                if cur is None or _better(*entry, *cur):
                    part.best[b] = entry
            else:
                floor = top * (1 - FLOAT_BAND) if top > 0 else top * (1 + FLOAT_BAND)
                part.best[b] = _float_fold(num, den, items[r >= floor], witness,
                                           part.best[b])

    def result(self, kind, eps, points):
        def scalars(entry):
            if entry is None:
                return None
            num, den, wit = entry
            return self.lattice.scalar(num), self.lattice.scalar(den), wit

        part = self.part
        strict = None
        if part.strict is not None:
            wit, measure, image_measure = part.strict
            strict = (wit, self.lattice.scalar(measure), self.lattice.scalar(image_measure))
        return _finalize(kind, eps, [scalars(e) for e in part.best], part.counts, strict,
                         part.total, points, self.lattice.exact)


def _exact_best(num, den, cands, witness):
    """Exact maximum over float-tied candidates (in lex order), lex-first on ties."""
    cn = num[cands]
    cd = den[cands]
    g = np.gcd(cn, cd)
    rn = cn // g
    rd = cd // g
    if (rn == rn[0]).all() and (rd == rd[0]).all():
        t = cands[0]
        return num[t].item(), den[t].item(), witness(t)
    best = None
    for t in cands.tolist():   # distinct ratios that round to one float
        entry = (num[t].item(), den[t].item(), witness(t))
        if best is None or _better(*entry, *best):
            best = entry
    return best


def _float_fold(num, den, cands, witness, cur):
    """Fold candidates (in lex order) into the running entry as the loops do.

    Every candidate follows cur in lex order, so a tie never replaces it:
    the next replacement is the first candidate whose cross product wins.
    """
    cn = num[cands]
    cd = den[cands]
    start = 0
    if cur is None:
        cur = (cn[0].item(), cd[0].item(), witness(cands[0]))
        start = 1
    while start < len(cands):
        wins = np.flatnonzero(cn[start:] * cur[1] > cur[0] * cd[start:])
        if not len(wins):
            break
        t = start + int(wins[0])
        cur = (cn[t].item(), cd[t].item(), witness(cands[t]))
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
    starts = np.searchsorted(rows, np.arange(m - 2), side="right")  # first pair with j > a
    sizes = (n_pairs - starts).tolist()
    a0 = 0
    while a0 < m - 2:
        a1 = a0 + 1
        total = sizes[a0]
        while a1 < m - 2 and total + sizes[a1] <= TRIPLE_BLOCK:
            total += sizes[a1]
            a1 += 1
        counts = np.asarray(sizes[a0:a1])
        a = np.repeat(np.arange(a0, a1), counts)
        pair = np.arange(total) + np.repeat(starts[a0:a1] - (np.cumsum(counts) - counts),
                                            counts)
        yield a, pair
        a0 = a1


def _lattice_scan(kind, lattice, nodes, images, eps, points):
    """The table enumeration as numpy passes over the lattice.

    Returns None when some pair of nodes is at distance <= 0, where ratios
    of measures stop being ordered like their cross products.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    img = np.asarray(images, dtype=np.intp)[nodes]
    d = lattice.values[np.ix_(nodes, nodes)]
    t = lattice.values[np.ix_(img, img)]
    rows, cols = np.triu_indices(len(nodes), 1)
    d_pair = d[rows, cols]
    if not (d_pair > 0).all():
        return None
    t_pair = t[rows, cols]
    red = _LatticeReduction(lattice, eps)
    if kind == "pairwise":
        red.feed(t_pair, d_pair, d_pair, lambda i: (int(rows[i]), int(cols[i])))
    else:
        for a, pair in _triple_blocks(len(nodes), rows):
            j = rows[pair]
            k = cols[pair]
            dij = d[a, j]
            djk = d_pair[pair]
            dik = d[a, k]
            # sums in the loops' order keep float mode bit-identical
            p = dij + djk + dik
            pt = t[a, j] + t_pair[pair] + t[a, k]
            longest = np.maximum(np.maximum(dij, djk), dik)
            red.feed(pt, p, longest,
                     lambda i, a=a, j=j, k=k: (int(a[i]), int(j[i]), int(k[i])))
    return red.result(kind, eps, points)


def _table_analysis(kind, dist, nodes, images, eps, points, exact, lattice):
    eps = _checked_eps(kind, eps, len(nodes))
    if lattice is None:
        lattice = table_lattice(dist, exact)
    result = None
    if lattice is not None:
        result = _lattice_scan(kind, lattice, nodes, images, eps, points)
    if result is None:
        result = _table_loops(kind, dist, nodes, images, eps, points, exact)
    return result


# ---------------------------------------------------------------------------
# line engine (sampled one-dimensional spaces)

class _LineData:
    """Shared arrays for one sampled-space enumeration of one kind.

    Items are grouped in rows by their first index i.  Position h of
    slice(i) stands for the items whose last index is i + gap + h; spans
    ascend with h.
    """

    gap = None

    def __init__(self, numerators, den, points, images, eps):
        self.den = den
        self.points = tuple(points)    # Fractions, ascending
        self.images = tuple(images)    # Fractions
        self.nums = np.asarray(numerators, dtype=np.int64)
        self.tvals = np.array([float(v) for v in images], dtype=np.float64)
        self.n = len(self.points)
        longest = int(self.nums[-1]) - int(self.nums[0])
        self.thresholds = _ceil_thresholds(eps, den, longest + 1)
        # bucket edges in 1/den units: 0, the thresholds, one past the longest span
        self.edges = np.concatenate(([0], self.thresholds, [longest + 1]))
        # least span in each bucket, for the float screen's bound
        shortest = int((self.nums[self.gap:] - self.nums[:-self.gap]).min())
        self.min_span = np.maximum(shortest, np.concatenate(([0], self.thresholds)))
        self.numerators = self.nums.tolist()

    def entry(self, wit):
        """Exact (image measure, measure, witness) at a witness."""
        measure, image_measure = self.sides(wit)
        return image_measure, measure, wit

    def screen_floors(self, best):
        """Per-bucket float floors, given the bucket float maxima F.

        An item below floors[b] is not bucket b's exact maximum, and one
        below strict_floors[b] does not break strictness.  A float ratio r
        and its exact ratio R obey |r - R| <= 2u*M*den/span + 5u*R, with
        u = 2**-53 and M = max |image|: float images and their running extrema
        are within u*M of exact, an image difference adds one rounding, and
        den, span, the division and the scaling four more.  So the exact
        maximum's float ratio is at least F - 4u*M*den/s - 10u*R, s being the
        bucket's least span, and an item with R >= 1 has r >= 1 - 5u -
        2u*M*den/s.  The floors take off FLOAT_SLACK * max(1, |F|) and
        8u*M*den/s, which cover both with room for their own rounding; a
        bound that overflows turns the screen off.  A relative slack alone
        fails on large, close images: near 10**12, floats are 2**-13 apart.
        """
        absolute = (8 * 2.0 ** -53 * float(np.abs(self.tvals).max()) * float(self.den)
                    / self.min_span)
        with np.errstate(invalid="ignore"):
            floors = best - (FLOAT_SLACK * np.maximum(1.0, np.abs(best)) + absolute)
        floors[np.isnan(floors)] = -np.inf
        floors[best == -np.inf] = np.inf            # empty bucket
        strict_floors = 1.0 - FLOAT_SLACK - absolute
        return floors, strict_floors


class _LinePairs(_LineData):
    gap = 1

    def slice(self, i):
        """Float ratios and spans of the pairs (i, j), j = i+1..n-1."""
        span = self.nums[i + 1:] - self.nums[i]
        ratio = np.abs(self.tvals[i + 1:] - self.tvals[i]) * (float(self.den) / span)
        return ratio, span

    @staticmethod
    def items_before(h):
        """Pairs at slice positions below h."""
        return h

    def sides(self, wit):
        """Exact (distance, image distance) at a pair witness."""
        i, j = wit
        return self.points[j] - self.points[i], abs(self.images[j] - self.images[i])

    def row(self, i, reach):
        return _PairRow(self, i)


class _PairRow:
    """Exact evaluation of the pairs (i, i+1+h) of one row.

    An entry's ratio is the image distance over the span in 1/den units,
    as two ints, which order items like their exact ratios.
    """

    def __init__(self, data, i):
        self.data = data
        self.i = i

    def entry(self, h):
        """(image distance numerator, its denominator times the span, witness)."""
        i, j = self.i, self.i + 1 + h
        images, nums = self.data.images, self.data.numerators
        dt = abs(images[j] - images[i])
        return dt.numerator, dt.denominator * (nums[j] - nums[i]), (i, j)

    def strict_witness(self, h):
        num, den_span, wit = self.entry(h)
        return wit if num * self.data.den >= den_span else None


class _LineTriples(_LineData):
    """Triples i < j < k, reduced over j to their (i, k) pairs."""

    gap = 2

    def slice(self, i):
        """Per k in (i+2..n-1): best float ratio over middle points, and span."""
        tv = self.tvals
        ti = tv[i]
        tk = tv[i + 2:]
        interior = tv[i + 1:self.n - 1]
        cmax = np.maximum.accumulate(interior)
        cmin = np.minimum.accumulate(interior)
        lo = np.minimum(ti, tk)
        hi = np.maximum(ti, tk)
        spread = np.maximum(hi - lo, np.maximum(cmax - lo, hi - cmin))
        span = self.nums[i + 2:] - self.nums[i]
        ratio = spread * (float(self.den) / span)
        return ratio, span

    @staticmethod
    def items_before(h):
        """Triples at slice positions below h: position p has p + 1 middle points."""
        return h * (h + 1) // 2

    def sides(self, wit):
        """Exact (perimeter, image perimeter) at a triple witness."""
        i, j, k = wit
        ims = (self.images[i], self.images[j], self.images[k])
        return 2 * (self.points[k] - self.points[i]), 2 * (max(ims) - min(ims))

    def row(self, i, reach):
        return _TripleRow(self, i, reach)


class _TripleRow:
    """Exact evaluation of the triples (i, j, i+2+h) of one row, h <= reach.

    The running maximum and minimum of the middle images j = i+1..i+1+h,
    each with its first index, are computed once, so each (i, k) is settled
    in O(1): its best middle point, and its lex-first strict violation by
    bisection of the monotone running extrema.  A sorted triple's perimeter
    is twice its span and its image perimeter twice its image spread;
    entries are ints as in _PairRow.
    """

    def __init__(self, data, i, reach):
        self.data = data
        self.i = i
        self.top, self.top_at = [], []              # running maximum, first index reaching it
        self.neg_bottom, self.bottom_at = [], []    # running minimum, negated
        images = data.images
        top = bottom = images[i + 1]
        top_j = bottom_j = i + 1
        for j in range(i + 1, i + 2 + reach):
            v = images[j]
            if v > top:
                top, top_j = v, j
            elif v < bottom:
                bottom, bottom_j = v, j
            self.top.append(top)
            self.top_at.append(top_j)
            self.neg_bottom.append(-bottom)
            self.bottom_at.append(bottom_j)

    def _ends(self, h):
        """k = i+2+h, the lower and higher image of i and k, and the span."""
        i, k = self.i, self.i + 2 + h
        images, nums = self.data.images, self.data.numerators
        return k, min(images[i], images[k]), max(images[i], images[k]), nums[k] - nums[i]

    def entry(self, h):
        """(image spread numerator, its denominator times the span, witness).

        The middle point is the best one, the smallest on ties.
        """
        k, lo, hi, span = self._ends(h)
        ends = hi - lo
        up = self.top[h] - lo
        down = hi + self.neg_bottom[h]
        best = max(ends, up, down)
        if best == ends:
            j = self.i + 1
        elif up != down:
            j = self.top_at[h] if up > down else self.bottom_at[h]
        else:
            j = min(self.top_at[h], self.bottom_at[h])
        return best.numerator, best.denominator * span, (self.i, j, k)

    def strict_witness(self, h):
        """Lex-first triple (i, j, i+2+h) whose perimeter does not decrease, or None."""
        k, lo, hi, span = self._ends(h)
        half = Fraction(span, self.data.den)
        if hi - lo >= half:
            return (self.i, self.i + 1, k)
        # a middle image at or above lo + half, or at or below hi - half, violates
        t = min(bisect_left(self.top, lo + half, 0, h + 1),
                bisect_left(self.neg_bottom, half - hi, 0, h + 1))
        return (self.i, self.i + 1 + t, k) if t <= h else None


_LINE_KINDS = {"pairwise": _LinePairs, "triple": _LineTriples}


def _line_float_pass(data):
    """Per row and bucket the float ratio maximum (-inf when empty); bucket item counts."""
    rows = data.n - data.gap
    # before[i, e]: the slice(i) positions whose span is below edges[e]
    before = np.empty((rows, len(data.edges)), dtype=np.int64)
    starts = np.arange(data.gap, rows + data.gap)
    for e, edge in enumerate(data.edges.tolist()):
        before[:, e] = np.searchsorted(data.nums, data.nums[:rows] + edge) - starts
    np.maximum(before, 0, out=before)
    counts = np.diff([int(data.items_before(before[:, e]).sum()) for e in range(len(data.edges))])
    row_max = np.full((rows, len(data.edges) - 1), -np.inf)
    for i in range(rows):
        lo = before[i, :-1]
        filled = before[i, 1:] > lo
        ratio, _ = data.slice(i)
        row_max[i, filled] = np.maximum.reduceat(ratio, lo[filled])
    return row_max, counts.tolist()


def _line_exact_pass(data, row_max, floors, strict_floors):
    """Exact bucket suprema (lex-first witnesses) and the lex-first strict violation.

    Only rows whose float maximum reaches some bucket's floor, or the strict
    floor while no violation is known, are visited, once each; there every
    item at or above its bucket's floor is re-evaluated exactly, and the
    items at or above the strict floor are checked for strictness.
    """
    best = [None] * len(floors)
    strict = None
    wanted = (row_max >= floors).any(axis=1)
    suspect = (row_max >= strict_floors).any(axis=1)
    for i in np.flatnonzero(wanted | suspect).tolist():
        look = strict is None and suspect[i]
        if not (look or wanted[i]):
            continue
        ratio, span = data.slice(i)
        bucket = np.searchsorted(data.thresholds, span, side="right")
        cands = np.flatnonzero(ratio >= floors[bucket]).tolist()
        suspects = np.flatnonzero(ratio >= strict_floors[bucket]).tolist() if look else []
        row = data.row(i, max(cands + suspects, default=0))
        for h, b in zip(cands, bucket[cands].tolist()):
            entry = row.entry(h)
            if best[b] is None or _better(*entry, *best[b]):
                best[b] = entry
        found = [w for w in map(row.strict_witness, suspects) if w is not None]
        if found:
            wit = min(found)
            strict = (wit, *data.sides(wit))
    return [None if e is None else data.entry(e[2]) for e in best], strict


def _line_analysis(kind, numerators, den, points, images, eps):
    eps = _checked_eps(kind, eps, len(numerators))
    data = _LINE_KINDS[kind](numerators, den, points, images, eps)
    row_max, counts = _line_float_pass(data)
    floors, strict_floors = data.screen_floors(row_max.max(axis=0))
    bucket_entries, strict = _line_exact_pass(data, row_max, floors, strict_floors)
    return _finalize(kind, eps, bucket_entries, counts, strict, sum(counts),
                     data.points, exact=True)


# ---------------------------------------------------------------------------
# assembly

def _suffix_entries(eps, bucket_entries, bucket_counts):
    """delta(eps[b]) = best over buckets b+1..; vacuous when none qualify."""
    nb = len(eps)
    suffix = [None] * (nb + 2)
    suffix_counts = [0] * (nb + 2)
    for b in range(len(bucket_entries) - 1, 0, -1):
        entry = bucket_entries[b]
        running = suffix[b + 1]
        if entry is not None and (running is None or
                                  _better(entry[0], entry[1], entry[2],
                                          running[0], running[1], running[2])):
            running = entry
        suffix[b] = running
        suffix_counts[b] = suffix_counts[b + 1] + bucket_counts[b]
    deltas = [suffix[b + 1] for b in range(nb)]
    counts = [suffix_counts[b + 1] for b in range(nb)]
    return deltas, counts


def _finalize(kind, eps, bucket_entries, bucket_counts, strict, total, points, exact):
    deltas_raw, counts = _suffix_entries(eps, bucket_entries, bucket_counts)
    sup_entry = None
    for entry in bucket_entries:
        if entry is not None and (sup_entry is None or
                                  _better(entry[0], entry[1], entry[2],
                                          sup_entry[0], sup_entry[1], sup_entry[2])):
            sup_entry = entry

    def ratio_of(num, den):
        return Fraction(num, den) if exact else num / den

    def pack(entry):
        if entry is None:
            return None, None
        num, den, wit = entry
        pts = tuple(points[w] for w in wit)
        return ratio_of(num, den), (pts, num, den)

    deltas = []
    witnesses = []
    for entry in deltas_raw:
        value, packed = pack(entry)
        deltas.append(value)
        witnesses.append(packed)
    sup_ratio, sup_witness = pack(sup_entry)
    strict_out = None
    if strict is not None:
        wit, measure, image_measure = strict
        strict_out = (tuple(points[w] for w in wit), measure, image_measure)
    return EnumAnalysis(
        kind=kind,
        eps=tuple(eps),
        deltas=tuple(deltas),
        delta_witnesses=tuple(witnesses),
        counts=tuple(counts),
        sup_ratio=sup_ratio,
        sup_witness=sup_witness,
        strict_violation=strict_out,
        total=total,
    )


# ---------------------------------------------------------------------------
# public entry points

def table_pair_analysis(dist, nodes, images, eps, points, exact=True, lattice=None):
    """Pairwise enumeration of a finite table over the positions ``nodes``.

    ``lattice`` is the table's precomputed Lattice; without one it is
    computed here.
    """
    return _table_analysis("pairwise", dist, nodes, images, eps, points, exact, lattice)


def table_triple_analysis(dist, nodes, images, eps, points, exact=True, lattice=None):
    """Triple (perimeter) enumeration; see table_pair_analysis."""
    return _table_analysis("triple", dist, nodes, images, eps, points, exact, lattice)


def line_pair_analysis(numerators, den, points, images, eps):
    """Pairwise enumeration of a sampled space: points numerators[i]/den, ascending.

    images[i] is the image of point i, a Fraction or an int.
    """
    return _line_analysis("pairwise", numerators, den, points, images, eps)


def line_triple_analysis(numerators, den, points, images, eps):
    """Triple (perimeter) enumeration; see line_pair_analysis."""
    return _line_analysis("triple", numerators, den, points, images, eps)
