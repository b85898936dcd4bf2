"""Exhaustive pair/triple enumeration with deterministic supremum reduction.

Two engines back the classifiers:

* a table engine for finite spaces.  The distance table is converted once
  to a lattice (metric_core.table_lattice): int64 numerators over the lcm of
  its denominators for exact tables, float64 for float tables.  Pairs, and
  triples in blocks of whole outer indices, are then scanned as numpy
  passes in lexicographic order: perimeters are summed in the reference
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
  scan to O(n^2) pairs with prefix cumulative max/min.  Suprema are located
  in float arithmetic and every reported value is re-evaluated exactly at its
  witness; qualification thresholds (distance >= eps) are decided in integer
  arithmetic, so bucket membership never suffers float boundary errors.

The line engine partitions its float pass into chunks with an order-free
merge, so its results are independent of the chunk and worker count; the
table engine runs in one thread.  Supremum ties break toward the
lexicographically smallest witness.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metric_core import ETA, LATTICE_LIMIT, InputError, table_lattice

FLOAT_SLACK = 1e-9       # screen width when exactifying float-located suprema
CANDIDATE_CAP = 50_000   # max float-tied candidates examined per bucket
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
    """Reduction state of one enumeration pass or chunk."""

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


def _chunk_ranges(n, pieces):
    if n <= 0:
        return [(0, 0)]
    pieces = max(1, min(pieces, n))
    step = -(-n // pieces)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _run_chunks(fn, chunks, workers):
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _validate_eps(eps):
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
    return eps


# ---------------------------------------------------------------------------
# table engine (finite spaces)

def _table_pairs_chunk(dist, nodes, images, eps, exact, a_range):
    m = len(nodes)
    part = _Partial(len(eps) + 1)
    strict_slack = 0 if exact else ETA
    for a in range(*a_range):
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


def _table_triples_chunk(dist, nodes, images, eps, exact, a_range):
    m = len(nodes)
    part = _Partial(len(eps) + 1)
    strict_slack = 0 if exact else ETA
    for a in range(*a_range):
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
    m = len(nodes)
    if kind == "pairwise":
        part = _table_pairs_chunk(dist, nodes, images, eps, exact, (0, m - 1))
    else:
        part = _table_triples_chunk(dist, nodes, images, eps, exact, (0, m - 2))
    return _finalize(kind, eps, part.best, part.counts, part.strict, part.total,
                     points, exact)


def _lattice_thresholds(eps, lattice):
    """Per eps value, the least lattice value v with scalar(v) >= eps.

    searchsorted(thresholds, v, "right") then equals bisect_right(eps,
    scalar(v)) for every lattice value v.  Exact thresholds are capped at
    LATTICE_LIMIT, above every lattice value.
    """
    if lattice.exact:
        return np.array([min(_ceil_div(f.numerator * lattice.scale, f.denominator),
                             LATTICE_LIMIT) for f in map(Fraction, eps)], dtype=np.int64)
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

def _ceil_div(a, b):
    return -((-a) // b)


def _eps_thresholds(eps, den):
    """Smallest integer numerator m with m/den >= eps, per grid value."""
    out = []
    for e in eps:
        f = Fraction(e)
        out.append(_ceil_div(f.numerator * den, f.denominator))
    return np.asarray(out, dtype=np.int64)


class _LineData:
    """Shared arrays for one sampled-space enumeration."""

    def __init__(self, numerators, den, points, images, eps):
        self.den = den
        self.points = tuple(points)    # Fractions, ascending
        self.images = tuple(images)    # Fractions
        self.nums = np.asarray(numerators, dtype=np.int64)
        self.tvals = np.array([float(v) for v in images], dtype=np.float64)
        self.thresholds = _eps_thresholds(eps, den)
        self.n = len(self.points)

    # exact re-evaluation at a witness -------------------------------------
    def pair_sides(self, i, j):
        d = self.points[j] - self.points[i]
        dt = abs(self.images[j] - self.images[i])
        return d, dt

    def triple_sides(self, i, j, k):
        p = 2 * (self.points[k] - self.points[i])
        ims = (self.images[i], self.images[j], self.images[k])
        pt = 2 * (max(ims) - min(ims))
        return p, pt

    def exact_best_middle(self, i, k):
        """Exact max image spread over middle indices, with smallest argmax."""
        ti = self.images[i]
        tk = self.images[k]
        lo = min(ti, tk)
        hi = max(ti, tk)
        best = hi - lo
        best_j = i + 1
        for j in range(i + 1, k):
            tj = self.images[j]
            spread = (tj - lo) if tj > hi else ((hi - tj) if tj < lo else hi - lo)
            if spread > best:
                best = spread
                best_j = j
        return best, best_j

    # float slice over the (i, k) pair reduction ---------------------------
    def triple_pair_slice(self, i):
        """Per k in (i+2..n-1): best float ratio over middle points, span, j count."""
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


def _line_pairs_phase1(data: _LineData, i_range):
    nb = len(data.thresholds) + 1
    part = _Partial(nb)
    bmax = np.full(nb, -np.inf)
    den_f = float(data.den)
    for i in range(*i_range):
        if i >= data.n - 1:
            break
        span = data.nums[i + 1:] - data.nums[i]
        ratio = np.abs(data.tvals[i + 1:] - data.tvals[i]) * (den_f / span)
        edges = np.searchsorted(span, data.thresholds, side="left")
        bounds = np.concatenate(([0], edges, [len(span)]))
        for b in range(nb):
            lo, hi = bounds[b], bounds[b + 1]
            if hi > lo:
                part.counts[b] += int(hi - lo)
                seg = float(ratio[lo:hi].max())
                if seg > bmax[b]:
                    bmax[b] = seg
        part.total += len(span)
    part.best = [None if part.counts[b] == 0 else bmax[b] for b in range(nb)]
    return part


def _line_triples_phase1(data: _LineData, i_range):
    """Float per-bucket suprema over the (i, k) pair reduction."""
    nb = len(data.thresholds) + 1
    part = _Partial(nb)
    for i in range(*i_range):
        if i >= data.n - 2:
            break
        ratio, span = data.triple_pair_slice(i)
        edges = np.searchsorted(span, data.thresholds, side="left")
        bounds = np.concatenate(([0], edges, [len(span)]))
        n_middle = np.arange(1, len(span) + 1, dtype=np.int64)  # k - i - 1
        for b in range(nb):
            lo, hi = bounds[b], bounds[b + 1]
            if hi > lo:
                part.counts[b] += int(n_middle[lo:hi].sum())
                seg = float(ratio[lo:hi].max())
                if part.best[b] is None or seg > part.best[b]:
                    part.best[b] = seg
        part.total += int(n_middle.sum())
    return part


def _merge_float_parts(parts, nb):
    best = [None] * nb
    counts = [0] * nb
    total = 0
    for p in parts:
        for b in range(nb):
            if p.best[b] is not None and (best[b] is None or p.best[b] > best[b]):
                best[b] = p.best[b]
            counts[b] += p.counts[b]
        total += p.total
    return best, counts, total


def _line_exact_pairs_bucket(data: _LineData, bucket_id, floor_value):
    """Exact supremum entry for one pairwise bucket, lex-first witness."""
    slack = FLOAT_SLACK * max(1.0, abs(floor_value))
    thr = data.thresholds
    best = None
    seen = 0
    den_f = float(data.den)
    for i in range(data.n - 1):
        span = data.nums[i + 1:] - data.nums[i]
        ratio = np.abs(data.tvals[i + 1:] - data.tvals[i]) * (den_f / span)
        bucket = np.searchsorted(thr, span, side="right")
        hits = np.nonzero((bucket == bucket_id) & (ratio >= floor_value - slack))[0]
        for h in hits:
            j = i + 1 + int(h)
            d, dt = data.pair_sides(i, j)
            if best is None or _better(dt, d, (i, j), best[0], best[1], best[2]):
                best = (dt, d, (i, j))
            seen += 1
            if seen >= CANDIDATE_CAP:
                return best
    return best


def _line_exact_triples_bucket(data: _LineData, bucket_id, floor_value):
    """Exact supremum entry for one triple bucket, lex-first witness.

    Candidate (i, k) pairs are float-screened; each is then maximized exactly
    over its middle points.  The screen slack exceeds float rounding by many
    orders, so the exact supremum is always among the candidates (up to
    CANDIDATE_CAP float ties).
    """
    slack = FLOAT_SLACK * max(1.0, abs(floor_value))
    best = None
    seen = 0
    for i in range(data.n - 2):
        ratio, span = data.triple_pair_slice(i)
        bucket = np.searchsorted(data.thresholds, span, side="right")
        hits = np.nonzero((bucket == bucket_id) & (ratio >= floor_value - slack))[0]
        for h in hits:
            k = i + 2 + int(h)
            spread, j = data.exact_best_middle(i, k)
            p = 2 * (data.points[k] - data.points[i])
            pt = 2 * spread
            if best is None or _better(pt, p, (i, j, k), best[0], best[1], best[2]):
                best = (pt, p, (i, j, k))
            seen += 1
            if seen >= CANDIDATE_CAP:
                return best
    return best


def _line_strict_pairs(data: _LineData):
    """Lex-first pair with non-decreasing image distance, or None."""
    den_f = float(data.den)
    for i in range(data.n - 1):
        span = data.nums[i + 1:] - data.nums[i]
        ratio = np.abs(data.tvals[i + 1:] - data.tvals[i]) * (den_f / span)
        hits = np.nonzero(ratio >= 1.0 - FLOAT_SLACK)[0]
        for h in hits:
            j = i + 1 + int(h)
            d, dt = data.pair_sides(i, j)
            if dt >= d:
                return ((i, j), d, dt)
    return None


def _line_strict_triples(data: _LineData):
    """Lex-first triple with non-decreasing perimeter, or None."""
    for i in range(data.n - 2):
        ratio, span = data.triple_pair_slice(i)
        hits = np.nonzero(ratio >= 1.0 - FLOAT_SLACK)[0]
        found = []
        for h in hits:
            k = i + 2 + int(h)
            p = 2 * (data.points[k] - data.points[i])
            ti = data.images[i]
            tk = data.images[k]
            lo = min(ti, tk)
            hi = max(ti, tk)
            if 2 * (hi - lo) >= p:
                found.append((i + 1, k))
                continue
            need_hi = lo + p / 2     # middle image at or above this violates
            need_lo = hi - p / 2     # ... or at or below this
            for j in range(i + 1, k):
                tj = data.images[j]
                if tj >= need_hi or tj <= need_lo:
                    found.append((j, k))
                    break
        if found:
            j, k = min(found)
            p, pt = data.triple_sides(i, j, k)
            return ((i, j, k), p, pt)
    return None


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

def table_pair_analysis(dist, nodes, images, eps, points, exact=True, workers=1,
                        lattice=None):
    """Pairwise enumeration of a finite table over the positions ``nodes``.

    ``lattice`` is the table's precomputed Lattice; without one it is
    computed here.  ``workers`` is accepted for a uniform signature; the
    table engine runs in one thread.
    """
    eps = _validate_eps(eps)
    if len(nodes) < 2:
        raise InputError("need at least 2 points")
    return _table_analysis("pairwise", dist, nodes, images, eps, points, exact, lattice)


def table_triple_analysis(dist, nodes, images, eps, points, exact=True, workers=1,
                          lattice=None):
    """Triple (perimeter) enumeration; see table_pair_analysis."""
    eps = _validate_eps(eps)
    if len(nodes) < 3:
        raise InputError("need at least 3 points")
    return _table_analysis("triple", dist, nodes, images, eps, points, exact, lattice)


def line_pair_analysis(numerators, den, points, images, eps, workers=1):
    eps = _validate_eps(eps)
    n = len(numerators)
    if n < 2:
        raise InputError("need at least 2 points")
    data = _LineData(numerators, den, points, images, eps)
    nb = len(data.thresholds) + 1
    chunks = _chunk_ranges(n - 1, workers * 4 if workers > 1 else 1)
    parts = _run_chunks(lambda rng: _line_pairs_phase1(data, rng), chunks, workers)
    best_float, counts, total = _merge_float_parts(parts, nb)
    bucket_entries = [
        None if best_float[b] is None else
        _line_exact_pairs_bucket(data, b, best_float[b])
        for b in range(nb)
    ]
    strict = None
    if any(v is not None and v >= 1.0 - FLOAT_SLACK for v in best_float):
        strict = _line_strict_pairs(data)
    return _finalize("pairwise", eps, bucket_entries, counts, strict, total,
                     data.points, exact=True)


def line_triple_analysis(numerators, den, points, images, eps, workers=1):
    eps = _validate_eps(eps)
    n = len(numerators)
    if n < 3:
        raise InputError("need at least 3 points")
    data = _LineData(numerators, den, points, images, eps)
    nb = len(data.thresholds) + 1
    chunks = _chunk_ranges(n - 2, workers * 4 if workers > 1 else 1)
    parts = _run_chunks(lambda rng: _line_triples_phase1(data, rng), chunks, workers)
    best_float, counts, total = _merge_float_parts(parts, nb)
    bucket_entries = [
        None if best_float[b] is None else
        _line_exact_triples_bucket(data, b, best_float[b])
        for b in range(nb)
    ]
    strict = None
    if any(v is not None and v >= 1.0 - FLOAT_SLACK for v in best_float):
        strict = _line_strict_triples(data)
    return _finalize("triple", eps, bucket_entries, counts, strict, total,
                     data.points, exact=True)
