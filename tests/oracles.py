"""Reference code for the scans: direct enumeration in the table's scalars, and Fraction rows.

scan.table_pair_analysis, scan.table_triple_analysis and
metric_core.validate_metric must give the same values, witnesses and
counts as these loops, with the same scalar types; metric_core.metric_repair
the same checks, messages and closed table as closure_loops.  The line
engine's exact stage (scan._LineData.exact, scan._settle) must give the same
witnesses and ratios as FractionPairRow and FractionTripleRow, and the same
bucket maxima as candidate_fold, their per-item fold; its strict check
(strict()) the lex-first of their strict witnesses.  The tests build the
line scans' input, a scan.LineBasis, with line_basis.
cli._parity_cases_hold must hold exactly when parity_case_violations finds none.
theorem_lab._draw must draw what stdlib_draw draws through random.Random's
own randint and randrange.  theorem_lab.search_refutations, which judges its
trials from the batched sweep's flags and counts, must find what
search_loops finds by a full verdict of every trial.
dynamics.check_distinct_iterates must return what distinct_iterates_loops,
which compares every pair of states by space.eq, returns.
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from contraction_lab import classify, scan, theorem_lab
from contraction_lab.metric_core import ETA, InputError, format_point


def table_loops(kind, dist, nodes, images, eps, points, exact):
    """The table enumeration: one pure-Python pass over a table of scalars."""
    for a, b in combinations(range(len(nodes)), 2):
        if not dist[nodes[a]][nodes[b]] > 0:
            raise InputError(f"the distance between points {points[a]!r} and {points[b]!r} is "
                             f"not positive; pair and perimeter ratios need a metric table")
    best = [None] * (len(eps) + 1)
    counts = [0] * (len(eps) + 1)
    strict = None
    slack = 0 if exact else ETA
    for wit in combinations(range(len(nodes)), 2 if kind == "pairwise" else 3):
        ix = [nodes[w] for w in wit]
        tx = [images[i] for i in ix]
        if kind == "pairwise":
            measure = longest = dist[ix[0]][ix[1]]
            image_measure = dist[tx[0]][tx[1]]
        else:
            (i, j, k), (ti, tj, tk) = ix, tx
            dij, djk, dik = dist[i][j], dist[j][k], dist[i][k]
            measure, longest = dij + djk + dik, max(dij, djk, dik)
            image_measure = dist[ti][tj] + dist[tj][tk] + dist[ti][tk]
        b = bisect_right(eps, longest)
        counts[b] += 1
        if best[b] is None or scan._better(image_measure, measure, wit, *best[b]):
            best[b] = (image_measure, measure, wit)
        if strict is None and image_measure >= measure - slack:
            strict = (wit, measure, image_measure)
    return scan._finalize(kind, eps, best, counts, strict, points.__getitem__,
                          lambda entry: entry, exact)


def metric_violations_loops(dist_table, exact):
    """Per-axiom violation lists of a table of scalars, by direct enumeration."""
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


def closure_loops(table, exact):
    """metric_repair's input checks and in-place Floyd-Warshall closure: the closed rows."""
    n = len(table)
    slack = 0 if exact else ETA
    for i in range(n):
        if not 0 <= table[i][i] <= slack:
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
    return dist


def split_images(images):
    """Rational images as the line scans take them: (numerators, positive denominators) int
    arrays, int64 or object arrays of Python ints (scan._int_array)."""
    images = [Fraction(v) for v in images]
    return (scan._int_array([v.numerator for v in images]),
            scan._int_array([v.denominator for v in images]))


def line_basis(nums, den, images, eps):
    """The scan.LineBasis of the points nums[i]/den and their images, given as rationals or as
    a tuple (numerators, denominators) of ints: the tests' one way into the line scans."""
    if not isinstance(images, tuple):
        images = split_images(images)
    return scan.LineBasis(nums, den, *images, eps)


class FractionPairRow:
    """The pairs (i, i+1+h) of one line-engine row, evaluated in Fractions."""

    def __init__(self, data, i, reach=None):
        self.data, self.i = data, i

    def entry(self, h):
        """(image distance numerator, its denominator times the span, witness)."""
        i, j = self.i, self.i + 1 + h
        image, nums = self.data.basis.image, self.data.basis.nums.tolist()
        dt = abs(image(j) - image(i))
        return dt.numerator, dt.denominator * (nums[j] - nums[i]), (i, j)

    def strict_witness(self, h):
        num, den_span, wit = self.entry(h)
        return wit if num * self.data.basis.den >= den_span else None


class FractionTripleRow:
    """The triples (i, j, i+2+h) of one line-engine row, h <= reach, in Fractions.

    Running Fraction extrema of the middle images, each with its first
    index; the best middle point, smallest on ties; the lex-first strict
    violation by bisection of the running extrema.
    """

    def __init__(self, data, i, reach):
        self.data, self.i = data, i
        top = bottom = data.basis.image(i + 1)
        top_j = bottom_j = i + 1
        runs = []
        for j in range(i + 1, i + 2 + reach):
            v = data.basis.image(j)
            if v > top:
                top, top_j = v, j
            elif v < bottom:
                bottom, bottom_j = v, j
            runs.append((top, top_j, -bottom, bottom_j))
        self.top, self.top_at, self.neg_bottom, self.bottom_at = zip(*runs)

    def _ends(self, h):
        i, k = self.i, self.i + 2 + h
        lo, hi = sorted((self.data.basis.image(i), self.data.basis.image(k)))
        return k, lo, hi, int(self.data.basis.nums[k]) - int(self.data.basis.nums[i])

    def entry(self, h):
        """(image spread numerator, its denominator times the span, witness)."""
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
        half = Fraction(span, self.data.basis.den)
        if hi - lo >= half:
            return (self.i, self.i + 1, k)
        t = min(bisect_left(self.top, lo + half, 0, h + 1),
                bisect_left(self.neg_bottom, half - hi, 0, h + 1))
        return (self.i, self.i + 1 + t, k) if t <= h else None


def candidate_fold(data, rows, positions, buckets, n_buckets):
    """Per bucket, the best of some line-scan items (None if it has none), one item at a time.

    Each item (row i, position h) is evaluated by its Fraction row and kept
    when it beats the bucket's running entry (scan._better: ties go to the
    smaller witness).
    """
    row_of = FractionPairRow if data.gap == 1 else FractionTripleRow
    best = [None] * n_buckets
    for i, h, b in zip(rows.tolist(), positions.tolist(), buckets.tolist()):
        entry = row_of(data, i, h).entry(h)
        if best[b] is None or scan._better(*entry, *best[b]):
            best[b] = entry
    return best


def parity_case_violations(images):
    """The halving map's parity cases, one per-i loop each: the (min parity, max parity) violated.

    images[n] is the image of n.  A case bounds (images[k] - images[i]) / (k - i)
    over k - i >= 2: by 3/4 for odd i and even k, by 1/2 in the other cases.
    """
    coords = np.arange(len(images))
    violated = []
    for lo_par, hi_par, num_mul, den_mul in (
            (0, 0, 1, 2), (1, 1, 1, 2), (0, 1, 1, 2), (1, 0, 3, 4)):
        # (spread)/(span) <= num_mul/den_mul  <=>  den_mul*spread <= num_mul*span
        for i in range(len(coords) - 2):
            if coords[i] % 2 != lo_par:
                continue
            ks = coords[i + 2:]
            sel = ks % 2 == hi_par
            if not sel.any():
                continue
            spread = images[i + 2:][sel] - images[i]
            span = ks[sel] - coords[i]
            if (den_mul * spread > num_mul * span).any():
                violated.append((lo_par, hi_par))
                break
    return violated


def stdlib_draw(config, trial_index):
    """One trial's (n, ks, images), drawn by random.Random's randint and randrange calls."""
    rng = random.Random(f"{config.seed}:{trial_index}")
    n = rng.randint(config.size_min, config.size_max)
    den = config.denominator
    ks = [rng.randint(1, den) for _ in range(n * (n - 1) // 2)]
    images = [rng.randrange(n) for _ in range(n)]
    if config.map_bias == "period2":
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        images[a] = b
        images[b] = a
    return n, ks, images


def search_loops(config, theorem_ids, instances=None):
    """The per-trial search: {theorem id: SearchFindings} from a verdict of every trial.

    Trial -1 is the seeded counterexample.  The other trials are instances,
    (trial, space, mapping) in stream order, by default config's draws.  Each
    instance is built once and reported on once; every theorem in
    theorem_ids reads that full_report.
    """
    if instances is None:
        instances = ((trial, *theorem_lab.random_instance(config, trial))
                     for trial in range(config.trials))
    found = {theorem_id: ([], [], []) for theorem_id in theorem_ids}
    seeded = (-1, *theorem_lab.seeded_counterexample())
    for trial, space, mapping in chain([seeded], instances):
        report = classify.full_report(space, mapping)
        for theorem_id, (refutations, two_fp, passed) in found.items():
            v = theorem_lab.verdict(theorem_id, space, mapping, x0=space.points[0],
                                    report=report)
            if v.hypotheses_pass:
                passed.append(trial)
                if len(v.fixed_points) == 2:
                    two_fp.append(trial)
            if v.status == "refuted":
                refutations.append(theorem_lab.Refutation(trial=trial, space=space,
                                                          map=mapping, verdict=v))
    return {theorem_id: theorem_lab.SearchFindings(
        theorem_id=theorem_id, config=config, refutations=tuple(refutations),
        two_fixed_point_trials=tuple(two_fp), hypothesis_pass_trials=len(passed))
        for theorem_id, (refutations, two_fp, passed) in found.items()}


def distinct_iterates_loops(trace):
    """dynamics.check_distinct_iterates by comparing every pair of recorded states."""
    states = trace.states
    space = trace.space
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if space.eq(states[i], states[j]):
                if (trace.halted_by == "fixed-point"
                        and space.eq(states[i], states[-1])):
                    continue
                return False, (i, j), (f"x_{i} = x_{j} = {format_point(states[i])}")
    return True, None, "all recorded states are pairwise distinct"
