import json
import math
import random
import re
import tracemalloc
import warnings
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contraction_lab import map_catalog, metric_core, scan
from contraction_lab.classify import (
    DEFAULT_EPS_GRID,
    NEAR_ONE_RATIO,
    check_pairwise_strict,
    estimate_large_contraction_modulus,
    estimate_large_tpc_modulus,
    estimate_tpc_alpha,
    full_report,
    scope_threshold,
)
from contraction_lab.map_catalog import SelfMap, apply, catalog, composite_action
from contraction_lab.metric_core import (
    ETA,
    FiniteMetricSpace,
    InputError,
    SampledSpace,
    ValidationReport,
    perimeter,
    table_lattice,
    validate_metric,
)
from contraction_lab.theorem_lab import SearchConfig, random_instance
from oracles import (
    FractionPairRow,
    FractionTripleRow,
    candidate_fold,
    metric_violations_loops,
    line_basis,
    table_loops,
)


# ---------------------------------------------------------------------------
# independent oracle: direct Fraction enumeration, no shared engine code

def naive_triple_summary(space, mapping, eps_grid):
    pts = list(space.point_set())
    sup = None
    sup_wit = None
    deltas = {e: None for e in eps_grid}
    wits = {e: None for e in eps_grid}
    counts = {e: 0 for e in eps_grid}
    strict = None
    for i, j, k in combinations(range(len(pts)), 3):
        x, y, z = pts[i], pts[j], pts[k]
        p = perimeter(space, x, y, z)
        tx, ty, tz = apply(mapping, x), apply(mapping, y), apply(mapping, z)
        pt = perimeter(space, tx, ty, tz)
        r = F(pt) / F(p)
        side = max(space.distance(x, y), space.distance(y, z), space.distance(x, z))
        if sup is None or r > sup:
            sup, sup_wit = r, (x, y, z)
        if strict is None and pt >= p:
            strict = (x, y, z)
        for e in eps_grid:
            if side >= e:
                counts[e] += 1
                if deltas[e] is None or r > deltas[e]:
                    deltas[e], wits[e] = r, (x, y, z)
    return {"sup": sup, "sup_wit": sup_wit, "deltas": deltas, "wits": wits,
            "counts": counts, "strict": strict}


def naive_pair_summary(space, mapping, eps_grid):
    pts = list(space.point_set())
    deltas = {e: None for e in eps_grid}
    counts = {e: 0 for e in eps_grid}
    strict = None
    for i, j in combinations(range(len(pts)), 2):
        x, y = pts[i], pts[j]
        d = space.distance(x, y)
        dt = space.distance(apply(mapping, x), apply(mapping, y))
        if strict is None and dt >= d:
            strict = (x, y)
        for e in eps_grid:
            if d >= e:
                counts[e] += 1
                if deltas[e] is None or F(dt) / F(d) > deltas[e]:
                    deltas[e] = F(dt) / F(d)
    return {"deltas": deltas, "counts": counts, "strict": strict}


def random_finite_instances(n_instances, seed=9):
    cfg = SearchConfig(seed=seed, trials=n_instances)
    return [random_instance(cfg, t) for t in range(n_instances)]


SMALL_EPS = (F(1, 16), F(1, 4), F(1, 2), F(1), F(2))

# exact numerators whose perimeters pass 2**53, or floats beyond 2**200: the
# lattice is not screenable, and every item of a bucket is a candidate
WIDE_MAGNITUDE = 2 ** 250
# exact denominators den * p whose lcm passes 2**53: an object lattice again
WIDE_PRIMES = (1_000_000_007, 1_000_000_009, 1_000_000_021)


def random_table(rng, n, den, magnitude=1, offsets=False, exact=True, primes=False):
    """A random table of n points, (k * magnitude + r) / den with k in 1..den.

    The k are closed under shortest paths, so without offsets r the table is
    a metric; den = 3 makes ties abound.  Offsets r < 2**20 (symmetric) break
    the common factor, turning exact ties into near-ties between numerators
    of up to 2**51 (3 * 2**51 is still below the 2**53 lattice limit).  With
    primes, entry (i, j) is divided by one more prime, WIDE_PRIMES[(i + j) %
    3]: the pairs of points 0, 1 and 2 use all three.
    """
    k = [[0] * n for _ in range(n)]
    r = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            k[i][j] = k[j][i] = rng.randint(1, den)
            if offsets:
                r[i][j] = r[j][i] = rng.randrange(2 ** 20)
    for m in range(n):
        for i in range(n):
            for j in range(n):
                k[i][j] = min(k[i][j], k[i][m] + k[m][j])
    cell = (lambda v, q: F(v, q)) if exact else (lambda v, q: v / q)
    return [[cell(k[i][j] * magnitude + r[i][j], den * (WIDE_PRIMES[(i + j) % 3] if primes else 1))
             for j in range(n)] for i in range(n)]


# largest |lattice entry| of an edge table -> the dtype its triangle check runs on: twice it
# just below and at 2**15 and 2**31
EDGE_DTYPES = {2 ** 14 - 1: np.int16, 2 ** 14: np.int32, 2 ** 30 - 1: np.int32, 2 ** 30: np.int64}


def edge_table(table, top):
    """An exact table over 5 whose lattice has largest |entry| top, from a table of Fractions.

    Each lattice value v of table becomes v * (top // m), m being the largest
    |v|, and each value of |v| = m becomes +-top.  5 divides no top of
    EDGE_DTYPES, so the lattice of the result keeps these numerators.
    """
    values = table_lattice(table, True).values.tolist()
    m = max(abs(v) for row in values for v in row)
    scaled = [[(top if v > 0 else -top) if abs(v) == m else v * (top // m) for v in row]
              for row in values]
    return [[F(v, 5) for v in row] for row in scaled]


def overflow_table(rng, n):
    """An exact table of n >= 6 points whose image-to-measure ratios reach past 2**1024.

    Entries are k * s / p with k in 1..4, s in {1, 2**1000, 2**1100} and p
    one of WIDE_PRIMES.  Points 0, 1 and 4 lie 1/p apart and points 2 and 3
    at 2**1100 / p, so a map sending 0, 1 and 4 to 2, 3 and 5 divides to
    +inf, for the pair (0, 1) and the triple (0, 1, 4) alike.
    """
    table = [[F(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        table[i][j] = table[j][i] = F(rng.randint(1, 4) * rng.choice((1, 2 ** 1000, 2 ** 1100)),
                                      rng.choice(WIDE_PRIMES))
    for i, j in ((0, 1), (0, 4), (1, 4)):
        table[i][j] = table[j][i] = F(1, WIDE_PRIMES[0])
    table[2][3] = table[3][2] = F(2 ** 1100, WIDE_PRIMES[1])
    return tuple(tuple(row) for row in table)


def float_ratio(num, den):
    """The correctly rounded float of num / den, +inf beyond the float range."""
    try:
        return float(F(num) / F(den))
    except OverflowError:
        return math.inf


@st.composite
def table_scans(draw):
    """A table, a node subset, a self-map and an eps grid for one scan."""
    n = draw(st.integers(min_value=3, max_value=30))
    den = draw(st.sampled_from((3, 96)))
    exact = draw(st.booleans())
    magnitude, offsets, primes = draw(st.sampled_from(
        ((1, False, False), (2 ** 44, True, False), (WIDE_MAGNITUDE, False, False),
         (1, False, True))))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    table = tuple(tuple(row) for row in random_table(rng, n, den, magnitude, offsets, exact,
                                                     primes))
    kind = rng.choice(("uniform", "pool", "constant"))
    if kind == "uniform":
        images = [rng.randrange(n) for _ in range(n)]
    elif kind == "pool":
        pool = rng.sample(range(n), 3)
        images = [rng.choice(pool) for _ in range(n)]
    else:
        images = [rng.randrange(n)] * n
        images[rng.randrange(n)] = rng.randrange(n)
    nodes = sorted(rng.sample(range(n), rng.randint(3, n)))
    # grid values equal to table entries put measures exactly on bucket edges
    values = sorted({F(v) for row in table for v in row if v > 0})
    eps = tuple(sorted(set(rng.sample(values, min(len(values), rng.randint(1, 5))))
                       | {F(rng.randint(1, 3 * den) * magnitude, den)}))
    return table, nodes, images, eps, exact, magnitude == WIDE_MAGNITUDE or (primes and exact)


class TestEngineAgainstNaiveOracle:
    def test_random_finite_instances(self):
        for space, mapping in random_finite_instances(25):
            want_t = naive_triple_summary(space, mapping, SMALL_EPS)
            want_p = naive_pair_summary(space, mapping, SMALL_EPS)
            alpha, wit, _ = estimate_tpc_alpha(space, mapping)
            assert alpha == want_t["sup"]
            table_t, _ = estimate_large_tpc_modulus(space, mapping, eps_grid=SMALL_EPS)
            for entry in table_t.entries:
                assert entry.delta == want_t["deltas"][entry.eps]
                assert entry.count == want_t["counts"][entry.eps]
            table_p, _ = estimate_large_contraction_modulus(space, mapping,
                                                            eps_grid=SMALL_EPS)
            for entry in table_p.entries:
                assert entry.delta == want_p["deltas"][entry.eps]
                assert entry.count == want_p["counts"][entry.eps]
            strict = check_pairwise_strict(space, mapping)
            assert strict.passed == (want_p["strict"] is None)

    @given(table_scans())
    def test_lattice_engine_matches_reference_loops(self, case):
        table, nodes, images, eps, exact, wide = case
        lattice = table_lattice(table, exact)
        assert lattice.screenable != wide
        points = tuple(nodes)
        for kind, engine in (("pairwise", scan.table_pair_analysis),
                             ("triple", scan.table_triple_analysis)):
            got = engine(lattice, nodes, images, eps, points)
            want = table_loops(kind, table, nodes, images, eps, points, exact)
            assert got == want
            assert repr(got) == repr(want)    # same scalar types, not just equal values

    @staticmethod
    def two_pair_scan(first, second, other, exact):
        """Pair scan where pairs (0,1) and (2,3) carry (distance, image distance)
        first and second; every other pair's ratio is at most 1."""
        table = [[other] * 8 for _ in range(8)]
        for i in range(8):
            table[i][i] = 0 * other
        for (i, j), value in (((0, 1), first[0]), ((4, 5), first[1]),
                              ((2, 3), second[0]), ((6, 7), second[1])):
            table[i][j] = table[j][i] = value
        table = tuple(tuple(row) for row in table)
        images = [4, 5, 6, 7, 0, 0, 0, 0]
        nodes = list(range(8))
        got = scan.table_pair_analysis(table_lattice(table, exact), nodes, images, (F(1),),
                                       tuple(nodes))
        want = table_loops("pairwise", table, nodes, images, (F(1),), tuple(nodes), exact)
        assert table_lattice(table, exact) is not None
        assert got == want
        return got

    @pytest.mark.parametrize("exact_winner", [(0, 1), (2, 3)])
    def test_distinct_ratios_on_one_float(self, exact_winner):
        # consecutive Fibonacci ratios differ by 1/(F72 F73) (Cassini), far
        # below float resolution; F73/F72 is the larger one
        fib = [0, 1]
        while len(fib) < 75:
            fib.append(fib[-1] + fib[-2])
        f72, f73, f74 = (F(v) for v in fib[72:75])
        assert float(f73 / f72) == float(f74 / f73) and f73 / f72 > f74 / f73
        pairs = ((f72, f73), (f73, f74))
        if exact_winner == (2, 3):
            pairs = pairs[::-1]
        got = self.two_pair_scan(*pairs, other=f74, exact=True)
        assert got.sup_ratio == f73 / f72
        assert got.sup_witness[0] == exact_winner

    @pytest.mark.parametrize("exact_winner", [(0, 1), (2, 3)])
    def test_distinct_ratios_on_one_float_on_an_object_lattice(self, exact_winner):
        # the Fibonacci ratios again, each pair over its own prime: the lcm
        # passes 2**53, so the float screen divides Python ints
        fib = [0, 1]
        while len(fib) < 75:
            fib.append(fib[-1] + fib[-2])
        f72, f73, f74 = (F(v) for v in fib[72:75])
        p1, p2, p3 = WIDE_PRIMES
        pairs = ((f72 / p1, f73 / p1), (f73 / p2, f74 / p2))
        # a table over the same denominators has the same object lattice
        assert table_lattice(((f72 / p1, f73 / p2), (f74 / p3, 0)), True).values.dtype == object
        if exact_winner == (2, 3):
            pairs = pairs[::-1]
        got = self.two_pair_scan(*pairs, other=f74 / p3, exact=True)
        assert got.sup_ratio == f73 / f72
        assert got.sup_witness[0] == exact_winner

    @pytest.mark.parametrize("seed", range(8))
    def test_ratios_beyond_the_float_range(self, seed):
        # quotients past 2**1024 count as +inf, so the items tied there are
        # compared exactly, as the loops compare them
        rng = random.Random(seed)
        n = rng.randint(6, 9)
        table = overflow_table(rng, n)
        images = [rng.randrange(n) for _ in range(n)]
        images[:2], images[4] = [2, 3], 5
        lattice = table_lattice(table, True)
        assert lattice.values.dtype == object
        nodes = list(range(n))
        points = tuple(nodes)
        eps = (F(1, 2), F(2 ** 1000))
        for kind, engine in (("pairwise", scan.table_pair_analysis),
                             ("triple", scan.table_triple_analysis)):
            got = engine(lattice, nodes, images, eps, points)
            want = table_loops(kind, table, nodes, images, eps, points, True)
            assert repr(got) == repr(want), kind
            assert float_ratio(got.sup_ratio, 1) == math.inf, kind

    @pytest.mark.parametrize("shape", ["int64", "primes", "overflow"])
    def test_exact_fold_sees_only_float_tied_items(self, monkeypatch, shape):
        # each bucket's exact fold receives the items whose correctly rounded
        # float ratio equals the bucket's float maximum, and no others
        rng = random.Random(17)
        n = 12
        if shape == "overflow":
            table = overflow_table(rng, n)
        else:
            table = tuple(tuple(row) for row in random_table(rng, n, 3, primes=shape == "primes"))
        lattice = table_lattice(table, True)
        assert (lattice.values.dtype == object) == (shape != "int64")
        images = [rng.randrange(n) for _ in range(n)]
        images[:2], images[4] = [2, 3], 5
        nodes = list(range(n))
        eps = tuple(sorted({table[0][1], table[2][5], table[4][7]}))
        seen = []
        fold = scan._fold

        def recording(num, den, cands, witness, cur):
            seen.append(sorted(witness(t) for t in cands.tolist()))
            return fold(num, den, cands, witness, cur)

        monkeypatch.setattr(scan, "_fold", recording)
        got = scan.table_pair_analysis(lattice, nodes, images, eps, tuple(nodes))
        assert got == table_loops("pairwise", table, nodes, images, eps, tuple(nodes), True)
        buckets = {}
        for i, j in combinations(nodes, 2):
            ratio = float_ratio(table[images[i]][images[j]], table[i][j])
            buckets.setdefault(bisect_right(eps, table[i][j]), {})[(i, j)] = ratio
        want = []
        for b in sorted(buckets):
            top = max(buckets[b].values())
            want.append(sorted(w for w, r in buckets[b].items() if r == top))
        assert seen == want
        if shape != "primes":       # den 3 makes exact ties, and overflows tie at +inf
            assert any(len(items) > 1 for items in want)

    def test_float_cross_product_tie_keeps_first(self):
        # 1512/700 = 2106/975 exactly; in floats the first quotient is one
        # ulp lower, but the cross products tie, so the loops keep (0, 1)
        first, second = (700 / 96, 1512 / 96), (975 / 96, 2106 / 96)
        assert first[1] / first[0] < second[1] / second[0]
        assert first[1] * second[0] == second[1] * first[0]
        got = self.two_pair_scan(first, second, other=2106 / 96, exact=False)
        assert got.sup_witness[0] == (0, 1)

    @given(st.integers(min_value=3, max_value=30), st.sampled_from((3, 96)), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 32), st.sampled_from(("plain", "wide")))
    def test_validate_metric_matches_reference_loops(self, n, den, exact, seed, scale):
        # wide: exact denominators whose lcm passes 2**53, or floats beyond 2**200
        rng = random.Random(seed)
        wide = scale == "wide"
        table = random_table(rng, n, den, WIDE_MAGNITUDE if wide and not exact else 1,
                             exact=exact, primes=wide and exact)
        top = max(max(row) for row in table)
        x, y, z = rng.sample(range(n), 3)
        table[x][x] = table[x][y]                          # diagonal
        table[min(y, z)][max(y, z)] = table[y][y]          # positivity and symmetry
        table[x][z] = 3 * top                              # triangle, via y
        table = tuple(tuple(row) for row in table)
        want = metric_violations_loops(table, exact)
        assert all(want[axiom] for axiom in ("diagonal", "positivity", "symmetry",
                                             "triangle"))
        assert table_lattice(table, exact) is not None
        report = validate_metric(table, exact)
        got = {axiom: getattr(report, axiom) for axiom in want}
        assert repr(got) == repr(want)

    @given(data=st.data())
    def test_validate_metric_matches_the_loops_on_perturbed_symmetric_tables(self, data):
        # exactly symmetric tables are decided over i < k first; each perturbation sends a
        # table down the ordered pass, or tests the symmetric one's masks and ties; the edge
        # shapes put 2 max |entry| just below or at 2**15 or 2**31, where the check's dtype
        # changes
        n = data.draw(st.integers(min_value=3, max_value=12))
        shape = data.draw(st.sampled_from(("int64", "object", "float", "edge")))
        exact = shape != "float"
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2 ** 32)))
        den = data.draw(st.sampled_from((3, 96)))
        # object: numerators past 2**63, with offsets so that no common factor reduces them
        table = random_table(rng, n, den, 2 ** 64 if shape == "object" else 1,
                             offsets=shape == "object", exact=exact)
        assert (table_lattice(table, exact).values.dtype == object) == (shape == "object")
        top = max(max(row) for row in table)
        unit = F(1, den) if exact else ETA
        for change in data.draw(st.lists(st.sampled_from(
                ("asymmetric", "later-row", "both-rows", "tie", "negative", "diagonal")),
                max_size=3)):
            i, j, k = rng.sample(range(n), 3)
            if change == "asymmetric":      # one entry, by a unit or by one ulp
                table[i][j] += data.draw(st.sampled_from(
                    (unit, -unit) if exact else (2 * ETA, ETA / 2, math.ulp(table[i][j]))))
            elif change == "later-row":     # (i, j, k) fails, its mirror (k, j, i) holds
                i, k = max(i, k), min(i, k)
                table[i][k] = 3 * top
            elif change == "both-rows":     # (i, j, k) and its mirror in an earlier row fail
                table[i][k] = table[k][i] = 3 * top
            elif change == "tie":           # d_ik at d_ij + d_jk, within or past the margin
                gap = data.draw(st.sampled_from((0, unit) if exact else (ETA / 2, 2 * ETA)))
                table[i][k] = table[k][i] = table[i][j] + table[j][k] + gap
            elif change == "negative":      # a symmetric negative entry still reaches the decision
                table[i][k] = table[k][i] = -table[i][k]
            else:
                table[i][i] = data.draw(st.sampled_from((unit, -unit, 3 * top)))
        if shape == "edge":
            top = data.draw(st.sampled_from(tuple(EDGE_DTYPES)))
            table = edge_table(table, top)
        table = tuple(tuple(row) for row in table)
        lattice = table_lattice(table, exact)
        narrow = metric_core._narrowest(lattice.values)
        if shape == "edge":
            assert max(abs(v) for v in lattice.values.flat) == top
            assert narrow.dtype == EDGE_DTYPES[top]
        # budgets of one pair or row per block, two pairs (both rows of each), and the default
        block = data.draw(st.sampled_from((1, (4 * n + 1) * narrow.itemsize,
                                           metric_core.TRIANGLE_BLOCK)))
        symmetric = all(lattice.values[a][b] == lattice.values[b][a]
                        for a, b in combinations(range(n), 2))
        want = metric_violations_loops(table, exact)
        with mock.patch.object(metric_core, "TRIANGLE_BLOCK", block), \
                mock.patch.object(metric_core, "_symmetric_triangle_holds",
                                  wraps=metric_core._symmetric_triangle_holds) as decide:
            report = validate_metric(table, exact)
        assert decide.called == symmetric
        got = {axiom: getattr(report, axiom) for axiom in want}
        assert repr(got) == repr(want)
        if symmetric:       # the decision itself, not only the report it leads to
            rows, cols = np.triu_indices(n, 1)
            with mock.patch.object(metric_core, "TRIANGLE_BLOCK", block):
                holds = metric_core._symmetric_triangle_holds(
                    narrow, rows, cols, narrow[rows, cols], 0 if exact else ETA)
            assert holds == (not want["triangle"])

    @pytest.mark.parametrize("n, shape", [(45, "int64"), (70, "int64"), (45, "object"),
                                          (45, "float"), (70, "float")])
    def test_validate_metric_matches_reference_loops_across_blocks(self, n, shape):
        # n above one block height of the triangle pass: violations planted in
        # rows of several blocks, and in float mode just above and below ETA
        rng = random.Random(n)
        exact = shape != "float"
        table = random_table(rng, n, 96, exact=exact, primes=shape == "object")
        top = max(max(row) for row in table)
        rows = (3, n // 3, n // 2 + 1, n - 2)
        for i in rows:
            k = (i + 7) % n
            table[i][k] = table[k][i] = 3 * top
        x, y = rows[1], rows[2]
        table[x][x] = table[x][y]                          # diagonal
        table[y][y + 1] = table[y][y]                      # positivity and symmetry
        near = {}
        if not exact:       # d_ik - (d_ij + d_jk) of 2 ETA (reported) and ETA / 2 (not)
            for (i, j, k), gap in (((rows[0], rows[0] + 1, rows[0] + 2), 2e-12),
                                   ((rows[3], rows[3] - 2, rows[3] - 1), 5e-13)):
                table[i][k] = table[k][i] = table[i][j] + table[j][k] + gap
                near[(i, j, k)] = gap > ETA
        table = tuple(tuple(row) for row in table)
        lattice = table_lattice(table, exact)
        assert (lattice.values.dtype == object) == (shape == "object")
        want = ValidationReport(size=n, **metric_violations_loops(table, exact))
        itemsize = metric_core._narrowest(lattice.values).itemsize
        height = 1 if shape == "object" else metric_core.TRIANGLE_BLOCK // (n * n * itemsize)
        assert len({i // height for i, *_ in want.triangle}) > 1
        assert len({i for i, *_ in want.triangle}) >= len(rows)
        for triple, reported in near.items():
            assert (triple in {tuple(v[:3]) for v in want.triangle}) == reported
        got = validate_metric(lattice)
        assert got == want
        assert repr(got) == repr(want)

    def test_halving_map_small_scope(self):
        entry = catalog("floor_half", integer_max=40)
        want = naive_triple_summary(entry.space, entry.map, SMALL_EPS)
        alpha, wit, _ = estimate_tpc_alpha(entry.space, entry.map)
        assert alpha == want["sup"] == F(2, 3)
        assert (wit["x"], wit["y"], wit["z"]) == want["sup_wit"] == (1, 2, 4)
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map, eps_grid=SMALL_EPS)
        for e in table.entries:
            assert e.delta == want["deltas"][e.eps]

    def test_logistic_map_coarse_grid(self):
        entry = catalog("burton_logistic", grid_step=F(1, 16))
        want = naive_triple_summary(entry.space, entry.map, SMALL_EPS)
        alpha, _, _ = estimate_tpc_alpha(entry.space, entry.map)
        assert alpha == want["sup"] == F(8, 9)  # 1/(1 + 2h) at h = 1/16
        want_p = naive_pair_summary(entry.space, entry.map, SMALL_EPS)
        table_p, _ = estimate_large_contraction_modulus(entry.space, entry.map,
                                                        eps_grid=SMALL_EPS)
        for e in table_p.entries:
            assert e.delta == want_p["deltas"][e.eps]

    def test_composite_coarse_grid(self):
        entry = catalog("composite", grid_step=F(1, 8), index_max=6)
        want = naive_triple_summary(entry.space, entry.map, SMALL_EPS)
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map, eps_grid=SMALL_EPS)
        for e in table.entries:
            assert e.delta == want["deltas"][e.eps]
        assert [e for e in table.entries if e.eps == 2][0].delta == F(5, 24)
        alpha, _, _ = estimate_tpc_alpha(entry.space, entry.map)
        assert alpha == want["sup"] == F(4, 5)


def traced_peak(f):
    """The peak traced allocation, in bytes, of a second call of f (the first warms caches)."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTableEngineMemory:
    # the passes over an n-point table hold O(n^2) arrays and blocks of bounded
    # size; one O(n^3) temporary would take n = 160 tables at n = 160
    N = 160
    VALIDATE_TABLES = 8
    TRIPLE_TABLES = 24

    @pytest.mark.parametrize("shape", ["random", "ties"])
    def test_peak_allocation_is_a_few_tables(self, shape):
        n = self.N
        rng = np.random.default_rng(160)
        if shape == "random":
            raw = rng.integers(1, 97, size=(n, n))
            raw = np.minimum(raw, raw.T)
            np.fill_diagonal(raw, 0)
            for k in range(n):
                raw = np.minimum(raw, raw[:, k, None] + raw[None, k, :])
            images = rng.integers(0, n, size=n).tolist()
        else:       # every triple ties at ratio 1: each one stays a candidate
            raw = 1 - np.eye(n, dtype=np.int64)
            images = list(range(n))[::-1]
        lattice = metric_core.exact_lattice(raw, 96)
        assert lattice.values.dtype == np.int64
        table = lattice.values.nbytes
        nodes = list(range(n))
        assert traced_peak(lambda: validate_metric(lattice)) <= self.VALIDATE_TABLES * table
        assert traced_peak(lambda: scan.table_triple_analysis(
            lattice, nodes, images, DEFAULT_EPS_GRID, tuple(nodes))) <= self.TRIPLE_TABLES * table

    def test_the_symmetric_decision_runs_on_int16_within_the_byte_budget(self):
        # a table-load table: numerators up to 96, so its sums fit int16; each temporary of
        # the decision is within the byte budget, and at most two are live at once (a
        # block's gathered rows, which then hold their sums, and its mask)
        table = random_table(random.Random(88), 88, 96)
        with mock.patch.object(metric_core, "_symmetric_triangle_holds",
                               wraps=metric_core._symmetric_triangle_holds) as decide:
            assert validate_metric(table).ok
        (d, *rest), _ = decide.call_args
        assert d.dtype == np.int16
        assert metric_core._symmetric_triangle_holds(d, *rest)
        peak = traced_peak(lambda: metric_core._symmetric_triangle_holds(d, *rest))
        assert peak <= 2 * metric_core.TRIANGLE_BLOCK


class _DictFormula:
    """Formula map backed by a fixed lookup, for fuzzing the line engine."""

    def __init__(self, table):
        self.table = table

    def __call__(self, x):
        return self.table[x]


def naive_line_analysis(kind, points, images, eps):
    """The line engine's EnumAnalysis, from every item in lex order in Fractions."""
    images = [F(v) for v in images]      # the scans report image measures as Fractions
    size = 2 if kind == "pairwise" else 3
    scale = 1 if kind == "pairwise" else 2     # distance, or perimeter of sorted points
    best = [None] * len(eps)
    counts = [0] * len(eps)
    sup = strict = None
    total = 0
    for wit in combinations(range(len(points)), size):
        longest = points[wit[-1]] - points[wit[0]]
        ims = [images[w] for w in wit]
        measure = scale * longest
        image_measure = scale * (max(ims) - min(ims))
        entry = (image_measure / measure, image_measure, measure, wit)
        total += 1
        if sup is None or entry[0] > sup[0]:
            sup = entry
        if strict is None and image_measure >= measure:
            strict = (tuple(points[w] for w in wit), measure, image_measure)
        for b, e in enumerate(eps):
            if longest >= e:
                counts[b] += 1
                if best[b] is None or entry[0] > best[b][0]:
                    best[b] = entry

    def packed(entry):
        if entry is None:
            return None
        return tuple(points[w] for w in entry[3]), entry[1], entry[2]

    return scan.EnumAnalysis(
        kind=kind, eps=tuple(eps),
        deltas=tuple(None if e is None else e[0] for e in best),
        delta_witnesses=tuple(packed(e) for e in best), counts=tuple(counts),
        sup_ratio=sup[0], sup_witness=packed(sup), strict_violation=strict, total=total)


def middle_point_loop(points, images, i, k):
    """Best triple over the middle points of (i, k), smallest argmax, and the
    lex-first triple (i, j, k) whose perimeter does not decrease (or None)."""
    lo, hi = sorted((images[i], images[k]))
    best, best_j = hi - lo, i + 1
    strict = (i, i + 1, k) if hi - lo >= points[k] - points[i] else None
    for j in range(i + 1, k):
        spread = max(hi, images[j]) - min(lo, images[j])
        if spread > best:
            best, best_j = spread, j
        if strict is None and spread >= points[k] - points[i]:
            strict = (i, j, k)
    return (2 * best, 2 * (points[k] - points[i]), (i, best_j, k)), strict


@st.composite
def line_scans(draw):
    """A sampled space, images and an eps grid for one line scan."""
    n = draw(st.integers(min_value=3, max_value=12))
    den = draw(st.sampled_from((1, 3, 8, 10)))   # 3, 10: spans off the float grid
    shape = draw(st.sampled_from(("ties", "magnitudes", "strict", "random")))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    nums = sorted(rng.sample(range(4 * n), n))
    points = [F(k, den) for k in nums]
    big = [10 ** 12 + F(rng.randint(0, 1000), 10 ** rng.choice((6, 7))) for _ in points]
    if shape == "ties":            # x/2, one image nudged above its float
        images = [p / 2 for p in points]
        images[rng.randrange(n)] += rng.choice((0, F(1, 10 ** 12)))
    elif shape == "magnitudes":    # offsets near 10**12: the floats cancel
        images = big
    elif shape == "strict":        # jumps of at least the distance at several rows
        images = rng.choice(([p / 2 for p in points], big))
        for r in rng.sample(range(1, n), rng.randint(2, min(3, n - 1))):
            images[r] = images[r - 1] + rng.choice((1, 2)) * (points[r] - points[r - 1])
    else:
        images = [F(rng.randint(0, 24), 8) for _ in points]
    # spans put eps on bucket edges; the last value lies above every span
    spans = sorted({points[j] - points[i] for i, j in combinations(range(n), 2)})
    eps = set(rng.sample(spans, min(len(spans), rng.randint(1, 4))))
    eps |= {F(rng.randint(1, 16), 16), points[-1] - points[0] + F(1, den)}
    return nums, den, points, images, tuple(sorted(eps))


def primes_above(q, count):
    """The count least primes above q."""
    primes = []
    while len(primes) < count:
        q += 1
        if all(q % f for f in range(2, int(q ** 0.5) + 1)):
            primes.append(q)
    return primes


PRIMES_NEAR_MILLION = primes_above(10 ** 6, 24)


@st.composite
def int_row_inputs(draw):
    """A line scan's inputs for the exact rows, in one of four image shapes.

    Shapes: each image over its own prime denominator near 10**6 (products
    of distinct primes in every cross product), images near 10**12 whose
    floats cancel, all images tied, and ints of either sign, some negative.
    With jumps, a few images lie exactly a span above their predecessor, so
    strict violations sit on the boundary.
    """
    n = draw(st.integers(min_value=3, max_value=24))
    den = draw(st.sampled_from((1, 3, 10)))
    shape = draw(st.sampled_from(("primes", "cancelling", "tied", "ints")))
    jumps = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    nums = sorted(rng.sample(range(4 * n), n))
    points = [F(k, den) for k in nums]
    images = {"primes": [F(rng.randrange(8 * p), p) for p in PRIMES_NEAR_MILLION[:n]],
              "cancelling": [10 ** 12 + F(rng.randint(0, 1000), 10 ** 6) for _ in nums],
              "tied": [F(7, 3)] * n,
              "ints": [rng.randint(-50, 50) for _ in nums]}[shape]
    if jumps:
        for r in rng.sample(range(1, n), rng.randint(1, min(3, n - 1))):
            images[r] = images[r - 1] + rng.choice((1, -1)) * (points[r] - points[r - 1])
    spans = sorted({points[j] - points[i] for i, j in combinations(range(n), 2)})
    eps = tuple(sorted(set(rng.sample(spans, min(len(spans), 3)))))
    return nums, den, points, images, eps


@st.composite
def exact_stage_inputs(draw):
    """A line scan's inputs for the exact stage, in one of four image shapes.

    Shapes: numerators and denominators of 2**32 or more, which put the
    stage on object arrays; distinct rationals near 10**12 that share a float
    (floats there are 2**-13 apart); x/2, tie-heavy, with or without one
    image raised by 1e-12; and small ints on uneven points, where a bucket's
    tied triples can meet a later witness first in (row, position) order.
    """
    n = draw(st.integers(min_value=3, max_value=12))
    shape = draw(st.sampled_from(("wide", "shared", "half", "crossing")))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    den = rng.choice((1, 3, 10))
    nums = sorted(rng.sample(range(3 * n), n))
    points = [F(k, den) for k in nums]
    if shape == "wide":
        images = [F(rng.randint(-2 ** 40, 2 ** 40), rng.randint(2 ** 32, 2 ** 33)) for _ in nums]
    elif shape == "shared":
        images = [10 ** 12 + F(rng.randint(0, 50), 10 ** 7) for _ in nums]
    elif shape == "half":
        images = [p / 2 for p in points]
        images[rng.randrange(n)] += rng.choice((0, F(1, 10 ** 12)))
    else:
        images = [F(rng.randint(-4, 6)) for _ in nums]
    spans = sorted({points[j] - points[i] for i, j in combinations(range(n), 2)})
    eps = tuple(sorted(rng.sample(spans, min(len(spans), rng.randint(1, 3)))))
    return nums, den, points, images, eps


def lex_first_triple(points, images):
    """The lex-first triple (i, j, k) whose perimeter does not decrease, or None."""
    for i, j, k in combinations(range(len(points)), 3):
        ims = (images[i], images[j], images[k])
        if max(ims) - min(ims) >= points[k] - points[i]:
            return i, j, k
    return None


def triple_families(points, images, i):
    """The strict-check families that row i holds a violator of: (a) a pair (i, k), k >= i + 2,
    whose image distance reaches its span; (b) some j > i with |T_j - T_i| >= x_{j+1} - x_i;
    (c) some i < j < k with |T_k - T_j| >= x_k - x_i."""
    n, x, t = len(points), points, images
    found = set()
    if any(abs(t[k] - t[i]) >= x[k] - x[i] for k in range(i + 2, n)):
        found.add("a")
    if any(abs(t[j] - t[i]) >= x[j + 1] - x[i] for j in range(i + 1, n - 1)):
        found.add("b")
    if any(abs(t[k] - t[j]) >= x[k] - x[i] for j in range(i + 1, n - 1) for k in range(j + 1, n)):
        found.add("c")
    return found


@st.composite
def family_inputs(draw):
    """A triple scan whose lex-first strict violator lies in a row that holds violators of one
    family, (a), (b) or (c), only, and that family.

    Points of three denominators carry images of slope 1/3 to 1/5, plus, for
    (a), one image exactly a span above or below that of an earlier point
    two or more indices back; for (b), a jump of at least x_{i+2} - x_i
    after point i, followed by images halfway back; for (c), a rise of less
    than x_{j+1} - x_i at point j and a fall of x_{j+1} - x_i right after
    it.  Draws whose first violating row holds another family are drawn
    again.
    """
    family = draw(st.sampled_from("abc"))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    while True:
        n = rng.randint(4, 9)
        den = rng.choice((1, 2, 3))
        nums = sorted(rng.sample(range(3 * n), n))
        points = [F(k, den) for k in nums]
        slope, sign = F(1, rng.choice((3, 4, 5))), rng.choice((1, -1))
        images = [slope * p for p in points]
        i = rng.randrange(n - 2)
        if family == "a":
            k = rng.randrange(i + 2, n)
            images[k] = images[i] + sign * (points[k] - points[i])
        elif family == "b":
            rise = (points[i + 2] - points[i]) * rng.choice((1, F(5, 4)))
            images[i + 1] = images[i] + sign * rise
            for k in range(i + 2, n):
                images[k] = images[i] + sign * rise / 2 + slope * (points[k] - points[i + 2])
        else:
            j = rng.randrange(i + 1, n - 1)
            span = points[j + 1] - points[i]
            images[j] = images[i] + sign * span * F(rng.randint(1, 3), 4)
            images[j + 1] = images[j] - sign * span
        first = lex_first_triple(points, images)
        if first is not None and triple_families(points, images, first[0]) == {family}:
            spans = sorted({points[k] - points[i] for i, k in combinations(range(n), 2)})
            return nums, den, points, images, (spans[0], spans[-1]), family


def all_items(data):
    """(rows, positions) arrays of every item of a line scan, in (row, position) order."""
    positions = [np.arange(data.basis.n - data.gap - i) for i in range(data.basis.n - data.gap)]
    rows = np.repeat(np.arange(len(positions)), list(map(len, positions)))
    return rows, np.concatenate(positions)


class TestLineEngineFuzz:
    def test_random_off_grid_images_match_naive_oracle(self):
        # non-monotone images, many off the sample grid, exercising the
        # middle-point reduction, exact re-evaluation, and strictness scan
        rng = random.Random(2026)

        for trial in range(40):
            den = rng.choice((2, 4, 5))
            nums = sorted(rng.sample(range(0, 16), rng.randint(4, 9)))
            space = SampledSpace(f"fuzz{trial}", denominator=den,
                                 numerators=tuple(nums))
            images = {p: F(rng.randint(0, 24), 8) for p in space.point_set()}
            mapping = SelfMap(space=space, name="fuzz", func=_DictFormula(images))
            want_t = naive_triple_summary(space, mapping, SMALL_EPS)
            want_p = naive_pair_summary(space, mapping, SMALL_EPS)

            alpha, wit, _ = estimate_tpc_alpha(space, mapping)
            assert alpha == want_t["sup"]
            assert (wit["x"], wit["y"], wit["z"]) == want_t["sup_wit"]
            table_t, _ = estimate_large_tpc_modulus(space, mapping,
                                                    eps_grid=SMALL_EPS)
            for e in table_t.entries:
                assert e.delta == want_t["deltas"][e.eps], (trial, e.eps)
                assert e.count == want_t["counts"][e.eps]
                if not e.vacuous:
                    w = e.witness
                    assert (w["x"], w["y"], w["z"]) == want_t["wits"][e.eps]
            table_p, _ = estimate_large_contraction_modulus(space, mapping,
                                                            eps_grid=SMALL_EPS)
            for e in table_p.entries:
                assert e.delta == want_p["deltas"][e.eps]
            strict = check_pairwise_strict(space, mapping)
            assert strict.passed == (want_p["strict"] is None)


    def test_many_float_tied_candidates_keep_the_exact_supremum(self):
        # x/2 on 0..329 with the last image raised by 1e-12: every pair's float
        # ratio lies within the screen of 1/2, so all 54 285 pairs are exact
        # candidates, and the supremum sits at the lex-last pair (328, 329)
        n = 330
        points = [F(i) for i in range(n)]
        images = [F(i, 2) for i in range(n)]
        images[-1] += F(1, 10 ** 12)
        eps = (F(1, 2),)
        got = scan.line_pair_analysis(line_basis(list(range(n)), 1, images, eps))
        want, want_wit = None, None
        for i, j in combinations(range(n), 2):
            r = abs(images[j] - images[i]) / (points[j] - points[i])
            if want is None or r > want:
                want, want_wit = r, (points[i], points[j])
        assert want == F(500000000001, 1000000000000)
        assert got.sup_ratio == got.deltas[0] == want
        assert got.sup_witness[0] == got.delta_witnesses[0][0] == want_wit

    @pytest.mark.parametrize("scale", (10 ** 6, 10 ** 7))
    def test_cancelling_float_images_keep_the_true_supremum(self, scale):
        # images near 10**12 that differ by ~10**-4: their float differences
        # are off by ~10**-4 too, far beyond a screen relative to the ratio
        rng = random.Random(5)
        eps = (F(1, 8),)
        for trial in range(300):
            nums = sorted(rng.sample(range(40), 6))
            images = [10 ** 12 + F(rng.randint(0, 1000), scale) for _ in nums]
            points = [F(k, 8) for k in nums]
            got = scan.line_pair_analysis(line_basis(nums, 8, images, eps))
            want = naive_line_analysis("pairwise", points, images, eps)
            assert repr(got) == repr(want), (scale, trial)

    def test_cancelling_float_images_keep_the_strict_violation(self):
        # jumps of exactly the distance between images near 10**12, at spans
        # k/3 off the float grid: a violation's float ratio can read 1 - 10**-4
        rng = random.Random(7)
        eps = (F(1, 3),)
        for trial in range(200):
            nums = sorted(rng.sample(range(40), 8))
            points = [F(k, 3) for k in nums]
            images = [10 ** 12 + F(rng.randint(0, 1000), 10 ** 6) for _ in nums]
            for r in rng.sample(range(1, 8), 3):
                images[r] = images[r - 1] + points[r] - points[r - 1]
            for kind, engine in (("pairwise", scan.line_pair_analysis),
                                 ("triple", scan.line_triple_analysis)):
                got = engine(line_basis(nums, 3, images, eps))
                want = naive_line_analysis(kind, points, images, eps)
                assert repr(got) == repr(want), (kind, trial)

    @given(line_scans())
    def test_line_scans_match_fraction_oracle(self, case):
        nums, den, points, images, eps = case
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            got = engine(line_basis(nums, den, images, eps))
            want = naive_line_analysis(kind, points, images, eps)
            assert repr(got) == repr(want), kind

    @given(line_scans())
    def test_triple_rows_match_middle_point_loop(self, case):
        # the exact stage's arrays at every (i, k), and the strict check the lex-first of the
        # loop's strict triples
        nums, den, points, images, eps = case
        data = scan._LineTriples(line_basis(nums, den, images, eps))
        n = len(points)
        rows, ks = np.triu_indices(n, 2)
        num, span_den, wit = data.exact(rows, ks - rows - 2)
        stricts = []
        for t, (i, k) in enumerate(zip(rows.tolist(), ks.tolist())):
            entry, strict = middle_point_loop(points, images, i, k)
            assert data.entry(tuple(int(column[t]) for column in wit)) == entry
            # the int entry is the exact ratio over den (spans in 1/den units)
            assert F(int(num[t]), int(span_den[t])) * den == entry[0] / entry[1]
            stricts += [strict] if strict else []
        assert data.strict() == min(stricts, default=None)

    @given(int_row_inputs())
    def test_int_rows_match_the_fraction_rows(self, case):
        # every item of every row: the exact stage gives the same witness and the same
        # exact ratio (entries are unreduced), and the strict check the lex-first of the
        # Fraction rows' strict witnesses
        nums, den, points, images, eps = case
        for kind, oracle in (("pairwise", FractionPairRow), ("triple", FractionTripleRow)):
            data = scan._LINE_KINDS[kind](line_basis(nums, den, images, eps))
            rows, hs = all_items(data)
            got = data.exact(rows, hs)
            for t, (i, h) in enumerate(zip(rows.tolist(), hs.tolist())):
                reach = data.basis.n - data.gap - 1 - i
                num, den_span, wit = (int(got[0][t]), int(got[1][t]),
                                      tuple(int(column[t]) for column in got[2]))
                want_row = oracle(data, i, reach)
                want_num, want_den_span, want_wit = want_row.entry(h)
                assert wit == want_wit, (kind, i, h)
                assert num * want_den_span == want_num * den_span, (kind, i, h)
            assert data.strict() == fraction_strict(data), kind

    @given(family_inputs())
    def test_each_triple_family_alone_gives_the_lex_first_violator(self, case):
        # the first violating row holds a violator of one of families (a), (b), (c) only
        nums, den, points, images, eps, family = case
        data = scan._LineTriples(line_basis(nums, den, images, eps))
        want = naive_line_analysis("triple", points, images, eps)
        assert triple_families(points, images, lex_first_triple(points, images)[0]) == {family}
        assert tuple(points[w] for w in data.strict()) == want.strict_violation[0]
        got = scan.line_triple_analysis(line_basis(nums, den, images, eps))
        assert repr(got) == repr(want)

    @given(exact_stage_inputs())
    def test_exact_stage_matches_fraction_oracle(self, case):
        nums, den, points, images, eps = case
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            got = engine(line_basis(nums, den, images, eps))
            want = naive_line_analysis(kind, points, images, eps)
            assert repr(got) == repr(want), kind

    @given(exact_stage_inputs(), st.randoms(use_true_random=False))
    def test_settled_candidates_match_the_per_item_fold(self, case, rnd):
        # any candidate set, in its real buckets: the array stage keeps each bucket's
        # exact maximum and lex-first witness, as the per-item fold does
        nums, den, points, images, eps = case
        wide = max(max(abs(v.numerator), v.denominator) for v in images) >= 2 ** 32
        for kind in ("pairwise", "triple"):
            data = scan._LINE_KINDS[kind](line_basis(nums, den, images, eps))
            inum, iden = data.basis.inum, data.basis.iden
            assert inum.dtype == iden.dtype == (object if wide else inum.dtype)
            rows, hs = all_items(data)
            buckets = (hs[:, None] >= data.before[rows, 1:-1]).sum(axis=1)
            pick = np.array(sorted(rnd.sample(range(len(rows)), rnd.randint(1, len(rows)))))
            columns = rows[pick], hs[pick], buckets[pick], len(data.counts)
            got, want = scan._settle(data, *columns), candidate_fold(data, *columns)
            assert [None if e is None else (F(int(e[0]), int(e[1])), e[2]) for e in got] == \
                [None if e is None else (F(e[0], e[1]), e[2]) for e in want], kind

    @given(exact_stage_inputs())
    def test_image_ranks_follow_the_exact_order(self, case):
        nums, den, points, images, eps = case
        rank = line_basis(nums, den, images, eps).ranks.tolist()
        for a, b in combinations(range(len(images)), 2):
            assert ((rank[a] > rank[b]) - (rank[a] < rank[b])
                    == (images[a] > images[b]) - (images[a] < images[b])), (a, b)

    def test_triple_ties_settle_in_witness_order(self):
        # spans >= 9: (0, 5) and (0, 6) tie at ratio 1 with best middle points 3 and 1, so
        # (row, position) order meets (0, 3, 5) first, and witness order (0, 1, 6)
        nums = [0, 2, 3, 4, 5, 9, 10]
        points = [F(k) for k in nums]
        images = [F(v) for v in (-4, 4, 4, 5, -1, -2, 6)]
        eps = (F(2), F(9))
        got = scan.line_triple_analysis(line_basis(nums, 1, images, eps))
        assert got.deltas[1] == 1 and got.delta_witnesses[1][0] == (0, 2, 10)
        assert repr(got) == repr(naive_line_analysis("triple", points, images, eps))

    def test_distinct_images_sharing_a_float_rank_apart(self):
        images = [10 ** 12 + F(r, 10 ** 7) for r in (3, 1, 2, 1, 0)]
        nums = list(range(len(images)))
        data = scan._LineTriples(line_basis(nums, 1, images, (F(1),)))
        assert len(set(data.basis.tvals.tolist())) == 1
        assert data.basis.ranks.tolist() == [3, 1, 2, 1, 0]

    def test_many_float_tied_triples_settle_per_row(self):
        # x/2 on 0..159 with the last image raised by 1e-12: every (i, k) is
        # an exact candidate; the supremum needs the smallest span at k = 159
        n = 160
        points = [F(i) for i in range(n)]
        images = [F(i, 2) for i in range(n)]
        images[-1] += F(1, 10 ** 12)
        got = scan.line_triple_analysis(line_basis(list(range(n)), 1, images, (F(2),)))
        want = F(1000000000001, 2000000000000)
        assert got.sup_ratio == got.deltas[0] == want
        assert got.sup_witness[0] == got.delta_witnesses[0][0] == (F(157), F(158), F(159))
        assert got.strict_violation is None


def row_oracle(data, i):
    """Row i's float ratios, one row at a time, as the line engine once computed them."""
    tv, nums, den = data.basis.tvals, data.basis.nums, float(data.basis.den)
    if data.gap == 1:
        return np.abs(tv[i + 1:] - tv[i]) * (den / (nums[i + 1:] - nums[i]))
    ti, tk = tv[i], tv[i + 2:]
    interior = tv[i + 1:data.basis.n - 1]
    cmax = np.maximum.accumulate(interior)
    cmin = np.minimum.accumulate(interior)
    lo = np.minimum(ti, tk)
    hi = np.maximum(ti, tk)
    spread = np.maximum(hi - lo, np.maximum(cmax - lo, hi - cmin))
    return spread * (den / (nums[i + 2:] - nums[i]))


def float_pass_oracle(data, eps, cut=None):
    """Per-row bucket maxima and bucket counts, one row at a time, from row_oracle; with a
    cut, the maxima range over the items of row i whose last index is below cut[i]."""
    rows = data.basis.n - data.gap
    longest = int(data.basis.nums[-1]) - int(data.basis.nums[0])
    edges = [0, *scan._ceil_thresholds(eps, data.basis.den, longest + 1).tolist(), longest + 1]
    before = np.empty((rows, len(edges)), dtype=np.int64)
    for e, edge in enumerate(edges):
        before[:, e] = np.searchsorted(data.basis.nums, data.basis.nums[:rows] + edge) - np.arange(
            data.gap, rows + data.gap)
    np.maximum(before, 0, out=before)
    # row position p holds one pair, or p + 1 triples
    items = before if data.gap == 1 else before * (before + 1) // 2
    counts = np.diff(items.sum(axis=0))
    row_max = np.full((rows, len(edges) - 1), -np.inf)
    for i in range(rows):
        lo = before[i, :-1]
        filled = before[i, 1:] > lo
        ratios = row_oracle(data, i)
        if cut is not None:
            ratios = ratios[:cut[i] - i - data.gap]
        row_max[i, filled] = np.maximum.reduceat(ratios, lo[filled])
    return row_max, counts.tolist()


def open_floors(data):
    """Floors that drop nothing: every cell is tiled whole, up to its row's stop."""
    return lambda: np.full(len(data.counts), -np.inf)


def tiled_row_maxima(data, stop):
    """Per-row bucket maxima as the line pass reads them, tile by tile (scan._line_tiles), with
    nothing dropped; each item is tiled once."""
    row_max = np.full((len(stop), len(data.counts)), -np.inf)
    seen = set()
    for tile in scan._line_tiles(data, stop, open_floors(data)):
        items = set(zip(tile.rows.tolist(), tile.lasts.tolist()))
        assert len(items) == len(tile.rows) and not items & seen
        seen |= items
        np.maximum.at(row_max, (tile.rows, tile.bucket), tile.ratio)
    return row_max


def random_cells(data, stop, rng):
    """Random cells below the rows' stops: (bucket, rows, start, end) of a random subset of the
    rows, in random order, each with random positions [start, end), and a random bucket."""
    rows = np.array(rng.sample(range(len(stop)), rng.randint(1, len(stop))))
    length = stop[rows] - rows - data.gap
    start = np.array([rng.randrange(h) for h in length.tolist()], dtype=np.int64)
    end = np.array([rng.randint(s + 1, h) for s, h in zip(start.tolist(), length.tolist())],
                   dtype=np.int64)
    return rng.choice(data.filled.tolist()) + 0 * rows, rows, start, end


def left_out_bounds(data, stop, row, lo, hi):
    """Per position of the cell (row, positions [lo, hi)) of a bucket, below the rows' stops, the
    bound the line pass reads for it: its row's step-ratio bound up to the row's stop, and where
    the cell is split, the lesser of that and its block's range bound (scan._line_tiles)."""
    rows, lo_, hi_ = (np.array([v]) for v in (row, lo, hi))
    bound = np.full(hi - lo, data.step_bounds(rows, stop[rows] - rows - data.gap)[0])
    if hi - lo > scan.SPAN_BLOCKS:
        bucket = int(np.searchsorted(data.before[row], lo, side="right")) - 1
        cell, start, end = data.blocks(rows, lo_, hi_, data.edge_counts(rows, lo_, hi_))
        ranged = data.range_bounds(rows[cell], start, end, data.absolute[[bucket] * len(cell)])
        for a, b, r in zip(start.tolist(), end.tolist(), ranged.tolist()):
            bound[a - lo:b - lo] = np.minimum(bound[a - lo:b - lo], r)
    return bound


def cells_below(data, stop):
    """The nonempty cells below the rows' stops: (bucket, row) -> its positions [lo, hi)."""
    cells = {}
    for i in range(data.basis.n - data.gap):
        for b in data.filled.tolist():
            lo, hi = int(data.before[i, b]), min(int(data.before[i, b + 1]),
                                                 int(stop[i]) - i - data.gap)
            if hi > lo:
                cells[b, i] = lo, hi
    return cells


def brute_cut(data, threshold):
    """Per row i, the least last index k from which some point m splits (i, k) into two items
    of span >= threshold (in 1/den units), or n; the loop the cut formula stands for."""
    nums, gap, n = data.basis.nums.tolist(), data.gap, data.basis.n
    cut = []
    for i in range(n - gap):
        splits = [k for k in range(i + gap, n)
                  if any(min(nums[m] - nums[i], nums[k] - nums[m]) >= threshold
                         for m in range(i + gap, k - gap + 1))]
        cut.append(splits[0] if splits else n)
    return cut


def fraction_strict(data):
    """The lex-first strict violator of a line scan, from its Fraction rows, or None."""
    row_of = FractionPairRow if data.gap == 1 else FractionTripleRow
    found = [w for i in range(data.basis.n - data.gap)
             for row in [row_of(data, i, data.basis.n - data.gap - 1 - i)]
             for w in map(row.strict_witness, range(data.basis.n - data.gap - i)) if w]
    return min(found, default=None)


@st.composite
def tile_inputs(draw, max_n):
    """A line scan's inputs, shaped for the tile kernel, and a tile size.

    Shapes: a unit grid with composite's tail {4m, 4m + 1} (non-uniform
    spacing), images near 10**12 whose floats cancel, all images tied, x/2
    (ties within rounding), and small random images.  Tile sizes of one item
    (a row per block) and a few items break blocks at every row or every
    few; the default makes whole-row blocks.
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    shape = draw(st.sampled_from(("composite", "cancelling", "tied", "half", "random")))
    tile = draw(st.sampled_from((1, 5, 37, scan.LINE_TILE)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    if shape == "composite":
        den = rng.choice((2, 4, 8))
        nums = list(range(min(den + 1, n - n // 3)))
        m = 1
        while len(nums) < n:
            nums += [4 * m * den, (4 * m + 1) * den][:n - len(nums)]
            m += 1
        points = [F(k, den) for k in nums]
        images = [composite_action(p) for p in points]
    else:
        den = rng.choice((1, 3, 10))
        nums = sorted(rng.sample(range(4 * n), n))
        points = [F(k, den) for k in nums]
        images = {"cancelling": [10 ** 12 + F(rng.randint(0, 1000), 10 ** 6) for _ in nums],
                  "tied": [F(7, 3)] * n,
                  "half": [p / 2 for p in points],
                  "random": [F(rng.randint(0, 24), 8) for _ in nums]}[shape]
    spans = sorted({points[-1] - p for p in points[:-1]} | {points[1] - points[0]})
    eps = set(rng.sample(spans, min(len(spans), rng.randint(1, 4))))
    eps |= {F(rng.randint(1, 16), 16), points[-1] - points[0] + F(1, den)}
    return nums, den, points, images, tuple(sorted(eps)), tile


@st.composite
def rising_inputs(draw):
    """A line scan whose bucket maxima rise from row to row, and a tile size.

    Shapes: images x**2 (each later row holds steeper pairs); x/2 with one
    late image raised (floors jump late); and slope 3 on an early and on a
    late run of points, with slopes rising from 1 to 2 between them, so that
    a bucket's maximum is tied in an early and a late row.
    """
    n = draw(st.integers(min_value=3, max_value=30))
    shape = draw(st.sampled_from(("square", "spike", "ends")))
    tile = draw(st.sampled_from((1, 5, 37, scan.LINE_TILE)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    den = rng.choice((1, 3, 10))
    nums = sorted(rng.sample(range(4 * n), n))
    points = [F(k, den) for k in nums]
    if shape == "square":
        images = [p * p for p in points]
    elif shape == "spike":
        images = [p / 2 for p in points]
        images[rng.randrange(n // 2, n)] += rng.choice((F(1, 10 ** 12), 1, 10 ** 6))
    else:
        images = [F(0)]
        for g in range(1, n):
            slope = 3 if g <= max(1, n // 5) or g >= n - max(1, n // 5) else 1 + F(g, n)
            images.append(images[-1] + slope * (points[g] - points[g - 1]))
    spans = sorted({points[j] - points[i] for i, j in combinations(range(n), 2)})
    eps = set(rng.sample(spans, min(len(spans), rng.randint(1, 4))))
    return nums, den, points, images, tuple(sorted(eps)), tile


@st.composite
def pruned_inputs(draw):
    """A line scan whose top eps bucket leaves most of its items untiled, and a tile size.

    The last eps value is among the shortest spans, so most items of the top
    bucket split into two of its items and lie past their row's cut.  Shapes:
    composite's gapped tail {4m, 4m + 1}, where an item of span 2 eps or more
    can have no split point; x/2, where every untiled item ties with its
    bucket maximum; x/2 with steps, where the lex-first strict violator can be
    a long item of an early row, past its cut; small random images; and x/2
    with a few images beyond the float range, which turn the screen off.
    """
    n = draw(st.integers(min_value=3, max_value=30))
    shape = draw(st.sampled_from(("gapped", "half", "steps", "random", "huge")))
    tile = draw(st.sampled_from((1, 5, 37, scan.LINE_TILE)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    if shape == "gapped":
        den = rng.choice((2, 4, 8))
        nums = list(range(min(den + 1, n - n // 3)))
        m = 1
        while len(nums) < n:
            nums += [4 * m * den, (4 * m + 1) * den][:n - len(nums)]
            m += 1
    else:
        den = rng.choice((1, 3, 10))
        nums = sorted(rng.sample(range(2 * n), n))
    points = [F(k, den) for k in nums]
    if shape == "gapped":
        images = rng.choice(([composite_action(p) for p in points],
                             [F(rng.randint(-20, 20), 4) for _ in points]))
    elif shape == "random":
        images = [F(rng.randint(0, 24), 8) for _ in points]
    else:
        images = [p / 2 for p in points]
        steps = rng.sample(range(1, n), rng.randint(1, min(2, n - 1))) if shape == "steps" else ()
        for r in steps:
            step = rng.choice((F(1, 2), 1)) * (points[r] - points[0])
            images[r:] = [v + step for v in images[r:]]
        for r in rng.sample(range(n), rng.randint(1, min(3, n))) if shape == "huge" else ():
            images[r] = rng.choice((10 ** 400, -10 ** 400, 10 ** 400 + F(1, 3)))
    spans = sorted({points[j] - points[i] for i, j in combinations(range(n), 2)})
    short = spans[:max(1, len(spans) // 4)]
    eps = set(rng.sample(short, min(len(short), rng.randint(1, 3))))
    return nums, den, points, images, tuple(sorted(eps)), tile


@st.composite
def bound_inputs(draw):
    """A line scan that the step-ratio bound prunes, and a tile size.

    Shapes: x/2 with one steep adjacent step late in the rows, where the
    bound of a row rises only at its last buckets; linear maps, where every
    adjacent ratio equals every item's ratio, so that nothing may be dropped
    and ties stay lex-first; non-monotone small ints, where a triple's best
    middle point matters; images near 10**12 whose distinct values share
    floats; and x/2 with a few images beyond the float range, which turn the
    screen off.  Short first eps values fill many buckets per row.
    """
    n = draw(st.integers(min_value=3, max_value=40))
    shape = draw(st.sampled_from(("late", "linear", "wavy", "near", "huge")))
    tile = draw(st.sampled_from((1, 5, 37, scan.LINE_TILE)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    den = rng.choice((1, 3, 10))
    nums = sorted(rng.sample(range(3 * n), n))
    points = [F(k, den) for k in nums]
    if shape == "late":
        images = [p / 2 for p in points]
        r = rng.randrange(max(1, 3 * n // 4), n)
        jump = rng.choice((1, 2, 1000)) * (points[r] - points[r - 1])
        images[r:] = [v + jump for v in images[r:]]
    elif shape == "linear":
        slope, offset = F(rng.randint(-9, 9), rng.randint(1, 7)), F(rng.randint(-5, 5), 3)
        images = [slope * p + offset for p in points]
    elif shape == "wavy":
        images = [F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in points]
    elif shape == "near":
        images = [10 ** 12 + F(rng.randint(0, 50), 10 ** 7) for _ in points]
    else:
        images = [p / 2 for p in points]
        for r in rng.sample(range(n), rng.randint(1, min(2, n))):
            images[r] = rng.choice((10 ** 400, -10 ** 400, 10 ** 400 + F(1, 3)))
    spans = sorted({points[j] - points[i] for i, j in combinations(range(n), 2)})
    eps = set(rng.sample(spans, min(len(spans), rng.randint(1, 5))))
    eps |= {spans[0], F(rng.randint(1, 16), 16)}
    return nums, den, points, images, tuple(sorted(eps)), tile


@st.composite
def tied_line_inputs(draw):
    """A line scan whose images take one to three values, a tile size and an early-fold bound.

    Most items tie with their bucket's maximum, so the screen keeps them and,
    past the bound, settles them early.  Half the inputs sort the images into
    a step map.
    """
    n = draw(st.integers(min_value=3, max_value=40))
    tile = draw(st.sampled_from((1, 5, 2 ** 15)))
    survivors = draw(st.sampled_from((0, 1, 3)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    den = rng.choice((1, 3, 10))
    nums = sorted(rng.sample(range(3 * n), n))
    points = [F(k, den) for k in nums]
    values = [F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(rng.randint(1, 3))]
    images = [rng.choice(values) for _ in points]
    if rng.random() < 0.5:
        images.sort()
    spans = sorted({points[j] - points[i] for i, j in combinations(range(n), 2)})
    eps = set(rng.sample(spans, min(len(spans), rng.randint(1, 4))))
    return nums, den, points, images, tuple(sorted(eps)), tile, survivors


@st.composite
def tied_table_inputs(draw):
    """A table with tied distances, its mode, a node subset, a self-map, an eps grid, an
    early-fold bound and a triple block size.

    Distances are k/3 with k in 1..3: exact, float, or float scaled by
    1e250, which is not screenable, so every item is a candidate.  Blocks
    of one outer index or a few make the triple scan feed the screen many
    times.
    """
    n = draw(st.integers(min_value=3, max_value=16))
    mode = draw(st.sampled_from(("exact", "float", "scaled")))
    survivors = draw(st.sampled_from((0, 1, 3)))
    block = draw(st.sampled_from((1, 50, scan.TRIPLE_BLOCK)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    table = random_table(rng, n, 3, exact=mode == "exact")
    if mode == "scaled":
        table = [[v * 1e250 for v in row] for row in table]
    pool = rng.sample(range(n), rng.randint(1, 3))
    images = [rng.choice(pool) for _ in range(n)]
    nodes = sorted(rng.sample(range(n), rng.randint(3, n)))
    values = sorted({F(v) for row in table for v in row if v > 0})
    eps = tuple(sorted(set(rng.sample(values, min(len(values), rng.randint(1, 3))))))
    return tuple(tuple(row) for row in table), mode, nodes, images, eps, survivors, block


class TestEarlyFolds:
    @given(tied_line_inputs())
    def test_early_folds_keep_the_line_oracle(self, case):
        nums, den, points, images, eps, tile, survivors = case
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            with mock.patch.object(scan, "LINE_TILE", tile), \
                    mock.patch.object(scan, "SURVIVORS", survivors):
                got = engine(line_basis(nums, den, images, eps))
            assert repr(got) == repr(naive_line_analysis(kind, points, images, eps)), kind

    @given(tied_table_inputs())
    def test_early_folds_keep_the_table_loops(self, case):
        table, mode, nodes, images, eps, survivors, block = case
        exact = mode == "exact"
        lattice = table_lattice(table, exact)
        assert lattice.exact or lattice.screenable == (mode == "float")
        points = tuple(nodes)
        for kind, engine in (("pairwise", scan.table_pair_analysis),
                             ("triple", scan.table_triple_analysis)):
            with mock.patch.object(scan, "SURVIVORS", survivors), \
                    mock.patch.object(scan, "TRIPLE_BLOCK", block), warnings.catch_warnings():
                warnings.simplefilter("error")      # products past the float range stay silent
                got = engine(lattice, nodes, images, eps, points)
            assert repr(got) == repr(table_loops(kind, table, nodes, images, eps, points, exact))

    def test_tied_line_scans_settle_bounded_batches(self, monkeypatch):
        # constant images on the points k/300: all spans are below 1, so no row is cut, and
        # each of the 44 850 pairs and 44 551 triple items ties at 0 with its bucket maximum;
        # the screen settles them in batches of at most SURVIVORS + LINE_TILE items
        sizes, settle_of = {1: [], 2: []}, scan._settle

        def spy(data, rows, hs, buckets, n_buckets):
            sizes[data.gap].append(len(rows))
            return settle_of(data, rows, hs, buckets, n_buckets)

        monkeypatch.setattr(scan, "_settle", spy)
        n = 300
        points = [F(k, n) for k in range(n)]
        for kind, engine, gap, items in (("pairwise", scan.line_pair_analysis, 1, 44_850),
                                         ("triple", scan.line_triple_analysis, 2, 44_551)):
            got = engine(line_basis(list(range(n)), n, [0] * n, DEFAULT_EPS_GRID))
            assert sum(sizes[gap]) == items, kind
            assert max(sizes[gap]) <= scan.SURVIVORS + scan.LINE_TILE, kind
            first = (points[0], points[1]) if gap == 1 else (points[0], points[1], points[2])
            assert got.sup_ratio == 0 and got.sup_witness[0] == first, kind
            for e, delta, witness in zip(DEFAULT_EPS_GRID, got.deltas, got.delta_witnesses):
                if e >= 1:
                    assert delta is None and witness is None, kind
                    continue
                last = next(p for p in points[gap:] if p >= e)
                assert delta == 0 and witness[0] == first[:-1] + (last,), kind
            assert got.strict_violation is None, kind


def beyond_float(case):
    """A line scan's inputs with one or two images moved beyond the float range."""
    nums, den, points, images, eps = case
    rng = random.Random(len(nums) * 31 + den)
    images = list(images)
    for r in rng.sample(range(len(images)), rng.randint(1, 2)):
        images[r] = rng.choice((10 ** 400, -10 ** 400, 10 ** 400 + F(1, 3)))
    return nums, den, points, images, eps


@st.composite
def gate_inputs(draw):
    """A line scan whose ratio supremum is exactly 1, just below 1 or above 1, and which level.

    The images run at slope s, rising (x + c) or falling (c - x), over a run
    of at least three points, and stay at the run's end images outside it,
    so every pair's and triple's ratio is at most s and the run's items
    reach s: s is 1, 1 less 10**-12 or 10**-3, or 1 plus one of those.  With
    wide, c has a numerator near 2**40 over a denominator of 2**32 or more,
    which puts the images on object arrays; otherwise it is k/8 (a slope off
    1 by 10**-12 can put them there too).
    """
    level = draw(st.sampled_from(("exact", "below", "above")))
    wide = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    n = rng.randint(3, 12)
    den = rng.choice((1, 3, 10))
    nums = sorted(rng.sample(range(3 * n), n))
    points = [F(k, den) for k in nums]
    a = rng.randrange(n - 2)
    b = rng.randrange(a + 2, n)
    tiny = F(1, 10 ** rng.choice((3, 12)))
    slope = {"exact": 1, "below": 1 - tiny, "above": 1 + tiny}[level] * rng.choice((1, -1))
    c = F(rng.randint(-2 ** 40, 2 ** 40), rng.randint(2 ** 32, 2 ** 33)) if wide \
        else F(rng.randint(-16, 16), 8)
    images = [c + slope * points[min(max(t, a), b)] for t in range(n)]
    spans = sorted({points[k] - points[i] for i, k in combinations(range(n), 2)})
    eps = tuple(sorted(rng.sample(spans, min(len(spans), rng.randint(1, 3)))))
    return nums, den, points, images, eps, level, wide


class TestStrictGate:
    # a strict violation is an item of ratio >= 1, so the line scans search one only when
    # their exact supremum reaches 1

    @staticmethod
    def spied(monkeypatch):
        """The gaps of the views whose strict() is called, in call order."""
        calls = []
        for view in (scan._LinePairs, scan._LineTriples):
            def spy(self, real=view.strict):
                calls.append(self.gap)
                return real(self)
            monkeypatch.setattr(view, "strict", spy)
        return calls

    @pytest.mark.parametrize("entry, searched", [
        (catalog("burton_logistic", grid_step=F(1, 64)), []),
        (catalog("composite", grid_step=F(1, 16), index_max=12), []),
        (catalog("floor_half", integer_max=70), [1])],
        ids=["burton_logistic", "composite", "floor_half"])
    def test_the_strict_search_runs_only_where_the_supremum_reaches_one(self, monkeypatch,
                                                                      entry, searched):
        # burton_logistic and composite stay below 1 in both scans; floor_half's pairs (1, 2)
        # reach 1, and its triples stay at 3/4 or less
        calls = self.spied(monkeypatch)
        report = full_report(entry.space, entry.map)
        assert calls == searched
        assert report.pairwise_strict.passed == (1 not in searched)
        assert report.triple_strict.passed

    def test_a_supremum_of_one_without_a_strict_violation_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(scan._LinePairs, "strict", lambda self: None)
        basis = line_basis(list(range(9)), 1, [k // 2 for k in range(9)], (F(1),))
        with pytest.raises(metric_core.InternalConsistencyError,
                           match=r"pairwise ratio supremum 1 reaches 1"):
            scan.line_pair_analysis(basis)
        assert scan.line_triple_analysis(basis).strict_violation is None

    @given(gate_inputs())
    def test_the_gate_matches_the_fraction_oracle_at_its_boundary(self, case):
        nums, den, points, images, eps, level, wide = case
        basis = line_basis(nums, den, images, eps)
        assert basis.inum.dtype == object or not wide
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            with pytest.MonkeyPatch.context() as monkeypatch:
                calls = self.spied(monkeypatch)
                got = engine(basis)
            want = naive_line_analysis(kind, points, images, eps)
            assert repr(got) == repr(want), kind
            reach = {"exact": want.sup_ratio == 1, "below": want.sup_ratio < 1,
                     "above": want.sup_ratio > 1}
            assert reach[level], kind
            assert len(calls) == (want.sup_ratio >= 1), kind
            assert (want.strict_violation is None) == (want.sup_ratio < 1), kind


class TestOnePassSettle:
    # the one-pass settle against the per-item fold, every item a candidate, in the shapes that
    # reach its branches: tie-heavy buckets that fold, one candidate per bucket, and wide ints

    @pytest.mark.parametrize("shape", ["constant", "floor_half", "lone", "wide"])
    def test_the_one_pass_settle_matches_the_per_item_fold(self, monkeypatch, shape):
        rng = random.Random(28)
        n, den = 40, rng.choice((1, 3))
        nums = sorted(rng.sample(range(3 * n), n))
        images = {"constant": [F(7, 3)] * n,
                  "floor_half": [k // 2 for k in range(n)],
                  "lone": [F(k * k, 7) for k in range(n)],
                  "wide": [F(rng.randint(-2 ** 40, 2 ** 40), rng.randint(2 ** 32, 2 ** 33))
                           for _ in range(n)]}[shape]
        if shape == "floor_half":
            nums, den = list(range(n)), 1
        spans = sorted({nums[k] - nums[i] for i, k in combinations(range(n), 2)})
        eps = tuple(F(spans[len(spans) * q // 4], den) for q in (1, 2, 3))
        folds = []

        def fold(num, den, cands, witness, cur, real=scan._fold):
            folds.append(len(cands))
            return real(num, den, cands, witness, cur)

        monkeypatch.setattr(scan, "_fold", fold)
        for kind in ("pairwise", "triple"):
            data = scan._LINE_KINDS[kind](line_basis(nums, den, images, eps))
            assert (data.basis.inum.dtype == object) == (shape == "wide")
            rows, hs = all_items(data)
            buckets = (hs[:, None] >= data.before[rows, 1:-1]).sum(axis=1)
            if shape == "lone":         # one item of each bucket
                pick = [rng.choice(np.flatnonzero(buckets == b).tolist())
                        for b in np.unique(buckets).tolist()]
                rows, hs, buckets = rows[pick], hs[pick], buckets[pick]
            columns = rows, hs, buckets, len(data.counts)
            folds.clear()
            got, want = scan._settle(data, *columns), candidate_fold(data, *columns)
            assert [None if e is None else (F(e[0], e[1]), e[2]) for e in got] == \
                [None if e is None else (F(e[0], e[1]), e[2]) for e in want], (shape, kind)
            assert all(type(v) is int for e in got if e is not None for v in e[:2])
            if shape in ("constant", "floor_half"):     # tied buckets fold their ties
                assert max(folds) > 1, kind
            else:
                assert all(size > 1 for size in folds), kind
            if shape == "lone":
                assert not folds, kind


class TestLineBasis:
    @given(st.one_of(line_scans(), line_scans().map(beyond_float),
                     pruned_inputs().map(lambda case: case[:5]),
                     bound_inputs().map(lambda case: case[:5])),
           st.booleans())
    def test_both_scans_of_one_basis_match_the_oracle_in_either_order(self, case, pairs_first):
        # the views share the basis' lazily built tables: whichever scan builds them, both
        # scans equal the Fraction oracle
        nums, den, points, images, eps = case
        basis = line_basis(nums, den, images, eps)
        kinds = (("pairwise", scan.line_pair_analysis), ("triple", scan.line_triple_analysis))
        for kind, engine in kinds if pairs_first else kinds[::-1]:
            assert repr(engine(basis)) == repr(naive_line_analysis(kind, points, images, eps)), \
                kind

    @pytest.mark.parametrize("entry", [
        catalog("burton_logistic", grid_step=F(1, 300)),
        catalog("floor_half", integer_max=300),
        catalog("composite", grid_step=F(1, 16), index_max=40)], ids=lambda e: e.id)
    def test_a_sampled_report_builds_one_basis_for_both_scans(self, monkeypatch, entry):
        # one basis per report, read by one call of each entry point; its range tables (steps,
        # highs, lows) and the triple scan's two first-index tables are built once each
        built, scanned, tables = [], [], [0]
        basis_of, table_of = scan.LineBasis, scan._extrema_table

        class Basis(basis_of):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def spy(name, engine):
            def scan_spy(basis):
                scanned.append((name, basis))
                return engine(basis)
            return scan_spy

        def table_spy(*args):
            tables[0] += 1
            return table_of(*args)

        want = full_report(entry.space, entry.map).to_json()
        monkeypatch.setattr(scan, "LineBasis", Basis)
        monkeypatch.setattr(scan, "_extrema_table", table_spy)
        for name in ("line_pair_analysis", "line_triple_analysis"):
            monkeypatch.setattr(scan, name, spy(name, getattr(scan, name)))
        assert full_report(entry.space, entry.map).to_json() == want
        assert len(built) == 1
        assert scanned == [("line_pair_analysis", built[0]), ("line_triple_analysis", built[0])]
        assert tables[0] == 5

    def test_tie_heavy_triple_settles_build_the_exact_tables_once(self, monkeypatch):
        # constant images on the points k/300: every one of the 44 551 triple items ties at 0,
        # so with SURVIVORS 1 and tiles of 256 items the screen settles them in many batches;
        # the exact image ranks are found once per triple scan, and the extremum tables as
        # often whatever the number of settles
        calls = {"_ranks": 0, "_extrema_table": 0, "_settle": 0}
        for name in calls:
            def counted(*args, real=getattr(scan, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(scan, name, counted)
        n = 300
        counts = {}
        for survivors, tile in ((1, 256), (scan.SURVIVORS, scan.LINE_TILE)):
            for name in calls:
                calls[name] = 0
            with mock.patch.object(scan, "SURVIVORS", survivors), \
                    mock.patch.object(scan, "LINE_TILE", tile):
                got = scan.line_triple_analysis(line_basis(list(range(n)), n, [0] * n,
                                                           DEFAULT_EPS_GRID))
            assert got.sup_ratio == 0 and got.total == math.comb(n, 3)
            counts[survivors] = dict(calls)
        assert counts[1]["_settle"] > 10 * counts[scan.SURVIVORS]["_settle"]
        assert counts[1]["_ranks"] == counts[scan.SURVIVORS]["_ranks"] == 1
        assert counts[1]["_extrema_table"] == counts[scan.SURVIVORS]["_extrema_table"] == 5


class TestLinePreconditions:
    ENGINES = (scan.line_pair_analysis, scan.line_triple_analysis)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unsorted_numerators_are_refused(self, engine):
        with pytest.raises(InputError, match="strictly ascending: 2 at index 1"):
            engine(line_basis([0, 2, 1], 1, [0, 0, 0], (F(1),)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_duplicate_numerators_are_refused(self, engine):
        with pytest.raises(InputError, match="strictly ascending: 1 at index 1"):
            engine(line_basis([0, 1, 1], 1, [0, 1, 2], (F(1),)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_zero_image_denominator_is_refused(self, engine):
        with pytest.raises(InputError, match="image denominators must be positive: 0 at index 2"):
            engine(line_basis([0, 1, 2], 1, ([0, 1, 1], [1, 1, 0]), (F(1),)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_zero_point_denominator_is_refused(self, engine):
        with pytest.raises(InputError, match="denominator must be positive, not 0"):
            engine(line_basis([0, 1, 2], 0, [0, 1, 2], (F(1),)))


class TestLineTiles:
    @given(tile_inputs(max_n=200))
    def test_tiles_equal_the_row_oracle_bit_for_bit(self, case):
        nums, den, points, images, eps, tile = case
        rng = random.Random(len(nums))
        for kind in ("pairwise", "triple"):
            with mock.patch.object(scan, "LINE_TILE", tile):
                data = scan._LINE_KINDS[kind](line_basis(nums, den, images, eps))
                rows = np.arange(data.basis.n - data.gap)
                full = np.full(len(rows), data.basis.n)
                row_max = {"full": tiled_row_maxima(data, full),
                           "cut": tiled_row_maxima(data, data.cut)}
                # items() also takes any cells, rows in any order, with any live positions
                for stop in (full, data.cut):
                    bucket, subset, start, end = random_cells(data, stop, rng)
                    got = data.items(bucket, subset, start, end)
                    width = end - start
                    assert got.bucket.tolist() == np.repeat(bucket, width).tolist()
                    assert got.rows.tolist() == np.repeat(subset, width).tolist()
                    at = 0
                    for i, a, b in zip(subset.tolist(), start.tolist(), end.tolist()):
                        assert got.lasts[at:at + b - a].tolist() == list(range(i + data.gap + a,
                                                                              i + data.gap + b))
                        assert (got.ratio[at:at + b - a].tobytes()
                                == row_oracle(data, i)[a:b].tobytes()), (kind, i)
                        at += b - a
            for stop, cut in (("full", None), ("cut", data.cut)):
                want_max, want_counts = float_pass_oracle(data, eps, cut)
                assert row_max[stop].tobytes() == want_max.tobytes(), (kind, stop)
            assert data.counts == want_counts, kind

    @given(tile_inputs(max_n=30))
    def test_tiled_scans_match_fraction_oracle(self, case):
        nums, den, points, images, eps, tile = case
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            with mock.patch.object(scan, "LINE_TILE", tile):
                got = engine(line_basis(nums, den, images, eps))
            want = naive_line_analysis(kind, points, images, eps)
            assert repr(got) == repr(want), kind

    @pytest.mark.parametrize("tile", (1, 5, 37))
    def test_small_tiles_keep_the_catalog_reports(self, monkeypatch, tile):
        entries = [catalog("floor_half", integer_max=70),
                   catalog("composite", grid_step=F(1, 16), index_max=12)]
        want = [full_report(e.space, e.map).to_json() for e in entries]
        monkeypatch.setattr(scan, "LINE_TILE", tile)
        assert [full_report(e.space, e.map).to_json() for e in entries] == want

    @pytest.mark.parametrize("tile", (1, 5, 37, scan.LINE_TILE))
    def test_every_row_is_tiled_once_per_scan(self, monkeypatch, tile):
        # one pass per scan tiles each item at most once, below its row's cut: first each
        # nonempty bucket's first cell whole, then the other cells bucket by bucket; it leaves
        # out only items whose float ratio, and whose row's step-ratio bound or the lesser of
        # that and their block's range bound, lie below their final floors; the strict check
        # tiles nothing, and finds the lex-first violator of the Fraction rows
        monkeypatch.setattr(scan, "LINE_TILE", tile)
        tiled, tiles_of = {}, scan._line_tiles

        def spy(data, stop, floors):
            assert data not in tiled and stop is data.cut      # one pass, below the cuts
            tiled[data] = []
            for t in tiles_of(data, stop, floors):
                tiled[data].append(t)
                yield t

        monkeypatch.setattr(scan, "_line_tiles", spy)
        violators, dropped = [], 0
        for entry in (catalog("floor_half", integer_max=70),
                      catalog("composite", grid_step=F(1, 16), index_max=12),
                      catalog("burton_logistic", grid_step=F(1, 300))):
            tiled.clear()
            full_report(entry.space, entry.map)
            assert sorted(data.gap for data in tiled) == [1, 2]     # one scan of each kind
            for data, tiles in tiled.items():
                items = [(b, i, k) for t in tiles for b, i, k in zip(
                    t.bucket.tolist(), t.rows.tolist(), t.lasts.tolist())]
                assert len(set(items)) == len(items)
                assert all(k < data.cut[i] for _, i, k in items)
                # the cells below the cuts: (bucket, row) -> its last indices
                cells = {(b, i): range(i + data.gap + lo, i + data.gap + hi)
                         for (b, i), (lo, hi) in cells_below(data, data.cut).items()}
                firsts = {b: min(i for c, i in cells if c == b) for b in data.filled.tolist()}
                assert {(b, i, k) for b, i, k in items[:len(tiles[0].rows)]} == {
                    (b, i, k) for b, i in firsts.items() for k in cells[b, i]}
                rest = [(b, i) for b, i, _ in items[len(tiles[0].rows):]]
                assert rest == sorted(rest)
                # the final floors: of the float maxima below the cuts
                floors = data.screen_floors(
                    float_pass_oracle(data, DEFAULT_EPS_GRID, data.cut)[0].max(axis=0))
                seen = {(i, k) for _, i, k in items}
                for (b, i), lasts in cells.items():
                    out = np.array([(i, k) not in seen for k in lasts])
                    if not out.any():
                        continue
                    lo = lasts[0] - i - data.gap
                    ratios = row_oracle(data, i)[lo:lo + len(lasts)]
                    assert (ratios[out] < floors[b]).all(), (b, i)
                    bound = left_out_bounds(data, data.cut, i, lo, lo + len(lasts))
                    assert (bound[out] < max(floors[b], 0)).all(), (b, i)
                    dropped += int(out.sum())
                violators.append(data.strict())
                if data.basis.n <= 100:
                    assert violators[-1] == fraction_strict(data)
        assert any(violators)                           # some scan has a strict violator
        assert dropped                                  # and some items are left out

    @pytest.mark.parametrize("tile", (1, 37, scan.LINE_TILE))
    def test_tiles_read_only_blocks_whose_bound_reaches_the_floors(self, monkeypatch, tile):
        # after the first tile, each item read lies in a block whose bound (left_out_bounds)
        # reaches max(floor, 0) at the floors in force when its tile is read: no item of a
        # dropped block is read, not even one between two kept blocks of its cell
        monkeypatch.setattr(scan, "LINE_TILE", tile)
        reads, tiles_of = {}, scan._line_tiles

        def spy(data, stop, floors):
            reads[data] = []
            for t in tiles_of(data, stop, floors):
                reads[data].append((t, floors().copy()))
                yield t

        monkeypatch.setattr(scan, "_line_tiles", spy)
        read = {}
        for entry in (catalog("floor_half", integer_max=70),
                      catalog("composite", grid_step=F(1, 16), index_max=12),
                      catalog("burton_logistic", grid_step=F(1, 300))):
            reads.clear()
            full_report(entry.space, entry.map)
            for data, tiles in reads.items():
                cells = cells_below(data, data.cut)
                for t, floors in tiles[1:]:
                    for b, i, k in zip(t.bucket.tolist(), t.rows.tolist(), t.lasts.tolist()):
                        lo, hi = cells[b, i]
                        bound = left_out_bounds(data, data.cut, i, lo, hi)[k - i - data.gap - lo]
                        assert bound >= max(floors[b], 0), (entry.id, data.gap, b, i, k)
                read[entry.id, data.gap] = sum(len(t.ratio) for t, _ in tiles)
        # reading each cell from its first kept block to its last would read 831 and 830 here
        assert read["burton_logistic", 1] == 813 and read["burton_logistic", 2] == 812

    def test_screen_floors_take_off_the_derived_error(self, monkeypatch):
        # the runner-up (0, 3) of the top bucket lies 1e-12 (relative) below its maximum (0, 2),
        # both in the first cell read: far outside the floor's 2**-48 relative and 8u*M*den/s
        # absolute room (M = 3/2, den = 1, s = 2), so only the maximum is settled exactly
        settled, settle_of = {}, scan._settle

        def spy(data, rows, hs, buckets, n_buckets):
            top = buckets == n_buckets - 1
            settled[data.gap] = list(zip(rows[top].tolist(), (rows + data.gap + hs)[top].tolist()))
            return settle_of(data, rows, hs, buckets, n_buckets)

        monkeypatch.setattr(scan, "_settle", spy)
        nums, eps = [0, 1, 2, 3, 4], (F(2),)
        points = [F(k) for k in nums]
        images = [F(0), F(1), F(1), F(3, 2) * (1 - F(1, 10 ** 12)), F(1)]
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            got = engine(line_basis(nums, 1, images, eps))
            assert repr(got) == repr(naive_line_analysis(kind, points, images, eps)), kind
        assert settled == {1: [(0, 2)], 2: [(0, 2)]}

    @pytest.mark.parametrize("tile", (1, 37, scan.LINE_TILE))
    def test_exact_evaluations_are_the_items_at_or_above_the_final_floors(self, monkeypatch,
                                                                          tile):
        # floor_half is tie-heavy: thousands of candidates; a running floor
        # may keep more items than the final one, but none is evaluated early
        monkeypatch.setattr(scan, "LINE_TILE", tile)
        entry = catalog("floor_half", integer_max=300)
        points = sorted(entry.space.point_set())
        images = [apply(entry.map, p) for p in points]
        nums = [int(p) for p in points]
        evaluated = [0]

        def spy_exact(real):
            def exact(data, rows, hs):
                evaluated[0] += len(rows)
                return real(data, rows, hs)
            return exact

        for kind in (scan._LinePairs, scan._LineTriples):
            monkeypatch.setattr(kind, "exact", spy_exact(kind.exact))
        for kind in ("pairwise", "triple"):
            # the items below each row's cut, with floors of their float maxima
            data = scan._LINE_KINDS[kind](line_basis(nums, 1, images, DEFAULT_EPS_GRID))
            cut = data.cut
            floors = data.screen_floors(
                float_pass_oracle(data, DEFAULT_EPS_GRID, cut)[0].max(axis=0))
            want = sum(int((row_oracle(data, i)[:cut[i] - i - data.gap]
                            >= np.repeat(floors, np.diff(data.before[i]))[:cut[i] - i - data.gap])
                           .sum())
                       for i in range(data.basis.n - data.gap))
            evaluated[0] = 0
            scan._line_analysis(kind, line_basis(nums, 1, images, DEFAULT_EPS_GRID))
            assert evaluated[0] == want > 250, kind

    @given(rising_inputs())
    def test_running_floors_keep_the_fraction_oracle(self, case):
        nums, den, points, images, eps, tile = case
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            with mock.patch.object(scan, "LINE_TILE", tile):
                got = engine(line_basis(nums, den, images, eps))
            want = naive_line_analysis(kind, points, images, eps)
            assert repr(got) == repr(want), kind

    @given(st.one_of(pruned_inputs(), tile_inputs(max_n=30)))
    def test_cut_matches_the_split_loop(self, case):
        nums, den, points, images, eps, _ = case
        threshold = scan._ceil_thresholds(eps, den, math.inf, object)[-1]
        for kind in ("pairwise", "triple"):
            data = scan._LINE_KINDS[kind](line_basis(nums, den, images, eps))
            assert data.cut.tolist() == brute_cut(data, threshold), kind

    @given(pruned_inputs())
    def test_pruned_scans_match_fraction_oracle(self, case):
        nums, den, points, images, eps, tile = case
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            with mock.patch.object(scan, "LINE_TILE", tile):
                got = engine(line_basis(nums, den, images, eps))
            want = naive_line_analysis(kind, points, images, eps)
            assert repr(got) == repr(want), kind

    @given(bound_inputs())
    def test_step_bounds_keep_the_fraction_oracle(self, case):
        nums, den, points, images, eps, tile = case
        for kind, engine in (("pairwise", scan.line_pair_analysis),
                             ("triple", scan.line_triple_analysis)):
            with mock.patch.object(scan, "LINE_TILE", tile), warnings.catch_warnings():
                warnings.simplefilter("error")
                got = engine(line_basis(nums, den, images, eps))
            want = naive_line_analysis(kind, points, images, eps)
            assert repr(got) == repr(want), kind

    @given(st.one_of(line_scans(), pruned_inputs(), bound_inputs(), family_inputs()))
    def test_strict_checks_match_the_fraction_oracle(self, case):
        # the lex-first strict violator from suffix extrema, against direct enumeration
        nums, den, points, images, eps = case[:5]
        for kind in ("pairwise", "triple"):
            data = scan._LINE_KINDS[kind](line_basis(nums, den, images, eps))
            want = naive_line_analysis(kind, points, images, eps).strict_violation
            got = data.strict()
            assert (None if got is None else data.sides(got)[::-1]) == \
                (None if want is None else want[1:][::-1]), kind
            assert (None if got is None else tuple(points[w] for w in got)) == \
                (None if want is None else want[0]), kind

    @given(st.one_of(bound_inputs(), tile_inputs(max_n=30)))
    def test_bounds_lie_above_every_item_of_their_bucket(self, case):
        # each cell (row, bucket) below the row's stop: its step-ratio bound, and the range
        # bound of each of its blocks, lie above each item's float ratio and its exact ratio;
        # +inf when the screen is off.  The blocks tile the cell in order, and where the cell
        # has positions for every octave step, a block's last span is below 2**(1/8) times its
        # first
        nums, den, points, images, eps, _ = case
        for kind in ("pairwise", "triple"):
            data = scan._LINE_KINDS[kind](line_basis(nums, den, images, eps))
            rows = data.basis.n - data.gap
            for stop in (data.cut, np.full(rows, data.basis.n)):
                cells = [(i, b, int(data.before[i, b]),
                          min(int(data.before[i, b + 1]), int(stop[i]) - i - data.gap))
                         for i in range(rows) for b in data.filled.tolist()]
                row, bucket, lo, hi = map(np.array, zip(*[c for c in cells if c[3] > c[2]]))
                steep = data.step_bounds(row, hi)
                counts = data.edge_counts(row, lo, hi)
                cell, start, end = data.blocks(row, lo, hi, counts)
                ranged = data.range_bounds(row[cell], start, end, data.absolute[bucket[cell]])
                assert (np.diff(cell) >= 0).all()
                for c in range(len(row)):
                    mine = np.flatnonzero(cell == c)
                    assert start[mine[0]] == lo[c] and end[mine[-1]] == hi[c]
                    assert (start[mine[1:]] == end[mine[:-1]]).all()
                if not data.basis.finite:
                    assert (steep == np.inf).all() and (ranged == np.inf).all()
                    continue
                for t, c in enumerate(cell.tolist()):
                    i, a, z = int(row[c]), int(start[t]), int(end[t])
                    ratios = row_oracle(data, i)[a:z]
                    assert (ratios <= ranged[t]).all() and (ratios <= steep[c]).all(), (kind, i)
                    lasts = range(i + data.gap + a, i + data.gap + z)
                    for k in lasts:
                        spread = (abs(images[k] - images[i]) if data.gap == 1 else
                                  max(images[i:k + 1]) - min(images[i:k + 1]))
                        ratio = spread / (points[k] - points[i])
                        assert ratio <= F(ranged[t]) and ratio <= F(steep[c]), (kind, i, k)
                    if counts[c] < hi[c] - lo[c] - 1:
                        first, last = (points[k] - points[i] for k in (lasts[0], lasts[-1]))
                        assert last < first * 2 ** (1 / scan.SPAN_BLOCKS) * (1 + 1e-12)

    def test_floor_half_report_tiles_few_live_items(self, monkeypatch):
        # the live items of each tile
        tiled, items, tiles_of = [0], {}, scan._line_tiles

        def spy(data, stop, floors):
            items[data] = int(data.before[:, -1].sum())     # row positions
            for t in tiles_of(data, stop, floors):
                tiled[0] += len(t.ratio)
                yield t

        monkeypatch.setattr(scan, "_line_tiles", spy)
        entry = catalog("floor_half", integer_max=4096)
        report = full_report(entry.space, entry.map)
        assert sum(items.values()) == 4097 * 4096 // 2 + 4096 * 4095 // 2 == 4096 ** 2
        assert tiled[0] <= 0.015 * 4096 ** 2
        assert report.tpc_alpha == F(2, 3)

    @pytest.mark.parametrize("cid, params, most", [
        ("floor_half", {"integer_max": 4097}, None),
        # bounds: fractions of the entries the tiles held when every row was tiled from its
        # first position, 2 145 789 and 2 143 151, and 569 911 and 568 951
        ("burton_logistic", {"grid_step": F(1, 2049)}, {1: 0.4 * 2145789, 2: 0.4 * 2143151}),
        ("composite", {"grid_step": F(1, 1025)}, {1: 0.35 * 569911, 2: 0.35 * 568951})])
    def test_tiles_fill_little_beyond_their_live_items(self, monkeypatch, cid, params, most):
        # per scan, the entries of its tiles: exactly its live items, the positions of the
        # cells it was given, and within the bounds on the full-width maps
        filled, live, items_of = {}, {}, scan._LineData.items

        def spy(data, bucket, rows, start, end):
            tile = items_of(data, bucket, rows, start, end)
            filled[data.gap] = filled.get(data.gap, 0) + tile.ratio.size
            live[data.gap] = live.get(data.gap, 0) + int((end - start).sum())
            return tile

        monkeypatch.setattr(scan._LineData, "items", spy)
        entry = catalog(cid, **params)
        full_report(entry.space, entry.map)
        assert sorted(filled) == [1, 2]
        for gap, entries in filled.items():
            assert entries == live[gap] and (most is None or entries <= most[gap]), gap

    @pytest.mark.parametrize("cid, params, most", [
        # fractions of the live positions the row-major tiles held: 533 170 and 533 155, and
        # 138 379 and 138 250
        ("burton_logistic", {"grid_step": F(1, 2049)}, {1: 0.15 * 533170, 2: 0.15 * 533155}),
        ("composite", {"grid_step": F(1, 1025)}, {1: 0.25 * 138379, 2: 0.25 * 138250})])
    def test_bucket_tiles_read_few_live_items(self, monkeypatch, cid, params, most):
        tiled, tiles_of = {}, scan._line_tiles

        def spy(data, stop, floors):
            for t in tiles_of(data, stop, floors):
                tiled[data.gap] = tiled.get(data.gap, 0) + len(t.ratio)
                yield t

        monkeypatch.setattr(scan, "_line_tiles", spy)
        entry = catalog(cid, **params)
        full_report(entry.space, entry.map)
        for gap, count in tiled.items():
            assert count <= most[gap], gap

    def test_composite_floors_rise_in_few_tiles(self, monkeypatch):
        # the running bucket maxima of the composite 1/1026 pair scan rose in 21 of 21
        # row-major tiles; now the first tile, each bucket's first cell, sets them, and the
        # other cells fill one more tile, which raises some
        rises, tiles_of, floors_of = [], scan._line_tiles, scan._LineData.screen_floors

        def spy(data, stop, floors):
            for t in tiles_of(data, stop, floors):
                if data.gap == 1:
                    rises.append(0)
                yield t

        def screen_floors(data, best):
            if data.gap == 1 and rises:
                rises[-1] += 1
            return floors_of(data, best)

        monkeypatch.setattr(scan, "_line_tiles", spy)
        monkeypatch.setattr(scan._LineData, "screen_floors", screen_floors)
        entry = catalog("composite", grid_step=F(1, 1026))
        full_report(entry.space, entry.map)
        assert rises == [1, 1], rises

    @pytest.mark.parametrize("tile", (1, 5, 37))
    def test_images_beyond_the_float_range_match_the_oracle(self, monkeypatch, tile):
        # their floats are +-inf: the screen is off, every item is a candidate
        # and a strict suspect, and a pair of equal-signed ones reads inf - inf
        monkeypatch.setattr(scan, "LINE_TILE", tile)
        rng = random.Random(400)
        huge = (10 ** 400, -10 ** 400, 10 ** 400 + F(1, 3), -10 ** 400 - 7)
        cases = [([0, 1, 2], 1, [0, 10 ** 400, 1])]
        for _ in range(40):
            n = rng.randint(3, 12)
            nums = sorted(rng.sample(range(4 * n), n))
            images = [F(rng.randint(-20, 20), 4) for _ in nums]
            for r in rng.sample(range(n), rng.randint(1, min(3, n))):
                images[r] = rng.choice(huge)
            cases.append((nums, rng.choice((1, 3)), images))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nums, den, images in cases:
                points = [F(k, den) for k in nums]
                eps = (F(nums[1] - nums[0], den), F(nums[-1] - nums[0], den))
                for kind, engine in (("pairwise", scan.line_pair_analysis),
                                     ("triple", scan.line_triple_analysis)):
                    got = engine(line_basis(nums, den, images, eps))
                    want = naive_line_analysis(kind, points, images, eps)
                    assert repr(got) == repr(want), (kind, nums, den, images)


class TestWitnesses:
    def test_two_cycle_alpha_exact(self):
        entry = catalog("period2_counterexample")
        alpha, wit, verdict = estimate_tpc_alpha(entry.space, entry.map)
        assert alpha == F(1, 2)
        assert (wit["x"], wit["y"], wit["z"]) == (0, 1, 2)
        assert wit["perimeter"] == 4 and wit["image_perimeter"] == 2
        assert verdict.passed and verdict.conclusive

    def test_halving_pairwise_witness(self):
        entry = catalog("floor_half")
        verdict = check_pairwise_strict(entry.space, entry.map)
        assert not verdict.passed and verdict.conclusive
        w = verdict.witness
        assert (w["x"], w["y"]) == (1, 2)
        assert w["distance"] == 1 and w["image_distance"] == 1

    def test_every_delta_is_attained_at_its_witness(self):
        entry = catalog("composite", grid_step=F(1, 16), index_max=8)
        for table, _ in (estimate_large_tpc_modulus(entry.space, entry.map),
                         estimate_large_contraction_modulus(entry.space, entry.map)):
            for e in table.entries:
                if e.vacuous:
                    continue
                w = e.witness
                if "z" in w:
                    assert w["image_perimeter"] == e.delta * w["perimeter"]
                else:
                    assert w["image_distance"] == e.delta * w["distance"]

    def test_identity_map_fails_with_first_pair(self):
        entry = catalog("period2_counterexample")
        identity = SelfMap(space=entry.space, name="id", table=(0, 1, 2))
        verdict = check_pairwise_strict(entry.space, identity)
        assert not verdict.passed
        assert (verdict.witness["x"], verdict.witness["y"]) == (0, 1)


class TestModulusTables:
    def test_two_cycle_constant_half_table(self):
        entry = catalog("period2_counterexample")
        table, verdict = estimate_large_tpc_modulus(entry.space, entry.map)
        assert verdict.passed
        for e in table.entries:
            if e.eps <= 2:
                assert e.delta == F(1, 2)
            else:
                assert e.vacuous

    def test_logistic_deltas_match_closed_form(self):
        entry = catalog("burton_logistic")  # step 1/512
        table, verdict = estimate_large_contraction_modulus(entry.space, entry.map)
        assert verdict.passed
        for e in table.entries:
            if e.eps <= F(1, 2):
                assert e.delta == 1 / (1 + e.eps)
            if e.eps >= 1:
                assert e.vacuous  # diameter is 511/512

    def test_logistic_triple_deltas(self):
        entry = catalog("burton_logistic")  # step 1/512
        table, verdict = estimate_large_tpc_modulus(entry.space, entry.map)
        assert verdict.passed
        quarter = [e for e in table.entries if e.eps == F(1, 4)][0]
        assert quarter.delta == F(4, 5)
        for e in table.entries:
            assert e.vacuous or e.delta < 1

    def test_deltas_non_increasing_in_eps(self):
        for space, mapping in random_finite_instances(12, seed=31):
            for table, _ in (estimate_large_tpc_modulus(space, mapping),
                             estimate_large_contraction_modulus(space, mapping)):
                values = [e.delta for e in table.entries if not e.vacuous]
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_constant_map_all_zero(self):
        entry = catalog("period2_counterexample")
        const = SelfMap(space=entry.space, name="const", table=(1, 1, 1))
        table, verdict = estimate_large_contraction_modulus(entry.space, const)
        assert verdict.passed
        assert all(e.delta == 0 for e in table.entries if not e.vacuous)

    def test_vacuous_lookup_error(self):
        entry = catalog("period2_counterexample")
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map, eps_grid=(F(4),))
        with pytest.raises(InputError):
            table.lookup_at_or_below(F(4))

    def test_empty_eps_grid_rejected(self):
        entry = catalog("period2_counterexample")
        with pytest.raises(InputError):
            estimate_large_tpc_modulus(entry.space, entry.map, eps_grid=())

    def test_too_few_points_rejected(self):
        entry = catalog("period2_counterexample")
        with pytest.raises(InputError):
            estimate_tpc_alpha(entry.space, entry.map, point_set=(0, 1))
        with pytest.raises(InputError):
            check_pairwise_strict(entry.space, entry.map, point_set=(0,))


class TestScalingInvariance:
    def test_verdicts_and_moduli_scale(self):
        for space, mapping in random_finite_instances(8, seed=77):
            factor = F(3)
            scaled = FiniteMetricSpace(
                points=space.points,
                dist_table=tuple(tuple(factor * v for v in row)
                                 for row in space.dist_table),
            )
            scaled_map = SelfMap(space=scaled, name=mapping.name, table=mapping.table)
            eps = (F(1, 4), F(1), F(2))
            scaled_eps = tuple(factor * e for e in eps)
            base_t, base_v = estimate_large_tpc_modulus(space, mapping, eps_grid=eps)
            new_t, new_v = estimate_large_tpc_modulus(scaled, scaled_map,
                                                      eps_grid=scaled_eps)
            assert base_v.passed == new_v.passed
            for a, b in zip(base_t.entries, new_t.entries):
                assert a.delta == b.delta and a.count == b.count


class TestFullReport:
    @pytest.mark.parametrize("kind", ("pairwise", "triple"))
    def test_a_modulus_of_one_under_exact_strictness_is_inconsistent(self, kind):
        # on a fully enumerated space, strict decrease puts every grid modulus below 1;
        # a scan that reports no strict violation and a bucket delta of 1 is a fault
        space = FiniteMetricSpace(points=(0, 1, 2), dist_table=(
            (F(0), F(1), F(2)), (F(1), F(0), F(1)), (F(2), F(1), F(0))))
        mapping = SelfMap(space=space, name="halving", table=(0, 0, 1))
        points = (0, 1) if kind == "pairwise" else (0, 1, 2)
        fabricated = scan.EnumAnalysis(
            kind=kind, eps=(F(1),), deltas=(F(1),), delta_witnesses=((points, F(2), F(2)),),
            counts=(1,), sup_ratio=F(1), sup_witness=(points, F(2), F(2)),
            strict_violation=None, total=1)
        engine = "table_pair_analysis" if kind == "pairwise" else "table_triple_analysis"
        with mock.patch.object(scan, engine, return_value=fabricated):
            with pytest.raises(metric_core.InternalConsistencyError,
                               match=r"delta\(1\) = 1 is not below 1"):
                full_report(space, mapping, eps_grid=(F(1),))

    def test_two_cycle_report(self):
        entry = catalog("period2_counterexample")
        r = full_report(entry.space, entry.map)
        assert r.scope == "exact"
        assert r.tpc_alpha == F(1, 2)
        assert r.uniform_tpc.passed and r.large_tpc.passed
        assert not r.large_contraction.passed and not r.pairwise_strict.passed

    def test_logistic_report(self):
        entry = catalog("burton_logistic", grid_step=F(1, 128))
        r = full_report(entry.space, entry.map)
        assert r.scope == "sampled"
        assert r.large_contraction.passed and r.pairwise_strict.passed
        assert not r.uniform_tpc.passed          # ratio 1/(1+2h) -> not bounded away
        assert r.large_tpc.passed

    def test_composite_report(self):
        entry = catalog("composite", grid_step=F(1, 128), index_max=50)
        r = full_report(entry.space, entry.map)
        assert not r.large_contraction.passed    # tail pairs at distance 1
        assert r.pairwise_strict.passed          # but every pair still moves closer
        assert not r.uniform_tpc.passed
        assert r.large_tpc.passed

    def test_halving_report(self):
        entry = catalog("floor_half", integer_max=128)
        r = full_report(entry.space, entry.map)
        assert not r.large_contraction.passed and not r.pairwise_strict.passed
        assert r.uniform_tpc.passed and r.large_tpc.passed

    def test_implication_invariants_on_random_instances(self):
        for space, mapping in random_finite_instances(40, seed=13):
            r = full_report(space, mapping)
            if r.large_contraction.passed:
                assert r.pairwise_strict.passed
            if r.large_tpc.passed:
                assert r.triple_strict.passed
            if r.uniform_tpc.passed:
                assert r.large_tpc.passed

    def test_report_json_and_csv_shapes(self):
        entry = catalog("period2_counterexample")
        r = full_report(entry.space, entry.map)
        doc = r.to_json()
        assert doc["enumeration_scope"] == "exact"
        assert doc["tpc_alpha"] == "1/2"
        assert len(doc["triple_moduli"]["entries"]) == len(DEFAULT_EPS_GRID)
        csv_text = r.moduli_csv()
        assert csv_text.splitlines()[0] == "kind,eps,delta,count"
        assert any(line.startswith("triple,1,1/2") for line in csv_text.splitlines())

    def test_point_subset_restricts_scope(self):
        entry = catalog("floor_half", integer_max=16)
        alpha_all, _, _ = estimate_tpc_alpha(entry.space, entry.map)
        alpha_sub, _, _ = estimate_tpc_alpha(entry.space, entry.map,
                                             point_set=[F(0), F(1), F(2), F(3)])
        assert alpha_sub == F(1, 2) <= alpha_all

    @pytest.mark.parametrize("entry", (("floor_half", {"integer_max": 40}),
                                       ("composite", {"grid_step": F(1, 8), "index_max": 9}),
                                       ("burton_logistic", {"grid_step": F(1, 32)})))
    def test_full_point_set_given_explicitly_keeps_the_report(self, entry):
        # the default scans SampledSpace.numerators; an explicit set converts its points
        e = catalog(entry[0], **entry[1])
        given_set = full_report(e.space, e.map, point_set=list(reversed(e.space.point_set())))
        assert (json.dumps(given_set.to_json(), sort_keys=True)
                == json.dumps(full_report(e.space, e.map).to_json(), sort_keys=True))

    def test_subset_membership_checked(self):
        entry = catalog("floor_half", integer_max=16)
        with pytest.raises(InputError):
            estimate_tpc_alpha(entry.space, entry.map, point_set=[F(0), F(1), F(99)])
        with pytest.raises(InputError):
            estimate_tpc_alpha(entry.space, entry.map, point_set=[F(0), F(1), F(5, 2)])

    @pytest.mark.parametrize("cid, params", [
        ("burton_logistic", {"grid_step": F(1, 96)}),
        ("floor_half", {"integer_max": 96}),
        ("composite", {"grid_step": F(1, 24), "index_max": 12})])
    def test_sampled_reports_evaluate_no_point_fraction(self, monkeypatch, cid, params):
        # the array form gives every image: no apply, func or point_set call, and the
        # report equals the one of the same map evaluated point by point
        entry = catalog(cid, **params)
        by_point = SelfMap(space=entry.space, name=entry.map.name, func=entry.map.func)
        want = full_report(entry.space, by_point).to_json()
        calls = []

        def refuse(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return spy

        monkeypatch.setattr(map_catalog, "apply", refuse("apply"))
        monkeypatch.setattr(SampledSpace, "point_set", refuse("point_set"))
        space = catalog(cid, **params).space
        mapping = SelfMap(space=space, name=entry.map.name, func=refuse("func"),
                          array_func=entry.map.array_func)
        got = full_report(space, mapping).to_json()
        assert calls == [] and "_points" not in vars(space)
        assert got == want
        # witness points and their image measures are still p/q strings
        witnesses = [got["tpc_alpha_witness"]] + [
            doc["witness"] for doc in got.values() if isinstance(doc, dict) and "witness" in doc
        ] + [e["witness"] for kind in ("pairwise_moduli", "triple_moduli")
             for e in got[kind]["entries"] if "witness" in e]
        assert len(witnesses) > 10
        for witness in witnesses:
            for key in ("x", "y", "z", "distance", "image_distance", "perimeter",
                        "image_perimeter"):
                if key in witness:
                    assert re.fullmatch(r"-?\d+(/\d+)?", witness[key]), (key, witness)

    @pytest.mark.parametrize("scalar", (int, F), ids=["loops", "lattice"])
    @pytest.mark.parametrize("distance", (0, -1), ids=["zero", "negative"])
    def test_non_positive_distance_names_the_pair(self, scalar, distance):
        # a table built in code is not validated; a zero distance used to end
        # in ZeroDivisionError and a negative one in a mis-ordered supremum
        rows = ((0, distance, 2), (distance, 0, 2), (2, 2, 0))
        space = FiniteMetricSpace(points=(0, 1, 2),
                                  dist_table=tuple(tuple(scalar(v) for v in r) for r in rows))
        assert type(space.dist_table[0][1]) is F      # int tables read back as Fractions
        mapping = SelfMap(space=space, name="cycle", table=(2, 0, 1))
        for scan_of in (full_report, estimate_tpc_alpha):
            with pytest.raises(InputError, match="between points 0 and 1 is not positive"):
                scan_of(space, mapping)


class TestScopeThreshold:
    def test_shape(self):
        assert scope_threshold(F(1)) == NEAR_ONE_RATIO
        assert scope_threshold(F(2)) == NEAR_ONE_RATIO
        assert scope_threshold(F(1, 512)) == 1 - F(1, 2048)

    def test_float_uniform_verdict_needs_the_strict_margin(self):
        # 11/96 + 4/96 + 7/96 sums to 0.22916666666666669 in floats, and the
        # image perimeter 2 * 11/96 to 0.22916666666666666: the ratio is below
        # 1 by one ulp, while the perimeter does not decrease by ETA
        table = ((0.0, 11 / 96, 7 / 96), (11 / 96, 0.0, 4 / 96), (7 / 96, 4 / 96, 0.0))
        space = FiniteMetricSpace(points=(0, 1, 2), dist_table=table, mode="float")
        mapping = SelfMap(space=space, name="fold", table=(0, 1, 1))
        report = full_report(space, mapping)
        assert report.tpc_alpha == 0.9999999999999999
        assert not report.triple_strict.passed
        assert not report.large_tpc.passed
        assert not report.uniform_tpc.passed
        witness = report.uniform_tpc.witness
        assert (witness["perimeter"], witness["image_perimeter"]) == (
            0.22916666666666669, 0.22916666666666666)
        _, _, uniform = estimate_tpc_alpha(space, mapping)
        assert uniform == report.uniform_tpc

    def test_float_mode_strictness_margin(self):
        # equal distances in float mode must fail the strict check
        table = ((0.0, 1.0, 2.0), (1.0, 0.0, 1.0), (2.0, 1.0, 0.0))
        space = FiniteMetricSpace(points=(0, 1, 2), dist_table=table, mode="float")
        mapping = SelfMap(space=space, name="shift", table=(1, 0, 1))
        verdict = check_pairwise_strict(space, mapping)
        assert not verdict.passed
