import json
import random
import re
from fractions import Fraction as F
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import closure_loops

from contraction_lab import metric_core
from contraction_lab.classify import full_report
from contraction_lab.map_catalog import SelfMap
from contraction_lab.metric_core import (
    ETA,
    FiniteMetricSpace,
    InputError,
    SampledSpace,
    format_scalar,
    max_side,
    metric_repair,
    parse_scalar,
    perimeter,
    shortest_path_closure,
    table_lattice,
    validate_metric,
)


def line_space(coords):
    coords = [F(c) for c in coords]
    table = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    return FiniteMetricSpace(points=tuple(range(len(coords))), dist_table=table)


def brute_shortest_paths(table):
    """Independent oracle: min cost over all simple paths, by enumeration."""
    n = len(table)
    best = [[table[i][j] for j in range(n)] for i in range(n)]
    nodes = list(range(n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            others = [v for v in nodes if v not in (i, j)]
            for r in range(1, len(others) + 1):
                for mids in permutations(others, r):
                    path = (i, *mids, j)
                    cost = sum(table[path[t]][path[t + 1]] for t in range(len(path) - 1))
                    if cost < best[i][j]:
                        best[i][j] = cost
    return best


class TestScalars:
    def test_parse_rational_strings(self):
        assert parse_scalar("3/4") == F(3, 4)
        assert parse_scalar("0.25") == F(1, 4)
        assert parse_scalar(2) == F(2)

    def test_parse_float_mode(self):
        assert parse_scalar("0.5", exact=False) == 0.5

    def test_parse_float_mode_rational_strings(self):
        assert parse_scalar("13/96", exact=False) == 13 / 96
        # correctly rounded: float(p) / float(q) would round p first
        assert parse_scalar(f"{2 ** 53 + 1}/3", exact=False) == (2 ** 53 + 1) / 3
        assert (2 ** 53 + 1) / 3 != float(2 ** 53 + 1) / 3
        with pytest.raises(InputError):
            parse_scalar("1/0", exact=False)

    def test_parse_garbage(self):
        with pytest.raises(InputError):
            parse_scalar("spam")
        with pytest.raises(InputError):
            parse_scalar("1/0")

    def test_format_roundtrip(self):
        assert format_scalar(F(3, 4)) == "3/4"
        assert parse_scalar(format_scalar(F(-7, 3))) == F(-7, 3)


class TestPerimeter:
    def test_line_metric_values(self):
        space = line_space([0, 1, 2])
        assert perimeter(space, 0, 1, 2) == 4
        assert perimeter(space, 1, 0, 1) == 2
        assert perimeter(space, 0, 0, 0) == 0

    def test_unknown_point(self):
        space = line_space([0, 1, 2])
        with pytest.raises(InputError):
            perimeter(space, 0, 1, 7)

    @given(st.permutations([0, 1, 2]))
    def test_permutation_invariance(self, perm):
        space = line_space([0, F(1, 3), F(9, 7), 4])
        base = perimeter(space, 0, 1, 2)
        assert perimeter(space, *perm) == base

    @given(st.lists(st.fractions(min_value=0, max_value=10), min_size=3, max_size=3,
                    unique=True))
    def test_two_sided_bounds(self, coords):
        space = line_space(sorted(coords))
        p = perimeter(space, 0, 1, 2)
        side = max_side(space, 0, 1, 2)
        assert 2 * side <= p <= 3 * side


class TestValidateMetric:
    def test_valid_line_metric(self):
        report = validate_metric(line_space([0, 1, 2]).dist_table)
        assert report.ok

    def test_triangle_violation_witness(self):
        table = [[F(0), F(1), F(5)],
                 [F(1), F(0), F(1)],
                 [F(5), F(1), F(0)]]
        report = validate_metric(table)
        assert not report.ok
        assert any(w[:3] == (0, 1, 2) for w in report.triangle)

    def test_asymmetry_witness(self):
        table = [[F(0), F(1)],
                 [F(2), F(0)]]
        report = validate_metric(table)
        assert report.symmetry and report.symmetry[0][:2] == (0, 1)

    def test_zero_offdiagonal_is_positivity_violation(self):
        table = [[F(0), F(0)],
                 [F(0), F(0)]]
        report = validate_metric(table)
        assert report.positivity

    def test_nonzero_diagonal(self):
        table = [[F(1)]]
        report = validate_metric(table)
        assert report.diagonal == ((0, F(1)),)

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            validate_metric([[F(0), F(1)], [F(1)]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
    def test_non_finite_float_entries(self, bad):
        # 1e308 is finite, but a perimeter of three such sides overflows
        rows = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        rows[0][2] = rows[2][0] = bad
        report = validate_metric(rows, exact=False)
        assert not report.ok
        assert [w[:2] for w in report.finite] == [(0, 2), (2, 0)]
        assert "finite" in report.summary()
        doc = {"points": [0, 1, 2], "dist": rows, "mode": "float"}
        with pytest.raises(InputError, match="finite"):
            FiniteMetricSpace.from_json(doc)


class TestMetricRepair:
    def test_shortcut_is_closed(self):
        table = [[F(0), F(1), F(5)],
                 [F(1), F(0), F(1)],
                 [F(5), F(1), F(0)]]
        space = metric_repair(table)
        assert space.distance(0, 2) == 2
        assert space.validate().ok

    def test_idempotent_on_metrics(self):
        base = line_space([0, 1, 3, 7]).dist_table
        repaired = metric_repair(base)
        assert repaired.dist_table == base

    def test_matches_brute_force_oracle(self):
        rows = [
            [0, 3, 9, 9],
            [3, 0, 2, 9],
            [9, 2, 0, 1],
            [9, 9, 1, 0],
        ]
        table = [[F(v) for v in row] for row in rows]
        expected = brute_shortest_paths(table)
        space = metric_repair(table)
        for i in range(4):
            for j in range(4):
                assert space.dist_table[i][j] == expected[i][j]

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=6, max_size=6))
    def test_random_tables_become_metrics(self, entries):
        table = [[F(0)] * 4 for _ in range(4)]
        it = iter(entries)
        for i, j in combinations(range(4), 2):
            v = F(next(it), 64)
            table[i][j] = v
            table[j][i] = v
        space = metric_repair(table)
        assert space.validate().ok
        for i, j in combinations(range(4), 2):
            assert space.dist_table[i][j] <= table[i][j]

    def test_zero_offdiagonal_rejected(self):
        table = [[F(0), F(0)], [F(0), F(0)]]
        with pytest.raises(InputError):
            metric_repair(table)

    def test_asymmetric_rejected(self):
        table = [[F(0), F(1)], [F(2), F(0)]]
        with pytest.raises(InputError):
            metric_repair(table)

    def test_negative_diagonal_is_refused_in_float_mode(self):
        # within ETA of zero, but a closure over it used to return
        # d(0, 1) = 0.9999999999999 and d(1, 0) = 0.9999999999998
        table = [[-1e-13, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]
        with pytest.raises(InputError, match=r"^diagonal entry \(0,0\) must be zero$"):
            metric_repair(table, mode="float")

    @pytest.mark.parametrize("mode, entries, message", [
        ("exact", {(1, 1): F(-1, 2)}, r"diagonal entry \(1,1\) must be zero"),
        ("exact", {(2, 2): F(1, 9)}, r"diagonal entry \(2,2\) must be zero"),
        ("float", {(0, 0): -ETA / 4}, r"diagonal entry \(0,0\) must be zero"),
        ("float", {(1, 1): 2 * ETA}, r"diagonal entry \(1,1\) must be zero"),
        ("float", {(2, 2): float("nan")}, r"diagonal entry \(2,2\) must be zero"),
        ("exact", {(2, 2): F(1), (0, 1): F(5)}, r"diagonal entry \(2,2\) must be zero"),
        ("exact", {(1, 2): F(3, 4)}, r"table must be symmetric; entries \(1,2\) differ"),
        ("exact", {(1, 2): F(0)}, r"table must be symmetric; entries \(1,2\) differ"),
        ("float", {(0, 2): 1.5 + 1e-15}, r"table must be symmetric; entries \(0,2\) differ"),
        ("exact", {(0, 2): F(0), (2, 0): F(0), (1, 2): F(7)},
         r"off-diagonal entry \(0,2\) must be positive \(points are distinct\)"),
        ("float", {(1, 2): ETA / 2, (2, 1): ETA / 2},
         r"off-diagonal entry \(1,2\) must be positive \(points are distinct\)"),
        ("exact", {(0, 1): F(-1), (1, 0): F(-1), (0, 2): F(2)},
         r"off-diagonal entry \(0,1\) must be positive \(points are distinct\)"),
    ])
    def test_input_errors_name_the_first_bad_entry(self, mode, entries, message):
        # loop order: every diagonal entry, then each pair i < j, symmetry first
        scalar = F if mode == "exact" else float
        table = [[scalar(v) for v in row] for row in ((0, 1, 1.5), (1, 0, 1), (1.5, 1, 0))]
        for (i, j), v in entries.items():
            table[i][j] = v
        with pytest.raises(InputError, match=f"^{message}$"):
            closure_loops(table, mode == "exact")
        with pytest.raises(InputError, match=f"^{message}$"):
            metric_repair(table, mode=mode)

    @pytest.mark.parametrize("kind", ["int", "fraction", "wide", "float"])
    @given(data=st.data())
    def test_matches_the_loop_oracle(self, kind, data):
        table = data.draw(repair_tables(kind))
        exact = kind != "float"
        mode = "exact" if exact else "float"
        try:
            rows = closure_loops(table, exact)
        except InputError as exc:
            with pytest.raises(InputError) as caught:
                metric_repair(table, mode=mode)
            assert str(caught.value) == str(exc)
            return
        expected = table_lattice(rows, exact)
        lattice = metric_repair(table, mode=mode).lattice
        assert lattice.exact == exact and lattice.scale == expected.scale
        assert lattice.values.dtype == expected.values.dtype
        assert repr(lattice.values.tolist()) == repr(expected.values.tolist())

    def test_a_stack_names_the_first_bad_table(self):
        good = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        asymmetric, zero_pair = good.copy(), good.copy()
        asymmetric[2, 1] = 2
        zero_pair[0, 2] = zero_pair[2, 0] = 0
        with pytest.raises(InputError, match=r"entries \(1,2\) differ"):
            shortest_path_closure(np.array([good, asymmetric, zero_pair]))
        with pytest.raises(InputError, match=r"entry \(0,2\) must be positive"):
            shortest_path_closure(np.array([good, zero_pair, asymmetric]))

    def test_points_must_match_the_table(self):
        with pytest.raises(InputError, match="match the point count"):
            metric_repair([[0, 1, 1], [1, 0, 1], [1, 1, 0]], points=("a", "b", "c", "d"))

    def test_closing_can_shrink_the_scale(self):
        # 3/4 closes to 2/3 through two sides of 1/3: the lattice drops from 1/12 to 1/3
        table = [[0, F(3, 4), F(1, 3)], [F(3, 4), 0, F(1, 3)], [F(1, 3), F(1, 3), 0]]
        lattice = metric_repair(table).lattice
        assert lattice.scale == 3 and lattice.values.tolist() == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
        # a denominator past 2**53 closed away leaves an int64 lattice
        big = F(2 ** 60, 2 ** 61 - 1)
        table = [[0, big, F(1, 4)], [big, 0, F(1, 4)], [F(1, 4), F(1, 4), 0]]
        assert table_lattice(table, True).values.dtype == object
        lattice = metric_repair(table).lattice
        assert lattice.values.dtype == np.int64 and lattice.scale == 4


_WIDE = 2 ** 53
_BIG_DENOMINATORS = (2 ** 31 - 1, 2 ** 61 - 1)    # a lcm past 2**53 gives an object lattice


@st.composite
def repair_tables(draw, kind):
    """A symmetric table for metric_repair, sometimes with one bad entry.

    int: entries 1..64.  fraction: small denominators, and now and then a
    huge one, which the closure may remove.  wide: ints of at least 2**53,
    so the lattice is an object array.  float: entries in [2**-10, 64] with
    diagonal entries in [0, ETA].
    """
    n = draw(st.integers(3, 6))
    if kind == "int":
        entry = st.integers(1, 64)
    elif kind == "fraction":
        entry = st.one_of(
            st.fractions(F(1, 12), 4, max_denominator=12),
            st.builds(F, st.integers(1, 2 ** 62), st.sampled_from(_BIG_DENOMINATORS)))
    elif kind == "wide":
        entry = st.integers(_WIDE, 8 * _WIDE)
    else:
        entry = st.floats(2 ** -10, 64)
    zero = st.floats(0, ETA) if kind == "float" else st.just(0)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = draw(zero)
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(entry)
    fault = draw(st.sampled_from((None, None, None, "diagonal", "asymmetric", "nonpositive")))
    i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    if fault == "diagonal":
        bad = (-ETA / 2, -1.0, 2 * ETA) if kind == "float" else (-1, 1)
        table[i][i] = draw(st.sampled_from(bad))
    elif fault == "asymmetric":
        table[i][j] = draw(st.one_of(entry, st.just(0)))
    elif fault == "nonpositive":
        table[i][j] = table[j][i] = draw(st.sampled_from((0, -1) if kind != "float"
                                                         else (0.0, ETA / 2, -1.0)))
    return table


class TestFiniteMetricSpace:
    def test_json_roundtrip_exact(self):
        space = line_space([0, F(1, 3), 2])
        doc = space.to_json()
        assert doc["dist"][0][1] == "1/3"
        back = FiniteMetricSpace.from_json(json.loads(json.dumps(doc)))
        assert back == space

    def test_json_float_mode(self):
        table = ((0.0, 0.5, 1.0), (0.5, 0.0, 0.5), (1.0, 0.5, 0.0))
        space = FiniteMetricSpace(points=("a", "b", "c"), dist_table=table, mode="float")
        back = FiniteMetricSpace.from_json(space.to_json())
        assert back.distance("a", "b") == 0.5
        assert not back.exact

    def test_from_json_rejects_non_metric(self):
        doc = {"points": [0, 1, 2],
               "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
               "mode": "exact"}
        with pytest.raises(InputError):
            FiniteMetricSpace.from_json(doc)

    def test_duplicate_labels_rejected(self):
        table = ((F(0), F(1), F(2)), (F(1), F(0), F(1)), (F(2), F(1), F(0)))
        with pytest.raises(InputError):
            FiniteMetricSpace(points=(0, 0, 1), dist_table=table)

    def test_fewer_than_three_points_rejected(self):
        with pytest.raises(InputError):
            FiniteMetricSpace(points=(0, 1), dist_table=((F(0), F(1)), (F(1), F(0))))

    @pytest.mark.parametrize("mode, entry", [
        ("exact", 0.5), ("exact", True), ("exact", "1/2"),
        ("float", True), ("float", "0.5"), ("float", None), ("float", 10 ** 400),
    ], ids=["exact-float", "exact-bool", "exact-str", "float-bool", "float-str", "float-none",
            "float-huge-int"])
    def test_table_entries_must_be_the_modes_scalars(self, mode, entry):
        # an exact table of floats used to end in a TypeError inside the scans
        table = [[F(0), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(0)]]
        table[1][2] = entry
        with pytest.raises(InputError, match=rf"entry \(1, 2\) is {re.escape(repr(entry))}"):
            FiniteMetricSpace(points=(0, 1, 2), dist_table=table, mode=mode)

    def test_table_entries_read_back_in_the_modes_scalars(self):
        ints = ((0, 1, 2), (1, 0, 1), (2, 1, 0))
        exact = FiniteMetricSpace(points=(0, 1, 2), dist_table=ints)
        assert [type(v) for v in exact.dist_table[0]] == [F, F, F]
        assert exact.dist_table == ints
        mixed = ((0, F(1, 3), 2.5), (F(1, 3), 0, 1), (2.5, 1, 0))
        floats = FiniteMetricSpace(points=(0, 1, 2), dist_table=mixed, mode="float")
        assert floats.dist_table[0] == (0.0, 1 / 3, 2.5)
        assert [type(v) for v in floats.dist_table[0]] == [float, float, float]
        # real numbers of other types pass the per-entry check
        numpy_reals = ((0, np.float64(0.5), 2), (np.float64(0.5), 0, np.int32(1)), (2, 1, 0))
        floats = FiniteMetricSpace(points=(0, 1, 2), dist_table=numpy_reals, mode="float")
        assert floats.dist_table[1] == (0.5, 0.0, 1.0)


class TestSampledSpace:
    def test_points_are_reduced_fractions(self):
        space = SampledSpace("grid", denominator=4, numerators=(0, 1, 2, 3))
        assert space.point_set() == (F(0), F(1, 4), F(1, 2), F(3, 4))

    def test_distance_handles_off_sample_values(self):
        space = SampledSpace("grid", denominator=4, numerators=(0, 1, 2))
        assert space.distance(F(1, 3), F(1, 4)) == F(1, 12)

    def test_requires_sorted_distinct(self):
        with pytest.raises(InputError):
            SampledSpace("bad", denominator=2, numerators=(1, 0))
        with pytest.raises(InputError):
            SampledSpace("bad", denominator=2, numerators=(0, 0))

    @pytest.mark.parametrize("nums", [(0, 2 ** 63 - 1), (-2 ** 63 - 1, 0), (-2, 2 ** 63 - 2),
                                      (10 ** 20,)])
    def test_refuses_numerators_past_int64(self, nums):
        # the line engine holds numerators, spans and one past the longest span as int64
        with pytest.raises(InputError, match="do not fit int64"):
            SampledSpace("wide", denominator=1, numerators=nums)

    def test_numerators_at_the_int64_bound_pass(self):
        space = SampledSpace("edge", denominator=1, numerators=(-2 ** 62, 2 ** 62 - 2))
        assert space.numerator_array.tolist() == [-2 ** 62, 2 ** 62 - 2]


# ---------------------------------------------------------------------------
# loading a table straight to its lattice, against the parse_scalar path

def reference_from_json(doc):
    """The load path that parses every entry with parse_scalar (the oracle)."""
    mode = doc.get("mode", "exact")
    exact = mode == "exact"
    table = tuple(tuple(parse_scalar(v, exact) for v in row) for row in doc["dist"])
    space = FiniteMetricSpace(points=tuple(doc["points"]), dist_table=table, mode=mode)
    report = space.validate()
    if not report.ok:
        raise InputError(f"distance table is not a metric ({report.summary()})")
    return space


def same_lattice(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (a.scale == b.scale and a.exact == b.exact and a.values.dtype == b.values.dtype
            and np.array_equal(a.values, b.values))


_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_BIG_PRIMES = (134217689, 134217649, 134217617, 134217613)   # lcm of two >= 2**53
_EXACT_CELLS = ("unreduced", "signed", "signed_den", "zeros", "spaces",
                "underscore", "arabic", "int", "float", "zero_den", "minus_zero",
                "big_num", "big_unreduced", "big_prime", "junk", "bool", "null",
                "digits18", "digits19", "comma", "odd", "big_json_int")
# cells at the edges of the byte check: a sign or slash out of place, an empty part
_ODD_CELLS = ("+0/7", "-0/3", "1//2", "/3", "3/", "+", "", "1/+2")
_FLOAT_CELLS = ("int", "string", "ratio", "nan", "inf", "huge",
                "tiny", "minus_zero", "big_int", "junk", "bool")


@st.composite
def cell(draw, num, den, exact, kind):
    """One table entry for the value num/den: plain, or rendered as ``kind``."""
    kind = draw(st.sampled_from(("plain", "plain", "plain", kind)))
    value = F(num, den)
    if kind == "plain":
        return str(value) if exact else num / den
    if kind == "unreduced":
        k = draw(st.integers(2, 5))
        return f"{num * k}/{den * k}"
    if kind == "signed":
        return f"+{value}"
    if kind == "signed_den":
        return f"{value.numerator}/{draw(st.sampled_from('+-'))}{value.denominator}"
    if kind == "zeros":
        return f"00{value.numerator}/0{value.denominator}"
    if kind == "spaces":
        return f" {value.numerator} / {value.denominator} "
    if kind == "underscore":
        return f"{value.numerator}_0/{value.denominator}"
    if kind == "arabic":
        return str(value).translate(_ARABIC)
    if kind == "int":
        return num // den
    if kind == "float":
        return num / den
    if kind == "zero_den":
        return f"{num}/0"
    if kind == "minus_zero":
        return "-0" if exact else -0.0
    if kind == "big_num":
        return f"{2 ** 63 + num}/{den}"
    if kind == "big_unreduced":
        return f"{num * 2 ** 40}/{den * 2 ** 40}"
    if kind == "big_prime":
        p = _BIG_PRIMES[num % len(_BIG_PRIMES)]        # several per table
        return f"{num * p // den}/{p}"
    if kind in ("digits18", "digits19"):       # parts of exactly 18 or 19 digits
        width = int(kind[-2:])
        if draw(st.booleans()):
            return f"{value.numerator:0{width}d}/{value.denominator:0{width}d}"
        k = 10 ** (width - len(str(den)))
        return f"{num * k}/{den * k}"
    if kind == "comma":                         # one string cell, not two cells
        return f"{value.numerator},{value.denominator}"
    if kind == "odd":
        return draw(st.sampled_from(_ODD_CELLS))
    if kind == "big_json_int":                  # an int of 19 or more digits among strings
        return draw(st.sampled_from((10 ** 18, 2 ** 63, 2 ** 64 + 1))) + num // den
    if kind == "junk":
        return draw(st.text(max_size=4))
    if kind == "bool":
        return True
    if kind == "null":
        return None
    if kind == "string":
        return repr(num / den)
    if kind == "ratio":
        return f"{num}/{den}"
    if kind == "nan":
        return float("nan")
    if kind == "inf":
        return float("inf")
    if kind == "huge":
        return 1e308
    if kind == "tiny":
        return 1e-300
    return 10 ** 400                     # big_int: no float holds it


@st.composite
def instance_docs(draw, exact, kind):
    """Space documents with entries rendered as ``kind`` among plain ones.

    The table is closed under shortest paths, or has every off-diagonal
    distance in [1, 2) (a metric whatever its values there), or is raw; a
    scale factor takes some tables off the lattice (past 2**53 exact, or
    past 2**200 in float mode).  Entry (j, i) repeats entry (i, j), so
    renderings that change a value keep the table symmetric.
    """
    n = draw(st.integers(3, 6))
    den = draw(st.sampled_from((1, 2, 3, 96)))
    shape = draw(st.sampled_from(("closed", "unit", "raw")))
    raw = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        raw[i][j] = raw[j][i] = (den + draw(st.integers(0, den - 1)) if shape == "unit"
                                 else draw(st.integers(1, 3 * den)))
    if shape == "closed":
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    raw[i][j] = min(raw[i][j], raw[i][k] + raw[k][j])
    if exact:
        factor = draw(st.sampled_from((1, 1, 1, 2 ** 60)))
    else:
        factor = draw(st.sampled_from((1, 1, 1, 2 ** 250)))
        den *= draw(st.sampled_from((1, 2 ** 500)))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(cell(raw[i][j] * factor, den, exact, kind))
    doc = {"points": list(range(n)), "dist": rows}
    if not exact or draw(st.booleans()):
        doc["mode"] = "exact" if exact else "float"
    return json.loads(json.dumps(doc)) if draw(st.booleans()) else doc


class TestLatticeLoad:
    @pytest.mark.parametrize("exact, kind", [(True, k) for k in ("plain",) + _EXACT_CELLS]
                             + [(False, k) for k in ("plain",) + _FLOAT_CELLS])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_matches_the_parse_scalar_path(self, exact, kind, data):
        doc = data.draw(instance_docs(exact, kind))
        try:
            expected = reference_from_json(doc)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                FiniteMetricSpace.from_json(doc)
            assert str(got.value) == str(exc)
            return
        space = FiniteMetricSpace.from_json(doc)
        assert same_lattice(space.lattice, expected.lattice)
        assert space.validate() == expected.validate()
        assert space.dist_table == expected.dist_table
        assert space.to_json() == expected.to_json()
        assert space == expected
        a, b = space.points[0], space.points[-1]
        assert space.distance(a, b) == expected.distance(a, b)

    @pytest.mark.parametrize("cell, read", [
        ("+0/7", True), ("-0/3", True), ("-12/5", True), ("9" * 18, True),
        ("1/" + "9" * 18, True), ("-" + "0" * 17 + "1/" + "0" * 17 + "2", True),
        ("9" * 19, False), ("1/" + "0" * 18 + "1", False), ("1//2", False), ("/3", False),
        ("3/", False), ("+", False), ("", False), ("1/+2", False), ("+-1", False),
        ("1/2/3", False), ("1-2", False), ("1,2", False), (" 1", False), ("١", False),
    ])
    def test_byte_check_reads_only_plain_cells(self, cell, read):
        # a cell the byte check refuses goes to parse_scalar, which judges it
        rows = [["0", cell, "1"], [cell, "0", "1"], ["1", "1", "0"]]
        assert (metric_core._ratio_lattice(rows) is not None) == read
        if read:
            table = [[parse_scalar(v) for v in row] for row in rows]
            assert same_lattice(metric_core._ratio_lattice(rows), table_lattice(table, True))

    def test_wide_scales_are_read_without_parse_scalar(self, monkeypatch):
        # 24 primes near 10**6: every part fits the byte check, the lcm passes 2**53
        n = 24
        primes = [q for q in range(10 ** 6, 10 ** 6 + 400)
                  if all(q % f for f in range(2, int(q ** 0.5) + 1))][:n]
        rng = random.Random(5)
        rows = [["0"] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            p = primes[(i + j) % n]
            rows[i][j] = rows[j][i] = f"{rng.randrange(p, 2 * p)}/{p}"
        doc = {"points": list(range(n)), "dist": rows}
        expected = reference_from_json(doc)
        monkeypatch.setattr(metric_core, "parse_scalar", None)     # any call would fail
        space = FiniteMetricSpace.from_json(doc)
        assert space.lattice.values.dtype == object
        assert same_lattice(space.lattice, expected.lattice)
        assert space == expected

    def test_scale_beyond_int64_falls_back(self):
        # distances 1 + 1/p over three primes near 2**27: the lcm is ~2**81, so the
        # parts read by the byte check go on an object lattice
        p = _BIG_PRIMES
        near_one = [[None, p[0], p[1], p[2]], [p[0], None, p[2], p[1]],
                    [p[1], p[2], None, p[0]], [p[2], p[1], p[0], None]]
        doc = {"points": [0, 1, 2, 3],
               "dist": [[f"{q + 1}/{q}" if q else "0" for q in row] for row in near_one]}
        space = FiniteMetricSpace.from_json(doc)
        assert space.lattice.values.dtype == object
        assert space == reference_from_json(doc)

    @pytest.mark.parametrize("mode, cell, expected", [
        ("exact", lambda v: str(F(v, 96)), F(3, 96)),
        ("float", lambda v: v / 96, 3 / 96),
    ], ids=["exact", "float"])
    def test_plain_tables_load_as_lattices(self, mode, cell, expected):
        raw = [[abs(i - j) for j in range(4)] for i in range(4)]
        space = FiniteMetricSpace.from_json(
            {"points": [0, 1, 2, 3], "mode": mode,
             "dist": [[cell(v) for v in row] for row in raw]})
        assert all(row is None for row in space._rows)
        assert space.distance(0, 3) == expected
        assert type(space.distance(0, 3)) is type(expected)
        assert all(row is None for row in space._rows)    # distance reads one lattice value
        assert space.dist_table[0][3] == expected
        assert [row is None for row in space._rows] == [False, True, True, True]

    def test_clean_instance_builds_no_rows(self):
        # validation and both scans run on the lattice; a row is built only
        # when a witness of a violation or a distance is read
        rng = random.Random(40)
        n = 40
        raw = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            raw[i][j] = raw[j][i] = rng.randint(1, 96)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    raw[i][j] = min(raw[i][j], raw[i][k] + raw[k][j])
        doc = {"space": {"points": list(range(n)),
                         "dist": [[str(F(v, 96)) for v in row] for row in raw]},
               "map": [rng.randrange(n) for _ in range(n)]}
        mapping = SelfMap.from_json(doc)
        space = mapping.space
        assert space.validate().ok
        full_report(space, mapping)
        assert all(row is None for row in space._rows)
