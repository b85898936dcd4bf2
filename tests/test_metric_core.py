import json
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

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
    strictly_less,
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

    def test_strict_less_needs_margin_in_float_mode(self):
        assert strictly_less(F(1, 3), F(1, 2), exact=True)
        assert not strictly_less(0.5, 0.5 + ETA / 2, exact=False)
        assert strictly_less(0.5, 0.5 + 2 * ETA, exact=False)


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

    def test_finite_view_is_a_metric(self):
        space = SampledSpace("grid", denominator=8, numerators=(0, 1, 5, 8))
        assert space.as_finite().validate().ok
