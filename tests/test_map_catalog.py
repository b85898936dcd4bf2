from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contraction_lab import classify
from contraction_lab.classify import full_report
from contraction_lab.map_catalog import (
    CATALOG_IDS,
    SelfMap,
    apply,
    catalog,
    composite_action,
    composite_action_array,
    floor_half,
    floor_half_array,
    iterate,
    logistic_ratio,
    logistic_ratio_array,
    resolve_point,
)
from contraction_lab.metric_core import InputError


class TestApply:
    def test_logistic_at_one(self):
        entry = catalog("burton_logistic")
        assert apply(entry.map, F(1, 2)) == F(1, 3)
        assert entry.map(F(1)) == F(1, 2)

    def test_floor_half_at_five(self):
        entry = catalog("floor_half")
        assert apply(entry.map, F(5)) == F(2)

    def test_two_cycle_values(self):
        entry = catalog("period2_counterexample")
        assert apply(entry.map, 0) == 1
        assert apply(entry.map, 1) == 0
        assert apply(entry.map, 2) == 1

    def test_unknown_point(self):
        entry = catalog("period2_counterexample")
        with pytest.raises(InputError):
            apply(entry.map, 9)


class TestIterate:
    def test_zero_steps_is_identity(self):
        entry = catalog("floor_half")
        assert iterate(entry.map, F(37), 0) == F(37)

    def test_two_cycle_returns(self):
        entry = catalog("period2_counterexample")
        assert iterate(entry.map, 0, 2) == 0

    def test_logistic_closed_form(self):
        # x_{k+1} = x_k/(1+x_k) from 1 gives x_k = 1/(k+1); check by direct loop
        entry = catalog("burton_logistic")
        x = F(1)
        for k in range(1, 31):
            x = apply(entry.map, x)
            assert x == F(1, k + 1)
        assert iterate(entry.map, F(1), 3) == F(1, 4)

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
    def test_iterate_is_a_semigroup_action(self, a, b):
        entry = catalog("floor_half", integer_max=40)
        x = F(37)
        assert iterate(entry.map, x, a + b) == iterate(entry.map, iterate(entry.map, x, a), b)

    def test_negative_count_rejected(self):
        entry = catalog("floor_half")
        with pytest.raises(InputError):
            iterate(entry.map, F(1), -1)


def readme_catalog_table():
    """The README table of catalog verdicts: {catalog id: its four verdict cells}."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## What the catalog instances classify to", 1)[1]
    rows = {}
    for line in section.splitlines()[1:]:
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            rows[cells[0].split("`")[1]] = cells[1:]
        elif rows:
            break
    return rows


class TestCatalog:
    @pytest.mark.parametrize("entry_id", CATALOG_IDS)
    def test_readme_table_matches_the_default_reports(self, entry_id):
        cells = readme_catalog_table()[entry_id]
        entry = catalog(entry_id)
        report = full_report(entry.space, entry.map)
        verdicts = (report.pairwise_strict, report.large_contraction, report.uniform_tpc,
                    report.large_tpc)
        assert [cell.split()[0].rstrip(",") for cell in cells] == [
            "pass" if v.passed else "fail" for v in verdicts]

    def test_readme_table_has_one_row_per_catalog_instance(self):
        assert sorted(readme_catalog_table()) == sorted(CATALOG_IDS)

    def test_known_ids(self):
        for entry_id in CATALOG_IDS:
            entry = catalog(entry_id)
            assert entry.id == entry_id

    def test_unknown_id(self):
        with pytest.raises(InputError):
            catalog("does_not_exist")

    def test_composite_tail_values(self):
        entry = catalog("composite")
        assert apply(entry.map, F(4)) == 0
        assert apply(entry.map, F(9)) == F(1, 2)   # 9 = 4*2+1 -> 1 - 1/2
        assert apply(entry.map, F(5)) == 0         # 5 = 4*1+1 -> 1 - 1/1

    def test_composite_rejects_off_space_integers(self):
        with pytest.raises(InputError):
            composite_action(F(7))
        with pytest.raises(InputError):
            composite_action(F(3, 2))

    def test_composite_index_set_starts_at_one(self):
        entry = catalog("composite", grid_step=F(1, 8), index_max=3)
        nums = entry.space.numerators
        assert 4 * 8 in nums and 5 * 8 in nums
        assert 0 in nums and 8 in nums
        assert min(n for n in nums if n > 8) == 32  # no 4n/4n+1 for n = 0

    def test_burton_space_excludes_one(self):
        entry = catalog("burton_logistic", grid_step=F(1, 16))
        pts = entry.space.point_set()
        assert pts[0] == 0 and pts[-1] == F(15, 16)
        assert not entry.space.complete

    def test_truncation_overrides(self):
        entry = catalog("floor_half", integer_max=10)
        assert entry.space.point_set()[-1] == 10

    def test_grid_step_must_divide_one(self):
        with pytest.raises(InputError):
            catalog("burton_logistic", grid_step=F(3, 7))


class TestClosure:
    def test_logistic_images_stay_in_unit_interval(self):
        entry = catalog("burton_logistic", grid_step=F(1, 64))
        for x in entry.space.point_set():
            y = apply(entry.map, x)
            assert 0 <= y < 1

    def test_floor_half_closes_over_sample(self):
        entry = catalog("floor_half", integer_max=64)
        sample = set(entry.space.point_set())
        for x in entry.space.point_set():
            assert apply(entry.map, x) in sample

    def test_composite_images_stay_in_space(self):
        entry = catalog("composite", grid_step=F(1, 16), index_max=5)
        for x in entry.space.point_set():
            y = apply(entry.map, x)
            in_interval = 0 <= y <= 1
            k = int(y)
            in_tail = y == k and k >= 4 and k % 4 in (0, 1)
            assert in_interval or in_tail

    def test_floor_half_fixed_point_unique_by_scan(self):
        entry = catalog("floor_half", integer_max=100)
        fixed = [x for x in entry.space.point_set() if apply(entry.map, x) == x]
        assert fixed == [F(0)]


@st.composite
def sampled_scopes(draw):
    """A sampled catalog entry at a random truncation: grid steps 1/den, integer_max, and
    composite's index_max, whose tail points 4n and 4n + 1 lie far above its grid."""
    cid = draw(st.sampled_from(("burton_logistic", "floor_half", "composite")))
    if cid == "burton_logistic":
        return catalog(cid, grid_step=F(1, draw(st.integers(1, 700))))
    if cid == "floor_half":
        return catalog(cid, integer_max=draw(st.integers(2, 700)))
    return catalog(cid, grid_step=F(1, draw(st.integers(1, 300))),
                   index_max=draw(st.integers(1, 80)))


def split_by_point(mapping, nums, den):
    """The map's func at each point nums[i]/den, as (numerators, denominators) lists."""
    images = [mapping.func(F(k, den)) for k in nums]
    return [v.numerator for v in images], [v.denominator for v in images]


class TestArrayForms:
    @given(sampled_scopes())
    def test_array_form_equals_func_at_every_sample_point(self, entry):
        space, mapping = entry.space, entry.map
        nums, dens = mapping.array_func(space.numerator_array, space.denominator)
        assert nums.dtype == dens.dtype == np.int64 and (dens > 0).all()
        assert (nums.tolist(), dens.tolist()) == split_by_point(
            mapping, space.numerators, space.denominator)

    @given(sampled_scopes(), st.data())
    def test_array_form_equals_func_on_point_subsets(self, entry, data):
        # an explicit point set, in any order and with repeats, is scanned through the array form
        space, mapping = entry.space, entry.map
        picks = data.draw(st.lists(st.integers(0, space.size - 1), min_size=1, max_size=60))
        point_set = [F(space.numerators[i], space.denominator) for i in picks]
        size, basis = classify._prepare(space, mapping, point_set, classify.DEFAULT_EPS_GRID)
        nums = basis.nums.tolist()
        assert nums == sorted({space.numerators[i] for i in picks}) and size == len(nums)
        assert (basis.inum.tolist(), basis.iden.tolist()) == split_by_point(mapping, nums,
                                                                            basis.den)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=40),
           st.integers(1, 1000))
    def test_array_forms_equal_the_formulas_off_the_catalog_points(self, ks, den):
        # negative and off-grid numerators too: the array forms are the formulas
        k = np.array(ks, dtype=np.int64)
        for func, array_func in ((floor_half, floor_half_array),
                                 (logistic_ratio, logistic_ratio_array)):
            mapping = SelfMap(space=None, name="formula", func=func)
            if array_func is logistic_ratio_array and -den in ks:
                with pytest.raises(InputError, match="1 \\+ x is zero"):
                    array_func(k, den)
                continue
            nums, dens = array_func(k, den)
            assert (nums.tolist(), dens.tolist()) == split_by_point(mapping, ks, den)
            assert (dens > 0).all() and (np.gcd(nums, dens) == 1).all()

    @pytest.mark.parametrize("x", [F(2), F(3), F(6), F(17, 4), F(-1, 8), F(3, 2)])
    def test_composite_array_form_refuses_what_the_formula_refuses(self, x):
        den = 8
        k = np.array([0, 4 * den, int(x * den)], dtype=np.int64)
        with pytest.raises(InputError) as want:
            composite_action(x)
        with pytest.raises(InputError) as got:
            composite_action_array(k, den)
        assert str(got.value) == str(want.value)

    def test_composite_tail_images(self):
        entry = catalog("composite", grid_step=F(1, 4), index_max=3)
        nums, dens = entry.map.array_func(entry.space.numerator_array, 4)
        tail = [F(a, b) for a, b in zip(nums.tolist()[5:], dens.tolist()[5:])]
        assert tail == [0, 0, 0, F(1, 2), 0, F(2, 3)]

    def test_only_formula_maps_take_an_array_form(self):
        entry = catalog("period2_counterexample")
        with pytest.raises(InputError):
            SelfMap(space=entry.space, name="t", table=(1, 0, 1), array_func=floor_half_array)


class TestSelfMapTable:
    def test_table_must_cover_every_point(self):
        entry = catalog("period2_counterexample")
        with pytest.raises(InputError):
            SelfMap(space=entry.space, name="short", table=(1, 0))

    def test_images_must_be_points(self):
        entry = catalog("period2_counterexample")
        with pytest.raises(InputError):
            SelfMap(space=entry.space, name="bad", table=(1, 0, 9))

    def test_json_roundtrip(self):
        entry = catalog("period2_counterexample")
        doc = entry.map.to_json()
        assert doc["map"] == [1, 0, 1]
        back = SelfMap.from_json(doc)
        assert back.table == entry.map.table
        assert back.space == entry.space

    def test_formula_maps_do_not_serialize(self):
        entry = catalog("burton_logistic")
        with pytest.raises(InputError):
            entry.map.to_json()


class TestResolvePoint:
    def test_finite_labels(self):
        entry = catalog("period2_counterexample")
        assert resolve_point(entry.space, "2") == 2

    def test_sampled_rationals(self):
        entry = catalog("burton_logistic")
        assert resolve_point(entry.space, "1/2") == F(1, 2)

    def test_unknown_label(self):
        entry = catalog("period2_counterexample")
        with pytest.raises(InputError):
            resolve_point(entry.space, "9")
