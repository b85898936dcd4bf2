import dataclasses
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import distinct_iterates_loops

from contraction_lab import classify, dynamics, theorem_lab
from contraction_lab.dynamics import (
    certify_fixed_point,
    check_distinct_iterates,
    check_perimeter_decrease,
    detect_period2,
    enumerate_fixed_points,
    geometric_decay_check,
    picard_orbit,
)
from contraction_lab.classify import estimate_large_tpc_modulus
from contraction_lab.map_catalog import SelfMap, apply, catalog
from contraction_lab.metric_core import (
    FiniteMetricSpace,
    InputError,
    SampledSpace,
    exact_lattice,
    perimeter,
)


def line_space(coords):
    coords = [F(c) for c in coords]
    table = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    return FiniteMetricSpace(points=tuple(range(len(coords))), dist_table=table)


class TestPicardOrbit:
    def test_logistic_orbit_closed_form(self):
        entry = catalog("burton_logistic")
        trace = picard_orbit(entry.map, F(1), max_steps=200)
        assert trace.halted_by == "budget"
        assert len(trace.states) == 201
        for n, state in enumerate(trace.states):
            assert state == F(1, n + 1)
        assert trace.orbit_bound == F(200, 201)
        assert trace.residual == F(1, 201) - F(1, 202)

    def test_states_follow_the_map(self):
        entry = catalog("composite", grid_step=F(1, 16), index_max=4)
        trace = picard_orbit(entry.map, F(9), max_steps=12)
        for n in range(len(trace.states) - 1):
            assert trace.states[n + 1] == apply(entry.map, trace.states[n])
        for n in range(len(trace.states) - 2):
            assert trace.perimeters[n] == perimeter(
                entry.space, trace.states[n], trace.states[n + 1], trace.states[n + 2])

    def test_two_cycle_halt_from_2(self):
        entry = catalog("period2_counterexample")
        trace = picard_orbit(entry.map, 2, max_steps=16)
        assert trace.halted_by == "period-2"
        assert trace.states == (2, 1, 0, 1, 0)
        assert trace.period2_entry == 1
        assert trace.perimeters == (F(4), F(2), F(2))
        assert trace.orbit_bound == 2

    def test_two_cycle_halt_from_0(self):
        entry = catalog("period2_counterexample")
        trace = picard_orbit(entry.map, 0, max_steps=16)
        assert trace.states == (0, 1, 0, 1)
        assert trace.orbit_bound == 1

    def test_fixed_start_halts_immediately(self):
        entry = catalog("floor_half")
        trace = picard_orbit(entry.map, F(0), max_steps=8)
        assert trace.halted_by == "fixed-point"
        assert trace.states == (F(0),)
        assert trace.residual == 0

    def test_halving_orbit_reaches_zero(self):
        entry = catalog("floor_half")
        trace = picard_orbit(entry.map, F(256), max_steps=64)
        assert trace.halted_by == "fixed-point"
        assert trace.final_state == 0
        assert len(trace.states) == 10  # 256 halves to 0 in 9 steps

    def test_budget_too_small_rejected(self):
        entry = catalog("floor_half")
        with pytest.raises(InputError):
            picard_orbit(entry.map, F(8), max_steps=1)

    def test_halt_disabled_runs_to_budget(self):
        entry = catalog("period2_counterexample")
        trace = picard_orbit(entry.map, 2, max_steps=20, halt_on_period2=False)
        assert trace.halted_by == "budget"
        assert len(trace.states) == 21


class TestPerimeterDecrease:
    def test_logistic_orbit_strictly_decreases(self):
        entry = catalog("burton_logistic")
        trace = picard_orbit(entry.map, F(1), max_steps=50)
        ok, idx, _ = check_perimeter_decrease(trace)
        assert ok and idx is None
        # direct form on this orbit: P_n = 2 (x_n - x_{n+2})
        for n in range(len(trace.perimeters)):
            assert trace.perimeters[n] == 2 * (trace.states[n] - trace.states[n + 2])

    def test_two_cycle_fails_where_perimeter_plateaus(self):
        entry = catalog("period2_counterexample")
        trace = picard_orbit(entry.map, 2, max_steps=16)
        ok, idx, detail = check_perimeter_decrease(trace)
        assert not ok and idx == 1
        assert "P_2" in detail and "P_1" in detail

    def test_fixed_start_is_vacuous_pass(self):
        entry = catalog("floor_half")
        trace = picard_orbit(entry.map, F(0), max_steps=8)
        ok, idx, detail = check_perimeter_decrease(trace)
        assert ok and "vacuous" in detail

    def test_short_budget_trace_rejected(self):
        entry = catalog("burton_logistic")
        trace = picard_orbit(entry.map, F(1), max_steps=2)
        with pytest.raises(InputError):
            check_perimeter_decrease(trace)


@st.composite
def iterate_traces(draw):
    """A trace's states, space and halt: states from a small pool, so that they repeat, on a
    finite or a sampled space (ints and Fractions of one value are one state), ending free,
    in a fixed-point tail or with a period-2 extension (Tx, x, Tx)."""
    if draw(st.booleans()):
        space, pool = line_space(range(6)), list(range(6))
    else:
        space = catalog("burton_logistic", grid_step=F(1, 8)).space
        pool = [F(k, 8) for k in range(8)] + [0]
    states = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    end = draw(st.sampled_from(("free", "tail", "period-2")))
    if end == "tail":
        states += [states[-1]] * draw(st.integers(1, 4))
    elif end == "period-2":
        image = draw(st.sampled_from(pool))
        states += [image, states[-1], image]
    halted_by = "fixed-point" if end == "tail" else draw(st.sampled_from(theorem_lab.HALTS))
    return SimpleNamespace(space=space, states=tuple(states), halted_by=halted_by)


class TestDistinctIterates:
    def test_logistic_orbit_distinct(self):
        entry = catalog("burton_logistic")
        trace = picard_orbit(entry.map, F(1), max_steps=40)
        ok, wit, _ = check_distinct_iterates(trace)
        assert ok and wit is None

    def test_two_cycle_repeats(self):
        entry = catalog("period2_counterexample")
        trace = picard_orbit(entry.map, 0, max_steps=16)
        ok, wit, detail = check_distinct_iterates(trace)
        assert not ok and wit == (0, 2)
        assert "x_0" in detail

    def test_constant_map_passes_via_fixed_point_exception(self):
        space = line_space([0, 1, 5])
        const = SelfMap(space=space, name="const", table=(1, 1, 1))
        trace = picard_orbit(const, 0, max_steps=8)
        assert trace.halted_by == "fixed-point"
        ok, _, _ = check_distinct_iterates(trace)
        assert ok

    @given(iterate_traces())
    def test_one_pass_equals_the_pair_loop(self, trace):
        assert check_distinct_iterates(trace) == distinct_iterates_loops(trace)

    def test_each_state_is_keyed_once(self, monkeypatch):
        # 513 distinct states of a 520-point line: the pair loop makes 131 328 eq calls,
        # each indexing two labels
        x = np.arange(520)
        space = FiniteMetricSpace._from_lattice(
            tuple(range(520)), exact_lattice(np.abs(x[:, None] - x), 1), "exact")
        step = SelfMap(space=space, name="step", table=tuple(np.minimum(x + 1, 519).tolist()))
        trace = picard_orbit(step, 0, max_steps=512)
        assert len(trace.states) == 513 and trace.halted_by == "budget"
        keyed, real = [], FiniteMetricSpace.index

        def counting(self, label):
            keyed.append(label)
            return real(self, label)

        monkeypatch.setattr(FiniteMetricSpace, "index", counting)
        assert check_distinct_iterates(trace)[:2] == (True, None)
        assert len(keyed) <= len(trace.states)


class TestDetectPeriod2:
    def test_two_cycle_points(self):
        entry = catalog("period2_counterexample")
        assert detect_period2(entry.space, entry.map) == (0, 1)

    def test_halving_map_has_none(self):
        entry = catalog("floor_half")
        assert detect_period2(entry.space, entry.map) == ()

    def test_logistic_map_has_none(self):
        entry = catalog("burton_logistic", grid_step=F(1, 64))
        assert detect_period2(entry.space, entry.map) == ()


def reflection(c):
    """The map x -> c - x and its array form (map_catalog's array-form contract)."""
    def func(x):
        return c - F(x)

    def array_func(k, den):
        num, d = c.numerator * den - k * c.denominator, c.denominator * den + 0 * k
        g = np.gcd(num, d)
        return num // g, d // g

    return func, array_func


@st.composite
def sampled_maps(draw):
    """A sampled space and a map with an array form.

    The three sampled catalog maps at random truncations (floor_half closes
    over its sample, the others do not), and reflections x -> c - x of random
    samples, with c on the sample's grid or halfway between: every point but
    c/2 has period 2, and its image may lie on or off the sample.
    """
    kind = draw(st.sampled_from(("burton_logistic", "floor_half", "composite", "reflection")))
    if kind == "burton_logistic":
        return catalog(kind, grid_step=F(1, draw(st.integers(1, 300)))).map
    if kind == "floor_half":
        return catalog(kind, integer_max=draw(st.integers(2, 300))).map
    if kind == "composite":
        return catalog(kind, grid_step=F(1, draw(st.integers(1, 60))),
                       index_max=draw(st.integers(1, 30))).map
    den = draw(st.integers(1, 12))
    nums = sorted(draw(st.sets(st.integers(-40, 40), min_size=1, max_size=40)))
    c = F(draw(st.integers(-80, 80)), draw(st.sampled_from((den, 2 * den))))
    func, array_func = reflection(c)
    space = SampledSpace("reflection", denominator=den, numerators=tuple(nums))
    return SelfMap(space=space, name="reflection", func=func, array_func=array_func)


def outcome(call, *args):
    """A call's result, or the message of the InputError it raised."""
    try:
        return call(*args)
    except InputError as exc:
        return str(exc)


class TestSampledArrayPath:
    @given(sampled_maps())
    def test_array_path_equals_the_per_point_path(self, mapping):
        space, plain = mapping.space, dataclasses.replace(mapping, array_func=None)
        for call in (detect_period2, enumerate_fixed_points, theorem_lab._enumerable):
            assert outcome(call, space, mapping) == outcome(call, space, plain), call.__name__

    def test_reflections_find_their_two_cycles_on_and_off_the_sample(self):
        space = SampledSpace("reflection", denominator=2, numerators=(0, 1, 2, 3, 4))
        for c, closed in ((F(2), True), (F(9, 4), False)):
            mapping = SelfMap(space=space, name="reflection", func=reflection(c)[0],
                              array_func=reflection(c)[1])
            want = tuple(x for x in space.point_set() if x != c / 2)
            assert detect_period2(space, mapping) == want
            assert theorem_lab._enumerable(space, mapping) is closed

    @pytest.mark.parametrize("cid, params", [
        ("floor_half", {"integer_max": 64}),
        ("burton_logistic", {"grid_step": F(1, 32)}),
        ("composite", {"grid_step": F(1, 8), "index_max": 6})])
    def test_sampled_verdicts_apply_the_map_only_along_orbits(self, monkeypatch, cid, params):
        # membership, fixed points and period-2 points come from the array form
        calls, in_orbit = {"orbit": 0, "other": 0}, [False]
        real_apply, real_orbit = apply, dynamics.picard_orbit

        def spy_apply(mapping, x):
            calls["orbit" if in_orbit[0] else "other"] += 1
            return real_apply(mapping, x)

        def spy_orbit(*args, **kwargs):
            in_orbit[0] = True
            try:
                return real_orbit(*args, **kwargs)
            finally:
                in_orbit[0] = False

        for module in (dynamics, theorem_lab, classify):
            monkeypatch.setattr(module, "apply", spy_apply)
        monkeypatch.setattr(dynamics, "picard_orbit", spy_orbit)
        entry = catalog(cid, **params)
        x0 = F(entry.space.numerators[-1], entry.space.denominator)
        for theorem in theorem_lab.THEOREM_IDS:
            theorem_lab.verdict(theorem, entry.space, entry.map, x0=x0)
        assert calls["other"] == 0 and calls["orbit"] > 0


class TestCertifyFixedPoint:
    def test_zero_is_fixed_for_logistic(self):
        entry = catalog("burton_logistic")
        cert = certify_fixed_point(entry.map, F(0))
        assert cert is not None and cert.residual == 0 and cert.tolerance == 0

    def test_zero_is_fixed_for_halving(self):
        entry = catalog("floor_half")
        assert certify_fixed_point(entry.map, F(0)) is not None

    def test_two_cycle_rejects_everywhere(self):
        entry = catalog("period2_counterexample")
        for x in entry.space.point_set():
            assert certify_fixed_point(entry.map, x) is None

    def test_tolerance_certificate(self):
        entry = catalog("burton_logistic")
        cert = certify_fixed_point(entry.map, F(1, 1000), tol=F(1, 100))
        assert cert is not None and cert.residual <= F(1, 100)


class TestEnumerateFixedPoints:
    def test_two_cycle_has_none(self):
        entry = catalog("period2_counterexample")
        assert enumerate_fixed_points(entry.space, entry.map) == ()

    def test_halving_has_only_zero(self):
        entry = catalog("floor_half")
        assert enumerate_fixed_points(entry.space, entry.map) == (F(0),)

    def test_identity_fixes_everything(self):
        space = line_space([0, 1, 2])
        identity = SelfMap(space=space, name="id", table=(0, 1, 2))
        assert enumerate_fixed_points(space, identity) == (0, 1, 2)

    def test_non_closing_sample_rejected(self):
        entry = catalog("burton_logistic", grid_step=F(1, 16))
        with pytest.raises(InputError):
            enumerate_fixed_points(entry.space, entry.map)


class TestGeometricDecay:
    def test_logistic_orbit_satisfies_bound(self):
        entry = catalog("burton_logistic")
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map)
        trace = picard_orbit(entry.map, F(1), max_steps=200)
        diag = geometric_decay_check(trace, table, F(1, 4))
        assert not diag.vacuous
        assert diag.ok and diag.violations == ()
        # every listed pair genuinely qualifies
        for r in diag.records:
            assert r.separation >= F(1, 4)
            assert r.separation <= r.perimeter  # d(x_m,x_n) <= P(x_{m+1},x_m,x_n)

    def test_no_qualifying_pairs_is_vacuous_pass(self):
        entry = catalog("burton_logistic")
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map)
        trace = picard_orbit(entry.map, F(1, 2), max_steps=30)
        diag = geometric_decay_check(trace, table, F(3))
        assert diag.vacuous and diag.ok

    def test_two_cycle_orbit_eventually_violates_bound(self):
        entry = catalog("period2_counterexample")
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map)
        trace = picard_orbit(entry.map, 2, max_steps=24, halt_on_period2=False)
        diag = geometric_decay_check(trace, table, F(1, 2))
        assert not diag.ok
        first = diag.violations[0]
        assert first.perimeter > first.bound
        # separated pairs persist forever while the bound decays geometrically
        assert any(r.n >= 3 for r in diag.violations)

    def test_uncovered_eps_rejected(self):
        entry = catalog("period2_counterexample")
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map, eps_grid=(F(1),))
        with pytest.raises(InputError):
            geometric_decay_check(
                picard_orbit(entry.map, 2, max_steps=8), table, F(1, 2))

    def test_long_traces_use_a_deterministic_stride(self):
        entry = catalog("burton_logistic")
        table, _ = estimate_large_tpc_modulus(entry.space, entry.map)
        trace = picard_orbit(entry.map, F(1), max_steps=700)
        diag1 = geometric_decay_check(trace, table, F(1, 4))
        diag2 = geometric_decay_check(trace, table, F(1, 4))
        assert diag1.records == diag2.records
        assert diag1.ok
        sampled_n = {r.n for r in diag1.records}
        assert all(n % 2 == 0 for n in sampled_n)  # stride 2 at 700 states
        # the stride and the pairs n < m < 700 it leaves out are reported
        checked = sum(1 for n in range(0, 700, 2) for m in range(n + 1, 700, 2))
        assert (diag1.stride, diag1.pairs_left_out) == (2, 700 * 699 // 2 - checked)
        assert (diag1.to_json()["stride"], diag1.to_json()["pairs_left_out"]) == (
            2, diag1.pairs_left_out)
        assert diag1.pairs_left_out > 0
        short = geometric_decay_check(picard_orbit(entry.map, F(1), max_steps=200), table,
                                      F(1, 4))
        assert (short.to_json()["stride"], short.to_json()["pairs_left_out"]) == (1, 0)

    def test_delta_lookup_steps_down(self):
        entry = catalog("period2_counterexample")
        table, _ = estimate_large_tpc_modulus(
            entry.space, entry.map, eps_grid=(F(1, 8), F(1, 2), F(1)))
        trace = picard_orbit(entry.map, 2, max_steps=8, halt_on_period2=False)
        diag = geometric_decay_check(trace, table, F(1, 2))
        assert diag.delta_eps == F(1, 8)  # largest grid value <= (1/2)/3
        assert diag.delta == F(1, 2)


class TestTraceSerialization:
    def test_json_fields(self):
        entry = catalog("period2_counterexample")
        doc = picard_orbit(entry.map, 2, max_steps=16).to_json()
        assert doc["states"] == [2, 1, 0, 1, 0]
        assert doc["halted_by"] == "period-2"
        assert doc["perimeters"] == ["4", "2", "2"]

    def test_csv_layout(self):
        entry = catalog("burton_logistic")
        text = picard_orbit(entry.map, F(1), max_steps=4).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "n,x_n,step_dist,perimeter"
        assert len(lines) == 6
        assert lines[1].startswith("0,1.0,")
        assert lines[-1].split(",")[2] == ""  # no step distance at the last state
