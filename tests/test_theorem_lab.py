import json
import random
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import closure_loops, search_loops, stdlib_draw

from contraction_lab import classify, cli, dynamics, metric_core, scan, theorem_lab
from contraction_lab.map_catalog import SelfMap, apply, catalog
from contraction_lab.metric_core import (
    FiniteMetricSpace,
    InputError,
    InternalConsistencyError,
    Lattice,
    exact_lattice,
    max_side,
    perimeter,
    shortest_path_closure,
)
from contraction_lab.theorem_lab import (
    SearchConfig,
    minimize_refutation,
    random_instance,
    run_validation,
    search_refutations,
    seeded_counterexample,
    verdict,
)


def line_instance(coords, images):
    coords = [F(c) for c in coords]
    table = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    space = FiniteMetricSpace(points=tuple(range(len(coords))), dist_table=table)
    return space, SelfMap(space=space, name="test", table=tuple(images))


def fraction_instance(config, trial):
    """random_instance from Fraction rows closed by the loop oracle."""
    n, ks, images = theorem_lab._draw(config, trial)
    table = [[F(0)] * n for _ in range(n)]
    for (i, j), k in zip(combinations(range(n), 2), ks):
        table[i][j] = table[j][i] = F(k, config.denominator)
    space = FiniteMetricSpace(points=tuple(range(n)), dist_table=closure_loops(table, True))
    return space, SelfMap(space=space, name=f"random[{config.seed}:{trial}]",
                          table=tuple(images))


def fraction_restrict(space, mapping, keep):
    """theorem_lab._restrict from the space's Fraction rows."""
    idx = [space.index(p) for p in keep]
    table = [[space.dist_table[i][j] for j in idx] for i in idx]
    sub_space = FiniteMetricSpace(points=tuple(keep), dist_table=table, mode=space.mode)
    return sub_space, SelfMap(space=sub_space, name=mapping.name + "|restricted",
                              table=tuple(mapping.table[i] for i in idx))


def twin_instances(seed, n):
    """A random exact instance of n points and its float twin, with the drawn map."""
    space, mapping = random_instance(SearchConfig(seed=seed, trials=1, size_min=n, size_max=n),
                                     0)
    twin = space.in_mode("float")
    return [(space, mapping), (twin, SelfMap(space=twin, name=mapping.name, table=mapping.table))]


def primes_above(q, count):
    primes = []
    while len(primes) < count:
        q += 1
        if all(q % f for f in range(2, int(q ** 0.5) + 1)):
            primes.append(q)
    return primes


def wide_instance(rng):
    """24 points at distances m / p, p <= m < 2p, p the ((i + j) mod 24)-th prime above
    10**6: a metric whose lattice holds Python ints, mapped into a pool of three points."""
    primes = primes_above(10 ** 6, 24)
    table = [[F(0)] * 24 for _ in range(24)]
    for i, j in combinations(range(24), 2):
        p = primes[(i + j) % 24]
        table[i][j] = table[j][i] = F(rng.randrange(p, 2 * p), p)
    space = FiniteMetricSpace(points=tuple(range(24)), dist_table=table)
    assert space.lattice.values.dtype == object
    pool = rng.sample(range(24), 3)
    return space, SelfMap(space=space, name="wide", table=tuple(rng.choice(pool)
                                                               for _ in range(24)))


def late_violation_instance():
    """40 points on a line, 0..36 and then 100, 101, 102.  Points below 37 go to 36 and the
    rest stay, so the lex-first strict violation of pairs is (36, 37) and of triples is
    (36, 37, 38), past the first block of triples."""
    space, _ = line_instance(list(range(37)) + [100, 101, 102], [0] * 40)
    return space, SelfMap(space=space, name="late", table=(36,) * 37 + (37, 38, 39))


def float_tie_instance():
    """A float table whose triple (0, 1, 2) and its image (1, 2, 0) have perimeters 0.1 + 0.2
    + 0.3 = 0.6000000000000001 and 0.2 + 0.3 + 0.1 = 0.6: below it, but within ETA."""
    table = [[0.0, 0.1, 0.3, 2.0], [0.1, 0.0, 0.2, 2.0], [0.3, 0.2, 0.0, 2.0],
             [2.0, 2.0, 2.0, 0.0]]
    space = FiniteMetricSpace(points=(0, 1, 2, 3), dist_table=table, mode="float")
    return space, SelfMap(space=space, name="float-tie", table=(1, 2, 0, 0))


def constant_instances(n):
    """A random exact table of n points and its float twin, all mapped to point 0: strict
    decrease holds."""
    return [(space, SelfMap(space=space, name="constant", table=(0,) * n))
            for space, _ in twin_instances(8, n)]


def strict_search_instances():
    """Finite instances whose strict searches stop early, late, or read every block."""
    instances = twin_instances(5, 40) + twin_instances(6, 88)
    instances += constant_instances(40)
    instances += [wide_instance(random.Random(21)), late_violation_instance(),
                  float_tie_instance()]
    return instances


class TestVerdicts:
    def test_uncorrected_statement_refuted_by_two_cycle(self):
        space, mapping = seeded_counterexample()
        v = verdict("mesmouli_uncorrected", space, mapping, x0=0)
        assert v.status == "refuted"
        assert v.hypotheses_pass
        assert v.fixed_points == ()
        assert v.fixed_point_exists == "fail"
        names = [h.name for h in v.hypotheses]
        assert names == ["large_tpc", "bounded_orbit"]

    def test_corrected_statement_inapplicable_on_two_cycle(self):
        space, mapping = seeded_counterexample()
        v = verdict("corrected_main", space, mapping, x0=0)
        assert v.status == "inapplicable"
        period_hyp = [h for h in v.hypotheses if h.name == "no_period2"][0]
        assert period_hyp.status == "fail"
        # the recorded witnesses really are period-2 points
        for w in period_hyp.witness:
            x = int(w)
            assert apply(mapping, apply(mapping, x)) == x and apply(mapping, x) != x

    def test_corrected_hypothesis_list(self):
        space, mapping = seeded_counterexample()
        v = verdict("corrected_main", space, mapping, x0=0)
        assert [h.name for h in v.hypotheses] == ["large_tpc", "no_period2",
                                                  "bounded_orbit"]

    def test_petrov_inapplicable_on_two_cycle(self):
        space, mapping = seeded_counterexample()
        v = verdict("petrov", space, mapping, x0=0)
        assert v.status == "inapplicable"
        assert [h.name for h in v.hypotheses] == ["uniform_tpc", "no_period2"]

    def test_burton_inapplicable_on_two_cycle(self):
        space, mapping = seeded_counterexample()
        v = verdict("burton", space, mapping, x0=0)
        assert v.status == "inapplicable"  # pairwise contraction fails at (0,1)

    def test_corrected_confirmed_on_halving_map(self):
        entry = catalog("floor_half")
        v = verdict("corrected_main", entry.space, entry.map, x0=F(256))
        assert v.status == "confirmed"
        assert v.fixed_points == (F(0),)
        assert v.count_le_two == "pass"
        assert v.scope_qualified

    def test_burton_confirmed_on_strict_contraction(self):
        space, mapping = line_instance([0, 1, 3], [0, 0, 0])
        v = verdict("burton", space, mapping, x0=2)
        assert v.status == "confirmed"
        assert v.unique == "pass"

    @pytest.mark.parametrize("theorem", theorem_lab.THEOREM_IDS)
    def test_one_scan_verdicts_match_the_full_report(self, theorem):
        # verdict runs only the scan its hypotheses read; fed a full_report,
        # it reads that report instead, and both give the same verdict
        instances = [seeded_counterexample(), line_instance([0, 1, 3], [0, 1, 0])]
        instances += [random_instance(SearchConfig(seed=4, trials=6), t) for t in range(6)]
        for entry in (catalog("floor_half", integer_max=40),
                      catalog("burton_logistic", grid_step=F(1, 16)),
                      catalog("composite", grid_step=F(1, 8), index_max=3)):
            instances.append((entry.space, entry.map))
        instances += strict_search_instances()
        unused = "_triple_verdicts" if theorem == "burton" else "_pair_verdicts"
        for space, mapping in instances:
            x0 = space.point_set()[0]
            want = verdict(theorem, space, mapping, x0=x0,
                           report=classify.full_report(space, mapping))
            with mock.patch.object(classify, unused, side_effect=AssertionError(unused)):
                got = verdict(theorem, space, mapping, x0=x0)
            assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("theorem", ("burton", "mesmouli_uncorrected", "corrected_main"))
    def test_finite_large_verdicts_come_from_the_strict_search(self, theorem):
        # no reduction of buckets, screen or witnesses: the search reads blocks until the
        # first strict violation, one block when it lies in row 0, every block when none
        instances = strict_search_instances()
        identity = instances[0][0], SelfMap(space=instances[0][0], name="identity",
                                            table=tuple(range(40)))
        triple_blocks = len(list(scan._triple_blocks(40, np.triu_indices(40, 1)[0])))
        assert triple_blocks > 1
        n_blocks = 1 if theorem == "burton" else triple_blocks     # of 40 points
        for space, mapping in instances + [identity]:
            with mock.patch.object(scan, "_LatticeReduction",
                                   side_effect=AssertionError("_LatticeReduction")), \
                    mock.patch.object(scan, "_strict_item", wraps=scan._strict_item) as spy:
                v = verdict(theorem, space, mapping, x0=space.points[0])
            large = v.hypotheses[0]
            if mapping.name == "identity":
                assert large.status == "fail" and spy.call_count == 1
            elif mapping.name == "constant":
                assert large.status == "pass" and spy.call_count == n_blocks
            elif mapping.name == "late":      # in the last block of triples
                assert large.witness["x"] == 36 and spy.call_count == n_blocks
            elif mapping.name == "float-tie" and theorem != "burton":
                assert (large.witness["perimeter"], large.witness["image_perimeter"]) == (
                    0.6000000000000001, 0.6)

    @pytest.mark.parametrize("theorem", ("burton", "mesmouli_uncorrected", "corrected_main"))
    @pytest.mark.parametrize("eps_grid", (None, (F(1), F(1, 2))))
    def test_strict_search_refuses_inputs_as_the_scans_do(self, theorem, eps_grid):
        # the eps grid is checked first, then the distances: a zero one is refused
        space = FiniteMetricSpace(points=(0, 1, 2), dist_table=(
            (F(0), F(0), F(1)), (F(0), F(0), F(1)), (F(1), F(1), F(0))))
        mapping = SelfMap(space=space, name="zero", table=(0, 0, 0))
        with pytest.raises(InputError) as want:
            classify.full_report(space, mapping, eps_grid=eps_grid)
        with pytest.raises(InputError) as got:
            verdict(theorem, space, mapping, x0=0, eps_grid=eps_grid)
        assert str(got.value) == str(want.value)
        assert ("ascending" if eps_grid else "not positive") in str(got.value)

    def test_two_fixed_points_refute_uniqueness_claims(self):
        # 0 and 1 fixed, 3 -> 0: strict perimeter contraction, no 2-cycles
        space, mapping = line_instance([0, 1, 3], [0, 1, 0])
        v = verdict("mesmouli_uncorrected", space, mapping, x0=0)
        assert v.hypotheses_pass
        assert v.fixed_points == (0, 1)
        assert v.status == "refuted"          # claims a unique fixed point
        assert v.unique == "fail"
        v2 = verdict("corrected_main", space, mapping, x0=0)
        assert v2.status == "confirmed"       # allows up to two
        v3 = verdict("petrov", space, mapping, x0=0)
        assert v3.status == "confirmed"

    def test_petrov_confirmed_on_halving_map(self):
        entry = catalog("floor_half", integer_max=64)
        v = verdict("petrov", entry.space, entry.map, x0=F(64))
        assert v.status == "confirmed"
        assert v.unique == "not-claimed"
        assert v.count_le_two == "pass"

    def test_incomplete_space_is_inapplicable(self):
        entry = catalog("burton_logistic", grid_step=F(1, 64))
        v = verdict("corrected_main", entry.space, entry.map, x0=F(1, 2))
        assert v.status == "inapplicable"
        assert any("not complete" in note for note in v.notes)

    def test_unknown_theorem_rejected(self):
        space, mapping = seeded_counterexample()
        with pytest.raises(InputError):
            verdict("banach", space, mapping, x0=0)

    def test_json_shape(self):
        space, mapping = seeded_counterexample()
        doc = verdict("mesmouli_uncorrected", space, mapping, x0=0).to_json()
        assert doc["status"] == "refuted"
        assert doc["conclusion"]["fixed_points"] == []
        assert doc["conclusion"]["unique"] == "fail"
        assert {h["name"] for h in doc["hypotheses"]} == {"large_tpc", "bounded_orbit"}


class TestRandomInstances:
    def test_deterministic_per_trial(self):
        cfg = SearchConfig(seed=1, trials=5)
        a_space, a_map = random_instance(cfg, 0)
        b_space, b_map = random_instance(cfg, 0)
        assert a_space == b_space and a_map.table == b_map.table

    def test_different_trials_differ(self):
        cfg = SearchConfig(seed=1, trials=5)
        a_space, _ = random_instance(cfg, 0)
        b_space, _ = random_instance(cfg, 1)
        assert a_space != b_space

    def test_instances_are_valid_metrics_with_total_maps(self):
        cfg = SearchConfig(seed=3, trials=150)
        for t in range(cfg.trials):
            space, mapping = random_instance(cfg, t)
            assert 3 <= space.size <= 12
            assert space.validate().ok
            assert len(mapping.table) == space.size
            for img in mapping.table:
                assert img in space.points

    def test_trial_index_bound(self):
        cfg = SearchConfig(seed=1, trials=2)
        with pytest.raises(InputError):
            random_instance(cfg, 2)

    def test_size_range_validation(self):
        with pytest.raises(InputError):
            SearchConfig(seed=1, trials=1, size_min=2)
        with pytest.raises(InputError):
            SearchConfig(seed=1, trials=1, size_min=5, size_max=4)
        for denominator in (0, -3):
            with pytest.raises(InputError, match="denominator"):
                SearchConfig(seed=1, trials=1, denominator=denominator)

    @pytest.mark.parametrize("bias", ["uniform", "period2"])
    @pytest.mark.parametrize("size_min, size_max", [(3, 3), (3, 12), (5, 40)])
    def test_draws_match_the_stdlib_calls(self, bias, size_min, size_max):
        # _draw's getrandbits rejection rule against randint and randrange;
        # a range of 1 and powers of two are the rule's edge cases
        for den in (1, 2, 3, 64, 96, 2 ** 40):
            cfg = SearchConfig(seed=den, trials=60, size_min=size_min, size_max=size_max,
                               denominator=den, map_bias=bias)
            for t in range(cfg.trials):
                assert theorem_lab._draw(cfg, t) == stdlib_draw(cfg, t)

    @pytest.mark.parametrize("bias", ["uniform", "period2"])
    def test_draws_and_closure_match_random_instance(self, bias):
        # run_validation's draw and closure of a stack against random_instance's
        # metric_repair, table and map
        cfg = SearchConfig(seed=41, trials=500, map_bias=bias)
        for t in range(cfg.trials):
            space, mapping = random_instance(cfg, t)
            n, ks, images = theorem_lab._draw(cfg, t)
            raw = np.zeros((1, n, n), dtype=np.int64)
            raw[0][np.triu_indices(n, 1)] = ks
            dist = shortest_path_closure(raw + raw.transpose(0, 2, 1))[0]
            assert n == space.size
            assert space.dist_table == tuple(tuple(F(v, cfg.denominator) for v in row)
                                             for row in dist.tolist())
            assert mapping.table == tuple(images)

    @pytest.mark.parametrize("seed, bias", [(3, "uniform"), (7, "period2")])
    def test_instances_match_fraction_row_instances(self, seed, bias):
        # the lattice, its scale and dtype, the fingerprint and the document
        # of every instance equal those built from closed Fraction rows
        cfg = SearchConfig(seed=seed, trials=300, map_bias=bias)
        for t in range(cfg.trials):
            (space, mapping), (ref_space, ref_map) = random_instance(cfg, t), fraction_instance(cfg, t)
            assert space == ref_space and space.lattice.scale == ref_space.lattice.scale
            assert space.lattice.values.dtype == ref_space.lattice.values.dtype
            assert space.lattice.values.tolist() == ref_space.lattice.values.tolist()
            assert space.fingerprint() == ref_space.fingerprint()
            assert mapping.to_json() == ref_map.to_json()

    def test_biased_maps_contain_a_two_cycle(self):
        cfg = SearchConfig(seed=11, trials=30, map_bias="period2")
        for t in range(cfg.trials):
            space, mapping = random_instance(cfg, t)
            has_cycle = any(
                mapping.table[space.index(mapping.table[i])] == space.points[i]
                and mapping.table[i] != space.points[i]
                for i in range(space.size))
            assert has_cycle


class TestSearch:
    def test_seeded_counterexample_always_hits(self):
        cfg = SearchConfig(seed=123, trials=5)
        findings = search_refutations("mesmouli_uncorrected", cfg)
        assert findings.hits >= 1
        assert findings.refutations[0].trial == -1

    def test_corrected_statement_survives_search(self):
        cfg = SearchConfig(seed=123, trials=300)
        findings = search_refutations("corrected_main", cfg)
        assert findings.hits == 0
        assert findings.hypothesis_pass_trials > 0

    def test_biased_search_finds_fresh_refutations(self):
        cfg = SearchConfig(seed=7, trials=60, map_bias="period2")
        findings = search_refutations("mesmouli_uncorrected", cfg)
        assert any(r.trial >= 0 for r in findings.refutations)

    @pytest.mark.parametrize("theorem", ["mesmouli_uncorrected", "corrected_main"])
    @pytest.mark.parametrize("bias", ["uniform", "period2"])
    @pytest.mark.parametrize("seed", [3, 7])
    def test_search_matches_fraction_row_instances(self, monkeypatch, theorem, bias, seed):
        # findings and minimized instances against instances and restrictions
        # built from Fraction rows, closed by the loop oracle
        cfg = SearchConfig(seed=seed, trials=200, map_bias=bias)

        def run():
            findings = search_refutations(theorem, cfg)
            minimized = [minimize_refutation(r.space, r.map, theorem)
                         for r in findings.refutations]
            return (findings.to_json(), [r.space.fingerprint() for r in findings.refutations],
                    [(s.fingerprint(), m.to_json()) for s, m in minimized])

        lattice_run = run()
        monkeypatch.setattr(theorem_lab, "random_instance", fraction_instance)
        monkeypatch.setattr(theorem_lab, "_restrict", fraction_restrict)
        assert run() == lattice_run

    @pytest.mark.parametrize("bias", ["uniform", "period2"])
    @pytest.mark.parametrize("seed", [3, 7])
    def test_search_matches_the_per_trial_loop(self, seed, bias):
        # the batched flags and counts of every theorem, judged by the hypothesis table and
        # _refuted, against a full verdict of every trial
        cfg = SearchConfig(seed=seed, trials=2000, map_bias=bias)
        want = search_loops(cfg, theorem_lab.THEOREM_IDS)
        for theorem in theorem_lab.THEOREM_IDS:
            assert search_refutations(theorem, cfg).to_json() == want[theorem].to_json()
        assert want["mesmouli_uncorrected"].hits > 1     # random trials refute it too

    @pytest.mark.parametrize("theorem", ["mesmouli_uncorrected", "corrected_main"])
    def test_search_builds_only_refuted_trials(self, theorem):
        # one verdict for trial -1 and one per refuted random trial; besides
        # those, random_instance builds only trial 0, for the stream's audit
        cfg = SearchConfig(seed=7, trials=300, map_bias="period2")
        with mock.patch.object(theorem_lab, "verdict", wraps=verdict) as verdicts, \
                mock.patch.object(theorem_lab, "random_instance",
                                  wraps=random_instance) as instances:
            findings = search_refutations(theorem, cfg)
        refuted = [r.trial for r in findings.refutations if r.trial >= 0]
        assert verdicts.call_count == 1 + len(refuted)
        assert [c.args[1] for c in instances.call_args_list] == [0] + refuted
        assert (len(refuted) > 0) == (theorem == "mesmouli_uncorrected")

    def test_search_refuses_a_denominator_past_int64_sums(self):
        with pytest.raises(InputError, match="denominator"):
            search_refutations("corrected_main",
                               SearchConfig(seed=1, trials=1, denominator=2 ** 62))
        SearchConfig(seed=1, trials=1, denominator=(2 ** 63 - 1) // 3)   # 3 x den fits
        with pytest.raises(InputError, match="denominator"):
            SearchConfig(seed=1, trials=1, denominator=(2 ** 63 - 1) // 3 + 1)

    def test_search_refuses_an_unknown_theorem_id(self):
        # with verdict's message, before any trial is swept
        with mock.patch.object(theorem_lab, "_sweep", side_effect=AssertionError("_sweep")), \
                pytest.raises(InputError, match="unknown theorem id 'banach'"):
            search_refutations("banach", SearchConfig(seed=1, trials=1))

    def test_findings_serialize_and_reverify(self):
        cfg = SearchConfig(seed=7, trials=60, map_bias="period2")
        findings = search_refutations("mesmouli_uncorrected", cfg)
        doc = findings.to_json()
        assert doc["hits"] == findings.hits
        # round-trip a refutation and re-verify it still refutes
        ref = findings.refutations[-1]
        mapping = SelfMap.from_json(ref.to_json()["instance"])
        again = verdict("mesmouli_uncorrected", mapping.space, mapping,
                        x0=mapping.space.points[0])
        assert again.status == "refuted"


class TestMinimize:
    def test_three_point_instance_is_already_minimal(self):
        space, mapping = seeded_counterexample()
        m_space, m_map = minimize_refutation(space, mapping)
        assert m_space.size == 3
        assert m_map.table == mapping.table

    def test_padded_instance_shrinks_to_core(self):
        # the 2-cycle on {0,1,2} padded with faraway points mapping into it
        space, mapping = line_instance([0, 1, 2, 10, 20, 30],
                                       [1, 0, 1, 1, 1, 1])
        v = verdict("mesmouli_uncorrected", space, mapping, x0=0)
        assert v.status == "refuted"
        m_space, m_map = minimize_refutation(space, mapping)
        assert m_space.size == 3
        assert {0, 1} <= set(m_space.points)  # the 2-cycle itself survives
        again = verdict("mesmouli_uncorrected", m_space, m_map,
                        x0=m_space.points[0])
        assert again.status == "refuted"

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_restriction_is_the_canonical_lattice(self, mode):
        # dropping the point at 1/2 leaves whole distances: the scale goes from 2 to 1
        space, mapping = line_instance([0, F(1, 2), 1, 3, 7], [0, 0, 0, 2, 2])
        space = space.in_mode(mode)
        sub_space, sub_map = theorem_lab._restrict(space, mapping, (0, 2, 3, 4))
        ref_space, ref_map = fraction_restrict(space, mapping, (0, 2, 3, 4))
        assert sub_space.lattice.scale == ref_space.lattice.scale == 1
        assert sub_space.lattice.values.dtype == ref_space.lattice.values.dtype
        assert sub_space.fingerprint() == ref_space.fingerprint()
        assert sub_map.to_json() == ref_map.to_json()

    def test_non_refuting_input_rejected(self):
        space, mapping = line_instance([0, 1, 3], [0, 0, 0])
        with pytest.raises(InputError):
            minimize_refutation(space, mapping)

    def test_known_verdict_is_not_computed_again(self, monkeypatch):
        findings = search_refutations("mesmouli_uncorrected",
                                      SearchConfig(seed=3, trials=60, map_bias="period2"))
        assert findings.hits >= 3
        want = [minimize_refutation(r.space, r.map) for r in findings.refutations]
        judged, real = [], theorem_lab.verdict

        def spy(theorem_id, space, mapping, **kwargs):
            judged.append(space)
            return real(theorem_id, space, mapping, **kwargs)

        monkeypatch.setattr(theorem_lab, "verdict", spy)
        got = [minimize_refutation(r.space, r.map, known_verdict=r.verdict)
               for r in findings.refutations]
        assert [(m.to_json(), s.size) for s, m in got] == [(m.to_json(), s.size) for s, m in want]
        assert not any(space is r.space for space in judged for r in findings.refutations)

    def test_known_verdict_that_does_not_refute_is_rejected(self):
        space, mapping = line_instance([0, 1, 3], [0, 0, 0])
        held = verdict("mesmouli_uncorrected", space, mapping, x0=0)
        assert held.status != "refuted"
        with pytest.raises(InputError):
            minimize_refutation(space, mapping, known_verdict=held)


def empty_sweep(trials):
    return {
        "trials": trials,
        "corrected_hypotheses_pass": 0,
        "corrected_conclusion_violations": [],
        "uniform_tpc_pass": 0,
        "petrov_count_violations": [],
        "large_contraction_pass": 0,
        "burton_uniqueness_violations": [],
        "two_fixed_point_trials": [],
        "orbit_halt_violations": [],
        "halt_membership_violations": [],
        "perimeter_decrease_violations": [],
        "pair_domination_violations": [],
        "perimeter_third_violations": [],
        "orbits_checked": 0,
    }


def oracle_trial(out, trial, space, mapping):
    """One trial of the per-trial validation loop: the oracle run_validation batches.

    Returns the trial's facts as _sweep_batch returns them per instance: its
    flags by name of theorem_lab._SWEPT, its fixed points, its period-2
    points, and per start point the orbit's halt and number of states.
    """
    report = classify.full_report(space, mapping)
    fps = dynamics.enumerate_fixed_points(space, mapping)
    period2 = dynamics.detect_period2(space, mapping)

    pts = space.points
    for i, j, k in combinations(range(space.size), 3):
        if perimeter(space, pts[i], pts[j], pts[k]) > 3 * max_side(space, pts[i], pts[j],
                                                                   pts[k]):
            out["perimeter_third_violations"].append({"trial": trial, "triple": (i, j, k)})
            break

    if report.large_contraction.passed:
        out["large_contraction_pass"] += 1
        if len(fps) != 1:
            out["burton_uniqueness_violations"].append(
                {"trial": trial, "fixed_points": list(fps)})
    if report.uniform_tpc.passed and not period2:
        out["uniform_tpc_pass"] += 1
        if not 1 <= len(fps) <= 2:
            out["petrov_count_violations"].append(
                {"trial": trial, "fixed_points": list(fps)})
    corrected_ok = report.large_tpc.passed and not period2
    if corrected_ok:
        out["corrected_hypotheses_pass"] += 1
        if not 1 <= len(fps) <= 2:
            out["corrected_conclusion_violations"].append(
                {"trial": trial, "fixed_points": list(fps)})
        if len(fps) == 2:
            out["two_fixed_point_trials"].append(trial)

    halts = []
    for x0 in space.points:
        trace = dynamics.picard_orbit(mapping, x0, max_steps=space.size + 2,
                                      residual_tol=F(0))
        halts.append((trace.halted_by, len(trace.states)))
        out["orbits_checked"] += 1
        if trace.halted_by == "fixed-point" and trace.final_state not in fps:
            out["halt_membership_violations"].append({"trial": trial, "x0": x0})
        for m in range(len(trace.states) - 1):
            for n in range(m):
                lhs = space.distance(trace.states[m], trace.states[n])
                rhs = perimeter(space, trace.states[m + 1], trace.states[m],
                                trace.states[n])
                if lhs > rhs:
                    out["pair_domination_violations"].append(
                        {"trial": trial, "x0": x0, "m": m, "n": n})
        if corrected_ok:
            if trace.halted_by != "fixed-point" or len(trace.states) > space.size + 1:
                out["orbit_halt_violations"].append({"trial": trial, "x0": x0,
                                                     "halted_by": trace.halted_by})
            if len(trace.perimeters) >= 2:
                ok, idx, _ = dynamics.check_perimeter_decrease(trace)
                if not ok:
                    out["perimeter_decrease_violations"].append(
                        {"trial": trial, "x0": x0, "index": idx})
    flags = {name: getattr(report, name).passed for name in theorem_lab._SWEPT[:3]}
    return flags | {"no_period2": not period2}, fps, period2, tuple(halts)


def oracle_validation(config):
    out = empty_sweep(config.trials)
    for trial in range(config.trials):
        space, mapping = random_instance(config, trial)
        oracle_trial(out, trial, space, mapping)
    return out


def table_instance(rows, images, den):
    n = len(rows)
    space = FiniteMetricSpace(points=tuple(range(n)),
                              dist_table=tuple(tuple(F(v, den) for v in row) for row in rows))
    return space, SelfMap(space=space, name="table", table=tuple(images))


def non_metric_instances(rng, n, count):
    """Integer tables with zero, negative and asymmetric off-diagonal entries.

    The diagonal is zero and the entries d(i, j), i < j, are positive: they
    are the scans' pair distances, which must be.  So every triple perimeter
    d(i,j) + d(j,k) + d(i,k), i < j < k, is positive.  The entries below the
    diagonal, read by image distances and orbits, may be zero or negative.
    Maps draw from a few points, which often makes the strict perimeter test
    pass, and half of them contain a cycle of three.
    """
    found = []
    while len(found) < count:
        rows = [[0 if i == j else rng.choice((1, 2, 3, 4) if i < j else (-1, 0, 1, 2, 3, 4))
                 for j in range(n)] for i in range(n)]
        if rng.random() < 0.3:
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        if any(rows[i][j] + rows[j][k] + rows[i][k] <= 0
               for i, j, k in combinations(range(n), 3)):
            continue
        pool = rng.sample(range(n), rng.randint(1, min(n, 3)))
        images = [rng.choice(pool) for _ in range(n)]
        if rng.random() < 0.5:
            a, b, c = rng.sample(range(n), 3)
            images[a], images[b], images[c] = b, c, a
        found.append((rows, images))
    return found


def batch_facts(found, b):
    """Instance b's facts from a _sweep_batch result, in oracle_trial's form."""
    flags, fixed, period2, (halted_by, length) = found
    return ({name: bool(values[b]) for name, values in flags.items()},
            tuple(np.flatnonzero(fixed[b]).tolist()), tuple(np.flatnonzero(period2[b]).tolist()),
            tuple(zip(map(theorem_lab.HALTS.__getitem__, halted_by[b].tolist()),
                      length[b].tolist())))


@st.composite
def sweep_batches(draw):
    """(den, tables, maps): 1..6 int tables of one size n in 3..14, in units of 1/den.

    A table is a closed metric, or non-metric as non_metric_instances draws
    them: positive entries above the diagonal, and below it entries that may
    be zero, negative or differ from their mirror.  Entries come from a few
    multiples of den // 4 (ties) or anywhere in [1, den], so that every sum
    of three fits in int64 up to den = (2**63 - 1) // 3.  Maps may draw from
    a pool of 1..3 points, and may be forced to hold a fixed point, a
    2-cycle, both, or a cycle of three.
    """
    n = draw(st.integers(3, 14))
    den = draw(st.sampled_from([1, 3, 64, 2 ** 40 + 15, (2 ** 63 - 1) // 3])
               | st.integers(1, (2 ** 63 - 1) // 3))
    rng = draw(st.randoms(use_true_random=False))
    unit = max(1, den // 4)

    def value():
        return min(rng.randint(1, 4) * unit, den) if rng.random() < 0.7 else rng.randint(1, den)

    tables, maps = [], []
    for _ in range(draw(st.integers(1, 6))):
        rows = [[0] * n for _ in range(n)]
        metric = draw(st.booleans())
        for i, j in combinations(range(n), 2):
            rows[i][j] = value()
            rows[j][i] = rows[i][j] if metric or rng.random() < 0.3 else rng.choice(
                (0, -value(), value()))
        if metric:
            rows = shortest_path_closure(np.array([rows], dtype=np.int64))[0].tolist()
        pool = rng.sample(range(n), rng.randint(1, 3)) if draw(st.booleans()) else range(n)
        images = [rng.choice(pool) for _ in range(n)]
        a, b, c = rng.sample(range(n), 3)
        shape = draw(st.sampled_from(("free", "fixed", "2-cycle", "both", "3-cycle")))
        if shape in ("fixed", "both"):
            images[a] = a
        if shape in ("2-cycle", "both"):
            images[b], images[c] = c, b
        if shape == "3-cycle":
            images[a], images[b], images[c] = b, c, a
        tables.append(rows)
        maps.append(images)
    return den, tables, maps


# Orbit 3 -> 2 -> 1 -> 0 (fixed) with perimeters P(3, 2, 1) = P(2, 1, 0) = 0:
# check_perimeter_decrease passes it as vacuous, and the hypotheses of the
# corrected theorem hold (every sorted triple's perimeter drops under T).
# The pair distances d(i, j), i < j, are positive, as the scans need.
ZERO_PERIMETER_ORBIT = ([[0, 1, 1, 1], [2, 0, 1, 4], [-3, 1, 0, 2], [4, -5, 4, 0]],
                        [0, 0, 1, 2])


class TestValidationSweep:
    def test_small_sweep_has_no_violations(self):
        out = run_validation(SearchConfig(seed=505, trials=250))
        assert out["corrected_conclusion_violations"] == []
        assert out["petrov_count_violations"] == []
        assert out["burton_uniqueness_violations"] == []
        assert out["orbit_halt_violations"] == []
        assert out["halt_membership_violations"] == []
        assert out["perimeter_decrease_violations"] == []
        assert out["pair_domination_violations"] == []
        assert out["perimeter_third_violations"] == []
        # the sweep is not vacuous
        assert out["corrected_hypotheses_pass"] > 0
        assert out["large_contraction_pass"] > 0
        assert out["orbits_checked"] > 0

    @pytest.mark.parametrize("config", [
        SearchConfig(seed=505, trials=150),
        SearchConfig(seed=506, trials=150, map_bias="period2"),
        SearchConfig(seed=507, trials=8, size_min=3, size_max=40, denominator=3),
    ], ids=["uniform", "period2", "sizes-3-40-den-3"])
    def test_batched_sweep_equals_per_trial_oracle(self, config):
        assert run_validation(config) == oracle_validation(config)

    def test_batch_size_does_not_change_the_result(self, monkeypatch):
        config = SearchConfig(seed=508, trials=60, size_min=3, size_max=8)
        whole = run_validation(config)
        monkeypatch.setattr(theorem_lab, "SWEEP_ITEMS", 100)   # batches of 1..3 instances
        assert run_validation(config) == whole

    def test_non_metric_tables_fill_every_violation_list(self):
        # zero distances make fixed-point halts off the fixed-point set,
        # negative ones break pair domination, and asymmetric tables let a
        # cycle of three pass the strict perimeter test, so its orbits run to
        # the budget without a decreasing perimeter
        rng = random.Random(8)
        den = 3
        totals = {}
        for n in range(3, 13):      # every size the sweep draws: orbits of up to 15 states
            batch, expected = [], empty_sweep(0)
            extra = [ZERO_PERIMETER_ORBIT] if n == 4 else []
            for rows, images in extra + non_metric_instances(rng, n, 60):
                space, mapping = table_instance(rows, images, den)
                oracle_trial(expected, len(batch), space, mapping)
                batch.append((rows, images))
            got = empty_sweep(0)
            theorem_lab._sweep_batch(got, list(range(len(batch))),
                                     np.array([r for r, _ in batch], dtype=np.int64),
                                     np.array([m for _, m in batch], dtype=np.intp))
            assert got == expected
            for key, value in got.items():
                totals[key] = totals.get(key, 0) + (len(value) if isinstance(value, list)
                                                    else value)
        for key in ("halt_membership_violations", "pair_domination_violations",
                    "orbit_halt_violations", "perimeter_decrease_violations"):
            assert totals[key] > 0, key

    @given(sweep_batches())
    def test_batch_equals_per_trial_oracle(self, drawn):
        den, tables, maps = drawn
        expected, facts = empty_sweep(0), []
        for b, (rows, images) in enumerate(zip(tables, maps)):
            space, mapping = table_instance(rows, images, den)
            facts.append(oracle_trial(expected, b, space, mapping))
        got = empty_sweep(0)
        found = theorem_lab._sweep_batch(got, list(range(len(tables))),
                                         np.array(tables, dtype=np.int64),
                                         np.array(maps, dtype=np.intp))
        assert got == expected
        assert [batch_facts(found, b) for b in range(len(tables))] == facts

    def test_each_size_builds_its_grid_once_per_process(self, monkeypatch, tmp_path):
        # the sweep's table fill and scans, the metric check and the table engine share one
        # pair_grid per size
        built = []
        grid = metric_core.PairGrid

        def counting(n):
            built.append(n)
            return grid(n)

        monkeypatch.setattr(metric_core, "PairGrid", counting)
        metric_core.pair_grid.cache_clear()
        first = SearchConfig(seed=509, trials=120)
        whole = run_validation(first)
        run_validation(SearchConfig(seed=510, trials=120))
        coords = range(40)
        rows = [[abs(a - b) for b in coords] for a in coords]
        assert metric_core.validate_metric(rows).ok
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"space": {"points": list(coords), "dist": rows},
                                    "map": [p // 2 for p in coords]}))
        assert cli.main(["classify", "--instance", str(path), "--out", str(tmp_path)]) == 0
        assert sorted(built) == [*range(3, 13), 40]
        monkeypatch.setattr(theorem_lab, "SWEEP_ITEMS", 500)   # batches of 1..18 instances
        assert run_validation(first) == whole
        assert sorted(built) == [*range(3, 13), 40]

    def test_int64_sums_bound_the_denominator(self):
        with pytest.raises(InputError, match="denominator"):
            run_validation(SearchConfig(seed=1, trials=1, denominator=2 ** 62))

    def test_batch_refuses_a_zero_pair_as_full_report_does(self):
        for rows, images, pair in (
                # every triple perimeter is positive, but the pair (0, 1) is at distance 0
                ([[0, 0, 2], [0, 0, 2], [2, 2, 0]], [2, 0, 1], (0, 1)),
                # the pair (0, 2) is at distance -2, and the perimeter of (0, 1, 2) is 0
                ([[0, 1, -2], [1, 0, 1], [-2, 1, 0]], [0, 0, 0], (0, 2))):
            space, mapping = table_instance(rows, images, 1)
            with pytest.raises(InputError) as want:
                classify.full_report(space, mapping)
            with pytest.raises(InputError) as got:
                theorem_lab._sweep_batch(empty_sweep(0), [0], np.array([rows], dtype=np.int64),
                                         np.array([images], dtype=np.intp))
            assert str(got.value) == str(want.value)
            assert "between points %d and %d is not positive" % pair in str(got.value)

    def test_audit_catches_a_batch_that_drifts(self, monkeypatch):
        drift_first_instances(monkeypatch)
        with pytest.raises(InternalConsistencyError, match="trial 0"):
            run_validation(SearchConfig(seed=505, trials=20))

    def test_search_audit_catches_a_batch_that_drifts(self, monkeypatch):
        drift_first_instances(monkeypatch)
        with pytest.raises(InternalConsistencyError, match="trial 0"):
            search_refutations("corrected_main", SearchConfig(seed=505, trials=20))


# (trial, n, ks, images): the ks are the distances d(i, j), i < j, row-major, over den 1.
HAND_WRITTEN = [
    (0, 3, (1, 2, 1), (1, 0, 1)),               # the seeded counterexample: a 2-cycle
    (5, 4, (1, 3, 4, 2, 3, 1), (0, 0, 1, 1)),   # points 0, 1, 3, 4: a strict contraction
    (2, 3, (1, 3, 2), (0, 1, 0)),               # points 0, 1, 3: two fixed points
    (9, 3, (1, 3, 2), (0, 0, 0)),               # points 0, 1, 3: a strict contraction
    (4, 4, (1, 3, 4, 2, 3, 1), (2, 3, 0, 1)),   # two 2-cycles
]


def hand_written_build(trial):
    """The (space, mapping) of HAND_WRITTEN's trial, from Fraction rows."""
    _, n, ks, images = next(entry for entry in HAND_WRITTEN if entry[0] == trial)
    rows = [[0] * n for _ in range(n)]
    for (i, j), k in zip(combinations(range(n), 2), ks):
        rows[i][j] = rows[j][i] = k
    return table_instance(rows, images, 1)


class TestInstanceSources:
    # the sweep takes any source of (trial, n, ks, images) with a build of its trials
    @pytest.mark.parametrize("trials", [0, 1, 37, 250])
    def test_a_list_of_the_first_draws_validates_as_run_validation(self, trials):
        config = SearchConfig(seed=511, trials=trials)
        source = [(t, *theorem_lab._draw(config, t)) for t in range(trials)]
        out, numbers, flags, counts = theorem_lab._sweep(
            source, lambda trial: fraction_instance(config, trial))
        assert out == run_validation(config)
        assert out["trials"] == trials and numbers == list(range(trials))
        want = theorem_lab._sweep(*theorem_lab._draws(config))
        assert {name: values.tolist() for name, values in flags.items()} == {
            name: values.tolist() for name, values in want[2].items()}
        assert counts.tolist() == want[3].tolist()

    def test_a_hand_written_source_is_judged_as_per_trial_verdicts(self, monkeypatch):
        # the sweep, its audit of trial 0 and the judging of all four theorems, against
        # oracle_trial and a full verdict of every trial
        out, numbers, flags, counts = theorem_lab._sweep(iter(HAND_WRITTEN),
                                                         hand_written_build)
        expected = empty_sweep(len(HAND_WRITTEN))
        for trial, *_ in sorted(HAND_WRITTEN):
            oracle_trial(expected, trial, *hand_written_build(trial))
        assert out == expected and numbers == [0, 5, 2, 9, 4]
        assert counts.tolist() == [0, 1, 2, 1, 0]
        config = SearchConfig(seed=0, trials=len(HAND_WRITTEN))
        monkeypatch.setattr(theorem_lab, "_draws",
                            lambda _: (iter(HAND_WRITTEN), hand_written_build))
        instances = [(trial, *hand_written_build(trial)) for trial, *_ in HAND_WRITTEN]
        want = search_loops(config, theorem_lab.THEOREM_IDS, instances)
        for theorem in theorem_lab.THEOREM_IDS:
            assert search_refutations(theorem, config).to_json() == want[theorem].to_json()
        refuted = {theorem: [r.trial for r in want[theorem].refutations]
                   for theorem in theorem_lab.THEOREM_IDS}
        assert refuted == {"burton": [], "petrov": [], "mesmouli_uncorrected": [-1, 0, 2],
                           "corrected_main": []}
        assert want["corrected_main"].two_fixed_point_trials == (2,)
        assert want["burton"].hypothesis_pass_trials == 2        # trials 5 and 9

    def test_audit_reads_a_list_source_from_its_first_trial(self, monkeypatch):
        source = HAND_WRITTEN[1:] + HAND_WRITTEN[:1]
        builds = []

        def build(trial):
            builds.append(trial)
            return hand_written_build(trial)

        theorem_lab._sweep(iter(source), build)
        assert builds == [5]        # the stream's first instance, of size 4 and trial 5
        drift_first_instances(monkeypatch)
        with pytest.raises(InternalConsistencyError, match="on trial 5:"):
            theorem_lab._sweep(iter(source), hand_written_build)


STACK_EPS = (F(1, 3), F(1), F(5, 2))


def stack_blocks(kind, stack, lattice):
    """_table_blocks over a (2, B, m, m) stack, with the eps buckets of STACK_EPS on lattice."""
    bucket = scan._LatticeReduction(lattice, STACK_EPS).bucket
    with np.errstate(over="ignore", invalid="ignore"):
        return list(scan._table_blocks(kind, stack, range(stack.shape[2]), bucket))


def enumerated_items(kind, rows, images):
    """Per item of direct enumeration, in lex order: (witness, measure, image measure), with
    a triple's sides summed in the engine's order, d(i, j) + d(j, k) + d(i, k)."""
    items = []
    for wit in combinations(range(len(rows)), 2 if kind == "pairwise" else 3):
        sides = [wit] if len(wit) == 2 else [wit[:2], wit[1:], wit[::2]]
        items.append((wit, sum(rows[a][b] for a, b in sides),
                      sum(rows[images[a]][images[b]] for a, b in sides)))
    return items


def check_stack(kind, lattices, maps):
    """Stack the tables, and check each row of every block against the table alone and against
    direct enumeration; each table's first strict violation must be table_strict_violation's."""
    alone = [scan._table_stack(lattice, range(len(images)), images)
             for lattice, images in zip(lattices, maps)]
    blocks = stack_blocks(kind, np.concatenate(alone, axis=1), lattices[0])
    for b, (lattice, images) in enumerate(zip(lattices, maps)):
        single = stack_blocks(kind, alone[b], lattice)
        assert len(single) == len(blocks)
        for (num, den, wit, bucket), (num1, den1, wit1, bucket1) in zip(blocks, single):
            assert num[b].tolist() == num1[0].tolist() and den[b].tolist() == den1[0].tolist()
            assert bucket[b].tolist() == bucket1[0].tolist()
            assert [w.tolist() for w in wit] == [w.tolist() for w in wit1]
        items = [(tuple(int(w[t]) for w in wit), den[b][t], num[b][t])
                 for num, den, wit, _ in blocks for t in range(len(wit[0]))]
        assert items == enumerated_items(kind, lattice.values.tolist(), images)
        slack = 0 if lattice.exact else metric_core.ETA
        first = next((item for item in items if item[2] >= item[1] - slack), None)
        if first is not None:
            first = (first[0], lattice.scalar(first[1]), lattice.scalar(first[2]))
        n = len(images)
        assert scan.table_strict_violation(kind, lattice, range(n), images, STACK_EPS,
                                           range(n)) == first


@st.composite
def single_tables(draw):
    """One float or object-lattice table of n in 3..14 points and a map: positive entries above
    the diagonal, from a few values (ties) or anywhere, mirrored below it or not."""
    n = draw(st.integers(3, 14))
    exact = draw(st.booleans())
    rng = draw(st.randoms(use_true_random=False))
    top = 2 ** 62 if exact else 8.0
    unit = top / 4 if not exact else top // 4

    def value():
        if rng.random() < 0.6:
            return rng.randint(1, 4) * unit + (rng.randint(0, 1) if exact else 0)
        return rng.randint(1, top) if exact else rng.uniform(0.5, top)

    rows = [[0 if exact else 0.0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = value()
        rows[j][i] = rows[i][j] if rng.random() < 0.5 else rng.choice((0, -value(), value()))
    pool = rng.sample(range(n), rng.randint(1, 3)) if draw(st.booleans()) else range(n)
    images = [rng.choice(pool) for _ in range(n)]
    if exact:
        lattice = exact_lattice(np.array(rows, dtype=object), 3)
    else:
        lattice = Lattice(values=np.array(rows, dtype=np.float64), scale=1, exact=False)
    return lattice, images


class TestTableStack:
    # the validation sweep scans B tables of one size as one (2, B, m, m) stack
    @given(sweep_batches(), st.sampled_from(("pairwise", "triple")))
    def test_each_table_of_an_int64_stack_reads_as_alone(self, drawn, kind):
        den, tables, maps = drawn
        lattices = [Lattice(values=np.array(rows, dtype=np.int64), scale=den, exact=True)
                    for rows in tables]
        check_stack(kind, lattices, maps)

    @given(single_tables(), st.sampled_from(("pairwise", "triple")))
    def test_float_and_object_tables_read_as_enumerated(self, drawn, kind):
        lattice, images = drawn
        assert lattice.values.dtype in (object, np.float64)
        check_stack(kind, [lattice], [images])

    def test_a_stack_refuses_its_first_nonpositive_pair(self):
        # tables 1 and 2 hold nonpositive pairs; the refusal names table 1's first, (1, 2)
        rows = [[0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]]
        bad = [[[0, 2, 2, 2], [2, 0, 0, -1], [2, 0, 0, 2], [2, -1, 2, 0]],
               [[0, 0, 2, 2], [0, 0, 2, 2], [2, 2, 0, 2], [2, 2, 2, 0]]]
        tables = np.array([rows] + bad, dtype=np.int64)
        for kind in ("pairwise", "triple"):
            with pytest.raises(InputError, match="points 'b' and 'c' is not positive"):
                next(scan._table_blocks(kind, np.stack([tables, tables]), "abcd"))


def drift_first_instances(monkeypatch):
    """Make _sweep_batch flip the large_tpc flag of each batch's first instance."""
    batch = theorem_lab._sweep_batch

    def drifting(out, trials, dist, images):
        flags, *rest = batch(out, trials, dist, images)
        large_tpc = flags["large_tpc"].copy()
        large_tpc[0] = not large_tpc[0]
        return ({**flags, "large_tpc": large_tpc}, *rest)

    monkeypatch.setattr(theorem_lab, "_sweep_batch", drifting)
