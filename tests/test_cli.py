import hashlib
import importlib.util
import json
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from contraction_lab import cli, scan, theorem_lab
from contraction_lab.cli import _parity_cases_hold, main
from contraction_lab.map_catalog import apply, catalog
from contraction_lab.metric_core import FiniteMetricSpace, metric_repair
from contraction_lab.map_catalog import SelfMap
from oracles import parity_case_violations, table_loops


def run(args):
    return main(args)


def gated_outputs_tool():
    """tools/gated_outputs.py as a module."""
    spec = importlib.util.spec_from_file_location(
        "gated_outputs", Path(__file__).resolve().parents[1] / "tools" / "gated_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def read_only_json(directory, prefix):
    files = sorted(directory.glob(f"{prefix}-*.json"))
    assert len(files) == 1, f"expected one {prefix} json, found {files}"
    return json.loads(files[0].read_text()), files[0]


@pytest.fixture()
def instance_file(tmp_path):
    coords = [F(0), F(1), F(3), F(7)]
    table = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    space = FiniteMetricSpace(points=(0, 1, 2, 3), dist_table=table)
    mapping = SelfMap(space=space, name="toy", table=(0, 0, 0, 1))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(mapping.to_json()))
    return path


def wide_instance(path, kind, n=40, seed=3):
    """An n-point instance whose lattice is not screenable.

    exact: d(i, j) = m / p with p the ((i + j) mod n)-th prime above 10**6 and
    p <= m < 2p, so the lcm of the denominators passes 2**53; float: d(i, j)
    = m * 2**210 with 96 <= m < 192, beyond 2**200.  Every distance lies in
    [a, 2a) for one a, so the table is a metric.
    """
    rng = random.Random(seed)
    primes = []
    q = 10 ** 6
    while len(primes) < n:
        q += 1
        if all(q % f for f in range(2, int(q ** 0.5) + 1)):
            primes.append(q)
    zero = "0" if kind == "exact" else 0.0
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = primes[(i + j) % n]
            rows[i][j] = rows[j][i] = (str(F(rng.randrange(p, 2 * p), p)) if kind == "exact"
                                       else rng.randrange(96, 192) * 2.0 ** 210)
    pool = rng.sample(range(n), 3)
    doc = {"space": {"points": list(range(n)), "dist": rows, "mode": kind},
           "map": [rng.choice(pool) for _ in range(n)]}
    path.write_text(json.dumps(doc))
    return path


# the reproduce document is pinned: its bytes, and its check ids in order
REPRODUCE_SHA256 = "682b58c9f3194cc3a29dcbd1ab574f954d6140006e28b2193792c9323026d197"
REPRODUCE_CHECK_IDS = [
    "p2-alpha", "p2-large-tpc", "p2-large-contraction", "p2-fixed-points",
    "p2-period2-points", "p2-uncorrected-refuted", "p2-corrected-inapplicable", "p2-orbit",
    "b-large-contraction", "b-delta-1/8", "b-delta-1/4", "b-delta-1/2", "b-alpha",
    "b-large-tpc", "b-picard",
    "f-pairwise-witness", "f-alpha-bound", "f-parity-cases", "f-corrected", "f-orbit",
    "c-large-contraction", "c-pairwise-delta1", "c-alpha", "c-large-tpc",
    "c-triple-delta-half", "c-triple-delta-two", "c-triple-modulus-shape",
]


class TestReproduce:
    def test_full_suite_passes_and_is_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run(["reproduce", "--out", str(out1)]) == 0
        assert run(["reproduce", "--out", str(out2)]) == 0
        doc1, path1 = read_only_json(out1, "reproduce")
        doc2, path2 = read_only_json(out2, "reproduce")
        assert path1.read_bytes() == path2.read_bytes()
        assert doc1["all_pass"] is True
        by_id = {c["id"]: c for c in doc1["checks"]}
        assert by_id["p2-alpha"]["computed"] == "1/2"
        assert by_id["c-triple-delta-two"]["pass"] is True
        out = capsys.readouterr().out
        assert "[PASS] p2-alpha" in out

    def test_document_is_pinned(self, tmp_path, capsys):
        assert run(["reproduce", "--out", str(tmp_path)]) == 0
        doc, path = read_only_json(tmp_path, "reproduce")
        assert path.name == "reproduce-376d80927983.json"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REPRODUCE_SHA256
        assert [c["id"] for c in doc["checks"]] == REPRODUCE_CHECK_IDS
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [f"[PASS] {c['id']}: {c['description']}" for c in doc["checks"]]
        assert lines[-1] == f"report: {path}"

    def test_gated_outputs_tool_writes_the_pinned_reproduce_file(self, tmp_path):
        tool = gated_outputs_tool()
        runs = dict(tool.RUNS)
        assert tool.write_outputs(tmp_path, [("reproduce", runs["reproduce"])]) == {"reproduce": 0}
        _, path = read_only_json(tmp_path / "reproduce", "reproduce")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REPRODUCE_SHA256
        assert (tmp_path / "exit-codes.txt").read_text() == "reproduce 0\n"
        tool.write_scans(tmp_path)
        for label, *_ in tool._scan_inputs():
            pair, triple = (tmp_path / "scans" / f"{label}.txt").read_text().splitlines()
            assert pair.startswith("EnumAnalysis(kind='pairwise'")
            assert triple.startswith("EnumAnalysis(kind='triple'")


def dumps_or_error(doc):
    """json.dumps(doc, sort_keys=True, indent=2), or the TypeError it raises, as text."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2)
    except TypeError as exc:
        return f"TypeError: {exc}"


def written_or_error(doc):
    """cli._json_text(doc), or the TypeError it raises, as text."""
    try:
        return cli._json_text(doc)
    except TypeError as exc:
        return f"TypeError: {exc}"


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=2 ** 64, max_value=2 ** 200).map(lambda v: v * (-1) ** v)
               | st.floats() | st.sampled_from((-0.0, 0.0, float("nan"), float("inf"),
                                                -float("inf"), 1e-320, 5e-324))
               | st.text() | st.sampled_from(('"\\/\b\f\n\r\t', "\x00\x1f\x7f\u2028\ud800",
                                              "é€😀")))
JSON_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)
                      | st.dictionaries(st.integers(), children, max_size=3)
                      | st.dictionaries(JSON_KEYS, children, max_size=3)),
    max_leaves=24)


class TestDocumentWriter:
    # cli writes every document as json.dumps(doc, sort_keys=True, indent=2) would
    def test_every_gated_document_is_written_as_json_dumps_writes_it(self, tmp_path, monkeypatch):
        tool = gated_outputs_tool()
        docs = []
        write = cli._write_json

        def spy(out_dir, name, doc):
            docs.append(doc)
            return write(out_dir, name, doc)

        monkeypatch.setattr(cli, "_write_json", spy)
        codes = tool.write_outputs(tmp_path)
        assert all(code == (1 if label in tool.EXPECTED_FAILURES else 0)
                   for label, code in codes.items())
        assert len(docs) == len(codes) - len(tool.EXPECTED_FAILURES)
        for doc in docs:
            assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
        written = [path for path in tmp_path.glob("*/*.json") if path.parent.name != "instances"]
        assert len(written) == len(docs)
        for path in written:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    @given(JSON_DOCS)
    def test_nested_documents_match_json_dumps(self, doc):
        assert written_or_error(doc) == dumps_or_error(doc)

    @pytest.mark.parametrize("doc", [
        object(), {1, 2}, b"bytes", np.int64(3), F(1, 2), [1, {"a": complex(1, 2)}],
        {(1, 2): 0}, {"a": 1, 2: "b"}, {None: 1, "a": 2}, {"a": [np.bool_(True)]}])
    def test_unwritable_documents_raise_type_error_as_json_dumps_does(self, doc):
        want = dumps_or_error(doc)
        assert want.startswith("TypeError: ")
        assert written_or_error(doc) == want

    def test_subclasses_and_non_finite_floats_print_as_json_dumps_prints_them(self):
        class Named(int):
            def __repr__(self):
                return "Named"

            __str__ = __repr__

        doc = {"f": np.float64(0.1), "b": np.float64(-0.0), "t": (True, 1, 1.0, Named(7)),
               "n": {1.5: 1, -2.5: 2}, "k": {10: "x", 9: "y", Named(8): "z"},
               "x": [float("nan"), float("inf"), -float("inf"), -0.0, 2 ** 70],
               "y": {float("inf"): 1, -float("inf"): 2, float("nan"): 3}}
        assert written_or_error(doc) == dumps_or_error(doc)
        assert "Named" not in written_or_error(doc)


class TestParityCases:
    @pytest.mark.parametrize("max_n", [2, 3, 4, 7, 64, 256, 1000])
    def test_floor_half_matches_the_loop_oracle(self, max_n):
        entry = catalog("floor_half", integer_max=max_n)
        images = np.array([int(apply(entry.map, x)) for x in entry.space.point_set()])
        assert parity_case_violations(images) == []
        assert _parity_cases_hold(images) is True

    def test_one_broken_case_is_violated_by_both(self):
        images = np.arange(17) // 2
        images[2] += 1      # (0, 2) now has ratio 1, over the even/even bound 1/2
        assert parity_case_violations(images) == [(0, 0)]
        assert _parity_cases_hold(images) is False

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=16))
    def test_arbitrary_images_match_the_loop_oracle(self, values):
        images = np.array(values, dtype=np.int64)
        assert _parity_cases_hold(images) == (parity_case_violations(images) == [])


class TestClassify:
    def test_catalog_two_cycle(self, tmp_path, capsys):
        assert run(["classify", "--catalog", "period2_counterexample",
                    "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "classify")
        rep = doc["report"]
        assert rep["tpc_alpha"] == "1/2"
        assert rep["large_tpc"]["passed"] is True
        assert rep["large_contraction"]["passed"] is False
        out = capsys.readouterr().out
        assert "large perimeter contraction: pass" in out

    def test_instance_file(self, tmp_path, instance_file):
        assert run(["classify", "--instance", str(instance_file),
                    "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "classify")
        assert doc["report"]["enumeration_scope"] == "exact"
        assert doc["report"]["uniform_tpc"]["passed"] is True

    def test_csv_export(self, tmp_path):
        assert run(["classify", "--catalog", "period2_counterexample",
                    "--format", "csv", "--out", str(tmp_path)]) == 0
        csvs = list(tmp_path.glob("classify-*.csv"))
        assert len(csvs) == 1
        lines = csvs[0].read_text().splitlines()
        assert lines[0] == "kind,eps,delta,count"
        assert any(line.startswith("pairwise,") for line in lines[1:])

    def test_malformed_instance_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["classify", "--instance", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("grid", ["", ",", "1/8,,1/4", "1/2,"],
                             ids=["empty", "comma", "empty-middle", "trailing-comma"])
    def test_empty_eps_grid_exits_1(self, tmp_path, capsys, grid):
        assert run(["classify", "--catalog", "period2_counterexample",
                    "--eps-grid", grid, "--out", str(tmp_path)]) == 1
        assert "no empty entry" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_directory_as_instance_exits_1(self, tmp_path, capsys):
        assert run(["classify", "--instance", str(tmp_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_file_as_output_directory_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(["classify", "--catalog", "period2_counterexample",
                    "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_target_exits_1(self, tmp_path):
        assert run(["classify", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("cid, flag, value", [
        ("floor_half", "--max-n", "99999999999999999999"),
        ("burton_logistic", "--grid-step", "1/99999999999999999999"),
        ("composite", "--max-n", "99999999999999999999"),
    ], ids=["floor-half", "burton-logistic", "composite-tail"])
    def test_truncation_past_int64_exits_1(self, tmp_path, capsys, cid, flag, value):
        # refused before any point is built: the line engine's arrays are int64
        assert run(["classify", "--catalog", cid, flag, value, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: sample numerators 0..")
        assert not list(tmp_path.iterdir())

    def test_float_mode_on_rational_instance(self, tmp_path):
        # k/96 distances are not dyadic, so every float entry is rounded
        coords = [F(k, 96) for k in (0, 13, 29, 50, 83)]
        rows = [[abs(a - b) for b in coords] for a in coords]
        images = [1, 2, 2, 0, 3]
        docs = {}
        for mode, cells in (("exact", [[str(v) for v in row] for row in rows]),
                            ("float", [[float(v) for v in row] for row in rows])):
            doc = {"space": {"points": list(range(5)), "mode": mode, "dist": cells},
                   "map": images}
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(doc))
            out = tmp_path / f"out-{mode}"
            assert run(["classify", "--instance", str(path), "--mode", "float",
                        "--out", str(out)]) == 0
            docs[mode], _ = read_only_json(out, "classify")
        assert docs["exact"]["report"] == docs["float"]["report"]
        assert docs["exact"]["report"]["enumeration_scope"] == "exact"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_float_mode_converts_the_lattice_as_the_document_does(self, tmp_path, seed):
        # --mode float on an exact n = 40 file gives the documents, and names,
        # of the same instance stored with mode "float" in its JSON document
        rng = random.Random(seed)
        n = 40
        raw = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                raw[i][j] = raw[j][i] = rng.randint(1, 96)
        space = metric_repair([[F(v, 96) for v in row] for row in raw])
        mapping = SelfMap(space=space, name="random", table=tuple(
            rng.randrange(n) for _ in range(n)))
        exact_path = tmp_path / "exact.json"
        exact_path.write_text(json.dumps(mapping.to_json()))
        doc = mapping.to_json()
        doc["space"]["mode"] = "float"
        float_path = tmp_path / "float.json"
        float_path.write_text(json.dumps(doc))
        for argv in (["classify"], ["verify", "--theorem", "corrected_main"]):
            converted, stored = tmp_path / f"{argv[0]}-a", tmp_path / f"{argv[0]}-b"
            assert run(argv + ["--instance", str(exact_path), "--mode", "float",
                               "--out", str(converted)]) == 0
            assert run(argv + ["--instance", str(float_path), "--out", str(stored)]) == 0
            doc_a, path_a = read_only_json(converted, argv[0])
            doc_b, path_b = read_only_json(stored, argv[0])
            assert path_a.name == path_b.name
            assert doc_a.pop("origin") != doc_b.pop("origin")
            assert doc_a == doc_b

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
    def test_non_finite_float_instance_exits_1(self, tmp_path, capsys, bad):
        rows = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        rows[0][1] = rows[1][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": {"points": [0, 1, 2], "mode": "float",
                                              "dist": rows}, "map": [1, 0, 1]}))
        assert run(["classify", "--instance", str(path), "--out", str(tmp_path)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("index", [-1, 1.5, True])
    def test_bad_map_index_exits_1(self, tmp_path, instance_file, capsys, index):
        doc = json.loads(instance_file.read_text())
        doc["map"][0] = index
        path = tmp_path / "bad-map.json"
        path.write_text(json.dumps(doc))
        assert run(["classify", "--instance", str(path), "--out", str(tmp_path)]) == 1
        assert "map image index" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("map", None, "map must be a JSON array"),
        ("map", 3, "map must be a JSON array"),
        ("map", "0001", "map must be a JSON array"),
        ("dist", ["0137", "1026", "3204", "7640"], "row arrays"),
        ("dist", "0137", "row arrays"),
        ("points", "abcd", "points must be a JSON array"),
        ("mode", "float", "cannot parse scalar"),
    ], ids=["map-null", "map-int", "map-string", "dist-row-strings", "dist-string",
            "points-string", "float-int-overflow"])
    def test_malformed_document_exits_1(self, tmp_path, instance_file, capsys, field,
                                        value, message):
        doc = json.loads(instance_file.read_text())
        if field == "map":
            doc["map"] = value
        else:
            doc["space"][field] = value
        if field == "mode":
            doc["space"]["dist"][0][3] = doc["space"]["dist"][3][0] = 10 ** 400
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["classify", "--instance", str(path), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"map": \xff}', b'{"map": 1' + b"1" * 5000 + b"}"],
                             ids=["not-utf8", "int-past-digit-limit"])
    def test_unreadable_json_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert run(["classify", "--instance", str(path), "--out", str(tmp_path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_instance_outputs_are_named_by_content(self, tmp_path, instance_file):
        # two instances written in turn to one path keep two reports
        first = json.loads(instance_file.read_text())
        second = json.loads(instance_file.read_text())
        second["map"] = [1, 1, 1, 0]
        out = tmp_path / "out"
        for doc in (first, second):
            instance_file.write_text(json.dumps(doc))
            assert run(["classify", "--instance", str(instance_file), "--out", str(out)]) == 0
        assert len(list(out.glob("classify-*.json"))) == 2

    def test_one_instance_under_two_paths_has_one_name(self, tmp_path, instance_file):
        copy = tmp_path / "copy.json"
        copy.write_text(instance_file.read_text())
        out = tmp_path / "out"
        for path in (instance_file, copy):
            assert run(["verify", "--theorem", "corrected_main", "--instance", str(path),
                        "--out", str(out)]) == 0
        doc, _ = read_only_json(out, "verify")
        assert doc["origin"] == {"instance": str(copy)}

    def test_composite_takes_both_truncation_flags(self, tmp_path):
        assert run(["classify", "--catalog", "composite", "--grid-step", "1/8", "--max-n", "3",
                    "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "classify")
        assert doc["origin"]["params"] == {"grid_step": "1/8", "index_max": 3}

    def test_float_mode_rejected_for_catalog(self, tmp_path):
        assert run(["classify", "--catalog", "period2_counterexample",
                    "--mode", "float", "--out", str(tmp_path)]) == 1


    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_wide_instances_match_the_loop_oracle(self, tmp_path, monkeypatch, kind):
        # the same file loaded twice in one process, scanned by the engine
        # and then by the loops, gives the same output names and bytes
        path = wide_instance(tmp_path / "wide.json", kind)
        commands = (["classify"], ["verify", "--theorem", "corrected_main"],
                    ["classify", "--mode", "float"])

        def outputs(name):
            out = tmp_path / name
            for command in commands:
                assert run([*command, "--instance", str(path), "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        def oracle(kind):
            def analysis(lattice, nodes, images, eps, points):
                table = [[lattice.scalar(v) for v in row] for row in lattice.values]
                return table_loops(kind, table, nodes, images, eps, points, lattice.exact)
            return analysis

        engine = outputs("engine")
        monkeypatch.setattr(scan, "table_pair_analysis", oracle("pairwise"))
        monkeypatch.setattr(scan, "table_triple_analysis", oracle("triple"))
        assert outputs("oracle") == engine
        # --mode float converts the exact file and leaves the float one as it is
        assert len(engine) == (3 if kind == "exact" else 2)

    def test_eps_above_every_distance_is_vacuous(self, tmp_path):
        assert run(["classify", "--catalog", "floor_half", "--max-n", "16",
                    "--eps-grid", "1,1e30", "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "classify")
        for table in ("pairwise_moduli", "triple_moduli"):
            first, huge = doc["report"][table]["entries"]
            assert not first["vacuous"] and first["count"] > 0
            assert huge["vacuous"] and huge["delta"] is None and huge["count"] == 0


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["iterate", "--catalog", "floor_half", "--x0", "4", "--format", "json"],
        ["classify", "--catalog", "nope"],
        ["classify", "--catalog", "floor_half", "--workers", "2"],
        ["classify", "--catalog", "burton_logistic", "--grid-step", "abc"],
        ["classify", "--catalog", "burton_logistic", "--grid-step", "1/0"],
        ["iterate", "--catalog", "floor_half", "--x0", "5", "--tol", "-1"],
    ], ids=["format-on-iterate", "unknown-catalog", "removed-flag", "grid-step-not-a-number",
            "grid-step-zero-denominator", "negative-tol"])
    def test_usage_errors_exit_1(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 1
        assert "usage:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["classify", "--catalog", "burton_logistic", "--max-n", "8"], "--max-n"),
        (["classify", "--catalog", "period2_counterexample", "--max-n", "8"], "--max-n"),
        (["iterate", "--catalog", "period2_counterexample", "--x0", "0",
          "--grid-step", "1/4"], "--grid-step"),
        (["verify", "--theorem", "burton", "--catalog", "floor_half",
          "--grid-step", "1/4"], "--grid-step"),
        (["classify", "--instance", "INSTANCE", "--max-n", "8"], "--max-n"),
        (["classify", "--instance", "INSTANCE", "--grid-step", "1/4"], "--grid-step"),
    ], ids=["max-n-on-burton", "max-n-on-period2", "grid-step-on-period2",
            "grid-step-on-floor-half", "max-n-on-instance", "grid-step-on-instance"])
    def test_truncation_flags_the_target_does_not_take_exit_1(self, tmp_path, capsys,
                                                               instance_file, argv, flag):
        out = tmp_path / "out"
        argv = [str(instance_file) if a == "INSTANCE" else a for a in argv]
        assert run(argv + ["--out", str(out)]) == 1
        assert f"error: {flag} does not apply to" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    def test_one_parser_runs_a_sequence_as_fresh_parsers_do(self, tmp_path, capsys, monkeypatch,
                                                           instance_file):
        # classify, a usage error, verify, search, --help and classify again, in one process
        # through its one parser: the exit codes, stdout, stderr and every written file equal
        # those of the same runs with a parser built for each call
        argvs = [["classify", "--catalog", "burton_logistic", "--grid-step", "1/64"],
                 ["classify", "--catalog", "burton_logistic", "--grid-step", "1/0"],
                 ["verify", "--theorem", "corrected_main", "--instance", str(instance_file)],
                 ["search", "--theorem", "corrected_main", "--trials", "50"],
                 ["--help"],
                 ["classify", "--catalog", "burton_logistic", "--grid-step", "1/64"]]

        def runs(home):
            home.mkdir()
            monkeypatch.chdir(home)
            results = []
            for step, argv in enumerate(argvs):
                try:
                    code = run(argv + (["--out", f"out-{step}"] if argv[0] != "--help" else []))
                except SystemExit as exc:
                    code = f"SystemExit({exc.code})"
                results.append((code, *capsys.readouterr()))
            files = {str(p.relative_to(home)): p.read_bytes()
                     for p in sorted(home.rglob("*")) if p.is_file()}
            return results, files

        assert cli._parser() is cli._parser()
        reused = runs(tmp_path / "reused")
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = runs(tmp_path / "fresh")
        assert reused == fresh
        codes = [code for code, _, _ in reused[0]]
        assert codes == [0, 1, 0, 0, "SystemExit(0)", 0]
        assert "error: argument --grid-step: not a rational number: '1/0'" in reused[0][1][2]
        assert len(reused[1]) == 4      # two classify documents, a verdict and a search


class TestIterate:
    def test_logistic_200_steps(self, tmp_path, capsys):
        assert run(["iterate", "--catalog", "burton_logistic", "--x0", "1",
                    "--steps", "200", "--out", str(tmp_path)]) == 0
        doc, path = read_only_json(tmp_path, "iterate")
        assert doc["trace"]["states"][-1] == "1/201"
        assert doc["converged"] is False
        assert doc["perimeter_decrease"]["pass"] is True
        assert doc["distinct_iterates"]["pass"] is True
        csv_file = path.with_suffix(".csv")
        assert csv_file.exists()
        assert csv_file.read_text().splitlines()[0] == "n,x_n,step_dist,perimeter"
        out = capsys.readouterr().out
        assert "not yet converged" in out

    def test_two_cycle_halts_period2(self, tmp_path):
        assert run(["iterate", "--catalog", "period2_counterexample", "--x0", "2",
                    "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "iterate")
        assert doc["trace"]["halted_by"] == "period-2"
        assert doc["trace"]["states"] == [2, 1, 0, 1, 0]

    def test_halving_halts_at_zero(self, tmp_path):
        assert run(["iterate", "--catalog", "floor_half", "--x0", "256",
                    "--steps", "50", "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "iterate")
        assert doc["trace"]["halted_by"] == "fixed-point"
        assert doc["trace"]["states"][-1] == "0"
        assert doc["converged"] is True

    def test_unknown_start_point_exits_1(self, tmp_path):
        assert run(["iterate", "--catalog", "period2_counterexample", "--x0", "9",
                    "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("cat, last", [("floor_half", "inf"), ("burton_logistic", "0.5")])
    def test_state_beyond_the_float_range_renders_inf(self, tmp_path, cat, last):
        # 1e400 is an exact Fraction whose float overflows: the CSV shows inf
        assert run(["iterate", "--catalog", cat, "--x0", "1e400", "--steps", "2",
                    "--out", str(tmp_path)]) == 0
        doc, path = read_only_json(tmp_path, "iterate")
        rows = path.with_suffix(".csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "inf"
        assert rows[-1].split(",")[1] == last
        assert len(doc["trace"]["states"]) == 3

    @pytest.mark.parametrize("argv", [
        ["iterate", "--catalog", "burton_logistic", "--x0", "-1", "--steps", "3"],
        ["iterate", "--catalog", "burton_logistic", "--x0=-1/3", "--steps", "3"],
        ["verify", "--theorem", "corrected_main", "--catalog", "burton_logistic", "--x0", "-1"],
    ], ids=["iterate-at-minus-one", "iterate-reaching-minus-one", "verify-at-minus-one"])
    def test_logistic_pole_exits_1(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: -1 is not a point of the map x/(1+x)")

    @pytest.mark.parametrize("command", [["iterate"], ["verify", "--theorem", "burton"]])
    def test_negative_rational_start_point_is_a_value(self, tmp_path, command):
        # "--x0 -2/3" is read as "--x0=-2/3", not as an option -2/3
        codes = [run(command + ["--catalog", "burton_logistic", *x0,
                                "--out", str(tmp_path / label)])
                 for label, x0 in (("spaced", ["--x0", "-2/3"]), ("joined", ["--x0=-2/3"]))]
        assert codes == [0, 0]
        spaced, joined = (sorted((tmp_path / label).iterdir()) for label in ("spaced", "joined"))
        assert [p.name for p in spaced] == [p.name for p in joined] != []
        assert [p.read_bytes() for p in spaced] == [p.read_bytes() for p in joined]


class TestVerify:
    def test_refuted_exits_2(self, tmp_path):
        assert run(["verify", "--theorem", "mesmouli_uncorrected",
                    "--catalog", "period2_counterexample", "--x0", "0",
                    "--out", str(tmp_path)]) == 2
        doc, _ = read_only_json(tmp_path, "verify")
        assert doc["verdict"]["status"] == "refuted"

    def test_inapplicable_exits_0(self, tmp_path):
        assert run(["verify", "--theorem", "corrected_main",
                    "--catalog", "period2_counterexample",
                    "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "verify")
        assert doc["verdict"]["status"] == "inapplicable"

    def test_confirmed_on_halving_map(self, tmp_path):
        assert run(["verify", "--theorem", "corrected_main",
                    "--catalog", "floor_half", "--x0", "256",
                    "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "verify")
        assert doc["verdict"]["status"] == "confirmed"
        assert doc["verdict"]["conclusion"]["fixed_points"] == ["0"]


class TestSearch:
    def test_seeded_hit_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = ["search", "--theorem", "mesmouli_uncorrected", "--seed", "7",
                "--trials", "30"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        doc, path1 = read_only_json(out1, "search")
        _, path2 = read_only_json(out2, "search")
        assert path1.read_bytes() == path2.read_bytes()
        assert doc["hits"] >= 1
        assert doc["refutations"][0]["trial"] == -1
        assert all(m["size"] >= 3 for m in doc["minimized"])

    def test_minimizing_reuses_the_search_verdicts(self, tmp_path, monkeypatch):
        # each refuted instance is judged once, by the search; its minimization starts
        # from that verdict
        judged, minimized = [], []
        real_verdict, real_minimize = theorem_lab.verdict, theorem_lab.minimize_refutation

        def verdict_spy(theorem_id, space, mapping, **kwargs):
            judged.append(space)
            return real_verdict(theorem_id, space, mapping, **kwargs)

        def minimize_spy(space, mapping, **kwargs):
            minimized.append(space)
            return real_minimize(space, mapping, **kwargs)

        monkeypatch.setattr(theorem_lab, "verdict", verdict_spy)
        monkeypatch.setattr(theorem_lab, "minimize_refutation", minimize_spy)
        assert run(["search", "--theorem", "mesmouli_uncorrected", "--seed", "3",
                    "--trials", "60", "--bias", "period2", "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "search")
        assert len(minimized) == doc["hits"] >= 3
        assert [sum(s is space for s in judged) for space in minimized] == [1] * len(minimized)

    def test_corrected_statement_finds_nothing(self, tmp_path):
        assert run(["search", "--theorem", "corrected_main", "--seed", "42",
                    "--trials", "60", "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "search")
        assert doc["hits"] == 0

    def test_size_range_parsing(self, tmp_path):
        assert run(["search", "--theorem", "corrected_main", "--seed", "1",
                    "--trials", "5", "--size-range", "3..5",
                    "--out", str(tmp_path)]) == 0
        doc, _ = read_only_json(tmp_path, "search")
        assert doc["config"]["size_min"] == 3 and doc["config"]["size_max"] == 5

    def test_bad_size_range_exits_1(self, tmp_path):
        assert run(["search", "--theorem", "corrected_main", "--size-range", "oops",
                    "--out", str(tmp_path)]) == 1
