"""Command-line front end.

Every run is fully determined by its arguments: output files are named by a
hash of the effective configuration and contain no timestamps, so identical
invocations produce byte-identical files.  Exit codes: 0 for success
(including inapplicable/undetermined verdicts), 2 when a refutation or a
reproduction mismatch is found, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import classify, dynamics, theorem_lab
from .map_catalog import (
    CATALOG_IDS,
    SelfMap,
    catalog,
    load_instance,
    resolve_point,
)
from .metric_core import InputError, SampledSpace, format_point, format_scalar, parse_scalar


def _config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_json(out_dir: Path, name: str, doc: dict) -> Path:
    return _write_text(out_dir, f"{name}.json", _json_text(doc) + "\n")


_encode_string = json.encoder.encode_basestring_ascii


def _json_text(doc) -> str:
    """The text of json.dumps(doc, sort_keys=True, indent=2), written by one recursive pass.

    json's C encoder ignores indent, so json.dumps with indent runs its
    pure-Python encoder; this writer follows that encoder's rules in about
    half its time.  Strings go through
    json.encoder.encode_basestring_ascii, ints through int.__repr__ and
    floats through float.__repr__, or NaN, Infinity and -Infinity; tuples
    are lists, empty containers are [] and {}, and dict keys are sorted
    before str, float, bool, None and int keys are turned into strings.
    Any other value or key raises TypeError, as json.dumps does.
    """
    parts = []
    _json_parts(doc, parts, "\n")
    return "".join(parts)


def _json_parts(value, parts, newline):
    """Append the text of value to parts; newline is a line break and the indent of value's line."""
    if isinstance(value, str):
        parts.append(_encode_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for item in value:
            parts.append(head)
            _json_parts(item, parts, inner)
            head = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key, item in sorted(value.items()):
            parts.append(f"{head}{_encode_string(_key_text(key))}: ")
            _json_parts(item, parts, inner)
            head = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _float_text(value):
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key):
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is None:
        return "null"
    if key is True or key is False:
        return "true" if key else "false"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_text(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def _parse_eps_grid(text):
    if text is None:
        return None
    values = [part.strip() for part in text.split(",")]
    if not all(values):
        raise InputError(f"eps grid must be a comma-separated list with no empty entry: {text!r}")
    return tuple(Fraction(parse_scalar(v, exact=True)) for v in values)


def _rational_arg(text):
    """An argparse type: a "p/q" or decimal string as a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _tolerance_arg(text):
    """An argparse type: a nonnegative number, kept as text.

    The value itself is parsed once the space's mode is known.
    """
    try:
        ok = Fraction(text.strip()) >= 0
    except (ValueError, ZeroDivisionError):
        try:
            ok = float(text) >= 0       # "inf" passes, NaN does not
        except ValueError:
            ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"tolerance must be a nonnegative number: {text!r}")
    return text


def _parse_size_range(text):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"size range must look like A..B, got {text!r}") from exc


# the truncation flags that each catalog space takes
_TRUNCATIONS = {"burton_logistic": ("grid_step",), "floor_half": ("max_n",),
                "period2_counterexample": (), "composite": ("grid_step", "max_n")}


def _load_target(args):
    """Resolve --catalog/--instance into (space, map, origin, key).

    ``origin`` goes into the output document and ``key`` into the hash that
    names the output file.  A catalog target is its own key.  An instance is
    keyed by its content, the stored space and the map's image indices, so
    one instance gets one name under any path, and two instances written in
    turn to one path get two.
    """
    target, instance = args.catalog, args.instance
    if target and instance:
        raise InputError("give either --catalog or --instance, not both")
    if not (target or instance):
        raise InputError("one of --catalog or --instance is required")
    for flag in ("grid_step", "max_n"):
        if getattr(args, flag) is not None and flag not in _TRUNCATIONS.get(target, ()):
            where = f"catalog {target}" if target else "--instance files"
            raise InputError(f"--{flag.replace('_', '-')} does not apply to {where}")
    if target:
        if args.mode == "float":
            raise InputError("catalog instances are exact; --mode float applies to "
                             "--instance files only")
        entry = catalog(
            target,
            grid_step=args.grid_step,
            integer_max=args.max_n,
            index_max=args.max_n,
        )
        origin = {"catalog": entry.id, "params": entry.params}
        return entry.space, entry.map, origin, origin
    space, mapping = load_instance(instance)
    if args.mode and args.mode != space.mode:
        space = space.in_mode(args.mode)
        mapping = SelfMap(space=space, name=mapping.name, table=mapping.table)
    images = [space.index(img) for img in mapping.table]
    key = {"instance_content": [space.fingerprint(), images]}
    return space, mapping, {"instance": str(instance)}, key


# ---------------------------------------------------------------------------
# reproduce

def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _pass_fail(verdict: classify.Verdict) -> str:
    return "pass" if verdict.passed else "fail"


def _at_eps(table: classify.ModulusTable, eps) -> classify.ModulusEntry:
    return next(e for e in table.entries if e.eps == eps)


def _parity_cases_hold(images) -> bool:
    """Whether the halving map's parity case bounds hold at every (i, k) with k - i >= 2.

    images[n] is the image of n.  floor(n/2) is monotone, so a sorted triple's
    ratio is (images[k] - images[i]) / (k - i) whatever its middle point, and
    the pairs cover every triple.  The bound is 3/4 for odd i and even k, else 1/2.
    """
    n = np.arange(len(images))
    spread = images[None, :] - images[:, None]
    span = n[None, :] - n[:, None]
    odd_to_even = (n[:, None] % 2 == 1) & (n[None, :] % 2 == 0)
    within = np.where(odd_to_even, 4 * spread <= 3 * span, 2 * spread <= span)
    return bool(within[span >= 2].all())


def _worked_examples() -> tuple:
    """The worked-example checks, in order: (id, description, expected, computed, pass).

    Each catalog instance is prepared once at its default scope: one full_report,
    and the verdicts, orbits, fixed points and period-2 points its checks read.
    """
    p2 = catalog("period2_counterexample")
    p2_report = classify.full_report(p2.space, p2.map)
    p2_alpha, p2_pairwise = p2_report.tpc_alpha, p2_report.large_contraction
    p2_fixed = dynamics.enumerate_fixed_points(p2.space, p2.map)
    p2_cycle = sorted(dynamics.detect_period2(p2.space, p2.map))
    p2_uncorrected, p2_corrected = (
        theorem_lab.verdict(theorem, p2.space, p2.map, x0=0, report=p2_report).status
        for theorem in ("mesmouli_uncorrected", "corrected_main"))
    p2_orbit = dynamics.picard_orbit(p2.map, 2, max_steps=16)

    b = catalog("burton_logistic")
    b_report = classify.full_report(b.space, b.map)
    b_deltas = [(eps, 1 / (1 + eps), _at_eps(b_report.pairwise_moduli, eps).delta)
                for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))]
    b_tol = 2 * Fraction(b.params["grid_step"])
    b_orbit = dynamics.picard_orbit(b.map, Fraction(1), max_steps=200)

    f = catalog("floor_half")
    f_report = classify.full_report(f.space, f.map)
    f_strict, f_alpha = f_report.pairwise_strict, f_report.tpc_alpha
    f_witness = f_strict.witness or {}
    f_parity = _parity_cases_hold(np.arange(f.space.numerators[-1] + 1) // 2)
    f_verdict = theorem_lab.verdict("corrected_main", f.space, f.map, x0=256,
                                    report=f_report)
    f_orbit = dynamics.picard_orbit(f.map, Fraction(256), max_steps=32)

    c = catalog("composite")
    c_report = classify.full_report(c.space, c.map)
    c_delta1 = _at_eps(c_report.pairwise_moduli, 1)
    c_delta1_floor = 1 - Fraction(1, int(c.params["index_max"]))
    c_half = _at_eps(c_report.triple_moduli, Fraction(1, 2)).delta
    c_two = _at_eps(c_report.triple_moduli, 2).delta
    c_shape = all(e.delta <= (1 / (1 + e.eps) if e.eps <= 1 else Fraction(1, 2))
                  for e in c_report.triple_moduli.entries if not e.vacuous)

    return (
        ("p2-alpha", "three-point 2-cycle: perimeter ratio is exactly 1/2",
         "1/2", format_scalar(p2_alpha), p2_alpha == Fraction(1, 2)),
        ("p2-large-tpc", "three-point 2-cycle: large perimeter contraction holds",
         "pass", _pass_fail(p2_report.large_tpc), p2_report.large_tpc.passed),
        ("p2-large-contraction",
         "three-point 2-cycle: pairwise contraction fails with a witness pair",
         "fail+witness", _pass_fail(p2_pairwise) + ("+witness" if p2_pairwise.witness else ""),
         not p2_pairwise.passed and p2_pairwise.witness is not None),
        ("p2-fixed-points", "three-point 2-cycle: no fixed points",
         "[]", list(p2_fixed), p2_fixed == ()),
        ("p2-period2-points", "three-point 2-cycle: prime period-2 points are {0,1}",
         [0, 1], p2_cycle, p2_cycle == [0, 1]),
        ("p2-uncorrected-refuted",
         "bounded large perimeter contraction without the period-2 hypothesis is refuted",
         "refuted", p2_uncorrected, p2_uncorrected == "refuted"),
        ("p2-corrected-inapplicable",
         "corrected statement does not apply (period-2 hypothesis fails)",
         "inapplicable", p2_corrected, p2_corrected == "inapplicable"),
        ("p2-orbit", "orbit from 2 enters the 2-cycle: 2,1,0,1,0",
         [2, 1, 0, 1, 0], list(p2_orbit.states),
         p2_orbit.halted_by == "period-2" and p2_orbit.states == (2, 1, 0, 1, 0)),
        ("b-large-contraction", "logistic-ratio map: pairwise contraction holds on scope",
         "pass", _pass_fail(b_report.large_contraction), b_report.large_contraction.passed),
        *((f"b-delta-{eps}", f"logistic-ratio map: delta({eps}) matches 1/(1+eps) within 2*step",
           format_scalar(target), format_scalar(delta),
           delta is not None and abs(delta - target) <= b_tol)
          for eps, target, delta in b_deltas),
        ("b-alpha", "logistic-ratio map: perimeter ratio supremum reaches 0.99",
         ">= 0.99", format_scalar(b_report.tpc_alpha),
         b_report.tpc_alpha >= Fraction(99, 100) and not b_report.uniform_tpc.passed),
        ("b-large-tpc", "logistic-ratio map: large perimeter contraction holds on scope",
         "pass", _pass_fail(b_report.large_tpc), b_report.large_tpc.passed),
        ("b-picard", "logistic-ratio orbit from 1: x_200 = 1/201 exactly",
         "1/201", format_scalar(b_orbit.states[200]), b_orbit.states[200] == Fraction(1, 201)),
        ("f-pairwise-witness",
         "halving map: strict pairwise contraction fails at (1,2) with equal distances",
         {"x": 1, "y": 2}, {"x": f_witness.get("x"), "y": f_witness.get("y")},
         not f_strict.passed and f_witness.get("x") == 1 and f_witness.get("y") == 2
         and f_witness.get("distance") == f_witness.get("image_distance") == 1),
        ("f-alpha-bound",
         "halving map: perimeter ratio supremum is at most 3/4 (uniform condition holds)",
         "<= 3/4", format_scalar(f_alpha),
         f_alpha <= Fraction(3, 4) and f_report.uniform_tpc.passed),
        ("f-parity-cases",
         "halving map: parity case bounds (1/2, 1/2, 1/2, 3/4) hold exhaustively",
         "all hold", "all hold" if f_parity else "violated", f_parity),
        ("f-corrected",
         "halving map: corrected statement confirmed with fixed-point set {0}",
         {"status": "confirmed", "fixed_points": ["0"]},
         {"status": f_verdict.status,
          "fixed_points": None if f_verdict.fixed_points is None
          else [format_scalar(p) for p in f_verdict.fixed_points]},
         f_verdict.status == "confirmed" and f_verdict.fixed_points == (Fraction(0),)),
        ("f-orbit", "halving orbit from 256 halts at the fixed point 0",
         "fixed-point at 0", f"{f_orbit.halted_by} at {format_scalar(f_orbit.final_state)}",
         f_orbit.halted_by == "fixed-point" and f_orbit.final_state == 0),
        ("c-large-contraction",
         "composite map: pairwise contraction fails on scope (tail ratios approach 1)",
         "fail", _pass_fail(c_report.large_contraction), not c_report.large_contraction.passed),
        ("c-pairwise-delta1",
         "composite map: pairwise delta(1) reaches 1 - 1/n_max at a distance-1 pair",
         f">= {format_scalar(c_delta1_floor)}", format_scalar(c_delta1.delta),
         c_delta1.delta is not None and c_delta1.delta >= c_delta1_floor
         and (c_delta1.witness or {}).get("distance") == 1),
        ("c-alpha", "composite map: no uniform perimeter ratio bounded below 1 on scope",
         ">= 49/50 and fail", format_scalar(c_report.tpc_alpha),
         c_report.tpc_alpha >= Fraction(49, 50) and not c_report.uniform_tpc.passed),
        ("c-large-tpc", "composite map: large perimeter contraction holds on scope",
         "pass", _pass_fail(c_report.large_tpc), c_report.large_tpc.passed),
        ("c-triple-delta-half", "composite map: triple delta(1/2) equals 1/(1+1/2) = 2/3",
         "2/3", format_scalar(c_half), c_half == Fraction(2, 3)),
        ("c-triple-delta-two", "composite map: triple delta(2) is at most 1/2",
         "<= 1/2", format_scalar(c_two), c_two is not None and c_two <= Fraction(1, 2)),
        ("c-triple-modulus-shape",
         "composite map: triple delta(eps) <= 1/(1+eps) below 1 and <= 1/2 above",
         "all within bounds", "all within bounds" if c_shape else "exceeded", c_shape),
    )


def cmd_reproduce(args) -> int:
    checks = [{"id": check_id, "description": description, "expected": _jsonable(expected),
               "computed": _jsonable(computed), "pass": bool(ok)}
              for check_id, description, expected, computed, ok in _worked_examples()]
    all_pass = all(c["pass"] for c in checks)
    doc = {"command": "reproduce", "checks": checks, "all_pass": all_pass}
    name = f"reproduce-{_config_hash({'command': 'reproduce'})}"
    path = _write_json(Path(args.out), name, doc)
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['id']}: {c['description']}")
        if not c["pass"]:
            print(f"       expected {c['expected']!r}, computed {c['computed']!r}")
    print(f"report: {path}")
    if not all_pass:
        print("reproduction mismatches found", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# classify / iterate / verify / search

def cmd_classify(args) -> int:
    space, mapping, origin, key = _load_target(args)
    eps_grid = _parse_eps_grid(args.eps_grid)
    report = classify.full_report(space, mapping, eps_grid=eps_grid)
    config = {
        "command": "classify",
        "origin": key,
        "eps_grid": [str(e) for e in (eps_grid or classify.DEFAULT_EPS_GRID)],
        "format": args.format,
    }
    name = f"classify-{_config_hash(config)}"
    doc = {"command": "classify", "origin": origin, "report": report.to_json()}
    path = _write_json(Path(args.out), name, doc)
    written = [str(path)]
    if args.format == "csv":
        csv_path = _write_text(Path(args.out), f"{name}.csv", report.moduli_csv())
        written.append(str(csv_path))
    print(f"scope: {report.scope}; points: {report.n_points}")
    print(f"pairwise strict: {_pass_fail(report.pairwise_strict)}")
    print(f"large contraction: {_pass_fail(report.large_contraction)}")
    print(f"perimeter ratio supremum: {format_scalar(report.tpc_alpha)} "
          f"({_pass_fail(report.uniform_tpc)})")
    print(f"large perimeter contraction: {_pass_fail(report.large_tpc)}")
    for p in written:
        print(f"wrote: {p}")
    return 0


def cmd_iterate(args) -> int:
    space, mapping, origin, key = _load_target(args)
    x0 = resolve_point(space, args.x0)
    tol = parse_scalar(args.tol, exact=space.exact)
    trace = dynamics.picard_orbit(mapping, x0, max_steps=args.steps, residual_tol=tol)
    ok_dec, dec_idx, dec_detail = (None, None, None)
    try:
        ok_dec, dec_idx, dec_detail = dynamics.check_perimeter_decrease(trace)
    except InputError as exc:
        dec_detail = str(exc)
    ok_dist, dist_wit, dist_detail = dynamics.check_distinct_iterates(trace)
    config = {
        "command": "iterate",
        "origin": key,
        "x0": str(args.x0),
        "steps": args.steps,
        "tol": str(args.tol),
    }
    name = f"iterate-{_config_hash(config)}"
    doc = {
        "command": "iterate",
        "origin": origin,
        "trace": trace.to_json(),
        "converged": bool(trace.residual <= tol),
        "perimeter_decrease": {"pass": ok_dec, "first_violation": dec_idx,
                               "detail": dec_detail},
        "distinct_iterates": {"pass": ok_dist, "witness": dist_wit,
                              "detail": dist_detail},
    }
    path = _write_json(Path(args.out), name, doc)
    csv_path = _write_text(Path(args.out), f"{name}.csv", trace.to_csv())
    print(f"halted by {trace.halted_by} after {len(trace.states) - 1} steps at "
          f"{format_point(trace.final_state)}")
    print(f"residual {format_scalar(trace.residual)} "
          f"({'converged' if doc['converged'] else 'not yet converged'} at tol {args.tol})")
    print(f"wrote: {path}")
    print(f"wrote: {csv_path}")
    return 0


def cmd_verify(args) -> int:
    space, mapping, origin, key = _load_target(args)
    if args.x0 is not None:
        x0 = resolve_point(space, args.x0)
    elif isinstance(space, SampledSpace):       # its first point, without building the rest
        x0 = Fraction(space.numerators[0], space.denominator)
    else:
        x0 = space.point_set()[0]
    v = theorem_lab.verdict(args.theorem, space, mapping, x0=x0,
                            eps_grid=_parse_eps_grid(args.eps_grid))
    config = {
        "command": "verify",
        "theorem": args.theorem,
        "origin": key,
        "x0": str(args.x0),
        "eps_grid": args.eps_grid,
    }
    name = f"verify-{_config_hash(config)}"
    path = _write_json(Path(args.out), name,
                       {"command": "verify", "origin": origin, "verdict": v.to_json()})
    print(f"{args.theorem}: {v.status}"
          + (" (scope-qualified)" if v.scope_qualified else ""))
    for h in v.hypotheses:
        print(f"  hypothesis {h.name}: {h.status}")
    if v.fixed_points is not None:
        print(f"  fixed points: {[format_point(p) for p in v.fixed_points]}")
    print(f"wrote: {path}")
    return 2 if v.status == "refuted" else 0


def cmd_search(args) -> int:
    lo, hi = _parse_size_range(args.size_range)
    config = theorem_lab.SearchConfig(
        seed=args.seed,
        trials=args.trials,
        size_min=lo,
        size_max=hi,
        map_bias=args.bias,
    )
    findings = theorem_lab.search_refutations(args.theorem, config)
    minimized = []
    for ref in findings.refutations:
        m_space, m_map = theorem_lab.minimize_refutation(ref.space, ref.map,
                                                         theorem_id=args.theorem,
                                                         known_verdict=ref.verdict)
        minimized.append({"trial": ref.trial, "instance": m_map.to_json(),
                          "size": m_space.size})
    doc = findings.to_json()
    doc["minimized"] = minimized
    doc["command"] = "search"
    name = f"search-{_config_hash({'command': 'search', 'theorem': args.theorem, 'config': config.to_json()})}"
    path = _write_json(Path(args.out), name, doc)
    print(f"{args.theorem}: {findings.hits} refutation(s) in {config.trials} trials "
          f"(+ seeded instance); {findings.hypothesis_pass_trials} hypothesis-passing")
    if findings.two_fixed_point_trials:
        print(f"two-fixed-point instances logged at trials "
              f"{list(findings.two_fixed_point_trials)}")
    print(f"wrote: {path}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_target_args(p):
    p.add_argument("--catalog", choices=CATALOG_IDS, help="catalog instance id")
    p.add_argument("--instance", help="path to a JSON instance file")
    p.add_argument("--grid-step", type=_rational_arg,
                   help="grid step for sampled catalog spaces (e.g. 1/512)")
    p.add_argument("--max-n", type=int,
                   help="truncation for integer-backed catalog spaces")
    p.add_argument("--mode", choices=("exact", "float"),
                   help="arithmetic mode override for instance files")


def _add_common_output(p):
    p.add_argument("--out", default="out", help="output directory (default ./out)")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as InputError: exit 1, since 2 means a refutation.

    A negative rational such as -2/3 is read as a value, as argparse reads
    -2 and -0.5, not as an option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="contraction-lab",
        description="classify contraction behaviour, run Picard orbits, verify "
                    "fixed-point statements, and search for counterexamples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run the full worked-example suite")
    _add_common_output(p)

    p = sub.add_parser("classify", help="classify an instance into the contraction hierarchy")
    _add_target_args(p)
    p.add_argument("--eps-grid", help="comma-separated eps values (e.g. 1/8,1/4,1/2)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv also writes the modulus tables as CSV")
    _add_common_output(p)

    p = sub.add_parser("iterate", help="run a Picard orbit with diagnostics")
    _add_target_args(p)
    p.add_argument("--x0", required=True, help="start point (label or p/q)")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--tol", type=_tolerance_arg, default="1/10000000000",
                   help="residual tolerance (default 1e-10 as a rational)")
    _add_common_output(p)

    p = sub.add_parser("verify", help="evaluate a fixed-point statement on an instance")
    p.add_argument("--theorem", required=True, choices=theorem_lab.THEOREM_IDS)
    _add_target_args(p)
    p.add_argument("--x0", help="start point for the bounded-orbit hypothesis")
    p.add_argument("--eps-grid")
    _add_common_output(p)

    p = sub.add_parser("search", help="randomized counterexample search")
    p.add_argument("--theorem", required=True,
                   choices=("mesmouli_uncorrected", "corrected_main"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--size-range", default="3..12")
    p.add_argument("--bias", choices=("uniform", "period2"), default="uniform")
    _add_common_output(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
