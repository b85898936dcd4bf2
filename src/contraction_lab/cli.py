"""Command-line front end.

Every run is fully determined by its arguments: output files are named by a
hash of the effective configuration and contain no timestamps, so identical
invocations produce byte-identical files.  Exit codes: 0 for success
(including inapplicable/undetermined verdicts), 2 when a refutation or a
reproduction mismatch is found, 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import classify, dynamics, theorem_lab
from .map_catalog import (
    CATALOG_IDS,
    SelfMap,
    catalog,
    load_instance,
    resolve_point,
)
from .metric_core import InputError, format_point, format_scalar, parse_scalar


def _config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _write_json(out_dir: Path, name: str, doc: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _write_text(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    return path


def _parse_eps_grid(text):
    if text is None:
        return None
    values = [part.strip() for part in text.split(",")]
    if not any(values) or all(v == "" for v in values):
        raise InputError("eps grid must be a nonempty comma-separated list")
    return tuple(Fraction(parse_scalar(v, exact=True)) for v in values if v)


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
    target = getattr(args, "catalog", None)
    instance = getattr(args, "instance", None)
    if target and instance:
        raise InputError("give either --catalog or --instance, not both")
    if not (target or instance):
        raise InputError("one of --catalog or --instance is required")
    for flag in ("grid_step", "max_n"):
        if getattr(args, flag, None) is not None and flag not in _TRUNCATIONS.get(target, ()):
            where = f"catalog {target}" if target else "--instance files"
            raise InputError(f"--{flag.replace('_', '-')} does not apply to {where}")
    if target:
        if getattr(args, "mode", None) == "float":
            raise InputError("catalog instances are exact; --mode float applies to "
                             "--instance files only")
        entry = catalog(
            target,
            grid_step=getattr(args, "grid_step", None),
            integer_max=getattr(args, "max_n", None),
            index_max=getattr(args, "max_n", None),
        )
        origin = {"catalog": entry.id, "params": entry.params}
        return entry.space, entry.map, origin, origin
    space, mapping = load_instance(instance)
    if getattr(args, "mode", None) and args.mode != space.mode:
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


def _check(checks, check_id, description, expected, computed, ok):
    checks.append({
        "id": check_id,
        "description": description,
        "expected": _jsonable(expected),
        "computed": _jsonable(computed),
        "pass": bool(ok),
    })


def _reproduce_period2(checks):
    entry = catalog("period2_counterexample")
    report = classify.full_report(entry.space, entry.map)
    alpha = report.tpc_alpha
    _check(checks, "p2-alpha", "three-point 2-cycle: perimeter ratio is exactly 1/2",
           "1/2", format_scalar(alpha), alpha == Fraction(1, 2))
    _check(checks, "p2-large-tpc", "three-point 2-cycle: large perimeter contraction holds",
           "pass", "pass" if report.large_tpc.passed else "fail", report.large_tpc.passed)
    lc = report.large_contraction
    _check(checks, "p2-large-contraction",
           "three-point 2-cycle: pairwise contraction fails with a witness pair",
           "fail+witness", f"{'fail' if not lc.passed else 'pass'}"
                           f"{'+witness' if lc.witness else ''}",
           (not lc.passed) and lc.witness is not None)
    fps = dynamics.enumerate_fixed_points(entry.space, entry.map)
    _check(checks, "p2-fixed-points", "three-point 2-cycle: no fixed points",
           "[]", [p for p in fps], fps == ())
    p2 = dynamics.detect_period2(entry.space, entry.map)
    _check(checks, "p2-period2-points", "three-point 2-cycle: prime period-2 points are {0,1}",
           [0, 1], sorted(p2), sorted(p2) == [0, 1])
    vu = theorem_lab.verdict("mesmouli_uncorrected", entry.space, entry.map, x0=0,
                             report=report)
    _check(checks, "p2-uncorrected-refuted",
           "bounded large perimeter contraction without the period-2 hypothesis is refuted",
           "refuted", vu.status, vu.status == "refuted")
    vc = theorem_lab.verdict("corrected_main", entry.space, entry.map, x0=0,
                             report=report)
    _check(checks, "p2-corrected-inapplicable",
           "corrected statement does not apply (period-2 hypothesis fails)",
           "inapplicable", vc.status, vc.status == "inapplicable")
    trace = dynamics.picard_orbit(entry.map, 2, max_steps=16)
    _check(checks, "p2-orbit", "orbit from 2 enters the 2-cycle: 2,1,0,1,0",
           [2, 1, 0, 1, 0], list(trace.states),
           trace.halted_by == "period-2" and trace.states == (2, 1, 0, 1, 0))


def _reproduce_burton(checks):
    entry = catalog("burton_logistic")
    step = Fraction(entry.params["grid_step"])
    report = classify.full_report(entry.space, entry.map)
    _check(checks, "b-large-contraction", "logistic-ratio map: pairwise contraction holds on scope",
           "pass", "pass" if report.large_contraction.passed else "fail",
           report.large_contraction.passed)
    tol = 2 * step
    for eps in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
        entry_eps = [e for e in report.pairwise_moduli.entries if e.eps == eps][0]
        target = 1 / (1 + eps)
        ok = entry_eps.delta is not None and abs(entry_eps.delta - target) <= tol
        _check(checks, f"b-delta-{eps}",
               f"logistic-ratio map: delta({eps}) matches 1/(1+eps) within 2*step",
               format_scalar(target), format_scalar(entry_eps.delta), ok)
    alpha = report.tpc_alpha
    _check(checks, "b-alpha", "logistic-ratio map: perimeter ratio supremum reaches 0.99",
           ">= 0.99", format_scalar(alpha),
           alpha >= Fraction(99, 100) and not report.uniform_tpc.passed)
    _check(checks, "b-large-tpc", "logistic-ratio map: large perimeter contraction holds on scope",
           "pass", "pass" if report.large_tpc.passed else "fail", report.large_tpc.passed)
    trace = dynamics.picard_orbit(entry.map, Fraction(1), max_steps=200)
    _check(checks, "b-picard", "logistic-ratio orbit from 1: x_200 = 1/201 exactly",
           "1/201", format_scalar(trace.states[200]),
           trace.states[200] == Fraction(1, 201))


def _reproduce_floor(checks):
    import numpy as np

    entry = catalog("floor_half")
    report = classify.full_report(entry.space, entry.map)
    strict = report.pairwise_strict
    wit = strict.witness or {}
    _check(checks, "f-pairwise-witness",
           "halving map: strict pairwise contraction fails at (1,2) with equal distances",
           {"x": 1, "y": 2}, {"x": wit.get("x"), "y": wit.get("y")},
           (not strict.passed) and wit.get("x") == 1 and wit.get("y") == 2
           and wit.get("distance") == wit.get("image_distance") == 1)
    alpha = report.tpc_alpha
    _check(checks, "f-alpha-bound",
           "halving map: perimeter ratio supremum is at most 3/4 (uniform condition holds)",
           "<= 3/4", format_scalar(alpha),
           alpha <= Fraction(3, 4) and report.uniform_tpc.passed)
    # Parity case bounds.  floor(n/2) is monotone, so a sorted triple's ratio
    # is (floor(k/2)-floor(i/2))/(k-i) independent of the middle point, and
    # checking all (i,k) pairs with k-i >= 2 covers every triple exhaustively.
    coords = np.arange(entry.space.numerators[-1] + 1, dtype=np.int64)
    imgs = coords // 2
    ok_cases = True
    # (min parity, max parity) -> bound: only odd-min/even-max needs 3/4
    for lo_par, hi_par, num_mul, den_mul in (
            (0, 0, 1, 2), (1, 1, 1, 2), (0, 1, 1, 2), (1, 0, 3, 4)):
        # bound: (T-spread)/(span) <= num_mul/den_mul  <=>  den_mul*spread <= num_mul*span
        for i in range(len(coords) - 2):
            if coords[i] % 2 != lo_par:
                continue
            ks = coords[i + 2:]
            sel = ks % 2 == hi_par
            if not sel.any():
                continue
            spread = imgs[i + 2:][sel] - imgs[i]
            span = ks[sel] - coords[i]
            if (den_mul * spread > num_mul * span).any():
                ok_cases = False
    _check(checks, "f-parity-cases",
           "halving map: parity case bounds (1/2, 1/2, 1/2, 3/4) hold exhaustively",
           "all hold", "all hold" if ok_cases else "violated", ok_cases)
    v = theorem_lab.verdict("corrected_main", entry.space, entry.map, x0=256,
                            report=report)
    _check(checks, "f-corrected",
           "halving map: corrected statement confirmed with fixed-point set {0}",
           {"status": "confirmed", "fixed_points": ["0"]},
           {"status": v.status,
            "fixed_points": None if v.fixed_points is None
            else [format_scalar(p) for p in v.fixed_points]},
           v.status == "confirmed" and v.fixed_points == (Fraction(0),))
    trace = dynamics.picard_orbit(entry.map, Fraction(256), max_steps=32)
    _check(checks, "f-orbit", "halving orbit from 256 halts at the fixed point 0",
           "fixed-point at 0", f"{trace.halted_by} at {format_scalar(trace.final_state)}",
           trace.halted_by == "fixed-point" and trace.final_state == 0)


def _reproduce_composite(checks):
    entry = catalog("composite")
    index_max = int(entry.params["index_max"])
    report = classify.full_report(entry.space, entry.map)
    _check(checks, "c-large-contraction",
           "composite map: pairwise contraction fails on scope (tail ratios approach 1)",
           "fail", "pass" if report.large_contraction.passed else "fail",
           not report.large_contraction.passed)
    d1 = [e for e in report.pairwise_moduli.entries if e.eps == 1][0]
    wit = d1.witness or {}
    _check(checks, "c-pairwise-delta1",
           "composite map: pairwise delta(1) reaches 1 - 1/n_max at a distance-1 pair",
           f">= {format_scalar(1 - Fraction(1, index_max))}",
           format_scalar(d1.delta),
           d1.delta is not None and d1.delta >= 1 - Fraction(1, index_max)
           and wit.get("distance") == 1)
    alpha = report.tpc_alpha
    _check(checks, "c-alpha",
           "composite map: no uniform perimeter ratio bounded below 1 on scope",
           ">= 49/50 and fail", format_scalar(alpha),
           alpha >= Fraction(49, 50) and not report.uniform_tpc.passed)
    _check(checks, "c-large-tpc", "composite map: large perimeter contraction holds on scope",
           "pass", "pass" if report.large_tpc.passed else "fail", report.large_tpc.passed)
    dt_half = [e for e in report.triple_moduli.entries if e.eps == Fraction(1, 2)][0]
    _check(checks, "c-triple-delta-half",
           "composite map: triple delta(1/2) equals 1/(1+1/2) = 2/3",
           "2/3", format_scalar(dt_half.delta), dt_half.delta == Fraction(2, 3))
    dt_two = [e for e in report.triple_moduli.entries if e.eps == 2][0]
    _check(checks, "c-triple-delta-two",
           "composite map: triple delta(2) is at most 1/2",
           "<= 1/2", format_scalar(dt_two.delta),
           dt_two.delta is not None and dt_two.delta <= Fraction(1, 2))
    bounds_ok = True
    for e in report.triple_moduli.entries:
        if e.vacuous:
            continue
        bound = 1 / (1 + e.eps) if e.eps <= 1 else Fraction(1, 2)
        if e.delta > bound:
            bounds_ok = False
    _check(checks, "c-triple-modulus-shape",
           "composite map: triple delta(eps) <= 1/(1+eps) below 1 and <= 1/2 above",
           "all within bounds", "all within bounds" if bounds_ok else "exceeded",
           bounds_ok)


def cmd_reproduce(args) -> int:
    checks = []
    _reproduce_period2(checks)
    _reproduce_burton(checks)
    _reproduce_floor(checks)
    _reproduce_composite(checks)
    all_pass = all(c["pass"] for c in checks)
    doc = {
        "command": "reproduce",
        "checks": checks,
        "all_pass": all_pass,
    }
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
    print(f"pairwise strict: {'pass' if report.pairwise_strict.passed else 'fail'}")
    print(f"large contraction: {'pass' if report.large_contraction.passed else 'fail'}")
    print(f"perimeter ratio supremum: {format_scalar(report.tpc_alpha)} "
          f"({'pass' if report.uniform_tpc.passed else 'fail'})")
    print(f"large perimeter contraction: {'pass' if report.large_tpc.passed else 'fail'}")
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
          f"{format_scalar(trace.final_state) if isinstance(trace.final_state, Fraction) else trace.final_state}")
    print(f"residual {format_scalar(trace.residual)} "
          f"({'converged' if doc['converged'] else 'not yet converged'} at tol {args.tol})")
    print(f"wrote: {path}")
    print(f"wrote: {csv_path}")
    return 0


def cmd_verify(args) -> int:
    space, mapping, origin, key = _load_target(args)
    if args.x0 is not None:
        x0 = resolve_point(space, args.x0)
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
                                                         theorem_id=args.theorem)
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

def _add_target_args(p, with_mode=True):
    p.add_argument("--catalog", choices=CATALOG_IDS, help="catalog instance id")
    p.add_argument("--instance", help="path to a JSON instance file")
    p.add_argument("--grid-step", type=_rational_arg,
                   help="grid step for sampled catalog spaces (e.g. 1/512)")
    p.add_argument("--max-n", type=int,
                   help="truncation for integer-backed catalog spaces")
    if with_mode:
        p.add_argument("--mode", choices=("exact", "float"),
                       help="arithmetic mode override for instance files")


def _add_common_output(p):
    p.add_argument("--out", default="out", help="output directory (default ./out)")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as InputError: exit 1, since 2 means a refutation."""

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
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("classify", help="classify an instance into the contraction hierarchy")
    _add_target_args(p)
    p.add_argument("--eps-grid", help="comma-separated eps values (e.g. 1/8,1/4,1/2)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv also writes the modulus tables as CSV")
    _add_common_output(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("iterate", help="run a Picard orbit with diagnostics")
    _add_target_args(p)
    p.add_argument("--x0", required=True, help="start point (label or p/q)")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--tol", type=_tolerance_arg, default="1/10000000000",
                   help="residual tolerance (default 1e-10 as a rational)")
    _add_common_output(p)
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("verify", help="evaluate a fixed-point statement on an instance")
    p.add_argument("--theorem", required=True, choices=theorem_lab.THEOREM_IDS)
    _add_target_args(p)
    p.add_argument("--x0", help="start point for the bounded-orbit hypothesis")
    p.add_argument("--eps-grid")
    _add_common_output(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("search", help="randomized counterexample search")
    p.add_argument("--theorem", required=True,
                   choices=("mesmouli_uncorrected", "corrected_main"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--size-range", default="3..12")
    p.add_argument("--bias", choices=("uniform", "period2"), default="uniform")
    _add_common_output(p)
    p.set_defaults(fn=cmd_search)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
