"""Summarize parent/change benchmark pairs into a BENCH_<label>.json trajectory file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        --label LABEL [--out BENCH_LABEL.json]

Each checkout's ``.bench/results/`` holds the result files that
``bench/run.py`` wrote there, one ``<workload>-seed<s>-trace<t>.json`` per
run: trace 0 for a timed run, trace 1 for a traced one.  A pair is a
workload and seed run untraced on both checkouts; every such pair is
recorded.  Per pair the file holds the seed and each side's ``ops_per_s``,
``setup_s`` and ``peak_rss_mib``; per workload and metric, each side's median
and quartiles, the change's median relative to the parent's, and how many
pairs the change won, lost or tied.  Per workload it also lists each side's
traced runs by seed with their ``correct`` flag (no problems reported).  The
machine's ``env`` block, which every run records, is copied once; runs from
different machines, or runs (traced or not) that reported problems, are
refused.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

# metric -> which direction is better
METRICS = {"ops_per_s": "higher", "setup_s": "lower", "peak_rss_mib": "lower"}
RESULT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def read_results(checkout):
    """{(workload, seed, trace): result record} for the runs of one checkout."""
    results = {}
    for path in sorted((Path(checkout) / ".bench" / "results").glob("*-trace*.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match:
            record = json.loads(path.read_text(encoding="utf-8"))
            if record["problems"]:
                raise ValueError(f"{path} reports problems: {record['problems'][:3]}")
            results[match["workload"], int(match["seed"]), int(match["trace"])] = record
    return results


def spread(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(parent, change, label):
    """The BENCH document for the pairs common to two result sets."""
    keys = sorted(k for k in parent.keys() & change.keys() if k[2] == 0)
    if not keys:
        raise ValueError("no workload and seed was run on both checkouts")
    envs = {json.dumps(r["env"], sort_keys=True)
            for results in (parent, change) for r in results.values()}
    if len(envs) != 1:
        raise ValueError(f"the runs come from {len(envs)} different environments")
    workloads = {}
    for workload, seed, _ in keys:
        sides = {side: {m: results[workload, seed, 0]["metrics"][m]["value"] for m in METRICS}
                 for side, results in (("parent", parent), ("change", change))}
        workloads.setdefault(workload, {"pairs": []})["pairs"].append({"seed": seed, **sides})
    for workload, entry in workloads.items():
        entry["traced"] = {side: [{"seed": seed, "correct": not r["problems"]}
                                  for (w, seed, trace), r in sorted(results.items())
                                  if w == workload and trace == 1]
                           for side, results in (("parent", parent), ("change", change))}
        pairs = entry["pairs"]
        entry["summary"] = {}
        for metric, better in METRICS.items():
            sign = 1 if better == "higher" else -1
            diffs = [sign * (p["change"][metric] - p["parent"][metric]) for p in pairs]
            parent_spread = spread([p["parent"][metric] for p in pairs])
            change_spread = spread([p["change"][metric] for p in pairs])
            entry["summary"][metric] = {
                "better": better,
                "parent": parent_spread,
                "change": change_spread,
                "change_over_parent": change_spread["median"] / parent_spread["median"],
                "wins": sum(d > 0 for d in diffs),
                "losses": sum(d < 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
            }
    return {"label": label, "env": json.loads(envs.pop()), "workloads": workloads}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--label", required=True, help="name of the change, used in the output name")
    p.add_argument("--out", help="output path (default BENCH_<label>.json)")
    args = p.parse_args(argv)
    try:
        doc = summarize(read_results(args.parent), read_results(args.change), args.label)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out or f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, entry in doc["workloads"].items():
        s = entry["summary"]["ops_per_s"]
        print(f"{workload}: {len(entry['pairs'])} pairs, ops_per_s "
              f"{s['parent']['median']:.4g} -> {s['change']['median']:.4g} "
              f"(x{s['change_over_parent']:.3f}, wins {s['wins']}, "
              f"parent IQR {s['parent']['iqr']:.3g})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
