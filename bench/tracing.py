"""In-memory span tracing around the public functions of each contraction_lab layer.

The tracer wraps each function listed in LAYERS and installs the wrapper in
every contraction_lab module namespace that holds the original, so callers
that imported a function by name (``cli`` imports ``catalog`` and
``load_instance``, ``theorem_lab`` imports ``metric_repair`` and ``catalog``)
are traced as well.  Spans stay in memory, carry the benchmark op id and the
id of the enclosing span, and are written out when the run ends.  One thread
makes every call, so a span's self time is its duration minus the durations
of its direct children, and nothing waits in a queue.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> (module that defines the functions, traced function names)
LAYERS = {
    "scan": ("contraction_lab.scan", ("line_pair_analysis", "line_triple_analysis",
                                      "table_pair_analysis", "table_triple_analysis")),
    "classify": ("contraction_lab.classify", ("full_report",)),
    "metric_core": ("contraction_lab.metric_core", ("validate_metric", "metric_repair")),
    "map_catalog": ("contraction_lab.map_catalog", ("catalog", "load_instance")),
    "dynamics": ("contraction_lab.dynamics", ("picard_orbit", "enumerate_fixed_points",
                                              "detect_period2")),
    "theorem_lab": ("contraction_lab.theorem_lab", ("random_instance", "verdict",
                                                    "run_validation")),
    "cli": ("contraction_lab.cli", ("main",)),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)


def _items(result):
    """Enumerated pairs or triples: EnumAnalysis.total."""
    return result.total


def _steps(result):
    """Recorded Picard steps: states beyond x0."""
    return len(result.states) - 1


# span name -> (counter name, function of the call's result)
COUNTERS = {
    "scan.line_pair_analysis": ("items", _items),
    "scan.line_triple_analysis": ("items", _items),
    "scan.table_pair_analysis": ("items", _items),
    "scan.table_triple_analysis": ("items", _items),
    "dynamics.picard_orbit": ("steps", _steps),
}


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names.append((f"{span}.calls", "count"))
        names.append((f"{span}.self_s", "s"))
        names.append((f"{span}.failed", "count"))
        if span in COUNTERS:
            names.append((f"{span}.{COUNTERS[span][0]}", "count"))
    return names


class Tracer:
    """Records one span per call of a traced function inside its ``with`` block."""

    def __init__(self):
        self.spans = []        # [id, parent, op, name, start, end, self_s, failed, count]
        self.op_id = None
        self._stack = []       # [span id, summed duration of direct children]
        self._patched = []     # (module, attribute, original)

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "contraction_lab"
                                         or name.startswith("contraction_lab."))]
        for layer, (home, fns) in LAYERS.items():
            for fn in fns:
                original = getattr(sys.modules[home], fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        count_fn = COUNTERS.get(name, (None, None))[1]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            record = [span_id, parent, self.op_id, name, 0.0, 0.0, 0.0, False, None]
            spans.append(record)
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[7] = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                record[4], record[5], record[6] = start, end, duration - frame[1]
            if count_fn is not None:
                record[8] = count_fn(result)
            return result

        return traced

    def summary(self):
        """Per-layer metrics: calls, self time, failures and work counters."""
        totals = {name: {"calls": 0, "self_s": 0.0, "failed": 0} for name in SPAN_NAMES}
        for name in COUNTERS:
            totals[name][COUNTERS[name][0]] = 0
        for _, _, _, name, _, _, self_s, failed, count in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["failed"] += int(failed)
            if count is not None:
                entry[COUNTERS[name][0]] += count
        return totals

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "parent", "op", "name", "start", "end", "self_s", "failed", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
