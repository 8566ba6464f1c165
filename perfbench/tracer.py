"""Per-layer tracing of one floparr CLI invocation, in process.

    python3 perfbench/tracer.py SPANS_FILE chambers "D4:J={}"

runs ``floparr.cli.main(argv)`` after wrapping the public functions that
form the boundaries of each layer (module) at every place they are
imported, and writes the spans and counters to SPANS_FILE as JSON.
Nothing inside floparr changes: the wrappers live in this file only.

A span is ``[name, start, end, parent, extra]``: ``parent`` is the index
of the enclosing span or -1, ``extra`` holds counts taken from the
call's arguments or result.  ``layer_metrics`` folds the spans of one
pass into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


def _feasibility(args, kwargs, result):
    """Classify a feasible_point call by the shape of its arguments only."""
    ineqs = args[1] if len(args) > 1 else kwargs["ineqs"]
    eqs = args[2] if len(args) > 2 else kwargs.get("eqs", ())
    if not eqs:
        kind = "witness"
    elif all(strict for _, _, strict in ineqs):
        kind = "wall_test"
    else:
        kind = "boundary"
    return {"kind": kind, "rows": len(ineqs) + len(eqs), "feasible": result is not None}


def _graph_size(args, kwargs, graph):
    return {"chambers": len(graph.chambers), "edges": len(graph.edges)}


def _length(args, kwargs, result):
    return {"count": len(result)}


def _verdict(args, kwargs, result):
    return {"proven": result.name == "PROVEN_EQUAL"}


# (module, function) -> describe(args, kwargs, result) or None
TRACED = {
    ("dynkin", "parse_data"): None,
    ("dynkin", "positive_roots"): None,
    ("arrangement", "build_finite"): None,
    ("arrangement", "build_affine"): None,
    ("arrangement", "arrangement_from_json"): None,
    ("arrangement", "arrangement_to_json"): None,
    ("arrangement", "dumps"): None,
    ("linear", "feasible_point"): _feasibility,
    ("chambers", "seed_chamber"): None,
    ("chambers", "enumerate_chambers"): _graph_size,
    ("chambers", "graph_to_json"): None,
    ("galleries", "atoms"): _length,
    ("pi1", "generators"): _length,
    ("pi1", "relations"): _length,
    ("pi1", "check_representation"): None,
    ("pi1", "equal_in_groupoid"): _verdict,
    ("cli", "main"): None,
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            if describe is not None:
                record[4] = describe(args, kwargs, result)
            return result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Replace each traced function wherever a floparr module holds it."""
        import floparr.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in list(sys.modules.items()) if n == "floparr" or n.startswith("floparr.")]
        for (module, function), describe in TRACED.items():
            original = getattr(sys.modules.get(f"floparr.{module}"), function, None)
            if original is None:
                continue
            wrapped = self.wrap(f"{module}.{function}", original, describe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
        perm = sys.modules["floparr.perms"].Perm
        perm.__mul__ = self.count("perms.mul", perm.__mul__)


# span name -> metric prefix; the prefix gets .s and .calls
_SPAN_METRIC = {
    "dynkin.positive_roots": "dynkin.positive_roots",
    "arrangement.build_finite": "arrangement.build",
    "arrangement.build_affine": "arrangement.build",
    "arrangement.arrangement_from_json": "arrangement.build",
    "arrangement.dumps": "arrangement.dumps",
    "chambers.enumerate_chambers": "chambers.enumerate",
    "chambers.seed_chamber": "chambers.seed",
    "galleries.atoms": "galleries.atoms",
    "pi1.generators": "pi1.generators",
    "pi1.relations": "pi1.relations",
    "pi1.check_representation": "pi1.check_representation",
    "pi1.equal_in_groupoid": "pi1.equal_in_groupoid",
    "cli.main": "cli.main",
}


def _has_ancestor(spans, parent, metric) -> bool:
    while parent >= 0:
        if _SPAN_METRIC.get(spans[parent][0]) == metric:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(invocations) -> dict:
    """Per-layer totals over the spans and counters of one pass.

    Times are sums of span durations, counting a span only when no
    enclosing span has the same metric, so nested calls are not counted
    twice.  Self time is a span's duration minus that of its children.
    """
    m = Counter()
    feasible = 0
    for record in invocations:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(spans):
            duration = end - start
            self_time = duration - child_time[i]
            m[f"{name.split('.')[0]}.self_s"] += self_time
            metric = _SPAN_METRIC.get(name)
            if metric and not _has_ancestor(spans, parent, metric):
                m[f"{metric}.s"] += duration
                m[f"{metric}.calls"] += 1
            extra = extra or {}
            if name == "linear.feasible_point":
                m[f"linear.{extra['kind']}.calls"] += 1
                m[f"linear.{extra['kind']}.s"] += duration
                m["linear.rows_in.sum"] += extra["rows"]
                feasible += extra["feasible"]
            elif name == "chambers.enumerate_chambers":
                m["chambers.enumerate.self_s"] += self_time
                m["chambers.count"] += extra.get("chambers", 0)
                m["chambers.edges"] += extra.get("edges", 0)
            elif name == "galleries.atoms":
                m["galleries.atoms.paths"] += extra.get("count", 0)
            elif name in ("pi1.generators", "pi1.relations"):
                m[f"{name}.count"] += extra.get("count", 0)
            elif name == "pi1.equal_in_groupoid":
                m["pi1.equal_in_groupoid.proven"] += extra.get("proven", False)
        m["perms.mul.calls"] += record["counts"].get("perms.mul", 0)
    calls = sum(m[f"linear.{k}.calls"] for k in ("wall_test", "witness", "boundary"))
    m["linear.feasible_ratio"] = feasible / calls if calls else 0.0
    chambers = m["chambers.count"]
    m["chambers.feasible_calls_per_chamber"] = calls / chambers if chambers else 0.0
    proven, eq_calls = m.pop("pi1.equal_in_groupoid.proven", 0), m["pi1.equal_in_groupoid.calls"]
    m["pi1.equal_in_groupoid.proven_ratio"] = proven / eq_calls if eq_calls else 0.0
    return dict(m)


def main(argv) -> int:
    spans_file, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    import floparr.cli

    try:
        return floparr.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        Path(spans_file).write_text(json.dumps({"spans": recorder.spans, "counts": recorder.counts}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
