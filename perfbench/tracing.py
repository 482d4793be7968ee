"""Spans and counts at the program's layer boundaries, for traced runs.

A traced run replaces the public functions each layer exposes with
wrappers, at the names the calling module resolves (the engine imports
`predict_batch` by name, so the wrapper goes on `sparsescan.engine`; it
calls `neighbors.insert_measurement` through the module, so the wrapper
goes on `sparsescan.neighbors`).  Each call records a span (name, start,
end, parent) and the counts read from its arguments and return value.
Spans stay in memory until `write` is called at the end of the run.
"""

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import sparsescan.core
import sparsescan.engine
import sparsescan.neighbors
import sparsescan.training


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counts or None]
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            rec[4] = count(args, kwargs, out)
        return out

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self):
        """{name: {"s": self seconds, "calls": n, <count>: total}}."""
        agg = defaultdict(lambda: defaultdict(float))
        for rec, self_s in zip(self.spans, self.self_times()):
            a = agg[rec[0]]
            a["s"] += self_s
            a["calls"] += 1
            for key, value in (rec[4] or {}).items():
                a[key] += value
        return agg

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "counts"],
                    "spans": self.spans,
                },
                fh,
            )


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(pos, name):
    return lambda a, k, out: {"rows": len(_arg(a, k, pos, name))}


def _insert_counts(a, k, out):
    return {"rows_scanned": len(_arg(a, k, 1, "query_indices")), "rows_changed": len(out)}


# (owner, attribute, span name, count function) for every wrapped boundary
LAYER_TARGETS = (
    (sparsescan.engine, "predict_batch", "regress.predict_batch", _rows(1, "raw_features")),
    (sparsescan.engine, "compute_feature_matrix", "features.compute_feature_matrix", _rows(1, "rows")),
    (sparsescan.training, "compute_feature_matrix", "features.compute_feature_matrix", _rows(1, "rows")),
    (sparsescan.engine, "idw_from_neighbors", "recon.idw_from_neighbors", _rows(0, "comp")),
    (sparsescan.training, "idw_from_neighbors", "recon.idw_from_neighbors", _rows(0, "comp")),
    (sparsescan.neighbors, "insert_measurement", "neighbors.insert_measurement", _insert_counts),
    (sparsescan.neighbors, "knn_measured", "neighbors.knn_measured", _rows(0, "query_indices")),
    (sparsescan.training, "exact_abs_sum", "numerics.exact_abs_sum", None),
    (sparsescan.core, "exact_abs_sum", "numerics.exact_abs_sum", None),
    (sparsescan.training.RdEvaluator, "__init__", "training.RdEvaluator", None),
    (sparsescan.training.RdEvaluator, "feature_matrix", "training.RdEvaluator", None),
    (sparsescan.training.RdEvaluator, "rd_windowed", "training.rd_windowed", None),
)


@contextmanager
def installed(tracer, targets=LAYER_TARGETS):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, count in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, count))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
