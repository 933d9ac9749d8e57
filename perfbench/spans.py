"""Spans around treecascade's public functions, recorded from outside the package.

The tracer wraps each target function and rebinds the wrapper under every
name that holds the original in a ``treecascade`` module namespace: the
package binds functions with ``from .x import f``, so a call made from
another module would otherwise bypass the span.  Spans (op id, span id,
parent span id, name, start, end) stay in memory until :meth:`Tracer.write`.

Per-pair helpers (``pairwise_mi_weight``, ``WeightedGraph.weight``,
``canonical_edge``) are deliberately not wrapped: they run tens of
thousands of times per op, and their time belongs to the caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

#: ``module:qualname`` of every traced function, grouped by module.
TARGETS = (
    "dataio:load_csv",
    "dataio:price_changes",
    "dataio:standardize",
    "dataio:save_csv",
    "dataio:save_fit",
    "dataio:load_document",
    "dataio:model_from_document",
    "regression:correlation_from_dataset",
    "regression:correlation_from_covariance",
    "regression:squared_correlation_graph",
    "regression:fit_cascade",
    "regression:empirical_fit",
    "trees:WeightedGraph.from_matrix",
    "trees:maximum_spanning_tree",
    "trees:mst_is_unique",
    "trees:check_strict_triangle_condition",
    "trees:root_tree",
    "cascade:make_unit_variance_model",
    "cascade:population_covariance",
    "cascade:cascade_inverse",
    "cascade:coefficient_matrix",
    "cascade:verify_covariance_lemmas",
    "cascade:simulate",
    "chowliu:chow_liu_tree",
    "chowliu:correspondence_check",
    "cli:main",
)
MODULES = ("dataio", "regression", "trees", "cascade", "chowliu", "cli")
PACKAGE = "treecascade"


def span_name(target: str) -> str:
    return target.replace(":", ".")


class Tracer:
    """Records nested spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (self.op_id, sid, parent, name, start, end)

        return wrapper

    def _namespaces(self) -> list[dict]:
        return [
            vars(mod)
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    @contextmanager
    def installed(self, op_id: int):
        """Wrap every target for the duration of one op, then restore them.

        A target that the package no longer defines is skipped, so the
        benchmark keeps running when a later version removes a function.
        """
        undo: list[tuple[object, str, object]] = []
        namespaces = self._namespaces()
        try:
            for target in TARGETS:
                module_name, qualname = target.split(":")
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                if module is None:
                    continue
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = getattr(cls, "__dict__", {}).get(meth)
                    if raw is None:
                        continue
                    is_static = isinstance(raw, staticmethod)
                    wrapped = self._wrap(span_name(target), raw.__func__ if is_static else raw)
                    setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
                    undo.append((cls, meth, raw))
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    continue
                wrapped = self._wrap(span_name(target), original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapped
                            undo.append((ns, key, original))
            self.op_id = op_id
            yield
        finally:
            self.op_id = None
            for holder, key, value in reversed(undo):
                if isinstance(holder, dict):
                    holder[key] = value
                else:
                    setattr(holder, key, value)

    def per_op(self) -> dict[int, dict]:
        """Per op: its traced duration and, per span name, self time and calls.

        The op's duration is the summed duration of its root spans (the
        ``cli.main`` calls).  Self time is a span's duration minus that of
        its direct children; spans nest strictly, so children never overlap.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span is not None and span[2] is not None:
                child_time[span[2]] = child_time.get(span[2], 0.0) + span[5] - span[4]
        ops: dict[int, dict] = {}
        for span in self.spans:
            if span is None:
                continue
            op_id, sid, parent, name, start, end = span
            op = ops.setdefault(op_id, {"op_s": 0.0, "self_s": {}, "calls": {}})
            if parent is None:
                op["op_s"] += end - start
            op["self_s"][name] = op["self_s"].get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
            op["calls"][name] = op["calls"].get(name, 0) + 1
        return ops

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("op", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(dict(zip(keys, span))) + "\n")
