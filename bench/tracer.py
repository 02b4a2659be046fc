"""Span tracer that instruments qdata from outside, by rebinding names.

Every public function and public method of each qdata module, plus the
``__post_init__`` validators and two private hooks (``harness._execute_one``
for per-job time, ``detectors._calibrated_null`` for calibration), is
replaced by a wrapper that records one span per call: name, start, end,
parent span and an optional tag.  The wrapper is rebound wherever the
original is reachable at module level, so ``from .x import f`` copies in
other modules are covered as well; ``concatenate_tests`` imports inside the
function and therefore reads the rebound module attribute at call time.

Spans stay in memory; ``write`` stores them once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

MODULES = (
    "rng",
    "linalg",
    "states",
    "channels",
    "boxes",
    "tomography",
    "detectors",
    "scenario",
    "harness",
    "cli",
)

_PRIVATE_HOOKS = {
    "harness": ("_execute_one",),
    "detectors": ("_calibrated_null",),
}


def _state_tag(args, kwargs):
    run = args[1] if len(args) > 1 else kwargs["run"]
    return args, kwargs, ("q1" if run.dim == 2 else "q2")


def _rounds_tag(args, kwargs):
    return args, kwargs, int(args[1] if len(args) > 1 else kwargs["rounds"])


def _calibration_tag(args, kwargs):
    """Tag ``[key, replications evaluated]``; the count fills in during the call."""
    key, statistic_fn = args
    tag = [key, 0]

    def statistic(box, stream):
        tag[1] += 1
        return statistic_fn(box, stream)

    return (key, statistic), kwargs, tag


# span name -> prepare(args, kwargs) returning (args, kwargs, tag)
_PREPARE = {
    "tomography.state_tomography": _state_tag,
    "detectors.qrac_fidelity_estimate": _rounds_tag,
    "detectors._calibrated_null": _calibration_tag,
}


class Tracer:
    """Records spans for every call into the instrumented qdata names.

    A span is ``(span_id, name, start, end, parent_id, tag)`` with times
    from ``time.perf_counter``.  A span opened on a thread with no open
    span of its own (a harness pool worker) takes the innermost open span
    of the installing thread as parent, so jobs nest under
    ``harness.run_scenario``.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list = []
        self._root_thread = threading.get_ident()

    def _stack(self) -> list:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, func):
        spans = self.spans
        ids = self._ids
        prepare = _PREPARE.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else 0
            sid = next(ids)
            tag = None
            if prepare is not None:
                args, kwargs, tag = prepare(args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tag))

        return traced

    def install(self, package: str = "qdata") -> None:
        """Instrument the package in place, for the rest of the process."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [vars(mod) for mod in modules.values()]
        namespaces.append(vars(importlib.import_module(package)))
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value) and (
                    not attr.startswith("_") or attr in _PRIVATE_HOOKS.get(short, ())
                ):
                    wrapper = self._wrap(f"{short}.{attr}", value)
                    for ns in namespaces:
                        for key, bound in list(ns.items()):
                            if bound is value:
                                ns[key] = wrapper
                elif inspect.isclass(value):
                    self._instrument_class(short, value)

    def _instrument_class(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                kind = type(member)
                setattr(cls, attr, kind(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member) and not getattr(member, "__isabstractmethod__", False):
                setattr(cls, attr, self._wrap(name, member))

    def write(self, path) -> None:
        """Store all spans as JSON lines: one header, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "tag"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children."""
    children: dict = {}
    for sid, _name, start, end, parent, _tag in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _union_length(children.get(sid, ()))
        for sid, _name, start, end, _parent, _tag in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def uncovered_share(spans, outer_name: str) -> float:
    """Share of the ``outer_name`` spans' time that no span inside them covers."""
    outer = [(s, e) for _sid, name, s, e, _p, _t in spans if name == outer_name]
    if not outer:
        return 0.0
    total = sum(e - s for s, e in outer)
    covered = 0.0
    for o_start, o_end in outer:
        inner = [
            (s, e)
            for _sid, name, s, e, _p, _t in spans
            if name != outer_name and o_start <= s and e <= o_end
        ]
        covered += _union_length(inner)
    return (total - covered) / total
