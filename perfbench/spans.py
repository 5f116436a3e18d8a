"""In-memory spans around the package's public functions, for the traced pass.

``install`` wraps every function a row of ``layers.ROWS`` names, at every
binding a ``foguel.*`` module holds, plus each ``ExperimentSpec.runner``.
Each call records ``(span, start, end, parent, trial, extra)``; ``extra``
feeds the exact counters.  Nothing is written until ``dump``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from functools import cached_property
from time import perf_counter

import numpy as np

from layers import EIG_SPANS, ROWS


def _eig_order_cubed(args, result) -> int:
    """Order of the Hermitian eigenproblem, cubed; operator_norm solves m* m.

    A scalar argument is a 1 x 1 matrix to the linalg entry points.
    """
    return (np.shape(args[0]) or (1,))[-1] ** 3


_EXTRA = {
    **dict.fromkeys(EIG_SPANS, _eig_order_cubed),
    "schur.norm_by_bisection": lambda args, result: result.iterations,
    "experiments.emit_report": lambda args, result: len(result),
}


class Tracer:
    """Span store for one process; ``trial`` is the runner's trial index or -1."""

    def __init__(self):
        self.spans = []
        self.trial = -1
        self._stack = []

    def wrap(self, span: str, fn, *, runner: bool = False):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if runner:
                self.trial = args[1].stream_id  # runner(cfg, gen, base, scale)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.trial, None)
                if runner:
                    self.trial = -1
            if extra is not None:
                spans[index] = spans[index][:5] + (extra(args, result),)
            return result

        return traced


def _foguel_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "foguel" or name.startswith("foguel.")
    }


def install(tracer: Tracer) -> list:
    """Wrap every row's functions at every binding; return unwrapped leftovers.

    An empty list means no ``foguel.*`` module, class or experiment spec
    still reaches an original function.
    """
    modules = _foguel_modules()
    originals = {}  # id(original) -> (original, wrapper)
    class_attrs = []  # (class, attribute, original descriptor)
    for row in ROWS:
        for target in row.targets:
            module_name, attr = target.split(":")
            module = modules[module_name]
            if "." in attr:
                cls_name, name = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[name]
                if isinstance(raw, cached_property):
                    new = cached_property(tracer.wrap(row.span, raw.func))
                    new.__set_name__(cls, name)
                else:
                    new = tracer.wrap(row.span, raw)
                setattr(cls, name, new)
                class_attrs.append((cls, name, raw))
            else:
                original = getattr(module, attr)
                originals[id(original)] = (original, tracer.wrap(row.span, original))

    experiments = modules["foguel.experiments"]
    for name, spec in list(experiments.EXPERIMENTS.items()):
        wrapper = tracer.wrap("experiments.runner", spec.runner, runner=True)
        originals[id(spec.runner)] = (spec.runner, wrapper)
        experiments.EXPERIMENTS[name] = dataclasses.replace(spec, runner=wrapper)

    # originals holds every original, so an id seen here cannot be reused
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                setattr(module, attr, originals[id(value)][1])

    leftovers = []
    for module_name, module in _foguel_modules().items():
        for attr, value in vars(module).items():
            if id(value) in originals:
                leftovers.append(f"{module_name}.{attr}")
    for name, spec in experiments.EXPERIMENTS.items():
        if id(spec.runner) in originals:
            leftovers.append(f"EXPERIMENTS[{name!r}].runner")
    for cls, name, raw in class_attrs:
        if cls.__dict__[name] is raw:
            leftovers.append(f"{cls.__module__}.{cls.__name__}.{name}")
    return leftovers


def aggregate(spans: list) -> dict:
    """Per-row ``.calls`` and ``.self_ms`` plus the exact counters.

    Self time is a span's duration minus the durations of its direct
    children; calls run one at a time, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for span, start, end, parent, trial, value in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = dict.fromkeys((row.span for row in ROWS), 0)
    self_s = dict.fromkeys(calls, 0.0)
    extra = dict.fromkeys(calls, 0)
    for index, (span, start, end, parent, trial, value) in enumerate(spans):
        calls[span] += 1
        self_s[span] += (end - start) - covered[index]
        if value is not None:
            extra[span] += value
    out = {}
    for span in calls:
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_ms"] = self_s[span] * 1e3
    out["linalg.eig_work"] = sum(extra[span] for span in EIG_SPANS)
    out["schur.norm_by_bisection.iterations"] = extra["schur.norm_by_bisection"]
    out["experiments.report_bytes"] = extra["experiments.emit_report"]
    return out


def dump(spans: list, path: str) -> None:
    """Write the spans as JSON lines: name, start, end, parent, trial."""
    with open(path, "w", encoding="utf-8") as handle:
        for span, start, end, parent, trial, _ in spans:
            handle.write(
                json.dumps(
                    {"name": span, "start": start, "end": end, "parent": parent, "trial": trial}
                )
                + "\n"
            )
