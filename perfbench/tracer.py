"""Span tracer that wraps package functions from outside the package.

Functions are wrapped in every loaded ``rasper`` module that holds them, so
names bound by ``from ... import`` (``selection.fit_rasper``,
``cli.select``, ``simbench.select``, ...) are traced too. Each thread keeps
its own span stack, because ``simbench.run_benchmark`` runs replications on a
thread pool. Every patched attribute is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field

# Layer label -> (module, function). ``simbench.replication`` is the
# private per-replication function the thread pool calls; its spans give
# the pool's busy time.
TRACED = {
    "data_model.external_ranks": ("rasper.data_model", "external_ranks"),
    "data_model.load_dataset": ("rasper.data_model", "load_dataset"),
    "concordance.pair_weights": ("rasper.concordance", "pair_weights"),
    "concordance.build_marginal_sampler": ("rasper.concordance", "build_marginal_sampler"),
    "solver.fit_rasper": ("rasper.solver", "fit_rasper"),
    "solver.mm_step": ("rasper.solver", "mm_step"),
    "solver.penalized_objective": ("rasper.solver", "penalized_objective"),
    "solver.local_minimizer": ("rasper.solver", "local_minimizer"),
    "selection.select": ("rasper.selection", "select"),
    "selection.loocv_score": ("rasper.selection", "loocv_score"),
    "selection.fold_weight_cache": ("rasper.selection", "fold_weight_cache"),
    "selection.degrees_of_freedom": ("rasper.selection", "degrees_of_freedom"),
    "baselines.fit_ols": ("rasper.baselines", "fit_ols"),
    "baselines.fit_ridge": ("rasper.baselines", "fit_ridge"),
    "baselines.fit_atl": ("rasper.baselines", "fit_atl"),
    "baselines.fit_stacking": ("rasper.baselines", "fit_stacking"),
    "baselines.projection_target": ("rasper.baselines", "projection_target"),
    "simbench.run_benchmark": ("rasper.simbench", "run_benchmark"),
    "simbench.generate": ("rasper.simbench", "generate"),
    "simbench.replication": ("rasper.simbench", "_attempt"),
    "cli.main": ("rasper.cli", "main"),
}


@dataclass
class Span:
    label: str
    parent: str | None
    thread: int
    start: float
    end: float
    self_s: float
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class _Frame:
    __slots__ = ("label", "start", "child")

    def __init__(self, label, start):
        self.label = label
        self.start = start
        self.child = 0.0


class Tracer:
    """Context manager that records a Span for every call of a traced
    function while active.

    ``inspect`` maps a label to ``f(args, kwargs, result) -> dict``; the dict
    is stored on the span. Keep these cheap: they run inside the parent span.
    """

    def __init__(self, inspect=None):
        self.inspect = dict(inspect or {})
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label, fn):
        inspect = self.inspect.get(label)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(label, clock())
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                span = Span(label, stack[-1].label if stack else None,
                            threading.get_ident(), frame.start, end,
                            duration - frame.child)
                if returned and inspect is not None:
                    span.info = inspect(args, kwargs, result)
                spans.append(span)

        return traced

    def __enter__(self):
        for module_name, _ in TRACED.values():
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rasper" or name.startswith("rasper."))]
        for label, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                self.missing.append(label)
                continue
            wrapper = self._wrap(label, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        return False
