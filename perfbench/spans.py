"""Outside-in span tracing for the end-to-end benchmark.

The traced child process wraps the public call into each layer of the
library *where its caller looks it up* (for example ``repair_links`` as bound
in ``repro.noc.crossover``), so nothing under ``src/`` changes.  Every wrapped
call records one span in memory — ``(id, name, start, end, parent, run)`` —
plus a few counters read from the object it was called on (routing-engine
hit/miss/repair counters, evaluator evaluation/cache counters).

:func:`layer_stats` turns the spans into per-layer calls, busy time
(inclusive time, counting only the outermost span of a layer) and self time
(span duration minus the time its direct child spans cover).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    run: "int | None"


class Tracer:
    """In-memory span recorder with one span stack per thread.

    A campaign executes its cells on a background thread while the calling
    thread waits, so each thread keeps its own stack; a span opened on a
    thread with an empty stack is parented to :attr:`root` (the campaign
    span, when one is open).  ``run`` spans start a new run id that all of
    their descendants inherit.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.root: "tuple[int, int | None] | None" = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_run = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, str, "int | None"]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "str | None":
        """Name of the innermost open span on this thread (None outside any)."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> tuple[int, "int | None", "int | None", float]:
        stack = self._stack()
        if stack:
            parent, _, run = stack[-1]
        elif self.root is not None:
            parent, run = self.root
        else:
            parent, run = None, None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if name == "run":
                run = self._next_run
                self._next_run += 1
        stack.append((span_id, name, run))
        return span_id, parent, run, time.perf_counter()

    def end(self, token: tuple[int, "int | None", "int | None", float], name: str) -> None:
        end = time.perf_counter()
        span_id, parent, run, start = token
        self._stack().pop()
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, parent, run))

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        token = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(token, name)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attr: str, wrapper_factory: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``wrapper_factory(original)`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))

    def span_patch(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so every call records a span called ``name``."""
        self.patch(owner, attr, lambda original: _traced(self, name, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _traced(tracer: Tracer, name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    # A plain function (not a partial), so a wrapped method still binds ``self``.
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, original, *args, **kwargs)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    The library is imported here, not at module level, so importing this
    module (as every child does) patches and loads nothing.
    """
    import repro.experiments.runner as runner
    import repro.moo.moo_stage as moo_stage
    import repro.moo.moos as moos
    import repro.noc.constraints as constraints
    import repro.noc.crossover as noc_crossover
    import repro.core.problem as core_problem
    from repro.core.problem import NocDesignProblem
    from repro.ml.forest import RandomForestRegressor
    from repro.noc.routing_engine import RoutingEngine
    from repro.objectives.evaluator import ObjectiveEvaluator

    # One span per optimiser run: run_algorithm as the campaign engine (and
    # the single-run child) looks it up.
    tracer.span_patch(runner, "run_algorithm", "run")
    tracer.span_patch(NocDesignProblem, "crossover", "crossover")
    tracer.span_patch(noc_crossover, "repair_links", "repair_links")
    tracer.span_patch(core_problem, "random_design", "random_design")
    tracer.span_patch(NocDesignProblem, "neighbor", "moves")
    tracer.span_patch(NocDesignProblem, "mutate", "moves")
    tracer.span_patch(NocDesignProblem, "features", "features")
    tracer.span_patch(RandomForestRegressor, "fit", "forest")
    for module in (moos, moo_stage):
        tracer.span_patch(module, "hypervolume", "hypervolume")
        tracer.span_patch(module, "hypervolume_contribution", "hypervolume")

    def count_redraws(original: Callable[..., Any]) -> Callable[..., Any]:
        # A placement redraw inside repair_links is its fallback path.
        def counted(*args: Any, **kwargs: Any) -> Any:
            if tracer.current() == "repair_links":
                tracer.counters["repair_links.fallbacks"] += 1
            return original(*args, **kwargs)

        return counted

    tracer.patch(constraints, "random_link_placement", count_redraws)

    def routing(original: Callable[..., Any]) -> Callable[..., Any]:
        def tables(engine: Any, design: Any) -> Any:
            before = (engine.hits, engine.misses, engine.incremental_repairs)
            try:
                return tracer.call("routing", original, engine, design)
            finally:
                counters = tracer.counters
                counters["routing.requests"] += 1
                counters["routing.hits"] += engine.hits - before[0]
                counters["routing.misses"] += engine.misses - before[1]
                counters["routing.incremental_repairs"] += engine.incremental_repairs - before[2]

        return tables

    tracer.patch(RoutingEngine, "tables", routing)

    def evaluator(original: Callable[..., Any], many: bool) -> Callable[..., Any]:
        def evaluate(self: Any, designs: Any, *args: Any, **kwargs: Any) -> Any:
            if tracer.current() == "evaluator":
                return original(self, designs, *args, **kwargs)
            before = (self.evaluations, self.cache_hits)
            try:
                return tracer.call("evaluator", original, self, designs, *args, **kwargs)
            finally:
                counters = tracer.counters
                counters["evaluator.batches"] += 1
                counters["evaluator.designs"] += len(designs) if many else 1
                counters["evaluator.evaluations"] += self.evaluations - before[0]
                counters["evaluator.cache_hits"] += self.cache_hits - before[1]

        return evaluate

    tracer.patch(ObjectiveEvaluator, "evaluate_many", lambda o: evaluator(o, many=True))
    tracer.patch(ObjectiveEvaluator, "evaluate", lambda o: evaluator(o, many=False))


# ---------------------------------------------------------------------- #
# Span arithmetic
# ---------------------------------------------------------------------- #
def layer_stats(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``busy_s`` and ``self_s`` of a span tree.

    ``self_s`` of a span is its duration minus the durations of its direct
    children (siblings never overlap: they come from one call stack).
    ``busy_s`` sums the durations of a layer's spans that have no ancestor of
    the same layer, so a re-entrant layer is not counted twice.
    """
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        duration = span.end - span.start
        layer = stats[span.name]
        layer["calls"] += 1
        layer["self_s"] += duration - covered[span.id]
        parent = span.parent
        while parent is not None and by_id[parent].name != span.name:
            parent = by_id[parent].parent
        if parent is None:
            layer["busy_s"] += duration
    return dict(stats)


def check_nesting(spans: Iterable[Span], slack: float = 1e-6) -> list[str]:
    """Problems with the span tree: children outside their parent, negative self time."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    covered: dict[int, float] = defaultdict(float)
    problems = []
    for span in spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.id} ({span.name}) has unknown parent {span.parent}")
            continue
        covered[span.parent] += span.end - span.start
        if span.start < parent.start - slack or span.end > parent.end + slack:
            problems.append(f"span {span.id} ({span.name}) escapes parent {parent.id} ({parent.name})")
    for span in spans:
        if span.end - span.start - covered[span.id] < -slack:
            problems.append(f"span {span.id} ({span.name}) has negative self time")
    return problems
