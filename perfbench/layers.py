"""Span tracer and the outside-in instrumentation of each layer.

Nothing here edits the program: every probe either wraps an object the
benchmark itself creates and passes in (a client, its cache, its backend,
a prefix cache, a task spec copy) or replaces a public module attribute
(``repro.core.tasks.engine.select_demonstrations``,
``repro.api.batch.make_executor``, ``repro.api.usage.count_tokens``,
``repro.fm.engine.parse_prompt``, ``repro.serve.gateway.serve_group``, ...)
with a timing wrapper around the original.

A span has a name, a layer, start and end times, the id of the span that
caused it and a trace id.  Spans nest per thread; the executor's items
run on worker threads, so each item span names its ``map`` span as
parent explicitly.  A span's self time is its duration minus the time
its children cover; for an executor ``map`` that is the part of its wall
time no item was running.  Aggregates (count, inclusive and self time
per span name and per layer) are always exact; the raw span list is
capped so a long run cannot exhaust memory.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import defaultdict

#: Layers whose self time the traced run reports, keyed by the module
#: they live in.  ``bench.remote`` is the benchmark's own model of a
#: remote API's network wait (the api-latency workload), not a program
#: layer, and ``unattributed`` is measured wall time no span covers.
LAYERS = (
    "core.demonstrations",
    "core.tasks",
    "api.usage",
    "api.cache",
    "api.client",
    "api.batch",
    "fm.engine",
    "fm.parsing",
    "fm.impute_routes",
    "fm.semantic",
    "task.parse",
    "task.score",
    "serve.gateway",
    "bench.remote",
)

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name and per-layer aggregates."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.count: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.trace_id = "setup"

    # -- span bookkeeping ---------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, parent=None, trace_id=None):
        """Push a span frame: [id, parent id, trace id, name, layer,
        start, child seconds]."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        frame = [
            next(self._ids),
            parent[0] if parent is not None else None,
            trace_id or (parent[2] if parent is not None else self.trace_id),
            name, layer, _clock(), 0.0,
        ]
        stack.append(frame)
        return frame

    def close(self, frame, covered_s: float | None = None) -> float:
        """Pop ``frame``; returns its duration.  ``covered_s`` overrides
        the child time (the executor's union of item intervals)."""
        end = _clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[5]
        child = frame[6] if covered_s is None else covered_s
        self_time = max(duration - child, 0.0)
        if stack and stack[-1][0] == frame[1]:
            stack[-1][6] += duration
        name, layer = frame[3], frame[4]
        with self._lock:
            self.count[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += self_time
            self.layer_self_s[layer] += self_time
            if len(self.spans) < self.max_spans:
                self.spans.append((
                    frame[0], frame[1], frame[2], name, layer,
                    frame[5], end,
                ))
            else:
                self.dropped += 1
        return duration

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, fn, name: str, layer: str, after=None):
        """``fn`` timed as span ``name``; ``after(result, args)`` may
        update counters from the call's result."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": dict(self.count),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "layer_self_s": dict(self.layer_self_s),
                "counters": dict(self.counters),
            }

    def write(self, path: str, meta: dict) -> None:
        """Dump the retained spans (and the aggregates) as JSON."""
        keys = ("id", "parent", "trace", "name", "layer", "start", "end")
        with open(path, "w") as handle:
            json.dump({
                "meta": meta,
                "dropped_spans": self.dropped,
                "aggregates": self.snapshot(),
                "spans": [dict(zip(keys, span)) for span in self.spans],
            }, handle)


class Patches:
    """Module-attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)


class Instrument:
    """Installs the per-layer probes for one traced child process."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches = Patches()

    # -- module-level probes ------------------------------------------

    def install_modules(self) -> None:
        import repro.api.batch as batch
        import repro.api.usage as usage
        import repro.core.tasks.engine as engine
        import repro.core.tasks.prefix as prefix
        import repro.fm.engine as fm_engine

        tracer = self.tracer

        def count_chars(result, args):
            tracer.add("tokens.chars", len(args[0]) if args else 0)

        counted = tracer.wrap(
            usage.count_tokens, "tokens", "api.usage", after=count_chars
        )
        for module in (usage, prefix, batch):
            self.patches.set(module, "count_tokens", counted)

        def count_blocks(parsed, args):
            tracer.add("fm.parse.blocks", len(parsed.demonstrations) + 1)

        self.patches.set(fm_engine, "parse_prompt", tracer.wrap(
            fm_engine.parse_prompt, "fm.parse", "fm.parsing",
            after=count_blocks,
        ))
        self.patches.set(
            engine, "select_demonstrations",
            self._selection(engine.select_demonstrations),
        )
        self.patches.set(
            engine, "make_validation_scorer",
            self._scorer(engine.make_validation_scorer),
        )
        self.patches.set(
            batch, "make_executor", self._executor(batch.make_executor)
        )

    def _selection(self, select):
        tracer = self.tracer

        def traced(spec, model, *args, **kwargs):
            stats = getattr(model, "stats", None)
            before = stats["backend_calls"] if stats is not None else 0
            frame = tracer.open("selection", "core.demonstrations")
            try:
                return select(spec, model, *args, **kwargs)
            finally:
                tracer.close(frame)
                if stats is not None:
                    tracer.add(
                        "selection.api_calls",
                        model.stats["backend_calls"] - before,
                    )

        return traced

    def _scorer(self, make_scorer):
        """Counts validation evaluations, and those that became the best
        of their greedy step (same demonstration-list length, strict
        ``>`` as in the curator)."""
        tracer = self.tracer

        def traced_make(*args, **kwargs):
            evaluate = make_scorer(*args, **kwargs)
            best: dict[int, float] = {}

            def traced_evaluate(demonstrations):
                frame = tracer.open("selection.eval", "core.demonstrations")
                try:
                    score = evaluate(demonstrations)
                finally:
                    tracer.close(frame)
                step = len(demonstrations)
                tracer.add("selection.evals")
                if score > best.get(step, -1.0):
                    best[step] = score
                    tracer.add("selection.useful")
                return score

            return traced_evaluate

        return traced_make

    def _executor(self, make):
        tracer = self.tracer

        def traced_make(*args, **kwargs):
            executor = make(*args, **kwargs)
            executor.map = self._map(executor, executor.map)
            return executor

        return traced_make

    def _map(self, executor, run_map):
        tracer = self.tracer

        def traced_map(fn, items, *args, **kwargs):
            items = list(items)
            parent = tracer.open("executor.map", "api.batch")
            intervals: list[tuple[float, float]] = []
            interval_lock = threading.Lock()

            def item(value):
                frame = tracer.open("executor.item", "api.batch", parent=parent)
                try:
                    return fn(value)
                finally:
                    start = frame[5]
                    tracer.close(frame)
                    with interval_lock:
                        intervals.append((start, _clock()))

            n_records = len(executor.records)
            try:
                return run_map(item, items, *args, **kwargs)
            finally:
                covered = _union(intervals)
                wall = tracer.close(parent, covered_s=covered)
                busy = sum(end - start for start, end in intervals)
                records = executor.records[n_records:]
                tracer.add("executor.maps")
                tracer.add("executor.items", len(items))
                tracer.add("executor.busy_s", busy)
                tracer.add("executor.wall_s", wall)
                tracer.add(
                    "executor.retries",
                    sum(record.attempts - 1 for record in records),
                )
                tracer.add(
                    "executor.failures",
                    sum(1 for record in records if not record.ok),
                )

        return traced_map

    # -- object-level probes ------------------------------------------

    def spec(self, spec):
        """A copy of ``spec`` whose prompt, parse and score hooks are
        timed (TaskSpec is frozen, so the copy replaces the fields)."""
        tracer = self.tracer

        def build(fn, name):
            def after(_result, _args):
                tracer.add("prompt.builds")

            return tracer.wrap(fn, name, "core.tasks", after=after)

        return dataclasses.replace(
            spec,
            build_prompt=build(spec.build_prompt, "prompt.build"),
            build_prefix=build(spec.build_prefix, "prompt.prefix"),
            build_suffix=build(spec.build_suffix, "prompt.suffix"),
            parse_response=tracer.wrap(
                spec.parse_response, "parse", "task.parse"
            ),
            score=tracer.wrap(spec.score, "score", "task.score"),
        )

    def prefix_cache(self, cache):
        tracer = self.tracer

        def after(result, _args):
            tracer.add("prefix.lookups")
            if result[1]:
                tracer.add("prefix.hits")

        cache.get_or_build = tracer.wrap(
            cache.get_or_build, "prefix.lookup", "core.tasks", after=after
        )
        return cache

    def client(self, client):
        """Probe a completion client, its cache and its backend."""
        tracer = self.tracer
        cache = client.cache

        def after_get(result, _args):
            tracer.add("cache.gets")
            if result is not None:
                tracer.add("cache.hits")

        cache.get = tracer.wrap(
            cache.get, "cache.get", "api.cache", after=after_get
        )
        cache.put = tracer.wrap(
            cache.put, "cache.put", "api.cache",
            after=lambda _result, _args: tracer.add("cache.puts"),
        )
        client.complete = tracer.wrap(client.complete, "client", "api.client")
        self.backend(client.backend)
        return client

    def backend(self, backend):
        """Probe a simulated model (or the benchmark's delay proxy)."""
        tracer = self.tracer
        inner = getattr(backend, "inner", None)
        if inner is not None:
            backend.complete = tracer.wrap(
                backend.complete, "remote", "bench.remote"
            )
            backend = inner
        backend.complete = tracer.wrap(backend.complete, "fm", "fm.engine")
        reasoner = getattr(backend, "reasoner", None)
        if reasoner is not None:
            reasoner.verified_routes = tracer.wrap(
                reasoner.verified_routes, "fm.knowledge", "fm.impute_routes"
            )
            reasoner.infer = tracer.wrap(
                reasoner.infer, "fm.knowledge", "fm.impute_routes"
            )
        comparator = getattr(backend, "comparator", None)
        if comparator is not None:
            comparator.entity_similarity = tracer.wrap(
                comparator.entity_similarity, "fm.semantic", "fm.semantic"
            )
        return backend

    def restore(self) -> None:
        self.patches.restore()


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def layer_metrics(before: dict, after: dict, passes: float) -> dict:
    """Per-layer metrics from two tracer snapshots, divided by ``passes``
    (the fixed unit of work: one offline pass, or one gateway run)."""

    def delta(section: str, key: str) -> float:
        return after[section].get(key, 0.0) - before[section].get(key, 0.0)

    def per_pass(value: float) -> float:
        return value / passes

    def ms(section: str, key: str) -> float:
        return per_pass(delta(section, key) * 1000.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counters = lambda key: delta("counters", key)  # noqa: E731
    calls = lambda key: delta("count", key)  # noqa: E731
    evals = counters("selection.evals")
    fm_calls = calls("fm")
    gets = counters("cache.gets")
    lookups = counters("prefix.lookups")
    metrics = {
        "selection.ms": ms("total_s", "selection"),
        "selection.evals": per_pass(evals),
        "selection.api_calls": per_pass(counters("selection.api_calls")),
        "selection.useful_ratio": ratio(counters("selection.useful"), evals),
        "prompt.ms": (
            ms("total_s", "prompt.build") + ms("total_s", "prompt.prefix")
            + ms("total_s", "prompt.suffix")
            + ms("self_s", "prefix.lookup")
        ),
        "prompt.builds": per_pass(counters("prompt.builds")),
        "prefix.hit_ratio": ratio(counters("prefix.hits"), lookups),
        "tokens.calls": per_pass(calls("tokens")),
        "tokens.ms": ms("total_s", "tokens"),
        "tokens.chars": per_pass(counters("tokens.chars")),
        "cache.gets": per_pass(gets),
        "cache.get_ms": ms("total_s", "cache.get"),
        "cache.puts": per_pass(counters("cache.puts")),
        "cache.put_ms": ms("total_s", "cache.put"),
        "cache.hit_ratio": ratio(counters("cache.hits"), gets),
        "client.calls": per_pass(calls("client")),
        "client.self_ms": ms("self_s", "client"),
        # Every backend call the client makes reaches the model once.
        "client.backend_calls": per_pass(fm_calls),
        "executor.maps": per_pass(counters("executor.maps")),
        "executor.items": per_pass(counters("executor.items")),
        "executor.self_ms": (
            ms("self_s", "executor.map") + ms("self_s", "executor.item")
        ),
        "executor.overlap": ratio(
            counters("executor.busy_s"), counters("executor.wall_s")
        ),
        "executor.retries": per_pass(counters("executor.retries")),
        "executor.failures": per_pass(counters("executor.failures")),
        "fm.calls": per_pass(fm_calls),
        "fm.ms": ms("total_s", "fm"),
        "fm.ms_per_call": ratio(delta("total_s", "fm") * 1000.0, fm_calls),
        "fm.parse.calls": per_pass(calls("fm.parse")),
        "fm.parse.ms": ms("total_s", "fm.parse"),
        "fm.parse.blocks": per_pass(counters("fm.parse.blocks")),
        "fm.knowledge.calls": per_pass(calls("fm.knowledge")),
        "fm.knowledge.ms": ms("total_s", "fm.knowledge"),
        "fm.semantic.calls": per_pass(calls("fm.semantic")),
        "fm.semantic.ms": ms("total_s", "fm.semantic"),
        "parse.ms": ms("total_s", "parse"),
        "score.ms": ms("total_s", "score"),
    }
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = ms("layer_self_s", layer)
    return metrics
