"""The benchmark's four workloads, each run inside one fresh interpreter.

Every workload splits into ``setup`` (imports, world, datasets, gateway
start and context resolution; timed into ``setup_s``) and ``measure``
(the timed window).  Inputs come only from the workload seed:

* offline workloads (``em-select``, ``di-knowledge``, ``api-latency``)
  run a fixed *pass* of ``run_task`` units, each with a fresh prompt
  cache, prefix cache and simulated model, so every unit starts cold.
  The seed picks each unit's selection seed from a small pool whose
  prediction digests are pinned in ``oracle.json``; passes repeat while
  time remains, and counts (``api_calls``, ``cost_usd``, ``quality``)
  are per pass, so they do not grow with speed.  On the CPU-bound
  workloads each unit's wall time is taken at the reference CPU speed
  (``calibrate.py``) before it enters ``examples_per_s``.
* ``gateway-open`` drives an in-process ``serve.Gateway`` with seeded
  Poisson arrivals from one generator thread (an open loop), at two
  fixed rates and then up a rate ladder, and checks every served
  prediction against an offline ``run_task`` reference computed after
  the timed window with its own client and cache.
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import threading
import time

import repro.serve.gateway as gateway_module
from calibrate import at_reference, probe_ms
from repro.api.backends import get_backend
from repro.api.cache import PromptCache
from repro.api.client import CompletionClient
from repro.core.tasks.engine import run_task
from repro.core.tasks.prefix import PromptPrefixCache
from repro.core.tasks.spec import get_task
from repro.datasets import load_dataset
from repro.knowledge.world import default_world
from repro.serve.codec import encode_prediction
from repro.serve.gateway import Gateway, GatewayConfig
from repro.serve.request import WrangleRequest

MODEL = "gpt3-175b"
ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "oracle.json")

#: Selection seeds a workload seed may map to; every (unit, seed) in the
#: pool has a pinned prediction digest.
SEED_POOL = 8

#: Offline passes: (task, dataset, test slice or None) per unit.
OFFLINE = {
    "em-select": {
        "units": [
            ("entity_matching", "walmart_amazon", None),
            ("entity_matching", "beer", None),
        ],
        "selection": "manual", "k": 10, "workers": None, "delay_s": 0.0,
        "calibrated": True,
    },
    "di-knowledge": {
        "units": [
            ("imputation", "buy", (0, 40)),
            ("imputation", "buy", (40, 80)),
            ("imputation", "buy", (80, 120)),
        ],
        "selection": "random", "k": 10, "workers": None, "delay_s": 0.0,
        "calibrated": True,
    },
    "api-latency": {
        "units": [
            ("entity_matching", "walmart_amazon", None),
            ("entity_matching", "amazon_google", None),
            ("entity_matching", "fodors_zagats", None),
            ("entity_matching", "beer", None),
        ],
        # Mostly waiting on the modelled network, not CPU-bound: its
        # wall time is reported as measured.
        "selection": "random", "k": 10, "workers": 8, "delay_s": 0.020,
        "calibrated": False,
    },
}

#: gateway-open traffic.  Rates are requests per second; the SLO is on
#: interactive requests, timed from each request's due time.
GATEWAY = {
    "groups": [
        ("entity_matching", "walmart_amazon"),
        ("entity_matching", "amazon_google"),
        ("error_detection", "hospital"),
        ("imputation", "restaurant"),
    ],
    "workers": 2,
    "executor": "async",
    "queue_capacity": 4096,
    "pool_rows": 8000,
    "zipf_s": 0.8,
    # Distinct examples offered per draw in a phase; with zipf_s this
    # makes about half of a phase's examples repeats.
    "slice_per_draw": 1.25,
    # Fixed, so the cost of an example does not vary with the workload
    # seed (which draws the arrivals and the examples).
    "selection_seed": 0,
    "backfill_batch": 8,
    "rate_lo": 150.0,
    "rate_hi": 250.0,
    "ladder": [200.0, 250.0, 320.0, 400.0, 500.0, 630.0, 800.0, 1000.0],
    "slo_p99_ms": 100.0,
    # Share of --seconds for the lo and hi phases, and each ladder rung.
    "split": (0.45, 0.35, 0.10),
}

def percentile(values: list[float], q: float) -> float:
    """Interpolated ``q``-quantile (0 < q < 1); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(predictions: list) -> str:
    payload = json.dumps(predictions, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def unit_key(workload: str, unit: tuple, seed: int) -> str:
    task, dataset, part = unit
    span = "all" if part is None else f"{part[0]}-{part[1]}"
    return f"{workload}|{task}|{dataset}|{span}|{seed}"


def load_oracle() -> dict:
    with open(ORACLE_PATH) as handle:
        return json.load(handle)


class RemoteModel:
    """A simulated model behind a fixed network wait per call, modelling
    a remote completion API (the api-latency workload)."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s
        self.name = inner.name

    def complete(self, prompt: str, **kwargs) -> str:
        time.sleep(self.delay_s)
        return self.inner.complete(prompt, **kwargs)


class Setup:
    """Times the set-up steps that ``setup_s`` covers."""

    def __init__(self, imports_s: float = 0.0):
        self.parts_ms = {"world_ms": 0.0, "datasets_ms": 0.0,
                         "contexts_ms": 0.0}
        self.total_s = imports_s

    def step(self, part: str | None, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.total_s += elapsed
            if part is not None:
                self.parts_ms[part] += elapsed * 1000.0


# ---------------------------------------------------------------------------
# Offline workloads


class Offline:
    def __init__(self, name: str, seed: int, instrument=None):
        self.name = name
        self.config = OFFLINE[name]
        self.seed = seed
        self.instrument = instrument
        rng = random.Random(f"{name}/{seed}")
        self.units = [
            (unit, rng.randrange(SEED_POOL)) for unit in self.config["units"]
        ]

    def setup(self, setup: Setup) -> None:
        setup.step("world_ms", default_world)
        names = sorted({dataset for _task, dataset, _part in
                        self.config["units"]})
        self.datasets = setup.step("datasets_ms", lambda: {
            name: load_dataset(name) for name in names
        })
        specs = {}
        for task, _dataset, _part in self.config["units"]:
            spec = get_task(task)
            if self.instrument is not None:
                spec = self.instrument.spec(spec)
            specs[task] = spec
        self.specs = specs
        # Lazy set-up (the lexicon, compiled patterns) finishes here, on
        # a throwaway model and cache, so the first timed unit is not
        # charged for it.
        setup.step(None, self._warm)

    def _warm(self) -> None:
        for task, dataset, _part in self.config["units"]:
            client = CompletionClient(MODEL, cache=PromptCache())
            run_task(
                task, client, self.datasets[dataset], k=2,
                selection="random", max_examples=2,
                prefix_cache=PromptPrefixCache(),
            )

    def dataset_for(self, unit: tuple):
        _task, dataset, part = unit
        base = self.datasets[dataset]
        if part is None:
            return base
        return dataclasses.replace(base, test=base.test[part[0]:part[1]])

    def run_unit(self, unit: tuple, selection_seed: int, tracer=None) -> dict:
        config = self.config
        backend = get_backend(MODEL)
        if config["delay_s"]:
            backend = RemoteModel(backend, config["delay_s"])
        client = CompletionClient(backend, cache=PromptCache())
        prefix_cache = PromptPrefixCache()
        calls: list[tuple[float, float]] = []
        if self.instrument is not None:
            self.instrument.client(client)
            self.instrument.prefix_cache(prefix_cache)
            tracer.trace_id = unit_key(self.name, unit, selection_seed)
        else:
            complete = client.complete

            def timed_complete(*args, **kwargs):
                started = time.perf_counter()
                result = complete(*args, **kwargs)
                calls.append((started, time.perf_counter()))
                return result

            client.complete = timed_complete
        dataset = self.dataset_for(unit)
        started = time.perf_counter()
        run = run_task(
            self.specs[unit[0]], client, dataset, k=config["k"],
            selection=config["selection"], seed=selection_seed,
            workers=config["workers"], prefix_cache=prefix_cache,
        )
        wall = time.perf_counter() - started
        n = len(run.predictions)
        # The scored examples' completions are the last n calls: the
        # selection phase's validation calls all finish before them.
        scored = sorted(calls)[-n:] if calls else []
        return {
            "key": unit_key(self.name, unit, selection_seed),
            "examples": n,
            "wall_s": wall,
            "api_calls": client.stats["backend_calls"],
            "cost_usd": client.usage.total_cost_usd,
            "requests": sum(
                usage.n_requests for usage in client.usage.per_model.values()
            ),
            "metric": run.metric,
            "digest": digest(run.predictions),
            "quarantined": len(run.quarantine),
            "service_ms": [(end - begin) * 1000.0 for begin, end in calls],
            "ttp_ms": [(end - started) * 1000.0 for _begin, end in scored],
        }

    def measure(self, seconds: float, tracer=None) -> dict:
        oracle = load_oracle()["units"]
        passes: list[list[dict]] = []
        calib = [probe_ms()]
        begin = time.perf_counter()
        while True:
            run = []
            for unit, selection_seed in self.units:
                # Every unit starts from the same heap: the previous
                # unit's caches are gone before the clock starts.
                gc.collect()
                result = self.run_unit(unit, selection_seed, tracer)
                calib.append(probe_ms())
                result["reference_s"] = at_reference(
                    result["wall_s"], calib[-2], calib[-1]
                )
                run.append(result)
            passes.append(run)
            elapsed = time.perf_counter() - begin
            if elapsed > seconds - 0.5 * elapsed / len(passes):
                break
        units = [unit for run in passes for unit in run]
        mismatched = [
            unit["key"] for unit in units
            if oracle.get(unit["key"]) != unit["digest"]
        ]
        per_pass = [
            (sum(u["api_calls"] for u in run),
             round(sum(u["cost_usd"] for u in run), 9),
             sum(u["metric"] for u in run) / len(run))
            for run in passes
        ]
        consistent = len(set(per_pass)) == 1
        wall = sum(unit["wall_s"] for unit in units)
        timed = (sum(unit["reference_s"] for unit in units)
                 if self.config["calibrated"] else wall)
        examples = sum(unit["examples"] for unit in units)
        failed = sum(
            unit["examples"] if unit["key"] in mismatched
            else unit["quarantined"]
            for unit in units
        )
        service = [ms for unit in units for ms in unit["service_ms"]]
        ttp = [ms for unit in units for ms in unit["ttp_ms"]]
        api_calls, cost, quality = per_pass[0]
        return {
            "correct": not mismatched and consistent,
            "mismatched": mismatched,
            "consistent": consistent,
            "attempted": examples,
            "failed": failed,
            "passes": len(passes),
            "pass_totals": per_pass[0],
            "examples": examples,
            "timed_s": timed,
            "wall_s": wall,
            "phases": [{
                "phase": f"pass{number}/{unit['key']}",
                "sent": unit["examples"],
                "succeeded": unit["examples"] - unit["quarantined"],
                "failed": unit["quarantined"],
                "shed": 0,
                "mismatched": unit["key"] in mismatched,
            } for number, run in enumerate(passes) for unit in run],
            "metrics": {
                "examples_per_s": examples / timed,
                "examples_per_s.raw": examples / wall,
                "calib.ms": statistics.median(calib),
                "api_calls": api_calls,
                "cost_usd": cost,
                "quality": quality,
                "p50_ms.lo": percentile(service, 0.50),
                "p99_ms.lo": percentile(service, 0.99),
                "p50_ms.hi": percentile(ttp, 0.50),
                "p99_ms.hi": percentile(ttp, 0.99),
                "max_rate_rps": sum(u["requests"] for u in units) / wall,
            },
        }

    def pin(self) -> dict:
        """Digests of every (unit, seed) in the pool (for oracle.json)."""
        pins = {}
        for unit in self.config["units"]:
            for selection_seed in range(SEED_POOL):
                result = self.run_unit(unit, selection_seed)
                pins[result["key"]] = result["digest"]
        return pins


# ---------------------------------------------------------------------------
# gateway-open


class Zipf:
    """Rank sampler with P(rank r) proportional to 1 / r**s."""

    def __init__(self, n: int, s: float):
        weights = (1.0 / (rank ** s) for rank in range(1, n + 1))
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(
            self.cumulative, rng.random() * self.cumulative[-1]
        )


def encode_row(task: str, example) -> dict:
    """An example as the gateway's inline-row payload."""
    if task == "entity_matching":
        return {"left": dict(example.left), "right": dict(example.right),
                "label": example.label}
    if task == "error_detection":
        return {"row": dict(example.row), "attribute": example.attribute,
                "label": example.label, "clean_value": example.clean_value}
    return {"row": dict(example.row), "attribute": example.attribute,
            "answer": example.answer}


class GatewayOpen:
    def __init__(self, seed: int, instrument=None):
        self.seed = seed
        self.instrument = instrument
        self.config = GATEWAY
        self.contexts: list = []
        self._serve_start = threading.local()

    # -- set-up ---------------------------------------------------------

    def setup(self, setup: Setup) -> None:
        setup.step("world_ms", default_world)
        config = self.config
        rows = config["pool_rows"]

        def datasets():
            base = {name: load_dataset(name)
                    for _task, name in config["groups"]}
            pools = {name: load_dataset(name, scale=rows).test
                     for _task, name in config["groups"]}
            return base, pools

        self.base, self.pools = setup.step("datasets_ms", datasets)
        self._capture_contexts()
        rng = random.Random(f"gateway-open/{self.seed}")
        self.slots = itertools.count()
        self.rng = rng

        def start():
            gateway = Gateway(GatewayConfig(
                workers=config["workers"], executor=config["executor"],
                queue_capacity=config["queue_capacity"],
            ))
            gateway.start()
            # One request per group resolves its serving context (model,
            # demonstrations, prefix) and starts the serving loop.  The
            # warm-up rows come from the train split, which the measured
            # traffic never sends, so no prompt cache entry carries over.
            for group, (task, name) in enumerate(config["groups"]):
                example = get_task(task).examples_of(
                    self.base[name], "train"
                )[0]
                response = gateway.submit(
                    self.request(group, [encode_row(task, example)],
                                 "warmup", "interactive")
                ).result(timeout=60)
                if response.shed or not response.ok:
                    raise RuntimeError(f"warm-up request failed: {response}")
            return gateway

        self.gateway = setup.step("contexts_ms", start)

    def _capture_contexts(self) -> None:
        """Wrap the gateway module's ``resolve_serving_context`` so the
        benchmark can read each group's client (backend calls, cost) and,
        when tracing, probe it."""
        resolve = gateway_module.resolve_serving_context
        instrument = self.instrument

        def resolve_and_keep(task, *args, **kwargs):
            if instrument is not None:
                task = instrument.spec(get_task(task))
                kwargs["prefix_cache"] = instrument.prefix_cache(
                    PromptPrefixCache()
                )
            context = resolve(task, *args, **kwargs)
            if instrument is not None:
                instrument.client(context.model)
            self.contexts.append(context)
            return context

        gateway_module.resolve_serving_context = resolve_and_keep
        if instrument is not None:
            serve = gateway_module.serve_group
            tracer = instrument.tracer
            batch_ids = itertools.count(1)
            marker = self._serve_start

            def traced_serve(context, examples, *args, **kwargs):
                # Each micro-batch reuses its group's resolved prefix.
                tracer.add("prefix.lookups")
                if context.prefix is not None:
                    tracer.add("prefix.hits")
                frame = tracer.open("gateway.serve", "serve.gateway",
                                    trace_id=f"batch-{next(batch_ids)}")
                marker.started = frame[5]
                try:
                    return serve(context, examples, *args, **kwargs)
                finally:
                    tracer.close(frame)

            gateway_module.serve_group = traced_serve

    def request(self, group: int, rows: list, tenant: str, priority: str):
        task, name = self.config["groups"][group]
        return WrangleRequest(
            tenant=tenant, task=task, dataset=name, rows=rows,
            priority=priority, model=MODEL, selection="random",
            seed=self.config["selection_seed"],
        )

    # -- traffic ----------------------------------------------------------

    def schedule(self, rate: float, duration: float) -> list[tuple]:
        """Seeded Poisson arrivals: (offset, group, pool indices, tenant).

        The request mix is a fixed cycle, so only arrival times and
        example draws vary with the seed: every fifth request is a bulk
        backfill batch, groups rotate, and interactive singles alternate
        between alice and bob.
        """
        config = self.config
        rng = self.rng
        groups = len(config["groups"])
        # A Poisson process conditioned on its count: exactly
        # rate x duration arrivals at sorted uniform times, so the
        # offered load does not vary with the seed.
        offsets = sorted(rng.uniform(0.0, duration)
                         for _ in range(round(rate * duration)))
        kinds = []
        draws = [0] * groups
        for _offset in offsets:
            slot = next(self.slots)
            group = slot % groups
            if slot % 5 == 4:
                tenant, count = "bulk", config["backfill_batch"]
            else:
                tenant, count = ("alice", "bob")[(slot // 5) % 2], 1
            kinds.append((group, tenant, count))
            draws[group] += count
        # Each phase draws from its own unused slice of each group's
        # shuffled pool, sized to its draw count, so every phase starts
        # cold and about half of its examples repeat within it, at any
        # rate (the pool wraps around only past the ladder's top).
        slices = []
        for group in range(groups):
            size = max(1, math.ceil(draws[group] * config["slice_per_draw"]))
            order = self.orders[group]
            start = self.cursors[group]
            slices.append([order[(start + i) % len(order)]
                           for i in range(size)])
            self.cursors[group] = start + size
        arrivals = []
        for offset, (group, tenant, count) in zip(offsets, kinds):
            chosen = slices[group]
            zipf = self.zipf(len(chosen))
            indices = [chosen[zipf.draw(rng)] for _ in range(count)]
            arrivals.append((offset, group, indices, tenant))
        return arrivals

    def zipf(self, size: int) -> Zipf:
        sampler = self.samplers.get(size)
        if sampler is None:
            sampler = self.samplers[size] = Zipf(size, self.config["zipf_s"])
        return sampler

    def run_phase(self, label: str, rate: float, arrivals: list) -> dict:
        """Send ``arrivals`` on schedule; wait for every answer."""
        gateway = self.gateway
        pools = self.pools
        groups = self.config["groups"]
        requests = []
        for _offset, group, indices, tenant in arrivals:
            task, name = groups[group]
            rows = [encode_row(task, pools[name][i]) for i in indices]
            priority = "backfill" if tenant == "bulk" else "interactive"
            requests.append(self.request(group, rows, tenant, priority))
        # The benchmark's own inputs (row pools, this phase's requests)
        # are long-lived; freezing them keeps full collections, which
        # scan every tracked object, from stalling the timed phase.
        gc.collect()
        gc.freeze()
        results: list = [None] * len(arrivals)
        done = threading.Semaphore(0)
        lock = threading.Lock()
        resolved = [0]
        late: list[float] = []
        backlog_max = 0
        marker = self._serve_start
        tracing = self.instrument is not None
        stats_before = gateway.stats()
        calls_before, cost_before = self.usage()

        def finished(slot: int, due: float, future) -> None:
            now = time.perf_counter()
            started = getattr(marker, "started", None) if tracing else None
            results[slot] = (now - due, future.result(),
                             None if started is None else started - due)
            with lock:
                resolved[0] += 1
            done.release()

        start = time.perf_counter() + 0.005
        for slot, (offset, _group, _indices, _inter) in enumerate(arrivals):
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late.append(time.perf_counter() - due)
            future = gateway.submit(requests[slot])
            future.add_done_callback(
                lambda f, slot=slot, due=due: finished(slot, due, f)
            )
            with lock:
                backlog_max = max(backlog_max, slot + 1 - resolved[0])
        with lock:
            backlog_end = len(arrivals) - resolved[0]
        for _ in arrivals:
            if not done.acquire(timeout=120):
                raise RuntimeError(f"{label}: gateway stopped answering")
        wall = time.perf_counter() - start
        calls_after, cost_after = self.usage()
        stats_after = gateway.stats()

        interactive_ms, queue_wait_ms = [], []
        served, shed, failed, examples = 0, 0, 0, 0
        for (_o, _g, indices, tenant), (latency, response, waited) in zip(
            arrivals, results
        ):
            if response.shed:
                shed += 1
                latency = math.inf
            elif not response.ok:
                failed += 1
                latency = math.inf
            else:
                served += 1
                examples += len(indices)
            if tenant != "bulk":
                interactive_ms.append(latency * 1000.0)
                if waited is not None:
                    queue_wait_ms.append(waited * 1000.0)
        batches = (stats_after["batches"]["n_batches"]
                   - stats_before["batches"]["n_batches"])
        completed = stats_after["completed"] - stats_before["completed"]
        return {
            "phase": label,
            "rate": rate,
            "sent": len(arrivals),
            "succeeded": served,
            "failed": failed,
            "shed": shed,
            "examples": examples,
            "wall_s": wall,
            "interactive_ms": interactive_ms,
            "queue_wait_ms": queue_wait_ms,
            "late_ms": [value * 1000.0 for value in late],
            "backlog_max": backlog_max,
            "backlog_end": backlog_end,
            "batches": batches,
            "requests_per_batch": completed / batches if batches else 0.0,
            "gateway_shed": (stats_after["shed"]["total"]
                             - stats_before["shed"]["total"]),
            "api_calls": calls_after - calls_before,
            "cost_usd": cost_after - cost_before,
            "responses": [
                (group, indices, response)
                for (_o, group, indices, _i), (_l, response, _w)
                in zip(arrivals, results)
            ],
        }

    def usage(self) -> tuple[int, float]:
        calls = sum(c.model.stats["backend_calls"] for c in self.contexts)
        cost = sum(c.model.usage.total_cost_usd for c in self.contexts)
        return calls, cost

    def slo_met(self, phase: dict) -> bool:
        p99 = percentile(phase["interactive_ms"], 0.99)
        return (p99 <= self.config["slo_p99_ms"]
                and phase["backlog_end"] <= max(16, 0.1 * phase["rate"]))

    def measure(self, seconds: float, tracer=None) -> dict:
        config = self.config
        rows = config["pool_rows"]
        self.samplers = {}
        self.cursors = [0] * len(config["groups"])
        self.orders = []
        for _group in config["groups"]:
            order = list(range(rows))
            self.rng.shuffle(order)
            self.orders.append(order)
        share_lo, share_hi, share_ladder = config["split"]
        phases = []
        fixed = []
        calib = [probe_ms()]
        for label, rate, share in (("lo", config["rate_lo"], share_lo),
                                   ("hi", config["rate_hi"], share_hi)):
            arrivals = self.schedule(rate, seconds * share)
            fixed.append(self.run_phase(label, rate, arrivals))
        phases.extend(fixed)
        calib.append(probe_ms())
        self.calib_ms = statistics.median(calib)
        # Peak memory of the fixed-rate phases: how far the ladder climbs
        # must not change it.
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        ladder = [] if self.instrument is not None else config["ladder"]
        rung_s = seconds * share_ladder

        def rung(rate: float) -> dict:
            phase = self.run_phase(f"ladder@{rate:g}", rate,
                                   self.schedule(rate, rung_s))
            phases.append(phase)
            return phase

        passed = failed = None
        for rate in ladder:
            phase = rung(rate)
            if not self.slo_met(phase):
                # One stall in a short rung can sink its p99; a rate
                # fails only if a second try fails too.
                phase = rung(rate)
            if not self.slo_met(phase):
                failed = phase
                break
            passed = phase
        if failed is not None and passed is not None:
            # Halve the bracket once before interpolating.
            middle = rung((passed["rate"] + failed["rate"]) / 2.0)
            if self.slo_met(middle):
                passed = middle
            else:
                failed = middle
        if failed is not None:
            max_rate = self.interpolate(passed, failed)
        else:
            # Every rung met the SLO: the ladder top is a lower bound.
            max_rate = ladder[-1] if ladder else None
        self.gateway.stop()
        if tracer is not None:
            # Per-layer figures cover the timed phases, not the reference.
            self.trace_end = tracer.snapshot()
        return self.verify(phases, fixed, max_rate)

    def interpolate(self, passed, failed) -> float:
        """Rate where interactive p99 crosses the SLO, linear between the
        last rung that met it and the first that did not."""
        slo = self.config["slo_p99_ms"]
        if passed is None:
            return failed["rate"] * min(
                1.0, slo / max(percentile(failed["interactive_ms"], 0.99),
                               1e-9))
        low = percentile(passed["interactive_ms"], 0.99)
        high = percentile(failed["interactive_ms"], 0.99)
        if not math.isfinite(high) or high <= slo or high <= low:
            return passed["rate"]
        fraction = (slo - low) / (high - low)
        return passed["rate"] + fraction * (failed["rate"] - passed["rate"])

    def verify(self, phases: list, fixed: list, max_rate) -> dict:
        """Offline reference for every served example, outside the timed
        window, with its own client and caches."""
        groups = self.config["groups"]
        served: dict[int, dict[int, list]] = {g: {} for g in range(len(groups))}
        for phase in phases:
            for group, indices, response in phase["responses"]:
                if response.shed:
                    continue
                for index, result in zip(indices, response.results):
                    if result["ok"]:
                        served[group].setdefault(index, []).append(
                            result["prediction"]
                        )
        mismatched: set[tuple[int, int]] = set()
        qualities = []
        for group, (task, name) in enumerate(groups):
            indices = sorted(served[group])
            if not indices:
                continue
            subset = dataclasses.replace(
                self.base[name], test=[self.pools[name][i] for i in indices]
            )
            reference = run_task(
                task, CompletionClient(MODEL, cache=PromptCache()),
                subset, selection="random", seed=self.config["selection_seed"],
                prefix_cache=PromptPrefixCache(),
            )
            predictions = dict(zip(indices, reference.predictions))
            for index, expected in predictions.items():
                expected = encode_prediction(expected)
                if any(got != expected for got in served[group][index]):
                    mismatched.add((group, index))
            # Quality over the fixed-rate phases' examples only: how far
            # the ladder climbs must not change it.
            spec = get_task(task)
            asked = sorted({
                index for phase in fixed
                for g, chosen, _response in phase["responses"] if g == group
                for index in chosen if index in predictions
            })
            examples = [self.pools[name][index] for index in asked]
            metric, _details = spec.score(
                [predictions[index] for index in asked],
                [spec.label_of(example) for example in examples],
                examples,
            )
            qualities.append(metric)
        attempted = failed = 0
        report = []
        for phase in phases:
            bad = sum(
                1 for group, indices, response in phase["responses"]
                if any((group, i) in mismatched for i in indices)
            )
            phase["mismatched"] = bad
            attempted += phase["sent"]
            failed += phase["failed"] + phase["shed"] + bad
            report.append({key: phase[key] for key in (
                "phase", "rate", "sent", "succeeded", "failed", "shed",
                "mismatched")})
            report[-1]["p99_ms"] = percentile(phase["interactive_ms"], 0.99)
        lo, hi = fixed
        keys = [
            (group, index) for phase in phases
            for group, indices, _r in phase["responses"] for index in indices
        ]
        repeat_share = 1.0 - len(set(keys)) / len(keys) if keys else 0.0
        late = lo["late_ms"] + hi["late_ms"]
        waits = lo["queue_wait_ms"] + hi["queue_wait_ms"]
        fixed_wall = lo["wall_s"] + hi["wall_s"]
        examples_per_s = (lo["examples"] + hi["examples"]) / fixed_wall
        return {
            "correct": not mismatched,
            "mismatched": sorted(f"{groups[g][1]}#{i}" for g, i in mismatched),
            "attempted": attempted,
            "failed": failed,
            "phases": report,
            "metrics": {
                # The offered load, so never calibrated.
                "examples_per_s": examples_per_s,
                "examples_per_s.raw": examples_per_s,
                "calib.ms": self.calib_ms,
                # Billing at the low rate only: each served micro-batch
                # with a miss pays its group's demonstration prefix once,
                # and near the knee how many requests coalesce into one
                # batch follows the host's CPU speed.
                "api_calls": lo["api_calls"],
                "cost_usd": lo["cost_usd"],
                "quality": sum(qualities) / len(qualities),
                "p50_ms.lo": percentile(lo["interactive_ms"], 0.50),
                "p99_ms.lo": percentile(lo["interactive_ms"], 0.99),
                "p50_ms.hi": percentile(hi["interactive_ms"], 0.50),
                "p99_ms.hi": percentile(hi["interactive_ms"], 0.99),
                "max_rate_rps": max_rate if max_rate is not None else 0.0,
            },
            "gateway": {
                "gateway.queue_wait_ms.p50": percentile(waits, 0.50),
                "gateway.queue_wait_ms.p99": percentile(waits, 0.99),
                "gateway.batches": lo["batches"] + hi["batches"],
                "gateway.requests_per_batch": (
                    (lo["requests_per_batch"] * lo["batches"]
                     + hi["requests_per_batch"] * hi["batches"])
                    / max(lo["batches"] + hi["batches"], 1)
                ),
                "gateway.backlog_max": max(lo["backlog_max"],
                                           hi["backlog_max"]),
                "gateway.shed": lo["gateway_shed"] + hi["gateway_shed"],
                "gen.sent": lo["sent"] + hi["sent"],
                "gen.late_ms.p99": percentile(late, 0.99),
                "gen.late_ms.max": max(late) if late else 0.0,
                "gen.repeat_share": repeat_share,
            },
        }


def make(name: str, seed: int, instrument=None):
    if name == "gateway-open":
        return GatewayOpen(seed, instrument)
    return Offline(name, seed, instrument)
