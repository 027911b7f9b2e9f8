"""One workload run in one fresh interpreter (spawned by ``run.py``).

A fresh process per run gives every run the same starting state: the
``lru_cache``d world, the default prompt-prefix cache, the process-wide
asyncio serving loop and the simulator's memo caches all start empty.

    python3 perfbench/child.py <root> <workload> <seed> <seconds> <mode>

The set-up time is reported at the reference CPU speed (``calibrate.py``),
from a probe before the program's imports and one after set-up.

``mode`` is ``setup`` (set up, report the set-up time, exit), ``measure``
(set up, then measure untraced), ``trace`` (set up, then measure with
spans on and write them to ``.perfbench/``) or ``pin`` (print the
prediction digests of every unit in the offline seed pools).  The result
is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, mode = argv
    seed, seconds = int(seed), float(seconds)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate

    calib_before = calibrate.probe_ms()
    started = time.perf_counter()
    import workloads  # imports the program: part of set-up

    imports_s = time.perf_counter() - started
    import layers

    if mode == "pin":
        pins = {}
        for name in workloads.OFFLINE:
            runner = workloads.make(name, 0)
            runner.setup(workloads.Setup())
            pins.update(runner.pin())
        print(json.dumps({"units": pins}, sort_keys=True))
        return 0

    tracer = instrument = None
    if mode == "trace":
        tracer = layers.Tracer()
        instrument = layers.Instrument(tracer)
        instrument.install_modules()
    runner = workloads.make(workload, seed, instrument)
    setup = workloads.Setup(imports_s)
    runner.setup(setup)
    if instrument is not None and workload == "gateway-open":
        runner.gateway.submit = tracer.wrap(
            runner.gateway.submit, "gateway.submit", "serve.gateway"
        )
    result = {
        "setup_s": calibrate.at_reference(
            setup.total_s, calib_before, calibrate.probe_ms()
        ),
        "setup_raw_s": setup.total_s,
        "setup_ms": setup.parts_ms,
    }
    if mode != "setup":
        before = tracer.snapshot() if tracer is not None else None
        result.update(runner.measure(seconds, tracer))
        if tracer is not None:
            after = getattr(runner, "trace_end", None) or tracer.snapshot()
            result["layers"] = layers.layer_metrics(
                before, after, result.get("passes", 1)
            )
            result["layers"]["gateway.serve_ms"] = (
                after["total_s"].get("gateway.serve", 0.0)
                - before["total_s"].get("gateway.serve", 0.0)
            ) * 1000.0
            out = os.path.join(root, ".perfbench")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, f"trace-{workload}-seed{seed}.json")
            tracer.write(path, {"workload": workload, "seed": seed,
                                "seconds": seconds})
            result["trace_file"] = os.path.relpath(path, root)
            instrument.restore()
    result["peak_rss_mb"] = getattr(
        runner, "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
