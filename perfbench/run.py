"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload em-select --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all       # every workload, every end-to-end metric
    python3 perfbench/run.py --traced    # every workload once with spans:
                                         # self time per layer + overhead
    python3 perfbench/run.py --pin       # re-pin the offline prediction digests

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run happens in five fresh interpreters (``child.py``),
whose median set-up time is ``setup_s``.  An offline workload measures in
three of them, a third of ``--seconds`` each (the same inputs run 8%
faster or slower from one fresh process to the next, so no one process
sets the figure), and only sets up in the other two; ``gateway-open``
measures in one and only sets up in four.  CPU-bound timings
(``setup_s``, and ``examples_per_s`` on ``em-select`` and
``di-knowledge``) are reported at a reference CPU speed
(``calibrate.py``); the raw figures are printed beside them.  A traced
run measures the workload twice, untraced and traced, to report the
tracing overhead.  The exit code is
non-zero when the correctness oracle fails or the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
#: Fresh interpreters per untraced run; each gives one set-up time.
PROCESSES = 5
#: Of those, how many measure an offline workload.
OFFLINE_MEASURERS = 3
#: The whole command must finish within this many seconds.
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child(workload: str, seed: int, seconds: float, mode: str,
          deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; its last stdout line."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"{workload}/{mode}: out of time")
    try:
        done = subprocess.run(
            [sys.executable, CHILD, ROOT, workload, str(seed),
             str(seconds), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}/{mode}: timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload}/{mode}: exit {done.returncode}\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: int, deadline: float) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and human-readable lines."""
    if trace == 0:
        # The gateway's phases and rate ladder run in one process.
        measurers = 1 if workload == "gateway-open" else OFFLINE_MEASURERS
        probes = [child(workload, seed, seconds, "setup", deadline)
                  for _ in range(PROCESSES - measurers)]
        runs = [child(workload, seed, seconds / measurers, "measure",
                      deadline) for _ in range(measurers)]
        measured = merge(runs)
        probes.extend(runs)
        setups = [probe["setup_s"] for probe in probes]
        raw = [probe["setup_raw_s"] for probe in probes]
        values = dict(measured["metrics"])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = measured["peak_rss_mb"]
        declared = spec["end_to_end"]
        run = measured
        notes = [f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}"
                 f" (raw: {', '.join(f'{s:.3f}' for s in raw)})"]
        notes.extend(
            f"{name:<30} {value:>14.6g} (unbounded, see --trace 1)"
            for name, value in measured["metrics"].items()
            if name not in {entry["name"] for entry in declared}
        )
    else:
        plain = child(workload, seed, seconds, "measure", deadline)
        run = child(workload, seed, seconds, "trace", deadline)
        values = dict(run["layers"])
        values.update(run.get("gateway", {}))
        # Latencies and the SLO rate are measured with tracing off.
        values.update(plain["metrics"])
        for part in ("world_ms", "datasets_ms", "contexts_ms"):
            values[f"setup.{part}"] = plain["setup_ms"][part]
        if workload == "gateway-open":
            values["trace.overhead"] = (
                run["metrics"]["p50_ms.lo"] / plain["metrics"]["p50_ms.lo"]
            )
        else:
            values["trace.overhead"] = (
                plain["metrics"]["examples_per_s"]
                / run["metrics"]["examples_per_s"]
            )
        declared = spec["per_layer"]
        notes = [f"spans written to {run['trace_file']}"]
        notes.extend(self_time_table(values))
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)),
                        "unit": entry["unit"]}
        for entry in declared
    }
    result = {
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }
    lines = [f"== {workload} seed={seed} seconds={seconds:g} trace={trace}"]
    for phase in run["phases"]:
        lines.append("  phase " + " ".join(
            f"{key}={value:.4g}" if isinstance(value, float)
            else f"{key}={value}" for key, value in phase.items()
        ))
    if run.get("mismatched"):
        lines.append(f"  ORACLE MISMATCH: {run['mismatched']}")
    lines.extend(f"  {note}" for note in notes)
    attempted = max(result["attempted"], 1)
    lines.append(f"  failed_frac = {result['failed'] / attempted:.6g} "
                 f"({result['failed']}/{result['attempted']})")
    for name, metric in metrics.items():
        lines.append(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    return result, lines


def merge(runs: list[dict]) -> dict:
    """One offline result from the runs of several measuring processes.

    Rates pool every process's examples and time; the per-pass counts
    (calls, cost, quality) must agree between processes; latencies
    (unbounded) are the median over processes.
    """
    if len(runs) == 1:
        return runs[0]
    first = runs[0]
    examples = sum(run["examples"] for run in runs)
    metrics = {name: statistics.median(run["metrics"][name] for run in runs)
               for name in first["metrics"]}
    metrics["examples_per_s"] = examples / sum(run["timed_s"] for run in runs)
    metrics["examples_per_s.raw"] = examples / sum(run["wall_s"] for run in runs)
    for name, value in zip(("api_calls", "cost_usd", "quality"),
                           first["pass_totals"]):
        metrics[name] = value
    consistent = all(run["pass_totals"] == first["pass_totals"]
                     for run in runs)
    return {
        "correct": consistent and all(run["correct"] for run in runs),
        "mismatched": [key for run in runs for key in run["mismatched"]],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "phases": [phase for run in runs for phase in run["phases"]],
        "metrics": metrics,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }


def self_time_table(values: dict) -> list[str]:
    rows = sorted(
        ((name[len("self_ms."):], value) for name, value in values.items()
         if name.startswith("self_ms.")),
        key=lambda row: -row[1],
    )
    total = sum(value for _name, value in rows) or 1.0
    lines = ["self time per layer (ms per pass, share of traced self time):"]
    lines.extend(f"    {name:<22} {value:>12.3f} {100 * value / total:6.1f}%"
                 for name, value in rows)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, end-to-end metrics")
    parser.add_argument("--traced", action="store_true",
                        help="every workload once with spans")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite oracle.json from the current program")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source (src/repro) in this checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    with open(os.path.join(HERE, "workloads.json")) as handle:
        seed = (args.seed if args.seed is not None
                else json.load(handle)["seeds"]["default"])
    names = [entry["name"] for entry in spec["workloads"]]
    try:
        if args.pin:
            pins = child("all", 0, 0, "pin", time.monotonic() + 900)
            with open(os.path.join(HERE, "oracle.json"), "w") as handle:
                json.dump(pins, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"pinned {len(pins['units'])} unit digests")
            return 0
        if args.all or args.traced:
            ok = True
            for name in names:
                deadline = time.monotonic() + DEADLINE_S
                result, lines = run_workload(
                    spec, name, seed, seconds, int(args.traced), deadline
                )
                print("\n".join(lines), flush=True)
                ok = ok and result["correct"]
            print(json.dumps({"correct": ok}))
            return 0 if ok else 1
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        result, lines = run_workload(
            spec, args.workload, seed, seconds, args.trace,
            time.monotonic() + DEADLINE_S,
        )
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
