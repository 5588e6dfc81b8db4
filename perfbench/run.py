"""seqmeas benchmark: one command for the `sampler`, `sweep` and `verify` workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload sampler|sweep|verify|all --seed N \
        [--seconds 30] [--trace 0|1]
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

Each workload runs in its own child process (``child.py``), which imports
``seqmeas`` from ``src/`` and calls ``seqmeas.cli.main(argv)`` with stdout
captured in memory.  The scenario (angles, coupling, sampler and verify
seeds) comes from ``--seed``; the program only receives CLI arguments.

``--trace 0`` times passes for ``--seconds`` and reports the end-to-end
metrics, medians over the passes; ``setup_s`` is the median over several
fresh child processes.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  Every CLI output is checked (see
``checks.py``); failures count in ``failed``.  Each workload prints a table
of its metrics with units, the machine facts, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full result
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Each run must end within 180 s; stop waiting for children a little earlier.
DEADLINE_S = 170.0


class ChildFailed(Exception):
    """A child process crashed, timed out or printed no result."""


def _spawn(args: list[str], deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left before the run's deadline")
    argv += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[0]} timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "n": len(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in child processes and gather its metrics."""
    deadline = time.monotonic() + DEADLINE_S
    setup_runs = 0 if trace else spec.SETUP_SAMPLES
    # Half the set-up samples before the workload child and half after it,
    # so that they span the run rather than one moment of the machine.
    setups = [_spawn(["setup"], deadline)["setup_s"] for _ in range(setup_runs // 2)]
    child = _spawn(["run", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--out", str(OUT)], deadline)
    setups += [_spawn(["setup"], deadline)["setup_s"]
               for _ in range(setup_runs - setup_runs // 2)]
    if trace:
        metrics = {name: {"value": value} for name, value in child["layers"].items()}
        passes = child["traced_passes"]
    else:
        samples = dict(child["samples"], setup_s=setups + [child["setup_s"]])
        metrics = {name: _summary(values) for name, values in samples.items()}
        metrics["peak_rss_mib"] = {"value": child["peak_rss_mib"], "n": 1}
        passes = len(samples["wall_s"])
    return {
        "workload": workload,
        "trace": trace,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failed_ratio": child["failed"] / child["attempted"],
        "metrics": metrics,
        "facts": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": child["numpy"],
            "workload_seed": seed,
            "scenario": child["scenario"],
            "run_seconds": seconds,
            "passes": passes,
            "sampler_trials": spec.SAMPLER_TRIALS,
            "sampler_workers": spec.SAMPLER_WORKERS,
            "sweep_grid": spec.SWEEP_GRID,
            "scan_points": spec.SCAN_POINTS,
            "verify_trials": spec.VERIFY_TRIALS,
        },
    }


# What `items_per_s` counts on each workload, and the names under which the
# table shows the sweep's two throughputs.
_DISPLAY = {
    "sampler": {"items_per_s": "items_per_s (trials_per_s)"},
    "verify": {"items_per_s": "items_per_s (trials_per_s)"},
    "sweep": {"items_per_s": "items_per_s (rows + points per s)",
              "tradeoff_items_per_s": "rows_per_s", "scan_items_per_s": "points_per_s"},
}


def _print_table(result: dict) -> None:
    workload = result["workload"]
    names = _DISPLAY.get(workload, {})
    for name, m in result["metrics"].items():
        label = names.get(name, name)
        unit = spec.unit(name)
        spread = (f"  median of {m['n']} [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
                  if m.get("n", 1) > 1 else "")
        print(f"{workload:8s} {label:40s} {m['value']:14.6g} {unit}{spread}")
    print(f"{workload:8s} {'failed_ratio':40s} {result['failed_ratio']:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} invocations)")
    print(f"{workload:8s} facts {json.dumps(result['facts'])}")


def _contract_line(result: dict) -> str:
    wanted = spec.PER_LAYER if result["trace"] else spec.END_TO_END
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        text = json.dumps(spec.manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "seqmeas" / "cli.py").is_file():
        print(f"error: the program is missing: no src/seqmeas/cli.py under {ROOT}",
              file=sys.stderr)
        return 2

    workloads = ([w["name"] for w in spec.WORKLOADS] if args.workload == "all"
                 else [args.workload])
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        _print_table(result)
        print(_contract_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
