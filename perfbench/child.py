"""Child process of the benchmark: set-up time, timed passes, traced passes.

Run by ``run.py``, one child per set-up sample and one per workload run::

    python3 perfbench/child.py setup --spawned-ns N
    python3 perfbench/child.py run --spawned-ns N --workload W --seed S \
        --seconds T --trace 0|1 --out DIR

``N`` is ``time.monotonic_ns()`` in the parent just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so the set-up time
covers interpreter start, the import of ``seqmeas.cli`` and building its
parser.  The last line of stdout is a JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _setup() -> tuple[object, int]:
    import seqmeas.cli as cli

    cli.build_parser()
    return cli, time.monotonic_ns()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(cli, argv: list[str]) -> tuple[int | None, str, float]:
    """Run ``cli.main(argv)`` with stdout captured; code None on an exception."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the program failed; count it and keep measuring
        traceback.print_exc()
        code = None
    return code, buf.getvalue(), time.perf_counter() - start


def _pass(cli, calls, ledger) -> dict:
    """One pass over the workload's invocations: wall, CPU and per-kind time."""
    cpu0 = _cpu_s()
    start = time.perf_counter()
    per_kind = {}
    for call in calls:
        code, text, seconds = _invoke(cli, call.argv)
        ledger.record(call.kind, code, text)
        per_kind[call.kind] = seconds
    return {"wall_s": time.perf_counter() - start, "cpu_s": _cpu_s() - cpu0,
            "per_kind": per_kind}


def _timed_run(cli, calls, ledger, seconds: float) -> dict:
    _pass(cli, calls, ledger)  # warm-up: first-call costs, page faults of fresh memory
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(_pass(cli, calls, ledger))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = sum(c.items for c in calls)
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "items_per_s": [items / p["wall_s"] for p in passes],
    }
    for c in calls if len(calls) > 1 else ():
        samples[f"{c.kind}_s"] = [p["per_kind"][c.kind] for p in passes]
        samples[f"{c.kind}_items_per_s"] = [c.items / p["per_kind"][c.kind] for p in passes]
    return {"samples": samples, "peak_rss_mib": peak_rss_mib}


def _traced_run(cli, calls, ledger, seconds: float, workload: str, scn: dict,
                out: Path, seed: int) -> dict:
    import layers
    import spec
    from tracer import Tracer

    _pass(cli, calls, ledger)  # warm-up
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(_pass(cli, calls, ledger)["wall_s"])
        tracer = Tracer(spec.TRACED, usage=("montecarlo.sample",))
        origin = time.perf_counter()
        with tracer:
            traced.append(_pass(cli, calls, ledger)["wall_s"])
        per_pass.append(layers.layer_metrics(tracer.spans))
    out.mkdir(parents=True, exist_ok=True)
    tracer.write(out / f"spans-{workload}-seed{seed}.tsv.gz", origin)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["montecarlo.parallel_speedup"] = 0.0
    if workload == "sampler":
        # Compare against the CLI's counts only once those passed their checks.
        speedup = (layers.parallel_speedup(scn, ledger.first["estimate"])
                   if ledger.failed == 0 else None)
        if speedup is None:
            ledger.failed += 1
        else:
            metrics["montecarlo.parallel_speedup"] = speedup
        ledger.attempted += 1
    return {"layers": metrics, "traced_passes": len(traced)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    cli, ready = _setup()
    result: dict = {"setup_s": (ready - args.spawned_ns) / 1e9}
    if args.mode == "run":
        # Imported only now, so that set-up time covers seqmeas.cli alone.
        import numpy
        import workloads

        scn = workloads.make_scenario(args.seed)
        calls = workloads.invocations(args.workload, scn)
        ledger = workloads.Ledger(scn)
        if args.trace:
            result.update(_traced_run(cli, calls, ledger, args.seconds, args.workload,
                                      scn, args.out, args.seed))
        else:
            result.update(_timed_run(cli, calls, ledger, args.seconds))
        result.update(attempted=ledger.attempted, failed=ledger.failed,
                      scenario=scn, numpy=numpy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
