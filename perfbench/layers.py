"""Per-layer metrics from the spans of one traced pass, and the sampler's
thread speed-up."""

from __future__ import annotations

import json
import sys
import time

import spec
from tracer import Span, self_times


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Calls, busy time (summed across threads) and self time per layer."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, self_s in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + (span.end - span.start)
        own[span.name] = own.get(span.name, 0.0) + self_s
    metrics: dict[str, float] = {}
    for name in spec.CALLS_AND_TIME:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in spec.CALLS_AND_TIME + spec.TIME_ONLY:
        metrics[f"{name}.s"] = busy.get(name, 0.0)
    samples = [s for s in spans if s.name == "montecarlo.sample"]
    trials = sum(s.trials for s in samples)
    metrics["montecarlo.sample.self_s"] = own.get("montecarlo.sample", 0.0)
    metrics["montecarlo.ns_per_trial"] = (
        1e9 * busy.get("montecarlo.sample", 0.0) / trials if trials else 0.0)
    metrics["montecarlo.minor_faults"] = sum(s.minor_faults for s in samples)
    metrics["montecarlo.cpu_s"] = sum(s.cpu_s for s in samples)
    metrics["cli.self_s"] = own.get("cli.main", 0.0)
    return metrics


def parallel_speedup(scn: dict, estimate_output: str) -> float | None:
    """Time of ``sample(workers=1)`` over ``sample(workers=2)`` on the sampler
    scenario, or None when the counts differ from each other or from the CLI's.
    """
    from seqmeas.coupling import Coupling, JointSetup
    from seqmeas.montecarlo import sample
    from seqmeas.qubit import make_direction, make_state

    setup = JointSetup(make_state(scn["alpha"], scn["phi"]),
                       make_direction(scn["theta"], scn["varphi"]), Coupling(scn["gamma"]))
    counts = json.loads(estimate_output)["counts"]
    expected = (counts["pp"], counts["pm"], counts["mp"], counts["mm"])
    seconds = {}
    for workers in (1, spec.SAMPLER_WORKERS):
        start = time.perf_counter()
        batch = sample(setup, spec.SAMPLER_TRIALS, scn["sample_seed"], workers=workers)
        seconds[workers] = time.perf_counter() - start
        if batch.counts != expected:
            print(f"check failed: sample(workers={workers}) counts {batch.counts} "
                  f"!= CLI counts {expected}", file=sys.stderr)
            return None
    return seconds[1] / seconds[spec.SAMPLER_WORKERS]
