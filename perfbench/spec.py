"""What the benchmark measures: workloads, metrics, sizes and traced functions.

This module is the single source of ``BENCHMARK.json``
(``python3 perfbench/run.py --write-manifest`` regenerates it) and of the
names the parent and the child processes report.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Workload sizes.
SAMPLER_TRIALS = 100_000_000
SAMPLER_WORKERS = 2
SWEEP_GRID = 10_000
SCAN_POINTS = 360
# `verify` at its defaults: unbiasedness 30 x 1e6 trials, Cramer-Rao 200 x 1e5.
VERIFY_TRIALS = 30 * 1_000_000 + 200 * 100_000

# Setup-only child processes per timed run; `setup_s` is the median over
# these and the workload child.
SETUP_SAMPLES = 10

WORKLOADS = [
    {
        "name": "sampler",
        "why": "estimate --trials 1e8 --workers 2: time goes to the montecarlo "
        "hash, cell counting and thread sharding; the only workload where the "
        "per-trial kernel, thread pool and 1e8-trial memory peak decide",
    },
    {
        "name": "sweep",
        "why": "tradeoff --grid 10000 then znzd --scan at 360 points: scalar "
        "closed-form calls (fisher, coupling, correction, qubit) and JSON "
        "rendering; the sampler and the oracle do no work here",
    },
    {
        "name": "verify",
        "why": "verify at its defaults: 230 serial sampler batches of 1e6/1e5 "
        "trials, so per-call overhead counts, plus 1000 oracle calls and the "
        "round-trip and ZNZD suites",
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]

# Functions timed by the traced pass, as "module.function" under seqmeas.
# Each is rebound everywhere it is bound in a ``seqmeas.*`` namespace.
TRACED = [
    "cli.main",
    "verify.suite_oracle_equivalence",
    "verify.suite_round_trip",
    "verify.suite_unbiasedness",
    "verify.suite_crb",
    "verify.suite_znzd",
    "montecarlo.sample",
    "montecarlo.trial_uniforms",
    "montecarlo.estimate",
    "montecarlo.unbiasedness_check",
    "montecarlo.crb_check",
    "oracle.simulate",
    "fisher.tradeoff_curve",
    "fisher.precisions",
    "coupling.joint_distribution",
    "coupling.post_measurement_density",
    "coupling.meter_probabilities",
    "coupling.b_probabilities",
    "correction.is_znzd",
    "qubit.make_state",
    "qubit.born_probability",
]


def _layer(name: str, unit: str) -> dict:
    better = "higher" if name == "montecarlo.parallel_speedup" else "lower"
    return {"name": name, "unit": unit, "better": better}


# Layers reported as `<layer>.calls` and `<layer>.s`, and as `<layer>.s` only.
CALLS_AND_TIME = [
    "montecarlo.trial_uniforms", "montecarlo.sample", "montecarlo.estimate",
    "coupling.joint_distribution", "coupling.post_measurement_density",
    "oracle.simulate", "fisher.precisions", "coupling.meter_probabilities",
    "coupling.b_probabilities", "qubit.born_probability", "correction.is_znzd",
    "qubit.make_state",
]
TIME_ONLY = [
    "montecarlo.unbiasedness_check", "montecarlo.crb_check", "fisher.tradeoff_curve",
    "verify.suite_oracle_equivalence", "verify.suite_round_trip",
    "verify.suite_unbiasedness", "verify.suite_crb", "verify.suite_znzd", "cli.main",
]

PER_LAYER = (
    [m for f in CALLS_AND_TIME for m in (_layer(f"{f}.calls", "count"), _layer(f"{f}.s", "s"))]
    + [_layer(f"{f}.s", "s") for f in TIME_ONLY]
    + [
        _layer("montecarlo.sample.self_s", "s"),
        _layer("montecarlo.ns_per_trial", "ns"),
        _layer("montecarlo.minor_faults", "count"),
        _layer("montecarlo.cpu_s", "s"),
        _layer("montecarlo.parallel_speedup", "ratio"),
        _layer("cli.self_s", "s"),
        _layer("trace.overhead_ratio", "ratio"),
    ]
)
_UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def unit(metric: str) -> str:
    """Unit of a metric; other timings in the results are seconds or rates."""
    return _UNITS.get(metric) or ("1/s" if metric.endswith("_per_s") else "s")


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
