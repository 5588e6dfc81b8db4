"""Tests of the benchmark itself: tracer, output checks, manifest.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

import seqmeas.cli as cli  # noqa: E402

SCENARIO = workloads.make_scenario(7)
ANGLES = [arg for name in ("alpha", "phi", "theta", "varphi", "gamma")
          for arg in (f"--{name}", repr(SCENARIO[name]))]
ESTIMATE = ["estimate", *ANGLES, "--trials", "300000", "--workers", "2",
            "--seed", str(SCENARIO["sample_seed"])]
TRADEOFF = ["tradeoff", *ANGLES[:8], "--grid", "60"]
# varphi on the 40-point phi grid, so the scanned locus crosses grid points.
SCAN_SCENARIO = dict(SCENARIO, varphi=2.0 * math.pi * 9 / 40)
SCAN = ["znzd", "--scan", "--theta", repr(SCAN_SCENARIO["theta"]),
        "--varphi", repr(SCAN_SCENARIO["varphi"]), "--scan-points", "40"]
SMALL_VERIFY = ["verify", "--seed", "5", "--verify-trials", "20000", "--verify-repeats", "5"]
TARGETS = spec.TRACED


def _run(argv):
    code, text, _ = child._invoke(cli, argv)
    return code, text


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if module is not None and (name == "seqmeas" or name.startswith("seqmeas."))
            for attr, value in vars(module).items() if callable(value)}


@pytest.fixture(scope="module")
def verify_output():
    return _run(["verify", "--seed", str(SCENARIO["verify_seed"])])


def test_tracer_restores_every_original_function():
    before = _bindings()
    tracer = Tracer(TARGETS)
    with tracer:
        during = _bindings()
        assert cli.main is not before[("seqmeas.cli", "main")]
        # `from .fisher import tradeoff_curve` copies are rebound too.
        assert during[("seqmeas.cli", "tradeoff_curve")] is during[("seqmeas.fisher", "tradeoff_curve")]
        assert during[("seqmeas", "tradeoff_curve")] is not before[("seqmeas", "tradeoff_curve")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert sum(before[k] is not during[k] for k in before) > len(TARGETS)


@pytest.mark.parametrize("argv", [ESTIMATE, TRADEOFF, SCAN, SMALL_VERIFY],
                         ids=["estimate", "tradeoff", "scan", "verify"])
def test_traced_and_untraced_stdout_are_byte_identical(argv):
    plain = _run(argv)
    tracer = Tracer(TARGETS, usage=("montecarlo.sample",))
    with tracer:
        traced = _run(argv)
    assert traced == plain
    assert tracer.spans and tracer.spans[0].name == "cli.main"


def test_worker_thread_spans_take_the_sampling_span_as_parent():
    tracer = Tracer(TARGETS, usage=("montecarlo.sample",))
    with tracer:
        _run(ESTIMATE)
    (sample,) = [s for s in tracer.spans if s.name == "montecarlo.sample"]
    hashes = [s for s in tracer.spans if s.name == "montecarlo.trial_uniforms"]
    assert len({s.thread for s in hashes}) == 2
    assert all(s.parent is sample for s in hashes)
    assert sample.trials == 300000 and sample.cpu_s > 0.0


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = Span("p", 0.0, 10.0, None, 1)
    spans = [parent, Span("a", 1.0, 3.0, parent, 2), Span("b", 2.0, 5.0, parent, 3),
             Span("c", 8.0, 9.0, parent, 1)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_estimate_check_rejects_a_count_off_by_one():
    code, text = _run(ESTIMATE)
    checks.check_estimate(text, SCENARIO, 300000, SCENARIO["sample_seed"])
    report = json.loads(text)
    report["counts"]["pm"] += 1
    with pytest.raises(checks.CheckFailure, match="sum to"):
        checks.check_estimate(json.dumps(report), SCENARIO, 300000, SCENARIO["sample_seed"])


def test_estimate_check_rejects_counts_far_from_the_oracle():
    report = json.loads(_run(ESTIMATE)[1])
    report["counts"]["pp"] += 3000
    report["counts"]["pm"] -= 3000
    with pytest.raises(checks.CheckFailure, match="sigma"):
        checks.check_estimate(json.dumps(report), SCENARIO, 300000, SCENARIO["sample_seed"])


def test_tradeoff_check_rejects_a_bare_nan_row():
    code, text = _run(TRADEOFF)
    assert code == 0
    checks.check_tradeoff(text, SCENARIO, 60)
    rows = json.loads(text)
    rows[5]["epsilon"] = math.nan
    with pytest.raises(checks.CheckFailure, match="NaN"):
        checks.check_tradeoff(json.dumps(rows, indent=2), SCENARIO, 60)


def test_tradeoff_check_rejects_wrong_values_and_row_counts():
    rows = json.loads(_run(TRADEOFF)[1])
    moved = [dict(r) for r in rows]
    moved[2]["eta"] -= 1e-6  # a sampled row; still monotone, but not the oracle value
    with pytest.raises(checks.CheckFailure, match="oracle"):
        checks.check_tradeoff(json.dumps(moved), SCENARIO, 60)
    with pytest.raises(checks.CheckFailure, match="rows"):
        checks.check_tradeoff(json.dumps(rows[:-2] + rows[-1:]), SCENARIO, 60)


def test_scan_check_matches_the_recount_and_rejects_a_missing_row():
    code, text = _run(SCAN)
    expected = checks.znzd_locus(SCAN_SCENARIO, 40)
    assert code == 0 and len(expected) > 0
    checks.check_scan(text, expected)
    with pytest.raises(checks.CheckFailure):
        checks.check_scan(json.dumps(json.loads(text)[1:]), expected)


def test_verify_check_rejects_a_missing_or_failed_suite(verify_output):
    code, text = verify_output
    seed = SCENARIO["verify_seed"]
    checks.check_verify(text, code, seed)
    report = json.loads(text)
    missing = dict(report, suites=report["suites"][:-1])
    with pytest.raises(checks.CheckFailure, match="suites"):
        checks.check_verify(json.dumps(missing), code, seed)
    failed = dict(report, suites=[dict(s, passed=False) if s["name"] == "cramer_rao" else s
                                  for s in report["suites"]])
    with pytest.raises(checks.CheckFailure, match="cramer_rao"):
        checks.check_verify(json.dumps(failed), code, seed)
    with pytest.raises(checks.CheckFailure, match="passed"):
        checks.check_verify(json.dumps(dict(report, passed=False)), code, seed)
    with pytest.raises(checks.CheckFailure, match="exited"):
        checks.check_verify(text, 1, seed)


def test_ledger_fails_errors_and_outputs_that_change_between_passes():
    ledger = workloads.Ledger(SCENARIO)
    scan = workloads.invocations("sweep", SCENARIO)[1]
    code, text = _run(scan.argv)
    ledger.record("scan", code, text)
    ledger.record("scan", code, text)
    ledger.record("scan", code, text.replace("[", "[ ", 1))
    ledger.record("verify", 1, "{}")
    ledger.record("estimate", None, "")
    assert (ledger.attempted, ledger.failed) == (5, 3)


def test_scenarios_are_reproducible_and_inside_the_domain():
    for seed in range(50):
        scn = workloads.make_scenario(seed)
        assert scn == workloads.make_scenario(seed)
        assert 1.0 / math.sqrt(2.0) < scn["gamma"] < 1.0
        assert abs(math.cos(scn["varphi"] - scn["phi"])) >= 0.1  # not ZNZD
        assert abs(math.sin(2.0 * scn["alpha"])) >= 0.1  # not an eigenstate of A
    assert workloads.make_scenario(1) != workloads.make_scenario(2)


def test_manifest_file_matches_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.manifest()
    names = [m["name"] for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in spec.WORKLOADS)
