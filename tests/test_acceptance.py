"""Acceptance gate: every criterion at its stated tolerance, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Statistical criteria are pinned to fixed seeds; the seeded draws make them
exactly reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from seqmeas import (
    Coupling,
    a_direction,
    b_probabilities,
    expectation,
    make_direction,
    make_state,
    meter_probabilities,
    tradeoff_curve,
)
from seqmeas.cli import main
from seqmeas.coupling import GAMMA_MIN
from seqmeas.montecarlo import crb_check, unbiasedness_check
from seqmeas.verify import (
    default_setup,
    random_scenarios,
    suite_oracle_equivalence,
    suite_round_trip,
    suite_znzd,
    znzd_states,
)

from test_coupling import row_setups
from test_fisher import fd_fisher


def conclude(number: int, description: str, ok: bool, note: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{note}]" if note else ""
    print(f"acceptance criterion {number} ({description}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({description}) failed{suffix}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    result = suite_oracle_equivalence(count=1000, seed=2025)
    elapsed = time.perf_counter() - start
    conclude(
        1,
        "oracle equivalence",
        result.passed and result.metrics["max_error"] <= 1e-10 and elapsed < 1.0,
        f"{result.detail}, {elapsed:.2f}s",
    )


def test_criterion_2_round_trip_correction():
    zero_strength, projective = Coupling(GAMMA_MIN), Coupling(1.0)
    assert zero_strength.kappa == 0.0 and projective.deco == 0.0
    result = suite_round_trip(count=1000, seed=2025)
    ok = result.passed and result.metrics["max_error"] <= 1e-10
    conclude(2, "round-trip correction", ok, result.detail)


def test_criterion_3_unbiasedness():
    setup = default_setup()
    start = time.perf_counter()
    metrics = unbiasedness_check(setup, trials=10**6, repeats=30, seed=2025)
    elapsed = time.perf_counter() - start
    ok = (
        abs(metrics["z_A"]) < 5.0
        and abs(metrics["z_B"]) < 5.0
        and expectation(setup.state, a_direction()) == pytest.approx(-0.5, abs=1e-12)
        and expectation(setup.state, setup.b_dir) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        and elapsed < 30.0
    )
    conclude(
        3,
        "unbiasedness",
        ok,
        f"z_A {metrics['z_A']:+.2f}, z_B {metrics['z_B']:+.2f}, {elapsed:.1f}s",
    )


def test_criterion_4_cramer_rao_saturation():
    setup = default_setup()
    start = time.perf_counter()
    metrics, _ = crb_check(setup, trials=10**5, repeats=200, seed=9)
    elapsed = time.perf_counter() - start
    ratio_a, ratio_b = metrics["ratio_A"], metrics["ratio_B"]
    ok = 0.9 <= ratio_a <= 1.1 and 0.9 <= ratio_b <= 1.1 and elapsed < 60.0
    conclude(
        4,
        "Cramer-Rao saturation",
        ok,
        f"ratio_A {ratio_a:.3f}, ratio_B {ratio_b:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_fisher_closed_forms():
    from seqmeas import decompose, expectation, precisions
    from seqmeas.qubit import a_direction

    checked = 0
    worst_rel = 0.0
    for setup in row_setups(random_scenarios(800, seed=5150)):
        p_m = meter_probabilities(setup)
        p_b = b_probabilities(setup)
        if min(p_m[0], p_m[1], p_b[0], p_b[1]) < 0.02:
            continue
        kappa, deco = setup.coupling.kappa, setup.coupling.deco
        if kappa < 1e-3 or deco < 1e-3:
            continue
        gb2 = setup.coupling.gamma_bar ** 2
        n = decompose(setup)[0]

        def meter_law(x, kappa=kappa, gb2=gb2):
            return (kappa * (1 + x) / 2 + gb2, kappa * (1 - x) / 2 + gb2)

        def b_law(x, deco=deco, n=n):
            return ((1 - deco) * n + deco * (1 + x) / 2,
                    (1 - deco) * (1 - n) + deco * (1 - x) / 2)

        fd_a = fd_fisher(meter_law, expectation(setup.state, a_direction()))
        fd_b = fd_fisher(b_law, expectation(setup.state, setup.b_dir))
        report = precisions(setup)
        worst_rel = max(
            worst_rel,
            abs(report.i_A_joint / fd_a - 1.0),
            abs(report.i_B_joint / fd_b - 1.0),
        )
        checked += 1
        if checked == 200:
            break
    conclude(
        5,
        "Fisher closed forms",
        checked == 200 and worst_rel < 1e-6,
        f"{checked} setups, worst rel err {worst_rel:.2e}",
    )


def test_criterion_6_tradeoff_reproduction():
    state = make_state(math.pi / 6, 0.0)
    direction = make_direction(math.pi / 3, 0.0)  # varphi = phi = 0
    rows = tradeoff_curve(state, direction, grid=100)
    gamma, _, eps, eta = rows.T
    endpoints_ok = (
        (gamma[0], eps[0], eta[0]) == (GAMMA_MIN, 0.0, 1.0)
        and (gamma[-1], eps[-1], eta[-1]) == (1.0, 1.0, 0.0)
    )
    monotone_ok = bool((np.diff(eps) > 0).all() and (np.diff(eta) < 0).all())
    conclude(
        6,
        "trade-off reproduction",
        endpoints_ok and monotone_ok and bool(np.isfinite(eps).all()),
        f"{len(rows)} rows, endpoints {endpoints_ok}, strict monotone {monotone_ok}",
    )


def test_criterion_7_znzd():
    state, direction = znzd_states(100, seed=77, nontrivial=True)
    assert state.alpha.shape == (100,)
    assert np.all(np.abs(np.cos(direction.varphi - state.phi)) < 1e-12)
    result = suite_znzd(count=100, seed=77, grid=50)
    ok = (
        result.passed
        and result.metrics["max_drift"] <= 1e-12
        and result.metrics["min_variation"] > 1e-6
    )
    conclude(7, "ZNZD invariance", ok, result.detail)


def test_criterion_8_determinism(capsys):
    estimate_cmd = [
        "estimate", "--alpha", "0.5235987755982988", "--phi", "0",
        "--theta", "1.5707963267948966", "--varphi", "0",
        "--gamma", "0.8944271909999159", "--trials", "1000000", "--seed", "42",
    ]
    verify_cmd = ["verify", "--seed", "42"]

    outputs = {}
    for label, argv in (
        ("estimate_run1", estimate_cmd),
        ("estimate_run2", estimate_cmd),
        ("estimate_threaded", [*estimate_cmd, "--workers", "4"]),
        ("verify_run1", verify_cmd),
        ("verify_run2", verify_cmd),
        ("verify_threaded", [*verify_cmd, "--workers", "4"]),
    ):
        code = main(argv)
        outputs[label] = capsys.readouterr().out
        assert code == 0, f"{label} exited {code}"

    estimate_ok = outputs["estimate_run1"] == outputs["estimate_run2"] == outputs["estimate_threaded"]
    verify_ok = outputs["verify_run1"] == outputs["verify_run2"] == outputs["verify_threaded"]
    seed42 = json.loads(outputs["estimate_run1"])["seed"] == 42
    conclude(
        8,
        "determinism",
        estimate_ok and verify_ok and seed42,
        f"estimate identical {estimate_ok}, verify identical {verify_ok}",
    )
