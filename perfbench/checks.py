"""Output checks of the benchmark's CLI invocations.

Every check recomputes what it compares against (from ``oracle.simulate``
or plain ``math``) instead of comparing golden bytes, so any workload seed
can be checked.  A check raises :class:`CheckFailure` with the reason.
"""

from __future__ import annotations

import json
import math

from seqmeas import oracle
from seqmeas.coupling import Coupling, JointSetup
from seqmeas.qubit import a_direction, make_direction, make_state

GAMMA_MIN = 1.0 / math.sqrt(2.0)
# The swept couplings of `tradeoff` run from GAMMA_MIN + offset to 1 - offset.
ENDPOINT_OFFSET = 1e-6
SWEEP_SAMPLED_ROWS = 32
SWEEP_TOL = 1e-9
SIGMAS = 6.0
ZNZD_TOL = 1e-9
VERIFY_SUITES = ["oracle_equivalence", "round_trip_correction", "unbiasedness",
                 "cramer_rao", "znzd"]
CELLS = {"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}


class CheckFailure(Exception):
    """An output does not meet its check."""


def _reject_constant(name: str):
    raise CheckFailure(f"output contains bare {name}, which is not JSON")


def parse_json(text: str):
    """Parse strict JSON: bare ``NaN`` and ``Infinity`` are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _round9(x: float) -> float:
    return float(f"{x:.9g}") + 0.0


def _setup(scenario: dict, gamma: float) -> JointSetup:
    return JointSetup(
        make_state(scenario["alpha"], scenario["phi"]),
        make_direction(scenario["theta"], scenario["varphi"]),
        Coupling(gamma),
    )


def check_estimate(text: str, scenario: dict, trials: int, seed: int) -> None:
    """Counts sum to ``trials`` and each lies within 6 sigma of the oracle law."""
    report = parse_json(text)
    _require(isinstance(report, dict), "output is not a JSON object")
    _require(report.get("trials") == trials, f"trials {report.get('trials')!r} != {trials}")
    _require(report.get("seed") == seed, f"seed {report.get('seed')!r} != {seed}")
    counts = report.get("counts", {})
    _require(sorted(counts) == sorted(CELLS), f"count cells {sorted(counts)} are wrong")
    _require(all(isinstance(c, int) and c >= 0 for c in counts.values()),
             f"counts {counts} are not non-negative integers")
    _require(sum(counts.values()) == trials, f"counts sum to {sum(counts.values())}, not {trials}")
    joint = oracle.simulate(_setup(scenario, scenario["gamma"])).joint
    for cell, key in CELLS.items():
        p = joint[key]
        sigma = math.sqrt(trials * p * (1.0 - p))
        _require(abs(counts[cell] - trials * p) <= SIGMAS * sigma,
                 f"count {cell}={counts[cell]} is beyond {SIGMAS:g} sigma of {trials * p:.1f}")


def oracle_precisions(scenario: dict, gamma: float) -> tuple[float, float]:
    """(epsilon, eta) at ``gamma`` from brute-force oracle probabilities."""
    setup = _setup(scenario, gamma)
    ref = oracle.simulate(setup)
    vec = setup.state.vector()
    p_a = oracle.born_probability(vec, a_direction(), +1)
    p_b = oracle.born_probability(vec, setup.b_dir, +1)
    kappa = 2.0 * gamma * gamma - 1.0
    deco = 2.0 * gamma * math.sqrt(max(0.0, 1.0 - gamma * gamma))
    (m_plus, m_minus), (b_plus, b_minus) = ref.meter_probs, ref.b_probs
    epsilon = (0.25 * kappa * kappa / (m_plus * m_minus)) / (0.25 / (p_a * (1.0 - p_a)))
    eta = (0.25 * deco * deco / (b_plus * b_minus)) / (0.25 / (p_b * (1.0 - p_b)))
    return epsilon, eta


def sweep_gammas(grid: int) -> list[float]:
    """Couplings of every `tradeoff` row, endpoint rows included."""
    lo, hi = GAMMA_MIN + ENDPOINT_OFFSET, 1.0 - ENDPOINT_OFFSET
    return [GAMMA_MIN] + [lo + (hi - lo) * k / (grid - 1) for k in range(grid)] + [1.0]


def check_tradeoff(text: str, scenario: dict, grid: int) -> None:
    """Row count, exact endpoints, strict monotonicity, 32 rows against the oracle.

    Adjacent rows may print equal values only where the oracle shows the true
    values differ by less than the output's 9-digit resolution.
    """
    rows = parse_json(text)
    _require(isinstance(rows, list) and len(rows) == grid + 2,
             f"expected {grid + 2} rows, got {len(rows) if isinstance(rows, list) else rows!r}")
    keys = ["gamma", "kappa", "epsilon", "eta"]
    _require(all(isinstance(r, dict) and list(r) == keys for r in rows),
             f"rows must have exactly the keys {keys}")
    first = {"gamma": _round9(GAMMA_MIN), "kappa": 0.0, "epsilon": 0.0, "eta": 1.0}
    last = {"gamma": 1.0, "kappa": 1.0, "epsilon": 1.0, "eta": 0.0}
    _require(rows[0] == first, f"first endpoint row {rows[0]} != {first}")
    _require(rows[-1] == last, f"last endpoint row {rows[-1]} != {last}")
    gammas = sweep_gammas(grid)
    for k, (row, gamma) in enumerate(zip(rows, gammas)):
        _require(abs(row["gamma"] - gamma) <= SWEEP_TOL, f"row {k}: gamma {row['gamma']} != {gamma}")
    for k in range(len(rows) - 1):
        for key, sign in (("epsilon", 1), ("eta", -1)):
            step = sign * (rows[k + 1][key] - rows[k][key])
            if step > 0:
                continue
            _require(step == 0, f"rows {k}..{k + 1}: {key} is not strictly monotone")
            index = 0 if key == "epsilon" else 1
            true_step = (oracle_precisions(scenario, gammas[k + 1])[index]
                         - oracle_precisions(scenario, gammas[k])[index])
            _require(abs(true_step) < SWEEP_TOL,
                     f"rows {k}..{k + 1}: {key} ties but truly moves by {true_step:.3g}")
    n = len(rows)
    for i in range(SWEEP_SAMPLED_ROWS):
        k = round(i * (n - 1) / (SWEEP_SAMPLED_ROWS - 1))
        epsilon, eta = oracle_precisions(scenario, gammas[k])
        _require(abs(rows[k]["epsilon"] - epsilon) <= SWEEP_TOL
                 and abs(rows[k]["eta"] - eta) <= SWEEP_TOL,
                 f"row {k}: ({rows[k]['epsilon']}, {rows[k]['eta']}) != oracle ({epsilon}, {eta})")


def znzd_locus(scenario: dict, points: int) -> list[dict]:
    """Plain-``math`` recount of the rows of `znzd --scan` (angles in range)."""
    theta, varphi = scenario["theta"], scenario["varphi"]
    if abs(math.sin(theta)) <= ZNZD_TOL:
        return []
    rows = []
    for i in range(points):
        phi = 2.0 * math.pi * i / points
        if abs(math.cos(varphi - phi)) > ZNZD_TOL:
            continue
        for j in range(1, points):
            alpha = math.pi * j / points
            if abs(math.sin(2.0 * alpha)) > ZNZD_TOL:
                rows.append({"alpha": _round9(alpha), "phi": _round9(phi)})
    return rows


def check_scan(text: str, expected: list[dict]) -> None:
    """The scan rows equal the independent recount ``expected``."""
    rows = parse_json(text)
    _require(rows == expected, f"scan gives {len(rows) if isinstance(rows, list) else rows!r} "
             f"rows; the recount gives {len(expected)}")


def check_verify(text: str, code: int, seed: int) -> None:
    """Exit code 0, ``"passed": true`` and every suite present and passed."""
    _require(code == 0, f"verify exited with {code}")
    report = parse_json(text)
    _require(isinstance(report, dict), "output is not a JSON object")
    _require(report.get("seed") == seed, f"seed {report.get('seed')!r} != {seed}")
    _require(report.get("passed") is True, "verify did not report passed: true")
    suites = report.get("suites", [])
    names = [s.get("name") for s in suites]
    _require(names == VERIFY_SUITES, f"suites {names} != {VERIFY_SUITES}")
    failed = [s["name"] for s in suites if s.get("passed") is not True]
    _require(not failed, f"suites failed: {failed}")
