"""Scenarios from a workload seed, the CLI invocations of each workload, and
the output check of each invocation.

The program under test only ever sees the CLI arguments built here.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import checks
import spec


def make_scenario(seed: int) -> dict:
    """Angles and coupling for one workload seed.

    gamma lies strictly inside (1/sqrt(2), 1).  Eigenstates of either
    observable and ZNZD pairs are rejected, so `tradeoff` is defined.  varphi
    sits on the `znzd --scan` phi grid, so the scanned ZNZD locus
    (phi = varphi +- pi/2) crosses grid points and the scan emits rows.
    """
    rng = random.Random(seed)
    while True:
        alpha = rng.uniform(0.1, math.pi - 0.1)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.2, math.pi - 0.2)
        varphi = 2.0 * math.pi * rng.randrange(spec.SCAN_POINTS) / spec.SCAN_POINTS
        gamma = rng.uniform(checks.GAMMA_MIN + 0.01, 0.99)
        coherence = math.sin(2.0 * alpha) * math.cos(varphi - phi)
        expect_b = -math.cos(theta) * math.cos(2.0 * alpha) + math.sin(theta) * coherence
        if (abs(math.sin(2.0 * alpha)) >= 0.1 and abs(math.cos(varphi - phi)) >= 0.1
                and abs(expect_b) <= 0.95):
            break
    return {
        "alpha": alpha, "phi": phi, "theta": theta, "varphi": varphi, "gamma": gamma,
        "sample_seed": rng.randrange(2**32),
        "verify_seed": rng.randrange(2**31),
    }


def _angles(scn: dict, with_gamma: bool = True) -> list[str]:
    names = ["alpha", "phi", "theta", "varphi"] + (["gamma"] if with_gamma else [])
    return [arg for name in names for arg in (f"--{name}", repr(scn[name]))]


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload pass and the items of work it does."""

    kind: str
    argv: list[str]
    items: int


def invocations(workload: str, scn: dict) -> list[Invocation]:
    """The CLI calls that make up one pass of ``workload``."""
    if workload == "sampler":
        return [Invocation("estimate", [
            "estimate", *_angles(scn), "--trials", str(spec.SAMPLER_TRIALS),
            "--workers", str(spec.SAMPLER_WORKERS), "--seed", str(scn["sample_seed"]),
        ], spec.SAMPLER_TRIALS)]
    if workload == "sweep":
        return [
            Invocation("tradeoff", ["tradeoff", *_angles(scn, with_gamma=False),
                                    "--grid", str(spec.SWEEP_GRID)], spec.SWEEP_GRID + 2),
            Invocation("scan", ["znzd", "--scan", "--theta", repr(scn["theta"]),
                                "--varphi", repr(scn["varphi"]),
                                "--scan-points", str(spec.SCAN_POINTS)],
                       spec.SCAN_POINTS * (spec.SCAN_POINTS - 1)),
        ]
    if workload == "verify":
        return [Invocation("verify", ["verify", "--seed", str(scn["verify_seed"])],
                           spec.VERIFY_TRIALS)]
    raise ValueError(f"unknown workload {workload!r}")


def check(kind: str, text: str, code: int, scn: dict) -> None:
    """Raise :class:`checks.CheckFailure` unless the output of ``kind`` is correct."""
    if kind == "verify":
        checks.check_verify(text, code, scn["verify_seed"])
        return
    if code != 0:
        raise checks.CheckFailure(f"{kind} exited with {code}")
    if kind == "estimate":
        checks.check_estimate(text, scn, spec.SAMPLER_TRIALS, scn["sample_seed"])
    elif kind == "tradeoff":
        checks.check_tradeoff(text, scn, spec.SWEEP_GRID)
    elif kind == "scan":
        checks.check_scan(text, checks.znzd_locus(scn, spec.SCAN_POINTS))
    else:
        raise ValueError(f"unknown invocation kind {kind!r}")


class Ledger:
    """Counts invocations and failures of one run.

    An invocation fails when it raised (code None), when its output differs
    from the first pass's, or when its check fails; each distinct output is
    checked once.
    """

    def __init__(self, scenario: dict) -> None:
        self.scenario = scenario
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.verdicts: dict[tuple[str, int, str], bool] = {}

    def record(self, kind: str, code: int | None, text: str) -> None:
        self.attempted += 1
        ok = code is not None
        if ok and self.first.setdefault(kind, text) != text:
            print(f"check failed: {kind} output differs from the first pass", file=sys.stderr)
            ok = False
        key = (kind, code, text)
        if ok and key not in self.verdicts:
            try:
                check(kind, text, code, self.scenario)
                self.verdicts[key] = True
            except checks.CheckFailure as exc:
                print(f"check failed: {kind}: {exc}", file=sys.stderr)
                self.verdicts[key] = False
        if not (ok and self.verdicts[key]):
            self.failed += 1
