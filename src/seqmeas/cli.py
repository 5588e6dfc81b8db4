"""Command-line front end.

Subcommands::

    seqmeas probs     exact outcome laws, decomposition, reduced density matrix
    seqmeas estimate  seeded Monte Carlo run with corrected estimates
    seqmeas tradeoff  precision trade-off sweep (CSV/JSON rows)
    seqmeas verify    self-verification suites, nonzero exit on failure
    seqmeas znzd      zero-noise-zero-disturbance classification / locus scan

Each subcommand accepts only the options it reads.  Angles are radians
(``--degrees`` converts at parse time); ``probs`` and ``estimate`` take the
coupling either as ``--gamma`` or as the strength ``--kappa``.  All numeric
output carries 9 significant digits, identically in JSON and CSV (a
non-finite number is ``null`` in JSON), and a fixed ``(config, seed)``
reproduces output byte for byte; when ``--seed`` is absent the SEQMEAS_SEED
environment variable supplies the default.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .correction import is_znzd
from .coupling import (
    Coupling,
    JointSetup,
    b_probabilities,
    decompose,
    joint_distribution,
    meter_probabilities,
    post_measurement_density,
)
from .errors import SeqmeasError
from .fisher import tradeoff_curve
from .montecarlo import _z_score, estimate, sample
from .qubit import a_direction, expectation, make_direction, make_state
from .verify import DEFAULT_SCENARIO, FAULT_MODES, run_verification

SEED_ENV_VAR = "SEQMEAS_SEED"
DEFAULT_SEED = 42


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated options shared by the subcommands."""

    alpha: float
    phi: float
    theta: float
    varphi: float
    gamma: float
    trials: int
    grid: int
    seed: int
    fmt: str
    out: str | None
    workers: int

    def setup(self) -> JointSetup:
        return JointSetup(
            make_state(self.alpha, self.phi),
            make_direction(self.theta, self.varphi),
            Coupling(self.gamma),
        )


def _round9(x: float) -> float:
    return float(f"{x:.9g}") + 0.0  # +0.0 normalizes -0.0


def _fmt9(x: float) -> str:
    return f"{_round9(x):.9g}"


def _jsonify(value):
    if isinstance(value, float):
        return _round9(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt9(value)
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_report(report: dict, fmt: str) -> str:
    """One report, as JSON or as key,value CSV, with identical numeric values."""
    if fmt == "json":
        return json.dumps(_jsonify(report), indent=2) + "\n"
    lines = ["key,value"]
    for key, value in _flatten(report):
        lines.append(f"{key},{_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def _render_rows(columns: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        return json.dumps(_jsonify(payload), indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _scenario_dict(config: ScenarioConfig) -> dict:
    c = Coupling(config.gamma)
    return {
        "alpha": config.alpha,
        "phi": config.phi,
        "theta": config.theta,
        "varphi": config.varphi,
        "gamma": c.gamma,
        "kappa": c.kappa,
        "deco": c.deco,
    }


def cmd_probs(config: ScenarioConfig) -> int:
    setup = config.setup()
    p_m = meter_probabilities(setup)
    p_b = b_probabilities(setup)
    law = joint_distribution(setup)
    parts = decompose(setup)
    rho = post_measurement_density(setup).entries
    report = {
        "scenario": _scenario_dict(config),
        "meter": {"p_plus": p_m.p_plus, "p_minus": p_m.p_minus},
        "b_measurement": {"p_plus": p_b.p_plus, "p_minus": p_b.p_minus},
        "joint": {"pp": law.p_pp, "pm": law.p_pm, "mp": law.p_mp, "mm": law.p_mm},
        "decomposition": {
            "independent_part": parts.independent_part,
            "coherent_coefficient": parts.coherent_coefficient,
        },
        "density": {
            "rho00": rho[0, 0].real,
            "rho01_re": rho[0, 1].real,
            "rho01_im": rho[0, 1].imag,
            "rho10_re": rho[1, 0].real,
            "rho10_im": rho[1, 0].imag,
            "rho11": rho[1, 1].real,
        },
    }
    _emit(_render_report(report, config.fmt), config.out)
    return 0


def cmd_estimate(config: ScenarioConfig) -> int:
    setup = config.setup()
    batch = sample(setup, config.trials, config.seed, workers=config.workers)
    stats = estimate(batch, setup)
    true_a = expectation(setup.state, a_direction())
    true_b = expectation(setup.state, setup.b_dir)
    z_a = _z_score(stats.est_A, true_a, stats.se_A)
    z_b = _z_score(stats.est_B, true_b, stats.se_B)
    report = {
        "scenario": _scenario_dict(config),
        "trials": config.trials,
        "seed": config.seed,
        "counts": {"pp": batch.counts[0], "pm": batch.counts[1],
                   "mp": batch.counts[2], "mm": batch.counts[3]},
        "est_A": stats.est_A,
        "se_A": stats.se_A,
        "true_A": true_a,
        "z_A": z_a,
        "est_B": stats.est_B,
        "se_B": stats.se_B,
        "true_B": true_b,
        "z_B": z_b,
    }
    _emit(_render_report(report, config.fmt), config.out)
    return 0


def cmd_tradeoff(config: ScenarioConfig) -> int:
    state = make_state(config.alpha, config.phi)
    direction = make_direction(config.theta, config.varphi)
    points = tradeoff_curve(state, direction, config.grid)
    rows = [[p.gamma, p.kappa, p.epsilon, p.eta] for p in points]
    _emit(_render_rows(["gamma", "kappa", "epsilon", "eta"], rows, config.fmt), config.out)
    return 0


def cmd_znzd(config: ScenarioConfig, scan: bool, scan_points: int, tol: float) -> int:
    state = make_state(config.alpha, config.phi)
    direction = make_direction(config.theta, config.varphi)
    if not scan:
        report = {
            "alpha": state.alpha,
            "phi": state.phi,
            "theta": direction.theta,
            "varphi": direction.varphi,
            "classification": is_znzd(state, direction, tol=tol).value,
            "cos_delta": math.cos(direction.varphi - state.phi),
            "sin_two_alpha": math.sin(2.0 * state.alpha),
            "sin_theta": math.sin(direction.theta),
        }
        _emit(_render_report(report, config.fmt), config.out)
        return 0
    rows = []
    for i in range(scan_points):
        phi = 2.0 * math.pi * i / scan_points
        for j in range(1, scan_points):
            alpha = math.pi * j / scan_points
            grid_state = make_state(alpha, phi)
            verdict = is_znzd(grid_state, direction, tol=tol)
            if verdict.value == "nontrivial_znzd":
                rows.append([grid_state.alpha, grid_state.phi])
    _emit(_render_rows(["alpha", "phi"], rows, config.fmt), config.out)
    return 0


def cmd_verify(config: ScenarioConfig, trials: int | None, repeats: int | None,
               fault: str | None) -> int:
    results = run_verification(
        seed=config.seed,
        trials=trials,
        repeats=repeats,
        workers=config.workers,
        fault=fault,
    )
    all_passed = all(r.passed for r in results)
    report = {
        "seed": config.seed,
        "suites": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all_passed,
    }
    _emit(_render_report(report, config.fmt), config.out)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Sequential weak measurement of two qubit observables: "
        "exact laws, disturbance-corrected estimates, precision trade-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alpha, phi, theta, varphi, _ = DEFAULT_SCENARIO

    # Option groups; each subcommand takes exactly the groups it reads.
    angles = argparse.ArgumentParser(add_help=False)
    angles.add_argument("--alpha", type=float, default=alpha, help="state polar angle (radians)")
    angles.add_argument("--phi", type=float, default=phi, help="state relative phase (radians)")
    angles.add_argument("--theta", type=float, default=theta,
                        help="observable polar angle (radians)")
    angles.add_argument("--varphi", type=float, default=varphi,
                        help="observable azimuthal angle (radians)")
    angles.add_argument("--degrees", action="store_true", help="angles are given in degrees")

    coupling = argparse.ArgumentParser(add_help=False)
    strength = coupling.add_mutually_exclusive_group()
    strength.add_argument("--gamma", type=float, default=None,
                          help="coupling amplitude in [1/sqrt(2), 1]")
    strength.add_argument("--kappa", type=float, default=None,
                          help="measurement strength in [0, 1] (alternative to --gamma)")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    output.add_argument("--out", default=None, metavar="PATH", help="write output to PATH")

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=int, default=None,
                          help=f"sampling seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sampling.add_argument("--workers", type=int, default=1,
                          help="shard sampling across up to N threads, at most one per "
                          "core (results identical)")

    sub.add_parser("probs", parents=[angles, coupling, output],
                   help="exact outcome laws of one scenario")

    p_est = sub.add_parser("estimate", parents=[angles, coupling, output, sampling],
                           help="Monte Carlo run with corrected estimates")
    p_est.add_argument("--trials", type=int, default=1_000_000)

    p_trade = sub.add_parser("tradeoff", parents=[angles, output],
                             help="precision trade-off sweep over the coupling")
    p_trade.add_argument("--grid", type=int, default=100,
                         help="number of swept couplings between the endpoint rows")

    p_verify = sub.add_parser("verify", parents=[output, sampling],
                              help="run the self-verification suites")
    p_verify.add_argument("--verify-trials", type=int, default=None,
                          help="override trials for both statistical suites")
    p_verify.add_argument("--verify-repeats", type=int, default=None,
                          help="override repeats for both statistical suites")
    p_verify.add_argument("--inject-fault", choices=FAULT_MODES, default=None,
                          help=argparse.SUPPRESS)

    p_znzd = sub.add_parser("znzd", parents=[angles, output],
                            help="classify the state / scan the ZNZD locus")
    p_znzd.add_argument("--scan", action="store_true",
                        help="scan a (phi, alpha) grid and emit the nontrivial locus")
    p_znzd.add_argument("--scan-points", type=int, default=360,
                        help="grid resolution per angle for --scan")
    p_znzd.add_argument("--tol", type=float, default=1e-9,
                        help="tolerance for the classification tests")
    return parser


def _resolve_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ScenarioConfig:
    # Subcommands without a scenario option (verify, or the coupling of
    # tradeoff and znzd) get the default scenario, which they never read.
    alpha, phi, theta, varphi, gamma = DEFAULT_SCENARIO
    scale = math.pi / 180.0 if getattr(args, "degrees", False) else 1.0
    if getattr(args, "kappa", None) is not None:
        try:
            gamma = Coupling.from_kappa(args.kappa).gamma
        except SeqmeasError as exc:
            parser.error(f"--kappa: {exc}")
    elif getattr(args, "gamma", None) is not None:
        gamma = args.gamma

    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            seed = int(env) if env is not None else DEFAULT_SEED
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")

    trials = getattr(args, "trials", 1)
    grid = getattr(args, "grid", 2)
    workers = getattr(args, "workers", 1)
    for name, value in (("--trials", trials), ("--workers", workers)):
        if value < 1:
            parser.error(f"{name} must be a positive integer, got {value}")
    if grid < 2:
        parser.error(f"--grid must be at least 2, got {grid}")
    if getattr(args, "scan_points", 4) < 4:
        parser.error("--scan-points must be at least 4")

    return ScenarioConfig(
        alpha=getattr(args, "alpha", alpha) * scale,
        phi=getattr(args, "phi", phi) * scale,
        theta=getattr(args, "theta", theta) * scale,
        varphi=getattr(args, "varphi", varphi) * scale,
        gamma=gamma,
        trials=trials,
        grid=grid,
        seed=seed,
        fmt=args.fmt,
        out=args.out,
        workers=workers,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _resolve_config(parser, args)
    try:
        if args.command == "probs":
            return cmd_probs(config)
        if args.command == "estimate":
            return cmd_estimate(config)
        if args.command == "tradeoff":
            return cmd_tradeoff(config)
        if args.command == "verify":
            return cmd_verify(config, args.verify_trials, args.verify_repeats,
                              args.inject_fault)
        if args.command == "znzd":
            return cmd_znzd(config, args.scan, args.scan_points, args.tol)
        parser.error(f"unknown command {args.command!r}")
    except SeqmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
