"""Command-line front end.

Subcommands::

    seqmeas probs     exact outcome laws, decomposition, reduced density matrix
    seqmeas estimate  seeded Monte Carlo run with corrected estimates
    seqmeas tradeoff  precision trade-off sweep (CSV/JSON rows)
    seqmeas verify    self-verification suites, nonzero exit on failure
    seqmeas znzd      zero-noise-zero-disturbance classification / locus scan

Each subcommand accepts only the options it reads; argparse validates and
defaults each of them.  Angles are radians (``--degrees`` scales the angles
given, omitted ones keep their radian defaults); ``probs`` and ``estimate``
take the coupling either as ``--gamma`` or as the strength ``--kappa``.  All
numeric output carries 9 significant digits, identically in JSON and CSV (a
non-finite number is ``null`` in JSON), and a fixed ``(config, seed)``
reproduces output byte for byte; when ``--seed`` is absent the SEQMEAS_SEED
environment variable supplies the default.

Exit codes: 0 success, 1 verification failure, 2 usage or output error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from typing import TextIO

from .correction import ZNZD_TOL, ZnzdClass, estimator_weights, is_znzd
from .coupling import (
    Coupling,
    JointSetup,
    angular_factors,
    decompose,
    joint_distribution,
    post_measurement_density,
)
from .errors import SeqmeasError
from .fisher import tradeoff_curve
from .montecarlo import _MASK64, _z_score, estimate, sample
from .qubit import (ObservableDirection, PureState, a_direction, expectation, make_direction,
                    make_state)
from .verify import DEFAULT_SCENARIO, run_verification

SEED_ENV_VAR = "SEQMEAS_SEED"
DEFAULT_SEED = 42

# Caps on the two outputs that grow with an option: the trade-off sweep writes
# --grid + 2 rows, the ZNZD scan up to N(N - 1) for N = --scan-points and a wide --tol.
MAX_GRID = 100_000
MAX_SCAN_POINTS = 2_000

# Caps on the sampled trials: one estimate run, and each statistical suite of
# verify (2 suites x repeats x trials, at most 1e10 trials in all).
MAX_TRIALS = 10**10
MAX_VERIFY_TRIALS = 10**7
MAX_VERIFY_REPEATS = 500


def _round9(x: float) -> float:
    return float(f"{x:.9g}") + 0.0  # +0.0 normalizes -0.0


def _fmt9(x: float) -> str:
    return f"{x + 0.0:.9g}"  # +0.0 normalizes -0.0


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


def _json_cell(value: float) -> str:
    return repr(_round9(value)) if math.isfinite(value) else "null"


def _render_rows(columns: list[str], rows: list[tuple], fmt: str) -> str:
    """Rows of floats as CSV, or as the JSON text ``json.dumps(..., indent=2)`` writes."""
    if fmt == "json":
        names = (json.dumps(name).replace("%", "%%") for name in columns)
        template = "  {\n" + ",\n".join(f"    {name}: %s" for name in names) + "\n  }"
        body = ",\n".join(template % tuple(map(_json_cell, row)) for row in rows)
        return f"[\n{body}\n]\n" if rows else "[]\n"
    template = ",".join(["%s"] * len(columns))
    lines = [",".join(columns), *(template % tuple(map(_csv_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _state_and_direction(args: argparse.Namespace) -> tuple[dict, PureState, ObservableDirection]:
    """The four angles in radians, and the state and observable they define.

    ``--degrees`` scales only the angles given; an omitted angle keeps its
    radian value from ``DEFAULT_SCENARIO``.
    """
    scale = math.pi / 180.0 if args.degrees else 1.0
    given = (args.alpha, args.phi, args.theta, args.varphi)
    alpha, phi, theta, varphi = (default if value is None else value * scale
                                 for value, default in zip(given, DEFAULT_SCENARIO))
    angles = {"alpha": alpha, "phi": phi, "theta": theta, "varphi": varphi}
    return angles, make_state(alpha, phi), make_direction(theta, varphi)


def _joint_setup(args: argparse.Namespace) -> tuple[JointSetup, dict]:
    """The scenario of ``probs`` and ``estimate``, and its report entry."""
    angles, state, direction = _state_and_direction(args)
    c = Coupling(args.gamma)
    scenario = {**angles, "gamma": c.gamma, "kappa": c.kappa, "deco": c.deco}
    return JointSetup(state, direction, c), scenario


def cmd_probs(args: argparse.Namespace, out: TextIO) -> int:
    setup, scenario = _joint_setup(args)
    law = joint_distribution(setup)
    p_m, p_b = law.meter_marginal(), law.b_marginal()
    parts = decompose(setup)
    rho = post_measurement_density(setup).entries
    report = {
        "scenario": scenario,
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
    out.write(_render_report(report, args.fmt))
    return 0


def cmd_estimate(args: argparse.Namespace, out: TextIO) -> int:
    setup, scenario = _joint_setup(args)
    weights = estimator_weights(setup)  # refuses a degenerate coupling before any trial
    batch = sample(setup, args.trials, args.seed, workers=args.workers)
    stats = estimate(batch, weights)
    true_a = expectation(setup.state, a_direction())
    true_b = expectation(setup.state, setup.b_dir)
    z_a = _z_score(stats.est_A, true_a, stats.se_A)
    z_b = _z_score(stats.est_B, true_b, stats.se_B)
    report = {
        "scenario": scenario,
        "trials": args.trials,
        "seed": args.seed,
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
    out.write(_render_report(report, args.fmt))
    return 0


def cmd_tradeoff(args: argparse.Namespace, out: TextIO) -> int:
    _, state, direction = _state_and_direction(args)
    rows = tradeoff_curve(state, direction, args.grid)
    out.write(_render_rows(["gamma", "kappa", "epsilon", "eta"], rows, args.fmt))
    return 0


def cmd_znzd(args: argparse.Namespace, out: TextIO) -> int:
    _, state, direction = _state_and_direction(args)
    if not args.scan:
        sin_two_alpha, sin_theta, cos_delta = angular_factors(state, direction)
        report = {
            "alpha": state.alpha,
            "phi": state.phi,
            "theta": direction.theta,
            "varphi": direction.varphi,
            "classification": is_znzd(state, direction, tol=args.tol).value,
            "cos_delta": cos_delta,
            "sin_two_alpha": sin_two_alpha,
            "sin_theta": sin_theta,
        }
        out.write(_render_report(report, args.fmt))
        return 0
    # nontrivial = alpha passes the trivial test and phi the cos test: classify each axis once
    n, tol = args.scan_points, args.tol
    alphas = [s.alpha for s in (make_state(math.pi * j / n, 0.0) for j in range(1, n))
              if is_znzd(s, direction, tol=tol) is not ZnzdClass.TRIVIAL]
    phis = [s.phi for s in (make_state(alphas[0], 2.0 * math.pi * i / n) for i in range(n))
            if is_znzd(s, direction, tol=tol) is ZnzdClass.NONTRIVIAL] if alphas else []
    rows = [(alpha, phi) for phi in phis for alpha in alphas]
    out.write(_render_rows(["alpha", "phi"], rows, args.fmt))
    return 0


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    results = run_verification(
        seed=args.seed,
        trials=args.verify_trials,
        repeats=args.verify_repeats,
        workers=args.workers,
    )
    all_passed = all(r.passed for r in results)
    report = {
        "seed": args.seed,
        "suites": [asdict(r) for r in results],
        "passed": all_passed,
    }
    out.write(_render_report(report, args.fmt))
    return 0 if all_passed else 1


def _int_in(low: int, high: float = math.inf, source: str = ""):
    """An argparse type: an integer in ``[low, high]``; ``source`` ends its error."""

    def parse(text: str) -> int:
        try:
            if low <= int(text) <= high:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer in [{low}, {high}]{source}, "
                                         f"got {text!r}")

    return parse


def _gamma_of_kappa(text: str) -> float:
    """The type of ``--kappa``: the strength, stored as the amplitude gamma."""
    try:
        return Coupling.from_kappa(float(text)).gamma
    except ValueError as exc:  # also InvalidParameter
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Sequential weak measurement of two qubit observables: "
        "exact laws, disturbance-corrected estimates, precision trade-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups; each subcommand takes exactly the groups it reads.
    # Omitted angles are None and take the default scenario in radians.
    angles = argparse.ArgumentParser(add_help=False)
    angles.add_argument("--alpha", type=float, help="state polar angle (radians)")
    angles.add_argument("--phi", type=float, help="state relative phase (radians)")
    angles.add_argument("--theta", type=float, help="observable polar angle (radians)")
    angles.add_argument("--varphi", type=float, help="observable azimuthal angle (radians)")
    angles.add_argument("--degrees", action="store_true", help="the angles given are in degrees")

    coupling = argparse.ArgumentParser(add_help=False)
    strength = coupling.add_mutually_exclusive_group()
    strength.add_argument("--gamma", type=float, default=DEFAULT_SCENARIO[4],
                          help="coupling amplitude in [1/sqrt(2), 1]")
    strength.add_argument("--kappa", dest="gamma", type=_gamma_of_kappa,
                          default=argparse.SUPPRESS,
                          help="measurement strength in [0, 1] (alternative to --gamma)")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    output.add_argument("--out", default=None, metavar="PATH", help="write output to PATH")

    sampling = argparse.ArgumentParser(add_help=False)
    # a string default goes through the type too, so $SEQMEAS_SEED is checked;
    # the sampler reads only the low 64 bits, so a larger seed would alias a smaller one
    sampling.add_argument("--seed",
                          type=_int_in(0, _MASK64, source=f" (--seed or ${SEED_ENV_VAR})"),
                          default=os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)),
                          help=f"sampling seed in [0, 2^64 - 1] "
                          f"(default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sampling.add_argument("--workers", type=_int_in(1), default=1,
                          help="shard sampling across up to N threads, at most one per "
                          "core (results identical)")

    sub.add_parser("probs", parents=[angles, coupling, output],
                   help="exact outcome laws of one scenario").set_defaults(run=cmd_probs)

    p_est = sub.add_parser("estimate", parents=[angles, coupling, output, sampling],
                           help="Monte Carlo run with corrected estimates")
    p_est.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=1_000_000)
    p_est.set_defaults(run=cmd_estimate)

    p_trade = sub.add_parser("tradeoff", parents=[angles, output],
                             help="precision trade-off sweep over the coupling")
    p_trade.add_argument("--grid", type=_int_in(2, MAX_GRID), default=100,
                         help="number of swept couplings between the endpoint rows")
    p_trade.set_defaults(run=cmd_tradeoff)

    p_verify = sub.add_parser("verify", parents=[output, sampling],
                              help="run the self-verification suites")
    p_verify.add_argument("--verify-trials", type=_int_in(1, MAX_VERIFY_TRIALS), default=None,
                          help="override trials for both statistical suites")
    p_verify.add_argument("--verify-repeats", type=_int_in(2, MAX_VERIFY_REPEATS), default=None,
                          help="override repeats for both statistical suites")
    p_verify.set_defaults(run=cmd_verify)

    p_znzd = sub.add_parser("znzd", parents=[angles, output],
                            help="classify the state / scan the ZNZD locus")
    p_znzd.add_argument("--scan", action="store_true",
                        help="scan a (phi, alpha) grid and emit the nontrivial locus")
    p_znzd.add_argument("--scan-points", type=_int_in(4, MAX_SCAN_POINTS), default=360,
                        help="grid resolution per angle for --scan")
    p_znzd.add_argument("--tol", type=float, default=ZNZD_TOL,
                        help="tolerance for the classification tests")
    p_znzd.set_defaults(run=cmd_znzd)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # --out is opened before the command computes, so a bad path fails at once
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8", newline="\n")) as out:
            return args.run(args, out)
    except (SeqmeasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
