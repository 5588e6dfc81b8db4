"""Command-line front end.

Subcommands::

    seqmeas probs     exact outcome laws, decomposition, reduced density matrix
    seqmeas estimate  seeded Monte Carlo run with corrected estimates
    seqmeas tradeoff  precision trade-off sweep (CSV/JSON rows)
    seqmeas verify    self-verification suites, nonzero exit on failure
    seqmeas znzd      zero-noise-zero-disturbance classification / locus scan

Each subcommand accepts only the options it reads and defaults each.  The
library's rules check each value as it is parsed: integers, in decimal digits,
pass its count rule ``qubit._require_count``.  Angles are radians
(``--degrees`` scales the angles given, omitted ones keep their radian
defaults); ``probs`` and ``estimate`` take the coupling either as ``--gamma``
or as the strength ``--kappa``.  All numeric output carries 9 significant
digits, identically in JSON and CSV (a non-finite number is ``null`` in JSON),
and a fixed ``(config, seed)`` reproduces output byte for byte; when ``--seed``
is absent the SEQMEAS_SEED environment variable supplies the default.

Exit codes: 0 success, 1 verification failure, 2 usage or output error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from functools import partial
from typing import TextIO

import numpy as np

from .correction import ZNZD_TOL, check_tol, estimator_weights, is_znzd, znzd_masks
from .coupling import (
    CELL_NAMES,
    OUTCOME_NAMES,
    Coupling,
    JointSetup,
    b_law,
    decompose,
    joint_distribution,
    meter_law,
    post_measurement_density,
)
from .errors import SeqmeasError
from .fisher import tradeoff_curve
from .montecarlo import _MASK64, _z_score, estimate, sample
from .qubit import (ObservableDirection, PureState, _require_count, _require_finite, a_direction,
                    angular_factors, expectation, make_direction, make_state)
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

# Cells per write of _write_rows, cut at whole rows: 1024 trade-off rows or 2048 ZNZD scan rows.
# A block's text lives until it is written. On 10^4 trade-off rows the JSON took 6.7, 5.4, 6.6,
# 6.3 and 8.1 ms at 2048, 4096, 8192, 16384 and 32768 cells a block, best when a block's arrays
# stay in cache; 10^5 rows peaked at 42-44 MiB for each.
_BLOCK_CELLS = 4096


def _round9(x: float) -> float:
    return float(f"{x:.9g}") + 0.0  # +0.0 normalizes -0.0


def _fmt9(x: float) -> str:
    return f"{x + 0.0:.9g}"  # +0.0 normalizes -0.0


def _python(value):
    """A numpy bool, integer or float as the Python one, which prints as it does; else ``value``."""
    return value.item() if isinstance(value, np.generic) else value


def _jsonify(value):
    value = _python(value)
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
    value = _python(value)
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
    """The text ``json.dumps(_jsonify(value))`` writes for one float."""
    return repr(_round9(value)) if math.isfinite(value) else "null"


# The text of a fast cell (see _fixed_cells) is laid out from its characters, nine digits "a"
# to "i" and then ".", "0", "-" and NUL: row e + 4 of _LAYOUTS gives, for exponent e, the
# character at each of 16 places, and row e + 16 the same after a "-".
_CHARS = "abcdefghi.0-\0"
_LAYOUTS = np.array([[_CHARS.index(c) for c in (sign + (
    "0." + "0" * (-e - 1) + _CHARS[:9] if e < 0 else f"{_CHARS[:e + 1]}.{_CHARS[e + 1:9]}")
).ljust(16, "\0")] for sign in ("", "-") for e in range(-4, 8)])
_UNITS = 10 ** np.arange(9, -1, -1, dtype=np.uint32)[:, None]  # 10^9, then each digit's unit
_POW10 = 10.0 ** np.arange(23)  # exact: 10^k is a double for k <= 22


def _fixed_cells(values: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The text '%.9g' writes for each value, as bytes, and a mask of the values it is right for.

    A value qualifies when 1e-4 <= |x| < 1e8, its nine-digit decimal keeps a fraction digit and
    is not within 1e-6 of a last-digit rounding tie: '%.9g' and the repr of the rounded float
    then write the same fixed-notation text.  The text of any other value is not valid.
    """
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e8)  # False for nan too
    magnitude = np.where(fast, magnitude, 1.0)
    e = np.floor(np.log10(magnitude)).astype(int)
    # one correctly rounded product, within 6e-8 of the exact one: rint rounds it as '%.9g'
    # rounds the value wherever that is further than 1e-6 from a tie
    scaled = magnitude * _POW10[8 - e]
    digits = np.rint(scaled)
    carry = digits == 1e9  # rounded up to the next decade, or log10 landed one decade low
    e = np.minimum(e + carry, 7)  # a carry to 1e8 is an integer, which the fraction test refuses
    digits = np.where(carry, 1e8, digits).astype(np.uint32)
    quotients = digits // _UNITS  # row k: the number the digits before digit k make
    keep = quotients[:9] * _UNITS[:9] != digits  # digit k, or one after it, is not 0
    fast &= (keep.sum(axis=0) > e + 1) & (np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6)
    chars = np.empty((len(_CHARS), len(values)), np.uint8)  # one column per value
    chars[:9] = (quotients[1:] - 10 * quotients[:-1] + ord("0")) * keep  # trailing zeros NUL
    chars[9:] = np.frombuffer(_CHARS[9:].encode(), np.uint8)[:, None]
    layout = e + 4 + 12 * (values < 0)
    text = np.zeros((16, len(values)), np.uint8)
    for k in np.flatnonzero(np.bincount(layout[fast], minlength=24)).tolist():
        text |= chars[_LAYOUTS[k]] * (layout == k)
    return np.ascontiguousarray(text.T).view("S16").ravel().tolist(), fast


def _write_rows(out: TextIO, columns: list[str], rows, fmt: str) -> None:
    """Write rows of floats as CSV, or as the JSON text ``json.dumps(..., indent=2)`` writes."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(columns))
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        row, cell = ",".join(["%s"] * len(columns)) + "\n", _fmt9
    else:
        out.write("[" if len(table) else "[]\n")
        names = (json.dumps(name).replace("%", "%%") for name in columns)
        row = ",\n  {\n" + ",\n".join(f"    {name}: %s" for name in names) + "\n  }"
        cell = _json_cell
    row, block = row.encode(), _BLOCK_CELLS // len(columns)
    with np.errstate(invalid="ignore"):  # a signalling NaN, or inf - inf, sets numpy's flag
        for start in range(0, len(table), block):
            values = (table[start:start + block] + 0.0).ravel()  # +0.0 normalizes -0.0
            cells, fast = _fixed_cells(values)
            for i, x in zip(np.flatnonzero(~fast).tolist(), values[~fast].tolist()):
                cells[i] = cell(x).encode()
            text = (row * (len(values) // len(columns)) % tuple(cells)).decode()
            out.write(text[1:] if fmt == "json" and start == 0 else text)  # no "," before row 0
    if fmt == "json" and len(table):
        out.write("\n]\n")


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
    c = args.coupling
    scenario = {**angles, "gamma": c.gamma, "kappa": c.kappa, "deco": c.deco}
    return JointSetup(state, direction, c), scenario


def cmd_probs(args: argparse.Namespace, out: TextIO) -> int:
    setup, scenario = _joint_setup(args)
    law = joint_distribution(setup)
    rho = post_measurement_density(setup)
    report = {
        "scenario": scenario,
        "meter": dict(zip(OUTCOME_NAMES, meter_law(law))),
        "b_measurement": dict(zip(OUTCOME_NAMES, b_law(law))),
        "joint": dict(zip(CELL_NAMES, law.tolist())),
        "decomposition": dict(zip(("independent_part", "coherent_coefficient"),
                                  decompose(setup))),
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
        "counts": dict(zip(CELL_NAMES, batch.counts)),
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
    _write_rows(out, ["gamma", "kappa", "epsilon", "eta"], rows, args.fmt)
    return 0


def cmd_znzd(args: argparse.Namespace, out: TextIO) -> int:
    _, state, direction = _state_and_direction(args)
    if not args.scan:
        sin_two_alpha, sin_theta, cos_delta = angular_factors(state, direction)
        report = {
            **asdict(state),  # alpha, phi
            **asdict(direction),  # theta, varphi
            "classification": is_znzd(state, direction, tol=args.tol).value,
            "cos_delta": cos_delta,
            "sin_two_alpha": sin_two_alpha,
            "sin_theta": sin_theta,
        }
        out.write(_render_report(report, args.fmt))
        return 0
    # the (phi, alpha) grid, phi-major
    n = args.scan_points
    grid = make_state(math.pi * np.arange(1, n) / n, 2.0 * math.pi * np.arange(n)[:, None] / n)
    _, nontrivial = znzd_masks(grid, direction, tol=args.tol)
    rows = np.column_stack([np.broadcast_to(angle, nontrivial.shape)[nontrivial]
                            for angle in (grid.alpha, grid.phi)])
    _write_rows(out, ["alpha", "phi"], rows, args.fmt)
    return 0


def cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    results = run_verification(
        seed=args.seed, trials=args.verify_trials, repeats=args.verify_repeats
    )
    all_passed = all(r.passed for r in results)
    report = {
        "seed": args.seed,
        "suites": [asdict(r) for r in results],
        "passed": all_passed,
    }
    out.write(_render_report(report, args.fmt))
    return 0 if all_passed else 1


def _checked(check, number=float):
    """An argparse type: ``check(number(text))``; a refusal is a usage error naming the option."""

    def parse(text: str):
        try:
            return check(number(text))
        except ValueError as exc:  # also InvalidParameter
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _count(name: str, low: int, high: int | None = None):
    """An argparse type: an integer in ``[low, high]`` by ``qubit._require_count``, written in
    decimal digits; other text goes to the rule as it is, so that the refusal names that text."""
    return _checked(partial(_require_count, name, low=low, high=high),
                    lambda text: int(text) if text.isdecimal() else text)


def build_parser() -> argparse.ArgumentParser:
    """The parser of the command line, built once per process and value of $SEQMEAS_SEED."""
    return _parser(os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)))


@functools.lru_cache(maxsize=1)  # parse_args keeps no state, so one parser serves every call
def _parser(seed_default: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Sequential weak measurement of two qubit observables: "
        "exact laws, disturbance-corrected estimates, precision trade-off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups; each subcommand takes exactly the groups it reads.
    # Omitted angles are None and take the default scenario in radians.
    angles = argparse.ArgumentParser(add_help=False)
    angle = _checked(partial(_require_finite, "angle"))
    angles.add_argument("--alpha", type=angle, help="state polar angle (radians)")
    angles.add_argument("--phi", type=angle, help="state relative phase (radians)")
    angles.add_argument("--theta", type=angle, help="observable polar angle (radians)")
    angles.add_argument("--varphi", type=angle, help="observable azimuthal angle (radians)")
    angles.add_argument("--degrees", action="store_true", help="the angles given are in degrees")

    coupling = argparse.ArgumentParser(add_help=False)
    strength = coupling.add_mutually_exclusive_group()
    strength.add_argument("--gamma", dest="coupling", type=_checked(Coupling),
                          default=Coupling(DEFAULT_SCENARIO[4]),
                          help="coupling amplitude in [1/sqrt(2), 1]")
    strength.add_argument("--kappa", dest="coupling", type=_checked(Coupling.from_kappa),
                          default=argparse.SUPPRESS,
                          help="measurement strength in [0, 1] (alternative to --gamma)")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    output.add_argument("--out", default=None, metavar="PATH", help="write output to PATH")

    sampling = argparse.ArgumentParser(add_help=False)
    # a string default goes through the type too, so $SEQMEAS_SEED is checked;
    # the sampler reads only the low 64 bits, so a larger seed would alias a smaller one
    sampling.add_argument("--seed", type=_count(f"seed (--seed or ${SEED_ENV_VAR})", 0, _MASK64),
                          default=seed_default,
                          help=f"sampling seed in [0, 2^64 - 1] "
                          f"(default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    sampling.add_argument("--workers", type=_count("workers", 1), default=1,
                          help="split estimate's trials into up to N shards, one thread each, "
                          "at most one per core (results identical); verify ignores it")

    sub.add_parser("probs", parents=[angles, coupling, output],
                   help="exact outcome laws of one scenario").set_defaults(run=cmd_probs)

    p_est = sub.add_parser("estimate", parents=[angles, coupling, output, sampling],
                           help="Monte Carlo run with corrected estimates")
    p_est.add_argument("--trials", type=_count("trials", 1, MAX_TRIALS), default=1_000_000)
    p_est.set_defaults(run=cmd_estimate)

    p_trade = sub.add_parser("tradeoff", parents=[angles, output],
                             help="precision trade-off sweep over the coupling")
    p_trade.add_argument("--grid", type=_count("grid", 2, MAX_GRID), default=100,
                         help="number of swept couplings between the endpoint rows")
    p_trade.set_defaults(run=cmd_tradeoff)

    p_verify = sub.add_parser("verify", parents=[output, sampling],
                              help="run the self-verification suites")
    p_verify.add_argument("--verify-trials", type=_count("trials", 1, MAX_VERIFY_TRIALS),
                          default=None, help="override trials for both statistical suites")
    p_verify.add_argument("--verify-repeats", type=_count("repeats", 2, MAX_VERIFY_REPEATS),
                          default=None, help="override repeats for both statistical suites")
    p_verify.set_defaults(run=cmd_verify)

    p_znzd = sub.add_parser("znzd", parents=[angles, output],
                            help="classify the state / scan the ZNZD locus")
    p_znzd.add_argument("--scan", action="store_true",
                        help="scan a (phi, alpha) grid and emit the nontrivial locus")
    p_znzd.add_argument("--scan-points", type=_count("scan points", 4, MAX_SCAN_POINTS),
                        default=360, help="grid resolution per angle for --scan")
    p_znzd.add_argument("--tol", type=_checked(check_tol), default=ZNZD_TOL,
                        help="tolerance for the classification tests, in (0, 1)")
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
