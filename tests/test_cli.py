import argparse
import csv
import io
import json
import math
import random
import struct
import sys

import numpy as np
import pytest

from seqmeas import oracle, verify
from seqmeas import cli
from seqmeas.cli import (MAX_GRID, MAX_SCAN_POINTS, MAX_TRIALS, MAX_VERIFY_REPEATS,
                         MAX_VERIFY_TRIALS, _csv_cell, _jsonify, _render_report, _write_rows,
                         main)
from seqmeas.correction import ZnzdClass, is_znzd, znzd_masks
from seqmeas.fisher import tradeoff_curve
from seqmeas.qubit import make_direction, make_state

E1_ARGS = [
    "--alpha", "0.5235987755982988",
    "--phi", "0",
    "--theta", "1.5707963267948966",
    "--varphi", "0",
    "--gamma", "0.8944271909999159",
]
FAST_VERIFY = ["--verify-trials", "50000", "--verify-repeats", "500", "--seed", "42"]


def run(capsys, argv):
    """Exit code, stdout and stderr of one run; a usage error from the parser exits 2 too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, refusing the non-standard NaN and Infinity constants."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class RecordingOut(io.StringIO):
    """A text stream that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def written_rows(columns, rows, fmt):
    """The text ``_write_rows`` writes for one table."""
    out = io.StringIO()
    _write_rows(out, columns, rows, fmt)
    return out.getvalue()


@pytest.fixture
def law_calls(monkeypatch):
    """Counts the ``joint_distribution`` calls made through any ``seqmeas`` module."""
    calls = []
    for module in [m for n, m in sys.modules.items() if n.startswith("seqmeas")]:
        real = getattr(module, "joint_distribution", None)
        if real is not None:
            def counted(setup, real=real):
                calls.append(setup)
                return real(setup)

            monkeypatch.setattr(module, "joint_distribution", counted)
    return calls


class TestProbs:
    def test_json_values(self, capsys):
        code, out, _ = run(capsys, ["probs", *E1_ARGS])
        assert code == 0
        report = json.loads(out)
        assert report["meter"]["p_plus"] == pytest.approx(0.35, abs=1e-8)
        assert report["b_measurement"]["p_plus"] == pytest.approx(0.846410162, abs=1e-8)
        assert report["joint"]["pp"] == pytest.approx(0.348205081, abs=1e-8)
        assert report["density"]["rho01_re"] == pytest.approx(0.346410162, abs=1e-8)
        assert report["scenario"]["kappa"] == pytest.approx(0.6, abs=1e-8)

    def test_one_law_evaluation(self, capsys, law_calls):
        # both marginals are taken from the one joint law
        code, _, _ = run(capsys, ["probs", *E1_ARGS])
        assert code == 0
        assert len(law_calls) == 1

    def test_weakest_coupling_is_uniform(self, capsys):
        code, out, _ = run(capsys, ["probs", "--gamma", "0.7071068"])
        assert code == 0
        report = json.loads(out)
        assert report["meter"]["p_plus"] == pytest.approx(0.5, abs=1e-6)
        assert report["meter"]["p_minus"] == pytest.approx(0.5, abs=1e-6)

    def test_csv_encodes_identical_values(self, capsys):
        code, json_out, _ = run(capsys, ["probs", *E1_ARGS])
        code2, csv_out, _ = run(capsys, ["probs", *E1_ARGS, "--format", "csv"])
        assert code == code2 == 0
        flat = {}
        for line in csv_out.strip().splitlines()[1:]:
            key, value = line.split(",")
            flat[key] = float(value)
        report = json.loads(json_out)
        assert flat["meter.p_plus"] == report["meter"]["p_plus"]
        assert flat["joint.pp"] == report["joint"]["pp"]
        assert flat["density.rho01_re"] == report["density"]["rho01_re"]
        assert "\r" not in csv_out

    def test_degrees_switch(self, capsys):
        _, out_rad, _ = run(capsys, ["probs", *E1_ARGS])
        _, out_deg, _ = run(capsys, [
            "probs", "--alpha", "30", "--phi", "0", "--theta", "90", "--varphi", "0",
            "--gamma", "0.8944271909999159", "--degrees",
        ])
        rad, deg = json.loads(out_rad), json.loads(out_deg)
        assert deg["meter"]["p_plus"] == pytest.approx(rad["meter"]["p_plus"], abs=1e-9)
        assert deg["b_measurement"]["p_plus"] == pytest.approx(
            rad["b_measurement"]["p_plus"], abs=1e-9
        )

    def test_degrees_keeps_omitted_angles_at_their_radian_defaults(self, capsys):
        _, plain, _ = run(capsys, ["probs"])
        _, scaled, _ = run(capsys, ["probs", "--degrees"])
        assert scaled == plain
        _, out, _ = run(capsys, ["znzd", "--degrees", "--alpha", "45"])
        report = json.loads(out)
        assert report["alpha"] == pytest.approx(math.pi / 4, abs=1e-8)
        assert report["theta"] == pytest.approx(math.pi / 2, abs=1e-8)

    def test_kappa_alias(self, capsys):
        _, by_gamma, _ = run(capsys, ["probs", *E1_ARGS])
        _, by_kappa, _ = run(capsys, [
            "probs", "--alpha", "0.5235987755982988", "--phi", "0",
            "--theta", "1.5707963267948966", "--varphi", "0", "--kappa", "0.6",
        ])
        assert json.loads(by_gamma)["meter"] == json.loads(by_kappa)["meter"]

    @pytest.mark.parametrize("argv, key, printed", [
        (["--kappa", "1e-8"], "kappa", 1e-08),
        (["--kappa", "3e-16"], "kappa", 3e-16),
        (["--gamma", "0.9999999990152839"], "deco", 8.87565697e-05),  # the correctly rounded digits
    ])
    def test_coupling_factors_print_without_cancellation(self, capsys, argv, key, printed):
        # --kappa is printed as given, not as 2 gamma**2 - 1; deco does not cancel near gamma = 1
        _, out, _ = run(capsys, ["probs", *argv])
        assert json.loads(out)["scenario"][key] == printed

    def test_gamma_kappa_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["probs", "--gamma", "0.9", "--kappa", "0.5"])
        assert excinfo.value.code == 2

    def test_malformed_angle_names_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["probs", "--alpha", "not-a-number"])
        assert excinfo.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_a_negative_angle_in_exponent_form_attached_with_equals(self, capsys):
        # on its own, "-1e-05" looks like an option to argparse; the README gives this form
        code, out, _ = run(capsys, ["probs", "--alpha=-1e-05"])
        assert code == 0
        assert '"alpha": -1e-05' in out

    def test_out_of_domain_gamma(self, capsys):
        code, _, err = run(capsys, ["probs", "--gamma", "0.5"])
        assert code == 2
        assert "gamma" in err


class TestEstimate:
    def test_statistical_run(self, capsys):
        code, out, _ = run(capsys, ["estimate", *E1_ARGS, "--trials", "100000", "--seed", "42"])
        assert code == 0
        report = json.loads(out)
        assert report["true_A"] == pytest.approx(-0.5, abs=1e-8)
        assert report["true_B"] == pytest.approx(0.866025404, abs=1e-8)
        assert abs(report["z_A"]) < 5.0
        assert abs(report["z_B"]) < 5.0
        assert report["seed"] == 42
        assert sum(report["counts"].values()) == 100000

    def test_byte_identical_runs_and_workers(self, capsys):
        argv = ["estimate", *E1_ARGS, "--trials", "200001", "--seed", "7"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        _, sharded, _ = run(capsys, [*argv, "--workers", "4"])
        assert first == second == sharded

    def test_single_trial_reports_infinite_z_as_null(self, capsys):
        # one trial has zero plug-in variance but a bias, so |z| is infinite
        code, out, _ = run(capsys, ["estimate", *E1_ARGS, "--trials", "1", "--seed", "42"])
        assert code == 0
        report = strict_json(out)
        assert report["se_A"] == 0.0 and report["est_A"] != report["true_A"]
        assert report["z_A"] is None

    def test_projective_gamma_names_b_channel(self, capsys):
        code, _, err = run(capsys, ["estimate", "--gamma", "1.0", "--trials", "100", "--seed", "1"])
        assert code == 2
        assert "projective" in err and "B channel" in err

    def test_zero_strength_names_a_channel(self, capsys):
        code, _, err = run(capsys, [
            "estimate", "--gamma", "0.70710678118654752", "--trials", "100", "--seed", "1",
        ])
        assert code == 2
        assert "kappa" in err and "A channel" in err

    @pytest.mark.parametrize("coupling", [["--gamma", "1"], ["--kappa", "0"]])
    def test_degenerate_coupling_refuses_before_sampling(self, capsys, monkeypatch, coupling):
        calls = []
        monkeypatch.setattr(cli, "sample", lambda *args, **kwargs: calls.append(args))
        code, out, _ = run(capsys, ["estimate", *coupling, "--trials", str(MAX_TRIALS)])
        assert code == 2 and out == ""
        assert calls == []

    def test_one_weight_computation_per_run(self, capsys, monkeypatch):
        calls = []
        for module in [m for n, m in sys.modules.items() if n.startswith("seqmeas")]:
            real = getattr(module, "estimator_weights", None)
            if real is not None:
                def counted(setup, real=real):
                    calls.append(setup)
                    return real(setup)

                monkeypatch.setattr(module, "estimator_weights", counted)
        code, _, _ = run(capsys, ["estimate", *E1_ARGS, "--trials", "1000"])
        assert code == 0
        assert len(calls) == 1


class TestTradeoff:
    FIG_ARGS = ["--alpha", "0.5235987755982988", "--phi", "0",
                "--theta", "1.0471975511965976", "--varphi", "0"]

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["tradeoff", *self.FIG_ARGS, "--grid", "100", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,kappa,epsilon,eta"
        assert len(lines) == 103  # header + grid + 2 endpoint rows
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[2] == 0.0 and first[3] == 1.0
        assert last[2] == 1.0 and last[3] == 0.0
        # the rendered columns are rounded to 9 significant digits, so ties can
        # appear next to the endpoints; strict monotonicity of the unrounded
        # curve is asserted in the fisher tests
        epsilons = [float(line.split(",")[2]) for line in lines[1:]]
        etas = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(epsilons, epsilons[1:]))
        assert all(b <= a for a, b in zip(etas, etas[1:]))
        assert epsilons[0] < epsilons[-1] and etas[0] > etas[-1]

    def test_znzd_input_rejected(self, capsys):
        code, _, err = run(capsys, [
            "tradeoff", "--alpha", "0.7853981633974483", "--phi", "1.5707963267948966",
            "--theta", "1.5707963267948966", "--varphi", "0",
        ])
        assert code == 2
        assert "ZNZD" in err

    def test_eigenstate_rejected(self, capsys):
        code, _, err = run(capsys, ["tradeoff", "--alpha", "0", "--phi", "0"])
        assert code == 2
        assert "eigenstate" in err


    def test_invalid_rows_render_as_null(self):
        rows = [[0.8, 0.6, math.nan, math.nan]]
        columns = ["gamma", "kappa", "epsilon", "eta"]
        (row,) = strict_json(written_rows(columns, rows, "json"))
        assert row == {"gamma": 0.8, "kappa": 0.6, "epsilon": None, "eta": None}
        assert written_rows(columns, rows, "csv") == "gamma,kappa,epsilon,eta\n0.8,0.6,nan,nan\n"


SIGNALLING_NAN = struct.unpack("<d", (0x7FF0000000000001).to_bytes(8, "little"))[0]
BLOCK_CELLS = [SIGNALLING_NAN, -0.0, 5e-324, -2.2e-310, 3.0 - 1e-9, 0.99999999996, 99999999.99,
               1e9, 12345.0, 0.25, -7.125e-5, 1e-4, math.inf, -math.inf, math.nan]


ROW_BLOCK = cli._BLOCK_CELLS // 3  # rows of the three-column tables below


@pytest.mark.parametrize("count", [
    pytest.param(ROW_BLOCK - 1, id="-1"), pytest.param(ROW_BLOCK, id="0"),
    pytest.param(ROW_BLOCK + 1, id="1"), pytest.param(0, id="no_rows"),
    pytest.param(1, id="one_row"), pytest.param(3 * ROW_BLOCK + 1, id="three_blocks_and_one"),
])
def test_rows_around_one_block_render_as_the_json_encoder_and_the_csv_cells_do(count):
    # the writer formats and writes cli._BLOCK_CELLS cells at a time: tables on both sides of a
    # block's end, and tables of no rows, one row and more than three blocks
    columns = ["gamma", "kappa", "epsilon"]
    rows = [[BLOCK_CELLS[(2 * i + j) % len(BLOCK_CELLS)] for j in range(len(columns))]
            for i in range(count)]
    texts = {
        "json": lambda rows: json.dumps(_jsonify([dict(zip(columns, r)) for r in rows]),
                                        indent=2) + "\n",
        "csv": lambda rows: "\n".join([",".join(columns),
                                       *(",".join(map(_csv_cell, r)) for r in rows)]) + "\n",
    }
    blocks = [rows[start:start + ROW_BLOCK] for start in range(0, count, ROW_BLOCK)]
    for table in (rows, np.array(rows)):
        for fmt, text_of in texts.items():
            out = RecordingOut()
            _write_rows(out, columns, table, fmt)
            assert out.getvalue() == text_of(rows)
            # each block is written as it is made: no write holds more than one block's text
            assert max(out.sizes) <= max((len(text_of(block)) for block in blocks),
                                         default=len(text_of(rows)))
            assert len(out.sizes) >= len(blocks)


def steps(value, ulps):
    """``value`` moved by each of ``ulps`` units in the last place."""
    moved = []
    for n in ulps:
        x = value
        for _ in range(abs(n)):
            x = math.nextafter(x, math.copysign(math.inf, n))
        moved.append(x)
    return moved


def renderer_edges():
    """Values at each edge of the rules that pick the numpy renderer or the per-cell one."""
    values = steps(1e-4, (-1, 0, 1)) + steps(1e8, (-1, 0, 1)) + [0.9999999996, 12345678.96,
                                                                 1234567.125]
    # near-ties whose digits times the power of ten round onto the tie, but lie above or below it
    values += [0.0006039286665, 0.006319693745, 0.2007809635, 3859.702565]
    for e in range(-5, 9):  # the exponents of the numpy renderer, and one decade either side
        unit = 10.0 ** (e - 8)
        for digits in (10**8, 123456789, 900000001, 10**9 - 1, 10**9 - 0.25):
            values += steps(digits * unit, (-1, 0, 1)) + steps((digits + 0.5) * unit,
                                                               (-2, -1, 0, 1, 2))
        values += steps(10.0 ** e, (-1, 0, 1))
        # an exact binary tie between two nine-digit decimals, as 1234567.125 is at e = 6:
        # (digits + 1/2) 10^(e - 8) = m / 2^(9 - e) for 2 digits + 1 = m 5^(8 - e), m odd
        values.append(((2 * 10**8 // 5 ** (8 - e) + 1) | 1) / 2 ** (9 - e))
    return values + [-x for x in values]


def test_renderer_edges_render_as_the_json_encoder_and_the_csv_cells_do():
    values = renderer_edges()
    rows = [[x] for x in values]
    json_text = json.dumps(_jsonify([{"x": x} for x in values]), indent=2) + "\n"
    assert written_rows(["x"], rows, "json").splitlines() == json_text.splitlines()
    csv_lines = ["x", *map(_csv_cell, values)]
    assert written_rows(["x"], rows, "csv").splitlines() == csv_lines


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tradeoff_rows_take_the_per_cell_rules_for_under_one_percent_of_cells(monkeypatch, fmt):
    # the per-cell rules are right for every value but slow; a fall back to them for the
    # ordinary cells would not change a byte, only the time
    calls = []
    for name in ("_json_cell", "_fmt9"):
        monkeypatch.setattr(cli, name, lambda x, real=getattr(cli, name): calls.append(x)
                            or real(x))
    setup = verify.default_setup()
    rows = tradeoff_curve(setup.state, setup.b_dir, 10_000)
    text = written_rows(["gamma", "kappa", "epsilon", "eta"], rows, fmt)
    assert len(text.splitlines()) > 10_000
    assert 0 < len(calls) < 0.01 * 4 * len(rows)


_SCAN_RNG = random.Random(8)
SCAN_CASES = [
    (0.0, 0.0, 1e-9, 36),
    (math.pi, 1.0, 1e-9, 36),
    (1.0471975511965976, 0.5, 0.5, 36),
    (1.0471975511965976, 0.5, 0.95, 36),  # a wide tol: from 1 on, tol is refused
    (math.pi / 2, 0.0, 1e-9, 4),
    (math.pi / 2, 0.0, 1e-9, 36),
    *((_SCAN_RNG.uniform(-7.0, 7.0), _SCAN_RNG.uniform(-7.0, 7.0),
       _SCAN_RNG.choice([0.05, 0.2, 0.4]), _SCAN_RNG.randint(4, 60))
      for _ in range(12)),
]


class TestZnzd:
    def test_classification(self, capsys):
        code, out, _ = run(capsys, [
            "znzd", "--alpha", "0.7853981633974483", "--phi", "1.5707963267948966",
            "--theta", "1.5707963267948966", "--varphi", "0",
        ])
        assert code == 0
        report = json.loads(out)
        assert report["classification"] == "nontrivial_znzd"

    def test_trivial_eigenstate(self, capsys):
        code, out, _ = run(capsys, ["znzd", "--alpha", "0"])
        assert json.loads(out)["classification"] == "trivial_znzd"

    def test_scan_locus(self, capsys):
        code, out, _ = run(capsys, [
            "znzd", "--theta", "1.5707963267948966", "--varphi", "0",
            "--scan", "--scan-points", "36",
        ])
        assert code == 0
        rows = json.loads(out)
        assert rows, "scan should find the nontrivial locus"
        phis = sorted({round(row["phi"], 9) for row in rows})
        assert phis == [pytest.approx(math.pi / 2), pytest.approx(3 * math.pi / 2)]
        assert all(abs(math.sin(2 * row["alpha"])) > 1e-9 for row in rows)

    @pytest.mark.parametrize(("theta", "varphi", "tol", "points"), SCAN_CASES)
    def test_scan_equals_the_classification_of_every_grid_point(
        self, capsys, theta, varphi, tol, points
    ):
        direction = make_direction(theta, varphi)
        rows = []
        for i in range(points):
            for j in range(1, points):
                state = make_state(math.pi * j / points, 2.0 * math.pi * i / points)
                if is_znzd(state, direction, tol=tol) is ZnzdClass.NONTRIVIAL:
                    rows.append([state.alpha, state.phi])
        for fmt in ("json", "csv"):
            code, out, _ = run(capsys, [
                "znzd", "--scan", "--theta", repr(theta), "--varphi", repr(varphi),
                "--tol", repr(tol), "--scan-points", str(points), "--format", fmt,
            ])
            assert code == 0
            assert out == written_rows(["alpha", "phi"], rows, fmt)

    @pytest.mark.parametrize("tol", ["0", "nan", "-1", "inf", "1", "2"])
    def test_scan_rejects_a_nonpositive_tol(self, capsys, tol):
        # from 1 on, every pair would class as trivially ZNZD
        code, out, err = run(capsys, ["znzd", "--scan", "--tol", tol])
        assert code == 2
        assert out == ""
        assert "tol must lie in (0, 1)" in err

    def test_scan_classifies_the_grid_in_one_call(self, capsys, monkeypatch):
        masks, classified = [], []

        def counted(*args, **kwargs):
            masks.append(znzd_masks(*args, **kwargs))
            return masks[-1]

        monkeypatch.setattr(cli, "znzd_masks", counted)
        monkeypatch.setattr(cli, "is_znzd", lambda *args, **kwargs: classified.append(args))
        code, out, _ = run(capsys, ["znzd", "--scan", "--theta", "1.5707963267948966",
                                    "--varphi", "0", "--scan-points", "360"])
        assert code == 0
        assert len(json.loads(out)) == 2 * 358  # phi = pi/2 and 3 pi/2, each alpha but pi/2
        assert len(masks) == 1 and classified == []
        assert masks[0][1].shape == (360, 359)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("value, python", [
    (np.bool_(True), True),
    (np.bool_(False), False),
    (np.int64(-7), -7),
    (np.float64(0.12345678912), 0.12345678912),
    (np.float64(math.nan), math.nan),
], ids=["bool_true", "bool_false", "int64", "float64", "float64_nan"])
def test_numpy_scalars_render_as_the_python_ones(fmt, value, python):
    # a verdict or metric computed in numpy prints exactly as the Python value does
    report = {"suites": [{"passed": value, "metrics": {"value": value}}]}
    expected = {"suites": [{"passed": python, "metrics": {"value": python}}]}
    assert _render_report(report, fmt) == _render_report(expected, fmt)


class TestVerify:
    def test_passes_and_reports_suites(self, capsys):
        code, out, _ = run(capsys, ["verify", *FAST_VERIFY])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        names = [suite["name"] for suite in report["suites"]]
        assert names == [
            "oracle_equivalence",
            "round_trip_correction",
            "unbiasedness",
            "cramer_rao",
            "znzd",
        ]
        assert all(suite["passed"] for suite in report["suites"])

    def test_injected_fault_fails(self, capsys, monkeypatch):
        # negative control: moving 1e-3 of each scenario's joint law from its largest
        # cell (at least 1/4) to its smallest must fail the oracle suite
        exact = verify.joint_distribution

        def shifted(setup):
            cells = exact(setup)
            laws = cells.reshape(4, -1)  # one column per scenario of a stack
            scenarios = range(laws.shape[1])
            largest, smallest = laws.argmax(axis=0), laws.argmin(axis=0)
            laws[largest, scenarios] -= 1e-3
            laws[smallest, scenarios] += 1e-3
            return cells

        monkeypatch.setattr(verify, "joint_distribution", shifted)
        self.assert_oracle_suite_fails(capsys)

    def test_swapped_oracle_eigenvectors_fail(self, capsys, monkeypatch):
        # negative control on the oracle side: an eigensolver that swaps its -1 and +1
        # columns, a likely slip in a hand-written one, must fail the oracle suite
        solve = oracle._eigenvectors
        monkeypatch.setattr(oracle, "_eigenvectors", lambda *angles: solve(*angles)[..., ::-1])
        self.assert_oracle_suite_fails(capsys)

    @staticmethod
    def assert_oracle_suite_fails(capsys):
        code, out, _ = run(capsys, ["verify", *FAST_VERIFY])
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        oracle_suite = report["suites"][0]
        assert oracle_suite["name"] == "oracle_equivalence"
        assert oracle_suite["passed"] is False

    def test_failing_statistical_suite_renders_as_json(self, capsys):
        # 10 repeats put ratio_A outside the band at this seed: the suite fails, and
        # its verdict and metrics must still be plain JSON booleans and numbers
        code, out, _ = run(capsys, ["verify", "--seed", "7", "--verify-trials", "20000",
                                    "--verify-repeats", "10"])
        assert code == 1
        suites = {suite["name"]: suite for suite in strict_json(out)["suites"]}
        assert suites["cramer_rao"]["passed"] is False

    def test_csv_report_holds_the_flattened_json_report(self, capsys):
        # same keys in the same order, the same 9-digit numbers, booleans as true/false
        argv = ["verify", "--seed", "42", "--verify-trials", "20000", "--verify-repeats", "5"]
        json_code, json_out, _ = run(capsys, argv)
        csv_code, csv_out, _ = run(capsys, [*argv, "--format", "csv"])
        assert json_code == csv_code

        def flatten(value, key):
            if isinstance(value, (dict, list)):
                items = value.items() if isinstance(value, dict) else enumerate(value)
                return [pair for k, v in items for pair in flatten(v, f"{key}{k}.")]
            return [(key[:-1], value)]

        expected = flatten(strict_json(json_out), "")
        header, *rows = csv.reader(io.StringIO(csv_out))
        assert header == ["key", "value"]
        assert len(expected) == 32
        assert [key for key, _ in rows] == [key for key, _ in expected]
        for (key, text), (_, value) in zip(rows, expected):
            if isinstance(value, bool):
                assert text == ("true" if value else "false"), key
            elif isinstance(value, (int, float)):
                assert float(text) == value, key
            else:
                assert text == value, key

    def test_one_repeat_is_a_usage_error(self, capsys):
        # one estimate per suite has no spread, so its z-scores and ratios are undefined
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--verify-trials", "1000", "--verify-repeats", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--verify-repeats" in err and "Warning" not in err

    def test_round_trip_evaluates_one_law_per_scenario(self, law_calls):
        # the laws of all random scenarios in one stacked call; the degenerate-coupling
        # refusals evaluate none
        result = verify.suite_round_trip(count=25, seed=3)
        assert result["passed"]
        (stack,) = law_calls
        assert len(stack.coupling.gamma) == 25

    def test_byte_identical_runs_and_workers(self, capsys):
        _, first, _ = run(capsys, ["verify", *FAST_VERIFY])
        _, second, _ = run(capsys, ["verify", *FAST_VERIFY])
        _, sharded, _ = run(capsys, ["verify", *FAST_VERIFY, "--workers", "3"])
        assert first == second == sharded

    def test_verdict_stable_across_seeds(self):
        # statistical robustness: the pass/fail verdict must not flip with the seed
        from seqmeas.verify import run_verification

        for seed in range(10):
            results = run_verification(seed=seed, trials=50_000, repeats=200)
            assert all(r["passed"] for r in results), f"verdict flipped at seed {seed}"
            assert [list(r) for r in results] == [["name", "passed", "detail", "metrics"]] * 5


REMOVED_OPTIONS = [
    ("estimate", "--repeats", "5"),
    *(("verify", name, "1") for name in (
        "--alpha", "--phi", "--theta", "--varphi", "--gamma", "--kappa", "--trials", "--repeats",
    )),
    ("verify", "--degrees", None),
    ("tradeoff", "--gamma", "0.9"),
    ("tradeoff", "--kappa", "0.5"),
    ("znzd", "--gamma", "0.9"),
    ("znzd", "--kappa", "0.5"),
]


@pytest.mark.parametrize("command,option,value", REMOVED_OPTIONS)
def test_unread_option_is_rejected(capsys, command, option, value):
    argv = [command, option] + ([value] if value is not None else [])
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("command,option,value", [
    ("probs", "--gamma", "2"),
    ("estimate", "--kappa", "1.5"),
    ("probs", "--alpha", "nan"),
    ("probs", "--phi", "inf"),
    ("tradeoff", "--theta", "-inf"),
    ("znzd", "--varphi", "nan"),
    ("znzd", "--tol", "-1"),
])
def test_out_of_domain_value_is_a_usage_error_naming_the_option(capsys, command, option, value):
    # parser only: the library's own check of the value runs as the command line is parsed
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args([command, option, value])
    assert excinfo.value.code == 2
    assert f"argument {option}: " in capsys.readouterr().err


# Each integer option: its subcommand, its least value and its cap (None: uncapped).
INTEGER_OPTIONS = [
    ("estimate", "--trials", 1, MAX_TRIALS),
    ("estimate", "--workers", 1, None),
    ("estimate", "--seed", 0, 2**64 - 1),
    ("tradeoff", "--grid", 2, MAX_GRID),
    ("znzd", "--scan-points", 4, MAX_SCAN_POINTS),
    ("verify", "--verify-trials", 1, MAX_VERIFY_TRIALS),
    ("verify", "--verify-repeats", 2, MAX_VERIFY_REPEATS),
]
NOT_INTEGERS = ["1.5", "1e6", "x", "+5", "1_000"]  # an integer is written in decimal digits


def assert_count_refused(capsys, argv, option, value):
    """``main(argv)`` exits 2 with the usage error of the count rule, naming option and value."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: " in err and " must be an integer " in err
    assert err.rstrip().endswith((f"got {value!r}", f"got {value}")) and "Traceback" not in err
    return err


@pytest.mark.parametrize("command,option,value", [
    pytest.param(command, option, value, id=f"{option}={value}")
    for command, option, low, cap in INTEGER_OPTIONS
    for value in [*NOT_INTEGERS, str(low - 1), *([] if cap is None else [str(cap + 1)])]
])
def test_an_integer_option_outside_its_count_rule_is_a_usage_error(capsys, command, option,
                                                                    value):
    # qubit._require_count refuses the value as the command line is parsed, before any run; text
    # that writes no integer reaches it as text, so that the message names it
    assert_count_refused(capsys, [command, option, value], option, value)


@pytest.mark.parametrize("value", [*NOT_INTEGERS, "-1", str(2**64)])
@pytest.mark.parametrize("command", ["estimate", "verify"])
def test_a_seed_variable_outside_the_count_rule_is_a_usage_error(capsys, monkeypatch, command,
                                                                 value):
    monkeypatch.setenv("SEQMEAS_SEED", value)
    assert "$SEQMEAS_SEED" in assert_count_refused(capsys, [command], "--seed", value)


class TestSeedAndOutput:
    def test_seed_env_var_used_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQMEAS_SEED", "123")
        _, out, _ = run(capsys, ["estimate", *E1_ARGS, "--trials", "1000"])
        assert json.loads(out)["seed"] == 123

    def test_seed_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQMEAS_SEED", "123")
        _, out, _ = run(capsys, ["estimate", *E1_ARGS, "--trials", "1000", "--seed", "9"])
        assert json.loads(out)["seed"] == 9

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SEQMEAS_SEED", "not-int")
        with pytest.raises(SystemExit) as excinfo:
            main(["estimate", *E1_ARGS, "--trials", "1000"])
        assert excinfo.value.code == 2
        assert "SEQMEAS_SEED" in capsys.readouterr().err

    def test_negative_seed_is_a_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--seed", "-5"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err
        monkeypatch.setenv("SEQMEAS_SEED", "-5")
        with pytest.raises(SystemExit) as excinfo:
            main(["verify"])
        assert excinfo.value.code == 2
        assert "SEQMEAS_SEED" in capsys.readouterr().err

    def test_seed_above_64_bits_is_a_usage_error(self, capsys, monkeypatch):
        # the sampler reads the seed mod 2^64, so 2^64 would silently rerun seed 0
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["estimate", "--seed", str(2**64)])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err
        monkeypatch.setenv("SEQMEAS_SEED", str(2**64))
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["estimate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "SEQMEAS_SEED" in err

    def test_largest_64_bit_seed_is_accepted(self, monkeypatch):
        args = cli.build_parser().parse_args(["verify", "--seed", str(2**64 - 1)])
        assert args.seed == 2**64 - 1
        monkeypatch.setenv("SEQMEAS_SEED", str(2**64 - 1))
        assert cli.build_parser().parse_args(["estimate"]).seed == 2**64 - 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["probs", *E1_ARGS, "--out", str(target)])
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["meter"]["p_plus"] == pytest.approx(0.35, abs=1e-8)

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, ["probs", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err

    def test_unwritable_out_path_fails_before_sampling(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "sample", lambda *args, **kwargs: calls.append(args))
        target = tmp_path / "missing" / "x.json"
        code, _, _ = run(capsys, ["estimate", "--out", str(target)])
        assert code == 2
        assert calls == []

    def test_failed_run_leaves_out_file_empty(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        code, out, err = run(capsys, ["estimate", "--gamma", "1.0", "--trials", "100",
                                      "--out", str(target)])
        assert code == 2
        assert out == "" and "B channel" in err
        assert target.read_text() == ""


class TestOneParserPerProcess:
    """main() builds its parser once per process and value of $SEQMEAS_SEED."""

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        assert run(capsys, ["probs"])[0] == 0
        first = len(built)
        assert run(capsys, ["probs"])[0] == 0
        assert first > 0 and len(built) == first
        assert cli.build_parser() is cli.build_parser()

    def test_a_changed_seed_variable_takes_effect_on_the_next_call(self, capsys, monkeypatch):
        seeds = []
        for value in ("123", "9", "123"):
            monkeypatch.setenv("SEQMEAS_SEED", value)
            _, out, _ = run(capsys, ["estimate", *E1_ARGS, "--trials", "1000"])
            seeds.append(json.loads(out)["seed"])
        assert seeds == [123, 9, 123]

    @pytest.mark.parametrize("bad", [["--seed", "-1"], ["--seed", "x"], ["--seed", str(2**64)]])
    def test_a_usage_error_leaves_the_next_call_as_a_fresh_parser_runs_it(self, capsys, bad):
        argv = ["estimate", *E1_ARGS, "--trials", "1000", "--format", "csv"]
        cli._parser.cache_clear()
        fresh = run(capsys, argv)
        code, out, err = run(capsys, ["estimate", *E1_ARGS, *bad])
        assert (code, out) == (2, "") and "--seed" in err
        assert run(capsys, argv) == fresh

    @pytest.mark.parametrize("command", ["", "probs", "estimate", "tradeoff", "verify", "znzd"])
    def test_help_is_the_text_of_a_fresh_parser(self, capsys, command):
        argv = [command, "--help"] if command else ["--help"]
        cli._parser.cache_clear()
        fresh = run(capsys, argv)
        assert fresh[0] == 0 and fresh[1].startswith("usage: seqmeas")
        run(capsys, ["probs"])  # the cached parser, used once
        assert run(capsys, argv) == fresh
