import json
import math
import random
import sys

import pytest

from seqmeas import verify
from seqmeas import cli
from seqmeas.cli import (MAX_GRID, MAX_SCAN_POINTS, MAX_TRIALS, MAX_VERIFY_REPEATS,
                         MAX_VERIFY_TRIALS, _render_rows, main)
from seqmeas.correction import ZnzdClass, is_znzd
from seqmeas.coupling import JointDistribution
from seqmeas.qubit import make_direction, make_state

E1_ARGS = [
    "--alpha", "0.5235987755982988",
    "--phi", "0",
    "--theta", "1.5707963267948966",
    "--varphi", "0",
    "--gamma", "0.8944271909999159",
]
FAST_VERIFY = ["--verify-trials", "50000", "--verify-repeats", "40", "--seed", "42"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, refusing the non-standard NaN and Infinity constants."""

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


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

    def test_gamma_kappa_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["probs", "--gamma", "0.9", "--kappa", "0.5"])
        assert excinfo.value.code == 2

    def test_malformed_angle_names_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["probs", "--alpha", "not-a-number"])
        assert excinfo.value.code == 2
        assert "--alpha" in capsys.readouterr().err

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

    def test_grid_too_small(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tradeoff", *self.FIG_ARGS, "--grid", "1"])
        assert excinfo.value.code == 2

    def test_grid_above_cap(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tradeoff", *self.FIG_ARGS, "--grid", str(MAX_GRID + 1)])
        assert excinfo.value.code == 2
        assert "--grid" in capsys.readouterr().err

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
        (row,) = strict_json(_render_rows(columns, rows, "json"))
        assert row == {"gamma": 0.8, "kappa": 0.6, "epsilon": None, "eta": None}
        assert _render_rows(columns, rows, "csv") == "gamma,kappa,epsilon,eta\n0.8,0.6,nan,nan\n"


_SCAN_RNG = random.Random(8)
SCAN_CASES = [
    (0.0, 0.0, 1e-9, 36),
    (math.pi, 1.0, 1e-9, 36),
    (1.0471975511965976, 0.5, 0.5, 36),
    (1.0471975511965976, 0.5, 1.5, 36),
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

    def test_scan_points_above_cap(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["znzd", "--scan", "--scan-points", str(MAX_SCAN_POINTS + 1)])
        assert excinfo.value.code == 2
        assert "--scan-points" in capsys.readouterr().err

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
            assert out == _render_rows(["alpha", "phi"], rows, fmt)

    @pytest.mark.parametrize("tol", ["0", "nan", "-1"])
    def test_scan_rejects_a_nonpositive_tol(self, capsys, tol):
        code, out, err = run(capsys, ["znzd", "--scan", "--tol", tol])
        assert code == 2
        assert out == ""
        assert "tol must be positive" in err

    def test_scan_classifies_each_axis_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return is_znzd(*args, **kwargs)

        monkeypatch.setattr(cli, "is_znzd", counted)
        code, out, _ = run(capsys, ["znzd", "--scan", "--theta", "1.5707963267948966",
                                    "--varphi", "0", "--scan-points", "360"])
        assert code == 0
        assert json.loads(out)
        assert len(calls) <= 2 * 360 - 1


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
        # negative control: moving 1e-3 of the joint law from its largest cell (at
        # least 1/4) to its smallest must fail the oracle suite
        exact = verify.joint_distribution

        def shifted(setup):
            cells = exact(setup).as_array()
            cells[[cells.argmax(), cells.argmin()]] += [-1e-3, 1e-3]
            return JointDistribution(*cells)

        monkeypatch.setattr(verify, "joint_distribution", shifted)
        code, out, _ = run(capsys, ["verify", *FAST_VERIFY])
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        oracle_suite = report["suites"][0]
        assert oracle_suite["name"] == "oracle_equivalence"
        assert oracle_suite["passed"] is False

    def test_one_repeat_is_a_usage_error(self, capsys):
        # one estimate per suite has no spread, so its z-scores and ratios are undefined
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--verify-trials", "1000", "--verify-repeats", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--verify-repeats" in err and "Warning" not in err

    def test_round_trip_evaluates_one_law_per_scenario(self, law_calls):
        # one per random scenario; the degenerate-coupling refusals evaluate none
        result = verify.suite_round_trip(count=25, seed=3)
        assert result.passed
        assert len(law_calls) == 25

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
            assert all(r.passed for r in results), f"verdict flipped at seed {seed}"


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


@pytest.mark.parametrize("command,option,cap", [
    ("estimate", "--trials", MAX_TRIALS),
    ("verify", "--verify-trials", MAX_VERIFY_TRIALS),
    ("verify", "--verify-repeats", MAX_VERIFY_REPEATS),
])
def test_trials_above_cap(capsys, command, option, cap):
    # parser only: the run above the cap is refused before any sampling
    with pytest.raises(SystemExit) as excinfo:
        main([command, option, str(cap + 1)])
    assert excinfo.value.code == 2
    assert option in capsys.readouterr().err


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
