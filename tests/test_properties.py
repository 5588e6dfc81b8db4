"""Property-based tests of the invariants the hand-picked cases only sample.

The examples are derandomized, so every run checks the same cases, and no
example database is written.
"""

import contextlib
import csv
import io
import json
import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqmeas import oracle  # noqa: E402
from seqmeas.cli import (MAX_GRID, MAX_SCAN_POINTS, MAX_TRIALS, MAX_VERIFY_REPEATS,  # noqa: E402
                         MAX_VERIFY_TRIALS, _csv_cell, _flatten, _fmt9, _jsonify, _round9,
                         build_parser, main)
from seqmeas.correction import ZnzdClass, estimator_weights, is_znzd, znzd_masks  # noqa: E402
from seqmeas.coupling import (  # noqa: E402
    GAMMA_MIN,
    JOINT_CELLS,
    Coupling,
    JointSetup,
    b_law,
    b_probabilities,
    joint_distribution,
    meter_law,
    meter_probabilities,
    post_measurement_density,
)
from seqmeas.errors import DegenerateDistribution  # noqa: E402
from seqmeas.fisher import precisions  # noqa: E402
from seqmeas.montecarlo import _CHUNK, sample  # noqa: E402
from seqmeas.qubit import (  # noqa: E402
    ObservableDirection,
    PureState,
    a_direction,
    born_probability,
    expectation,
    make_direction,
    make_state,
)
from seqmeas.verify import (  # noqa: E402
    RANDOM_GAMMA_RANGE,
    random_scenarios,
    stacked_setup,
)
from test_cli import written_rows  # noqa: E402
from test_montecarlo import defined_counts, kernel_counts, reference_uniform  # noqa: E402
from test_qubit import (EDGE_ANGLES, assert_reduces_as_the_reference,  # noqa: E402
                        reference_direction, reference_state)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

polar = st.floats(0.0, math.pi)
azimuth = st.floats(0.0, 2.0 * math.pi)


def setups(gammas):
    return st.builds(
        lambda alpha, phi, theta, varphi, gamma: JointSetup(
            make_state(alpha, phi), make_direction(theta, varphi), Coupling(gamma)
        ),
        polar, azimuth, polar, azimuth, gammas,
    )


@PROPERTY
@given(
    setup=setups(st.floats(*RANDOM_GAMMA_RANGE)),
    trials=st.integers(1, 200_000),
    workers=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_counts_do_not_depend_on_the_sharding(setup, trials, workers, seed):
    # threads are capped at the cores, so this starts at most os.cpu_count()
    serial = sample(setup, trials, seed)
    assert sample(setup, trials, seed, workers=workers).counts == serial.counts
    assert sum(serial.counts) == trials


@PROPERTY
@given(setup=setups(st.floats(*RANDOM_GAMMA_RANGE)))
def test_correction_inverts_the_exact_laws(setup):
    # the unbiasedness condition: each weight vector maps the exact law to its expectation
    w_a, w_b = estimator_weights(setup)
    law = joint_distribution(setup)
    assert w_a @ law == pytest.approx(-math.cos(2.0 * setup.state.alpha), abs=1e-10)
    born_plus = born_probability(setup.state, setup.b_dir, +1)
    assert w_b @ law == pytest.approx(2.0 * born_plus - 1.0, abs=1e-10)


@PROPERTY
@given(setup=setups(st.floats(GAMMA_MIN, 1.0)))
def test_closed_forms_match_the_oracle(setup):
    ref = oracle.simulate(setup)
    law = joint_distribution(setup)
    for m in (1, -1):
        for b in (1, -1):
            p = law[JOINT_CELLS.index((m, b))]
            assert p == pytest.approx(ref.joint[(m, b)], abs=1e-10)
    p_m, p_b = meter_probabilities(setup), b_probabilities(setup)
    assert p_m == pytest.approx(ref.meter_probs, abs=1e-10)
    assert p_b == pytest.approx(ref.b_probs, abs=1e-10)
    np.testing.assert_allclose(post_measurement_density(setup), ref.density, rtol=0, atol=1e-10)
    # the uncoupled Bloch-form laws against the eigenprojectors of sigma . n
    vector = setup.state.vector()
    for direction in (a_direction(), setup.b_dir):
        p_plus, p_minus = (oracle.born_probability(vector, direction, sign) for sign in (1, -1))
        assert expectation(setup.state, direction) == pytest.approx(p_plus - p_minus, abs=1e-10)
        assert born_probability(setup.state, direction, 1) == pytest.approx(p_plus, abs=1e-10)
        assert born_probability(setup.state, direction, -1) == pytest.approx(p_minus, abs=1e-10)


@PROPERTY
@given(
    setup=setups(st.just(GAMMA_MIN)),
    gammas=st.lists(st.floats(GAMMA_MIN, 1.0), min_size=1, max_size=20),
)
def test_the_array_law_equals_the_one_element_laws(setup, gammas):
    # every cell of the law at a stacked coupling is the cell of the one-scenario law, bit for bit
    cells = joint_distribution(JointSetup(setup.state, setup.b_dir, Coupling(np.array(gammas))))
    assert cells.shape == (4, len(gammas))
    for k, gamma in enumerate(gammas):
        law = joint_distribution(JointSetup(setup.state, setup.b_dir, Coupling(gamma)))
        assert cells[:, k].tobytes() == law.tobytes()


@PROPERTY
@given(
    seed=st.integers(0, 2**64 - 1),
    chunk_end=st.integers(1, 2**30),
    before=st.integers(1, 600),
    after=st.integers(0, 600),
    picks=st.lists(st.tuples(st.integers(0, 1200), st.sampled_from([-1.0, 0.0, 1.0])),
                   min_size=3, max_size=3),
)
def test_word_thresholds_count_as_the_variates_do(seed, chunk_end, before, after, picks):
    # thresholds at, just below and just above variates of the range itself,
    # which may run across a chunk boundary
    lo, hi = chunk_end * _CHUNK - before, chunk_end * _CHUNK + after
    u = [reference_uniform(seed, i) for i in range(lo, hi)]
    cum = np.sort([float(np.nextafter(u[index % len(u)], towards * np.inf)) if towards
                   else u[index % len(u)] for index, towards in picks] + [1.0])
    counts = kernel_counts(cum, seed, lo, hi)
    np.testing.assert_array_equal(counts, defined_counts(cum, seed, lo, hi))


# the closed coupling range, with both endpoints drawn as well
closed_gammas = st.floats(GAMMA_MIN, 1.0) | st.sampled_from([GAMMA_MIN, 1.0])


def assert_is_a_law(law):
    """Cells along the first axis lie in [0, 1] and sum to 1, and so do both marginals."""
    assert np.all((law >= 0.0) & (law <= 1.0))
    np.testing.assert_allclose(law.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    for p_plus, p_minus in (meter_law(law), b_law(law)):
        np.testing.assert_allclose(p_plus + p_minus, 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(setup=setups(closed_gammas))
def test_the_joint_law_and_its_marginals_are_laws(setup):
    assert_is_a_law(joint_distribution(setup))


@PROPERTY
@given(
    setup=setups(st.just(GAMMA_MIN)),
    gammas=st.lists(closed_gammas, min_size=1, max_size=20),
)
def test_the_array_law_and_its_marginals_are_laws(setup, gammas):
    stack = JointSetup(setup.state, setup.b_dir, Coupling(np.array(gammas)))
    assert_is_a_law(joint_distribution(stack))


# an eigenstate of sigma_z, the +1 eigenstate of sigma_x measured along x, or neither
eigen_rows = st.sampled_from([
    None, (math.pi / 2, 1.0, 2.0, 3.0, 0.8), (math.pi / 4, 0.0, math.pi / 2, 0.0, 0.9),
])


@PROPERTY
@given(
    count=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
    eigen=eigen_rows,
    k=st.integers(0, 50),
)
def test_stacked_precisions_equal_the_one_scenario_ones(count, seed, eigen, k):
    rows = random_scenarios(count, seed, (GAMMA_MIN, 1.0)).tolist()
    if eigen is not None:
        rows.insert(k, eigen)
    reports, refused = [], []
    for row in rows:
        try:
            reports.append(tuple(precisions(stacked_setup(np.array(row))).values()))
        except DegenerateDistribution as exc:
            refused.append(str(exc))
    if refused:
        # one eigenstate refuses the whole stack, and an eigenstate of A is named first
        name = "A" if any("eigenstate of A" in message for message in refused) else "B"
        with pytest.raises(DegenerateDistribution, match=f"eigenstate of {name}"):
            precisions(stacked_setup(np.array(rows)))
        return
    # array sin/cos may differ from the scalar path by an ulp: 9 significant digits
    stacked = tuple(precisions(stacked_setup(np.array(rows))).values())
    np.testing.assert_allclose(stacked, np.transpose(reports), rtol=1e-9, atol=0, equal_nan=True)


# pairs on and near the class boundaries: eigenstates of sigma_z, commuting observables,
# and states a quarter turn from the observable's azimuth
znzd_pairs = st.builds(
    lambda alpha, theta, varphi, turn, phi: (make_state(alpha, varphi + turn if turn else phi),
                                             make_direction(theta, varphi)),
    st.sampled_from([0.0, math.pi / 2]) | polar,
    st.sampled_from([0.0, math.pi]) | polar,
    azimuth,
    st.sampled_from([math.pi / 2, -math.pi / 2, None]),
    azimuth,
)


@PROPERTY
@given(pairs=st.lists(znzd_pairs, max_size=20), tol=st.floats(1e-12, 1.0, exclude_max=True))
def test_the_stacked_masks_classify_as_is_znzd_does_pair_by_pair(pairs, tol):
    alpha, phi, theta, varphi = np.reshape(
        [(s.alpha, s.phi, d.theta, d.varphi) for s, d in pairs], (-1, 4)).T
    trivial, nontrivial = znzd_masks(PureState(alpha, phi), ObservableDirection(theta, varphi), tol)
    assert trivial.shape == nontrivial.shape == (len(pairs),)
    classes = [ZnzdClass.TRIVIAL if t else ZnzdClass.NONTRIVIAL if n else ZnzdClass.NOT_ZNZD
               for t, n in zip(trivial.tolist(), nontrivial.tolist())]
    assert classes == [is_znzd(state, direction, tol) for state, direction in pairs]
    assert not (trivial & nontrivial).any()


# any finite angle, with the sign of zero and the neighbours of pi and 2 pi drawn often
angles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_ANGLES)


@PROPERTY
@given(rows=st.lists(st.tuples(angles, angles, angles, angles), max_size=20))
def test_the_stacked_reduction_equals_the_scalar_rule(rows):
    alpha, phi, theta, varphi = np.reshape(rows, (-1, 4)).T.tolist()
    assert_reduces_as_the_reference(make_state, reference_state, alpha, phi)
    assert_reduces_as_the_reference(make_direction, reference_direction, theta, varphi)


@PROPERTY
@given(setup=setups(closed_gammas))
def test_the_post_measurement_state_is_a_density_matrix(setup):
    rho = post_measurement_density(setup)
    assert rho.shape == (2, 2)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


cells = st.one_of(
    st.floats(),  # nan, infinities, subnormals and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324, 1e16, 1.0 + 2**-52]),
    st.floats(1e9, 1e17) | st.floats(-1e17, -1e9),
    st.integers(-10**6, 10**6).map(float),
    # every decade from the subnormals (1e-330 underflows to 0) to 1e30, both signs
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
              st.floats(-10.0, 10.0), st.integers(-330, 30)),
    # any bit pattern
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
)
column_names = st.sampled_from(["gamma", "alpha", "%s", "100%", 'a"b', "t\u00e9", "x,y"]) | st.text()
tables = st.lists(column_names, min_size=1, max_size=5, unique=True).flatmap(
    lambda columns: st.tuples(
        st.just(columns),
        st.lists(st.lists(cells, min_size=len(columns), max_size=len(columns)), max_size=30),
    )
)


@PROPERTY
@given(table=tables)
def test_rows_render_as_the_json_encoder_and_the_csv_cells_do(table):
    columns, rows = table
    payload = [dict(zip(columns, row)) for row in rows]
    assert written_rows(columns, rows, "json") == json.dumps(_jsonify(payload), indent=2) + "\n"
    lines = [",".join(columns), *(",".join(_csv_cell(v) for v in row) for row in rows)]
    assert written_rows(columns, rows, "csv") == "\n".join(lines) + "\n"
    # the same table as a float64 (n, k) array renders the same text
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    assert written_rows(columns, table, "json") == json.dumps(_jsonify(payload), indent=2) + "\n"
    assert written_rows(columns, table, "csv") == "\n".join(lines) + "\n"
    # one format call prints what formatting, parsing back and formatting again printed
    for v in (v for row in rows for v in row):
        assert _fmt9(v) == f"{float(f'{v:.9g}') + 0.0:.9g}"


# The CLI contract: whatever numbers a command line holds, a run exits 0 with strict JSON or
# rectangular CSV on stdout, or exits 2 with a message and no traceback on stderr.
EDGE_REALS = (0.0, -0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf)
# each coupling edge, one ulp past it (within the 1e-12 slack) and 2e-12 past it (refused)
GAMMA_EDGES = (GAMMA_MIN, 1.0, math.nextafter(GAMMA_MIN, 0.0), math.nextafter(1.0, 2.0),
               GAMMA_MIN - 2e-12, 1.0 + 2e-12)
KAPPA_EDGES = (0.0, 1.0, -5e-324, math.nextafter(1.0, 2.0), -2e-12, 1.0 + 2e-12)
reals = st.floats() | st.sampled_from(EDGE_REALS)


def captured(call):
    """What ``call()`` returns, or the code it exits with, and the text on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@st.composite
def command_lines(draw, numbers=reals):
    """A command line whose reals are drawn from ``numbers``, or near the coupling range."""
    def given_as(option, value):  # "--x=-1e+308" passes the value; "--x -1e+308" a second flag
        return [f"{option}={value}"] if draw(st.booleans()) else [option, str(value)]

    command = draw(st.sampled_from(["probs", "estimate", "tradeoff", "znzd"]))
    argv = [command, "--format", draw(st.sampled_from(["json", "csv"]))]
    for option in ("--alpha", "--phi", "--theta", "--varphi", "--degrees"):
        if draw(st.booleans()):
            argv += [option] if option == "--degrees" else given_as(option, draw(numbers))
    if command in ("probs", "estimate"):
        coupling = draw(st.sampled_from([None, ("--gamma", GAMMA_EDGES, GAMMA_MIN, 1.0),
                                         ("--kappa", KAPPA_EDGES, 0.0, 1.0)]))
        if coupling:
            option, edges, low, high = coupling
            argv += given_as(option, draw(st.sampled_from(edges) | st.floats(low, high) | numbers))
    if command == "estimate":
        # up to three whole chunks more, so that --workers > 1 starts shard threads
        trials = draw(st.sampled_from([0, 1, 2, 3])) * _CHUNK + draw(st.integers(1, 10**4))
        argv += ["--trials", str(trials), "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    if command == "tradeoff":
        argv += ["--grid", str(draw(st.integers(2, 1000)))]
    if command == "znzd" and draw(st.booleans()):
        argv += ["--scan", "--scan-points", str(draw(st.integers(4, 60)))]
    if command == "znzd" and draw(st.booleans()):
        tols = st.sampled_from([1e-9, 0.7, 0.0, -1e-9, 1.0, 1.5, math.inf])  # both ends of (0, 1)
        argv += given_as("--tol", draw(tols | numbers))
    if command == "estimate":  # last, so that argv[:-2] is the same run without it
        argv += ["--workers", str(draw(st.sampled_from([1, 2, 3, 4])))]
    return argv


def refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def given_value(argv, option):
    """The text ``option`` was given in ``argv``, as ``option=text`` or ``option text``."""
    for k, arg in enumerate(argv):
        if arg == option:
            return argv[k + 1]
        if arg.startswith(option + "="):
            return arg[len(option) + 1:]
    return None


def printed(out, fmt):
    """A report's values by flattened key: JSON's own, or each CSV value as JSON reads it;
    a CSV value that is not JSON (nan, inf) is kept as text."""
    if fmt == "json":
        return dict(_flatten(json.loads(out, parse_constant=refuse)))
    values = {}
    for key, text in list(csv.reader(io.StringIO(out)))[1:]:
        try:
            values[key] = json.loads(text)
        except ValueError:
            values[key] = text
    return values


# Each coupling option, the range its value is clipped into, and the key it prints as.
COUPLING_OPTIONS = {"--gamma": (GAMMA_MIN, 1.0, "scenario.gamma"),
                    "--kappa": (0.0, 1.0, "scenario.kappa")}


def assert_prints_the_values_given(argv, out):
    """The coupling given prints as its nine digits, and the counts sum to the trials and do
    not depend on the shard threads."""
    fmt = argv[2]
    values = printed(out, fmt)
    for option, (low, high, key) in COUPLING_OPTIONS.items():
        text = given_value(argv, option)
        if text is not None:
            assert values[key] == _round9(min(max(float(text), low), high))
    if argv[0] == "estimate":
        keys = [f"counts.{cell}" for cell in ("pp", "pm", "mp", "mm")]
        counts = [values[key] for key in keys]
        assert all(type(c) is int and c >= 0 for c in counts)
        assert sum(counts) == int(given_value(argv, "--trials"))
        code, serial, _ = captured(lambda: main(argv[:-2]))
        assert code == 0
        assert [printed(serial, fmt)[key] for key in keys] == counts


# any real, or moderate finite ones, which most runs accept, so that their values are checked
@settings(PROPERTY, max_examples=200)
@given(argv=command_lines() | command_lines(st.floats(-1e3, 1e3)))
def test_every_command_line_gives_a_valid_output_or_exit_code_2(argv):
    code, out, err = captured(lambda: main(argv))
    assert code in (0, 2)
    tol = given_value(argv, "--tol")
    if tol is not None and not 0.0 < float(tol) < 1.0:  # a NaN tol fails both comparisons
        assert code == 2
    if code == 0:
        if "csv" in argv:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows and len({len(row) for row in rows}) == 1
        else:
            json.loads(out, parse_constant=refuse)
        if argv[0] in ("probs", "estimate"):
            assert_prints_the_values_given(argv, out)
    else:
        assert err.strip() and "Traceback" not in err


# Each bounded integer option, and the range its parser takes.
CAPPED_OPTIONS = [
    ("estimate", "--trials", 1, MAX_TRIALS),
    ("estimate", "--seed", 0, 2**64 - 1),
    ("tradeoff", "--grid", 2, MAX_GRID),
    ("znzd", "--scan-points", 4, MAX_SCAN_POINTS),
    ("verify", "--verify-trials", 1, MAX_VERIFY_TRIALS),
    ("verify", "--verify-repeats", 2, MAX_VERIFY_REPEATS),
]


@PROPERTY
@given(capped=st.sampled_from(CAPPED_OPTIONS), at_cap=st.booleans(), step=st.integers(-1, 1))
def test_each_bound_is_taken_and_one_past_it_is_refused(capped, at_cap, step):
    # the parser alone: a run at MAX_TRIALS would draw 10^10 trials
    command, option, low, high = capped
    value = (high if at_cap else low) + step
    args, _, err = captured(lambda: build_parser().parse_args([command, option, str(value)]))
    if low <= value <= high:
        assert getattr(args, option[2:].replace("-", "_")) == value
    else:
        assert args == 2 and f"argument {option}: " in err
