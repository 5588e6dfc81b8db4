"""Property-based tests of the invariants the hand-picked cases only sample.

The examples are derandomized, so every run checks the same cases, and no
example database is written.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqmeas import oracle  # noqa: E402
from seqmeas.cli import _csv_cell, _fmt9, _jsonify, _render_rows  # noqa: E402
from seqmeas.correction import estimator_weights  # noqa: E402
from seqmeas.coupling import (  # noqa: E402
    GAMMA_MIN,
    JOINT_CELLS,
    Coupling,
    JointSetup,
    b_probabilities,
    joint_distribution,
    joint_law,
    meter_probabilities,
    post_measurement_density,
)
from seqmeas.montecarlo import sample  # noqa: E402
from seqmeas.qubit import born_probability, make_direction, make_state  # noqa: E402
from seqmeas.verify import RANDOM_GAMMA_RANGE  # noqa: E402

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
    law = joint_distribution(setup).as_array()
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
            p = law.as_array()[JOINT_CELLS.index((m, b))]
            assert p == pytest.approx(ref.joint[(m, b)], abs=1e-10)
    p_m, p_b = meter_probabilities(setup), b_probabilities(setup)
    assert (p_m.p_plus, p_m.p_minus) == pytest.approx(ref.meter_probs, abs=1e-10)
    assert (p_b.p_plus, p_b.p_minus) == pytest.approx(ref.b_probs, abs=1e-10)
    np.testing.assert_allclose(post_measurement_density(setup).entries, ref.density,
                               rtol=0, atol=1e-10)


@PROPERTY
@given(
    setup=setups(st.just(GAMMA_MIN)),
    gammas=st.lists(st.floats(GAMMA_MIN, 1.0), min_size=1, max_size=20),
)
def test_the_array_law_equals_the_validated_one_element_laws(setup, gammas):
    # every cell of the sweep kernel is the cell JointDistribution validates, bit for bit
    cells = joint_law(setup.state, setup.b_dir, np.array(gammas))
    assert cells.shape == (4, len(gammas))
    for k, gamma in enumerate(gammas):
        law = joint_distribution(JointSetup(setup.state, setup.b_dir, Coupling(gamma)))
        assert cells[:, k].tobytes() == law.as_array().tobytes()


cells = st.one_of(
    st.floats(),  # nan, infinities, subnormals and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, 5e-324, 1e16, 1.0 + 2**-52]),
    st.floats(1e9, 1e17) | st.floats(-1e17, -1e9),
    st.integers(-10**6, 10**6).map(float),
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
    assert _render_rows(columns, rows, "json") == json.dumps(_jsonify(payload), indent=2) + "\n"
    lines = [",".join(columns), *(",".join(_csv_cell(v) for v in row) for row in rows)]
    assert _render_rows(columns, rows, "csv") == "\n".join(lines) + "\n"
    # one format call prints what formatting, parsing back and formatting again printed
    for v in (v for row in rows for v in row):
        assert _fmt9(v) == f"{float(f'{v:.9g}') + 0.0:.9g}"
