"""Property-based tests of the invariants the hand-picked cases only sample.

The examples are derandomized, so every run checks the same cases, and no
example database is written.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from seqmeas import oracle  # noqa: E402
from seqmeas.correction import recover_a, recover_b  # noqa: E402
from seqmeas.coupling import (  # noqa: E402
    GAMMA_MIN,
    JOINT_CELLS,
    Coupling,
    JointSetup,
    b_probabilities,
    joint_distribution,
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
    p_m = meter_probabilities(setup)
    rec_a = recover_a(p_m, setup.coupling)
    rec_b = recover_b(b_probabilities(setup), p_m, setup.b_dir, setup.coupling)
    s2 = math.sin(setup.state.alpha) ** 2
    born_plus = born_probability(setup.state, setup.b_dir, +1)
    assert rec_a.p_plus == pytest.approx(s2, abs=1e-10)
    assert rec_a.p_minus == pytest.approx(1.0 - s2, abs=1e-10)
    assert rec_b.p_plus == pytest.approx(born_plus, abs=1e-10)
    assert rec_b.p_minus == pytest.approx(1.0 - born_plus, abs=1e-10)


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
