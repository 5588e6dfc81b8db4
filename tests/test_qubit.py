import math
from dataclasses import astuple

import numpy as np
import pytest

from seqmeas import (
    InvalidParameter,
    ObservableDirection,
    PureState,
    a_direction,
    born_probability,
    expectation,
    make_direction,
    make_state,
)

SQRT3_4 = math.sqrt(3.0) / 4.0  # 0.4330127...
TWO_PI = 2.0 * math.pi

# the sign of zero, multiples of 2 pi, a tiny negative that rounds up to 2 pi,
# the neighbours of 2 pi and of pi, and angles far outside [0, 2 pi)
EDGE_ANGLES = [0.0, -0.0, TWO_PI, -TWO_PI, 3 * TWO_PI, -3 * TWO_PI, 1e6 * TWO_PI, -2.0**-60,
               math.nextafter(TWO_PI, 0.0), math.nextafter(math.pi, 0.0), math.pi,
               math.nextafter(math.pi, 4.0), 20.0, -20.0, 1e308, -1e308]


def reference_wrap(angle):
    """The phase rule one scalar at a time with ``math.fmod``: the array reduction's reference."""
    wrapped = math.fmod(angle, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    if wrapped >= TWO_PI:
        wrapped = 0.0
    return wrapped


def reference_state(alpha, phi):
    """``(alpha, phi)`` of make_state, one scenario at a time."""
    a = reference_wrap(alpha)
    if a > math.pi:
        a -= math.pi
    return a, reference_wrap(phi)


def reference_direction(theta, varphi):
    """``(theta, varphi)`` of make_direction, one scenario at a time."""
    t = reference_wrap(theta)
    if t > math.pi:
        t = TWO_PI - t
        varphi = varphi + math.pi
    return t, reference_wrap(varphi)


def assert_reduces_as_the_reference(build, reference, first, second):
    """``build`` over arrays equals its scalar calls bit for bit (the sign of zero too),
    and the scalar calls give floats equal to ``reference``."""
    stack = build(np.array(first), np.array(second))
    singles = [astuple(build(x, y)) for x, y in zip(first, second)]
    assert all(type(value) is float for pair in singles for value in pair)
    expected = np.array([reference(x, y) for x, y in zip(first, second)]).reshape(-1, 2)
    assert np.array(singles).reshape(-1, 2).tobytes() == expected.tobytes()
    assert np.column_stack(astuple(stack)).tobytes() == expected.tobytes()


def random_angles(count, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.uniform(0, math.pi),
            rng.uniform(0, 2 * math.pi),
            rng.uniform(0, math.pi),
            rng.uniform(0, 2 * math.pi),
        )
        for _ in range(count)
    ]


class TestMakeState:
    def test_zero_state(self):
        amps = make_state(math.pi / 2, 1.234).amplitudes
        assert amps[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(amps[1]) == pytest.approx(0.0, abs=1e-12)

    def test_one_state(self):
        amps = make_state(0.0, 0.0).amplitudes
        assert abs(amps[0]) == pytest.approx(0.0, abs=1e-12)
        assert amps[1] == pytest.approx(1.0, abs=1e-12)

    def test_pi_sixth(self):
        amps = make_state(math.pi / 6, 0.0).amplitudes
        assert amps[0] == pytest.approx(0.5, abs=1e-12)
        assert amps[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    @pytest.mark.parametrize("alpha,phi", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
    def test_nonfinite_rejected(self, alpha, phi):
        with pytest.raises(InvalidParameter):
            make_state(alpha, phi)

    def test_canonical_form_on_all_of_r(self):
        rng = np.random.default_rng(7)
        alphas, phis = rng.uniform(-20, 20, (2, 200)).tolist()
        alphas += EDGE_ANGLES * len(EDGE_ANGLES)
        phis += [phi for phi in EDGE_ANGLES for _ in EDGE_ANGLES]
        assert_reduces_as_the_reference(make_state, reference_state, alphas, phis)
        for alpha, phi in zip(alphas, phis):
            state = make_state(alpha, phi)
            a0, a1 = state.amplitudes
            assert a0.imag == 0.0 and a0.real >= 0.0
            assert abs(a0) ** 2 + abs(a1) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= state.alpha <= math.pi
            assert 0.0 <= state.phi < 2 * math.pi

    def test_reduction_is_a_global_phase(self):
        # alpha -> alpha + pi flips both amplitudes; probabilities are untouched
        direction = make_direction(1.1, 2.2)
        for alpha, phi in [(0.4, 0.9), (2.0, 5.0)]:
            p0 = born_probability(make_state(alpha, phi), direction, +1)
            p1 = born_probability(make_state(alpha + math.pi, phi), direction, +1)
            p2 = born_probability(make_state(alpha + 2 * math.pi, phi + 2 * math.pi), direction, +1)
            assert p1 == pytest.approx(p0, abs=1e-12)
            assert p2 == pytest.approx(p0, abs=1e-12)


class TestMakeDirection:
    def test_unit_norm_and_ranges(self):
        rng = np.random.default_rng(11)
        thetas, varphis = rng.uniform(-20, 20, (2, 200)).tolist()
        thetas += EDGE_ANGLES * len(EDGE_ANGLES)
        varphis += [varphi for varphi in EDGE_ANGLES for _ in EDGE_ANGLES]
        assert_reduces_as_the_reference(make_direction, reference_direction, thetas, varphis)
        for theta, varphi in zip(thetas, varphis):
            d = make_direction(theta, varphi)
            assert math.hypot(math.hypot(d.n_vec[0], d.n_vec[1]), d.n_vec[2]) == pytest.approx(
                1.0, abs=1e-12
            )
            assert 0.0 <= d.theta <= math.pi
            assert 0.0 <= d.varphi < 2 * math.pi

    def test_reduction_preserves_n_vec(self):
        for theta, varphi in [(4.0, 1.0), (-0.5, 2.0), (7.0, -3.0)]:
            reduced = make_direction(theta, varphi)
            expected = (
                math.sin(theta) * math.cos(varphi),
                math.sin(theta) * math.sin(varphi),
                math.cos(theta),
            )
            assert reduced.n_vec == pytest.approx(expected, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParameter):
            make_direction(float("nan"), 0.0)

    def test_degenerate_theta_is_legal(self):
        make_direction(0.0, 0.0)
        make_direction(math.pi, 1.0)


@pytest.mark.parametrize("build, names", [(make_state, ("alpha", "phi")),
                                          (make_direction, ("theta", "varphi"))])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_a_nonfinite_entry_anywhere_in_a_stack_is_named(build, names, bad, where):
    for position, name in enumerate(names):
        angles = [np.linspace(0.0, 3.0, 7), np.linspace(-1.0, 1.0, 7)]
        angles[position][where] = bad
        with pytest.raises(InvalidParameter, match=f"^{name} must be finite, got {bad!r}$"):
            build(*angles)


class TestBornAndExpectation:
    def test_worked_values(self):
        state = make_state(math.pi / 6, 0.0)
        assert born_probability(state, make_direction(math.pi / 2, 0.0), +1) == pytest.approx(
            0.5 + SQRT3_4, abs=1e-9
        )
        assert born_probability(state, make_direction(math.pi / 3, 0.0), +1) == pytest.approx(
            0.75, abs=1e-9
        )
        assert born_probability(make_state(math.pi / 2, 0.0), make_direction(0.0, 0.0), +1) == 1.0

    def test_bad_sign(self):
        stack = PureState(np.array([0.4, 1.1]), np.array([0.9, 0.0]))
        for state in (make_state(0.4, 0.9), stack):
            with pytest.raises(InvalidParameter):
                born_probability(state, make_direction(0.0, 0.0), 0)

    def test_expectation_values(self):
        state = make_state(math.pi / 6, 0.0)
        assert expectation(state, a_direction()) == pytest.approx(-0.5, abs=1e-12)
        assert expectation(state, make_direction(math.pi / 2, 0.0)) == pytest.approx(
            math.sin(math.pi / 3), abs=1e-12
        )
        assert expectation(make_state(math.pi / 4, 0.0), a_direction()) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_sum_to_one_and_sign_split(self):
        angles = random_angles(1000, 17)
        alpha, phi, theta, varphi = np.array(angles).T
        stacked_state, stacked_d = PureState(alpha, phi), ObservableDirection(theta, varphi)
        for sign in (+1, -1):
            # a stack of states and directions gives each scenario's probability
            np.testing.assert_allclose(
                born_probability(stacked_state, stacked_d, sign),
                [born_probability(PureState(*a[:2]), ObservableDirection(*a[2:]), sign)
                 for a in angles], rtol=0, atol=1e-12)
        for alpha, phi, theta, varphi in angles:
            state, d = make_state(alpha, phi), make_direction(theta, varphi)
            p_plus = born_probability(state, d, +1)
            p_minus = born_probability(state, d, -1)
            assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
            assert expectation(state, d) == pytest.approx(p_plus - p_minus, abs=1e-12)

    def test_closed_form_against_direct_formula(self):
        # population/coherence formula evaluated independently
        for alpha, phi, theta, varphi in random_angles(500, 23):
            state, d = make_state(alpha, phi), make_direction(theta, varphi)
            half = theta / 2
            direct = (
                math.sin(alpha) ** 2 * math.cos(half) ** 2
                + math.cos(alpha) ** 2 * math.sin(half) ** 2
                + math.sin(2 * alpha) * math.sin(half) * math.cos(half) * math.cos(varphi - phi)
            )
            assert born_probability(state, d, +1) == pytest.approx(direct, abs=1e-12)

    def test_z_direction_closed_form(self):
        for alpha, phi, _, _ in random_angles(200, 29):
            state = make_state(alpha, phi)
            expected = math.sin(alpha) ** 2 - math.cos(alpha) ** 2
            assert expectation(state, a_direction()) == pytest.approx(expected, abs=1e-12)

