import math

import numpy as np
import pytest

from seqmeas import (
    Coupling,
    DegenerateCoupling,
    InvalidParameter,
    JointSetup,
    ZnzdClass,
    b_probabilities,
    born_probability,
    estimator_weights,
    is_znzd,
    joint_distribution,
    make_direction,
    make_state,
    meter_probabilities,
)
from seqmeas.correction import ensure_informative
from seqmeas.coupling import GAMMA_MIN
from seqmeas.verify import (b_variation_over_gamma, random_scenarios, stacked_setup,
                            znzd_states)

from test_coupling import row_setups
from test_verify import split_pairs

E1_DIR = make_direction(math.pi / 2, 0.0)
E1_COUPLING = Coupling(math.sqrt(0.8))
# the worked law: meter marginal (0.35, 0.65), b marginal (0.8464101615137753, 0.1535898384862247)
E1_SETUP = JointSetup(make_state(math.pi / 6, 0.0), E1_DIR, E1_COUPLING)
E1_LAW = joint_distribution(E1_SETUP)
FLAT = np.full(4, 0.25)


def weights(coupling, direction=E1_DIR):
    """``(w_A, w_B)`` at this coupling; the state does not enter them."""
    return estimator_weights(JointSetup(E1_SETUP.state, direction, coupling))


def recovered_plus(w, f):
    """The undisturbed probability of outcome +1 that the estimate ``w . f`` implies.

    For a stack of scenarios, ``w`` and ``f`` hold one column each and so does the result.
    """
    return (1.0 + np.sum(w * f, axis=0)) / 2.0


def _random_cells(rng):
    return rng.dirichlet(np.ones(4))


class TestRecoverA:
    """The outcome law that the A estimate implies is the undisturbed one."""

    def test_worked_example(self):
        w_a, _ = weights(E1_COUPLING)
        assert recovered_plus(w_a, E1_LAW) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_fixed_point(self):
        w_a, _ = weights(E1_COUPLING)
        assert recovered_plus(w_a, np.array([0.1, 0.4, 0.3, 0.2])) == pytest.approx(0.5, abs=1e-12)

    def test_projective_is_identity(self):
        # the A channel accepts full strength; estimator_weights refuses it for the B channel,
        # and just below it w_A is the plain meter difference
        ensure_informative(Coupling(1.0))
        w_a, _ = weights(Coupling(1.0 - 1e-15))
        np.testing.assert_allclose(w_a, [1.0, 1.0, -1.0, -1.0], rtol=0.0, atol=1e-12)

    def test_zero_strength_refuses(self):
        with pytest.raises(DegenerateCoupling, match="A channel"):
            weights(Coupling(GAMMA_MIN))

    def test_round_trip(self):
        setup = stacked_setup(random_scenarios(1000, seed=71, gamma_range=(0.7072, 0.9999)))
        w_a, _ = estimator_weights(setup)
        law = joint_distribution(setup)
        s2 = np.sin(setup.state.alpha) ** 2
        np.testing.assert_allclose(recovered_plus(w_a, law), s2, rtol=0, atol=1e-12)


class TestEstimateA:
    def test_worked_example(self):
        w_a, _ = weights(E1_COUPLING)
        assert w_a @ E1_LAW == pytest.approx(-0.5, abs=1e-12)

    def test_symmetric(self):
        w_a, _ = weights(Coupling(0.95))
        assert w_a @ FLAT == 0.0

    def test_perturbed_frequencies(self):
        w_a, _ = weights(E1_COUPLING)
        # meter frequencies (0.352, 0.648), split over b in any way
        assert w_a @ [0.3, 0.052, 0.5, 0.148] == pytest.approx(-0.296 / 0.6, abs=1e-9)

    def test_zero_strength_refuses(self):
        with pytest.raises(DegenerateCoupling):
            weights(Coupling(GAMMA_MIN))

    def test_affine_in_frequencies(self):
        rng = np.random.default_rng(73)
        w_a, _ = weights(Coupling(0.9))
        for _ in range(200):
            x, y = _random_cells(rng), _random_cells(rng)
            lam = rng.uniform()
            expected = lam * (w_a @ x) + (1 - lam) * (w_a @ y)
            assert w_a @ (lam * x + (1 - lam) * y) == pytest.approx(expected, abs=1e-12)


class TestRecoverB:
    """The outcome law that the B estimate implies is the undisturbed one."""

    def test_worked_example(self):
        _, w_b = weights(E1_COUPLING)
        assert recovered_plus(w_b, E1_LAW) == pytest.approx(0.9330127018922193, abs=1e-9)

    def test_nearly_undisturbed_coupling(self):
        # just above zero strength the correction term vanishes with 1 - deco
        state, direction = make_state(0.8, 0.5), make_direction(1.2, 0.9)
        setup = JointSetup(state, direction, Coupling(GAMMA_MIN + 1e-5))
        _, w_b = estimator_weights(setup)
        law = joint_distribution(setup)
        assert recovered_plus(w_b, law) == pytest.approx(b_probabilities(setup)[0], abs=1e-4)

    def test_diagonal_observable_reduces_to_the_a_estimate(self):
        state, direction = make_state(0.8, 0.5), make_direction(0.0, 0.0)
        setup = JointSetup(state, direction, Coupling(0.9))
        w_a, w_b = estimator_weights(setup)
        law = joint_distribution(setup)
        assert w_b @ law == pytest.approx(w_a @ law, abs=1e-12)

    def test_degenerate_couplings_refuse(self):
        with pytest.raises(DegenerateCoupling, match="A channel"):
            weights(Coupling(GAMMA_MIN))
        with pytest.raises(DegenerateCoupling, match="B channel"):
            weights(Coupling(1.0))

    def test_round_trip(self):
        for setup in row_setups(random_scenarios(1000, seed=79, gamma_range=(0.715, 0.995))):
            _, w_b = estimator_weights(setup)
            law = joint_distribution(setup)
            born_plus = born_probability(setup.state, setup.b_dir, +1)
            assert recovered_plus(w_b, law) == pytest.approx(born_plus, abs=1e-10)

    def test_noisy_frequencies_are_reported_unclamped(self):
        _, w_b = weights(E1_COUPLING)
        assert -1.0 <= w_b @ E1_LAW <= 1.0
        # 0.08 of the m = -1 row moved from b = -1 to b = +1; the meter frequencies stay
        noisy = E1_LAW + [0.0, 0.0, 0.08, -0.08]
        assert w_b @ noisy > 1.0


class TestEstimateB:
    def test_worked_example(self):
        _, w_b = weights(E1_COUPLING)
        assert w_b @ E1_LAW == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_tilted_observable(self):
        # theta = pi/3 on the same state; cross term no longer vanishes
        direction = make_direction(math.pi / 3, 0.0)
        setup = JointSetup(make_state(math.pi / 6, 0.0), direction, E1_COUPLING)
        _, w_b = estimator_weights(setup)
        assert w_b @ joint_distribution(setup) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_inputs(self):
        _, w_b = weights(E1_COUPLING)
        assert w_b @ FLAT == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_couplings_refuse(self):
        with pytest.raises(DegenerateCoupling):
            weights(Coupling(GAMMA_MIN))
        with pytest.raises(DegenerateCoupling, match="projective"):
            weights(Coupling(1.0))

    def test_matches_recovered_distribution(self):
        # reference: rebuild the population-only part of the b law from the meter law,
        # subtract it and rescale the coherent remainder by deco
        for setup in row_setups(random_scenarios(300, seed=83, gamma_range=(0.72, 0.99))):
            p_b, p_m, c = b_probabilities(setup), meter_probabilities(setup), setup.coupling
            half = 0.5 * setup.b_dir.theta
            n_hat = (math.cos(half) ** 2 * p_m[0] + math.sin(half) ** 2 * p_m[1]
                     - c.gamma_bar**2) / c.kappa
            rec_plus = (p_b[0] - (1.0 - c.deco) * n_hat) / c.deco
            rec_minus = (p_b[1] - (1.0 - c.deco) * (1.0 - n_hat)) / c.deco
            _, w_b = estimator_weights(setup)
            law = joint_distribution(setup)
            assert w_b @ law == pytest.approx(rec_plus - rec_minus, abs=1e-12)

    def test_affine_in_joint_frequencies(self):
        rng = np.random.default_rng(89)
        _, w_b = weights(Coupling(0.9), make_direction(1.1, 0.7))
        for _ in range(200):
            x, y = _random_cells(rng), _random_cells(rng)
            lam = rng.uniform()
            expected = lam * (w_b @ x) + (1 - lam) * (w_b @ y)
            assert w_b @ (lam * x + (1 - lam) * y) == pytest.approx(expected, abs=1e-12)


class TestZnzd:
    def test_nontrivial_example(self):
        state = make_state(math.pi / 4, math.pi / 2)
        assert is_znzd(state, make_direction(math.pi / 2, 0.0)) is ZnzdClass.NONTRIVIAL

    def test_trivial_eigenstate(self):
        assert is_znzd(make_state(0.0, 0.0), make_direction(1.0, 2.0)) is ZnzdClass.TRIVIAL

    def test_trivial_commuting_observable(self):
        assert is_znzd(make_state(0.7, 0.3), make_direction(0.0, 0.0)) is ZnzdClass.TRIVIAL

    def test_generic_state_is_not_znzd(self):
        state = make_state(math.pi / 6, 0.0)
        assert is_znzd(state, make_direction(math.pi / 2, 0.0)) is ZnzdClass.NOT_ZNZD

    def test_bad_tolerance(self):
        with pytest.raises(InvalidParameter):
            is_znzd(make_state(0.1, 0.0), make_direction(1.0, 0.0), tol=0.0)

    def test_classification_matches_coupling_invariance(self):
        # mixture of nontrivial, trivial and generic pairs; classification
        # must agree with the observed coupling (in)variance of the b law
        pairs = split_pairs(znzd_states(30, seed=97, nontrivial=True))
        pairs += split_pairs(znzd_states(30, seed=101, nontrivial=False))
        pairs += [
            (make_state(0.0, 0.0), make_direction(1.0, 0.5)),
            (make_state(0.9, 0.1), make_direction(0.0, 0.0)),
        ]
        for state, direction in pairs:
            invariant = b_variation_over_gamma(state, direction, points=50) <= 1e-12
            classified = is_znzd(state, direction) is not ZnzdClass.NOT_ZNZD
            assert invariant == classified

    def test_variation_equals_the_spread_of_the_per_coupling_laws(self):
        # the one-call sweep reproduces max - min over validated per-gamma laws exactly
        pairs = split_pairs(znzd_states(20, seed=97, nontrivial=True))
        pairs += split_pairs(znzd_states(20, seed=101, nontrivial=False))
        pairs += [(s.state, s.b_dir) for s in row_setups(random_scenarios(20, seed=103))]
        for state, direction in pairs:
            for points in (2, 7, 50):
                values = [
                    b_probabilities(JointSetup(state, direction, Coupling(g)))[0]
                    for g in np.linspace(GAMMA_MIN, 1.0, points)
                ]
                assert b_variation_over_gamma(state, direction, points) == max(values) - min(values)
