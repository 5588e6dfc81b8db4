import math

import numpy as np
import pytest

from seqmeas import (
    BinaryDistribution,
    Coupling,
    DegenerateCoupling,
    InvalidParameter,
    JointSetup,
    ZnzdClass,
    b_probabilities,
    born_probability,
    estimate_a,
    estimate_b,
    is_znzd,
    make_direction,
    make_state,
    meter_probabilities,
    recover_a,
    recover_b,
)
from seqmeas.coupling import GAMMA_MIN
from seqmeas.verify import b_variation_over_gamma, random_setups, znzd_states

E1_METER = BinaryDistribution(0.35, 0.65)
E1_B = BinaryDistribution(0.8464101615137753, 0.1535898384862247)
E1_DIR = make_direction(math.pi / 2, 0.0)
E1_COUPLING = Coupling(math.sqrt(0.8))


class TestRecoverA:
    def test_worked_example(self):
        rec = recover_a(E1_METER, E1_COUPLING)
        assert rec.p_plus == pytest.approx(0.25, abs=1e-12)
        assert rec.p_minus == pytest.approx(0.75, abs=1e-12)

    def test_symmetric_fixed_point(self):
        rec = recover_a(BinaryDistribution(0.5, 0.5), E1_COUPLING)
        assert rec.p_plus == pytest.approx(0.5, abs=1e-12)

    def test_projective_is_identity(self):
        rec = recover_a(BinaryDistribution(0.3, 0.7), Coupling(1.0))
        assert rec.p_plus == pytest.approx(0.3, abs=1e-12)
        assert rec.p_minus == pytest.approx(0.7, abs=1e-12)

    def test_zero_strength_refuses(self):
        with pytest.raises(DegenerateCoupling, match="A channel"):
            recover_a(E1_METER, Coupling(GAMMA_MIN))

    def test_round_trip(self):
        for setup in random_setups(1000, seed=71, gamma_range=(0.7072, 0.9999)):
            rec = recover_a(meter_probabilities(setup), setup.coupling)
            s2 = math.sin(setup.state.alpha) ** 2
            assert rec.p_plus == pytest.approx(s2, abs=1e-12)
            assert rec.p_minus == pytest.approx(1.0 - s2, abs=1e-12)


class TestEstimateA:
    def test_worked_example(self):
        assert estimate_a(E1_METER, E1_COUPLING) == pytest.approx(-0.5, abs=1e-12)

    def test_symmetric(self):
        assert estimate_a(BinaryDistribution(0.5, 0.5), Coupling(0.95)) == 0.0

    def test_perturbed_frequencies(self):
        est = estimate_a(BinaryDistribution(0.352, 0.648), E1_COUPLING)
        assert est == pytest.approx(-0.296 / 0.6, abs=1e-9)

    def test_zero_strength_refuses(self):
        with pytest.raises(DegenerateCoupling):
            estimate_a(E1_METER, Coupling(GAMMA_MIN))

    def test_affine_in_frequencies(self):
        rng = np.random.default_rng(73)
        c = Coupling(0.9)
        for _ in range(200):
            x = BinaryDistribution(*_random_pair(rng))
            y = BinaryDistribution(*_random_pair(rng))
            lam = rng.uniform()
            mixed = BinaryDistribution(
                lam * x.p_plus + (1 - lam) * y.p_plus,
                lam * x.p_minus + (1 - lam) * y.p_minus,
            )
            expected = lam * estimate_a(x, c) + (1 - lam) * estimate_a(y, c)
            assert estimate_a(mixed, c) == pytest.approx(expected, abs=1e-12)


def _random_pair(rng):
    p = rng.uniform()
    return p, 1.0 - p


class TestRecoverB:
    def test_worked_example(self):
        rec = recover_b(E1_B, E1_METER, E1_DIR, E1_COUPLING)
        assert rec.p_plus == pytest.approx(0.9330127018922193, abs=1e-9)
        assert rec.p_minus == pytest.approx(0.0669872981077807, abs=1e-9)

    def test_nearly_undisturbed_coupling(self):
        # just above zero strength the correction term vanishes with 1 - deco
        state, direction = make_state(0.8, 0.5), make_direction(1.2, 0.9)
        setup = JointSetup(state, direction, Coupling(GAMMA_MIN + 1e-5))
        p_b = b_probabilities(setup)
        rec = recover_b(p_b, meter_probabilities(setup), direction, setup.coupling)
        assert rec.p_plus == pytest.approx(p_b.p_plus, abs=1e-4)

    def test_diagonal_observable_reduces_to_recover_a(self):
        state, direction = make_state(0.8, 0.5), make_direction(0.0, 0.0)
        setup = JointSetup(state, direction, Coupling(0.9))
        p_m = meter_probabilities(setup)
        rec_b = recover_b(b_probabilities(setup), p_m, direction, setup.coupling)
        rec_a = recover_a(p_m, setup.coupling)
        assert rec_b.p_plus == pytest.approx(rec_a.p_plus, abs=1e-12)

    def test_degenerate_couplings_refuse(self):
        with pytest.raises(DegenerateCoupling, match="A channel"):
            recover_b(E1_B, E1_METER, E1_DIR, Coupling(GAMMA_MIN))
        with pytest.raises(DegenerateCoupling, match="B channel"):
            recover_b(E1_B, E1_METER, E1_DIR, Coupling(1.0))

    def test_round_trip(self):
        for setup in random_setups(1000, seed=79, gamma_range=(0.715, 0.995)):
            rec = recover_b(
                b_probabilities(setup),
                meter_probabilities(setup),
                setup.b_dir,
                setup.coupling,
            )
            born_plus = born_probability(setup.state, setup.b_dir, +1)
            assert rec.p_plus == pytest.approx(born_plus, abs=1e-10)
            assert rec.p_minus == pytest.approx(1.0 - born_plus, abs=1e-10)

    def test_recover_all_flags_range(self):
        assert recover_b(E1_B, E1_METER, E1_DIR, E1_COUPLING).within_unit_interval()
        noisy_b = BinaryDistribution(E1_B.p_plus + 0.08, E1_B.p_minus - 0.08)
        noisy = recover_b(noisy_b, E1_METER, E1_DIR, E1_COUPLING)
        assert noisy.p_plus > 1.0  # reported unclamped
        assert not noisy.within_unit_interval()


class TestEstimateB:
    def test_worked_example(self):
        est = estimate_b(E1_B, E1_METER, E1_DIR, E1_COUPLING)
        assert est == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_tilted_observable(self):
        # theta = pi/3 on the same state; cross term no longer vanishes
        direction = make_direction(math.pi / 3, 0.0)
        setup = JointSetup(make_state(math.pi / 6, 0.0), direction, E1_COUPLING)
        est = estimate_b(
            b_probabilities(setup), meter_probabilities(setup), direction, setup.coupling
        )
        assert est == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_inputs(self):
        flat = BinaryDistribution(0.5, 0.5)
        assert estimate_b(flat, flat, E1_DIR, E1_COUPLING) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_couplings_refuse(self):
        with pytest.raises(DegenerateCoupling):
            estimate_b(E1_B, E1_METER, E1_DIR, Coupling(GAMMA_MIN))
        with pytest.raises(DegenerateCoupling, match="projective"):
            estimate_b(E1_B, E1_METER, E1_DIR, Coupling(1.0))

    def test_matches_recovered_distribution(self):
        for setup in random_setups(300, seed=83, gamma_range=(0.72, 0.99)):
            p_b, p_m = b_probabilities(setup), meter_probabilities(setup)
            rec = recover_b(p_b, p_m, setup.b_dir, setup.coupling)
            est = estimate_b(p_b, p_m, setup.b_dir, setup.coupling)
            assert est == pytest.approx(rec.p_plus - rec.p_minus, abs=1e-12)

    def test_affine_in_joint_frequencies(self):
        rng = np.random.default_rng(89)
        direction = make_direction(1.1, 0.7)
        c = Coupling(0.9)
        for _ in range(200):
            bx, by = BinaryDistribution(*_random_pair(rng)), BinaryDistribution(*_random_pair(rng))
            mx, my = BinaryDistribution(*_random_pair(rng)), BinaryDistribution(*_random_pair(rng))
            lam = rng.uniform()
            b_mix = BinaryDistribution(
                lam * bx.p_plus + (1 - lam) * by.p_plus,
                lam * bx.p_minus + (1 - lam) * by.p_minus,
            )
            m_mix = BinaryDistribution(
                lam * mx.p_plus + (1 - lam) * my.p_plus,
                lam * mx.p_minus + (1 - lam) * my.p_minus,
            )
            expected = lam * estimate_b(bx, mx, direction, c) + (1 - lam) * estimate_b(
                by, my, direction, c
            )
            assert estimate_b(b_mix, m_mix, direction, c) == pytest.approx(expected, abs=1e-12)


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
        pairs = znzd_states(30, seed=97, nontrivial=True)
        pairs += znzd_states(30, seed=101, nontrivial=False)
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
        pairs = znzd_states(20, seed=97, nontrivial=True)
        pairs += znzd_states(20, seed=101, nontrivial=False)
        pairs += [(s.state, s.b_dir) for s in random_setups(20, seed=103)]
        for state, direction in pairs:
            for points in (2, 7, 50):
                values = [
                    b_probabilities(JointSetup(state, direction, Coupling(g))).p_plus
                    for g in np.linspace(GAMMA_MIN, 1.0, points)
                ]
                assert b_variation_over_gamma(state, direction, points) == max(values) - min(values)
