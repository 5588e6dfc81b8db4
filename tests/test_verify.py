import math
from types import SimpleNamespace

import numpy as np
import pytest

import seqmeas.verify as verify_mod
from seqmeas import ZnzdClass, make_direction, make_state
from seqmeas.qubit import ObservableDirection, PureState
from seqmeas.verify import b_variation_over_gamma, suite_znzd, znzd_states


def znzd_loop(count, seed, nontrivial):
    """The (state, direction) pairs drawn one rng.uniform call at a time, and the
    number of generic pairs drawn again."""
    rng = np.random.default_rng(seed)
    pairs, redrawn = [], 0
    while len(pairs) < count:
        alpha = rng.uniform(0.15, math.pi / 2 - 0.15)
        theta = rng.uniform(0.3, math.pi - 0.3)
        varphi = rng.uniform(0.0, 2.0 * math.pi)
        if nontrivial:
            phi = varphi + (math.pi / 2 if rng.random() < 0.5 else -math.pi / 2)
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            if abs(math.cos(varphi - phi)) < 0.05:
                redrawn += 1
                continue
        pairs.append((make_state(alpha, phi), make_direction(theta, varphi)))
    return pairs, redrawn


def split_pairs(stack):
    """The (state, direction) pairs of a stacked state and direction."""
    state, direction = stack
    return [(PureState(alpha, phi), ObservableDirection(theta, varphi))
            for alpha, phi, theta, varphi in zip(state.alpha.tolist(), state.phi.tolist(),
                                                 direction.theta.tolist(), direction.varphi.tolist())]


def reference_znzd_metrics(count, seed, grid):
    """``(max_drift, min_variation)`` of suite_znzd, one pair at a time."""
    drifts = [b_variation_over_gamma(state, direction, grid)
              for state, direction in znzd_loop(count, seed, nontrivial=True)[0]]
    variations = [b_variation_over_gamma(state, direction, grid)
                  for state, direction in znzd_loop(count, seed + 1, nontrivial=False)[0]]
    return max(drifts), min(variations)


class TestZnzdStates:
    @pytest.mark.parametrize("nontrivial", [True, False])
    @pytest.mark.parametrize("count, seed", [(100, 4), (100, 5), (500, 78), (1, 2**32 + 1), (0, 3)])
    def test_the_stacked_draw_equals_the_per_pair_loop(self, nontrivial, count, seed):
        pairs, _ = znzd_loop(count, seed, nontrivial)
        state, direction = znzd_states(count, seed, nontrivial)
        assert state.alpha.shape == direction.varphi.shape == (count,)
        stacked = np.column_stack((state.alpha, state.phi, direction.theta, direction.varphi))
        expected = np.array([(s.alpha, s.phi, d.theta, d.varphi) for s, d in pairs]).reshape(-1, 4)
        assert stacked.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("count, seed", [(100, 5), (500, 78)])
    def test_the_generic_seeds_draw_pairs_again(self, count, seed):
        # so the comparison above covers the stacked rejection, block after block
        assert znzd_loop(count, seed, nontrivial=False)[1] > 0

    def test_the_znzd_phases_are_reduced_from_both_sides(self):
        # varphi - pi/2 < 0 and varphi + pi/2 >= 2 pi both occur, so make_state's
        # reduction of phi is compared in both directions
        state, direction = znzd_states(100, seed=4, nontrivial=True)
        shift = np.round((state.phi - direction.varphi) / (math.pi / 2))
        assert {-3.0, -1.0, 1.0, 3.0} <= set(shift.tolist())

    def test_a_phase_that_rounds_up_to_two_pi_is_reduced_to_zero(self, monkeypatch):
        # varphi one ulp below pi/2 and the quarter turn down: phi + 2 pi rounds to 2 pi,
        # which make_state reduces to 0
        row = np.array([[0.5, 0.5, 0.25 - 2.0**-55, 0.75]])
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: SimpleNamespace(random=lambda shape: row))
        state, direction = znzd_states(1, seed=0, nontrivial=True)
        assert direction.varphi.tolist() == [math.nextafter(math.pi / 2, 0.0)]
        reference = make_state(state.alpha[0], direction.varphi[0] - math.pi / 2)
        assert state.phi.tolist() == [reference.phi] == [0.0]


class TestSuiteZnzd:
    @pytest.mark.parametrize("nontrivial", [True, False])
    @pytest.mark.parametrize("points", [2, 7, 50])
    def test_stacked_variation_equals_the_per_pair_spreads(self, nontrivial, points):
        stack = znzd_states(100, seed=4, nontrivial=nontrivial)
        stacked = b_variation_over_gamma(*stack, points)
        assert stacked.shape == (100,)
        one_pair = [b_variation_over_gamma(state, direction, points)
                    for state, direction in split_pairs(stack)]
        assert stacked.tobytes() == np.array(one_pair).tobytes()

    @pytest.mark.parametrize("seed", [4, 77])
    def test_metrics_equal_the_per_pair_loop(self, seed):
        result = suite_znzd(count=100, seed=seed, grid=50)
        assert result["passed"]
        max_drift, min_variation = reference_znzd_metrics(100, seed, 50)
        assert result["metrics"] == {"max_drift": max_drift, "min_variation": min_variation}

    def test_each_family_is_one_law_call(self, monkeypatch):
        calls = []
        real_joint_distribution = verify_mod.joint_distribution

        def counted(setup):
            calls.append(setup)
            return real_joint_distribution(setup)

        monkeypatch.setattr(verify_mod, "joint_distribution", counted)
        assert suite_znzd(count=100, grid=50)["passed"]
        assert len(calls) == 2
        for setup in calls:
            assert setup.state.alpha.shape == (100,)
            assert setup.coupling.gamma.shape == (50, 1)

    @pytest.mark.parametrize("verdict, detail", [
        (ZnzdClass.NOT_ZNZD, "a constructed ZNZD state was not classified as such"),
        (ZnzdClass.NONTRIVIAL, "a generic state was misclassified as ZNZD"),
    ])
    def test_a_misclassified_pair_fails_the_suite(self, monkeypatch, verdict, detail):
        real_znzd_masks = verify_mod.znzd_masks

        def last_pair_misclassified(state, direction):
            trivial, nontrivial = (np.array(mask) for mask in real_znzd_masks(state, direction))
            trivial[-1] = verdict is ZnzdClass.TRIVIAL
            nontrivial[-1] = verdict is ZnzdClass.NONTRIVIAL
            return trivial, nontrivial

        monkeypatch.setattr(verify_mod, "znzd_masks", last_pair_misclassified)
        result = suite_znzd(count=10, grid=5)
        assert list(result.items()) == [("name", "znzd"), ("passed", False), ("detail", detail),
                                        ("metrics", {})]

    def test_each_family_is_one_classification(self, monkeypatch):
        calls = []
        real_znzd_masks = verify_mod.znzd_masks

        def counted(state, direction):
            calls.append(np.shape(state.alpha))
            return real_znzd_masks(state, direction)

        monkeypatch.setattr(verify_mod, "znzd_masks", counted)
        assert suite_znzd(count=100, grid=5)["passed"]
        assert calls == [(100,), (100,)]

    def test_no_pairs_give_the_empty_extremes(self):
        assert suite_znzd(count=0)["metrics"] == {"max_drift": 0.0, "min_variation": math.inf}
