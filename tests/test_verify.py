import math

import numpy as np
import pytest

import seqmeas.verify as verify_mod
from seqmeas import ZnzdClass
from seqmeas.verify import b_variation_over_gamma, stacked_pairs, suite_znzd, znzd_states


def reference_znzd_metrics(count, seed, grid):
    """``(max_drift, min_variation)`` of suite_znzd, one pair at a time."""
    drifts = [b_variation_over_gamma(state, direction, grid)
              for state, direction in znzd_states(count, seed, nontrivial=True)]
    variations = [b_variation_over_gamma(state, direction, grid)
                  for state, direction in znzd_states(count, seed + 1, nontrivial=False)]
    return max(drifts), min(variations)


class TestSuiteZnzd:
    @pytest.mark.parametrize("nontrivial", [True, False])
    @pytest.mark.parametrize("points", [2, 7, 50])
    def test_stacked_variation_equals_the_per_pair_spreads(self, nontrivial, points):
        pairs = znzd_states(100, seed=4, nontrivial=nontrivial)
        stacked = b_variation_over_gamma(*stacked_pairs(pairs), points)
        assert stacked.shape == (100,)
        one_pair = [b_variation_over_gamma(state, direction, points) for state, direction in pairs]
        assert stacked.tobytes() == np.array(one_pair).tobytes()

    @pytest.mark.parametrize("seed", [4, 77])
    def test_metrics_equal_the_per_pair_loop(self, seed):
        result = suite_znzd(count=100, seed=seed, grid=50)
        assert result.passed
        max_drift, min_variation = reference_znzd_metrics(100, seed, 50)
        assert result.metrics == {"max_drift": max_drift, "min_variation": min_variation}

    def test_each_family_is_one_law_call(self, monkeypatch):
        calls = []
        real_joint_distribution = verify_mod.joint_distribution

        def counted(setup):
            calls.append(setup)
            return real_joint_distribution(setup)

        monkeypatch.setattr(verify_mod, "joint_distribution", counted)
        assert suite_znzd(count=100, grid=50).passed
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
        assert (result.name, result.passed, result.detail) == ("znzd", False, detail)

    def test_each_family_is_one_classification(self, monkeypatch):
        calls = []
        real_znzd_masks = verify_mod.znzd_masks

        def counted(state, direction):
            calls.append(np.shape(state.alpha))
            return real_znzd_masks(state, direction)

        monkeypatch.setattr(verify_mod, "znzd_masks", counted)
        assert suite_znzd(count=100, grid=5).passed
        assert calls == [(100,), (100,)]

    def test_no_pairs_give_the_empty_extremes(self):
        assert suite_znzd(count=0).metrics == {"max_drift": 0.0, "min_variation": math.inf}
