import math
import os
import sys
import threading

import numpy as np
import pytest

from seqmeas import (
    Coupling,
    DegenerateCoupling,
    InvalidParameter,
    JointSetup,
    TrialBatch,
    a_direction,
    crb_check,
    estimate,
    estimator_weights,
    expectation,
    joint_distribution,
    make_direction,
    make_state,
    sample,
    unbiasedness_check,
)
from seqmeas.coupling import GAMMA_MIN
import seqmeas.montecarlo as montecarlo
from seqmeas.montecarlo import _thread_count, _z_score, derive_seed, trial_uniforms
from seqmeas.verify import Z_LIMIT, default_setup

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_uniform(seed, index):
    """Pure-python splitmix64 of (seed, index), as an independent reference."""
    z = (seed + (index + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = (z ^ (z >> 31)) & MASK64
    return (z >> 11) * 2.0**-53


def cumulative_law(setup):
    cum = np.cumsum(joint_distribution(setup).as_array())
    cum[-1] = 1.0
    return cum


def reference_counts(cum, seed, lo, hi):
    """Cell counts by binary search over the variates, independent of the kernel."""
    cells = np.searchsorted(cum, trial_uniforms(seed, lo, hi), side="right")
    return np.bincount(cells, minlength=4)


ZERO_CELL_SETUP = JointSetup(  # law (0.25, 0, 0, 0.75): cum[0] == cum[1] == cum[2]
    make_state(math.pi / 6, 0.0), make_direction(0.0, 0.0), Coupling(1.0)
)


class TestCounterRng:
    def test_matches_scalar_reference(self):
        u = trial_uniforms(42, 0, 50)
        for i in range(50):
            assert u[i] == reference_uniform(42, i)

    def test_range_slices_are_consistent(self):
        whole = trial_uniforms(7, 0, 1000)
        np.testing.assert_array_equal(whole[200:500], trial_uniforms(7, 200, 500))

    def test_unit_interval(self):
        u = trial_uniforms(123456789, 0, 10000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(trial_uniforms(1, 0, 100), trial_uniforms(2, 0, 100))

    def test_derive_seed_distinct_and_stable(self):
        children = [derive_seed(42, r) for r in range(100)]
        assert len(set(children)) == 100
        assert children == [derive_seed(42, r) for r in range(100)]


class TestSample:
    def test_deterministic_law(self):
        setup = JointSetup(make_state(math.pi / 2, 0.0), make_direction(0.0, 0.0), Coupling(1.0))
        batch = sample(setup, 1000, seed=3)
        assert batch.counts == (1000, 0, 0, 0)

    def test_repeatable(self, worked_setup):
        first = sample(worked_setup, 50_000, seed=11)
        second = sample(worked_setup, 50_000, seed=11)
        assert first == second

    def test_workers_do_not_change_counts(self, worked_setup):
        serial = sample(worked_setup, 100_001, seed=13)
        for workers in (2, 3, 7):
            assert sample(worked_setup, 100_001, seed=13, workers=workers).counts == serial.counts

    def test_empirical_frequencies_converge(self, worked_setup):
        law = joint_distribution(worked_setup).as_array()
        n = 1_000_000
        failures = 0
        for seed in range(30):
            freq = sample(worked_setup, n, seed=seed).frequencies()
            tol = 5.0 * np.sqrt(law * (1 - law) / n)
            if not np.all(np.abs(freq - law) < tol):
                failures += 1
        assert failures <= 1

    def test_bad_arguments(self, worked_setup):
        with pytest.raises(InvalidParameter):
            sample(worked_setup, 0, seed=1)
        with pytest.raises(InvalidParameter):
            sample(worked_setup, 10, seed=1, workers=0)


class TestCountKernel:
    @pytest.mark.parametrize("seed", [1, 42, 2**63 + 5])
    @pytest.mark.parametrize("end_offset", [-1, 0, 1])
    @pytest.mark.parametrize("zero_cell", [False, True], ids=["worked", "zero_cell"])
    def test_matches_binary_search_reference(self, worked_setup, seed, end_offset, zero_cell):
        cum = cumulative_law(ZERO_CELL_SETUP if zero_cell else worked_setup)
        lo, hi = montecarlo._CHUNK // 3, 2 * montecarlo._CHUNK + end_offset
        counts = montecarlo._counts_for_range(cum, seed, lo, hi)
        np.testing.assert_array_equal(counts, reference_counts(cum, seed, lo, hi))


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two shards need two cores")
class TestThreadFanOut:
    # each test starts exactly the two shard threads of one sample call
    def test_one_thread_per_shard_and_the_caller_only_waits(self, worked_setup, monkeypatch):
        real = montecarlo._counts_for_range
        threads = []

        def spy(cum, seed, start, stop):
            threads.append(threading.get_ident())
            return real(cum, seed, start, stop)

        monkeypatch.setattr(montecarlo, "_counts_for_range", spy)
        batch = sample(worked_setup, 300_000, seed=21, workers=2)
        assert len(threads) == len(set(threads)) == 2
        assert threading.get_ident() not in threads
        expected = reference_counts(cumulative_law(worked_setup), 21, 0, 300_000)
        assert batch.counts == tuple(expected)

    def test_shard_exception_reaches_the_caller(self, worked_setup, monkeypatch):
        real = montecarlo._counts_for_range

        def failing(cum, seed, start, stop):
            if start > 0:
                raise RuntimeError("shard failed")
            return real(cum, seed, start, stop)

        monkeypatch.setattr(montecarlo, "_counts_for_range", failing)
        with pytest.raises(RuntimeError, match="shard failed"):
            sample(worked_setup, 300_000, seed=21, workers=2)


class TestTrialBatch:
    def test_counts_must_sum(self):
        with pytest.raises(InvalidParameter):
            TrialBatch(counts=(1, 2, 3, 4), trials=11, seed=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidParameter):
            TrialBatch(counts=(-1, 6, 3, 2), trials=10, seed=0)


class TestEstimate:
    def test_plug_in_consistency_exact_batch(self):
        # theta=0, gamma^2=0.8, sin^2 a = 0.25: joint cells are (0.2, 0.15, 0.05, 0.6)
        setup = JointSetup(
            make_state(math.pi / 6, 0.0), make_direction(0.0, 0.0), Coupling(math.sqrt(0.8))
        )
        law = joint_distribution(setup)
        np.testing.assert_allclose(law.as_array(), [0.2, 0.15, 0.05, 0.6], atol=1e-12)
        batch = TrialBatch(counts=(20, 15, 5, 60), trials=100, seed=0)
        stats = estimate(batch, estimator_weights(setup))
        assert stats.est_A == pytest.approx(-0.5, abs=1e-12)
        assert stats.est_B == pytest.approx(-0.5, abs=1e-12)

    def test_ideal_proportions_scenario(self, worked_setup):
        batch = TrialBatch(counts=(348205, 1795, 498205, 151795), trials=1_000_000, seed=0)
        stats = estimate(batch, estimator_weights(worked_setup))
        assert stats.est_A == pytest.approx(-0.5, abs=1e-12)
        assert stats.est_B == pytest.approx(math.sqrt(3) / 2, abs=1e-6)

    def test_single_trial_estimates_leave_unit_interval(self):
        setup = JointSetup(
            make_state(math.pi / 6, 0.0), make_direction(math.pi / 2, 0.0), Coupling(math.sqrt(0.8))
        )
        batch = TrialBatch(counts=(1, 0, 0, 0), trials=1, seed=0)
        stats = estimate(batch, estimator_weights(setup))
        assert stats.est_A == pytest.approx(1.0 / 0.6, abs=1e-9)
        assert stats.est_B == pytest.approx(1.25, abs=1e-9)

    def test_standard_error_identity_for_a(self, worked_setup):
        batch = sample(worked_setup, 200_000, seed=17)
        stats = estimate(batch, estimator_weights(worked_setup))
        f = batch.frequencies()
        fm_plus, fm_minus = f[0] + f[1], f[2] + f[3]
        kappa = worked_setup.coupling.kappa
        expected = math.sqrt(4 * fm_plus * fm_minus / (batch.trials * kappa**2))
        assert stats.se_A == pytest.approx(expected, rel=1e-12)

    def test_degenerate_couplings_refuse(self):
        state, direction = make_state(0.6, 0.0), make_direction(1.0, 0.0)
        batch = TrialBatch(counts=(2, 3, 4, 1), trials=10, seed=0)
        # the weights an estimate needs refuse the coupling
        with pytest.raises(DegenerateCoupling, match="A channel"):
            estimate(batch, estimator_weights(JointSetup(state, direction, Coupling(GAMMA_MIN))))
        with pytest.raises(DegenerateCoupling, match="B channel"):
            estimate(batch, estimator_weights(JointSetup(state, direction, Coupling(1.0))))


class TestThreadCount:
    # checked on the helper alone: no thread is started
    def test_capped_by_cores(self):
        cores = os.cpu_count() or 1
        assert _thread_count(10**9, 10**12) == cores
        assert _thread_count(2**63, 2**63) == cores

    def test_capped_by_trials(self):
        assert _thread_count(10**9, 1) == 1
        assert _thread_count(10**9, 2) == min(2, os.cpu_count() or 1)

    def test_never_above_request(self):
        assert _thread_count(1, 10**12) == 1


class TestZScore:
    def test_ordinary(self):
        assert _z_score(1.2, 1.0, 0.1) == pytest.approx(2.0, abs=1e-12)

    def test_zero_variance_zero_bias(self):
        assert _z_score(1.0, 1.0, 0.0) == 0.0

    def test_zero_variance_with_bias(self):
        assert _z_score(2.0, 1.0, 0.0) == math.inf


class TestUnbiasednessCheck:
    def test_worked_scenario_passes(self, worked_setup):
        metrics = unbiasedness_check(worked_setup, trials=100_000, repeats=20, seed=42)
        assert list(metrics) == ["z_A", "z_B", "mean_A", "mean_B"]
        true_a = expectation(worked_setup.state, a_direction())
        true_b = expectation(worked_setup.state, worked_setup.b_dir)
        assert true_a == pytest.approx(-0.5, abs=1e-12)
        assert true_b == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert metrics["mean_A"] == pytest.approx(true_a, abs=0.01)
        assert metrics["mean_B"] == pytest.approx(true_b, abs=0.01)
        assert abs(metrics["z_A"]) < Z_LIMIT and abs(metrics["z_B"]) < Z_LIMIT

    def test_estimator_weights_computed_once(self, worked_setup, monkeypatch):
        import seqmeas.montecarlo as montecarlo_mod

        calls = []
        real_estimator_weights = montecarlo_mod.estimator_weights

        def counted(setup):
            calls.append(setup)
            return real_estimator_weights(setup)

        monkeypatch.setattr(montecarlo_mod, "estimator_weights", counted)
        unbiasedness_check(worked_setup, trials=1000, repeats=5, seed=3)
        assert len(calls) == 1

    def test_degenerate_couplings_refuse(self):
        state, direction = make_state(0.6, 0.0), make_direction(1.0, 0.0)
        with pytest.raises(DegenerateCoupling, match="A channel"):
            unbiasedness_check(
                JointSetup(state, direction, Coupling(GAMMA_MIN)), 100, 3, seed=1
            )
        with pytest.raises(DegenerateCoupling, match="B channel"):
            unbiasedness_check(JointSetup(state, direction, Coupling(1.0)), 100, 3, seed=1)


class TestCrbCheck:
    def test_bound_value(self, worked_setup):
        metrics, var_b = crb_check(worked_setup, trials=10_000, repeats=20, seed=5)
        assert list(metrics) == ["ratio_A", "ratio_B", "crb_A", "crb_B", "var_B_analytic"]
        # I_A_joint = kappa^2/4 / (0.35 * 0.65)
        expected_crb = 1.0 / (10_000 * (0.09 / 0.2275))
        assert metrics["crb_A"] == pytest.approx(expected_crb, rel=1e-9)
        assert metrics["var_B_analytic"] > 0.0
        assert metrics["crb_B"] == pytest.approx(1.0 / (10_000 * 0.16 / 0.13), rel=1e-9)
        assert var_b == pytest.approx(metrics["ratio_B"] * metrics["var_B_analytic"], rel=1e-12)

    def test_ratios_concentrate(self, worked_setup):
        metrics, _ = crb_check(worked_setup, trials=100_000, repeats=200, seed=9)
        assert 0.9 <= metrics["ratio_A"] <= 1.1
        assert 0.9 <= metrics["ratio_B"] <= 1.1

    def test_one_law_and_one_weight_call(self, monkeypatch):
        calls = {"estimator_weights": 0, "joint_distribution": 0}

        def counting(name, real):
            def wrapper(setup):
                calls[name] += 1
                return real(setup)

            return wrapper

        modules = [m for n, m in sys.modules.items() if n.startswith("seqmeas")]
        for module in modules:
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        crb_check(default_setup(), 1000, 5, 1)
        # 5 laws inside sample, 1 for the bounds and the analytic variance
        assert calls == {"estimator_weights": 1, "joint_distribution": 6}

    def test_variance_identity_for_a(self, worked_setup):
        # Var(est_A) = 1 / (n I_A_joint) exactly under the multinomial law
        from seqmeas.montecarlo import _affine_variance

        w_a, _ = estimator_weights(worked_setup)
        law = joint_distribution(worked_setup).as_array()
        n = 12345
        assert _affine_variance(w_a, law, n) == pytest.approx(report_free_crb(worked_setup, n), rel=1e-12)


@pytest.mark.parametrize("check", [unbiasedness_check, crb_check])
def test_a_single_repeat_is_refused(worked_setup, check):
    # the spread of one estimate, and so its standard error and variance, is undefined
    with pytest.raises(InvalidParameter, match="repeats must be >= 2"):
        check(worked_setup, trials=1000, repeats=1, seed=3)


def report_free_crb(setup, trials):
    from seqmeas import precisions

    return 1.0 / (trials * precisions(setup).i_A_joint)
