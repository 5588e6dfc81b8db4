import math
import os
import sys
import threading
import weakref
from statistics import NormalDist

import numpy as np
import pytest

from seqmeas import (
    Coupling,
    DegenerateCoupling,
    DegenerateDistribution,
    InvalidParameter,
    JointSetup,
    PureState,
    TrialBatch,
    a_direction,
    cramer_rao_bound,
    crb_check,
    estimate,
    estimator_weights,
    expectation,
    joint_distribution,
    make_direction,
    make_state,
    sample,
    tradeoff_curve,
    unbiasedness_check,
)
from seqmeas.coupling import GAMMA_MIN
import seqmeas.montecarlo as montecarlo
from seqmeas.montecarlo import (_affine_variance, _batch_estimates, _thread_count, _z_score,
                                trial_uniforms)
from seqmeas.verify import Z_LIMIT, default_setup, random_scenarios, stacked_setup

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIXERS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1))
# the CPUs this process may run on, which caps the shard threads
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def reference_word(seed, index):
    """Pure-python splitmix64 of (seed, index), as an independent reference."""
    z = (seed + (index + 1) * GOLDEN) & MASK64
    for shift, multiplier in MIXERS:
        z = ((z ^ (z >> shift)) * multiplier) & MASK64
    return z


def seed_drawing(word, index):
    """The seed whose trial ``index`` draws ``word``: each step of the hash is a bijection."""
    for shift, multiplier in reversed(MIXERS):
        z = word = word * pow(multiplier, -1, 2**64) & MASK64
        for _ in range(64 // shift):  # undo z ^= z >> shift, shift bits at a time
            word = z ^ (word >> shift)
    return (word - (index + 1) * GOLDEN) & MASK64


def reference_words(seed, lo, hi):
    """The hash words of trials lo .. hi-1 as one numpy expression, for long ranges."""
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(GOLDEN) + np.uint64(seed)
    for shift, multiplier in MIXERS:
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(multiplier)
    return z


def reference_uniform(seed, index):
    return (reference_word(seed, index) >> 11) * 2.0**-53


def uniforms(words):
    """The variates the hash words stand for: u = (z >> 11) 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def chunk_buffers():
    return np.empty(montecarlo._CHUNK, np.uint64), np.empty(montecarlo._CHUNK, np.uint64)


def hashed(seed, lo, hi):
    """The kernel's hash words of at most one chunk of trials, in buffers of their own."""
    return trial_uniforms(seed, lo, hi, chunk_buffers()).copy()


def kernel_counts(cum, seed, lo, hi):
    """The kernel's cell counts of trials lo .. hi-1 for the cumulative law ``cum``."""
    below = montecarlo._counts_below(montecarlo._thresholds(cum), seed, lo, hi)
    return np.diff(below, prepend=0, append=hi - lo)


def cumulative_law(setup):
    cum = np.cumsum(joint_distribution(setup))
    cum[-1] = 1.0
    return cum


def reference_counts(cum, seed, lo, hi):
    """Cell counts by binary search over the variates, independent of the kernel."""
    cells = np.searchsorted(cum, uniforms(reference_words(seed, lo, hi)), side="right")
    return np.bincount(cells, minlength=4)


ZERO_CELL_SETUP = JointSetup(  # law (0.25, 0, 0, 0.75): cum[0] == cum[1] == cum[2]
    make_state(math.pi / 6, 0.0), make_direction(0.0, 0.0), Coupling(1.0)
)


class TestCounterRng:
    def test_matches_scalar_reference(self):
        words = hashed(42, 0, 50)
        assert words.dtype == np.uint64
        u = uniforms(words)
        for i in range(50):
            assert int(words[i]) == reference_word(42, i)
            assert u[i] == reference_uniform(42, i)
        np.testing.assert_array_equal(reference_words(42, 0, 50), words)

    def test_range_slices_are_consistent(self):
        whole = hashed(7, 0, 1000)
        np.testing.assert_array_equal(whole[200:500], hashed(7, 200, 500))

    def test_unit_interval(self):
        u = uniforms(hashed(123456789, 0, 10000))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(hashed(1, 0, 100), hashed(2, 0, 100))

    def test_buffered_hash_equals_the_fresh_one(self):
        # buffers that earlier chunks were hashed in give the words of fresh ones
        buffers = chunk_buffers()
        chunk = montecarlo._CHUNK
        for seed, lo, hi in ((7, 0, 1000), (2**64 - 1, 12345, 12345 + chunk), (3, 5, 6)):
            buffered = trial_uniforms(seed, lo, hi, buffers)
            np.testing.assert_array_equal(buffered, hashed(seed, lo, hi))
            np.testing.assert_array_equal(buffered, reference_words(seed, lo, hi))


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
        trials = 7 * montecarlo._CHUNK + 1  # enough whole chunks for 7 shards
        serial = sample(worked_setup, trials, seed=13)
        for workers in (2, 3, 7):
            assert sample(worked_setup, trials, seed=13, workers=workers).counts == serial.counts

    def test_empirical_frequencies_converge(self, worked_setup):
        law = joint_distribution(worked_setup)
        n = 1_000_000
        failures = 0
        for seed in range(30):
            freq = np.array(sample(worked_setup, n, seed=seed).counts) / n
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
        counts = kernel_counts(cum, seed, lo, hi)
        np.testing.assert_array_equal(counts, reference_counts(cum, seed, lo, hi))


def defined_counts(cum, seed, lo, hi):
    """Cell counts straight from the definition: u_i < cum[j] for j < 3, over the
    pure-python variates, with no binary search and no integer threshold."""
    u = [reference_uniform(seed, i) for i in range(lo, hi)]
    below = [sum(x < c for x in u) for c in cum[:3].tolist()]
    return np.diff(below, prepend=0, append=hi - lo)


class TestWordThresholds:
    # the kernel compares z >> 11 with ceil(c 2^53), both read as float64, instead of u with c
    LO, HI, SEED = montecarlo._CHUNK - 700, montecarlo._CHUNK + 900, 29

    @pytest.mark.parametrize("towards", [-1.0, 0.0, 1.0], ids=["below", "equal", "above"])
    def test_threshold_at_a_drawn_variate_and_its_neighbours(self, towards):
        u = sorted({reference_uniform(self.SEED, i) for i in range(self.LO, self.HI)})
        # words whose low 11 bits are 0 equal their own variate's threshold word
        exact = [reference_uniform(self.SEED, i) for i in range(self.LO, self.HI)
                 if reference_word(self.SEED, i) % 2**11 == 0]
        assert exact
        for drawn in (u[0], u[len(u) // 3], u[-1], *exact):
            c = drawn if towards == 0.0 else float(np.nextafter(drawn, towards * np.inf))
            for cum in (np.array([c, c, c, 1.0]), np.array([0.0, c, 1.0, 1.0])):
                counts = kernel_counts(cum, self.SEED, self.LO, self.HI)
                np.testing.assert_array_equal(counts, defined_counts(cum, self.SEED, self.LO, self.HI))

    @pytest.mark.parametrize("c", [0.0, -1e-17, 1 - 2**-53, 1.0, 1 + 2**-52, 2**-1074,
                                   math.inf, -math.inf, math.nan])
    def test_edge_thresholds(self, c):
        for cum in (np.array([c, c, c, 1.0]), np.array([min(c, 0.25), 0.5, c, 1.0])):
            counts = kernel_counts(cum, self.SEED, self.LO, self.HI)
            np.testing.assert_array_equal(counts, defined_counts(cum, self.SEED, self.LO, self.HI))

    def test_chunk_start_that_wraps_the_word(self):
        seed, chunk = 2**64 - 1, montecarlo._CHUNK
        lo, hi = chunk // 3, chunk // 3 + chunk + 5  # two chunks, neither starting at a multiple
        assert (lo * GOLDEN + seed) > MASK64 and ((lo + chunk) * GOLDEN + seed) > MASK64
        cum = cumulative_law(JointSetup(make_state(0.4, 1.0), make_direction(1.2, 0.3),
                                        Coupling(0.9)))
        counts = kernel_counts(cum, seed, lo, hi)
        np.testing.assert_array_equal(counts, defined_counts(cum, seed, lo, hi))

    def test_thresholds_on_both_sides_of_one_half(self):
        # below c = 1/2 the thresholds are subnormal bit patterns, from it on normal ones
        u = [reference_uniform(self.SEED, i) for i in range(self.LO, self.HI)]
        nearest = (max(x for x in u if x < 0.5), min(x for x in u if x >= 0.5))
        cs = [0.5 - 2**-53, float(np.nextafter(0.5, 0.0)), 0.5, 0.5 + 2**-53, *nearest]
        cs += [float(np.nextafter(x, towards)) for x in nearest for towards in (0.0, 1.0)]
        for c in cs:
            threshold = montecarlo._thresholds(np.array([c, c, c, 1.0]))[0]
            assert (threshold < np.finfo(np.float64).tiny) == (c <= 0.5 - 2**-53)
            for cum in (np.array([c, c, c, 1.0]), np.array([0.0, c, 1.0, 1.0])):
                counts = kernel_counts(cum, self.SEED, self.LO, self.HI)
                np.testing.assert_array_equal(counts, defined_counts(cum, self.SEED, self.LO, self.HI))

    @pytest.mark.parametrize("word", [2**63 - 2**11 - 1, 2**63 - 2**11, 2**63 - 1, 2**63,
                                      2**63 + 2**11 - 1, 2**63 + 2**11])
    def test_words_on_both_sides_of_two_to_the_63(self, word):
        # z >> 11 below 2^52 reads as a subnormal float64, from 2^52 on as a normal one;
        # the drawn trial is the last of a chunk, and the range runs into the next one
        index = montecarlo._CHUNK - 1
        seed = seed_drawing(word, index)
        assert reference_word(seed, index) == word
        lo, hi = index - 3, index + 4
        for c in (0.5 - 2**-52, 0.5 - 2**-53, 0.5, 0.5 + 2**-53, 0.5 + 2**-52):
            for cum in (np.array([c, c, c, 1.0]), np.array([0.0, c, 1.0, 1.0])):
                np.testing.assert_array_equal(kernel_counts(cum, seed, lo, hi),
                                              defined_counts(cum, seed, lo, hi))


class TestOneShard:
    # one shard takes the same path as several: it runs on a thread of its own, one CPU or many
    def test_a_lone_shard_runs_off_the_callers_thread(self, worked_setup, monkeypatch):
        real = montecarlo._counts_below
        threads = []

        def spy(thresholds, seed, start, stop):
            threads.append(threading.get_ident())
            return real(thresholds, seed, start, stop)

        monkeypatch.setattr(montecarlo, "_counts_below", spy)
        batch = sample(worked_setup, 1000, seed=21, workers=4)  # 1000 trials: one shard
        assert len(threads) == 1 and threads[0] != threading.get_ident()
        assert batch.counts == tuple(reference_counts(cumulative_law(worked_setup), 21, 0, 1000))

    def test_a_lone_shards_exception_reaches_the_caller(self, worked_setup, monkeypatch):
        def failing(thresholds, seed, start, stop):
            raise RuntimeError("shard failed")

        monkeypatch.setattr(montecarlo, "_counts_below", failing)
        with pytest.raises(RuntimeError, match="shard failed"):
            sample(worked_setup, 1000, seed=21)


@pytest.mark.skipif(CPUS < 2, reason="two shards need two CPUs")
class TestThreadFanOut:
    # each test starts exactly the two shard threads of one sample call
    def test_one_thread_per_shard_and_the_caller_only_waits(self, worked_setup, monkeypatch):
        real = montecarlo._counts_below
        threads = []
        both_alive = threading.Barrier(2, timeout=10)  # no shard ends before the other starts

        def spy(thresholds, seed, start, stop):
            threads.append(threading.get_ident())
            both_alive.wait()
            return real(thresholds, seed, start, stop)

        monkeypatch.setattr(montecarlo, "_counts_below", spy)
        batch = sample(worked_setup, 300_000, seed=21, workers=2)
        assert len(threads) == len(set(threads)) == 2
        assert threading.get_ident() not in threads
        expected = reference_counts(cumulative_law(worked_setup), 21, 0, 300_000)
        assert batch.counts == tuple(expected)

    def test_shard_exception_reaches_the_caller(self, worked_setup, monkeypatch):
        real = montecarlo._counts_below

        def failing(thresholds, seed, start, stop):
            if start > 0:
                raise RuntimeError("shard failed")
            return real(thresholds, seed, start, stop)

        monkeypatch.setattr(montecarlo, "_counts_below", failing)
        with pytest.raises(RuntimeError, match="shard failed"):
            sample(worked_setup, 300_000, seed=21, workers=2)


class TestChunkBuffers:
    # every shard hashes in a triple of chunk buffers that it allocates for its call, so no
    # two shards and no two calls share one

    def test_interleaved_calls_leak_nothing_between_calls(self, worked_setup):
        calls = [(worked_setup, 100_001, 5, 1), (ZERO_CELL_SETUP, 1, 7, 1),
                 (worked_setup, 2**17 + 3, 2**64 - 1, 2), (ZERO_CELL_SETUP, 300_000, 0, 1),
                 (worked_setup, 17, 42, 3), (worked_setup, 100_001, 5, 1)]
        for setup, trials, seed, workers in calls:
            expected = reference_counts(cumulative_law(setup), seed, 0, trials)
            assert sample(setup, trials, seed, workers=workers).counts == tuple(expected)

    def test_concurrent_callers_get_their_own_buffers(self, worked_setup):
        # more callers than cores, switching often: shared buffers would mix their counts
        seeds = (1, 2, 3, 4)
        expected = {seed: sample(worked_setup, 200_003, seed).counts for seed in seeds}
        seen = {seed: set() for seed in seeds}
        start = threading.Barrier(len(seeds), timeout=10)

        def run(seed):
            start.wait()
            for _ in range(5):
                seen[seed].add(sample(worked_setup, 200_003, seed).counts)

        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {seed: {counts} for seed, counts in expected.items()}


class TestAlignedBuffers:
    # the kernel's passes run over arrays that start on a 64-byte cache line

    @pytest.mark.parametrize("dtype", [np.uint64, np.bool_, np.float64])
    @pytest.mark.parametrize("n", [1, 7, montecarlo._CHUNK])
    def test_aligned_arrays(self, n, dtype):
        for _ in range(4):  # fresh blocks land at different offsets
            array = montecarlo._aligned(n, dtype)
            assert array.shape == (n,) and array.dtype == dtype
            assert array.flags.c_contiguous and array.flags.writeable
            assert array.ctypes.data % 64 == 0

    @pytest.mark.skipif(CPUS < 2, reason="two shards need two CPUs")
    def test_offsets_and_shard_buffers_start_on_a_cache_line(self, worked_setup, monkeypatch):
        # both shards hold their triple at once, so distinct triples have distinct addresses;
        # the spy keeps only weak references, which die when the call drops its buffers
        real = montecarlo.trial_uniforms
        both_hold_a_triple = threading.Barrier(2, timeout=10)
        held = {}

        def spy(seed, start, stop, buffers):
            if threading.get_ident() not in held:
                held[threading.get_ident()] = [
                    (b.dtype, b.shape, b.ctypes.data, weakref.ref(b)) for b in buffers]
                both_hold_a_triple.wait()
            return real(seed, start, stop, buffers)

        monkeypatch.setattr(montecarlo, "trial_uniforms", spy)
        trials = 3 * montecarlo._CHUNK + 11  # each shard ends on a partial chunk
        expected = reference_counts(cumulative_law(worked_setup), 5, 0, trials)
        assert sample(worked_setup, trials, 5, workers=2).counts == tuple(expected)
        assert len(held) == 2
        for triple in held.values():
            assert [dtype for dtype, _, _, _ in triple] == [np.uint64, np.uint64, np.bool_]
            assert all(shape == (montecarlo._CHUNK,) for _, shape, _, _ in triple)
            assert all(address % 64 == 0 for _, _, address, _ in triple)
            assert all(ref() is None for _, _, _, ref in triple)  # no buffer outlives its call
        addresses = [address for triple in held.values() for _, _, address, _ in triple]
        assert len(set(addresses)) == 6
        offsets = montecarlo._trial_offsets()
        assert offsets.ctypes.data % 64 == 0 and not offsets.flags.writeable

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [1, 2**16 - 1, 2**16 + 1, 3 * 2**16 + 11])
    def test_partial_chunks_count_as_the_reference(self, worked_setup, trials, workers):
        expected = reference_counts(cumulative_law(worked_setup), 17, 0, trials)
        counts = sample(worked_setup, trials, 17, workers=workers).counts
        assert counts == tuple(expected)
        assert all(type(c) is int for c in counts)


class TestEstimate:
    def test_plug_in_consistency_exact_batch(self):
        # theta=0, gamma^2=0.8, sin^2 a = 0.25: joint cells are (0.2, 0.15, 0.05, 0.6)
        setup = JointSetup(
            make_state(math.pi / 6, 0.0), make_direction(0.0, 0.0), Coupling(math.sqrt(0.8))
        )
        law = joint_distribution(setup)
        np.testing.assert_allclose(law, [0.2, 0.15, 0.05, 0.6], atol=1e-12)
        batch = TrialBatch(counts=(20, 15, 5, 60), trials=100)
        stats = estimate(batch, estimator_weights(setup))
        assert list(stats) == ["est_A", "est_B", "se_A", "se_B"]
        assert stats["est_A"] == pytest.approx(-0.5, abs=1e-12)
        assert stats["est_B"] == pytest.approx(-0.5, abs=1e-12)

    def test_ideal_proportions_scenario(self, worked_setup):
        batch = TrialBatch(counts=(348205, 1795, 498205, 151795), trials=1_000_000)
        stats = estimate(batch, estimator_weights(worked_setup))
        assert stats["est_A"] == pytest.approx(-0.5, abs=1e-12)
        assert stats["est_B"] == pytest.approx(math.sqrt(3) / 2, abs=1e-6)

    def test_single_trial_estimates_leave_unit_interval(self):
        setup = JointSetup(
            make_state(math.pi / 6, 0.0), make_direction(math.pi / 2, 0.0), Coupling(math.sqrt(0.8))
        )
        batch = TrialBatch(counts=(1, 0, 0, 0), trials=1)
        stats = estimate(batch, estimator_weights(setup))
        assert stats["est_A"] == pytest.approx(1.0 / 0.6, abs=1e-9)
        assert stats["est_B"] == pytest.approx(1.25, abs=1e-9)

    def test_standard_error_identity_for_a(self, worked_setup):
        batch = sample(worked_setup, 200_000, seed=17)
        stats = estimate(batch, estimator_weights(worked_setup))
        f = np.array(batch.counts) / batch.trials
        fm_plus, fm_minus = f[0] + f[1], f[2] + f[3]
        kappa = worked_setup.coupling.kappa
        expected = math.sqrt(4 * fm_plus * fm_minus / (batch.trials * kappa**2))
        assert stats["se_A"] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_couplings_refuse(self):
        state, direction = make_state(0.6, 0.0), make_direction(1.0, 0.0)
        batch = TrialBatch(counts=(2, 3, 4, 1), trials=10)
        # the weights an estimate needs refuse the coupling
        with pytest.raises(DegenerateCoupling, match="A channel"):
            estimate(batch, estimator_weights(JointSetup(state, direction, Coupling(GAMMA_MIN))))
        with pytest.raises(DegenerateCoupling, match="B channel"):
            estimate(batch, estimator_weights(JointSetup(state, direction, Coupling(1.0))))


class TestThreadCount:
    # checked on the helper alone: no thread is started
    def test_capped_by_cores(self):
        # the CPUs this process may run on, not all the machine's
        assert _thread_count(10**9, 10**12) == CPUS
        assert _thread_count(2**63, 2**63) == CPUS

    def test_capped_by_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _thread_count(4, 10**9) == 1

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _thread_count(4, 10**9) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert _thread_count(4, 10**9) == 1

    def test_capped_by_trials(self):
        # every thread gets at least one whole chunk
        chunk = montecarlo._CHUNK
        assert _thread_count(10**9, 1) == 1
        assert _thread_count(10**9, 2 * chunk - 1) == 1
        assert _thread_count(10**9, 2 * chunk) == min(2, CPUS)

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
        metrics = crb_check(worked_setup, trials=10_000, repeats=20, seed=5)
        assert list(metrics) == ["ratio_A", "ratio_B", "crb_A", "crb_B", "var_B_analytic"]
        # I_A_joint = kappa^2/4 / (0.35 * 0.65)
        expected_crb = 1.0 / (10_000 * (0.09 / 0.2275))
        assert metrics["crb_A"] == pytest.approx(expected_crb, rel=1e-9)
        assert metrics["var_B_analytic"] > 0.0
        assert metrics["crb_B"] == pytest.approx(1.0 / (10_000 * 0.16 / 0.13), rel=1e-9)
        # the empirical B variance, from the same draws, is ratio_B times its reference
        _, est_b_vals, _, _ = _batch_estimates(worked_setup, trials=10_000, repeats=20, seed=5)
        var_b = float(est_b_vals.var(ddof=1))
        assert var_b == pytest.approx(metrics["ratio_B"] * metrics["var_B_analytic"], rel=1e-12)

    def test_ratios_concentrate(self, worked_setup):
        # each ratio is chi^2_4999 / 4999 over 5000 repeats of normal estimates: outside the
        # band with probability 7.4e-7, so a correct run fails at most 1.5e-6 of the time
        metrics = crb_check(worked_setup, trials=100_000, repeats=5000, seed=9)
        assert 0.9 <= metrics["ratio_A"] <= 1.1
        assert 0.9 <= metrics["ratio_B"] <= 1.1

    @pytest.mark.parametrize("scale", [1.25, 0.75])
    def test_a_wrong_reference_variance_leaves_the_band(self, worked_setup, monkeypatch, scale):
        # negative control of the band above: references scaled by 1.25 or 0.75 put each
        # ratio near 0.8 or 1.33, outside [0.9, 1.1] at every seed; at 200 repeats, 8 and 3
        # of these 40 seeds landed a wrong ratio inside it
        real_bound, real_variance = montecarlo.cramer_rao_bound, montecarlo._affine_variance
        monkeypatch.setattr(montecarlo, "cramer_rao_bound",
                            lambda fi, trials: scale * real_bound(fi, trials))
        monkeypatch.setattr(montecarlo, "_affine_variance",
                            lambda weights, probs, n: scale * real_variance(weights, probs, n))
        for seed in range(40):
            metrics = crb_check(worked_setup, trials=100_000, repeats=5000, seed=seed)
            for ratio in (metrics["ratio_A"], metrics["ratio_B"]):
                assert not 0.9 <= ratio <= 1.1, (seed, ratio)

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
        # one law for the draws, the bounds and the analytic variance
        assert calls == {"estimator_weights": 1, "joint_distribution": 1}

    def test_a_degenerate_b_law_raises(self):
        # |0> and n = z: b = +1 with certainty, so the B-channel information diverges
        setup = JointSetup(make_state(math.pi / 2, 0.0), make_direction(0.0, 0.0), Coupling(0.9))
        with pytest.raises(DegenerateDistribution, match="second measurement"):
            crb_check(setup, trials=100, repeats=2, seed=1)

    def test_variance_identity_for_a(self, worked_setup):
        # Var(est_A) = 1 / (n I_A_joint) exactly under the multinomial law
        w_a, _ = estimator_weights(worked_setup)
        law = joint_distribution(worked_setup)
        n = 12345
        assert _affine_variance(w_a, law, n) == pytest.approx(report_free_crb(worked_setup, n), rel=1e-12)


def chi2_quantile(dof: int, p: float) -> float:
    """The ``p`` quantile of the chi-squared law with ``dof`` degrees of freedom, by the
    Wilson-Hilferty cube-root normal approximation; at 1000 and 19 000 dofs, the tail beyond
    it is within 1 % of the target from 5e-7 to 1 - 5e-7."""
    z = NormalDist().inv_cdf(p)
    return dof * (1.0 - 2.0 / (9.0 * dof) + z * math.sqrt(2.0 / (9.0 * dof))) ** 3


def test_sampled_estimates_over_random_scenarios_match_their_laws():
    # The drawn batches against the exact laws of 1000 random scenarios, n_z != 0 included, so
    # the population term of w_B is sampled too.  Per estimator, the scaled squared biases of
    # the scenarios' means pool to chi^2 with `count` dofs, and their scaled sample variances
    # to chi^2 with count (repeats - 1) dofs.  Each comparison below fails a correct draw with
    # probability 1e-6 (the two-sided ones split it between their tails).
    false_failure, count, trials, repeats = 1e-6, 1000, 100_000, 20
    bias = np.zeros(2)
    spread = np.zeros(2)
    for k, row in enumerate(random_scenarios(count, seed=6)):
        setup = stacked_setup(row)
        est_a, est_b, w_b, law = _batch_estimates(setup, trials, repeats, seed=k)
        w_a, _ = estimator_weights(setup)
        truths = (expectation(setup.state, a_direction()), expectation(setup.state, setup.b_dir))
        for j, (est, w, truth) in enumerate(zip((est_a, est_b), (w_a, w_b), truths)):
            var = _affine_variance(w, law, trials)
            bias[j] += (est.mean() - truth) ** 2 / (var / repeats)
            spread[j] += (repeats - 1) * est.var(ddof=1) / var
    assert np.all(bias < chi2_quantile(count, 1.0 - false_failure)), bias
    dof = count * (repeats - 1)
    low, high = (chi2_quantile(dof, p) for p in (false_failure / 2, 1.0 - false_failure / 2))
    assert np.all((low < spread) & (spread < high)), (spread, low, high)


@pytest.mark.parametrize("check", [unbiasedness_check, crb_check])
def test_a_single_repeat_is_refused(worked_setup, check):
    # the spread of one estimate, and so its standard error and variance, is undefined
    with pytest.raises(InvalidParameter, match="repeats must be an integer >= 2"):
        check(worked_setup, trials=1000, repeats=1, seed=3)


# Each count a caller passes, the name its refusal gives, and a call that takes it as n.
COUNT_CALLS = {
    "sample trials": ("trials", lambda setup, n: sample(setup, n, 1)),
    "sample workers": ("workers", lambda setup, n: sample(setup, 1000, 1, workers=n)),
    "unbiasedness_check repeats": ("repeats", lambda setup, n: unbiasedness_check(setup, 1000, n, 3)),
    "unbiasedness_check trials": ("trials", lambda setup, n: unbiasedness_check(setup, n, 5, 3)),
    "crb_check repeats": ("repeats", lambda setup, n: crb_check(setup, 1000, n, 3)),
    "crb_check trials": ("trials", lambda setup, n: crb_check(setup, n, 5, 3)),
    "tradeoff_curve grid": ("grid", lambda setup, n: tradeoff_curve(setup.state, setup.b_dir, n)),
    "cramer_rao_bound trials": ("trials", lambda setup, n: cramer_rao_bound(1.0, n)),
}


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
@pytest.mark.parametrize("name, call", COUNT_CALLS.values(), ids=list(COUNT_CALLS))
def test_a_count_that_is_not_an_integer_is_refused(worked_setup, name, call, bad):
    # 2.5 trials used to draw 2 and count a fraction; a float or a bool is refused, not truncated
    with pytest.raises(InvalidParameter, match=rf"^{name} must be an integer >= [12], got {bad!r}$"):
        call(worked_setup, bad)


def test_a_numpy_integer_count_samples_as_the_int_does():
    setup = default_setup()
    batch = sample(setup, np.int64(300_001), 5, workers=np.int64(2))
    assert batch == sample(setup, 300_001, 5, workers=2)
    assert [type(n) for n in (*batch.counts, batch.trials)] == [int] * 5


# Each seeded call by its prefix in the test ids, the largest seed it takes and that seed
# plus one as the ids write it: sample hashes 64-bit words, and the checks key a 128-bit
# Philox generator.
SEED_CALLS = {
    "": (lambda setup, seed: sample(setup, 1000, seed), 2**64 - 1, "2^64"),
    "unbiasedness_check ": (lambda setup, seed: unbiasedness_check(setup, 1000, 5, seed),
                            2**128 - 1, "2^128"),
    "crb_check ": (lambda setup, seed: crb_check(setup, 1000, 5, seed), 2**128 - 1, "2^128"),
}
SEED_CASES = [
    pytest.param(call, high, bad, id=f"{prefix}{label}")
    for prefix, (call, high, above) in SEED_CALLS.items()
    for bad, label in ((-1, "-1"), (high + 1, above), (high + 6, f"{above}+5"), (2.5, "2.5"),
                       (True, "True"), (np.float64(3), "float64"))
]


@pytest.mark.parametrize("call, high, bad", SEED_CASES)
def test_a_seed_outside_64_bits_or_not_an_integer_is_refused(call, high, bad):
    # 2^64 + 5 used to alias seed 5 in sample, the checks masked seeds -1 and 2^70 to 64 bits,
    # and 2.5 raised a bare TypeError in the hash
    with pytest.raises(InvalidParameter, match=rf"^seed must be an integer in \[0, {high}\], got "):
        call(default_setup(), bad)


@pytest.mark.parametrize("rows", [3, 1])
@pytest.mark.parametrize("call", [call for call, _, _ in SEED_CALLS.values()],
                         ids=[prefix.strip() or "sample" for prefix in SEED_CALLS])
def test_a_stack_of_scenarios_is_refused(call, rows):
    # sample used to take the thresholds from the flattened (4, rows) law, and the checks
    # failed with a bare numpy shape mismatch, a one-row stack too
    setup = stacked_setup(random_scenarios(rows, seed=0))
    with pytest.raises(InvalidParameter, match=rf"^setup must hold one scenario, its law has "
                                               rf"shape \(4, {rows}\)$"):
        call(setup, 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [call for call, _, _ in SEED_CALLS.values()],
                         ids=[prefix.strip() or "sample" for prefix in SEED_CALLS])
def test_a_non_finite_law_is_refused(call, value):
    # a state built without make_state's check has a NaN law: sample used to count every
    # trial in the last cell, and the checks failed with numpy's bare "pvals" ValueError
    setup = JointSetup(PureState(value, 0.0), make_direction(1.0, 0.0), Coupling(0.9))
    with pytest.raises(InvalidParameter, match=r"^joint law must be finite, got nan$"):
        call(setup, 1)


@pytest.mark.parametrize("seed", [np.uint64(5), 2**64 - 1, np.uint64(2**64 - 1)],
                         ids=["uint64", "2^64-1", "uint64 2^64-1"])
def test_a_seed_in_64_bits_samples_as_the_int_does(seed):
    setup = default_setup()
    batch = sample(setup, 100_003, seed)
    assert batch == sample(setup, 100_003, int(seed))
    assert batch != sample(setup, 100_003, int(seed) - 1)  # another seed draws other counts


def report_free_crb(setup, trials):
    from seqmeas import precisions

    return 1.0 / (trials * precisions(setup)["i_A_joint"])
