"""Deterministic seeded sampling of the joint outcome law and statistical checks.

Two paths draw outcomes.  :func:`sample`, which ``estimate`` runs, hashes
trials: trial ``i`` draws the 64-bit word ``z_i``, a stateless
splitmix64-style hash of ``(seed, i)``, whose uniform [0, 1) variate is
``u_i = (z_i >> 11) 2^-53``.  A batch is a pure function of
``(setup, trials, seed)``, and the counts are bit-identical however the trial
range is sharded across workers.  Merging shards is plain count addition.  Each shard
hashes in buffers it allocates, so only the read-only table of counter offsets is kept.

The sampler forms no variate: ``u_i < c`` exactly when ``z_i >> 11 < ceil(c 2^53)``,
and both sides, below 2^54, are compared as the float64 values their bits stand for.
Non-negative IEEE doubles order as their bits do, subnormals included (each
``z_i >> 11 < 2^52`` is one), so this is exact unless subnormals are flushed to zero.

The statistical checks, which ``verify`` runs, read only the four counts of
each repeated batch, so they draw counts: all repeats of a check are one
multinomial draw from numpy's Philox generator keyed by the seed.

Estimates are affine functions of the observed cell frequencies and are never
clamped to [-1, 1]; standard errors are propagated exactly through the
multinomial covariance of the frequencies.

The statistical checks return their statistics as metric dicts and apply no
gate; :mod:`seqmeas.verify` decides pass or fail.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .correction import estimator_weights
from .coupling import JointSetup, joint_distribution
from .errors import DegenerateDistribution, InvalidParameter
from .fisher import cramer_rao_bound, joint_informations
from .qubit import _require_count, _require_finite, a_direction, expectation

_MASK64 = (1 << 64) - 1
_MAX_KEY = (1 << 128) - 1  # the largest Philox key, which seeds the checks' draws
_GOLDEN = 0x9E3779B97F4A7C15
# numpy scalars made once, not per chunk: the splitmix64 finalizer's steps, and the variate shift
_MIXERS = tuple((np.uint64(shift), np.uint64(multiplier))
                for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)))
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)

# Trials hashed as one array: a 2^16-element uint64 buffer is 512 KiB, so a
# chunk's counters, hash words and comparisons stay in a core's L2 cache.
_CHUNK = 1 << 16


def _aligned(n: int, dtype) -> np.ndarray:
    """An uninitialised ``n``-element array whose data starts on a 64-byte cache line.

    Large blocks from glibc's allocator start 16 bytes past a page boundary, so a chunk
    pass over them would straddle two cache lines with every SIMD load and store.
    """
    nbytes = n * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype)


@functools.cache
def _trial_offsets() -> np.ndarray:
    """``k G mod 2^64`` for ``k = 1 .. _CHUNK``, where ``G`` is ``_GOLDEN``.

    Trial ``lo + k - 1`` of a chunk starting at trial ``lo`` hashes the counter
    ``(lo + k) G + seed``, which is this table plus ``lo G + seed``: one add.
    Read-only, since every thread shares it; made on the first sample call,
    so that a run which samples nothing never pays for it.
    """
    offsets = np.multiply(np.arange(1, _CHUNK + 1, dtype=np.uint64), np.uint64(_GOLDEN),
                          out=_aligned(_CHUNK, np.uint64))
    offsets.flags.writeable = False
    return offsets


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place over uint64 ``z`` (returned); ``t`` is scratch."""
    for shift, multiplier in _MIXERS:
        z ^= np.right_shift(z, shift, out=t)
        z *= multiplier
    z ^= np.right_shift(z, _SHIFT_31, out=t)
    return z


def trial_uniforms(seed: int, start: int, stop: int, buffers) -> np.ndarray:
    """64-bit hash words of trials ``start .. stop-1`` for this seed, hashed in ``buffers``.

    Word ``z`` stands for the uniform [0, 1) variate ``(z >> 11) 2^-53``.  The first two
    of ``buffers`` are ``_CHUNK``-element uint64 arrays, words and scratch (a shard passes
    the triple it allocated, whose third is its mask), so at most ``_CHUNK`` trials are
    hashed, and the result is a view of the first, valid until it is passed again.
    """
    n = stop - start
    z, t = buffers[0][:n], buffers[1][:n]
    np.add(_trial_offsets()[:n], np.uint64((start * _GOLDEN + seed) & _MASK64), out=z)
    return _mix64(z, t)


@dataclass(frozen=True)
class TrialBatch:
    """Outcome counts of one batch, in the joint cell order (++, +-, -+, --)."""

    counts: tuple[int, int, int, int]
    trials: int


def _thresholds(cum: np.ndarray) -> np.ndarray:
    """``ceil(c 2^53)`` for ``c = cum[:3]`` clipped to [0, 1] (NaN as 0), its bits read as float64:
    trial i falls in a cell <= j (``cum`` is nondecreasing) iff ``z_i >> 11``, so read, is below."""
    c = np.clip(np.nan_to_num(cum[:3]), 0.0, 1.0)
    return np.ceil(c * 2.0**53).astype(np.uint64).view(np.float64)


def _counts_below(thresholds: np.ndarray, seed: int, start: int, stop: int) -> list[int]:
    """Trials ``start .. stop-1`` whose variates are below each threshold, hashed in a
    triple of ``_CHUNK``-element buffers (words, scratch, mask) that this call allocates."""
    k0, k1, k2 = thresholds.tolist()
    n0 = n1 = n2 = 0
    buffers = tuple(_aligned(_CHUNK, dtype) for dtype in (np.uint64, np.uint64, np.bool_))
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        z = trial_uniforms(seed, lo, hi, buffers)
        variates = np.right_shift(z, _SHIFT_11, out=z).view(np.float64)
        mask = buffers[2][:hi - lo]
        n0 += np.count_nonzero(np.less(variates, k0, out=mask))
        n1 += np.count_nonzero(np.less(variates, k1, out=mask))
        n2 += np.count_nonzero(np.less(variates, k2, out=mask))
    return [int(n0), int(n1), int(n2)]


def _thread_count(workers: int, trials: int) -> int:
    """Threads that ``workers`` gets: never more than the CPUs this process may run
    on, and every thread gets at least one whole chunk of trials."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, cpus, max(1, trials // _CHUNK))


def _scenario_law(setup: JointSetup) -> np.ndarray:
    """The joint law of a setup holding one scenario; a stack or a non-finite law is refused."""
    with np.errstate(invalid="ignore"):  # an infinite angle gives a NaN law, which is refused
        law = joint_distribution(setup)
    if law.shape != (4,):
        raise InvalidParameter(f"setup must hold one scenario, its law has shape {law.shape}")
    return _require_finite("joint law", law)


def sample(setup: JointSetup, trials: int, seed: int, workers: int = 1) -> TrialBatch:
    """Draw ``trials`` outcomes of the joint law; trial i depends only on (seed, i).

    Every shard, a lone one too, runs on a thread of its own, and a shard's exception
    is re-raised here; the caller only waits, so a tracer parents the shards on its open span.
    """
    trials = _require_count("trials", trials, 1)
    workers = _require_count("workers", workers, 1)
    seed = _require_count("seed", seed, 0, _MASK64)  # a larger seed would alias a smaller one
    thresholds = _thresholds(np.cumsum(_scenario_law(setup)))

    threads = _thread_count(workers, trials)
    bounds = np.linspace(0, trials, threads + 1, dtype=int).tolist()
    parts: list = [None] * threads
    errors: list[Exception] = []

    def run(k: int) -> None:
        try:
            parts[k] = _counts_below(thresholds, seed, bounds[k], bounds[k + 1])
        except Exception as exc:  # re-raised on the caller's thread below
            errors.append(exc)

    # daemon threads, which an interrupted caller need not wait for
    shards = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(threads)]
    for shard in shards:
        shard.start()
    for shard in shards:
        shard.join()
    if errors:
        raise errors[0]
    a, b, c = map(sum, zip(*parts))
    return TrialBatch(counts=(a, b - a, c - b, trials - c), trials=trials)


def _affine_variance(weights: np.ndarray, probs: np.ndarray, n: int) -> float:
    """Variance of ``weights . f`` when ``n f`` is multinomial(``n``, ``probs``)."""
    mean = float(weights @ probs)
    return (float(weights * weights @ probs) - mean * mean) / n


def estimate(batch: TrialBatch, weights: tuple[np.ndarray, np.ndarray]) -> dict:
    """Point estimates ``est_A``, ``est_B`` of both expectations from one batch, and their
    standard errors ``se_A``, ``se_B``, keyed in that order.

    ``weights`` is the pair ``(w_A, w_B)`` that :func:`estimator_weights`
    gives for the batch's setup.  Standard errors use the multinomial
    covariance of the observed frequencies (plug-in), propagated exactly
    through the affine maps.
    """
    w_a, w_b = weights
    f = np.array(batch.counts, dtype=float) / batch.trials
    return {
        "est_A": float(w_a @ f),
        "est_B": float(w_b @ f),
        "se_A": math.sqrt(max(0.0, _affine_variance(w_a, f, batch.trials))),
        "se_B": math.sqrt(max(0.0, _affine_variance(w_b, f, batch.trials))),
    }


def _z_score(mean: float, truth: float, se: float) -> float:
    """Standard score; a zero-variance, zero-bias result scores exactly 0."""
    bias = mean - truth
    if se == 0.0:
        return 0.0 if bias == 0.0 else math.copysign(math.inf, bias)
    return bias / se


def _batch_estimates(
    setup: JointSetup, trials: int, repeats: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Both estimates of ``repeats`` batches of ``trials`` outcomes, ``w_B`` and the law drawn.

    The batches' counts are one multinomial draw, keyed by ``seed``; ``np.random`` is
    looked up here, so that importing this module does not load it.
    """
    trials = _require_count("trials", trials, 1)
    repeats = _require_count("repeats", repeats, 2)  # the spread of fewer repeats is undefined
    seed = _require_count("seed", seed, 0, _MAX_KEY)
    law = _scenario_law(setup)
    w_a, w_b = estimator_weights(setup)  # also fails fast on degenerate couplings
    rng = np.random.Generator(np.random.Philox(key=seed))
    f = rng.multinomial(trials, law / law.sum(), size=repeats) / trials
    return f @ w_a, f @ w_b, w_b, law


def unbiasedness_check(setup: JointSetup, trials: int, repeats: int, seed: int) -> dict:
    """Standard scores and means of repeated estimates against the exact expectations."""
    est_a_vals, est_b_vals, _, _ = _batch_estimates(setup, trials, repeats, seed)
    true_a = expectation(setup.state, a_direction())
    true_b = expectation(setup.state, setup.b_dir)
    mean_a, mean_b = float(est_a_vals.mean()), float(est_b_vals.mean())
    se_a = float(est_a_vals.std(ddof=1)) / math.sqrt(repeats)
    se_b = float(est_b_vals.std(ddof=1)) / math.sqrt(repeats)
    return {
        "z_A": _z_score(mean_a, true_a, se_a),
        "z_B": _z_score(mean_b, true_b, se_b),
        "mean_A": mean_a,
        "mean_B": mean_b,
    }


def crb_check(setup: JointSetup, trials: int, repeats: int, seed: int) -> dict:
    """Ratios of the empirical estimator variances to their references, and the references.

    The A estimator saturates its bound by construction, so ``ratio_A``,
    its empirical variance over the bound ``crb_A``, concentrates near 1.  The B estimator
    also uses the meter record, which the B-channel Fisher information does
    not account for, so ``ratio_B`` divides by the exact multinomial variance
    ``var_B_analytic`` instead; the empirical variance, ``ratio_B var_B_analytic``,
    may be compared to ``crb_B``.
    """
    est_a_vals, est_b_vals, w_b, law = _batch_estimates(setup, trials, repeats, seed)
    i_a, i_b = joint_informations(law, setup.coupling)
    for info, channel in ((i_a, "meter (A channel)"), (i_b, "second measurement (B channel)")):
        if np.isnan(info):
            raise DegenerateDistribution(
                f"{channel} outcome distribution is degenerate; Fisher information diverges"
            )
    crb_a = cramer_rao_bound(i_a, trials)
    var_b_analytic = _affine_variance(w_b, law, trials)
    return {
        "ratio_A": float(est_a_vals.var(ddof=1)) / crb_a,
        "ratio_B": float(est_b_vals.var(ddof=1)) / var_b_analytic,
        "crb_A": crb_a,
        "crb_B": cramer_rao_bound(i_b, trials),
        "var_B_analytic": var_b_analytic,
    }
