"""Deterministic seeded sampling of the joint outcome law and statistical checks.

Randomness is counter-based: the uniform variate of trial ``i`` is a stateless
splitmix64-style hash of ``(seed, i)``, so a batch is a pure function of
``(setup, trials, seed)`` and the counts are bit-identical however the trial
range is sharded across workers.  Merging shards is plain count addition.

Estimates are affine functions of the observed cell frequencies and are never
clamped to [-1, 1]; standard errors are propagated exactly through the
multinomial covariance of the frequencies.

The statistical checks return their statistics as metric dicts and apply no
gate; :mod:`seqmeas.verify` decides pass or fail.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .correction import estimator_weights
from .coupling import JointSetup, joint_distribution
from .errors import InvalidParameter
from .fisher import _b_information, _meter_information, cramer_rao_bound
from .qubit import a_direction, expectation

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM = 0xD1B54A32D192ED03

# Trials materialized as one array: a 2^16-element uint64 buffer is 512 KiB,
# so a chunk's hash, variates and comparisons stay in a core's L2 cache.
_CHUNK = 1 << 16


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place over uint64 ``z`` (returned); ``t`` is scratch."""
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(multiplier)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def trial_uniforms(seed: int, start: int, stop: int) -> np.ndarray:
    """Uniform [0, 1) variates of trials ``start .. stop-1`` for this seed."""
    z = np.arange(start + 1, stop + 1, dtype=np.uint64)
    t = np.empty_like(z)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(seed & _MASK64)
    np.right_shift(_mix64(z, t), np.uint64(11), out=z)
    # k * 2^-53 is exact for k < 2^53; the variates reuse the scratch buffer
    return np.multiply(z, 2.0**-53, out=t.view(np.float64), casting="unsafe")


def derive_seed(seed: int, stream: int) -> int:
    """Independent child seed for repeat ``stream`` of a master seed."""
    z = np.array([(seed + (stream + 1) * _STREAM) & _MASK64], dtype=np.uint64)
    return int(_mix64(z, np.empty_like(z))[0])


@dataclass(frozen=True)
class TrialBatch:
    """Outcome counts of one batch, in the joint cell order (++, +-, -+, --)."""

    counts: tuple[int, int, int, int]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameter(f"trials must be >= 1, got {self.trials!r}")
        if any(c < 0 for c in self.counts):
            raise InvalidParameter(f"counts must be non-negative, got {self.counts!r}")
        if sum(self.counts) != self.trials:
            raise InvalidParameter(
                f"counts {self.counts!r} do not sum to trials {self.trials!r}"
            )

    def frequencies(self) -> np.ndarray:
        return np.array(self.counts, dtype=float) / self.trials


@dataclass(frozen=True)
class SampleStats:
    """Point estimates of both expectations with multinomial standard errors."""

    est_A: float
    est_B: float
    se_A: float
    se_B: float


def _counts_for_range(cum: np.ndarray, seed: int, start: int, stop: int) -> np.ndarray:
    # trial i falls in a cell <= j exactly when u_i < cum[j] (cum is nondecreasing)
    below = np.zeros(3, dtype=np.int64)
    for lo in range(start, stop, _CHUNK):
        u = trial_uniforms(seed, lo, min(lo + _CHUNK, stop))
        below += [np.count_nonzero(u < c) for c in cum[:3]]
    return np.diff(below, prepend=0, append=stop - start)


def _thread_count(workers: int, trials: int) -> int:
    """Threads that ``workers`` gets: never more than the cores or the trials."""
    return min(workers, os.cpu_count() or 1, trials)


def sample(setup: JointSetup, trials: int, seed: int, workers: int = 1) -> TrialBatch:
    """Draw ``trials`` outcomes of the joint law; trial i depends only on (seed, i).

    Several shards run one per thread and a shard's exception is re-raised here;
    the caller only waits, so a tracer parents the shards on its open span.
    """
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials!r}")
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers!r}")
    law = joint_distribution(setup)
    cum = np.cumsum(law.as_array())

    threads = _thread_count(workers, trials)
    bounds = np.linspace(0, trials, threads + 1, dtype=int).tolist()
    parts: list = [None] * threads
    errors: list[Exception] = []

    def run(k: int) -> None:
        try:
            parts[k] = _counts_for_range(cum, seed, bounds[k], bounds[k + 1])
        except Exception as exc:  # re-raised on the caller's thread below
            errors.append(exc)

    if threads == 1:  # a single shard runs on the caller's thread and starts none
        run(0)
    else:  # daemon threads, which an interrupted caller need not wait for
        shards = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(threads)]
        for shard in shards:
            shard.start()
        for shard in shards:
            shard.join()
    if errors:
        raise errors[0]
    counts = sum(parts)
    return TrialBatch(counts=tuple(int(c) for c in counts), trials=trials, seed=seed)


def _affine_variance(weights: np.ndarray, probs: np.ndarray, n: int) -> float:
    """Variance of ``weights . f`` when ``n f`` is multinomial(``n``, ``probs``)."""
    mean = float(weights @ probs)
    return (float(weights * weights @ probs) - mean * mean) / n


def estimate(batch: TrialBatch, weights: tuple[np.ndarray, np.ndarray]) -> SampleStats:
    """Point estimates of both expectations from one batch.

    ``weights`` is the pair ``(w_A, w_B)`` that :func:`estimator_weights`
    gives for the batch's setup.  Standard errors use the multinomial
    covariance of the observed frequencies (plug-in), propagated exactly
    through the affine maps.
    """
    w_a, w_b = weights
    f = batch.frequencies()
    return SampleStats(
        est_A=float(w_a @ f),
        est_B=float(w_b @ f),
        se_A=math.sqrt(max(0.0, _affine_variance(w_a, f, batch.trials))),
        se_B=math.sqrt(max(0.0, _affine_variance(w_b, f, batch.trials))),
    )


def _z_score(mean: float, truth: float, se: float) -> float:
    """Standard score; a zero-variance, zero-bias result scores exactly 0."""
    bias = mean - truth
    if se == 0.0:
        return 0.0 if bias == 0.0 else math.copysign(math.inf, bias)
    return bias / se


def _batch_estimates(
    setup: JointSetup, trials: int, repeats: int, seed: int, workers: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if repeats < 2:  # the spread of fewer repeats is undefined
        raise InvalidParameter(f"repeats must be >= 2, got {repeats!r}")
    w_a, w_b = estimator_weights(setup)  # also fails fast on degenerate couplings
    est_a_vals = np.empty(repeats)
    est_b_vals = np.empty(repeats)
    for r in range(repeats):
        f = sample(setup, trials, derive_seed(seed, r), workers=workers).frequencies()
        est_a_vals[r] = w_a @ f
        est_b_vals[r] = w_b @ f
    return est_a_vals, est_b_vals, w_b


def unbiasedness_check(
    setup: JointSetup, trials: int, repeats: int, seed: int, workers: int = 1
) -> dict:
    """Standard scores and means of repeated estimates against the exact expectations."""
    est_a_vals, est_b_vals, _ = _batch_estimates(setup, trials, repeats, seed, workers)
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


def crb_check(
    setup: JointSetup, trials: int, repeats: int, seed: int, workers: int = 1
) -> tuple[dict, float]:
    """Metrics of the empirical estimator variances, and the B estimator's variance.

    The A estimator saturates its bound by construction, so ``ratio_A``,
    its empirical variance over the bound, concentrates near 1.  The B estimator
    also uses the meter record, which the B-channel Fisher information does
    not account for, so ``ratio_B`` divides by the exact multinomial variance
    ``var_B_analytic`` instead; the caller may compare the variance to ``crb_B``.
    """
    est_a_vals, est_b_vals, w_b = _batch_estimates(setup, trials, repeats, seed, workers)
    var_b = float(est_b_vals.var(ddof=1))
    law = joint_distribution(setup)
    crb_a = cramer_rao_bound(_meter_information(law.meter_marginal(), setup.coupling), trials)
    var_b_analytic = _affine_variance(w_b, law.as_array(), trials)
    return {
        "ratio_A": float(est_a_vals.var(ddof=1)) / crb_a,
        "ratio_B": var_b / var_b_analytic,
        "crb_A": crb_a,
        "crb_B": cramer_rao_bound(_b_information(law.b_marginal(), setup.coupling), trials),
        "var_B_analytic": var_b_analytic,
    }, var_b
