"""Self-verification suites: oracle equivalence, correction round trips, statistics.

Each suite returns a :class:`SuiteResult`; :func:`run_verification` bundles the
five standard suites.  The suites are deterministic for a given seed (scenario
sampling uses a seeded generator, and the two statistical suites draw the counts
of all their repeated batches as one seeded multinomial draw; no suite hashes
trials, which only ``estimate`` does), so a verification run is reproducible
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .correction import ensure_informative, ensure_nonprojective, estimator_weights, znzd_masks
from .coupling import (
    GAMMA_MIN,
    Coupling,
    JointSetup,
    b_law,
    entangled_state,
    joint_distribution,
    meter_law,
    post_measurement_density,
)
from .errors import DegenerateCoupling
from .montecarlo import crb_check, unbiasedness_check
from .qubit import (TWO_PI, ObservableDirection, PureState, a_direction, expectation,
                    make_direction, make_state)

# Coupling range for randomized oracle comparisons; strictly inside the domain
# so that the correction round trip is well defined on the same draws.
RANDOM_GAMMA_RANGE = (0.7072, 0.9999)

# Default scenario of the CLI and the statistical suites:
# alpha=pi/6, phi=0, theta=pi/2, varphi=0, gamma^2=0.8.
DEFAULT_SCENARIO = (math.pi / 6, 0.0, math.pi / 2, 0.0, math.sqrt(0.8))

# Verdict-stability band for the variance-ratio suite (about 3 sigma at 200
# repeats); tighter bands are meaningful only at a pinned seed.
VERIFY_RATIO_BAND = (0.7, 1.3)

# |z| below which a mean estimate passes the unbiasedness suite.
Z_LIMIT = 5.0

# Relative slack with which the B estimator's variance may undercut its bound.
CRB_TOLERANCE = 0.1

# Largest closed-form deviation the oracle and round-trip suites accept.
ORACLE_TOL = 1e-10
ROUND_TRIP_TOL = 1e-10

# Largest coupling drift of b on the ZNZD locus, and least variation off it.
ZNZD_INVARIANCE_TOL = 1e-12
ZNZD_VARIATION_FLOOR = 1e-6


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


def default_setup() -> JointSetup:
    return stacked_setup(np.array(DEFAULT_SCENARIO))


def random_scenarios(count: int, seed: int, gamma_range=RANDOM_GAMMA_RANGE) -> np.ndarray:
    """Uniformly random scenarios as ``(count, 5)`` rows (alpha, phi, theta, varphi, gamma).

    Reproducible for a given seed: row k holds the five draws that
    ``rng.uniform`` would give the k-th scenario, column by column.
    """
    low, high = gamma_range
    lows = np.array([0.0, 0.0, 0.0, 0.0, low])
    widths = np.array([math.pi, 2.0 * math.pi, math.pi, 2.0 * math.pi, high - low])
    return lows + widths * np.random.default_rng(seed).random((count, 5))


def stacked_setup(scenarios: np.ndarray) -> JointSetup:
    """One setup holding the columns of :func:`random_scenarios`, which the closed forms
    broadcast over; one row gives one scenario."""
    alpha, phi, theta, varphi, gamma = scenarios.T
    return JointSetup(make_state(alpha, phi), make_direction(theta, varphi), Coupling(gamma))


def _largest(deviations) -> float:
    """Largest absolute entry of the deviation arrays; 0 when they are empty."""
    return max(float(np.max(np.abs(d), initial=0.0)) for d in deviations)


def suite_oracle_equivalence(count: int = 1000, seed: int = 0) -> SuiteResult:
    """Closed forms against the brute-force tensor simulation, over all scenarios at once."""
    scenarios = random_scenarios(count, seed)
    setup = stacked_setup(scenarios)
    state, meter_probs, density, b_probs, joint = oracle.simulate_stack(*scenarios.T)
    law = joint_distribution(setup)
    worst = _largest([
        entangled_state(setup).T - state,
        np.transpose(meter_law(law)) - meter_probs,
        np.transpose(b_law(law)) - b_probs,
        post_measurement_density(setup) - density,
        law.T - joint,
    ])
    return SuiteResult(
        name="oracle_equivalence",
        passed=worst <= ORACLE_TOL,
        detail=f"max deviation {worst:.3e} over {count} scenarios (tol {ORACLE_TOL:g})",
        metrics={"max_error": worst, "count": count},
    )


def suite_round_trip(count: int = 1000, seed: int = 1) -> SuiteResult:
    """The estimator weights invert the exact model laws; degenerate couplings refuse."""
    setup = stacked_setup(random_scenarios(count, seed))
    w_a, w_b = estimator_weights(setup)
    law = joint_distribution(setup)
    worst = _largest([
        np.sum(w_a * law, axis=0) - expectation(setup.state, a_direction()),
        np.sum(w_b * law, axis=0) - expectation(setup.state, setup.b_dir),
    ])
    errors_ok = _degenerate_couplings_refuse()
    return SuiteResult(
        name="round_trip_correction",
        passed=worst <= ROUND_TRIP_TOL and errors_ok,
        detail=(
            f"max deviation {worst:.3e} over {count} scenarios (tol {ROUND_TRIP_TOL:g}); "
            f"degenerate couplings refuse: {errors_ok}"
        ),
        metrics={"max_error": worst, "count": count},
    )


def _refuses(check, arg) -> bool:
    """Whether ``check(arg)`` raises :class:`DegenerateCoupling`."""
    try:
        check(arg)
    except DegenerateCoupling:
        return True
    return False


def _degenerate_couplings_refuse() -> bool:
    """kappa = 0 must refuse both channels (w_B is built on w_A), deco = 0 only the B channel."""
    setup = default_setup()
    zero_strength, projective = Coupling(GAMMA_MIN), Coupling(1.0)
    return (
        _refuses(ensure_informative, zero_strength)
        and _refuses(estimator_weights, replace(setup, coupling=zero_strength))
        and _refuses(ensure_nonprojective, projective)
        and _refuses(estimator_weights, replace(setup, coupling=projective))
        and not _refuses(ensure_informative, projective)  # A channel is fine at full strength
    )


def suite_unbiasedness(
    setup: JointSetup,
    trials: int = 1_000_000,
    repeats: int = 30,
    seed: int = 2,
) -> SuiteResult:
    """Mean of repeated estimates within ``Z_LIMIT`` standard errors of truth."""
    metrics = unbiasedness_check(setup, trials, repeats, seed)
    z_a, z_b = metrics["z_A"], metrics["z_B"]
    return SuiteResult(
        name="unbiasedness",
        passed=abs(z_a) < Z_LIMIT and abs(z_b) < Z_LIMIT,
        detail=f"z_A {z_a:+.2f}, z_B {z_b:+.2f} ({repeats} x {trials} trials, limit {Z_LIMIT:g})",
        metrics=metrics,
    )


def suite_crb(
    setup: JointSetup,
    trials: int = 100_000,
    repeats: int = 200,
    seed: int = 3,
) -> SuiteResult:
    """Variance ratios against the saturated bound and the multinomial propagation."""
    metrics, var_b = crb_check(setup, trials, repeats, seed)
    ratio_a, ratio_b = metrics["ratio_A"], metrics["ratio_B"]
    lo, hi = VERIFY_RATIO_BAND
    meets_bound = var_b >= metrics["crb_B"] * (1.0 - CRB_TOLERANCE)
    return SuiteResult(
        name="cramer_rao",
        passed=lo <= ratio_a <= hi and lo <= ratio_b <= hi,
        detail=(
            f"ratio_A {ratio_a:.3f}, ratio_B {ratio_b:.3f} "
            f"(band [{lo:g}, {hi:g}], {repeats} x {trials} trials; "
            f"B meets its own bound: {meets_bound})"
        ),
        metrics=metrics,
    )


def znzd_states(count: int, seed: int, nontrivial: bool) -> tuple[PureState, ObservableDirection]:
    """Random (state, direction) pairs as one stack, ZNZD or safely non-ZNZD.

    Pair k takes four draws: alpha, theta, varphi, then the side of phi's quarter turn
    from varphi (ZNZD) or phi (generic, drawn again while |cos(varphi - phi)| < 0.05).
    """
    rng = np.random.default_rng(seed)
    lows = np.array([0.15, 0.3, 0.0, 0.0])
    highs = np.array([math.pi / 2 - 0.15, math.pi - 0.3, TWO_PI, 1.0 if nontrivial else TWO_PI])
    rows = np.empty((0, 4))
    while len(rows) < count:
        block = lows + (highs - lows) * rng.random((count - len(rows), 4))
        if not nontrivial:
            block = block[np.abs(np.cos(block[:, 2] - block[:, 3])) >= 0.05]
        rows = np.concatenate([rows, block])
    alpha, theta, varphi, last = rows.T
    if nontrivial:
        last = varphi + np.where(last < 0.5, math.pi / 2, -math.pi / 2)
    return make_state(alpha, last), make_direction(theta, varphi)


def b_variation_over_gamma(state, direction, points: int = 50):
    """Spread of the +1 probability of b across the whole coupling range.

    The state and the direction may be stacks of pairs (see :func:`znzd_states`);
    the coupling grid runs along its own first axis, and the spread is taken
    over it, one per pair.
    """
    gammas = np.linspace(GAMMA_MIN, 1.0, points).reshape((points,) + (1,) * np.ndim(state.alpha))
    cells = joint_distribution(JointSetup(state, direction, Coupling(gammas)))
    return np.ptp(b_law(cells)[0], axis=0)


def suite_znzd(count: int = 100, seed: int = 4, grid: int = 50) -> SuiteResult:
    """Coupling invariance of b statistics exactly on the ZNZD locus."""
    znzd = znzd_states(count, seed, nontrivial=True)
    if not znzd_masks(*znzd)[1].all():
        return SuiteResult("znzd", False, "a constructed ZNZD state was not classified as such")
    generic = znzd_states(count, seed + 1, nontrivial=False)
    if np.logical_or(*znzd_masks(*generic)).any():
        return SuiteResult("znzd", False, "a generic state was misclassified as ZNZD")
    worst_invariance = float(np.max(b_variation_over_gamma(*znzd, grid), initial=0.0))
    least_variation = float(np.min(b_variation_over_gamma(*generic, grid), initial=math.inf))
    return SuiteResult(
        name="znzd",
        passed=worst_invariance <= ZNZD_INVARIANCE_TOL and least_variation > ZNZD_VARIATION_FLOOR,
        detail=(
            f"max ZNZD drift {worst_invariance:.3e} (tol {ZNZD_INVARIANCE_TOL:g}); "
            f"min generic variation {least_variation:.3e} (floor {ZNZD_VARIATION_FLOOR:g})"
        ),
        metrics={"max_drift": worst_invariance, "min_variation": least_variation},
    )


def run_verification(
    seed: int = 0, trials: int | None = None, repeats: int | None = None
) -> list[SuiteResult]:
    """All five standard suites; ``trials``/``repeats`` override both statistical suites."""
    setup = default_setup()
    sizes = {name: value for name, value in (("trials", trials), ("repeats", repeats))
             if value is not None}
    return [
        suite_oracle_equivalence(seed=seed),
        suite_round_trip(seed=seed + 1),
        suite_unbiasedness(setup, seed=seed + 2, **sizes),
        suite_crb(setup, seed=seed + 3, **sizes),
        suite_znzd(seed=seed + 4),
    ]
