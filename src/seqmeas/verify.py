"""Self-verification suites: oracle equivalence, correction round trips, statistics.

Each suite returns a :class:`SuiteResult`; :func:`run_verification` bundles the
five standard suites.  The suites are deterministic for a given seed (scenario
sampling uses a seeded generator, Monte Carlo uses the counter-based sampler),
so a verification run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .correction import (
    ZnzdClass,
    ensure_informative,
    ensure_nonprojective,
    estimator_weights,
    is_znzd,
)
from .coupling import (
    GAMMA_MIN,
    JOINT_CELLS,
    Coupling,
    JointSetup,
    entangled_state,
    joint_distribution,
    joint_law,
    post_measurement_density,
)
from .errors import DegenerateCoupling
from .montecarlo import crb_check, unbiasedness_check
from .qubit import a_direction, expectation, make_direction, make_state

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
    alpha, phi, theta, varphi, gamma = DEFAULT_SCENARIO
    return JointSetup(make_state(alpha, phi), make_direction(theta, varphi), Coupling(gamma))


def random_setups(count: int, seed: int, gamma_range=RANDOM_GAMMA_RANGE) -> list[JointSetup]:
    """Uniformly random scenarios, reproducible for a given seed."""
    rng = np.random.default_rng(seed)
    setups = []
    for _ in range(count):
        state = make_state(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        direction = make_direction(rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        setups.append(JointSetup(state, direction, Coupling(rng.uniform(*gamma_range))))
    return setups


def suite_oracle_equivalence(count: int = 1000, seed: int = 0) -> SuiteResult:
    """Closed forms against the brute-force tensor simulation."""
    worst = 0.0
    for setup in random_setups(count, seed):
        ref = oracle.simulate(setup)
        law = joint_distribution(setup)
        p_m, p_b = law.meter_marginal(), law.b_marginal()
        rho = post_measurement_density(setup).entries
        errs = [
            float(np.max(np.abs(entangled_state(setup) - ref.state))),
            abs(p_m.p_plus - ref.meter_probs[0]),
            abs(p_m.p_minus - ref.meter_probs[1]),
            abs(p_b.p_plus - ref.b_probs[0]),
            abs(p_b.p_minus - ref.b_probs[1]),
            float(np.max(np.abs(rho - ref.density))),
            max(abs(p - ref.joint[cell]) for p, cell in zip(law.as_array(), JOINT_CELLS)),
        ]
        worst = max(worst, max(float(e) for e in errs))
    return SuiteResult(
        name="oracle_equivalence",
        passed=worst <= ORACLE_TOL,
        detail=f"max deviation {worst:.3e} over {count} scenarios (tol {ORACLE_TOL:g})",
        metrics={"max_error": worst, "count": count},
    )


def suite_round_trip(count: int = 1000, seed: int = 1) -> SuiteResult:
    """The estimator weights invert the exact model laws; degenerate couplings refuse."""
    worst = 0.0
    for setup in random_setups(count, seed):
        w_a, w_b = estimator_weights(setup)
        law = joint_distribution(setup).as_array()
        true_a = expectation(setup.state, a_direction())
        true_b = expectation(setup.state, setup.b_dir)
        worst = max(worst, abs(float(w_a @ law) - true_a), abs(float(w_b @ law) - true_b))
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
    workers: int = 1,
) -> SuiteResult:
    """Mean of repeated estimates within ``Z_LIMIT`` standard errors of truth."""
    metrics = unbiasedness_check(setup, trials, repeats, seed, workers=workers)
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
    workers: int = 1,
) -> SuiteResult:
    """Variance ratios against the saturated bound and the multinomial propagation."""
    metrics, var_b = crb_check(setup, trials, repeats, seed, workers=workers)
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


def znzd_states(count: int, seed: int, nontrivial: bool) -> list[tuple]:
    """Random (state, direction) pairs, ZNZD or safely non-ZNZD."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        alpha = rng.uniform(0.15, math.pi / 2 - 0.15)
        theta = rng.uniform(0.3, math.pi - 0.3)
        varphi = rng.uniform(0.0, 2.0 * math.pi)
        if nontrivial:
            phi = varphi + (math.pi / 2 if rng.random() < 0.5 else -math.pi / 2)
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            if abs(math.cos(varphi - phi)) < 0.05:
                continue
        pairs.append((make_state(alpha, phi), make_direction(theta, varphi)))
    return pairs


def b_variation_over_gamma(state, direction, points: int = 50) -> float:
    """Spread of the +1 probability of b across the whole coupling range."""
    cells = joint_law(state, direction, np.linspace(GAMMA_MIN, 1.0, points))
    return float(np.ptp(cells[0] + cells[2]))


def suite_znzd(count: int = 100, seed: int = 4, grid: int = 50) -> SuiteResult:
    """Coupling invariance of b statistics exactly on the ZNZD locus."""
    worst_invariance = 0.0
    for state, direction in znzd_states(count, seed, nontrivial=True):
        if is_znzd(state, direction) is not ZnzdClass.NONTRIVIAL:
            return SuiteResult("znzd", False, "a constructed ZNZD state was not classified as such")
        worst_invariance = max(worst_invariance, b_variation_over_gamma(state, direction, grid))
    least_variation = math.inf
    for state, direction in znzd_states(count, seed + 1, nontrivial=False):
        if is_znzd(state, direction) is not ZnzdClass.NOT_ZNZD:
            return SuiteResult("znzd", False, "a generic state was misclassified as ZNZD")
        least_variation = min(least_variation, b_variation_over_gamma(state, direction, grid))
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
    seed: int = 0,
    trials: int | None = None,
    repeats: int | None = None,
    workers: int = 1,
) -> list[SuiteResult]:
    """All five standard suites; ``trials``/``repeats`` override both statistical suites."""
    setup = default_setup()
    sizes = {name: value for name, value in (("trials", trials), ("repeats", repeats))
             if value is not None}
    return [
        suite_oracle_equivalence(seed=seed),
        suite_round_trip(seed=seed + 1),
        suite_unbiasedness(setup, seed=seed + 2, workers=workers, **sizes),
        suite_crb(setup, seed=seed + 3, workers=workers, **sizes),
        suite_znzd(seed=seed + 4),
    ]
