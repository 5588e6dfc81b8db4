"""Self-verification suites: oracle equivalence, correction round trips, statistics.

Each suite returns a :class:`SuiteResult`; :func:`run_verification` bundles the
five standard suites.  The suites are deterministic for a given seed (scenario
sampling uses a seeded generator, Monte Carlo uses the counter-based sampler),
so a verification run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .correction import ZnzdClass, is_znzd, recover_a, recover_b
from .coupling import (
    GAMMA_MIN,
    JOINT_CELLS,
    Coupling,
    JointSetup,
    b_probabilities,
    entangled_state,
    joint_distribution,
    joint_law,
    meter_probabilities,
    post_measurement_density,
)
from .errors import DegenerateCoupling
from .montecarlo import Z_LIMIT, crb_check, unbiasedness_check
from .qubit import born_probability, make_direction, make_state

# Coupling range for randomized oracle comparisons; strictly inside the domain
# so that the correction round trip is well defined on the same draws.
RANDOM_GAMMA_RANGE = (0.7072, 0.9999)

# Default scenario of the CLI and the statistical suites:
# alpha=pi/6, phi=0, theta=pi/2, varphi=0, gamma^2=0.8.
DEFAULT_SCENARIO = (math.pi / 6, 0.0, math.pi / 2, 0.0, math.sqrt(0.8))

# Verdict-stability band for the variance-ratio suite (about 3 sigma at 200
# repeats); tighter bands are meaningful only at a pinned seed.
VERIFY_RATIO_BAND = (0.7, 1.3)


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


def suite_oracle_equivalence(count: int = 1000, seed: int = 0, tol: float = 1e-10) -> SuiteResult:
    """Closed forms against the brute-force tensor simulation."""
    worst = 0.0
    for setup in random_setups(count, seed):
        ref = oracle.simulate(setup)
        p_m = meter_probabilities(setup)
        p_b = b_probabilities(setup)
        law = joint_distribution(setup)
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
    passed = worst <= tol
    return SuiteResult(
        name="oracle_equivalence",
        passed=passed,
        detail=f"max deviation {worst:.3e} over {count} scenarios (tol {tol:g})",
        metrics={"max_error": worst, "count": count},
    )


def suite_round_trip(count: int = 1000, seed: int = 1, tol: float = 1e-10) -> SuiteResult:
    """Correction maps invert the exact model laws; degenerate couplings refuse."""
    worst = 0.0
    for setup in random_setups(count, seed):
        law = joint_distribution(setup)
        p_m, p_b = law.meter_marginal(), law.b_marginal()
        rec_a = recover_a(p_m, setup.coupling)
        rec_b = recover_b(p_b, p_m, setup.b_dir, setup.coupling)
        s2 = math.sin(setup.state.alpha) ** 2
        born_plus = born_probability(setup.state, setup.b_dir, +1)
        worst = max(
            worst,
            abs(rec_a.p_plus - s2),
            abs(rec_a.p_minus - (1.0 - s2)),
            abs(rec_b.p_plus - born_plus),
            abs(rec_b.p_minus - (1.0 - born_plus)),
        )
    errors_ok = _degenerate_couplings_refuse()
    passed = worst <= tol and errors_ok
    return SuiteResult(
        name="round_trip_correction",
        passed=passed,
        detail=(
            f"max deviation {worst:.3e} over {count} scenarios (tol {tol:g}); "
            f"degenerate couplings refuse: {errors_ok}"
        ),
        metrics={"max_error": worst, "count": count},
    )


def _refuses(recover, *args) -> bool:
    """Whether ``recover(*args)`` raises :class:`DegenerateCoupling`."""
    try:
        recover(*args)
    except DegenerateCoupling:
        return True
    return False


def _degenerate_couplings_refuse() -> bool:
    """kappa = 0 must fail both channels, deco = 0 only the B channel."""
    setup = default_setup()
    law = joint_distribution(setup)
    p_m, p_b = law.meter_marginal(), law.b_marginal()
    zero_strength = Coupling(GAMMA_MIN)
    projective = Coupling(1.0)
    return (
        _refuses(recover_a, p_m, zero_strength)
        and _refuses(recover_b, p_b, p_m, setup.b_dir, zero_strength)
        and _refuses(recover_b, p_b, p_m, setup.b_dir, projective)
        and not _refuses(recover_a, p_m, projective)  # A channel is fine at full strength
    )


def suite_unbiasedness(
    setup: JointSetup,
    trials: int = 1_000_000,
    repeats: int = 30,
    seed: int = 2,
    workers: int = 1,
) -> SuiteResult:
    """Mean of repeated estimates within ``Z_LIMIT`` standard errors of truth."""
    rep = unbiasedness_check(setup, trials, repeats, seed, workers=workers)
    return SuiteResult(
        name="unbiasedness",
        passed=rep.pass_A and rep.pass_B,
        detail=(
            f"z_A {rep.z_A:+.2f}, z_B {rep.z_B:+.2f} "
            f"({repeats} x {trials} trials, limit {Z_LIMIT:g})"
        ),
        metrics={"z_A": rep.z_A, "z_B": rep.z_B, "mean_A": rep.mean_A, "mean_B": rep.mean_B},
    )


def suite_crb(
    setup: JointSetup,
    trials: int = 100_000,
    repeats: int = 200,
    seed: int = 3,
    workers: int = 1,
) -> SuiteResult:
    """Variance ratios against the saturated bound and the multinomial propagation."""
    rep = crb_check(setup, trials, repeats, seed, workers=workers)
    lo, hi = VERIFY_RATIO_BAND
    passed = lo <= rep.ratio_A <= hi and lo <= rep.ratio_B <= hi
    return SuiteResult(
        name="cramer_rao",
        passed=passed,
        detail=(
            f"ratio_A {rep.ratio_A:.3f}, ratio_B {rep.ratio_B:.3f} "
            f"(band [{lo:g}, {hi:g}], {repeats} x {trials} trials; "
            f"B meets its own bound: {rep.var_B_meets_crb})"
        ),
        metrics={
            "ratio_A": rep.ratio_A,
            "ratio_B": rep.ratio_B,
            "crb_A": rep.crb_A,
            "crb_B": rep.crb_B,
            "var_B_analytic": rep.var_B_analytic,
        },
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


def suite_znzd(
    count: int = 100,
    seed: int = 4,
    grid: int = 50,
    invariance_tol: float = 1e-12,
    variation_floor: float = 1e-6,
) -> SuiteResult:
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
    passed = worst_invariance <= invariance_tol and least_variation > variation_floor
    return SuiteResult(
        name="znzd",
        passed=passed,
        detail=(
            f"max ZNZD drift {worst_invariance:.3e} (tol {invariance_tol:g}); "
            f"min generic variation {least_variation:.3e} (floor {variation_floor:g})"
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
