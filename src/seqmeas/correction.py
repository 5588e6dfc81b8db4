"""Disturbance correction: recover undisturbed statistics from the observed laws.

The meter record determines the populations, so the coupling-independent part
of the second measurement's distribution can be reconstructed from it and
subtracted; dividing the remainder by the coherence factor ``deco`` undoes
the diminution of the coherent part.  Both maps are affine in the observed
frequencies, which is exactly what makes the expectation estimators unbiased
at every sample size.  The correction exists only for strictly weak,
strictly informative couplings: ``kappa = 0`` leaves nothing to reconstruct
the populations from and ``deco = 0`` has destroyed the coherent part.

Outputs are never clamped to [0, 1]; on noisy inputs they may leave the unit
interval and the caller can consult ``BinaryDistribution.within_unit_interval``
as an advisory check.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .coupling import BinaryDistribution, Coupling, JointDistribution, JointSetup
from .errors import DegenerateCoupling, InvalidParameter
from .qubit import ObservableDirection, PureState

# Couplings with kappa or deco below this are treated as degenerate rather
# than allowed to amplify noise without bound.
DEGENERACY_TOL = 1e-9

# Default tolerance of the ZNZD classification tests.
ZNZD_TOL = 1e-9


class ZnzdClass(enum.Enum):
    """Whether a pre-measurement leaves the second measurement's statistics unchanged."""

    TRIVIAL = "trivial_znzd"
    NONTRIVIAL = "nontrivial_znzd"
    NOT_ZNZD = "not_znzd"


def ensure_informative(c: Coupling) -> None:
    """Refuse couplings whose meter record carries no information (kappa = 0)."""
    if c.kappa < DEGENERACY_TOL:
        raise DegenerateCoupling(
            "kappa = 0: the meter record carries no information about the "
            "first observable (A channel)"
        )


def ensure_nonprojective(c: Coupling) -> None:
    """Refuse projective couplings; they destroy the coherent part (deco = 0)."""
    if c.deco < DEGENERACY_TOL:
        raise DegenerateCoupling(
            "projective pre-measurement (deco = 0): the coherent part needed "
            "to correct the second observable is destroyed (B channel)"
        )


def recover_a(p_m: BinaryDistribution, c: Coupling) -> BinaryDistribution:
    """Undisturbed outcome law of the first observable from the meter law.

    Inverts ``p(m) = kappa p_A + gamma_bar^2`` per outcome; on exact model
    probabilities this returns (sin^2 a, cos^2 a).
    """
    ensure_informative(c)
    gb2 = c.gamma_bar * c.gamma_bar
    return BinaryDistribution((p_m.p_plus - gb2) / c.kappa, (p_m.p_minus - gb2) / c.kappa)


def estimate_a(p_m: BinaryDistribution, c: Coupling) -> float:
    """Unbiased estimator of the first observable's expectation value.

    ``(p(m=+1) - p(m=-1)) / kappa``, affine in the observed frequencies.
    """
    rec = recover_a(p_m, c)
    return rec.p_plus - rec.p_minus


def _independent_part_from_meter(
    p_m: BinaryDistribution, direction: ObservableDirection, c: Coupling
) -> float:
    """Population-only part of the b law, reconstructed from the meter record."""
    ch = math.cos(0.5 * direction.theta) ** 2
    sh = math.sin(0.5 * direction.theta) ** 2
    gb2 = c.gamma_bar * c.gamma_bar
    return (ch * p_m.p_plus + sh * p_m.p_minus - gb2) / c.kappa


def recover_b(
    p_b: BinaryDistribution,
    p_m: BinaryDistribution,
    direction: ObservableDirection,
    c: Coupling,
) -> BinaryDistribution:
    """Undisturbed outcome law of the second observable.

    Reconstructs the coupling-independent part from the meter record,
    subtracts it, and rescales the coherent remainder by ``deco``.
    """
    ensure_informative(c)
    ensure_nonprojective(c)
    n_hat = _independent_part_from_meter(p_m, direction, c)
    scale = 1.0 - c.deco
    return BinaryDistribution(
        (p_b.p_plus - scale * n_hat) / c.deco,
        (p_b.p_minus - scale * (1.0 - n_hat)) / c.deco,
    )


def estimate_b(
    p_b: BinaryDistribution,
    p_m: BinaryDistribution,
    direction: ObservableDirection,
    c: Coupling,
) -> float:
    """Unbiased estimator of the second observable's expectation value.

    ``(p(b=+1) - p(b=-1) - (1 - deco) cos(theta) est_A) / deco``, affine in
    all four observed frequencies.
    """
    rec = recover_b(p_b, p_m, direction, c)
    return rec.p_plus - rec.p_minus


def estimator_weights(setup: JointSetup) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell weights ``(w_A, w_B)`` of both expectation estimators.

    Each weight is the estimator evaluated on a one-cell joint law; because
    the estimators are affine, ``w . f`` reproduces them on any joint cell
    frequencies ``f`` (cell order of :data:`JOINT_CELLS`).
    """
    d, c = setup.b_dir, setup.coupling
    laws = [JointDistribution(*cell) for cell in np.eye(4)]
    w_a = [estimate_a(law.meter_marginal(), c) for law in laws]
    w_b = [estimate_b(law.b_marginal(), law.meter_marginal(), d, c) for law in laws]
    return np.array(w_a), np.array(w_b)


def is_znzd(state: PureState, direction: ObservableDirection, tol: float = ZNZD_TOL) -> ZnzdClass:
    """Classify whether the pre-measurement disturbs the second measurement.

    The coherent term carries the factor
    ``sin(2 alpha) sin(theta) cos(varphi - phi)``.  It vanishes trivially
    when the state is an eigenstate of the first observable or the two
    observables commute; it vanishes nontrivially, for non-commuting
    observables and a non-eigenstate, exactly when ``cos(varphi - phi) = 0``.
    """
    if not (tol > 0.0):
        raise InvalidParameter(f"tol must be positive, got {tol!r}")
    sin_two_alpha = math.sin(2.0 * state.alpha)
    sin_theta = math.sin(direction.theta)
    if abs(sin_two_alpha) <= tol or abs(sin_theta) <= tol:
        return ZnzdClass.TRIVIAL
    if abs(math.cos(direction.varphi - state.phi)) <= tol:
        return ZnzdClass.NONTRIVIAL
    return ZnzdClass.NOT_ZNZD
