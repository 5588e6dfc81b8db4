"""Disturbance correction: estimate undisturbed expectations from the observed law.

The meter record determines the populations, so the coupling-independent part
of the second measurement's distribution can be reconstructed from it and
subtracted; dividing the remainder by the coherence factor ``deco`` undoes
the diminution of the coherent part.  Both estimators are affine in the
observed joint frequencies, so each is one weight vector over the four joint
cells (:func:`estimator_weights`), which is exactly what makes them unbiased
at every sample size.  The correction exists only for strictly weak,
strictly informative couplings: ``kappa = 0`` leaves nothing to reconstruct
the populations from and ``deco = 0`` has destroyed the coherent part.

Estimates are never clamped to [-1, 1]; on noisy frequencies they may leave
that interval.
"""

from __future__ import annotations

import enum

import numpy as np

from .coupling import JOINT_CELLS, Coupling, JointSetup
from .errors import DegenerateCoupling, InvalidParameter
from .qubit import ObservableDirection, PureState, angular_factors

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
    if np.any(c.kappa < DEGENERACY_TOL):
        raise DegenerateCoupling(
            "kappa = 0: the meter record carries no information about the "
            "first observable (A channel)"
        )


def ensure_nonprojective(c: Coupling) -> None:
    """Refuse projective couplings; they destroy the coherent part (deco = 0)."""
    if np.any(c.deco < DEGENERACY_TOL):
        raise DegenerateCoupling(
            "projective pre-measurement (deco = 0): the coherent part needed "
            "to correct the second observable is destroyed (B channel)"
        )


def estimator_weights(setup: JointSetup) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell weights ``(w_A, w_B)`` of both expectation estimators.

    ``w_A . f = (f(m=+1) - f(m=-1)) / kappa`` inverts ``p(m) = kappa p_A +
    gamma_bar^2``.  ``w_B . f`` subtracts from ``f(b=+1) - f(b=-1)`` its
    coupling-independent part, which the meter record gives as
    ``(1 - deco) cos(theta) w_A . f``, and divides the coherent remainder by
    ``deco``.  ``f`` holds the joint cell frequencies in the order of
    :data:`JOINT_CELLS`; for a stack of scenarios the weights, like the
    cells, run along the first axis.
    """
    c = setup.coupling
    ensure_informative(c)
    ensure_nonprojective(c)
    # the signs of m and of b per cell, broadcast over a stack of scenarios
    m_sign, b_sign = np.reshape(np.transpose(JOINT_CELLS), (2, 4) + (1,) * np.ndim(c.kappa))
    w_a = m_sign / c.kappa
    population_part = (1.0 - c.deco) * np.cos(setup.b_dir.theta) * w_a
    return w_a, (b_sign - population_part) / c.deco


def check_tol(tol: float) -> float:
    """The classification tolerance ``tol``, refused unless it is positive."""
    if not (tol > 0.0):
        raise InvalidParameter(f"tol must be positive, got {tol!r}")
    return tol


def znzd_masks(state: PureState, direction: ObservableDirection, tol: float = ZNZD_TOL):
    """Boolean masks ``(trivial, nontrivial)`` of the ZNZD classes, for one pair or a stack.

    The coherent term carries the factor
    ``sin(2 alpha) sin(theta) cos(varphi - phi)``.  It vanishes trivially
    when the state is an eigenstate of the first observable or the two
    observables commute; it vanishes nontrivially, for non-commuting
    observables and a non-eigenstate, exactly when ``cos(varphi - phi) = 0``.
    ``trivial`` has the broadcast shape of alpha and theta, ``nontrivial`` that of all four.
    """
    check_tol(tol)
    sin_two_alpha, sin_theta, cos_delta = angular_factors(state, direction)
    trivial = (np.abs(sin_two_alpha) <= tol) | (np.abs(sin_theta) <= tol)
    return trivial, ~trivial & (np.abs(cos_delta) <= tol)


def is_znzd(state: PureState, direction: ObservableDirection, tol: float = ZNZD_TOL) -> ZnzdClass:
    """Classify whether the pre-measurement disturbs the second measurement (:func:`znzd_masks`)."""
    trivial, nontrivial = znzd_masks(state, direction, tol)
    return (ZnzdClass.TRIVIAL if trivial else ZnzdClass.NONTRIVIAL if nontrivial
            else ZnzdClass.NOT_ZNZD)
