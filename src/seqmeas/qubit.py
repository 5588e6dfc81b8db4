"""Qubit states, Bloch-direction observables and expectation values.

Conventions used throughout the package:

* The signal state is the pure qubit ``sin(alpha)|0> + cos(alpha) e^{i phi}|1>``.
  A global phase is fixed so that the |0> amplitude is real and non-negative.
  Its Bloch vector is ``(sin 2alpha cos phi, sin 2alpha sin phi, -cos 2alpha)``.
* An observable is a unit Bloch direction
  ``n = (sin theta cos varphi, sin theta sin varphi, cos theta)`` standing for
  ``sigma . n``, so ``<sigma . n> = <sigma_z> n_z + t`` with the transverse term
  ``t = sin 2alpha sin theta cos(varphi - phi)`` (:func:`bloch_terms`).  The
  first (weakly measured) observable is the ``theta = 0`` instance, i.e.
  sigma_z with |0> <-> +1 and |1> <-> -1.  The +1/-1 labels of ``sigma . n``
  are its eigenvalues, as the oracle's eigendecomposition takes them.
* Outcomes are labelled +1/-1 everywhere, never 0/1.

Angles are accepted anywhere on the real line and reduced to canonical ranges;
the reduction only ever changes an unobservable global phase.  :func:`make_state`
and :func:`make_direction` called on arrays of angles give a :class:`PureState`
or :class:`ObservableDirection` that stands for a stack of scenarios, and the
amplitudes, the Bloch direction and the Bloch terms are then arrays too.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

TWO_PI = 2.0 * math.pi


def _field(value: np.ndarray) -> float | np.ndarray:
    """A float for one scenario, the array for a stack, as :class:`Coupling` stores them."""
    return value if value.ndim else float(value)


def _require_finite(name: str, value, low: float = -math.inf, high: float = math.inf,
                    interval: str = "") -> float | np.ndarray:
    """Finite reals; given an ``interval``, within 1e-12 of [low, high] and clipped into it."""
    value = np.asarray(value, dtype=float)
    bad = value[~np.isfinite(value)]  # the first is named, not the whole stack
    if bad.size:
        raise InvalidParameter(f"{name} must be finite, got {bad[0].item()!r}")
    if interval:  # no array pass for the angles, which have no interval
        bad = value[(value < low - 1e-12) | (value > high + 1e-12)]
        if bad.size:
            raise InvalidParameter(f"{name} must lie in {interval}, got {bad[0].item()!r}")
        value = np.clip(value, low, high)
    return _field(value)


def _require_count(name: str, value, low: int, high: int | None = None) -> int:
    """An integer in ``[low, high]``: a float or a bool is refused, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidParameter(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _wrap_two_pi(angle: float | np.ndarray) -> np.ndarray:
    wrapped = np.fmod(angle, TWO_PI)  # not np.mod, which turns -0.0 into +0.0
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)  # tiny negatives can round up to 2 pi


@dataclass(frozen=True)
class PureState:
    """Signal qubit ``sin(alpha)|0> + cos(alpha) e^{i phi}|1>``, canonical phase."""

    alpha: float
    phi: float

    @property
    def amplitudes(self) -> tuple[complex, complex]:
        return (
            np.sin(self.alpha) + 0j,
            np.cos(self.alpha) * (np.cos(self.phi) + 1j * np.sin(self.phi)),
        )

    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


@dataclass(frozen=True)
class ObservableDirection:
    """Unit Bloch direction defining the observable ``sigma . n``."""

    theta: float
    varphi: float

    @property
    def n_vec(self) -> tuple[float, float, float]:
        st = np.sin(self.theta)
        return (st * np.cos(self.varphi), st * np.sin(self.varphi), np.cos(self.theta))


def make_state(alpha: float | np.ndarray, phi: float | np.ndarray) -> PureState:
    """Build the signal state, reducing angles to their canonical ranges.

    alpha is folded into [0, pi] (so the |0> amplitude is non-negative) and
    phi into [0, 2 pi).  Shifting alpha by pi multiplies both amplitudes by -1,
    a pure global phase, so the reduction leaves every probability unchanged.
    """
    a = _wrap_two_pi(_require_finite("alpha", alpha))
    a = np.where(a > math.pi, a - math.pi, a)
    return PureState(_field(a), _field(_wrap_two_pi(_require_finite("phi", phi))))


def make_direction(theta: float | np.ndarray, varphi: float | np.ndarray) -> ObservableDirection:
    """Build an observable direction with theta in [0, pi], varphi in [0, 2 pi)."""
    t = _wrap_two_pi(_require_finite("theta", theta))
    varphi = _require_finite("varphi", varphi)
    flip = t > math.pi
    t = np.where(flip, TWO_PI - t, t)
    varphi = np.where(flip, varphi + math.pi, varphi)
    return ObservableDirection(_field(t), _field(_wrap_two_pi(varphi)))


def a_direction() -> ObservableDirection:
    """Direction of the first observable (sigma_z)."""
    return ObservableDirection(theta=0.0, varphi=0.0)


def angular_factors(state: PureState, direction: ObservableDirection) -> tuple[float, float, float]:
    """``sin(2 alpha)``, ``sin(theta)`` and ``cos(varphi - phi)``: the transverse term's angles."""
    return (np.sin(2.0 * state.alpha), np.sin(direction.theta),
            np.cos(direction.varphi - state.phi))


def bloch_terms(state: PureState, direction: ObservableDirection) -> tuple[float, float, float]:
    """``(<sigma_z>, n_z, t)``, the terms of ``<sigma . n> = <sigma_z> n_z + t``.

    ``<sigma_z> = -cos(2 alpha)`` and ``n_z = cos(theta)``; the transverse term
    ``t = sin(2 alpha) sin(theta) cos(varphi - phi)`` is the only one that reads
    the state's coherence.
    """
    sin_two_alpha, sin_theta, cos_delta = angular_factors(state, direction)
    return (-np.cos(2.0 * state.alpha), np.cos(direction.theta),
            sin_two_alpha * sin_theta * cos_delta)


def born_probability(state: PureState, direction: ObservableDirection, sign: int) -> float:
    """Probability ``(1 + sign <sigma . n>) / 2`` of outcome ``sign`` (+1 or -1) on each state."""
    if sign not in (+1, -1):
        raise InvalidParameter(f"sign must be +1 or -1, got {sign!r}")
    return np.clip(0.5 * (1.0 + sign * expectation(state, direction)), 0.0, 1.0)


def expectation(state: PureState, direction: ObservableDirection) -> float:
    """Expectation value ``<sigma_z> n_z + t`` of ``sigma . n`` on the state."""
    sigma_z, n_z, t = bloch_terms(state, direction)
    return sigma_z * n_z + t
