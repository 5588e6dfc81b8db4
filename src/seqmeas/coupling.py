"""Signal-meter coupling model for the sequential measurement of two observables.

The signal qubit is entangled with a meter qubit by a coupling of real
amplitude ``gamma`` (``gamma**2 + gamma_bar**2 = 1``).  Reading the meter out
projectively realizes a weak measurement of sigma_z on the signal with
strength ``kappa = 2 gamma**2 - 1``; the surviving fraction of the signal's
off-diagonal coherence is ``deco = 2 gamma gamma_bar``.  The two derived
quantities satisfy ``kappa**2 + deco**2 = 1`` identically.

A subsequent projective measurement of ``sigma . n`` on the partially
decohered signal sees probabilities that split into a coupling-independent
part (populations only) and a coherent part diminished by ``deco``.  This
module provides the entangled state, the exact joint law of the two
sequential outcomes (the primitive: both marginal outcome laws are sums of
its cells, and sampling draws from it), the reduced density matrix and that
decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .qubit import (
    DensityMatrix,
    ObservableDirection,
    PureState,
)

GAMMA_MIN = 1.0 / math.sqrt(2.0)

# Slack for accepting gamma values that round just outside [1/sqrt(2), 1].
_GAMMA_SLACK = 1e-12


@dataclass(frozen=True)
class Coupling:
    """Coupling amplitude with its derived strength and coherence factors.

    ``deco`` is stored once at construction rather than recomputed, keeping
    the identity ``kappa**2 + deco**2 = 1`` numerically tight.
    """

    gamma: float
    gamma_bar: float
    kappa: float
    deco: float

    def __init__(self, gamma: float) -> None:
        gamma = float(gamma)
        if not math.isfinite(gamma):
            raise InvalidParameter(f"gamma must be finite, got {gamma!r}")
        if gamma < GAMMA_MIN - _GAMMA_SLACK or gamma > 1.0 + _GAMMA_SLACK:
            raise InvalidParameter(
                f"gamma must lie in [1/sqrt(2), 1], got {gamma!r}"
            )
        gamma = min(1.0, max(GAMMA_MIN, gamma))
        gamma_bar = math.sqrt(max(0.0, 1.0 - gamma * gamma))
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_bar", gamma_bar)
        # clamp: rounding at the domain endpoints can land an ulp outside [0, 1]
        object.__setattr__(self, "kappa", min(1.0, max(0.0, 2.0 * gamma * gamma - 1.0)))
        object.__setattr__(self, "deco", min(1.0, max(0.0, 2.0 * gamma * gamma_bar)))

    @staticmethod
    def from_kappa(kappa: float) -> "Coupling":
        kappa = float(kappa)
        if not math.isfinite(kappa) or kappa < -_GAMMA_SLACK or kappa > 1.0 + _GAMMA_SLACK:
            raise InvalidParameter(f"kappa must lie in [0, 1], got {kappa!r}")
        kappa = min(1.0, max(0.0, kappa))
        return Coupling(math.sqrt((1.0 + kappa) / 2.0))


@dataclass(frozen=True)
class JointSetup:
    """One measurement scenario: signal state, second observable, coupling."""

    state: PureState
    b_dir: ObservableDirection
    coupling: Coupling


@dataclass(frozen=True)
class BinaryDistribution:
    """Probabilities of a +1/-1 outcome pair.

    The pair must sum to 1; individual values are allowed marginally outside
    [0, 1] because the disturbance-correction maps must stay affine in their
    inputs and may therefore produce slightly out-of-range values on noisy
    empirical frequencies.
    """

    p_plus: float
    p_minus: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_plus) and math.isfinite(self.p_minus)):
            raise InvalidParameter("probabilities must be finite")
        if abs(self.p_plus + self.p_minus - 1.0) > 1e-9:
            raise InvalidParameter(
                f"outcome probabilities must sum to 1, got {self.p_plus + self.p_minus!r}"
            )

    def within_unit_interval(self, tol: float = 1e-9) -> bool:
        """Advisory range check; recovery outputs may fail it under sampling noise."""
        return -tol <= self.p_plus <= 1.0 + tol and -tol <= self.p_minus <= 1.0 + tol


# Cell order used for the joint law everywhere (counts, sampling, CSV):
# (m=+1,b=+1), (m=+1,b=-1), (m=-1,b=+1), (m=-1,b=-1).
JOINT_CELLS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))


@dataclass(frozen=True)
class JointDistribution:
    """Joint law of (meter outcome m, second-measurement outcome b)."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self) -> None:
        cells = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)
        if not all(math.isfinite(c) for c in cells):
            raise InvalidParameter("joint probabilities must be finite")
        if any(c < -1e-12 or c > 1.0 + 1e-12 for c in cells):
            raise InvalidParameter(f"joint probabilities must lie in [0, 1], got {cells!r}")
        if abs(sum(cells) - 1.0) > 1e-9:
            raise InvalidParameter(f"joint probabilities must sum to 1, got {sum(cells)!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])

    def meter_marginal(self) -> BinaryDistribution:
        return BinaryDistribution(self.p_pp + self.p_pm, self.p_mp + self.p_mm)

    def b_marginal(self) -> BinaryDistribution:
        return BinaryDistribution(self.p_pp + self.p_mp, self.p_pm + self.p_mm)


@dataclass(frozen=True)
class Decomposition:
    """Split of the +1 probability of the second measurement.

    ``independent_part`` is built from populations only and is untouched by
    the coupling; ``coherent_coefficient`` is the coherent term
    ``gamma gamma_bar sin(2 alpha) sin(theta) cos(varphi - phi)`` so that
    ``p(b=+1) = independent_part + coherent_coefficient``.
    """

    independent_part: float
    coherent_coefficient: float


def entangled_state(setup: JointSetup) -> np.ndarray:
    """Four amplitudes of the signal-meter state on (|0,0>, |1,0>, |0,1>, |1,1>).

    Basis labels are |signal, meter>; the meter branch |0>_m carries signal
    amplitudes (gamma sin a, gamma_bar cos a e^{i phi}) and the |1>_m branch
    the same pair with gamma and gamma_bar exchanged.
    """
    amp0, amp1 = setup.state.amplitudes
    c = setup.coupling
    return np.array(
        [c.gamma * amp0, c.gamma_bar * amp1, c.gamma_bar * amp0, c.gamma * amp1],
        dtype=complex,
    )


def meter_probabilities(setup: JointSetup) -> BinaryDistribution:
    """Outcome law of the meter readout: ``p(+1) = kappa sin^2 a + gamma_bar^2``."""
    return joint_distribution(setup).meter_marginal()


def post_measurement_density(setup: JointSetup) -> DensityMatrix:
    """Signal state after the meter readout, with coherences scaled by ``deco``."""
    st = setup.state
    sa, ca = math.sin(st.alpha), math.cos(st.alpha)
    off = setup.coupling.deco * sa * ca * complex(math.cos(st.phi), -math.sin(st.phi))
    return DensityMatrix(
        np.array([[sa * sa, off], [off.conjugate(), ca * ca]], dtype=complex)
    )


def _squares(setup: JointSetup) -> tuple[float, float, float, float]:
    """``sin^2 a``, ``cos^2 a`` of the state and ``cos^2(t/2)``, ``sin^2(t/2)`` of b."""
    alpha, half = setup.state.alpha, 0.5 * setup.b_dir.theta
    return math.sin(alpha) ** 2, math.cos(alpha) ** 2, math.cos(half) ** 2, math.sin(half) ** 2


def decompose(setup: JointSetup) -> Decomposition:
    """Coupling-independent and coherent parts of the +1 probability of b."""
    st, d, c = setup.state, setup.b_dir, setup.coupling
    s2, c2, ch, sh = _squares(setup)
    coherent = (
        c.gamma
        * c.gamma_bar
        * math.sin(2.0 * st.alpha)
        * math.sin(d.theta)
        * math.cos(d.varphi - st.phi)
    )
    return Decomposition(independent_part=s2 * ch + c2 * sh, coherent_coefficient=coherent)


def b_probabilities(setup: JointSetup) -> BinaryDistribution:
    """Outcome law of the second measurement on the decohered signal.

    ``p(+1) = (1 - deco) n + deco <+|state>|^2`` with n the population-only
    part; equals tr(rho Pi) for the post-measurement density matrix.
    """
    return joint_distribution(setup).b_marginal()


def joint_distribution(setup: JointSetup) -> JointDistribution:
    """Exact joint law of the sequential outcomes (m, b); the primitive law.

    Each cell is ``|<b | branch_m>|^2`` on the unnormalized signal branch of
    meter outcome m (standard collapse rule, which also covers branches of
    zero norm): the branch populations weighted by the half-angle overlaps of
    the b eigenvector, plus or minus the interference term ``x``, half the
    coherent coefficient of :func:`decompose`.  Both marginal laws are sums
    of these cells.
    """
    c = setup.coupling
    s2, c2, ch, sh = _squares(setup)
    g2, gb2 = c.gamma * c.gamma, c.gamma_bar * c.gamma_bar
    x = 0.5 * decompose(setup).coherent_coefficient
    cells = (
        g2 * s2 * ch + gb2 * c2 * sh + x,
        g2 * s2 * sh + gb2 * c2 * ch - x,
        gb2 * s2 * ch + g2 * c2 * sh + x,
        gb2 * s2 * sh + g2 * c2 * ch - x,
    )
    return JointDistribution(*(min(1.0, max(0.0, p)) for p in cells))
