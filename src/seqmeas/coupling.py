"""Signal-meter coupling model for the sequential measurement of two observables.

The signal qubit is entangled with a meter qubit by a coupling of real
amplitude ``gamma`` (``gamma**2 + gamma_bar**2 = 1``).  Reading the meter out
projectively realizes a weak measurement of sigma_z on the signal with
strength ``kappa = 2 gamma**2 - 1``; the surviving fraction of the signal's
off-diagonal coherence is ``deco = 2 gamma gamma_bar``.  The two derived
quantities satisfy ``kappa**2 + deco**2 = 1`` identically.

In the Bloch terms ``<sigma_z>``, ``n_z`` and t of :func:`~seqmeas.qubit.bloch_terms`,
the joint law of the meter outcome m and the second outcome b is affine::

    p(m, b) = (1 + m kappa <sigma_z> + b (m kappa n_z + <sigma_z> n_z + deco t)) / 4

Summed over m, it leaves a coupling-independent part (populations only) and the
coherent part ``deco t``, which a projective pre-measurement (deco = 0) erases.
This module provides the entangled state, the joint law as an array of four cells
(the primitive: sampling draws from it, and :func:`meter_law` and :func:`b_law`
sum it into the marginal laws), the reduced density matrix as a 2x2 array and
that decomposition.  :func:`joint_distribution` is the one place the law is
written; it reads kappa and deco from :class:`Coupling`, and a setup whose
angles or coupling are arrays gives one law per scenario of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubit import ObservableDirection, PureState, _field, _require_finite, bloch_terms

GAMMA_MIN = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Coupling:
    """Coupling amplitude with its derived strength and coherence factors.

    ``deco`` is stored once at construction rather than recomputed, keeping
    the identity ``kappa**2 + deco**2 = 1`` numerically tight.  One amplitude
    gives float fields; an array of them (a stack of scenarios) gives arrays.
    """

    gamma: float
    gamma_bar: float
    kappa: float
    deco: float

    def __init__(self, gamma) -> None:
        gamma = np.asarray(_require_finite("gamma", gamma, GAMMA_MIN, 1.0, "[1/sqrt(2), 1]"))
        gamma_bar = np.sqrt((1.0 - gamma) * (1.0 + gamma))  # 1 - gamma**2 cancels near gamma = 1
        # clamp: rounding at the domain endpoints can land an ulp outside [0, 1]
        kappa, deco = np.clip([2.0 * gamma * gamma - 1.0, 2.0 * gamma * gamma_bar], 0.0, 1.0)
        self._set(gamma, gamma_bar, kappa, deco)

    @staticmethod
    def from_kappa(kappa) -> "Coupling":
        """The coupling of strength ``kappa``, kept as given: 2 gamma**2 - 1 would round it off."""
        kappa = np.asarray(_require_finite("kappa", kappa, 0.0, 1.0, "[0, 1]"))
        coupling = object.__new__(Coupling)
        coupling._set(np.sqrt(1.0 + kappa) * GAMMA_MIN, np.sqrt(1.0 - kappa) * GAMMA_MIN,
                      kappa, np.sqrt((1.0 - kappa) * (1.0 + kappa)))  # gamma exact at 0 and 1
        return coupling

    def _set(self, *fields) -> None:
        """Store gamma, gamma_bar, kappa and deco: a float each, or an array for a stack."""
        for name, value in zip(("gamma", "gamma_bar", "kappa", "deco"), fields):
            object.__setattr__(self, name, _field(value))


@dataclass(frozen=True)
class JointSetup:
    """One measurement scenario: signal state, second observable, coupling."""

    state: PureState
    b_dir: ObservableDirection
    coupling: Coupling


# Cell order used for the joint law everywhere (counts, sampling, CSV), and along
# the first axis of the cells that meter_law and b_law sum, for one law or many:
# (m=+1,b=+1), (m=+1,b=-1), (m=-1,b=+1), (m=-1,b=-1).
JOINT_CELLS = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
CELL_NAMES = ("pp", "pm", "mp", "mm")  # the cells' names in reports: p for +1, m for -1
OUTCOME_NAMES = ("p_plus", "p_minus")  # the names of a marginal law's two outcomes


def meter_law(cells):
    """``(p_plus, p_minus)`` of the meter outcome m: the joint cells summed over b."""
    return cells[0] + cells[1], cells[2] + cells[3]


def b_law(cells):
    """``(p_plus, p_minus)`` of the second outcome b: the joint cells summed over m."""
    return cells[0] + cells[2], cells[1] + cells[3]


def entangled_state(setup: JointSetup) -> np.ndarray:
    """Four amplitudes of the signal-meter state on (|0,0>, |1,0>, |0,1>, |1,1>).

    Basis labels are |signal, meter>; the meter branch |0>_m carries signal
    amplitudes (gamma sin a, gamma_bar cos a e^{i phi}) and the |1>_m branch
    the same pair with gamma and gamma_bar exchanged.  For a stack of
    scenarios the amplitudes run along the first axis.
    """
    amp0, amp1 = setup.state.amplitudes
    c = setup.coupling
    return np.array(
        [c.gamma * amp0, c.gamma_bar * amp1, c.gamma_bar * amp0, c.gamma * amp1],
        dtype=complex,
    )


def meter_probabilities(setup: JointSetup) -> tuple[float, float]:
    """Outcome law of the meter readout: ``p(m) = (1 + m kappa <sigma_z>) / 2``."""
    return meter_law(joint_distribution(setup))


def post_measurement_density(setup: JointSetup) -> np.ndarray:
    """Signal 2x2 density matrix after the meter readout, with coherences scaled by ``deco``.

    Shape ``shape(alpha) + (2, 2)``: one matrix per scenario of a stack.
    """
    st = setup.state
    sa, ca = np.sin(st.alpha), np.cos(st.alpha)
    off = setup.coupling.deco * sa * ca * (np.cos(st.phi) - 1j * np.sin(st.phi))
    rho = np.stack([sa * sa, off, np.conj(off), ca * ca], axis=-1)
    return rho.reshape(np.shape(off) + (2, 2))


def decompose(setup: JointSetup) -> tuple[float, float]:
    """Parts of p(b=+1): coupling-independent ``(1 + <sigma_z> n_z)/2``, coherent ``deco t/2``."""
    sigma_z, n_z, t = bloch_terms(setup.state, setup.b_dir)
    return 0.5 * (1.0 + sigma_z * n_z), 0.5 * setup.coupling.deco * t


def b_probabilities(setup: JointSetup) -> tuple[float, float]:
    """Outcome law of the second measurement on the decohered signal.

    ``p(b) = (1 + b (<sigma_z> n_z + deco t)) / 2``; equals tr(rho Pi_b) for the
    post-measurement density matrix.
    """
    return b_law(joint_distribution(setup))


def joint_distribution(setup: JointSetup) -> np.ndarray:
    """Cells of the exact joint law of (m, b), along the first axis, for one scenario or a stack.

    Cell (m, b) is ``(1 + m kappa <sigma_z> + b (m kappa n_z + <sigma_z> n_z +
    deco t)) / 4``, in the order of :data:`JOINT_CELLS`, with kappa and deco
    read from the setup's coupling.  The angles and the coupling may be
    arrays; the cells then have shape ``(4,)`` plus their broadcast shape.
    :func:`meter_law` and :func:`b_law` sum these cells into the two marginal laws.
    """
    kappa, deco = setup.coupling.kappa, setup.coupling.deco
    sigma_z, n_z, t = bloch_terms(setup.state, setup.b_dir)
    return np.clip(np.stack([
        0.25 * (1.0 + m * kappa * sigma_z + b * (m * kappa * n_z + sigma_z * n_z + deco * t))
        for m, b in JOINT_CELLS
    ]), 0.0, 1.0)
