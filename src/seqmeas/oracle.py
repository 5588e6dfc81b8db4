"""Brute-force reference simulation of the sequential measurement.

Ground truth for the closed forms in :mod:`seqmeas.coupling`: build the full
two-qubit state, project the meter, take the partial trace explicitly, and
obtain the second observable's projectors by numerically diagonalizing
``sigma . n``, the 2x2 Hermitian matrix built from the Pauli matrices.  That
eigenproblem is solved in one vectorized pass over the stack (the 2x2
quadratic, with each eigenvector read from the better-pivoted row of
``H - lambda I``), since one LAPACK call per matrix took most of the
oracle's time.  :func:`simulate_stack` does all this for a whole stack of
scenarios at once, with the scenario index first on every array;
:func:`simulate` is that stack at one scenario.  Stacked or not, the oracle
deliberately shares no Bloch-form, coupling-factor or decomposition formula
with the model modules; only the primitive state amplitudes and the Bloch
direction are common, since they define the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import JOINT_CELLS, JointSetup
from .errors import InvalidParameter
from .qubit import ObservableDirection, PureState

# sigma_x, sigma_y, sigma_z
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


@dataclass(frozen=True)
class OracleResult:
    """All observable quantities of one scenario, computed by brute force."""

    state: np.ndarray  # two-qubit state, meter index slow
    meter_probs: tuple[float, float]  # (m=+1, m=-1)
    density: np.ndarray  # reduced 2x2 signal density matrix
    b_probs: tuple[float, float]  # (b=+1, b=-1)
    joint: dict[tuple[int, int], float]  # keyed (m, b)


def _eigenvectors(theta, varphi) -> np.ndarray:
    """Eigenvectors of each ``sigma . n``, shape (N, 2, 2): column 0 <-> -1, column 1 <-> +1.

    Each Hermitian ``H = [[a, b], [conj(b), d]]`` built from the Pauli matrices
    is diagonalized in closed form, all N at once: with ``w = (a - d) / 2`` and
    ``r = hypot(w, |b|)`` the eigenvalues are ``(a + d) / 2 -+ r``, and each
    eigenvector is the null vector of ``H - lambda I`` read off the row whose
    pivot ``|w| + r`` (at least ``r``) is the larger, so no entry cancels.  This
    replaces one LAPACK ``eigh`` call per matrix, which took about six times
    as long over the oracle suite's 1000 directions.
    """
    n = np.stack(ObservableDirection(theta, varphi).n_vec, axis=-1)
    h = (n @ _PAULI.reshape(3, 4)).reshape(-1, 2, 2)
    a, b, d = h[:, 0, 0].real, h[:, 0, 1], h[:, 1, 1].real
    w = 0.5 * (a - d)
    r = np.hypot(w, np.abs(b))
    eigvals = np.stack([0.5 * (a + d) - r, 0.5 * (a + d) + r], axis=-1)
    # the eigenvalues, ascending, must be -1 and +1 for a unit direction
    assert np.all(np.abs(eigvals - [-1.0, 1.0]) < 1e-9)
    pivot, b_bar, lower = np.abs(w) + r, b.conj(), w < 0
    minus = np.stack([np.where(lower, pivot, -b), np.where(lower, -b_bar, pivot)], axis=-1)
    plus = np.stack([np.where(lower, b, pivot), np.where(lower, pivot, b_bar)], axis=-1)
    norm = np.sqrt(pivot * pivot + (b * b_bar).real)
    return np.stack([minus, plus], axis=-1) / norm[:, np.newaxis, np.newaxis]


def simulate_stack(alpha, phi, theta, varphi, gamma) -> tuple[np.ndarray, ...]:
    """Run the full tensor simulation of the N scenarios given as arrays of their parameters.

    Returns ``(state, meter_probs, density, b_probs, joint)``: the (N, 4)
    two-qubit states (meter index slow), the (N, 2) meter laws (m = +1, -1),
    the (N, 2, 2) reduced signal density matrices, the (N, 2) laws of b
    (b = +1, -1) and the (N, 4) joint laws in the order of ``JOINT_CELLS``.
    """
    gamma = np.asarray(gamma, dtype=float)
    gamma_bar = np.sqrt(1.0 - gamma * gamma)
    signal = np.stack(PureState(alpha, phi).amplitudes, axis=-1)

    # |Psi> as a [meter, signal] table: the meter branch |0>_m (outcome +1)
    # weighs the signal amplitudes by (gamma, gamma_bar), |1>_m (outcome -1)
    # by (gamma_bar, gamma).
    weights = np.stack([np.stack([gamma, gamma_bar], axis=-1),
                        np.stack([gamma_bar, gamma], axis=-1)], axis=1)
    table = weights * signal[:, np.newaxis, :]

    # Meter projection reads off the branches; the partial trace sums over them.
    meter_probs = np.einsum("nms,nms->nm", table, table.conj()).real
    rho = np.einsum("nms,nmt->nst", table, table.conj())

    # Amplitude of each eigenvector of sigma . n in each meter branch, and the
    # projector expectations tr(rho Pi_b); eigenvalue columns reversed to (+1, -1).
    eigvecs = _eigenvectors(theta, varphi)
    overlaps = np.einsum("nsb,nms->nmb", eigvecs.conj(), table)[..., ::-1]
    joint = (overlaps * overlaps.conj()).real.reshape(-1, 4)
    b_probs = np.einsum("nsb,nst,ntb->nb", eigvecs.conj(), rho, eigvecs).real[:, ::-1]
    return table.reshape(-1, 4), meter_probs, rho, b_probs, joint


def simulate(setup: JointSetup) -> OracleResult:
    """Run the full tensor simulation of one scenario: :func:`simulate_stack` at N = 1."""
    state, direction = setup.state, setup.b_dir
    parameters = (state.alpha, state.phi, direction.theta, direction.varphi, setup.coupling.gamma)
    psi, meter_probs, rho, b_probs, joint = simulate_stack(*np.array(parameters)[:, np.newaxis])
    return OracleResult(
        state=psi[0],
        meter_probs=tuple(meter_probs[0].tolist()),
        density=rho[0],
        b_probs=tuple(b_probs[0].tolist()),
        joint=dict(zip(JOINT_CELLS, joint[0].tolist())),
    )


def born_probability(state_vector: np.ndarray, direction: ObservableDirection, sign: int) -> float:
    """Projective outcome probability |<v|psi>|^2 on an uncoupled state; v: eigenvector of sign."""
    if sign not in (+1, -1):
        raise InvalidParameter(f"sign must be +1 or -1, got {sign!r}")
    eigvecs = _eigenvectors(np.array([direction.theta]), np.array([direction.varphi]))[0]
    return float(abs(np.vdot(eigvecs[:, {+1: 1, -1: 0}[sign]], state_vector)) ** 2)
