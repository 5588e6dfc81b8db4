"""Brute-force reference simulation of the sequential measurement.

Ground truth for the closed forms in :mod:`seqmeas.coupling`: build the full
two-qubit state, project the meter, take the partial trace explicitly, and
obtain the second observable's projectors by numerically diagonalizing
``sigma . n``.  Deliberately shares no half-angle or decomposition formulas
with the model modules; only the primitive entangled amplitudes are common,
since they define the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import JointSetup
from .qubit import ObservableDirection

_KET = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


@dataclass(frozen=True)
class OracleResult:
    """All observable quantities of one scenario, computed by brute force."""

    state: np.ndarray  # two-qubit state, meter index slow
    meter_probs: tuple[float, float]  # (m=+1, m=-1)
    density: np.ndarray  # reduced 2x2 signal density matrix
    b_probs: tuple[float, float]  # (b=+1, b=-1)
    joint: dict[tuple[int, int], float]  # keyed (m, b)


def eigenprojectors(direction: ObservableDirection) -> dict[int, np.ndarray]:
    """Projectors of ``sigma . n`` from its numerical eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(direction.matrix())
    # eigh returns ascending eigenvalues: column 0 <-> -1, column 1 <-> +1
    assert abs(eigvals[0] + 1.0) < 1e-9 and abs(eigvals[1] - 1.0) < 1e-9
    return {
        -1: np.outer(eigvecs[:, 0], eigvecs[:, 0].conj()),
        +1: np.outer(eigvecs[:, 1], eigvecs[:, 1].conj()),
    }


def simulate(setup: JointSetup) -> OracleResult:
    """Run the full tensor simulation of one scenario."""
    amp0, amp1 = setup.state.amplitudes
    g, gb = setup.coupling.gamma, setup.coupling.gamma_bar

    # |Psi> = branch_0 (x) |0>_m + branch_1 (x) |1>_m, composed via kron on
    # the basis |signal, meter| with the meter index slow.
    branch = {
        +1: g * amp0 * _KET[0] + gb * amp1 * _KET[1],   # meter |0>_m, outcome +1
        -1: gb * amp0 * _KET[0] + g * amp1 * _KET[1],   # meter |1>_m, outcome -1
    }
    psi = np.kron(_KET[0], branch[+1]) + np.kron(_KET[1], branch[-1])

    # Meter projection: reshape to [meter, signal] and read off the branches.
    table = psi.reshape(2, 2)
    meter_probs = (
        float(np.vdot(table[0], table[0]).real),
        float(np.vdot(table[1], table[1]).real),
    )

    # Partial trace over the meter.
    rho = np.einsum("ms,mt->st", table, table.conj())

    projectors = eigenprojectors(setup.b_dir)
    b_probs = (
        float(np.trace(rho @ projectors[+1]).real),
        float(np.trace(rho @ projectors[-1]).real),
    )

    joint = {}
    for m_idx, m in ((0, +1), (1, -1)):
        for b in (+1, -1):
            projected = projectors[b] @ table[m_idx]
            joint[(m, b)] = float(np.vdot(projected, projected).real)

    return OracleResult(
        state=psi, meter_probs=meter_probs, density=rho, b_probs=b_probs, joint=joint
    )


def born_probability(state_vector: np.ndarray, direction: ObservableDirection, sign: int) -> float:
    """Projective outcome probability on an uncoupled state, by eigendecomposition."""
    proj = eigenprojectors(direction)[sign]
    return float(np.vdot(state_vector, proj @ state_vector).real)
