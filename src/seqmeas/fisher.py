"""Fisher information of the measurement records and the precision trade-off.

Each outcome law is treated as a function of the target expectation value
alone: the meter law depends on the first observable's expectation with
constant sensitivity ``kappa / 2``, and the disturbed second law depends on
the second observable's expectation with constant sensitivity ``deco / 2``
(its population-only part held fixed).  For a binary law with constant
sensitivity ``dp`` the Fisher information is ``dp^2 / (p_plus p_minus)``.

Precisions are the ratios of joint-measurement information to the
information of an independent projective measurement; both lie in [0, 1]
and trade off against each other as the coupling strength varies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correction import ZnzdClass, is_znzd
from .coupling import (
    GAMMA_MIN,
    Coupling,
    JointSetup,
    b_law,
    joint_distribution,
    meter_law,
)
from .errors import DegenerateDistribution, InvalidParameter, UnboundedVariance
from .qubit import ObservableDirection, PureState, _require_count, a_direction, born_probability

# Offset keeping the swept couplings strictly away from the degenerate endpoints.
ENDPOINT_OFFSET = 1e-6


@dataclass(frozen=True)
class FisherReport:
    """The four Fisher informations and the precision ratios; arrays for a stack."""

    i_A_joint: float
    i_B_joint: float
    i_A_proj: float
    i_B_proj: float
    epsilon: float
    eta: float


def _binary_information(p_plus, p_minus, dp):
    """``dp^2 / (p_plus p_minus)``, for one law or for arrays of them; nan where ``p_plus``
    is not in (0, 1), since the information diverges there."""
    p_plus = np.where((p_plus <= 0.0) | (p_plus >= 1.0), np.nan, p_plus)
    return dp * dp / (p_plus * p_minus)


def joint_informations(law: np.ndarray, coupling: Coupling) -> tuple[float, float]:
    """Informations of the meter (A channel) and second (B channel) records of the joint law,
    each nan where its own marginal rounds to a certainty."""
    return (_binary_information(*meter_law(law), 0.5 * coupling.kappa),
            _binary_information(*b_law(law), 0.5 * coupling.deco))


def precisions(setup: JointSetup) -> FisherReport:
    """Fisher informations and the ratios epsilon, eta, for one scenario or a stack.

    The state, the direction and the coupling may each be stacked.  An eigenstate of either
    observable anywhere in the stack raises :class:`DegenerateDistribution`; where a marginal
    of the joint law rounds to a certainty, both joint informations and both ratios are nan.
    """
    i_a_proj, i_b_proj = (
        _binary_information(born_probability(setup.state, d, +1),
                            born_probability(setup.state, d, -1), 0.5)
        for d in (a_direction(), setup.b_dir)
    )
    for info, name in ((i_a_proj, "A"), (i_b_proj, "B")):
        if np.isnan(info).any():
            raise DegenerateDistribution(
                f"projective {name} outcome distribution is degenerate (state is an "
                f"eigenstate of {name}); Fisher information diverges"
            )
    i_a_joint, i_b_joint = joint_informations(joint_distribution(setup), setup.coupling)
    degenerate = np.isnan(i_a_joint) | np.isnan(i_b_joint)
    # [()] gives a scalar back for one scenario
    i_a_joint = np.where(degenerate, np.nan, i_a_joint)[()]
    i_b_joint = np.where(degenerate, np.nan, i_b_joint)[()]
    return FisherReport(
        i_A_joint=i_a_joint,
        i_B_joint=i_b_joint,
        i_A_proj=i_a_proj,
        i_B_proj=i_b_proj,
        epsilon=i_a_joint / i_a_proj,
        eta=i_b_joint / i_b_proj,
    )


def cramer_rao_bound(fi: float, trials: int) -> float:
    """Lowest achievable estimator variance with ``trials`` independent records."""
    trials = _require_count("trials", trials, 1)
    if fi <= 0.0:
        raise UnboundedVariance("zero Fisher information: the variance bound is infinite")
    return 1.0 / (trials * fi)


def tradeoff_curve(state: PureState, direction: ObservableDirection, grid: int) -> np.ndarray:
    """Sweep the coupling and tabulate the precision pair (epsilon, eta).

    Returns a ``(grid + 2, 4)`` float64 array whose columns are gamma, kappa,
    epsilon and eta.  Rows are ``grid`` couplings uniform on the open interval plus exact
    endpoint rows carrying the analytic limits (0, 1) and (1, 0); the
    formula path is never evaluated at the endpoints themselves.  Rows whose
    distributions degenerate carry nan for epsilon and eta rather than
    aborting the sweep.  States that are eigenstates of either observable
    are rejected, as are states whose second-measurement statistics do not
    depend on the coupling at all (no trade-off exists there).
    """
    grid = _require_count("grid", grid, 2)
    lo, hi = GAMMA_MIN + ENDPOINT_OFFSET, 1.0 - ENDPOINT_OFFSET
    sweep = Coupling(lo + (hi - lo) * np.arange(grid) / (grid - 1))
    # Fails with DegenerateDistribution for eigenstates of either observable.
    report = precisions(JointSetup(state, direction, sweep))
    if is_znzd(state, direction) is not ZnzdClass.NOT_ZNZD:
        raise InvalidParameter(
            "the second measurement's statistics are coupling-invariant for "
            "this state and observable (ZNZD); the precision sweep is undefined"
        )
    rows = np.column_stack([sweep.gamma, sweep.kappa, report.epsilon, report.eta])
    return np.vstack([(GAMMA_MIN, 0.0, 0.0, 1.0), rows, (1.0, 1.0, 1.0, 0.0)])
