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
from typing import NamedTuple

import numpy as np

from .correction import ZnzdClass, is_znzd
from .coupling import (
    GAMMA_MIN,
    BinaryDistribution,
    Coupling,
    JointSetup,
    coupling_factors,
    joint_distribution,
    joint_law,
)
from .errors import DegenerateDistribution, InvalidParameter, UnboundedVariance
from .qubit import ObservableDirection, PureState, a_direction, born_probability

# Offset keeping the swept couplings strictly away from the degenerate endpoints.
ENDPOINT_OFFSET = 1e-6


@dataclass(frozen=True)
class FisherReport:
    """The four Fisher informations of one scenario and the precision ratios."""

    i_A_joint: float
    i_B_joint: float
    i_A_proj: float
    i_B_proj: float
    epsilon: float
    eta: float


class TradeoffPoint(NamedTuple):
    """One row of the precision trade-off sweep."""

    gamma: float
    kappa: float
    epsilon: float
    eta: float


def _binary_information(p_plus, p_minus, dp):
    """``dp^2 / (p_plus p_minus)``, for one law or for arrays of them."""
    return dp * dp / (p_plus * p_minus)


def _information(p: BinaryDistribution, dp: float, label: str) -> float:
    """:func:`_binary_information`; refuses a degenerate law, naming it by ``label``."""
    if p.p_plus <= 0.0 or p.p_plus >= 1.0:
        raise DegenerateDistribution(
            f"{label} outcome distribution is degenerate "
            f"(p_plus = {p.p_plus!r}); Fisher information diverges"
        )
    return _binary_information(p.p_plus, p.p_minus, dp)


def _meter_information(p_m: BinaryDistribution, c: Coupling) -> float:
    return _information(p_m, 0.5 * c.kappa, "meter (A channel)")


def _b_information(p_b: BinaryDistribution, c: Coupling) -> float:
    return _information(p_b, 0.5 * c.deco, "second measurement (B channel)")


def _projective_information(state: PureState, direction: ObservableDirection, name: str) -> float:
    p = BinaryDistribution(
        born_probability(state, direction, +1),
        born_probability(state, direction, -1),
    )
    return _information(p, 0.5, f"projective {name} (state is an eigenstate of {name})")


def fisher_a_proj(state: PureState) -> float:
    """Information per record of an independent projective measurement of sigma_z."""
    return _projective_information(state, a_direction(), "A")


def fisher_b_proj(state: PureState, direction: ObservableDirection) -> float:
    """Information per record of an independent projective measurement of ``sigma . n``."""
    return _projective_information(state, direction, "B")


def precisions(setup: JointSetup) -> FisherReport:
    """Fisher informations of the scenario and the precision ratios epsilon, eta."""
    law = joint_distribution(setup)
    i_a_joint = _meter_information(law.meter_marginal(), setup.coupling)
    i_b_joint = _b_information(law.b_marginal(), setup.coupling)
    i_a_proj = fisher_a_proj(setup.state)
    i_b_proj = fisher_b_proj(setup.state, setup.b_dir)
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
    if trials < 1:
        raise InvalidParameter(f"trials must be >= 1, got {trials!r}")
    if fi <= 0.0:
        raise UnboundedVariance("zero Fisher information: the variance bound is infinite")
    return 1.0 / (trials * fi)


def tradeoff_curve(
    state: PureState, direction: ObservableDirection, grid: int
) -> list[TradeoffPoint]:
    """Sweep the coupling and tabulate the precision pair (epsilon, eta).

    Rows are ``grid`` couplings uniform on the open interval plus exact
    endpoint rows carrying the analytic limits (0, 1) and (1, 0); the
    formula path is never evaluated at the endpoints themselves.  Rows whose
    distributions degenerate carry nan for epsilon and eta rather than
    aborting the sweep.  States that are eigenstates of either observable
    are rejected, as are states whose second-measurement statistics do not
    depend on the coupling at all (no trade-off exists there).
    """
    if grid < 2:
        raise InvalidParameter(f"grid must be >= 2, got {grid!r}")
    # Fails with DegenerateDistribution for eigenstates of either observable.
    i_a_proj = fisher_a_proj(state)
    i_b_proj = fisher_b_proj(state, direction)
    if is_znzd(state, direction) is not ZnzdClass.NOT_ZNZD:
        raise InvalidParameter(
            "the second measurement's statistics are coupling-invariant for "
            "this state and observable (ZNZD); the precision sweep is undefined"
        )

    lo, hi = GAMMA_MIN + ENDPOINT_OFFSET, 1.0 - ENDPOINT_OFFSET
    gammas = lo + (hi - lo) * np.arange(grid) / (grid - 1)
    _, kappas, decos = coupling_factors(gammas)
    p_pp, p_pm, p_mp, p_mm = joint_law(state, direction, gammas)
    m_plus, b_plus = p_pp + p_pm, p_pp + p_mp
    degenerate = (m_plus <= 0.0) | (m_plus >= 1.0) | (b_plus <= 0.0) | (b_plus >= 1.0)
    m_plus[degenerate] = b_plus[degenerate] = np.nan  # nan rows: the information diverges
    epsilons = _binary_information(m_plus, p_mp + p_mm, 0.5 * kappas) / i_a_proj
    etas = _binary_information(b_plus, p_pm + p_mm, 0.5 * decos) / i_b_proj
    rows = zip(*(a.tolist() for a in (gammas, kappas, epsilons, etas)))
    return [TradeoffPoint(GAMMA_MIN, 0.0, 0.0, 1.0), *(TradeoffPoint(*row) for row in rows),
            TradeoffPoint(1.0, 1.0, 1.0, 0.0)]
