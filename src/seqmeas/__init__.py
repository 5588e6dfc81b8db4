"""Sequential weak measurement of two non-commuting qubit observables.

A weak pre-measurement of sigma_z (via a meter qubit of coupling amplitude
gamma) followed by a projective measurement of ``sigma . n`` on the disturbed
signal.  The package provides the exact outcome laws, the disturbance
correction recovering the undisturbed statistics, unbiased expectation
estimators, Fisher-information precision ratios with their trade-off curve,
and a deterministic Monte Carlo engine to verify the statistical claims.
"""

from .correction import (
    DEGENERACY_TOL,
    ZnzdClass,
    estimator_weights,
    is_znzd,
)
from .coupling import (
    Coupling,
    JointSetup,
    b_probabilities,
    decompose,
    entangled_state,
    joint_distribution,
    meter_probabilities,
    post_measurement_density,
)
from .errors import (
    DegenerateCoupling,
    DegenerateDistribution,
    InvalidParameter,
    SeqmeasError,
    UnboundedVariance,
)
from .fisher import (
    cramer_rao_bound,
    precisions,
    tradeoff_curve,
)
from .montecarlo import (
    TrialBatch,
    crb_check,
    estimate,
    sample,
    unbiasedness_check,
)
from .qubit import (
    ObservableDirection,
    PureState,
    a_direction,
    born_probability,
    expectation,
    make_direction,
    make_state,
)
