"""ppt: transport distances between point-process configurations and laws.

Finite configurations in a bounded box, the trivial / total-variation /
Euclidean-transport distances between them, exact samplers and explicit
couplings for Poisson, Cox and Gibbs processes, closed-form and Monte Carlo
upper bounds on the corresponding transport distances between laws, empirical
primal/dual estimation by discrete optimal transport, and tail plus
isoperimetric estimates for Poisson functionals.
"""

__version__ = "0.1.0"

from .core import (
    Configuration,
    Estimate,
    IntensityMeasure,
    SeedSpec,
    Window,
    grad_sharp,
    multiset_equal,
    rademacher_check,
)
from .errors import (
    EnvelopeViolationError,
    InternalConsistencyError,
    PPTError,
    QuadratureError,
    SamplerHardnessError,
    SpecParseError,
    TruncationError,
    UnsupportedDimensionError,
    ValidationError,
)
from .quadrature import pointwise
from .metrics import (
    rho0,
    rho1,
    rho1_normalized,
    rho2,
    rho2_marked,
    rho2_normalized,
)
from .simulate import (
    ConstantMixer,
    CoupledPair,
    GammaMixer,
    LognormalMixer,
    SuperpositionCoupling,
    TimeChangeCoupling,
    TimeChangeSpec,
    TwoPointMixer,
    interaction_energy,
    sample_cox,
    sample_gibbs,
    sample_gibbs_coupled,
    sample_poisson,
)
from .bounds import (
    BoundResult,
    bound_tv_cox,
    bound_tv_general,
    bound_tv_gibbs,
    bound_tv_poisson,
    bound_w2_halfline,
    bound_w2_timechange,
    gibbs_count_law_rho1,
    gibbs_density,
    gibbs_normalization_series,
    poisson_density,
)
from .transport import (
    TransportPlan,
    assignment_solve,
    doubling_diagnostic,
    dual_lower_bound,
    emd,
    estimate_rubinstein_empirical,
    exact_oracle_discrete,
)
from .concentration import (
    CountAtLeastEvent,
    CountThresholdEvent,
    TailQuery,
    coarea_check,
    count_event_exact,
    isoperimetric_bounds,
    isoperimetric_ratio,
    laplace_bound_lipschitz,
    poincare_l1_check,
    poisson_tail_exact,
    rho_eta_tail_exact,
    stirling_bounds,
    surface_measure,
    tail_bound_count_sharp,
    tail_bound_lipschitz,
    tail_bound_rho_eta,
    tail_grid,
    upper_int_part,
)
