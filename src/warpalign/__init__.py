"""warpalign: stochastic alignment of open and closed curves.

Warp maps of [0,1] and of the circle carry a Dirichlet-process style
distribution that can be centred at any warp and concentrated with a
single parameter; the package uses it as a proposal distribution for
simulated-annealing alignment, as a prior for Bayesian (SIR) alignment,
and alongside a dynamic-programming baseline, all in the square-root
velocity framework.
"""

__version__ = "0.1.0"

from .warpmap import (
    PLWarp,
    CircularWarp,
    identity,
    compose,
    restrict,
    sup_dist,
    make_circular,
    uniform_grid,
)
from .warpdist import (
    WarpPrior,
    SeedDistribution,
    dirichlet_sample,
    sample,
    sample_batch,
    sample_fixed,
    sample_circular,
    log_density,
    prior_moments,
    degeneracy_report,
    beta_cdf_warp,
)
from .srvf import (
    Curve,
    Srvf,
    arc_length,
    resample,
    warp_curve,
    to_srvf,
    from_srvf,
    unit_normalize,
    warp_action,
    l2_dist,
    shape_dist,
    geodesic,
    warp_energy,
)
from .shapeops import Rotation, normalize_length, optimal_rotation, rotate, apply_seed
from .align_dp import DpConfig, dp_align, dp_align_closed, dp_warp_energy
from .align_sa import (
    SaConfig,
    AlignmentResult,
    metropolis_accept,
    sa_align,
    sa_align_open_shape,
    sa_align_closed,
)
from .align_bayes import (
    BayesConfig,
    PosteriorSample,
    LikelihoodCollapseError,
    marginal_loglik,
    sir_posterior,
    posterior_summary,
)
from .landmarks import (
    LandmarkSet,
    ConstrainedResult,
    landmark_prewarp,
    constrained_align,
)
