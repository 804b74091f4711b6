"""ndflab: a numerical laboratory for continuous negative definite functions.

Verifies, exactly on finite discrete laws and statistically by Monte
Carlo, the moment inequality E psi(X-Y) <= E psi(X+Y), the positive
definiteness of the kernel psi(xi+eta) - psi(xi-eta), its variance
identity, the bifractional-Brownian-motion connection, and the failure
of the inequality for |x|^alpha with alpha > 2.
"""

from .core import (
    BernsteinSpec,
    BernsteinTriplet,
    ConicSum,
    DimensionMismatch,
    EuclideanPower,
    FromTriplet,
    LevyTriplet,
    Log1p,
    NdfSpec,
    Power,
    SpecError,
    Subordinated,
    eval_bernstein,
    eval_psi,
    eval_psi_many,
    kernel_kpsi,
    metric_dpsi,
)
from .distributions import (
    CounterexampleParams,
    DiscreteDistribution,
    EnumerationLimitError,
    RawAbsPower,
    convolution_power,
    counterexample_distribution,
    counterexample_gap_closed_form,
    counterexample_search,
    ess_bounds_check,
    exact_expectation,
    exact_gap,
    tail_integral,
)
from .kernels import GramResult, gram_matrix, psd_check, variance_identity
from .bbm import (
    BbmParams,
    bbm_cov_matrix,
    bbm_covariance,
    bbm_sample_paths,
    empirical_covariance,
)
from .mc import (
    ConvolutionSampler,
    CounterexampleSampler,
    DiscreteSampler,
    GaussianIso,
    InequalityVerdict,
    McEstimate,
    SamplerSpec,
    UniformBox,
    mc_inequality_verdict,
    sample,
)

__version__ = "0.1.0"
