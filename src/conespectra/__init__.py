"""Spectral machinery for cone operators: boundary spectra, extension-domain
scaling limits, rays of minimal growth, and completeness experiments."""

from .model import (
    ClosedLink,
    CompletenessCertificate,
    ConeModelOperator,
    ExtensionDomain,
    Ray,
    RayVerdict,
    SectorLink,
)
from .indicial import (
    IndicialRoot,
    SingularFunction,
    WeightOnSpectrum,
    boundary_spectrum,
    dmin_is_weighted_sobolev,
    singular_basis,
)
from .grassmann import (
    RHO_SCHEDULE,
    NonpositiveRho,
    flow,
    grassmann_distance,
    kappa_matrix,
    omega_minus,
)
from .normalop import (
    DecayingSolutionTrace,
    LambdaOnSpectrumCut,
    decaying_trace,
    normal_invertible,
    ray_minimal_growth_normal,
)
from .discretize import (
    ArrowTridiagonal,
    DiscreteOperatorPencil,
    RadialGrid,
    assemble_embedding_grams,
    assemble_mode_pencil,
    export_pencil,
    load_pencil,
)
from .spectral import (
    IllConditionedMass,
    RootFindingError,
    SpectralResult,
    completeness_certificate,
    completeness_residual,
    dirichlet_mode_eigenvalues,
    embedding_singular_values,
    oracle_eigenvalues,
    ray_minimal_growth_full,
    resolvent_norm,
    schatten_fit,
    solve_pencil,
    weyl_fit,
)

__version__ = "0.1.0"
