"""Spectral machinery for cone operators: boundary spectra, extension-domain
scaling limits, rays of minimal growth, and completeness experiments.

Each module declares its public names in its own __all__; import them
from there (conespectra.model, .indicial, .grassmann, .normalop,
.discretize, .spectral, .cli)."""

__version__ = "0.1.0"
