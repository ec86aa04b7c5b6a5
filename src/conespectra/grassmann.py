"""Dilation action on the domain quotient and its limit sets.

The one-parameter group kappa_rho acts on singular functions by
x^e (log x)^p -> rho^e x^e (log rho + log x)^p.  On the one singular
pair it is diag(rho^e0, rho^e1) for two simple roots, and the shear
[[1, log rho], [0, 1]] on [1, log x] for the double root e = 0.
As rho -> 0 the weaker exponent wins, so the limit set Omega^- of a
line [a : b] is one line in closed form: [0 : 1] (the span of x^-nu)
when nu > 0 and b != 0, and [1 : 0] otherwise, the double root's shear
included.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ExtensionDomain, line_distance

__all__ = [
    "NonpositiveRho",
    "RHO_SCHEDULE",
    "kappa_matrix",
    "flow",
    "grassmann_distance",
    "omega_minus",
]


class NonpositiveRho(ValueError):
    """kappa_rho is only defined for rho > 0."""


def kappa_matrix(basis, rho: float) -> np.ndarray:
    """Matrix of the dilation kappa_rho on the singular pair.

    Parameters
    ----------
    basis : tuple of SingularFunction
        The pair's canonical basis (output of singular_basis).
    rho : float
        Dilation parameter, must be > 0.
    """
    if len(basis) != 2:
        raise ValueError(f"the line lives in a 2-dimensional quotient, basis has {len(basis)} functions")
    rho = float(rho)
    if not (rho > 0.0) or not math.isfinite(rho):
        raise NonpositiveRho(f"rho must be a positive finite real, got {rho!r}")
    log_rho = math.log(rho)
    if basis[1].log_power == 1:  # the double root's [1, log x]
        return np.array([[1.0, log_rho], [0.0, 1.0]], dtype=complex)
    return np.diag([np.exp(sf.exponent_e * log_rho) for sf in basis])  # rho^e for complex e


def flow(domain: ExtensionDomain, basis, rho: float) -> ExtensionDomain:
    """Image of the line under kappa_rho."""
    return ExtensionDomain.line(kappa_matrix(basis, rho) @ domain.coeffs)


def grassmann_distance(s1: ExtensionDomain, s2: ExtensionDomain) -> float:
    """Sine of the angle between two extension lines."""
    return line_distance(s1.coeffs, s2.coeffs)


# the flow schedule rho_j = 10^(-j/4), j = 1..64, from 0.56 down to 1e-16
RHO_SCHEDULE = 10.0 ** (-np.arange(1, 65) / 4.0)
RHO_SCHEDULE.flags.writeable = False


def omega_minus(domain: ExtensionDomain, basis) -> tuple:
    """The kappa-flow orbit of a domain as rho -> 0 and its limit set.

    Flows the domain along RHO_SCHEDULE.  The limit set is exact: the
    line [0 : 1] when the pair's exponents are +-nu with nu > 0 and the
    domain's b is not 0, and [1 : 0] otherwise (b = 0 is fixed by the
    flow, and the double root's shear turns every line to [1 : 0]).

    Parameters
    ----------
    domain : ExtensionDomain
    basis : tuple of SingularFunction
        The pair's canonical basis; any other length raises ValueError.

    Returns
    -------
    (orbit, limits) : the 64 flowed domains and the one-line limit set.
    """
    orbit = [flow(domain, basis, r) for r in RHO_SCHEDULE]
    power = basis[1].log_power == 0
    limit = [0.0, 1.0] if power and domain.coeffs[1] != 0 else [1.0, 0.0]
    return orbit, (ExtensionDomain.line(limit),)
