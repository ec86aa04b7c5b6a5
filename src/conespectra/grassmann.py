"""Dilation action on the domain quotient and its limit sets.

The one-parameter group kappa_rho acts on singular functions by
x^e (log x)^p -> rho^e x^e (log rho + log x)^p.  On the one singular
pair it is diag(rho^e0, rho^e1) for two simple roots, and the shear
[[1, log rho], [0, 1]] on [1, log x] for the double root e = 0.
Flowing an extension line along rho -> 0 and clustering the tail of
the orbit yields the limit set Omega^-.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ExtensionDomain, line_distance

__all__ = [
    "NonpositiveRho",
    "NonConvergent",
    "RHO_SCHEDULE",
    "kappa_matrix",
    "flow",
    "grassmann_distance",
    "omega_minus",
]


class NonpositiveRho(ValueError):
    """kappa_rho is only defined for rho > 0."""


class NonConvergent(RuntimeError):
    """The flow's tail keeps splitting into new clusters as the schedule extends."""


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


# clustering tolerance of the orbit's tail, in grassmann_distance
CLUSTER_TOL = 0.05


def _cluster_tail(flowed) -> list:
    """Greedy clustering of the trailing quarter, most-converged point first."""
    tail_len = max(1, len(flowed) // 4)
    reps = []
    for dom in reversed(flowed[-tail_len:]):
        if all(grassmann_distance(dom, rep) >= CLUSTER_TOL for rep in reps):
            reps.append(dom)
    return reps


def omega_minus(domain: ExtensionDomain, basis) -> tuple:
    """The kappa-flow orbit of a domain as rho -> 0 and its limit set.

    Flows the domain along RHO_SCHEDULE, clusters the trailing quarter
    of the orbit at CLUSTER_TOL, and takes one representative per
    cluster (the most-converged member).  When more than one cluster is
    found the schedule is extended geometrically, doubling its length,
    up to twice; a stable multi-cluster tail is returned as-is, while
    clusters that keep moving raise NonConvergent.

    Parameters
    ----------
    domain : ExtensionDomain
    basis : tuple of SingularFunction
        The pair's canonical basis; any other length raises ValueError.

    Returns
    -------
    (orbit, limits) : the flowed domains, extensions included, and the
    cluster representatives.
    """
    schedule = RHO_SCHEDULE
    flowed = [flow(domain, basis, r) for r in schedule]
    reps = _cluster_tail(flowed)
    extensions = 0
    while len(reps) > 1 and extensions < 2:
        ratio = schedule[-1] / schedule[-2]
        extra = schedule[-1] * ratio ** np.arange(1, len(schedule) + 1)
        flowed.extend(flow(domain, basis, r) for r in extra)
        schedule = np.concatenate([schedule, extra])
        new_reps = _cluster_tail(flowed)
        stable = len(new_reps) == len(reps) and all(
            any(grassmann_distance(nr, r) < CLUSTER_TOL for r in reps) for nr in new_reps
        )
        if stable:
            return flowed, new_reps
        reps = new_reps
        extensions += 1
    if len(reps) > 1:
        raise NonConvergent(
            f"flow tail still splits into {len(reps)} clusters after extending the schedule"
        )
    return flowed, reps
