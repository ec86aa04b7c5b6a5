"""Dilation action on the domain quotient and its limit sets.

The one-parameter group kappa_rho acts on singular functions by
x^e (log x)^p -> rho^e x^e (log rho + log x)^p, which in the canonical
basis is block upper-triangular: a simple root contributes the 1x1
block [rho^e], a double root the 2x2 block [[rho^e, rho^e log rho],
[0, rho^e]].  Flowing an extension domain along rho -> 0 and clustering
the tail of the orbit yields the limit set Omega^-.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ExtensionDomain, span_distance

__all__ = [
    "NonpositiveRho",
    "NonConvergent",
    "kappa_matrix",
    "flow",
    "grassmann_distance",
    "omega_minus",
    "default_rho_schedule",
]


class NonpositiveRho(ValueError):
    """kappa_rho is only defined for rho > 0."""


class NonConvergent(RuntimeError):
    """The flow's tail keeps splitting into new clusters as the schedule extends."""


def _basis_blocks(basis) -> list:
    """Group a canonical basis into (exponent, size) blocks of consecutive log powers."""
    blocks = []
    i = 0
    while i < len(basis):
        sf = basis[i]
        if sf.log_power != 0:
            raise ValueError("basis is not in canonical order: block must start at log power 0")
        j = i + 1
        while (
            j < len(basis)
            and basis[j].mode_k == sf.mode_k
            and basis[j].exponent_e == sf.exponent_e
        ):
            if basis[j].log_power != j - i:
                raise ValueError("basis is not in canonical order: log powers must be consecutive")
            j += 1
        blocks.append((complex(sf.exponent_e), j - i))
        i = j
    return blocks


def kappa_matrix(basis, rho: float) -> np.ndarray:
    """Matrix of the dilation kappa_rho in the given canonical basis.

    Parameters
    ----------
    basis : list of SingularFunction
        Canonical basis (output of singular_basis).
    rho : float
        Dilation parameter, must be > 0.
    """
    rho = float(rho)
    if not (rho > 0.0) or not math.isfinite(rho):
        raise NonpositiveRho(f"rho must be a positive finite real, got {rho!r}")
    n = len(basis)
    mat = np.zeros((n, n), dtype=complex)
    log_rho = math.log(rho)
    pos = 0
    for e, size in _basis_blocks(basis):
        scale = np.exp(e * log_rho)  # rho^e for complex e
        if size == 1:
            mat[pos, pos] = scale
        elif size == 2:
            mat[pos, pos] = scale
            mat[pos, pos + 1] = scale * log_rho
            mat[pos + 1, pos + 1] = scale
        else:
            raise ValueError(f"log chains of length {size} are out of scope")
        pos += size
    return mat


def flow(domain: ExtensionDomain, basis, rho: float) -> ExtensionDomain:
    """Image of the domain under kappa_rho, re-orthonormalized."""
    if domain.quotient_dim_D != len(basis):
        raise ValueError(
            f"domain lives in dimension {domain.quotient_dim_D}, basis has {len(basis)} functions"
        )
    moved = kappa_matrix(basis, rho) @ domain.basis_matrix
    if moved.shape[1] == 0:
        return ExtensionDomain(domain.quotient_dim_D, moved)
    q, _ = np.linalg.qr(moved)
    return ExtensionDomain(domain.quotient_dim_D, q)


def grassmann_distance(s1: ExtensionDomain, s2: ExtensionDomain) -> float:
    """Sine of the largest principal angle between two equi-dimensional subspaces."""
    if s1.quotient_dim_D != s2.quotient_dim_D:
        raise ValueError("subspaces live in different quotient dimensions")
    if s1.dim_d != s2.dim_d:
        raise ValueError("subspaces have different dimensions")
    return span_distance(s1.basis_matrix, s2.basis_matrix)


def default_rho_schedule(length: int = 64) -> np.ndarray:
    """Geometric schedule rho_j = 10^(-j/4), j = 1..length."""
    if length < 8:
        raise ValueError("schedule must have at least 8 points")
    j = np.arange(1, length + 1, dtype=float)
    return 10.0 ** (-j / 4.0)


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


def _orbit_and_limits(domain: ExtensionDomain, basis, rho_schedule=None) -> tuple:
    """(orbit, limit set): the flowed domains, extensions included, and what omega_minus returns."""
    schedule = default_rho_schedule() if rho_schedule is None else np.asarray(rho_schedule, dtype=float)
    if schedule.ndim != 1 or len(schedule) < 8:
        raise ValueError("rho_schedule must be a 1-d array with at least 8 points")
    if not np.all(schedule > 0.0):
        raise NonpositiveRho("rho_schedule must be positive")
    if not np.all(np.diff(schedule) < 0.0):
        raise ValueError("rho_schedule must be strictly decreasing")
    if schedule[-1] >= 1e-8:
        raise ValueError("rho_schedule must reach below 1e-8")

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


def omega_minus(domain: ExtensionDomain, basis, rho_schedule=None) -> list:
    """Limit set of the kappa-flow orbit of a domain as rho -> 0.

    Flows the domain along the schedule, clusters the trailing quarter
    of the orbit at CLUSTER_TOL, and returns one representative per
    cluster (the most-converged member).  When more than one cluster is
    found the schedule is extended geometrically (up to twice); a stable
    multi-cluster tail is returned as-is, while clusters that keep
    moving raise NonConvergent.

    Parameters
    ----------
    domain : ExtensionDomain
    basis : list of SingularFunction
    rho_schedule : array-like, optional
        Strictly decreasing positive reals reaching below 1e-8.
    """
    return _orbit_and_limits(domain, basis, rho_schedule)[1]
