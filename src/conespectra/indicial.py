"""Boundary spectrum and the singular-function basis of D_max/D_min.

For a second-order model with link eigenvalues mu_k, the mode-k Mellin
symbol is p_k(sigma) = sigma^2 + mu_k, with roots sigma = ±i*sqrt(mu_k)
(a double root at sigma = 0 when mu_k = 0).  A root sigma contributes
singular functions x^e (log x)^p, e = i*sigma, p < multiplicity, and the
roots with Im(sigma) in the critical strip (-gamma-m, -gamma) span the
quotient of the maximal by the minimal domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ConeModelOperator, complex_to_pair

__all__ = [
    "IndicialRoot",
    "SingularFunction",
    "boundary_spectrum",
    "singular_basis",
    "dmin_is_weighted_sobolev",
    "critical_strip",
]

# half-width of the band around a critical weight line inside which a
# root is treated as sitting on the line
LINE_GUARD = 1e-12


@dataclass(frozen=True)
class IndicialRoot:
    """Root of a mode's Mellin symbol, with its algebraic multiplicity."""

    sigma: complex
    mode_k: int
    multiplicity: int
    real_exponent_e: complex  # i*sigma: exponent of the attached x^e

    def to_json_dict(self) -> dict:
        return {
            "sigma": complex_to_pair(self.sigma),
            "mode_k": self.mode_k,
            "multiplicity": self.multiplicity,
            "real_exponent_e": complex_to_pair(self.real_exponent_e),
        }


@dataclass(frozen=True)
class SingularFunction:
    """One function omega(x)*phi_k(theta)*x^e*(log x)^p in the quotient basis."""

    mode_k: int
    exponent_e: complex
    log_power: int
    description: str

    def to_json_dict(self) -> dict:
        return {
            "mode_k": self.mode_k,
            "exponent_e": complex_to_pair(self.exponent_e),
            "log_power": self.log_power,
            "description": self.description,
        }


def _describe(mode_k: int, e: complex, p: int) -> str:
    """ω(x)·φ_k(θ)·x^e·log x, without the power for e = 0 and the log for p = 0.

    With m = 2 every strip root is ±i nu or the double root 0, so e = i sigma
    is real and p <= 1.
    """
    parts = ["ω(x)", f"φ_{mode_k}(θ)"]
    if e != 0:
        parts.append(f"x^{e.real:.6g}")
    if p:
        parts.append("log x")
    return "·".join(parts)


def _modes_with_nu(model: ConeModelOperator, lo: float, hi: float):
    """Yield (k, sqrt(mu_k)) for every mode with a root ±i sqrt(mu_k) in [lo - 1, hi + 1].

    Starts at the last mode below that window, so the cost does not grow
    with |gamma|; relies on mu_k nondecreasing in |k| to terminate.
    """
    geom = model.geometry
    cutoff = max(abs(lo), abs(hi)) + 1.0
    for k in geom.modes_by_abs(max(0.0, lo - 1.0, -hi - 1.0)):
        nu = math.sqrt(geom.mu(k))
        if nu > cutoff:
            break
        yield k, nu


def critical_strip(model: ConeModelOperator) -> tuple:
    """Open strip (-gamma-m, -gamma) in Im sigma whose roots span D_max/D_min."""
    g, m = model.weight_gamma, model.order_m
    return (-g - m, -g)


def boundary_spectrum(model: ConeModelOperator) -> list:
    """All indicial roots with Im(sigma) in the open critical strip, with multiplicities.

    The model guarantees its strip is a finite, nonempty interval.

    Returns
    -------
    list of IndicialRoot, sorted by (|mode_k|, mode_k, Im sigma).
    """
    lo, hi = critical_strip(model)
    roots = []
    for k, nu in _modes_with_nu(model, lo, hi):
        if nu == 0.0:
            candidates = [(0j, 2)]
        else:
            candidates = [(complex(0.0, -nu), 1), (complex(0.0, nu), 1)]
        for sigma, mult in candidates:
            if lo < sigma.imag < hi:
                roots.append(
                    IndicialRoot(
                        sigma=sigma,
                        mode_k=k,
                        multiplicity=mult,
                        real_exponent_e=1j * sigma,
                    )
                )
    roots.sort(key=lambda r: (abs(r.mode_k), r.mode_k, r.sigma.imag))
    return roots


# singular_basis per model; a model is a frozen, hashable dataclass
_BASES: dict = {}


def singular_basis(model: ConeModelOperator) -> tuple:
    """Canonical basis of D_max/D_min for the model's own weight.

    One SingularFunction per strip root and log power, ordered by
    ascending |mode_k|, then ascending Im(sigma) (descending Re e), then
    ascending log power.  Roots exactly on a strip boundary are cleanly
    excluded (open interval); roots inside the guard band but not
    exactly on a line are numerically ambiguous and raise ValueError
    instead of being classified silently.  The basis
    is computed once per model and returned as the same tuple after.
    """
    basis = _BASES.get(model)
    if basis is None:
        basis = _BASES[model] = _singular_basis(model)
    return basis


def _singular_basis(model: ConeModelOperator) -> tuple:
    lo, hi = critical_strip(model)
    for k, nu in _modes_with_nu(model, lo, hi):
        for im in {-nu, nu}:
            for line in (lo, hi):
                if 0.0 < abs(im - line) < LINE_GUARD:
                    raise ValueError(
                        f"indicial root of mode {k} is within {LINE_GUARD:g} of the weight line "
                        f"Im σ = {line:g} without lying on it exactly"
                    )
    out = []
    for root in boundary_spectrum(model):
        e = root.real_exponent_e
        for p in range(root.multiplicity):
            out.append(
                SingularFunction(
                    mode_k=root.mode_k,
                    exponent_e=e,
                    log_power=p,
                    description=_describe(root.mode_k, e, p),
                )
            )
    return tuple(out)


def dmin_is_weighted_sobolev(model: ConeModelOperator) -> bool:
    """Whether the minimal domain equals the plain weighted Sobolev space.

    True exactly when no indicial root lies on the lower weight line
    Im sigma = -gamma - m (within LINE_GUARD).
    """
    line = -model.weight_gamma - model.order_m
    for _k, nu in _modes_with_nu(model, line, line):
        if abs(nu - line) < LINE_GUARD or abs(-nu - line) < LINE_GUARD:
            return False
    return True
