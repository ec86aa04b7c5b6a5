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

from .model import ConeModelOperator, complex_to_pair, require_valid

__all__ = [
    "IndicialRoot",
    "SingularFunction",
    "WeightOnSpectrum",
    "boundary_spectrum",
    "singular_basis",
    "dmin_is_weighted_sobolev",
    "critical_strip",
]

# half-width of the band around a critical weight line inside which a
# root is treated as sitting on the line
LINE_GUARD = 1e-12


class WeightOnSpectrum(ValueError):
    """An indicial root lies on a critical weight line Im sigma = -gamma-m or -gamma."""


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


def _fmt_number(e: complex) -> str:
    if e.imag == 0.0:
        return f"{e.real:.6g}"
    return f"({e.real:.6g}{e.imag:+.6g}i)"


def _describe(mode_k: int, e: complex, p: int) -> str:
    parts = ["ω(x)", f"φ_{mode_k}(θ)"]
    if e != 0:
        parts.append(f"x^{_fmt_number(e)}")
    if p == 1:
        parts.append("log x")
    elif p > 1:
        parts.append(f"(log x)^{p}")
    return "·".join(parts)


def _modes_with_nu(model: ConeModelOperator, cutoff: float):
    """Yield (k, sqrt(mu_k)) for all modes with sqrt(mu_k) <= cutoff.

    Relies on mu_k nondecreasing in |k| to terminate.
    """
    geom = model.geometry
    for k in geom.modes_by_abs():
        nu = math.sqrt(geom.mu(k))
        if nu > cutoff:
            break
        yield k, nu


def critical_strip(model: ConeModelOperator) -> tuple:
    """Open strip (-gamma-m, -gamma) in Im sigma whose roots span D_max/D_min."""
    g, m = model.weight_gamma, model.order_m
    return (-g - m, -g)


def boundary_spectrum(model: ConeModelOperator, strip: tuple) -> list:
    """All indicial roots with Im(sigma) in the open strip, with multiplicities.

    Parameters
    ----------
    model : ConeModelOperator
    strip : (lo, hi)
        Finite open interval in Im(sigma); comparisons are strict open.

    Returns
    -------
    list of IndicialRoot, sorted by (|mode_k|, mode_k, Im sigma).
    """
    require_valid(model)
    lo, hi = float(strip[0]), float(strip[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("strip must be a finite interval")
    if not lo < hi:
        raise ValueError("strip must satisfy lo < hi")
    cutoff = max(abs(lo), abs(hi)) + 1.0
    roots = []
    for k, nu in _modes_with_nu(model, cutoff):
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
    exactly on a line are numerically ambiguous and raise
    WeightOnSpectrum instead of being classified silently.  The basis
    is computed once per model and returned as the same tuple after.
    """
    basis = _BASES.get(model)
    if basis is None:
        basis = _BASES[model] = _singular_basis(model)
    return basis


def _singular_basis(model: ConeModelOperator) -> tuple:
    require_valid(model)
    lo, hi = critical_strip(model)
    cutoff = max(abs(lo), abs(hi)) + 1.0
    for k, nu in _modes_with_nu(model, cutoff):
        for im in {-nu, nu}:
            for line in (lo, hi):
                if 0.0 < abs(im - line) < LINE_GUARD:
                    raise WeightOnSpectrum(
                        f"indicial root of mode {k} is within {LINE_GUARD:g} of the weight line "
                        f"Im σ = {line:g} without lying on it exactly"
                    )
    out = []
    for root in boundary_spectrum(model, (lo, hi)):
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
    require_valid(model)
    line = -model.weight_gamma - model.order_m
    cutoff = abs(line) + 1.0
    for _k, nu in _modes_with_nu(model, cutoff):
        if abs(nu - line) < LINE_GUARD or abs(-nu - line) < LINE_GUARD:
            return False
    return True
