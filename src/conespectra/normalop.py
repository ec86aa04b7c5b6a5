"""Exact invertibility certificates for the model operator on the infinite cone.

Per angular mode the operator is the Bessel-type expression
L_nu u = -u'' - u'/x + nu^2 u / x^2 on (0, infinity).  For lambda off
the spectral cut [0, infinity) the decaying solution of (L_nu - lambda)u = 0
is K_nu(w x) with w = sqrt(-lambda), Re w > 0, and its coordinates in the
singular-function basis follow from the small-argument series of K_nu.
A domain in the quotient is invertible at lambda exactly when the
decaying trace is not collinear with the domain line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .grassmann import omega_minus
from .indicial import singular_basis
from .model import (
    ConeModelOperator,
    ExtensionDomain,
    Ray,
    RayVerdict,
    SectorLink,
    complex_to_pair,
    line_distance,
)

__all__ = [
    "DecayingSolutionTrace",
    "LambdaOnSpectrumCut",
    "decaying_trace",
    "normal_invertible",
    "ray_minimal_growth_normal",
    "ray_normal_verdict",
    "strip_mode",
    "DEFAULT_PROBE_RADII",
]

# angular tolerance below which the trace and the domain line are
# treated as collinear (non-invertible)
COLLINEAR_TOL = 1e-9

DEFAULT_PROBE_RADII = (0.1, 1.0, 10.0, 100.0)

_ONE_PAIR_SCOPE = "scope: model must contribute exactly one 2-dimensional mode quotient"


class LambdaOnSpectrumCut(ValueError):
    """lambda lies on the closed cut [0, infinity) where no decaying solution is selected."""


@dataclass(frozen=True)
class DecayingSolutionTrace:
    """Unit-norm coordinates of the decaying solution in the mode's singular basis.

    The basis is the canonical one: [x^{+nu}, x^{-nu}] for nu > 0, and
    [1, log x] for nu = 0.
    """

    mode_k: int
    lam: complex
    coeffs: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "mode_k": self.mode_k,
            "lambda": complex_to_pair(self.lam),
            "coeffs": [complex_to_pair(c) for c in self.coeffs],
        }


def _check_off_cut(lam: complex) -> complex:
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    if lam.imag == 0.0 and lam.real >= 0.0:
        raise LambdaOnSpectrumCut(f"lambda = {lam} lies on the spectral cut [0, ∞)")
    return lam


def strip_mode(model: ConeModelOperator):
    """(mode_k, nu) of the one mode whose two singular functions span the quotient.

    Returns None when the quotient is trivial (D_min = D_max) and raises
    ValueError for any other quotient, which the exact criterion here
    does not cover.
    """
    basis = singular_basis(model)
    if not basis:
        return None
    if len(basis) != 2 or basis[0].mode_k != basis[1].mode_k:
        raise ValueError(_ONE_PAIR_SCOPE)
    k = basis[0].mode_k
    return k, math.sqrt(model.geometry.mu(k))


def decaying_trace(model: ConeModelOperator, mode_k: int, lam: complex) -> DecayingSolutionTrace:
    """Coordinates of the decaying solution K_nu(sqrt(-lambda) x) in the quotient.

    Uses the small-argument series of K_nu: with w = sqrt(-lambda)
    (principal branch, Re w > 0) and A = pi / (2 sin(nu pi)),

        K_nu(w x) = -A (w/2)^{+nu} / Gamma(1+nu) * x^{+nu}
                    + A (w/2)^{-nu} / Gamma(1-nu) * x^{-nu} + O(x^{2-nu}),

    and for nu = 0: K_0(w x) = -(log(w/2) + gamma_E) * 1 - 1 * log x + O(x^2 log x).
    The coefficient pair is returned normalized to unit norm.  The mode
    must contribute exactly that pair to the quotient; a one-function
    quotient (integer nu >= 1, where A is infinite) is rejected.
    """
    lam = _check_off_cut(lam)
    count = sum(sf.mode_k == mode_k for sf in singular_basis(model))
    if count == 0:
        raise ValueError(f"mode {mode_k} contributes no singular functions for this weight")
    if count != 2:
        raise ValueError(
            f"mode {mode_k} has a {count}-function quotient; the K_nu series "
            "covers the two-function pair only"
        )
    nu = math.sqrt(model.geometry.mu(mode_k))
    w = np.sqrt(complex(-lam))  # principal branch; Re w > 0 off the cut
    if nu == 0.0:
        coeffs = np.array([-(np.log(w / 2.0) + np.euler_gamma), -1.0], dtype=complex)
    else:
        a_const = math.pi / (2.0 * math.sin(nu * math.pi))
        coeffs = np.array(
            [
                -a_const * (w / 2.0) ** nu / _gamma(1.0 + nu),
                a_const * (w / 2.0) ** (-nu) / _gamma(1.0 - nu),
            ],
            dtype=complex,
        )
    coeffs = coeffs / np.linalg.norm(coeffs)
    return DecayingSolutionTrace(mode_k=mode_k, lam=lam, coeffs=coeffs)


def _invertible(domain: ExtensionDomain, trace: DecayingSolutionTrace) -> bool:
    """Whether the trace is not collinear with the domain line."""
    return bool(line_distance(trace.coeffs, domain.coeffs) >= COLLINEAR_TOL)


def _traces(model: ConeModelOperator, lams) -> list:
    """The decaying trace at each lambda, in the mode whose pair spans the quotient."""
    sm = strip_mode(model)
    if sm is None:
        raise ValueError(_ONE_PAIR_SCOPE)
    return [decaying_trace(model, sm[0], lam) for lam in lams]


def normal_invertible(model: ConeModelOperator, domain: ExtensionDomain, lam: complex) -> bool:
    """Whether the normal operator on the given domain is invertible at lambda.

    Scope: a quotient spanned by one mode's pair (see strip_mode).  The
    operator fails to be invertible exactly when the decaying trace is
    collinear with the domain line (then the decaying solution satisfies
    the domain's boundary condition, i.e. lambda is an eigenvalue).
    """
    return _invertible(domain, _traces(model, [lam])[0])


def ray_normal_verdict(model: ConeModelOperator, ray: Ray, lines, probe_radii=None) -> RayVerdict:
    """The verdict of ray_minimal_growth_normal on candidate lines already computed.

    Checks invertibility at lambda = r e^{i theta} for every probe
    radius on every line, in order: the flow limits in Omega^-(domain),
    then the domain itself.  The first collinearity hit yields verdict
    "Fails" with that line and lambda as the witness; otherwise the ray
    is certified "Minimal", except for sector geometry with the ray
    parallel to the real axis, where the exact certificate family does
    not apply and the verdict is "Uncertified" with the raw outcome
    recorded in the note.
    """
    theta = ray.angle_theta
    if theta == 0.0:
        raise ValueError("the ray along the positive real axis is the spectral cut itself")
    radii = DEFAULT_PROBE_RADII if probe_radii is None else tuple(float(r) for r in probe_radii)
    if not all(0.0 < r < math.inf for r in radii):
        raise ValueError("probe radii must be positive and finite")
    # the trace depends on lambda only: one per radius serves every line
    traces = _traces(model, [r * cmath.exp(1j * theta) for r in radii])
    for line in lines:
        for trace in traces:
            if not _invertible(line, trace):
                witness = {
                    "lambda": complex_to_pair(trace.lam),
                    "domain": [complex_to_pair(z) for z in line.coeffs],
                }
                note = "decaying trace is collinear with the domain line at the witness lambda"
                return RayVerdict(ray, "Fails", witness=witness, note=note)
    if isinstance(model.geometry, SectorLink) and abs(theta - math.pi) < 1e-12:
        note = (
            "invertibility held at every probe, but rays parallel to the real axis "
            "are outside the exact certificate family for sector geometry"
        )
        return RayVerdict(ray, "Uncertified", note=note)
    note = "normal operator invertible on all flow limits and the domain at every probe radius"
    return RayVerdict(ray, "Minimal", note=note)


def ray_minimal_growth_normal(
    model: ConeModelOperator, domain: ExtensionDomain, ray: Ray, probe_radii=None
) -> RayVerdict:
    """Certificate that a ray consists of points of minimal growth for the normal operator.

    Computes the flow limit set Omega^-(domain) and returns
    ray_normal_verdict on its lines followed by the domain.
    """
    limits = omega_minus(domain, singular_basis(model))
    return ray_normal_verdict(model, ray, [*limits, domain], probe_radii)
