"""Exact invertibility certificates for the model operator on the infinite cone.

Per angular mode the operator is the Bessel-type expression
L_nu u = -u'' - u'/x + nu^2 u / x^2 on (0, infinity).  For lambda off
the spectral cut [0, infinity) the decaying solution of (L_nu - lambda)u = 0
is K_nu(w x) with w = sqrt(-lambda), Re w > 0, and its coordinates in the
singular-function basis follow from the small-argument series of K_nu.
A domain in the quotient is invertible at lambda exactly when the
decaying trace is not collinear with the domain line.  Along a ray the
trace is a closed form in the radius, so the ray verdict solves for the
one eigenvalue a ray can hold on each line instead of sampling radii;
decaying_trace and normal_invertible check it pointwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

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
    "strip_mode",
]

# tolerance below which the trace and the domain line are treated as
# collinear (non-invertible): on their line distance at one lambda, and
# on the phase of b/a (nu > 0) or Im(a/b) (nu = 0) along a ray
COLLINEAR_TOL = 1e-9

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


def decaying_trace(model: ConeModelOperator, lam: complex) -> DecayingSolutionTrace:
    """Coordinates of the decaying solution K_nu(sqrt(-lambda) x) in the quotient.

    Uses the small-argument series of K_nu in the strip mode's order nu
    (see strip_mode): with w = sqrt(-lambda) (principal branch,
    Re w > 0) and A = pi / (2 sin(nu pi)),

        K_nu(w x) = -A (w/2)^{+nu} / Gamma(1+nu) * x^{+nu}
                    + A (w/2)^{-nu} / Gamma(1-nu) * x^{-nu} + O(x^{2-nu}),

    and for nu = 0: K_0(w x) = -(log(w/2) + gamma_E) * 1 - 1 * log x + O(x^2 log x).
    The coefficient pair is returned normalized to unit norm.  A model
    whose quotient is not one mode's pair is rejected, a one-function
    quotient (integer nu >= 1, where A is infinite) among them.
    """
    lam = _check_off_cut(lam)
    sm = strip_mode(model)
    if sm is None:
        raise ValueError(_ONE_PAIR_SCOPE)
    mode_k, nu = sm
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


def normal_invertible(model: ConeModelOperator, domain: ExtensionDomain, lam: complex) -> bool:
    """Whether the normal operator on the given domain is invertible at lambda.

    Scope: a quotient spanned by one mode's pair (see strip_mode).  The
    operator fails to be invertible exactly when the decaying trace is
    collinear with the domain line (then the decaying solution satisfies
    the domain's boundary condition, i.e. lambda is an eigenvalue).
    """
    return bool(line_distance(decaying_trace(model, lam).coeffs, domain.coeffs) >= COLLINEAR_TOL)


def _eigenvalue_on_ray(nu: float, theta: float, line: ExtensionDomain):
    """The one lambda = r e^{i theta} at which the decaying trace lies on the line, or None.

    Along the ray w = sqrt(r) e^{i(theta - pi)/2}, so the trace of
    decaying_trace is a closed form in r.  For nu > 0 its ratio
    c1/c0 = -(Gamma(1+nu)/Gamma(1-nu)) (w/2)^{-2 nu} keeps the phase
    pi - nu (theta - pi) while its modulus runs over (0, infinity): the
    line [a : b] is met when arg(b/a) is that phase, at
    r* = 4 (Gamma(1+nu) / (Gamma(1-nu) |b/a|))^{1/nu}.  For nu = 0 the
    ratio c0/c1 = log(w/2) + gamma_E keeps the imaginary part
    (theta - pi)/2: the line is met when Im(a/b) is that, at
    r* = 4 exp(2 (Re(a/b) - gamma_E)).  A match is one within
    COLLINEAR_TOL.  The line's unit representative is never divided by
    one of its coefficients (b conj(a), a conj(b) and log|b| - log|a|
    stand in for the quotients), so no finite line overflows; a lambda
    outside the doubles, or rounded onto the cut, is no witness.
    """
    a, b = (complex(z) for z in line.coeffs)
    if nu == 0.0:
        if b == 0:
            return None
        # a/b = a conj(b) / |b|^2, matched in the imaginary part before dividing
        z, bb = a * b.conjugate(), abs(b) ** 2
        if not abs(z.imag - 0.5 * (theta - math.pi) * bb) < COLLINEAR_TOL * bb:
            return None
        log_r = math.log(4.0) + 2.0 * (z.real / bb - np.euler_gamma)
    else:
        if a == 0 or b == 0:
            return None
        turn = cmath.phase(b * a.conjugate()) - (math.pi - nu * (theta - math.pi))
        if not abs(math.remainder(turn, 2.0 * math.pi)) < COLLINEAR_TOL:
            return None
        log_ratio = math.log(abs(b)) - math.log(abs(a))
        log_r = math.log(4.0) + (math.lgamma(1.0 + nu) - math.lgamma(1.0 - nu) - log_ratio) / nu
    try:
        lam = math.exp(log_r) * cmath.exp(1j * theta)
    except OverflowError:
        return None
    if not cmath.isfinite(lam) or (lam.imag == 0.0 and lam.real >= 0.0):
        return None
    return lam


def ray_minimal_growth_normal(model: ConeModelOperator, ray: Ray, lines) -> RayVerdict:
    """Certificate that a ray consists of points of minimal growth for the normal operator.

    lines are the candidate lines in order: the flow limit set
    Omega^-(domain) (see grassmann.omega_minus), then the domain itself.
    The operator on a line fails to be invertible at lambda exactly when
    the decaying trace lies on it, and the trace meets a line at most
    once on a ray, in closed form (see _eigenvalue_on_ray).  The first
    line met yields verdict "Fails" with that line and lambda as the
    witness, so any eigenvalue on the ray fails it; otherwise the ray
    is certified "Minimal", except for sector geometry with the ray
    parallel to the real axis, where the exact certificate family does
    not apply and the verdict is "Uncertified".
    """
    theta = ray.angle_theta
    if theta == 0.0:
        raise ValueError("the ray along the positive real axis is the spectral cut itself")
    sm = strip_mode(model)
    if sm is None:
        raise ValueError(_ONE_PAIR_SCOPE)
    nu = sm[1]
    for line in lines:
        lam = _eigenvalue_on_ray(nu, theta, line)
        if lam is not None:
            witness = {
                "lambda": complex_to_pair(lam),
                "domain": [complex_to_pair(z) for z in line.coeffs],
            }
            note = "decaying trace is collinear with the domain line at the witness lambda"
            return RayVerdict(ray, "Fails", witness=witness, note=note)
    if isinstance(model.geometry, SectorLink) and abs(theta - math.pi) < 1e-12:
        note = (
            "no candidate line meets the decaying trace on the ray, but rays parallel to "
            "the real axis are outside the exact certificate family for sector geometry"
        )
        return RayVerdict(ray, "Uncertified", note=note)
    note = "normal operator invertible on all flow limits and the domain along the whole ray"
    return RayVerdict(ray, "Minimal", note=note)
