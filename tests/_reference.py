"""Closed forms and helpers that the tests check the library against, and that no stage runs.

decaying_trace is the pointwise K_nu trace: ODE shooting checks it, and
it checks the normal verdict's closed-form eigenvalue on a ray.
weyl_fit is the eigenvalue growth exponent of acceptance criterion 8.
arrow_from_dense builds a pencil's parts from dense test matrices, and
hat_pencil_eigh solves their hat blocks densely.  As
test helpers they take only what the tests pass them and check nothing.
"""

import math

import numpy as np
import scipy.linalg
from scipy.special import gamma

from conespectra.discretize import ArrowTridiagonal
from conespectra.model import ExtensionDomain, line_distance
from conespectra.normalop import COLLINEAR_TOL, strip_mode


def decaying_trace(model, lam) -> ExtensionDomain:
    """The line of the decaying solution K_nu(sqrt(-lambda) x) in the quotient, for lambda off the cut.

    Uses the small-argument series of K_nu in the strip mode's order nu:
    with w = sqrt(-lambda) (principal branch, Re w > 0) and
    A = pi / (2 sin(nu pi)),

        K_nu(w x) = -A (w/2)^{+nu} / Gamma(1+nu) * x^{+nu}
                    + A (w/2)^{-nu} / Gamma(1-nu) * x^{-nu} + O(x^{2-nu}),

    and for nu = 0: K_0(w x) = -(log(w/2) + gamma_E) * 1 - 1 * log x + O(x^2 log x).
    The pair is taken in the canonical basis, [x^{+nu}, x^{-nu}] for
    nu > 0 and [1, log x] for nu = 0.
    """
    _, nu = strip_mode(model)
    w = np.sqrt(complex(-lam))
    if nu == 0.0:
        return ExtensionDomain.line([-(np.log(w / 2.0) + np.euler_gamma), -1.0])
    a_const = math.pi / (2.0 * math.sin(nu * math.pi))
    return ExtensionDomain.line(
        [-a_const * (w / 2.0) ** nu / gamma(1.0 + nu), a_const * (w / 2.0) ** (-nu) / gamma(1.0 - nu)]
    )


def invertible(model, line: ExtensionDomain, lam) -> bool:
    """Whether the normal operator on the line is invertible at lambda: the trace is not on the line."""
    return bool(line_distance(decaying_trace(model, lam).coeffs, line.coeffs) >= COLLINEAR_TOL)


def weyl_fit(eigenvalues) -> float:
    """Growth exponent: the slope of log lambda_j against log j over the middle third of the sorted list."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    j = np.arange(1, len(lam) + 1, dtype=float)
    middle = slice(len(lam) // 3, 2 * (len(lam) // 3))
    return float(np.polyfit(np.log(j[middle]), np.log(lam[middle]), 1)[0])


def arrow_from_dense(A, d: int) -> ArrowTridiagonal:
    """The parts of a dense Hermitian arrow-tridiagonal A with d border rows; the structure is not checked."""
    A = np.asarray(A)
    core = len(A) - d
    T = A[:core, :core]
    corner = np.diagonal(A[core:, core:])
    return ArrowTridiagonal(np.diagonal(T).real, np.diagonal(T, 1).real, A[:core, core:].T, corner)


def hat_pencil_eigh(stiffness: ArrowTridiagonal, mass: ArrowTridiagonal):
    """Dense scipy.linalg.eigh of the hat blocks (T_K, T_M): theta ascending and Z with Z^T T_M Z = I."""
    T_K, T_M = (np.diag(p.diag) + np.diag(p.off, 1) + np.diag(p.off, -1) for p in (stiffness, mass))
    return scipy.linalg.eigh(T_K, T_M)
