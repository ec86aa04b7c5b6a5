"""Closed forms and helpers that the tests check the library against, and that no stage runs.

decaying_trace is the pointwise K_nu trace: ODE shooting checks it, and
it checks the normal verdict's closed-form eigenvalue on a ray.
weyl_fit is the eigenvalue growth exponent of acceptance criterion 8.
dense reads a pencil's K or M as the n x n matrix its parts stand for,
arrow_from_dense builds the parts from dense test matrices, and
hat_pencil_eigh solves their hat blocks densely,
arrowhead_left_vectors writes an arrowhead's left eigenvectors directly,
and corner_schur_complement evaluates a pencil's characteristic function
in mpmath.
As test helpers they take only what the tests pass them and check nothing.
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


def dense(part: ArrowTridiagonal) -> np.ndarray:
    """The n x n complex matrix, read-only, that the arrow-tridiagonal part stands for.

    Every entry but the corner is added onto zeros, as assembly adds
    its cell integrals, so a zero's sign is that of the cell loop's.
    """
    core = len(part.diag)
    A = np.zeros((part.size, part.size), dtype=complex)
    dof = np.arange(core)
    A[dof, dof] += part.diag
    A[dof[:-1], dof[1:]] += part.off
    A[dof[1:], dof[:-1]] += part.off
    A[:core, core:] += part.border.T
    A[core:, :core] += part.border.conj()
    A[core:, core:] = np.diag(part.corner)
    A.flags.writeable = False
    return A


def arrow_from_dense(A, d: int) -> ArrowTridiagonal:
    """The parts of a dense Hermitian arrow-tridiagonal A with d border rows; the structure is not checked."""
    A = np.asarray(A)
    core = len(A) - d
    T = A[:core, :core]
    corner = np.diagonal(A[core:, core:])
    return ArrowTridiagonal(np.diagonal(T).real, np.diagonal(T, 1).real, A[:core, core:].T, corner)


def hat_pencil_eigh(K: ArrowTridiagonal, M: ArrowTridiagonal):
    """Dense scipy.linalg.eigh of the hat blocks (T_K, T_M): theta ascending and Z with Z^T T_M Z = I."""
    T_K, T_M = (np.diag(p.diag) + np.diag(p.off, 1) + np.diag(p.off, -1) for p in (K, M))
    return scipy.linalg.eigh(T_K, T_M)


def arrowhead_left_vectors(theta, z, lam, near, offset) -> np.ndarray:
    """Left eigenvectors [z / (conj(lambda) - theta); 1], unscaled, of the arrowhead [[diag(theta), z], [z^H, c]].

    lam, near and offset are as `_arrowhead_eigenvalues` returns them:
    the entry at the nearest pole theta_j divides by -conj(offset), and a
    column with a zero offset belongs to a deflated theta_j and is e_j,
    with the deflated z_j counted as 0 in the other columns.
    """
    cols = np.flatnonzero(near >= 0)
    deflated = cols[offset[cols] == 0.0]
    cols = cols[offset[cols] != 0.0]
    z = z.copy()
    z[near[deflated]] = 0.0
    X = np.empty((len(theta) + 1, len(lam)), dtype=complex)
    top = X[:-1]
    np.subtract(lam.conj(), theta[:, np.newaxis], out=top)
    top[near[cols], cols] = -offset[cols].conj()
    top[:, deflated] = 1.0
    np.divide(z[:, np.newaxis], top, out=top)
    X[-1] = 1.0
    X[:, deflated] = 0.0
    X[near[deflated], deflated] = 1.0
    return X


def corner_schur_complement(K: ArrowTridiagonal, M: ArrowTridiagonal, mp):
    """phi(lambda), the Schur complement of K - lambda M on its corner, in mpmath at mp's working precision.

    phi(lambda) = (k_ee - lambda m_ee) - rho^T (T_K - lambda T_M)^{-1} r
    with r = k_c - lambda m_c and rho = conj(k_c) - lambda conj(m_c),
    from the stored parts of a pencil with one border row, by one
    elimination of the tridiagonal block from its first row down.  Away
    from the eigenvalues of (T_K, T_M), its roots are exactly the
    pencil's eigenvalues.  Returns phi as a function of lambda.
    """
    k_c, m_c = K.border[0], M.border[0]
    parts = [
        [(mp.mpc(complex(k)), mp.mpc(complex(m))) for k, m in zip(*pair)]
        for pair in ((K.diag, M.diag), (K.off, M.off), (k_c, m_c), (k_c.conj(), m_c.conj()), (K.corner, M.corner))
    ]

    def phi(lam):
        diag, off, col, row, corner = ([k - lam * m for k, m in part] for part in parts)
        pivot, right, left, value = diag[0], col[0], row[0], corner[0]
        for i in range(1, len(diag)):
            value -= left * right / pivot
            ratio = off[i - 1] / pivot
            pivot, right, left = diag[i] - ratio * off[i - 1], col[i] - ratio * right, row[i] - ratio * left
        return value - left * right / pivot

    return phi
