"""Spectral experiments on arrow-tridiagonal operator pencils.

Everything here works on a (K, M) pencil in a fixed basis: generalized
eigensolves, resolvent norms along rays with log-log growth fits,
completeness residuals of eigenvector expansions, Schatten exponent
fits, and an independent Bessel secular-equation oracle for
the radial model problem L_nu u = -u'' - u'/x + nu^2 u/x^2 with
u(R) = 0 and tip coefficients (a, b) on the singular pair.

The pencil stores K and M as their parts (discretize.ArrowTridiagonal):
a real symmetric tridiagonal hat block, and for an enriched pencil one
complex border with its conjugate and a corner.  M is Hermitian positive
definite, and K is Hermitian except for an imaginary part i tau_K in
its corner; no other pencil can be built.  cond(M), gated at 1e12, and
the products of K and M with vectors are computed from the parts in
O(n) per vector.  The solve reduces the pencil to C = L^{-1} K L^{-H},
with M = L L^H, whose standard eigenpairs (lambda, y) give the
pencil's as (lambda, L^{-H} y), with a backward error on (K, M) of
about cond(M) times machine epsilon.  L has the arrow shape of M: a
bidiagonal Cholesky factor L_T of the mass's hat block T_M, and one
last row.  C's (n-1) x (n-1) block A = L_T^{-1} T_K L_T^{-T} is real
symmetric, the rest is one complex border and a corner, and only the
imaginary part of the corner, tau = tau_K / L_nn^2, keeps C from being
Hermitian.  A is never formed: one banded eigensolve of the
tridiagonal pencil (T_K, T_M) (LAPACK dsbgvd; Crawford, Comm. ACM 1973;
Kaufman, ACM TOMS 1984) gives A = U diag(theta) U^T through the
T_M-orthonormal eigenvectors W = L_T^{-T} U, and turns C in the basis
diag(U, 1) into the arrowhead [[diag(theta), z], [z^H, eta + i tau]]
(Golub, SIAM Rev. 1973; O'Leary & Stewart, J. Comput. Phys. 1990), with
z read off W and the mass gate's tridiagonal solve at 0.  Its Hermitian
part, with the corner made real, has eigenvalues mu and eigenvectors
with last entries w, both read off one eigenvalue-only call on a real
arrowhead and one pole-cleared Newton step from its roots, and the
arrowhead minus lambda is unitarily similar to diag(mu - lambda) + i tau w w^H.  The
eigenvalues of C are therefore the roots of the secular function
g(lambda) = 1 + i tau sum_k |w_k|^2 / (mu_k - lambda), found together
by an Aberth-Ehrlich iteration (Bini & Robol, J. Comput. Appl. Math.
2014) and polished by one Newton step on the arrowhead's own secular
function; each eigenvector is [z / (lambda - theta); 1] in that basis,
and each left eigenvector, by a phase symmetry of the arrowhead,
[z / conj(lambda - theta); 1].  Each resolvent probe's smallest
singular value is found by one bisection on a 2 x 2 secular count,
O(n) per step, from the (mu, |w|^2, tau) that the result keeps, at the
four probe radii the result owns, a decade apart up to its trust limit.  The eigensolves are
accurate to eps ||C|| only, which is coarse for the small eigenvalues
of a graded pencil, so each eigenvalue but a numerically defective one
is a two-sided Rayleigh quotient on (K, M) itself, inside which the
right and left eigenvectors are lifted together a block of columns at a
time, so that besides W the solve holds only the eigenvectors it
returns.  The weighted embedding's singular values
take its two tridiagonal Grams through the same banded eigensolve,
eigenvalues only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.special import gamma as _gamma_fn
from scipy.special import jv, jvp, yv

from ._lapack import tridiagonal_eigh
from .model import SLOPE_WINDOW, CompletenessCertificate, Ray, RayVerdict, _complex, _number

__all__ = [
    "IllConditionedMass",
    "RootFindingError",
    "SpectralResult",
    "solve_pencil",
    "retained_count",
    "resolvent_norm",
    "ray_minimal_growth_full",
    "completeness_residual",
    "oracle_eigenvalues",
    "dirichlet_mode_eigenvalues",
    "schatten_fit",
    "embedding_singular_values",
    "completeness_certificate",
]

MASS_CONDITION_LIMIT = 1e12
RETAIN_FRACTION = 0.8
# scipy's J_nu(x) comes back wrong above x = 2^51 = 0.5 / eps, and the Bessel
# zeros the Dirichlet scan needs lie above nu, so it takes no nu beyond this
BESSEL_ORDER_LIMIT = 2.0**50
# Aberth sweeps before the eigensolve gives up
_ABERTH_SWEEPS = 200
# the condition number ||u||_M / |u^H M v| above which a pair is numerically
# defective, 2^-6 eps^-1/2 = 1.05e6.  It reads <= 1.06 on the (1, i) and
# (0.3 - 0.2i, -0.7 + 1.1i) pencils, N_h 100 to 1600, <= 65 on the first
# exceptional-point lines, 8.8e4 at the sector's discrete exceptional point at
# N_h = 100 (line [1 : -0.0122795676818 - 0.1285884267507i]), 2.3e7 on a Jordan
# block, and over 2975 seeded arrow pencils with an exact double eigenvalue
# <= 1.1e3 on the simple pairs and >= 1.9e6 on the defective ones
_DEFECTIVE_CONDITION = 2.0**-6 / math.sqrt(np.finfo(float).eps)
# the fewest eigenvector columns per block of the solve's lift and Rayleigh refinement
_REFINE_BLOCK = 64


class IllConditionedMass(RuntimeError):
    """Mass matrix condition number exceeds the solver gate."""


class RootFindingError(RuntimeError):
    """A secular-equation root search failed to converge on some root."""


@dataclass(frozen=True)
class SpectralResult:
    """Full eigendecomposition of a pencil, sorted by |lambda|.

    The top 20% of |lambda| is treated as discretization-polluted;
    `n_retained` marks the trusted prefix.  The pencil is kept so that
    downstream projections use the same mass and can fall back to
    invariant subspaces of the same pencil.  Each eigenvector has unit
    M-norm.  `residuals` holds ||K v - lambda M v|| / ||v|| for each
    pair, and `mass_condition` is cond(M) as the solver gate measured it.

    `rank_one_form` is (mu, |w|^2, tau) of the reduction
    C = Q (diag(mu) + i tau w w^H) Q^H: the eigenvalues mu of the
    Hermitian part of C with its corner made real, the squared moduli
    of its eigenvectors' last row, and the corner's tau = Im C[n-1, n-1].
    The solve reads them off the arrowhead that C becomes in the
    eigenbasis of its real block, for its own eigenpairs; every
    resolvent probe of the result reads them.  It holds O(n) numbers,
    and its arrays are read-only.  A minimal pencil has tau = 0 and
    zero weights.

    `trust_limit` is a tenth of the largest retained |lambda|, and
    `probe_radii` the four radii, a decade apart and the largest at the
    trust limit, at which `ray_minimal_growth_full` probes a ray.

    `aberth_sweeps`, `deflated_poles` and `refined_pairs` count the
    Aberth sweeps, the eigenvalues taken from a pole instead of the
    iteration (every one of a minimal pencil), and the pairs whose
    eigenvalue is their two-sided Rayleigh quotient: every pair but the
    numerically defective ones.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    n_retained: int
    pencil: object
    rank_one_form: tuple
    mass_condition: float
    aberth_sweeps: int
    deflated_poles: int
    refined_pairs: int

    @property
    def retained_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.n_retained]

    @property
    def trust_limit(self) -> float:
        """Largest |lambda| at which resolvent probes are meaningful."""
        return 0.1 * float(np.max(np.abs(self.retained_eigenvalues)))

    @property
    def probe_radii(self) -> list:
        """The resolvent probes' four radii, a decade apart, the largest at the trust limit."""
        scale = self.trust_limit / 1000.0
        return [r * scale for r in (1.0, 10.0, 100.0, 1000.0)]


def _mass_extremes(mass) -> tuple:
    """The smallest and largest eigenvalue of the arrow-tridiagonal mass M, in O(n).

    The tridiagonal block T has extreme eigenvalues theta_min and
    theta_max (LAPACK bisection, to eps ||T||).  With a border b and a
    corner c, M - sigma has the inertia of T - sigma plus the sign of
    the Schur complement s(sigma) = c - sigma - b^H (T - sigma)^{-1} b
    (Haynsworth additivity; Parlett, The Symmetric Eigenvalue Problem),
    and s decreases wherever it is finite.  So M is positive definite
    exactly when theta_min > 0 and s(0) > 0, and M's extreme
    eigenvalues are the roots of s below theta_min and above theta_max,
    or theta_min and theta_max themselves where s has no such root.
    Each evaluation of s and s' = -1 - ||(T - sigma)^{-1} b||^2 is one
    positive definite tridiagonal solve (LAPACK ptsv).  The roots are
    those of s times the distance to the nearer pole theta, which has
    s's sign there and is nearly linear where s has a pole, so that
    Newton steps (`_sign_change`) do not crawl away from it.

    Returns the two eigenvalues and, for a bordered M, (s(0), T^{-1} [Re b, Im b]):
    the l_n^2 and g that `_to_arrowhead` reads; None without a border.

    Raises
    ------
    IllConditionedMass
        If M is not positive definite.
    """
    core = len(mass.diag)
    theta_min, theta_max = (
        float(scipy.linalg.eigvalsh_tridiagonal(mass.diag, mass.off, select="i", select_range=(k, k))[0])
        for k in (0, core - 1)
    )
    if theta_min <= 0.0:
        raise IllConditionedMass("mass matrix is not positive definite")
    if not len(mass.border):
        return theta_min, theta_max, None
    b = mass.border[0]
    c = float(mass.corner[0].real)
    rhs = np.column_stack((b.real, b.imag))  # T is real, so b^H (T - sigma)^{-1} b is too
    off = mass.off if core > 1 else np.zeros(1)  # the ptsv wrapper wants one entry even then

    def cleared(sigma):
        """(h, h', s, x) at sigma outside [theta_min, theta_max], h = s |sigma - theta|; h is -+inf past theta."""
        below = sigma < theta_min
        # T - sigma below the block's spectrum, sigma - T above it: both positive definite
        diag, band = (mass.diag - sigma, off) if below else (sigma - mass.diag, -off)
        _, _, x, info = scipy.linalg.lapack.dptsv(diag, band, rhs)
        if info:
            return (-math.inf if below else math.inf), math.nan, math.nan, None
        quad = float(np.sum(rhs * x))  # b^H (T - sigma)^{-1} b, up to sign
        s = c - sigma - (quad if below else -quad)
        slope = -1.0 - float(np.sum(x * x))
        if below:
            return s * (theta_min - sigma), slope * (theta_min - sigma) - s, s, x
        return s * (sigma - theta_max), slope * (sigma - theta_max) + s, s, x

    at_zero = cleared(0.0)
    if at_zero[0] <= 0.0:
        raise IllConditionedMass("mass matrix is not positive definite")
    # One solve just beyond each pole tells whether s has its root
    # further out; if not, theta is M's eigenvalue to within that reach.
    reach = 4.0 * np.finfo(float).eps * theta_max
    lowest, highest = theta_min, theta_max
    if theta_min > reach and cleared(theta_min - reach)[0] <= 0.0:
        lowest = _sign_change(cleared, 0.0, theta_min - reach, 0.0, at_zero)
    if cleared(theta_max + reach)[0] >= 0.0:
        top = max(theta_max, c) + math.sqrt(float(np.sum(rhs * rhs)))  # Weyl: no eigenvalue above
        highest = _sign_change(cleared, theta_max + reach, top, top, cleared(top))
    return lowest, highest, at_zero[2:]


def _sign_change(f, lo: float, hi: float, x: float, fx: tuple) -> float:
    """Where f turns from positive to negative in [lo, hi], from x with fx = (f(x), f'(x), ...).

    A Newton step is taken when it stays inside the bracket that the
    signs of f have set and is at most half the step before the last
    one; otherwise the bracket is bisected (rtsafe of Numerical
    Recipes).  The search ends on an exact zero, on a step below
    2 eps |x|, or when the bracket holds no float between its ends.
    Where f keeps one sign, the end that f's sign points to is returned.
    """
    eps = np.finfo(float).eps
    last = before = math.inf  # the last two step sizes
    while True:
        value, slope = fx[:2]
        if value == 0.0:
            return x
        if value > 0.0:
            lo = x
        else:
            hi = x
        step = value / slope
        if abs(step) <= 2.0 * eps * abs(x):
            return x - step
        if not (lo < x - step < hi) or abs(step) > 0.5 * before:
            step = x - 0.5 * (lo + hi)
            if not lo < x - step < hi:
                return x - step
        before, last = last, abs(step)
        x -= step
        fx = f(x)


def _aberth_roots(mu: np.ndarray, weights: np.ndarray, tau: float) -> tuple:
    """All roots of g(lambda) = 1 + i tau sum_k weights_k / (mu_k - lambda).

    mu must be distinct, weights positive and tau nonzero; then g has
    one root per pole, the roots of p = g prod_k (mu_k - lambda).  They
    are refined together by the Aberth-Ehrlich iteration from
    mu_k + i tau weights_k, with Newton correction p/p' =
    1 / (g'/g - sum_k 1/(mu_k - lambda)).  A root stops after a step of
    at most sqrt(eps) |lambda|; the solve's pole-cleared Newton step and
    Rayleigh quotient set the last digits.  Each sweep holds one
    (roots left) x n temporary at a time.
    Returns the roots and the number of sweeps.

    Raises
    ------
    RootFindingError
        If some root has not stopped after _ABERTH_SWEEPS sweeps.
    """
    reach = math.sqrt(np.finfo(float).eps)
    lam = mu + 1j * tau * weights
    left = np.arange(len(mu))
    sweeps = 0
    while left.size:
        if sweeps == _ABERTH_SWEEPS:
            raise RootFindingError(
                f"{left.size} eigenvalues of the rank-one form did not converge "
                f"in {_ABERTH_SWEEPS} Aberth sweeps"
            )
        sweeps += 1
        z = lam[left]
        D = mu - z[:, np.newaxis]
        np.reciprocal(D, out=D)  # D[j, k] = 1 / (mu_k - z_j)
        total = np.einsum("ij,j->i", D, weights)
        pole_sum = D.sum(axis=1)
        D *= D
        slope = np.einsum("ij,j->i", D, weights)  # g' / (i tau)
        del D
        g = 1.0 + 1j * tau * total
        rows = np.arange(left.size)
        E = z[:, np.newaxis] - lam
        E[rows, left] = 1.0
        np.reciprocal(E, out=E)
        E[rows, left] = 0.0
        repulsion = E.sum(axis=1)  # sum over the other roots of 1 / (z_j - lambda_i)
        del E
        newton = g / (1j * tau * slope - g * pole_sum)
        step = newton / (1.0 - newton * repulsion)
        lam[left] -= step
        left = left[~(np.abs(step) <= reach * np.abs(z))]  # a step that is not finite is no stop
    return lam, sweeps


def _rank_one_roots(mu: np.ndarray, weights: np.ndarray, tau: float):
    """Eigenvalues of B = diag(mu) + i tau w w^H with |w|^2 = weights, in mu's order.

    mu is ascending.  Poles that drop out of the secular function are
    deflated: where tau = 0 or w_k = 0, or where both the root's
    distance |tau| |w_k|^2 from mu_k is within eps |mu_k| and
    |tau w_k| <= 8 eps max(|mu|, |tau|) (Dongarra & Sorensen, SIAM J.
    Sci. Stat. Comput. 1987), mu_k is an eigenvalue: that moves it by at
    most one rounding and B by at most 2 |tau w_k|.  The other
    eigenvalues are the roots of the secular function (`_aberth_roots`).
    Returns the eigenvalues, the mask of deflated poles and the number
    of Aberth sweeps.

    Raises
    ------
    RootFindingError
        If two poles that are not deflated are equal: the secular
        function then misses an eigenvalue at the pole.
    """
    eps = np.finfo(float).eps
    coupling = abs(tau) * np.sqrt(weights)
    negligible = abs(tau) * weights <= eps * np.abs(mu)
    negligible &= coupling <= 8.0 * eps * max(float(np.max(np.abs(mu))), abs(tau))
    poles = np.flatnonzero(~negligible)
    if np.any(np.diff(mu[poles]) == 0.0):
        raise RootFindingError("the rank-one form has two equal poles that both carry weight")
    lam = mu.astype(complex)
    lam[poles], sweeps = _aberth_roots(mu[poles], weights[poles], tau)
    return lam, negligible, sweeps


def _to_arrowhead(K, M, schur):
    """The reduction C = L^{-1} K L^{-H}, M = L L^H, brought to an arrowhead by one banded eigensolve.

    L is the arrow-shaped Cholesky factor [[L_T, 0], [l^H, l_n]] of M:
    T_M = L_T L_T^T, L_T l = m_c and l_n^2 = m_ee - ||l||^2, the mass's
    Schur complement.  With g = L_T^{-T} l = T_M^{-1} m_c,
    C = [[A, h], [h^H, eta + i tau]] for the real symmetric
    A = L_T^{-1} T_K L_T^{-T}, h = L_T^{-1} (k_c - T_K g) / l_n and the
    corner (g^H T_K g - 2 Re g^H k_c + k_ee) / l_n^2.  The tridiagonal
    pencil (T_K, T_M) is solved as a band (LAPACK dsbgvd, `_lapack`):
    T_K W = T_M W diag(theta) with W^T T_M W = I, so U = L_T^T W is
    orthogonal, A = U diag(theta) U^T, and C in the basis diag(U, 1) is
    the arrowhead [[diag(theta), z], [z^H, eta + i tau]] with
    z = U^T h = W^T (k_c - T_K g) / l_n.  A is never formed, and g and l_n^2 =
    m_ee - m_c^H g come as schur from `_mass_extremes` (None for a minimal pencil).

    Returns theta (ascending), W, which makes
    L^{-H} diag(U, 1) = [[W, -g / l_n], [0, 1 / l_n]], and for an
    enriched pencil (z, eta, tau, g / l_n, 1 / l_n), else None.
    """
    theta, W = tridiagonal_eigh(K.diag, K.off, M.diag, M.off, vectors=True)
    if schur is None:
        return theta, W, None
    k_c, (ell_n2, g) = K.border[0], schur
    ell_n = math.sqrt(ell_n2)
    g = g[:, 0] + 1j * g[:, 1]
    Tg = K.dot(np.append(g, 0.0))[:-1]
    corner = (np.vdot(g, Tg).real - 2.0 * np.vdot(g, k_c).real + complex(K.corner[0])) / ell_n**2
    h = k_c - Tg
    z = scipy.linalg.blas.dgemm(1.0 / ell_n, W, np.column_stack((h.real, h.imag)), trans_a=True)
    z = z[:, 0] + 1j * z[:, 1]
    return theta, W, (z, float(corner.real), float(corner.imag), g / ell_n, 1.0 / ell_n)


def _nearest_pole_step(t: np.ndarray, moduli2: np.ndarray, corner, x: np.ndarray):
    """One Newton step from each x towards a root of f = corner - x - sum_j moduli2_j / (t_j - x).

    t is ascending.  The step is taken on h = (t_j - x) f with t_j the
    pole nearest to x, which stays smooth where f has its pole, so that
    a root far closer to t_j than x is still reached (as in
    `_mass_extremes`), and it gives the new offset t_j - x as
    (d^2 r' - moduli2_j) / (d r' - r) with d the old offset, r the sum
    without pole j and r' = -1 - sum_{i != j} moduli2_i / (t_i - x)^2 its
    slope, free of the cancellation in t_j - x.  Where that is not
    finite the old offset stays.  Returns j, the new offsets and r'.
    """
    right = np.searchsorted(t, x.real)
    below, above = np.maximum(right - 1, 0), np.minimum(right, len(t) - 1)
    pick = np.where(np.abs(x.real - t[below]) <= np.abs(t[above] - x.real), below, above)
    rows = np.arange(len(x))
    d = t[pick] - x
    R = t - x[:, np.newaxis]
    R[rows, pick] = 1.0
    np.reciprocal(R, out=R)
    R[rows, pick] = 0.0  # the sums leave the nearest pole out
    rest = corner - x - np.einsum("ij,j->i", R, moduli2)
    R *= R
    slope = -1.0 - np.einsum("ij,j->i", R, moduli2)
    del R
    with np.errstate(divide="ignore", invalid="ignore"):
        moved = (d * d * slope - moduli2[pick]) / (d * slope - rest)
    taken = np.isfinite(moved)
    d[taken] = moved[taken]
    return pick, d, slope


def _arrowhead_eigenvalues(theta: np.ndarray, z: np.ndarray, eta: float, tau: float):
    """Eigenvalues of the arrowhead B = [[diag(theta), z], [z^H, eta + i tau]], and its rank-one form.

    theta is ascending.  A border entry |z_j| <= 8 eps ||B|| (Dongarra &
    Sorensen) is deflated: theta_j is an eigenvalue with eigenvector
    e_j, and B moves by at most |z_j|.  The Hermitian part of B with its
    corner made real has the eigenvalues mu of the real arrowhead
    [[diag(theta), |z|], [|z|, eta]] and the squared last entries
    |w_k|^2 = 1 / (1 + sum_j |z_j|^2 / (mu_k - theta_j)^2) of its
    eigenvectors, so B is unitarily similar to diag(mu) + i tau w w^H.
    One eigenvalue-only eigensolve gives its roots, and one
    `_nearest_pole_step` from them gives both: mu_k = theta_j - offset and
    |w_k|^2 = 1 / (|z_j|^2 / offset^2 - slope) with theta_j the nearest
    pole, so no distance to a pole is taken by subtraction (as in LAPACK's
    dlaed4; Li, LAWN 89, 1994).  Its eigenvalues are the secular roots of
    (mu, |w|^2, tau) (`_rank_one_roots`), each then taken one Newton step
    towards a root of B's own secular function
    f(lambda) = eta + i tau - lambda - sum_j |z_j|^2 / (theta_j - lambda),
    for which the eigenvectors of `_arrowhead_vectors` are exact.  The
    step is taken on (theta_j - lambda) f with theta_j the nearest pole,
    which has no pole there (as in `_mass_extremes`), and yields the
    offset theta_j - lambda directly, so that the eigenvector's entry
    z_j / (lambda - theta_j) stays accurate for a root within rounding
    of theta_j.

    Returns the eigenvalues sorted as solve_pencil sorts them; for each,
    the index j of its nearest pole theta_j (-1 when every z_j is
    deflated) and the offset theta_j - lambda, which is 0 exactly for a
    deflated theta_j; the rank-one form (mu, |w|^2) with mu ascending;
    the Aberth sweeps; and the count of deflated poles, of either kind.

    Raises
    ------
    RootFindingError
        If two equal theta_j both carry weight, or from `_rank_one_roots`.
    """
    eps = np.finfo(float).eps
    modulus = np.abs(z)
    scale = max(float(np.max(np.abs(theta))), abs(complex(eta, tau)), float(np.max(modulus)))
    flat = modulus <= 8.0 * eps * scale
    live = np.flatnonzero(~flat)
    if np.any(np.diff(theta[live]) == 0.0):
        raise RootFindingError("the arrowhead has two equal poles that both carry weight")
    # corner first, then theta descending: a graded pencil's arrowhead is then
    # graded downwards, and Householder tridiagonalization keeps its small
    # eigenvalues to high relative accuracy
    H = np.diag(np.append(eta, theta[live[::-1]]))
    H[1:, 0] = modulus[live[::-1]]  # the lower triangle, which eigvalsh reads
    nu = scipy.linalg.eigvalsh(H, overwrite_a=True, check_finite=False)
    del H
    t, moduli2 = theta[live], modulus[live] ** 2
    nu_weights = np.ones(len(nu))  # with every z_j deflated, nu = eta has weight 1
    if live.size:
        pick, offset, slope = _nearest_pole_step(t, moduli2, eta, nu)
        nu = t[pick] - offset
        with np.errstate(divide="ignore", over="ignore"):  # nu_k on a pole: weight 0
            nu_weights = 1.0 / (moduli2[pick] / offset**2 - slope)
    mu = np.concatenate((theta[flat], nu))
    order = np.argsort(mu, kind="stable")
    mu = mu[order]
    weights = np.concatenate((np.zeros(len(theta) - len(live)), nu_weights))[order]
    near = np.concatenate((np.flatnonzero(flat), np.full(len(nu), -1)))[order]
    lam, negligible, sweeps = _rank_one_roots(mu, weights, tau)
    offset = np.zeros(len(lam), dtype=complex)
    fix = np.flatnonzero(near < 0)
    if live.size:
        pick, offset[fix], _ = _nearest_pole_step(t, moduli2, complex(eta, tau), lam[fix])
        lam[fix] = t[pick] - offset[fix]
        near[fix] = live[pick]

    order = np.lexsort((lam.imag, lam.real, np.abs(lam)))
    return lam[order], near[order], offset[order], mu, weights, sweeps, int(np.count_nonzero(negligible))


def _arrowhead_vectors(theta: np.ndarray, z: np.ndarray, lam: np.ndarray, near: np.ndarray, offset: np.ndarray):
    """Right and left eigenvectors of the arrowhead B of `_arrowhead_eigenvalues`, side by side.

    For m eigenvalues (any subset, with the near and offset they came
    with), columns k < m are the right eigenvectors [z / (lambda - theta); 1]
    with unit norm, and columns m + k the left ones, eigenvectors of B^H
    for conj(lambda), unscaled.  With Phi = diag(z / |z|, 1) (1 where
    z_j = 0), Phi^H B Phi is complex symmetric, so the left eigenvector
    is Phi^2 conj(y) up to scale: [z / conj(lambda - theta); 1], which
    takes the right one's pole distances conjugated and divides z by
    them, as the right one does.  The entry at each eigenvalue's nearest
    pole divides by the offset theta_j - lambda that the eigenvalue came
    with.  A column with a zero offset belongs to a deflated theta_j and
    is e_j, and the deflated z_j count as 0 in the other columns.
    """
    m = len(lam)
    cols = np.flatnonzero(near >= 0)
    deflated = cols[offset[cols] == 0.0]
    cols = cols[offset[cols] != 0.0]
    z = z[:, np.newaxis].copy()
    z[near[deflated]] = 0.0
    Y = np.empty((len(theta) + 1, 2 * m), dtype=complex)
    right, left = Y[:-1, :m], Y[:-1, m:]
    np.subtract(lam, theta[:, np.newaxis], out=right)
    right[near[cols], cols] = -offset[cols]
    right[:, deflated] = 1.0
    np.divide(z, np.conjugate(right, out=left), out=left)
    np.divide(z, right, out=right)
    Y[-1] = 1.0
    for half in (Y[:, :m], Y[:, m:]):
        half[:, deflated] = 0.0
        half[near[deflated], deflated] = 1.0
    Y[:, :m] /= _column_norms(Y[:, :m])
    return Y


def _column_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a complex X, with no temporary of X's size."""
    return np.sqrt(np.einsum("ij,ij->j", X.real, X.real) + np.einsum("ij,ij->j", X.imag, X.imag))


def _lift(W: np.ndarray, g: np.ndarray, inv_ell_n: float, Y: np.ndarray) -> np.ndarray:
    """L^{-H} diag(U, 1) Y = [[W, -g], [0, 1 / l_n]] Y for `_to_arrowhead`'s W, g / l_n (here g) and 1 / l_n.

    W multiplies Y's float pairs, one real matrix product, and the
    border column is a rank-one update in place; Y's last row is real.
    The solve lifts a block of columns at a time, the right and left
    eigenvectors of the block in one product, so that no n x n complex
    array but the returned eigenvectors is formed.
    The solve runs its matrix products on scipy's BLAS, like its
    eigensolves, and its sums in numpy's einsum loops: numpy links an
    OpenBLAS of its own, whose idle threads spin, and on two cores a
    numpy BLAS call just before a scipy eigensolve slows the eigensolve
    two- to threefold.
    """
    V = np.empty(Y.shape, dtype=complex)
    # (Y's float pairs)^T W^T into V's, Fortran-ordered transposes: no copy
    scipy.linalg.blas.dgemm(1.0, Y[:-1].view(float).T, W, trans_b=True, c=V[:-1].view(float).T, overwrite_c=True)
    # V[:-1] -= g Y[-1] in place: BLAS geru on the Fortran-ordered transpose
    scipy.linalg.blas.zgeru(-1.0, Y[-1], g, a=V[:-1].T, overwrite_a=True)
    V[-1] = Y[-1].real * inv_ell_n
    return V


def retained_count(n: int) -> int:
    """How many of an n-pair solve's eigenpairs `solve_pencil` trusts: the leading 80%, at least one."""
    return max(1, math.floor(RETAIN_FRACTION * n))


def solve_pencil(pencil) -> SpectralResult:
    """Generalized eigensolve of K v = lambda M v for an arrow-tridiagonal pencil.

    The gate reads cond(M) off the mass's parts (`_mass_extremes`).
    The reduction C = L^{-1} K L^{-H}, M = L L^H with L the mass's
    arrow-shaped Cholesky factor, is brought to the arrowhead
    [[diag(theta), z], [z^H, eta + i tau]] by one banded eigensolve with
    vectors of the tridiagonal pencil (T_K, T_M) and the gate's
    tridiagonal solve at 0 (`_to_arrowhead`); no dense block of (K, M)
    is formed.  The eigenvalues are the roots of the secular function of
    the rank-one form (mu, |w|^2, tau) of that arrowhead, polished by one
    Newton step on its own secular function (`_arrowhead_eigenvalues`).
    The eigenvectors, with unit M-norm, are its closed-form ones taken
    back by L^{-H} diag(U, 1), and the left eigenvectors, which the
    arrowhead's phase symmetry gives from the same pole distances
    (`_arrowhead_vectors`), give each eigenvalue u^H K v / u^H M v on
    (K, M), formed from the parts; only a pair whose condition number
    ||u||_M / |u^H M v| (||v||_M = 1) exceeds _DEFECTIVE_CONDITION keeps
    its secular eigenvalue.  Both are lifted a block of max(64, n / 8)
    columns at a time, one real matrix product per block (`_lift`), and
    each block is dropped once its quotients and residuals are read: the
    solve holds W, the eigenvectors it returns and four complex arrays of
    a block's width, about 4 n^2 doubles at its peak from n = 512 on
    (4.5 n^2 at n = 399).  A minimal pencil (no border) is real and
    definite: its eigenpairs are (theta, W) with W^T T_M W = I.  The
    backward error on (K, M) is about cond(M) times machine epsilon;
    `residuals` records it for every pair, at the eigenvalue returned.
    Eigenpairs are sorted by ascending |lambda| (ties by real then
    imaginary part); the trailing 20% is flagged as untrusted.

    Raises
    ------
    IllConditionedMass
        If cond(M) > 1e12 or M is not positive definite.
    RootFindingError
        If the secular iteration does not converge.
    """
    K, M = pencil.K, pencil.M
    low, high, schur = _mass_extremes(M)
    cond = high / low
    if cond > MASS_CONDITION_LIMIT:
        raise IllConditionedMass(f"mass matrix condition number {cond:.3e} exceeds 1e12")

    theta, W, border = _to_arrowhead(K, M, schur)
    if border is None:
        lam, mu, weights, tau = theta.astype(complex), theta, np.zeros(len(theta)), 0.0
        sweeps, deflated = 0, len(theta)
    else:
        z, eta, tau, g, inv_ell_n = border
        lam, near, offset, mu, weights, sweeps, deflated = _arrowhead_eigenvalues(theta, z, eta, tau)
    # The eigensolves leave an error of about eps ||C|| in small
    # eigenvalues of a graded pencil.  One two-sided Rayleigh quotient
    # on (K, M) itself removes it to second order (Ostrowski), except at
    # a defective pair, whose left and right eigenvectors are nearly
    # M-orthogonal.  A block of columns at a time, the right and the
    # conjugated left eigenvectors are lifted and their products with K
    # and M formed; each block array is deleted once read, before the
    # next one is allocated.
    n = len(lam)
    vec = np.empty((n, n), dtype=complex)
    residuals = np.empty(n)
    defective = np.zeros(n, dtype=bool)
    # a lift of few columns runs at about half the BLAS rate of a wide one, and
    # n / 8 columns keep a block's four complex n x width arrays within n^2 doubles
    width = max(_REFINE_BLOCK, n // 8)
    for start in range(0, n, width):
        cols = slice(start, start + width)
        if border is None:
            vec[:, cols] = W[:, cols]
            conj_left = vec[:, cols]  # real, for a real symmetric pencil
            left_norms = 1.0  # W^T T_M W = I
        else:
            Y = _arrowhead_vectors(theta, z, lam[cols], near[cols], offset[cols])
            left_norms = _column_norms(Y[:, Y.shape[1] // 2 :])  # ||u||_M: the lift is M-unitary
            Y = _lift(W, g, inv_ell_n, Y)
            right, left = np.hsplit(Y, 2)
            vec[:, cols] = right
            conj_left = left.conj()
            del Y, right, left
        block = vec[:, cols]
        stiff_vec, mass_vec = K.dot(block), M.dot(block)
        overlap = np.einsum("ij,ij->j", conj_left, mass_vec)  # u^H M v
        defective[cols] = left_norms > _DEFECTIVE_CONDITION * np.abs(overlap)
        taken, values = ~defective[cols], lam[cols]  # a view: the quotients go into lam
        values[taken] = np.einsum("ij,ij->j", conj_left, stiff_vec)[taken] / overlap[taken]
        del conj_left
        gap = np.multiply(mass_vec, values, out=mass_vec)
        residuals[cols] = _column_norms(np.subtract(stiff_vec, gap, out=gap)) / _column_norms(block)
        del stiff_vec, mass_vec, gap
    del W
    order = np.lexsort((lam.imag, lam.real, np.abs(lam)))
    moved = np.flatnonzero(order != np.arange(n))  # the refinement swapped a near tie
    lam, residuals = lam[order], residuals[order]
    vec[:, moved] = vec[:, order[moved]]
    mu.flags.writeable = weights.flags.writeable = False  # shared by every probe
    n_retained = retained_count(n)
    return SpectralResult(
        eigenvalues=lam,
        eigenvectors=vec,
        residuals=residuals,
        n_retained=n_retained,
        pencil=pencil,
        rank_one_form=(mu, weights, tau),
        mass_condition=cond,
        aberth_sweeps=sweeps,
        deflated_poles=deflated,
        refined_pairs=n - int(np.count_nonzero(defective)),
    )


def _singular_values_below(d, moduli2, weights, weight_sum: float, tau: float, s: float) -> int:
    """Number of singular values below s > 0 of B = diag(d) + i tau w w^H.

    moduli2 holds |d_k|^2, weights |w_k|^2 and weight_sum their sum.  The count follows from
    Haynsworth inertia additivity on the Hermitian dilation
    [[-s, B], [B^H, -s]], which has n + #{sigma_j < s} negative
    eigenvalues, written as a block diagonal plus the rank-two update
    bordered by [[0, -i/tau], [i/tau, 0]] (one negative eigenvalue):
    the 2 x 2 blocks [[-s, d_k], [conj(d_k), -s]] have n + #{|d_k| < s}
    negative eigenvalues, and the 2 x 2 Schur complement has
    eigenvalues -a +- |h + i/tau| with, for alpha_k = |w_k|^2 / (|d_k|^2 - s^2),
    a = s sum alpha_k and h = sum alpha_k d_k.  Their signs follow from
    a and tau^2 (a^2 - |h + i/tau|^2), which equals
    tau^2 (sum alpha (sum alpha |d - c|^2 - sum |w|^2) - |sum alpha (d - c)|^2)
    - 1 - 2 tau sum alpha Im d for any c.  Taking c = d_k at the pole
    nearest to s cancels that pole's alpha_k^2 terms exactly, so the
    count stays right next to a pole; an s on a pole moves up by one ulp.
    """
    while True:
        gap = moduli2 - s * s
        if gap.all():
            break
        s = float(np.nextafter(s, math.inf))
    alpha = weights / gap
    total = float(alpha.sum())
    shifted = d - d[np.argmin(np.abs(gap))]
    moment = float(alpha @ (shifted.real**2 + shifted.imag**2))
    det = tau * tau * (total * (moment - weight_sum) - abs(complex(alpha @ shifted)) ** 2)
    det -= 1.0 + 2.0 * tau * float(alpha @ d.imag)
    negative = 1 if det <= 0.0 else 2 if total > 0.0 else 0
    return int(np.count_nonzero(gap < 0.0)) + negative - 1


def _bisect(lo: float, hi: float, above) -> float:
    """The point where above(s) turns true in (lo, hi], to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if above(mid):
            hi = mid
        else:
            lo = mid


def resolvent_norm(result: SpectralResult, lam: complex) -> float:
    """Operator norm of (A - lambda)^{-1} in the M-inner product.

    That is 1 / sigma_min of C - lambda I, the M-symmetrized shifted
    pencil L^{-1}(K - lambda M)L^{-H} with M = L L^H and C = L^{-1} K L^{-H}
    the reduction of the solve.  C - lambda is unitarily similar to
    B = diag(mu - lambda) + i tau w w^H (see `SpectralResult.rank_one_form`),
    so sigma_min is found by one bisection on an O(n) count, inside the
    bracket that Weyl's inequality gives for a rank-one update of norm
    |tau| ||w||^2.  Returns +inf when lambda is (numerically) an
    eigenvalue: sigma_min below 1e-13 times Weyl's upper bound on sigma_max,
    max_k |mu_k - lambda| + |tau| ||w||^2; such a probe bisects not at all.
    A non-finite lambda raises ValueError.
    """
    lam = _complex(lam, "lambda")
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    mu, weights, tau = result.rank_one_form
    d = mu - lam
    moduli2 = d.real**2 + d.imag**2
    weight_sum = float(weights.sum())
    spread = abs(tau) * weight_sum

    def below(s):
        return _singular_values_below(d, moduli2, weights, weight_sum, tau, s)

    bound = math.sqrt(moduli2.max()) + spread
    floor = 1e-13 * bound
    if bound == 0.0 or below(floor) >= 1:
        return math.inf
    bottom = math.sqrt(moduli2.min())
    s_min = _bisect(max(bottom - spread, floor), bottom + spread, lambda s: below(s) >= 1)
    return 1.0 / s_min


def ray_minimal_growth_full(ray: Ray, result: SpectralResult) -> tuple:
    """Probe the resolvent along a ray and fit its decay rate.

    Returns the resolvent norms at r e^{i theta} for r in
    `result.probe_radii`, and the ray's verdict: Minimal when the log-log
    slope of the norm against |lambda| sits in [-1.15, -0.85] and
    |lambda| * norm stays bounded over the probes.
    """
    radii = result.probe_radii
    theta = ray.angle_theta
    norms = [resolvent_norm(result, r * cmath.exp(1j * theta)) for r in radii]
    witness = {"radii": radii, "norms": [float(v) for v in norms]}
    if not all(math.isfinite(v) for v in norms):
        hit = radii[next(i for i, v in enumerate(norms) if not math.isfinite(v))]
        note = f"resolvent does not exist at |lambda| = {hit:.6g} on the ray"
        return norms, RayVerdict(ray, "Fails", sup_bound=math.inf, witness=witness, note=note)
    sup_bound = float(max(r * v for r, v in zip(radii, norms)))
    slope = float(np.polyfit(np.log(radii), np.log(norms), 1)[0])
    if SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        return norms, RayVerdict(ray, "Minimal", sup_bound=sup_bound, slope=slope)
    note = "resolvent growth along the ray is not O(1/|lambda|)"
    return norms, RayVerdict(ray, "Fails", sup_bound, slope, witness=witness, note=note)


def _cluster_defective(result: SpectralResult, count: int):
    """Replace numerically defective eigenvector clusters by Jordan chains.

    Eigenvalues closer than 1e-6 (relative) whose eigenvectors are
    parallel within 1e-3 rad span too little.  Both tests are read for
    every pair at once, from the eigenvalues and one Gram matrix of the
    unit eigenvectors, before any column is replaced; the clusters are
    then grouped greedily in eigenvalue order.  A cluster at c keeps its
    first eigenvector v_0; member k >= 1 becomes the Jordan chain's [x; 0],
    normalized: the solution of the consistent (K - c M) v = M v_{k-1}
    that ends in 0, as v_0 does not.  (T_K - c T_M) x = (M v_{k-1})_top is
    one tridiagonal solve (LAPACK gtsv), nonsingular for non-real c; a
    pencil with tau = 0 forms no cluster.  A singular pivot raises LinAlgError.
    """
    K, M = result.pencil.K, result.pencil.M
    core = len(K.diag)
    lam = result.eigenvalues[:count]
    V = result.eigenvectors[:, :count].copy()
    unit = V / _column_norms(V)
    size = np.abs(lam)
    scale = np.maximum(1.0, np.maximum.outer(size, size))
    parallel = np.abs(scipy.linalg.blas.zgemm(1.0, unit, unit, trans_a=2)) > math.cos(1e-3)
    close = np.triu((np.abs(np.subtract.outer(lam, lam)) <= 1e-6 * scale) & parallel, 1)
    used = np.zeros(count, dtype=bool)
    for i in range(count):
        if used[i]:
            continue
        members = [i, *np.flatnonzero(close[i] & ~used)]
        if len(members) < 2:
            continue
        used[members] = True
        c = lam[i]
        diag = K.diag - c * M.diag
        off = K.off - c * M.off if core > 1 else np.zeros(1)  # the gtsv wrapper wants one entry even then
        for prev, member in zip(members, members[1:]):
            x, info = scipy.linalg.lapack.zgtsv(off, diag, off, M.dot(V[:, prev])[:core])[3:]
            if info:
                raise np.linalg.LinAlgError(f"T_K - c T_M is singular at the defective eigenvalue c = {c:.6g}")
            V[:, member] = 0.0
            V[:core, member] = x / np.linalg.norm(x)
    return V


def completeness_residual(result: SpectralResult, f, N_list):
    """M-orthogonal projection defects of f onto nested eigenvector spans.

    For each N in N_list, f (unit norm in the pencil's mass M) is
    projected onto the span of the first N retained eigenvectors, each
    defective cluster taken as its Jordan chain (`_cluster_defective`).
    One M-orthonormal factorization V = Q R of those columns gives every
    span: Cholesky QR run twice in the M inner product (Yamamoto,
    Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015), so that Q^H M Q is the
    identity to machine precision for cond(V) up to about 1e8.  With
    c = Q^H M f, the defect for N is the M-norm of f - Q[:, :N] c[:N],
    nonincreasing in N.  Columns dependent to working precision leave
    V^H M V singular to working precision: its Cholesky factorization
    fails or, where rounding lets it through, the second pass's factor
    departs from I, and either raises LinAlgError.
    """
    M = result.pencil.M
    f = np.asarray(f, dtype=complex).reshape(-1)
    N_list = [_number(N, "N_list", integral=True) for N in N_list]
    if not N_list:
        raise ValueError("N_list must be nonempty")
    if any(N < 1 for N in N_list):
        raise ValueError("projection counts must be positive")
    max_n = max(N_list)
    if max_n > result.n_retained:
        raise ValueError(
            f"N = {max_n} exceeds the retained eigenpair count {result.n_retained}"
        )
    mass_f = M.dot(f)
    if abs(math.sqrt(abs(np.vdot(f, mass_f))) - 1.0) > 1e-6:
        raise ValueError("test vector must have unit M-norm")

    blas = scipy.linalg.blas
    Q = _cluster_defective(result, max_n)
    for _ in range(2):  # the second pass takes Q^H M Q - I from eps cond(V)^2 down to eps
        R = scipy.linalg.cholesky(blas.zgemm(1.0, Q, M.dot(Q), trans_a=2))
        Q = blas.ztrsm(1.0, R, Q, side=1)
    # the second factor is I + O(eps cond(V)^2) while cond(V) < 1e8; beyond, rounding steered the first pass
    if np.min(np.diag(R).real) < 0.5:
        raise np.linalg.LinAlgError("the eigenvector columns are dependent to working precision")
    coeffs = blas.zgemv(1.0, Q, mass_f, trans=2)
    defects = f[:, np.newaxis] - np.cumsum(Q * coeffs, axis=1)[:, np.array(N_list) - 1]
    norms = np.sqrt(np.abs(np.einsum("ij,ij->j", defects.conj(), M.dot(defects))))
    return [(N, float(r)) for N, r in zip(N_list, norms)]


# ---------------------------------------------------------------------------
# Bessel secular-equation oracle for the radial model problem.
#
# A solution behaving like a x^nu + b x^{-nu} at the tip (a + b log x
# for nu = 0) and vanishing at x = 1 exists exactly at the roots of an
# entire secular function F = a P + b Q; fixing the constants by matching
# small-x series gives, with w = sqrt(lambda) (principal branch):
#   nu > 0:  P = Gamma(1+nu) (w/2)^{-nu} J_nu(w),  Q = Gamma(1-nu) (w/2)^{+nu} J_{-nu}(w)
#   nu = 0:  P = J_0(w),  Q = W(w) = (pi/2) Y_0(w) - (log(w/2) + gamma_E) J_0(w)
# P and Q are entire; this closed form (Amos's complex Bessel routines in scipy)
# gives them at every lambda but the removable point 0, where log(w/2) is -inf
# and (P, Q) is set to (1, 0) for nu = 0 and to (1, 1) for nu > 0.
#
# Only the unit radius is solved: in y = x / R the tip pair is (a + b log R) + b log y,
# or a R^nu y^nu + b R^-nu y^-nu, and lambda is the unit root over R^2, so the
# circles and Newton's stopping rule below never see R.
#
# The roots are read off circles |lambda| = rho (Delves & Lyness, Math.
# Comp. 1967): the winding of F counts the roots inside, one FFT of log F
# gives their power sums, and Newton polishes the roots of the polynomial
# those sums define, a circle's roots together.  As P(conj l) = conj P(l),
# and so for Q, a circle reads each conjugate pair of samples once and
# reflects the parts; F has no such symmetry for complex (a, b).  A disk is
# the region that sorting by |lambda| asks for, so no root off the real
# axis is missed.  Power sums about 0 lose small roots once a disk holds
# more than about fifteen, so sqrt(rho), which grows by pi per root of
# the Dirichlet problem, starts at (min(how_many, 8) + 1) pi and steps out
# by 8 pi while the count is short; each step solves only for the roots
# outside the previous circle.  A rejected circle (one hugging a root, or
# too many new roots to resolve) is pulled halfway back towards the previous one.
#
# Samples: a root at relative distance delta from the circle aliases the
# p-th coefficient of log F by about (p/m) (1 - delta)^m; the step past it
# subtends arctan(2 pi/(m delta)), so the pi/4 rule needs m >= 2 pi/delta,
# leaving (p/m) e^{-2 pi}, and _POWER_SUM_TOL rejects a circle where that
# fails.  The first circle (sqrt(rho) <= 9 pi) passes at 128, not 64.
# Each later circle starts at the count its predecessor passed at: the
# roots crowd closer to a larger circle, so it seldom needs fewer, and
# starting lower only repeats the doublings.
# ---------------------------------------------------------------------------

_CONTOUR_SAMPLES = 128
_CONTOUR_SAMPLE_CAP = 1 << 16
_RADIUS_ATTEMPTS = 100
_POWER_SUM_TOL = 1e-3
_ROOTS_PER_STEP = 8


def _secular_parts(nu: float, lam) -> tuple:
    """(P, Q) at lam by the Bessel closed form, and at the removable point lam = 0 exactly (1, 0) or (1, 1)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    zero = lam == 0.0
    w = np.sqrt(np.where(zero, 1.0, lam))  # any nonzero stand-in: P and Q at 0 are set below
    if nu == 0.0:
        P = jv(0, w)
        Q = 0.5 * math.pi * yv(0, w) - (np.log(w / 2.0) + np.euler_gamma) * P
    else:
        half_w = np.log(w / 2.0)
        P = _gamma_fn(1.0 + nu) * np.exp(-nu * half_w) * jv(nu, w)
        Q = _gamma_fn(1.0 - nu) * np.exp(nu * half_w) * jv(-nu, w)
    P[zero], Q[zero] = 1.0, (0.0 if nu == 0.0 else 1.0)
    return P, Q


def _contour_parts(nu: float, rho: float, m: int) -> tuple:
    """theta_k = 2 pi k / m and (P, Q) at rho e^{i theta_k}, evaluated for k <= m/2 only."""
    theta = 2.0 * math.pi * np.arange(m) / m
    upper = _secular_parts(nu, rho * np.exp(1j * theta[: m // 2 + 1]))
    return (theta, *(np.concatenate((v, np.conj(v[m // 2 - 1 : 0 : -1]))) for v in upper))


def _modulus(z: np.ndarray) -> np.ndarray:  # rounded as abs(complex) is; np.abs may differ in the last bit
    return np.hypot(z.real, z.imag)


def _newton_polish(F, z0: np.ndarray, step_scale: float) -> Optional[np.ndarray]:
    """Newton on F from every start at once, each on its own iteration; None if any fails.

    A start stops once its step is at most 1e-13 max(1, |z|), and fails on a zero
    difference quotient, on moving 50 step_scale away, or on 80 steps without stopping.
    """
    z = np.array(z0, dtype=complex)
    live = np.arange(z.size)
    for _ in range(80):
        zl = z[live]
        h = 1e-6 * np.maximum(1.0, _modulus(zl))
        f0, fp1, fm1 = F(np.concatenate((zl, zl + h, zl - h))).reshape(3, -1)
        dfdz = (fp1 - fm1) / (2.0 * h)
        if np.any(dfdz == 0.0):
            return None
        dz = f0 / dfdz
        z[live] = zl = zl - dz
        if np.any(_modulus(zl - z0[live]) > 50.0 * step_scale):
            return None
        live = live[~(_modulus(dz) <= 1e-13 * np.maximum(1.0, _modulus(zl)))]
        if live.size == 0:
            return z
    return None


def _disk_roots(nu: float, a: complex, b: complex, rho: float, known: list, m: int) -> tuple:
    """Every root of F in |lambda| < rho given the known ones, or None to reject the circle.

    The phase of F is sampled on |lambda| = rho at m points, doubling
    them until no wrapped step exceeds pi/4.  Its winding is the root
    count N; with g = log F - i N theta periodic, the Fourier coefficients of g
    give the power sums S_p of lambda/rho over the roots.  Less the
    known roots' share, Newton's identities turn them into a monic
    polynomial whose roots are polished on F.  The polished roots must
    lie inside the circle and, with the known ones, reproduce S_1..S_N;
    otherwise two estimates polished onto one root and a root is missing.
    Returns the roots (or None) and the sample count that passed the
    phase rule, which the next circle starts from; m itself where none did.
    """

    def F(lam):
        P, Q = _secular_parts(nu, lam)
        return a * P + b * Q

    start = m
    while True:
        theta, P, Q = _contour_parts(nu, rho, m)
        vals = a * P + b * Q
        if not np.all(np.isfinite(vals) & (vals != 0.0)):
            return None, start
        steps = (np.diff(np.angle(vals), append=np.angle(vals[0])) + math.pi) % (2.0 * math.pi) - math.pi
        if np.max(np.abs(steps)) <= 0.25 * math.pi:
            break
        if m >= _CONTOUR_SAMPLE_CAP:
            return None, start
        m *= 2
    count = round(float(np.sum(steps)) / (2.0 * math.pi))
    if count <= len(known):
        return (list(known) if count == len(known) else None), m
    phase = np.angle(vals[0]) + np.concatenate(([0.0], np.cumsum(steps[:-1])))
    coeffs = np.fft.fft(np.log(np.abs(vals)) + 1j * (phase - count * theta)) / m
    p = np.arange(1, count + 1)
    sums = -p * coeffs[m - p]

    def power_sums(roots):
        return ((np.array(roots, dtype=complex) / rho)[np.newaxis, :] ** p[:, np.newaxis]).sum(axis=1)

    new_sums = sums - power_sums(known)
    poly = [1.0 + 0.0j]
    for k in range(1, count - len(known) + 1):  # Newton's identities
        poly.append(-sum(new_sums[i - 1] * poly[k - i] for i in range(1, k + 1)) / k)
    new = _newton_polish(F, rho * np.roots(poly), rho / 50.0)
    if new is None or np.any(np.abs(new) >= rho):
        return None, m
    roots = list(known) + list(new)
    return (None if np.max(np.abs(sums - power_sums(roots))) > _POWER_SUM_TOL else roots), m


def _radius_and_count(R, how_many) -> tuple:
    """Both oracles' R and how_many, read as numbers; 1/R^2, which scales their roots, must be a positive double."""
    R, how_many = _number(R, "R"), _number(how_many, "how_many", integral=True)
    if not (R > 0.0 and R * R > 0.0 and 0.0 < 1.0 / (R * R) < math.inf):
        raise ValueError(f"R must be positive with 1/R^2 a positive double, got {R!r}")
    if how_many < 1:
        raise ValueError("how_many must be positive")
    return R, how_many


def _roots_at_radius(unit_roots: np.ndarray, R: float) -> np.ndarray:
    """The unit radius's roots over R^2, or ValueError where one of them leaves the doubles."""
    with np.errstate(over="ignore"):
        lam = unit_roots / (R * R)
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"the roots at R = {R!r} leave the doubles")
    return lam


def oracle_eigenvalues(nu: float, a: complex, b: complex, R: float, how_many: int) -> np.ndarray:
    """Roots of the radial secular equation, sorted by |lambda|.

    Independent of any discretization: the spectrum of the mode
    operator with tip coefficients (a, b) and Dirichlet condition at R
    is that of the unit radius with (a + b log R, b) for nu = 0 and
    (a R^nu, b R^-nu) otherwise, divided by R^2.  There it is read off
    the entire secular function on disks |lambda| < rho.
    The argument principle counts the roots inside, contour power sums
    locate them, and Newton polishing on the secular function refines
    them.  rho grows until the disk holds at least how_many roots, so
    the returned roots are the how_many smallest in modulus wherever
    they lie in the plane.  Multiple roots are repeated per
    multiplicity, but each copy only to about the square root of the
    working precision: Newton converges linearly on a multiple root, and
    rounding splits it.  At the sector's first exceptional point
    (nu = 2/3, a double root near 12.66073 - 9.09472i at
    a/b = -0.36394 - 7.70743i) each copy comes 4.1e-8 from the double
    root, relative, and their mean 8.8e-11 (8.2e-10 at the conjugate
    point).

    Raises
    ------
    ValueError
        For arguments outside the problem, or where 1/R^2, (a, b) or the roots leave the doubles.
    RootFindingError
        When the fixed number of circles runs out before one holds
        how_many polished roots that reproduce its count and power sums.
    """
    nu = _number(nu, "nu")
    if not (0.0 <= nu < 1.0):
        raise ValueError("secular oracle covers nu in [0, 1)")
    a, b = _complex(a, "a"), _complex(b, "b")
    R, how_many = _radius_and_count(R, how_many)
    a, b = (a + b * math.log(R), b) if nu == 0.0 else (a * R**nu, b * R**-nu)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError(f"(a, b) must be finite at the unit radius, got ({a}, {b})")
    if a == 0 and b == 0:
        raise ValueError("(a, b) must be nonzero at the unit radius")

    known: list = []
    inner = 0.0  # sqrt of the radius whose roots are known
    outer = (min(how_many, _ROOTS_PER_STEP) + 1.0) * math.pi
    samples = _CONTOUR_SAMPLES
    for _ in range(_RADIUS_ATTEMPTS):
        roots, samples = _disk_roots(nu, a, b, outer * outer, known, samples)
        if roots is None:
            outer = 0.5 * (inner + outer)  # hugs a root, or too many new ones
        elif len(roots) < how_many:
            known, inner, outer = roots, outer, outer + _ROOTS_PER_STEP * math.pi
        else:
            roots.sort(key=lambda z: (abs(z), z.real, z.imag))
            return _roots_at_radius(np.array(roots[:how_many], dtype=complex), R)
    raise RootFindingError(
        f"{_RADIUS_ATTEMPTS} circles gave no {how_many} roots "
        "that reproduce the contour count and power sums"
    )


def dirichlet_mode_eigenvalues(nu: float, R: float, how_many: int) -> np.ndarray:
    """Eigenvalues (j_{nu,k}/R)^2 of one mode's Dirichlet problem, 0 <= nu <= 2^50.

    Classical Bessel-zero computation (scan plus Newton), used both as
    the (a,b)=(1,0) cross-check of the secular oracle and for multi-mode
    eigenvalue counting where nu >= 1 modes carry no enrichment.  The zeros
    are Newton's own, deduplicated on a 1e-12 grid but not rounded to it.
    As in the secular oracle, ValueError where 1/R^2 or the eigenvalues leave the doubles.
    """
    nu = _number(nu, "nu")
    if not nu >= 0.0:  # nan too
        raise ValueError(f"nu must be nonnegative, got {nu!r}")
    if nu > BESSEL_ORDER_LIMIT:
        raise ValueError(f"nu = {nu:.6g} is above 2^50; J_nu loses every digit from 2^51")
    R, how_many = _radius_and_count(R, how_many)
    # every zero exceeds nu; the k-th lies near (k + nu/2 - 1/4) pi and below Qu & Wong's (1999) bound in
    # the k-th Airy zero a_k (DLMF 10.21(viii)), about pi (nu/2)^{1/3} / sqrt|a_k| from the next
    airy = (3.0 * math.pi * (4 * how_many + 3) / 8.0) ** (2.0 / 3.0)  # about |a_{how_many+1}|
    upper = 0.5 * nu * math.pi + 1.9 * nu ** (1.0 / 3.0) + (how_many + 2) * math.pi + 4.0
    if nu > 0.0:
        upper = min(upper, nu + airy * (nu / 2.0) ** (1.0 / 3.0) + 0.15 * airy**2 * (2.0 / nu) ** (1.0 / 3.0))
    dx = 0.05 * max(1.0, (nu / 2.0) ** (1.0 / 3.0) / math.sqrt(airy))
    grid = np.linspace(max(1e-6, nu), upper, max(200, int((upper - nu) / dx)))
    vals = jv(nu, grid)
    sign_change = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    zeros = 0.5 * (grid[sign_change] + grid[sign_change + 1])
    for _ in range(60):
        step = jv(nu, zeros) / jvp(nu, zeros)
        zeros = zeros - step
        if np.max(np.abs(step), initial=0.0) < 1e-14 * max(1.0, upper):
            break
    zeros = zeros[np.unique(np.round(zeros / 1e-12), return_index=True)[1]]  # ascending, as the keys are
    zeros = zeros[zeros > max(1e-9, nu)]
    if len(zeros) < how_many:
        raise RootFindingError(f"Bessel zero scan found {len(zeros)} of {how_many} requested zeros")
    return _roots_at_radius(zeros[:how_many] ** 2, R)


def schatten_fit(singular_values, j_range) -> tuple:
    """Decay exponent q of s_j ~ j^{-q} over j_range, and implied p = 1/q.

    j_range is a 1-based inclusive (lo, hi) window, whose values must be
    positive and finite; values outside it may be 0.  A nonpositive fitted q (no
    decay) gives implied_p = inf.
    """
    s = np.asarray(singular_values, dtype=float)
    lo, hi = (_number(j, "j_range", integral=True) for j in j_range)
    if s.ndim != 1:
        raise ValueError("singular values must be a 1-D list")
    if np.any(s[1:] > s[:-1] * (1.0 + 1e-12)):
        raise ValueError("singular values must be sorted descending")
    if not (1 <= lo < hi <= len(s)):
        raise ValueError(f"degenerate fit range ({lo}, {hi}) for {len(s)} values")
    j = np.arange(lo, hi + 1, dtype=float)
    window = s[lo - 1 : hi]
    if not np.all((window > 0.0) & np.isfinite(window)):
        raise ValueError(f"singular values {lo} to {hi} must be positive and finite")
    slope = np.polyfit(np.log(j), np.log(window), 1)[0]
    q = float(-slope)
    implied_p = 1.0 / q if q > 1e-12 else math.inf
    return q, implied_p


def embedding_singular_values(G_high, G_low) -> np.ndarray:
    """Singular values of the identity from the G_high norm to the G_low norm.

    The Grams are borderless ArrowTridiagonal bands of equal size.  The
    values are the square roots of the generalized eigenvalues
    G_low v = sigma^2 G_high v, returned descending, from one
    eigenvalue-only banded eigensolve (LAPACK dsbgvd): O(n^2), with no
    dense block.

    Raises
    ------
    np.linalg.LinAlgError
        If G_high is not positive definite.
    """
    if len(G_high.diag) != len(G_low.diag) or len(G_high.corner) or len(G_low.corner):
        raise ValueError("the Grams must be borderless bands of equal size")
    w, _ = tridiagonal_eigh(G_low.diag, G_low.off, G_high.diag, G_high.off, vectors=False)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def completeness_certificate(n: int, m: int, verdicts) -> CompletenessCertificate:
    """Combine ray verdicts into a completeness certificate.

    max_gap is the widest adjacent angular gap, wrapping around the
    circle; a single ray has gap 2*pi.  The certificate's `complete`
    reads it against pi*m/n.  schatten_p = n/m is the certified
    summability exponent.
    """
    verdicts = tuple(verdicts)
    if not verdicts:
        raise ValueError("need at least one ray verdict")
    n, m = _number(n, "n", integral=True), _number(m, "m", integral=True)
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    angles = np.sort(np.array([v.ray.angle_theta for v in verdicts], dtype=float))
    if len(angles) == 1:
        max_gap = 2.0 * math.pi
    else:
        gaps = np.diff(angles)
        wrap = angles[0] + 2.0 * math.pi - angles[-1]
        max_gap = float(max(np.max(gaps), wrap))
    return CompletenessCertificate(n=n, m=m, schatten_p=n / m, rays=verdicts, max_gap=max_gap)
