"""Spectral experiments on arrow-tridiagonal operator pencils.

Everything here works on a (K, M) pencil in a fixed basis: generalized
eigensolves, resolvent norms along rays with log-log growth fits,
completeness residuals of eigenvector expansions, Weyl and Schatten
exponent fits, and an independent Bessel secular-equation oracle for
the radial model problem L_nu u = -u'' - u'/x + nu^2 u/x^2 with
u(R) = 0 and tip coefficients (a, b) on the singular pair.

The pencil stores K and M as their parts (discretize.ArrowTridiagonal):
a real symmetric tridiagonal hat block, and for an enriched pencil one
complex border with its conjugate and a corner.  M is Hermitian positive
definite, and K is Hermitian except for an imaginary part i tau_K in
its corner; no other pencil can be built.  cond(M), gated at 1e12, and
the products of K and M with vectors are computed from the parts in
O(n) per vector.  The solve still reduces the pencil densely: M = L L^H
(Cholesky) and C = L^{-1} K L^{-H}, whose standard eigenpairs
(lambda, y) give the pencil's as (lambda, L^{-H} y), with a backward
error on (K, M) of about cond(M) times machine epsilon.  L is lower
triangular, so L^{-1} e_n = e_n / L_nn and C is Hermitian but for i tau,
tau = Im C[n-1, n-1], in the same corner.  With H = Q diag(mu) Q^H the
Hermitian part of C (corner made real) and w = Q^H e_n, C - lambda is
unitarily similar to diag(mu - lambda) + i tau w w^H (Golub, SIAM Rev.
1973).  One Hermitian eigensolve of H therefore serves everything:
the eigenvalues of C are the roots of the secular function
g(lambda) = 1 + i tau sum_k |w_k|^2 / (mu_k - lambda), found together
by an Aberth-Ehrlich iteration (Bini & Robol, J. Comput. Appl. Math.
2014), each eigenvector is Q (w / (mu - lambda)), and each resolvent
probe's extreme singular values are roots of a 2 x 2 secular count,
O(n) per probe, from the (mu, |w|^2, tau) that the result keeps.  The
Hermitian eigensolve is accurate to eps ||H|| only, which is coarse
for the small eigenvalues of a graded pencil, so each eigenvalue is
refined by a two-sided Rayleigh quotient on (K, M) itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.special import gamma as _gamma_fn
from scipy.special import jv, jvp, yv

from .model import SLOPE_WINDOW, CompletenessCertificate, Ray, RayVerdict

__all__ = [
    "IllConditionedMass",
    "TrustLimitExceeded",
    "RootFindingError",
    "SpectralResult",
    "RayVerdict",
    "CompletenessCertificate",
    "solve_pencil",
    "resolvent_norm",
    "ray_resolvent_norms",
    "ray_growth_verdict",
    "ray_minimal_growth_full",
    "completeness_residual",
    "oracle_eigenvalues",
    "dirichlet_mode_eigenvalues",
    "weyl_fit",
    "schatten_fit",
    "embedding_singular_values",
    "completeness_certificate",
]

MASS_CONDITION_LIMIT = 1e12
RETAIN_FRACTION = 0.8
# Aberth sweeps before the eigensolve gives up; a root stops once
# |g| <= _ABERTH_TOL * eps * (its rounding-error bound)
_ABERTH_SWEEPS = 200
_ABERTH_TOL = 4.0


class IllConditionedMass(RuntimeError):
    """Mass matrix condition number exceeds the solver gate."""


class TrustLimitExceeded(ValueError):
    """A probe radius lies beyond the discretization's trusted range."""


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
    The solve computed it for its own eigenpairs; every resolvent probe
    of the result reads it.  It holds O(n) numbers, and its arrays are
    read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    n_retained: int
    pencil: object
    rank_one_form: tuple
    mass_condition: float

    @property
    def retained_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.n_retained]

    @property
    def trust_limit(self) -> float:
        """Largest |lambda| at which resolvent probes are meaningful."""
        return 0.1 * float(np.max(np.abs(self.retained_eigenvalues)))


def _reduce(Kh: np.ndarray, Mh: np.ndarray):
    """Cholesky factor L of the Hermitian mass Mh = L L^H, and C = L^{-1} K L^{-H}.

    Kh is K^H.  Both are Fortran-ordered and overwritten: Mh by L, Kh
    by L^{-1} K^H.  C is Fortran-ordered, so LAPACK routines may
    overwrite a copy of it made with order="K" without another copy.
    """
    L = scipy.linalg.cholesky(Mh, lower=True, overwrite_a=True)
    KLh = scipy.linalg.solve_triangular(L, Kh, lower=True, overwrite_b=True)
    np.conjugate(KLh, out=KLh)  # now the transpose of K L^{-H}
    C = scipy.linalg.solve_triangular(L, KLh.T, lower=True, check_finite=False)
    return L, C


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
        return theta_min, theta_max
    b = mass.border[0]
    c = float(mass.corner[0].real)
    rhs = np.column_stack((b.real, b.imag))  # T is real, so b^H (T - sigma)^{-1} b is too
    off = mass.off if core > 1 else np.zeros(1)  # the ptsv wrapper wants one entry even then

    def cleared(sigma):
        """(h, h') at sigma outside [theta_min, theta_max], h = s |sigma - theta|; h is -+inf past theta."""
        below = sigma < theta_min
        # T - sigma below the block's spectrum, sigma - T above it: both positive definite
        diag, band = (mass.diag - sigma, off) if below else (sigma - mass.diag, -off)
        _, _, x, info = scipy.linalg.lapack.dptsv(diag, band, rhs)
        if info:
            return (-math.inf if below else math.inf), math.nan
        quad = float(np.sum(rhs * x))  # b^H (T - sigma)^{-1} b, up to sign
        s = c - sigma - (quad if below else -quad)
        slope = -1.0 - float(np.sum(x * x))
        if below:
            return s * (theta_min - sigma), slope * (theta_min - sigma) - s
        return s * (sigma - theta_max), slope * (sigma - theta_max) + s

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
    return lowest, highest


def _sign_change(f, lo: float, hi: float, x: float, fx: tuple) -> float:
    """Where f turns from positive to negative in [lo, hi], from x with fx = (f(x), f'(x)).

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
        value, slope = fx
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


def _aberth_roots(mu: np.ndarray, weights: np.ndarray, tau: float) -> np.ndarray:
    """All roots of g(lambda) = 1 + i tau sum_k weights_k / (mu_k - lambda).

    mu must be distinct, weights positive and tau nonzero; then g has
    one root per pole, the roots of p = g prod_k (mu_k - lambda).  They
    are refined together by the Aberth-Ehrlich iteration from
    mu_k + i tau weights_k, with Newton correction p/p' =
    1 / (g'/g - sum_k 1/(mu_k - lambda)).  A root stops when |g| is
    within _ABERTH_TOL eps of the rounding error of evaluating g there,
    1 + |tau| sum_k weights_k (|mu_k - lambda| + |mu_k| + |lambda|) / |mu_k - lambda|^2
    (the last terms are the rounding of mu_k - lambda, which dominates
    next to a pole), or when its step stops shrinking at a size below
    sqrt(eps) |lambda|, as it does in the rounding noise around a
    multiple root.  Each sweep holds two (roots left) x n temporaries.

    Raises
    ------
    RootFindingError
        If some root has not stopped after _ABERTH_SWEEPS sweeps.
    """
    eps = np.finfo(float).eps
    lam = mu + 1j * tau * weights
    scaled = weights * np.abs(mu)
    last = np.full(len(mu), np.inf)  # each root's previous step size
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
        total = D @ weights
        pole_sum = D.sum(axis=1)
        A = np.abs(D)
        bound = A @ weights
        A *= A
        bound += A @ scaled + np.abs(z) * (A @ weights)
        del A
        D *= D
        slope = D @ weights  # g' / (i tau)
        del D
        g = 1.0 + 1j * tau * total
        converged = np.abs(g) <= _ABERTH_TOL * eps * (1.0 + abs(tau) * bound)
        converged &= np.isfinite(bound)  # an overflow next to a pole is no convergence
        rows = np.arange(left.size)
        E = z[:, np.newaxis] - lam
        E[rows, left] = 1.0
        np.reciprocal(E, out=E)
        E[rows, left] = 0.0
        repulsion = E.sum(axis=1)  # sum over the other roots of 1 / (z_j - lambda_i)
        del E
        newton = g / (1j * tau * slope - g * pole_sum)
        step = newton / (1.0 - newton * repulsion)
        size = np.abs(step)
        stalled = (size >= last[left]) & (size <= math.sqrt(eps) * np.abs(z))
        moving = ~(converged | stalled)
        lam[left[moving]] -= step[moving]
        last[left] = size
        left = left[moving]
    return lam


def _rank_one_eigenpairs(mu: np.ndarray, w: np.ndarray, tau: float):
    """Eigenpairs of B = diag(mu) + i tau w w^H, sorted as solve_pencil sorts.

    mu is ascending.  Poles that drop out of the secular function are
    deflated.  Where tau = 0 or w_k = 0, or where both the root's
    distance |tau| |w_k|^2 from mu_k is within eps |mu_k| and
    |tau w_k| <= 8 eps max(|mu|, |tau|) (Dongarra & Sorensen, SIAM J.
    Sci. Stat. Comput. 1987), mu_k is an eigenvalue with eigenvector
    e_k: that moves the eigenvalue by at most one rounding and B by at
    most 2 |tau w_k|.  The other eigenvalues are the roots of the
    secular function, each with eigenvector w / (mu - lambda) and left
    eigenvector w / (mu - conj(lambda)).  Returns the eigenvalues, the
    eigenvectors (unit norm) and the left eigenvectors (unscaled) as
    columns.

    Raises
    ------
    RootFindingError
        If two poles that are not deflated are equal: the secular
        function then misses an eigenvalue at the pole.
    """
    n = len(mu)
    eps = np.finfo(float).eps
    weights = w.real**2 + w.imag**2
    coupling = abs(tau) * np.abs(w)
    negligible = coupling * np.abs(w) <= eps * np.abs(mu)
    negligible &= coupling <= 8.0 * eps * max(float(np.max(np.abs(mu))), abs(tau))
    poles = np.flatnonzero(~negligible)
    if np.any(np.diff(mu[poles]) == 0.0):
        raise RootFindingError("the rank-one form has two equal poles that both carry weight")
    lam = mu.astype(complex)
    lam[poles] = _aberth_roots(mu[poles], weights[poles], tau)
    order = np.lexsort((lam.imag, lam.real, np.abs(lam)))
    lam = lam[order]
    column = np.empty(n, dtype=int)
    column[order] = np.arange(n)  # the eigenpair that each pole or deflated mu_k became
    Z = mu[:, np.newaxis] - lam
    X = mu[:, np.newaxis] - lam.conj()
    with np.errstate(divide="ignore", invalid="ignore"):  # the deflated columns, replaced below
        np.divide(w[:, np.newaxis], Z, out=Z)
        np.divide(w[:, np.newaxis], X, out=X)
    deflated = np.flatnonzero(negligible)
    Z[:, column[deflated]] = 0.0
    Z[deflated, column[deflated]] = 1.0
    Z /= _column_norms(Z)
    X[:, column[deflated]] = Z[:, column[deflated]]  # B and B^H share these
    return lam, Z, X


def _column_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a complex X, with no temporary of X's size."""
    return np.sqrt(np.einsum("ij,ij->j", X.real, X.real) + np.einsum("ij,ij->j", X.imag, X.imag))


def solve_pencil(pencil) -> SpectralResult:
    """Generalized eigensolve of K v = lambda M v for an arrow-tridiagonal pencil.

    The gate reads cond(M) off the mass's parts (`_mass_extremes`).
    The Hermitian positive definite mass is then factored as
    M = L L^H, and C = L^{-1} K L^{-H} is brought to its rank-one form:
    one Hermitian eigensolve H = Q diag(mu) Q^H of its Hermitian part,
    w = Q^H e_n and tau = Im C[n-1, n-1].  The eigenvalues are the
    roots of the secular function of (mu, |w|^2, tau), and the
    eigenvectors are v = L^{-H} Q (w / (mu - lambda)), one matrix
    product for all of them, normalized to unit M-norm; the left
    eigenvectors, another product, give each eigenvalue a two-sided
    Rayleigh quotient on (K, M), whose products with the eigenvectors
    are formed from the parts.  The backward error on (K, M) is about
    cond(M) times machine epsilon; `residuals` records it for every
    pair.  Eigenpairs are sorted by ascending |lambda| (ties by real
    then imaginary part); the trailing 20% is flagged as untrusted.

    Raises
    ------
    IllConditionedMass
        If cond(M) > 1e12 or M is not positive definite.
    RootFindingError
        If the secular iteration does not converge.
    """
    stiffness, mass = pencil.stiffness, pencil.mass
    low, high = _mass_extremes(mass)
    cond = high / low
    if cond > MASS_CONDITION_LIMIT:
        raise IllConditionedMass(f"mass matrix condition number {cond:.3e} exceeds 1e12")

    Mh = mass.dense(order="F")  # the Cholesky factors it in place
    Kh = stiffness.dense()
    np.conjugate(Kh, out=Kh)
    L, C = _reduce(Kh.T, Mh)  # Kh.T = K^H, Fortran-ordered
    del Kh
    tau = float(C[-1, -1].imag)
    H = np.conjugate(C.T, order="F")  # Fortran-ordered: eigh overwrites it, no copy
    H += C
    H *= 0.5  # the Hermitian part of C, with a real corner
    del C
    mu, Q = scipy.linalg.eigh(H, overwrite_a=True, check_finite=False)
    del H
    w = Q[-1].conj()
    # L^{-H} Q in Q's memory, so that L (factored in Mh's memory) goes before the roots
    LhQ = scipy.linalg.solve_triangular(L, Q, lower=True, trans="C", overwrite_b=True, check_finite=False)
    del Mh, L, Q
    lam, Z, X = _rank_one_eigenpairs(mu, w, tau)
    vec = LhQ @ Z
    del Z
    left = LhQ @ X  # the left eigenvectors of (K, M)
    del LhQ, X
    stiff_vec = stiffness.dot(vec)
    mass_vec = mass.dot(vec)
    # The eigensolve of H leaves an error of about eps ||H|| in small
    # eigenvalues of a graded pencil.  One two-sided Rayleigh quotient
    # on (K, M) itself removes it to second order (Ostrowski); it is
    # kept where it lowers the pair's residual, which a defective pair,
    # with its left and right eigenvectors nearly M-orthogonal, does not.
    np.conjugate(left, out=left)
    refined = np.einsum("ij,ij->j", left, stiff_vec) / np.einsum("ij,ij->j", left, mass_vec)
    del left

    def defects(values):
        defect = mass_vec * values
        np.subtract(stiff_vec, defect, out=defect)
        return _column_norms(defect)

    plain = defects(lam)
    better = defects(refined)
    del stiff_vec, mass_vec
    keep = better < plain
    lam = np.where(keep, refined, lam)
    residuals = np.where(keep, better, plain) / _column_norms(vec)
    order = np.lexsort((lam.imag, lam.real, np.abs(lam)))
    if np.any(order != np.arange(len(lam))):  # the refinement swapped a near tie
        lam, vec, residuals = lam[order], vec[:, order], residuals[order]
    weights = w.real**2 + w.imag**2
    mu.flags.writeable = weights.flags.writeable = False  # shared by every probe
    n = len(lam)
    n_retained = max(1, math.floor(RETAIN_FRACTION * n))
    return SpectralResult(
        eigenvalues=lam,
        eigenvectors=vec,
        residuals=residuals,
        n_retained=n_retained,
        pencil=pencil,
        rank_one_form=(mu, weights, tau),
        mass_condition=cond,
    )


def _singular_values_below(d, moduli2, weights, tau: float, s: float) -> int:
    """Number of singular values below s > 0 of B = diag(d) + i tau w w^H.

    moduli2 holds |d_k|^2 and weights |w_k|^2.  The count follows from
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
    det = tau * tau * (total * (moment - float(weights.sum())) - abs(complex(alpha @ shifted)) ** 2)
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
    so its extreme singular values are found by bisection on an O(n)
    count, each inside the bracket that Weyl's inequality gives for a
    rank-one update of norm |tau| ||w||^2.  Returns +inf when lambda is
    (numerically) an eigenvalue: sigma_min < 1e-13 sigma_max.
    """
    mu, weights, tau = result.rank_one_form
    d = mu - complex(lam)
    moduli2 = d.real**2 + d.imag**2
    spread = abs(tau) * float(weights.sum())

    def below(s):
        return _singular_values_below(d, moduli2, weights, tau, s)

    top = math.sqrt(moduli2.max())
    s_max = _bisect(max(top - spread, 0.0), top + spread, lambda s: below(s) == len(d))
    floor = 1e-13 * s_max
    if s_max == 0.0 or below(floor) >= 1:
        return math.inf
    bottom = math.sqrt(moduli2.min())
    s_min = _bisect(max(bottom - spread, floor), bottom + spread, lambda s: below(s) >= 1)
    return 1.0 / s_min


def ray_resolvent_norms(ray: Ray, radii: Sequence[float], result: SpectralResult) -> list:
    """Resolvent norms at r e^{i theta} for the probe radii r of ray_minimal_growth_full."""
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ValueError("need at least 3 probe radii for a slope fit")
    if any(r <= 0.0 for r in radii) or any(
        r1 <= r0 for r0, r1 in zip(radii, radii[1:])
    ):
        raise ValueError("probe radii must be positive and strictly increasing")
    trust = result.trust_limit
    if radii[-1] > trust * (1.0 + 1e-12):
        raise TrustLimitExceeded(
            f"max probe radius {radii[-1]:.6g} exceeds trust limit {trust:.6g}"
        )
    theta = ray.angle_theta
    return [resolvent_norm(result, r * cmath.exp(1j * theta)) for r in radii]


def ray_growth_verdict(ray: Ray, radii: Sequence[float], norms: Sequence[float]) -> RayVerdict:
    """The verdict of ray_minimal_growth_full from norms already probed along the ray."""
    radii = [float(r) for r in radii]
    witness = {"radii": radii, "norms": [float(v) for v in norms]}
    if not all(math.isfinite(v) for v in norms):
        hit = radii[next(i for i, v in enumerate(norms) if not math.isfinite(v))]
        note = f"resolvent does not exist at |lambda| = {hit:.6g} on the ray"
        return RayVerdict(ray, "Fails", sup_bound=math.inf, witness=witness, note=note)
    sup_bound = float(max(r * v for r, v in zip(radii, norms)))
    slope = float(np.polyfit(np.log(radii), np.log(norms), 1)[0])
    if SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        return RayVerdict(ray, "Minimal", sup_bound=sup_bound, slope=slope)
    note = "resolvent growth along the ray is not O(1/|lambda|)"
    return RayVerdict(ray, "Fails", sup_bound, slope, witness=witness, note=note)


def ray_minimal_growth_full(ray: Ray, radii: Sequence[float], result: SpectralResult) -> RayVerdict:
    """Probe the resolvent along a ray and fit its decay rate.

    The ray is Minimal when the log-log slope of the resolvent norm
    against |lambda| sits in [-1.15, -0.85] and |lambda| * norm stays
    bounded over the probes.  Probe radii must stay at or below the
    trust limit 0.1 * max retained |eigenvalue| of `result`.
    """
    return ray_growth_verdict(ray, radii, ray_resolvent_norms(ray, radii, result))


def _cluster_defective(result: SpectralResult, count: int):
    """Replace numerically defective eigenvector clusters by invariant subspaces.

    Eigenvalues closer than 1e-6 (relative) whose eigenvectors are
    parallel within 1e-3 rad span too little; the cluster's columns are
    swapped for an orthonormal basis of the corresponding deflating
    subspace of (K, M), which carries the generalized eigenvectors.
    """
    lam = result.eigenvalues[:count]
    V = result.eigenvectors[:, :count].copy()
    used = np.zeros(count, dtype=bool)
    for i in range(count):
        if used[i]:
            continue
        members = [i]
        for j in range(i + 1, count):
            if used[j]:
                continue
            scale = max(1.0, abs(lam[i]), abs(lam[j]))
            if abs(lam[i] - lam[j]) > 1e-6 * scale:
                continue
            vi = V[:, i] / np.linalg.norm(V[:, i])
            vj = V[:, j] / np.linalg.norm(V[:, j])
            if abs(np.vdot(vi, vj)) > math.cos(1e-3):
                members.append(j)
        if len(members) < 2:
            continue
        used[members] = True
        center = lam[members[0]]
        tol = 1e-5 * max(1.0, abs(center))

        def select(alpha, beta, _c=center, _t=tol):
            return np.abs(alpha - _c * beta) <= _t * np.abs(beta)

        _, _, alpha, beta, _, Z = scipy.linalg.ordqz(
            result.pencil.K, result.pencil.M, sort=select, output="complex"
        )
        picked = int(np.sum(select(alpha, beta)))
        width = min(len(members), picked)
        if width >= 1:
            basis = np.linalg.qr(Z[:, :width])[0]
            for col, member in zip(range(width), members):
                V[:, member] = basis[:, col]
    return V


def completeness_residual(result: SpectralResult, f, N_list):
    """M-orthogonal projection defects of f onto nested eigenvector spans.

    For each N in N_list, f (unit norm in the pencil's mass M) is
    projected onto the span of the first N retained eigenvectors; the
    returned (N, residual) pairs are nonincreasing in N by construction
    of the nested spans.
    """
    mass = result.pencil.mass
    f = np.asarray(f, dtype=complex).reshape(-1)
    N_list = [int(N) for N in N_list]
    if not N_list:
        raise ValueError("N_list must be nonempty")
    if any(N < 1 for N in N_list):
        raise ValueError("projection counts must be positive")
    max_n = max(N_list)
    if max_n > result.n_retained:
        raise ValueError(
            f"N = {max_n} exceeds the retained eigenpair count {result.n_retained}"
        )
    fnorm = math.sqrt(abs(np.vdot(f, mass.dot(f))))
    if abs(fnorm - 1.0) > 1e-6:
        raise ValueError("test vector must have unit M-norm")

    V = _cluster_defective(result, max_n)
    targets = sorted(set(N_list))
    out = {}
    basis = []
    Mq = []
    r = f.copy()
    ti = 0
    for idx in range(max_n):
        v = V[:, idx].copy()
        # two-pass M-Gram-Schmidt against the accumulated basis
        for _ in range(2):
            for q, mq in zip(basis, Mq):
                v -= q * np.vdot(mq, v)
        vnorm = math.sqrt(abs(np.vdot(v, mass.dot(v))))
        if vnorm > 1e-8:
            q = v / vnorm
            mq = mass.dot(q)
            basis.append(q)
            Mq.append(mq)
            r = r - q * np.vdot(mq, r)
        while ti < len(targets) and targets[ti] == idx + 1:
            out[targets[ti]] = math.sqrt(abs(np.vdot(r, mass.dot(r))))
            ti += 1
    return [(N, out[N]) for N in N_list]


# ---------------------------------------------------------------------------
# Bessel secular-equation oracle for the radial model problem.
#
# A solution behaving like a x^nu + b x^{-nu} at the tip (a + b log x
# for nu = 0) and vanishing at x = R exists exactly at the roots of an
# entire secular function F(lambda); fixing the constants by matching
# small-x series gives, with w = sqrt(lambda) (principal branch):
#   nu > 0:  F = a Gamma(1+nu) (w/2)^{-nu} J_nu(wR)
#              + b Gamma(1-nu) (w/2)^{+nu} J_{-nu}(wR)
#   nu = 0:  F = (a + b log R) J_0(wR) + b W(wR),
#            W(z) = (pi/2) Y_0(z) - (log(z/2) + gamma_E) J_0(z)
# Both are entire in lambda; for small |wR| the power series is used to
# dodge the removable sqrt/log branch points.
#
# The roots are read off circles |lambda| = rho (Delves & Lyness, Math.
# Comp. 1967): the winding of F counts the roots inside, one FFT of log F
# gives their power sums, and Newton polishes the roots of the polynomial
# those sums define.  A disk is the region that sorting by |lambda| asks
# for, so no root off the real axis is missed.  Power sums about 0 lose
# small roots once a disk holds more than about fifteen, so sqrt(rho),
# which grows by pi/R per root of the Dirichlet problem, starts at
# (min(how_many, 8) + 1) pi/R and steps out by 8 pi/R while the count is
# short; each step solves only for the roots outside the previous circle.
# A rejected circle (one hugging a root, or too many new roots to
# resolve) is pulled halfway back towards the previous one.
# ---------------------------------------------------------------------------

_CONTOUR_SAMPLES = 1024
_CONTOUR_SAMPLE_CAP = 1 << 16
_RADIUS_ATTEMPTS = 100
_POWER_SUM_TOL = 1e-3
_ROOTS_PER_STEP = 8


def _secular_series(nu: float, a: complex, b: complex, R: float, lam: np.ndarray):
    u = lam * (R * R) / 4.0
    if nu == 0.0:
        s_j = np.ones_like(u)
        s_w = np.zeros_like(u)
        term = np.ones_like(u)
        harmonic = 0.0
        for k in range(1, 80):
            term = term * (-u) / (k * k)
            harmonic += 1.0 / k
            s_j = s_j + term
            s_w = s_w - harmonic * term
        return (a + b * math.log(R)) * s_j + b * s_w
    s_p = np.ones_like(u)
    s_m = np.ones_like(u)
    t_p = np.ones_like(u)
    t_m = np.ones_like(u)
    for k in range(1, 80):
        t_p = t_p * (-u) / (k * (k + nu))
        t_m = t_m * (-u) / (k * (k - nu))
        s_p = s_p + t_p
        s_m = s_m + t_m
    return a * R**nu * s_p + b * R ** (-nu) * s_m


def _secular_closed(nu: float, a: complex, b: complex, R: float, lam: np.ndarray):
    w = np.sqrt(lam.astype(complex))
    z = w * R
    if nu == 0.0:
        wz = 0.5 * math.pi * yv(0, z) - (np.log(z / 2.0) + np.euler_gamma) * jv(0, z)
        return (a + b * math.log(R)) * jv(0, z) + b * wz
    half_w = np.log(w / 2.0)
    return a * _gamma_fn(1.0 + nu) * np.exp(-nu * half_w) * jv(nu, z) + b * _gamma_fn(
        1.0 - nu
    ) * np.exp(nu * half_w) * jv(-nu, z)


def _secular_values(nu: float, a: complex, b: complex, R: float, lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    out = np.empty_like(lam)
    small = np.abs(lam) * R * R <= 144.0
    if np.any(small):
        out[small] = _secular_series(nu, a, b, R, lam[small])
    if np.any(~small):
        out[~small] = _secular_closed(nu, a, b, R, lam[~small])
    return out


def _wrap_angle(d: np.ndarray) -> np.ndarray:
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _newton_polish(F, z0: complex, step_scale: float) -> Optional[complex]:
    z = complex(z0)
    for _ in range(80):
        h = 1e-6 * max(1.0, abs(z))
        f0, fp1, fm1 = F(np.array([z, z + h, z - h]))
        dfdz = (fp1 - fm1) / (2.0 * h)
        if dfdz == 0.0:
            return None
        dz = f0 / dfdz
        z = z - dz
        if abs(z - z0) > 50.0 * step_scale:
            return None
        if abs(dz) <= 1e-13 * max(1.0, abs(z)):
            return z
    return None


def _disk_roots(F, rho: float, known: list) -> Optional[list]:
    """Every root of F in |lambda| < rho given the known ones, or None to reject the circle.

    The phase of F is sampled on |lambda| = rho, doubling the samples
    until no wrapped step exceeds pi/4.  Its winding is the root count N;
    with g = log F - i N theta periodic, the Fourier coefficients of g
    give the power sums S_p of lambda/rho over the roots.  Less the
    known roots' share, Newton's identities turn them into a monic
    polynomial whose roots are polished on F.  The polished roots must
    lie inside the circle and, with the known ones, reproduce S_1..S_N;
    otherwise two estimates polished onto one root and a root is missing.
    """
    m = _CONTOUR_SAMPLES
    while True:
        theta = 2.0 * math.pi * np.arange(m) / m
        vals = F(rho * np.exp(1j * theta))
        if not np.all(np.isfinite(vals) & (vals != 0.0)):
            return None
        steps = _wrap_angle(np.diff(np.angle(vals), append=np.angle(vals[0])))
        if np.max(np.abs(steps)) <= 0.25 * math.pi:
            break
        if m >= _CONTOUR_SAMPLE_CAP:
            return None
        m *= 2
    count = round(float(np.sum(steps)) / (2.0 * math.pi))
    if count <= len(known):
        return list(known) if count == len(known) else None
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
    roots = list(known)
    for z in np.roots(poly):
        root = _newton_polish(F, rho * z, rho / 50.0)
        if root is None or abs(root) >= rho:
            return None
        roots.append(root)
    if np.max(np.abs(sums - power_sums(roots))) > _POWER_SUM_TOL:
        return None
    return roots


def oracle_eigenvalues(
    nu: float, a: complex, b: complex, R: float, how_many: int
) -> np.ndarray:
    """Roots of the radial secular equation, sorted by |lambda|.

    Independent of any discretization: the spectrum of the mode
    operator with tip coefficients (a, b) and Dirichlet condition at R
    is read off the entire secular function on disks |lambda| < rho.
    The argument principle counts the roots inside, contour power sums
    locate them, and Newton polishing on the secular function refines
    them.  rho grows until the disk holds at least how_many roots, so
    the returned roots are the how_many smallest in modulus wherever
    they lie in the plane.  Multiple roots are repeated per
    multiplicity.

    Raises
    ------
    RootFindingError
        When the fixed number of circles runs out before one holds
        how_many polished roots that reproduce its count and power sums.
    """
    if not (0.0 <= nu < 1.0):
        raise ValueError("secular oracle covers nu in [0, 1)")
    a = complex(a)
    b = complex(b)
    if a == 0 and b == 0:
        raise ValueError("(a, b) must be nonzero")
    if not (R > 0.0 and math.isfinite(R)):
        raise ValueError("R must be positive")
    if how_many < 1:
        raise ValueError("how_many must be positive")

    def F(lam):
        return _secular_values(nu, a, b, R, lam)

    step = _ROOTS_PER_STEP * math.pi / R
    known: list = []
    inner = 0.0  # sqrt of the radius whose roots are known
    outer = (min(how_many, _ROOTS_PER_STEP) + 1.0) * math.pi / R
    for _ in range(_RADIUS_ATTEMPTS):
        roots = _disk_roots(F, outer * outer, known)
        if roots is None:
            outer = 0.5 * (inner + outer)  # hugs a root, or too many new ones
        elif len(roots) < how_many:
            known, inner, outer = roots, outer, outer + step
        else:
            roots.sort(key=lambda z: (abs(z), z.real, z.imag))
            return np.array(roots[:how_many], dtype=complex)
    raise RootFindingError(
        f"{_RADIUS_ATTEMPTS} circles gave no {how_many} roots "
        "that reproduce the contour count and power sums"
    )


def dirichlet_mode_eigenvalues(nu: float, R: float, how_many: int) -> np.ndarray:
    """Eigenvalues (j_{nu,k}/R)^2 of one mode's Dirichlet problem, any nu >= 0.

    Classical Bessel-zero computation (dense scan plus Newton), used
    both as the (a,b)=(1,0) cross-check of the secular oracle and for
    multi-mode eigenvalue counting where nu >= 1 modes carry no
    enrichment.
    """
    if nu < 0.0:
        raise ValueError("nu must be nonnegative")
    if how_many < 1:
        raise ValueError("how_many must be positive")
    # k-th zero sits near (k + nu/2 - 1/4) pi, first zero near nu + 1.86 nu^{1/3}
    upper = 0.5 * nu * math.pi + 1.9 * nu ** (1.0 / 3.0) + (how_many + 2) * math.pi + 4.0
    grid = np.linspace(max(1e-6, 0.5 * nu), upper, max(200, int(upper / 0.05)))
    vals = jv(nu, grid)
    sign_change = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    zeros = 0.5 * (grid[sign_change] + grid[sign_change + 1])
    for _ in range(60):
        f = jv(nu, zeros)
        fp = jvp(nu, zeros)
        step = f / fp
        zeros = zeros - step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, upper):
            break
    zeros = np.unique(np.round(zeros / 1e-12) * 1e-12)
    zeros = zeros[zeros > max(1e-9, nu * 1.0000001 - 1e-9)]
    if len(zeros) < how_many:
        raise RootFindingError(
            f"Bessel zero scan found {len(zeros)} of {how_many} requested zeros"
        )
    return (zeros[:how_many] / R) ** 2


def weyl_fit(eigenvalues) -> float:
    """Growth exponent: slope of log lambda_j vs log j over the middle third."""
    lam = np.asarray(eigenvalues)
    if np.iscomplexobj(lam):
        if np.max(np.abs(lam.imag)) > 1e-9 * max(1.0, np.max(np.abs(lam))):
            raise ValueError("growth fit needs a real eigenvalue list")
        lam = lam.real
    lam = np.sort(lam.astype(float))
    if len(lam) < 30:
        raise ValueError("growth fit needs at least 30 eigenvalues")
    if lam[0] <= 0.0:
        raise ValueError("growth fit needs positive eigenvalues")
    j = np.arange(1, len(lam) + 1, dtype=float)
    third = len(lam) // 3
    sel = slice(third, 2 * third)
    slope = np.polyfit(np.log(j[sel]), np.log(lam[sel]), 1)[0]
    return float(slope)


def schatten_fit(singular_values, j_range) -> tuple:
    """Decay exponent q of s_j ~ j^{-q} over j_range, and implied p = 1/q.

    j_range is a 1-based inclusive (lo, hi) window.  A nonpositive
    fitted q (no decay) gives implied_p = inf.
    """
    s = np.asarray(singular_values, dtype=float)
    lo, hi = (int(j_range[0]), int(j_range[1]))
    if s.ndim != 1 or np.any(s <= 0.0):
        raise ValueError("singular values must be a positive 1-D list")
    if np.any(s[1:] > s[:-1] * (1.0 + 1e-12)):
        raise ValueError("singular values must be sorted descending")
    if not (1 <= lo < hi <= len(s)):
        raise ValueError(f"degenerate fit range ({lo}, {hi}) for {len(s)} values")
    j = np.arange(lo, hi + 1, dtype=float)
    window = s[lo - 1 : hi]
    slope = np.polyfit(np.log(j), np.log(window), 1)[0]
    q = float(-slope)
    implied_p = 1.0 / q if q > 1e-12 else math.inf
    return q, implied_p


def embedding_singular_values(G_high, G_low) -> np.ndarray:
    """Singular values of the identity from the G_high norm to the G_low norm.

    These are the square roots of the generalized eigenvalues
    G_low v = sigma^2 G_high v, returned descending.
    """
    G_high = np.asarray(G_high)
    G_low = np.asarray(G_low)
    if G_high.shape != G_low.shape:
        raise ValueError("Gram matrices must have equal shape")
    w = scipy.linalg.eigh(G_low, G_high, eigvals_only=True)
    w = np.clip(w, 0.0, None)
    return np.sqrt(w)[::-1]


def completeness_certificate(n: int, m: int, verdicts) -> CompletenessCertificate:
    """Combine ray verdicts into a completeness certificate.

    complete = all rays Minimal and every adjacent angular gap
    (wrapping around the circle) at most pi*m/n.  A single ray has gap
    2*pi.  schatten_p = n/m is the certified summability exponent.
    """
    verdicts = tuple(verdicts)
    if not verdicts:
        raise ValueError("need at least one ray verdict")
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    angles = np.sort(np.array([v.ray.angle_theta for v in verdicts], dtype=float))
    if len(angles) == 1:
        max_gap = 2.0 * math.pi
    else:
        gaps = np.diff(angles)
        wrap = angles[0] + 2.0 * math.pi - angles[-1]
        max_gap = float(max(np.max(gaps), wrap))
    complete = all(v.verdict == "Minimal" for v in verdicts) and (
        max_gap <= math.pi * m / n + 1e-12
    )
    return CompletenessCertificate(
        n=int(n),
        m=int(m),
        schatten_p=n / m,
        rays=verdicts,
        max_gap=max_gap,
        complete=complete,
    )
