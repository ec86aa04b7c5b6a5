"""Dense pencil spectra, resolvent certificates, fits, and the secular oracle.

Oracle discipline: every derived number is pinned against a route that
does not share code with the implementation under test.

  * secular roots for (1,0)/(0,1) against classical Bessel-zero lists;
  * secular roots for real (a,b) against a brentq sign-change scan of
    the real secular function built directly from scipy's j/y/i/k
    Bessel families;
  * complex-extension roots against values frozen from the validated
    build, plus a residual check in the analytic secular function and a
    30-digit mpmath root refinement;
  * rescaling R against the exact homogeneity law of the problem.
"""

import cmath
import dataclasses
import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.cython_lapack
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky, eigh
from scipy.optimize import brentq, nnls
from scipy.special import gamma as sp_gamma
from scipy.special import i0, iv, j0, jn_zeros, jv, k0, y0, yv

import conespectra._lapack
import conespectra.spectral as spectral
from conespectra._lapack import tridiagonal_eigh
from conespectra.discretize import (
    ArrowTridiagonal,
    DiscreteOperatorPencil,
    RadialGrid,
    assemble_mode_pencil,
)
from conespectra.grassmann import kappa_matrix
from conespectra.indicial import singular_basis
from conespectra.model import (
    ClosedLink,
    CompletenessCertificate,
    ConeModelOperator,
    ExtensionDomain,
    Ray,
    RayVerdict,
    SectorLink,
)
from conespectra.spectral import (
    IllConditionedMass,
    RootFindingError,
    completeness_certificate,
    completeness_residual,
    dirichlet_mode_eigenvalues,
    oracle_eigenvalues,
    ray_minimal_growth_full,
    resolvent_norm,
    schatten_fit,
    solve_pencil,
)

from _reference import (
    arrow_from_dense,
    arrowhead_left_vectors,
    corner_schur_complement,
    dense,
    hat_pencil_eigh,
    weyl_fit,
)

CLOSED = ConeModelOperator(
    order_m=2, dim_n=2, weight_gamma=-1.0, geometry=ClosedLink(), outer_radius_R=1.0
)
SECTOR = ConeModelOperator(
    order_m=2,
    dim_n=2,
    weight_gamma=-1.0,
    geometry=SectorLink(alpha=1.5 * math.pi),
    outer_radius_R=1.0,
)


def make_pencil(K, M) -> DiscreteOperatorPencil:
    """The pencil of dense K and M with one border row."""
    n = K.shape[0]
    return DiscreteOperatorPencil(
        K=arrow_from_dense(K, 1),
        M=arrow_from_dense(M, 1),
        basis_labels=tuple(f"e_{i}" for i in range(n)),
        nu=0.0,
        outer_radius_R=1.0,
        enrichment_coeffs=None,
    )


def random_arrow(rng, n, corner):
    """A real symmetric tridiagonal block with a complex border, its conjugate, and the given corner."""
    A = np.diag(rng.normal(size=n)).astype(complex)
    off = rng.normal(size=n - 2)
    A[np.arange(n - 2), np.arange(1, n - 1)] = off
    A[np.arange(1, n - 1), np.arange(n - 2)] = off
    border = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    A[-1, :-1] = border
    A[:-1, -1] = border.conj()
    A[-1, -1] = corner
    return A


def random_structured_stiffness(rng, n):
    """A random arrow-tridiagonal stiffness with a complex corner."""
    return random_arrow(rng, n, rng.normal() + 1j * rng.normal())


def random_structured_mass(rng, n):
    """A random arrow-tridiagonal mass, positive definite by Gershgorin's theorem."""
    A = random_arrow(rng, n, rng.normal())
    return A + (np.abs(A).sum(axis=1).max() + 1.0) * np.eye(n)


def dense_resolvent_norm(K, M, lam):
    """1 / sigma_min of L^{-1}(K - lambda M)L^{-H}, M = L L^H, by a dense SVD."""
    L = cholesky(M, lower=True)
    shifted = scipy.linalg.solve_triangular(L, K - lam * M, lower=True)
    reduced = scipy.linalg.solve_triangular(L, shifted.conj().T, lower=True).conj().T
    return 1.0 / np.linalg.svd(reduced, compute_uv=False)[-1]


def double_root_pencil():
    """diag(5, 50) with [[1, 1], [1, 1 + 2i]] beside it, M = I: a Jordan block at 1 + i, spanning e_3 and e_4."""
    K = np.zeros((4, 4), dtype=complex)
    K[0, 0], K[1, 1] = 5.0, 50.0
    K[2:, 2:] = [[1.0, 1.0], [1.0, 1.0 + 2.0j]]
    return make_pencil(K, np.eye(4))


def defective_arrow_pencil(rng, n):
    """An arrow pencil (D K D, D^2) with an exactly double, defective eigenvalue lambda_0, and lambda_0.

    K = [[T, Q z], [(Q z)^H, corner]] for a random real symmetric
    tridiagonal T = Q diag(theta) Q^T.  With |z_j|^2 = beta_j >= 0 and
    sum_j beta_j / (theta_j - lambda_0)^2 = -1, and the corner
    lambda_0 + sum_j beta_j / (theta_j - lambda_0), the arrowhead's secular
    function has a double root at lambda_0; the positive diagonal D keeps
    that.  Returns None where no such beta exists.
    """
    core = n - 1
    diag, off = rng.normal(size=core), rng.normal(size=core - 1)
    theta, Q = scipy.linalg.eigh_tridiagonal(diag, off)
    lam0 = complex(rng.uniform(theta[0], theta[-1]), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0))
    poles = 1.0 / (theta - lam0) ** 2
    beta, misfit = nnls(np.vstack((poles.real, poles.imag)), np.array([-1.0, 0.0]))
    if misfit > 1e-12:
        return None
    z = Q @ (np.sqrt(beta) * np.exp(2j * math.pi * rng.uniform(size=core)))
    corner = lam0 + np.sum(beta / (theta - lam0))
    d = np.exp(rng.uniform(-2.0, 2.0, size=n))
    K = ArrowTridiagonal(diag * d[:-1] ** 2, off * d[:-2] * d[1:-1], [z * d[:-1] * d[-1]], [corner * d[-1] ** 2])
    M = ArrowTridiagonal(d[:-1] ** 2, np.zeros(core - 1), np.zeros((1, core)), [d[-1] ** 2])
    labels = tuple(f"e_{i}" for i in range(n))
    return DiscreteOperatorPencil(K, M, labels, nu=0.0, outer_radius_R=1.0, enrichment_coeffs=None), lam0


@pytest.fixture(scope="module")
def friedrichs_pencil():
    grid = RadialGrid.geometric(1.0, 120, 0.9)
    return assemble_mode_pencil(SECTOR, 1, grid, None)


@pytest.fixture(scope="module")
def friedrichs_result(friedrichs_pencil):
    return solve_pencil(friedrichs_pencil)


class TestSolvePencil:
    def test_trivial_diagonal_pencil(self):
        res = solve_pencil(make_pencil(np.diag([1.0, 4.0]), np.eye(2)))
        assert np.allclose(res.eigenvalues, [1.0, 4.0], atol=1e-13)
        assert res.n_retained == 1
        assert np.all(res.residuals < 1e-8 * 4.0)

    def test_sorted_by_modulus(self):
        K = np.diag([9.0, 1.0, 25.0, 4.0])
        res = solve_pencil(make_pencil(K, np.eye(4)))
        assert np.allclose(res.eigenvalues, [1.0, 4.0, 9.0, 25.0], atol=1e-12)

    def test_retained_excludes_top_fifth(self):
        n = 10
        res = solve_pencil(make_pencil(np.diag(np.arange(1.0, n + 1.0)), np.eye(n)))
        assert res.n_retained == 8
        assert np.allclose(res.retained_eigenvalues, np.arange(1.0, 9.0), atol=1e-12)
        assert res.trust_limit == pytest.approx(0.8, rel=1e-12)

    def test_probe_radii_step_by_decades_to_the_trust_limit(self, friedrichs_result):
        radii = friedrichs_result.probe_radii
        assert len(radii) == 4
        assert radii[-1] == pytest.approx(friedrichs_result.trust_limit, rel=1e-15)
        for r0, r1 in zip(radii, radii[1:]):
            assert r1 / r0 == pytest.approx(10.0, rel=1e-14)

    def test_residual_invariant_on_assembled_pencil(self, friedrichs_pencil, friedrichs_result):
        scale = np.max(np.abs(dense(friedrichs_pencil.K)))
        retained = friedrichs_result.residuals[: friedrichs_result.n_retained]
        assert np.all(retained < 1e-8 * scale)

    def test_ill_conditioned_mass_raises(self):
        M = np.diag([1.0, 1e-13])
        with pytest.raises(IllConditionedMass):
            solve_pencil(make_pencil(np.eye(2), M))

    def test_real_extension_spectrum_is_real(self):
        grid = RadialGrid.geometric(1.0, 80, 0.9)
        pen = assemble_mode_pencil(CLOSED, 0, grid, ExtensionDomain.line([1.0, 1.0]))
        res = solve_pencil(pen)
        lam = res.retained_eigenvalues
        assert np.max(np.abs(lam.imag)) < 1e-8 * np.max(np.abs(lam))

    def test_complex_extension_spectrum_is_not_real(self):
        grid = RadialGrid.geometric(1.0, 80, 0.9)
        pen = assemble_mode_pencil(SECTOR, 1, grid, ExtensionDomain.line([1.0, 1.0j]))
        res = solve_pencil(pen)
        lam = res.retained_eigenvalues[:5]
        assert np.all(np.abs(lam.imag) > 1e-6 * np.abs(lam))


class TestResolventNorm:
    def test_hermitian_norm_is_inverse_distance(self, friedrichs_pencil, friedrichs_result):
        lam_all = eigh(dense(friedrichs_pencil.K), dense(friedrichs_pencil.M), eigvals_only=True)
        for z in (3.0 + 4.0j, -7.0, 100.0j, 55.5):
            dist = np.min(np.abs(lam_all - z))
            norm = resolvent_norm(friedrichs_result, z)
            assert norm == pytest.approx(1.0 / dist, rel=1e-8)

    def test_sentinel_at_eigenvalue(self):
        pen = make_pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        assert resolvent_norm(solve_pencil(pen), 2.0) == math.inf

    def test_one_bisection_per_finite_probe(self, monkeypatch, friedrichs_result):
        # sigma_min is the only bisection; a probe on an eigenvalue is
        # caught by the floor under Weyl's bound on sigma_max and makes none
        calls = []
        bisect = spectral._bisect
        monkeypatch.setattr(spectral, "_bisect", lambda *a: calls.append(1) or bisect(*a))
        assert math.isfinite(resolvent_norm(friedrichs_result, 3.0 + 4.0j))
        assert len(calls) == 1
        calls.clear()
        assert resolvent_norm(solve_pencil(make_pencil(np.diag([1.0, 2.0, 3.0]), np.eye(3))), 2.0) == math.inf
        assert calls == []

    @pytest.mark.parametrize("lam", [math.nan, complex(1.0, math.nan), math.inf, complex(0.0, -math.inf)])
    def test_non_finite_lambda_rejected(self, friedrichs_result, lam):
        # a NaN midpoint would keep the bisection from ever closing its bracket
        with pytest.raises(ValueError, match="finite"):
            resolvent_norm(friedrichs_result, lam)

    def test_negative_ray_bound_on_friedrichs_sector(self, friedrichs_result):
        # positive operator: r * ||R(-r)|| <= r / (r + lambda_1) < 1
        for r in (1.0, 10.0, 100.0, 1000.0):
            assert r * resolvent_norm(friedrichs_result, -r) < 1.0

    def test_first_resolvent_equation_on_random_pencils(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            n = 6
            K = random_structured_stiffness(rng, n)
            M = random_structured_mass(rng, n)
            pen = make_pencil(K, M)
            z1, z2 = 1.5 + 2.0j, -3.0 + 0.5j
            R1 = np.linalg.solve(K - z1 * M, M)
            R2 = np.linalg.solve(K - z2 * M, M)
            gap = np.linalg.norm(R1 - R2 - (z1 - z2) * R1 @ R2, 2)
            assert gap < 1e-8
            # and the reported norm agrees with the dense M-norm computation
            L = cholesky(M, lower=True)
            reference = 1.0 / np.linalg.svd(
                np.linalg.solve(L, (K - z1 * M)) @ np.linalg.inv(L.conj().T),
                compute_uv=False,
            )[-1]
            assert resolvent_norm(solve_pencil(pen), z1) == pytest.approx(reference, rel=1e-10)

    def test_singular_value_count_at_and_between_poles(self):
        # the bisection's first midpoints land on the poles |d_k| = s, so
        # the count must be right there too, and raise no float warning
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            d = rng.normal(size=n) + 1j * rng.normal(size=n) * rng.integers(0, 2)
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            w /= np.linalg.norm(w)
            tau = rng.normal() * rng.choice([0.0, 1.0, 10.0])
            sigma = np.linalg.svd(np.diag(d) + 1j * tau * np.outer(w, w.conj()), compute_uv=False)
            moduli2, weights = d.real**2 + d.imag**2, np.abs(w) ** 2
            for s in np.concatenate((np.sqrt(moduli2), rng.uniform(0.01, 3.0, 4))):
                if np.min(np.abs(sigma - s)) < 1e-9:
                    continue
                with np.errstate(all="raise"):
                    count = spectral._singular_values_below(d, moduli2, weights, float(weights.sum()), tau, s)
                assert count == np.count_nonzero(sigma < s)

    def test_one_hermitian_eigensolve_per_probed_result(self, monkeypatch):
        # the solve makes one banded eigensolve with vectors and one
        # eigenvalue-only call; the probes make neither
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 40, 0.9), ExtensionDomain.line([1.0, 1.0j]))
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(scipy.linalg, name)
            monkeypatch.setattr(scipy.linalg, name, lambda *a, _n=name, _f=original, **k: calls.append(_n) or _f(*a, **k))
        banded = spectral.tridiagonal_eigh
        monkeypatch.setattr(
            spectral, "tridiagonal_eigh", lambda *a, **k: calls.append(("dsbgvd", k["vectors"])) or banded(*a, **k)
        )
        probed = solve_pencil(pen)
        assert calls == [("dsbgvd", True), "eigvalsh"]
        for theta in (0.5 * math.pi, 1.5 * math.pi, 2.0):
            ray_minimal_growth_full(Ray(theta), probed)
        resolvent_norm(probed, -5.0)
        assert calls == [("dsbgvd", True), "eigvalsh"]
        mu, weights, _ = probed.rank_one_form
        assert mu.shape == weights.shape == (pen.size,)
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0

    def test_probes_of_one_pencil_share_one_reduction(self, monkeypatch):
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 40, 0.9), None)
        calls = []
        reduce = spectral._to_arrowhead
        monkeypatch.setattr(spectral, "_to_arrowhead", lambda K, M, schur: calls.append(1) or reduce(K, M, schur))
        res = solve_pencil(pen)
        for z in (1.0j, -5.0, 2.5 + 0.5j):
            resolvent_norm(res, z)
        assert len(calls) == 1
        mu, weights, _ = res.rank_one_form
        for stored in (mu, weights):
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0

    def test_matches_explicit_shifted_svd_on_friedrichs(self, friedrichs_pencil, friedrichs_result):
        K, M = dense(friedrichs_pencil.K), dense(friedrichs_pencil.M)
        trust = friedrichs_result.trust_limit
        for z in (1.0j, -5.0, 0.1 * trust * np.exp(0.75j * math.pi), trust * 1j, 2.5 + 0.5j):
            reference = dense_resolvent_norm(K, M, z)
            assert resolvent_norm(friedrichs_result, z) == pytest.approx(reference, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        closed=st.booleans(),
        ab=st.tuples(*[st.floats(-2.0, 2.0)] * 4).filter(lambda v: max(map(abs, v)) > 0.1),
        n_h=st.integers(16, 120),
        theta=st.floats(0.0, 2.0 * math.pi),
        radius=st.floats(1e-3, 1.0),
    )
    def test_matches_dense_svd_on_enriched_pencils(self, closed, ab, n_h, theta, radius):
        model, mode_k = (CLOSED, 0) if closed else (SECTOR, 1)
        line = ExtensionDomain.line([complex(ab[0], ab[1]), complex(ab[2], ab[3])])
        pen = assemble_mode_pencil(model, mode_k, RadialGrid.geometric(1.0, n_h, 0.9), line)
        res = solve_pencil(pen)
        lam = radius * res.trust_limit * cmath.exp(1j * theta)
        s_ref = 1.0 / dense_resolvent_norm(dense(pen.K), dense(pen.M), lam)
        s = 1.0 / resolvent_norm(res, lam)
        # the reference rounds K - lambda M before two triangular solves,
        # so by Weyl it is off by about eps (||K|| + |lambda| ||M||) ||M^-1||
        # in absolute terms; the structured route's own error is smaller
        mass = scipy.linalg.eigvalsh(dense(pen.M))
        unit = np.finfo(float).eps * (np.linalg.norm(dense(pen.K), 2) + abs(lam) * mass[-1]) / mass[0]
        assert abs(s - s_ref) <= 8.0 * unit


# seeded closed-link pair whose fifth root sits far off the real axis
SEED4_PAIR = (-1.1606431576220568 - 0.0036792633802781066j, -0.4408554390768262 + 0.10509835798959383j)


@pytest.fixture(scope="module", params=[100, 200], ids=lambda n: f"N{n}")
def qz_reference(request):
    """Enriched pencils of both geometries and their test-local QZ eigenvalues."""
    cases = []
    for model, mode_k in ((CLOSED, 0), (SECTOR, 1)):
        for a, b in ((1.0, 1.0j), SEED4_PAIR):
            grid = RadialGrid.geometric(1.0, request.param, 0.9)
            pen = assemble_mode_pencil(model, mode_k, grid, ExtensionDomain.line([a, b]))
            cases.append((pen, solve_pencil(pen), scipy.linalg.eigvals(dense(pen.K), dense(pen.M))))
    return cases


class TestReductionAgainstQZ:
    """The arrowhead-reduced eigensolve against a QZ on (K, M) as the reference."""

    def test_retained_eigenvalues_match_qz(self, qz_reference):
        for _, res, qz in qz_reference:
            lam = res.retained_eigenvalues
            nearest = np.argmin(np.abs(lam[:, np.newaxis] - qz[np.newaxis, :]), axis=1)
            assert len(set(nearest)) == len(lam)
            assert np.max(np.abs(lam - qz[nearest]) / np.abs(qz[nearest])) <= 1e-7

    def test_backward_error_of_the_lowest_pairs(self, qz_reference):
        for pen, res, _ in qz_reference:
            K, M = dense(pen.K), dense(pen.M)
            lam, V = res.eigenvalues[:40], res.eigenvectors[:, :40]
            defect = np.linalg.norm(K @ V - (M @ V) * lam, axis=0)
            scale = (np.linalg.norm(K, 2) + np.abs(lam) * np.linalg.norm(M, 2)) * np.linalg.norm(V, axis=0)
            assert np.max(defect / scale) <= 1e-10

    def test_mass_condition_is_the_gate_value(self, qz_reference):
        for pen, res, _ in qz_reference:
            assert res.mass_condition == pytest.approx(np.linalg.cond(dense(pen.M)), rel=1e-6)


class TestBandedEigensolve:
    """LAPACK's dsbgvd on the tridiagonal hat pencil (T_K, T_M) against a dense generalized eigh."""

    @settings(max_examples=30, deadline=None)
    @given(closed=st.booleans(), n_h=st.integers(16, 200))
    def test_matches_the_dense_generalized_eigh(self, closed, n_h):
        model, mode_k = (CLOSED, 0) if closed else (SECTOR, 1)
        pen = assemble_mode_pencil(model, mode_k, RadialGrid.geometric(1.0, n_h, 0.9), None)
        K, M = pen.K, pen.M
        theta, Z = tridiagonal_eigh(K.diag, K.off, M.diag, M.off, vectors=True)
        ref_theta, ref_Z = hat_pencil_eigh(K, M)
        assert np.all(np.abs(theta - ref_theta) <= 1e-10 * np.abs(ref_theta))
        values, no_vectors = tridiagonal_eigh(K.diag, K.off, M.diag, M.off, vectors=False)
        assert no_vectors is None
        assert np.all(np.abs(values - ref_theta) <= 1e-10 * np.abs(ref_theta))
        # each column up to its sign, in the T_M norm: the eigenvalues are at least 6% apart
        T_M = dense(M).real
        D = Z - ref_Z * np.sign(np.sum(Z * (T_M @ ref_Z), axis=0))
        assert np.max(np.sqrt(np.einsum("ij,ij->j", D, T_M @ D))) <= 1e-9
        assert Z.flags.f_contiguous
        assert np.max(np.abs(Z.T @ T_M @ Z - np.eye(len(theta)))) <= 1e-13

    def test_a_missing_routine_is_named_at_import(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg.cython_lapack, "__pyx_capi__", {})
        try:
            with pytest.raises(ImportError, match="exports no dsbgvd"):
                importlib.reload(conespectra._lapack)
        finally:
            monkeypatch.undo()
            importlib.reload(conespectra._lapack)

    @pytest.mark.parametrize("vectors", [True, False])
    def test_one_dof_core(self, vectors):
        theta, Z = tridiagonal_eigh(np.array([3.0]), np.zeros(0), np.array([4.0]), np.zeros(0), vectors=vectors)
        assert theta.tolist() == [0.75]
        if vectors:
            assert np.abs(Z).tolist() == [[0.5]]
        else:
            assert Z is None

    @pytest.mark.parametrize(
        "b_diag, b_off",
        [([1.0, -1.0, 1.0], [0.0, 0.0]), ([1.0, 1.0, 1.0], [0.9, 0.9]), ([0.0], [])],
        ids=["negative-pivot", "indefinite", "zero"],
    )
    def test_a_mass_that_is_not_positive_definite_raises(self, b_diag, b_off):
        b_diag, b_off = np.array(b_diag), np.array(b_off)
        a_diag, a_off = np.arange(1.0, len(b_diag) + 1.0), np.ones(len(b_off))
        for vectors in (True, False):
            with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                tridiagonal_eigh(a_diag, a_off, b_diag, b_off, vectors=vectors)


    def test_a_workspace_past_32_bit_counts_is_refused_before_allocating(self):
        # lwork = 1 + 5n + 2n^2 wrapped in the C int from n = 32767 on: LAPACK read
        # -2147319807 at n = 32768 and returned INFO = -14, after numpy had given
        # the n x n eigenvectors 8.6 GB and the workspace 17 GB
        n = conespectra._lapack.MAX_VECTORS_ORDER
        assert n == 32766
        assert 1 + 5 * n + 2 * n * n <= 2**31 - 1 < 1 + 5 * (n + 1) + 2 * (n + 1) ** 2
        diag, off = np.ones(n + 1), np.zeros(n)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="32-bit counts"):
                tridiagonal_eigh(diag, off, diag, off, vectors=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestStructuredGateAndProducts:
    """cond(M) and the products of the solve, from the parts, against their dense matrices."""

    @settings(max_examples=30, deadline=None)
    @given(
        closed=st.booleans(),
        ab=st.tuples(*[st.floats(-2.0, 2.0)] * 4).filter(lambda v: max(map(abs, v)) > 0.1),
        n_h=st.integers(16, 200),
    )
    def test_match_the_dense_views(self, closed, ab, n_h):
        model, mode_k = (CLOSED, 0) if closed else (SECTOR, 1)
        line = ExtensionDomain.line([complex(ab[0], ab[1]), complex(ab[2], ab[3])])
        pen = assemble_mode_pencil(model, mode_k, RadialGrid.geometric(1.0, n_h, 0.9), line)
        res = solve_pencil(pen)
        # the dense SVD's own error is about eps cond relative
        cond = np.linalg.cond(dense(pen.M))
        assert abs(res.mass_condition - cond) <= 100.0 * np.finfo(float).eps * cond * cond
        V = res.eigenvectors
        for part in (pen.K, pen.M):
            A = dense(part)
            scale = np.linalg.norm(A, 2) * np.linalg.norm(V)
            assert np.linalg.norm(part.dot(V) - A @ V) <= 1e-13 * scale

    def test_minimal_pencil_gate_is_the_tridiagonal_condition(self, friedrichs_pencil, friedrichs_result):
        cond = np.linalg.cond(dense(friedrichs_pencil.M))
        assert friedrichs_result.mass_condition == pytest.approx(cond, rel=100.0 * np.finfo(float).eps * cond)

    @pytest.mark.parametrize("geometry", ["closed", "sector"])
    def test_solve_makes_one_real_eigensolve_and_no_dense_factorization(self, monkeypatch, geometry):
        model, mode_k = (CLOSED, 0) if geometry == "closed" else (SECTOR, 1)
        pen = assemble_mode_pencil(model, mode_k, RadialGrid.geometric(1.0, 100, 0.9), ExtensionDomain.line([1.0, 1.0j]))
        calls = []
        for name in ("cholesky", "solve_triangular", "eigh", "eigvalsh"):
            original = getattr(scipy.linalg, name)

            def spy(a, *args, _n=name, _f=original, **kwargs):
                calls.append((_n, np.asarray(a).dtype.kind, np.shape(a), kwargs.get("eigvals_only", False)))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, spy)
        banded = spectral.tridiagonal_eigh

        def banded_spy(a_diag, *args, **kwargs):
            calls.append(("dsbgvd", np.asarray(a_diag).dtype.kind, np.shape(a_diag), kwargs["vectors"]))
            return banded(a_diag, *args, **kwargs)

        monkeypatch.setattr(spectral, "tridiagonal_eigh", banded_spy)
        res = solve_pencil(pen)
        n = pen.size
        # one banded eigensolve with vectors of the tridiagonal (n-1)-dof hat
        # pencil, one real eigenvalue-only call on the arrowhead, and nothing
        # complex and no (n-1) x (n-1) input
        assert calls == [("dsbgvd", "f", (n - 1,), True), ("eigvalsh", "f", (n, n), False)]
        assert_matches_qz(pen, res)

    def test_minimal_pencil_is_the_real_definite_problem(self, friedrichs_pencil, friedrichs_result):
        K, M = dense(friedrichs_pencil.K).real, dense(friedrichs_pencil.M).real
        ref = scipy.linalg.eigh(K, M, eigvals_only=True)
        lam = friedrichs_result.eigenvalues
        assert not lam.imag.any()
        assert np.max(np.abs(np.sort(lam.real) - ref) / np.abs(ref)) <= 1e-12
        V = friedrichs_result.eigenvectors
        assert np.max(np.abs(V.conj().T @ M @ V - np.eye(len(lam)))) <= 1e-12
        # tau = 0 and no weights: the probes are inverse distances
        # (TestResolventNorm.test_hermitian_norm_is_inverse_distance)
        mu, weights, tau = friedrichs_result.rank_one_form
        assert tau == 0.0 and not weights.any()
        assert friedrichs_result.aberth_sweeps == 0
        assert friedrichs_result.deflated_poles == len(lam)

    def test_indefinite_mass_raises(self):
        # T is positive definite but the border's Schur complement at 0 is not
        M = np.diag([2.0, 3.0, 1.0]).astype(complex)
        M[:2, 2] = M[2, :2] = [1.5, 1.0]
        with pytest.raises(IllConditionedMass, match="positive definite"):
            solve_pencil(make_pencil(np.eye(3), M))
        with pytest.raises(IllConditionedMass, match="positive definite"):
            solve_pencil(make_pencil(np.eye(3), np.diag([1.0, -1.0, 1.0])))


def phase_test_arrowheads():
    """(theta, z, eta, tau) of arrowheads with zero, deflated and near-pole border entries.

    First the vanishing-border test's own, then seeded random ones.
    """
    rng = np.random.default_rng(5)
    theta = np.array([1.0, 1.5, 2.0, 3.0, 3.0, 3.5, 4.0])
    z = rng.normal(size=7) + 1j * rng.normal(size=7)
    z[[3, 5]] = 0.0
    z[1] = 1e-12
    for tau in (0.7, -40.0, 1e-300, 0.0):
        yield theta, z, 2.5, tau
    rng = np.random.default_rng(36)
    for _ in range(200):
        n = int(rng.integers(4, 41))
        s = 10.0 ** rng.uniform(0.0, 6.0)
        theta = np.sort(rng.uniform(-s, s, n))
        z = s * 10.0 ** rng.uniform(-3.0, 0.0, n) * np.exp(2j * math.pi * rng.uniform(size=n))
        k = rng.integers(0, n, 3)
        z[k[0]] = 0.0  # deflated exactly
        z[k[1]] *= 1e-17  # deflated, below 8 eps ||B||
        z[k[2]] *= 1e-9  # kept, with a root about 1e-18 s from its pole
        j = int(rng.integers(0, n - 1))
        theta[j + 1], z[j + 1] = theta[j], 0.0  # an equal pole that carries no weight
        yield theta, z, rng.uniform(-s, s), rng.normal() * s * 10.0 ** rng.uniform(-8.0, 0.0)


def assert_matches_qz(pen, res):
    """Retained eigenvalues within 1e-7 of distinct QZ ones; lowest 40 pairs backward stable."""
    qz = scipy.linalg.eigvals(dense(pen.K), dense(pen.M))
    lam = res.retained_eigenvalues
    nearest = np.argmin(np.abs(lam[:, np.newaxis] - qz[np.newaxis, :]), axis=1)
    assert len(set(nearest)) == len(lam)
    assert np.max(np.abs(lam - qz[nearest]) / np.abs(qz[nearest])) <= 1e-7
    K, M = dense(pen.K), dense(pen.M)
    lam, V = res.eigenvalues[:40], res.eigenvectors[:, :40]
    defect = np.linalg.norm(K @ V - (M @ V) * lam, axis=0)
    scale = (np.linalg.norm(K, 2) + np.abs(lam) * np.linalg.norm(M, 2)) * np.linalg.norm(V, axis=0)
    assert np.max(defect / scale) <= 1e-10


class TestRankOneSolve:
    """The secular eigensolve of the rank-one form against dense references."""

    @settings(max_examples=25, deadline=None)
    @given(
        closed=st.booleans(),
        ab=st.tuples(*[st.floats(-2.0, 2.0)] * 4).filter(lambda v: max(map(abs, v)) > 0.1),
        n_h=st.integers(16, 200),
    )
    # the Hermitian eigensolve alone puts the lowest pair's backward error at 1.1e-10
    @example(closed=False, ab=(0.0, 1.4242435131718016, 1.9454426775335971, 1.4242435131718016), n_h=112)
    # a root 2.6e-7 off its pole, far below eps ||H||, that must not be deflated
    @example(closed=False, ab=(0.0, 3.7014954463724576e-07, 1.0, 1.0), n_h=92)
    def test_matches_qz_on_random_enriched_pencils(self, closed, ab, n_h):
        model, mode_k = (CLOSED, 0) if closed else (SECTOR, 1)
        line = ExtensionDomain.line([complex(ab[0], ab[1]), complex(ab[2], ab[3])])
        pen = assemble_mode_pencil(model, mode_k, RadialGrid.geometric(1.0, n_h, 0.9), line)
        assert_matches_qz(pen, solve_pencil(pen))

    def test_finds_every_root_where_plain_newton_collapses_two(self):
        # Newton from the same starts lands two of these roots on one
        pair = (-0.43970179 + 1.89877125j, 0.50104594 + 0.77449134j)
        pen = assemble_mode_pencil(CLOSED, 0, RadialGrid.geometric(1.0, 120, 0.9), ExtensionDomain.line(pair))
        res = solve_pencil(pen)
        qz = scipy.linalg.eigvals(dense(pen.K), dense(pen.M))
        nearest = np.argmin(np.abs(res.eigenvalues[:, np.newaxis] - qz[np.newaxis, :]), axis=1)
        assert sorted(nearest) == list(range(pen.size))
        assert_matches_qz(pen, res)

    # (a, b) pairs of the sweep-count study; closed-link (1000, i) fails the
    # mass gate at N_h = 100, so it is left out
    ABERTH_PAIRS = {
        "closed": [(1, 1j), (1, 10j), (1, 100j), (1e-3, 1j), (1e-6, 1j), (1, 1e-6j), (0, 1j)],
        "sector": [(1, 1j), (1, 10j), (1, 100j), (1e-3, 1j), (1e-6, 1j), (1, 1e-6j), (1000, 1j), (0, 1j)],
    }

    @pytest.mark.parametrize("geometry", ["closed", "sector"])
    def test_assembled_pencils_need_at_most_ten_aberth_sweeps(self, monkeypatch, geometry):
        monkeypatch.setattr(spectral, "_ABERTH_SWEEPS", 10)
        model, mode_k = (CLOSED, 0) if geometry == "closed" else (SECTOR, 1)
        configs = [(100, pair) for pair in self.ABERTH_PAIRS[geometry]] + [(400, (1, 1j))]
        for n_h, pair in configs:
            pen = assemble_mode_pencil(model, mode_k, RadialGrid.geometric(1.0, n_h, 0.9), ExtensionDomain.line(pair))
            solve_pencil(pen)

    def test_deflates_vanishing_weights(self):
        rng = np.random.default_rng(5)
        mu = np.array([1.0, 1.5, 2.0, 3.0, 3.0, 3.5, 4.0])
        w = rng.normal(size=7) + 1j * rng.normal(size=7)
        w[3] = 0.0  # leaves one weighted mu = 3 pole next to a deflated one
        w /= np.linalg.norm(w)
        weights = w.real**2 + w.imag**2
        for tau in (0.7, -40.0, 1e-300, 0.0):
            B = np.diag(mu) + 1j * tau * np.outer(w, w.conj())
            lam, deflated, _ = spectral._rank_one_roots(mu, weights, tau)
            assert list(np.flatnonzero(deflated)) == ([3] if abs(tau) > 1e-100 else list(range(7)))
            assert np.all(lam[deflated] == mu[deflated])
            ref = np.linalg.eigvals(B)
            assert np.max(np.min(np.abs(lam[:, np.newaxis] - ref), axis=1)) <= 1e-13 * np.linalg.norm(B, 2)
            assert np.max(np.min(np.abs(ref[:, np.newaxis] - lam), axis=1)) <= 1e-13 * np.linalg.norm(B, 2)

    def test_equal_weighted_poles_raise(self):
        mu = np.array([1.0, 2.0, 2.0, 3.0])
        with pytest.raises(RootFindingError, match="equal poles"):
            spectral._rank_one_roots(mu, np.full(4, 0.25), 0.7)
        with pytest.raises(RootFindingError, match="equal poles"):
            spectral._arrowhead_eigenvalues(mu, np.full(4, 0.5 + 0.0j), 1.0, 0.7)

    def test_arrowhead_eigenpairs_with_vanishing_border_entries(self):
        # z_j = 0 makes theta_j an eigenvalue with eigenvector e_j, here
        # next to an equal theta that carries weight; z_1 = 1e-12 is not
        # deflated, and puts a root within rounding of theta_1
        rng = np.random.default_rng(5)
        theta = np.array([1.0, 1.5, 2.0, 3.0, 3.0, 3.5, 4.0])
        z = rng.normal(size=7) + 1j * rng.normal(size=7)
        z[[3, 5]] = 0.0
        z[1] = 1e-12
        for tau in (0.7, -40.0, 1e-300, 0.0):
            B = np.diag(np.append(theta, 2.5 + 1j * tau)).astype(complex)
            B[:-1, -1] = z
            B[-1, :-1] = z.conj()
            lam, near, offset, mu, weights, _, deflated = spectral._arrowhead_eigenvalues(theta, z, 2.5, tau)
            assert sorted(near[offset == 0.0]) == [3, 5] and deflated >= 2
            Y, X = np.hsplit(spectral._arrowhead_vectors(theta, z, lam, near, offset), 2)
            scale = np.linalg.norm(B, 2)
            assert np.allclose(np.linalg.norm(Y, axis=0), 1.0, atol=1e-14)
            assert np.max(np.linalg.norm(B @ Y - Y * lam, axis=0)) <= 1e-14 * scale
            left = np.linalg.norm(B.conj().T @ X - X * lam.conj(), axis=0) / np.linalg.norm(X, axis=0)
            assert np.max(left) <= 1e-14 * scale
            assert np.linalg.matrix_rank(Y) == 8
            ref = np.linalg.eigvals(B)
            assert np.max(np.min(np.abs(lam[:, np.newaxis] - ref), axis=1)) <= 1e-13 * scale
            # the rank-one form is that of the Hermitian part, corner made real
            hermitian = B.copy()
            hermitian[-1, -1] = 2.5
            values, vectors = np.linalg.eigh(hermitian)
            assert np.allclose(mu, values, rtol=0.0, atol=1e-14 * scale)
            live = weights > 1e-20
            assert np.allclose(weights[live], np.abs(vectors[-1, live]) ** 2, rtol=1e-12, atol=0.0)

    def test_left_vectors_follow_from_the_right_by_the_phase_symmetry(self):
        # Phi^H B Phi is complex symmetric for Phi = diag(z / |z|, 1), so the left
        # eigenvector is Phi^2 conj(y); worst 2.9 eps per entry, each column scaled
        # at its largest entry, with Phi^2 and the scaling taken in long double
        eps = np.finfo(float).eps
        for theta, z, eta, tau in phase_test_arrowheads():
            lam, near, offset, *_ = spectral._arrowhead_eigenvalues(theta, z, eta, tau)
            right, left = np.hsplit(spectral._arrowhead_vectors(theta, z, lam, near, offset), 2)
            ref = arrowhead_left_vectors(theta, z, lam, near, offset)
            # the solve's left vectors divide z by the same numbers as the direct formula
            assert np.array_equal(left, ref)
            wide = z.astype(np.clongdouble)
            phase2 = np.ones(len(z) + 1, dtype=np.clongdouble)
            phase2[:-1][z != 0.0] = wide[z != 0.0] / wide[z != 0.0].conj()
            mirrored = phase2[:, np.newaxis] * right.astype(np.clongdouble).conj()
            cols = np.arange(len(lam))
            top = np.argmax(np.abs(ref), axis=0)
            mirrored *= ref[top, cols] / mirrored[top, cols]
            nonzero = ref != 0.0
            assert np.all(mirrored[~nonzero] == 0.0)
            assert np.all(np.abs(mirrored[nonzero] - ref[nonzero]) <= 4.0 * eps * np.abs(ref[nonzero]))

    @pytest.mark.parametrize("n_h", [40, 60])
    @pytest.mark.parametrize("pair", [(1.0, 1j), (0.3 - 0.2j, -0.7 + 1.1j)])
    def test_rank_one_form_agrees_with_40_digit_mpmath(self, pair, n_h):
        # worst 4.7e-12 for mu and 8.5e-13 for |w|^2, against 4.0e-11 and 6.1e-12
        # when the weights took their pole distances by subtraction
        mp = pytest.importorskip("mpmath").mp
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, n_h, 0.9), ExtensionDomain.line(pair))
        theta, _, (z, eta, _, _, _) = spectral._to_arrowhead(pen.K, pen.M, spectral._mass_extremes(pen.M)[2])
        mu, weights, _ = solve_pencil(pen).rank_one_form
        with mp.workdps(40):
            n = len(theta)
            H = mp.matrix(n + 1, n + 1)
            for j in range(n):
                H[j, j] = theta[j]
                H[j, n] = H[n, j] = abs(z[j])
            H[n, n] = eta
            roots = sorted(mp.eigsy(H, eigvals_only=True))
            moduli2 = [mp.mpf(abs(zj)) ** 2 for zj in z]
            ref_weights = [1 / (1 + sum(m / (r - t) ** 2 for m, t in zip(moduli2, theta))) for r in roots]
            ref_mu, ref_weights = (np.array([float(v) for v in vs]) for vs in (roots, ref_weights))
        assert np.max(np.abs(mu - ref_mu) / np.abs(ref_mu)) <= 1.5e-11
        assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 2.5e-12

    @pytest.mark.parametrize(
        "model, mode, pair",
        [
            (CLOSED, 0, (1.0, 1j)),
            (SECTOR, 1, (1.0, 1j)),
            # b = 1 and a at the first exceptional point of each geometry
            (CLOSED, 0, (1.3356947094 + 1.05608698926j, 1.0)),
            (SECTOR, 1, (-0.363940524644 + 7.70743321936j, 1.0)),
        ],
        ids=["closed-1i", "sector-1i", "closed-exceptional", "sector-exceptional"],
    )
    def test_eigenvalues_agree_with_40_digit_roots_of_the_pencil(self, model, mode, pair):
        # the Rayleigh quotient sets the last digits: worst 2.5e-15, 1.8e-15, 8.3e-15 and
        # 1.3e-14 relative, against 4.3e-12, 3.1e-12, 1.9e-10 and 7.2e-11 when a pair kept
        # its secular eigenvalue wherever that had the lower residual
        mp = pytest.importorskip("mpmath").mp
        pen = assemble_mode_pencil(model, mode, RadialGrid.geometric(1.0, 100, 0.9), ExtensionDomain.line(pair))
        lam = solve_pencil(pen).eigenvalues[:12]
        with mp.workdps(40):
            phi = corner_schur_complement(pen.K, pen.M, mp)
            ref = np.array([complex(mp.findroot(phi, (mp.mpc(x), mp.mpc(x) * (1 + mp.mpf(2) ** -30)))) for x in lam])
        assert np.max(np.abs(lam - ref) / np.abs(ref)) <= 1e-13

    def test_refined_pairs_do_not_depend_on_the_block_width(self, monkeypatch):
        # every pair of the example53 (1, i) pencil takes its quotient, whatever the lift's
        # blocking; the eigenvalues differ by at most 7.0e-16 relative (the count read 106
        # to 108 when a pair kept its quotient only where that lowered its residual)
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 400, 0.9), ExtensionDomain.line([1.0, 1.0j]))
        runs = []
        for width in (7, 64, 1000):
            monkeypatch.setattr(spectral, "_REFINE_BLOCK", width)
            runs.append(solve_pencil(pen))
        assert [res.refined_pairs for res in runs] == [pen.size] * 3
        first = runs[0].eigenvalues
        for res in runs[1:]:
            assert np.max(np.abs(res.eigenvalues - first) / np.abs(first)) <= 4e-15

    def test_solve_holds_about_four_squares_of_doubles(self):
        # W, the eigenvectors and a block's scratch: 5.8 MB at n = 399, against
        # 9.0 MB when every left eigenvector and both arrowhead-basis copies
        # were built at once
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 400, 0.9), ExtensionDomain.line([1.0, 1.0j]))
        tracemalloc.start()
        try:
            solve_pencil(pen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pen.size == 399
        assert peak <= 5 * 8 * pen.size**2

    def test_random_arrowheads_match_dense_eigenvalues(self):
        # poles in +-s for s up to 1e8 and border moduli from 1e-16 to 1 times
        # the largest pole: roots at every distance from their poles; worst 1.5e-14
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(3, 61))
            s = 10.0 ** rng.uniform(0.0, 8.0)
            theta = np.sort(rng.uniform(-s, s, n))
            z = np.max(np.abs(theta)) * 10.0 ** rng.uniform(-16.0, 0.0, n) * np.exp(2j * math.pi * rng.uniform(size=n))
            eta, tau = rng.uniform(-s, s), rng.normal() * s * 10.0 ** rng.uniform(-8.0, 0.0)
            B = np.diag(np.append(theta, eta + 1j * tau)).astype(complex)
            B[:-1, -1] = z
            B[-1, :-1] = z.conj()
            lam = spectral._arrowhead_eigenvalues(theta, z, eta, tau)[0]
            ref = scipy.linalg.eigvals(B)
            scale = np.linalg.norm(B, 2)
            assert np.max(np.min(np.abs(lam[:, np.newaxis] - ref), axis=1)) <= 1e-13 * scale
            assert np.max(np.min(np.abs(ref[:, np.newaxis] - lam), axis=1)) <= 1e-13 * scale

    def test_runs_without_numpy_2_vector_functions(self, monkeypatch):
        # the package declares numpy>=1.24, which has none of these
        for name in ("vecdot", "matvec", "vecmat"):
            monkeypatch.delattr(np, name, raising=False)
        monkeypatch.delattr(np.linalg, "vecdot", raising=False)
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 40, 0.9), ExtensionDomain.line([1.0, 1.0j]))
        assert_matches_qz(pen, solve_pencil(pen))

    def test_vanishing_corner_solves_like_a_hermitian_pencil(self):
        # tau of 1e-305 would put every root within 1e-305 of its pole
        line = ExtensionDomain.line([0.0, complex(1.0, 1.7e-305)])
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 16, 0.9), line)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            res = solve_pencil(pen)
        assert np.all(np.isfinite(res.eigenvectors))
        assert_matches_qz(pen, res)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_ABERTH_SWEEPS", 1)
        pen = assemble_mode_pencil(CLOSED, 0, RadialGrid.geometric(1.0, 60, 0.9), ExtensionDomain.line([1.0, 1.0j]))
        with pytest.raises(RootFindingError, match="Aberth"):
            solve_pencil(pen)


class TestRayMinimalGrowthFull:
    def test_vertical_ray_minimal_on_friedrichs(self, friedrichs_result):
        radii = friedrichs_result.probe_radii
        norms, verdict = ray_minimal_growth_full(Ray(0.5 * math.pi), friedrichs_result)
        assert verdict.verdict == "Minimal"
        assert -1.15 <= verdict.slope <= -0.85
        assert verdict.sup_bound == max(r * v for r, v in zip(radii, norms))
        assert norms == [resolvent_norm(friedrichs_result, r * cmath.exp(0.5j * math.pi)) for r in radii]

    def test_positive_real_ray_fails(self):
        # 8 of the 10 pairs are retained, so the trust limit is 0.1 * 7 and
        # the outermost probe on the ray theta = 0 lands on the eigenvalue 0.7
        res = solve_pencil(make_pencil(np.diag([0.7, 1, 2, 3, 4, 5, 6, 7, 50, 60]), np.eye(10)))
        norms, verdict = ray_minimal_growth_full(Ray(0.0), res)
        assert verdict.verdict == "Fails"
        assert verdict.sup_bound == math.inf
        assert all(math.isfinite(v) for v in norms[:3]) and norms[3] == math.inf
        assert verdict.witness == {"radii": res.probe_radii, "norms": norms}
        assert "does not exist" in verdict.note


class TestRayVerdictInvariants:
    def test_minimal_requires_slope_in_window(self):
        with pytest.raises(ValueError):
            RayVerdict(ray=Ray(1.0), verdict="Minimal", slope=-0.5, sup_bound=1.0)

    def test_minimal_requires_finite_sup(self):
        with pytest.raises(ValueError):
            RayVerdict(ray=Ray(1.0), verdict="Minimal", slope=-1.0, sup_bound=math.inf)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            RayVerdict(ray=Ray(1.0), verdict="Maybe")


class TestCompletenessResidual:
    def test_first_eigenvector_projects_exactly(self, friedrichs_pencil, friedrichs_result):
        v = friedrichs_result.eigenvectors[:, 0]
        nrm = math.sqrt(abs(v.conj() @ dense(friedrichs_pencil.M) @ v))
        rows = completeness_residual(friedrichs_result, v / nrm, [1, 3])
        assert rows[0] == (1, pytest.approx(0.0, abs=1e-8))
        assert rows[1][1] <= 1e-8

    def test_nonincreasing_in_n(self, friedrichs_pencil, friedrichs_result):
        rng = np.random.default_rng(3)
        f = rng.normal(size=friedrichs_pencil.size) + 1j * rng.normal(size=friedrichs_pencil.size)
        nrm = math.sqrt(abs(f.conj() @ dense(friedrichs_pencil.M) @ f))
        rows = completeness_residual(friedrichs_result, f / nrm, [2, 5, 10, 20, 40])
        vals = [r for _, r in rows]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))

    def test_unit_norm_precondition(self, friedrichs_pencil, friedrichs_result):
        f = np.ones(friedrichs_pencil.size)
        with pytest.raises(ValueError, match="unit"):
            completeness_residual(friedrichs_result, f, [5])

    @pytest.mark.parametrize("N", [2.7, True, "3", None])
    def test_a_count_that_is_not_an_integer_is_rejected(self, friedrichs_pencil, friedrichs_result, N):
        # 2.7 read as 2, and True as 1
        v = friedrichs_result.eigenvectors[:, 0]
        f = v / math.sqrt(abs(v.conj() @ dense(friedrichs_pencil.M) @ v))
        with pytest.raises(ValueError, match="N_list must be an integer"):
            completeness_residual(friedrichs_result, f, [1, N])
        assert completeness_residual(friedrichs_result, f, [3.0]) == completeness_residual(friedrichs_result, f, [3])

    def test_n_beyond_retained_rejected(self, friedrichs_pencil, friedrichs_result):
        v = friedrichs_result.eigenvectors[:, 0]
        nrm = math.sqrt(abs(v.conj() @ dense(friedrichs_pencil.M) @ v))
        with pytest.raises(ValueError):
            completeness_residual(friedrichs_result, v / nrm, [friedrichs_result.n_retained + 1])

    @pytest.mark.parametrize("source, scale", [(0, 1.0), (1, 1.0), (1, 2.0 * cmath.exp(0.7j))])
    def test_dependent_columns_are_a_linalg_error(self, source, scale):
        # a copy of v_source in column 3 keeps v_3's eigenvalue, far from v_source's, so no
        # cluster joins them; rounding decides which check sees the copy: the Cholesky
        # factorization of V^H M V fails, or its second pass departs from I; both raise
        line = ExtensionDomain.line([1.0, 1.0j])
        pencil = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 120, 0.9), line)
        solved = solve_pencil(pencil)
        vectors = solved.eigenvectors.copy()
        vectors[:, 3] = scale * vectors[:, source]
        res = dataclasses.replace(solved, eigenvectors=vectors)
        assert abs(res.eigenvalues[3] - res.eigenvalues[source]) > 1.0
        v = solved.eigenvectors[:, 4]
        f = v / math.sqrt(abs(np.vdot(v, pencil.M.dot(v))))
        assert 0.0 < completeness_residual(res, f, [3])[0][1] <= 1.0  # the columns before the copy
        with pytest.raises(np.linalg.LinAlgError):
            completeness_residual(res, f, [5])

    def test_defective_cluster_uses_invariant_subspace(self):
        # a Hermitian block with imaginary corner i 2: its eigenvalue
        # 1 + i is a double root whose two computed eigenvectors collapse
        # onto (1, i), but the cluster's invariant subspace is
        # span{e_3, e_4}, which the projection must recover
        K = np.zeros((4, 4), dtype=complex)
        K[0, 0], K[1, 1] = 5.0, 50.0
        K[2:, 2:] = [[1.0, 1.0], [1.0, 1.0 + 2.0j]]
        res = solve_pencil(make_pencil(K, np.eye(4)))
        assert res.n_retained == 3
        assert np.allclose(res.eigenvalues[:2], 1.0 + 1.0j, atol=1e-6)
        # a Rayleigh quotient with nearly M-orthogonal left and right
        # eigenvectors would leave these pairs at residuals near 3e-8
        assert np.max(res.residuals) <= 1e-12 * 50.0
        f = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
        rows = completeness_residual(res, f, [1, 2, 3])
        assert rows[0][1] == pytest.approx(math.sqrt(0.68), abs=1e-6)
        assert rows[1][1] == pytest.approx(0.6, abs=1e-9)
        assert rows[2][1] <= 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 40))
    def test_jordan_chain_spans_the_deflating_subspace(self, seed, n):
        built = defective_arrow_pencil(np.random.default_rng(seed), n)
        assume(built is not None)
        pencil, lam0 = built
        res = solve_pencil(pencil)
        assert res.refined_pairs == n - 2  # the defective pair keeps its secular eigenvalue
        V = spectral._cluster_defective(res, n)
        tol = 1e-5 * max(1.0, abs(lam0))
        cluster = np.flatnonzero(np.abs(res.eigenvalues - lam0) <= tol)
        assert len(cluster) == 2
        # the cluster keeps its first eigenvector and replaces the other
        assert np.array_equal(V[:, cluster[0]], res.eigenvectors[:, cluster[0]])
        assert not np.allclose(V[:, cluster[1]], res.eigenvectors[:, cluster[1]])

        def near(alpha, beta):
            return np.abs(alpha - lam0 * beta) <= tol * np.abs(beta)

        _, _, alpha, beta, _, Z = scipy.linalg.ordqz(dense(pencil.K), dense(pencil.M), sort=near, output="complex")
        assert np.count_nonzero(near(alpha, beta)) == 2
        assert math.sin(np.max(scipy.linalg.subspace_angles(V[:, cluster], Z[:, :2]))) <= 1e-6

    def test_defective_cluster_needs_no_dense_pencil_or_qz(self, monkeypatch):
        pencil = double_root_pencil()

        def refuse(*args, **kwargs):
            raise AssertionError("the completeness stage built the dense pencil or ran QZ")

        monkeypatch.setattr(scipy.linalg, "ordqz", refuse)
        rows = completeness_residual(solve_pencil(pencil), np.array([0.6, 0.0, 0.0, 0.8]), [2, 3])
        assert rows[0][1] == pytest.approx(0.6, abs=1e-9)
        assert rows[1][1] <= 1e-9

    def test_singular_chain_pivot_is_a_linalg_error(self, monkeypatch):
        res = solve_pencil(double_root_pencil())
        gtsv = scipy.linalg.lapack.zgtsv
        monkeypatch.setattr(scipy.linalg.lapack, "zgtsv", lambda *args: gtsv(*args)[:4] + (2,))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            completeness_residual(res, np.array([0.6, 0.0, 0.0, 0.8]), [3])


# ----------------------------------------------------------------------
# secular oracle


def real_secular(nu: float, a: float, b: float, lam: float) -> float:
    """Independent real-axis secular function from scipy's Bessel families."""
    if nu == 0.0:
        if lam >= 0.0:
            z = math.sqrt(lam)
            if z == 0.0:
                return a  # W(0) = 0, J0(0) = 1
            w_ent = 0.5 * math.pi * y0(z) - (math.log(0.5 * z) + np.euler_gamma) * j0(z)
            return a * j0(z) + b * w_ent
        y = math.sqrt(-lam)
        w_ent = -(k0(y) + (math.log(0.5 * y) + np.euler_gamma) * i0(y))
        return a * i0(y) + b * w_ent
    if lam >= 0.0:
        z = math.sqrt(lam)
        if z == 0.0:
            return math.nan
        return a * sp_gamma(1 + nu) * (0.5 * z) ** (-nu) * jv(nu, z) + b * sp_gamma(
            1 - nu
        ) * (0.5 * z) ** nu * jv(-nu, z)
    y = math.sqrt(-lam)
    return a * sp_gamma(1 + nu) * (0.5 * y) ** (-nu) * iv(nu, y) + b * sp_gamma(
        1 - nu
    ) * (0.5 * y) ** nu * iv(-nu, y)


def scan_real_roots(nu, a, b, lo, hi, n=4000):
    xs = np.linspace(lo, hi, n)
    vals = np.array([real_secular(nu, a, b, x) for x in xs])
    roots = []
    for i in range(n - 1):
        if np.isnan(vals[i]) or np.isnan(vals[i + 1]):
            continue
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(brentq(lambda t: real_secular(nu, a, b, t), xs[i], xs[i + 1], xtol=1e-12))
    return np.array(roots)


FROZEN_COMPLEX_ROOTS = {
    # values frozen from the validated build of the root scanner
    (0.0, "1i"): [
        1.8926458995 + 2.8736631372j,
        23.1675526415 + 3.2152130650j,
        64.9032496192 + 3.7599969537j,
        126.5833561751 + 4.2685861897j,
        208.1359213379 + 4.7408802086j,
    ],
    (2.0 / 3.0, "1i"): [
        1.6615659698 - 1.4229921355j,
        19.5816188212 - 0.9024376132j,
        57.4308570944 - 0.7503218341j,
        115.0098220150 - 0.6675709008j,
        192.3248199150 - 0.6124962562j,
    ],
}


class TestOracleEigenvalues:
    def test_friedrichs_pair_are_bessel_zero_squares(self):
        got = oracle_eigenvalues(2.0 / 3.0, 1.0, 0.0, 1.0, 5)
        # zeros of J_{2/3} via an independent dense-scan helper route
        ref = dirichlet_mode_eigenvalues(2.0 / 3.0, 1.0, 5)
        assert np.allclose(got.real, ref, rtol=1e-9, atol=1e-9)
        assert np.max(np.abs(got.imag)) < 1e-9

    def test_pure_log_free_pair_is_other_bessel_family(self):
        got = oracle_eigenvalues(2.0 / 3.0, 0.0, 1.0, 1.0, 5)
        # roots must be squares of J_{-2/3} zeros
        vals = jv(-2.0 / 3.0, np.sqrt(got.real))
        assert np.max(np.abs(vals)) < 1e-10

    def test_nu0_friedrichs_matches_classical_j0_zeros(self):
        got = oracle_eigenvalues(0.0, 1.0, 0.0, 1.0, 5)
        ref = jn_zeros(0, 5) ** 2
        assert np.allclose(got.real, ref, rtol=1e-10)

    def test_sixty_roots_match_classical_j0_zeros(self):
        # far more roots than one circle resolves: the disk has to grow
        got = oracle_eigenvalues(0.0, 1.0, 0.0, 1.0, 60)
        assert np.allclose(got, jn_zeros(0, 60) ** 2, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "nu,a,b,window",
        [
            (0.0, 1.0, 1.0, (-20.0, 210.0)),
            (0.0, 0.5, -1.0, (-20.0, 400.0)),
            (2.0 / 3.0, 1.0, 1.0, (0.5, 210.0)),
            (2.0 / 3.0, 1.0, 3.0, (0.5, 210.0)),
        ],
    )
    def test_real_extensions_match_sign_change_scan(self, nu, a, b, window):
        scan = scan_real_roots(nu, a, b, *window)
        got = oracle_eigenvalues(nu, a, b, 1.0, 5)
        assert np.max(np.abs(got.imag)) < 1e-9
        take = min(5, len(scan))
        assert take >= 4
        assert np.allclose(got.real[:take], scan[:take], rtol=1e-8, atol=1e-8)

    def test_nu0_pure_log_has_zero_eigenvalue(self):
        got = oracle_eigenvalues(0.0, 0.0, 1.0, 1.0, 5)
        assert abs(got[0]) < 1e-10  # u = log x vanishes at R = 1
        ref = scan_real_roots(0.0, 0.0, 1.0, 5.0, 250.0)
        assert np.allclose(got.real[1:], ref[:4], rtol=1e-9, atol=1e-8)

    @pytest.mark.parametrize("nu", [0.0, 2.0 / 3.0])
    def test_complex_extension_roots_match_frozen_values(self, nu):
        got = oracle_eigenvalues(nu, 1.0, 1.0j, 1.0, 5)
        ref = FROZEN_COMPLEX_ROOTS[(nu, "1i")]
        assert np.allclose(got, ref, rtol=1e-8, atol=1e-7)

    @pytest.mark.parametrize("nu", [0.0, 2.0 / 3.0])
    def test_complex_roots_satisfy_secular_equation(self, nu):
        # residual check in the analytic secular function, evaluated
        # through scipy's Bessel functions at complex argument
        got = oracle_eigenvalues(nu, 1.0, 1.0j, 1.0, 5)
        w = np.sqrt(got)
        if nu == 0.0:
            w_ent = 0.5 * math.pi * yv(0, w) - (np.log(0.5 * w) + np.euler_gamma) * jv(0, w)
            res = jv(0, w) + 1.0j * w_ent
        else:
            res = sp_gamma(1 + nu) * (0.5 * w) ** (-nu) * jv(nu, w) + 1.0j * sp_gamma(
                1 - nu
            ) * (0.5 * w) ** nu * jv(-nu, w)
        assert np.max(np.abs(res)) < 1e-9

    def test_off_axis_root_of_a_random_closed_link_pair_is_found(self):
        # the fifth root by modulus lies far below the real axis; the
        # sixth, 277.265 - 13.742i, sits near the axis
        got = oracle_eigenvalues(0.0, *SEED4_PAIR, 1.0, 5)
        target = -65.7633 - 170.9458j
        assert np.min(np.abs(got - target)) <= 1e-6 * abs(target)

    @pytest.mark.parametrize(
        "nu,a,b",
        [
            (0.0, 1.0, 1.0j),
            (2.0 / 3.0, 1.0, 1.0j),
            (0.0, *SEED4_PAIR),
            (0.0, 1.0, 0.0),
            (2.0 / 3.0, 0.3 - 0.2j, -0.7 + 1.1j),
        ],
        ids=["frozen-nu0", "frozen-nu2/3", "seed4-closed", "friedrichs-nu0", "complex-nu2/3"],
    )
    def test_roots_agree_with_30_digit_mpmath_refinement(self, nu, a, b):
        # at most 7.3e-15 (the nu = 2/3 lines; 7.2e-16 at nu = 0), against 1.4e-13 when
        # |lambda| <= 144 was summed by a 79-term power series
        mp = pytest.importorskip("mpmath").mp
        got = oracle_eigenvalues(nu, a, b, 1.0, 5)

        def secular(lam):
            w = mp.sqrt(lam)
            if nu == 0.0:
                w_ent = mp.pi / 2 * mp.bessely(0, w) - (mp.log(w / 2) + mp.euler) * mp.besselj(0, w)
                return a * mp.besselj(0, w) + b * w_ent
            return a * mp.gamma(1 + nu) * (w / 2) ** (-nu) * mp.besselj(nu, w) + b * mp.gamma(
                1 - nu
            ) * (w / 2) ** nu * mp.besselj(-nu, w)

        with mp.workdps(30):
            refs = [complex(mp.findroot(secular, mp.mpc(z.real, z.imag))) for z in got]
        for z, ref in zip(got, refs):
            assert abs(z - ref) <= 2e-14 * abs(ref)

    def test_double_root_at_the_first_exceptional_point(self):
        # F = a P + b Q has a double root where P Q' - P' Q = 0, with a/b = -Q / P
        # there.  Newton converges only linearly on it: each copy came 4.1e-8 from
        # the double root, relative, and their mean 8.8e-11
        mp = pytest.importorskip("mpmath").mp
        nu = mp.mpf(2) / 3

        def P(lam):
            return mp.gamma(1 + nu) * (mp.sqrt(lam) / 2) ** -nu * mp.besselj(nu, mp.sqrt(lam))

        def Q(lam):
            return mp.gamma(1 - nu) * (mp.sqrt(lam) / 2) ** nu * mp.besselj(-nu, mp.sqrt(lam))

        def wronskian(lam):
            return P(lam) * mp.diff(Q, lam) - mp.diff(P, lam) * Q(lam)

        with mp.workdps(30):
            star = mp.findroot(wronskian, mp.mpc(12.66073, -9.09472))
            ratio = -Q(star) / P(star)
            assert abs(wronskian(star)) <= mp.mpf(10) ** -27
            star, ratio = complex(star), complex(ratio)
        assert abs(star - (12.66073 - 9.09472j)) <= 1e-5
        assert abs(ratio - (-0.36394 - 7.70743j)) <= 1e-5
        got = oracle_eigenvalues(2.0 / 3.0, ratio, 1.0, 1.0, 5)
        pair = got[np.argsort(np.abs(got - star))[:2]]
        assert np.all(np.abs(pair - star) <= 1e-6 * abs(star))
        assert abs(pair.mean() - star) <= 1e-9 * abs(star)

    def test_rescaling_radius_is_exact_homogeneity(self):
        # u(x) on (0, R) pulls back to y = x/R with coordinates
        # (a R^nu, b R^-nu) and eigenvalues divided by R^2
        nu = 2.0 / 3.0
        R = 2.0
        a, b = 1.0, 1.0
        lam_R = oracle_eigenvalues(nu, a, b, R, 5)
        lam_1 = oracle_eigenvalues(nu, a * R**nu, b * R ** (-nu), 1.0, 5)
        assert np.allclose(lam_R, lam_1 / R**2, rtol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("R", [1e-8, 1e-2, 1.0, 1e5, 1e8])
    def test_roots_keep_their_accuracy_at_every_radius(self, R):
        # the scan ran at R, where Newton's floor max(1, |lambda|) left
        # 1.8e-6 at R = 1e5 and no roots from R = 1e6; the two oracles now
        # agree to 3.1e-16 and the nu = 2/3 roots read 6.3e-15 at every R
        dirichlet = oracle_eigenvalues(0.0, 1.0, 0.0, R, 5)
        exact = dirichlet_mode_eigenvalues(0.0, R, 5)
        assert np.all(np.abs(dirichlet - exact) <= 1e-15 * exact)
        nu = 2.0 / 3.0
        x = np.linspace(0.5, 20.0, 400)  # J_{-nu} changes sign between these points at its zeros
        brackets = np.flatnonzero(jv(-nu, x[:-1]) * jv(-nu, x[1:]) < 0)
        zeros = [brentq(lambda t: jv(-nu, t), x[i], x[i + 1], xtol=1e-15) for i in brackets[:5]]
        exact = (np.array(zeros) / R) ** 2
        assert np.all(np.abs(oracle_eigenvalues(nu, 0.0, 1.0, R, 5) - exact) <= 2e-14 * exact)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("oracle", [oracle_eigenvalues, dirichlet_mode_eigenvalues])
    @pytest.mark.parametrize("R", [1e-160, 1e-170, 5e-324, 1e155, 1e300])
    def test_a_radius_whose_square_leaves_the_doubles_is_rejected(self, oracle, R):
        # 1/R^2 is infinite or 0: the roots would be too (the Bessel zeros returned
        # inf with an overflow warning at 1e-160, denormals at 1e160 and 0 at 1e200)
        args = (0.0, 1.0, 0.0, R) if oracle is oracle_eigenvalues else (0.0, R)
        with pytest.raises(ValueError, match=f"^R must be positive.*got {re.escape(repr(R))}$"):
            oracle(*args, 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("oracle", [oracle_eigenvalues, dirichlet_mode_eigenvalues])
    def test_coefficients_or_roots_beyond_the_doubles_are_rejected(self, oracle):
        # 1/R^2 is a double in both, but 1e300 R^nu is not, nor is j_{0,5}^2 / R^2
        if oracle is oracle_eigenvalues:
            with pytest.raises(ValueError, match="must be finite at the unit radius"):
                oracle_eigenvalues(0.5, 1e300, 1.0, 1e100, 3)
        args = (0.0, 1.0, 0.0, 1e-153) if oracle is oracle_eigenvalues else (0.0, 1e-153)
        with pytest.raises(ValueError, match="the roots at R = 1e-153 leave the doubles"):
            oracle(*args, 5)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            oracle_eigenvalues(1.2, 1.0, 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            oracle_eigenvalues(0.5, 0.0, 0.0, 1.0, 3)
        with pytest.raises(ValueError):
            oracle_eigenvalues(0.5, 1.0, 0.0, 1.0, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (1.0, complex(0.0, math.inf))])
    def test_non_finite_tip_coefficients_are_rejected_before_the_scan(self, a, b, monkeypatch):
        # they spent 100 circles and ended in RootFindingError, inf with a RuntimeWarning
        def refuse(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(spectral, "_disk_roots", refuse)
        with pytest.raises(ValueError, match="must be finite"):
            oracle_eigenvalues(0.5, a, b, 1.0, 3)

    @pytest.mark.parametrize("oracle", [oracle_eigenvalues, dirichlet_mode_eigenvalues])
    @pytest.mark.parametrize("how_many", [2.5, True, "3", None])
    def test_a_count_that_is_not_an_integer_is_rejected(self, oracle, how_many):
        # 2.5 failed in a slice after the whole scan, and True returned one root
        args = (0.5, 1.0, 1.0j, 1.0) if oracle is oracle_eigenvalues else (0.5, 1.0)
        with pytest.raises(ValueError, match="how_many must be an integer"):
            oracle(*args, how_many)
        assert np.array_equal(oracle(*args, 3.0), oracle(*args, 3))


# (argument, call with that argument left open) of every library float argument read as a number
FLOAT_ARGUMENTS = {
    "geometric-R": ("R", lambda v: RadialGrid.geometric(v, 40, 0.9)),
    "geometric-q": ("q", lambda v: RadialGrid.geometric(1.0, 40, v)),
    "oracle-nu": ("nu", lambda v: oracle_eigenvalues(v, 1.0, 1.0j, 1.0, 3)),
    "oracle-R": ("R", lambda v: oracle_eigenvalues(0.5, 1.0, 1.0j, v, 3)),
    "dirichlet-nu": ("nu", lambda v: dirichlet_mode_eigenvalues(v, 1.0, 3)),
    "dirichlet-R": ("R", lambda v: dirichlet_mode_eigenvalues(0.5, v, 3)),
    "kappa-rho": ("rho", lambda v: kappa_matrix(singular_basis(SECTOR), v)),
}

# (argument, call with that argument left open) of every library complex argument read as a number
COMPLEX_ARGUMENTS = {
    "oracle-a": ("a", lambda v: oracle_eigenvalues(0.5, v, 1.0, 1.0, 2)),
    "oracle-b": ("b", lambda v: oracle_eigenvalues(0.5, 1.0, v, 1.0, 2)),
    "resolvent-lambda": (
        "lambda",
        lambda v: resolvent_norm(solve_pencil(make_pencil(np.diag([1.0, 2.0]), np.eye(2))), v),
    ),
}


@pytest.mark.parametrize("value", ["1", None, True, 1j])
@pytest.mark.parametrize("name, call", FLOAT_ARGUMENTS.values(), ids=FLOAT_ARGUMENTS.keys())
def test_a_float_argument_that_is_not_a_number_is_rejected(name, call, value):
    # a string raised TypeError from a comparison, and True read as 1
    with pytest.raises(ValueError, match=f"^{name} must be a number"):
        call(value)


@pytest.mark.parametrize("value", ["1", None, True])
@pytest.mark.parametrize("name, call", COMPLEX_ARGUMENTS.values(), ids=COMPLEX_ARGUMENTS.keys())
def test_a_complex_argument_that_is_not_a_number_is_rejected(name, call, value):
    # a string was parsed as a number, and True read as 1
    with pytest.raises(ValueError, match=f"^{name} must be a number"):
        call(value)


def _scalar_polish(F, z0, step_scale):
    """The per-root Newton loop the batched polish replaced, kept as its reference."""
    out = []
    for start in z0:
        z = complex(start)
        for _ in range(80):
            h = 1e-6 * max(1.0, abs(z))
            f0, fp1, fm1 = F(np.array([z, z + h, z - h]))
            dfdz = (fp1 - fm1) / (2.0 * h)
            if dfdz == 0.0:
                return None
            dz = f0 / dfdz
            z = z - dz
            if abs(z - start) > 50.0 * step_scale:
                return None
            if abs(dz) <= 1e-13 * max(1.0, abs(z)):
                break
        else:
            return None
        out.append(z)
    return np.array(out, dtype=complex)


def _sweep_oracle_configs():
    """(nu, a, b) of the benchmark sweep's eight scans at seed 1: closed (nu 0) and sector (nu 2/3)."""
    seeded = np.random.default_rng(1).standard_normal((2, 2, 2)) / math.sqrt(2.0)
    sector = [(1.0, 0.0), (1.0, 1j)] + [(complex(*p[0]), complex(*p[1])) for p in seeded]
    closed = [(1.0, 0.0), (1.0, 1j), (0.0, 1.0), (1.0, 1.0)]
    return [(0.0, a, b) for a, b in closed] + [(2.0 / 3.0, a, b) for a, b in sector]


def _seeded_oracle_roots():
    """The five smallest oracle roots of 160 seeded (nu, a, b) draws, None where the oracle gives up."""
    rng = np.random.default_rng(28)
    out = []
    for i in range(160):
        nu = (0.0, 0.5, 2.0 / 3.0, 0.9)[i % 4]
        a, b = (complex(*p) for p in rng.standard_normal((2, 2)) / math.sqrt(2.0))
        try:
            out.append(oracle_eigenvalues(nu, a, b, 1.0, 5))
        except RootFindingError:
            out.append(None)
    return out


class TestOracleInternals:
    @pytest.mark.parametrize(
        "nu,a,b,how_many",
        [(nu, a, b, 5) for nu, a, b in _sweep_oracle_configs()] + [(0.0, 1.0, 0.0, 60)],
    )
    def test_batched_polish_is_bit_identical_to_the_per_root_loop(self, nu, a, b, how_many, monkeypatch):
        batched = oracle_eigenvalues(nu, a, b, 1.0, how_many)
        monkeypatch.setattr(spectral, "_newton_polish", _scalar_polish)
        reference = oracle_eigenvalues(nu, a, b, 1.0, how_many)
        assert batched.tobytes() == reference.tobytes()

    def test_the_sample_start_does_not_change_the_roots(self, monkeypatch):
        # the phase rule doubles a circle's samples as its roots ask, so the start only saves doublings
        assert spectral._CONTOUR_SAMPLES < 1024
        got = _seeded_oracle_roots()
        monkeypatch.setattr(spectral, "_CONTOUR_SAMPLES", 1024)
        for z, ref in zip(got, _seeded_oracle_roots()):
            assert (z is None) == (ref is None)
            assert ref is None or np.all(np.abs(z - ref) <= 1e-12 * np.abs(ref))

    @staticmethod
    def _restart_every_circle(monkeypatch):
        """Make every circle start again at _CONTOUR_SAMPLES, not at the count the last one ended with."""
        carried = spectral._disk_roots
        monkeypatch.setattr(spectral, "_disk_roots", lambda *args: carried(*args[:-1], spectral._CONTOUR_SAMPLES))

    def test_each_circle_starts_at_the_count_the_last_one_ended_with(self, monkeypatch):
        counts = []
        parts = spectral._contour_parts
        monkeypatch.setattr(spectral, "_contour_parts", lambda nu, rho, m: counts.append(m) or parts(nu, rho, m))
        carried = oracle_eigenvalues(0.0, 1.0, 0.0, 1.0, 60)
        assert counts == [128, 128, 256, 256, 512, 512, 512, 1024, 1024, 1024, 1024]
        counts.clear()
        self._restart_every_circle(monkeypatch)
        restarted = oracle_eigenvalues(0.0, 1.0, 0.0, 1.0, 60)
        # the outer circles each sampled at 128, 256 and 512 before the 1024 that passed
        assert len(counts) == 25 and counts[-4:] == [128, 256, 512, 1024]
        assert np.all(np.abs(carried - restarted) <= 1e-13 * np.abs(restarted))

    def test_carrying_the_sample_count_does_not_change_the_roots(self, monkeypatch):
        got = _seeded_oracle_roots()
        self._restart_every_circle(monkeypatch)
        for z, ref in zip(got, _seeded_oracle_roots()):
            assert (z is None) == (ref is None)
            assert ref is None or np.all(np.abs(z - ref) <= 1e-13 * np.abs(ref))

    def test_a_start_that_leaves_its_radius_rejects_the_circle(self, monkeypatch):
        def F(lam):
            return lam - 100.0

        assert spectral._newton_polish(F, np.array([99.0 + 0j]), 1.0) == pytest.approx([100.0])
        # the second start's first step lands 100 > 50 step_scale away
        assert spectral._newton_polish(F, np.array([99.0 + 0j, 0j]), 1.0) is None
        rho = (5.5 * math.pi) ** 2  # holds j_{0,1}^2 .. j_{0,5}^2
        m = spectral._CONTOUR_SAMPLES
        assert len(spectral._disk_roots(0.0, 1.0, 0.0, rho, [], m)[0]) == 5
        real = spectral._newton_polish
        # with no room to move, the first Newton step takes some start out of its radius
        monkeypatch.setattr(spectral, "_newton_polish", lambda F, z0, scale: real(F, z0, 0.0))
        assert spectral._disk_roots(0.0, 1.0, 0.0, rho, [], m)[0] is None

    def test_a_rejected_circle_is_retried_halfway_back(self, monkeypatch):
        reference = oracle_eigenvalues(2.0 / 3.0, 1.0, 1j, 1.0, 5)
        polish, disk = spectral._newton_polish, spectral._disk_roots
        radii = []

        def fail_first(*args):
            return None if len(radii) == 1 else polish(*args)

        def record(nu, a, b, rho, *rest):
            radii.append(rho)
            return disk(nu, a, b, rho, *rest)

        monkeypatch.setattr(spectral, "_newton_polish", fail_first)
        monkeypatch.setattr(spectral, "_disk_roots", record)
        got = oracle_eigenvalues(2.0 / 3.0, 1.0, 1j, 1.0, 5)
        # sqrt(rho) = 6 pi is rejected, 3 pi passes with too few roots, and 11 pi holds the rest
        assert radii == [(6.0 * math.pi) ** 2, (3.0 * math.pi) ** 2, (11.0 * math.pi) ** 2]
        assert np.max(np.abs(got - reference) / np.abs(reference)) <= 1e-14

    @pytest.mark.parametrize("nu", [0.0, 2.0 / 3.0])
    @pytest.mark.parametrize("rho", [100.0, 1500.0], ids=["inner", "outer"])
    def test_reflected_parts_match_a_direct_evaluation(self, nu, rho):
        m = spectral._CONTOUR_SAMPLES
        theta, P, Q = spectral._contour_parts(nu, rho, m)
        lower = slice(m // 2 + 1, m)
        P_direct, Q_direct = spectral._secular_parts(nu, rho * np.exp(1j * theta[lower]))
        a, b = 1.0, 1j
        pairs = ((P[lower], P_direct), (Q[lower], Q_direct), (a * P[lower] + b * Q[lower], a * P_direct + b * Q_direct))
        for got, want in pairs:  # relative to the largest value on the circle, where |P| and |Q| range widely
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [0.0, 2.0 / 3.0])
    def test_parts_at_and_beside_the_removable_point(self, nu):
        # the closed form's log(w/2) is -inf at lambda = 0, where P and Q are set to their limits
        P, Q = spectral._secular_parts(nu, np.array([0.0, 1e-300, -1e-300]))
        assert np.all(np.isfinite(P)) and np.all(np.isfinite(Q))
        assert (P[0], Q[0]) == (1.0, 0.0 if nu == 0.0 else 1.0)
        assert np.allclose(P[1:], P[0], rtol=0.0, atol=1e-12)
        assert np.allclose(Q[1:], Q[0], rtol=0.0, atol=1e-12)


class TestDirichletModeEigenvalues:
    def test_integer_order_matches_scipy_zero_table(self):
        # 2.5e-16 and 3.5e-16, with jn_zeros itself within 1.9e-16 of mpmath; the zeros
        # were returned rounded to a 1e-12 grid, which read 1.9e-13 and 6.8e-14
        got = dirichlet_mode_eigenvalues(0.0, 1.0, 8)
        ref = jn_zeros(0, 8) ** 2
        assert np.all(np.abs(got - ref) <= 1e-15 * ref)
        got3 = dirichlet_mode_eigenvalues(3.0, 2.0, 6)
        ref3 = (jn_zeros(3, 6) / 2.0) ** 2
        assert np.all(np.abs(got3 - ref3) <= 1e-15 * ref3)

    def test_large_order_zero_count(self):
        # McMahon window regression: high modes must still deliver
        got = dirichlet_mode_eigenvalues(47.0 * 2.0 / 3.0, 1.0, 40)
        assert len(got) == 40
        assert np.all(np.diff(got) > 0)
        assert np.max(np.abs(jv(47.0 * 2.0 / 3.0, np.sqrt(got)))) < 1e-8

    def test_huge_order_scans_a_bounded_window(self):
        # nu = pi / alpha for a 1e-10 sector: the scan starts at nu and ends
        # at the Airy-zero bound, so it grows like nu^(1/3), not like nu
        nu = 3.2e10
        tracemalloc.start()
        try:
            got = np.sqrt(dirichlet_mode_eigenvalues(nu, 1.0, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.all(np.diff(got) > 0)
        # DLMF 10.21.40: j_{nu,1} = nu + 1.8557571 nu^(1/3) + 1.033150 nu^(-1/3) + O(nu^-1)
        assert got[0] - nu == pytest.approx(1.8557571 * nu ** (1 / 3) + 1.033150 * nu ** (-1 / 3), abs=1e-2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu", [3e15, 3e16, 3e20])
    def test_orders_beyond_the_bessel_limit_are_rejected(self, nu):
        # scipy's J_nu(x) is wrong from x = 2^51: the scan found no zero at 3e15
        # and divided by zero from 3e16, so the order is refused before any scan
        with pytest.raises(ValueError, match="above 2\\^50"):
            dirichlet_mode_eigenvalues(nu, 1.0, 5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "nu, R, name",
        [
            (1.0, -1.0, "R"),
            (1.0, 0.0, "R"),
            (1.0, math.inf, "R"),
            (1.0, math.nan, "R"),
            (math.nan, 1.0, "nu"),
            (-0.5, 1.0, "nu"),
        ],
    )
    def test_arguments_outside_the_derivation_are_rejected(self, nu, R, name):
        # the zeros scale as j_{nu,k} / R for R > 0 only, and no scan runs at a nan order
        with pytest.raises(ValueError, match=f"^{name} must be"):
            dirichlet_mode_eigenvalues(nu, R, 5)

    @pytest.mark.filterwarnings("error")
    def test_order_at_the_bessel_limit_still_scans(self):
        got = dirichlet_mode_eigenvalues(spectral.BESSEL_ORDER_LIMIT, 1.0, 5)
        assert len(got) == 5
        assert np.all(np.sqrt(got) > spectral.BESSEL_ORDER_LIMIT)


class TestFits:
    def test_weyl_trivial_linear_growth(self):
        assert weyl_fit(np.arange(1.0, 101.0)) == pytest.approx(1.0, abs=1e-12)

    def test_weyl_single_mode_is_one_dimensional(self):
        lam = dirichlet_mode_eigenvalues(2.0 / 3.0, 1.0, 60)
        assert weyl_fit(lam) == pytest.approx(2.0, abs=0.1)

    def test_weyl_mode_sum_is_two_dimensional(self):
        all_lam = []
        k = 1
        while True:
            lams = dirichlet_mode_eigenvalues(2.0 * k / 3.0, 1.0, 40)
            lams = lams[lams < 3000.0]
            if len(lams) == 0:
                break
            all_lam.extend(lams)
            k += 1
        assert weyl_fit(np.sort(all_lam)) == pytest.approx(1.0, abs=0.1)

    def test_schatten_exact_power_law(self):
        j = np.arange(1.0, 201.0)
        q, p = schatten_fit(1.0 / j, (10, 150))
        assert q == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_schatten_no_decay_implies_infinite_p(self):
        q, p = schatten_fit(np.ones(50), (5, 40))
        assert q == pytest.approx(0.0, abs=1e-12)
        assert p == math.inf

    def test_schatten_domain_embedding_from_weyl_growth(self):
        # graph-norm embedding singular values fall like 1/lambda_j;
        # with the mode-summed Weyl growth that is j^{-1}, so p ~ n/m
        all_lam = []
        k = 1
        while True:
            lams = dirichlet_mode_eigenvalues(2.0 * k / 3.0, 1.0, 40)
            lams = lams[lams < 3000.0]
            if len(lams) == 0:
                break
            all_lam.extend(lams)
            k += 1
        lam = np.sort(all_lam)
        sv = 1.0 / np.sqrt(1.0 + lam**2)
        q, p = schatten_fit(sv, (30, 300))
        assert p == pytest.approx(1.0, abs=0.15)

    def test_schatten_preconditions(self):
        with pytest.raises(ValueError):
            schatten_fit(np.array([1.0, 2.0, 0.5]), (1, 3))  # not descending
        with pytest.raises(ValueError):
            schatten_fit(np.array([1.0, 0.5, -0.1]), (1, 3))
        with pytest.raises(ValueError):
            schatten_fit(1.0 / np.arange(1.0, 10.0), (5, 20))
        with pytest.raises(ValueError, match="5 to 9 must be positive"):
            schatten_fit(np.append(1.0 / np.arange(1.0, 9.0), 0.0), (5, 9))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [[3.0, 2.0, math.nan, 1.0], [math.inf, 2.0, 1.0, 0.5]])
    def test_schatten_rejects_a_non_finite_window_value(self, values):
        # a nan fit would give implied p = inf, which embed would read as a threshold miss
        with pytest.raises(ValueError, match="1 to 4 must be positive and finite"):
            schatten_fit(values, (1, 4))

    @pytest.mark.parametrize("j_range", [(5.7, 20.2), (5, math.nan), (True, 20), ("5", 20)])
    def test_schatten_window_bounds_are_integers(self, j_range):
        # (5.7, 20.2) was fitted as (5, 20), and a nan failed in int()
        s = 1.0 / np.arange(1.0, 31.0)
        with pytest.raises(ValueError, match="j_range must be an integer"):
            schatten_fit(s, j_range)
        assert schatten_fit(s, (5.0, 20.0)) == schatten_fit(s, (5, 20))

    def test_schatten_reads_only_its_window(self):
        # a value clipped to 0 past the window (a rounded-negative eigenvalue) is not fitted
        j = np.arange(1.0, 31.0)
        assert schatten_fit(np.append(1.0 / j, 0.0), (5, 20)) == schatten_fit(1.0 / j, (5, 20))


class TestCompletenessCertificate:
    @staticmethod
    def minimal(theta):
        return RayVerdict(ray=Ray(theta), verdict="Minimal", slope=-1.0, sup_bound=2.0)

    def test_two_opposite_rays_complete(self):
        cert = completeness_certificate(
            2, 2, [self.minimal(0.5 * math.pi), self.minimal(1.5 * math.pi)]
        )
        assert cert.complete is True
        assert cert.schatten_p == pytest.approx(1.0)
        assert cert.max_gap == pytest.approx(math.pi, rel=1e-12)

    def test_single_ray_gap_wraps_to_full_circle(self):
        cert = completeness_certificate(2, 2, [self.minimal(0.5 * math.pi)])
        assert cert.max_gap == pytest.approx(2.0 * math.pi)
        assert cert.complete is False

    def test_one_failing_ray_blocks_certificate(self):
        bad = RayVerdict(
            ray=Ray(1.5 * math.pi),
            verdict="Fails",
            witness={"lambda": [0.0, 1.0]},
        )
        cert = completeness_certificate(2, 2, [self.minimal(0.5 * math.pi), bad])
        assert cert.complete is False

    def test_uncertified_ray_blocks_certificate(self):
        cert = completeness_certificate(
            2,
            2,
            [
                self.minimal(0.5 * math.pi),
                RayVerdict(ray=Ray(math.pi), verdict="Uncertified"),
                self.minimal(1.5 * math.pi),
            ],
        )
        assert cert.complete is False

    def test_wide_gap_blocks_even_if_all_minimal(self):
        # gap arithmetic invariant: never complete with a gap over pi
        cert = completeness_certificate(
            2, 2, [self.minimal(0.5 * math.pi), self.minimal(0.5 * math.pi + 2.9)]
        )
        assert cert.max_gap > math.pi + 1e-12
        assert cert.complete is False

    def test_three_rays_relaxed_gap(self):
        # n=3, m=2: threshold 2pi/3
        thetas = [0.5, 0.5 + 2.0 * math.pi / 3.0, 0.5 + 4.0 * math.pi / 3.0]
        cert = completeness_certificate(3, 2, [self.minimal(t) for t in thetas])
        assert cert.schatten_p == pytest.approx(1.5)
        assert cert.complete is True

    def test_needs_at_least_one_verdict(self):
        with pytest.raises(ValueError):
            completeness_certificate(2, 2, [])

    @pytest.mark.parametrize("n, m", [(2.5, 2), (2, 1.5), (True, 2), ("2", 2), (2, None)])
    def test_non_integer_dimensions_rejected(self, n, m):
        # 2.5 would be recorded as n = 2 beside schatten_p = 1.25
        with pytest.raises(ValueError, match="integer"):
            completeness_certificate(n, m, [self.minimal(0.5 * math.pi)])

    def test_integral_float_dimensions_are_integers(self):
        cert = completeness_certificate(2.0, 2.0, [self.minimal(0.5 * math.pi)])
        assert (cert.n, cert.m, cert.schatten_p) == (2, 2, 1.0)
        assert isinstance(cert.n, int) and isinstance(cert.m, int)

    def test_flag_follows_its_rule(self):
        # complete is read from the rays and the gap, never stored beside them
        rays = (self.minimal(0.5 * math.pi), self.minimal(1.5 * math.pi))
        cert = CompletenessCertificate(n=2, m=2, schatten_p=1.0, rays=rays, max_gap=math.pi)
        assert cert.complete is True
        assert cert.to_json_dict()["complete"] is True
        wide = CompletenessCertificate(n=2, m=2, schatten_p=1.0, rays=rays, max_gap=math.pi + 1e-9)
        assert wide.complete is False

    def test_inconsistent_flag_rejected(self):
        # a flag passed beside the rays and the gap is refused, right or wrong
        rays = (self.minimal(0.5 * math.pi), self.minimal(1.5 * math.pi))
        for flag in (False, True):
            with pytest.raises(TypeError):
                CompletenessCertificate(
                    n=2, m=2, schatten_p=1.0, rays=rays, max_gap=math.pi, complete=flag
                )

