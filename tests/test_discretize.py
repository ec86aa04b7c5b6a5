"""Weighted Galerkin assembly: grids, pencils, Gram matrices, persistence.

The mass blocks have closed forms at the tip, so they are cross-checked
here against adaptive quadrature of the defining integrals.  Stiffness
symmetry structure (Hermitian for real extension data, a definite skew
part for genuinely complex data) is asserted at the matrix level.
"""

import json
import math
import re
import struct

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from conespectra.discretize import (
    ArrowTridiagonal,
    DiscreteOperatorPencil,
    RadialGrid,
    TIP_FLOOR_RATIO,
    _log_edges,
    assemble_embedding_grams,
    assemble_mode_pencil,
    cutoff,
    export_pencil,
    load_pencil,
)
from conespectra.model import ClosedLink, ConeModelOperator, ExtensionDomain, SectorLink
from conespectra.spectral import embedding_singular_values

from _reference import arrow_from_dense

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


def uniform_grid(R: float, N_h: int) -> RadialGrid:
    """N_h equal cells on (0, R]; near the tip they are wide relative to their left node."""
    return RadialGrid(nodes=R * np.arange(1, N_h + 1, dtype=float) / N_h)


class TestRadialGrid:
    def test_geometric_keeps_mild_ratio(self):
        g = RadialGrid.geometric(1.0, 20, 0.9)
        assert np.allclose(g.nodes[:-1] / g.nodes[1:], 0.9, rtol=1e-12, atol=0)
        assert g.nodes[0] == pytest.approx(0.9**19, rel=1e-12)
        assert g.nodes[-1] == 1.0
        assert g.count == 20

    def test_geometric_floors_aggressive_grading(self):
        # q = 0.9 at 400 nodes would put node_1 at ~5.7e-19; the factory
        # raises the effective ratio so node_1 sits at the tip floor
        g = RadialGrid.geometric(1.0, 400, 0.9)
        assert g.nodes[0] == pytest.approx(TIP_FLOOR_RATIO * 1.0, rel=1e-10)
        r = g.nodes[:-1] / g.nodes[1:]
        assert np.allclose(r, TIP_FLOOR_RATIO ** (1.0 / 399.0), rtol=1e-12, atol=0)

    def test_geometric_ratio_invariant_holds(self):
        g = RadialGrid.geometric(2.0, 100, 0.9)
        r = g.nodes[:-1] / g.nodes[1:]
        assert np.allclose(r, r[0], rtol=1e-12, atol=0)
        assert g.outer_radius == 2.0

    @pytest.mark.parametrize("n_h", [16, 100, 400, 3200])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95])
    def test_geometric_nodes_follow_the_floored_ratio(self, n_h, q):
        q_eff = max(q, TIP_FLOOR_RATIO ** (1.0 / (n_h - 1)))
        expected = 0.7 * q_eff ** np.arange(n_h - 1, -1, -1, dtype=float)
        g = RadialGrid.geometric(0.7, n_h, q)
        assert g.nodes.tobytes() == expected.tobytes()
        # an integral float is the same size
        assert RadialGrid.geometric(0.7, float(n_h), q).nodes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_h", [20.5, True, "20", None])
    def test_geometric_rejects_a_non_integral_size(self, n_h):
        # 20.5 would build 21 nodes ending at 1.054 R, not at R
        with pytest.raises(ValueError, match="N_h must be an integer"):
            RadialGrid.geometric(1.0, n_h, 0.9)

    def test_nodes_strictly_increasing_and_positive(self):
        for g in (RadialGrid.geometric(1.0, 50, 0.85), uniform_grid(3.0, 40)):
            assert g.nodes[0] > 0
            assert np.all(np.diff(g.nodes) > 0)

    def test_uniform_spacing(self):
        # any increasing positive nodes make a grid; equal cells stay equal
        g = uniform_grid(2.0, 16)
        assert g.count == 16
        assert g.outer_radius == 2.0
        assert np.allclose(np.diff(g.nodes), 2.0 / 16, rtol=1e-13, atol=0)
        assert not g.nodes.flags.writeable

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            RadialGrid.geometric(1.0, 10, 1.1)
        with pytest.raises(ValueError):
            RadialGrid.geometric(-1.0, 10, 0.9)
        with pytest.raises(ValueError, match="at least 2 nodes"):
            RadialGrid(nodes=[1.0])
        with pytest.raises(ValueError, match="increasing"):
            RadialGrid(nodes=[0.5, 0.5, 1.0])


class TestCutoff:
    def test_plateau_and_support(self):
        x = np.array([0.01, 0.25, 0.3, 0.49, 0.5, 0.8, 1.0])
        w, wp, wpp = cutoff(x, 1.0)
        assert w[0] == 1.0 and w[1] == 1.0
        assert w[4] == 0.0 and w[5] == 0.0 and w[6] == 0.0
        assert 0.0 < w[2] < 1.0 and 0.0 < w[3] < 1.0
        # derivatives vanish on both plateaus
        assert wp[0] == wp[1] == wp[4] == wp[5] == 0.0
        assert wpp[0] == wpp[1] == wpp[4] == wpp[5] == 0.0

    def test_derivatives_match_finite_differences(self):
        xs = np.linspace(0.26, 0.49, 40)
        h = 1e-6
        w, wp, wpp = cutoff(xs, 1.0)
        wp_fd = (cutoff(xs + h, 1.0)[0] - cutoff(xs - h, 1.0)[0]) / (2 * h)
        wpp_fd = (cutoff(xs + h, 1.0)[1] - cutoff(xs - h, 1.0)[1]) / (2 * h)
        assert np.allclose(wp, wp_fd, atol=1e-7)
        assert np.allclose(wpp, wpp_fd, atol=1e-5)

    def test_scales_with_outer_radius(self):
        w2, _, _ = cutoff(np.array([0.49, 0.51, 0.99, 1.01]), 2.0)
        assert w2[0] == 1.0 and w2[1] < 1.0
        assert w2[2] > 0.0 and w2[3] == 0.0


def quad_complex(f, a, b, **kw):
    re = quad(lambda x: f(x).real, a, b, **kw)[0]
    im = quad(lambda x: f(x).imag, a, b, **kw)[0]
    return re + 1j * im


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.geometric(1.0, 48, 0.9)


class TestPencilAssembly:
    def test_shapes_and_labels(self, grid):
        pen = assemble_mode_pencil(CLOSED, 0, grid, ExtensionDomain.line([1.0, 1.0]))
        n_hats = grid.count - 2
        assert pen.size == n_hats + 1
        assert pen.basis_labels[0] == "hat_2"
        assert pen.basis_labels[n_hats - 1] == f"hat_{grid.count - 1}"
        assert pen.basis_labels[-1].startswith("enrichment")
        assert pen.K.shape == pen.M.shape == (pen.size, pen.size)

    def test_friedrichs_pencil_has_no_enrichment(self, grid):
        pen = assemble_mode_pencil(CLOSED, 0, grid, None)
        assert pen.size == grid.count - 2
        assert all(label.startswith("hat_") for label in pen.basis_labels)
        assert pen.enrichment_coeffs is None

    def test_matrices_are_frozen(self, grid):
        pen = assemble_mode_pencil(CLOSED, 0, grid, ExtensionDomain.line([1.0, 0.0]))
        with pytest.raises(ValueError):
            pen.K[0, 0] = 1.0
        with pytest.raises(ValueError):
            pen.M[0, 0] = 1.0

    def test_mass_is_hermitian_positive_definite(self, grid):
        for model, k, ab in ((CLOSED, 0, (1.0, 1.0)), (SECTOR, 1, (1.0, 1.0j))):
            pen = assemble_mode_pencil(model, k, grid, ExtensionDomain.line(list(ab)))
            assert np.max(np.abs(pen.M - pen.M.conj().T)) <= 1e-13 * np.max(np.abs(pen.M))
            w = np.linalg.eigvalsh(pen.M)
            assert w.min() > 0.0

    @pytest.mark.parametrize("model,k,ab", [
        (CLOSED, 0, (1.0, 0.0)),
        (CLOSED, 0, (1.0, 1.0)),
        (SECTOR, 1, (0.0, 1.0)),
        (SECTOR, 1, (1.0, -2.0)),
    ])
    def test_stiffness_hermitian_for_real_extension(self, grid, model, k, ab):
        pen = assemble_mode_pencil(model, k, grid, ExtensionDomain.line(list(ab)))
        scale = np.max(np.abs(pen.K))
        assert np.max(np.abs(pen.K - pen.K.conj().T)) <= 1e-10 * scale

    @pytest.mark.parametrize("model,k", [(CLOSED, 0), (SECTOR, 1)])
    def test_stiffness_skew_part_for_complex_extension(self, grid, model, k):
        pen = assemble_mode_pencil(model, k, grid, ExtensionDomain.line([1.0, 1.0j]))
        scale = np.max(np.abs(pen.K))
        skew = np.max(np.abs(pen.K - pen.K.conj().T))
        assert skew >= 1e-3 * scale

    @pytest.mark.parametrize("model,k,ab,nu", [
        (CLOSED, 0, (1.0, 1.0), 0.0),
        (CLOSED, 0, (2.0, -1.0 + 0.5j), 0.0),
        (SECTOR, 1, (1.0, 1.0), 2.0 / 3.0),
        (SECTOR, 1, (1.0, 1.0j), 2.0 / 3.0),
    ])
    def test_enrichment_mass_matches_quadrature(self, grid, model, k, ab, nu):
        # M[E,E] = integral of |omega s0|^2 x dx, tip part in closed form, for
        # the pair the pencil enriches with: the line's unit representative
        pen = assemble_mode_pencil(model, k, grid, ExtensionDomain.line(list(ab)))
        a, b = pen.enrichment_coeffs
        if nu == 0.0:
            s0 = lambda x: a + b * np.log(x)
        else:
            s0 = lambda x: a * x**nu + b * x ** (-nu)

        def integrand(x):
            w = cutoff(np.array([x]), 1.0)[0][0]
            return abs(w * s0(x)) ** 2 * x

        kw = dict(limit=400, epsabs=1e-14, epsrel=1e-13)
        ref = quad(integrand, 0.0, 0.25, points=[grid.nodes[0]], **kw)[0]
        ref += quad(integrand, 0.25, 0.5, **kw)[0]
        assert pen.M[-1, -1].real == pytest.approx(ref, rel=1e-10)
        assert abs(pen.M[-1, -1].imag) <= 1e-13 * abs(ref)

    def test_hat_enrichment_mass_matches_quadrature(self, grid):
        # spot-check one coupling row entry against direct quadrature
        pen = assemble_mode_pencil(CLOSED, 0, grid, ExtensionDomain.line([1.0, 1.0]))
        a, b = pen.enrichment_coeffs
        # row i is the hat peaked at nodes[i+1] with support [nodes[i], nodes[i+2]]
        i = 5
        xl, xm, xr = grid.nodes[i], grid.nodes[i + 1], grid.nodes[i + 2]

        def hat(x):
            if xl <= x <= xm:
                return (x - xl) / (xm - xl)
            if xm < x <= xr:
                return (xr - x) / (xr - xm)
            return 0.0

        def integrand(x):
            w = cutoff(np.array([x]), 1.0)[0][0]
            return hat(x) * w * (a + b * math.log(x)) * x

        ref = quad_complex(integrand, xl, xr, points=[xm], limit=200)
        assert pen.M[i, -1] == pytest.approx(ref, rel=1e-9)

    def test_coupling_row_is_conjugate_column(self, grid):
        pen = assemble_mode_pencil(SECTOR, 1, grid, ExtensionDomain.line([1.0, 1.0j]))
        assert np.array_equal(pen.K[-1, :-1], pen.K[:-1, -1].conj())

    def test_preconditions(self, grid):
        for gamma in (0.0, -1.0 + 1e-13):  # the formulas hold at weight_gamma = -1 exactly
            bad_gamma = ConeModelOperator(
                order_m=2, dim_n=2, weight_gamma=gamma, geometry=ClosedLink(), outer_radius_R=1.0
            )
            with pytest.raises(ValueError, match="weight_gamma"):
                assemble_mode_pencil(bad_gamma, 0, grid, None)
        with pytest.raises(ValueError, match="coarse"):
            assemble_mode_pencil(CLOSED, 0, RadialGrid.geometric(1.0, 12, 0.8), None)
        with pytest.raises(ValueError, match="outer"):
            assemble_mode_pencil(CLOSED, 0, RadialGrid.geometric(2.0, 48, 0.9), None)
        with pytest.raises(ValueError, match="node_1"):
            assemble_mode_pencil(
                CLOSED, 0, RadialGrid.geometric(1.0, 16, 0.99), ExtensionDomain.line([1.0, 0.0])
            )
        narrow = ConeModelOperator(
            order_m=2, dim_n=2, weight_gamma=-1.0, geometry=SectorLink(alpha=1.0), outer_radius_R=1.0
        )
        with pytest.raises(ValueError):
            assemble_mode_pencil(narrow, 1, grid, ExtensionDomain.line([1.0, 1.0]))


class TestArrowTridiagonal:
    def test_minimal_pencil_has_no_border(self, grid):
        minimal = assemble_mode_pencil(CLOSED, 0, grid, None)
        assert len(minimal.stiffness.corner) == 0 and minimal.K.shape == (minimal.size, minimal.size)

    def test_product_matches_the_dense_view(self, grid):
        pen = assemble_mode_pencil(CLOSED, 0, grid, ExtensionDomain.line([0.5, 2.0 - 1.0j]))
        rng = np.random.default_rng(3)
        V = rng.normal(size=(pen.size, 5)) + 1j * rng.normal(size=(pen.size, 5))
        for part, A in ((pen.stiffness, pen.K), (pen.mass, pen.M)):
            scale = np.linalg.norm(A) * np.linalg.norm(V)
            assert np.linalg.norm(part.dot(V) - A @ V) <= 1e-15 * scale
            assert np.linalg.norm(part.dot(V[:, 0]) - A @ V[:, 0]) <= 1e-15 * scale

    def test_product_rejects_a_first_dimension_other_than_n(self):
        # a (2n,) vector was read as an (n, 2) block and came back as a (2n,) product
        pen = assemble_mode_pencil(SECTOR, 1, RadialGrid.geometric(1.0, 60, 0.9), ExtensionDomain.line([1.0, 1.0j]))
        n = pen.size
        for X in (np.ones(2 * n), np.ones(n - 1), np.ones((2 * n, 3)), np.ones((n, 2, 2)), np.ones(())):
            with pytest.raises(ValueError, match=f"n = {n}"):
                pen.mass.dot(X)

    def test_rejects_what_is_not_an_arrow(self):
        with pytest.raises(ValueError):
            ArrowTridiagonal(np.ones(3), np.ones(3), np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError, match="real"):
            ArrowTridiagonal(np.ones(3) + 1j, np.ones(2), np.zeros((0, 3)), np.zeros(0))

    def test_pencil_needs_a_hermitian_mass(self, grid):
        pen = assemble_mode_pencil(SECTOR, 1, grid, ExtensionDomain.line([1.0, 1.0j]))
        M = pen.mass
        with pytest.raises(ValueError, match="Hermitian"):
            DiscreteOperatorPencil(
                stiffness=pen.stiffness,
                mass=ArrowTridiagonal(M.diag, M.off, M.border, M.corner + 1e-3j),
                basis_labels=pen.basis_labels,
                nu=pen.nu,
                outer_radius_R=pen.outer_radius_R,
                enrichment_coeffs=pen.enrichment_coeffs,
            )


# seeded closed-link pair whose fifth root sits far off the real axis
SEED4_PAIR = (-1.1606431576220568 - 0.0036792633802781066j, -0.4408554390768262 + 0.10509835798959383j)
GAUSS8 = np.polynomial.legendre.leggauss(8)


def gauss_on(a, b):
    xi, wi = GAUSS8
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * xi, half * wi


def gauss_geometric(a, b, n_sub):
    edges = a * (b / a) ** (np.arange(n_sub + 1) / n_sub)
    edges[-1] = b  # the library's rule ends its last subcell on the cell's edge
    pts, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        p, w = gauss_on(lo, hi)
        pts.append(p)
        wts.append(w)
    return np.concatenate(pts), np.concatenate(wts)


def enrichment_s0(x, nu, a, b):
    if nu == 0.0:
        return a + b * np.log(x), b / x
    return a * x**nu + b * x ** (-nu), a * nu * x ** (nu - 1.0) - b * nu * x ** (-nu - 1.0)


def tip_mass(c, nu, a, b):
    """The enrichment's mass on (0, c], where omega = 1, in closed form."""
    if nu == 0.0:
        lc = math.log(c)
        return (
            abs(a) ** 2 * c**2 / 2.0
            + 2.0 * (a * np.conj(b)).real * (c**2 / 2.0) * (lc - 0.5)
            + abs(b) ** 2 * (c**2 / 2.0) * (lc**2 - lc + 0.5)
        )
    return (
        abs(a) ** 2 * c ** (2.0 * nu + 2.0) / (2.0 * nu + 2.0)
        + 2.0 * (a * np.conj(b)).real * c**2 / 2.0
        + abs(b) ** 2 * c ** (2.0 - 2.0 * nu) / (2.0 - 2.0 * nu)
    )


def loop_assembly(nodes, nu, R, ab):
    """The cell-by-cell reference loop: K and M of the mode pencil, one cell at a time."""
    n_nodes = len(nodes)
    n_core = n_nodes - 2
    n = n_core + (ab is not None)
    K = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)
    for ci in range(n_nodes - 1):
        x0, x1 = nodes[ci], nodes[ci + 1]
        h = x1 - x0
        n_sub = 8 if (nu > 0.0 and h / x0 > 0.3) else 1
        pts, wts = gauss_on(x0, x1) if n_sub == 1 else gauss_geometric(x0, x1, n_sub)
        local = []
        if 1 <= ci <= n_nodes - 2:
            local.append((ci - 1, (x1 - pts) / h, -1.0 / h))
        if ci + 1 <= n_nodes - 2:
            local.append((ci, (pts - x0) / h, 1.0 / h))
        for i, vi, di in local:
            for j, vj, dj in local:
                if j < i:
                    continue
                stiff = np.sum(wts * (di * dj * pts + (nu**2) * vi * vj / pts))
                mass = np.sum(wts * (vi * vj * pts))
                K[i, j] += stiff
                M[i, j] += mass
                if i != j:
                    K[j, i] += stiff
                    M[j, i] += mass
    if ab is None:
        return K, M
    a, b = ab
    e, quarter, half = n_core, R / 4.0, R / 2.0
    for ci in range(n_nodes - 1):
        x0, x1 = nodes[ci], nodes[ci + 1]
        if x0 >= half:
            break
        h = x1 - x0
        local = []
        if 1 <= ci <= n_nodes - 2:
            local.append((ci - 1, lambda pts: (x1 - pts) / h, -1.0 / h))
        if ci + 1 <= n_nodes - 2:
            local.append((ci, lambda pts: (pts - x0) / h, 1.0 / h))
        # the cell's pieces below and above the cutoff's joint at R/4, each summed on its own
        kie, mie, mee = [0.0] * len(local), [0.0] * len(local), 0.0
        for lo, hi in ((x0, min(x1, quarter)), (max(x0, quarter), min(x1, half))):
            if lo >= hi:
                continue
            pts, wts = gauss_on(lo, hi) if (hi - lo) / lo <= 0.3 else gauss_geometric(lo, hi, 8)
            w, w1, _ = cutoff(pts, R)
            s0, s0p = enrichment_s0(pts, nu, a, b)
            s_val = w * s0
            s_der = w1 * s0 + w * s0p
            for slot, (_, shape, di) in enumerate(local):
                vi = shape(pts)
                kie[slot] += np.sum(wts * (s_der * di * pts + (nu**2) * s_val * vi / pts))
                mie[slot] += np.sum(wts * (s_val * vi * pts))
            mee += np.sum(wts * (np.abs(s_val) ** 2 * pts))
        for (i, _, _), k_cell, m_cell in zip(local, kie, mie):
            K[i, e] += k_cell
            K[e, i] += np.conj(k_cell)
            M[i, e] += m_cell
            M[e, i] += np.conj(m_cell)
        M[e, e] += mee
    M[e, e] += tip_mass(nodes[0], nu, a, b)
    pts, wts = gauss_geometric(R / 4.0, half, 4)
    w, w1, w2 = cutoff(pts, R)
    s0, s0p = enrichment_s0(pts, nu, a, b)
    commutator = -w2 * s0 - 2.0 * w1 * s0p - w1 * s0 / pts
    K[e, e] = np.sum(wts * (commutator * np.conj(w * s0) * pts))
    return K, M


class TestBatchedAssemblyIsBitIdentical:
    """The batched assembly against the cell-by-cell loop: the same bits in K and M."""

    # uniform grids have cells wider than 0.3 x0 near the tip and narrow ones
    # beyond: on the sector one assembly runs the 8-subcell and the plain hat path
    @pytest.mark.parametrize("N_h", [16, 60, 200])
    @pytest.mark.parametrize("grading", ["geometric", "uniform"])
    @pytest.mark.parametrize("model,k", [(CLOSED, 0), (SECTOR, 1)], ids=["closed", "sector"])
    @pytest.mark.parametrize("ab", [None, (1.0, 1.0j), SEED4_PAIR], ids=["minimal", "1-i", "seed4"])
    def test_matches_the_cell_loop(self, model, k, grading, N_h, ab):
        if grading == "geometric":
            grid = RadialGrid.geometric(1.0, N_h, 0.9)
        else:
            grid = uniform_grid(1.0, N_h)
        domain = None if ab is None else ExtensionDomain.line(list(ab))
        pen = assemble_mode_pencil(model, k, grid, domain)
        K, M = loop_assembly(grid.nodes, pen.nu, 1.0, pen.enrichment_coeffs)
        assert np.array_equal(pen.K, K) and np.array_equal(pen.M, M)
        # signed zeros too: pencil.bin stores the bits
        assert pen.K.tobytes() == K.tobytes() and pen.M.tobytes() == M.tobytes()


def reference_border(nodes, nu, R, ab, n_sub=64):
    """Stiffness and mass borders and the enrichment mass with n_sub log-spaced subcells per piece.

    Each cell below R/2 is cut at R/4, where the cutoff's second
    derivative jumps; geomspace puts the subcell edges exactly on the
    piece's ends.
    """
    a, b = ab
    n_core = len(nodes) - 2
    k_border, m_border = np.zeros(n_core, dtype=complex), np.zeros(n_core, dtype=complex)
    mee = 0.0
    for ci in range(len(nodes) - 1):
        x0, x1 = nodes[ci], nodes[ci + 1]
        if x0 >= R / 2.0:
            break
        for lo, hi in ((x0, min(x1, R / 4.0)), (max(x0, R / 4.0), min(x1, R / 2.0))):
            if lo >= hi:
                continue
            edges = np.geomspace(lo, hi, n_sub + 1)
            pts, wts = (np.concatenate(v) for v in zip(*map(gauss_on, edges[:-1], edges[1:])))
            w, w1, _ = cutoff(pts, R)
            s0, s0p = enrichment_s0(pts, nu, a, b)
            s_val, s_der = w * s0, w1 * s0 + w * s0p
            h = x1 - x0
            for i, vi, di in ((ci - 1, (x1 - pts) / h, -1.0 / h), (ci, (pts - x0) / h, 1.0 / h)):
                if 0 <= i < n_core:
                    k_border[i] += np.sum(wts * (s_der * di * pts + (nu**2) * s_val * vi / pts))
                    m_border[i] += np.sum(wts * (s_val * vi * pts))
            mee += np.sum(wts * (np.abs(s_val) ** 2 * pts))
    return k_border, m_border, mee + tip_mass(nodes[0], nu, a, b)


class TestBorderQuadrature:
    """The enrichment border and mass against a 64-subcell rule cut at the cutoff's joint R/4."""

    @pytest.mark.parametrize("N_h", [16, 60, 100, 400])
    @pytest.mark.parametrize("model,k", [(CLOSED, 0), (SECTOR, 1)], ids=["closed", "sector"])
    @pytest.mark.parametrize("ab", [(1.0, 1.0j), SEED4_PAIR], ids=["1-i", "seed4"])
    def test_matches_the_fine_rule(self, model, k, N_h, ab):
        grid = RadialGrid.geometric(1.0, N_h, 0.9)
        pen = assemble_mode_pencil(model, k, grid, ExtensionDomain.line(list(ab)))
        k_border, m_border, mee = reference_border(grid.nodes, pen.nu, 1.0, pen.enrichment_coeffs)
        for got, want in ((pen.stiffness.border[0], k_border), (pen.mass.border[0], m_border), (pen.mass.corner, mee)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def border_pieces(nodes, R):
    """The ends of every cell's pieces below and above R/4, up to R/2, as the assembly cuts them."""
    x0, x1 = nodes[:-1], nodes[1:]
    lo = np.concatenate((x0, np.maximum(x0, R / 4.0)))
    hi = np.concatenate((np.minimum(x1, R / 4.0), np.minimum(x1, R / 2.0)))
    return lo[lo < hi], hi[lo < hi]


# four tip cells, two of them wide, where x0 (x1/x0) rounds off x1; geometric beyond
WIDE_TIP_NODES = np.concatenate(([0.0113, 0.0272, 0.0289, 0.0298], np.geomspace(0.06, 1.0, 40)))


class TestSubcellEdges:
    @pytest.mark.parametrize("n_sub", [4, 8, 64])
    def test_the_last_edge_is_the_cell_end(self, n_sub):
        pieces = [border_pieces(RadialGrid.geometric(1.0, N_h, 0.9).nodes, 1.0) for N_h in (16, 60, 100, 400)]
        lo, hi = (np.concatenate(ends) for ends in zip(*pieces))
        assert np.count_nonzero(lo * (hi / lo) != hi) > 0  # the power law alone misses some ends
        edges = _log_edges(lo, hi, n_sub)
        assert edges.shape == (len(lo), n_sub + 1)
        assert edges[:, 0].tobytes() == lo.tobytes() and edges[:, -1].tobytes() == hi.tobytes()
        assert np.all(np.diff(edges, axis=1) > 0.0)

    @pytest.mark.parametrize("model,k", [(CLOSED, 0), (SECTOR, 1)], ids=["closed", "sector"])
    def test_zero_border_entries_of_wide_cells(self, model, k):
        # below R/4 the cutoff is 1 and L s0 = 0, so a hat there has a zero stiffness entry
        lo, hi = border_pieces(WIDE_TIP_NODES, 1.0)
        wide = (hi - lo) / lo > 0.3
        assert np.count_nonzero(wide & (lo * (hi / lo) != hi)) == 2
        pen = assemble_mode_pencil(model, k, RadialGrid(nodes=WIDE_TIP_NODES), ExtensionDomain.line([1.0, 1.0j]))
        k_border, _, _ = reference_border(WIDE_TIP_NODES, pen.nu, 1.0, pen.enrichment_coeffs)
        zero = np.flatnonzero(WIDE_TIP_NODES[2:] <= 0.25)
        got = pen.stiffness.border[0][zero]
        assert np.max(np.abs(got - k_border[zero])) <= 1e-14 * np.max(np.abs(k_border))
        assert np.max(np.abs(got)) <= 1e-14 * np.max(np.abs(k_border))


class TestEmbeddingGrams:
    def test_shapes_and_definiteness(self):
        bands = assemble_embedding_grams(10.0, 32)
        assert all(g.size == 33 and g.border.shape == (0, 33) and len(g.corner) == 0 for g in bands)
        gh, gl = (g.dense() for g in bands)
        assert gh.shape == gl.shape == (33, 33)
        assert not gh.imag.any() and not gl.imag.any()
        assert np.allclose(gh, gh.T) and np.allclose(gl, gl.T)
        assert np.linalg.eigvalsh(gh).min() > 0
        assert np.linalg.eigvalsh(gl).min() > 0

    @pytest.mark.parametrize("t_max, N_h", [(10.0, 32), (20.0, 100), (20.0, 400)])
    def test_band_reduction_matches_the_dense_generalized_eigensolve(self, t_max, N_h):
        gh, gl = assemble_embedding_grams(t_max, N_h)
        dense = scipy.linalg.eigh(gl.dense().real, gh.dense().real, eigvals_only=True)
        reference = np.sqrt(np.clip(dense, 0.0, None))[::-1]
        sv = embedding_singular_values(gh, gl)
        assert sv.shape == (N_h + 1,)
        np.testing.assert_allclose(sv[:40], reference[:40], rtol=1e-12, atol=0)

    def test_an_indefinite_high_gram_raises(self):
        gh, gl = assemble_embedding_grams(10.0, 32)
        diag = gh.diag.copy()
        diag[5] = -1.0
        indefinite = ArrowTridiagonal(diag, gh.off, gh.border, gh.corner)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            embedding_singular_values(indefinite, gl)

    def test_grams_with_a_border_or_of_unequal_size_are_rejected(self):
        gh, gl = assemble_embedding_grams(10.0, 32)
        with pytest.raises(ValueError, match="borderless"):
            embedding_singular_values(gh, assemble_embedding_grams(10.0, 33)[1])
        with pytest.raises(ValueError, match="borderless"):
            embedding_singular_values(gh, arrow_from_dense(gl.dense(), 1))

    def test_singular_values_bounded_and_sorted(self):
        gh, gl = assemble_embedding_grams(20.0, 100)
        sv = embedding_singular_values(gh, gl)
        assert sv[0] <= 1.0 + 1e-10
        assert np.all(np.diff(sv) <= 1e-14)
        assert sv[-1] > 0

    def test_low_modes_stable_under_domain_doubling(self):
        # the leading singular values are set by the weight decay, not
        # by the truncation point, once t_max is comfortably large
        sv1 = embedding_singular_values(*assemble_embedding_grams(20.0, 200))
        sv2 = embedding_singular_values(*assemble_embedding_grams(40.0, 400))
        for j in range(10):
            assert sv2[j] == pytest.approx(sv1[j], rel=5e-2)

    def test_grams_match_quadrature_of_the_norms(self):
        # in t = -log x, G_low is the hat mass matrix and G_high integrates
        # e^{2t} (u v + (u + u')(v + v')), the H^1 form of e^t u against e^t v
        t_max, N_h = 10.0, 32
        h = t_max / N_h
        gh, gl = (g.dense().real for g in assemble_embedding_grams(t_max, N_h))
        ends = np.r_[2.0, np.full(N_h - 1, 4.0), 2.0]
        mass = h / 6.0 * (np.diag(ends) + np.eye(N_h + 1, k=1) + np.eye(N_h + 1, k=-1))
        assert np.allclose(gl, mass, rtol=1e-13, atol=0)

        def hat(j, t):  # value and slope of the hat at node j inside a cell
            s = t / h - j
            return max(0.0, 1.0 - abs(s)), (-math.copysign(1.0 / h, s) if abs(s) < 1.0 else 0.0)

        def form(t, i, j):
            (u, du), (v, dv) = hat(i, t), hat(j, t)
            return math.exp(2.0 * t) * (u * v + (u + du) * (v + dv))

        for i, j in ((0, 0), (5, 5), (5, 6), (N_h, N_h)):
            cells = range(max(max(i, j) - 1, 0), min(min(i, j) + 1, N_h))  # shared support
            expected = sum(quad(form, k * h, (k + 1) * h, args=(i, j), epsrel=1e-12)[0] for k in cells)
            assert gh[i, j] == pytest.approx(expected, rel=1e-10)

    def test_validators(self):
        with pytest.raises(ValueError, match="t_max"):
            assemble_embedding_grams(0.0, 32)
        with pytest.raises(ValueError, match="N_h"):
            assemble_embedding_grams(10.0, 8)

    @pytest.mark.parametrize("N_h", [20.5, True, "20", None])
    def test_a_size_that_is_not_an_integer_is_rejected(self, N_h):
        with pytest.raises(ValueError, match="N_h must be an integer"):
            assemble_embedding_grams(10.0, N_h)
        # an integral float is that size, as RadialGrid.geometric reads it
        for got, want in zip(assemble_embedding_grams(20.0, 40.0), assemble_embedding_grams(20.0, 40)):
            assert got.diag.tobytes() == want.diag.tobytes() and got.off.tobytes() == want.off.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t_max", [355.0, 5e-324, 1e308])
    def test_a_length_beyond_the_doubles_raises_quietly(self, t_max):
        # e^{2t} overflows from t = 355, and the slopes 1/h at t_max = 5e-324
        with pytest.raises(FloatingPointError, match=re.escape(f"t_max = {t_max!r} gives embedding Gram entries")):
            assemble_embedding_grams(t_max, 20)


class TestPersistence:
    def test_round_trip_preserves_everything(self, tmp_path):
        grid = RadialGrid.geometric(1.0, 32, 0.9)
        pen = assemble_mode_pencil(SECTOR, 1, grid, ExtensionDomain.line([1.0, 1.0j]))
        path = tmp_path / "pencil.bin"
        export_pencil(pen, path)
        back = load_pencil(path)
        assert np.array_equal(back.K, pen.K)
        assert np.array_equal(back.M, pen.M)
        assert back.basis_labels == pen.basis_labels
        assert back.nu == pen.nu
        assert back.outer_radius_R == pen.outer_radius_R
        assert back.enrichment_coeffs == pen.enrichment_coeffs

    def test_export_is_deterministic(self, tmp_path):
        grid = RadialGrid.geometric(1.0, 32, 0.9)
        pen = assemble_mode_pencil(CLOSED, 0, grid, ExtensionDomain.line([1.0, 1.0]))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        export_pencil(pen, p1)
        export_pencil(pen, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rescaled_line_writes_the_same_pencil(self, tmp_path):
        # the line stores its unit representative, so every t (1, i) enriches with one pair
        grid = RadialGrid.geometric(1.0, 60, 0.9)
        dumps = []
        for t in (1e-300, 1.0, 100.0, 1e200):
            path = tmp_path / f"pencil{len(dumps)}.bin"
            line = ExtensionDomain.line([t, complex(0.0, t)])
            export_pencil(assemble_mode_pencil(SECTOR, 1, grid, line), path)
            dumps.append(path.read_bytes())
        assert dumps == [dumps[1]] * 4

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError):
            load_pencil(path)

    @staticmethod
    def _exported(tmp_path):
        grid = RadialGrid.geometric(1.0, 32, 0.9)
        pen = assemble_mode_pencil(SECTOR, 1, grid, ExtensionDomain.line([1.0, 1.0j]))
        path = tmp_path / "pencil.bin"
        export_pencil(pen, path)
        return path

    @pytest.mark.parametrize(
        "field, value",
        [
            ("arrays", ["m_diag", "m_off", "k_diag", "k_off", "m_border", "k_border", "corners"]),
            ("real_dtype", "float32"),
            ("complex_dtype", "complex64"),
            ("byteorder", "big"),
            ("format_version", 1),
            ("format_version", 3),
            ("n", 0),
            ("n", -1),
            ("border_rows", 2),
            ("border_rows", 0),
            ("border_rows", True),
            ("surprise", 1),
            ("nu", [1]),
            ("nu", math.nan),
            ("nu", math.inf),
            ("nu", True),
            ("nu", -0.5),
            ("outer_radius_R", -1.0),
            ("outer_radius_R", 0.0),
            ("outer_radius_R", math.inf),
            ("outer_radius_R", "1"),
            ("enrichment", 5),
            ("enrichment", None),
            ("enrichment", [[1.0, 0.0]]),
            ("enrichment", [1.0, 0.0]),
            ("enrichment", [[math.nan, 0.0], [0.0, 1.0]]),
            ("basis_labels", lambda header: list(range(header["n"]))),
        ],
    )
    def test_load_rejects_a_tampered_header(self, tmp_path, field, value):
        path = self._exported(tmp_path)
        data = path.read_bytes()
        (hlen,) = struct.unpack("<Q", data[:8])
        header = json.loads(data[8 : 8 + hlen])
        header[field] = value(header) if callable(value) else value
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + data[8 + hlen :])
        with pytest.raises(ValueError):
            load_pencil(path)

    def test_load_rejects_a_version_1_file(self, tmp_path):
        # the dense layout that version 1 wrote: header, then K and M row-major
        grid = RadialGrid.geometric(1.0, 32, 0.9)
        pen = assemble_mode_pencil(SECTOR, 1, grid, ExtensionDomain.line([1.0, 1.0j]))
        header = {
            "format_version": 1,
            "matrices": ["K", "M"],
            "dtype": "complex128",
            "order": "row-major",
            "byteorder": "little",
            "n": pen.size,
            "basis_labels": list(pen.basis_labels),
            "nu": pen.nu,
            "outer_radius_R": pen.outer_radius_R,
            "enrichment": [[1.0, 0.0], [0.0, 1.0]],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path = tmp_path / "pencil.bin"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + pen.K.tobytes() + pen.M.tobytes())
        with pytest.raises(ValueError):
            load_pencil(path)

    def test_stores_the_parts_only(self, tmp_path):
        # about 30 KB at N_h = 400, where the dense K and M took 5.1 MB
        grid = RadialGrid.geometric(1.0, 400, 0.9)
        pen = assemble_mode_pencil(SECTOR, 1, grid, ExtensionDomain.line([1.0, 1.0j]))
        path = tmp_path / "pencil.bin"
        export_pencil(pen, path)
        (hlen,) = struct.unpack("<Q", path.read_bytes()[:8])
        core = pen.size - 1
        assert path.stat().st_size == 8 + hlen + 8 * (4 * core - 2) + 16 * (2 * core + 2)
        assert path.stat().st_size < 40_000
        back = load_pencil(path)
        assert back.K.tobytes() == pen.K.tobytes() and back.M.tobytes() == pen.M.tobytes()

    def test_round_trip_of_the_minimal_pencil(self, tmp_path):
        pen = assemble_mode_pencil(CLOSED, 0, RadialGrid.geometric(1.0, 32, 0.9), None)
        path = tmp_path / "pencil.bin"
        export_pencil(pen, path)
        back = load_pencil(path)
        assert back.size == pen.size and back.enrichment_coeffs is None
        assert back.K.tobytes() == pen.K.tobytes() and back.M.tobytes() == pen.M.tobytes()

    def test_load_rejects_trailing_data(self, tmp_path):
        path = self._exported(tmp_path)
        load_pencil(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_pencil(path)
