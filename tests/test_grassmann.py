"""Dilation action on extension domains and its limit sets."""

import math

import numpy as np
import pytest

from conespectra.grassmann import (
    RHO_SCHEDULE,
    NonpositiveRho,
    flow,
    grassmann_distance,
    kappa_matrix,
    omega_minus,
)
from conespectra.indicial import singular_basis
from conespectra.model import ClosedLink, ConeModelOperator, ExtensionDomain, SectorLink

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


@pytest.fixture(scope="module")
def closed_basis():
    return singular_basis(CLOSED)


@pytest.fixture(scope="module")
def sector_basis():
    return singular_basis(SECTOR)


class TestKappaMatrix:
    def test_power_basis_scales_diagonally(self, sector_basis):
        km = kappa_matrix(sector_basis, 0.5)
        expected = np.diag([0.5 ** (2.0 / 3.0), 0.5 ** (-2.0 / 3.0)])
        assert type(km) is np.ndarray
        assert np.allclose(km, expected, atol=1e-14)

    def test_log_basis_picks_up_shear(self, closed_basis):
        # u(x) = log x maps to log(rho x) = log rho * 1 + log x
        km = kappa_matrix(closed_basis, 0.5)
        expected = np.array([[1.0, math.log(0.5)], [0.0, 1.0]])
        assert np.allclose(km, expected, atol=1e-14)

    def test_group_law_under_composition(self, sector_basis, closed_basis):
        for basis in (sector_basis, closed_basis):
            k1 = kappa_matrix(basis, 0.3)
            k2 = kappa_matrix(basis, 0.5)
            k12 = kappa_matrix(basis, 0.15)
            assert np.allclose(k1 @ k2, k12, atol=1e-13)

    def test_identity_at_rho_one(self, closed_basis):
        assert np.allclose(kappa_matrix(closed_basis, 1.0), np.eye(2), atol=1e-15)

    def test_nonpositive_rho_rejected(self, closed_basis):
        with pytest.raises(NonpositiveRho):
            kappa_matrix(closed_basis, 0.0)
        with pytest.raises(NonpositiveRho):
            kappa_matrix(closed_basis, -1.0)


class TestFlow:
    def test_flow_returns_the_unit_representative(self, sector_basis):
        dom = ExtensionDomain.line([1.0, 1.0])
        out = flow(dom, sector_basis, 0.1)
        assert out.coeffs.shape == (2,)
        assert np.linalg.norm(out.coeffs) == pytest.approx(1.0, abs=1e-15)
        # kappa_rho [a, b] = [a rho^nu, b rho^-nu] with nu = 2/3
        assert out.coeffs[0] / out.coeffs[1] == pytest.approx(0.1 ** (4.0 / 3.0), rel=1e-14)

    def test_basis_must_span_a_pair(self, closed_basis):
        with pytest.raises(ValueError, match="2-dimensional"):
            flow(ExtensionDomain.line([1.0, 0.0]), closed_basis[:1], 0.5)

    def test_power_flow_favors_weaker_exponent(self, sector_basis):
        # kappa_rho [a, b] ~ [a rho^nu, b rho^-nu]; b wins as rho -> 0
        dom = ExtensionDomain.line([1.0, 1.0])
        target = ExtensionDomain.line([0.0, 1.0])
        d_before = grassmann_distance(dom, target)
        d_after = grassmann_distance(flow(dom, sector_basis, 1e-6), target)
        assert d_after < 1e-7 < d_before

    def test_pure_axis_lines_are_fixed_points(self, sector_basis):
        for coeffs in ([1.0, 0.0], [0.0, 1.0]):
            dom = ExtensionDomain.line(coeffs)
            for rho in (0.9, 0.1, 1e-5):
                assert grassmann_distance(flow(dom, sector_basis, rho), dom) <= 1e-12

    def test_log_flow_drifts_to_constant_direction(self, closed_basis):
        dom = ExtensionDomain.line([0.0, 1.0])  # the pure log x line
        target = ExtensionDomain.line([1.0, 0.0])
        dists = [
            grassmann_distance(flow(dom, closed_basis, rho), target)
            for rho in (1e-2, 1e-4, 1e-8)
        ]
        assert dists[0] > dists[1] > dists[2]
        for rho, d in zip((1e-2, 1e-4, 1e-8), dists):
            assert d <= 10.0 / abs(math.log(rho))

    def test_nonpositive_rho_rejected(self, closed_basis):
        with pytest.raises(NonpositiveRho):
            flow(ExtensionDomain.line([1.0, 0.0]), closed_basis, 0.0)


class TestGrassmannDistance:
    def test_metric_basics(self):
        a = ExtensionDomain.line([1.0, 0.0])
        b = ExtensionDomain.line([0.0, 1.0])
        c = ExtensionDomain.line([1.0, 1.0])
        assert grassmann_distance(a, a) == pytest.approx(0.0, abs=1e-14)
        assert grassmann_distance(a, b) == pytest.approx(1.0, abs=1e-12)
        assert grassmann_distance(a, c) == pytest.approx(grassmann_distance(c, a), abs=1e-14)
        assert grassmann_distance(a, c) <= (
            grassmann_distance(a, b) + grassmann_distance(b, c) + 1e-12
        )

    def test_bounded_by_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = ExtensionDomain.line(rng.normal(size=2) + 1j * rng.normal(size=2))
            b = ExtensionDomain.line(rng.normal(size=2) + 1j * rng.normal(size=2))
            d = grassmann_distance(a, b)
            assert -1e-12 <= d <= 1.0 + 1e-12


class TestSchedule:
    def test_quarter_decade_steps(self):
        s = RHO_SCHEDULE
        assert len(s) == 64
        assert s[3] == pytest.approx(0.1, rel=1e-12)
        assert s[31] == pytest.approx(1e-8, rel=1e-12)
        ratios = s[1:] / s[:-1]
        assert np.allclose(ratios, 10.0 ** (-0.25), rtol=1e-12)

    def test_schedule_is_read_only(self):
        with pytest.raises(ValueError):
            RHO_SCHEDULE[0] = 1.0

    def test_settled_tail_keeps_the_fixed_schedule(self, closed_basis, sector_basis):
        for basis in (closed_basis, sector_basis):
            orbit, limits = omega_minus(ExtensionDomain.line([1.0, 1.0]), basis)
            assert len(orbit) == len(RHO_SCHEDULE) == 64
            assert len(limits) == 1


class TestOmegaMinus:
    def test_sector_generic_line_limits_to_weak_axis(self, sector_basis):
        dom = ExtensionDomain.line([1.0, 1.0])
        _, limits = omega_minus(dom, sector_basis)
        assert len(limits) == 1
        assert limits[0].same_span(ExtensionDomain.line([0.0, 1.0]), tol=1e-9)

    def test_sector_friedrichs_line_is_stationary(self, sector_basis):
        dom = ExtensionDomain.line([1.0, 0.0])
        _, limits = omega_minus(dom, sector_basis)
        assert len(limits) == 1
        assert limits[0].same_span(dom, tol=1e-12)

    def test_closed_link_limit_is_constant_direction(self, closed_basis):
        # the orbit approaches it only like 1/|log rho|, but the limit is exact
        dom = ExtensionDomain.line([1.0, 1.0])
        _, limits = omega_minus(dom, closed_basis)
        assert len(limits) == 1
        assert limits[0].coeffs.tolist() == [1.0, 0.0]

    def test_complex_extension_same_limit(self, closed_basis, sector_basis):
        dom = ExtensionDomain.line([1.0, 1.0j])
        _, (lim_c,) = omega_minus(dom, closed_basis)
        assert lim_c.coeffs.tolist() == [1.0, 0.0]
        _, (lim_s,) = omega_minus(dom, sector_basis)
        assert lim_s.same_span(ExtensionDomain.line([0.0, 1.0]), tol=1e-9)

    def test_empty_basis_raises(self):
        narrow = ConeModelOperator(
            order_m=2,
            dim_n=2,
            weight_gamma=-1.0,
            geometry=SectorLink(alpha=1.0),
            outer_radius_R=1.0,
        )
        basis = singular_basis(narrow)
        assert basis == ()
        with pytest.raises(ValueError, match="basis has 0 functions"):
            omega_minus(ExtensionDomain.line([1.0, 1.0]), basis)
