"""Boundary spectrum, critical strip, and the singular-function basis.

The canonical basis drives every downstream coordinate convention:
[x^{+nu}, x^{-nu}] per contributing mode for nu > 0, and [1, log x] for
the double root at nu = 0.
"""

import math

import pytest

from conespectra.indicial import (
    boundary_spectrum,
    critical_strip,
    dmin_is_weighted_sobolev,
    singular_basis,
)
from conespectra.model import ClosedLink, ConeModelOperator, SectorLink


def make(geometry, gamma=-1.0, m=2):
    return ConeModelOperator(
        order_m=m,
        dim_n=2,
        weight_gamma=gamma,
        geometry=geometry,
        outer_radius_R=1.0,
    )


class TestCriticalStrip:
    def test_strip_is_weight_window(self):
        assert critical_strip(make(ClosedLink())) == (-1.0, 1.0)
        assert critical_strip(make(SectorLink(alpha=2.0), gamma=0.5)) == (-2.5, -0.5)

    def test_strip_width_is_operator_order(self):
        lo, hi = critical_strip(make(ClosedLink(), gamma=0.25, m=2))
        assert hi - lo == pytest.approx(2.0)


class TestBoundarySpectrum:
    def test_closed_link_double_root_at_zero(self):
        model = make(ClosedLink())
        roots = boundary_spectrum(model)
        assert len(roots) == 1
        (root,) = roots
        assert root.sigma == 0.0
        assert root.mode_k == 0
        assert root.multiplicity == 2
        assert root.real_exponent_e == 0.0

    def test_closed_link_boundary_roots_excluded(self):
        # k = +-1 sit exactly on Im sigma = +-1 and must not be returned
        model = make(ClosedLink())
        roots = boundary_spectrum(model)
        assert all(abs(r.sigma.imag) < 1.0 for r in roots)

    def test_sector_pair_of_simple_roots(self):
        model = make(SectorLink(alpha=1.5 * math.pi))
        roots = boundary_spectrum(model)
        sigmas = [r.sigma for r in roots]
        assert sigmas == [-2.0j / 3.0, 2.0j / 3.0]
        assert [r.multiplicity for r in roots] == [1, 1]
        assert [r.real_exponent_e for r in roots] == [2.0 / 3.0, -2.0 / 3.0]

    def test_shifted_strip_picks_up_other_modes(self):
        # gamma = -2 moves the strip to (0, 2): it holds sigma = i of each |k| = 1
        # mode, while the double root at 0 and the |k| = 2 roots sit on its lines
        roots = boundary_spectrum(make(ClosedLink(), gamma=-2.0))
        assert [(r.mode_k, r.sigma, r.multiplicity) for r in roots] == [(-1, 1j, 1), (1, 1j, 1)]


class TestSingularBasis:
    def test_closed_link_basis_is_one_and_log(self):
        basis = singular_basis(make(ClosedLink()))
        assert [(f.mode_k, f.exponent_e, f.log_power) for f in basis] == [
            (0, 0.0, 0),
            (0, 0.0, 1),
        ]

    def test_sector_basis_is_power_pair(self):
        basis = singular_basis(make(SectorLink(alpha=1.5 * math.pi)))
        assert [(f.mode_k, f.exponent_e, f.log_power) for f in basis] == [
            (1, 2.0 / 3.0, 0),
            (1, -2.0 / 3.0, 0),
        ]

    def test_narrow_sector_has_trivial_quotient(self):
        assert singular_basis(make(SectorLink(alpha=1.0))) == ()
        assert singular_basis(make(SectorLink(alpha=0.9 * math.pi))) == ()

    def test_alpha_pi_exact_boundary_mode_excluded(self):
        # nu_1 = 1.0 exactly: the root sits on the strip line, not inside
        assert singular_basis(make(SectorLink(alpha=math.pi))) == ()

    def test_guard_band_raises_weight_on_spectrum(self):
        # nu_1 within 1e-12 of the strip edge but not exactly on it
        alpha = math.pi / (1.0 - 1e-13)
        with pytest.raises(ValueError, match="within 1e-12 of the weight line"):
            singular_basis(make(SectorLink(alpha=alpha)))

    @pytest.mark.parametrize(
        "geometry, modes",
        [
            (ClosedLink(), [-(10**12 + 1), 10**12 + 1]),
            (SectorLink(alpha=1.5 * math.pi), [15 * 10**11 + 1, 15 * 10**11 + 2]),
        ],
    )
    def test_large_weight_enumerates_only_the_modes_near_its_strip(self, geometry, modes):
        # gamma = 1e12: roots with nu in (1e12, 1e12 + 2); a scan from mode 0 takes hours
        model = make(geometry, gamma=1e12)
        basis = singular_basis(model)
        assert [sf.mode_k for sf in basis] == modes
        assert all(1e12 < sf.exponent_e.real < 1e12 + 2 for sf in basis)
        assert dmin_is_weighted_sobolev(model) is False  # nu = 1e12 + 2 is on the lower line

    def test_computed_once_per_model(self):
        first = singular_basis(make(SectorLink(alpha=1.5 * math.pi)))
        again = singular_basis(make(SectorLink(alpha=1.5 * math.pi)))
        assert again == first and len(first) == 2
        assert again is first
        assert isinstance(first, tuple)

    def test_descriptions_name_the_profile(self):
        basis = singular_basis(make(ClosedLink()))
        assert "log x" in basis[1].description
        sector = singular_basis(make(SectorLink(alpha=1.5 * math.pi)))
        assert "x^0.666667" in sector[0].description


class TestDminCharacterization:
    def test_closed_link_dmin_is_not_plain_weighted_space(self):
        # roots exactly on the strip lines obstruct the clean description
        assert dmin_is_weighted_sobolev(make(ClosedLink())) is False

    def test_sector_dmin_is_plain_weighted_space(self):
        assert dmin_is_weighted_sobolev(make(SectorLink(alpha=1.5 * math.pi))) is True
        assert dmin_is_weighted_sobolev(make(SectorLink(alpha=1.0))) is True

    def test_alpha_pi_is_still_obstructed(self):
        assert dmin_is_weighted_sobolev(make(SectorLink(alpha=math.pi))) is False
