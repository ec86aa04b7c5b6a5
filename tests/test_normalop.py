"""Exact minimal-growth certificates for the frozen-coefficient operator.

The decaying-trace coefficients are the load-bearing derived quantity
here, so they are checked against an independent oracle: direct inward
integration of the radial equation from deep in the decay regime,
followed by a least-squares read-off of the tip expansion.  The oracle
shares no code with the closed forms under test.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import kve

from conespectra.indicial import singular_basis
from conespectra.model import ClosedLink, ConeModelOperator, ExtensionDomain, Ray, SectorLink
from conespectra.grassmann import omega_minus
from conespectra.normalop import ray_minimal_growth_normal

from _reference import decaying_trace, invertible

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


def normal_verdict(model, domain, ray):
    """The exact tip verdict on the domain's flow limits and the domain itself."""
    _, limit = omega_minus(domain, singular_basis(model))
    return ray_minimal_growth_normal(model, ray, [limit, domain])


def shooting_trace(nu: float, lam: complex) -> np.ndarray:
    """Independent oracle for the decaying solution's tip coordinates.

    Integrates -u'' - u'/x + nu^2 u / x^2 = lam u inward from x0 = 18
    (seeded with the scaled decaying Bessel values, so the growing
    branch is suppressed by e^{-2 Re w x0}) and fits a four-term tip
    expansion on x in [1e-4, 1e-2]; the extra two terms absorb the
    O(x^{e+2}) corrections.  Returns the unit-norm leading pair.
    """
    w = cmath.sqrt(-lam)
    x0 = 18.0
    u0 = kve(nu, w * x0)
    du0 = -0.5 * (kve(nu - 1, w * x0) + kve(nu + 1, w * x0)) * w

    def rhs(x, y):
        u = y[0] + 1j * y[1]
        v = y[2] + 1j * y[3]
        vp = -v / x + (nu**2 / x**2 - lam) * u
        return [v.real, v.imag, vp.real, vp.imag]

    xs = np.geomspace(1e-4, 1e-2, 9)
    sol = solve_ivp(
        rhs,
        (x0, xs[0]),
        [u0.real, u0.imag, du0.real, du0.imag],
        t_eval=xs[::-1],
        rtol=1e-12,
        atol=1e-300,
        method="DOP853",
    )
    uu = sol.y[0][::-1] + 1j * sol.y[1][::-1]
    if nu == 0.0:
        cols = [np.ones_like(xs), np.log(xs), xs**2, xs**2 * np.log(xs)]
    else:
        cols = [xs**nu, xs ** (-nu), xs ** (nu + 2.0), xs ** (2.0 - nu)]
    design = np.stack(cols, axis=1).astype(complex)
    coef, *_ = np.linalg.lstsq(design, uu, rcond=None)
    lead = np.array([coef[0], coef[1]])
    return lead / np.linalg.norm(lead)


def subspace_angle(u, v) -> float:
    u = np.asarray(u, dtype=complex).ravel()
    v = np.asarray(v, dtype=complex).ravel()
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return math.acos(min(1.0, abs(np.vdot(u, v))))


PROBE_LAMBDAS = [
    4.0j,
    -3.0 + 2.0j,
    9.0 * cmath.exp(0.75j * math.pi),
    2.5 * cmath.exp(-0.5j * math.pi),
    30.0 * cmath.exp(1.2j),
]


class TestDecayingTraceOracle:
    @pytest.mark.parametrize("lam", PROBE_LAMBDAS)
    def test_closed_link_trace_matches_shooting(self, lam):
        trace = decaying_trace(CLOSED, lam)
        assert subspace_angle(trace.coeffs, shooting_trace(0.0, lam)) < 1e-6

    @pytest.mark.parametrize("lam", PROBE_LAMBDAS)
    def test_sector_trace_matches_shooting(self, lam):
        trace = decaying_trace(SECTOR, lam)
        assert subspace_angle(trace.coeffs, shooting_trace(2.0 / 3.0, lam)) < 1e-6

    def test_trace_is_unit_norm(self):
        for model in (CLOSED, SECTOR):
            tr = decaying_trace(model, 4.0j)
            assert np.linalg.norm(tr.coeffs) == pytest.approx(1.0, rel=1e-12)

    def test_direction_depends_only_on_ray_through_scaling(self):
        # kappa-homogeneity: lambda -> t^2 lambda rotates nothing, it
        # rescales the two components by t^{+-nu}; the direction at two
        # radii on one ray must agree after undoing that scaling
        nu = 2.0 / 3.0
        lam1 = 4.0 * cmath.exp(0.5j * math.pi)
        lam2 = 36.0 * cmath.exp(0.5j * math.pi)
        t = 3.0  # sqrt(36/4)
        c1 = decaying_trace(SECTOR, lam1).coeffs
        c2 = decaying_trace(SECTOR, lam2).coeffs
        undone = np.array([c2[0] / t**nu, c2[1] * t**nu])
        assert subspace_angle(c1, undone) < 1e-12


class TestNormalInvertible:
    def test_generic_domain_invertible_off_cut(self):
        dom = ExtensionDomain.line([1.0, 1.0])
        assert invertible(CLOSED, dom, 4.0j) is True
        assert invertible(SECTOR, dom, -2.0 + 1.0j) is True

    def test_eigen_domain_not_invertible_at_its_lambda(self):
        lam0 = 4.0 * cmath.exp(0.5j * math.pi)
        for model in (CLOSED, SECTOR):
            dom = decaying_trace(model, lam0)
            assert invertible(model, dom, lam0) is False
            # and invertible again away from the eigenvalue
            assert invertible(model, dom, 2.0 * lam0) is True

    @pytest.mark.parametrize("unit, scale", [([1.0, 0.0], 1e-300), ([1.0, 1.0j], 1e-170), ([1.0, 1.0j], 1e200)])
    def test_rescaled_line_keeps_its_verdicts(self, unit, scale):
        # the line's norm underflows or overflows unless it is scaled first
        for dom in (ExtensionDomain.line(unit), ExtensionDomain.line([scale * c for c in unit])):
            assert invertible(SECTOR, dom, -1.0) is True
            assert normal_verdict(SECTOR, dom, Ray(0.5 * math.pi)).verdict == "Minimal"


class TestRayCertificates:
    @pytest.mark.parametrize("theta", [0.5 * math.pi, 1.5 * math.pi])
    def test_closed_link_rays_are_minimal(self, theta):
        verdict = normal_verdict(CLOSED, ExtensionDomain.line([1.0, 1.0]), Ray(theta))
        assert verdict.verdict == "Minimal"
        assert verdict.slope is None

    def test_closed_link_negative_axis_holds_an_eigenvalue(self):
        # [1 : 1] has a/b = 1 = log(w/2) + gamma_E at w = 2 e^{1 - gamma_E}, so lambda = -w^2
        dom = ExtensionDomain.line([1.0, 1.0])
        verdict = normal_verdict(CLOSED, dom, Ray(math.pi))
        assert verdict.verdict == "Fails"
        lam = complex(*verdict.witness["lambda"])
        assert lam == pytest.approx(-4.0 * math.exp(2.0 * (1.0 - np.euler_gamma)), rel=1e-14)
        assert invertible(CLOSED, dom, lam) is False

    @pytest.mark.parametrize("theta", [0.5 * math.pi, 1.5 * math.pi])
    def test_sector_vertical_rays_are_minimal(self, theta):
        verdict = normal_verdict(SECTOR, ExtensionDomain.line([1.0, 1.0j]), Ray(theta))
        assert verdict.verdict == "Minimal"

    def test_sector_real_axis_parallel_is_uncertified(self):
        verdict = normal_verdict(SECTOR, ExtensionDomain.line([1.0, 1.0]), Ray(math.pi))
        assert verdict.verdict == "Uncertified"
        assert "parallel" in verdict.note

    def test_positive_real_axis_rejected(self):
        with pytest.raises(ValueError, match="cut"):
            normal_verdict(CLOSED, ExtensionDomain.line([1.0, 1.0]), Ray(0.0))

    @pytest.mark.parametrize(
        "weight, geometry, modes",
        [
            # a trivial quotient (D_min = D_max) has no strip mode
            (-1.0, SectorLink(alpha=1.0), []),
            # gamma = -2 on the closed link: modes -1 and 1 have nu = 1 and each
            # contributes x^{-1} alone
            (-2.0, ClosedLink(), [-1, 1]),
            # alpha = 5.5, gamma = -1.3: mode 1's pair plus mode 2's x^{-2pi/5.5}
            (-1.3, SectorLink(alpha=5.5), [1, 1, 2]),
        ],
    )
    def test_quotient_other_than_one_pair_rejected(self, weight, geometry, modes):
        model = ConeModelOperator(
            order_m=2, dim_n=2, weight_gamma=weight, geometry=geometry, outer_radius_R=1.0
        )
        assert [sf.mode_k for sf in singular_basis(model)] == modes
        with pytest.raises(ValueError, match="2-dimensional mode quotient"):
            ray_minimal_growth_normal(model, Ray(0.5 * math.pi), [])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        model=st.sampled_from([CLOSED, SECTOR]),
        modulus=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        arg=st.floats(-math.pi, math.pi).filter(lambda t: abs(t) >= 1e-9),
    )
    def test_eigen_domain_fails_with_witness(self, model, modulus, arg):
        # the eigen line of lambda_0 fails on the ray through lambda_0, with lambda_0 as witness
        lam0 = cmath.rect(modulus, arg)
        dom = decaying_trace(model, lam0)
        verdict = normal_verdict(model, dom, Ray(cmath.phase(lam0)))
        assert verdict.verdict == "Fails"
        wit_lam = complex(*verdict.witness["lambda"])
        assert abs(wit_lam - lam0) <= 1e-12 * abs(lam0)
        assert invertible(model, dom, wit_lam) is False

    @pytest.mark.parametrize(
        "b, verdict, radius",
        [
            (-1e-20, "Fails", 4.0 * (math.gamma(5 / 3) / (math.gamma(1 / 3) * 1e-20)) ** 1.5),
            (-1e-300, "Uncertified", None),
        ],
    )
    def test_witness_radius_must_be_a_double(self, b, verdict, radius):
        # [1 : b] with b < 0 is met on theta = pi, at r* = 7.8e29 or at 1e450, beyond the doubles
        dom = ExtensionDomain.line([1.0, b])
        found = normal_verdict(SECTOR, dom, Ray(math.pi))
        assert found.verdict == verdict
        if radius is not None:
            lam = complex(*found.witness["lambda"])
            assert abs(lam) == pytest.approx(radius, rel=1e-13)
            assert invertible(SECTOR, dom, lam) is False

    def test_verdict_witness_is_the_first_collinear_line(self):
        # two representatives of the eigen line at 10i, after one generic line; a
        # positive factor would give the same unit representative, a phase does not
        coeffs = decaying_trace(SECTOR, 10.0j).coeffs
        eigen, turned = (ExtensionDomain.line(list(c * coeffs)) for c in (1.0, 1.0j))
        lines = [ExtensionDomain.line([1.0, 1.0]), eigen, turned]
        verdict = ray_minimal_growth_normal(SECTOR, Ray(0.5 * math.pi), lines)
        assert verdict.verdict == "Fails"
        assert complex(*verdict.witness["lambda"]) == pytest.approx(10.0j)
        assert verdict.witness["domain"] == [[z.real, z.imag] for z in eigen.coeffs]
        assert verdict.witness["domain"] != [[z.real, z.imag] for z in turned.coeffs]

    def test_json_payload_shape(self):
        verdict = normal_verdict(CLOSED, ExtensionDomain.line([1.0, 1.0]), Ray(0.5 * math.pi))
        d = verdict.to_json_dict()
        assert d["verdict"] == "Minimal"
        assert d["theta"] == 0.5 * math.pi
        assert d["witness"] is None
