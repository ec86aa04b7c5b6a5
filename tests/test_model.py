"""Value types: validation, normalization, and JSON round-trips."""

import math

import numpy as np
import pytest

from conespectra.model import (
    ClosedLink,
    ConeModelOperator,
    ExtensionDomain,
    Ray,
    SectorLink,
    complex_from_pair,
    complex_to_pair,
    line_distance,
)


def closed_model(**kw):
    base = dict(
        order_m=2,
        dim_n=2,
        weight_gamma=-1.0,
        geometry=ClosedLink(),
        outer_radius_R=1.0,
    )
    base.update(kw)
    return ConeModelOperator(**base)


def sector_model(alpha=1.5 * math.pi, **kw):
    base = dict(
        order_m=2,
        dim_n=2,
        weight_gamma=-1.0,
        geometry=SectorLink(alpha=alpha),
        outer_radius_R=1.0,
    )
    base.update(kw)
    return ConeModelOperator(**base)


class TestGeometry:
    def test_closed_link_mode_eigenvalues(self):
        link = ClosedLink()
        assert link.mu(0) == 0.0
        assert link.mu(3) == 9.0
        assert link.mu(-3) == 9.0

    def test_sector_link_mode_eigenvalues(self):
        link = SectorLink(alpha=1.5 * math.pi)
        assert link.mu(1) == pytest.approx((2.0 / 3.0) ** 2, rel=1e-15)
        assert link.mu(2) == pytest.approx((4.0 / 3.0) ** 2, rel=1e-15)

    def test_mode_enumeration_order(self):
        closed = list(zip(range(5), ClosedLink().modes_by_abs()))
        assert [k for _, k in closed] == [0, -1, 1, -2, 2]
        sector = list(zip(range(3), SectorLink(alpha=2.0).modes_by_abs()))
        assert [k for _, k in sector] == [1, 2, 3]


class TestValidation:
    def test_valid_models_construct(self):
        closed_model()
        sector_model()

    @pytest.mark.parametrize(
        "kw, fragment",
        [
            (dict(order_m=0), "order_m"),
            (dict(order_m=-2), "order_m"),
            (dict(order_m=4), "order_m must be 2"),
            (dict(order_m=2.5), "order_m must be an integer"),
            (dict(order_m=10**400), "order_m is out of floating-point range"),
            (dict(dim_n=0), "dim_n"),
            (dict(dim_n=3), "dim_n must be 2"),
            (dict(weight_gamma=math.inf), "weight_gamma"),
            (dict(weight_gamma=1e300), "weight_gamma"),
            (dict(weight_gamma=False), "weight_gamma must be a number"),
            (dict(outer_radius_R=0.0), "outer_radius_R"),
            (dict(outer_radius_R=-1.0), "outer_radius_R"),
            (dict(geometry="closed_link"), "geometry"),
            (dict(constant_coefficients_near_tip=False), "constant_coefficients"),
            (dict(constant_coefficients_near_tip="false"), "constant_coefficients"),
        ],
    )
    def test_construction_rejects_bad_fields(self, kw, fragment):
        with pytest.raises(ValueError, match=fragment):
            closed_model(**kw)

    @pytest.mark.parametrize("alpha", [0.0, 2.0 * math.pi, 1e-200, True])
    def test_sector_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            sector_model(alpha=alpha)
        sector_model(alpha=1.99 * math.pi)

    def test_closed_link_angle_is_a_full_turn(self):
        with pytest.raises(ValueError, match="angle_total"):
            ClosedLink(angle_total=math.pi)

    def test_integral_floats_are_integers(self):
        model = closed_model(order_m=2.0, dim_n=2.0)
        assert model.order_m == 2 and isinstance(model.order_m, int)
        assert model == closed_model()

    def test_model_json_round_trip(self):
        for m in (closed_model(), sector_model(alpha=2.5)):
            d = m.to_json_dict()
            assert ConeModelOperator.from_json_dict(d) == m

    def test_model_json_rejects_unknown_keys(self):
        d = closed_model().to_json_dict()
        d["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            ConeModelOperator.from_json_dict(d)


class TestRay:
    def test_angle_normalized_into_period(self):
        assert Ray(2.5 * math.pi).angle_theta == pytest.approx(0.5 * math.pi)
        assert Ray(-0.5 * math.pi).angle_theta == pytest.approx(1.5 * math.pi)
        assert Ray(0.0).angle_theta == 0.0

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            Ray(theta)

    @pytest.mark.parametrize("theta", ["1.5", True, None, 1.0 + 0.0j])
    def test_non_number_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="a number"):
            Ray(theta)

    def test_json_dict(self):
        assert Ray(1.0).to_json_dict() == {"angle_theta": 1.0}


def projector_distance(u, v) -> float:
    """The subspace distance the line type replaced, kept as a reference.

    The spectral norm of the difference of the orthogonal projectors onto
    the two spans, from a QR of each vector and one SVD.
    """
    qa, _ = np.linalg.qr(np.asarray(u, dtype=complex).reshape(-1, 1))
    qb, _ = np.linalg.qr(np.asarray(v, dtype=complex).reshape(-1, 1))
    return float(np.linalg.svd(qa @ qa.conj().T - qb @ qb.conj().T, compute_uv=False)[0])


class TestExtensionDomain:
    def test_line_stores_its_unit_representative(self):
        dom = ExtensionDomain.line([1.0, 2.0])
        assert dom.coeffs.shape == (2,)
        assert np.linalg.norm(dom.coeffs) == pytest.approx(1.0, abs=1e-15)
        assert dom.coeffs[1] / dom.coeffs[0] == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("t", [1e-300, 1e-170, 1.0, 100.0, 1e200, 1e300])
    def test_rescaled_pairs_give_the_same_bits(self, t):
        unit = ExtensionDomain.line([1.0, 1.0j]).coeffs
        assert ExtensionDomain.line([t, complex(0.0, t)]).coeffs.tobytes() == unit.tobytes()

    def test_subnormal_pair_is_a_line(self):
        assert ExtensionDomain.line([1e-320, 0.0]).coeffs.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("coeffs", [
        [math.nan, 1.0],
        [1.0, complex(0.0, math.nan)],
        [math.inf, 1.0],
        [1.0, -math.inf],
        [0.0, 0.0],
        [1.0],
        [1.0, 2.0, 3.0],
        [[1.0], [2.0]],
    ])
    def test_invalid_lines_rejected(self, coeffs):
        with pytest.raises(ValueError):
            ExtensionDomain.line(coeffs)

    def test_equality_is_span_equality(self):
        a = ExtensionDomain.line([1.0, 1.0])
        b = ExtensionDomain.line([2.0, 2.0])
        c = ExtensionDomain.line([1.0, -1.0])
        assert a == b
        assert a != c
        # complex rescaling keeps the span
        d = ExtensionDomain.line([1.0j, 1.0j])
        assert a == d

    def test_coeffs_are_frozen(self):
        dom = ExtensionDomain.line([1.0, 0.0])
        with pytest.raises(ValueError):
            dom.coeffs[0] = 5.0

    def test_json_round_trip(self):
        dom = ExtensionDomain.line([1.0, 2.0 + 3.0j])
        back = ExtensionDomain.from_json_dict(dom.to_json_dict())
        assert back == dom
        assert back.coeffs.tobytes() == dom.coeffs.tobytes()

    def test_line_distance_matches_the_projector_formula_at_every_scale(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u, v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if rng.random() < 0.25:  # nearly the same line
                v = u + 1e-9 * v
            su, sv = 10.0 ** rng.uniform(-300.0, 300.0, size=2)
            d = line_distance(ExtensionDomain.line(su * u).coeffs, ExtensionDomain.line(sv * v).coeffs)
            assert d == pytest.approx(projector_distance(u, v), abs=1e-14)

    def test_line_distance_basic_values(self):
        e1, e2, diag = (ExtensionDomain.line(c).coeffs for c in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]))
        assert line_distance(e1, e1) == 0.0
        assert line_distance(e1, e2) == 1.0
        # sine of the 45 degree angle
        assert line_distance(e1, diag) == pytest.approx(math.sin(math.pi / 4), rel=1e-15)


class TestSerializationHelpers:
    def test_complex_pair_round_trip(self):
        assert complex_from_pair(complex_to_pair(1.5 - 2.5j)) == 1.5 - 2.5j
        assert complex_from_pair(3) == 3.0 + 0.0j
