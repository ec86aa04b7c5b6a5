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
    WeightedSobolevParams,
    complex_from_pair,
    complex_to_pair,
    matrix_from_json,
    matrix_to_json,
    span_distance,
    validate_model,
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
    def test_valid_models_have_no_violations(self):
        assert validate_model(closed_model()) == []
        assert validate_model(sector_model()) == []

    @pytest.mark.parametrize(
        "kw, fragment",
        [
            (dict(order_m=0), "order_m"),
            (dict(order_m=-2), "order_m"),
            (dict(dim_n=0), "dim_n"),
            (dict(weight_gamma=math.inf), "weight_gamma"),
            (dict(outer_radius_R=0.0), "outer_radius_R"),
            (dict(outer_radius_R=-1.0), "outer_radius_R"),
            (dict(constant_coefficients_near_tip=False), "constant_coefficients"),
        ],
    )
    def test_bad_fields_are_reported(self, kw, fragment):
        errs = validate_model(closed_model(**kw))
        assert any(fragment in e for e in errs)

    def test_sector_alpha_range(self):
        assert validate_model(sector_model(alpha=0.0)) != []
        assert validate_model(sector_model(alpha=2.0 * math.pi)) != []
        assert validate_model(sector_model(alpha=1.99 * math.pi)) == []

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

    def test_json_dict(self):
        assert Ray(1.0).to_json_dict() == {"angle_theta": 1.0}


class TestExtensionDomain:
    def test_line_shape_and_dim(self):
        dom = ExtensionDomain.line([1.0, 2.0])
        assert dom.quotient_dim_D == 2
        assert dom.dim_d == 1
        assert dom.basis_matrix.shape == (2, 1)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="full column rank"):
            ExtensionDomain(quotient_dim_D=2, basis_matrix=np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_row_count_must_match_quotient_dim(self):
        with pytest.raises(ValueError, match="rows"):
            ExtensionDomain(quotient_dim_D=3, basis_matrix=np.eye(2))

    def test_equality_is_span_equality(self):
        a = ExtensionDomain.line([1.0, 1.0])
        b = ExtensionDomain.line([2.0, 2.0])
        c = ExtensionDomain.line([1.0, -1.0])
        assert a == b
        assert a != c
        # complex rescaling keeps the span
        d = ExtensionDomain.line([1.0j, 1.0j])
        assert a == d

    def test_basis_matrix_is_frozen(self):
        dom = ExtensionDomain.line([1.0, 0.0])
        with pytest.raises(ValueError):
            dom.basis_matrix[0, 0] = 5.0

    def test_json_round_trip(self):
        dom = ExtensionDomain.line([1.0, 2.0 + 3.0j])
        back = ExtensionDomain.from_json_dict(dom.to_json_dict())
        assert back == dom

    def test_span_distance_basic_values(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert span_distance(e1, e1) <= 1e-14
        assert span_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)
        diag = np.array([[1.0], [1.0]])
        # sine of the 45 degree principal angle
        assert span_distance(e1, diag) == pytest.approx(math.sin(math.pi / 4), rel=1e-12)


class TestSerializationHelpers:
    def test_complex_pair_round_trip(self):
        assert complex_from_pair(complex_to_pair(1.5 - 2.5j)) == 1.5 - 2.5j
        assert complex_from_pair(3) == 3.0 + 0.0j

    def test_matrix_round_trip_including_empty(self):
        m = np.array([[1.0 + 1j, 2.0], [0.0, -1j]])
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)
        empty = np.zeros((2, 0), dtype=complex)
        back = matrix_from_json(matrix_to_json(empty))
        assert back.shape == (2, 0)

    def test_sobolev_params_round_trip(self):
        p = WeightedSobolevParams(smoothness_s=1, weight=1.0, dim_n=1)
        assert WeightedSobolevParams.from_json_dict(p.to_json_dict()) == p
