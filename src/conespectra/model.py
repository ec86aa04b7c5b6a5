"""Core value types for scalar cone models.

A model is a second-order operator on a finite cone over a closed or
sector link, acting in an x^gamma weighted L^2 space on (0, R].  All
types here are immutable records with JSON round-trips; complex numbers
are encoded as [re, im] pairs everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator, Optional, Union

import numpy as np

__all__ = [
    "ClosedLink",
    "SectorLink",
    "Geometry",
    "ConeModelOperator",
    "Ray",
    "RayVerdict",
    "CompletenessCertificate",
    "ExtensionDomain",
    "WeightedSobolevParams",
    "validate_model",
    "require_valid",
    "complex_to_pair",
    "complex_from_pair",
    "matrix_to_json",
    "matrix_from_json",
]

TWO_PI = 2.0 * math.pi
SLOPE_WINDOW = (-1.15, -0.85)  # log-log resolvent slopes of minimal growth


def complex_to_pair(z) -> list:
    """Encode a complex scalar as a [re, im] pair."""
    z = complex(z)
    return [z.real, z.imag]


def complex_from_pair(v) -> complex:
    """Decode [re, im] (bare reals are accepted for convenience)."""
    if isinstance(v, (int, float)):
        return complex(v)
    re, im = v
    return complex(float(re), float(im))


def matrix_to_json(mat: np.ndarray) -> list:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    out = np.array([[complex_from_pair(v) for v in row] for row in rows], dtype=complex)
    if out.size == 0:
        out = out.reshape(len(rows), 0)
    return out


def _check_known_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown fields in {where}: {sorted(unknown)}")


@dataclass(frozen=True)
class ClosedLink:
    """Closed circular link; angular modes k in Z with mu_k = k^2."""

    angle_total: float = TWO_PI

    kind: ClassVar[str] = "closed_link"

    def mu(self, k: int) -> float:
        return float(k) ** 2

    def modes_by_abs(self) -> Iterator[int]:
        """Yield modes grouped by |k|: 0, -1, 1, -2, 2, ..."""
        yield 0
        k = 1
        while True:
            yield -k
            yield k
            k += 1

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "angle_total": self.angle_total}


@dataclass(frozen=True)
class SectorLink:
    """Sector link of opening alpha with Dirichlet sides; mu_k = (k*pi/alpha)^2, k >= 1."""

    alpha: float

    kind: ClassVar[str] = "sector_link"

    def mu(self, k: int) -> float:
        return (k * math.pi / self.alpha) ** 2

    def modes_by_abs(self) -> Iterator[int]:
        k = 1
        while True:
            yield k
            k += 1

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha}


Geometry = Union[ClosedLink, SectorLink]


def geometry_from_json(d: dict) -> Geometry:
    kind = d.get("kind")
    if kind == "closed_link":
        _check_known_keys(d, {"kind", "angle_total"}, "geometry")
        return ClosedLink(angle_total=float(d.get("angle_total", TWO_PI)))
    if kind == "sector_link":
        _check_known_keys(d, {"kind", "alpha"}, "geometry")
        if "alpha" not in d:
            raise ValueError("sector_link geometry requires alpha")
        return SectorLink(alpha=float(d["alpha"]))
    raise ValueError(f"unknown geometry kind: {kind!r}")


@dataclass(frozen=True)
class ConeModelOperator:
    """Scalar cone model of order m on (0, R] x link, in the x^gamma weighted space."""

    order_m: int
    dim_n: int
    weight_gamma: float
    geometry: Geometry
    outer_radius_R: float
    constant_coefficients_near_tip: bool = True

    def to_json_dict(self) -> dict:
        return {
            "order_m": self.order_m,
            "dim_n": self.dim_n,
            "weight_gamma": self.weight_gamma,
            "geometry": self.geometry.to_json_dict(),
            "outer_radius_R": self.outer_radius_R,
            "constant_coefficients_near_tip": self.constant_coefficients_near_tip,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConeModelOperator":
        _check_known_keys(d, {f.name for f in fields(cls)}, "ConeModelOperator")
        return cls(
            order_m=int(d["order_m"]),
            dim_n=int(d["dim_n"]),
            weight_gamma=float(d["weight_gamma"]),
            geometry=geometry_from_json(d["geometry"]),
            outer_radius_R=float(d["outer_radius_R"]),
            constant_coefficients_near_tip=bool(d.get("constant_coefficients_near_tip", True)),
        )


def validate_model(model: ConeModelOperator) -> list:
    """Return a list of violation messages; empty means the model is usable."""
    errs = []
    if not isinstance(model.order_m, int) or model.order_m <= 0:
        errs.append("order_m must be a positive integer")
    if not isinstance(model.dim_n, int) or model.dim_n < 1:
        errs.append("dim_n must be an integer >= 1")
    if not math.isfinite(model.weight_gamma):
        errs.append("weight_gamma must be finite")
    if not (math.isfinite(model.outer_radius_R) and model.outer_radius_R > 0):
        errs.append("outer_radius_R must be positive and finite")
    geom = model.geometry
    if isinstance(geom, SectorLink):
        if not (0.0 < geom.alpha < TWO_PI):
            errs.append("alpha out of (0,2π)")
    elif isinstance(geom, ClosedLink):
        if not math.isclose(geom.angle_total, TWO_PI):
            errs.append("closed link must have angle_total 2π")
    else:
        errs.append(f"unknown geometry type {type(geom).__name__}")
    if not model.constant_coefficients_near_tip:
        errs.append("constant_coefficients_near_tip must be true")
    if not errs:
        # spot-check the link eigenvalue sequence on the first few modes
        mus = []
        for k in geom.modes_by_abs():
            mus.append(geom.mu(k))
            if len(mus) >= 8:
                break
        if any(m < 0 for m in mus):
            errs.append("link eigenvalues must be nonnegative")
        grouped = [mus[0]] + [max(mus[i], mus[i + 1]) for i in range(1, len(mus) - 1, 2)]
        if any(grouped[i] > grouped[i + 1] + 1e-12 for i in range(len(grouped) - 1)):
            errs.append("link eigenvalues must be nondecreasing in |k|")
    return errs


def require_valid(model: ConeModelOperator) -> None:
    errs = validate_model(model)
    if errs:
        raise ValueError("invalid model: " + "; ".join(errs))


@dataclass(frozen=True)
class Ray:
    """Closed ray from the origin at angle theta, normalized into [0, 2π)."""

    angle_theta: float

    def __post_init__(self):
        th = float(self.angle_theta)
        if not math.isfinite(th):
            raise ValueError(f"ray angle must be finite, got {th!r}")
        th %= TWO_PI
        if th == TWO_PI:  # fmod edge
            th = 0.0
        object.__setattr__(self, "angle_theta", th)

    def to_json_dict(self) -> dict:
        return {"angle_theta": self.angle_theta}


@dataclass(frozen=True)
class RayVerdict:
    """Outcome of a minimal-growth check along one ray.

    sup_bound and slope are populated by the resolvent-probing variant;
    the normal-operator criterion is exact and leaves them None.
    """

    ray: Ray
    verdict: str  # "Minimal" | "Fails" | "Uncertified"
    sup_bound: Optional[float] = None
    slope: Optional[float] = None
    witness: Optional[dict] = None
    note: str = ""

    def __post_init__(self):
        if self.verdict not in ("Minimal", "Fails", "Uncertified"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "Minimal":
            if self.slope is not None and not (
                SLOPE_WINDOW[0] <= self.slope <= SLOPE_WINDOW[1]
            ):
                raise ValueError("Minimal verdict with slope outside the growth window")
            if self.sup_bound is not None and not math.isfinite(self.sup_bound):
                raise ValueError("Minimal verdict requires a finite sup bound")

    def to_json_dict(self) -> dict:
        return {
            "theta": self.ray.angle_theta,
            "verdict": self.verdict,
            "sup_bound": self.sup_bound,
            "slope": self.slope,
            "witness": self.witness,
            "note": self.note,
        }


@dataclass(frozen=True)
class CompletenessCertificate:
    """Ray-fan certificate: all rays minimal and no angular gap too wide."""

    n: int
    m: int
    schatten_p: float
    rays: tuple
    max_gap: float
    complete: bool

    def __post_init__(self):
        should = all(v.verdict == "Minimal" for v in self.rays) and (
            self.max_gap <= math.pi * self.m / self.n + 1e-12
        )
        if bool(self.complete) != should:
            raise ValueError("certificate flag inconsistent with its own rule")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "schatten_p": self.schatten_p,
            "rays": [v.to_json_dict() for v in self.rays],
            "max_gap": self.max_gap,
            "complete": self.complete,
        }


def _orthonormal_columns(mat: np.ndarray) -> np.ndarray:
    if mat.shape[1] == 0:
        return mat
    q, _ = np.linalg.qr(mat)
    return q


def span_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of the difference of orthogonal projectors onto the column spans.

    Equals the sine of the largest principal angle when the spans have
    equal dimension; computed without the 1 - cos^2 cancellation so that
    identical spans come out at round-off level.
    """
    qa = _orthonormal_columns(np.asarray(a, dtype=complex))
    qb = _orthonormal_columns(np.asarray(b, dtype=complex))
    pa = qa @ qa.conj().T
    pb = qb @ qb.conj().T
    diff = pa - pb
    if diff.size == 0:
        return 0.0
    return float(np.linalg.svd(diff, compute_uv=False)[0])


@dataclass(frozen=True, eq=False)
class ExtensionDomain:
    """A d-dimensional subspace of the D-dimensional domain quotient.

    Coordinates are taken in the canonical singular-function basis; the
    subspace is the column span of basis_matrix (shape (D, d), full
    column rank).  Equality means equal spans.
    """

    quotient_dim_D: int
    basis_matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.basis_matrix, dtype=complex)
        if mat.ndim != 2:
            raise ValueError("basis_matrix must be 2-dimensional (D x d)")
        if mat.shape[0] != self.quotient_dim_D:
            raise ValueError(
                f"basis_matrix has {mat.shape[0]} rows, expected quotient_dim_D={self.quotient_dim_D}"
            )
        if mat.shape[1] > mat.shape[0]:
            raise ValueError("more columns than quotient dimension")
        if mat.shape[1] > 0:
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
                raise ValueError("basis_matrix must have full column rank")
        mat.flags.writeable = False
        object.__setattr__(self, "basis_matrix", mat)

    @property
    def dim_d(self) -> int:
        return self.basis_matrix.shape[1]

    @classmethod
    def line(cls, coeffs) -> "ExtensionDomain":
        """One-dimensional subspace spanned by the given coordinate vector."""
        col = np.asarray(coeffs, dtype=complex).reshape(-1, 1)
        return cls(quotient_dim_D=col.shape[0], basis_matrix=col)

    def orthonormal(self) -> np.ndarray:
        return _orthonormal_columns(self.basis_matrix)

    def same_span(self, other: "ExtensionDomain", tol: float = 1e-12) -> bool:
        if self.quotient_dim_D != other.quotient_dim_D or self.dim_d != other.dim_d:
            return False
        return span_distance(self.basis_matrix, other.basis_matrix) <= tol

    def __eq__(self, other):
        if not isinstance(other, ExtensionDomain):
            return NotImplemented
        return self.same_span(other)

    def to_json_dict(self) -> dict:
        return {
            "quotient_dim_D": self.quotient_dim_D,
            "basis_matrix": matrix_to_json(self.basis_matrix),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExtensionDomain":
        _check_known_keys(d, {"quotient_dim_D", "basis_matrix"}, "ExtensionDomain")
        return cls(
            quotient_dim_D=int(d["quotient_dim_D"]),
            basis_matrix=matrix_from_json(d["basis_matrix"]),
        )


@dataclass(frozen=True)
class WeightedSobolevParams:
    """Parameters (s, gamma, n) of a weighted b-Sobolev space x^gamma H^s_b."""

    smoothness_s: float
    weight: float
    dim_n: int

    def to_json_dict(self) -> dict:
        return {"smoothness_s": self.smoothness_s, "weight": self.weight, "dim_n": self.dim_n}

    @classmethod
    def from_json_dict(cls, d: dict) -> "WeightedSobolevParams":
        _check_known_keys(d, {"smoothness_s", "weight", "dim_n"}, "WeightedSobolevParams")
        return cls(
            smoothness_s=float(d["smoothness_s"]),
            weight=float(d["weight"]),
            dim_n=int(d["dim_n"]),
        )
