"""Core value types for scalar cone models.

A model is a second-order operator on a finite cone over a closed or
sector link, acting in an x^gamma weighted L^2 space on (0, R].  All
types here are immutable records.  The model and its geometry round-trip
through JSON, and ray verdicts and certificates serialize to it; complex
numbers are encoded as [re, im] pairs everywhere.
"""

from __future__ import annotations

import math
import numbers
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
    "complex_to_pair",
    "complex_from_pair",
    "line_distance",
]

TWO_PI = 2.0 * math.pi
SLOPE_WINDOW = (-1.15, -0.85)  # log-log resolvent slopes of minimal growth


def complex_to_pair(z) -> list:
    """Encode a complex scalar as a [re, im] pair."""
    z = complex(z)
    return [z.real, z.imag]


def complex_from_pair(v, name: str = "value") -> complex:
    """Decode [re, im] (bare reals are accepted for convenience); name labels errors."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_number(v[0], name), _number(v[1], name))
    return complex(_number(v, name))


def _number(value, name: str, integral: bool = False):
    """A JSON number as a float, or as an int when integral (40.0 reads as 40, 40.7 is rejected).

    Anything else (a boolean, a string, an int past the double range) raises ValueError naming it.
    """
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (integral and not whole):
        raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of floating-point range") from None
    return int(value) if integral else number


def _check_known_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"unknown fields in {where}: {sorted(unknown)}")


@dataclass(frozen=True)
class ClosedLink:
    """Closed circular link; angular modes k in Z with mu_k = k^2."""

    angle_total: float = TWO_PI

    kind: ClassVar[str] = "closed_link"

    def __post_init__(self):
        angle = _number(self.angle_total, "closed_link angle_total")
        if not math.isclose(angle, TWO_PI):
            raise ValueError(f"closed_link angle_total must be 2π, got {angle!r}")
        object.__setattr__(self, "angle_total", angle)

    def mu(self, k: int) -> float:
        return float(k) ** 2

    def modes_by_abs(self, nu_from: float = 0.0) -> Iterator[int]:
        """Yield modes grouped by |k|: 0, -1, 1, -2, 2, ..., from |k| = floor(nu_from)."""
        k = max(0, math.floor(nu_from))
        if k == 0:
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

    def __post_init__(self):
        alpha = _number(self.alpha, "sector_link alpha")
        if not 0.0 < alpha < TWO_PI:
            raise ValueError(f"sector_link alpha must be in (0, 2π), got {alpha!r}")
        if math.pi / alpha >= math.sqrt(np.finfo(float).max):
            raise ValueError(f"sector_link alpha = {alpha!r} is too small: (π/alpha)² overflows")
        object.__setattr__(self, "alpha", alpha)

    def mu(self, k: int) -> float:
        return (k * math.pi / self.alpha) ** 2

    def modes_by_abs(self, nu_from: float = 0.0) -> Iterator[int]:
        """Yield modes k = 1, 2, ..., from the last k with sqrt(mu_k) <= nu_from."""
        k = max(1, math.floor(nu_from * self.alpha / math.pi))
        while True:
            yield k
            k += 1

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha}


Geometry = Union[ClosedLink, SectorLink]


def geometry_from_json(d: dict) -> Geometry:
    if not isinstance(d, dict):
        raise ValueError(f"the model's geometry must be a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind == "closed_link":
        _check_known_keys(d, {"kind", "angle_total"}, "geometry")
        return ClosedLink(angle_total=d.get("angle_total", TWO_PI))
    if kind == "sector_link":
        _check_known_keys(d, {"kind", "alpha"}, "geometry")
        return SectorLink(alpha=d.get("alpha"))  # a missing alpha is None, not a number
    raise ValueError(f"unknown geometry kind: {kind!r}")


@dataclass(frozen=True)
class ConeModelOperator:
    """Scalar cone model of order m on (0, R] x link, in the x^gamma weighted space.

    Construction checks every field against the implemented derivation
    (m = n = 2, constant coefficients near the tip) and raises ValueError naming it.
    """

    order_m: int
    dim_n: int
    weight_gamma: float
    geometry: Geometry
    outer_radius_R: float
    constant_coefficients_near_tip: bool = True

    def __post_init__(self):
        for name in ("order_m", "dim_n"):
            value = _number(getattr(self, name), name, integral=True)
            if value != 2:
                raise ValueError(f"{name} must be 2: the implemented case is m = n = 2, got {value}")
            object.__setattr__(self, name, value)
        for name in ("weight_gamma", "outer_radius_R"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        g = self.weight_gamma
        if not -g - self.order_m < -g:  # also false for inf and nan
            raise ValueError(
                "weight_gamma must be finite and leave the critical strip (-γ-2, -γ) "
                f"a nonempty float interval, got {g!r}"
            )
        R = self.outer_radius_R
        if not 0.0 < R < math.inf:
            raise ValueError(f"outer_radius_R must be positive and finite, got {R!r}")
        if not isinstance(self.geometry, (ClosedLink, SectorLink)):
            raise ValueError(f"geometry must be a ClosedLink or SectorLink, got {self.geometry!r}")
        if self.constant_coefficients_near_tip is not True:
            raise ValueError(
                "constant_coefficients_near_tip must be true (a boolean), "
                f"got {self.constant_coefficients_near_tip!r}"
            )

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
            order_m=d["order_m"],
            dim_n=d["dim_n"],
            weight_gamma=d["weight_gamma"],
            geometry=geometry_from_json(d["geometry"]),
            outer_radius_R=d["outer_radius_R"],
            constant_coefficients_near_tip=d.get("constant_coefficients_near_tip", True),
        )


@dataclass(frozen=True)
class Ray:
    """Closed ray from the origin at angle theta, normalized into [0, 2π)."""

    angle_theta: float

    def __post_init__(self):
        th = _number(self.angle_theta, "ray angle")
        if not math.isfinite(th):
            raise ValueError(f"ray angle must be finite, got {th!r}")
        th %= TWO_PI
        if th == TWO_PI:  # fmod edge
            th = 0.0
        object.__setattr__(self, "angle_theta", th)


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

    @property
    def complete(self) -> bool:
        """All rays Minimal and no adjacent angular gap wider than pi*m/n."""
        return all(v.verdict == "Minimal" for v in self.rays) and (
            self.max_gap <= math.pi * self.m / self.n + 1e-12
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "schatten_p": self.schatten_p,
            "rays": [v.to_json_dict() for v in self.rays],
            "max_gap": self.max_gap,
            "complete": self.complete,
        }


def line_distance(u: np.ndarray, v: np.ndarray) -> float:
    """|sin| of the angle between the complex lines of two unit 2-vectors: |u0 v1 - u1 v0|."""
    return abs(u[0] * v[1] - u[1] * v[0])


@dataclass(frozen=True, eq=False)
class ExtensionDomain:
    """A line [a : b] in the 2-dimensional domain quotient of the one singular pair.

    Coordinates are taken in the canonical singular-function basis.  The
    line is stored through its unit representative coeffs: (a, b)
    divided by its largest real or imaginary part, then by its norm, so
    that nothing overflows or underflows.  Equality means the same line.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (2,):
            raise ValueError(f"an extension line needs two coefficients, got shape {c.shape}")
        parts = c.view(float)
        top = np.max(np.abs(parts))
        if not math.isfinite(top) or top == 0.0:  # also catches nan
            raise ValueError(f"extension coefficients must be finite and not both 0, got {tuple(c.tolist())}")
        parts /= top
        parts /= math.hypot(*parts)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def line(cls, coeffs) -> "ExtensionDomain":
        """The line [a : b] through the coordinate pair coeffs = (a, b)."""
        return cls(coeffs)

    # one line has many unit representatives, so equality is line equality
    def __eq__(self, other):
        if not isinstance(other, ExtensionDomain):
            return NotImplemented
        return line_distance(self.coeffs, other.coeffs) <= 1e-12
