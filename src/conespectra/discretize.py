"""Enriched weighted Galerkin discretization of one angular mode.

Per mode the truncated operator is L_nu u = -u'' - u'/x + nu^2 u/x^2 on
(0, R] with u(R) = 0, acting in the weighted pairing <u, v> =
int u conj(v) x dx (the weight gamma = -1 case of x^{-2 gamma - 1} dx).
The Galerkin space is the hat functions on a tip-graded grid, minus the
boundary hat at R and the first hat (so the core embeds into the
minimal domain), plus one enrichment function omega(x) * s0(x) carrying
the domain's singular pair, s0 = a x^nu + b x^{-nu} (or a + b log x for
nu = 0).

The enrichment-enrichment stiffness entry is assembled in operator form
<A s, s> = int [L, omega] s0 * conj(omega s0) x dx over supp(omega'),
which is finite because L s0 = 0; the weak energy form diverges at the
tip for nu > 0 and must not be used there.

The pencil is assembled in batches: every cell's local integrals are
one row of a (cells, points) array, summed along the row, and the cell
values are then placed into the dense K and M.  The hat block uses 8
Gauss points per cell, or 8 log-spaced subcells of 8 points on cells
wider than 0.3 x0 when nu > 0, all cells at once; the enrichment
border and mass use 16 log-spaced subcells on every cell below R/2,
32 cells at a time so that their scratch arrays stay small whatever
the grid size.  The summation order is that of a cell-by-cell loop, so
K and M are bit-identical to it: each cell integral is a pairwise
np.sum over its points in subcell order; a hat diagonal entry is cell
i's right-right term plus cell i+1's left-left term; an off-diagonal
entry is cell i+1's left-right term; a border entry of dof i is cell
i's right part, then cell i+1's left part; and the enrichment mass is
a sequential sum over cells followed by the tip closed form.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ConeModelOperator,
    ExtensionDomain,
    WeightedSobolevParams,
    complex_to_pair,
    complex_from_pair,
    require_valid,
)

__all__ = [
    "RadialGrid",
    "DiscreteOperatorPencil",
    "assemble_mode_pencil",
    "assemble_embedding_grams",
    "export_pencil",
    "load_pencil",
    "cutoff",
]

# effective-ratio floor: node_1 never drops below this fraction of R,
# keeping the mass matrix inside the conditioning gate
TIP_FLOOR_RATIO = 1e-3

_GAUSS8 = np.polynomial.legendre.leggauss(8)
_GAUSS10 = np.polynomial.legendre.leggauss(10)
# cells per batch of enrichment integrals (128 points each): bounds their
# scratch arrays whatever the grid size
_BORDER_BATCH = 32


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes in (0, R]; the tip x=0 is never a node."""

    nodes: np.ndarray
    grading: str  # "geometric" | "uniform"
    ratio: Optional[float] = None  # consecutive-node ratio for geometric grids

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("grid needs at least 2 nodes")
        if not np.all(nodes > 0.0):
            raise ValueError("grid nodes must be positive")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if self.grading == "geometric":
            q = self.ratio
            if q is None or not (0.0 < q < 1.0):
                raise ValueError("geometric grid requires ratio in (0,1)")
            ratios = nodes[:-1] / nodes[1:]
            if np.max(np.abs(ratios - q)) > 1e-12:
                raise ValueError("geometric grid nodes do not honor the declared ratio")
        elif self.grading != "uniform":
            raise ValueError(f"unknown grading {self.grading!r}")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def count(self) -> int:
        return len(self.nodes)

    @property
    def outer_radius(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def geometric(cls, R: float, N_h: int, q: float = 0.9) -> "RadialGrid":
        """Geometric grading toward the tip: node_j = R * q_eff^(N_h - j).

        The requested ratio is honored as long as the first node stays
        above TIP_FLOOR_RATIO * R; deeper grids would only degrade the
        mass-matrix conditioning (the enrichment already carries the
        singular tip behavior), so the effective ratio is raised to pin
        node_1 at the floor instead.
        """
        if N_h < 2:
            raise ValueError("N_h must be at least 2")
        if not (0.0 < q < 1.0):
            raise ValueError("q must be in (0,1)")
        if not (R > 0.0 and math.isfinite(R)):
            raise ValueError("R must be positive")
        q_eff = max(q, TIP_FLOOR_RATIO ** (1.0 / (N_h - 1)))
        exponents = np.arange(N_h - 1, -1, -1, dtype=float)
        nodes = R * q_eff ** exponents
        return cls(nodes=nodes, grading="geometric", ratio=q_eff)

    @classmethod
    def uniform(cls, R: float, N_h: int) -> "RadialGrid":
        if N_h < 2:
            raise ValueError("N_h must be at least 2")
        nodes = R * np.arange(1, N_h + 1, dtype=float) / N_h
        return cls(nodes=nodes, grading="uniform", ratio=None)


@dataclass(frozen=True)
class DiscreteOperatorPencil:
    """Stiffness/mass pair of one mode in the weighted pairing, plus metadata."""

    K: np.ndarray
    M: np.ndarray
    basis_labels: list
    nu: float
    outer_radius_R: float
    enrichment_coeffs: Optional[tuple]  # (a, b) or None for the minimal pencil

    def __post_init__(self):
        for name in ("K", "M"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)

    @property
    def size(self) -> int:
        return self.K.shape[0]


def cutoff(x, R: float):
    """C^2 quintic cutoff and its first two derivatives.

    Identically 1 on [0, R/4], identically 0 on [R/2, R], monotone
    polynomial joint in between.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = R / 4.0, R / 2.0
    t = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    s = t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    s1 = 30.0 * t**2 * (1.0 - 2.0 * t + t**2)
    s2 = 60.0 * t * (1.0 - 3.0 * t + 2.0 * t**2)
    inside = (x > lo) & (x < hi)
    scale = 1.0 / (hi - lo)
    w = 1.0 - s
    w1 = np.where(inside, -s1 * scale, 0.0)
    w2 = np.where(inside, -s2 * scale**2, 0.0)
    w = np.where(x <= lo, 1.0, np.where(x >= hi, 0.0, w))
    return w, w1, w2


def _enrichment_s0(x, nu: float, a: complex, b: complex):
    """Value and derivative of the raw singular pair s0."""
    x = np.asarray(x, dtype=float)
    if nu == 0.0:
        val = a + b * np.log(x)
        der = b / x
    else:
        val = a * x**nu + b * x ** (-nu)
        der = a * nu * x ** (nu - 1.0) - b * nu * x ** (-nu - 1.0)
    return val, der


def _cell_rule(x0: np.ndarray, x1: np.ndarray, n_sub: int):
    """8-point Gauss points and weights on the cells [x0, x1], one row per cell.

    With n_sub > 1 each cell is split into n_sub log-spaced subcells
    (x0 > 0), whose points follow one another along the row.
    """
    xi, wi = _GAUSS8
    if n_sub == 1:
        lo, hi = x0[:, None], x1[:, None]
    else:
        edges = x0[:, None] * (x1 / x0)[:, None] ** (np.arange(n_sub + 1) / n_sub)
        lo, hi = edges[:, :-1], edges[:, 1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    shape = (len(x0), 8 * n_sub)
    pts = (mid[:, :, None] + half[:, :, None] * xi).reshape(shape)
    return pts, (half[:, :, None] * wi).reshape(shape)


def _hat_shapes(pts: np.ndarray, x0: np.ndarray, x1: np.ndarray):
    """Values at pts and slopes of the left and right hats of the cells [x0, x1]."""
    h = (x1 - x0)[:, None]
    values = ((x1[:, None] - pts) / h, (pts - x0[:, None]) / h)
    return values, (-1.0 / h, 1.0 / h)


def _border_cells(x0: np.ndarray, x1: np.ndarray, R: float, nu: float, a: complex, b: complex):
    """Hat-enrichment integrals of the cells [x0, x1] over their part below R/2.

    Returns the stiffness and mass of the enrichment against each
    cell's left and right hat, and the enrichment's own mass on the
    cell, as arrays over the cells: (k_left, k_right, m_left, m_right,
    m_enrichment).
    """
    pts, wts = _cell_rule(x0, np.minimum(x1, R / 2.0), 16)
    w, w1, _ = cutoff(pts, R)
    s0, s0p = _enrichment_s0(pts, nu, a, b)
    s_val = w * s0
    s_der = w1 * s0 + w * s0p
    (vl, vr), (dl, dr) = _hat_shapes(pts, x0, x1)
    k_left, k_right = (
        np.sum(wts * (s_der * di * pts + (nu**2) * s_val * vi / pts), axis=1)
        for vi, di in ((vl, dl), (vr, dr))
    )
    m_left, m_right = (np.sum(wts * (s_val * vi * pts), axis=1) for vi in (vl, vr))
    return k_left, k_right, m_left, m_right, np.sum(wts * (np.abs(s_val) ** 2 * pts), axis=1)


def assemble_mode_pencil(
    model: ConeModelOperator,
    mode_k: int,
    grid: RadialGrid,
    domain: Optional[ExtensionDomain],
) -> DiscreteOperatorPencil:
    """Assemble the (K, M) pencil of one angular mode on the given grid.

    Parameters
    ----------
    model : ConeModelOperator
        Must have weight_gamma = -1 (the weighted pairing implemented here).
    mode_k : int
        Angular mode; nu = sqrt(mu_k).
    grid : RadialGrid
        Outer node must equal the model's outer radius.
    domain : ExtensionDomain or None
        None (or a 0-column domain) builds the minimal pencil; a
        one-dimensional domain in the 2-dimensional mode quotient adds
        the enrichment with coefficients (a, b) read off its column.

    Raises
    ------
    ValueError
        On scope violations: nu >= 1 with an enrichment (exponent -nu
        would leave the weighted space), grids too coarse for the tip
        closed form, or unsupported weights.
    """
    require_valid(model)
    if abs(model.weight_gamma + 1.0) > 1e-12:
        raise ValueError("weighted assembly implemented for weight_gamma = -1 only")
    R = model.outer_radius_R
    nodes = grid.nodes
    if abs(grid.outer_radius - R) > 1e-12 * R:
        raise ValueError("grid outer node must equal the model's outer radius")
    if grid.count < 16:
        raise ValueError("grid too coarse: need at least 16 nodes")
    nu = math.sqrt(model.geometry.mu(mode_k))

    if domain is None or domain.dim_d == 0:
        d = 0
        a = b = 0j
    else:
        if domain.quotient_dim_D != 2 or domain.dim_d != 1:
            raise ValueError("enrichment domains must be 1-dimensional in a 2-dimensional quotient")
        if nu >= 1.0:
            raise ValueError(
                f"mode nu={nu:g}: enrichment exponent -nu <= -1 leaves the weighted space; "
                "only the minimal pencil (d=0) is admissible"
            )
        d = 1
        a, b = (complex(z) for z in domain.basis_matrix[:, 0])
        if nodes[0] > R / 4.0:
            raise ValueError("grid too coarse for the enrichment tip closed form (node_1 > R/4)")

    n_nodes = grid.count
    n_core = n_nodes - 2  # hats at interior nodes; first and outer hat dropped
    n = n_core + d
    K = np.zeros((n, n), dtype=complex)
    M = np.zeros((n, n), dtype=complex)

    # hat block: (left, right) hat integrals of every cell at once; dof i
    # sits at node index i+1, so it is cell i's right hat and cell i+1's left
    x0, x1 = nodes[:-1], nodes[1:]
    # steep 1/x potential on wide-relative cells: split geometrically
    wide = (nu > 0.0) & ((x1 - x0) / x0 > 0.3)
    stiff = np.empty((3, n_nodes - 1))  # rows: left-left, left-right, right-right
    mass = np.empty((3, n_nodes - 1))
    for cells, n_sub in ((~wide, 1), (wide, 8)):
        pts, wts = _cell_rule(x0[cells], x1[cells], n_sub)
        (vl, vr), (dl, dr) = _hat_shapes(pts, x0[cells], x1[cells])
        pairs = ((vl, dl, vl, dl), (vl, dl, vr, dr), (vr, dr, vr, dr))
        for row, (vi, di, vj, dj) in enumerate(pairs):
            stiff[row, cells] = np.sum(wts * (di * dj * pts + (nu**2) * vi * vj / pts), axis=1)
            mass[row, cells] = np.sum(wts * (vi * vj * pts), axis=1)
    dof = np.arange(n_core)
    for A, (ll, lr, rr) in ((K, stiff), (M, mass)):
        A[dof, dof] += rr[:-1]
        A[dof, dof] += ll[1:]
        A[dof[:-1], dof[1:]] += lr[1:-1]
        A[dof[1:], dof[:-1]] += lr[1:-1]

    if d == 1:
        e = n_core  # enrichment column index
        half = R / 2.0
        # hat-enrichment couplings and the enrichment mass on the cells below R/2
        m = int(np.count_nonzero(nodes[:-1] < half))
        x0, x1 = nodes[:m], nodes[1 : m + 1]
        batches = [
            _border_cells(x0[lo : lo + _BORDER_BATCH], x1[lo : lo + _BORDER_BATCH], R, nu, a, b)
            for lo in range(0, m, _BORDER_BATCH)
        ]
        kl, kr, ml, mr, mee = (np.concatenate(parts) for parts in zip(*batches))
        right = np.arange(min(m, n_core))  # cell i's right hat is dof i
        left = np.arange(1, m)  # cell i's left hat is dof i-1
        for A, (on_left, on_right) in ((K, (kl, kr)), (M, (ml, mr))):
            A[right, e] += on_right[right]
            A[e, right] += np.conj(on_right[right])
            A[left - 1, e] += on_left[left]
            A[e, left - 1] += np.conj(on_left[left])
        # summed over cells in order, not pairwise (see the module docstring)
        M[e, e] += np.add.accumulate(mee)[-1]

        # tip closed form on (0, node_1], where omega = 1
        c = nodes[0]
        if nu == 0.0:
            lc = math.log(c)
            mee_tip = (
                abs(a) ** 2 * c**2 / 2.0
                + 2.0 * (a * np.conj(b)).real * (c**2 / 2.0) * (lc - 0.5)
                + abs(b) ** 2 * (c**2 / 2.0) * (lc**2 - lc + 0.5)
            )
        else:
            mee_tip = (
                abs(a) ** 2 * c ** (2.0 * nu + 2.0) / (2.0 * nu + 2.0)
                + 2.0 * (a * np.conj(b)).real * c**2 / 2.0
                + abs(b) ** 2 * c ** (2.0 - 2.0 * nu) / (2.0 - 2.0 * nu)
            )
        M[e, e] += mee_tip

        # <A s, s> in operator form over supp(omega') = [R/4, R/2]
        (pts,), (wts,) = _cell_rule(np.array([R / 4.0]), np.array([half]), 24)
        w, w1, w2 = cutoff(pts, R)
        s0, s0p = _enrichment_s0(pts, nu, a, b)
        commutator = -w2 * s0 - 2.0 * w1 * s0p - w1 * s0 / pts
        K[e, e] = np.sum(wts * (commutator * np.conj(w * s0) * pts))

    labels = [f"hat_{j}" for j in range(2, n_nodes)]
    if d == 1:
        if nu == 0.0:
            labels.append("enrichment ω·(a + b·log x)")
        else:
            labels.append(f"enrichment ω·(a·x^{nu:.6g} + b·x^-{nu:.6g})")
    return DiscreteOperatorPencil(
        K=K,
        M=M,
        basis_labels=labels,
        nu=nu,
        outer_radius_R=R,
        enrichment_coeffs=(a, b) if d == 1 else None,
    )


def assemble_embedding_grams(
    high: WeightedSobolevParams,
    low: WeightedSobolevParams,
    t_max: float,
    N_h: int,
):
    """Gram matrices of two weighted norms on the same hat space in log coordinates.

    In t = -log x on [0, t_max], the x^gamma H^s_b norm of u is the
    (s in {0,1}) Sobolev norm of v = e^{gamma t} u.  Both Grams are
    assembled on the full hat basis (free at both ends) with per-cell
    Gauss quadrature, and are Hermitian positive definite.
    """
    for p in (high, low):
        if p.dim_n != 1:
            raise ValueError("embedding Grams are one-dimensional in v1")
        if p.smoothness_s not in (0.0, 1.0, 0, 1):
            raise ValueError("smoothness s must be 0 or 1 in v1")
    if not (high.smoothness_s > low.smoothness_s):
        raise ValueError("need high.smoothness_s > low.smoothness_s")
    if not (high.weight > low.weight):
        raise ValueError("need high.weight > low.weight")
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError("t_max must be positive")
    if N_h < 16:
        raise ValueError("N_h must be at least 16")

    h = t_max / N_h
    xi, wi = _GAUSS10
    # reference points replicated across all cells at once
    t0 = h * np.arange(N_h)[:, None]
    pts = t0 + 0.5 * h * (xi + 1.0)[None, :]
    wts = 0.5 * h * wi[None, :]
    phi_l = 1.0 - (pts - t0) / h
    phi_r = (pts - t0) / h
    dl, dr = -1.0 / h, 1.0 / h

    def gram(s: float, gam: float) -> np.ndarray:
        g = np.zeros((N_h + 1, N_h + 1))
        weight = np.exp(2.0 * gam * pts) * wts
        vals = {"l": phi_l, "r": phi_r}
        ders = {"l": dl, "r": dr}
        for aa in ("l", "r"):
            for bb in ("l", "r"):
                cell = np.sum(weight * vals[aa] * vals[bb], axis=1)
                if s == 1:
                    cell = cell + np.sum(
                        weight
                        * (gam * vals[aa] + ders[aa])
                        * (gam * vals[bb] + ders[bb]),
                        axis=1,
                    )
                ia = np.arange(N_h) + (0 if aa == "l" else 1)
                ib = np.arange(N_h) + (0 if bb == "l" else 1)
                np.add.at(g, (ia, ib), cell)
        return g

    g_high = gram(float(high.smoothness_s), float(high.weight))
    g_low = gram(float(low.smoothness_s), float(low.weight))
    return g_high, g_low


# layout fields of every container export_pencil writes; load_pencil reads no other
_LAYOUT = {
    "format_version": 1,
    "matrices": ["K", "M"],
    "dtype": "complex128",
    "order": "row-major",
    "byteorder": "little",
}
_HEADER_KEYS = set(_LAYOUT) | {"n", "basis_labels", "nu", "outer_radius_R", "enrichment"}


def export_pencil(pencil: DiscreteOperatorPencil, path) -> None:
    """Write the pencil to a binary container: JSON preamble + row-major little-endian doubles."""
    n = pencil.size
    header = {
        **_LAYOUT,
        "n": n,
        "basis_labels": list(pencil.basis_labels),
        "nu": pencil.nu,
        "outer_radius_R": pencil.outer_radius_R,
        "enrichment": None
        if pencil.enrichment_coeffs is None
        else [complex_to_pair(z) for z in pencil.enrichment_coeffs],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(pencil.K).astype("<c16").tobytes())
        fh.write(np.ascontiguousarray(pencil.M).astype("<c16").tobytes())


def load_pencil(path) -> DiscreteOperatorPencil:
    """Read a container of export_pencil back.

    Raises ValueError unless the header has exactly export_pencil's
    fields and layout with a positive n and n basis labels, followed by
    exactly the 2 n^2 complex values of K and M.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError("truncated pencil container")
        (hlen,) = struct.unpack("<Q", prefix)
        header = json.loads(fh.read(hlen).decode("utf-8"))
        raw = fh.read()
    if not isinstance(header, dict) or set(header) != _HEADER_KEYS:
        raise ValueError("pencil header fields differ from export_pencil's")
    layout = {key: header[key] for key in _LAYOUT}
    if layout != _LAYOUT:
        raise ValueError(f"unsupported pencil layout {layout}")
    n = header["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"pencil size n must be a positive integer, got {n!r}")
    labels = header["basis_labels"]
    if not isinstance(labels, list) or len(labels) != n:
        raise ValueError(f"pencil header needs a list of n = {n} basis labels")
    block = n * n * 16
    if len(raw) != 2 * block:
        raise ValueError(f"{len(raw)} data bytes, not {2 * block}: truncated or trailing data")
    K = np.frombuffer(raw[:block], dtype="<c16").reshape(n, n).astype(complex)
    M = np.frombuffer(raw[block:], dtype="<c16").reshape(n, n).astype(complex)
    enrich = header["enrichment"]
    return DiscreteOperatorPencil(
        K=K,
        M=M,
        basis_labels=labels,
        nu=float(header["nu"]),
        outer_radius_R=float(header["outer_radius_R"]),
        enrichment_coeffs=None
        if enrich is None
        else tuple(complex_from_pair(v) for v in enrich),
    )
