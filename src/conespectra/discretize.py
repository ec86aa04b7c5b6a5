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

K and M are arrow-tridiagonal: a real symmetric tridiagonal hat block,
plus, when enriched, one complex border column with its conjugate row
and a corner.  The pencil stores those parts and nothing else (see
ArrowTridiagonal).  It is assembled in batches: every cell's local
integrals are one row of a (cells, points) array, summed along the row,
and the cell values are then added into the parts.  The hat block uses 8
Gauss points per cell, or 8 log-spaced subcells of 8 points on cells
wider than 0.3 x0 when nu > 0; the enrichment border and mass take it
for every nu on the cells below R/2, cut at R/4 where the cutoff's
second derivative jumps, and the corner 4 log-spaced subcells on
[R/4, R/2].  The summation order is that of a cell-by-cell loop, so the
parts of K and M are bit-identical to it: each cell integral is a pairwise
np.sum over its points in subcell order (a cut cell adds its two
pieces); a hat diagonal entry is cell i's right-right term plus cell
i+1's left-left term; an off-diagonal entry is cell i+1's left-right
term; a border entry of dof i is cell i's right part, then cell i+1's
left part; and the enrichment mass is a sequential sum over cells
followed by the tip closed form.

The Gram matrices of the weighted embedding (assemble_embedding_grams)
are summed from their cell integrals by the same rule, over every node
of an equal-cell grid in t = -log x on the one length [0, EMBED_T_MAX],
with the same Gauss rule and hat shapes; the mode pencil's hat block is
the interior slice of such a sum.  The Grams are borderless
ArrowTridiagonals; e^{2t} stays below e^40, so no entry leaves the doubles.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ConeModelOperator, ExtensionDomain, _number, complex_to_pair, complex_from_pair

__all__ = [
    "RadialGrid",
    "ArrowTridiagonal",
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
# the embedding's length in t = -log x: there its exact singular values are 1 / j'_{1,j} to 6.5e-16
EMBED_T_MAX = 20.0

_GAUSS8 = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes in (0, R]; the tip x=0 is never a node."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("grid needs at least 2 nodes")
        if not np.all(nodes > 0.0):
            raise ValueError("grid nodes must be positive")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def count(self) -> int:
        return len(self.nodes)

    @property
    def outer_radius(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def geometric(cls, R: float, N_h: int, q: float) -> "RadialGrid":
        """Geometric grading toward the tip: node_j = R * q_eff^(N_h - j).

        The requested ratio is honored as long as the first node stays
        above TIP_FLOOR_RATIO * R; deeper grids would only degrade the
        mass-matrix conditioning (the enrichment already carries the
        singular tip behavior), so the effective ratio is raised to pin
        node_1 at the floor instead.  R, q and N_h must be numbers, N_h integral.
        """
        R, N_h, q = _number(R, "R"), _number(N_h, "N_h", integral=True), _number(q, "q")
        if N_h < 2:
            raise ValueError("N_h must be at least 2")
        if not (0.0 < q < 1.0):
            raise ValueError("q must be in (0,1)")
        if not (R > 0.0 and math.isfinite(R)):
            raise ValueError("R must be positive")
        exponents = np.arange(N_h - 1, -1, -1, dtype=float)
        return cls(nodes=R * max(q, TIP_FLOOR_RATIO ** (1.0 / (N_h - 1))) ** exponents)


@dataclass(frozen=True)
class ArrowTridiagonal:
    """The n x n matrix [[T, b], [b^H, c]] of a mode pencil, stored as its parts.

    T is real symmetric tridiagonal of size n - d, with diagonal `diag`
    and off-diagonal `off`; d in {0, 1} complex border columns b (the
    rows of `border`, shape (d, n - d)) sit beside it with their
    conjugates below, and `corner` (shape (d,)) holds the d x d corner c.
    The matrix is Hermitian when c is real.  The arrays are read-only.
    """

    diag: np.ndarray
    off: np.ndarray
    border: np.ndarray
    corner: np.ndarray

    def __post_init__(self):
        for name, kind in (("diag", float), ("off", float), ("border", complex), ("corner", complex)):
            value = np.asarray(getattr(self, name))
            if kind is float and not np.isrealobj(value):
                raise ValueError(f"the tridiagonal block's {name} must be real")
            value = value.astype(kind)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        core = len(self.diag) if self.diag.ndim == 1 else 0
        d = len(self.corner) if self.corner.ndim == 1 else 2
        if core < 1 or d > 1 or self.off.shape != (core - 1,) or self.border.shape != (d, core):
            raise ValueError("arrow-tridiagonal parts of inconsistent shapes")

    @property
    def size(self) -> int:
        return len(self.diag) + len(self.corner)

    @property
    def nbytes(self) -> int:
        """The bytes of the four parts."""
        return sum(part.nbytes for part in (self.diag, self.off, self.border, self.corner))

    def dot(self, X) -> np.ndarray:
        """The product with X of shape (n,) or (n, m), from the parts.

        Elementwise products and sums only, with one scratch array of
        X's size, so that no BLAS kernel runs.
        """
        X = np.asarray(X)
        if X.ndim not in (1, 2) or X.shape[0] != self.size:
            raise ValueError(f"X must have shape (n,) or (n, m) with n = {self.size}, got {X.shape}")
        Xm = X.reshape(self.size, -1)
        core = len(self.diag)
        top, tail = Xm[:core], Xm[core:]
        Y = np.empty(Xm.shape, dtype=complex)
        scratch = np.empty((core, Xm.shape[1]), dtype=complex)
        np.multiply(self.diag[:, np.newaxis], top, out=Y[:core])
        np.multiply(self.off[:, np.newaxis], top[1:], out=scratch[1:])
        Y[: core - 1] += scratch[1:]
        np.multiply(self.off[:, np.newaxis], top[:-1], out=scratch[1:])
        Y[1:core] += scratch[1:]
        for b, c, x, y in zip(self.border, self.corner, tail, Y[core:]):  # d = 0 or 1 rows
            np.multiply(b[:, np.newaxis], x, out=scratch)
            Y[:core] += scratch
            np.multiply(c, x, out=y)
            y += np.einsum("k,km->m", b.conj(), top)
        return Y.reshape(X.shape)


@dataclass(frozen=True)
class DiscreteOperatorPencil:
    """Stiffness/mass pair of one mode in the weighted pairing, plus metadata.

    K and M are their arrow-tridiagonal parts: the hat blocks T_K and
    T_M, the enrichment borders and the corners (d = 1), or the hat
    blocks alone for the minimal pencil (d = 0).  The mass must be
    Hermitian, so its corner is real; the stiffness corner carries the
    enrichment's imaginary part.
    """

    K: ArrowTridiagonal
    M: ArrowTridiagonal
    basis_labels: list
    nu: float
    outer_radius_R: float
    enrichment_coeffs: Optional[tuple]  # (a, b) or None for the minimal pencil

    def __post_init__(self):
        if len(self.K.diag) != len(self.M.diag) or len(self.K.corner) != len(self.M.corner):
            raise ValueError("stiffness and mass of different shapes")
        if np.any(self.M.corner.imag):
            raise ValueError("the mass must be Hermitian: its corner is not real")

    @property
    def size(self) -> int:
        return self.K.size


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


def _log_edges(x0: np.ndarray, x1: np.ndarray, n_sub: int) -> np.ndarray:
    """The edges x0 (x1/x0)^(k/n_sub), k = 0..n_sub, of each cell [x0, x1], x0 > 0, one row per cell.

    The last edge is x1 itself: x0 (x1/x0)^1 can miss it by an ulp,
    which drops or repeats a sliver of the integrand.
    """
    edges = x0[:, None] * (x1 / x0)[:, None] ** (np.arange(n_sub + 1) / n_sub)
    edges[:, -1] = x1
    return edges


def _cell_rule(x0: np.ndarray, x1: np.ndarray, n_sub: int):
    """8-point Gauss points and weights on the cells [x0, x1], one row per cell.

    With n_sub > 1 each cell is split into n_sub log-spaced subcells
    (`_log_edges`), whose points follow one another along the row.
    """
    xi, wi = _GAUSS8
    if n_sub == 1:
        lo, hi = x0[:, None], x1[:, None]
    else:
        edges = _log_edges(x0, x1, n_sub)
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


def _hat_bands(ll: np.ndarray, lr: np.ndarray, rr: np.ndarray):
    """Diagonal and off-diagonal of the hat Gram on every node from the cells' hat-pair integrals.

    ll, lr and rr hold each cell's left-left, left-right and right-right
    integral.  Hat i is cell i-1's right hat plus cell i's left hat, so
    a diagonal entry is cell i-1's right-right term plus cell i's
    left-left, and off-diagonal entry i is cell i's left-right term.
    """
    return np.concatenate((ll[:1], rr[:-1] + ll[1:], rr[-1:])), lr


def _border_cells(x0: np.ndarray, x1: np.ndarray, R: float, nu: float, a: complex, b: complex):
    """Hat-enrichment integrals of the cells [x0, x1] over their pieces below and above R/4, up to R/2.

    Returns the rows k_left, k_right, m_left, m_right, m_enrichment of a
    (5, cells) array: the enrichment's stiffness and mass against each
    cell's left and right hat, and its own mass on the cell.
    """
    lo = np.concatenate((x0, np.maximum(x0, R / 4.0)))
    hi = np.concatenate((np.minimum(x1, R / 4.0), np.minimum(x1, R / 2.0)))
    cell, lo, hi = np.tile(np.arange(len(x0)), 2)[lo < hi], lo[lo < hi], hi[lo < hi]
    wide = (hi - lo) / lo > 0.3
    out = np.zeros((5, len(x0)), dtype=complex)
    for pieces, n_sub in ((~wide, 1), (wide, 8)):
        pts, wts = _cell_rule(lo[pieces], hi[pieces], n_sub)
        w, w1, _ = cutoff(pts, R)
        s0, s0p = _enrichment_s0(pts, nu, a, b)
        s_val, s_der = w * s0, w1 * s0 + w * s0p
        (vl, vr), (dl, dr) = _hat_shapes(pts, x0[cell[pieces]], x1[cell[pieces]])
        stiff = [s_der * di * pts + (nu**2) * s_val * vi / pts for vi, di in ((vl, dl), (vr, dr))]
        integrands = (*stiff, s_val * vl * pts, s_val * vr * pts, np.abs(s_val) ** 2 * pts)
        # a cell's two pieces add up the same in either order
        np.add.at(out, (slice(None), cell[pieces]), [np.sum(wts * f, axis=1) for f in integrands])
    return out


# an outer radius the assembly cannot represent overflows quietly here: the
# non-finite check at the end reports it as one FloatingPointError
@np.errstate(over="ignore", invalid="ignore")
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
        None builds the minimal pencil; a line [a : b] in the mode
        quotient adds the enrichment with its unit representative (a, b).

    Raises
    ------
    ValueError
        On scope violations: nu >= 1 with an enrichment (exponent -nu
        would leave the weighted space), grids too coarse for the tip
        closed form, or unsupported weights.
    OverflowError, FloatingPointError
        When an entry is not a finite float, as for outer radius 1e-200 or 1e200.
    """
    if model.weight_gamma != -1.0:
        raise ValueError("weighted assembly implemented for weight_gamma = -1 only")
    R = model.outer_radius_R
    nodes = grid.nodes
    if abs(grid.outer_radius - R) > 1e-12 * R:
        raise ValueError("grid outer node must equal the model's outer radius")
    if grid.count < 16:
        raise ValueError("grid too coarse: need at least 16 nodes")
    nu = math.sqrt(model.geometry.mu(mode_k))

    if domain is None:
        d = 0
        a = b = 0j
    else:
        if nu >= 1.0:
            raise ValueError(
                f"mode nu={nu:g}: enrichment exponent -nu <= -1 leaves the weighted space; "
                "only the minimal pencil (d=0) is admissible"
            )
        d = 1
        a, b = (complex(z) for z in domain.coeffs)
        if nodes[0] > R / 4.0:
            raise ValueError("grid too coarse for the enrichment tip closed form (node_1 > R/4)")

    n_nodes = grid.count
    n_core = n_nodes - 2  # hats at interior nodes; first and outer hat dropped

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
    # the interior hats: the first and the outer one are dropped
    bands = [(diag[1:-1], off[1:-1]) for diag, off in (_hat_bands(*stiff), _hat_bands(*mass))]
    borders = [np.zeros((d, n_core), dtype=complex) for _ in range(2)]
    corners = [np.zeros(d, dtype=complex) for _ in range(2)]
    labels = [f"hat_{j}" for j in range(2, n_nodes)]

    if d == 1:
        labels.append("enrichment ω·(a + b·log x)" if nu == 0.0 else f"enrichment ω·(a·x^{nu:.6g} + b·x^-{nu:.6g})")
        half = R / 2.0
        # hat-enrichment couplings and the enrichment mass on the cells below R/2
        m = int(np.count_nonzero(nodes[:-1] < half))
        kl, kr, ml, mr, mee = _border_cells(nodes[:m], nodes[1 : m + 1], R, nu, a, b)
        right = np.arange(min(m, n_core))  # cell i's right hat is dof i
        left = np.arange(1, m)  # cell i's left hat is dof i-1
        for (border,), (on_left, on_right) in zip(borders, ((kl, kr), (ml, mr))):
            border[right] += on_right[right]
            border[left - 1] += on_left[left]

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
        # summed over cells in order, not pairwise (see the module docstring)
        corners[1][0] = np.add.accumulate(mee)[-1] + mee_tip

        # <A s, s> in operator form over supp(omega') = [R/4, R/2]
        (pts,), (wts,) = _cell_rule(np.array([R / 4.0]), np.array([half]), 4)
        w, w1, w2 = cutoff(pts, R)
        s0, s0p = _enrichment_s0(pts, nu, a, b)
        commutator = -w2 * s0 - 2.0 * w1 * s0p - w1 * s0 / pts
        corners[0][0] = np.sum(wts * (commutator * np.conj(w * s0) * pts))

    K, M = (ArrowTridiagonal(*band, border, corner) for band, border, corner in zip(bands, borders, corners))
    for part in (*bands[0], *bands[1], *borders, *corners):
        if not np.isfinite(part).all():
            raise FloatingPointError(f"the mode pencil on (0, {R:g}] has an entry that is not finite")
    return DiscreteOperatorPencil(
        K=K,
        M=M,
        basis_labels=labels,
        nu=nu,
        outer_radius_R=R,
        enrichment_coeffs=(a, b) if d == 1 else None,
    )


def assemble_embedding_grams(N_h: int):
    """Gram matrices of the x^1 H^1_b and x^0 H^0_b norms on one hat space in log coordinates.

    In t = -log x on [0, EMBED_T_MAX], the x^gamma H^s_b norm of u is
    the H^s norm of v = e^{gamma t} u.  Both Grams are assembled on the
    full hat basis of N_h equal cells (free at both ends) with the hat
    block's 8-point Gauss rule, and are real symmetric tridiagonal and
    positive definite.  Returns (G_high, G_low) as borderless
    ArrowTridiagonal bands.
    """
    N_h = _number(N_h, "N_h", integral=True)
    if N_h < 16:
        raise ValueError("N_h must be at least 16")
    nodes = np.float64(EMBED_T_MAX) / N_h * np.arange(N_h + 1)
    x0, x1 = nodes[:-1], nodes[1:]
    pts, wts = _cell_rule(x0, x1, 1)
    (vl, vr), (dl, dr) = _hat_shapes(pts, x0, x1)
    # |e^t u|^2_{H^1} = int e^{2t} (|u|^2 + |u + u'|^2) dt and |u|^2_{L^2} = int |u|^2 dt;
    # the weight multiplies first, so that (u + u')(v + v') ~ 1/h^2 never forms alone
    weight = np.exp(2.0 * pts) * wts
    pairs = ((vl, dl, vl, dl), (vl, dl, vr, dr), (vr, dr, vr, dr))
    high = [
        np.sum(weight * vi * vj, axis=1) + np.sum(weight * (vi + di) * (vj + dj), axis=1)
        for vi, di, vj, dj in pairs
    ]
    low = [np.sum(wts * vi * vj, axis=1) for vi, _, vj, _ in pairs]
    return tuple(ArrowTridiagonal(*_hat_bands(*cells), np.zeros((0, N_h + 1)), np.zeros(0)) for cells in (high, low))


# layout fields of every container export_pencil writes; load_pencil reads no other
_LAYOUT = {
    "format_version": 2,
    "arrays": ["k_diag", "k_off", "m_diag", "m_off", "k_border", "m_border", "corners"],
    "real_dtype": "float64",
    "complex_dtype": "complex128",
    "byteorder": "little",
}
_HEADER_KEYS = set(_LAYOUT) | {"n", "border_rows", "basis_labels", "nu", "outer_radius_R", "enrichment"}


def export_pencil(pencil: DiscreteOperatorPencil, path) -> None:
    """Write the pencil to a binary container: JSON preamble + its parts as little-endian numbers.

    After the header come T_K's diagonal and off-diagonal and T_M's, as
    float64; then the stiffness and mass border rows and the corners
    (stiffness, then mass), as complex128.
    """
    K, M = pencil.K, pencil.M
    header = {
        **_LAYOUT,
        "n": pencil.size,
        "border_rows": len(K.corner),
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
        for part in (K.diag, K.off, M.diag, M.off):
            fh.write(part.astype("<f8").tobytes())
        for part in (K.border, M.border, np.concatenate((K.corner, M.corner))):
            fh.write(part.astype("<c16").tobytes())


# the reader of the pencil.bin artifact (see the README); no stage reads one back
def load_pencil(path) -> DiscreteOperatorPencil:
    """Read a container of export_pencil back.

    Raises ValueError unless the header has exactly export_pencil's
    fields and layout (a version-1 file, which held dense K and M, is
    refused), with a positive n, 0 or 1 border rows d < n, n string
    basis labels, a finite nu >= 0, a positive finite R, and an
    enrichment that is null for d = 0 and two finite [re, im] pairs for d = 1,
    followed by exactly the parts' 4(n - d) - 2 real and 2d(n - d + 1)
    complex values, all finite.
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
    n, d = header["n"], header["border_rows"]
    if type(n) is not int or n < 1:
        raise ValueError(f"pencil size n must be a positive integer, got {n!r}")
    if type(d) is not int or d not in (0, 1) or d >= n:
        raise ValueError(f"border_rows must be 0 or 1 and below n = {n}, got {d!r}")
    labels = header["basis_labels"]
    if not isinstance(labels, list) or len(labels) != n or not all(isinstance(s, str) for s in labels):
        raise ValueError(f"pencil header needs a list of n = {n} basis labels, each a string")
    nu, R = _number(header["nu"], "nu"), _number(header["outer_radius_R"], "outer_radius_R")
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and nonnegative, got {nu!r}")
    if not 0.0 < R < math.inf:
        raise ValueError(f"outer_radius_R must be positive and finite, got {R!r}")
    enrich = header["enrichment"]
    pairs = isinstance(enrich, list) and len(enrich) == 2 and all(isinstance(v, list) and len(v) == 2 for v in enrich)
    if not (enrich is None if d == 0 else pairs):
        raise ValueError(f"enrichment must be null for 0 border rows and two [re, im] pairs for 1, got {enrich!r}")
    coeffs = None if enrich is None else tuple(complex_from_pair(v, "enrichment") for v in enrich)
    if coeffs is not None and not np.isfinite(coeffs).all():
        raise ValueError(f"enrichment coefficients must be finite, got {enrich!r}")
    core = n - d
    sizes = [(core, "<f8"), (core - 1, "<f8")] * 2 + [(d * core, "<c16")] * 2 + [(2 * d, "<c16")]
    expected = sum(count * np.dtype(kind).itemsize for count, kind in sizes)
    if len(raw) != expected:
        raise ValueError(f"{len(raw)} data bytes, not {expected}: truncated or trailing data")
    parts, offset = [], 0
    for name, (count, kind) in zip(_LAYOUT["arrays"], sizes):
        parts.append(np.frombuffer(raw, dtype=kind, count=count, offset=offset))
        offset += count * np.dtype(kind).itemsize
        if not np.isfinite(parts[-1]).all():
            raise ValueError(f"pencil array {name} has a value that is not finite")
    k_diag, k_off, m_diag, m_off, k_border, m_border, corners = parts
    return DiscreteOperatorPencil(
        K=ArrowTridiagonal(k_diag, k_off, k_border.reshape(d, core), corners[:d]),
        M=ArrowTridiagonal(m_diag, m_off, m_border.reshape(d, core), corners[d:]),
        basis_labels=labels,
        nu=nu,
        outer_radius_R=R,
        enrichment_coeffs=coeffs,
    )
