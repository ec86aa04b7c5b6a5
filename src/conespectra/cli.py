"""Experiment driver: reproduce the cone-spectra experiments from JSON configs.

Subcommands
-----------
indicial      boundary spectrum, critical strip, singular basis of the model
flow          kappa-dilation flow of an extension line and its limit set
normal-check  exact minimal-growth criterion for the tip model operator
spectrum      enriched mode pencil eigenvalues vs the secular-equation oracle
resolvent     resolvent norms along rays with growth-slope verdicts
complete      eigenvector-expansion residuals of a smooth bump
embed         weighted-embedding singular values and Schatten exponent fit
certify       ray-fan completeness certificate
example52     full pipeline on the closed link (disk-like tip)
example53     full pipeline on the sector (default opening 3*pi/2)

Exit codes: 0 success, 1 threshold miss, 2 config error, 3 numerical
failure (the failing stage is named on stderr).

Every subcommand runs one slice of a single ordered stage table
(indicial, flow, normal-check, spectrum, resolvent, complete, certify,
embed): the named stage plus the stages whose results it reads, each
computed once.  Every stage's scope is checked before any of them runs.
All artifacts of the stages run are written under the configured
outputs directory; identical configs give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

from . import __version__
from .model import (
    SLOPE_WINDOW,
    ConeModelOperator,
    ExtensionDomain,
    Ray,
    RayVerdict,
    _check_known_keys,
    _number,
    complex_from_pair,
    complex_to_pair,
    line_distance,
)
from .indicial import (
    boundary_spectrum,
    critical_strip,
    dmin_is_weighted_sobolev,
    singular_basis,
)
from .grassmann import RHO_SCHEDULE, omega_minus
from .normalop import ray_minimal_growth_normal, strip_mode
from .discretize import RadialGrid, assemble_mode_pencil, assemble_embedding_grams, export_pencil
from .spectral import (
    BESSEL_ORDER_LIMIT,
    IllConditionedMass,
    RootFindingError,
    completeness_certificate,
    completeness_residual,
    dirichlet_mode_eigenvalues,
    embedding_singular_values,
    oracle_eigenvalues,
    ray_minimal_growth_full,
    retained_count,
    schatten_fit,
    solve_pencil,
)

SCHEMA_VERSION = 1
DEFAULT_RAYS = (0.5 * math.pi, 1.5 * math.pi)
# the default of every config field outside the model block, written once
CONFIG_DEFAULTS = {
    "extension": {"a": [1.0, 0.0], "b": [0.0, 0.0]},
    "rays": list(DEFAULT_RAYS),
    "discretization": {"N_h": 400},
    "outputs_dir": "out",
}
ORACLE_MATCH_RTOL = 0.005
# flow.csv distances against their closed form, relative
FLOW_MATCH_RTOL = 1e-12
RESIDUAL_DECAY_FACTOR = 0.05
EMBED_P_WINDOW = (0.87, 1.18)
# the radial grid's ratio: node_1 <= 0.9^15 R < R/4, inside the enrichment's tip
# closed form, for every N_h in scope (from N_h = 67 on the tip floor sets it at 1e-3 R)
GRID_RATIO = 0.9
# embed runs on t = -log x in [0, EMBED_T_MAX]; at 20 the exact singular values
# are the infinite cone's, 1 / j'_{1,j}, to 6.5e-16
EMBED_T_MAX = 20.0
# the j-th singular function x Z_1(k_j x), k_j ~ j pi, has half-waves about 1/j long
# in t near t = 0, so hats EMBED_T_MAX / N_h wide resolve it up to j ~ N_h / EMBED_T_MAX,
# and the decay fit stays below that (index 20 at the default N_h = 400)
EMBED_FIT_RANGE = (5, 20)
RESIDUAL_COUNTS = (5, 10, 15, 20, 25, 30, 35, 40)
# the full-pipeline subcommands and the geometry each runs without a config
EXAMPLES = {"example52": "closed", "example53": "sector"}


class ConfigError(ValueError):
    """The experiment configuration cannot be used."""


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


_NUMERICAL_ERRORS = (
    IllConditionedMass,
    RootFindingError,
    np.linalg.LinAlgError,
    ArithmeticError,  # ZeroDivisionError, OverflowError, FloatingPointError
)


# ----------------------------------------------------------------------
# configuration


class ExperimentConfig:
    """Strictly parsed experiment description; unknown fields are rejected."""

    def __init__(self, model, a, b, rays, N_h, outputs_dir):
        self.model = model
        self.a = a
        self.b = b
        self.rays = rays
        self.N_h = N_h
        if not isinstance(outputs_dir, (str, os.PathLike)):
            raise ConfigError(f"outputs_dir must be a path string, got {outputs_dir!r}")
        self.outputs_dir = Path(outputs_dir)
        # every stage runs on the line's unit representative; the config echo keeps (a, b)
        self.line = ExtensionDomain.line([a, b])
        if not self.rays:
            raise ConfigError("at least one ray is required")
        if self.N_h < 16:
            raise ConfigError("discretization.N_h must be at least 16")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            _check_known_keys(
                d,
                {"geometry", "extension", "rays", "discretization", "outputs_dir"},
                "ExperimentConfig",
            )
            geometry = d.get("geometry")
            if geometry is None:
                raise ConfigError("config needs a 'geometry' block")
            model = ConeModelOperator.from_json_dict(geometry)
            singular_basis(model)  # ValueError: a root too near a weight line
            d = {**CONFIG_DEFAULTS, **d}
            ext = {**CONFIG_DEFAULTS["extension"], **d["extension"]}
            _check_known_keys(ext, {"a", "b"}, "extension")
            a = complex_from_pair(ext["a"], "extension.a")
            b = complex_from_pair(ext["b"], "extension.b")
            rays = [Ray(_number(t, "rays")) for t in d["rays"]]
            disc = {**CONFIG_DEFAULTS["discretization"], **d["discretization"]}
            _check_known_keys(disc, {"N_h"}, "discretization")
            N_h = _number(disc["N_h"], "discretization.N_h", integral=True)
            return cls(model, a, b, rays, N_h, d["outputs_dir"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_json_dict(self) -> dict:
        return {
            "geometry": self.model.to_json_dict(),
            "extension": {"a": complex_to_pair(self.a), "b": complex_to_pair(self.b)},
            "rays": [r.angle_theta for r in self.rays],
            "discretization": {"N_h": self.N_h},
            "outputs_dir": str(self.outputs_dir),
        }


def _default_config_dict(kind: str) -> dict:
    if kind == "closed":
        geometry = {"kind": "closed_link"}
    else:
        geometry = {"kind": "sector_link", "alpha": 1.5 * math.pi}
    return {
        "geometry": {
            "order_m": 2,
            "dim_n": 2,
            "weight_gamma": -1.0,
            "geometry": geometry,
            "outer_radius_R": 1.0,
            "constant_coefficients_near_tip": True,
        },
        **copy.deepcopy(CONFIG_DEFAULTS),
    }


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            raw = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            d = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
    else:
        d = _default_config_dict(EXAMPLES.get(args.command, "sector"))

    for key in ("geometry", "extension", "discretization"):
        if not isinstance(d.setdefault(key, {}), dict):
            raise ConfigError(f"'{key}' must be a JSON object, got {d[key]!r}")
    if args.alpha is not None:
        d["geometry"]["geometry"] = {"kind": "sector_link", "alpha": args.alpha}
    if args.gamma is not None:
        d["geometry"]["weight_gamma"] = args.gamma
    for key in ("a", "b"):
        re_part = getattr(args, key)
        im_part = getattr(args, key + "_im")
        if re_part is not None or im_part is not None:
            try:
                default = CONFIG_DEFAULTS["extension"][key]
                prev = complex_from_pair(d["extension"].get(key, default), f"extension.{key}")
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            d["extension"][key] = [
                re_part if re_part is not None else prev.real,
                im_part if im_part is not None else prev.imag,
            ]
    if args.theta is not None:
        d["rays"] = [args.theta]
    if args.nh is not None:
        d["discretization"]["N_h"] = args.nh
    if args.out is not None:
        d["outputs_dir"] = str(args.out)
    return ExperimentConfig.from_json_dict(d)


# ----------------------------------------------------------------------
# artifact helpers


# the writer's guard: the stages hand over Python numbers, and a complex or
# numpy one that slips into a payload is still written as plain JSON
def _json_default(obj):
    if isinstance(obj, complex):
        return complex_to_pair(obj)
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()  # Python numbers, lists of them for an array
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    )


def _fmt_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# shared pipeline pieces


def _build_pencil(cfg: ExperimentConfig):
    """Assemble the mode pencil: enriched on the strip mode, else the first mode bare."""
    grid = RadialGrid.geometric(cfg.model.outer_radius_R, cfg.N_h, GRID_RATIO)
    sm = strip_mode(cfg.model)
    if sm is None:
        mode_k, domain = next(iter(cfg.model.geometry.modes_by_abs())), None
    else:
        mode_k, domain = sm[0], cfg.line
    return assemble_mode_pencil(cfg.model, mode_k, grid, domain), mode_k, grid


def _bump_vector(pencil, grid: RadialGrid) -> np.ndarray:
    """Unit-M-norm coefficients of a smooth bump supported in mid-annulus."""
    R = grid.outer_radius
    x = grid.nodes[1:-1]
    s = (x - 0.6 * R) / (0.25 * R)
    vals = np.zeros(len(x))
    inside = np.abs(s) < 1.0
    vals[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    coeffs = vals.astype(complex)
    if pencil.size == len(x) + 1:
        coeffs = np.concatenate([coeffs, [0.0 + 0.0j]])
    norm = math.sqrt(abs(np.vdot(coeffs, pencil.mass.dot(coeffs))))
    return coeffs / norm


def _oracle_for(cfg: ExperimentConfig, pencil, how_many: int) -> np.ndarray:
    """Reference eigenvalues for the pencil's mode, independent of the Galerkin step."""
    R = cfg.model.outer_radius_R
    if pencil.enrichment_coeffs is not None:
        a, b = pencil.enrichment_coeffs
        return oracle_eigenvalues(pencil.nu, a, b, R, how_many)
    return dirichlet_mode_eigenvalues(pencil.nu, R, how_many).astype(complex)


def _column(line: ExtensionDomain) -> list:
    """The line's unit representative as a 2 x 1 matrix of [re, im] pairs."""
    return [[complex_to_pair(z)] for z in line.coeffs]


def _combined_verdict(full: RayVerdict, normal: RayVerdict) -> RayVerdict:
    """Conjunction of the exact tip criterion and the measured resolvent growth."""
    order = {"Fails": 0, "Uncertified": 1, "Minimal": 2}
    verdict = min((full.verdict, normal.verdict), key=lambda v: order[v])
    notes = "; ".join(t for t in (full.note, normal.note) if t)
    return RayVerdict(
        ray=full.ray,
        verdict=verdict,
        sup_bound=full.sup_bound,
        slope=full.slope,
        witness=full.witness if full.witness is not None else normal.witness,
        note=notes,
    )


# ----------------------------------------------------------------------
# stages: pure functions of a run that return records


@dataclass
class Run:
    """One CLI run: the config and the records so far."""

    cfg: ExperimentConfig
    records: dict = field(default_factory=dict)


@dataclass
class Record:
    """What one stage computed.

    payload is the stage's JSON artifact and its report.json entry
    (summary replaces it there when set); tables are CSV files by name;
    pencil, when set, is dumped to pencil.bin.  The remaining fields
    carry values to later stages and are never written.
    """

    payload: dict
    tables: dict = field(default_factory=dict)
    summary: Optional[dict] = None
    pencil: object = None
    result: object = None
    grid: object = None
    verdicts: tuple = ()


def _indicial(run: Run) -> Record:
    model = run.cfg.model
    strip = critical_strip(model)
    basis = singular_basis(model)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "critical_strip": list(strip),
        "boundary_spectrum": [r.to_json_dict() for r in boundary_spectrum(model)],
        "singular_basis": [sf.to_json_dict() for sf in basis],
        "quotient_dim_D": len(basis),
        "dmin_is_weighted_sobolev": dmin_is_weighted_sobolev(model),
    }
    summary = {
        "critical_strip": list(strip),
        "quotient_dim_D": len(basis),
        "singular_functions": [sf.description for sf in basis],
        "ok": True,
    }
    return Record(payload, summary=summary)


def _orbit_distance(line: ExtensionDomain, nu: float, rho: float) -> float:
    """Closed-form distance from the line [a : b] flowed by kappa_rho to its limit set.

    Omega^- is [0 : 1] for nu > 0 and [1 : 0] for nu = 0 (see
    omega_minus), or the line itself when b = 0, so the distance is
    |a| rho^nu / hypot(|a| rho^nu, |b| rho^-nu) for nu > 0 and
    |b| / hypot(|a + b log rho|, |b|) for nu = 0.
    """
    a, b = line.coeffs
    if b == 0:
        return 0.0
    if nu == 0.0:
        return abs(b) / math.hypot(abs(a + b * math.log(rho)), abs(b))
    up, down = abs(a) * rho**nu, abs(b) * rho**-nu
    return up / math.hypot(up, down)


def _flow(run: Run) -> Record:
    cfg = run.cfg
    basis = singular_basis(cfg.model)
    if not basis:
        return Record(
            {
                "schema_version": SCHEMA_VERSION,
                "note": "D_min = D_max: the domain quotient is trivial, no flow to run",
                "ok": True,
            }
        )
    mode_k, nu = strip_mode(cfg.model)
    orbit, limit = omega_minus(cfg.line, basis)
    rows = [(float(rho), line_distance(line.coeffs, limit.coeffs)) for rho, line in zip(RHO_SCHEDULE, orbit)]
    exact = [_orbit_distance(cfg.line, nu, rho) for rho in RHO_SCHEDULE]
    # relative to the closed form, floored at the smallest normal double
    deviation = max(abs(d - e) / max(e, sys.float_info.min) for (_, d), e in zip(rows, exact))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode_k": mode_k,
        "nu": nu,
        "limits": [_column(limit)],
        # row 32 is rho = 10^(-32/4), which is 1e-8 exactly
        "terminal_distance_at_1e-8": rows[31][1],
        "distance_regime": "log" if nu == 0.0 else "power",
        "max_relative_deviation": float(deviation),
        "deviation_tolerance": FLOW_MATCH_RTOL,
        "ok": bool(deviation <= FLOW_MATCH_RTOL),
    }
    return Record(payload, tables={"flow.csv": (("rho", "distance"), rows)}, result=limit)


def _normal_check(run: Run) -> Record:
    cfg = run.cfg
    if strip_mode(cfg.model) is None:
        return Record(
            {
                "schema_version": SCHEMA_VERSION,
                "note": "D_min = D_max: no extension quotient to certify",
                "verdicts": [],
                "ok": True,
            }
        )
    lines = [run.records["flow"].result, cfg.line]
    verdicts = tuple(ray_minimal_growth_normal(cfg.model, ray, lines) for ray in cfg.rays)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "verdicts": [v.to_json_dict() for v in verdicts],
        "ok": all(v.verdict == "Minimal" for v in verdicts),
    }
    return Record(payload, verdicts=verdicts)


def _paired_errors(computed: np.ndarray, oracle: np.ndarray) -> list:
    """Relative error of each oracle root against the eigenvalue paired with it.

    The pairing is the permutation with the smallest worst error, so a
    near-tie in |lambda| that the grid orders differently from the oracle
    is not read as an error.  Errors are floored at 0.2 max|oracle|.
    """
    scale = np.maximum(np.abs(oracle), 0.2 * float(np.max(np.abs(oracle))))
    dist = np.abs(computed[:, np.newaxis] - oracle[np.newaxis, :]) / scale  # [computed, oracle]
    roots = np.arange(len(oracle))
    best = min(itertools.permutations(roots), key=lambda p: np.max(dist[list(p), roots]))
    return [float(e) for e in dist[list(best), roots]]


def _spectrum(run: Run) -> Record:
    pencil, mode_k, grid = _build_pencil(run.cfg)
    result = solve_pencil(pencil)
    how_many = 5
    oracle = _oracle_for(run.cfg, pencil, how_many)
    computed = result.eigenvalues[:how_many]
    errors = _paired_errors(computed, oracle)
    max_err = float(max(errors))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode_k": mode_k,
        "nu": pencil.nu,
        "enriched": pencil.enrichment_coeffs is not None,
        "n_retained": result.n_retained,
        "mass_condition": result.mass_condition,
        "max_retained_residual": float(np.max(result.residuals[: result.n_retained])),
        "aberth_sweeps": result.aberth_sweeps,
        "deflated_poles": result.deflated_poles,
        "refined_pairs": result.refined_pairs,
        "eigenvalues_smallest": [complex_to_pair(z) for z in computed],
        "oracle": [complex_to_pair(z) for z in oracle],
        "relative_errors": errors,
        "max_relative_error": max_err,
        "ok": max_err <= ORACLE_MATCH_RTOL,
    }
    rows = [(j + 1, lam.real, lam.imag) for j, lam in enumerate(result.retained_eigenvalues)]
    return Record(
        payload,
        tables={"spectrum.csv": (("j", "re", "im"), rows)},
        pencil=pencil,
        result=result,
        grid=grid,
    )


def _resolvent(run: Run) -> Record:
    """Probe every (ray, radius) point once; the norms feed rays.csv and the verdicts."""
    spec = run.records["spectrum"]
    radii = spec.result.probe_radii
    rows = []
    verdicts = []
    for ray in run.cfg.rays:
        norms, verdict = ray_minimal_growth_full(ray, spec.result)
        verdicts.append(verdict)
        rows.extend((r, ray.angle_theta, nrm, r * nrm) for r, nrm in zip(radii, norms))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "trust_limit": spec.result.trust_limit,
        "radii": radii,
        "slope_window": list(SLOPE_WINDOW),
        "verdicts": [v.to_json_dict() for v in verdicts],
        "ok": all(v.verdict == "Minimal" for v in verdicts),
    }
    columns = ("r", "theta", "resolvent_norm", "r_times_norm")
    return Record(payload, tables={"rays.csv": (columns, rows)}, verdicts=tuple(verdicts))


def _complete(run: Run) -> Record:
    spec = run.records["spectrum"]
    f = _bump_vector(spec.pencil, spec.grid)
    pairs = completeness_residual(spec.result, f, list(RESIDUAL_COUNTS))
    res = dict(pairs)
    ratio = res[40] / res[5] if res[5] > 0 else 0.0
    nonincreasing = all(
        res[n1] <= res[n0] + 1e-12
        for n0, n1 in zip(RESIDUAL_COUNTS, RESIDUAL_COUNTS[1:])
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "residuals": [[int(n), float(r)] for n, r in pairs],
        "decay_ratio_40_over_5": float(ratio),
        "nonincreasing": bool(nonincreasing),
        "ok": bool(ratio < RESIDUAL_DECAY_FACTOR and nonincreasing),
    }
    return Record(payload, tables={"completeness.csv": (("N", "residual"), pairs)})


def _certify(run: Run) -> Record:
    """Combine the resolvent verdicts with the normal-check verdicts of the same rays."""
    full = run.records["resolvent"].verdicts
    normal = run.records["normal-check"].verdicts
    verdicts = [_combined_verdict(f, n) for f, n in zip(full, normal)] if normal else full
    model = run.cfg.model
    cert = completeness_certificate(model.dim_n, model.order_m, verdicts)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "certificate": cert.to_json_dict(),
        "ok": bool(cert.complete),
    }
    return Record(payload)


def _embed(run: Run) -> Record:
    cfg = run.cfg
    sv = embedding_singular_values(*assemble_embedding_grams(EMBED_T_MAX, cfg.N_h))
    q, implied_p = schatten_fit(sv, EMBED_FIT_RANGE)
    ok = EMBED_P_WINDOW[0] <= implied_p <= EMBED_P_WINDOW[1]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "t_max": EMBED_T_MAX,
        "N_h": cfg.N_h,
        "decay_exponent_q": float(q),
        "implied_p": float(implied_p),
        "fit_range": list(EMBED_FIT_RANGE),
        "expected_p_window": list(EMBED_P_WINDOW),
        "ok": bool(ok),
    }
    rows = [(j + 1, s) for j, s in enumerate(sv)]
    return Record(payload, tables={"fits.csv": (("j", "value"), rows)})


# ----------------------------------------------------------------------
# scopes: cheap checks that turn out-of-scope configs into config errors
# before any stage runs


def _one_pair_quotient(run: Run) -> None:
    try:
        strip_mode(run.cfg.model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _rays_off_cut(run: Run) -> None:
    if any(r.angle_theta == 0.0 for r in run.cfg.rays):
        raise ConfigError("theta = 0 lies on the spectral cut")


def _pencil_weight(run: Run) -> None:
    if run.cfg.model.weight_gamma != -1.0:
        raise ConfigError(
            "pencil assembly supports weight_gamma = -1 only; "
            "other weights are limited to indicial analysis"
        )


def _oracle_resolves_the_mode(run: Run) -> None:
    # the pencil's mode is the first (nu = pi / alpha on a sector) or has nu < 1, and the
    # Dirichlet oracle's Bessel zeros take no nu above BESSEL_ORDER_LIMIT
    geometry = run.cfg.model.geometry
    nu = math.sqrt(geometry.mu(next(iter(geometry.modes_by_abs()))))
    if nu > BESSEL_ORDER_LIMIT:
        raise ConfigError(
            f"the pencil's mode has nu = {nu:.6g} above 2^50; "
            "the oracle's Bessel functions lose every digit from 2^51"
        )


def _grid_retains_residual_counts(run: Run) -> None:
    cfg = run.cfg
    # N_h - 2 interior hats, plus the enrichment on a nontrivial quotient
    size = cfg.N_h - 2 + bool(singular_basis(cfg.model))
    retained = retained_count(size)
    if retained < max(RESIDUAL_COUNTS):
        raise ConfigError(
            f"discretization.N_h = {cfg.N_h} retains {retained} eigenpairs; "
            f"the completeness residuals need {max(RESIDUAL_COUNTS)}"
        )


def _embedding_fit_range(run: Run) -> None:
    # N_h + 1 hats on [0, EMBED_T_MAX], free at both ends, give N_h + 1 singular values
    count = run.cfg.N_h + 1
    if count < EMBED_FIT_RANGE[1]:
        raise ConfigError(
            f"discretization.N_h = {run.cfg.N_h} gives {count} embedding singular values; "
            f"the fit range {EMBED_FIT_RANGE} needs {EMBED_FIT_RANGE[1]}"
        )


def _dense_reduction_fits(run: Run) -> None:
    # the pencil is a band, but its solve holds dense float64 arrays of about (N_h - 1)-square:
    # the hat block's eigenvectors, the banded eigensolve's workspace and the arrowhead; numpy
    # counts an array's bytes in its signed index type.  embed forms no dense block, but keeps
    # the same bound, (N_h + 1)-square, so that every command admits the same N_h; read in
    # O(1), before anything is allocated
    if 8 * (run.cfg.N_h + 1) ** 2 > np.iinfo(np.intp).max:
        raise ConfigError(
            f"discretization.N_h = {run.cfg.N_h} needs dense arrays of up to (N_h + 1)^2 doubles, "
            "more bytes than one numpy array can hold"
        )


# ----------------------------------------------------------------------
# the stage table and the artifact layer


def _show_indicial(p: dict) -> str:
    lines = [
        f"critical strip Im sigma in ({p['critical_strip'][0]:g}, {p['critical_strip'][1]:g})",
        f"strip roots: {len(p['boundary_spectrum'])}; quotient dimension: {p['quotient_dim_D']}",
    ]
    return "\n".join(lines + [f"  {sf['description']}" for sf in p["singular_basis"]])


def _show_flow(p: dict) -> str:
    if "note" in p:
        return p["note"]
    return (
        f"flow limits: {len(p['limits'])}; "
        f"distance to expected limit at rho=1e-8: {p['terminal_distance_at_1e-8']:.3e}"
    )


def _show_normal_check(p: dict) -> str:
    if "note" in p and not p["verdicts"]:
        return p["note"]
    return "\n".join(f"theta = {v['theta']:.6g}: {v['verdict']}" for v in p["verdicts"])


def _show_resolvent(p: dict) -> str:
    return "\n".join(
        f"theta = {v['theta']:.6g}: {v['verdict']} "
        f"(slope {'n/a' if v['slope'] is None else format(v['slope'], '.4f')})"
        for v in p["verdicts"]
    )


def _ray_list(p: dict) -> str:
    return ", ".join(f"theta={v['theta']:.4g}:{v['verdict']}" for v in p["verdicts"])


def _line_indicial(p: dict) -> str:
    line = f"[indicial] quotient dimension {p['quotient_dim_D']}"
    if p["quotient_dim_D"] == 0:
        line += "\n[pipeline] D_min = D_max: short-circuiting to the Friedrichs spectrum"
    return line


@dataclass(frozen=True)
class Stage:
    """One row of the pipeline table.

    needs names the stages whose records this one reads; scope holds
    the checks its config must pass; show prints the stage's own
    subcommand result and line its progress line inside an example;
    report is its key in report.json (None: not part of the examples);
    gated subcommands exit 1 when the stage's thresholds are missed.
    """

    name: str
    artifact: str
    run: Callable[[Run], Record]
    show: Callable[[dict], str]
    line: Optional[Callable[[dict], str]] = None
    report: Optional[str] = None
    needs: tuple = ()
    scope: tuple = ()
    gated: bool = False


STAGES = (
    Stage("indicial", "indicial.json", _indicial, _show_indicial, _line_indicial, "indicial"),
    Stage(
        "flow",
        "flow.json",
        _flow,
        _show_flow,
        lambda p: (
            f"[flow] terminal distance {p['terminal_distance_at_1e-8']:.3e} "
            f"({p['distance_regime']} regime): {'ok' if p['ok'] else 'MISS'}"
        ),
        "flow",
        scope=(_one_pair_quotient,),
    ),
    Stage(
        "normal-check",
        "normal_check.json",
        _normal_check,
        _show_normal_check,
        lambda p: "[normal-check] " + _ray_list(p),
        "normal_check",
        needs=("flow",),
        scope=(_rays_off_cut, _one_pair_quotient),
    ),
    Stage(
        "spectrum",
        "spectrum.json",
        _spectrum,
        lambda p: (
            f"mode k={p['mode_k']} (nu={p['nu']:.6g}, "
            f"{'enriched' if p['enriched'] else 'minimal'}): "
            f"max relative error vs oracle = {p['max_relative_error']:.3e}"
        ),
        lambda p: f"[spectrum] max relative error vs oracle = {p['max_relative_error']:.3e}",
        "spectrum",
        scope=(_pencil_weight, _one_pair_quotient, _oracle_resolves_the_mode, _dense_reduction_fits),
        gated=True,
    ),
    Stage(
        "resolvent",
        "resolvent.json",
        _resolvent,
        _show_resolvent,
        lambda p: "[resolvent] " + _ray_list(p),
        "resolvent",
        needs=("spectrum",),
    ),
    Stage(
        "complete",
        "complete.json",
        _complete,
        lambda p: (
            f"residual(40)/residual(5) = {p['decay_ratio_40_over_5']:.4f} "
            f"(threshold {RESIDUAL_DECAY_FACTOR})"
        ),
        lambda p: f"[complete] residual(40)/residual(5) = {p['decay_ratio_40_over_5']:.4f}",
        "completeness",
        needs=("spectrum",),
        scope=(_grid_retains_residual_counts,),
        gated=True,
    ),
    Stage(
        "certify",
        "certificate.json",
        _certify,
        lambda p: (
            f"certificate: complete={p['certificate']['complete']} "
            f"(max gap {p['certificate']['max_gap']:.4f}, "
            f"schatten p = {p['certificate']['schatten_p']:g})"
        ),
        lambda p: f"[certify] complete = {p['certificate']['complete']}",
        "certificate",
        needs=("normal-check", "resolvent"),
        gated=True,
    ),
    Stage(
        "embed",
        "embed.json",
        _embed,
        lambda p: (
            f"singular value decay exponent q = {p['decay_exponent_q']:.4f}, "
            f"implied p = {p['implied_p']:.4f}"
        ),
        scope=(_embedding_fit_range, _dense_reduction_fits),
        gated=True,
    ),
)
STAGE = {stage.name: stage for stage in STAGES}


def _with_needs(name: str) -> list:
    """The named stage and every stage it needs, directly or not, in table order."""
    wanted = set()
    todo = [name]
    while todo:
        name = todo.pop()
        if name not in wanted:
            wanted.add(name)
            todo.extend(STAGE[name].needs)
    return [stage for stage in STAGES if stage.name in wanted]


def _write_record(out: Path, stage: Stage, record: Record) -> None:
    for name, (columns, rows) in record.tables.items():
        _write_csv(out / name, columns, rows)
    if record.pencil is not None:
        export_pencil(record.pencil, out / "pencil.bin")
    _write_json(out / stage.artifact, record.payload)


def _run_stages(run: Run, stages, echo: bool = False) -> dict:
    """Check every stage's scope, then run the stages in order and write their artifacts.

    timings.json, kept apart from the deterministic artifacts, records
    the wall time of each stage that completed (computing and writing
    it) in run order, also when a later stage fails, with the run's
    provenance (see _provenance).
    """
    for stage in stages:
        for check in stage.scope:
            check(run)
    out = run.cfg.outputs_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"outputs_dir {str(out)!r} cannot be created: {exc.strerror}") from exc
    timings = []
    try:
        for stage in stages:
            start = time.perf_counter()
            try:
                record = stage.run(run)
            except (*_NUMERICAL_ERRORS, MemoryError) as exc:
                raise StageFailure(stage.name, exc) from exc
            _write_record(out, stage, record)
            timings.append({"stage": stage.name, "wall_s": time.perf_counter() - start})
            run.records[stage.name] = record
            if echo:
                print(stage.line(record.payload))
    finally:
        _write_json(
            out / "timings.json",
            {"schema_version": SCHEMA_VERSION, "stages": timings, **_provenance(run.cfg)},
        )
    return run.records


def _provenance(cfg: ExperimentConfig) -> dict:
    """The versions, BLAS builds, thread variables and config hash that timings.json records.

    The hash is the sha256 of the config as canonical JSON (sorted keys,
    no whitespace) without its outputs directory, so reruns of one
    experiment share it wherever they write.
    """
    config = cfg.to_json_dict()
    del config["outputs_dir"]
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    blas = {}
    for module in (np, scipy):
        build = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas[module.__name__] = {"name": build.get("name"), "version": build.get("version")}
    return {
        "versions": {"conespectra": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "blas": blas,
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def _run_command(cfg: ExperimentConfig, args) -> int:
    stage = STAGE[args.command]
    payload = _run_stages(Run(cfg), _with_needs(stage.name))[stage.name].payload
    print(stage.show(payload))
    return 1 if stage.gated and not payload["ok"] else 0


def _run_example(cfg: ExperimentConfig, args) -> int:
    """Every stage with a report entry; a trivial quotient leaves indicial and spectrum."""
    trivial = not singular_basis(cfg.model)
    if trivial:
        stages = [STAGE["indicial"], STAGE["spectrum"]]
    else:
        stages = [stage for stage in STAGES if stage.report is not None]
    records = _run_stages(Run(cfg), stages, echo=True)
    entries = {
        STAGE[name].report: rec.payload if rec.summary is None else rec.summary
        for name, rec in records.items()
    }
    passed = all(entry["ok"] for entry in entries.values())
    report = {
        "schema_version": SCHEMA_VERSION,
        "example": args.command,
        "config": cfg.to_json_dict(),
        "stages": entries,
        "notes": ["D_min = D_max"] if trivial else [],
        "passed": bool(passed),
    }
    _write_json(cfg.outputs_dir / "report.json", report)
    print(f"[report] {'all thresholds met' if passed else 'threshold miss'}")
    return 0 if passed else 1


# ----------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conespectra",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", nargs="?", choices=[*STAGE, *EXAMPLES], metavar="subcommand")
    parser.add_argument("--config", type=Path, default=None, metavar="PATH")
    parser.add_argument("--alpha", type=float, default=None, help="sector opening angle")
    parser.add_argument("--gamma", type=float, default=None, help="space weight")
    parser.add_argument("--a", type=float, default=None, help="Re a of the extension")
    parser.add_argument("--a-im", type=float, default=None, dest="a_im")
    parser.add_argument("--b", type=float, default=None, help="Re b of the extension")
    parser.add_argument("--b-im", type=float, default=None, dest="b_im")
    parser.add_argument("--theta", type=float, default=None, help="single ray angle")
    parser.add_argument("--nh", type=int, default=None, help="radial grid size")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    run = _run_example if args.command in EXAMPLES else _run_command
    try:
        return run(_config_from_args(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageFailure as exc:
        kind = "out of memory" if isinstance(exc.cause, MemoryError) else "numerical failure"
        print(f"{kind} in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return 3
