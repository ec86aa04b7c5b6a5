"""Benchmark workloads: set-up, one pass, and the checks on every output.

A workload pass is a list of operations.  Each operation is attempted
once; an exception or a failed check marks it failed and the pass goes
on with the next one.  The package is reached only through
``conespectra.cli.main`` and public library functions, always looked up
on their module at call time so that the tracer's wrappers are seen.

Workloads
---------
example53      ``conespectra example53 --a 1 --b-im 1`` at N_h = 400: all
               seven pipeline stages, 24 resolvent probes, one dense QZ.
oracle-sweep   eight (geometry, a, b) configs at N_h = 100, each an
               assembly, a solve and a 5-root secular-oracle scan.
refine-ladder  closed link, (a, b) = (1, i), N_h in {100, 200, 400}: one
               oracle scan, then an assembly and a solve per level.

Only ``oracle-sweep`` depends on the seed: its two sector-link pairs are
drawn with standard complex-normal entries.  The closed link keeps the
four fixed pairs of the acceptance gate, because random pairs there put
a secular root outside the oracle's fixed scan rectangle (for example
seed 4, second pair: the oracle misses the root near -65.8 - 170.9i that
the pencil converges to), and that defect fails 21 of 300 seeds.  The
benchmark's own tests pin that pair as a known failure, so the fix shows.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("example53", "oracle-sweep", "refine-ladder")

# Sizes of each workload.  "small" exists for the benchmark's own tests.
SIZES = {
    "full": {"example53_nh": 400, "sweep_nh": 100, "sweep_pairs": 4, "ladder": (100, 200, 400)},
    "small": {"example53_nh": 60, "sweep_nh": 100, "sweep_pairs": 1, "ladder": (40, 80)},
}

ORACLE_ROOTS = 5
EXAMPLE53_MAX_ERR = 0.005  # the pipeline's own ORACLE_MATCH_RTOL
SWEEP_MAX_ERR = 0.05  # pencil vs oracle at N_h = 100; the worst seen is 0.042
DIRICHLET_RTOL = 1e-8  # (a, b) = (1, 0) oracle vs the Bessel-zero route
LADDER_FINAL_MAX_ERR = 0.005  # acceptance criterion 4
LADDER_MAX_RATIO = 0.6  # acceptance criterion 4
ARTIFACT_SUFFIXES = (".csv", ".bin")

CLOSED_PAIRS = ((1.0, 0.0), (1.0, 1j), (0.0, 1.0), (1.0, 1.0))
SECTOR_FIXED_PAIRS = ((1.0, 0.0), (1.0, 1j))


class CheckFailed(Exception):
    """An output of the package does not meet the workload's check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class PassOutcome:
    """What one pass did and what its checks found."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # Galerkin-vs-oracle relative errors
    hashes: dict = field(default_factory=dict)  # example53 artifact name -> sha256
    artifact_bytes: int = 0

    def run(self, label: str, op) -> None:
        """Attempt one operation; record a failure instead of raising."""
        self.attempted += 1
        try:
            op()
        except Exception as exc:  # a failed operation must not end the pass
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    @property
    def max_rel_err(self):
        return max(self.errors) if self.errors else None


def relative_error(computed, oracle) -> float:
    """Worst relative eigenvalue error, floored at 0.2 max|oracle| as the spectrum stage does."""
    floor = 0.2 * max(abs(z) for z in oracle)
    return float(max(abs(c - o) / max(abs(o), floor) for c, o in zip(computed, oracle)))


def draw_pairs(seed: int, count: int = 2) -> list:
    """``count`` extension pairs (a, b) with standard complex-normal entries."""
    import numpy as np

    z = np.random.default_rng(seed).standard_normal((count, 2, 2)) / math.sqrt(2.0)
    return [(complex(p[0, 0], p[0, 1]), complex(p[1, 0], p[1, 1])) for p in z]


def modules() -> dict:
    return {
        name: importlib.import_module(f"conespectra.{name}")
        for name in ("model", "indicial", "grassmann", "normalop", "discretize", "spectral", "cli")
    }


def models_by_geometry(mod) -> dict:
    m = mod["model"]
    common = dict(order_m=2, dim_n=2, weight_gamma=-1.0, outer_radius_R=1.0)
    return {
        "closed": (m.ConeModelOperator(geometry=m.ClosedLink(), **common), 0),
        "sector": (m.ConeModelOperator(geometry=m.SectorLink(alpha=1.5 * math.pi), **common), 1),
    }


def sweep_config(models: dict, line, kind: str, a, b, grid) -> dict:
    """One ``oracle-sweep`` config: geometry ``kind`` with extension pair (a, b)."""
    model, mode_k = models[kind]
    return {
        "label": f"{kind} a={complex(a):.4g} b={complex(b):.4g}",
        "model": model,
        "mode_k": mode_k,
        "domain": line([a, b]),
        "grid": grid,
        "dirichlet": complex(a) == 1 and complex(b) == 0,
    }


def setup(workload: str, seed: int, size: str = "full") -> dict:
    """Import the package and build everything the pass needs except the work itself."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[size]
    mod = modules()
    state = {"workload": workload, "mod": mod}
    if workload == "example53":
        state["argv"] = ["example53", "--a", "1", "--b-im", "1", "--nh", str(sizes["example53_nh"])]
        return state
    models = models_by_geometry(mod)
    line = mod["model"].ExtensionDomain.line
    if workload == "oracle-sweep":
        grid = mod["discretize"].RadialGrid.geometric(1.0, sizes["sweep_nh"], 0.9)
        sector_pairs = list(SECTOR_FIXED_PAIRS) + draw_pairs(seed)
        state["configs"] = [
            sweep_config(models, line, kind, a, b, grid)
            for kind, pairs in (("closed", CLOSED_PAIRS), ("sector", sector_pairs))
            for a, b in pairs[: sizes["sweep_pairs"]]
        ]
        return state
    model, mode_k = models["closed"]
    state["ladder"] = {
        "model": model,
        "mode_k": mode_k,
        "nu": math.sqrt(model.geometry.mu(mode_k)),
        "ab": (1.0, 1j),
        "domain": line([1.0, 1j]),
        "grids": [(n, mod["discretize"].RadialGrid.geometric(1.0, n, 0.9)) for n in sizes["ladder"]],
    }
    return state


def _hash_artifacts(out: Path, outcome: PassOutcome) -> None:
    for path in sorted(out.iterdir()):
        outcome.artifact_bytes += path.stat().st_size
        if path.suffix in ARTIFACT_SUFFIXES:
            outcome.hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()


def _example53(state: dict, outcome: PassOutcome, out: Path) -> None:
    import contextlib
    import io
    import json

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = state["mod"]["cli"].main(state["argv"] + ["--out", str(out)])
        _hash_artifacts(out, outcome)
        check(rc == 0, f"exit code {rc}")
        report = json.loads((out / "report.json").read_text())
        check(report.get("passed") is True, "report.json does not say passed")
        err = float(report["stages"]["spectrum"]["max_relative_error"])
        outcome.errors.append(err)
        check(err <= EXAMPLE53_MAX_ERR, f"spectrum error {err:.3e} > {EXAMPLE53_MAX_ERR}")

    outcome.run("example53", op)


def check_sweep_config(mod: dict, cfg: dict, outcome: PassOutcome) -> None:
    """Assemble, solve and scan one sweep config, as one operation of ``outcome``."""
    disc, spec = mod["discretize"], mod["spectral"]

    def one():
        pencil = disc.assemble_mode_pencil(cfg["model"], cfg["mode_k"], cfg["grid"], cfg["domain"])
        result = spec.solve_pencil(pencil)
        a, b = pencil.enrichment_coeffs
        oracle = spec.oracle_eigenvalues(pencil.nu, a, b, pencil.outer_radius_R, ORACLE_ROOTS)
        check(len(oracle) == ORACLE_ROOTS, f"{len(oracle)} oracle roots")
        if cfg["dirichlet"]:
            ref = spec.dirichlet_mode_eigenvalues(pencil.nu, pencil.outer_radius_R, ORACLE_ROOTS)
            dev = max(abs(o - r) / abs(r) for o, r in zip(oracle, ref))
            check(dev <= DIRICHLET_RTOL, f"oracle vs Bessel zeros {dev:.2e} > {DIRICHLET_RTOL}")
        err = relative_error(result.eigenvalues[:ORACLE_ROOTS], oracle)
        outcome.errors.append(err)
        check(err <= SWEEP_MAX_ERR, f"pencil vs oracle {err:.3e} > {SWEEP_MAX_ERR}")

    outcome.run(cfg["label"], one)


def _sweep(state: dict, outcome: PassOutcome) -> None:
    for cfg in state["configs"]:
        check_sweep_config(state["mod"], cfg, outcome)


def _ladder(state: dict, outcome: PassOutcome) -> None:
    disc, spec = state["mod"]["discretize"], state["mod"]["spectral"]
    lad = state["ladder"]
    a, b = lad["ab"]
    try:
        oracle, reason = list(spec.oracle_eigenvalues(lad["nu"], a, b, 1.0, ORACLE_ROOTS)), ""
        check(len(oracle) == ORACLE_ROOTS, f"{len(oracle)} oracle roots")
    except Exception as exc:  # every level needs the oracle, so each one fails
        oracle, reason = [], f"{type(exc).__name__}: {exc}"
    errs = {}
    last = lad["grids"][-1][0]
    for idx, (n, grid) in enumerate(lad["grids"]):

        def level(n=n, grid=grid, idx=idx):
            check(bool(oracle), f"no oracle roots ({reason})")
            pencil = disc.assemble_mode_pencil(lad["model"], lad["mode_k"], grid, lad["domain"])
            result = spec.solve_pencil(pencil)
            errs[n] = relative_error(result.eigenvalues[:ORACLE_ROOTS], oracle)
            outcome.errors.append(errs[n])
            if idx > 0:
                prev = lad["grids"][idx - 1][0]
                check(prev in errs, f"no error at N={prev} to refine against")
                ratio = errs[n] / errs[prev]
                check(ratio < LADDER_MAX_RATIO, f"refinement ratio {ratio:.3f} >= {LADDER_MAX_RATIO}")
            if n == last:
                check(errs[n] < LADDER_FINAL_MAX_ERR, f"error {errs[n]:.3e} at N={n}")

        outcome.run(f"N={n}", level)


def run_pass(state: dict, out: Path) -> PassOutcome:
    """One workload pass; ``out`` is an empty directory for its artifacts."""
    outcome = PassOutcome()
    workload = state["workload"]
    if workload == "example53":
        _example53(state, outcome, Path(out))
    elif workload == "oracle-sweep":
        _sweep(state, outcome)
    else:
        _ladder(state, outcome)
    return outcome
