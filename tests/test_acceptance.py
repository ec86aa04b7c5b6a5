"""Acceptance gate: every binding criterion at its stated tolerance and budget.

Each criterion prints exactly one PASS/FAIL line (written to the real
stdout so it survives pytest's capture) and then asserts, so a red run
still reports every criterion it reached.
"""

import cmath
import math
import sys
import time

import numpy as np
import pytest

from conespectra.cli import _bump_vector
from conespectra.discretize import (
    RadialGrid,
    assemble_embedding_grams,
    assemble_mode_pencil,
)
from conespectra.grassmann import RHO_SCHEDULE, flow, omega_minus
from conespectra.indicial import singular_basis
from conespectra.model import (
    ClosedLink,
    ConeModelOperator,
    ExtensionDomain,
    Ray,
    RayVerdict,
    SectorLink,
    line_distance,
)
from conespectra.normalop import ray_minimal_growth_normal
from conespectra.spectral import (
    completeness_certificate,
    completeness_residual,
    dirichlet_mode_eigenvalues,
    embedding_singular_values,
    oracle_eigenvalues,
    ray_minimal_growth_full,
    schatten_fit,
    solve_pencil,
)

from _reference import decaying_trace, weyl_fit

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
EXTENSIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0j))
GRID_SIZES = (100, 200, 400)


def normal_verdict(model, domain, ray):
    """The exact tip verdict on the domain's flow limits and the domain itself."""
    _, limit = omega_minus(domain, singular_basis(model))
    return ray_minimal_growth_normal(model, ray, [limit, domain])


def report(capsys, num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    """One pass/fail line per criterion, written past pytest's capture."""
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} ({elapsed:.2f}s / {budget:.0f}s) {detail}"
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


@pytest.fixture(scope="module")
def pencils():
    """Lazily built, shared (pencil, eigensolution, grid) cache."""
    cache = {}

    def get(kind: str, a: complex, b: complex, N: int):
        key = (kind, complex(a), complex(b), N)
        if key not in cache:
            model = CLOSED if kind == "closed" else SECTOR
            mode_k = 0 if kind == "closed" else 1
            grid = RadialGrid.geometric(model.outer_radius_R, N, 0.9)
            domain = ExtensionDomain.line([a, b])
            pencil = assemble_mode_pencil(model, mode_k, grid, domain)
            cache[key] = (pencil, solve_pencil(pencil), grid)
        return cache[key]

    return get


def test_criterion_1_indicial_structure(capsys):
    budget = 1.0
    t0 = time.perf_counter()

    closed_basis = singular_basis(CLOSED)
    c_ok = (
        len(closed_basis) == 2
        and all(sf.mode_k == 0 and sf.exponent_e == 0 for sf in closed_basis)
        and sorted(sf.log_power for sf in closed_basis) == [0, 1]
    )

    sector_basis = singular_basis(SECTOR)
    exps = sorted(sf.exponent_e.real for sf in sector_basis)
    s_ok = (
        len(sector_basis) == 2
        and all(sf.mode_k == 1 and sf.log_power == 0 for sf in sector_basis)
        and np.allclose(exps, [-2.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    )

    narrow_ok = all(
        singular_basis(
            ConeModelOperator(
                order_m=2,
                dim_n=2,
                weight_gamma=-1.0,
                geometry=SectorLink(alpha=alpha),
                outer_radius_R=1.0,
            )
        )
        == ()
        for alpha in (1.0, 2.0, 3.0)
    )

    elapsed = time.perf_counter() - t0
    ok = c_ok and s_ok and narrow_ok and elapsed < budget
    report(
        capsys,
        1,
        ok,
        elapsed,
        budget,
        f"closed quotient {{1, log x}} dim 2: {c_ok}; "
        f"sector {{x^(2/3), x^(-2/3)}}: {s_ok}; narrow sectors empty: {narrow_ok}",
    )
    assert ok


def test_criterion_2_flow_limits(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    schedule = RHO_SCHEDULE
    checks = []

    closed_basis = singular_basis(CLOSED)
    friedrichs_closed = ExtensionDomain.line([1.0, 0.0])
    for a, b in EXTENSIONS:
        domain = ExtensionDomain.line([a, b])
        _, limit = omega_minus(domain, closed_basis)
        tol = 10.0 / abs(math.log(schedule[-1]))
        ok = line_distance(limit.coeffs, friedrichs_closed.coeffs) <= tol
        terminal = line_distance(flow(domain, closed_basis, 1e-8).coeffs, friedrichs_closed.coeffs)
        ok = ok and terminal <= 10.0 / abs(math.log(1e-8))
        for rho in schedule:
            if rho <= 1e-2:
                d = line_distance(flow(domain, closed_basis, rho).coeffs, friedrichs_closed.coeffs)
                ok = ok and d <= 10.0 / abs(math.log(rho))
        checks.append(ok)

    sector_basis = singular_basis(SECTOR)
    for a, b in EXTENSIONS:
        domain = ExtensionDomain.line([a, b])
        expected = ExtensionDomain.line([1.0, 0.0] if b == 0 else [0.0, 1.0])
        _, limit = omega_minus(domain, sector_basis)
        terminal = line_distance(flow(domain, sector_basis, 1e-8).coeffs, expected.coeffs)
        checks.append(line_distance(limit.coeffs, expected.coeffs) <= 1e-6 and terminal < 1e-3)

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < budget
    report(
        capsys,
        2,
        ok,
        elapsed,
        budget,
        f"closed flows reach Span{{1}} within the 10/|log rho| envelope: "
        f"{all(checks[:4])}; sector flows reach the expected axis with "
        f"terminal distance < 1e-3: {all(checks[4:])}",
    )
    assert ok


def test_criterion_3_normal_operator_ray_certificates(capsys):
    budget = 5.0
    t0 = time.perf_counter()

    nsa = ExtensionDomain.line([1.0, 1.0j])
    closed_ok = all(
        normal_verdict(CLOSED, nsa, Ray(t)).verdict == "Minimal"
        for t in (0.5 * math.pi, math.pi, 1.5 * math.pi)
    )
    real_rays_ok = all(
        normal_verdict(model, ExtensionDomain.line([a, b]), Ray(t)).verdict
        == "Minimal"
        for model in (CLOSED, SECTOR)
        for a, b in ((1.0, 0.0), (1.0, 1.0))
        for t in (0.5 * math.pi, 1.5 * math.pi)
    )
    sector_nsa_ok = all(
        normal_verdict(SECTOR, nsa, Ray(t)).verdict == "Minimal"
        for t in (0.5 * math.pi, 1.5 * math.pi)
    )

    # a domain built from the decaying trace at lambda_0 = 10i has 10i as
    # an eigenvalue of the tip operator
    lam0 = 10.0j
    eigen_checks = []
    for model in (CLOSED, SECTOR):
        eigen_domain = decaying_trace(model, lam0)
        v = normal_verdict(model, eigen_domain, Ray(0.5 * math.pi))
        hit = v.verdict == "Fails" and v.witness is not None
        if hit:
            wl = complex(v.witness["lambda"][0], v.witness["lambda"][1])
            hit = abs(wl - lam0) < 1e-9
        eigen_checks.append(hit)

    elapsed = time.perf_counter() - t0
    ok = (
        closed_ok
        and real_rays_ok
        and sector_nsa_ok
        and all(eigen_checks)
        and elapsed < budget
    )
    report(
        capsys,
        3,
        ok,
        elapsed,
        budget,
        f"closed rays pi/2, pi, 3pi/2 Minimal: {closed_ok}; sector rays "
        f"pi/2, 3pi/2 Minimal: {sector_nsa_ok and real_rays_ok}; "
        f"eigen-domain Fails with matching witness: {all(eigen_checks)}",
    )
    assert ok


def test_criterion_4_oracle_equivalence(pencils, capsys):
    budget = 60.0
    t0 = time.perf_counter()
    failures = []
    worst_err = 0.0
    worst_ratio = 0.0
    for kind, nu in (("closed", 0.0), ("sector", 2.0 / 3.0)):
        for a, b in EXTENSIONS:
            oracle = oracle_eigenvalues(nu, a, b, 1.0, 5)
            floor = 0.2 * float(np.max(np.abs(oracle)))
            errs = []
            for N in GRID_SIZES:
                _, result, _ = pencils(kind, a, b, N)
                computed = result.eigenvalues[:5]
                errs.append(
                    max(
                        abs(c - o) / max(abs(o), floor)
                        for c, o in zip(computed, oracle)
                    )
                )
            ratios = [e1 / e0 for e0, e1 in zip(errs, errs[1:])]
            worst_err = max(worst_err, errs[-1])
            worst_ratio = max(worst_ratio, max(ratios))
            if errs[-1] >= 0.005 or any(r >= 0.6 for r in ratios):
                failures.append((kind, a, b, errs))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < budget
    report(
        capsys,
        4,
        ok,
        elapsed,
        budget,
        f"8 extension/geometry pairs x 3 grids: worst error at N=400 is "
        f"{worst_err:.2e} (< 5e-3), worst refinement ratio {worst_ratio:.2f} "
        f"(< 0.6); failures: {failures if failures else 'none'}",
    )
    assert ok


def test_criterion_5_minimal_growth_slope(pencils, capsys):
    budget = 30.0
    t0 = time.perf_counter()
    pencil, result, _ = pencils("sector", 1.0, 1.0j, 400)
    _, verdict = ray_minimal_growth_full(Ray(0.5 * math.pi), result)
    slope_ok = verdict.slope is not None and -1.15 <= verdict.slope <= -0.85
    sup_ok = verdict.sup_bound is not None and verdict.sup_bound <= 10.0
    elapsed = time.perf_counter() - t0
    ok = verdict.verdict == "Minimal" and slope_ok and sup_ok and elapsed < budget
    report(
        capsys,
        5,
        ok,
        elapsed,
        budget,
        f"theta=pi/2 on the (1,i) sector pencil: verdict {verdict.verdict}, "
        f"slope {verdict.slope:.4f} in [-1.15, -0.85]: {slope_ok}, "
        f"sup |lambda|*norm = {verdict.sup_bound:.3f} bounded over three decades: {sup_ok}",
    )
    assert ok


def test_criterion_6_completeness_residuals(pencils, capsys):
    budget = 60.0
    t0 = time.perf_counter()
    counts = [5, 10, 15, 20, 25, 30, 35, 40]
    details = []
    oks = []
    for kind in ("closed", "sector"):
        pencil, result, grid = pencils(kind, 1.0, 1.0j, 400)
        f = _bump_vector(pencil, grid)
        pairs = completeness_residual(result, f, counts)
        res = dict(pairs)
        ratio = res[40] / res[5]
        nonincreasing = all(
            res[n1] <= res[n0] + 1e-12 for n0, n1 in zip(counts, counts[1:])
        )
        oks.append(ratio < 0.05 and nonincreasing)
        details.append(f"{kind} ratio {ratio:.4f} nonincreasing {nonincreasing}")
    elapsed = time.perf_counter() - t0
    ok = all(oks) and elapsed < budget
    report(
        capsys,
        6,
        ok,
        elapsed,
        budget,
        "bump expansion residual(40)/residual(5) < 0.05 on the (1,i) "
        "extensions: " + "; ".join(details),
    )
    assert ok


def test_criterion_7_certificate_gate(capsys):
    budget = 1.0
    t0 = time.perf_counter()

    def minimal(theta):
        return RayVerdict(ray=Ray(theta), verdict="Minimal", sup_bound=2.0, slope=-1.0)

    both = completeness_certificate(
        2, 2, [minimal(0.5 * math.pi), minimal(1.5 * math.pi)]
    )
    single = completeness_certificate(2, 2, [minimal(0.5 * math.pi)])
    two_ok = both.complete is True and both.max_gap == pytest.approx(math.pi)
    one_ok = (
        single.complete is False
        and single.max_gap == pytest.approx(2.0 * math.pi)
        and single.max_gap > math.pi
    )
    elapsed = time.perf_counter() - t0
    ok = two_ok and one_ok and elapsed < budget
    report(
        capsys,
        7,
        ok,
        elapsed,
        budget,
        f"rays {{pi/2, 3pi/2}} with n=m=2 certify complete: {two_ok}; "
        f"dropping one ray leaves gap 2pi > pi and no certificate: {one_ok}",
    )
    assert ok


def test_criterion_8_schatten_and_weyl_exponents(capsys):
    budget = 120.0
    t0 = time.perf_counter()

    g_high, g_low = assemble_embedding_grams(20.0, 400)
    sv = embedding_singular_values(g_high, g_low)
    _, implied_p = schatten_fit(sv, (5, 20))
    p_ok = 0.87 <= implied_p <= 1.18

    all_lam = []
    k = 1
    while True:
        lam = dirichlet_mode_eigenvalues(2.0 * k / 3.0, 1.0, 40)
        lam = lam[lam < 3000.0]
        if len(lam) == 0:
            break
        all_lam.extend(lam)
        k += 1
    exponent = weyl_fit(np.sort(all_lam))
    weyl_ok = abs(exponent - 1.0) <= 0.1

    elapsed = time.perf_counter() - t0
    ok = p_ok and weyl_ok and elapsed < budget
    report(
        capsys,
        8,
        ok,
        elapsed,
        budget,
        f"embedding implied p = {implied_p:.4f} in [0.87, 1.18]: {p_ok}; "
        f"sector eigenvalue growth exponent {exponent:.4f} in 1.0 +/- 0.1 "
        f"({len(all_lam)} eigenvalues over {k - 1} modes): {weyl_ok}",
    )
    assert ok
