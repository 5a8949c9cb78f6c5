"""Acceptance suite: closed-form reproduction plus property checks.

Each test states its tolerance and (where specified) its runtime budget.
Surfaces and sweep results are memoized at module scope so the expensive
contact sweeps run once per surface.
"""

import math
import time

import numpy as np
import pytest

from horocurv import verify_harness as vh
from horocurv.busemann import BusemannFunction
from horocurv.gauss_map import lipschitz_audit
from horocurv.hypersurface import ball_volume, geodesic_sphere, radial_graph
from horocurv.model_spaces import parse_space
from oracles import MatrixLieAlgebra, metric_scale_bound, restricted_roots

_CACHE = {}


def _space(spec):
    if ("space", spec) not in _CACHE:
        _CACHE[("space", spec)] = parse_space(spec)
    return _CACHE[("space", spec)]


def _surface(key):
    """Memoized test surfaces (name -> (space, M))."""
    if ("surface", key) not in _CACHE:
        if key == "e3-sphere":
            space = _space("euclidean:3")
            M = geodesic_sphere(space, space.origin(), 1.0, [64, 128])
        elif key == "h3-sphere-0.5":
            space = _space("hyperbolic:3,kappa=1")
            M = geodesic_sphere(space, space.origin(), 0.5, [32, 64])
        elif key == "h3-sphere-1.0":
            space = _space("hyperbolic:3,kappa=1")
            M = geodesic_sphere(space, space.origin(), 1.0, [32, 64])
        elif key == "h3-graph":
            space = _space("hyperbolic:3,kappa=1")
            M = radial_graph(space, space.origin(), 1.0, "latitude", 0.2,
                             [32, 64])
        elif key == "spd-sphere":
            space = _space("spd:3")
            M = geodesic_sphere(space, space.origin(), 0.5, [6, 6, 6, 6])
        else:  # pragma: no cover
            raise KeyError(key)
        _CACHE[("surface", key)] = (space, M)
    return _CACHE[("surface", key)]


ALL_SURFACES = ["e3-sphere", "h3-sphere-0.5", "h3-sphere-1.0", "h3-graph",
                "spd-sphere"]


def _jacobian_sweep(key, count=500, seed=42):
    """Memoized jacobian-measured contact sweep for a test surface."""
    ck = ("sweep", key, count, seed)
    if ck not in _CACHE:
        space, M = _surface(key)
        o = space.origin()
        d = M.diameter_extrinsic()
        sweep = vh.contact_sweep(M, o, count, seed=seed, measure_jacobian=True)
        _CACHE[ck] = (M, o, d, sweep)
    return _CACHE[ck]


# ---------------------------------------------------------------------------
# 1. Euclidean baseline: equality case of the total-curvature estimate
# ---------------------------------------------------------------------------

def test_c01_euclidean_baseline():
    t0 = time.perf_counter()
    space, M = _surface("e3-sphere")
    o = space.origin()
    area = M.integrate("area")
    tc = M.integrate("total_curvature")
    vol = ball_volume(space, o, 1.0, radial_nodes=8, grid_counts=[16, 32])
    ratio = area ** 3 / vol ** 2
    elapsed = time.perf_counter() - t0
    assert abs(area / (4 * math.pi) - 1) < 1e-3
    assert abs(tc / (4 * math.pi) - 1) < 1e-3
    assert abs(ratio / (36 * math.pi) - 1) < 1e-3
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s budget"


# ---------------------------------------------------------------------------
# 2. H^3 spheres and perturbed graph: total-curvature estimate with margin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key,r", [("h3-sphere-0.5", 0.5),
                                   ("h3-sphere-1.0", 1.0)])
def test_c02_h3_spheres(key, r, record_property):
    t0 = time.perf_counter()
    space, M = _surface(key)
    tc = M.integrate("total_curvature")
    closed_form = 4 * math.pi * math.cosh(r) ** 2
    rhs = math.exp(-6.0 * (2.0 * r)) * 4 * math.pi
    margin = tc - rhs
    elapsed = time.perf_counter() - t0
    record_property("margin", margin)
    assert abs(tc / closed_form - 1) < 5e-3
    assert margin > 0.0, f"margin {margin:.6f} not positive"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s budget"


def test_c02_h3_perturbed_graph(record_property):
    t0 = time.perf_counter()
    space, M = _surface("h3-graph")
    rep = vh.total_curvature_check(M, space.origin(), sweep_count=100, seed=2)
    elapsed = time.perf_counter() - t0
    record_property("margin", rep.margin)
    assert rep.passed
    assert rep.margin > 0.0
    assert rep.details["sweep_failures"] == 0
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s budget"


# ---------------------------------------------------------------------------
# 3. Busemann Hessian closed form against the truncated-distance oracle
# ---------------------------------------------------------------------------

def test_c03_hessian_oracle_cross_validation():
    t0 = time.perf_counter()
    for spec in ("spd:3,lambda=1", "hyperbolic:3,kappa=1"):
        space = parse_space(spec)
        rep = vh.hessian_oracle_check(space, space.origin(), samples=50,
                                      seed=42, radius=2.0)
        assert rep.passed, f"{spec}: worst entrywise diff {rep.lhs:.3e}"
        assert rep.lhs <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.2f}s exceeds 5min budget"


# ---------------------------------------------------------------------------
# 4. Hessian operator-norm bound and gradient-difference bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["euclidean:3", "hyperbolic:3,kappa=1",
                                  "spd:3", "hyperbolic:2,kappa=1xeuclidean:1"])
def test_c04_hessian_bounds(spec):
    space = parse_space(spec)
    rep = vh.hessian_bounds_check(space, space.origin(), samples=1000, seed=42)
    assert rep.passed
    assert rep.details["violations"] == 0


# ---------------------------------------------------------------------------
# 5. Two-sided Lipschitz bound for fiber translation of directions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["hyperbolic:3,kappa=1", "spd:3"])
def test_c05_lipschitz_bound(spec):
    space = parse_space(spec)
    rep = vh.lipschitz_check(space, space.origin(), samples=500, radius=1.0,
                             seed=42)
    assert rep.passed
    assert rep.details["failures"] == 0
    assert rep.lhs <= 1.0 + 1e-4


def test_c05_lipschitz_euclidean_exact():
    # [PAPER] flat case: translation preserves direction differences exactly
    space = parse_space("euclidean:3")
    rep = lipschitz_audit(space, space.origin(), sample_size=500, radius=1.0,
                          seed=42)
    assert abs(rep.worst_upper_ratio - 1.0) < 1e-14
    assert abs(rep.worst_lower_ratio - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# 6. Gauss-map consistency at >= 10^3 nodes on every tested surface
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ALL_SURFACES)
def test_c06_gauss_consistency(key):
    space, M = _surface(key)
    assert M.size >= 1000
    rep = vh.gauss_consistency_check(M, space.origin(), min_nodes=1000)
    assert rep.passed, f"{key}: worst residual {rep.lhs:.3e}"
    assert rep.lhs <= 1e-5
    assert rep.details["translation_failures"] == 0


# ---------------------------------------------------------------------------
# 7. Contact pipeline: 500-direction sweep per surface, supporting
#    conditions and the Gauss-map Jacobian bound at contact points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ALL_SURFACES)
def test_c07_contact_sweep(key):
    M, o, d, sweep = _jacobian_sweep(key, count=500)
    assert len(sweep.c_v) == 500
    resid = sweep.s_residual
    assert np.all(resid <= 1e-3), f"{key}: residual {np.max(resid):.3e}"
    assert np.all(sweep.eig_min_support >= -1e-6)
    assert np.all(sweep.eig_min_hessian >= -1e-8)
    # J <= e^{n(n+1) kappa D} |GK| (1 + 1e-3) at every measured contact
    n, kappa = M.n, M.space.curvature_lower_bound
    bound = (math.exp(n * (n + 1) * kappa * d) * np.abs(sweep.GK)
             * (1.0 + vh.JAC_SLACK))
    margin = (bound - sweep.jacobian)[sweep.stencil_ok]
    assert np.all(margin >= 0.0), f"{key}: jacobian margin {np.min(margin):.3e}"
    # the stencil exclusion is the exception, not the rule
    assert np.sum(~sweep.stencil_ok) <= 0.1 * len(sweep.c_v)


# ---------------------------------------------------------------------------
# 8. Willmore-type integral dominates the same exponential right side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ALL_SURFACES)
def test_c08_willmore(key):
    space, M = _surface(key)
    rep = vh.willmore_check(M, space.origin())
    assert rep.passed, f"{key}: margin {rep.margin:.3e}"


def test_c08_willmore_umbilic_equality():
    # geodesic spheres in constant curvature are umbilic:
    # the Willmore and total-curvature integrals coincide
    for key in ("e3-sphere", "h3-sphere-0.5", "h3-sphere-1.0"):
        space, M = _surface(key)
        rep = vh.willmore_check(M, space.origin())
        assert abs(rep.lhs / rep.details["total_curvature"] - 1) < 1e-6


# ---------------------------------------------------------------------------
# 9. Isoperimetric-type ratio on geodesic balls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,r", [("hyperbolic:3,kappa=1", 0.25),
                                    ("hyperbolic:3,kappa=1", 0.5),
                                    ("hyperbolic:3,kappa=1", 1.0),
                                    ("euclidean:3", 1.0)])
def test_c09_isoperimetric(spec, r, record_property):
    space = parse_space(spec)
    rep = vh.isoperimetric_check(space, space.origin(), r,
                                 grid_counts=[24, 48], radial_nodes=16)
    record_property("margin", rep.margin)
    assert rep.passed
    assert rep.margin >= -1e-6 * rep.rhs
    # ball volume against the closed-form oracle
    vol = rep.details["volume"]
    if spec.startswith("euclidean"):
        oracle = 4 * math.pi * r ** 3 / 3
    else:
        oracle = math.pi * (math.sinh(2 * r) - 2 * r)
    assert abs(vol / oracle - 1) < 1e-3


# ---------------------------------------------------------------------------
# 10. Algebraic audits: determinant comparison and matrix square-root
#     perturbation, 10^3 trials each
# ---------------------------------------------------------------------------

def test_c10_det_comparison_audit():
    rep = vh.det_comparison_audit(10, 1000, seed=42)
    assert rep.passed
    assert rep.lhs == 0.0     # lhs counts violations


def test_c10_sqrt_perturbation_audit():
    rep = vh.sqrt_perturbation_audit(12, 1000, seed=42)
    assert rep.passed
    assert rep.lhs == 0.0     # lhs counts violations


# ---------------------------------------------------------------------------
# 11. Lie structure of sl(3,R)
# ---------------------------------------------------------------------------

def test_c11_sl3_structure():
    alg = MatrixLieAlgebra("sl", 3)
    rd = restricted_roots(alg)
    assert len(rd.roots) == 6
    gram = np.array([[alg.killing_form(a, b) for b in rd.abelian_basis]
                     for a in rd.abelian_basis])
    for vals, mult in rd.roots:
        assert mult == 1
        c = np.linalg.solve(gram, np.asarray(vals))   # dual-vector oracle
        assert abs(float(np.asarray(vals) @ c) - 1.0 / 3.0) <= 1e-10
    assert abs(metric_scale_bound(rd, 1.0) - 1.0 / 3.0) <= 1e-10
    rng = np.random.default_rng(42)
    for _ in range(1000):
        x = rng.standard_normal((3, 3))
        x -= np.trace(x) / 3 * np.eye(3)
        y = rng.standard_normal((3, 3))
        y -= np.trace(y) / 3 * np.eye(3)
        beta = alg.killing_form(x, y)
        assert abs(beta - 6 * np.trace(x @ y)) <= 1e-10 * (1 + abs(beta))


# ---------------------------------------------------------------------------
# 12. SPD(3) end to end: higher-rank factor through the full pipeline
# ---------------------------------------------------------------------------

def test_c12_spd_end_to_end(record_property):
    t0 = time.perf_counter()
    counts = [12] * 4
    space = _space("spd:3")
    o = space.origin()
    M = geodesic_sphere(space, o, 0.5, counts)
    rep = vh.total_curvature_check(M, o, sweep_count=500, seed=42)
    elapsed = time.perf_counter() - t0
    record_property("grid", "x".join(map(str, counts)))
    record_property("margin", rep.margin)
    assert rep.passed
    assert rep.details["sweep_failures"] == 0
    assert rep.margin > 0.0
    assert elapsed < 600.0, f"runtime {elapsed:.2f}s exceeds 10min budget"
