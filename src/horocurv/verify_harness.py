"""Verification pipeline for the total-curvature estimate and its corollaries.

Checks, each returning a VerificationReport:

* first_contact / jacobian_check -- horosphere first-contact points of a
  Busemann foliation against a closed hypersurface, the supporting
  second-order conditions there, and the Gauss-map Jacobian bound
  J <= e^{n(n+1) kappa D} |GK|.
* total_curvature_check -- int |GK| >= e^{-n(n+1) kappa D} area(S^n),
  plus a direction sweep certifying the Gauss map covers the sphere.
* willmore_check -- int |H/n|^n against the same right side.
* isoperimetric_check -- area(dE)^{n+1}/vol(E)^n on geodesic balls.
* det_comparison_audit / sqrt_perturbation_audit -- the standalone
  matrix inequalities the Jacobian argument rests on.

The diameter entering every exponent is diameter_extrinsic, a grid
under-estimate: a smaller D only makes the required right side larger,
so passing checks are conservative.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .busemann import BusemannFunction
from .errors import InputDomainError, TranslationFailure
from .gauss_map import gauss_differential, translate_direction
from .lie_structure import MatrixLieAlgebra
from .model_spaces import Point, SymmetricSpace, Tangent
from .numeric_kernel import op_norm, psd_sqrt

TIE_TOL_BASE = 1e-7
RESID_TOL = 1e-3
EIG_FLOOR_SUPPORT = -1e-6
EIG_FLOOR_HESS = -1e-8
JAC_SLACK = 1e-3
INEQ_TOL = 1e-6
SWEEP_COUNT = 500
ASCENT_STEPS = 40
ASCENT_MAX_MOVE = 0.5          # largest parameter move (rad) per line search
STENCIL_EXCLUDED_MAX = 0.1     # share of sweep contact nodes
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def sphere_area(n: int) -> float:
    """Area of the unit n-sphere in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def ball_volume_euclidean(n_plus_1: int, r: float = 1.0) -> float:
    """Volume of the Euclidean ball of dimension n+1."""
    return (math.pi ** (n_plus_1 / 2.0) / math.gamma(n_plus_1 / 2.0 + 1.0)
            * r ** n_plus_1)


@dataclass
class ContactNode:
    node: np.ndarray              # chart parameters of the contact point
    value: float                  # B_v at the node
    s_residual: float             # |grad B_v(x) - nu(x)|
    eig_min_support: float        # min eigenvalue of A - Hess B_v on T_xM
    eig_min_hessian: float        # min eigenvalue of Hess B_v (ambient)
    GK: float
    jacobian: float | None        # |det dS_M| on T_xM; None if unmeasured
    stencil_ok: bool              # False iff a requested jacobian failed


@dataclass
class ContactRecord:
    """First-contact data of the horosphere foliation of B_v against M."""

    v: Tangent
    c_v: float                    # max of B_v over M, off the grid
    tie_tol: float
    contact: ContactNode          # at the maximizer of B_v


@dataclass
class VerificationReport:
    check: str
    space: str
    surface: str
    grid: str
    kappa: float
    diameter: float
    lhs: float
    rhs: float
    margin: float
    passed: bool
    tolerances: dict
    seed: int
    runtime_ms: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready fields: numpy results become plain float and bool."""
        return {"check": self.check, "space": self.space,
                "surface": self.surface, "grid": self.grid,
                "kappa": float(self.kappa), "diameter": float(self.diameter),
                "lhs": float(self.lhs), "rhs": float(self.rhs),
                "margin": float(self.margin), "pass": bool(self.passed),
                "tolerances": self.tolerances, "seed": self.seed,
                "runtime_ms": self.runtime_ms}


def _report(check, M, space, **kw):
    surface = M.profile.spec() if M is not None else kw.pop("surface", "-")
    grid = M.grid_spec() if M is not None else kw.pop("grid", "-")
    return VerificationReport(
        check=check, space=space.spec_string() if space else "-",
        surface=surface, grid=grid,
        kappa=space.curvature_lower_bound if space else 0.0, **kw)


# ---------------------------------------------------------------------------
# contact sets
# ---------------------------------------------------------------------------

def _golden_max(g, a: float, b: float, iters: int):
    """Golden-section search for a maximizer of g on [a, b]; (s, g(s))."""
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc < gd:
            a, c, gc = c, d, gd
            d = a + _INVPHI * (b - a)
            gd = g(d)
        else:
            b, d, gd = d, c, gc
            c = b - _INVPHI * (b - a)
            gc = g(c)
    return (c, gc) if gc >= gd else (d, gd)


def _ascend_max(M, bus: BusemannFunction, p, best: float):
    """Natural-gradient ascent of B_v(embed(params)) from parameters p.

    `best` is B_v at p.  Each step follows the chart projection of
    grad B_v (steepest ascent in the surface metric, which is
    coordinate-free and conditions well near chart poles) with a golden
    line search, and the ascent stops at machine-level residuals, when a
    step gains nothing.  The line search moves no parameter by more than
    ASCENT_MAX_MOVE: from a coarse grid node a longer step makes B_v
    multimodal along the line, and the search would settle on a lower
    mode.  Returns (value, params, chart), with the chart at the final
    params, the one chart of the contact record.
    """
    space = M.space

    def f(q):
        try:
            return bus.value(M.embed(q))
        except InputDomainError:
            return -math.inf

    chart = M.chart(p)
    for _ in range(ASCENT_STEPS):
        grad = bus.gradient(chart["x"])
        rhs = chart["tangents"] @ space.tangent_to_coords(grad)
        dp = np.linalg.solve(chart["gram"], rhs)
        gnorm = math.sqrt(max(float(rhs @ dp), 0.0))
        if gnorm < 1e-11:
            break
        # ascent step ~ inverse curvature of B on M, capped in parameter space
        t_max = min(4.0, ASCENT_MAX_MOVE / float(np.max(np.abs(dp))))
        s, val = _golden_max(lambda t: f(p + t * dp), 0.0, t_max, 20)
        if val <= best:
            break
        best = val
        p = p + s * dp
        chart = M.chart(p)
    return best, p, chart


def _contact_node_data(M, o: Point, bus: BusemannFunction, params, chart,
                       value, measure_jacobian: bool) -> ContactNode:
    space = M.space
    data, stencil = M.fundamental_forms(params, chart)
    x, nu = data.x, data.nu
    grad = bus.gradient(x)
    resid = space.norm(space.add(grad, space.scale(nu, -1.0)))
    hess = bus.hessian(x).a
    hess_tan = data.onb_coords @ hess @ data.onb_coords.T
    eig_support = float(np.min(np.linalg.eigvalsh(data.A.a - hess_tan)))
    eig_hess = float(np.min(np.linalg.eigvalsh(hess)))
    jac = _measure_jacobian(space, o, stencil) if measure_jacobian else None
    return ContactNode(
        node=params, value=value, s_residual=resid,
        eig_min_support=eig_support, eig_min_hessian=eig_hess,
        GK=data.GK, jacobian=jac,
        stencil_ok=jac is not None or not measure_jacobian)


def first_contact(M, o: Point, v: Tangent,
                  measure_jacobian: bool = False) -> ContactRecord:
    """Contact level c_v = max_M B_v and second-order data at the maximizer.

    The maximizer is found by natural-gradient ascent from the grid node
    with the largest B_v, and the contact record is evaluated at that
    off-grid point, from the ascent's last chart and one stencil.
    """
    bus = BusemannFunction(M.space, o, v)
    vals = bus.value(Point(M.space, tuple(M.points_stack())))
    node = int(np.argmax(vals))
    c_v, p, chart = _ascend_max(M, bus, M.params[node], float(vals[node]))
    return ContactRecord(
        v=v, c_v=c_v, tie_tol=TIE_TOL_BASE * (1.0 + abs(c_v)),
        contact=_contact_node_data(M, o, bus, p, chart, c_v, measure_jacobian))


def _measure_jacobian(space: SymmetricSpace, o: Point, stencil):
    """|det dS_M| = sqrt(det W^T W) on the orthonormal frame of T_xM that
    `stencil` steps along; None if a stencil translation fails."""
    try:
        w = gauss_differential(space, o, stencil)
    except (InputDomainError, TranslationFailure):
        return None
    return math.sqrt(max(float(np.linalg.det(w.T @ w)), 0.0))


def sweep_directions(space: SymmetricSpace, o: Point, count: int, seed: int):
    """Deterministic direction sample on the unit sphere at o."""
    rng = np.random.default_rng(seed)
    return [space.random_unit_tangent(o, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def jacobian_check(M, o: Point, contact: ContactRecord,
                   diameter: float | None = None) -> VerificationReport:
    """Supporting conditions and the Gauss-map Jacobian bound at the contact.

    A - Hess B_v >= -1e-6, Hess B_v >= -1e-8 (both as minimum eigenvalues),
    and the measured J = |det dS_M| obeys J <= e^{n(n+1) kappa D} |GK|
    (1 + 1e-3).  A contact node whose Jacobian could not be measured (a
    stencil chart or translation failed) is excluded from the Jacobian
    comparison, mirroring the almost-everywhere scope of the area formula.
    """
    t0 = time.perf_counter()
    space = M.space
    n = M.n
    kappa = space.curvature_lower_bound
    d = diameter if diameter is not None else M.diameter_extrinsic()
    cn = contact.contact
    ok = not (cn.eig_min_support < EIG_FLOOR_SUPPORT
              or cn.eig_min_hessian < EIG_FLOOR_HESS)
    excluded = cn.jacobian is None
    lhs = rhs = margin = 0.0
    if not excluded:
        lhs = cn.jacobian
        rhs = math.exp(n * (n + 1) * kappa * d) * abs(cn.GK) * (1.0 + JAC_SLACK)
        margin = rhs - lhs
        if margin < 0.0:
            ok = False
    return _report(
        "jacobian", M, space, diameter=d, lhs=lhs, rhs=rhs,
        margin=margin, passed=ok,
        tolerances={"eig_floor_support": EIG_FLOOR_SUPPORT,
                    "eig_floor_hessian": EIG_FLOOR_HESS,
                    "jacobian_slack": JAC_SLACK},
        seed=0, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"stencil_excluded": excluded})


def contact_sweep(M, o: Point, count: int = SWEEP_COUNT, seed: int = 42,
                  measure_jacobian: bool = False):
    """First-contact records for a deterministic sweep of directions.

    A sweep of no directions proves nothing and is an input error.
    """
    if count < 1:
        raise InputDomainError("the contact sweep needs sweep_count >= 1")
    return [first_contact(M, o, v, measure_jacobian=measure_jacobian)
            for v in sweep_directions(M.space, o, count, seed)]


def contact_check(M, o: Point, sweep_count: int = SWEEP_COUNT,
                  seed: int = 42) -> VerificationReport:
    """Direction sweep of the contact pipeline (no Jacobian measurement).

    Every direction must be matched (S_M residual <= 1e-3 at its contact
    point) and the supporting eigenvalue floors must hold there.
    """
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_support = math.inf
    worst_hess = math.inf
    failures = 0
    for rec in contact_sweep(M, o, sweep_count, seed):
        cn = rec.contact
        worst_resid = max(worst_resid, cn.s_residual)
        worst_support = min(worst_support, cn.eig_min_support)
        worst_hess = min(worst_hess, cn.eig_min_hessian)
        if (cn.s_residual > RESID_TOL or cn.eig_min_support < EIG_FLOOR_SUPPORT
                or cn.eig_min_hessian < EIG_FLOOR_HESS):
            failures += 1
    return _report(
        "contact", M, M.space, diameter=0.0, lhs=worst_resid, rhs=RESID_TOL,
        margin=RESID_TOL - worst_resid, passed=failures == 0,
        tolerances={"residual": RESID_TOL,
                    "eig_floor_support": EIG_FLOOR_SUPPORT,
                    "eig_floor_hessian": EIG_FLOOR_HESS},
        seed=seed, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"sweep_count": sweep_count, "failures": failures,
                 "worst_eig_support": worst_support,
                 "worst_eig_hessian": worst_hess})


def jacobian_sweep_check(M, o: Point, sweep_count: int = SWEEP_COUNT,
                         seed: int = 42) -> VerificationReport:
    """Jacobian bound at the contact points of a direction sweep.

    Fails unless every record passes `jacobian_check`, at least one contact
    node was measured, and at most STENCIL_EXCLUDED_MAX of the contact
    nodes were stencil-excluded (a sweep that measured nothing proves
    nothing).
    """
    t0 = time.perf_counter()
    records = contact_sweep(M, o, sweep_count, seed, measure_jacobian=True)
    d = M.diameter_extrinsic()
    worst = None
    ok = True
    excluded = 0
    for rec in records:
        rep = jacobian_check(M, o, rec, diameter=d)
        ok = ok and rep.passed
        excluded += rep.details["stencil_excluded"]
        if worst is None or rep.margin < worst.margin:
            worst = rep
    measured = sweep_count - excluded
    ok = ok and measured > 0 and excluded <= STENCIL_EXCLUDED_MAX * sweep_count
    return _report(
        "jacobian", M, M.space, diameter=d, lhs=worst.lhs, rhs=worst.rhs,
        margin=worst.margin, passed=ok, tolerances=worst.tolerances,
        seed=seed, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"sweep_count": sweep_count, "measured": measured,
                 "stencil_excluded": excluded})


def total_curvature_check(M, o: Point, sweep_count: int = SWEEP_COUNT,
                          seed: int = 42) -> VerificationReport:
    """int_M |GK| >= e^{-n(n+1) kappa D} area(S^n), plus coverage sweep.

    The sweep asserts every sampled direction v has a contact node whose
    Busemann gradient matches the outward normal to 1e-3 -- the sampled
    form of "the Gauss map covers the sphere from the contact set".
    A sweep of no directions covers nothing and is an input error.
    """
    t0 = time.perf_counter()
    records = contact_sweep(M, o, sweep_count, seed)
    space = M.space
    n = M.n
    kappa = space.curvature_lower_bound
    d = M.diameter_extrinsic()
    lhs = M.integrate("total_curvature")
    rhs = math.exp(-n * (n + 1) * kappa * d) * sphere_area(n)
    sweep_failures = 0
    worst_resid = 0.0
    for rec in records:
        resid = rec.contact.s_residual
        worst_resid = max(worst_resid, resid)
        if resid > RESID_TOL:
            sweep_failures += 1
    margin = lhs - rhs
    passed = lhs >= rhs * (1.0 - INEQ_TOL) and sweep_failures == 0
    return _report(
        "total-curvature", M, space, diameter=d, lhs=lhs, rhs=rhs,
        margin=margin, passed=passed,
        tolerances={"inequality": INEQ_TOL, "sweep_residual": RESID_TOL},
        seed=seed, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"sweep_count": sweep_count, "sweep_failures": sweep_failures,
                 "worst_sweep_residual": worst_resid})


def willmore_check(M, o: Point) -> VerificationReport:
    """int_M |H/n|^n against the same exponential right side.

    On surfaces with A PSD at every node also asserts the integral
    dominates the total curvature (arithmetic-geometric mean inequality
    applied to the eigenvalues of A).
    """
    t0 = time.perf_counter()
    space = M.space
    n = M.n
    kappa = space.curvature_lower_bound
    d = M.diameter_extrinsic()
    lhs = M.integrate("willmore")
    rhs = math.exp(-n * (n + 1) * kappa * d) * sphere_area(n)
    total = M.integrate("total_curvature")
    all_psd = bool(np.min(np.linalg.eigvalsh(M.grid_forms().a)) >= -1e-6)
    passed = lhs >= rhs * (1.0 - INEQ_TOL)
    if all_psd and lhs < total * (1.0 - INEQ_TOL):
        passed = False
    return _report(
        "willmore", M, space, diameter=d, lhs=lhs, rhs=rhs,
        margin=lhs - rhs, passed=passed,
        tolerances={"inequality": INEQ_TOL},
        seed=0, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"total_curvature": total, "A_psd_everywhere": all_psd})


def isoperimetric_check(space: SymmetricSpace, center: Point, r: float,
                        grid_counts=None, radial_nodes: int = 24
                        ) -> VerificationReport:
    """area(dE)^{n+1}/vol(E)^n on the geodesic ball of radius r, D = 2r."""
    from .hypersurface import ball_volume, geodesic_sphere
    t0 = time.perf_counter()
    n = space.total_dim - 1
    kappa = space.curvature_lower_bound
    M = geodesic_sphere(space, center, r, grid_counts)
    area = M.integrate("area")
    vol = ball_volume(space, center, r, radial_nodes=radial_nodes,
                      grid_counts=M.grid_counts if grid_counts else None)
    d = 2.0 * r
    lhs = area ** (n + 1) / vol ** n
    rhs = (math.exp(-2.0 * n * (n + 1) * kappa * d) * sphere_area(n) ** (n + 1)
           / ball_volume_euclidean(n + 1) ** n)
    margin = lhs - rhs
    return _report(
        "isoperimetric", M, space, diameter=d, lhs=lhs, rhs=rhs,
        margin=margin, passed=margin >= -INEQ_TOL * rhs,
        tolerances={"inequality": INEQ_TOL},
        seed=0, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"area": area, "volume": vol})


# ---------------------------------------------------------------------------
# sampled Busemann / Gauss-map checks
# ---------------------------------------------------------------------------

def hessian_oracle_check(space: SymmetricSpace, o: Point, samples: int = 50,
                         seed: int = 42, radius: float = 2.0
                         ) -> VerificationReport:
    """Closed-form Busemann Hessian against the truncated-distance oracle.

    Random (v, x) with d(o, x) <= radius; pass iff the max entrywise
    difference stays below 1e-3.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        v = space.random_unit_tangent(o, rng)
        x = space.random_point(o, rng, radius)
        bus = BusemannFunction(space, o, v)
        closed = bus.hessian(x).a
        oracle = bus.truncated_oracle(x, "hessian").a
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    tol = 1e-3
    return _report(
        "hessian-oracle", None, space, surface="-", grid="-",
        diameter=0.0, lhs=worst, rhs=tol, margin=tol - worst,
        passed=worst <= tol, tolerances={"max_entrywise": tol}, seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"samples": samples, "radius": radius})


def hessian_bounds_check(space: SymmetricSpace, o: Point, samples: int = 1000,
                         seed: int = 42, radius: float = 2.0
                         ) -> VerificationReport:
    """Sampled Hessian norm and difference bounds.

    ||Hess B_v||_op <= kappa + 1e-6, and
    ||Hess B_v - Hess B_v'||_op <= kappa (n+1) |grad B_v - grad B_v'|
    with relative slack 1e-6, over random (v, v', x).
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    kappa = space.curvature_lower_bound
    n_plus_1 = space.total_dim
    violations = 0
    worst_norm = 0.0
    worst_ratio = 0.0
    for _ in range(samples):
        x = space.random_point(o, rng, radius)
        v = space.random_unit_tangent(o, rng)
        v2 = space.random_unit_tangent(o, rng)
        b1 = BusemannFunction(space, o, v)
        b2 = BusemannFunction(space, o, v2)
        h1, h2 = b1.hessian(x).a, b2.hessian(x).a
        norm1 = op_norm(h1)
        worst_norm = max(worst_norm, norm1)
        if norm1 > kappa + 1e-6:
            violations += 1
        g1, g2 = b1.gradient(x), b2.gradient(x)
        dg = space.norm(space.add(g1, space.scale(g2, -1.0)))
        dh = op_norm(h1 - h2)
        bound = kappa * n_plus_1 * dg
        if bound > 1e-12:
            ratio = dh / bound
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 1.0 + 1e-6:
                violations += 1
        elif dh > 1e-10:       # flat case: Hessians must agree outright
            violations += 1
    return _report(
        "hessian-bounds", None, space, surface="-", grid="-",
        diameter=0.0, lhs=worst_norm, rhs=kappa + 1e-6,
        margin=kappa + 1e-6 - worst_norm, passed=violations == 0,
        tolerances={"norm_slack": 1e-6, "difference_slack": 1e-6}, seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"samples": samples, "violations": violations,
                 "worst_difference_ratio": worst_ratio})


def lipschitz_check(space: SymmetricSpace, o: Point, samples: int = 500,
                    radius: float = 1.0, seed: int = 42
                    ) -> VerificationReport:
    """Two-sided Lipschitz bound for fiber translation, as a report."""
    from .gauss_map import lipschitz_audit
    t0 = time.perf_counter()
    rep = lipschitz_audit(space, o, sample_size=samples, radius=radius,
                          seed=seed)
    return _report(
        "lipschitz", None, space, surface="-", grid="-",
        diameter=radius, lhs=rep.worst_upper_ratio, rhs=1.0 + 1e-4,
        margin=1.0 + 1e-4 - rep.worst_upper_ratio, passed=rep.passed,
        tolerances={"slack": 1e-4}, seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"samples": rep.samples, "skipped": rep.skipped,
                 "worst_lower_ratio": rep.worst_lower_ratio,
                 "failures": len(rep.failures)})


def gauss_consistency_check(M, o: Point, min_nodes: int = 1000,
                            seed: int = 42) -> VerificationReport:
    """|grad B_{S_M(x)}(x) - nu(x)| <= 1e-5 at >= min_nodes grid nodes."""
    t0 = time.perf_counter()
    space = M.space
    if min_nodes < 1:
        raise InputDomainError(
            f"min_nodes must be at least 1, got {min_nodes}: a check of no "
            "node proves nothing")
    if M.size < min_nodes:
        raise InputDomainError(
            f"grid has {M.size} nodes, need >= {min_nodes} for this check")
    rng = np.random.default_rng(seed)
    nodes = (np.arange(M.size) if M.size == min_nodes
             else np.sort(rng.choice(M.size, size=min_nodes, replace=False)))
    chart = M.grid_chart()
    worst = 0.0
    failures = 0
    for idx in nodes:
        x = Point(space, tuple(p[idx] for p in chart["x"].parts))
        nu = space.coords_to_tangent(x, chart["nu"][idx])
        try:
            v = translate_direction(space, o, x, nu)
        except TranslationFailure:
            failures += 1
            continue
        grad = BusemannFunction(space, o, v).gradient(x)
        worst = max(worst, space.norm(space.add(grad, space.scale(nu, -1.0))))
    tol = 1e-5
    passed = failures == 0 and worst <= tol
    return _report(
        "gauss-consistency", M, space, diameter=0.0, lhs=worst, rhs=tol,
        margin=tol - worst, passed=passed, tolerances={"residual": tol},
        seed=seed, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"nodes": int(min_nodes), "translation_failures": failures})


# ---------------------------------------------------------------------------
# standalone matrix audits
# ---------------------------------------------------------------------------

def det_comparison_audit(dim: int, samples: int, seed: int
                         ) -> VerificationReport:
    """Determinant comparisons used in the Jacobian argument.

    (1) |det(C N)| <= |det N| whenever ||C||_op <= 1;
    (2) det(N + P) >= det N for N, P PSD.
    """
    if dim > 10:
        raise InputDomainError("det comparison audit supports dim <= 10")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = 0
    worst = math.inf
    for _ in range(samples):
        nmat = rng.standard_normal((dim, dim))
        while abs(np.linalg.det(nmat)) < 1e-8:
            nmat = rng.standard_normal((dim, dim))
        c = rng.standard_normal((dim, dim))
        c = c / (np.linalg.norm(c, 2) / rng.uniform(0.1, 1.0))
        m = c @ nmat
        lhs1 = abs(np.linalg.det(m))
        rhs1 = abs(np.linalg.det(nmat)) * (1.0 + 1e-12)
        worst = min(worst, rhs1 - lhs1)
        if lhs1 > rhs1:
            violations += 1
        g = rng.standard_normal((dim, dim))
        npsd = g @ g.T
        g2 = rng.standard_normal((dim, dim))
        m2 = npsd + g2 @ g2.T
        lhs2 = np.linalg.det(npsd) * (1.0 - 1e-12)
        rhs2 = np.linalg.det(m2)
        worst = min(worst, rhs2 - lhs2)
        if rhs2 < lhs2:
            violations += 1
    return _report(
        "det-audit", None, None, surface="-", grid="-",
        diameter=0.0, lhs=float(violations), rhs=0.0, margin=worst,
        passed=violations == 0, tolerances={"relative": 1e-12}, seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"dim": dim, "samples": samples})


def _random_p_element(alg: MatrixLieAlgebra, rng):
    mats = alg.p_basis_matrices()
    c = rng.standard_normal(len(mats))
    return sum(ci * m for ci, m in zip(c, mats))


def sqrt_perturbation_audit(dim: int, samples: int, seed: int
                            ) -> VerificationReport:
    """||sqrt(A^2) - sqrt(B^2)||_op <= sqrt(dim) ||A - B||_op for symmetric A, B.

    Audited on random symmetric matrices and on ad operators of random
    p-elements of sl(2) and sl(3) (the operators whose square roots give
    the Busemann Hessians).
    """
    if dim > 12:
        raise InputDomainError("sqrt perturbation audit supports dim <= 12")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = 0
    worst = math.inf

    def check(a, b):
        nonlocal violations, worst
        d = a.shape[0]
        lhs = op_norm(psd_sqrt(a @ a).a - psd_sqrt(b @ b).a)
        rhs = math.sqrt(d) * op_norm(a - b) * (1.0 + 1e-10)
        worst = min(worst, rhs - lhs)
        if lhs > rhs:
            violations += 1

    for _ in range(samples):
        g = rng.standard_normal((dim, dim))
        a = 0.5 * (g + g.T)
        g = rng.standard_normal((dim, dim))
        b = 0.5 * (g + g.T)
        check(a, b)
    for n in (2, 3):
        alg = MatrixLieAlgebra("sl", n)
        per = max(1, samples // 10)
        for _ in range(per):
            u = _random_p_element(alg, rng)
            u2 = _random_p_element(alg, rng)
            ad1 = alg.ad_matrix_ortho(u)
            ad2 = alg.ad_matrix_ortho(u2)
            check(0.5 * (ad1 + ad1.T), 0.5 * (ad2 + ad2.T))
    return _report(
        "sqrt-audit", None, None, surface="-", grid="-",
        diameter=0.0, lhs=float(violations), rhs=0.0, margin=worst,
        passed=violations == 0, tolerances={"relative": 1e-10}, seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"dim": dim, "samples": samples})
