"""Verification pipeline for the total-curvature estimate and its corollaries.

Checks, each returning a VerificationReport:

* contact_check / jacobian_sweep_check -- horosphere first-contact
  points of Busemann foliations against a closed hypersurface, the
  supporting second-order conditions there, and the Gauss-map Jacobian
  bound J <= e^{n(n+1) kappa D} |GK|.  first_contact searches a stack of
  directions in lockstep and returns one ContactSweep table, a row per
  direction; contact_sweep does so for a seeded sweep, and the checks
  reduce the table's columns.
* gauss_consistency_check, hessian_bounds_check, lipschitz_check -- the
  sampled Gauss-map and Busemann bounds, each one stacked evaluation of
  its nodes or of samples drawn in the rng order of a per-sample loop.
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
from .errors import InputDomainError
from .gauss_map import (TOL_GAUSS, gauss_differential, random_samples,
                        translate_direction)
from .lie_structure import ad_matrix, basis, p_dim
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
GRID_BLOCK_PAIRS = 1 << 16     # direction-node pairs per grid argmax block
LINE_POINTS = 8                # uniform abscissae per line search
LINE_SHRINKS = 5               # fan shrinks of a row whose first point is off


def sphere_area(n: int) -> float:
    """Area of the unit n-sphere in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def ball_volume_euclidean(n_plus_1: int, r: float = 1.0) -> float:
    """Volume of the Euclidean ball of dimension n+1."""
    return (math.pi ** (n_plus_1 / 2.0) / math.gamma(n_plus_1 / 2.0 + 1.0)
            * r ** n_plus_1)


@dataclass
class ContactSweep:
    """First-contact data of the horosphere foliations of B_v against M,
    one row per direction of the stack v."""

    v: Tangent                    # (D,) unit directions at o
    c_v: np.ndarray               # max of B_v over M, off the grid
    params: np.ndarray            # (D, n) chart parameters of the maximizers
    s_residual: np.ndarray        # |grad B_v(x) - nu(x)|
    eig_min_support: np.ndarray   # min eigenvalue of A - Hess B_v on T_xM
    eig_min_hessian: np.ndarray   # min eigenvalue of Hess B_v (ambient)
    GK: np.ndarray
    jacobian: np.ndarray          # |det dS_M| on T_xM; NaN if unmeasured
    stencil_ok: np.ndarray        # False iff a requested jacobian failed

    @property
    def tie_tol(self) -> np.ndarray:
        return TIE_TOL_BASE * (1.0 + np.abs(self.c_v))


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


def _need_samples(samples: int):
    if samples < 1:
        raise InputDomainError(f"samples must be at least 1, got {samples}: "
                               "a check of no sample proves nothing")


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

def _surface_values(M, bus, q):
    """B_v(embed(q)) for parameter rows q (D, n) paired with the D
    directions of `bus`; a row that leaves the chart or the space gets
    -inf (a stack that raises InputDomainError is halved until the
    offending rows stand alone)."""
    try:
        return bus.value(M.embed(q))
    except InputDomainError:
        if len(q) == 1:
            return np.array([-math.inf])
        h = len(q) // 2
        return np.concatenate([_surface_values(M, bus[:h], q[:h]),
                               _surface_values(M, bus[h:], q[h:])])


def _line_max(g, t_max, g0, slope):
    """Maximizers of line functions g_i on (0, t_max_i], a row each, from two
    stacked calls of g: LINE_POINTS abscissae j*h, then the vertex of the
    parabola through the best one and its neighbours (through g0 = g(0),
    g'(0) = slope and g(h) when t = 0 is best).  g(i, t) maps abscissae t
    (len(i), m) of rows i to values, -inf off the chart; a row whose first
    abscissa is off the chart and gains nothing shrinks h by LINE_POINTS,
    at most LINE_SHRINKS times.  Returns (s, g(s)), (0, g0) if none gains.
    """
    j = np.arange(1, LINE_POINTS + 1)
    h = t_max / LINE_POINTS
    vals = g(np.arange(len(h)), h[:, None] * j)
    for _ in range(LINE_SHRINKS):
        lost = np.flatnonzero(np.isneginf(vals[:, 0]) & ~(vals.max(-1) > g0))
        if not len(lost):
            break
        h[lost] /= LINE_POINTS
        vals[lost] = g(lost, h[lost, None] * j)
    ext = np.column_stack([g0, vals, np.full(len(h), -math.inf)])
    j = np.argmax(ext[:, :-1], axis=-1)                 # g(j h) is the best
    lo, mid, hi = np.take_along_axis(ext, j[:, None] + [-1, 0, 1], axis=1).T
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(j > 0, h * (j + 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)),
                     slope * h * h / (2.0 * (slope * h + g0 - hi)))
    # NaN or 0 where a neighbour is off the chart or the line is flat
    vertex = np.flatnonzero(np.isfinite(t) & (t > 0.0))
    s, val = j * h, mid
    if len(vertex):
        top = g(vertex, t[vertex, None])[:, 0]
        up = top > val[vertex]
        s[vertex[up]], val[vertex[up]] = t[vertex[up]], top[up]
    return s, val


def _ascend_max(M, bus: BusemannFunction, p, best):
    """Natural-gradient ascent of B_v(embed(params)) for every direction of
    `bus` in lockstep, from parameters p (D, n) where B_v is best (D,).

    Each step follows the chart projection of grad B_v (steepest ascent in
    the surface metric, which is coordinate-free and conditions well near
    chart poles) and a line search (`_line_max`): per step one stacked
    chart and gradient and two stacked embeds and values for the directions
    still ascending.  A direction stops at machine-level residuals, or when
    a step gains nothing, and keeps its current chart.  The line search
    moves no parameter by more than ASCENT_MAX_MOVE: from a coarse grid
    node a longer step makes B_v multimodal along the line, and the search
    would settle on a lower mode.  Returns (values, params, chart), chart
    the stacked chart at params, the one chart of each contact.
    """
    from .hypersurface import _join
    space = M.space
    p, best = np.array(p, dtype=float), np.array(best, dtype=float)
    stopped, charts = [], []             # row indices and charts that stopped
    rows = np.arange(len(p))             # the directions still ascending
    chart = M.chart(p)

    def leave(keep):
        # directions rows[~keep] stop with their current chart
        nonlocal rows, chart
        stopped.append(rows[~keep])
        charts.append({k: v[~keep] for k, v in chart.items()})
        rows, chart = rows[keep], {k: v[keep] for k, v in chart.items()}

    for _ in range(ASCENT_STEPS):
        grad = space.tangent_to_coords(bus[rows].gradient(chart["x"]))
        rhs = (chart["tangents"] @ grad[..., None])[..., 0]
        dp = np.linalg.solve(chart["gram"], rhs[..., None])[..., 0]
        gnorm = np.sqrt(np.maximum(np.vecdot(rhs, dp), 0.0))
        go = ~(gnorm < 1e-11)
        leave(go)
        if not len(rows):
            break
        dp = dp[go]
        # ascent step ~ inverse curvature of B on M, capped in parameter space
        t_max = np.minimum(4.0, ASCENT_MAX_MOVE / np.max(np.abs(dp), axis=-1))
        start = p[rows]

        def g(i, t):         # B_v at start + t dp on ascending rows i
            q = start[i, None] + t[..., None] * dp[i, None]
            return _surface_values(M, bus[np.repeat(rows[i], t.shape[1])],
                                   q.reshape(-1, M.n)).reshape(t.shape)
        s, val = _line_max(g, t_max, best[rows], gnorm[go] ** 2)
        up = ~(val <= best[rows])
        leave(up)
        if not len(rows):
            break
        best[rows] = val[up]
        p[rows] = start[up] + s[up, None] * dp[up]
        chart = M.chart(p[rows])
    leave(np.zeros(len(rows), dtype=bool))
    order = np.argsort(np.concatenate(stopped))
    return best, p, {k: _join([c[k] for c in charts])[order]
                     for k in charts[0]}


def _grid_argmax(M, bus: BusemannFunction, count: int):
    """The grid node with the largest B_v, and that value, per direction.

    The (direction x node) values come in blocks of whole nodes, at most
    GRID_BLOCK_PAIRS pairs each, so factor work that depends on the node
    alone (the inverse of the translated SPD point) is done once per node.
    """
    pts = M.points_stack()
    rows = bus[:, None]
    step = max(1, GRID_BLOCK_PAIRS // count)
    best = np.full(count, -math.inf)
    node = np.zeros(count, dtype=int)
    for s in range(0, M.size, step):
        vals = rows.value(pts[s:s + step])
        j = np.argmax(vals, axis=-1)
        top = vals[np.arange(count), j]
        up = top > best
        best, node = np.where(up, top, best), np.where(up, s + j, node)
    return node, best


def first_contact(M, o: Point, v: Tangent,
                  measure_jacobian: bool = False) -> ContactSweep:
    """The contact table of the (D,) direction stack v: c_v = max_M B_v by
    the lockstep ascent from the grid node with the largest B_v, and the
    rows at those off-grid points from one stacked pass over the ascent's
    last charts: the fundamental forms and their stencils, the Busemann
    gradients and Hessians, and the Gauss-map Jacobians from one
    translation of all stencil points.  A Jacobian whose stencil fails the
    translation gate is not measured (NaN), and only its own row is
    marked."""
    space = M.space
    if np.ndim(v.parts[0]) != space.factors[0].point_ndim + 1:
        raise InputDomainError("first_contact takes a (D,) stack of directions,"
                               f" got a part of shape {np.shape(v.parts[0])}")
    count = len(v.parts[0])
    bus = BusemannFunction(space, o, v)
    node, start = _grid_argmax(M, bus, count)
    c_v, params, chart = _ascend_max(M, bus, M.params[node], start)
    data, stencil = M.fundamental_forms(params, chart)
    resid = space.norm(space.add(bus.gradient(data.x), space.scale(data.nu, -1.0)))
    hess = bus.hessian(data.x).a
    hess_tan = data.onb_coords @ hess @ np.swapaxes(data.onb_coords, -1, -2)
    jac, ok = np.full(count, math.nan), np.ones(count, dtype=bool)
    if measure_jacobian:
        w, ok = gauss_differential(space, o, stencil)
        det = np.linalg.det(np.swapaxes(w, -1, -2) @ w)
        jac = np.where(ok, np.sqrt(np.maximum(det, 0.0)), math.nan)
    return ContactSweep(
        v=v, c_v=c_v, params=params, s_residual=resid,
        eig_min_support=np.min(np.linalg.eigvalsh(data.a - hess_tan), axis=-1),
        eig_min_hessian=np.min(np.linalg.eigvalsh(hess), axis=-1), GK=data.GK,
        jacobian=jac, stencil_ok=ok)


def sweep_directions(space: SymmetricSpace, o: Point, count: int,
                     seed: int) -> Tangent:
    """Deterministic (count,) stack of unit directions at o."""
    rng = np.random.default_rng(seed)
    return space.unit_tangent(o, rng.standard_normal((count, space.total_dim)))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def contact_sweep(M, o: Point, count: int = SWEEP_COUNT, seed: int = 42,
                  measure_jacobian: bool = False) -> ContactSweep:
    """The contact table of a deterministic sweep of directions, all
    searched in one lockstep ascent (`_ascend_max`).

    A sweep of no directions proves nothing and is an input error.
    """
    if count < 1:
        raise InputDomainError("the contact sweep needs sweep_count >= 1")
    return first_contact(M, o, sweep_directions(M.space, o, count, seed),
                         measure_jacobian)


def _floors_fail(sweep: ContactSweep) -> np.ndarray:
    """Rows whose supporting eigenvalue floors fail (NaN fails)."""
    return (~(sweep.eig_min_support >= EIG_FLOOR_SUPPORT)
            | ~(sweep.eig_min_hessian >= EIG_FLOOR_HESS))


def contact_check(M, o: Point, sweep_count: int = SWEEP_COUNT,
                  seed: int = 42) -> VerificationReport:
    """Direction sweep of the contact pipeline (no Jacobian measurement).

    Every direction must be matched (S_M residual <= 1e-3 at its contact
    point) and the supporting eigenvalue floors must hold there; a NaN
    residual or eigenvalue fails.
    """
    t0 = time.perf_counter()
    sweep = contact_sweep(M, o, sweep_count, seed)
    worst_resid = float(np.max(sweep.s_residual))
    failures = int(np.sum(~(sweep.s_residual <= RESID_TOL) | _floors_fail(sweep)))
    return _report(
        "contact", M, M.space, diameter=0.0, lhs=worst_resid, rhs=RESID_TOL,
        margin=RESID_TOL - worst_resid, passed=failures == 0,
        tolerances={"residual": RESID_TOL,
                    "eig_floor_support": EIG_FLOOR_SUPPORT,
                    "eig_floor_hessian": EIG_FLOOR_HESS},
        seed=seed, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"sweep_count": sweep_count, "failures": failures,
                 "worst_eig_support": float(np.min(sweep.eig_min_support)),
                 "worst_eig_hessian": float(np.min(sweep.eig_min_hessian))})


def jacobian_sweep_check(M, o: Point, sweep_count: int = SWEEP_COUNT,
                         seed: int = 42) -> VerificationReport:
    """Supporting conditions and the Gauss-map Jacobian bound at the
    contact points of a direction sweep.

    At every contact A - Hess B_v >= -1e-6 and Hess B_v >= -1e-8 (both as
    minimum eigenvalues), and every measured J = |det dS_M| obeys
    J <= e^{n(n+1) kappa D} |GK| (1 + 1e-3); a NaN fails.  A contact whose
    Jacobian could not be measured (a stencil point failed the translation
    gate) is left out of the Jacobian comparison, mirroring the
    almost-everywhere scope of the area formula.  Fails unless at least
    one contact was measured and at most STENCIL_EXCLUDED_MAX of them were
    excluded (a sweep that measured nothing proves nothing).  The report
    shows the measured contact with the smallest margin.
    """
    t0 = time.perf_counter()
    sweep = contact_sweep(M, o, sweep_count, seed, measure_jacobian=True)
    n, kappa = M.n, M.space.curvature_lower_bound
    d = M.diameter_extrinsic()
    measured = sweep.stencil_ok
    rhs = math.exp(n * (n + 1) * kappa * d) * np.abs(sweep.GK) * (1.0 + JAC_SLACK)
    margin = rhs - sweep.jacobian
    bad = _floors_fail(sweep) | (measured & ~(margin >= 0.0))
    count = int(np.sum(measured))
    excluded = sweep_count - count
    lhs_w = rhs_w = margin_w = 0.0
    if count:
        w = np.argmin(np.where(measured, margin, math.inf))
        lhs_w, rhs_w, margin_w = sweep.jacobian[w], rhs[w], margin[w]
    ok = (not bad.any() and count > 0
          and excluded <= STENCIL_EXCLUDED_MAX * sweep_count)
    return _report(
        "jacobian", M, M.space, diameter=d, lhs=lhs_w, rhs=rhs_w,
        margin=margin_w, passed=ok,
        tolerances={"eig_floor_support": EIG_FLOOR_SUPPORT,
                    "eig_floor_hessian": EIG_FLOOR_HESS,
                    "jacobian_slack": JAC_SLACK},
        seed=seed, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"sweep_count": sweep_count, "measured": count,
                 "stencil_excluded": excluded})


def total_curvature_check(M, o: Point, sweep_count: int = SWEEP_COUNT,
                          seed: int = 42) -> VerificationReport:
    """int_M |GK| >= e^{-n(n+1) kappa D} area(S^n), plus coverage sweep.

    The sweep asserts every sampled direction v has a contact node whose
    Busemann gradient matches the outward normal to 1e-3 (a NaN residual
    fails) -- the sampled form of "the Gauss map covers the sphere from
    the contact set".  A sweep of no directions covers nothing and is an
    input error.
    """
    t0 = time.perf_counter()
    sweep = contact_sweep(M, o, sweep_count, seed)
    space = M.space
    n = M.n
    kappa = space.curvature_lower_bound
    d = M.diameter_extrinsic()
    lhs = M.integrate("total_curvature")
    rhs = math.exp(-n * (n + 1) * kappa * d) * sphere_area(n)
    sweep_failures = int(np.sum(~(sweep.s_residual <= RESID_TOL)))
    margin = lhs - rhs
    passed = lhs >= rhs * (1.0 - INEQ_TOL) and sweep_failures == 0
    return _report(
        "total-curvature", M, space, diameter=d, lhs=lhs, rhs=rhs,
        margin=margin, passed=passed,
        tolerances={"inequality": INEQ_TOL, "sweep_residual": RESID_TOL},
        seed=seed, runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"sweep_count": sweep_count, "sweep_failures": sweep_failures,
                 "worst_sweep_residual": float(np.max(sweep.s_residual))})


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
    _need_samples(samples)
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
    _need_samples(samples)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    kappa = space.curvature_lower_bound
    n_plus_1 = space.total_dim
    x, c1, c2 = random_samples(space, o, rng, samples, radius)
    b1 = BusemannFunction(space, o, space.unit_tangent(o, c1))
    b2 = BusemannFunction(space, o, space.unit_tangent(o, c2))
    h1, h2 = b1.hessian(x).a, b2.hessian(x).a
    norm1 = op_norm(h1)
    dg = space.norm(space.add(b1.gradient(x), space.scale(b2.gradient(x), -1.0)))
    dh = op_norm(h1 - h2)
    bound = kappa * n_plus_1 * dg
    curved = bound > 1e-12     # flat case: the Hessians must agree outright
    ratio = dh / np.where(curved, bound, 1.0)
    violations = int(np.sum(norm1 > kappa + 1e-6)
                     + np.sum(np.where(curved, ratio > 1.0 + 1e-6, dh > 1e-10)))
    worst_norm = float(np.max(norm1, initial=0.0))
    worst_ratio = float(np.max(ratio[curved], initial=0.0))
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
    """|grad B_{S_M(x)}(x) - nu(x)| <= 1e-5 at >= min_nodes grid nodes,
    all translated in one stacked call; a node whose translation fails the
    TOL_GAUSS gate counts as a translation failure."""
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
    x = chart["x"][nodes]
    _, resid = translate_direction(
        space, o, x, space.coords_to_tangent(x, chart["nu"][nodes]))
    translated = resid <= TOL_GAUSS
    failures = int(np.sum(~translated))
    worst = float(np.max(resid[translated], initial=0.0))
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
    _need_samples(samples)
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


def sqrt_perturbation_audit(dim: int, samples: int, seed: int
                            ) -> VerificationReport:
    """||sqrt(A^2) - sqrt(B^2)||_op <= sqrt(dim) ||A - B||_op for symmetric A, B.

    Audited on random symmetric matrices and on ad operators of random
    p-elements of sl(2) and sl(3) (the operators whose square roots give
    the Busemann Hessians).
    """
    if dim > 12:
        raise InputDomainError("sqrt perturbation audit supports dim <= 12")
    _need_samples(samples)
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
        # pairs of random p-elements, drawn in the order of a per-pair loop
        p_basis = basis(n)[:p_dim(n)]
        c = rng.standard_normal((max(1, samples // 10), 2, len(p_basis)))
        for ad1, ad2 in ad_matrix(np.tensordot(c, p_basis, axes=1)):
            check(0.5 * (ad1 + ad1.T), 0.5 * (ad2 + ad2.T))
    return _report(
        "sqrt-audit", None, None, surface="-", grid="-",
        diameter=0.0, lhs=float(violations), rhs=0.0, margin=worst,
        passed=violations == 0, tolerances={"relative": 1e-10}, seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1e3,
        details={"dim": dim, "samples": samples})
