"""Direction translation to a base fiber and the generalized Gauss map.

`translate_direction` realizes G^x_o: the unit u at x maps to the unit v
at o whose Busemann gradient at x is u (equivalently, v is the initial
direction at o of the ray asymptotic to exp_x(t * (-u))).  Closed forms
per factor are used and every result is gated by the definitional
residual |grad B_v(x) - u|; `translate_direction_ray` is the independent
asymptotic-ray construction used for cross-validation.

`gauss_differential` is the differential of the Gauss map
S_M(x) = G^x_o(nu(x)) from central differences over the stencil of the
shape operator at x (`Hypersurface.fundamental_forms`); it evaluates no
chart of its own and has no one-sided fallback.

Sign convention: grad B_v(o) = -v, so G^o_o(u) = -u; this matches the
Euclidean case (v = -u everywhere) and the on-ray identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .busemann import BusemannFunction
from .errors import InputDomainError, TranslationFailure
from .model_spaces import Point, SymmetricSpace, Tangent
from .numeric_kernel import richardson_limit

TOL_GAUSS = 1e-5
TOL_RAY = 1e-8
RAY_T_MAX = 2 ** 10
LIPSCHITZ_SLACK = 1e-4
_WEIGHT_EPS = 1e-12


def translate_direction(space: SymmetricSpace, o: Point, x: Point, u: Tangent,
                        tol_gauss: float = TOL_GAUSS) -> Tangent:
    """G^x_o(u): the unit v at o with grad B_v(x) = u."""
    nrm = space.norm(u)
    if abs(nrm - 1.0) > 1e-8:
        raise InputDomainError(f"direction must be unit (|u| = {nrm})")
    parts = []
    for f, op, xp, up in zip(space.factors, o.parts, x.parts, u.parts):
        c = math.sqrt(max(f.inner(xp, up, up), 0.0))
        if c > _WEIGHT_EPS:
            parts.append(c * f.translate(op, xp, up / c))
        else:
            parts.append(np.zeros_like(np.asarray(up, dtype=float)))
    v = Tangent(space, o, tuple(parts))
    v = space.scale(v, 1.0 / space.norm(v))
    grad = BusemannFunction(space, o, v).gradient(x)
    resid = space.norm(space.add(grad, space.scale(u, -1.0)))
    if resid > tol_gauss:
        raise TranslationFailure(
            f"translated direction fails the gradient residual check "
            f"({resid:.3e} > {tol_gauss:.0e})", last_iterates=(v, grad))
    return v


def translate_direction_ray(space: SymmetricSpace, o: Point, x: Point,
                            u: Tangent, tol: float = TOL_RAY,
                            t_max: float = RAY_T_MAX) -> Tangent:
    """Asymptotic-ray oracle for G^x_o(u).

    Follows exp_x(t * (-u)) with t doubling, taking the unit initial
    direction at o of the connecting geodesic; the 1/t tail (flat
    directions) is removed by `richardson_limit`.  t is capped so no
    factor coordinate overflows.
    """
    cap = t_max
    for f, xp, up in zip(space.factors, x.parts, u.parts):
        c = math.sqrt(max(f.inner(xp, up, up), 0.0))
        if c > _WEIGHT_EPS:
            cap = min(cap, f.ray_time_cap(xp, up / c) / c)

    def v_at(t):
        parts = tuple(f.ray_log(op, xp, up, t) for f, op, xp, up
                      in zip(space.factors, o.parts, x.parts, u.parts))
        w = Tangent(space, o, parts)
        return space.tangent_to_coords(w) / space.norm(w)

    res = richardson_limit(v_at, tol, cap, 8.0)
    if res.converged:
        v = space.coords_to_tangent(o, res.limit)
        return space.scale(v, 1.0 / space.norm(v))
    raise TranslationFailure(
        "asymptotic-ray translation did not converge",
        last_iterates=(res.limit, res.last_estimate))


def gauss_differential(space: SymmetricSpace, o: Point, stencil) -> np.ndarray:
    """dS_M on the orthonormal legs of T_xM: (n+1, n) in frame_at(o)
    coordinates.  `stencil` is the shape-operator stencil of
    `Hypersurface.fundamental_forms`, whose leg i steps along onb_coords[i];
    column i is the central difference of S_M over its two points."""
    x, nu = stencil["x"], stencil["nu"]
    s = np.empty_like(nu)
    for idx in np.ndindex(nu.shape[:2]):
        xi = Point(space, tuple(p[idx] for p in x.parts))
        s[idx] = space.tangent_to_coords(translate_direction(
            space, o, xi, space.coords_to_tangent(xi, nu[idx])))
    return ((s[:, 0] - s[:, 1]) / (2.0 * stencil["h"])).T


@dataclass
class LipschitzReport:
    """Sampled audit of the fiber-translation Lipschitz bounds."""

    samples: int
    skipped: int
    worst_upper_ratio: float      # max |v-v'| / (e^{(n+1) kappa d} |u-u'|)
    worst_lower_ratio: float      # min |v-v'| / (e^{-(n+1) kappa d} |u-u'|)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def lipschitz_audit(space: SymmetricSpace, o: Point, sample_size: int = 100,
                    radius: float = 1.0, seed: int = 42) -> LipschitzReport:
    """Sample the two-sided Lipschitz bound for G^x_o.

    For x with d(o, x) <= radius and unit u, u' at x the audited bounds are
    e^{-(n+1) kappa d} |u-u'| <= |v-v'| <= e^{(n+1) kappa d} |u-u'|
    (with slack 1e-4), where n+1 is the ambient dimension.
    """
    if radius <= 0.0:
        raise InputDomainError("audit radius must be positive")
    rng = np.random.default_rng(seed)
    n_plus_1 = space.total_dim
    kappa = space.curvature_lower_bound
    worst_upper = 0.0
    worst_lower = math.inf
    skipped = 0
    failures = []
    for i in range(sample_size):
        x = space.random_point(o, rng, radius)
        u = space.random_unit_tangent(x, rng)
        u2 = space.random_unit_tangent(x, rng)
        du = space.norm(space.add(u, space.scale(u2, -1.0)))
        if du < 1e-12:
            skipped += 1
            continue
        v = translate_direction(space, o, x, u)
        v2 = translate_direction(space, o, x, u2)
        dv = space.norm(space.add(v, space.scale(v2, -1.0)))
        d = space.distance(o, x)
        lip = math.exp(n_plus_1 * kappa * d)
        upper_ratio = dv / (lip * du)
        lower_ratio = dv / (du / lip)
        worst_upper = max(worst_upper, upper_ratio)
        worst_lower = min(worst_lower, lower_ratio)
        if upper_ratio > 1.0 + LIPSCHITZ_SLACK or lower_ratio < 1.0 - LIPSCHITZ_SLACK:
            failures.append({"sample": i, "distance": d, "du": du, "dv": dv,
                             "upper_ratio": upper_ratio,
                             "lower_ratio": lower_ratio})
    return LipschitzReport(samples=sample_size, skipped=skipped,
                           worst_upper_ratio=worst_upper,
                           worst_lower_ratio=worst_lower, failures=failures)
