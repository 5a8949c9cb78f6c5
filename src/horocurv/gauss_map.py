"""Direction translation to a base fiber and the generalized Gauss map.

`translate_direction` realizes G^x_o: the unit u at x maps to the unit v
at o whose Busemann gradient at x is u (equivalently, v is the initial
direction at o of the ray asymptotic to exp_x(t * (-u))).  The closed
form of each factor runs on one point or on whole stacks, and every row
comes with its definitional residual |grad B_v(x) - u| for callers to gate
at TOL_GAUSS.

`gauss_differential` is the differential of the Gauss map
S_M(x) = G^x_o(nu(x)) from central differences over the stencil of the
shape operator at x (`Hypersurface.fundamental_forms`), for a stack of
contacts in one translation; it evaluates no chart of its own, has no
one-sided fallback, and marks each contact whose stencil fails the gate.

`random_samples` draws the samples of the Hessian-bound and Lipschitz
checks of `verify_harness` as stacks, in a per-sample loop's rng order.

Sign convention: grad B_v(o) = -v, so G^o_o(u) = -u; this matches the
Euclidean case (v = -u everywhere) and the on-ray identity.
"""

from __future__ import annotations

import numpy as np

from .busemann import _WEIGHT_EPS, BusemannFunction
from .errors import InputDomainError
from .model_spaces import Point, SymmetricSpace, Tangent

TOL_GAUSS = 1e-5


def translate_direction(space: SymmetricSpace, o: Point, x: Point,
                        u: Tangent):
    """(v, resid): G^x_o(u), the unit v at o with grad B_v(x) = u, and the
    residual |grad B_v(x) - u|, for a unit u at x or for stacks of points
    and directions (one v and residual per row; NaN where a row is not
    finite).  A direction that is not unit is an input error."""
    nrm = space.norm(u)
    if np.any(np.abs(nrm - 1.0) > 1e-8):
        raise InputDomainError(f"direction must be unit (|u| = {nrm})")
    parts = []
    for f, op, xp, up in zip(space.factors, o.parts, x.parts, u.parts):
        c = np.sqrt(np.maximum(f.inner(xp, up, up), 0.0))
        c = np.reshape(c, np.shape(c) + (1,) * f.point_ndim)
        unit = c > _WEIGHT_EPS
        c = np.where(unit, c, 1.0)
        parts.append(np.where(unit, c * f.translate(op, xp, up / c), 0.0))
    v = Tangent(space, o, tuple(parts))
    v = space.scale(v, 1.0 / space.norm(v))
    grad = BusemannFunction(space, o, v).gradient(x)
    return v, space.norm(space.add(grad, space.scale(u, -1.0)))


def gauss_differential(space: SymmetricSpace, o: Point, stencil):
    """(W, ok): dS_M on the orthonormal legs of T_xM, (..., n+1, n) in
    the frame coordinates at o, and whether each contact's stencil passed
    the TOL_GAUSS residual gate (W of a contact that did not is meaningless).
    `stencil` is the shape-operator stencil of
    `Hypersurface.fundamental_forms`, leading axes (..., n, 2), whose leg i
    steps along onb_coords[i]; column i is the central difference of S_M
    over its two points, all translated in one call."""
    x = stencil["x"]
    v, resid = translate_direction(space, o, x,
                                   space.coords_to_tangent(x, stencil["nu"]))
    s = space.tangent_to_coords(v)
    w = (s[..., 0, :] - s[..., 1, :]) / (2.0 * stencil["h"])
    return np.swapaxes(w, -1, -2), np.all(resid <= TOL_GAUSS, axis=(-2, -1))


def random_samples(space: SymmetricSpace, o: Point, rng, count: int,
                   radius: float):
    """`count` samples drawn in the rng order of a loop that takes, per
    sample, random_point(o, rng, radius) and the frame coordinates of two
    random tangents: (points, coords, coords), stacked along a first axis."""
    dim = space.total_dim
    (c, c1, c2), r = np.empty((3, count, dim)), np.empty(count)
    for i in range(count):
        c[i], r[i] = rng.standard_normal(dim), radius * rng.random() ** (1.0 / dim)
        c1[i], c2[i] = rng.standard_normal(dim), rng.standard_normal(dim)
    return space.exp_map(o, space.scale(space.unit_tangent(o, c), r)), c1, c2
