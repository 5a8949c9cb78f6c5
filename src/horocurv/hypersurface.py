"""Closed starshaped hypersurfaces as parametrized quadrature meshes.

A surface is the image of the unit sphere S^n under
e -> exp_center(r(e) e), where e is a unit vector of frame coordinates at
the center.  The parameters are the unit vectors e themselves.  The chart
about e is xi -> normalize(e + B(e) xi), with B(e) an orthonormal basis of
e^perp (`_basis`, from a Householder reflection), so it has no pole, and
its stencil points and ascent steps stay on the sphere.

Grid nodes are placed on angle axes and converted to unit vectors once:

* n = 2: (u, phi) with u = cos(polar angle) on Gauss-Legendre nodes and
  uniform longitude (grid spec "LATxLON");
* n >= 3: hyperspherical angles on Gauss-Legendre x uniform azimuth
  (grid spec "K^N").

Area weights are the quadrature weights times the closed-form angle
density times the numerically evaluated chart Jacobian, so the same code
integrates over round and perturbed surfaces alike.

Evaluation is batched: `chart` takes a single unit direction (n+1,) or a
stack (..., n+1) and returns stacked points, tangent frame coordinates, Gram
matrices, Jacobians and unit normals, through the stack-capable factor
`exp`, `dexp` and coordinate maps.  The shape operators of all grid nodes
come from two such calls per block of nodes, one at the nodes and one at
their 2n finite-difference stencil parameters, followed by one stacked
parallel transport; the off-grid contact points of a sweep go through the
same code as one stack, and their stencils also serve the Gauss-map
Jacobian.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ChartDegeneracyError, ConfigError, InputDomainError,
                     UnsupportedVolumeError)
from .model_spaces import Point, SymmetricSpace, Tangent, _fmt

H_SHAPE_REL = 1e-4
_BLOCK = 256                   # grid nodes per batched chart/forms evaluation
_DIAM_SUBSAMPLE = 400          # grid nodes in the dense diameter search
_DIAM_BLOCK_PAIRS = 1 << 14    # node pairs per distance call of that search
_DIAM_SWEEPS = 4               # alternating rounds against the full grid
_RADIAL_NODES = 24             # Gauss-Legendre radii of `ball_volume`
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


# ---------------------------------------------------------------------------
# the chart on unit directions
# ---------------------------------------------------------------------------

def _basis(e):
    """B(e) (..., n+1, n): an orthonormal basis of e^perp, e unit (..., n+1).

    The columns other than k of the Householder reflection that swaps the
    axis k of e's largest |coordinate| with -sign(e_k) e, built from one
    outer product of its vector w = e + sign(e_k) a_k (|w|^2 >= 2).
    """
    dim = e.shape[-1]
    k = np.argmax(np.abs(e), axis=-1)[..., None]
    ek = np.take_along_axis(e, k, axis=-1)
    w = e + np.where(ek < 0.0, -1.0, 1.0) * (np.arange(dim) == k)
    keep = np.arange(dim - 1) + (np.arange(dim - 1) >= k)
    wk = np.take_along_axis(w, keep, axis=-1) / -(1.0 + np.abs(ek))
    b = w[..., :, None] * wk[..., None, :]
    b += np.arange(dim)[:, None] == keep[..., None, :]
    return b


def _step(e, xi):
    """normalize(e + B(e) xi): the unit direction at chart coordinates xi
    (..., n) about the unit directions e (..., n+1)."""
    q = e + (_basis(e) @ xi[..., None])[..., 0]
    return q / np.sqrt(np.sum(q * q, axis=-1))[..., None]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def parse_grid(spec: str, n: int):
    """Grid spec "LATxLON" (n = 2) or "K^N" (n >= 3) -> per-axis node counts."""
    spec = spec.strip()
    m = re.fullmatch(r"(\d+)x(\d+)", spec)
    if m:
        if n != 2:
            raise ConfigError(f"grid {spec!r} is for 2-spheres, surface needs n={n}")
        counts = [int(m.group(1)), int(m.group(2))]
    elif m := re.fullmatch(r"(\d+)\^(\d+)", spec):
        if int(m.group(2)) != n:
            raise ConfigError(
                f"grid {spec!r} has {m.group(2)} axes, surface needs n={n}")
        counts = [int(m.group(1))] * n
    else:
        raise ConfigError(f"cannot parse grid spec {spec!r}")
    if min(counts) < 1:
        raise ConfigError(f"grid {spec!r} needs at least one node per axis")
    return counts


def default_grid(n: int):
    return [64, 128] if n == 2 else [12] * n


def build_param_grid(n: int, counts):
    """Tensor quadrature grid on the unit sphere S^n.

    The nodes are placed on angle axes: (u, phi) for n = 2, u = cos(polar
    angle) on Gauss-Legendre nodes, and hyperspherical angles on
    Gauss-Legendre nodes for n >= 3, each with a uniform azimuth last.
    Returns (params (N, n+1), weights (N,)): the nodes as unit directions,
    and the quadrature weights times the angle density of the sphere
    measure (1 for (u, phi), prod_k sin^{n-1-k} a_k for the angles), so
    that weights times the chart Jacobian are area weights.
    """
    if len(counts) != n:
        raise ConfigError("grid axis count does not match sphere dimension")
    axes = []                          # per axis: cos, sin and weight
    if n == 2:
        u, wu = np.polynomial.legendre.leggauss(counts[0])
        axes.append((u, np.sqrt(1.0 - u * u), wu))
    else:
        for i, k in enumerate(counts[:-1]):
            t, wt = np.polynomial.legendre.leggauss(k)
            a = 0.5 * math.pi * (t + 1.0)
            axes.append((np.cos(a), np.sin(a),
                         0.5 * math.pi * wt * np.sin(a) ** (n - 1 - i)))
    k = counts[-1]
    phi = 2.0 * math.pi * (np.arange(k) + 0.5) / k
    axes.append((np.cos(phi), np.sin(phi), np.full(k, 2.0 * math.pi / k)))
    cos, sin, w = (np.stack([m.ravel() for m in np.meshgrid(*c, indexing="ij")],
                            axis=-1) for c in zip(*axes))
    # e_i = sin a_0 ... sin a_{i-1} cos a_i, and the last e_n = prod sin a
    prefix = np.concatenate([np.ones((len(w), 1)), np.cumprod(sin, axis=-1)],
                            axis=-1)
    params = np.concatenate([prefix[:, :n] * cos, prefix[:, n:]], axis=-1)
    return params, np.prod(w, axis=-1)


# ---------------------------------------------------------------------------
# radius profiles
# ---------------------------------------------------------------------------

class RadiusProfile:
    """r(direction) = base * (1 + amp * profile), profile from the unit dir.

    Modes: "coord" uses the first coordinate of the unit direction;
    "latitude" uses sin(latitude) about the first axis, the same first
    coordinate (cos of the polar angle).  amp = 0 gives a geodesic sphere.
    base may also be an array, one radius per node of the parameter stack.
    """

    def __init__(self, base, mode: str = "coord", amp: float = 0.0):
        if np.any(np.asarray(base) <= 0.0):
            raise InputDomainError("radius must be positive")
        if mode not in ("coord", "latitude"):
            raise ConfigError(f"unknown radial mode {mode!r}")
        if abs(amp) >= 1.0:
            raise InputDomainError("amplitude must keep the radius positive")
        self.base = np.asarray(base, dtype=float) if np.ndim(base) else float(base)
        self.mode, self.amp = mode, float(amp)

    def __call__(self, e, de):
        """(r, dr) for unit directions e (..., n+1) and their chart
        tangents de (..., n+1, n)."""
        r = self.base * (1.0 + self.amp * e[..., 0])
        dr = np.expand_dims(self.base * self.amp, -1) * de[..., 0, :]
        return r, dr

    def spec(self) -> str:
        if self.amp == 0.0:
            return f"geodesic-sphere:r={_fmt(self.base)}"
        return (f"radial-graph:base={_fmt(self.base)},mode={self.mode},"
                f"amp={_fmt(self.amp)}")


def parse_surface(spec: str) -> RadiusProfile:
    """Parse "geodesic-sphere:r=R" or "radial-graph:base=R,mode=M,amp=A"."""
    spec = spec.strip()
    m = re.fullmatch(r"geodesic-sphere:r=([-0-9.eE+]+)", spec)
    if m:
        return RadiusProfile(float(m.group(1)))
    m = re.fullmatch(
        r"radial-graph:base=([-0-9.eE+]+),mode=([a-z]+),amp=([-0-9.eE+]+)", spec)
    if m:
        return RadiusProfile(float(m.group(1)), m.group(2), float(m.group(3)))
    raise ConfigError(f"cannot parse surface spec {spec!r}")


# ---------------------------------------------------------------------------
# fundamental data
# ---------------------------------------------------------------------------

def _join(values):
    """Concatenate stacked arrays or Points along the node axis."""
    if isinstance(values[0], Point):
        return Point(values[0].space, tuple(
            np.concatenate(parts) for parts in zip(*(v.parts for v in values))))
    return np.concatenate(values)


def _join_forms(blocks) -> "FundamentalData":
    return FundamentalData(**{f.name: _join([getattr(b, f.name) for b in blocks])
                              for f in fields(FundamentalData)})


@dataclass
class FundamentalData:
    """Unit normal, shape operator, curvatures and area weight.

    One class for a single node and for a stack of nodes: the array fields
    carry the leading axes of the parameters they were evaluated at, and
    indexing a stack gives the data of one node, with plain float scalars.
    Coordinates are taken in the orthonormal frame at x.
    """

    x: Point
    nu_coords: np.ndarray     # (..., n+1) unit normal
    onb_coords: np.ndarray    # (..., n, n+1) orthonormal basis of T_xM
    a: np.ndarray             # (..., n, n) shape operator in the onb
    GK: object                # det A
    H: object                 # tr A
    area_weight: object
    sym_residual: object      # ||A - A^T||_max before symmetrization

    def __getitem__(self, i) -> "FundamentalData":
        return FundamentalData(
            x=self.x[i], nu_coords=self.nu_coords[i],
            onb_coords=self.onb_coords[i], a=self.a[i], GK=float(self.GK[i]),
            H=float(self.H[i]), area_weight=float(self.area_weight[i]),
            sym_residual=float(self.sym_residual[i]))

    @property
    def nu(self) -> Tangent:
        return self.x.space.coords_to_tangent(self.x, self.nu_coords)


class Hypersurface:
    """A closed starshaped hypersurface about `center` on a quadrature grid.

    Grid quantities are evaluated as stacks, _BLOCK nodes per batched call,
    and cached: the chart of every node (`grid_chart`, `area_weights`),
    the fundamental data of every node (`grid_forms`, `integrate`) and the
    extrinsic diameter (`diameter_extrinsic`).
    `fundamental_forms` evaluates off-grid points from their chart.
    """

    def __init__(self, space: SymmetricSpace, center: Point,
                 profile: RadiusProfile, grid_counts=None):
        self.space = space
        self.center = center
        self.profile = profile
        self.n = space.total_dim - 1
        if self.n < 2:
            raise ConfigError("hypersurfaces need ambient dimension >= 3")
        counts = grid_counts if grid_counts is not None else default_grid(self.n)
        self.grid_counts = list(counts)
        self.params, self.param_weights = build_param_grid(self.n,
                                                           self.grid_counts)
        self.size = len(self.params)
        self._chart_cache = None
        self._forms_cache = None
        self._points_cache = None
        self._diameter = None

    # -- chart evaluation -----------------------------------------------------

    def grid_spec(self) -> str:
        if self.n == 2:
            return f"{self.grid_counts[0]}x{self.grid_counts[1]}"
        return f"{self.grid_counts[0]}^{self.n}"

    def _evaluate(self, params):
        """The surface point at unit directions e = params (n+1,) or
        (..., n+1): (x, v, e, de, r, dr).

        x = exp_center(v) with v = r(e) e in center-frame coordinates, r the
        radius profile, de = B(e) the chart tangents of the unit sphere at e
        and dr the derivative of r along them.  The one evaluator behind
        embed, points_stack and chart; for a params stack the parts of x
        are factor stacks.
        """
        e = np.asarray(params, dtype=float)
        de = _basis(e)
        r, dr = self.profile(e, de)
        v = self.space.coords_to_tangent(self.center, r[..., None] * e)
        return self.space.exp_map(self.center, v), v, e, de, r, dr

    def chart(self, params, orient: bool = True):
        """Chart data at unit directions (n+1,) or at a stack (..., n+1).

        Returns a dict whose arrays carry the leading axes of params:
        x (Point of factor stacks), tangents (..., n, n+1) (frame
        coordinates at x of the derivatives along the columns of B(e), the
        chart's orthonormal basis of e^perp), gram (..., n, n),
        jacobian (...) (sqrt Gram det) and nu (..., n+1) (frame coordinates
        of the unit normal).  The frame at x is orthonormal, so inner
        products of tangents are dot products of their coordinates.  With
        orient=True (default) nu points along the outgoing radial
        direction; orient=False leaves the sign arbitrary (cheaper, for
        finite differences that fix the sign against a reference normal).
        Raises ChartDegeneracyError if the Gram determinant is not positive
        (or NaN) at any node: a radius that underflows.
        """
        x, v, e, de, r, dr = self._evaluate(params)
        space, n = self.space, self.n
        # center-frame coordinates of d(r e)/dparams, then e for the orientation
        w = (dr[..., :, None] * e[..., None, :]
             + r[..., None, None] * np.swapaxes(de, -1, -2))
        if orient:
            w = np.concatenate([w, e[..., None, :]], axis=-2)
        coords = space.tangent_to_coords(space.exp_differential(
            self.center, Tangent(space, self.center, space.insert_axes(v.parts)),
            space.coords_to_tangent(self.center, w),
            y=Point(space, space.insert_axes(x.parts))))
        tmat = coords[..., :n, :]
        gram = tmat @ np.swapaxes(tmat, -1, -2)
        if n == 2:
            det = gram[..., 0, 0] * gram[..., 1, 1] - gram[..., 0, 1] * gram[..., 1, 0]
        else:
            det = np.linalg.det(gram)
        if np.any(~(det > 0.0)):                # NaN fails too
            raise ChartDegeneracyError(
                f"chart frame degenerate (Gram det {np.min(det):.3e})")
        # unit normal: orthogonal complement of the chart tangents
        if n == 2:                      # cross product of the two tangents
            a, b = tmat[..., 0, :], tmat[..., 1, :]
            nu = a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]
            nu = nu / np.sqrt(np.sum(nu * nu, axis=-1))[..., None]
        else:
            nu = np.linalg.svd(tmat)[2][..., -1, :]
        if orient:
            flip = np.sum(nu * coords[..., n, :], axis=-1) < 0.0
            nu = np.where(flip[..., None], -nu, nu)
        return {"x": x, "tangents": tmat, "gram": gram,
                "jacobian": np.sqrt(det), "nu": nu}

    def embed(self, params) -> Point:
        """Embedding point only (no chart tangents) -- cheap evaluator."""
        return self._evaluate(params)[0]

    def _blocks(self):
        return [slice(s, s + _BLOCK) for s in range(0, self.size, _BLOCK)]

    def grid_chart(self) -> dict:
        """The chart of every grid node, stacked (cached)."""
        if self._chart_cache is None:
            blocks = [self.chart(self.params[b]) for b in self._blocks()]
            self._chart_cache = {k: _join([c[k] for c in blocks])
                                 for k in blocks[0]}
        return self._chart_cache

    def points_stack(self) -> Point:
        """The surface points of all nodes as one stacked Point (cached)."""
        if self._points_cache is None:
            self._points_cache = self._evaluate(self.params)[0]
        return self._points_cache

    # -- fundamental forms ------------------------------------------------------

    def _forms(self, params, base):
        """(data, stencil) at unit directions (..., n+1) from their oriented
        chart.

        The orthonormal basis is the Gram-Schmidt basis of the chart
        tangents in order, from the Cholesky factor L of their Gram matrix
        (onb = L^-1 tangents).  Column i of A is the central difference of
        the unit normal along onb_i over the stencil directions
        normalize(e +- h B(e) c_i) (c_i the rows of L^-1), each stencil
        normal parallel-transported back to x and its sign fixed against
        the base normal.  The stencil {"x", "nu", "h"} holds those points
        and sign-fixed normals, leading axes (..., n, 2) for leg i and step
        +-h.
        """
        space = self.space
        coeffs = np.linalg.inv(np.linalg.cholesky(base["gram"]))
        onb = coeffs @ base["tangents"]
        h = H_SHAPE_REL * self.profile.base
        steps = h * coeffs[..., :, None, :] * np.array([1.0, -1.0])[:, None]
        st = self.chart(_step(params[..., None, None, :], steps), orient=False)
        moved = space.tangent_to_coords(space.parallel_transport(
            st["x"], Point(space, space.insert_axes(base["x"].parts, 2)),
            space.coords_to_tangent(st["x"], st["nu"])))
        nu = base["nu"]
        flip = np.sum(moved * nu[..., None, None, :], axis=-1)[..., None] < 0.0
        moved = np.where(flip, -moved, moved)
        dnu = (moved[..., 0, :] - moved[..., 1, :]) * (0.5 / h)
        a = onb @ np.swapaxes(dnu, -1, -2)
        sym_residual = np.max(np.abs(a - np.swapaxes(a, -1, -2)), axis=(-2, -1))
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        data = FundamentalData(
            x=base["x"], nu_coords=nu, onb_coords=onb, a=a,
            GK=np.linalg.det(a), H=np.trace(a, axis1=-2, axis2=-1),
            area_weight=np.zeros(a.shape[:-2]), sym_residual=sym_residual)
        return data, {"x": st["x"], "nu": np.where(flip, -st["nu"], st["nu"]),
                      "h": h}

    def grid_forms(self) -> FundamentalData:
        """Fundamental data of every grid node, stacked (cached); [i] is node i."""
        if self._forms_cache is None:
            c = self.grid_chart()
            data = _join_forms([self._forms(self.params[b],
                                            {k: v[b] for k, v in c.items()})[0]
                                for b in self._blocks()])
            data.area_weight = self.area_weights()
            self._forms_cache = data
        return self._forms_cache

    def fundamental_forms(self, params, chart):
        """(data, stencil) at off-grid directions (..., n+1) from their chart
        `chart(params)`: the stacked fundamental data (area weight 0) and the
        stencil of `_forms`, whose leg i steps along onb_coords[i]."""
        return self._forms(np.asarray(params, dtype=float), chart)

    def area_weights(self) -> np.ndarray:
        """All area weights (chart-tangent evaluation only, no shape FD)."""
        return self.param_weights * self.grid_chart()["jacobian"]

    # -- integrals and global quantities --------------------------------------------

    def integrate(self, what: str) -> float:
        if what == "area":
            return float(np.sum(self.area_weights()))
        if what not in ("total_curvature", "willmore"):
            raise ConfigError(f"unknown integrand {what!r}")
        d = self.grid_forms()
        if what == "total_curvature":
            return float(np.sum(np.abs(d.GK) * d.area_weight))
        return float(np.sum(np.abs(d.H / self.n) ** self.n * d.area_weight))

    def diameter_extrinsic(self) -> float:
        """Max pairwise ambient distance over the grid (an under-estimate,
        cached).

        Dense max over a subsample of about _DIAM_SUBSAMPLE nodes, blocks of
        whole rows per distance call, then up to _DIAM_SWEEPS rounds of
        alternating maximization against the full grid from the best pair.
        """
        if self._diameter is None:
            self._diameter = self._diameter_search()
        return self._diameter

    def _diameter_search(self) -> float:
        if self.size == 1:
            return 0.0
        pts = self.points_stack()
        idx = np.arange(0, self.size, max(1, self.size // _DIAM_SUBSAMPLE))
        sub, rows = pts[idx], max(1, _DIAM_BLOCK_PAIRS // len(idx))
        best, pair = 0.0, (0, 0)
        for s in range(0, len(idx), rows):
            # the first maximum in row-major (i, j) order, > across blocks
            d = self.space.distance_many(sub.parts, Point(
                self.space, self.space.insert_axes(sub[s:s + rows].parts)))
            i, j = np.unravel_index(np.argmax(d), d.shape)
            if d[i, j] > best:
                best, pair = float(d[i, j]), (int(idx[s + i]), int(idx[j]))
        a, b = pair
        for _ in range(_DIAM_SWEEPS):
            d = self.space.distance_many(pts.parts, pts[a])
            b_new = int(np.argmax(d))
            if float(d[b_new]) <= best + 1e-15:
                break
            best, b = float(d[b_new]), b_new
            a, b = b, a
        return best


def geodesic_sphere(space: SymmetricSpace, center: Point, r: float,
                    grid_counts=None) -> Hypersurface:
    return Hypersurface(space, center, RadiusProfile(r), grid_counts)


def radial_graph(space: SymmetricSpace, center: Point, base: float, mode: str,
                 amp: float, grid_counts=None) -> Hypersurface:
    return Hypersurface(space, center, RadiusProfile(base, mode, amp), grid_counts)


def ball_volume(space: SymmetricSpace, center: Point, r: float,
                grid_counts=None) -> float:
    """vol of the geodesic ball: radial quadrature of sphere areas, on
    _RADIAL_NODES Gauss-Legendre radii.

    Only supported on products of constant-curvature factors (geodesic
    spheres foliate the ball and the area integrand is smooth in s).  The
    (radial node x grid node) stack is charted 2n _BLOCK nodes per call.
    """
    if not space.constant_curvature_only():
        raise UnsupportedVolumeError(
            "ball volume needs constant-curvature factors only")
    n = space.total_dim - 1
    if grid_counts is None:
        grid_counts = [32, 64] if n == 2 else [8] * n
    sphere = geodesic_sphere(space, center, r, grid_counts)
    t, wt = np.polynomial.legendre.leggauss(_RADIAL_NODES)
    radii = np.repeat(0.5 * r * (t + 1.0), sphere.size)
    params, step, jac = np.tile(sphere.params, (_RADIAL_NODES, 1)), 2 * n * _BLOCK, []
    for b in range(0, len(radii), step):     # step: a `_forms` stencil chart
        sphere.profile = RadiusProfile(radii[b:b + step])    # radius per node
        jac.append(sphere.chart(params[b:b + step])["jacobian"])
    weights = sphere.param_weights * np.concatenate(jac).reshape(_RADIAL_NODES, -1)
    return sum(0.5 * r * w * np.sum(a) for w, a in zip(wt, weights))  # node order
