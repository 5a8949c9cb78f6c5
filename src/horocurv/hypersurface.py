"""Closed starshaped hypersurfaces as parametrized quadrature meshes.

A surface is the image of the unit parameter sphere S^n under
theta -> exp_center(r(theta) * V(theta)), where V(theta) is the frame
direction at the center.  Charts:

* n = 2: (u, phi) with u = cos(polar angle) on Gauss-Legendre nodes and
  uniform longitude (grid spec "LATxLON");
* n >= 3: hyperspherical angles on Gauss-Legendre x uniform azimuth
  (grid spec "K^N").

Poles are never grid nodes (interior Gauss-Legendre nodes, half-offset
azimuth).  Area weights are parameter quadrature weights times the
numerically evaluated chart Jacobian, so the same code integrates over
round and perturbed surfaces alike.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (ChartDegeneracyError, ConfigError, InputDomainError,
                     UnsupportedVolumeError)
from .model_spaces import Point, SymmetricSpace, Tangent, _fmt
from .numeric_kernel import SymMatrix

H_SHAPE_REL = 1e-4
_GRAM_DET_TOL = 1e-12


# ---------------------------------------------------------------------------
# parameter-sphere directions
# ---------------------------------------------------------------------------

def _dir_u_phi(params):
    """n = 2 chart: params (..., 2) = (u, phi); returns (e, de/dparams)."""
    p = np.asarray(params, dtype=float)
    if p.shape == (2,):
        u, phi = float(p[0]), float(p[1])
        if abs(u) >= 1.0:
            raise InputDomainError("latitude parameter out of (-1, 1)")
        s = math.sqrt(1.0 - u * u)
        cphi, sphi = math.cos(phi), math.sin(phi)
        e = np.array([u, s * cphi, s * sphi])
        de = np.array([[1.0, 0.0],
                       [-u / s * cphi, -s * sphi],
                       [-u / s * sphi, s * cphi]])
        return e, de
    u, phi = p[..., 0], p[..., 1]
    if np.any(np.abs(u) >= 1.0):
        raise InputDomainError("latitude parameter out of (-1, 1)")
    s = np.sqrt(1.0 - u * u)
    cphi, sphi = np.cos(phi), np.sin(phi)
    e = np.stack([u, s * cphi, s * sphi], axis=-1)
    de = np.zeros(p.shape[:-1] + (3, 2))
    de[..., 0, 0] = 1.0
    de[..., 1, 0] = -u / s * cphi
    de[..., 2, 0] = -u / s * sphi
    de[..., 1, 1] = -s * sphi
    de[..., 2, 1] = s * cphi
    return e, de


def _dir_angles(params):
    """n >= 3 chart: hyperspherical angles (..., n); returns (e, de)."""
    a = np.asarray(params, dtype=float)
    n = a.shape[-1]
    sin, cos = np.sin(a), np.cos(a)
    ones = np.ones(a.shape[:-1] + (1,))
    prefix = np.concatenate([ones, np.cumprod(sin, axis=-1)], axis=-1)
    e = np.empty(a.shape[:-1] + (n + 1,))
    e[..., :n] = prefix[..., :n] * cos
    e[..., n] = prefix[..., n]
    de = np.zeros(a.shape[:-1] + (n + 1, n))
    for b in range(n):
        sin_b = sin.copy()
        sin_b[..., b] = 1.0
        pref_b = np.concatenate([ones, np.cumprod(sin_b, axis=-1)], axis=-1)
        # e_i with the sin(a_b) factor replaced by cos(a_b), for i > b
        for i in range(b + 1, n):
            de[..., i, b] = pref_b[..., i] * cos[..., b] * cos[..., i]
        de[..., n, b] = pref_b[..., n] * cos[..., b]
        de[..., b, b] = -prefix[..., b] * sin[..., b]
    return e, de


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
        return [int(m.group(1)), int(m.group(2))]
    m = re.fullmatch(r"(\d+)\^(\d+)", spec)
    if m:
        if int(m.group(2)) != n:
            raise ConfigError(
                f"grid {spec!r} has {m.group(2)} axes, surface needs n={n}")
        return [int(m.group(1))] * n
    raise ConfigError(f"cannot parse grid spec {spec!r}")


def default_grid(n: int):
    return [64, 128] if n == 2 else [12] * n


def build_param_grid(n: int, counts):
    """Tensor quadrature grid on the parameter sphere.

    Returns (params (N, n), weights (N,), dir_fn) with weights for the
    plain parameter measure (the sphere measure enters via the chart
    Jacobian during integration).
    """
    if len(counts) != n:
        raise ConfigError("grid axis count does not match sphere dimension")
    axes_nodes: list = []
    axes_weights: list = []
    if n == 2:
        u, wu = np.polynomial.legendre.leggauss(counts[0])
        axes_nodes.append(u)
        axes_weights.append(wu)
        dir_fn = _dir_u_phi
    else:
        for k in counts[:-1]:
            t, wt = np.polynomial.legendre.leggauss(k)
            axes_nodes.append(0.5 * math.pi * (t + 1.0))
            axes_weights.append(0.5 * math.pi * wt)
        dir_fn = _dir_angles
    k = counts[-1]
    axes_nodes.append(2.0 * math.pi * (np.arange(k) + 0.5) / k)
    axes_weights.append(np.full(k, 2.0 * math.pi / k))
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    params = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*axes_weights, indexing="ij")
    weights = np.prod(np.stack([w.ravel() for w in wmesh], axis=-1), axis=-1)
    return params, weights, dir_fn, axes_nodes


# ---------------------------------------------------------------------------
# radius profiles
# ---------------------------------------------------------------------------

class RadiusProfile:
    """r(direction) = base * (1 + amp * profile), profile from the unit dir.

    Modes: "coord" uses the first sphere coordinate; "latitude" uses
    sin(latitude), which for our charts is the same first coordinate
    (cos of the polar angle).  amp = 0 gives a geodesic sphere.
    """

    def __init__(self, base: float, mode: str = "coord", amp: float = 0.0):
        if base <= 0.0:
            raise InputDomainError("radius must be positive")
        if mode not in ("coord", "latitude"):
            raise ConfigError(f"unknown radial mode {mode!r}")
        if abs(amp) >= 1.0:
            raise InputDomainError("amplitude must keep the radius positive")
        self.base, self.mode, self.amp = float(base), mode, float(amp)

    def __call__(self, e, de):
        """(r, dr/dparams) for directions e (..., n+1) and jacobians de."""
        r = self.base * (1.0 + self.amp * e[..., 0])
        dr = self.base * self.amp * de[..., 0, :]
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

@dataclass
class FundamentalData:
    """Per-node geometry: unit normal, shape operator, curvatures, weight."""

    node: int
    x: Point
    nu: Tangent
    onb: list                # orthonormal tangent basis of T_xM
    A: SymMatrix              # shape operator in onb coordinates
    GK: float                 # det A
    H: float                  # tr A
    area_weight: float
    sym_residual: float       # ||A - A^T||_max before symmetrization


class Hypersurface:
    """A closed starshaped hypersurface about `center` on a quadrature grid."""

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
        (self.params, self.param_weights, self._dir_fn,
         self.axes_nodes) = build_param_grid(self.n, self.grid_counts)
        self.size = len(self.params)
        self._cache = {}
        self._points_cache = None
        self._area_cache = None

    # -- chart evaluation -----------------------------------------------------

    def grid_spec(self) -> str:
        if self.n == 2:
            return f"{self.grid_counts[0]}x{self.grid_counts[1]}"
        return f"{self.grid_counts[0]}^{self.n}"

    def _evaluate(self, params):
        """The surface point at params (n,) or (..., n): (x, v, e, de, r, dr).

        x = exp_center(v) with v = r(e) e in center-frame coordinates, e the
        unit direction and r the radius profile, with their parameter
        derivatives de, dr.  The one evaluator behind embed, points_stack
        and chart; for a params stack the parts of x are factor stacks.
        """
        e, de = self._dir_fn(np.asarray(params, dtype=float))
        r, dr = self.profile(e, de)
        v = self.space.coords_to_tangent(self.center, r[..., None] * e)
        return self.space.exp_map(self.center, v), v, e, de, r, dr

    def chart(self, params, orient: bool = True):
        """Full chart data at arbitrary parameters.

        Returns dict with x (Point), tangents (list of Tangent at x, one per
        parameter), jacobian (sqrt Gram det), nu (unit normal).  With
        orient=True (default) nu points along the outgoing radial direction;
        orient=False leaves the sign arbitrary (cheaper, for finite
        differences that fix the sign against a reference normal).
        """
        x, v, e, de, r, dr = self._evaluate(params)
        space = self.space
        tangents = []
        for b in range(self.n):
            w = space.coords_to_tangent(self.center, dr[b] * e + r * de[:, b])
            tangents.append(space.exp_differential(self.center, v, w))
        # the deterministic frame is orthonormal, so metric inner products
        # coincide with dot products of frame coordinates
        tmat = np.stack([space.tangent_to_coords(t) for t in tangents])
        gram = tmat @ tmat.T
        if self.n == 2:
            det = float(gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0])
        else:
            det = float(np.linalg.det(gram))
        # degeneracy is about linear dependence, so compare against the
        # product of the tangent norms (near-pole Jacobians are honestly tiny)
        scale = float(np.prod(np.diag(gram)))
        if det < _GRAM_DET_TOL * scale:
            raise ChartDegeneracyError(
                f"chart frame degenerate (relative Gram det {det / scale:.3e})")
        # unit normal: orthogonal complement of the chart tangents
        if tmat.shape == (2, 3):
            (a0, a1, a2), (b0, b1, b2) = tmat
            nu_coords = np.array([a1 * b2 - a2 * b1,
                                  a2 * b0 - a0 * b2,
                                  a0 * b1 - a1 * b0])
            nu_coords = nu_coords / math.sqrt(float(nu_coords @ nu_coords))
        else:
            _, _, vh = np.linalg.svd(tmat)
            nu_coords = vh[-1]
        if orient:
            radial = space.exp_differential(
                self.center, v, space.coords_to_tangent(self.center, e))
            if float(nu_coords @ space.tangent_to_coords(radial)) < 0.0:
                nu_coords = -nu_coords
        nu = space.coords_to_tangent(x, nu_coords)
        return {"x": x, "tangents": tangents, "jacobian": math.sqrt(det),
                "nu": nu, "gram": gram}

    def embed(self, params) -> Point:
        """Embedding point only (no chart tangents) -- cheap evaluator."""
        return self._evaluate(params)[0]

    def axis_spacing(self, node: int) -> np.ndarray:
        """Local half-spacing per parameter axis around a grid node."""
        out = np.empty(self.n)
        p = self.params[node]
        for a, vals in enumerate(self.axes_nodes):
            if len(vals) < 2:
                out[a] = 1.0
                continue
            gaps = np.diff(np.sort(vals))
            i = int(np.argmin(np.abs(vals - p[a])))
            lo = gaps[max(i - 1, 0)]
            hi = gaps[min(i, len(gaps) - 1)]
            out[a] = 0.5 * min(lo, hi)
        return out

    def node_params(self, node):
        """Parameters for a node handle: grid index or explicit parameters."""
        if isinstance(node, (int, np.integer)):
            return self.params[node]
        return np.asarray(node, dtype=float)

    def point_at(self, node) -> Point:
        return self.chart_at(node)["x"]

    def normal_at(self, node) -> Tangent:
        return self.chart_at(node)["nu"]

    def chart_at(self, node):
        if not isinstance(node, (int, np.integer)):
            return self.chart(self.node_params(node))
        key = ("chart", int(node))
        if key not in self._cache:
            self._cache[key] = self.chart(self.params[node])
        return self._cache[key]

    def points_stack(self):
        """Stacked factor arrays for all nodes (for batched evaluations)."""
        if self._points_cache is None:
            self._points_cache = list(self._evaluate(self.params)[0].parts)
        return self._points_cache

    # -- fundamental forms ------------------------------------------------------

    def _onb(self, chart):
        """Gram-Schmidt ONB of the chart tangents plus chart coefficients."""
        space = self.space
        tangents = chart["tangents"]
        onb, coeffs = [], []
        for b, t in enumerate(tangents):
            w = t
            c = np.zeros(self.n)
            c[b] = 1.0
            for e_vec, ce in zip(onb, coeffs):
                proj = space.inner(e_vec, w)
                w = space.add(w, space.scale(e_vec, -proj))
                c = c - proj * ce
            nrm = space.norm(w)
            if nrm < 1e-10 * space.norm(t):
                raise ChartDegeneracyError("chart tangents numerically dependent")
            onb.append(space.scale(w, 1.0 / nrm))
            coeffs.append(c / nrm)
        return onb, coeffs

    def fundamental_forms(self, node) -> FundamentalData:
        """Fundamental data at a grid node (cached) or explicit parameters."""
        on_grid = isinstance(node, (int, np.integer))
        key = ("forms", int(node)) if on_grid else None
        if key in self._cache:
            return self._cache[key]
        space = self.space
        chart = self.chart_at(node)
        x, nu = chart["x"], chart["nu"]
        onb, coeffs = self._onb(chart)
        onb_coords = np.stack([space.tangent_to_coords(t) for t in onb])
        h = H_SHAPE_REL * self.profile.base
        p0 = self.node_params(node)
        a = np.zeros((self.n, self.n))
        nu_coords = space.tangent_to_coords(nu)
        for i in range(self.n):
            dp = coeffs[i]
            cp = self.chart(p0 + h * dp, orient=False)
            cm = self.chart(p0 - h * dp, orient=False)
            nup = space.parallel_transport(cp["x"], x, cp["nu"])
            num = space.parallel_transport(cm["x"], x, cm["nu"])
            # unoriented charts: fix each sign against the base normal
            cup = space.tangent_to_coords(nup)
            cum = space.tangent_to_coords(num)
            if float(cup @ nu_coords) < 0.0:
                cup = -cup
            if float(cum @ nu_coords) < 0.0:
                cum = -cum
            a[:, i] = onb_coords @ ((cup - cum) * (0.5 / h))
        sym_residual = float(np.max(np.abs(a - a.T)))
        A = SymMatrix(a)
        weight = (float(self.param_weights[node] * chart["jacobian"])
                  if on_grid else 0.0)
        data = FundamentalData(
            node=node, x=x, nu=nu, onb=onb, A=A,
            GK=float(np.linalg.det(A.a)), H=float(np.trace(A.a)),
            area_weight=weight, sym_residual=sym_residual)
        if on_grid:
            self._cache[key] = data
        return data

    def area_weights(self) -> np.ndarray:
        """All area weights (chart-tangent evaluation only, no shape FD)."""
        if self._area_cache is None:
            out = np.empty(self.size)
            for i in range(self.size):
                out[i] = self.param_weights[i] * self.chart_at(i)["jacobian"]
            self._area_cache = out
        return self._area_cache

    # -- Gauss-map plumbing -------------------------------------------------------

    def curve_through(self, node, w: Tangent):
        """Chart curve s -> (point, normal) through `node` with velocity w."""
        chart = self.chart_at(node)
        tangents = chart["tangents"]
        gram = chart["gram"]
        rhs = np.array([self.space.inner(w, t) for t in tangents])
        vel = np.linalg.solve(gram, rhs)
        p0 = self.node_params(node)

        def curve(s):
            c = self.chart(p0 + s * vel) if s != 0.0 else chart
            return c["x"], c["nu"]

        return curve

    # -- integrals and global quantities --------------------------------------------

    def integrate(self, what: str) -> float:
        if what == "area":
            return float(np.sum(self.area_weights()))
        total = 0.0
        for i in range(self.size):
            d = self.fundamental_forms(i)
            if what == "total_curvature":
                total += abs(d.GK) * d.area_weight
            elif what == "willmore":
                total += abs(d.H / self.n) ** self.n * d.area_weight
            else:
                raise ConfigError(f"unknown integrand {what!r}")
        return total

    def diameter_extrinsic(self, subsample: int = 400, sweeps: int = 4) -> float:
        """Max pairwise ambient distance over the grid (an under-estimate).

        Dense max over a subsample, then alternating maximization against
        the full grid from the best pair.
        """
        if self.size == 1:
            return 0.0
        stacks = self.points_stack()
        step = max(1, self.size // subsample)
        idx = np.arange(0, self.size, step)
        best, pair = 0.0, (0, 0)
        for i in idx:
            y = Point(self.space, tuple(s[i] for s in stacks))
            d = self.space.distance_many([s[idx] for s in stacks], y)
            j = int(np.argmax(d))
            if d[j] > best:
                best, pair = float(d[j]), (int(i), int(idx[j]))
        a, b = pair
        for _ in range(sweeps):
            y = Point(self.space, tuple(s[a] for s in stacks))
            d = self.space.distance_many(stacks, y)
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
                radial_nodes: int = 24, grid_counts=None) -> float:
    """vol of the geodesic ball: radial quadrature of sphere areas.

    Only supported on products of constant-curvature factors (geodesic
    spheres foliate the ball and the area integrand is smooth in s).
    """
    if not space.constant_curvature_only():
        raise UnsupportedVolumeError(
            "ball volume needs constant-curvature factors only")
    if r <= 0.0:
        raise InputDomainError("radius must be positive")
    n = space.total_dim - 1
    if grid_counts is None:
        grid_counts = [32, 64] if n == 2 else [8] * n
    t, wt = np.polynomial.legendre.leggauss(radial_nodes)
    s_nodes = 0.5 * r * (t + 1.0)
    total = 0.0
    for s, w in zip(s_nodes, wt):
        area = geodesic_sphere(space, center, float(s), grid_counts).integrate("area")
        total += 0.5 * r * w * area
    return total
