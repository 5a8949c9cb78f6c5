"""Concrete Hadamard-manifold models and their geodesic calculus.

A `SymmetricSpace` is an ordered product of factors:

* ``Euclidean(l)`` -- flat R^l;
* ``Hyperbolic(m, kappa)`` -- the hyperboloid sheet Q(x,x) = -1/kappa^2
  in Minkowski space R^{m,1}, constant curvature -kappa^2;
* ``SPD(n, lam)`` -- unit-determinant symmetric positive-definite n x n
  matrices with metric g = lam * beta, beta the Killing form of sl(n,R)
  (beta(X,Y) = 2n tr(XY) on tangents).

Points and tangents are stored per factor.  All closed forms (exp,
distance, transport, exp differential) are exact up to rounding.  The
factor `project_point`, `inner`, `exp`, `dexp`, `transport`, `dist`,
`to_coords`, `from_coords`, `translate`, `bus_value`, `bus_grad`,
`bus_hess` and `bus_trunc_value` accept stacks of points, tangents or
coordinates along leading axes, ``(..., d+1)`` hyperboloid and
``(..., n, n)`` SPD arrays, broadcasting them against each other, and so
do the space's `inner`, `norm` and `scale`; the SPD `dexp` is the
Daleckii-Krein divided-difference formula on one batched
eigendecomposition.  Frame coordinates are taken in the orthonormal frame
transported from the origin, in closed form and without building the
frame: the boost of the standard basis on the hyperboloid, x^1/2 F_a x^1/2
from the identity frame F_a on SPD.  The factor
`exp` does not project (far out on a ray the constraint check loses all
precision while the coordinates stay accurate); `exp_map` repairs the
constraint drift by projecting once, and the hyperboloid projection lifts
the time coordinate from the spatial part, which stays accurate at any
distance.

Each factor's Busemann closed forms take the direction data of
`bus_data(o, v)`, computed once per direction or stack of directions v:
its first `bus_shared` entries depend on o alone, the others carry the
direction axes of v.  `bus_value` and `bus_grad` broadcast those axes
against the point axes (direction axes (D, 1) at N points give (D, N),
with the per-point work done once); `bus_hess` is the Hessian matrix in
frame coordinates.  `bus_trunc_value`, the truncated distance behind
`BusemannFunction.truncated_hessian`, takes the data of one direction at
a point stack.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import lie_structure
from .errors import ConfigError, InputDomainError
from .numeric_kernel import _sym_stack, spd_inv_sqrt, sym_exp

POINT_TOL = 1e-10
TANGENT_TOL = 1e-8             # `tangent`: relative residual of a tangent
SPD_CURVATURE_MARGIN = 0.05    # relative safety margin on the SPD kappa


def expm_frechet(*args, **kwargs):
    """`scipy.linalg.expm_frechet`, with scipy imported on the first call.

    Nothing in horocurv calls this: the SPD `dexp` is the Daleckii-Krein
    formula.  It exists because `perfbench/tracer.py` binds this name to
    time SPD dexp kernels; importing scipy here only when it is called keeps
    scipy off the import path of the CLI.
    """
    from scipy.linalg import expm_frechet as frechet
    return frechet(*args, **kwargs)


@dataclass(frozen=True)
class Point:
    """A point of a product space, or a stack of points; one array per
    factor.  Indexing a stack indexes the leading axes of every part."""
    space: "SymmetricSpace"
    parts: tuple

    def __getitem__(self, idx) -> "Point":
        return Point(self.space, tuple(p[idx] for p in self.parts))

    def __repr__(self):
        return f"Point({[np.round(p, 6) for p in self.parts]})"


@dataclass(frozen=True)
class Tangent:
    """A tangent vector at `base`; one array per factor."""
    space: "SymmetricSpace"
    base: Point
    parts: tuple


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

def _require_finite(name: str, kappa: float, *derived: float):
    """ConfigError naming the metric parameter `name` unless kappa, kappa^2,
    1/kappa^2 and the other quantities derived from it are finite, > 0."""
    k2 = kappa * kappa
    for q in (kappa, k2, 1.0 / k2 if k2 else 0.0, *derived):
        if not 0.0 < q < math.inf:
            raise ConfigError(f"{name} out of range (curvature scale "
                              f"{kappa:.3g}, a closed-form term {q:.3g})")


class EuclideanFactor:
    kind = "euclidean"
    point_ndim = 1
    bus_shared = 1                 # bus_data entries that depend on o alone

    def __init__(self, dim: int):
        if dim < 1:
            raise ConfigError("Euclidean factor needs dim >= 1")
        self.dim = dim

    def spec(self):
        return f"euclidean:{self.dim}"

    def origin(self):
        return np.zeros(self.dim)

    def project_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,) or not np.isfinite(x).all():
            raise InputDomainError("invalid Euclidean point")
        return x

    def inner(self, x, u, v):
        return np.vecdot(u, v)

    def exp(self, x, v):
        return x + v

    def dist(self, xs, y):
        # norm(axis=-1) bit for bit below 8 coordinates (numpy's pairwise
        # sum is sequential there), without its slow short-axis reduce
        w = xs - y
        return np.sqrt(sum(w[..., k] * w[..., k] for k in range(self.dim)))

    def transport(self, x, y, v):
        return np.zeros(np.broadcast(x, y, v).shape) + v

    def to_coords(self, x, v):
        return np.asarray(v, dtype=float)

    def from_coords(self, x, c):
        return np.asarray(c, dtype=float)

    def dexp(self, x, v, w):
        return np.zeros(np.broadcast(x, v, w).shape) + w

    def curvature_lower_bound(self):
        return 0.0

    def check_tangent(self, x, v):
        pass

    # Busemann closed forms -------------------------------------------------

    def bus_data(self, o, v):
        return o, v

    def bus_value(self, data, xs):
        o, v = data
        return -np.sum((xs - o) * v, axis=-1)

    def bus_grad(self, data, x):
        return np.zeros(np.shape(x)) - data[1]

    def bus_hess(self, data, x):
        return np.zeros(np.shape(x)[:-1] + (self.dim, self.dim))

    def bus_trunc_value(self, data, x, t):
        o, v = data
        w = x - o
        num = np.vecdot(w, w) - 2.0 * t * np.vecdot(w, v)
        return num / (np.linalg.norm(w - t * v, axis=-1) + t)

    def translate(self, o, x, u):
        return -np.asarray(u, dtype=float)


class HyperbolicFactor:
    kind = "hyperbolic"
    point_ndim = 1
    bus_shared = 1

    def __init__(self, dim: int, kappa: float):
        if dim < 2:
            raise ConfigError("Hyperbolic factor needs dim >= 2")
        _require_finite("kappa", float(kappa))
        self.dim = dim
        self.kappa = float(kappa)

    def spec(self):
        return f"hyperbolic:{self.dim},kappa={_fmt(self.kappa)}"

    def minkowski(self, x, y):
        return np.sum(x[..., :-1] * y[..., :-1], axis=-1) - x[..., -1] * y[..., -1]

    def origin(self):
        o = np.zeros(self.dim + 1)
        o[-1] = 1.0 / self.kappa
        return o

    def project_point(self, x):
        """Lift onto the sheet: keep the spatial part, recompute x_last.

        Q(x, x) = -1/kappa^2 is computed from coordinates of size
        cosh(kappa d) and cancels to rounding noise far out, so only
        points spacelike beyond POINT_TOL relative to |x|^2, or on the
        past sheet, are rejected.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim + 1,) or not np.isfinite(x).all():
            raise InputDomainError("invalid hyperboloid point")
        spatial = x[..., :-1]
        r2 = np.sum(spatial * spatial, axis=-1)
        q = r2 - x[..., -1] ** 2
        if (np.any(q > POINT_TOL * (r2 + x[..., -1] ** 2))
                or np.any(x[..., -1] <= 0)):
            raise InputDomainError("point off the future hyperboloid sheet")
        last = np.sqrt(self.kappa ** -2 + r2)[..., None]
        return np.concatenate([spatial, last], axis=-1)

    def inner(self, x, u, v):
        return self.minkowski(u, v)

    def check_tangent(self, x, v):
        if abs(self.minkowski(x, v)) > TANGENT_TOL * (1.0 + np.linalg.norm(v)):
            raise InputDomainError("tangent not Minkowski-orthogonal to base point")

    def exp(self, x, v):
        kt = self.kappa * np.sqrt(np.maximum(self.minkowski(v, v), 0.0))[..., None]
        moving = kt > 0.0
        shc = np.where(moving, np.sinh(kt) / np.where(moving, kt, 1.0), 1.0)
        return np.cosh(kt) * x + shc * v

    def dist(self, xs, y):
        z = np.maximum(-self.kappa ** 2 * self.minkowski(xs, y), 1.0)
        # near y, z - 1 cancels to rounding noise below d ~ 1e-8: take d
        # from the chord there, |xs - y| = (2/k) sinh(k d / 2)
        w = xs - y
        chord = np.sqrt(np.maximum(self.minkowski(w, w), 0.0))
        return np.where(z > 2.0, np.arccosh(z),
                        2.0 * np.arcsinh(0.5 * self.kappa * chord)) / self.kappa

    def transport(self, x, y, v):
        k2 = self.kappa ** 2
        denom = 1.0 - k2 * self.minkowski(x, y)
        return v + (k2 * self.minkowski(y, v) / denom)[..., None] * (x + y)

    def to_coords(self, x, v):
        """Coordinates in the frame at x: the boost of the standard basis.

        With y = kappa x[:-1] and t = kappa x[-1] the boost taking the
        origin to x has columns [I + y y^T / (1 + t) | y] over [y^T | t];
        its first dim columns are Minkowski-orthonormal and tangent at x,
        so c_i = v_i + y_i (<y, v[:-1]> / (1 + t) - v[-1]).
        """
        y, t = self.kappa * x[..., :-1], self.kappa * x[..., -1:]
        yv = np.sum(y * v[..., :-1], axis=-1, keepdims=True)
        return v[..., :-1] + y * (yv / (1.0 + t) - v[..., -1:])

    def from_coords(self, x, c):
        """sum_i c_i (boost column i) = (c + y <c, y> / (1 + t), <c, y>)."""
        c = np.asarray(c, dtype=float)
        y, t = self.kappa * x[..., :-1], self.kappa * x[..., -1:]
        cy = np.sum(c * y, axis=-1, keepdims=True)
        return np.concatenate([c + y * (cy / (1.0 + t)), cy], axis=-1)

    def dexp(self, x, v, w):
        """d/ds exp_x(v + s w) at s = 0 (closed form, series near v = 0)."""
        k = self.kappa
        t = np.sqrt(np.maximum(self.minkowski(v, v), 0.0))
        z = k * t
        qvw = self.minkowski(v, w)
        small = z < 1e-4
        zs, ts = np.where(small, 1.0, z), np.where(small, 1.0, t)
        sh = np.sinh(zs)
        s = np.where(small, 1.0 + z * z / 6.0 + z ** 4 / 120.0, sh / zs)
        a1 = np.where(small, k * k * (1.0 + z * z / 6.0), k * sh / ts)
        a2 = np.where(small, k * k * (1.0 / 3.0 + z * z / 30.0),
                      (k * np.cosh(zs) - sh / ts) / (k * ts * ts))
        return ((a1 * qvw)[..., None] * x + (a2 * qvw)[..., None] * v
                + s[..., None] * w)

    def curvature_lower_bound(self):
        return self.kappa

    # Busemann closed forms (ideal point p = o + v/kappa, Q(p,p) = 0) -------

    def bus_data(self, o, v):
        return o, v, o + v / self.kappa

    def bus_value(self, data, xs):
        k = self.kappa
        return np.log(-k * k * self.minkowski(xs, data[2])) / k

    def bus_grad(self, data, x):
        k = self.kappa
        p = data[2]
        return p / (k * self.minkowski(x, p))[..., None] + k * x

    def bus_hess(self, data, x):
        g = self.to_coords(x, self.bus_grad(data, x))
        return self.kappa * (np.eye(self.dim) - g[..., :, None] * g[..., None, :])

    def bus_trunc_value(self, data, x, t):
        """d(x, gamma_v(t)) - t evaluated in the log domain (no overflow)."""
        k = self.kappa
        o, v, _ = data
        a = -k * k * self.minkowski(x, o)
        b = -k * self.minkowski(x, v)
        z_arg = k * t
        if z_arg < 30.0:
            z = math.cosh(z_arg) * a + math.sinh(z_arg) * b
            return np.arccosh(np.maximum(z, 1.0)) / k - t
        # z = e^{kt}(a+b)/2 + e^{-kt}(a-b)/2 ; acosh(z) = ln z + ln(1+sqrt(1-z^-2))
        ln_z = z_arg + np.log(0.5 * (a + b) + 0.5 * (a - b) * math.exp(-2.0 * z_arg))
        inv_z2 = np.exp(-2.0 * ln_z)
        return (ln_z - z_arg + np.log(1.0 + np.sqrt(np.maximum(1.0 - inv_z2, 0.0)))) / k

    def translate(self, o, x, u):
        k = self.kappa
        p = x - u / k  # null vector of the ray exp_x(-t u)
        c = -1.0 / (k * k * self.minkowski(o, p))
        return k * (c[..., None] * p - o)


class SPDFactor:
    kind = "spd"
    point_ndim = 2
    bus_shared = 2

    def __init__(self, n: int, lam: float | None = None):
        if n < 2:
            raise ConfigError("SPD factor needs n >= 2")
        self.n = n
        if lam is None:
            lam = 1.0 / n  # max|alpha|^2: makes kappa = 1 (up to margin)
        if not lam > 0:
            raise ConfigError("SPD metric scale lambda must be positive")
        self.lam = float(lam)
        _require_finite("lambda", self.curvature_lower_bound(), self.lam,
                        self.metric_coef())
        self.dim = lie_structure.p_dim(n)
        # the beta_theta-orthonormal basis of p, and the g-orthonormal frame
        # of the tangent space at the identity it gives for g = lam * beta
        self._p_basis = lie_structure.basis(n)[:self.dim]
        self._frame_identity = 2.0 * self._p_basis / math.sqrt(self.lam)

    def spec(self):
        return f"spd:{self.n},lambda={_fmt(self.lam)}"

    def origin(self):
        return np.eye(self.n)

    def project_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (self.n, self.n) or not np.isfinite(x).all():
            raise InputDomainError("invalid SPD point")
        x = _sym_stack(x)
        w = np.linalg.eigvalsh(x)
        if np.any(w[..., 0] <= 0):
            raise InputDomainError("point is not positive definite")
        # one array power for a point and a stack alike (a numpy scalar
        # power rounds differently in the last bit)
        return x / np.prod(w, axis=-1, keepdims=True)[..., None] ** (1.0 / self.n)

    def metric_coef(self) -> float:
        """g(u, v) = metric_coef * tr(x^-1 u x^-1 v).

        The factor n*lam/2 makes g the pullback of lam * Killing under the
        symmetric-space identification (algebra tangent X maps to the SPD
        coordinate tangent 2X, since exp(tX) exp(tX)^T = exp(2tX)).
        """
        return 0.5 * self.n * self.lam

    def inner(self, x, u, v):
        xi = np.linalg.inv(x)
        return self.metric_coef() * np.trace(xi @ u @ xi @ v, axis1=-2, axis2=-1)

    def check_tangent(self, x, v):
        v = np.asarray(v, dtype=float)
        sym_resid = np.max(np.abs(v - v.T))
        tr_resid = abs(np.trace(np.linalg.solve(x, v)))
        tol = TANGENT_TOL * (1 + np.max(np.abs(v)))
        if sym_resid > tol or tr_resid > tol:
            raise InputDomainError("SPD tangent must be symmetric and x^-1-traceless")

    def exp(self, x, v):
        xs, xsi = spd_inv_sqrt(x)
        return _sym_stack(xs @ sym_exp(xsi @ v @ xsi) @ xs)

    def dist(self, xs, y):
        _, ysi = spd_inv_sqrt(y)
        w = np.linalg.eigvalsh(_sym_stack(ysi @ xs @ ysi))
        return math.sqrt(self.metric_coef()) * np.linalg.norm(np.log(w), axis=-1)

    def transport(self, x, y, v):
        xs, xsi = spd_inv_sqrt(x)
        w, q = np.linalg.eigh(_sym_stack(xsi @ y @ xsi))
        qt = np.swapaxes(q, -1, -2)
        half = (q * np.sqrt(w)[..., None, :]) @ qt  # expm(logm(s)/2)
        e = xs @ half @ xsi
        return e @ v @ np.swapaxes(e, -1, -2)

    def to_coords(self, x, v):
        """Coordinates in the frame x^1/2 F_a x^1/2 pushed forward from the
        identity frame F_a: metric_coef * tr(F_a x^-1/2 v x^-1/2)."""
        xsi = spd_inv_sqrt(x)[1]
        m = (xsi @ v @ xsi)[..., None, :, :]
        return self.metric_coef() * np.sum(self._frame_identity * m,
                                           axis=(-2, -1))

    def from_coords(self, x, c):
        """sum_a c_a x^1/2 F_a x^1/2 = x^1/2 (sum_a c_a F_a) x^1/2."""
        c = np.asarray(c, dtype=float)
        xs = spd_inv_sqrt(x)[0]
        return xs @ np.sum(c[..., :, None, None] * self._frame_identity,
                           axis=-3) @ xs

    def dexp(self, x, v, w):
        """Daleckii-Krein: D exp_V[E] = Q (G o Q^T E Q) Q^T, V = Q diag(l) Q^T.

        G_ij = (e^l_i - e^l_j) / (l_i - l_j), evaluated as
        e^l_j expm1(l_i - l_j) / (l_i - l_j) and e^l_j on ties (Higham,
        Functions of Matrices, 2008, Ch. 3), after translating x to the
        identity.
        """
        xs, xsi = spd_inv_sqrt(x)
        lam, q = np.linalg.eigh(_sym_stack(xsi @ v @ xsi))
        qt = np.swapaxes(q, -1, -2)
        d = lam[..., :, None] - lam[..., None, :]
        tie = d == 0.0
        gamma = (np.exp(lam)[..., None, :]
                 * np.where(tie, 1.0, np.expm1(d) / np.where(tie, 1.0, d)))
        return xs @ (q @ (gamma * (qt @ xsi @ w @ xsi @ q)) @ qt) @ xs

    def curvature_lower_bound(self):
        """kappa with sec >= -kappa^2, kappa^2 = max|alpha|^2 / lam.

        The closed form for a noncompact symmetric space with metric
        lam * Killing (Helgason, Ch. V), inflated by SPD_CURVATURE_MARGIN.
        """
        return (lie_structure.max_root_norm(self.n) / math.sqrt(self.lam)
                * (1.0 + SPD_CURVATURE_MARGIN))

    # Busemann closed forms (Iwasawa principal-minor formula) ----------------

    def bus_data(self, o, v):
        """Translate (o, v) to the identity and diagonalize the direction
        (eigenvalues delta decreasing; minor weights delta_i - delta_i+1)."""
        osq, osi = spd_inv_sqrt(o)
        v0 = osi @ v @ osi
        delta, k = np.linalg.eigh(0.5 * (v0 + np.swapaxes(v0, -1, -2)))
        order = np.argsort(delta, axis=-1)[..., ::-1]
        delta = np.take_along_axis(delta, order, axis=-1)
        k = np.take_along_axis(k, order[..., None, :], axis=-1)
        return osq, osi, delta, k, delta[..., :-1] - delta[..., 1:]

    def _bus_minors(self, data, xs):
        """The leading (n-1) x (n-1) block of k^T x0^-1 k, x0 = o^-1/2 xs
        o^-1/2 (x0^-1 once per point): its leading minors give the value
        and the gradient."""
        _, osi, _, k, _ = data
        k = k[..., :self.n - 1]
        return np.swapaxes(k, -1, -2) @ np.linalg.inv(osi @ xs @ osi) @ k

    def bus_value(self, data, xs):
        """The log determinant of each leading block is the sum of the log
        pivots of Gaussian elimination (the block is positive definite, so
        it needs no row exchanges), all taken elementwise over the stacks."""
        s = self._bus_minors(data, xs)
        total = logdet = 0.0
        for i in range(self.n - 1):
            piv = s[..., i, i]
            logdet = logdet + np.log(piv)
            total = total + data[4][..., i] * logdet
            s[..., i + 1:, i + 1:] -= (s[..., i + 1:, i, None]
                                       * s[..., None, i, i + 1:]
                                       / piv[..., None, None])
        return self.metric_coef() * total

    def bus_grad(self, data, x):
        osq, _, _, k, weights = data
        s = self._bus_minors(data, x)
        shape = s.shape[:-2] + (self.n, self.n)
        g0 = np.zeros(shape)
        for i in range(self.n - 1):
            blk = np.zeros(shape)
            blk[..., :i + 1, :i + 1] = np.linalg.inv(s[..., :i + 1, :i + 1])
            g0 -= weights[..., i, None, None] * (k @ blk @ np.swapaxes(k, -1, -2))
        g0 = 0.5 * (g0 + np.swapaxes(g0, -1, -2))
        g = osq @ g0 @ osq
        # the minor formula lives on the det = 1 slice only; remove the
        # component normal to the slice (the trace direction x)
        tr = np.trace(np.linalg.solve(x, g), axis1=-2, axis2=-1)
        return g - (tr / self.n)[..., None, None] * x

    def bus_hess(self, data, x):
        """Hess B_v = sqrt(ad_u^2)|_p (Heintze and Im Hof, 1977), one eigh.

        u = Q diag(mu) Q^T is the gradient translated to the identity as a
        beta-unit algebra element; sqrt(ad_u^2) is the Schur product
        S(E) = Q (|mu_i - mu_j| o Q^T E Q) Q^T, whose matrix in the
        beta_theta-orthonormal p basis m_a is 2n tr(m_a S(m_b)) / sqrt(lam),
        the same in the pushed-forward frame at x.
        """
        xsi = spd_inv_sqrt(x)[1]
        u0 = xsi @ self.bus_grad(data, x) @ xsi
        mu, q = np.linalg.eigh(0.25 * math.sqrt(self.lam)
                               * (u0 + np.swapaxes(u0, -1, -2)))
        gap = np.abs(mu[..., :, None] - mu[..., None, :])
        qt = np.swapaxes(q, -1, -2)[..., None, :, :]
        c = ((qt @ self._p_basis @ q[..., None, :, :])
             * np.sqrt(2.0 * self.n / math.sqrt(self.lam) * gap)[..., None, :, :])
        c = c.reshape(c.shape[:-2] + (self.n * self.n,))
        return c @ np.swapaxes(c, -1, -2)      # H_ab as a Gram matrix

    def bus_trunc_value(self, data, x, t):
        """d(x, gamma_v(t)) - t via overflow-safe log-eigenvalues.

        For n <= 3 the three log-eigenvalues of x0^{-1/2} e^{tV} x0^{-1/2}
        come from lambda_max of the matrix and of its inverse plus the
        unit-determinant constraint; larger n falls back to mpmath, one
        point at a time.
        """
        osq, osi, delta, k, _ = data
        x0s, x0si = spd_inv_sqrt(osi @ x @ osi)
        scale = math.sqrt(self.metric_coef())
        if self.n <= 3:
            half = np.exp(0.5 * t * delta)
            # m = b b^T and m^-1 = bi bi^T, b = x0^-1/2 k e^{tD/2}
            b = (x0si @ k) * half
            bi = np.swapaxes(k.T @ x0s, -1, -2) / half
            l1 = np.log(np.linalg.eigvalsh(b @ np.swapaxes(b, -1, -2))[..., -1])
            ln = -np.log(np.linalg.eigvalsh(bi @ np.swapaxes(bi, -1, -2))[..., -1])
            ls = [l1, -l1] if self.n == 2 else [l1, -l1 - ln, ln]
            d = scale * np.sqrt(sum(v * v for v in ls))
        else:
            rows = x0si.reshape((-1, self.n, self.n))
            d = np.reshape([_mpmath_spd_distance(r, k, delta, t, scale)
                            for r in rows], x0si.shape[:-2])
        return d - t

    def translate(self, o, x, u):
        """Unit direction at o asymptotic to the ray exp_x(t * (-u)).

        After translating o to the identity, the ray is h exp(tD) h^T with
        h = x0^{1/2} k; its ideal class keeps D and replaces h by the
        orthogonal factor of its QR decomposition (the upper-triangular part
        drifts off at bounded distance), giving the ray q exp(tD) q^T from
        the identity with initial direction q D q^T.
        """
        osq, osi = spd_inv_sqrt(o)
        x0 = osi @ x @ osi
        x0s, x0si = spd_inv_sqrt(0.5 * (x0 + np.swapaxes(x0, -1, -2)))
        w = -x0si @ (osi @ u @ osi) @ x0si
        dvals, k = np.linalg.eigh(0.5 * (w + np.swapaxes(w, -1, -2)))
        order = np.argsort(dvals, axis=-1)[..., ::-1]
        dvals = np.take_along_axis(dvals, order, axis=-1)[..., None, :]
        k = np.take_along_axis(k, order[..., None, :], axis=-1)
        q = np.linalg.qr(x0s @ k)[0]      # column signs cancel in q D q^T
        v0 = (q * dvals) @ np.swapaxes(q, -1, -2)
        return osq @ v0 @ osq


def _mpmath_spd_distance(x0si, k, delta, t, scale):
    import mpmath as mp
    n = len(delta)
    spread = float(delta[0] - delta[-1])
    digits = int(t * spread / math.log(10.0)) + 40
    with mp.workdps(digits):
        b = mp.matrix(x0si.tolist()) * mp.matrix(k.tolist())
        e = mp.diag([mp.exp(mp.mpf(t) * mp.mpf(float(dd)) / 2) for dd in delta])
        h = b * e
        m = h * h.T
        w = mp.eigsy(m, eigvals_only=True)
        total = mp.mpf(0)
        for i in range(n):
            total += mp.log(w[i]) ** 2
        return float(scale * mp.sqrt(total))


# ---------------------------------------------------------------------------
# product space
# ---------------------------------------------------------------------------

class SymmetricSpace:
    """A finite product of the model factors."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ConfigError("at least one factor is required")
        self.factors = factors
        self.total_dim = sum(f.dim for f in factors)
        if self.total_dim < 2:
            raise ConfigError("total dimension must be at least 2")
        self._kappa = max(f.curvature_lower_bound() for f in factors)

    # -- construction and parsing ------------------------------------------

    def spec_string(self) -> str:
        return "x".join(f.spec() for f in self.factors)

    @property
    def curvature_lower_bound(self) -> float:
        """kappa >= 0 with all sectional curvatures >= -kappa^2."""
        return self._kappa

    def constant_curvature_only(self) -> bool:
        return all(f.kind in ("euclidean", "hyperbolic") for f in self.factors)

    # -- points and tangents -------------------------------------------------

    def origin(self) -> Point:
        return Point(self, tuple(f.origin() for f in self.factors))

    def point(self, parts) -> Point:
        """Validated single point; factor stacks are rejected."""
        parts = tuple(np.asarray(p, dtype=float) for p in parts)
        shapes = [p.shape for p in parts]
        if shapes != [f.origin().shape for f in self.factors]:
            raise InputDomainError(f"point parts of shapes {shapes} do not "
                                   f"match the factors of {self.spec_string()}")
        return Point(self, tuple(f.project_point(p)
                                 for f, p in zip(self.factors, parts)))

    def tangent(self, base: Point, parts) -> Tangent:
        parts = tuple(np.asarray(p, dtype=float) for p in parts)
        for f, x, v in zip(self.factors, base.parts, parts):
            f.check_tangent(x, v)
        return Tangent(self, base, parts)

    def inner(self, u: Tangent, v: Tangent):
        """g(u, v): a float for one pair, else an array over the broadcast
        stack axes of the tangents and their base points."""
        total = sum(f.inner(x, a, b) for f, x, a, b
                    in zip(self.factors, u.base.parts, u.parts, v.parts))
        return float(total) if np.ndim(total) == 0 else total

    def norm(self, u: Tangent):
        nrm = np.sqrt(np.maximum(self.inner(u, u), 0.0))
        return float(nrm) if np.ndim(nrm) == 0 else nrm

    def scale(self, u: Tangent, c) -> Tangent:
        """c u, for a number c or an array c over the stack axes of u."""
        return Tangent(self, u.base, tuple(
            np.reshape(c, np.shape(c) + (1,) * f.point_ndim) * p
            for f, p in zip(self.factors, u.parts)))

    def add(self, u: Tangent, v: Tangent) -> Tangent:
        return Tangent(self, u.base, tuple(a + b for a, b in zip(u.parts, v.parts)))

    # -- geodesic calculus ----------------------------------------------------

    def exp_map(self, x: Point, v: Tangent) -> Point:
        """exp_x(v), projected once; tangent parts may be stacks."""
        return Point(self, tuple(
            f.project_point(f.exp(xp, vp))
            for f, xp, vp in zip(self.factors, x.parts, v.parts)))

    def distance_many(self, parts_stacks, y: Point):
        """Distances from a stack of points (list of stacked factor arrays)."""
        return np.sqrt(sum(f.dist(xs, yp) ** 2 for f, xs, yp
                           in zip(self.factors, parts_stacks, y.parts)))

    def parallel_transport(self, x: Point, y: Point, v: Tangent) -> Tangent:
        return Tangent(self, y, tuple(
            f.transport(xp, yp, vp)
            for f, xp, yp, vp in zip(self.factors, x.parts, y.parts, v.parts)))

    def exp_differential(self, x: Point, v: Tangent, w: Tangent,
                         y: Point) -> Tangent:
        """d/ds exp_x(v + s w) at s = 0, as a tangent at y = exp_x(v).

        v and w may be stacks that broadcast against each other.
        """
        return Tangent(self, y, tuple(
            f.dexp(xp, vp, wp)
            for f, xp, vp, wp in zip(self.factors, x.parts, v.parts, w.parts)))

    def insert_axes(self, parts, count: int = 1) -> tuple:
        """Factor stacks with `count` unit axes inserted before the point
        axes, so that they broadcast against stacks with more leading axes."""
        return tuple(np.expand_dims(p, tuple(range(-f.point_ndim - count,
                                                   -f.point_ndim)))
                     for f, p in zip(self.factors, parts))

    # -- frames and coordinates ----------------------------------------------

    def tangent_to_coords(self, v: Tangent) -> np.ndarray:
        return np.concatenate([
            f.to_coords(xp, vp)
            for f, xp, vp in zip(self.factors, v.base.parts, v.parts)], axis=-1)

    def coords_to_tangent(self, x: Point, c) -> Tangent:
        """Tangent at x from frame coordinates c, or from a (..., dim) stack."""
        c = np.asarray(c, dtype=float)
        parts, k = [], 0
        for f, xp in zip(self.factors, x.parts):
            parts.append(f.from_coords(xp, c[..., k:k + f.dim]))
            k += f.dim
        return Tangent(self, x, tuple(parts))

    # -- sampling ---------------------------------------------------------------

    def unit_tangent(self, x: Point, c) -> Tangent:
        """The unit tangent at x along frame coordinates c, or one per row
        of a (..., dim) stack."""
        v = self.coords_to_tangent(x, c)
        return self.scale(v, 1.0 / self.norm(v))

    def random_unit_tangent(self, x: Point, rng) -> Tangent:
        return self.unit_tangent(x, rng.standard_normal(self.total_dim))

    def random_point(self, o: Point, rng, radius: float) -> Point:
        v = self.random_unit_tangent(o, rng)
        r = radius * rng.random() ** (1.0 / self.total_dim)
        return self.exp_map(o, self.scale(v, r))


# ---------------------------------------------------------------------------
# specification grammar
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x)) if x != int(x) else str(int(x))


_FACTOR_RE = re.compile(
    r"^(euclidean|hyperbolic|spd):(\d+)((?:,[a-z]+=[-0-9.eE+]+)*)$")


def parse_space(spec: str) -> SymmetricSpace:
    """Parse the CLI space grammar, e.g. ``hyperbolic:2,kappa=1xeuclidean:1``."""
    factors = []
    for token in spec.strip().split("x"):
        m = _FACTOR_RE.match(token.strip())
        if not m:
            raise ConfigError(f"cannot parse space factor {token!r}")
        kind, dim, opts_str = m.group(1), int(m.group(2)), m.group(3)
        opts = {}
        if opts_str:
            for kv in opts_str.lstrip(",").split(","):
                key, val = kv.split("=")
                opts[key] = float(val)
        if kind == "euclidean":
            if opts:
                raise ConfigError(f"euclidean factor takes no options: {token!r}")
            factors.append(EuclideanFactor(dim))
        elif kind == "hyperbolic":
            kappa = opts.pop("kappa", 1.0)
            if opts:
                raise ConfigError(f"unknown options {sorted(opts)} in {token!r}")
            factors.append(HyperbolicFactor(dim, kappa))
        else:
            lam = opts.pop("lambda", None)
            if opts:
                raise ConfigError(f"unknown options {sorted(opts)} in {token!r}")
            factors.append(SPDFactor(dim, lam))
    return SymmetricSpace(factors)
