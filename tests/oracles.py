"""Numeric references for the closed forms of `horocurv`.

The structure of sl(n,R) (against `horocurv.lie_structure`), derived from
its definitions alone: ad matrices of a fixed basis, the Killing form as
their trace form, a beta_theta Gram-Schmidt for an orthonormal frame, and
restricted roots from the eigenspaces of ad on a regular element of the
maximal abelian a.

The geodesic calculus of the model factors that only the tests need,
dispatched on the factor kind: the materialized frames behind the
closed-form coordinate maps, the Riemannian logarithm, sectional
curvatures, and the asymptotic-ray translation of directions (with the
mpmath branch of the SPD ray logarithm).

Busemann values and gradients from truncated distances alone, on the
Richardson ladder of `horocurv.busemann.BusemannFunction.truncated_hessian`.

Sign convention: the curvature tensor of a noncompact-type symmetric
space at the base point is R(X,Y)Z = -[[X,Y],Z] for X,Y,Z in p, so
sectional curvatures computed by `algebraic_sectional_curvature` are
always <= 0 (the user-facing bound is stated as -kappa^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from horocurv.busemann import _WEIGHT_EPS, H_FD, T_MAX
from horocurv.errors import (ConfigError, DegeneratePlaneError,
                             InputDomainError, OracleFailure,
                             TranslationFailure)
from horocurv.model_spaces import Tangent
from horocurv.numeric_kernel import (_as_sym_array, richardson_limit,
                                     spd_inv_sqrt)

_SPAN_TOL = 1e-10
_ROOT_CLUSTER_TOL = 1e-7


def _bracket(x, y):
    return x @ y - y @ x


class MatrixLieAlgebra:
    """sl(n,R) with a fixed ordered basis.

    Basis convention: the off-diagonal units E_ij in row-major order
    followed by the traceless diagonals E_kk - E_{k+1,k+1}.
    """

    def __init__(self, family: str, size: int):
        if family != "sl":
            raise ConfigError(f"unsupported family {family!r}")
        n = self.n = size
        basis = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    e = np.zeros((n, n))
                    e[i, j] = 1.0
                    basis.append(e)
        for k in range(n - 1):
            e = np.zeros((n, n))
            e[k, k], e[k + 1, k + 1] = 1.0, -1.0
            basis.append(e)
        self.basis = basis
        self.dim = len(basis)
        self._flat = np.stack([b.ravel() for b in basis], axis=1)
        self._flat_pinv = np.linalg.pinv(self._flat)

    def coords(self, x):
        """Coordinates of x in the fixed basis; errors if x is off-span."""
        x = np.asarray(x, dtype=float)
        c = self._flat_pinv @ x.ravel()
        resid = np.linalg.norm(self._flat @ c - x.ravel())
        if resid > _SPAN_TOL * (1.0 + np.linalg.norm(x)):
            raise InputDomainError(
                f"element outside the algebra span (residual {resid:.3e})")
        return c

    def from_coords(self, c):
        return (self._flat @ np.asarray(c, dtype=float)).reshape(
            self.n, self.n)

    @cached_property
    def ad_basis(self):
        """ad matrices of the basis elements, in basis coordinates."""
        return [np.stack([self.coords(_bracket(b, bj)) for bj in self.basis],
                         axis=1) for b in self.basis]

    @cached_property
    def killing_matrix(self):
        ads = self.ad_basis
        return np.array([[np.trace(a @ b) for b in ads] for a in ads])

    def theta(self, x):
        return -np.asarray(x, dtype=float).T

    def killing_form(self, x, y) -> float:
        return float(self.coords(x) @ self.killing_matrix @ self.coords(y))

    def beta_theta(self, x, y) -> float:
        """The positive-definite inner product -beta(x, theta(y))."""
        return -self.killing_form(x, self.theta(y))

    def cartan_decompose(self, x):
        """(k_part, p_part) with theta-eigenvalues +1 and -1."""
        x = np.asarray(x, dtype=float)
        self.coords(x)  # span check
        tx = self.theta(x)
        return 0.5 * (x + tx), 0.5 * (x - tx)

    def ad_operator(self, u):
        """Matrix of X -> [u, X] in the fixed basis coordinates."""
        return sum(ci * adi for ci, adi in zip(self.coords(u), self.ad_basis))

    @cached_property
    def _ortho(self):
        """beta_theta Gram-Schmidt of the p-parts, then the k-parts, of the
        fixed basis: (P, P_inv, p_dim), the columns of P the coordinates of
        the orthonormal elements, the first p_dim of them spanning p."""
        gram = np.array([[-(self.killing_matrix[i]
                            @ self.coords(self.theta(b)))
                          for b in self.basis] for i in range(self.dim)])
        parts = [self.cartan_decompose(b) for b in self.basis]
        cand = ([self.coords(p) for _, p in parts]
                + [self.coords(k) for k, _ in parts])
        cols, p_dim = [], 0
        for idx, v in enumerate(cand):
            if idx == self.dim:
                p_dim = len(cols)
            w = v.copy()
            for c in cols:
                w = w - (c @ gram @ w) * c
            nrm = float(np.sqrt(max(w @ gram @ w, 0.0)))
            if nrm > 1e-8:
                cols.append(w / nrm)
        P = np.stack(cols, axis=1)
        return P, np.linalg.inv(P), p_dim

    @property
    def p_dim(self) -> int:
        return self._ortho[2]

    def p_basis_matrices(self):
        """beta_theta-orthonormal basis of p, as matrices."""
        P, _, p_dim = self._ortho
        return [self.from_coords(P[:, i]) for i in range(p_dim)]

    def ad_matrix_ortho(self, u):
        """ad_u in the beta_theta-orthonormal basis (p block first)."""
        P, P_inv, _ = self._ortho
        return P_inv @ self.ad_operator(u) @ P


@lru_cache(maxsize=None)
def sl(n: int) -> MatrixLieAlgebra:
    """sl(n,R), built once per n."""
    return MatrixLieAlgebra("sl", n)


@dataclass(frozen=True)
class RootDatum:
    """Restricted roots of an algebra with respect to a maximal abelian a."""

    abelian_basis: tuple            # beta-orthonormal matrices spanning a
    roots: tuple                    # ((values on abelian_basis,), multiplicity)
    max_root_norm: float            # sup over beta-unit H in a of |alpha(H)|


def _abelian_basis(alg: MatrixLieAlgebra):
    """beta-orthonormalized E_kk - E_{k+1,k+1} (beta is positive on p)."""
    out = []
    for k in range(alg.n - 1):
        w = np.zeros((alg.n, alg.n))
        w[k, k], w[k + 1, k + 1] = 1.0, -1.0
        for u in out:
            w = w - alg.killing_form(u, w) * u
        out.append(w / np.sqrt(alg.killing_form(w, w)))
    return out


def restricted_roots(alg: MatrixLieAlgebra) -> RootDatum:
    """Restricted-root decomposition data computed from ad eigenspaces.

    A regular element of a is diagonalized (ad_H is beta_theta-symmetric
    for H in p); eigenvectors are grouped by their functional on a,
    evaluated by Rayleigh quotients against each abelian basis element.
    """
    ab = _abelian_basis(alg)
    # regular element: geometric weights keep all root values distinct
    weights = np.array([3.0 ** i for i in range(len(ab))])
    weights /= np.linalg.norm(weights)
    m0 = alg.ad_matrix_ortho(sum(w * a for w, a in zip(weights, ab)))
    evals, evecs = np.linalg.eigh(0.5 * (m0 + m0.T))
    ad_ab = [alg.ad_matrix_ortho(a) for a in ab]
    tol = _ROOT_CLUSTER_TOL * (1.0 + float(np.max(np.abs(evals))))
    roots = []                      # [functional, multiplicity]
    for i in np.flatnonzero(np.abs(evals) >= tol):
        x = evecs[:, i]
        vals = np.array([float(x @ a @ x) for a in ad_ab])
        for known in roots:
            if np.max(np.abs(known[0] - vals)) < tol:
                known[1] += 1
                break
        else:
            roots.append([vals, 1])
    gram = np.array([[alg.killing_form(a, b) for b in ab] for a in ab])
    max_norm_sq = max(float(vals @ np.linalg.solve(gram, vals))
                      for vals, _ in roots)
    return RootDatum(
        abelian_basis=tuple(ab),
        roots=tuple((tuple(vals), mult) for vals, mult in roots),
        max_root_norm=float(np.sqrt(max_norm_sq)),
    )


def metric_scale_bound(rd: RootDatum, kappa: float) -> float:
    """Minimal metric scale lambda compatible with sec >= -kappa^2."""
    if not kappa > 0.0:
        raise InputDomainError("kappa must be positive")
    return rd.max_root_norm ** 2 / kappa ** 2


def algebraic_sectional_curvature(alg: MatrixLieAlgebra, x, y, lam: float) -> float:
    """Sectional curvature of span(x, y) in p, metric g = lam * beta.

    Equals beta([x,y],[x,y]) / (lam * beta-Gram(x,y)); the numerator is
    <= 0 because [x,y] lies in k where the Killing form is negative.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for v in (x, y):
        k_part, _ = alg.cartan_decompose(v)
        if np.max(np.abs(k_part)) > 1e-8 * (1.0 + np.max(np.abs(v))):
            raise InputDomainError("plane vectors must lie in p")
    bxx = alg.killing_form(x, x)
    byy = alg.killing_form(y, y)
    bxy = alg.killing_form(x, y)
    gram = bxx * byy - bxy * bxy
    if gram < 1e-14 * (1.0 + bxx) * (1.0 + byy):
        raise DegeneratePlaneError("tangent vectors are linearly dependent")
    w = _bracket(x, y)
    return alg.killing_form(w, w) / (lam * gram)


# ---------------------------------------------------------------------------
# model factors: frames, logarithms, curvature, asymptotic rays
# ---------------------------------------------------------------------------

TOL_RAY = 1e-8
RAY_T_MAX = 2 ** 10


def frame(f, x):
    """The orthonormal frame of factor f at x (or at each point of a
    stack), materialized: (..., dim, dim) Euclidean rows, (..., dim, dim+1)
    hyperboloid rows, (..., dim, n, n) SPD matrices."""
    if f.kind == "euclidean":
        return np.zeros(np.shape(x)[:-1] + (f.dim, f.dim)) + np.eye(f.dim)
    if f.kind == "hyperbolic":
        # the boost taking the origin to x has columns
        # [I + y y^T / (1 + t) | y] over [y^T | t], y = kappa x[:-1],
        # t = kappa x[-1]; its first dim columns are the frame
        y = f.kappa * x[..., :-1]
        t = f.kappa * x[..., -1:]
        boost = y[..., :, None] * (y / (1.0 + t))[..., None, :]
        return np.concatenate([np.eye(f.dim) + boost, y[..., :, None]],
                              axis=-1)
    # the identity frame pushed forward to x
    xs = spd_inv_sqrt(x)[0][..., None, :, :]
    return xs @ f._frame_identity @ xs


def frame_to_coords(f, x, v):
    """Frame coordinates of v at x as inner products with `frame(f, x)`."""
    if f.kind == "euclidean":
        return np.asarray(v, dtype=float)
    if f.kind == "hyperbolic":
        return f.minkowski(frame(f, x), v[..., None, :])
    xi = np.linalg.inv(x)
    m = (xi @ v @ xi)[..., None, :, :]
    return f.metric_coef() * np.sum(frame(f, x) * m, axis=(-2, -1))


def frame_from_coords(f, x, c):
    """The tangent sum_a c_a frame_a at x."""
    c = np.asarray(c, dtype=float)
    if f.kind == "euclidean":
        return c
    if f.kind == "hyperbolic":
        return np.sum(c[..., :, None] * frame(f, x), axis=-2)
    return np.sum(c[..., :, None, None] * frame(f, x), axis=-3)


def factor_log(f, x, y):
    """log_x(y) on factor f, for one pair of points."""
    if f.kind == "euclidean":
        return y - x
    if f.kind == "hyperbolic":
        k = f.kappa
        z = -k * k * f.minkowski(x, y)
        if z > 2.0:
            d, w = math.acosh(z) / k, y - z * x
        else:
            # near x, z - 1 cancels to rounding noise below d ~ 1e-8: take d
            # from the chord, |y - x| = (2/k) sinh(k d / 2), and
            # y - z x = (y - x) - (z - 1) x with z - 1 = (k |y - x|)^2 / 2
            chord = math.sqrt(max(f.minkowski(y - x, y - x), 0.0))
            d = 2.0 * math.asinh(0.5 * k * chord) / k
            w = (y - x) - 0.5 * (k * chord) ** 2 * x
        if d < 1e-300:
            return np.zeros_like(x)
        u = w * (k / math.sinh(k * d))
        return d * u
    xs, xsi = spd_inv_sqrt(x)
    m = xsi @ y @ xsi
    w, q = np.linalg.eigh(0.5 * (m + m.T))
    l = (q * np.log(w)) @ q.T
    return xs @ l @ xs


def log_map(space, x, y) -> Tangent:
    """log_x(y) on a product space, factor by factor."""
    return Tangent(space, x, tuple(
        factor_log(f, xp, yp)
        for f, xp, yp in zip(space.factors, x.parts, y.parts)))


def distance(space, x, y) -> float:
    """d(x, y) for one pair of points."""
    return float(space.distance_many(x.parts, y))


def mat_log_spd(m) -> np.ndarray:
    """Principal logarithm of a symmetric positive-definite matrix."""
    a = _as_sym_array(m)
    w, q = np.linalg.eigh(a)
    if w.size and w[0] <= 0.0:
        raise InputDomainError(f"matrix is not positive definite (min eig {w[0]:.3e})")
    return (q * np.log(w)) @ q.T


def random_tangent(space, x, rng) -> Tangent:
    """The tangent at x with standard normal frame coordinates."""
    c = rng.standard_normal(space.total_dim)
    return space.coords_to_tangent(x, c)


def sectional_numerator(f, x, u, v):
    """g(R(u, v) v, u) on factor f, the numerator of sec(u, v)."""
    if f.kind == "euclidean":
        return 0.0
    if f.kind == "hyperbolic":
        # constant curvature -kappa^2
        g_uu = f.minkowski(u, u)
        g_vv = f.minkowski(v, v)
        g_uv = f.minkowski(u, v)
        return -f.kappa ** 2 * (g_uu * g_vv - g_uv * g_uv)
    xsi = spd_inv_sqrt(x)[1]
    u0 = xsi @ u @ xsi
    v0 = xsi @ v @ xsi
    w = u0 @ v0 - v0 @ u0
    return 0.125 * f.n * f.lam * float(np.trace(w @ w))


def sectional_curvature_sample(space, x, u, v) -> float:
    """Sectional curvature of span(u, v) at x on a product space."""
    g_uu = space.inner(u, u)
    g_vv = space.inner(v, v)
    g_uv = space.inner(u, v)
    gram = g_uu * g_vv - g_uv * g_uv
    if gram < 1e-14 * (1.0 + g_uu) * (1.0 + g_vv):
        raise DegeneratePlaneError("tangent vectors are linearly dependent")
    num = sum(sectional_numerator(f, xp, up, vp)
              for f, xp, up, vp in zip(space.factors, x.parts, u.parts, v.parts))
    return num / gram


def ray_time_cap(f, x, v):
    """Largest ray time t at which factor f's coordinates stay finite."""
    if f.kind == "hyperbolic":
        # keep cosh(kappa t) squarable in double precision
        return 300.0 / f.kappa
    return math.inf


def ray_log(f, o, x, u, t):
    """log_o(exp_x(t * (-u))) on factor f, stable for large t.

    On SPD, far ray points have eigenvalue spread e^{t(d_max - d_min)};
    past the double-precision eigensolver's reliable range the principal
    logarithm is computed in mpmath working precision instead.
    """
    if f.kind == "euclidean":
        return (x - t * u) - o
    if f.kind == "hyperbolic":
        return factor_log(f, o, f.exp(x, -t * u))
    osq, osi = spd_inv_sqrt(o)
    xs, xsi = spd_inv_sqrt(x)
    w = -xsi @ u @ xsi
    dvals, k = np.linalg.eigh(0.5 * (w + w.T))
    spread = t * float(dvals[-1] - dvals[0])
    if spread <= 25.0:
        return factor_log(f, o, f.exp(x, -t * u))
    import mpmath as mp
    b = osi @ xs @ k
    with mp.workdps(int(spread / math.log(10.0)) + 30):
        bm = mp.matrix(b.tolist())
        e = mp.diag([mp.exp(mp.mpf(t) * mp.mpf(float(d))) for d in dvals])
        m = bm * e * bm.T
        wv, q = mp.eigsy((m + m.T) / 2)
        logw = [float(mp.log(wv[i])) for i in range(f.n)]
        qf = np.array(q.tolist(), dtype=float)
    logm = (qf * logw) @ qf.T
    return osq @ (0.5 * (logm + logm.T)) @ osq


def translate_direction_ray(space, o, x, u, tol: float = TOL_RAY,
                            t_max: float = RAY_T_MAX) -> Tangent:
    """Asymptotic-ray oracle for G^x_o(u) (`gauss_map.translate_direction`).

    Follows exp_x(t * (-u)) with t doubling, taking the unit initial
    direction at o of the connecting geodesic; the 1/t tail (flat
    directions) is removed by `richardson_limit`.  t is capped so no
    factor coordinate overflows.
    """
    cap = t_max
    for f, xp, up in zip(space.factors, x.parts, u.parts):
        c = math.sqrt(max(f.inner(xp, up, up), 0.0))
        if c > _WEIGHT_EPS:
            cap = min(cap, ray_time_cap(f, xp, up / c) / c)

    def v_at(t):
        parts = tuple(ray_log(f, op, xp, up, t) for f, op, xp, up
                      in zip(space.factors, o.parts, x.parts, u.parts))
        w = Tangent(space, o, parts)
        return space.tangent_to_coords(w) / space.norm(w)

    res = richardson_limit(v_at, tol, cap)
    if res.converged:
        v = space.coords_to_tangent(o, res.limit)
        return space.scale(v, 1.0 / space.norm(v))
    raise TranslationFailure("asymptotic-ray translation did not converge")


# ---------------------------------------------------------------------------
# truncated Busemann values and gradients
# ---------------------------------------------------------------------------

TOL_TRUNC = 1e-8
TOL_ORACLE_GRAD = 1e-7


def _ladder_limit(estimate_at, tol, label):
    """Limit of estimate_at(T) as T -> infinity (`richardson_limit`)."""
    res = richardson_limit(estimate_at, tol, T_MAX)
    if res.converged:
        return res.limit
    raise OracleFailure(
        f"truncated Busemann {label} did not converge",
        diagnostics={"best_column_diff": res.best_diff, "t_max": T_MAX,
                     "tol": tol})


def truncated_value(bus, x, tol: float = TOL_TRUNC) -> float:
    """B_v(x) from truncated distances only (`truncated_value_at`)."""
    return float(_ladder_limit(lambda t: bus.truncated_value_at(x, t), tol,
                               "value"))


def truncated_gradient(bus, x) -> Tangent:
    """grad B_v(x) from truncated distances only: central differences over
    +-h e_i, every stencil node at the same truncation T, the whole
    gradient estimate extrapolated in 1/T (as `truncated_hessian`)."""
    space = bus.space
    dim = space.total_dim
    e = H_FD * np.eye(dim)
    nodes = space.exp_map(x, space.coords_to_tangent(
        x, np.concatenate([e, -e])))

    def grad_at(t):
        f = bus.truncated_value_at(nodes, t)
        return (f[:dim] - f[dim:]) / (2.0 * H_FD)

    return space.coords_to_tangent(
        x, _ladder_limit(grad_at, TOL_ORACLE_GRAD, "gradient"))
