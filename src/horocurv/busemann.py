"""Busemann functions B_v based at a point o: values, gradients, Hessians.

Closed forms per factor:

* Euclidean -- B_v(x) = -<v, x-o>, gradient -v, Hessian 0.
* Hyperbolic -- logarithm of the Minkowski pairing with the ideal point
  o + v/kappa; Hessian kappa*(Id - grad (x) grad).
* SPD -- the principal-minor (Iwasawa) formula for the value and its
  analytic gradient; the Hessian sqrt(ad_u^2)|_p of the translated
  gradient u is a Schur product with the root gaps |mu_i - mu_j| of u,
  from one eigendecomposition (no ad matrices, no PSD square root).

For a product direction v = sum_f c_f v_f (v_f factor-unit, sum c_f^2 = 1)
the value is sum_f c_f B_{v_f}(x_f) and the Hessian is block diagonal with
weights c_f.  Each factor's direction data (`bus_data`: the ideal point of
a hyperbolic direction, the translated and diagonalized SPD direction) is
computed once, when the function is built.  `value` and `gradient` accept
a Point of factor stacks as well as a single point.

Every closed form is cross-validated in the test suite against
`truncated_oracle`, which only uses distances along the defining ray
(with Richardson acceleration of the 1/T tail).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputDomainError, OracleFailure
from .model_spaces import Point, SymmetricSpace, Tangent
from .numeric_kernel import SymMatrix, richardson_limit

TOL_TRUNC = 1e-8
T_MAX = 2 ** 10
H_FD = 1e-4
TOL_ORACLE_GRAD = 1e-7
TOL_ORACLE_HESS = 1e-4
_WEIGHT_EPS = 1e-12


class BusemannFunction:
    """B_v(x) = lim_t (d(x, gamma_v(t)) - t) for a unit direction v at o."""

    def __init__(self, space: SymmetricSpace, o: Point, v: Tangent):
        nrm = space.norm(v)
        if abs(nrm - 1.0) > 1e-10:
            raise InputDomainError(f"direction must be unit (|v| = {nrm})")
        self.space = space
        self.o = o
        self.v = v
        self.weights = []
        self.data = []           # factor direction data, None if weight 0
        for f, op, vp in zip(space.factors, o.parts, v.parts):
            c = math.sqrt(max(f.inner(op, vp, vp), 0.0))
            if c > _WEIGHT_EPS:
                self.weights.append(c)
                self.data.append(f.bus_data(op, vp / c))
            else:
                self.weights.append(0.0)
                self.data.append(None)

    # -- closed forms ---------------------------------------------------------

    def value(self, x: Point):
        """B_v(x): a float for one point, an array for a Point of stacks."""
        total = sum(c * f.bus_value(data, xs)
                    for f, xs, c, data in zip(self.space.factors, x.parts,
                                              self.weights, self.data)
                    if c > 0.0)
        return float(total) if np.ndim(total) == 0 else total

    def gradient(self, x: Point) -> Tangent:
        return Tangent(self.space, x, tuple(
            c * f.bus_grad(data, xp) if c > 0.0 else np.zeros(np.shape(xp))
            for f, xp, c, data in zip(self.space.factors, x.parts,
                                      self.weights, self.data)))

    def hessian(self, x: Point) -> SymMatrix:
        """Hessian as a matrix in frame_at(x) coordinates (block diagonal)."""
        h = np.zeros((self.space.total_dim,) * 2)
        at = 0
        for f, xp, c, data in zip(self.space.factors, x.parts, self.weights,
                                  self.data):
            if c > 0.0:
                h[at:at + f.dim, at:at + f.dim] = c * f.bus_hess(data, xp)
            at += f.dim
        return SymMatrix(h)

    # -- independent truncation oracle -----------------------------------------

    def truncated_value_at(self, x: Point, t: float) -> float:
        """d(x, gamma_v(t)) - t, assembled from overflow-safe factor distances."""
        lin = 0.0      # 2 T sum_f c_f r_f  pieces, see below
        quad = 0.0
        for f, op, xp, c, data in zip(self.space.factors, self.o.parts,
                                      x.parts, self.weights, self.data):
            if c > 0.0:
                r = f.bus_trunc_value(data, xp, c * t)
                lin += c * r
                quad += (c * t + r) ** 2 - (c * t) ** 2 - 2.0 * c * t * r  # r^2, stably
            else:
                quad += f.dist(xp, op) ** 2
        # d^2 = t^2 + 2 t lin + quad  =>  d - t = (2 t lin + quad)/(d + t)
        num = 2.0 * t * lin + quad
        d = math.sqrt(max(t * t + num, 0.0))
        return num / (d + t)

    def _ladder_limit(self, estimate_at, tol, t_max, t0, label):
        """Limit of estimate_at(T) as T -> infinity (`richardson_limit`)."""
        res = richardson_limit(estimate_at, tol, t_max, t0)
        if res.converged:
            return res.limit
        raise OracleFailure(
            f"truncated Busemann {label} did not converge",
            diagnostics={"best_column_diff": res.best_diff,
                         "t_max": t_max, "tol": tol})

    def truncated_value(self, x: Point, tol: float = TOL_TRUNC,
                        t_max: int = T_MAX, t0: float = 8.0) -> float:
        return float(self._ladder_limit(
            lambda t: self.truncated_value_at(x, t), tol, t_max, t0, "value"))

    def truncated_oracle(self, x: Point, what: str = "value",
                         tol: float = TOL_TRUNC, t_max: int = T_MAX,
                         h: float = H_FD):
        """Oracle value/gradient/hessian from truncated distances only.

        Derivatives are central finite differences of the truncated value,
        with every stencil node evaluated at the same truncation T and the
        whole derivative estimate extrapolated in 1/T.  (Extrapolating the
        value per node first would inject per-node truncation jitter that
        the 1/h^2 second difference amplifies catastrophically.)
        """
        if what == "value":
            return self.truncated_value(x, tol=tol, t_max=t_max)
        frame = self.space.frame_at(x)
        n1 = len(frame)

        def point_along(coeffs):
            tv = self.space.zero_tangent(x)
            for ci, e in zip(coeffs, frame):
                tv = self.space.add(tv, self.space.scale(e, ci))
            return self.space.exp_map(x, tv)

        if what == "gradient":
            nodes = []
            for i in range(n1):
                step = np.zeros(n1)
                step[i] = h
                nodes.append((point_along(step), point_along(-step)))

            def grad_at(t):
                return np.array([
                    (self.truncated_value_at(p, t) - self.truncated_value_at(m, t))
                    / (2.0 * h) for p, m in nodes])

            coords = self._ladder_limit(grad_at, TOL_ORACLE_GRAD, t_max, 8.0,
                                        "gradient")
            return self.space.coords_to_tangent(x, coords)
        if what == "hessian":
            axis_nodes = []
            for i in range(n1):
                step = np.zeros(n1)
                step[i] = h
                axis_nodes.append((point_along(step), point_along(-step)))
            cross_nodes = {}
            for i in range(n1):
                for j in range(i + 1, n1):
                    step = np.zeros(n1)
                    step[i] = step[j] = h
                    pp, mm = point_along(step), point_along(-step)
                    step[j] = -h
                    pm, mp = point_along(step), point_along(-step)
                    cross_nodes[i, j] = (pp, mm, pm, mp)

            def hess_at(t):
                f0 = self.truncated_value_at(x, t)
                out = np.zeros((n1, n1))
                for i, (p, m) in enumerate(axis_nodes):
                    out[i, i] = (self.truncated_value_at(p, t)
                                 + self.truncated_value_at(m, t) - 2.0 * f0) / (h * h)
                for (i, j), (pp, mm, pm, mp) in cross_nodes.items():
                    out[i, j] = out[j, i] = (
                        self.truncated_value_at(pp, t) + self.truncated_value_at(mm, t)
                        - self.truncated_value_at(pm, t) - self.truncated_value_at(mp, t)
                    ) / (4.0 * h * h)
                return out

            return SymMatrix(self._ladder_limit(hess_at, TOL_ORACLE_HESS, t_max,
                                                8.0, "hessian"))
        raise InputDomainError(f"unknown oracle request {what!r}")
