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
computed once, when the function is built; a factor of weight 0 takes
the finite data of the zero direction and adds an exact 0.  The parts of v
may carry leading direction axes: `value`, `gradient` and `hessian`
broadcast them against the point axes of x (D directions at D points give
D results, `bus[:, None]` at N points a (D, N) array), and `bus[idx]`
selects directions.

Every closed form is cross-validated in the test suite against
`truncated_oracle`, which only uses distances along the defining ray
(with Richardson acceleration of the 1/T tail).
"""

from __future__ import annotations

import copy

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
    """B_v(x) = lim_t (d(x, gamma_v(t)) - t) for a unit direction v at o,
    or for each direction of a stack v."""

    def __init__(self, space: SymmetricSpace, o: Point, v: Tangent):
        squares = [np.maximum(f.inner(op, vp, vp), 0.0)
                   for f, op, vp in zip(space.factors, o.parts, v.parts)]
        nrm = np.sqrt(sum(squares))
        if np.any(np.abs(nrm - 1.0) > 1e-10):
            raise InputDomainError(f"direction must be unit (|v| = {nrm})")
        self.space = space
        self.o = o
        self.weights = []        # factor weights c_f, one per direction
        self.data = []           # factor direction data (`bus_data`)
        for f, op, vp, sq in zip(space.factors, o.parts, v.parts, squares):
            c = np.sqrt(sq)
            unit = c > _WEIGHT_EPS
            axes = (...,) + (None,) * f.point_ndim
            self.weights.append(np.where(unit, c, 0.0))
            self.data.append(f.bus_data(op, np.where(
                unit[axes], vp / np.where(unit, c, 1.0)[axes], 0.0)))

    def __getitem__(self, idx) -> "BusemannFunction":
        """The function of the directions `idx` (an index of the direction
        axes; `bus[:, None]` adds a unit axis)."""
        out = copy.copy(self)
        out.weights = [c[idx] for c in self.weights]
        out.data = [data[:f.bus_shared]
                    + tuple(a[idx] for a in data[f.bus_shared:])
                    for f, data in zip(self.space.factors, self.data)]
        return out

    # -- closed forms ---------------------------------------------------------

    def value(self, x: Point):
        """B_v(x): a float for one direction at one point, else an array
        over the broadcast direction and point axes."""
        total = sum(c * f.bus_value(data, xs)
                    for f, xs, c, data in zip(self.space.factors, x.parts,
                                              self.weights, self.data))
        return float(total) if np.ndim(total) == 0 else total

    def gradient(self, x: Point) -> Tangent:
        return Tangent(self.space, x, tuple(
            np.reshape(c, np.shape(c) + (1,) * f.point_ndim)
            * f.bus_grad(data, xp)
            for f, xp, c, data in zip(self.space.factors, x.parts,
                                      self.weights, self.data)))

    def hessian(self, x: Point) -> SymMatrix:
        """Hessian as a matrix in the frame coordinates at x (block diagonal),
        (..., dim, dim) over the broadcast direction and point axes."""
        blocks = [np.reshape(c, np.shape(c) + (1, 1)) * f.bus_hess(data, xp)
                  for f, xp, c, data in zip(self.space.factors, x.parts,
                                            self.weights, self.data)]
        h = np.zeros(np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
                     + (self.space.total_dim,) * 2)
        at = 0
        for f, b in zip(self.space.factors, blocks):
            h[..., at:at + f.dim, at:at + f.dim] = b
            at += f.dim
        return SymMatrix(h)

    # -- independent truncation oracle -----------------------------------------

    def truncated_value_at(self, x: Point, t: float):
        """d(x, gamma_v(t)) - t, assembled from overflow-safe factor
        distances: a float at one point, an array over a point stack."""
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
        out = num / (np.sqrt(np.maximum(t * t + num, 0.0)) + t)
        return float(out) if np.ndim(out) == 0 else out

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
        dim = self.space.total_dim
        e = h * np.eye(dim)
        i, j = np.triu_indices(dim, 1)
        if what == "gradient":
            steps = np.concatenate([e, -e])
        elif what == "hessian":
            # 0, +-h e_i, +-h (e_i + e_j), +-h (e_i - e_j) for i < j
            steps = np.concatenate([np.zeros((1, dim)), e, -e, e[i] + e[j],
                                    -e[i] - e[j], e[i] - e[j], e[j] - e[i]])
        else:
            raise InputDomainError(f"unknown oracle request {what!r}")
        nodes = self.space.exp_map(x, self.space.coords_to_tangent(x, steps))

        if what == "gradient":
            def grad_at(t):
                f = self.truncated_value_at(nodes, t)
                return (f[:dim] - f[dim:]) / (2.0 * h)

            coords = self._ladder_limit(grad_at, TOL_ORACLE_GRAD, t_max, 8.0,
                                        "gradient")
            return self.space.coords_to_tangent(x, coords)

        def hess_at(t):
            f0, fp, fm, pp, mm, pm, mp = np.split(
                self.truncated_value_at(nodes, t),
                np.cumsum([1, dim, dim] + [len(i)] * 3))
            out = np.diag((fp + fm - 2.0 * f0) / (h * h))
            out[i, j] = out[j, i] = (pp + mm - pm - mp) / (4.0 * h * h)
            return out

        return SymMatrix(self._ladder_limit(hess_at, TOL_ORACLE_HESS, t_max,
                                            8.0, "hessian"))
