"""Numeric reference for the sl(n,R) closed forms of `horocurv.lie_structure`.

Derives the structure of sl(n,R) from its definitions alone: ad matrices
of a fixed basis, the Killing form as their trace form, a beta_theta
Gram-Schmidt for an orthonormal frame, and restricted roots from the
eigenspaces of ad on a regular element of the maximal abelian a.  The
tests compare the closed forms against it.

Sign convention: the curvature tensor of a noncompact-type symmetric
space at the base point is R(X,Y)Z = -[[X,Y],Z] for X,Y,Z in p, so
sectional curvatures computed by `algebraic_sectional_curvature` are
always <= 0 (the user-facing bound is stated as -kappa^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from horocurv.errors import ConfigError, DegeneratePlaneError, InputDomainError

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
