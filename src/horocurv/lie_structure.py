"""Lie-algebra machinery for the SPD factors.

Supports sl(n,R), the algebra of SL(n,R)/SO(n): Killing form, Cartan
decomposition with respect to theta(X) = -X^T, ad operators, restricted
roots with multiplicities, and the minimal metric scale forced by a
sectional curvature lower bound.

Sign convention: the curvature tensor of a noncompact-type symmetric
space at the base point is R(X,Y)Z = -[[X,Y],Z] for X,Y,Z in p, so
sectional curvatures computed by `algebraic_sectional_curvature` are
always <= 0 (the user-facing bound is stated as -kappa^2 below).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegeneratePlaneError, InputDomainError

_SPAN_TOL = 1e-10
_ROOT_CLUSTER_TOL = 1e-7


def _bracket(x, y):
    return x @ y - y @ x


class MatrixLieAlgebra:
    """sl(n,R) with a fixed ordered basis.

    Basis convention: the off-diagonal units E_ij in row-major order
    followed by the traceless diagonals E_kk - E_{k+1,k+1}.  The ordering
    is fixed so that every derived array is reproducible bit-for-bit.
    """

    def __init__(self, family: str, size: int):
        if family != "sl":
            raise ConfigError(f"unsupported family {family!r}")
        if size < 2:
            raise ConfigError("sl(n,R) requires n >= 2")
        self.n = size
        self.basis = self._sl_basis(size)
        self.dim = len(self.basis)
        flat = np.stack([b.ravel() for b in self.basis], axis=1)
        self._flat = flat
        self._flat_pinv = np.linalg.pinv(flat)

    @staticmethod
    def _sl_basis(n):
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
        return basis

    # -- coordinates and structure constants ------------------------------

    def coords(self, x, tol=_SPAN_TOL):
        """Coordinates of x in the fixed basis; errors if x is off-span."""
        x = np.asarray(x, dtype=float)
        c = self._flat_pinv @ x.ravel()
        resid = np.linalg.norm(self._flat @ c - x.ravel())
        scale = 1.0 + np.linalg.norm(x)
        if resid > tol * scale:
            raise InputDomainError(
                f"element outside the algebra span (residual {resid:.3e})")
        return c

    def from_coords(self, c):
        return (self._flat @ np.asarray(c, dtype=float)).reshape(
            self.n, self.n)

    @cached_property
    def ad_basis(self):
        """ad matrices of the basis elements, in basis coordinates."""
        ads = []
        for b in self.basis:
            cols = [self.coords(_bracket(b, bj)) for bj in self.basis]
            ads.append(np.stack(cols, axis=1))
        return ads

    @cached_property
    def killing_matrix(self):
        ads = self.ad_basis
        k = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(i, self.dim):
                k[i, j] = k[j, i] = np.trace(ads[i] @ ads[j])
        return k

    def theta(self, x):
        return -np.asarray(x, dtype=float).T

    # -- bilinear forms ----------------------------------------------------

    def killing_form(self, x, y) -> float:
        cx, cy = self.coords(x), self.coords(y)
        return float(cx @ self.killing_matrix @ cy)

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
        cu = self.coords(u)
        out = np.zeros((self.dim, self.dim))
        for ci, adi in zip(cu, self.ad_basis):
            if ci != 0.0:
                out += ci * adi
        return out

    # -- orthonormal frame for operator work -------------------------------

    @cached_property
    def _ortho(self):
        """beta_theta-orthonormal basis of g, p-part first.

        Returns (P, P_inv, p_dim): columns of P are the coordinates of the
        orthonormal elements in the fixed basis, with the first p_dim
        columns spanning p and the rest spanning k.
        """
        gram = np.empty((self.dim, self.dim))
        thetas = [self.coords(self.theta(b)) for b in self.basis]
        for i in range(self.dim):
            ci = np.zeros(self.dim)
            ci[i] = 1.0
            for j in range(self.dim):
                gram[i, j] = -(ci @ self.killing_matrix @ thetas[j])
        # candidate coordinate vectors: p-projections then k-projections
        cand = []
        for b in self.basis:
            k_part, p_part = self.cartan_decompose(b)
            cand.append(self.coords(p_part))
        for b in self.basis:
            k_part, _ = self.cartan_decompose(b)
            cand.append(self.coords(k_part))
        cols, p_dim, seen_p = [], 0, True
        for idx, v in enumerate(cand):
            if idx == len(self.basis):
                p_dim = len(cols)
                seen_p = False
            w = v.copy()
            for c in cols:
                w = w - (c @ gram @ w) * c
            nrm = float(np.sqrt(max(w @ gram @ w, 0.0)))
            if nrm > 1e-8:
                cols.append(w / nrm)
        if seen_p:
            p_dim = len(cols)
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


@dataclass(frozen=True)
class RootDatum:
    """Restricted roots of an algebra with respect to a maximal abelian a."""

    algebra: MatrixLieAlgebra
    abelian_basis: tuple            # beta-orthogonal matrices spanning a
    roots: tuple                    # ((values on abelian_basis,), multiplicity)
    max_root_norm: float            # sup over beta-unit H in a of |alpha(H)|
    centralizer_k_dim: int          # dim of Z(a) intersected with k

    @property
    def rank(self) -> int:
        return len(self.abelian_basis)


def _abelian_basis(alg: MatrixLieAlgebra):
    n = alg.n
    raw = []
    for k in range(n - 1):
        e = np.zeros((n, n))
        e[k, k], e[k + 1, k + 1] = 1.0, -1.0
        raw.append(e)
    # beta-orthonormalize (beta is positive definite on p)
    out = []
    for v in raw:
        w = v.copy()
        for u in out:
            w = w - alg.killing_form(u, w) * u
        w = w / np.sqrt(alg.killing_form(w, w))
        out.append(w)
    return out


def restricted_roots(alg: MatrixLieAlgebra) -> RootDatum:
    """Restricted-root decomposition data computed from ad eigenspaces.

    A regular element of a is diagonalized (ad_H is beta_theta-symmetric
    for H in p); eigenvectors are grouped by their functional on a,
    evaluated by Rayleigh quotients against each abelian basis element.
    """
    ab = _abelian_basis(alg)
    rank = len(ab)
    # regular element: geometric weights keep all root values distinct
    weights = np.array([3.0 ** i for i in range(rank)])
    weights /= np.linalg.norm(weights)
    h0 = sum(w * a for w, a in zip(weights, ab))
    m0 = alg.ad_matrix_ortho(h0)
    m0 = 0.5 * (m0 + m0.T)
    evals, evecs = np.linalg.eigh(m0)
    ad_ab = [alg.ad_matrix_ortho(a) for a in ab]
    scale = 1.0 + float(np.max(np.abs(evals)))
    zero_dim = int(np.sum(np.abs(evals) < _ROOT_CLUSTER_TOL * scale))
    functionals = []
    for i in range(alg.dim):
        if abs(evals[i]) < _ROOT_CLUSTER_TOL * scale:
            continue
        x = evecs[:, i]
        vals = np.array([float(x @ a @ x) for a in ad_ab])
        functionals.append(vals)
    # cluster identical functionals -> roots with multiplicities
    roots = []
    for vals in functionals:
        for known, info in roots:
            if np.max(np.abs(known - vals)) < _ROOT_CLUSTER_TOL * scale:
                info[0] += 1
                break
        else:
            roots.append((vals, [1]))
    gram = np.array([[alg.killing_form(a, b) for b in ab] for a in ab])
    max_norm_sq = 0.0
    packed = []
    for vals, info in roots:
        c = np.linalg.solve(gram, vals)
        norm_sq = float(vals @ c)
        max_norm_sq = max(max_norm_sq, norm_sq)
        packed.append((tuple(vals), info[0]))
    centralizer_k_dim = zero_dim - rank
    return RootDatum(
        algebra=alg,
        abelian_basis=tuple(ab),
        roots=tuple(packed),
        max_root_norm=float(np.sqrt(max_norm_sq)),
        centralizer_k_dim=centralizer_k_dim,
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
    if not lam > 0.0:
        raise InputDomainError("metric scale must be positive")
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
