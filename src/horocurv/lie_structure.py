"""Closed forms for sl(n,R), the Lie algebra of SL(n,R)/SO(n).

With the Killing form beta(X, Y) = 2n tr(XY) and the Cartan involution
theta(X) = -X^T, sl(n,R) = k + p splits into the antisymmetric k and the
symmetric traceless p, and beta_theta(X, Y) = -beta(X, theta(Y)) =
2n tr(X^T Y) is positive definite.  The restricted roots are e_i - e_j
(type A_{n-1}; Helgason, Differential Geometry, Lie Groups, and Symmetric
Spaces, 1978, Ch. X), each of Killing norm |alpha|^2 = 1/n.

`tests/oracles.py` derives the same quantities numerically (ad matrices,
a Killing-form Gram-Schmidt, ad eigenspaces); the tests hold these
formulas to it.
"""

from __future__ import annotations

import math

import numpy as np


def max_root_norm(n: int) -> float:
    """max |alpha| over the restricted roots, in the Killing norm: 1/sqrt(n)."""
    return math.sqrt(1.0 / n)


def p_dim(n: int) -> int:
    return n * (n + 1) // 2 - 1


def basis(n: int):
    """beta_theta-orthonormal basis of sl(n,R), shape (n^2 - 1, n, n).

    The first p_dim(n) matrices span p: (E_ij + E_ji) / (2 sqrt n) for
    i < j in row-major order, then diag(1, ..., 1, -k, 0, ...) /
    sqrt(2n k (k+1)) for k = 1 ... n-1.  The rest span k:
    (E_ij - E_ji) / (2 sqrt n) for i < j.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = np.zeros((n * n - 1, n, n))
    s = 0.5 / math.sqrt(n)
    for a, (i, j) in enumerate(pairs):
        out[a, i, j] = out[a, j, i] = s
        k_row = out[p_dim(n) + a]
        k_row[i, j], k_row[j, i] = s, -s
    for k in range(1, n):
        c = 1.0 / math.sqrt(2.0 * n * k * (k + 1))
        diag = out[len(pairs) + k - 1]
        diag[range(k), range(k)] = c
        diag[k, k] = -k * c
    return out


def ad_matrix(u):
    """ad_u = [u, .] in the basis of `basis(n)`, p block first.

    M_ab = beta_theta(B_a, [u, B_b]) = 2n tr(B_a^T [u, B_b]); u may be a
    stack (..., n, n), giving (..., n^2 - 1, n^2 - 1).
    """
    u = np.asarray(u, dtype=float)[..., None, :, :]
    n = u.shape[-1]
    b = basis(n)
    return 2.0 * n * np.einsum("aij,...bij->...ab", b, u @ b - b @ u)
