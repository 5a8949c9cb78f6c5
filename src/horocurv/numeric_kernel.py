"""Dense symmetric linear algebra shared by the geometric modules.

Everything here operates on small (dim <= ~15) real matrices; `op_norm`,
`psd_sqrt`, `sym_exp` and `spd_inv_sqrt` take one matrix or a (..., n, n)
stack, one LAPACK call per matrix either way.  Reductions run in fixed
index order and the eigensolver is LAPACK's deterministic symmetric
driver, so repeated calls on identical inputs are bit-stable.
`richardson_limit` is the one Richardson extrapolation ladder, used by the
truncated Busemann oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputDomainError, NotPSDError

PSD_CLAMP_REL = 1e-8


class SymMatrix:
    """A real symmetric matrix, or a (..., n, n) stack of them, symmetrized
    exactly on construction."""

    __slots__ = ("a",)

    def __init__(self, entries):
        self.a = _sym_stack(entries)

    def __repr__(self):
        return f"SymMatrix({self.a!r})"


def _sym_stack(m) -> np.ndarray:
    """Exactly symmetrized float array of square matrices, shape (..., n, n)."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputDomainError(f"expected a square array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputDomainError("matrix has non-finite entries")
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _as_sym_array(m) -> np.ndarray:
    return m.a if isinstance(m, SymMatrix) else _sym_stack(m)


def op_norm(m):
    """Operator (spectral) norm of a symmetric matrix (a float), or of each
    matrix of a (..., n, n) stack."""
    a = _as_sym_array(m)
    if a.size == 0:
        return 0.0
    nrm = np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)
    return float(nrm) if np.ndim(nrm) == 0 else nrm


def psd_sqrt(m) -> SymMatrix:
    """Unique PSD square root of a symmetric PSD matrix, or of each matrix
    of a (..., n, n) stack.

    Eigenvalues within -PSD_CLAMP_REL*(1+||m||) of zero are clamped to 0;
    anything more negative raises NotPSDError.
    """
    w, q = np.linalg.eigh(_as_sym_array(m))
    eps = PSD_CLAMP_REL * (1.0 + np.max(np.abs(w), axis=-1, initial=0.0))
    if np.any(w[..., :1] < -eps[..., None]):
        raise NotPSDError(f"eigenvalue {np.min(w):.3e} below the PSD "
                          f"tolerance -{PSD_CLAMP_REL:.0e}(1 + ||m||)")
    sq = np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return SymMatrix((q * sq) @ np.swapaxes(q, -1, -2))


def sym_exp(m) -> np.ndarray:
    """Exponential of a symmetric matrix, or a (..., n, n) stack of them.

    Via the eigendecomposition: cheaper than expm and used on geodesic hot
    paths.
    """
    w, q = np.linalg.eigh(_sym_stack(m))
    return (q * np.exp(w)[..., None, :]) @ np.swapaxes(q, -1, -2)


def spd_inv_sqrt(m):
    """(sqrt(P), sqrt(P)^-1) for SPD P, or a (..., n, n) stack, from one eigh."""
    w, q = np.linalg.eigh(_sym_stack(m))
    if w.size and np.min(w[..., 0]) <= 0.0:
        raise InputDomainError(
            f"matrix is not positive definite (min eig {np.min(w[..., 0]):.3e})")
    s = np.sqrt(w)[..., None, :]
    qt = np.swapaxes(q, -1, -2)
    return (q * s) @ qt, (q / s) @ qt


class LadderResult(NamedTuple):
    """Outcome of `richardson_limit`.

    `limit` is the best column of the last row compared (the limit when
    `converged`), `best_diff` its Cauchy difference and `last_estimate`
    the plain estimate at the largest T; each is None when the ladder
    never got that far.
    """

    converged: bool
    limit: np.ndarray | None
    best_diff: float | None
    last_estimate: np.ndarray | None


def richardson_limit(estimate_at, tol: float, t_max: float,
                     t0: float) -> LadderResult:
    """Limit of estimate_at(T) as T -> infinity over a doubling ladder.

    Builds a Richardson table in powers of 1/T for T = t0, 2 t0, ... <= t_max
    and stops as soon as any column is Cauchy below tol (column 0 catches
    exponential-rate convergence, deeper columns catch algebraic 1/T
    tails).  estimate_at returns an ndarray; the limit has the same shape.
    """
    table = []
    t = t0
    best, best_diff = None, None
    while t <= t_max + 1e-9:
        row = [np.asarray(estimate_at(t), dtype=float)]
        for j in range(1, len(table) + 1):
            num = 2.0 ** j
            row.append((num * row[j - 1] - table[-1][j - 1]) / (num - 1.0))
        if table:
            prev = table[-1]
            diffs = [float(np.max(np.abs(row[j] - prev[j])))
                     for j in range(len(prev))]
            jbest = int(np.argmin(diffs))
            best, best_diff = row[jbest], diffs[jbest]
            if best_diff < tol:
                return LadderResult(True, best, best_diff, row[0])
        table.append(row)
        t *= 2.0
    return LadderResult(False, best, best_diff,
                        table[-1][0] if table else None)
