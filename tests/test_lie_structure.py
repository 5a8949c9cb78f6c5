"""sl(n,R): the closed forms of `horocurv.lie_structure` against the
numeric oracle of `tests/oracles.py`, and the oracle's own structure."""

import numpy as np
import pytest

from horocurv import lie_structure
from horocurv.errors import ConfigError, DegeneratePlaneError, InputDomainError
from oracles import (MatrixLieAlgebra, algebraic_sectional_curvature,
                     metric_scale_bound, restricted_roots, sl)

# the oracle's own round-off (pinv coordinates, trace-form Killing matrix,
# Gram-Schmidt), largest at n = 4: 1.1e-15 on a p-basis entry, 2.8e-15 on
# an ad entry of a basis element, 6e-15 on a Gram entry
BASIS_TOL = 2e-15
AD_TOL = 1e-14


@pytest.fixture(scope="module")
def sl3():
    return sl(3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_p_basis_is_gram_schmidt_output(n):
    # the same matrices in the oracle's order and signs
    b = lie_structure.basis(n)
    assert b.shape == (n * n - 1, n, n)
    assert lie_structure.p_dim(n) == sl(n).p_dim
    p = b[:lie_structure.p_dim(n)]
    assert np.max(np.abs(p - np.stack(sl(n).p_basis_matrices()))) <= BASIS_TOL


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_basis_orthonormal_and_split(n):
    # beta_theta-orthonormal under the oracle's ad-trace Killing form, the
    # p block in p (theta = -1), the k block in k (theta = +1)
    alg, b = sl(n), lie_structure.basis(n)
    gram = np.array([[alg.beta_theta(x, y) for y in b] for x in b])
    assert np.max(np.abs(gram - np.eye(len(b)))) <= 1e-14
    d = lie_structure.p_dim(n)
    for i, x in enumerate(b):
        assert np.array_equal(alg.theta(x), -x if i < d else x)
        assert np.trace(x) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_max_root_norm(n):
    # [PAPER] type A_{n-1}: n(n-1) roots e_i - e_j, each of multiplicity 1
    # and |alpha|^2 = 1/n
    rd = restricted_roots(sl(n))
    assert len(rd.roots) == n * (n - 1)
    assert all(mult == 1 for _, mult in rd.roots)
    assert abs(lie_structure.max_root_norm(n) ** 2 - 1.0 / n) <= 1e-15
    assert abs(lie_structure.max_root_norm(n) - rd.max_root_norm) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_ad_matches_oracle(n):
    # on every basis element and on random elements of p and of k; a stack
    # of elements gives the stack of their matrices
    alg, b = sl(n), lie_structure.basis(n)
    c = np.random.default_rng(n).standard_normal((4, len(b)))
    c[:2, lie_structure.p_dim(n):] = 0.0
    c[2:, :lie_structure.p_dim(n)] = 0.0
    us = np.concatenate([b, np.tensordot(c, b, axes=1)])
    stacked = lie_structure.ad_matrix(us)
    for u, m in zip(us, stacked):
        one = lie_structure.ad_matrix(u)
        assert np.max(np.abs(one - alg.ad_matrix_ortho(u))) <= AD_TOL * (
            1.0 + np.max(np.abs(one)))
        assert np.max(np.abs(m - one)) <= 1e-15 * (1.0 + np.max(np.abs(one)))


def test_killing_form_matches_trace_formula(sl3):
    # [PAPER] on sl(n,R): beta(X, Y) = 2n * tr(XY)
    rng = np.random.default_rng(0)
    n = 3
    for _ in range(100):
        x = rng.standard_normal((n, n))
        x -= np.trace(x) / n * np.eye(n)
        y = rng.standard_normal((n, n))
        y -= np.trace(y) / n * np.eye(n)
        beta = sl3.killing_form(x, y)
        assert abs(beta - 2 * n * np.trace(x @ y)) <= 1e-10 * (1 + abs(beta))


def test_cartan_decomposition(sl3):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 3))
    x -= np.trace(x) / 3 * np.eye(3)
    k, p = sl3.cartan_decompose(x)
    assert np.allclose(k + p, x)
    assert np.allclose(sl3.theta(k), k)     # +1 eigenspace (antisymmetric)
    assert np.allclose(sl3.theta(p), -p)    # -1 eigenspace (symmetric)


def test_p_basis_orthonormal(sl3):
    mats = sl3.p_basis_matrices()
    assert len(mats) == 5                   # dim p for sl(3) = n(n+1)/2 - 1
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            val = sl3.beta_theta(a, b)
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-9


def test_sl3_restricted_roots(sl3):
    # [PAPER] sl(3): 6 roots e_i - e_j, each |alpha|^2_beta = 1/3
    rd = restricted_roots(sl3)
    assert len(rd.roots) == 6
    assert all(mult == 1 for _, mult in rd.roots)
    gram = np.array([[sl3.killing_form(a, b) for b in rd.abelian_basis]
                     for a in rd.abelian_basis])
    for vals, _ in rd.roots:
        # dual-vector solve oracle for |alpha|^2
        c = np.linalg.solve(gram, np.asarray(vals))
        norm_sq = float(np.asarray(vals) @ c)
        assert abs(norm_sq - 1.0 / 3.0) <= 1e-10
    assert abs(rd.max_root_norm ** 2 - 1.0 / 3.0) <= 1e-10


def test_metric_scale_bound(sl3):
    # [PAPER] lambda >= |alpha|^2_max / kappa^2 = 1/3 at kappa = 1
    rd = restricted_roots(sl3)
    assert abs(metric_scale_bound(rd, 1.0) - 1.0 / 3.0) <= 1e-10
    assert abs(metric_scale_bound(rd, 2.0) - 1.0 / 12.0) <= 1e-10
    with pytest.raises(InputDomainError):
        metric_scale_bound(rd, 0.0)


def test_sectional_curvature_nonpositive(sl3):
    rng = np.random.default_rng(2)
    mats = sl3.p_basis_matrices()
    for _ in range(50):
        cx, cy = rng.standard_normal((2, len(mats)))
        x = sum(c * m for c, m in zip(cx, mats))
        y = sum(c * m for c, m in zip(cy, mats))
        sec = algebraic_sectional_curvature(sl3, x, y, lam=1.0)
        assert sec <= 1e-12


def test_sectional_curvature_rejects_bad_planes(sl3):
    mats = sl3.p_basis_matrices()
    with pytest.raises(DegeneratePlaneError):
        algebraic_sectional_curvature(sl3, mats[0], 2.0 * mats[0], lam=1.0)
    k = np.zeros((3, 3))
    k[0, 1], k[1, 0] = 1.0, -1.0          # lives in k, not p
    with pytest.raises(InputDomainError):
        algebraic_sectional_curvature(sl3, mats[0], k, lam=1.0)


def test_flat_plane_inside_abelian(sl3):
    # [PAPER] planes inside the maximal abelian subspace are flat
    rd = restricted_roots(sl3)
    a1, a2 = rd.abelian_basis
    sec = algebraic_sectional_curvature(sl3, a1, a2, lam=1.0)
    assert abs(sec) <= 1e-12


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        MatrixLieAlgebra("sp", 2)


def test_coords_off_span_rejected(sl3):
    with pytest.raises(InputDomainError):
        sl3.coords(np.eye(3))               # trace-ful, outside sl(3)
