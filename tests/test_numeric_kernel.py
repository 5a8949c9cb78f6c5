"""Symmetric-matrix kernel: eigensolves, PSD square roots, exp/log."""

import numpy as np
import pytest

from horocurv.errors import NotPSDError
from horocurv.numeric_kernel import (SymMatrix, op_norm, psd_sqrt,
                                     spd_inv_sqrt, sym_exp)
from oracles import mat_log_spd


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = rng.standard_normal((6, 6))
        a = g @ g.T
        r = psd_sqrt(a).a
        assert np.max(np.abs(r @ r - a)) < 1e-10 * (1 + op_norm(a))
        assert np.min(np.linalg.eigvalsh(r)) >= 0.0


def test_psd_sqrt_clamps_noise_but_rejects_negative():
    a = np.diag([1.0, -1e-12])
    r = psd_sqrt(a).a           # tiny negative eigenvalue clamped to zero
    assert r[1, 1] == 0.0
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -1e-3]))


def test_psd_sqrt_stack_matches_single_matrices():
    # each matrix of a stack gets its own clamp and its single-call root
    rng = np.random.default_rng(2)
    g = rng.standard_normal((5, 4, 4))
    a = g @ np.swapaxes(g, -1, -2)
    a[2] = np.diag([1.0, 2.0, 3.0, -1e-12])
    r = psd_sqrt(a).a
    assert r.shape == (5, 4, 4)
    for k in range(5):
        assert np.array_equal(r[k], psd_sqrt(a[k]).a)
    a[3] = np.diag([1.0, 2.0, 3.0, -1e-3])
    with pytest.raises(NotPSDError):
        psd_sqrt(a)


def test_op_norm_matches_eigs():
    a = np.diag([-4.0, 3.0])
    assert op_norm(a) == 4.0


def test_exp_log_roundtrip_spd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = rng.standard_normal((4, 4))
        a = 0.1 * (g + g.T)
        x = sym_exp(a)
        assert np.max(np.abs(mat_log_spd(x) - a)) < 1e-10


def test_spd_inv_sqrt():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4))
    x = g @ g.T + np.eye(4)
    s, si = spd_inv_sqrt(x)
    assert np.max(np.abs(s @ s - x)) < 1e-10 * op_norm(x)
    assert np.max(np.abs(s @ si - np.eye(4))) < 1e-10


def test_sqrt_perturbation_property():
    # [PAPER] ||sqrt(A^2) - sqrt(B^2)||_op <= sqrt(d) * ||A - B||_op
    rng = np.random.default_rng(4)
    d = 7
    for _ in range(200):
        g = rng.standard_normal((d, d))
        a = 0.5 * (g + g.T)
        g = rng.standard_normal((d, d))
        b = 0.5 * (g + g.T)
        lhs = op_norm(psd_sqrt(a @ a).a - psd_sqrt(b @ b).a)
        assert lhs <= np.sqrt(d) * op_norm(a - b) * (1 + 1e-10)


def test_symmatrix_validates():
    m = SymMatrix(np.eye(3))
    assert m.a.shape == (3, 3)
