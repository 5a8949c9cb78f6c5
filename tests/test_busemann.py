"""Busemann functions: closed forms vs. the truncated-distance oracle."""

import math

import numpy as np
import pytest

from horocurv.busemann import BusemannFunction
from horocurv.errors import InputDomainError
from horocurv.model_spaces import Point, Tangent, parse_space
from horocurv.numeric_kernel import psd_sqrt, spd_inv_sqrt
from oracles import sl

SPD_SPECS = ["spd:2", "spd:3", "spd:4,lambda=2.5"]


def _random_setup(spec, seed, radius=1.5):
    space = parse_space(spec)
    rng = np.random.default_rng(seed)
    o = space.origin()
    v = space.random_unit_tangent(o, rng)
    x = space.random_point(o, rng, radius)
    return space, o, v, x


def test_unit_direction_required():
    space = parse_space("euclidean:3")
    o = space.origin()
    v = space.random_tangent(o, np.random.default_rng(0))
    v = space.scale(v, 2.0 / space.norm(v))
    with pytest.raises(InputDomainError):
        BusemannFunction(space, o, v)


@pytest.mark.parametrize("spec", ["euclidean:3", "hyperbolic:3,kappa=1.5",
                                  "spd:3",
                                  "euclidean:1xhyperbolic:2,kappa=0.8xspd:2"])
def test_on_ray_values(spec):
    # [TRIVIAL] B_v(gamma_v(-t)) = t and B_v(gamma_v(t)) = -t
    space, o, v, _ = _random_setup(spec, 1)
    bus = BusemannFunction(space, o, v)
    for t in (0.3, 1.0, 2.5):
        assert abs(bus.value(space.exp_map(o, space.scale(v, -t))) - t) < 1e-9
        assert abs(bus.value(space.exp_map(o, space.scale(v, t))) + t) < 1e-9


@pytest.mark.parametrize("spec", ["euclidean:3", "hyperbolic:3,kappa=1.5",
                                  "spd:3"])
def test_gradient_is_unit(spec):
    space, o, v, x = _random_setup(spec, 2)
    grad = BusemannFunction(space, o, v).gradient(x)
    assert abs(space.norm(grad) - 1.0) < 1e-9


def test_product_value_formula():
    # [PAPER] B = cos(theta) B_v(x1) + sin(theta) B_w(x2) on a product
    space = parse_space("hyperbolic:2,kappa=1xeuclidean:2")
    rng = np.random.default_rng(3)
    o = space.origin()
    theta = 0.7
    vh = space.factors[0].frame(o.parts[0])[0]
    ve = np.array([1.0, 0.0])
    v = space.tangent(o, (math.cos(theta) * vh, math.sin(theta) * ve))
    bus = BusemannFunction(space, o, v)
    x = space.random_point(o, rng, 1.5)
    fh, fe = space.factors
    b1 = fh.bus_value(fh.bus_data(o.parts[0], vh), x.parts[0])
    b2 = fe.bus_value(fe.bus_data(o.parts[1], ve), x.parts[1])
    expected = math.cos(theta) * b1 + math.sin(theta) * b2
    assert abs(bus.value(x) - expected) < 1e-12


@pytest.mark.parametrize("spec", ["euclidean:3", "hyperbolic:3,kappa=1.5",
                                  "spd:3"])
def test_convex_along_geodesics(spec):
    space, o, v, x = _random_setup(spec, 4)
    bus = BusemannFunction(space, o, v)
    rng = np.random.default_rng(5)
    w = space.random_unit_tangent(x, rng)
    ts = np.linspace(-1.0, 1.0, 21)
    vals = [bus.value(space.exp_map(x, space.scale(w, t))) for t in ts]
    second = np.diff(vals, 2)
    assert np.min(second) > -1e-8


@pytest.mark.parametrize("spec", ["hyperbolic:3,kappa=1.5", "spd:3"])
def test_value_against_truncation_oracle(spec):
    space, o, v, x = _random_setup(spec, 6)
    bus = BusemannFunction(space, o, v)
    assert abs(bus.value(x) - bus.truncated_value(x)) < 1e-7


def test_value_oracle_mixed_product():
    # looser tolerance on mixed products: slow exponential modes, see ledger
    space, o, v, x = _random_setup("euclidean:1xhyperbolic:2,kappa=0.8xspd:2", 7)
    bus = BusemannFunction(space, o, v)
    assert abs(bus.value(x) - bus.truncated_value(x, tol=1e-6)) < 1e-5


@pytest.mark.parametrize("spec", ["euclidean:3", "hyperbolic:3,kappa=1.5",
                                  "spd:3"])
def test_gradient_against_oracle(spec):
    space, o, v, x = _random_setup(spec, 8)
    bus = BusemannFunction(space, o, v)
    grad = bus.gradient(x)
    oracle = bus.truncated_oracle(x, "gradient")
    diff = space.add(grad, space.scale(oracle, -1.0))
    assert space.norm(diff) < 1e-6


@pytest.mark.parametrize("spec", ["hyperbolic:3,kappa=1.5", "spd:3"])
def test_hessian_against_oracle(spec):
    space, o, v, x = _random_setup(spec, 9)
    bus = BusemannFunction(space, o, v)
    closed = bus.hessian(x).a
    oracle = bus.truncated_oracle(x, "hessian").a
    assert np.max(np.abs(closed - oracle)) < 1e-3


def test_hessian_psd_and_kernel():
    # gradient direction lies in the Hessian kernel; Hessian is PSD
    for spec in ("hyperbolic:3,kappa=1.5", "spd:3"):
        space, o, v, x = _random_setup(spec, 10)
        bus = BusemannFunction(space, o, v)
        h = bus.hessian(x).a
        evals = np.linalg.eigvalsh(h)
        assert evals[0] >= -1e-8
        g_coords = np.asarray(space.tangent_to_coords(bus.gradient(x)))
        assert np.max(np.abs(h @ g_coords)) < 1e-7


def test_hyperbolic_hessian_eigenvalues():
    # [DERIVED] Hess B_v on H^3(kappa) has eigenvalues {0, kappa, kappa}
    kappa = 1.5
    space, o, v, x = _random_setup(f"hyperbolic:3,kappa={kappa}", 11)
    h = BusemannFunction(space, o, v).hessian(x).a
    evals = np.sort(np.linalg.eigvalsh(h))
    assert np.max(np.abs(evals - np.array([0.0, kappa, kappa]))) < 1e-9


def test_hessian_norm_within_curvature_bound():
    for spec in ("hyperbolic:3,kappa=1.5", "spd:3",
                 "euclidean:1xhyperbolic:2,kappa=0.8xspd:2"):
        space, o, v, x = _random_setup(spec, 12)
        h = BusemannFunction(space, o, v).hessian(x).a
        opn = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        assert opn <= space.curvature_lower_bound + 1e-6


def test_product_hessian_block_layout():
    # the product Hessian is exactly the block-diagonal matrix of the
    # weighted factor Hessians c_f Hess B_{v_f}, in factor order, with a zero
    # block for a factor of zero weight; scipy's block_diag is the oracle
    from scipy.linalg import block_diag
    space = parse_space("euclidean:1xhyperbolic:2,kappa=0.8xspd:2")
    o = space.origin()
    rng = np.random.default_rng(15)
    for zeroed in (None, None, None, 0, 1, 2):
        v = space.random_unit_tangent(o, rng)
        if zeroed is not None:
            v = Tangent(space, o, tuple(0.0 * p if j == zeroed else p
                                        for j, p in enumerate(v.parts)))
            v = space.scale(v, 1.0 / space.norm(v))
        x = space.random_point(o, rng, 1.5)
        bus = BusemannFunction(space, o, v)
        assert (zeroed is None) == all(c > 0.0 for c in bus.weights)
        want = block_diag(*(
            c * f.bus_hess(data, xp) if c > 0.0 else np.zeros((f.dim, f.dim))
            for f, xp, c, data in zip(space.factors, x.parts, bus.weights,
                                      bus.data)))
        assert np.array_equal(bus.hessian(x).a, want)


def test_value_on_stacks_matches_scalar():
    space, o, v, _ = _random_setup("euclidean:1xhyperbolic:2,kappa=0.8xspd:2", 13)
    rng = np.random.default_rng(14)
    bus = BusemannFunction(space, o, v)
    pts = [space.random_point(o, rng, 1.5) for _ in range(6)]
    stacks = tuple(np.stack([p.parts[j] for p in pts])
                   for j in range(len(space.factors)))
    vals = bus.value(Point(space, stacks))
    assert vals.shape == (6,)
    for i, p in enumerate(pts):
        value = bus.value(p)
        assert isinstance(value, float)
        assert abs(vals[i] - value) < 1e-12


def _spd_gradient_at_identity(f, data, x):
    """The Busemann gradient at x translated to the identity, beta-unit."""
    xsi = spd_inv_sqrt(x)[1]
    u0 = xsi @ f.bus_grad(data, x) @ xsi
    return 0.25 * math.sqrt(f.lam) * (u0 + u0.T)


def _ad_oracle_hessian(f, data, x):
    """sqrt(ad_u^2)|_p through the generic ad matrix and a PSD square root.

    Its own error is about 1e-8: the zero eigenvalues of ad_u^2 come out
    as +-1e-16, and their square roots as 1e-8.
    """
    ad = sl(f.n).ad_matrix_ortho(_spd_gradient_at_identity(f, data, x))
    p = sl(f.n).p_dim
    a2 = (ad @ ad)[:p, :p]
    return psd_sqrt(0.5 * (a2 + a2.T)).a / math.sqrt(f.lam)


def _spd_factor_samples(spec, seed, count=50):
    space = parse_space(spec)
    f = space.factors[0]
    rng = np.random.default_rng(seed)
    o = space.origin()
    for _ in range(count):
        v = space.random_unit_tangent(o, rng)
        x = space.random_point(o, rng, 2.0)
        yield f, f.bus_data(o.parts[0], v.parts[0]), x.parts[0]


@pytest.mark.parametrize("spec", SPD_SPECS)
def test_spd_hessian_matches_ad_oracle(spec):
    # the closed form against the ad-operator path, above that path's own
    # ~1.2e-8 error
    for f, data, x in _spd_factor_samples(spec, 17):
        closed = f.bus_hess(data, x)
        assert np.max(np.abs(closed - _ad_oracle_hessian(f, data, x))) < 5e-8


@pytest.mark.parametrize("spec", SPD_SPECS)
def test_spd_hessian_eigenvalues_are_root_gaps(spec):
    # [DERIVED] sqrt(ad_u^2)|_p has eigenvalues |mu_i - mu_j| (i < j), and
    # n - 1 exact zeros on the flat through u, all over sqrt(lam)
    for f, data, x in _spd_factor_samples(spec, 18, count=20):
        mu = np.linalg.eigvalsh(_spd_gradient_at_identity(f, data, x))
        i, j = np.triu_indices(f.n, 1)
        gaps = np.abs(mu[i] - mu[j]) / math.sqrt(f.lam)
        expected = np.sort(np.concatenate([gaps, np.zeros(f.n - 1)]))
        evals = np.linalg.eigvalsh(f.bus_hess(data, x))
        assert np.max(np.abs(evals - expected)) < 1e-12


def test_spd_tied_direction_against_oracle():
    # v ~ diag(2, -1, -1) has a repeated eigenvalue: its middle minor weight
    # is zero, and value and gradient still match the truncation oracle
    space = parse_space("spd:3")
    o = space.origin()
    v = space.tangent(o, (np.diag([2.0, -1.0, -1.0]),))
    v = space.scale(v, 1.0 / space.norm(v))
    f = space.factors[0]
    assert f.bus_data(o.parts[0], v.parts[0])[4][1] == 0.0
    bus = BusemannFunction(space, o, v)
    x = space.random_point(o, np.random.default_rng(19), 1.5)
    assert abs(bus.value(x) - bus.truncated_value(x)) < 1e-7
    diff = space.add(bus.gradient(x),
                     space.scale(bus.truncated_oracle(x, "gradient"), -1.0))
    assert space.norm(diff) < 1e-6


def test_lipschitz_continuity_in_x():
    # |B_v(x) - B_v(y)| <= d(x, y): |grad B| = 1
    space, o, v, x = _random_setup("spd:3", 15)
    bus = BusemannFunction(space, o, v)
    rng = np.random.default_rng(16)
    y = space.random_point(x, rng, 0.5)
    assert abs(bus.value(x) - bus.value(y)) <= space.distance(x, y) + 1e-10
