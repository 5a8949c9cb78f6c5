"""Busemann functions: closed forms vs. the truncated-distance oracle."""

import math

import numpy as np
import pytest

from horocurv.busemann import BusemannFunction
from horocurv.errors import InputDomainError
from horocurv.model_spaces import parse_space


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


def test_value_many_matches_scalar():
    space, o, v, _ = _random_setup("euclidean:1xhyperbolic:2,kappa=0.8xspd:2", 13)
    rng = np.random.default_rng(14)
    bus = BusemannFunction(space, o, v)
    pts = [space.random_point(o, rng, 1.5) for _ in range(6)]
    stacks = [np.stack([p.parts[j] for p in pts])
              for j in range(len(space.factors))]
    vals = bus.value_many(stacks)
    for i, p in enumerate(pts):
        assert abs(vals[i] - bus.value(p)) < 1e-12


def test_lipschitz_continuity_in_x():
    # |B_v(x) - B_v(y)| <= d(x, y): |grad B| = 1
    space, o, v, x = _random_setup("spd:3", 15)
    bus = BusemannFunction(space, o, v)
    rng = np.random.default_rng(16)
    y = space.random_point(x, rng, 0.5)
    assert abs(bus.value(x) - bus.value(y)) <= space.distance(x, y) + 1e-10
