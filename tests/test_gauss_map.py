"""Fiber translation G^x_o and the generalized Gauss map."""

import numpy as np
import pytest

from horocurv import verify_harness as vh
from horocurv.busemann import BusemannFunction
from horocurv.errors import InputDomainError
from horocurv.gauss_map import gauss_differential, translate_direction
from horocurv.hypersurface import geodesic_sphere
from horocurv.model_spaces import parse_space
from oracles import log_map, translate_direction_ray

SPECS = ["euclidean:3", "hyperbolic:3,kappa=1.5", "spd:3"]


def _setup(spec, seed, radius=1.5):
    space = parse_space(spec)
    rng = np.random.default_rng(seed)
    o = space.origin()
    x = space.random_point(o, rng, radius)
    u = space.random_unit_tangent(x, rng)
    return space, o, x, u


@pytest.mark.parametrize("spec", SPECS)
def test_defining_equation(spec):
    # grad B_{G^x_o(u)}(x) == u, gated at 1e-5 by callers; verify tighter,
    # and that the returned residual is that of the translated direction
    space, o, x, u = _setup(spec, 0)
    v, resid = translate_direction(space, o, x, u)
    assert abs(space.norm(v) - 1.0) < 1e-10
    grad = BusemannFunction(space, o, v).gradient(x)
    assert space.norm(space.add(grad, space.scale(u, -1.0))) == resid < 1e-7


def test_base_point_sign_convention():
    # grad B_v(o) = -v, so G^o_o(u) = -u (matches Euclidean v = -u)
    space, o, _, _ = _setup("spd:3", 1)
    rng = np.random.default_rng(2)
    u = space.random_unit_tangent(o, rng)
    v, _ = translate_direction(space, o, o, u)
    assert space.norm(space.add(v, u)) < 1e-9


def test_euclidean_translation_is_negation():
    # [TRIVIAL] Euclidean Busemann gradient is constant: v = -u everywhere
    space, o, x, u = _setup("euclidean:3", 3)
    v, _ = translate_direction(space, o, x, u)
    assert np.allclose(np.asarray(space.tangent_to_coords(v)),
                       -np.asarray(space.tangent_to_coords(u)))


@pytest.mark.parametrize("spec", SPECS)
def test_on_ray_anchor(spec):
    # x = exp_o(r v), u = outgoing ray direction at x  =>  G^x_o(u) = -v
    space = parse_space(spec)
    rng = np.random.default_rng(4)
    o = space.origin()
    v = space.random_unit_tangent(o, rng)
    x = space.exp_map(o, space.scale(v, 1.2))
    u = space.scale(log_map(space, x, o), -1.0 / 1.2)   # unit, away from o
    got, _ = translate_direction(space, o, x, u)
    assert space.norm(space.add(got, v)) < 1e-7


@pytest.mark.parametrize("spec", SPECS)
def test_closed_form_matches_ray_oracle(spec):
    space, o, x, u = _setup(spec, 5)
    v, _ = translate_direction(space, o, x, u)
    v_ray = translate_direction_ray(space, o, x, u, tol=1e-8)
    assert space.norm(space.add(v, space.scale(v_ray, -1.0))) < 1e-6


def test_ray_oracle_mixed_product():
    # looser tolerance on mixed products (slow exponential modes; see ledger)
    space, o, x, u = _setup("euclidean:1xhyperbolic:2,kappa=0.8xspd:2", 6)
    v, _ = translate_direction(space, o, x, u)
    v_ray = translate_direction_ray(space, o, x, u, tol=1e-5)
    assert space.norm(space.add(v, space.scale(v_ray, -1.0))) < 1e-5


def test_non_unit_direction_rejected():
    space, o, x, u = _setup("euclidean:3", 7)
    with pytest.raises(InputDomainError):
        translate_direction(space, o, x, space.scale(u, 1.5))


@pytest.mark.parametrize("spec", SPECS)
def test_lipschitz_audit_passes(spec):
    rep = vh.lipschitz_check(parse_space(spec), parse_space(spec).origin(),
                             samples=100, radius=1.0, seed=42)
    assert rep.passed, rep.details
    assert rep.lhs <= 1.0 + 1e-4


@pytest.mark.parametrize("size", [0, -1])
def test_lipschitz_audit_of_no_sample_is_input_error(size):
    # an audit of no sample proves nothing: rejected, not passed
    space = parse_space("spd:3")
    with pytest.raises(InputDomainError):
        vh.lipschitz_check(space, space.origin(), samples=size, seed=1)


@pytest.mark.parametrize("radius", [0.0, -1.0])
def test_lipschitz_check_of_no_ball_is_input_error(radius):
    space = parse_space("spd:3")
    with pytest.raises(InputDomainError):
        vh.lipschitz_check(space, space.origin(), samples=10, radius=radius)


def test_lipschitz_euclidean_ratio_exactly_one():
    # [PAPER] flat case: translation is an isometry of directions
    space = parse_space("euclidean:3")
    rep = vh.lipschitz_check(space, space.origin(), samples=100, seed=1)
    assert abs(rep.lhs - 1.0) < 1e-14
    assert abs(rep.details["worst_lower_ratio"] - 1.0) < 1e-14


def test_gauss_map_on_sphere_nodes():
    # S_M(x) = G^x_o(nu(x)) on a Euclidean sphere: v = -nu-coords
    space = parse_space("euclidean:3")
    o = space.origin()
    M = geodesic_sphere(space, o, 1.0, [8, 16])
    for node in (0, 37, 100):
        d = M.grid_forms()[node]
        nu = d.nu
        v, _ = translate_direction(space, o, d.x, nu)
        assert np.allclose(np.asarray(space.tangent_to_coords(v)),
                           -np.asarray(space.tangent_to_coords(nu)), atol=1e-9)


def test_gauss_differential_euclidean_sphere():
    # [DERIVED] dS_M on the unit Euclidean sphere has singular values 1
    space = parse_space("euclidean:3")
    o = space.origin()
    M = geodesic_sphere(space, o, 1.0, [8, 16])
    p = M.params[20]
    _, stencil = M.fundamental_forms(p, M.chart(p))
    w, ok = gauss_differential(space, o, stencil)
    assert ok
    assert w.shape == (3, 2)
    s = np.linalg.svd(w, compute_uv=False)
    assert np.max(np.abs(s - 1.0)) < 1e-6
