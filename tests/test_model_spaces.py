"""Model spaces: exp/log/distance/transport and curvature bounds."""

import math

import numpy as np
import pytest

from horocurv.errors import ConfigError, InputDomainError
from horocurv.model_spaces import SPD_CURVATURE_MARGIN, Tangent, parse_space
from oracles import (algebraic_sectional_curvature, distance, frame,
                     frame_from_coords, frame_to_coords, log_map,
                     random_tangent, sectional_curvature_sample, sl)

SPACES = {
    "euclidean:3": "euclidean:3",
    "hyperbolic:3,kappa=1.5": "hyperbolic:3,kappa=1.5",
    "spd:3": "spd:3",
    "product": "euclidean:1xhyperbolic:2,kappa=0.8xspd:2",
}


@pytest.fixture(scope="module", params=sorted(SPACES))
def space(request):
    return parse_space(SPACES[request.param])


def test_parse_round_trip(space):
    assert parse_space(space.spec_string()).spec_string() == space.spec_string()


def test_parse_rejects_garbage():
    for bad in ("spd", "euclidean:0", "hyperbolic:2,kappa=1,junk=2", "foo:3"):
        with pytest.raises(ConfigError):
            parse_space(bad)


def test_exp_log_roundtrip(space):
    rng = np.random.default_rng(0)
    o = space.origin()
    for _ in range(10):
        v = random_tangent(space, o, rng)
        x = space.exp_map(o, v)
        w = log_map(space, o, x)
        assert (space.norm(space.add(v, space.scale(w, -1.0)))
                < 1e-8 * (1.0 + space.norm(v)))


def test_log_near_base_point(space):
    # -kappa^2 <x, y> - 1 cancels to rounding noise at d ~ 1e-8 on H^n
    rng = np.random.default_rng(3)
    o = space.origin()
    v = space.random_unit_tangent(o, rng)
    for d in (1e-10, 1e-6):
        w = log_map(space, o, space.exp_map(o, space.scale(v, d)))
        assert space.norm(space.add(w, space.scale(v, -d))) < 1e-4 * d


def test_dist_near_base_point(space):
    # -kappa^2 <x, y> - 1 cancels to rounding noise at d ~ 1e-8 on H^n
    rng = np.random.default_rng(3)
    o = space.origin()
    v = space.random_unit_tangent(o, rng)
    for d in (1e-10, 1e-8, 1e-6, 1e-3):
        x = space.exp_map(o, space.scale(v, d))
        assert abs(distance(space, o, x) - d) < 1e-4 * d


def test_distance_matches_log_norm(space):
    rng = np.random.default_rng(1)
    o = space.origin()
    for _ in range(10):
        x = space.random_point(o, rng, 2.0)
        assert abs(distance(space, o, x)
                   - space.norm(log_map(space, o, x))) < 1e-8


def test_geodesic_unit_speed(space):
    rng = np.random.default_rng(2)
    o = space.origin()
    v = space.random_unit_tangent(o, rng)
    for t in (0.1, 0.7, 1.9):
        x = space.exp_map(o, space.scale(v, t))
        assert abs(distance(space, o, x) - t) < 1e-9 * (1.0 + t)


def test_distance_many_matches_scalar(space):
    rng = np.random.default_rng(3)
    o = space.origin()
    pts = [space.random_point(o, rng, 1.5) for _ in range(8)]
    stacks = [np.stack([p.parts[j] for p in pts])
              for j in range(len(space.factors))]
    y = space.random_point(o, rng, 1.5)
    d = space.distance_many(stacks, y)
    for i, p in enumerate(pts):
        assert abs(d[i] - distance(space, p, y)) < 1e-10 * (1.0 + d[i])


def test_frame_orthonormal(space):
    rng = np.random.default_rng(4)
    x = space.random_point(space.origin(), rng, 1.0)
    dim = space.total_dim
    frame = space.coords_to_tangent(x, np.eye(dim))
    rows = Tangent(space, x, space.insert_axes(frame.parts))
    gram = space.inner(rows, frame)          # (dim, dim), one entry a pair
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-9


@pytest.mark.parametrize("spec,radius", [
    ("hyperbolic:3,kappa=1", 10.0), ("hyperbolic:2,kappa=0.5", 10.0),
    ("spd:3", 4.0), ("spd:4,lambda=2.5", 4.0),
    ("euclidean:1xhyperbolic:2,kappa=0.8xspd:2", 4.0)])
def test_coords_match_materialized_frames(spec, radius):
    # the closed-form to_coords/from_coords against the materialized frames
    # of tests/oracles.py, on a stack of points at distances 0..radius and
    # on each point alone; an error is measured against |vector| * |frame|,
    # the size of the terms each coordinate map sums (raw hyperboloid
    # coordinates at distance 10 are ~cosh(10) ~ 1e4)
    space = parse_space(spec)
    rng = np.random.default_rng(9)
    k, dim = 12, space.total_dim
    dirs = rng.standard_normal((k, dim))
    dirs *= (np.linspace(0.0, radius, k)
             / np.linalg.norm(dirs, axis=-1))[:, None]
    o = space.origin()
    xs = space.exp_map(o, space.coords_to_tangent(o, dirs))
    c = rng.standard_normal((k, dim))

    def check(got, want, size):
        err = np.abs(np.asarray(got) - want).reshape(len(size), -1)
        assert np.all(np.max(err, axis=-1) <= 1e-12 * size)

    parts, coords, sizes, pos = [], [], [], 0
    for f, xf in zip(space.factors, xs.parts):
        cf = c[:, pos:pos + f.dim]
        pos += f.dim
        rows = frame(f, xf).reshape(k, f.dim, -1)
        fsize = np.max(np.linalg.norm(rows, axis=-1), axis=-1)
        v = frame_from_coords(f, xf, cf)
        cv = frame_to_coords(f, xf, v)
        csize = np.linalg.norm(cf, axis=-1) * fsize
        vsize = np.linalg.norm(v.reshape(k, -1), axis=-1) * fsize
        check(f.from_coords(xf, cf), v, csize)
        check(f.to_coords(xf, v), cv, vsize)
        for i in range(k):
            check(f.from_coords(xf[i], cf[i]), v[i], csize[i:i + 1])
            check(f.to_coords(xf[i], v[i]), cv[i], vsize[i:i + 1])
        parts.append(v)
        coords.append(cv)
        sizes.append((csize, vsize))
    # the space's maps assemble the factor maps
    csize, vsize = np.max(sizes, axis=0)
    for got, want in zip(space.coords_to_tangent(xs, c).parts, parts):
        check(got, want, csize)
    check(space.tangent_to_coords(Tangent(space, xs, tuple(parts))),
          np.concatenate(coords, axis=-1), vsize)


def test_parallel_transport_isometry(space):
    rng = np.random.default_rng(5)
    o = space.origin()
    x = space.random_point(o, rng, 1.5)
    u = random_tangent(space, o, rng)
    v = random_tangent(space, o, rng)
    tu = space.parallel_transport(o, x, u)
    tv = space.parallel_transport(o, x, v)
    assert abs(space.inner(tu, tv) - space.inner(u, v)) < 1e-8


def test_exp_differential_matches_fd(space):
    rng = np.random.default_rng(6)
    o = space.origin()
    v = random_tangent(space, o, rng)
    w = random_tangent(space, o, rng)
    y = space.exp_map(o, v)
    d = space.exp_differential(o, v, w, y)
    h = 1e-5
    xp = space.exp_map(o, space.add(v, space.scale(w, h)))
    xm = space.exp_map(o, space.add(v, space.scale(w, -h)))
    fd_coords = (np.asarray(space.tangent_to_coords(log_map(space, y, xp)))
                 - np.asarray(space.tangent_to_coords(log_map(space, y, xm)))
                 ) / (2 * h)
    assert np.max(np.abs(space.tangent_to_coords(d) - fd_coords)) < 1e-5


def test_sectional_curvature_within_bound(space):
    rng = np.random.default_rng(7)
    o = space.origin()
    kappa = space.curvature_lower_bound
    for _ in range(50):
        x = space.random_point(o, rng, 1.0)
        u = random_tangent(space, x, rng)
        v = random_tangent(space, x, rng)
        sec = sectional_curvature_sample(space, x, u, v)
        assert -(kappa ** 2) - 1e-9 <= sec <= 1e-9


def test_hyperbolic_constant_curvature():
    space = parse_space("hyperbolic:3,kappa=1.5")
    rng = np.random.default_rng(8)
    o = space.origin()
    for _ in range(20):
        x = space.random_point(o, rng, 1.0)
        sec = sectional_curvature_sample(
            space, x, random_tangent(space, x, rng),
            random_tangent(space, x, rng))
        assert abs(sec + 1.5 ** 2) < 1e-8


def test_spd_curvature_bound_attained():
    # [DERIVED] default lambda = |alpha|^2_max gives bound 1.05
    # (true extremal sectional curvature -1, SPD_CURVATURE_MARGIN of 5%)
    space = parse_space("spd:3")
    assert abs(space.curvature_lower_bound - 1.05) < 1e-9


@pytest.mark.parametrize("spec", ["spd:2", "spd:3", "spd:4", "spd:3,lambda=4"])
def test_spd_curvature_bound_closed_form(spec):
    # [PAPER] sec >= -max|alpha|^2 / lambda, attained on a root plane
    # span(E_11 - E_22, E_12 + E_21)
    space = parse_space(spec)
    f = space.factors[0]
    x = np.zeros((f.n, f.n))
    x[0, 0], x[1, 1] = 1.0, -1.0
    y = np.zeros((f.n, f.n))
    y[0, 1] = y[1, 0] = 1.0
    sec = algebraic_sectional_curvature(sl(f.n), x, y, f.lam)
    kappa = space.curvature_lower_bound / (1.0 + SPD_CURVATURE_MARGIN)
    assert abs(sec + kappa ** 2) < 1e-12


@pytest.mark.parametrize("n, lam", [(2, "0.5"), (3, "0.3333333333333333"),
                                    (4, "0.25"), (5, "0.2")])
def test_spd_default_lambda_spec_string(n, lam):
    # [PAPER] the default lambda is max|alpha|^2 = 1/n, written as the float
    # 1/n; kappa is then exactly 1 before the margin
    space = parse_space(f"spd:{n}")
    assert space.spec_string() == f"spd:{n},lambda={lam}"
    assert space.curvature_lower_bound == 1.0 + SPD_CURVATURE_MARGIN


def test_spd_lambda_scaling():
    # [DERIVED] kappa scales as 1/sqrt(lambda)
    k1 = parse_space("spd:3,lambda=1").curvature_lower_bound
    k4 = parse_space("spd:3,lambda=4").curvature_lower_bound
    assert abs(k1 / k4 - 2.0) < 1e-9


def test_constant_curvature_only_flag():
    assert parse_space("euclidean:2xhyperbolic:2").constant_curvature_only()
    assert not parse_space("spd:2xeuclidean:1").constant_curvature_only()


_H0 = np.array([0.0, 0.0, 1.0])
_S0 = np.eye(2)


def test_point_projects_single_points():
    space = parse_space("hyperbolic:2,kappa=1xspd:2")
    x = space.point((np.array([0.3, 0.0, 2.0]), 2.0 * _S0))
    assert abs(space.factors[0].minkowski(x.parts[0], x.parts[0]) + 1.0) < 1e-12
    assert abs(np.linalg.det(x.parts[1]) - 1.0) < 1e-12


@pytest.mark.parametrize("parts", [
    (np.stack([_H0, _H0]), _S0),
    (_H0, np.stack([_S0, _S0])),
    (_H0[:-1], _S0),
    (_H0, np.eye(3)),
    (_H0,),
    (np.array([2.0, 0.0, 1.0]), _S0),
    (np.array([0.0, 0.0, -1.0]), _S0),
    (_H0, np.diag([1.0, -1.0])),
], ids=["stacked-hyperboloid", "stacked-spd", "hyperboloid-shape", "spd-shape",
        "missing-factor", "spacelike", "past-sheet", "not-positive-definite"])
def test_point_rejects_invalid_parts(parts):
    # project_point accepts stacks; SymmetricSpace.point must still take
    # exactly one valid point per factor
    with pytest.raises(InputDomainError):
        parse_space("hyperbolic:2,kappa=1xspd:2").point(parts)


@pytest.mark.parametrize("kappa", [1.0, 1.5])
@pytest.mark.parametrize("d", [19.0, 25.0, 35.0])
def test_hyperbolic_far_exp_lands_on_sheet(kappa, d):
    # beyond kappa d ~ 18.5 Q(x, x) = -1/kappa^2 cancels to rounding noise
    # of the cosh(kappa d)-sized coordinates; exp_map must still accept the
    # point and put it on the sheet
    space = parse_space(f"hyperbolic:3,kappa={kappa}")
    f = space.factors[0]
    o = space.origin()
    u = np.random.default_rng(19).standard_normal((200, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = space.exp_map(o, space.coords_to_tangent(o, d * u)).parts[0]
    size = np.sum(x * x, axis=-1)
    assert np.max(np.abs(f.minkowski(x, x) + kappa ** -2) / size) <= 1e-12
    assert np.max(np.abs(f.dist(x, o.parts[0]) - d)) <= 1e-12 * d
    spatial = x[:, :-1] / np.linalg.norm(x[:, :-1], axis=1, keepdims=True)
    assert np.max(np.abs(spatial - u)) <= 1e-12
