"""Hypersurfaces: grids, fundamental forms, integration, volumes."""

import math

import numpy as np
import pytest

from horocurv import hypersurface as hs
from horocurv.errors import (ChartDegeneracyError, ConfigError,
                             InputDomainError, UnsupportedVolumeError)
from horocurv.hypersurface import (Hypersurface, RadiusProfile, ball_volume,
                                   geodesic_sphere, parse_grid, parse_surface,
                                   radial_graph)
from horocurv.model_spaces import parse_space
from oracles import distance, log_map


@pytest.fixture(scope="module")
def e3():
    return parse_space("euclidean:3")


@pytest.fixture(scope="module")
def h3():
    return parse_space("hyperbolic:3,kappa=1")


def test_parse_grid():
    assert parse_grid("64x128", 2) == [64, 128]
    assert parse_grid("8^4", 4) == [8, 8, 8, 8]
    for bad, n in (("64x128", 4), ("8^3", 4), ("abc", 2), ("0x8", 2),
                   ("4x0", 2), ("0^4", 4)):
        with pytest.raises(ConfigError):
            parse_grid(bad, n)


def test_parse_surface_grammar():
    p = parse_surface("geodesic-sphere:r=0.5")
    assert p.base == 0.5 and p.amp == 0.0
    p = parse_surface("radial-graph:base=1,mode=latitude,amp=0.2")
    assert (p.base, p.mode, p.amp) == (1.0, "latitude", 0.2)
    assert parse_surface(p.spec()).spec() == p.spec()
    with pytest.raises(ConfigError):
        parse_surface("radial-graph:base=1,mode=zigzag,amp=0.2")
    with pytest.raises(InputDomainError):
        RadiusProfile(-1.0)
    with pytest.raises(InputDomainError):
        RadiusProfile(1.0, "coord", 1.5)


def test_euclidean_sphere_area_and_forms(e3):
    # [TRIVIAL] unit sphere: area 4pi, A == identity, GK == 1, H == 2
    M = geodesic_sphere(e3, e3.origin(), 1.0, [16, 32])
    assert abs(M.integrate("area") / (4 * math.pi) - 1) < 1e-6
    d = M.grid_forms()[40]
    assert np.max(np.abs(d.a - np.eye(2))) < 1e-6
    assert abs(d.GK - 1.0) < 1e-6
    assert abs(d.H - 2.0) < 1e-6
    assert d.sym_residual < 1e-6


def test_h3_sphere_closed_forms(h3):
    # [DERIVED] Jacobi fields: A = coth(r) Id, total curvature 4pi cosh^2(r)
    r = 1.0
    M = geodesic_sphere(h3, h3.origin(), r, [24, 48])
    coth = math.cosh(r) / math.sinh(r)
    d = M.grid_forms()[100]
    assert np.max(np.abs(d.a - coth * np.eye(2))) < 1e-4
    tc = M.integrate("total_curvature")
    assert abs(tc / (4 * math.pi * math.cosh(r) ** 2) - 1) < 5e-3
    # umbilic: willmore == total curvature
    assert abs(M.integrate("willmore") / tc - 1) < 1e-9


def test_umbilic_consistency(h3):
    # constant-curvature geodesic spheres: ||A - (trA/n) Id|| <= 1e-4
    M = geodesic_sphere(h3, h3.origin(), 0.7, [12, 24])
    for node in range(0, M.size, 37):
        a = M.grid_forms()[node].a
        dev = a - np.trace(a) / 2.0 * np.eye(2)
        assert np.max(np.abs(dev)) < 1e-4


def test_outward_orientation(h3):
    # <nu, radial> > 0 on starshaped surfaces
    M = radial_graph(h3, h3.origin(), 1.0, "coord", 0.3, [12, 24])
    space = h3
    o = h3.origin()
    for node in range(0, M.size, 41):
        d = M.grid_forms()[node]
        x, nu = d.x, d.nu
        radial = log_map(space, o, x)   # tangent at o; transport to x
        radial_x = space.parallel_transport(o, x, radial)
        assert space.inner(nu, radial_x) > 0.0


def test_grid_refinement_contract(h3):
    # doubling resolution changes the integrals by < 4x the prior change
    vals = []
    for k in (8, 16, 32):
        M = geodesic_sphere(h3, h3.origin(), 1.0, [k, 2 * k])
        vals.append((M.integrate("area"), M.integrate("total_curvature")))
    for i in (0, 1):
        c1 = abs(vals[1][i] - vals[0][i])
        c2 = abs(vals[2][i] - vals[1][i])
        assert c2 < 4.0 * c1 + 1e-12


def test_diameter_sphere(e3, h3):
    # [TRIVIAL] geodesic sphere radius r has extrinsic diameter 2r
    for space, r in ((e3, 1.0), (h3, 0.8)):
        M = geodesic_sphere(space, space.origin(), r, [16, 32])
        assert abs(M.diameter_extrinsic() / (2 * r) - 1) < 1e-3


def test_diameter_egg_shape(e3):
    # [DERIVED] r = 1 + 0.3 cos(polar): by rotational symmetry the extremal
    # pair lies in a meridian plane; dense 2-D search is the oracle
    M = radial_graph(e3, e3.origin(), 1.0, "coord", 0.3, [32, 64])
    psi = np.linspace(0.0, 2 * math.pi, 2000, endpoint=False)
    r = 1.0 + 0.3 * np.cos(psi)
    pts = np.stack([r * np.cos(psi), r * np.sin(psi)], axis=1)
    oracle = math.sqrt(max(
        np.max(np.sum((pts - p) ** 2, axis=1)) for p in pts))
    assert abs(M.diameter_extrinsic() - oracle) < 2e-2


def test_diameter_is_cached(h3, monkeypatch):
    # total-curvature, Willmore and Jacobian checks each read D on the same
    # surface: the grid search runs once, a repeat is the cached float
    M = geodesic_sphere(h3, h3.origin(), 1.0, [8, 16])
    calls = []
    many = h3.distance_many
    monkeypatch.setattr(h3, "distance_many",
                        lambda *args: calls.append(1) or many(*args))
    first = M.diameter_extrinsic()
    assert calls
    calls.clear()
    second = M.diameter_extrinsic()
    assert calls == []
    assert isinstance(second, float) and second == first


def test_constant_graph_equals_sphere(e3):
    Ms = geodesic_sphere(e3, e3.origin(), 0.9, [8, 16])
    Mg = radial_graph(e3, e3.origin(), 0.9, "coord", 0.0, [8, 16])
    assert abs(Ms.integrate("area") - Mg.integrate("area")) < 1e-12


def test_ball_volume_closed_forms(e3, h3):
    # [TRIVIAL] E3: 4pi r^3/3 ; [DERIVED] H3: pi (sinh(2r) - 2r)
    v = ball_volume(e3, e3.origin(), 1.0)
    assert abs(v / (4 * math.pi / 3) - 1) < 1e-4
    v = ball_volume(h3, h3.origin(), 1.0)
    assert abs(v / (math.pi * (math.sinh(2.0) - 2.0)) - 1) < 1e-3


def test_ball_volume_monotone(e3):
    vols = [ball_volume(e3, e3.origin(), r, radial_nodes=12,
                        grid_counts=[12, 24]) for r in (0.5, 1.0, 1.5)]
    assert vols[0] < vols[1] < vols[2]


def test_ball_volume_rejects_spd():
    space = parse_space("spd:3")
    with pytest.raises(UnsupportedVolumeError):
        ball_volume(space, space.origin(), 0.5)


def _diameter_by_rows(M):
    """The diameter search with its dense part one subsample row per
    distance call: (diameter, anchor node of the first sweep)."""
    pts = M.points_stack()
    idx = np.arange(0, M.size, max(1, M.size // hs._DIAM_SUBSAMPLE))
    sub = pts[idx].parts
    best, pair = 0.0, (0, 0)
    for i in idx:
        d = M.space.distance_many(sub, pts[i])
        j = int(np.argmax(d))
        if d[j] > best:
            best, pair = float(d[j]), (int(i), int(idx[j]))
    a, b = pair
    anchor = a
    for _ in range(hs._DIAM_SWEEPS):
        d = M.space.distance_many(pts.parts, pts[a])
        b_new = int(np.argmax(d))
        if float(d[b_new]) <= best + 1e-15:
            break
        best, b = float(d[b_new]), b_new
        a, b = b, a
    return best, anchor


@pytest.mark.parametrize("space,surface,grid", [
    ("euclidean:3", "geodesic-sphere:r=1", "16x32"),
    ("hyperbolic:3,kappa=1", "geodesic-sphere:r=1", "8x16"),
    ("spd:3", "geodesic-sphere:r=0.5", "3^4"),
    ("euclidean:1xhyperbolic:2,kappa=0.8",
     "radial-graph:base=1,mode=coord,amp=0.3", "16x32"),
], ids=["e3-sphere", "h3-sphere", "spd-sphere", "e1xh2-graph"])
@pytest.mark.parametrize("rows", [None, 5], ids=["default", "5-rows"])
def test_blocked_diameter_matches_row_loop(space, surface, grid, rows,
                                           monkeypatch):
    # the dense search over blocks of whole rows is the row loop bit for
    # bit, and on the many antipodal ties of a sphere it keeps the loop's
    # first maximal pair: the sweeps start from the same anchor node
    space = parse_space(space)
    M = Hypersurface(space, space.origin(), parse_surface(surface),
                     parse_grid(grid, space.total_dim - 1))
    reference, anchor = _diameter_by_rows(M)
    if rows is not None:            # blocks of 5 rows; a ragged last block
        subsample = len(range(0, M.size, max(1, M.size // hs._DIAM_SUBSAMPLE)))
        assert subsample % rows
        monkeypatch.setattr(hs, "_DIAM_BLOCK_PAIRS", rows * subsample + 5)
    ys = []
    many = space.distance_many
    monkeypatch.setattr(space, "distance_many",
                        lambda xs, y: ys.append(y) or many(xs, y))
    assert M.diameter_extrinsic() == reference
    sweep = [y for y in ys if y.parts[0].ndim == space.factors[0].point_ndim]
    assert all(np.array_equal(p, q) for p, q
               in zip(sweep[0].parts, M.points_stack()[anchor].parts))


def test_euclidean_dist_is_norm_bitwise():
    # the explicit sum of squares is np.linalg.norm(axis=-1) bit for bit
    rng = np.random.default_rng(7)
    for dim in range(1, 8):
        f = parse_space(f"euclidean:{dim}xhyperbolic:2").factors[0]
        xs, y = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(
            -8, 8, size=(300, 1)), rng.normal(size=dim)
        assert np.array_equal(f.dist(xs, y), np.linalg.norm(xs - y, axis=-1))


def _volume_by_spheres(space, r, radial_nodes, grid_counts):
    """ball_volume as one geodesic sphere per radial node."""
    t, wt = np.polynomial.legendre.leggauss(radial_nodes)
    total = 0.0
    for s, w in zip(0.5 * r * (t + 1.0), wt):
        area = geodesic_sphere(space, space.origin(), float(s),
                               grid_counts).integrate("area")
        total += 0.5 * r * w * area
    return total


@pytest.mark.parametrize("spec,r,grid", [
    ("euclidean:3", 1.0, [4, 8]),
    ("hyperbolic:3,kappa=1", 0.5, [4, 8]),
    ("hyperbolic:3,kappa=1", 1.0, [6, 12]),
    ("euclidean:1xhyperbolic:2,kappa=0.8", 0.7, [8, 16]),
])
@pytest.mark.parametrize("block", [None, 7], ids=["default", "ragged"])
def test_stacked_ball_volume_matches_sphere_loop(spec, r, grid, block,
                                                 monkeypatch):
    # the (radial node x grid node) stack gives every sphere's area and the
    # radial sum bit for bit, also when chart blocks split spheres
    space = parse_space(spec)
    reference = _volume_by_spheres(space, r, 24, grid)
    if block is not None:
        monkeypatch.setattr(hs, "_BLOCK", block)
    assert ball_volume(space, space.origin(), r, grid_counts=grid) == reference


@pytest.mark.parametrize("block,calls", [(None, 1), (64, 3)])
def test_ball_volume_one_chart_per_block(h3, block, calls, monkeypatch):
    # 24 radial spheres of 32 nodes: one chart call per block of the
    # 768-node stack, not one per radial node
    if block is not None:
        monkeypatch.setattr(hs, "_BLOCK", block)     # 2n * 64 = 256 nodes
    seen = []
    chart = Hypersurface.chart
    monkeypatch.setattr(Hypersurface, "chart",
                        lambda self, *a, **k: seen.append(1) or chart(self, *a, **k))
    ball_volume(h3, h3.origin(), 0.5, grid_counts=[4, 8])
    assert len(seen) == calls


def test_radius_profile_stack():
    p = RadiusProfile(np.array([0.5, 1.0, 2.0]))
    e = np.tile([1.0, 0.0, 0.0], (3, 1))
    r, dr = p(e, np.zeros((3, 3, 2)))
    assert np.array_equal(r, [0.5, 1.0, 2.0]) and dr.shape == (3, 2)
    with pytest.raises(InputDomainError):
        RadiusProfile(np.array([0.5, 0.0]))


def test_spd_sphere_mesh_injective():
    # [DERIVED] embedding injectivity audit: min pairwise distance > 0
    space = parse_space("spd:3")
    M = geodesic_sphere(space, space.origin(), 0.5, [4, 4, 4, 6])
    pts = [M.embed(p) for p in M.params[::7]]
    dmin = min(distance(space, p, q)
               for i, p in enumerate(pts) for q in pts[i + 1:])
    assert dmin > 1e-3


def test_product_space_surface(e3):
    space = parse_space("hyperbolic:2,kappa=1xeuclidean:1")
    M = geodesic_sphere(space, space.origin(), 0.75, [16, 32])
    area = M.integrate("area")
    assert area > 0.0
    d = M.grid_forms()[50]
    assert d.sym_residual < 1e-6
    assert abs(space.norm(d.nu) - 1.0) < 1e-9


def test_integrate_unknown_selector(e3):
    M = geodesic_sphere(e3, e3.origin(), 1.0, [8, 16])
    with pytest.raises(ConfigError):
        M.integrate("perimeter")


def test_grid_spec_round_trip(e3):
    M = geodesic_sphere(e3, e3.origin(), 1.0, [16, 32])
    assert parse_grid(M.grid_spec(), 2) == [16, 32]
    space = parse_space("spd:3")
    Mh = geodesic_sphere(space, space.origin(), 0.5, [4] * 4)
    assert parse_grid(Mh.grid_spec(), 4) == [4] * 4


@pytest.mark.parametrize("spec,surface,grid", [
    ("hyperbolic:3,kappa=1", "radial-graph:base=1,mode=latitude,amp=0.2",
     [8, 16]),
    ("spd:3", "geodesic-sphere:r=0.5", [3] * 4),
], ids=["h3-graph", "spd3-sphere"])
def test_point_evaluators_agree(spec, surface, grid):
    # embed and chart evaluate one parameter point, points_stack the whole
    # grid as one stack, all through `_evaluate`; they give the same point
    space = parse_space(spec)
    M = Hypersurface(space, space.origin(), parse_surface(surface), grid)
    stacks = M.points_stack().parts
    for i, p in enumerate(M.params):
        for x in (M.embed(p), M.chart(p)["x"]):
            for part, stack in zip(x.parts, stacks):
                assert part.shape == stack[i].shape
                assert np.max(np.abs(part - stack[i])) <= 1e-14


def test_spd_point_matches_one_row_stack_bitwise():
    # a point and a one-row stack take the same arithmetic (one array power
    # in the SPD projection), so their surface points agree bit for bit
    space = parse_space("spd:3")
    M = geodesic_sphere(space, space.origin(), 0.5, [6] * 4)
    rng = np.random.default_rng(0)
    q = rng.uniform(0.0, math.pi, (2000, 4)) * [1.0, 1.0, 1.0, 2.0]
    for p in q:
        one, row = M._evaluate(p)[0], M._evaluate(p[None])[0]
        assert np.array_equal(one.parts[0], row.parts[0][0])


@pytest.mark.parametrize("spec,surface,grid", [
    ("euclidean:3", "radial-graph:base=1,mode=coord,amp=0.3", [8, 16]),
    ("hyperbolic:3,kappa=1", "radial-graph:base=1,mode=latitude,amp=0.2",
     [8, 16]),
    ("spd:3", "geodesic-sphere:r=0.5", [3] * 4),
    ("hyperbolic:2,kappa=1xeuclidean:1", "geodesic-sphere:r=0.75", [6, 12]),
], ids=["e3-graph", "h3-graph", "spd3-sphere", "product"])
def test_batched_forms_match_off_grid(spec, surface, grid):
    # the grid stacks and the off-grid path (a stack of one) are one
    # implementation: node i of the stacks equals the forms at params[i]
    space = parse_space(spec)
    M = Hypersurface(space, space.origin(), parse_surface(surface), grid)
    stack = M.grid_forms()
    assert stack.a.shape == (M.size, M.n, M.n)
    for i in range(M.size):
        node = stack[i]
        off, _ = M.fundamental_forms(M.params[i], M.chart(M.params[i]))
        assert off.area_weight == 0.0
        assert node.area_weight == M.area_weights()[i]
        for name in ("a", "nu_coords", "onb_coords", "GK", "H"):
            a, b = getattr(node, name), getattr(off, name)
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.max(np.abs(np.asarray(a) - b)) <= 1e-12 * scale, name
        for a, b in zip(node.x.parts, off.x.parts):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("spec,r,gk", [
    ("euclidean:3", 0.7, 1.0 / 0.7 ** 2),
    ("hyperbolic:3,kappa=1", 1.0, 1.0 / math.tanh(1.0) ** 2),
    ("hyperbolic:3,kappa=1", 0.3, 1.0 / math.tanh(0.3) ** 2),
], ids=["e3-r0.7", "h3-r1", "h3-r0.3"])
def test_gauss_curvature_closed_form_every_node(spec, r, gk):
    # [DERIVED] E3 sphere GK = 1/r^2, H3 sphere GK = coth^2 r, at every node
    space = parse_space(spec)
    M = geodesic_sphere(space, space.origin(), r, [12, 24])
    d = M.grid_forms()
    assert np.max(np.abs(d.GK / gk - 1.0)) < 1e-6
    assert np.max(d.sym_residual) < 1e-6 * gk
