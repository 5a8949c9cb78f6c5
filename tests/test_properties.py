"""Property tests: stacked factor operations equal their per-point results.

Every factor operation that accepts stacks (project_point, exp, dexp,
transport, dist, bus_value, bus_grad, bus_hess, to_coords, from_coords)
is run on random stacks of 1-8 points and compared with the same call
point by point, and a Busemann function of a stack of directions is
compared with one function per direction.  The Gauss-map translation,
inner products and norms of a stack must equal their one-pair results
bit for bit.  The exp differential is also checked against
central differences of exp (and, on SPD, against scipy's expm_frechet as
an independent oracle) and parallel transport as an isometry.  Examples
are derandomized so the suite stays deterministic.

`derandomize=True` alone does not pin the examples: Hypothesis (6.131 and
later) also draws literals it mines from the source of every loaded local
module, so a new constant anywhere in src/ or tests/ would change them.
The pool of mined literals is therefore emptied before any test runs; the
built-in constants Hypothesis ships with still take part.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from horocurv.busemann import BusemannFunction  # noqa: E402
from horocurv.gauss_map import translate_direction  # noqa: E402
from horocurv.model_spaces import parse_space  # noqa: E402
from oracles import distance, log_map  # noqa: E402

try:
    from hypothesis.internal.conjecture import providers as _providers
except ImportError:            # no mined-literal pool in this version
    _providers = None
if hasattr(_providers, "_get_local_constants"):
    _providers._get_local_constants = _providers.Constants

SPECS = ["euclidean:3", "hyperbolic:3,kappa=1.5", "spd:3",
         "euclidean:1xhyperbolic:2,kappa=0.8xspd:2"]
REL = 1e-12
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None)

_SPACES = {spec: parse_space(spec) for spec in SPECS}
_COORD = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _close(stacked, single):
    single = np.asarray(single, dtype=float)
    scale = max(1.0, float(np.max(np.abs(single))))
    assert np.max(np.abs(np.asarray(stacked) - single)) <= REL * scale


@st.composite
def _setups(draw):
    """(space, base coords (dim,), tangent coords (k, dim), ray coords (dim,))."""
    space = _SPACES[draw(st.sampled_from(SPECS))]
    dim = space.total_dim
    k = draw(st.integers(1, 8))
    return (space, draw(arrays(float, dim, elements=_COORD)),
            draw(arrays(float, (k, dim), elements=_COORD)),
            draw(arrays(float, dim, elements=_COORD)))


def _points(space, c):
    """Points exp_o(c) for a coordinate stack c (..., dim): factor stacks."""
    o = space.origin()
    return space.exp_map(o, space.coords_to_tangent(o, c))


@PROPERTY
@given(_setups())
def test_space_stack_matches_points(setup):
    space, c0, cs, cv = setup
    x = _points(space, c0)
    xs = _points(space, cs)
    vs = space.coords_to_tangent(x, cs)
    ys = space.exp_map(x, vs)
    back = space.tangent_to_coords(vs)
    o = space.origin()
    v = space.coords_to_tangent(o, cv)
    nrm = space.norm(v)
    bus = (BusemannFunction(space, o, space.scale(v, 1.0 / nrm))
           if nrm > 1e-3 else None)
    dists = space.distance_many(xs.parts, x)
    values = bus.value(xs) if bus else None
    for i, ci in enumerate(cs):
        xi = _points(space, ci)
        vi = space.coords_to_tangent(x, ci)
        for a, b in zip(xs.parts, xi.parts):
            _close(a[i], b)
        for a, b in zip(vs.parts, vi.parts):
            _close(a[i], b)
        for a, b in zip(ys.parts, space.exp_map(x, vi).parts):
            _close(a[i], b)
        _close(back[i], space.tangent_to_coords(vi))
        _close(dists[i], distance(space, xi, x))
        if bus:
            _close(values[i], bus.value(xi))


@PROPERTY
@given(_setups())
def test_factor_stacks_over_base_points(setup):
    # stacked base points as well as stacked tangents and coordinates
    space, _, cs, cv = setup
    xs = _points(space, cs)
    k = len(cs)
    pos = 0
    for f, xf, of in zip(space.factors, xs.parts, space.origin().parts):
        cf = cs[:, pos:pos + f.dim][::-1].copy()
        u = f.from_coords(of, cv[pos:pos + f.dim])
        pos += f.dim
        vf = f.from_coords(xf, cf)
        yf = f.project_point(f.exp(xf, vf))
        eye = np.eye(f.dim)
        frames = f.from_coords(np.expand_dims(xf, -f.point_ndim - 1),
                               np.broadcast_to(eye, (k, f.dim, f.dim)))
        coords = f.to_coords(xf, vf)
        dists = f.dist(xf, xf[0])
        nrm = np.sqrt(max(f.inner(of, u, u), 0.0))
        data = f.bus_data(of, u / nrm) if nrm > 1e-3 else None
        values = f.bus_value(data, xf) if data else None
        grads = f.bus_grad(data, xf) if data else None
        hessians = f.bus_hess(data, xf) if data else None
        for i in range(k):
            vi = f.from_coords(xf[i], cf[i])
            _close(vf[i], vi)
            _close(yf[i], f.project_point(f.exp(xf[i], vi)))
            _close(frames[i], f.from_coords(xf[i], eye))
            _close(coords[i], f.to_coords(xf[i], vi))
            _close(coords[i], cf[i])
            _close(dists[i], f.dist(xf[i], xf[0]))
            if values is not None:
                _close(values[i], f.bus_value(data, xf[i]))
                _close(grads[i], f.bus_grad(data, xf[i]))
                _close(hessians[i], f.bus_hess(data, xf[i]))


@PROPERTY
@given(st.sampled_from(["hyperbolic:3,kappa=1", "hyperbolic:2,kappa=0.5"]),
       arrays(float, (8, 3), elements=_COORD), st.floats(0.0, 10.0))
def test_hyperbolic_frame_boost_orthonormal(spec, dirs, dist):
    # the frame vectors from_coords(x, I), the boost of the standard basis,
    # are Minkowski-orthonormal and tangent up to distance 10; raw
    # coordinates there are ~cosh(10) ~ 1e4, so residuals are measured
    # against the size of the vectors paired
    space = parse_space(spec)
    f = space.factors[0]
    c = dirs[:, :f.dim]
    nrm = np.linalg.norm(c, axis=-1, keepdims=True)
    c = np.where(nrm > 1e-6, c / np.maximum(nrm, 1e-6), np.eye(f.dim)[0])
    xs = _points(space, dist * c).parts[0]
    frames = f.from_coords(xs[..., None, :], np.eye(f.dim))
    gram = f.minkowski(frames[..., :, None, :], frames[..., None, :, :])
    size = np.linalg.norm(frames, axis=-1)
    scale = 1.0 + size[..., :, None] * size[..., None, :]
    assert np.max(np.abs(gram - np.eye(f.dim)) / scale) <= 1e-10
    tangency = f.minkowski(frames, xs[..., None, :])
    assert np.max(np.abs(tangency)
                  / (size * np.linalg.norm(xs, axis=-1)[..., None])) <= 1e-10


def _coords(space, t):
    return np.asarray(space.tangent_to_coords(t))


@PROPERTY
@given(_setups())
def test_dexp_transport_stacks_match_points(setup):
    # exp differential at one base point for a stack of v (broadcast against
    # one w), transport from a stack of points to one point
    space, c0, cs, cv = setup
    x = _points(space, c0)
    vs = space.coords_to_tangent(x, cs)
    w = space.coords_to_tangent(x, cv)
    d = space.exp_differential(x, vs, w, space.exp_map(x, vs))
    d_coords = _coords(space, d)
    xs = _points(space, cs)
    us = space.coords_to_tangent(xs, cs[::-1].copy())
    moved = _coords(space, space.parallel_transport(xs, x, us))
    for i, ci in enumerate(cs):
        vi = space.coords_to_tangent(x, ci)
        di = space.exp_differential(x, vi, w, space.exp_map(x, vi))
        for a, b in zip(d.parts, di.parts):
            _close(a[i], b)
        _close(d_coords[i], _coords(space, di))
        xi = _points(space, ci)
        ui = space.coords_to_tangent(xi, cs[::-1][i])
        _close(moved[i], _coords(space, space.parallel_transport(xi, x, ui)))


@PROPERTY
@given(_setups())
def test_dexp_matches_central_difference(setup):
    space, c0, cs, cv = setup
    x = _points(space, c0)
    v = space.coords_to_tangent(x, cs[0])
    w = space.coords_to_tangent(x, cv)
    y = space.exp_map(x, v)
    h = 1e-5

    def log_coords(s):
        xs = space.exp_map(x, space.add(v, space.scale(w, s)))
        return _coords(space, log_map(space, y, xs))

    fd = (log_coords(h) - log_coords(-h)) / (2.0 * h)
    exact = _coords(space, space.exp_differential(x, v, w, y))
    assert np.max(np.abs(exact - fd)) <= 1e-6 * (1.0 + np.max(np.abs(exact)))


@PROPERTY
@given(_setups())
def test_transport_is_isometry(setup):
    # frames are orthonormal, so inner products are coordinate dot products
    space, c0, cs, cv = setup
    x = _points(space, c0)
    xs = _points(space, cs)
    a = cs[::-1].copy()
    b = np.broadcast_to(cv, cs.shape)
    ta = _coords(space, space.parallel_transport(
        xs, x, space.coords_to_tangent(xs, a)))
    tb = _coords(space, space.parallel_transport(
        xs, x, space.coords_to_tangent(xs, b)))
    before = np.stack([np.sum(a * a, -1), np.sum(a * b, -1), np.sum(b * b, -1)])
    after = np.stack([np.sum(ta * ta, -1), np.sum(ta * tb, -1),
                      np.sum(tb * tb, -1)])
    assert np.max(np.abs(after - before)) <= 1e-12 * (1.0 + np.max(before))


@PROPERTY
@given(_setups())
def test_direction_stacked_busemann(setup):
    # one function of D directions against D functions of one direction:
    # the (direction x point) table, and paired values and gradients; on
    # the product every odd direction has one factor of weight 0
    space, _, cs, cv = setup
    o = space.origin()
    dirs = cs[::-1] + cv
    if len(space.factors) > 1:
        ends = np.cumsum([0] + [f.dim for f in space.factors])
        for i in range(1, len(dirs), 2):
            j = (i // 2) % len(space.factors)
            dirs[i, ends[j]:ends[j + 1]] = 0.0
    nrm = np.linalg.norm(dirs, axis=-1, keepdims=True)
    dirs = np.where(nrm > 1e-3, dirs / np.maximum(nrm, 1e-3),
                    np.eye(space.total_dim)[0])
    bus = BusemannFunction(space, o, space.coords_to_tangent(o, dirs))
    if len(space.factors) > 1 and len(dirs) > 1:
        assert any(c[1] == 0.0 for c in bus.weights)
    xs = _points(space, cs)
    table = bus[:, None].value(xs)
    values = bus.value(xs)
    grads = bus.gradient(xs)
    assert table.shape == (len(dirs), len(cs))
    for i, d in enumerate(dirs):
        one = BusemannFunction(space, o, space.coords_to_tangent(o, d))
        for j, cj in enumerate(cs):
            _close(table[i, j], one.value(_points(space, cj)))
        xi = _points(space, cs[i])
        _close(values[i], one.value(xi))
        for a, b in zip(grads.parts, one.gradient(xi).parts):
            _close(a[i], b)


def _directions(space, cs, cv):
    """Coordinate rows cs[::-1] + cv, a factor zeroed on every odd row of a
    product; a row near 0 is replaced by the first basis vector."""
    dirs = cs[::-1] + cv
    if len(space.factors) > 1:
        ends = np.cumsum([0] + [f.dim for f in space.factors])
        for i in range(1, len(dirs), 2):
            j = (i // 2) % len(space.factors)
            dirs[i, ends[j]:ends[j + 1]] = 0.0
    nrm = np.linalg.norm(dirs, axis=-1, keepdims=True)
    return np.where(nrm > 1e-3, dirs, np.eye(space.total_dim)[0])


@PROPERTY
@given(_setups())
def test_stacked_translation_matches_rows_bitwise(setup):
    # one stacked translate_direction, inner and norm on D (point, direction)
    # pairs against D one-pair calls, bit for bit; on the product every odd
    # direction has a factor of weight 0
    space, _, cs, cv = setup
    o = space.origin()
    xs = _points(space, cs)
    dirs = _directions(space, cs, cv)
    us = space.unit_tangent(xs, dirs)
    ws = space.coords_to_tangent(xs, cs)
    v, resid = translate_direction(space, o, xs, us)
    inner, norm = space.inner(us, ws), space.norm(ws)
    for i, (ci, di) in enumerate(zip(cs, dirs)):
        xi = _points(space, ci)
        ui = space.unit_tangent(xi, di)
        wi = space.coords_to_tangent(xi, ci)
        vi, ri = translate_direction(space, o, xi, ui)
        for a, b in zip(us.parts + v.parts, ui.parts + vi.parts):
            assert np.array_equal(a[i], b)
        assert resid[i] == ri
        assert inner[i] == space.inner(ui, wi)
        assert norm[i] == space.norm(wi)


_TIES = st.sampled_from(["none", "pair", "all"])


@PROPERTY
@given(arrays(float, 3, elements=st.floats(-1.5, 1.5)), _TIES,
       arrays(float, (3, 3), elements=_COORD),
       arrays(float, (3, 3), elements=_COORD),
       arrays(float, 5, elements=_COORD))
def test_spd_dexp_matches_expm_frechet(lam, ties, rot, e, c0):
    # Daleckii-Krein against scipy's Frechet derivative (an independent
    # algorithm), with exactly repeated eigenvalues of the translated v
    from scipy.linalg import expm_frechet
    from horocurv.numeric_kernel import spd_inv_sqrt
    space = _SPACES["spd:3"]
    f = space.factors[0]
    if ties == "pair":
        lam[1] = lam[0]
    elif ties == "all":
        lam[:] = lam[0]
    lam = lam - lam.mean()
    q, _ = np.linalg.qr(rot + 3.0 * np.eye(3))
    x = _points(space, c0).parts[0]
    xs, xsi = spd_inv_sqrt(x)
    v = xs @ ((q * lam) @ q.T) @ xs
    e = 0.5 * (e + e.T)
    w = xs @ (e - np.trace(e) / 3.0 * np.eye(3)) @ xs
    _, fr = expm_frechet(xsi @ v @ xsi, xsi @ w @ xsi)
    _close(f.dexp(x, v, w), xs @ fr @ xs)
