"""Verification pipeline: contact sets, Jacobian bound, inequalities, audits."""

import math

import numpy as np
import pytest

from horocurv import gauss_map, verify_harness as vh
from horocurv.busemann import BusemannFunction
from horocurv.errors import InputDomainError
from horocurv.hypersurface import Hypersurface, geodesic_sphere, radial_graph
from horocurv.model_spaces import Tangent, parse_space
from horocurv.numeric_kernel import op_norm, psd_sqrt


@pytest.fixture(scope="module")
def e3():
    return parse_space("euclidean:3")


@pytest.fixture(scope="module")
def h3():
    return parse_space("hyperbolic:3,kappa=1")


@pytest.fixture(scope="module")
def e3_sphere(e3):
    return geodesic_sphere(e3, e3.origin(), 1.0, [24, 48])


@pytest.fixture(scope="module")
def h3_sphere(h3):
    return geodesic_sphere(h3, h3.origin(), 1.0, [24, 48])


def _dirs(v, idx):
    """The directions `idx` of a direction stack v."""
    return Tangent(v.space, v.base, tuple(p[idx] for p in v.parts))


def test_first_contact_euclidean_sphere(e3, e3_sphere):
    # [TRIVIAL] B_v = -<v, x> on the unit sphere: max 1 at x = -v
    o = e3.origin()
    v = vh.sweep_directions(e3, o, 5, seed=0)
    sweep = vh.first_contact(e3_sphere, o, v)
    assert np.all(np.abs(sweep.c_v - 1.0) < 1e-9)
    assert np.all(sweep.s_residual < 1e-6)
    x = e3_sphere.embed(sweep.params)
    assert np.max(np.abs(x.parts[0] + e3.tangent_to_coords(v))) < 1e-6


def test_sweep_directions_match_one_draw_per_direction():
    # the stacked draw takes the rng stream of one unit-tangent draw per
    # direction, bit for bit, on every factor kind
    for spec in ("euclidean:3", "hyperbolic:3,kappa=1", "spd:3",
                 "euclidean:1xhyperbolic:2,kappa=0.8xspd:2"):
        space = parse_space(spec)
        o = space.origin()
        for seed in (1, 2, 42):
            stack = vh.sweep_directions(space, o, 50, seed)
            rng = np.random.default_rng(seed)
            for i in range(50):
                one = space.random_unit_tangent(o, rng)
                for a, b in zip(stack.parts, one.parts):
                    assert np.array_equal(a[i], b)


@pytest.mark.parametrize("spec,r,grid", [("euclidean:3", 1.0, [24, 48]),
                                         ("hyperbolic:3,kappa=1", 1.0, [24, 48]),
                                         ("spd:3", 0.5, [3] * 4)],
                         ids=["e3", "h3", "spd3"])
def test_first_contact_sphere_closed_form(spec, r, grid):
    # [DERIVED] on-ray identity: on the geodesic sphere of radius r about o,
    # c_v = r for every v, with the contact at the -v pole.  The coarse SPD
    # grid starts the ascent far from the contact point, where an uncapped
    # line search settles on a lower mode of B_v.
    space = parse_space(spec)
    o = space.origin()
    M = geodesic_sphere(space, o, r, grid)
    for seed in (1, 2, 3):
        sweep = vh.contact_sweep(M, o, 10, seed)
        assert np.all(np.abs(sweep.c_v - r) < 1e-12)
        assert np.all(sweep.s_residual < 1e-6)


def test_supporting_conditions(h3, h3_sphere):
    o = h3.origin()
    sweep = vh.first_contact(h3_sphere, o, vh.sweep_directions(h3, o, 1, 2))
    assert sweep.eig_min_support[0] >= vh.EIG_FLOOR_SUPPORT
    assert sweep.eig_min_hessian[0] >= vh.EIG_FLOOR_HESS


def test_jacobian_h3_closed_forms(h3, h3_sphere, e3, e3_sphere):
    # [DERIVED] on H^3 sphere r=1: J = 1/sinh^2(1), GK = coth^2(1),
    # so J/GK = 1/cosh^2(1) <= 1 <= e^{12}; on the unit E^3 sphere J = 1,
    # for every sweep direction of seeds 1-3.  On the H^3 sphere r=0.5,
    # J = 1/sinh^2(0.5) with the stencil step h = 1e-4 * 0.5.
    o = h3.origin()
    small = geodesic_sphere(h3, o, 0.5, [24, 48])
    for seed in (1, 2, 3):
        sweep = vh.contact_sweep(small, o, 10, seed, measure_jacobian=True)
        assert sweep.stencil_ok.all()
        assert np.all(np.abs(sweep.jacobian - 1.0 / math.sinh(0.5) ** 2) < 1e-4)
        sweep = vh.contact_sweep(h3_sphere, o, 10, seed, measure_jacobian=True)
        assert sweep.stencil_ok.all()
        assert np.all(np.abs(sweep.jacobian - 1.0 / math.sinh(1.0) ** 2) < 1e-4)
        assert np.all(np.abs(sweep.GK - 1.0 / math.tanh(1.0) ** 2) < 1e-4)
        # the worst margin of the sweep is positive, so every margin is
        rep = vh.jacobian_sweep_check(h3_sphere, o, 10, seed)
        assert rep.passed
        assert rep.margin > 0.0
        assert rep.details["measured"] == 10
        sweep = vh.contact_sweep(e3_sphere, e3.origin(), 10, seed,
                                 measure_jacobian=True)
        assert sweep.stencil_ok.all()
        assert np.all(np.abs(sweep.jacobian - 1.0) < 1e-5)


def test_one_chart_per_contact(h3, monkeypatch):
    # the contact record reuses the ascent's last chart, and the Jacobian
    # differences the shape operator's stencil: one chart at the contact
    # parameters and one stacked stencil chart of shape (1, n, 2, n)
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [16, 32])
    shapes, at = [], []
    chart = Hypersurface.chart

    def counted(self, params, orient=True):
        shapes.append(np.shape(params))
        at.append(np.array(params, dtype=float, copy=True).reshape(-1, M.n))
        return chart(self, params, orient)

    monkeypatch.setattr(Hypersurface, "chart", counted)
    o = h3.origin()
    vs = vh.sweep_directions(h3, o, 3, seed=3)
    for i in range(3):
        shapes.clear()
        at.clear()
        one = vh.first_contact(M, o, _dirs(vs, slice(i, i + 1)),
                               measure_jacobian=True)
        assert one.stencil_ok[0] and np.isfinite(one.jacobian[0])
        assert sum(p.shape[0] == 1 and np.array_equal(p[0], one.params[0])
                   for p in at) == 1
        assert ([s for s in shapes if s[-3:] == (M.n, 2, M.n)]
                == [(1, M.n, 2, M.n)])


def test_sweep_translates_stencils_in_one_call(h3, monkeypatch):
    # a sweep of D directions with Jacobians translates the stencil points
    # of all its contacts in one call, on one stencil chart (D, n, 2, n)
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [16, 32])
    calls, shapes = [], []
    translate = gauss_map.translate_direction
    monkeypatch.setattr(gauss_map, "translate_direction",
                        lambda *args: calls.append(1) or translate(*args))
    chart = Hypersurface.chart

    def counted(self, params, orient=True):
        shapes.append(np.shape(params))
        return chart(self, params, orient)

    monkeypatch.setattr(Hypersurface, "chart", counted)
    d = 5
    sweep = vh.contact_sweep(M, h3.origin(), d, seed=3, measure_jacobian=True)
    assert sweep.stencil_ok.all()
    assert len(calls) == 1
    assert ([s for s in shapes if s[-3:] == (M.n, 2, M.n)]
            == [(d, M.n, 2, M.n)])


def test_stencil_gate_marks_only_its_contact(h3, monkeypatch):
    # a stencil normal that fails the translation gate (a NaN residual)
    # leaves only its own contact unmeasured; the others keep their
    # Jacobians bit for bit
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [16, 32])
    o = h3.origin()
    clean = vh.contact_sweep(M, o, 4, seed=5, measure_jacobian=True)
    forms = Hypersurface.fundamental_forms

    def corrupt(self, params, chart):
        data, stencil = forms(self, params, chart)
        stencil["nu"][1, 0, 1] = np.nan
        return data, stencil

    monkeypatch.setattr(Hypersurface, "fundamental_forms", corrupt)
    with np.errstate(divide="ignore", invalid="ignore"):
        gated = vh.contact_sweep(M, o, 4, seed=5, measure_jacobian=True)
    assert gated.stencil_ok.tolist() == [True, False, True, True]
    assert math.isnan(gated.jacobian[1])
    assert np.array_equal(gated.jacobian[[0, 2, 3]], clean.jacobian[[0, 2, 3]])


def _surface(spec, surface, r, grid):
    space = parse_space(spec)
    o = space.origin()
    if surface == "graph":
        return space, o, radial_graph(space, o, r, "latitude", 0.2, grid)
    return space, o, geodesic_sphere(space, o, r, grid)


@pytest.mark.parametrize("spec,surface,r,grid", [
    ("euclidean:3", "sphere", 1.0, [12, 24]),
    ("hyperbolic:3,kappa=1", "graph", 1.0, [16, 32]),
    ("spd:3", "sphere", 0.5, [3] * 4),
    ("euclidean:1xhyperbolic:2,kappa=1", "sphere", 0.7, [12, 24])],
    ids=["e3-sphere", "h3-graph", "spd3-sphere", "product-sphere"])
def test_lockstep_sweep_matches_single_directions(spec, surface, r, grid,
                                                  monkeypatch):
    # the lockstep sweep against one direction at a time: the same contact
    # records, as many ascent steps (line searches) as the slowest single
    # direction, and at most two stacked embeds per step.  The embed count
    # itself is not bounded by the slowest direction's: a step may run its
    # vertex call for a row that the slowest direction skipped at that step
    space, o, M = _surface(spec, surface, r, grid)
    calls, steps = [], []
    embed = Hypersurface.embed
    monkeypatch.setattr(Hypersurface, "embed",
                        lambda self, params: calls.append(1) or embed(self,
                                                                      params))
    line_max = vh._line_max
    monkeypatch.setattr(vh, "_line_max",
                        lambda *args: steps.append(1) or line_max(*args))
    k = 6
    sweep = vh.contact_sweep(M, o, k, seed=7, measure_jacobian=True)
    sweep_calls, sweep_steps = len(calls), len(steps)
    single_steps = []
    vs = vh.sweep_directions(space, o, k, seed=7)
    for i in range(k):
        steps.clear()
        one = vh.first_contact(M, o, _dirs(vs, slice(i, i + 1)),
                               measure_jacobian=True)
        single_steps.append(len(steps))
        assert abs(sweep.c_v[i] - one.c_v[0]) <= 1e-13 * abs(one.c_v[0])
        for a, b in ((sweep.GK[i], one.GK[0]),
                     (sweep.jacobian[i], one.jacobian[0])):
            assert abs(a - b) <= 1e-6 * abs(b)
    assert sweep_steps == max(single_steps)
    assert sweep_calls <= 2 * sweep_steps


def test_grid_argmax_blocks_match_full_table(h3, monkeypatch):
    # the argmax over blocks of whole nodes is the argmax of the full
    # (direction x node) table, first maximum on ties
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [8, 16])
    o = h3.origin()
    vs = vh.sweep_directions(h3, o, 7, seed=4)
    bus = BusemannFunction(h3, o, vs)
    table = bus[:, None].value(M.points_stack())
    monkeypatch.setattr(vh, "GRID_BLOCK_PAIRS", 50)     # 7 nodes per block
    node, best = vh._grid_argmax(M, bus, 7)
    assert np.array_equal(node, np.argmax(table, axis=-1))
    assert np.array_equal(best, np.max(table, axis=-1))


def test_stacked_objective_marks_only_domain_rows(h3):
    # a latitude parameter at |u| >= 1 leaves the n = 2 chart: that row of a
    # stacked objective call is -inf, the others keep their values
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [8, 16])
    o = h3.origin()
    vs = vh.sweep_directions(h3, o, 5, seed=3)
    q = M.params[[0, 9, 40, 77, 120]].copy()
    q[2, 0] = 1.2
    vals = vh._surface_values(M, BusemannFunction(h3, o, vs), q)
    assert vals[2] == -math.inf
    for i in (0, 1, 3, 4):
        one = BusemannFunction(h3, o, _dirs(vs, i)).value(M.embed(q[i]))
        assert abs(vals[i] - one) <= 1e-12 * abs(one)


def test_jacobian_euclidean_equality(e3, e3_sphere):
    # [TRIVIAL] unit sphere, kappa = 0: J == GK == 1, bound tight up to slack
    rep = vh.jacobian_sweep_check(e3_sphere, e3.origin(), 1, seed=4)
    assert abs(rep.lhs - 1.0) < 1e-5          # the measured J
    assert rep.passed
    assert rep.margin < 2e-3 + 1e-5   # only the slack factor remains


def test_total_curvature_equality_case(e3, e3_sphere):
    # [PAPER] Euclidean sphere: lhs == rhs == 4pi (equality case)
    rep = vh.total_curvature_check(e3_sphere, e3.origin(), sweep_count=25)
    assert rep.passed
    assert abs(rep.lhs / (4 * math.pi) - 1) < 1e-6
    assert abs(rep.rhs / (4 * math.pi) - 1) < 1e-12


def test_total_curvature_h3(h3, h3_sphere):
    rep = vh.total_curvature_check(h3_sphere, h3.origin(), sweep_count=25)
    assert rep.passed
    assert abs(rep.lhs / (4 * math.pi * math.cosh(1.0) ** 2) - 1) < 5e-3
    assert rep.details["sweep_failures"] == 0


def test_contact_check_perturbed_graph(h3):
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [24, 48])
    rep = vh.contact_check(M, h3.origin(), sweep_count=25)
    assert rep.passed
    assert rep.lhs <= vh.RESID_TOL


def test_willmore_umbilic_equality(h3, h3_sphere):
    rep = vh.willmore_check(h3_sphere, h3.origin())
    assert rep.passed
    # [TRIVIAL] umbilic: willmore == total curvature
    assert abs(rep.lhs / rep.details["total_curvature"] - 1) < 1e-9
    assert rep.details["A_psd_everywhere"]


def test_willmore_ellipsoid_like(e3):
    # [DERIVED] convex Euclidean graph: willmore >= 4pi
    M = radial_graph(e3, e3.origin(), 1.0, "coord", 0.3, [24, 48])
    rep = vh.willmore_check(M, e3.origin())
    assert rep.passed
    assert rep.lhs >= 4 * math.pi * (1 - 1e-6)


def test_isoperimetric_euclidean_sharp(e3):
    # [PAPER] Euclidean ratio is the sharp constant 36pi for any radius
    for r in (0.5, 1.0):
        rep = vh.isoperimetric_check(e3, e3.origin(), r,
                                     grid_counts=[24, 48], radial_nodes=16)
        assert rep.passed
        assert abs(rep.lhs / (36 * math.pi) - 1) < 1e-3


def test_isoperimetric_small_r_euclidean_limit(h3):
    # [DERIVED] r -> 0: the hyperbolic ratio approaches 36pi
    rep = vh.isoperimetric_check(h3, h3.origin(), 1e-2,
                                 grid_counts=[16, 32], radial_nodes=12)
    assert rep.passed
    assert abs(rep.lhs / (36 * math.pi) - 1) < 1e-2


def test_isoperimetric_h3_closed_form(h3):
    # [DERIVED] area = 4pi sinh^2(r), vol = pi (sinh(2r) - 2r)
    rep = vh.isoperimetric_check(h3, h3.origin(), 0.5,
                                 grid_counts=[24, 48], radial_nodes=16)
    assert rep.passed
    area = 4 * math.pi * math.sinh(0.5) ** 2
    vol = math.pi * (math.sinh(1.0) - 1.0)
    assert abs(rep.details["area"] / area - 1) < 1e-6
    assert abs(rep.details["volume"] / vol - 1) < 1e-6


def test_contact_level_continuity(h3):
    # |c_v - c_v'| <= D |v - v'| + 1e-6 (Lipschitz dependence on direction)
    M = radial_graph(h3, h3.origin(), 1.0, "coord", 0.2, [16, 32])
    o = h3.origin()
    d = M.diameter_extrinsic()
    vs = vh.sweep_directions(h3, o, 12, seed=5)
    c_v = vh.first_contact(M, o, vs).c_v
    dv = h3.norm(h3.add(_dirs(vs, slice(None, -1)),
                        h3.scale(_dirs(vs, slice(1, None)), -1.0)))
    assert np.all(np.abs(np.diff(c_v)) <= d * dv + 1e-6)


def test_contact_level_monotone_in_radius(h3):
    # enlarging M pointwise never decreases c_v
    o = h3.origin()
    small = geodesic_sphere(h3, o, 0.6, [16, 32])
    big = radial_graph(h3, o, 0.8, "coord", 0.1, [16, 32])  # radius >= 0.72
    vs = vh.sweep_directions(h3, o, 6, seed=6)
    assert np.all(vh.first_contact(big, o, vs).c_v
                  >= vh.first_contact(small, o, vs).c_v - 1e-9)


def test_det_comparison_audit_cases():
    # [TRIVIAL] M = 0.5 N and M = N
    n = np.diag([2.0, 3.0, 4.0])
    assert abs(np.linalg.det(0.5 * n)) <= abs(np.linalg.det(n))
    rep = vh.det_comparison_audit(6, 300, seed=42)
    assert rep.passed
    assert rep.lhs == 0.0


def test_sqrt_perturbation_audit_cases():
    # [TRIVIAL] A == B gives 0 <= 0; [DERIVED] A, -A
    rng = np.random.default_rng(7)
    g = rng.standard_normal((5, 5))
    a = 0.5 * (g + g.T)
    assert op_norm(psd_sqrt(a @ a).a - psd_sqrt(a @ a).a) == 0.0
    lhs = op_norm(psd_sqrt(a @ a).a - psd_sqrt((-a) @ (-a)).a)
    assert lhs <= math.sqrt(5) * op_norm(2 * a) + 1e-12
    rep = vh.sqrt_perturbation_audit(8, 300, seed=42)
    assert rep.passed


def test_hessian_oracle_check_small(h3):
    rep = vh.hessian_oracle_check(h3, h3.origin(), samples=5, seed=42)
    assert rep.passed
    assert rep.lhs <= 1e-3


def test_hessian_bounds_check_small():
    space = parse_space("spd:3")
    rep = vh.hessian_bounds_check(space, space.origin(), samples=50, seed=42)
    assert rep.passed
    assert rep.details["violations"] == 0


def test_gauss_consistency_check(h3, h3_sphere):
    rep = vh.gauss_consistency_check(h3_sphere, h3.origin(), min_nodes=1000)
    assert rep.passed
    assert rep.lhs <= 1e-5


def test_report_shape(e3, e3_sphere):
    rep = vh.willmore_check(e3_sphere, e3.origin())
    d = rep.to_dict()
    assert set(d) == {"check", "space", "surface", "grid", "kappa", "diameter",
                      "lhs", "rhs", "margin", "pass", "tolerances", "seed",
                      "runtime_ms"}
    assert d["pass"] == (rep.margin >= -vh.INEQ_TOL * rep.rhs)


def _all_gated(space, o, stencil):
    # the stencil of every contact fails the translation gate
    w, ok = gauss_map.gauss_differential(space, o, stencil)
    return w, np.zeros_like(ok)


def test_jacobian_sweep_fails_when_nothing_measured(e3, monkeypatch):
    # every contact node stencil-excluded: the sweep measured nothing
    M = geodesic_sphere(e3, e3.origin(), 1.0, [12, 24])
    rep = vh.jacobian_sweep_check(M, e3.origin(), sweep_count=3)
    assert rep.passed
    assert rep.details["measured"] == 3
    monkeypatch.setattr(vh, "gauss_differential", _all_gated)
    rep = vh.jacobian_sweep_check(M, e3.origin(), sweep_count=3)
    assert not rep.passed
    assert rep.details["measured"] == 0
    assert rep.details["stencil_excluded"] == 3


def test_unmeasured_jacobian_clears_stencil_ok(e3, e3_sphere, monkeypatch):
    # stencil_ok is 0 exactly when a requested Jacobian could not be
    # measured, and the jacobian check leaves that contact out
    o = e3.origin()
    v = vh.sweep_directions(e3, o, 1, seed=5)
    assert vh.first_contact(e3_sphere, o, v).stencil_ok[0]

    monkeypatch.setattr(vh, "gauss_differential", _all_gated)
    sweep = vh.first_contact(e3_sphere, o, v, measure_jacobian=True)
    assert math.isnan(sweep.jacobian[0])
    assert not sweep.stencil_ok[0]
    rep = vh.jacobian_sweep_check(e3_sphere, o, 1, seed=5)
    assert rep.details["stencil_excluded"] == 1


@pytest.mark.parametrize("check", [vh.jacobian_sweep_check, vh.contact_check,
                                   vh.total_curvature_check, vh.contact_sweep],
                         ids=["jacobian", "contact", "total-curvature",
                              "contact-sweep"])
def test_empty_sweep_is_input_error(e3, check):
    # a sweep of no directions proves nothing: rejected, not passed
    M = geodesic_sphere(e3, e3.origin(), 1.0, [12, 24])
    with pytest.raises(InputDomainError):
        check(M, e3.origin(), 0)


def _corrupt_row(monkeypatch, field):
    # row 1 of a contact table's fundamental data is NaN in `field`
    forms = Hypersurface.fundamental_forms

    def corrupt(self, params, chart):
        data, stencil = forms(self, params, chart)
        getattr(data, field)[1] = np.nan
        return data, stencil

    monkeypatch.setattr(Hypersurface, "fundamental_forms", corrupt)


def test_nan_contact_fails_sweep_gates(h3, monkeypatch):
    # a NaN residual or Jacobian margin fails its gate and is counted; it
    # does not pass every comparison vacuously
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [16, 32])
    o = h3.origin()
    _corrupt_row(monkeypatch, "nu_coords")
    rep = vh.contact_check(M, o, 4, seed=5)
    assert not rep.passed
    assert rep.details["failures"] == 1
    rep = vh.total_curvature_check(M, o, 4, seed=5)
    assert not rep.passed
    assert rep.details["sweep_failures"] == 1
    monkeypatch.undo()
    _corrupt_row(monkeypatch, "GK")        # a NaN bound, so a NaN margin
    rep = vh.jacobian_sweep_check(M, o, 4, seed=5)
    assert not rep.passed
    assert math.isnan(rep.margin)


def test_jacobian_report_shows_worst_measured_contact(h3, monkeypatch):
    # one stencil-excluded contact of 20: the report shows the measured
    # contact with the smallest margin, not the excluded one
    M = radial_graph(h3, h3.origin(), 1.0, "latitude", 0.2, [16, 32])
    o = h3.origin()
    clean = vh.contact_sweep(M, o, 20, seed=5, measure_jacobian=True)
    differential = gauss_map.gauss_differential

    def gate_one(space, o, stencil):
        w, ok = differential(space, o, stencil)
        return w, ok & (np.arange(len(ok)) != 3)

    monkeypatch.setattr(vh, "gauss_differential", gate_one)
    rep = vh.jacobian_sweep_check(M, o, 20, seed=5)
    assert rep.passed
    assert rep.details["stencil_excluded"] == 1
    n, d = M.n, M.diameter_extrinsic()
    bound = (math.exp(n * (n + 1) * h3.curvature_lower_bound * d)
             * np.abs(clean.GK) * (1.0 + vh.JAC_SLACK))
    margin = np.where(np.arange(20) == 3, np.inf, bound - clean.jacobian)
    w = np.argmin(margin)
    assert rep.lhs == pytest.approx(clean.jacobian[w], rel=1e-12)
    assert rep.rhs == pytest.approx(bound[w], rel=1e-12)
    assert rep.margin == pytest.approx(margin[w], rel=1e-12)


@pytest.mark.parametrize("check", [
    lambda s: vh.hessian_bounds_check(s, s.origin(), samples=0),
    lambda s: vh.lipschitz_check(s, s.origin(), samples=0),
    lambda s: vh.hessian_oracle_check(s, s.origin(), samples=0),
    lambda s: vh.det_comparison_audit(3, 0, seed=1),
    lambda s: vh.sqrt_perturbation_audit(3, 0, seed=1)],
    ids=["hessian-bounds", "lipschitz", "hessian-oracle", "det-audit",
         "sqrt-audit"])
def test_zero_samples_is_input_error(check):
    # a sampled check of no sample proves nothing: rejected, not passed
    with pytest.raises(InputDomainError):
        check(parse_space("spd:3"))


def test_first_contact_rejects_a_direction_without_stack_axis(e3):
    # one unstacked direction is not a (D,) stack: a typed input error
    M = geodesic_sphere(e3, e3.origin(), 1.0, [8, 16])
    o = e3.origin()
    v = e3.random_unit_tangent(o, np.random.default_rng(1))
    with pytest.raises(InputDomainError, match=r"\(D,\) stack"):
        vh.first_contact(M, o, v)


def _lines(peak, top, cut=math.inf):
    """Concave parabolas top - (t - peak)^2 per row, -inf beyond `cut`,
    as a `_line_max` objective that records every abscissa it is given."""
    peak, top = np.asarray(peak, float), np.asarray(top, float)
    cut = np.broadcast_to(cut, peak.shape)
    seen = []

    def g(i, t):
        seen.append((i, t))
        val = top[i, None] - (t - peak[i, None]) ** 2
        return np.where(t > cut[i, None], -math.inf, val)
    return g, seen, top - peak ** 2, 2.0 * peak


def test_line_max_interior_vertex():
    # an interior maximum of a concave parabola is the parabola's vertex,
    # in two stacked calls over all rows
    peak = np.array([0.37, 0.5, 0.9123])
    g, seen, g0, slope = _lines(peak, [1.0, -2.0, 3.0])
    s, val = vh._line_max(g, np.ones(3), g0, slope)
    assert np.max(np.abs(s - peak)) < 1e-12
    assert np.max(np.abs(val - [1.0, -2.0, 3.0])) < 1e-12
    assert len(seen) == 2


def test_line_max_beyond_t_max_gives_t_max():
    g, seen, g0, slope = _lines([2.0, 7.5], [0.0, 1.0])
    t_max = np.array([1.0, 0.25])
    s, val = vh._line_max(g, t_max, g0, slope)
    assert np.array_equal(s, t_max)
    assert np.allclose(val, g(np.arange(2), t_max[:, None])[:, 0])


def test_line_max_below_first_abscissa_uses_the_slope():
    # the maximizer lies in (0, h) and every abscissa is below g(0): the
    # parabola through g(0), g'(0) and g(h) finds it
    peak = np.array([0.01, 0.05])
    g, seen, g0, slope = _lines(peak, [1.0, 2.0])
    s, val = vh._line_max(g, np.ones(2), g0, slope)
    assert np.all(seen[0][1] > peak[:, None])
    assert np.max(np.abs(s - peak)) < 1e-12
    assert np.all(val > g0)


def test_line_max_off_chart_rows():
    # row 0 leaves the chart beyond t = 0.01: its fan shrinks until the
    # first abscissa is on the chart, and it finds the maximum; row 1 is
    # off the chart everywhere and gains nothing; row 2 is untouched by
    # the shrinks of the others
    g, seen, g0, slope = _lines([0.004, 0.3, 0.3], [1.0, 1.0, 1.0],
                                cut=[0.01, 0.0, math.inf])
    t_max = np.ones(3)
    s, val = vh._line_max(g, t_max, g0, slope)
    assert abs(s[0] - 0.004) < 1e-12 and abs(val[0] - 1.0) < 1e-12
    assert s[1] == 0.0 and val[1] == g0[1]
    assert abs(s[2] - 0.3) < 1e-12
    assert all(2 not in i for i, _ in seen[1:-1])
    for i, t in seen:
        assert np.all((t > 0.0) & (t <= t_max[i, None]))


def test_line_max_never_below_g0_and_rows_independent():
    # non-concave lines: the result is g(s) with s in [0, t_max], never
    # below g(0), and each row's result is the one it gets alone
    rng = np.random.default_rng(3)
    freq, phase = rng.uniform(5.0, 60.0, 40), rng.uniform(0.0, 6.0, 40)

    def g(i, t):
        return np.sin(freq[i, None] * t + phase[i, None]) + 0.1 * t

    g0 = np.sin(phase)
    slope = freq * np.cos(phase) + 0.1
    t_max = rng.uniform(0.1, 2.0, 40)
    s, val = vh._line_max(g, t_max, g0, slope)
    assert np.all(val >= g0)
    assert np.all((s >= 0.0) & (s <= t_max))
    moved = s > 0.0
    assert np.array_equal(val[moved], g(np.flatnonzero(moved), s[moved, None])[:, 0])
    assert np.array_equal(val[~moved], g0[~moved])
    for r in range(40):
        one = vh._line_max(lambda i, t: g(np.full_like(i, r), t),
                           t_max[[r]], g0[[r]], slope[[r]])
        assert one[0][0] == s[r] and one[1][0] == val[r]


def test_nonconvex_graph_sweep():
    # a strongly perturbed H^3 latitude graph, where B_v is not concave on
    # M: every contact is at least the grid maximum, matched to the normal
    # and supporting
    h3 = parse_space("hyperbolic:3,kappa=1")
    o = h3.origin()
    M = radial_graph(h3, o, 1.0, "latitude", 0.8, [48, 96])
    v = vh.sweep_directions(h3, o, 200, seed=1)
    _, grid_max = vh._grid_argmax(M, BusemannFunction(h3, o, v), 200)
    sweep = vh.first_contact(M, o, v)
    assert np.all(sweep.c_v >= grid_max)
    assert np.all(sweep.s_residual <= vh.RESID_TOL)
    assert not vh._floors_fail(sweep).any()


def test_two_embeds_per_line_search(monkeypatch):
    # the contact ascent costs two stacked embeds per line search (a fan of
    # abscissae and the parabola vertices), not one per search point
    space = parse_space("spd:3")
    o = space.origin()
    M = geodesic_sphere(space, o, 0.5, [4] * 4)
    embeds, searches = [], []
    embed, line_max = Hypersurface.embed, vh._line_max
    monkeypatch.setattr(Hypersurface, "embed",
                        lambda self, params: embeds.append(1) or embed(self,
                                                                       params))
    monkeypatch.setattr(vh, "_line_max",
                        lambda *args: searches.append(1) or line_max(*args))
    vh.contact_sweep(M, o, 4, seed=1)
    assert len(searches) > 0
    assert len(embeds) == 2 * len(searches)
