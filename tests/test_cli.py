"""CLI: exit codes, report schema, determinism, config round trip."""

import gc
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from horocurv.cli import (SuiteConfig, main, parse_config_text,
                          render_reports, run_suite)
from horocurv.errors import HorocurvError
from horocurv.model_spaces import parse_space

jsonschema = pytest.importorskip("jsonschema")


def _config_text(cfg):
    """A config file that lists every field of cfg; it replays cfg's run."""
    lines = [f"checks = {' '.join(cfg.checks)}"]
    for f in fields(cfg):
        if f.name != "checks" and getattr(cfg, f.name) is not None:
            lines.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(lines) + "\n"


def _schema():
    from importlib import resources
    with resources.files("horocurv").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def test_verify_pass_exit_zero(capsys):
    rc = main(["verify", "total-curvature", "--space", "euclidean:3",
               "--surface", "geodesic-sphere:r=1", "--grid", "16x32",
               "--sweep-count", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    reports = json.loads(out)
    jsonschema.validate(reports, _schema())
    assert reports[0]["pass"] is True
    assert abs(reports[0]["lhs"] - 12.566370) < 1e-3    # [TRIVIAL] 4pi


def test_unknown_check_exit_two(capsys):
    assert main(["verify", "no-such-check"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_bad_space_exit_two(capsys):
    rc = main(["verify", "total-curvature", "--space", "weird:9",
               "--surface", "geodesic-sphere:r=1"])
    assert rc == 2
    assert "weird" in capsys.readouterr().err


def test_bad_subcommand_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unwritable_output_exit_two(capsys):
    rc = main(["verify", "det-audit", "--samples", "10",
               "--output", "/nonexistent-dir/report.json"])
    assert rc == 2


def test_audit_subcommand_default_runs_both(capsys):
    rc = main(["audit", "--samples", "50"])
    reports = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [r["check"] for r in reports] == ["det-audit", "sqrt-audit"]


def test_sweep_subcommand_csv(capsys):
    rc = main(["sweep", "--space", "euclidean:3",
               "--surface", "geodesic-sphere:r=1", "--grid", "12x24",
               "--count", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("direction,c_v,tie_tol,s_residual")
    assert len(lines) == 4


_SWEEP = ["sweep", "--space", "euclidean:3", "--surface",
          "geodesic-sphere:r=1", "--grid", "12x24", "--count", "3"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_format(capsys, fmt):
    # CSV stays the default byte for byte; JSON carries the same columns
    assert main(_SWEEP) == 0
    default = capsys.readouterr().out
    assert main(_SWEEP + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert out == default
        return
    header, *lines = default.strip().splitlines()
    records = json.loads(out)
    assert len(records) == len(lines) == 3
    for rec, line in zip(records, lines):
        assert list(rec) == header.split(",")
        for value, field in zip(rec.values(), line.split(",")):
            assert value == (None if field == "" else float(field))
    assert records[0]["jacobian"] is None


@pytest.mark.parametrize("argv", [["verify", "contact", "--sweep-count", "0"],
                                  ["verify", "total-curvature",
                                   "--sweep-count", "0"],
                                  ["sweep", "--count", "0"],
                                  ["sweep", "--count", "-2"]],
                         ids=["contact", "total-curvature", "sweep",
                              "sweep-negative"])
def test_empty_sweep_exit_two(capsys, argv):
    rc = main(argv + ["--space", "euclidean:3", "--grid", "6x12"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "sweep_count >= 1" in err


@pytest.mark.parametrize("space,grid", [("euclidean:3", "0x8"),
                                        ("spd:3", "0^4")])
def test_empty_grid_exit_two(capsys, space, grid):
    rc = main(["verify", "total-curvature", "--space", space, "--grid", grid,
               "--sweep-count", "1"])
    assert rc == 2
    assert "at least one node per axis" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["total-curvature", "--surface", "geodesic-sphere:r=1e-320",
     "--sweep-count", "2"],
    ["isoperimetric", "--radius", "1e-320"]],
    ids=["total-curvature", "isoperimetric"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_radius_is_chart_degeneracy(capsys, argv):
    # the Gram matrix underflows to 0 and its relative det is 0/0 = NaN:
    # the degeneracy gate fails on NaN, before the ascent or the report,
    # without a numpy warning on the way
    rc = main(["verify", *argv, "--space", "hyperbolic:3,kappa=1",
               "--grid", "4x8"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert "chart frame degenerate" in err


@pytest.mark.parametrize("space,name", [
    ("hyperbolic:3,kappa=1e-200", "kappa"), ("hyperbolic:3,kappa=1e999", "kappa"),
    ("spd:3,lambda=1e999", "lambda"), ("spd:3,lambda=5e-324", "lambda")])
def test_metric_parameter_out_of_range_exit_two(capsys, space, name):
    # kappa^2, 1/kappa^2 (the SPD factor's kappa_f) and the SPD metric
    # coefficient must be finite and non-zero: a config error at parse time
    grid = "3^4" if space.startswith("spd") else "4x8"
    rc = main(["verify", "total-curvature", "--space", space, "--grid", grid,
               "--sweep-count", "2"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert name in err and "Traceback" not in err


def test_negative_seed_exit_two(tmp_path, capsys):
    argv = ["verify", "total-curvature", "--space", "euclidean:3",
            "--grid", "6x12", "--sweep-count", "1"]
    assert main(argv + ["--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    path = tmp_path / "suite.cfg"
    # config values that do not parse are typed errors naming the key, and
    # an unknown format is rejected before any check runs
    for text, msg in (("seed = -1", "seed must be non-negative"),
                      ("seed = 1.5", "config key seed = '1.5'"),
                      ("samples = many", "config key samples = 'many'"),
                      ("format = xml", "unknown report format 'xml'")):
        path.write_text(text + "\n")
        assert main(argv + ["--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert msg in err


_NEGATIVE = [(["verify", "hessian-oracle", "--space", "spd:3"], "samples", -1),
             (["verify", "lipschitz", "--space", "hyperbolic:3,kappa=1"],
              "samples", -3),
             (["verify", "hessian-bounds", "--space", "spd:3"], "samples", -2),
             (["audit", "det-audit"], "samples", -4),
             (["audit", "sqrt-audit"], "samples", -2),
             (["audit", "det-audit"], "dim", -3),
             (["verify", "gauss-consistency", "--space", "euclidean:3",
               "--grid", "4x8"], "min_nodes", -5)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv,key,value", _NEGATIVE,
                         ids=["hessian-oracle", "lipschitz", "hessian-bounds",
                              "det-audit", "sqrt-audit", "det-audit-dim",
                              "gauss-consistency-min-nodes"])
def test_negative_samples_or_dim_exit_two(tmp_path, capsys, argv, key, value,
                                          source):
    # zero samples would report lhs 0.0 and pass, a negative dim crashed,
    # negative min_nodes ran gauss-consistency on one node and passed
    if source == "flag":
        extra = [f"--{key.replace('_', '-')}", str(value)]
    else:
        path = tmp_path / "suite.cfg"
        path.write_text(f"{key} = {value}\n")
        extra = ["--config", str(path)]
    assert main(argv + extra) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{key} must be non-negative" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_gauss_consistency_min_nodes_zero_exit_two(tmp_path, capsys, source):
    # min_nodes 0 ran the check on one node and passed; a check of no node
    # proves nothing
    argv = ["verify", "gauss-consistency", "--space", "euclidean:3",
            "--grid", "4x8"]
    if source == "flag":
        argv += ["--min-nodes", "0"]
    else:
        path = tmp_path / "suite.cfg"
        path.write_text("min_nodes = 0\n")
        argv += ["--config", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "min_nodes must be at least 1" in err


_UNREAD = [("audit", "--space", "euclidean:3"),
           ("audit", "--surface", "geodesic-sphere:r=1"),
           ("audit", "--grid", "0x0"), ("audit", "--sweep-count", "0"),
           ("audit", "--radius", "-4"), ("audit", "--min-nodes", "-9"),
           ("sweep", "--samples", "9"), ("sweep", "--radius", "7"),
           ("sweep", "--dim", "4"), ("sweep", "--min-nodes", "3")]


@pytest.mark.parametrize("command,flag,value", _UNREAD,
                         ids=[f"{c}{f}" for c, f, _ in _UNREAD])
def test_unread_flag_is_usage_error(capsys, command, flag, value):
    # a subcommand accepts only the flags it reads; the rest exit 2 before
    # any work
    argv = ([command, "det-audit", "--samples", "5"] if command == "audit"
            else [command, "--space", "euclidean:3", "--grid", "6x12",
                  "--count", "1"])
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def _sweep_rows(capsys, argv):
    assert main(["sweep", "--space", "euclidean:3", "--grid", "6x12"]
                + argv) == 0
    return len(capsys.readouterr().out.strip().splitlines()) - 1


def test_sweep_count_spellings(tmp_path, capsys):
    # --sweep-count, --count and the sweep_count config key set one option;
    # a flag wins over the config file
    assert _sweep_rows(capsys, ["--sweep-count", "2"]) == 2
    assert _sweep_rows(capsys, ["--count", "2"]) == 2
    path = tmp_path / "sweep.cfg"
    path.write_text("sweep_count = 3\n")
    assert _sweep_rows(capsys, ["--config", str(path)]) == 3
    assert _sweep_rows(capsys, ["--config", str(path), "--count", "1"]) == 1


def _child_env(root):
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(
                    [str(root / "src")]
                    + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.mark.parametrize("argv,checks", [
    (["sweep", "--jacobian", "--space", "euclidean:3", "--grid", "4x8",
      "--count", "1"], []),
    (["sweep", "--jacobian", "--space", "spd:3", "--surface",
      "geodesic-sphere:r=0.5", "--grid", "3^4", "--count", "1"], []),
    (["audit", "det-audit", "--samples", "5", "--dim", "2"], []),
    (["verify", "gauss-consistency", "contact", "jacobian", "--space",
      "hyperbolic:3,kappa=1", "--surface",
      "radial-graph:base=0.7,mode=latitude,amp=0.2", "--grid", "6x12",
      "--sweep-count", "2", "--min-nodes", "50"], []),
    (["verify", "total-curvature", "willmore", "--space",
      "hyperbolic:3,kappa=1", "--grid", "6x12", "--sweep-count", "2"],
     ["total-curvature", "willmore"]),
    (["verify", "isoperimetric", "--space", "hyperbolic:3,kappa=1",
      "--radius", "0.5", "--grid", "4x8"], ["isoperimetric"]),
    (["verify", "lipschitz", "hessian-oracle", "hessian-bounds", "--space",
      "spd:3", "--samples", "5"], [])],
    ids=["sweep-jacobian", "spd-sweep-jacobian", "det-audit",
         "surface-checks", "total-curvature-willmore", "isoperimetric",
         "sampled-checks"])
def test_traced_cli_smoke(argv, checks):
    # perfbench/tracer.py wraps library names and hooks some of them; a
    # renamed or retyped hooked name shows here as a failing traced run, and
    # the trace must carry the numbers of the reports the checks returned
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py")] + argv,
        capture_output=True, text=True, env=_child_env(root), cwd=root,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = [line for line in proc.stderr.splitlines()
             if line.startswith("PERFBENCH-TRACE ")]
    assert len(trace) == 1
    traced = json.loads(trace[0].split(" ", 1)[1])["reports"]
    assert [r["check"] for r in traced] == checks
    if checks:
        reports = json.loads(proc.stdout)
        assert [{k: r[k] for k in ("check", "lhs", "rhs", "diameter")}
                for r in reports] == traced


_NO_SCIPY = """\
import json, sys
from horocurv.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_cli_runs_without_scipy():
    # a CLI process that sweeps with Jacobians and integrates curvature
    # never imports scipy (its import cost the CLI hundreds of milliseconds
    # per process); a fresh interpreter is needed because this one has scipy
    # loaded already
    calls = [["sweep", "--jacobian", "--space", "spd:3", "--surface",
              "geodesic-sphere:r=0.5", "--grid", "3^4", "--count", "1"],
             ["verify", "total-curvature", "willmore", "--space",
              "hyperbolic:3,kappa=1", "--grid", "6x12", "--sweep-count", "2"]]
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(calls)],
        capture_output=True, text=True, env=_child_env(root), cwd=root,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_run_freezes_after_main_returns(monkeypatch):
    # the process entry point freezes the heap once main has returned, and
    # exits with main's code; an argparse exit leaves before the freeze
    from horocurv import cli
    events = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    for code in (0, 1, 2):
        events.clear()
        monkeypatch.setattr(cli, "main",
                            lambda: events.append("main") or code)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == code
        assert events == ["main", "freeze"]

    def usage_error():
        raise SystemExit(2)

    events.clear()
    monkeypatch.setattr(cli, "main", usage_error)
    with pytest.raises(SystemExit):
        cli.run()
    assert events == []


def test_main_leaves_heap_unfrozen(capsys):
    # in-process callers keep a collectable heap
    frozen = gc.get_freeze_count()
    assert main(["verify", "det-audit", "--samples", "5"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("space,code", [("euclidean:3", 0), ("weird:9", 2)])
def test_process_entry_point(tmp_path, capsys, space, code):
    # `python -m horocurv.cli` writes the whole report and exits as
    # in-process main does
    argv = ["verify", "total-curvature", "--space", space, "--grid", "8x16",
            "--sweep-count", "2", "--output"]
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "horocurv.cli"] + argv
        + [str(tmp_path / "child.json")],
        capture_output=True, text=True, env=_child_env(root), cwd=root,
        timeout=300)
    assert main(argv + [str(tmp_path / "main.json")]) == code
    capsys.readouterr()
    assert proc.returncode == code, proc.stderr[-2000:]
    if code:
        assert "horocurv: error" in proc.stderr
        assert not (tmp_path / "child.json").exists()
        return
    child, ref = (json.loads((tmp_path / name).read_text())
                  for name in ("child.json", "main.json"))
    for r in child + ref:
        del r["runtime_ms"]
    assert child == ref


def test_reports_byte_stable_modulo_runtime():
    cfg = SuiteConfig(checks=["det-audit", "sqrt-audit"], samples=50, seed=3)
    a = render_reports(run_suite(cfg), "json")
    b = render_reports(run_suite(cfg), "json")
    scrub = lambda s: re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0', s)
    assert scrub(a) == scrub(b)


def test_csv_format(capsys):
    rc = main(["verify", "det-audit", "--samples", "20", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    header = out.splitlines()[0]
    assert header == ("check,space,surface,grid,kappa,diameter,lhs,rhs,"
                      "margin,pass,tolerances,seed,runtime_ms")


def test_config_file_round_trip(tmp_path):
    cfg = SuiteConfig(checks=["contact", "willmore"], space="spd:3",
                      grid="8^4", seed=9, radius=0.5)
    assert parse_config_text(_config_text(cfg)) == cfg


def test_config_file_drives_run(tmp_path, capsys):
    path = tmp_path / "suite.cfg"
    path.write_text("checks = det-audit\nsamples = 30\nseed = 5\n")
    rc = main(["verify", "--config", str(path), "det-audit"])
    reports = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert reports[0]["seed"] == 5
    # with no positional check the file's checks run
    assert main(["verify", "--config", str(path)]) == 0
    replay = json.loads(capsys.readouterr().out)
    for r in reports + replay:
        del r["runtime_ms"]
    assert replay == reports


def _checks_run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, [r["check"] for r in json.loads(out)] if rc == 0 else err


@pytest.mark.parametrize("command", ["verify", "audit"])
def test_checks_from_flag_or_config(tmp_path, capsys, command):
    # a file of every SuiteConfig field replays its own run, checks
    # included, and positional checks win over the file's
    path = tmp_path / "suite.cfg"
    path.write_text(_config_text(SuiteConfig(checks=["det-audit"], samples=5)))
    argv = [command, "--config", str(path)]
    assert _checks_run(capsys, argv) == (0, ["det-audit"])
    assert _checks_run(capsys, argv + ["sqrt-audit"]) == (0, ["sqrt-audit"])


def test_checks_default(tmp_path, capsys):
    # with no checks in the flags or the file, audit runs both audits and
    # verify is a configuration error
    path = tmp_path / "suite.cfg"
    path.write_text("samples = 5\n")
    assert _checks_run(capsys, ["audit", "--config", str(path)]) == (
        0, ["det-audit", "sqrt-audit"])
    for argv in (["verify", "--config", str(path)], ["verify"]):
        rc, err = _checks_run(capsys, argv)
        assert rc == 2
        assert "no checks requested" in err


def test_config_rejects_unknown_keys():
    for text in ("frobnication = 7\n", "tol.residual = 1e-3\n"):
        with pytest.raises(HorocurvError, match="unknown config keys"):
            parse_config_text(text)


def test_failing_check_exit_one(capsys, monkeypatch):
    # force a failure: a fake check result with pass False
    from horocurv import cli, verify_harness as vh
    real_audit = vh.det_comparison_audit

    def fake_audit(dim=6, samples=1000, seed=42):
        rep = real_audit(3, 1, seed)
        rep.passed = False
        return rep

    monkeypatch.setattr(cli.vh, "det_comparison_audit", fake_audit)
    rc = main(["verify", "det-audit", "--samples", "1"])
    capsys.readouterr()
    assert rc == 1


def test_report_written_to_file(tmp_path):
    out = tmp_path / "r.json"
    rc = main(["verify", "det-audit", "--samples", "10",
               "--output", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())
    jsonschema.validate(reports, _schema())


def test_isoperimetric_report_emits(capsys):
    # the isoperimetric pass flag is a numpy bool before to_dict
    rc = main(["verify", "isoperimetric", "--space", "hyperbolic:3,kappa=1",
               "--radius", "0.5", "--grid", "4x8"])
    reports = json.loads(capsys.readouterr().out)
    assert rc == 0
    jsonschema.validate(reports, _schema())
    assert reports[0]["pass"] is True


def test_sampled_hessian_checks_read_radius(capsys):
    # --radius reaches hessian-oracle and hessian-bounds, whose samples
    # then lie in that ball; without it they keep their default of 2
    from horocurv import verify_harness as vh
    space = parse_space("spd:3")
    for argv, radius in ((["--radius", "0.5"], 0.5), ([], 2.0)):
        assert main(["verify", "hessian-oracle", "hessian-bounds", "--space",
                     "spd:3", "--samples", "3"] + argv) == 0
        oracle, bounds = json.loads(capsys.readouterr().out)
        assert oracle["lhs"] == vh.hessian_oracle_check(
            space, space.origin(), 3, radius=radius).lhs
        assert bounds["lhs"] == vh.hessian_bounds_check(
            space, space.origin(), 3, radius=radius).lhs


@pytest.mark.parametrize("check", ["hessian-oracle", "hessian-bounds"])
@pytest.mark.parametrize("radius", ["0", "-1"])
def test_sampled_hessian_check_of_no_ball_is_input_error(capsys, check,
                                                         radius):
    # radius 0 puts every sample at o and a negative one samples the ball of
    # |radius|: an input error (exit 2), as for lipschitz, not a pass
    rc = main(["verify", check, "--space", "spd:3", "--samples", "5",
               "--radius", radius])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "radius must be positive" in err


def test_isoperimetric_surface_must_be_sphere(tmp_path, capsys):
    # the check runs on geodesic balls: a radial graph is rejected, not
    # replaced by the sphere of its base radius; a sphere spec is --radius,
    # and a radius option that differs from it is rejected, not dropped
    argv = ["verify", "isoperimetric", "--space", "hyperbolic:3,kappa=1",
            "--grid", "4x8"]
    rc = main(argv + ["--surface", "radial-graph:base=0.5,mode=coord,amp=0.3"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "is no sphere" in err
    path = tmp_path / "suite.cfg"
    path.write_text("radius = 2\n")
    for extra in (["--radius", "2"], ["--config", str(path)]):
        rc = main(argv + ["--surface", "geodesic-sphere:r=0.5"] + extra)
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert "differs from the radius of surface" in err
    scrub = lambda s: re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0', s)
    assert main(argv + ["--surface", "geodesic-sphere:r=0.5"]) == 0
    by_surface = scrub(capsys.readouterr().out)
    assert main(argv + ["--radius", "0.5"]) == 0
    assert scrub(capsys.readouterr().out) == by_surface
    assert main(argv + ["--surface", "geodesic-sphere:r=0.5",
                        "--radius", "0.5"]) == 0
    assert scrub(capsys.readouterr().out) == by_surface


def test_sweep_spd_fields_are_plain_numbers(capsys):
    # SPD Busemann values are numpy scalars inside the factor closed form
    rc = main(["sweep", "--space", "spd:3",
               "--surface", "geodesic-sphere:r=0.5", "--grid", "3^4",
               "--count", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 1
    for field in rows[0].split(","):
        if field:
            float(field)


def test_sweep_honours_config(tmp_path, capsys):
    # the sweep reads space, surface, grid, seed and format from the file;
    # flags win over it, as in verify
    path = tmp_path / "sweep.cfg"
    path.write_text("space = euclidean:3\nsurface = geodesic-sphere:r=1\n"
                    "grid = 12x24\nseed = 5\nformat = json\n")
    assert main(["sweep", "--config", str(path), "--count", "2"]) == 0
    records = json.loads(capsys.readouterr().out)
    flags = ["sweep", "--space", "euclidean:3", "--surface",
             "geodesic-sphere:r=1", "--grid", "12x24", "--count", "2"]
    assert main(flags + ["--seed", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == records
    assert main(["sweep", "--config", str(path), "--count", "2",
                 "--grid", "8x16"]) == 0
    overridden = capsys.readouterr().out
    flags[flags.index("12x24")] = "8x16"
    assert main(flags + ["--seed", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out == overridden
    # a flag wins even when it repeats the default value
    assert main(["sweep", "--config", str(path), "--count", "1",
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("direction,c_v")
    path.write_text("space = euclidean:3\ngrid = 12x24\n")
    assert main(["sweep", "--config", str(path), "--count", "1"]) == 0
    assert capsys.readouterr().out.startswith("direction,c_v")
    # an unknown format from the file is an error, not a silent JSON report
    path.write_text("space = euclidean:3\ngrid = 12x24\nformat = xml\n")
    assert main(["sweep", "--config", str(path), "--count", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown report format 'xml'" in err


def test_verify_flag_repeating_default_wins(tmp_path, capsys):
    path = tmp_path / "suite.cfg"
    path.write_text("checks = det-audit\nsamples = 5\nformat = csv\n")
    assert main(["verify", "det-audit", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("check,space")
    assert main(["verify", "det-audit", "--config", str(path),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["check"] == "det-audit"
