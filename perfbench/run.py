"""horocurv benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload surface-const --seed 1 --seconds 35 --trace 0

Each workload is a fixed list of ``horocurv`` CLI invocations.  One pass
runs them back to back, each in a fresh ``python -m horocurv.cli`` process
with BLAS pinned to one thread; one client, closed loop.  ``--seed`` is
passed to every invocation (it picks the sweep directions).

``--trace 0`` measures the end-to-end metrics over the passes that fit in
``--seconds``: the median pass wall time and child CPU time (``wall_s``,
``cpu_s``), the same divided by the wall and CPU time of a fixed reference
task run just before each pass (``wall_rel``, ``cpu_rel``), the largest
child max-RSS, and the median start-up cost (``setup_s``: a fresh process
imports the CLI, parses the workload's spaces and builds its surfaces
without evaluating them).  BENCHMARK.json gates the relative times, which
stay steady while the machine's speed drifts; the absolute ones are
printed and recorded beside them.

``--trace 1`` runs one untraced and one traced pass (``tracer.py``) and
reports per-layer metrics for the eight modules of ``src/horocurv``.

Every report and sweep record is checked (exit code, traceback, report
schema, ``pass``, closed-form oracles, reference values recorded at the
benchmark's base commit, finite CSV fields, contact residuals and
eigenvalue floors).  Failed operations are counted in ``failed``.
``correct`` is false when any failure is not one of the documented
``KNOWN_DEFECTS`` or the trace bookkeeping does not add up.

``--workload all`` runs every workload untraced and traced and prints a
table per workload.  The last stdout line is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record (environment, per-pass samples, failure reasons) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)          # this process imports numpy too

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

ORACLE_TOL = 1e-5        # relative error allowed against a closed form
REF_TOL = 1e-6           # relative deviation allowed from baseline.json
RESID_TOL = 1e-3         # s_residual of a sweep record
EIG_FLOOR_SUPPORT = -1e-6
EIG_FLOOR_HESSIAN = -1e-8
SETUP_REPS = 5
TRACE_MARKER = "PERFBENCH-TRACE "

# Failures that the base commit of this benchmark is known to produce.  They
# count as failed operations; only failures outside this set make a run
# incorrect.
KNOWN_DEFECTS = {
    "isoperimetric-emit-bool":
        "verify isoperimetric exits 1 with a traceback: its np.bool_ pass "
        "flag is not JSON serializable",
    "sweep-np-float64-repr":
        "sweep on spd writes np.float64(...) reprs into the c_v and tie_tol "
        "columns",
}


def _sphere_tc(r):            # E^3 geodesic sphere: int GK = int |H/2|^2
    return 4.0 * math.pi


def _h3_sphere_tc(r):         # H^3 (kappa = 1) geodesic sphere
    return 4.0 * math.pi * math.cosh(r) ** 2


def _h3_isoperimetric(r):     # area^3 / vol^2 of the H^3 geodesic ball
    area = 4.0 * math.pi * math.sinh(r) ** 2
    vol = math.pi * (math.sinh(2.0 * r) - 2.0 * r)
    return area ** 3 / vol ** 2


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload and what its output must show."""

    label: str
    args: tuple
    checks: tuple = ()           # expected verify reports, in order
    lhs_oracle: dict = field(default_factory=dict)   # check -> closed form
    count: int = 0               # expected sweep records
    c_v_oracle: float | None = None

    @property
    def is_sweep(self) -> bool:
        return self.args[0] == "sweep"

    def argv(self, seed: int) -> list:
        return list(self.args) + ["--seed", str(seed)]

    def surface(self):
        """(space, surface, grid) specs of the surface this call builds."""
        a = dict(zip(self.args, self.args[1:]))
        surface = a.get("--surface") or f"geodesic-sphere:r={a['--radius']}"
        return a["--space"], surface, a["--grid"]


def _verify(label, space, surface, grid, sweep, checks, oracle):
    return Invocation(label, ("verify", *checks, "--space", space,
                              "--surface", surface, "--grid", grid,
                              "--sweep-count", str(sweep)),
                      checks=checks, lhs_oracle=oracle)


# Why each workload exists is recorded in BENCHMARK.json; sizes are chosen so
# that one pass takes a few seconds on a 2-core machine.
WORKLOADS = {
    # per-node charts and shape operators in hyperbolic and Euclidean
    # model_spaces, pure-Python overhead; the isoperimetric call uses charts
    # only (no shape-operator differences) across 25 surfaces.
    "surface-const": (
        _verify("e3-sphere", "euclidean:3", "geodesic-sphere:r=1", "16x32", 3,
                ("total-curvature", "willmore"),
                {"total-curvature": _sphere_tc(1.0),
                 "willmore": _sphere_tc(1.0)}),
        _verify("h3-sphere", "hyperbolic:3,kappa=1", "geodesic-sphere:r=1",
                "8x16", 3, ("total-curvature", "willmore"),
                {"total-curvature": _h3_sphere_tc(1.0),
                 "willmore": _h3_sphere_tc(1.0)}),
        Invocation("h3-isoperimetric",
                   ("verify", "isoperimetric", "--space",
                    "hyperbolic:3,kappa=1", "--radius", "0.5", "--grid", "4x8"),
                   checks=("isoperimetric",),
                   lhs_oracle={"isoperimetric": _h3_isoperimetric(0.5)}),
    ),
    # higher-rank path: numeric_kernel, SPD model_spaces (expm_frechet in
    # dexp) and lie_structure; no closed form, judged by reference values.
    "surface-spd": (
        _verify("spd-sphere", "spd:3", "geodesic-sphere:r=0.5", "3^4", 2,
                ("total-curvature", "willmore"), {}),
    ),
    # first-contact searches, Busemann values/gradients/Hessians and
    # Gauss-map finite differences; no grid integration.
    "sweep-jacobian": (
        Invocation("h3-graph-sweep",
                   ("sweep", "--jacobian", "--space", "hyperbolic:3,kappa=1",
                    "--surface", "radial-graph:base=1,mode=latitude,amp=0.2",
                    "--grid", "16x32", "--count", "12"), count=12),
        Invocation("spd-sphere-sweep",
                   ("sweep", "--jacobian", "--space", "spd:3",
                    "--surface", "geodesic-sphere:r=0.5", "--grid", "4^4",
                    "--count", "2"), count=2, c_v_oracle=0.5),
    ),
}

_SETUP_PROBE = """\
import json, sys
import horocurv.cli
from horocurv.hypersurface import Hypersurface, parse_grid, parse_surface
from horocurv.model_spaces import parse_space
for space_spec, surface_spec, grid in json.loads(sys.argv[1]):
    space = parse_space(space_spec)
    Hypersurface(space, space.origin(), parse_surface(surface_spec),
                 parse_grid(grid, space.total_dim - 1))
"""

# A fixed task of the same kind as a CLI call (fresh interpreter, numpy and
# scipy imports, Python loops, small eigensolves).  It runs before every pass
# so that the pass time can also be read relative to the machine's speed at
# that moment; on a shared machine that speed drifts by tens of percent
# within minutes.  Timed again at the start and end of every run, it is the
# calibration figure of the environment record.
_REFERENCE_TASK = """\
import numpy as np
import scipy.linalg
a = np.arange(9.0).reshape(3, 3) + 10.0 * np.eye(3)
acc = 0
for i in range(300_000):
    acc += i * i % 7
for _ in range(3_000):
    np.linalg.eigh(a)
"""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str
    err: str


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv) -> Child:
    """Run one process to completion; wall, CPU and max-RSS from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                 out=out.decode(errors="replace"),
                 err=err[0].decode(errors="replace"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, with the accuracy seen on the way."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)      # reason -> count
    oracle_rel_err: float | None = None
    ref_rel_dev: float | None = None
    max_s_residual: float | None = None

    def op(self, reasons):
        self.attempted += 1
        if reasons:
            self.failed += 1
            for r in reasons:
                self.reasons[r] = self.reasons.get(r, 0) + 1

    def worst(self, name, value):
        old = getattr(self, name)
        setattr(self, name, value if old is None else max(old, value))

    @property
    def unexpected(self) -> list:
        return sorted(r for r in self.reasons if r not in KNOWN_DEFECTS)


def _rel(a, b) -> float:
    return abs(a - b) / abs(b)


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    def __init__(self):
        import jsonschema
        schema = _load_json(SRC / "horocurv" / "report_schema.json")
        self.validator = jsonschema.Draft7Validator(schema)
        self.reference = _load_json(BENCH_DIR / "baseline.json")["reports"]

    def check(self, inv: Invocation, child: Child, tally: Tally):
        crash = []
        if child.code != 0:
            crash.append(f"exit code {child.code}")
        if "Traceback (most recent call last)" in child.err:
            crash.append("traceback")
            if "TypeError: Object of type bool is not JSON serializable" \
                    in child.err:
                crash = ["isoperimetric-emit-bool"]
        if inv.is_sweep:
            self._check_sweep(inv, child.out, crash, tally)
        else:
            self._check_verify(inv, child.out, crash, tally)

    def check_report_numbers(self, inv: Invocation, report: dict,
                             tally: Tally) -> list:
        """Oracle and reference checks of one report's numbers."""
        reasons = []
        expected = inv.lhs_oracle.get(report["check"])
        if expected is not None:
            err = _rel(report["lhs"], expected)
            tally.worst("oracle_rel_err", err)
            if not err <= ORACLE_TOL:
                reasons.append("closed-form miss")
        ref = self.reference.get(inv.label, {}).get(report["check"])
        if ref is not None:
            dev = max(_rel(report[k], ref[k]) for k in ("lhs", "rhs", "diameter"))
            tally.worst("ref_rel_dev", dev)
            if not dev <= REF_TOL:
                reasons.append("reference deviation")
        return reasons

    def _check_verify(self, inv, out, crash, tally):
        reports, reasons = [], list(crash)
        if not crash:
            try:
                reports = json.loads(out)
                errors = [e.message for e in self.validator.iter_errors(reports)]
                if errors:
                    reasons.append("schema: " + errors[0])
            except json.JSONDecodeError:
                reasons.append("output is not JSON")
        by_check = {r.get("check"): r for r in reports
                    if isinstance(r, dict)} if not reasons else {}
        for check in inv.checks:
            report = by_check.get(check)
            if report is None:
                tally.op(reasons or ["missing report"])
                continue
            bad = [] if report["pass"] is True else ["pass false"]
            tally.op(bad + self.check_report_numbers(inv, report, tally))

    def _check_sweep(self, inv, out, crash, tally):
        rows = [] if crash else list(csv.DictReader(io.StringIO(out)))
        for i in range(inv.count):
            if crash or i >= len(rows):
                tally.op(crash or ["missing record"])
                continue
            tally.op(self._record_reasons(inv, rows[i], tally))

    def _record_reasons(self, inv, row, tally) -> list:
        reasons, vals = [], {}
        for key, text in row.items():
            if key is None or not isinstance(text, str):
                reasons.append("malformed row")
                continue
            if text.startswith("np.float64("):
                reasons.append("sweep-np-float64-repr")
                text = text[len("np.float64("):-1]   # for the oracles only
            try:
                vals[key] = float(text)
            except ValueError:
                vals[key] = math.nan
            if not math.isfinite(vals[key]):
                reasons.append("non-finite field")
        reasons = sorted(set(reasons))
        if math.isfinite(vals.get("s_residual", math.nan)):
            tally.worst("max_s_residual", vals["s_residual"])
        if not vals.get("s_residual", math.nan) <= RESID_TOL:
            reasons.append("s_residual")
        if not (vals.get("eig_min_support", math.nan) >= EIG_FLOOR_SUPPORT
                and vals.get("eig_min_hessian", math.nan) >= EIG_FLOOR_HESSIAN):
            reasons.append("eigenvalue floor")
        if inv.c_v_oracle is not None:
            err = _rel(vals.get("c_v", math.nan), inv.c_v_oracle)
            tally.worst("oracle_rel_err", err)
            if not err <= ORACLE_TOL:
                reasons.append("closed-form miss")
        return reasons


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def reference_task() -> Child:
    return run_child([sys.executable, "-c", _REFERENCE_TASK])


def _blas(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    import numpy as np
    import scipy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas": {"numpy": _blas(np), "scipy": _blas(scipy)},
            "blas_pins": BLAS_PINS, "src_lines": src_lines}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _quartiles(xs) -> tuple:
    return tuple(statistics.quantiles(xs, n=4)) if len(xs) > 1 else (xs[0],) * 3


def run_pass(invs, seed, checker, tally, traced=False) -> list:
    children = []
    for inv in invs:
        head = ([sys.executable, str(BENCH_DIR / "tracer.py")] if traced
                else [sys.executable, "-m", "horocurv.cli"])
        child = run_child(head + inv.argv(seed))
        checker.check(inv, child, tally)
        children.append(child)
    return children


def measure(invs, seed, seconds, checker, tally) -> tuple:
    """End-to-end metrics of one workload; returns (metrics, samples)."""
    surfaces = json.dumps([inv.surface() for inv in invs])
    setups = [run_child([sys.executable, "-c", _SETUP_PROBE, surfaces])
              for _ in range(SETUP_REPS)]
    for s in setups:
        if s.code != 0:
            raise RuntimeError(f"setup probe failed:\n{s.err}")
    walls, cpus, rss, refs = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(
            walls) + refs[-1].wall <= seconds:
        refs.append(reference_task())
        children = run_pass(invs, seed, checker, tally)
        walls.append(sum(c.wall for c in children))
        cpus.append(sum(c.cpu for c in children))
        rss.append(max(c.rss_mb for c in children))
    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss,
               "setup_s": [s.wall for s in setups],
               "reference_s": [r.wall for r in refs],
               "wall_rel": [w / r.wall for w, r in zip(walls, refs)],
               "cpu_rel": [c / r.cpu for c, r in zip(cpus, refs)]}
    metrics = {name: (statistics.median(samples[name]), unit)
               for name, unit in (("wall_s", "s"), ("cpu_s", "s"),
                                  ("setup_s", "s"), ("wall_rel", "ratio"),
                                  ("cpu_rel", "ratio"))}
    metrics["peak_rss_mb"] = (max(rss), "MB")
    return metrics, samples


def _merge_traces(children) -> dict:
    total = {"fn": {}, "self_s": {}, "calls": {}, "counters": {},
             "reports": [], "pre_main_s": 0.0}
    for child in children:
        line = next(ln for ln in reversed(child.err.splitlines())
                    if ln.startswith(TRACE_MARKER))
        t = json.loads(line[len(TRACE_MARKER):])
        for name, (calls, secs, raised) in t["fn"].items():
            acc = total["fn"].setdefault(name, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += secs
            acc[2] += raised
        for key in ("self_s", "calls", "counters"):
            for name, v in t[key].items():
                total[key][name] = total[key].get(name, 0) + v
        total["reports"].append(t["reports"])
        total["pre_main_s"] += t["pre_main_s"]
    return total


def layer_metrics(t, untraced_wall, traced_wall) -> dict:
    """Per-layer metrics from merged trace stats: name -> (value, unit)."""
    fn, ctr = t["fn"], t["counters"]

    def calls(name):
        return fn.get(name, [0, 0.0, 0])[0]

    def per_call(name, scale):
        c, secs, _ = fn.get(name, [0, 0.0, 0])
        return secs / c * scale if c else 0.0

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, secs in t["self_s"].items():
        out[f"{layer}.self_s"] = (secs, "s")
        out[f"{layer}.calls"] = (t["calls"][layer], "count")

    def timed(metric, name, unit):
        scale = {"us": 1e6, "ms": 1e3}[unit]
        out[f"{metric}.{unit}"] = (per_call(name, scale), unit)
        out[f"{metric}.calls"] = (calls(name), "count")

    for f in ("spd_inv_sqrt", "sym_exp", "psd_sqrt"):
        timed(f"numeric_kernel.{f}", f"numeric_kernel.{f}", "us")
    out["numeric_kernel.SymMatrix.calls"] = (
        calls("numeric_kernel.SymMatrix.__init__"), "count")
    out["numeric_kernel.spd_inv_sqrt.repeat_frac"] = (frac(
        ctr["spd_inv_sqrt.repeats"], calls("numeric_kernel.spd_inv_sqrt")),
        "fraction")
    for kind in ("euclidean", "hyperbolic", "spd"):
        for op in ("exp", "dexp", "transport", "frame", "to_coords",
                   "from_coords"):
            timed(f"model_spaces.{kind}.{op}", f"model_spaces.{kind}.{op}", "us")
    out["model_spaces.spd.expm_frechet.us"] = (
        per_call("model_spaces.spd.expm_frechet", 1e6), "us")
    hs = "hypersurface.Hypersurface"
    timed("hypersurface.chart", f"{hs}.chart", "ms")
    timed("hypersurface.fundamental_forms", f"{hs}.fundamental_forms", "ms")
    timed("hypersurface.embed", f"{hs}.embed", "us")
    out["hypersurface.embed.fail_frac"] = (frac(
        fn.get(f"{hs}.embed", [0, 0, 0])[2], calls(f"{hs}.embed")), "fraction")
    out["hypersurface.fundamental_forms.cache_hit_frac"] = (frac(
        ctr["forms.cache_hits"], calls(f"{hs}.fundamental_forms")), "fraction")
    out["hypersurface.charts_per_node"] = (frac(
        calls(f"{hs}.chart"), ctr["surface_nodes"]), "charts/node")
    for f in ("area_weights", "diameter_extrinsic"):
        out[f"hypersurface.{f}.ms"] = (per_call(f"{hs}.{f}", 1e3), "ms")
    timed("verify_harness.first_contact", "verify_harness.first_contact", "ms")
    out["verify_harness.embed_per_direction"] = (frac(
        ctr["embed_in_first_contact"], calls("verify_harness.first_contact")),
        "embeds/dir")
    for f in ("total_curvature_check", "willmore_check", "isoperimetric_check",
              "contact_sweep"):
        out[f"verify_harness.{f}.s"] = (
            fn.get(f"verify_harness.{f}", [0, 0.0, 0])[1], "s")
    for f in ("value", "value_many", "gradient", "hessian"):
        timed(f"busemann.{f}", f"busemann.BusemannFunction.{f}", "us")
    timed("gauss_map.translate_direction", "gauss_map.translate_direction", "us")
    out["gauss_map.translate_direction.fail_frac"] = (frac(
        fn.get("gauss_map.translate_direction", [0, 0, 0])[2],
        calls("gauss_map.translate_direction")), "fraction")
    timed("gauss_map.differential_fd", "gauss_map.differential_fd", "ms")
    out["gauss_map.differential_fd.one_sided_frac"] = (frac(
        ctr["differential_fd.one_sided"], calls("gauss_map.differential_fd")),
        "fraction")
    out["cli.render.ms"] = (1e3 * sum(
        fn.get(f"cli.{f}", [0, 0.0, 0])[1]
        for f in ("render_reports", "render_sweep_csv")), "ms")
    out["trace_overhead"] = (traced_wall / untraced_wall, "ratio")
    out["trace_coverage"] = (
        (sum(t["self_s"].values()) + t["pre_main_s"]) / traced_wall, "fraction")
    return out


def trace(invs, seed, checker, tally) -> tuple:
    """Per-layer metrics from one untraced and one traced pass."""
    untraced = run_pass(invs, seed, checker, tally)
    traced = run_pass(invs, seed, checker, tally, traced=True)
    untraced_wall = sum(c.wall for c in untraced)
    traced_wall = sum(c.wall for c in traced)
    t = _merge_traces(traced)
    # closed forms on the reports the checks returned, even where the CLI
    # failed to print them
    for inv, reports in zip(invs, t["reports"]):
        for rep in reports:
            for reason in checker.check_report_numbers(inv, rep, tally):
                tally.reasons[f"{reason} (returned report)"] = 1
    metrics = layer_metrics(t, untraced_wall, traced_wall)
    # spans must cover the untraced work (less a margin for the machine's
    # speed drifting between the two passes) and fit inside the traced wall
    covered = sum(t["self_s"].values()) + t["pre_main_s"]
    if not untraced_wall / 1.5 <= covered <= traced_wall:
        tally.reasons["trace spans do not add up to the traced wall"] = 1
    samples = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
               "covered_s": covered, "fn": t["fn"]}
    return metrics, samples


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"]
            for m in _load_json(ROOT / "BENCHMARK.json")[kind]}


def run_one(workload, seed, seconds, traced, checker) -> dict:
    invs = WORKLOADS[workload]
    tally = Tally()
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    env["calibration_s_before"] = reference_task().wall
    if traced:
        metrics, samples = trace(invs, seed, checker, tally)
    else:
        metrics, samples = measure(invs, seed, seconds, checker, tally)
    env["calibration_s_after"] = reference_task().wall
    env["loadavg_after"] = os.getloadavg()
    checks = {"failed_frac": tally.failed / tally.attempted,
              "oracle_rel_err": tally.oracle_rel_err,
              "ref_rel_dev": tally.ref_rel_dev,
              "max_s_residual": tally.max_s_residual}
    declared = _declared("per_layer" if traced else "end_to_end")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    return {"workload": workload, "seed": seed, "trace": int(traced),
            "correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed, "failure_reasons": tally.reasons,
            "known_defects": {k: v for k, v in KNOWN_DEFECTS.items()
                              if k in tally.reasons},
            "checks": checks, "metrics": metrics, "samples": samples,
            "env": env,
            "result": {"correct": not tally.unexpected,
                       "attempted": tally.attempted, "failed": tally.failed,
                       "metrics": {name: {"value": metrics[name][0],
                                          "unit": unit}
                                   for name, unit in declared.items()}}}


def print_table(rec):
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"attempted={rec['attempted']} failed={rec['failed']} "
          f"correct={rec['correct']}")
    for name, value in rec["checks"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:52s} {shown}")
    for name, (value, unit) in rec["metrics"].items():
        extra = ""
        if name in rec["samples"]:
            q1, _, q3 = _quartiles(rec["samples"][name])
            extra = f"  (q1 {q1:.4g}, q3 {q3:.4g}, n {len(rec['samples'][name])})"
        print(f"  {name:52s} {value:.6g} {unit}{extra}")
    for reason, count in rec["failure_reasons"].items():
        note = " (known defect)" if reason in KNOWN_DEFECTS else ""
        print(f"  failure: {reason} x{count}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "horocurv" / "cli.py").is_file():
        print(f"perfbench: no horocurv sources under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 32
    checker = Checker()
    if args.workload == "all":
        runs = [(w, t) for w in sorted(WORKLOADS) for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    RESULTS.mkdir(exist_ok=True)
    records = []
    for workload, traced in runs:
        rec = run_one(workload, seed, args.seconds, traced, checker)
        out = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}.json"
        out.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
        print_table(rec)
        records.append(rec)
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {"correct": all(r["correct"] for r in records),
                  "attempted": sum(r["attempted"] for r in records),
                  "failed": sum(r["failed"] for r in records),
                  "metrics": {f"{r['workload']}.{name}": m
                              for r in records
                              for name, m in r["result"]["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
