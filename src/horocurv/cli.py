"""Command-line entry point: `horocurv verify|audit|sweep`.

Subcommands:

* verify CHECK [CHECK ...] -- run named checks against a space/surface.
* audit [det-audit sqrt-audit] -- the standalone matrix inequalities.
* sweep -- the contact table of a direction sweep as CSV/JSON, one row
  per direction.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 bad
configuration (unparseable spec or config value, a flag the subcommand
does not read, unknown check, config key or report format, negative
seed, sample count, dimension or node count, a sampled check's radius
that is not positive, empty sweep, non-sphere isoperimetric surface or
one whose radius differs from --radius, unwritable output).  Reports are
byte-stable across reruns except the runtime_ms field.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
from dataclasses import dataclass, fields, replace

from . import verify_harness as vh
from .errors import ConfigError, HorocurvError
from .hypersurface import Hypersurface, parse_grid, parse_surface
from .model_spaces import parse_space

CHECK_NAMES = ("hessian-oracle", "hessian-bounds", "lipschitz",
               "gauss-consistency", "contact", "jacobian", "total-curvature",
               "willmore", "isoperimetric", "det-audit", "sqrt-audit")
SURFACE_CHECKS = {"gauss-consistency", "contact", "jacobian",
                  "total-curvature", "willmore"}
SWEEP_FORMAT = "csv"           # default report format of `sweep`


@dataclass
class SuiteConfig:
    """One verification run: what to check, on what, with what knobs."""

    checks: list
    space: str = ""
    surface: str = ""
    grid: str = ""
    seed: int = 42
    samples: int = 0            # 0 = per-check default
    sweep_count: int = vh.SWEEP_COUNT
    radius: float | None = None  # None = per-check default
    dim: int = 0                # 0 = per-audit default
    min_nodes: int = 1000
    output: str = ""
    format: str = "json"


def parse_config_text(text: str, defaults: SuiteConfig | None = None
                      ) -> SuiteConfig:
    """Parse the `key = value` config file format: one line per
    SuiteConfig field, `checks` a space-separated list, `#` comments.

    Keys the file leaves out keep their values in `defaults`.
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise HorocurvError(f"config line {lineno}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key == "checks":
            raw["checks"] = val.split()
        else:
            raw[key] = val
    cfg = replace(defaults or SuiteConfig(checks=[]),
                  checks=raw.pop("checks", []))
    for f in fields(SuiteConfig):
        if f.name in raw:
            v = raw.pop(f.name)
            kind = {"int": int, "float": float,
                    "float | None": float}.get(f.type, str)
            try:
                setattr(cfg, f.name, kind(v))
            except ValueError:
                raise ConfigError(f"config key {f.name} = {v!r} is not a "
                                  f"valid {kind.__name__}") from None
    if raw:
        raise HorocurvError(f"unknown config keys: {sorted(raw)}")
    return cfg


def _build_surface(cfg: SuiteConfig):
    space = parse_space(cfg.space)
    o = space.origin()
    profile = parse_surface(cfg.surface or "geodesic-sphere:r=1")
    n = space.total_dim - 1
    counts = parse_grid(cfg.grid, n) if cfg.grid else None
    return space, o, Hypersurface(space, o, profile, counts)


def run_suite(cfg: SuiteConfig):
    """Execute the configured checks in declared order; never aborts early."""
    for name in cfg.checks:
        if name not in CHECK_NAMES:
            raise HorocurvError(f"unknown check {name!r}")
    reports = []
    # only the options given (a count of 0 is none); each check keeps its
    # own defaults for the others
    sampled = {} if cfg.radius is None else {"radius": cfg.radius}
    audited = {"dim": cfg.dim} if cfg.dim else {}
    if cfg.samples:
        sampled["samples"] = audited["samples"] = cfg.samples
    space = o = M = None
    if any(c in SURFACE_CHECKS for c in cfg.checks):
        space, o, M = _build_surface(cfg)
    elif cfg.space:
        space = parse_space(cfg.space)
        o = space.origin()
    for name in cfg.checks:
        if name in SURFACE_CHECKS and M is None:
            raise HorocurvError(f"check {name!r} needs --space/--surface")
        if name == "hessian-oracle":
            rep = vh.hessian_oracle_check(space, o, seed=cfg.seed, **sampled)
        elif name == "hessian-bounds":
            rep = vh.hessian_bounds_check(space, o, seed=cfg.seed, **sampled)
        elif name == "lipschitz":
            rep = vh.lipschitz_check(space, o, seed=cfg.seed, **sampled)
        elif name == "gauss-consistency":
            rep = vh.gauss_consistency_check(M, o, cfg.min_nodes, cfg.seed)
        elif name == "contact":
            rep = vh.contact_check(M, o, cfg.sweep_count, cfg.seed)
        elif name == "jacobian":
            rep = vh.jacobian_sweep_check(M, o, cfg.sweep_count, cfg.seed)
        elif name == "total-curvature":
            rep = vh.total_curvature_check(M, o, cfg.sweep_count, cfg.seed)
        elif name == "willmore":
            rep = vh.willmore_check(M, o)
        elif name == "isoperimetric":
            space = parse_space(cfg.space)
            r = 1.0 if cfg.radius is None else cfg.radius
            if cfg.surface:
                prof = parse_surface(cfg.surface)
                if prof.amp != 0.0:
                    raise ConfigError("isoperimetric runs on geodesic balls; "
                                      f"surface {cfg.surface!r} is no sphere")
                if cfg.radius is not None and cfg.radius != prof.base:
                    raise ConfigError(f"radius {cfg.radius} differs from the "
                                      f"radius of surface {cfg.surface!r}")
                r = prof.base
            counts = (parse_grid(cfg.grid, space.total_dim - 1)
                      if cfg.grid else None)
            rep = vh.isoperimetric_check(space, space.origin(), r,
                                         grid_counts=counts)
        elif name == "det-audit":
            rep = vh.det_comparison_audit(seed=cfg.seed, **audited)
        elif name == "sqrt-audit":
            rep = vh.sqrt_perturbation_audit(seed=cfg.seed, **audited)
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

_CSV_FIELDS = ["check", "space", "surface", "grid", "kappa", "diameter",
               "lhs", "rhs", "margin", "pass", "tolerances", "seed",
               "runtime_ms"]


def render_reports(reports, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2,
                          sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
        w.writeheader()
        for r in reports:
            row = r.to_dict()
            row["tolerances"] = json.dumps(row["tolerances"], sort_keys=True)
            w.writerow(row)
        return buf.getvalue()
    raise HorocurvError(f"unknown report format {fmt!r}")


def emit_report(text: str, path: str):
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise HorocurvError(f"cannot write report to {path!r}: {e}") from e


_SWEEP_FIELDS = ["direction", "c_v", "tie_tol", "s_residual",
                 "eig_min_support", "eig_min_hessian", "GK", "jacobian",
                 "stencil_ok"]


def _sweep_rows(sweep):
    """One row of _SWEEP_FIELDS values (plain Python numbers) per direction
    of a contact table; jacobian None if unmeasured."""
    jac = [None if math.isnan(j) else j for j in sweep.jacobian.tolist()]
    return zip(range(len(jac)), sweep.c_v.tolist(), sweep.tie_tol.tolist(),
               sweep.s_residual.tolist(), sweep.eig_min_support.tolist(),
               sweep.eig_min_hessian.tolist(), sweep.GK.tolist(), jac,
               sweep.stencil_ok.astype(int).tolist())


def render_sweep_csv(sweep) -> str:
    """A contact table as CSV, one row per direction (floats in repr, empty
    jacobian when unmeasured)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_SWEEP_FIELDS)
    w.writerows(_sweep_rows(sweep))
    return buf.getvalue()


def render_sweep_json(sweep) -> str:
    """A contact table as a JSON list of CSV-named objects."""
    return json.dumps([dict(zip(_SWEEP_FIELDS, row))
                       for row in _sweep_rows(sweep)], indent=2) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_AUDIT_OPTIONS = ("seed", "samples", "dim", "output", "format")
_SWEEP_OPTIONS = ("space", "surface", "grid", "seed", "sweep_count", "output",
                  "format")


def _add_common(p, names, *count_aliases):
    # the options of SuiteConfig are absent unless given (its fields hold the
    # defaults), so a flag wins over --config even when it repeats a default
    def add(flag, *aliases, **kw):
        if flag[2:].replace("-", "_") in names:
            p.add_argument(flag, *aliases, default=argparse.SUPPRESS, **kw)

    add("--space", help="space spec, e.g. "
        "hyperbolic:3,kappa=1 or spd:3xeuclidean:2")
    add("--surface", help="geodesic-sphere:r=R or "
        "radial-graph:base=R,mode=M,amp=A")
    add("--grid", help="LATxLON (n=2) or K^N (n>=3)")
    add("--seed", type=int)
    add("--samples", type=int,
        help="sample count for sampled checks (0 = default)")
    add("--sweep-count", *count_aliases, dest="sweep_count", type=int,
        help="number of sweep directions")
    add("--radius", type=float)
    add("--dim", type=int, help="matrix dimension for audits (0 = default)")
    add("--min-nodes", type=int)
    add("--output", help="report path ('-' = stdout)")
    add("--format", choices=("json", "csv"))
    p.add_argument("--config", default="", help="key = value config file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="horocurv",
        description="verify total-curvature, Willmore and isoperimetric "
                    "inequalities on nonpositively curved symmetric spaces")
    sub = ap.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run named verification checks")
    pv.add_argument("checks", nargs="*", metavar="CHECK",
                    help=f"one of: {', '.join(CHECK_NAMES)} "
                         "(default: the config file's checks)")
    _add_common(pv, [f.name for f in fields(SuiteConfig)])
    pa = sub.add_parser("audit", help="standalone matrix inequality audits")
    pa.add_argument("checks", nargs="*", metavar="AUDIT",
                    help="det-audit and/or sqrt-audit (default: the config "
                         "file's checks, else both)")
    _add_common(pa, _AUDIT_OPTIONS)
    ps = sub.add_parser("sweep", help="per-direction contact records")
    ps.add_argument("--jacobian", action="store_true",
                    help="also measure the Gauss-map Jacobian per direction")
    _add_common(ps, _SWEEP_OPTIONS, "--count")
    return ap


def config_from_args(args) -> SuiteConfig:
    """The run configuration: the --config file if any, flags win over it."""
    cfg = SuiteConfig(checks=[], format=SWEEP_FORMAT
                      if args.command == "sweep" else "json")
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read(), cfg)
    if getattr(args, "checks", None):
        cfg.checks = list(args.checks)
    elif not cfg.checks and args.command == "audit":   # none given: both
        cfg.checks = ["det-audit", "sqrt-audit"]
    for f in fields(SuiteConfig):
        if f.name != "checks" and hasattr(args, f.name):
            setattr(cfg, f.name, getattr(args, f.name))
    for name in ("seed", "samples", "dim", "min_nodes"):
        if getattr(cfg, name) < 0:
            raise ConfigError(
                f"{name} must be non-negative, got {getattr(cfg, name)}")
    if cfg.format not in ("json", "csv"):
        raise ConfigError(f"unknown report format {cfg.format!r}")
    return cfg


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "sweep":
            _, o, M = _build_surface(cfg)
            sweep = vh.contact_sweep(M, o, cfg.sweep_count, cfg.seed,
                                     measure_jacobian=args.jacobian)
            render = (render_sweep_csv if cfg.format == "csv"
                      else render_sweep_json)
            emit_report(render(sweep), cfg.output)
            return 0
        if not cfg.checks:
            raise HorocurvError("no checks requested")
        reports = run_suite(cfg)
    except HorocurvError as e:
        print(f"horocurv: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"horocurv: error: {e}", file=sys.stderr)
        return 2
    try:
        emit_report(render_reports(reports, cfg.format), cfg.output)
    except HorocurvError as e:
        print(f"horocurv: error: {e}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


def run():
    """Process entry point: main(), then exit with the heap frozen, which
    the exit-time collections skip; main() leaves the heap collectable."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
