"""Golden CLI reports: the benchmark invocations and a surface-check run.

`tests/data/golden_reports.json` holds the stdout of each invocation below
at seed 1, with `runtime_ms` set to 0.  The test reruns each one in-process
and compares field by field: text fields, `pass` and `stencil_ok` exactly,
numbers within a tolerance per field.  A refactor that claims
byte-stable reports must pass it unchanged.  To record new goldens (only
for a change that means to move the numbers), run this file as a script:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import csv
import io
import json
import re
import sys
from pathlib import Path

import pytest

from horocurv.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

_H3 = "hyperbolic:3,kappa=1"
_GRAPH = "radial-graph:base=1,mode=latitude,amp=0.2"
INVOCATIONS = {
    "e3-sphere": ["verify", "total-curvature", "willmore", "--space",
                  "euclidean:3", "--surface", "geodesic-sphere:r=1",
                  "--grid", "16x32", "--sweep-count", "3"],
    "h3-sphere": ["verify", "total-curvature", "willmore", "--space", _H3,
                  "--surface", "geodesic-sphere:r=1", "--grid", "8x16",
                  "--sweep-count", "3"],
    "h3-isoperimetric": ["verify", "isoperimetric", "--space", _H3,
                         "--radius", "0.5", "--grid", "4x8"],
    "spd-sphere": ["verify", "total-curvature", "willmore", "--space",
                   "spd:3", "--surface", "geodesic-sphere:r=0.5", "--grid",
                   "3^4", "--sweep-count", "2"],
    "h3-graph-sweep": ["sweep", "--jacobian", "--space", _H3, "--surface",
                       _GRAPH, "--grid", "16x32", "--count", "12"],
    "spd-sphere-sweep": ["sweep", "--jacobian", "--space", "spd:3",
                         "--surface", "geodesic-sphere:r=0.5", "--grid",
                         "4^4", "--count", "2"],
    "h3-graph-checks": ["verify", "contact", "jacobian", "total-curvature",
                        "--space", _H3, "--surface", _GRAPH, "--grid",
                        "16x32", "--sweep-count", "20"],
}
SEED = ["--seed", "1"]

# relative tolerance per numeric field; the stopping rules of the contact
# ascent and the finite-difference stencil bound how far a refactor may
# move each one (c_v to rounding, stencil quantities to 1e-6)
REL_TOL = {"c_v": 1e-13, "tie_tol": 1e-13, "GK": 1e-6, "jacobian": 1e-6,
           "eig_min_support": 1e-6, "lhs": 1e-9, "rhs": 1e-13,
           "diameter": 1e-13, "kappa": 0.0}
# fields that are zero in exact arithmetic (the residual at the maximizer,
# the Hessian eigenvalue along grad B_v): an absolute tolerance, far below
# their gates
ABS_TOL = {"s_residual": 1e-6, "eig_min_hessian": 1e-12}
# a report field that carries one sweep quantity takes that quantity's
# tolerance: a contact report's lhs is its worst s_residual (and its
# margin RESID_TOL - lhs), a jacobian report's lhs and rhs are one
# contact's J and e^{n(n+1) kappa D} |GK|
REPORT_QUANTITY = {("contact", "lhs"): "s_residual",
                   ("contact", "margin"): "s_residual",
                   ("jacobian", "lhs"): "jacobian",
                   ("jacobian", "rhs"): "jacobian"}
MARGIN_REL_TOL = {"jacobian": REL_TOL["jacobian"]}     # else 1e-9
EXACT = {"check", "space", "surface", "grid", "pass", "tolerances", "seed",
         "direction", "stencil_ok"}


def _scrub(text: str) -> str:
    return re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0', text)


def _rows(argv, text):
    """The report rows of an invocation's stdout, as dicts."""
    if argv[0] == "sweep":
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


def _close(key, got, want, row) -> bool:
    if want is None or got is None or want == "" or got == "":
        return got == want
    got, want = float(got), float(want)
    key = REPORT_QUANTITY.get((row.get("check"), key), key)
    if key == "margin":            # a difference of lhs and rhs
        scale = max(abs(float(row["lhs"])), abs(float(row["rhs"])))
        return abs(got - want) <= MARGIN_REL_TOL.get(row["check"], 1e-9) * scale
    if key in ABS_TOL:
        return abs(got - want) <= ABS_TOL[key]
    return abs(got - want) <= REL_TOL[key] * abs(want)


@pytest.mark.parametrize("label", list(INVOCATIONS))
def test_reports_match_golden(label, capsys):
    golden = json.loads(GOLDEN.read_text())[label]
    argv = INVOCATIONS[label] + SEED
    assert main(argv) == golden["exit_code"]
    got = _rows(argv, _scrub(capsys.readouterr().out))
    want = _rows(argv, golden["stdout"])
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w), f"{label} row {i}: fields differ"
        for key in w:
            if key == "runtime_ms":
                continue
            if key in EXACT:
                assert g[key] == w[key], f"{label} row {i}: {key}"
            else:
                assert _close(key, g[key], w[key], w), (
                    f"{label} row {i}: {key} {g[key]!r} != {w[key]!r}")


def _record():
    out = {}
    for label, argv in INVOCATIONS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv + SEED)
        out[label] = {"argv": argv + SEED, "exit_code": code,
                      "stdout": _scrub(buf.getvalue())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
