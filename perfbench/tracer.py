"""Traced `horocurv` CLI process: per-module spans recorded from outside.

Run as ``python3 perfbench/tracer.py CLI_ARG...`` with ``src`` on
``PYTHONPATH``.  The script imports the eight modules of ``horocurv``,
replaces their public functions and methods with timing wrappers, runs
``horocurv.cli.main`` on the arguments and exits with its code, exactly as
``python -m horocurv.cli`` would.  The CLI's report goes to stdout
unchanged, so the caller can check it like an untraced one.

Every wrapped call is a span of the module (layer) that defines it.  Spans
are aggregated in memory while the CLI runs and written out once, as one
line ``PERFBENCH-TRACE {json}`` at the end of stderr.  A layer's self time
is the time during which its span is the innermost open span, so nested
spans of the same layer are not counted twice and the self times of all
layers add up to the duration of the outermost span (``cli.main``).

Names are patched in every module namespace that binds them (for example
``spd_inv_sqrt`` in ``model_spaces`` and ``busemann``, ``differential_fd``
in ``verify_harness``), and factor methods are patched on each factor
class, so model-space costs come out per factor kind.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import dataclasses  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import numbers  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

LAYERS = ("numeric_kernel", "lie_structure", "model_spaces", "busemann",
          "gauss_map", "hypersurface", "verify_harness", "cli")
MARKER = "PERFBENCH-TRACE "
_MISSING = object()


class Tracer:
    """Wraps the public callables of each layer and aggregates their spans."""

    def __init__(self):
        self.clock = time.perf_counter
        self.fn = {}                   # span name -> [calls, seconds, raised]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = {"spd_inv_sqrt.repeats": 0, "forms.cache_hits": 0,
                         "surface_nodes": 0, "embed_in_first_contact": 0,
                         "differential_fd.one_sided": 0}
        self.reports = []              # numbers of reports the checks returned
        self._cur = None               # layer of the innermost open span
        self._stack = []
        self._t_last = self.clock()
        self._seen_inputs = set()
        self._forms_seen = {}
        self._first_contact_depth = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, layer, t):
        if self._cur is not None:
            self.self_s[self._cur] += t - self._t_last
        self._stack.append(self._cur)
        self._cur = layer
        self._t_last = t
        self.calls[layer] += 1

    def _leave(self, t):
        self.self_s[self._cur] += t - self._t_last
        self._cur = self._stack.pop()
        self._t_last = t

    def wrap(self, fn, name, layer, before=None, after=None):
        """A callable that runs `fn` inside a span `name` of `layer`."""
        stats = self.fn.setdefault(name, [0, 0.0, 0])
        clock, enter, leave = self.clock, self._enter, self._leave

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            result = _MISSING
            t0 = clock()
            enter(layer, t0)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                leave(t1)
                stats[0] += 1
                stats[1] += t1 - t0
                if result is _MISSING:
                    stats[2] += 1
                if after is not None:
                    after(args, result)

        return traced

    # -- hooks for the ratios measured at layer boundaries ------------------

    def _spd_inv_sqrt_before(self, args):
        key = np.asarray(args[0], dtype=float).tobytes()
        if key in self._seen_inputs:
            self.counters["spd_inv_sqrt.repeats"] += 1
        else:
            self._seen_inputs.add(key)

    def _forms_after(self, args, result):
        surface, node = args[0], args[1]
        if result is _MISSING or not isinstance(node, numbers.Integral):
            return
        key = (id(surface), int(node))
        if self._forms_seen.get(key) is result:
            self.counters["forms.cache_hits"] += 1
        self._forms_seen[key] = result

    def _surface_after(self, args, result):
        if result is not _MISSING:
            self.counters["surface_nodes"] += args[0].size

    def _embed_before(self, args):
        if self._first_contact_depth:
            self.counters["embed_in_first_contact"] += 1

    def _first_contact_before(self, args):
        self._first_contact_depth += 1

    def _first_contact_after(self, args, result):
        self._first_contact_depth -= 1

    def _differential_after(self, args, result):
        if result is not _MISSING and result.one_sided:
            self.counters["differential_fd.one_sided"] += 1

    def _report_after(self, args, result):
        if result is not _MISSING:
            self.reports.append({"check": result.check, "lhs": result.lhs,
                                 "rhs": result.rhs,
                                 "diameter": result.diameter})

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every public callable of the eight layers in place."""
        modules = {layer: importlib.import_module(f"horocurv.{layer}")
                   for layer in LAYERS}
        hooks = {
            "numeric_kernel.spd_inv_sqrt": (self._spd_inv_sqrt_before, None),
            "hypersurface.Hypersurface.fundamental_forms": (
                None, self._forms_after),
            "hypersurface.Hypersurface.__init__": (None, self._surface_after),
            "hypersurface.Hypersurface.embed": (self._embed_before, None),
            "verify_harness.first_contact": (self._first_contact_before,
                                             self._first_contact_after),
            "gauss_map.differential_fd": (None, self._differential_after),
        }
        for check in ("total_curvature_check", "willmore_check",
                      "isoperimetric_check"):
            hooks[f"verify_harness.{check}"] = (None, self._report_after)

        replacements = {}              # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = self.wrap(
                        obj, name, layer, *hooks.get(name, (None, None)))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, hooks)
        # scipy's Frechet derivative is the SPD dexp kernel of model_spaces
        ms = modules["model_spaces"]
        replacements[id(ms.expm_frechet)] = self.wrap(
            ms.expm_frechet, "model_spaces.spd.expm_frechet", "model_spaces")
        # rebind each wrapped function wherever a layer imported it
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    setattr(mod, attr, replacements[id(obj)])

    def _wrap_class(self, cls, layer, hooks):
        # factor classes are named by kind, so costs come out per kind
        prefix = f"{layer}.{getattr(cls, 'kind', cls.__name__)}"
        names = [a for a in vars(cls) if not a.startswith("_")]
        if not dataclasses.is_dataclass(cls) and "__init__" in vars(cls):
            names.append("__init__")
        for attr in names:
            obj = vars(cls)[attr]
            if not inspect.isfunction(obj):
                continue                       # properties, static methods
            name = f"{prefix}.{attr}"
            before, after = hooks.get(name, (None, None))
            setattr(cls, attr, self.wrap(obj, name, layer, before, after))

    def summary(self) -> dict:
        return {"fn": self.fn, "self_s": self.self_s, "calls": self.calls,
                "counters": self.counters, "reports": self.reports}


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    import horocurv.cli as cli
    main_start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as e:            # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    except Exception:                  # what `python -m horocurv.cli` shows
        traceback.print_exc()
        code = 1
    end = time.perf_counter()
    sys.stdout.flush()
    out = tracer.summary()
    out["pre_main_s"] = main_start - _T_START
    out["main_s"] = end - main_start
    sys.stderr.write("\n" + MARKER + json.dumps(out) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
