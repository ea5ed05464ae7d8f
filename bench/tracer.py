"""Span tracing of eucalc from outside the package.

``Tracer.install`` wraps the functions of every eucalc module and the listed
methods of its classes.  Modules import each other's functions by name
(``from .cfnd import pushforward_linear``), so a wrapper replaces the
original in every eucalc namespace that binds it, and in the ``SUITES``
table of ``verify``.  Each call records a span (name, start, end, parent,
request) in flat arrays; ``uninstall`` puts the originals back.

Hot leaf functions are left unwrapped, because a span costs about a
microsecond: ``CF1D.evaluate`` alone runs hundreds of thousands of times in
a small verify run.
"""

import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from gen import SUITE_NAMES

LAYERS = ("cli", "transforms", "cfnd", "cf1d", "kernels", "geometry",
          "complexes", "radon", "verify")

# module functions too small and too frequent to trace
SKIP = {"geometry.as_vector"}

# methods traced on the class; every other method is a leaf or a constructor
METHODS = {
    "cf1d.CF1D": ("add", "__mul__", "restrict", "from_evaluator", "convolve",
                  "decompose", "dualize", "pushforward_affine", "lebesgue_pair",
                  "euler_integral"),
    "kernels.Kernel": ("integrate",),
    "complexes.StepCurve": ("to_cf1d",),
}

# names bound from outside eucalc whose calls are layer work
FOREIGN = {"cfnd.linprog": ("cfnd", "linprog")}


def _count_terms(args, kwargs, result, counters):
    counters["cfnd.generators_pushed"] += len(args[0].terms)


def _count_candidates(args, kwargs, result, counters):
    # from_evaluator(cls, candidates, fn) after classmethod binding
    counters["cf1d.candidates_in"] += len(args[1])
    counters["cf1d.breakpoints_out"] += len(result.breakpoints)


def _count_pieces(args, kwargs, result, counters):
    counters["cf1d.pieces_paired"] += sum(1 for v in args[0].interval_values if v)


def _count_cells(args, kwargs, result, counters):
    cells = [v for row in result.values for v in row]
    counters["transforms.cells"] += len(cells)
    counters["transforms.missing_cells"] += sum(v is None for v in cells)


def _count_mesh(args, kwargs, result, counters):
    counters["complexes.mesh_cells"] += len(result[0].cells)


def _count_cases(args, kwargs, result, counters):
    counters["verify.cases"] += sum(r.cases for r in result)


AFTER = {
    "cfnd.pushforward_linear": _count_terms,
    "cf1d.CF1D.from_evaluator": _count_candidates,
    "cf1d.CF1D.lebesgue_pair": _count_pieces,
    "transforms.grid_eval": _count_cells,
    "complexes.mesh_from_json": _count_mesh,
    "verify.run_suites": _count_cases,
}


class Tracer:
    """Spans and counters of one traced stream."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.request = array("i")
        self.current_request = -1
        self.stack = []
        self.counters = defaultdict(int)
        self.originals = {}  # wrapper -> original
        self._restore = []

    # -- recording --------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        after = AFTER.get(name)
        stack, counters = self.stack, self.counters
        parent_arr, name_arr, start_arr, end_arr, req_arr = (
            self.parent, self.name, self.start, self.end, self.request)
        count_oracle = name == "complexes.chi_region"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_oracle:
                args = (args[0], _counting(args[1], counters)) + args[2:]
            sid = len(parent_arr)
            parent_arr.append(stack[-1] if stack else -1)
            name_arr.append(nid)
            start_arr.append(0.0)
            end_arr.append(0.0)
            req_arr.append(self.current_request)
            stack.append(sid)
            start_arr[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_arr[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, counters)
            return result

        self.originals[wrapper] = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every traced callable in every eucalc namespace."""
        modules = {layer: sys.modules[f"eucalc.{layer}"] for layer in LAYERS}
        namespaces = [sys.modules["eucalc"], *modules.values()]
        replace = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    replace[id(obj)] = self.wrap(name, obj)
        for name, (layer, attr) in FOREIGN.items():
            obj = getattr(modules[layer], attr)
            replace[id(obj)] = self.wrap(name, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and self.originals[wrapper] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)
        suites = modules["verify"].SUITES
        for key, obj in list(suites.items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                self._restore.append((suites, key, obj))
                suites[key] = wrapper
        for qualname, methods in METHODS.items():
            layer, cls_name = qualname.split(".")
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                raw = cls.__dict__[attr]
                self._restore.append((cls, attr, raw))
                name = f"{qualname}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))

    def uninstall(self):
        for target, attr, obj in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = obj
            else:
                setattr(target, attr, obj)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def span_stats(self):
        """{name: (calls, total seconds, self seconds)} over all spans."""
        n = len(self.parent)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        stats = {}
        for sid in range(n):
            name = self.names[self.name[sid]]
            dur = self.end[sid] - self.start[sid]
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (calls + 1, total + dur, own + dur - child[sid])
        return stats

    def write_jsonl(self, path):
        """One JSON object per span: id, parent (-1 at a request's root),
        name, request index, and start and end in microseconds from the
        first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            for sid in range(len(self.parent)):
                out.write(json.dumps({
                    "id": sid, "parent": self.parent[sid],
                    "name": self.names[self.name[sid]],
                    "request": self.request[sid],
                    "start_us": round((self.start[sid] - t0) * 1e6, 1),
                    "end_us": round((self.end[sid] - t0) * 1e6, 1),
                }) + "\n")


def _counting(oracle, counters):
    def counted(cell):
        counters["complexes.oracle_calls"] += 1
        return oracle(cell)
    return counted


# -- per-layer metrics ------------------------------------------------------------

# metric -> (span name, field): field is calls, total (inclusive seconds) or
# self (seconds not covered by child spans)
SPAN_METRICS = {
    "cf1d.add_calls": ("cf1d.CF1D.add", "calls"),
    "cf1d.from_evaluator_calls": ("cf1d.CF1D.from_evaluator", "calls"),
    "cf1d.from_evaluator_s": ("cf1d.CF1D.from_evaluator", "self"),
    "cf1d.convolve_s": ("cf1d.CF1D.convolve", "total"),
    "cf1d.recompose_s": ("cf1d.recompose", "total"),
    "cf1d.lebesgue_pair_calls": ("cf1d.CF1D.lebesgue_pair", "calls"),
    "cf1d.lebesgue_pair_s": ("cf1d.CF1D.lebesgue_pair", "self"),
    "kernels.integrate_calls": ("kernels.Kernel.integrate", "calls"),
    "kernels.integrate_s": ("kernels.Kernel.integrate", "total"),
    "cfnd.pushforward_linear_calls": ("cfnd.pushforward_linear", "calls"),
    "cfnd.pushforward_linear_s": ("cfnd.pushforward_linear", "self"),
    "cfnd.expand_box_calls": ("cfnd.expand_box", "calls"),
    "cfnd.expand_box_s": ("cfnd.expand_box", "total"),
    "cfnd.evaluate_calls": ("cfnd.evaluate", "calls"),
    "cfnd.is_cone_constructible_s": ("cfnd.is_cone_constructible", "total"),
    "geometry.support_interval_calls": ("geometry.support_interval", "calls"),
    "geometry.support_interval_s": ("geometry.support_interval", "total"),
    "geometry.dist_to_simplex_calls": ("geometry.dist_to_simplex", "calls"),
    "geometry.dist_to_simplex_s": ("geometry.dist_to_simplex", "total"),
    "transforms.grid_eval_s": ("transforms.grid_eval", "self"),
    "transforms.hybrid_transform_calls": ("transforms.hybrid_transform", "calls"),
    "transforms.grid_to_csv_s": ("transforms.grid_to_csv", "total"),
    "complexes.chi_region_calls": ("complexes.chi_region", "calls"),
    "complexes.chi_region_s": ("complexes.chi_region", "self"),
    "complexes.sublevel_curve_s": ("complexes.sublevel_curve", "self"),
    "complexes.cell_distances_s": ("complexes.cell_distances", "total"),
    "complexes.euler_bessel_s": ("complexes.euler_bessel", "self"),
    "radon.recover_pushforward_calls": ("radon.recover_pushforward", "calls"),
    "radon.recover_pushforward_s": ("radon.recover_pushforward", "total"),
}
COUNTER_METRICS = (
    "cf1d.candidates_in", "cf1d.breakpoints_out", "cf1d.pieces_paired",
    "cfnd.generators_pushed", "transforms.cells", "transforms.missing_cells",
    "complexes.oracle_calls", "complexes.mesh_cells",
)
# self time of the two JSON loaders the command line calls
LOAD_SPANS = ("cfnd.scene_from_json", "complexes.mesh_from_json")

# Metrics that only ``verify_small`` moves: the 22 suites of ``eucalc
# verify`` (timed inclusively), its case count, and the cfnd and complexes
# functions that only the suites call.  They are reported on that workload alone and are
# not in BENCHMARK.json, whose workloads leave them at 0.  No workload
# reaches ``linprog`` at the seed commit; it stays listed so that a change
# that starts calling it shows.
VERIFY_SPAN_METRICS = {
    "cfnd.linprog_calls": ("cfnd.linprog", "calls"),
    "cfnd.linprog_s": ("cfnd.linprog", "total"),
    "cfnd.convolve_nd_s": ("cfnd.convolve_nd", "total"),
    "complexes.level_curve_s": ("complexes.level_curve", "total"),
    **{f"verify.{suite}_s": (f"verify.suite_{suite}", "total")
       for suite in SUITE_NAMES},
}
VERIFY_COUNTER_METRICS = ("verify.cases",)


def _tables(workload):
    if workload == "verify_small":
        return ({**SPAN_METRICS, **VERIFY_SPAN_METRICS},
                COUNTER_METRICS + VERIFY_COUNTER_METRICS)
    return SPAN_METRICS, COUNTER_METRICS


def metric_units(workload=None):
    """{metric: unit} for every per-layer metric of ``workload``, in report
    order; the default is the set of BENCHMARK.json."""
    spans, counters = _tables(workload)
    units = {}
    for name in [*spans, *counters]:
        units[name] = "s" if name.endswith("_s") else "count"
    units["cli.load_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def layer_metrics(tracer, workload=None):
    """{metric: value} from one traced stream (without the overhead)."""
    spans, counters = _tables(workload)
    stats = tracer.span_stats()
    field = {"calls": 0, "total": 1, "self": 2}
    out = {}
    for metric, (span, kind) in spans.items():
        out[metric] = stats.get(span, (0, 0.0, 0.0))[field[kind]]
    for metric in counters:
        out[metric] = tracer.counters.get(metric, 0)
    out["cli.load_s"] = sum(stats.get(s, (0, 0.0, 0.0))[2] for s in LOAD_SPANS)
    return out
