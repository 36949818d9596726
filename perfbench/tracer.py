"""Outside-in tracing of czo: spans around calls into each module.

``install`` wraps the public functions of every layer module (and a few
hot methods) and rebinds each wrapper at every ``czo.<module>`` name that
binds the original, because functions such as ``rho_values`` and
``apply_truncated`` are imported into other modules by name.  Each call
opens a span with its parent; a span's self time is its duration minus the
time covered by its child spans.  Spans stay in memory; ``summary`` folds
them into sums that the parent process merges across processes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

LAYERS = ("cli", "curves", "geometry", "metric", "kernels", "operator",
          "util", "partition", "decomposition")

# Helpers that are not layer boundaries: tiny coercions called everywhere,
# and pmap_chunks, whose callbacks run the caller's own code.
SKIP = {
    "util": {"as_points", "get_threads", "chunk_ranges", "pmap_chunks"},
    "geometry": {"box", "region", "whole_space"},
}
METHODS = {
    "geometry": ("Region.clamp",),
    "metric": ("EnlargedCube.contains",),
    "partition": ("BranchDisjointPartition.locate",),
}
RHO_FAMILY = {"metric.rho_values", "metric.rho_branch_values",
              "metric.rho", "metric.rho_branch"}


def _points(a, dim: int) -> int:
    size = getattr(a, "size", None)
    if size is None:
        size = len(a) if hasattr(a, "__len__") else 1
    return max(1, int(size) // max(1, dim))


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _units(name: str, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if name in ("metric.rho_values", "metric.rho"):
        curve = args[0]
        return {"pairs": _points(_arg(args, kwargs, 1, "X"), curve.dim),
                "curve": curve.name}
    if name in ("metric.rho_branch_values", "metric.rho_branch"):
        curve = args[0]
        return {"pairs": _points(_arg(args, kwargs, 2, "X"), curve.dim),
                "curve": curve.name}
    if name == "geometry.Region.clamp":
        return {"units": _points(args[1], args[0].dim)}
    if name == "metric.EnlargedCube.contains":
        return {"units": _points(args[1], args[0].curve.dim)}
    if name == "partition.BranchDisjointPartition.locate":
        return {"units": _points(args[1], args[0].curve.dim)}
    if name == "operator.apply_truncated":
        m_in = args[1].values.size
        return {"bytes": 16 * m_in * result.values.size}
    if name == "operator.apply_truncated_at":
        return {"bytes": 16 * args[1].values.size * len(result)}
    if name == "decomposition.weak_type_experiment":
        family = _arg(args, kwargs, 1, "family")
        return {"bytes": 16 * family[0].values.size
                * result.out_cells ** family[0].dim}
    if name == "decomposition.cz_decompose":
        return {"units": args[0].values.size, "cubes": len(result.cubes)}
    if name == "decomposition.weak_l1_quasinorm":
        return {"units": args[0].values.size}
    if name == "partition.disjoint_preimage_test":
        return {"probabilistic": int(result.probabilistic)}
    if name == "cli.main":
        argv = _arg(args, kwargs, 0, "argv") or sys.argv[1:]
        return {"kind": argv[0]}
    return {}


class _Span:
    __slots__ = ("name", "parent", "start", "end", "child_time", "saw_rho")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_time = 0.0
        self.saw_rho = False


class Tracer:
    def __init__(self):
        # (name, start, end, self seconds, parent name, work counts)
        self.spans = []
        self._stack = []
        self._main = threading.get_ident()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = _Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            tracer._close(span, args, kwargs, result)
            return result

        return wrapper

    def _close(self, span, args, kwargs, result):
        dur = span.end - span.start
        parent = span.parent
        if parent is not None:
            parent.child_time += dur
            if span.saw_rho or span.name in RHO_FAMILY:
                parent.saw_rho = True
        units = _units(span.name, args, kwargs, result)
        units["saw_rho"] = span.saw_rho
        units["outer_rho"] = span.name in RHO_FAMILY and not any(
            s.name in RHO_FAMILY for s in self._stack)
        self.spans.append((span.name, span.start, span.end,
                           dur - span.child_time,
                           parent.name if parent else None, units))

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"czo.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in SKIP.get(layer, ())):
                    originals[obj] = self._wrap(obj, f"{layer}.{attr}")
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth),
                                              f"{layer}.{qual}"))
        for name, mod in list(sys.modules.items()):
            if name != "czo" and not name.startswith("czo."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])

    def summary(self) -> dict:
        """Sums per function, plus the per-call lists the parent needs for
        medians.  All times in seconds."""
        funcs = {}
        rho_by_curve = {}
        first_rho = None
        cold, warm = [], []
        warm_bytes = 0
        dense_bytes = 0
        cli_kinds = {}
        for name, start, end, self_s, _parent, u in self.spans:
            dur = end - start
            f = funcs.setdefault(name, {"calls": 0, "dur": 0.0, "self": 0.0,
                                        "units": 0, "cubes": 0,
                                        "probabilistic": 0})
            f["calls"] += 1
            f["dur"] += dur
            f["self"] += self_s
            f["units"] += u.get("units", 0)
            f["cubes"] += u.get("cubes", 0)
            f["probabilistic"] += u.get("probabilistic", 0)
            if u.get("outer_rho"):
                c = rho_by_curve.setdefault(u["curve"], [0, 0.0, 0])
                c[0] += u["pairs"]
                c[1] += dur
                c[2] += 1
                if first_rho is None or start < first_rho[0]:
                    first_rho = (start, dur)
            if name == "operator.apply_truncated":
                if u["saw_rho"]:
                    cold.append(dur)
                    dense_bytes += u["bytes"]
                else:
                    warm.append(dur)
                    warm_bytes += u["bytes"]
            elif name == "operator.apply_truncated_at" or (
                    name == "decomposition.weak_type_experiment"
                    and u["saw_rho"]):
                dense_bytes += u["bytes"]
            if name == "cli.main":
                cli_kinds[u["kind"]] = cli_kinds.get(u["kind"], 0.0) + dur
        layer_self = {}
        for name, f in funcs.items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + f["self"]
        return {"funcs": funcs, "rho_by_curve": rho_by_curve,
                "first_rho_s": first_rho[1] if first_rho else None,
                "cold": cold, "warm": warm, "warm_bytes": warm_bytes,
                "dense_bytes": dense_bytes, "cli_kinds": cli_kinds,
                "layer_self": layer_self}
