"""Command-line front door: reproducible experiments with CSV reports.

Usage: ``czo <kind> [--config FILE] [--out DIR] [--threads K] [key=value ...]``

Configuration is a flat key=value text file; command-line pairs override
file values; a key that ``DEFAULTS`` does not list is rejected.  Every
experiment writes fixed-name CSV files plus a ``manifest.csv`` (config
echo, seed, library versions, wall time) into the output directory.  The
thread count reaches only the T_eps kinds (apply, t0-convergence,
weaktype).  Exit codes: 0 pass, 1 numerical assertion failure, 2
configuration error.  Each kind imports only the library layers it runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import CzoError, RegistryError, RejectedInputError
from .geometry import Box, parse_box

if TYPE_CHECKING:
    from .operator import GridFunction

DEFAULTS = {
    "curve": "two-lines",
    "kernel": "two-line-hilbert",
    "box": "-8..8",
    "n": "512",
    "out_n": "256",
    "pairs": "10000",
    "samples": "20000",
    "seed": "7",
    "eps": "0.1",
    "eps_list": "0.5,0.25,0.125,0.0625",
    "theta": "8.1",
    "lambda": "0.3",
    "max_depth": "8",
    "function": "indicator:-1,1",
    "family": "indicator:-1,1;bump",
    "b": "1,0",
    "a_list": "0.1,1,10",
    "hormander_grid": str(1 << 20),
    "probes": "1000",
    "mc_samples": "1000000",
    "cube": "2..3",
    "root": "",
    "out": "czo-out",
    "threads": "1",
}


@dataclass
class ExperimentConfig:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted(set(self.options) - set(DEFAULTS))
        if unknown:
            raise RejectedInputError(
                f"unknown config key(s) {unknown}; valid keys: "
                f"{sorted(DEFAULTS)}")

    def get(self, key: str) -> str:
        return self.options.get(key, DEFAULTS[key])

    def get_float(self, key: str) -> float:
        return float(self.get(key))

    def get_int(self, key: str) -> int:
        return int(self.get(key))

    def get_floats(self, key: str) -> list[float]:
        vals = [float(v) for v in self.get(key).split(",") if v.strip()]
        if not vals:
            raise RejectedInputError(f"{key} must list at least one number")
        return vals

    def get_box(self, key: str = "box") -> Box:
        return parse_box(self.get(key))


def parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise RejectedInputError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------------------
# Built-in function families
# ---------------------------------------------------------------------------

def _spec_numbers(spec: str, arg: str, defaults: tuple) -> tuple:
    """The comma-separated numbers after 'name:' in spec, or the defaults."""
    if not arg:
        return defaults
    vals = tuple(float(v) for v in arg.split(","))
    if len(vals) != len(defaults):
        raise RejectedInputError(
            f"{spec!r} needs {len(defaults)} comma-separated numbers")
    return vals


def _bump_width(w: float, spec: str) -> float:
    if not (math.isfinite(w) and w > 0):
        raise RejectedInputError(
            f"bump width must be finite and positive: {spec!r}")
    return w


def builtin_function(spec: str, bx: Box, n_cells: int) -> GridFunction:
    """Parse 'indicator:a,b' | 'bump[:center,width]' | 'odd-bump' |
    'custom:path.csv' into a grid function."""
    from .operator import GridFunction, grid_nodes, read_grid_csv
    name, _, arg = spec.partition(":")
    x = grid_nodes(bx, n_cells)[:, 0]
    if name == "indicator":
        a, b = _spec_numbers(spec, arg, (-1.0, 1.0))
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise RejectedInputError(
                f"indicator:a,b needs finite a < b: {spec!r}")
        vals = ((x >= a) & (x <= b)).astype(float)
    elif name == "bump":
        c, w = _spec_numbers(spec, arg, (0.0, 1.0))
        if not math.isfinite(c):
            raise RejectedInputError(f"bump center must be finite: {spec!r}")
        vals = np.exp(-((x - c) / _bump_width(w, spec)) ** 2)
    elif name == "odd-bump":
        (w,) = _spec_numbers(spec, arg, (1.0,))
        w = _bump_width(w, spec)
        vals = (x / w) * np.exp(-(x / w) ** 2)
    elif name == "custom":
        return read_grid_csv(arg)
    else:
        raise RegistryError(f"unknown function family {name!r}")
    return GridFunction(bx, n_cells, vals)


_B_FUNCS = {
    "sin": lambda X: np.sin(X[:, 0]),
    "cos": lambda X: np.cos(X[:, 0]),
    "x": lambda X: X[:, 0],
}


def _parse_multipliers(spec: str, count: int):
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != count:
        raise RejectedInputError(
            f"expected {count} multiplier entries, got {len(parts)}")
    out = []
    for p in parts:
        if p in _B_FUNCS:
            out.append(_B_FUNCS[p])
        else:
            out.append(float(p))
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _write_csv(path: str, header_cols: list[str], rows: list[tuple],
               comments: list[str] = ()) -> None:
    with open(path, "w") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_manifest(out_dir: str, cfg: ExperimentConfig,
                    wall_time: float) -> None:
    rows = [("kind", cfg.kind)]
    for k in sorted(DEFAULTS):
        rows.append((k, cfg.get(k)))
    rows += [("czo_version", __version__),
             ("numpy_version", np.__version__),
             ("python_version", sys.version.split()[0]),
             ("wall_time_seconds", repr(wall_time))]
    _write_csv(os.path.join(out_dir, "manifest.csv"), ["key", "value"], rows)


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------

def _run_metric_equivalence(cfg, out_dir) -> int:
    from .curves import get_curve
    from .metric import check_equivalence
    curve = get_curve(cfg.get("curve"))
    rep = check_equivalence(curve, cfg.get_int("pairs"), cfg.get_int("seed"))
    rows = [(curve.name, rep.pair_count, rep.max_ratio_tilde,
             rep.max_ratio_star, rep.bound, int(rep.passed))]
    if rep.witness is not None:
        rows.append(("witness", f'"{rep.witness!r}"', "", "", "", 0))
    _write_csv(os.path.join(out_dir, "metric_equivalence.csv"),
               ["curve", "pairs", "max_ratio_tilde", "max_ratio_star",
                "bound", "passed"], rows)
    return 0 if rep.passed else 1


def _run_partition(cfg, out_dir) -> int:
    from .curves import get_curve
    from .partition import build_partition
    curve = get_curve(cfg.get("curve"))
    part = build_partition(curve, cfg.get_int("max_depth"))
    rows = [("cube", c.level, " ".join(map(str, c.corner)),
             c.as_box().lo[0], c.as_box().hi[0]) for c in part.cubes]
    rows += [("leftover", c.level, " ".join(map(str, c.corner)),
              c.as_box().lo[0], c.as_box().hi[0]) for c in part.leftover]
    _write_csv(os.path.join(out_dir, "partition.csv"),
               ["status", "level", "corner", "lo", "hi"], rows,
               comments=[f"leftover_measure={part.leftover_measure!r}",
                         f"probabilistic={int(part.probabilistic)}"])
    return 0


def _run_kernel_audit(cfg, out_dir) -> int:
    from .kernels import audit_regularity, audit_size, get_kernel
    kernel = get_kernel(cfg.get("kernel"))
    size = audit_size(kernel, cfg.get_int("samples"), cfg.get_int("seed"))
    rows = [("size", size.supremum, size.bound, int(size.passed))]
    code = 0 if size.passed else 1
    if kernel.regularity_constant is not None:
        reg = audit_regularity(kernel, cfg.get_int("samples"),
                               cfg.get_int("seed"))
        rows.append(("regularity", reg.supremum, reg.bound, int(reg.passed)))
        if not reg.passed:
            code = 1
    _write_csv(os.path.join(out_dir, "kernel_audit.csv"),
               ["audit", "supremum", "bound", "passed"], rows,
               comments=[f"kernel={kernel.name}"])
    return code


def _run_hormander(cfg, out_dir) -> int:
    from .kernels import get_kernel, hormander_constant
    kernel = get_kernel(cfg.get("kernel"))
    rows = []
    totals = []
    for a in cfg.get_floats("a_list"):
        rep = hormander_constant(kernel, z=a,
                                 grid_points=cfg.get_int("hormander_grid"))
        rows.append((rep.separation, rep.value_box, rep.tail, rep.value_total))
        totals.append(rep.value_total)
    _write_csv(os.path.join(out_dir, "hormander.csv"),
               ["separation", "value_box", "tail", "value_total"], rows)
    spread = (max(totals) - min(totals)) / max(totals)
    return 0 if spread <= 0.01 else 1


def _run_apply(cfg, out_dir) -> int:
    from .kernels import get_kernel
    from .operator import estimate_T0
    kernel = get_kernel(cfg.get("kernel"))
    bx = cfg.get_box()
    f = builtin_function(cfg.get("function"), bx, cfg.get_int("n"))
    eps = cfg.get_float("eps")
    # T_eps f as a one-eps ladder, whose only ignored warning is eps < 4h.
    out, _ = estimate_T0(kernel, f, [eps], (bx, cfg.get_int("out_n")),
                         cfg.get_int("threads"))
    _write_csv(os.path.join(out_dir, "apply.csv"), ["x", "value"],
               list(zip(out.nodes()[:, 0].tolist(), out.values.tolist())),
               comments=[f"kernel={kernel.name} eps={eps!r}"])
    return 0


def _run_t0(cfg, out_dir) -> int:
    from .kernels import get_kernel
    from .operator import estimate_T0, write_grid_csv
    kernel = get_kernel(cfg.get("kernel"))
    bx = cfg.get_box()
    f = builtin_function(cfg.get("function"), bx, cfg.get_int("n"))
    limit, rep = estimate_T0(kernel, f, cfg.get_floats("eps_list"),
                             threads=cfg.get_int("threads"))
    rows = [(e, (rep.sup_diffs[i] if i < len(rep.sup_diffs) else ""),
             int(rep.unreliable[i]))
            for i, e in enumerate(rep.epsilons)]
    _write_csv(os.path.join(out_dir, "t0_convergence.csv"),
               ["eps", "sup_diff_to_next", "unreliable"], rows)
    write_grid_csv(limit, os.path.join(out_dir, "t0_limit.csv"))
    return 0


def _run_recover(cfg, out_dir) -> int:
    from .curves import get_curve
    from .operator import (multiplier_field, multiplier_handle,
                           recover_multipliers)
    from .partition import build_partition
    curve = get_curve(cfg.get("curve"))
    bx = cfg.get_box()
    n = cfg.get_int("n")
    declared = multiplier_field(curve, bx, n,
                                _parse_multipliers(cfg.get("b"), curve.r))
    part = build_partition(curve, cfg.get_int("max_depth"))
    rec = recover_multipliers(multiplier_handle(curve, declared), curve,
                              part, bx, n)
    h = (bx.hi[0] - bx.lo[0]) / n
    rows = []
    code = 0
    for i in range(curve.r):
        cov = rec.covered[i]
        err = float(np.max(np.abs(rec.fields[i] - declared.fields[i])[cov])) \
            if np.any(cov) else 0.0
        rows.append((i, err, int(np.count_nonzero(cov)),
                     int(np.count_nonzero(rec.support[i] & ~cov))))
        if err > 2.0 * h:
            code = 1
    _write_csv(os.path.join(out_dir, "recover.csv"),
               ["branch", "sup_error_covered", "covered", "uncovered"], rows,
               comments=[f"tolerance={2.0 * h!r}"])
    return code


def _run_decompose(cfg, out_dir) -> int:
    from .decomposition import cz_decompose, weak_l1_quasinorm
    from .operator import write_grid_csv
    bx = cfg.get_box()
    f = builtin_function(cfg.get("function"), bx, cfg.get_int("n"))
    root = cfg.get_box("root") if cfg.get("root") else None
    dec = cz_decompose(f, cfg.get_float("lambda"), root)
    # One lo,hi pair per axis; 1-D keeps the plain names.
    bounds = (["lo", "hi"] if f.dim == 1 else
              [f"{e}_{k}" for k in range(f.dim) for e in ("lo", "hi")])
    rows = [(k, *(v for ab in zip(c.box.lo, c.box.hi) for v in ab),
             c.average, c.abs_average) for k, c in enumerate(dec.cubes)]
    _write_csv(os.path.join(out_dir, "decompose_cubes.csv"),
               ["index", *bounds, "average", "abs_average"], rows,
               comments=[f"lambda={dec.lam!r}",
                         f"weak_l1_good={weak_l1_quasinorm(dec.good)!r}"])
    write_grid_csv(dec.good, os.path.join(out_dir, "decompose_good.csv"))
    bad_sum = np.zeros((f.cells_per_axis,) * f.dim)
    for cells, block in dec.blocks:
        bad_sum[cells] = block
    write_grid_csv(dec.good.with_values(bad_sum.reshape(-1)),
                   os.path.join(out_dir, "decompose_bad.csv"))
    return 0


def _run_weaktype(cfg, out_dir) -> int:
    from .decomposition import weak_type_experiment
    from .kernels import get_kernel
    kernel = get_kernel(cfg.get("kernel"))
    bx = cfg.get_box()
    n = cfg.get_int("n")
    family = [builtin_function(s.strip(), bx, n)
              for s in cfg.get("family").split(";") if s.strip()]
    rep = weak_type_experiment(kernel, family, cfg.get_float("eps"),
                               cfg.get_float("theta"),
                               out_cells=cfg.get_int("out_n"),
                               threads=cfg.get_int("threads"))
    rows = [(r.function_index, r.lam, r.cube_count, r.superlevel_measure,
             r.ratio, r.b_star_measure, r.bad_integral) for r in rep.rows]
    _write_csv(os.path.join(out_dir, "weaktype.csv"),
               ["function", "lambda", "cubes", "superlevel_measure",
                "ratio", "b_star_measure", "bad_integral"], rows,
               comments=[f"max_ratio={rep.max_ratio!r}"])
    return 0 if math.isfinite(rep.max_ratio) else 1


def _run_qtheta(cfg, out_dir) -> int:
    from .curves import get_curve
    from .metric import check_qtheta
    curve = get_curve(cfg.get("curve"))
    rep = check_qtheta(curve, cfg.get_box("cube"), cfg.get_float("theta"),
                       probe_count=cfg.get_int("probes"),
                       seed=cfg.get_int("seed"),
                       mc_samples=cfg.get_int("mc_samples"))
    rows = [(curve.name, rep.measure_estimate, rep.measure_halfwidth,
             rep.measure_bound, rep.min_probe_rho, rep.separation_bound,
             int(rep.passed))]
    _write_csv(os.path.join(out_dir, "qtheta.csv"),
               ["curve", "measure_estimate", "measure_halfwidth",
                "measure_bound", "min_probe_rho", "separation_bound",
                "passed"], rows)
    return 0 if rep.passed else 1


_RUNNERS = {
    "metric-equivalence": _run_metric_equivalence,
    "partition": _run_partition,
    "kernel-audit": _run_kernel_audit,
    "hormander": _run_hormander,
    "apply": _run_apply,
    "t0-convergence": _run_t0,
    "recover": _run_recover,
    "decompose": _run_decompose,
    "weaktype": _run_weaktype,
    "qtheta": _run_qtheta,
}

KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one experiment kind; returns the process exit code."""
    if cfg.kind not in _RUNNERS:
        raise RejectedInputError(f"unknown experiment kind {cfg.kind!r}")
    threads = cfg.get_int("threads")
    if threads < 1:
        raise RejectedInputError(f"threads must be at least 1: {threads}")
    out_dir = cfg.get("out")
    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    code = _RUNNERS[cfg.kind](cfg, out_dir)
    _write_manifest(out_dir, cfg, time.time() - start)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="czo",
        description="Singular-integral experiments for curve-adapted "
                    "Calderon-Zygmund operators")
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--threads", type=int)
    parser.add_argument("overrides", nargs="*", metavar="key=value")
    args = parser.parse_intermixed_args(argv)

    try:
        options = {}
        if args.config:
            options.update(parse_config_file(args.config))
        for pair in args.overrides:
            if "=" not in pair:
                raise RejectedInputError(f"override {pair!r} is not key=value")
            key, val = pair.split("=", 1)
            options[key.strip()] = val.strip()
        if args.out:
            options["out"] = args.out
        if args.threads is not None:
            options["threads"] = str(args.threads)
        cfg = ExperimentConfig(args.kind, options)
        return run_experiment(cfg)
    except (RegistryError, RejectedInputError, OSError, ValueError) as exc:
        print(f"czo: config error: {exc}", file=sys.stderr)
        return 2
    except CzoError as exc:
        print(f"czo: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
