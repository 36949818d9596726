"""czo benchmark: three closed-loop, single-caller workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli,sweep,dyadic} --seed N \\
        --seconds S --trace {0,1}

Each workload repeats passes until ``--seconds`` have elapsed (at least
one pass).  Every pass starts fresh ``python`` processes running
``child.py``, which imports czo from ``src/`` of the checkout, with
``threads=1`` and one BLAS thread.  Every result is checked against the
oracles in ``oracles.py`` and ``cli_checks.py``.

- ``cli``: the ten ``czo`` kinds, one fresh process each, at default
  config with the workload seed (``hormander`` at hormander_grid=65536),
  then an untimed pass of the cheap kinds at ``--threads 2`` whose report
  bodies must match the ``threads=1`` pass byte for byte.
- ``sweep``: one process holding a long T_eps session.
- ``dyadic``: one process of cz_decompose cases, partitions, locate and
  multiplier recovery.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, and it holds the
per-layer metrics of the traced passes (see ``tracer.py``) plus the
tracing overhead.  The line before it records the machine and the code.

Every end-to-end time is taken at nominal machine speed: measured time
rescaled by a reference kernel timed around it (``speed.py``), because the
shared hosts this runs on drift in speed by far more than the bounds.  The
context line gives the measured times and the speed factors beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cli_checks  # noqa: E402
from child import Ledger  # noqa: E402
from speed import MIX, STARTUP, Speed  # noqa: E402
from tracer import LAYERS, RHO_FAMILY  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("cli", "sweep", "dyadic")
KINDS = ("metric-equivalence", "partition", "kernel-audit", "hormander",
         "apply", "t0-convergence", "recover", "decompose", "weaktype",
         "qtheta")
CHEAP_KINDS = ("metric-equivalence", "partition", "recover", "decompose",
               "qtheta")
MIN_STARTS = 9                 # set-up is sampled at least this often a run
DEADLINE_S = 170.0             # a run must end within 180 s
CURVES = ("diagonal", "two-lines", "diamond", "wavy")


class Run:
    """Everything one benchmark run measures."""

    def __init__(self, args, root, work):
        self.args = args
        self.root = root
        self.work = work
        self.start = time.perf_counter()
        self.setup_s, self.import_s = [], []
        self.walls = {False: [], True: []}      # at nominal speed
        self.raw_walls = []                     # measured, untraced
        self.speed = Speed()
        self.mix = MIX[args.workload]
        self.traces = []
        self.max_rss_kb = 0
        self.starts = 0
        self.ledger = Ledger()
        self.digests = {}
        self.kind_s = {}        # cli kind -> process times, one a pass
        self.env = dict(os.environ, OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        PYTHONHASHSEED="0")
        self.env.pop("CZO_THREADS", None)

    # -- processes ----------------------------------------------------------

    def launch(self, mode, traced=False, **opts):
        """Start child.py, wait for it, and return (exit code, result dict
        or None, wall seconds at nominal speed).  Records set-up time and
        peak memory."""
        self.starts += 1
        tag = f"{self.starts:04d}"
        result = os.path.join(self.work, f"result-{tag}.json")
        argv = [sys.executable, CHILD, "--root", self.root, "--mode", mode,
                "--seed", str(self.args.seed), "--result", result]
        for key, val in opts.items():
            argv += [f"--{key}", str(val)]
        if traced:
            argv.append("--trace")
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise TimeoutError("run exceeded its time budget")
        with open(os.path.join(self.work, f"stderr-{tag}.txt"), "w") as err:
            self.speed.sample(2)
            p0 = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            p1 = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        res = None
        if os.path.exists(result):
            with open(result) as fh:
                res = json.load(fh)
            self.speed.extend(res["speed"])
        self.speed.sample(2)
        wall = self.speed.scaled(p0, p1, self.mix)
        if res is not None:
            self.setup_s.append(self.speed.scaled(p0, res["t_setup"],
                                                  STARTUP))
            self.import_s.append(self.speed.scaled(p0, res["t_import"],
                                                   STARTUP))
        elif code == 0:
            code = -1
        if code != 0:
            with open(os.path.join(self.work, f"stderr-{tag}.txt")) as fh:
                tail = fh.read()[-300:]
            self.ledger.note(f"{mode} {opts.get('kind', '')} exit {code}: "
                             f"{tail}")
        return code, res, wall

    # -- passes -------------------------------------------------------------

    def cli_pass(self, traced, threads=1, kinds=KINDS):
        for kind in kinds:
            out = os.path.join(self.work, f"out-{kind}-{threads}")
            code, res, wall = self.launch("cli", traced, kind=kind, out=out,
                                          threads=threads)
            problems = [] if code == 0 and res else [f"exit {code}"]
            if threads == 1:
                problems += cli_checks.check(kind, out)
                if not traced:
                    self.kind_s.setdefault(kind, []).append(wall)
            digest = report_digest(out)
            first = self.digests.setdefault(kind, digest)
            if digest != first:
                problems.append(f"report bodies differ from the first run "
                                f"({digest[:12]} != {first[:12]})")
            self.ledger.check(f"cli {kind} threads={threads}", problems)
            if res and res["trace"]:
                self.traces.append(res["trace"])
            shutil.rmtree(out, ignore_errors=True)

    def session_pass(self, traced):
        mode = self.args.workload
        code, res, wall = self.launch(mode, traced)
        if res is None:
            self.ledger.check(f"{mode} session", [f"exit {code}, no result"])
            return
        self.ledger.absorb(res)
        if code != 0:
            self.ledger.check(f"{mode} session", [f"exit {code}"])
        if traced:
            self.traces.append(res["trace"])
        else:
            self.ledger.ops_ms.extend(res["ops_ms"])

    def execute(self):
        traced_turn = False
        while True:
            traced = bool(self.args.trace) and traced_turn
            p0 = time.monotonic()
            if self.args.workload == "cli":
                self.cli_pass(traced)
            else:
                self.session_pass(traced)
            p1 = time.monotonic()
            self.speed.sample(2)
            self.walls[traced].append(self.speed.scaled(p0, p1, self.mix))
            if not traced:
                self.raw_walls.append(p1 - p0)
            if self.args.trace:
                traced_turn = not traced_turn
            elapsed = time.perf_counter() - self.start
            if elapsed >= self.args.seconds and (
                    not self.args.trace or self.walls[True]):
                break
        if self.args.workload == "cli":
            self.cli_pass(False, threads=2, kinds=CHEAP_KINDS)
        while self.starts < MIN_STARTS:
            self.launch("setup", workload=self.args.workload)


def report_digest(out_dir: str) -> str:
    """sha256 over every report body in a kind's output directory, except
    manifest.csv, which records wall time."""
    h = hashlib.sha256()
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name == "manifest.csv":
                continue
            h.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Machine and code
# ---------------------------------------------------------------------------

def llc_bytes() -> tuple[int, str]:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, 0)
    try:
        for idx in os.listdir(base):
            if not idx.startswith("index"):
                continue
            with open(os.path.join(base, idx, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, idx, "size")) as fh:
                text = fh.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
            size = int(text.rstrip("KM")) * mult
            best = max(best, (level, size))
    except (OSError, ValueError):
        pass
    if best[1]:
        return best[1], "sysfs"
    return 32 << 20, "assumed (sysfs unavailable)"


def copy_gbps(array_bytes: int) -> float:
    """Median of three timed copies between two arrays of array_bytes each
    (after one untimed copy that faults the pages in); read plus write."""
    n = array_bytes // 8
    src = np.ones(n)
    dst = np.empty(n)
    rates = []
    for rep in range(4):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        dt = time.perf_counter() - t0
        if rep:
            rates.append(2 * n * 8 / dt / 1e9)
    del src, dst
    return statistics.median(rates)


def czo_lines(root: str) -> int:
    pkg = os.path.join(root, "src", "czo")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def context(run: Run, copy_rate: float, llc: int, llc_src: str,
            array_bytes: int) -> dict:
    return {
        "workload": run.args.workload, "seed": run.args.seed,
        "seconds": run.args.seconds, "trace": int(run.args.trace),
        "nproc": os.cpu_count(), "llc_bytes": llc, "llc_source": llc_src,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "copy_gbps": copy_rate, "copy_array_bytes": array_bytes,
        "src_czo_lines": czo_lines(run.root),
        "speed_factor_median": run.speed.median_factor(run.mix),
        "speed_samples": len(run.speed.samples),
        "measured_wall_s": [round(v, 4) for v in run.raw_walls],
        "passes": {"untraced": len(run.walls[False]),
                   "traced": len(run.walls[True])},
        "op_samples": len(op_samples(run)), "process_starts": run.starts,
        "cli_process_s": {k: [round(v, 4) for v in vals]
                          for k, vals in run.kind_s.items()},
        "cli_report_sha256": run.digests,
        "failures": run.ledger.failures,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def op_samples(run: Run) -> list[float]:
    """Unit-operation latencies in ms.  For cli each kind is one sample,
    its median over the run's passes: the ten kinds differ by design, and
    an order statistic over their raw times would pick whichever single
    process was slowed most."""
    if run.args.workload == "cli":
        return [1e3 * statistics.median(v) for v in run.kind_s.values()]
    return run.ledger.ops_ms


def end_to_end(run: Run) -> dict:
    led = run.ledger
    # A run where no operation completed is already marked failed.
    ops = np.array(op_samples(run) or [0.0])
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "wall_s": (statistics.median(run.walls[False]), "s"),
        "op_p50_ms": (float(np.percentile(ops, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(ops, 90)), "ms"),
        "peak_rss_mb": (run.max_rss_kb / 1024.0, "MB"),
        "pass_ratio": (1.0 - led.failed / max(led.attempted, 1), "ratio"),
    }


def _merge(traces: list[dict]) -> dict:
    out = {"funcs": {}, "rho_by_curve": {}, "first_rho_s": [], "cold": [],
           "warm": [], "warm_bytes": 0, "dense_bytes": 0, "cli_kinds": {},
           "layer_self": {}}
    for t in traces:
        for name, f in t["funcs"].items():
            acc = out["funcs"].setdefault(name, dict.fromkeys(f, 0))
            for k, v in f.items():
                acc[k] += v
        for curve, vals in t["rho_by_curve"].items():
            acc = out["rho_by_curve"].setdefault(curve, [0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        if t["first_rho_s"] is not None:
            out["first_rho_s"].append(t["first_rho_s"])
        for key in ("cold", "warm"):
            out[key].extend(t[key])
        for key in ("warm_bytes", "dense_bytes"):
            out[key] += t[key]
        for key in ("cli_kinds", "layer_self"):
            for k, v in t[key].items():
                out[key][k] = out[key].get(k, 0.0) + v
    return out


def per_layer(run: Run, copy_rate: float) -> dict:
    m = _merge(run.traces)
    passes = len(run.walls[True])
    funcs = m["funcs"]

    def get(name, key):
        return funcs.get(name, {}).get(key, 0)

    def self_s(*names):
        return (sum(get(n, "self") for n in names) / passes, "s")

    def us_per_unit(name):
        units = get(name, "units")
        return (1e6 * get(name, "dur") / units if units else 0.0, "us")

    def median_ms(vals):
        return (1e3 * statistics.median(vals) if vals else 0.0, "ms")

    rho = m["rho_by_curve"]
    out = {}
    for curve in CURVES:
        pairs, dur, _ = rho.get(curve, (0, 0.0, 0))
        out[f"metric.rho_values.us_per_pair.{curve}"] = (
            1e6 * dur / pairs if pairs else 0.0, "us")
    out["metric.rho_values.calls"] = (
        sum(v[2] for v in rho.values()) / passes, "count")
    out["metric.rho_values.pairs"] = (
        sum(v[0] for v in rho.values()) / passes, "count")
    out["metric.rho_values.self_s"] = self_s(*sorted(RHO_FAMILY))
    out["metric.rho_values.first_call_ms"] = median_ms(m["first_rho_s"])
    out["metric.rho_tilde_values.self_s"] = self_s(
        "metric.rho_tilde_values", "metric.rho_tilde_branch_values",
        "metric.rho_tilde")
    out["metric.rho_tilde_star_values.self_s"] = self_s(
        "metric.rho_tilde_star_values", "metric.rho_tilde_star_branch_values",
        "metric.rho_tilde_star")
    out["metric.check_equivalence.self_s"] = self_s("metric.check_equivalence")
    out["geometry.Region.clamp.us_per_point"] = us_per_unit(
        "geometry.Region.clamp")
    out["metric.enlarged_cube.self_s"] = self_s("metric.enlarged_cube")
    out["metric.EnlargedCube.contains.us_per_point"] = us_per_unit(
        "metric.EnlargedCube.contains")
    out["metric.check_qtheta.self_s"] = self_s("metric.check_qtheta")
    for name in ("audit_size", "audit_regularity", "hormander_constant"):
        out[f"kernels.{name}.self_s"] = self_s(f"kernels.{name}")
    cold, warm = m["cold"], m["warm"]
    calls = len(cold) + len(warm)
    out["operator.apply_truncated.calls"] = (calls / passes, "count")
    out["operator.apply_truncated.miss_ratio"] = (
        len(cold) / calls if calls else 0.0, "ratio")
    out["operator.apply_truncated.cold_ms"] = median_ms(cold)
    out["operator.apply_truncated.warm_ms"] = median_ms(warm)
    out["operator.dense_bytes_computed"] = (m["dense_bytes"] / passes, "B")
    out["operator.warm_apply_gbps"] = (
        m["warm_bytes"] / sum(warm) / 1e9 if warm else 0.0, "GB/s")
    out["util.fold_mirror_sum.self_s"] = self_s("util.fold_mirror_sum")
    for name in ("apply_truncated_at", "estimate_T0", "recover_multipliers"):
        out[f"operator.{name}.self_s"] = self_s(f"operator.{name}")
    out["partition.locate.us_per_point"] = us_per_unit(
        "partition.BranchDisjointPartition.locate")
    out["partition.build_partition.self_s"] = self_s(
        "partition.build_partition")
    tests = get("partition.disjoint_preimage_test", "calls")
    out["partition.disjoint_preimage_test.calls"] = (tests / passes, "count")
    out["partition.disjoint_preimage_test.probabilistic_ratio"] = (
        get("partition.disjoint_preimage_test", "probabilistic") / tests
        if tests else 0.0, "ratio")
    out["decomposition.cz_decompose.us_per_cell"] = us_per_unit(
        "decomposition.cz_decompose")
    out["decomposition.cz_decompose.cubes"] = (
        get("decomposition.cz_decompose", "cubes") / passes, "count")
    out["decomposition.weak_l1_quasinorm.us_per_cell"] = us_per_unit(
        "decomposition.weak_l1_quasinorm")
    out["decomposition.weak_type_experiment.self_s"] = self_s(
        "decomposition.weak_type_experiment")
    for kind in KINDS:
        out[f"cli.{kind}.s"] = (m["cli_kinds"].get(kind, 0.0) / passes, "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (m["layer_self"].get(layer, 0.0) / passes,
                                  "s")
    out["setup.import_s"] = (statistics.median(run.import_s), "s")
    out["machine.copy_gbps"] = (copy_rate, "GB/s")
    out["trace.overhead_ratio"] = (statistics.median(run.walls[True])
                                   / statistics.median(run.walls[False]),
                                   "ratio")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "czo", "__init__.py")):
        print("perfbench: run from the root of a czo checkout "
              "(src/czo is missing)", file=sys.stderr)
        return 2
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    run = Run(args, root, work)
    try:
        run.execute()
    except TimeoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    llc, llc_src = llc_bytes()
    array_bytes = 4 * llc
    copy_rate = copy_gbps(array_bytes)
    metrics = per_layer(run, copy_rate) if args.trace else end_to_end(run)
    led = run.ledger

    print(f"# czo benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} attempted={led.attempted} failed={led.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:7s} {name:52s} {value:14.6g} {unit}")
    for msg in led.failures:
        print(f"FAIL {msg}")
    print(json.dumps({"context": context(run, copy_rate, llc, llc_src,
                                         array_bytes)}))
    print(json.dumps({
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
