"""The checks of CI's Console-script step, run under Tier-1.

Most tests run ``czo.cli.main`` into ``tmp_path``, as the step runs the
``czo`` entry point, and make the same comparison of report bodies:
``--threads`` 1 and 2 give the same bytes, the ``odd-bump`` apply is exact
zeros, the last step of an eps ladder equals a one-shot apply at its eps,
and ``decompose``'s CSVs keep its exact invariants.  The runs that must
raise no RuntimeWarning, and ``hormander`` beyond its tail grid, run in a
fresh ``python -W error::RuntimeWarning -m czo.cli`` process, as the step
runs them.  What needs the installed script or a child's peak memory stays
in CI.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import czo
from czo.cli import DEFAULTS, KINDS, builtin_function, main
from czo.curves import CURVE_NAMES
from czo.kernels import KERNEL_NAMES, get_kernel
from czo.operator import read_grid_csv

# The eps that ends the default eps_list, 0.0625.
LADDER_END = DEFAULTS["eps_list"].split(",")[-1]


def run(tmp_path, name, *argv):
    """Run one kind into tmp_path / name; its exit code must be 0."""
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out


def run_in_a_process(tmp_path, *argv):
    """Run one kind into tmp_path by a new interpreter that finds this czo,
    with RuntimeWarnings as errors."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(czo.__file__)))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "czo.cli",
         *argv, "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)


def values(path):
    """The report lines of a CSV written by czo: t0_limit.csv's values,
    or the value column of apply.csv, without comments or header."""
    rows = [line for line in path.read_text().splitlines()
            if not line.startswith("#") and line != "x,value"]
    return [r.split(",")[-1] for r in rows]


def test_get_kernel_builds_a_fresh_kernel():
    # Each run looks its kernel up anew, so a --threads 2 run after a
    # --threads 1 run in one process rebuilds its summation rather than
    # reading the first run's cache; the identity checks below rely on it.
    for name in KERNEL_NAMES:
        first = get_kernel(name)
        first._matrices["seen"] = None
        second = get_kernel(name)
        assert second is not first
        assert second._matrices == {}


# (argv, the report files compared across --threads 1 and 2).
THREAD_RUNS = [
    (["apply", "n=16384", "out_n=8192"], ["apply.csv"]),
    (["apply", "function=odd-bump", "n=16384", "out_n=8192"], ["apply.csv"]),
    (["t0-convergence", "n=16384"], ["t0_convergence.csv", "t0_limit.csv"]),
    (["t0-convergence", "kernel=diamond-model"],
     ["t0_convergence.csv", "t0_limit.csv"]),
    (["weaktype", "n=16384"], ["weaktype.csv"]),
    (["weaktype", "kernel=hilbert", "n=16384"], ["weaktype.csv"]),
    (["weaktype", "kernel=diamond-model", "family=indicator:2,3;bump:4,0.5"],
     ["weaktype.csv"]),
    (["weaktype", "out_n=100"], ["weaktype.csv"]),
]


@pytest.mark.parametrize("argv, files", THREAD_RUNS,
                         ids=[" ".join(a) for a, _ in THREAD_RUNS])
def test_bodies_do_not_depend_on_threads(tmp_path, argv, files):
    one = run(tmp_path, "t1", *argv, "--threads", "1")
    two = run(tmp_path, "t2", *argv, "--threads", "2")
    for name in files:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_odd_bump_apply_is_exact_zeros(tmp_path):
    # two-line-hilbert on an odd f: every mirror pair cancels bitwise.
    out = run(tmp_path, "ao", "apply", "function=odd-bump", "n=16384",
              "out_n=8192")
    assert values(out / "apply.csv") == ["0.0"] * 8192


@pytest.mark.parametrize("argv", [
    ["weaktype"],
    ["apply", "kernel=hilbert", "n=16384", "out_n=8192"],
    ["t0-convergence", "kernel=hilbert", "n=16384"],
], ids=" ".join)
def test_runs_exit_0(tmp_path, argv):
    run(tmp_path, "out", *argv)


# (kernel, n): the dense path, and the lattice path for both reflections
# and for one.
LADDERS = [("diamond-model", 255), ("two-line-hilbert", 512),
           ("hilbert", 512), ("hilbert", 16384)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kernel, n", LADDERS)
def test_ladder_end_equals_a_one_shot_apply(tmp_path, kernel, n, threads):
    ladder = run(tmp_path, "t", "t0-convergence", f"kernel={kernel}",
                 f"n={n}", "--threads", threads)
    once = run(tmp_path, "a", "apply", f"kernel={kernel}", f"n={n}",
               f"out_n={n}", f"eps={LADDER_END}", "--threads", threads)
    want = values(once / "apply.csv")
    assert len(want) == n
    assert values(ladder / "t0_limit.csv") == want


# The default run, a 2-D run and a run on a given root.
DECOMPOSE_RUNS = [
    ["decompose"],
    ["decompose", "box=-8..8,-8..8", "n=256"],
    ["decompose", "function=indicator:0,1", "root=-2..2", "lambda=0.3"],
]


@pytest.mark.parametrize("argv", DECOMPOSE_RUNS, ids=" ".join)
def test_decompose_csvs_keep_its_invariants(tmp_path, argv):
    # Read back from the CSVs alone: good + bad == f bit for bit,
    # max |good| <= 2^n lambda, and the reported weak L1 of good equals
    # the distinct-level formula.
    out = run(tmp_path, "d", *argv)
    cfg = dict(line.split(",", 1)
               for line in (out / "manifest.csv").read_text().splitlines())
    cubes = (out / "decompose_cubes.csv").read_text().splitlines()
    notes = dict(line[1:].strip().split("=", 1) for line in cubes
                 if line.startswith("#"))
    good = read_grid_csv(str(out / "decompose_good.csv"))
    bad = read_grid_csv(str(out / "decompose_bad.csv"))
    f = builtin_function(cfg["function"], good.box, good.cells_per_axis)
    n = good.dim
    assert (good.values + bad.values).tobytes() == f.values.tobytes()
    assert np.max(np.abs(good.values)) <= 2.0 ** n * float(notes["lambda"])
    s = np.sort(np.abs(good.values))
    v = np.unique(s)
    v = v[v > 0]
    want = (float(np.max(v * (len(s) - np.searchsorted(s, v))
                         * good.h ** n)) if len(v) else 0.0)
    assert float(notes["weak_l1_good"]) == want
    header = next(line for line in cubes if not line.startswith("#"))
    assert ("lo_1" in header.split(",")) == (n == 2)


# Every kind at its defaults, each kernel's audit, each curve's
# equivalence audit, and the diamond's Q_theta at a cube on the curve and
# one beside it, as CI runs them.  Beyond CI: a weak type and an apply
# whose output grid is f's, so that their lattices meet the offset 0, where
# K is set to 0 under np.errstate, as t0-convergence's does at its
# defaults.  apply and t0-convergence ignore only the eps-below-4h warning.
WARNING_RUNS = [
    *([kind] for kind in KINDS),
    ["weaktype", "out_n=512"],
    ["apply", "out_n=512"],
    *(["kernel-audit", f"kernel={k}"] for k in KERNEL_NAMES),
    *(["metric-equivalence", f"curve={c}"] for c in CURVE_NAMES),
    *(["qtheta", "curve=diamond", "theta=9", "mc_samples=20000",
       f"cube={cube}"] for cube in ("0.25..0.5", "2..3")),
]


@pytest.mark.parametrize("argv", WARNING_RUNS, ids=" ".join)
def test_runs_raise_no_runtime_warning(tmp_path, argv):
    done = run_in_a_process(tmp_path, *argv)
    assert done.returncode == 0, done.stderr


def test_hormander_beyond_its_tail_grid_exits_2(tmp_path):
    done = run_in_a_process(tmp_path, "hormander", "a_list=1e300")
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
