"""The checks of the acceptance runs, run under Tier-1.

Each run is listed once, in ``tests/acceptance_runs.py``.  Most tests run
``czo.cli.main`` into ``tmp_path`` and compare report bodies:
``--threads`` 1 and 2 give the same bytes, the ``odd-bump`` apply is exact
zeros, the last step of an eps ladder equals a one-shot apply at its eps,
and ``decompose``'s CSVs keep its exact invariants.  The runs that must
raise no RuntimeWarning, and ``hormander`` beyond its tail grid, run in a
fresh ``python -W error::RuntimeWarning -m czo.cli`` process.  What needs
the installed ``czo`` script or a child's peak memory stays in CI.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import czo
from acceptance_runs import (DECOMPOSE_RUNS, HORMANDER_PAST_TAIL, LADDERS,
                             ODD_BUMP, RUNS, THREAD_RUNS, WARNING_RUNS,
                             ladder_runs)
from czo.cli import KINDS, ExperimentConfig, builtin_function, main
from czo.kernels import KERNEL_NAMES, get_kernel
from czo.operator import read_grid_csv


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


def manifest(out):
    """The config echo of a run's manifest.csv, key to value."""
    return dict(line.split(",", 1)
                for line in (out / "manifest.csv").read_text().splitlines())


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


def test_every_run_names_a_kind_and_only_known_keys():
    # Read as main reads an argv, without running it: a kind, then
    # key=value pairs and --threads K.
    for argv in RUNS:
        kind, *rest = argv
        assert kind in KINDS, argv
        options, tokens = {}, iter(rest)
        for token in tokens:
            key, val = (("threads", next(tokens)) if token == "--threads"
                        else token.split("=", 1))
            options[key] = val
        ExperimentConfig(kind, options)


@pytest.mark.parametrize("argv, files", THREAD_RUNS,
                         ids=[" ".join(a) for a, _ in THREAD_RUNS])
def test_bodies_do_not_depend_on_threads(tmp_path, argv, files):
    one = run(tmp_path, "t1", *argv, "--threads", "1")
    two = run(tmp_path, "t2", *argv, "--threads", "2")
    for name in files:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_odd_bump_apply_is_exact_zeros(tmp_path):
    out = run(tmp_path, "ao", *ODD_BUMP)
    n_out = int(manifest(out)["out_n"])
    assert values(out / "apply.csv") == ["0.0"] * n_out


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kernel, n", LADDERS)
def test_ladder_end_equals_a_one_shot_apply(tmp_path, kernel, n, threads):
    ladder_argv, once_argv = ladder_runs(kernel, n)
    ladder = run(tmp_path, "t", *ladder_argv, "--threads", threads)
    once = run(tmp_path, "a", *once_argv, "--threads", threads)
    want = values(once / "apply.csv")
    assert len(want) == n
    assert values(ladder / "t0_limit.csv") == want


@pytest.mark.parametrize("argv", DECOMPOSE_RUNS, ids=" ".join)
def test_decompose_csvs_keep_its_invariants(tmp_path, argv):
    # Read back from the CSVs alone: good + bad == f bit for bit,
    # max |good| <= 2^n lambda, and the reported weak L1 of good equals
    # the distinct-level formula.
    out = run(tmp_path, "d", *argv)
    cubes = (out / "decompose_cubes.csv").read_text().splitlines()
    notes = dict(line[1:].strip().split("=", 1) for line in cubes
                 if line.startswith("#"))
    good = read_grid_csv(str(out / "decompose_good.csv"))
    bad = read_grid_csv(str(out / "decompose_bad.csv"))
    f = builtin_function(manifest(out)["function"], good.box,
                         good.cells_per_axis)
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


@pytest.mark.parametrize("argv", WARNING_RUNS, ids=" ".join)
def test_runs_raise_no_runtime_warning(tmp_path, argv):
    done = run_in_a_process(tmp_path, *argv)
    assert done.returncode == 0, done.stderr


def test_hormander_beyond_its_tail_grid_exits_2(tmp_path):
    done = run_in_a_process(tmp_path, *HORMANDER_PAST_TAIL)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
