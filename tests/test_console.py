"""The T_eps checks of CI's Console-script step, run in process.

Each test runs ``czo.cli.main`` into ``tmp_path``, as the step runs the
``czo`` entry point, and makes the same comparison of report bodies:
``--threads`` 1 and 2 give the same bytes, the ``odd-bump`` apply is exact
zeros, and the last step of an eps ladder equals a one-shot apply at its
eps.  The step's lines stay in CI, where they run the installed script.
"""

import pytest

from czo.cli import DEFAULTS, main
from czo.kernels import KERNEL_NAMES, get_kernel

# The eps that ends the default eps_list, 0.0625 as CI writes it.
LADDER_END = DEFAULTS["eps_list"].split(",")[-1]


def run(tmp_path, name, *argv):
    """Run one kind into tmp_path / name; its exit code must be 0."""
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out


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
