"""The czo runs whose checks and report bodies a change must keep.

Each run is one argv, without --out, listed once here.  The lists below
name what ``tests/test_console.py`` checks of each run; ``RUNS`` is their
union plus the runs that are only digested.

Run as a script from a checkout, it runs each of ``RUNS`` in process,
under ``-W error::RuntimeWarning`` as ``test_console.py`` runs the kinds,
and prints one line per run with its exit code, then one line per report
body with its sha256 (``manifest.csv`` is skipped: it records the wall
time)::

    PYTHONPATH=src python tests/acceptance_runs.py > runs.txt

Make the same list from the parent commit's code on the same machine
(``PYTHONPATH=<parent checkout>/src``, so both sides run this list) and
diff the two files.  No digest is kept in the repository: ``np.exp`` and ``np.sin``
may change bits across CPUs and numpy versions.
"""

import hashlib
import os
import sys
import tempfile
import warnings

import czo.cli
from czo.curves import CURVE_NAMES
from czo.kernels import KERNEL_NAMES

# two-line-hilbert on an odd f: every mirror pair cancels bitwise, so its
# apply is exact zeros.
ODD_BUMP = ["apply", "function=odd-bump", "n=16384", "out_n=8192"]

# (argv, the report files compared across --threads 1 and 2): the 2^14
# runs of T_eps and of the weak type for both lattice kernels (the default
# two-line-hilbert and hilbert), the dense path's ladder and weak type,
# and a weak type whose output grid is not f's.
THREAD_RUNS = [
    (["apply", "n=16384", "out_n=8192"], ["apply.csv"]),
    (["apply", "kernel=hilbert", "n=16384", "out_n=8192"], ["apply.csv"]),
    (ODD_BUMP, ["apply.csv"]),
    (["t0-convergence", "n=16384"], ["t0_convergence.csv", "t0_limit.csv"]),
    (["t0-convergence", "kernel=hilbert", "n=16384"],
     ["t0_convergence.csv", "t0_limit.csv"]),
    (["t0-convergence", "kernel=diamond-model"],
     ["t0_convergence.csv", "t0_limit.csv"]),
    (["weaktype", "n=16384"], ["weaktype.csv"]),
    (["weaktype", "kernel=hilbert", "n=16384"], ["weaktype.csv"]),
    (["weaktype", "kernel=diamond-model", "family=indicator:2,3;bump:4,0.5"],
     ["weaktype.csv"]),
    (["weaktype", "out_n=100"], ["weaktype.csv"]),
]

# The eps that ends the default eps_list, 0.0625.
LADDER_END = czo.cli.DEFAULTS["eps_list"].split(",")[-1]

# (kernel, n) of the eps ladders whose last step must equal a one-shot
# apply at LADDER_END: the dense path, and the lattice path for both
# reflections and for one.
LADDERS = [("diamond-model", 255), ("two-line-hilbert", 512),
           ("hilbert", 512), ("hilbert", 16384)]


def ladder_runs(kernel, n):
    """(the eps ladder, the one-shot apply at its last eps) on n cells."""
    return (["t0-convergence", f"kernel={kernel}", f"n={n}"],
            ["apply", f"kernel={kernel}", f"n={n}", f"out_n={n}",
             f"eps={LADDER_END}"])


# The runs whose decompose CSVs must keep its exact invariants: the
# default run, a 2-D run and a run on a given root.
DECOMPOSE_RUNS = [
    ["decompose"],
    ["decompose", "box=-8..8,-8..8", "n=256"],
    ["decompose", "function=indicator:0,1", "root=-2..2", "lambda=0.3"],
]

# The runs that must exit 0 in a fresh process with RuntimeWarnings as
# errors: every kind at its defaults, a weak type and an apply whose
# output grid is f's, so that their lattices meet the offset 0, where K is
# set to 0 under np.errstate, as t0-convergence's does at its defaults,
# each kernel's audit, each curve's equivalence audit, and the diamond's
# Q_theta at a cube on the curve and one beside it.  apply and
# t0-convergence ignore only the eps-below-4h warning.
WARNING_RUNS = [
    *([kind] for kind in czo.cli.KINDS),
    ["weaktype", "out_n=512"],
    ["apply", "out_n=512"],
    *(["kernel-audit", f"kernel={k}"] for k in KERNEL_NAMES),
    *(["metric-equivalence", f"curve={c}"] for c in CURVE_NAMES),
    *(["qtheta", "curve=diamond", "theta=9", "mc_samples=20000",
       f"cube={cube}"] for cube in ("0.25..0.5", "2..3")),
]

# A point beyond hormander's tail grid: exit 2, no traceback and no body.
HORMANDER_PAST_TAIL = ["hormander", "a_list=1e300"]


def _union(*lists):
    """The argv of lists, each once, in order of first appearance."""
    seen = {}
    for argv in (a for runs in lists for a in runs):
        seen.setdefault(tuple(argv), argv)
    return list(seen.values())


RUNS = _union(
    WARNING_RUNS,
    # Every kind at --threads 2; WARNING_RUNS holds each at its default 1.
    ([kind, "--threads", "2"] for kind in czo.cli.KINDS),
    (argv for argv, _ in THREAD_RUNS),
    (argv for kernel, n in LADDERS for argv in ladder_runs(kernel, n)),
    DECOMPOSE_RUNS,
    [HORMANDER_PAST_TAIL],
    # Digested only: the diamond partition that CI's entry point runs.
    [["partition", "curve=diamond", "max_depth=6"]],
)


def digest(argv, out):
    """(exit code or the error raised, [(body file, sha256)])."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = czo.cli.main([*argv, "--out", out])
        except Exception as exc:        # a run that fails shows in the diff
            code = f"{type(exc).__name__}: {exc}"
    bodies = []
    for name in sorted(os.listdir(out)):
        if name != "manifest.csv":
            with open(os.path.join(out, name), "rb") as fh:
                bodies.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return code, bodies


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(RUNS):
            out = os.path.join(tmp, str(i))
            os.makedirs(out)
            code, bodies = digest(argv, out)
            print(" ".join(argv), "exit", code)
            for name, sha in bodies:
                print("   ", name, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
