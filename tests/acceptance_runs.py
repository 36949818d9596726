"""The czo runs whose report bodies a change must leave byte-identical.

Run as a script from a checkout, it runs each of them in process, under
``-W error::RuntimeWarning`` as CI runs the kinds, and prints one line per
run with its exit code, then one line per report body with its sha256
(``manifest.csv`` is skipped: it records the wall time)::

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

# Each run is one argv, without --out.
RUNS = [
    # Every kind at its defaults, at --threads 1 and 2.
    *([kind, "--threads", t] for t in ("1", "2")
      for kind in czo.cli.KINDS),
    # The 2^14 runs of T_eps and of the weak type, for both lattice
    # kernels (the default two-line-hilbert and hilbert).
    ["apply", "n=16384", "out_n=8192"],
    ["apply", "kernel=hilbert", "n=16384", "out_n=8192"],
    ["apply", "function=odd-bump", "n=16384", "out_n=8192"],
    ["t0-convergence", "n=16384"],
    ["t0-convergence", "kernel=hilbert", "n=16384"],
    ["weaktype", "n=16384"],
    ["weaktype", "kernel=hilbert", "n=16384"],
    # The decompose variants: the default (above), 2-D, and a given root.
    ["decompose", "box=-8..8,-8..8", "n=256"],
    ["decompose", "function=indicator:0,1", "root=-2..2", "lambda=0.3"],
    # The dense path's weak type.
    ["weaktype", "kernel=diamond-model", "family=indicator:2,3;bump:4,0.5"],
    # The eps ladders whose last step test_console.py compares with a
    # one-shot apply at 0.0625: the dense path at 255 cells, and the
    # lattice path for both reflections and for one.
    ["t0-convergence", "kernel=diamond-model"],
    ["t0-convergence", "kernel=diamond-model", "n=255"],
    ["apply", "kernel=diamond-model", "n=255", "out_n=255", "eps=0.0625"],
    ["apply", "out_n=512", "eps=0.0625"],
    ["t0-convergence", "kernel=hilbert", "n=512"],
    ["apply", "kernel=hilbert", "n=512", "out_n=512", "eps=0.0625"],
    ["apply", "kernel=hilbert", "n=16384", "out_n=16384", "eps=0.0625"],
    ["weaktype", "out_n=100"],
    ["partition", "curve=diamond", "max_depth=6"],
    # The audits run under -W error::RuntimeWarning in test_console.py.
    *(["kernel-audit", f"kernel={k}"] for k in KERNEL_NAMES),
    *(["metric-equivalence", f"curve={c}"] for c in CURVE_NAMES),
    *(["qtheta", "curve=diamond", "theta=9", "mc_samples=20000",
       f"cube={cube}"] for cube in ("0.25..0.5", "2..3")),
    # A point beyond hormander's tail grid: exit 2, no body.
    ["hormander", "a_list=1e300"],
]


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
