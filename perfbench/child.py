"""One benchmark process: import czo from the checkout, build the
workload's curves and kernels, run one pass of a workload session, check
every result against the oracles and write a JSON result file.

Run by ``run.py``; not meant to be started by hand.  Modes:

- ``cli``: one ``czo`` kind through ``czo.cli.main`` (outputs are checked
  by the parent, which reads the CSV reports);
- ``sweep``: a long T_eps session (estimate_T0 ladders, weak-type run);
- ``dyadic``: cz_decompose cases, partitions, locate and recovery;
- ``setup``: set-up only, to sample set-up time.

Operation times are taken at nominal machine speed (see ``speed.py``):
the process samples the reference kernels after set-up and then from a
timer until it ends, and returns its samples for the parent to use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

import oracles as orc
from speed import MIX, Speed
from wavy import wavy_curve, wavy_kernel

BOX = (-8.0, 8.0)
SWEEP_PLAN = (                      # kernel, input cells, output cells
    ("hilbert", 512, (512, 256)),
    ("two-line-hilbert", 512, (512, 256)),
    ("diamond-model", 256, (256,)),
    ("wavy", 256, (256,)),
)
LADDER = 16                         # eps values per estimate_T0 ladder
FAMILIES = 2                        # sweep inputs per kernel: 8 a family
REL = 1e-9                          # brute-force T_eps agreement
ODD_TOL = 1e-12                     # odd-function annihilation
RHO_TOL = {"diagonal": 1e-12, "two-lines": 1e-12, "diamond": 1e-12,
           "wavy": 1e-8}
DYADIC_CASES_1D = 100
DYADIC_CASES_2D = 3
SPIKES_2D = 24
DISTINCT_CELLS = 1 << 14
LOCATE_POINTS = 100_000
PARTITION_SPANS = {"two-lines": (-32.0, 32.0), "diamond": (-1.0, 1.0),
                   "wavy": (-32.0, 32.0)}


class Ledger:
    """Attempted and failed operations, failure messages, op latencies
    (``op_spans``: monotonic start and end of each unit operation)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.ops_ms = []
        self.op_spans = []

    def timed(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed as one unit operation."""
        t0 = time.monotonic()
        out = fn(*args, **kwargs)
        self.op_spans.append((t0, time.monotonic()))
        return out

    def note(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message[:400])

    def check(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.note(f"{what}: {'; '.join(problems)}")

    def crashed(self, what: str, exc: BaseException) -> None:
        self.check(what, [f"raised {type(exc).__name__}: {exc}"])

    def absorb(self, res: dict) -> None:
        """Add the counts of a child process's result."""
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        for message in res["failures"]:
            self.note(message)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def load_czo(root: str):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import czo
    if not os.path.realpath(czo.__file__).startswith(src + os.sep):
        raise SystemExit(f"czo was imported from {czo.__file__}, not {src}")
    return czo


def build(czo, workload: str) -> dict:
    """The curves and kernels a workload holds; this is set-up work."""
    if workload == "cli":
        from czo.cli import DEFAULTS
        return {"curve": czo.get_curve(DEFAULTS["curve"]),
                "kernel": czo.get_kernel(DEFAULTS["kernel"])}
    if workload == "sweep":
        kernels = {name: czo.get_kernel(name)
                   for name, _, _ in SWEEP_PLAN if name != "wavy"}
        kernels["wavy"] = wavy_kernel(czo)
        return kernels
    return {"two-lines": czo.get_curve("two-lines"),
            "diamond": czo.get_curve("diamond"), "wavy": wavy_curve(czo)}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _family(rng, x: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Eight inputs: compact ones (for the bit-identity check), exactly odd
    ones (for annihilation) and one with full support."""
    def compact_bump():
        c, w = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 1.5)
        u = (x - c) / w
        return np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)

    def indicator():
        a = rng.uniform(-3.0, 2.0)
        return ((x >= a) & (x <= a + rng.uniform(0.5, 2.0))).astype(float)

    a = rng.normal(size=len(x))
    w = rng.uniform(0.5, 2.0)
    return [
        ("compact", indicator()),
        ("compact", compact_bump()),
        ("compact", np.where(np.abs(x) <= 1.0, rng.normal(size=len(x)), 0.0)),
        ("odd", a - a[::-1]),
        ("odd", rng.uniform(0.5, 2.0) * (x / w) * np.exp(-(x / w) ** 2)),
        ("full", np.exp(-((x - rng.uniform(-2, 2))
                         / rng.uniform(0.5, 2)) ** 2)),
        ("compact", indicator()),
        ("compact", compact_bump()),
    ]


def _ladder_problems(kname, fam_kind, f_vals, outs, eps, rep, limit,
                     x_out, y_in):
    problems = []
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(outs, outs[1:])]
    if len(outs) != len(eps):
        problems.append(f"{len(outs)} applies for {len(eps)} eps")
    elif rep.sup_diffs != diffs or list(rep.epsilons) != list(eps):
        problems.append("T0Report disagrees with the applies it summarises")
    elif not np.array_equal(limit.values, outs[-1]):
        problems.append("limit differs from the last apply")
    if fam_kind == "compact" and kname != "wavy" and not problems:
        # At x with rho(x, supp f) >= eps the mask is full, so T_eps f(x)
        # must not change bitwise as eps decreases further.
        supp = y_in[f_vals != 0.0]
        rho = orc.RHO[orc.KERNEL_CURVE[kname]](x_out[:, None], supp[None, :])
        dmin = np.min(rho, axis=1) * (1.0 - 1e-9)
        for k in range(1, len(eps)):
            far = eps[k - 1] <= dmin
            if not np.array_equal(outs[k - 1][far], outs[k][far]):
                problems.append(f"not bit-identical across eps at "
                                f"{int(np.count_nonzero(far))} distant points")
                break
    return problems


def run_sweep(czo, setup: dict, seed: int, ledger: Ledger) -> None:
    import czo.operator as op
    rng = np.random.default_rng([seed, 2])
    bx = czo.box(*BOX)
    eps = [float(e) for e in rng.uniform(1.0, 1.5) * 0.82 ** np.arange(LADDER)]
    calls = []
    inner = op.apply_truncated

    def timed_apply(kernel, f, epsilon, out_geometry=None, threads=1):
        out = ledger.timed(inner, kernel, f, epsilon, out_geometry, threads)
        calls.append((epsilon, out.values))
        return out

    # One operator per (kernel, output grid), each with its own inputs.
    operators = []
    for kname, n_in, outs_n in SWEEP_PLAN:
        y_in = orc.axis_nodes(*BOX, n_in)
        h = orc.cell_width(*BOX, n_in)
        family = [item for _ in range(FAMILIES) for item in _family(rng, y_in)]
        for n_out in outs_n:
            x_out = orc.axis_nodes(*BOX, n_out)
            pts = np.sort(rng.choice(n_out, 4, replace=False))
            rows = orc.TepsRows(kname, x_out[pts], y_in, h,
                                1e-6 if kname == "wavy" else 1e-12)
            geom = None if n_out == n_in else (bx, n_out)
            operators.append((kname, n_in, n_out, y_in, x_out, pts, rows,
                              geom, family))

    # Rounds cycle through the operators, so the applies of each one are
    # spread over the session rather than timed in one short burst.
    op.apply_truncated = timed_apply
    try:
        for r in range(8 * FAMILIES):
            for (kname, n_in, n_out, y_in, x_out, pts, rows, geom,
                 family) in operators:
                fam_kind, vals = family[r]
                what = f"sweep {kname} {n_in}->{n_out} {fam_kind}"
                calls.clear()
                try:
                    limit, rep = czo.estimate_T0(
                        setup[kname], czo.GridFunction(bx, n_in, vals), eps,
                        out_geometry=geom, threads=1)
                except Exception as exc:            # noqa: BLE001 - counted
                    ledger.crashed(what, exc)
                    continue
                for e, out in calls:
                    ref, scale, amb = rows.value(vals, e)
                    bad = ~orc.close(out[pts], ref, scale, REL) & ~amb
                    problems = ([f"T_eps differs from brute force at "
                                 f"eps={e!r}"] if np.any(bad) else [])
                    if kname == "two-line-hilbert" and fam_kind == "odd":
                        ratio = np.max(np.abs(out)) / np.max(np.abs(vals))
                        if ratio > ODD_TOL:
                            problems.append(f"odd input not annihilated "
                                            f"({ratio:.2e})")
                    ledger.check(f"{what} apply", problems)
                ledger.check(what, _ladder_problems(
                    kname, fam_kind, vals, [o for _, o in calls], eps, rep,
                    limit, x_out, y_in))
    finally:
        op.apply_truncated = inner

    _check_rho(czo, setup, rng, ledger)
    _check_hormander(czo, setup, rng, ledger)
    _check_weak_type(czo, setup, rng, ledger, bx)


def _check_rho(czo, setup, rng, ledger):
    from czo.metric import rho_values
    curves = {"diagonal": setup["hilbert"].curve,
              "two-lines": setup["two-line-hilbert"].curve,
              "diamond": setup["diamond-model"].curve,
              "wavy": setup["wavy"].curve}
    for name, curve in curves.items():
        X = rng.uniform(-8.0, 8.0, 2000)
        Y = rng.uniform(-8.0, 8.0, 2000)
        if name == "wavy":
            # Half the pairs sit within 1e-9..3 of the curve, where the
            # sampled solver is least accurate.
            near = (rng.choice([-1.0, 1.0], 1000)
                    * 10.0 ** rng.uniform(-9, 0.5, 1000))
            Y[:1000] = orc.wavy_gamma(X[:1000]) + near
        try:
            got, _ = rho_values(curve, X[:, None], Y[:, None])
        except Exception as exc:                    # noqa: BLE001 - counted
            ledger.crashed(f"rho {name}", exc)
            continue
        want = orc.RHO[name](X, Y)
        err = np.abs(got - want)
        tol = RHO_TOL[name] * (1.0 + want)
        ledger.check(f"rho {name}", [f"max error {np.max(err):.3e}"]
                     if np.any(err > tol) else [])


def _check_hormander(czo, setup, rng, ledger):
    a = float(rng.choice([0.1, 1.0, 10.0]))
    try:
        rep = czo.kernels.hormander_constant(setup["hilbert"], z=a,
                                             grid_points=1 << 14)
    except Exception as exc:                        # noqa: BLE001 - counted
        ledger.crashed("hormander hilbert", exc)
        return
    rel = abs(rep.value_total / orc.HILBERT_HORMANDER - 1.0)
    ledger.check("hormander hilbert", [f"value {rep.value_total!r} off by "
                                       f"{rel:.2%}"] if rel > 0.02 else [])


def _check_weak_type(czo, setup, rng, ledger, bx):
    n_in, n_out, eps = 512, 256, 0.1
    y_in = orc.axis_nodes(*BOX, n_in)
    x_out = orc.axis_nodes(*BOX, n_out)
    h = orc.cell_width(*BOX, n_in)
    cell_out = orc.cell_width(*BOX, n_out)
    family = []
    for c in rng.uniform(-2.5, 2.5, 3):
        family.append(((y_in >= c - 0.5) & (y_in <= c + 0.5)).astype(float))
    for c, w in zip(rng.uniform(-3, 3, 3), rng.uniform(0.5, 1.2, 3)):
        family.append(np.exp(-((y_in - c) / w) ** 2))
    try:
        rep = czo.weak_type_experiment(
            setup["two-line-hilbert"],
            [czo.GridFunction(bx, n_in, v) for v in family], eps, 8.1,
            out_cells=n_out, threads=1)
    except Exception as exc:                        # noqa: BLE001 - counted
        ledger.crashed("weak type", exc)
        return
    problems = []
    for fi, vals in enumerate(family):
        tf, scale, _ = orc.t_eps_full("two-line-hilbert", x_out, y_in, vals,
                                      h, eps)
        l1 = float(np.sum(np.abs(vals)) * h)
        rows = [r for r in rep.rows if r.function_index == fi]
        for j, r in enumerate(rows):
            lam = 2.0 ** j * l1 / 16.0
            if abs(r.lam - lam) > 1e-12 * lam:
                problems.append(f"f{fi}: lambda ladder {r.lam!r} != {lam!r}")
                break
            level = np.count_nonzero(np.abs(tf) >= r.lam) * cell_out
            unsure = np.count_nonzero(np.abs(np.abs(tf) - r.lam)
                                      <= 1e-9 * np.maximum(scale, r.lam))
            if abs(r.superlevel_measure - level) > unsure * cell_out + 1e-12:
                problems.append(f"f{fi} lam={r.lam!r}: superlevel "
                                f"{r.superlevel_measure!r} != {level!r}")
                break
            want = r.lam * r.superlevel_measure / l1
            if abs(r.ratio - want) > 1e-12 * max(r.ratio, 1.0):
                problems.append(f"f{fi}: ratio inconsistent")
                break
    if not np.isfinite(rep.max_ratio):
        problems.append("max ratio not finite")
    ledger.check("weak type", problems)


# ---------------------------------------------------------------------------
# dyadic
# ---------------------------------------------------------------------------

def _quantize(v):
    return np.round(v * 2.0 ** 20) / 2.0 ** 20


def _dyadic_cases(rng):
    """(values, dim, lam) cases: dyadic-rational data, so every CZ invariant
    is an exact floating-point identity.

    lam / mean|f| is 2**u with u spread over [0, 5] by stratified sampling:
    each kind of 1-D case takes one u from each of its equal strata, in
    random order, so every seed covers the same range of heights and the
    latency percentiles do not hang on where a few random draws fell."""
    x = orc.axis_nodes(*BOX, 4096)
    strata = DYADIC_CASES_1D // 2
    heights = [5.0 * (rng.permutation(strata) + rng.random(strata)) / strata
               for _ in range(2)]
    for k in range(DYADIC_CASES_1D):
        if k % 2 == 0:
            cuts = np.sort(rng.choice(np.arange(1, 4096), 48, replace=False))
            steps = rng.integers(-2 ** 21, 2 ** 21, size=49) / 2.0 ** 20
            steps[rng.random(49) < 0.6] = 0.0
            lengths = np.diff(np.concatenate([[0], cuts, [4096]]))
            vals = np.repeat(steps, lengths)
        else:
            m = int(rng.integers(3, 7))
            c, w = rng.uniform(-6, 6, m), rng.uniform(0.05, 1.0, m)
            amp = rng.uniform(-3, 3, m)
            vals = _quantize(np.sum(amp[:, None] * np.exp(
                -((x[None, :] - c[:, None]) / w[:, None]) ** 2), axis=0))
        yield vals, 1, _lambda(vals, heights[k % 2][k // 2])
    g = orc.axis_nodes(*BOX, 256)
    X0, X1 = np.meshgrid(g, g, indexing="ij")
    for _ in range(DYADIC_CASES_2D):
        # A smooth background in [0, 2] plus one spike of height 4096 in
        # each of 24 of the 64 blocks of 32x32 cells.  Any cube of side >= 32
        # averages at most 4 + 2, a side-16 cube holding a spike at least 16,
        # so for lam in (6, 16) exactly 24 cubes are selected: the memory the
        # bad parts take does not depend on the seed.
        c0, c1 = rng.uniform(-6, 6, 2)
        w = rng.uniform(2.0, 6.0)
        vals = 2.0 * np.exp(-((X0 - c0) ** 2 + (X1 - c1) ** 2) / w ** 2)
        vals = _quantize(vals)
        for block in rng.choice(64, SPIKES_2D, replace=False):
            i, j = divmod(int(block), 8)
            vals[32 * i + rng.integers(32), 32 * j + rng.integers(32)] = 4096.0
        yield vals, 2, float(rng.uniform(7.0, 15.0))
    vals = (rng.permutation(DISTINCT_CELLS) + 1.0) / DISTINCT_CELLS
    yield vals, 1, float(np.max(vals)) * rng.uniform(1.0, 2.0)


def _lambda(vals, u):
    avg = float(np.mean(np.abs(vals)))
    return max(avg, 2.0 ** -20) * 2.0 ** u


def _decomposition_problems(dec, vals, dim, lam, wl):
    n = vals.shape[0]
    h = orc.cell_width(*BOX, n)
    cell = h ** dim
    slices, problems = [], []
    for c in dec.cubes:
        lo = (np.array(c.box.lo) - BOX[0]) / h
        hi = (np.array(c.box.hi) - BOX[0]) / h
        i_lo, i_hi = np.rint(lo).astype(int), np.rint(hi).astype(int)
        if max(np.max(np.abs(lo - i_lo)), np.max(np.abs(hi - i_hi))) > 1e-9:
            problems.append("cube not aligned with cells")
            return problems
        slices.append(tuple(slice(a, b) for a, b in zip(i_lo, i_hi)))
    shape = (n,) * dim
    problems += orc.cz_invariants(
        vals, dec.good.values.reshape(shape),
        [b.values.reshape(shape) for b in dec.bad], slices,
        [c.average for c in dec.cubes], [c.abs_average for c in dec.cubes],
        lam, dim, cell)
    want = orc.weak_l1_sorted(dec.good.values, cell)
    if wl != want:
        problems.append(f"weak L1 {wl!r} != sort-based {want!r}")
    return problems


def _partition_problems(name, part, depth, rng):
    accepted = [orc.cube_interval(c.level, c.corner[0]) for c in part.cubes]
    leftover = [orc.cube_interval(c.level, c.corner[0]) for c in part.leftover]
    critical = [] if name == "wavy" else [0.0]
    problems = orc.partition_problems(accepted, leftover,
                                      PARTITION_SPANS[name], critical)
    # Both built-in curves only fail at the critical value 0, so exactly the
    # two depth-d cubes touching it are left over.
    want_left = 0.0 if name == "wavy" else 2.0 ** (1 - depth)
    if part.leftover_measure != want_left:
        problems.append(f"leftover {part.leftover_measure!r} != {want_left!r}")
    if part.probabilistic != (name == "wavy"):
        problems.append(f"probabilistic={part.probabilistic}")
    if name != "wavy":
        x = rng.uniform(-8.0, 8.0, 20_000)
        hit = np.stack([orc.locate_brute(accepted, y)
                        for y in _branch_images(name, x)])
        for i in range(len(hit)):
            for k in range(i + 1, len(hit)):
                same = (hit[i] >= 0) & (hit[i] == hit[k])
                if np.any(same):
                    problems.append("two branches share a cube")
    return problems


def _branch_images(name, x):
    """Images of x under each branch, NaN off the branch domain."""
    if name == "two-lines":
        return [x, -x]
    ax = np.abs(x)
    slant = ax <= 1.0
    return [np.where(slant, 1.0 - ax, np.nan),
            np.where(slant, ax - 1.0, np.nan),
            np.where(ax >= 1.0, 0.0, np.nan)]


def _decompose(czo, gf, lam):
    dec = czo.cz_decompose(gf, lam)
    return dec, czo.weak_l1_quasinorm(dec.good)


def run_dyadic(czo, setup: dict, seed: int, ledger: Ledger) -> None:
    rng = np.random.default_rng([seed, 3])
    for k, (vals, dim, lam) in enumerate(_dyadic_cases(rng)):
        n = vals.shape[0]
        bx = czo.box((BOX[0],) * dim, (BOX[1],) * dim)
        gf = czo.GridFunction(bx, n, vals.reshape(-1))
        try:
            dec, wl = ledger.timed(_decompose, czo, gf, lam)
        except Exception as exc:                    # noqa: BLE001 - counted
            ledger.crashed(f"decompose case {k}", exc)
            continue
        ledger.check(f"decompose case {k} ({dim}-d, {n} cells)",
                     _decomposition_problems(dec, vals, dim, lam, wl))

    parts = {}
    for name in ("two-lines", "diamond", "wavy"):
        for depth in range(4, 9):
            try:
                part = czo.build_partition(setup[name], depth)
            except Exception as exc:                # noqa: BLE001 - counted
                ledger.crashed(f"partition {name} {depth}", exc)
                continue
            parts[name, depth] = part
            ledger.check(f"partition {name} depth {depth}",
                         _partition_problems(name, part, depth, rng))

    part = parts.get(("two-lines", 8))
    if part is None:
        return
    y = rng.uniform(-32.0, 32.0, LOCATE_POINTS)
    try:
        got = part.locate(y[:, None])
    except Exception as exc:                        # noqa: BLE001 - counted
        ledger.crashed("locate", exc)
    else:
        want = orc.locate_brute(
            [orc.cube_interval(c.level, c.corner[0]) for c in part.cubes], y)
        wrong = int(np.count_nonzero(got != want))
        ledger.check("locate", [f"{wrong} points misplaced"] if wrong else [])
    _check_recovery(czo, setup["two-lines"], part, rng, ledger)


def _check_recovery(czo, curve, part, rng, ledger):
    from czo.operator import (multiplier_field, multiplier_handle,
                              recover_multipliers)
    n = 512
    bx = czo.box(*BOX)
    b0 = float(rng.uniform(0.5, 2.0))
    w, phase = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0, np.pi))
    try:
        declared = multiplier_field(
            curve, bx, n, [b0, lambda X: np.sin(w * X[:, 0] + phase)])
        rec = recover_multipliers(multiplier_handle(curve, declared), curve,
                                  part, bx, n)
    except Exception as exc:                        # noqa: BLE001 - counted
        ledger.crashed("recover", exc)
        return
    x = orc.axis_nodes(*BOX, n)
    want = np.stack([np.full(n, b0), np.sin(w * x + phase)])
    h = orc.cell_width(*BOX, n)
    problems = []
    if not np.all(rec.covered):
        missing = int(np.count_nonzero(~rec.covered))
        problems.append(f"{missing} nodes uncovered")
    err = float(np.max(np.abs(rec.fields - want)[rec.covered], initial=0.0))
    if err > 2.0 * h:
        problems.append(f"recovery error {err!r} > 2h")
    ledger.check("recover", problems)


# ---------------------------------------------------------------------------

def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--mode", required=True,
                   choices=("cli", "sweep", "dyadic", "setup"))
    p.add_argument("--workload", default="")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--kind", default="")
    p.add_argument("--out", default="")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    czo = load_czo(args.root)
    t_import = time.monotonic()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup = build(czo, args.workload or args.mode)
    t_setup = time.monotonic()
    speed = Speed()
    speed.sample(2)
    speed.start_timer()

    ledger = Ledger()
    code = 0
    try:
        if args.mode == "cli":
            argv = [args.kind, "--out", args.out, "--threads",
                    str(args.threads), f"seed={args.seed}"]
            if args.kind == "hormander":
                argv.append("hormander_grid=65536")
            code = czo.cli.main(argv)
        elif args.mode == "sweep":
            run_sweep(czo, setup, args.seed, ledger)
        elif args.mode == "dyadic":
            run_dyadic(czo, setup, args.seed, ledger)
    except Exception as exc:                        # noqa: BLE001 - reported
        ledger.crashed(f"{args.mode} session", exc)
        traceback.print_exc()
        code = 1
    speed.stop_timer()
    speed.sample(2)
    mix = MIX.get(args.workload or args.mode)
    ledger.ops_ms = [1e3 * speed.scaled(a, b, mix)
                     for a, b in ledger.op_spans]
    result = {"t_import": t_import, "t_setup": t_setup, "exit": code,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "failures": ledger.failures, "ops_ms": ledger.ops_ms,
              "speed": speed.samples,
              "trace": tracer.summary() if tracer else None}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
