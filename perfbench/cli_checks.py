"""Oracle checks on the CSV reports of the ten ``czo`` kinds.

Each kind runs at its default config (see ``czo.cli.DEFAULTS``): curve
``two-lines``, kernel ``two-line-hilbert``, box -8..8, n=512, out_n=256,
eps=0.1.  The expected values below are derived for exactly that config.
``check(kind, out_dir)`` returns the list of problems found.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracles as orc

BOX = (-8.0, 8.0)
N, OUT_N, EPS, LAMBDA, THETA = 512, 256, 0.1, 0.3, 8.1
MAX_DEPTH = 8
C_GAMMA = 1.0 + 1e-9           # two-lines is isometric; czo clamps c above 1
REL = 1e-9


def _rows(path: str):
    """(comment lines, header, rows as lists of strings)."""
    comments, lines = [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            (comments if line.startswith("#") else lines).append(line)
    return comments, lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _grid(path: str):
    header, vals = None, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                header = line
            elif line.strip():
                vals.append(float(line))
    return header, np.array(vals)


def _comment(comments, key):
    for c in comments:
        for part in c.lstrip("# ").split():
            if part.startswith(key + "="):
                return part.split("=", 1)[1]
    return None


def _indicator(x, a=-1.0, b=1.0):
    return ((x >= a) & (x <= b)).astype(float)


def check_metric_equivalence(out):
    _, head, rows = _rows(os.path.join(out, "metric_equivalence.csv"))
    if head != ["curve", "pairs", "max_ratio_tilde", "max_ratio_star",
                "bound", "passed"] or len(rows) != 1:
        return ["unexpected report layout"]
    curve, pairs, rt, rs, bound, passed = rows[0]
    problems = []
    # On two-lines both surrogates equal |x -+ y| = sqrt(2) rho exactly.
    for label, v in (("tilde", rt), ("star", rs)):
        if abs(float(v) - orc.SQ2) > 1e-9:
            problems.append(f"max ratio {label} {v} != sqrt(2)")
    if abs(float(bound) - 2.0 * (C_GAMMA + 1.0)) > 1e-12 or passed != "1":
        problems.append(f"bound {bound} / passed {passed}")
    if curve != "two-lines" or pairs != "10000":
        problems.append("wrong config echoed")
    return problems


def check_partition(out):
    comments, _, rows = _rows(os.path.join(out, "partition.csv"))
    accepted = [(float(r[3]), float(r[4])) for r in rows if r[0] == "cube"]
    leftover = [(float(r[3]), float(r[4])) for r in rows if r[0] == "leftover"]
    problems = orc.partition_problems(accepted, leftover, (-32.0, 32.0), [0.0])
    want = 2.0 ** (1 - MAX_DEPTH)
    if float(_comment(comments, "leftover_measure")) != want:
        problems.append(f"leftover measure != {want!r}")
    if sum(hi - lo for lo, hi in leftover) != want:
        problems.append("leftover cubes do not add up")
    if _comment(comments, "probabilistic") != "0":
        problems.append("two-lines partition marked probabilistic")
    return problems


def check_kernel_audit(out):
    comments, _, rows = _rows(os.path.join(out, "kernel_audit.csv"))
    size = [r for r in rows if r[0] == "size"]
    reg = [r for r in rows if r[0] == "regularity"]
    if len(size) != 1 or len(reg) != 1:
        return ["missing audit rows"]
    problems = []
    # sup |K| rho = sqrt(2) for K = 1/(x-y) + 1/(x+y), approached as y -> 0.
    sup = float(size[0][1])
    if not (orc.SQ2 * (1 - 1e-3) <= sup <= orc.SQ2 * (1 + 1e-12)):
        problems.append(f"size supremum {sup!r} vs sqrt(2)")
    if size[0][3] != "1":
        problems.append("size audit failed")
    if not math.isfinite(float(reg[0][1])):
        problems.append("regularity supremum not finite")
    return problems


def check_hormander(out):
    _, _, rows = _rows(os.path.join(out, "hormander.csv"))
    totals = [float(r[3]) for r in rows]
    if [float(r[0]) for r in rows] != [0.1, 1.0, 10.0]:
        return ["unexpected separations"]
    problems = [f"value {v!r} not within 2% of 2 ln(8/7)" for v in totals
                if abs(v / orc.TWO_LINE_HORMANDER - 1.0) > 0.02]
    if max(totals) / min(totals) - 1.0 > 0.01:
        problems.append("not scale-invariant to 1%")
    return problems


def _t_eps(x_out, eps):
    y = orc.axis_nodes(*BOX, N)
    return orc.t_eps_full("two-line-hilbert", x_out, y, _indicator(y),
                          orc.cell_width(*BOX, N), eps)


def check_apply(out):
    _, head, rows = _rows(os.path.join(out, "apply.csv"))
    x = np.array([float(r[0]) for r in rows])
    got = np.array([float(r[1]) for r in rows])
    x_want = orc.axis_nodes(*BOX, OUT_N)
    if head != ["x", "value"] or not np.array_equal(x, x_want):
        return ["output nodes differ from the midpoint grid"]
    want, scale, amb = _t_eps(x, EPS)
    bad = ~orc.close(got, want, scale, REL) & ~amb
    return [f"{int(np.count_nonzero(bad))} values differ from brute-force "
            f"T_eps"] if np.any(bad) else []


def check_t0(out):
    _, _, rows = _rows(os.path.join(out, "t0_convergence.csv"))
    eps = [float(r[0]) for r in rows]
    if eps != [0.5, 0.25, 0.125, 0.0625]:
        return ["unexpected eps list"]
    x = orc.axis_nodes(*BOX, N)
    refs = [_t_eps(x, e) for e in eps]
    problems = []
    for k in range(len(eps) - 1):
        want = float(np.max(np.abs(refs[k][0] - refs[k + 1][0])))
        scale = float(np.max(refs[k][1] + refs[k + 1][1]))
        if abs(float(rows[k][1]) - want) > REL * scale:
            problems.append(f"sup diff at eps={eps[k]} is {rows[k][1]}, "
                            f"brute force {want!r}")
    h = orc.cell_width(*BOX, N)
    if any(r[2] != str(int(e < h)) for r, e in zip(rows, eps)):
        problems.append("unreliable flags wrong")
    header, vals = _grid(os.path.join(out, "t0_limit.csv"))
    if header is None or "n=512" not in header or len(vals) != N:
        return problems + ["t0_limit.csv malformed"]
    want, scale, amb = refs[-1]
    if np.any(~orc.close(vals, want, scale, REL) & ~amb):
        problems.append("limit differs from brute-force T_eps")
    return problems


def check_recover(out):
    comments, _, rows = _rows(os.path.join(out, "recover.csv"))
    h = orc.cell_width(*BOX, N)
    problems = []
    if float(_comment(comments, "tolerance")) != 2.0 * h or len(rows) != 2:
        return ["unexpected tolerance or branch count"]
    for branch, err, covered, uncovered in rows:
        if float(err) > 2.0 * h:
            problems.append(f"branch {branch} error {err} > 2h")
        # Node images +-x never fall in the depth-8 leftover cubes at 0.
        if (int(covered), int(uncovered)) != (N, 0):
            problems.append(f"branch {branch} covers {covered}/{N}")
    return problems


def check_decompose(out):
    comments, _, rows = _rows(os.path.join(out, "decompose_cubes.csv"))
    x = orc.axis_nodes(*BOX, N)
    f = _indicator(x)
    h = orc.cell_width(*BOX, N)
    _, good = _grid(os.path.join(out, "decompose_good.csv"))
    _, bad = _grid(os.path.join(out, "decompose_bad.csv"))
    if len(good) != N or len(bad) != N:
        return ["grids malformed"]
    slices, avgs, abs_avgs, bads = [], [], [], []
    for _, lo, hi, avg, abs_avg in rows:
        a = int(round((float(lo) - BOX[0]) / h))
        b = int(round((float(hi) - BOX[0]) / h))
        slices.append((slice(a, b),))
        avgs.append(float(avg))
        abs_avgs.append(float(abs_avg))
        part = np.zeros(N)
        part[a:b] = bad[a:b]
        bads.append(part)
    problems = []
    inside = np.zeros(N, dtype=bool)
    for sl in slices:
        inside[sl] = True
    if np.any(bad[~inside] != 0.0):
        problems.append("bad part outside the selected cubes")
    problems += orc.cz_invariants(f, good, bads, slices, avgs, abs_avgs,
                                  LAMBDA, 1, h)
    wl = float(_comment(comments, "weak_l1_good"))
    if wl != orc.weak_l1_sorted(good, h):
        problems.append(f"weak_l1_good {wl!r} != sort-based reference")
    return problems


def check_weaktype(out):
    comments, _, rows = _rows(os.path.join(out, "weaktype.csv"))
    y = orc.axis_nodes(*BOX, N)
    x = orc.axis_nodes(*BOX, OUT_N)
    h = orc.cell_width(*BOX, N)
    cell_out = orc.cell_width(*BOX, OUT_N)
    family = [_indicator(y), np.exp(-y ** 2)]        # indicator:-1,1;bump
    problems = []
    ratios = []
    for fi, vals in enumerate(family):
        tf, scale, _ = orc.t_eps_full("two-line-hilbert", x, y, vals, h, EPS)
        l1 = float(np.sum(np.abs(vals)) * h)
        mine = [r for r in rows if r[0] == str(fi)]
        if len(mine) != 13:
            return [f"function {fi}: {len(mine)} rows, expected 13"]
        for j, r in enumerate(mine):
            lam, level, ratio = float(r[1]), float(r[3]), float(r[4])
            ratios.append(ratio)
            if abs(lam - 2.0 ** j * l1 / 16.0) > 1e-12 * lam:
                problems.append(f"f{fi}: lambda {lam!r} off the ladder")
                break
            want = np.count_nonzero(np.abs(tf) >= lam) * cell_out
            unsure = np.count_nonzero(np.abs(np.abs(tf) - lam)
                                      <= 1e-9 * np.maximum(scale, lam))
            if abs(level - want) > unsure * cell_out + 1e-12:
                problems.append(f"f{fi} lam={lam!r}: superlevel {level!r} "
                                f"!= brute force {want!r}")
                break
            if abs(ratio - lam * level / l1) > 1e-12 * max(ratio, 1.0):
                problems.append(f"f{fi}: ratio inconsistent")
                break
    if float(_comment(comments, "max_ratio")) != max(ratios):
        problems.append("max_ratio comment != max of the rows")
    return problems


def check_qtheta(out):
    _, _, rows = _rows(os.path.join(out, "qtheta.csv"))
    if len(rows) != 1:
        return ["unexpected report layout"]
    _, est, hw, bound, min_rho, sep, passed = rows[0]
    ell = 1.0                                       # cube 2..3
    thresh = THETA * ell * (1 + 1e-7) + 1e-7 * ell
    # Q_theta = [2 - t, 3 + t] u [-3 - t, -2 + t] = [-3 - t, 3 + t].
    exact = 2.0 * (3.0 + thresh)
    problems = []
    if abs(float(est) - exact) > 5.0 * float(hw) + 1e-12:
        problems.append(f"measure {est} far from exact {exact!r}")
    want_bound = 2.0 * 2.0 * (1.0 + 6.0 * C_GAMMA / THETA) * THETA
    if abs(float(bound) - want_bound) > 1e-9 * want_bound:
        problems.append(f"measure bound {bound} != {want_bound!r}")
    if abs(float(sep) - 2.0 * ell * (1 - 1e-5)) > 1e-12:
        problems.append(f"separation bound {sep}")
    if float(min_rho) < float(sep) or passed != "1":
        problems.append(f"separation failed: min rho {min_rho}")
    return problems


CHECKS = {
    "metric-equivalence": check_metric_equivalence,
    "partition": check_partition,
    "kernel-audit": check_kernel_audit,
    "hormander": check_hormander,
    "apply": check_apply,
    "t0-convergence": check_t0,
    "recover": check_recover,
    "decompose": check_decompose,
    "weaktype": check_weaktype,
    "qtheta": check_qtheta,
}


def check(kind: str, out: str) -> list[str]:
    try:
        return CHECKS[kind](out)
    except (OSError, ValueError, IndexError, TypeError) as exc:
        return [f"report unreadable: {type(exc).__name__}: {exc}"]
