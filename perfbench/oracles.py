"""Reference answers that the benchmark checks czo against.

Everything here is written from the mathematics, with numpy only: this
module never imports czo.  Closed-form curve distances for the built-in
curves, a brute-force distance for the benchmark's own ``wavy`` curve, a
brute-force midpoint T_eps, exact Calderon-Zygmund invariants, a
sort-based weak-L1 quasinorm and brute-force dyadic cube membership.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = math.sqrt(2.0)
FLAT_HALF_WIDTH = 32.0          # the diamond's flat rays end at |x| = 32
HILBERT_HORMANDER = math.log((2 * SQ2 + 1) / (2 * SQ2 - 1))   # 0.739
# For K = 1/(x-y) + 1/(x+y), y = 0, z = a: the integrand is
# 2a^2 / |x (x^2 - a^2)| on |x| >= 2 sqrt(2) a, which integrates to 2 ln(8/7).
TWO_LINE_HORMANDER = 2.0 * math.log(8.0 / 7.0)
WAVY_AMPLITUDE = 0.3


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def axis_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    """Cell midpoints of [lo, hi] in n cells; the second half is the exact
    mirror (lo + hi) - x of the first, as the grid convention requires."""
    h = (hi - lo) / n
    base = lo + (np.arange(n) + 0.5) * h
    half = n // 2
    out = base.copy()
    out[n - 1 - np.arange(half)] = (lo + hi) - base[:half]
    return out


def cell_width(lo: float, hi: float, n: int) -> float:
    return (hi - lo) / n


# ---------------------------------------------------------------------------
# Curve distances rho (n = 1)
# ---------------------------------------------------------------------------

def _segment_distance(x, y, p, q):
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    t = np.clip(((x - px) * dx + (y - py) * dy) / (dx * dx + dy * dy),
                0.0, 1.0)
    return np.hypot(x - (px + t * dx), y - (py + t * dy))


def rho_diagonal(x, y):
    return np.abs(np.asarray(x) - y) / SQ2


def rho_two_lines(x, y):
    x = np.asarray(x)
    return np.minimum(np.abs(x - y), np.abs(x + y)) / SQ2


def rho_diamond(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    upper = np.minimum(_segment_distance(x, y, (-1.0, 0.0), (0.0, 1.0)),
                       _segment_distance(x, y, (0.0, 1.0), (1.0, 0.0)))
    lower = np.minimum(_segment_distance(x, y, (-1.0, 0.0), (0.0, -1.0)),
                       _segment_distance(x, y, (0.0, -1.0), (1.0, 0.0)))
    ax = np.abs(x)
    gap = np.maximum(np.maximum(1.0 - ax, ax - FLAT_HALF_WIDTH), 0.0)
    return np.minimum(np.minimum(upper, lower), np.hypot(gap, y))


def wavy_gamma(t):
    return t + WAVY_AMPLITUDE * np.sin(t)


def rho_wavy(x, y, samples: int = 4097, chunk: int = 256) -> np.ndarray:
    """Distance from (x, y) to the graph of t + 0.3 sin t by dense sampling.

    The nearest parameter lies within |y - gamma(x)| of x, so that window is
    sampled densely; the three best sampled local minima are then polished
    by safeguarded Newton steps on the squared distance.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    out = np.empty(len(x))
    u = np.linspace(-1.0, 1.0, samples)
    for s in range(0, len(x), chunk):
        xs, ys = x[s:s + chunk, None], y[s:s + chunk, None]
        d0 = np.abs(ys - wavy_gamma(xs)) + 1e-12
        T = xs + d0 * u
        phi = (T - xs) ** 2 + (wavy_gamma(T) - ys) ** 2
        local = np.ones_like(phi, dtype=bool)
        local[:, 1:] &= phi[:, 1:] <= phi[:, :-1]
        local[:, :-1] &= phi[:, :-1] <= phi[:, 1:]
        ranked = np.where(local, phi, np.inf)
        picks = np.argsort(ranked, axis=1)[:, :3]
        best = np.min(phi, axis=1)
        step = d0[:, 0] * (u[1] - u[0])
        for col in range(picks.shape[1]):
            idx = picks[:, col]
            ok = np.isfinite(ranked[np.arange(len(idx)), idx])
            t = T[np.arange(len(idx)), idx]
            lo, hi = t - step, t + step
            xv, yv = xs[:, 0], ys[:, 0]
            for _ in range(12):
                g = wavy_gamma(t)
                g1 = 1.0 + WAVY_AMPLITUDE * np.cos(t)
                g2 = -WAVY_AMPLITUDE * np.sin(t)
                d1 = 2.0 * (t - xv) + 2.0 * (g - yv) * g1
                d2 = 2.0 + 2.0 * g1 * g1 + 2.0 * (g - yv) * g2
                cand = np.clip(t - d1 / np.where(d2 > 0, d2, np.inf), lo, hi)
                f_old = (t - xv) ** 2 + (g - yv) ** 2
                f_new = (cand - xv) ** 2 + (wavy_gamma(cand) - yv) ** 2
                t = np.where(f_new <= f_old, cand, t)
            val = (t - xv) ** 2 + (wavy_gamma(t) - yv) ** 2
            best = np.where(ok, np.minimum(best, val), best)
        out[s:s + chunk] = np.sqrt(best)
    return out


RHO = {
    "diagonal": rho_diagonal,
    "two-lines": rho_two_lines,
    "diamond": rho_diamond,
    "wavy": rho_wavy,
}


# ---------------------------------------------------------------------------
# Kernels and brute-force T_eps
# ---------------------------------------------------------------------------

def kernel_values(name: str, x, y, rho):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if name == "hilbert":
            k = 1.0 / (x - y)
        elif name == "two-line-hilbert":
            k = 1.0 / (x - y) + 1.0 / (x + y)
        elif name == "diamond-model":
            k = np.sign(x - y) / rho
        elif name == "wavy":
            k = 1.0 / (wavy_gamma(x) - y)
        else:
            raise KeyError(name)
    return np.where(rho >= 1e-12, k, 0.0)


KERNEL_CURVE = {"hilbert": "diagonal", "two-line-hilbert": "two-lines",
                "diamond-model": "diamond", "wavy": "wavy"}


class TepsRows:
    """Reference rho and K rows for a few output points of one
    (kernel, input grid) pair, so T_eps f can be recomputed there for any
    f and eps by a masked midpoint sum."""

    def __init__(self, kernel: str, x_out, y_in, h: float, ambiguity: float):
        self.x_out = np.asarray(x_out, dtype=float)
        X = np.repeat(self.x_out, len(y_in))
        Y = np.tile(np.asarray(y_in, dtype=float), len(self.x_out))
        rho = RHO[KERNEL_CURVE[kernel]](X, Y)
        self.rho = rho.reshape(len(self.x_out), len(y_in))
        self.k = kernel_values(kernel, X, Y, rho).reshape(self.rho.shape)
        self.h = h
        self.ambiguity = ambiguity

    def value(self, f, eps: float):
        """(T_eps f at the points, scale, ambiguous mask).  A point is
        ambiguous when some cell has rho within the reference's own error
        of eps, so the truncation mask there is not decided by the oracle."""
        f = np.asarray(f, dtype=float)
        on = self.rho >= eps
        terms = np.where(on, self.k, 0.0) * f
        amb = np.any(np.abs(self.rho - eps) <= self.ambiguity * max(eps, 1.0)
                     * (f != 0), axis=1)
        return (np.sum(terms, axis=1) * self.h,
                np.sum(np.abs(terms), axis=1) * self.h, amb)


def t_eps_full(kernel: str, x_out, y_in, f, h: float, eps: float):
    """Brute-force T_eps f at every output point (built-in curves)."""
    rows = TepsRows(kernel, x_out, y_in, h, 1e-12)
    return rows.value(f, eps)


def close(got, want, scale, rel: float):
    got = np.asarray(got, dtype=float)
    return np.abs(got - want) <= rel * np.maximum(scale, np.abs(want)) + 1e-300


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition and weak L1
# ---------------------------------------------------------------------------

def weak_l1_sorted(values, cell: float) -> float:
    """sup over attained levels lam of lam * |{|g| >= lam}|, by one sort."""
    v = np.sort(np.abs(np.asarray(values, dtype=float)).reshape(-1))
    v = v[v > 0]
    if len(v) == 0:
        return 0.0
    levels = np.unique(v)
    counts = len(v) - np.searchsorted(v, levels, side="left")
    return float(np.max(levels * counts * cell))


def cz_invariants(f, good, bads, cube_slices, averages, abs_averages,
                  lam: float, dim: int, cell: float) -> list[str]:
    """Check the exact invariants of a stopping-time decomposition.

    ``f``/``good``/``bads`` are arrays of shape (N,)*dim; ``cube_slices``
    gives each selected cube as a tuple of index slices.  Returns the list
    of violated invariants (empty when all hold).
    """
    bad_msgs = []
    cover = np.zeros(f.shape, dtype=np.int64)
    for sl in cube_slices:
        cover[sl] += 1
    if np.any(cover > 1):
        bad_msgs.append("selected cubes overlap")
    for sl, avg, abs_avg in zip(cube_slices, averages, abs_averages):
        sub = f[sl]
        if (float(np.mean(np.abs(sub))) != abs_avg
                or float(np.mean(sub)) != avg):
            bad_msgs.append("cube averages differ from the data")
            break
        if not (lam < abs_avg <= (2 ** dim) * lam):
            bad_msgs.append(f"cube |f|-average {abs_avg} outside "
                            f"(lam, 2^n lam]")
            break
    if np.any(np.abs(f[cover == 0]) > lam):
        bad_msgs.append("|f| > lam outside the selected cubes")
    recon = good.copy()
    for sl, b in zip(cube_slices, bads):
        outside = np.ones(f.shape, dtype=bool)
        outside[sl] = False
        if np.any(b[outside] != 0.0):
            bad_msgs.append("bad part not supported in its cube")
            break
        if np.sum(b) != 0.0:
            bad_msgs.append("bad part does not have integral 0")
            break
        recon = recon + b
    if not np.array_equal(recon, f):
        bad_msgs.append("good + sum(bad) != f")
    if np.any(np.abs(good) > (2 ** dim) * lam):
        bad_msgs.append("|good| > 2^n lam")
    measure = sum(int(np.prod([s.stop - s.start for s in sl]))
                  for sl in cube_slices) * cell
    if measure > float(np.sum(np.abs(f)) * cell) / lam + 1e-12:
        bad_msgs.append("selected measure exceeds ||f||_1 / lam")
    return bad_msgs


# ---------------------------------------------------------------------------
# Dyadic partitions (n = 1)
# ---------------------------------------------------------------------------

def cube_interval(level: int, corner: int) -> tuple[float, float]:
    s = 2.0 ** (-level)
    return corner * s, (corner + 1) * s


def locate_brute(intervals, y) -> np.ndarray:
    """Index of the half-open interval [lo, hi) holding each y, or -1."""
    y = np.asarray(y, dtype=float).reshape(-1)
    out = np.full(len(y), -1, dtype=np.int64)
    hits = np.zeros(len(y), dtype=np.int64)
    for j, (lo, hi) in enumerate(intervals):
        inside = (y >= lo) & (y < hi)
        out[inside] = j
        hits += inside
    out[hits > 1] = -2
    return out


def partition_problems(accepted, leftover, span, critical) -> list[str]:
    """Accepted and leftover intervals must tile ``span`` without overlap,
    and no closed accepted interval may contain a critical value."""
    msgs = []
    tiles = sorted(list(accepted) + list(leftover))
    if not tiles or tiles[0][0] != span[0] or tiles[-1][1] != span[1]:
        msgs.append(f"partition does not span {span}")
    for (a_lo, a_hi), (b_lo, b_hi) in zip(tiles, tiles[1:]):
        if a_hi != b_lo:
            msgs.append(f"gap or overlap at {a_hi}/{b_lo}")
            break
    for lo, hi in accepted:
        if any(lo <= c <= hi for c in critical):
            msgs.append(f"accepted cube [{lo}, {hi}] holds a critical value")
            break
    return msgs
