"""Dyadic stopping-time decomposition and weak-type measurements.

``cz_decompose`` splits a grid function at height lambda into a good part
bounded by 2^n lambda and mean-zero bad parts supported on disjoint dyadic
cubes, chosen by a stopping time that visits one dyadic level per array pass.
Root and grid are required to align (cube boundaries on cell boundaries,
power-of-two cell counts), which turns every decomposition invariant into an
exact floating-point identity for dyadic-rational data.  Every cube average
is summed in the order ``np.mean`` uses on that cube alone, so on any data
the selection equals the cube-by-cube recursion bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import RejectedInputError
from .geometry import Box
from .kernels import KernelSpec
from .metric import _require_separation, enlarged_cube
from .operator import (GridFunction, _matrices_for, _require_epsilon,
                       grid_nodes)
from .util import fold_mirror_sum


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------

@dataclass
class SelectedCube:
    box: Box
    average: float               # average of f (signed) over the cube
    abs_average: float           # average of |f|, in [lambda, 2^n lambda]


@dataclass
class DecompositionResult:
    lam: float
    root: Box
    cubes: list[SelectedCube]
    good: GridFunction
    bad: list[GridFunction]      # same grid as f, each supported in its cube

    @property
    def total_cube_measure(self) -> float:
        return float(sum(c.box.measure() for c in self.cubes))


def _root_cells(f: GridFunction, root: Box) -> tuple[np.ndarray, int]:
    """Index offsets of the root within f's grid, plus cells per axis."""
    h = f.h
    start = (root.lo_a - f.box.lo_a) / h
    count = (root.hi_a - root.lo_a) / h
    s = np.rint(start).astype(int)
    c = np.rint(count).astype(int)
    if (np.max(np.abs(start - s)) > 1e-9 or np.max(np.abs(count - c)) > 1e-9
            or np.any(s < 0) or np.any(s + c > f.cells_per_axis)):
        raise RejectedInputError("root cube is not aligned with the grid")
    if len(set(c.tolist())) != 1:
        raise RejectedInputError("root must be a cube in grid cells")
    m = int(c[0])
    if m < 1 or (m & (m - 1)) != 0:
        raise RejectedInputError(
            "root side must span a power-of-two number of cells")
    return s, m


def cz_decompose(f: GridFunction, lam: float,
                 root: Optional[Box] = None) -> DecompositionResult:
    """Stopping-time decomposition of f at height lam over a root cube.

    A child cube is selected the first time its |f|-average exceeds lam;
    selection stops above single cells, so |f| <= lam at every unselected
    cell.  One array pass per side s = m/2, ..., 1 averages every side-s
    cube and selects the live ones (inside no selected cube) above lam.
    Each cube is summed as one contiguous row-major block, the order
    ``np.mean`` uses on the cube alone, so the averages are bit-identical.
    Cubes are listed smallest side first, each side in row-major order.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise RejectedInputError(f"lambda must be finite and positive: {lam}")
    if root is None:
        root = f.box
    start, m = _root_cells(f, root)
    n = f.dim
    N = f.cells_per_axis
    grid = f.values.reshape((N,) * n)
    sl = tuple(slice(int(s), int(s) + m) for s in start)
    absf = np.abs(grid[sl])
    root_avg = float(np.mean(absf))
    if root_avg > lam:
        raise RejectedInputError(
            f"average of |f| over the root is {root_avg} > lambda={lam}")

    h = f.h
    live = np.ones((1,) * n, dtype=bool)
    levels = []                  # (side, corners, |f|-averages), coarse first
    for size in (m >> j for j in range(1, m.bit_length())):
        for k in range(n):
            live = np.repeat(live, 2, axis=k)
        blocks = absf.reshape((m // size, size) * n).transpose(
            (*range(0, 2 * n, 2), *range(1, 2 * n, 2)))
        avg = np.ascontiguousarray(blocks).reshape(live.shape + (-1,)).mean(-1)
        hit = live & (avg > lam)
        levels.append((size, start + np.argwhere(hit) * size, avg[hit]))
        live &= ~hit

    good = grid.copy()
    cubes = []
    bad = []
    for size, corners, abs_avgs in reversed(levels):
        for cs, abs_avg in zip(corners, abs_avgs):
            csl = tuple(slice(a, a + size) for a in cs)
            sub = grid[csl]
            avg = float(np.mean(sub))
            lo = tuple(f.box.lo[k] + cs[k] * h for k in range(n))
            hi = tuple(f.box.lo[k] + (cs[k] + size) * h for k in range(n))
            cubes.append(SelectedCube(Box(lo, hi), avg, float(abs_avg)))
            b_grid = np.zeros((N,) * n)
            b_grid[csl] = sub - avg
            bad.append(GridFunction(f.box, N, b_grid.reshape(-1)))
            good[csl] = avg
    return DecompositionResult(lam, root, cubes,
                               GridFunction(f.box, N, good.reshape(-1)), bad)


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def weak_l1_quasinorm(g: GridFunction) -> float:
    """sup over attained values lam of lam * |{|g| >= lam}| (exact on grids)."""
    v = np.abs(g.values)
    cell = g.h ** g.dim
    levels = np.unique(v[v > 0])
    if len(levels) == 0:
        return 0.0
    # |{|g| >= lam}| for every attained lam, counted from one sort.
    counts = len(v) - np.searchsorted(np.sort(v), levels, side="left")
    return float(np.max(levels * counts * cell))


def lp_norm(g: GridFunction, p: float) -> float:
    if not (1.0 <= p < math.inf):
        raise RejectedInputError("p must satisfy 1 <= p < infinity")
    cell = g.h ** g.dim
    return float(np.sum(np.abs(g.values) ** p * cell) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Weak-type experiment
# ---------------------------------------------------------------------------

@dataclass
class WeakTypeRow:
    function_index: int
    lam: float
    cube_count: int
    superlevel_measure: float    # |{|T_eps f| >= lam}| on the output grid
    ratio: float                 # lam * superlevel_measure / ||f||_1
    b_star_measure: float        # grid measure of the union of (Q_k)_theta
    bad_integral: float          # sum_k int_{outside B*} |T_eps b_k|


@dataclass
class WeakTypeReport:
    epsilon: float
    theta: float
    out_cells: int
    rows: list[WeakTypeRow]

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)


def weak_type_experiment(kernel: KernelSpec, family: Sequence[GridFunction],
                         epsilon: float, theta: float,
                         out_cells: int = 256, ladder_max: int = 12,
                         threads: int = 1) -> WeakTypeReport:
    """Measure lam |{|T_eps f| >= lam}| / ||f||_1 across a lambda ladder
    {2^j ||f||_1 / |root| : j = 0..ladder_max}, with the decomposition-side
    quantities (exceptional-set measure, bad-part integral off it)."""
    if len(family) == 0:
        raise RejectedInputError("family must be nonempty")
    _require_epsilon(epsilon)
    _require_separation(kernel.curve, theta)
    n = kernel.dim
    rows = []
    for fi, f in enumerate(family):
        l1 = lp_norm(f, 1.0)
        Xout = grid_nodes(f.box, out_cells)
        out_cell = (f.box.side() / out_cells) ** n
        R, K = _matrices_for(kernel, f.box, out_cells, f, threads)
        M = np.where(R >= epsilon, K, 0.0)
        Tf = fold_mirror_sum(M * f.values, axis=1) * f.h ** n
        if l1 == 0.0:
            for j in range(ladder_max + 1):
                rows.append(WeakTypeRow(fi, 0.0, 0, 0.0, 0.0, 0.0, 0.0))
            continue
        base = l1 / f.box.measure()
        for j in range(ladder_max + 1):
            lam = (2.0 ** j) * base
            dec = cz_decompose(f, lam)
            level = float(np.count_nonzero(np.abs(Tf) >= lam) * out_cell)
            ratio = lam * level / l1
            in_bstar = np.zeros(len(Xout), dtype=bool)
            for c in dec.cubes:
                ec = enlarged_cube(kernel.curve, c.box, theta)
                in_bstar |= ec.contains(Xout)
            b_star = float(np.count_nonzero(in_bstar) * out_cell)
            bad_int = 0.0
            if dec.bad:
                Bmat = np.stack([b.values for b in dec.bad], axis=1)
                Tb = (M @ Bmat) * f.h ** n        # (m_out, K)
                outside = ~in_bstar
                bad_int = float(np.sum(np.abs(Tb[outside])) * out_cell)
            rows.append(WeakTypeRow(fi, lam, len(dec.cubes), level, ratio,
                                    b_star, bad_int))
    return WeakTypeReport(epsilon, theta, out_cells, rows)
