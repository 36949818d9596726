"""Dyadic stopping-time decomposition and weak-type measurements.

``cz_decompose`` splits a grid function at height lambda into a good part
bounded by 2^n lambda and mean-zero bad parts supported on disjoint dyadic
cubes, chosen by a stopping time that visits one dyadic level per array pass.
Root and grid are required to align (cube boundaries on cell boundaries,
power-of-two cell counts), which turns every decomposition invariant into an
exact floating-point identity for dyadic-rational data.  Every cube average
is summed in the order ``np.mean`` uses on that cube alone, so on any data
the selection equals the cube-by-cube recursion bit for bit.

The level pass works on a private copy of |f| over the root.  Once a level
selects its cubes, their cells are zeroed in the copy, so a cube inside a
selected one averages 0 and is never selected.  A side-s cube can only
average above lambda if the root's |f|-sum reaches lambda s^n (1 -
HOT_MARGIN), so coarser levels are skipped, and if it holds a cell with
|f| >= lambda (1 - HOT_MARGIN), so once the copy's maximum is below that
no finer level is visited.  Cubes of at most 8 cells are summed column
by column, and all cubes are built in one batch after the pass.  Each bad
part is kept cube-local, as its cell slices and block f - avg
(``DecompositionResult.blocks``); dense ``bad`` functions are built on read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence

import numpy as np

from .errors import RejectedInputError
from .geometry import Box
from .kernels import KernelSpec
from .operator import GridFunction, _require_inputs, _truncated, grid_nodes


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------

# np.mean can round a cube's average above every value in it (128 cells of
# 0.1 average 0.10000000000000002), but the pairwise sum of a power-of-two
# block errs by less than 1e-14 relative, so a cube without a cell of
# |f| >= lam (1 - HOT_MARGIN) never averages above lam, and the level pass
# may stop once no unselected cell reaches that height.  For the same reason
# no side-s cube averages above lam while the root's sum is below
# lam s^n (1 - HOT_MARGIN), and the pass may skip those levels.
HOT_MARGIN = 2.0 ** -40


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
    # Per cube, in cube order: its cell slices in f's grid and f - average
    # on those cells.  Bad part k is blocks[k][1] on blocks[k][0], 0 elsewhere.
    blocks: list[tuple[tuple[slice, ...], np.ndarray]]

    @property
    def total_cube_measure(self) -> float:
        return float(sum(c.box.measure() for c in self.cubes))

    @cached_property
    def bad(self) -> list[GridFunction]:
        """The bad parts as dense functions on f's grid, built on first read."""
        g = self.good
        out = []
        for cells, block in self.blocks:
            b = np.zeros((g.cells_per_axis,) * g.dim)
            b[cells] = block
            out.append(GridFunction(g.box, g.cells_per_axis, b.reshape(-1)))
        return out


def _root_cells(f: GridFunction, root: Box) -> tuple[tuple[int, ...], int]:
    """Index offsets of the root within f's grid, plus cells per axis."""
    if root.dim != f.dim:
        raise RejectedInputError(
            f"root has {root.dim} axes but f has {f.dim}: {root}")
    h = f.h
    start = [(a - b) / h for a, b in zip(root.lo, f.box.lo)]
    count = [(b - a) / h for a, b in zip(root.lo, root.hi)]
    if not all(math.isfinite(v) and abs(v - round(v)) <= 1e-9
               for v in start + count):
        raise RejectedInputError("root cube is not aligned with the grid")
    s, c = tuple(map(round, start)), list(map(round, count))
    if any(a < 0 or a + b > f.cells_per_axis for a, b in zip(s, c)):
        raise RejectedInputError("root cube is not aligned with the grid")
    if len(set(c)) != 1:
        raise RejectedInputError("root must be a cube in grid cells")
    m = c[0]
    if m < 1 or (m & (m - 1)) != 0:
        raise RejectedInputError(
            "root side must span a power-of-two number of cells")
    return s, m


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """np.add.reduce(rows, -1) bit for bit on rows without -0.0.  numpy sums
    a row from 0, left to right below 8 cells and by its 8-accumulator tree
    at 8, in one inner-loop call per row; such rows are summed here column
    by column in that order.  Longer rows keep ``np.add.reduce``."""
    c = rows.T
    if len(c) > 8:
        return np.add.reduce(rows, -1)
    if len(c) == 8:             # ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + ...)
        c = c[0::2] + c[1::2]
        c = c[0::2] + c[1::2]
    return reduce(np.add, c)


def cz_decompose(f: GridFunction, lam: float,
                 root: Optional[Box] = None) -> DecompositionResult:
    """Stopping-time decomposition of f at height lam over a root cube.

    A child cube is selected the first time its |f|-average exceeds lam;
    selection stops above single cells, so |f| <= lam at every unselected
    cell.  One array pass per side s = m/2, ..., 1 averages every side-s
    cube of a private |f| and zeroes the cells of those above lam in it, so
    no cube inside a selected one is selected again and every other cube
    keeps its average's bits.  Each cube is summed as one contiguous
    row-major block, in the order ``np.mean`` uses on the cube alone (by
    ``_row_sums``, column by column, for cubes of at most 8 cells).  The
    pass skips each level at which the root's |f|-sum is below
    lam s^n (1 - HOT_MARGIN) and stops before the first level at which that
    |f|'s maximum is below lam (1 - HOT_MARGIN); neither changes the
    selection.  A level that selects records its cubes and their corners.
    Then each side takes one gather, one reduce for the signed averages (a
    multi-axis cube larger than numpy's reduction buffer keeps ``np.mean``
    on its view, which sums buffer by buffer), one scatter into ``good``
    and one subtraction for the bad blocks; one concatenation of the
    corners gives every box and cell slice.  Cubes are listed smallest
    side first, each side in row-major order; ``blocks`` holds their cell
    slices and f - average there (``bad``, when read).
    """
    if not (math.isfinite(lam) and lam > 0):
        raise RejectedInputError(f"lambda must be finite and positive: {lam}")
    root = f.box if root is None else root
    start, m = _root_cells(f, root)
    n = f.dim
    grid = f.values.reshape((f.cells_per_axis,) * n)
    sl = tuple(slice(s, s + m) for s in start)
    absf = np.abs(grid[sl])
    total = np.add.reduce(absf, axis=None)
    root_avg = float(total / absf.size)       # np.mean's sum and division
    if root_avg > lam:
        raise RejectedInputError(
            f"average of |f| over the root is {root_avg} > lambda={lam}")

    good = grid.copy()
    axes = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))

    def blocked(a, size):
        """a (the root's cells) as a (c,)*n + (size,)*n view of its cubes."""
        return a.reshape((m // size, size) * n).transpose(axes)

    hot, peak = lam * (1.0 - HOT_MARGIN), absf.max()
    hits = []    # per hit level, smallest first: size, idx, |f| avgs, corners
    for size in (m >> j for j in range(1, m.bit_length())):
        if peak < hot:
            break
        cells = size ** n
        if total < hot * cells:         # no cube here averages above lam
            continue
        view = blocked(absf, size)
        abs_avg = (_row_sums(view.reshape(-1, cells)) / cells).reshape(
            view.shape[:n])
        idx = (abs_avg > lam).nonzero()
        if len(idx[0]):
            view[idx] = 0.0
            # Each cube's lo then hi corner, in cells from the root's.
            lohi = np.array(idx + idx).T + ((0,) * n + (1,) * n)
            hits.insert(0, (size, idx, abs_avg[idx].tolist(), lohi * size))
            peak = absf.max()
    if not hits:
        return DecompositionResult(lam, root, [], f.with_values(good), [])

    corners = np.concatenate([c for *_, c in hits]) + (start + start)
    slices = [tuple(map(slice, c[:n], c[n:])) for c in corners.tolist()]
    avgs, abs_avgs, bad = [], [], []
    for size, idx, aa, _ in hits:
        cells = size ** n
        frows = blocked(grid[sl], size)[idx].reshape(-1, cells)
        if n > 1 and cells > np.getbufsize():
            avg = np.array([np.mean(grid[s]) for s in
                            slices[len(avgs):len(avgs) + len(frows)]])
        else:
            avg = np.add.reduce(frows, -1) / cells
        blocked(good[sl], size)[idx] = avg.reshape((-1,) + (1,) * n)
        bad.extend((frows - avg[:, None]).reshape((-1,) + (size,) * n))
        avgs += avg.tolist()
        abs_avgs += aa
    cubes = [SelectedCube(Box(b[:n], b[n:]), av, aa) for b, av, aa in zip(
        ((f.box.lo + f.box.lo) + corners * f.h).tolist(), avgs, abs_avgs)]
    return DecompositionResult(lam, root, cubes, f.with_values(good),
                               list(zip(slices, bad)))


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def weak_l1_quasinorm(g: GridFunction) -> float:
    """sup over attained values lam of lam * |{|g| >= lam}| (exact on grids).

    With s = sort |g|, |{|g| >= s[i]}| is N - i cells at the first position
    i of each value.  The max of s[i] (N - i) is taken over every position,
    as rounding is monotone and s >= 0: a later copy of a value (a smaller
    count) never exceeds its first, and zeros give +0.  So too h^n
    multiplies the maximum alone.
    """
    s = np.abs(g.values)
    s.sort()
    return float(np.max(s * np.arange(len(s), 0.0, -1.0)) * g.h ** g.dim)


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
    if not (isinstance(ladder_max, numbers.Integral) and ladder_max >= 0):
        raise RejectedInputError(
            f"ladder_max must be a non-negative integer: {ladder_max}")
    from .metric import _require_separation, enlarged_cube
    for f in family:
        _require_inputs(kernel, epsilon, f, threads=threads)
    _require_separation(kernel.curve, theta)
    n = kernel.dim
    rows = []
    for fi, f in enumerate(family):
        l1 = lp_norm(f, 1.0)
        Xout = grid_nodes(f.box, out_cells)
        out_cell = (f.box.side() / out_cells) ** n
        if l1 == 0.0:
            for j in range(ladder_max + 1):
                rows.append(WeakTypeRow(fi, 0.0, 0, 0.0, 0.0, 0.0, 0.0))
            continue
        m_out = len(Xout)
        Tf, column = _truncated(kernel, f, f.box, out_cells, threads)(
            f, epsilon, threads)
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
            if dec.blocks and not np.all(in_bstar):
                # Column k of T_eps b sums only over the cells of cube k.
                Tb = np.empty((m_out, len(dec.blocks)))
                for k, (cells, block) in enumerate(dec.blocks):
                    Tb[:, k] = column(cells, block)
                outside = ~in_bstar
                bad_int = float(np.sum(np.abs(Tb[outside])) * out_cell)
            rows.append(WeakTypeRow(fi, lam, len(dec.cubes), level, ratio,
                                    b_star, bad_int))
    return WeakTypeReport(epsilon, theta, out_cells, rows)
