"""``cz_decompose`` and ``weak_l1_quasinorm`` of ``czo.decomposition``
as they stood before their fixed per-call cost was cut: the root average
by ``np.mean``, each level's corners built after the pass by ``np.repeat``
of Python lists and one ``np.array(idx).T`` per level, and the weak L1
maximum taken over the first position of each distinct value only.

The tests hold the current functions to these bits.  The result types are
the library's own, so every field compares directly.
"""

import math
from functools import reduce
from typing import Optional

import numpy as np

from czo.decomposition import DecompositionResult, SelectedCube
from czo.errors import RejectedInputError
from czo.geometry import Box
from czo.operator import GridFunction

# np.mean can round a cube's average above every value in it (128 cells of
# 0.1 average 0.10000000000000002), but the pairwise sum of a power-of-two
# block errs by less than 1e-14 relative, so a cube without a cell of
# |f| >= lam (1 - HOT_MARGIN) never averages above lam, and the level pass
# may stop once no unselected cell reaches that height.
HOT_MARGIN = 2.0 ** -40


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
    s = tuple(round(v) for v in start)
    c = [round(v) for v in count]
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
    pass stops before the first level at which that |f|'s maximum is below
    lam (1 - HOT_MARGIN), which leaves the selection unchanged.  It only
    records each level's cubes.  Then each side takes one gather, one
    reduce for the signed averages (a multi-axis cube larger than numpy's
    reduction buffer keeps ``np.mean`` on its view, which sums buffer by
    buffer), one scatter into ``good`` and one subtraction for the bad
    blocks; one corners array gives every box and cell slice.  Cubes are
    listed smallest side first, each side in row-major order; ``blocks``
    holds their cell slices and f - average there (``bad``, when read).
    """
    if not (math.isfinite(lam) and lam > 0):
        raise RejectedInputError(f"lambda must be finite and positive: {lam}")
    root = f.box if root is None else root
    start, m = _root_cells(f, root)
    n = f.dim
    grid = f.values.reshape((f.cells_per_axis,) * n)
    sl = tuple(slice(s, s + m) for s in start)
    absf = np.abs(grid[sl])
    root_avg = float(np.mean(absf))
    if root_avg > lam:
        raise RejectedInputError(
            f"average of |f| over the root is {root_avg} > lambda={lam}")

    good = grid.copy()
    axes = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))

    def blocked(a, size):
        """a (the root's cells) as a (c,)*n + (size,)*n view of its cubes."""
        return a.reshape((m // size, size) * n).transpose(axes)

    hot, peak = lam * (1.0 - HOT_MARGIN), absf.max()
    hits = []                    # per level with a hit: (size, idx, abs avg)
    for size in (m >> j for j in range(1, m.bit_length())):
        if peak < hot:
            break
        cells = size ** n
        view = blocked(absf, size)
        rows = np.ascontiguousarray(view).reshape(-1, cells)
        abs_avg = (_row_sums(rows) / cells).reshape(view.shape[:n])
        idx = (abs_avg > lam).nonzero()
        if len(idx[0]):
            view[idx] = 0.0
            hits.insert(0, (size, idx, abs_avg[idx]))  # smallest first
            peak = absf.max()
    if not hits:
        return DecompositionResult(lam, root, [], f.with_values(good), [])

    side = np.repeat([s for s, _, _ in hits], [len(a) for _, _, a in hits])
    corners = np.concatenate([np.array(i).T * s for s, i, _ in hits]) + start
    slices = [tuple(slice(a, a + s) for a in cs)
              for cs, s in zip(corners.tolist(), side.tolist())]
    avgs, bad = [], []
    for size, idx, _ in hits:
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
    lo, h = f.box.lo_a, f.h
    cubes = [SelectedCube(Box(tuple(a), tuple(b)), av, aa)
             for a, b, av, aa in zip(
                 (lo + corners * h).tolist(),
                 (lo + (corners + side[:, None]) * h).tolist(), avgs,
                 np.concatenate([a for _, _, a in hits]).tolist())]
    return DecompositionResult(lam, root, cubes, f.with_values(good),
                               list(zip(slices, bad)))


def weak_l1_quasinorm(g: GridFunction) -> float:
    """sup over attained values lam of lam * |{|g| >= lam}| (exact on grids)."""
    s = np.sort(np.abs(g.values))
    # First position of each distinct value: |{|g| >= s[i]}| = len(s) - i.
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    first = first[s[first] > 0]
    if len(first) == 0:
        return 0.0
    return float(np.max(s[first] * (len(s) - first) * g.h ** g.dim))
