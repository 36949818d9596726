"""Grid functions, truncated singular operators, and branch multipliers.

An operator is a plain callable ``GridFunction -> GridFunction``;
``multiplier_handle`` builds one, and any other such callable serves as one
(``lambda f: apply_truncated(kernel, f, eps)`` for T_eps).

``apply_truncated`` realizes T_eps f(x) = sum over cells with
rho(x, y_cell) >= eps of K(x, y) f(y) h^n by the midpoint rule.  Each pair
(output grid, f's grid) has one summation object, cached on the kernel and
built on the first apply between them, on one of two paths chosen from
what it can observe (it keeps its latest input, keyed on f's bits):

- ``_Lattice``: the kernel declares its ``reflections`` S (K(x, y) =
  sum_s k(x - s y), rho = min_s rho_1(x - s y)), n = 1, the output grid
  lies on f's box and its cell count divides f's (s = N_in / N_out), and
  for the reflection -1 the box is symmetric about 0.  Every x_i - y_j is
  then one of the 2 N_in - s lattice offsets (s i + (s-1)/2 - j) h, and
  x_i + y_j one of the same offsets, so rho_1 and k are evaluated once on
  them and held on the object (O(N) memory), and each eps is summed
  directly: the Toeplitz sum over g = sum_s f(s y), in fixed chunks of at
  most ``_TAP_CHUNK`` taps.  With both reflections that sum is exact
  except on rows whose Hankel band (|x_i + y_j| too close for eps) meets
  a nonzero g_j, found as row ranges from the runs of the band mask and
  of g != 0, and on the middle row of an odd output grid; those rows are
  recomputed by a direct masked sum over cell pairs (j, N - 1 - j).  The
  object keeps its latest eps step for an input, so a new eps re-sums
  only the rows that read a tap it turns on or off within the hull of g's
  nonzeros.  The other rows keep the previous output's bits: each row's
  sum is its own dot product, and a changed tap meets only g = 0 there.
  What an eps alone fixes (its taps, their residue phases and its off
  runs) is kept per eps, up to ``_EPS_MEMO`` doubles, so an eps that an
  earlier input met costs no rebuild.  Its parts: ``_memo`` (the input's
  g, phases, runs and hull), ``_eps`` (the eps' taps, phases and off runs,
  from the memo), ``__call__`` (the band rows), ``_rows`` (the Toeplitz
  and band sums of a range of rows), ``_step`` (the ladder step) and
  ``column``.
- ``_Dense``, everything else (kernels without a declaration, other
  output grids, 2-D, ``apply_truncated_at``, which caches nothing): rho
  and K from the output grid to f's grid, folded into two contiguous
  halves, the cells j < N/2 and their mirror cells N - 1 - j (an odd
  grid's middle cell apart).  A cell's term is K f where rho >= eps and
  the signed zero 0 f where not; each row sum adds every cell's term to
  its mirror's first, so integrands that are exactly antisymmetric on a
  symmetric grid cancel bitwise.  The object keeps those folded sums of
  the latest input and eps (half of K's size) and the cells ordered by
  rho, with their rho and K copied in that order, so a new eps re-forms
  only the sums of the cells whose rho lies between it and the previous
  eps, from slices of those copies, as [rho >= eps] K times f: the same
  bits.

Both paths sum directly rather than by FFT.  An FFT leaves a residue of
about 1e-16 |k| |f| at every point, even where every unmasked term is 0;
direct summation gives exactly 0 there, and across an eps ladder it keeps
T_eps f bit-identical at points whose distance from supp f exceeds eps.
The fixed chunks keep each dot product below the length at which BLAS
splits it over threads, and recomputed rows are summed without BLAS, so
the bits do not depend on the thread count.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, RejectedInputError
from .geometry import Box, HyperCurve, parse_box
from .kernels import KernelSpec, _rho_and_kernel
from .util import as_points, pmap_chunks

if TYPE_CHECKING:
    from .partition import BranchDisjointPartition


# ---------------------------------------------------------------------------
# Grid functions
# ---------------------------------------------------------------------------

def _axis_nodes(lo: float, hi: float, n_cells: int) -> np.ndarray:
    """Cell midpoints, constructed so mirror cells reflect bitwise: the
    second half is (lo + hi) minus the first half."""
    h = (hi - lo) / n_cells
    k = np.arange(n_cells)
    base = lo + (k + 0.5) * h
    half = n_cells // 2
    out = base.copy()
    out[n_cells - 1 - np.arange(half)] = (lo + hi) - base[:half]
    return out


def grid_nodes(bx: Box, n_cells: int) -> np.ndarray:
    """Midpoint nodes of the N^n grid on bx, shape (N^n, n), row-major,
    once ``_grid_size``, the one validator of a grid, accepts it."""
    _grid_size(bx, n_cells)
    axes = [_axis_nodes(bx.lo[k], bx.hi[k], n_cells) for k in range(bx.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return grid.reshape(-1, bx.dim)


@functools.lru_cache(maxsize=256, typed=True)
def _grid_size(bx: Box, n: int) -> tuple[int, bool]:
    """The one validator of a grid, run before anything is built on it:
    (n^dim, whether the cells are cubic) for an integer n >= 1 cells per
    axis on a bounded bx with cells of positive, finite volume, one message
    per rule.  Cached, as every grid function an apply returns repeats it."""
    if not isinstance(n, numbers.Integral):
        raise RejectedInputError(f"a grid's cell count must be an integer: "
                                 f"{n!r}")
    if n < 1:
        raise RejectedInputError(f"a grid needs at least one cell: {n}")
    if not bx.is_bounded:
        raise RejectedInputError(f"a grid needs a bounded box: {bx}")
    widths = [(b - a) / n for a, b in zip(bx.lo, bx.hi)]
    for k, w in enumerate(widths):
        span = f"on axis {k}: {bx.lo[k]}..{bx.hi[k]}"
        try:
            # Python's float power raises on overflow, where numpy's warns.
            volume = w ** len(widths)
        except OverflowError:
            volume = math.inf
        # Cells of zero volume (h ** dim underflowing included) would
        # give all-zero sums or a division by zero further down, and cells
        # of infinite volume an infinite h ** dim.
        if not volume > 0:
            raise RejectedInputError(
                f"grid box gives cells of zero volume {span}")
        if volume == math.inf:
            raise RejectedInputError(
                f"grid box gives cells whose volume is not finite {span}")
    # Cubic: every width within 8 float epsilons of the largest, relative
    # to it, so the check reads the same at every scale.
    top = max(widths) * (1.0 - 8.0 * np.finfo(float).eps)
    return n ** len(widths), min(widths) >= top


@dataclass(frozen=True)
class GridFunction:
    """Midpoint samples of a function on an N^n grid over a box.

    ``values`` is flat, row-major over axes.  Two grid functions combine
    pointwise only when box and cells_per_axis match exactly.
    """

    box: Box
    cells_per_axis: int
    values: np.ndarray

    def __post_init__(self):
        size, cubic = _grid_size(self.box, self.cells_per_axis)
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if len(v) != size:
            raise RejectedInputError(f"expected {size} values, got {len(v)}")
        if np.count_nonzero(np.isfinite(v)) != len(v):
            raise RejectedInputError("grid function values must be finite")
        if not cubic:
            raise RejectedInputError("cells must be cubic (equal axis widths)")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def h(self) -> float:
        return (self.box.hi[0] - self.box.lo[0]) / self.cells_per_axis

    def nodes(self) -> np.ndarray:
        return grid_nodes(self.box, self.cells_per_axis)

    def integral(self) -> float:
        return float(np.sum(self.values) * self.h ** self.dim)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.box, self.cells_per_axis, values)


def grid_function(bx: Box, n_cells: int, f) -> GridFunction:
    """Sample a callable (on (m, n) point arrays) or an array onto the grid;
    ``GridFunction`` casts and flattens the values."""
    return GridFunction(bx, n_cells, f(grid_nodes(bx, n_cells))
                        if callable(f) else f)


# CSV I/O --------------------------------------------------------------------

def write_grid_csv(gf: GridFunction, path: str) -> None:
    """Header `# box=<lo..hi per axis> n=<N>`, then one value per line."""
    spans = ",".join(f"{a!r}..{b!r}" for a, b in zip(gf.box.lo, gf.box.hi))
    with open(path, "w") as fh:
        fh.write(f"# box={spans} n={gf.cells_per_axis}\n")
        for v in gf.values:
            fh.write(f"{float(v)!r}\n")


def read_grid_csv(path: str) -> GridFunction:
    """A file ``write_grid_csv`` writes: the first ``#`` line holding
    ``box=`` is the header, other ``#`` lines and blank lines are skipped."""
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    header = next((line for line in lines
                   if line.startswith("#") and "box=" in line), "")
    vals = [float(line) for line in lines if line and not line.startswith("#")]
    fields = dict(part.partition("=")[::2]
                  for part in header.lstrip("#").split())
    if not {"box", "n"} <= fields.keys():
        raise RejectedInputError(f"{path}: missing '# box=... n=...' header")
    return GridFunction(parse_box(fields["box"]), int(fields["n"]),
                        np.array(vals))


# Interpolation --------------------------------------------------------------

def interpolate(gf: GridFunction, X) -> tuple[np.ndarray, np.ndarray]:
    """Multilinear interpolation at points X on the midpoint grid.

    Inside the box but beyond the outermost nodes the value is held
    constant; outside the box the value is 0 and the point is flagged in
    the returned mask.
    """
    X = as_points(X, gf.dim)
    N = gf.cells_per_axis
    h = gf.h
    outside = ~gf.box.contains(X, tol=0.0)
    u = (X - gf.box.lo_a) / h - 0.5
    i0 = np.clip(np.floor(u).astype(int), 0, max(N - 2, 0))
    w = np.clip(u - i0, 0.0, 1.0)
    if N == 1:
        w = np.zeros_like(w)
    vals = np.zeros(len(X))
    grid = gf.values.reshape((N,) * gf.dim)
    for bits in range(2 ** gf.dim):
        idx = []
        weight = np.ones(len(X))
        for k in range(gf.dim):
            b = (bits >> k) & 1
            idx.append(np.clip(i0[:, k] + b, 0, N - 1))
            weight = weight * (w[:, k] if b else (1.0 - w[:, k]))
        vals += weight * grid[tuple(idx)]
    vals[outside] = 0.0
    return vals, outside


# ---------------------------------------------------------------------------
# Truncated operators
# ---------------------------------------------------------------------------

_CACHE_ENTRY_LIMIT = 1 << 24
# Taps per dot product, and output rows per task, on the lattice path.
# BLAS may split longer dot products over threads, which would make the
# bits depend on the thread count; below this length each one runs on a
# single thread.
_TAP_CHUNK = 4096
# Entries of the lattice kernel matrix formed at once, for recomputed band
# rows and weak-type columns: larger temporaries cost a fresh allocation,
# and its page faults, on every apply.
_BAND_BLOCK = 1 << 16
# Doubles that one lattice summation keeps of the state of the eps it has
# seen (512 KB), 3 per lattice offset and eps: 21 eps at 512 cells, none
# from 2^14 cells on, where that state is a negligible share of an apply.
_EPS_MEMO = _BAND_BLOCK


class _Dense:
    """T_eps from gf's grid to the points Xout by folded matrices: R and K
    (RK, one allocation) hold rho and K from Xout to [0] the nodes j <
    m_in // 2 and [1] their mirrors m_in - 1 - j, R_mid and K_mid to an odd
    grid's middle node (None otherwise), folded once the last row chunk is
    built, never beside rho's temporaries.  It keeps its latest input: S,
    the folded sum [0] + [1] of the masked terms of that f and eps, under
    the bits of f's values (0.0 and -0.0 give different zero signs).
    order holds the folded position, column and mirror column (intp) of
    the cells with rho < top by ascending rho (in ``rho``), one of two
    mirror cells of equal rho, and ``ranked`` both halves' rho and K at
    those folded positions in that order, one contiguous (4, len) array,
    so a step slices them and gathers only f.  One order serves every
    input: built on the first new eps for the kept f, it is rebuilt, with
    ``ranked``, only for a step above top, and a one-shot apply builds
    neither."""

    def __init__(self, kernel: KernelSpec, Xout: np.ndarray,
                 gf: GridFunction, threads: int):
        Yin = gf.nodes()
        m_out, m_in = len(Xout), len(Yin)
        half = m_in // 2

        def rows(s, e):
            RK = _rho_and_kernel(kernel, np.repeat(Xout[s:e], m_in, axis=0),
                                 np.tile(Yin, (e - s, 1)))
            return np.stack([a.reshape(e - s, m_in) for a in RK], axis=1)

        RK = pmap_chunks(rows, m_out, max(1, _CACHE_ENTRY_LIMIT // (8 * m_in)),
                         threads).reshape(m_out, 2, m_in).transpose(1, 0, 2)
        self.R, self.K = self.RK = np.empty((2, 2, m_out, half))
        for a, folded in zip(RK, self.RK):
            folded[0], folded[1] = a[:, :half], a[:, ::-1][:, :half]
        self.R_mid, self.K_mid = ((None, None) if m_in % 2 == 0
                                  else RK[..., half].copy())
        self.entries, self.bits = m_out * m_in, None
        self.S, self.order, self.top = np.empty((m_out, half)), None, -math.inf

    def unfold(self, epsilon: float) -> np.ndarray:
        """The eps-masked kernel as one (m_out, m_in) matrix."""
        W = np.where(self.R >= epsilon, self.K, 0.0)
        mid = ([] if self.R_mid is None
               else [np.where(self.R_mid >= epsilon, self.K_mid, 0.0)])
        return np.column_stack([W[0], *mid, W[1][:, ::-1]])

    def __call__(self, gf: GridFunction, epsilon: float, threads: int):
        """(T_eps gf, column): each cell's K f where rho >= eps, else its
        0 f, added to its mirror's before the row sum.  K f is formed on
        dropped cells too, so an overflow in it raises no warning; on a
        kept cell it still shows as +-inf in T_eps f.  column(cells, block)
        is the sum over gf's cells ``cells`` (one slice per axis) of the
        masked kernel times ``block`` times h^n, as T_eps f is, on the
        output nodes; the masked matrix is unfolded on the first read.  A
        new eps for the same f re-forms S only where a mask changed, from
        one gather of both halves' rho, K and f per ``_BAND_BLOCK`` cells,
        as [rho >= eps] K times f: the bits of the masked products."""
        f, half, bits = gf.values, self.K.shape[2], gf.values.tobytes()
        if bits != self.bits:
            F = np.stack((f[:half], f[::-1][:half]))
            with np.errstate(all="ignore"):
                W = self.K * F[:, None, :]
            np.copyto(W, 0.0 * F[:, None, :], where=~(self.R >= epsilon))
            np.add(W[0], W[1], out=self.S)
            self.bits = bits
        elif epsilon != self.eps:
            lo, hi = sorted((self.eps, epsilon))
            if hi > self.top:
                below = self.R < hi
                below[1] &= self.R[1] != self.R[0]
                below = np.flatnonzero(below)
                below = below[np.argsort(self.R.reshape(-1)[below])]
                self.rho, self.top = self.R.reshape(-1)[below], hi
                col = (pos := below % self.S.size) % half
                self.ranked = self.RK.reshape(4, -1).take(pos, axis=1)
                self.order = np.stack((pos, col, len(f) - 1 - col))
            a, b = self.rho.searchsorted((lo, hi))
            S = self.S.reshape(-1)
            for c in range(a, b, _BAND_BLOCK):
                d = min(c + _BAND_BLOCK, b)
                G, F = self.ranked[:, c:d], f.take(self.order[1:, c:d])
                with np.errstate(all="ignore"):
                    W = np.where(G[:2] >= epsilon, G[2:], 0.0) * F
                S[self.order[0, c:d]] = W[0] + W[1]
        self.eps = epsilon
        out = np.add.reduce(self.S, axis=1)
        if self.R_mid is not None:
            out += np.where(self.R_mid >= epsilon, self.K_mid, 0.0) * f[half]
        M, weight = [], gf.h ** gf.dim

        def column(cells, block):
            M[:] = M or [self.unfold(epsilon).reshape(
                (-1,) + (gf.cells_per_axis,) * gf.dim)]
            return M[0][(slice(None),) + cells].reshape(len(M[0]), -1) @ \
                block.reshape(-1) * weight

        out *= weight
        return out, column


class _Lattice:
    """T_eps from gf's grid onto n_out = N_in / step cells on its box,
    summed on the lattice: R and k hold rho_1 and k = K / |S| at the
    offsets d_p = (p - N_in + 1 + (step-1)/2) h, p = 0 .. 2 N_in - step - 1,
    where x_i - y_j is p = step*i - j + N_in - 1 and, on a symmetric box,
    x_i + y_j is step*i + j.  Its state, O(N) in all, has four parts:
    the latest input, kept as ``_Dense`` keeps it under the bits of f's
    values (set by ``_memo``); the state of each eps it has seen, kept in
    ``memo`` for every input (see ``_eps``); the latest eps, set for
    ``_rows``: ot = (on, taps), the taps' residue ``phases`` (by ``_eps``)
    and the band rows ``fix`` (by ``__call__``); and its latest eps step,
    ``last`` (see ``_step``).  ``local`` says whether k is finite wherever
    rho_1 > 0."""

    def __init__(self, kernel: KernelSpec, gf: GridFunction, step: int):
        n_in = gf.cells_per_axis
        d = (np.arange(1 - n_in, n_in - step + 1) + (step - 1) / 2) * gf.h
        self.R, K = _rho_and_kernel(kernel, d[:, None], np.zeros((len(d), 1)))
        self.k = K / len(kernel.reflections)
        self.reflections, self.step, self.h = kernel.reflections, step, gf.h
        self.n_in, self.entries, self.bits, self.memo = n_in, len(d), None, {}
        self.n_out, self.half = n_in // step, n_in // 2
        self.local = bool(np.all(np.isfinite(self.k[self.R > 0.0])))

    def taps(self, epsilon: float) -> np.ndarray:
        """(on, taps) stacked in one read-only array: on = [rho_1 >= eps]
        as 0.0 / 1.0 and taps = on * k."""
        on = self.R >= epsilon
        ot = np.zeros((2, len(on)))
        ot[0] = on
        np.copyto(ot[1], self.k, where=on)
        ot.flags.writeable = False
        return ot

    def block(self, ot: np.ndarray, rows: slice, cells: slice,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """The masked kernel matrix from the output rows to the input cells:
        taps[p] for the reflection +1, taps[q] for -1, and
        on[p] on[q] (k[p] + k[q]) for both, with (on, taps) = ot from
        ``taps``, p = step*i - j + N_in - 1 and q = step*i + j.  P and Q
        view ot at p and q, every index in the lattice's range.  A single
        reflection returns a read-only view; both write into ``out`` if
        given."""
        (st0, st), i0 = ot.strides, self.step * rows.start
        shape = (2, rows.stop - rows.start, cells.stop - cells.start)
        P = np.ndarray(shape, float, ot, (i0 + self.n_in - 1 - cells.start)
                       * st, (st0, self.step * st, -st))
        Q = np.ndarray(shape, float, ot, (i0 + cells.start) * st,
                       (st0, self.step * st, st))
        refl = self.reflections
        if len(refl) == 1:
            return (P if 1 in refl else Q)[1]
        W = np.add(P[1], Q[1], out=out)
        W *= P[0]
        W *= Q[0]
        return W

    def __call__(self, gf: GridFunction, epsilon: float, threads: int):
        """(T_eps gf, column) as for ``_Dense``: out_i = h sum_j on[p]
        on[q] k[p] g_j, g = sum over the declared reflections s of f(s y),
        on[q] only with both (p, q and ot = (on, taps) as in ``block``).
        A new input first runs ``_memo``.  Then the eps state is set: the
        taps' residue phases beside g's (``_eps``), and the band rows
        ``fix``, the rows whose band {j : on[q] = 0} meets a nonzero g_j
        (``_band_ranges``) and the middle row of an odd output grid.  A
        kept step gives the rows by ``_step``; else ``_rows`` sums them
        all.  column is ``column`` bound to this eps' taps."""
        if (bits := gf.values.tobytes()) != self.bits:
            self._memo(gf, bits)
        off, step, n_out = self._eps(epsilon), self.step, self.n_out
        # Without g's nonzero runs there is no band row: fix is [].
        self.fix = self.nonzero and _band_ranges(
            off, self.nonzero, step, n_out, [n_out // 2] * (n_out % 2))
        out = None if self.last is None else self._step(off, threads)
        if out is None:
            out = pmap_chunks(self._rows, n_out, _TAP_CHUNK, threads)
            if self.reads:
                self.last = off, out.copy()
        return out, functools.partial(self.column, self.ot)

    def _eps(self, epsilon: float) -> tuple:
        """Set ``ot`` and ``phases`` for eps and return its off runs, from
        ``memo``: per eps, ot = ``taps(eps)``, its contiguous residue
        phases ot[1][r::step] by r, each built on the first input that
        reads it, and the off runs of ot[0] == 0 as a tuple.  The arrays
        are read-only, so every input and every column bound to ot reads
        the same bits, and the same eps gives the same arrays as a fresh
        build.  The memo holds the eps seen last, while they take at most
        ``_EPS_MEMO`` doubles at 3 per lattice offset and eps (ot, and
        every phase once built), and evicts the oldest eps first.  So it
        holds at most 8 ``_EPS_MEMO`` bytes, 512 KB, of arrays, and beside
        them one tuple per eps of at most one int per offset and one more
        (a few ints when rho_1 grows with |d|)."""
        if (at := self.memo.get(epsilon)) is None:
            ot = self.taps(epsilon)
            self.memo[epsilon] = at = ot, {}, tuple(_runs(ot[0] == 0.0))
            if 3 * len(ot[0]) * len(self.memo) > _EPS_MEMO:
                del self.memo[next(iter(self.memo))]
        self.ot, phases, off = at
        for r, _, _ in self.parts:
            if r not in phases:
                phases[r] = np.ascontiguousarray(self.ot[1][r::self.step])
                phases[r].flags.writeable = False
        self.phases = [(phases[r], b, live) for r, b, live in self.parts]
        return off

    def _memo(self, gf: GridFunction, bits: bytes) -> None:
        """Keep what the input alone fixes, under ``bits``: g, ``parts``,
        the residue phases of the reversed g with the ``_TAP_CHUNK``
        chunks of v (``live``) where they are not all 0, g's ``nonzero``
        runs, the band cells, and the hull ``reads``.  Skipping a chunk
        whose g_r is all 0 leaves every bit of ``_rows``' sum, as it would
        add only +-0 to an out that starts at +0 and is never -0.  With
        both reflections the band cells run from g's first nonzero to
        N/2: g is even and not all 0, so that nonzero is at or below N/2.
        ``reads`` is the hull of the reversed g's nonzeros as a run.  The
        input keeps no step (``reads`` is None) if its hull covers every
        cell, nor on taps whose k is not finite at some rho_1 > 0, where
        a changed tap times 0 would not be 0."""
        refl = self.reflections
        g = gf.values if 1 in refl else 0.0
        if -1 in refl:
            g = g + gf.values[::-1]
        # With both reflections g is even: its own reversal, bitwise.
        rev, self.parts = g if len(refl) == 2 else g[::-1], []
        for r in range(self.step):
            b = np.ascontiguousarray(rev[r::self.step])
            live = [v0 for v0 in range(0, len(b), _TAP_CHUNK)
                    if np.count_nonzero(b[v0:v0 + _TAP_CHUNK])]
            if live:
                self.parts.append((r, b, live))
        self.nonzero = _runs(g != 0.0) if len(refl) == 2 and self.parts else []
        nz, self.reads = np.flatnonzero(rev), None
        if self.local and len(nz) and (nz[0] > 0 or nz[-1] < self.n_in - 1):
            self.reads = [int(nz[0]) - 1, int(nz[-1])]
        if self.nonzero:
            self.cells = slice(self.nonzero[0] + 1, self.half)
            self.gc = g[self.cells]
            self.per = max(1, _BAND_BLOCK // max(len(self.gc), 1))
        self.g, self.bits, self.last = g, bits, None

    def _rows(self, i0: int, i1: int, at: int = 0) -> np.ndarray:
        """Rows at + i0 .. at + i1 - 1 of T_eps f at the latest eps.  The
        Toeplitz sum h sum_j taps[p] g_j is exact on every row outside
        ``fix``.  With the taps and the reversed g split by residue mod
        step, out_i = sum over r and v of taps_r[i + v] g_r[v], summed in
        the same fixed chunks of v for every i: splitting the outputs over
        threads leaves every bit unchanged.  The rows of ``fix`` are
        recomputed, never as the Toeplitz sum minus the band, which leaves
        a residue where every kept term is 0.  As g is even and cell j and
        its mirror N - 1 - j swap p and q, each band cell j < N/2 adds
        on[p] on[q] (k[p] + k[q]) g_j: the kernel terms are added before
        the row sum, as on the dense path, so for an odd k they cancel
        exactly where x_i = 0.  Those rows are summed by einsum, without
        BLAS, in blocks of ``per`` consecutive rows from the start of each
        range."""
        out, i0, i1, ot = np.zeros(i1 - i0), at + i0, at + i1, self.ot
        for a, b, live in self.phases:
            for v0 in live:
                v1 = min(v0 + _TAP_CHUNK, self.n_out)
                out += np.correlate(a[v0 + i0:v1 + i1 - 1], b[v0:v1], "valid")
        if self.fix:
            most = min(self.per, max(r1 - r0 for r0, r1 in self.fix))
            buf = np.empty((most, len(self.gc)))
        for r0, r1 in self.fix:
            r0, r1 = max(r0, i0), min(r1, i1)
            for a0 in range(r0, r1, self.per):
                a1 = min(a0 + self.per, r1)
                W = self.block(ot, slice(a0, a1), self.cells, buf[:a1 - a0])
                np.einsum("ij,j->i", W, self.gc, out=out[a0 - i0:a1 - i0])
            if self.n_in % 2 and r0 < r1:
                mid = ot[1][self.step * r0 + self.half::self.step]
                out[r0 - i0:r1 - i0] += mid[:r1 - r0] * self.g[self.half]
        out *= self.h
        return out

    def _step(self, off: list[int], threads: int) -> Optional[np.ndarray]:
        """T_eps f from the kept step ``last`` (the previous eps' off runs
        and output), re-summing only the rows whose sum can change.  The
        changed taps are the symmetric difference of both eps' off runs,
        and ``_band_ranges`` finds the rows that read one of them within
        ``reads``.  Every other row copies its bits: each correlate output
        is its own dot of the same operands, and a changed tap there meets
        only g = 0, adding +-0 to a sum that is never -0.  A band row reads
        the taps step*i + j and step*i + N - 1 - j against g_j alone, so
        its einsum sum keeps its bits on the same terms.  A step that would
        re-sum every row gives None, and the input keeps no step after it."""
        old, kept = self.last
        redo = _band_ranges(sorted(set(off).symmetric_difference(old)),
                            self.reads, self.step, self.n_out)
        if redo == [(0, self.n_out)]:
            self.last = self.reads = None
            return None
        for a, b in redo:
            kept[a:b] = pmap_chunks(functools.partial(self._rows, at=a),
                                    b - a, _TAP_CHUNK, threads)
        self.last = off, kept
        return kept.copy()

    def column(self, ot: np.ndarray, cells: tuple,
               block: np.ndarray) -> np.ndarray:
        """``_Dense``'s column at the taps ot: the kernel gathered from
        them on the cells it reads alone, ``_BAND_BLOCK`` entries at a
        time, times block, h-scaled.  ``__call__`` binds it to its own
        eps' taps, so a later apply leaves its bits."""
        (c,), out = cells, np.zeros(self.n_out)
        width = max(1, _BAND_BLOCK // self.n_out)
        for c0 in range(c.start, c.stop, width):
            c1 = min(c0 + width, c.stop)
            W = self.block(ot, slice(0, self.n_out), slice(c0, c1))
            out += W @ block[c0 - c.start:c1 - c.start]
        return out * self.h


def _runs(m: np.ndarray) -> list[int]:
    """The runs of True in the non-empty bool array m as a flat list
    [a_0, b_0, a_1, b_1, ...]: run k holds the indices a_k < j <= b_k."""
    cut = (m[1:] != m[:-1]).nonzero()[0].tolist()
    if m[0]:
        cut.insert(0, -1)
    if m[-1]:
        cut.append(len(m) - 1)
    return cut


def _band_ranges(off: list[int], nonzero: list[int], step: int, n_out: int,
                 extra=()) -> list[tuple[int, int]]:
    """The rows i whose band {j : step*i + j in a run of ``off``} meets a
    run of ``nonzero`` (runs as ``_runs`` gives them), and the rows
    ``extra``, as sorted maximal ranges [a, b).  An off run (lo, hi] and a
    nonzero run (s, e] give the rows with lo - e < step*i < hi - s."""
    spans = [(i, i + 1) for i in extra]
    for k in range(0, len(off), 2):
        for m in range(0, len(nonzero), 2):
            spans.append(((off[k] - nonzero[m + 1]) // step + 1,
                          -((nonzero[m] - off[k + 1]) // step)))
    out = []
    for a, b in sorted(spans):
        a, b = max(a, 0), min(b, n_out)
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        elif a < b:
            out.append((a, b))
    return out


def _require_inputs(kernel: KernelSpec, epsilon: float, f: GridFunction,
                    out_box: Optional[Box] = None, threads: int = 1) -> None:
    """Reject an epsilon that is not finite and positive, a thread count
    that is not an integer of at least 1, and an f or output box whose
    number of axes is not the kernel's."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise RejectedInputError(
            f"epsilon must be finite and positive: {epsilon}")
    if not (isinstance(threads, numbers.Integral) and threads >= 1):
        raise RejectedInputError(
            f"threads must be an integer of at least 1: {threads}")
    for what, bx in (("f", f.box), ("output box", out_box)):
        if bx is not None and bx.dim != kernel.dim:
            raise RejectedInputError(
                f"{what} has {bx.dim} axes but the kernel {kernel.name!r} "
                f"has {kernel.dim}: {bx}")


def apply_truncated(kernel: KernelSpec, f: GridFunction, epsilon: float,
                    out_geometry: Optional[tuple[Box, int]] = None,
                    threads: int = 1) -> GridFunction:
    """T_eps f on the output grid (defaults to f's own grid)."""
    if out_geometry is None:
        out_box, out_n = f.box, f.cells_per_axis
    else:
        out_box, out_n = out_geometry
    _require_inputs(kernel, epsilon, f, out_box, threads)
    if epsilon < 4.0 * f.h:
        warnings.warn("epsilon below 4 cell widths: quadrature near the "
                      "truncation boundary is unreliable", stacklevel=2)
    summation = _truncated(kernel, f, out_box, out_n, threads)
    return GridFunction(out_box, out_n, summation(f, epsilon, threads)[0])


def _truncated(kernel: KernelSpec, f: GridFunction, out_box: Box, out_n: int,
               threads: int):
    """The summation of T_eps from f's grid onto (out_box, out_n), cached
    on the kernel per pair of grids while it holds at most
    ``_CACHE_ENTRY_LIMIT`` entries: a ``_Lattice`` of step N_in / N_out for
    a 1-D kernel that declares its reflections, an output grid on f's box
    whose cell count divides f's and, for the reflection -1, a box
    symmetric about 0 (whose nodes reflect bitwise); else a ``_Dense``."""
    key = ((out_box.lo, out_box.hi, out_n),
           (f.box.lo, f.box.hi, f.cells_per_axis))
    hit = kernel._matrices.get(key)
    if hit is None:
        n_in, refl = f.cells_per_axis, kernel.reflections
        if not _grid_size(out_box, out_n)[1]:
            raise RejectedInputError("cells must be cubic (equal axis widths)")
        if (refl and kernel.dim == 1 and out_box == f.box and n_in % out_n == 0
                and (-1 not in refl or f.box.lo[0] == -f.box.hi[0])):
            hit = _Lattice(kernel, f, n_in // out_n)
        else:
            hit = _Dense(kernel, grid_nodes(out_box, out_n), f, threads)
        if hit.entries <= _CACHE_ENTRY_LIMIT:
            kernel._matrices[key] = hit
    return hit


def apply_truncated_at(kernel: KernelSpec, f: GridFunction, x,
                       epsilon: float) -> np.ndarray:
    """T_eps f at explicit points (no caching)."""
    _require_inputs(kernel, epsilon, f)
    return _Dense(kernel, as_points(x, kernel.dim), f, 1)(f, epsilon, 1)[0]


@dataclass
class T0Report:
    epsilons: list[float]
    sup_diffs: list[float]       # ||T_{e_k} f - T_{e_{k+1}} f||_inf
    unreliable: list[bool]       # epsilon below the grid resolution h


def estimate_T0(kernel: KernelSpec, f: GridFunction,
                epsilons: Sequence[float],
                out_geometry: Optional[tuple[Box, int]] = None,
                threads: int = 1) -> tuple[GridFunction, T0Report]:
    """Approximate the vanishing-truncation limit along a decreasing eps
    sequence; convergence is diagnosed, never assumed."""
    eps = [float(e) for e in epsilons]
    # Written as a > b so that a NaN fails it.
    if not eps or not all(a > b for a, b in zip(eps, eps[1:])):
        raise RejectedInputError(
            f"epsilons must be strictly decreasing: {eps}")
    outs = []
    with warnings.catch_warnings():
        # Only the eps-below-4h warning: one from T_eps reaches the caller.
        warnings.filterwarnings("ignore", "epsilon below 4 cell widths",
                                UserWarning)
        for e in eps:
            outs.append(apply_truncated(kernel, f, e, out_geometry, threads))
    diffs = [float(np.max(np.abs(a.values - b.values)))
             for a, b in zip(outs, outs[1:])]
    report = T0Report(eps, diffs, [e < f.h for e in eps])
    return outs[-1], report


# ---------------------------------------------------------------------------
# Branch multipliers
# ---------------------------------------------------------------------------

@dataclass
class MultiplierField:
    """Per-branch sampled multipliers b_i on the grid, zero outside D_i."""

    curve: HyperCurve
    box: Box
    cells_per_axis: int
    fields: np.ndarray           # (r, N^n), forced to 0 outside D_i
    support: np.ndarray = field(default=None)   # (r, N^n) bool: node in D_i
    covered: np.ndarray = field(default=None)   # (r, N^n) bool: recovery hit

    def __post_init__(self):
        if self.box.dim != self.curve.dim:
            raise RejectedInputError(
                f"box has {self.box.dim} axes but the curve "
                f"{self.curve.name!r} has {self.curve.dim}: {self.box}")
        nodes = self.nodes()
        if self.support is None:
            self.support = np.stack([b.domain.contains(nodes, tol=1e-12)
                                     for b in self.curve.branches])
        self.fields = np.asarray(self.fields, dtype=float).reshape(
            self.curve.r, -1)
        self.fields = np.where(self.support, self.fields, 0.0)
        bad = ~np.isfinite(self.fields)
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise RejectedInputError(
                f"multiplier b_{i} of curve {self.curve.name!r} is not "
                f"finite at node {nodes[j].tolist()}: {self.fields[i, j]}")
        if self.covered is None:
            self.covered = self.support.copy()

    def nodes(self) -> np.ndarray:
        return grid_nodes(self.box, self.cells_per_axis)


def multiplier_field(curve: HyperCurve, bx: Box, n_cells: int,
                     funcs: Sequence) -> MultiplierField:
    """Build a field from one callable (or constant) per branch."""
    if len(funcs) != curve.r:
        raise RejectedInputError(f"expected {curve.r} multiplier functions")
    nodes = grid_nodes(bx, n_cells)
    rows = [np.asarray(fn(nodes), dtype=float).reshape(-1) if callable(fn)
            else np.full(len(nodes), float(fn)) for fn in funcs]
    return MultiplierField(curve, bx, n_cells, np.stack(rows))


def apply_multiplier(curve: HyperCurve, b: MultiplierField,
                     f: GridFunction) -> GridFunction:
    """x -> sum_i b_i(x) f(gamma_i(x)) chi_{D_i}(x) on b's grid, with f
    read by multilinear interpolation (0 outside its box)."""
    nodes = b.nodes()
    out = np.zeros(len(nodes))
    for i, br in enumerate(curve.branches):
        mask = b.support[i]
        if not np.any(mask):
            continue
        img = br.forward(nodes[mask])
        vals, _ = interpolate(f, img)
        out[mask] += b.fields[i][mask] * vals
    return GridFunction(b.box, b.cells_per_axis, out)


# ---------------------------------------------------------------------------
# Operators: plain callables GridFunction -> GridFunction
# ---------------------------------------------------------------------------

_Operator = Callable[[GridFunction], GridFunction]


def multiplier_handle(curve: HyperCurve, b: MultiplierField) -> _Operator:
    return lambda f: apply_multiplier(curve, b, f)


# ---------------------------------------------------------------------------
# Multiplier recovery
# ---------------------------------------------------------------------------

def recover_multipliers(difference: _Operator, curve: HyperCurve,
                        partition: BranchDisjointPartition,
                        out_box: Box, n_cells: int) -> MultiplierField:
    """Reconstruct the branch multipliers of a difference operator.

    For each partition cube I_j, h_j = difference(chi_{I_j}); then
    b_i(x) = h_j(x) for the cube containing gamma_i(x).  Nodes whose image
    falls in the leftover set stay 0 and are left uncovered.
    """
    nodes = grid_nodes(out_box, n_cells)
    blank = MultiplierField(curve, out_box, n_cells,
                            np.zeros((curve.r, len(nodes))))
    cube_of = np.full(blank.fields.shape, -1, dtype=int)
    for i, br in enumerate(curve.branches):
        mask = blank.support[i]
        if np.any(mask):
            img = br.forward(nodes[mask])
            cube_of[i][mask] = partition.locate(img)
    # Branch-disjointness says two branches never share a cube at one node.
    hits = np.sort(cube_of, axis=0)
    shared = np.any((hits[1:] == hits[:-1]) & (hits[:-1] >= 0), axis=0)
    if np.any(shared):
        j = int(np.argmax(shared))
        raise ConsistencyError(
            f"two branches map node {tuple(nodes[j].tolist())} into the same "
            "partition cube")
    covered = cube_of >= 0
    home = partition.locate(nodes)
    fields = blank.fields
    for jc in sorted(set(cube_of[covered].tolist())):
        chi = GridFunction(out_box, n_cells, (home == jc).astype(float))
        h_j = difference(chi)
        if not (h_j.box == out_box and h_j.cells_per_axis == n_cells):
            raise ConsistencyError("difference operator changed the grid")
        fields = np.where(cube_of == jc, h_j.values, fields)
    # Built anew, so the field's checks run on the recovered values.
    return replace(blank, fields=fields, covered=covered)


@dataclass
class MultiplierBoundReport:
    passed: bool
    cap: float
    supremum: float
    per_branch: list[float]


def multiplier_bound_check(curve: HyperCurve, b: MultiplierField,
                           cap: float) -> MultiplierBoundReport:
    """Verify sup_x sum-free per-branch bound |b_i(x)|^2 |J_i(x)|^{-1} <= cap."""
    if not (math.isfinite(cap) and cap > 0):
        raise RejectedInputError(f"cap must be finite and positive: {cap}")
    nodes = b.nodes()
    sups = []
    for i, br in enumerate(curve.branches):
        mask = b.support[i]
        if not np.any(mask):
            sups.append(0.0)
            continue
        vals = b.fields[i][mask]
        J = np.abs(br.jac(nodes[mask]))
        score = np.where(J > 0, vals ** 2 / np.maximum(J, 1e-300),
                         np.where(vals == 0.0, 0.0, math.inf))
        sups.append(float(np.max(score)))
    sup = max(sups)
    return MultiplierBoundReport(sup <= cap, cap, sup, sups)
