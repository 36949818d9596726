"""Grid functions, truncated singular operators, and branch multipliers.

An operator is a plain callable ``GridFunction -> GridFunction``;
``truncated_handle``, ``multiplier_handle`` and ``sum_handle`` build them,
and any other such callable serves as one.

``apply_truncated`` realizes T_eps f(x) = sum over cells with
rho(x, y_cell) >= eps of K(x, y) f(y) h^n by the midpoint rule, on one of
two paths chosen from what it can observe:

- Lattice path: the kernel declares ``translation_invariant``, n = 1, the
  output grid lies on f's box and its cell count divides f's (s = N_in /
  N_out).  Every x_i - y_j is then one of the 2 N_in - s lattice offsets
  (s i + (s-1)/2 - j) h, so rho and K are evaluated once on those offsets,
  cached on the kernel (O(N) memory), masked per eps and summed directly
  in fixed chunks of at most ``_TAP_CHUNK`` taps.
- Dense path, everything else: the rho and K matrices of the (output grid,
  input grid) pair are cached on the kernel, so sweeping eps only changes
  the mask.  Inner sums pair each cell with its mirror cell before
  accumulating, so integrands that are exactly antisymmetric on a
  symmetric grid cancel bitwise.

Both paths sum directly rather than by FFT.  An FFT leaves a residue of
about 1e-16 |k| |f| at every point, even where every unmasked term is 0;
direct summation gives exactly 0 there, and across an eps ladder it keeps
T_eps f bit-identical at points whose distance from supp f exceeds eps.
The fixed chunks keep each dot product below the length at which BLAS
splits it over threads, so the bits do not depend on the thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConsistencyError, RejectedInputError
from .geometry import Box, HyperCurve, parse_box
from .kernels import KernelSpec, _rho_and_kernel
from .partition import BranchDisjointPartition
from .util import as_points, fold_mirror_sum, pmap_chunks


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
    """Midpoint nodes of the N^n grid on bx, shape (N^n, n), row-major."""
    if n_cells < 1:
        raise RejectedInputError(f"a grid needs at least one cell: {n_cells}")
    axes = [_axis_nodes(bx.lo[k], bx.hi[k], n_cells) for k in range(bx.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return grid.reshape(-1, bx.dim)


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
        if self.cells_per_axis < 1:
            raise RejectedInputError("cells_per_axis must be positive")
        if not self.box.is_bounded:
            raise RejectedInputError("grid functions need a bounded box")
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if len(v) != self.cells_per_axis ** self.box.dim:
            raise RejectedInputError(
                f"expected {self.cells_per_axis ** self.box.dim} values, "
                f"got {len(v)}")
        if not np.all(np.isfinite(v)):
            raise RejectedInputError("grid function values must be finite")
        widths = {round((b - a) / self.cells_per_axis, 15)
                  for a, b in zip(self.box.lo, self.box.hi)}
        if len(widths) != 1:
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

    def geometry(self) -> tuple:
        return (self.box.lo, self.box.hi, self.cells_per_axis)

    def same_geometry(self, other: "GridFunction") -> bool:
        return self.geometry() == other.geometry()

    def integral(self) -> float:
        return float(np.sum(self.values) * self.h ** self.dim)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.box, self.cells_per_axis, values)


def grid_function(bx: Box, n_cells: int, f) -> GridFunction:
    """Sample a callable (on (m, n) point arrays) or an array onto the grid."""
    if callable(f):
        vals = np.asarray(f(grid_nodes(bx, n_cells)), dtype=float).reshape(-1)
    else:
        vals = np.asarray(f, dtype=float).reshape(-1)
    return GridFunction(bx, n_cells, vals)


def zeros_like(gf: GridFunction) -> GridFunction:
    return gf.with_values(np.zeros_like(gf.values))


# CSV I/O --------------------------------------------------------------------

def write_grid_csv(gf: GridFunction, path: str) -> None:
    """Header `# box=<lo..hi per axis> n=<N>`, then one value per line."""
    spans = ",".join(f"{a!r}..{b!r}" for a, b in zip(gf.box.lo, gf.box.hi))
    with open(path, "w") as fh:
        fh.write(f"# box={spans} n={gf.cells_per_axis}\n")
        for v in gf.values:
            fh.write(f"{float(v)!r}\n")


def read_grid_csv(path: str) -> GridFunction:
    header = None
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header is None and "box=" in line:
                    header = line
                continue
            vals.append(float(line))
    fields = dict(part.partition("=")[::2]
                  for part in (header or "").lstrip("#").split())
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


def _build_matrices(kernel: KernelSpec, Xout: np.ndarray,
                    gf: GridFunction, threads: int):
    Yin = gf.nodes()
    m_out, m_in = len(Xout), len(Yin)

    def rows(s, e):
        Xrep = np.repeat(Xout[s:e], m_in, axis=0)
        Ytil = np.tile(Yin, (e - s, 1))
        R, K = _rho_and_kernel(kernel, Xrep, Ytil)
        return np.stack([R.reshape(e - s, m_in), K.reshape(e - s, m_in)],
                        axis=1)

    row_chunk = max(1, _CACHE_ENTRY_LIMIT // (8 * m_in))
    RK = pmap_chunks(rows, m_out, row_chunk, threads)     # (m_out, 2, m_in)
    return np.ascontiguousarray(RK[:, 0]), np.ascontiguousarray(RK[:, 1])


def _matrices_for(kernel: KernelSpec, out_box: Box, out_n: int,
                  gf: GridFunction, threads: int):
    """(R, K) from the output grid (out_box, out_n) to gf's grid, cached."""
    key = ((out_box.lo, out_box.hi, out_n), gf.geometry())
    hit = kernel._matrices.get(key)
    if hit is not None:
        return hit
    R, K = _build_matrices(kernel, grid_nodes(out_box, out_n), gf, threads)
    if R.size <= _CACHE_ENTRY_LIMIT:
        kernel._matrices[key] = (R, K)
    return R, K


def _masked_apply(R: np.ndarray, K: np.ndarray, gf: GridFunction,
                  epsilon: float) -> np.ndarray:
    W = np.where(R >= epsilon, K, 0.0) * gf.values
    return fold_mirror_sum(W, axis=1) * gf.h ** gf.dim


# Taps per dot product, and output rows per task, on the lattice path.
# BLAS may split longer dot products over threads, which would make the
# bits depend on the thread count; below this length each one runs on a
# single thread.
_TAP_CHUNK = 4096


def _lattice_step(kernel: KernelSpec, out_box: Box, out_n: int,
                  f: GridFunction) -> int:
    """s = N_in / N_out when T_eps f can be summed by lattice convolution
    (a translation-invariant 1-D kernel, the output grid on f's box with a
    cell count dividing f's), else 0."""
    n_in = f.cells_per_axis
    if (kernel.translation_invariant and kernel.dim == 1
            and out_box == f.box and 0 < out_n and n_in % out_n == 0):
        return n_in // out_n
    return 0


def _lattice_for(kernel: KernelSpec, f: GridFunction, step: int,
                 threads: int):
    """(rho, K) at the offsets x_i - y_j = (step*i + (step-1)/2 - j) h,
    indexed by step*i - j + N_in - 1; cached on the kernel."""
    key = ("lattice", f.geometry(), step)
    hit = kernel._matrices.get(key)
    if hit is None:
        n_in = f.cells_per_axis
        d = (np.arange(1 - n_in, n_in - step + 1) + (step - 1) / 2) * f.h
        hit = _rho_and_kernel(kernel, d[:, None], np.zeros((len(d), 1)),
                              threads)
        kernel._matrices[key] = hit
    return hit


def _lattice_apply(R: np.ndarray, K: np.ndarray, f: GridFunction,
                   step: int, epsilon: float, threads: int) -> np.ndarray:
    """out_i = h sum_j taps[step*i - j + N_in - 1] f_j.

    The masked taps and the reversed f are split by residue mod step, so
    out_i = sum over r and v of taps_r[i + v] g_r[v], summed in the same
    fixed chunks of v for every i; splitting the outputs over threads
    therefore leaves every bit unchanged."""
    taps = np.where(R >= epsilon, K, 0.0)
    g = f.values[::-1]
    n_out = len(g) // step
    phases = [(np.ascontiguousarray(taps[r::step]),
               np.ascontiguousarray(g[r::step])) for r in range(step)]

    def rows(i0, i1):
        out = np.zeros(i1 - i0)
        for a, b in phases:
            for v0 in range(0, n_out, _TAP_CHUNK):
                v1 = min(v0 + _TAP_CHUNK, n_out)
                out += np.correlate(a[v0 + i0:v1 + i1 - 1], b[v0:v1],
                                    "valid")
        return out

    return pmap_chunks(rows, n_out, _TAP_CHUNK, threads) * f.h


def _require_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise RejectedInputError(
            f"epsilon must be finite and positive: {epsilon}")


def apply_truncated(kernel: KernelSpec, f: GridFunction, epsilon: float,
                    out_geometry: Optional[tuple[Box, int]] = None,
                    threads: int = 1) -> GridFunction:
    """T_eps f on the output grid (defaults to f's own grid)."""
    _require_epsilon(epsilon)
    if epsilon < 4.0 * f.h:
        warnings.warn("epsilon below 4 cell widths: quadrature near the "
                      "truncation boundary is unreliable", stacklevel=2)
    if out_geometry is None:
        out_box, out_n = f.box, f.cells_per_axis
    else:
        out_box, out_n = out_geometry
    step = _lattice_step(kernel, out_box, out_n, f)
    if step:
        R, K = _lattice_for(kernel, f, step, threads)
        vals = _lattice_apply(R, K, f, step, epsilon, threads)
    else:
        R, K = _matrices_for(kernel, out_box, out_n, f, threads)
        vals = _masked_apply(R, K, f, epsilon)
    return GridFunction(out_box, out_n, vals)


def apply_truncated_at(kernel: KernelSpec, f: GridFunction, x,
                       epsilon: float, threads: int = 1) -> np.ndarray:
    """T_eps f at explicit points (no caching)."""
    _require_epsilon(epsilon)
    X = as_points(x, kernel.dim)
    R, K = _build_matrices(kernel, X, f, threads)
    return _masked_apply(R, K, f, epsilon)


@dataclass
class T0Report:
    epsilons: list[float]
    sup_diffs: list[float]       # ||T_{e_k} f - T_{e_{k+1}} f||_inf
    unreliable: list[bool]       # epsilon below the grid resolution h

    @property
    def cauchy_after_two(self) -> bool:
        d = self.sup_diffs
        return all(d[k + 1] <= d[k] * (1.0 + 1e-9) for k in range(1, len(d) - 1))


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
        warnings.simplefilter("ignore")
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
        nodes = grid_nodes(self.box, self.cells_per_axis)
        if self.support is None:
            self.support = np.stack([b.domain.contains(nodes, tol=1e-12)
                                     for b in self.curve.branches])
        self.fields = np.asarray(self.fields, dtype=float).reshape(
            self.curve.r, -1)
        self.fields = np.where(self.support, self.fields, 0.0)
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
    rows = []
    for fn in funcs:
        if callable(fn):
            rows.append(np.asarray(fn(nodes), dtype=float).reshape(-1))
        else:
            rows.append(np.full(len(nodes), float(fn)))
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


def truncated_handle(kernel: KernelSpec, epsilon: float,
                     threads: int = 1) -> _Operator:
    def apply(f: GridFunction) -> GridFunction:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return apply_truncated(kernel, f, epsilon, threads=threads)
    return apply


def multiplier_handle(curve: HyperCurve, b: MultiplierField) -> _Operator:
    return lambda f: apply_multiplier(curve, b, f)


def sum_handle(*parts: _Operator) -> _Operator:
    def apply(f: GridFunction) -> GridFunction:
        outs = [p(f) for p in parts]
        acc = outs[0]
        for o in outs[1:]:
            if not acc.same_geometry(o):
                raise ConsistencyError("summed handles disagree on "
                                       "output geometry")
            acc = acc.with_values(acc.values + o.values)
        return acc
    return apply


# ---------------------------------------------------------------------------
# Multiplier recovery
# ---------------------------------------------------------------------------

def _cube_indicator(gf_box: Box, n_cells: int, cube_box: Box) -> GridFunction:
    nodes = grid_nodes(gf_box, n_cells)
    # Half-open membership matches the partition's cube-location convention.
    inside = np.all((nodes >= cube_box.lo_a) & (nodes < cube_box.hi_a), axis=1)
    return GridFunction(gf_box, n_cells, inside.astype(float))


def recover_multipliers(difference: _Operator, curve: HyperCurve,
                        partition: BranchDisjointPartition,
                        out_box: Box, n_cells: int) -> MultiplierField:
    """Reconstruct the branch multipliers of a difference operator.

    For each partition cube I_j, h_j = difference(chi_{I_j}); then
    b_i(x) = h_j(x) for the cube containing gamma_i(x).  Nodes whose image
    falls in the leftover set stay 0 and are left uncovered.
    """
    nodes = grid_nodes(out_box, n_cells)
    m = len(nodes)
    support = np.stack([b.domain.contains(nodes, tol=1e-12)
                        for b in curve.branches])
    cube_of = np.full((curve.r, m), -1, dtype=int)
    for i, br in enumerate(curve.branches):
        mask = support[i]
        if np.any(mask):
            img = br.forward(nodes[mask])
            cube_of[i][mask] = partition.locate(img)
    # Branch-disjointness says two branches never share a cube at one node.
    hits = np.sort(cube_of, axis=0)
    shared = np.any((hits[1:] == hits[:-1]) & (hits[:-1] >= 0), axis=0)
    if np.any(shared):
        j = int(np.argmax(shared))
        raise ConsistencyError(
            f"two branches map node {tuple(nodes[j])} into the same "
            "partition cube")
    fields = np.zeros((curve.r, m))
    covered = np.zeros((curve.r, m), dtype=bool)
    needed = sorted(set(cube_of[cube_of >= 0].tolist()))
    for jc in needed:
        chi = _cube_indicator(out_box, n_cells, partition.cubes[jc].as_box())
        h_j = difference(chi)
        if not (h_j.box == out_box and h_j.cells_per_axis == n_cells):
            raise ConsistencyError("difference operator changed the grid")
        sel = cube_of == jc
        for i in range(curve.r):
            fields[i][sel[i]] = h_j.values[sel[i]]
            covered[i][sel[i]] = True
    return MultiplierField(curve, out_box, n_cells, fields,
                           support=support, covered=covered & support)


@dataclass
class MultiplierBoundReport:
    passed: bool
    cap: float
    supremum: float
    per_branch: list[float]


def multiplier_bound_check(curve: HyperCurve, b: MultiplierField,
                           cap: float) -> MultiplierBoundReport:
    """Verify sup_x sum-free per-branch bound |b_i(x)|^2 |J_i(x)|^{-1} <= cap."""
    if cap <= 0:
        raise RejectedInputError("cap must be positive")
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
