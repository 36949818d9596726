"""The lattice path of ``czo.operator`` as it stood before its fixed cost
was cut: one view per operand per band block, band ranges found with
numpy outer products, band rows recomputed by ``_paired_rows`` and every
correlate chunk summed, whether or not its slice of g is zero; and the
weak type's ``column`` at one eps, from taps evaluated afresh.

The tests hold the current path to these bits.  Chunk and block sizes are
read from ``czo.operator`` at call time, so a test that shortens them
shortens them here too.
"""

from typing import Optional

import numpy as np

import czo.operator as op
from czo.kernels import KernelSpec, _rho_and_kernel
from czo.operator import GridFunction
from czo.util import pmap_chunks


def _lattice_taps(kernel: KernelSpec, f: GridFunction, step: int,
                  epsilon: float):
    """(on, taps): on = [rho_1 >= eps] as 0.0 / 1.0 and taps = on * k at
    the offsets d_p = (p - N_in + 1 + (step-1)/2) h, p = 0 .. 2 N_in -
    step - 1, evaluated afresh."""
    n_in = f.cells_per_axis
    d = (np.arange(1 - n_in, n_in - step + 1) + (step - 1) / 2) * f.h
    R, K = _rho_and_kernel(kernel, d[:, None], np.zeros((len(d), 1)))
    on = R >= epsilon
    on, taps = on.astype(float), np.where(on, K / len(kernel.reflections),
                                          0.0)
    on.flags.writeable = taps.flags.writeable = False
    return on, taps


def _lattice_block(kernel: KernelSpec, on: np.ndarray, taps: np.ndarray,
                   n_in: int, step: int, rows: slice, cells: slice,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    shape = (rows.stop - rows.start, cells.stop - cells.start)
    at = {1: (step * rows.start - cells.start + n_in - 1, -1),
          -1: (step * rows.start + cells.start, 1)}

    def view(a, s):
        st = a.strides[0]
        return np.ndarray(shape, a.dtype, a, at[s][0] * st,
                          (step * st, at[s][1] * st))

    if len(kernel.reflections) == 1:
        return view(taps, *kernel.reflections)
    W = np.add(view(taps, 1), view(taps, -1), out=out)
    W *= view(on, 1)
    W *= view(on, -1)
    return W


def _runs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cut = np.flatnonzero(np.concatenate(([m[0]], m[1:] != m[:-1], [m[-1]])))
    return cut[::2], cut[1::2]


def _band_ranges(on: np.ndarray, g: np.ndarray, step: int, n_out: int,
                 extra=()) -> list[tuple[int, int]]:
    lo, hi = (r[:, None] for r in _runs(on == 0.0))
    s, e = _runs(g != 0.0)
    spans = [*zip(((lo - e) // step + 1).flat, (-((s - hi) // step)).flat),
             *((i, i + 1) for i in extra)]
    out = []
    for a, b in sorted(spans):
        a, b = max(int(a), 0), min(int(b), n_out)
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        elif a < b:
            out.append((a, b))
    return out


def _paired_rows(kernel: KernelSpec, rows: range, on: np.ndarray,
                 taps: np.ndarray, g: np.ndarray, step: int) -> np.ndarray:
    n_in = len(g)
    half = n_in // 2
    cells = slice(int(np.argmax(g != 0.0)), half)
    block = max(1, op._BAND_BLOCK // max(half - cells.start, 1))
    buf = np.empty((min(block, len(rows)), half - cells.start))
    out = np.empty(len(rows))
    for a0 in range(0, len(rows), block):
        a1 = min(a0 + block, len(rows))
        W = _lattice_block(kernel, on, taps, n_in, step,
                           slice(rows[a0], rows[a1 - 1] + 1), cells,
                           out=buf[:a1 - a0])
        out[a0:a1] = np.einsum("ij,j->i", W, g[cells])
    if n_in % 2:
        out += taps[step * rows.start + half::step][:len(rows)] * g[half]
    return out


def _lattice_apply(kernel: KernelSpec, on: np.ndarray, taps: np.ndarray,
                   f: GridFunction, step: int, threads: int) -> np.ndarray:
    g = f.values if 1 in kernel.reflections else 0.0
    if -1 in kernel.reflections:
        g = g + f.values[::-1]
    n_out = len(g) // step
    rev = g[::-1]
    phases = [(np.ascontiguousarray(taps[r::step]),
               np.ascontiguousarray(rev[r::step])) for r in range(step)]
    fix = []
    if len(kernel.reflections) == 2 and np.any(g != 0.0):
        fix = _band_ranges(on, g, step, n_out, [n_out // 2] * (n_out % 2))

    def rows(i0, i1):
        out = np.zeros(i1 - i0)
        for a, b in phases:
            for v0 in range(0, n_out, op._TAP_CHUNK):
                v1 = min(v0 + op._TAP_CHUNK, n_out)
                out += np.correlate(a[v0 + i0:v1 + i1 - 1], b[v0:v1],
                                    "valid")
        for r0, r1 in fix:
            r0, r1 = max(r0, i0), min(r1, i1)
            if r0 < r1:
                out[r0 - i0:r1 - i0] = _paired_rows(kernel, range(r0, r1),
                                                    on, taps, g, step)
        return out

    return pmap_chunks(rows, n_out, op._TAP_CHUNK, threads) * f.h


def apply_truncated(kernel: KernelSpec, f: GridFunction, epsilon: float,
                    step: int = 1, threads: int = 1) -> np.ndarray:
    """The reference T_eps f on the grid (f.box, N_in / step)."""
    return _lattice_apply(kernel, *_lattice_taps(kernel, f, step, epsilon),
                          f, step, threads)


def column(kernel: KernelSpec, f: GridFunction, epsilon: float, step: int,
           cells: tuple, block: np.ndarray) -> np.ndarray:
    """The reference weak-type column on the grid (f.box, N_in / step):
    the eps-masked kernel from every output node to f's cells ``cells``
    (one slice) times ``block``, times h, gathered ``_BAND_BLOCK // n_out``
    cells at a time."""
    (c,) = cells
    on, taps = _lattice_taps(kernel, f, step, epsilon)
    n_in = f.cells_per_axis
    n_out = n_in // step
    width = max(1, op._BAND_BLOCK // n_out)
    out = np.zeros(n_out)
    for c0 in range(c.start, c.stop, width):
        c1 = min(c0 + width, c.stop)
        W = _lattice_block(kernel, on, taps, n_in, step, slice(0, n_out),
                           slice(c0, c1))
        out += W @ block[c0 - c.start:c1 - c.start]
    return out * f.h
