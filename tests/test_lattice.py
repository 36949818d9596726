"""The lattice path of apply_truncated, pinned to the dense path.

A kernel that declares its ``reflections`` is applied by direct summation
over the lattice of offsets x - y (and x + y for the reflection -1); every
test here compares it with the same kernel stripped of the declaration,
which takes the dense R/K path.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import czo
import czo.operator as op
import lattice_reference as ref
from czo.decomposition import weak_type_experiment
from czo.curves import get_curve
from czo.errors import RejectedInputError
from czo.geometry import HyperCurve, box
from czo.kernels import KERNEL_NAMES, KernelSpec, _rho_and_kernel, get_kernel
from czo.metric import rho_values
from czo.operator import (GridFunction, apply_truncated, estimate_T0,
                          grid_nodes)
from czo.util import pmap_chunks

B8 = box(-8.0, 8.0)
LADDER = [float(e) for e in 1.27 * 0.82 ** np.arange(16)]


def quiet_apply(kernel, f, eps, out_geometry=None, threads=1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return apply_truncated(kernel, f, eps, out_geometry, threads)


def dense_twin(kernel):
    return dataclasses.replace(kernel, reflections=frozenset())


def dyadic_box(n):
    """The box of n cells of width 1/16 centred on 0: its nodes, and so
    the node differences, are exact, as on the lattice."""
    return box(-n / 32, n / 32)


def inputs(n, seed, bx=B8):
    """A compact random input, an indicator, a full-support bump and a
    random input on [1, 2], whose even part vanishes near 0."""
    rng = np.random.default_rng(seed)
    x = grid_nodes(bx, n)[:, 0]
    return [np.where(np.abs(x - 0.5) <= 1.0, rng.normal(size=n), 0.0),
            ((x >= -1.0) & (x <= 2.0)).astype(float),
            np.exp(-(x - 0.3) ** 2),
            np.where((x >= 1.0) & (x <= 2.0), rng.normal(size=n), 0.0)]


DECLARING = [n for n in KERNEL_NAMES if get_kernel(n).reflections]


@pytest.mark.parametrize("name", DECLARING)
def test_declaration_holds(name):
    # K(x, y) = sum_s k(x - s y) and rho(x, y) = min_s rho_1(x - s y), with
    # k(d) = K(d, 0) / |S| and rho_1(d) = rho(d, 0).
    k = get_kernel(name)
    rng = np.random.default_rng(5)
    X = rng.uniform(-8.0, 8.0, size=(10_000, 1))
    Y = rng.uniform(-8.0, 8.0, size=(10_000, 1))
    R, K = _rho_and_kernel(k, X, Y)
    zero = np.zeros_like(Y)
    parts = [_rho_and_kernel(k, X - s * Y, zero) for s in k.reflections]
    R0 = np.min([r for r, _ in parts], axis=0)
    terms = [t / len(k.reflections) for _, t in parts]
    K0 = np.sum(terms, axis=0)
    assert np.all(np.abs(R - R0) <= 1e-15 * np.abs(R0))
    assert np.all(np.abs(K - K0) <= 1e-15 * np.sum(np.abs(terms), axis=0))


def test_declared_reflections():
    assert get_kernel("hilbert").reflections == {1}
    assert get_kernel("two-line-hilbert").reflections == {1, -1}
    assert not get_kernel("diamond-model").reflections


def test_reflections_must_be_signs():
    k = get_kernel("hilbert")
    with pytest.raises(RejectedInputError):
        KernelSpec("bad", k.curve, k.fn, 1.0, 1.0, reflections=frozenset({2}))


def check_against_dense(k, n, step, bx=B8):
    dense = dense_twin(k)
    geom = (bx, n // step)
    X, Y = grid_nodes(bx, n // step), grid_nodes(bx, n)
    R, K = (a.reshape(len(X), n) for a in _rho_and_kernel(
        dense, np.repeat(X, n, axis=0), np.tile(Y, (len(X), 1))))
    for vals in inputs(n, n + step, bx):
        f = GridFunction(bx, n, vals)
        # R[0, 5] is attained, so the mask keeps rho == eps exactly there.
        for eps in (LADDER[0], 0.5, LADDER[7], 0.1, LADDER[15], R[0, 5]):
            got = quiet_apply(k, f, eps, geom).values
            want = quiet_apply(dense, f, eps, geom).values
            scale = np.sum(np.abs(np.where(R >= eps, K, 0.0) * vals),
                           axis=1) * f.h
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
            assert np.all(got[scale == 0.0] == 0.0)


@pytest.mark.parametrize("n", [64, 512, 2048])
@pytest.mark.parametrize("step", [1, 2, 4])
def test_matches_the_dense_path(n, step):
    check_against_dense(get_kernel("hilbert"), n, step)


@pytest.mark.parametrize("n", [254, 255, 256, 2048])
@pytest.mark.parametrize("step", [1, 2, 4])
def test_two_line_matches_the_dense_path(n, step):
    # 255 has an output row at x = 0, where K vanishes; 254 / 2 = 127 has
    # one on the half-integer offsets.
    check_against_dense(get_kernel("two-line-hilbert"), n, step,
                        dyadic_box(n))


@pytest.mark.parametrize("step", [1, 2, 4])
def test_matches_the_dense_path_in_short_chunks(monkeypatch, step):
    # Chunks of 40 taps and 40 output rows, the last one ragged.
    monkeypatch.setattr(op, "_TAP_CHUNK", 40)
    check_against_dense(get_kernel("hilbert"), 512, step)


@pytest.mark.parametrize("step", [1, 2])
def test_two_line_matches_the_dense_path_in_short_chunks(monkeypatch, step):
    # Row chunks of 40 and band blocks of one or two rows.
    monkeypatch.setattr(op, "_TAP_CHUNK", 40)
    monkeypatch.setattr(op, "_BAND_BLOCK", 300)
    check_against_dense(get_kernel("two-line-hilbert"), 510, step,
                        dyadic_box(510))


@pytest.mark.parametrize("step", [1, 2])
def test_reflection_minus_one_alone_matches_the_dense_path(step):
    # K(x, y) = 1/(x + y) on the line y = -x: the Toeplitz sum over the
    # reversed f, with no band.
    anti = dataclasses.replace(get_curve("two-lines").branches[1], index=0)
    k = KernelSpec("anti", HyperCurve("anti", [anti]),
                   lambda X, Y, r: 1.0 / (X[:, 0] + Y[:, 0]), 1.0, 1.0,
                   reflections=frozenset({-1}))
    check_against_dense(k, 256, step)


@pytest.mark.parametrize("step", [1, 2])
def test_bit_identical_across_eps_at_distant_points(step):
    # Where rho(x, supp f) >= eps every term is kept, so T_eps f(x) must
    # not change as eps decreases further.
    k = get_kernel("hilbert")
    n = 512
    f = GridFunction(B8, n, inputs(n, 9)[0])
    outs = [quiet_apply(k, f, e, (B8, n // step)).values for e in LADDER]
    X = grid_nodes(B8, n // step)
    Ys = f.nodes()[f.values != 0.0]
    R, _ = rho_values(k.curve, np.repeat(X, len(Ys), axis=0),
                      np.tile(Ys, (len(X), 1)))
    dmin = np.min(R.reshape(len(X), len(Ys)), axis=1)
    for e, prev, cur in zip(LADDER, outs, outs[1:]):
        far = dmin >= e
        assert far.any()
        assert np.array_equal(prev[far], cur[far])


def rows_of(ranges):
    """The rows of the ranges [a, b), in order."""
    return np.array([i for a, b in ranges for i in range(a, b)],
                    dtype=np.int64)


@st.composite
def band_cases(draw):
    """(on, g, step, n_out): a 0/1 mask on the 2 N_in - step offsets and a
    g on the N_in cells, each a concatenation of runs of random lengths,
    so runs touch either end, have a single cell or are absent."""
    step = draw(st.integers(1, 4))
    n_out = draw(st.integers(1, 33))
    n_in = step * n_out

    def runs(size, values):
        out = []
        while len(out) < size:
            out += [draw(values)] * draw(st.integers(1, max(1, size // 2)))
        return np.array(out[:size], dtype=float)

    on = runs(2 * n_in - step, st.sampled_from([0.0, 1.0]))
    g = runs(n_in, st.sampled_from([0.0, 0.0, -0.0, 1.5, -2.0]))
    return on, g, step, n_out


@given(band_cases())
@example((np.ones(7), np.ones(4), 1, 4))
@example((np.zeros(7), np.zeros(4), 1, 4))
@example((np.zeros(3), np.array([0.0, 0.0, 1.0]), 3, 1))
@example((np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
          np.array([1.0, 0.0, 0.0, 1.0]), 1, 4))
@settings(max_examples=400, deadline=None)
def test_band_ranges_are_the_band_rows(case):
    # Row i is a band row when not on[step*i + j] and g_j != 0 for some j;
    # the ranges hold exactly those rows, sorted and maximal (a gap of at
    # least one row between two ranges).
    on, g, step, n_out = case
    q = step * np.arange(n_out)[:, None] + np.arange(len(g))
    want = np.flatnonzero(np.any((on[q] == 0.0) & (g != 0.0), axis=1))
    ranges = op._band_ranges(op._runs(on == 0.0), op._runs(g != 0.0), step,
                             n_out)
    assert np.array_equal(rows_of(ranges), want)
    assert all(a < b for a, b in ranges)
    assert all(b < a for (_, b), (a, _) in zip(ranges, ranges[1:]))


@pytest.mark.parametrize("n, step", [(512, 1), (512, 2), (255, 1)])
def test_two_line_ladder_with_a_gap_in_supp_g(n, step):
    # supp f = [1, 2], so supp g = [-2, -1] u [1, 2] has a gap at 0.  Rows
    # in the gap are rho-distant from supp f and their band meets only
    # zeros of g, so they are not recomputed: the band rows are exactly
    # those whose band holds a nonzero g_j, not those that meet its hull.
    k = get_kernel("two-line-hilbert")
    bx = box(-n / 64, n / 64)
    x = grid_nodes(bx, n)[:, 0]
    rng = np.random.default_rng(n + step)
    f = GridFunction(bx, n, np.where((x >= 1.0) & (x <= 2.0),
                                     rng.normal(size=n), 0.0))
    g = f.values + f.values[::-1]
    q = step * np.arange(n // step)[:, None] + np.arange(n)
    for e in LADDER:
        on, _ = op._Lattice(k, f, step).taps(e)
        want = np.flatnonzero(np.any((on[q] == 0.0) & (g != 0.0), axis=1))
        ranges = op._band_ranges(op._runs(on == 0.0), op._runs(g != 0.0),
                                 step, n // step)
        assert np.array_equal(rows_of(ranges), want)
    outs = [quiet_apply(k, f, e, (bx, n // step)).values for e in LADDER]
    X = grid_nodes(bx, n // step)
    Ys = f.nodes()[f.values != 0.0]
    R, _ = rho_values(k.curve, np.repeat(X, len(Ys), axis=0),
                      np.tile(Ys, (len(X), 1)))
    dmin = np.min(R.reshape(len(X), len(Ys)), axis=1)
    in_gap = np.abs(X[:, 0]) < 0.5
    for e, prev, cur in zip(LADDER, outs, outs[1:]):
        far = dmin >= e
        assert far.any()
        assert np.array_equal(prev[far], cur[far])
    assert np.any((dmin >= LADDER[-1]) & in_gap)


# The band rows as the lattice path found them before they became ranges:
# an index array from prefix counts of g != 0 over each masked run, the
# middle row of an odd output grid joined by np.union1d, and each run of
# consecutive rows recomputed in blocks.  The ranges must reproduce its
# bits.

def reference_band_rows(on, g, step, n_out):
    n_in = len(g)
    seen = np.concatenate(([0], np.cumsum(g != 0.0)))
    edges = np.flatnonzero(np.diff(np.concatenate(([1.0], on, [1.0]))))
    base = step * np.arange(n_out)
    hits = np.zeros(n_out, dtype=np.int64)
    for lo, hi in zip(edges[::2], edges[1::2]):
        hits += (seen[np.clip(hi - base, 0, n_in)]
                 - seen[np.clip(lo - base, 0, n_in)])
    return np.flatnonzero(hits)


def reference_paired_rows(kernel, rows, on, taps, g, step):
    n_in = len(g)
    half = n_in // 2
    cells = slice(int(np.argmax(g != 0.0)), half)
    block = max(1, op._BAND_BLOCK // max(half - cells.start, 1))
    buf = np.empty((block, half - cells.start))
    out = np.zeros(len(rows))
    starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
    for a, b in zip(starts, np.append(starts[1:], len(rows))):
        for a0 in range(a, b, block):
            a1 = min(a0 + block, b)
            W = ref._lattice_block(kernel, on, taps, n_in, step,
                                   slice(rows[a0], rows[a1 - 1] + 1), cells,
                                   out=buf[:a1 - a0])
            out[a0:a1] = np.einsum("ij,j->i", W, g[cells])
    if n_in % 2:
        out += taps[step * rows + half] * g[half]
    return out


def reference_lattice_apply(kernel, on, taps, f, step, threads):
    g = f.values + f.values[::-1]
    n_out = len(g) // step
    rev = g[::-1]
    phases = [(np.ascontiguousarray(taps[r::step]),
               np.ascontiguousarray(rev[r::step])) for r in range(step)]
    fix = np.empty(0, dtype=np.int64)
    if np.any(g != 0.0):
        fix = reference_band_rows(on, g, step, n_out)
        if n_out % 2:
            fix = np.union1d(fix, [n_out // 2])

    def rows(i0, i1):
        out = np.zeros(i1 - i0)
        for a, b in phases:
            for v0 in range(0, n_out, op._TAP_CHUNK):
                v1 = min(v0 + op._TAP_CHUNK, n_out)
                out += np.correlate(a[v0 + i0:v1 + i1 - 1], b[v0:v1],
                                    "valid")
        mine = fix[(fix >= i0) & (fix < i1)]
        if len(mine):
            out[mine - i0] = reference_paired_rows(kernel, mine, on, taps,
                                                   g, step)
        return out

    return pmap_chunks(rows, n_out, op._TAP_CHUNK, threads) * f.h


def bit_inputs(n):
    """Signed zeros around a compact signed input, a negative indicator,
    an odd input (g = 0), a full-support bump, zeros, and an input that
    touches both ends of the box."""
    rng = np.random.default_rng(n)
    x = grid_nodes(B8, n)[:, 0]
    a = rng.normal(size=n)
    return [np.where(np.abs(x - 0.5) <= 1.0, a, -0.0),
            -((x >= -1.0) & (x <= 2.0)).astype(float),
            a - a[::-1],
            np.exp(-(x - 0.3) ** 2),
            np.zeros(n),
            np.where(np.abs(x) >= 6.5, a, 0.0)]


def check_bits_against_reference(n, step):
    k = get_kernel("two-line-hilbert")
    for vals in bit_inputs(n):
        f = GridFunction(B8, n, vals)
        # Below h = 16 / n, inside the box, and above its width.
        for eps in (0.01, 0.3, 20.0):
            on, taps = op._Lattice(k, f, step).taps(eps)
            for threads in (1, 2):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    got = apply_truncated(k, f, eps, (B8, n // step),
                                          threads=threads)
                want = reference_lattice_apply(k, on, taps, f, step, threads)
                assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, step", [(n, s) for n in (255, 256, 257, 512)
                                     for s in (1, 2, 3, 4) if n % s == 0])
def test_two_line_bits_equal_the_index_array_reference(n, step):
    check_bits_against_reference(n, step)


@pytest.mark.parametrize("n, step", [(255, 1), (512, 2)])
def test_two_line_bits_equal_the_reference_in_short_chunks(monkeypatch, n,
                                                           step):
    # Row chunks of 40 cut the ranges, and band blocks of one or two rows
    # cut each range again.
    monkeypatch.setattr(op, "_TAP_CHUNK", 40)
    monkeypatch.setattr(op, "_BAND_BLOCK", 300)
    check_bits_against_reference(n, step)


def ladder_inputs(n):
    """Inputs on B8 for the reference ladders: compact ones, an odd one
    (g = 0), a full-support one, two with a gap in supp g (the second
    touches both ends of the box), signed zeros around a compact input,
    all zeros negative, and, on an odd grid, an input whose g is nonzero
    only at the middle cell."""
    x = grid_nodes(B8, n)[:, 0]
    a = np.random.default_rng(n).normal(size=n)
    out = [((x >= -1.3) & (x <= 0.2)).astype(float),
           np.where(np.abs(x - 0.4) < 1.0, (1.0 - (x - 0.4) ** 2) ** 2, 0.0),
           np.where(np.abs(x) <= 1.0, a, 0.0),
           a - a[::-1],
           np.exp(-((x - 0.5) / 1.2) ** 2),
           np.where((x >= 1.0) & (x <= 2.0), a, 0.0),
           np.where(np.abs(x) >= 6.5, a, 0.0),
           np.where(np.abs(x - 0.5) <= 1.0, a, -0.0),
           np.full(n, -0.0)]
    if n % 2:
        out.append(np.where(np.arange(n) == n // 2, 1.5, -0.0))
    return out


def ladder_applies(monkeypatch, k, f, out_geometry, threads):
    """The values of every apply_truncated call of one estimate_T0 ladder."""
    seen = []
    inner = op.apply_truncated

    def recording(kernel, g, eps, geom=None, threads=1):
        out = inner(kernel, g, eps, geom, threads)
        seen.append((eps, out.values))
        return out

    monkeypatch.setattr(op, "apply_truncated", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate_T0(k, f, LADDER, out_geometry, threads)
    monkeypatch.setattr(op, "apply_truncated", inner)
    return seen


@pytest.mark.parametrize("n, step", [(512, 1), (512, 2), (255, 1), (255, 3)])
def test_ladder_bits_equal_the_earlier_lattice_path(monkeypatch, n, step):
    # Every apply of a 16-eps ladder, signs of zero included, equals the
    # lattice path as it stood before its fixed cost was cut.
    k = get_kernel("two-line-hilbert")
    for vals in ladder_inputs(n):
        f = GridFunction(B8, n, vals)
        for threads in (1, 2):
            seen = ladder_applies(monkeypatch, k, f, (B8, n // step),
                                  threads)
            assert [e for e, _ in seen] == LADDER
            for e, got in seen:
                want = ref.apply_truncated(k, f, e, step, threads)
                assert got.tobytes() == want.tobytes()


def count_correlates(monkeypatch, fn):
    """(fn(), the number of output rows of each np.correlate call)."""
    calls = []
    inner = np.correlate
    monkeypatch.setattr(np, "correlate", lambda a, v, mode: calls.append(
        len(a) - len(v) + 1) or inner(a, v, mode))
    try:
        out = fn()
    finally:
        monkeypatch.setattr(np, "correlate", inner)
    return out, calls


@pytest.mark.parametrize("name", DECLARING)
@pytest.mark.parametrize("step", [1, 2, 3])
def test_zero_chunks_are_skipped_bit_for_bit(monkeypatch, name, step):
    # In chunks of 16 taps most chunks of the compact inputs' g vanish
    # (supp f is [-1.3, 0.2], [-0.6, 1.4] or [-1, 1] of [-8, 8]), and for
    # both reflections the odd input's g vanishes everywhere.  Skipping
    # those chunks must leave every bit of the unskipped sum.  The calls
    # are counted on a cold apply, as a ladder step re-sums fewer rows.
    monkeypatch.setattr(op, "_TAP_CHUNK", 16)
    k = get_kernel(name)
    n = 384
    for i, vals in enumerate(ladder_inputs(n)[:4]):
        f = GridFunction(B8, n, vals)
        for eps in LADDER[::5]:
            for threads in (1, 2):
                got = quiet_apply(k, f, eps, (B8, n // step), threads)
                cold, calls = count_correlates(monkeypatch, lambda: op._Lattice(
                    k, f, step)(f, eps, threads)[0])
                want, ref_calls = count_correlates(
                    monkeypatch,
                    lambda: ref.apply_truncated(k, f, eps, step, threads))
                assert got.values.tobytes() == want.tobytes()
                assert cold.tobytes() == want.tobytes()
                if i < 3:
                    assert len(calls) < len(ref_calls)
                else:
                    assert len(calls) == (0 if len(k.reflections) == 2
                                          else len(ref_calls))


@pytest.mark.parametrize("name", DECLARING)
@pytest.mark.parametrize("step", [1, 2])
def test_a_compact_step_makes_fewer_row_products(monkeypatch, name, step):
    # Along a ladder a step re-sums only the rows whose sum can change:
    # for a compact input fewer than a cold apply, and fewer than half of
    # them over the ladder.  An input whose nonzeros span every cell
    # re-sums them all, and so does one nonzero on every other cell, by
    # a cold apply from its first step on, which re-sums every row.
    n = 512
    k = get_kernel(name)
    compact, full = (ladder_inputs(n)[i] for i in (0, 4))
    alternate = np.where(np.arange(n) % 2 == 0, full, 0.0)
    for vals, cold_from in ((compact, None), (full, 0), (alternate, 1)):
        f = GridFunction(B8, n, vals)
        lat = op._Lattice(k, f, step)
        lat(f, LADDER[0], 1)
        warm_rows = cold_rows = 0
        for s, e in enumerate(LADDER[1:]):
            warm, rows = count_correlates(monkeypatch,
                                          lambda: lat(f, e, 1)[0])
            cold, rows_cold = count_correlates(
                monkeypatch, lambda: op._Lattice(k, f, step)(f, e, 1)[0])
            assert warm.tobytes() == cold.tobytes()
            if cold_from is None:
                assert sum(rows) < sum(rows_cold)
            else:
                assert s < cold_from or (rows == rows_cold
                                         and lat.last is None)
            warm_rows += sum(rows)
            cold_rows += sum(rows_cold)
        if cold_from is None:
            assert 2 * warm_rows < cold_rows


def memo_inputs(n):
    """A compact input, a full-support one, the compact one again, the
    compact one with -0.0 for its zeros, an odd one (g = 0 for both
    reflections) and the compact one after it."""
    x = grid_nodes(B8, n)[:, 0]
    a = np.random.default_rng(n).normal(size=n)
    compact = np.where(np.abs(x - 0.4) <= 1.0, a, 0.0)
    return [compact, np.exp(-(x - 0.3) ** 2), compact,
            np.where(compact == 0.0, -0.0, compact), a - a[::-1], compact]


def check_memo_apply(lat, k, f, eps, step, threads):
    got = lat(f, eps, threads)[0]
    fresh = op._Lattice(k, f, step)(f, eps, threads)[0]
    want = ref.apply_truncated(k, f, eps, step, threads)
    assert got.tobytes() == fresh.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", DECLARING)
@pytest.mark.parametrize("step", [1, 2, 3])
def test_the_latest_input_is_never_stale(name, step):
    # One _Lattice keeps the derived arrays of its latest input under the
    # bits of f: inputs that alternate, 0.0 against -0.0, an odd input
    # with no phases before a compact one, and an input changed in place
    # (hilbert keeps f's own values as g) give the bits of a fresh object
    # and of the reference path.
    k = get_kernel(name)
    n = 384
    vals = memo_inputs(n)
    lat = op._Lattice(k, GridFunction(B8, n, vals[0]), step)
    for threads in (1, 2):
        for v in vals:
            f = GridFunction(B8, n, v)
            for eps in LADDER[::5]:
                check_memo_apply(lat, k, f, eps, step, threads)
        f = GridFunction(B8, n, vals[0].copy())
        v = f.values
        for change in (lambda: v[40:47].fill(2.5),
                       lambda: np.copyto(v, -0.0, where=v == 0.0),
                       lambda: np.negative(v, out=v)):
            check_memo_apply(lat, k, f, LADDER[3], step, threads)
            change()
            check_memo_apply(lat, k, f, LADDER[3], step, threads)
            check_memo_apply(lat, k, f, LADDER[9], step, threads)


def warm_inputs(n):
    """A compact input, a gapped one (supp g has a gap at 0), a full one,
    an odd one (g = 0 for both reflections), zeros, and -0.0 around a
    compact input."""
    x = grid_nodes(B8, n)[:, 0]
    a = np.random.default_rng(n + 1).normal(size=n)
    return [((x >= -1.3) & (x <= 0.2)).astype(float),
            np.where((x >= 1.0) & (x <= 2.0), a, 0.0),
            np.exp(-((x - 0.5) / 1.2) ** 2),
            a - a[::-1],
            np.zeros(n),
            np.where(np.abs(x - 0.5) <= 1.0, a, -0.0)]


# eps up, down and repeated.
WALK = [LADDER[i] for i in (0, 4, 9, 9, 2, 15, 12, 12)]


@pytest.mark.parametrize("name", DECLARING)
@pytest.mark.parametrize("n, step", [(255, 1), (255, 3), (384, 1), (384, 2),
                                     (384, 3), (384, 4), (512, 1), (512, 2),
                                     (512, 4)])
@pytest.mark.parametrize("chunk", [16, 40])
def test_warm_ladders_keep_the_bits(monkeypatch, name, n, step, chunk):
    # One _Lattice per thread count walks eps over each input in turn,
    # and between two walks returns to the previous input for one eps:
    # every step gives the bits of a fresh object and of the reference.
    monkeypatch.setattr(op, "_TAP_CHUNK", chunk)
    k = get_kernel(name)
    fs = [GridFunction(B8, n, v) for v in warm_inputs(n)]
    plan = []
    for i, f in enumerate(fs):
        plan += [(f, e) for e in WALK] + [(fs[i - 1], WALK[i]), (f, WALK[i])]
    lats = {t: op._Lattice(k, fs[0], step) for t in (1, 2)}
    for f, e in plan:
        want = ref.apply_truncated(k, f, e, step)
        assert op._Lattice(k, f, step)(f, e, 1)[0].tobytes() == want.tobytes()
        for t, lat in lats.items():
            assert lat(f, e, t)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("name", DECLARING)
def test_a_returned_array_changed_by_its_caller_leaves_the_next_step(name):
    # The kept output is not the returned array: filling what a cold apply
    # or a step returned leaves the bits of every later step.
    k = get_kernel(name)
    n = 384
    f = GridFunction(B8, n, warm_inputs(n)[0])
    for e in LADDER:
        out = quiet_apply(k, f, e)
        assert out.values.tobytes() == ref.apply_truncated(k, f, e).tobytes()
        out.values.fill(7.0)


@pytest.mark.parametrize("name", DECLARING)
@pytest.mark.parametrize("step", [1, 2, 3])
@pytest.mark.parametrize("band", [None, 3 * 128])
def test_columns_match_the_reference(monkeypatch, name, step, band):
    # The weak type's column from a cold apply, from a ladder step, and
    # each read again after an apply at a third eps, gives the bits of the
    # reference column at its own eps.  A band block of 3 * 128 entries
    # gathers one cell at a time at 384 output cells, 3 at 128.
    if band is not None:
        monkeypatch.setattr(op, "_BAND_BLOCK", band)
    k = get_kernel(name)
    n = 384
    f = GridFunction(B8, n, warm_inputs(n)[0])
    rng = np.random.default_rng(step)
    reads = [(slice(0, n),), (slice(37, 101),), (slice(n - 5, n),)]
    blocks = [rng.normal(size=c.stop - c.start) for (c,) in reads]

    def check(column, eps):
        for cells, block in zip(reads, blocks):
            want = ref.column(k, f, eps, step, cells, block)
            assert column(cells, block).tobytes() == want.tobytes()

    lat = op._Lattice(k, f, step)
    cold = lat(f, LADDER[2], 1)[1]
    check(cold, LADDER[2])
    warm = lat(f, LADDER[9], 1)[1]
    assert lat.last is not None
    check(warm, LADDER[9])
    lat(f, LADDER[5], 1)
    check(cold, LADDER[2])
    check(warm, LADDER[9])


def test_taps_that_are_not_finite_keep_no_step():
    # k is infinite at the offset 1, where rho_1 > 0: once that tap is on,
    # it makes NaN on every row where it meets g = 0, which a step that
    # copied those rows would miss.  Every step gives a fresh object's bits.
    def fn(X, Y, r):
        d = X[:, 0] - Y[:, 0]
        return np.where(d == 1.0, np.inf, 1.0 / d)

    k = KernelSpec("spike", get_curve("diagonal"), fn, 1.0, 1.0,
                   reflections=frozenset({1}))
    n = 64
    f = GridFunction(B8, n, warm_inputs(n)[0])
    lat = op._Lattice(k, f, 1)
    assert not lat.local
    for e in (2.0, 0.5, 0.3, 2.0):
        fresh = op._Lattice(k, f, 1)(f, e, 1)[0]
        assert lat(f, e, 1)[0].tobytes() == fresh.tobytes()
    assert np.isnan(fresh).sum() == 0 and np.isnan(lat(f, 0.5, 1)[0]).any()


def test_nonzero_runs_are_found_once_per_input(monkeypatch):
    # g's nonzero runs are found once per input, and not at all for an odd
    # input, whose g is 0.  The band's off runs are found once per eps on
    # one summation: along the first 16-eps ladder, and on no later input's
    # ladder over the same eps.
    n = 384
    calls = []
    inner = op._runs
    monkeypatch.setattr(op, "_runs",
                        lambda m: calls.append(len(m)) or inner(m))
    k = get_kernel("two-line-hilbert")
    for step in (1, 2):
        for i, (v, per_input) in enumerate(zip(memo_inputs(n)[3:],
                                               (1, 0, 1))):
            calls.clear()
            _, rep = estimate_T0(k, GridFunction(B8, n, v), LADDER,
                                 (B8, n // step))
            assert len(rep.sup_diffs) == len(LADDER) - 1
            assert calls.count(n) == per_input
            assert calls.count(2 * n - step) == (i == 0) * len(LADDER)


def test_path_selection(monkeypatch):
    builds = []
    build = op._Dense.__init__
    monkeypatch.setattr(op._Dense, "__init__",
                        lambda self, *a: builds.append(len(a[1]))
                        or build(self, *a))
    f = GridFunction(B8, 96, inputs(96, 1)[2])
    k = get_kernel("hilbert")
    two = get_kernel("two-line-hilbert")
    for kernel in (k, two):
        for geom in (None, (B8, 48), (B8, 32), (box(-8.0, 8.0), 1)):
            quiet_apply(kernel, f, 0.5, geom)
    assert builds == []
    # Another output box, a cell count that does not divide the input's,
    # or a kernel without the declaration: dense matrices.
    quiet_apply(k, f, 0.5, (box(-4.0, 4.0), 48))
    quiet_apply(k, f, 0.5, (B8, 64))
    quiet_apply(k, f, 0.5, (B8, 192))
    quiet_apply(dense_twin(two), f, 0.5)
    assert builds == [48, 64, 192, 96]
    # The reflection -1 needs a box symmetric about 0; +1 alone does not.
    g = GridFunction(box(-4.0, 8.0), 96, f.values)
    quiet_apply(k, g, 0.5)
    assert builds == [48, 64, 192, 96]
    quiet_apply(two, g, 0.5)
    assert builds == [48, 64, 192, 96, 96]


def test_one_cached_summation_per_pair_of_grids(monkeypatch):
    # The first apply between two grids builds their summation; a second
    # apply, with another input and eps, evaluates no rho and no kernel.
    evals = []
    inner = op._rho_and_kernel
    monkeypatch.setattr(op, "_rho_and_kernel",
                        lambda *a: evals.append(1) or inner(*a))
    k = get_kernel("hilbert")
    n = 96
    f, g = (GridFunction(B8, n, v) for v in inputs(n, 5)[:2])
    for out_n in (n // 2, n + 3):
        quiet_apply(k, f, 0.5, (B8, out_n))
        built = len(evals)
        assert built > 0
        quiet_apply(k, g, 0.3, (B8, out_n))
        assert len(evals) == built
        evals.clear()
    assert {key: type(v) for key, v in k._matrices.items()} == {
        ((B8.lo, B8.hi, n // 2), (B8.lo, B8.hi, n)): op._Lattice,
        ((B8.lo, B8.hi, n + 3), (B8.lo, B8.hi, n)): op._Dense}


@pytest.mark.parametrize("out_n", [0, -2])
def test_empty_output_grid_rejected(out_n):
    f = GridFunction(B8, 16, np.ones(16))
    with pytest.raises(RejectedInputError):
        quiet_apply(get_kernel("hilbert"), f, 0.5, (B8, out_n))


def memo_bytes(entry):
    """The bytes of the eps memo's arrays (a lattice summation's taps and
    residue phases) and of the rho-ordered copies (a dense one's)."""
    arrays = [a for ot, phases, _ in getattr(entry, "memo", {}).values()
              for a in (ot, *phases.values())]
    return sum(a.nbytes for a in arrays + [getattr(entry, "ranked", None)]
               if a is not None)


def test_large_grid_keeps_the_cache_small():
    # At 2^14 cells 3 doubles per lattice offset exceed the memo's budget:
    # it keeps no eps, and the cache holds rho_1 and k alone.
    n = 1 << 14
    f = GridFunction(B8, n, inputs(n, 2)[1])
    for name in DECLARING:
        k = get_kernel(name)
        _, rep = estimate_T0(k, f, LADDER)
        assert len(rep.sup_diffs) == 15
        held = sum(entry.R.nbytes + entry.k.nbytes + memo_bytes(entry)
                   for entry in k._matrices.values())
        assert 0 < held < 1 << 20
        assert all(entry.memo == {} for entry in k._matrices.values())


@pytest.mark.parametrize("name", DECLARING)
@pytest.mark.parametrize("step", [1, 2])
def test_the_eps_memo_stays_at_its_bound(name, step):
    # 30 distinct eps at 512 cells, more than the 21 that _EPS_MEMO doubles
    # allow at 3 doubles per offset: the memo keeps the latest 21, with
    # every phase of both inputs built, in at most 8 _EPS_MEMO bytes.
    n = 512
    k = get_kernel(name)
    ladder = [float(e) for e in 1.9 * 0.9 ** np.arange(30)]
    for v in inputs(n, 4)[:2]:
        estimate_T0(k, GridFunction(B8, n, v), ladder, (B8, n // step))
    (lat,) = k._matrices.values()
    room = op._EPS_MEMO // (3 * (2 * n - step))
    assert room == 21
    assert list(lat.memo) == ladder[-room:]
    assert all(len(phases) == step for _, phases, _ in lat.memo.values())
    assert memo_bytes(lat) <= 8 * op._EPS_MEMO


def alternating_inputs(n):
    """An input nonzero on every other cell only, so that one residue phase
    of the reversed g is all 0 at step 2 for hilbert, then three inputs
    that read every phase."""
    bump = inputs(n, 9)[2]
    return [np.where(np.arange(n) % 2 == 0, bump, 0.0), *inputs(n, 9)[:3]]


@pytest.mark.parametrize("name", DECLARING)
@pytest.mark.parametrize("step", [1, 2])
def test_interleaved_inputs_match_a_fresh_summation(name, step):
    # Four inputs share one eps ladder on one cached summation: each walks
    # the whole ladder in turn, then they take turns at every eps, so the
    # later applies read taps, phases and off runs from the memo.  Each
    # output is filled with 7.0 once compared, and every apply gives the
    # bits of a fresh summation.  Then 30 more eps push the ladder's first
    # eps out of the memo, and revisiting it gives the same bits again.
    n = 512
    k = get_kernel(name)
    fs = [GridFunction(B8, n, v) for v in alternating_inputs(n)]
    geom = (B8, n // step)

    def check(f, eps):
        got = quiet_apply(k, f, eps, geom)
        fresh = quiet_apply(get_kernel(name), f, eps, geom)
        assert got.values.tobytes() == fresh.values.tobytes()
        got.values.fill(7.0)

    for f in fs:
        for eps in LADDER:
            check(f, eps)
    for eps in LADDER[::-1]:
        for f in fs:
            check(f, eps)
    (lat,) = k._matrices.values()
    assert LADDER[0] in lat.memo
    for eps in 0.9 * 0.95 ** np.arange(30):
        check(fs[1], float(eps))
    assert LADDER[0] not in lat.memo
    for f in fs:
        check(f, LADDER[0])


# (kernel, n): 2^14 hilbert and 2^13 two-line-hilbert outputs at step 1
# split into four and two row chunks.
THREAD_CASES = [("hilbert", 1 << 14), ("two-line-hilbert", 1 << 13)]


@pytest.mark.parametrize("step", [1, 2])
def test_bits_do_not_depend_on_threads(step):
    for name, n in THREAD_CASES:
        k = get_kernel(name)
        f = GridFunction(B8, n, inputs(n, 4)[0])
        one, two = (apply_truncated(k, f, 0.3, (B8, n // step), threads=t)
                    for t in (1, 2))
        assert one.values.tobytes() == two.values.tobytes()


_DETERMINISM_PROBE = """
import hashlib, warnings
import numpy as np
from czo.geometry import box
from czo.kernels import get_kernel
from czo.operator import GridFunction, apply_truncated
for name, n in (("hilbert", 1 << 15), ("two-line-hilbert", 1 << 13),
                ("diamond-model", 512)):
    f = GridFunction(box(-8.0, 8.0), n,
                     np.random.default_rng(3).normal(size=n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = apply_truncated(get_kernel(name), f, 0.01)
    print(hashlib.sha256(out.values.tobytes()).hexdigest())
# The weak type's columns multiply by the masked kernel with @, a BLAS gemv.
from czo.cli import DEFAULTS, builtin_function
from czo.decomposition import weak_type_experiment
for name, family in (("two-line-hilbert", DEFAULTS["family"]),
                     ("diamond-model", "indicator:2,3;bump:4,0.5")):
    fs = [builtin_function(s, box(-8.0, 8.0), 512) for s in family.split(";")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = weak_type_experiment(get_kernel(name), fs, 0.1, 8.1,
                                   out_cells=256)
    bad = np.array([r.bad_integral for r in rep.rows])
    assert np.count_nonzero(bad) > 0
    print(hashlib.sha256(bad.tobytes()).hexdigest())
"""


def test_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(czo.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _DETERMINISM_PROBE],
                             env=env, capture_output=True, text=True,
                             check=True)
        digests.append(run.stdout.split())
    assert len(digests[0]) == 5
    assert all(len(d) == len(hashlib.sha256().hexdigest())
               for d in digests[0])
    assert digests[0] == digests[1]


@pytest.mark.parametrize("out_cells", [512, 256, 128])
def test_one_reflection_weak_type_matches_the_dense_twin(out_cells):
    # hilbert's columns are single-reflection views of the taps; the CLI's
    # default family reads at least one of them off B*.
    from czo.cli import DEFAULTS, builtin_function
    k = get_kernel("hilbert")
    family = [builtin_function(s, B8, 512)
              for s in DEFAULTS["family"].split(";")]
    got, want = (weak_type_experiment(kernel, family, 0.1, 8.1,
                                      out_cells=out_cells)
                 for kernel in (k, dense_twin(k)))
    assert any(r.bad_integral > 0.0 for r in got.rows)
    for a, b in zip(got.rows, want.rows, strict=True):
        assert (dataclasses.replace(a, bad_integral=0.0)
                == dataclasses.replace(b, bad_integral=0.0))
        assert abs(a.bad_integral - b.bad_integral) <= 1e-15 * b.bad_integral


@pytest.mark.parametrize("block", [op._BAND_BLOCK, 3 * 256])
def test_weak_type_matches_the_dense_twin(monkeypatch, block):
    # On a wide box the enlarged cubes leave cells outside B*; a block of
    # 3 * 256 entries gathers each cube three columns at a time.
    monkeypatch.setattr(op, "_BAND_BLOCK", block)
    k = get_kernel("two-line-hilbert")
    wide = box(-32.0, 32.0)
    family = [GridFunction(wide, 512, v) for v in inputs(512, 8, wide)]
    got, want = (weak_type_experiment(kernel, family, 0.1, 8.1,
                                      out_cells=256, ladder_max=6)
                 for kernel in (k, dense_twin(k)))
    assert any(r.bad_integral > 0.0 for r in got.rows)
    for a, b in zip(got.rows, want.rows):
        assert (a.lam, a.cube_count, a.b_star_measure) == (
            b.lam, b.cube_count, b.b_star_measure)
        assert a.superlevel_measure == b.superlevel_measure
        assert abs(a.bad_integral - b.bad_integral) <= 1e-12 * b.bad_integral
