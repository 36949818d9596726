import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import decomposition_reference as ref
from czo.curves import get_curve
from czo.decomposition import (WeakTypeRow, _row_sums, cz_decompose,
                               lp_norm, weak_l1_quasinorm,
                               weak_type_experiment)
from czo.errors import RejectedInputError
from czo.geometry import box
from czo.kernels import get_kernel
from czo.metric import check_qtheta, enlarged_cube, rho_values
from czo.operator import (GridFunction, apply_truncated, apply_truncated_at,
                          estimate_T0, grid_function, grid_nodes,
                          multiplier_bound_check, multiplier_field)

B8 = box(-8.0, 8.0)


def dyadic_random(rng, n, scale=2 ** 20):
    """Random values that are exact dyadic rationals in float64."""
    return rng.integers(-scale, scale, size=n) / float(scale)


class TestCzDecompose:
    def test_worked_example(self):
        nodes = grid_nodes(B8, 256)[:, 0]
        f = GridFunction(B8, 256, ((nodes >= 0) & (nodes < 1)).astype(float))
        dec = cz_decompose(f, 0.3, box(-2.0, 2.0))
        assert len(dec.cubes) == 1
        c = dec.cubes[0]
        assert (c.box.lo[0], c.box.hi[0]) == (0.0, 2.0)
        assert c.average == 0.5
        assert 0.3 <= c.abs_average <= 0.6
        assert dec.bad[0].integral() == 0.0
        # g is the cube average on the cube and f elsewhere.
        on_cube = (nodes >= 0) & (nodes < 2)
        assert np.all(dec.good.values[on_cube] == 0.5)
        assert np.array_equal(dec.good.values[~on_cube], f.values[~on_cube])

    def test_zero_function(self):
        f = GridFunction(B8, 64, np.zeros(64))
        dec = cz_decompose(f, 1.0)
        assert dec.cubes == [] and dec.bad == []
        assert np.all(dec.good.values == 0.0)

    def test_bounded_function_never_selects(self):
        rng = np.random.default_rng(0)
        f = GridFunction(B8, 64, rng.uniform(-0.5, 0.5, size=64))
        dec = cz_decompose(f, 0.5)
        assert dec.cubes == []
        assert np.array_equal(dec.good.values, f.values)

    def test_rejects_large_root_average(self):
        f = GridFunction(B8, 64, np.ones(64))
        with pytest.raises(RejectedInputError):
            cz_decompose(f, 0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0,
                                     -1.0])
    def test_rejects_lambda_not_finite_positive(self, lam):
        f = GridFunction(B8, 64, np.zeros(64))
        with pytest.raises(RejectedInputError, match="lambda"):
            cz_decompose(f, lam)

    def test_rejects_misaligned_root(self):
        f = GridFunction(B8, 64, np.zeros(64))
        with pytest.raises(RejectedInputError):
            cz_decompose(f, 1.0, box(-0.1, 1.9))
        with pytest.raises(RejectedInputError):
            cz_decompose(f, 1.0, box(-1.5, 0.0))  # 6 cells: not a power of 2

    @pytest.mark.parametrize("dim, root, match", [
        (1, box(6.0, 10.0), "not aligned"),        # cells 56..72 of 64
        (1, box(-10.0, -6.0), "not aligned"),      # cells -8..8
        (2, box((0.0, 0.0), (2.0, 1.0)), "a cube in grid cells"),
    ], ids=["past-the-top", "past-the-bottom", "not-a-cube"])
    def test_rejects_aligned_root_off_the_grid_or_not_a_cube(self, dim, root,
                                                             match):
        # Aligned with the cells (h = 0.25 in 1-D, h = 1 in 2-D), yet the
        # root leaves the grid or spans 2 x 1 cells.
        n = 64 if dim == 1 else 16
        bx = B8 if dim == 1 else box((-8.0, -8.0), (8.0, 8.0))
        f = GridFunction(bx, n, np.zeros(n ** dim))
        with pytest.raises(RejectedInputError, match=match):
            cz_decompose(f, 1.0, root)

    def test_rejects_root_of_other_dimension(self):
        f = GridFunction(B8, 64, np.zeros(64))
        with pytest.raises(RejectedInputError, match="root"):
            cz_decompose(f, 1.0, box((-8.0, -8.0), (8.0, 8.0)))

    def test_invariants_exact_on_random_dyadic_data(self):
        rng = np.random.default_rng(42)
        nodes = grid_nodes(B8, 256)[:, 0]
        for _ in range(25):
            f = GridFunction(B8, 256, dyadic_random(rng, 256))
            avg = float(np.mean(np.abs(f.values)))
            lam = avg * float(rng.uniform(1.0, 4.0))
            dec = cz_decompose(f, lam)
            # disjoint cubes
            for a in range(len(dec.cubes)):
                for b in range(a + 1, len(dec.cubes)):
                    common = dec.cubes[a].box.intersection(dec.cubes[b].box)
                    assert common is None or common.measure() == 0.0
            off = np.ones(256, dtype=bool)
            for c in dec.cubes:
                assert lam <= c.abs_average <= 2.0 * lam
                off &= ~((nodes >= c.box.lo[0]) & (nodes < c.box.hi[0]))
            assert np.all(np.abs(f.values[off]) <= lam)
            recon = dec.good.values.copy()
            for b in dec.bad:
                assert np.sum(b.values) == 0.0          # exact mean zero
                recon = recon + b.values
            assert np.array_equal(recon, f.values)      # exact f = g + sum b
            assert dec.total_cube_measure <= lp_norm(f, 1.0) / lam + 1e-12


def recursive_cz(f, lam, root):
    """Reference: the cube-by-cube stopping time, then f split on its cubes."""
    n, N, h = f.dim, f.cells_per_axis, f.h
    grid = f.values.reshape((N,) * n)
    start = np.rint((root.lo_a - f.box.lo_a) / h).astype(int)
    selected = []

    def recurse(s, size):
        half = size // 2
        for bits in range(2 ** n if size > 1 else 0):
            cs = s + np.array([(bits >> k) & 1 for k in range(n)]) * half
            csl = tuple(slice(a, a + half) for a in cs)
            if float(np.mean(np.abs(grid[csl]))) > lam:
                selected.append((half, tuple(int(a) for a in cs)))
            else:
                recurse(cs, half)

    recurse(start, int(round(root.side() / h)))
    good, cubes, bad = grid.copy(), [], []
    for size, cs in sorted(selected):
        csl = tuple(slice(a, a + size) for a in cs)
        sub = grid[csl]
        avg = float(np.mean(sub))
        cubes.append((tuple(f.box.lo[k] + cs[k] * h for k in range(n)),
                      tuple(f.box.lo[k] + (cs[k] + size) * h
                            for k in range(n)),
                      avg, float(np.mean(np.abs(sub)))))
        b = np.zeros_like(grid)
        b[csl] = sub - avg
        bad.append(b.reshape(-1))
        good[csl] = avg
    return cubes, good.reshape(-1), bad


def assert_matches_recursion(f, lam, root=None):
    root = f.box if root is None else root
    dec = cz_decompose(f, lam, root)
    cubes, good, bad = recursive_cz(f, lam, root)
    assert [(c.box.lo, c.box.hi, c.average, c.abs_average)
            for c in dec.cubes] == cubes
    assert dec.good.values.tobytes() == good.tobytes()
    assert [b.values.tobytes() for b in dec.bad] == [b.tobytes() for b in bad]
    return dec


def attained_block_average(rng, grid, start, m, floor):
    """|f|-average of a random dyadic block of the root that is >= floor."""
    n = grid.ndim
    while True:
        size = m >> int(rng.integers(1, int(math.log2(m)) + 1))
        cs = start + rng.integers(0, m // size, size=n) * size
        avg = float(np.mean(np.abs(grid[tuple(slice(a, a + size)
                                              for a in cs)])))
        if avg >= floor:
            return avg


class TestLevelPassMatchesRecursion:
    @pytest.mark.parametrize("dim,cells", [(1, 4096), (2, 64), (3, 16)])
    def test_random_data_tie_at_attained_average(self, dim, cells):
        rng = np.random.default_rng(dim)
        bx = box((-8.0,) * dim, (8.0,) * dim)
        for _ in range(10):
            vals = rng.lognormal(0.0, 1.5, size=cells ** dim)
            vals *= rng.choice([-1.0, 1.0], size=vals.size)
            f = GridFunction(bx, cells, vals)
            grid = vals.reshape((cells,) * dim)
            root_avg = float(np.mean(np.abs(vals)))
            lam = attained_block_average(rng, grid, np.zeros(dim, int),
                                         cells, root_avg)
            dec = assert_matches_recursion(f, lam)
            # The tie: a block averaging exactly lam is never selected.
            assert all(c.abs_average > lam for c in dec.cubes)

    @pytest.mark.parametrize("dim,cells,lo", [(1, 256, (-6.0,)),
                                              (2, 64, (-6.0, 2.0)),
                                              (3, 32, (-4.0, 0.0, 1.0))])
    def test_offset_sub_cube_root(self, dim, cells, lo):
        rng = np.random.default_rng(7 + dim)
        f = GridFunction(box((-8.0,) * dim, (8.0,) * dim), cells,
                         rng.standard_normal(cells ** dim) ** 3)
        root = box(lo, tuple(a + 4.0 for a in lo))
        start = np.rint((root.lo_a + 8.0) / f.h).astype(int)
        m = int(round(4.0 / f.h))
        grid = f.values.reshape((cells,) * dim)
        sl = tuple(slice(a, a + m) for a in start)
        lam = attained_block_average(rng, grid, start, m,
                                     float(np.mean(np.abs(grid[sl]))))
        dec = assert_matches_recursion(f, lam, root)
        assert dec.cubes
        for c in dec.cubes:
            assert np.all(c.box.lo_a >= root.lo_a)
            assert np.all(c.box.hi_a <= root.hi_a)

    def test_spikes_select_24_cubes_of_side_16(self):
        # One spike of mass 512 cells per chosen 32x32 block: its 16x16
        # cube averages > 2 > lam = 1, the 32x32 block < 0.51.
        rng = np.random.default_rng(24)
        vals = rng.uniform(0.0, 0.01, size=(256, 256))
        for b in rng.choice(64, size=24, replace=False):
            r, c = divmod(int(b), 8)
            vals[32 * r + rng.integers(32), 32 * c + rng.integers(32)] = 512.0
        f = GridFunction(box((0.0, 0.0), (16.0, 16.0)), 256, vals.reshape(-1))
        dec = assert_matches_recursion(f, 1.0)
        assert len(dec.cubes) == 24
        assert all(c.box.side() == 16 * f.h for c in dec.cubes)


def dyadic_steps(rng, cells=4096, pieces=49):
    """Piecewise-constant dyadic data, about 60% of its pieces zero."""
    cuts = np.sort(rng.choice(np.arange(1, cells), pieces - 1, replace=False))
    steps = rng.integers(-2 ** 21, 2 ** 21, size=pieces) / 2.0 ** 20
    steps[rng.random(pieces) < 0.6] = 0.0
    return np.repeat(steps, np.diff(np.concatenate([[0], cuts, [cells]])))


def signed_lognormal(rng, size, sigma=2.0):
    return rng.lognormal(0.0, sigma, size=size) * rng.choice([-1.0, 1.0],
                                                              size=size)


def assert_f_untouched(f, before, dec):
    """f keeps its bytes, and no output of dec aliases f's values."""
    assert f.values.tobytes() == before
    assert not np.shares_memory(dec.good.values, f.values)
    assert not any(np.shares_memory(block, f.values)
                   for _, block in dec.blocks)


class TestBatchedLevels:
    """Many cubes over many levels, and roots off the grid's corner."""

    @pytest.mark.parametrize("data,seed,u", [
        ("steps", 0, 1.25), ("steps", 1, 1.75), ("steps", 3, 1.5),
        ("steps", 4, 1.5), ("steps", 5, 1.25), ("lognormal", 0, 4.5),
        ("lognormal", 1, 5.0), ("lognormal", 3, 4.0), ("lognormal", 5, 4.5)])
    def test_1d_many_cubes_deep(self, data, seed, u):
        rng = np.random.default_rng(seed)
        vals = (dyadic_steps(rng) if data == "steps"
                else signed_lognormal(rng, 4096))
        f = GridFunction(B8, 4096, vals)
        before = f.values.tobytes()
        lam = float(np.mean(np.abs(vals))) * 2.0 ** u
        dec = assert_matches_recursion(f, lam)
        assert 10 <= len(dec.cubes) <= 40
        # The pass went at least 8 levels down (side 4096 / 2^8 = 16 cells).
        assert min(c.box.side() for c in dec.cubes) <= 16 * f.h
        assert_f_untouched(f, before, dec)

    @pytest.mark.parametrize("dim,cells,lo", [(2, 128, (-6.0, -2.0)),
                                              (3, 32, (-4.0, 0.0, -8.0))])
    def test_offset_root_many_cubes(self, dim, cells, lo):
        rng = np.random.default_rng(11 + dim)
        f = GridFunction(box((-8.0,) * dim, (8.0,) * dim), cells,
                         signed_lognormal(rng, cells ** dim))
        before = f.values.tobytes()
        root = box(lo, tuple(a + 8.0 for a in lo))
        m = int(round(8.0 / f.h))
        start = np.rint((root.lo_a + 8.0) / f.h).astype(int)
        grid = f.values.reshape((cells,) * dim)
        root_avg = float(np.mean(np.abs(grid[tuple(slice(a, a + m)
                                                   for a in start)])))
        dec = assert_matches_recursion(f, 4.0 * root_avg, root)
        assert len(dec.cubes) >= 10
        assert len({c.box.side() for c in dec.cubes}) >= 2
        for c in dec.cubes:
            assert np.all(c.box.lo_a >= root.lo_a)
            assert np.all(c.box.hi_a <= root.hi_a)
        assert_f_untouched(f, before, dec)

    @pytest.mark.parametrize("dim,cells", [(2, 512), (3, 64)])
    def test_large_multi_axis_cubes_average_as_their_view(self, dim, cells):
        # np.mean sums a strided view of more than two reduction buffers
        # buffer by buffer, which a contiguous pairwise sum of the same
        # cells does not reproduce; too large for the recursion reference.
        rng = np.random.default_rng(dim)
        half = cells // 2
        grid = rng.uniform(-0.01, 0.01, size=(cells,) * dim)
        heavy = rng.choice(2 ** dim, size=2 ** dim // 2, replace=False)
        for q in heavy:
            corner = tuple(((int(q) >> k) & 1) * half for k in range(dim))
            sl = tuple(slice(a, a + half) for a in corner)
            grid[sl] = 1.5 * signed_lognormal(rng, half ** dim, sigma=0.5
                                              ).reshape((half,) * dim)
        f = GridFunction(box((0.0,) * dim, (float(cells),) * dim), cells,
                         grid.reshape(-1))
        before = f.values.tobytes()
        dec = cz_decompose(f, 1.0)
        assert len(dec.cubes) == len(heavy)
        good = dec.good.values.reshape(grid.shape)
        for c, (cells_sl, block) in zip(dec.cubes, dec.blocks):
            assert c.box.side() == half
            sub = grid[cells_sl]
            assert c.average == float(np.mean(sub))
            assert c.abs_average == float(np.mean(np.abs(sub)))
            assert np.all(good[cells_sl] == c.average)
            assert block.tobytes() == (sub - c.average).tobytes()
        assert_f_untouched(f, before, dec)


class TestShortRows:
    """The level pass sums rows of at most 8 cells column by column, in
    the order numpy's row reduce uses; these pin that order."""

    @pytest.mark.parametrize("width", range(1, 17))
    def test_row_sums_equal_numpy_row_reduce(self, width):
        rng = np.random.default_rng(width)
        for count in (1, 2, 3, 7, 8, 9, 64, 255, 1000, 2048):
            # Magnitudes from 1e-300 to 1e300, close within a row, so that
            # the order of the additions shows in the rounding.
            scale = 10.0 ** rng.uniform(-300.0, 300.0, size=(count, 1))
            rows = rng.uniform(1.0, 1000.0, size=(count, width)) * scale
            pick = rng.random((count, width))
            rows[pick < 0.15] = 0.0
            tiny = pick > 0.85
            rows[tiny] = rng.integers(1, 2 ** 52, size=tiny.sum()) * 5e-324
            want = np.add.reduce(rows, -1)
            assert _row_sums(rows).tobytes() == want.tobytes()

    def test_1d_cubes_at_eight_sizes(self):
        # In eighth k of the grid, one aligned block of 2^k cells with |f|
        # in [1.2, 1.8] amid noise below 0.05: its parent averages below
        # lam = 1, so each block is selected at its own side, and the pass
        # sums rows of every width from 1 to 128 cells.
        rng = np.random.default_rng(8)
        vals = rng.uniform(0.0, 0.05, size=4096)
        for k in range(8):
            size = 2 ** k
            at = 512 * k + size * int(rng.integers(512 // size))
            vals[at:at + size] = rng.uniform(1.2, 1.8, size=size)
        vals *= rng.choice([-1.0, 1.0], size=4096)
        f = GridFunction(B8, 4096, vals)
        dec = assert_matches_recursion(f, 1.0)
        assert sorted({round(c.box.side() / f.h) for c in dec.cubes}) == [
            2 ** k for k in range(8)]


# Plateau heights as multiples of lambda: at lambda, about an ulp either
# side, and 2^-40 either side (the margin of the early stop).
PLATEAU_FACTORS = (0.0, 1.0, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -53,
                   1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52,
                   1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40)


class TestEarlyStopNearLambda:
    def test_mean_rounding_above_lambda_selects(self):
        # No cell exceeds lambda = 0.1, yet np.mean of the 128 cells of 0.1
        # rounds to 0.10000000000000002 > lambda: a strict |f| > lambda
        # prune would stop before this cube.
        vals = np.zeros(4096)
        vals[1024:1152] = 0.1
        f = GridFunction(B8, 4096, vals)
        dec = assert_matches_recursion(f, 0.1)
        assert len(dec.cubes) == 1
        assert dec.cubes[0].box.side() == 128 * f.h
        assert dec.cubes[0].abs_average == 0.10000000000000002

    @given(dim=st.sampled_from([1, 2]),
           lam=st.sampled_from([0.1, 0.7, 1.0 / 3.0, 1.0, 7.3e-5, 2.0 ** 30]),
           plateaus=st.lists(st.tuples(st.integers(1, 128),
                                       st.sampled_from(PLATEAU_FACTORS),
                                       st.sampled_from([-1.0, 1.0])),
                             min_size=1, max_size=12),
           zero_quarter=st.integers(0, 3))
    # 128 cells of 0.1 (1 - 2^-53) < 0.1 average 0.10000000000000002.
    @example(dim=1, lam=0.1, plateaus=[(128, 1.0 - 2.0 ** -53, -1.0)],
             zero_quarter=3)
    @settings(max_examples=150, deadline=None)
    def test_plateaus_at_lambda_match_recursion(self, dim, lam, plateaus,
                                                zero_quarter):
        cells = 256 if dim == 1 else 16
        vals = np.concatenate([np.full(width, sign * factor * lam)
                               for width, factor, sign in plateaus])
        vals = np.resize(vals, cells ** dim)
        # A zero quarter keeps the root average below lambda.
        q = vals.size // 4
        vals[zero_quarter * q:(zero_quarter + 1) * q] = 0.0
        f = GridFunction(box((-8.0,) * dim, (8.0,) * dim), cells, vals)
        assert_matches_recursion(f, lam)


class TestCubeLocalBlocks:
    def test_blocks_hold_only_cube_cells(self):
        rng = np.random.default_rng(3)
        vals = rng.lognormal(0.0, 1.5, size=64 * 64)
        vals *= rng.choice([-1.0, 1.0], size=vals.size)
        f = GridFunction(box((0.0, 0.0), (4.0, 4.0)), 64, vals)
        lam = 4.0 * float(np.mean(np.abs(vals)))
        dec = cz_decompose(f, lam)
        assert "bad" not in dec.__dict__
        assert len(dec.blocks) == len(dec.cubes) > 100
        cells = sum(round(c.box.side() / f.h) ** 2 for c in dec.cubes)
        assert sum(b.nbytes for _, b in dec.blocks) == 8 * cells
        # The dense parts, built on first read, are the blocks scattered.
        bad = assert_matches_recursion(f, lam).bad
        for (sl, block), b in zip(dec.blocks, bad):
            dense = b.values.reshape(64, 64)
            assert np.array_equal(dense[sl], block)
            assert np.count_nonzero(dense) == np.count_nonzero(block)

    def test_weak_type_never_builds_dense_bad(self, monkeypatch):
        import czo.decomposition as decomposition

        seen = []

        def recording(*args, **kwargs):
            seen.append(cz_decompose(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(decomposition, "cz_decompose", recording)
        nodes = grid_nodes(B8, 128)[:, 0]
        f = GridFunction(B8, 128, np.exp(-nodes ** 2))
        weak_type_experiment(get_kernel("two-line-hilbert"), [f], 0.1, 8.1,
                             out_cells=64, ladder_max=6)
        assert any(dec.blocks for dec in seen)
        assert all("bad" not in dec.__dict__ for dec in seen)


def result_bits(dec):
    """Every field of a decomposition, each float by its bits."""
    def bits(xs):
        return tuple((type(x).__name__, float(x).hex()) for x in xs)

    return (bits([dec.lam]), dec.root, bits(dec.root.lo), bits(dec.root.hi),
            [(bits(c.box.lo), bits(c.box.hi), bits([c.average]),
              bits([c.abs_average])) for c in dec.cubes],
            dec.good.box, dec.good.cells_per_axis, dec.good.values.dtype,
            dec.good.values.tobytes(),
            [(repr(cells), block.shape, block.dtype, block.tobytes())
             for cells, block in dec.blocks])


def assert_matches_reference(f, lam, root=None):
    """cz_decompose and the weak L1 of its good part equal the previous
    path's bit for bit; the result is returned."""
    dec = cz_decompose(f, lam, root)
    want = ref.cz_decompose(f, lam, root)
    assert result_bits(dec) == result_bits(want)
    got_wl, want_wl = weak_l1_quasinorm(dec.good), ref.weak_l1_quasinorm(
        want.good)
    assert type(got_wl) is float and got_wl.hex() == want_wl.hex()
    return dec


def quantized_bumps(rng, cells=4096):
    """A sum of 3-6 Gaussians rounded to multiples of 2^-20."""
    x = grid_nodes(B8, cells)[:, 0]
    m = int(rng.integers(3, 7))
    c, w = rng.uniform(-6, 6, m), rng.uniform(0.05, 1.0, m)
    amp = rng.uniform(-3, 3, m)
    vals = np.sum(amp[:, None] * np.exp(
        -((x[None, :] - c[:, None]) / w[:, None]) ** 2), axis=0)
    return np.round(vals * 2.0 ** 20) / 2.0 ** 20


class TestMatchesPreviousPath:
    """The fast path against the path it replaced
    (``decomposition_reference``), every field bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("data", ["steps", "bumps"])
    def test_1d_heights_two_to_the_u(self, data, seed):
        rng = np.random.default_rng([seed, 35])
        vals = dyadic_steps(rng) if data == "steps" else quantized_bumps(rng)
        f = GridFunction(B8, 4096, vals)
        mean = max(float(np.mean(np.abs(vals))), 2.0 ** -20)
        counts = [len(assert_matches_reference(f, mean * 2.0 ** u).cubes)
                  for u in np.linspace(0.0, 5.0, 21)]
        assert max(counts) >= 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2d_spikes(self, seed):
        # A smooth background plus 24 spikes, one in each of 24 of the 64
        # blocks of 32 x 32 cells.
        rng = np.random.default_rng([seed, 24])
        x = grid_nodes(box((-8.0, -8.0), (8.0, 8.0)), 256)
        c, w = rng.uniform(-6, 6, 2), rng.uniform(2.0, 6.0)
        vals = 2.0 * np.exp(-np.sum((x - c) ** 2, axis=1) / w ** 2)
        vals = (np.round(vals * 2.0 ** 20) / 2.0 ** 20).reshape(256, 256)
        for block in rng.choice(64, 24, replace=False):
            i, j = divmod(int(block), 8)
            vals[32 * i + rng.integers(32), 32 * j + rng.integers(32)] = 4096.0
        f = GridFunction(box((-8.0, -8.0), (8.0, 8.0)), 256, vals.reshape(-1))
        dec = assert_matches_reference(f, float(rng.uniform(7.0, 15.0)))
        assert len(dec.cubes) == 24

    def test_3d(self):
        rng = np.random.default_rng(3)
        f = GridFunction(box((-8.0,) * 3, (8.0,) * 3), 32,
                         signed_lognormal(rng, 32 ** 3))
        mean = float(np.mean(np.abs(f.values)))
        for u in (0.5, 2.0, 4.0):
            assert_matches_reference(f, mean * 2.0 ** u)

    @pytest.mark.parametrize("dim,cells,lo", [(1, 1024, (-6.0,)),
                                              (2, 128, (-6.0, -2.0)),
                                              (3, 32, (-4.0, 0.0, -8.0))])
    def test_offset_sub_cube_roots(self, dim, cells, lo):
        rng = np.random.default_rng(dim)
        f = GridFunction(box((-8.0,) * dim, (8.0,) * dim), cells,
                         signed_lognormal(rng, cells ** dim))
        root = box(lo, tuple(a + 8.0 for a in lo))
        m = int(round(8.0 / f.h))
        start = np.rint((root.lo_a + 8.0) / f.h).astype(int)
        grid = f.values.reshape((cells,) * dim)
        mean = float(np.mean(np.abs(grid[tuple(slice(a, a + m)
                                               for a in start)])))
        for u in (0.0, 1.0, 2.0, 4.0):
            assert_matches_reference(f, mean * 2.0 ** u, root)

    def test_16384_distinct_values(self):
        rng = np.random.default_rng(16384)
        vals = (rng.permutation(16384) + 1.0) / 16384
        f = GridFunction(B8, 16384, vals)
        for lam in (float(np.mean(vals)), 0.75, 1.5):
            assert_matches_reference(f, lam)

    @pytest.mark.parametrize("dim,cells", [(2, 512), (3, 64)])
    def test_multi_axis_cubes_above_the_buffer(self, dim, cells):
        rng = np.random.default_rng(dim)
        half = cells // 2
        assert half ** dim > np.getbufsize()
        grid = rng.uniform(-0.01, 0.01, size=(cells,) * dim)
        grid[(slice(0, half),) * dim] = 1.5 * signed_lognormal(
            rng, half ** dim, sigma=0.5).reshape((half,) * dim)
        f = GridFunction(box((0.0,) * dim, (float(cells),) * dim), cells,
                         grid.reshape(-1))
        assert len(assert_matches_reference(f, 1.0).cubes) == 1

    def test_the_same_rejections(self):
        # 128 cells of 0.1 average 0.10000000000000002 by np.mean.
        ones, tenths = (GridFunction(B8, 128, np.full(128, v))
                        for v in (1.0, 0.1))
        for f, lam, root in ((ones, 0.5, None), (tenths, 0.1, None),
                             (ones, 2.0, box(-7.9, 0.1)),
                             (ones, 2.0, box(-8.0, -2.0)),
                             (ones, math.inf, None)):
            with pytest.raises(RejectedInputError) as got:
                cz_decompose(f, lam, root)
            with pytest.raises(RejectedInputError) as want:
                ref.cz_decompose(f, lam, root)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("dim,cells", [(1, 64), (2, 8)])
    @pytest.mark.parametrize("case", ["zero", "single", "tiny", "overflow",
                                      "ties"])
    def test_weak_l1_edge_inputs(self, dim, cells, case):
        rng = np.random.default_rng(cells)
        size = cells ** dim
        vals = {"zero": np.zeros(size), "single": np.full(size, -0.375),
                "tiny": np.where(rng.random(size) < 0.5, 1e-300, 0.0),
                "overflow": rng.choice([0.0, 1e308, -1.5e308, 3.0], size),
                "ties": rng.choice([0.0, -0.0, 0.1, -0.1, 2.0], size)}[case]
        for side in (1.0, 64.0, 1e150):
            g = GridFunction(box((0.0,) * dim, (side,) * dim), cells, vals)
            with np.errstate(over="ignore"):     # "overflow" reaches inf
                got, want = weak_l1_quasinorm(g), ref.weak_l1_quasinorm(g)
            assert type(got) is float and got.hex() == want.hex()

    def test_weak_l1_on_tie_heavy_arrays(self):
        rng = np.random.default_rng(3000)
        levels = np.array([0.0, 0.1, 0.25, 1.0, 1.0 / 3.0, 7.0, 1e-300])
        for _ in range(300):
            size = int(rng.integers(1, 200))
            vals = rng.choice(levels, size) * rng.choice([-1.0, 1.0], size)
            g = GridFunction(box(0.0, float(rng.uniform(0.1, 10.0))), size,
                             vals)
            assert weak_l1_quasinorm(g).hex() == ref.weak_l1_quasinorm(
                g).hex()


def unique_weak_l1(g):
    """Reference: distinct levels from np.unique, counts by searchsorted."""
    v = np.abs(g.values)
    levels = np.unique(v[v > 0])
    if len(levels) == 0:
        return 0.0
    counts = len(v) - np.searchsorted(np.sort(v), levels, side="left")
    return float(np.max(levels * counts * g.h ** g.dim))


class TestNorms:
    def test_weak_l1_indicator(self):
        nodes = grid_nodes(box(-2.0, 2.0), 256)[:, 0]
        g = GridFunction(box(-2.0, 2.0), 256,
                         ((nodes >= 0) & (nodes < 1)).astype(float))
        assert weak_l1_quasinorm(g) == 1.0

    def test_weak_l1_zero(self):
        assert weak_l1_quasinorm(GridFunction(B8, 16, np.zeros(16))) == 0.0

    def test_weak_l1_two_levels(self):
        # 2 on measure 1/4, 1 on measure 1: max(2*(1/4), 1*(5/4)) = 5/4.
        vals = np.zeros(64)
        vals[:4] = 2.0    # 4 cells * h=1/16 -> measure 1/4
        vals[4:20] = 1.0  # 16 cells -> measure 1
        g = GridFunction(box(0.0, 4.0), 64, vals)
        assert weak_l1_quasinorm(g) == 1.25

    @pytest.mark.parametrize("distinct", [True, False])
    def test_weak_l1_matches_per_level_count(self, distinct):
        # Reference: |{|g| >= lam}| counted level by level, as defined.
        rng = np.random.default_rng(9)
        vals = rng.normal(size=128 * 128)
        if distinct:
            assert len(np.unique(np.abs(vals))) == vals.size
        else:
            vals = np.round(vals * 4.0)        # many ties and zeros
        g = GridFunction(box((0.0, 0.0), (2.0, 2.0)), 128, vals)
        v = np.abs(g.values)
        levels = np.unique(v[v > 0])
        counts = np.array([np.count_nonzero(v >= lam) for lam in levels])
        want = float(np.max(levels * counts * g.h ** 2))
        assert weak_l1_quasinorm(g) == want

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0,
                                     1e-300, -7.25, 0.1]),
                    min_size=64, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_weak_l1_matches_unique_reference(self, vals):
        g = GridFunction(box(0.0, 3.0), 64, np.array(vals))
        assert weak_l1_quasinorm(g) == unique_weak_l1(g)
        zero = g.with_values(np.zeros(64))
        assert weak_l1_quasinorm(zero) == unique_weak_l1(zero) == 0.0

    def test_lp_examples(self):
        nodes = grid_nodes(box(-2.0, 2.0), 256)[:, 0]
        chi = GridFunction(box(-2.0, 2.0), 256,
                           ((nodes >= 0) & (nodes < 1)).astype(float))
        assert lp_norm(chi, 2.0) == pytest.approx(1.0)
        const = GridFunction(box(0.0, 2.0), 64, np.full(64, 3.0))
        assert lp_norm(const, 3.0) == pytest.approx(3.0 * 2.0 ** (1 / 3))
        lin = grid_function(box(0.0, 1.0), 4096, lambda X: X[:, 0])
        assert lp_norm(lin, 2.0) == pytest.approx(1 / math.sqrt(3), abs=1e-4)

    def test_lp_range_enforced(self):
        g = GridFunction(B8, 16, np.zeros(16))
        with pytest.raises(RejectedInputError):
            lp_norm(g, 0.5)
        with pytest.raises(RejectedInputError):
            lp_norm(g, math.inf)

    @given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_chebyshev_weak_le_l1(self, vals):
        g = GridFunction(box(0.0, 1.0), 8, np.array(vals))
        assert weak_l1_quasinorm(g) <= lp_norm(g, 1.0) + 1e-12

    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
           st.floats(1.0, 4.0), st.floats(0.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_lp_monotone_on_unit_measure(self, vals, p, dp):
        g = GridFunction(box(0.0, 1.0), 4, np.array(vals))
        assert lp_norm(g, p) <= lp_norm(g, p + dp) * (1 + 1e-9) + 1e-12


class TestWeakType:
    def test_empty_family_rejected(self):
        with pytest.raises(RejectedInputError):
            weak_type_experiment(get_kernel("two-line-hilbert"), [], 0.1, 8.1)

    @pytest.mark.parametrize("threads", [0, -3, 2.5])
    def test_rejects_a_bad_thread_count(self, threads):
        # An all-zero f never reaches T_eps: the count is checked up front.
        zero = GridFunction(B8, 64, np.zeros(64))
        with pytest.raises(RejectedInputError, match="threads"):
            weak_type_experiment(get_kernel("two-line-hilbert"), [zero], 0.5,
                                 8.1, out_cells=32, threads=threads)

    def test_rejects_an_output_cell_count_that_is_not_an_integer(self):
        # out_cells=4.0 once passed the grid check and failed in numpy.
        f = GridFunction(B8, 64, np.ones(64))
        with pytest.raises(RejectedInputError,
                           match="cell count must be an integer: 4.0"):
            weak_type_experiment(get_kernel("two-line-hilbert"), [f], 0.5,
                                 8.1, out_cells=4.0)

    def test_theta_hypothesis_enforced(self):
        f = GridFunction(B8, 64, np.zeros(64))
        with pytest.raises(RejectedInputError):
            weak_type_experiment(get_kernel("two-line-hilbert"), [f], 0.1, 3.0)

    def test_zero_function_all_ratios_zero(self):
        f = GridFunction(B8, 64, np.zeros(64))
        rep = weak_type_experiment(get_kernel("two-line-hilbert"), [f],
                                   0.1, 8.1, out_cells=32, ladder_max=3)
        assert rep.max_ratio == 0.0

    def test_indicator_family_finite_and_stable(self):
        k = get_kernel("two-line-hilbert")
        nodes = grid_nodes(B8, 256)[:, 0]
        f = GridFunction(B8, 256,
                         ((nodes >= -1) & (nodes <= 1)).astype(float))
        rep = weak_type_experiment(k, [f], 0.1, 8.1, out_cells=128,
                                   ladder_max=8)
        assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
        for row in rep.rows:
            assert row.bad_integral >= 0.0
            assert row.b_star_measure >= 0.0

    def test_rows_match_apply_truncated(self):
        # The experiment's own eps-mask agrees with the public apply path.
        k = get_kernel("two-line-hilbert")
        nodes = grid_nodes(B8, 128)[:, 0]
        family = [GridFunction(B8, 128,
                               ((nodes >= -1) & (nodes <= 1)).astype(float)),
                  GridFunction(B8, 128, np.exp(-nodes ** 2))]
        eps, theta, out_cells = 0.1, 8.1, 64
        rep = weak_type_experiment(k, family, eps, theta,
                                   out_cells=out_cells, ladder_max=4)
        Xout = grid_nodes(B8, out_cells)
        cell = B8.side() / out_cells

        def T(g):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return apply_truncated(k, g, eps, (g.box, out_cells)).values

        assert any(row.bad_integral > 0.0 for row in rep.rows)
        for row in rep.rows:
            f = family[row.function_index]
            assert row.superlevel_measure == float(
                np.count_nonzero(np.abs(T(f)) >= row.lam) * cell)
            dec = cz_decompose(f, row.lam)
            in_bstar = np.zeros(len(Xout), dtype=bool)
            for c in dec.cubes:
                in_bstar |= enlarged_cube(k.curve, c.box, theta).contains(Xout)
            want = sum(float(np.sum(np.abs(T(b)[~in_bstar])) * cell)
                       for b in dec.bad)
            assert abs(row.bad_integral - want) <= 1e-12 * want

    def test_no_bad_part_columns_when_b_star_covers_the_grid(self,
                                                             monkeypatch):
        # Rows whose B* covers every output node build no column; every row
        # still equals the one that builds a column for each cube.
        import czo.decomposition as decomposition
        from czo.cli import builtin_function
        from czo.operator import _truncated

        k = get_kernel("two-line-hilbert")
        family = [builtin_function(s, B8, 512) for s in ("indicator:-1,1",
                                                         "bump")]
        eps, theta, out_cells = 0.1, 8.1, 256
        calls = []

        def counted(*args):
            summation = _truncated(*args)

            def call(*a):
                Tf, column = summation(*a)

                def counted_column(cells, block):
                    calls.append(cells)
                    return column(cells, block)
                return Tf, counted_column
            return call

        monkeypatch.setattr(decomposition, "_truncated", counted)
        rep = weak_type_experiment(k, family, eps, theta, out_cells=out_cells)

        Xout = grid_nodes(B8, out_cells)
        out_cell = B8.side() / out_cells
        want, kept = [], 0
        for fi, f in enumerate(family):
            l1 = lp_norm(f, 1.0)
            Tf, column = _truncated(k, f, B8, out_cells, 1)(f, eps, 1)
            for j in range(13):
                lam = 2.0 ** j * l1 / B8.measure()
                dec = cz_decompose(f, lam)
                level = float(np.count_nonzero(np.abs(Tf) >= lam) * out_cell)
                in_bstar = np.zeros(len(Xout), dtype=bool)
                for c in dec.cubes:
                    in_bstar |= enlarged_cube(k.curve, c.box,
                                              theta).contains(Xout)
                bad_int = 0.0
                if dec.blocks:
                    Tb = np.stack([column(cells, block)
                                   for cells, block in dec.blocks], axis=1)
                    bad_int = float(np.sum(np.abs(Tb[~in_bstar])) * out_cell)
                    kept += len(dec.blocks) * (not np.all(in_bstar))
                want.append(WeakTypeRow(fi, lam, len(dec.cubes), level,
                                        lam * level / l1,
                                        float(np.count_nonzero(in_bstar)
                                              * out_cell), bad_int))
        assert rep.rows == want
        assert 0 < len(calls) == kept < sum(r.cube_count for r in want)

    @pytest.mark.parametrize("name,reads", [("diamond-model", False),
                                            ("two-line-hilbert", True)])
    def test_dense_matrix_built_on_first_column_read(self, monkeypatch, name,
                                                     reads):
        # On the dense path the masked matrix is unfolded at most once per
        # call of the pair's summation, on its first column read, and never
        # when B* covers every output node; the rows keep the bits of
        # columns read from a matrix unfolded up front.
        import dataclasses
        import czo.decomposition as decomposition
        import czo.operator as operator
        from czo.cli import builtin_function

        k = dataclasses.replace(get_kernel(name), reflections=frozenset())
        family = [builtin_function(s, B8, 512) for s in ("indicator:-1,1",
                                                         "bump")]

        def bits():
            rep = weak_type_experiment(k, family, 0.1, 8.1, out_cells=256)
            return np.array([dataclasses.astuple(r) for r in rep.rows]
                            ).tobytes()

        def eager(*args):
            summation = operator._truncated(*args)

            def call(f, epsilon, threads):
                Tf, _ = summation(f, epsilon, threads)
                M = summation.unfold(epsilon)
                return Tf, lambda cells, block: M[:, cells[0]] @ block * f.h
            return call

        monkeypatch.setattr(decomposition, "_truncated", eager)
        want = bits()
        monkeypatch.undo()

        unfolds, read = [], []
        unfold = operator._Dense.unfold

        def counted(*args):
            summation = operator._truncated(*args)

            def call(*a):
                Tf, column = summation(*a)
                read.append(0)

                def counted_column(cells, block):
                    read[-1] += 1
                    return column(cells, block)
                return Tf, counted_column
            return call

        monkeypatch.setattr(operator._Dense, "unfold",
                            lambda *a: unfolds.append(a) or unfold(*a))
        monkeypatch.setattr(decomposition, "_truncated", counted)
        assert bits() == want
        assert len(read) == len(family)
        assert len(unfolds) == sum(r > 0 for r in read)
        if reads:
            assert sum(read) > len(unfolds) > 0
        else:
            assert sum(read) == 0

    def test_separation_inheritance(self):
        # Every selected cube's enlargement keeps outsiders rho-far from it.
        k = get_kernel("two-line-hilbert")
        nodes = grid_nodes(B8, 256)[:, 0]
        f = GridFunction(B8, 256, np.exp(-nodes ** 2))
        lam = 4.0 * f.integral() / 16.0
        dec = cz_decompose(f, lam)
        assert dec.cubes
        rng = np.random.default_rng(0)
        for c in dec.cubes:
            ec = enlarged_cube(k.curve, c.box, 8.1)
            X = rng.uniform(-30, 30, size=(400, 1))
            X = X[~ec.contains(X)][:100]
            Y = rng.uniform(c.box.lo[0], c.box.hi[0], size=(len(X), 1))
            r, _ = rho_values(k.curve, X, Y)
            ell = c.box.side()
            assert np.all(r >= 2.0 * ell * (1 - 1e-5))


# Each entry point that takes epsilon, theta, a cap or a ladder length,
# called with one bad value v.
NON_FINITE_CALLS = {
    "apply_truncated": ("epsilon", lambda k, f, v: apply_truncated(k, f, v)),
    "apply_truncated_at": (
        "epsilon", lambda k, f, v: apply_truncated_at(k, f, [[0.0]], v)),
    "estimate_T0": (
        "epsilons", lambda k, f, v: estimate_T0(k, f, [0.5, v, 0.1])),
    "weak_type_experiment-epsilon": (
        "epsilon", lambda k, f, v: weak_type_experiment(
            k, [f], v, 8.1, out_cells=32, ladder_max=2)),
    "weak_type_experiment-theta": (
        "theta", lambda k, f, v: weak_type_experiment(
            k, [f], 0.5, v, out_cells=32, ladder_max=2)),
    "weak_type_experiment-ladder_max": (
        "ladder_max", lambda k, f, v: weak_type_experiment(
            k, [f], 0.5, 8.1, out_cells=32, ladder_max=v)),
    "multiplier_bound_check": (
        "cap", lambda k, f, v: multiplier_bound_check(
            k.curve, multiplier_field(k.curve, B8, 16, [1.0, 0.0]), v)),
    "enlarged_cube": (
        "theta", lambda k, f, v: enlarged_cube(k.curve, box(2.0, 3.0), v)),
    "check_qtheta": (
        "theta", lambda k, f, v: check_qtheta(k.curve, box(2.0, 3.0), v,
                                              mc_samples=100)),
}


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1])
    @pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
    def test_rejected_by_name(self, call, value):
        name, run = NON_FINITE_CALLS[call]
        k = get_kernel("two-line-hilbert")
        nodes = grid_nodes(B8, 64)[:, 0]
        f = GridFunction(B8, 64, ((nodes >= -1) & (nodes <= 1)).astype(float))
        with pytest.raises(RejectedInputError, match=name):
            run(k, f, value)

    @pytest.mark.parametrize("Q", [box(2.0, 2.0), box((0.0, 1.0), (1.0, 1.0))],
                             ids=["point", "flat-square"])
    def test_degenerate_cube_rejected(self, Q):
        curve = get_curve("diagonal", Q.dim)
        with pytest.raises(RejectedInputError, match="cube"):
            enlarged_cube(curve, Q, 40.0)
        with pytest.raises(RejectedInputError, match="cube"):
            check_qtheta(curve, Q, 40.0, mc_samples=100)

