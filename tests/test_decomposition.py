import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from czo.curves import get_curve
from czo.decomposition import (cz_decompose, lp_norm, weak_l1_quasinorm,
                               weak_type_experiment)
from czo.errors import RejectedInputError
from czo.geometry import box
from czo.kernels import get_kernel
from czo.metric import check_qtheta, enlarged_cube, rho_values
from czo.operator import (GridFunction, apply_truncated, apply_truncated_at,
                          estimate_T0, grid_function, grid_nodes)

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
                    assert dec.cubes[a].box.intersection(
                        dec.cubes[b].box).measure() == 0.0 \
                        if dec.cubes[a].box.intersects(dec.cubes[b].box) \
                        else True
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


# Each entry point that takes epsilon or theta, called with one bad value v.
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
    "enlarged_cube": (
        "theta", lambda k, f, v: enlarged_cube(k.curve, box(2.0, 3.0), v)),
    "check_qtheta": (
        "theta", lambda k, f, v: check_qtheta(k.curve, box(2.0, 3.0), v,
                                              mc_samples=100)),
}


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
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
