import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest

from czo.curves import get_curve
from czo.decomposition import cz_decompose, lp_norm, weak_type_experiment
from czo.errors import ConsistencyError, RejectedInputError
from czo.geometry import CurveBranch, DyadicCube, HyperCurve, box, whole_space
from czo.kernels import KernelSpec, _rho_and_kernel, get_kernel
from czo.metric import enlarged_cube, rho_values
from czo.operator import (GridFunction, apply_multiplier, apply_truncated,
                          apply_truncated_at, estimate_T0,
                          grid_function, grid_nodes, interpolate,
                          multiplier_bound_check, multiplier_field,
                          multiplier_handle, read_grid_csv,
                          recover_multipliers, write_grid_csv)
from czo.partition import BranchDisjointPartition, build_partition

B8 = box(-8.0, 8.0)
B88 = box((-8.0, -8.0), (8.0, 8.0))


def quiet_apply(kernel, f, eps, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return apply_truncated(kernel, f, eps, **kw)


def dense_twin(kernel):
    """The kernel without its reflection declaration: the dense path."""
    return dataclasses.replace(kernel, reflections=frozenset())


class TestGridFunction:
    def test_nodes_are_midpoints(self):
        f = grid_function(box(0.0, 1.0), 4, lambda X: X[:, 0])
        assert f.nodes()[:, 0].tolist() == [0.125, 0.375, 0.625, 0.875]
        assert f.h == 0.25

    def test_mirror_symmetric_nodes(self):
        x = grid_nodes(B8, 642)[:, 0]
        assert np.array_equal(x[::-1], -x)

    def test_integral_midpoint_rule(self):
        f = grid_function(box(0.0, 1.0), 1024, lambda X: X[:, 0] ** 2)
        assert f.integral() == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_rejects_bad_values(self):
        with pytest.raises(RejectedInputError):
            GridFunction(B8, 4, [1.0, 2.0, np.nan, 0.0])
        with pytest.raises(RejectedInputError):
            GridFunction(B8, 4, [1.0, 2.0])

    @pytest.mark.parametrize("lo, hi", [((1.0,), (1.0,)),
                                        ((0.0, 2.0), (1.0, 2.0)),
                                        ((0.0, 0.0), (1e-200, 1e-200))])
    def test_rejects_zero_width_box(self, lo, hi):
        # A zero-width axis, or cells so small that h ** dim underflows,
        # gives h ** dim = 0: once an all-zero report or a division by zero
        # further down.
        with pytest.raises(RejectedInputError, match="box"):
            GridFunction(box(lo, hi), 2, np.ones(2 ** len(lo)))

    def test_checks_keep_their_order_on_a_known_grid(self):
        # The box checks are remembered per grid; the value checks still
        # run on every call, and a wrong count is reported before a
        # non-cubic box.
        tall = box((0.0, 0.0), (1.0, 2.0))
        for _ in range(2):
            with pytest.raises(RejectedInputError, match="expected 4 values"):
                GridFunction(tall, 2, np.ones(3))
            with pytest.raises(RejectedInputError, match="must be finite"):
                GridFunction(tall, 2, [1.0, np.inf, 0.0, 0.0])
            with pytest.raises(RejectedInputError, match="cubic"):
                GridFunction(tall, 2, np.ones(4))
            with pytest.raises(RejectedInputError, match="must be finite"):
                GridFunction(B8, 4, [1.0, 2.0, np.nan, 0.0])

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e6])
    def test_cubic_cells_are_judged_relative_to_the_box(self, scale):
        # Widths a few ulps apart are one width at every scale; widths a
        # factor 3 or a relative 1e-12 apart are not, however small.
        def grid(tall):
            return GridFunction(box((0.0, 0.0), (scale, tall)), 2,
                                np.ones(4))

        for tall in (scale, scale * (1.0 + 4e-16),
                     np.nextafter(scale, 0.0)):
            assert grid(tall).h == scale / 2
        for tall in (3.0 * scale, scale * (1.0 + 1e-12)):
            with pytest.raises(RejectedInputError, match="cubic"):
                grid(tall)

    def test_cubic_cells_keep_rounded_sums_and_large_boxes(self):
        GridFunction(box((0.0, 0.0), (0.3, 0.1 + 0.2)), 3, np.ones(9))
        GridFunction(box((0.0, 0.0), (1e6, 1e6 + 1e-9)), 2, np.ones(4))
        GridFunction(box((-0.1, 0.0), (0.2, 0.3)), 3, np.ones(9))

    def test_csv_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        f = GridFunction(box(-2.0, 3.0), 64, rng.normal(size=64))
        p = tmp_path / "f.csv"
        write_grid_csv(f, str(p))
        g = read_grid_csv(str(p))
        assert g.box == f.box and g.cells_per_axis == 64
        assert np.array_equal(g.values, f.values)

    def test_csv_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\n")
        with pytest.raises(RejectedInputError):
            read_grid_csv(str(p))

    @pytest.mark.parametrize("header", ["# box=0.0..1.0",
                                        "# box=0.0 n=2",
                                        "# box=0.0..1.0..2.0 n=2",
                                        "# box=0.0..1.0, n=2"])
    def test_csv_malformed_header(self, tmp_path, header):
        p = tmp_path / "bad.csv"
        p.write_text(f"{header}\n1.0\n2.0\n")
        with pytest.raises(RejectedInputError):
            read_grid_csv(str(p))

    def test_grid_nodes_rejects_empty_grid(self):
        with pytest.raises(RejectedInputError):
            grid_nodes(B8, 0)

    @pytest.mark.parametrize("bx, n, rule", [
        (B8, -3, "at least one cell: -3"),
        (box(-math.inf, math.inf), 4, "bounded box"),
        (box(0.0, math.inf), 4, "bounded box"),
        (box(1.0, 1.0), 4, "zero volume"),
    ])
    def test_grid_nodes_checks_the_grid_before_any_node(self, bx, n, rule):
        # An unbounded box once gave NaN nodes and a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RejectedInputError, match=rule):
                grid_nodes(bx, n)

    @pytest.mark.parametrize("bx, n, axis", [
        (box(-1e308, 1e308), 4, 0),
        (box((-1e200, -1e200), (1e200, 1e200)), 2, 0),
        (box((-1.0, -1e200), (1.0, 1e200)), 2, 1),
    ])
    def test_cells_of_infinite_volume_are_rejected(self, bx, n, axis):
        # A width of inf (1e308 - -1e308 overflows) was once accepted with
        # h = inf, so that lp_norm warned on inf * 0; a volume of 1e400
        # raised a bare OverflowError from Python's float power.
        rule = f"volume is not finite on axis {axis}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RejectedInputError, match=rule):
                grid_nodes(bx, n)
            with pytest.raises(RejectedInputError, match=rule):
                GridFunction(bx, n, np.zeros(n ** bx.dim))

    @pytest.mark.parametrize("n", [4.0, 2.5, np.float64(4.0)],
                             ids=["4.0", "2.5", "np.float64(4.0)"])
    def test_a_cell_count_that_is_not_an_integer_is_rejected(self, n):
        # 4.0 was once accepted with h = 0.5, and decompose, interpolate and
        # apply then raised TypeError; 2.5 asked for "2.5 values".
        rule = f"cell count must be an integer: {n!r}"
        with pytest.raises(RejectedInputError, match=re.escape(rule)):
            grid_nodes(box(-1.0, 1.0), n)
        with pytest.raises(RejectedInputError, match=re.escape(rule)):
            GridFunction(box(-1.0, 1.0), n, np.ones(int(n)))

    def test_an_integer_cell_count_of_any_type_is_accepted(self):
        f = GridFunction(box(-1.0, 1.0), np.int64(4), np.ones(4))
        assert f.h == 0.5

    def test_grid_function_from_an_array(self):
        f = grid_function(B8, 4, [1.0, 2.0, 3.0, 4.0])
        assert f.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(RejectedInputError, match="expected 4 values"):
            grid_function(B8, 4, np.ones(5))

    def test_csv_skips_blank_lines(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("\n# box=0.0..1.0 n=2\n\n1.5\n  \n-2.0\n\n")
        g = read_grid_csv(str(p))
        assert (g.box, g.cells_per_axis) == (box(0.0, 1.0), 2)
        assert g.values.tolist() == [1.5, -2.0]


class TestInterpolation:
    def test_exact_on_nodes(self):
        f = grid_function(B8, 32, lambda X: np.sin(X[:, 0]))
        vals, outside = interpolate(f, f.nodes())
        assert np.array_equal(vals, f.values)
        assert not outside.any()

    def test_linear_between_nodes(self):
        f = grid_function(B8, 32, lambda X: X[:, 0])
        vals, _ = interpolate(f, np.array([[0.1], [3.3]]))
        assert vals == pytest.approx([0.1, 3.3], abs=1e-12)

    def test_outside_reads_zero_with_flag(self):
        f = grid_function(box(0.0, 1.0), 8, lambda X: X[:, 0] + 1.0)
        vals, outside = interpolate(f, np.array([[2.0], [0.5]]))
        assert vals[0] == 0.0 and outside[0]
        assert not outside[1]

    @pytest.mark.parametrize("bx", [box(0.0, 1.0), box((0.0, 0.0), (1.0, 1.0))])
    def test_one_cell_grid_is_constant(self, bx):
        # One node has no neighbour to interpolate towards.
        f = GridFunction(bx, 1, [2.5])
        X = np.array([[0.0] * bx.dim, [0.3] * bx.dim, [1.0] * bx.dim,
                      [1.5] * bx.dim])
        vals, outside = interpolate(f, X)
        assert vals.tolist() == [2.5, 2.5, 2.5, 0.0]
        assert outside.tolist() == [False, False, False, True]


class TestApplyTruncated:
    def test_rejects_nonpositive_epsilon(self):
        f = grid_function(B8, 16, lambda X: np.ones(len(X)))
        with pytest.raises(RejectedInputError):
            apply_truncated(get_kernel("hilbert"), f, 0.0)

    @pytest.mark.parametrize("threads", [0, -3, 2.5, "2"])
    def test_rejects_a_bad_thread_count(self, threads):
        f = grid_function(B8, 16, lambda X: np.ones(len(X)))
        with pytest.raises(RejectedInputError, match="threads"):
            apply_truncated(get_kernel("hilbert"), f, 4.0, threads=threads)

    @pytest.mark.parametrize("out_box", [box(1.0, 1.0),
                                         box(-math.inf, math.inf)])
    def test_rejected_output_grid_builds_no_summation(self, out_box):
        # A zero-width dense output grid was once summed and cached before
        # its grid function rejected it.
        k = get_kernel("diamond-model")
        f = grid_function(B8, 16, lambda X: np.ones(len(X)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RejectedInputError, match="box"):
                apply_truncated(k, f, 4.0, (out_box, 8))
        assert k._matrices == {}

    def test_warns_below_reliable_regime(self):
        f = grid_function(B8, 16, lambda X: np.ones(len(X)))
        with pytest.warns(UserWarning):
            apply_truncated(get_kernel("hilbert"), f, 0.1)

    def test_constant_function_cancels_at_center(self):
        f = grid_function(B8, 512, lambda X: np.full(len(X), 3.0))
        out = apply_truncated_at(get_kernel("hilbert"), f, 0.0, 1.0)
        assert abs(out[0]) <= 1e-10 * 3.0

    def test_odd_annihilation_bitwise(self):
        k = get_kernel("two-line-hilbert")
        rng = np.random.default_rng(5)
        a = rng.normal(size=256)
        f = GridFunction(B8, 256, a - a[::-1])
        for eps in (0.5, 0.1, 0.02):
            out = quiet_apply(k, f, eps)
            assert np.max(np.abs(out.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_principal_value_oracle(self):
        k = get_kernel("two-line-hilbert")
        nodes = grid_nodes(B8, 1 << 14)[:, 0]
        f = GridFunction(B8, 1 << 14,
                         ((nodes >= -1) & (nodes <= 1)).astype(float))
        val = apply_truncated_at(k, f, 2.0, 1e-3)[0]
        assert val == pytest.approx(2.0 * math.log(3.0), abs=1e-2)

    def test_linearity(self):
        k = get_kernel("two-line-hilbert")
        rng = np.random.default_rng(2)
        f = GridFunction(B8, 128, rng.normal(size=128))
        g = GridFunction(B8, 128, rng.normal(size=128))
        a, b = 2.5, -1.25
        lhs = quiet_apply(k, f.with_values(a * f.values + b * g.values), 0.5)
        rhs = a * quiet_apply(k, f, 0.5).values + b * quiet_apply(k, g, 0.5).values
        scale = abs(a) * np.max(np.abs(f.values)) + abs(b) * np.max(np.abs(g.values))
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-10 * scale

    def test_even_reduction_to_hilbert(self):
        # For even f the two-line operator doubles the diagonal one.
        k2 = get_kernel("two-line-hilbert")
        k1 = get_kernel("hilbert")
        nodes = grid_nodes(B8, 1024)[:, 0]
        f = GridFunction(B8, 1024, np.exp(-(nodes - 0.0) ** 2))
        X = np.array([[3.0], [4.5], [-3.5]])
        eps = 0.125
        two = apply_truncated_at(k2, f, X, eps)
        one = apply_truncated_at(k1, f, X, eps)
        assert np.all(np.abs(two - 2 * one) <= 0.02 * np.abs(two))

    def test_epsilon_stabilization_bitwise(self):
        k = get_kernel("two-line-hilbert")
        rng = np.random.default_rng(9)
        nodes = grid_nodes(B8, 256)[:, 0]
        supp = (nodes >= -1) & (nodes <= 1)
        f = GridFunction(B8, 256, np.where(supp, rng.normal(size=256), 0.0))
        outs = [quiet_apply(k, f, e) for e in (0.4, 0.2, 0.1)]
        X = f.nodes()
        Ys = X[supp]
        R, _ = rho_values(get_curve("two-lines"),
                         np.repeat(X, len(Ys), axis=0),
                         np.tile(Ys, (len(X), 1)))
        far = np.min(R.reshape(len(X), len(Ys)), axis=1) >= 0.5
        assert far.any()
        for o in outs[1:]:
            assert np.array_equal(outs[0].values[far], o.values[far])


class TestAxisCounts:
    # A 1-D kernel on a 2-D grid once failed inside numpy: a broadcast
    # error on the lattice path, a point-shape error on the dense one.
    @pytest.mark.parametrize("name", ["hilbert", "two-line-hilbert",
                                      "diamond-model"])
    def test_f_of_another_dimension_is_rejected(self, name):
        kernel = get_kernel(name)
        f = grid_function(B88, 16, lambda X: np.cos(X[:, 0]))
        msg = rf"f has 2 axes but the kernel '{name}' has 1"
        with pytest.raises(RejectedInputError, match=msg):
            apply_truncated(kernel, f, 0.5)
        with pytest.raises(RejectedInputError, match=msg):
            apply_truncated_at(kernel, f, [[0.0]], 0.5)
        with pytest.raises(RejectedInputError, match=msg):
            weak_type_experiment(kernel, [f], 0.5, 9.0, out_cells=16)

    def test_output_box_of_another_dimension_is_rejected(self):
        f = grid_function(B8, 16, lambda X: np.cos(X[:, 0]))
        with pytest.raises(RejectedInputError, match=r"output box has 2 axes "
                           r"but the kernel 'two-line-hilbert' has 1"):
            apply_truncated(get_kernel("two-line-hilbert"), f, 0.5,
                            out_geometry=(B88, 16))


WARM_KERNELS = {"hilbert": lambda: get_kernel("hilbert"),
                "two-line-hilbert": lambda: get_kernel("two-line-hilbert"),
                "dense hilbert": lambda: dense_twin(get_kernel("hilbert")),
                "diamond-model": lambda: get_kernel("diamond-model")}


class TestChecksOnAWarmSummation:
    # A warm summation still checks eps, the axis counts, eps's warning
    # and the finiteness of the values on every call.
    @staticmethod
    def warm(name, n=64):
        k = WARM_KERNELS[name]()
        x = grid_nodes(B8, n)[:, 0]
        f = GridFunction(B8, n, np.where(np.abs(x) <= 1.0, 1.0, 0.0))
        for eps in (2.0, 0.5, 1.0):
            quiet_apply(k, f, eps)
        return k, f

    @pytest.mark.parametrize("name", WARM_KERNELS)
    def test_a_bad_epsilon_is_rejected(self, name):
        k, f = self.warm(name)
        for eps in (math.nan, 0.0, -0.5, math.inf, -math.inf):
            with pytest.raises(RejectedInputError,
                               match="epsilon must be finite and positive"):
                apply_truncated(k, f, eps)
        with pytest.warns(UserWarning):
            apply_truncated(k, f, 0.1)

    @pytest.mark.parametrize("name", WARM_KERNELS)
    def test_a_wrong_axis_count_is_rejected_before_any_warning(self, name):
        # eps lies below 4 cell widths, so a warning would come first if
        # the axes were checked after it.
        k, f = self.warm(name)
        f2 = grid_function(B88, 16, lambda X: np.cos(X[:, 0]))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(RejectedInputError, match="f has 2 axes"):
                apply_truncated(k, f2, 0.5)
            with pytest.raises(RejectedInputError,
                               match="output box has 2 axes"):
                apply_truncated(k, f, 0.1, out_geometry=(B88, 16))
        assert not [w for w in seen if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("name", WARM_KERNELS)
    def test_a_kept_cell_overflow_raises_on_a_ladder_step(self, name):
        # 5e307 on four cells: at a large eps (the diamond's rho is
        # smaller) every kept sum stays finite, at eps = 0.3 the kept cells
        # next to them overflow.  The step back gives the first apply's
        # bits.
        k = WARM_KERNELS[name]()
        n = 64
        f = GridFunction(B8, n, np.where(np.abs(np.arange(n) - 31.5) < 2,
                                         5e307, 0.0))
        large = 0.5 if name == "diamond-model" else 4.0
        far = quiet_apply(k, f, large).values
        assert np.all(np.isfinite(far)) and np.any(far != 0.0)
        with pytest.raises(RejectedInputError, match="must be finite"):
            quiet_apply(k, f, 0.3)
        assert quiet_apply(k, f, large).values.tobytes() == far.tobytes()


def riesz_2d():
    """K(x, y) = (x_1 - y_1) / |x - y|^3 on diagonal(2), where
    rho = |x - y| / sqrt(2); it declares no reflections, so every apply
    takes the dense path."""
    def fn(X, Y, rho):
        D = X - Y
        return D[:, 0] / np.sqrt(np.sum(D ** 2, axis=1)) ** 3

    # |K| rho^2 = |x_1 - y_1| / (2 |x - y|) <= 1/2.
    return KernelSpec("riesz-2d", get_curve("diagonal", 2), fn,
                      size_constant=0.5 + 1e-3, delta=1.0)


def brute_force_2d(X, f, eps):
    """(T_eps f at X, sum |K f| h^2) for ``riesz_2d``, summed by numpy
    from the formula, without czo's rho or its folded sums."""
    D = X[:, None, :] - f.nodes()[None, :, :]
    r = np.sqrt(np.sum(D ** 2, axis=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(r / math.sqrt(2.0) >= eps, D[..., 0] / r ** 3, 0.0)
    h2 = f.h ** 2
    return (K @ f.values) * h2, (np.abs(K) @ np.abs(f.values)) * h2


class TestDense2D:
    """The dense T_eps path on a 2-D grid, against a brute-force sum."""

    B = box((-2.0, -2.0), (2.0, 2.0))

    def even_input(self, n):
        v = np.random.default_rng(n).normal(size=n * n)
        return GridFunction(self.B, n, v + v[::-1])     # f(-x) = f(x)

    @pytest.mark.parametrize("n", [16, 15])
    def test_apply_matches_a_brute_force_sum(self, n):
        f = self.even_input(n)
        for eps in (0.5, 1.5):
            got = quiet_apply(riesz_2d(), f, eps).values
            want, scale = brute_force_2d(f.nodes(), f, eps)
            assert np.all(np.abs(got - want) <= 1e-14 * np.max(scale))
            assert np.any(got != 0.0)

    def test_non_cubic_output_grid_builds_no_summation(self):
        # Its cubic verdict was once raised only by the result's grid
        # function, after a dense summation had been built and cached.
        k = riesz_2d()
        message = r"^cells must be cubic \(equal axis widths\)$"
        with pytest.raises(RejectedInputError, match=message):
            apply_truncated(k, self.even_input(8), 2.0,
                            (box((-2.0, -2.0), (2.0, 4.0)), 4))
        assert k._matrices == {}

    def test_odd_kernel_on_an_even_input_is_zero_at_the_centre(self):
        # K(-x, -y) = -K(x, y): at x = 0 each cell's term cancels its
        # mirror's exactly.
        f = self.even_input(15)
        centre = f.nodes()[112]
        assert centre.tolist() == [0.0, 0.0]
        for eps in (0.5, 1.5):
            assert quiet_apply(riesz_2d(), f, eps).values[112] == 0.0

    def test_apply_at_points_matches_a_brute_force_sum(self):
        f = self.even_input(16)
        X = np.array([[0.0, 0.0], [0.3, -1.1], [-1.9, 1.7], [5.0, 0.2]])
        got = apply_truncated_at(riesz_2d(), f, X, 0.5)
        want, scale = brute_force_2d(X, f, 0.5)
        assert np.all(np.abs(got - want) <= 1e-14 * np.max(scale))

    def test_weak_type_rows_are_finite(self):
        wide = box((-32.0, -32.0), (32.0, 32.0))
        x = grid_nodes(wide, 32)
        family = [GridFunction(wide, 32, np.where(
                      np.max(np.abs(x - [1.0, 3.0]), axis=1) < 2.0, 1.0, 0.0)),
                  GridFunction(wide, 32, np.exp(-np.sum(x ** 2, axis=1) / 8))]
        rep = weak_type_experiment(riesz_2d(), family, 4.0, 10.0,
                                   out_cells=32, ladder_max=6)
        assert len(rep.rows) == 14
        assert all(np.isfinite(dataclasses.astuple(r)).all() for r in rep.rows)
        # A cube's bad part reaches nodes outside B*: the column path ran.
        assert any(r.bad_integral > 0.0 for r in rep.rows)


class TestMatrixCache:
    def test_kernels_sharing_a_name_do_not_share_matrices(self):
        curve = get_curve("diagonal")

        def k(X, Y, rho):
            return 1.0 / (X[:, 0] - Y[:, 0])

        one = KernelSpec("custom", curve, k, 1.0, 1.0)
        two = KernelSpec("custom", curve, lambda X, Y, r: 2.0 * k(X, Y, r),
                         2.0, 1.0)
        f = grid_function(B8, 64, lambda X: np.exp(-X[:, 0] ** 2))
        T1 = quiet_apply(one, f, 0.5).values
        T2 = quiet_apply(two, f, 0.5).values
        assert np.any(T1 != 0.0)
        assert np.array_equal(T2, 2.0 * T1)

    def test_new_epsilon_reuses_the_kernel_matrices(self, monkeypatch):
        import czo.operator as op

        kernel = dense_twin(get_kernel("two-line-hilbert"))
        f = grid_function(B8, 64, lambda X: np.exp(-X[:, 0] ** 2))
        quiet_apply(kernel, f, 0.5)
        builds = []
        build = op._Dense.__init__
        monkeypatch.setattr(op._Dense, "__init__",
                            lambda *a: builds.append(1) or build(*a))
        quiet_apply(kernel, f, 0.25)
        assert builds == []
        quiet_apply(dense_twin(get_kernel("two-line-hilbert")), f, 0.25)
        assert builds == [1]


def rowmajor_masked(kernel, X, f, eps):
    """The eps-masked kernel matrix from the points X to f's nodes,
    row-major, evaluated without the matrix cache."""
    Y = f.nodes()
    R, K = _rho_and_kernel(kernel, np.repeat(X, len(Y), axis=0),
                           np.tile(Y, (len(X), 1)))
    R = R.reshape(len(X), len(Y))
    return np.where(R >= eps, K.reshape(len(X), len(Y)), 0.0), R


def rowmajor_apply(M, f):
    """Reference T_eps f: each column paired with its mirror, then summed."""
    W = M * f.values
    half = W.shape[1] // 2
    total = np.sum(W[:, :half] + W[:, ::-1][:, :half], axis=1)
    if W.shape[1] % 2 == 1:
        total = total + W[:, half]
    return total * f.h ** f.dim


def rowmajor_weak_rows(kernel, f, eps, theta, out_cells, ladder_max):
    """(superlevel measure, ratio, bad integral) per lambda, by the
    row-major formulas of the weak-type experiment."""
    Xout = grid_nodes(f.box, out_cells)
    out_cell = f.box.side() / out_cells
    M, _ = rowmajor_masked(kernel, Xout, f, eps)
    Tf = rowmajor_apply(M, f)
    l1 = lp_norm(f, 1.0)
    rows = []
    for j in range(ladder_max + 1):
        lam = (2.0 ** j) * l1 / f.box.measure()
        dec = cz_decompose(f, lam)
        level = float(np.count_nonzero(np.abs(Tf) >= lam) * out_cell)
        in_bstar = np.zeros(len(Xout), dtype=bool)
        for c in dec.cubes:
            ec = enlarged_cube(kernel.curve, c.box, theta)
            in_bstar |= ec.contains(Xout)
        bad_int = 0.0
        if dec.blocks:
            Tb = np.empty((len(M), len(dec.blocks)))
            for k, (cells, block) in enumerate(dec.blocks):
                Tb[:, k] = M[(slice(None),) + cells] @ block
            Tb *= f.h
            bad_int = float(np.sum(np.abs(Tb[~in_bstar])) * out_cell)
        rows.append((level, lam * level / l1, bad_int))
    return rows


def wavy_kernel():
    """sign(gamma(x) - y) / rho for gamma(x) = x + 0.3 sin x, a curve that
    declares no exact distance, so rho takes the sampled solver."""
    wave = 0.3

    def inverse(Y):
        t = Y.copy()
        for _ in range(30):
            t = t - (t + wave * np.sin(t) - Y) / (1.0 + wave * np.cos(t))
        return t

    branch = CurveBranch(
        index=0, domain=whole_space(1),
        forward=lambda X: X + wave * np.sin(X), inverse=inverse,
        jacobian=lambda X: 1.0 + wave * np.cos(X[:, 0]),
        lipschitz=1.0 / (1.0 - wave), name="wavy")
    return KernelSpec("wavy", HyperCurve("wavy", [branch]),
                      lambda X, Y, r: np.sign(X[:, 0] + wave * np.sin(X[:, 0])
                                              - Y[:, 0]) / r, 1.0, 1.0)


class TestMirrorPairedSums:
    """apply_truncated, apply_truncated_at and weak_type_experiment equal,
    bit for bit, the row-major formula: mask, multiply by f, pair each
    column with its mirror column, sum."""

    @staticmethod
    def inputs(n, seed):
        rng = np.random.default_rng(seed)
        x = grid_nodes(B8, n)[:, 0]
        a = np.where(np.abs(x - 0.7) <= 2.0, rng.normal(size=n), 0.0)
        return [a, np.exp(-(x + 0.4) ** 2), a - a[::-1]]

    @pytest.mark.parametrize("name", ["two-line-hilbert", "diamond-model"])
    @pytest.mark.parametrize("n_in, n_out", [(255, 255), (257, 131),
                                             (256, 100)])
    def test_apply_matches_the_rowmajor_formula(self, name, n_in, n_out):
        k = dense_twin(get_kernel(name))
        Xout = grid_nodes(B8, n_out)
        Xat = np.random.default_rng(n_in).uniform(-8.0, 8.0, size=(23, 1))
        for vals in self.inputs(n_in, n_out):
            f = GridFunction(B8, n_in, vals)
            _, R = rowmajor_masked(k, Xout, f, 1.0)
            # R[3, 7] is attained, so the mask keeps rho == eps there.
            for eps in (0.5, 0.1, R[3, 7]):
                M, _ = rowmajor_masked(k, Xout, f, eps)
                got = quiet_apply(k, f, eps, out_geometry=(B8, n_out))
                assert got.values.tobytes() == rowmajor_apply(M, f).tobytes()
                M, _ = rowmajor_masked(k, Xat, f, eps)
                got = apply_truncated_at(k, f, Xat, eps)
                assert got.tobytes() == rowmajor_apply(M, f).tobytes()

    @pytest.mark.parametrize("n_in", [255, 256])
    def test_cache_holds_contiguous_mirror_halves(self, n_in):
        import czo.operator as op

        k = get_kernel("diamond-model")
        f = GridFunction(B8, n_in, self.inputs(n_in, 1)[1])
        dense = op._truncated(k, f, B8, 100, 1)
        R, K, R_mid, K_mid = dense.R, dense.K, dense.R_mid, dense.K_mid
        Rw = rowmajor_masked(k, grid_nodes(B8, 100), f, 0.0)[1]
        half = n_in // 2
        assert R.shape == K.shape == (2, 100, half)
        assert R.flags.c_contiguous and K.flags.c_contiguous
        assert np.array_equal(R[0], Rw[:, :half])
        assert np.array_equal(R[1], Rw[:, ::-1][:, :half])
        if n_in % 2:
            assert np.array_equal(R_mid, Rw[:, half])
        else:
            assert R_mid is None and K_mid is None

    @pytest.mark.parametrize("n_in, n_out", [(255, 255), (257, 131),
                                             (256, 100)])
    def test_odd_input_gives_positive_zeros(self, n_in, n_out):
        k = get_kernel("two-line-hilbert")
        f = GridFunction(B8, n_in, self.inputs(n_in, 3)[2])
        assert np.any(f.values != 0.0)
        for eps in (0.5, 0.1):
            got = quiet_apply(k, f, eps, out_geometry=(B8, n_out)).values
            assert got.tobytes() == np.zeros(n_out).tobytes()

    def test_threads_fill_every_row_chunk(self, monkeypatch):
        # Chunks of 3 rows, filled in place by more threads than cores.
        import czo.operator as op

        monkeypatch.setattr(op, "_CACHE_ENTRY_LIMIT", 3 * 8 * 257)
        k = get_kernel("two-line-hilbert")
        f = GridFunction(B8, 257, self.inputs(257, 5)[0])
        want = rowmajor_apply(rowmajor_masked(k, grid_nodes(B8, 131), f,
                                              0.1)[0], f)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = quiet_apply(k, f, 0.1, out_geometry=(B8, 131), threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert got.values.tobytes() == want.tobytes()

    def test_sampled_rho_keeps_each_row_chunk_in_one_call(self, monkeypatch):
        # On a box reaching past the sampled rho's base extent, row chunks
        # of four output nodes give the same bits as the row-major build.
        import czo.operator as op

        k = wavy_kernel()
        assert k.curve.branch(0).distance is None
        wide = box(-40.0, 12.0)
        monkeypatch.setattr(op, "_CACHE_ENTRY_LIMIT", 4 * 8 * 41)
        f = grid_function(wide, 41, lambda X: np.cos(X[:, 0] / 5.0))
        Xout = grid_nodes(wide, 30)
        for eps in (2.0, 0.5):
            M = np.vstack([rowmajor_masked(k, Xout[s:s + 4], f, eps)[0]
                           for s in range(0, 30, 4)])
            got = quiet_apply(k, f, eps, out_geometry=(wide, 30))
            assert got.values.tobytes() == rowmajor_apply(M, f).tobytes()

    def test_far_point_leaves_the_sampled_rows_unchanged(self):
        # A point at x = 100 in the same apply_truncated_at call does not
        # change the other rows: each pair's rho is its own.
        k = wavy_kernel()
        f = grid_function(B8, 64, lambda X: np.cos(X[:, 0]))
        x = np.vstack([grid_nodes(B8, 64)[:8], [[100.0]]])
        got = apply_truncated_at(k, f, x, 0.5)
        want = quiet_apply(k, f, 0.5).values[:8]
        assert got[:8].tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["two-line-hilbert", "diamond-model"])
    @pytest.mark.parametrize("n_out", [100, 131])
    def test_weak_type_rows_match_the_rowmajor_formula(self, name, n_out):
        k = get_kernel(name)
        family = [GridFunction(B8, 256, v) for v in self.inputs(256, n_out)]
        rep = weak_type_experiment(k, family, 0.1, 8.1, out_cells=n_out,
                                   ladder_max=4)
        assert any(r.bad_integral > 0.0 for r in rep.rows)
        for fi, f in enumerate(family):
            want = rowmajor_weak_rows(k, f, 0.1, 8.1, n_out, 4)
            got = [(r.superlevel_measure, r.ratio, r.bad_integral)
                   for r in rep.rows if r.function_index == fi]
            assert got == want


def product_entries(kernel):
    """The cached dense summations of a kernel, holding the bits of the
    latest f and its folded masked sums S, by key."""
    import czo.operator as op

    return {key: v for key, v in kernel._matrices.items()
            if isinstance(v, op._Dense)}


def folded_sums(dense, vals, eps):
    """The folded masked sums S of ``vals`` at eps from the cached
    matrices, by the row-major formula's operations."""
    half = dense.K.shape[2]
    F = np.stack((vals[:half], vals[::-1][:half]))[:, None, :]
    W = np.where(dense.R >= eps, dense.K * F, 0.0 * F)
    return W[0] + W[1]


class TestDenseProducts:
    """The dense path forms its folded masked sums S once per input and
    grid pair and, along an eps ladder, re-forms only the cells whose mask
    changed: bit for bit, never stale, and only while the matrices
    themselves are cached."""

    @pytest.mark.parametrize("n_in", [255, 256])
    def test_interleaved_ladders_match_the_rowmajor_formula(self, n_in):
        k = get_kernel("diamond-model")
        ins = [GridFunction(B8, n_in, v)
               for v in TestMirrorPairedSums.inputs(n_in, 7)[:2]]
        outs = [(B8, 100), (B8, 131)]
        want = {}
        for eps in (1.0, 0.5, 0.1):
            for f_i, f in enumerate(ins):
                for geom in outs:
                    M, _ = rowmajor_masked(k, grid_nodes(*geom), f, eps)
                    want[eps, f_i, geom] = rowmajor_apply(M, f).tobytes()
        for eps in (1.0, 0.5, 0.1):
            for f_i, f in enumerate(ins):
                for geom in outs:
                    got = quiet_apply(k, f, eps, out_geometry=geom).values
                    assert got.tobytes() == want[eps, f_i, geom]
        assert len(product_entries(k)) == len(outs)

    def test_values_changed_in_place_give_the_new_result(self):
        k = get_kernel("diamond-model")
        f = GridFunction(B8, 256, TestMirrorPairedSums.inputs(256, 8)[1])
        quiet_apply(k, f, 0.5)
        f.values[100:140] *= -3.0
        M, _ = rowmajor_masked(k, f.nodes(), f, 0.5)
        got = quiet_apply(k, f, 0.5).values
        assert got.tobytes() == rowmajor_apply(M, f).tobytes()

    def test_signed_zeros_are_told_apart(self):
        # 0.0 == -0.0, but the two give 0 f different signs: the products
        # are keyed on the bits of f, not on its values.
        k = get_kernel("diamond-model")
        x = grid_nodes(B8, 255)[:, 0]
        neg = np.where(np.abs(x) < 2.0, -np.exp(-x ** 2), -0.0)
        pos = np.where(neg == 0.0, 0.0, neg)
        assert np.array_equal(neg, pos) and neg.tobytes() != pos.tobytes()
        M, _ = rowmajor_masked(k, x[:, None], GridFunction(B8, 255, neg), 0.5)
        for vals in (neg, pos, neg):
            f = GridFunction(B8, 255, vals)
            got = quiet_apply(k, f, 0.5).values
            assert got.tobytes() == rowmajor_apply(M, f).tobytes()
            (dense,) = product_entries(k).values()
            assert dense.bits == vals.tobytes()
            assert (dense.S.tobytes()
                    == folded_sums(dense, vals, 0.5).tobytes())

    def test_ladder_forms_the_products_once_per_input(self, monkeypatch):
        import czo.operator as op

        # S is formed afresh when the cached bits are a new object; along
        # a ladder it is only re-formed where a mask changed, from one
        # order of the cells by rho.
        formed, orders = [], []
        inner = op.apply_truncated

        def recording(*a):
            out = inner(*a)
            (dense,) = product_entries(k).values()
            if not any(dense.bits is bits for bits in formed):
                formed.append(dense.bits)
            if not any(dense.order is order for order in orders):
                orders.append(dense.order)
            assert (dense.S.tobytes()
                    == folded_sums(dense, a[1].values, a[2]).tobytes())
            return out

        monkeypatch.setattr(op, "apply_truncated", recording)
        k = get_kernel("diamond-model")
        one, two = (GridFunction(B8, 256, v)
                    for v in TestMirrorPairedSums.inputs(256, 9)[1:])
        ladder = [1.0, 0.5, 0.25, 0.1]
        estimate_T0(k, one, ladder)
        assert len(formed) == 1
        estimate_T0(k, two, ladder)
        assert len(formed) == 2
        (dense,) = product_entries(k).values()
        assert dense.bits == two.values.tobytes()
        recording(k, one, 0.5)
        assert len(formed) == 3
        # The first apply built no order; one order served both ladders.
        assert orders[0] is None and len(orders) == 2
        assert dense.top == 1.0
        recording(k, one, 2.0)
        assert len(formed) == 3 and len(orders) == 3 and dense.top == 2.0

    @staticmethod
    def eps_walk(R, rng, steps):
        """A random eps walk from 1.0: down, up, repeated, an attained rho,
        its neighbours on either side, above every rho, below every
        positive rho."""
        pos = R[R > 0.0]
        eps = 1.0
        for _ in range(steps):
            move = rng.integers(8)
            if move < 3:
                eps = eps * rng.uniform(0.6, 1.0) ** (1 - move)
            elif move < 6:
                at = pos[rng.integers(len(pos))]
                eps = float(np.nextafter(at, (0.0, at, math.inf)[move - 3]))
            else:
                eps = (5e-324, 2.0 * float(np.max(R)))[move - 6]
            yield max(eps, 5e-324)

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("n_in, n_out", [(255, 255), (256, 256),
                                             (257, 131), (256, 100)])
    def test_eps_walks_match_a_fresh_summation(self, sampled, n_in, n_out):
        # Every step of the cached summation, and its folded sums, equal
        # bit for bit a full pass on an object with no input, for any
        # order of eps.
        import czo.operator as op

        k = wavy_kernel() if sampled else get_kernel("diamond-model")
        Xout = grid_nodes(B8, n_out)
        rng = np.random.default_rng([n_in, n_out, sampled])
        x = grid_nodes(B8, n_in)[:, 0]
        signed = np.where(rng.random(n_in) < 0.5, 0.0, -0.0)
        middle = np.full(n_in, -0.0)
        middle[n_in // 2] = 1.5
        inputs = [np.where(np.abs(x - 0.7) <= 2.0, rng.normal(size=n_in),
                           signed),
                  np.full(n_in, -0.0), middle, np.exp(-(x + 0.4) ** 2)]
        f = GridFunction(B8, n_in, inputs[0])
        dense, fresh = op._Dense(k, Xout, f, 1), op._Dense(k, Xout, f, 1)
        for i, vals in enumerate(inputs):
            f = GridFunction(B8, n_in, vals.copy())
            for eps in self.eps_walk(dense.R, rng, 33):
                if i == 3 and rng.random() < 0.2:
                    f.values[rng.integers(n_in)] = rng.choice([-0.0, 2.5])
                fresh.bits = None
                want, _ = fresh(f, eps, 1)
                assert dense(f, eps, 1)[0].tobytes() == want.tobytes()
                assert dense.S.tobytes() == fresh.S.tobytes()

    def test_a_step_changing_every_cell_matches_a_fresh_summation(self):
        # For a full-support input, from an eps above every rho to one below
        # every positive rho, the first step re-forms every folded
        # position, more than 2 _BAND_BLOCK of them, so the chunk loop runs
        # three times.
        import czo.operator as op

        k = get_kernel("diamond-model")
        n = 520
        f = GridFunction(B8, n, TestMirrorPairedSums.inputs(n, 13)[1])
        dense, fresh = (op._Dense(k, grid_nodes(B8, n), f, 1)
                        for _ in range(2))
        top = 2.0 * float(np.max(dense.R))
        walk = [top, 5e-324, 0.3, top, 1.0, 5e-324]
        for i, eps in enumerate(walk):
            fresh.bits = None
            want, _ = fresh(f, eps, 1)
            assert dense(f, eps, 1)[0].tobytes() == want.tobytes()
            assert dense.S.tobytes() == fresh.S.tobytes()
            if i == 1:
                a, b = dense.rho.searchsorted((eps, top))
                assert b - a > 2 * op._BAND_BLOCK

    def test_one_shot_applies_build_no_order(self, monkeypatch):
        import czo.operator as op

        k = get_kernel("diamond-model")
        one, two = (GridFunction(B8, 256, v)
                    for v in TestMirrorPairedSums.inputs(256, 12)[:2])
        for f, eps in ((one, 0.5), (one, 0.5), (two, 0.25)):
            quiet_apply(k, f, eps)
        (dense,) = product_entries(k).values()
        assert dense.order is None
        built = []
        build = op._Dense.__init__
        monkeypatch.setattr(op._Dense, "__init__",
                            lambda s, *a: built.append(s) or build(s, *a))
        apply_truncated_at(k, one, grid_nodes(B8, 17), 0.5)
        assert len(built) == 1 and built[0].order is None
        # Nor the rho-ordered copies of rho and K that a ladder step reads.
        assert not hasattr(dense, "ranked") and not hasattr(built[0], "ranked")

    @pytest.mark.parametrize("sampled", [False, True])
    def test_interleaved_inputs_match_a_fresh_summation(self, sampled):
        # Three inputs share one eps ladder on one cached summation: each
        # walks the whole ladder in turn, then they take turns at every eps,
        # then one steps above the order's top, which rebuilds the order and
        # the rho-ordered copies, and the others walk the ladder again.
        # Each output is filled with 7.0 once compared, and every apply
        # gives the bits of a full pass on a fresh kernel's summation.
        import czo.operator as op

        n = 128
        make = wavy_kernel if sampled else lambda: get_kernel("diamond-model")
        k, fresh = make(), op._Dense(make(), grid_nodes(B8, n),
                                     GridFunction(B8, n, np.zeros(n)), 1)
        fs = [GridFunction(B8, n, v)
              for v in TestMirrorPairedSums.inputs(n, 14)[:3]]
        ladder = [float(e) for e in 1.27 * 0.82 ** np.arange(16)]

        def check(f, eps):
            got = quiet_apply(k, f, eps)
            fresh.bits = None
            assert got.values.tobytes() == fresh(f, eps, 1)[0].tobytes()
            got.values.fill(7.0)

        for f in fs:
            for eps in ladder:
                check(f, eps)
        for eps in ladder[::-1]:
            for f in fs:
                check(f, eps)
        (dense,) = product_entries(k).values()
        ranked = dense.ranked
        for f, walk in zip(fs, ([ladder[-1], 3.0], ladder, ladder[::-1])):
            for eps in walk:
                check(f, eps)
        assert dense.top == 3.0 and dense.ranked is not ranked
        assert dense.ranked.shape == (4, dense.order.shape[1])
        assert dense.ranked.flags.c_contiguous

    def test_apply_truncated_at_stores_nothing(self):
        k = get_kernel("diamond-model")
        f = GridFunction(B8, 64, TestMirrorPairedSums.inputs(64, 10)[1])
        apply_truncated_at(k, f, grid_nodes(B8, 17), 0.5)
        assert k._matrices == {}

    def test_products_are_not_kept_without_the_matrices(self, monkeypatch):
        import czo.operator as op

        monkeypatch.setattr(op, "_CACHE_ENTRY_LIMIT", 100 * 256 - 1)
        k = get_kernel("diamond-model")
        f = GridFunction(B8, 256, TestMirrorPairedSums.inputs(256, 11)[1])
        for eps in (1.0, 0.5):
            M, _ = rowmajor_masked(k, grid_nodes(B8, 100), f, eps)
            got = quiet_apply(k, f, eps, out_geometry=(B8, 100)).values
            assert got.tobytes() == rowmajor_apply(M, f).tobytes()
        assert k._matrices == {}

    def test_dropped_cells_raise_no_overflow_warning(self):
        # K f overflows on the cells next to the diagonal, all of which the
        # mask drops; the kept terms and their sums stay finite.
        kernel = KernelSpec("steep", get_curve("diagonal"),
                            lambda X, Y, r: r ** -30.0, 1.0, 1.0)
        f = GridFunction(B8, 256, np.full(256, 1e300))
        X = grid_nodes(B8, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for eps in (2.0, 1.0):
                want = rowmajor_apply(rowmajor_masked(kernel, X, f, eps)[0],
                                      f)
                got = apply_truncated(kernel, f, eps, out_geometry=(B8, 100))
                assert got.values.tobytes() == want.tobytes()
                assert np.all(np.isfinite(got.values))
                got = apply_truncated_at(kernel, f, X, eps)
                assert got.tobytes() == want.tobytes()


class TestPmapChunks:
    @staticmethod
    def parts(a, b):
        return np.arange(a, b) * 0.1

    @pytest.mark.parametrize("total", [1, 7, 8])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_chunk_gives_the_concatenated_bits(self, total, threads):
        from czo.util import pmap_chunks

        calls = []
        got = pmap_chunks(lambda a, b: calls.append((a, b))
                          or self.parts(a, b), total, 8, threads)
        want = np.concatenate([self.parts(0, total)])
        assert calls == [(0, total)]
        assert got.tobytes() == want.tobytes()

    def test_empty_range_gives_an_empty_array(self):
        from czo.util import pmap_chunks

        for threads in (1, 2):
            got = pmap_chunks(lambda a, b: pytest.fail("called"), 0, 8,
                              threads)
            assert got.shape == (0,) and got.dtype == float

    def test_several_chunks_concatenate_in_order(self):
        from czo.util import pmap_chunks

        got = pmap_chunks(self.parts, 19, 8, 2)
        assert got.tobytes() == self.parts(0, 19).tobytes()


class TestEstimateT0:
    def test_rejects_non_decreasing(self):
        f = grid_function(B8, 64, lambda X: np.ones(len(X)))
        with pytest.raises(RejectedInputError):
            estimate_T0(get_kernel("hilbert"), f, [0.25, 0.5])

    def test_zero_function_all_zero(self):
        f = grid_function(B8, 64, lambda X: np.zeros(len(X)))
        out, rep = estimate_T0(get_kernel("hilbert"), f, [0.5, 0.25, 0.125])
        assert np.all(out.values == 0.0)
        assert rep.sup_diffs == [0.0, 0.0]

    def test_smooth_bump_is_cauchy(self):
        f = grid_function(B8, 1024, lambda X: np.exp(-X[:, 0] ** 2))
        _, rep = estimate_T0(get_kernel("two-line-hilbert"), f,
                             [0.5, 0.25, 0.125, 0.0625, 0.03125])
        d = rep.sup_diffs
        assert all(d[k + 1] <= d[k] * (1.0 + 1e-9)
                   for k in range(1, len(d) - 1))

    @pytest.mark.parametrize("threads", [0, -3, 2.5])
    def test_rejects_a_bad_thread_count(self, threads):
        f = grid_function(B8, 64, lambda X: np.ones(len(X)))
        with pytest.raises(RejectedInputError, match="threads"):
            estimate_T0(get_kernel("hilbert"), f, [1.0, 0.5],
                        threads=threads)

    def test_unreliable_epsilons_flagged(self):
        f = grid_function(B8, 64, lambda X: np.ones(len(X)))  # h = 0.25
        _, rep = estimate_T0(get_kernel("hilbert"), f, [0.5, 0.1])
        assert rep.unreliable == [False, True]

    def test_only_the_coarse_eps_warning_is_ignored(self):
        # Both eps lie below 4h = 1.0, where apply_truncated warns; the
        # ladder ignores that warning and no other, so a RuntimeWarning
        # that T_eps raises (here from the kernel, on the dense path's
        # first apply) reaches the caller.
        def fn(X, Y, r):
            warnings.warn("raised inside T_eps", RuntimeWarning)
            return 1.0 / r

        def noisy():
            return KernelSpec("noisy", get_curve("diagonal"), fn, 1.0, 1.0)

        f = grid_function(B8, 64, lambda X: np.exp(-X[:, 0] ** 2))
        with pytest.warns(UserWarning, match="epsilon below 4 cell widths"):
            apply_truncated(get_kernel("hilbert"), f, 0.5)
        for kernel, want in ((get_kernel("hilbert"), []),
                             (noisy(), ["raised inside T_eps"])):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                estimate_T0(kernel, f, [0.5, 0.25])
            assert [str(w.message) for w in seen] == want
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="inside T_eps"):
                estimate_T0(noisy(), f, [0.5, 0.25])


class TestApplyMultiplier:
    def test_identity_multiplier(self):
        curve = get_curve("two-lines")
        f = grid_function(B8, 128, lambda X: np.sin(X[:, 0]))
        mf = multiplier_field(curve, B8, 128, [1.0, 0.0])
        out = apply_multiplier(curve, mf, f)
        assert np.array_equal(out.values, f.values)

    def test_parity_flip(self):
        curve = get_curve("two-lines")
        f = grid_function(B8, 128, lambda X: np.sin(X[:, 0]))
        mf = multiplier_field(curve, B8, 128, [0.0, 1.0])
        out = apply_multiplier(curve, mf, f)
        assert np.allclose(out.values, f.values[::-1], atol=1e-12)

    def test_diamond_indicator_substitution(self):
        curve = get_curve("diamond")
        nodes = grid_nodes(B8, 512)[:, 0]
        f = GridFunction(B8, 512, ((nodes >= 0) & (nodes <= 1)).astype(float))
        mf = multiplier_field(curve, B8, 512, [1.0, 1.0, 0.0])
        out = apply_multiplier(curve, mf, f)
        inside = np.abs(nodes) <= 1.0 - 1e-9
        # 1 - |x| in [0,1] and |x| - 1 in [-1,0]: exactly one term fires.
        assert np.all(out.values[inside] == pytest.approx(1.0, abs=1e-9))
        assert np.all(out.values[~inside] == 0.0)


    def test_box_of_another_dimension_is_rejected(self):
        with pytest.raises(RejectedInputError, match=r"box has 2 axes but "
                           r"the curve 'two-lines' has 1"):
            multiplier_field(get_curve("two-lines"), B88, 16, [1.0, 0.0])

    @pytest.mark.parametrize("bx, n, rule", [
        (B8, 0, "at least one cell"),
        (box(0.0, 0.0), 16, "zero volume"),
        (box(-math.inf, math.inf), 16, "bounded box"),
    ])
    def test_bad_grid_is_rejected(self, bx, n, rule):
        # A zero-width field once came back with every node uncovered.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RejectedInputError, match=rule):
                multiplier_field(get_curve("two-lines"), bx, n, [1.0, 0.0])

    def test_branch_whose_domain_misses_the_grid(self):
        # The diamond's flat branch lives on |x| >= 1, off -0.5..0.5.
        curve, bx = get_curve("diamond"), box(-0.5, 0.5)
        f = grid_function(box(-2.0, 2.0), 64, lambda X: 1.0 + X[:, 0] ** 2)
        mf = multiplier_field(curve, bx, 8, [1.0, 0.0, 5.0])
        assert not mf.support[2].any()
        out = apply_multiplier(curve, mf, f)
        want, _ = interpolate(f, 1.0 - np.abs(mf.nodes()))
        assert np.array_equal(out.values, want)

    @pytest.mark.parametrize("funcs", [[1.0], [1.0, 0.0, 0.0]])
    def test_wrong_multiplier_count_is_rejected(self, funcs):
        with pytest.raises(RejectedInputError,
                           match="expected 2 multiplier functions"):
            multiplier_field(get_curve("two-lines"), B8, 16, funcs)

    @pytest.mark.parametrize("funcs", [[math.inf, 0.0], [0.0, math.nan],
                                       [lambda X: X[:, 0] / 0.0, 1.0]],
                             ids=["inf", "nan", "callable"])
    def test_non_finite_multiplier_is_rejected(self, funcs):
        with np.errstate(all="ignore"), pytest.raises(
                RejectedInputError, match=r"multiplier b_[01] of curve "
                r"'two-lines' is not finite"):
            multiplier_field(get_curve("two-lines"), B8, 16, funcs)

    def test_multiplier_may_blow_up_off_its_domain(self):
        # Only values inside D_i are checked: off it they are zeroed first.
        off = lambda X: np.where(np.abs(X[:, 0]) <= 1.0, 1.0, math.inf)
        mf = multiplier_field(get_curve("diamond"), B8, 128,
                              [off, off, 2.0])
        assert np.all(np.isfinite(mf.fields))


def zero_operator(f):
    return f.with_values(np.zeros_like(f.values))


class TestRecovery:
    def test_roundtrip_indicator_fields(self):
        curve = get_curve("two-lines")
        part = build_partition(curve, max_depth=8)
        mf = multiplier_field(curve, B8, 256, [1.0, 0.0])
        rec = recover_multipliers(multiplier_handle(curve, mf), curve, part,
                                  B8, 256)
        assert np.max(np.abs(rec.fields - mf.fields)[rec.covered]) <= 1e-9

    def test_roundtrip_smooth_fields(self):
        curve = get_curve("two-lines")
        part = build_partition(curve, max_depth=8)
        mf = multiplier_field(curve, B8, 256,
                              [1.0, lambda X: np.sin(X[:, 0])])
        rec = recover_multipliers(multiplier_handle(curve, mf), curve, part,
                                  B8, 256)
        h = 16.0 / 256
        assert np.max(np.abs(rec.fields - mf.fields)[rec.covered]) <= 2 * h

    def test_zero_operator_recovers_zero(self):
        curve = get_curve("two-lines")
        part = build_partition(curve, max_depth=6)
        rec = recover_multipliers(zero_operator, curve, part,
                                  B8, 128)
        assert np.all(rec.fields == 0.0)

    def test_box_of_another_dimension_is_rejected(self):
        curve = get_curve("two-lines")
        with pytest.raises(RejectedInputError, match=r"box has 2 axes but "
                           r"the curve 'two-lines' has 1"):
            recover_multipliers(zero_operator, curve,
                                build_partition(curve, max_depth=4), B88, 16)

    def test_operator_that_changes_the_grid_is_rejected(self):
        curve = get_curve("two-lines")

        def refine(f):
            return GridFunction(f.box, 2 * f.cells_per_axis,
                                np.repeat(f.values, 2))

        with pytest.raises(ConsistencyError, match="changed the grid"):
            recover_multipliers(refine, curve,
                                build_partition(curve, max_depth=4), B8, 16)

    def test_overlapping_branches_rejected(self):
        # Two identity branches send every node into the one cube [0, 1].
        def identity(index):
            return CurveBranch(index=index, domain=whole_space(1),
                               forward=lambda X: X.copy(),
                               inverse=lambda Y: Y.copy(),
                               jacobian=lambda X: np.ones(len(X)),
                               lipschitz=1.0)
        curve = HyperCurve("double", [identity(0), identity(1)])
        part = BranchDisjointPartition(curve, [DyadicCube(0, (0,))], [],
                                       probabilistic=False)
        with pytest.raises(ConsistencyError,
                           match=r"node \(.*0\.125.*\) into the same "):
            recover_multipliers(zero_operator, curve, part,
                                box(0.0, 1.0), 4)

    def test_overlap_message_prints_the_node_as_plain_floats(self):
        def identity(index):
            return CurveBranch(index=index, domain=whole_space(1),
                               forward=lambda X: X.copy(),
                               inverse=lambda Y: Y.copy(),
                               jacobian=lambda X: np.ones(len(X)),
                               lipschitz=1.0)
        curve = HyperCurve("double", [identity(0), identity(1)])
        part = BranchDisjointPartition(curve, [DyadicCube(0, (0,))], [],
                                       probabilistic=False)
        with pytest.raises(ConsistencyError) as err:
            recover_multipliers(zero_operator, curve, part,
                                box(0.0, 1.0), 4)
        assert "node (0.125,) into the same" in str(err.value)
        assert "np.float64" not in str(err.value)


class TestMultiplierBound:
    def test_constant_fields_pass(self):
        curve = get_curve("two-lines")
        mf = multiplier_field(curve, B8, 128, [1.0, 0.0])
        rep = multiplier_bound_check(curve, mf, 1.0)
        assert rep.passed and rep.supremum == 1.0

    def test_sine_field_passes_cap_one(self):
        curve = get_curve("two-lines")
        mf = multiplier_field(curve, B8, 512,
                              [0.0, lambda X: np.sin(X[:, 0])])
        rep = multiplier_bound_check(curve, mf, 1.0)
        assert rep.passed
        assert rep.supremum == pytest.approx(1.0, abs=1e-3)

    def test_linear_field_fails(self):
        curve = get_curve("two-lines")
        mf = multiplier_field(curve, B8, 512, [lambda X: X[:, 0], 0.0])
        rep = multiplier_bound_check(curve, mf, 1.0)
        assert not rep.passed
        assert rep.supremum == pytest.approx(64.0, rel=1e-2)

    def test_branch_without_a_node_has_supremum_zero(self):
        # diamond's flat branch lives on |x| >= 1, so no node of a box
        # inside (-0.5, 0.5) is in its domain.
        curve = get_curve("diamond")
        mf = multiplier_field(curve, box(-0.25, 0.25), 16, [1.0, 1.0, 5.0])
        assert not np.any(mf.support[2])
        rep = multiplier_bound_check(curve, mf, 1.0)
        assert rep.per_branch[2] == 0.0
        assert rep.passed and rep.supremum == 1.0

    def test_cap_must_be_positive(self):
        curve = get_curve("two-lines")
        mf = multiplier_field(curve, B8, 16, [1.0, 0.0])
        with pytest.raises(RejectedInputError):
            multiplier_bound_check(curve, mf, 0.0)
