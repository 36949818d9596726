import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import czo.kernels as kernels_module
from czo.errors import RegistryError, RejectedInputError
from czo.kernels import (_BOX_FACTOR, _RHO_FLOOR, KERNEL_NAMES,
                         audit_regularity, audit_size, _rho_and_kernel,
                         get_kernel, hormander_constant)
from czo.metric import _CHUNK, rho_values
from czo.util import audit_pairs
from test_operator import riesz_2d, wavy_kernel

SQ2 = math.sqrt(2.0)
# Closed-form value of the smoothness integral for the 1/(x-y) kernel with
# the curve-distance truncation rho >= 2|y-z|.
HORMANDER_EXACT = math.log((2 * SQ2 + 1) / (2 * SQ2 - 1))


class TestRegistry:
    def test_names(self):
        assert set(KERNEL_NAMES) == {"hilbert", "two-line-hilbert",
                                     "diamond-model"}

    def test_miss(self):
        with pytest.raises(RegistryError):
            get_kernel("bogus")


def rho_and_kernel_at(name, x, y):
    return _rho_and_kernel(get_kernel(name), np.array([[x]]), np.array([[y]]))


class TestEvaluation:
    def test_hilbert_value(self):
        assert rho_and_kernel_at("hilbert", 2.0, 1.0)[1][0] == 1.0

    def test_two_line_value(self):
        assert rho_and_kernel_at("two-line-hilbert", 2.0, 1.0)[1][0] == \
            pytest.approx(1.0 + 1.0 / 3.0)

    @pytest.mark.parametrize("name, y", [("hilbert", 1.0),
                                         ("two-line-hilbert", -1.0)])
    def test_kernel_is_zero_on_the_curve(self, name, y):
        # (1, -1) lies on the second line of two-line-hilbert's curve.
        R, K = rho_and_kernel_at(name, 1.0, y)
        assert R[0] < 1e-12
        assert K[0] == 0.0


class TestSizeAudit:
    def test_hilbert_supremum_is_constant(self):
        rep = audit_size(get_kernel("hilbert"), 5000, seed=0)
        assert rep.supremum == pytest.approx(1.0 / SQ2, abs=1e-4)
        assert rep.passed

    def test_two_line_supremum_attained_near_axis(self):
        rep = audit_size(get_kernel("two-line-hilbert"), 20000, seed=0)
        assert rep.supremum == pytest.approx(SQ2, abs=1e-3)
        assert rep.passed
        # The annealer must have driven y toward the crossing axis.
        assert abs(rep.witness[1][0]) < 0.2

    def test_diamond_supremum(self):
        rep = audit_size(get_kernel("diamond-model"), 5000, seed=0)
        assert rep.supremum == pytest.approx(1.0, abs=1e-6)
        assert rep.passed

    def test_rejects_tiny_sample(self):
        with pytest.raises(RejectedInputError):
            audit_size(get_kernel("hilbert"), 3)

    def test_witness_holds_plain_floats(self):
        x, y = audit_size(get_kernel("hilbert"), 200, seed=0).witness
        assert all(type(v) is float for v in x + y)
        assert "np.float64" not in repr((x, y))


class TestRegularityAudit:
    def test_hilbert_constant_value(self):
        # sup |K(x,y)-K(x,y')| rho^2 / |y-y'| over |y-y'| <= rho/2 equals
        # 1/(2 - 1/sqrt(2)), the declared regularity constant; the estimate
        # is sharp and the audit passes against that constant.
        rep = audit_regularity(get_kernel("hilbert"), 5000, seed=1)
        assert rep.supremum == pytest.approx(1.0 / (2.0 - 1.0 / SQ2),
                                             rel=1e-3)
        assert rep.passed

    def test_estimate_stable_under_doubling(self):
        k = get_kernel("hilbert")
        a = audit_regularity(k, 4000, seed=1).supremum
        b = audit_regularity(k, 8000, seed=2).supremum
        assert abs(a - b) / a < 0.05

    @pytest.mark.parametrize("name,constant", [
        ("hilbert", 1.0 / (2.0 - 1.0 / SQ2)),
        ("two-line-hilbert", 2.0 / (2.0 - 1.0 / SQ2)),
    ])
    def test_audited_against_declared_constant(self, name, constant):
        k = get_kernel(name)
        assert k.regularity_constant == constant
        rep = audit_regularity(k, 20000, seed=7)
        assert rep.bound == constant
        assert rep.passed

    @pytest.mark.parametrize("name", ["hilbert", "two-line-hilbert"])
    def test_fails_with_a_constant_slightly_too_small(self, name):
        k = get_kernel(name)
        small = dataclasses.replace(
            k, regularity_constant=0.999 * k.regularity_constant)
        rep = audit_regularity(small, 20000, seed=7)
        assert rep.bound == small.regularity_constant
        assert not rep.passed

    def test_undeclared_constant_is_not_audited(self):
        assert get_kernel("diamond-model").regularity_constant is None
        with pytest.raises(RejectedInputError):
            audit_regularity(get_kernel("diamond-model"), 1000, seed=0)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sample_count_below_one_rejected(self, samples):
        # Without samples the supremum would be 0.0, a vacuous pass.
        with pytest.raises(RejectedInputError, match="sample_count"):
            audit_regularity(get_kernel("hilbert"), samples)

    def test_both_argument_sides_estimated(self):
        rep = audit_regularity(get_kernel("two-line-hilbert"), 3000, seed=0)
        assert rep.supremum_y > 0 and rep.supremum_x > 0

    @staticmethod
    def inline_audit(kernel, sample_count, seed):
        """The audit computed inline: rho_values, then kernel.fn on the
        pairs with rho >= 1e-6, then the rho >= floor mask per side."""
        rng = np.random.default_rng(seed)
        n, d = kernel.dim, kernel.delta
        X, Y = audit_pairs(rng, sample_count, n)
        r, _ = rho_values(kernel.curve, X, Y)
        ok = r >= 1e-6
        X, Y, r = X[ok], Y[ok], r[ok]
        base = kernel.fn(X, Y, r)
        dirs = rng.normal(size=X.shape)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sups = [0.0, 0.0]
        for frac in (0.5, 0.25, 0.125, 0.03125):
            h = (frac * r)[:, None] * dirs
            step = frac * r
            for side, (Xp, Yp) in enumerate(((X, Y + h), (X + h, Y))):
                rp, _ = rho_values(kernel.curve, Xp, Yp)
                good = rp >= _RHO_FLOOR
                if np.any(good):
                    kp = kernel.fn(Xp[good], Yp[good], rp[good])
                    ratio = (np.abs(base[good] - kp) * r[good] ** (n + d)
                             / step[good] ** d)
                    sups[side] = max(sups[side], float(np.max(ratio)))
        return max(sups), *sups

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("name", ["hilbert", "two-line-hilbert"])
    def test_equals_the_inline_computation_bit_for_bit(self, name, seed):
        k = get_kernel(name)
        rep = audit_regularity(k, 20000, seed=seed)
        got = (rep.supremum, rep.supremum_y, rep.supremum_x)
        assert [v.hex() for v in got] == [
            v.hex() for v in self.inline_audit(k, 20000, seed)]
        assert (rep.bound, rep.delta, rep.sample_count) == (
            k.regularity_constant, k.delta, 20000)
        assert rep.passed == (rep.supremum <= rep.bound * (1.0 + 1e-6))


class TestHormander:
    def test_matches_closed_form(self):
        rep = hormander_constant(get_kernel("hilbert"), z=1.0,
                                 grid_points=1 << 17)
        assert rep.value_total == pytest.approx(HORMANDER_EXACT, rel=2e-3)
        assert rep.tail > 0.0

    def test_scale_invariance(self):
        # Down to |y - z| = _RHO_FLOOR, the least separation accepted.
        k = get_kernel("hilbert")
        vals = [hormander_constant(k, z=a, grid_points=1 << 16).value_total
                for a in (_RHO_FLOOR, 0.1, 1.0, 10.0)]
        assert max(vals) / min(vals) - 1.0 < 0.01

    def test_transpose_matches_for_symmetric_metric(self):
        k = get_kernel("hilbert")
        a = hormander_constant(k, z=2.0, grid_points=1 << 14)
        b = hormander_constant(k, z=2.0, grid_points=1 << 14, transpose=True)
        assert a.value_total == pytest.approx(b.value_total, rel=1e-9)

    def test_kernel_of_two_dimensions_rejected(self):
        with pytest.raises(RejectedInputError, match="n=1"):
            hormander_constant(riesz_2d(), z=1.0)

    def test_coincident_points_rejected(self):
        with pytest.raises(RejectedInputError):
            hormander_constant(get_kernel("hilbert"), y=1.0, z=1.0)

    @pytest.mark.parametrize("y, z", [(0.0, 7e-13), (0.0, 1e-13),
                                      (0.0, 1e-200), (1.0, 1.0 + 2e-16)])
    def test_separation_below_the_rho_floor_rejected(self, y, z):
        # Below the floor K is zeroed at nodes the integral needs: hilbert
        # returned 0.273 for 0.739 at 1e-13, and 0.0 at 1e-200.
        with pytest.raises(RejectedInputError, match="rho floor"):
            hormander_constant(get_kernel("hilbert"), y=y, z=z)

    @pytest.mark.parametrize("y, z", [(0.0, 1e300), (0.0, 4.9e156),
                                      (-1e308, 1e308)])
    def test_separation_beyond_the_tail_grid_rejected(self, y, z):
        # The first tail node's u ** 2 underflowed to 0: two divisions by
        # zero and a total of inf.  |y - z| = inf (from -1e308 and 1e308)
        # leaves no tail grid at all.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RejectedInputError,
                               match=r"above about 4\.854e\+156, .* 1024 tail"):
                hormander_constant(get_kernel("two-line-hilbert"), y=y, z=z,
                                   grid_points=1 << 16)

    def test_diagonal_keeps_its_value_near_the_tail_limit(self):
        # diagonal's rho squared x - y, which overflows past about 1.3e154:
        # hilbert gave 1.9293521 at 1e154 for 0.7390842 at 1.
        k = get_kernel("hilbert")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = hormander_constant(k, z=1e154, grid_points=1 << 16)
        near = hormander_constant(k, z=1.0, grid_points=1 << 16)
        assert far.value_total == pytest.approx(near.value_total, rel=1e-9)

    def test_largest_separations_keep_their_bits(self):
        k = get_kernel("two-line-hilbert")
        rep = hormander_constant(k, z=1e154, grid_points=1 << 16)
        assert rep.value_total == 0.2671237970569726
        assert math.isfinite(hormander_constant(k, z=4.8e156,
                                                grid_points=1 << 16).tail)


def one_shot_hormander(kernel, y, z, grid_points, transpose):
    """hormander_constant as it was before its integrand was streamed:
    every node and temporary of the box and of each tail at once."""
    sep = abs(z - y)
    ya = np.array([[float(y)]])
    za = np.array([[float(z)]])

    def diff(xs):
        X = xs.reshape(-1, 1)
        Yv = np.broadcast_to(ya, X.shape)
        Zv = np.broadcast_to(za, X.shape)
        pairs = ((Yv, X), (Zv, X)) if transpose else ((X, Yv), (X, Zv))
        (r1, k1), (_, k2) = (_rho_and_kernel(kernel, A, B) for A, B in pairs)
        return np.where(r1 >= 2.0 * sep, np.abs(k1 - k2), 0.0)

    H = _BOX_FACTOR * sep
    h = 2.0 * H / grid_points
    xs = -H + h * (np.arange(grid_points) + 0.5)
    value_box = float(np.sum(diff(xs)) * h)
    m = max(1024, grid_points // 64)
    hu = (1.0 / H) / m
    us = hu * (np.arange(m) + 0.5)
    tail = float(np.sum(diff(1.0 / us) / us ** 2) * hu)
    tail += float(np.sum(diff(-1.0 / us) / us ** 2) * hu)
    return value_box + tail, value_box, tail


HORMANDER_KERNELS = {"hilbert": lambda: get_kernel("hilbert"),
                     "two-line-hilbert": lambda: get_kernel("two-line-hilbert"),
                     "sampled-rho": wavy_kernel}


def hex_fields(rep):
    return (rep.value_total.hex(), rep.value_box.hex(), rep.tail.hex(),
            rep.separation.hex(), rep.grid_points)


class TestStreamedHormander:
    """The integrand is formed in fixed chunks of nodes and summed once over
    the assembled array, so every field keeps the one-shot bits."""

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("grid", [1, _CHUNK - 1, _CHUNK + 1,
                                      3 * _CHUNK + 7])
    @pytest.mark.parametrize("name", sorted(HORMANDER_KERNELS))
    def test_fields_equal_the_one_shot_quadrature(self, name, grid,
                                                  transpose):
        k = HORMANDER_KERNELS[name]()
        rep = hormander_constant(k, y=0.5, z=1.75, grid_points=grid,
                                 transpose=transpose)
        total, box_part, tail = one_shot_hormander(k, 0.5, 1.75, grid,
                                                   transpose)
        assert hex_fields(rep) == (total.hex(), box_part.hex(), tail.hex(),
                                   (1.25).hex(), grid)

    def test_tails_in_several_chunks(self, monkeypatch):
        # At the real chunk a tail of max(1024, N / 64) nodes spans several
        # chunks only from N = 2^20 + 64 on; a chunk of 1000 splits both
        # the box and the tails here, each with a short last chunk.
        monkeypatch.setattr(kernels_module, "_CHUNK", 1000)
        k = get_kernel("two-line-hilbert")
        rep = hormander_constant(k, z=1.0, grid_points=1 << 18)
        total, box_part, tail = one_shot_hormander(k, 0.0, 1.0, 1 << 18,
                                                   False)
        assert hex_fields(rep)[:3] == (total.hex(), box_part.hex(),
                                       tail.hex())

    def test_memory_is_about_one_array_of_node_values(self):
        # At 2^20 nodes one array of values is 8 MiB; holding every node and
        # temporary at once peaked at 72.0 MB.
        k = get_kernel("two-line-hilbert")
        hormander_constant(k, z=1.0, grid_points=1024)
        tracemalloc.start()
        try:
            hormander_constant(k, z=1.0, grid_points=1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 << 20
