import dataclasses
import math

import numpy as np
import pytest

from czo.errors import RegistryError, RejectedInputError
from czo.kernels import (KERNEL_NAMES, audit_regularity, audit_size,
                         _rho_and_kernel, get_kernel, hormander_constant)

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

    def test_both_argument_sides_estimated(self):
        rep = audit_regularity(get_kernel("two-line-hilbert"), 3000, seed=0)
        assert rep.supremum_y > 0 and rep.supremum_x > 0


class TestHormander:
    def test_matches_closed_form(self):
        rep = hormander_constant(get_kernel("hilbert"), z=1.0,
                                 grid_points=1 << 17)
        assert rep.value_total == pytest.approx(HORMANDER_EXACT, rel=2e-3)
        assert rep.tail > 0.0

    def test_scale_invariance(self):
        k = get_kernel("hilbert")
        vals = [hormander_constant(k, z=a, grid_points=1 << 16).value_total
                for a in (0.1, 1.0, 10.0)]
        assert max(vals) / min(vals) - 1.0 < 0.01

    def test_transpose_matches_for_symmetric_metric(self):
        k = get_kernel("hilbert")
        a = hormander_constant(k, z=2.0, grid_points=1 << 14)
        b = hormander_constant(k, z=2.0, grid_points=1 << 14, transpose=True)
        assert a.value_total == pytest.approx(b.value_total, rel=1e-9)

    def test_coincident_points_rejected(self):
        with pytest.raises(RejectedInputError):
            hormander_constant(get_kernel("hilbert"), y=1.0, z=1.0)
