import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from czo.curves import get_curve
from czo.errors import CurveValidityError, RegistryError, RejectedInputError
from czo.geometry import (Box, CurveBranch, DyadicCube, HyperCurve, box,
                          region, validate_curve,
                          whole_space)


class TestBox:
    def test_measure_and_side(self):
        b = Box((0.0, -1.0), (2.0, 1.0))
        assert b.measure() == 4.0
        assert b.side() == 2.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((math.nan,), (0.0,))

    def test_distance_euclidean(self):
        b = box((0.0, 0.0), (1.0, 1.0))
        d = b.distance(np.array([[2.0, 2.0]]))
        assert d[0] == pytest.approx(math.sqrt(2.0))
        assert b.distance(np.array([[0.5, 0.5]]))[0] == 0.0

    def test_intersection(self):
        a = box(0.0, 2.0)
        b = box(1.0, 3.0)
        assert a.intersection(b) == box(1.0, 2.0)
        assert a.intersection(box(5.0, 6.0)) is None

    def test_unbounded_clip(self):
        w = whole_space(1).boxes[0]
        assert not w.is_bounded
        assert w.clipped(8.0) == box(-8.0, 8.0)


class TestRegion:
    def test_clamp_nearest(self):
        r = region(box(1.0, 2.0), box(-2.0, -1.0))
        out = r.clamp(np.array([[0.4], [-3.0], [1.5]]))
        assert out[0, 0] == 1.0
        assert out[1, 0] == -2.0
        assert out[2, 0] == 1.5

    def test_clamp_tie_lexicographic(self):
        r = region(box(1.0, 2.0), box(-2.0, -1.0))
        assert r.clamp(np.array([[0.0]]))[0, 0] == -1.0

    def test_clamp_tie_lexicographic_2d(self):
        # Ties decided by the first coordinate, then by the second.
        r = region(box((1.0, 0.0), (2.0, 1.0)), box((-2.0, 0.0), (-1.0, 1.0)))
        assert r.clamp(np.array([[0.0, 0.5]])).tolist() == [[-1.0, 0.5]]
        r = region(box((0.0, 1.0), (1.0, 2.0)), box((0.0, -2.0), (1.0, -1.0)))
        assert r.clamp(np.array([[0.5, 0.0]])).tolist() == [[0.5, -1.0]]

    def test_clamp_matches_pointwise_tie_rule(self):
        # Integer data makes exact ties common; the reference takes, per
        # point, the lexicographically smallest of the nearest box clamps.
        rng = np.random.default_rng(0)
        boxes = []
        for _ in range(5):
            lo = rng.integers(-4, 4, size=2).astype(float)
            boxes.append(Box(tuple(lo), tuple(lo + rng.integers(0, 3, 2))))
        r = region(*boxes)
        X = rng.integers(-6, 7, size=(400, 2)).astype(float)
        cands = [b.clamp(X) for b in boxes]
        dists = np.stack([b.distance(X) for b in boxes])
        best = dists.min(axis=0)
        want = [min((tuple(c[j]) for c, d in zip(cands, dists)
                     if d[j] == best[j]))
                for j in range(len(X))]
        assert r.clamp(X).tolist() == [list(w) for w in want]

    def test_box_distance(self):
        r = region(box(1.0, 2.0))
        assert r.box_distance(box(4.0, 5.0)) == 2.0
        assert r.box_distance(box(0.0, 1.5)) == 0.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_clamp_is_nearest_point(self, x, probe):
        r = region(box(1.0, 2.0), box(-2.0, -1.0))
        X = np.array([[x]])
        c = r.clamp(X)
        d = np.abs(c[0, 0] - x)
        # No point of the region is closer than the clamp.
        p = min(max(probe, 1.0), 2.0)
        assert d <= abs(p - x) + 1e-12
        q = min(max(probe, -2.0), -1.0)
        assert d <= abs(q - x) + 1e-12


class TestDyadicCube:
    def test_box_and_children(self):
        c = DyadicCube(1, (1,))
        assert c.as_box() == box(0.5, 1.0)
        kids = c.children()
        assert [k.as_box() for k in kids] == [box(0.5, 0.75), box(0.75, 1.0)]


class TestCurveOps:
    def test_branch_eval_and_inverse(self):
        b = get_curve("two-lines").branch(1)
        assert b.forward(np.array([[2.0]]))[0, 0] == -2.0
        assert b.inv(-2.0)[0, 0] == 2.0
        assert b.jac(1.0)[0] == -1.0

    def test_flat_branch_has_no_pointwise_inverse(self):
        c = get_curve("diamond")
        with pytest.raises(CurveValidityError):
            c.branch(2).inv(0.0)

    def test_nearest_points(self):
        c = get_curve("diamond")
        assert c.branch(0).domain.clamp(3.0)[0, 0] == 1.0
        assert c.branch(0).nearest_range(2.0)[0, 0] == 1.0
        assert c.branch(1).nearest_range(2.0)[0, 0] == 0.0

    @pytest.mark.parametrize("order", [1, -1])
    def test_sampled_range_tie_takes_smallest_parameter(self, order):
        # Without a declared range, y = 0 is equally far from gamma(1) = 1
        # and gamma(-1) = -1; the smaller parameter wins whatever the box
        # order, as it does for Region.clamp.
        boxes = (box(1.0, 3.0), box(-3.0, -1.0))[::order]
        br = CurveBranch(index=0, domain=region(*boxes),
                         forward=lambda X: X.copy(),
                         inverse=lambda Y: Y.copy(),
                         jacobian=lambda X: np.ones(len(X)), lipschitz=1.0)
        assert br.nearest_range(0.0)[0, 0] == -1.0
        assert region(*boxes).clamp(np.array([[0.0]]))[0, 0] == -1.0

    @pytest.mark.parametrize("name,i", [("diagonal", 0), ("two-lines", 0),
                                        ("two-lines", 1), ("diamond", 0),
                                        ("diamond", 1), ("diamond", 2)])
    def test_sampled_range_matches_declared_clamp(self, name, i):
        declared = get_curve(name).branch(i)
        sampled = dataclasses.replace(declared, range_region=None)
        Y = np.linspace(-30.0, 30.0, 601).reshape(-1, 1)
        want = declared.range_region.clamp(Y)
        assert np.max(np.abs(sampled.nearest_range(Y) - want)) <= 1e-12

    def test_bad_branch_index(self):
        c = get_curve("diagonal")
        with pytest.raises(RejectedInputError):
            c.branch(5)

    def test_registry_miss(self):
        with pytest.raises(RegistryError):
            get_curve("bogus")


class TestValidation:
    @pytest.mark.parametrize("name", ["diagonal", "two-lines", "diamond"])
    def test_builtins_validate(self, name):
        rep = validate_curve(get_curve(name), sample_count=400, seed=0)
        assert rep.passed
        assert rep.max_lipschitz_ratio <= rep.c_gamma * (1 + 1e-6)

    def test_diagonal_dim2_validates(self):
        rep = validate_curve(get_curve("diagonal", dim=2), sample_count=200)
        assert rep.passed

    def test_bad_lipschitz_declaration_fails(self):
        from czo.geometry import CurveBranch, HyperCurve
        br = CurveBranch(index=0, domain=region(box(-4.0, 4.0)),
                         forward=lambda X: 3.0 * X,
                         inverse=lambda Y: Y / 3.0,
                         jacobian=lambda X: np.full(len(X), 3.0),
                         lipschitz=1.5)
        rep = validate_curve(HyperCurve("steep", [br]), sample_count=200)
        assert not rep.passed
        assert rep.branches[0].forward_ratio > 1.5
