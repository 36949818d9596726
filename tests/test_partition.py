import math

import numpy as np
import pytest

from czo import partition
from czo.curves import CURVE_NAMES, get_curve
from czo.errors import RejectedInputError
from czo.geometry import DyadicCube, box, region
from czo.partition import (BranchDisjointPartition, _level0_corners,
                           build_partition, critical_values,
                           disjoint_preimage_test)
from test_metric import wavy_curve


class TestCriticalValues:
    def test_two_lines_meet_at_origin(self):
        assert critical_values(get_curve("two-lines")).ravel().tolist() == [0.0]

    def test_diamond_vertices_map_to_zero(self):
        assert critical_values(get_curve("diamond")).ravel().tolist() == [0.0]

    def test_diagonal_has_none(self):
        assert len(critical_values(get_curve("diagonal"))) == 0

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_rows_equal_np_unique(self, name):
        # The crossings' images hold both 0.0 and -0.0; the zero kept must
        # have np.unique's sign.
        curve = get_curve(name)
        pts = curve.intersection_points
        rows = np.concatenate([b.forward(pts[b.domain.contains(pts,
                                                               tol=1e-12)])
                               for b in curve.branches])
        want = np.unique(rows, axis=0)
        got = critical_values(curve)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestDisjointnessTest:
    def test_cube_away_from_crossing_is_disjoint(self):
        res = disjoint_preimage_test(get_curve("two-lines"), DyadicCube(0, (1,)))
        assert res.disjoint and not res.probabilistic

    def test_cube_at_crossing_fails(self):
        res = disjoint_preimage_test(get_curve("two-lines"), DyadicCube(0, (0,)))
        assert not res.disjoint
        assert res.critical_hit

    def test_sampling_fallback_is_flagged(self):
        curve = get_curve("two-lines")
        for b in curve.branches:
            b.preimage_boxes = None
        res = disjoint_preimage_test(curve, DyadicCube(0, (1,)))
        assert res.disjoint and res.probabilistic

    def test_sampling_skips_a_branch_off_the_samples(self):
        # The samples cover [-32, 32]; once the minus branch lives beyond
        # them, only the plus branch maps samples into the crossing cube.
        curve, cube = get_curve("two-lines"), box(-1.0, 1.0)
        assert partition._preimage_overlap_sampled(curve, cube)
        curve.branches[1].domain = region(box(100.0, 200.0))
        assert not partition._preimage_overlap_sampled(curve, cube)

    def test_diamond_slant_cube_disjoint_from_flat(self):
        # [0.5, 1) meets only the upper branch; preimages of lower/flat
        # branches are empty there.
        res = disjoint_preimage_test(get_curve("diamond"), box(0.5, 1.0))
        assert res.disjoint


class TestBuildPartition:
    def test_rejects_negative_depth(self):
        with pytest.raises(RejectedInputError):
            build_partition(get_curve("diagonal"), max_depth=-1)

    def test_diagonal_needs_no_refinement(self):
        p = build_partition(get_curve("diagonal"), max_depth=6)
        assert all(c.level == 0 for c in p.cubes)
        assert p.leftover_measure == 0.0

    @pytest.mark.parametrize("name", ["two-lines", "diamond"])
    def test_leftover_shrinks_with_depth(self, name):
        curve = get_curve(name)
        measures = [build_partition(curve, d).leftover_measure
                    for d in range(4, 9)]
        assert all(b < a for a, b in zip(measures, measures[1:]))
        assert measures[-1] == pytest.approx(2.0 ** -7)  # two cells at 2^-8

    def test_cubes_cover_disjointly(self):
        p = build_partition(get_curve("two-lines"), max_depth=6)
        boxes = [c.as_box() for c in p.cubes + p.leftover]
        total = sum(b.measure() for b in boxes)
        assert total == pytest.approx(64.0)  # [-32, 32] covered exactly
        ys = np.random.default_rng(0).uniform(-31.9, 31.9, size=(500, 1))
        hits = p.locate(ys)
        # every point resolves to at most one cube and leftovers are rare
        assert np.count_nonzero(hits < 0) <= np.count_nonzero(
            np.abs(ys[:, 0]) < 0.05)

    def test_no_disjointness_violations_in_lookups(self):
        curve = get_curve("diamond")
        p = build_partition(curve, max_depth=8)
        rng = np.random.default_rng(1)
        X = rng.uniform(-8, 8, size=(20000, 1))
        assignments = np.full((curve.r, len(X)), -1, dtype=int)
        for i, br in enumerate(curve.branches):
            mask = br.domain.contains(X)
            if np.any(mask):
                assignments[i][mask] = p.locate(br.forward(X[mask]))
        for j in range(len(X)):
            hits = assignments[:, j]
            used = hits[hits >= 0].tolist()
            assert len(used) == len(set(used))


def overlap_by_intersection(curve, bx):
    """Reference: the exact preimage test by Box.intersection."""
    pre = [b.preimage_boxes(bx) for b in curve.branches]
    for i in range(curve.r):
        for k in range(i + 1, curve.r):
            for a in pre[i]:
                for c in pre[k]:
                    inter = a.intersection(c)
                    if inter is not None and inter.measure() > 1e-12:
                        return True
    return False


class TestExactOverlap:
    @pytest.mark.parametrize("name", ["two-lines", "diamond"])
    def test_bounds_decide_as_box_intersection(self, monkeypatch, name):
        curve = get_curve(name)
        got = [build_partition(curve, d) for d in range(4, 9)]
        monkeypatch.setattr(partition, "_preimage_overlap_exact",
                            overlap_by_intersection)
        for d, p in zip(range(4, 9), got):
            want = build_partition(curve, d)
            assert (p.cubes, p.leftover) == (want.cubes, want.leftover)
            assert not p.probabilistic and not want.probabilistic

    def test_pairs_touching_or_thin_do_not_overlap(self):
        # Boxes meeting in a face, or in a sliver of measure <= 1e-12, are
        # not an overlap; unbounded boxes that overlap are.
        a = box((0.0, 0.0), (1.0, 1.0))
        for c, want in [(box((1.0, 0.0), (2.0, 1.0)), False),
                        (box((0.5, 1.0 - 1e-13), (2.0, 3.0)), False),
                        (box((0.5, 0.5), (2.0, 3.0)), True),
                        (box((2.0, 0.0), (3.0, 1.0)), False),
                        (box((-math.inf, 0.5), (0.5, math.inf)), True)]:
            assert partition._overlaps(a, c) is want
            assert partition._overlaps(c, a) is want


def locate_reference(p, Y):
    """Per-point dict lookup of each level's corner, coarsest level first."""
    index = {(c.level, c.corner): j for j, c in enumerate(p.cubes)}
    out = np.full(len(Y), -1, dtype=int)
    for lev in sorted({c.level for c in p.cubes}):
        corners = np.floor(Y * 2.0 ** lev).astype(int)
        for j, corner in enumerate(map(tuple, corners)):
            if out[j] < 0:
                out[j] = index.get((lev, corner), -1)
    return out


def probe_points(rng, dim, count=4000):
    """Points inside and outside the [-32, 32]^dim span, half of them on
    dyadic boundaries k 2^-d (d = 0..10)."""
    Y = rng.uniform(-40.0, 40.0, size=(count, dim))
    d = rng.integers(0, 11, size=(count // 2, 1))
    Y[: count // 2] = np.rint(Y[: count // 2] * 2.0 ** d) / 2.0 ** d
    return Y


class TestLocate:
    @pytest.mark.parametrize("name,dim,depth", [("two-lines", 1, 8),
                                                ("diamond", 1, 8),
                                                ("diagonal", 2, 4)])
    def test_matches_dict_lookup(self, name, dim, depth):
        p = build_partition(get_curve(name, dim), max_depth=depth)
        Y = probe_points(np.random.default_rng(dim + depth), dim)
        got = p.locate(Y)
        assert np.array_equal(got, locate_reference(p, Y))
        assert np.any(got < 0) and np.any(got >= 0)

    def test_mixed_levels_2d(self):
        # A hand-made tiling of [-4, 4)^2 refined at random down to level 3.
        rng = np.random.default_rng(5)
        cubes, stack = [], [DyadicCube(0, (a, b)) for a in range(-4, 4)
                            for b in range(-4, 4)]
        while stack:
            c = stack.pop()
            if c.level < 3 and rng.uniform() < 0.5:
                stack.extend(c.children())
            else:
                cubes.append(c)
        p = BranchDisjointPartition(get_curve("diagonal", 2), sorted(cubes),
                                    [], False)
        Y = probe_points(rng, 2) / 8.0
        got = p.locate(Y)
        assert np.array_equal(got, locate_reference(p, Y))
        assert np.all(got[np.all(np.abs(Y) < 4.0, axis=1)] >= 0)

    def test_empty_partition_and_no_points(self):
        p = BranchDisjointPartition(get_curve("two-lines"), [], [], False)
        assert p.locate(np.array([[0.5], [-3.0]])).tolist() == [-1, -1]
        q = build_partition(get_curve("two-lines"), max_depth=4)
        assert q.locate(np.empty((0, 1))).shape == (0,)


class TestInducedMapLookup:
    def test_lookup_resolves_branch_image(self):
        curve = get_curve("two-lines")
        p = build_partition(curve, max_depth=6)
        j = int(p.locate(curve.branch(1).forward(np.array([[1.5]])))[0])
        assert j >= 0
        assert p.cubes[j].as_box().contains([[-1.5]])[0]

    def test_lookup_into_leftover_is_none(self):
        curve = get_curve("diamond")
        p = build_partition(curve, max_depth=6)
        # The flat branch maps everything to the critical value 0, which
        # lies in no accepted cube.
        assert p.locate(curve.branch(2).forward(np.array([[5.0]])))[0] == -1


def sampled_two_lines():
    """two-lines with its preimage boxes stripped: the sampled overlap test
    with two branches, which finds real overlaps near 0."""
    curve = get_curve("two-lines")
    for b in curve.branches:
        b.preimage_boxes = None
    return curve


SAMPLED_CURVES = {"wavy": wavy_curve, "two-lines-sampled": sampled_two_lines}


def sampled_overlap_reference(curve, bx):
    """The overlap test redrawing the 4,096 samples (seed 0) and mapping
    them through every branch for this one cube."""
    X = np.random.default_rng(0).uniform(-32.0, 32.0, size=(4096, curve.dim))
    hits = np.zeros(len(X), dtype=int)
    for b in curve.branches:
        inside = b.domain.contains(X)
        if np.any(inside):
            img = b.forward(X[inside])
            hits[np.flatnonzero(inside)[bx.contains(img)]] += 1
    return bool(np.any(hits >= 2))


def partition_reference(curve, max_depth):
    crit = critical_values(curve)
    accepted, leftover = [], []
    stack = [DyadicCube(0, c) for c in _level0_corners(curve)]
    while stack:
        cube = stack.pop()
        bx = cube.as_box()
        if not (np.any(bx.contains(crit))
                or sampled_overlap_reference(curve, bx)):
            accepted.append(cube)
        elif cube.level >= max_depth:
            leftover.append(cube)
        else:
            stack.extend(cube.children())
    return sorted(accepted), sorted(leftover)


class TestSampledOverlap:
    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("name", sorted(SAMPLED_CURVES))
    def test_matches_per_cube_resampling(self, name, depth):
        curve = SAMPLED_CURVES[name]()
        p = build_partition(curve, depth)
        accepted, leftover = partition_reference(curve, depth)
        assert p.cubes == accepted
        assert p.leftover == leftover
        # Also on one branch, where no cube can fail the overlap test: the
        # benchmark's oracle reads this flag.
        assert p.probabilistic

    def test_two_branch_overlap_refines_near_zero(self):
        p = build_partition(sampled_two_lines(), 6)
        assert max(c.level for c in p.cubes) == 6
        assert p.leftover and all(
            c.as_box().distance([[0.0]])[0] < 2.0 ** -5 for c in p.leftover)
