import numpy as np
import pytest

from czo.curves import get_curve
from czo.errors import RejectedInputError
from czo.geometry import DyadicCube, box
from czo.partition import (BranchDisjointPartition, build_partition,
                           critical_values, disjoint_preimage_test)


class TestCriticalValues:
    def test_two_lines_meet_at_origin(self):
        assert critical_values(get_curve("two-lines")).ravel().tolist() == [0.0]

    def test_diamond_vertices_map_to_zero(self):
        assert critical_values(get_curve("diamond")).ravel().tolist() == [0.0]

    def test_diagonal_has_none(self):
        assert len(critical_values(get_curve("diagonal"))) == 0


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
                                    [], 3, 32.0, False)
        Y = probe_points(rng, 2) / 8.0
        got = p.locate(Y)
        assert np.array_equal(got, locate_reference(p, Y))
        assert np.all(got[np.all(np.abs(Y) < 4.0, axis=1)] >= 0)

    def test_empty_partition_and_no_points(self):
        p = BranchDisjointPartition(get_curve("two-lines"), [], [], 0, 32.0,
                                    False)
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
