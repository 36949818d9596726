import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from czo.curves import CURVE_NAMES, diagonal, get_curve
from czo.errors import RejectedInputError
from czo.geometry import CurveBranch, HyperCurve, box, whole_space
from czo.metric import (check_equivalence, check_qtheta, enlarged_cube,
                        rho_branch_values, rho_tilde_branch_values,
                        rho_tilde_star_branch_values, rho_values,
                        sampled_rho_branch_values)

SQ2 = math.sqrt(2.0)
WAVE = 0.3


def wavy_curve() -> HyperCurve:
    """gamma(x) = x + 0.3 sin x, declaring no exact distance."""
    def inverse(Y):
        t = Y.copy()
        for _ in range(30):
            t = t - (t + WAVE * np.sin(t) - Y) / (1.0 + WAVE * np.cos(t))
        return t

    branch = CurveBranch(
        index=0, domain=whole_space(1),
        forward=lambda X: X + WAVE * np.sin(X), inverse=inverse,
        jacobian=lambda X: 1.0 + WAVE * np.cos(X[:, 0]),
        lipschitz=1.0 / (1.0 - WAVE), name="wavy")
    return HyperCurve("wavy", [branch])


def brute_wavy_rho(x: float, y: float) -> float:
    """Distance from (x, y) to the wavy graph by dense parameter sampling:
    the nearest curve point lies within the vertical distance v of x, and
    the best sample is refined once on a second dense grid."""
    def dist(t):
        return np.hypot(t - x, t + WAVE * np.sin(t) - y)

    v = abs(y - (x + WAVE * math.sin(x))) + 1e-9
    t = np.linspace(x - v, x + v, 20001)
    k = int(np.argmin(dist(t)))
    fine = np.linspace(t[max(k - 1, 0)], t[min(k + 1, len(t) - 1)], 20001)
    return float(np.min(dist(fine)))


class TestSolverAgainstClosedForms:
    def test_far_queries_trigger_extent_growth(self):
        curve = get_curve("diagonal")
        X = np.array([[500.0]])
        Y = np.array([[300.0]])
        got = rho_branch_values(curve, 0, X, Y)
        assert got[0] == pytest.approx(200.0 / SQ2, rel=1e-12)

    def test_point_on_curve_gives_zero(self):
        curve = get_curve("two-lines")
        v, b = rho_values(curve, [[3.0]], [[-3.0]])
        assert v[0] < 1e-12
        assert b[0] == 1


class TestWorkedValues:
    def test_diamond_center(self):
        # Distance from (0,0) to the nearest slanted edge.
        assert rho_values(get_curve("diamond"), 0.0, 0.0)[0][0] == \
            pytest.approx(1.0 / SQ2, rel=1e-12)

    def test_diamond_tilde_star_above_apex(self):
        # y=2 clamps to the top of the upper range; preimage nearest 0 is 1.
        curve = get_curve("diamond")
        v = min(rho_tilde_star_branch_values(curve, i, 0.0, 2.0)[0]
                for i in range(curve.r))
        assert v == pytest.approx(1.0, rel=1e-12)

    def test_two_lines_branch_values(self):
        curve = get_curve("two-lines")
        assert rho_branch_values(curve, 0, [[1.0]], [[3.0]])[0] == \
            pytest.approx(2.0 / SQ2)
        assert rho_branch_values(curve, 1, [[1.0]], [[3.0]])[0] == \
            pytest.approx(4.0 / SQ2)

    def test_tilde_on_diagonal(self):
        # xi = x, so rho~ = |y - x|; exactly sqrt(2) times rho.
        v = rho_tilde_branch_values(get_curve("diagonal"), 0, 1.0, 4.0)
        assert v[0] == pytest.approx(3.0)


class TestEquivalence:
    @pytest.mark.parametrize("name", ["diagonal", "two-lines", "diamond"])
    def test_surrogates_equivalent(self, name):
        rep = check_equivalence(get_curve(name), 2000, seed=5)
        assert rep.passed, rep.witness
        assert rep.max_ratio_tilde <= rep.bound
        assert rep.max_ratio_star <= rep.bound

    def test_lower_bound_is_tight_on_lines(self):
        # For the straight-line curves rho~ = sqrt(2) rho at interior points.
        rep = check_equivalence(get_curve("two-lines"), 2000, seed=5)
        assert rep.max_ratio_tilde == pytest.approx(SQ2, rel=1e-6)

    def test_rejects_empty_sample(self):
        with pytest.raises(RejectedInputError):
            check_equivalence(get_curve("diagonal"), 0, seed=0)

    def test_star_upper_bounds_rho(self):
        curve = get_curve("diamond")
        rng = np.random.default_rng(3)
        X = rng.uniform(-4, 4, size=(300, 1))
        Y = rng.uniform(-4, 4, size=(300, 1))
        for i in range(curve.r):
            ri = rho_branch_values(curve, i, X, Y)
            rs = rho_tilde_star_branch_values(curve, i, X, Y)
            assert np.all(ri <= rs * (1 + 1e-9) + 1e-12)


class TestEnlargedCube:
    def test_two_lines_exact_measure(self):
        # Q=[2,3], theta=8: preimages [2,3] and [-3,-2], each dilated by 8,
        # merge into [-11, 11] of measure 22.
        ec = enlarged_cube(get_curve("two-lines"), box(2.0, 3.0), 8.0)
        assert ec.exact
        X = np.linspace(-15, 15, 3001).reshape(-1, 1)
        inside = ec.contains(X)
        measure = np.count_nonzero(inside) * (30.0 / 3000)
        assert measure == pytest.approx(22.0, abs=0.05)
        assert ec.contains([[10.9]])[0] and not ec.contains([[11.2]])[0]

    def test_diagonal_measure(self):
        # Q=[0,1], theta=10: [0,1] dilated by 10 -> [-10, 11], measure 21.
        ec = enlarged_cube(get_curve("diagonal"), box(0.0, 1.0), 10.0)
        assert ec.contains([[-9.9]])[0] and not ec.contains([[11.1]])[0]

    def test_far_cube_has_empty_pieces(self):
        # The diamond ranges live in [-1,1]; a far cube activates nothing.
        ec = enlarged_cube(get_curve("diamond"), box(20.0, 20.5), 9.0)
        assert all(p.empty for p in ec.pieces)
        assert not np.any(ec.contains([[0.0], [20.25]]))

    def test_theta_must_exceed_one(self):
        with pytest.raises(RejectedInputError):
            enlarged_cube(get_curve("diagonal"), box(0.0, 1.0), 0.5)

    def test_sampled_path_matches_exact_path(self):
        curve = get_curve("two-lines")
        Q = box(2.0, 3.0)
        ec = enlarged_cube(curve, Q, 8.0)
        X = np.linspace(-13, 13, 401).reshape(-1, 1)
        exact = ec.contains(X)
        # Strip the exact structure and force the sampled membership path.
        for p in ec.pieces:
            p.preimage_boxes = None
        sampled = ec.contains(X)
        assert np.array_equal(exact, sampled)

    def test_sampled_path_matches_per_eta_loop_2d(self):
        curve = get_curve("diagonal", 2)
        Q = box((0.5, -1.0), (1.0, -0.5))
        ec = enlarged_cube(curve, Q, 3.0)
        X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(200, 2))
        exact = ec.contains(X)
        for p in ec.pieces:
            p.preimage_boxes = None
        assert np.array_equal(ec.contains(X), exact)
        # Reference: one nearest_preimage call per eta, min-reduced in turn.
        branch = curve.branch(0)
        axes = np.linspace(0.5, 1.0, 48), np.linspace(-1.0, -0.5, 48)
        ys = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
        want = np.full(len(X), math.inf)
        for eta in branch.nearest_range(ys):
            pre = branch.nearest_preimage(np.broadcast_to(eta, X.shape), X)
            want = np.minimum(want, np.sqrt(np.sum((X - pre) ** 2, axis=1)))
        for m in (len(X), 7, 0):
            got = ec.pieces[0].distance(branch, Q, X[:m], ys)
            assert got.tobytes() == want[:m].tobytes()


class TestQTheta:
    def test_measure_and_separation(self):
        rep = check_qtheta(get_curve("two-lines"), box(2.0, 3.0), 8.1,
                           probe_count=300, seed=2, mc_samples=100000)
        assert rep.passed, rep.witness
        assert rep.measure_estimate == pytest.approx(22.0, rel=0.02)
        assert rep.min_probe_rho >= rep.separation_bound

    def test_diamond_separation_only(self):
        # The flat branch has no Lipschitz inverse, so only the separation
        # half of the enlargement lemma applies to the diamond.
        rep = check_qtheta(get_curve("diamond"), box(0.25, 0.5), 9.0,
                           probe_count=300, seed=4, check_measure=False)
        assert rep.passed, rep.witness

    def test_theta_hypothesis_enforced(self):
        with pytest.raises(RejectedInputError):
            check_qtheta(get_curve("two-lines"), box(0.0, 1.0), 5.0)

    @pytest.mark.parametrize("probes", [0, -3])
    def test_probe_count_must_be_positive(self, probes):
        with pytest.raises(RejectedInputError, match="probe_count"):
            check_qtheta(get_curve("two-lines"), box(2.0, 3.0), 8.1,
                         probe_count=probes, check_measure=False)


class TestSampledSolverAgainstDeclaredDistances:
    """The sampled solver is the fallback for branches without a declared
    distance; these pin it against the declared exact distances."""

    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_every_builtin_branch(self, name):
        curve = get_curve(name)
        rng = np.random.default_rng(21)
        X = rng.uniform(-8, 8, size=(400, 1))
        Y = rng.uniform(-8, 8, size=(400, 1))
        for i, b in enumerate(curve.branches):
            got = sampled_rho_branch_values(curve, i, X, Y)
            want = b.distance(X, Y)
            assert np.max(np.abs(got - want) / np.maximum(want, 1e-12)) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diagonal_in_each_dimension(self, n):
        curve = diagonal(n)
        rng = np.random.default_rng(n)
        X = rng.uniform(-8, 8, size=(300, n))
        Y = rng.uniform(-8, 8, size=(300, n))
        got = sampled_rho_branch_values(curve, 0, X, Y)
        want = curve.branch(0).distance(X, Y)
        assert np.max(np.abs(got - want) / np.maximum(want, 1e-12)) < 1e-9

    def test_far_queries_grow_the_sampling_extent(self):
        curve = diagonal(1)
        got = sampled_rho_branch_values(curve, 0, [[500.0]], [[300.0]])
        assert got[0] == pytest.approx(200.0 / SQ2, rel=1e-12)
        assert max(curve.branch(0)._samplers) >= 1.3 * 500.0

    @given(st.lists(st.tuples(st.floats(-40, 40), st.floats(-8, 8)),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_curved_branch_matches_dense_sampling(self, points):
        curve = wavy_curve()
        x = np.array([p[0] for p in points])
        y = x + WAVE * np.sin(x) + np.array([p[1] for p in points])
        got = rho_branch_values(curve, 0, x[:, None], y[:, None])
        want = np.array([brute_wavy_rho(a, b) for a, b in zip(x, y)])
        assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + want))


class TestDeclaredDistancePath:
    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_rho_values_is_the_declared_distance(self, name):
        curve = get_curve(name)
        rng = np.random.default_rng(5)
        X = rng.uniform(-8, 8, size=(1000, 1))
        Y = rng.uniform(-8, 8, size=(1000, 1))
        got, branch = rho_values(curve, X, Y)
        per_branch = np.stack([b.distance(X, Y) for b in curve.branches])
        assert np.array_equal(got, np.min(per_branch, axis=0))
        assert np.array_equal(branch, np.argmin(per_branch, axis=0))
