import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from czo.curves import CURVE_NAMES, diagonal, get_curve
from czo.errors import RejectedInputError
from czo.geometry import (Box, CurveBranch, HyperCurve, box, region,
                          whole_space)
from czo.metric import (_CHUNK, _PROBE_ROUNDS, _BranchSampler, _get_sampler,
                        _require_separation, _unit_ball_volume, CubePiece,
                        EnlargedCube, check_equivalence, check_qtheta,
                        enlarged_cube, nearest_range,
                        rho_branch_values, rho_tilde_branch_values,
                        rho_tilde_star_branch_values, rho_values,
                        sampled_rho_branch_values)
from czo.util import as_points

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
        v, _ = rho_values(curve, [[3.0]], [[-3.0]])
        assert v[0] < 1e-12
        # The minus branch attains it.
        assert rho_branch_values(curve, 1, [[3.0]], [[-3.0]])[0] < 1e-12


class TestWorkedValues:
    def test_diamond_center(self):
        # Distance from (0,0) to the nearest slanted edge.
        assert rho_values(get_curve("diamond"), 0.0, 0.0)[0][0] == \
            pytest.approx(1.0 / SQ2, rel=1e-12)

    def test_diamond_flat_branch_is_all_of_abs_x_at_least_one(self):
        # The flat branch once ended at the sampling box |x| = 32.
        v, _ = rho_values(get_curve("diamond"), [[40.0], [100.0]],
                          [[0.0], [0.5]])
        assert v.tolist() == [0.0, 0.5]

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

    def test_witness_holds_plain_floats(self):
        # A declared distance ten times too large breaks rho <= rho~.
        br = dataclasses.replace(
            diagonal(1).branch(0),
            distance=lambda X, Y: 10.0 * np.abs(X[:, 0] - Y[:, 0]))
        rep = check_equivalence(HyperCurve("far", [br]), 50, seed=1)
        assert not rep.passed
        x, y, i = rep.witness
        assert all(type(v) is float for v in x + y) and i == 0
        assert "np.float64" not in repr(rep.witness)


class TestSampledRange:
    """eta of a branch without a declared range_region clamps onto the
    range sampled at each point's own extent (n = 1 only)."""

    def test_wavy_eta_is_y_far_from_the_origin(self):
        Y = np.array([[40.0], [-40.0], [100.0], [-100.0]])
        assert np.array_equal(nearest_range(wavy_curve().branch(0), Y), Y)

    def test_interior_extrema_are_refined(self):
        # 2 sin 3t on [-1, 0.9] peaks at t = +-pi/6, between samples: the
        # sample values fall short of +-2 by about 5e-7.
        branch = CurveBranch(
            index=0, domain=region(box(-1.0, 0.9)),
            forward=lambda X: 2.0 * np.sin(3.0 * X), inverse=None,
            jacobian=lambda X: 6.0 * np.cos(3.0 * X[:, 0]), lipschitz=6.0)
        eta = nearest_range(branch, [[-5.0], [5.0]])
        assert eta.tolist() == [[-2.0], [2.0]]

    def test_far_wavy_pairs_keep_the_equivalence_bound(self):
        curve = wavy_curve()
        rng = np.random.default_rng(19)
        X = rng.uniform(-200.0, 200.0, size=(2000, 1))
        Y = rng.uniform(40.0, 200.0, size=(2000, 1)) * rng.choice(
            [-1.0, 1.0], size=(2000, 1))
        r = rho_branch_values(curve, 0, X, Y)
        star = rho_tilde_star_branch_values(curve, 0, X, Y)
        bound = 2.0 * (curve.c_gamma + 1.0)
        assert np.all(star <= bound * r * (1.0 + 1e-5))

    def test_far_wavy_cube_has_its_piece(self):
        assert len(enlarged_cube(wavy_curve(), box(40.0, 41.0), 9.0)
                   .pieces) == 1

    @given(st.lists(st.floats(-60, 60), min_size=1, max_size=20),
           st.floats(30, 400), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_each_point_is_its_own_eta_inside_any_batch(self, ys, far,
                                                        negative):
        # A far point in the call changes no other point's bits.  The range
        # of sin t + sin(sqrt(2) t) / 2 grows with the sampled extent, so
        # the clamp reads which extent each point was given.
        branch = CurveBranch(
            index=0, domain=whole_space(1),
            forward=lambda X: np.sin(X) + 0.5 * np.sin(SQ2 * X),
            inverse=None,
            jacobian=lambda X: (np.cos(X[:, 0])
                                + SQ2 / 2 * np.cos(SQ2 * X[:, 0])),
            lipschitz=2.0)
        Y = np.array([[y] for y in ys] + [[-far if negative else far]])
        batch = nearest_range(branch, Y)
        for j in range(len(Y)):
            alone = nearest_range(branch, Y[j:j + 1])
            assert alone.tobytes() == batch[j:j + 1].tobytes()

    def test_undeclared_range_above_one_dimension_is_rejected(self):
        branch = dataclasses.replace(diagonal(2).branch(0), range_region=None)
        with pytest.raises(RejectedInputError, match="range_region"):
            nearest_range(branch, [[0.5, 0.5]])
        with pytest.raises(RejectedInputError, match="branch 0"):
            check_equivalence(HyperCurve("bare", [branch]), 10, seed=0)


class TestEnlargedCube:
    def test_two_lines_exact_measure(self):
        # Q=[2,3], theta=8: preimages [2,3] and [-3,-2], each dilated by 8,
        # merge into [-11, 11] of measure 22.
        ec = enlarged_cube(get_curve("two-lines"), box(2.0, 3.0), 8.0)
        assert all(p.preimage_boxes is not None for p in ec.pieces)
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
        assert ec.pieces == []
        assert ec.bounding_box() == box(20.0, 20.5)
        assert not np.any(ec.contains([[0.0], [20.25]]))

    def test_cube_dimension_must_match_curve(self):
        with pytest.raises(RejectedInputError, match="cube"):
            enlarged_cube(get_curve("two-lines"), box((2.0, 2.0), (3.0, 3.0)),
                          8.0)

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

    @pytest.mark.parametrize("curve", ["two-lines", "wavy"])
    def test_bounding_box_without_preimage_boxes_holds_q_theta(self, curve):
        # wavy declares no preimage boxes; two-lines has them stripped.  The
        # box is then the covering-ball extent around the sampled preimages.
        curve = wavy_curve() if curve == "wavy" else get_curve(curve)
        ec = enlarged_cube(curve, box(2.0, 3.0), 8.0)
        for p in ec.pieces:
            p.preimage_boxes = None
        bbox = ec.bounding_box()
        assert bbox.is_bounded and bbox != ec.base
        X = np.linspace(-80.0, 80.0, 16001).reshape(-1, 1)
        inside = X[ec.contains(X)]
        assert len(inside) > 0
        assert np.all(bbox.contains(inside, tol=0.0))

    def test_bounding_box_skips_a_preimage_beyond_the_sampling_box(self):
        # An unbounded preimage box that misses [-32, 32] has no clipped
        # part, so it adds nothing to the box; the bounded one still does.
        branch = get_curve("diagonal").branch(0)
        far = Box((-math.inf,), (-40.0,))
        ec = EnlargedCube(box(2.0, 3.0), 8.0, get_curve("diagonal"),
                          [CubePiece(branch, [far, box(2.0, 3.0)])])
        assert ec.bounding_box() == box(2.0, 3.0).dilate(8.0 * 1.001)

    def test_sampled_path_matches_per_eta_loop_2d(self, monkeypatch):
        import czo.metric as metric

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
        for eta in nearest_range(branch, ys):
            pre = branch.nearest_preimage(np.broadcast_to(eta, X.shape), X)
            want = np.minimum(want, np.sqrt(np.sum((X - pre) ** 2, axis=1)))
        # A new piece samples Q on the reference's 48 x 48 grid, once.
        samples = metric._cube_y_samples
        monkeypatch.setattr(metric, "_cube_y_samples",
                            lambda Q, per_axis=256: samples(Q, 48))
        piece = CubePiece(branch, cube=Q)
        for m in (len(X), 7, 0):
            got = piece.distance(X[:m])
            assert got.tobytes() == want[:m].tobytes()

    def test_sampled_piece_samples_eta_once(self, monkeypatch):
        import czo.metric as metric

        # Branches without preimage boxes give sampled pieces, each of
        # which reads eta_{i,Q} once, however often contains runs.
        curve = get_curve("two-lines")
        curve = HyperCurve(curve.name, [
            dataclasses.replace(b, preimage_boxes=None)
            for b in curve.branches], curve.intersection_points)
        ec = enlarged_cube(curve, box(2.0, 3.0), 8.0)
        assert len(ec.pieces) == 2
        assert all(p.preimage_boxes is None for p in ec.pieces)
        calls = []
        real = metric.nearest_range
        monkeypatch.setattr(metric, "nearest_range",
                            lambda b, Y: calls.append(b.index) or real(b, Y))
        X = np.linspace(-13, 13, 401).reshape(-1, 1)
        first = ec.contains(X)
        for _ in range(2):
            assert ec.contains(X).tobytes() == first.tobytes()
        assert sorted(calls) == [0, 1]


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
                           probe_count=300, seed=4)
        assert rep.passed, rep.witness
        assert rep.measure_estimate is None and rep.measure_halfwidth is None

    def test_qtheta_covering_the_probe_box_is_vacuous(self):
        # Here the flat piece's Q_theta is all of R, so no probe lies
        # outside it and the separation half holds vacuously.
        rep = check_qtheta(get_curve("diamond"), box(0.25, 0.5), 9.0,
                           probe_count=300, seed=4)
        assert rep.min_probe_rho == math.inf
        assert rep.passed and rep.witness is None

    def test_probes_reach_the_edge_of_an_unbounded_piece(self):
        # The flat piece's preimage is |x| >= 1; its box is cut to the
        # sampling box, not dropped, so the probes still reach the edge of
        # Q_theta near |x| = 0.84, where rho is smallest (about 0.107).
        curve, Q = get_curve("diamond"), box(0.0, 1.0 / 64.0)
        bbox = enlarged_cube(curve, Q, 9.0).bounding_box()
        assert bbox.lo[0] < -32.0 and bbox.hi[0] > 32.0
        rep = check_qtheta(curve, Q, 9.0, probe_count=300, seed=4)
        assert rep.passed, rep.witness
        assert rep.min_probe_rho < 0.15

    def test_measure_half_fails_on_an_understated_lipschitz_constant(self):
        # gamma(x) = x / 100 declares lipschitz 1, but its inverse's constant
        # is 100: Q_theta = [-8, 108] has measure 116, above the bound
        # 2 (1 + 6 c_gamma / 8) 8 |Q| = 28 that a constant of 1 gives.
        dom = whole_space(1)
        br = CurveBranch(
            index=0, domain=dom, forward=lambda X: X / 100.0,
            inverse=lambda Y: 100.0 * Y,
            jacobian=lambda X: np.full(len(X), 0.01), lipschitz=1.0,
            range_region=dom,
            preimage_boxes=lambda b: [Box((100.0 * b.lo[0],),
                                          (100.0 * b.hi[0],))],
            preimage_nearest=lambda Y, X: 100.0 * Y, name="slow",
            distance=lambda X, Y: (np.abs(X[:, 0] / 100.0 - Y[:, 0])
                                   / math.sqrt(1.0 + 1e-4)))
        rep = check_qtheta(HyperCurve("slow", [br]), box(0.0, 1.0), 8.0,
                           probe_count=100, seed=1, mc_samples=20000)
        assert not rep.passed
        assert rep.measure_bound == pytest.approx(28.0)
        assert rep.measure_estimate == pytest.approx(116.0, rel=0.02)
        assert rep.measure_estimate - rep.measure_halfwidth > 28.0

    def test_theta_hypothesis_enforced(self):
        with pytest.raises(RejectedInputError):
            check_qtheta(get_curve("two-lines"), box(0.0, 1.0), 5.0)

    @pytest.mark.parametrize("probes", [0, -3])
    def test_probe_count_must_be_positive(self, probes):
        with pytest.raises(RejectedInputError, match="probe_count"):
            check_qtheta(get_curve("two-lines"), box(2.0, 3.0), 8.1,
                         probe_count=probes)

    def test_separation_witness_holds_plain_floats(self):
        # A declared distance of 0 puts every probe on the curve.
        br = dataclasses.replace(diagonal(1).branch(0),
                                 distance=lambda X, Y: np.zeros(len(X)))
        rep = check_qtheta(HyperCurve("flat", [br]), box(2.0, 3.0), 8.1,
                           probe_count=50, seed=2, mc_samples=1000)
        kind, x, y, min_rho = rep.witness
        assert kind == "separation" and min_rho == 0.0
        assert all(type(v) is float for v in x + y)
        assert "np.float64" not in repr(rep.witness)


def one_shot_qtheta(curve, Q, theta, probe_count, seed, mc_samples):
    """check_qtheta as it was before its Monte Carlo was streamed: all
    mc_samples points drawn and tested at once, then ``np.mean``."""
    _require_separation(curve, theta)
    ec = enlarged_cube(curve, Q, theta)
    n = curve.dim
    ell = Q.side()
    rng = np.random.default_rng(seed)
    C = (_unit_ball_volume(n) * curve.r
         * (1.0 + 6.0 * math.sqrt(n) * curve.c_gamma / theta) ** n)
    bound = C * theta ** n * Q.measure()
    est = hw = None
    passed = True
    witness = None
    if all(p.branch.inverse is not None for p in ec.pieces):
        bbox = ec.bounding_box()
        vol = bbox.measure()
        S = rng.uniform(bbox.lo_a, bbox.hi_a, size=(mc_samples, n))
        p = float(np.mean(ec.contains(S)))
        est = p * vol
        hw = 2.576 * math.sqrt(max(p * (1 - p), 1e-12) / mc_samples) * vol
        if est - hw > bound:
            passed = False
            witness = ("measure", est, bound)
    sep_bound = 2.0 * math.sqrt(n) * ell * (1.0 - 1e-5)
    bbox = ec.bounding_box().dilate(4.0 * theta * ell)
    xs = []
    for _ in range(_PROBE_ROUNDS):
        cand = rng.uniform(bbox.lo_a, bbox.hi_a, size=(4 * probe_count, n))
        xs.append(cand[~ec.contains(cand)])
        if sum(len(a) for a in xs) >= probe_count:
            break
    Xp = np.concatenate(xs)[:probe_count]
    Yp = rng.uniform(Q.lo_a, Q.hi_a, size=(len(Xp), n))
    rv, _ = rho_values(curve, Xp, Yp)
    min_rho = float(np.min(rv, initial=math.inf))
    if min_rho < sep_bound:
        passed = False
        j = int(np.argmin(rv))
        witness = ("separation", tuple(Xp[j].tolist()),
                   tuple(Yp[j].tolist()), min_rho)
    return (passed, est, hw, bound, min_rho, sep_bound, witness)


QTHETA_CASES = {
    "two-lines": (get_curve("two-lines"), box(2.0, 3.0), 8.1),
    "diagonal(2)": (diagonal(2), box((0.0, 1.0), (1.0, 2.0)), 10.0),
    "diagonal(3)": (diagonal(3), box((0.0, 0.0, 1.0), (1.0, 1.0, 2.0)), 12.5),
    "diamond": (get_curve("diamond"), box(0.25, 0.5), 9.0),
}


class TestStreamedQTheta:
    """The Monte Carlo of check_qtheta draws its points chunk by chunk; the
    report keeps every bit of the one-shot draw, and the separation probes
    drawn after it show that the generator's stream is unchanged."""

    @pytest.mark.parametrize("mc", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                    3 * _CHUNK + 5])
    @pytest.mark.parametrize("name", sorted(QTHETA_CASES))
    def test_report_equals_the_one_shot_draw(self, name, mc):
        curve, Q, theta = QTHETA_CASES[name]
        rep = check_qtheta(curve, Q, theta, probe_count=64, seed=7,
                           mc_samples=mc)
        want = one_shot_qtheta(curve, Q, theta, 64, 7, mc)
        got = dataclasses.astuple(rep)
        assert repr(got) == repr(want)
        assert (rep.measure_estimate is None) == (name == "diamond")

    def test_memory_does_not_grow_with_mc_samples(self):
        # Holding all 10^6 points and their flags at once peaked at 31.5 MB.
        args = (get_curve("two-lines"), box(2.0, 3.0), 8.1)
        check_qtheta(*args, mc_samples=100)
        tracemalloc.start()
        try:
            check_qtheta(*args, mc_samples=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


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

    @pytest.mark.parametrize("n", [1])
    def test_diagonal_in_each_dimension(self, n):
        curve = diagonal(n)
        rng = np.random.default_rng(n)
        X = rng.uniform(-8, 8, size=(300, n))
        Y = rng.uniform(-8, 8, size=(300, n))
        got = sampled_rho_branch_values(curve, 0, X, Y)
        want = curve.branch(0).distance(X, Y)
        assert np.max(np.abs(got - want) / np.maximum(want, 1e-12)) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_n_above_one_is_rejected(self, n):
        # The sampled solver is 1-D only: an n > 1 branch must declare its
        # distance (and its range_region).
        bare = HyperCurve("bare", [dataclasses.replace(diagonal(n).branch(0),
                                                       distance=None)])
        X = np.full((3, n), 0.5)
        with pytest.raises(RejectedInputError, match="branch 0"):
            sampled_rho_branch_values(bare, 0, X, X)
        with pytest.raises(RejectedInputError, match="branch 0"):
            rho_values(bare, X, X)

    def test_far_queries_grow_the_sampling_extent(self):
        curve = diagonal(1)
        got = sampled_rho_branch_values(curve, 0, [[500.0]], [[300.0]])
        assert got[0] == pytest.approx(200.0 / SQ2, rel=1e-12)
        assert max(curve.branch(0)._samplers) >= 1.3 * 500.0

    def test_bounded_domain_past_the_sampling_box(self):
        # The samples cover every bound of a bounded domain, here [40, 50].
        br = CurveBranch(index=0, domain=region(box(40.0, 50.0)),
                         forward=lambda X: X.copy(),
                         inverse=lambda Y: Y.copy(),
                         jacobian=lambda X: np.ones(len(X)), lipschitz=1.0)
        values, _ = rho_values(HyperCurve("far", [br]), [[45.0]], [[45.0]])
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert nearest_range(br, [[45.0], [60.0]]).ravel().tolist() == \
            [45.0, 50.0]

    def test_unbounded_domain_with_a_bound_past_the_sampling_box(self):
        # On [40, inf) the samples must cover the finite bound 40 even for
        # pairs near the origin, whose own coordinates ask only for 32.
        br = CurveBranch(index=0, domain=region(box(40.0, math.inf)),
                         forward=lambda X: X.copy(),
                         inverse=lambda Y: Y.copy(),
                         jacobian=lambda X: np.ones(len(X)), lipschitz=1.0)
        values, _ = rho_values(HyperCurve("far", [br]),
                               [[20.0], [0.0], [45.0]],
                               [[20.0], [0.0], [45.0]])
        assert values == pytest.approx([20.0 * SQ2, 40.0 * SQ2, 0.0],
                                       rel=1e-12, abs=1e-12)
        assert nearest_range(br, [[0.0]]).ravel().tolist() == [40.0]

    def test_two_box_refines_the_second_seed(self):
        # gamma = 0 on [-1, 0.02] and 2 (t - tB) on [0.02001, 1], with tB
        # halfway between two samples of the second box.  The pair (tB, 0)
        # is on the curve, but its nearest sample is the first box's end
        # (0.02, 0): only the second seed's refine reaches 0.
        tB = 0.02001 + (0.97999 / 4095) / 2
        br = CurveBranch(
            index=0, domain=region(box(-1.0, 0.02), box(0.02001, 1.0)),
            forward=lambda X: np.where(X <= 0.02, 0.0, 2.0 * (X - tB)),
            inverse=None,
            jacobian=lambda X: np.where(X[:, 0] <= 0.02, 0.0, 2.0),
            lipschitz=2.0)
        got = sampled_rho_branch_values(HyperCurve("two-box", [br]), 0,
                                        [[tB]], [[0.0]])
        assert got[0] == 0.0

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

    def test_diamond_feet_at_and_beside_the_kink(self):
        # The slanted branches' slope flips at x = 0; each half-bracket must
        # read the derivative on its own side of the kink.
        curve = get_curve("diamond")
        xs = [0.0] + [s * 10.0 ** -k for k in range(3, 13) for s in (1, -1)]
        ys = np.concatenate([np.linspace(0.0, 3.0, 61), 1.0 + np.array(
            [s * 10.0 ** -k for k in range(3, 13) for s in (1, -1)])])
        X = np.repeat(xs, len(ys))[:, None]
        Y = np.tile(ys, len(xs))[:, None]
        for i, b in enumerate(curve.branches):
            got = sampled_rho_branch_values(curve, i, X, Y)
            want = b.distance(X, Y)
            assert np.max(np.abs(got - want) / (1.0 + want)) < 1e-12, i

    def test_near_curve_wavy_pairs_match_dense_sampling(self):
        curve = wavy_curve()
        offsets = np.array([s * 10.0 ** k for k in range(-9, 1)
                            for s in (1, -1)] + [3.0, -3.0])
        x = np.repeat(np.linspace(-20.0, 20.0, 9) + 0.1234, len(offsets))
        y = x + WAVE * np.sin(x) + np.tile(offsets, 9)
        got = sampled_rho_branch_values(curve, 0, x[:, None], y[:, None])
        want = np.array([brute_wavy_rho(a, b) for a, b in zip(x, y)])
        assert np.max(np.abs(got - want) / (1.0 + want)) < 1e-13

    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
                    min_size=1, max_size=20),
           st.floats(30, 200), st.booleans(), st.floats(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_each_pair_is_its_own_rho_inside_any_batch(self, points, far,
                                                       negative, y_far):
        # A far pair in the call changes no other pair's bits.
        curve = wavy_curve()
        X = np.array([[p[0]] for p in points] + [[-far if negative else far]])
        Y = np.array([[p[1]] for p in points] + [[y_far]])
        batch, _ = rho_values(curve, X, Y)
        for j in range(len(X)):
            alone, _ = rho_values(curve, X[j:j + 1], Y[j:j + 1])
            assert alone.tobytes() == batch[j:j + 1].tobytes()


class TestDeclaredDistancePath:
    @pytest.mark.parametrize("name", CURVE_NAMES)
    def test_rho_values_is_the_declared_distance(self, name):
        curve = get_curve(name)
        rng = np.random.default_rng(5)
        X = rng.uniform(-8, 8, size=(1000, 1))
        Y = rng.uniform(-8, 8, size=(1000, 1))
        got, none = rho_values(curve, X, Y)
        per_branch = np.stack([b.distance(X, Y) for b in curve.branches])
        # The fold by np.minimum keeps the bits of np.min over the stack.
        assert got.tobytes() == np.min(per_branch, axis=0).tobytes()
        assert none is None


@pytest.mark.parametrize("curve", [wavy_curve(), get_curve("two-lines")],
                         ids=["sampled", "declared"])
def test_rho_values_on_zero_pairs_is_empty(curve):
    values, none = rho_values(curve, np.empty((0, 1)), np.empty((0, 1)))
    assert values.shape == (0,)
    assert none is None


class TestNearestSampleSearch:
    """The sampled solver's seed is the exact nearest sample (k = 1 on a
    one-box domain, the two nearest otherwise), as a KD-tree returns it."""

    @staticmethod
    def assert_matches_kd_tree(sampler, branch, Q):
        spatial = pytest.importorskip("scipy.spatial")
        P = np.hstack([sampler.t, branch.forward(sampler.t)])
        want_d, want_i = spatial.cKDTree(P).query(
            Q, k=[1] if sampler.k == 1 else [1, 2])
        got_d, got_i = sampler.query(Q)
        assert np.array_equal(got_i, want_i)
        assert np.array_equal(got_d, want_d)

    def test_wavy_grid(self):
        b = wavy_curve().branch(0)
        g = np.linspace(-8.0, 8.0, 256)
        Q = np.column_stack([np.repeat(g, 256), np.tile(g, 256)])
        self.assert_matches_kd_tree(_get_sampler(b, 32.0), b, Q)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_diamond_branches(self, i):
        b = get_curve("diamond").branch(i)
        Q = np.random.default_rng(i).uniform(-40.0, 40.0, size=(5000, 2))
        for extent in (32.0, 64.0):
            sampler = _get_sampler(b, extent)
            assert sampler.k == (2 if i == 2 else 1)
            self.assert_matches_kd_tree(sampler, b, Q)

    def test_tie_across_blocks_keeps_the_smaller_index(self):
        # Samples t = 0, 1, ..., 4095 on y = 0, except the inside of the
        # second block (t = 65..126), lifted to y = 100.  The query
        # (63.5, 5) is equally far from samples 63 and 64, but the second
        # block's capsule bound is the smaller, so it is visited first.
        br = CurveBranch(
            index=0, domain=region(box(0.0, 4095.0)),
            forward=lambda X: np.where((X > 64.0) & (X < 127.0), 100.0, 0.0),
            inverse=None, jacobian=lambda X: np.zeros(len(X)), lipschitz=1.0)
        sampler = _BranchSampler(br, 4096.0)
        assert np.array_equal(sampler.t[:, 0], np.arange(4096.0))
        Q = np.array([[63.5, 5.0], [64.5, 5.0], [62.5, 5.0]])
        d, idx = sampler.query(Q)
        assert idx[:, 0].tolist() == [63, 64, 62]
        assert d[0, 0] ** 2 == 25.25
        self.assert_matches_kd_tree(sampler, br, Q)

    def test_non_finite_samples_are_rejected(self):
        br = CurveBranch(
            index=0, domain=region(box(-1.0, 1.0)),
            forward=lambda X: np.where(X < 0.5, X, np.inf), inverse=None,
            jacobian=lambda X: np.ones(len(X)), lipschitz=1.0)
        with pytest.raises(RejectedInputError, match="non-finite"):
            sampled_rho_branch_values(HyperCurve("pole", [br]), 0,
                                      [[0.5]], [[0.5]])


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter that finds czo and these tests."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["czo"].__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, here, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_sampled_solver_imports_no_scipy():
    # The solver needs numpy alone: scipy is a test-only dependency.
    code = ("import sys\n"
            "from czo.metric import sampled_rho_branch_values\n"
            "from test_metric import wavy_curve\n"
            "print(sampled_rho_branch_values(wavy_curve(), 0,\n"
            "                                [[0.5]], [[2.0]]))\n"
            "sys.exit(sorted(m for m in sys.modules if m == 'scipy'\n"
            "                or m.startswith('scipy.')) or None)\n")
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr


_NO_MA_PROBE = """
import sys
from czo.curves import get_curve
from czo.geometry import box
from czo.metric import sampled_rho_branch_values
from czo.operator import (multiplier_field, multiplier_handle,
                          recover_multipliers)
from czo.partition import build_partition
curve = get_curve("two-lines")
part = build_partition(curve, max_depth=6)
print(sampled_rho_branch_values(get_curve("diagonal"), 0, [[0.5]], [[2.0]]))
mf = multiplier_field(curve, box(-8.0, 8.0), 64, [1.0, 0.0])
rec = recover_multipliers(multiplier_handle(curve, mf), curve, part,
                          box(-8.0, 8.0), 64)
assert rec.covered.any()
sys.exit("numpy.ma" in sys.modules)
"""


def test_partition_rho_and_recovery_import_no_numpy_ma():
    # np.unique imports numpy.ma, about 10 ms, on its first call.
    run = run_fresh(_NO_MA_PROBE)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("X, dim, want", [
    ([1.0, 2.0, 3.0], 1, (3, 1)),    # a 1-D array of scalars in R
    ([1.0, 2.0], 2, (1, 2)),         # a 1-D array as one point in R^2
    (4.0, 1, (1, 1)),
])
def test_as_points_shapes(X, dim, want):
    assert as_points(X, dim).shape == want


@pytest.mark.parametrize("X, dim, match", [
    ([1.0, 2.0, 3.0], 2, r"a point in R\^2, got shape \(3,\)"),
    (np.zeros((2, 3)), 2, r"points in R\^2, got shape \(2, 3\)"),
    (np.zeros((2, 2, 2)), 2, r"points in R\^2, got shape \(2, 2, 2\)"),
    ([[math.nan]], 1, "finite"),
    ([[0.0, math.inf]], 2, "finite"),
], ids=["short-vector", "wrong-width", "3-d", "nan", "inf"])
def test_as_points_rejections(X, dim, match):
    with pytest.raises(ValueError, match=match):
        as_points(X, dim)


def test_rho_rejects_a_non_finite_point():
    with pytest.raises(ValueError, match="finite"):
        rho_values(get_curve("two-lines"), [[math.nan]], [[0.0]])
