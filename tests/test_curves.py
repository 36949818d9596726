"""The mirrored branches of the built-in curves against explicit
declarations of the same maps, written field by field, and the polyline
distance against the matmul formula it replaced."""

import math

import numpy as np
import pytest

from czo.curves import (_pm_preimage_nearest, _polyline_distance,
                        _segment_distance, get_curve)
from czo.geometry import Box, CurveBranch, HyperCurve, box, region, whole_space
from czo.metric import nearest_range, rho_values
from czo.partition import build_partition

SQ2 = math.sqrt(2.0)


def explicit_minus() -> CurveBranch:
    """gamma(x) = -x on R."""
    dom = whole_space(1)
    return CurveBranch(
        index=1, domain=dom,
        forward=lambda X: -X,
        inverse=lambda Y: -Y,
        jacobian=lambda X: -np.ones(len(X)),
        lipschitz=1.0, range_region=dom,
        preimage_boxes=lambda b: [Box((-b.hi[0],), (-b.lo[0],))],
        preimage_nearest=lambda Y, X: -Y,
        name="minus",
        distance=lambda X, Y: np.abs(X[:, 0] + Y[:, 0]) / SQ2,
    )


def explicit_lower() -> CurveBranch:
    """gamma(x) = |x| - 1 on [-1, 1]."""
    def pre_boxes(b: Box) -> list[Box]:
        c, d = max(b.lo[0], -1.0), min(b.hi[0], 0.0)
        if c > d:
            return []
        return [box(1.0 + c, 1.0 + d), box(-(1.0 + d), -(1.0 + c))]

    return CurveBranch(
        index=1, domain=region(box(-1.0, 1.0)),
        forward=lambda X: np.abs(X) - 1.0,
        inverse=lambda Y: 1.0 + Y,
        jacobian=lambda X: np.where(X[:, 0] >= 0.0, 1.0, -1.0),
        lipschitz=1.0,
        range_region=region(box(-1.0, 0.0)),
        preimage_boxes=pre_boxes,
        preimage_nearest=lambda Y, X: _pm_preimage_nearest(1.0 + Y, X),
        breakpoints=(0.0,),
        name="lower",
        distance=_polyline_distance((-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)),
    )


EXPLICIT = {"two-lines": explicit_minus, "diamond": explicit_lower}


def explicit_curve(name: str) -> HyperCurve:
    """The built-in curve with its branch 1 declared explicitly."""
    curve = get_curve(name)
    return HyperCurve(curve.name, [curve.branches[0], EXPLICIT[name](),
                                   *curve.branches[2:]],
                      curve.intersection_points)


def query_points():
    rng = np.random.default_rng(15)
    P = rng.uniform(-40.0, 40.0, size=(20_000, 2))
    edge = (0.0, -0.0, 1.0, -1.0)
    P = np.vstack([P, [[a, b] for a in edge for b in edge]])
    return P[:, :1], P[:, 1:]


@pytest.mark.parametrize("name", sorted(EXPLICIT))
class TestMirroredBranch:
    def test_declarations_match(self, name):
        got, want = get_curve(name).branch(1), EXPLICIT[name]()
        assert (got.index, got.name, got.domain, got.lipschitz,
                got.breakpoints, got.range_region) == \
            (want.index, want.name, want.domain, want.lipschitz,
             want.breakpoints, want.range_region)

    def test_maps_match_by_value(self, name):
        got, want = get_curve(name).branch(1), EXPLICIT[name]()
        X, Y = query_points()
        for a, b in [(got.forward(X), want.forward(X)),
                     (got.jac(X), want.jac(X)),
                     (got.inv(Y), want.inv(Y)),
                     (got.distance(X, Y), want.distance(X, Y)),
                     (nearest_range(got, Y), nearest_range(want, Y)),
                     (got.nearest_preimage(Y, X),
                      want.nearest_preimage(Y, X))]:
            assert np.array_equal(a, b)

    def test_preimage_boxes_match(self, name):
        got, want = get_curve(name).branch(1), EXPLICIT[name]()
        for a in np.arange(-16, 17) / 8.0:
            for w in (0.0, 0.125, 0.5, 3.0):
                B = box(a, a + w)
                assert got.preimage_boxes(B) == want.preimage_boxes(B)

    @pytest.mark.parametrize("depth", range(9))
    def test_partitions_match(self, name, depth):
        got = build_partition(get_curve(name), depth)
        want = build_partition(explicit_curve(name), depth)
        assert (got.cubes, got.leftover, got.probabilistic) == \
            (want.cubes, want.leftover, want.probabilistic)


DIAMOND_SEGMENTS = [((-1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 0.0)),
                    ((-1.0, 0.0), (0.0, -1.0)), ((0.0, -1.0), (1.0, 0.0))]


def matmul_segment_distance(X, Y, p, q):
    """The segment distance on (m, 2) points with a matmul: the form that
    _segment_distance replaced, kept as its bitwise reference."""
    P = np.column_stack([X[:, 0], Y[:, 0]])
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    d = q - p
    t = np.clip(((P - p) @ d) / (d @ d), 0.0, 1.0)
    proj = p + t[:, None] * d
    return np.sqrt(np.sum((P - proj) ** 2, axis=1))


@pytest.mark.parametrize("p, q", DIAMOND_SEGMENTS)
def test_segment_distance_keeps_the_matmul_bits(p, q):
    rng = np.random.default_rng(21)
    a, b = np.array(p), np.array(q)
    d = b - a
    s = rng.uniform(0.0, 1.0, size=(4096, 1))
    off = rng.uniform(-3.0, 3.0, size=(4096, 1)) * np.array([-d[1], d[0]])
    on = a + s * d
    before = a - (s + 1e-3) * d + off          # t clips to 0
    past = b + (s + 1e-3) * d + off            # t clips to 1
    corners = [[u, v] for u in (-1.0, -0.0, 0.0, 1.0)
               for v in (-1.0, -0.0, 0.0, 1.0)]
    P = np.vstack([on, before, past, on + off, corners,
                   rng.uniform(-40.0, 40.0, size=(1 << 20, 2))])
    X, Y = P[:, :1], P[:, 1:]
    got = _segment_distance(X, Y, p, q)
    assert got.tobytes() == matmul_segment_distance(X, Y, p, q).tobytes()
    on_got, before_got, past_got = got[:3 * 4096].reshape(3, 4096)
    assert np.all(on_got < 1e-15)
    assert before_got == pytest.approx(np.hypot(*(before - a).T), rel=1e-12)
    assert past_got == pytest.approx(np.hypot(*(past - b).T), rel=1e-12)


def test_diagonal_distance_is_finite_at_huge_separations():
    # Squaring x - y overflowed to inf once |x - y| passed about 1.3e154.
    with np.errstate(all="raise"):
        rho = rho_values(get_curve("diagonal"), [[1e200]], [[-1e200]])[0]
    assert rho[0] == 2e200 / SQ2
