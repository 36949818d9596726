"""Built-in hyper curves: diagonal, two crossing lines, and the diamond."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import RegistryError
from .geometry import Box, CurveBranch, HyperCurve, box, region, whole_space


_SQRT2 = math.sqrt(2.0)


def _identity(X: np.ndarray) -> np.ndarray:
    return X.copy()


def _segment_distance(X: np.ndarray, Y: np.ndarray,
                      p: tuple, q: tuple) -> np.ndarray:
    """Distance in the (x, y) plane from (x_j, y_j) to segment p-q (n=1)."""
    x, y, (px, py) = X[:, 0], Y[:, 0], p
    dx, dy = q[0] - px, q[1] - py
    t = np.clip(((x - px) * dx + (y - py) * dy) / (dx * dx + dy * dy), 0, 1)
    return np.sqrt((x - (px + t * dx)) ** 2 + (y - (py + t * dy)) ** 2)


def _polyline_distance(*vertices: tuple):
    """The distance to the polyline through the given (x, y) vertices."""
    def distance(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return np.minimum.reduce([_segment_distance(X, Y, p, q)
                                  for p, q in zip(vertices, vertices[1:])])
    return distance


def diagonal(dim: int = 1) -> HyperCurve:
    """gamma(x) = x on R^dim: the classical diagonal singularity."""
    dom = whole_space(dim)
    br = CurveBranch(
        index=0, domain=dom,
        forward=_identity, inverse=_identity,
        jacobian=lambda X: np.ones(len(X)),
        lipschitz=1.0,
        range_region=dom,
        preimage_boxes=lambda b: [b],
        name="identity",
        distance=(lambda X, Y: np.abs(X[:, 0] - Y[:, 0]) / _SQRT2) if dim == 1
            else lambda X, Y: np.sqrt(np.sum((X - Y) ** 2, axis=1)) / _SQRT2,
    )
    return HyperCurve("diagonal", [br],
                      intersection_points=np.empty((0, dim)))


def _flip(b: Box) -> Box:
    """-B, the box reflected through the origin (n = 1)."""
    return Box((-b.hi[0],), (-b.lo[0],))


def _mirror(branch: CurveBranch, index: int, name: str) -> CurveBranch:
    """-gamma on the same domain (n = 1): every declaration of ``branch``
    read at -y."""
    return CurveBranch(
        index=index, domain=branch.domain,
        forward=lambda X: -branch.forward(X),
        inverse=lambda Y: branch.inverse(-Y),
        jacobian=lambda X: -branch.jacobian(X),
        lipschitz=branch.lipschitz,
        range_region=region(*map(_flip, branch.range_region.boxes)),
        preimage_boxes=lambda b: branch.preimage_boxes(_flip(b)),
        preimage_nearest=lambda Y, X: branch.nearest_preimage(-Y, X),
        breakpoints=branch.breakpoints,
        name=name,
        distance=lambda X, Y: branch.distance(X, -Y),
    )


def two_lines() -> HyperCurve:
    """gamma(x) = +-x on R: two lines crossing at the origin (n = 1)."""
    plus = dataclasses.replace(diagonal(1).branches[0], name="plus")
    return HyperCurve("two-lines", [plus, _mirror(plus, 1, "minus")],
                      intersection_points=np.array([[0.0]]))


def _pm_preimage_nearest(p: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Choose between preimages +-p the one closer to x; ties pick -p."""
    plus = p
    minus = -p
    d_plus = np.abs(X - plus)
    d_minus = np.abs(X - minus)
    return np.where(d_plus < d_minus, plus, minus)


def diamond() -> HyperCurve:
    """gamma(x) = +-(1 - |x|) for |x| <= 1 and 0 for |x| >= 1 (n = 1).

    The two slanted branches are two-to-one (set-valued preimages resolved
    per query), and the lower one is the upper one's mirror; the flat
    branch is constant, so it declares no inverse.
    """
    def upper_pre_boxes(b: Box) -> list[Box]:
        c, d = max(b.lo[0], 0.0), min(b.hi[0], 1.0)
        if c > d:
            return []
        return [box(1.0 - d, 1.0 - c), box(c - 1.0, d - 1.0)]

    upper = CurveBranch(
        index=0, domain=region(box(-1.0, 1.0)),
        forward=lambda X: 1.0 - np.abs(X),
        inverse=lambda Y: 1.0 - Y,           # the x in [0, 1] sheet
        jacobian=lambda X: -np.where(X[:, 0] >= 0.0, 1.0, -1.0),
        lipschitz=1.0,
        range_region=region(box(0.0, 1.0)),
        preimage_boxes=upper_pre_boxes,
        preimage_nearest=lambda Y, X: _pm_preimage_nearest(1.0 - Y, X),
        breakpoints=(0.0,),
        name="upper",
        distance=_polyline_distance((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)),
    )

    flat_dom = region(box(1.0, math.inf), box(-math.inf, -1.0))

    def flat_pre_boxes(b: Box) -> list[Box]:
        if b.lo[0] <= 0.0 <= b.hi[0]:
            return list(flat_dom.boxes)
        return []

    flat = CurveBranch(
        index=2, domain=flat_dom,
        forward=lambda X: np.zeros_like(X),
        inverse=None,
        jacobian=lambda X: np.zeros(len(X)),
        lipschitz=1.0,
        range_region=region(box(0.0, 0.0)),
        preimage_boxes=flat_pre_boxes,
        preimage_nearest=lambda Y, X: flat_dom.clamp(X),
        name="flat",
        distance=lambda X, Y: np.sqrt(flat_dom.distance(X) ** 2
                                      + Y[:, 0] ** 2),
    )

    return HyperCurve("diamond", [upper, _mirror(upper, 1, "lower"), flat],
                      intersection_points=np.array([[-1.0], [1.0]]))


_BUILDERS = {
    "diagonal": diagonal,
    "two-lines": two_lines,
    "diamond": diamond,
}

CURVE_NAMES = tuple(_BUILDERS)


def get_curve(name: str, dim: int = 1) -> HyperCurve:
    """Look up a built-in curve by name."""
    if name not in _BUILDERS:
        raise RegistryError(f"unknown curve {name!r}; known: {sorted(_BUILDERS)}")
    if name == "diagonal":
        return diagonal(dim)
    if dim != 1:
        raise RegistryError(f"curve {name!r} is one-dimensional")
    return _BUILDERS[name]()
