"""Branch-disjoint dyadic partitions of the range space.

A cube I is *branch-disjoint* for a curve when the preimages
``gamma_i^{-1}(I)`` of distinct branches overlap in at most a null set and
the closed cube avoids every critical value (the image of a point where two
branches meet).  Test functions supported on such cubes see at most one
branch at almost every x, which is what the multiplier-recovery step needs.

``build_partition`` refines the level-0 lattice cubes that meet a branch
range inside the sampling box [-32, 32]^n until each is branch-disjoint;
cubes still failing at ``max_depth`` land in the leftover set, whose
measure shrinks as the depth grows.

Overlap is decided from the branches' exact preimage boxes when every
branch declares them.  Otherwise a Monte-Carlo test looks for one of 4,096
fixed samples x (seed 0) that two branches map into the cube, and the
partition is flagged probabilistic.  No sample has two images under a
one-branch curve, so there the test skips the sampling and a cube fails
only on a critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from .errors import RejectedInputError
from .geometry import Box, DyadicCube, HyperCurve, whole_space
from .util import BOUNDING_HALF_WIDTH, as_points

_MEASURE_TOL = 1e-12
_OVERLAP_SAMPLES = 4096
_OVERLAP_SEED = 0


def critical_values(curve: HyperCurve) -> np.ndarray:
    """Distinct images of the branch intersection points, sorted, the first
    of equal ones (0.0 = -0.0) kept: np.unique(axis=0) without numpy.ma."""
    pts = curve.intersection_points
    vals = set()
    for b in curve.branches:
        inside = b.domain.contains(pts, tol=1e-12)
        if np.any(inside):
            vals.update(map(tuple, b.forward(pts[inside]).tolist()))
    return np.array(sorted(vals)).reshape(-1, curve.dim)


def _preimage_overlap_exact(curve: HyperCurve, bx: Box) -> Optional[bool]:
    """True/False when every branch declares exact preimage boxes, else None."""
    pre = []
    for b in curve.branches:
        if b.preimage_boxes is None:
            return None
        pre.append(b.preimage_boxes(bx))
    return any(_overlaps(a, c) for i in range(curve.r)
               for k in range(i + 1, curve.r) for a in pre[i] for c in pre[k])


def _overlaps(a: Box, c: Box) -> bool:
    """Whether ``a.intersection(c)`` measures > _MEASURE_TOL, from bounds."""
    m = 1.0
    for lo, hi in zip(map(max, a.lo, c.lo), map(min, a.hi, c.hi)):
        if lo > hi:
            return False
        m *= hi - lo
    return m > _MEASURE_TOL


def _preimage_overlap_sampled(curve: HyperCurve, bx: Box) -> bool:
    """Monte-Carlo fallback: sample x and look for points mapped into the
    cube by two distinct branches."""
    if curve.r < 2:
        return False
    rng = np.random.default_rng(_OVERLAP_SEED)
    X = rng.uniform(-BOUNDING_HALF_WIDTH, BOUNDING_HALF_WIDTH,
                    size=(_OVERLAP_SAMPLES, curve.dim))
    hits = np.zeros(_OVERLAP_SAMPLES, dtype=int)
    for b in curve.branches:
        inside = b.domain.contains(X)
        if not np.any(inside):
            continue
        img = b.forward(X[inside])
        hits[np.flatnonzero(inside)[bx.contains(img)]] += 1
    return bool(np.any(hits >= 2))


@dataclass
class DisjointnessResult:
    disjoint: bool
    critical_hit: bool       # the closed cube contains a critical value
    probabilistic: bool      # the overlap test fell back to sampling


def disjoint_preimage_test(curve: HyperCurve, cube: DyadicCube | Box,
                           crit: Optional[np.ndarray] = None
                           ) -> DisjointnessResult:
    bx = cube.as_box() if isinstance(cube, DyadicCube) else cube
    if crit is None:
        crit = critical_values(curve)
    critical_hit = bool(len(crit)) and bool(np.any(bx.contains(crit)))
    overlap = _preimage_overlap_exact(curve, bx)
    probabilistic = overlap is None
    if probabilistic:
        overlap = _preimage_overlap_sampled(curve, bx)
    return DisjointnessResult(not overlap and not critical_hit,
                              critical_hit, probabilistic)


@dataclass
class BranchDisjointPartition:
    curve: HyperCurve
    cubes: list[DyadicCube]
    leftover: list[DyadicCube]
    probabilistic: bool
    _levels: list = field(init=False, repr=False, compare=False)

    @property
    def leftover_measure(self) -> float:
        return float(sum(c.as_box().measure() for c in self.leftover))

    def __post_init__(self):
        # Per level, coarsest first: the sorted keys of corner - min corner.
        self._levels = []
        for lev in sorted({c.level for c in self.cubes}):
            idx = np.array([j for j, c in enumerate(self.cubes)
                            if c.level == lev])
            corners = np.array([self.cubes[j].corner for j in idx])
            lo = corners.min(axis=0)
            span = corners.max(axis=0) - lo + 1
            keys = np.ravel_multi_index(tuple((corners - lo).T), span)
            order = np.argsort(keys, kind="stable")
            self._levels.append((lev, lo, span, keys[order], idx[order]))

    def locate(self, Y) -> np.ndarray:
        """Index of the accepted cube containing each y (half-open
        convention), or -1 for leftover / uncovered points."""
        Y = as_points(Y, self.curve.dim)
        out = np.full(len(Y), -1, dtype=int)
        for lev, lo, span, keys, idx in self._levels:
            rel = np.floor(Y * 2.0 ** lev) - lo
            todo = np.flatnonzero((out < 0)
                                  & np.all((rel >= 0) & (rel < span), axis=1))
            key = np.ravel_multi_index(tuple(rel[todo].astype(int).T), span)
            pos = np.searchsorted(keys, key, side="right") - 1
            hit = (pos >= 0) & (keys[pos] == key)
            out[todo[hit]] = idx[pos[hit]]
        return out


def _level0_corners(curve: HyperCurve):
    """Integer corners of level-0 cubes meeting some branch range inside
    the sampling box."""
    n = curve.dim
    corners = set()
    for b in curve.branches:
        for bb in (b.range_region or whole_space(n)).clipped():
            ranges = []
            for k in range(n):
                lo = int(math.floor(bb.lo[k]))
                hi = max(lo + 1, int(math.ceil(bb.hi[k])))
                ranges.append(range(lo, hi))
            corners.update(product(*ranges))
    return sorted(corners)


def build_partition(curve: HyperCurve,
                    max_depth: int = 8) -> BranchDisjointPartition:
    """Refine lattice cubes covering the branch ranges until each accepted
    cube is branch-disjoint; undecidable cubes at max_depth go to leftover."""
    if max_depth < 0:
        raise RejectedInputError("max_depth must be nonnegative")
    crit = critical_values(curve)
    accepted: list[DyadicCube] = []
    leftover: list[DyadicCube] = []
    probabilistic = False
    stack = [DyadicCube(0, c) for c in _level0_corners(curve)]
    while stack:
        cube = stack.pop()
        res = disjoint_preimage_test(curve, cube, crit)
        probabilistic = probabilistic or res.probabilistic
        if res.disjoint:
            accepted.append(cube)
        elif cube.level >= max_depth:
            leftover.append(cube)
        else:
            stack.extend(cube.children())
    accepted.sort()
    leftover.sort()
    return BranchDisjointPartition(curve, accepted, leftover, probabilistic)
