"""Curve geometry: boxes, regions, dyadic cubes and curve branches.

A hyper curve is a finite union of graphs ``{(x, gamma_i(x)) : x in D_i}``
where each branch map ``gamma_i`` is Lipschitz with (declared) Lipschitz
inverse and nonvanishing Jacobian.  Domains are finite unions of closed
axis-aligned boxes, possibly unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CurveValidityError, RejectedInputError
from .util import BOUNDING_HALF_WIDTH, as_points


# ---------------------------------------------------------------------------
# Boxes and regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box prod_k [lo_k, hi_k]; bounds may be +-inf."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(map(float, self.lo)))
        object.__setattr__(self, "hi", tuple(map(float, self.hi)))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        for a, b in zip(self.lo, self.hi):
            if not a <= b:                     # a NaN bound fails it too
                raise ValueError(f"invalid box bounds [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def lo_a(self) -> np.ndarray:
        return np.array(self.lo, dtype=float)

    @property
    def hi_a(self) -> np.ndarray:
        return np.array(self.hi, dtype=float)

    @property
    def is_bounded(self) -> bool:
        return all(math.isfinite(a) and math.isfinite(b)
                   for a, b in zip(self.lo, self.hi))

    def measure(self) -> float:
        m = 1.0
        for a, b in zip(self.lo, self.hi):
            m *= (b - a)
        return m

    def side(self) -> float:
        """Side length; for non-cubic boxes, the maximum edge."""
        return max(b - a for a, b in zip(self.lo, self.hi))

    def contains(self, X, tol: float = 0.0) -> np.ndarray:
        X = as_points(X, self.dim)
        return np.all((X >= self.lo_a - tol) & (X <= self.hi_a + tol), axis=1)

    def clamp(self, X) -> np.ndarray:
        X = as_points(X, self.dim)
        return np.clip(X, self.lo_a, self.hi_a)

    def distance(self, X) -> np.ndarray:
        """Euclidean distance from each point to the box."""
        X = as_points(X, self.dim)
        d = np.maximum(self.lo_a - X, 0.0) + np.maximum(X - self.hi_a, 0.0)
        return np.sqrt(np.sum(d * d, axis=1))

    def intersection(self, other: "Box") -> Optional["Box"]:
        lo = tuple(max(a, c) for a, c in zip(self.lo, other.lo))
        hi = tuple(min(b, d) for b, d in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def clipped(self, half_width: float = BOUNDING_HALF_WIDTH) -> Optional["Box"]:
        """Intersection with the sampling box [-half_width, half_width]^n."""
        cube = Box((-half_width,) * self.dim, (half_width,) * self.dim)
        return self.intersection(cube)

    def dilate(self, radius: float) -> "Box":
        return Box(tuple(a - radius for a in self.lo),
                   tuple(b + radius for b in self.hi))


def box(lo, hi) -> Box:
    """Build a Box from scalars or sequences."""
    lo_t = (float(lo),) if np.isscalar(lo) else tuple(float(v) for v in lo)
    hi_t = (float(hi),) if np.isscalar(hi) else tuple(float(v) for v in hi)
    return Box(lo_t, hi_t)


def parse_box(text: str) -> Box:
    """The box written as ``lo..hi`` per axis, axes joined by commas."""
    try:
        ends = [(float(a), float(b)) for a, b in
                (span.split("..") for span in text.split(","))]
    except ValueError:
        raise RejectedInputError(
            f"box {text!r} is not lo..hi per axis, joined by commas") from None
    return Box(*zip(*ends))


@dataclass(frozen=True)
class Region:
    """A finite union of closed boxes."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        if not self.boxes:
            raise ValueError("a region needs at least one box")
        dims = {b.dim for b in self.boxes}
        if len(dims) != 1:
            raise ValueError("mixed-dimension region")

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def contains(self, X, tol: float = 0.0) -> np.ndarray:
        X = as_points(X, self.dim)
        out = np.zeros(len(X), dtype=bool)
        for b in self.boxes:
            out |= b.contains(X, tol)
        return out

    def clamp(self, X) -> np.ndarray:
        """Nearest point of the region; ties broken lexicographically."""
        X = as_points(X, self.dim)
        cands = np.stack([b.clamp(X) for b in self.boxes])        # (k, m, n)
        dists = np.stack([b.distance(X) for b in self.boxes])     # (k, m)
        tied = dists == np.min(dists, axis=0)
        for axis in range(self.dim):
            coord = cands[:, :, axis]
            tied &= coord == np.min(np.where(tied, coord, np.inf), axis=0)
        return cands[np.argmax(tied, axis=0), np.arange(len(X))]

    def distance(self, X) -> np.ndarray:
        X = as_points(X, self.dim)
        return np.min(np.stack([b.distance(X) for b in self.boxes]), axis=0)

    def box_distance(self, other: Box) -> float:
        """Distance between this region and a box (both closed sets)."""
        d = math.inf
        for b in self.boxes:
            gap = np.maximum(np.maximum(b.lo_a - other.hi_a,
                                        other.lo_a - b.hi_a), 0.0)
            d = min(d, float(np.sqrt(np.sum(gap * gap))))
        return d

    def clipped(self, half_width: float = BOUNDING_HALF_WIDTH) -> list[Box]:
        out = [b.clipped(half_width) for b in self.boxes]
        return [b for b in out if b is not None]


def region(*boxes_: Box) -> Region:
    return Region(tuple(boxes_))


def whole_space(dim: int) -> Region:
    return Region((Box((-math.inf,) * dim, (math.inf,) * dim),))


# ---------------------------------------------------------------------------
# Dyadic cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class DyadicCube:
    """The cube 2^{-level} * prod_k [corner_k, corner_k + 1]."""

    level: int
    corner: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.corner)

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    def as_box(self) -> Box:
        s = self.side
        return Box(tuple(c * s for c in self.corner),
                   tuple((c + 1) * s for c in self.corner))

    def children(self) -> list["DyadicCube"]:
        out = []
        base = tuple(2 * c for c in self.corner)
        for bits in range(2 ** self.dim):
            off = tuple((bits >> k) & 1 for k in range(self.dim))
            out.append(DyadicCube(self.level + 1,
                                  tuple(b + o for b, o in zip(base, off))))
        return out


# ---------------------------------------------------------------------------
# Curve branches and hyper curves
# ---------------------------------------------------------------------------

@dataclass
class CurveBranch:
    """One branch gamma_i: D_i -> R^n of a hyper curve.

    ``forward``, ``inverse`` and ``jacobian`` act on point arrays of shape
    (m, n); ``jacobian`` returns the determinant per point, which for n = 1
    the sampled rho solver reads as the signed gamma' (a wrong declaration
    can only overstate rho there).  ``lipschitz`` is the declared bound for
    both the map and its inverse.

    Optional exact structure, used by the faster code paths when present:

    - ``range_region``: the image gamma_i(D_i) as a union of boxes, onto
      which ``metric.nearest_range`` clamps; without it that range is
      sampled, which needs n = 1.
    - ``preimage_boxes``: maps a box B to the exact box decomposition of
      gamma_i^{-1}(B).
    - ``preimage_nearest``: for a range point y and query points x, the
      preimage of y closest to x (set-valued inverses resolved per query).
    - ``breakpoints``: parameter values (n=1) where the map is non-smooth;
      the distance solver splits its refinement bracket there.
    - ``distance``: the exact distance from each (x, y) to the graph of the
      branch, on point arrays of shape (m, n); without it rho falls back to
      the sampled solver, which needs n = 1.

    A degenerate branch (e.g. a constant map) declares ``inverse=None``:
    its pointwise inverse is ill-defined, so it is handled through the
    set-valued ``preimage_nearest``, and keeps check_qtheta off the measure
    half of the enlargement lemma while it is active.
    """

    index: int
    domain: Region
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Optional[Callable[[np.ndarray], np.ndarray]]
    jacobian: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    range_region: Optional[Region] = None
    preimage_boxes: Optional[Callable[[Box], list[Box]]] = None
    preimage_nearest: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    breakpoints: tuple[float, ...] = ()
    name: str = ""
    distance: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    # metric's samplers (each with its sampled range), keyed on the extent.
    _samplers: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def dim(self) -> int:
        return self.domain.dim

    def inv(self, Y) -> np.ndarray:
        if self.inverse is None:
            raise CurveValidityError(
                f"branch {self.index} has no pointwise inverse")
        return self.inverse(as_points(Y, self.dim))

    def jac(self, X) -> np.ndarray:
        return np.asarray(self.jacobian(as_points(X, self.dim)), dtype=float)

    def nearest_preimage(self, Y, X) -> np.ndarray:
        """The preimage of each y closest to the paired query point x."""
        Y = as_points(Y, self.dim)
        X = as_points(X, self.dim)
        if self.preimage_nearest is not None:
            return self.preimage_nearest(Y, X)
        return self.inv(Y)


@dataclass
class HyperCurve:
    """A standard hyper curve: r branches plus their finite intersection set."""

    name: str
    branches: list[CurveBranch]
    intersection_points: np.ndarray = field(
        default_factory=lambda: np.empty((0, 1)))

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a curve needs at least one branch")
        dims = {b.dim for b in self.branches}
        if len(dims) != 1:
            raise ValueError("mixed-dimension branches")
        self.intersection_points = np.asarray(
            self.intersection_points, dtype=float).reshape(-1, self.dim)

    @property
    def dim(self) -> int:
        return self.branches[0].dim

    @property
    def r(self) -> int:
        return len(self.branches)

    @property
    def c_gamma(self) -> float:
        # The shared Lipschitz constant is required to exceed 1; isometric
        # curves get clamped just above it so the lemma constants stay finite.
        return max(1.0 + 1e-9, max(b.lipschitz for b in self.branches))

    def branch(self, i: int) -> CurveBranch:
        if not 0 <= i < self.r:
            raise RejectedInputError(f"branch index {i} out of range (r={self.r})")
        return self.branches[i]
