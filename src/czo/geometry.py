"""Curve geometry: boxes, regions, dyadic cubes, curve branches and validation.

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
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        for a, b in zip(self.lo, self.hi):
            if math.isnan(a) or math.isnan(b) or a > b:
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

    def intersects(self, other: "Box") -> bool:
        return all(max(a, c) <= min(b, d)
                   for a, b, c, d in zip(self.lo, self.hi, other.lo, other.hi))

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
    (m, n); ``jacobian`` returns the determinant per point.  ``lipschitz`` is
    the declared bound for both the map and its inverse; validate_curve audits
    it empirically.

    Optional exact structure, used by the faster code paths when present:

    - ``range_region``: the image gamma_i(D_i) as a union of boxes.
    - ``preimage_boxes``: maps a box B to the exact box decomposition of
      gamma_i^{-1}(B).
    - ``preimage_nearest``: for a range point y and query points x, the
      preimage of y closest to x (set-valued inverses resolved per query).
    - ``breakpoints``: parameter values (n=1) where the map is non-smooth;
      the distance solver splits its refinement bracket there.
    - ``distance``: the exact distance from each (x, y) to the graph of the
      branch, on point arrays of shape (m, n); without it rho falls back to
      the sampled solver.

    ``invertible=False`` marks a degenerate branch (e.g. a constant map)
    whose pointwise inverse is ill-defined; such branches are handled through
    the set-valued ``preimage_nearest`` and are skipped by the inverse-side
    audits.
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
    invertible: bool = True
    name: str = ""
    distance: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    # The sampled distance solver's samplers, keyed on the sampling extent.
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

    def nearest_range(self, Y) -> np.ndarray:
        """eta: the point of gamma_i(D_i) closest to each y.

        Exact clamp when ``range_region`` is declared; otherwise dense
        parameter sampling plus golden-section refinement, ties resolved to
        the smallest parameter.
        """
        Y = as_points(Y, self.dim)
        if self.range_region is not None:
            return self.range_region.clamp(Y)
        return _sampled_nearest_range(self, Y)


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


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

_RANGE_SAMPLES = 4096
_RANGE_CHUNK = 256           # queries per block of the sample argmin
_GOLDEN_ITERS = 64
_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_vec(g, a: np.ndarray, b: np.ndarray, iters: int = _GOLDEN_ITERS):
    """Minimize g over [a, b] elementwise; returns (t_best, g_best)."""
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        left = gc < gd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        span = b - a
        c_new = np.where(left, b - _PHI * span, d)
        d_new = np.where(left, c, a + _PHI * span)
        probe = np.where(left, c_new, d_new)
        gp = g(probe)
        gc_old = gc
        gc = np.where(left, gp, gd)
        gd = np.where(left, gc_old, gp)
        c, d = c_new, d_new
    use_c = gc <= gd
    return np.where(use_c, c, d), np.where(use_c, gc, gd)


def _sampled_nearest_range(b: CurveBranch, Y: np.ndarray) -> np.ndarray:
    if b.dim != 1:
        raise NotImplementedError(
            "sampled range projection is implemented for 1-d parameters; "
            "declare range_region for higher dimensions")
    boxes = b.domain.clipped()
    t = np.concatenate([np.linspace(bb.lo[0], bb.hi[0], _RANGE_SAMPLES)
                        for bb in boxes])
    lo = np.repeat([bb.lo[0] for bb in boxes], _RANGE_SAMPLES)
    hi = np.repeat([bb.hi[0] for bb in boxes], _RANGE_SAMPLES)
    # Sorted by parameter, argmin's first hit is the smallest tied parameter.
    order = np.argsort(t, kind="stable")
    t, lo, hi = t[order], lo[order], hi[order]
    vals = b.forward(t.reshape(-1, 1))
    k = np.empty(len(Y), dtype=int)
    for s in range(0, len(Y), _RANGE_CHUNK):
        d2 = np.sum((vals - Y[s:s + _RANGE_CHUNK, None]) ** 2, axis=2)
        k[s:s + _RANGE_CHUNK] = np.argmin(d2, axis=1)

    def g(p):
        return np.sum((b.forward(p[:, None]) - Y) ** 2, axis=1)

    spacing = (hi[k] - lo[k]) / (_RANGE_SAMPLES - 1)
    t_best, g_best = _golden_vec(g, np.maximum(lo[k], t[k] - spacing),
                                 np.minimum(hi[k], t[k] + spacing))
    g_k = g(t[k])
    refined = (g_best < g_k) | ((g_best == g_k) & (t_best < t[k]))
    return b.forward(np.where(refined, t_best, t[k])[:, None])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class BranchReport:
    index: int
    forward_ratio: float
    inverse_ratio: float
    min_jacobian: float
    max_roundtrip: float
    witness: Optional[tuple] = None


@dataclass
class ValidationReport:
    passed: bool
    c_gamma: float
    branches: list[BranchReport]

    @property
    def max_lipschitz_ratio(self) -> float:
        return max(max(b.forward_ratio, b.inverse_ratio) for b in self.branches)


def _sample_domain(b: CurveBranch, count: int, rng: np.random.Generator) -> np.ndarray:
    boxes = b.domain.clipped()
    per = max(2, count // len(boxes))
    pts = []
    for bb in boxes:
        pts.append(rng.uniform(bb.lo_a, bb.hi_a, size=(per, b.dim)))
    return np.concatenate(pts)


def validate_curve(curve: HyperCurve, sample_count: int = 1000,
                   seed: int = 0) -> ValidationReport:
    """Audit the declared branch structure on random sample pairs.

    Checks, per branch: empirical Lipschitz ratios of the map and (when the
    branch is invertible) its inverse, the round trip through the inverse,
    and the minimum |Jacobian|.  Passes iff every ratio stays below
    c_gamma * (1 + 1e-6) and no sampled Jacobian vanishes.
    """
    if sample_count < 2:
        raise RejectedInputError("sample_count must be at least 2")
    rng = np.random.default_rng(seed)
    cap = curve.c_gamma * (1.0 + 1e-6)
    reports = []
    passed = True
    for b in curve.branches:
        X = _sample_domain(b, sample_count, rng)
        Xp = _sample_domain(b, sample_count, rng)
        m = min(len(X), len(Xp))
        X, Xp = X[:m], Xp[:m]
        FX, FXp = b.forward(X), b.forward(Xp)
        dx = np.sqrt(np.sum((X - Xp) ** 2, axis=1))
        dy = np.sqrt(np.sum((FX - FXp) ** 2, axis=1))
        ok = dx > 0
        fwd_ratios = dy[ok] / dx[ok]
        k = int(np.argmax(fwd_ratios)) if len(fwd_ratios) else 0
        fwd = float(np.max(fwd_ratios)) if len(fwd_ratios) else 0.0
        witness = (tuple(X[ok][k]), tuple(Xp[ok][k])) if len(fwd_ratios) else None

        inv_ratio = 0.0
        roundtrip = 0.0
        min_jac = math.inf
        if b.invertible:
            # Set-valued inverses resolve to the preimage nearest the query,
            # so the round trip is well defined for two-to-one branches too.
            back = b.nearest_preimage(FX, X)
            roundtrip = float(np.max(np.sqrt(np.sum((back - X) ** 2, axis=1))))
            iy = dy > 0
            if b.breakpoints and b.dim == 1:
                # Two-to-one branches are Lipschitz-invertible piecewise;
                # compare only pairs on the same monotone piece.
                bp = np.array(b.breakpoints)
                same = (np.searchsorted(bp, X[:, 0])
                        == np.searchsorted(bp, Xp[:, 0]))
                iy = iy & same
            if np.any(iy):
                inv_ratio = float(np.max(dx[iy] / dy[iy]))
            J = b.jac(X)
            min_jac = float(np.min(np.abs(J)))
        rep = BranchReport(b.index, fwd, inv_ratio, min_jac, roundtrip)
        branch_ok = fwd <= cap and roundtrip <= 1e-9
        if b.invertible:
            branch_ok = branch_ok and inv_ratio <= cap and min_jac > 0.0
        if not branch_ok:
            rep.witness = witness
            passed = False
        reports.append(rep)
    return ValidationReport(passed, curve.c_gamma, reports)
