"""Curve distances and enlarged cubes.

``rho_values`` is the Euclidean distance from each point (x, y) in R^{2n} to
the curve, ``rho_branch_values`` folded over the branches by np.minimum, as
(values, None) (perfbench/child.py unpacks two); ``rho_tilde_branch_values``
and ``rho_tilde_star_branch_values`` are cheap projection-based surrogates
per branch, from nearest domain / range points.  All three are equivalent
up to the factor 2(c_gamma + 1), which check_equivalence verifies.

rho takes one of two paths per branch.  A branch that declares its exact
``distance`` (every branch of the built-in curves does) is evaluated in
closed form.  Any other branch, which must have n = 1, falls back to the
sampled solver, ``sampled_rho_branch_values``: it seeds each pair at its
nearest dense curve samples (two on a domain of several boxes), found
exactly by a numpy search over capsule-bounded blocks of consecutive
samples, and refines each seed within one spacing inside its own box by a
bracketed secant (Illinois regula falsi) on the derivative of the squared
distance, with gamma' from the branch's ``jacobian``, split at declared
non-smooth parameter values.  ``nearest_range`` (eta) clamps onto a
declared ``range_region``, else onto the range of those samples, each end
refined by the same secant on gamma'.  Both group their points by one
rule, ``_per_extent``: a sampling box covering the domain's finite bounds
and, on an unbounded domain, each point's own coordinates, so no point of
a call changes another's bits.
Neither path takes a thread count; a caller that wants parallel rho splits
the pairs however it likes, as the dense T_eps build does with its rows.

``enlarged_cube`` builds Q_theta from the curve alone.  It keeps one piece
per active branch (one whose range lies within 2 sqrt(n) side(Q) of Q),
and a piece is exact when the branch declares ``preimage_boxes`` and a
single-box range.  ``check_qtheta`` runs the measure half of the lemma
only when every active piece's branch declares an ``inverse``, since the
covering argument behind the bound needs a Lipschitz inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import RejectedInputError
from .geometry import Box, CurveBranch, HyperCurve, Region
from .util import (_CHUNK, BOUNDING_HALF_WIDTH, as_points, audit_pairs,
                   chunk_ranges, pmap_chunks)

_SAMPLES_PER_AXIS = 4096
_BLOCK = 64                  # consecutive samples per nearest-search block
_QUERY_ROWS = 1024           # queries per pass of the nearest-sample search
_SECANT_STEPS = 8            # regula-falsi steps of each refine
_CONTAINS_TOL = 1e-7         # Q_theta boundary tolerance, relative to side(Q)
_PROBE_ROUNDS = 16           # most draws of 4 * probe_count separation probes


# ---------------------------------------------------------------------------
# Per-branch sampling caches
# ---------------------------------------------------------------------------

class _BranchSampler:
    """Dense samples (t, gamma(t)) of one branch (n = 1) inside the sampling
    box, with an exact search for the k nearest samples to a query point."""

    def __init__(self, branch: CurveBranch, extent: float):
        if branch.dim != 1:
            raise RejectedInputError(
                f"branch {branch.index} {branch.name!r} of a {branch.dim}-d "
                f"curve cannot be sampled: declare its distance and "
                f"range_region")
        boxes = branch.domain.clipped(extent)
        if not boxes:
            raise RejectedInputError(
                f"branch {branch.index} has empty domain inside the sampling box")
        lo = np.array([bb.lo[0] for bb in boxes])
        hi = np.array([bb.hi[0] for bb in boxes])
        self.t = np.linspace(lo, hi, _SAMPLES_PER_AXIS, axis=1).reshape(-1, 1)
        # Each sample's box bounds and spacing.
        self.lo, self.hi = (np.repeat(e, _SAMPLES_PER_AXIS) for e in (lo, hi))
        self.spacing = (self.hi - self.lo) / (_SAMPLES_PER_AXIS - 1)
        self.k = 1 if len(boxes) == 1 else 2
        P = np.hstack([self.t, branch.forward(self.t)])
        if not np.all(np.isfinite(P)):
            raise RejectedInputError(
                f"branch {branch.index} maps a sample to a non-finite point")
        # Blocks of _BLOCK consecutive samples (_SAMPLES_PER_AXIS is a
        # multiple of _BLOCK), each bounded by a capsule: the chord from its
        # first to its last sample, and the largest distance of a sample
        # from it.
        self.axes = [np.ascontiguousarray(c.reshape(-1, _BLOCK)) for c in P.T]
        self.chord_a = [x[:, 0] for x in self.axes]
        self.chord_v = [x[:, -1] - x[:, 0] for x in self.axes]
        vv = sum(v * v for v in self.chord_v)
        self.inv_vv = 1.0 / np.where(vv > 0.0, vv, 1.0)
        block = np.arange(len(P)) // _BLOCK
        self.radius = np.max(self._chord_distance(P.T, block)
                             .reshape(-1, _BLOCK), axis=1)
        self.scale = float(np.max(np.abs(P)))
        self.range: Optional[Region] = None      # see _sampled_range

    def bracket(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The refine bracket of samples k: within one spacing of each,
        inside its own box."""
        t, s = self.t[k, 0], self.spacing[k]
        return np.maximum(self.lo[k], t - s), np.minimum(self.hi[k], t + s)

    def _chord_distance(self, cols, block) -> np.ndarray:
        """Distance from the points with coordinate columns ``cols`` to the
        chords of ``block`` (an index array or slice), broadcast.  It runs
        on every (query, block) pair, so it works in place."""
        w = [x - a[block] for x, a in zip(cols, self.chord_a)]
        v = [c[block] for c in self.chord_v]
        t = w[0] * v[0]
        buf = np.empty_like(t)
        for wc, vc in zip(w[1:], v[1:]):
            t += np.multiply(wc, vc, out=buf)
        t *= self.inv_vv[block]
        np.clip(t, 0.0, 1.0, out=t)
        for wc, vc in zip(w, v):
            wc -= np.multiply(t, vc, out=buf)
            np.square(wc, out=wc)
        for wc in w[1:]:
            w[0] += wc
        return np.sqrt(w[0], out=w[0])

    def query(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest samples to each row of Q, as (distances, indices)
        of shape (m, k) in increasing distance; exact, with ties to the
        smaller sample index.

        Each query visits blocks in increasing capsule bound while that
        bound is at most its current k-th best distance.  The bounds are
        shrunk by a relative 1e-9 and an absolute 1e-12 of the coordinate
        scale, so rounding can cost a visit but never drop a nearer sample.
        """
        if len(Q) > _QUERY_ROWS:
            d, i = zip(*(self.query(Q[s:s + _QUERY_ROWS])
                         for s in range(0, len(Q), _QUERY_ROWS)))
            return np.concatenate(d), np.concatenate(i)
        lb = self._chord_distance(Q.T[:, :, None], slice(None))
        lb -= self.radius
        lb *= 1.0 - 1e-9
        slack = 1e-12 * (self.scale + np.max(np.abs(Q), axis=1))
        best2 = np.full((len(Q), self.k), np.inf)
        best = np.zeros((len(Q), self.k), dtype=np.intp)
        rows = np.arange(len(Q))
        while len(rows):
            j = np.argmin(lb, axis=1)
            go = (lb[np.arange(len(rows)), j] - slack[rows]
                  <= np.sqrt(best2[rows, -1]))
            rows, j, lb = rows[go], j[go], lb[go]
            at = np.arange(len(rows))
            lb[at, j] = np.inf
            d2 = sum(np.square(x[j] - Q[rows, c, None])
                     for c, x in enumerate(self.axes))
            # The block's k nearest join the k best so far.
            cand2, cand = [best2[rows]], [best[rows]]
            for _ in range(self.k):
                jj = np.argmin(d2, axis=1)
                cand2.append(d2[at, jj, None])
                cand.append(j[:, None] * _BLOCK + jj[:, None])
                d2[at, jj] = np.inf
            cand2, cand = np.hstack(cand2), np.hstack(cand)
            o = np.lexsort((cand, cand2), axis=1)[:, :self.k]
            best2[rows] = np.take_along_axis(cand2, o, 1)
            best[rows] = np.take_along_axis(cand, o, 1)
        return np.sqrt(best2), best


def _per_extent(branch: CurveBranch, P: np.ndarray, out: np.ndarray,
                solve) -> np.ndarray:
    """out with each group of rows of P that share a sampler half-width
    set to solve(extent, sel), sel the group's row mask.  A row's
    half-width is the smallest BOUNDING_HALF_WIDTH 2^k (k >= 0) that covers
    every finite bound of the domain and, on an unbounded one, is not below
    1.3 max(1, |p_k|) of that row alone."""
    boxes = branch.domain.boxes
    need = np.full(len(P), max((abs(v) for b in boxes for v in b.lo + b.hi
                                if math.isfinite(v)), default=0.0))
    if not all(b.is_bounded for b in boxes):
        need = np.maximum(need, 1.3 * np.maximum(1.0, np.max(np.abs(P), 1)))
    extents = np.full(len(P), BOUNDING_HALF_WIDTH)
    while np.any(grow := extents < need):
        extents[grow] *= 2.0
    for extent in sorted(set(extents.tolist())):
        sel = extents == extent
        out[sel] = solve(extent, sel)
    return out


def _get_sampler(branch: CurveBranch, extent: float) -> _BranchSampler:
    if extent not in branch._samplers:
        branch._samplers[extent] = _BranchSampler(branch, extent)
    return branch._samplers[extent]


def _graph(branch: CurveBranch, t: np.ndarray):
    """gamma(t) and gamma'(t) for a flat parameter array t (n = 1)."""
    T = t[:, None]
    return branch.forward(T)[:, 0], np.reshape(branch.jacobian(T), len(t))


def _illinois_min(g_h, lo: np.ndarray, hi: np.ndarray, *args) -> np.ndarray:
    """The least g over the points that Illinois regula falsi on h evaluates
    in [lo, hi], elementwise.  g_h(t, *args) returns (g, h), h being g' or a
    positive multiple of it; args are per-element arrays, subset along with
    the brackets.  h is taken one ulp inside each end, so at a breakpoint it
    is the derivative on this bracket's side; elements without
    h(lo) < 0 < h(hi) keep the ends."""
    a, b = np.nextafter(lo, hi), np.nextafter(hi, lo)
    ga, ha = g_h(a, *args)
    gb, hb = g_h(b, *args)
    best = np.minimum(ga, gb)
    k = np.flatnonzero((ha < 0.0) & (hb > 0.0))
    a, b, ha, hb = a[k], b[k], ha[k], hb[k]
    args = [v[k] for v in args]
    last = np.zeros(len(k))      # +1: the last step moved a, -1: moved b
    for _ in range(_SECANT_STEPS):
        t = b - hb * (b - a) / (hb - ha)
        t = np.where((a < t) & (t < b), t, 0.5 * (a + b))
        gt, ht = g_h(t, *args)
        best[k] = np.minimum(best[k], gt)
        left = ht <= 0.0
        # t replaces one end; the h of an end kept twice in a row is halved.
        ha = np.where(left, ht, np.where(last < 0, 0.5 * ha, ha))
        hb = np.where(left, np.where(last > 0, 0.5 * hb, hb), ht)
        a, b = np.where(left, t, a), np.where(left, b, t)
        last = np.where(left, 1.0, -1.0)
    return best


def _refine(branch: CurveBranch, g_h, lo, hi, *args) -> np.ndarray:
    """The least _illinois_min over the pieces of [lo, hi] between the
    branch's breakpoints."""
    edges = [lo, *(np.clip(bp, lo, hi) for bp in branch.breakpoints), hi]
    return np.min([_illinois_min(g_h, a, b, *args)
                   for a, b in zip(edges[:-1], edges[1:])], axis=0)


def _sampled_range(branch: CurveBranch, extent: float) -> Region:
    """gamma's range on the domain sampled at this extent: per box, the
    least and the largest sample value, each refined within one spacing of
    its sample."""
    sampler = _get_sampler(branch, extent)
    if sampler.range is None:
        vals = sampler.axes[1].ravel()
        first = np.arange(0, len(vals), _SAMPLES_PER_AXIS)
        ends = []
        for sign in (1.0, -1.0):
            def g_h(t):
                gamma, dgamma = _graph(branch, t)
                return sign * gamma, sign * dgamma

            k = first + np.argmin(sign * vals.reshape(len(first), -1), axis=1)
            g = _refine(branch, g_h, *sampler.bracket(k))
            ends.append(sign * np.minimum(sign * vals[k], g))
        sampler.range = Region(tuple(Box((a,), (b,)) for a, b in zip(*ends)))
    return sampler.range


def _solve_chunk(branch: CurveBranch, sampler: _BranchSampler,
                 X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """rho for a chunk of pairs: each of the k nearest samples seeds a
    refine of g(t) = (t - x)^2 + (gamma(t) - y)^2, on h = g'/2, and the
    least squared distance over the seeds and their refines is kept."""
    def g_h(t, x, y):
        gamma, dgamma = _graph(branch, t)
        dy = gamma - y
        return (t - x) ** 2 + dy ** 2, (t - x) + dy * dgamma

    d0, idx = sampler.query(np.hstack([X, Y]))
    best2 = np.min(d0, axis=1) ** 2
    for k in idx.T:
        best2 = np.minimum(best2, _refine(branch, g_h, *sampler.bracket(k),
                                          X[:, 0], Y[:, 0]))
    return np.sqrt(np.maximum(best2, 0.0))


# ---------------------------------------------------------------------------
# rho and its surrogates (vectorized APIs)
# ---------------------------------------------------------------------------

def rho_branch_values(curve: HyperCurve, i: int, X, Y) -> np.ndarray:
    """Distance from each (x, y) to the graph of branch i: the branch's
    declared distance when it has one, else the sampled solver."""
    b = curve.branch(i)
    if b.distance is None:
        return sampled_rho_branch_values(curve, i, X, Y)
    return b.distance(as_points(X, curve.dim), as_points(Y, curve.dim))


def sampled_rho_branch_values(curve: HyperCurve, i: int, X, Y) -> np.ndarray:
    """Distance from each (x, y) to the graph of branch i by the sampled
    solver, whether or not the branch declares an exact distance.  The
    pairs are grouped by their own sampler extent, so a pair's value does
    not depend on the other pairs of the call."""
    b = curve.branch(i)
    X = as_points(X, curve.dim)
    Y = as_points(Y, curve.dim)

    def run(s, e):
        Xc, Yc = X[s:e], Y[s:e]
        return _per_extent(b, np.hstack([Xc, Yc]), np.empty(e - s),
                           lambda extent, sel: _solve_chunk(
                               b, _get_sampler(b, extent), Xc[sel], Yc[sel]))

    return pmap_chunks(run, len(X), _CHUNK)


def nearest_range(branch: CurveBranch, Y) -> np.ndarray:
    """eta: the point of gamma_i(D_i) nearest each y, by Region.clamp onto
    the declared range_region, else (n = 1) onto the range sampled at the
    point's own extent, so no other point of the call changes its bits."""
    Y = as_points(Y, branch.dim)
    if branch.range_region is not None:
        return branch.range_region.clamp(Y)
    return _per_extent(branch, Y, np.empty_like(Y),
                       lambda extent, sel:
                       _sampled_range(branch, extent).clamp(Y[sel]))


def rho_values(curve: HyperCurve, X, Y):
    """min over branches of rho_i, folded by np.minimum in np.min's order;
    returns (values, None), as perfbench/child.py unpacks two slots."""
    values = rho_branch_values(curve, 0, X, Y)
    for i in range(1, curve.r):
        values = np.minimum(values, rho_branch_values(curve, i, X, Y))
    return values, None


def rho_tilde_branch_values(curve: HyperCurve, i: int, X, Y) -> np.ndarray:
    """|x - xi_{i,x}| + |y - gamma_i(xi_{i,x})| with exact clamping."""
    b = curve.branch(i)
    X = as_points(X, curve.dim)
    Y = as_points(Y, curve.dim)
    xi = b.domain.clamp(X)
    return (np.sqrt(np.sum((X - xi) ** 2, axis=1))
            + np.sqrt(np.sum((Y - b.forward(xi)) ** 2, axis=1)))


def rho_tilde_star_branch_values(curve: HyperCurve, i: int, X, Y) -> np.ndarray:
    """|y - eta_{i,y}| + |x - gamma_i^{-1}(eta_{i,y})|.

    For set-valued inverses the preimage of eta closest to x is used; this
    keeps the value an upper bound for rho_i and preserves the equivalence
    constants for piecewise-invertible branches.
    """
    b = curve.branch(i)
    X = as_points(X, curve.dim)
    Y = as_points(Y, curve.dim)
    eta = nearest_range(b, Y)
    pre = b.nearest_preimage(eta, X)
    return (np.sqrt(np.sum((Y - eta) ** 2, axis=1))
            + np.sqrt(np.sum((X - pre) ** 2, axis=1)))


# ---------------------------------------------------------------------------
# Equivalence audit
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceReport:
    passed: bool
    pair_count: int
    max_ratio_tilde: float       # max of rho_tilde / rho over the sample
    max_ratio_star: float
    bound: float                 # 2 (c_gamma + 1)
    witness: Optional[tuple] = None


def check_equivalence(curve: HyperCurve, pair_count: int,
                      seed: int) -> EquivalenceReport:
    """Sample random (x, y) and verify rho <= rho~ <= 2(c+1) rho per branch
    and globally, with multiplicative slack 1 + 1e-5 for solver error."""
    if pair_count < 1:
        raise RejectedInputError("pair_count must be positive")
    X, Y = audit_pairs(np.random.default_rng(seed), pair_count, curve.dim)
    bound = 2.0 * (curve.c_gamma + 1.0)
    slack = 1.0 + 1e-5
    abs_tol = 1e-12
    passed = True
    witness = None
    max_rt = 0.0
    max_rs = 0.0
    for i in range(curve.r):
        r_i = rho_branch_values(curve, i, X, Y)
        rt_i = rho_tilde_branch_values(curve, i, X, Y)
        rs_i = rho_tilde_star_branch_values(curve, i, X, Y)
        for surrogate in (rt_i, rs_i):
            low_ok = r_i <= surrogate * slack + abs_tol
            high_ok = surrogate <= bound * r_i * slack + abs_tol
            bad = ~(low_ok & high_ok)
            if np.any(bad):
                passed = False
                j = int(np.argmax(bad))
                witness = (tuple(X[j].tolist()), tuple(Y[j].tolist()), i)
        pos = r_i > 1e-12
        if np.any(pos):
            max_rt = max(max_rt, float(np.max(rt_i[pos] / r_i[pos])))
            max_rs = max(max_rs, float(np.max(rs_i[pos] / r_i[pos])))
    return EquivalenceReport(passed, pair_count, max_rt, max_rs, bound, witness)


# ---------------------------------------------------------------------------
# Enlarged cubes Q_theta
# ---------------------------------------------------------------------------

def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass
class CubePiece:
    """The part of Q_theta that one active branch contributes: exact from
    ``preimage_boxes``, else from eta_{i,Q} on a grid of ``cube``, kept."""

    branch: CurveBranch
    preimage_boxes: Optional[list[Box]] = None   # exact path
    cube: Optional[Box] = None                   # sampled path
    _eta: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                       compare=False)

    def distance(self, X: np.ndarray) -> np.ndarray:
        """d(x, gamma_i^{-1}(eta_{i,Q})) for each query x."""
        if self.preimage_boxes is not None:
            return np.min(np.stack([b.distance(X)
                                    for b in self.preimage_boxes]), axis=0)
        if self._eta is None:
            self._eta = nearest_range(self.branch, _cube_y_samples(self.cube))
        eta, pre = self._eta, self.branch.nearest_preimage
        best = np.full(len(X), math.inf)
        step = max(1, _CHUNK // max(len(X), 1))
        for chunk in np.array_split(eta, range(step, len(eta), step)):
            # All (eta, x) pairs of ~_CHUNK in one call, then the min over eta.
            E = np.repeat(chunk, len(X), axis=0)
            XX = np.tile(X, (len(chunk), 1))
            d = np.sqrt(np.sum((XX - pre(E, XX)) ** 2, axis=1))
            best = np.minimum(best, d.reshape(len(chunk), len(X)).min(axis=0))
        return best


def _cube_y_samples(Q: Box, per_axis: int = 256) -> np.ndarray:
    axes = [np.linspace(Q.lo[k], Q.hi[k], per_axis) for k in range(Q.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return grid.reshape(-1, Q.dim)


@dataclass
class EnlargedCube:
    base: Box
    theta: float
    curve: HyperCurve
    pieces: list[CubePiece]      # one per active branch

    def contains(self, X) -> np.ndarray:
        """Membership in Q_theta; boundary tolerance 1e-7 * side(Q)."""
        X = as_points(X, self.curve.dim)
        ell = self.base.side()
        thresh = (self.theta * ell * (1.0 + _CONTAINS_TOL)
                  + _CONTAINS_TOL * ell)
        out = np.zeros(len(X), dtype=bool)
        for p in self.pieces:
            out |= p.distance(X) <= thresh
        return out

    def bounding_box(self) -> Box:
        n = self.curve.dim
        ell = self.base.side()
        lo = np.full(n, math.inf)
        hi = np.full(n, -math.inf)
        for p in self.pieces:
            if p.preimage_boxes is not None:
                for b in p.preimage_boxes:
                    # An unbounded preimage is cut to the sampling box.
                    b = b if b.is_bounded else b.clipped()
                    if b is None:
                        continue
                    bd = b.dilate(self.theta * ell * 1.001)
                    lo = np.minimum(lo, bd.lo_a)
                    hi = np.maximum(hi, bd.hi_a)
            else:
                # Fall back to the covering-ball extent from the measure proof.
                radius = (self.theta
                          + 6.0 * math.sqrt(n) * self.curve.c_gamma) * ell
                ys = _cube_y_samples(self.base, per_axis=16)
                eta = nearest_range(p.branch, ys)
                pre = p.branch.nearest_preimage(eta, ys)
                lo = np.minimum(lo, np.min(pre, axis=0) - radius)
                hi = np.maximum(hi, np.max(pre, axis=0) + radius)
        if not np.all(np.isfinite(lo)):
            return self.base
        return Box(tuple(lo), tuple(hi))


def _range_distance(branch: CurveBranch, Q: Box) -> float:
    if branch.range_region is not None:
        return branch.range_region.box_distance(Q)
    ys = _cube_y_samples(Q, per_axis=64)
    eta = nearest_range(branch, ys)
    return float(np.min(np.sqrt(np.sum((ys - eta) ** 2, axis=1))))


def _eta_box(branch: CurveBranch, Q: Box) -> Optional[Box]:
    """The set {eta_{i,y} : y in Q} when the range is a single box."""
    if branch.range_region is None or len(branch.range_region.boxes) != 1:
        return None
    return Box(*branch.range_region.boxes[0].clamp([Q.lo, Q.hi]))


def enlarged_cube(curve: HyperCurve, Q: Box, theta: float) -> EnlargedCube:
    """Build Q_theta = union over the active branches of
    {x : d(x, gamma_i^{-1}(eta_{i,Q})) <= theta * side(Q)}.  A branch is
    active when its range lies within 2 sqrt(n) side(Q) of Q and, on the
    exact path, its preimage of eta_{i,Q} is not empty."""
    if not (math.isfinite(theta) and theta > 1.0):
        raise RejectedInputError(f"theta must be finite and exceed 1: {theta}")
    if Q.dim != curve.dim:
        raise RejectedInputError(f"cube Q has {Q.dim} axes but the curve "
                                 f"{curve.name!r} has {curve.dim}: {Q}")
    if not Q.is_bounded or min(Q.hi_a - Q.lo_a) <= 0.0:
        raise RejectedInputError(
            f"cube Q must be bounded with positive edges: {Q}")
    cutoff = 2.0 * math.sqrt(curve.dim) * Q.side()
    pieces = []
    for b in curve.branches:
        if _range_distance(b, Q) >= cutoff:
            continue
        eb = _eta_box(b, Q)
        if eb is None or b.preimage_boxes is None:
            pieces.append(CubePiece(b, cube=Q))
        elif boxes := b.preimage_boxes(eb):
            pieces.append(CubePiece(b, boxes, Q))
    return EnlargedCube(Q, theta, curve, pieces)


def _require_separation(curve: HyperCurve, theta: float) -> None:
    """Reject theta unless it is finite and exceeds the separation
    hypothesis bound 2 sqrt(n) + 5 sqrt(n) c_gamma."""
    n = curve.dim
    hypo = 2.0 * math.sqrt(n) + 5.0 * math.sqrt(n) * curve.c_gamma
    if not (math.isfinite(theta) and theta > hypo):
        raise RejectedInputError(f"theta={theta} violates the separation "
                                 f"hypothesis (finite, > {hypo})")


@dataclass
class QThetaReport:
    passed: bool
    measure_estimate: Optional[float]    # None: the measure half was skipped
    measure_halfwidth: Optional[float]   # 99% confidence half-width
    measure_bound: float         # C theta^n |Q| with the covering constant
    min_probe_rho: float
    separation_bound: float      # 2 sqrt(n) ell(Q) (1 - 1e-5)
    witness: Optional[tuple] = None


def check_qtheta(curve: HyperCurve, Q: Box, theta: float,
                 probe_count: int = 1000, seed: int = 0,
                 mc_samples: int = 1_000_000) -> QThetaReport:
    """Verify the measure bound and the separation property of Q_theta.

    Requires theta > 2 sqrt(n) + 5 sqrt(n) c_gamma (the separation
    hypothesis).  The measure bound uses the covering constant
    C = omega_n * r * (1 + 6 sqrt(n) c_gamma / theta)^n visible in the
    covering-ball argument, which needs every active branch to have a
    Lipschitz inverse.  When some active piece's branch declares
    ``inverse=None`` the measure half is skipped and the report's
    ``measure_estimate`` and ``measure_halfwidth`` are None; the separation
    half always runs.  Its probes outside Q_theta are drawn in at most
    ``_PROBE_ROUNDS`` rounds from the probe box (Q_theta's bounding box
    dilated by 4 theta side(Q), rejected unless its squared width is
    finite); when Q_theta covers it none is found, and the half holds
    vacuously with ``min_probe_rho`` = inf.
    The ``mc_samples`` points are drawn and tested ``_CHUNK`` at a time,
    so memory does not grow with ``mc_samples``.
    """
    if probe_count < 1:
        raise RejectedInputError(
            f"probe_count must be at least 1: {probe_count}")
    _require_separation(curve, theta)
    if mc_samples < 1:
        raise RejectedInputError("mc_samples must be positive")
    ec = enlarged_cube(curve, Q, theta)
    n = curve.dim
    ell = Q.side()
    rng = np.random.default_rng(seed)

    omega = _unit_ball_volume(n)
    C = omega * curve.r * (1.0 + 6.0 * math.sqrt(n) * curve.c_gamma / theta) ** n
    bound = C * theta ** n * Q.measure()

    bbox = ec.bounding_box()
    pbox = bbox.dilate(4.0 * theta * ell)
    widths = [float(b) - float(a) for a, b in zip(pbox.lo, pbox.hi)]
    if not math.isfinite(sum(w * w for w in widths)):
        raise RejectedInputError(f"theta={theta} and cube {Q} give a probe box "
                                 f"whose squared width is not finite: {pbox}")
    est = hw = None
    passed = True
    witness = None
    if all(p.branch.inverse is not None for p in ec.pieces):
        vol = bbox.measure()
        # Drawn in chunks: the same doubles in the same order as one draw.
        hits = sum(np.count_nonzero(ec.contains(
            rng.uniform(bbox.lo_a, bbox.hi_a, size=(e - s, n))))
            for s, e in chunk_ranges(mc_samples, _CHUNK))
        p = int(hits) / mc_samples
        est = p * vol
        hw = 2.576 * math.sqrt(max(p * (1 - p), 1e-12) / mc_samples) * vol
        if est - hw > bound:
            passed = False
            witness = ("measure", est, bound)

    # Separation probes: x outside Q_theta, y inside Q.
    sep_bound = 2.0 * math.sqrt(n) * ell * (1.0 - 1e-5)
    xs = []
    for _ in range(_PROBE_ROUNDS):
        cand = rng.uniform(pbox.lo_a, pbox.hi_a, size=(4 * probe_count, n))
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
    return QThetaReport(passed, est, hw, bound, min_rho, sep_bound, witness)
