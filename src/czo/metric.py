"""Curve distances and enlarged cubes.

``rho_values`` is the Euclidean distance from each point (x, y) in R^{2n} to
the curve, the minimum over branches of ``rho_branch_values``;
``rho_tilde_branch_values`` and ``rho_tilde_star_branch_values`` are the
cheap projection-based surrogates per branch, built from nearest domain /
range points.  All three are equivalent up to the factor 2(c_gamma + 1),
which check_equivalence verifies empirically.

rho takes one of two paths per branch.  A branch that declares its exact
``distance`` (every branch of the built-in curves does) is evaluated in
closed form.  Any other branch falls back to the sampled solver,
``sampled_rho_branch_values``: it seeds a KD-tree over dense curve samples
and refines with vectorized golden-section search, splitting brackets at
declared non-smooth parameter values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RejectedInputError
from .geometry import Box, CurveBranch, HyperCurve, _golden_vec
from .util import BOUNDING_HALF_WIDTH, as_points, audit_pairs, pmap_chunks

_SAMPLES_PER_AXIS = 4096
_CHUNK = 1 << 14
_SWEEPS = 6                  # coordinate sweeps of the n-d solver
_CONTAINS_TOL = 1e-7         # Q_theta boundary tolerance, relative to side(Q)


# ---------------------------------------------------------------------------
# Per-branch sampling caches
# ---------------------------------------------------------------------------

class _BranchSampler:
    def __init__(self, branch: CurveBranch, extent: float):
        from scipy.spatial import cKDTree

        self.extent = extent
        dim = branch.dim
        boxes = branch.domain.clipped(extent)
        if not boxes:
            raise RejectedInputError(
                f"branch {branch.index} has empty domain inside the sampling box")
        per_axis = _SAMPLES_PER_AXIS if dim == 1 else max(
            8, int(round(_SAMPLES_PER_AXIS ** (1.0 / dim))))
        ts, los, his, spacings = [], [], [], []
        for bb in boxes:
            axes = [np.linspace(bb.lo[k], bb.hi[k], per_axis)
                    for k in range(dim)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            T = grid.reshape(-1, dim)
            ts.append(T)
            los.append(np.broadcast_to(bb.lo_a, T.shape).copy())
            his.append(np.broadcast_to(bb.hi_a, T.shape).copy())
            sp = np.array([(bb.hi[k] - bb.lo[k]) / (per_axis - 1)
                           for k in range(dim)])
            spacings.append(np.broadcast_to(sp, T.shape).copy())
        self.t = np.concatenate(ts)
        self.lo = np.concatenate(los)
        self.hi = np.concatenate(his)
        self.spacing = np.concatenate(spacings)
        P = np.hstack([self.t, branch.forward(self.t)])
        self.tree = cKDTree(P)
        self.k = 1 if len(boxes) == 1 else 2


def _extent_for(branch: CurveBranch, X: np.ndarray, Y: np.ndarray) -> float:
    bounded = all(b.is_bounded for b in branch.domain.boxes)
    if bounded:
        return BOUNDING_HALF_WIDTH
    need = 1.3 * max(1.0, float(np.max(np.abs(X))), float(np.max(np.abs(Y))))
    extent = BOUNDING_HALF_WIDTH
    while extent < need:
        extent *= 2.0
    return extent


def _get_sampler(branch: CurveBranch, extent: float) -> _BranchSampler:
    if extent not in branch._samplers:
        branch._samplers[extent] = _BranchSampler(branch, extent)
    return branch._samplers[extent]


def _solve_chunk_1d(branch: CurveBranch, sampler: _BranchSampler,
                    X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    x = X[:, 0]

    def g(t):
        fwd = branch.forward(t[:, None])
        return (x - t) ** 2 + np.sum((fwd - Y) ** 2, axis=1)

    Q = np.hstack([X, Y])
    d0, idx = sampler.tree.query(Q, k=sampler.k)
    if sampler.k == 1:
        d0 = d0[:, None]
        idx = idx[:, None]
    best2 = np.min(d0, axis=1) ** 2
    for col in range(idx.shape[1]):
        t0 = sampler.t[idx[:, col], 0]
        lo = sampler.lo[idx[:, col], 0]
        hi = sampler.hi[idx[:, col], 0]
        s = sampler.spacing[idx[:, col], 0]
        a = np.maximum(lo, t0 - s)
        b = np.minimum(hi, t0 + s)
        edges = [a]
        for bp in branch.breakpoints:
            edges.append(np.clip(bp, a, b))
        edges.append(b)
        for lo_e, hi_e in zip(edges[:-1], edges[1:]):
            _, gb = _golden_vec(g, lo_e, hi_e)
            best2 = np.minimum(best2, gb)
            best2 = np.minimum(best2, g(lo_e))
        best2 = np.minimum(best2, g(b))
    return np.sqrt(np.maximum(best2, 0.0))


def _solve_chunk_nd(branch: CurveBranch, sampler: _BranchSampler,
                    X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    dim = branch.dim

    def g_full(T):
        fwd = branch.forward(T)
        return np.sum((X - T) ** 2, axis=1) + np.sum((fwd - Y) ** 2, axis=1)

    Q = np.hstack([X, Y])
    d0, idx = sampler.tree.query(Q, k=sampler.k)
    if sampler.k == 1:
        idx = idx[:, None]
    idx0 = idx[:, 0]
    T = sampler.t[idx0].copy()
    lo = sampler.lo[idx0]
    hi = sampler.hi[idx0]
    s = sampler.spacing[idx0]
    for _ in range(_SWEEPS):
        for axis in range(dim):
            a = np.maximum(lo[:, axis], T[:, axis] - s[:, axis])
            b = np.minimum(hi[:, axis], T[:, axis] + s[:, axis])

            def g_axis(t):
                Tt = T.copy()
                Tt[:, axis] = t
                return g_full(Tt)

            t_best, _ = _golden_vec(g_axis, a, b, iters=32)
            T[:, axis] = t_best
    return np.sqrt(np.maximum(g_full(T), 0.0))


# ---------------------------------------------------------------------------
# rho and its surrogates (vectorized APIs)
# ---------------------------------------------------------------------------

def rho_branch_values(curve: HyperCurve, i: int, X, Y,
                      threads: int = 1) -> np.ndarray:
    """Distance from each (x, y) to the graph of branch i: the branch's
    declared distance when it has one, else the sampled solver."""
    b = curve.branch(i)
    if b.distance is None:
        return sampled_rho_branch_values(curve, i, X, Y, threads)
    return b.distance(as_points(X, curve.dim), as_points(Y, curve.dim))


def sampled_rho_branch_values(curve: HyperCurve, i: int, X, Y,
                              threads: int = 1) -> np.ndarray:
    """Distance from each (x, y) to the graph of branch i by the sampled
    solver, whether or not the branch declares an exact distance."""
    b = curve.branch(i)
    X = as_points(X, curve.dim)
    Y = as_points(Y, curve.dim)
    sampler = _get_sampler(b, _extent_for(b, X, Y))
    solve = _solve_chunk_1d if curve.dim == 1 else _solve_chunk_nd

    def run(s, e):
        return solve(b, sampler, X[s:e], Y[s:e])

    return pmap_chunks(run, len(X), _CHUNK, threads)


def rho_values(curve: HyperCurve, X, Y, threads: int = 1):
    """min over branches of rho_i; returns (values, attaining branch indices)."""
    stacked = np.stack([rho_branch_values(curve, i, X, Y, threads)
                        for i in range(curve.r)])
    return np.min(stacked, axis=0), np.argmin(stacked, axis=0)


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
    eta = b.nearest_range(Y)
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


def check_equivalence(curve: HyperCurve, pair_count: int, seed: int,
                      threads: int = 1) -> EquivalenceReport:
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
        r_i = rho_branch_values(curve, i, X, Y, threads)
        rt_i = rho_tilde_branch_values(curve, i, X, Y)
        rs_i = rho_tilde_star_branch_values(curve, i, X, Y)
        for surrogate in (rt_i, rs_i):
            low_ok = r_i <= surrogate * slack + abs_tol
            high_ok = surrogate <= bound * r_i * slack + abs_tol
            bad = ~(low_ok & high_ok)
            if np.any(bad):
                passed = False
                j = int(np.argmax(bad))
                witness = (tuple(X[j]), tuple(Y[j]), i)
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
    branch: int
    empty: bool
    preimage_boxes: Optional[list[Box]] = None   # exact path
    radius: float = 0.0

    def distance(self, branch_obj: CurveBranch, Q: Box, X: np.ndarray,
                 y_samples: Optional[np.ndarray] = None) -> np.ndarray:
        """d(x, gamma_i^{-1}(eta_{i,Q})) for each query x."""
        if self.empty:
            return np.full(len(X), math.inf)
        if self.preimage_boxes is not None:
            if not self.preimage_boxes:
                return np.full(len(X), math.inf)
            return np.min(np.stack([b.distance(X)
                                    for b in self.preimage_boxes]), axis=0)
        return _sampled_piece_distance(branch_obj, Q, X, y_samples)


def _cube_y_samples(Q: Box, per_axis: int = 256) -> np.ndarray:
    axes = [np.linspace(Q.lo[k], Q.hi[k], per_axis) for k in range(Q.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return grid.reshape(-1, Q.dim)


def _sampled_piece_distance(branch: CurveBranch, Q: Box, X: np.ndarray,
                            y_samples: Optional[np.ndarray]) -> np.ndarray:
    if y_samples is None:
        y_samples = _cube_y_samples(Q)
    eta = branch.nearest_range(y_samples)
    best = np.full(len(X), math.inf)
    step = max(1, _CHUNK // max(len(X), 1))
    for chunk in np.array_split(eta, range(step, len(eta), step)):
        # All (eta, x) pairs of ~_CHUNK in one call, then the min over eta.
        E = np.repeat(chunk, len(X), axis=0)
        XX = np.tile(X, (len(chunk), 1))
        d = np.sqrt(np.sum((XX - branch.nearest_preimage(E, XX)) ** 2, axis=1))
        best = np.minimum(best, d.reshape(len(chunk), len(X)).min(axis=0))
    return best


@dataclass
class EnlargedCube:
    base: Box
    theta: float
    curve: HyperCurve
    pieces: list[CubePiece]
    exact: bool

    def contains(self, X) -> np.ndarray:
        """Membership in Q_theta; boundary tolerance 1e-7 * side(Q)."""
        X = as_points(X, self.curve.dim)
        ell = self.base.side()
        thresh = (self.theta * ell * (1.0 + _CONTAINS_TOL)
                  + _CONTAINS_TOL * ell)
        out = np.zeros(len(X), dtype=bool)
        for p in self.pieces:
            if p.empty:
                continue
            d = p.distance(self.curve.branch(p.branch), self.base, X)
            out |= d <= thresh
        return out

    def bounding_box(self) -> Box:
        n = self.curve.dim
        ell = self.base.side()
        lo = np.full(n, math.inf)
        hi = np.full(n, -math.inf)
        for p in self.pieces:
            if p.empty:
                continue
            if p.preimage_boxes:
                for b in p.preimage_boxes:
                    bd = b.dilate(self.theta * ell * 1.001)
                    lo = np.minimum(lo, bd.lo_a)
                    hi = np.maximum(hi, bd.hi_a)
            else:
                # Fall back to the covering-ball extent from the measure proof.
                br = self.curve.branch(p.branch)
                ys = _cube_y_samples(self.base, per_axis=16)
                eta = br.nearest_range(ys)
                pre = br.nearest_preimage(eta, ys)
                lo = np.minimum(lo, np.min(pre, axis=0) - p.radius)
                hi = np.maximum(hi, np.max(pre, axis=0) + p.radius)
        if not np.all(np.isfinite(lo)):
            return self.base
        return Box(tuple(lo), tuple(hi))


def _range_distance(branch: CurveBranch, Q: Box) -> float:
    if branch.range_region is not None:
        return branch.range_region.box_distance(Q)
    ys = _cube_y_samples(Q, per_axis=64)
    eta = branch.nearest_range(ys)
    return float(np.min(np.sqrt(np.sum((ys - eta) ** 2, axis=1))))


def _eta_box(branch: CurveBranch, Q: Box) -> Optional[Box]:
    """The set {eta_{i,y} : y in Q} when the range is a single box."""
    if branch.range_region is None or len(branch.range_region.boxes) != 1:
        return None
    rb = branch.range_region.boxes[0]
    lo = tuple(min(max(a, c), d) for a, c, d in zip(Q.lo, rb.lo, rb.hi))
    hi = tuple(min(max(b, c), d) for b, c, d in zip(Q.hi, rb.lo, rb.hi))
    return Box(lo, hi)


def enlarged_cube(curve: HyperCurve, Q: Box, theta: float) -> EnlargedCube:
    """Build Q_theta = union over branches of {x : d(x, gamma_i^{-1}(eta_{i,Q}))
    <= theta * side(Q)}, with each piece empty when the branch range is at
    distance >= 2 sqrt(n) side(Q) from Q."""
    if not (math.isfinite(theta) and theta > 1.0):
        raise RejectedInputError(f"theta must be finite and exceed 1: {theta}")
    if not Q.is_bounded or min(Q.hi_a - Q.lo_a) <= 0.0:
        raise RejectedInputError(
            f"cube Q must be bounded with positive edges: {Q}")
    n = curve.dim
    ell = Q.side()
    cutoff = 2.0 * math.sqrt(n) * ell
    radius = (theta + 6.0 * math.sqrt(n) * curve.c_gamma) * ell
    pieces = []
    exact = True
    for i, b in enumerate(curve.branches):
        if _range_distance(b, Q) >= cutoff:
            pieces.append(CubePiece(i, empty=True))
            continue
        eb = _eta_box(b, Q)
        if eb is not None and b.preimage_boxes is not None:
            pieces.append(CubePiece(i, empty=False,
                                    preimage_boxes=b.preimage_boxes(eb),
                                    radius=radius))
        else:
            exact = False
            pieces.append(CubePiece(i, empty=False, radius=radius))
    return EnlargedCube(Q, theta, curve, pieces, exact)


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
    measure_estimate: float
    measure_halfwidth: float     # 99% confidence half-width
    measure_bound: float         # C theta^n |Q| with the covering constant
    min_probe_rho: float
    separation_bound: float      # 2 sqrt(n) ell(Q) (1 - 1e-5)
    witness: Optional[tuple] = None


def check_qtheta(curve: HyperCurve, Q: Box, theta: float,
                 probe_count: int = 1000, seed: int = 0,
                 mc_samples: int = 1_000_000,
                 check_measure: bool = True,
                 threads: int = 1) -> QThetaReport:
    """Verify the measure bound and the separation property of Q_theta.

    Requires theta > 2 sqrt(n) + 5 sqrt(n) c_gamma (the separation
    hypothesis).  The measure bound uses the covering constant
    C = omega_n * r * (1 + 6 sqrt(n) c_gamma / theta)^n visible in the
    covering-ball argument.
    """
    if probe_count < 1:
        raise RejectedInputError(
            f"probe_count must be at least 1: {probe_count}")
    _require_separation(curve, theta)
    if check_measure and mc_samples < 1:
        raise RejectedInputError("mc_samples must be positive")
    ec = enlarged_cube(curve, Q, theta)
    n = curve.dim
    ell = Q.side()
    rng = np.random.default_rng(seed)

    omega = _unit_ball_volume(n)
    C = omega * curve.r * (1.0 + 6.0 * math.sqrt(n) * curve.c_gamma / theta) ** n
    bound = C * theta ** n * Q.measure()

    est = 0.0
    hw = 0.0
    passed = True
    witness = None
    if check_measure:
        bbox = ec.bounding_box()
        vol = bbox.measure()
        S = rng.uniform(bbox.lo_a, bbox.hi_a, size=(mc_samples, n))
        inside = ec.contains(S)
        p = float(np.mean(inside))
        est = p * vol
        hw = 2.576 * math.sqrt(max(p * (1 - p), 1e-12) / mc_samples) * vol
        if est - hw > bound:
            passed = False
            witness = ("measure", est, bound)

    # Separation probes: x outside Q_theta, y inside Q.
    sep_bound = 2.0 * math.sqrt(n) * ell * (1.0 - 1e-5)
    bbox = ec.bounding_box().dilate(4.0 * theta * ell)
    xs = []
    while sum(len(a) for a in xs) < probe_count:
        cand = rng.uniform(bbox.lo_a, bbox.hi_a, size=(4 * probe_count, n))
        keep = cand[~ec.contains(cand)]
        xs.append(keep)
    Xp = np.concatenate(xs)[:probe_count]
    Yp = rng.uniform(Q.lo_a, Q.hi_a, size=(probe_count, n))
    rv, _ = rho_values(curve, Xp, Yp, threads)
    min_rho = float(np.min(rv))
    if min_rho < sep_bound:
        passed = False
        j = int(np.argmin(rv))
        witness = ("separation", tuple(Xp[j]), tuple(Yp[j]), min_rho)
    return QThetaReport(passed, est, hw, bound, min_rho, sep_bound, witness)
