"""Empirical audit of a curve's declared branch structure, for the tests.

``validate_curve`` checks, on random sample pairs, that each branch map and
its declared inverse stay within the curve's Lipschitz constant c_gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from czo.errors import RejectedInputError
from czo.geometry import CurveBranch, HyperCurve


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
    branch declares an inverse) its inverse, the round trip through the
    inverse, and the minimum |Jacobian|.  Passes iff every ratio stays below
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
        if b.inverse is not None:
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
        if b.inverse is not None:
            branch_ok = branch_ok and inv_ratio <= cap and min_jac > 0.0
        if not branch_ok:
            rep.witness = witness
            passed = False
        reports.append(rep)
    return ValidationReport(passed, curve.c_gamma, reports)
