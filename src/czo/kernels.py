"""Singular kernels and their audits.

A kernel for a curve is a function K(x, y) that blows up like
``A / rho(x, y)^n`` on the curve and is Hoelder-continuous of order delta in
each argument away from it.  ``audit_size`` and ``audit_regularity``
estimate the corresponding suprema empirically; ``hormander_constant``
evaluates the smoothness integral
``int_{rho(x,y) >= 2|y-z|} |K(x,y) - K(x,z)| dx``
by midpoint quadrature with substitution-based tail integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .curves import get_curve
from .errors import RegistryError, RejectedInputError
from .geometry import HyperCurve
from .metric import rho_values
from .util import AUDIT_HALF_WIDTH, audit_pairs

_RHO_FLOOR = 1e-12
_SIZE_ROUNDS = 40            # shrinking-neighbourhood rounds of audit_size
_BOX_FACTOR = 64.0           # hormander_constant's box [-H, H], H / |y - z|


@dataclass
class KernelSpec:
    """A kernel bound to its curve.

    ``fn(X, Y, rho)`` evaluates K on point arrays given the precomputed
    curve distances, so repeated applications can reuse cached rho values.
    ``size_constant`` is the declared bound for sup |K| rho^n, and
    ``regularity_constant`` the declared Hoelder constant that
    ``audit_regularity`` checks (None: not audited).
    ``translation_invariant`` declares that K(x, y) and rho(x, y) depend on
    x - y alone, which lets ``apply_truncated`` sum by lattice convolution.
    """

    name: str
    curve: HyperCurve
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    size_constant: float
    delta: float
    regularity_constant: Optional[float] = None
    translation_invariant: bool = False
    # apply_truncated's dense (R, K) matrices or lattice (R, K) vectors,
    # keyed on the grids; held per kernel, so kernels that share a name
    # never share them.
    _matrices: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def dim(self) -> int:
        return self.curve.dim


def _rho_and_kernel(kernel: KernelSpec, X: np.ndarray, Y: np.ndarray,
                    threads: int = 1):
    """rho(x, y) and K(x, y) on point arrays, K set to 0 where rho falls
    below the singular-set floor."""
    R, _ = rho_values(kernel.curve, X, Y, threads)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = kernel.fn(X, Y, np.maximum(R, _RHO_FLOOR))
    return R, np.where(R >= _RHO_FLOOR, K, 0.0)


# ---------------------------------------------------------------------------
# Built-in kernels
# ---------------------------------------------------------------------------

_HILBERT_REGULARITY = 1.0 / (2.0 - 1.0 / math.sqrt(2.0))


def _hilbert() -> KernelSpec:
    curve = get_curve("diagonal", 1)

    def fn(X, Y, rho):
        return 1.0 / (X[:, 0] - Y[:, 0])

    # With rho = |x-y|/sqrt(2) and |y-y'| <= rho/2, the Hoelder quotient is
    # rho^2 / (|x-y| |x-y'|) <= 1/(2 - 1/sqrt(2)); the same holds in x.
    return KernelSpec("hilbert", curve, fn,
                      size_constant=1.0 / math.sqrt(2.0) + 1e-3, delta=1.0,
                      regularity_constant=_HILBERT_REGULARITY,
                      translation_invariant=True)


def _two_line_hilbert() -> KernelSpec:
    curve = get_curve("two-lines")

    def fn(X, Y, rho):
        x = X[:, 0]
        y = Y[:, 0]
        return 1.0 / (x - y) + 1.0 / (x + y)

    # Each term obeys the hilbert bound against its own line.
    return KernelSpec("two-line-hilbert", curve, fn,
                      size_constant=math.sqrt(2.0) + 1e-3, delta=1.0,
                      regularity_constant=2.0 * _HILBERT_REGULARITY)


def _diamond_model() -> KernelSpec:
    curve = get_curve("diamond")

    def fn(X, Y, rho):
        return np.sign(X[:, 0] - Y[:, 0]) / rho

    # The sign factor is discontinuous across x = y, so no Hoelder constant
    # is declared; the size bound still holds.
    return KernelSpec("diamond-model", curve, fn,
                      size_constant=1.0 + 1e-3, delta=1.0)


_BUILDERS = {
    "hilbert": _hilbert,
    "two-line-hilbert": _two_line_hilbert,
    "diamond-model": _diamond_model,
}

KERNEL_NAMES = tuple(_BUILDERS)


def get_kernel(name: str) -> KernelSpec:
    if name not in _BUILDERS:
        raise RegistryError(
            f"unknown kernel {name!r}; known: {sorted(_BUILDERS)}")
    return _BUILDERS[name]()


# ---------------------------------------------------------------------------
# Size audit
# ---------------------------------------------------------------------------

@dataclass
class SizeReport:
    supremum: float
    bound: float
    passed: bool
    witness: tuple


def audit_size(kernel: KernelSpec, sample_count: int = 20000, seed: int = 0,
               threads: int = 1) -> SizeReport:
    """Estimate sup |K(x,y)| rho(x,y)^n by random sampling followed by
    shrinking-neighborhood refinement of the best candidates."""
    if sample_count < 10:
        raise RejectedInputError("sample_count too small")
    rng = np.random.default_rng(seed)
    n = kernel.dim

    def score(X, Y):
        r, K = _rho_and_kernel(kernel, X, Y, threads)
        return np.abs(K) * r ** n

    X, Y = audit_pairs(rng, sample_count, n)
    v = score(X, Y)
    top = np.argsort(v)[-32:]
    Xc, Yc, vc = X[top], Y[top], v[top]
    sigma = AUDIT_HALF_WIDTH / 4.0
    for _ in range(_SIZE_ROUNDS):
        for _ in range(4):
            Xp = Xc + rng.normal(0.0, sigma, size=Xc.shape)
            Yp = Yc + rng.normal(0.0, sigma, size=Yc.shape)
            vp = score(Xp, Yp)
            better = vp > vc
            Xc[better], Yc[better], vc[better] = Xp[better], Yp[better], vp[better]
        sigma *= 0.7
    k = int(np.argmax(vc))
    sup = float(vc[k])
    return SizeReport(sup, kernel.size_constant,
                      sup <= kernel.size_constant * (1.0 + 1e-6),
                      (tuple(Xc[k]), tuple(Yc[k])))


# ---------------------------------------------------------------------------
# Regularity audit
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    supremum: float          # over both argument sides
    supremum_y: float
    supremum_x: float
    bound: float
    delta: float
    passed: bool
    sample_count: int


def audit_regularity(kernel: KernelSpec, sample_count: int = 20000,
                     seed: int = 0, threads: int = 1) -> RegularityReport:
    """Estimate the Hoelder constants

        sup |K(x,y) - K(x,y')| rho(x,y)^{n+delta} / |y-y'|^delta

    over displacements |y-y'| <= rho(x,y)/2, and the analogous supremum in
    the first argument, and compare it with the declared
    ``regularity_constant``.  Displacements are sampled at dyadic fractions
    of the allowance, so the estimate is stable under resampling.
    """
    bound = kernel.regularity_constant
    if bound is None:
        raise RejectedInputError(
            f"kernel {kernel.name!r} declares no regularity constant")
    rng = np.random.default_rng(seed)
    n = kernel.dim
    d = kernel.delta
    curve = kernel.curve
    X, Y = audit_pairs(rng, sample_count, n)
    r, _ = rho_values(curve, X, Y, threads)
    ok = r >= 1e-6
    X, Y, r = X[ok], Y[ok], r[ok]
    base = kernel.fn(X, Y, r)
    dirs = rng.normal(size=X.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    sups = [0.0, 0.0]            # displacing y, then x
    for frac in (0.5, 0.25, 0.125, 0.03125):
        h = (frac * r)[:, None] * dirs
        step = frac * r
        for side, (Xp, Yp) in enumerate(((X, Y + h), (X + h, Y))):
            rp, _ = rho_values(curve, Xp, Yp, threads)
            good = rp >= _RHO_FLOOR
            if np.any(good):
                kp = kernel.fn(Xp[good], Yp[good], rp[good])
                ratio = (np.abs(base[good] - kp) * r[good] ** (n + d)
                         / step[good] ** d)
                sups[side] = max(sups[side], float(np.max(ratio)))
    sup = max(sups)
    return RegularityReport(sup, *sups, bound, d,
                            sup <= bound * (1.0 + 1e-6), sample_count)


# ---------------------------------------------------------------------------
# Hoermander smoothness integral
# ---------------------------------------------------------------------------

@dataclass
class HormanderReport:
    value_total: float
    value_box: float
    tail: float
    separation: float        # |y - z|
    grid_points: int


def hormander_constant(kernel: KernelSpec, y: float = 0.0, z: float = 10.0,
                       grid_points: int = 1 << 19, transpose: bool = False,
                       threads: int = 1) -> HormanderReport:
    """Midpoint-quadrature estimate of
    ``int_{rho(x,y) >= 2|y-z|} |K(x,y) - K(x,z)| dx`` for n = 1.

    The integration variable runs over [-H, H] with H = 64 |y-z|;
    the two unbounded tails are transformed by x -> 1/u and integrated by
    midpoint quadrature in u, which is accurate because the transformed
    integrand is smooth.  With ``transpose`` the roles of the arguments are
    swapped, giving the adjoint-side integral.
    """
    if kernel.dim != 1:
        raise RejectedInputError("hormander_constant is implemented for n=1")
    if grid_points < 1:
        raise RejectedInputError("grid_points must be positive")
    sep = abs(z - y)
    if sep <= 0:
        raise RejectedInputError("y and z must be distinct")
    ya = np.array([[float(y)]])
    za = np.array([[float(z)]])

    def diff(xs: np.ndarray) -> np.ndarray:
        X = xs.reshape(-1, 1)
        Yv = np.broadcast_to(ya, X.shape)
        Zv = np.broadcast_to(za, X.shape)
        pairs = ((Yv, X), (Zv, X)) if transpose else ((X, Yv), (X, Zv))
        (r1, k1), (_, k2) = (_rho_and_kernel(kernel, A, B, threads)
                             for A, B in pairs)
        mask = r1 >= 2.0 * sep
        return np.where(mask, np.abs(k1 - k2), 0.0)

    H = _BOX_FACTOR * sep
    h = 2.0 * H / grid_points
    xs = -H + h * (np.arange(grid_points) + 0.5)
    value_box = float(np.sum(diff(xs)) * h)

    # Tails: int_H^inf f(x) dx = int_0^{1/H} f(1/u) / u^2 du (and mirrored).
    m = max(1024, grid_points // 64)
    hu = (1.0 / H) / m
    us = hu * (np.arange(m) + 0.5)
    tail = float(np.sum(diff(1.0 / us) / us ** 2) * hu)
    tail += float(np.sum(diff(-1.0 / us) / us ** 2) * hu)
    return HormanderReport(value_box + tail, value_box, tail, sep, grid_points)
