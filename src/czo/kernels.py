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
from .util import _CHUNK, AUDIT_HALF_WIDTH, audit_pairs, chunk_ranges

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
    ``reflections`` declares a set S of signs in {+1, -1} with
    K(x, y) = sum over s in S of k(x - s y) and
    rho(x, y) = min over s in S of rho_1(x - s y) for 1-D functions k and
    rho_1 (so k(d) = K(d, 0) / |S| and rho_1(d) = rho(d, 0)): ``hilbert``
    declares {+1}, ``two-line-hilbert`` {+1, -1}.  It lets
    ``apply_truncated`` sum on the lattice of offsets x - y, for -1 only
    on boxes symmetric about 0.  The empty set declares nothing.
    """

    name: str
    curve: HyperCurve
    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    size_constant: float
    delta: float
    regularity_constant: Optional[float] = None
    reflections: frozenset = frozenset()
    # apply_truncated's summations, one per pair (output grid, input grid);
    # held per kernel, so kernels that share a name never share them.
    _matrices: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not self.reflections <= {1, -1}:
            raise RejectedInputError(
                f"reflections must be signs +1 or -1: {set(self.reflections)}")

    @property
    def dim(self) -> int:
        return self.curve.dim


def _rho_and_kernel(kernel: KernelSpec, X: np.ndarray, Y: np.ndarray):
    """rho(x, y) and K(x, y) on point arrays, K set to 0 where rho falls
    below the singular-set floor."""
    from .metric import rho_values
    R, _ = rho_values(kernel.curve, X, Y)
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
                      reflections=frozenset({1}))


def _two_line_hilbert() -> KernelSpec:
    curve = get_curve("two-lines")

    def fn(X, Y, rho):
        x = X[:, 0]
        y = Y[:, 0]
        return 1.0 / (x - y) + 1.0 / (x + y)

    # Each term obeys the hilbert bound against its own line.
    return KernelSpec("two-line-hilbert", curve, fn,
                      size_constant=math.sqrt(2.0) + 1e-3, delta=1.0,
                      regularity_constant=2.0 * _HILBERT_REGULARITY,
                      reflections=frozenset({1, -1}))


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


def audit_size(kernel: KernelSpec, sample_count: int = 20000,
               seed: int = 0) -> SizeReport:
    """Estimate sup |K(x,y)| rho(x,y)^n by random sampling followed by
    shrinking-neighborhood refinement of the best candidates."""
    if sample_count < 10:
        raise RejectedInputError("sample_count too small")
    rng = np.random.default_rng(seed)
    n = kernel.dim

    def score(X, Y):
        r, K = _rho_and_kernel(kernel, X, Y)
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
                      (tuple(Xc[k].tolist()), tuple(Yc[k].tolist())))


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
                     seed: int = 0) -> RegularityReport:
    """Estimate the Hoelder constants

        sup |K(x,y) - K(x,y')| rho(x,y)^{n+delta} / |y-y'|^delta

    over displacements |y-y'| <= rho(x,y)/2, and the analogous supremum in
    the first argument, and compare it with the declared
    ``regularity_constant``.  Displacements are sampled at dyadic fractions
    of the allowance, so the estimate is stable under resampling.
    """
    if sample_count < 1:
        raise RejectedInputError(f"sample_count must be >= 1: {sample_count}")
    bound = kernel.regularity_constant
    if bound is None:
        raise RejectedInputError(
            f"kernel {kernel.name!r} declares no regularity constant")
    rng = np.random.default_rng(seed)
    n = kernel.dim
    d = kernel.delta
    X, Y = audit_pairs(rng, sample_count, n)
    r, base = _rho_and_kernel(kernel, X, Y)
    ok = r >= 1e-6
    X, Y, r, base = X[ok], Y[ok], r[ok], base[ok]
    dirs = rng.normal(size=X.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    sups = [0.0, 0.0]            # displacing y, then x
    for frac in (0.5, 0.25, 0.125, 0.03125):
        h = (frac * r)[:, None] * dirs
        step = frac * r
        for side, (Xp, Yp) in enumerate(((X, Y + h), (X + h, Y))):
            rp, kp = _rho_and_kernel(kernel, Xp, Yp)
            good = rp >= _RHO_FLOOR
            ratio = (np.abs(base[good] - kp[good]) * r[good] ** (n + d)
                     / step[good] ** d)
            sups[side] = max(sups[side], float(np.max(ratio, initial=0.0)))
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
                       grid_points: int = 1 << 19,
                       transpose: bool = False) -> HormanderReport:
    """Midpoint-quadrature estimate of
    ``int_{rho(x,y) >= 2|y-z|} |K(x,y) - K(x,z)| dx`` for n = 1.

    The integration variable runs over [-H, H] with H = 64 |y-z|;
    the two unbounded tails are transformed by x -> 1/u and integrated by
    midpoint quadrature in u, which is accurate because the transformed
    integrand is smooth.  With ``transpose`` the roles of the arguments are
    swapped, giving the adjoint-side integral.  The integrand is formed
    ``_CHUNK`` nodes at a time, so memory is one float per node.
    """
    if kernel.dim != 1:
        raise RejectedInputError("hormander_constant is implemented for n=1")
    if grid_points < 1:
        raise RejectedInputError("grid_points must be positive")
    if not (math.isfinite(y) and math.isfinite(z)):
        raise RejectedInputError(f"y and z must be finite: y={y}, z={z}")
    sep = abs(z - y)
    if sep <= 0:
        raise RejectedInputError("y and z must be distinct")
    if sep < _RHO_FLOOR:
        raise RejectedInputError(f"|y - z| = {sep!r} is below the rho floor "
                                 f"{_RHO_FLOOR!r}, where K is set to 0")
    ya = np.array([[float(y)]])
    za = np.array([[float(z)]])

    def diff(xs: np.ndarray) -> np.ndarray:
        X = xs.reshape(-1, 1)
        Yv = np.broadcast_to(ya, X.shape)
        Zv = np.broadcast_to(za, X.shape)
        pairs = ((Yv, X), (Zv, X)) if transpose else ((X, Yv), (X, Zv))
        (r1, k1), (_, k2) = (_rho_and_kernel(kernel, A, B) for A, B in pairs)
        mask = r1 >= 2.0 * sep
        return np.where(mask, np.abs(k1 - k2), 0.0)

    def integral(integrand, total: int, step: float) -> float:
        """step * the sum of integrand(step * (j + 1/2)), j < total, formed
        chunk by chunk into one array and summed once, in numpy's pairwise
        order, as one call on all nodes would sum it."""
        vals = np.empty(total)
        for s, e in chunk_ranges(total, _CHUNK):
            vals[s:e] = integrand(step * (np.arange(s, e) + 0.5))
        return float(np.sum(vals) * step)

    # Tails: int_H^inf f(x) dx = int_0^{1/H} f(1/u) / u^2 du (and mirrored),
    # on m nodes u from hu / 2, where u ** 2 must not underflow to 0.
    H = _BOX_FACTOR * sep
    m = max(1024, grid_points // 64)
    hu = (1.0 / H) / m
    if not (0.5 * hu) ** 2 > 0.0:
        top = 2.0 ** 536.5 / _BOX_FACTOR / m
        raise RejectedInputError(f"|y - z| = {sep!r} is above about {top:.4g}"
                                 f", the most {m} tail nodes can take")
    value_box = integral(lambda t: diff(-H + t), grid_points,
                         2.0 * H / grid_points)
    tail = integral(lambda u: diff(1.0 / u) / u ** 2, m, hu)
    tail += integral(lambda u: diff(-1.0 / u) / u ** 2, m, hu)
    return HormanderReport(value_box + tail, value_box, tail, sep, grid_points)
