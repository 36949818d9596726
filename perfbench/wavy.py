"""The benchmark's own curve and kernel: gamma(x) = x + 0.3 sin x.

The branch declares no range region, no preimage boxes and no preimage
rule, so czo must use its sampled distance solver and its probabilistic
partition test on it.  Those paths stay measured once the built-in curves
get exact distances.
"""

from __future__ import annotations

import numpy as np

from oracles import WAVY_AMPLITUDE


def _inverse(Y: np.ndarray) -> np.ndarray:
    # gamma' lies in [0.7, 1.3], so Newton from t = y converges fast.
    t = Y.copy()
    for _ in range(30):
        t = t - (t + WAVY_AMPLITUDE * np.sin(t) - Y) / (
            1.0 + WAVY_AMPLITUDE * np.cos(t))
    return t


def wavy_curve(czo):
    branch = czo.CurveBranch(
        index=0, domain=czo.whole_space(1),
        forward=lambda X: X + WAVY_AMPLITUDE * np.sin(X),
        inverse=_inverse,
        jacobian=lambda X: 1.0 + WAVY_AMPLITUDE * np.cos(X[:, 0]),
        lipschitz=1.0 / (1.0 - WAVY_AMPLITUDE),
        name="wavy")
    return czo.HyperCurve("wavy", [branch],
                          intersection_points=np.empty((0, 1)))


def wavy_kernel(czo):
    """K(x, y) = 1 / (gamma(x) - y): |K| rho <= 1 because the vertical
    distance to the graph bounds rho from above."""
    def fn(X, Y, rho):
        return 1.0 / (X[:, 0] + WAVY_AMPLITUDE * np.sin(X[:, 0]) - Y[:, 0])

    return czo.KernelSpec("wavy", wavy_curve(czo), fn,
                          size_constant=1.0 + 1e-3, delta=1.0)
