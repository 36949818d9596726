"""The lattice-convolution path of apply_truncated, pinned to the dense path.

A kernel that declares ``translation_invariant`` is applied by direct
summation over the lattice of offsets x - y; every test here compares it
with the same kernel stripped of the declaration, which takes the dense
R/K path.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import czo
import czo.operator as op
from czo.errors import RejectedInputError
from czo.geometry import box
from czo.kernels import KERNEL_NAMES, _rho_and_kernel, get_kernel
from czo.metric import rho_values
from czo.operator import (GridFunction, apply_truncated, estimate_T0,
                          grid_nodes)

B8 = box(-8.0, 8.0)
LADDER = [float(e) for e in 1.27 * 0.82 ** np.arange(16)]


def quiet_apply(kernel, f, eps, out_geometry=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return apply_truncated(kernel, f, eps, out_geometry)


def dense_twin(kernel):
    return dataclasses.replace(kernel, translation_invariant=False)


def inputs(n, seed):
    """A compact random input, an indicator and a full-support bump."""
    rng = np.random.default_rng(seed)
    x = grid_nodes(B8, n)[:, 0]
    return [np.where(np.abs(x - 0.5) <= 1.0, rng.normal(size=n), 0.0),
            ((x >= -1.0) & (x <= 2.0)).astype(float),
            np.exp(-(x - 0.3) ** 2)]


@pytest.mark.parametrize("name", [n for n in KERNEL_NAMES
                                  if get_kernel(n).translation_invariant])
def test_declaration_holds(name):
    # K and rho at (x, y) equal their values at (x - y, 0).
    k = get_kernel(name)
    rng = np.random.default_rng(5)
    X = rng.uniform(-8.0, 8.0, size=(10_000, 1))
    Y = rng.uniform(-8.0, 8.0, size=(10_000, 1))
    R, K = _rho_and_kernel(k, X, Y)
    R0, K0 = _rho_and_kernel(k, X - Y, np.zeros_like(Y))
    assert np.all(np.abs(R - R0) <= 1e-15 * np.abs(R0))
    assert np.all(np.abs(K - K0) <= 1e-15 * np.abs(K0))


def test_hilbert_declares_and_the_others_do_not():
    assert get_kernel("hilbert").translation_invariant
    assert not get_kernel("two-line-hilbert").translation_invariant
    assert not get_kernel("diamond-model").translation_invariant


def check_against_dense(n, step):
    k = get_kernel("hilbert")
    dense = dense_twin(k)
    geom = (B8, n // step)
    X, Y = grid_nodes(B8, n // step), grid_nodes(B8, n)
    R, K = (a.reshape(len(X), n) for a in _rho_and_kernel(
        dense, np.repeat(X, n, axis=0), np.tile(Y, (len(X), 1))))
    for vals in inputs(n, n + step):
        f = GridFunction(B8, n, vals)
        # R[0, 5] is attained, so the mask keeps rho == eps exactly there.
        for eps in (LADDER[0], 0.5, LADDER[7], 0.1, LADDER[15], R[0, 5]):
            got = quiet_apply(k, f, eps, geom).values
            want = quiet_apply(dense, f, eps, geom).values
            scale = np.sum(np.abs(np.where(R >= eps, K, 0.0) * vals),
                           axis=1) * f.h
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            assert np.all(got[scale == 0.0] == 0.0)


@pytest.mark.parametrize("n", [64, 512, 2048])
@pytest.mark.parametrize("step", [1, 2, 4])
def test_matches_the_dense_path(n, step):
    check_against_dense(n, step)


@pytest.mark.parametrize("step", [1, 2, 4])
def test_matches_the_dense_path_in_short_chunks(monkeypatch, step):
    # Chunks of 40 taps and 40 output rows, the last one ragged.
    monkeypatch.setattr(op, "_TAP_CHUNK", 40)
    check_against_dense(512, step)


@pytest.mark.parametrize("step", [1, 2])
def test_bit_identical_across_eps_at_distant_points(step):
    # Where rho(x, supp f) >= eps every term is kept, so T_eps f(x) must
    # not change as eps decreases further.
    k = get_kernel("hilbert")
    n = 512
    f = GridFunction(B8, n, inputs(n, 9)[0])
    outs = [quiet_apply(k, f, e, (B8, n // step)).values for e in LADDER]
    X = grid_nodes(B8, n // step)
    Ys = f.nodes()[f.values != 0.0]
    R, _ = rho_values(k.curve, np.repeat(X, len(Ys), axis=0),
                      np.tile(Ys, (len(X), 1)))
    dmin = np.min(R.reshape(len(X), len(Ys)), axis=1)
    for e, prev, cur in zip(LADDER, outs, outs[1:]):
        far = dmin >= e
        assert far.any()
        assert np.array_equal(prev[far], cur[far])


def test_path_selection(monkeypatch):
    builds = []
    build = op._build_matrices
    monkeypatch.setattr(op, "_build_matrices",
                        lambda *a: builds.append(len(a[1])) or build(*a))
    f = GridFunction(B8, 96, inputs(96, 1)[2])
    k = get_kernel("hilbert")
    for geom in (None, (B8, 48), (B8, 32), (box(-8.0, 8.0), 1)):
        quiet_apply(k, f, 0.5, geom)
    assert builds == []
    # Another output box, a cell count that does not divide the input's,
    # or a kernel without the declaration: dense matrices.
    quiet_apply(k, f, 0.5, (box(-4.0, 4.0), 48))
    quiet_apply(k, f, 0.5, (B8, 64))
    quiet_apply(k, f, 0.5, (B8, 192))
    quiet_apply(get_kernel("two-line-hilbert"), f, 0.5)
    assert builds == [48, 64, 192, 96]


@pytest.mark.parametrize("out_n", [0, -2])
def test_empty_output_grid_rejected(out_n):
    f = GridFunction(B8, 16, np.ones(16))
    with pytest.raises(RejectedInputError):
        quiet_apply(get_kernel("hilbert"), f, 0.5, (B8, out_n))


def test_large_grid_keeps_the_cache_small():
    k = get_kernel("hilbert")
    n = 1 << 14
    f = GridFunction(B8, n, inputs(n, 2)[1])
    _, rep = estimate_T0(k, f, LADDER)
    assert len(rep.sup_diffs) == 15
    held = sum(a.nbytes for entry in k._matrices.values() for a in entry)
    assert 0 < held < 1 << 20


@pytest.mark.parametrize("step", [1, 2])
def test_bits_do_not_depend_on_threads(step):
    # 2^14 outputs at step 1 split into four row chunks.
    k = get_kernel("hilbert")
    n = 1 << 14
    f = GridFunction(B8, n, inputs(n, 4)[0])
    one, two = (apply_truncated(k, f, 0.3, (B8, n // step), threads=t)
                for t in (1, 2))
    assert one.values.tobytes() == two.values.tobytes()


_DETERMINISM_PROBE = """
import hashlib, warnings
import numpy as np
from czo.geometry import box
from czo.kernels import get_kernel
from czo.operator import GridFunction, apply_truncated
n = 1 << 15
f = GridFunction(box(-8.0, 8.0), n, np.random.default_rng(3).normal(size=n))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    out = apply_truncated(get_kernel("hilbert"), f, 0.01)
print(hashlib.sha256(out.values.tobytes()).hexdigest())
"""


def test_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(czo.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _DETERMINISM_PROBE],
                             env=env, capture_output=True, text=True,
                             check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
    assert digests[0] == digests[1]
