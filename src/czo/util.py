"""Small shared helpers: chunking, deterministic threading, point coercion."""

from __future__ import annotations

import numpy as np

# Sampling truncation for unbounded domains.
BOUNDING_HALF_WIDTH = 32.0
# The random audits draw x and y from [-AUDIT_HALF_WIDTH, AUDIT_HALF_WIDTH]^n.
AUDIT_HALF_WIDTH = 8.0
_CHUNK = 1 << 14             # points per chunk of the streamed loops


def audit_pairs(rng: np.random.Generator, count: int, dim: int):
    """count uniform random (x, y) pairs of the audit box, as (X, Y)."""
    w = AUDIT_HALF_WIDTH
    return (rng.uniform(-w, w, size=(count, dim)),
            rng.uniform(-w, w, size=(count, dim)))


def chunk_ranges(total: int, chunk: int):
    """Yield (start, stop) pairs covering range(total) in fixed-size chunks.

    Chunk boundaries depend only on `total` and `chunk`, never on the thread
    count, so parallel maps over chunks merge deterministically.
    """
    for start in range(0, total, chunk):
        yield start, min(start + chunk, total)


def pmap_chunks(fn, total: int, chunk: int, threads: int = 1):
    """Apply fn(start, stop) over fixed chunks, concatenating results in
    order; one chunk's result is returned as fn gives it."""
    if 0 < total <= chunk:
        return fn(0, total)
    ranges = list(chunk_ranges(total, chunk))
    if threads <= 1 or len(ranges) <= 1:
        parts = [fn(a, b) for a, b in ranges]
    else:
        # Imported here, as concurrent.futures (and logging) slow start-up.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda r: fn(*r), ranges))
    if not parts:
        return np.empty(0)
    return np.concatenate(parts)


def as_points(x, dim: int) -> np.ndarray:
    """Coerce scalars / vectors / arrays of vectors to shape (m, dim).

    Raises on NaN or infinity: every geometric point in this library must be
    finite.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        if dim == 1:
            a = a.reshape(-1, 1)
        else:
            if a.shape[0] != dim:
                raise ValueError(f"expected a point in R^{dim}, got shape {a.shape}")
            a = a.reshape(1, dim)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected points in R^{dim}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("points must be finite (no NaN/inf)")
    return a

