"""Iterate-and-classify kernels behind the basin portraits and the attractor
search.

One numpy loop iterates an (n, N) column stack: a ``step`` maps and
normalizes every column and flags the ones that vanish or overflow, and a
``nearest`` names the target set each column lies within the capture radius
of (-1 for none).  A column is labeled with target j once two consecutive
iterates land near j; columns still unresolved after the iteration budget
stay at -1.  Portraits split their rows into chunks run on a thread pool;
QUINTIC_FLOW_THREADS caps the worker count (default: all cores).
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .equivariants import f6

_HAVE_NUMBA = False  # read by perfbench/run.py


def use_numba() -> bool:  # read by perfbench/workloads.py
    return False


def backend_name() -> str:  # read by perfbench/run.py
    return "numpy"


def thread_count() -> int:
    raw = os.environ.get("QUINTIC_FLOW_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


def _iterate_classify(step, nearest, X, max_iter):
    """Labels and iteration counts of the columns of X (see module doc)."""
    N = X.shape[1]
    labels = np.full(N, -1, dtype=np.int32)
    iters = np.full(N, max_iter, dtype=np.int32)
    prev = np.full(N, -2, dtype=np.int32)
    idx = np.arange(N)
    for it in range(max_iter):
        if idx.size == 0:
            break
        X, bad = step(X)
        if bad.any():
            live = ~bad
            X, prev, idx = X[:, live], prev[live], idx[live]
        cur = nearest(X)
        done = (cur >= 0) & (cur == prev)
        labels[idx[done]] = cur[done]
        iters[idx[done]] = it + 1
        live = ~done
        X, prev, idx = X[:, live], cur[live], idx[live]
    return labels, iters


def _normalized(W, top):
    """Scale W in place by its per-column size ``top``; return it with the
    columns whose size vanishes or is not finite (left unscaled)."""
    bad = ~np.isfinite(top) | (top == 0)
    W /= np.where(bad, 1.0, top)
    return W, bad


def _by_row_chunks(nrows, classify_rows):
    """Run ``classify_rows(rows)``, which returns (labels, iterations) of the
    cells of those grid rows in row-major order, on row chunks in a thread
    pool; return the two (nrows, ncols) images."""
    nthreads = min(thread_count(), nrows)
    chunks = np.array_split(np.arange(nrows), nthreads)
    with ThreadPoolExecutor(max_workers=nthreads) as ex:
        parts = list(ex.map(classify_rows, chunks))
    return tuple(np.concatenate([p[k] for p in parts]).reshape(nrows, -1)
                 for k in (0, 1))


# Both kernels take the attractor points as one stack of unit columns (a
# (2, P) complex stack of CP^1 pairs, or a (5, P) real stack of plane
# vectors) and ``cycle_index``, the (non-decreasing) index of the cycle of
# each point.  A column within ``capture`` of several points takes the
# lowest cycle index.

# --- CP^1 -----------------------------------------------------------------
#
# The map is given in homogeneous pair form by two coefficient arrays of equal
# length d+1: (z1, z2) -> (sum num[i] z1^(d-i) z2^i, sum den[i] z1^(d-i) z2^i).
# Points are (2, N) complex stacks.

def pair_step(num, den):
    """Step of the rational map (num, den) on (2, N) pair stacks; each image
    column is scaled to largest entry 1 in modulus."""
    num = np.asarray(num, dtype=np.complex128)
    den = np.asarray(den, dtype=np.complex128)
    d = len(num) - 1

    def step(Z):
        z1, z2 = Z
        p1 = np.ones((d + 1, z1.size), dtype=np.complex128)
        p2 = np.ones_like(p1)
        for k in range(1, d + 1):
            p1[k] = p1[k - 1] * z1
            p2[k] = p2[k - 1] * z2
        W = np.zeros((2, z1.size), dtype=np.complex128)
        for i in range(d + 1):
            m = p1[d - i] * p2[i]
            W[0] += num[i] * m
            W[1] += den[i] * m
        return _normalized(W, np.abs(W).max(0))
    return step


def classify_1d(num, den, zgrid, points, cycle_index, capture: float,
                max_iter: int):
    """Label every pixel of a complex grid by the cycle its orbit settles on
    (-1 if unresolved within max_iter); returns (labels, iterations)."""
    zgrid = np.asarray(zgrid, dtype=np.complex128)
    a1, a2 = np.asarray(points, dtype=np.complex128)
    step = pair_step(num, den)

    def nearest(Z):
        z1, z2 = Z
        nz = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
        cur = np.full(z1.size, -1, dtype=np.int32)
        for t in range(len(cycle_index) - 1, -1, -1):
            cur[np.abs(z1 * a2[t] - z2 * a1[t]) / nz < capture] = cycle_index[t]
        return cur

    def classify_rows(rows):
        z = zgrid[rows].ravel()
        return _iterate_classify(step, nearest,
                                 np.array([z, np.ones_like(z)]), max_iter)
    return _by_row_chunks(zgrid.shape[0], classify_rows)


# --- real plane -----------------------------------------------------------
#
# Iterates the degree-6 five-coordinate equivariant f6 on a real invariant
# plane.  Points are (5, N) real stacks with zero coordinate sum; the map has
# real coefficients so the plane's real span is preserved.  Attractor points
# are compared projectively.

def _plane_step(X):
    Y = f6(X)
    return _normalized(Y, np.abs(Y).max(0))


def classify_plane(xs, ys, v0, v1, v2, points, cycle_index, capture: float,
                   max_iter: int):
    """Label the grid (ys x xs) of plane points by the cycle its orbit
    settles on (-1 if unresolved); returns (labels, iterations).  The pixel
    at (row r, col c) is v0 + xs[c] v1 + ys[r] v2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    v0, v1, v2 = (np.asarray(v, dtype=np.float64)[:, None, None]
                  for v in (v0, v1, v2))
    attr = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    cap2 = capture * capture

    def nearest(X):
        cos = np.abs(attr @ X) / np.linalg.norm(X, axis=0)
        d2 = 1.0 - cos * cos
        cur = np.full(X.shape[1], -1, dtype=np.int32)
        for t in range(len(cycle_index) - 1, -1, -1):
            cur[d2[t] < cap2] = cycle_index[t]
        return cur

    def classify_rows(rows):
        X = v0 + xs[None, None, :] * v1 + ys[rows][None, :, None] * v2
        return _iterate_classify(_plane_step, nearest, X.reshape(5, -1),
                                 max_iter)
    return _by_row_chunks(len(ys), classify_rows)
