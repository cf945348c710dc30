"""Iterate-and-classify kernels behind the basin portraits and the attractor
search.

One numpy loop iterates an (n, N) column stack: a ``step`` maps and
normalizes every column and flags the ones that vanish or overflow, and a
``nearest`` names the target set each column lies within the capture radius
of (-1 for none).  A column is labeled with target j once two consecutive
iterates land near j; columns still unresolved after the iteration budget
stay at -1.  A portrait splits its grid into blocks of whole rows, small
enough that a step's operands stay in cache, and a thread pool takes the
blocks as its workers free up, one worker per core this process may run on.
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
    """The cores in this process's CPU affinity mask (all cores where the
    platform has no such mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


# Byte budget of a block's widest elementwise operand: a (2, B) complex pair
# stack has 16 B per cell in each coordinate row (49,152 cells), a (5, B)
# real plane stack 40 B per cell (about 19,660 cells).  Measured on 2 cores
# with 2 MiB of L2 each, 720^2 renders, budgets from 128 KiB to 4 MiB: the
# plane plateaus at 0.34-0.39 s from 512 KiB to 1 MiB (13k-26k cells) and
# takes 0.6 s from 1.25 MiB (33k cells) up, once a step's operands outgrow
# L2; the 1-D maps plateau from 512 KiB to 1.25 MiB (33k-82k cells) and slow
# down below 384 KiB (the conic takes 1.1 s at 128 KiB), where the threads
# trade the GIL on small arrays.
BLOCK_BYTES = 768 * 1024


def _by_row_blocks(nrows, row_bytes, classify_rows):
    """Run ``classify_rows(rows)``, which returns (labels, iterations) of the
    cells of those grid rows in row-major order, on blocks of whole rows
    whose widest operand, at ``row_bytes`` per grid row, stays within
    BLOCK_BYTES; a thread pool takes the blocks in turn.  Return the two
    (nrows, ncols) images."""
    per_block = max(1, BLOCK_BYTES // row_bytes)
    blocks = [np.arange(r, min(r + per_block, nrows))
              for r in range(0, nrows, per_block)]
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(blocks))) as ex:
        parts = list(ex.map(classify_rows, blocks))
    return tuple(np.concatenate([p[k] for p in parts]).reshape(nrows, -1)
                 for k in (0, 1))


# Both kernels take the attractor points as one stack of unit columns (a
# (2, P) complex stack of CP^1 pairs, or a (5, P) real stack of plane
# vectors) and ``cycle_index``, the (non-decreasing) index of the cycle of
# each point.  A column within chordal distance CAPTURE of several points
# takes the lowest cycle index.
CAPTURE = 1e-4

# --- CP^1 -----------------------------------------------------------------
#
# The map is a RestrictedMap1D, evaluated in homogeneous pair form by its
# ``pair``.  Points are (2, N) complex stacks.

def pair_step(rmap):
    """Step of the rational map rmap on (2, N) pair stacks; each image
    column is scaled to largest entry 1 in modulus."""
    def step(Z):
        W = np.array(rmap.pair(*Z))
        return _normalized(W, np.abs(W).max(0))
    return step


def classify_1d(rmap, zgrid, points, cycle_index, max_iter: int):
    """Label every pixel of a complex grid by the cycle its orbit under rmap
    settles on (-1 if unresolved within max_iter); returns (labels,
    iterations)."""
    zgrid = np.asarray(zgrid, dtype=np.complex128)
    a1, a2 = np.asarray(points, dtype=np.complex128)
    step = pair_step(rmap)

    def nearest(Z):
        z1, z2 = Z
        nz = np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2)
        cur = np.full(z1.size, -1, dtype=np.int32)
        for t in range(len(cycle_index) - 1, -1, -1):
            cur[np.abs(z1 * a2[t] - z2 * a1[t]) / nz < CAPTURE] = cycle_index[t]
        return cur

    def classify_rows(rows):
        z = zgrid[rows].ravel()
        return _iterate_classify(step, nearest,
                                 np.array([z, np.ones_like(z)]), max_iter)
    return _by_row_blocks(zgrid.shape[0], 16 * zgrid.shape[1], classify_rows)


# --- real plane -----------------------------------------------------------
#
# Iterates the degree-6 five-coordinate equivariant f6 on a real invariant
# plane.  Points are (5, N) real stacks with zero coordinate sum; the map has
# real coefficients so the plane's real span is preserved.  Attractor points
# are compared projectively.

def _plane_step(X):
    Y = f6(X)
    return _normalized(Y, np.abs(Y).max(0))


def classify_plane(xs, ys, v0, v1, v2, points, cycle_index, max_iter: int):
    """Label the grid (ys x xs) of plane points by the cycle its orbit
    settles on (-1 if unresolved); returns (labels, iterations).  The pixel
    at (row r, col c) is v0 + xs[c] v1 + ys[r] v2."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    v0, v1, v2 = (np.asarray(v, dtype=np.float64)[:, None, None]
                  for v in (v0, v1, v2))
    attr = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    cap2 = CAPTURE * CAPTURE

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
    return _by_row_blocks(len(ys), 40 * len(xs), classify_rows)
