"""Iterate-and-classify kernel behind the basin portraits and the attractor
search.

A portrait is a slice: the cell in grid row r and column c is the point
X = v0 + xs[c] v1 + ys[r] v2 (a real invariant plane by its spanning vectors,
the chart z = x + iy of CP^1 as v0 = (0, 1), v1 = (1, 0), v2 = (i, 0)), in
the dtype of the slice vectors and the attractor points.  One numpy loop
iterates the slice's (n, N) column stack: a ``step`` maps and normalizes every
column and flags the ones that vanish or overflow, and a ``nearest`` names the
target each column lies within the capture radius of (-1 for none).  A column
is labeled with target j once two consecutive iterates land near j, and each
step drops the labeled and the flagged (never labeled) columns in one
compaction; columns unresolved after the iteration budget stay at -1.
``classify_stack`` runs any column stack this way: it splits the stack into
blocks of columns, small enough that a step's operands stay in cache, and a
thread pool takes the blocks, one worker per core.

A slice may come with symmetries of its window: signed permutations of the
grid offsets about the window's centre, each with the permutation of labels
it induces.  Then only the least cell of each orbit is iterated, and every
other cell copies its representative's iteration count and takes its label
through the permutation.  With no symmetries every cell is its own
representative.  The fill assumes the grid axes are antisymmetric about the
centre, which ``numpy.linspace`` holds only to roundoff: on the octahedral
portrait the fill equals iterating every cell at 96^2, 97^2, 240^2, 500^2
and 720^2, but at 1001^2 13 labels and 17 iteration counts differ, cells that
roundoff decides either way.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .equivariants import f6
from .geometry import CAPTURE

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
        cur = nearest(X)
        done = (cur >= 0) & (cur == prev) & ~bad
        labels[idx[done]] = cur[done]
        iters[idx[done]] = it + 1
        live = ~(done | bad)
        X = X.compress(live, 1)
        prev, idx = cur.compress(live), idx.compress(live)
    return labels, iters


def map_step(fmap):
    """Step of fmap, which maps an (n, N) column stack to its image (a stack
    or n coordinate rows): each image column is scaled to largest entry 1 in
    modulus; columns whose image vanishes or is not finite are flagged.
    The scaling is in place, so fmap must return a new array, never its
    input: a map that returned X would rescale the caller's stack."""
    def step(X):
        W = np.asarray(fmap(X))
        top = np.abs(W).max(0)
        bad = ~np.isfinite(top) | (top == 0)
        W /= np.where(bad, 1.0, top)
        return W, bad
    return step


def _abs2(z):
    return z.real * z.real + z.imag * z.imag if np.iscomplexobj(z) else z * z


def _nearest(points, cycle_index):
    """X is near a target a, a unit column (an attractor point), by
    ``geometry.CAPTURE``'s rule |<a, X>|^2 > (1 - CAPTURE^2) |X|^2, and near
    several it takes the lowest ``cycle_index`` (non-decreasing, the index of
    each point's cycle).  <a, X> sums a's nonzero entries one by one: a BLAS
    product starts threads that compete with the block pool.  A coordinate
    target, whose one nonzero entry is 1, reads |<a, X>|^2 off |X|^2."""
    terms = [[(i, c) for i, c in enumerate(a) if c] for a in points.conj().T]

    def nearest(X):
        a2 = _abs2(X)
        near = (1.0 - CAPTURE * CAPTURE) * a2.sum(0)
        cur = np.full(X.shape[1], -1, dtype=np.int32)
        for t in range(len(cycle_index) - 1, -1, -1):
            (i, c), *rest = terms[t]
            if rest or c != 1:
                dot = c * X[i]
                for i, c in rest:
                    dot += c * X[i]
                cur[_abs2(dot) > near] = cycle_index[t]
            else:
                cur[a2[i] > near] = cycle_index[t]
        return cur
    return nearest


# Byte budget of a block of columns at coordinates x itemsize bytes a column:
# 49,152 columns of a (2, N) complex CP^1 stack, 39,321 of a (5, N) real
# plane stack.  720^2 renders on 2 cores (2 MiB of L2 each), medians of 4
# rounds: the 1-D maps pay per-step call overhead in smaller blocks (conic
# 0.59 s at 768 KiB, 0.51-0.56 s from 1.5 to 3 MiB; octahedral 0.58 s and
# 0.45-0.52 s); the plane is flat (0.32-0.37 s).  No budget won every round.
BLOCK_BYTES = 1536 * 1024


def classify_stack(fmap, X, points, cycle_index, max_iter):
    """Labels and iterations of the columns of the (n, N) stack X under fmap
    and the targets ``points`` with their ``cycle_index`` (see module doc),
    each column on its own, on a thread pool over blocks of BLOCK_BYTES."""
    step, nearest = map_step(fmap), _nearest(points, cycle_index)
    per_block = max(1, BLOCK_BYTES // (len(X) * X.itemsize))
    starts = range(0, max(X.shape[1], 1), per_block)   # one block if empty

    def classify(start):    # errstate is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            return _iterate_classify(step, nearest,
                                     X[:, start:start + per_block], max_iter)
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(starts))) as ex:
        parts = list(ex.map(classify, starts))
    return tuple(np.concatenate([p[k] for p in parts]) for k in (0, 1))


def _orbits(nx, ny, moves):
    """The least cell of each cell's orbit on the (ny, nx) grid, by flat
    index r nx + c, and the index in ``moves`` (from 1; 0 where the cell is
    its own representative) of a move taking the cell there.  A move is a
    signed permutation matrix M, sending the cell at offsets (x, y) from the
    grid's centre to the cell at M (x, y)."""
    rep = np.arange(nx * ny, dtype=np.int32).reshape(ny, nx)
    move = np.zeros((ny, nx), dtype=np.int8)
    c, r = np.arange(nx, dtype=np.int32), np.arange(ny, dtype=np.int32)[:, None]
    for k, ((a, b), (d, e)) in enumerate(moves, 1):
        # the image's column is this cell's column (a = +-1) or row (b),
        # its row this cell's column (d) or row (e); -1 reverses the order
        col = c[::a] if a else r[::b]
        row = c[::d] if d else r[::e]
        image = row * nx + col
        closer = image < rep
        np.copyto(rep, image, where=closer)
        np.copyto(move, k, where=closer)
    return rep.ravel(), move.ravel()


def _classify_slice(fmap, xs, ys, v0, v1, v2, points, cycle_index, max_iter,
                    symmetries=()):
    """Labels and iterations of the grid (ys x xs) of the slice under fmap,
    classified at one cell per orbit of ``symmetries`` and filled from it
    (see ``classify_1d``)."""
    dtype = np.result_type(*map(np.asarray, (v0, v1, v2, points)))
    v0, v1, v2 = (np.asarray(v, dtype)[:, None, None] for v in (v0, v1, v2))
    rep, move = _orbits(len(xs), len(ys), [m for m, _ in symmetries])
    own = move == 0
    # The stack is built once and each block iterates a view of its columns:
    # freeing the stack lifts glibc's dynamic mmap and trim thresholds above a
    # block's temporaries, so steps reuse heap memory (built per block, 720^2
    # renders took 35-60% longer).  Columns that overflow are dropped by
    # design, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        X = (v0 + xs[None, None, :] * v1 + ys[None, :, None] * v2).reshape(
            len(v0), -1)
    if not own.all():           # a copy of the whole stack otherwise
        X = X.compress(own, 1)
    labels = np.empty(rep.size, dtype=np.int32)
    iters = np.empty(rep.size, dtype=np.int32)
    labels[own], iters[own] = classify_stack(
        fmap, X, np.asarray(points, dtype), cycle_index, max_iter)
    # every other cell takes its representative's label through the inverse
    # of its move's permutation (-1, unresolved, reads each row's last entry)
    n = int(np.max(cycle_index, initial=-1)) + 1
    unmove = np.array([np.append(np.argsort(p), -1) for p in
                       [np.arange(n)] + [p for _, p in symmetries]])
    fill = ~own
    at = rep[fill]
    labels[fill] = unmove[move[fill], labels[at]]
    iters[fill] = iters[at]
    return labels.reshape(len(ys), -1), iters.reshape(len(ys), -1)


def classify_1d(rmap, xs, ys, points, cycle_index, max_iter: int,
                symmetries=()):
    """Labels and iterations of the chart values x + iy under the
    RestrictedMap1D rmap, the slice (x + iy, 1) = (0, 1) + x (1, 0) +
    y (i, 0); ``points`` is a (2, P) stack of CP^1 pairs.

    ``symmetries`` are the elements other than the identity of a group that
    maps the grid and the attractors onto themselves and commutes with the
    map, as (M, perm) pairs: M a signed permutation matrix sending the cell
    at (x, y), offsets from the grid's centre, to the cell at M (x, y), and
    perm[k] the label that cell takes where this one takes k.  Only the
    least cell of each orbit is iterated; every other cell takes its
    label through the permutation and its iteration count."""
    return _classify_slice(lambda Z: rmap.pair(*Z), xs, ys, [0, 1], [1, 0],
                           [1j, 0], points, cycle_index, max_iter, symmetries)


def classify_plane(xs, ys, v0, v1, v2, points, cycle_index, max_iter: int,
                   symmetries=()):
    """Labels and iterations of the slice v0 + x v1 + y v2 of a plane that
    f6 preserves; ``points`` is a (5, P) stack of vectors on the plane, and
    ``symmetries`` as in ``classify_1d``."""
    return _classify_slice(f6, xs, ys, v0, v1, v2, points, cycle_index,
                           max_iter, symmetries)
