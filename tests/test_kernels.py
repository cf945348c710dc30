import hashlib
import os

import numpy as np
import pytest

from quintic_flow import _kernels as kx
from quintic_flow import basins as bs
from quintic_flow import solver as sv
from quintic_flow.equivariants import (RestrictedMap1D, f6, restricted_map,
                                       restricted_map_names)
from quintic_flow.geometry import chordal_distance

import _reference as ref


def _sha256(arr) -> str:
    arr = np.ascontiguousarray(arr, dtype="<i4")
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


# sha256 of (labels, iterations) of the three acceptance portraits at 96^2,
# max_iter 60; any change to the iteration or the classification shows here
PINNED = {
    "g11_conic10": (
        "99fef291d0b4a01e590fe746379ba2d00e1d0eb08f6c1ccaf8930a5766346540",
        "daddba8c8ffdcdb3340da02f6cd121e5244507002d8d7fb3387d2a674537ca28"),
    "octahedral5": (
        "8d7488d35179b0b2bf8ffa6b06321b605b195a7defa81808b58cc876c59536af",
        "dc069aa4361aeb2d67c9d9037d750b17ce26cc4e78e62f825acb68b9cdc12920"),
    "f6_plane": (
        "e482c476968352a047c06649d73e2afe89ae16d4fdb0f0c465b00b383c4aaff3",
        "d0d578eb4c8769ca4171b25f142cf1f33c88ea8714112ba999b3a4d81baa3043"),
}


def _grid_and_attractors(name, res=(96, 96)):
    if name == "f6_plane":
        return bs.GridSpec(0j, 2.5, 2.5, res), bs.f6_plane_attractors()
    return bs.GridSpec(0j, 4.0, 4.0, res), (
        bs.octahedral_attractors() if name == "octahedral5"
        else bs.conic_pair_attractors())


def _render(name, grid, attr):
    if name == "f6_plane":
        return bs.render_plane(f6, grid, attr, max_iter=60)
    return bs.render_1d(restricted_map(name), grid, attr, max_iter=60)


def _render_small(name):
    return _render(name, *_grid_and_attractors(name))


def _unfilled(name, grid, attr):
    """Labels and iterations of every cell through the kernel, with no
    symmetry: each cell its own representative."""
    xs, ys = grid.axes()
    if name == "f6_plane":
        return kx.classify_plane(xs, ys, bs.PLANE_V0, bs.PLANE_V1, bs.PLANE_V2,
                                 attr.points, attr.cycle_index, 60)
    return kx.classify_1d(restricted_map(name), xs, ys, attr.points,
                          attr.cycle_index, 60)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_labels_and_iterations(name):
    p = _render_small(name)
    assert (_sha256(p.labels), _sha256(p.iterations)) == PINNED[name]


# a byte budget that cuts a 96^2 render into blocks of 625 columns (1-D,
# 32 bytes a column) or 500 (plane, 40 bytes), so blocks end mid-row
SMALL_BLOCK_BYTES = 20_000


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_across_block_boundaries(name, monkeypatch):
    monkeypatch.setattr(kx, "BLOCK_BYTES", SMALL_BLOCK_BYTES)
    widths = []
    iterate_classify = kx._iterate_classify

    def counted(step, nearest, X, max_iter):
        widths.append(X.shape[1])
        return iterate_classify(step, nearest, X, max_iter)
    monkeypatch.setattr(kx, "_iterate_classify", counted)
    labels, iters = _unfilled(name, *_grid_and_attractors(name))
    assert len(widths) > 2 and sum(widths) == 96 * 96
    assert max(widths) == (500 if name == "f6_plane" else 625)
    assert any(w % 96 for w in widths)
    assert (_sha256(labels), _sha256(iters)) == PINNED[name]


@pytest.mark.parametrize("name, cells", [("octahedral5", 64_980),
                                         ("f6_plane", 259_200)])
def test_acceptance_render_iterates_one_cell_per_orbit(name, cells,
                                                       monkeypatch):
    widths = []
    classify_stack = kx.classify_stack

    def counted(fmap, X, *args):
        widths.append(X.shape[1])
        return classify_stack(fmap, X, *args)
    monkeypatch.setattr(kx, "classify_stack", counted)
    monkeypatch.setattr(kx, "_iterate_classify",
                        lambda step, nearest, X, max_iter: (
                            np.zeros(X.shape[1], np.int32),) * 2)
    _render(name, *_grid_and_attractors(name, (720, 720)))
    assert widths == [cells]


@pytest.mark.parametrize("name, center, res, restrict", [
    *((name, 0j, (n, n), False) for name in ("octahedral5", "f6_plane")
      for n in (96, 97, 240, 720)),                 # the whole group
    ("octahedral5", 0.25 + 0j, (96, 96), False),    # the y-flip only
    ("octahedral5", 0.25 + 0.5j, (96, 96), False),  # no symmetry
    ("octahedral5", 0j, (96, 97), False),           # no quarter turns
    ("octahedral5", 0j, (96, 96), True),            # the x-flip only
    ("f6_plane", 0.1 + 0.2j, (96, 96), False),      # no symmetry
    ("f6_plane", 0.1 + 0j, (96, 97), False),        # the y-flip
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
def test_filled_render_is_the_unfilled_one(name, center, res, restrict):
    """A render that iterates one cell per orbit of its window's symmetries
    and fills the rest gives every cell the label and iteration count that
    iterating each cell gives."""
    grid, attr = _grid_and_attractors(name, res)
    grid = bs.GridSpec(center, grid.width, grid.height, res)
    if restrict:        # vertex pairs 0 and 1, closed under the x-flip only
        attr = bs.AttractorSet(attr.labels[:2], attr.cycles[:2])
    p = _render(name, grid, attr)
    labels, iters = _unfilled(name, grid, attr)
    assert (labels >= 0).mean() > (0.4 if restrict else 0.9)
    assert np.array_equal(p.labels, labels)
    assert np.array_equal(p.iterations, iters)


def test_classify_stack_on_no_columns():
    attr = bs.octahedral_attractors()
    out = kx.classify_stack(lambda Z: restricted_map("octahedral5").pair(*Z),
                            np.zeros((2, 0), complex), attr.points,
                            attr.cycle_index, 60)
    assert [(a.dtype, a.shape) for a in out] == [(np.int32, (0,))] * 2


def test_columns_classify_independently(monkeypatch):
    """A column's label and iteration count do not depend on its neighbours
    or its block: a seeded octahedral stack, permuted and cut into small
    blocks, gives the permuted results bit for bit."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((2, 20_000)) + 1j * rng.standard_normal((2, 20_000))
    rmap, attr = restricted_map("octahedral5"), bs.octahedral_attractors()

    def classify(X):
        return kx.classify_stack(lambda Z: rmap.pair(*Z), X, attr.points,
                                 attr.cycle_index, 60)
    labels, iters = classify(X)
    perm = rng.permutation(X.shape[1])
    monkeypatch.setattr(kx, "BLOCK_BYTES", SMALL_BLOCK_BYTES)
    small = classify(X[:, perm])
    assert (labels >= 0).mean() > 0.9
    assert np.array_equal(small[0], labels[perm])
    assert np.array_equal(small[1], iters[perm])


def test_labels_do_not_depend_on_thread_count(monkeypatch):
    monkeypatch.setattr(kx, "BLOCK_BYTES", SMALL_BLOCK_BYTES)
    monkeypatch.setattr(kx, "thread_count", lambda: 1)
    one = _render_small("octahedral5")
    monkeypatch.setattr(kx, "thread_count", lambda: 3)
    three = _render_small("octahedral5")
    assert np.array_equal(one.labels, three.labels)
    assert np.array_equal(one.iterations, three.iterations)


def test_complex_plane_slice_matches_the_real_one():
    # the slice's dtype follows its vectors and points: cast to complex, the
    # f6 plane gives the real arithmetic's labels and iterations bit for bit
    xs, ys = bs.GridSpec(0j, 2.5, 2.5, (240, 240)).axes()
    attr = bs.f6_plane_attractors()
    vecs = (bs.PLANE_V0, bs.PLANE_V1, bs.PLANE_V2, attr.points)
    real = kx.classify_plane(xs, ys, *vecs, attr.cycle_index, 60)
    cplx = kx.classify_plane(xs, ys, *(v.astype(complex) for v in vecs),
                             attr.cycle_index, 60)
    assert (real[0] >= 0).mean() > 0.9
    for r, c in zip(real, cplx):
        assert np.array_equal(r, c)


class TestStepsMatchDenseForms:
    """The portrait steps skip zero terms and share subexpressions, yet
    give the dense forms' values bit for bit."""

    @staticmethod
    def _complex_stack(rows, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((rows, 4000))
                + 1j * rng.standard_normal((rows, 4000)))

    @pytest.mark.parametrize("name", restricted_map_names())
    def test_pair(self, name):
        rmap = restricted_map(name)
        z1, z2 = self._complex_stack(2, 11)
        for got, want in zip(rmap.pair(z1, z2), ref.pair_dense(rmap, z1, z2)):
            assert np.array_equal(got, want)
        for got, want in zip(rmap.pair(z1, 1.0), ref.pair_dense(rmap, z1, 1.0)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", restricted_map_names())
    def test_pair_edge_inputs(self, name):
        # Python scalars, 0-d arrays, the point at infinity [1 : 0], and the
        # chart map against the dense quotient, poles included
        rmap = restricted_map(name)
        for z1, z2 in [(0.3 - 0.7j, 1.0), (2, 1), (np.array(0.3 - 0.7j),
                       np.array(1.2j)), (1.0, 0.0), (np.array(1.0), 0.0)]:
            for got, want in zip(rmap.pair(z1, z2),
                                 ref.pair_dense(rmap, z1, z2)):
                assert np.shape(got) == () and np.array_equal(got, want)
        zs = np.array([0.0, 1.0, -1.0, 0.5 - 2j, 1e-3j])
        n, d = ref.pair_dense(rmap, zs, 1.0)
        want = np.divide(n, d, out=np.full(zs.shape, np.inf, dtype=complex),
                         where=d != 0)
        assert np.array_equal(rmap(zs), want)
        for z, w in zip(zs, want):
            assert np.array_equal(rmap(z), w)
            assert np.array_equal(rmap(complex(z)), w)

    def test_f6_complex(self):
        x = self._complex_stack(5, 12)
        assert np.array_equal(f6(x), ref.f6_inline(x))

    def test_f6_real(self):
        x = np.random.default_rng(13).standard_normal((5, 4000))
        assert np.array_equal(f6(x), ref.f6_inline(x))

    def test_attractor_search(self, monkeypatch):
        found = {n: bs.find_attractors_1d(restricted_map(n))
                 for n in restricted_map_names()}
        monkeypatch.setattr(RestrictedMap1D, "pair", ref.pair_dense)
        for name, attr in found.items():
            dense = bs.find_attractors_1d(restricted_map(name))
            assert attr.cycles == dense.cycles, name


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="the platform has no CPU affinity mask")
def test_thread_count_is_the_affinity_count():
    assert kx.thread_count() == len(os.sched_getaffinity(0))


class TestKernelBehavior:
    def test_power4_classification(self):
        # |z|<1 contracts to 0, |z|>1 escapes to infinity under z -> z^4
        m = restricted_map("power4")
        attr = bs.AttractorSet(("zero", "inf"), ((0j,), (float("inf"),)))
        grid = bs.GridSpec(0j, 3.0, 3.0, (41, 41))
        p = bs.render_1d(m, grid, attr, max_iter=60)
        xs, ys = grid.axes()
        for r in range(0, 41, 5):
            for c in range(0, 41, 5):
                z = xs[c] + 1j * ys[r]
                if abs(z) < 0.9:
                    assert p.labels[r, c] == 0
                elif abs(z) > 1.1:
                    assert p.labels[r, c] == 1

    def test_flagged_columns_are_dropped_unlabeled(self):
        # columns named by their value; every column but 3 lies on target 0.
        # The step flags column 2 on step 1 and column 1 on step 2, the step
        # where column 0 is confirmed.
        flag_at = {1: (2.0,), 2: (1.0,)}
        seen = []

        def step(X):
            seen.append(X[0].tolist())
            return X.copy(), np.isin(X[0], flag_at.get(len(seen), ()))

        def nearest(X):
            return np.where(X[0] == 3.0, -1, 0).astype(np.int32)

        X = np.array([[0.0, 1.0, 2.0, 3.0]])
        labels, iters = kx._iterate_classify(step, nearest, X, 5)
        assert labels.tolist() == [0, -1, -1, -1]
        assert iters.tolist() == [2, 5, 5, 5]
        assert seen == [[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0]] + [[3.0]] * 3

    def test_iteration_counts_monotone_near_attractor(self):
        m = restricted_map("power4")
        attr = bs.AttractorSet(("zero",), ((0j,),))
        grid = bs.GridSpec(0j, 1.0, 1.0, (11, 11))
        p = bs.render_1d(m, grid, attr, max_iter=60)
        # the center cell starts at the attractor and resolves fastest
        assert p.iterations[5, 5] == p.iterations.min()


def test_f6_captures_almost_every_start_in_cp3():
    """The paper's "converges from almost every start" for the full 3-D
    iteration: 10,000 seeded complex sum-zero starts of f6, captured at
    chordal distance 1e-10 from a five-point on two consecutive iterates.
    Every start is captured, each of the five basins holds 20% +- 1.6% (4
    sigma at this N), and no start needs more than the solver's step budget.
    """
    five_points = np.ones((5, 5)) - 5 * np.eye(5)       # columns p5_1..p5_5

    def nearest(X):
        d = chordal_distance(X[:, None, :], five_points[:, :, None])   # (5, N)
        cur = np.full(X.shape[1], -1, dtype=np.int32)
        hit = d.min(0) < 1e-10
        cur[hit] = d.argmin(0)[hit]
        return cur

    n = 10_000
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    X -= X.mean(0)
    labels, iters = kx._iterate_classify(kx.map_step(f6), nearest, X,
                                         2 * sv.MAX_STEPS)
    assert (labels >= 0).all()
    assert np.abs(np.bincount(labels, minlength=5) / n - 0.2).max() <= 0.016
    assert iters.max() <= sv.MAX_STEPS


@pytest.mark.parametrize("kind", ["f6", "pair"])
def test_map_step_leaves_its_input_unchanged(kind):
    """map_step scales the map's image in place; the package's maps build
    new arrays, so the stack a step reads is never rescaled."""
    rng = np.random.default_rng(7)
    n = 5 if kind == "f6" else 2
    X = rng.standard_normal((n, 50)) + 1j * rng.standard_normal((n, 50))
    fmap = f6 if kind == "f6" else (
        lambda Z: restricted_map("octahedral5").pair(*Z))
    before = X.copy()
    W, bad = kx.map_step(fmap)(X)
    assert not bad.any() and not np.shares_memory(W, X)
    assert np.array_equal(X, before)
