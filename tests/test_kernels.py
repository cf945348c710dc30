import hashlib
import os

import numpy as np
import pytest

from quintic_flow import _kernels as kx
from quintic_flow import basins as bs
from quintic_flow.equivariants import f6, restricted_map


@pytest.fixture
def _restore_env():
    saved = os.environ.get("QUINTIC_FLOW_THREADS")
    yield
    if saved is None:
        os.environ.pop("QUINTIC_FLOW_THREADS", None)
    else:
        os.environ["QUINTIC_FLOW_THREADS"] = saved


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


def _render_small(name):
    if name == "f6_plane":
        grid = bs.GridSpec(0j, 2.5, 2.5, (96, 96))
        return bs.render_plane(f6, grid, bs.f6_plane_attractors(), max_iter=60)
    grid = bs.GridSpec(0j, 4.0, 4.0, (96, 96))
    attr = (bs.octahedral_attractors() if name == "octahedral5"
            else bs.conic_pair_attractors())
    return bs.render_1d(restricted_map(name), grid, attr, max_iter=60)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_labels_and_iterations(name):
    p = _render_small(name)
    assert (_sha256(p.labels), _sha256(p.iterations)) == PINNED[name]


def test_labels_do_not_depend_on_thread_count(_restore_env):
    os.environ["QUINTIC_FLOW_THREADS"] = "1"
    one = _render_small("octahedral5")
    os.environ["QUINTIC_FLOW_THREADS"] = "3"
    three = _render_small("octahedral5")
    assert np.array_equal(one.labels, three.labels)
    assert np.array_equal(one.iterations, three.iterations)


class TestEnvFlags:
    def test_thread_count_parsing(self, _restore_env):
        os.environ["QUINTIC_FLOW_THREADS"] = "3"
        assert kx.thread_count() == 3
        os.environ["QUINTIC_FLOW_THREADS"] = "junk"
        assert kx.thread_count() >= 1
        os.environ.pop("QUINTIC_FLOW_THREADS", None)
        assert kx.thread_count() >= 1


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

    def test_iteration_counts_monotone_near_attractor(self):
        m = restricted_map("power4")
        attr = bs.AttractorSet(("zero",), ((0j,),))
        grid = bs.GridSpec(0j, 1.0, 1.0, (11, 11))
        p = bs.render_1d(m, grid, attr, max_iter=60)
        # the center cell starts at the attractor and resolves fastest
        assert p.iterations[5, 5] == p.iterations.min()
