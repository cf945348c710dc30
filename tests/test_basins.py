import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from quintic_flow import _kernels as kx
from quintic_flow import basins as bs
from quintic_flow.equivariants import (f6, h11, restricted_map,
                                       restricted_map_names)
from quintic_flow.geometry import INF

from _reference import symmetry_fraction_loop


class TestGridSpec:
    def test_axes_cover_window(self):
        g = bs.GridSpec(1 + 2j, 4.0, 2.0, (5, 3))
        xs, ys = g.axes()
        assert xs[0] == -1.0 and xs[-1] == 3.0
        assert ys[0] == 1.0 and ys[-1] == 3.0

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            bs.GridSpec(0j, -1.0, 1.0, (8, 8))

    def test_bad_resolution(self):
        # a grid needs two integer sizes of at least 2: one cell would sample
        # the window's corner, not its centre
        for res in [(8, 0), (1, 1), (8, 1), (2.5, 3), (8, 8.0), (3,),
                    (8, 8, 8), 8, "88", (True, 8)]:
            with pytest.raises(ValueError):
                bs.GridSpec(1 + 1j, 2.0, 2.0, res)
        xs, ys = bs.GridSpec(0j, 1.0, 1.0, (np.int64(2), np.int32(3))).axes()
        assert xs.tolist() == [-0.5, 0.5] and ys.tolist() == [-0.5, 0.0, 0.5]

    @pytest.mark.parametrize("center, width, height", [
        (0j, float("nan"), 1.0),
        (0j, 1.0, float("inf")),
        (complex(float("nan"), 0.0), 1.0, 1.0),
    ], ids=["nan_width", "inf_height", "nan_center"])
    def test_non_finite_window(self, center, width, height):
        with pytest.raises(ValueError):
            bs.GridSpec(center, width, height, (8, 8))


class TestAttractorSet:
    def test_too_close_rejected(self):
        with pytest.raises(bs.AttractorsTooClose):
            bs.AttractorSet(("a", "b"), ((0j,), (1e-5 + 0j,)))

    def test_too_close_plane_vectors_rejected(self):
        p = bs.embed_plane(1.0, 0.0)
        q = p + kx.CAPTURE * bs.PLANE_V2   # about 0.9 capture from p
        with pytest.raises(bs.AttractorsTooClose):
            bs.AttractorSet(("a", "b"), ((p,), (q,)))

    def test_stack_dtype_follows_the_points(self):
        # complex vectors keep their imaginary parts; real ones stay real
        v = np.array([1j, -1j, 0, 0, 0])
        w = bs.embed_plane(1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            attr = bs.AttractorSet(("a", "b"), ((v,), (w,)))
        assert attr.points.dtype == complex
        assert np.allclose(attr.points[:, 0], v / np.sqrt(2))
        assert np.allclose(attr.points[:, 1], w / np.linalg.norm(w))
        assert bs.f6_plane_attractors().points.dtype == np.float64

    def test_infinity_separated_from_finite(self):
        bs.AttractorSet(("a", "b"), ((0j,), (INF,)))  # must not raise

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            bs.AttractorSet(("a",), ((0j,), (1.0 + 0j,)))


class TestConicPortrait:
    def test_everything_resolves_to_exchanged_pair(self):
        m = restricted_map("g11_conic10")
        grid = bs.GridSpec(0j, 4.0, 4.0, (120, 120))
        p = bs.render_1d(m, grid, bs.conic_pair_attractors(), max_iter=80)
        stats = bs.attractor_statistics(p)
        assert stats["fractions"]["pair_0_inf"] >= 0.99
        assert stats["black_fraction"] <= 0.01

    def test_fractions_and_black_sum_to_one(self):
        m = restricted_map("g11_conic10")
        grid = bs.GridSpec(0j, 4.0, 4.0, (40, 40))
        p = bs.render_1d(m, grid, bs.conic_pair_attractors(), max_iter=80)
        stats = bs.attractor_statistics(p)
        total = sum(stats["fractions"].values()) + stats["black_fraction"]
        assert total == pytest.approx(1.0)


# periods of the cycles find_attractors_1d returns at seed 1, in order
SEED1_PERIODS = {
    "dodeca11": [2] * 10,
    "octahedral5": [2] * 4,
    "f6_line15": [1, 1, 1],
    "h11_line15": [1, 1, 2],
    "h11_line30": [2, 1],
    "h11_m15": [1, 1],
    "power4": [1, 1],
    "inverse_square": [2],
    "g11_conic10": [2],
}


class TestAttractorSearch:
    def test_every_registered_map_has_its_periods(self):
        assert sorted(SEED1_PERIODS) == restricted_map_names()

    @pytest.mark.parametrize("name", sorted(SEED1_PERIODS))
    def test_cycle_periods_at_seed_1(self, name):
        found = bs.find_attractors_1d(restricted_map(name), seed=1)
        assert [len(c) for c in found.cycles] == SEED1_PERIODS[name]

    def test_octahedral_search_matches_known_pairs(self):
        found = bs.find_attractors_1d(restricted_map("octahedral5"), seed=1)
        assert len(found.cycles) == 4
        assert all(len(c) == 2 for c in found.cycles)
        known = [p for cyc in bs.octahedral_attractors().cycles for p in cyc]
        pts = [p for cyc in found.cycles for p in cyc]
        for q in known:
            assert min(abs(q - p) for p in pts) < 1e-8

    def test_dodecahedral_map_has_ten_superattracting_2_cycles(self):
        dd = restricted_map("dodeca11")
        found = bs.find_attractors_1d(dd, seed=2)
        assert len(found.cycles) == 10
        assert all(len(c) == 2 for c in found.cycles)

        def chart(z):
            return np.polyval(dd.num, z) / np.polyval(dd.den, z)

        h = 1e-6
        for cyc in found.cycles:
            for z in cyc:
                # genuine period 2, and critical (superattracting)
                assert abs(chart(z) - z) > 1
                d = (chart(z + h) - chart(z - h)) / (2 * h)
                assert abs(d) < 1e-8


class TestF6LineDynamics:
    def test_free_critical_points_split_between_fixed_points(self):
        # the four critical points away from the fixed set: the real pair
        # falls to +-1, the imaginary pair to 0
        m = restricted_map("f6_line15")
        targets = {}
        for sign in (1, -1):
            for unit in (1, -1):
                c = unit * np.sqrt((9 + sign * 4 * np.sqrt(21)) / 17 + 0j)
                z = np.array([c, 1.0 + 0j])
                for _ in range(200):
                    z = np.array(m.pair(z[0], z[1]))
                    z = z / np.abs(z).max()
                targets[(sign, unit)] = z[0] / z[1]
        assert abs(targets[(1, 1)] - 1) < 1e-9
        assert abs(targets[(1, -1)] + 1) < 1e-9
        assert abs(targets[(-1, 1)]) < 1e-9
        assert abs(targets[(-1, -1)]) < 1e-9


class TestPlanePortrait:
    def test_non_invariant_map_rejected(self):
        def skew(x):
            y = np.asarray(x, dtype=complex).copy()
            y[0] *= 1j
            return y

        grid = bs.GridSpec(0j, 2.0, 2.0, (8, 8))
        with pytest.raises(bs.PlaneNotInvariant):
            bs.check_plane_invariant(skew, grid)

    def test_real_map_off_the_plane_rejected(self):
        # swapping coordinates 1 and 5 keeps the images real and their sum
        # zero but breaks x4 = x5
        def swap(x):
            return np.asarray(x)[[4, 1, 2, 3, 0]]

        grid = bs.GridSpec(0j, 2.0, 2.0, (8, 8))
        with pytest.raises(bs.PlaneNotInvariant, match="plane span"):
            bs.check_plane_invariant(swap, grid)

    def test_solver_map_preserves_plane_on_random_windows(self):
        # 200 seeded windows: centres in [-3, 3]^2, extents from 1e-6 to 30
        rng = np.random.default_rng(19)
        for _ in range(200):
            cx, cy = rng.uniform(-3, 3, 2)
            w, h = 10.0 ** rng.uniform(-6, np.log10(30), 2)
            bs.check_plane_invariant(f6, bs.GridSpec(complex(cx, cy), w, h,
                                                      (8, 8)))

    def test_render_rejects_other_maps(self):
        grid = bs.GridSpec(0j, 2.5, 2.5, (8, 8))
        with pytest.raises(ValueError, match="f6"):
            bs.render_plane(lambda x: f6(x), grid, bs.f6_plane_attractors())

    def test_solver_map_preserves_plane(self):
        grid = bs.GridSpec(0j, 2.5, 2.5, (8, 8))
        bs.check_plane_invariant(f6, grid)  # must not raise

    def test_plane_frame_places_attractors(self):
        attr = bs.f6_plane_attractors()
        for vec in attr.points.T:
            img = np.asarray(f6(vec), dtype=complex).real
            cos = abs(img @ vec) / (np.linalg.norm(img) * np.linalg.norm(vec))
            assert cos > 1 - 1e-12

    def test_two_point_cycle_labels_its_second_point(self):
        # cycle 0 pairs a decoy with the first five-point: the cells that
        # settle on that five-point take label 0 through the second point
        grid = bs.GridSpec(0j, 2.5, 2.5, (48, 48))
        std = bs.f6_plane_attractors()
        decoy = bs.embed_plane(0.5, 0.5)
        attr = bs.AttractorSet(("decoy_and_five_point_1",) + std.labels[1:],
                               ((decoy, std.cycles[0][0]),) + std.cycles[1:])
        p = bs.render_plane(f6, grid, attr, max_iter=60)
        ref = bs.render_plane(f6, grid, std, max_iter=60)
        assert (ref.labels == 0).sum() > 100
        assert np.array_equal(p.labels, ref.labels)

    def test_small_plane_portrait_mostly_resolves(self):
        grid = bs.GridSpec(0j, 2.5, 2.5, (48, 48))
        p = bs.render_plane(f6, grid, bs.f6_plane_attractors(), max_iter=60)
        stats = bs.attractor_statistics(p)
        assert stats["black_fraction"] < 0.05
        for k in ("five_point_1", "five_point_2", "five_point_3"):
            assert stats["fractions"][k] > 0.05

    def test_circle_image_hugs_five_point_triangle(self):
        # the image of the radius-1/2 circle around the central ten-point
        # collapses onto the triangle whose corners are the three five-points
        A = np.column_stack([bs.PLANE_V0, bs.PLANE_V1, bs.PLANE_V2])
        corners = [np.array([1.0, 0.0]),
                   np.array([-0.5, np.sqrt(3) / 2]),
                   np.array([-0.5, -np.sqrt(3) / 2])]

        def seg_dist(p, a, b):
            d = b - a
            t = np.clip(np.dot(p - a, d) / np.dot(d, d), 0.0, 1.0)
            return np.linalg.norm(p - (a + t * d))

        worst = 0.0
        for th in np.linspace(0, 2 * np.pi, 180, endpoint=False):
            x = bs.embed_plane(0.5 * np.cos(th), 0.5 * np.sin(th))
            img = np.asarray(f6(x), dtype=complex).real
            coef, *_ = np.linalg.lstsq(A, img, rcond=None)
            pt = np.array([coef[1] / coef[0], coef[2] / coef[0]])
            d = min(seg_dist(pt, corners[i], corners[(i + 1) % 3])
                    for i in range(3))
            worst = max(worst, d)
        assert worst < 0.1


class TestChaoticLine:
    def test_degree11_orbit_spreads_along_invariant_line(self):
        # generic plane orbits collapse onto the invariant line at the
        # chart's infinity and then wander chaotically along it: measure
        # the direction angle mod pi and count occupied angular cells
        A = np.column_stack([bs.PLANE_V0, bs.PLANE_V1, bs.PLANE_V2])
        p = bs.embed_plane(-1.24, -0.79)
        cells = set()
        for it in range(3000):
            q = np.asarray(h11(p), dtype=complex).real
            top = np.abs(q).max()
            if not (top > 0 and np.isfinite(top)):
                break
            p = q / top
            coef, *_ = np.linalg.lstsq(A, p, rcond=None)
            if it >= 100 and abs(coef[0]) < 1e-6 * np.linalg.norm(coef):
                theta = np.arctan2(coef[2], coef[1]) % np.pi
                cells.add(int(theta / np.pi * 720))
        assert len(cells) >= 100


class TestSymmetry:
    def test_quarter_turn_symmetry_of_octahedral_portrait(self):
        grid = bs.GridSpec(0j, 4.0, 4.0, (96, 96))
        p = bs.render_1d(restricted_map("octahedral5"), grid,
                         bs.octahedral_attractors(), max_iter=60)
        # z -> iz advances each vertex pair by one quarter turn
        frac = bs.symmetry_fraction(p, lambda x, y: (-y, x),
                                    {0: 1, 1: 2, 2: 3, 3: 0})
        assert frac >= 0.98

    @pytest.mark.parametrize("cell_map", [
        lambda x, y: (-y, x),
        lambda x, y: (x, -y),
        lambda x, y: (0.6 * x - 0.8 * y, 0.8 * x + 0.6 * y),
        lambda x, y: (1.5 * x + 0.3, 0.7 * y - 0.9),  # many images off grid
    ])
    def test_matches_cell_by_cell_loop(self, cell_map):
        rng = np.random.default_rng(11)
        attr = bs.AttractorSet(("a", "b", "c"), ((0j,), (1 + 0j,), (INF,)))
        for shape in ((31, 31), (40, 23)):
            grid = bs.GridSpec(0.1 - 0.2j, 3.0, 2.0, shape)
            labels = rng.integers(-1, 3, size=shape[::-1]).astype(np.int32)
            labels[:, ::4] = rng.integers(0, 2, size=labels[:, ::4].shape)
            p = bs.Portrait(grid, labels, np.ones_like(labels), attr, 10)
            perm = {0: 1, 1: 2, 2: 0}
            assert (bs.symmetry_fraction(p, cell_map, perm)
                    == symmetry_fraction_loop(p, cell_map, perm))


class TestMapSymmetries:
    """The symmetries the renderers fill from: stated once per map, each a
    true symmetry of its map and its slice, with label permutations read
    off the attractor points."""

    @staticmethod
    def _octahedral():
        return bs.PORTRAITS["octahedral5"].symmetries

    def test_octahedral_group_is_the_square_group(self):
        cells = {g.cell for g in bs.symmetry_group(self._octahedral())}
        assert len(cells) == 8 and ((1, 0), (0, 1)) in cells

    def test_octahedral_symmetries_commute_with_the_map(self):
        rmap = restricted_map("octahedral5")
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
        for g in bs.symmetry_group(self._octahedral()):
            got = np.array(rmap.pair(*g(Z)))
            want = g(np.array(rmap.pair(*Z)))
            # the image of gZ is g times the image of Z, up to one scalar
            ratio = got[0] / want[0]
            assert np.allclose(got, ratio * want, rtol=1e-12, atol=0)

    def test_plane_symmetry_commutes_with_f6(self):
        X = np.random.default_rng(4).standard_normal((5, 200))
        (g,) = bs.PORTRAITS["f6_plane"].symmetries
        assert np.allclose(f6(g(X)), g(f6(X)), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["octahedral", "plane"])
    def test_cell_and_column_actions_agree(self, kind):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((2, 50))
        if kind == "plane":
            gens, embed = bs.PORTRAITS["f6_plane"].symmetries, bs.embed_plane
        else:
            gens = self._octahedral()

            def embed(x, y):
                return np.array([x + 1j * y, np.ones_like(x)])
        for g in bs.symmetry_group(gens):
            (a, b), (c, d) = g.cell
            assert np.allclose(g(embed(x, y)),
                               embed(a * x + b * y, c * x + d * y), atol=1e-14)

    def test_derived_permutations_are_the_acceptance_literals(self):
        """The acceptance tests' label permutations, derived here from the
        attractor points: the quarter turn (x, y) -> (-y, x) advances the
        vertex pairs, and the plane's y-flip swaps five-points 2 and 3."""
        grid = bs.GridSpec(0j, 4.0, 4.0, (96, 96))
        octa = dict(bs.window_symmetries(self._octahedral(), grid,
                                         bs.octahedral_attractors()))
        assert dict(enumerate(octa[((0, -1), (1, 0))])) == {
            0: 1, 1: 2, 2: 3, 3: 0}
        (flip, perm), = bs.window_symmetries(
            bs.PORTRAITS["f6_plane"].symmetries, grid, bs.f6_plane_attractors())
        assert flip == ((1, 0), (0, -1))
        assert dict(enumerate(perm)) == {0: 0, 1: 2, 2: 1, 3: 3}

    @pytest.mark.parametrize("center, width, res, kept", [
        (0j, 4.0, (96, 96), 7),          # the whole square group
        (0j, 4.0, (96, 97), 3),          # the flips and the half turn
        (0j, 3.0, (96, 96), 3),          # unequal extents: the same
        (0.25 + 0j, 4.0, (96, 96), 1),   # off centre on the x axis: y-flip
        (0.5j, 4.0, (96, 96), 1),        # off centre on the y axis: x-flip
        (0.25 + 0.5j, 4.0, (96, 96), 0),
    ])
    def test_window_keeps_the_elements_that_map_it_onto_itself(
            self, center, width, res, kept):
        grid = bs.GridSpec(center, width, 4.0, res)
        assert len(bs.window_symmetries(self._octahedral(), grid,
                                        bs.octahedral_attractors())) == kept

    def test_attractors_keep_the_elements_they_are_closed_under(self):
        # vertex pairs 0 and 1 sit at angles 45/225 and 135/315 degrees
        # (inner/outer): only the x-flip z -> -conj(z) maps the two onto
        # each other
        full = bs.octahedral_attractors()
        two = bs.AttractorSet(full.labels[:2], full.cycles[:2])
        grid = bs.GridSpec(0j, 4.0, 4.0, (96, 96))
        (cell, perm), = bs.window_symmetries(self._octahedral(), grid, two)
        assert cell == ((-1, 0), (0, 1)) and perm.tolist() == [1, 0]
        empty = bs.AttractorSet((), ())     # closed under every element
        assert len(bs.window_symmetries(self._octahedral(), grid, empty)) == 7


class TestPortraitRegistry:
    """Each row against literals written here, so a wrong row fails."""

    PROBED = ["dodeca11", "f6_line15", "h11_line15", "h11_line30", "h11_m15"]

    def test_one_row_per_map_name(self):
        assert sorted(bs.PORTRAITS) == sorted(restricted_map_names()
                                              + ["f6_plane"])

    def test_windows(self):
        for name in bs.PORTRAITS:
            want = (0, 2.5, 2.5) if name == "f6_plane" else (0, 4, 4)
            assert bs.PORTRAITS[name].window == want, name

    @pytest.mark.parametrize("name, labels", [
        ("octahedral5", [f"vertex_pair_{k}" for k in range(4)]),
        ("g11_conic10", ["pair_0_inf"]),
        ("inverse_square", ["pair_0_inf"]),
        ("f6_plane", ["five_point_1", "five_point_2", "five_point_3",
                      "ten_point"]),
        ("power4", ["zero", "infinity"]),
    ] + [(name, None) for name in PROBED])
    def test_attractor_labels(self, name, labels):
        canned = bs.PORTRAITS[name].attractors
        assert (None if canned is None else list(canned.labels)) == labels

    def test_probed_rows_take_the_seeded_search(self):
        for name in self.PROBED:
            want = bs.find_attractors_1d(restricted_map(name), seed=3)
            assert bs.portrait_attractors(name, 3) == want
        assert (bs.portrait_attractors("power4", 3)
                is bs.PORTRAITS["power4"].attractors)

    def test_only_the_octahedral_and_plane_rows_have_symmetries(self):
        assert {name for name, row in bs.PORTRAITS.items()
                if row.symmetries} == {"octahedral5", "f6_plane"}

    def test_map_with_no_row_renders_without_symmetries(self):
        octa = restricted_map("octahedral5")
        copy = dataclasses.replace(octa, name="octahedral5_copy")
        assert copy.name not in bs.PORTRAITS
        grid = bs.GridSpec(0j, 4.0, 4.0, (24, 24))
        attr = bs.octahedral_attractors()
        p = bs.render_1d(copy, grid, attr, max_iter=40)
        labels, iters = kx.classify_1d(octa, *grid.axes(), attr.points,
                                       attr.cycle_index, 40)
        assert np.array_equal(p.labels, labels)
        assert np.array_equal(p.iterations, iters)

    @pytest.mark.parametrize("name", ["octahedral5", "f6_plane"])
    def test_render_by_name(self, name):
        row = bs.PORTRAITS[name]
        grid = bs.GridSpec(*row.window, (16, 16))
        p = bs.render(name, grid, row.attractors, 30)
        want = (bs.render_plane(f6, grid, row.attractors, 30)
                if name == "f6_plane" else
                bs.render_1d(restricted_map(name), grid, row.attractors, 30))
        assert np.array_equal(p.labels, want.labels)
        assert np.array_equal(p.iterations, want.iterations)


class TestOutput:
    def _portrait(self):
        grid = bs.GridSpec(0j, 4.0, 4.0, (20, 12))
        return bs.render_1d(restricted_map("power4"), grid,
                            bs.AttractorSet(("zero", "inf"), ((0j,), (INF,))),
                            max_iter=50)

    def test_ppm_header_and_size(self, tmp_path):
        p = self._portrait()
        path = os.path.join(tmp_path, "out.ppm")
        bs.write_ppm(p, path)
        with open(path, "rb") as fh:
            data = fh.read()
        header = b"P6\n20 12\n255\n"
        assert data.startswith(header)
        assert len(data) == len(header) + 20 * 12 * 3

    def test_sidecar_fields(self, tmp_path):
        p = self._portrait()
        path = os.path.join(tmp_path, "out.json")
        bs.write_sidecar(p, path, extra={"map": "power4"})
        with open(path) as fh:
            data = json.load(fh)
        assert data["window"]["resolution"] == [20, 12]
        assert data["legend"] == {"0": "zero", "1": "inf"}
        assert data["map"] == "power4"
        stats = data["statistics"]
        total = sum(stats["fractions"].values()) + stats["black_fraction"]
        assert total == pytest.approx(1.0)
