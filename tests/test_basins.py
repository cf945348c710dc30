import json
import os

import numpy as np
import pytest

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

    def test_complex_grid_shape(self):
        g = bs.GridSpec(0j, 1.0, 1.0, (7, 4))
        assert g.complex_grid().shape == (4, 7)

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            bs.GridSpec(0j, -1.0, 1.0, (8, 8))

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            bs.GridSpec(0j, 1.0, 1.0, (8, 0))


class TestAttractorSet:
    def test_too_close_rejected(self):
        with pytest.raises(bs.AttractorsTooClose):
            bs.AttractorSet(("a", "b"), ((0j,), (1e-5 + 0j,)))

    def test_too_close_plane_vectors_rejected(self):
        p = bs.embed_plane(1.0, 0.0)
        q = p + bs.CAPTURE_DEFAULT * bs.PLANE_V2   # about 0.9 capture from p
        with pytest.raises(bs.AttractorsTooClose):
            bs.AttractorSet(("a", "b"), ((p,), (q,)))

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
        found = bs.find_attractors_1d(dd, seed=2, n_starts=80)
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
