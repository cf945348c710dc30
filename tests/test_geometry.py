import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import projectively_equal
from quintic_flow import geometry as ge


def _cvec(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestChangeOfBasis:
    def test_rows_orthonormal(self):
        assert np.abs(ge.H @ ge.HCT - np.eye(4)).max() < 1e-14

    def test_round_trip_on_sum_zero_vectors(self):
        x = _cvec(5, 1)
        x -= x.mean()
        back = ge.u_to_x(ge.x_to_u(x))
        assert np.abs(back - x).max() < 1e-13

    def test_image_sums_to_zero(self):
        u = _cvec(4, 2)
        assert abs(ge.u_to_x(u).sum()) < 1e-13


class TestChordalDistance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = complex(rng.standard_normal(), rng.standard_normal()) or 1.0
        d1 = ge.chordal_distance(p, q)
        d2 = ge.chordal_distance(c * p, q)
        assert abs(d1 - d2) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        d = ge.chordal_distance(p, q)
        assert 0 <= d <= 1
        assert abs(d - ge.chordal_distance(q, p)) < 1e-12

    def test_no_cancellation_at_tiny_separation(self):
        p = _cvec(4, 5)
        q = p + 1e-13 * _cvec(4, 6)
        assert ge.chordal_distance(p, p) < 1e-15
        assert ge.chordal_distance(p, q) < 1e-12

    def test_orthogonal_points_at_distance_one(self):
        assert abs(ge.chordal_distance([1, 0, 0, 0], [0, 1, 0, 0]) - 1) < 1e-14

    def test_zero_vector_raises(self):
        with pytest.raises(ge.ZeroVector):
            ge.chordal_distance(np.zeros(4), np.ones(4))


class TestLineChart:
    def setup_method(self):
        self.a = np.array([-4, 1, 1, 1, 1], dtype=complex)
        self.b = np.array([1, -4, 1, 1, 1], dtype=complex)
        self.mid = np.array([-3, -3, 2, 2, 2], dtype=complex)  # a + b

    def test_anchor_placement(self):
        ch = ge.line_chart(self.a, self.b, at_one=self.mid)
        assert projectively_equal(ge.chart_eval(ch, 0), self.a)
        assert projectively_equal(ge.chart_eval(ch, ge.INF), self.b)
        assert projectively_equal(ge.chart_eval(ch, 1), self.mid)

    def test_round_trip(self):
        ch = ge.line_chart(self.a, self.b, at_one=self.mid)
        for z in (0.3, -2.5 + 1j, 17.0, np.array([0.3, -2.5 + 1j, 17.0])):
            w = ge.chart_invert(ch, ge.chart_eval(ch, z))
            assert np.all(abs(w - z) < 1e-10 * np.maximum(1, abs(z)))

    def test_invert_at_infinity(self):
        ch = ge.line_chart(self.a, self.b, at_one=self.mid)
        assert ge.chart_invert(ch, self.b) == ge.INF

    def test_coincident_anchors_raise(self):
        with pytest.raises(ge.AnchorsCoincide):
            ge.line_chart(self.a, 2 * self.a, at_one=self.mid)

    def test_off_line_anchor_raises(self):
        off = np.array([0, 0, 1, -1, 0], dtype=complex)
        with pytest.raises(ge.AnchorsNotCollinear):
            ge.line_chart(self.a, self.b, at_one=off)

    def test_off_line_invert_raises(self):
        ch = ge.line_chart(self.a, self.b, at_one=self.mid)
        with pytest.raises(ge.AnchorsNotCollinear):
            ge.chart_invert(ch, np.array([0, 0, 1, -1, 0], dtype=complex))
