import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _dual import Dual
from _reference import phi2_explicit, phi3_explicit, power_sum_pow
from quintic_flow import invariants as iv
from quintic_flow import group as gp
from quintic_flow.geometry import OMEGA3, u_to_x, x_to_u


def _u(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(4) + 1j * rng.standard_normal(4)


class TestPowerSums:
    def test_simple_values(self):
        assert iv.power_sum([1, -1, 0, 0, 0], 2) == pytest.approx(2)
        assert iv.power_sum([1, -1, 0, 0, 0], 3) == pytest.approx(0)

    def test_quadric_point_kills_degree_2(self):
        x = np.array([0, 0, 1, OMEGA3, OMEGA3 ** 2])
        assert abs(iv.power_sum(x, 2)) < 1e-14

    def test_phi_matches_power_sum(self):
        for seed in range(100):
            u = _u(seed)
            for k in (2, 3, 4, 5):
                a = iv.phi(u, k)
                b = iv.power_sum(u_to_x(u), k)
                assert abs(a - b) < 1e-10 * max(1, abs(a))


def _stack(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(5, 800), (5,)])
def test_power_sum_ladder_matches_pow(shape):
    x = _stack(61, shape)
    for k in (1, 2, 3, 4, 5):
        want = power_sum_pow(x, k)
        assert (abs(iv.power_sum(x, k) - want) / abs(want)).max() < 1e-13


def test_powers_climb_on_dual_numbers():
    d = Dual.seed(_u(3))
    for k, p in enumerate(iv.powers(d, 5), 1):
        want = d ** k
        assert np.abs(p.val - want.val).max() < 1e-13 * np.abs(want.val).max()
        assert np.abs(p.der - want.der).max() < 1e-13 * np.abs(want.der).max()


class TestExplicitForms:
    def test_phi2_substitutions(self):
        assert phi2_explicit([1, 0, 0, 0]) == 0
        assert phi2_explicit([1, 0, 0, 1]) == pytest.approx(2)

    def test_explicit_vs_power_sum(self):
        for seed in range(20):
            u = _u(seed)
            assert abs(phi2_explicit(u) - iv.phi(u, 2)) < 1e-12
            assert abs(phi3_explicit(u) - iv.phi(u, 3)) < 1e-12


class TestDeterminantForms:
    def test_degree4_identity(self):
        for seed in range(200):
            u = _u(seed)
            p4 = iv.phi(u, 4)
            assert abs(iv.phi4_from_G4(u) - p4) < 1e-9 * abs(p4)

    def test_degree5_identity(self):
        for seed in range(200):
            u = _u(seed)
            p5 = iv.phi(u, 5)
            assert abs(iv.phi5_from_G5(u) - p5) < 1e-9 * abs(p5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_G4_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        a = iv.hessian_form_G4(lam * u)
        b = lam ** 4 * iv.hessian_form_G4(u)
        assert abs(a - b) < 1e-9 * max(1, abs(b))


class TestPsi10:
    def test_vanishes_on_mirror_plane(self):
        assert abs(iv.psi10(x_to_u(np.array([1, 1, 0, -1, -1], dtype=complex)))) < 1e-12

    def test_sign_flip_under_transposition(self):
        T = gp.element((1, 0, 2, 3, 4)).matrix
        for seed in range(50):
            u = _u(seed)
            v = iv.psi10(u)
            assert abs(iv.psi10(T @ u) + v) < 1e-9 * abs(v)

    def test_normalization_constant_is_stable(self):
        # the same scalar must relate det(tau) to the invariant product at
        # every regular point
        from quintic_flow import params as pr
        rng = np.random.default_rng(77)
        ratios = []
        for _ in range(20):
            v = pr.random_regular_point(rng)
            t = pr.tau(v)
            prod = np.prod([iv.phi(v, k) for k in (2, 3, 4, 5)])
            ratios.append(np.linalg.det(t)
                          / (prod * iv.vandermonde_product(u_to_x(v))))
        ratios = np.array(ratios)
        assert np.abs(ratios - ratios[0]).max() < 1e-8 * abs(ratios[0])
        assert abs(ratios[0] - iv.PSI10_SCALE) < 1e-8 * abs(ratios[0])


class TestKValues:
    def test_scale_invariance(self):
        u = _u(3)
        a = np.array(iv.k_values(u))
        b = np.array(iv.k_values((0.3 - 1.7j) * u))
        assert np.abs(a - b).max() < 1e-10 * np.abs(a).max()

    def test_group_invariance(self):
        u = _u(9)
        a = np.array(iv.k_values(u))
        for g in gp.all_elements():
            b = np.array(iv.k_values(g.matrix @ u))
            assert np.abs(a - b).max() < 1e-9 * np.abs(a).max()

    def test_quadric_point_raises(self):
        u = x_to_u(np.array([0, 0, 1, OMEGA3, OMEGA3 ** 2]))
        with pytest.raises(iv.OnQuadric):
            iv.k_values(u)

    def test_cubic_point_raises(self):
        # push a generic point onto the cubic by Newton along a line
        u = _u(0)
        e = np.array([1, 0, 0, 0], dtype=complex)
        t = 0.1 + 0.1j
        for _ in range(100):
            f = phi3_explicit(u + t * e)
            df = (phi3_explicit(u + (t + 1e-6) * e) - f) / 1e-6
            t -= f / df
        w = u + t * e
        assert abs(iv.phi(w, 3)) < 1e-8
        with pytest.raises(iv.OnCubic):
            iv.k_values(w)


def test_invariance_under_full_group():
    u = _u(123)
    vals = [iv.phi(u, k) for k in (2, 3, 4, 5)]
    for g in gp.all_elements():
        gu = g.matrix @ u
        for k, v in zip((2, 3, 4, 5), vals):
            assert abs(iv.phi(gu, k) - v) < 1e-10 * abs(v)
