import itertools

import numpy as np
import pytest

from _reference import invariant_values_grads
from quintic_flow import _tables as tb
from quintic_flow import equivariants as eq
from quintic_flow import group as gp
from quintic_flow import invariants as iv
from quintic_flow import params as pr
from quintic_flow.geometry import chordal_distance
from quintic_flow.solver import resolvent_RK


def _rng(seed=0):
    return np.random.default_rng(seed)


def _vw(rng):
    v = pr.random_regular_point(rng)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v, w


class TestTau:
    def test_singular_at_special_point(self):
        with pytest.raises(pr.SingularTau):
            pr.tau(pr.five_point_u(0))

    def test_equivariance(self):
        rng = _rng(1)
        for _ in range(20):
            v = pr.random_regular_point(rng)
            A = gp.element(tuple(rng.permutation(5))).matrix
            t1 = pr.tau(A @ v).matrix
            t2 = A @ pr.tau(v).matrix
            assert np.abs(t1 - t2).max() < 1e-9 * np.abs(t2).max()

    def test_determinant_factorization(self):
        rng = _rng(2)
        for _ in range(20):
            v = pr.random_regular_point(rng)
            d = np.linalg.det(pr.tau(v).matrix)
            prod = (iv.phi(v, 2) * iv.phi(v, 3) * iv.phi(v, 4)
                    * iv.phi(v, 5) * iv.psi10(v))
            assert abs(d - prod) < 1e-8 * abs(prod)

    def test_determinant_sign_flips_under_odd_element(self):
        rng = _rng(3)
        v = pr.random_regular_point(rng)
        T = gp.element((1, 0, 2, 3, 4))
        d1 = np.linalg.det(pr.tau(v).matrix)
        d2 = np.linalg.det(pr.tau(T.matrix @ v).matrix)
        assert abs(d2 + d1) < 1e-9 * abs(d1)


class TestParamPolys:
    def test_tK_is_det_TK(self):
        rng = _rng(4)
        for _ in range(100):
            K = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pp = pr.build_param_polys(K)
            assert abs(pp.tK - np.linalg.det(pp.TK)) < 1e-10 * abs(pp.tK)

    @pytest.mark.parametrize("form", [tb.phi2k_form, tb.phi3k_tensor,
                                      tb.gammak_form])
    def test_forms_equal_their_index_transposes(self, form):
        rng = _rng(8)
        for _ in range(50):
            t = form(*(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
            for axes in itertools.permutations(range(t.ndim)):
                assert np.array_equal(t, t.transpose(axes))

    def test_degenerate_K_rejected(self):
        with pytest.raises(pr.DegenerateK):
            pr.build_param_polys((1.0, 0.0, 1.0))

    def _k_of(self, v):
        return iv.k_values(v)

    def test_coefficient_table_oracles(self):
        # every long coefficient table must reproduce the pullback of the
        # corresponding invariant through the coordinate change
        rng = _rng(5)
        for _ in range(20):
            v, w = _vw(rng)
            tv = pr.tau(v)
            pp = pr.build_param_polys(self._k_of(v))
            p2v = iv.phi(v, 2)
            img = tv.matrix @ w
            vg = invariant_values_grads(pp, w)
            for k, power in ((2, 6), (3, 9), (4, 12), (5, 15)):
                lhs = iv.phi(img, k)
                rhs = p2v ** power * vg[k].value
                assert abs(lhs - rhs) < 1e-7 * max(abs(lhs), abs(rhs)), k

    def test_gram_and_determinant_oracles(self):
        from quintic_flow.geometry import R4
        rng = _rng(6)
        for _ in range(20):
            v = pr.random_regular_point(rng)
            tv = pr.tau(v).matrix
            pp = pr.build_param_polys(self._k_of(v))
            p2 = iv.phi(v, 2)
            gram = R4 @ tv.T @ R4 @ tv
            assert np.abs(gram - p2 ** 6 * pp.TK).max() < 1e-7 * np.abs(gram).max()
            d2 = np.linalg.det(tv) ** 2
            assert abs(d2 - p2 ** 24 * pp.tK) < 1e-7 * abs(d2)

    def test_gradients_match_finite_differences(self):
        rng = _rng(7)
        for _ in range(10):
            K = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pp = pr.build_param_polys(K)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vg = invariant_values_grads(pp, w)
            h = 1e-6
            for k in (2, 3, 4, 5):
                for i in range(4):
                    e = np.zeros(4)
                    e[i] = h
                    num = (invariant_values_grads(pp, w + e)[k].value
                           - invariant_values_grads(pp, w - e)[k].value) / (2 * h)
                    assert abs(num - vg[k].gradient[i]) < 1e-5 * max(
                        1, abs(vg[k].gradient[i])), (k, i)

    def test_gradients_on_hessian_surface(self):
        # where det(6 C3 w) = 0 the hessian is singular; the degree-4/5
        # gradients must still match central differences there
        rng = _rng(19)
        for _ in range(5):
            K = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            pp = pr.build_param_polys(K)
            w0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            e = rng.standard_normal(4) + 1j * rng.standard_normal(4)

            def det_hessian(w):
                return np.linalg.det(6 * np.einsum("abc,c->ab", pp.C3, w))

            ts = np.arange(-2.0, 3.0)
            quartic = np.polyfit(ts, [det_hessian(w0 + t * e) for t in ts], 4)
            t = min(np.roots(quartic), key=abs)
            w = w0 + t * e
            top = np.abs(6 * np.einsum("abc,c->ab", pp.C3, w)).max()
            assert abs(det_hessian(w)) < 1e-10 * top ** 4

            vg = invariant_values_grads(pp, w)
            h = 1e-6
            for k in (4, 5):
                for i in range(4):
                    d = np.zeros(4)
                    d[i] = h
                    num = (invariant_values_grads(pp, w + d)[k].value
                           - invariant_values_grads(pp, w - d)[k].value) / (2 * h)
                    assert abs(num - vg[k].gradient[i]) < 1e-5 * max(
                        1, abs(vg[k].gradient[i])), (k, i)

    def test_phi4K_homogeneity(self):
        pp = pr.build_param_polys((0.3 + 0.1j, -1.2, 0.7 - 0.4j))
        w = _rng(8).standard_normal(4) + 1j * _rng(9).standard_normal(4)
        lam = 1.3 - 0.8j
        a = invariant_values_grads(pp, lam * w)[4].value
        b = lam ** 4 * invariant_values_grads(pp, w)[4].value
        assert abs(a - b) < 1e-9 * abs(b)


class TestPhiKMap:
    def test_conjugacy_oracle(self):
        rng = _rng(10)
        for _ in range(20):
            v, w = _vw(rng)
            tv = pr.tau(v)
            pp = pr.build_param_polys(iv.k_values(v))
            fk = pr.phiK_map(pp)
            lhs = eq.phi6(tv.matrix @ w)
            rhs = tv.matrix @ fk(w)
            assert chordal_distance(lhs, rhs) < 1e-7

    def test_conjugacy_sweep(self):
        # worst gap over 500 seeded K; the kernel that called det separately
        # for each pencil's value and gradient measured 6.4e-10 on this
        # sweep, and a rewrite of the step must stay within 10x of that
        rng = _rng(2027)
        worst = 0.0
        for _ in range(500):
            v, w = _vw(rng)
            tv = pr.tau(v)
            fk = pr.phiK_map(pr.build_param_polys(iv.k_values(v)))
            worst = max(worst, chordal_distance(tv.matrix @ fk(w),
                                                eq.phi6(tv.matrix @ w)))
        assert worst < 10 * 6.4e-10

    def test_fixes_conjugated_five_points(self):
        rng = _rng(11)
        v = pr.random_regular_point(rng)
        tv = pr.tau(v)
        pp = pr.build_param_polys(iv.k_values(v))
        fk = pr.phiK_map(pp)
        for w in pr.conjugated_five_points(tv):
            assert chordal_distance(fk(w), w) < 1e-8

    def test_degree_six_homogeneity(self):
        pp = pr.build_param_polys((0.4, -0.9 + 0.2j, 1.1j))
        fk = pr.phiK_map(pp)
        w = _rng(12).standard_normal(4) + 1j * _rng(13).standard_normal(4)
        lam = 0.7 + 0.5j
        a = np.asarray(fk(lam * w))
        b = lam ** 6 * np.asarray(fk(w))
        assert np.abs(a - b).max() < 1e-10 * np.abs(b).max()


class TestRootSelector:
    def test_alpha_normalization(self):
        u = pr.five_point_u(0)
        assert abs(iv.phi(u, 2) / pr.Q_values(u)[0] - 1 / 15) < 1e-12

    def test_Q_vanishing_pattern(self):
        u = pr.five_point_u(0)
        q = pr.Q_values(u)
        assert abs(q[0]) > 1
        assert np.abs(q[1:]).max() < 1e-10

    def test_scale_invariance(self):
        pp = pr.build_param_polys((0.2 - 0.3j, 1.4, -0.6 + 0.9j))
        w = _rng(14).standard_normal(4) + 1j * _rng(15).standard_normal(4)
        a = pr.root_selector_J(pp, w)
        b = pr.root_selector_J(pp, (2.3 - 1.1j) * w)
        assert abs(a - b) < 1e-10 * abs(a)

    def test_quadric_rejected(self):
        pp = pr.build_param_polys((0.2 - 0.3j, 1.4, -0.6 + 0.9j))
        # find w with vanishing parametrized degree-2 form
        rng = _rng(16)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = pr.phi2K(pp, e)
        b = (pr.phi2K(pp, w + e) - pr.phi2K(pp, w - e)) / 2
        c = pr.phi2K(pp, w)
        t = (-b + np.sqrt(b * b - 4 * a * c + 0j)) / (2 * a)
        with pytest.raises(pr.OnQuadricK):
            pr.root_selector_J(pp, w + t * e)

    def test_selector_returns_resolvent_roots(self):
        rng = _rng(17)
        for _ in range(20):
            v = pr.random_regular_point(rng)
            tv = pr.tau(v)
            K = iv.k_values(v)
            pp = pr.build_param_polys(K)
            S = pr.S_values(v)
            RK = resolvent_RK(K)
            scale = max(np.abs(S)) ** 5
            for ell, w in enumerate(pr.conjugated_five_points(tv)):
                J = pr.root_selector_J(pp, w)
                assert abs(J - S[ell]) < 1e-7 * max(1, abs(S[ell]))
                assert abs(np.polyval(RK, S[ell])) < 1e-8 * scale

    def test_gamma_factorization(self):
        rng = _rng(18)
        for _ in range(20):
            v, w = _vw(rng)
            tv = pr.tau(v)
            pp = pr.build_param_polys(iv.k_values(v))
            lhs = pr.gamma_v(tv, w)
            rhs = iv.phi(v, 2) ** 5 * iv.phi(v, 3) * pr.gammaK(pp, w)
            assert abs(lhs - rhs) < 1e-7 * abs(rhs)
