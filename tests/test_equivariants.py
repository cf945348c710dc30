import numpy as np
import pytest

from _reference import g11_on_quadric, grad_rev_phi, phi2_explicit
from quintic_flow import equivariants as eq
from quintic_flow import group as gp
from quintic_flow import invariants as iv
from quintic_flow import orbits as ob
from quintic_flow.geometry import (HCT, INF, chordal_distance, line_chart,
                                   chart_eval, chart_invert,
                                   projectively_equal, u_to_x, x_to_u)

SQ21 = np.sqrt(21.0)


def _u(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(4) + 1j * rng.standard_normal(4)


def _x(seed):
    x = np.append(_u(seed), 0)
    return x - x.mean()


class TestGeneratingMaps:
    def test_f1_is_identity_projectively(self):
        x = _x(0)
        assert projectively_equal(eq.f_basic(x, 1), x)

    def test_five_point_is_fixed(self):
        x = np.array([-4, 1, 1, 1, 1], dtype=complex)
        for k in (2, 3, 4):
            assert projectively_equal(eq.f_basic(x, k), x)

    def test_phi2_display_value(self):
        img = eq.phi_basic(np.array([1, 0, 0, 0], dtype=complex), 2)
        assert projectively_equal(img, np.array([0, 1, 0, 0], dtype=complex))

    def test_phi1_is_identity(self):
        u = _u(1)
        assert projectively_equal(eq.phi_basic(u, 1), u)

    def test_cross_coordinate_oracle(self):
        from quintic_flow.geometry import H
        for seed in range(100):
            u = _u(seed)
            for k in (1, 2, 3, 4):
                a = eq.phi_basic(u, k)
                b = H @ eq.f_basic(HCT @ u, k)
                assert np.abs(a - b).max() < 1e-11 * max(1, np.abs(a).max())

    def test_gradient_proportionality(self):
        # phi_basic(u, k) = -(5/(k+1)) * reversed gradient of the (k+1)
        # invariant
        u = _u(2)
        for k in (1, 2, 3, 4):
            a = eq.phi_basic(u, k)
            b = -(5.0 / (k + 1)) * grad_rev_phi(u, k + 1)
            assert np.abs(a - b).max() < 1e-11 * np.abs(a).max()


class TestPhi6:
    def test_matches_explicit_form(self):
        for seed in range(1000):
            u = _u(seed)
            a = eq.phi6(u)
            b = eq.phi6_explicit(u)
            assert np.abs(a - b).max() < 1e-10 * np.abs(a).max()

    def test_fixes_five_points(self):
        for i in range(1, 6):
            u = ob.point(f"p5_{i}").u
            assert projectively_equal(eq.phi6(u), u, tol=1e-9)

    def test_degree_six_homogeneity(self):
        u = _u(7)
        lam = 0.8 - 1.3j
        assert np.abs(eq.phi6(lam * u) - lam ** 6 * eq.phi6(u)).max() < 1e-8

    def test_indeterminacy_raises(self):
        with pytest.raises(eq.Indeterminate):
            eq.phi6(np.zeros(4))

    def test_maps_m15_line_onto_l15_line(self):
        # the mirror line through [t,t,s,s,-2t-2s] maps onto the line through
        # [t,t,-t,-t,0]-type points; check images satisfy its two linear
        # conditions x1=x2, x3=x4
        rng = np.random.default_rng(3)
        for _ in range(20):
            t, s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x = np.array([t, t, s, s, -2 * t - 2 * s])
            y = eq.f6(x)
            scale = np.abs(y).max()
            assert abs(y[0] - y[1]) < 1e-9 * scale
            assert abs(y[2] - y[3]) < 1e-9 * scale


class TestH11:
    def test_blows_up_five_point(self):
        x = np.array([-4, 1, 1, 1, 1], dtype=complex)
        img = eq.h11(x)
        assert np.abs(img).max() / np.linalg.norm(x) ** 11 < 1e-10

    def test_preserves_quadric(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = _quadric_point(rng)
            img = eq.h11(HCT @ u)
            v = np.array(u_to_x(np.zeros(4)))  # noqa: F841 keep x form local
            p2 = iv.power_sum(img, 2)
            assert abs(p2) < 1e-8 * np.abs(img).max() ** 2

    def test_quadric_is_critical(self):
        from _dual import jacobian
        rng = np.random.default_rng(13)
        for _ in range(10):
            u = _quadric_point(rng)
            J = jacobian(lambda w: eq.h11(HCT @ w), u)
            s = np.linalg.svd(J, compute_uv=False)
            assert s[-1] / s[0] < 1e-6


def _quadric_point(rng):
    # solve phi2 = 0 along a random line through a random point
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    e = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = phi2_explicit(e)
    b = (phi2_explicit(u + e) - phi2_explicit(u - e)) / 2
    c = phi2_explicit(u)
    t = (-b + np.sqrt(b * b - 4 * a * c + 0j)) / (2 * a)
    q = u + t * e
    assert abs(iv.phi(q, 2)) < 1e-9 * np.linalg.norm(q) ** 2
    return q


class TestG11:
    def test_maps_quadric_to_quadric(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = HCT @ _quadric_point(rng)
            img = eq.g11(x)
            assert abs(iv.power_sum(img, 2)) < 1e-9 * np.abs(img).max() ** 2

    def test_ruling_action_is_dodecahedral_map(self):
        # the kernel read-off orders the homogeneous ruling pair in reverse,
        # so the dodecahedral action shows up in the reciprocal coordinate
        dd = eq.restricted_map("dodeca11")
        rng = np.random.default_rng(23)
        for _ in range(30):
            u = _quadric_point(rng)
            v = x_to_u(eq.g11(HCT @ u))
            for fam in (0, 1):
                c = eq.ruling_coords(u)[fam]
                c2 = eq.ruling_coords(v)[fam]
                n, d = dd.pair(c[1], c[0])
                assert abs(n * c2[0] - d * c2[1]) < 1e-7 * max(
                    abs(n * c2[0]), abs(d * c2[1]), 1e-30)

    def test_unknown_alpha_slot_rejected(self):
        with pytest.raises(ValueError):
            eq.g11(_x(1), alphas={4: 1.0})


class TestOctahedralQuadricMap:
    """The degree-11 octahedral family collapses on the quadric to a single
    degree-5 map; its published chart forms are checked against that map."""

    def test_preserves_quadric(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            x = HCT @ _quadric_point(rng)
            img = g11_on_quadric(x)
            assert abs(iv.power_sum(img, 2)) < 1e-10 * np.abs(img).max() ** 2

    def test_matches_affine_chart_form_up_to_sign(self):
        # the published affine pair is the decayed map with both output
        # coordinates negated (the chart convention differs by a sign; the
        # negated form is the equivariant one)
        rng = np.random.default_rng(47)
        for _ in range(25):
            x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u = np.array([1, x, y, -x * y], dtype=complex)
            v = x_to_u(g11_on_quadric(HCT @ u))
            v = v / v[0]
            gx, gy = eq.g11_affine(x, y)
            assert abs(v[1] + gx) < 1e-9 * max(1, abs(gx))
            assert abs(v[2] + gy) < 1e-9 * max(1, abs(gy))

    def test_conic_restriction_conjugate_to_published_map(self):
        # restricted to the conic cut out by a mirror plane, the map is a
        # scaled conjugate (z -> cz) of the registered degree-5 conic map,
        # again up to the overall sign of the published form
        q1 = ob.point("q20_12_1").x
        q2 = ob.point("q20_12_2").x
        r = np.array([1, 1, -2, 0, 0], dtype=complex)
        polar = lambda a, b: (a * b).sum()

        def conic_point(t):
            d = q2 + t * r
            return q1 + (-2 * polar(q1, d) / polar(d, d)) * d

        def za(x):
            a, _ = eq.ruling_coords(x_to_u(x))
            return a[1] / a[0]

        za1, za2 = za(q1), za(q2)
        chart = lambda x: (za(x) - za1) / (za(x) - za2)

        m = eq.restricted_map("g11_conic10")
        rng = np.random.default_rng(53)
        pairs = []
        for t in rng.standard_normal(20) + 1j * rng.standard_normal(20):
            p = conic_point(t)
            assert abs(polar(p, p)) < 1e-10 * np.abs(p).max() ** 2
            pairs.append((chart(p), chart(g11_on_quadric(p))))

        # pin the residual scale freedom with the first sample
        z0, w0 = pairs[0]
        c = 1.0 + 0.1j
        res = lambda c: -m(c * z0) / c - w0
        for _ in range(200):
            f = res(c)
            c -= f / ((res(c + 1e-7) - f) / 1e-7)
            if abs(f) < 1e-13:
                break
        assert abs(res(c)) < 1e-10
        for z, w in pairs[1:]:
            assert abs(-m(c * z) / c - w) < 1e-8 * max(1, abs(w))


class TestRulingCoords:
    def test_rank_one_kernel_readoff(self):
        a, b = eq.ruling_coords(np.array([1, 0, 0, 0], dtype=complex))
        assert projectively_equal(a, np.array([0, 1], dtype=complex))
        assert projectively_equal(b, np.array([0, 1], dtype=complex))

    def test_kernel_equations(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            u = _quadric_point(rng)
            a, b = eq.ruling_coords(u)
            u1, u2, u3, u4 = u / np.abs(u).max()
            U = np.array([[u1, -u2], [u3, u4]])
            assert np.abs(a @ U).max() < 1e-10
            assert np.abs(U @ b).max() < 1e-10

    def test_odd_element_swaps_rulings(self):
        T = gp.element((1, 0, 2, 3, 4))
        assert T.sign == -1
        rng = np.random.default_rng(31)
        for _ in range(20):
            u = _quadric_point(rng)
            a, b = eq.ruling_coords(u)
            a2, b2 = eq.ruling_coords(T.matrix @ u)
            # an odd element carries the a-family to the b-family, so the new
            # b-coordinate is a Mobius image of the old a-coordinate; verify
            # the swap by checking the new pair is NOT the (projective) image
            # of the old pair under any single-family rule: a second odd
            # element composed with T must restore family labels
            u3 = T.matrix @ (T.matrix @ u)
            a3, b3 = eq.ruling_coords(u3)
            assert projectively_equal(a3, a)
            assert projectively_equal(b3, b)

    def test_off_quadric_raises(self):
        with pytest.raises(eq.NotOnQuadric):
            eq.ruling_coords(np.array([1, 2, 3, 4], dtype=complex))


class TestRestrictedMaps:
    def test_unknown_name(self):
        with pytest.raises(eq.UnknownName):
            eq.restricted_map("nope")

    def test_registry_lists_names(self):
        names = eq.restricted_map_names()
        assert "power4" in names and "dodeca11" in names

    def test_power4(self):
        m = eq.restricted_map("power4")
        assert m(2.0) == pytest.approx(16.0)

    def test_inverse_square_exchanges_zero_and_infinity(self):
        m = eq.restricted_map("inverse_square")
        assert m(0) == INF
        n, d = m.pair(1.0, 0.0)  # infinity in pair form
        assert d != 0 and n / d == 0

    def test_h11_line15_exchanges_zero_and_infinity(self):
        m = eq.restricted_map("h11_line15")
        assert m(0) == INF
        n, d = m.pair(1.0, 0.0)
        assert n / d == 0

    def test_f6_line15_critical_points(self):
        m = eq.restricted_map("f6_line15")
        crits = [0.0, 1.0, -1.0]
        for sign in (1, -1):
            r = np.sqrt((9 + sign * 4 * SQ21) / 17 + 0j)
            crits += [r, -r]
        for c in crits:
            h = 1e-6
            d = (m(c + h) - m(c - h)) / (2 * h)
            assert abs(d) < 1e-4 * max(1, abs(m(c)))

    def test_dodeca11_fixes_pole(self):
        dd = eq.restricted_map("dodeca11")
        n, d = dd.pair(1.0, 0.0)
        # [-1, 0] is projectively [1, 0]
        assert d == 0 and n == -1

    def test_octahedral5_cube_vertices_are_superattracting_period2(self):
        m = eq.restricted_map("octahedral5")
        inner = (7 - 4 * np.sqrt(3.0)) ** 0.25
        for k in range(4):
            v = inner * np.exp(1j * (np.pi / 4 + k * np.pi / 2))
            w = m(v)
            assert abs(w - (-(2 + np.sqrt(3.0)) * v)) < 1e-12
            assert abs(m(w) - v) < 1e-10
            h = 1e-6
            d = (m(v + h) - m(v - h)) / (2 * h)
            assert abs(d) < 1e-4

    def test_g11_affine_is_rational_pair(self):
        x2, y2 = eq.g11_affine(0.3 + 0.1j, -0.2 + 0.5j)
        assert np.isfinite(x2) and np.isfinite(y2)


class TestEquivarianceSweep:
    @pytest.mark.parametrize("mapper", [
        lambda x: eq.f_basic(x, 2),
        lambda x: eq.f_basic(x, 3),
        eq.f6,
        eq.h11,
        lambda x: eq.g11(x, alphas={1: 0.3 - 0.2j, 13: 1.1j}),
    ])
    def test_commutes_with_sample_elements(self, mapper):
        rng = np.random.default_rng(41)
        perms = [tuple(rng.permutation(5)) for _ in range(10)]
        for p in perms:
            for _ in range(3):
                x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                x -= x.mean()
                px = x.copy()
                moved = np.empty(5, dtype=complex)
                for i in range(5):
                    moved[p[i]] = px[i]
                fx = np.asarray(mapper(x))
                fmoved = np.empty(5, dtype=complex)
                for i in range(5):
                    fmoved[p[i]] = fx[i]
                assert chordal_distance(x_to_u(np.asarray(mapper(moved))),
                                        x_to_u(fmoved)) < 1e-8
