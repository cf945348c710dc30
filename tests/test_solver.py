import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quintic_flow import _kernels as kx
from quintic_flow import invariants as iv
from quintic_flow import params as pr
from quintic_flow import solver as sv
from quintic_flow._tables import phi2k_form

from _reference import coeffs, quintic_from_roots


class TestDepress:
    def test_no_quartic_term_passthrough(self):
        p = sv.Quintic((0, 1j, -2, 0.5, 3))
        q = sv.depress(p)
        assert q.shift == 0
        assert np.abs(np.array(q.b) - np.array(p.a[1:])).max() < 1e-14

    def test_known_factorization(self):
        p = quintic_from_roots([-2, -1, 0, 1, 2])
        q = sv.depress(p)
        assert np.abs(np.array(q.b) - np.array([-5, 0, 4, 0])).max() < 1e-12

    def test_roots_shift_consistency(self):
        roots = np.array([1.5, -0.3 + 2j, -0.3 - 2j, 4.0, -1.1])
        p = quintic_from_roots(roots)
        q = sv.depress(p)
        back = np.roots([1, 0] + list(q.b)) + q.shift
        for r in roots:
            assert np.abs(back - r).min() < 1e-8

    def test_matches_polynomial_composition(self):
        rng = np.random.default_rng(11)
        P = np.polynomial.Polynomial
        for _ in range(200):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            p = sv.Quintic(tuple(a))
            q = sv.depress(p)
            want = P(coeffs(p)[::-1])(P([-a[0] / 5, 1.0])).coef[::-1]
            assert abs(q.shift + a[0] / 5) < 1e-15
            assert np.abs(np.array(q.b) - want[2:]).max() < 1e-13 * np.abs(want).max()

    def test_overflowing_shift_raises_typed_error(self):
        with pytest.raises(sv.NonFiniteCoefficients):
            sv.depress(sv.Quintic((1e80, 0, 0, 0, 1)))
        assert not issubclass(sv.NonFiniteCoefficients, sv.DegenerateReduction)


class TestReduction:
    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q = sv.DepressedQuintic(tuple(b), 0j)
        try:
            K, lam = sv.reduce_to_K(q)
        except sv.DegenerateReduction:
            return
        # rebuild the coefficients: y = lam * s turns the resolvent into the
        # depressed quintic, so b_k = lam^k C_k with C_k the resolvent
        # coefficient of s^(5-k)
        C = sv.resolvent_RK(K)[1:]
        rebuilt = np.array([lam ** (k + 2) * c for k, c in enumerate(C[1:])])
        assert np.abs(rebuilt - b).max() < 1e-9 * max(1, np.abs(b).max())

    def test_degenerate_b3(self):
        with pytest.raises(sv.DegenerateReduction):
            sv.reduce_to_K(sv.DepressedQuintic((-5, 0, 4, 0), 0j))

    def test_degenerate_b2(self):
        with pytest.raises(sv.DegenerateReduction):
            sv.reduce_to_K(sv.DepressedQuintic((0, 1, 1, 1), 0j))

    @pytest.mark.parametrize("c", [0, 2, (1 + 1j) / 3])
    def test_five_fold_root_raises_degenerate_K(self, c):
        p = quintic_from_roots([c] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pr.DegenerateK):
                sv.reduce_to_K(sv.depress(p))
            with pytest.raises(pr.DegenerateK):
                sv.solve(p)

    def test_recovers_K_of_point(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            v = pr.random_regular_point(rng)
            K = np.array(iv.k_values(v))
            lam = 0.7 - 0.4j
            C = sv.resolvent_RK(tuple(K))[1:]
            b = tuple(lam ** (k + 2) * c for k, c in enumerate(C[1:]))
            K2, lam2 = sv.reduce_to_K(sv.DepressedQuintic(b, 0j))
            assert np.abs(np.array(K2) - K).max() < 1e-9 * np.abs(K).max()
            assert abs(lam2 - lam) < 1e-9


class TestResolvent:
    def test_cubic_coefficient(self):
        RK = sv.resolvent_RK((0.3, 1.0, -2.0))
        assert RK[2] == pytest.approx(-62.5)

    def test_no_quartic_term(self):
        RK = sv.resolvent_RK((1.1 - 0.2j, 0.8j, 2.5))
        assert RK[1] == 0

    def test_roots_are_S_values(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            v = pr.random_regular_point(rng)
            RK = sv.resolvent_RK(iv.k_values(v))
            S = pr.S_values(v)
            scale = np.abs(S).max() ** 5
            assert max(abs(np.polyval(RK, s)) for s in S) < 1e-8 * scale

    def test_K2_zero_rejected(self):
        with pytest.raises(pr.DegenerateK):
            sv.resolvent_RK((1.0, 0.0, 1.0))


class TestMobius:
    def test_identity_returns_input(self, monkeypatch):
        # a quintic whose reduction is defined is solved as given: no Moebius
        # map is drawn, and it is depressed and reduced once
        def no_map(p, rng):
            raise AssertionError("mobius_regularize called")

        depressed = []
        depress = sv.depress

        def watched(p):
            depressed.append(p)
            return depress(p)

        monkeypatch.setattr(sv, "mobius_regularize", no_map)
        monkeypatch.setattr(sv, "depress", watched)
        p = quintic_from_roots([1, 2, 3, 4, 6])
        rep = sv.solve(p, seed=0)
        assert depressed == [p]
        assert not rep.regularized

    def test_degenerate_quintic_regularizes(self):
        p = quintic_from_roots([-2, -1, 0, 1, 2])  # b3 = b5 = 0
        with pytest.raises(sv.DegenerateReduction):
            sv.reduce_to_K(sv.depress(p))
        q, mob = sv.mobius_regularize(p, np.random.default_rng(0))
        sv.reduce_to_K(sv.depress(q))  # must not raise

    def test_root_back_mapping(self):
        roots = np.array([-2, -1, 0, 1, 2], dtype=complex)
        p = quintic_from_roots(roots)
        q, mob = sv.mobius_regularize(p, np.random.default_rng(0))
        for r in np.roots(coeffs(q)):
            back = mob.inverse(complex(r))
            assert abs(p(back)) < 1e-8

    def test_apply_mobius_moves_roots(self):
        roots = np.array([1.0, 2.0, -1.5, 0.5j, -3.0 + 1j])
        p = quintic_from_roots(roots)
        m = sv.MobiusMap(np.array([[1, 1j], [0.3, 1]], dtype=complex))
        q = sv.apply_mobius(p, m)
        img = np.sort_complex((roots + 1j) / (0.3 * roots + 1))
        assert np.abs(np.sort_complex(np.roots(coeffs(q))) - img).max() < 1e-8

    def test_image_past_the_largest_double_raises_typed_error(self):
        # z -> 1 / (c z + 1) takes x^5 + 1e308 to an image whose leading
        # coefficient, about 1e308 (1.5 + 1.5i), has finite parts and a
        # modulus above the largest double
        c = -(1.5 + 1.5j) ** 0.2
        m = sv.MobiusMap(np.array([[0, 1], [c, 1]], dtype=complex))
        with pytest.raises(sv.RegularizationFailed, match="overflows"):
            sv.apply_mobius(sv.Quintic((0, 0, 0, 0, 1e308)), m)


class _StartRng:
    """Stands in for the generator so that a start is exactly w: its two
    draws are w's real and imaginary parts."""

    def __init__(self, w):
        self.draws = [w.real, w.imag]

    def standard_normal(self, n):
        return self.draws.pop(0) if self.draws else np.zeros(n)


def _watch_steps(monkeypatch):
    """Wrap params.phiK_map so that each phi_K step appends the chordal
    distance it moves its argument to a list; returns the unwrapped
    phiK_map and that list."""
    from quintic_flow.geometry import chordal_distance
    make = pr.phiK_map
    steps = []

    def watched(pp):
        fmap = make(pp)

        def step(w):
            out = fmap(w)
            steps.append(chordal_distance(out / np.abs(out).max(), w))
            return out
        return step

    monkeypatch.setattr(pr, "phiK_map", watched)
    return make, steps


class TestIteration:
    def _pp(self, seed):
        rng = np.random.default_rng(seed)
        v = pr.random_regular_point(rng)
        return v, pr.build_param_polys(iv.k_values(v))

    def test_converges_to_a_conjugated_five_point(self):
        from quintic_flow.geometry import chordal_distance
        v, pp = self._pp(31)
        tv = pr.tau(v)
        fixed = pr.conjugated_five_points(tv)
        hits = 0
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, iters = sv.iterate_phiK(pp, rng)
            if min(chordal_distance(w, f) for f in fixed) < 1e-6:
                hits += 1
        assert hits >= 19

    def test_fixed_point_start_returns_quickly(self):
        from quintic_flow.geometry import chordal_distance

        # drive the iteration from the exact fixed point by feeding its real
        # and imaginary parts as the two seeded draws
        class _PairRng:
            def __init__(self, w):
                self.calls = [w.real, w.imag]

            def standard_normal(self, n):
                return self.calls.pop(0) if self.calls else np.zeros(n)

        v, pp = self._pp(33)
        w0 = pr.conjugated_five_points(pr.tau(v))[0]
        w, iters = sv.iterate_phiK(pp, _PairRng(w0))
        assert iters <= 12
        assert chordal_distance(w, w0) < 1e-9

    def test_fixed_point_start_returns_within_one_step(self):
        # the first step from an exact five-point is already below 1e-4
        from quintic_flow.geometry import chordal_distance
        v, pp = self._pp(33)
        for w0 in pr.conjugated_five_points(pr.tau(v)):
            w, iters = sv.iterate_phiK(pp, _StartRng(w0))
            assert iters == 1
            assert chordal_distance(w, w0) < 1e-9

    @pytest.mark.parametrize("image", [
        [np.nan] * 4, [1, np.nan, 2, 0], [1, 2, 3, np.nan * 1j],
        [np.inf] * 4, [1, 0, -np.inf, 2], [1.5e308 + 1.5e308j, 0, 0, 0],
        [0] * 4, [1e-301, 0, 0, 0]],
        ids=["nan", "nan_after_number", "nan_last", "inf", "inf_inside",
             "modulus_past_max", "zeros", "below_zero_tol"])
    def test_step_that_overflows_or_vanishes_ends_the_start(self, monkeypatch,
                                                           image):
        # a step whose image has a NaN or an infinity anywhere, an entry
        # whose modulus passes the largest double, or vanishes, ends the
        # start at once, quietly
        image = np.array(image, dtype=complex)
        monkeypatch.setattr(pr, "phiK_map", lambda pp: lambda w: image.copy())
        _, pp = self._pp(31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sv.NoConvergence) as exc:
                sv.iterate_phiK(pp, _StartRng(np.array([1, 2j, -1, 0.5])))
        assert exc.value.steps == 1

    @pytest.mark.parametrize("ratio", [0.999, 1.001])
    def test_stop_rule_at_the_capture_radius(self, monkeypatch, ratio):
        # a map that moves every w by chordal distance d exactly: w + t J(w),
        # where J(w) = (-w2*, w1*, -w4*, w3*) is orthogonal to w with its
        # norm and t = d / sqrt(1 - d^2); just inside the capture radius a
        # start ends after one step, just outside it never ends (kx.CAPTURE
        # is the kernel's name for geometry's capture radius)
        d = ratio * kx.CAPTURE
        t = d / np.sqrt(1 - d * d)
        steps = []

        def shift(w):
            steps.append(1)
            return w + t * np.array([-w[1], w[0], -w[3], w[2]]).conj()

        monkeypatch.setattr(pr, "phiK_map", lambda pp: shift)
        _, pp = self._pp(31)
        if ratio < 1:
            assert sv.iterate_phiK(pp, np.random.default_rng(0))[1] == 1
        else:
            with pytest.raises(sv.NoConvergence) as exc:
                sv.iterate_phiK(pp, np.random.default_rng(0))
            assert exc.value.steps == len(steps) == sv.MAX_STEPS

    def test_returned_point_is_a_true_fixed_point(self, monkeypatch):
        # a start ends at its first step below 1e-4, and phi_K's order-4
        # convergence puts the point it returns on a fixed point.  The K are
        # kept to cond(T_K) < 100, where the roundoff floor of phi_K is at
        # most 1.3e-14 (over 68 such K); worse-conditioned K sit on floors
        # up to 1e-8.  The steps are recorded to check where each start ended.
        from quintic_flow.geometry import chordal_distance
        make, steps = _watch_steps(monkeypatch)
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 20:
            v = pr.random_regular_point(rng)
            pp = pr.build_param_polys(iv.k_values(v))
            if np.linalg.cond(pp.S2) >= 100:   # cond S_K = cond T_K
                continue
            steps.clear()
            w, iters = sv.iterate_phiK(pp, rng)
            assert len(steps) == iters
            assert steps[-1] < 1e-4
            assert all(d >= 1e-4 for d in steps[:-1])
            assert chordal_distance(make(pp)(w), w) < 1e-12
            checked += 1

    def test_solve_steps_through_phiK_map(self, monkeypatch):
        # the benchmark's tracer counts phi_K steps by wrapping
        # params.phiK_map, so solve must look the map up there at call time
        _, steps = _watch_steps(monkeypatch)
        rep = sv.solve(quintic_from_roots([1, 2, 3, 4, 6]), seed=0)
        assert rep.restarts == 0
        assert len(steps) == rep.iterations > 0

    def test_start_on_the_quadric_restarts(self, monkeypatch):
        # the selector holds the only quadric test: a start that ends where
        # it is undefined counts as a failed start, and the next one solves
        select = pr.root_selector_J
        calls = []

        def on_quadric_once(pp, w):
            calls.append(w)
            if len(calls) == 1:
                raise pr.OnQuadricK("forced")
            return select(pp, w)

        monkeypatch.setattr(pr, "root_selector_J", on_quadric_once)
        p = quintic_from_roots([1, 2, 3, 4, 6])
        rep = sv.solve(p, seed=0)
        assert len(calls) == 2 and rep.restarts == 1
        assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10


class TestSolve:
    def test_known_integer_roots(self):
        p = quintic_from_roots([1, 2, 3, 4, 6])
        rep = sv.solve(p, seed=0)
        got = np.sort_complex(np.array(rep.roots))
        want = np.sort_complex(np.array([1, 2, 3, 4, 6], dtype=complex))
        assert np.abs(got - want).max() < 1e-6
        assert max(rep.residuals) < 1e-8

    def test_degenerate_regularization_path(self):
        p = quintic_from_roots([-2, -1, 0, 1, 2])
        rep = sv.solve(p, seed=0)
        assert rep.regularized
        got = np.sort_complex(np.array(rep.roots))
        want = np.sort_complex(np.array([-2, -1, 0, 1, 2], dtype=complex))
        assert np.abs(got - want).max() < 1e-6

    def test_raw_selected_root_satisfies_resolvent(self):
        p = quintic_from_roots([1, 2, 3, 4, 6])
        rep = sv.solve(p, seed=3)
        K, lam = sv.reduce_to_K(sv.depress(p))
        RK = sv.resolvent_RK(K)
        s = rep.selected_root_raw
        assert abs(np.polyval(RK, s)) / max(1, abs(s) ** 5) < 1e-6

    def test_determinism(self):
        p = sv.Quintic((0.1, -0.7j, 0.3, 1.2 - 0.5j, -0.9))
        r1 = sv.solve(p, seed=42)
        r2 = sv.solve(p, seed=42)
        assert r1.roots == r2.roots
        assert r1.iterations == r2.iterations

    def test_random_batch(self):
        rng = np.random.default_rng(7)
        ok = 0
        for i in range(25):
            a = rng.uniform(-1, 1, 10).reshape(5, 2)
            p = sv.Quintic(tuple(complex(re, im) for re, im in a))
            rep = sv.solve(p, seed=i)
            if max(rep.residuals) < 1e-8:
                ok += 1
        assert ok >= 24


def _backward_error(p, x):
    return abs(p(x)) / np.polyval(np.abs(coeffs(p)), abs(x))


# Inputs whose phi_K iterate, once captured, sits on a roundoff floor far
# above 1e-13: near 1e-8 for near_pair and 1e-9 for small_roots, whose T_K
# have condition numbers 1.5e5 and 5.9e4.  The reduction of the other two is
# undefined, so they solve on a Moebius candidate.
STALLING = {
    "near_pair": ((-0.8698543854772296 + 0.6894751122560977j,
                   0.2781805115775234 - 0.06752581752284374j,
                   -0.31795268708815866 - 0.34750848393710393j,
                   0.05945622201148135 + 0.2483200690923784j,
                   0.009891517857897105 - 0.03363422690263512j), 618479451),
    "small_roots": ((0.007486764046652292 + 9.344440859778043e-05j,
                     2.3526794409079227e-05 + 1.8245197254255463e-06j,
                     3.987856394980456e-08 + 9.881716040407625e-09j,
                     3.719837862084178e-11 + 2.075513677541061e-11j,
                     1.513858369694596e-14 + 1.5215835806340554e-14j),
                    1342171047),
    "bring_jerrard": ((0, 0, 0, 0.3379492278353382 - 1.0514381235519172j,
                       1.4600865524979532 + 1.1596826212717684j), 1399182363),
    "x5_minus_x_minus_1": ((0, 0, 0, -1, -1), 0),
}

# Large-root inputs whose roots the old absolute gate |p(x)| < 1e-9 rejected
# (|p| from 5e-8 to 6e-3) although their backward error is about 1e-17.
LARGE_ROOTS = {
    "roots_4e1": ((-8.054019391455693 + 107.19899886474659j,
                   -4716.743105559075 + 426.8361341474956j,
                   -51782.81148376606 - 126578.51898362557j,
                   2056275.229517187 - 4261214.076009186j,
                   148358182.00965652 - 23476552.96532654j), 1334229188),
    "roots_4e2": ((-20.45365817434748 + 223.60407961528114j,
                   -137147.23861075102 + 282919.73513198935j,
                   -32045152.750507787 - 38606996.86578953j,
                   -579460942.8523102 - 31505138924.420334j,
                   220089748595.95996 + 11545823830119.832j), 1082291521),
    "roots_3e2": ((152.59951210071642 + 106.62764628075058j,
                   56702.10858621207 + 81566.14193620314j,
                   12113337.433225982 - 27263249.80929004j,
                   12444741775.361427 - 3541314232.31322j,
                   -3321566853139.9604 + 2744527044444.731j), 777664765),
}


class TestStallAndScale:
    @pytest.mark.parametrize("name", sorted(STALLING))
    def test_stalling_input_solves_on_first_start(self, name):
        a, seed = STALLING[name]
        p = sv.Quintic(a)
        rep = sv.solve(p, seed=seed)
        assert rep.restarts == 0
        assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10

    @pytest.mark.parametrize("name", ["near_pair", "small_roots"])
    def test_iteration_stops_at_roundoff_floor(self, name):
        # the first start ends once capture brings a step below 1e-4, not
        # after further steps on the floor; iterate_phiK raises otherwise
        a, seed = STALLING[name]
        K, _ = sv.reduce_to_K(sv.depress(sv.Quintic(a)))
        pp = pr.build_param_polys(K)
        w, iters = sv.iterate_phiK(pp, np.random.default_rng(seed))
        assert iters <= 8

    @pytest.mark.parametrize("name", sorted(LARGE_ROOTS))
    def test_large_roots_accepted(self, name):
        a, seed = LARGE_ROOTS[name]
        p = sv.Quintic(a)
        rep = sv.solve(p, seed=seed)
        assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10

    def test_root_scale_sweep(self):
        rng = np.random.default_rng(2026)
        failed = []
        for i in range(300):
            scale = 10.0 ** rng.uniform(-4, 4)
            roots = scale * (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5))
            p = quintic_from_roots(roots)
            try:
                rep = sv.solve(p, seed=i)
            except sv.NoConvergence:
                failed.append(i)
                continue
            if max(_backward_error(p, x) for x in rep.roots) > 1e-10:
                failed.append(i)
        assert failed == []

    def test_near_pair_separation_sweep(self):
        # four random roots and a fifth 1e-3 from the first; the phi_K step
        # that called LAPACK's det per row-replaced matrix failed 13 of these
        # 300, and every root the solver returns must pass the gate
        rng = np.random.default_rng(777)
        failed = []
        for i in range(300):
            r = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            theta = rng.uniform(0, 2 * np.pi)
            p = quintic_from_roots(np.append(r, r[0] + 1e-3 * np.exp(1j * theta)))
            try:
                rep = sv.solve(p, seed=i)
            except (sv.NoConvergence, pr.DegenerateK):
                failed.append(i)
                continue
            assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10, i
        assert len(failed) <= 13, failed

    def test_non_finite_input_raises_typed_error(self):
        with pytest.raises(sv.NonFiniteCoefficients):
            sv.solve(sv.Quintic((float("nan"), 0, 0, 0, 1)))

    def test_overflowing_phiK_step_is_quiet(self):
        # input 128 of the near-reduction band: b2..b5 are default_rng(5)
        # complex normals with b2 replaced by 1e-8 e^(i theta).  A phi_K step
        # of one start overflows, which ends that start without a warning
        rng = np.random.default_rng(5)
        for _ in range(129):
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            b[0] = 1e-8 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        p = sv.Quintic((0, *b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = sv.solve(p, seed=128)
        assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10

    def test_overflowing_moebius_image_skips_the_candidate(self):
        # x^5 + 1e308 is finite; only a random Moebius image of it overflows,
        # so solve must solve or raise a typed solve error, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sv.solve(sv.Quintic((0, 0, 0, 0, 1e308)))
            except (sv.NoConvergence, sv.RegularizationFailed, pr.DegenerateK):
                pass


# The first three v drawn by pr.random_regular_point from default_rng(5) with
# cond(T_K) > 1e7 (draws 2794, 6598 and 7008).  Every start of phi_K for the
# quintic whose roots are S_values(v) stalls on a roundoff floor near 1e-3.
ILL_CONDITIONED_V = [
    (0.9602519985910768 + 0.7035079501133229j, 1.1946234553260064 + 0.6874289972055758j,
     1.1997151373532593 + 0.6002753016954632j, 1.3413188373754252 + 0.683324622572277j),
    (-1.953365585881113 + 0.34640822573477587j, -1.1040409945105396 - 1.4629092299172524j,
     1.500418532419698 - 1.4299823098370203j, 1.1563672903545177 + 0.6107665358242844j),
    (1.819556362592716 - 0.4380033240866508j, -0.7786587880826418 - 1.6112928410793248j,
     -2.3257204664337374 + 0.3419541855945237j, -0.11404054665482684 + 1.0892962951504848j),
]

NEAR_PAIR_19 = (
    -0.34100929707205596 - 1.8843321265063981j,
    -0.6927951722497908 + 0.29957258094638417j,
    -0.42738623667455256 - 0.14650296928185494j,
    0.2538593967985685 + 0.5278254515749861j,
    0.13400462234679864 - 0.20668082058807746j,
)


class TestCandidates:
    @pytest.mark.parametrize("i", range(len(ILL_CONDITIONED_V)))
    def test_ill_conditioned_K_solves_on_a_moebius_candidate(self, i):
        v = np.array(ILL_CONDITIONED_V[i])
        assert np.linalg.cond(phi2k_form(*iv.k_values(v))) > 1e7   # cond T_K
        p = quintic_from_roots(pr.S_values(v))
        for seed in range(4):
            rep = sv.solve(p, seed=seed)
            assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10

    def test_non_converging_map_fails_within_budget(self, monkeypatch):
        # a diagonal rotation moves every start by the same chordal step
        # forever, so every candidate runs its full MAX_STEPS
        steps = []
        rotation = np.exp(1j * np.arange(4))

        def rotate(w):
            steps.append(1)
            return rotation * w

        monkeypatch.setattr(pr, "phiK_map", lambda pp: rotate)
        with pytest.raises(sv.NoConvergence):
            sv.solve(quintic_from_roots([1, 2, 3, 4, 6]), seed=0)
        assert 0 < len(steps) <= sv.CANDIDATES * sv.MAX_STEPS

    def test_failed_start_moves_to_a_moebius_candidate(self, monkeypatch):
        iterate = sv.iterate_phiK
        calls = []

        def fail_first(pp, rng):
            calls.append(pp)
            if len(calls) == 1:
                raise sv.NoConvergence("forced", 3)
            return iterate(pp, rng)

        monkeypatch.setattr(sv, "iterate_phiK", fail_first)
        p = quintic_from_roots([1, 2, 3, 4, 6])
        rep = sv.solve(p, seed=0)
        assert len(calls) == 2
        assert rep.regularized and rep.restarts == 1
        assert rep.iterations > 3
        assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10

    def test_singular_K_on_a_moebius_candidate_is_skipped(self, monkeypatch):
        # input 19 of the benchmark's near_pair stream (one root pair 1e-3..1
        # apart), with its solve seed: the identity start fails, and a
        # Moebius candidate's parameter matrix is singular
        build = pr.build_param_polys
        singular = []

        def watched(K):
            try:
                return build(K)
            except pr.DegenerateK:
                singular.append(K)
                raise

        monkeypatch.setattr(pr, "build_param_polys", watched)
        p = sv.Quintic(NEAR_PAIR_19)
        rep = sv.solve(p, seed=1515633368)
        assert singular
        assert rep.regularized and rep.restarts == 1
        assert max(_backward_error(p, x) for x in rep.roots) <= 1e-10

    def test_singular_K_on_the_identity_candidate_raises(self, monkeypatch):
        calls = []

        def singular(K):
            calls.append(K)
            raise pr.DegenerateK("forced")

        monkeypatch.setattr(pr, "build_param_polys", singular)
        with pytest.raises(pr.DegenerateK):
            sv.solve(quintic_from_roots([1, 2, 3, 4, 6]), seed=0)
        assert len(calls) == 1

    def test_step_budget_covers_well_conditioned_starts(self):
        # the evidence behind MAX_STEPS: one start for each of 500 seeded K
        # with cond(T_K) < 1e4 converges in at most half the budget (the
        # largest count seen is 7)
        rng = np.random.default_rng(0)
        worst = checked = 0
        while checked < 500:
            pp = pr.build_param_polys(iv.k_values(pr.random_regular_point(rng)))
            if np.linalg.cond(pp.S2) >= 1e4:   # cond S_K = cond T_K
                continue
            worst = max(worst, sv.iterate_phiK(pp, rng)[1])
            checked += 1
        assert worst <= sv.MAX_STEPS // 2


class TestJson:
    def test_round_trip(self):
        text = json.dumps({"coefficients": [[0, 0], [1, 0], [0, 2],
                                            [-1, 0], [0, -3]]})
        p = sv.quintic_from_json(text)
        assert p.a == (0, 1, 2j, -1, -3j)

    def test_report_serializes(self):
        p = quintic_from_roots([1, 2, 3, 4, 6])
        rep = sv.solve(p, seed=0)
        data = json.loads(sv.report_to_json(rep))
        assert len(data["roots"]) == 5
        assert all(len(r) == 2 for r in data["roots"])
        assert data["regularized"] is False
        assert "\n" not in sv.report_to_json(rep)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            sv.quintic_from_json(json.dumps({"coefficients": [[1, 0]]}))

    @pytest.mark.parametrize("text", [
        '{"coefficients": [[1%s,0],[0,0],[0,0],[0,0],[1,0]]}' % ("0" * 400),
        "[" * 100_000,
    ], ids=["integer_too_large_for_a_double", "nested_too_deep"])
    def test_unreadable_json_raises_value_error(self, text):
        with pytest.raises(ValueError):
            sv.quintic_from_json(text)
