"""End-to-end acceptance gate.

One test per headline guarantee: group data, invariant identities,
equivariance, restricted-map conformance, parametrized-family oracles, the
root selector, end-to-end solving, convergence statistics of the parametrized
iteration, and the two flagship basin portraits.
"""
import time

import numpy as np

from quintic_flow import basins as bs
from quintic_flow import group as gp
from quintic_flow import invariants as iv
from quintic_flow import orbits as ob
from quintic_flow import params as pr
from quintic_flow import solver as sv
from quintic_flow import verify as vf
from quintic_flow.equivariants import f6, restricted_map
from quintic_flow.geometry import chordal_distance

from _reference import quintic_from_roots, stabilizer_order


def _check(fn, *args):
    ok, detail = fn(*args)
    assert ok, detail


def test_1_group_and_orbit_tables():
    t0 = time.time()
    _check(vf.check_group_order)
    _check(vf.check_group_unitary)
    _check(vf.check_group_homomorphism)
    _check(vf.check_orbit_sizes)
    cases = [("p5_1", 5, 24), ("p10_12_1", 10, 12), ("p15_1_23", 15, 8),
             ("p20_1_234", 20, 6), ("p30_12_34", 30, 4), ("q20_12_1", 20, 6),
             ("q24", 24, 5), ("q30_1_24_1", 30, 4), ("q60_1_23_1", 60, 2)]
    for desc, size, stab in cases:
        p = ob.point(desc)
        assert (p.orbit_size, 120 // p.orbit_size) == (size, stab), desc
        assert len(gp.orbit(p.u)) == size, desc
        assert stabilizer_order(p.u) == stab, desc
    assert time.time() - t0 < 5.0


def test_2_invariant_determinant_identities():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for k, direct in ((4, iv.phi4_from_G4), (5, iv.phi5_from_G5)):
            a = iv.phi(u, k)
            b = direct(u)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    assert worst < 1e-9


def test_3_equivariance_under_all_120_elements():
    _check(vf.check_equivariance_phi6)
    _check(vf.check_equivariance_h11)
    _check(vf.check_equivariance_g11)


def test_4_restricted_map_conformance():
    _check(vf.check_restriction, "f6_mirror_10_line")
    _check(vf.check_restriction, "f6_15_line")
    _check(vf.check_restriction, "h11_10_line")


def test_5_parametrized_family_oracles():
    t0 = time.time()
    _check(vf.check_param_oracles)
    assert time.time() - t0 < 30.0


def test_6_root_selector_identity():
    _check(vf.check_root_selector)


def test_7_end_to_end_solve():
    p = quintic_from_roots([1, 2, 3, 4, 6])
    rep = sv.solve(p, seed=0)
    got = np.array(rep.roots)
    for want in (1, 2, 3, 4, 6):
        assert np.abs(got - want).min() < 1e-6
    assert max(rep.residuals) < 1e-8

    rng = np.random.default_rng(77)
    times = []
    ok = 0
    for i in range(100):
        a = rng.uniform(-1, 1, 10).reshape(5, 2)
        coeffs = []
        for re, im in a:
            z = complex(re, im)
            coeffs.append(z if abs(z) <= 1 else z / abs(z))
        q = sv.Quintic(tuple(coeffs))
        t1 = time.time()
        try:
            r = sv.solve(q, seed=i)
            if max(r.residuals) < 1e-8:
                ok += 1
        except sv.NoConvergence:
            pass
        times.append(time.time() - t1)
    assert ok >= 95
    assert np.median(times) < 1.0


def test_8_iteration_convergence_statistics():
    rng = np.random.default_rng(2026)
    total = conv = 0
    hit = set()
    for _ in range(10):
        v = pr.random_regular_point(rng)
        tv = pr.tau(v)
        fk = pr.phiK_map(pr.build_param_polys(iv.k_values(v)))
        fixed = pr.conjugated_five_points(tv).T   # (4, 5)
        for _ in range(100):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for _ in range(500):
                w2 = np.asarray(fk(w))
                top = np.abs(w2).max()
                if not (top > 0 and np.isfinite(top)):
                    break
                w = w2 / top
                ds = chordal_distance(w[:, None], fixed)
                m = int(np.argmin(ds))
                if ds[m] < 1e-6:
                    conv += 1
                    hit.add(m)
                    break
            total += 1
    assert conv / total >= 0.95
    assert hit == {0, 1, 2, 3, 4}


class TestPortraits:
    def test_9a_conic_portrait(self):
        grid = bs.GridSpec(0j, 4.0, 4.0, (720, 720))
        t0 = time.time()
        p = bs.render_1d(restricted_map("g11_conic10"), grid,
                         bs.conic_pair_attractors(), max_iter=60)
        elapsed = time.time() - t0
        stats = bs.attractor_statistics(p)
        assert stats["black_fraction"] < 0.05
        assert stats["fractions"]["pair_0_inf"] >= 0.99
        # the map commutes with 120-degree rotation, fixing the single basin
        w = np.exp(2j * np.pi / 3)
        rot = lambda x, y: ((w * (x + 1j * y)).real, (w * (x + 1j * y)).imag)
        assert bs.symmetry_fraction(p, rot, {0: 0}) >= 0.98
        assert elapsed < 60.0

    def test_9b_octahedral_portrait(self):
        grid = bs.GridSpec(0j, 4.0, 4.0, (720, 720))
        t0 = time.time()
        p = bs.render_1d(restricted_map("octahedral5"), grid,
                         bs.octahedral_attractors(), max_iter=60)
        elapsed = time.time() - t0
        stats = bs.attractor_statistics(p)
        assert stats["black_fraction"] < 0.05
        fr = [stats["fractions"][f"vertex_pair_{k}"] for k in range(4)]
        assert max(fr) - min(fr) < 0.02
        # quarter turn advances the vertex pairs cyclically
        frac = bs.symmetry_fraction(p, lambda x, y: (-y, x),
                                    {0: 1, 1: 2, 2: 3, 3: 0})
        assert frac >= 0.98
        assert elapsed < 60.0

    def test_9c_plane_portrait(self):
        grid = bs.GridSpec(0j, 2.5, 2.5, (720, 720))
        t0 = time.time()
        p = bs.render_plane(f6, grid, bs.f6_plane_attractors(), max_iter=60)
        elapsed = time.time() - t0
        stats = bs.attractor_statistics(p)
        assert stats["black_fraction"] < 0.05
        fr = [stats["fractions"][f"five_point_{k}"] for k in (1, 2, 3)]
        assert max(fr) - min(fr) < 0.02
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        rot = bs.symmetry_fraction(p, lambda x, y: (c * x - s * y, s * x + c * y),
                                   {0: 1, 1: 2, 2: 0, 3: 3})
        mirror = bs.symmetry_fraction(p, lambda x, y: (x, -y),
                                      {0: 0, 1: 2, 2: 1, 3: 3})
        assert rot >= 0.98 and mirror >= 0.98
        assert elapsed < 60.0
