import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import cosets_first_seen, element_matrix, stabilizer_order
from quintic_flow import group as gp
from quintic_flow import orbits as ob
from quintic_flow.geometry import chordal_distance, x_to_u

perms = st.permutations(range(5)).map(tuple)


def test_identity_is_identity_matrix():
    g = gp.element((0, 1, 2, 3, 4))
    assert np.abs(g.matrix - np.eye(4)).max() < 1e-14


def test_order_120_distinct():
    els = gp.all_elements()
    assert len(els) == 120
    keys = {tuple(np.round(g.matrix.ravel(), 9)) for g in els}
    assert len(keys) == 120


@given(perms, perms)
@settings(max_examples=40, deadline=None)
def test_homomorphism(s, t):
    st_ = tuple(s[t[i]] for i in range(5))
    lhs = gp.element(st_).matrix
    rhs = gp.element(s).matrix @ gp.element(t).matrix
    assert np.abs(lhs - rhs).max() < 1e-13


@given(perms)
@settings(max_examples=40, deadline=None)
def test_unitary(p):
    m = gp.element(p).matrix
    assert np.abs(m @ m.conj().T - np.eye(4)).max() < 1e-13


@given(perms)
@settings(max_examples=40, deadline=None)
def test_action_permutes_natural_coordinates(p):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x -= x.mean()
    g = gp.element(p)
    moved = np.empty(5, dtype=complex)
    for i in range(5):
        moved[p[i]] = x[i]
    from quintic_flow.geometry import u_to_x
    assert np.abs(u_to_x(g.matrix @ x_to_u(x)) - moved).max() < 1e-12


def test_parity():
    assert gp.element((0, 1, 2, 3, 4)).sign == 1
    assert gp.element((1, 0, 2, 3, 4)).sign == -1
    assert gp.element((1, 2, 0, 3, 4)).sign == 1


class TestOrbits:
    def test_five_point_orbit(self):
        u = x_to_u(np.array([-4, 1, 1, 1, 1], dtype=complex))
        orb = gp.orbit(u)
        assert len(orb) == 5
        assert stabilizer_order(u) == 24

    def test_generic_orbit_is_regular(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert len(gp.orbit(u)) == 120
        assert stabilizer_order(u) == 1

    def test_orbit_size_divides_group_order(self):
        for desc in ([0, 0, 0, 1, -1], [0, 1, 1, -1, -1], [1, 1, 1, -1.5, -1.5]):
            x = np.asarray(desc, dtype=complex)
            assert 120 % len(gp.orbit(x_to_u(x))) == 0

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            gp.element((0, 0, 1, 2, 3))


def test_all_matrices_is_read_only_stack_of_elements():
    mats = gp.all_matrices()
    assert mats.shape == (120, 4, 4)
    assert all(np.array_equal(m, g.matrix)
               for m, g in zip(mats, gp.all_elements()))
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 0


def test_all_matrices_equal_per_element_permutation_matrices():
    """Bit for bit, the column gather gives H P H* with P built entry by
    entry."""
    want = np.stack([element_matrix(p) for p in gp.PERMS.tolist()])
    assert gp.all_matrices().tobytes() == want.tobytes()


def test_perms_are_lexicographic_and_read_only():
    assert [g.perm for g in gp.all_elements()] == list(
        itertools.permutations(range(5)))
    with pytest.raises(ValueError):
        gp.PERMS[0, 0] = 1


def test_sign_is_determinant():
    els = gp.all_elements()
    dets = np.linalg.det(gp.all_matrices())
    assert [g.sign for g in els] == [round(d.real) for d in dets]
    assert np.abs(dets - [g.sign for g in els]).max() < 1e-12


def test_sign_is_multiplicative():
    signs = np.array([g.sign for g in gp.all_elements()])
    assert np.array_equal(signs[gp.product_table()], np.outer(signs, signs))


def test_element_is_a_lookup():
    els = gp.all_elements()
    for p in itertools.permutations(range(5)):
        assert gp.element(p) is els[gp.index(p)]
    assert gp.element(np.array([4, 3, 2, 1, 0])) is els[-1]


NAMED_POINTS = ["p5_1", "p10_12_1", "p15_1_23", "p20_1_234", "p30_12_34",
                "q20_12_1", "q24", "q30_1_24_1", "q60_1_23_1"]


def test_product_table_matches_matrices():
    T = gp.product_table()
    mats = gp.all_matrices()
    assert T.shape == (120, 120)
    assert np.array_equal(T[0], np.arange(120))      # element 0 is the identity
    assert all(sorted(row) == list(range(120)) for row in T)
    rng = np.random.default_rng(3)
    i, j = rng.integers(0, 120, (2, 500))
    assert np.abs(mats[T[i, j]] - mats[i] @ mats[j]).max() < 1e-13
    with pytest.raises(ValueError):
        T[0, 0] = 1


def test_index_inverts_all_elements():
    perms = [g.perm for g in gp.all_elements()]
    assert np.array_equal(gp.index(perms), np.arange(120))


@pytest.mark.parametrize("desc", NAMED_POINTS)
def test_stabilizer_is_a_subgroup_of_the_right_order(desc):
    p = ob.point(desc)
    stab = gp.stabilizer(p.u)
    members = np.flatnonzero(stab)
    assert stab[0]
    assert stab[gp.product_table()[np.ix_(members, members)]].all()
    assert len(members) == stabilizer_order(p.u) == 120 // p.orbit_size


def _reference_orbit(u, tol=gp.DEDUP_TOL):
    pts = []
    for g in gp.all_elements():
        q = g.matrix @ u
        if not any(chordal_distance(q, p) < tol for p in pts):
            pts.append(q)
    return pts


@pytest.mark.parametrize("desc", ["p5_1", "p10_12_1", "p15_1_23", "p20_1_234",
                                  "p30_12_34", "q20_12_1", "q24",
                                  "q30_1_24_1", "q60_1_23_1", None])
def test_orbit_matches_per_element_loop(desc):
    if desc is None:
        rng = np.random.default_rng(5)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    else:
        u = ob.point(desc).u
    got, want = gp.orbit(u), _reference_orbit(u)
    assert len(got) == len(want) == (120 if desc is None
                                     else ob.point(desc).orbit_size)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_named_points_cover_every_point_kind():
    assert {d.split("_")[0] for d in NAMED_POINTS} == set(ob._POINTS) | {"q24"}


@pytest.mark.parametrize("desc", NAMED_POINTS)
def test_cosets_match_first_seen_scan(desc):
    stab = gp.stabilizer(ob.point(desc).u)
    got = gp.cosets(stab)
    assert got == cosets_first_seen(stab)
    assert len(got) == ob.point(desc).orbit_size


def test_cosets_of_the_trivial_and_the_full_group():
    assert gp.cosets(np.arange(120) == 0) == list(range(120))
    assert gp.cosets(np.ones(120, dtype=bool)) == [0]


@pytest.mark.parametrize("members", [[], [1], [0, 9], [0, 1, 2]])
def test_cosets_reject_a_mask_that_is_not_a_subgroup(members):
    """Empty, no identity, a 4-cycle without its square, and two
    transpositions without their product."""
    stab = np.zeros(120, dtype=bool)
    stab[members] = True
    with pytest.raises(ValueError):
        gp.cosets(stab)
