"""Column stacks: each map, invariant, parameter-layer point function and the
chordal metric evaluated on a (n, 50) stack agrees with the same function
applied column by column, and a guard raises on a stack when one column
fails it.

A sum over axis 0 of a stack adds in another order than the sum of one
column, so the two agree to roundoff, not bit for bit: within 1e-14 of the
largest entry of the column's result.  h11 alone gets 1e-13, because on
these inputs it cancels terms up to 120 times larger than its value."""
import numpy as np
import pytest

from quintic_flow import equivariants as eq
from quintic_flow import invariants as iv
from quintic_flow import params as pr
from quintic_flow.geometry import chordal_distance, x_to_u

N = 50


def _stack(rows):
    rng = np.random.default_rng(3)
    return rng.standard_normal((rows, N)) + 1j * rng.standard_normal((rows, N))


def _x_stack():
    x = _stack(5)
    return x - x.mean(0)


# name: (function, input stack, relative tolerance); chordal_distance takes
# the two points of a pair stacked into one column of 8 coordinates
CASES = {
    "chordal_distance": (lambda pq: chordal_distance(pq[:4], pq[4:]),
                         _stack(8), 1e-14),
    "f6": (eq.f6, _x_stack(), 1e-14),
    "phi6": (eq.phi6, _stack(4), 1e-14),
    "h11": (eq.h11, _x_stack(), 1e-13),
    "g11": (lambda x: eq.g11(x, {1: 0.3 - 0.2j, 13: 1.1j}), _x_stack(), 1e-14),
    **{f"phi{k}": ((lambda u, k=k: iv.phi(u, k)), _stack(4), 1e-14)
       for k in (2, 3, 4, 5)},
    "hessian_form_G4": (iv.hessian_form_G4, _stack(4), 1e-14),
    "bordered_form_G5": (iv.bordered_form_G5, _stack(4), 1e-14),
    "psi10": (iv.psi10, _stack(4), 1e-14),
    "k_values": (iv.k_values, _stack(4), 1e-14),
    "_regularity": (pr._regularity, _stack(4), 1e-14),
    "tau": (pr.tau, _stack(4), 1e-14),
    "S_values": (pr.S_values, _stack(4), 1e-14),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stack_matches_columns(name):
    f, pts, rtol = CASES[name]
    got = np.asarray(f(pts))
    assert got.shape[-1] == N
    for j in range(N):
        want = np.asarray(f(pts[:, j]))
        assert got[..., j].shape == want.shape
        assert np.abs(got[..., j] - want).max() <= rtol * np.abs(want).max()


def test_phi6_rejects_stack_with_a_vanishing_column():
    u = _stack(4)
    u[:, 7] = 0
    with pytest.raises(eq.Indeterminate):
        eq.phi6(u)


# one column where a guard fires, with the error that column raises alone
GUARDED = {
    "tau_singular": (pr.tau, x_to_u([1, 1, 0, -1, -1]), pr.SingularTau),
    "k_values_on_quadric": (iv.k_values, [1, 0, 0, 0], iv.OnQuadric),
    "k_values_on_cubic": (iv.k_values, x_to_u([1, -1, 0, 0, 0]), iv.OnCubic),
}


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_stack_with_one_bad_column_raises_its_error(name):
    f, bad, error = GUARDED[name]
    with pytest.raises(error):
        f(np.asarray(bad, dtype=complex))
    u = _stack(4)
    f(u)
    u[:, 7] = bad
    with pytest.raises(error):
        f(u)
