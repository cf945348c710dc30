"""The parameter-family layer: the coordinate change tau_v, the parametrized
invariants and their exact gradients, the conjugated degree-6 map, and the
root selector.

For a parameter triple K the family's only data are two forms: the
quadratic form S_K of degree 2 (``phi2k_form``) and the symmetric 3-tensor
C_K of degree 3 (``phi3k_tensor``).  Three identities give the rest.  As
phi2(v) = v^T R4 v, the repose identity tau^T R4 tau = phi2^6 R4 T_K says
R4 T_K = S_K, so T_K = R4 S_K and t_K = det T_K = det S_K (det R4 = +1).
T_K^-1 with its columns reversed is S_K^-1, the raising matrix of
``phiK_map``.  The selector numerator is Gamma_K = 20 sqrt5 / (K2 K3)
C_K[0], the w_1-slice of the cubic tensor.

Degrees 4/5 come from the determinants of the 3-form's hessian H and of
the bordered hessian B, H bordered by the 2-form's gradient.  B is linear
in w, B(w) = w @ dB for a (4, 25) pencil that ``build_param_polys`` lays
out per K, and H is its leading 4 x 4 block.  So a determinant's gradient
is exact, d det M/dw_i = sum_rc P_i[r, c] cof(M)[r, c] for M = sum_i w_i
P_i, and it stays finite where the hessian is singular; no numerical
differentiation anywhere.

One phi_K step builds one ladder of B's minors from index tables made at
import, holding only the minors the step reads: the 42 of order 2, then
the 52 of order 3 and the 25 of order 4, each a first-row expansion over
the order below.  H's 16 cofactors lead the order-3 minors and B's 25 are
the whole order 4, so each gradient is a pencil times a slice of the
ladder; the values follow from the gradients by Euler's identity, w . grad
f = deg(f) f.  The step's combination of the four invariants' gradients is
folded into one combination of the rows g2, H w, grad det H and grad det
B, which S_K^-1 raises.

The point functions take one point or a (4, N) column stack, as the
invariants do: ``_regularity``, ``tau`` (a (4, 4) matrix, then the sample
axes), ``S_values``, ``gamma_v`` and ``conjugated_five_points``; for one K,
``phi2K``, ``gammaK`` and ``root_selector_J`` take one w or a stack of them.
The guards raise if any column fails.  One point is the (4,) case of the
same code, equal to its stack column only to roundoff (BLAS takes other
kernels for ``HCT @`` a vector: ``tau`` moves by up to 1.3e-15 relative);
``phiK_map`` steps one point, as the solver does.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

import numpy as np

from . import orbits
from ._tables import phi2k_form, phi3k_tensor
from .geometry import H, HCT, as_complex
from .equivariants import _sums_and_basics
from .invariants import PSI10_SCALE, SQ5, phi, powers, vandermonde_product


class SingularTau(ValueError):
    pass


class DegenerateK(ValueError):
    pass


class OnQuadricK(ValueError):
    pass


def _regularity_of(x, F, n):
    """_regularity from x = HCT v, its power sums F2..F5 and n = |v|."""
    return np.min([*(abs(Fk) / n ** k for k, Fk in zip((2, 3, 4, 5), F)),
                   abs(PSI10_SCALE * vandermonde_product(x)) / n ** 10], axis=0)


def _regularity(v):
    """How far v is from the zero sets of the basic invariants: the smallest
    of |phi_k(v)| / |v|^k (k = 2..5) and |psi10(v)| / |v|^10."""
    v = as_complex(v)
    x = HCT @ v
    F = [xk.sum(0) for xk in powers(x, 5)[1:]]
    return _regularity_of(x, F, np.linalg.norm(v, axis=0))


def tau(v) -> np.ndarray:
    """The 4x4 parametrized change of coordinates with columns
    phi_{6-k}(v) * basic equivariant of degree k at v.  The guard and the
    columns read one x = HCT v and one ladder of its powers."""
    v = as_complex(v)
    x = HCT @ v
    F, f = _sums_and_basics(x)
    if _regularity_of(x, F, np.linalg.norm(v, axis=0)).min() < 1e-12:
        raise SingularTau("a basic invariant vanishes at v; tau is singular")
    return np.stack([F[4 - k] * (H @ f[k - 1]) for k in (1, 2, 3, 4)], axis=1)


def _minor_ladder(n: int, targets) -> list[tuple[np.ndarray, ...]]:
    """Index tables that build the target minors of an n x n matrix M, and
    the lower-order minors they need, order by order from 2 up.

    A minor is a pair (rows, cols) of increasing index tuples; those of
    order 1 are the entries, at n r + c.  Each is expanded along its first
    row: on rows r < rest and columns c_0 < ... < c_(k-1) it is sum_j
    (-1)^j M[r, c_j] times the minor on rest and the columns without c_j.
    Order k lists its targets first, then the minors order k + 1 needs, and
    has (entry, sub, sign): the (k, count) positions of those entries of M
    and of those minors of order k - 1, and the k signs.
    """
    def subs(m):   # the minors on rest and the columns without c_j, by j
        return [(m[0][1:], m[1][:j] + m[1][j + 1:]) for j in range(len(m[1]))]

    orders: dict[int, dict] = {}
    for m in targets:
        orders.setdefault(len(m[0]), {})[m] = None
    top = max(orders)
    for k in range(top, 2, -1):
        below = orders.setdefault(k - 1, {})
        for m in orders[k]:
            below.update(dict.fromkeys(subs(m)))
    orders[1] = {((r,), (c,)): None for r in range(n) for c in range(n)}
    rungs = []
    for k in range(2, top + 1):
        at = {m: i for i, m in enumerate(orders[k - 1])}
        below = [subs(m) for m in orders[k]]
        entry = [[n * m[0][0] + m[1][j] for m in orders[k]] for j in range(k)]
        sub = [[at[b[j]] for b in below] for j in range(k)]
        rungs.append((np.array(entry), np.array(sub),
                      (-1.0 + 0j) ** np.arange(k)))
    return rungs


# B is 5 x 5 and H its leading 4 x 4 block.  The targets are the minors
# complementary to each entry (r, c) of H, then of B, in row-major order
# (the r-th of the reversed (size - 1)-subsets lacks r); times (-1)^(r + c)
# each is a cofactor.  H's 16 lead the 52 minors of order 3, and B's 25
# are the whole order 4
_LADDER = _minor_ladder(5, [m for size in (4, 5) for m in product(
    list(combinations(range(size), size - 1))[::-1], repeat=2)])
_COF_SIGN = (-1.0) ** np.add.outer(np.arange(5), np.arange(5))
_H_AT = np.arange(20).reshape(4, 5)[:, :4].ravel()   # H's entries in B
# w . g2 = 2 p2 and w . H w = 6 p3; det H has degree 4, det B degree 5
_EULER = 1 / np.array([2, 6, 4, 5])


@dataclass(frozen=True)
class ParamPolys:
    k: tuple[complex, complex, complex]
    S2: np.ndarray        # quadratic form matrix of the degree-2 invariant
    C3: np.ndarray        # symmetric 3-tensor of the degree-3 invariant
    S2inv: np.ndarray     # raises phi_K's gradient combination
    tK: complex           # det S2 = det T_K
    # B(w) = w @ dB is the bordered hessian, flattened row by row, and H(w)
    # its leading 4 x 4 block.  cof_dB and cof_dH (H's pencil) carry the
    # sign (-1)^(r + c) on entry (r, c): times the minors complementary to
    # each (r, c), they give the gradients of det B and det H
    dB: np.ndarray        # (4, 25)
    cof_dH: np.ndarray    # (4, 16)
    cof_dB: np.ndarray    # (4, 25)


def build_param_polys(K: Iterable[complex]) -> ParamPolys:
    k1, k2, k3 = (complex(c) for c in K)
    S2 = phi2k_form(k1, k2, k3)
    tK = complex(np.linalg.det(S2))
    # S2 and T_K = R4 S2 have the same entries and determinant
    scale = np.abs(S2).max()
    if scale == 0 or abs(tK) / scale ** 4 < 1e-14:
        raise DegenerateK(f"parameter matrix is singular for K={K!r}")
    C3 = phi3k_tensor(k1, k2, k3)
    # the 3-form's hessian is sum_i w_i 6 C3[i], bordered by the 2-form's
    # gradient 2 S2 w (C3 and S2 are symmetric)
    dB = np.zeros((4, 5, 5), dtype=complex)
    dB[:, :4, :4] = 6 * C3
    dB[:, :4, 4] = dB[:, 4, :4] = 2 * S2
    cof_dB = dB * _COF_SIGN
    return ParamPolys(
        k=(k1, k2, k3),
        S2=S2,
        C3=C3,
        S2inv=np.linalg.inv(S2),
        tK=tK,
        dB=dB.reshape(4, 25),
        cof_dH=cof_dB[:, :4, :4].reshape(4, 16),
        cof_dB=cof_dB.reshape(4, 25),
    )


def _quadratic(M, w):
    """w^T M w: a complex at one point, one value per column of a stack."""
    w = as_complex(w)
    # one point keeps w @ M @ w: the einsum moves selected roots at roundoff
    if w.ndim == 1:
        return complex(w @ M @ w)
    return np.einsum("a...,ab,b...->...", w, M, w)


def phi2K(pp: ParamPolys, w):
    return _quadratic(pp.S2, w)


def phi3K(pp: ParamPolys, w) -> complex:
    w = as_complex(w)
    return complex(np.einsum("abc,a,b,c->", pp.C3, w, w, w))


def _values_grads(pp: ParamPolys, w: np.ndarray):
    """p2, p3, det H and det B at w, and the (4, 4) array V whose rows are
    their gradients up to the factor 2 on H w: g2 = 2 S2 w (B's border),
    H w, and the gradients of det H and det B, each its pencil times its
    cofactors read off one ladder of B's minors.

    The values come from V by Euler's identity.  The other two invariants
    are p4 = p2^2/2 - (5/324) det H / t_K and p5 = (720 p2 p3 + det B / t_K)
    / 864, so the invariants' gradients are combinations of V's rows: grad
    p2 = g2, grad p3 = H w / 2, grad p4 = p2 g2 - (5/324) grad det H / t_K
    and grad p5 = (720 p3 g2 + 360 p2 H w + grad det B / t_K) / 864.
    """
    # .dot, not @: on arrays this small, matmul's dispatch costs twice as much
    B = w.dot(pp.dB)
    m = [B]
    for entry, sub, sign in _LADDER:
        m.append(sign.dot(B[entry] * m[-1][sub]))
    V = np.array([B[4:20:5],
                  B[_H_AT].reshape(4, 4).dot(w),
                  pp.cof_dH.dot(m[2][:16]),
                  pp.cof_dB.dot(m[3])])
    return (V.dot(w) * _EULER).tolist(), V


def phiK_map(pp: ParamPolys):
    """The conjugated degree-6 map as a callable on 4-vectors."""
    # the basic equivariant of degree k is -5/(k+1) times the reversed
    # gradient of the degree-(k+1) invariant, raised by T_K^-1: the weights
    # go into the combination's scalars, and T_K^-1 R4 = S2^-1.  The
    # combination -5 (9 p2 p3 - 10 p5), (10/3)(p2^2 - 5 p4), -25 p3, -15 p2
    # of grad p2..grad p5 is folded into one combination e of V's rows
    s = 1 / pp.tK

    def _map(w) -> np.ndarray:
        (p2, p3, det_h, det_b), V = _values_grads(pp, as_complex(w))
        p4 = p2 ** 2 / 2 - (5 / 324) * s * det_h
        p5 = (720 * p2 * p3 + s * det_b) / 864
        e = np.array([50 * p5 - 82.5 * p2 * p3,
                      (5 / 3) * (p2 ** 2 - 5 * p4) - 6.25 * p2 ** 2,
                      (125 / 324) * s * p3,
                      -(5 / 288) * s * p2])
        return pp.S2inv.dot(e.dot(V))
    return _map


def gammaK(pp: ParamPolys, w):
    """Gamma_K(w); K2 K3 != 0 once K passes the DegenerateK test, as T_K's
    last row is 25 K2 K3 (K3, K1, K1, K3)."""
    _, k2, k3 = pp.k
    return 20 * 5 ** 0.5 / (k2 * k3) * _quadratic(pp.C3[0], w)


def root_selector_J(pp: ParamPolys, w):
    """Degree-0 selector; at a conjugated five-point its value is the
    corresponding root of the resolvent quintic."""
    w = as_complex(w)
    p2 = phi2K(pp, w)
    if (abs(p2) / np.linalg.norm(w, axis=0) ** 2 < 1e-12).any():
        raise OnQuadricK("selector undefined where the degree-2 form vanishes")
    return gammaK(pp, w) / (15 * p2)


# --- auxiliary point functions ----------------------------------------------

def L_values(v) -> np.ndarray:
    """The five linear forms (an orbit of size 5): -5 times each coordinate."""
    return -5 * (HCT @ as_complex(v))


def Q_values(u) -> np.ndarray:
    """The five quadratic forms; Q_k vanishes at every five-point except the
    k-th."""
    x = HCT @ as_complex(u)
    return 20 * x ** 2 - phi(u, 2)


def S_values(v) -> np.ndarray:
    """The five resolvent roots attached to v (roots of the resolvent built
    from K(v))."""
    v = as_complex(v)
    return SQ5 * phi(v, 2) * L_values(v) / phi(v, 3)


def gamma_v(v, img):
    """Direct (unparametrized) evaluation of the selector numerator at the
    point whose image under tau(v) is ``img``: sqrt5 sum_k Q_k(img) L_k(v)
    = phi2(v)^5 phi3(v) GammaK(w) for img = tau(v) w."""
    return SQ5 * (Q_values(img) * L_values(v)).sum(0)


_FIVE_POINTS_U = np.stack([orbits.point(f"p5_{k}").u for k in range(1, 6)])


def conjugated_five_points(T) -> np.ndarray:
    """The five-points pulled back through the coordinate change T = tau(v),
    one per row; on a (4, 4, N) stack of T each row is a (4, N) stack."""
    inv = np.linalg.inv(np.moveaxis(T, (0, 1), (-2, -1)))[..., None, :, :]
    return np.moveaxis((inv @ _FIVE_POINTS_U[..., None])[..., 0], (-2, -1),
                       (0, 1))


def random_regular_point(rng: np.random.Generator, n: int | None = None):
    """A random v at which tau is comfortably nonsingular (its regularity
    is above 1e-6), or a (4, n) stack of n of them: the first n regular
    points of the stream of draws, in order, so the stack holds the points
    n single calls return and leaves rng where they would.  Each round
    draws one candidate per point still missing, as one (m, 2, 4) normal
    draw in the order single draws take."""
    want = 1 if n is None else n
    found = []
    for _ in range(200):
        r = rng.standard_normal((want - len(found), 2, 4))
        v = (r[:, 0] + 1j * r[:, 1]).T
        found += list(v.T[_regularity(v) > 1e-6])
        if len(found) == want:
            return found[0] if n is None else np.stack(found, axis=1)
    raise SingularTau("could not sample a regular point")
