"""The parameter-family layer: the coordinate change tau_v, the parametrized
invariants and their exact gradients, the conjugated degree-6 map, and the
root selector.

For a parameter triple K the degree-2 form is a quadratic form and the
degree-3 form a symmetric 3-tensor.  Degrees 4/5 come from the determinants
of the 3-form's hessian and of that hessian bordered by the 2-form's
gradient.  Both matrices are linear in w, so their determinants' gradients
are exact sums of row-replaced determinants, which stay finite where the
hessian is singular; no numerical differentiation anywhere.

One phi_K step makes one ``np.linalg.det`` call per pencil: the matrix
itself sits in slot 0 of its row-replaced stack, so the same call returns
the value and the gradient.  Both stacks are affine in w and come from one
matmul with a constant template that ``build_param_polys`` lays out per K.

The point functions take one point or a (4, N) column stack, as the
invariants do: ``_regularity``, ``tau`` (a (4, 4) matrix, then the sample
axes), ``S_values``, ``gamma_v`` and ``conjugated_five_points``; for one K,
``phi2K``, ``gammaK`` and ``root_selector_J`` take one w or a stack of them.
The guards raise if any column fails.  On one point each gives what the
single-point code gives; ``phiK_map`` steps one point, as the solver does.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import orbits
from ._tables import gammak_form, phi2k_form, phi3k_tensor
from .geometry import HCT, as_complex, column_norm
from .equivariants import phi_basic
from .invariants import PSI10_SCALE, SQ5, phi, power_sum, vandermonde_product

# Uniform constant relating the selector numerator form to its direct
# definition from the quadratic orbit: sum_k Q_k(tau_v w) L_k(v) times this
# equals phi2(v)^5 phi3(v) GammaK(w).  Pinned numerically, kept explicit.
GAMMA_SCALE = SQ5


class SingularTau(ValueError):
    pass


class DegenerateK(ValueError):
    pass


class OnQuadricK(ValueError):
    pass


def _regularity(v):
    """How far v is from the zero sets of the basic invariants: the smallest
    of |phi_k(v)| / |v|^k (k = 2..5) and |psi10(v)| / |v|^10."""
    v = as_complex(v)
    x = HCT @ v
    n = column_norm(v)
    return np.min([*(abs(power_sum(x, k)) / n ** k for k in (2, 3, 4, 5)),
                   abs(PSI10_SCALE * vandermonde_product(x)) / n ** 10], axis=0)


def tau(v) -> np.ndarray:
    """The 4x4 parametrized change of coordinates with columns
    phi_{6-k}(v) * basic equivariant of degree k at v."""
    v = as_complex(v)
    if _regularity(v).min() < 1e-12:
        raise SingularTau("a basic invariant vanishes at v; tau is singular")
    cols = [phi(v, 6 - k) * phi_basic(v, k) for k in (1, 2, 3, 4)]
    return np.stack(cols, axis=1)


def t_matrix(k1, k2, k3) -> np.ndarray:
    """The 4x4 parameter matrix whose repose identity tau^r tau = phi2^6 T
    defines it; det gives the discriminant-like scalar t."""
    T = np.array([
        [240*k2*k3**2, 2*k1*(-15+66*k1+40*k2), 2*k2*(-35+46*k1+84*k3),
         (-15+60*k1+12*k1**2+128*k2*k3)],
        [240*k1*k2*k3, 48*k1*k2*(-1+5*k3), 2*k2*(-15+90*k1+16*k2),
         2*k2*(-35+46*k1+84*k3)],
        [240*k1*k2*k3, 48*k1**2*(-1+5*k1), 48*k1*k2*(-1+5*k3),
         2*k1*(-15+66*k1+40*k2)],
        [240*k2*k3**2, 240*k1*k2*k3, 240*k1*k2*k3, 240*k2*k3**2],
    ], dtype=complex)
    return (5.0 / 48.0) * T


def _row_replacement_gather() -> tuple[np.ndarray, np.ndarray]:
    """Gather indices that lay out the two row-replaced stacks from the
    (4, 26) pencil buffer of ``build_param_polys``: row i holds the bordered
    pencil's dB[i] (5 x 5, the hessian pencil in its leading 4 x 4 block)
    and a zero.

    The stack of an n x n pencil P holds 1 + 4n matrices: slot 0 is
    M = sum_i w_i P[i], slot 1 + n i + r is M with row r replaced by row r
    of P[i].  The hessian's stack (17, 4, 4) comes first, then the bordered
    one (21, 5, 5), flattened.  Each entry is either sum_i w_i P[i, a, b],
    and ``lin`` holds the column 5 a + b, or a constant of a replaced row,
    and ``const`` holds its index 26 i + 5 a + b in the flattened buffer;
    the other index points at a zero (25).
    """
    lin, const = [], []
    for n in (4, 5):
        for slot in range(1 + 4 * n):
            i, r = divmod(slot - 1, n)
            for a in range(n):
                for b in range(n):
                    replaced = slot > 0 and a == r
                    lin.append(25 if replaced else 5 * a + b)
                    const.append(26 * i + 5 * a + b if replaced else 25)
    return np.array(lin), np.array(const)


_RR_LIN, _RR_CONST = _row_replacement_gather()
_RR_H = 17 * 16  # entries of the hessian's stack at the front of the layout


@dataclass(frozen=True)
class ParamPolys:
    k: tuple[complex, complex, complex]
    S2: np.ndarray        # quadratic form matrix of the degree-2 invariant
    C3: np.ndarray        # symmetric 3-tensor of the degree-3 invariant
    gamma: np.ndarray     # quadratic form matrix of the selector numerator
    TK: np.ndarray
    TKinv: np.ndarray
    tK: complex
    # both row-replaced stacks, flattened, are w @ rr_lin + rr_const
    rr_lin: np.ndarray    # (4, 797)
    rr_const: np.ndarray  # (797,)


def build_param_polys(K: Iterable[complex]) -> ParamPolys:
    k1, k2, k3 = (complex(c) for c in K)
    TK = t_matrix(k1, k2, k3)
    tK = complex(np.linalg.det(TK))
    scale = np.abs(TK).max()
    if scale == 0 or abs(tK) / scale ** 4 < 1e-14:
        raise DegenerateK(f"parameter matrix is singular for K={K!r}")
    S2 = phi2k_form(k1, k2, k3)
    C3 = phi3k_tensor(k1, k2, k3)
    # the 3-form's hessian is sum_i w_i 6 C3[:, :, i], bordered by the
    # 2-form's gradient 2 S2 w; dB is a view into the buffer
    pencil = np.zeros((4, 26), dtype=complex)
    dB = pencil[:, :25].reshape(4, 5, 5)
    dB[:, :4, :4] = 6 * np.moveaxis(C3, 2, 0)
    dB[:, :4, 4] = dB[:, 4, :4] = 2 * S2.T
    return ParamPolys(
        k=(k1, k2, k3),
        S2=S2,
        C3=C3,
        gamma=gammak_form(k1, k2, k3),
        TK=TK,
        TKinv=np.linalg.inv(TK),
        tK=tK,
        rr_lin=pencil.take(_RR_LIN, axis=1),
        rr_const=pencil.take(_RR_CONST),
    )


def _quadratic(M, w):
    """w^T M w: a complex at one point, one value per column of a stack."""
    w = as_complex(w)
    if w.ndim == 1:
        return complex(w @ M @ w)
    return np.einsum("a...,ab,b...->...", w, M, w)


def phi2K(pp: ParamPolys, w):
    return _quadratic(pp.S2, w)


def phi3K(pp: ParamPolys, w) -> complex:
    w = as_complex(w)
    return complex(np.einsum("abc,a,b,c->", pp.C3, w, w, w))


def _values_grads(pp: ParamPolys, w: np.ndarray):
    """The four parametrized invariants at w and their exact gradients, as
    the rows of a (4, 4) array.

    det is linear in each row, so d det(M)/dw_i is the sum over r of slot
    1 + n i + r of M's row-replaced stack; slot 0 is M itself.
    """
    flat = w @ pp.rr_lin + pp.rr_const
    H = flat[:_RR_H].reshape(17, 4, 4)
    B = flat[_RR_H:].reshape(21, 5, 5)
    det_h = np.linalg.det(H)
    det_b = np.linalg.det(B)
    g2 = B[0, :4, 4]
    g3 = H[0] @ w / 2
    p2 = g2 @ w / 2
    p3 = g3 @ w / 3
    s = 1 / pp.tK
    p4 = p2 ** 2 / 2 - (5 / 324) * s * det_h[0]
    p5 = (720 * p2 * p3 + s * det_b[0]) / 864
    grads = np.array([
        g2,
        g3,
        p2 * g2 - (5 / 324) * s * det_h[1:].reshape(4, 4).sum(1),
        (720 * (p3 * g2 + p2 * g3) + s * det_b[1:].reshape(4, 5).sum(1)) / 864,
    ])
    return (p2, p3, p4, p5), grads


def phiK_map(pp: ParamPolys):
    """The conjugated degree-6 map as a callable on 4-vectors."""
    # the basic equivariant of degree k is -5/(k+1) times the reversed
    # gradient of the degree-(k+1) invariant: the weights go into the
    # combination's scalars, the reversal into TKinv's columns
    rev_inv = pp.TKinv[:, ::-1].copy()

    def _map(w) -> np.ndarray:
        (p2, p3, p4, p5), grads = _values_grads(pp, as_complex(w))
        c = np.array([-5 * (9 * p2 * p3 - 10 * p5), (10 / 3) * (p2 ** 2 - 5 * p4),
                      -25 * p3, -15 * p2])
        return rev_inv @ (c @ grads)
    return _map


def gammaK(pp: ParamPolys, w):
    return _quadratic(pp.gamma, w)


def root_selector_J(pp: ParamPolys, w):
    """Degree-0 selector; at a conjugated five-point its value is the
    corresponding root of the resolvent quintic."""
    w = as_complex(w)
    p2 = phi2K(pp, w)
    on_quadric = abs(p2) / column_norm(w) ** 2 < 1e-12
    if on_quadric.any() if w.ndim > 1 else on_quadric:
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
    point whose image under tau(v) is ``img``."""
    return GAMMA_SCALE * (Q_values(img) * L_values(v)).sum(0)


_FIVE_POINTS_U = np.stack([orbits.point(f"p5_{k}").u for k in range(1, 6)])


def conjugated_five_points(T) -> np.ndarray:
    """The five-points pulled back through the coordinate change T = tau(v),
    one per row; on a (4, 4, N) stack of T each row is a (4, N) stack."""
    inv = np.linalg.inv(np.moveaxis(T, (0, 1), (-2, -1)))[..., None, :, :]
    return np.moveaxis((inv @ _FIVE_POINTS_U[..., None])[..., 0], (-2, -1),
                       (0, 1))


def random_regular_point(rng: np.random.Generator) -> np.ndarray:
    """A random v at which tau is comfortably nonsingular: its regularity
    is above 1e-6."""
    for _ in range(200):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if _regularity(v) > 1e-6:
            return v
    raise SingularTau("could not sample a regular point")
