"""The parameter-family layer: the coordinate change tau_v, the parametrized
invariants and their exact gradients, the conjugated degree-6 map, and the
root selector.

For a parameter triple K the degree-2 form is a quadratic form and the
degree-3 form a symmetric 3-tensor.  Degrees 4/5 come from the determinants
of the 3-form's hessian and of that hessian bordered by the 2-form's
gradient.  Both matrices are linear in w, so they are stored as constant
pencils and their determinants' gradients are exact sums of row-replaced
determinants; no numerical differentiation anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._tables import gammak_form, phi2k_form, phi3k_tensor
from .geometry import HCT, R4, as_complex, x_to_u
from .equivariants import phi_basic
from .invariants import SQ5, phi, psi10

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


@dataclass(frozen=True)
class TauMatrix:
    matrix: np.ndarray
    v: np.ndarray

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)


def tau(v) -> TauMatrix:
    """Parametrized change of coordinates with columns phi_{6-k}(v) * basic
    equivariant of degree k at v."""
    v = as_complex(v)
    n = np.linalg.norm(v)
    vals = {k: phi(v, k) for k in (2, 3, 4, 5)}
    small = [k for k in (2, 3, 4, 5) if abs(vals[k]) / n ** k < 1e-12]
    if small or abs(psi10(v)) / n ** 10 < 1e-12:
        raise SingularTau("a basic invariant vanishes at v; tau is singular")
    cols = [vals[6 - k] * phi_basic(v, k) for k in (1, 2, 3, 4)]
    return TauMatrix(np.column_stack(cols), v)


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


@dataclass(frozen=True)
class ParamPolys:
    k: tuple[complex, complex, complex]
    S2: np.ndarray        # quadratic form matrix of the degree-2 invariant
    C3: np.ndarray        # symmetric 3-tensor of the degree-3 invariant
    gamma: np.ndarray     # quadratic form matrix of the selector numerator
    TK: np.ndarray
    TKinv: np.ndarray
    tK: complex
    dH: np.ndarray        # (4,4,4): hessian of the 3-form = sum_i w_i dH[i]
    dB: np.ndarray        # (4,5,5): dH bordered by the 2-form's gradient


def build_param_polys(K: Iterable[complex]) -> ParamPolys:
    k1, k2, k3 = (complex(c) for c in K)
    TK = t_matrix(k1, k2, k3)
    tK = complex(np.linalg.det(TK))
    scale = np.abs(TK).max()
    if scale == 0 or abs(tK) / scale ** 4 < 1e-14:
        raise DegenerateK(f"parameter matrix is singular for K={K!r}")
    S2 = phi2k_form(k1, k2, k3)
    C3 = phi3k_tensor(k1, k2, k3)
    dH = 6 * np.moveaxis(C3, 2, 0)
    dB = np.zeros((4, 5, 5), dtype=complex)
    dB[:, :4, :4] = dH
    dB[:, :4, 4] = dB[:, 4, :4] = 2 * S2.T
    return ParamPolys(
        k=(k1, k2, k3),
        S2=S2,
        C3=C3,
        gamma=gammak_form(k1, k2, k3),
        TK=TK,
        TKinv=np.linalg.inv(TK),
        tK=tK,
        dH=dH,
        dB=dB,
    )


def _det_grad(P: np.ndarray, w: np.ndarray) -> tuple[complex, np.ndarray]:
    """det(M) and its gradient for the pencil M = sum_i w_i P[i].

    det is linear in each row, so d det(M)/dw_i is the sum over r of det(M
    with row r replaced by row r of P[i]); one batched det call does them all.
    """
    M = np.tensordot(w, P, 1)
    n = M.shape[0]
    rows = np.arange(n)
    stack = np.broadcast_to(M, (len(P), n, n, n)).copy()
    stack[:, rows, rows, :] = P
    return complex(np.linalg.det(M)), np.linalg.det(stack).sum(axis=1)


def phi2K(pp: ParamPolys, w) -> complex:
    w = as_complex(w)
    return complex(w @ pp.S2 @ w)


def phi3K(pp: ParamPolys, w) -> complex:
    w = as_complex(w)
    return complex(np.einsum("abc,a,b,c->", pp.C3, w, w, w))


@dataclass(frozen=True)
class ValueGrad:
    value: complex
    gradient: np.ndarray


def invariant_values_grads(pp: ParamPolys, w) -> dict[int, ValueGrad]:
    """Values and exact gradients of the four parametrized invariants at w.

    Degrees 4 and 5 are built from the determinants of the hessian and
    bordered-hessian pencils; ``_det_grad`` gives both values and gradients.
    """
    w = as_complex(w)
    p2 = complex(w @ pp.S2 @ w)
    g2 = 2 * pp.S2 @ w
    p3 = complex(np.einsum("abc,a,b,c->", pp.C3, w, w, w))
    g3 = 3 * np.einsum("abc,b,c->a", pp.C3, w, w)

    detH, g4_det = _det_grad(pp.dH, w)
    p4 = p2 ** 2 / 2 - 5 * (detH / pp.tK) / 324
    g4 = p2 * g2 - (5 / (324 * pp.tK)) * g4_det

    detB, g5_det = _det_grad(pp.dB, w)
    p5 = (720 * p2 * p3 + detB / pp.tK) / 864
    g5 = (720 * (g2 * p3 + p2 * g3) + g5_det / pp.tK) / 864

    return {2: ValueGrad(p2, g2), 3: ValueGrad(p3, g3),
            4: ValueGrad(p4, g4), 5: ValueGrad(p5, g5)}


def phiK_map(pp: ParamPolys):
    """The conjugated degree-6 map as a callable on 4-vectors."""
    def _map(w) -> np.ndarray:
        vg = invariant_values_grads(pp, as_complex(w))
        p2, p3, p4, p5 = (vg[k].value for k in (2, 3, 4, 5))
        # reversed gradients, weighted back to the basic-equivariant scale
        e = {k: (-5.0 / (k + 1)) * (R4 @ vg[k + 1].gradient) for k in (1, 2, 3, 4)}
        b = (2 * (9 * p2 * p3 - 10 * p5) * e[1] - 2 * (p2 ** 2 - 5 * p4) * e[2]
             + 20 * p3 * e[3] + 15 * p2 * e[4])
        return pp.TKinv @ b
    return _map


def gammaK(pp: ParamPolys, w) -> complex:
    w = as_complex(w)
    return complex(w @ pp.gamma @ w)


def root_selector_J(pp: ParamPolys, w) -> complex:
    """Degree-0 selector; at a conjugated five-point its value is the
    corresponding root of the resolvent quintic."""
    w = as_complex(w)
    p2 = phi2K(pp, w)
    if abs(p2) / np.linalg.norm(w) ** 2 < 1e-12:
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


def gamma_v(tv: TauMatrix, w) -> complex:
    """Direct (unparametrized) evaluation of the selector numerator."""
    img = tv.matrix @ as_complex(w)
    return GAMMA_SCALE * complex((Q_values(img) * L_values(tv.v)).sum())


def five_point_u(ell: int) -> np.ndarray:
    """Hyperplane coordinates of the ell-th five-point (0-based)."""
    x = np.ones(5, dtype=complex)
    x[ell] = -4
    return x_to_u(x)


def conjugated_five_points(tv: TauMatrix) -> list[np.ndarray]:
    inv = tv.inverse
    return [inv @ five_point_u(ell) for ell in range(5)]


def random_regular_point(rng: np.random.Generator, rel_floor: float = 1e-6,
                         max_tries: int = 200) -> np.ndarray:
    """A random v at which tau is comfortably nonsingular."""
    for _ in range(max_tries):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n = np.linalg.norm(v)
        if all(abs(phi(v, k)) / n ** k > rel_floor for k in (2, 3, 4, 5)) \
                and abs(psi10(v)) / n ** 10 > rel_floor:
            return v
    raise SingularTau("could not sample a regular point")
