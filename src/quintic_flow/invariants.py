"""Symmetric invariants: power sums in both coordinate systems, the
hessian-derived forms G4/G5, the odd degree-10 invariant, and the quotient
parameters (K1, K2, K3).

Every function here takes a single point or a column stack (coordinates on
axis 0, samples on axis 1) and returns one value per column:
``power_sum``/``phi``, ``grad_phi2``, ``hessian_phi3`` (a (4, 4) matrix, then
the sample axes), the determinant forms ``hessian_form_G4``/
``bordered_form_G5`` and the power sums recovered from them,
``vandermonde_product``/``psi10`` and ``k_values``.  ``k_values`` raises if
any column lies on the quadric or the cubic.  Integer powers of coordinates
come from one product ladder, ``powers``.
"""
from __future__ import annotations

import numpy as np

from .geometry import as_complex, u_to_x

SQ5 = 5 ** 0.5   # a float, so the solver's scalar arithmetic stays off numpy
NEAR_ZERO = 1e-10


class OnQuadric(ValueError):
    pass


class OnCubic(ValueError):
    pass


def powers(x, k: int) -> list:
    """The list x, x^2, ..., x^k, elementwise, as one ladder of products:
    x^n is x^h x^(n-h) for the largest power of two h below n (x^2 = x x,
    x^3 = x^2 x, x^4 = x^2 x^2, x^5 = x^4 x, as f6 forms them).  On complex
    stacks a product costs a fraction of numpy's elementwise ``**``, and
    anything with a product, dual numbers too, can climb the ladder."""
    p = [x]
    for n in range(2, k + 1):
        h = 1 << ((n - 1).bit_length() - 1)
        p.append(p[h - 1] * p[n - h - 1])
    return p


def power_sum(x, k: int):
    """Sum of k-th powers of the 5 natural coordinates."""
    return powers(as_complex(x), k)[-1].sum(0)


def phi(u, k: int):
    """Degree-k invariant in hyperplane coordinates (power sum through H)."""
    return power_sum(u_to_x(u), k)


def grad_phi2(u) -> np.ndarray:
    u1, u2, u3, u4 = as_complex(u)
    return np.array([2 * u4, 2 * u3, 2 * u2, 2 * u1])


def hessian_phi3(u) -> np.ndarray:
    """Second-derivative matrix of the cubic invariant (entries linear in u);
    shape (4, 4) followed by the sample axes of u."""
    u1, u2, u3, u4 = as_complex(u)
    z = 0 * u1
    return (6 / SQ5) * np.array([
        [u3, u2, u1, z],
        [u2, u1, z, u4],
        [u1, z, u4, u3],
        [z, u4, u3, u2],
    ])


def _det(M):
    """Determinants of a matrix whose sample axes trail its two matrix axes."""
    return np.linalg.det(np.moveaxis(M, (0, 1), (-2, -1)))


def hessian_form_G4(u):
    """Degree-4 invariant: determinant of the cubic's hessian."""
    return _det(hessian_phi3(u))


def bordered_form_G5(u):
    """Degree-5 invariant: determinant of the cubic's hessian bordered by the
    quadratic's gradient."""
    g = grad_phi2(u)
    B = np.zeros((5, 5) + g.shape[1:], dtype=complex)
    B[:4, :4] = hessian_phi3(u)
    B[:4, 4] = g
    B[4, :4] = g
    return _det(B)


def phi4_from_G4(u):
    """Degree-4 power sum recovered from the hessian determinant."""
    return phi(u, 2) ** 2 / 2 - 5 * hessian_form_G4(u) / 324


def phi5_from_G5(u):
    """Degree-5 power sum recovered from the bordered determinant."""
    return (720 * phi(u, 2) * phi(u, 3) + bordered_form_G5(u)) / 864


_PAIRS = np.triu_indices(5, 1)  # the ten index pairs i < j


def vandermonde_product(x):
    """Product of the ten differences x_i - x_j, i < j: a complex at one
    point, one value per column of a (5, N) stack."""
    x = as_complex(x)
    return (x[_PAIRS[0]] - x[_PAIRS[1]]).prod(0)


# The degree-10 odd invariant is only defined up to scale; this scale makes
# the determinant of the parametrized coordinate change factor as
# phi2*phi3*phi4*phi5*psi10 (see params.tau).
PSI10_SCALE = -125 * SQ5


def psi10(u):
    """The odd (sign-flipping) degree-10 invariant: PSI10_SCALE times the
    product of the ten coordinate differences x_i - x_j, i < j."""
    return PSI10_SCALE * vandermonde_product(u_to_x(u))


def k_values(u):
    """Quotient parameters (K1, K2, K3), each one value per column on a
    stack; undefined on the quadric/cubic, and raises if any column lies on
    either."""
    u = as_complex(u)
    n = np.linalg.norm(u, axis=0)
    p2, p3, p4, p5 = (xk.sum(0) for xk in powers(u_to_x(u), 5)[1:])
    if (abs(p2) / n ** 2 < NEAR_ZERO).any():
        raise OnQuadric("K undefined where the quadratic invariant vanishes")
    if (abs(p3) / n ** 3 < NEAR_ZERO).any():
        raise OnCubic("K undefined where the cubic invariant vanishes")
    return (p4 / p2 ** 2, p3 ** 2 / p2 ** 3, p5 / (p2 * p3))
