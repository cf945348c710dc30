"""Symmetric invariants: power sums in both coordinate systems, the
hessian-derived forms G4/G5, the odd degree-10 invariant, and the quotient
parameters (K1, K2, K3).

``power_sum``/``phi``, ``grad_phi2``, ``hessian_phi3``, the determinant forms
``hessian_form_G4``/``bordered_form_G5`` and the power sums recovered from
them take a single point or a column stack (coordinates on axis 0, samples
on axis 1) and return one value per column.
"""
from __future__ import annotations

import numpy as np

from .geometry import as_complex, u_to_x

SQ5 = np.sqrt(5.0)
NEAR_ZERO = 1e-10


class OnQuadric(ValueError):
    pass


class OnCubic(ValueError):
    pass


def power_sum(x, k: int):
    """Sum of k-th powers of the 5 natural coordinates."""
    return (as_complex(x) ** k).sum(0)


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


def vandermonde_product(x) -> complex:
    x = as_complex(x)
    return complex(np.prod([x[i] - x[j] for i in range(5) for j in range(i + 1, 5)]))


# The degree-10 odd invariant is only defined up to scale; this scale makes
# the determinant of the parametrized coordinate change factor as
# phi2*phi3*phi4*phi5*psi10 (see params.tau).
PSI10_SCALE = -125 * SQ5


def psi10(u) -> complex:
    """The odd (sign-flipping) degree-10 invariant: PSI10_SCALE times the
    product of the ten coordinate differences x_i - x_j, i < j."""
    return PSI10_SCALE * vandermonde_product(u_to_x(u))


def k_values(u) -> tuple[complex, complex, complex]:
    """Quotient parameters (K1, K2, K3); undefined on the quadric/cubic."""
    u = as_complex(u)
    n = np.linalg.norm(u)
    p2, p3 = phi(u, 2), phi(u, 3)
    if abs(p2) / n ** 2 < NEAR_ZERO:
        raise OnQuadric("K undefined where the quadratic invariant vanishes")
    if abs(p3) / n ** 3 < NEAR_ZERO:
        raise OnCubic("K undefined where the cubic invariant vanishes")
    p4, p5 = phi(u, 4), phi(u, 5)
    return (p4 / p2 ** 2, p3 ** 2 / p2 ** 3, p5 / (p2 * p3))
