"""Independent forms the tests check the library against: the quadratic
and cubic invariants written out in hyperplane coordinates, the reversed
gradients of the invariants, and the degree-5 map g11 collapses to on the
quadric.  Also a keyed view of the parametrized invariants and their
gradients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quintic_flow import params as pr
from quintic_flow.equivariants import f_basic, power_sum_like
from quintic_flow.geometry import HCT, R4, as_complex
from quintic_flow.invariants import SQ5


def phi2_explicit(u) -> complex:
    u1, u2, u3, u4 = as_complex(u)
    return 2 * (u1 * u4 + u2 * u3)


def phi3_explicit(u) -> complex:
    u1, u2, u3, u4 = as_complex(u)
    return (3 / SQ5) * (u1 * u2 ** 2 + u1 ** 2 * u3 + u3 ** 2 * u4 + u2 * u4 ** 2)


def grad_rev_phi(u, k: int) -> np.ndarray:
    """Reversed gradient of the degree-k invariant (proportional to
    phi_basic(u, k-1))."""
    x = HCT @ as_complex(u)
    return R4 @ (HCT.T @ (k * x ** (k - 1)))


def g11_on_quadric(x):
    """The degree-5 map g11 collapses to on the quadric."""
    F3 = power_sum_like(x, 3)
    F4 = power_sum_like(x, 4)
    return -0.5 * F3 ** 2 * (2 * F3 * f_basic(x, 2) - F4 * f_basic(x, 1))


@dataclass(frozen=True)
class ValueGrad:
    value: complex
    gradient: np.ndarray


def invariant_values_grads(pp, w) -> dict[int, ValueGrad]:
    """Values and exact gradients of the four parametrized invariants at w,
    keyed by degree."""
    values, grads = pr._values_grads(pp, as_complex(w))
    return {k: ValueGrad(complex(values[k - 2]), grads[k - 2])
            for k in (2, 3, 4, 5)}
