"""Independent forms the tests check the library against: the quadratic
and cubic invariants written out in hyperplane coordinates, the reversed
gradients of the invariants, and the degree-5 map g11 collapses to on the
quadric.  Also a keyed view of the parametrized invariants and their
gradients.  And the cell-by-cell loop that basins.symmetry_fraction
replaces."""
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


def symmetry_fraction_loop(portrait, cell_map, label_perm) -> float:
    """basins.symmetry_fraction one cell at a time: cell_map receives
    scalars."""
    xs, ys = portrait.grid.axes()
    nx, ny = portrait.grid.resolution
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    checked = 0
    consistent = 0
    for r in range(0, ny, 3):
        for c in range(0, nx, 3):
            lab = int(portrait.labels[r, c])
            if lab < 0:
                continue
            mx, my = cell_map(xs[c], ys[r])
            ic = int(round((mx - xs[0]) / dx))
            ir = int(round((my - ys[0]) / dy))
            if not (0 <= ic < nx and 0 <= ir < ny):
                continue
            other = int(portrait.labels[ir, ic])
            if other < 0:
                continue
            checked += 1
            if other == label_perm[lab]:
                consistent += 1
    return consistent / checked if checked else 1.0
