"""Symmetric (equivariant) maps: the generating maps in each coordinate
system, the degree-6 solver map, the two quadric-preserving degree-11 maps,
ruling coordinates on the quadric, and the library of restricted
one-dimensional maps with their published closed forms.

The maps on points (``f_basic``, ``phi_basic``, ``f6``, ``phi6``, ``h11``,
``g11``) also take column stacks, coordinates on axis 0 and samples on axis
1, and map every column in one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import H, HCT, as_complex
from .invariants import SQ5, phi, power_sum


class Indeterminate(ValueError):
    pass


class NotOnQuadric(ValueError):
    pass


class RankZero(ValueError):
    pass


class UnknownName(KeyError):
    pass


def f_basic(x, k: int):
    """Generating degree-k equivariant in 5-coordinate form:
    component i is -4 x_i^k + sum_{j != i} x_j^k."""
    xk = x ** k
    return -5 * xk + xk.sum(0)


def phi_basic(u, k: int) -> np.ndarray:
    """Generating equivariant in hyperplane coordinates (H-conjugate of
    f_basic; equals -(5/(k+1)) times the reversed gradient of the degree-(k+1)
    invariant)."""
    return H @ f_basic(HCT @ as_complex(u), k)


def f6(x):
    """Degree-6 solver map in 5-coordinate form.

    Powers are repeated products, so a (5, N) stack costs a few array
    multiplies per power."""
    x2 = x * x
    F2, F3 = x2.sum(0), (x2 * x).sum(0)
    F4, F5 = (x2 * x2).sum(0), (x2 * x2 * x).sum(0)
    c1 = 2 * (9 * F2 * F3 - 10 * F5)
    c2 = -2 * (F2 * F2 - 5 * F4)
    return (c1 * (-5 * x + x.sum(0)) + c2 * (-5 * x2 + F2)
            + 20 * F3 * (-5 * x2 * x + F3)
            + 15 * F2 * (-5 * x2 * x2 + F4)) / (2 * SQ5)


def phi6(u) -> np.ndarray:
    """Degree-6 solver map on hyperplane coordinates.

    Superattracts the five-point orbit; this is the map whose conjugates the
    solver iterates.  Normalized to match phi6_explicit exactly.  Raises
    Indeterminate if the image of any column vanishes.
    """
    u = as_complex(u)
    img = H @ f6(HCT @ u)
    if np.abs(img).max(0).min() < 1e-300:
        raise Indeterminate("image vanishes; input is a point of indeterminacy")
    return img


def phi6_explicit(u) -> np.ndarray:
    """Fully expanded coordinate form of phi6 (independent evaluation path,
    used for cross-checking)."""
    u1, u2, u3, u4 = as_complex(u)
    c1 = (2*u1**6 - 4*u1*u2**5 - 74*u1**2*u2**3*u3 - 46*u1**3*u2*u3**2
          - 14*u2**2*u3**4 - 2*u1*u3**5 - 38*u1**3*u2**2*u4 - 44*u1**4*u3*u4
          - 50*u2**3*u3**2*u4 - 122*u1*u2*u3**3*u4 - 14*u2**4*u4**2
          - 152*u1*u2**2*u3*u4**2 - 68*u1**2*u3**2*u4**2 - 72*u1**2*u2*u4**3
          - 22*u3**3*u4**3 - 29*u2*u3*u4**4 - u1*u4**5)
    c2 = (-2*u1**5*u2 + 2*u2**6 - 44*u1*u2**4*u3 - 68*u1**2*u2**2*u3**2
          - 22*u1**3*u3**3 - u2*u3**5 - 46*u1**2*u2**3*u4 - 122*u1**3*u2*u3*u4
          - 72*u2**2*u3**3*u4 - 29*u1*u3**4*u4 - 14*u1**4*u4**2
          - 38*u2**3*u3*u4**2 - 152*u1*u2*u3**2*u4**2 - 74*u1*u2**2*u4**3
          - 50*u1**2*u3*u4**3 - 14*u3**2*u4**4 - 4*u2*u4**5)
    c3 = (-14*u1**4*u2**2 - 4*u1**5*u3 - u2**5*u3 - 72*u1*u2**3*u3**2
          - 38*u1**2*u2*u3**3 + 2*u3**6 - 29*u1*u2**4*u4
          - 152*u1**2*u2**2*u3*u4 - 74*u1**3*u3**2*u4 - 44*u2*u3**4*u4
          - 50*u1**3*u2*u4**2 - 68*u2**2*u3**2*u4**2 - 46*u1*u3**3*u4**2
          - 22*u2**3*u4**3 - 122*u1*u2*u3*u4**3 - 14*u1**2*u4**4 - 2*u3*u4**5)
    c4 = (-22*u1**3*u2**3 - 29*u1**4*u2*u3 - 14*u2**4*u3**2 - 50*u1*u2**2*u3**3
          - 14*u1**2*u3**4 - u1**5*u4 - 2*u2**5*u4 - 122*u1*u2**3*u3*u4
          - 152*u1**2*u2*u3**2*u4 - 4*u3**5*u4 - 68*u1**2*u2**2*u4**2
          - 72*u1**3*u3*u4**2 - 74*u2*u3**3*u4**2 - 46*u2**2*u3*u4**3
          - 38*u1*u3**2*u4**3 - 44*u1*u2*u4**4 + 2*u4**6)
    return np.array([c1, c2, c3, c4])


def h11(x):
    """Degree-11 map with the octahedral 20-point orbit as its attractor.

    Self-maps the quadric (on which it is everywhere critical), acts as
    -1/z^2 pipes along the 10-lines, and blows up a long list of special
    points.  Accepts 5-coordinate input.
    """
    F2, F3, F4, F5 = (power_sum_like(x, k) for k in (2, 3, 4, 5))
    f = lambda k: f_basic(x, k)
    return ((-21*F2**5 + 56*F2**2*F3**2 + 66*F2**3*F4 + 48*F3**2*F4
             - 48*F2*F4**2 - 96*F2*F3*F5) * f(1)
            - 24*(4*F3**3 - 9*F2*F3*F4 + 3*F2**2*F5) * f(2)
            + 12*(5*F2**4 + 8*F2*F3**2 - 10*F2**2*F4) * f(3)
            - 96*F2**2*F3 * f(4))


_G11_ALPHA_SLOTS = (1, 2, 3, 5, 6, 8, 10, 11, 13, 14, 15, 18, 20)


def g11(x, alphas: Optional[dict] = None):
    """Degree-11 ruling-preserving family on the quadric.

    ``alphas`` maps parameter slot (one of 1,2,3,5,6,8,10,11,13,14,15,18,20)
    to a complex value; unspecified slots are 0.  Accepts 5-coordinate input.
    """
    a = {k: 0.0 for k in _G11_ALPHA_SLOTS}
    if alphas:
        bad = set(alphas) - set(_G11_ALPHA_SLOTS)
        if bad:
            raise ValueError(f"unknown parameter slots: {sorted(bad)}")
        a.update(alphas)
    F2, F3, F4, F5 = (power_sum_like(x, k) for k in (2, 3, 4, 5))
    f = lambda k: f_basic(x, k)
    return (4*(16*a[1]*F2**5 + 16*a[2]*F2**2*F3**2 + 16*a[3]*F2**3*F4
               + 67*F3**2*F4 + 16*a[5]*F2*F4**2 + 16*a[6]*F2*F3*F5
               + 45*F5**2) * f(1)
            + 4*(16*a[8]*F2**3*F3 + 16*F3**3 + 16*a[10]*F2*F3*F4
                 + 16*a[11]*F2**2*F5 - 135*F4*F5) * f(2)
            + (64*a[13]*F2**4 + 64*a[14]*F2*F3**2 + 64*a[15]*F2**2*F4
               + 405*F4**2 - 720*F3*F5) * f(3)
            + 4*(16*a[18]*F2**2*F3 - 225*F3*F4 + 16*a[20]*F2*F5) * f(4))


def power_sum_like(x, k: int):
    """Power sum over axis 0 that also works on dual numbers."""
    return (x ** k).sum(0)


def ruling_coords(u, tol: float = 1e-10):
    """Homogeneous coordinates of the two ruling lines through a quadric
    point: a solves a^T U = 0, b solves U b = 0 for U = [[u1,-u2],[u3,u4]]."""
    u = as_complex(u)
    n2 = np.linalg.norm(u) ** 2
    if abs(phi(u, 2)) / n2 > tol:
        raise NotOnQuadric("ruling coordinates only exist on the quadric")
    u1, u2, u3, u4 = u
    U = np.array([[u1, -u2], [u3, u4]])
    if np.abs(U).max() < 1e-300:
        raise RankZero("zero matrix; invalid projective point")
    # rank is 1 on the quadric: read kernels off the larger row/column
    r0, r1 = U[0], U[1]
    b = np.array([r0[1], -r0[0]]) if np.abs(r0).max() >= np.abs(r1).max() \
        else np.array([r1[1], -r1[0]])
    c0, c1 = U[:, 0], U[:, 1]
    a = np.array([c0[1], -c0[0]]) if np.abs(c0).max() >= np.abs(c1).max() \
        else np.array([c1[1], -c1[0]])
    return a, b


# ---------------------------------------------------------------------------
# restricted one-dimensional maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedMap1D:
    """A rational self-map of CP^1 in homogeneous pair form.

    num/den are coefficient arrays of the homogeneous numerator and
    denominator: N(z1, z2) = sum num[i] z1^(d-i) z2^i, likewise den.
    """
    name: str
    degree: int
    num: np.ndarray
    den: np.ndarray
    note: str = ""

    def pair(self, z1: complex, z2: complex) -> tuple[complex, complex]:
        d = self.degree
        mono = np.array([z1 ** (d - i) * z2 ** i for i in range(d + 1)])
        return complex(self.num @ mono), complex(self.den @ mono)

    def __call__(self, z: complex) -> complex:
        n, d = self.pair(complex(z), 1.0)
        if d == 0:
            return complex(np.inf)
        return n / d


def _rm(name, degree, num, den, note=""):
    return RestrictedMap1D(name, degree,
                           np.asarray(num, dtype=complex),
                           np.asarray(den, dtype=complex), note)


_REGISTRY: dict[str, RestrictedMap1D] = {}
for m in [
    # z -> z^4 (solver map along a 10-line, five-points at 0 and infinity)
    _rm("power4", 4, [1, 0, 0, 0, 0], [0, 0, 0, 0, 1],
        "superattracting fixed points at 0 and infinity"),
    # z -> -1/z^2 (degree-11 octahedral map along 10-lines, 20-points at 0/inf)
    _rm("inverse_square", 2, [0, 0, -1], [1, 0, 0],
        "exchanges 0 and infinity; chaotic on the unit circle"),
    # solver map along a 15-line: 48 z^5 / (-3 - z^2 + 35 z^4 + 17 z^6)
    _rm("f6_line15", 6, [0, 48, 0, 0, 0, 0, 0], [17, 0, 35, 0, -1, 0, -3],
        "five-point at 0, fifteen-point at infinity, ten-points at +-1"),
    # h11 along a 15-line: (19 z^2 - 9) / (z^2 (9 z^2 - 19))
    _rm("h11_line15", 4, [0, 0, 19, 0, -9], [9, 0, -19, 0, 0],
        "period-2 pair at 0/inf, attracting fixed points at +-1"),
    # h11 along a 30-line: -(11 z^2 + 9) / (z^2 (9 z^2 + 11))
    _rm("h11_line30", 4, [0, 0, -11, 0, -9], [9, 0, 11, 0, 0],
        "period-2 pair at 0/inf"),
    # h11 along the mirror 15-line: z (z^2 + 6) / (6 z^2 + 1)
    _rm("h11_m15", 3, [1, 0, 6, 0], [0, 6, 0, 1],
        "fixed line; attracting fixed points off 0/inf"),
    # g11 on an S3-symmetric conic: (7 sqrt5 z^3 + 5i) / (z^2 (5i z^3 + 7 sqrt5))
    _rm("g11_conic10", 5, [0, 0, 7 * SQ5, 0, 0, 5j],
        [5j, 0, 0, 7 * SQ5, 0, 0],
        "single full-measure basin of the period-2 pair 0/inf"),
    # octahedral degree-5 vertex map: (5z - z^5) / (5 z^4 - 1).  Its critical
    # points solve z^8 + 14 z^4 + 1 = 0 (the cube vertices) and each maps to
    # its antipode, giving four superattracting period-2 pairs.
    _rm("octahedral5", 5, [-1, 0, 0, 0, 5, 0], [0, 5, 0, 0, 0, -1],
        "four period-2 superattracting antipodal pairs (cube vertices)"),
    # dodecahedral degree-11 ruling map
    _rm("dodeca11", 11,
        [-1, 0, 0, 0, 0, 66, 0, 0, 0, 0, 11, 0],
        [0, 11, 0, 0, 0, 0, -66, 0, 0, 0, 0, -1],
        "ten period-2 superattracting antipodal vertex pairs"),
]:
    _REGISTRY[m.name] = m


def g11_affine(x: complex, y: complex) -> tuple[complex, complex]:
    """g11 on the affine quadric chart (two complex coordinates)."""
    return ((x**2 + 3*y - 2*x*y**3) / (2*x + 3*x**2*y**2 - y**3),
            (3*x**2 + 2*y + x**3*y**2) / (1 + 2*x**3*y - 3*x*y**2))


def restricted_map(name: str) -> RestrictedMap1D:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownName(f"no restricted map named {name!r}; "
                          f"known: {sorted(_REGISTRY)}") from None


def restricted_map_names() -> list[str]:
    return sorted(_REGISTRY)
