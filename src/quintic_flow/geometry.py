"""Coordinate primitives: the 5 <-> 4 change of basis, the chordal metric and
its capture radius, the membership tolerance, and affine charts on lines.

Points live in complex projective 3-space.  Two coordinate systems are used
throughout: ``x`` (5 homogeneous coordinates summing to zero, on which the
symmetric group acts by permutation) and ``u`` (4 hyperplane coordinates).
The unitary-row matrix ``H`` converts between them.

Functions that take points also take column stacks, coordinates on axis 0
and samples trailing: (4, N) for N hyperplane points, (5, N) for N
5-coordinate points.  A single point is the (n,) case of the same code, and
``H @``/``HCT @`` act on both, but BLAS takes other kernels for a vector
than for a matrix: a point matches its column of a stack only to roundoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OMEGA5 = np.exp(2j * np.pi / 5)
OMEGA3 = np.exp(2j * np.pi / 3)

# H[r, j] = omega5^((r+1) j) / sqrt(5); rows are orthonormal, H Hct = I_4.
H = np.array([[OMEGA5 ** ((r + 1) * j) for j in range(5)]
              for r in range(4)]) / np.sqrt(5)
HCT = H.conj().T

# reversed identity (antidiagonal); used by the reversed-gradient convention
R4 = np.eye(4)[::-1].copy()

INF = float("inf")

ZERO_TOL = 1e-300
# the one tolerance for lying on a special flat, a chart's line or the slice
MEMBER_TOL = 1e-10


class ZeroVector(ValueError):
    pass


class AnchorsCoincide(ValueError):
    pass


class AnchorsNotCollinear(ValueError):
    pass


def as_complex(v) -> np.ndarray:
    return np.asarray(v, dtype=complex)


def x_to_u(x) -> np.ndarray:
    """Hyperplane coordinates of a 5-coordinate point."""
    return H @ as_complex(x)


def u_to_x(u) -> np.ndarray:
    """5-coordinate representative of a hyperplane point (sums to zero)."""
    return HCT @ as_complex(u)


def chordal_distance(p, q):
    """Fubini-Study chordal distance sqrt(1 - |<p,q>|^2 / (|p|^2 |q|^2)).

    Computed as the norm of the component of p orthogonal to q, which avoids
    the catastrophic cancellation of the textbook formula near zero distance.
    On column stacks p, q of shape (n, ...) (broadcast against each other)
    it returns the distances column by column, shaped as the trailing axes.
    """
    p = as_complex(p)
    q = as_complex(q)
    np_, nq = np.linalg.norm(p, axis=0), np.linalg.norm(q, axis=0)
    if (np_ < ZERO_TOL).any() or (nq < ZERO_TOL).any():
        raise ZeroVector("chordal distance of a zero vector is undefined")
    ph, qh = p / np_, q / nq
    resid = ph - (qh.conj() * ph).sum(0) * qh
    return np.minimum(1.0, np.linalg.norm(resid, axis=0))


# The one closeness rule for an iterate X and a point a: chordal distance
# below CAPTURE, as |<a, X>|^2 > (1 - CAPTURE^2) |a|^2 |X|^2 (d^2 = 1e-8 is far
# above roundoff).  The maps superattract their five-points with local order
# at least 4 (z^4 on the mirror 10-lines): the next step moves X by roundoff.
CAPTURE = 1e-4


def span_coords(A, p):
    """Least-squares coefficients c with p ~ A @ c, and the relative residual
    |A @ c - p| / |p| that tells how far p lies off the span of A's columns.
    On a (n, N) stack p both come column by column."""
    p = as_complex(p)
    coef = np.linalg.lstsq(A, p, rcond=None)[0]
    return coef, np.linalg.norm(A @ coef - p, axis=0) / np.linalg.norm(p, axis=0)


@dataclass(frozen=True)
class LineChart:
    """Affine coordinate z on a projective line.

    chart_eval(0) is ``at_zero``, chart_eval(INF) is ``at_inf``; their
    scales fix the remaining freedom z -> c z.
    """
    at_zero: np.ndarray
    at_inf: np.ndarray


def line_chart(at_zero, at_inf, at_one) -> LineChart:
    """Build a chart from the anchor points placed at z = 0 and z = infinity.

    ``at_one``, a third anchor on their line, is placed at z = 1.
    """
    a0 = as_complex(at_zero)
    ai = as_complex(at_inf)
    if chordal_distance(a0, ai) < 1e-9:
        raise AnchorsCoincide(
            "0 and infinity anchor points are projectively equal")
    (s, t), res = span_coords(np.column_stack([a0, ai]), at_one)
    if res > MEMBER_TOL:
        raise AnchorsNotCollinear("z=1 anchor is not on the line")
    if abs(s) < 1e-13 or abs(t) < 1e-13:
        raise AnchorsCoincide("z=1 anchor coincides with 0 or infinity")
    return LineChart(s * a0, t * ai)


def chart_eval(chart: LineChart, z) -> np.ndarray:
    """The point at chart value z (INF gives ``at_inf``); on an array of N
    values, the (5, N) stack of their points."""
    z = as_complex(z)
    inf = ~np.isfinite(z)
    return (np.multiply.outer(chart.at_zero, np.where(inf, 0, 1))
            + np.multiply.outer(chart.at_inf, np.where(inf, 1, z)))


def chart_invert(chart: LineChart, p):
    """The chart value of a point on the line (INF at ``at_inf``); on a
    (5, N) stack, the array of the N values."""
    (s, t), res = span_coords(np.column_stack([chart.at_zero, chart.at_inf]), p)
    if np.any(res > MEMBER_TOL):
        raise AnchorsNotCollinear("point is not on the chart's line")
    at_inf = np.abs(s) < 1e-14 * np.abs(t)
    z = np.where(at_inf, INF, t / np.where(at_inf, 1, s))
    return z[()]
