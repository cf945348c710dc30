"""Coordinate primitives: the 5 <-> 4 change of basis, projective
normalization, the chordal metric, and affine charts on lines.

Points live in complex projective 3-space.  Two coordinate systems are used
throughout: ``x`` (5 homogeneous coordinates summing to zero, on which the
symmetric group acts by permutation) and ``u`` (4 hyperplane coordinates).
The unitary-row matrix ``H`` converts between them.

Functions that take points also take column stacks: coordinates on axis 0
and samples on the trailing axes, so a stack of N hyperplane points has
shape (4, N) and a stack of 5-coordinate points shape (5, N).  ``H @`` and
``HCT @`` act on a single point and on a (n, N) stack alike.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
TIE_TOL = 1e-12
LINE_TOL = 1e-10


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


def normalize(u) -> np.ndarray:
    """Scale so the largest-modulus coordinate is 1.

    Ties within TIE_TOL of the max modulus break toward the lowest index,
    making the representative deterministic.
    """
    u = as_complex(u)
    mags = np.abs(u)
    top = mags.max()
    if top < ZERO_TOL:
        raise ZeroVector("cannot normalize a (near-)zero vector")
    pivot = int(np.nonzero(mags >= top * (1 - TIE_TOL))[0][0])
    return u / u[pivot]


def chordal_distance(p, q):
    """Fubini-Study chordal distance sqrt(1 - |<p,q>|^2 / (|p|^2 |q|^2)).

    Computed as the norm of the component of p orthogonal to q, which avoids
    the catastrophic cancellation of the textbook formula near zero distance.
    On column stacks p, q of shape (n, ...) (broadcast against each other)
    it returns the distances column by column, shaped as the trailing axes.
    """
    p = as_complex(p)
    q = as_complex(q)
    if p.ndim == 1 and q.ndim == 1:
        # The solver calls this once per phi_K step: this path costs about
        # half of the stack formula below on a single pair of 4-vectors.
        np_, nq = np.linalg.norm(p), np.linalg.norm(q)
        if np_ < ZERO_TOL or nq < ZERO_TOL:
            raise ZeroVector("chordal distance of a zero vector is undefined")
        ph, qh = p / np_, q / nq
        resid = ph - np.vdot(qh, ph) * qh
        return float(min(1.0, np.linalg.norm(resid)))
    np_, nq = np.linalg.norm(p, axis=0), np.linalg.norm(q, axis=0)
    if np_.min() < ZERO_TOL or nq.min() < ZERO_TOL:
        raise ZeroVector("chordal distance of a zero vector is undefined")
    ph, qh = p / np_, q / nq
    resid = ph - (qh.conj() * ph).sum(0) * qh
    return np.minimum(1.0, np.linalg.norm(resid, axis=0))


def projectively_equal(p, q, tol: float = 1e-9) -> bool:
    return chordal_distance(p, q) < tol


def _span_coords(basis0, basis1, p):
    """Least-squares coefficients (s, t) with p ~ s*basis0 + t*basis1,
    plus the off-line residual (relative)."""
    A = np.column_stack([basis0, basis1])
    coef, *_ = np.linalg.lstsq(A, p, rcond=None)
    res = np.linalg.norm(A @ coef - p) / np.linalg.norm(p)
    return coef[0], coef[1], res


@dataclass(frozen=True)
class LineChart:
    """Affine coordinate z on a projective line.

    chart_eval(0) is ``at_zero``, chart_eval(INF) is ``at_inf``; optional
    extra anchors pin the remaining scale freedom (z -> c z).
    """
    at_zero: np.ndarray
    at_inf: np.ndarray
    anchors: dict = field(default_factory=dict)


def line_chart(at_zero, at_inf, at_one=None, at_plus_minus_one=None) -> LineChart:
    """Build a chart from anchor points.

    ``at_one`` places a third point at z=1.  ``at_plus_minus_one`` is a pair
    placed at z=+1 and z=-1 (symmetric convention); the pair must actually sit
    symmetrically on the line through the 0/infinity anchors.
    """
    a0 = as_complex(at_zero)
    ai = as_complex(at_inf)
    if chordal_distance(a0, ai) < 1e-9:
        raise AnchorsCoincide("0 and infinity anchors are projectively equal")
    anchors = {0: a0, INF: ai}
    if at_one is not None and at_plus_minus_one is not None:
        raise ValueError("give at most one scale-fixing convention")
    if at_one is not None:
        p = as_complex(at_one)
        s, t, res = _span_coords(a0, ai, p)
        if res > LINE_TOL:
            raise AnchorsNotCollinear("z=1 anchor is not on the line")
        if abs(s) < 1e-13 or abs(t) < 1e-13:
            raise AnchorsCoincide("z=1 anchor coincides with 0 or infinity")
        a0, ai = s * a0, t * ai
        anchors[1] = p
    elif at_plus_minus_one is not None:
        pp, pm = (as_complex(v) for v in at_plus_minus_one)
        s, t, res = _span_coords(a0, ai, pp)
        if res > LINE_TOL:
            raise AnchorsNotCollinear("z=+1 anchor is not on the line")
        a0, ai = s * a0, t * ai
        if chordal_distance(a0 - ai, pm) > 1e-8:
            raise AnchorsNotCollinear("z=-1 anchor does not sit opposite z=+1")
        anchors[1] = pp
        anchors[-1] = pm
    return LineChart(a0, ai, anchors)


def chart_eval(chart: LineChart, z) -> np.ndarray:
    if z == INF or (isinstance(z, complex) and not np.isfinite(z)):
        return chart.at_inf.copy()
    return chart.at_zero + complex(z) * chart.at_inf


def chart_invert(chart: LineChart, p) -> complex | float:
    p = as_complex(p)
    s, t, res = _span_coords(chart.at_zero, chart.at_inf, p)
    if res > LINE_TOL:
        raise AnchorsNotCollinear("point is not on the chart's line")
    if abs(s) < 1e-14 * abs(t):
        return INF
    return complex(t / s)
