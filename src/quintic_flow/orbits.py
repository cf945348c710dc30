"""Named special orbits: distinguished points, lines, and planes of the
group action, plus incidence checks on the configuration they form.

A descriptor is a kind, its index groups (tokens of distinct 1-based
coordinate indices, no index in two groups) and, for some points, a
variant, joined by ``_``; tokens after those are ignored.  The first
group's length picks the kind's shape, the lengths of all its groups.
- Points (``p5_1``, ``p10_45_2``, ``q20_123_1``): the kind's values for the
  shape (``_POINTS``) go to the groups' indices, then to the other indices
  in increasing order.  A variant picks p10's values, and a 2 conjugates a
  q-kind's.  ``q24`` is written by exponents of OMEGA5 (``q24_1234``).
- Planes ``L2_5_i``, ``L2_10_ij``, ``M2_10_ij``: {x_i = 0}, {x_i = x_j},
  {x_i = -x_j} inside {sum x = 0}, normals from ``_PLANES``.
- Lines ``L1_10_ij``, ``M1_10_ijk``, ``L1_15_ij_kl``, ``M1_15_ij_kl``,
  ``L1_30_i_jk``: where two of those planes meet (``_LINES``).
A group of the wrong length or a shared index raises BadIndices; an unknown
kind or variant, or a missing or malformed token, raises UnknownDescriptor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from .geometry import (OMEGA3, OMEGA5, as_complex, chordal_distance,
                       span_coords, x_to_u)
from . import group

ALPHA = (-3 + np.sqrt(15) * 1j) / 2
BETA = (-2 + np.sqrt(5) * 1j) / 3
GAMMA = -1 + np.sqrt(2) * 1j

MEMBER_TOL = 1e-10


class UnknownDescriptor(ValueError):
    pass


class BadIndices(ValueError):
    pass


@dataclass(frozen=True)
class SpecialPoint:
    descriptor: str
    x: np.ndarray
    orbit_size: int

    @property
    def u(self) -> np.ndarray:
        return x_to_u(self.x)

    @property
    def stabilizer_order(self) -> int:
        return 120 // self.orbit_size


@dataclass(frozen=True)
class SpecialPlane:
    descriptor: str
    normal: np.ndarray  # plane is {normal . x = 0} inside {sum x = 0}

    def contains(self, x) -> bool:
        x = as_complex(x)
        return abs(self.normal @ x) / (np.linalg.norm(self.normal)
                                       * np.linalg.norm(x)) < MEMBER_TOL


@dataclass(frozen=True)
class SpecialLine:
    descriptor: str
    span: tuple[np.ndarray, np.ndarray]  # two 5-coordinate spanning points
    orbit_size: int

    def contains(self, x) -> bool:
        return span_coords(np.column_stack(self.span), x)[1] < MEMBER_TOL


def _index_groups(descriptor: str, toks: list[str], shapes):
    """The shape among ``shapes`` that the first token's length picks, else
    the first, and the indices of the groups in order."""
    lengths = next((s for s in shapes if s[0] == len(toks[0])),
                   next(iter(shapes)))
    order: list[int] = []
    for n, tok in zip(lengths, toks):
        ix = [int(c) - 1 for c in tok]
        free = set(range(5)) - set(order)
        if len(ix) != n or len(set(ix)) != n or not free.issuperset(ix):
            raise BadIndices(descriptor)
        order += ix
    if len(toks) < len(lengths):
        raise UnknownDescriptor(descriptor)
    return lengths, order


def _descriptor_errors(parse):
    """A missing, unknown or malformed token raises UnknownDescriptor."""
    @wraps(parse)
    def parsed(descriptor: str):
        try:
            return parse(descriptor)
        except (IndexError, KeyError, ValueError) as exc:
            if isinstance(exc, (UnknownDescriptor, BadIndices)):
                raise
            raise UnknownDescriptor(descriptor) from exc
    return parsed


# Each point kind's orbit size and coordinate values per shape.  The q20 and
# q30 (1, 2) values are complex throughout, so a conjugate flips the signs of
# their zero imaginary parts too; the other integers stay as they are.
_POINTS = {
    "p5": (5, {(1,): (-4, 1, 1, 1, 1)}),
    "p10": (10, {(2,): {"1": (1, -1, 0, 0, 0), "2": (-3, -3, 2, 2, 2)}}),
    "p15": (15, {(1, 2): (0, 1, 1, -1, -1)}),
    "p20": (20, {(1, 3): (0, 1, 1, 1, -3)}),
    "p30": (30, {(2, 2): (0, 0, 1, 1, -2)}),
    "q20": (20, {(2,): (0j, 0j, 1 + 0j, OMEGA3, OMEGA3 ** 2),
                 (3,): (1 + 0j, 1 + 0j, 1 + 0j, ALPHA, np.conj(ALPHA))}),
    "q30": (30, {(1, 2): (0j, 1 + 0j, -1 + 0j, 1j, -1j),
                 (2, 2): (1, 1, BETA, BETA, -2 * (1 + BETA))}),
    "q60": (60, {(1, 2): (0, 1, 1, GAMMA, np.conj(GAMMA))}),
}


@_descriptor_errors
def point(descriptor: str) -> SpecialPoint:
    """Representative of a named special point, indices permuted as asked."""
    kind, *toks = descriptor.split("_")
    if kind == "q24":
        exps = [int(c) for c in toks[0]] if toks else [1, 2, 3, 4]
        if sorted(exps) != [1, 2, 3, 4]:
            raise BadIndices(descriptor)
        x = np.array([1] + [OMEGA5 ** e for e in exps], dtype=complex)
        return SpecialPoint(descriptor, x, 24)
    size, shapes = _POINTS[kind]
    lengths, order = _index_groups(descriptor, toks, shapes)
    values = shapes[lengths]
    if kind == "p10":
        values = values[toks[len(lengths)]]
    elif kind[0] == "q" and toks[len(lengths)] == "2":
        values = [v.conjugate() for v in values]
    x = np.zeros(5, dtype=complex)
    x[order + [i for i in range(5) if i not in order]] = values
    return SpecialPoint(descriptor, x, size)


# Each plane kind's normal coefficients, one per index of its group.
_PLANES = {"L2_5": (1,), "L2_10": (1, -1), "M2_10": (1, 1)}


def _normal(kind: str, ix: list[int]) -> np.ndarray:
    n = np.zeros(5)
    n[ix] = _PLANES[kind]
    return n


@_descriptor_errors
def plane(descriptor: str) -> SpecialPlane:
    toks = descriptor.split("_")
    kind = "_".join(toks[:2])
    _, order = _index_groups(descriptor, toks[2:], [(len(_PLANES[kind]),)])
    return SpecialPlane(descriptor, _normal(kind, order))


# Each line kind's orbit size, group lengths and two defining planes, each a
# plane kind and the positions of its indices in the groups' indices.
_LINES = {
    "L1_10": (10, (2,), (("L2_5", (0,)), ("L2_5", (1,)))),
    "M1_10": (10, (3,), (("L2_10", (0, 1)), ("L2_10", (0, 2)))),
    "L1_15": (15, (2, 2), (("L2_10", (0, 1)), ("L2_10", (2, 3)))),
    "M1_15": (15, (2, 2), (("M2_10", (0, 1)), ("M2_10", (2, 3)))),
    "L1_30": (30, (1, 2), (("L2_5", (0,)), ("L2_10", (1, 2)))),
}


@_descriptor_errors
def line(descriptor: str) -> SpecialLine:
    """A special line built as the intersection of its defining planes: the
    2-dim solution space of {sum x = 0} and their normals."""
    toks = descriptor.split("_")
    size, lengths, planes = _LINES["_".join(toks[:2])]
    _, order = _index_groups(descriptor, toks[2:], [lengths])
    A = np.array([np.ones(5)] + [_normal(kind, [order[p] for p in pos])
                                 for kind, pos in planes], dtype=complex)
    _, _, vh = np.linalg.svd(A)
    return SpecialLine(descriptor, tuple(vh.conj()[len(A):]), size)


# --- line orbit machinery ---------------------------------------------------

_PLUCKER = np.triu_indices(4, 1)   # the six row pairs i < j of a 4 x 2 span


def _plucker(A) -> np.ndarray:
    """Plücker coordinates of the lines spanned by the two columns of
    (..., 4, 2) matrices: the six 2 x 2 minors on rows i < j, on the last
    axis.  They fix the line up to a common scale (the determinant of a
    change of spanning pair)."""
    i, j = _PLUCKER
    return A[..., i, 0] * A[..., j, 1] - A[..., j, 0] * A[..., i, 1]


def _span_distances(u0, u1) -> np.ndarray:
    """Chordal distances, in all_elements() order, from the Plücker
    coordinates of the 120 images of the line span{u0, u1} to its own."""
    span = as_complex(np.column_stack([u0, u1]))
    images = _plucker(group.all_matrices() @ span)     # (120, 6)
    return chordal_distance(images.T, _plucker(span)[:, None])


def _span_orbit_size(u0, u1) -> int:
    """Number of distinct images of the line span{u0, u1} under the group.

    The stabilizer is the elements whose image's Plücker coordinates lie
    within 1e-8 of the line's own in chordal distance; the images are as
    many as its cosets (see group.orbit).
    """
    return len(group.cosets(_span_distances(u0, u1) < 1e-8))


def line_orbit_size(ln: SpecialLine) -> int:
    return _span_orbit_size(x_to_u(ln.span[0]), x_to_u(ln.span[1]))


def _ruling_line_span(q_descriptor: str) -> tuple[np.ndarray, np.ndarray]:
    """Two u-space points spanning the a-ruling line through a named
    quadric point."""
    from .equivariants import ruling_coords

    p = point(q_descriptor)
    a, _ = ruling_coords(p.u)
    # the a-line: {a1 u1 + a2 u3 = 0, -a1 u2 + a2 u4 = 0}
    A = np.array([[a[0], 0, a[1], 0], [0, -a[0], 0, a[1]]], dtype=complex)
    _, _, vh = np.linalg.svd(A)
    return vh.conj()[2], vh.conj()[3]


def ruling_line_orbit_size(q_descriptor: str) -> int:
    """Size of the orbit of the a-ruling line through a named quadric point."""
    return _span_orbit_size(*_ruling_line_span(q_descriptor))


# Incidence rows: a name, its lines, the points each line must contain and
# the points each line must not contain.
_INCIDENCES = (
    ("three_15_lines_at_5_point",
     ("L1_15_23_45", "L1_15_24_35", "L1_15_25_34"), ("p5_1",), ()),
    ("one_5_point_on_15_line",
     ("L1_15_23_45",), ("p5_1",), ("p5_2", "p5_3", "p5_4", "p5_5")),
    ("three_15_lines_at_10_point",
     ("L1_15_12_34", "L1_15_12_35", "L1_15_12_45"), ("p10_12_2",), ()),
    ("two_10_points_on_15_line",
     ("L1_15_12_34",), ("p10_12_2", "p10_34_2"), ()),
    ("m10_line_contains_both_5_points", ("M1_10_123",), ("p5_4", "p5_5"), ()),
)


def verify_configuration() -> dict[str, bool]:
    """Incidence checks on the special configuration; True means verified."""
    report: dict[str, bool] = {}
    for name, lines, on, off in _INCIDENCES:
        on, off = ([point(d).x for d in ds] for ds in (on, off))
        report[name] = all(all(ln.contains(x) for x in on)
                           and not any(ln.contains(x) for x in off)
                           for ln in map(line, lines))

    for desc in ("L1_10_12", "M1_10_123", "L1_15_12_34", "M1_15_12_34",
                 "L1_30_1_23"):
        ln = line(desc)
        report[f"orbit_size_{desc[:5]}"] = line_orbit_size(ln) == ln.orbit_size

    for desc, size in [("q20_12_1", 40), ("q24", 24), ("q30_1_24_1", 60)]:
        report[f"quadric_line_orbit_{desc}"] = ruling_line_orbit_size(desc) == size

    return report
