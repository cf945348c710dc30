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
  {x_i = -x_j} inside {sum x = 0}.
- Lines ``L1_10_ij``, ``M1_10_ijk``, ``L1_15_ij_kl``, ``M1_15_ij_kl``,
  ``L1_30_i_jk``: where two of those planes meet.
Planes and lines are one type, a special flat, read from one table
(``_FLATS``) and kept as the forms that cut them out: sum x, then the
normals of the defining planes.  ``plane`` takes only plane kinds and
``line`` only line kinds.
A group of the wrong length or a shared index raises BadIndices; an unknown
kind or variant, or a missing or malformed token, raises UnknownDescriptor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, wraps

import numpy as np

from .equivariants import ruling_coords
from .geometry import (HCT, MEMBER_TOL, OMEGA3, OMEGA5, as_complex,
                       chordal_distance, x_to_u)
from . import group

ALPHA = (-3 + np.sqrt(15) * 1j) / 2
BETA = (-2 + np.sqrt(5) * 1j) / 3
GAMMA = -1 + np.sqrt(2) * 1j


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


def _on(forms, x):
    """Whether x, or each column of a (5, N) stack, lies where every row f
    of ``forms`` vanishes: |f . x| < MEMBER_TOL |f| |x| for each f."""
    x = as_complex(x)
    return (abs(forms @ x) < MEMBER_TOL * np.multiply.outer(
        np.linalg.norm(forms, axis=-1), np.linalg.norm(x, axis=0))).all(0)


@dataclass(frozen=True)
class SpecialFlat:
    descriptor: str
    forms: np.ndarray  # (2, 5) or (3, 5): sum x, then each defining normal
    orbit_size: int

    def contains(self, x):
        return _on(self.forms, x)


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


# Each plane and line kind's orbit size, group lengths and the normals of
# its defining planes (one for a plane, two for a line), each a coefficient
# per index of the groups, in order.
_FLATS = {
    "L2_5": (5, (1,), ((1,),)),
    "L2_10": (10, (2,), ((1, -1),)),
    "M2_10": (10, (2,), ((1, 1),)),
    "L1_10": (10, (2,), ((1, 0), (0, 1))),
    "M1_10": (10, (3,), ((1, -1, 0), (1, 0, -1))),
    "L1_15": (15, (2, 2), ((1, -1, 0, 0), (0, 0, 1, -1))),
    "M1_15": (15, (2, 2), ((1, 1, 0, 0), (0, 0, 1, 1))),
    "L1_30": (30, (1, 2), ((1, 0, 0), (0, 1, -1))),
}


def _flat(descriptor: str, planes: int) -> SpecialFlat:
    """The flat of a kind cut out by ``planes`` defining planes: sum x and
    their normals."""
    toks = descriptor.split("_")
    size, lengths, normals = _FLATS["_".join(toks[:2])]
    if len(normals) != planes:
        raise UnknownDescriptor(descriptor)
    _, order = _index_groups(descriptor, toks[2:], [lengths])
    forms = np.zeros((1 + planes, 5), dtype=complex)
    forms[0] = 1
    forms[1:, order] = normals
    return SpecialFlat(descriptor, forms, size)


@_descriptor_errors
def plane(descriptor: str) -> SpecialFlat:
    """A special plane as the forms that cut it out: sum x and its normal."""
    return _flat(descriptor, 1)


@_descriptor_errors
def line(descriptor: str) -> SpecialFlat:
    """A special line as the forms that cut it out: sum x and the normals of
    its two defining planes."""
    return _flat(descriptor, 2)


# --- line orbit machinery ---------------------------------------------------

_PLUCKER = np.triu_indices(4, 1)   # the six row pairs i < j of a 4 x 2 matrix


def _plucker(A) -> np.ndarray:
    """Plücker coordinates of the planes spanned by the two columns of
    (..., 4, 2) matrices, on the last axis: the six 2 x 2 minors on rows
    i < j, which fix the plane up to a common scale."""
    i, j = _PLUCKER
    return A[..., i, 0] * A[..., j, 1] - A[..., j, 0] * A[..., i, 1]


def _form_distances(F) -> np.ndarray:
    """Chordal distances, in all_elements() order, from the Plücker
    coordinates of the 120 images of the line {F u = 0} (F: (2, 4)) to its
    own.  Element g maps it to {F g^H u = 0}, with forms conj(g) F^T."""
    images = _plucker(group.all_matrices().conj() @ F.T)     # (120, 6)
    return chordal_distance(images.T, _plucker(F.T)[:, None])


def _line_orbit_size(F) -> int:
    """Number of distinct images of the line {F u = 0}, one per coset of its
    stabilizer: the elements moving it less than DEDUP_TOL, as for a point."""
    return len(group.cosets(_form_distances(F) < group.DEDUP_TOL))


def line_orbit_size(ln: SpecialFlat) -> int:
    return _line_orbit_size(ln.forms[1:] @ HCT)   # sum x is 0 on u-space


def _ruling_line_forms(q_descriptor: str) -> np.ndarray:
    """The two u-space forms of the a-ruling line through a named quadric
    point: {a1 u1 + a2 u3 = 0, -a1 u2 + a2 u4 = 0}."""
    a, _ = ruling_coords(point(q_descriptor).u)
    return np.array([[a[0], 0, a[1], 0], [0, -a[0], 0, a[1]]], dtype=complex)


def ruling_line_orbit_size(q_descriptor: str) -> int:
    """Size of the orbit of the a-ruling line through a named quadric point."""
    return _line_orbit_size(_ruling_line_forms(q_descriptor))


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
    line_once = cache(line)
    report: dict[str, bool] = {}
    for name, lines, on, off in _INCIDENCES:
        stack = np.column_stack([point(d).x for d in on + off])
        hit = np.array([line_once(d).contains(stack) for d in lines])
        report[name] = hit[:, :len(on)].all() and not hit[:, len(on):].any()

    for desc in ("L1_10_12", "M1_10_123", "L1_15_12_34", "M1_15_12_34",
                 "L1_30_1_23"):
        ln = line_once(desc)
        report[f"orbit_size_{desc[:5]}"] = line_orbit_size(ln) == ln.orbit_size

    for desc, size in [("q20_12_1", 40), ("q24", 24), ("q30_1_24_1", 60)]:
        report[f"quadric_line_orbit_{desc}"] = ruling_line_orbit_size(desc) == size

    return report
