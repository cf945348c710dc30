"""Named special orbits: distinguished points, lines, and planes of the
group action, plus incidence checks on the configuration they form.

Descriptors follow a fixed grammar with 1-based coordinate indices, e.g.
``p5_1``, ``p10_45_2``, ``q20_123_1``, ``L1_15_12_34``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import OMEGA3, OMEGA5, as_complex, span_coords, x_to_u
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


def _idx(tok: str) -> list[int]:
    ix = [int(c) - 1 for c in tok]
    if any(i < 0 or i > 4 for i in ix) or len(set(ix)) != len(ix):
        raise BadIndices(f"bad index group {tok!r}")
    return ix


# Each kind's orbit size and coordinate values, keyed by the lengths of its
# index groups (of two shapes, the first group's length picks one).  A
# descriptor's groups, then the remaining indices in increasing order, name
# the coordinates that take the values in turn.  p10 and the q-kinds read a
# variant token after the groups: it picks p10's values, and a 2 conjugates
# a q-kind's.  The q20 and q30 (1, 2) values are complex throughout, so a
# conjugate flips the signs of their zero imaginary parts too; the other
# integers stay as they are.
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


def point(descriptor: str) -> SpecialPoint:
    """Representative of a named special point, indices permuted as asked.

    Index groups of the wrong length, or groups that share an index, raise
    BadIndices; an unknown kind, a missing token or a malformed one raise
    UnknownDescriptor.  ``q24`` takes the exponents of OMEGA5 instead.
    """
    kind, *toks = descriptor.split("_")
    try:
        if kind == "q24":
            exps = [int(c) for c in toks[0]] if toks else [1, 2, 3, 4]
            if sorted(exps) != [1, 2, 3, 4]:
                raise BadIndices(descriptor)
            x = np.array([1] + [OMEGA5 ** e for e in exps], dtype=complex)
            return SpecialPoint(descriptor, x, 24)
        size, shapes = _POINTS[kind]
        lengths = next((s for s in shapes if s[0] == len(toks[0])),
                       next(iter(shapes)))
        order: list[int] = []
        for n, tok in zip(lengths, toks):
            ix = _idx(tok)
            if len(ix) != n or set(ix) & set(order):
                raise BadIndices(descriptor)
            order += ix
        values = shapes[lengths]
        if kind == "p10" or kind[0] == "q":
            variant = toks[len(lengths)]
            if kind == "p10":
                values = values[variant]
            elif variant == "2":
                values = [v.conjugate() for v in values]
        elif len(toks) < len(lengths):
            raise UnknownDescriptor(descriptor)
    except (IndexError, KeyError, ValueError) as exc:
        if isinstance(exc, (UnknownDescriptor, BadIndices)):
            raise
        raise UnknownDescriptor(descriptor) from exc
    x = np.zeros(5, dtype=complex)
    x[order + [i for i in range(5) if i not in order]] = values
    return SpecialPoint(descriptor, x, size)


def plane(descriptor: str) -> SpecialPlane:
    toks = descriptor.split("_")
    kind = "_".join(toks[:2])
    if kind == "L2_5":
        (i,) = _idx(toks[2])
        n = np.zeros(5)
        n[i] = 1
        return SpecialPlane(descriptor, n)
    if kind in ("L2_10", "M2_10"):
        i, j = _idx(toks[2])
        n = np.zeros(5)
        n[i] = 1
        n[j] = -1 if kind == "L2_10" else 1
        return SpecialPlane(descriptor, n)
    raise UnknownDescriptor(descriptor)


def _span_from_normals(normals) -> tuple[np.ndarray, np.ndarray]:
    """2-dim solution space of {sum x = 0} plus the given linear forms."""
    A = np.vstack([np.ones(5)] + [np.asarray(n, dtype=complex) for n in normals])
    _, s, vh = np.linalg.svd(A)
    null = vh.conj()[len(A):]
    if null.shape[0] < 2:
        raise BadIndices("defining planes do not cut out a line")
    return null[-2], null[-1]


_LINE_ORBIT_SIZES = {"L1_10": 10, "M1_10": 10, "L1_15": 15, "M1_15": 15, "L1_30": 30}


def line(descriptor: str) -> SpecialLine:
    """A special line built as the intersection of its defining planes."""
    toks = descriptor.split("_")
    kind = "_".join(toks[:2])
    if kind == "L1_10":
        i, j = _idx(toks[2])
        normals = [plane(f"L2_5_{i + 1}").normal, plane(f"L2_5_{j + 1}").normal]
    elif kind == "M1_10":
        i, j, k = _idx(toks[2])
        normals = [plane(f"L2_10_{i + 1}{j + 1}").normal,
                   plane(f"L2_10_{i + 1}{k + 1}").normal]
    elif kind in ("L1_15", "M1_15"):
        ij = _idx(toks[2])
        kl = _idx(toks[3])
        if set(ij) & set(kl):
            raise BadIndices(f"index pairs must be disjoint: {descriptor}")
        p = "L2_10" if kind == "L1_15" else "M2_10"
        normals = [plane(f"{p}_{ij[0] + 1}{ij[1] + 1}").normal,
                   plane(f"{p}_{kl[0] + 1}{kl[1] + 1}").normal]
    elif kind == "L1_30":
        (i,) = _idx(toks[2])
        j, k = _idx(toks[3])
        if i in (j, k):
            raise BadIndices(f"plane index must avoid the pair: {descriptor}")
        normals = [plane(f"L2_5_{i + 1}").normal,
                   plane(f"L2_10_{j + 1}{k + 1}").normal]
    else:
        raise UnknownDescriptor(descriptor)
    return SpecialLine(descriptor, _span_from_normals(normals),
                       _LINE_ORBIT_SIZES[kind])


# --- line orbit machinery ---------------------------------------------------

def _span_orbit_size(u0, u1) -> int:
    """Number of distinct images of the line span{u0, u1} under the group.

    Lines are told apart by their rank-2 orthogonal projectors.  The
    stabilizer is the elements whose image projector is within 1e-8 of the
    line's own; the images are as many as its cosets (see group.orbit).
    """
    def projectors(A):
        Q, _ = np.linalg.qr(A)
        return Q @ Q.conj().swapaxes(-1, -2)

    span = np.column_stack([u0, u1])
    P = projectors(group.all_matrices() @ span)        # (120, 4, 4)
    stab = np.abs(P - projectors(span)).max(axis=(-2, -1)) < 1e-8
    return len(group.cosets(stab))


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


def verify_configuration() -> dict[str, bool]:
    """Incidence checks on the special configuration; True means verified."""
    report: dict[str, bool] = {}

    # three 15-lines through each 5-point; the 5-point on a 15-line is the
    # one whose index avoids all four line indices
    ok = True
    p = point("p5_1")
    for desc in ("L1_15_23_45", "L1_15_24_35", "L1_15_25_34"):
        ok &= line(desc).contains(p.x)
    report["three_15_lines_at_5_point"] = ok

    ln = line("L1_15_23_45")
    report["one_5_point_on_15_line"] = (
        ln.contains(point("p5_1").x)
        and not any(ln.contains(point(f"p5_{i}").x) for i in range(2, 6)))

    ok = True
    p = point("p10_12_2")
    for desc in ("L1_15_12_34", "L1_15_12_35", "L1_15_12_45"):
        ok &= line(desc).contains(p.x)
    report["three_15_lines_at_10_point"] = ok

    ln = line("L1_15_12_34")
    report["two_10_points_on_15_line"] = (
        ln.contains(point("p10_12_2").x) and ln.contains(point("p10_34_2").x))

    ln = line("M1_10_123")
    report["m10_line_contains_both_5_points"] = (
        ln.contains(point("p5_4").x) and ln.contains(point("p5_5").x))

    for kind, desc in [("L1_10", "L1_10_12"), ("M1_10", "M1_10_123"),
                       ("L1_15", "L1_15_12_34"), ("M1_15", "M1_15_12_34"),
                       ("L1_30", "L1_30_1_23")]:
        ln = line(desc)
        report[f"orbit_size_{kind}"] = line_orbit_size(ln) == ln.orbit_size

    for desc, size in [("q20_12_1", 40), ("q24", 24), ("q30_1_24_1", 60)]:
        report[f"quadric_line_orbit_{desc}"] = ruling_line_orbit_size(desc) == size

    return report
