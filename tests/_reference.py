"""Independent forms the tests check the library against: the quadratic
and cubic invariants written out in hyperplane coordinates, the reversed
gradients of the invariants, the degree-5 map g11 collapses to on the
quadric, and the published affine form of g11.  Also a keyed view of the
parametrized invariants and their gradients, the same values and gradients
from np.linalg.det on row-replaced matrices, the cell-by-cell loop that
basins.symmetry_fraction replaces, a projective equality test, and the
dense forms of the two portrait steps (every coefficient of a 1-D map, f6
with each subexpression written where it is used), the all-pairs count
of a line's images that orbits._line_orbit_size replaces, the
least-squares membership test on a spanning pair that a line's forms
replace, and orbits.point, plane and line written out branch by branch, one
per kind.
Also the monic quintic with given roots, which the solver tests start
from, and a quintic's coefficient array.  Also the generating equivariants
one degree at a time, in both coordinate systems, which
equivariants._sums_and_basics replaces.  Also the power sums, f_basic,
the degree-11 maps' power sums and generating equivariants, and the
regularity test with numpy's ``**`` in place of the product ladder; the
first-seen coset scan that group.cosets replaces; and the line stabilizer
from rank-2 orthogonal projectors that the Plücker test replaces.  Also a
point's stabilizer order by orbit-stabilizer, and one element's matrix
H P H* from a permutation matrix P built entry by entry, which the column
gather of group.all_matrices replaces."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quintic_flow import group as gp
from quintic_flow import params as pr
from quintic_flow.orbits import (ALPHA, BETA, GAMMA, BadIndices, SpecialFlat,
                                 SpecialPoint, UnknownDescriptor)
from quintic_flow.solver import Quintic
from quintic_flow.geometry import (H, HCT, MEMBER_TOL, OMEGA3, OMEGA5, R4,
                                   as_complex, chordal_distance)
from quintic_flow.invariants import (PSI10_SCALE, SQ5, powers,
                                    vandermonde_product)


def f_basic(x, k: int):
    """Generating degree-k equivariant in 5-coordinate form:
    component i is -4 x_i^k + sum_{j != i} x_j^k."""
    xk = powers(x, k)[-1]
    return -5 * xk + xk.sum(0)


def phi_basic(u, k: int) -> np.ndarray:
    """Generating equivariant in hyperplane coordinates (H-conjugate of
    f_basic; equals -(5/(k+1)) times the reversed gradient of the degree-(k+1)
    invariant)."""
    return H @ f_basic(HCT @ as_complex(u), k)


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
    F3 = (x ** 3).sum(0)
    F4 = (x ** 4).sum(0)
    return -0.5 * F3 ** 2 * (2 * F3 * f_basic(x, 2) - F4 * f_basic(x, 1))


def g11_affine(x: complex, y: complex) -> tuple[complex, complex]:
    """The published form of g11 on the affine quadric chart (two complex
    coordinates)."""
    return ((x**2 + 3*y - 2*x*y**3) / (2*x + 3*x**2*y**2 - y**3),
            (3*x**2 + 2*y + x**3*y**2) / (1 + 2*x**3*y - 3*x*y**2))


def power_sum_pow(x, k: int):
    """invariants.power_sum with numpy's elementwise ``**``."""
    return (as_complex(x) ** k).sum(0)


def f_basic_pow(x, k: int):
    """f_basic with ``**``."""
    xk = x ** k
    return -5 * xk + xk.sum(0)


def sums_and_basics_pow(x):
    """equivariants._sums_and_basics with ``**``: the power sums F2..F5 and
    f_basic(x, k), k = 1..4, each from its own power."""
    return ([(x ** k).sum(0) for k in (2, 3, 4, 5)],
            [f_basic_pow(x, k) for k in (1, 2, 3, 4)])


def regularity_pow(v):
    """params._regularity with each power sum from ``**``."""
    v = as_complex(v)
    x = HCT @ v
    n = np.linalg.norm(v, axis=0)
    return np.min([*(abs(power_sum_pow(x, k)) / n ** k for k in (2, 3, 4, 5)),
                   abs(PSI10_SCALE * vandermonde_product(x)) / n ** 10], axis=0)


def cosets_first_seen(stab) -> list[int]:
    """group.cosets as a first-seen scan: i and j share a left coset when
    element j^-1 i lies in the stabilizer, the inverse read off the product
    table by argmin (table[i, inverse[i]] is the identity, 0)."""
    table = gp.product_table()
    inverse = np.argmin(table, axis=1)
    return gp.first_seen(stab[table[inverse]])


def stabilizer_order(u) -> int:
    n = len(gp.orbit(u))
    if 120 % n:
        raise ValueError(f"orbit size {n} does not divide 120; tolerance trouble")
    return 120 // n


def element_matrix(perm) -> np.ndarray:
    """H P H* for one permutation, with P[perm[i], i] = 1: P sends
    coordinate i to coordinate perm[i]."""
    P = np.zeros((5, 5))
    for i, j in enumerate(perm):
        P[j, i] = 1.0
    return H @ P @ HCT


def span_stabilizer_projectors(u0, u1):
    """The stabilizer mask of the line span{u0, u1} from rank-2 orthogonal
    projectors: the elements whose image projector lies within 1e-8 of the
    line's own in max-abs entry."""
    def projectors(A):
        Q, _ = np.linalg.qr(A)
        return Q @ Q.conj().swapaxes(-1, -2)

    span = np.column_stack([u0, u1])
    P = projectors(gp.all_matrices() @ span)        # (120, 4, 4)
    return np.abs(P - projectors(span)).max(axis=(-2, -1)) < 1e-8


def projectively_equal(p, q) -> bool:
    return chordal_distance(p, q) < 1e-9


def quintic_from_roots(roots) -> Quintic:
    c = np.poly(np.asarray(roots, dtype=complex))
    return Quintic(tuple(c[1:]))


def coeffs(p: Quintic) -> np.ndarray:
    """p's coefficients, highest degree first, the leading 1 included."""
    return np.array((1, *p.a), dtype=complex)


@dataclass(frozen=True)
class ValueGrad:
    value: complex
    gradient: np.ndarray


def values_grads(pp, w):
    """The four parametrized invariants at w and their exact gradients, as
    the rows of a (4, 4) array, formed from the values p2, p3, det H, det B
    and the rows g2, H w, grad det H and grad det B that pr._values_grads
    returns."""
    (p2, p3, det_h, det_b), (g2, hw, grad_h, grad_b) = pr._values_grads(
        pp, as_complex(w))
    s = 1 / pp.tK
    values = (p2, p3, p2 ** 2 / 2 - (5 / 324) * s * det_h,
              (720 * p2 * p3 + s * det_b) / 864)
    return values, np.array([
        g2,
        hw / 2,
        p2 * g2 - (5 / 324) * s * grad_h,
        (720 * p3 * g2 + 360 * p2 * hw + s * grad_b) / 864,
    ])


def invariant_values_grads(pp, w) -> dict[int, ValueGrad]:
    """Values and exact gradients of the four parametrized invariants at w,
    keyed by degree."""
    values, grads = values_grads(pp, w)
    return {k: ValueGrad(complex(values[k - 2]), grads[k - 2])
            for k in (2, 3, 4, 5)}


def _det_and_gradient(P, w):
    """det M and its gradient for the pencil M = sum_i w_i P[i]: det is
    linear in each row, so d det M/dw_i is the sum over r of det M with row
    r replaced by row r of P[i]."""
    M = np.tensordot(w, P, 1)
    n = len(M)
    replaced = np.broadcast_to(M, (4, n, n, n)).copy()   # [i, r]: row r of P[i]
    for r in range(n):
        replaced[:, r, r] = P[:, r]
    return np.linalg.det(M), np.linalg.det(replaced).sum(1)


def values_grads_row_replacement(pp, w):
    """values_grads with each determinant and gradient from
    np.linalg.det: the hessian pencil 6 C3 and the bordered pencil (the
    hessian bordered by the 2-form's gradient 2 S2 w) written from the
    forms themselves."""
    w = as_complex(w)
    P = np.zeros((4, 5, 5), dtype=complex)
    P[:, :4, :4] = 6 * np.moveaxis(pp.C3, 2, 0)
    P[:, :4, 4] = P[:, 4, :4] = 2 * pp.S2.T
    det_h, grad_h = _det_and_gradient(P[:, :4, :4], w)
    det_b, grad_b = _det_and_gradient(P, w)
    g2 = 2 * pp.S2 @ w
    g3 = 3 * np.einsum("abc,b,c->a", pp.C3, w, w)
    p2 = g2 @ w / 2
    p3 = g3 @ w / 3
    s = 1 / pp.tK
    p4 = p2 ** 2 / 2 - (5 / 324) * s * det_h
    p5 = (720 * p2 * p3 + s * det_b) / 864
    grads = np.array([
        g2,
        g3,
        p2 * g2 - (5 / 324) * s * grad_h,
        (720 * (p3 * g2 + p2 * g3) + s * grad_b) / 864,
    ])
    return (p2, p3, p4, p5), grads


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


def pair_dense(rmap, z1, z2):
    """RestrictedMap1D.pair with every power up to the degree and every
    term, zero coefficients included, added in coefficient order from
    zero."""
    z1, z2 = np.broadcast_arrays(as_complex(z1), as_complex(z2))
    p1, p2 = [np.ones_like(z1)], [np.ones_like(z2)]
    for _ in range(rmap.degree):
        p1.append(p1[-1] * z1)
        p2.append(p2[-1] * z2)
    n, d = np.zeros_like(z1), np.zeros_like(z2)
    for i in range(rmap.degree + 1):
        mono = p1[rmap.degree - i] * p2[i]
        n += rmap.num[i] * mono
        d += rmap.den[i] * mono
    return n[()], d[()]


def f6_inline(x):
    """equivariants.f6 with x^4 and -5 x^2 formed at each use."""
    x2 = x * x
    F2, F3 = x2.sum(0), (x2 * x).sum(0)
    F4, F5 = (x2 * x2).sum(0), (x2 * x2 * x).sum(0)
    c1 = 2 * (9 * F2 * F3 - 10 * F5)
    c2 = -2 * (F2 * F2 - 5 * F4)
    return (c1 * (-5 * x + x.sum(0)) + c2 * (-5 * x2 + F2)
            + 20 * F3 * (-5 * x2 * x + F3)
            + 15 * F2 * (-5 * x2 * x2 + F4)) / (2 * SQ5)


def span_orbit_size_pairwise(u0, u1) -> int:
    """Distinct images of the line span{u0, u1}: the 120 image projectors
    compared with each other, 14,400 differences, within 1e-8 in max-abs
    entry."""
    Q, _ = np.linalg.qr(gp.all_matrices() @ np.column_stack([u0, u1]))
    P = Q @ Q.conj().swapaxes(-1, -2)                  # (120, 4, 4)
    close = np.abs(P[:, None] - P[None, :]).max(axis=(-2, -1)) < 1e-8
    return len(gp.first_seen(close))


def _idx(tok: str) -> list[int]:
    ix = [int(c) - 1 for c in tok]
    if any(i < 0 or i > 4 for i in ix) or len(set(ix)) != len(ix):
        raise BadIndices(f"bad index group {tok!r}")
    return ix


def _fill(pairs) -> np.ndarray:
    x = np.zeros(5, dtype=complex)
    for ix, val in pairs:
        for i in ix:
            x[i] = val
    return x


def _rest(*groups) -> list[int]:
    used = set().union(*groups)
    return [i for i in range(5) if i not in used]


def point_by_kind(descriptor: str) -> SpecialPoint:
    """orbits.point with one branch per kind, each parsing and checking its
    own index groups.  A group of the wrong length that fails to unpack
    raises UnknownDescriptor here; orbits.point raises BadIndices."""
    toks = descriptor.split("_")
    kind = toks[0]
    try:
        if kind == "p5":
            (i,) = _idx(toks[1])
            x = np.ones(5, dtype=complex)
            x[i] = -4
            return SpecialPoint(descriptor, x, 5)
        if kind == "p10":
            i, j = _idx(toks[1])
            var = toks[2]
            if var == "1":
                x = _fill([((i,), 1), ((j,), -1)])
            elif var == "2":
                x = _fill([((i, j), -3)]) + _fill([(tuple(_rest([i, j])), 2)])
            else:
                raise UnknownDescriptor(descriptor)
            return SpecialPoint(descriptor, x, 10)
        if kind == "p15":
            (i,) = _idx(toks[1])
            jk = _idx(toks[2])
            if i in jk or len(jk) != 2:
                raise BadIndices(descriptor)
            x = _fill([(jk, 1), (tuple(_rest([i], jk)), -1)])
            return SpecialPoint(descriptor, x, 15)
        if kind == "p20":
            (i,) = _idx(toks[1])
            jkl = _idx(toks[2])
            if i in jkl or len(jkl) != 3:
                raise BadIndices(descriptor)
            x = _fill([(jkl, 1), (tuple(_rest([i], jkl)), -3)])
            return SpecialPoint(descriptor, x, 20)
        if kind == "p30":
            ij = _idx(toks[1])
            kl = _idx(toks[2])
            if len(ij) != 2 or len(kl) != 2 or set(ij) & set(kl):
                raise BadIndices(descriptor)
            x = _fill([(kl, 1), (tuple(_rest(ij, kl)), -2)])
            return SpecialPoint(descriptor, x, 30)
        if kind == "q20":
            grp = _idx(toks[1])
            var = toks[2]
            conj = var == "2"
            if len(grp) == 2:
                rest = _rest(grp)
                vals = [1, OMEGA3, OMEGA3 ** 2]
                x = _fill(list(zip([(r,) for r in rest], vals)))
            elif len(grp) == 3:
                rest = _rest(grp)
                x = _fill([(grp, 1), ((rest[0],), ALPHA),
                           ((rest[1],), np.conj(ALPHA))])
            else:
                raise BadIndices(descriptor)
            if conj:
                x = np.conj(x)
            return SpecialPoint(descriptor, x, 20)
        if kind == "q24":
            exps = [int(c) for c in toks[1]] if len(toks) > 1 else [1, 2, 3, 4]
            if sorted(exps) != [1, 2, 3, 4]:
                raise BadIndices(descriptor)
            x = np.array([1] + [OMEGA5 ** e for e in exps], dtype=complex)
            return SpecialPoint(descriptor, x, 24)
        if kind == "q30" and len(toks[1]) == 1:
            (i,) = _idx(toks[1])
            jk = _idx(toks[2])
            if i in jk or len(jk) != 2:
                raise BadIndices(descriptor)
            rest = _rest([i], jk)
            x = _fill([((jk[0],), 1), ((jk[1],), -1),
                       ((rest[0],), 1j), ((rest[1],), -1j)])
            if toks[3] == "2":
                x = np.conj(x)
            return SpecialPoint(descriptor, x, 30)
        if kind == "q30":
            ij = _idx(toks[1])
            kl = _idx(toks[2])
            if set(ij) & set(kl) or len(ij) != 2 or len(kl) != 2:
                raise BadIndices(descriptor)
            b = np.conj(BETA) if toks[3] == "2" else BETA
            x = _fill([(ij, 1), (kl, b), (tuple(_rest(ij, kl)), -2 * (1 + b))])
            return SpecialPoint(descriptor, x, 30)
        if kind == "q60":
            (i,) = _idx(toks[1])
            jk = _idx(toks[2])
            if i in jk or len(jk) != 2:
                raise BadIndices(descriptor)
            rest = _rest([i], jk)
            g = np.conj(GAMMA) if toks[3] == "2" else GAMMA
            x = _fill([(jk, 1), ((rest[0],), g), ((rest[1],), np.conj(g))])
            return SpecialPoint(descriptor, x, 60)
    except (IndexError, ValueError) as exc:
        if isinstance(exc, (UnknownDescriptor, BadIndices)):
            raise
        raise UnknownDescriptor(descriptor) from exc
    raise UnknownDescriptor(descriptor)


def _plane(descriptor: str, normal, orbit_size: int) -> SpecialFlat:
    return SpecialFlat(descriptor,
                       np.array([np.ones(5), normal], dtype=complex), orbit_size)


def plane_by_kind(descriptor: str) -> SpecialFlat:
    """orbits.plane with one branch per kind.  A group of the wrong length
    or a missing token leaks the ValueError or IndexError of its unpacking
    here; orbits.plane raises BadIndices or UnknownDescriptor."""
    toks = descriptor.split("_")
    kind = "_".join(toks[:2])
    if kind == "L2_5":
        (i,) = _idx(toks[2])
        n = np.zeros(5)
        n[i] = 1
        return _plane(descriptor, n, 5)
    if kind in ("L2_10", "M2_10"):
        i, j = _idx(toks[2])
        n = np.zeros(5)
        n[i] = 1
        n[j] = -1 if kind == "L2_10" else 1
        return _plane(descriptor, n, 10)
    raise UnknownDescriptor(descriptor)


def null_span(F) -> tuple[np.ndarray, np.ndarray]:
    """Two points spanning the solution space of forms F of rank n - 2 (the
    last two rows of the SVD's vh), such as a line {F u = 0} of two u-space
    forms F (2, 4)."""
    _, _, vh = np.linalg.svd(F)
    return vh.conj()[-2], vh.conj()[-1]


def _span_from_normals(normals) -> tuple[np.ndarray, np.ndarray]:
    """2-dim solution space of {sum x = 0} plus two linear forms."""
    return null_span(np.vstack([np.ones(5)] + [np.asarray(n, dtype=complex)
                                               for n in normals]))


def contains_lstsq(forms, X) -> np.ndarray:
    """A line's SpecialFlat.contains as least squares on a spanning pair: the
    points (columns of a (5, N) stack) whose relative residual off the span
    of the solution space of the (3, 5) forms lies under MEMBER_TOL, each
    column solved on its own."""
    A = np.column_stack(_span_from_normals(forms[1:]))
    coef = np.linalg.lstsq(A, X, rcond=None)[0]
    return (np.linalg.norm(A @ coef - X, axis=0) / np.linalg.norm(X, axis=0)
            < MEMBER_TOL)


_LINE_ORBIT_SIZES = {"L1_10": 10, "M1_10": 10, "L1_15": 15, "M1_15": 15, "L1_30": 30}


def line_by_kind(descriptor: str) -> SpecialFlat:
    """orbits.line with one branch per kind, each defining plane built from
    its descriptor string by plane_by_kind.  An index pair of three
    indices (``L1_15_123_45``) is read as its first two here; a group of
    the wrong length otherwise, or a missing token, leaks a ValueError or
    IndexError."""
    plane = plane_by_kind
    toks = descriptor.split("_")
    kind = "_".join(toks[:2])
    if kind == "L1_10":
        i, j = _idx(toks[2])
        normals = [plane(f"L2_5_{i + 1}").forms[1],
                   plane(f"L2_5_{j + 1}").forms[1]]
    elif kind == "M1_10":
        i, j, k = _idx(toks[2])
        normals = [plane(f"L2_10_{i + 1}{j + 1}").forms[1],
                   plane(f"L2_10_{i + 1}{k + 1}").forms[1]]
    elif kind in ("L1_15", "M1_15"):
        ij = _idx(toks[2])
        kl = _idx(toks[3])
        if set(ij) & set(kl):
            raise BadIndices(f"index pairs must be disjoint: {descriptor}")
        p = "L2_10" if kind == "L1_15" else "M2_10"
        normals = [plane(f"{p}_{ij[0] + 1}{ij[1] + 1}").forms[1],
                   plane(f"{p}_{kl[0] + 1}{kl[1] + 1}").forms[1]]
    elif kind == "L1_30":
        (i,) = _idx(toks[2])
        j, k = _idx(toks[3])
        if i in (j, k):
            raise BadIndices(f"plane index must avoid the pair: {descriptor}")
        normals = [plane(f"L2_5_{i + 1}").forms[1],
                   plane(f"L2_10_{j + 1}{k + 1}").forms[1]]
    else:
        raise UnknownDescriptor(descriptor)
    return SpecialFlat(descriptor,
                       np.array([np.ones(5)] + normals, dtype=complex),
                       _LINE_ORBIT_SIZES[kind])
