"""The 120 projective representatives of the permutation action on u-space.

Each permutation of the 5 natural coordinates conjugates through H to a
unitary 4x4 matrix; even permutations have determinant +1, odd ones -1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import H, HCT, as_complex, chordal_distance

DEDUP_TOL = 1e-9


@dataclass(frozen=True)
class GroupElement:
    perm: tuple[int, ...]
    matrix: np.ndarray   # 4x4 unitary representative on u coordinates
    sign: int            # +1 even, -1 odd


def element(perm) -> GroupElement:
    """Unitary u-space representative of one permutation.

    The permutation matrix P sends coordinate i to coordinate perm[i], so
    element(sigma . tau) = element(sigma) @ element(tau).  The sign is
    det P, which LU computes exactly for a permutation matrix.
    """
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != [0, 1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 0..4: {perm!r}")
    P = np.zeros((5, 5))
    for i, j in enumerate(perm):
        P[j, i] = 1.0
    return GroupElement(perm, H @ P @ HCT, round(np.linalg.det(P)))


@lru_cache(maxsize=1)
def all_elements() -> tuple[GroupElement, ...]:
    """All 120 elements, enumerated in lexicographic permutation order."""
    return tuple(element(p) for p in itertools.permutations(range(5)))


@lru_cache(maxsize=1)
def all_matrices() -> np.ndarray:
    """The matrices of all_elements(), in the same order, as one read-only
    (120, 4, 4) stack."""
    mats = np.stack([g.matrix for g in all_elements()])
    mats.flags.writeable = False
    return mats


def index(perms) -> np.ndarray:
    """Positions in all_elements() of the permutations along the last axis
    of an integer array.  The lexicographic rank of a permutation is its
    Lehmer code read in the factorial base: for each entry, the count of
    smaller entries after it, weighted by 4!, 3!, 2!, 1!, 0!."""
    p = np.asarray(perms)
    later_smaller = np.triu(p[..., None, :] < p[..., :, None], 1).sum(-1)
    return later_smaller @ np.array([24, 6, 2, 1, 1])


@lru_cache(maxsize=1)
def product_table() -> np.ndarray:
    """Read-only (120, 120) index table of the group law in all_elements()
    order: element(product_table()[i, j]) is element i times element j.
    Built from all 14,400 composites s . t at once."""
    perms = np.array([g.perm for g in all_elements()])     # (120, 5)
    table = index(perms[:, perms])           # [i, j, k] = perms[i][perms[j][k]]
    table.flags.writeable = False
    return table


def first_seen(close: np.ndarray) -> list[int]:
    """Indices a first-seen scan keeps: i is kept unless close[i, j] holds
    for some j kept before it."""
    kept: list[int] = []
    covered = np.zeros(len(close), dtype=bool)   # close to some kept index
    for i in range(len(close)):
        if not covered[i]:
            kept.append(i)
            covered |= close[:, i]
    return kept


def cosets(stab: np.ndarray) -> list[int]:
    """Representatives of the left cosets i S of the subgroup S given as a
    (120,) mask, in all_elements() order: the least index of each coset,
    which a first-seen scan in that order would keep.  The coset of i is
    row i of product_table() on S, so i represents it when it is that row's
    least entry.  Raises ValueError if the mask is empty or not closed
    under the group law."""
    table = product_table()
    on = table[:, stab]                        # (120, |S|): the coset of i
    if not on.size or not stab[on[stab]].all():
        raise ValueError("the mask is not a subgroup")
    return np.flatnonzero(on.min(1) == np.arange(len(table))).tolist()


def stabilizer(u) -> np.ndarray:
    """(120,) mask of the elements that fix u projectively: those whose
    image of u lies within DEDUP_TOL of u in chordal distance."""
    u = as_complex(u)
    return chordal_distance((all_matrices() @ u).T, u[:, None]) < DEDUP_TOL


def orbit(u) -> list[np.ndarray]:
    """Projectively deduplicated images of u under the full group.

    All 120 images come from one matmul.  The matrices are unitary, so the
    chordal distance between images i and j equals that between element
    j^-1 i applied to u and u itself: image i repeats image j exactly when
    i and j lie in one left coset of the stabilizer of u.  The
    representatives are the images of the cosets' least elements, which
    are the first-seen images in all_elements() order.
    """
    imgs = all_matrices() @ as_complex(u)           # (120, 4)
    return [imgs[i] for i in cosets(stabilizer(u))]


def stabilizer_order(u) -> int:
    n = len(orbit(u))
    if 120 % n:
        raise ValueError(f"orbit size {n} does not divide 120; tolerance trouble")
    return 120 // n
