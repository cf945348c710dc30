"""The 120 projective representatives of the permutation action on u-space.

The group is built once from the lexicographic (120, 5) array PERMS of the
permutations of the 5 natural coordinates.  A permutation matrix P only
reorders columns, so H P is H with its columns taken in the order of the
permutation, and all 120 unitary 4x4 representatives H P H* are one column
gather and one matmul.  The sign of a permutation is (-1)^(inversions), the
inversions read from the Lehmer code that ranks it; even permutations have
determinant +1, odd ones -1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import H, HCT, as_complex, chordal_distance

DEDUP_TOL = 1e-9

# every permutation of 0..4, in lexicographic order: row i is element i
PERMS = np.array(list(itertools.permutations(range(5))))
PERMS.flags.writeable = False


@dataclass(frozen=True)
class GroupElement:
    perm: tuple[int, ...]
    matrix: np.ndarray   # 4x4 unitary representative on u coordinates
    sign: int            # +1 even, -1 odd


def _lehmer(p: np.ndarray) -> np.ndarray:
    """Lehmer code of the permutations along the last axis: for each entry,
    the count of smaller entries after it; its sum counts the inversions."""
    return np.triu(p[..., None, :] < p[..., :, None], 1).sum(-1)


def index(perms) -> np.ndarray:
    """Positions in all_elements() of the permutations along the last axis
    of an integer array.  The lexicographic rank of a permutation is its
    Lehmer code read in the factorial base, weighted by 4!, 3!, 2!, 1!, 0!."""
    return _lehmer(np.asarray(perms)) @ np.array([24, 6, 2, 1, 1])


@lru_cache(maxsize=1)
def all_matrices() -> np.ndarray:
    """Read-only (120, 4, 4) stack of the representatives H P H* in PERMS
    order.  The permutation matrix P sends coordinate i to coordinate
    perm[i], so element(sigma . tau) = element(sigma) @ element(tau)."""
    mats = H[:, PERMS].transpose(1, 0, 2) @ HCT
    mats.flags.writeable = False
    return mats


@lru_cache(maxsize=1)
def all_elements() -> tuple[GroupElement, ...]:
    """All 120 elements in PERMS order, each a view of its row of
    all_matrices()."""
    signs = (-1) ** _lehmer(PERMS).sum(-1)
    return tuple(GroupElement(tuple(p), m, s) for p, m, s
                 in zip(PERMS.tolist(), all_matrices(), signs.tolist()))


def element(perm) -> GroupElement:
    """The element of one permutation of 0..4; ValueError for anything
    else."""
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != [0, 1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 0..4: {perm!r}")
    return all_elements()[index(perm)]


@lru_cache(maxsize=1)
def product_table() -> np.ndarray:
    """Read-only (120, 120) index table of the group law in all_elements()
    order: element(product_table()[i, j]) is element i times element j.
    Built from all 14,400 composites s . t at once."""
    table = index(PERMS[:, PERMS])           # [i, j, k] = PERMS[i][PERMS[j][k]]
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
