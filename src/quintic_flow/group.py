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


def perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class GroupElement:
    perm: tuple[int, ...]
    matrix: np.ndarray   # 4x4 unitary representative on u coordinates
    sign: int            # +1 even, -1 odd


def element(perm) -> GroupElement:
    """Unitary u-space representative of one permutation.

    The permutation matrix P sends coordinate i to coordinate perm[i], so
    element(sigma . tau) = element(sigma) @ element(tau).
    """
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != [0, 1, 2, 3, 4]:
        raise ValueError(f"not a permutation of 0..4: {perm!r}")
    P = np.zeros((5, 5))
    for i, j in enumerate(perm):
        P[j, i] = 1.0
    return GroupElement(perm, H @ P @ HCT, perm_sign(perm))


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


def orbit(u, tol: float = DEDUP_TOL) -> list[np.ndarray]:
    """Projectively deduplicated images of u under the full group.

    All 120 images come from one matmul; image i is kept unless its chordal
    distance to an earlier kept image is below tol, so the representatives
    are the first-seen ones in all_elements() order.  The distances use the
    residual formula of chordal_distance: the textbook sqrt(1 - |c|^2) form
    cannot resolve a 1e-9 tolerance.
    """
    imgs = all_matrices() @ as_complex(u)          # (120, 4)
    cols = imgs.T
    close = chordal_distance(cols[:, :, None], cols[:, None, :]) < tol
    return [imgs[i] for i in first_seen(close)]


def stabilizer_order(u, tol: float = DEDUP_TOL) -> int:
    n = len(orbit(u, tol))
    if 120 % n:
        raise ValueError(f"orbit size {n} does not divide 120; tolerance trouble")
    return 120 // n
