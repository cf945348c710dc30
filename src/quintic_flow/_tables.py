"""Coefficient tensors, as functions of the three family parameters.

Symmetric numpy tensors for the parametrized quadratic and cubic invariant
forms, the only data of the family: ``params`` derives T_K, t_K and the
root-selector numerator from these two.  Each function lists every
distinct entry once, at its index tuple in non-decreasing order (the comment
on each line), in the lexicographic order of those tuples; one gather per
rank fills every symmetric position from that list.  The ``verify`` check
``coefficient_table_oracles`` tests them against direct evaluation through
the coordinate change ``tau``.
"""
import itertools

import numpy as np


def _symmetric_gather(rank: int) -> np.ndarray:
    """Position in the list of distinct entries of every index of a
    symmetric rank-``rank`` tensor on 4 coordinates."""
    distinct = itertools.combinations_with_replacement(range(4), rank)
    pos = {ix: n for n, ix in enumerate(distinct)}
    return np.array([pos[tuple(sorted(ix))] for ix in np.ndindex((4,) * rank)]
                    ).reshape((4,) * rank)


_SYM2 = _symmetric_gather(2)
_SYM3 = _symmetric_gather(3)


def phi2k_form(k1, k2, k3):
    return np.array([
        25*k2*k3**2,                                            # 00
        25*k1*k2*k3,                                            # 01
        25*k1*k2*k3,                                            # 02
        25*k2*k3**2,                                            # 03
        k1**2*(25*k1 - 5),                                      # 11
        5*k1*k2*(5*k3 - 1),                                     # 12
        (5/24)*k1*(66*k1 + 40*k2 - 15),                         # 13
        (5/24)*k2*(90*k1 + 16*k2 - 15),                         # 22
        (5/24)*k2*(46*k1 + 84*k3 - 35),                         # 23
        (5/4)*k1**2 + (25/4)*k1 + (40/3)*k2*k3 - 25/16,         # 33
    ], dtype=complex)[_SYM2]


def phi3k_tensor(k1, k2, k3):
    return np.array([
        -125*k2**2*k3**3,                                                # 000
        25*k1*k2*k3**2*(1 - 5*k1),                                       # 001
        k2**2*k3**2*(25 - 125*k3),                                       # 002
        (25/24)*k2*k3**2*(-66*k1 - 40*k2 + 15),                          # 003
        25*k1**2*k2*k3*(2 - 5*k3),                                       # 011
        (25/24)*k1*k2*k3*(-66*k1 - 16*k2 + 15),                          # 012
        (25/24)*k1*k2*k3*(-46*k1 - 60*k3 + 35),                          # 013
        (25/24)*k2**2*k3*(-22*k1 - 84*k3 + 35),                          # 022
        (25/48)*k2*k3*(-12*k1**2 - 60*k1 - 80*k2*k3 + 15),               # 023
        (25/144)*k2*k3*(-36*k1*k3 - 270*k1 - 80*k2 - 162*k3 + 135),      # 033
        (5/24)*k1**3*(-90*k1 - 200*k2 + 27),                             # 111
        (5/24)*k1**2*k2*(-230*k1 - 180*k3 + 127),                        # 112
        (5/48)*k1**2*(-60*k1**2 - 36*k1 - 640*k2*k3 + 160*k2 + 15),      # 113
        (5/48)*k1*k2*(-300*k1**2 - 120*k1 - 160*k2*k3 - 16*k2 + 45),     # 122
        (5/144)*k1*k2*(-900*k1*k3 - 678*k1 - 160*k2 - 306*k3 + 375),     # 123
        (5/576)*k1*(-612*k1**2 - 2080*k1*k2 - 2880*k2*k3**2
                    - 3264*k2*k3 + 2000*k2 + 45),                        # 133
        (5/144)*k2**2*(-1620*k1*k3 + 270*k1 + 32*k2 - 810*k3 + 405),     # 222
        (5/576)*k2*(-2340*k1**2 - 832*k1*k2 - 360*k1 - 2880*k2*k3**2
                    - 768*k2*k3 + 320*k2 + 225),                         # 223
        (5/576)*k2*(-372*k1**2 - 3888*k1*k3 - 960*k1 - 1984*k2*k3
                    + 645),                                              # 233
        (15/16)*k1**3 - 75/16*k1**2 - 10*k1*k2*k3 - 125/6*k1*k2
        + (75/64)*k1 - 125/27*k2**2 - 30*k2*k3**2 + (125/12)*k2,         # 333
    ], dtype=complex)[_SYM3]

