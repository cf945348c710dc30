"""Seeded input generators for the benchmark workloads.

Every input, including the per-solve ``seed`` the solver is called with, comes
from ``numpy.random`` generators, so a workload seed fixes the inputs exactly.
solve_batch draws fresh inputs from the seed; solve_hard and portraits use
fixed sets in an order the seed picks.  Solve inputs are the JSON text the
``solve`` CLI reads; the program never sees the workload seed itself.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# solve_hard: inputs of each kind in the set.  The set is fixed and the
# workload seed only orders it, because a few inputs exhaust every restart
# (about 13,000 phi_K steps, 10 s or more each): in a freshly drawn set the
# number of those, and with it the run time, would swing by whole multiples.
# The counts are prefixes of each kind's fixed stream.  They hold three
# exhausting inputs (one of each of the first three kinds) among 20, so that
# one pass takes about 40 s and the p90 falls on the exhausted path; the
# other kinds' failures are there too: three scale inputs fail the absolute
# residual gate and the tight pairs raise DegenerateK.
HARD_MIX = (
    ("scale", 12),
    ("bring_jerrard", 4),
    ("near_pair", 1),
    ("tight_pair", 3),
)


@dataclass(frozen=True)
class SolveInput:
    kind: str
    text: str         # {"coefficients": [[re, im] x 5]} as the CLI reads it
    solve_seed: int
    coeffs: tuple     # a1..a5 as complex, for the output check


def _solve_input(rng, kind: str, a) -> SolveInput:
    a = tuple(complex(z) for z in a)
    text = json.dumps({"coefficients": [[z.real, z.imag] for z in a]})
    return SolveInput(kind, text, int(rng.integers(0, 2 ** 31)), a)


def _from_roots(roots) -> np.ndarray:
    return np.poly(np.asarray(roots, dtype=complex))[1:]


def _unit_disk(rng, n: int) -> np.ndarray:
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    big = np.abs(z) > 1
    z[big] /= np.abs(z[big])
    return z


def batch_inputs(seed, n: int) -> list[SolveInput]:
    """Monic quintics drawn as in the acceptance batch: a1..a5 uniform in the
    unit square, clipped onto the unit disk.  ``seed`` is anything
    ``numpy.random.default_rng`` accepts."""
    rng = np.random.default_rng(seed)
    return [_solve_input(rng, "batch", _unit_disk(rng, 5)) for _ in range(n)]


def _hard_one(rng, kind: str) -> SolveInput:
    if kind == "scale":
        scale = 10.0 ** rng.uniform(-4, 4)
        roots = scale * _unit_disk(rng, 5)
        return _solve_input(rng, kind, _from_roots(roots))
    if kind == "bring_jerrard":
        a, b = _unit_disk(rng, 2) * 2
        return _solve_input(rng, kind, (0, 0, 0, a, b))
    lo, hi = (-3, 0) if kind == "near_pair" else (-9, -6)   # tight_pair
    sep = 10.0 ** rng.uniform(lo, hi)
    base = _unit_disk(rng, 4)
    pair = base[0] + sep * np.exp(2j * np.pi * rng.uniform())
    return _solve_input(rng, kind, _from_roots(np.append(base, pair)))


HARD_KINDS = tuple(kind for kind, _ in HARD_MIX)
HARD_SET_SEED = 1999


def hard_kind_inputs(kind: str, n: int) -> list[SolveInput]:
    """The first n inputs of one solve_hard kind's fixed stream."""
    rng = np.random.default_rng([HARD_SET_SEED, HARD_KINDS.index(kind)])
    return [_hard_one(rng, kind) for _ in range(n)]


def hard_inputs(seed: int) -> list[SolveInput]:
    """The solve_hard set in the order the workload seed picks."""
    items = [x for kind, n in HARD_MIX for x in hard_kind_inputs(kind, n)]
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


PORTRAITS = ("g11_conic10", "octahedral5", "f6_plane")


def portrait_order(seed) -> list[str]:
    """The three acceptance portraits are fixed; the seed only orders them."""
    rng = np.random.default_rng(seed)
    return [PORTRAITS[i] for i in rng.permutation(len(PORTRAITS))]
