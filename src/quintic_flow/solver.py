"""End-to-end quintic solver.

Pipeline: depress the quintic, invert the coefficient map onto the parameter
triple K, iterate the conjugated degree-6 map from one random start until its
chordal steps stop (below tol, or stalled on their roundoff floor), read one
root off the limit with the selector, ascend back through the scalings, then
deflate and finish the remaining quartic conventionally.  A root is accepted
on its scale-invariant backward error.  A failed candidate (Moebius map,
start) gives way to a fresh random Moebius move of the roots, which gets
round both a reduction that breaks and a hopelessly conditioned K;
non-finite coefficients raise NonFiniteCoefficients.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import chordal_distance
from .invariants import SQ5
from . import params as pr


class DegenerateReduction(ValueError):
    pass


class RegularizationFailed(RuntimeError):
    pass


class NoConvergence(RuntimeError):
    """``steps``: the phi_K steps the abandoned start took."""

    def __init__(self, message: str, steps: int = 0):
        super().__init__(message)
        self.steps = steps


class NonFiniteCoefficients(ValueError):
    """The input, or the depressed quintic derived from it, has a NaN or
    infinite coefficient."""


# Steps per start: twice the most any converging start took (20, over 1,500
# random regular K), which leaves room for the 10-step stall rule.
MAX_STEPS = 40
# Candidates per solve.  Over 1,000 near-pair inputs (separation 1e-3..1)
# the neediest solve used 7; a hopeless input fails after 8 * 40 steps.
CANDIDATES = 8


@dataclass(frozen=True)
class Quintic:
    """Monic quintic x^5 + a1 x^4 + a2 x^3 + a3 x^2 + a4 x + a5."""
    a: tuple[complex, complex, complex, complex, complex]

    @property
    def coeff_array(self) -> np.ndarray:
        return np.array((1,) + self.a, dtype=complex)

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in self.coeff_array:
            acc = acc * x + c
        return acc

    def derivative(self, x: complex) -> complex:
        c = self.coeff_array
        acc = 0j
        for k, ck in enumerate(c[:-1]):
            acc = acc * x + (5 - k) * ck
        return acc

    @classmethod
    def from_roots(cls, roots) -> "Quintic":
        c = np.poly(np.asarray(roots, dtype=complex))
        return cls(tuple(c[1:]))


@dataclass(frozen=True)
class DepressedQuintic:
    """y^5 + b2 y^3 + b3 y^2 + b4 y + b5 with roots = roots of the original
    shifted by -shift (original roots = depressed roots + shift)."""
    b: tuple[complex, complex, complex, complex]
    shift: complex


def _all_finite(zs) -> bool:
    return all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs)


def depress(p: Quintic) -> DepressedQuintic:
    """Substitute x = y + shift with shift = -a1/5.  The coefficients of
    p(y + shift) come from the Taylor shift by repeated synthetic division;
    the y^4 coefficient is zero by construction and is dropped."""
    c = [1 + 0j, *map(complex, p.a)]
    shift = -c[1] / 5
    for i in range(5):
        for j in range(1, 6 - i):
            c[j] += shift * c[j - 1]
    if not _all_finite(c):
        raise NonFiniteCoefficients("depressed coefficients are not finite")
    return DepressedQuintic(tuple(c[2:]), shift)


def _root_scale(b) -> float:
    return max(abs(b[k]) ** (1.0 / (k + 2)) for k in range(4)) or 1.0


def reduce_to_K(q: DepressedQuintic) -> tuple[tuple[complex, complex, complex], complex]:
    """Invert the coefficient formulas: parameter triple K and the scaling
    lambda with b_k = lambda^k C_k(K).

    A five-fold root leaves every b_k at roundoff of the shift (at most
    3e-15 |shift|^k measured, exactly 0 when the shift is 0); no Moebius
    move separates its roots, so it raises DegenerateK at once."""
    b2, b3, b4, b5 = q.b
    if all(abs(bk) <= 1e-13 * abs(q.shift) ** k
           for k, bk in enumerate(q.b, start=2)):
        raise pr.DegenerateK("five-fold root: the depressed quintic vanishes")
    s = _root_scale(q.b)
    if abs(b2) < 1e-10 * s ** 2 or abs(b3) < 1e-10 * s ** 3:
        raise DegenerateReduction("reduction undefined when b2 or b3 vanishes")
    K = ((b2 ** 2 - 2 * b4) / (2 * b2 ** 2),
         -9 * b3 ** 2 / (8 * b2 ** 3),
         5 * (b2 * b3 - b5) / (6 * b2 * b3))
    lam = -3 * b3 / (10 * SQ5 * b2)
    return K, lam


def resolvent_RK(K) -> np.ndarray:
    """Monic coefficient array of the degree-5 resolvent attached to K."""
    k1, k2, k3 = K
    if abs(k2) < 1e-14:
        raise pr.DegenerateK("resolvent undefined at K2 = 0")
    return np.array([
        1,
        0,
        -125 / (2 * k2),
        625 * SQ5 / (3 * k2),
        -15625 * (2 * k1 - 1) / (8 * k2 ** 2),
        15625 * SQ5 * (6 * k3 - 5) / (6 * k2 ** 2),
    ], dtype=complex)


@dataclass(frozen=True)
class MobiusMap:
    m: np.ndarray  # 2x2; z -> (m00 z + m01) / (m10 z + m11)

    def __call__(self, z: complex) -> complex:
        a, b, c, d = self.m.ravel()
        return (a * z + b) / (c * z + d)

    def inverse(self, z: complex) -> complex:
        a, b, c, d = self.m.ravel()
        return (d * z - b) / (-c * z + a)


def _conv_pow(base: np.ndarray, k: int) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for _ in range(k):
        out = np.convolve(out, base)
    return out


def apply_mobius(p: Quintic, mob: MobiusMap) -> Quintic:
    """Quintic whose roots are the Moebius images of p's roots."""
    a, b, c, d = mob.m.ravel()
    A = np.array([d, -b])   # d s - b
    B = np.array([-c, a])   # -c s + a
    coeffs = p.coeff_array
    total = np.zeros(6, dtype=complex)
    for k, ak in enumerate(coeffs):
        term = ak * np.convolve(_conv_pow(A, 5 - k), _conv_pow(B, k))
        total += term
    if abs(total[0]) < 1e-12 * np.abs(total).max():
        raise RegularizationFailed("Moebius image sent a root to infinity")
    return Quintic(tuple(total[1:] / total[0]))


def mobius_regularize(p: Quintic, rng: np.random.Generator
                      ) -> tuple[Quintic, MobiusMap]:
    """Move p's roots by a random Moebius map drawn from rng and scaled to
    determinant 1.  Raises RegularizationFailed when the draw is nearly
    singular or sends a root to infinity."""
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    det = np.linalg.det(m)
    if abs(det) < 1e-3:
        raise RegularizationFailed("nearly singular Moebius map")
    mob = MobiusMap(m / np.sqrt(det))
    return apply_mobius(p, mob), mob


def iterate_phiK(pp: pr.ParamPolys, rng: np.random.Generator
                 ) -> tuple[np.ndarray, int]:
    """Iterate the conjugated map from one random start to a fixed point.

    Converged means a step that moved less than tol = 1e-13 in chordal
    distance right after one that moved less than stall_tol = 1e-4, or 10
    consecutive steps under stall_tol: the iterate has stalled on its
    roundoff floor, which an ill-conditioned parameter matrix can raise far
    above tol (up to 6e-5 has been seen).  Returns the limit and the steps
    taken.  Raises NoConvergence, carrying the steps taken, when the start
    overflows, converges onto the selector's bad quadric locus, or is still
    moving after MAX_STEPS steps.
    """
    # Near its attracting fixed points phi_K converges with local order at
    # least 4, so a step below stall_tol is followed by one below tol unless
    # roundoff dominates; near a repelling point steps grow, so that pair
    # cannot occur there.  Ten steps in a row below stall_tol without it
    # mean the floor is hit.
    tol, stall_tol = 1e-13, 1e-4
    fmap = pr.phiK_map(pp)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w /= np.abs(w).max()
    prev = np.inf
    stalled = 0
    for it in range(1, MAX_STEPS + 1):
        nxt = fmap(w)
        top = np.abs(nxt).max()
        if not np.isfinite(top) or top < 1e-300:
            raise NoConvergence("phi_K step overflowed", it)
        nxt = nxt / top
        d = chordal_distance(nxt, w)
        stalled = stalled + 1 if d < stall_tol else 0
        w = nxt
        if (d < tol and prev < stall_tol) or stalled >= 10:
            if abs(pr.phi2K(pp, w)) / np.linalg.norm(w) ** 2 > 1e-10:
                return w, it
            raise NoConvergence("converged onto the selector's bad quadric", it)
        prev = d
    raise NoConvergence(f"no fixed point within {MAX_STEPS} steps", MAX_STEPS)


@dataclass
class SolveReport:
    roots: list[complex] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    iterations: int = 0
    restarts: int = 0
    selected_root_raw: complex = 0j
    regularized: bool = False
    polish_moved: bool = False

    def to_json_dict(self) -> dict:
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "residuals": self.residuals,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "selected_root_raw": [self.selected_root_raw.real,
                                  self.selected_root_raw.imag],
            "regularized": self.regularized,
            "polish_moved": self.polish_moved,
        }


def newton_polish(p: Quintic, x: complex, steps: int = 10) -> complex:
    for _ in range(steps):
        d = p.derivative(x)
        if d == 0:
            break
        step = p(x) / d
        x = x - step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


def _deflate(coeffs: np.ndarray, root: complex) -> np.ndarray:
    out = np.empty(len(coeffs) - 1, dtype=complex)
    acc = 0j
    for i, c in enumerate(coeffs[:-1]):
        acc = acc * root + c
        out[i] = acc
    return out


def solve(p: Quintic, seed: int = 0) -> SolveReport:
    """Full pipeline; returns all five roots with residuals.

    Tries up to CANDIDATES (Moebius map, start) pairs drawn from one
    generator seeded with seed: first the identity, then fresh random maps.
    A map whose reduction is undefined, or whose parameter matrix T_K is
    singular, is skipped; a start that fails, or whose root is rejected,
    counts in ``restarts``.  A root is accepted when its backward error
    |p(x)| / sum_k |a_k| |x|^(5-k) is at most 1e-10, a test that does not
    depend on the scale of the roots.  A five-fold root, or a singular T_K
    on the identity candidate, raises DegenerateK at once;
    RegularizationFailed if no map reduces."""
    if not _all_finite(p.a):
        raise NonFiniteCoefficients("coefficients must be finite")
    report = SolveReport()
    rng = np.random.default_rng(seed)
    work, mob = p, None
    reduced = False
    for candidate in range(CANDIDATES):
        try:
            if candidate:
                work, mob = mobius_regularize(p, rng)
            dep = depress(work)
            K, lam = reduce_to_K(dep)
        except (DegenerateReduction, RegularizationFailed):
            continue
        reduced = True
        try:
            pp = pr.build_param_polys(K)
        except pr.DegenerateK:
            if not candidate:
                raise
            continue
        try:
            w, steps = iterate_phiK(pp, rng)
        except NoConvergence as exc:
            report.iterations += exc.steps
            report.restarts += 1
            continue
        report.iterations += steps
        s = pr.root_selector_J(pp, w)  # defined: w is off the quadric
        x = lam * s + dep.shift
        cand = x if mob is None else mob.inverse(x)
        polished = newton_polish(p, cand)
        if abs(polished - cand) > 1e-4 * max(1.0, abs(cand)):
            report.polish_moved = True
        if abs(p(polished)) <= 1e-10 * np.polyval(np.abs(p.coeff_array),
                                                  abs(polished)):
            report.selected_root_raw = complex(s)
            report.regularized = mob is not None
            break
        report.restarts += 1
    else:
        if not reduced:
            raise RegularizationFailed("no Moebius map gives a reduction")
        raise NoConvergence(f"no root from {CANDIDATES} candidates")

    quartic = _deflate(p.coeff_array, polished)
    rest = [newton_polish(p, complex(r)) for r in np.roots(quartic)]
    roots = [polished] + rest
    report.roots = [complex(r) for r in roots]
    report.residuals = [abs(p(r)) for r in roots]
    return report


# --- JSON surface ------------------------------------------------------------

def quintic_from_json(text: str) -> Quintic:
    data = json.loads(text)
    coeffs = data["coefficients"]
    if len(coeffs) != 5:
        raise ValueError("expected 5 coefficients a1..a5")
    return Quintic(tuple(complex(re, im) for re, im in coeffs))


def report_to_json(report: SolveReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)
