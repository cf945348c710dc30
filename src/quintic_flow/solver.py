"""End-to-end quintic solver.

Pipeline: depress the quintic, invert the coefficient map onto the parameter
triple K, iterate the conjugated degree-6 map from one random start until
its first step within the capture radius (``geometry.CAPTURE``), read one
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
from itertools import accumulate

import numpy as np

from .geometry import CAPTURE, ZERO_TOL
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
    infinite coefficient; or a resolvent's parameters K are not finite."""


# Steps per start.  One start for each of 1,500 random regular K took at
# most 9 (3.8 on average).  Ill-conditioned T_K take longer: over 1,000
# near-pair inputs, 3 of the 991 starts that returned took more than 30
# steps, the most 39.
MAX_STEPS = 40
# Candidates per solve.  Over 1,000 near-pair inputs (separation 1e-3..1)
# the neediest solve used 7; a hopeless input fails after 8 * 40 steps.
CANDIDATES = 8


@dataclass(frozen=True)
class Quintic:
    """Monic quintic x^5 + a1 x^4 + a2 x^3 + a3 x^2 + a4 x + a5."""
    a: tuple[complex, complex, complex, complex, complex]

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in (1 + 0j, *self.a):
            acc = acc * x + c
        return acc

    def abs_bound(self, r: float) -> float:
        """sum_k |a_k| r^(5-k), with a_0 = 1: the scale of |p(x)| at |x| = r
        that a root's backward error is measured against."""
        acc = 0.0
        for c in (1 + 0j, *self.a):
            acc = acc * r + abs(c)
        return acc


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
    """Monic coefficient array of the degree-5 resolvent attached to K.
    Raises NonFiniteCoefficients when K, or a coefficient it gives, is not
    finite."""
    if not np.isfinite(K).all():
        raise NonFiniteCoefficients(f"K must be finite, got {K!r}")
    k1, k2, k3 = np.asarray(K, dtype=complex)
    if abs(k2) < 1e-14:
        raise pr.DegenerateK("resolvent undefined at K2 = 0")
    # powers of 1/K2, not of K2: a huge K2 then gives terms that underflow
    # to zero instead of a K2^2 that overflows
    with np.errstate(all="ignore"):
        r = 1 / k2
        coeffs = np.array([
            1,
            0,
            -125 * r / 2,
            625 * SQ5 * r / 3,
            -15625 * (2 * k1 - 1) * (r * r) / 8,
            15625 * SQ5 * (6 * k3 - 5) * (r * r) / 6,
        ], dtype=complex)
    if not np.isfinite(coeffs).all():
        raise NonFiniteCoefficients(f"resolvent coefficients overflow at K = {K!r}")
    return coeffs


@dataclass(frozen=True)
class MobiusMap:
    m: np.ndarray  # 2x2; z -> (m00 z + m01) / (m10 z + m11)

    def inverse(self, z: complex) -> complex:
        a, b, c, d = self.m.ravel()
        return (d * z - b) / (-c * z + a)


def _times_linear(f: list, u: complex, v: complex) -> list:
    """f(s) (u s + v) for a coefficient list f, highest degree first."""
    return [u * x + v * y for x, y in zip(f + [0j], [0j] + f)]


def apply_mobius(p: Quintic, mob: MobiusMap) -> Quintic:
    """Quintic whose roots are the Moebius images of p's roots.  Raises
    RegularizationFailed when the image's coefficients overflow.

    The image is p(X / Y) Y^5 for X = d s - b and Y = -c s + a, by
    homogeneous Horner: h <- h X + a_k Y^k."""
    a, b, c, d = mob.m.ravel().tolist()
    h = y = [1 + 0j]
    for ak in map(complex, p.a):
        y = _times_linear(y, -c, a)
        h = [x + ak * z for x, z in zip(_times_linear(h, d, -b), y)]
    try:
        top = max(map(abs, h))
    except OverflowError:   # finite parts, a modulus past the largest double
        top = math.inf
    if not (top < math.inf and _all_finite(h)):
        raise RegularizationFailed("Moebius image overflows")
    if abs(h[0]) <= 1e-12 * top:
        raise RegularizationFailed("Moebius image sent a root to infinity")
    return Quintic(tuple(x / h[0] for x in h[1:]))


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

    A start ends at its first step within the capture radius
    (``geometry.CAPTURE``) of the point it left, and returns that point and
    the steps taken.  It raises NoConvergence, carrying the steps taken,
    when it overflows (quietly) or still moves after MAX_STEPS steps.
    """
    fmap = pr.phiK_map(pp)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w /= np.abs(w).max()
    ww = np.vdot(w, w).real
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_STEPS + 1):
            nxt = fmap(w)
            # np.abs, not abs: a modulus past the largest double reads inf
            size = np.abs(nxt).tolist()
            top = max(size)
            # max passes over a NaN that follows a number; the sum keeps it
            if not ZERO_TOL <= top < math.inf or math.isnan(sum(size)):
                raise NoConvergence("phi_K step overflowed", it)
            nxt = nxt / top
            nn = np.vdot(nxt, nxt).real
            if abs(np.vdot(w, nxt)) ** 2 > (1 - CAPTURE * CAPTURE) * (ww * nn):
                return nxt, it
            w, ww = nxt, nn
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


def newton_polish(p: Quintic, x: complex) -> complex:
    coeffs = (1 + 0j, *p.a)
    for _ in range(10):
        f = d = 0j   # p(x) and p'(x) in one Horner pass
        for c in coeffs:
            d = d * x + f
            f = f * x + c
        if d == 0:
            break
        step = f / d
        x = x - step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


def solve(p: Quintic, seed: int = 0) -> SolveReport:
    """Full pipeline; returns all five roots with residuals.

    Tries up to CANDIDATES (Moebius map, start) pairs drawn from one
    generator seeded with seed: first the identity, then fresh random maps.
    A map whose reduction is undefined, or whose parameter matrix T_K is
    singular, is skipped; a start that fails, that ends where the selector
    is undefined, or whose root is rejected, counts in ``restarts``.  A root
    is accepted when its backward error |p(x)| / sum_k |a_k| |x|^(5-k) is at
    most 1e-10, a test that does not depend on the scale of the roots.  A
    five-fold root, or a singular T_K on the identity candidate, raises
    DegenerateK at once; RegularizationFailed if no map reduces."""
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
        try:
            s = pr.root_selector_J(pp, w)
        except pr.OnQuadricK:
            report.restarts += 1
            continue
        x = lam * s + dep.shift
        cand = x if mob is None else mob.inverse(x)
        polished = newton_polish(p, cand)
        if abs(polished - cand) > 1e-4 * max(1.0, abs(cand)):
            report.polish_moved = True
        if abs(p(polished)) <= 1e-10 * p.abs_bound(abs(polished)):
            report.selected_root_raw = complex(s)
            report.regularized = mob is not None
            break
        report.restarts += 1
    else:
        if not reduced:
            raise RegularizationFailed("no Moebius map gives a reduction")
        raise NoConvergence(f"no root from {CANDIDATES} candidates")

    # deflate by the accepted root: the other four are the eigenvalues of
    # the monic quotient's companion matrix, as np.roots takes them
    companion = np.eye(4, k=-1, dtype=complex)
    companion[0] = [-q for q in accumulate(
        p.a[1:-1], lambda acc, c: acc * polished + c, initial=polished + p.a[0])]
    rest = [newton_polish(p, r) for r in np.linalg.eigvals(companion).tolist()]
    roots = [polished] + rest
    report.roots = [complex(r) for r in roots]
    report.residuals = [abs(p(r)) for r in roots]
    return report


# --- JSON surface ------------------------------------------------------------

def quintic_from_json(text: str) -> Quintic:
    try:   # an integer past a double's range or deep nesting is malformed too
        coeffs = json.loads(text)["coefficients"]
        if len(coeffs) != 5:
            raise ValueError("expected 5 coefficients a1..a5")
        return Quintic(tuple(complex(re, im) for re, im in coeffs))
    except (OverflowError, RecursionError) as exc:
        raise ValueError(str(exc)) from exc


def report_to_json(report: SolveReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True)
