"""Self-verification suite.

Every check recomputes a structural fact of the system from scratch (group
closure, invariant identities, equivariance, restriction conformance, the
hard-coded parameter tables against their direct definitions, the root
selector) and reports pass/fail with a measured error.  The CLI `verify`
subcommand and the test suite both run these.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import group as gp
from . import invariants as iv
from . import orbits as ob
from . import params as pr
from . import solver as sv
from .equivariants import f6, g11, h11, phi6, phi6_explicit, restricted_map
from .geometry import (R4, as_complex, chordal_distance, line_chart,
                       chart_eval, chart_invert, x_to_u, u_to_x)


@dataclass(frozen=True)
class CheckResult:
    category: str
    name: str
    ok: bool
    detail: str
    seconds: float


def _rand_u_stack(rng, n: int) -> np.ndarray:
    """A (4, n) stack of random points, each drawn as its four real parts
    and then its four imaginary parts: the generator fills the (n, 2, 4)
    draw in that order, so one call draws what n calls with n = 1 do."""
    r = rng.standard_normal((n, 2, 4))
    return (r[:, 0] + 1j * r[:, 1]).T


# --- group --------------------------------------------------------------------

def check_group_order():
    mats = gp.all_matrices()
    distinct = len(np.unique(np.round(mats.reshape(len(mats), -1), 9), axis=0))
    ok = len(mats) == 120 and distinct == 120
    return ok, f"{len(mats)} elements, {distinct} distinct matrices"


def check_group_homomorphism():
    """50 seeded pairs (s, t): the matrix the product table gives s . t
    against the product of the two matrices, as one stacked matmul."""
    rng = np.random.default_rng(11)
    s, t = gp.index([(rng.permutation(5), rng.permutation(5))
                     for _ in range(50)]).T
    mats = gp.all_matrices()
    worst = np.abs(mats[gp.product_table()[s, t]] - mats[s] @ mats[t]).max()
    return worst < 1e-12, f"max composition error {worst:.2e}"


def check_group_unitary():
    mats = gp.all_matrices()
    worst = np.abs(mats @ mats.conj().swapaxes(-1, -2) - np.eye(4)).max()
    return worst < 1e-12, f"max unitarity defect {worst:.2e}"


def check_orbit_sizes():
    expected = {"p5_1": 5, "p10_12_1": 10, "p15_1_23": 15, "p20_1_234": 20,
                "p30_12_34": 30, "q20_12_1": 20, "q24": 24,
                "q30_1_24_1": 30, "q60_1_23_1": 60}
    for name, want in expected.items():
        pt = ob.point(name)
        got = len(gp.orbit(pt.u))
        if got != want or pt.orbit_size != want:
            return False, f"{name}: got {got}, want {want}"
    return True, f"all {len(expected)} orbit sizes exact"


# --- invariants ---------------------------------------------------------------

def check_invariant_identities():
    u = _rand_u_stack(np.random.default_rng(23), 1000)
    p4 = iv.phi(u, 4)
    p5 = iv.phi(u, 5)
    worst4 = (abs(iv.phi4_from_G4(u) - p4) / abs(p4)).max()
    worst5 = (abs(iv.phi5_from_G5(u) - p5) / abs(p5)).max()
    ok = worst4 < 1e-9 and worst5 < 1e-9
    return ok, f"rel errors: degree4 {worst4:.2e}, degree5 {worst5:.2e}"


def check_invariance_under_group():
    rng = np.random.default_rng(29)
    mats = gp.all_matrices()
    u, gu = [], []
    for _ in range(20):   # each sample draws its point, then its element
        u.append(_rand_u_stack(rng, 1)[:, 0])
        gu.append(mats[rng.integers(120)] @ u[-1])
    u, gu = np.column_stack(u), np.column_stack(gu)
    worst = max((abs(iv.phi(gu, k) - iv.phi(u, k)) / abs(iv.phi(u, k))).max()
                for k in (2, 3, 4, 5))
    return worst < 1e-9, f"max invariance defect {worst:.2e}"


def check_psi10_sign_character():
    """The degree-10 invariant flips sign under odd permutations and is
    fixed by even ones."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        u = _rand_u_stack(rng, 1)[:, 0]
        val = iv.psi10(u)
        perm = tuple(rng.permutation(5))
        g = gp.element(perm)
        worst = max(worst, abs(iv.psi10(g.matrix @ u) - g.sign * val)
                    / abs(val))
    return worst < 1e-9, f"max character defect {worst:.2e}"


# --- orbit configuration --------------------------------------------------------

def check_configuration():
    results = ob.verify_configuration()
    bad = [k for k, v in results.items() if not v]
    return not bad, ("all incidences hold" if not bad
                     else "failed: " + ", ".join(bad))


# --- equivariance ---------------------------------------------------------------

# Group elements per block of the equivariance stack.  40 elements times 20
# points make (5, 800) complex temporaries of 62.5 KiB, under glibc's 128 KiB
# mmap threshold; mapped whole, the (4, 2400) stack's 150-190 KiB
# temporaries were mmapped and page-faulted on every call.  Measured on a
# 2-core x86-64 VM, in a process that runs only these checks (medians of 8
# processes), whole stack -> blocks of 40: phi6 2.49 -> 1.58 ms and 563 ->
# 13 page faults a call, h11 3.39 -> 2.81 ms and 460 -> 0, g11 3.62 ->
# 3.05 ms and 460 -> 0.
EQUIVARIANCE_BLOCK = 40


def _equivariance_u(map_u):
    """Worst chordal gap between map_u(g u) and g map_u(u) over 20 random
    points and all 120 elements, mapped as (4, 20 EQUIVARIANCE_BLOCK) column
    stacks, one per block of elements."""
    u = _rand_u_stack(np.random.default_rng(37), 20)
    mats = gp.all_matrices()
    image = map_u(u)

    def flat(stack):  # (k, 4, 20) -> (4, 20 k)
        return np.moveaxis(stack, 1, 0).reshape(4, -1)

    worst = max(chordal_distance(map_u(flat(g @ u)), flat(g @ image)).max()
                for g in np.split(mats, len(mats) // EQUIVARIANCE_BLOCK))
    return worst < 1e-8, f"max equivariance defect {worst:.2e}"


def check_equivariance_phi6():
    return _equivariance_u(phi6)


def check_equivariance_h11():
    return _equivariance_u(lambda u: x_to_u(h11(u_to_x(u))))


def check_equivariance_g11():
    rng = np.random.default_rng(41)
    alphas = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in (1, 2, 3, 5, 6, 8, 10, 11, 13, 14, 15, 18, 20)}
    return _equivariance_u(lambda u: x_to_u(g11(u_to_x(u), alphas)))


def check_phi6_explicit_agreement():
    u = _rand_u_stack(np.random.default_rng(43), 50)
    worst = chordal_distance(phi6(u), phi6_explicit(u)).max()
    return worst < 1e-10, f"max chordal gap {worst:.2e}"


# --- restriction conformance ----------------------------------------------------
#
# Chart conventions, per line type (all verified to machine precision):
#   mirror 10-line: five-points at 0/inf, second ten-point at 1   -> z^4
#   15-line: five-point 0, fifteen-point inf, paired ten-point 1  -> f6_line15
#   10-line: paired 20-points at 0/inf, a thirty-point at 1       -> -1/z^2
#   15-line (deg-11): paired 30-points at 0/inf, fifteen-pt at 1  -> h11_line15
#   30-line: paired 60-points at 0/inf, fifteen-point at 1        -> h11_line30
#   mirror 15-line: paired 30-points at 0/inf, ten-point at 1     -> h11_m15

class Restriction(NamedTuple):
    map_x: Callable            # the map on 5-coordinate (5, N) stacks
    anchors: np.ndarray        # rows: the chart's points at z = 0, inf, 1
    published: Callable        # the restricted map in the chart, on arrays


RESTRICTIONS: dict[str, Restriction] = {
    name: Restriction(map_x, as_complex([ob.point(d).x for d in anchors]),
                      restricted_map(published))
    for name, map_x, anchors, published in (
        ("f6_mirror_10_line", f6, ("p5_1", "p5_2", "p10_12_2"), "power4"),
        ("f6_15_line", f6, ("p5_5", "p15_5_12", "p10_34_2"), "f6_line15"),
        ("h11_10_line", h11, ("q20_12_1", "q20_12_2", "p30_12_45"),
         "inverse_square"),
        ("h11_15_line", h11, ("q30_12_34_1", "q30_12_34_2", "p15_5_12"),
         "h11_line15"),
        ("h11_30_line", h11, ("q60_5_12_1", "q60_5_12_2", "p15_5_12"),
         "h11_line30"),
        ("h11_mirror_15_line", h11, ("q30_5_12_1", "q30_5_12_2", "p10_12_1"),
         "h11_m15"),
    )}


def check_restriction(name: str):
    """The map, pushed through the chart on its line, against the published
    restriction at 50 seeded chart values, mapped as one (5, 50) stack."""
    row = RESTRICTIONS[name]
    chart = line_chart(*row.anchors)
    z = np.random.default_rng(47).standard_normal((50, 2)) @ [1, 1j]
    w = chart_invert(chart, row.map_x(chart_eval(chart, z)))
    gz = row.published(z)
    worst = (abs(w - gz) / np.maximum(1.0, abs(gz))).max()
    return worst < 1e-7, f"max rel err {worst:.2e} over {len(z)} points"


# --- parameter-family oracles ---------------------------------------------------

def _rel(lhs, rhs):
    return (abs(lhs - rhs) / abs(lhs)).max()


def check_param_oracles():
    """The two hard-coded K-forms, and what ``params`` derives from them
    (T_K = R4 S_K, t_K, Gamma_K and the conjugated map), against direct
    evaluation through the coordinate change, at 20 seeded (v, w) drawn one
    at a time and evaluated as (4, 20) stacks; only the per-K tables and
    maps are built and stepped one K at a time."""
    rng = np.random.default_rng(53)
    vw = [(pr.random_regular_point(rng), _rand_u_stack(rng, 1)[:, 0])
          for _ in range(20)]
    v, w = (np.stack(c, axis=1) for c in zip(*vw))
    T = pr.tau(v)
    img = np.einsum("abn,bn->an", T, w)
    p2v, p3v = iv.phi(v, 2), iv.phi(v, 3)
    pps = [pr.build_param_polys(k) for k in zip(*iv.k_values(v))]
    phi2k, phi3k, gammak, tk = np.array(
        [(pr.phi2K(pp, c), pr.phi3K(pp, c), pr.gammaK(pp, c), pp.tK)
         for pp, c in zip(pps, w.T)]).T
    fmap_w = np.stack([pr.phiK_map(pp)(c) for pp, c in zip(pps, w.T)], axis=1)

    Tn = np.moveaxis(T, -1, 0)
    G = R4 @ Tn.swapaxes(-1, -2) @ R4 @ Tn  # reversed Gram forms
    gram = np.abs(G - p2v[:, None, None] ** 6 * [R4 @ pp.S2 for pp in pps])
    worst = {
        "phi2": _rel(iv.phi(img, 2), p2v ** 6 * phi2k),
        "phi3": _rel(iv.phi(img, 3), p2v ** 9 * phi3k),
        "norm": _rel(np.linalg.det(Tn) ** 2, p2v ** 24 * tk),
        "gram": (gram.max((1, 2)) / np.abs(G).max((1, 2))).max(),
        "gamma": _rel(pr.gamma_v(v, img), p2v ** 5 * p3v * gammak),
        "conjugacy": chordal_distance(
            phi6(img), np.einsum("abn,bn->an", T, fmap_w)).max(),
    }
    bad = {k: e for k, e in worst.items() if e >= 1e-7}
    detail = ", ".join(f"{k} {e:.2e}" for k, e in worst.items())
    return not bad, detail


def check_root_selector():
    """At 20 seeded regular points v, as a (4, 20) stack: the selector of
    K(v) at each of the five conjugated five-points (one (4, 5) stack per K)
    against S(v), and S(v) against the resolvent of K(v)."""
    v = pr.random_regular_point(np.random.default_rng(59), 20)
    S = pr.S_values(v)
    five = pr.conjugated_five_points(pr.tau(v))
    worst_match = worst_res = 0.0
    for n, k in enumerate(zip(*iv.k_values(v))):
        pp = pr.build_param_polys(k)
        coeffs = sv.resolvent_RK(pp.k)
        j = pr.root_selector_J(pp, five[..., n].T)
        worst_match = max(worst_match,
                          (abs(j - S[:, n]) / np.maximum(1.0, abs(S[:, n]))).max())
        worst_res = max(worst_res, abs(np.polyval(coeffs, S[:, n])).max()
                        / np.abs(coeffs).max())
    ok = worst_match < 1e-8 and worst_res < 1e-8
    return ok, f"selector match {worst_match:.2e}, resolvent residual {worst_res:.2e}"


# --- registry -------------------------------------------------------------------

CHECKS: tuple[tuple[str, str, object], ...] = (
    ("group", "order_120", check_group_order),
    ("group", "homomorphism", check_group_homomorphism),
    ("group", "unitary", check_group_unitary),
    ("group", "orbit_sizes", check_orbit_sizes),
    ("invariants", "determinant_identities", check_invariant_identities),
    ("invariants", "group_invariance", check_invariance_under_group),
    ("invariants", "sign_character", check_psi10_sign_character),
    ("orbits", "configuration", check_configuration),
    ("equivariants", "phi6_equivariance", check_equivariance_phi6),
    ("equivariants", "h11_equivariance", check_equivariance_h11),
    ("equivariants", "g11_equivariance", check_equivariance_g11),
    ("equivariants", "phi6_explicit_form", check_phi6_explicit_agreement),
    *(("restrictions", name, partial(check_restriction, name))
      for name in RESTRICTIONS),
    ("params", "coefficient_table_oracles", check_param_oracles),
    ("params", "root_selector", check_root_selector),
)


def run(category_filter: str | None = None) -> list[CheckResult]:
    out = []
    for cat, name, fn in CHECKS:
        if category_filter and cat != category_filter:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(CheckResult(cat, name, bool(ok), detail,
                               time.perf_counter() - t0))
    return out


def categories() -> list[str]:
    return sorted({c for c, _, _ in CHECKS})
