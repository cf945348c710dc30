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

import numpy as np

from . import group as gp
from . import invariants as iv
from . import orbits as ob
from . import params as pr
from . import solver as sv
from .equivariants import f6, g11, h11, phi6, phi6_explicit, restricted_map
from .geometry import (chordal_distance, line_chart, chart_eval, chart_invert,
                       x_to_u, u_to_x)


@dataclass(frozen=True)
class CheckResult:
    category: str
    name: str
    ok: bool
    detail: str
    seconds: float


def _rand_u(rng, n=4):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# --- group --------------------------------------------------------------------

def check_group_order():
    els = gp.all_elements()
    mats = {tuple(np.round(g.matrix.ravel(), 9)) for g in els}
    ok = len(els) == 120 and len(mats) == 120
    return ok, f"{len(els)} elements, {len(mats)} distinct matrices"


def check_group_homomorphism():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        s = tuple(rng.permutation(5))
        t = tuple(rng.permutation(5))
        st = tuple(s[t[i]] for i in range(5))
        err = np.abs(gp.element(st).matrix
                     - gp.element(s).matrix @ gp.element(t).matrix).max()
        worst = max(worst, err)
    return worst < 1e-12, f"max composition error {worst:.2e}"


def check_group_unitary():
    worst = max(np.abs(g.matrix @ g.matrix.conj().T - np.eye(4)).max()
                for g in gp.all_elements())
    return worst < 1e-12, f"max unitarity defect {worst:.2e}"


def check_orbit_sizes():
    expected = {"p5_1": 5, "p10_12_1": 10, "p15_1_23": 15, "p20_1_234": 20,
                "p30_12_34": 30, "q20_12_1": 20, "q24": 24,
                "q30_1_24_1": 30, "q60_1_23_1": 60}
    sizes = {}
    for name, want in expected.items():
        pt = ob.point(name)
        got = len(gp.orbit(pt.u))
        sizes[name] = got
        if got != want or pt.orbit_size != want:
            return False, f"{name}: got {got}, want {want}"
    return True, f"all {len(expected)} orbit sizes exact"


# --- invariants ---------------------------------------------------------------

def check_invariant_identities(n: int = 1000):
    rng = np.random.default_rng(23)
    u = np.column_stack([_rand_u(rng) for _ in range(n)])
    p4 = iv.phi(u, 4)
    p5 = iv.phi(u, 5)
    worst4 = (abs(iv.phi4_from_G4(u) - p4) / abs(p4)).max()
    worst5 = (abs(iv.phi5_from_G5(u) - p5) / abs(p5)).max()
    ok = worst4 < 1e-9 and worst5 < 1e-9
    return ok, f"rel errors: degree4 {worst4:.2e}, degree5 {worst5:.2e}"


def check_invariance_under_group(n: int = 20):
    rng = np.random.default_rng(29)
    worst = 0.0
    els = gp.all_elements()
    for _ in range(n):
        u = _rand_u(rng)
        vals = [iv.phi(u, k) for k in (2, 3, 4, 5)]
        g = els[rng.integers(120)]
        gu = g.matrix @ u
        for k, val in zip((2, 3, 4, 5), vals):
            worst = max(worst, abs(iv.phi(gu, k) - val) / abs(val))
    return worst < 1e-9, f"max invariance defect {worst:.2e}"


def check_psi10_sign_character(n: int = 10):
    """The degree-10 invariant flips sign under odd permutations and is
    fixed by even ones."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(n):
        u = _rand_u(rng)
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

def _equivariance_u(map_u, n_pts: int = 20, tol: float = 1e-8):
    """Worst chordal gap between map_u(g u) and g map_u(u) over n_pts random
    points and all 120 elements, mapped as one (4, 120 * n_pts) stack."""
    rng = np.random.default_rng(37)
    u = np.column_stack([_rand_u(rng) for _ in range(n_pts)])
    mats = gp.all_matrices()

    def flat(stack):  # (120, 4, n_pts) -> (4, 120 * n_pts)
        return np.moveaxis(stack, 1, 0).reshape(4, -1)

    worst = chordal_distance(map_u(flat(mats @ u)), flat(mats @ map_u(u))).max()
    return worst < tol, f"max equivariance defect {worst:.2e}"


def check_equivariance_phi6():
    return _equivariance_u(phi6)


def check_equivariance_h11():
    return _equivariance_u(lambda u: x_to_u(h11(u_to_x(u))))


def check_equivariance_g11():
    rng = np.random.default_rng(41)
    alphas = {k: complex(rng.standard_normal(), rng.standard_normal())
              for k in (1, 2, 3, 5, 6, 8, 10, 11, 13, 14, 15, 18, 20)}
    return _equivariance_u(lambda u: x_to_u(g11(u_to_x(u), alphas)))


def check_phi6_explicit_agreement(n: int = 50):
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(n):
        u = _rand_u(rng)
        worst = max(worst, chordal_distance(phi6(u), phi6_explicit(u)))
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

def _conformance(map_x, chart, g, n: int, tol: float, seed: int = 47):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        w = chart_invert(chart, map_x(chart_eval(chart, z)))
        gz = g(z)
        worst = max(worst, abs(w - gz) / max(1.0, abs(gz)))
    return worst < tol, f"max rel err {worst:.2e} over {n} points"


def _c(v):
    return np.asarray(v, dtype=complex)


def check_f6_on_mirror_10_line(n: int = 50, tol: float = 1e-7):
    ch = line_chart(_c([-4, 1, 1, 1, 1]), _c([1, -4, 1, 1, 1]),
                    at_one=_c([-3, -3, 2, 2, 2]))
    return _conformance(f6, ch, lambda z: z ** 4, n, tol)


def check_f6_on_15_line(n: int = 50, tol: float = 1e-7):
    rm = restricted_map("f6_line15")
    ch = line_chart(_c([1, 1, 1, 1, -4]), _c([1, 1, -1, -1, 0]),
                    at_one=_c([2, 2, -3, -3, 2]))
    return _conformance(f6, ch, rm, n, tol)


def check_h11_on_10_line(n: int = 50, tol: float = 1e-7):
    q1 = ob.point("q20_12_1").x
    q2 = ob.point("q20_12_2").x
    ch = line_chart(q1, q2, at_one=_c([0, 0, -2, 1, 1]))
    return _conformance(h11, ch, lambda z: -1 / z ** 2, n, tol)


def check_h11_on_15_line(n: int = 50, tol: float = 1e-7):
    rm = restricted_map("h11_line15")
    beta = (-2 + np.sqrt(5) * 1j) / 3
    qa = np.array([1, 1, beta, beta, -2 * (1 + beta)])
    ch = line_chart(qa, np.conj(qa), at_one=_c([1, 1, -1, -1, 0]))
    return _conformance(h11, ch, rm, n, tol)


def check_h11_on_30_line(n: int = 50, tol: float = 1e-7):
    rm = restricted_map("h11_line30")
    qa = np.array([1, 1, -1 + np.sqrt(2) * 1j, -1 - np.sqrt(2) * 1j, 0])
    ch = line_chart(qa, np.conj(qa), at_one=_c([1, 1, -1, -1, 0]))
    return _conformance(h11, ch, rm, n, tol)


def check_h11_on_mirror_15_line(n: int = 50, tol: float = 1e-7):
    rm = restricted_map("h11_m15")
    qa = np.array([1, -1, 1j, -1j, 0])
    ch = line_chart(qa, np.conj(qa), at_one=_c([1, -1, 0, 0, 0]))
    return _conformance(h11, ch, rm, n, tol)


# --- parameter-family oracles ---------------------------------------------------

def check_param_oracles(n: int = 20, tol: float = 1e-7):
    """The hard-coded K-coefficient tables against direct evaluation through
    the coordinate change."""
    rng = np.random.default_rng(53)
    worst = {"phi2": 0.0, "phi3": 0.0, "norm": 0.0, "gram": 0.0,
             "gamma": 0.0, "conjugacy": 0.0}
    for _ in range(n):
        v = pr.random_regular_point(rng)
        w = _rand_u(rng)
        tv = pr.tau(v)
        K = iv.k_values(v)
        pp = pr.build_param_polys(K)
        img = tv.matrix @ w
        p2v = iv.phi(v, 2)
        p3v = iv.phi(v, 3)

        lhs = iv.phi(img, 2)
        rhs = p2v ** 6 * pr.phi2K(pp, w)
        worst["phi2"] = max(worst["phi2"], abs(lhs - rhs) / abs(lhs))
        lhs = iv.phi(img, 3)
        rhs = p2v ** 9 * pr.phi3K(pp, w)
        worst["phi3"] = max(worst["phi3"], abs(lhs - rhs) / abs(lhs))

        lhs = np.linalg.det(tv.matrix) ** 2
        rhs = p2v ** 24 * pp.tK
        worst["norm"] = max(worst["norm"], abs(lhs - rhs) / abs(lhs))

        R4 = np.eye(4)[::-1]
        G = R4 @ tv.matrix.T @ R4 @ tv.matrix  # reversed Gram form
        rhs = p2v ** 6 * pp.TK
        worst["gram"] = max(worst["gram"],
                            np.abs(G - rhs).max() / np.abs(G).max())

        lhs = pr.gamma_v(tv, w)
        rhs = p2v ** 5 * p3v * pr.gammaK(pp, w)
        worst["gamma"] = max(worst["gamma"], abs(lhs - rhs) / abs(lhs))

        fmap = pr.phiK_map(pp)
        worst["conjugacy"] = max(worst["conjugacy"],
                                 chordal_distance(phi6(img),
                                                  tv.matrix @ fmap(w)))
    bad = {k: e for k, e in worst.items() if e >= tol}
    detail = ", ".join(f"{k} {e:.2e}" for k, e in worst.items())
    return not bad, detail


def check_root_selector(n: int = 20, tol: float = 1e-8):
    rng = np.random.default_rng(59)
    worst_match = worst_res = 0.0
    for _ in range(n):
        v = pr.random_regular_point(rng)
        tv = pr.tau(v)
        pp = pr.build_param_polys(iv.k_values(v))
        S = pr.S_values(v)
        coeffs = sv.resolvent_RK(pp.k)
        scale = np.abs(coeffs).max()
        for ell, w in enumerate(pr.conjugated_five_points(tv)):
            j = pr.root_selector_J(pp, w)
            worst_match = max(worst_match,
                              abs(j - S[ell]) / max(1.0, abs(S[ell])))
            worst_res = max(worst_res, abs(np.polyval(coeffs, S[ell])) / scale)
    ok = worst_match < tol and worst_res < tol
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
    ("restrictions", "f6_mirror_10_line", check_f6_on_mirror_10_line),
    ("restrictions", "f6_15_line", check_f6_on_15_line),
    ("restrictions", "h11_10_line", check_h11_on_10_line),
    ("restrictions", "h11_15_line", check_h11_on_15_line),
    ("restrictions", "h11_30_line", check_h11_on_30_line),
    ("restrictions", "h11_mirror_15_line", check_h11_on_mirror_15_line),
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
