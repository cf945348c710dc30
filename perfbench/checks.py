"""Output checks made by the benchmark, independent of the program's own
acceptance gates.  A check returns the names of the checks that missed; the
caller counts a miss as a failed operation and carries on."""
from __future__ import annotations

import hashlib
import json

import numpy as np

from quintic_flow import basins as bs

# Scale-invariant backward error bound for one root x of the monic p:
# |p(x)| / sum_k |a_k| |x|^k  (Higham, Accuracy and Stability, ch. 5).
BACKWARD_ERROR_BOUND = 1e-10


def backward_error(coeffs, x: complex) -> float:
    """Backward error of x as a root of the monic polynomial with lower
    coefficients a1..a5 (highest power first)."""
    c = np.array((1,) + tuple(coeffs), dtype=complex)
    den = np.polyval(np.abs(c), abs(x))
    return float(abs(np.polyval(c, x)) / den) if den > 0 else 0.0


def solve_output_misses(coeffs, report_json: str) -> list[str]:
    """Check the JSON the solve CLI would print: five finite roots, each
    within the backward error bound."""
    try:
        roots = [complex(re, im) for re, im in json.loads(report_json)["roots"]]
    except (ValueError, KeyError, TypeError):
        return ["bad_output"]
    if len(roots) != 5 or not all(np.isfinite(r) for r in roots):
        return ["bad_output"]
    if any(not backward_error(coeffs, r) <= BACKWARD_ERROR_BOUND for r in roots):
        return ["bad_output"]
    return []


def label_checksum(labels: np.ndarray) -> str:
    """Exact checksum of a label image: shape plus little-endian int32 cells."""
    arr = np.ascontiguousarray(labels, dtype="<i4")
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


# Label checksums of the three acceptance portraits (720 x 720, max_iter 60,
# capture 1e-4).  Both kernel backends must reproduce them exactly.
PORTRAIT_CHECKSUMS = {
    "g11_conic10": "971ba203cf43fd84",
    "octahedral5": "0e7b5569c73a77f4",
    "f6_plane": "3fd29e4d60f0d579",
}


def _rotation(theta: float):
    c, s = np.cos(theta), np.sin(theta)
    return lambda x, y: (c * x - s * y, s * x + c * y)


def portrait_misses(name: str, portrait) -> list[str]:
    """The acceptance assertions of one portrait plus its exact checksum.
    The basins functions are looked up at call time, so a trace sees them."""
    stats = bs.attractor_statistics(portrait)
    misses = []
    if not stats["black_fraction"] < 0.05:
        misses.append("black_fraction")
    fr = stats["fractions"]
    if name == "g11_conic10":
        balanced = fr["pair_0_inf"] >= 0.99
        sym = [bs.symmetry_fraction(portrait, _rotation(2 * np.pi / 3), {0: 0})]
    elif name == "octahedral5":
        v = [fr[f"vertex_pair_{k}"] for k in range(4)]
        balanced = max(v) - min(v) < 0.02
        sym = [bs.symmetry_fraction(portrait, lambda x, y: (-y, x),
                                    {0: 1, 1: 2, 2: 3, 3: 0})]
    else:
        v = [fr[f"five_point_{k}"] for k in (1, 2, 3)]
        balanced = max(v) - min(v) < 0.02
        sym = [bs.symmetry_fraction(portrait, _rotation(2 * np.pi / 3),
                                    {0: 1, 1: 2, 2: 0, 3: 3}),
               bs.symmetry_fraction(portrait, lambda x, y: (x, -y),
                                    {0: 0, 1: 2, 2: 1, 3: 3})]
    if not balanced:
        misses.append("basin_balance")
    if not min(sym) >= 0.98:
        misses.append("symmetry")
    if label_checksum(portrait.labels) != PORTRAIT_CHECKSUMS[name]:
        misses.append("checksum")
    return misses
