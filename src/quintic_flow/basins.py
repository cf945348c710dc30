"""Basin-of-attraction portraits.

Renders escape-to-attractor images for the registered one-dimensional
restricted maps (on an affine chart of their line/conic) and for the degree-6
solver map on its invariant real plane.  Output is a raw PPM image plus a
JSON sidecar with the attractor legend and cell statistics.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kx
from .equivariants import RestrictedMap1D, f6
from .geometry import INF, chordal_distance
from .group import first_seen

CAPTURE_DEFAULT = 1e-4


class PlaneNotInvariant(ValueError):
    pass


class AttractorsTooClose(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """A rectangular window sampled on a regular pixel grid."""
    center: complex = 0j
    width: float = 4.0
    height: float = 4.0
    resolution: tuple[int, int] = (720, 720)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("window extents must be positive")
        if min(self.resolution) <= 0:
            raise ValueError("resolution must be positive")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = self.resolution
        cx, cy = self.center.real, self.center.imag
        xs = cx + np.linspace(-self.width / 2, self.width / 2, nx)
        ys = cy + np.linspace(-self.height / 2, self.height / 2, ny)
        return xs, ys

    def complex_grid(self) -> np.ndarray:
        xs, ys = self.axes()
        return xs[None, :] + 1j * ys[:, None]


def _pair_of(z) -> np.ndarray:
    if isinstance(z, (int, float, complex)) and not np.isfinite(z):
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([complex(z), 1.0], dtype=complex)


@dataclass(frozen=True)
class AttractorSet:
    """Labeled attracting points or cycles.

    Each cycle is a list of points: affine chart values (INF allowed) for
    one-dimensional maps, real 5-vectors for plane portraits.  ``points``
    holds every point once, in cycle order, as the unit columns of one stack
    (a (2, P) complex stack of CP^1 pairs, or a (5, P) real stack), and
    ``cycle_index`` the index of each point's cycle.  All points, across all
    attractors, must be pairwise separated by more than three capture radii
    in chordal distance so classification is unambiguous.
    """
    labels: tuple[str, ...]
    cycles: tuple[tuple, ...]
    capture: float = CAPTURE_DEFAULT
    points: np.ndarray = field(init=False, repr=False, compare=False)
    cycle_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != len(self.cycles):
            raise ValueError("one label per cycle")
        pts = [p for cyc in self.cycles for p in cyc]
        if pts and np.ndim(pts[0]) == 1:
            P = np.array(pts, dtype=float).T
        else:
            P = np.array([_pair_of(z) for z in pts], dtype=complex
                         ).reshape(-1, 2).T
        P = P / np.linalg.norm(P, axis=0)
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "cycle_index", np.repeat(
            np.arange(len(self.cycles)), [len(c) for c in self.cycles]))
        d = chordal_distance(P[:, :, None], P[:, None, :])
        close = np.triu(d <= 3 * self.capture, 1)
        if close.any():
            i, j = np.argwhere(close)[0]
            raise AttractorsTooClose(
                f"attractor points {i} and {j} are within 3x capture")


@dataclass(frozen=True)
class Portrait:
    grid: GridSpec
    labels: np.ndarray        # per-cell attractor index, -1 = unresolved
    iterations: np.ndarray    # iterations used per cell (max_iter if unresolved)
    attractors: AttractorSet
    max_iter: int

    def __post_init__(self):
        nx, ny = self.grid.resolution
        if self.labels.shape != (ny, nx) or self.iterations.shape != (ny, nx):
            raise ValueError("portrait arrays do not match the grid")


def render_1d(rmap: RestrictedMap1D, grid: GridSpec, attractors: AttractorSet,
              max_iter: int = 60) -> Portrait:
    """Classify every window cell of an affine chart by the attractor its
    orbit under the rational map reaches first (confirmed on two consecutive
    iterates)."""
    labels, iters = kx.classify_1d(rmap.num, rmap.den, grid.complex_grid(),
                                   attractors.points, attractors.cycle_index,
                                   attractors.capture, max_iter)
    return Portrait(grid, labels, iters, attractors, max_iter)


# Real S3-symmetric plane slice for the degree-6 solver map: the affine
# coordinates put three five-points at (1,0) and (-1/2, +-sqrt(3)/2) and a
# ten-point at the origin.  All three spanning vectors have zero coordinate
# sum, so the slice lives in the solver map's natural hyperplane and is
# preserved by it.
PLANE_V0 = np.array([-2.0, -2.0, -2.0, 3.0, 3.0]) / 3.0
PLANE_V1 = np.array([-2.0, 1.0, 1.0, 0.0, 0.0]) * (5.0 / 3.0)
PLANE_V2 = np.array([0.0, -1.0, 1.0, 0.0, 0.0]) * (5.0 / np.sqrt(3.0))

# check_plane_invariant pushes PLANE_SAMPLES seeded window points through the
# map and allows PLANE_TOL of imaginary part or of distance off the plane
PLANE_SAMPLES, PLANE_SEED, PLANE_TOL = 20, 7, 1e-8


def embed_plane(x: float, y: float) -> np.ndarray:
    return PLANE_V0 + x * PLANE_V1 + y * PLANE_V2


def check_plane_invariant(map_x, grid: GridSpec) -> None:
    """Sample window points, push them through the map as one (5, N) stack,
    and verify the images stay in the real span of the plane."""
    rng = np.random.default_rng(PLANE_SEED)
    r = rng.random((PLANE_SAMPLES, 2)) - 0.5     # x then y of each sample
    x = grid.center.real + r[:, 0] * grid.width
    y = grid.center.imag + r[:, 1] * grid.height
    A = np.column_stack([PLANE_V0, PLANE_V1, PLANE_V2])
    img = np.asarray(map_x(A @ np.array([np.ones_like(x), x, y])), dtype=complex)
    top = np.abs(img).max(0)
    keep = top >= 1e-300
    img = img[:, keep] / top[keep]
    if np.abs(img.imag).max(initial=0.0) > PLANE_TOL:
        raise PlaneNotInvariant("map image leaves the real slice")
    coef, *_ = np.linalg.lstsq(A, img.real, rcond=None)
    if np.linalg.norm(A @ coef - img.real, axis=0).max(initial=0.0) > PLANE_TOL:
        raise PlaneNotInvariant("map image leaves the plane span")


def render_plane(map_x, grid: GridSpec, attractors: AttractorSet,
                 max_iter: int = 60) -> Portrait:
    """Portrait of the degree-6 solver map ``f6`` on an invariant real plane.

    ``map_x`` must be ``f6``, the map the plane kernel iterates; any other
    map raises ValueError.  Attractor cycles are real 5-vectors.
    """
    if map_x is not f6:
        raise ValueError("render_plane supports only the degree-6 map f6")
    check_plane_invariant(map_x, grid)
    xs, ys = grid.axes()
    labels, iters = kx.classify_plane(xs, ys, PLANE_V0, PLANE_V1, PLANE_V2,
                                      attractors.points, attractors.cycle_index,
                                      attractors.capture, max_iter)
    return Portrait(grid, labels, iters, attractors, max_iter)


def attractor_statistics(portrait: Portrait) -> dict:
    """Cell fractions per attractor, black (unresolved) fraction, and mean
    iterations over resolved cells."""
    total = portrait.labels.size
    fractions = {}
    for idx, label in enumerate(portrait.attractors.labels):
        fractions[label] = float((portrait.labels == idx).sum() / total)
    black = float((portrait.labels < 0).sum() / total)
    resolved = portrait.labels >= 0
    mean_iters = float(portrait.iterations[resolved].mean()) if resolved.any() \
        else float(portrait.max_iter)
    return {"fractions": fractions, "black_fraction": black,
            "mean_iterations": mean_iters}


def symmetry_fraction(portrait: Portrait, cell_map, label_perm) -> float:
    """Fraction of resolved cells whose label transforms consistently under a
    symmetry of the window, over every third row and column.

    ``cell_map(x, y)`` receives arrays of cell coordinates and returns the
    arrays of their symmetric images; ``label_perm`` maps attractor index to
    the index expected at the image cell.
    """
    xs, ys = portrait.grid.axes()
    nx, ny = portrait.grid.resolution
    rows, cols = np.meshgrid(np.arange(0, ny, 3), np.arange(0, nx, 3),
                             indexing="ij")
    lab = portrait.labels[rows, cols]
    mx, my = cell_map(xs[cols], ys[rows])
    ic = np.rint((mx - xs[0]) / (xs[1] - xs[0]))
    ir = np.rint((my - ys[0]) / (ys[1] - ys[0]))
    keep = (lab >= 0) & (0 <= ic) & (ic < nx) & (0 <= ir) & (ir < ny)
    lab = lab[keep]
    other = portrait.labels[ir[keep].astype(int), ic[keep].astype(int)]
    perm = np.array([label_perm[k]
                     for k in range(len(portrait.attractors.labels))], dtype=int)
    checked = other >= 0
    n = int(checked.sum())
    return float((other[checked] == perm[lab[checked]]).sum() / n) if n else 1.0


# find_attractors_1d: iterations before the period test, and the chordal
# distance under which two iterates count as equal
WARMUP, PERIOD_TOL = 400, 1e-9


def find_attractors_1d(rmap: RestrictedMap1D, seed: int = 0, n_starts: int = 60
                       ) -> AttractorSet:
    """Locate attracting fixed points and 2-cycles by seeded orbit probing.

    Iterates all random starts as one stack, tests each settled point for
    period 1 or 2, and dedups the cycles projectively in start order.
    """
    rng = np.random.default_rng(seed)
    re_im = rng.standard_normal((n_starts, 2, 2))
    Z = (re_im[..., 0] + 1j * re_im[..., 1]).T
    step = kx.pair_step(rmap.num, rmap.den)
    # the last three iterates; a start whose image vanishes or overflows ends
    orbit = [Z]
    for _ in range(WARMUP + 2):
        Z, bad = step(orbit[-1])
        orbit = [P[:, ~bad] for P in orbit[-2:] + [Z]]
    z, a, b = orbit
    period = np.where(chordal_distance(z, a) < PERIOD_TOL, 1,
                      np.where(chordal_distance(z, b) < PERIOD_TOL, 2, 0))
    settled = period > 0
    z, a, period = z[:, settled], a[:, settled], period[settled]
    # a start's cycle as two points, z twice for a fixed point; two cycles
    # are the same when any of their points are close
    a = np.where(period == 1, z, a)
    close = np.zeros((period.size,) * 2, dtype=bool)
    for p in (z, a):
        for q in (z, a):
            close |= (chordal_distance(p[:, :, None], q[:, None, :])
                      < 10 * CAPTURE_DEFAULT)
    def chartval(p):
        return INF if abs(p[1]) < 1e-12 * abs(p[0]) else p[0] / p[1]
    cycles = tuple((chartval(z[:, i]), chartval(a[:, i]))[:period[i]]
                   for i in first_seen(close))
    labels = tuple(f"attractor_{i}" for i in range(len(cycles)))
    return AttractorSet(labels, cycles)


# --- canned attractor sets ----------------------------------------------------

def octahedral_attractors() -> AttractorSet:
    """The four antipodal period-2 vertex pairs of the octahedral 5-map.

    Vertices solve z^8 + 14 z^4 + 1 = 0; the map sends each vertex z to
    -(2+sqrt(3)) z, its antipode.
    """
    inner = (7 - 4 * np.sqrt(3)) ** 0.25
    cycles = []
    labels = []
    for k in range(4):
        v = inner * np.exp(1j * (np.pi + 2 * np.pi * k) / 4)
        cycles.append((v, -(2 + np.sqrt(3)) * v))
        labels.append(f"vertex_pair_{k}")
    return AttractorSet(tuple(labels), tuple(cycles))


def conic_pair_attractors() -> AttractorSet:
    """The exchanged superattracting pair 0 <-> infinity."""
    return AttractorSet(("pair_0_inf",), ((0j, INF),))


def f6_plane_attractors() -> AttractorSet:
    """Three five-points and the central ten-point of the S3 plane slice."""
    five = [embed_plane(1.0, 0.0),
            embed_plane(-0.5, np.sqrt(3) / 2),
            embed_plane(-0.5, -np.sqrt(3) / 2)]
    ten = embed_plane(0.0, 0.0)
    labels = ("five_point_1", "five_point_2", "five_point_3", "ten_point")
    cycles = tuple((p,) for p in five) + ((ten,),)
    return AttractorSet(labels, cycles)


# --- output -------------------------------------------------------------------

# palette for up to 10 attractors; unresolved cells are black
_PALETTE = np.array([
    [230, 70, 60], [60, 130, 230], [70, 200, 90], [240, 200, 50],
    [170, 90, 220], [90, 210, 210], [240, 130, 40], [160, 160, 160],
    [220, 110, 180], [130, 110, 70],
], dtype=np.uint8)


def portrait_rgb(portrait: Portrait) -> np.ndarray:
    ny, nx = portrait.labels.shape
    img = np.zeros((ny, nx, 3), dtype=np.uint8)
    for idx in range(len(portrait.attractors.labels)):
        img[portrait.labels == idx] = _PALETTE[idx % len(_PALETTE)]
    return img


def write_ppm(portrait: Portrait, path: str) -> None:
    """Binary PPM (P6)."""
    img = portrait_rgb(portrait)
    ny, nx = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{nx} {ny}\n255\n".encode())
        fh.write(img.tobytes())


def write_sidecar(portrait: Portrait, path: str, extra: dict | None = None) -> None:
    stats = attractor_statistics(portrait)
    data = {
        "window": {
            "center": [portrait.grid.center.real, portrait.grid.center.imag],
            "width": portrait.grid.width,
            "height": portrait.grid.height,
            "resolution": list(portrait.grid.resolution),
        },
        "max_iter": portrait.max_iter,
        "capture_radius": portrait.attractors.capture,
        "legend": {str(i): lab
                   for i, lab in enumerate(portrait.attractors.labels)},
        "statistics": stats,
    }
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
