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
from .geometry import INF

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


def _cp1_dist(p, q) -> float:
    p = p / np.linalg.norm(p)
    q = q / np.linalg.norm(q)
    return abs(p[0] * q[1] - p[1] * q[0])


def _rp4_dist(p, q) -> float:
    c = abs(np.dot(p, q)) / (np.linalg.norm(p) * np.linalg.norm(q))
    return float(np.sqrt(max(0.0, 1.0 - c * c)))


@dataclass(frozen=True)
class AttractorSet:
    """Labeled attracting points or cycles.

    Each cycle is a list of points: affine chart values (INF allowed) for
    one-dimensional maps, real 5-vectors for plane portraits.  All points,
    across all attractors, must be pairwise separated by more than three
    capture radii so classification is unambiguous.
    """
    labels: tuple[str, ...]
    cycles: tuple[tuple, ...]
    capture: float = CAPTURE_DEFAULT

    def __post_init__(self):
        if len(self.labels) != len(self.cycles):
            raise ValueError("one label per cycle")
        pts = [p for cyc in self.cycles for p in cyc]
        if pts and np.ndim(np.asarray(pts[0])) == 1:
            metric, pts = _rp4_dist, [np.asarray(p, float) for p in pts]
        else:
            metric, pts = _cp1_dist, [_pair_of(p) for p in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if metric(pts[i], pts[j]) <= 3 * self.capture:
                    raise AttractorsTooClose(
                        f"attractor points {i} and {j} are within 3x capture")

    def flat_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = []
        offsets = [0]
        for cyc in self.cycles:
            pairs.extend(_pair_of(z) for z in cyc)
            offsets.append(len(pairs))
        return np.array(pairs, dtype=complex), np.array(offsets, dtype=np.int64)

    def flat_vectors(self) -> np.ndarray:
        # plane kernel classifies against single points; cycles of real
        # 5-vectors are not needed for the supported plane portraits
        return np.array([cyc[0] for cyc in self.cycles], dtype=float)


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
    pairs, offsets = attractors.flat_pairs()
    labels, iters = kx.classify_1d(rmap.num, rmap.den, grid.complex_grid(),
                                   pairs, offsets, attractors.capture, max_iter)
    return Portrait(grid, labels, iters, attractors, max_iter)


# Real S3-symmetric plane slice for the degree-6 solver map: the affine frame
# puts three five-points at (1,0) and (-1/2, +-sqrt(3)/2) and a ten-point at
# the origin.  All three frame vectors have zero coordinate sum, so the slice
# lives in the solver map's natural hyperplane and is preserved by it.
PLANE_V0 = np.array([-2.0, -2.0, -2.0, 3.0, 3.0]) / 3.0
PLANE_V1 = np.array([-2.0, 1.0, 1.0, 0.0, 0.0]) * (5.0 / 3.0)
PLANE_V2 = np.array([0.0, -1.0, 1.0, 0.0, 0.0]) * (5.0 / np.sqrt(3.0))


def embed_plane(x: float, y: float, frame=None) -> np.ndarray:
    v0, v1, v2 = frame if frame is not None else (PLANE_V0, PLANE_V1, PLANE_V2)
    return v0 + x * v1 + y * v2


def check_plane_invariant(map_x, grid: GridSpec, frame=None, samples: int = 20,
                          seed: int = 7, tol: float = 1e-8) -> None:
    """Sample window points, push them through the map, and verify the images
    stay in the real span of the plane frame."""
    v0, v1, v2 = frame if frame is not None else (PLANE_V0, PLANE_V1, PLANE_V2)
    rng = np.random.default_rng(seed)
    A = np.column_stack([v0, v1, v2])
    for _ in range(samples):
        x = grid.center.real + (rng.random() - 0.5) * grid.width
        y = grid.center.imag + (rng.random() - 0.5) * grid.height
        img = np.asarray(map_x(embed_plane(x, y, (v0, v1, v2))), dtype=complex)
        top = np.abs(img).max()
        if top < 1e-300:
            continue
        img = img / top
        if np.abs(img.imag).max() > tol:
            raise PlaneNotInvariant("map image leaves the real slice")
        coef, *_ = np.linalg.lstsq(A, img.real, rcond=None)
        if np.linalg.norm(A @ coef - img.real) > tol:
            raise PlaneNotInvariant("map image leaves the plane span")


def render_plane(map_x, grid: GridSpec, attractors: AttractorSet,
                 max_iter: int = 60, frame=None) -> Portrait:
    """Portrait of the degree-6 solver map ``f6`` on an invariant real plane.

    ``map_x`` must be ``f6``, the map the plane kernel iterates; any other
    map raises ValueError.  Attractor cycles are real 5-vectors.
    """
    if map_x is not f6:
        raise ValueError("render_plane supports only the degree-6 map f6")
    check_plane_invariant(map_x, grid, frame=frame)
    v0, v1, v2 = frame if frame is not None else (PLANE_V0, PLANE_V1, PLANE_V2)
    xs, ys = grid.axes()
    labels, iters = kx.classify_plane(xs, ys, v0, v1, v2,
                                      attractors.flat_vectors(),
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


def find_attractors_1d(rmap: RestrictedMap1D, seed: int = 0, n_starts: int = 60,
                       warmup: int = 400, capture: float = CAPTURE_DEFAULT
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
    for _ in range(warmup + 2):
        Z, bad = step(orbit[-1])
        orbit = [P[:, ~bad] for P in orbit[-2:] + [Z]]
    cycles: list[list[np.ndarray]] = []
    for z, a, b in zip(*(P.T for P in orbit)):
        if _cp1_dist(z, a) < 1e-9:
            cyc = [z]
        elif _cp1_dist(z, b) < 1e-9:
            cyc = [z, a]
        else:
            continue
        for known in cycles:
            if any(_cp1_dist(p, q) < 10 * capture for p in cyc for q in known):
                break
        else:
            cycles.append(cyc)
    def chartval(p):
        return INF if abs(p[1]) < 1e-12 * abs(p[0]) else p[0] / p[1]
    labels = tuple(f"attractor_{i}" for i in range(len(cycles)))
    return AttractorSet(labels,
                        tuple(tuple(chartval(p) for p in cyc) for cyc in cycles),
                        capture)


# --- canned attractor sets ----------------------------------------------------

def octahedral_attractors(capture: float = CAPTURE_DEFAULT) -> AttractorSet:
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
    return AttractorSet(tuple(labels), tuple(cycles), capture)


def conic_pair_attractors(capture: float = CAPTURE_DEFAULT) -> AttractorSet:
    """The exchanged superattracting pair 0 <-> infinity."""
    return AttractorSet(("pair_0_inf",), ((0j, INF),), capture)


def f6_plane_attractors(capture: float = CAPTURE_DEFAULT) -> AttractorSet:
    """Three five-points and the central ten-point of the S3 plane slice."""
    five = [embed_plane(1.0, 0.0),
            embed_plane(-0.5, np.sqrt(3) / 2),
            embed_plane(-0.5, -np.sqrt(3) / 2)]
    ten = embed_plane(0.0, 0.0)
    labels = ("five_point_1", "five_point_2", "five_point_3", "ten_point")
    cycles = tuple((p,) for p in five) + ((ten,),)
    return AttractorSet(labels, cycles, capture)


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
