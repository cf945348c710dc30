"""Basin-of-attraction portraits.

Renders escape-to-attractor images for the registered one-dimensional
restricted maps (on an affine chart of their line/conic) and for the degree-6
solver map on its invariant real plane.  Output is a raw PPM image plus a
JSON sidecar with the attractor legend and cell statistics.

``PORTRAITS`` states each portrait's facts once, one row per map name: its
default window, its canned attractor set (or none, to probe for one) and its
symmetry generators.  A render keeps the elements of the generators' group
that map its window and its attractor set onto themselves, with label
permutations derived from the attractor points, and the kernel iterates one
cell per orbit of them (see ``_kernels``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kx
from .equivariants import (RestrictedMap1D, f6, restricted_map,
                           restricted_map_names)
from .geometry import CAPTURE, INF, MEMBER_TOL, chordal_distance
from .group import first_seen
from .orbits import plane


class PlaneNotInvariant(ValueError):
    pass


class AttractorsTooClose(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """A rectangular window sampled on a regular pixel grid."""
    center: complex
    width: float
    height: float
    resolution: tuple[int, int]

    def __post_init__(self):
        if not (np.isfinite(self.center) and 0 < self.width < INF
                and 0 < self.height < INF):   # NaN fails every comparison
            raise ValueError("window must be finite with positive extents")
        res = self.resolution    # one cell would sample the window's corner
        if not (isinstance(res, (tuple, list)) and len(res) == 2 and all(
                isinstance(n, (int, np.integer)) and n >= 2 for n in res)):
            raise ValueError("resolution must be two integers of at least 2")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = self.resolution
        cx, cy = self.center.real, self.center.imag
        xs = cx + np.linspace(-self.width / 2, self.width / 2, nx)
        ys = cy + np.linspace(-self.height / 2, self.height / 2, ny)
        return xs, ys


def _pair_of(z) -> np.ndarray:
    if isinstance(z, (int, float, complex)) and not np.isfinite(z):
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([complex(z), 1.0], dtype=complex)


@dataclass(frozen=True)
class AttractorSet:
    """Labeled attracting points or cycles.

    Each cycle is a list of points: affine chart values (INF allowed) for
    one-dimensional maps, 5-vectors for plane portraits.  ``points`` holds
    every point once, in cycle order, as the unit columns of one stack (chart
    values as CP^1 pairs) whose dtype follows the points, and
    ``cycle_index`` the index of each point's cycle.  All points, across all
    attractors, must be pairwise separated by more than three capture radii
    in chordal distance so classification is unambiguous.
    """
    labels: tuple[str, ...]
    cycles: tuple[tuple, ...]
    points: np.ndarray = field(init=False, repr=False, compare=False)
    cycle_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != len(self.cycles):
            raise ValueError("one label per cycle")
        cols = [np.asarray(p) if np.ndim(p) else _pair_of(p)
                for cyc in self.cycles for p in cyc]
        P = np.array(cols).T if cols else np.zeros((2, 0), dtype=complex)
        P = P / np.linalg.norm(P, axis=0)
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "cycle_index", np.repeat(
            np.arange(len(self.cycles)), [len(c) for c in self.cycles]))
        d = chordal_distance(P[:, :, None], P[:, None, :])
        close = np.triu(d <= 3 * CAPTURE, 1)
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


@dataclass(frozen=True)
class Symmetry:
    """A symmetry of a portrait's map: the signed permutation matrix ``cell``
    of the window coordinates (x, y) and the same transformation of the
    slice's columns, X -> A X, or A conj(X) where ``conj``.  ``g @ h`` is h
    followed by g."""
    cell: tuple[tuple[int, int], tuple[int, int]]
    column: np.ndarray = field(compare=False)
    conj: bool = False

    def __call__(self, X):
        return self.column @ (X.conj() if self.conj else X)

    def __matmul__(self, h: "Symmetry") -> "Symmetry":
        cell = tuple(map(tuple, (np.array(self.cell) @ h.cell).tolist()))
        a = h.column.conj() if self.conj else h.column
        return Symmetry(cell, self.column @ a, self.conj != h.conj)

    def fixes_window(self, grid: GridSpec) -> bool:
        """Whether the cell map sends the grid onto itself: it fixes the
        window's centre, and where it swaps the axes, the extents and the
        resolutions are equal."""
        c = np.array([grid.center.real, grid.center.imag])
        if not (np.array(self.cell) @ c == c).all():
            return False
        nx, ny = grid.resolution
        return self.cell[0][0] != 0 or (grid.width == grid.height and nx == ny)

    def label_permutation(self, attractors) -> np.ndarray | None:
        """perm with cycle k sent onto cycle perm[k], each image point within
        MEMBER_TOL of a point of the set, or None where the set is not
        closed under the symmetry."""
        P, ci = attractors.points, attractors.cycle_index
        if not ci.size:
            return ci
        d = chordal_distance(self(P)[:, :, None], P[:, None, :])
        match = d.argmin(1)
        perm = np.full(len(attractors.cycles), -1)
        perm[ci] = ci[match]
        if ((d[np.arange(len(ci)), match] > MEMBER_TOL).any()
                or (perm[ci] != ci[match]).any()
                or (np.sort(perm) != np.arange(perm.size)).any()):
            return None
        return perm


def symmetry_group(generators) -> list[Symmetry]:
    """Every product of the generators, each once by its action."""
    group = list(generators)
    for g in group:          # grows as it goes, until closed
        for h in generators:
            gh = g @ h
            if not any(gh.cell == k.cell and gh.conj == k.conj
                       and np.array_equal(gh.column, k.column) for k in group):
                group.append(gh)
    return group


def window_symmetries(generators, grid: GridSpec, attractors) -> list:
    """The kernel's ``symmetries`` for a render: the (cell, label
    permutation) of each element of the generators' group, other than those
    that move no cell, that maps the window and the attractor set onto
    themselves.  These elements form a subgroup: the intersection of the two
    stabilizers."""
    kept = []
    for g in symmetry_group(generators):
        if g.cell != ((1, 0), (0, 1)) and g.fixes_window(grid):
            perm = g.label_permutation(attractors)
            if perm is not None:
                kept.append((g.cell, perm))
    return kept


def render_1d(rmap: RestrictedMap1D, grid: GridSpec, attractors: AttractorSet,
              max_iter: int = 60) -> Portrait:
    """Classify every window cell of an affine chart by the attractor its
    orbit under the rational map reaches first (confirmed on two consecutive
    iterates).  Where its ``PORTRAITS`` row's symmetries map the window and
    the attractors onto themselves, one cell per orbit is iterated and the
    rest filled from it (see ``_kernels.classify_1d``)."""
    row = PORTRAITS.get(rmap.name)
    sym = window_symmetries(row.symmetries if row else (), grid, attractors)
    labels, iters = kx.classify_1d(rmap, *grid.axes(), attractors.points,
                                   attractors.cycle_index, max_iter, sym)
    return Portrait(grid, labels, iters, attractors, max_iter)


# Real S3-symmetric plane slice for the degree-6 solver map: the affine
# coordinates put three five-points at (1,0) and (-1/2, +-sqrt(3)/2) and a
# ten-point at the origin.  The three vectors span the real points of the
# special plane {x4 = x5} inside {sum x = 0}, which the solver map preserves.
PLANE_V0 = np.array([-2.0, -2.0, -2.0, 3.0, 3.0]) / 3.0
PLANE_V1 = np.array([-2.0, 1.0, 1.0, 0.0, 0.0]) * (5.0 / 3.0)
PLANE_V2 = np.array([0.0, -1.0, 1.0, 0.0, 0.0]) * (5.0 / np.sqrt(3.0))
_PLANE = plane("L2_10_45")

# check_plane_invariant maps PLANE_SAMPLES seeded window points
PLANE_SAMPLES, PLANE_SEED = 20, 7


def embed_plane(x, y) -> np.ndarray:
    """The slice point at plane coordinates (x, y); on arrays of them, the
    (5, ...) stack of their points."""
    out = np.multiply.outer
    return out(PLANE_V0, np.ones_like(x)) + out(PLANE_V1, x) + out(PLANE_V2, y)


def check_plane_invariant(map_x, grid: GridSpec) -> None:
    """Sample window points, push them through the map as one (5, N) stack,
    and verify that the images that are finite and nonzero stay real, within
    MEMBER_TOL, and on the slice's plane."""
    rng = np.random.default_rng(PLANE_SEED)
    r = rng.random((PLANE_SAMPLES, 2)) - 0.5     # x then y of each sample
    x = grid.center.real + r[:, 0] * grid.width
    y = grid.center.imag + r[:, 1] * grid.height
    with np.errstate(over="ignore", invalid="ignore"):
        img, bad = kx.map_step(map_x)(embed_plane(x, y))
    img = img.compress(~bad, 1)
    if np.abs(img.imag).max(initial=0.0) > MEMBER_TOL:
        raise PlaneNotInvariant("map image leaves the real slice")
    if not _PLANE.contains(img.real).all():
        raise PlaneNotInvariant("map image leaves the plane span")


def render_plane(map_x, grid: GridSpec, attractors: AttractorSet,
                 max_iter: int = 60) -> Portrait:
    """Portrait of the degree-6 solver map ``f6`` on an invariant real plane.

    ``map_x`` must be ``f6``, the map the plane kernel iterates; any other
    map raises ValueError.  Attractor cycles are real 5-vectors.  Where the
    window and the attractors are symmetric under the ``f6_plane`` row's
    symmetries, one cell per orbit is iterated and the rest filled from it.
    """
    if map_x is not f6:
        raise ValueError("render_plane supports only the degree-6 map f6")
    check_plane_invariant(map_x, grid)
    xs, ys = grid.axes()
    labels, iters = kx.classify_plane(
        xs, ys, PLANE_V0, PLANE_V1, PLANE_V2, attractors.points,
        attractors.cycle_index, max_iter,
        window_symmetries(PORTRAITS["f6_plane"].symmetries, grid, attractors))
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


# find_attractors_1d: random starts, iterations before the period test, and
# the chordal distance under which two iterates count as equal
N_STARTS, WARMUP, PERIOD_TOL = 60, 400, 1e-9


def find_attractors_1d(rmap: RestrictedMap1D, seed: int = 0) -> AttractorSet:
    """Locate attracting fixed points and 2-cycles by seeded orbit probing.

    Iterates all random starts as one stack, tests each settled point for
    period 1 or 2, and dedups the cycles projectively in start order.
    """
    rng = np.random.default_rng(seed)
    re_im = rng.standard_normal((N_STARTS, 2, 2))
    Z = (re_im[..., 0] + 1j * re_im[..., 1]).T
    step = kx.map_step(lambda Z: rmap.pair(*Z))
    # the last three iterates; a start whose image vanishes or overflows ends
    orbit = [Z]
    for _ in range(WARMUP + 2):
        Z, bad = step(orbit[-1])
        orbit = [P.compress(~bad, 1) for P in orbit[-2:] + [Z]]
    z, a, b = orbit
    period = np.where(chordal_distance(z, a) < PERIOD_TOL, 1,
                      np.where(chordal_distance(z, b) < PERIOD_TOL, 2, 0))
    settled = period > 0
    z, a, period = (z.compress(settled, 1), a.compress(settled, 1),
                     period[settled])
    # a start's cycle as two points, z twice for a fixed point; two cycles
    # are the same when any of their points are close
    a = np.where(period == 1, z, a)
    close = np.zeros((period.size,) * 2, dtype=bool)
    for p in (z, a):
        for q in (z, a):
            close |= (chordal_distance(p[:, :, None], q[:, None, :])
                      < 10 * CAPTURE)
    def chartval(p):
        return INF if abs(p[1]) < 1e-12 * abs(p[0]) else p[0] / p[1]
    cycles = tuple((chartval(z[:, i]), chartval(a[:, i]))[:period[i]]
                   for i in first_seen(close))
    labels = tuple(f"attractor_{i}" for i in range(len(cycles)))
    return AttractorSet(labels, cycles)


# --- canned attractor sets and the portrait registry -------------------------

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


@dataclass(frozen=True)
class PortraitRow:
    """A portrait's default window (centre, width, height), its canned
    attractors (None: probe for them) and its map's symmetry generators."""
    window: tuple[complex, float, float]
    attractors: AttractorSet | None
    symmetries: tuple[Symmetry, ...] = ()


# One row per --map name: each restricted map on the chart window [-2, 2]^2,
# and f6 on its plane slice.  The octahedral 5-map commutes with z -> iz and
# z -> conj(z) (the square's eight symmetries: 64,980 of 720^2 cells are
# iterated), f6 with x2 <-> x3, y -> -y on the slice (259,200 cells).  The
# conic's threefold rotation misses the grid and its reflections fail at
# roundoff (244 of 720^2 cells differ), so it iterates every cell.
_CHART = (0j, 4.0, 4.0)
PORTRAITS = {name: PortraitRow(_CHART, None)
             for name in restricted_map_names()} | {
    "octahedral5": PortraitRow(_CHART, octahedral_attractors(), (
        Symmetry(((0, -1), (1, 0)), np.diag([1j, 1])),
        Symmetry(((1, 0), (0, -1)), np.eye(2), conj=True))),
    "g11_conic10": PortraitRow(_CHART, conic_pair_attractors()),
    "inverse_square": PortraitRow(_CHART, conic_pair_attractors()),
    "power4": PortraitRow(_CHART, AttractorSet(("zero", "infinity"),
                                               ((0j,), (INF,)))),
    "f6_plane": PortraitRow((0j, 2.5, 2.5), f6_plane_attractors(), (
        Symmetry(((1, 0), (0, -1)), np.eye(5)[[0, 2, 1, 3, 4]]),)),
}


def portrait_attractors(name: str, seed: int = 0) -> AttractorSet:
    """The named portrait's canned attractor set or, where its row has none,
    the set ``find_attractors_1d`` probes for with ``seed``."""
    return (PORTRAITS[name].attractors
            or find_attractors_1d(restricted_map(name), seed=seed))


def render(name: str, grid: GridSpec, attractors: AttractorSet,
           max_iter: int = 60) -> Portrait:
    """The named portrait, through ``render_plane`` or ``render_1d``."""
    if name == "f6_plane":
        return render_plane(f6, grid, attractors, max_iter)
    return render_1d(restricted_map(name), grid, attractors, max_iter)


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
        "capture_radius": CAPTURE,
        "legend": {str(i): lab
                   for i, lab in enumerate(portrait.attractors.labels)},
        "statistics": stats,
    }
    if extra:
        data.update(extra)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
