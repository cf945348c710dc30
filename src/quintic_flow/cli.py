"""Command-line surface: solve quintics, run the verification suite, dump
special orbits, render basin portraits, print resolvents."""
from __future__ import annotations

import csv
import sys
import time

import click
import numpy as np

from . import _kernels as kx
from . import basins as bs
from . import orbits as ob
from . import params as pr
from . import solver as sv
from . import verify as vf

EXIT_BAD_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_REGULARIZATION = 3
EXIT_DEGENERATE = 4


@click.group()
def main():
    """Quintic solving by equivariant iteration, plus its verification
    surface."""


@main.command()
@click.argument("source", type=click.File("r"), default="-")
@click.option("--seed", type=click.IntRange(0), default=0, show_default=True)
@click.option("--out", type=click.File("w"), default="-",
              help="Where to write the JSON report.")
def solve(source, seed, out):
    """Solve a monic quintic given as JSON {"coefficients": [[re,im] x5]}."""
    try:
        p = sv.quintic_from_json(source.read())
    except (ValueError, KeyError, TypeError) as exc:
        click.echo(f"malformed input: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    try:
        report = sv.solve(p, seed=seed)
    except sv.NonFiniteCoefficients as exc:
        click.echo(f"malformed input: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    except sv.NoConvergence as exc:
        click.echo(f"no convergence: {exc}", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)
    except sv.RegularizationFailed as exc:
        click.echo(f"regularization failed: {exc}", err=True)
        sys.exit(EXIT_REGULARIZATION)
    except pr.DegenerateK as exc:
        click.echo(f"degenerate parameters: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE)
    out.write(sv.report_to_json(report) + "\n")


@main.command()
@click.option("--filter", "category", type=click.Choice(vf.categories()),
              default=None, help="Run only one category of checks.")
def verify(category):
    """Run the structural verification suite."""
    # numpy loads numpy.random on first use, about 10 ms; load it here so
    # that no check's printed time includes it (and importing the package
    # does not pay for it)
    import numpy.random  # noqa: F401
    results = vf.run(category)
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        click.echo(f"{mark}  {r.category}/{r.name}  ({r.seconds * 1e3:.1f} ms)  {r.detail}")
        failed += not r.ok
    click.echo(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        sys.exit(1)


@main.command()
@click.argument("descriptor")
@click.option("--out", type=click.File("w"), default="-")
def orbits(descriptor, out):
    """Write the full orbit of a special point as CSV (one row per point,
    5 natural coordinates as re,im pairs)."""
    try:
        pt = ob.point(descriptor)
    except (ob.UnknownDescriptor, ob.BadIndices) as exc:
        click.echo(f"unknown descriptor: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    from .geometry import u_to_x
    from .group import orbit
    writer = csv.writer(out)
    writer.writerow([f"x{i}_{p}" for i in range(1, 6) for p in ("re", "im")])
    for u in orbit(pt.u):
        x = u_to_x(u)
        x = x / np.abs(x).max()
        writer.writerow([f"{c:.12g}" for xi in x for c in (xi.real, xi.imag)])


def _parse_window(ctx, param, text):
    if text is None:
        return None
    try:
        cx, cy, w, h = (float(t) for t in text.split(","))
    except ValueError:
        raise click.BadParameter("expected four numbers cx,cy,w,h") from None
    if not (np.isfinite([cx, cy, w, h]).all() and w > 0 and h > 0):
        raise click.BadParameter("expected finite numbers with w, h > 0")
    return complex(cx, cy), w, h


@main.command()
@click.option("--map", "map_name", required=True,
              type=click.Choice(sorted(bs.PORTRAITS)))
@click.option("--window", default=None, callback=_parse_window,
              help="cx,cy,w,h (defaults chosen per map)")
@click.option("--res", type=click.IntRange(min=2), default=720,
              show_default=True)
@click.option("--max-iter", type=click.IntRange(min=1), default=60,
              show_default=True)
@click.option("--out", "out_path", default=None, help="PPM image path")
@click.option("--stats", "stats_path", default=None, help="JSON sidecar path")
@click.option("--seed", type=click.IntRange(0), default=0, show_default=True,
              help="Seed for attractor probing on maps without canned sets.")
def basins(map_name, window, res, max_iter, out_path, stats_path, seed):
    """Render a basin portrait to a PPM image with a JSON stats sidecar."""
    center, width, height = window or bs.PORTRAITS[map_name].window
    grid = bs.GridSpec(center, width, height, (res, res))
    attr = bs.portrait_attractors(map_name, seed)
    t0 = time.perf_counter()
    portrait = bs.render(map_name, grid, attr, max_iter)
    render_s = time.perf_counter() - t0
    out_path = out_path or f"{map_name}.ppm"
    stats_path = stats_path or f"{map_name}.json"
    bs.write_ppm(portrait, out_path)
    bs.write_sidecar(portrait, stats_path,
                     extra={"threads": kx.thread_count(),
                            "render_s": render_s})
    st = bs.attractor_statistics(portrait)
    click.echo(f"wrote {out_path} and {stats_path} "
               f"(black fraction {st['black_fraction']:.4f})")


@main.command()
@click.argument("k", nargs=3, type=complex)
def resolvent(k):
    """Print the coefficients of the degree-5 resolvent for parameters
    K1 K2 K3 (complex literals accepted, e.g. 1+0j)."""
    try:
        coeffs = sv.resolvent_RK(tuple(k))
    except ValueError as exc:
        click.echo(f"bad parameters: {exc}", err=True)
        sys.exit(EXIT_BAD_INPUT)
    for power, c in zip(range(5, -1, -1), coeffs):
        click.echo(f"s^{power}: {c.real:+.12g}{c.imag:+.12g}j")


if __name__ == "__main__":
    main()
