"""The four benchmark workloads, each a closed loop: one caller in one
process sends the next operation only after the previous one returns.

An operation is a call into quintic_flow's public API, timed on its own:

- solve_batch, solve_hard: the JSON round trip the ``solve`` CLI makes,
  ``solver.quintic_from_json`` -> ``solver.solve`` -> ``solver.report_to_json``;
- portraits: one ``basins.render_1d`` or ``basins.render_plane`` call;
- verify: one ``verify.run(category)`` call; a pass covers every category.

Outputs are checked after the clock stops; a miss is a failed operation and
the run carries on.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from quintic_flow import _kernels as kx
from quintic_flow import basins as bs
from quintic_flow import group as gp
from quintic_flow import params as pr
from quintic_flow import solver as sv
from quintic_flow import verify as vf
from quintic_flow.equivariants import f6, restricted_map

from . import checks, inputs

BATCH_SIZE = 100          # solve_batch inputs per pass, as in the acceptance batch
MAX_ITER = 60             # portrait iteration budget
PAIR_LIMIT_S = 5.0        # traced run: ops faster than this also run untraced


@dataclass
class Op:
    index: int                 # unique within a run; spans carry it
    label: str                 # input kind, portrait name or verify category
    call: Callable[[], Any]    # the timed call into the program
    check: Callable[[Any], tuple[int, list[str]]]  # -> (units, misses)
    units: int = 1             # units attempted when ``call`` raises


@dataclass
class Outcome:
    op: Op
    seconds: float
    units: int
    misses: list[str]   # exception type name, or the output checks that missed
    raised: bool
    pass_no: int = 0
    start: float = 0.0   # clock time the operation began


def execute(op: Op, clock) -> tuple[float, float, Any, Exception | None]:
    """(start, seconds, result, exception) of one call."""
    t0 = clock()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return t0, clock() - t0, None, exc
    return t0, clock() - t0, result, None


def outcome(op: Op, start: float, seconds: float, result, exc) -> Outcome:
    if exc is not None:
        return Outcome(op, seconds, op.units, [type(exc).__name__], True, start=start)
    units, misses = op.check(result)
    return Outcome(op, seconds, units, misses, False, start=start)


def run_loop(workload, seconds: float, clock, tracer=None, calibrator=None):
    """Run whole passes of the workload's operations until ``seconds`` have
    passed (at least one pass).

    Untraced, each operation runs once, and the calibrator times its unit
    between operations.  Traced, each runs with the wrappers installed, and
    one that took under PAIR_LIMIT_S runs again untraced right after; the
    (traced, untraced) pairs give the tracing overhead.
    Returns the outcomes and the pairs."""
    outcomes, pairs = [], []
    deadline = clock() + seconds
    pass_no = 0
    if calibrator is not None:
        calibrator.maybe_sample()
    while True:
        for op in workload.ops(pass_no, len(outcomes)):
            if tracer is None:
                outcomes.append(outcome(op, *execute(op, clock)))
                if calibrator is not None:
                    calibrator.maybe_sample()
            else:
                tracer.op = op.index
                with traced(tracer):
                    outcomes.append(outcome(op, *execute(op, clock)))
                tracer.op = -1
                dt = outcomes[-1].seconds
                if dt < PAIR_LIMIT_S:
                    pairs.append((dt, execute(op, clock)[1]))
            outcomes[-1].pass_no = pass_no
        pass_no += 1
        if clock() >= deadline:
            return outcomes, pairs


def trace_targets(tracer) -> list:
    """(module, attribute, span name, on_return) for every public function
    whose calls the traced run records."""
    def regularized(span, result):
        m = result[1].m   # the Moebius map; the identity leaves the input alone
        span.info["regularized"] = bool(m[0, 1] != 0 or m[1, 0] != 0
                                        or m[0, 0] != m[1, 1])
        return result

    def last_restart_steps(span, result):
        span.info["useful_steps"] = int(result[1])
        return result

    def count_steps(span, step):
        return tracer.count_steps(step)

    def cell_iters(span, result):
        span.info["cell_iters"] = int(np.asarray(result[1], dtype=np.int64).sum())
        return result

    return [
        (sv, "quintic_from_json", "json", None),
        (sv, "report_to_json", "json", None),
        (sv, "solve", "solve", None),
        (sv, "mobius_regularize", "mobius_regularize", regularized),
        (sv, "depress", "depress", None),
        (sv, "reduce_to_K", "reduce_to_K", None),
        (sv, "iterate_phiK", "iterate_phiK", last_restart_steps),
        (sv, "newton_polish", "newton_polish", None),
        (pr, "build_param_polys", "build_param_polys", None),
        (pr, "phiK_map", "phiK_map", count_steps),
        (pr, "root_selector_J", "root_selector_J", None),
        (bs, "render_1d", "render_1d", None),
        (bs, "render_plane", "render_plane", None),
        (bs, "check_plane_invariant", "check_plane_invariant", None),
        (bs, "attractor_statistics", "attractor_statistics", None),
        (bs, "symmetry_fraction", "symmetry_fraction", None),
        (kx, "classify_1d", "classify_1d", cell_iters),
        (kx, "classify_plane", "classify_plane", cell_iters),
    ]


@contextlib.contextmanager
def traced(tracer):
    """Install every wrapper, including one span per verify check."""
    saved = vf.CHECKS
    vf.CHECKS = tuple((cat, name, tracer.wrap(fn, f"verify.{cat}.{name}"))
                      for cat, name, fn in saved)
    try:
        with tracer.installed(trace_targets(tracer)):
            yield
    finally:
        vf.CHECKS = saved


def warm_up(name: str) -> None:
    """The one-time work before a workload's first timed operation: the
    group-table cache, plus the numba JIT when numba is present."""
    gp.all_elements()
    if name == "portraits" and kx.use_numba():
        tiny = bs.GridSpec(0j, 4.0, 4.0, (8, 8))
        bs.render_1d(restricted_map("octahedral5"), tiny,
                     bs.octahedral_attractors(), max_iter=5)
        bs.render_plane(f6, bs.GridSpec(0j, 2.5, 2.5, (8, 8)),
                        bs.f6_plane_attractors(), max_iter=5)


class SolveWorkload:
    def __init__(self, name: str, seed: int):
        self.inputs = (inputs.batch_inputs(seed, BATCH_SIZE) if name == "solve_batch"
                       else inputs.hard_inputs(seed))

    def ops(self, pass_no: int, first_index: int) -> list[Op]:
        return [Op(first_index + i, inp.kind, self._call(inp), self._check(inp))
                for i, inp in enumerate(self.inputs)]

    @staticmethod
    def _call(inp):
        def call():
            p = sv.quintic_from_json(inp.text)
            return sv.report_to_json(sv.solve(p, seed=inp.solve_seed))
        return call

    @staticmethod
    def _check(inp):
        return lambda out: (1, checks.solve_output_misses(inp.coeffs, out))


PORTRAIT_GRIDS = {
    "g11_conic10": bs.GridSpec(0j, 4.0, 4.0, (720, 720)),
    "octahedral5": bs.GridSpec(0j, 4.0, 4.0, (720, 720)),
    "f6_plane": bs.GridSpec(0j, 2.5, 2.5, (720, 720)),
}


class PortraitWorkload:
    def __init__(self, seed: int, compare_backends: bool):
        self.seed = seed
        self.compare_backends = compare_backends
        self.asserted: set[str] = set()
        self.attractors = {"g11_conic10": bs.conic_pair_attractors(),
                           "octahedral5": bs.octahedral_attractors(),
                           "f6_plane": bs.f6_plane_attractors()}
        self.maps = {"g11_conic10": restricted_map("g11_conic10"),
                     "octahedral5": restricted_map("octahedral5")}

    def render(self, name: str):
        grid, attr = PORTRAIT_GRIDS[name], self.attractors[name]
        if name == "f6_plane":
            return bs.render_plane(f6, grid, attr, max_iter=MAX_ITER)
        return bs.render_1d(self.maps[name], grid, attr, max_iter=MAX_ITER)

    def ops(self, pass_no: int, first_index: int) -> list[Op]:
        order = inputs.portrait_order([self.seed, pass_no])
        return [Op(first_index + i, name, self._call(name), self._check(name))
                for i, name in enumerate(order)]

    def _call(self, name):
        return lambda: self.render(name)

    def _check(self, name):
        def check(portrait):
            # Labels equal to the reference checksum passed the acceptance
            # assertions already, so those run once per portrait per run.
            if name in self.asserted and checks.label_checksum(portrait.labels) \
                    == checks.PORTRAIT_CHECKSUMS[name]:
                return 1, []
            self.asserted.add(name)
            return 1, (checks.portrait_misses(name, portrait)
                       + self._backend_misses(name, portrait))
        return check

    def _backend_misses(self, name, portrait) -> list[str]:
        """With numba present, render again on the numpy backend and require
        identical labels."""
        if not (self.compare_backends and kx.use_numba()):
            return []
        saved = os.environ.get("QUINTIC_FLOW_NUMBA")
        os.environ["QUINTIC_FLOW_NUMBA"] = "0"
        try:
            other = self.render(name)
        finally:
            if saved is None:
                os.environ.pop("QUINTIC_FLOW_NUMBA", None)
            else:
                os.environ["QUINTIC_FLOW_NUMBA"] = saved
        return [] if np.array_equal(other.labels, portrait.labels) else ["backend_mismatch"]


class VerifyWorkload:
    """A pass is one full verification: ``verify.run(category)`` for each
    category, as ``verify --filter`` runs it, in an order the seed picks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes: dict[str, int] = {}
        for cat, _, _ in vf.CHECKS:
            self.sizes[cat] = self.sizes.get(cat, 0) + 1

    def ops(self, pass_no: int, first_index: int) -> list[Op]:
        cats = sorted(self.sizes)
        order = np.random.default_rng([self.seed, pass_no]).permutation(len(cats))
        return [Op(first_index + i, cats[j], self._call(cats[j]), self._check,
                   units=self.sizes[cats[j]])
                for i, j in enumerate(order)]

    @staticmethod
    def _call(cat):
        return lambda: vf.run(cat)

    @staticmethod
    def _check(results):
        return len(results), [f"verify.{r.category}.{r.name}" for r in results if not r.ok]


def make(name: str, seed: int, traced_run: bool):
    """The workload's operations.  A traced run skips the numpy re-render of
    portraits, whose spans would mix into the per-layer figures."""
    if name in ("solve_batch", "solve_hard"):
        return SolveWorkload(name, seed)
    if name == "portraits":
        return PortraitWorkload(seed, compare_backends=not traced_run)
    if name == "verify":
        return VerifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
