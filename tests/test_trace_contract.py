"""The benchmark's traced run wraps solver, params, basins and _kernels
functions by name and reads what their results carry; a refactor that breaks
one of those names or results fails here, not only in a benchmark run."""
from perfbench.trace import Tracer
from perfbench.workloads import traced
from quintic_flow import basins as bs
from quintic_flow import solver as sv
from quintic_flow.equivariants import f6, restricted_map

from _reference import quintic_from_roots


def test_traced_run_records_the_spans_the_benchmark_reads():
    tracer = Tracer()
    with traced(tracer):
        sv.solve(quintic_from_roots([1, 2, 3, 4, 6]), seed=0)
        sv.solve(quintic_from_roots([-2, -1, 0, 1, 2]), seed=0)  # regularized
        bs.render_1d(restricted_map("octahedral5"),
                     bs.GridSpec(0j, 4.0, 4.0, (8, 8)),
                     bs.octahedral_attractors(), max_iter=20)
        bs.render_plane(f6, bs.GridSpec(0j, 2.5, 2.5, (8, 8)),
                        bs.f6_plane_attractors(), max_iter=20)
    spans = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)
    assert len(spans["solve"]) == 2
    assert all(s.info["useful_steps"] == s.info["steps"] > 0
               for s in spans["iterate_phiK"])
    assert [s.info["regularized"] for s in spans["mobius_regularize"]
            if s.error is None] == [True]
    assert [s.info["cell_iters"] > 0 for s in spans["classify_1d"]] == [True]
    assert [s.info["cell_iters"] > 0 for s in spans["classify_plane"]] == [True]
    assert [s.error for s in spans["check_plane_invariant"]] == [None]
    assert len(spans["render_plane"]) == 1


def test_phiK_steps_sum_to_each_solves_iterations():
    # one counted call of the phi_K callable per step: the steps the
    # iterate_phiK spans of a solve carry, failed starts included, are the
    # iterations its report gives
    inputs = [([1, 2, 3, 4, 6], 0), ([-2, -1, 0, 1, 2], 0),
              ([0.1, 0.101, 1, 2j, -1], 0)]     # one failed start, 44 steps
    tracer = Tracer()
    with traced(tracer):
        reports = [sv.solve(quintic_from_roots(roots), seed=seed)
                   for roots, seed in inputs]
    solves = [i for i, s in enumerate(tracer.spans) if s.name == "solve"]
    assert [r.restarts > 0 for r in reports] == [False, False, True]
    for idx, report in zip(solves, reports):
        steps = [s.info["steps"] for s in tracer.spans
                 if s.name == "iterate_phiK" and s.parent == idx]
        assert sum(steps) == report.iterations > 0
