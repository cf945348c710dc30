"""Tests of the benchmark's own machinery: seeded inputs, output checks, span
arithmetic, and agreement between the code and BENCHMARK.json.

Run from the repository root:  python3 -m pytest perfbench/tests
"""
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, inputs, metrics
from perfbench.trace import Span, Tracer, covered, self_times

ROOT = Path(__file__).resolve().parents[2]


# --- inputs -------------------------------------------------------------------

def test_same_seed_same_inputs():
    assert inputs.batch_inputs(5, 20) == inputs.batch_inputs(5, 20)
    assert inputs.hard_inputs(5) == inputs.hard_inputs(5)
    assert inputs.portrait_order(5) == inputs.portrait_order(5)


def test_other_seed_other_batch():
    a = [x.text for x in inputs.batch_inputs(5, 20)]
    b = [x.text for x in inputs.batch_inputs(6, 20)]
    assert a != b


def test_hard_set_holds_every_kind_in_seeded_order():
    one, two = inputs.hard_inputs(1), inputs.hard_inputs(2)
    assert sorted(x.text for x in one) == sorted(x.text for x in two)
    assert [x.text for x in one] != [x.text for x in two]
    counts = {k: sum(x.kind == k for x in one) for k in inputs.HARD_KINDS}
    assert counts == dict(inputs.HARD_MIX)
    assert min(counts.values()) >= 1


def test_batch_coefficients_in_unit_disk_and_json_round_trip():
    for x in inputs.batch_inputs(0, 50):
        a = json.loads(x.text)["coefficients"]
        got = tuple(complex(re, im) for re, im in a)
        assert got == x.coeffs
        assert max(abs(z) for z in got) <= 1 + 1e-15


def test_bring_jerrard_has_no_middle_terms():
    for x in inputs.hard_kind_inputs("bring_jerrard", 5):
        assert x.coeffs[:3] == (0, 0, 0)


# --- output checks ------------------------------------------------------------

def _report(roots):
    return json.dumps({"roots": [[z.real, z.imag] for z in roots]})


def test_exact_roots_pass_and_perturbed_root_fails():
    roots = np.array([1e3, -2e3 + 1j, 3e-2, 0.5j, 7.0])
    coeffs = tuple(np.poly(roots)[1:])
    assert checks.solve_output_misses(coeffs, _report(roots)) == []
    bad = roots.copy()
    bad[2] *= 1 + 1e-6
    assert checks.solve_output_misses(coeffs, _report(bad)) == ["bad_output"]


def test_backward_error_is_scale_invariant():
    roots = np.array([1, 2, 3, 4, 6], dtype=complex)
    for s in (1e-4, 1.0, 1e4):
        c = np.poly(s * roots)[1:]
        assert checks.backward_error(c, s * 2 * (1 + 1e-8)) == pytest.approx(
            checks.backward_error(np.poly(roots)[1:], 2 * (1 + 1e-8)), rel=1e-6)


def test_malformed_or_short_reports_fail():
    coeffs = tuple(np.poly([1, 2, 3, 4, 5])[1:])
    assert checks.solve_output_misses(coeffs, "not json") == ["bad_output"]
    assert checks.solve_output_misses(coeffs, _report([1, 2, 3, 4])) == ["bad_output"]
    with_nan = _report([1, 2, 3, 4, np.nan])
    assert checks.solve_output_misses(coeffs, with_nan) == ["bad_output"]


def test_label_checksum_sees_one_flipped_label():
    labels = np.zeros((720, 720), dtype=np.int32)
    flipped = labels.copy()
    flipped[300, 411] = 1
    assert checks.label_checksum(labels) == checks.label_checksum(labels.copy())
    assert checks.label_checksum(labels) != checks.label_checksum(flipped)
    assert checks.label_checksum(labels) != checks.label_checksum(labels.reshape(360, 1440))


def test_portrait_check_rejects_a_flipped_label():
    """Real 720^2 octahedral portrait: passes as rendered, fails with one
    label flipped."""
    from quintic_flow import basins as bs
    from quintic_flow.equivariants import restricted_map
    grid = bs.GridSpec(0j, 4.0, 4.0, (720, 720))
    p = bs.render_1d(restricted_map("octahedral5"), grid, bs.octahedral_attractors(),
                     max_iter=60)
    assert checks.portrait_misses("octahedral5", p) == []
    p.labels[360, 100] = (p.labels[360, 100] + 1) % 4
    assert checks.portrait_misses("octahedral5", p) == ["checksum"]


# --- end-to-end figures -------------------------------------------------------

def test_latency_figures_divide_by_each_host_factor():
    from types import SimpleNamespace as NS
    # the last three ran on a host twice as slow: the same work took twice as long
    outcomes = [NS(seconds=t) for t in (1.0, 2.0, 3.0, 2.0, 4.0, 6.0)]
    factors = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert metrics.latency_figures(outcomes, factors) == pytest.approx((2.0, 3.0, 0.5))
    e2e = metrics.end_to_end(outcomes, factors, [0.3, 0.1, 0.2])
    assert e2e == pytest.approx({"setup_s": 0.2, "latency_ms_p50": 2000.0,
                                 "latency_ms_p90": 3000.0, "ops_per_s": 0.5})
    assert metrics.latency_figures(outcomes)[0] == 2.5   # as measured


def test_calibrator_factor_uses_the_units_around_an_operation():
    from perfbench.calibrate import NOMINAL_S, WINDOW_S, Calibrator
    cal = Calibrator(clock=None)
    w = WINDOW_S
    cal.samples = [(0.0, NOMINAL_S), (10.0, 2 * NOMINAL_S), (20.0, 4 * NOMINAL_S),
                   (20.0 + w / 2, 4 * NOMINAL_S), (30.0, 8 * NOMINAL_S)]
    # an operation from 12 to 20: the last unit before it and the two after
    assert cal.factor(12.0, 20.0 - w / 2) == pytest.approx(4.0)
    # an operation far from any unit falls back to the last one before it
    assert cal.factor(25.0, 26.0) == pytest.approx(4.0)


def test_failed_units_count_checks_not_misses():
    from types import SimpleNamespace as NS
    assert metrics.failed_units(NS(units=1, misses=["checksum", "symmetry"])) == 1
    assert metrics.failed_units(NS(units=20, misses=["a", "b"])) == 2
    assert metrics.failed_units(NS(units=1, misses=[])) == 0


# --- spans --------------------------------------------------------------------

def test_covered_merges_overlaps():
    assert covered([]) == 0
    assert covered([(0, 1), (2, 3)]) == 2
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 4), (1, 2)]) == 4


def test_self_time_on_synthetic_tree():
    # root [0,10] has children a [1,4] and b [3,6] (overlapping) and c [8,9];
    # a has child d [2,3].
    spans = [Span("root", 0, 10), Span("a", 1, 4, parent=0), Span("b", 3, 6, parent=0),
             Span("c", 8, 9, parent=0), Span("d", 2, 3, parent=1)]
    assert self_times(spans) == [10 - 6, 3 - 1, 3, 1, 1]


def test_child_outside_parent_is_clipped():
    spans = [Span("root", 0, 2), Span("late", 1, 5, parent=0)]
    assert self_times(spans) == [1, 4]


def test_tracer_records_nesting_errors_and_steps():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_t = tr.wrap(leaf, "leaf")
    step = tr.count_steps(lambda w: w)

    def outer(x):
        for _ in range(3):
            step(x)
        return leaf_t(x)

    outer_t = tr.wrap(outer, "outer")
    tr.op = 7
    assert outer_t(1) == 1
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [(s.name, s.parent, s.op, s.error) for s in tr.spans]
    assert names == [("outer", None, 7, None), ("leaf", 0, 7, None),
                     ("outer", None, 7, "ValueError"), ("leaf", 2, 7, "ValueError")]
    assert tr.spans[0].info["steps"] == 3
    assert tr.spans[0].info["step_s"] == 3.0


def test_installed_restores_originals():
    import types
    mod = types.SimpleNamespace(f=lambda: 1)
    orig = mod.f
    tr = Tracer()
    with tr.installed([(mod, "f", "f", None)]):
        assert mod.f is not orig and mod.f() == 1
    assert mod.f is orig
    assert [s.name for s in tr.spans] == ["f"]


def test_failure_taxonomy_and_useful_steps_from_spans():
    from types import SimpleNamespace as NS
    spans = [
        Span("solve", 0, 10, op=0, error="NoConvergence"),          # restarts exhausted
        Span("iterate_phiK", 1, 9, parent=0, op=0, error="NoConvergence",
             info={"steps": 100, "step_s": 4.0}),
        Span("solve", 10, 20, op=1, error="NoConvergence"),         # root rejected
        Span("iterate_phiK", 11, 12, parent=2, op=1,
             info={"steps": 5, "step_s": 0.5, "useful_steps": 5}),
        Span("solve", 20, 30, op=2),                                # solved on attempt 2
        Span("iterate_phiK", 21, 25, parent=4, op=2,
             info={"steps": 8, "step_s": 2.0, "useful_steps": 3}),
        Span("iterate_phiK", 25, 28, parent=4, op=2,
             info={"steps": 4, "step_s": 1.5, "useful_steps": 4}),
        Span("solve", 30, 31, op=3, error="DegenerateK"),
        Span("build_param_polys", 30, 31, parent=7, op=3, error="DegenerateK"),
        Span("solve", 31, 32, op=4, error="AssertionError"),
    ]
    outcomes = [NS(op=NS(index=i, label="x"), misses=[]) for i in range(5)]
    outcomes[2].misses = ["bad_output"]
    m = metrics.layer_metrics(spans, outcomes, pairs=[(1.1, 1.0)])
    assert set(m) == {name for name, _, _ in metrics.PER_LAYER}
    assert (m["solver.fail.NoConvergence"], m["solver.fail.restarts_exhausted"],
            m["solver.fail.root_rejected"], m["solver.fail.DegenerateK"],
            m["solver.fail.RegularizationFailed"], m["solver.fail.other"],
            m["solver.fail.bad_output"]) == (2, 1, 1, 1, 0, 1, 1)
    assert m["params.phiK_steps_per_solve"] == 117 / 5
    assert m["params.phiK_useful_frac"] == 4 / 117
    assert m["params.phiK_step_us"] == pytest.approx(8.0 / 117 * 1e6)
    assert m["solver.iterate_frac"] == pytest.approx(16 / 32)
    assert m["trace_overhead_frac"] == pytest.approx(0.1)
    assert m["kernels.cell_iters.conic"] == 0    # a layer this run never reached


def test_solve_breakdown_accounts_for_the_whole_solve():
    spans = [Span("solve", 0, 10), Span("iterate_phiK", 1, 8, parent=0),
             Span("depress", 8, 9, parent=0), Span("phiK_map", 1, 1.5, parent=1)]
    shares = metrics.solve_breakdown(spans)
    assert shares == pytest.approx({"solve (self)": 0.2, "iterate_phiK": 0.7,
                                    "depress": 0.1})


# --- the benchmark description ------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["solve_batch", "solve_hard",
                                                      "portraits", "verify"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(metrics.PER_LAYER)


def test_verify_metric_names_follow_the_registry():
    from quintic_flow import verify as vf
    assert [(c, n) for c, n, _ in vf.CHECKS] == list(metrics.VERIFY_CHECKS)
