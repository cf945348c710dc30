"""End-to-end metrics from an untraced run and per-layer metrics from the
spans of a traced run.

Every per-layer metric is reported on every workload.  A layer the workload
does not reach reports 0, and so does a ratio whose base is 0.
"""
from __future__ import annotations

import statistics

import numpy as np

from .trace import self_times

FAIL_KINDS = ("NoConvergence", "DegenerateK", "RegularizationFailed")

# (name, unit, better) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

VERIFY_CHECKS = (
    ("group", "order_120"), ("group", "homomorphism"), ("group", "unitary"),
    ("group", "orbit_sizes"),
    ("invariants", "determinant_identities"), ("invariants", "group_invariance"),
    ("invariants", "sign_character"),
    ("orbits", "configuration"),
    ("equivariants", "phi6_equivariance"), ("equivariants", "h11_equivariance"),
    ("equivariants", "g11_equivariance"), ("equivariants", "phi6_explicit_form"),
    ("restrictions", "f6_mirror_10_line"), ("restrictions", "f6_15_line"),
    ("restrictions", "h11_10_line"), ("restrictions", "h11_15_line"),
    ("restrictions", "h11_30_line"), ("restrictions", "h11_mirror_15_line"),
    ("params", "coefficient_table_oracles"), ("params", "root_selector"),
)

PORTRAIT_SHORT = {"g11_conic10": "conic", "octahedral5": "octahedral",
                  "f6_plane": "plane"}

# (name, unit, better) of every per-layer metric, as BENCHMARK.json lists them.
PER_LAYER = (
    ("params.phiK_step_us", "us", "lower"),
    ("params.phiK_steps_per_solve", "count", "lower"),
    ("params.phiK_useful_frac", "ratio", "higher"),
    ("params.build_us", "us", "lower"),
    ("params.selector_us", "us", "lower"),
    ("solver.depress_us", "us", "lower"),
    ("solver.reduce_us", "us", "lower"),
    ("solver.regularize_us", "us", "lower"),
    ("solver.regularized_frac", "ratio", "lower"),
    ("solver.iterate_ms", "ms", "lower"),
    ("solver.iterate_frac", "ratio", "lower"),
    ("solver.polish_us", "us", "lower"),
    ("solver.solve_self_us", "us", "lower"),
    ("solver.json_us", "us", "lower"),
) + tuple((f"solver.fail.{k}", "count", "lower") for k in (
    "NoConvergence", "restarts_exhausted", "root_rejected", "DegenerateK",
    "RegularizationFailed", "other", "bad_output")) + (
    ("kernels.classify_1d_ns_per_cell_iter", "ns", "lower"),
    ("kernels.classify_plane_ns_per_cell_iter", "ns", "lower"),
) + tuple((f"kernels.cell_iters.{s}", "count", "lower")
          for s in PORTRAIT_SHORT.values()) + (
    ("basins.plane_check_ms", "ms", "lower"),
    ("basins.stats_ms", "ms", "lower"),
) + tuple((f"basins.render_{s}_s", "s", "lower")
          for s in PORTRAIT_SHORT.values()) + tuple(
    (f"verify.{c}.{n}_s", "s", "lower") for c, n in VERIFY_CHECKS) + (
    ("trace_overhead_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def failed_units(outcome) -> int:
    return min(outcome.units, len(outcome.misses))


def latency_figures(outcomes, factors=None) -> tuple[float, float, float]:
    """p50 and p90 of the operation times in seconds, and operations per
    second of time spent in them.  ``factors``, one host factor per outcome,
    divide the times first."""
    t = np.array([o.seconds for o in outcomes])
    if factors is not None:
        t = t / np.asarray(factors)
    return (float(np.percentile(t, 50)), float(np.percentile(t, 90)),
            len(t) / float(t.sum()))


def end_to_end(outcomes, factors, setup_times: list[float]) -> dict:
    p50, p90, per_s = latency_figures(outcomes, factors)
    return {
        "setup_s": statistics.median(setup_times),
        "latency_ms_p50": p50 * 1e3,
        "latency_ms_p90": p90 * 1e3,
        "ops_per_s": per_s,
    }


def named_summary(workload: str, outcomes) -> list[tuple[str, float, str]]:
    """The workload's metrics under the names the design uses, for the
    printed table: solve_ms_p50/p90, solves_per_s, render_*_s, verify_s and
    fail_frac, plus the sample and pass counts.  Times here are as measured,
    not divided by the host factor."""
    attempted = sum(o.units for o in outcomes)
    rows = [("samples", len(outcomes), "count"),
            ("passes", len({o.pass_no for o in outcomes}), "count")]
    if workload.startswith("solve"):
        p50, p90, per_s = latency_figures(outcomes)
        rows += [("solve_ms_p50", p50 * 1e3, "ms"),
                 ("solve_ms_p90", p90 * 1e3, "ms"),
                 ("solves_per_s", per_s, "1/s")]
    elif workload == "portraits":
        for name, short in PORTRAIT_SHORT.items():
            t = [o.seconds for o in outcomes if o.op.label == name]
            rows.append((f"render_{short}_s", statistics.median(t), "s"))
    else:
        passes: dict[int, float] = {}
        for o in outcomes:
            passes[o.pass_no] = passes.get(o.pass_no, 0.0) + o.seconds
        rows.append(("verify_s", statistics.median(passes.values()), "s"))
    rows.append(("fail_frac", _ratio(sum(map(failed_units, outcomes)), attempted),
                 "ratio"))
    return rows


def _mean_duration(spans, name: str, scale: float) -> float:
    d = [s.duration for s in spans if s.name == name]
    return _ratio(sum(d), len(d)) * scale


def layer_metrics(spans, outcomes, pairs) -> dict:
    """Every PER_LAYER metric from the spans and outcomes of a traced run.

    ``pairs`` holds (traced, untraced) seconds of the same operation."""
    selfs = self_times(spans)
    label = {o.op.index: o.op.label for o in outcomes}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    solves = [i for i, s in enumerate(spans) if s.name == "solve"]
    n_solve = len(solves)

    steps = sum(s.info.get("steps", 0) for s in spans)
    step_s = sum(s.info.get("step_s", 0.0) for s in spans)
    solve_steps = sum(spans[c].info.get("steps", 0)
                      for i in solves for c in children.get(i, ()))
    useful = 0
    fails = dict.fromkeys(("NoConvergence", "restarts_exhausted", "root_rejected",
                           "DegenerateK", "RegularizationFailed", "other"), 0)
    for i in solves:
        iters = [c for c in children.get(i, ()) if spans[c].name == "iterate_phiK"]
        err = spans[i].error
        if err is None:
            useful += spans[iters[-1]].info.get("useful_steps", 0) if iters else 0
            continue
        fails[err if err in FAIL_KINDS else "other"] += 1
        if err == "NoConvergence":
            exhausted = bool(iters) and spans[iters[-1]].error == "NoConvergence"
            fails["restarts_exhausted" if exhausted else "root_rejected"] += 1
    solve_time = sum(spans[i].duration for i in solves)
    iterate_time = sum(spans[c].duration for i in solves for c in children.get(i, ())
                       if spans[c].name == "iterate_phiK")
    regularized = sum(bool(s.info.get("regularized")) for s in spans
                      if s.name == "mobius_regularize")
    json_s = sum(s.duration for s in spans if s.name == "json")

    m = {
        "params.phiK_step_us": _ratio(step_s, steps) * 1e6,
        "params.phiK_steps_per_solve": _ratio(solve_steps, n_solve),
        "params.phiK_useful_frac": _ratio(useful, solve_steps),
        "params.build_us": _mean_duration(spans, "build_param_polys", 1e6),
        "params.selector_us": _mean_duration(spans, "root_selector_J", 1e6),
        "solver.depress_us": _mean_duration(spans, "depress", 1e6),
        "solver.reduce_us": _mean_duration(spans, "reduce_to_K", 1e6),
        "solver.regularize_us": _mean_duration(spans, "mobius_regularize", 1e6),
        "solver.regularized_frac": _ratio(regularized, n_solve),
        "solver.iterate_ms": _mean_duration(spans, "iterate_phiK", 1e3),
        "solver.iterate_frac": _ratio(iterate_time, solve_time),
        "solver.polish_us": _mean_duration(spans, "newton_polish", 1e6),
        "solver.solve_self_us": _ratio(sum(selfs[i] for i in solves), n_solve) * 1e6,
        "solver.json_us": _ratio(json_s, n_solve) * 1e6,
    }
    m.update({f"solver.fail.{k}": v for k, v in fails.items()})
    m["solver.fail.bad_output"] = sum("bad_output" in o.misses for o in outcomes)

    for kernel in ("classify_1d", "classify_plane"):
        ks = [s for s in spans if s.name == kernel]
        cells = sum(s.info.get("cell_iters", 0) for s in ks)
        m[f"kernels.{kernel}_ns_per_cell_iter"] = _ratio(
            sum(s.duration for s in ks), cells) * 1e9
    for name, short in PORTRAIT_SHORT.items():
        ks = [s for s in spans if s.name.startswith("classify_")
              and label.get(s.op) == name]
        m[f"kernels.cell_iters.{short}"] = ks[0].info.get("cell_iters", 0) if ks else 0
        renders = [s.duration for s in spans if s.name.startswith("render_")
                   and label.get(s.op) == name]
        m[f"basins.render_{short}_s"] = _ratio(sum(renders), len(renders))
    m["basins.plane_check_ms"] = _mean_duration(spans, "check_plane_invariant", 1e3)
    n_portraits = len({s.op for s in spans if s.name.startswith("render_")})
    stats_s = sum(s.duration for s in spans
                  if s.name in ("attractor_statistics", "symmetry_fraction"))
    m["basins.stats_ms"] = _ratio(stats_s, n_portraits) * 1e3
    for c, n in VERIFY_CHECKS:
        m[f"verify.{c}.{n}_s"] = _mean_duration(spans, f"verify.{c}.{n}", 1.0)
    m["trace_overhead_frac"] = _ratio(sum(t for t, _ in pairs),
                                      sum(u for _, u in pairs)) - 1 if pairs else 0.0
    return m


def solve_breakdown(spans) -> dict[str, float]:
    """Share of all solve-span time spent in each direct child (by name) and
    in the solve span itself."""
    selfs = self_times(spans)
    solves = {i for i, s in enumerate(spans) if s.name == "solve"}
    total = sum(spans[i].duration for i in solves)
    shares: dict[str, float] = {"solve (self)": sum(selfs[i] for i in solves)}
    for s in spans:
        if s.parent in solves:
            shares[s.name] = shares.get(s.name, 0.0) + s.duration
    return {k: _ratio(v, total) for k, v in shares.items()}
