"""The benchmark's fixed form: workloads, metrics and bounds.

``python3 bench/run.py --write-spec`` writes this as ``BENCHMARK.json`` at
the root of the repository; the repeat mode reads the bounds from here.
"""

from __future__ import annotations

RUN_SECONDS = 15

WORKLOADS = (
    ("search",
     "many tiny ratio evaluations: per-call FiniteDist/CVector churn, point "
     "validation and kernel dispatch dominate; the barycenter solver never runs"),
    ("barycenter",
     "multi-start subgradient solves over a (space, q, p) grid: solver "
     "iterations dominate; distance kernels run only on the numeric path"),
    ("moments-large",
     "exact moments and ratios on supports of hundreds of atoms: the batched "
     "distance kernels' arithmetic and memory dominate, no solver"),
    ("cli",
     "the README commands in-process: sweeps, scalar suites, the constants "
     "grid, a search and CSV/JSON output, so a gain in one layer that costs "
     "another shows"),
)

# Reference time of one pass of each workload's work list, in seconds, on the
# machine of README.md's reference figures.  A run measures
# round(--seconds / PASS_S) passes (at least 3): a count fixed in advance, so
# that it does not change with the speed of the program.
PASS_S = {
    "search": 2.7,
    "barycenter": 4.2,
    "moments-large": 2.2,
    "cli": 3.4,
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better
PER_LAYER = (
    ("spaces.calls", "count", "lower"),
    ("spaces.pairs", "count", "lower"),
    ("spaces.self_s", "s", "lower"),
    ("spaces.pairs_per_s.lq", "pairs/s", "higher"),
    ("spaces.pairs_per_s.schatten", "pairs/s", "higher"),
    ("spaces.pairs_per_s.s1par", "pairs/s", "higher"),
    ("spaces.pairs_per_s.realline", "pairs/s", "higher"),
    ("spaces.pairs_per_s.graph", "pairs/s", "higher"),
    ("spaces.validate_calls", "count", "lower"),
    ("distributions.dists_built", "count", "lower"),
    ("distributions.moment_calls", "count", "lower"),
    ("distributions.self_s", "s", "lower"),
    ("barycenter.solves", "count", "lower"),
    ("barycenter.iterations", "count", "lower"),
    ("barycenter.iters_per_s", "1/s", "higher"),
    ("barycenter.self_s", "s", "lower"),
    ("barycenter.max_rel_err", "ratio", "lower"),
    ("moduli.ratio_calls", "count", "lower"),
    ("moduli.self_s", "s", "lower"),
    ("search.evals", "count", "lower"),
    ("search.accepted", "count", "higher"),
    ("search.accept_ratio", "ratio", "higher"),
    ("search.evals_per_s", "1/s", "higher"),
    ("search.self_s", "s", "lower"),
    ("constructions.verifies", "count", "lower"),
    ("constructions.self_s", "s", "lower"),
    ("scalar_checks.suites", "count", "lower"),
    ("scalar_checks.self_s", "s", "lower"),
    ("quadrature.panels", "count", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("constants.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# counts that must read the same on every run of one seed
EXACT_COUNTS = ("barycenter.iterations", "search.evals", "search.accepted",
                "spaces.pairs")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
