"""Run one workload in this process and print its figures as one JSON line.

Started by ``run.py`` with the BLAS/OpenMP thread counts pinned to 1.  The
timeline of a run:

1. set-up: import ``momentmoduli`` and build the seeded work list (timed);
2. a warm-up pass, whose outputs are checked against the oracles;
3. a fixed number of measured passes of the whole work list (see
   ``measured_passes``); each output must equal the warm-up pass's bit for
   bit.  Each operation's time is its slowest over these passes (see
   ``_base_times``); ``wall_s`` is their sum over the work list and
   ``op_ms_p50`` their median.  With ``--trace 1`` half of the passes run
   untraced and then as many traced, so the tracing overhead is measured in
   one process.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def measured_passes(workload: str, seconds: float) -> int:
    """How many passes a run measures: ``seconds`` over the workload's
    reference pass time, at least ``MIN_PASSES``.  The count never depends on
    the speed of the run, so the slowest time of an operation is taken over
    the same number of passes before and after a change to the program."""
    import spec
    return max(MIN_PASSES, round(seconds / spec.PASS_S[workload]))


def _set_up(workload: str, seed: int, out_dir: str):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import momentmoduli
    import momentmoduli.cli  # noqa: F401  (the cli module is not imported by the package)
    import workloads
    ops = workloads.build(workload, momentmoduli, seed, out_dir)
    return momentmoduli, ops, time.perf_counter() - t0


def _one_pass(ops):
    """Run every operation once; return (wall seconds, per-op seconds, outputs)."""
    gc.collect()
    times, outs = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        outs.append(op.run())
        times.append(clock() - t0)
    return clock() - start, times, outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone and exit")
    ap.add_argument("--out-dir", required=True,
                    help="directory for files the workload writes; removed at exit")
    ns = ap.parse_args(argv)

    os.makedirs(ns.out_dir, exist_ok=True)
    try:
        return _run(ns)
    finally:
        shutil.rmtree(ns.out_dir, ignore_errors=True)


def _run(ns) -> int:
    mm, ops, setup_s = _set_up(ns.workload, ns.seed, ns.out_dir)
    if ns.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # warm-up pass: fills caches and gives the outputs every later pass must match
    _, _, warm = _one_pass(ops)
    problems, failing, rel_errs = [], set(), []
    for i, (op, out) in enumerate(zip(ops, warm)):
        problem, rel_err = op.check(out)
        if rel_err is not None:
            rel_errs.append(rel_err)
        if problem is None:
            continue
        failing.add(i)
        if op.fault is None:
            problems.append(f"{op.name}: {problem}")
        else:
            print(f"known fault, counted as failed: {op.name}: {problem}", file=sys.stderr)
    digests = [op.digest(out) for op, out in zip(ops, warm)]

    walls, op_times = [], []

    def measured_pass():
        wall, times, outs = _one_pass(ops)
        for op, out, digest in zip(ops, outs, digests):
            if op.digest(out) != digest:
                problems.append(f"{op.name}: output differs from the warm-up pass")
        walls.append(wall)
        op_times.append(times)

    passes = measured_passes(ns.workload, ns.seconds)
    if ns.trace:
        passes = max(MIN_TRACED_PASSES, passes // 2)
    for _ in range(passes):
        measured_pass()
    if ns.trace:
        metrics = _traced(ns, mm, measured_pass, op_times, passes, problems)
        metrics["barycenter.max_rel_err"] = (max(rel_errs, default=0.0), "ratio")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        base = _base_times(op_times)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(base), "s"),
            "op_ms_p50": (1000.0 * statistics.median(base), "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    print(f"{ns.workload}: {len(ops)} ops/pass, {len(walls)} passes, "
          f"pass walls {[round(w, 3) for w in walls]}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(walls) * len(ops),
        "failed": len(walls) * len(failing),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _base_times(op_times):
    """Each operation's slowest time over the given passes.  On a shared host
    the speed of one thread changes in episodes of seconds to minutes; an
    operation's slowest time is taken at the machine's base speed and repeats
    from run to run where its median time does not (see README.md,
    Steadiness)."""
    return [max(times) for times in zip(*op_times)]


def _traced(ns, mm, measured_pass, op_times, passes, problems):
    """``passes`` traced passes after the untraced ones; per-layer figures
    per pass."""
    import spec
    from tracer import Tracer

    untraced_wall = sum(_base_times(op_times))
    n_untraced = len(op_times)
    tracer = Tracer(mm)
    snaps = []

    def traced_pass():
        tracer.reset()
        measured_pass()
        snaps.append(tracer.snapshot())

    tracer.install()
    try:
        for _ in range(passes):
            traced_pass()
    finally:
        tracer.uninstall()

    for name in spec.EXACT_COUNTS:
        values = {s[name] for s in snaps}
        if len(values) != 1:
            problems.append(f"count {name} differs between passes: {sorted(values)}")
    units = {name: unit for name, unit, _ in spec.PER_LAYER}
    metrics = {name: (statistics.median(s[name] for s in snaps), units[name])
               for name in snaps[0]}
    traced_wall = sum(_base_times(op_times[n_untraced:]))
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    print(f"{ns.workload}: untraced pass {untraced_wall:.3f}s, traced pass "
          f"{traced_wall:.3f}s", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
