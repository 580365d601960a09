"""Benchmark of momentmoduli: one workload per run, figures as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat K --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --write-spec

One worker process, single-threaded, runs the workload (see ``worker.py``).
The set-up is timed in that worker and in fresh processes started before and
after it (``SETUP_PROBES_BEFORE``, ``SETUP_PROBES_AFTER``); ``setup_s`` is the
slowest of these seven times, the set-up at the machine's base speed (see
README.md, Steadiness).  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.

``--repeat K`` runs the workload K times on seeds N, N+1, ... (with
``--trace 1``: K times on seed N, whose exact counts must repeat) and prints
each metric's median, its spread (interquartile range over median) and its
bound.  ``--write-spec`` writes ``BENCHMARK.json`` at the root of the
repository.  Files the workload writes go under ``.bench_out/`` and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

# set-up probes in fresh processes, before and after the worker, so that they
# sample the machine's speed at both ends of the run
SETUP_PROBES_BEFORE = 3
SETUP_PROBES_AFTER = 3
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(args, deadline):
    """Run worker.py with ``args``, killed at ``deadline`` (a ``time.monotonic``
    value); return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S:.0f}s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "momentmoduli", "__init__.py")):
        raise BenchError("src/momentmoduli is missing: run from a checkout of the repository")
    names = [n for n, _ in spec.WORKLOADS]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; choose from {names}")
    out_dir = os.path.join(ROOT, ".bench_out", str(os.getpid()))
    common = ["--workload", workload, "--seed", str(seed), "--out-dir", out_dir]
    setups = []

    def probe_setup(count):
        for _ in range(0 if trace else count):
            setups.append(_worker([*common, "--setup-only"], deadline)["setup_s"])

    probe_setup(SETUP_PROBES_BEFORE)
    result = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)],
                     deadline)
    probe_setup(SETUP_PROBES_AFTER)
    try:
        os.rmdir(os.path.dirname(out_dir))
    except OSError:
        pass
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        print("setup probes: " + " ".join(f"{v:.4f}" for v in setups), file=sys.stderr)
        result["metrics"]["setup_s"]["value"] = max(setups)
    expected = [n for n, *_ in (spec.PER_LAYER if trace else spec.END_TO_END)]
    if sorted(result["metrics"]) != sorted(expected):
        raise BenchError(f"metrics {sorted(result['metrics'])} differ from {sorted(expected)}")
    return result


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / abs(med) if med else 0.0


def repeat(workload: str, first_seed: int, runs: int, seconds: float, trace: int) -> int:
    results = []
    for k in range(runs):
        seed = first_seed if trace else first_seed + k
        res = run_once(workload, seed, seconds, trace)
        share = res["failed"] / res["attempted"]
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in res["metrics"].items()
                         if not trace or name in spec.EXACT_COUNTS)
        print(f"run {k + 1}/{runs} seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"failed share={share:.6f} {shown}", flush=True)
        results.append(res)
    metrics = spec.PER_LAYER if trace else spec.END_TO_END
    print(f"{'metric':32} {'unit':8} {'median':>14} {'spread':>8} {'bound':>6}")
    ok = all(r["correct"] for r in results)
    for name, unit, *rest in metrics:
        values = [r["metrics"][name]["value"] for r in results]
        med, spread = _spread(values)
        bound = rest[1] if len(rest) > 1 else None
        note = ""
        if trace and name in spec.EXACT_COUNTS:
            exact = len(set(values)) == 1
            ok = ok and exact
            note = "exact" if exact else "NOT EXACT"
        elif bound is not None:
            note = "ok" if spread <= bound / 3.0 else ("within bound" if spread <= bound else "OVER")
            ok = ok and spread <= bound
        shown = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:32} {unit:8} {med:14.6g} {spread:8.4f} {shown} {note}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return 0 if ok and len(shares) == 1 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, metavar="K")
    ap.add_argument("--write-spec", action="store_true")
    ns = ap.parse_args(argv)

    if ns.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if not ns.workload:
        ap.error("--workload is required")
    try:
        if ns.repeat:
            return repeat(ns.workload, ns.seed, ns.repeat, ns.seconds, ns.trace)
        result = run_once(ns.workload, ns.seed, ns.seconds, ns.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
