"""Command-line surface.

Subcommands: ``constants`` (exponent/constant grid as CSV), ``ratio`` (all
applicable ratio reports for a configuration JSON), ``verify`` (a named
construction's predicted vs computed ratio), ``check`` (scalar inequality
suites, CSV of violations), ``search`` (seeded stochastic ratio
maximization), ``sweep`` (verify over a parameter grid).

Exit codes: 0 success, 1 tolerance breach, 2 input error.  ``inf`` is the
spelling for an infinite exponent; numeric output uses 17 significant digits
so every value round-trips exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import constants, scalar_checks, search as search_mod
from .constructions import (
    make_bipartite,
    make_disjoint_bernoulli,
    make_eps_atom,
    make_fn,
    make_jensen,
    make_schatten_parallelogram,
    make_two_point,
    verify_construction,
)
from .distributions import Config
from .moduli import CSV_HEADER, all_reports
from .spaces import INF, ParallelogramS1, RealLine, SpaceMismatchError, WeightedLq


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_real(s: str) -> float:
    if s.strip().lower() in ("inf", "infinity"):
        return INF
    return float(s)


def _parse_list(s: str) -> List[float]:
    return [_parse_real(tok) for tok in s.split(",") if tok.strip()]


def _parse_ints(s: str, flag: str) -> List[int]:
    vals = _parse_list(s)
    if not all(v.is_integer() for v in vals):       # inf and nan are not
        raise ValueError(f"{flag} takes integers; got {s!r}")
    return [int(v) for v in vals]


def _positive(flag: str, value):
    """``value`` unless it is given and not a positive finite number."""
    if value is not None and not (0 < value < INF):
        raise ValueError(f"{flag} must be a positive finite number; got {value!r}")
    return value


def _write_csv(path: Optional[str], header: Sequence[str], rows) -> None:
    rows = list(rows)
    out = sys.stdout if path is None else open(path, "w", newline="")
    try:
        w = csv.writer(out)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    finally:
        if path is not None:
            out.close()


# ----------------------------- constants -----------------------------

def _cmd_constants(ns: argparse.Namespace) -> int:
    step = _positive("--step", ns.step)
    pstep = step if ns.pstep is None else _positive("--pstep", ns.pstep)
    qstep = step if ns.qstep is None else _positive("--qstep", ns.qstep)
    ps = np.arange(ns.pmin, ns.pmax + 1e-12, pstep)
    qs = np.arange(ns.qmin, ns.qmax + 1e-12, qstep)
    rows = constants.constants_grid((float(p) for p in ps),
                                    [float(q) for q in qs])
    _write_csv(ns.out, constants.GRID_HEADER, rows)
    return 0


# ----------------------------- ratio -----------------------------

def _cmd_ratio(ns: argparse.Namespace) -> int:
    text = Path(ns.config).read_text()
    config = Config.from_json(json.loads(text))
    reports = all_reports(config)
    payload = [r.to_json(config.space) for r in reports]
    print(json.dumps(payload, indent=2))
    if ns.json:
        Path(ns.json).write_text(json.dumps(payload, indent=2))
    if ns.csv:
        _write_csv(ns.csv, CSV_HEADER,
                   (r.csv_row(config.p, config.space) for r in reports))
    return 0


# ----------------------------- verify / sweep -----------------------------

def _build_construction(cid: str, n: Optional[int], q: Optional[float],
                        p: float, eps: Optional[float]):
    cid = cid.replace("-", "_")
    if cid == "fn":
        if n is None or q is None:
            raise ValueError("fn needs --n and --q")
        return make_fn(n, q, p)
    if cid == "bipartite":
        if n is None:
            raise ValueError("bipartite needs --n")
        return make_bipartite(n, p)
    if cid == "disjoint_bernoulli":
        if n is None or q is None:
            raise ValueError("disjoint-bernoulli needs --n and --q")
        return make_disjoint_bernoulli(n, q, p)
    if cid == "jensen_two_point":
        return make_jensen("two_point", p=p)
    if cid == "jensen_eps":
        if eps is None:
            raise ValueError("jensen-eps needs --eps")
        return make_jensen("eps", p=p, eps=eps)
    if cid == "jensen_basis":
        if n is None or q is None:
            raise ValueError("jensen-basis needs --n and --q")
        return make_jensen("basis", p=p, n=n, q=q)
    if cid == "jensen_rademacher":
        if n is None or q is None:
            raise ValueError("jensen-rademacher needs --n and --q")
        return make_jensen("rademacher", p=p, n=n, q=q)
    if cid == "schatten_parallelogram":
        if n is None:
            raise ValueError("schatten-parallelogram needs --n")
        return make_schatten_parallelogram(n, p)
    if cid == "two_point":
        return make_two_point(p)
    if cid == "eps_atom":
        if eps is None:
            raise ValueError("eps-atom needs --eps")
        return make_eps_atom(eps, p)
    raise ValueError(f"unknown construction {cid!r}")


def _verify_one(cid, n, q, p, eps) -> tuple:
    nc = _build_construction(cid, n, q, p, eps)
    outcome = verify_construction(nc)
    return nc, outcome


def _cmd_verify(ns: argparse.Namespace) -> int:
    nc, outcome = _verify_one(ns.construction, ns.n, ns.q, ns.p, ns.eps)
    slack = outcome.computed - nc.predicted
    print(f"construction: {nc.id}  params: {nc.params}")
    print(f"predicted ({nc.prediction_kind}): {_fmt(nc.predicted)}")
    print(f"computed: {_fmt(outcome.computed)}")
    print(f"slack: {_fmt(slack)}  tolerance: {_fmt(outcome.tolerance)}")
    print("OK" if outcome.ok else "TOLERANCE BREACH")
    if ns.json:
        Path(ns.json).write_text(json.dumps({
            "id": nc.id, "params": nc.params,
            "predicted": nc.predicted, "prediction_kind": nc.prediction_kind,
            "computed": outcome.computed, "slack": slack, "ok": outcome.ok,
        }, indent=2))
    return 0 if outcome.ok else 1


def _cmd_sweep(ns: argparse.Namespace) -> int:
    ps = _parse_list(ns.p)
    nsv = _parse_ints(ns.n, "--n") if ns.n else [None]
    qs = _parse_list(ns.q) if ns.q else [None]
    epss = _parse_list(ns.eps) if ns.eps else [None]
    rows = []
    any_breach = False
    for p in ps:
        for n in nsv:
            for q in qs:
                for eps in epss:
                    nc, outcome = _verify_one(ns.construction, n, q, p, eps)
                    rows.append((
                        nc.id, p,
                        "" if n is None else n,
                        "" if q is None else q,
                        "" if eps is None else eps,
                        nc.predicted, outcome.computed,
                        outcome.computed - nc.predicted,
                        "ok" if outcome.ok else "breach",
                    ))
                    any_breach = any_breach or not outcome.ok
    _write_csv(ns.out,
               ("id", "p", "n", "q", "eps", "predicted", "computed",
                "slack", "status"),
               rows)
    return 1 if any_breach else 0


# ----------------------------- check -----------------------------

_CHECKS = ("alpha", "beta", "subadditivity", "laplace", "gaussian",
           "cosine", "hilbert")


def _given(**kwargs) -> dict:
    """The given keyword arguments; the others keep the callee's defaults."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _cmd_check(ns: argparse.Namespace) -> int:
    name = ns.name
    grid = _positive("--grid", ns.grid)
    seeds = _positive("--seeds", ns.seeds)
    tol = ns.tolerance
    if tol is not None and not (tol >= 0):
        raise ValueError(f"--tolerance must be nonnegative; got {tol!r}")
    if name == "alpha":
        violations = scalar_checks.run_alpha_grid(**_given(grid=grid, tol=tol))
    elif name == "beta":
        violations = scalar_checks.run_beta_scan(**_given(grid=grid))
    elif name == "subadditivity":
        violations = scalar_checks.run_subadditivity_suite(**_given(seeds=seeds))
    elif name == "laplace":
        violations = scalar_checks.run_laplace_suite(**_given(n_dists=seeds, tol=tol))
    elif name == "gaussian":
        violations = scalar_checks.run_smoothing_suite(**_given(seeds=seeds))
    elif name == "cosine":
        violations = scalar_checks.run_cosine_suite(**_given(n_alphas=grid, tol=tol))
    elif name == "hilbert":
        violations = scalar_checks.run_hilbert_suite(**_given(seeds=seeds))
    else:
        raise ValueError(f"unknown check {name!r}")
    keys: List[str] = sorted({k for v in violations for k in v})
    _write_csv(ns.out, keys or ["check"],
               ([v.get(k, "") for k in keys] for v in violations))
    print(f"check {name}: {len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


# ----------------------------- search -----------------------------

def _cmd_search(ns: argparse.Namespace) -> int:
    if ns.space == "lq":
        if ns.q is None:
            raise ValueError("--space lq needs --q")
        space = WeightedLq(ns.q)
    elif ns.space == "realline":
        space = RealLine()
    elif ns.space == "s1par":
        if ns.n is None:
            raise ValueError("--space s1par needs --n")
        space = ParallelogramS1(ns.n)
    else:
        raise ValueError(f"unknown space {ns.space!r}")
    spec = search_mod.SearchSpec(
        space=space,
        objective=ns.objective,
        p=ns.p,
        max_atoms_x=ns.atoms_x,
        max_atoms_y=ns.atoms_y,
        budget=ns.budget,
        restarts=ns.restarts,
        seed=ns.seed,
        dim=ns.dim,
    )
    result = search_mod.run_search(spec)
    payload = result.to_json()
    print(f"best ratio (empirical lower bound): {_fmt(result.best_ratio)}")
    if ns.out:
        Path(ns.out).write_text(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, indent=2))
    return 0


# ----------------------------- parser -----------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="momentmoduli",
        description="Moment-inequality moduli: exact ratios, extremal "
                    "constructions, constant tables, scalar checks, and "
                    "stochastic search.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("constants", help="Emit the constants grid as CSV.")
    c.add_argument("--pmin", type=float, default=1.0)
    c.add_argument("--pmax", type=float, default=8.0)
    c.add_argument("--qmin", type=float, default=1.0)
    c.add_argument("--qmax", type=float, default=8.0)
    c.add_argument("--step", type=float, default=0.5)
    c.add_argument("--pstep", type=float)
    c.add_argument("--qstep", type=float)
    c.add_argument("--out", type=str)

    r = sub.add_parser("ratio", help="All ratio reports for a config JSON.")
    r.add_argument("--config", type=str, required=True)
    r.add_argument("--json", type=str)
    r.add_argument("--csv", type=str)

    v = sub.add_parser("verify", help="Predicted vs computed for a construction.")
    v.add_argument("construction", type=str)
    v.add_argument("--n", type=int)
    v.add_argument("--q", type=_parse_real)
    v.add_argument("--p", type=_parse_real, required=True)
    v.add_argument("--eps", type=float)
    v.add_argument("--json", type=str)

    k = sub.add_parser("check", help="Run a scalar inequality suite.")
    k.add_argument("name", type=str, choices=_CHECKS)
    k.add_argument("--grid", type=int)
    k.add_argument("--seeds", type=int)
    k.add_argument("--tolerance", type=float)
    k.add_argument("--out", type=str)

    s = sub.add_parser("search", help="Stochastic ratio maximization.")
    s.add_argument("--space", type=str, required=True,
                   choices=("lq", "realline", "s1par"))
    s.add_argument("--q", type=_parse_real)
    s.add_argument("--n", type=int)
    s.add_argument("--objective", type=str, required=True,
                   choices=search_mod.OBJECTIVES)
    s.add_argument("--p", type=_parse_real, required=True)
    s.add_argument("--budget", type=int, default=10000)
    s.add_argument("--restarts", type=int, default=1)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--atoms-x", type=int, default=4)
    s.add_argument("--atoms-y", type=int, default=4)
    s.add_argument("--dim", type=int)
    s.add_argument("--out", type=str)

    w = sub.add_parser("sweep", help="Verify a construction over a grid.")
    w.add_argument("--construction", type=str, required=True)
    w.add_argument("--p", type=str, required=True,
                   help="comma-separated p values")
    w.add_argument("--n", type=str, help="comma-separated n values")
    w.add_argument("--q", type=str, help="comma-separated q values (inf ok)")
    w.add_argument("--eps", type=str, help="comma-separated eps values")
    w.add_argument("--out", type=str)

    return p


_DISPATCH = {
    "constants": _cmd_constants,
    "ratio": _cmd_ratio,
    "verify": _cmd_verify,
    "check": _cmd_check,
    "search": _cmd_search,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return _DISPATCH[ns.cmd](ns)
    except (ValueError, KeyError, OSError, SpaceMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:
        # an exponent or magnitude whose constants leave the float range
        print(f"error: a value leaves the floating-point range: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
