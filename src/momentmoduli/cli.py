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
import functools
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


def _reject_unused(target: str, flags: dict, takes) -> None:
    """Refuse a flag that is given but that ``target`` does not take."""
    for flag, value in flags.items():
        if value is not None and flag not in takes:
            raise ValueError(f"{target} takes no --{flag}")


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

# construction name -> (builder, the flags it needs); the builder takes p and
# those flags as keywords
_CONSTRUCTIONS = {
    "fn": (make_fn, ("n", "q")),
    "bipartite": (make_bipartite, ("n",)),
    "disjoint_bernoulli": (make_disjoint_bernoulli, ("n", "q")),
    "jensen_two_point": (functools.partial(make_jensen, "two_point"), ()),
    "jensen_eps": (functools.partial(make_jensen, "eps"), ("eps",)),
    "jensen_basis": (functools.partial(make_jensen, "basis"), ("n", "q")),
    "jensen_rademacher": (functools.partial(make_jensen, "rademacher"), ("n", "q")),
    "schatten_parallelogram": (make_schatten_parallelogram, ("n",)),
    "two_point": (make_two_point, ()),
    "eps_atom": (make_eps_atom, ("eps",)),
}


def _verify_one(name: str, p: float, **flags) -> tuple:
    cid = name.replace("-", "_")
    if cid not in _CONSTRUCTIONS:
        raise ValueError(f"unknown construction {cid!r}")
    build, needs = _CONSTRUCTIONS[cid]
    label = cid.replace("_", "-")
    if any(flags[f] is None for f in needs):
        raise ValueError(f"{label} needs " + " and ".join(f"--{f}" for f in needs))
    _reject_unused(label, flags, needs)
    nc = build(p=p, **{f: flags[f] for f in needs})
    return nc, verify_construction(nc)


def _cmd_verify(ns: argparse.Namespace) -> int:
    nc, outcome = _verify_one(ns.construction, ns.p, n=ns.n, q=ns.q, eps=ns.eps)
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
                    nc, outcome = _verify_one(ns.construction, p, n=n, q=q, eps=eps)
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

# each suite's runner in ``scalar_checks`` (looked up by name when it runs)
# and the flags it takes, mapped to the runner's keywords
_CHECKS = {
    "alpha": ("run_alpha_grid", {"grid": "grid", "tolerance": "tol"}),
    "beta": ("run_beta_scan", {"grid": "grid"}),
    "subadditivity": ("run_subadditivity_suite", {"seeds": "seeds"}),
    "laplace": ("run_laplace_suite", {"seeds": "n_dists", "tolerance": "tol"}),
    "gaussian": ("run_smoothing_suite", {"seeds": "seeds"}),
    "cosine": ("run_cosine_suite", {"grid": "n_alphas", "tolerance": "tol"}),
    "hilbert": ("run_hilbert_suite", {"seeds": "seeds"}),
}


def _cmd_check(ns: argparse.Namespace) -> int:
    name = ns.name
    runner, takes = _CHECKS[name]
    tol = ns.tolerance
    if tol is not None and not (tol >= 0):
        raise ValueError(f"--tolerance must be nonnegative; got {tol!r}")
    given = {"grid": _positive("--grid", ns.grid),
             "seeds": _positive("--seeds", ns.seeds), "tolerance": tol}
    _reject_unused(f"check {name}", given, takes)
    kwargs = {takes[flag]: value for flag, value in given.items() if value is not None}
    violations = getattr(scalar_checks, runner)(**kwargs)
    keys: List[str] = sorted({k for v in violations for k in v})
    _write_csv(ns.out, keys or ["check"],
               ([v.get(k, "") for k in keys] for v in violations))
    print(f"check {name}: {len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


# ----------------------------- search -----------------------------

# search space name -> (space type, the flag it is built from or None, the
# other flags it takes)
_SEARCH_SPACES = {
    "lq": (WeightedLq, "q", ("dim",)),
    "realline": (RealLine, None, ()),
    "s1par": (ParallelogramS1, "n", ()),
}


def _cmd_search(ns: argparse.Namespace) -> int:
    kind, needs, takes = _SEARCH_SPACES[ns.space]
    flags = {"q": ns.q, "n": ns.n, "dim": ns.dim}
    if needs is None:
        space = kind()
    elif flags[needs] is None:
        raise ValueError(f"--space {ns.space} needs --{needs}")
    else:
        space = kind(flags[needs])
    _reject_unused(f"--space {ns.space}", flags, (needs, *takes))
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
    s.add_argument("--space", type=str, required=True, choices=_SEARCH_SPACES)
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
