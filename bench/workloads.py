"""The four workloads: their seeded work lists and the checks on every output.

``build(name, mm, seed, out_dir)`` returns the work list of one pass as a list
of :class:`Op`.  ``mm`` is the imported ``momentmoduli`` package.  Every
operation calls the program through module attributes at call time, so a
tracer that rebinds those attributes sees the calls.  Inputs are generated
here from ``seed``; the checks recompute each output with ``oracles`` (which
never imports the program) or test a property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

import oracles as orc

INF = math.inf

# A solve meets the solver's stated 1e-6 target when
# oracle * (1 - 1e-12) <= value <= oracle * (1 + 1e-6).
SOLVER_RTOL = 1e-6
LOWER_RTOL = 1e-12
# exact moments against a reference summed in another order
EXACT_RTOL = 1e-9

L1_OVERSHOOT = ("minimize_barycenter overshoots the weighted-median optimum "
                "of real l_1^6 with 4+5 atoms by more than its 1e-6 target")


@dataclass
class Op:
    """One timed operation.

    ``check`` returns ``(problem, rel_err)``: ``problem`` is None when the
    output is right, and ``rel_err`` is the relative error against an exact
    oracle where one exists.  ``digest`` reduces the output to plain values
    compared across passes.  ``fault`` names the known program fault that
    makes this operation fail on every run.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Tuple[Optional[str], Optional[float]]]
    digest: Callable[[object], tuple]
    fault: Optional[str] = None


def _close(value: float, ref: float, rtol: float = EXACT_RTOL) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


# --------------------------------------------------------------------------
# Building program inputs from plain arrays
# --------------------------------------------------------------------------

def _dist(mm, space, atoms, probs, weights=None):
    S = mm.spaces
    kind = type(space).__name__
    if kind == "Snowflake":
        kind = type(space.base).__name__
    if kind == "RealLine":
        pts = tuple(float(a) for a in atoms)
    elif kind == "Schatten":
        pts = tuple(S.CMatrix(a) for a in atoms)
    else:
        pts = tuple(S.CVector(a, weights) for a in atoms)
    return mm.distributions.FiniteDist(space, pts, np.asarray(probs, dtype=float))


def _config(mm, space, xa, xp, ya, yp, p, weights=None):
    return mm.distributions.Config(space, _dist(mm, space, xa, xp, weights),
                                   _dist(mm, space, ya, yp, weights), p)


def _arrays(dist):
    """Atoms of a program distribution as a plain array, with its weights."""
    first = dist.atoms[0]
    if isinstance(first, float):
        return np.asarray(dist.atoms, dtype=float), None
    atoms = np.stack([np.asarray(a.entries) for a in dist.atoms])
    return atoms, getattr(first, "weights", None)


def _metric(space, weights=None) -> orc.Metric:
    """The oracle metric of a program space, read from its fields."""
    kind = type(space).__name__
    if kind == "WeightedLq":
        return orc.Metric({"kind": "lq", "q": space.q, "w": np.asarray(weights)})
    if kind == "Schatten":
        return orc.Metric({"kind": "schatten", "q": space.q})
    if kind == "ParallelogramS1":
        return orc.Metric({"kind": "s1par"})
    if kind == "RealLine":
        return orc.Metric({"kind": "real"})
    if kind == "Snowflake":
        base = _metric(space.base, weights)
        return orc.Metric({"kind": "snowflake", "base": base.desc,
                           "alpha": space.alpha})
    raise ValueError(f"no oracle metric for {kind}")


def _point_bytes(z) -> bytes:
    if isinstance(z, float):
        return np.float64(z).tobytes()
    return np.asarray(z.entries).tobytes()


def _dist_bytes(dist) -> bytes:
    return b"".join(_point_bytes(a) for a in dist.atoms) + np.asarray(dist.probs).tobytes()


def _rand_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# --------------------------------------------------------------------------
# search: one run_search call per operation
# --------------------------------------------------------------------------

SEARCH_BUDGET = 300
SEARCHES_PER_KIND = 2
# (space, q or n, objective, p)
SEARCH_MIX = (
    ("lq", 1.0, "roundness", 1.0), ("lq", 1.0, "roundness", 2.0),
    ("lq", 2.0, "roundness", 1.0), ("lq", 2.0, "roundness", 2.0),
    ("lq", 3.0, "roundness", 1.5), ("lq", 3.0, "roundness", 3.0),
    ("s1par", 3, "roundness", 1.0), ("s1par", 3, "roundness", 2.0),
    ("lq", 3.0, "mixture", 1.0), ("lq", 3.0, "mixture", 2.0),
)


def _search_ops(mm, seed: int):
    S = mm.spaces
    ops = []
    mix = [(i, *kind) for i, kind in enumerate(SEARCH_MIX * SEARCHES_PER_KIND)]
    for i, kind, par, objective, p in mix:
        space = S.WeightedLq(par) if kind == "lq" else S.ParallelogramS1(par)
        if objective == "mixture":
            bound = orc.mixture_bound(p, par)
        else:
            bound = orc.roundness_bound(kind, p, par if kind == "lq" else 2.0)
        spec = mm.search.SearchSpec(space=space, objective=objective, p=p,
                                    max_atoms_x=4, max_atoms_y=4,
                                    budget=SEARCH_BUDGET, restarts=1,
                                    seed=seed * 100 + i)

        def run(spec=spec):
            return mm.search.run_search(spec)

        def check(res, objective=objective, bound=bound, p=p):
            cfg = res.best_config
            xa, w = _arrays(cfg.X)
            ya, _ = _arrays(cfg.Y)
            m = _metric(cfg.space, w)
            xp, yp = np.asarray(cfg.X.probs), np.asarray(cfg.Y.probs)
            if objective == "roundness":
                ref = orc.roundness(m, xa, xp, ya, yp, p)
            else:
                ref = orc.mixture(m, xa, xp, ya, yp, p)
            if not _close(res.best_ratio, ref):
                return f"best ratio {res.best_ratio!r} but recomputed {ref!r}", None
            if res.best_ratio > bound * (1.0 + 1e-12):
                return f"best ratio {res.best_ratio!r} exceeds proven bound {bound!r}", None
            steps = [s for s, _ in res.trace]
            ratios = [r for _, r in res.trace]
            if steps != sorted(set(steps)) or any(b <= a for a, b in zip(ratios, ratios[1:])):
                return "trace is not strictly increasing", None
            if not _close(ratios[-1], res.best_ratio, 1e-10):
                return "trace does not end at the best ratio", None
            return None, None

        def digest(res):
            cfg = res.best_config
            return (res.best_ratio, res.trace, _dist_bytes(cfg.X), _dist_bytes(cfg.Y))

        ops.append(Op(f"{objective}/{kind}{par:g}/p{p:g}/{i}", run, check, digest))
    return ops


# --------------------------------------------------------------------------
# barycenter: one minimize_barycenter call per operation
# --------------------------------------------------------------------------

NUMERIC_CAP_S1PAR = 30
NUMERIC_CAP_SCHATTEN = 5


def _solve_op(mm, name, cfg, oracle, metric, arrays, cap=None, fault=None):
    """A solve checked against the exact minimum ``oracle()``, or by the
    properties of any minimizer when ``oracle`` is None."""
    xa, xp, ya, yp = arrays
    p = cfg.p

    def run():
        if cap is None:
            return mm.barycenter.minimize_barycenter(cfg)
        return mm.barycenter.minimize_barycenter(cfg, max_iters_per_start=cap)

    def check(cert):
        at_z = orc.objective(metric, xa, xp, ya, yp, p, _plain(cert.z_star))
        if not _close(cert.value, at_z):
            return f"value {cert.value!r} is not the objective {at_z!r} at z_star", None
        if oracle is not None:
            oracle_value = float(oracle())
            rel = cert.value / oracle_value - 1.0
            if not (oracle_value * (1.0 - LOWER_RTOL) <= cert.value
                    <= oracle_value * (1.0 + SOLVER_RTOL)):
                return f"value {cert.value!r} vs oracle {oracle_value!r} (rel {rel:.3e})", abs(rel)
            return None, abs(rel)
        starts = list(xa) + list(ya)
        starts.append(0.5 * (np.tensordot(xp, xa, axes=1) + np.tensordot(yp, ya, axes=1)))
        starts.append(np.zeros_like(xa[0]))
        for z in starts:
            f = orc.objective(metric, xa, xp, ya, yp, p, z)
            if cert.value > f * (1.0 + 1e-12):
                return f"value {cert.value!r} above the objective {f!r} at a start", None
        floor = 2.0 ** (1.0 - p) * metric.moment(xa, xp, ya, yp, p)
        if cert.value < floor * (1.0 - 1e-12):
            return f"value {cert.value!r} below 2^(1-p) E d(X,Y)^p = {floor!r}", None
        return None, None

    def digest(cert):
        return (cert.value, cert.iterations, cert.best_start, _point_bytes(cert.z_star))

    return Op(name, run, check, digest, fault)


def _plain(z):
    return z if isinstance(z, float) else np.asarray(z.entries)


def _lq_solve(mm, rng, name, q, p, dim, nx, ny, real, dirichlet, oracle, fault=None):
    xa = rng.normal(size=(nx, dim)) if real else _rand_complex(rng, nx, dim)
    ya = rng.normal(size=(ny, dim)) if real else _rand_complex(rng, ny, dim)
    xa, ya = xa.astype(complex), ya.astype(complex)
    if dirichlet:
        xp, yp = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
    else:
        xp, yp = np.full(nx, 1.0 / nx), np.full(ny, 1.0 / ny)
    w = np.ones(dim)
    cfg = _config(mm, mm.spaces.WeightedLq(q), xa, xp, ya, yp, p)
    atoms = np.concatenate([xa, ya])
    coeffs = np.concatenate([xp, yp])
    minimum = {
        "median": lambda: orc.separable_min(atoms.real, coeffs, w, 1.0),
        "golden": lambda: orc.separable_min(atoms.real, coeffs, w, p),
        "mean": lambda: orc.mean_min(atoms, coeffs, w),
        "weiszfeld": lambda: orc.weiszfeld_min(atoms, coeffs, w),
    }[oracle]
    metric = orc.Metric({"kind": "lq", "q": q, "w": w})
    return _solve_op(mm, name, cfg, minimum, metric, (xa, xp, ya, yp), fault=fault)


def _real_line_solve(mm, rng, name, p, nx=4, ny=5):
    xa, ya = rng.normal(size=nx), rng.normal(size=ny)
    xp, yp = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
    cfg = _config(mm, mm.spaces.RealLine(), xa, xp, ya, yp, p)
    atoms = np.concatenate([xa, ya])[:, None]
    coeffs = np.concatenate([xp, yp])
    one = np.ones(1)
    if p == 2.0:
        minimum = lambda: orc.mean_min(atoms.astype(complex), coeffs, one)  # noqa: E731
    else:
        minimum = lambda: orc.separable_min(atoms, coeffs, one, p)  # noqa: E731
    return _solve_op(mm, name, cfg, minimum, orc.Metric({"kind": "real"}),
                     (xa, xp, ya, yp))


def _fn_solve(mm, n, p):
    nc = mm.constructions.make_fn(n, INF, p)
    xa, _ = _arrays(nc.config.X)
    ya, w = _arrays(nc.config.Y)
    xp, yp = np.asarray(nc.config.X.probs), np.asarray(nc.config.Y.probs)
    metric = orc.Metric({"kind": "lq", "q": INF, "w": np.asarray(w)})
    minimum = lambda: orc.fn_inf_min(n, p, metric.moment(xa, xp, ya, yp, p))  # noqa: E731
    return _solve_op(mm, f"fn_inf/n{n}/p{p:g}", nc.config, minimum, metric,
                     (xa, xp, ya, yp))


def _numeric_solve(mm, rng, name, space, p, nx, ny, cap):
    if type(space).__name__ == "Schatten":
        xa, ya = _rand_complex(rng, nx, 2, 2), _rand_complex(rng, ny, 2, 2)
        metric = orc.Metric({"kind": "schatten", "q": space.q})
    else:
        dim = 2 * space.n
        xa, ya = _rand_complex(rng, nx, dim), _rand_complex(rng, ny, dim)
        metric = orc.Metric({"kind": "s1par"})
    xp, yp = rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny))
    cfg = _config(mm, space, xa, xp, ya, yp, p)
    return _solve_op(mm, name, cfg, None, metric, (xa, xp, ya, yp), cap=cap)


# the fixed l_1 inputs that hit the overshoot: (label, Dirichlet weights,
# seed); fixed rather than drawn from --seed, so that the failed share cannot
# change with the seed
L1_FAULT_INPUTS = (("uniform", False, 1), ("dirichlet", True, 0))
# seed of a fixed l_2, p = 1 input whose minimizer sits on an atom: the solver
# needs about 18,000 iterations there instead of about 1,400
L2_ATOM_MINIMUM_SEED = 4


def _barycenter_ops(mm, seed: int):
    S = mm.spaces
    ops = []
    rng = np.random.default_rng([seed, 2])
    for p in (1.0, 1.5, 2.0):
        for k in range(2):
            ops.append(_real_line_solve(mm, rng, f"realline/p{p:g}/{k}", p))
    for k in range(2):
        ops.append(_lq_solve(mm, rng, f"l2/p1/{k}", 2.0, 1.0, 4, 4, 5,
                             real=False, dirichlet=False, oracle="weiszfeld"))
        ops.append(_lq_solve(mm, rng, f"l2/p2/{k}", 2.0, 2.0, 4, 4, 5,
                             real=False, dirichlet=True, oracle="mean"))
        ops.append(_lq_solve(mm, rng, f"l3/p3/{k}", 3.0, 3.0, 4, 4, 5,
                             real=True, dirichlet=True, oracle="golden"))
    for p in (1.0, 2.0):
        ops.append(_numeric_solve(mm, rng, f"s1par1/p{p:g}", S.ParallelogramS1(1),
                                  p, 2, 2, NUMERIC_CAP_S1PAR))
    ops.append(_numeric_solve(mm, rng, "schatten2x2/p1", S.Schatten(1.0), 1.0,
                              2, 1, NUMERIC_CAP_SCHATTEN))
    for n, p in ((2, 1.0), (3, 2.0), (5, 3.0)):
        ops.append(_fn_solve(mm, n, p))
    fixed = np.random.default_rng([L2_ATOM_MINIMUM_SEED, 77])
    ops.append(_lq_solve(mm, fixed, "l2-atom-minimum/p1/fixed", 2.0, 1.0, 4, 4, 5,
                         real=False, dirichlet=True, oracle="weiszfeld"))
    for label, dirichlet, s in L1_FAULT_INPUTS:
        fixed = np.random.default_rng([s, 77])
        ops.append(_lq_solve(mm, fixed, f"l1-{label}/p1/fixed{s}", 1.0, 1.0,
                             6, 4, 5, real=True, dirichlet=dirichlet,
                             oracle="median", fault=L1_OVERSHOOT))
    return ops


# --------------------------------------------------------------------------
# moments-large: one moment or ratio call per operation
# --------------------------------------------------------------------------

def _value_op(name, run, reference):
    """An operation whose output (a RatioReport or a float) must equal
    ``reference()``."""

    def value(out):
        return float(out.value) if hasattr(out, "value") else float(out)

    def check(out):
        v = value(out)
        ref = reference()
        if not _close(v, ref):
            return f"value {v!r} vs reference {ref!r}", None
        return None, None

    return Op(name, run, check, lambda out: (value(out),))


def _random_law(rng, kind, n, dim=None):
    if kind == "real":
        atoms = rng.normal(size=n)
    elif kind == "matrix":
        atoms = _rand_complex(rng, n, dim, dim)
    else:
        atoms = _rand_complex(rng, n, dim)
    return atoms, rng.dirichlet(np.ones(n))


class _Law:
    """A seeded random configuration with the oracle's view of it."""

    def __init__(self, mm, rng, space, kind, n, dim=None, p=2.0):
        xa, xp = _random_law(rng, kind, n, dim)
        ya, yp = _random_law(rng, kind, n, dim)
        w = np.ones(dim) if kind == "vector" else None
        self.cfg = _config(mm, space, xa, xp, ya, yp, p, weights=w)
        self.m = _metric(space, w)
        self.xy = (xa, xp, ya, yp)
        self.p = p


def _moments_ops(mm, seed: int):
    S, M, D, C = mm.spaces, mm.moduli, mm.distributions, mm.constructions
    rng = np.random.default_rng([seed, 3])
    ops = []

    def roundness(name, law):
        ops.append(_value_op(name, lambda: M.roundness_ratio(law.cfg),
                             lambda: orc.roundness(law.m, *law.xy, law.p)))

    def cross(name, law):
        ops.append(_value_op(name, lambda: D.cross_moment(law.cfg.X, law.cfg.Y, law.p),
                             lambda: law.m.moment(*law.xy, law.p)))

    for q in (1.0, 2.0, 3.0, INF):
        law = _Law(mm, rng, S.WeightedLq(q), "vector", 300, 8, p=1.5)
        roundness(f"roundness/l{q:g}", law)
        if q == 2.0:
            ops.append(_value_op("mixture/l2", lambda law=law: M.mixture_ratio(law.cfg),
                                 lambda law=law: orc.mixture(law.m, *law.xy, law.p)))
        if q == 3.0:
            cross("cross_moment/l3", law)
            ops.append(_value_op("jensen/l3",
                                 lambda law=law: M.jensen_ratio(law.cfg.X, law.p),
                                 lambda law=law: orc.jensen(law.m, *law.xy[:2], law.p)))
    law = _Law(mm, rng, S.WeightedLq(2.0), "vector", 60, 6, p=1.0)
    ops.append(_value_op(
        "metric_barycenter/l2", lambda law=law: M.metric_barycenter_ratio(law.cfg),
        lambda law=law: orc.metric_barycenter(
            law.m, *law.xy, law.p, np.concatenate([law.xy[0], law.xy[2]]))))
    roundness("roundness/s1par4",
              _Law(mm, rng, S.ParallelogramS1(4), "vector", 250, 8, p=1.0))
    law = _Law(mm, rng, S.RealLine(), "real", 1000, p=3.0)
    roundness("roundness/realline", law)
    ops.append(_value_op("log_roundness/realline",
                         lambda law=law: M.log_roundness_report(law.cfg),
                         lambda law=law: orc.log_roundness(law.m, *law.xy)))
    roundness("roundness/snowflake-l2",
              _Law(mm, rng, S.Snowflake(S.WeightedLq(2.0), 0.5), "vector", 250, 6, p=2.0))
    for q, dim, n in ((1.0, 3, 20), (2.0, 4, 14)):
        cross(f"cross_moment/schatten{dim}x{dim}",
              _Law(mm, rng, S.Schatten(q), "matrix", n, dim, p=1.0))

    # large exact constructions, checked against the paper's closed forms
    def construction(name, nc, ratio, closed_form):
        ops.append(_value_op(name, lambda: ratio(nc.config), lambda: closed_form))

    construction("roundness/disjoint-bernoulli-n12",
                 C.make_disjoint_bernoulli(12, 3.0, 2.0),
                 lambda cfg: M.roundness_ratio(cfg),
                 orc.disjoint_bernoulli_ratio(12, 3.0, 2.0))
    construction("roundness/schatten-parallelogram-n128",
                 C.make_schatten_parallelogram(128, 1.0),
                 lambda cfg: M.roundness_ratio(cfg),
                 orc.schatten_parallelogram_ratio(128, 1.0))
    construction("jensen/rademacher-n100",
                 C.make_jensen("rademacher", p=2.0, n=100, q=3.0),
                 lambda cfg: M.jensen_ratio(cfg.X, cfg.p),
                 orc.jensen_rademacher_ratio(100, 3.0, 2.0))
    construction("metric_barycenter/bipartite-n500", C.make_bipartite(500, 2.0),
                 lambda cfg: M.metric_barycenter_ratio(cfg),
                 orc.bipartite_ratio(500, 2.0))
    return ops


# --------------------------------------------------------------------------
# cli: one momentmoduli.cli.main command per operation
# --------------------------------------------------------------------------

README_CONFIG = {
    "space": {"kind": "weighted_lq", "q": 2.0},
    "X": {"atoms": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
          "probs": ["0.5", "0.5"]},
    "Y": {"atoms": [[[0.0, 1.0], [0.0, 0.0]]], "probs": [1.0]},
    "p": 2.0,
}

CHECK_SUITES = ("alpha", "beta", "subadditivity", "laplace", "gaussian",
                "cosine", "hilbert")

SWEEPS = (
    ("bipartite", ["--n", "1,2,4,100", "--p", "1,2,3"]),
    ("fn", ["--n", "2,3", "--q", "inf,2", "--p", "1,2"]),
    ("disjoint-bernoulli", ["--n", "2,4", "--q", "1,3", "--p", "1,2"]),
    ("two-point", ["--p", "1,2,3"]),
    ("eps-atom", ["--eps", "0.1,0.01", "--p", "1.5,2"]),
)


def _config_arrays(obj):
    """Atoms and probabilities of a weighted_lq config JSON as arrays."""
    out = []
    for side in ("X", "Y"):
        atoms = np.array([[complex(re, im) for re, im in atom]
                          for atom in obj[side]["atoms"]])
        probs = np.array([float(v) for v in obj[side]["probs"]])
        out += [atoms, probs]
    w = np.asarray(obj["X"].get("weights", np.ones(out[0].shape[1])), dtype=float)
    return out, w


def _ratio_refs(obj):
    (xa, xp, ya, yp), w = _config_arrays(obj)
    q, p = float(obj["space"]["q"]), float(obj["p"])
    m = orc.Metric({"kind": "lq", "q": q, "w": w})
    refs = {"Roundness": orc.roundness(m, xa, xp, ya, yp, p),
            "Mixture": orc.mixture(m, xa, xp, ya, yp, p),
            "MetricBarycenter": orc.metric_barycenter(m, xa, xp, ya, yp, p,
                                                      np.concatenate([xa, ya]))}
    if q == 2.0 and p == 2.0:
        atoms = np.concatenate([xa, ya])
        coeffs = np.concatenate([xp, yp])
        refs["Barycenter"] = orc.mean_min(atoms, coeffs, w) / m.moment(xa, xp, ya, yp, p)
    return refs


def _cli_ops(mm, seed: int, out_dir: str):
    rng = np.random.default_rng([seed, 4])
    path = lambda name: os.path.join(out_dir, name)  # noqa: E731
    readme_cfg = path("readme_config.json")
    with open(readme_cfg, "w") as fh:
        json.dump(README_CONFIG, fh)
    seeded = {
        "space": {"kind": "weighted_lq", "q": 2.0},
        "X": {"atoms": [[[float(v), float(u)] for v, u in rng.normal(size=(2, 2))]
                        for _ in range(3)], "probs": [1.0 / 3] * 3},
        "Y": {"atoms": [[[float(v), float(u)] for v, u in rng.normal(size=(2, 2))]
                        for _ in range(3)], "probs": [1.0 / 3] * 3},
        "p": 2.0,
    }
    seeded_cfg = path("seeded_config.json")
    with open(seeded_cfg, "w") as fh:
        json.dump(seeded, fh)

    commands = []   # (name, argv, output file or None, checker)
    commands.append(("constants", ["constants", "--pmin", "1", "--pmax", "4",
                                   "--step", "0.5", "--out", path("grid.csv")],
                     path("grid.csv"), _check_constants))
    for label, cfg_path, obj in (("readme", readme_cfg, README_CONFIG),
                                 ("seeded", seeded_cfg, seeded)):
        commands.append((f"ratio/{label}", ["ratio", "--config", cfg_path,
                                            "--csv", path(f"ratio_{label}.csv")],
                         path(f"ratio_{label}.csv"), _ratio_checker(obj)))
    commands.append(("verify/fn", ["verify", "fn", "--n", "5", "--q", "inf", "--p", "1"],
                     None, _check_verify))
    commands.append(("verify/schatten-parallelogram",
                     ["verify", "schatten-parallelogram", "--n", "64", "--p", "1"],
                     None, _check_verify))
    for suite in CHECK_SUITES:
        out = path(f"check_{suite}.csv")
        commands.append((f"check/{suite}", ["check", suite, "--out", out], out,
                         _check_suite))
    search_seed = int(rng.integers(1 << 30))
    out = path("search.json")
    commands.append(("search", ["search", "--space", "lq", "--q", "2",
                                "--objective", "roundness", "--p", "2",
                                "--budget", "300", "--restarts", "2",
                                "--seed", str(search_seed), "--out", out],
                     out, _check_search))
    for construction, args in SWEEPS:
        out = path(f"sweep_{construction}.csv")
        commands.append((f"sweep/{construction}",
                         ["sweep", "--construction", construction, *args, "--out", out],
                         out, _check_sweep))

    ops = []
    for name, argv, out_file, checker in commands:
        def run(argv=argv, out_file=out_file):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = mm.cli.main(argv)
            data = b""
            if out_file is not None:
                with open(out_file, "rb") as fh:
                    data = fh.read()
            return code, stdout.getvalue(), stderr.getvalue(), data

        def check(res, checker=checker):
            code, stdout, stderr, data = res
            if code != 0:
                return f"exit code {code}: {stderr.strip()[-200:]}", None
            return checker(stdout, stderr, data.decode()), None

        ops.append(Op(name, run, check, lambda res: res))
    return ops


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _check_constants(stdout, stderr, text):
    rows = _csv_rows(text)
    if len(rows) != 7 * 15:
        return f"constants grid has {len(rows)} rows, expected {7 * 15}"
    for row in rows:
        p = float(row["p"])
        if not _close(float(row["general_bound"]), 3.0 ** p / 2.0 ** (p - 1.0), 1e-15):
            return f"general_bound at p={p} is {row['general_bound']}"
    return None


def _ratio_checker(obj):
    def check(stdout, stderr, text):
        refs = _ratio_refs(obj)
        reports = {r["name"]: r for r in json.loads(stdout)}
        for name, ref in refs.items():
            if name not in reports:
                return f"ratio report {name} missing"
            value = float(reports[name]["value"])
            tol = SOLVER_RTOL if name == "Barycenter" else EXACT_RTOL
            if not _close(value, ref, tol):
                return f"{name} {value!r} vs reference {ref!r}"
        return None

    return check


def _check_verify(stdout, stderr, text):
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != "OK":
        return f"verify did not end in OK: {lines[-1:]}"
    return None


def _check_suite(stdout, stderr, text):
    rows = _csv_rows(text)
    if rows or "0 violation(s)" not in stderr:
        return f"{len(rows)} violation row(s): {stderr.strip()}"
    return None


def _check_sweep(stdout, stderr, text):
    rows = _csv_rows(text)
    if not rows:
        return "sweep wrote no rows"
    bad = [r for r in rows if r["status"] != "ok"]
    if bad:
        return f"{len(bad)} sweep row(s) not ok"
    return None


def _check_search(stdout, stderr, text):
    payload = json.loads(text)
    cfg = payload["best_config"]
    (xa, xp, ya, yp), w = _config_arrays(cfg)
    m = orc.Metric({"kind": "lq", "q": 2.0, "w": w})
    ref = orc.roundness(m, xa, xp, ya, yp, float(cfg["p"]))
    if not _close(payload["best_ratio"], ref):
        return f"search best ratio {payload['best_ratio']!r} but recomputed {ref!r}"
    bound = orc.roundness_bound("lq", 2.0, 2.0)
    if payload["best_ratio"] > bound * (1.0 + 1e-12):
        return f"search best ratio exceeds the proven bound {bound!r}"
    return None


# --------------------------------------------------------------------------

def build(name: str, mm, seed: int, out_dir: str):
    """The work list of one pass of workload ``name``."""
    if name == "search":
        return _search_ops(mm, seed)
    if name == "barycenter":
        return _barycenter_ops(mm, seed)
    if name == "moments-large":
        return _moments_ops(mm, seed)
    if name == "cli":
        return _cli_ops(mm, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
