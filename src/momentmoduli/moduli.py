"""Per-configuration ratio computations for the four geometric moduli.

Each operation returns a :class:`RatioReport` carrying the computed ratio,
the best matching proven bound for the space kind (when one exists -- the
attachment is best-effort and never guessed), and the slack between them.

Bound attachment summary, for effective exponent e (snowflakes fold their
alpha into the exponent):

* roundness -- the L_q exponent table on weighted-L_q spaces; on the real
  line the minimum over the q in {1, 2, e} embeddings plus the value 2 in
  the range e <= 2; anywhere else the triangle-inequality bound
  2^(max(e,1)+1).
* jensen -- the sharp L_q exponent (a lower bound on the ratio, so slack is
  typically negative); the real line uses its L_2 embedding.
* mixture / barycenter -- the universal constant 3^p / 2^(p-1), improved on
  weighted-L_q and scalar configs by the L_q-specific bound; for p < 1 the
  value 2 on spaces embeddable into L_p.
* metric barycenter -- 2^p + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import constants
from .barycenter import (
    BarycenterCert,
    barycenter_objective,
    minimize_barycenter,
    mixture_draw_bound,
)
from .distributions import (
    Config,
    FiniteDist,
    centered_moment,
    cross_moment,
    mean_row,
    self_moment,
)
from .spaces import (
    INF,
    BipartiteGraph,
    ParallelogramS1,
    RealLine,
    Schatten,
    Snowflake,
    Space,
    WeightedLq,
    _base,
    is_linear,
    pairwise_powered,
    space_to_json,
)

__all__ = [
    "RatioReport",
    "DegenerateRatioError",
    "roundness_ratio",
    "jensen_ratio",
    "mixture_ratio",
    "barycenter_ratio",
    "metric_barycenter_ratio",
    "log_roundness_report",
    "barycenter_objective",
    "minimize_barycenter",
    "BarycenterCert",
    "all_reports",
    "CSV_HEADER",
]

CSV_HEADER = ("name", "p", "q", "space", "value", "bound", "slack")


class DegenerateRatioError(ValueError):
    """Raised when a ratio's denominator vanishes; carries both moments."""

    def __init__(self, message: str, numerator: float, denominator: float):
        super().__init__(f"{message} (numerator={numerator}, denominator={denominator})")
        self.numerator = numerator
        self.denominator = denominator


@dataclass(frozen=True)
class RatioReport:
    name: str
    value: float
    bound: Optional[float] = None
    slack: Optional[float] = None
    solver_info: Optional[BarycenterCert] = None

    def to_json(self, space: Optional[Space] = None) -> dict:
        out = {
            "name": self.name,
            "value": _num_json(self.value),
            "bound": None if self.bound is None else _num_json(self.bound),
            "slack": None if self.slack is None else _num_json(self.slack),
            "solver_info": None if self.solver_info is None else self.solver_info.to_json(space),
        }
        return out

    def csv_row(self, p: float, space: Space) -> tuple:
        q = getattr(_base(space), "q", "")
        return (
            self.name, p, q, _space_label(space),
            self.value,
            "" if self.bound is None else self.bound,
            "" if self.slack is None else self.slack,
        )


def _num_json(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _space_label(space: Space) -> str:
    obj = space_to_json(space)

    def fmt(o: dict) -> str:
        kind = o["kind"]
        args = ",".join(f"{k}={fmt(v) if isinstance(v, dict) else v}"
                        for k, v in o.items() if k != "kind")
        return f"{kind}({args})" if args else kind

    return fmt(obj)


def _report(name: str, num: float, den: float, bound: Optional[float],
            solver_info: Optional[BarycenterCert] = None) -> RatioReport:
    """The report of num / den; a moment that left the float range (inf, or
    nan from inf - inf or 0 * inf) raises an OverflowError."""
    if not (math.isfinite(num) and math.isfinite(den)):
        raise OverflowError(f"{name} moments are not finite "
                            f"(numerator={num}, denominator={den})")
    value = num / den
    slack = None if bound is None else bound - value
    return RatioReport(name, value, bound, slack, solver_info)


# --------------------------------------------------------------------------
# Bound attachment
# --------------------------------------------------------------------------

def _effective_exponent(space: Space, p: float) -> float:
    while isinstance(space, Snowflake):
        p = space.alpha * p
        space = space.base
    return p


def _trivial_roundness(e: float) -> float:
    return 2.0 ** (max(e, 1.0) + 1.0)


def _roundness_bound(space: Space, p: float) -> Optional[float]:
    base = _base(space)
    e = _effective_exponent(space, p)
    if isinstance(base, RealLine):
        cands = [_trivial_roundness(e)]
        if e <= 2.0:
            cands.append(2.0)
        if e >= 1.0:
            for q in (1.0, 2.0, max(e, 1.0)):
                cands.append(2.0 ** constants.C_exponent(e, q))
        return min(cands)
    if isinstance(base, WeightedLq):
        if base.q < INF and e >= 1.0:
            return min(2.0 ** constants.C_exponent(e, base.q), _trivial_roundness(e))
        if base.q <= 2.0 and e <= base.q:
            return 2.0
        return _trivial_roundness(e)
    return _trivial_roundness(e)


def _jensen_bound(space: Space, p: float) -> Optional[float]:
    if p < 1.0:
        return None
    if isinstance(space, RealLine):
        return 2.0 ** constants.c_exponent(p, 2.0)
    if isinstance(space, WeightedLq) and space.q < INF:
        return 2.0 ** constants.c_exponent(p, space.q)
    if isinstance(space, Schatten):
        return 2.0 ** constants.c_exponent(p, space.q)
    if isinstance(space, ParallelogramS1):
        return 2.0 ** constants.c_exponent(p, 1.0)
    return None


def _mixture_bound(space: Space, p: float) -> Optional[float]:
    if p < 1.0:
        if isinstance(space, RealLine):
            return 2.0
        if isinstance(space, WeightedLq) and space.q <= 2.0 and p <= space.q:
            return 2.0
        return None
    g = constants.general_bound(p)
    if isinstance(space, WeightedLq) and space.q < INF:
        return min(g, constants.bm_bound(p, space.q))
    if isinstance(space, RealLine):
        return min(g, constants.bm_bound(p, 1.0), constants.bm_bound(p, 2.0))
    return g


# --------------------------------------------------------------------------
# Ratio operations
# --------------------------------------------------------------------------

def roundness_ratio(config: Config) -> RatioReport:
    """(E d(X,X')^p + E d(Y,Y')^p) / E d(X,Y)^p."""
    num = self_moment(config.X, config.p) + self_moment(config.Y, config.p)
    den = cross_moment(config.X, config.Y, config.p)
    if den <= 0.0:
        raise DegenerateRatioError("roundness denominator vanished", num, den)
    return _report("Roundness", num, den, _roundness_bound(config.space, config.p))


def jensen_ratio(x: FiniteDist, p: float) -> RatioReport:
    """E d(X,X')^p / E d(X, E[X])^p for one distribution (p >= 1)."""
    if p < 1.0:
        raise ValueError("jensen_ratio requires p >= 1")
    if not is_linear(x.space):
        raise TypeError("jensen_ratio needs a linear space kind")
    num = self_moment(x, p)
    den = centered_moment(x, p)
    if den <= 0.0:
        raise DegenerateRatioError("constant distribution has no Jensen ratio", num, den)
    return _report("Jensen", num, den, _jensen_bound(x.space, p))


def mixture_ratio(config: Config) -> RatioReport:
    """Barycenter objective at the fixed point z = (E[X] + E[Y]) / 2 over the
    cross moment."""
    if not is_linear(config.space):
        raise TypeError("mixture_ratio needs a linear space kind")
    den = cross_moment(config.X, config.Y, config.p)
    if den <= 0.0:
        raise DegenerateRatioError("mixture denominator vanished", float("nan"), den)
    z = 0.5 * (mean_row(config.X) + mean_row(config.Y))
    num = barycenter_objective(config, config.X.stack.with_array(z[None]))
    return _report("Mixture", num, den, _mixture_bound(config.space, config.p))


def barycenter_ratio(config: Config) -> RatioReport:
    """inf_z (E d(X,z)^p + E d(Y,z)^p) / E d(X,Y)^p.

    For p >= 1 the infimum comes from the convex solver; for p in (0, 1) the
    objective is evaluated in expectation over z drawn from the mixture of
    the two laws (optimization is unreliable in the non-convex range, and
    that admissible-z value already realizes the sharp constant).  Neither
    runs over a denominator that left the float range.
    """
    return barycenter_ratio_over(config, cross_moment(config.X, config.Y, config.p))


def barycenter_ratio_over(config: Config, den: float) -> RatioReport:
    """:func:`barycenter_ratio` over a cross moment ``den`` that the caller
    has already computed."""
    if den <= 0.0:
        raise DegenerateRatioError("barycenter denominator vanished", float("nan"), den)
    if not math.isfinite(den):
        raise OverflowError(f"Barycenter moments are not finite (denominator={den})")
    bound = _mixture_bound(config.space, config.p)
    if config.p >= 1.0:
        cert = minimize_barycenter(config)
        return _report("Barycenter", cert.value, den, bound, cert)
    return _report("Barycenter", mixture_draw_bound(config), den, bound)


def metric_barycenter_ratio(config: Config) -> RatioReport:
    """Exact barycenter minimum over a finite candidate set of center points.

    The candidates are the union of the two supports and, on a bipartite
    graph, the first vertex outside them per side, as far from each atom as
    any other there.  They form one stack; each law's distances to all of
    them come from one kernel call.
    """
    zs = config.X.stack.concat(config.Y.stack)
    if isinstance(config.space, BipartiteGraph):
        rows = [zs.array]
        for side in (1, 0):
            taken = set(zs.array[zs.array[:, 0] == side, 1].tolist())
            free = min(set(range(len(taken) + 1)) - taken)
            if free < config.space.n:
                rows.append([(side, free)])
        zs = zs.with_array(np.concatenate(rows))
    den = cross_moment(config.X, config.Y, config.p)
    # one contiguous row per candidate, so that each candidate's sum is the
    # same dot product as for that candidate alone
    mx = np.ascontiguousarray(pairwise_powered(config.space, config.X.stack, zs, config.p).T)
    my = np.ascontiguousarray(pairwise_powered(config.space, config.Y.stack, zs, config.p).T)
    px, py = config.X.probs, config.Y.probs
    best = min(float(px @ mx[j] + py @ my[j]) for j in range(len(zs)))
    bound = constants.metric_bound(config.p) if config.p >= 1.0 else None
    if den <= 0.0:
        if best == 0.0:
            # coinciding supports with a support point available as center:
            # the inequality is trivially saturated at 0
            return _report("MetricBarycenter", 0.0, 1.0, bound)
        raise DegenerateRatioError("metric barycenter denominator vanished",
                                   best, den)
    return _report("MetricBarycenter", best, den, bound)


def log_roundness_report(config: Config) -> RatioReport:
    """Gap E log d(X,X') + E log d(Y,Y') - 2 E log d(X,Y) of the multiplicative
    roundness inequality (which holds where it is <= 0): -inf on every finite
    law, with no distance computed, since an independent copy X' equals X
    with probability sum_i p_i^2 > 0, so E log d(X, X') = -inf."""
    return RatioReport("LogRoundness", -math.inf, 0.0, math.inf)


def all_reports(config: Config) -> List[RatioReport]:
    """Every ratio report applicable to the configuration's space kind.

    Jensen reports are emitted for X and then Y.  Degenerate ratios are
    skipped rather than raised.
    """
    out: List[RatioReport] = []

    def attempt(fn, *args) -> None:
        try:
            out.append(fn(*args))
        except DegenerateRatioError:
            pass

    attempt(roundness_ratio, config)
    attempt(metric_barycenter_ratio, config)
    if is_linear(config.space):
        if config.p >= 1.0:
            attempt(jensen_ratio, config.X, config.p)
            attempt(jensen_ratio, config.Y, config.p)
        attempt(mixture_ratio, config)
        attempt(barycenter_ratio, config)
    out.append(log_roundness_report(config))
    return out
