"""Moment-inequality moduli toolkit.

Exact computation of the barycentric, mixture, roundness, and Jensen moduli
on finitely supported distributions over concrete normed and metric spaces,
generators for the extremal configurations with their predicted ratios,
closed-form constant tables, scalar inequality verification suites, and a
seeded stochastic search for improved empirical lower bounds.
"""

from .spaces import (
    CVector,
    CMatrix,
    GraphVertex,
    WeightedLq,
    Schatten,
    ParallelogramS1,
    Snowflake,
    BipartiteGraph,
    RealLine,
    distance,
)
from .distributions import (
    FiniteDist,
    Config,
    mixture,
    cross_moment,
    self_moment,
    mean,
    centered_moment,
    log_cross_moment,
)
from .moduli import (
    RatioReport,
    DegenerateRatioError,
    roundness_ratio,
    jensen_ratio,
    mixture_ratio,
    barycenter_ratio,
    metric_barycenter_ratio,
    log_roundness_report,
    barycenter_objective,
    minimize_barycenter,
    BarycenterCert,
)
from .constructions import (
    NamedConstruction,
    make_fn,
    make_bipartite,
    make_disjoint_bernoulli,
    make_jensen,
    make_schatten_parallelogram,
    make_eps_atom,
    make_two_point,
    computed_ratio,
    verify_construction,
)
from .search import SearchSpec, SearchResult, run_search, certify_ratio

__version__ = "0.1.0"
