"""Per-module counts and self time, recorded by wrapping the program's public
functions from outside.

Every public function of each traced module is replaced by a timing wrapper
under every name it is bound to in the package's namespaces, so calls between
modules and within one module both pass through the wrapper.  A call is
counted whether it returns or raises.  The constructors' ``__post_init__``
hooks of the point and distribution classes are wrapped too, so object churn
is charged to the module that owns the class.  Spans live on an in-memory
stack: a call's self time is its duration minus the time of the wrapped calls
it made.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

MODULES = ("spaces", "distributions", "barycenter", "moduli", "search",
           "constructions", "scalar_checks", "quadrature", "constants", "cli")

SPACE_KINDS = {"WeightedLq": "lq", "Schatten": "schatten",
               "ParallelogramS1": "s1par", "RealLine": "realline",
               "BipartiteGraph": "graph"}

_CLASS_HOOKS = {"spaces": ("CVector", "CMatrix"),
                "distributions": ("FiniteDist", "Config")}

_RATIO_FUNCS = ("roundness_ratio", "jensen_ratio", "mixture_ratio",
                "barycenter_ratio", "metric_barycenter_ratio",
                "log_roundness_report")
_MOMENT_FUNCS = ("cross_moment", "centered_moment", "log_cross_moment")


class Tracer:
    """Install with :meth:`install`, read per-pass figures with
    :meth:`snapshot`, restore the program with :meth:`uninstall`."""

    def __init__(self, package):
        self._mods = {name: getattr(package, name) for name in MODULES}
        self._namespaces = [vars(package)] + [vars(m) for m in self._mods.values()]
        self._restore = []
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.kind_s = defaultdict(float)
        self.solve_s = 0.0
        self.search_s = 0.0

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these objects
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.kind_s.clear()
        self.solve_s = 0.0
        self.search_s = 0.0

    def _span(self, module: str, func, after=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                # counted whether the call returns or raises; result is None then
                dt = clock() - t0
                stack.pop()
                self_s[module] += dt - frame[0]
                calls[module] += 1
                if stack:
                    stack[-1][0] += dt
                if after is not None:
                    after(args, result, dt)

        def gen_wrapper(*args, **kwargs):
            # time only the generator's own steps, not its consumer's work
            it = func(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_s[module] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                yield item

        chosen = gen_wrapper if inspect.isgeneratorfunction(func) else wrapper
        chosen.__wrapped__ = func
        chosen.__name__ = func.__name__
        return chosen

    # -- per-function counters -----------------------------------------------

    def _after_hook(self, module: str, name: str):
        counts = self.counts
        if module == "spaces" and name == "pairwise_powered":
            def after(args, result, dt):
                kind = SPACE_KINDS.get(type(args[0]).__name__)
                if kind is None:      # a snowflake delegates to its base space
                    return
                pairs = len(args[1]) * len(args[2])
                counts["spaces.pairs"] += pairs
                counts["pairs." + kind] += pairs
                self.kind_s[kind] += dt
            return after
        if module == "spaces" and name == "validate_point":
            def after(args, result, dt):
                if type(args[0]).__name__ != "Snowflake":
                    counts["spaces.validate_calls"] += 1
            return after
        if module == "distributions" and name in _MOMENT_FUNCS:
            def after(args, result, dt):
                counts["distributions.moment_calls"] += 1
            return after
        if module == "barycenter" and name == "minimize_barycenter":
            def after(args, result, dt):
                counts["barycenter.solves"] += 1
                if result is not None:
                    counts["barycenter.iterations"] += result.iterations
                self.solve_s += dt
            return after
        if module == "moduli" and name in _RATIO_FUNCS:
            def after(args, result, dt):
                counts["moduli.ratio_calls"] += 1
            return after
        if module == "search" and name == "certify_ratio":
            def after(args, result, dt):
                counts["search.evals"] += 1
            return after
        if module == "search" and name == "run_search":
            def after(args, result, dt):
                # the trace holds the start plus every accepted proposal
                if result is not None:
                    counts["search.accepted"] += len(result.trace) - 1
                self.search_s += dt
            return after
        if module == "constructions" and name == "verify_construction":
            def after(args, result, dt):
                counts["constructions.verifies"] += 1
            return after
        if module == "scalar_checks" and name.startswith("run_"):
            def after(args, result, dt):
                counts["scalar_checks.suites"] += 1
            return after
        if module == "quadrature" and name == "gl_panel":
            def after(args, result, dt):
                counts["quadrature.panels"] += 1
            return after
        if module == "cli" and name == "main":
            def after(args, result, dt):
                counts["cli.commands"] += 1
            return after
        return None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, mod in self._mods.items():
            for name, func in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != mod.__name__):
                    continue
                wrapped = self._span(module, func, self._after_hook(module, name))
                for ns in self._namespaces:
                    for key, value in list(ns.items()):
                        if value is func:
                            self._restore.append((ns, key, func))
                            ns[key] = wrapped
            for cls_name in _CLASS_HOOKS.get(module, ()):
                cls = getattr(mod, cls_name)
                hook = cls.__dict__["__post_init__"]
                after = None
                if cls_name == "FiniteDist":
                    def after(args, result, dt):
                        self.counts["distributions.dists_built"] += 1
                self._restore.append((cls, "__post_init__", hook))
                setattr(cls, "__post_init__", self._span(module, hook, after))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore = []

    # -- figures -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Figures for everything recorded since the last :meth:`reset`."""
        c = self.counts
        out = {}
        for module in MODULES:
            out[module + ".self_s"] = self.self_s[module]
        out["spaces.calls"] = self.calls["spaces"]
        for key in ("spaces.pairs", "spaces.validate_calls",
                    "distributions.dists_built", "distributions.moment_calls",
                    "barycenter.solves", "barycenter.iterations",
                    "moduli.ratio_calls", "search.evals", "search.accepted",
                    "constructions.verifies", "scalar_checks.suites",
                    "quadrature.panels", "cli.commands"):
            out[key] = c[key]
        for kind in SPACE_KINDS.values():
            t = self.kind_s[kind]
            out["spaces.pairs_per_s." + kind] = c["pairs." + kind] / t if t > 0 else 0.0
        out["barycenter.iters_per_s"] = (c["barycenter.iterations"] / self.solve_s
                                         if self.solve_s > 0 else 0.0)
        out["search.evals_per_s"] = (c["search.evals"] / self.search_s
                                     if self.search_s > 0 else 0.0)
        out["search.accept_ratio"] = (c["search.accepted"] / c["search.evals"]
                                      if c["search.evals"] else 0.0)
        return out
