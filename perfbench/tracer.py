"""Span tracing of dyadlab from the outside.

``Tracer.install`` rebinds the public functions of every dyadlab module,
plus a few public methods, to timing wrappers in each namespace where a
caller looks them up (``dyadlab.bellman.find_alpha``,
``dyadlab.normlab.shift_matrix``, the names imported into ``dyadlab.cli``,
and the benchmark's own module-attribute calls).  No file of the program
changes.  ``uninstall`` puts the originals back, so untraced executions run
the program exactly as shipped.

Spans are kept in memory as ``(name, start, end, parent, exact)`` tuples and
aggregated (and written) only when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import time
import types
from fractions import Fraction

import numpy as np

LAYERS = ("dyadic", "exact", "signal", "shifts", "schur", "bellman",
          "normlab", "cli")

# Public methods worth a span of their own: the DP build of the oracle, its
# reads, and the interval lookups that dominate the dyadic layer.
METHODS = {
    "dyadic": {"DyadicSystem": ("interval", "intervals",
                                "nonleaf_intervals")},
    "bellman": {"BellmanTable": ("layer", "evaluate")},
    "shifts": {"ShiftSpec": ("adjoint",)},
}


def estimated_layer_ops(shape, max_offset):
    """(center, offset) pairs one DP layer visits; the formula of the
    oracle's own size guard, restated here so the count is independent of
    the code under test."""
    total = 1
    for n in shape:
        m = (n - 1) // 2
        if max_offset is not None:
            m = min(m, max_offset)
        total *= sum(n - 2 * abs(j) for j in range(-m, m + 1))
    return total


class Tracer:
    def __init__(self, dyadlab_modules):
        self.modules = dyadlab_modules
        self.spans = []
        self._stack = []
        self._targets = []
        self._exact_types = (Fraction, dyadlab_modules["exact"].Sqrt2Rational)
        self._shift_type = dyadlab_modules["shifts"].ShiftSpec
        self._seen_tables = []
        self.counts = dict.fromkeys(
            ("shift_coefficients", "power_iterations", "ascent_runs",
             "ascent_wins", "dp_candidate_updates", "oracle_calls",
             "oracle_hits"), 0)
        self._collect_targets()

    # -- wrapping ----------------------------------------------------------

    def _collect_targets(self):
        # every namespace binding of a public function defined in a layer;
        # helpers of other modules (``_linalg``) count toward their caller
        defined_in = {f"dyadlab.{layer}" for layer in LAYERS}
        owners = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ in defined_in
                        and not inspect.isgeneratorfunction(obj)):
                    owners.setdefault(obj, []).append((module, attr))
        for fn, places in owners.items():
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrap = self._wrap(f"{layer}.{fn.__name__}", fn)
            for module, attr in places:
                self._targets.append((module, attr, fn, wrap))
        for layer, classes in METHODS.items():
            for cls_name, names in classes.items():
                cls = getattr(self.modules[layer], cls_name)
                for attr in names:
                    fn = cls.__dict__[attr]
                    wrap = self._wrap(f"{layer}.{cls_name}.{attr}", fn)
                    self._targets.append((cls, attr, fn, wrap))

    def install(self):
        for owner, attr, _, wrap in self._targets:
            setattr(owner, attr, wrap)

    def uninstall(self):
        for owner, attr, fn, _ in self._targets:
            setattr(owner, attr, fn)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_exact = self._is_exact
        before, after = self._hooks(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            exact = is_exact(args, kwargs)
            state = before(args) if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, exact)
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    def _is_exact(self, args, kwargs):
        """True when a call carries exact (rational or sqrt-2) data."""
        if kwargs.get("exact") is True:
            return True
        for a in itertools.chain(args, kwargs.values()):
            if isinstance(a, self._exact_types):
                return True
            if isinstance(a, np.ndarray):
                if a.dtype == object:
                    return True
                continue
            if isinstance(a, self._shift_type):
                first = next(iter(a.entries.values()), None)
                if isinstance(first, (int,) + self._exact_types):
                    return True
                continue
            if getattr(a, "exact", None) is True:
                return True
            values = getattr(a, "values", None)
            if isinstance(values, np.ndarray) and values.dtype == object:
                return True
        return False

    # -- counters ------------------------------------------------------------

    def _hooks(self, name, fn):
        counts = self.counts
        if name in ("shifts.random_extremal_shift", "shifts.symmetrize",
                    "shifts.shift_slice", "shifts.ShiftSpec.adjoint"):
            def after(args, kwargs, result, state):
                counts["shift_coefficients"] += len(result.entries)
            return None, after
        if name in ("normlab.opnorm_lp_lower", "normlab.opnorm_l2"):
            def after(args, kwargs, result, state):
                counts["power_iterations"] += result.iterations
            return None, after
        if name == "schur.norm1_lower":
            sig = inspect.signature(fn)

            def after(args, kwargs, result, state):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["restarts"] > 0:
                    counts["ascent_runs"] += 1
                    if result[1]["method"] == "projected_gradient_ascent":
                        counts["ascent_wins"] += 1
            return None, after
        if name == "bellman.BellmanTable.layer":
            def before(args):
                return args[0].depth

            def after(args, kwargs, result, state):
                table = args[0]
                built = table.depth - state
                if built > 0:
                    cfg = table.config
                    shape = (cfg.n_f, cfg.n_F, cfg.n_g, cfg.n_G)
                    counts["dp_candidate_updates"] += built * \
                        estimated_layer_ops(shape, cfg.max_offset)
            return before, after
        if name == "bellman.bellman_oracle":
            seen = self._seen_tables

            def after(args, kwargs, result, state):
                counts["oracle_calls"] += 1
                if any(t is result for t in seen):
                    counts["oracle_hits"] += 1
                else:
                    seen.append(result)
            return None, after
        return None, None

    def reset(self):
        """Forget spans and counts (the table-identity memory is kept)."""
        self.spans.clear()
        for key in self.counts:
            self.counts[key] = 0

    # -- aggregation -----------------------------------------------------

    def self_times(self):
        """Per-name and per-layer self time and call counts, plus the self
        time of exact-input calls."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name, by_layer, calls = {}, dict.fromkeys(LAYERS, 0.0), {}
        layer_calls = dict.fromkeys(LAYERS, 0)
        exact_self = 0.0
        for i, (name, t0, t1, _, exact) in enumerate(spans):
            own = (t1 - t0) - child[i]
            layer = name.split(".", 1)[0]
            by_name[name] = by_name.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            by_layer[layer] += own
            layer_calls[layer] += 1
            if exact:
                exact_self += own
        return {"by_name": by_name, "calls": calls, "by_layer": by_layer,
                "layer_calls": layer_calls, "exact_self": exact_self}
