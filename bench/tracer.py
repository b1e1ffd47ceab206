"""In-memory span tracing of ``ppt``'s layers, installed from outside ``src/``.

``Tracer.install()`` replaces each traced public function with a wrapper at
every name where a caller looks it up: the defining module, every ``ppt``
module that imported it by name, and the ``ppt`` package itself.  Methods are
replaced on their class.  ``uninstall()`` puts the originals back, so the
untraced passes of a run execute the unmodified code.

A span is (name, start, end, parent).  Spans are kept in flat arrays while a
pass runs and summarised afterwards: busy time is the sum of a name's span
durations, self time is busy time minus the time covered by child spans.
No traced function calls itself, so busy time counts no interval twice.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np

import ppt
from ppt import bounds, cli, concentration, core, metrics, quadrature, simulate, transport

LAYERS = ("cli", "core", "metrics", "simulate", "bounds", "transport", "concentration", "quadrature")
_MODULES = (ppt, cli, core, metrics, simulate, bounds, transport, concentration, quadrature)


def _is_uniform(weights) -> bool:
    w = np.asarray(weights, float).reshape(-1)
    return bool(w.size) and bool(np.all(w == w[0]))


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Records spans and counters for the functions listed by ``_targets``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, count=None, classify=None, prepare=None):
        """Wrap ``fn`` so that each call records one span.

        ``classify(args, kwargs)`` picks the span name's suffix from the
        arguments, ``prepare(args, kwargs)`` may substitute arguments (to
        count integrand calls) and ``count(args, kwargs, result)`` adds to
        the counters after a successful call.
        """
        base = f"{layer}.{name}"
        default_id = self._id(base)
        ids = {}
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack,
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            nid = default_id
            if classify is not None:
                suffix = classify(args, kwargs)
                nid = ids.get(suffix)
                if nid is None:
                    nid = ids[suffix] = tracer._id(f"{base}.{suffix}")
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counters[f"{layer}.errors"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn):
        """Run ``fn()`` inside a top-level span called ``name``."""
        return self.wrap("op", name, fn)()

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        for layer, owner, attr, options in _targets(self):
            original = getattr(owner, attr)
            name = attr if owner in _MODULES else f"{owner.__name__}.{attr.strip('_')}"
            traced = self.wrap(layer, name, original, **options)
            if owner in _MODULES:
                for module in _MODULES:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, traced)
            else:
                self._patch(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name, over the recorded spans."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write_jsonl(self, path, max_calls: int = 1000) -> None:
        """Write the recorded spans as JSON lines.

        A name called at most ``max_calls`` times gets one line per span:
        name, start and end (seconds) and parent (the line index of the
        nearest written ancestor, -1 for none).  A name called more often gets
        one summary line with its calls, busy_s and self_s, which keeps the
        file small when cheap functions run millions of times.
        """
        summary = self.summary()
        hot = {self._ids[name] for name, s in summary.items() if s["calls"] > max_calls}
        line_of = array("i")
        with open(path, "w", encoding="utf-8") as fh:
            lines = 0
            for nid, parent, start, end in zip(self.name_ids, self.parents, self.starts, self.ends):
                written_parent = line_of[parent] if parent >= 0 else -1
                if nid in hot:
                    line_of.append(written_parent)
                    continue
                line_of.append(lines)
                lines += 1
                record = {"name": self.names[nid], "start": start, "end": end, "parent": written_parent}
                fh.write(json.dumps(record) + "\n")
            for nid in sorted(hot):
                name = self.names[nid]
                fh.write(json.dumps({"name": name, "summary": True, **summary[name]}) + "\n")


def _targets(tracer: Tracer):
    """(layer, owner, attribute, wrap options) for every traced function."""
    c = tracer.counters

    def emd_kind(args, kwargs):
        a, b = args[0], args[1]
        square = np.size(a) == np.size(b)
        return "uniform_square" if square and _is_uniform(a) and _is_uniform(b) else "general"

    def emd_cells(args, kwargs, out):
        c[f"transport.emd.{emd_kind(args, kwargs)}.cells"] += int(np.size(args[2]))

    def rejection_count(args, kwargs, out):
        c["simulate.rejection_points.points"] += int(out.shape[0])

    def energy_pairs(args, kwargs, out):
        n = args[1].n
        c["simulate.interaction_energy.pairs"] += n * (n - 1) // 2

    def gibbs_single(args, kwargs, out):
        c["simulate.gibbs.proposals"] += int(out[1].n_samples)
        c["simulate.gibbs.accepts"] += 1

    def gibbs_coupled(args, kwargs, out):
        c["simulate.gibbs.proposals"] += int(out[2].n_samples)
        c["simulate.gibbs.accepts"] += len(out[1])

    def v_inverse_points(args, kwargs, out):
        c["simulate.TimeChangeSpec.v_inverse.points"] += int(np.size(out))

    def gradient_evals(args, kwargs, out):
        n_outer, inner = args[2], args[3]
        c["bounds.nested_gradient_mc.evals"] += n_outer * (inner + 1)

    def counted_integrand(args, kwargs):
        f = args[0]

        def integrand(x):
            c["quadrature.integrate.f_calls"] += 1
            c["quadrature.integrate.f_points"] += _points(x)
            return f(x)

        return (integrand,) + tuple(args[1:]), kwargs

    def assertions(args, kwargs, out):
        failed = [a for a in out.results.get("assertions", []) if not a.get("passed")]
        c["cli.verify.assertions_failed"] += len(failed)

    return [
        ("cli", cli, "run_experiment", {"count": assertions}),
        ("core", core.Configuration, "__init__", {}),
        ("core", core.Configuration, "add", {}),
        ("core", core.Configuration, "multiset", {}),
        ("metrics", metrics, "rho1", {}),
        ("metrics", metrics, "rho2", {}),
        ("simulate", simulate, "rejection_points", {"count": rejection_count}),
        ("simulate", simulate, "poisson_batch_with_rng", {}),
        ("simulate", simulate, "interaction_energy", {"count": energy_pairs}),
        ("simulate", simulate, "sample_gibbs", {"count": gibbs_single}),
        ("simulate", simulate, "sample_gibbs_coupled", {"count": gibbs_coupled}),
        ("simulate", simulate.SuperpositionCoupling, "sample_batch", {}),
        ("simulate", simulate.TimeChangeSpec, "v_inverse", {"count": v_inverse_points}),
        ("simulate", simulate.TimeChangeCoupling, "estimate_mean_cost", {}),
        ("bounds", bounds, "nested_gradient_mc", {"count": gradient_evals}),
        ("bounds", bounds, "bound_tv_poisson", {}),
        ("bounds", bounds, "bound_tv_gibbs", {}),
        ("bounds", bounds, "bound_tv_general", {}),
        ("bounds", bounds, "bound_w2_halfline", {}),
        ("bounds", bounds, "bound_w2_timechange", {}),
        ("transport", transport, "emd", {"classify": emd_kind, "count": emd_cells}),
        ("transport", transport, "assignment_solve", {}),
        ("transport", transport, "estimate_rubinstein_empirical", {}),
        ("transport", transport, "doubling_diagnostic", {}),
        ("transport", transport, "dual_lower_bound", {}),
        ("transport", transport, "exact_oracle_discrete", {}),
        ("concentration", concentration, "surface_measure", {}),
        ("concentration", concentration, "coarea_check", {}),
        ("concentration", concentration, "isoperimetric_ratio", {}),
        ("quadrature", quadrature, "integrate", {"prepare": counted_integrand}),
    ]


# Span-derived per-layer metrics, each "<span name>.<field>"; the
# counter-derived ones are listed in COUNTER_METRICS.
SPAN_METRICS = [
    "metrics.rho1.calls",
    "metrics.rho1.busy_s",
    "metrics.rho2.calls",
    "metrics.rho2.busy_s",
    "core.Configuration.init.calls",
    "core.Configuration.init.busy_s",
    "core.Configuration.add.calls",
    "core.Configuration.add.busy_s",
    "core.Configuration.multiset.calls",
    "core.Configuration.multiset.busy_s",
    "transport.emd.uniform_square.calls",
    "transport.emd.uniform_square.busy_s",
    "transport.emd.general.calls",
    "transport.emd.general.busy_s",
    "transport.assignment_solve.calls",
    "transport.assignment_solve.busy_s",
    "transport.estimate_rubinstein_empirical.self_s",
    "transport.doubling_diagnostic.self_s",
    "transport.dual_lower_bound.self_s",
    "transport.exact_oracle_discrete.self_s",
    "simulate.rejection_points.calls",
    "simulate.rejection_points.busy_s",
    "simulate.poisson_batch_with_rng.busy_s",
    "simulate.interaction_energy.calls",
    "simulate.interaction_energy.busy_s",
    "simulate.SuperpositionCoupling.sample_batch.busy_s",
    "simulate.TimeChangeSpec.v_inverse.calls",
    "simulate.TimeChangeSpec.v_inverse.busy_s",
    "simulate.TimeChangeCoupling.estimate_mean_cost.busy_s",
    "bounds.nested_gradient_mc.calls",
    "bounds.nested_gradient_mc.busy_s",
    "bounds.nested_gradient_mc.self_s",
    "bounds.bound_tv_poisson.busy_s",
    "bounds.bound_tv_gibbs.busy_s",
    "bounds.bound_tv_general.busy_s",
    "bounds.bound_w2_halfline.busy_s",
    "bounds.bound_w2_timechange.busy_s",
    "concentration.surface_measure.busy_s",
    "concentration.coarea_check.busy_s",
    "concentration.coarea_check.self_s",
    "concentration.isoperimetric_ratio.busy_s",
    "quadrature.integrate.calls",
    "quadrature.integrate.busy_s",
    "cli.run_experiment.calls",
    "cli.run_experiment.self_s",
]

COUNTER_METRICS = [
    "transport.emd.uniform_square.cells",
    "transport.emd.general.cells",
    "simulate.rejection_points.points",
    "simulate.interaction_energy.pairs",
    "simulate.gibbs.proposals",
    "simulate.TimeChangeSpec.v_inverse.points",
    "bounds.nested_gradient_mc.evals",
    "quadrature.integrate.f_calls",
    "quadrature.integrate.f_points",
    "cli.verify.assertions_failed",
] + [f"{layer}.errors" for layer in LAYERS]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass (zero where a layer is idle)."""
    spans = tracer.summary()
    out = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = spans.get(span, {}).get(field, 0)
    for metric in COUNTER_METRICS:
        out[metric] = tracer.counters.get(metric, 0)
    proposals = tracer.counters.get("simulate.gibbs.proposals", 0)
    accepts = tracer.counters.get("simulate.gibbs.accepts", 0)
    out["simulate.gibbs.accept_ratio"] = accepts / proposals if proposals else 0.0
    return out
