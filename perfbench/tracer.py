"""Span tracing of mrnet's public functions, installed from outside.

``instrument`` replaces each traced function at every module attribute
(and module-level dict value) of the ``mrnet`` package that holds it,
so a call made from another module -- ``estimation`` calling
``models.scores``, the CLI's runner table calling ``_cmd_train`` -- is
caught too.  Each call records a span (id, name, start, end, parent
span, thread); spans stay in memory until ``write`` is called.  The
parent of a span is the innermost open span of the same thread, so the
self time of a span (its duration minus its children's) is exact also
under ``run_grid``'s worker threads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); names follow the per-layer metrics
TRACED = (
    ("mrnet._rng", "counter_uniforms", "rng.counter_uniforms"),
    ("mrnet.models", "scores", "models.scores"),
    ("mrnet.models", "score_gradients", "models.score_gradients"),
    ("mrnet.models", "sigmoid", "models.sigmoid"),
    ("mrnet.estimation", "train", "estimation.train"),
    ("mrnet.estimation", "objective_gradient", "estimation.objective_gradient"),
    ("mrnet.estimation", "penalized_objective", "estimation.penalized_objective"),
    ("mrnet.simulation", "generate_truth", "simulation.generate_truth"),
    ("mrnet.simulation", "sample_network", "simulation.sample_network"),
    ("mrnet.simulation", "sample_observations", "simulation.sample_observations"),
    ("mrnet.simulation", "run_grid", "simulation.run_grid"),
    ("mrnet.simulation", "run_replicate", "simulation.run_replicate"),
    ("mrnet.simulation", "write_grid_csv", "simulation.write_grid_csv"),
    ("mrnet.evaluation", "evaluate_losses", "evaluation.evaluate_losses"),
    ("mrnet.evaluation", "rank_report", "evaluation.rank_report"),
    ("mrnet.evaluation", "rank_edge", "evaluation.rank_edge"),
    ("mrnet.io", "load_triples", "io.load_triples"),
    ("mrnet.io", "load_triple_split", "io.load_triple_split"),
    ("mrnet.io", "sample_negatives", "io.sample_negatives"),
    ("mrnet.io", "save_checkpoint", "io.save_checkpoint"),
    ("mrnet.io", "load_checkpoint", "io.load_checkpoint"),
    ("mrnet.cli", "_cmd_train", "cli.train"),
    ("mrnet.cli", "_cmd_evaluate", "cli.evaluate"),
    ("mrnet.cli", "_cmd_simulate", "cli.simulate"),
)


def _slots(bound, result):
    return result.n_evaluated


def _candidates(bound, result):
    shape = bound.arguments["shape"]
    if bound.arguments["slot"] == "relation":
        return shape.n_relations
    return shape.n_entities


# span name -> function of (bound arguments, result) giving a work count
COUNTS = {
    "evaluation.evaluate_losses": ("evaluation.evaluate_losses.slots", _slots),
    "evaluation.rank_edge": ("evaluation.rank_edge.candidates", _candidates),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, thread)
        self.counts = defaultdict(int)
        self._count_lock = threading.Lock()  # grid workers count concurrently
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        count = COUNTS.get(name)
        signature = inspect.signature(fn) if count else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident()))
            if count:
                key, measure = count
                n = measure(signature.bind(*args, **kwargs), result)
                with self._count_lock:
                    self.counts[key] += n
            return result

        return traced

    def wrap_validity(self, fn):
        """``as_validity`` whose returned filter lookup is traced."""

        @functools.wraps(fn)
        def as_validity(truth_labels):
            lookup = fn(truth_labels)
            if lookup is truth_labels:  # already a lookup, maybe traced
                return lookup
            return self.wrap("evaluation.filter", lookup)

        return as_validity

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return dict(out)

    def covered(self, start, end, thread):
        """Seconds of [start, end] covered by top-level spans of ``thread``."""
        return sum(min(e, end) - max(s, start)
                   for _, _, s, e, parent, t in self.spans
                   if parent < 0 and t == thread and e > start and s < end)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "thread": thread})
                         + "\n")


def instrument(tracer: Tracer):
    """Install ``tracer`` on every ``TRACED`` function; return an undo."""
    import mrnet.cli  # noqa: F401 - its bindings must exist to be patched
    import mrnet.evaluation

    replace = {}
    for module, attr, name in TRACED:
        fn = getattr(sys.modules[module], attr)
        replace[id(fn)] = tracer.wrap(name, fn)
    validity = mrnet.evaluation.as_validity
    replace[id(validity)] = tracer.wrap_validity(validity)

    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "mrnet" and not mod_name.startswith("mrnet."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replace:
                setattr(module, attr, replace[id(value)])
                undo.append((setattr, module, attr, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replace:
                        value[key] = replace[id(item)]
                        undo.append((dict.__setitem__, value, key, item))

    def restore():
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)

    return restore
