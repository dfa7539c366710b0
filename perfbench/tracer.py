"""Spans around the public functions of each sgmc layer, placed from outside.

``Tracer.install`` replaces every public function listed in ``TRACED`` by a
wrapper, in each sgmc module that holds a reference to it, so calls made
inside the package are seen too.  Nothing in the package changes on disk.
Each span records its item id, name, parent span, start and end, in CPU
seconds of the thread like the item times; counters are read from returned
objects and their cost is kept out of every span's self time.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYERS = (
    "semigroup",
    "expansions",
    "loopkleene",
    "algebra",
    "pipeline",
    "mixing",
    "markov",
    "cli",
)


def _count_loop_vertices(lg):
    total = len(lg.spine)
    stack = list(lg.spine)
    while stack:
        vertex = stack.pop()
        for loop in vertex.loops:
            total += len(loop.inner)
            stack.extend(loop.inner)
    return total


def _count_generate(c, s):
    c["semigroup.elements"] += s.size()


def _count_kr(c, g):
    c["expansions.kr_vertices"] += g.n_vertices()


def _count_mc(c, out):
    mc, _tree = out
    c["expansions.mc_vertices"] += mc.n_vertices()
    c["expansions.mc_edges"] += len(mc.edges)


def _count_simple_paths(c, _out):
    c["expansions.simple_path_edges_calls"] += 1


def _count_pict(c, lg):
    c["loopkleene.pict_calls"] += 1
    c["loopkleene.loop_vertices"] += _count_loop_vertices(lg)


def _count_expression(c, expr):
    c["loopkleene.expr_chars"] += len(str(expr))


def _count_psi(c, rf):
    c["algebra.psi_terms"] += len(rf.num.terms) + len(rf.den.terms)
    _max(c, "algebra.psi_den_terms_max", len(rf.den.terms))


def _count_limit(c, _out):
    c["algebra.limit_calls"] += 1


def _count_masses(c, result):
    for rf in result.per_element.values():
        _max(c, "algebra.mass_den_terms_max", len(rf.den.terms))
        _max(
            c,
            "algebra.mass_degree_max",
            max(rf.num.total_degree(), rf.den.total_degree()),
        )


def _count_words(c, words):
    c["loopkleene.words"] += sum(words.values())


def _max(c, key, value):
    if value > c.get(key, 0):
        c[key] = value


# (module, attribute path, span name, counter); the span name's prefix is
# the layer it is charged to.
TRACED = (
    ("semigroup", "FiniteSemigroup.generate", "semigroup.generate", _count_generate),
    ("semigroup", "FiniteSemigroup.minimal_ideal", "semigroup.minimal_ideal", None),
    ("expansions", "kr_expand", "expansions.kr_expand", _count_kr),
    ("expansions", "mc_expand", "expansions.mc_expand", _count_mc),
    ("expansions", "check_usp", "expansions.check_usp", None),
    ("expansions", "simple_path_edges", "expansions.simple_path_edges", _count_simple_paths),
    ("loopkleene", "pict", "loopkleene.pict", _count_pict),
    ("loopkleene", "algorithm1", "loopkleene.algorithm1", None),
    ("loopkleene", "algorithm2", "loopkleene.algorithm2", _count_expression),
    ("loopkleene", "kleene_to_rf", "loopkleene.kleene_to_rf", _count_psi),
    ("loopkleene", "enumerate_path_words", "loopkleene.enumerate_path_words", _count_words),
    ("loopkleene", "kleene_enumerate", "loopkleene.kleene_enumerate", _count_words),
    ("loopkleene", "flatten", "loopkleene.flatten", None),
    ("algebra", "limit_at_box_zero", "algebra.limit_at_box_zero", _count_limit),
    ("pipeline", "full_report", "pipeline.full_report", None),
    ("pipeline", "build_semigroup", "pipeline.build_semigroup", None),
    ("pipeline", "stationary", "pipeline.stationary", _count_masses),
    ("pipeline", "stationary_left_zero", "pipeline.stationary_left_zero", None),
    ("pipeline", "stationary_general", "pipeline.stationary_general", None),
    ("pipeline", "normalization_holds", "pipeline.normalization_holds", None),
    ("pipeline", "verify_oracle", "pipeline.verify_oracle", None),
    ("pipeline", "verify_language_and_series", "pipeline.verify_language_and_series", None),
    ("mixing", "mixing_report", "mixing.mixing_report", None),
    ("mixing", "tail_table", "mixing.tail_table", None),
    ("mixing", "expected_tau", "mixing.expected_tau", None),
    ("mixing", "tv_bound_check", "mixing.tv_bound_check", None),
    ("markov", "stationary_oracle", "markov.stationary_oracle", None),
    ("markov", "transition_matrix", "markov.transition_matrix", None),
    ("cli", "load_chain_file", "cli.load_chain_file", None),
)

# metric -> span names whose outermost spans it sums (inclusive time)
INCLUSIVE = {
    "semigroup.generate_s": ("semigroup.generate",),
    "semigroup.minimal_ideal_s": ("semigroup.minimal_ideal",),
    "expansions.kr_expand_s": ("expansions.kr_expand",),
    "expansions.mc_expand_s": ("expansions.mc_expand",),
    "expansions.check_usp_s": ("expansions.check_usp",),
    "expansions.simple_path_edges_s": ("expansions.simple_path_edges",),
    "loopkleene.pict_s": ("loopkleene.pict",),
    "loopkleene.kleene_s": ("loopkleene.algorithm1", "loopkleene.algorithm2"),
    "loopkleene.kleene_to_rf_s": ("loopkleene.kleene_to_rf",),
    "loopkleene.enumerate_path_words_s": ("loopkleene.enumerate_path_words",),
    "loopkleene.kleene_enumerate_s": ("loopkleene.kleene_enumerate",),
    "loopkleene.flatten_s": ("loopkleene.flatten",),
    "algebra.limit_at_box_zero_s": ("algebra.limit_at_box_zero",),
    "pipeline.stationary_s": (
        "pipeline.stationary",
        "pipeline.stationary_left_zero",
        "pipeline.stationary_general",
    ),
    "pipeline.normalization_s": ("pipeline.normalization_holds",),
    "pipeline.verify_oracle_s": ("pipeline.verify_oracle",),
    "pipeline.verify_language_s": ("pipeline.verify_language_and_series",),
    "mixing.tail_table_s": ("mixing.tail_table",),
    "mixing.expected_tau_s": ("mixing.expected_tau",),
    "mixing.tv_bound_check_s": ("mixing.tv_bound_check",),
    "markov.stationary_oracle_s": ("markov.stationary_oracle",),
    "markov.transition_matrix_s": ("markov.transition_matrix",),
    "cli.load_chain_file_s": ("cli.load_chain_file",),
}

# metric -> span names whose self time it sums
SELF = {
    "pipeline.stationary_self_s": (
        "pipeline.stationary",
        "pipeline.stationary_left_zero",
        "pipeline.stationary_general",
    ),
}

COUNTERS = (
    "semigroup.elements",
    "expansions.kr_vertices",
    "expansions.mc_vertices",
    "expansions.mc_edges",
    "expansions.simple_path_edges_calls",
    "loopkleene.pict_calls",
    "loopkleene.loop_vertices",
    "loopkleene.expr_chars",
    "loopkleene.words",
    "algebra.limit_calls",
    "algebra.psi_terms",
    "algebra.psi_den_terms_max",
    "algebra.mass_den_terms_max",
    "algebra.mass_degree_max",
)


class Tracer:
    """In-memory span recorder; one instance per worker process."""

    def __init__(self):
        # span: [item, name, parent index or None, start, end, counting cost]
        self.spans = []
        self.open = []
        self.item = "setup"
        self.counters = defaultdict(int)
        self.item_counters = {}
        self.stop_exc = None
        self.stop_spans = None

    def install(self, package):
        """Wrap every TRACED function wherever a sgmc module refers to it."""
        for module_name in LAYERS:
            importlib.import_module(f"{package.__name__}.{module_name}")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        for module_name, path, span, count in TRACED:
            owner = sys.modules[f"{package.__name__}.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(span, raw.__func__, count)))
                else:
                    setattr(cls, attr, self._wrap(span, raw, count))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(span, original, count)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)

    def _wrap(self, span, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(span, fn, count, args, kwargs)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def call(self, span, fn, count, args, kwargs):
        record = [self.item, span, self.open[-1] if self.open else None, 0.0, None, 0.0]
        self.spans.append(record)
        self.open.append(len(self.spans) - 1)
        record[3] = time.thread_time()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            record[4] = time.thread_time()
            # the innermost span a new exception leaves is where it stopped
            # the item; one that sgmc catches is replaced by the next
            if exc is not self.stop_exc:
                self.stop_exc = exc
                self.stop_spans = [self.spans[i][1] for i in self.open]
            self.open.pop()
            raise
        record[4] = time.thread_time()
        self.open.pop()
        if count is not None:
            count(self.counters, out)
            record[5] = time.thread_time() - record[4]
        return out

    def begin_item(self, item_id):
        self.item = item_id
        self.open = []
        self.counters = defaultdict(int)
        self.stop_exc = None
        self.stop_spans = None

    def end_item(self):
        """Close spans an interrupted item left open; return its counters."""
        now = time.thread_time()
        for record in self.spans:
            if record[0] == self.item and record[4] is None:
                record[4] = now
        self.open = []
        counters = dict(self.counters)
        self.item_counters[self.item] = counters
        self.item = "setup"
        self.counters = defaultdict(int)
        self.stop_exc = None
        return counters

    def span_rows(self):
        return [
            {
                "item": item,
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
                "counting_s": counting,
            }
            for item, name, parent, start, end, counting in self.spans
        ]


def layer_metrics(rows, item_counters, items):
    """Per-layer metrics from span rows and per-item counters.

    Only spans and counters of the listed items count.  Inclusive times sum
    outermost spans of a name; self time is a span's duration minus its
    children's durations and every counting cost inside it.
    """
    items = set(items)
    covered = [0.0] * len(rows)
    for row in rows:
        parent = row["parent"]
        if parent is not None:
            covered[parent] += row["end"] - row["start"] + row["counting_s"]
    metrics = {name: 0.0 for name in INCLUSIVE}
    metrics.update({name: 0.0 for name in SELF})
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    for index, row in enumerate(rows):
        ancestors = set()
        parent = row["parent"]
        while parent is not None:
            ancestors.add(rows[parent]["name"])
            parent = rows[parent]["parent"]
        if row["item"] not in items:
            continue
        duration = row["end"] - row["start"]
        own = duration - covered[index]
        layer = row["name"].split(".")[0]
        metrics[f"{layer}.self_s"] += own
        for metric, names in INCLUSIVE.items():
            if row["name"] in names and not ancestors.intersection(names):
                metrics[metric] += duration
        for metric, names in SELF.items():
            if row["name"] in names:
                metrics[metric] += own
    for name in COUNTERS:
        values = [item_counters.get(i, {}).get(name, 0) for i in items]
        metrics[name] = max(values, default=0) if name.endswith("_max") else sum(values)
    return metrics

