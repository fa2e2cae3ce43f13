"""In-memory spans around todalab's public functions, installed from outside.

``Tracer.install()`` rebinds each traced function in every loaded
``todalab`` module that holds it (``from .x import f`` makes copies of the
binding), wraps the ``WeylGroup`` methods, ``cli.json`` and
``verify.CHECKS``; ``uninstall()`` puts the originals back, so untraced
rounds run the unmodified program.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> per-layer metric taking the span's self time
SPAN_METRICS = {
    "cli.main": "cli.main_self_s",
    "cli.json_dumps": "cli.json_dumps_s",
    "weyl.generate": "weyl.generate_s",
    "weyl.refuse": "weyl.refuse_s",
    "weyl.reflections": "weyl.reflections_s",
    "weyl.bruhat_covers": "weyl.bruhat_covers_s",
    "signflow.eta_table": "signflow.eta_table_s",
    "blowup_poly.p_epsilon": "blowup_poly.p_epsilon_self_s",
    "blowup_poly.brute_force_so_order": "blowup_poly.brute_force_so_order_s",
    "todagraph.build_graph": "todagraph.build_graph_self_s",
    "todagraph.to_dot": "todagraph.to_dot_s",
    "todagraph.graph_to_dict": "todagraph.graph_to_dict_s",
    "todagraph.components": "todagraph.components_s",
    "todagraph.matching_report": "todagraph.matching_report_s",
    "schurtau.tau_functions": "schurtau.tau_functions_s",
    "schurtau.hirota_residual": "schurtau.hirota_residual_s",
    "schurtau.real_root_count_experiment": "schurtau.real_root_count_experiment_s",
    "affine.p_series": "affine.p_series_s",
    "numtoda.ode_integrate": "numtoda.ode_integrate_s",
    "numtoda.count_zero_crossings": "numtoda.count_zero_crossings_s",
}

# (module, function) pairs wrapped wherever a todalab module binds them
FUNCTIONS = [
    ("signflow", "eta_table"),
    ("blowup_poly", "p_epsilon"),
    ("blowup_poly", "brute_force_so_order"),
    ("todagraph", "build_graph"),
    ("todagraph", "to_dot"),
    ("todagraph", "graph_to_dict"),
    ("todagraph", "components"),
    ("todagraph", "matching_report"),
    ("schurtau", "tau_functions"),
    ("schurtau", "hirota_residual"),
    ("schurtau", "real_root_count_experiment"),
    ("affine", "p_series"),
    ("numtoda", "ode_integrate"),
    ("numtoda", "count_zero_crossings"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.error = parent, op, None

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "error": self.error}


class Tracer:
    """Collects spans (name, start, end, parent, operation id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; an exception is recorded and re-raised."""
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(out, args, kwargs)
            return out
        return traced

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        from todalab import cli, verify, weyl

        modules = [m for n, m in sys.modules.items()
                   if n == "todalab" or n.startswith("todalab.")]
        counters = self._counters()
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"todalab.{mod_name}"], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original, counters.get(fn_name))
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._set(mod, fn_name, wrapped)

        group_cls = weyl.WeylGroup
        generate = group_cls.__dict__["generate"].__func__
        tracer = self

        def traced_generate(cls, lie_type, *args, **kwargs):
            group = tracer.call("weyl.generate", generate, cls, lie_type, *args, **kwargs)
            tracer._count_group(group)
            return group

        reflections = group_cls.__dict__["reflections"]

        def traced_reflections(group):
            # only the first call computes; later calls return the memo and
            # would otherwise add a span per element inside bruhat_covers
            if group._reflections is not None:
                return reflections(group)
            return tracer.call("weyl.reflections", reflections, group)

        covers = group_cls.__dict__["bruhat_covers"]

        def traced_covers(group):
            out = tracer.call("weyl.bruhat_covers", covers, group)
            tracer.counts["covers"] += len(out)
            tracer.counts["cover_candidates"] += len(group) * group.num_positive
            return out

        self._set(group_cls, "generate", classmethod(traced_generate))
        self._set(group_cls, "reflections", traced_reflections)
        self._set(group_cls, "bruhat_covers", traced_covers)
        self._set(cli, "json", _JsonProxy(self))
        self._set(verify, "CHECKS", [(n, title, self._criterion(n, fn))
                                     for n, title, fn in verify.CHECKS])

    def _criterion(self, number, fn):
        def check(groups, scope):
            self.op = number
            return self.call(f"verify.criterion_{number:02d}", fn, groups, scope)
        return check

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counters ------------------------------------------------------------

    def _counters(self):
        c = self.counts

        def eta(out, args, kwargs):
            c["eta_calls"] += 1
            c["eta_elements"] += len(out.values)

        def graph(out, args, kwargs):
            c["graph_edges"] += len(out.edges)

        def dot(out, args, kwargs):
            c["dot_bytes"] += len(out)  # ASCII

        def series(out, args, kwargs):
            group = kwargs.get("group")
            c["affine_elements"] += len(group.windows) if group is not None else 0

        return {"eta_table": eta, "build_graph": graph, "to_dot": dot, "p_series": series}

    def _count_group(self, group):
        """Elements, and new elements over BFS products tried.  The BFS forms
        w * s_i once for every ascent i of w, and each s_i is an ascent of
        exactly half the group, so it tries rank * |W| / 2 products."""
        self.counts["elements"] += len(group)
        self.counts["bfs_new"] += len(group) - 1
        self.counts["bfs_tried"] += group.lie_type.rank * len(group) // 2

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Self time per layer plus counts and ratios, over all spans so far."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = defaultdict(float)
        for i, span in enumerate(self.spans):
            name = span.name
            if name == "weyl.generate" and span.error == "CapExceededError":
                name = "weyl.refuse"
            metric = SPAN_METRICS.get(name)
            if metric is not None:
                out[metric] += (span.end - span.start) - child[i]
            if name == "cli.main":
                out["cli.main_s"] += span.end - span.start
        c = self.counts
        out["weyl.generate.elements"] = c["elements"]
        out["weyl.generate.new_ratio"] = c["bfs_new"] / c["bfs_tried"] if c["bfs_tried"] else 0
        out["weyl.bruhat_covers.covers"] = c["covers"]
        out["weyl.bruhat_covers.hit_ratio"] = (c["covers"] / c["cover_candidates"]
                                               if c["cover_candidates"] else 0)
        out["signflow.eta_table.calls"] = c["eta_calls"]
        eta_s = out["signflow.eta_table_s"]
        out["signflow.eta_table.elements_per_s"] = c["eta_elements"] / eta_s if eta_s else 0
        out["todagraph.build_graph.edges"] = c["graph_edges"]
        out["todagraph.edge_ratio"] = c["graph_edges"] / c["covers"] if c["covers"] else 0
        out["todagraph.to_dot.bytes"] = c["dot_bytes"]
        out["cli.json_bytes"] = c["json_bytes"]
        out["affine.elements"] = c["affine_elements"]
        return dict(out)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``todalab.cli``."""

    def __init__(self, tracer):
        self._tracer = tracer

    def dumps(self, *args, **kwargs):
        text = self._tracer.call("cli.json_dumps", json.dumps, *args, **kwargs)
        self._tracer.counts["json_bytes"] += len(text)  # ensure_ascii
        return text

    def __getattr__(self, name):
        return getattr(json, name)
