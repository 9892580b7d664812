"""Spans around calls into each cliquebound layer, recorded from outside src/.

``Tracer.installed`` swaps each public function listed in ``TRACED`` for a
wrapper in every cliquebound module namespace that holds it, so calls made
inside the package (``bound_report`` calling ``kirsch_nir_sum``) are recorded
too, and puts the originals back on exit. A span is (id, parent, call, name,
start, end); spans of one CLI call share its call id, the id of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

# (module, function, span name). The span name's prefix is the layer.
TRACED = (
    ("graph", "parse_graph6", "graph.parse"),
    ("graph", "to_graph6", "graph.encode"),
    ("cliques", "vertex_clique_numbers", "cliques.profile"),
    ("cliques", "count_cliques", "cliques.count"),
    ("bounds", "localized_zykov_bound", "bounds.localized"),
    ("bounds", "is_regular_complete_multipartite", "bounds.certificate"),
    ("bounds", "edge_localized_turan_sum", "bounds.edge_sum"),
    ("bounds", "kirsch_nir_sum", "bounds.kirsch_nir"),
    ("bounds", "bound_report", "bounds.report"),
    ("simplex", "verify_nonnegativity", "simplex.nonneg"),
    ("simplex", "descend_to_clique_support", "simplex.descent"),
    ("simplex", "eval_phi", "simplex.eval_phi"),
)
ROOT_SPAN = "cli.main"
LAYERS = ("graph", "cliques", "bounds", "simplex", "cli")


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            call = self._stack[0] if self._stack else sid
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = (sid, parent, call, name, start, end)
        return traced_call

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        patched = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == "cliquebound" or key.startswith("cliquebound.")]
        try:
            for mod_name, fn_name, span in TRACED:
                original = getattr(sys.modules[f"cliquebound.{mod_name}"], fn_name)
                wrapper = self.wrap(span, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        patched.append((mod, fn_name, original))
            yield self
        finally:
            for mod, fn_name, original in patched:
                setattr(mod, fn_name, original)

    def write(self, path: Path) -> None:
        """One JSON object per span; times in ns from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0
        with path.open("w", encoding="utf-8") as f:
            for sid, parent, call, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "call": call, "name": name,
                                    "start_ns": start - origin, "end_ns": end - origin}) + "\n")


def layer_times_ms(spans) -> dict[str, float]:
    """Inclusive ms per span name (``<name>_ms``) and self ms per layer
    (``<layer>.self_ms``). Self time is a span's duration minus its children's;
    children never overlap, since one thread makes every call."""
    child_ns = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    total = defaultdict(int)
    self_ns = defaultdict(int)
    for sid, _, _, name, start, end in spans:
        total[name] += end - start
        own = end - start - child_ns[sid]
        self_ns[name.partition(".")[0]] += own
        if name == "bounds.report":
            self_ns["bounds.report"] += own
    out = {f"{span}_ms": total[span] / 1e6 for _, _, span in TRACED}
    out["bounds.report_self_ms"] = self_ns["bounds.report"] / 1e6
    out.update({f"{layer}.self_ms": self_ns[layer] / 1e6 for layer in LAYERS})
    return out
