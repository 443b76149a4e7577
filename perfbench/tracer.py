"""Per-layer spans, recorded by rebinding totalcolour's public functions.

The program itself is not edited: each wrapped function is replaced, in
every ``totalcolour`` module namespace that binds it, by a wrapper that
records a span (name, start, end, parent span, op id).  Spans stay in memory
and are written out when the run ends.  A name that no longer exists is
reported as absent.  No private ``_`` helper is wrapped.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# module -> function -> extra stats; each stat maps (args, result) to a number.
_graph_elements = lambda args, result: args[0].n + len(args[0].edges)  # noqa: E731
_file_bytes = lambda args, result: os.path.getsize(args[0])  # noqa: E731

LAYERS: dict[str, dict[str, dict[str, Callable[[tuple, Any], float]]]] = {
    "graph_core": {"make_graph": {}},
    "products": {"direct_product": {}, "crown_graph": {}},
    "edge_colouring": {
        "rainbow_kmm": {},
        "bipartite_delta_edge_colouring": {},
        "one_factorization": {},
        "crown_edge_colouring": {},
        "find_bipartition": {},
    },
    "constructions": {
        "knm_total_colouring": {},
        "crown_total_colouring": {},
        "kn_k2_total_colouring": {},
        "lift_bipartite": {},
        "kn_times_bipartite": {},
    },
    "colouring": {
        "verify_total": {
            "elements": _graph_elements,
            "violations": lambda args, result: len(result.violations),
        },
        "normalize_total": {},
    },
    "jsonio": {
        "load_json": {"bytes": _file_bytes},
        "save_json": {"bytes": _file_bytes},
        "graph_from_obj": {},
        "colouring_from_obj": {},
        "bundle_from_obj": {},
        "bundle_to_obj": {},
        "graph_to_obj": {},
        "oracle_result_to_obj": {},
    },
    "oracle": {
        "total_graph": {},
        "exact_chi_total": {"nodes": lambda args, result: result.nodes},
        "certify_construction": {},
    },
    "cli": {"main": {}},
}
# Rates derived from a counted stat and the function's self time.
RATES = {
    "colouring.verify_total": ("elements", "elements_per_s"),
    "oracle.exact_chi_total": ("nodes", "nodes_per_s"),
}
TRACE_STATS = ("overhead_frac", "outside_s", "wall_s")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, functions in LAYERS.items():
        for function, extras in functions.items():
            qual = f"{module}.{function}"
            names += [f"{qual}.calls", f"{qual}.self_s"]
            names += [f"{qual}.{stat}" for stat in extras]
            if qual in RATES:
                names.append(f"{qual}.{RATES[qual][1]}")
        names.append(f"{module}.errors")
    return names + [f"trace.{s}" for s in TRACE_STATS]


class Tracer:
    def __init__(self) -> None:
        # span id -> (parent id, op id, name, start, end, error type)
        self.spans: list[tuple | None] = []
        self.stats: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.op_id = -1
        self.absent: set[str] = set()
        self._undo: list[tuple[Any, str, Any]] = []

    def install(self, package: Any) -> None:
        """Rebind each wrapped name in every loaded ``totalcolour`` module."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))]
        for module, functions in LAYERS.items():
            home = sys.modules.get(f"{package.__name__}.{module}")
            for function, extras in functions.items():
                qual = f"{module}.{function}"
                original = getattr(home, function, None)
                if not callable(original):
                    self.absent.add(qual)
                    continue
                wrapper = self._wrap(qual, original, extras)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, name, value))
                            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._undo):
            setattr(mod, name, value)
        self._undo.clear()

    def _wrap(self, qual: str, fn: Callable, extras: dict) -> Callable:
        spans, stack, stats = self.spans, self.stack, self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (parent, self.op_id, qual, start, end, error)
            for stat, measure in extras.items():
                stats[f"{qual}.{stat}"] += measure(args, result)
            return result

        return wrapper

    def metrics(self, wall_s: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics; self times plus outside time sum to ``wall_s``."""
        child_s: dict[int, float] = defaultdict(float)
        top_s = 0.0
        for parent, _, _, start, end, _ in self.spans:
            if parent is None:
                top_s += end - start
            else:
                child_s[parent] += end - start
        out = {name: 0.0 for name in metric_names()}
        for sid, (_, _, qual, start, end, error) in enumerate(self.spans):
            out[f"{qual}.calls"] += 1
            out[f"{qual}.self_s"] += end - start - child_s[sid]
            if error:
                out[f"{qual.split('.')[0]}.errors"] += 1
        out.update(self.stats)
        for qual, (count, rate) in RATES.items():
            busy = out[f"{qual}.self_s"]
            out[f"{qual}.{rate}"] = out[f"{qual}.{count}"] / busy if busy else 0.0
        self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
        outside_s = wall_s - top_s
        if abs(self_total + outside_s - wall_s) > 1e-6 * max(wall_s, 1.0):
            raise RuntimeError("span self times do not add up to the traced wall time")
        out.update({"trace.overhead_frac": overhead_frac, "trace.outside_s": outside_s,
                    "trace.wall_s": wall_s})
        return out

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (parent, op, qual, start, end, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": qual,
                                     "start": start, "end": end, "error": error}) + "\n")
