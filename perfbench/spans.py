"""Span recording around calls into cographkit, installed from outside.

The traced run rebinds module attributes of the package (for example
``cographkit.decomp.search_assignments``) to timing wrappers.  Calls made
through a rebound name open a span; spans opened while another is open
become its children, so a layer's self time is its span time minus the
time of its child spans.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import importlib
import json
import time


def _search_counts(args, out) -> dict:
    return {"nodes": out.nodes, "timeouts": int(not out.completed)}


def _constraint_counts(args, out) -> dict:
    return {"constraints": len(out)}


def _merge_counts(args, out) -> dict:
    return {"merges": args[0].k - out.k}


# (module, attribute, span name, counts from (args, result)).  The same
# function is often bound under several module names; each binding gets its
# own wrapper, and a call only ever goes through one of them.
WRAPPED = (
    ("cographkit.decomp", "search_assignments", "decomp.search", _search_counts),
    ("cographkit.gadgets", "search_assignments", "decomp.search", _search_counts),
    ("cographkit.decomp", "p4_constraints", "decomp.p4_constraints", _constraint_counts),
    ("cographkit.decomp", "vizing_partition", "decomp.vizing", None),
    ("cographkit.decomp", "coarsen", "decomp.coarsen", _merge_counts),
    ("cographkit.decomp", "validate", "decomp.validate", None),
    ("cographkit.gadgets", "validate", "decomp.validate", None),
    ("cographkit.decomp", "recognize", "cotree.recognize", None),
    ("cographkit.cotree", "recognize", "cotree.recognize", None),
    ("cographkit.cli", "recognize", "cotree.recognize", None),
    ("cographkit.symbolic", "recognize", "cotree.recognize", None),
    ("cographkit.cotree", "to_newick", "cotree.newick", None),
    ("cographkit.cli", "to_newick", "cotree.newick", None),
    ("cographkit.cli", "parse_newick", "cotree.parse", None),
    ("cographkit.cli", "cotree_to_graph", "cotree.to_graph", None),
    ("cographkit.graph", "parse_edge_list", "graph.parse", None),
    ("cographkit.cli", "parse_edge_list", "graph.parse", None),
    ("cographkit.cli", "graph_from_json", "graph.parse", None),
    ("cographkit.symbolic", "check_axioms", "symbolic.check", None),
    ("cographkit.symbolic", "check_via_graphs", "symbolic.check", None),
    ("cographkit.symbolic", "build_representation", "symbolic.represent", None),
    ("cographkit.symbolic", "parse_symbolic_map", "symbolic.parse", None),
    ("cographkit.gadgets", "build_formula_graph", "gadgets.build", None),
    ("cographkit.gadgets", "literal_graph", "gadgets.build", None),
    ("cographkit.gadgets", "extended_literal_graph", "gadgets.build", None),
    ("cographkit.gadgets", "clause_gadget", "gadgets.build", None),
    ("cographkit.gadgets", "parse_formula", "gadgets.parse", None),
    ("cographkit.gadgets", "assignment_from_partition", "gadgets.translate", None),
    ("cographkit.gadgets", "partition_from_assignment", "gadgets.translate", None),
    ("cographkit.cli", "_read_text", "cli.read", None),
)


class Recorder:
    """In-memory span list.  Each span is
    ``[name, start, end, parent index, op id, counts]``; parent -1 is a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = counts
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def add(self, spans: list[list], parent: int) -> None:
        """Adopt spans recorded elsewhere (a child process) under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _, counts in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.op_id, counts])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _SpanContext:
    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec, self.name, self.idx, self.counts = rec, name, None, None

    def __enter__(self):
        if self.rec.enabled:
            self.idx = self.rec.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.idx is not None:
            self.rec.close(self.idx, self.counts)


def _wrap(rec: Recorder, fn, name: str, counter):
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        counts = None
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, out)
            return out
        finally:
            rec.close(idx, counts)

    wrapper.__wrapped__ = fn
    return wrapper


class _TimedJson:
    """Stand-in for the ``json`` module inside ``cographkit.cli`` whose
    ``dump`` (the report emit) opens a ``cli.emit`` span."""

    def __init__(self, rec: Recorder, real) -> None:
        self._real = real
        self.dump = _wrap(rec, real.dump, "cli.emit", None)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(rec: Recorder) -> list[tuple]:
    """Rebind every wrapped attribute that exists; returns the undo list.

    Attributes a later version of the package no longer has are skipped,
    so their metrics read 0 instead of the benchmark failing.
    """
    undo = []
    for mod_name, attr, span_name, counter in WRAPPED:
        obj = _resolve(mod_name)
        if obj is None or not hasattr(obj, attr):
            continue
        original = getattr(obj, attr)
        setattr(obj, attr, _wrap(rec, original, span_name, counter))
        undo.append((obj, attr, original))
    cli = _resolve("cographkit.cli")
    if cli is not None and hasattr(cli, "json"):
        undo.append((cli, "json", cli.json))
        cli.json = _TimedJson(rec, cli.json)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)


def _resolve(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for idx, (name, start, end, parent, _, counts) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals


def root_time(spans: list[list]) -> float:
    """Seconds covered by spans that have no parent."""
    return sum(end - start for _, start, end, parent, _, _ in spans if parent < 0)


def children_named(spans: list[list], child: str, parent: str) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    return sum(
        1
        for name, _, _, par, _, _ in spans
        if name == child and par >= 0 and spans[par][0] == parent
    )
