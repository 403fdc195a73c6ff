"""Per-layer timing of ghw from outside: wrappers installed on module
attributes, never an edit under src/.

`install()` wraps each layer's entry point in every loaded ghw module
that binds it (code.py and oracle.py import `subspace_bases_array` by
name, cli.py imports `hierarchy_prop1`, and so on), records a span per
call and adds up totals.  Only a traced run calls it; the default runs
install nothing.  A layer whose entry point is gone is reported absent,
never as 0.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from time import perf_counter

from workloads import gaussian_binomial

TRACE_MARK = "@perfbench-trace "  # launch.py's stderr line carrying a traced CLI run


def _bases_count(args, result):
    return {"bases_bytes": result.nbytes}


def _score_count(args, result):
    return {"scored": args[1].shape[0]}


def _rank_count(args, result):
    ctx, r = args[0], args[1]
    return {"candidates": gaussian_binomial(ctx.spec.m, r, ctx.field.q)}


def _subcode_count(args, result):
    code, r = args[0], args[1]
    return {"subcodes": gaussian_binomial(code.k, r, code.field.q)}


# (module, attribute, total it feeds, counter from (args, result), misses only)
ENTRY_POINTS = (
    ("linalg", "subspace_bases_array", "bases", _bases_count, True),
    ("code", "_search_context", "context", None, False),
    ("simplicial", "member_codes", "members", None, False),
    ("simplicial", "k_space", "kspace", None, False),
    ("code", "_orthogonal_counts", "score", _score_count, False),
    ("code", "_search", "rank_search", _rank_count, False),
    ("code", "_valid_mask", "mask", None, False),
    ("code", "hierarchy_prop1", "search", None, False),
    ("code", "ghw_prop1", "search", None, False),
    ("formulas", "hierarchy_formula", "formula", None, False),
    ("oracle", "ghw_definitional", "definitional", _subcode_count, False),
    ("field", "_op_tables", "op_tables", None, True),
    ("reference", "run_reference_checks", "verify", None, False),
)

# per-layer metric -> (unit, the totals it needs)
METRICS = {
    "linalg.bases_ms": ("ms", ("bases",)),
    "linalg.bases_mb": ("MB", ("bases",)),
    "code.context_ms": ("ms", ("context",)),
    "simplicial.members_ms": ("ms", ("members",)),
    "simplicial.kspace_ms": ("ms", ("kspace",)),
    "code.score_ms": ("ms", ("score",)),
    "code.scored": ("count", ("score",)),
    "code.scored_per_s": ("1/s", ("score",)),
    "code.visited_share": ("ratio", ("score", "rank_search")),
    "code.mask_ms": ("ms", ("mask",)),
    "code.search_ms": ("ms", ("search",)),
    "formulas.formula_ms": ("ms", ("formula",)),
    "oracle.definitional_ms": ("ms", ("definitional",)),
    "oracle.subcodes": ("count", ("definitional",)),
    "oracle.subcodes_per_s": ("1/s", ("definitional",)),
    "field.op_tables_ms": ("ms", ("op_tables",)),
    "reference.verify_ms": ("ms", ("verify",)),
}


class Recorder:
    """Spans and totals of one process, kept in memory until it ends."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.spans = []  # (id, parent id or 0, layer, start s, end s)
        self.present = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer, counter, misses_only):
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            outermost = layer not in (name for _, name in stack)
            with recorder._lock:
                recorder._next_id += 1
                span_id = recorder._next_id
            parent = stack[-1][0] if stack else 0
            misses = fn.cache_info().misses if misses_only else 0
            stack.append((span_id, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            counted = outermost and (not misses_only or fn.cache_info().misses > misses)
            with recorder._lock:
                recorder.spans.append((span_id, parent, layer, start, end))
                if counted:
                    recorder.totals[layer + "_s"] += end - start
                    if counter is not None:
                        for key, value in counter(args, result).items():
                            recorder.totals[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def install() -> Recorder:
    """Wrap every entry point in every loaded ghw module that binds it."""
    recorder = Recorder()
    modules = [mod for name, mod in list(sys.modules.items()) if name == "ghw" or name.startswith("ghw.")]
    for module, attr, layer, counter, misses_only in ENTRY_POINTS:
        home = sys.modules.get(f"ghw.{module}")
        fn = getattr(home, attr, None)
        if fn is None or (misses_only and not hasattr(fn, "cache_info")):
            continue
        recorder.present.add(layer)
        wrapper = recorder.wrap(fn, layer, counter, misses_only)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)
    return recorder


def report(recorder: Recorder) -> dict:
    """What a process hands back: its totals and which layers exist."""
    return {"totals": dict(recorder.totals), "present": sorted(recorder.present)}


def layer_metrics(reports, rounds: int) -> dict:
    """Per-layer metrics per round from the reports of every traced
    process of a run.  A metric whose layer no process could wrap is
    left out."""
    totals = defaultdict(float)
    present = set()
    for rep in reports:
        present |= set(rep["present"])
        for key, value in rep["totals"].items():
            totals[key] += value
    per_round = {key: value / rounds for key, value in totals.items()}

    def ms(layer):
        return per_round.get(layer + "_s", 0.0) * 1000

    def rate(count, layer):
        seconds = per_round.get(layer + "_s", 0.0)
        return per_round.get(count, 0.0) / seconds if seconds else 0.0

    values = {
        "linalg.bases_ms": ms("bases"),
        "linalg.bases_mb": per_round.get("bases_bytes", 0.0) / 2**20,
        "code.context_ms": ms("context"),
        "simplicial.members_ms": ms("members"),
        "simplicial.kspace_ms": ms("kspace"),
        "code.score_ms": ms("score"),
        "code.scored": per_round.get("scored", 0.0),
        "code.scored_per_s": rate("scored", "score"),
        "code.visited_share": (
            totals["scored"] / totals["candidates"] if totals.get("candidates") else 0.0
        ),
        "code.mask_ms": ms("mask"),
        "code.search_ms": ms("search"),
        "formulas.formula_ms": ms("formula"),
        "oracle.definitional_ms": ms("definitional"),
        "oracle.subcodes": per_round.get("subcodes", 0.0),
        "oracle.subcodes_per_s": rate("subcodes", "definitional"),
        "field.op_tables_ms": ms("op_tables"),
        "reference.verify_ms": ms("verify"),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, needs) in METRICS.items()
        if all(layer in present for layer in needs)
    }
