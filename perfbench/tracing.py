"""Spans around calls into pintlab's modules, recorded from outside.

`Tracer.install` replaces each traced function or method with a wrapper
that records a span: (id, name, start, end, thread, parent, tag).  A
function imported by name into other pintlab modules is replaced at every
binding, so calls between modules and recursive calls (v_cycle) are
caught too.  Spans stay in memory until the run writes them out.

The parent of a span is the innermost open span of its own thread.  A
thread's outermost span takes as parent the innermost open span of the
main thread, which is how pfasst's rank threads hang under pfasst.run.
Self time is a span's duration minus the union of its children's
intervals.  A target that a later version of pintlab no longer has is
skipped, and the metrics it feeds read 0.
"""

from __future__ import annotations

import csv
import functools
import gc
import gzip
import itertools
import threading
import time
from collections import defaultdict

# (module, attribute path, span name); the tag function, where given,
# labels the span from the call's result.
TARGETS = [
    ("heat", "HeatOperator.apply", "heat.apply"),
    ("heat", "HeatOperator.diagonal", "heat.diagonal"),
    ("multigrid", "ShiftedOperator.__init__", "multigrid.shifted_operator"),
    ("multigrid", "smooth", "multigrid.smooth"),
    ("multigrid", "v_cycle", "multigrid.vcycle"),
    ("multigrid", "solve", "multigrid.solve"),
    ("transfers", "inject", "transfers.restrict"),
    ("transfers", "full_weighting", "transfers.restrict"),
    ("transfers", "interp_linear", "transfers.interp"),
    ("transfers", "interp_cubic", "transfers.interp"),
    ("quadrature", "correction_interpolation", "quadrature"),
    ("quadrature", "time_restriction", "quadrature"),
    ("sdc", "sdc_sweep", "sdc.sweep"),
    ("sdc", "residual", "sdc.residual"),
    ("hierarchy", "mlsdc_iteration", "hierarchy.iteration"),
    ("hierarchy", "burn_in", "hierarchy.burn_in"),
    ("hierarchy", "interpolate_up", "hierarchy.interpolate_up"),
    ("pfasst", "pfasst_run", "pfasst.run"),
    ("pfasst", "_BlockEngine.predictor_phase", "pfasst.rank.predictor"),
    ("pfasst", "_BlockEngine.predictor_finalize", "pfasst.rank.finalize"),
    ("pfasst", "_BlockEngine.rank_iteration", "pfasst.rank.iteration"),
    ("pfasst", "_BlockEngine.resend", "pfasst.rank.resend"),
    ("pfasst", "_SerialExchange.recv", "pfasst.wait"),
    ("pfasst", "_Channel.recv", "pfasst.wait"),
]
TAGS = {"multigrid.solve": lambda result: result.status}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def install(self, modules: dict) -> list[str]:
        """Wrap every target found in `modules` (name -> pintlab module);
        returns the targets that were not found."""
        missing = []
        for mod_name, path, span in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                missing.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(span, original, TAGS.get(span))
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing

    def _wrap(self, name, fn, tag_of):
        spans, ids, stacks = self.spans, self._ids, self._stacks
        main = self._main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            elif ident != main and stacks.get(main):
                parent = stacks[main][-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append((sid, name, start, end, ident, parent,
                          tag_of(result) if tag_of else None))
            return result
        return wrapper


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, _, parent, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-module metrics of one solve from its spans."""
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    tags = defaultdict(int)
    for sid, name, start, end, _, _, tag in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own[sid]
        if tag is not None:
            tags[f"{name}.{tag}"] += 1
    rank_s = sum(total[n] for n in total if n.startswith("pfasst.rank."))
    return {
        "heat.apply.calls": calls["heat.apply"],
        "heat.apply.s": total["heat.apply"],
        "heat.diagonal.calls": calls["heat.diagonal"],
        "multigrid.shifted_operators": calls["multigrid.shifted_operator"],
        "multigrid.smooth.calls": calls["multigrid.smooth"],
        "multigrid.smooth.self_s": self_s["multigrid.smooth"],
        "multigrid.vcycle.calls": calls["multigrid.vcycle"],
        "multigrid.vcycle.self_s": self_s["multigrid.vcycle"],
        "multigrid.solve.calls": calls["multigrid.solve"],
        "multigrid.solve.s": total["multigrid.solve"],
        "multigrid.solve.converged": tags["multigrid.solve.converged"],
        "multigrid.solve.stalled": tags["multigrid.solve.stalled"],
        "transfers.restrict.calls": calls["transfers.restrict"],
        "transfers.restrict.s": total["transfers.restrict"],
        "transfers.interp.calls": calls["transfers.interp"],
        "transfers.interp.s": total["transfers.interp"],
        "quadrature.calls": calls["quadrature"],
        "quadrature.s": total["quadrature"],
        "sdc.sweep.calls": calls["sdc.sweep"],
        "sdc.sweep.self_s": self_s["sdc.sweep"],
        "sdc.residual.s": total["sdc.residual"],
        "hierarchy.iteration.calls": calls["hierarchy.iteration"],
        "hierarchy.self_s": sum(v for n, v in self_s.items()
                                if n.startswith("hierarchy.")),
        "pfasst.run.s": total["pfasst.run"],
        "pfasst.busy_s": rank_s - total["pfasst.wait"],
        "pfasst.wait_s": total["pfasst.wait"],
        "pfasst.rank_iterations": calls["pfasst.rank.iteration"],
    }


def _nbytes(obj) -> int:
    """Bytes of the arrays an object holds: ndarrays, SciPy sparse
    matrices, SuperLU factors, and tuples or lists of these."""
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    if hasattr(obj, "L") and hasattr(obj, "U"):  # SuperLU
        return _nbytes([obj.L, obj.U, obj.perm_r, obj.perm_c])
    parts = [getattr(obj, a, None) for a in ("data", "indices", "indptr",
                                              "row", "col", "offsets")]
    return sum(int(p.nbytes) for p in parts if hasattr(p, "nbytes"))


def cache_mb(module) -> float:
    """MB computed from the array sizes held by a module's lru_caches.

    The cache's dict is reached through the garbage collector's view of
    the wrapper.  Its keys are the cached calls' arguments, so calling
    again with each key returns the held result from the cache.
    """
    total = 0
    for value in vars(module).values():
        if not hasattr(value, "cache_info"):
            continue
        for store in gc.get_referents(value):
            if not isinstance(store, dict) or store is vars(value):
                continue
            for key in list(store):
                total += _nbytes(value(*key) if isinstance(key, tuple)
                                 else value(key))
    return total / 2**20


def write_spans(path, spans: list[tuple]) -> None:
    """Spans as gzipped CSV; threads numbered in order of appearance."""
    threads: dict[int, int] = {}
    own = self_times(spans)
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        out = csv.writer(fh)
        out.writerow(["id", "name", "start", "end", "thread", "parent",
                      "self_s", "tag"])
        for sid, name, start, end, ident, parent, tag in spans:
            thread = threads.setdefault(ident, len(threads))
            out.writerow([sid, name, repr(start), repr(end), thread, parent,
                          repr(own[sid]), "" if tag is None else tag])
