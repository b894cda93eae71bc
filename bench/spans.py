"""Outside-in layer trace for the benchmark's traced run.

The program has no trace of its own, so this module wraps the public name
each layer exposes and rebinds it in the module namespaces the callers
look it up in. Spans stay in memory (name, start, end, parent, check id,
outcome) and are written out once, when the run ends. ``numpy.linalg.svd``
is counted, not spanned: a span per call would cost more than the call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from slocceq import decomposition, equivalence
from slocceq.equivalence import RecoveryError
from slocceq.solver import SolveStatus

# (layer, module, attribute). triple_state_set is rebound in both modules
# because the screen imports it from decomposition at call time.
WRAPPED = (
    ("invariants", equivalence, "invariant_screen"),
    ("decomposition", equivalence, "triple_state_set"),
    ("decomposition", decomposition, "triple_state_set"),
    ("solver", equivalence, "solve_ptilde"),
    ("solver", equivalence, "solve_ptilde_single"),
    ("recovery", equivalence, "recover_local_operators"),
    ("verify", equivalence, "verify_equivalence"),
    ("equivalence", equivalence, "check_fourpartite_equiv"),
    ("equivalence", equivalence, "check_fourpartite_equiv_all_cuts"),
    ("equivalence", equivalence, "check_tripartite_equiv"),
)

LAYERS = ("invariants", "decomposition", "solver", "recovery", "verify", "equivalence")


def _outcome(layer, result):
    """Outcome label and restart count of a layer call that returned."""
    if layer == "invariants":
        return ("proof" if result is not None else "pass"), 0
    if layer == "solver":
        if result.status is SolveStatus.FOUND:
            return ("spectral" if result.restarts_used == 0 else "engine_found"), result.restarts_used
        return "exhausted", result.restarts_used
    if layer == "verify":
        return ("passed" if result[0] else "failed"), 0
    return "ok", 0


class Tracer:
    """In-memory span recorder. Each span is one row of parallel lists."""

    def __init__(self):
        self.layer, self.start, self.end = [], [], []
        self.parent, self.check, self.outcome, self.restarts = [], [], [], []
        self.svd_calls = 0
        self.check_id = -1
        self._stack = []

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            idx = len(self.layer)
            self.layer.append(layer)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.check.append(self.check_id)
            self.outcome.append("raised")
            self.restarts.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except RecoveryError:
                self.outcome[idx] = "failed"
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            self.outcome[idx], self.restarts[idx] = _outcome(layer, result)
            return result
        return traced

    def _count_svd(self, fn):
        def counted(*args, **kwargs):
            self.svd_calls += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Rebind every wrapped name for the duration of the block."""
        saved = [(module, name, getattr(module, name)) for _, module, name in WRAPPED]
        saved.append((np.linalg, "svd", np.linalg.svd))
        try:
            for layer, module, name in WRAPPED:
                setattr(module, name, self._wrap(layer, getattr(module, name)))
            np.linalg.svd = self._count_svd(np.linalg.svd)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def layer_totals(self):
        """Per layer: calls, self seconds and outcome counts, over all spans."""
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "restarts": 0,
                                      "engine_self_s": 0.0, "outcomes": defaultdict(int)})
        for idx, own in enumerate(self.self_times()):
            t = totals[self.layer[idx]]
            t["calls"] += 1
            t["self_s"] += own
            t["outcomes"][self.outcome[idx]] += 1
            if self.layer[idx] == "solver" and self.outcome[idx] != "spectral":
                t["restarts"] += self.restarts[idx]
                t["engine_self_s"] += own
        return totals

    def top_level_seconds(self):
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path):
        fields = ("layer", "start", "end", "parent", "check", "outcome", "restarts")
        with open(path, "w") as fh:
            json.dump({f: getattr(self, f) for f in fields}, fh)
