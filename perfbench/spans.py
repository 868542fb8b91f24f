"""Spans around the calls into each layer, installed from the benchmark.

Tracer.installed() replaces each layer function listed in LAYERS, in every
loaded lpndetect module that refers to it, by a wrapper that records a span
(name, start, end, parent) while a check is open. A layer whose function no
longer exists is recorded as absent, so its metrics read null, never 0.
After each check the spans are folded into per-pass sums: self time (the
span's duration minus the time its child spans cover), inclusive time, the
counts read from the layer's result and, with memory tracing on, the
layer's peak traced allocation above what was live when it was entered.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# (module, function, span name). The first four are the public checkers
# the benchmark calls; the others are the layers beneath them. Exact
# decision, witness search and epsilon-closure have no public entry, so
# their module-level helpers are wrapped by name.
LAYERS = (
    ("lpndetect.analyze", "check_strong", "analyze.check_strong"),
    ("lpndetect.analyze", "check_weak", "analyze.check_weak"),
    ("lpndetect.analyze", "check_opacity", "analyze.check_opacity"),
    ("lpndetect.explore", "coverable", "explore.coverable"),
    ("lpndetect.analyze", "check_assumptions", "analyze.assumptions"),
    ("lpndetect.twin", "build_twin", "twin.build"),
    ("lpndetect.explore", "search_pattern", "explore.search"),
    ("lpndetect.explore", "build_reachability_graph", "explore.reach_graph"),
    ("lpndetect.explore", "_exact_exists", "explore.decide"),
    ("lpndetect.explore", "_witness_search", "explore.witness"),
    ("lpndetect.analyze", "explore_observer", "analyze.observer"),
    ("lpndetect.analyze", "_eps_closure", "analyze.eps_closure"),
    ("lpndetect.explore", "build_km_tree", "explore.km"),
    ("lpndetect.textio", "parse_lpn", "textio.parse"),
)
ENTRIES = frozenset(name for _, _, name in LAYERS[:4])


def _count_reach_graph(tracer, args, graph):
    c = tracer.stats.counts
    c["explore.reach_graph.builds"] += 1
    c["explore.reach_graph.closed"] += bool(graph.complete)
    c["explore.reach_graph.markings"] += len(graph.markings)
    c["explore.reach_graph.edges"] += len(graph.edges)
    if any(args[0] is tw.net for tw in tracer.twins):
        c["twin.reach_markings"] += len(graph.markings)


def _count_twin(tracer, args, tw):
    tracer.twins.append(tw)


def _count_witness(tracer, args, result):
    tracer.stats.counts["explore.witness.states"] += result[2]


def _count_observer(tracer, args, obs):
    tracer.stats.counts["analyze.observer.states"] += len(obs.states)


def _count_km(tracer, args, root):
    # Walking the tree costs time, so it is done after the check closes.
    tracer.km_roots.append(root)


COUNTERS = {
    "explore.reach_graph": _count_reach_graph,
    "twin.build": _count_twin,
    "explore.witness": _count_witness,
    "analyze.observer": _count_observer,
    "explore.km": _count_km,
}


class PassStats:
    """Sums over one pass of checks (or one round of parses)."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self.check_s = 0.0


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.absent = set()
        self.uncounted = set()  # layers whose result could not be read
        self.stats = PassStats()
        self._open = False
        self._spans = []  # (name, start, end, parent index) of the open check
        self._stack = []
        self._mem = []  # per open span: [traced bytes at entry, peak seen]
        self.twins = []
        self.km_roots = []

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        patched = []
        for module, attr, name in LAYERS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "lpndetect" or mod_name.startswith("lpndetect."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in patched:
                setattr(mod, key, original)

    def new_pass(self) -> PassStats:
        """Start a fresh PassStats and return the finished one."""
        done = self.stats
        self.stats = PassStats()
        return done

    @contextlib.contextmanager
    def check(self):
        """Record the spans of one check, then fold them into the pass."""
        self._spans.clear()
        self._open = True
        try:
            yield
        finally:
            self._open = False
            self._fold()

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            idx = len(self._spans)
            parent = self._stack[-1] if self._stack else -1
            self._spans.append(None)
            self._stack.append(idx)
            if self.memory:
                self._enter_memory()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._spans[idx] = (name, start, end, parent)
                if self.memory:
                    self._exit_memory(name)
            if count is not None:
                try:
                    count(self, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.uncounted.add(name)
            return result

        return wrapper

    def _enter_memory(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, 0])

    def _exit_memory(self, name):
        start, seen = self._mem.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        mb = (peak - start) / 2**20
        self.stats.peak_mb[name] = max(self.stats.peak_mb[name], mb)

    def _fold(self):
        covered = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child_s in zip(self._spans, covered):
            self.stats.self_s[name] += end - start - child_s
            self.stats.total_s[name] += end - start
        for root in self.km_roots:
            try:
                self.stats.counts["explore.km.nodes"] += _km_size(root)
            except AttributeError:
                self.uncounted.add("explore.km")
        self._spans.clear()
        self.twins.clear()
        self.km_roots.clear()


def _km_size(root) -> int:
    size, stack = 0, [root]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(node.children)
    return size
