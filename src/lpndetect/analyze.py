"""Property checkers: standing assumptions, strong and weak detectability,
and current-state opacity.

Strong detectability is checked on the twin net as a path question: reach
a marking, pump a covering loop, then reach a marking whose halves
disagree. Weak detectability and opacity work on the observer, the
deterministic automaton over current-marking estimates. Bounded nets (whose
state space closes within budget) get exact verdicts; unbounded nets get
sound witnesses or an inconclusive report.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .net import (
    EPSILON,
    InputError,
    LabeledPetriNet,
    Marking,
    NetError,
    successors,
)
from .explore import (
    Budget,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    ReachabilityGraph,
    SearchStats,
    Verdict,
    Witness,
    _cycle_nodes,
    build_reachability_graph,
    search_graph,
    search_pattern,
    strong_detectability_pattern,
    unobservable_cycle_pattern,
)
from .twin import build_twin


class AssumptionError(NetError):
    """A property check was invoked on a net that violates a standing
    assumption (a reachable deadlock or an infinite unobservable sequence)."""

    def __init__(self, report):
        self.report = report
        parts = []
        if report.deadlock_free.fails:
            parts.append("net has a reachable deadlock")
        if report.no_infinite_unobservable.fails:
            parts.append("net admits an infinite unobservable sequence")
        super().__init__("; ".join(parts) or "assumption violated")


@dataclass(frozen=True)
class AssumptionReport:
    deadlock_free: Verdict
    no_infinite_unobservable: Verdict

    @property
    def any_fails(self) -> bool:
        return self.deadlock_free.fails or self.no_infinite_unobservable.fails


def check_assumptions(net: LabeledPetriNet, budget: Budget) -> AssumptionReport:
    """Check deadlock-freedom and absence of infinite unobservable runs.

    Both questions are answered from one reachability graph. Both verdicts
    are exact when it closes within budget; otherwise a found violation is
    sound and the rest is inconclusive.
    """
    t0 = time.perf_counter()
    graph = build_reachability_graph(net, budget)
    every = range(len(net.transitions))
    dead = None
    for v, m in enumerate(graph.markings):
        if next(successors(net, m, every), None) is None:
            dead = v
            break
    stats = SearchStats(len(graph.markings), max(graph.depth), time.perf_counter() - t0)
    if dead is not None:
        path = _path_to(graph, dead)
        deadlock_free = Verdict(
            FAILS,
            Witness(segments=(path,), markings=(graph.markings[dead],)),
            stats,
        )
    elif graph.complete:
        deadlock_free = Verdict(HOLDS, stats=stats)
    else:
        deadlock_free = Verdict(
            INCONCLUSIVE, stats=stats, message="no deadlock found within budget"
        )

    if all(lab is not EPSILON for lab in net.labels):
        no_inf = Verdict(HOLDS, stats=SearchStats(0, 0, 0.0),
                         message="no unobservable transitions")
    else:
        no_inf = search_graph(graph, unobservable_cycle_pattern(), budget, t0)
    return AssumptionReport(deadlock_free=deadlock_free, no_infinite_unobservable=no_inf)


def _path_to(graph: ReachabilityGraph, target: int) -> tuple:
    """Shortest transition path from the initial node to target."""
    if target == graph.initial:
        return ()
    prev = {graph.initial: None}
    queue = deque([graph.initial])
    while queue:
        v = queue.popleft()
        for t, w in graph.succ[v]:
            if w not in prev:
                prev[w] = (v, t)
                if w == target:
                    queue.clear()
                    break
                queue.append(w)
    path = []
    v = target
    while prev[v] is not None:
        p, t = prev[v]
        path.append(t)
        v = p
    return tuple(reversed(path))


def _gate_assumptions(net: LabeledPetriNet, budget: Budget) -> AssumptionReport:
    report = check_assumptions(net, budget)
    if report.any_fails:
        raise AssumptionError(report)
    return report


def check_strong(g: LabeledPetriNet, budget: Budget) -> Verdict:
    """Strong detectability via the twin net.

    HOLDS: strongly detectable (proved on a closed twin state space).
    FAILS: not strongly detectable, with a pumpable three-segment witness
    over twin transitions. INCONCLUSIVE: the budget ran out first.
    A definite assumption violation raises AssumptionError.
    """
    return _check_strong(g, budget)[0]


def _check_strong(g: LabeledPetriNet, budget: Budget):
    """check_strong's (verdict, twin), so that a caller can decode the
    witness's twin transitions without building the twin again."""
    _gate_assumptions(g, budget)
    tw = build_twin(g)
    pattern = strong_detectability_pattern(len(tw.net.places))
    return search_pattern(tw.net, tw.net.initial_marking, pattern, budget), tw


# ---------------------------------------------------------------------------
# Observer (estimate automaton)
# ---------------------------------------------------------------------------


@dataclass
class Observer:
    """Deterministic automaton over current-marking estimates.

    The state reached by a word equals the set of markings consistent with
    observing that word. parent[i] is (predecessor state, symbol), used to
    recover a shortest witness word per state.
    """

    states: list  # list[frozenset[Marking]]
    edges: list  # list[(src, symbol, dst)]
    succ: dict  # (src, symbol) -> dst
    parent: list  # list[Optional[(src, symbol)]]
    initial: int = 0
    complete: bool = True

    def word_to(self, i: int) -> tuple:
        word = []
        while self.parent[i] is not None:
            p, sym = self.parent[i]
            word.append(sym)
            i = p
        return tuple(reversed(word))


class _BudgetTracker:
    def __init__(self, budget: Budget):
        self.max_states = budget.max_states
        self.markings = set()
        self.ok = True

    def admit(self, m) -> bool:
        if m in self.markings:
            return True
        if len(self.markings) >= self.max_states:
            self.ok = False
            return False
        self.markings.add(m)
        return True


def _eps_closure(net: LabeledPetriNet, markings, tracker: _BudgetTracker):
    """Closure under unobservable firings; None if the budget ran out."""
    eps = net.by_label[EPSILON]
    out = set()
    queue = deque()
    for m in markings:
        if not tracker.admit(m):
            return None
        out.add(m)
        queue.append(m)
    while queue:
        m = queue.popleft()
        for _, m2 in successors(net, m, eps):
            if m2 in out:
                continue
            if not tracker.admit(m2):
                return None
            out.add(m2)
            queue.append(m2)
    return frozenset(out)


def explore_observer(net: LabeledPetriNet, budget: Budget) -> Observer:
    """Budgeted subset construction over the net's markings.

    Every stored state is an exact estimate; complete is False when the
    exploration was truncated (by marking count, state count, or depth).
    """
    tracker = _BudgetTracker(budget)
    symbols = sorted(net.alphabet)
    init = _eps_closure(net, {net.initial_marking}, tracker)
    complete = True
    if init is None:
        # Even the initial estimate blew the budget; report an empty,
        # incomplete observer seeded with the bare initial marking.
        return Observer(
            states=[frozenset({net.initial_marking})],
            edges=[],
            succ={},
            parent=[None],
            complete=False,
        )
    states = [init]
    index = {init: 0}
    parent = [None]
    depth = [0]
    edges = []
    succ = {}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        if depth[v] >= budget.max_depth:
            complete = False
            continue
        state = states[v]
        for sym in symbols:
            targets = {
                m2 for m in state for _, m2 in successors(net, m, net.by_label[sym])
            }
            if not targets:
                continue
            closed = _eps_closure(net, targets, tracker)
            if closed is None:
                complete = False
                continue
            w = index.get(closed)
            if w is None:
                if len(states) >= budget.max_states:
                    complete = False
                    continue
                w = len(states)
                states.append(closed)
                index[closed] = w
                parent.append((v, sym))
                depth.append(depth[v] + 1)
                queue.append(w)
            edges.append((v, sym, w))
            succ[(v, sym)] = w
    return Observer(
        states=states,
        edges=edges,
        succ=succ,
        parent=parent,
        complete=complete and tracker.ok,
    )


def build_observer(net: LabeledPetriNet, budget: Optional[Budget] = None) -> Observer:
    """Complete observer of a bounded net; raises on budget exhaustion."""
    obs = explore_observer(net, budget or Budget())
    if not obs.complete:
        raise InputError(
            "observer did not close within budget (net unbounded or budget too small)"
        )
    return obs


def check_strong_oracle(g: LabeledPetriNet, budget: Optional[Budget] = None) -> bool:
    """Observer-level strong-detectability decision for bounded nets.

    True iff strongly detectable. Not strongly detectable iff some observer
    state on a nontrivial cycle can reach a state with more than one marking.
    Used to cross-validate check_strong; raises on unbounded input.
    """
    obs = build_observer(g, budget)
    n = len(obs.states)
    edge_pairs = [(v, w) for (v, _, w) in obs.edges]
    cyc = _cycle_nodes(n, edge_pairs)
    adj = [[] for _ in range(n)]
    for v, w in edge_pairs:
        adj[v].append(w)
    frontier = set(cyc)
    reach = set(cyc)
    while frontier:
        nxt = {w for v in frontier for w in adj[v]} - reach
        reach |= nxt
        frontier = nxt
    return not any(len(obs.states[v]) > 1 for v in reach)


def check_weak(g: LabeledPetriNet, budget: Budget) -> Verdict:
    """Weak detectability.

    Exact on bounded nets: weakly detectable iff the observer has a
    reachable cycle all of whose states are singleton estimates. Unbounded
    nets are reported inconclusive; the problem has no general algorithm.
    """
    t0 = time.perf_counter()
    _gate_assumptions(g, budget)
    obs = explore_observer(g, budget)
    stats = SearchStats(len(obs.states), 0, time.perf_counter() - t0)
    if not obs.complete:
        return Verdict(
            INCONCLUSIVE,
            stats=stats,
            message=(
                "observer did not close within budget; weak detectability "
                "of unbounded nets admits no general decision procedure"
            ),
        )
    outgoing = {v for (v, _, _) in obs.edges}
    if len(outgoing) != len(obs.states):
        raise RuntimeError(
            "internal error: the net is deadlock free, yet an estimate has no successor"
        )
    singles = {v for v, s in enumerate(obs.states) if len(s) == 1}
    edge_pairs = [
        (v, w) for (v, _, w) in obs.edges if v in singles and w in singles
    ]
    cyc = _cycle_nodes(len(obs.states), edge_pairs) & singles
    if cyc:
        return Verdict(HOLDS, stats=stats)
    return Verdict(
        FAILS,
        stats=stats,
        message="no reachable cycle of singleton estimates",
        universal=True,
    )


# ---------------------------------------------------------------------------
# Current-state opacity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpacityWitness:
    """An observation whose estimate consists of secret markings only."""

    word: tuple
    estimate: frozenset


def _normalize_secret(net: LabeledPetriNet, secret) -> frozenset:
    items = list(secret)
    if items and all(isinstance(x, int) for x in items):
        items = [tuple(items)]  # a single marking was passed
    out = set()
    for m in items:
        m = tuple(m)
        if len(m) != len(net.places):
            raise InputError(
                f"secret marking has {len(m)} entries, net has "
                f"{len(net.places)} places"
            )
        out.add(m)
    return frozenset(out)


def check_opacity(g: LabeledPetriNet, secret, budget: Budget) -> Verdict:
    """Current-state opacity with respect to a finite secret marking set.

    Opaque (HOLDS) iff no observation's estimate is a nonempty subset of the
    secret set. FAILS carries the violating observation and estimate. The
    check does not require the standing assumptions.
    """
    t0 = time.perf_counter()
    secret_set = _normalize_secret(g, secret)
    obs = explore_observer(g, budget)
    stats = SearchStats(len(obs.states), 0, time.perf_counter() - t0)
    for v, state in enumerate(obs.states):
        if state and state <= secret_set:
            if not obs.complete and v == 0 and len(obs.states) == 1 and not obs.edges:
                break  # degenerate truncation, the initial estimate is partial
            return Verdict(
                FAILS,
                OpacityWitness(word=obs.word_to(v), estimate=state),
                stats,
            )
    if obs.complete:
        return Verdict(HOLDS, stats=stats)
    return Verdict(
        INCONCLUSIVE,
        stats=stats,
        message="no violating estimate found within budget",
    )
