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
from dataclasses import dataclass, field, replace
from typing import Optional

from .net import (
    EPSILON,
    FiringError,
    InputError,
    LabeledPetriNet,
    Marking,
    NetError,
    enabled,
    fire_sequence,
)
from .explore import (
    Budget,
    EPS_PUMP,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    STRONG,
    Exploration,
    ReachabilityGraph,
    SearchStats,
    Verdict,
    Witness,
    _explore,
    _fed_by_cycle,
    build_reachability_graph,
    search_graph,
    search_pattern,
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
    # The graph both verdicts were read from, or None where no checker reads it.
    graph: Optional[ReachabilityGraph] = field(compare=False, repr=False)

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
    # Every stored node was expanded: one without a stored successor is dead
    # unless the budget cut its successors.
    dead = next(
        (v for v, out in enumerate(graph.succ) if not out and v not in graph.cut), None
    )
    stats = SearchStats(len(graph.markings), max(graph.depth), time.perf_counter() - t0)
    if dead is not None:
        path, m = graph.path_to(dead), graph.markings[dead]
        # Replay on the checked reference: path fires to m, where nothing is enabled.
        try:
            replayed = fire_sequence(net, net.initial_marking, path) == m
        except FiringError:
            replayed = False
        if not replayed or any(enabled(net, m, t) for t in net.transitions):
            raise RuntimeError("internal error: deadlock witness failed its replay check")
        deadlock_free = Verdict(FAILS, Witness(segments=(path,), markings=(m,)), stats)
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
        no_inf = search_graph(graph, EPS_PUMP, budget, t0)
    return AssumptionReport(deadlock_free, no_inf, graph)


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
    """check_strong's (verdict, twin, assumption report), so that a caller
    can decode the witness's twin transitions and report the assumptions
    without building either again."""
    # The twin search does not read the net's graph, so it is not kept alive.
    report = replace(_gate_assumptions(g, budget), graph=None)
    tw = build_twin(g)
    return search_pattern(tw.net, STRONG, budget), tw, report


# ---------------------------------------------------------------------------
# Observer (estimate automaton)
# ---------------------------------------------------------------------------


# The observer is an exploration whose states are the estimates reached by
# words, node 0 the estimate of the empty word, and whose labels are symbols.
Observer = Exploration


def _eps_closure(eps: list, cut: set, nodes) -> Optional[frozenset]:
    """nodes closed under the ε-successor lists eps; None if it meets a cut node."""
    seen, stack = set(nodes), list(nodes)
    while stack:
        v = stack.pop()
        if v in cut:
            return None
        for w in eps[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def explore_observer(graph: ReachabilityGraph, budget: Budget, goal=None) -> Observer:
    """Budgeted subset construction over the nodes of a reachability graph.

    Nothing is fired: symbol steps and ε-closures are read off graph.succ.
    A set holding a node the graph's budget cut may be partial, so it is
    never stored: it counts as a dropped successor, or leaves no state when
    it is the initial closure. Every stored state is thus an exact estimate,
    mapped to its markings at the end; the observer closes only if the graph
    closed, within budget.max_depth firings. goal, if given, stops the
    search as in _explore; it is tested on each stored estimate.
    """
    net, cut, n = graph.net, graph.cut, len(graph.succ)
    eps = [[] for _ in range(n)]  # per node: its ε-successors
    steps = {sym: [()] * n for sym in sorted(net.alphabet)}  # per symbol, per node
    for v, out in enumerate(graph.succ):
        for t, w in out:
            if net.is_observable(t):
                steps[net.label(t)][v] += (w,)
            else:
                eps[v].append(w)

    def expand(state):
        for sym, step in steps.items():
            targets = set().union(*map(step.__getitem__, state))
            if targets:
                yield sym, _eps_closure(eps, cut, targets)

    def markings(nodes):
        return frozenset(map(graph.markings.__getitem__, nodes))

    found = None if goal is None else (lambda nodes: goal(markings(nodes)))
    obs = _explore(_eps_closure(eps, cut, [graph.initial]), expand, budget, found)
    return replace(obs, states=list(map(markings, obs.states)))


def build_observer(net: LabeledPetriNet, budget: Optional[Budget] = None) -> Observer:
    """Complete observer of a bounded net; raises on budget exhaustion."""
    budget = budget or Budget()
    obs = explore_observer(build_reachability_graph(net, budget), budget)
    if not obs.complete:
        raise InputError(
            "observer did not close within budget (net unbounded or budget too small)"
        )
    return obs


def check_strong_oracle(g: LabeledPetriNet, budget: Optional[Budget] = None) -> bool:
    """Observer-level strong-detectability decision for bounded nets.

    True iff strongly detectable. Not strongly detectable iff some observer
    state reached from a nontrivial cycle holds more than one marking.
    Used to cross-validate check_strong; raises on unbounded input.
    """
    obs = build_observer(g, budget)
    fed = _fed_by_cycle(len(obs.states), [(v, w) for v, _, w in obs.edges])
    return not any(len(obs.states[v]) > 1 for v in fed)


def check_weak(g: LabeledPetriNet, budget: Budget) -> Verdict:
    """Weak detectability.

    Exact on bounded nets: weakly detectable iff the observer has a
    reachable cycle all of whose states are singleton estimates. Unbounded
    nets are reported inconclusive; the problem has no general algorithm.
    """
    return _check_weak(g, budget)[0]


def _check_weak(g: LabeledPetriNet, budget: Budget):
    """check_weak's (verdict, assumption report); the observer reuses the gate's graph."""
    t0 = time.perf_counter()
    report = _gate_assumptions(g, budget)
    obs = explore_observer(report.graph, budget)
    stats = SearchStats(len(obs.states), max(obs.depth, default=0), time.perf_counter() - t0)
    if not obs.complete:
        return Verdict(
            INCONCLUSIVE,
            stats=stats,
            message=(
                "observer did not close within budget; weak detectability "
                "of unbounded nets admits no general decision procedure"
            ),
        ), report
    if not all(obs.succ):
        raise RuntimeError(
            "internal error: the net is deadlock free, yet an estimate has no successor"
        )
    singles = {v for v, s in enumerate(obs.states) if len(s) == 1}
    edge_pairs = [(v, w) for v in singles for _, w in obs.succ[v] if w in singles]
    if _fed_by_cycle(len(obs.states), edge_pairs):
        return Verdict(HOLDS, stats=stats), report
    return Verdict(
        FAILS,
        stats=stats,
        message="no reachable cycle of singleton estimates",
        universal=True,
    ), report


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
    secret set. FAILS carries the violating observation and estimate; the
    observer stops at the first such estimate, so its stats count the
    observer states stored up to it. The check does not require the
    standing assumptions.
    """
    t0 = time.perf_counter()
    secret_set = _normalize_secret(g, secret)

    def goal(est):
        return bool(est) and est <= secret_set

    obs = explore_observer(build_reachability_graph(g, budget), budget, goal)
    stats = SearchStats(len(obs.states), max(obs.depth, default=0), time.perf_counter() - t0)
    v = len(obs.states) - 1
    if obs.states and goal(obs.states[v]):  # the goal stopped the search
        return Verdict(
            FAILS,
            OpacityWitness(word=obs.path_to(v), estimate=obs.states[v]),
            stats,
        )
    if obs.complete:
        return Verdict(HOLDS, stats=stats)
    return Verdict(
        INCONCLUSIVE,
        stats=stats,
        message="no violating estimate found within budget",
    )
