"""Property checkers: standing assumptions, strong and weak detectability,
and current-state opacity.

Strong detectability is checked on the twin net as a path question: reach
a marking, pump a covering loop, then reach a marking whose halves
disagree. Weak detectability and opacity work on the observer, the
deterministic automaton over current-marking estimates, which reads a net
graph (NetGraph): opacity's is the reachability graph grown as the
observer asks for its nodes; weak detectability's is the reachability
graph built once, after a root test over the singleton steps (_steps)
from the initial marking, and read by the observer only where those
steps reach a cycle from some node. A certificate, where one applies,
decides without that search. Integer ones on the arc tables prove `holds`
without a graph: deadlock freedom from a transition no step disables or
from a token count no step lowers over places that each enable a
transition alone, the finiteness of unobservable runs from a token count
each of them lowers, and strong detectability from the twin invariant.
Unobservable exits from the secret set prove opacity, and a closed graph
whose singleton steps form no cycle refutes weak detectability. Otherwise
bounded nets (whose state space closes within budget) get exact verdicts,
and unbounded nets sound witnesses or an inconclusive report.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import Optional

from .net import (
    EPSILON,
    FiringError,
    InputError,
    LabeledPetriNet,
    NetError,
    _check_naturals,
    enabled,
    fire_sequence,
    successors,
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
    _graph_on_demand,
    build_reachability_graph,
    estimates,
    search_graph,
    search_pattern,
)
from .twin import TwinNet, build_twin, half_moves, twin_steps


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
    # The graph the uncertified verdicts were read from, or None.
    graph: Optional[ReachabilityGraph] = field(compare=False, repr=False)

    @property
    def any_fails(self) -> bool:
        return self.deadlock_free.fails or self.no_infinite_unobservable.fails


def _forever_enabled(net: LabeledPetriNet) -> Optional[str]:
    """A transition enabled at every reachable marking, or None: one enabled
    at the initial marking whose input places no transition lowers."""
    lowered = {p for _, _, _, _, effect in net.kernel for p, d in enumerate(effect) if d < 0}
    m0 = net.initial_marking
    return next((t for t, pre in zip(net.transitions, net.pre)
                 if all(map(operator.ge, m0, pre)) and not any(pre[p] for p in lowered)), None)


def _token_live(net: LabeledPetriNet) -> bool:
    """Whether every reachable marking enables a transition: no transition
    lowers the token count, the initial marking holds a token, and every
    place is the only input place, with weight 1, of some transition. Every
    reachable marking then marks a place, and that place's transition is
    enabled."""
    alone = {i for _, i, w, rest, _ in net.kernel if w == 1 and not rest}
    return (len(alone) == len(net.places) and any(net.initial_marking)
            and all(sum(effect) >= 0 for _, _, _, _, effect in net.kernel))


def _eps_ranked(net: LabeledPetriNet) -> bool:
    """Whether every unobservable transition removes a token, so that the
    token count ranks unobservable runs and each is finite."""
    return all(sum(effect) <= -1
               for lab, (_, _, _, _, effect) in zip(net.labels, net.kernel) if lab is EPSILON)


def _twin_invariant(tw: TwinNet) -> bool:
    """Whether every twin transition changes both halves equally, so that
    every reachable twin marking has equal halves; read off the base net's
    kernel, a half that does not move changing nothing."""
    g = tw.base
    effects = half_moves(g.labels, ((ti, effect) for ti, _, _, _, effect in g.kernel))
    zero = (0,) * tw.half
    return all(e1 == e2 for _, e1, e2 in twin_steps(effects, effects, zero, zero))


def _certified(t0: float, message: str, outcome: str = HOLDS) -> Verdict:
    return Verdict(outcome, stats=SearchStats(0, 0, time.perf_counter() - t0),
                   message="certificate: " + message, universal=outcome == FAILS)


def check_assumptions(net: LabeledPetriNet, budget: Budget) -> AssumptionReport:
    """Check deadlock-freedom and absence of infinite unobservable runs.

    A question its certificate proves (a transition enabled at every
    reachable marking, or a token count no step lowers over places that
    each enable a transition alone; a token count every unobservable step
    lowers) is answered without a graph. The rest are answered from one
    reachability graph, exactly when it closes within budget; otherwise a
    found violation is sound and the rest is inconclusive.
    """
    t0 = time.perf_counter()
    live, ranked = _forever_enabled(net), _eps_ranked(net)
    # live becomes the message of the deadlock certificate that applies.
    if live:
        live = f"{live} stays enabled, as no transition lowers its input places"
    elif _token_live(net):
        live = ("every reachable marking marks a place that alone enables a "
                "transition, as no transition lowers the token count")
    graph = None if live and ranked else build_reachability_graph(net, budget)
    if ranked:
        no_inf = _certified(t0, "every unobservable transition removes a token")
    else:
        no_inf = search_graph(graph, EPS_PUMP, budget, t0)
    if live:
        return AssumptionReport(_certified(t0, live), no_inf, graph)
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
    return AssumptionReport(deadlock_free, no_inf, graph)


def _gate_assumptions(net: LabeledPetriNet, budget: Budget) -> AssumptionReport:
    report = check_assumptions(net, budget)
    if report.any_fails:
        raise AssumptionError(report)
    return report


def check_strong(g: LabeledPetriNet, budget: Budget) -> Verdict:
    """Strong detectability via the twin net.

    HOLDS: strongly detectable, proved by the twin invariant certificate
    (_twin_invariant) or, where it fails, on a closed twin state space.
    FAILS: not strongly detectable, with a pumpable three-segment witness
    over twin transitions. INCONCLUSIVE: the budget ran out first.
    A definite assumption violation raises AssumptionError.
    """
    return _check_strong(g, budget)[0]


def _check_strong(g: LabeledPetriNet, budget: Budget):
    """check_strong's (verdict, twin, assumption report), so that a caller
    can decode the witness's twin transitions and report the assumptions
    without building either again. The clock starts after the assumption
    gate."""
    report = _gate_assumptions(g, budget)
    t0 = time.perf_counter()
    tw = build_twin(g)
    if _twin_invariant(tw):
        return _certified(t0, "twin invariant, as every twin transition "
                              "changes both halves equally"), tw, report
    # The twin's graph is read off a closed graph of g, kept from the gate or
    # built here unless a transition with a nonzero effect >= 0 could prove g
    # unbounded; else the twin is fired on its halves, and its net is never built.
    graph = report.graph or (None if any(any(e) and min(e) >= 0 for *_, e in g.kernel)
                             else build_reachability_graph(g, budget))
    if graph is not None and graph.complete:
        return search_pattern(tw.net, STRONG, budget, graph, t0), tw, report
    return search_pattern(tw, STRONG, budget, t0=t0), tw, report


# ---------------------------------------------------------------------------
# Observer (estimate automaton)
# ---------------------------------------------------------------------------


# The observer is an exploration whose states are the estimates reached by
# words, node 0 the estimate of the empty word, and whose labels are symbols.
Observer = Exploration


def _columns(net: LabeledPetriNet):
    """net's sorted symbols, and per transition id its symbol's index, ε last."""
    symbols = sorted(net.alphabet)
    column = {sym: i for i, sym in enumerate(symbols)}
    return symbols, [column.get(lab, len(symbols)) for lab in net.labels]


def _split(symbols, column, out):
    """(eps, row) of the (t, w) of out: the w by ε, and per symbol by it."""
    row = [()] * (len(symbols) + 1)
    for t, w in out:
        row[column[t]] += (w,)
    return row.pop(), row


class NetGraph(dict):
    """A net's reachability graph as the observer reads it: maps a node id v
    to the tuple of its ε-successors, None if the budget cut v; rows[v]
    holds per symbol of symbols (sorted) the tuple of v's successors by it.
    markings[v] is v's marking, node 0 the initial one. A node's entries are
    derived from graph.succ on its first read, with those of every node
    expanded since the last. A graph grown on demand
    (explore._graph_on_demand) grows on a read to the node read."""

    def __init__(self, graph: ReachabilityGraph):
        super().__init__()
        self.graph, self.markings, self.rows = graph, graph.markings, {}
        self.symbols, column = _columns(graph.net)
        self.column = dict(zip(graph.net.transitions, column))

    def __missing__(self, v):
        succ, cut = self.graph.succ, self.graph.cut
        self.graph.need(v)
        for u in range(len(self), len(succ)):  # the nodes expanded since the last read
            if u in cut:
                self[u] = None
            else:
                self[u], self.rows[u] = _split(self.symbols, self.column, succ[u])
        return self[v]


def _eps_closure(eps, nodes: set) -> Optional[frozenset]:
    """The set nodes closed in place under the ε-successors eps[v], a level
    at a time; None if it meets a node v whose eps[v] is None."""
    new = nodes
    while new:
        out = list(map(eps.__getitem__, new))
        if None in out:
            return None
        new = set().union(*out)
        new -= nodes
        nodes |= new
    return frozenset(nodes)


def explore_observer(graph: NetGraph, budget: Budget, goal=None) -> Observer:
    """Budgeted subset construction over the node ids of a net graph,
    reading only the rows of the nodes its estimates hold or try.

    A set meeting a node the graph's budget cut may be partial, so it is
    never stored: it counts as a dropped successor, or leaves no state when
    it is the initial closure. Every stored state is thus an exact
    estimate. goal, if given, stops the search as in _explore.
    """
    rows = graph.rows

    def expand(state):
        for sym, targets in zip(graph.symbols, zip(*map(rows.__getitem__, state))):
            targets = set().union(*targets)
            if targets:
                yield sym, _eps_closure(graph, targets)

    return _explore(_eps_closure(graph, {0}), expand, budget, goal)


def marking_observer(graph: ReachabilityGraph, budget: Budget) -> Observer:
    """The observer over a built graph, its states mapped to markings."""
    obs = explore_observer(NetGraph(graph), budget)
    obs.states[:] = [frozenset(map(graph.markings.__getitem__, s)) for s in obs.states]
    return obs


def build_observer(net: LabeledPetriNet, budget: Optional[Budget] = None) -> Observer:
    """Complete observer of a bounded net, over markings; raises on budget
    exhaustion."""
    budget = budget or Budget()
    obs = marking_observer(build_reachability_graph(net, budget), budget)
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
    fed = _fed_by_cycle(obs.succ)
    return not any(len(obs.states[v]) > 1 for v in fed)


def check_weak(g: LabeledPetriNet, budget: Budget) -> Verdict:
    """Weak detectability: exact on bounded nets, where it holds iff the
    observer has a reachable cycle of singleton estimates, and a sound
    semi-decision on unbounded ones, for which no algorithm exists.

    Where certificates proved both assumptions, the root test
    (_root_cycle) asks whether singleton steps (_steps) reach a cycle from
    the initial estimate: a cycle is `holds`, stats (1, 0), bounded or
    not. Else the whole graph (the gate's, or built once) is read. If
    its singleton steps reach a cycle from no node, a closed graph
    certifies `fails` and an open one is inconclusive with the graph's
    stats, without an observer. Otherwise the observer stops at the first
    singleton estimate of such a node (`holds`, closed graph or not); a
    closed one that never meets one `fails`. A `holds` names the nearest
    cycle (_singleton_cycle), replayed first (_cycle_holds).
    """
    return _check_weak(g, budget)[0]


def _steps(symbols, eps, row, u) -> list:
    """The singleton steps of node u, whose ε-successors are eps (None if
    the budget cut u) and whose successors per symbol of symbols are row:
    if u is not cut and {u} is ε-closed, each (symbol, w), in symbol order,
    such that every step from u by the symbol leads to w. Whether {w} is
    ε-closed is tested at w's own steps: a node that fails it has none, so
    no cycle of steps passes through it."""
    if eps is None or eps.count(u) != len(eps):
        return []
    return [(sym, out[0]) for sym, out in zip(symbols, row)
            if out and out.count(out[0]) == len(out)]


def _live(singles: list) -> set:
    """The nodes from which the singleton steps singles[u] of each node u
    reach a cycle: one peel of the reversed steps, listed per node as the
    peel reads successor lists."""
    into = [[] for _ in singles]
    for u, out in enumerate(singles):
        for sym, w in out:
            into[w].append((sym, u))
    return _fed_by_cycle(into)


def _root_cycle(net: LabeledPetriNet, budget: Budget):
    """The root test: (tree, cycle). tree is the breadth-first search under
    budget from the initial marking over the singleton steps (_steps) of
    each marking it stores, each fired once; cycle is _singleton_cycle's
    from node 0 if those steps reach a cycle, else None. A step comes from
    all of a marking's successors, so a cycle found is real."""
    symbols, column = _columns(net)
    tree = _explore(net.initial_marking,
                    lambda m: _steps(symbols, *_split(symbols, column, successors(net, m)), m),
                    budget)
    live = _live(tree.succ)
    return tree, _singleton_cycle(tree.succ, live, 0) if 0 in live else None


def _singleton_cycle(singles: list, live: set, v: int):
    """The nearest cycle of the singleton steps singles[u] of each node u
    that node v reaches: the word from v to a node on it, that node and the
    cycle's word. live holds the nodes from which the steps reach a cycle,
    v among them; the search is a BFS from v over the steps into live, the
    peel of its successor lists and a walk back along the first in-edge of
    each kept node."""
    tree = _explore(v, lambda u: ((sym, w) for sym, w in singles[u] if w in live),
                    Budget(len(live), len(live)))
    fed = _fed_by_cycle(tree.succ)
    # Each fed node has an in-edge from a fed node: walk back to a repeat.
    into = {w: (u, sym) for u, sym, w in reversed(tree.edges) if u in fed}
    x, back = min(fed), []
    while x not in back:
        back.append(x)
        x = into[x][0]
    return tree.path_to(x), tree.states[x], [into[u][1] for u in back[back.index(x):][::-1]]


def _check_weak(g: LabeledPetriNet, budget: Budget):
    """check_weak's (verdict, assumption report). The root test runs where
    the gate built no graph, and a cycle it finds is final; the rest reads
    the gate's graph, or else the whole graph, built once. The clock starts
    after the assumption gate, as in _check_strong."""
    report = _gate_assumptions(g, budget)
    t0 = time.perf_counter()
    if report.graph is None:
        tree, cycle = _root_cycle(g, budget)
        if cycle:
            stats = SearchStats(1, 0, time.perf_counter() - t0)
            return _cycle_holds(g, tree.states, (), cycle, stats), report
    built = report.graph or build_reachability_graph(g, budget)
    graph = NetGraph(built)
    singles = [_steps(graph.symbols, graph[u], graph.rows.get(u), u)
               for u in range(len(built.markings))]
    live = _live(singles)  # the nodes from which singleton steps reach a cycle
    if not live and built.complete:
        return _certified(t0, "the graph's singleton steps form no cycle "
                              f"({sum(map(len, singles))} of them, over "
                              f"{len(singles)} markings)", FAILS), report
    if not live:
        stats = SearchStats(len(built.markings), max(built.depth), time.perf_counter() - t0)
        return Verdict(INCONCLUSIVE, stats=stats, message=(
            "no singleton steps reach a cycle on the graph the budget cut; weak "
            "detectability of unbounded nets admits no general decision procedure")), report
    obs = explore_observer(graph, budget, lambda nodes: len(nodes) == 1 and min(nodes) in live)
    # The goal stopped the observer iff its last estimate meets it.
    last = obs.states[-1] if obs.states else ()
    stop = min(last) if len(last) == 1 else None
    cycle = _singleton_cycle(singles, live, stop) if stop in live else None
    stats = SearchStats(len(obs.states), max(obs.depth, default=0), time.perf_counter() - t0)
    if not (obs.complete or cycle):
        return Verdict(
            INCONCLUSIVE,
            stats=stats,
            message=(
                "observer did not close within budget; weak detectability "
                "of unbounded nets admits no general decision procedure"
            ),
        ), report
    # Over the expanded estimates; a cut one may have lost every successor.
    if any(not out and v not in obs.cut for v, out in enumerate(obs.succ)):
        raise RuntimeError(
            "internal error: the net is deadlock free, yet an estimate has no successor"
        )
    if cycle:
        return _cycle_holds(g, graph.markings, obs.path_to(len(obs.states) - 1), cycle,
                            stats), report
    return Verdict(
        FAILS,
        stats=stats,
        message="no reachable cycle of singleton estimates",
        universal=True,
    ), report


def _cycle_holds(net: LabeledPetriNet, markings: list, word: tuple, cycle,
                 stats: SearchStats) -> Verdict:
    """Weak `holds` on the cycle (prefix, x, loop) of _singleton_cycle,
    reached from the estimate after word, node v's marking being
    markings[v]. First checks it on the independent reference (_replayed):
    the estimate after word + prefix is {markings[x]}, each one after a
    longer prefix of it followed by loop is a singleton, and the last is
    {markings[x]}; raises RuntimeError otherwise. len(markings), the count
    of markings the graph or the root test stored, bounds every estimate
    along the run: the loop's estimates are singletons, those along a word
    the observer read are states it stored, which hold only stored nodes,
    whether the graph closed or not, and those along the root test's word
    are singletons."""
    prefix, x, loop = cycle
    word += prefix
    along = _replayed(net, word + tuple(loop), len(markings))[len(word):]
    if not (along[0] == along[-1] == {markings[x]} and all(len(e) == 1 for e in along)):
        raise RuntimeError("internal error: weak detectability witness failed its replay check")
    return Verdict(HOLDS, stats=stats, message=(
        f"the estimate after the word {' '.join(word) or '(empty)'} is "
        f"{{{markings[x]}}}, and singleton estimates return to it under the "
        f"word {' '.join(loop)}"))


def _replayed(net: LabeledPetriNet, word: tuple, stored: int) -> list:
    """The estimates after each prefix of word, by explore.estimates, the
    independent reference of the witness replays; raises RuntimeError where
    its search is cut.

    The budget is (len(word) + 1) * stored states, for states and depth.
    Each state of the search is a (marking, position) whose marking lies in
    the estimate after that position, so the budget holds every state if
    each estimate along word has at most stored markings."""
    bound = (len(word) + 1) * stored
    ests, complete = estimates(net, word, Budget(bound, bound))
    if not complete:
        raise RuntimeError("internal error: a witness replay was cut by its budget")
    return ests


# ---------------------------------------------------------------------------
# Current-state opacity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpacityWitness:
    """An observation whose estimate consists of secret markings only."""

    word: tuple
    estimate: frozenset


def _normalize_secret(net: LabeledPetriNet, secret) -> frozenset:
    try:
        items = list(secret)
        if items and all(isinstance(x, int) for x in items):
            items = [items]  # a single marking was passed
        items = [tuple(m) for m in items]
    except TypeError:
        raise InputError(f"secret must be a marking or markings, not {secret!r}") from None
    for m in items:
        if len(m) != len(net.places):
            raise InputError(
                f"secret marking has {len(m)} entries, net has "
                f"{len(net.places)} places"
            )
        _check_naturals(m, "secret marking")
    return frozenset(items)


def _secret_escapes(net: LabeledPetriNet, secret_set: frozenset) -> bool:
    """Whether every secret marking reaches a non-secret marking by
    unobservable firing. Every estimate is closed under unobservable firing,
    so none is then a nonempty subset of the secret set: the net is opaque,
    bounded or not. Searches backward, within the set, from the markings
    with an unobservable step out of it; linear in |secret_set| * |T|."""
    into = {m: [] for m in secret_set}  # per secret marking its ε-predecessors in the set
    exits = set()  # the secret markings with an ε-successor outside the set
    labels = net.labels
    for m in secret_set:
        for ti, m2 in successors(net, m):
            if labels[ti] is EPSILON:
                if m2 in into:
                    into[m2].append(m)
                else:
                    exits.add(m)
    # The markings that reach an exit: exits closed under ε-predecessors.
    return len(_eps_closure(into, exits)) == len(secret_set)


def check_opacity(g: LabeledPetriNet, secret, budget: Budget) -> Verdict:
    """Current-state opacity with respect to a finite secret marking set.

    Opaque (HOLDS) iff no observation's estimate is a nonempty subset of the
    secret set. FAILS carries the violating observation and estimate; the
    observer stops at the first such estimate, so its stats count the
    observer states stored up to it, and its estimate is recomputed by
    _replayed (a mismatch raises RuntimeError). The observer reads the
    reachability graph grown on demand (explore._graph_on_demand), whose
    breadth-first search runs only as far as the last node its estimates
    hold or try. Node ids, successors and cuts are those of the whole graph
    built under budget, so the verdict and stats are those of the observer
    over the whole graph, closed or not. Where every secret marking reaches
    a non-secret one by unobservable firing (_secret_escapes), `holds` is
    certified without a graph or an observer, bounded or not. The check
    does not require the standing assumptions. A secret marking must have
    one non-negative integer per place; otherwise InputError is raised.
    """
    t0 = time.perf_counter()
    secret_set = _normalize_secret(g, secret)
    if _secret_escapes(g, secret_set):
        return _certified(t0, "every secret marking reaches a non-secret marking "
                              "by unobservable transitions")
    graph = NetGraph(_graph_on_demand(g, budget))
    markings = graph.markings
    obs = explore_observer(graph, budget, lambda nodes: all(
        markings[v] in secret_set for v in nodes))
    stats = SearchStats(len(obs.states), max(obs.depth, default=0), time.perf_counter() - t0)
    v = len(obs.states) - 1
    last = frozenset(map(markings.__getitem__, obs.states[v])) if obs.states else frozenset()
    if last and last <= secret_set:  # the goal stopped the search
        word = obs.path_to(v)
        # Each estimate along word is a stored state, of stored markings.
        est = _replayed(g, word, len(markings))[-1]
        if not (est == last and est <= secret_set):
            raise RuntimeError("internal error: opacity witness failed its replay check")
        return Verdict(FAILS, OpacityWitness(word=word, estimate=last), stats)
    if obs.complete:
        return Verdict(HOLDS, stats=stats)
    return Verdict(
        INCONCLUSIVE,
        stats=stats,
        message="no violating estimate found within budget",
    )
