"""Property checkers: standing assumptions, strong and weak detectability,
and current-state opacity.

Strong detectability is checked on the twin net as a path question: reach
a marking, pump a covering loop, then reach a marking whose halves
disagree. Weak detectability and opacity work on the observer, the
deterministic automaton over current-marking estimates, which reads a net
graph (NetGraph): opacity's is the reachability graph grown as the
observer asks for its nodes; weak detectability's is the reachability
graph built by its assumption check, and where certificates proved both
assumptions, the observer's first goal test, on the initial estimate,
runs on a graph fired on demand before any whole graph is built. A
certificate, where one applies, decides without that search. Integer ones
on the arc tables prove `holds` without a graph: deadlock freedom from a
transition no step disables or from a token count no step lowers over
places that each enable a transition alone, the finiteness of unobservable
runs from a token count each of them lowers, and strong detectability
from the twin invariant. Unobservable exits from the secret set prove
opacity, and a closed graph whose singleton steps form no cycle refutes
weak detectability. Otherwise bounded nets (whose state space closes
within budget) get exact verdicts, and unbounded nets sound witnesses or
an inconclusive report.
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
    _growing,
    build_reachability_graph,
    estimate,
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
    graph = report.graph
    report = AssumptionReport(report.deadlock_free, report.no_infinite_unobservable, None)
    t0 = time.perf_counter()
    tw = build_twin(g)
    if _twin_invariant(tw):
        return _certified(t0, "twin invariant, as every twin transition "
                              "changes both halves equally"), tw, report
    # The twin's graph is read off a closed graph of g, kept from the gate or
    # built here unless a growing transition could prove g unbounded; else
    # the twin is fired on its halves, and its net is never built.
    if graph is None and not _growing(g):
        graph = build_reachability_graph(g, budget)
    if graph is not None and graph.complete:
        return search_pattern(tw.net, STRONG, budget, graph, t0), tw, report
    return search_pattern(tw, STRONG, budget, t0=t0), tw, report


# ---------------------------------------------------------------------------
# Observer (estimate automaton)
# ---------------------------------------------------------------------------


# The observer is an exploration whose states are the estimates reached by
# words, node 0 the estimate of the empty word, and whose labels are symbols.
Observer = Exploration


class NetGraph(dict):
    """A net's reachability graph as the observer reads it: maps a node id v
    to the tuple of its ε-successors, None if the budget cut v; rows[v]
    holds per symbol of symbols (sorted) the tuple of v's successors by it.
    markings[v] is v's marking, node 0 the initial one. A node first read
    is derived from edges(v): (node, its (transition, successor id) pairs or
    None) for v and any other node that call made known."""

    def __init__(self, net: LabeledPetriNet, markings: list, edges):
        super().__init__()
        self.markings, self.edges, self.rows = markings, edges, {}
        self.symbols = sorted(net.alphabet)
        column = {sym: i for i, sym in enumerate(self.symbols)}  # ε last
        self.column = {t: column.get(lab, len(column))
                       for t, lab in zip(net.transitions, net.labels)}

    def __missing__(self, v):
        column, rows, blank = self.column, self.rows, ((),) * (len(self.symbols) + 1)
        for u, out in self.edges(v):
            if out is None:
                self[u] = None
                continue
            row = list(blank)
            for t, w in out:
                row[column[t]] += (w,)
            self[u] = row.pop()
            rows[u] = row
        return self[v]

    @classmethod
    def read(cls, graph: ReachabilityGraph, need=None) -> "NetGraph":
        """The rows of graph, derived from graph.succ for every node expanded
        since the last read. A graph grown on demand comes with its need
        (explore._graph_on_demand), so a read grows it to the node read."""
        succ, cut, done = graph.succ, graph.cut, [0]

        def edges(v):
            if v >= len(succ):
                need(v)
            start, done[0] = done[0], len(succ)
            return ((u, None if u in cut else succ[u]) for u in range(start, len(succ)))

        return cls(graph.net, graph.markings, edges)

    @classmethod
    def fired(cls, net: LabeledPetriNet, budget: Budget) -> "NetGraph":
        """The graph fired on demand for weak's root test: a node is fired
        when first read, and a new successor becomes the next node if fewer
        than budget.max_states are stored and the run that first reached it
        fired at most budget.max_depth transitions, else the node is cut; a
        node the whole graph keeps can be cut, that run not being shortest."""
        markings, index, depth = [net.initial_marking], {net.initial_marking: 0}, [0]
        names = net.transitions

        def edges(v):
            out, d = [], depth[v] + 1
            for ti, m in successors(net, markings[v]):
                w = index.get(m)
                if w is None:
                    if len(markings) >= budget.max_states or d > budget.max_depth:
                        return [(v, None)]
                    w = index[m] = len(markings)
                    markings.append(m)
                    depth.append(d)
                out.append((names[ti], w))
            return [(v, out)]

        return cls(net, markings, edges)


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
    obs = explore_observer(NetGraph.read(graph), budget)
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
    fed = _fed_by_cycle(len(obs.states), [(v, w) for v, _, w in obs.edges])
    return not any(len(obs.states[v]) > 1 for v in fed)


def check_weak(g: LabeledPetriNet, budget: Budget) -> Verdict:
    """Weak detectability.

    Exact on bounded nets: weakly detectable iff the observer has a
    reachable cycle all of whose states are singleton estimates. Where
    certificates proved both assumptions, so that the gate built no graph,
    the observer's first goal test runs on a graph fired on demand
    (NetGraph.fired): if the initial estimate is a singleton whose
    singleton steps (_singleton_steps) reach a cycle (_root_cycle), that is
    `holds`, with stats (1, 0), bounded or not, firing only the markings
    those steps reach. That graph cuts a node by the depth of the run that
    first reached it, so it may cut a node the whole graph keeps: a miss
    sends the check on, and a cycle found past a cut for depth stands only
    if the whole graph, then built, is open. Otherwise the whole graph is
    read: the gate's, or one built here. On a closed
    graph, one peel finds the nodes from which the graph's singleton steps
    reach a cycle; if there are none, `fails` is certified without an
    observer. Otherwise the observer stops at the first singleton estimate
    of such a node. The message of `holds` names a cycle it reaches
    (_singleton_cycle). Other unbounded nets are reported inconclusive;
    the problem has no general algorithm.
    """
    return _check_weak(g, budget)[0]


def _singleton_steps(graph: NetGraph, nodes) -> dict:
    """Per node u of nodes, the (symbol, w), in symbol order, such that
    {u} -symbol-> {w} is an observer step: u is not cut, every step from u
    by the symbol leads to w, and w is not cut and has no ε-successor but
    itself, so {w} is ε-closed. On a graph expanded on demand this fires u
    and each such w."""
    singles = {u: [] for u in nodes}
    fired = [u for u in singles if graph[u] is not None]
    for sym, step in zip(graph.symbols, zip(*map(graph.rows.__getitem__, fired))):
        for u, out in zip(fired, step):
            if out and out.count(w := out[0]) == len(out):
                eps = graph[w]
                if eps is not None and eps.count(w) == len(eps):
                    singles[u].append((sym, w))
    return singles


def _live(graph: NetGraph, singles: dict) -> set:
    """The nodes from which the singleton steps singles[u] of each node u
    reach a cycle, every node a step leads to being a key: one peel of the
    reversed steps, as a node that a cycle reaches by reversed steps
    reaches it by the steps."""
    return _fed_by_cycle(len(graph.markings),
                         [(w, u) for u, out in singles.items() for _, w in out])


def _root_cycle(graph: NetGraph):
    """_singleton_cycle's cycle from node 0 if the initial estimate is the
    singleton {0} and its singleton steps reach a cycle, else None. A BFS
    from 0 lists the steps of the nodes they reach, and only those: the
    cycle is thus the one the whole graph's steps give."""
    if _eps_closure(graph, {0}) != {0}:
        return None
    singles, level = {}, {0}
    while level:
        singles.update(_singleton_steps(graph, level))
        level = {w for u in level for _, w in singles[u]} - singles.keys()
    live = _live(graph, singles)
    return _singleton_cycle(singles, live, 0) if 0 in live else None


def _singleton_cycle(singles: dict, live: set, v: int):
    """A cycle of the singleton steps singles that node v reaches: the word
    from v to a node on it, that node and the cycle's word. live holds the
    nodes from which the steps reach a cycle, v among them; the search is a
    BFS from v over the steps into live and the peel of its edges."""
    tree = _explore(v, lambda u: ((sym, w) for sym, w in singles[u] if w in live),
                    Budget(len(live), len(live)))
    fed = _fed_by_cycle(len(tree.states), [(u, w) for u, _, w in tree.edges])
    # Each fed node has an in-edge from a fed node: walk them back to a repeat.
    into = {w: (u, sym) for u, sym, w in tree.edges if u in fed}
    x, back = min(fed), []
    while x not in back:
        back.append(x)
        x = into[x][0]
    return tree.path_to(x), tree.states[x], [into[u][1] for u in back[back.index(x):][::-1]]


def _check_weak(g: LabeledPetriNet, budget: Budget):
    """check_weak's (verdict, assumption report). The root test reads a
    graph fired on demand where the gate built none; the certificate and
    the observer read the gate's graph, or else the whole graph, built
    once; a certified `fails` builds no observer. The clock starts after
    the assumption gate, as in _check_strong."""
    report = _gate_assumptions(g, budget)
    t0 = time.perf_counter()
    built = report.graph
    if built is None:
        graph = NetGraph.fired(g, budget)
        cycle = _root_cycle(graph)
        # Below max_states, a cut node may be one a closed whole graph keeps.
        if not cycle or None in graph.values() and len(graph.markings) < budget.max_states:
            built = build_reachability_graph(g, budget)
        if cycle and not (built and built.complete):
            stats = SearchStats(1, 0, time.perf_counter() - t0)
            return _cycle_holds(g, graph, (), cycle, stats), report
    graph = NetGraph.read(built)
    live = set()  # the nodes from which singleton steps reach a cycle
    if built.complete:
        singles = _singleton_steps(graph, range(len(built.markings)))
        live = _live(graph, singles)
        if not live:
            return _certified(t0, "the graph's singleton steps form no cycle "
                                  f"({sum(map(len, singles.values()))} of them, over "
                                  f"{len(singles)} markings)", FAILS), report
    obs = explore_observer(graph, budget, (lambda nodes: len(nodes) == 1
                                           and min(nodes) in live) if live else None)
    # The goal stopped the observer iff its last estimate meets it.
    last = obs.states[-1] if live and obs.states else ()
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
    if not all(obs.succ):  # over the expanded estimates
        raise RuntimeError(
            "internal error: the net is deadlock free, yet an estimate has no successor"
        )
    if cycle:
        return _cycle_holds(g, graph, obs.path_to(len(obs.states) - 1), cycle, stats), report
    return Verdict(
        FAILS,
        stats=stats,
        message="no reachable cycle of singleton estimates",
        universal=True,
    ), report


def _cycle_holds(net: LabeledPetriNet, graph: NetGraph, word: tuple, cycle,
                 stats: SearchStats) -> Verdict:
    """Weak `holds` on the cycle (prefix, x, loop) of _singleton_cycle,
    reached from the estimate after word, replayed first."""
    prefix, x, loop = cycle
    word += prefix
    _replay_singleton_cycle(net, word, graph.markings[x], loop, len(graph.markings))
    return Verdict(HOLDS, stats=stats, message=(
        f"the estimate after the word {' '.join(word) or '(empty)'} is "
        f"{{{graph.markings[x]}}}, and singleton estimates return to it under the "
        f"word {' '.join(loop)}"))


def _replay_singleton_cycle(net: LabeledPetriNet, word: tuple, m, loop: list,
                            stored: int) -> None:
    """Check, on the independent reference (explore.estimates), what weak
    `holds` names: the estimate after word is {m}, that after each longer
    prefix of word followed by loop is a singleton, and that after all of
    it is {m}. Raises RuntimeError otherwise, and where the search is cut.

    The budget is (length + 1) * stored states, for states and depth,
    stored being the count of markings the graph stored. Each state of
    the search is a (marking, position) whose marking lies in the estimate
    after that position, so the budget holds every state if each estimate
    along the run has at most stored markings: on a closed graph every
    reachable marking is stored; on a graph expanded on demand the word
    is the root test's, whose estimates, like the loop's, are singletons,
    and stored is at least 1."""
    run = word + tuple(loop)
    bound = (len(run) + 1) * stored
    ests, complete = estimates(net, run, Budget(bound, bound))
    along = ests[len(word):]
    if not (complete and along[0] == along[-1] == {m} and all(len(e) == 1 for e in along)):
        raise RuntimeError("internal error: weak detectability witness failed its replay check")


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
        if not all(isinstance(n, int) and n >= 0 for n in m):
            raise InputError(f"secret marking {m!r} must hold non-negative integers")
        out.add(m)
    return frozenset(out)


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
    `estimate` (a mismatch raises RuntimeError). The observer reads the
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
    graph = NetGraph.read(*_graph_on_demand(g, budget))
    markings = graph.markings
    obs = explore_observer(graph, budget, lambda nodes: all(
        markings[v] in secret_set for v in nodes))
    stats = SearchStats(len(obs.states), max(obs.depth, default=0), time.perf_counter() - t0)
    v = len(obs.states) - 1
    last = frozenset(map(markings.__getitem__, obs.states[v])) if obs.states else frozenset()
    if last and last <= secret_set:  # the goal stopped the search
        word = obs.path_to(v)
        # Replay on the independent reference. Every (marking, position)
        # state it stores has its marking in a stored estimate along word.
        bound = (len(word) + 1) * len(markings)
        est, complete = estimate(g, word, Budget(bound, bound))
        if not (complete and est == last and est <= secret_set):
            raise RuntimeError("internal error: opacity witness failed its replay check")
        return Verdict(FAILS, OpacityWitness(word=word, estimate=last), stats)
    if obs.complete:
        return Verdict(HOLDS, stats=stats)
    return Verdict(
        INCONCLUSIVE,
        stats=stats,
        message="no violating estimate found within budget",
    )
