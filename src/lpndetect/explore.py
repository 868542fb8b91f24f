"""State-space machinery.

Provides the one budgeted breadth-first search, which builds reachability
graphs, Karp-Miller coverability trees, current-marking estimates and the
witness walk here and the observer in analyze; backward coverability
queries, and the two path questions the checkers ask (see PathPattern): a
covering pump followed by a mismatch, for strong detectability on the twin
net, and an unobservable covering pump, for the standing assumption. Each
question is explored once, and every witness is read off the reachability
graph; nothing is fired twice. The twin's graph is read off its net's
closed graph where the read fits the budget, firing nothing, as its
quotient by the swap of halves (see search_pattern); else search_pattern
grows the graph as its reader asks (see _graph_on_demand), a twin's by
firing the net on each half of a twin marking (twin.twin_steps). Once a
stored edge's target strictly covers its source, proving the net
unbounded (Karp & Miller 1969), the walk runs once, growing the graph as
it reaches new nodes. Else the graph is grown to its end under the
budget. When it closes the answer is decided, and a witness is read off
three breadth-first distances (see _lasso). Otherwise the walk, whose
pumps close on covering, runs under the same budget and finds a sound
witness or reports the question inconclusive. Opacity's observer reads a
graph grown on demand too.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .net import (
    EPSILON,
    FiringError,
    InputError,
    LabeledPetriNet,
    Marking,
    _check_naturals,
    fire,
    leq,
    observation,
    successors,
)
from .twin import TwinNet, half_moves, project, twin_steps

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Token count standing for "arbitrarily many" in coverability trees.
OMEGA = float("inf")


@dataclass(frozen=True)
class Budget:
    """Bounds on each breadth-first search (_explore): max_states on the
    states it stores, max_depth on the steps from its root to one. State
    and step are a marking and a fired transition in the reachability graph
    (and a node in the Karp-Miller tree); a marking and a singleton step in
    weak's root test (analyze._root_cycle); a (segment, node, pump anchor)
    and a stored edge in the witness walk (_witness_search); an estimate
    and a symbol in the observer; a (marking, position) and a fired
    transition in estimates. Not bounded: _lasso's and _girth's pump
    searches, capped only by the best total so far and by the graph, whose
    work can reach |fed| x |graph|, so stats.states can exceed max_states;
    coverable, which takes no budget; _secret_escapes and the arc-table
    certificates, linear in their tables. _singleton_cycle and _replayed
    derive their own budgets; the observer counts estimates, not the node
    ids they hold."""

    max_states: int = 100_000
    max_depth: int = 10_000

    def __post_init__(self):
        bounds = (self.max_states, self.max_depth)
        if {type(b) for b in bounds} != {int} or min(bounds) < 1:
            raise InputError("budget bounds must be >= 1")


@dataclass
class SearchStats:
    """states counts what the deciding search stored: markings, observer
    states up to the first answer where the observer stops at one, walk
    states of a witness on an open graph, or the nodes the distance searches
    of a witness on a closed graph stored (see _lasso), without those of
    its cycle bound's searches on a net graph; on a quotient (a twin graph
    read off its net's), its pairs or its and its double cover's nodes, at
    most the fired graph's count. A certified verdict searched nothing: its
    states and depth are 0. wall_time runs from the end of the assumption
    gate of check_strong and check_weak, so that of check_strong counts its
    twin build and any net graph build."""

    states: int = 0
    depth: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class Witness:
    """A replayable certificate: per-segment firing sequences plus the
    markings reached at each segment boundary."""

    segments: tuple  # tuple[tuple[str, ...], ...]
    markings: tuple  # tuple[Marking, ...], one per segment end


@dataclass(frozen=True)
class Verdict:
    """outcome is HOLDS, FAILS or INCONCLUSIVE. A failing verdict carries a
    witness, except the failure of a universal property (such as "some
    trajectory's estimates become singletons"), which has no finite
    certificate and is marked universal instead."""

    outcome: str
    witness: object = None
    stats: SearchStats = field(default_factory=SearchStats)
    message: str = ""
    universal: bool = False

    def __post_init__(self):
        if self.universal and (self.outcome != FAILS or self.witness is not None):
            raise InputError("only a failing verdict without a witness is universal")
        if self.outcome == FAILS and self.witness is None and not self.universal:
            raise InputError("a failing verdict must carry a witness")

    @property
    def holds(self):
        return self.outcome == HOLDS

    @property
    def fails(self):
        return self.outcome == FAILS


# ---------------------------------------------------------------------------
# The budgeted breadth-first search and reachability graphs
# ---------------------------------------------------------------------------


@dataclass
class Exploration:
    """A budgeted breadth-first search from one root, node 0.

    succ[v] is a tuple of (label, w) for every stored successor w of an
    expanded node v, in the order they were expanded; the first len(succ)
    stored nodes are expanded, all of them unless a goal stopped the search
    or its search is paused (see _explore_rounds). edges is succ
    flattened. parent[v] is (u, label), the BFS tree edge into v (None at
    the root), so path_to(v) is a shortest label path to v. cut holds the
    nodes that lost a successor; complete means a root was stored, every
    stored node was expanded and nothing was cut.
    """

    states: list  # index = node id
    succ: list
    parent: list
    depth: list  # BFS depth per node
    cut: set

    initial = 0  # the root's node id

    @property
    def complete(self) -> bool:
        return bool(self.states) and not self.cut and len(self.succ) == len(self.states)

    @property
    def edges(self) -> list:
        return [(v, label, w) for v, out in enumerate(self.succ) for label, w in out]

    def branch(self, v: int) -> list:
        """The node ids on the BFS tree path from the root to v."""
        path = [v]
        while self.parent[v] is not None:
            v = self.parent[v][0]
            path.append(v)
        return path[::-1]

    def path_to(self, v: int) -> tuple:
        return tuple(self.parent[w][1] for w in self.branch(v)[1:])


def _explore_rounds(root, expand, budget: Budget, goal=None):
    """The one budgeted breadth-first search of the package, resumable.

    expand(state) yields (label, successor), the successor None when it
    could not be computed within the budget; root None stores no state. A
    new state is stored if fewer than budget.max_states states are stored
    and it lies at most budget.max_depth steps deep; otherwise its source is
    cut. The search stops at the first stored state that meets goal, if
    given; stored last and in BFS order, it is the least deep to meet it.

    Yields the exploration once the root is stored, then each time its
    count of expanded states reaches the count last sent to it (next()
    sends None, which asks for none), and once more when the search ends.
    It is one object throughout, which grows when the search resumes.
    """
    if root is None:
        yield Exploration([], [], [], [], set())
        return
    states, index, succ, parent, depth = [root], {root: 0}, [], [None], [0]
    cut, max_states, max_depth = set(), budget.max_states, budget.max_depth
    exp = Exploration(states, succ, parent, depth, cut)
    found = goal is not None and goal(root)
    v, checkpoint = 0, (yield exp)
    while v < len(states) and not found:  # states are stored in BFS order: the queue
        if v == checkpoint:
            checkpoint = yield exp
        d = depth[v] + 1
        out = []
        for label, x in expand(states[v]):
            w = index.get(x)
            if w is None:
                w = len(states)
                if x is None or w >= max_states or d > max_depth:
                    cut.add(v)
                    continue
                states.append(x)
                index[x] = w
                parent.append((v, label))
                depth.append(d)
                found = goal is not None and goal(x)
            out.append((label, w))
            if found:
                break
        succ.append(tuple(out))
        v += 1
    yield exp


def _explore(root, expand, budget: Budget, goal=None) -> Exploration:
    """_explore_rounds run to the end."""
    *_, exp = _explore_rounds(root, expand, budget, goal)
    return exp


@dataclass
class ReachabilityGraph(Exploration):
    """An exploration of the markings of net, labelled by transition ids;
    net is a LabeledPetriNet or a TwinNet, fired on its halves, whose graph
    is its twin net's. A twin net's graph read off the closed graph base of
    its net, a quotient, keeps base, pairs, swaps and mirror (see
    build_reachability_graph), which a graph built by firing has not. A
    graph grown on demand (see _graph_on_demand) keeps its paused search
    in rounds until the search ends; rounds is None on a graph searched to
    its end or read off base."""

    net: object
    base: Optional["ReachabilityGraph"] = field(default=None, compare=False, repr=False)
    pairs: Optional[list] = field(default=None, compare=False, repr=False)
    swaps: Optional[dict] = field(default=None, compare=False, repr=False)
    mirror: Optional[dict] = field(default=None, compare=False, repr=False)
    rounds: object = field(default=None, compare=False, repr=False)

    @property
    def markings(self) -> list:
        return self.states

    def need(self, v: int) -> bool:
        """Whether node v is expanded, once the paused search (see
        _explore_rounds) has resumed until it is or the search ends."""
        while len(self.succ) <= v and self.rounds is not None:
            self.rounds.send(v + 1)
            if len(self.succ) == len(self.states):  # no goal: the search ended
                self.rounds = None
        return v < len(self.succ)


def _graph_on_demand(net, budget: Budget) -> ReachabilityGraph:
    """The reachability graph, grown as its reader asks: the BFS over the
    markings reachable from the initial marking, in declared transition
    order, with only its root stored. Its need(v) resumes the search until
    node v is expanded or the search ends. Node ids, successors and cuts
    are those of the whole graph built under budget, whose BFS depth
    max_depth bounds: a reader that calls need(v) before reading node v
    reads the whole graph.

    The graph of a TwinNet is that of its twin net, built without it: a
    twin marking steps by the twin's step rule (twin.twin_steps) over the
    moves that successors finds on each of its halves in the base net.
    """
    if isinstance(net, TwinNet):
        g, ids, h = net.base, net.ids, net.half
        labels, root = g.labels, tuple(g.initial_marking) * 2

        def expand(m):
            m1, m2 = m[:h], m[h:]
            left = half_moves(labels, successors(g, m1))
            right = left if m1 == m2 else half_moves(labels, successors(g, m2))
            for key, x1, x2 in twin_steps(left, right, m1, m2):
                yield ids[key], x1 + x2
    else:
        names, root = net.transitions, net.initial_marking

        def expand(m):
            for ti, m2 in successors(net, m):
                yield names[ti], m2

    rounds = _explore_rounds(root, expand, budget)
    # One graph throughout, which grows with the exploration's lists.
    return ReachabilityGraph(**vars(next(rounds)), net=net, rounds=rounds)


def build_reachability_graph(net: LabeledPetriNet, budget: Budget,
                             base: Optional[ReachabilityGraph] = None) -> ReachabilityGraph:
    """The reachability graph, built to the end of its search.

    If base, the closed graph of the net whose twin net (see
    twin.TwinNet.net) is net, is given, every reachable twin marking pairs
    two of its nodes, and the graph is the twin's quotient by the swap of
    halves: the search runs over pairs (u, v), u <= v, stepping by the
    twin's step rule (twin.twin_steps) over the edges of u and v in
    base.succ, firing nothing. Node v's pair is pairs[v], its marking that
    of u followed by that of v. A step ((a, b), w1, w2) of v is stored under
    the id of (a, b), in the order of net.transitions, to (w1, w2), swapped
    if w1 > w2, the id then in swaps[v]; mirror maps it to that of (b, a).
    The twin's graph is the double cover (_Cover), at the same depths, and
    holds every (u, u): 2·|pairs| - |base.markings| markings (see search_pattern).
    """
    if base is None:
        graph = _graph_on_demand(net, budget)
        graph.need(budget.max_states)  # no node has that id: the search runs to its end
        return graph
    g, mk, swaps, order = base.net, base.markings, defaultdict(set), iter(range(budget.max_states))
    labels, index = g.labels, g.transition_index
    every = half_moves(labels, ((ti, None) for ti in range(len(labels))))
    ids = dict(zip((key for key, _, _ in twin_steps(every, every, None, None)), net.transitions))
    moves = [half_moves(labels, ((index[t], w) for t, w in out)) for out in base.succ]

    def expand(pair):  # called once per pair, in node id order
        (u, v), node = pair, next(order)
        for key, w1, w2 in twin_steps(moves[u], moves[v], u, v):
            if w1 > w2:
                swaps[node].add(ids[key])
                w1, w2 = w2, w1
            yield ids[key], (w1, w2)

    exp = _explore((0, 0), expand, budget)
    pairs, exp.states = exp.states, [mk[u] + mk[v] for u, v in exp.states]
    return ReachabilityGraph(**vars(exp), net=net, base=base, pairs=pairs, swaps=swaps,
                             mirror={t: ids[b, a] for (a, b), t in ids.items()})


# ---------------------------------------------------------------------------
# Karp-Miller coverability tree
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class KMNode:
    """A node of the Karp-Miller tree. Nodes hash by identity, so equal
    markings on different branches stay separate nodes."""

    marking: tuple  # entries are naturals or OMEGA
    parent: Optional["KMNode"]


def build_km_tree(net: LabeledPetriNet, budget: Budget) -> Exploration:
    """Standard Karp-Miller construction, bounded by budget.

    The tree is an exploration of KMNode states, labelled by transition ids,
    node 0 the root. A node whose marking repeats an ancestor's has no
    children. Nodes lost to the budget cut their parent, as in every
    exploration; the complete tree is finite on every net.
    """
    names = net.transitions

    def expand(node):
        # A marking repeating an ancestor adds nothing below it.
        if any(anc.marking == node.marking for anc in _ancestors(node.parent)):
            return
        for ti, child in successors(net, node.marking):
            yield names[ti], KMNode(_accelerate(child, node), node)

    return _explore(KMNode(tuple(net.initial_marking), None), expand, budget)


def _ancestors(node: Optional[KMNode]):
    """node, its parent, and so on up to the root."""
    while node is not None:
        yield node
        node = node.parent


def _accelerate(marking: tuple, node: KMNode) -> tuple:
    """Replace strictly-increased coordinates over any ancestor by OMEGA."""
    changed = True
    while changed:
        changed = False
        for anc in _ancestors(node):
            a = anc.marking
            if a != marking and leq(a, marking):
                accel = tuple(OMEGA if x > y else x for x, y in zip(marking, a))
                if accel != marking:
                    marking = accel
                    changed = True
    return marking


# ---------------------------------------------------------------------------
# Coverability
# ---------------------------------------------------------------------------


def coverable(net: LabeledPetriNet, target: Marking) -> bool:
    """Whether some reachable marking dominates target componentwise.

    Backward coverability over minimal bases (Abdulla, Čerāns, Jonsson &
    Tsay, LICS 1996). The markings from which target can be covered form
    an upward-closed set, kept as the antichain of its minimal elements,
    the basis. The minimal marking from which t leads into the upward
    closure of m is pre_t + max(m - post_t, 0); t is skipped when it puts no
    token on a place where m is positive, as that pre-image is >= m. A
    place whose post is at most its pre in every transition is unfed: it
    never holds more than its initial count, so a marking above that cap is
    discarded. The search stops once the initial marking covers an
    element, and terminates on every net by Dickson's lemma. Elements are
    expanded first in, first out.
    """
    net._check_marking(target)
    target = tuple(target)
    _check_naturals(target, "target")
    m0, arcs = net.initial_marking, tuple(zip(net.pre, net.post))
    cap = tuple(
        x if all(post[i] <= pre[i] for pre, post in arcs) else OMEGA
        for i, x in enumerate(m0)
    )
    if leq(target, m0):
        return True
    if not leq(target, cap):
        return False
    basis = {target}
    queue = deque([target])
    while queue:
        m = queue.popleft()
        if m not in basis:  # a smaller element replaced it
            continue
        for pre, post in arcs:
            if not any(x and y for x, y in zip(m, post)):
                continue
            p = tuple(a + max(x - b, 0) for a, x, b in zip(pre, m, post))
            if leq(p, m0):
                return True
            if not leq(p, cap) or any(leq(b, p) for b in basis):
                continue
            basis -= {b for b in basis if leq(p, b)}
            basis.add(p)
            queue.append(p)
    return False


# ---------------------------------------------------------------------------
# The two path questions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathPattern:
    """A run alpha beta [gamma] from the initial marking.

    alpha is any firing sequence. beta is a nonempty loop whose end marking
    covers its start marking. With eps_pump the run ends after beta, which
    fires unobservable transitions only. Otherwise beta fires any
    transitions and a third segment gamma follows, any firing sequence
    ending in a twin marking whose two halves disagree.
    """

    eps_pump: bool

    @property
    def segments(self) -> int:
        return 2 if self.eps_pump else 3

    def final_ok(self, m: Marking) -> bool:
        h = len(m) // 2
        return self.eps_pump or m[:h] != m[h:]


# Strong detectability, over a twin net: reach, pump (covering, nonempty),
# then reach a marking whose two halves disagree.
STRONG = PathPattern(eps_pump=False)
# The standing assumption: reach, then a nonempty all-unobservable covering pump.
EPS_PUMP = PathPattern(eps_pump=True)


# ---------------------------------------------------------------------------
# Pattern search
# ---------------------------------------------------------------------------


def _fed_by_cycle(succ: list, barred=frozenset()) -> set:
    """Node ids reachable from a nontrivial cycle (self-loops included) of
    the edges (label, w) in succ[v] whose label is not in barred. Peels,
    in place, every node left without an in-edge, as Kahn's topological
    sort does (Kahn 1962); the nodes never peeled are those a cycle
    reaches. Nodes are 0 to len(succ) - 1: every node must be expanded,
    which a search a goal stopped or paused does not give (Exploration).
    """
    indegree = [0] * len(succ)
    for out in succ:
        for t, w in out:
            if t not in barred:
                indegree[w] += 1
    stack = [v for v, d in enumerate(indegree) if not d]
    while stack:
        for t, w in succ[stack.pop()]:
            if t not in barred:
                indegree[w] -= 1
                if not indegree[w]:
                    stack.append(w)
    return {v for v, d in enumerate(indegree) if d}


def _live(succ: list, barred=frozenset()) -> set:
    """The nodes from which the edges in succ whose labels are not in barred
    reach a cycle: one peel (_fed_by_cycle) of the reversed successor lists."""
    into = [[] for _ in succ]
    for u, out in enumerate(succ):
        for t, w in out:
            into[w].append((t, u))
    return _fed_by_cycle(into, barred)


def _barred(net, pattern: PathPattern) -> frozenset:
    """The transition ids a pump of pattern may not fire: the observable
    ones of net for the ε pump, else none."""
    if not pattern.eps_pump:
        return frozenset()
    return frozenset(t for t, lab in zip(net.transitions, net.labels) if lab is not EPSILON)


def _exact_exists(graph: ReachabilityGraph, pattern: PathPattern) -> set:
    """Decide the pattern on a complete (hence bounded) reachability graph.

    On a bounded net a covering loop cannot strictly increase the marking,
    or pumping it would reach infinitely many markings; so the pump is a
    cycle of allowed edges. The pattern holds iff some node reached from
    such a cycle passes the final test. One peel of graph.succ in place,
    skipping _barred's labels, finds those nodes: after an ε pump the
    final test always passes, and otherwise every edge is allowed.

    On a quotient (see build_reachability_graph) the answer is the twin
    graph's: the step rule maps ((a, b), x1, x2) from (u, v) to ((b, a), x2,
    x1) from (v, u) and (m0, m0) is its own mirror, so twin cycles project
    onto closed quotient walks and a quotient cycle of length L lifts to a
    twin one of length L, or 2L if it returns swapped; u != v is symmetric.

    Returns the nodes the peel keeps if the pattern holds, else the empty
    set; they hold every pump anchor (see _lasso).
    """
    fed = _fed_by_cycle(graph.succ, _barred(graph.net, pattern))
    return fed if any(_final(graph, pattern, fed)) else set()


def _final(graph: ReachabilityGraph, pattern: PathPattern, nodes):
    """Whether the marking of each of nodes passes the pattern's final test.
    On a graph read off pairs, a marking's halves are those of its pair's
    nodes, which differ iff the nodes do, so no marking is sliced."""
    if graph.pairs is None or pattern.eps_pump:
        return map(pattern.final_ok, map(graph.markings.__getitem__, nodes))
    return (u != v for u, v in map(graph.pairs.__getitem__, nodes))


def _witness_search(graph: ReachabilityGraph, pattern: PathPattern, budget: Budget, fed=None):
    """A minimal witness read off graph, firing nothing.

    On a closed graph it is _lasso's, from the nodes fed that the peel kept
    (see _exact_exists; the graph is peeled here if fed is not given).
    On an open graph it is a walk over (segment, node, pump anchor) states
    on _explore, following the stored successor lists from the initial
    node. A segment ends on the step that starts the next: (1, x) steps to
    (1, y), then to (2, y, x), anchoring the pump at x; (2, x, a) steps to
    (2, y, a), then, if the marking of x covers that of a, to (3, y, None).
    The goal is a covering (2, x, a) or, with three segments, any
    (3, x, None) whose marking passes the final test. The walk runs under
    budget; a state less than budget.max_depth deep lies less deep in the
    graph, so it lost no successor unless the graph hit budget.max_states.
    A graph grown on demand (see _graph_on_demand) grows to each node
    before the walk reads its successors.

    Returns (witness-or-None, exhausted, states stored, depth reached),
    exhausted being True iff no witness exists and the graph is closed.
    The states are walk states, or the nodes _lasso's searches stored.
    Depth counts fired transitions, so the witness has minimal total
    length; ties break on the own segment's steps first, then on
    transition order.
    """
    if graph.complete:
        return _lasso(graph, pattern, _exact_exists(graph, pattern) if fed is None else fed)
    markings, succ, need, k = graph.markings, graph.succ, graph.need, pattern.segments
    barred, final_ok = _barred(graph.net, pattern), pattern.final_ok
    covers = lambda a, x: leq(markings[a], markings[x])  # noqa: E731

    def expand(state):
        j, x, a = state
        if x >= len(succ):  # not expanded yet: grow the graph
            need(x)
        out = succ[x]
        for t, y in out:
            if not (j == 2 and t in barred):
                yield t, (j, y, a)
        if j == 1:
            for t, y in out:
                if t not in barred:
                    yield t, (2, y, x)
        elif j == 2 and k == 3 and covers(a, x):
            for t, y in out:
                yield t, (3, y, None)

    def goal(state):
        j, x, a = state
        return (j == 3 or j == 2 and covers(a, x)) and final_ok(markings[x])

    walk = _explore((1, graph.initial, None), expand, budget, goal)
    v = len(walk.states) - 1
    if not goal(walk.states[v]):
        return None, False, len(walk.states), walk.depth[v]
    # A step belongs to the segment it enters; a segment ends at its last
    # node on the run, and those after the goal's end at the goal.
    run = [walk.states[w] for w in walk.branch(v)]
    steps = tuple(zip(walk.path_to(v), run[1:]))
    ends = {j: x for j, x, _ in run}
    witness = Witness(
        segments=tuple(tuple(t for t, (j, _, _) in steps if j == i) for i in range(1, k + 1)),
        markings=tuple(markings[ends.get(i, run[-1][1])] for i in range(1, k + 1)),
    )
    return witness, False, len(walk.states), walk.depth[v]


def _lasso(graph: ReachabilityGraph, pattern: PathPattern, fed: set):
    """_witness_search on a closed graph, from three BFS distances.

    A run through pump anchor x is at least d0(x) + c(x) + dF(x) long: the
    depth of x, its shortest nonempty cycle of allowed edges (see
    _exact_exists) and its distance to a node passing the final test, 0 for
    the ε pump, from one reverse BFS. Anchors in fed are tried in order of
    d0 + dF, each cycle BFS bounded by the best total so far, ties kept;
    once one ends with no cycle, a peel of the reversed allowed edges skips
    the anchors that reach none. As the walk on open graphs steps within a
    segment before leaving it, then in transition order, the tied anchor
    taken is the one whose BFS tree path comes first, a path before its
    prefixes; beta is the first shortest cycle, and gamma the first shortest
    descent of dF.

    On a quotient, d0 and dF are the twin graph's, c is the cycle BFS's on
    the double cover (_Cover), mirrored if alpha reaches x swapped, and
    states counts quotient and cover nodes: the lifted witness has the
    twin's total length, a tie breaking on the quotient's BFS order. An
    anchor x = (u, v) whose bound min(c_net(u), c_net(v)) exceeds best - s
    is skipped, c_net being the length of the shortest nonempty cycle
    through a node of the net's graph (_girth, asked once best is finite).
    The bound is sound: each twin step moves each half along at most one
    edge of the net's graph, and one half at least, so a twin cycle of
    length L through x projects to closed walks of at most L steps through u
    and through v, one of them nonempty: L >= min(c_net(u), c_net(v)). So
    best, the ties and the witness are those without the bound, whose
    searches states leaves out.
    """
    succ, n = graph.succ, len(graph.markings)
    to_final = [0 if ok else None for ok in _final(graph, pattern, range(n))]
    queue = [] if pattern.eps_pump else [v for v in range(n) if to_final[v] == 0]
    # Only an edge out of a node that fails the final test sets a distance.
    pred = {}
    for v, out in enumerate(succ if queue else ()):
        if to_final[v] is None:
            for _, w in out:
                pred.setdefault(w, []).append(v)
    for v in queue:
        for u in pred.get(v, ()):
            if to_final[u] is None:
                to_final[u] = to_final[v] + 1
                queue.append(u)
    stored, best, tied = len(queue), math.inf, []
    barred, cover, live = _barred(graph.net, pattern), _Cover(graph), fed
    girth = _girth(graph.base.succ) if graph.pairs else None
    for s, x in sorted((graph.depth[x] + to_final[x], x) for x in fed
                       if to_final[x] is not None):
        if s >= best:
            break
        limit = best - s
        if x not in live or girth and limit < math.inf and all(
                girth(y, limit) > limit for y in graph.pairs[x]):
            continue
        pump, seen, ended = _first_cycle(cover, barred, x, limit)
        stored += seen
        if ended and live is fed:  # peel once: live becomes the nodes that reach a cycle
            live = _live(succ, barred)
        if pump is not None:
            if s + len(pump) < best:
                best, tied = s + len(pump), []
            tied.append((graph.branch(x) + [n], x, pump))
    if not tied:
        return None, True, stored, 0
    _, x, pump = min(tied)
    alpha, i = [], 0  # i: the cover node reached
    for t in graph.path_to(x):
        t, i = next(e for (label, _), e in zip(succ[i % n], cover[i]) if label == t)
        alpha.append(t)
    pump = tuple(map(graph.mirror.__getitem__, pump)) if i >= n else pump
    gamma, j = [], i
    while to_final[j % n]:
        t, j = next((t, y) for t, y in cover[j] if to_final[y % n] == to_final[j % n] - 1)
        gamma.append(t)
    k, m = pattern.segments, cover.marking(i)
    return (Witness((tuple(alpha), pump, tuple(gamma))[:k], (m, m, cover.marking(j))[:k]),
            False, stored, best)


class _Cover(dict):
    """The double cover of a graph of n nodes: cover[v + o·n] lists the
    edges of node v in orientation o as (label, cover node), in the order of
    graph.succ[v], built on first read unless it is graph.succ[v]. On a
    quotient it is the twin's graph: orientation 1 swaps a pair and labels
    an edge (t, w) graph.mirror[t], a step in graph.swaps[v] flips it, and a
    pair (u, u) has orientation 0 alone; on any other graph, the graph."""

    def __init__(self, graph: ReachabilityGraph):
        super().__init__(enumerate(graph.succ))
        self.graph, self.n = graph, len(graph.succ)
        for v in graph.swaps or ():  # its steps that swap change its edges
            del self[v]

    def __missing__(self, i):
        g, n = self.graph, self.n
        swapped, mirror, pairs = g.swaps.get(i % n, ()), g.mirror, g.pairs
        if i < n:
            self[i] = [(t, w + n * (t in swapped)) for t, w in g.succ[i]]
        else:  # a swap never reaches a pair (u, u)
            self[i] = [(mirror[t], w + n * (t not in swapped and pairs[w][0] != pairs[w][1]))
                       for t, w in g.succ[i - n]]
        return self[i]

    def marking(self, i):
        m = self.graph.markings[i % self.n]
        return m[len(m) // 2:] + m[:len(m) // 2] if i >= self.n else m


def _girth(succ: list):
    """c_net of the graph with successor lists succ, asked lazily:
    girth(u, limit) is the length of the shortest nonempty cycle through u
    if it is at most limit, else a lower bound above limit. _first_cycle's
    answer, exact or "more than limit", is kept for the later asks it
    settles."""
    known = {}  # u -> (length or lower bound, exact)

    def girth(u, limit):
        bound, exact = known.get(u, (0, False))
        if not exact and bound <= limit:
            cycle, _, ended = _first_cycle(succ, (), u, limit)
            known[u] = ((len(cycle), True) if cycle else (math.inf, True) if ended
                        else (limit + 1, False))
        return known[u][0]

    return girth


def _first_cycle(succ: list, barred, x: int, limit):
    """The labels of the first shortest nonempty cycle through x over the
    edges in succ whose labels are not in barred, or None if none is at
    most limit long; the count of nodes its BFS stored; and whether that
    BFS ended, so that there is no such cycle."""
    parent, level, d = {x: None}, [x], 0
    while level and d < limit:
        d, nxt = d + 1, []
        for u in level:
            for t, w in succ[u]:
                if t in barred:
                    continue
                if w == x:
                    labels = [t]
                    while u != x:  # a tree edge is the first allowed one into u
                        v = parent[u]
                        for s, y in succ[v]:
                            if y == u and s not in barred:
                                labels.append(s)
                                break
                        u = v
                    return tuple(labels[::-1]), len(parent), False
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        level = nxt
    return None, len(parent), not level


def replay_witness(net, pattern: PathPattern, witness: Witness) -> bool:
    """Re-fire a witness from the initial marking and check every pattern
    constraint. Over a TwinNet, each twin transition fires its left and
    right moves (see twin.project) on the halves of the marking, on the
    base net, as the twin net fires it."""
    k = pattern.segments
    if len(witness.segments) != k or len(witness.markings) != k:
        return False
    pump = witness.segments[1]
    if not pump:
        return False
    twin = isinstance(net, TwinNet)
    g = net.base if twin else net
    try:
        if pattern.eps_pump and any(observation(g, seq)
                                    for seq in (project(net, pump) if twin else (pump,))):
            return False
        halves = [tuple(g.initial_marking)] * (1 + twin)
        for seg, recorded in zip(witness.segments, witness.markings):
            for t in seg:
                halves = [m if x is None else fire(g, m, x)
                          for m, x in zip(halves, net.pair_of[t] if twin else (t,))]
            m = sum(halves, ())
            if m != recorded:
                return False
    except (FiringError, InputError, KeyError):
        return False
    return leq(witness.markings[0], witness.markings[1]) and pattern.final_ok(m)


def search_pattern(net, pattern: PathPattern, budget: Budget,
                   base: Optional[ReachabilityGraph] = None,
                   t0: Optional[float] = None) -> Verdict:
    """Search for a computation matching pattern from the initial marking
    of net, a LabeledPetriNet or a TwinNet; t0 is when the question
    started, for the wall time, now if not given.

    FAILS carries a minimal replay-checked witness. HOLDS is emitted only
    when the reachability graph closed within budget, so absence is a
    proof. Everything else is INCONCLUSIVE.

    A TwinNet's graph is read off base, a graph of its base net, if that
    closed: the quotient (build_reachability_graph) under Budget((M + b) //
    2, max_depth), M = budget.max_states and b = |base.markings|, decided if
    it closes, exactly where the twin's graph closes under budget: every
    diagonal pair (u, u) is reachable, so the twin's graph has 2p - b
    markings for p pairs; p <= (M + b) // 2 iff 2p - b <= M; and a search
    under fewer max_states stores the same ids, at the same depths, up to
    its cut. Else the graph, a TwinNet's fired on its halves (its twin
    net's), grows on demand (_graph_on_demand) a node at a time until a
    stored edge's target strictly covers its source, proving the net
    unbounded, or its search ends; search_graph then decides the closed
    graph, or walks the open one as on the whole graph built under budget.
    """
    if t0 is None:
        t0 = time.perf_counter()
    if base is not None and not isinstance(net, TwinNet):
        raise InputError("a base graph is read off only for a TwinNet")
    if base is not None and base.complete:
        cap = Budget((budget.max_states + len(base.markings)) // 2, budget.max_depth)
        graph = build_reachability_graph(net.net, cap, base)
        if graph.complete:
            return search_graph(graph, pattern, budget, t0)
    graph, v = _graph_on_demand(net, budget), 0
    markings, succ = graph.markings, graph.succ
    while graph.need(v) and not any(w != v and leq(markings[v], markings[w]) for _, w in succ[v]):
        v += 1
    return search_graph(graph, pattern, budget, t0)


def search_graph(
    graph: ReachabilityGraph, pattern: PathPattern, budget: Budget, t0: float
) -> Verdict:
    """search_pattern on graph from its initial node; t0 is when the
    question started, for the wall time. A closed graph is decided (see
    _exact_exists), and a witness read off it; an open one is walked (see
    _witness_search), growing if it grows on demand, and its answer is
    that of the walk of the whole graph built under budget."""
    fed = _exact_exists(graph, pattern) if graph.complete else None
    if fed is not None and not fed:
        stats = SearchStats(len(graph.markings), max(graph.depth), time.perf_counter() - t0)
        return Verdict(HOLDS, None, stats)
    witness, _, states, depth = _witness_search(graph, pattern, budget, fed)
    stats = SearchStats(states, depth, time.perf_counter() - t0)
    if witness is None:
        if fed:
            raise RuntimeError("internal error: no witness on a graph decided to fail")
        return Verdict(INCONCLUSIVE, stats=stats,
                       message="state space did not close within budget")
    if not replay_witness(graph.net, pattern, witness):
        raise RuntimeError("internal error: witness failed its replay check")
    return Verdict(FAILS, witness, stats)


# ---------------------------------------------------------------------------
# Current-marking estimation
# ---------------------------------------------------------------------------


def estimate(net: LabeledPetriNet, word: Sequence[str], budget: Budget):
    """Markings consistent with observing word from the initial marking.

    Returns (frozenset of markings, complete). When complete is False the
    set is a sound under-approximation. The budget bounds the explored
    (marking, position) states. Sharing only the firing kernel and the
    search loop with the observer, it is the independent reference for the
    observer in the witness replays and tests.
    """
    ests, complete = estimates(net, word, budget)
    return ests[-1], complete


def estimates(net: LabeledPetriNet, word: Sequence[str], budget: Budget):
    """estimate after each prefix of word, shortest first, from one search:
    (list of len(word) + 1 frozensets of markings, complete)."""
    for sym in word:
        if sym not in net.alphabet:
            raise InputError(f"symbol {sym!r} not in alphabet")
    word, labels, n = tuple(word), net.labels, len(word)

    def expand(state):
        m, pos = state
        for ti, m2 in successors(net, m):
            lab = labels[ti]
            if lab is EPSILON:
                yield lab, (m2, pos)
            elif pos < n and lab == word[pos]:
                yield lab, (m2, pos + 1)

    exp = _explore((net.initial_marking, 0), expand, budget)
    ests = [set() for _ in range(n + 1)]
    for m, pos in exp.states:
        ests[pos].add(m)
    return list(map(frozenset, ests)), exp.complete
