"""State-space machinery.

Provides the one budgeted breadth-first search, which builds reachability
graphs, Karp-Miller coverability trees, current-marking estimates and the
witness walk here and the observer in analyze; backward coverability
queries, and the two path questions the checkers ask (see PathPattern): a
covering pump followed by a mismatch, for strong detectability on the twin
net, and an unobservable covering pump, for the standing assumption. Each
question is explored once, and every witness is read off the reachability
graph by a walk of its nodes; nothing is fired twice. search_pattern builds
the graph in rounds. Once a round's prefix proves the net unbounded, the
walk runs on the prefix, and a witness it finds there, or a walk that fills
the budget, is the answer. Else the graph is built under the budget. When
it closes the answer is decided and the walk is unbounded. Otherwise the
walk, whose pumps close on covering, runs under the same budget and finds
a sound witness or reports the question inconclusive.
"""

from __future__ import annotations

import operator
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .net import (
    EPSILON,
    FiringError,
    InputError,
    LabeledPetriNet,
    Marking,
    fire_sequence,
    leq,
    successors,
)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Token count standing for "arbitrarily many" in coverability trees.
OMEGA = float("inf")


@dataclass(frozen=True)
class Budget:
    max_states: int = 100_000
    max_depth: int = 10_000

    def __post_init__(self):
        if self.max_states < 1 or self.max_depth < 1:
            raise InputError("budget bounds must be >= 1")


@dataclass
class SearchStats:
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


# Expanded states at the first checkpoint of _explore_rounds; each further
# checkpoint doubles the count.
FIRST_CHECKPOINT = 64


@dataclass
class Exploration:
    """A budgeted breadth-first search from one root, node 0.

    succ[v] is a tuple of (label, w) for every stored successor w of an
    expanded node v, in the order they were expanded; the first len(succ)
    stored nodes are expanded, all of them unless a goal stopped the search
    or it is paused at a checkpoint (see _explore_rounds). edges is succ
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

    Yields the exploration each time its count of expanded states reaches
    FIRST_CHECKPOINT, twice that, and so on, while a stored state is still
    unexpanded, and once more when the search ends. It is one object
    throughout, which grows when the search resumes.
    """
    if root is None:
        yield Exploration([], [], [], [], set())
        return
    states, index, succ, parent, depth = [root], {root: 0}, [], [None], [0]
    cut, max_states, max_depth = set(), budget.max_states, budget.max_depth
    exp = Exploration(states, succ, parent, depth, cut)
    found = goal is not None and goal(root)
    v, checkpoint = 0, FIRST_CHECKPOINT
    while v < len(states) and not found:  # states are stored in BFS order: the queue
        if v == checkpoint:
            yield exp
            checkpoint *= 2
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
    """An exploration of the markings of net, labelled by transition ids."""

    net: LabeledPetriNet

    @property
    def markings(self) -> list:
        return self.states


def _graph_rounds(net: LabeledPetriNet, budget: Budget):
    """The reachability graph at each round of its search (see
    _explore_rounds): BFS over the markings reachable from the initial
    marking, in declared transition order."""
    names = net.transitions

    def expand(m):
        for ti, m2 in successors(net, m):
            yield names[ti], m2

    for exp in _explore_rounds(net.initial_marking, expand, budget):
        yield ReachabilityGraph(**vars(exp), net=net)


def build_reachability_graph(net: LabeledPetriNet, budget: Budget) -> ReachabilityGraph:
    """The reachability graph, built to the end of its search."""
    *_, graph = _graph_rounds(net, budget)
    return graph


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
    m0, arcs = net.initial_marking, tuple(zip(net.pre, net.post))
    cap = tuple(
        x if all(post[i] <= pre[i] for pre, post in arcs) else OMEGA
        for i, x in enumerate(m0)
    )
    target = tuple(target)
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


def _fed_by_cycle(n_nodes: int, edge_list) -> set:
    """Node ids reachable from some nontrivial cycle (self-loops included).

    Peels off every node left without an in-edge, as Kahn's topological
    sort does (Kahn 1962); the nodes never peeled are exactly those that a
    cycle reaches.
    """
    adj = [[] for _ in range(n_nodes)]
    indegree = [0] * n_nodes
    for v, w in edge_list:
        adj[v].append(w)
        indegree[w] += 1
    stack = [v for v, d in enumerate(indegree) if not d]
    while stack:
        for w in adj[stack.pop()]:
            indegree[w] -= 1
            if not indegree[w]:
                stack.append(w)
    return {v for v, d in enumerate(indegree) if d}


def _exact_exists(graph: ReachabilityGraph, pattern: PathPattern) -> bool:
    """Decide the pattern on a complete (hence bounded) reachability graph.

    On a bounded net a covering loop cannot strictly increase the marking,
    or pumping it would reach infinitely many markings; so the pump is a
    cycle of allowed edges. The pattern holds iff some node reached from
    such a cycle passes the final test. The peel of the allowed edges
    finds those nodes: after an ε pump the final test always passes, and
    otherwise every edge is allowed.
    """
    net = graph.net
    allowed = [
        (v, w)
        for v, out in enumerate(graph.succ)
        for t, w in out
        if not pattern.eps_pump or not net.is_observable(t)
    ]
    fed = _fed_by_cycle(len(graph.markings), allowed)
    return any(pattern.final_ok(graph.markings[v]) for v in fed)


def _witness_search(graph: ReachabilityGraph, pattern: PathPattern, budget: Budget):
    """A walk of graph over (segment, node, pump anchor) states on _explore.

    Nothing is fired: the run follows the stored successor lists from the
    initial node. A segment ends on the step that starts the next: (1, x)
    steps to (1, y), then to (2, y, x), anchoring the pump at x; (2, x, a)
    steps to (2, y, a), then, if x covers a, to (3, y, None). The goal is a
    covering (2, x, a) or, with three segments, any (3, x, None) whose
    marking passes the final test. On a closed graph covering is returning
    to the anchor (see _exact_exists) and the finite walk is unbounded. On
    an open graph x covers a if its marking does, and the walk runs under
    budget; a state less than budget.max_depth deep lies less deep in the
    graph, so it lost no successor unless the graph hit budget.max_states.
    graph may be a prefix (see search_pattern) whose first unexpanded node
    lies budget.max_depth deep: a state on an unexpanded node is then at
    the depth cap, where expanding it would store nothing, and is skipped.

    Returns (witness-or-None, exhausted, walk states stored, depth reached),
    exhausted being True iff no witness exists and the graph is closed.
    Depth counts fired transitions, so the witness has minimal total length;
    ties break on the own segment's steps first, then on transition order.
    """
    net, markings, succ, k = graph.net, graph.markings, graph.succ, pattern.segments
    eps_pump, final_ok = pattern.eps_pump, pattern.final_ok
    if graph.complete:
        covers, budget = operator.eq, Budget(float("inf"), float("inf"))
    else:
        covers = lambda a, x: leq(markings[a], markings[x])  # noqa: E731

    def expand(state):
        j, x, a = state
        try:
            out = succ[x]
        except IndexError:  # unexpanded in a prefix: state is at the depth cap
            return
        for t, y in out:
            if not (j == 2 and eps_pump and net.is_observable(t)):
                yield t, (j, y, a)
        if j == 1:
            for t, y in out:
                if not (eps_pump and net.is_observable(t)):
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
        return None, graph.complete, len(walk.states), walk.depth[v]
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


def replay_witness(net: LabeledPetriNet, pattern: PathPattern, witness: Witness) -> bool:
    """Re-fire a witness from the initial marking and check every pattern
    constraint."""
    k = pattern.segments
    if len(witness.segments) != k or len(witness.markings) != k:
        return False
    pump = witness.segments[1]
    if not pump:
        return False
    if pattern.eps_pump and any(net.label(t) is not EPSILON for t in pump):
        return False
    m = tuple(net.initial_marking)
    for seg, recorded in zip(witness.segments, witness.markings):
        try:
            m = fire_sequence(net, m, seg)
        except FiringError:
            return False
        if m != recorded:
            return False
    return leq(witness.markings[0], witness.markings[1]) and pattern.final_ok(m)


def search_pattern(net: LabeledPetriNet, pattern: PathPattern, budget: Budget) -> Verdict:
    """Search for a computation matching pattern from the initial marking.

    FAILS carries a minimal replay-checked witness. HOLDS is emitted only
    when the reachability graph closed within budget, so absence is a
    proof. Everything else is INCONCLUSIVE.

    The graph is built in rounds (see _explore_rounds), and the answer is
    that of search_graph on the whole graph; a round may give it early. A
    prefix in which some transition with a nonzero effect >= 0 has fired
    proves the net unbounded: the whole graph never closes, and its walk
    runs under budget. If nothing in the prefix was cut, its walk under
    depth cap D, the depth of its first unexpanded node, expands only
    fully expanded nodes short of the cap, so it stores the first states
    that the walk of the whole graph stores, in the same order. A witness
    among them, or max_states of them, is therefore that walk's answer.
    """
    t0 = time.perf_counter()
    growing = {
        t for t, (_, effect) in zip(net.transitions, net.kernel)
        if any(effect) and min(effect) >= 0
    }
    if not growing:
        # No prefix can prove the net unbounded, so none would be walked:
        # build the graph in one go, where perfbench/spans.py counts it.
        return search_graph(build_reachability_graph(net, budget), pattern, budget, t0)
    unbounded = False
    for graph in _graph_rounds(net, budget):
        expanded = len(graph.succ)
        if expanded == len(graph.states):  # the search has ended
            break
        unbounded = unbounded or any(t in growing for out in graph.succ for t, _ in out)
        if unbounded and not graph.cut:
            # D <= budget.max_depth, as no deeper node is stored.
            cap = Budget(budget.max_states, graph.depth[expanded])
            walked = _witness_search(graph, pattern, cap)
            if walked[0] is not None or walked[2] == budget.max_states:
                return _walk_verdict(graph, pattern, walked, t0)
    return search_graph(graph, pattern, budget, t0)


def search_graph(
    graph: ReachabilityGraph, pattern: PathPattern, budget: Budget, t0: float
) -> Verdict:
    """search_pattern on the already built reachability graph from its
    initial node; t0 is when the question started, for the wall time."""
    if graph.complete and not _exact_exists(graph, pattern):
        stats = SearchStats(len(graph.markings), max(graph.depth), time.perf_counter() - t0)
        return Verdict(HOLDS, None, stats)
    return _walk_verdict(graph, pattern, _witness_search(graph, pattern, budget), t0)


def _walk_verdict(
    graph: ReachabilityGraph, pattern: PathPattern, walked, t0: float
) -> Verdict:
    """The verdict on the result of _witness_search on graph."""
    witness, _, states, depth = walked
    stats = SearchStats(states, depth, time.perf_counter() - t0)
    if witness is None:
        if graph.complete:
            raise RuntimeError("internal error: no witness on a graph decided to fail")
        return Verdict(
            INCONCLUSIVE,
            stats=stats,
            message="state space did not close within budget",
        )
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
    observer in the witness replay and tests.
    """
    for sym in word:
        if sym not in net.alphabet:
            raise InputError(f"symbol {sym!r} not in alphabet")
    word = tuple(word)

    def expand(state):
        m, pos = state
        for ti, m2 in successors(net, m):
            lab = net.labels[ti]
            if lab is EPSILON:
                yield lab, (m2, pos)
            elif pos < len(word) and lab == word[pos]:
                yield lab, (m2, pos + 1)

    exp = _explore((net.initial_marking, 0), expand, budget)
    return frozenset(m for m, pos in exp.states if pos == len(word)), exp.complete
