"""State-space machinery.

Provides budgeted reachability graphs with completeness tracking, Karp-Miller
coverability trees, coverability queries, current-marking estimation, and
the two path questions the checkers ask (see PathPattern): a covering pump
followed by a mismatch, for strong detectability on the twin net, and an
unobservable covering pump, for the standing assumption. Each question is
explored once. The reachability graph is built under the budget; when it
closes, the answer is decided and its witness read off the graph alone.
Otherwise a budgeted search that fires transitions finds a sound witness or
reports the question inconclusive.
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
# Reachability graphs
# ---------------------------------------------------------------------------


@dataclass
class ReachabilityGraph:
    net: LabeledPetriNet
    markings: list  # list[Marking], index = node id
    index: dict  # Marking -> node id
    edges: list  # list[(src, transition-id, dst)]
    succ: list  # adjacency: succ[v] = [(transition-id, w), ...]
    depth: list  # BFS depth per node
    initial: int = 0
    complete: bool = True


def build_reachability_graph(
    net: LabeledPetriNet, budget: Budget, start: Optional[Marking] = None
) -> ReachabilityGraph:
    """BFS over reachable markings in declared transition order.

    complete is True iff every enabled firing from every stored node lands in
    a stored node. Edges are only recorded between stored nodes.
    """
    if start is None:
        start = net.initial_marking
    net._check_marking(start)
    markings = [tuple(start)]
    index = {tuple(start): 0}
    depth = [0]
    edges = []
    succ = [[]]
    complete = True
    every = range(len(net.transitions))
    queue = deque([0])
    while queue:
        v = queue.popleft()
        d = depth[v]
        for ti, m2 in successors(net, markings[v], every):
            w = index.get(m2)
            if w is None:
                if len(markings) >= budget.max_states or d + 1 > budget.max_depth:
                    complete = False
                    continue
                w = len(markings)
                markings.append(m2)
                index[m2] = w
                depth.append(d + 1)
                succ.append([])
                queue.append(w)
            t = net.transitions[ti]
            edges.append((v, t, w))
            succ[v].append((t, w))
    return ReachabilityGraph(
        net=net,
        markings=markings,
        index=index,
        edges=edges,
        succ=succ,
        depth=depth,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# Karp-Miller coverability tree
# ---------------------------------------------------------------------------


@dataclass
class KMNode:
    marking: tuple  # entries are naturals or OMEGA
    via: Optional[str]  # transition fired from the parent, None at the root
    parent: Optional["KMNode"]
    children: list = field(default_factory=list)


def build_km_tree(net: LabeledPetriNet) -> KMNode:
    """Standard Karp-Miller construction; terminates on every net."""
    root = KMNode(tuple(net.initial_marking), None, None)
    every = range(len(net.transitions))
    queue = deque([root])
    while queue:
        node = queue.popleft()
        # A marking repeating an ancestor adds nothing below it.
        if any(anc.marking == node.marking for anc in _ancestors(node.parent)):
            continue
        for ti, child in successors(net, node.marking, every):
            kid = KMNode(_accelerate(child, node), net.transitions[ti], node)
            node.children.append(kid)
            queue.append(kid)
    return root


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


def km_nodes(root: KMNode):
    stack = [root]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def coverable(net: LabeledPetriNet, target: Marking) -> bool:
    """Whether some reachable marking dominates target componentwise."""
    net._check_marking(target)
    return any(leq(target, node.marking) for node in km_nodes(build_km_tree(net)))


# ---------------------------------------------------------------------------
# The two path questions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathPattern:
    """A run alpha beta [gamma] from a start marking.

    alpha is any firing sequence. beta is a nonempty loop whose end marking
    covers its start marking; with eps_pump it fires unobservable
    transitions only. When mismatch_pairs is None the run ends after beta.
    Otherwise a third segment gamma follows, any firing sequence ending in a
    marking m with m[a] != m[b] for some pair (a, b).
    """

    eps_pump: bool
    mismatch_pairs: Optional[tuple] = None

    def final_ok(self, m: Marking) -> bool:
        if self.mismatch_pairs is None:
            return True
        return any(m[a] != m[b] for a, b in self.mismatch_pairs)


def strong_detectability_pattern(n_places: int) -> PathPattern:
    """Three segments over a twin net: reach, pump (covering, nonempty),
    then reach a marking whose two halves disagree."""
    half = n_places // 2
    return PathPattern(
        eps_pump=False, mismatch_pairs=tuple((i, i + half) for i in range(half))
    )


def unobservable_cycle_pattern() -> PathPattern:
    """Two segments: reach, then a nonempty all-unobservable pump (covering)."""
    return PathPattern(eps_pump=True)


def _segment_count(pattern: PathPattern) -> int:
    return 2 if pattern.mismatch_pairs is None else 3


# ---------------------------------------------------------------------------
# Pattern search
# ---------------------------------------------------------------------------


def _cycle_nodes(n_nodes: int, edge_list) -> set:
    """Node ids lying on some nontrivial cycle (self-loops included).

    One iterative pass of Tarjan's strongly-connected-components algorithm
    (Tarjan 1972): a node lies on a cycle iff it has a self-loop or its
    component has more than one node.
    """
    out = set()
    adj = [[] for _ in range(n_nodes)]
    for v, w in edge_list:
        if v == w:
            out.add(v)
        else:
            adj[v].append(w)
    index = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    stack = []
    work = []  # the depth-first path: (node, iterator over its successors)
    counter = 0

    def visit(v):
        nonlocal counter
        index[v] = low[v] = counter
        counter += 1
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(adj[v])))

    for root in range(n_nodes):
        if index[root] < 0:
            visit(root)
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] < 0:
                    visit(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    if len(component) > 1:
                        out.update(component)
    return out


def _exact_exists(graph: ReachabilityGraph, pattern: PathPattern) -> bool:
    """Decide the pattern on a complete (hence bounded) reachability graph.

    On a bounded net a covering loop cannot strictly increase the marking,
    or pumping it would reach infinitely many markings; so the pump is a
    cycle of allowed edges. The pattern holds iff some node lies on such a
    cycle and reaches a node that passes the final test.
    """
    net = graph.net
    allowed = [
        (v, w)
        for v, out in enumerate(graph.succ)
        for t, w in out
        if not pattern.eps_pump or not net.is_observable(t)
    ]
    reach = _cycle_nodes(len(graph.markings), allowed)
    stack = list(reach)
    while stack:
        for _, w in graph.succ[stack.pop()]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return any(pattern.final_ok(graph.markings[v]) for v in reach)


def _witness_search(
    net: LabeledPetriNet,
    start: Marking,
    pattern: PathPattern,
    budget: Budget,
    graph: Optional[ReachabilityGraph] = None,
):
    """0/1-BFS over (segment, node, pump anchor, moved) states.

    Given graph, the closed reachability graph of net from start, the nodes
    are its integer ids and their successors its lists: nothing is fired,
    and the pump closes on returning to its anchor, as covering forces
    equality on a closed graph (see _exact_exists). Without graph the nodes
    are markings fired from start, at most budget.max_states distinct ones
    at most budget.max_depth steps deep, and the pump closes once its end
    covers its anchor. Both walks visit the same states in the same order.

    Returns (witness-or-None, exhausted, nodes-seen, max-cost). The BFS
    layers count fired transitions, so the first accepted state yields a
    witness of minimal total segment length; ties break on declared
    transition order.
    """
    k = _segment_count(pattern)
    truncated = False
    if graph is not None:
        root, covers, marking_of = graph.initial, operator.eq, graph.markings.__getitem__
        max_depth = None

        def step(v, eps_only):
            for t, w in graph.succ[v]:
                if not eps_only or not net.is_observable(t):
                    seen.add(w)
                    yield t, w

    else:
        root, covers, marking_of = tuple(start), leq, tuple
        max_depth = budget.max_depth
        every, eps = range(len(net.transitions)), net.by_label[EPSILON]

        def step(m, eps_only):
            nonlocal truncated
            for ti, m2 in successors(net, m, eps if eps_only else every):
                if m2 not in seen:
                    if len(seen) >= budget.max_states:
                        truncated = True
                        continue
                    seen.add(m2)
                yield net.transitions[ti], m2

    seen = {root}
    init = (1, root, None, False)
    parents = {init: None}  # state -> (prev_state, transition or None on close)
    queue = deque([(init, 0)])
    accepted = None
    max_cost = 0
    while queue:
        state, c = queue.popleft()
        j, x, anchor, moved = state
        max_cost = max(max_cost, c)
        if j != 2 or (moved and covers(anchor, x)):
            if j == k:
                if pattern.final_ok(marking_of(x)):
                    accepted = state
                    break
            else:
                nxt = (j + 1, x, x if j == 1 else None, False)
                if nxt not in parents:
                    parents[nxt] = (state, None)
                    queue.appendleft((nxt, c))
        if max_depth is not None and c >= max_depth:
            truncated = True
            continue
        for t, y in step(x, j == 2 and pattern.eps_pump):
            nxt = (j, y, anchor, True)
            if nxt not in parents:
                parents[nxt] = (state, t)
                queue.append((nxt, c + 1))

    if accepted is None:
        return None, not truncated, len(seen), max_cost

    # Walk the parent chain back: a close ends the segment of its source.
    segments = [[] for _ in range(k)]
    boundary_markings = [None] * (k - 1) + [marking_of(accepted[1])]
    state = accepted
    while parents[state] is not None:
        prev, t = parents[state]
        if t is None:
            boundary_markings[prev[0] - 1] = marking_of(prev[1])
        else:
            segments[state[0] - 1].append(t)
        state = prev
    witness = Witness(
        segments=tuple(tuple(reversed(s)) for s in segments),
        markings=tuple(boundary_markings),
    )
    return witness, False, len(seen), max_cost


def replay_witness(
    net: LabeledPetriNet, start: Marking, pattern: PathPattern, witness: Witness
) -> bool:
    """Re-fire a witness from start and check every pattern constraint."""
    k = _segment_count(pattern)
    if len(witness.segments) != k or len(witness.markings) != k:
        return False
    pump = witness.segments[1]
    if not pump:
        return False
    if pattern.eps_pump and any(net.label(t) is not EPSILON for t in pump):
        return False
    m = tuple(start)
    for seg, recorded in zip(witness.segments, witness.markings):
        try:
            m = fire_sequence(net, m, seg)
        except FiringError:
            return False
        if m != recorded:
            return False
    return leq(witness.markings[0], witness.markings[1]) and pattern.final_ok(m)


def search_pattern(
    net: LabeledPetriNet,
    start: Marking,
    pattern: PathPattern,
    budget: Budget,
) -> Verdict:
    """Search for a computation matching pattern from start.

    FAILS carries a minimal replay-checked witness. HOLDS is emitted only
    when the reachability graph from start closed within budget, so absence
    is a proof. Everything else is INCONCLUSIVE.
    """
    t0 = time.perf_counter()
    net._check_marking(start)
    graph = build_reachability_graph(net, budget, start=start)
    return search_graph(graph, pattern, budget, t0)


def search_graph(
    graph: ReachabilityGraph, pattern: PathPattern, budget: Budget, t0: float
) -> Verdict:
    """search_pattern on the already built reachability graph from its
    initial node; t0 is when the question started, for the wall time."""
    if graph.complete and not _exact_exists(graph, pattern):
        stats = SearchStats(len(graph.markings), max(graph.depth), time.perf_counter() - t0)
        return Verdict(HOLDS, None, stats)
    net, start = graph.net, graph.markings[graph.initial]
    witness, _, states, depth = _witness_search(
        net, start, pattern, budget, graph if graph.complete else None
    )
    stats = SearchStats(states, depth, time.perf_counter() - t0)
    if witness is None:
        if graph.complete:
            raise RuntimeError("internal error: no witness on a graph decided to fail")
        return Verdict(
            INCONCLUSIVE,
            stats=stats,
            message="state space did not close within budget",
        )
    if not replay_witness(net, start, pattern, witness):
        raise RuntimeError("internal error: witness failed its replay check")
    return Verdict(FAILS, witness, stats)


# ---------------------------------------------------------------------------
# Current-marking estimation
# ---------------------------------------------------------------------------


def estimate(net: LabeledPetriNet, word: Sequence[str], budget: Budget):
    """Markings consistent with observing word from the initial marking.

    Returns (frozenset of markings, complete). When complete is False the
    set is a sound under-approximation.
    """
    for sym in word:
        if sym not in net.alphabet:
            raise InputError(f"symbol {sym!r} not in alphabet")
    word = tuple(word)
    every = range(len(net.transitions))
    start = (net.initial_marking, 0)
    seen = {start}
    seen_markings = {net.initial_marking}
    queue = deque([(start, 0)])
    complete = True
    result = set()
    if len(word) == 0:
        result.add(net.initial_marking)
    while queue:
        (m, pos), d = queue.popleft()
        if d >= budget.max_depth:
            complete = False
            continue
        for ti, m2 in successors(net, m, every):
            lab = net.labels[ti]
            if lab is EPSILON:
                pos2 = pos
            elif pos < len(word) and lab == word[pos]:
                pos2 = pos + 1
            else:
                continue
            if m2 not in seen_markings:
                if len(seen_markings) >= budget.max_states:
                    complete = False
                    continue
                seen_markings.add(m2)
            nxt = (m2, pos2)
            if nxt in seen:
                continue
            seen.add(nxt)
            if pos2 == len(word):
                result.add(m2)
            queue.append((nxt, d + 1))
    return frozenset(result), complete
