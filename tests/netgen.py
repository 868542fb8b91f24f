"""Seeded random net generation and independent oracles for the test suite."""

from __future__ import annotations

from collections import deque

from lpndetect import Budget, build_reachability_graph, build_twin, explore, make_net
from lpndetect.analyze import check_assumptions
from lpndetect.net import EPSILON, enabled, fire, leq


def random_net(
    rng,
    max_places=4,
    max_trans=5,
    max_weight=2,
    eps_prob=0.2,
    symbols=("a", "b"),
    max_tokens=2,
):
    n_places = rng.randint(1, max_places)
    n_trans = rng.randint(1, max_trans)
    places = [f"p{i}" for i in range(n_places)]
    transitions = {}
    for j in range(n_trans):
        lab = EPSILON if rng.random() < eps_prob else rng.choice(symbols)
        pre = {}
        post = {}
        for p in places:
            if rng.random() < 0.4:
                pre[p] = rng.randint(1, max_weight)
            if rng.random() < 0.4:
                post[p] = rng.randint(1, max_weight)
        transitions[f"t{j}"] = (lab, pre, post)
    initial = {}
    for _ in range(rng.randint(0, max_tokens)):
        p = rng.choice(places)
        initial[p] = initial.get(p, 0) + 1
    return make_net(places, transitions, initial, alphabet=symbols)


def ring(k, n, eps=False, labels=("b", "a")):
    """Places p0..p{k-1} in a cycle, t_i moving a token from p_i to p_{i+1},
    labelled labels[0], labels[1], labels[0], ...; with eps t2, t5, ... are
    unobservable. n tokens start on p0."""
    trans = {
        f"t{i}": (EPSILON if eps and i % 3 == 2 else labels[i % 2],
                  {f"p{i}": 1}, {f"p{(i + 1) % k}": 1})
        for i in range(k)
    }
    return make_net([f"p{i}" for i in range(k)], trans, {"p0": n})


def token_net(rng):
    """A random net in which each of its one to four places is the only
    input place, with weight 1, of a transition, and no transition lowers
    the token count: the token-count deadlock certificate holds iff a token
    starts somewhere. Up to two more transitions take up to three tokens,
    and zero to two tokens start on random places."""
    places = [f"p{i}" for i in range(rng.randint(1, 4))]

    def label():
        return EPSILON if rng.random() < 0.2 else rng.choice(("a", "b"))

    def tokens(n):
        out = {}
        for _ in range(n):
            p = rng.choice(places)
            out[p] = out.get(p, 0) + 1
        return out

    transitions = {f"s{i}": (label(), {p: 1}, tokens(rng.randint(1, 2)))
                   for i, p in enumerate(places)}
    for j in range(rng.randint(0, 2)):
        pre = tokens(rng.randint(0, 3))
        transitions[f"t{j}"] = (label(), pre, tokens(sum(pre.values()) + rng.randint(0, 1)))
    return make_net(places, transitions, tokens(rng.randint(0, 2)), alphabet=("a", "b"))


def random_observable_net(rng, **kw):
    kw.setdefault("eps_prob", 0.0)
    kw.setdefault("max_tokens", 2)
    net = random_net(rng, **kw)
    return net


def bounded_observable_net(rng, graph_cap=2000, **kw):
    """Rejection-sample a fully observable net whose reachability graph
    closes within graph_cap states."""
    budget = Budget(max_states=graph_cap, max_depth=2000)
    while True:
        net = random_observable_net(rng, **kw)
        if build_reachability_graph(net, budget).complete:
            return net


def bounded_wellformed_net(rng, budget=None, graph_cap=5000, twin_cap=5000):
    """Rejection-sample a bounded net satisfying both standing assumptions
    whose twin state space also closes. Returns (net, graph)."""
    budget = budget or Budget(max_states=graph_cap, max_depth=2000)
    while True:
        net = random_net(rng)
        # A stored edge whose target strictly covers its source proves the
        # net unbounded: its graph can never close, so the net is dropped at
        # that node.
        graph, v = explore._graph_on_demand(net, budget), 0
        markings, succ = graph.markings, graph.succ
        while graph.need(v) and not any(w != v and leq(markings[v], markings[w])
                                        for _, w in succ[v]):
            v += 1
        if not graph.complete:
            continue
        report = check_assumptions(net, budget)
        if not (report.deadlock_free.holds and report.no_infinite_unobservable.holds):
            continue
        tw = build_twin(net)
        tgraph = build_reachability_graph(
            tw.net, Budget(max_states=twin_cap, max_depth=2000), graph
        )
        # The twin graph holds each pair (u, v), u < v, of the quotient in both orders.
        if not tgraph.complete or 2 * len(tgraph.pairs) - len(graph.markings) > twin_cap:
            continue
        return net, graph


def enumerate_sequences(net, start, max_len):
    """All enabled firing sequences up to max_len, with their final markings."""
    out = [((), tuple(start))]
    frontier = [((), tuple(start))]
    for _ in range(max_len):
        nxt = []
        for seq, m in frontier:
            for t in net.transitions:
                if enabled(net, m, t):
                    item = (seq + (t,), fire(net, m, t))
                    nxt.append(item)
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


def count_sequences(net, start, max_len, cap):
    """Number of enabled sequences up to max_len, stopping early at cap."""
    total = 0
    frontier = [tuple(start)]
    for _ in range(max_len):
        nxt = []
        for m in frontier:
            for t in net.transitions:
                if enabled(net, m, t):
                    nxt.append(fire(net, m, t))
                    total += 1
                    if total > cap:
                        return total
        frontier = nxt
        if not frontier:
            break
    return total


def twin_pair_realizable(tw, s1, s2):
    """Whether some twin firing sequence projects to exactly (s1, s2).

    Searches the grid of consumed prefixes, checking every move against the
    twin net's own enabledness, so it exercises the constructed arcs rather
    than re-deriving them.
    """
    from lpndetect.twin import pair_id

    net = tw.net
    start = tuple(net.initial_marking)
    seen = {(0, 0)}
    queue = deque([((0, 0), start)])
    while queue:
        (i, j), m = queue.popleft()
        if i == len(s1) and j == len(s2):
            return True
        moves = []
        if i < len(s1) and tw.base.label(s1[i]) is EPSILON:
            moves.append((pair_id(s1[i], None), i + 1, j))
        if j < len(s2) and tw.base.label(s2[j]) is EPSILON:
            moves.append((pair_id(None, s2[j]), i, j + 1))
        if (
            i < len(s1)
            and j < len(s2)
            and tw.base.label(s1[i]) is not EPSILON
            and tw.base.label(s1[i]) == tw.base.label(s2[j])
        ):
            moves.append((pair_id(s1[i], s2[j]), i + 1, j + 1))
        for tid, i2, j2 in moves:
            if (i2, j2) in seen:
                continue
            if tid in tw.pair_of and enabled(net, m, tid):
                seen.add((i2, j2))
                queue.append(((i2, j2), fire(net, m, tid)))
    return False


def language_inclusion(g1, g2, budget=None):
    """Whether every finite observation of g1 is an observation of g2.

    Both nets must be fully observable and bounded (graphs must close).
    Product search of g1's reachability graph against the determinized
    reachability graph of g2; a reachable pair with an empty g2 state set
    is a word of g1 outside g2's language.
    """
    budget = budget or Budget(max_states=20000, max_depth=5000)
    ga = build_reachability_graph(g1, budget)
    gb = build_reachability_graph(g2, budget)
    assert ga.complete and gb.complete, "inclusion oracle needs bounded inputs"

    def labeled_succ(graph, net):
        out = [dict() for _ in graph.markings]
        for v, t, w in graph.edges:
            out[v].setdefault(net.label(t), set()).add(w)
        return out

    sa = labeled_succ(ga, g1)
    sb = labeled_succ(gb, g2)
    start = (ga.initial, frozenset({gb.initial}))
    seen = {start}
    queue = deque([start])
    while queue:
        v, S = queue.popleft()
        for sym, targets in sa[v].items():
            S2 = frozenset(x for s in S for x in sb[s].get(sym, ()))
            if not S2:
                return False
            for w in targets:
                nxt = (w, S2)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True
