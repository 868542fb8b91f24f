import itertools
import random
import sys
from collections import Counter, deque
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest

from lpndetect import (
    Budget,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    OMEGA,
    build_km_tree,
    build_reachability_graph,
    build_twin,
    coverable,
    estimate,
    make_net,
    mismatch,
    search_pattern,
)
from lpndetect import analyze, explore
from lpndetect.analyze import check_assumptions, check_strong
from lpndetect.explore import (
    EPS_PUMP,
    STRONG,
    Witness,
    _fed_by_cycle,
    _witness_search,
    replay_witness,
    search_graph,
)
from lpndetect.gadgets import coverability_to_strong, selfloop_unobservable
from lpndetect.net import EPSILON, InputError, leq, successors

from netgen import random_net, ring


class TestExplore:
    """_explore's goal: the search stops at the first stored state meeting it."""

    @staticmethod
    def expand(n):
        yield "inc", n + 1
        yield "dbl", 2 * n

    def test_goal_stops_at_the_least_deep_match(self):
        budget = Budget(10**4, 6)
        full = explore._explore(1, self.expand, budget)
        hit = explore._explore(1, self.expand, budget, goal=lambda n: n % 5 == 0)
        v = len(hit.states) - 1
        assert hit.states == full.states[:v + 1] and hit.states[-1] == 5
        assert hit.path_to(v) == ("inc", "dbl", "inc") and hit.depth[v] == 3
        assert min(full.depth[w] for w, n in enumerate(full.states) if n % 5 == 0) == 3
        # Only the states before the goal's source were fully expanded.
        source = hit.parent[v][0]
        assert hit.succ[:source] == full.succ[:source] and len(hit.succ) == source + 1

    def test_unmet_goal_changes_nothing(self):
        budget = Budget(50, 6)
        full = explore._explore(1, self.expand, budget)
        missed = explore._explore(1, self.expand, budget, goal=lambda n: n > 10**6)
        assert vars(missed) == vars(full) and not full.complete

    def test_goal_met_by_the_root(self):
        exp = explore._explore(1, self.expand, Budget(), goal=lambda n: n == 1)
        assert (exp.states, exp.succ, exp.cut) == ([1], [], set())

    def test_goal_stopped_search_is_not_complete(self):
        # Nothing is cut, but state 3 was stored unexpanded.
        def chain(n):
            yield "s", n + 1

        exp = explore._explore(0, chain, Budget(100, 100), goal=lambda n: n == 3)
        assert exp.states == [0, 1, 2, 3] and len(exp.succ) == 3 and not exp.cut
        assert not exp.complete
        assert explore._explore(0, chain, Budget(100, 3)).complete is False  # cut at 3
        assert explore._explore(0, lambda n: iter(()), Budget()).complete


def _one_shot_explore(root, expand, budget, goal=None):
    """_explore as it stood before it became resumable, kept as the
    reference that the rounds, run to the end, are compared against."""
    if root is None:
        return explore.Exploration([], [], [], [], set())
    states, index, succ, parent, depth = [root], {root: 0}, [], [None], [0]
    cut, max_states, max_depth = set(), budget.max_states, budget.max_depth
    found = goal is not None and goal(root)
    v = 0
    while v < len(states) and not found:
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
    return explore.Exploration(states, succ, parent, depth, cut)


class TestRounds:
    """The resumable search and search_pattern's walk of the graph it grows
    on demand."""

    def test_rounds_run_to_the_end_equal_the_one_shot_search(self):
        rng = random.Random(61)
        fields = ("states", "succ", "parent", "depth", "cut", "complete")
        rounds = goals_met = 0
        for _ in range(100):
            tw = build_twin(random_net(rng))
            m0, names, h = tw.net.initial_marking, tw.net.transitions, tw.half

            def expand(m):
                for ti, m2 in successors(tw.net, m):
                    yield names[ti], m2

            def goal(m):
                return m[:h] != m[h:]

            for budget in (Budget(300, 30), Budget(700, 60)):
                for g in (None, goal):
                    # Resumed to growing counts of expanded states, now and
                    # then to the end (None), until it stops.
                    search = explore._explore_rounds(m0, expand, budget, g)
                    exp, seen, asked = next(search), [], [0]
                    while True:
                        # The exploration grows in place: copy each round.
                        seen.append((len(exp.succ), list(exp.states)))
                        n = (asked[-1] or 0) + rng.randint(1, 9) if rng.random() < 0.95 else None
                        try:
                            exp = search.send(n)
                        except StopIteration:
                            break
                        asked.append(n)
                    ref = _one_shot_explore(m0, expand, budget, g)
                    assert all(getattr(exp, f) == getattr(ref, f) for f in fields)
                    # One yield once the root is stored, one at each count
                    # sent while a stored state is unexpanded, then the end;
                    # each a prefix.
                    *checkpoints, last = seen
                    assert [n for n, _ in checkpoints] == asked[:len(checkpoints)]
                    for n, states in checkpoints:
                        assert n < len(states) and states == ref.states[:len(states)]
                    assert last == (len(ref.succ), ref.states)
                    rounds += len(checkpoints)
                    goals_met += g is not None and g(ref.states[-1])
        print("checkpoints", rounds, "goals met", goals_met)
        assert rounds >= 950 and goals_met >= 50

    def test_search_pattern_matches_the_whole_graph_search(self, monkeypatch):
        # The reference builds the whole graph under the budget and searches
        # it; search_pattern must give the same outcome, witness, stats and
        # message, call search_graph once and walk a graph at most once. A
        # record is decided early when the graph it grows on demand is still
        # paused as search_graph is called, which then walks it. Otherwise
        # search_graph got the whole graph (grown to its end, it is the
        # graph the one-shot build gives, see the test above) and
        # search_pattern must return its verdict, so only the early records
        # build the reference.
        rng = random.Random(11)
        nets = [random_net(rng) for _ in range(300)] + [
            random_net(rng, max_places=5, max_trans=6, eps_prob=0.3) for _ in range(300)]
        real = explore.search_graph
        calls = []

        def recorded(graph, *args):
            paused = len(graph.succ) < len(graph.markings)  # before the walk grows it
            calls.append((paused, real(graph, *args)))
            return calls[-1][1]

        monkeypatch.setattr(explore, "search_graph", recorded)
        walks, real_walk = [], explore._witness_search
        monkeypatch.setattr(explore, "_witness_search",
                            lambda *args, **kw: walks.append(args[0]) or real_walk(*args, **kw))
        records, early = 0, Counter()

        def key(v):
            return v.outcome, v.witness, v.stats.states, v.stats.depth, v.message

        for net in nets:
            tw = build_twin(net)
            for n, pattern in ((tw.net, STRONG), (net, EPS_PUMP)):
                for budget in (Budget(50, 3), Budget(300, 30), Budget(2000, 100)):
                    calls.clear()
                    walks.clear()
                    ours = search_pattern(n, pattern, budget)
                    assert len(walks) <= 1
                    [(paused, ref)] = calls
                    if paused:
                        early[ours.outcome] += 1
                        ref = real(build_reachability_graph(n, budget), pattern, budget, 0.0)
                    assert key(ours) == key(ref)
                    records += 1
        print("records", records, "decided early", dict(early))
        assert records == 3600 and early[FAILS] >= 900 and early[INCONCLUSIVE] >= 110
        assert set(early) == {FAILS, INCONCLUSIVE}

    def test_unbounded_twins_walk_once_as_the_whole_graph_does(self, monkeypatch):
        # twin_unbounded's instances at seeds 0-2, each twin fired on its
        # halves and as its twin net: search_pattern walks at most once, and
        # its answer is that of search_graph on the whole twin graph.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            from families import WORKLOADS, instances
        finally:
            sys.path.pop(0)
        walks, real = [], explore._witness_search
        monkeypatch.setattr(explore, "_witness_search",
                            lambda *args, **kw: walks.append(args[0]) or real(*args, **kw))
        budget, outcomes = WORKLOADS["twin_unbounded"].budget, Counter()
        for seed in range(3):
            for inst in instances("twin_unbounded", seed):
                tw = build_twin(inst.net)
                ref = search_graph(build_reachability_graph(tw.net, budget), STRONG, budget, 0.0)
                for n in (tw, tw.net):
                    walks.clear()
                    v = search_pattern(n, STRONG, budget)
                    assert len(walks) == 1 and not walks[0].complete
                    assert (v.outcome, v.witness, v.stats.states, v.stats.depth) == \
                        (ref.outcome, ref.witness, ref.stats.states, ref.stats.depth)
                    outcomes[v.outcome] += 1
        assert outcomes == {FAILS: 72, INCONCLUSIVE: 6}

    def test_bounded_twin_never_walks_a_prefix(self, monkeypatch):
        # A ring is bounded; with a dead transition that would grow p0 its
        # twin is grown on demand, yet no growing transition fires.
        ring = {f"t{i}": ("ab"[i % 2], {f"p{i}": 1}, {f"p{(i + 1) % 6}": 1}) for i in range(6)}
        dead = dict(ring, g=("a", {"x": 1}, {"x": 1, "p0": 1}))
        walks = []
        real = explore._witness_search
        monkeypatch.setattr(explore, "_witness_search",
                            lambda graph, *args: walks.append(graph) or real(graph, *args))
        for transitions in (ring, dead):
            net = make_net([f"p{i}" for i in range(6)] + ["x"], transitions, {"p0": 3})
            tw = build_twin(net)
            walks.clear()
            budget = Budget(20000, 2000)
            v = search_pattern(tw.net, STRONG, budget)
            assert v.outcome == FAILS and len(walks) == 1 and walks[0].complete
            assert walks[0].markings == build_reachability_graph(tw.net, budget).markings

    def test_e4_is_decided_in_the_first_round(self, e4, monkeypatch):
        walks = []
        real = explore._witness_search
        monkeypatch.setattr(explore, "_witness_search",
                            lambda graph, *args, **kw: walks.append(len(graph.markings))
                            or real(graph, *args, **kw))
        budget = Budget(2000, 100)
        tw = build_twin(e4)
        v = search_pattern(tw.net, STRONG, budget)
        assert v.witness.segments == ((), ("(t,u)",), ())
        # One walk, begun with only the root expanded, of 2000 twin markings.
        assert len(walks) == 1 and walks[0] < 200
        ref = search_graph(build_reachability_graph(tw.net, budget), STRONG, budget, 0.0)
        assert walks[1:] == [2000]
        assert (v.outcome, v.witness, v.stats.states, v.stats.depth) == \
            (ref.outcome, ref.witness, ref.stats.states, ref.stats.depth)

    def test_unbounded_twins_are_walked_from_their_first_expansion(self, e4, monkeypatch):
        # Each net's witness is one pair step from the twin's root, so the
        # graph with only the root expanded holds it: check_strong expands
        # at most two twin markings, and its witness is the whole graph's.
        # A twin marking is expanded by one call of the step rule on the
        # moves of its halves, whose markings it gets as the no-move values.
        consumer = make_net(["p", "q", "r", "s"], {
            "t": ("a", {"p": 1}, {"p": 1, "q": 2, "s": 1}),
            "u": ("a", {"p": 1}, {"p": 1, "r": 2, "s": 1}),
            "v": ("b", {"s": 1}, {}),
        }, {"p": 1})

        def producers(k):
            return make_net(
                [p for i in range(k) for p in (f"p{i}", f"q{i}")],
                {f"t{i}": ("a", {f"p{i}": 1}, {f"p{i}": 1, f"q{i}": 1}) for i in range(k)},
                {f"p{i}": 1 for i in range(k)})

        budget = Budget(2000, 100)
        real, expanded = explore.twin_steps, []
        monkeypatch.setattr(explore, "twin_steps", lambda left, right, m1, m2:
                            expanded.append(m1 + m2) or real(left, right, m1, m2))
        for net in (e4, consumer, producers(3), producers(4)):
            expanded.clear()
            v = check_strong(net, budget)
            assert {len(m) for m in expanded} == {2 * len(net.places)}
            assert v.fails and 1 <= len(expanded) <= 2
            tw = build_twin(net)
            ref = search_graph(build_reachability_graph(tw.net, budget), STRONG, budget, 0.0)
            assert v.witness == ref.witness


class TestTwinFiredOnItsHalves:
    """An unbounded twin's graph, built by firing the net on each half of a
    twin marking (see explore._graph_on_demand), against the twin net fired."""

    FIELDS = ("states", "succ", "parent", "depth", "cut")

    def test_rounds_equal_the_fired_twin_net_at_every_round(self, monkeypatch):
        rng = random.Random(23)
        nets = [random_net(rng) for _ in range(100)] + [
            random_net(rng, max_places=5, max_trans=6, eps_prob=0.3) for _ in range(100)]
        rounds = cut = closed = early = invariant = 0
        # search_pattern's grow loop, seen by the expanded count at its one
        # search_graph call; the walk itself is not run.
        calls = []
        monkeypatch.setattr(explore, "search_graph", lambda graph, *_: calls.append(
            len(graph.succ)))
        for net in nets:
            tw = build_twin(net)
            # The twin invariant, read off the net's kernel, against its
            # reading off the twin net's kernel; and, as the reference for
            # the grow loop, which reads covering edges off the graph, the
            # twin net's transitions with a nonzero effect >= 0.
            h, kernel = tw.half, tw.net.kernel
            assert analyze._twin_invariant(tw) == all(e[:h] == e[h:] for _, _, _, _, e in kernel)
            invariant += analyze._twin_invariant(tw)
            growing = {tw.net.transitions[t] for t, _, _, _, e in kernel
                       if any(e) and min(e) >= 0}
            for budget in (Budget(50, 3), Budget(300, 30)):
                calls.clear()
                search_pattern(tw, STRONG, budget)
                ours = explore._graph_on_demand(tw, budget)
                ref = explore._graph_on_demand(tw.net, budget)
                assert ours.net is tw and ref.net is tw.net
                v, more = 0, True
                while more:  # grown to node 0, 1, 3, 7, ... and then the end
                    more = ours.need(v)
                    assert ref.need(v) == more
                    assert [getattr(ours, f) for f in self.FIELDS] == \
                        [getattr(ref, f) for f in self.FIELDS]
                    v, rounds = 2 * v + 1, rounds + 1
                # The loop stops once the first node with an edge fired by
                # one of them is expanded, else when the search ends.
                stop = next((u + 1 for u, out in enumerate(ref.succ)
                             if any(t in growing for t, _ in out)), None)
                assert calls == [stop or len(ref.succ)]
                early += stop is not None and budget.max_states == 300
                cut += bool(ref.cut)
                closed += ref.complete
        print("rounds", rounds, "cut", cut, "closed", closed, "early", early,
              "invariant", invariant)
        assert rounds >= 1500 and cut >= 150 and closed >= 100
        assert early >= 100 and invariant >= 40


class TestReachabilityGraph:
    def test_e1(self, e1):
        g = build_reachability_graph(e1, Budget(100, 100))
        assert len(g.markings) == 1
        assert len(g.edges) == 1
        assert g.complete

    def test_e2(self, e2):
        g = build_reachability_graph(e2, Budget(100, 100))
        assert sorted(g.markings) == [(0, 1), (1, 0)]
        assert sorted(g.edges) == [(0, "t1", 0), (0, "t2", 1), (1, "t3", 1)]
        assert g.complete

    def test_e3_truncates(self, e3):
        g = build_reachability_graph(e3, Budget(50, 50))
        assert len(g.markings) == 50
        assert not g.complete

    def test_bad_budget(self):
        for bounds in ((0, 10), (1.5, 2.5), (1.5, 2), (True, True), (10, True)):
            with pytest.raises(InputError, match="budget bounds must be >= 1"):
                Budget(*bounds)

    def test_need_grows_to_the_node_asked_for(self):
        # need(v) resumes the paused search until node v is expanded, and
        # no further; once the search ends the graph is the one-shot one.
        net, budget = ring(8, 4), Budget(20000, 2000)
        graph, sent = explore._graph_on_demand(net, budget), []
        rounds = graph.rounds
        graph.rounds = SimpleNamespace(send=lambda n: sent.append(n) or rounds.send(n))
        assert graph.need(5) and len(graph.succ) == 6 < len(graph.markings)
        assert sent == [6]
        assert graph.need(5) and len(graph.succ) == 6 and sent == [6]
        assert not graph.need(10**9) and graph.rounds is None and sent == [6, 10**9 + 1]
        whole = build_reachability_graph(net, budget)
        assert len(whole.markings) == 330 and whole.rounds is None
        assert [getattr(graph, f) for f in TestTwinFiredOnItsHalves.FIELDS] == \
            [getattr(whole, f) for f in TestTwinFiredOnItsHalves.FIELDS]

    def test_need_never_grows_a_graph_read_off_its_nets(self):
        # A twin graph read off its net's closed graph has no search to
        # resume: need(v) only says whether v is expanded.
        for net, budget in ((ring(4, 2), Budget(1000, 100)), (ring(6, 3), Budget(40, 100))):
            tw = build_twin(net)
            graph = build_reachability_graph(
                tw.net, budget, build_reachability_graph(net, Budget(1000, 100)))
            assert graph.rounds is None and graph.pairs is not None
            fields = [list(getattr(graph, f)) for f in TestTwinFiredOnItsHalves.FIELDS]
            assert [graph.need(v) for v in range(len(graph.succ) + 3)] == \
                [True] * len(graph.succ) + [False] * 3
            assert [list(getattr(graph, f)) for f in TestTwinFiredOnItsHalves.FIELDS] == fields


class TestKarpMiller:
    def test_e1(self, e1):
        tree = build_km_tree(e1, Budget())
        assert [n.marking for n in tree.states] == [(1,), (1,)]
        assert tree.succ == [(("t", 1),), ()] and tree.complete

    def test_e3_accelerates(self, e3):
        tree = build_km_tree(e3, Budget())
        # The second (1,ω) repeats its parent and has no children.
        assert [n.marking for n in tree.states] == [(1, 0), (1, OMEGA), (1, OMEGA)]

    def test_budget_bounds_the_tree(self, e4):
        def cuts(budget):
            tree = build_km_tree(e4, budget)
            return [v in tree.cut for v in range(len(tree.states))]

        assert cuts(Budget()) == [False] * 11
        # BFS order: the root, (1,ω,0), (1,0,ω), and the repeat of (1,ω,0).
        assert cuts(Budget(max_states=4)) == [False, True, True, False]
        assert cuts(Budget(max_depth=1)) == [False, True, True]

    def test_e4_coverability_semantics(self, e4):
        # both branches can pump their own place arbitrarily high
        assert coverable(e4, (1, 5, 0))
        assert coverable(e4, (1, 0, 5))
        assert coverable(e4, (1, 3, 3))
        assert not coverable(e4, (2, 0, 0))

    def test_coverable(self, e1, e3):
        assert coverable(e1, (1,))
        assert not coverable(e1, (2,))
        assert coverable(e3, (1, 5))
        for bad in ((-1,), (0.5,), (True,)):
            with pytest.raises(InputError, match="target must be non-negative integers"):
                coverable(e1, bad)

    def test_backward_search_matches_km_tree(self):
        # Weights up to 3 give pre-images other than the target itself.
        rng = random.Random(7)
        records = coverable_count = 0
        for _ in range(600):
            net = random_net(rng, max_places=5, max_trans=6, max_weight=3,
                             max_tokens=3)
            markings = [n.marking for n in build_km_tree(net, Budget()).states]
            for _ in range(4):
                target = tuple(rng.randint(0, 3) for _ in net.places)
                km = any(leq(target, m) for m in markings)
                assert coverable(net, target) == km, (net, target)
                records += 1
                coverable_count += km
        assert records == 2400 and 200 < coverable_count < 2200

    def test_initially_covered_target(self, e3):
        assert coverable(e3, (1, 0))
        assert coverable(e3, (0, 0))
        net = make_net(["p", "q"], {}, {"p": 2})
        assert coverable(net, (2, 0))
        assert not coverable(net, (0, 1))

    def test_target_above_an_unfed_place(self, e3):
        # No transition raises p, so it never holds more than its one token;
        # q grows without bound.
        assert not coverable(e3, (2, 0))
        assert not coverable(e3, (2, 7))
        assert coverable(e3, (1, 7))

    def test_no_places(self):
        net = make_net([], {"t": ("a", {}, {})})
        assert coverable(net, ())
        assert [n.marking for n in build_km_tree(net, Budget(10, 3)).states] == [(), ()]
        with pytest.raises(InputError):
            coverable(net, (0,))

    def test_km_agrees_with_graph_on_bounded(self):
        rng = random.Random(31)
        checked = 0
        while checked < 20:
            net = random_net(rng)
            graph = build_reachability_graph(net, Budget(2000, 2000))
            if not graph.complete:
                continue
            checked += 1
            for _ in range(5):
                target = tuple(rng.randint(0, 2) for _ in net.places)
                brute = any(leq(target, m) for m in graph.markings)
                assert coverable(net, target) == brute


class TestSearchPattern:
    def test_e4_twin_fails_with_minimal_witness(self, e4):
        tw = build_twin(e4)
        v = search_pattern(tw.net, STRONG, Budget(200, 20))
        assert v.outcome == FAILS
        assert v.witness.segments == ((), ("(t,u)",), ())
        assert replay_witness(tw.net, STRONG, v.witness)

    def test_e1_twin_holds(self, e1):
        tw = build_twin(e1)
        v = search_pattern(tw.net, STRONG, Budget(1000, 50))
        assert v.outcome == HOLDS

    def test_e3_twin_inconclusive(self, e3):
        tw = build_twin(e3)
        v = search_pattern(tw.net, STRONG, Budget(200, 20))
        assert v.outcome == INCONCLUSIVE

    def test_a_base_graph_is_read_off_for_a_twin_net_only(self, e2):
        # The quotient is read off for a TwinNet; its twin net, or any other
        # LabeledPetriNet, given with a base graph is an input error.
        tw, base = build_twin(e2), build_reachability_graph(e2, Budget(200, 20))
        assert search_pattern(tw, STRONG, Budget(200, 20), base).fails
        for net in (tw.net, e2):
            with pytest.raises(InputError, match="read off only for a TwinNet"):
                search_pattern(net, STRONG, Budget(200, 20), base)

    def test_eps_pump_rejects_observable(self, e1):
        v = search_pattern(e1, EPS_PUMP, Budget(100, 100))
        assert v.outcome == HOLDS

    def test_pattern_constructors(self):
        assert (STRONG.eps_pump, STRONG.segments) == (False, 3)
        assert STRONG.final_ok((1, 0, 0, 0, 0, 0))
        assert STRONG.final_ok((0, 0, 0, 0, 0, 1))
        assert not STRONG.final_ok((1, 2, 0, 1, 2, 0))
        # a twin without places has halves that never disagree
        assert not STRONG.final_ok(())
        assert (EPS_PUMP.eps_pump, EPS_PUMP.segments) == (True, 2)
        assert EPS_PUMP.final_ok((0, 7)) and EPS_PUMP.final_ok(())

    def test_final_test_matches_twin_mismatch(self):
        # STRONG's final test against the checked reference, twin.mismatch,
        # on every marking of random twin graphs.
        rng = random.Random(59)
        checked = disagree = 0
        for _ in range(200):
            tw = build_twin(random_net(rng))
            for m in build_reachability_graph(tw.net, Budget(300, 30)).markings:
                assert STRONG.final_ok(m) == mismatch(tw, m)[0]
                checked += 1
                disagree += STRONG.final_ok(m)
        print("markings", checked, "halves disagree", disagree)
        assert disagree >= 1000 and checked - disagree >= 1000

    def test_fails_witness_always_replays(self):
        rng = random.Random(41)
        found = 0
        while found < 15:
            net = random_net(rng)
            tw = build_twin(net)
            v = search_pattern(tw.net, STRONG, Budget(400, 30))
            if v.outcome != FAILS:
                continue
            found += 1
            assert replay_witness(tw.net, STRONG, v.witness)
            # covering-constraint soundness, checked independently here
            pump_start, pump_end, _ = v.witness.markings
            assert leq(pump_start, pump_end)

    def test_replay_rejects_tampered_witnesses(self):
        # e pumps q without observation, c drains it again, d empties p.
        net = make_net(
            ["p", "q"],
            {
                "e": (EPSILON, {"p": 1}, {"p": 1, "q": 1}),
                "c": (EPSILON, {"q": 1}, {}),
                "a": ("a", {"p": 1}, {"p": 1}),
                "d": ("a", {"p": 1}, {}),
            },
            {"p": 1},
        )
        assert replay_witness(net, EPS_PUMP, Witness(((), ("e",)), ((1, 0), (1, 1))))
        for segments, markings in (
            (((),), ((1, 0),)),  # one segment where two are due
            (((), ()), ((1, 0), (1, 0))),  # empty pump
            (((), ("a",)), ((1, 0), (1, 0))),  # observable step in an ε-pump
            ((("d",), ("e",)), ((0, 0), (0, 1))),  # e does not fire without p
            (((), ("e",)), ((1, 0), (1, 2))),  # recorded marking differs
            ((("e",), ("c",)), ((1, 1), (1, 0))),  # pump ends below its start
        ):
            assert not replay_witness(net, EPS_PUMP, Witness(segments, markings))

    def test_holds_only_when_complete(self):
        # on truncated state spaces the search may fail or stay inconclusive,
        # never claim absence
        rng = random.Random(43)
        for _ in range(20):
            net = random_net(rng)
            graph = build_reachability_graph(net, Budget(30, 10))
            if graph.complete:
                continue
            v = search_pattern(net, EPS_PUMP, Budget(30, 10))
            if not any(net.label(t) is EPSILON for t in net.transitions):
                continue  # trivially decided without exploration
            assert v.outcome in (FAILS, INCONCLUSIVE)



def random_digraph(rng, n, p):
    return [(v, w) for v in range(n) for w in range(n) if rng.random() < p]


def successor_lists(n, edges):
    """The successor lists of the edges (v, w) or (v, label, w) on nodes
    0 to n - 1, as an exploration stores them: (label, w) per edge."""
    succ = [[] for _ in range(n)]
    for v, *label, w in edges:
        succ[v].append((label[0] if label else None, w))
    return succ


def _nx_fed_by_cycle(n, edges):
    """The nodes a nontrivial cycle of edges (v, w) reaches, by networkx."""
    g = nx.DiGraph(edges)
    g.add_nodes_from(range(n))
    fed = set()
    for comp in nx.strongly_connected_components(g):
        v = next(iter(comp))
        if len(comp) > 1 or g.has_edge(v, v):
            fed |= comp | nx.descendants(g, v)
    return fed


class TestCycleNodes:
    """_fed_by_cycle: the nodes reachable from a nontrivial cycle."""

    def test_agrees_with_networkx(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 30)
            edges = random_digraph(rng, n, rng.choice((0.02, 0.05, 0.1, 0.3)))
            assert _fed_by_cycle(successor_lists(n, edges)) == _nx_fed_by_cycle(n, edges)

    def test_barred_labels_drop_their_edges(self):
        # Labelled multigraphs with self-loops and parallel edges: barring
        # labels peels as networkx does on the graph without their edges.
        rng, labels = random.Random(53), "abcd"
        hits = Counter()
        for _ in range(300):
            n = rng.randint(1, 25)
            edges = [(rng.randrange(n), rng.choice(labels), rng.randrange(n))
                     for _ in range(rng.randint(0, 3 * n))]
            edges += [(v, rng.choice(labels), v) for v in range(n) if rng.random() < 0.05]
            edges += rng.sample(edges, len(edges) // 4)  # parallel copies
            barred = frozenset(rng.sample(labels, rng.randint(0, len(labels))))
            fed = _fed_by_cycle(successor_lists(n, edges), barred)
            assert fed == _nx_fed_by_cycle(n, [(v, w) for v, t, w in edges if t not in barred])
            hits["barred drops a cycle"] += fed != _fed_by_cycle(successor_lists(n, edges))
            hits["fed"] += bool(fed)
        assert hits["barred drops a cycle"] >= 30 and hits["fed"] >= 30
        assert _fed_by_cycle([]) == set() and _fed_by_cycle([], frozenset("a")) == set()

    def test_long_chain_needs_no_recursion(self):
        n = 20_000
        chain = [(v, v + 1) for v in range(n - 1)]
        assert _fed_by_cycle(successor_lists(n, chain)) == set()
        assert _fed_by_cycle(successor_lists(n, chain + [(n - 1, 0)])) == set(range(n))
        assert _fed_by_cycle(successor_lists(n, chain + [(n - 1, n - 1)])) == {n - 1}


def _fired_witness_search(net, start, pattern, budget):
    """0/1-BFS over (segment, marking, pump anchor, moved) states.

    The nodes are markings fired from start, at most budget.max_states
    distinct ones at most budget.max_depth steps deep, and the pump closes
    once its end covers its anchor.

    Returns (witness-or-None, exhausted, nodes-seen, max-cost). The BFS
    layers count fired transitions, so the first accepted state yields a
    witness of minimal total segment length; ties break on declared
    transition order.
    """
    k = pattern.segments
    truncated = False
    root, covers, marking_of = tuple(start), leq, tuple
    max_depth = budget.max_depth

    def step(m, eps_only):
        nonlocal truncated
        for ti, m2 in successors(net, m):
            if eps_only and net.labels[ti] is not EPSILON:
                continue
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
        if c >= max_depth:
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


class TestWitnessOnGraph:
    """The witness read off the graph against the firing search it replaces.

    _fired_witness_search is that search as it stood before the walk took
    over open graphs, kept here as the reference. Its third result counts
    markings, _witness_search's counts walk states on an open graph and the
    nodes its distance searches stored on a closed one, so only witness,
    exhausted and depth are compared. On a closed graph the witness, read
    off three BFS distances, must equal it run without
    a budget (the depth only where a witness is found, as the walk stops
    there); on a graph cut only by max_depth, it must equal it run under the
    graph's budget, the walk given room for all its states. A graph cut by
    max_states may hold other markings than the ones the firing search saw
    first, so there both witnesses need only replay.
    """

    def test_graph_walk_matches_firing_search(self):
        rng = random.Random(53)
        unbounded = Budget(10**6, 10**6)
        kinds = ("closed", "depth-cut", "state-cut")
        compared = {(q, kind): 0 for q in ("strong", "eps") for kind in kinds}
        found = dict.fromkeys(compared, 0)
        differ = dict.fromkeys(compared, 0)
        for _ in range(500):
            net = random_net(rng)
            tw = build_twin(net)
            for q, n, pattern in (
                ("strong", tw.net, STRONG),
                ("eps", net, EPS_PUMP),
            ):
                start = n.initial_marking
                for budget in (Budget(300, 30), Budget(50, 3)):
                    graph = build_reachability_graph(n, budget)
                    if graph.complete:
                        kind = "closed"
                        walked = _witness_search(graph, pattern, budget)
                        fired = _fired_witness_search(n, start, pattern, unbounded)
                        assert fired[1] or fired[0] is not None  # never truncated
                        assert walked[:2] == fired[:2]
                        assert walked[0] is None or walked[3] == fired[3]
                    elif len(graph.markings) < budget.max_states:
                        kind = "depth-cut"
                        walked = _witness_search(
                            graph, pattern, Budget(10**6, budget.max_depth))
                        fired = _fired_witness_search(n, start, pattern, budget)
                        assert (walked[:2], walked[3]) == (fired[:2], fired[3])
                    else:
                        kind = "state-cut"
                        walked = _witness_search(graph, pattern, budget)
                        fired = _fired_witness_search(n, start, pattern, budget)
                        for witness in (walked[0], fired[0]):
                            assert witness is None or replay_witness(n, pattern, witness)
                        differ[q, kind] += walked[0] != fired[0]
                    compared[q, kind] += 1
                    found[q, kind] += walked[0] is not None
        print("compared", compared, "witnesses", found, "differ", differ)
        assert min(compared.values()) > 0
        assert min(found.values()) >= 10
        assert min(found[q, "closed"] for q in ("strong", "eps")) >= 25

    def test_budget_bounds_the_walk(self, e3, e5):
        # e3's twin graph never closes; the walk stores at most max_states
        # of its (segment, node, anchor) states and finds no witness. So
        # does e5's, which no certificate proves.
        tw = build_twin(e3)
        budget = Budget(2000, 100)
        graph = build_reachability_graph(tw.net, budget)
        assert not graph.complete
        witness, exhausted, states, depth = _witness_search(graph, STRONG, budget)
        assert (witness, exhausted) == (None, False)
        assert states == 2000 and depth <= 100
        v = check_strong(e5, budget)
        assert v.outcome == INCONCLUSIVE and v.stats.states <= 2000

    def test_walk_cut_by_max_states_is_inconclusive(self):
        # The twin graph has 17 markings at depth 3 under both budgets; the
        # walk needs 52 states to reach its witness, so at 50 it gives up.
        net = make_net(
            ["p0", "p1"],
            {
                "t0": (EPSILON, {"p0": 2}, {}),
                "t1": ("b", {"p0": 2, "p1": 2}, {"p0": 2, "p1": 1}),
                "t2": (EPSILON, {"p0": 2}, {"p0": 1, "p1": 1}),
                "t3": ("b", {}, {"p1": 2}),
                "t4": ("a", {}, {"p0": 1, "p1": 1}),
            },
            {},
        )
        tw = build_twin(net)
        v = search_pattern(tw.net, STRONG, Budget(60, 3))
        assert v.outcome == FAILS and v.stats.states == 52
        assert v.witness == Witness(
            (("(t4,t4)",), ("(t4,t4)", "(t2,~)"), ()),
            ((1, 1, 1, 1), (1, 3, 2, 2), (1, 3, 2, 2)),
        )
        v = search_pattern(tw.net, STRONG, Budget(50, 3))
        assert v.outcome == INCONCLUSIVE and v.stats.states == 50

    def test_witness_search_fires_nothing(self, e1, e2, e4, monkeypatch):
        calls, searched = [], []
        real_successors, real_search = explore.successors, explore._witness_search

        def spy(graph, *args, **kw):
            before = len(calls)
            result = real_search(graph, *args, **kw)
            searched.append((graph.complete, len(calls) - before))
            return result

        monkeypatch.setattr(explore, "successors",
                            lambda *args: calls.append(args) or real_successors(*args))
        monkeypatch.setattr(explore, "_witness_search", spy)
        closed = Budget(5000, 1000)
        assert check_strong(e2, closed).fails
        gadget = selfloop_unobservable(e1, (1,))
        assert check_assumptions(gadget.net, closed).no_infinite_unobservable.fails
        assert check_strong(e4, Budget(100000, 20)).fails  # on an open twin graph
        assert searched == [(True, 0), (True, 0), (False, 0)]


    def test_closed_graph_stores_no_walk_state(self, e1, e2, e4, monkeypatch):
        # On a closed graph the witness comes from BFS distances, not from a
        # search over (segment, node, anchor) states on _explore.
        calls, real = [], explore._explore
        monkeypatch.setattr(explore, "_explore",
                            lambda *args: calls.append(args) or real(*args))
        budget = Budget(5000, 1000)
        gadget = selfloop_unobservable(e1, (1,))
        for n, pattern in ((build_twin(e2).net, STRONG), (gadget.net, EPS_PUMP)):
            graph = build_reachability_graph(n, budget)
            assert graph.complete
            witness, exhausted, states, _ = _witness_search(graph, pattern, budget)
            assert replay_witness(n, pattern, witness) and not exhausted and states > 0
        assert calls == []
        graph = build_reachability_graph(build_twin(e4).net, Budget(100, 20))
        assert _witness_search(graph, STRONG, Budget(100, 20))[0] is not None
        assert len(calls) == 1  # an open graph is walked

    def test_anchors_that_reach_no_cycle_are_skipped(self):
        # x holds N tokens that dec moves to y one at a time; only at y:N do
        # up and down form the one unobservable cycle, N steps deep. jump
        # takes x:N to y:N at once and marks c, which drain and tick keep
        # marked: a fed chain of anchors shallower than the cycle, none of
        # which reaches a cycle of unobservable edges. After the first
        # anchor's search ends without a cycle, one reverse peel skips the
        # rest, so the searches store far fewer than |fed| x |graph| nodes.
        n = 500
        net = make_net(["x", "y", "a", "b", "c"], {
            "dec": (EPSILON, {"x": 1, "a": 1}, {"y": 1, "a": 1}),
            "up": (EPSILON, {"y": n, "a": 1}, {"y": n, "b": 1}),
            "down": (EPSILON, {"y": n, "b": 1}, {"y": n, "a": 1}),
            "exit": (EPSILON, {"b": 1}, {"c": 1}),
            "drain": (EPSILON, {"y": 1, "c": 1}, {"c": 1}),
            "jump": ("j", {"x": n, "a": 1}, {"y": n, "c": 1}),
            "tick": ("t", {"c": 1}, {"c": 1}),
        }, {"x": n, "a": 1})
        budget = Budget(20000, 20000)
        graph = build_reachability_graph(net, budget)
        assert graph.complete and len(graph.markings) == 2 * n + 3
        v = search_graph(graph, EPS_PUMP, budget, 0.0)
        assert v.fails and replay_witness(net, EPS_PUMP, v.witness)
        assert v.stats.states <= budget.max_states + len(graph.markings)
        assert v.stats.depth == n + 2
        assert v.witness == Witness((("dec",) * n, ("up", "down")), ((0, n, 1, 0, 0),) * 2)

    def test_tied_anchors(self):
        # A ring of 60 nodes, one of which (node 40) passes the final test:
        # every node up to it is an anchor of a run of total length 100, the
        # ring's cycle through it between the path to it and the path on.
        # The firing search takes the longest alpha, anchored at node 40.
        size, final = 60, 40
        net = _graph_net(size, [(v, (v + 1) % size) for v in range(size)], {final})
        budget = Budget(5000, 1000)
        v = search_graph(build_reachability_graph(net, budget), STRONG, budget, 0.0)
        fired = _fired_witness_search(net, net.initial_marking, STRONG, Budget(10**6, 10**6))
        assert (v.witness, v.stats.depth) == (fired[0], fired[3]) == (v.witness, 100)
        assert [len(seg) for seg in v.witness.segments] == [40, 60, 0]
        # One BFS of the ring per tied anchor and one reverse BFS.
        assert v.stats.states == (final + 2) * size

    def test_tied_anchors_on_two_branches(self):
        # Node 0 leads first to ring A (nodes 1-10), then to ring B (nodes
        # 11-18); the final nodes A2 and B4 give runs of the same total, 13.
        # B4 lies deeper, but the firing search steps in transition order,
        # so it anchors at A2, the deepest tied anchor on the first branch.
        edges = [(0, 1), (0, 11)] + [(1 + i, 1 + (i + 1) % 10) for i in range(10)] \
            + [(11 + i, 11 + (i + 1) % 8) for i in range(8)]
        net = _graph_net(19, edges, {3, 15})
        budget = Budget(5000, 1000)
        v = search_graph(build_reachability_graph(net, budget), STRONG, budget, 0.0)
        fired = _fired_witness_search(net, net.initial_marking, STRONG, Budget(10**6, 10**6))
        assert (v.witness, v.stats.depth) == (fired[0], fired[3])
        assert v.witness.segments[0] == ("t0_1", "t1_2", "t2_3") and v.stats.depth == 13

    def test_benchmark_shapes_match_firing_search(self):
        # Twins and nets the random nets do not resemble: rings with several
        # tokens and the coverability gadgets, both questions. The last net
        # gives ring(4, 2) an unobservable self-loop at (0, 1, 0, 1).
        budget, unbounded = Budget(20000, 2000), Budget(10**6, 10**6)
        base = ring(4, 2)
        nets = [base, ring(5, 2, eps=True)] + [
            coverability_to_strong(base, target).net for target in ((0, 0, 0, 2), (3, 0, 0, 0))
        ] + [selfloop_unobservable(base, (0, 1, 0, 1)).net]
        found = Counter()
        for net in nets:
            for q, n, pattern in (("strong", build_twin(net).net, STRONG),
                                  ("eps", net, EPS_PUMP)):
                graph = build_reachability_graph(n, budget)
                assert graph.complete
                v = search_graph(graph, pattern, budget, 0.0)
                fired = _fired_witness_search(n, n.initial_marking, pattern, unbounded)
                assert (v.fails, v.witness) == (fired[0] is not None, fired[0])
                assert not v.fails or v.stats.depth == fired[3]
                found[q] += v.fails
        assert found == {"strong": 4, "eps": 1}


def _graph_net(size, edges, final):
    """A net whose reachability graph is the given graph on nodes 0..size-1
    from node 0, the edges (u, v) in transition order, named t{u}_{v}.

    Node v marks q_v and r_v, so the halves of its marking agree, except at
    a node in final, which marks r_{v+1} instead: there STRONG's final test
    passes. Only node u marks q_u, so only its transitions are enabled.
    """
    def marks(v):
        return {f"q{v}": 1, f"r{(v + (v in final)) % size}": 1}

    places = [f"q{v}" for v in range(size)] + [f"r{v}" for v in range(size)]
    transitions = {f"t{u}_{v}": ("a", marks(u), marks(v)) for u, v in edges}
    return make_net(places, transitions, marks(0))


def _marking_capped_estimate(net, word, budget):
    """estimate as it stood before it ran on the package's one search: a
    cap on distinct markings plus a depth cap on (marking, position)
    states. Kept as the reference that estimate is compared against."""
    word = tuple(word)
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
        for ti, m2 in successors(net, m):
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


class TestEstimate:
    def test_e2_word_aa(self, e2, budget):
        est, complete = estimate(e2, ("a", "a"), budget)
        assert complete
        assert est == frozenset({(1, 0), (0, 1)})

    def test_empty_word_closure(self, budget):
        from lpndetect import make_net
        from lpndetect.net import EPSILON

        net = make_net(
            ["p", "q"],
            {"u": (EPSILON, {"p": 1}, {"q": 1}), "t": ("a", {"q": 1}, {"q": 1})},
            {"p": 1},
        )
        est, complete = estimate(net, (), budget)
        assert complete
        assert est == frozenset({(1, 0), (0, 1)})

    def test_unknown_symbol(self, e1, budget):
        with pytest.raises(InputError):
            estimate(e1, ("z",), budget)

    def test_matches_marking_capped_search(self):
        # The budget now counts (marking, position) states, not markings, so
        # either side may close where the other is cut; where both close they
        # agree, and neither holds a marking outside the large-budget result.
        rng = random.Random(67)
        large = Budget(5000, 500)
        budgets = (Budget(8, 4), Budget(40, 10), Budget(200, 30))
        records = both = only_ref = only_new = 0
        for _ in range(600):
            net = random_net(rng)
            for _ in range(2):
                word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
                big = estimate(net, word, large)[0]
                for budget in budgets:
                    ref = _marking_capped_estimate(net, word, budget)
                    new = estimate(net, word, budget)
                    assert ref[0] <= big and new[0] <= big, (net, word, budget)
                    if ref[1] and new[1]:
                        assert ref[0] == new[0], (net, word, budget)
                        both += 1
                    only_ref += ref[1] and not new[1]
                    only_new += new[1] and not ref[1]
                    records += 1
        print("records", records, "complete on both", both,
              "only reference complete", only_ref, "only estimate complete", only_new)
        assert records == 3600 and both > 2800

    def test_budget_bounds_the_work(self, monkeypatch):
        # An ε-producer beside an observable self-loop: every position of a
        # long word has unboundedly many markings. Each stored state is
        # expanded once, so the budget caps the firings, not just the markings.
        net = make_net(
            ["p", "q"],
            {"t": (EPSILON, {"p": 1}, {"p": 1, "q": 1}), "u": ("a", {"p": 1}, {"p": 1})},
            {"p": 1},
        )
        calls = []
        real_successors = explore.successors
        monkeypatch.setattr(explore, "successors",
                            lambda *args: calls.append(args) or real_successors(*args))
        assert estimate(net, ("a",) * 400, Budget(300, 10**6)) == (frozenset(), False)
        assert len(calls) <= 300
