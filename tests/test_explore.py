import random

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
    search_pattern,
)
from lpndetect.explore import (
    _cycle_nodes,
    _witness_search,
    km_nodes,
    replay_witness,
    strong_detectability_pattern,
    unobservable_cycle_pattern,
)
from lpndetect.net import InputError, leq

from netgen import random_net


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
        with pytest.raises(InputError):
            Budget(0, 10)


class TestKarpMiller:
    def test_e1(self, e1):
        root = build_km_tree(e1)
        assert root.marking == (1,)
        assert [c.marking for c in root.children] == [(1,)]

    def test_e3_accelerates(self, e3):
        root = build_km_tree(e3)
        assert root.marking == (1, 0)
        assert root.children[0].marking == (1, OMEGA)

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
        pattern = strong_detectability_pattern(len(tw.net.places))
        v = search_pattern(tw.net, tw.net.initial_marking, pattern, Budget(200, 20))
        assert v.outcome == FAILS
        assert v.witness.segments == ((), ("(t,u)",), ())
        assert replay_witness(tw.net, tw.net.initial_marking, pattern, v.witness)

    def test_e1_twin_holds(self, e1):
        tw = build_twin(e1)
        pattern = strong_detectability_pattern(len(tw.net.places))
        v = search_pattern(tw.net, tw.net.initial_marking, pattern, Budget(1000, 50))
        assert v.outcome == HOLDS

    def test_e3_twin_inconclusive(self, e3):
        tw = build_twin(e3)
        pattern = strong_detectability_pattern(len(tw.net.places))
        v = search_pattern(tw.net, tw.net.initial_marking, pattern, Budget(200, 20))
        assert v.outcome == INCONCLUSIVE

    def test_unobservable_cycle_pattern_rejects_observable(self, e1):
        v = search_pattern(
            e1, e1.initial_marking, unobservable_cycle_pattern(), Budget(100, 100)
        )
        assert v.outcome == HOLDS

    def test_pattern_constructors(self):
        strong = strong_detectability_pattern(6)
        assert not strong.eps_pump
        assert strong.mismatch_pairs == ((0, 3), (1, 4), (2, 5))
        assert strong.final_ok((1, 0, 0, 0, 0, 0))
        assert not strong.final_ok((1, 2, 0, 1, 2, 0))
        # a twin without places has halves that never disagree
        assert not strong_detectability_pattern(0).final_ok(())
        cycle = unobservable_cycle_pattern()
        assert cycle.eps_pump
        assert cycle.mismatch_pairs is None
        assert cycle.final_ok((0, 7))

    def test_fails_witness_always_replays(self):
        rng = random.Random(41)
        found = 0
        while found < 15:
            net = random_net(rng)
            tw = build_twin(net)
            pattern = strong_detectability_pattern(len(tw.net.places))
            v = search_pattern(
                tw.net, tw.net.initial_marking, pattern, Budget(400, 30)
            )
            if v.outcome != FAILS:
                continue
            found += 1
            assert replay_witness(tw.net, tw.net.initial_marking, pattern, v.witness)
            # covering-constraint soundness, checked independently here
            pump_start, pump_end, _ = v.witness.markings
            assert leq(pump_start, pump_end)

    def test_holds_only_when_complete(self):
        # on truncated state spaces the search may fail or stay inconclusive,
        # never claim absence
        rng = random.Random(43)
        for _ in range(20):
            net = random_net(rng)
            graph = build_reachability_graph(net, Budget(30, 10))
            if graph.complete:
                continue
            v = search_pattern(
                net, net.initial_marking, unobservable_cycle_pattern(), Budget(30, 10)
            )
            if not any(not net.is_observable(t) for t in net.transitions):
                continue  # trivially decided without exploration
            assert v.outcome in (FAILS, INCONCLUSIVE)



def random_digraph(rng, n, p):
    return [(v, w) for v in range(n) for w in range(n) if rng.random() < p]


class TestCycleNodes:
    def test_agrees_with_networkx(self):
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 30)
            edges = random_digraph(rng, n, rng.choice((0.02, 0.05, 0.1, 0.3)))
            g = nx.DiGraph(edges)
            g.add_nodes_from(range(n))
            expected = {v for v, w in edges if v == w}
            for comp in nx.strongly_connected_components(g):
                if len(comp) > 1:
                    expected |= comp
            assert _cycle_nodes(n, edges) == expected

    def test_long_chain_needs_no_recursion(self):
        n = 20_000
        chain = [(v, v + 1) for v in range(n - 1)]
        assert _cycle_nodes(n, chain) == set()
        assert _cycle_nodes(n, chain + [(n - 1, 0)]) == set(range(n))
        assert _cycle_nodes(n, chain + [(n - 1, n - 1)]) == {n - 1}


class TestWitnessOnGraph:
    """The closed-graph walk against the firing search it replaces."""

    def test_graph_walk_matches_firing_search(self):
        rng = random.Random(53)
        budget = Budget(300, 300)
        unbounded = Budget(10**6, 10**6)
        compared = {"strong": 0, "eps": 0}
        found = {"strong": 0, "eps": 0}
        while min(compared.values()) < 300 or min(found.values()) < 25:
            net = random_net(rng)
            tw = build_twin(net)
            for kind, n, pattern in (
                ("strong", tw.net, strong_detectability_pattern(len(tw.net.places))),
                ("eps", net, unobservable_cycle_pattern()),
            ):
                graph = build_reachability_graph(n, budget)
                if not graph.complete:
                    continue
                start = n.initial_marking
                on_graph = _witness_search(n, start, pattern, budget, graph)
                fired = _witness_search(n, start, pattern, unbounded)
                assert fired[1] or fired[0] is not None  # never truncated
                assert on_graph == fired
                compared[kind] += 1
                found[kind] += on_graph[0] is not None


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
