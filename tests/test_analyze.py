import ast
import itertools
import math
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest

from lpndetect import (
    Budget,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Verdict,
    Witness,
    build_observer,
    build_reachability_graph,
    build_twin,
    check_assumptions,
    check_opacity,
    check_strong,
    check_strong_oracle,
    check_weak,
    estimate,
    make_net,
)
from lpndetect import analyze, explore
from lpndetect.analyze import AssumptionError, Observer, explore_observer, marking_observer
from lpndetect.gadgets import inclusion_to_weak, secret_marking, selfloop_unobservable
from lpndetect.net import (
    EPSILON,
    InputError,
    enabled,
    fire_sequence,
    observation,
    successors,
)
from lpndetect.twin import TwinNet, project

from netgen import (
    bounded_observable_net,
    bounded_wellformed_net,
    language_inclusion,
    random_net,
    ring,
    token_net,
)


class _Truthy(set):
    """A set that reads as nonempty, so that check_weak's certificate
    (no node from which singleton steps reach a cycle) never applies."""

    def __bool__(self):
        return True


def _certificates_off(mp):
    """Send check_weak and check_opacity to the observer: neither observer
    certificate applies, and check_weak tests no root estimate first. The
    token-count deadlock certificate is off too, so that the gate builds
    the graph of a net only it covers."""
    mp.setattr(analyze, "_secret_escapes", lambda net, secret_set: False)
    mp.setattr(analyze, "_token_live", lambda net: False)
    mp.setattr(analyze, "_root_cycle", lambda net, budget: (None, None))
    real = analyze._live
    mp.setattr(analyze, "_live", lambda succ: _Truthy(real(succ)))


def _spy_peels(mp) -> list:
    """The node counts of the peels check_weak runs, in order: the graph's
    (analyze._live) and each cycle search's (analyze._fed_by_cycle)."""
    peeled = []
    for name in ("_live", "_fed_by_cycle"):
        real = getattr(analyze, name)
        mp.setattr(analyze, name, lambda succ, real=real: peeled.append(len(succ)) or real(succ))
    return peeled


@pytest.fixture
def no_certificates(monkeypatch):
    _certificates_off(monkeypatch)


class TestAssumptions:
    def test_e1_both_hold(self, e1, budget):
        rep = check_assumptions(e1, budget)
        assert rep.deadlock_free.holds
        assert rep.no_infinite_unobservable.holds

    def test_selfloop_gadget_fails(self, e1, budget):
        gadget = selfloop_unobservable(e1, (1,))
        rep = check_assumptions(gadget.net, budget)
        assert rep.no_infinite_unobservable.fails
        seg = rep.no_infinite_unobservable.witness.segments[1]
        assert seg == ("t_cover_loop",)

    def test_deadlock_detected(self, budget):
        net = make_net(["p"], {"t": ("a", {"p": 1}, {})}, {"p": 1})
        rep = check_assumptions(net, budget)
        assert rep.deadlock_free.fails
        assert rep.deadlock_free.witness.markings == ((0,),)
        assert rep.deadlock_free.witness.segments == (("t",),)

    def test_deadlock_scan_reads_stored_successors(self, e5, budget, monkeypatch):
        # The graph fires once per stored node and the scan fires nothing.
        # p is no transition's only input place, so no certificate covers
        # the bounded shuttle.
        calls = []
        real = explore.successors
        monkeypatch.setattr(explore, "successors",
                            lambda *args: calls.append(args) or real(*args))
        dead_end = make_net(["p"], {"t": ("a", {"p": 1}, {})}, {"p": 1})
        shuttle = make_net(["p", "q", "s"], {"t": ("a", {"p": 1, "s": 1}, {"q": 1, "s": 1}),
                                             "u": ("b", {"q": 1}, {"p": 1})},
                           {"p": 1, "s": 1})
        for net, outcome in ((shuttle, HOLDS), (dead_end, FAILS)):
            calls.clear()
            rep = check_assumptions(net, budget)
            assert rep.deadlock_free.outcome == outcome
            assert len(calls) == len(rep.graph.markings)
        # A node whose successors the budget cut is live, not a deadlock.
        for cutting in (Budget(100, 50), Budget(5, 100)):
            rep = check_assumptions(e5, cutting)
            last = len(rep.graph.markings) - 1
            assert not rep.graph.succ[last] and last in rep.graph.cut
            assert rep.deadlock_free.outcome == INCONCLUSIVE

    def test_unbounded_deadlock_free_inconclusive(self, e5):
        for b in (Budget(100, 50), Budget(50, 10), Budget(1000, 50), Budget(20000, 500)):
            rep = check_assumptions(e5, b)
            assert rep.deadlock_free.outcome == INCONCLUSIVE
            assert rep.no_infinite_unobservable.holds  # no unobservable transitions

    def test_eps_pump_at_the_root_grows_no_further(self, monkeypatch):
        # t stays enabled and grows q forever; u is an ε self-loop at the
        # root. Only the ε question is open and t may raise the marking, so
        # the gate grows its graph on demand: t's first edge covers its
        # source, and the walk finds the pump at the root. The whole graph
        # holds 2000 markings; the witness is its.
        net = make_net(["p", "q"], {"t": ("a", {"p": 1}, {"p": 1, "q": 1}),
                                    "u": (EPSILON, {"p": 1}, {"p": 1})}, {"p": 1})
        budget = Budget(2000, 2000)
        calls, real = [], explore.successors
        monkeypatch.setattr(explore, "successors", lambda *args: calls.append(args) or real(*args))
        rep = check_assumptions(net, budget)
        assert rep.deadlock_free.holds and len(rep.graph.markings) <= 3 and len(calls) <= 3
        whole = build_reachability_graph(net, budget)
        ref = explore.search_graph(whole, explore.EPS_PUMP, budget, 0.0)
        assert len(whole.markings) == 2000
        assert rep.no_infinite_unobservable.witness == ref.witness == \
            Witness(((), ("u",)), ((1, 0), (1, 0)))
        with pytest.raises(AssumptionError):
            check_strong(net, budget)

    def test_gate_grown_on_demand_matches_the_whole_graph(self, monkeypatch):
        # The reference gate builds its graph whole wherever it builds one
        # (explore.build_reachability_graph), and so answers the ε question
        # by search_graph on the whole graph. On the strong (rng 11) and
        # weak (rng 7) corpus nets that the gate grows a graph on demand
        # for, both verdicts, outcome, witness, message and stats, are the
        # reference's, and a report that fails neither holds the whole
        # graph. A failing ε answer may store fewer markings. The other
        # nets take the reference's path.
        nets = [random_net(rng, max_places=5, max_trans=6, eps_prob=0.3)
                for rng, count in ((random.Random(11), 600), (random.Random(7), 1500))
                for _ in range(count)]
        fields = ("states", "succ", "parent", "depth", "cut")
        fewer, grown, real = Counter(), [], analyze._graph_on_demand
        monkeypatch.setattr(analyze, "_graph_on_demand",
                            lambda *args: grown.append(args) or real(*args))

        def key(v):
            return v.outcome, v.witness, v.message, v.stats.states, v.stats.depth

        for net in nets:
            for budget in (Budget(2000, 100), Budget(300, 30)):
                grown.clear()
                ours = check_assumptions(net, budget)
                if not grown:
                    continue
                fewer["grown", budget.max_states] += 1
                with monkeypatch.context() as mp:
                    mp.setattr(analyze, "_graph_on_demand", build_reachability_graph)
                    ref = check_assumptions(net, budget)
                assert key(ours.deadlock_free) == key(ref.deadlock_free)
                assert key(ours.no_infinite_unobservable) == key(ref.no_infinite_unobservable)
                assert (ours.graph is None) == (ref.graph is None)
                if ours.graph is None:
                    continue
                if not ours.any_fails:
                    assert [getattr(ours.graph, f) for f in fields] == \
                        [getattr(ref.graph, f) for f in fields]
                if len(ours.graph.markings) < len(ref.graph.markings):
                    fewer[ours.no_infinite_unobservable.outcome, budget.max_states] += 1
        print("grown on demand, and storing fewer markings", dict(fewer))
        assert set(fewer) <= {("grown", 2000), ("grown", 300), (FAILS, 2000), (FAILS, 300)}
        assert fewer[FAILS, 2000] >= 100 and fewer["grown", 2000] >= 500


class TestCheckStrong:
    def test_e1_holds(self, e1, budget):
        assert check_strong(e1, budget).outcome == HOLDS

    def test_e2_fails_with_pinned_witness(self, e2, budget):
        v = check_strong(e2, budget)
        assert v.outcome == FAILS
        # minimal total length is 2; both segments verified by replay in-library
        assert v.witness.segments == (("(t1,t2)",), ("(t1,t3)",), ())

    def test_e5_inconclusive(self, e5):
        assert check_strong(e5, Budget(200, 20)).outcome == INCONCLUSIVE

    def test_e4_fails_depth_one(self, e4):
        v = check_strong(e4, Budget(200, 20))
        assert v.outcome == FAILS
        assert v.witness.segments == ((), ("(t,u)",), ())

    def test_assumption_violation_raises(self, budget):
        net = make_net(["p"], {"t": ("a", {"p": 1}, {})}, {"p": 1})
        with pytest.raises(AssumptionError):
            check_strong(net, budget)

    def test_mismatch_off_the_pump_cycle(self, budget):
        # the halves disagree only on (q, r), which lies on no cycle: a^k b
        # leaves the marking ambiguous for every k, then c resolves it
        net = make_net(
            ["p", "q", "r", "s"],
            {
                "t1": ("a", {"p": 1}, {"p": 1}),
                "t2": ("b", {"p": 1}, {"q": 1}),
                "t3": ("b", {"p": 1}, {"r": 1}),
                "t4": ("c", {"q": 1}, {"s": 1}),
                "t5": ("c", {"r": 1}, {"s": 1}),
                "t6": ("d", {"s": 1}, {"s": 1}),
            },
            {"p": 1},
        )
        v = check_strong(net, budget)
        assert v.outcome == FAILS
        assert v.witness.segments == ((), ("(t1,t1)",), ("(t2,t3)",))
        assert check_strong_oracle(net, budget) is False

    def test_net_without_places_holds(self, budget):
        # one marking only, so every run's current marking is known
        net = make_net([], {"t": ("a", {}, {})}, {})
        assert check_strong(net, budget).outcome == HOLDS
        assert check_strong_oracle(net, budget) is True


class TestStrongOracle:
    def test_fixtures(self, e1, e2, gadcov):
        assert check_strong_oracle(e1) is True
        assert check_strong_oracle(e2) is False
        assert check_strong_oracle(gadcov.net) is False

    def test_unbounded_rejected(self, e3):
        with pytest.raises(InputError):
            check_strong_oracle(e3, Budget(100, 100))

    def test_agreement_random(self, budget):
        rng = random.Random(51)
        for _ in range(25):
            net, _ = bounded_wellformed_net(rng)
            v = check_strong(net, budget)
            assert v.outcome in (HOLDS, FAILS)
            assert (v.outcome == HOLDS) == check_strong_oracle(net, budget)


class TestObserver:
    def test_e1(self, e1):
        obs = build_observer(e1)
        assert obs.states == [frozenset({(1,)})]
        assert obs.succ[0] == (("a", 0),)

    def test_e2_subset_construction(self, e2):
        obs = build_observer(e2)
        assert obs.states[0] == frozenset({(1, 0)})
        big = dict(obs.succ[0])["a"]
        assert obs.states[big] == frozenset({(1, 0), (0, 1)})
        assert obs.succ[big] == (("a", big),)

    def test_matches_estimate(self, e2, budget):
        obs = build_observer(e2)
        state = 0
        for k in range(1, 4):
            state = dict(obs.succ[state])["a"]
            est, complete = estimate(e2, ("a",) * k, budget)
            assert complete
            assert obs.states[state] == est

    def test_unbounded_rejected(self, e3):
        with pytest.raises(InputError):
            build_observer(e3, Budget(100, 100))


# The observer as it stood before it was read off the reachability graph: a
# subset construction that fires every marking again, its ε-closures sharing
# one allowance of budget.max_states distinct markings. Kept verbatim as the
# reference for the construction over graph node ids.


class _BudgetTracker:
    def __init__(self, budget: Budget):
        self.max_states = budget.max_states
        self.markings = set()

    def admit(self, m) -> bool:
        if m in self.markings:
            return True
        if len(self.markings) >= self.max_states:
            return False
        self.markings.add(m)
        return True


def _eps_closure(net, markings, tracker: _BudgetTracker):
    """Closure under unobservable firings; None if the budget ran out."""
    out = set()
    queue = deque()
    for m in markings:
        if not tracker.admit(m):
            return None
        out.add(m)
        queue.append(m)
    while queue:
        m = queue.popleft()
        for ti, m2 in successors(net, m):
            if net.labels[ti] is not EPSILON or m2 in out:
                continue
            if not tracker.admit(m2):
                return None
            out.add(m2)
            queue.append(m2)
    return frozenset(out)


def _fired_observer(net, budget: Budget, goal=None) -> Observer:
    """Budgeted subset construction over the net's markings.

    Every stored state is an exact estimate. The ε-closures share one
    allowance of budget.max_states distinct markings; a successor whose
    closure would exceed it is not stored, nor is any state when the
    initial closure would, and complete is then False. goal stops the
    search as in explore_observer.
    """
    tracker = _BudgetTracker(budget)
    symbols = sorted(net.alphabet)

    def expand(state):
        fired = [(net.labels[ti], m2) for m in state for ti, m2 in successors(net, m)]
        for sym in symbols:
            targets = {m2 for lab, m2 in fired if lab == sym}
            if targets:
                yield sym, _eps_closure(net, targets, tracker)

    return explore._explore(
        _eps_closure(net, {net.initial_marking}, tracker), expand, budget, goal)


def _eps_chain(n):
    """n tokens on c, each removed by ε; an observable a-loop on q."""
    return make_net(
        ["c", "q"],
        {"e": (None, {"c": 1}, {}), "a": ("a", {"q": 1}, {"q": 1})},
        {"c": n, "q": 1},
    )


class TestObserverOnGraph:
    """The observer is a subset construction over the stored reachability
    graph and fires nothing."""

    def test_matches_firing_observer(self, monkeypatch, no_certificates):
        # Where the graph and the reference both close they must agree
        # exactly. A budget-cut graph may stop the observer elsewhere, so
        # there every stored state must still be an exact estimate, and
        # verdicts, which are sound on both sides, must never conflict. At
        # Budget(2000, 100) only closed graphs are compared: on the open ones
        # the reference and the estimates of up to 2000 deep states take
        # minutes.
        rng = random.Random(71)
        # The ε-chain's 51 markings fit the reference's closure allowance, but
        # at Budget(300, 30) its graph is cut 30 firings deep, so the observer,
        # which needs a closed graph, is inconclusive where the reference
        # decides: the one net whose verdicts are known to differ.
        nets = [random_net(rng, eps_prob=0.35) for _ in range(300)] + [_eps_chain(50)]
        exact = Budget(300, 200)  # a complete estimate is exact under any budget

        def fired(graph, budget, goal=None):
            # The checks read states and goals as node ids of graph: a
            # marking it has not stored is appended as a new node.
            node = {m: v for v, m in enumerate(graph.markings)}

            def ids(est):
                for m in est:
                    if m not in node:
                        node[m] = len(graph.markings)
                        graph.markings.append(m)
                return frozenset(map(node.__getitem__, est))

            obs = _fired_observer(net, budget, goal and (lambda est: goal(ids(est))))
            obs.states[:] = map(ids, obs.states)
            return obs

        compared = checked = 0
        differ = Counter()
        for budget, open_too in ((Budget(300, 30), True), (Budget(50, 3), True),
                                 (Budget(2000, 100), False)):
            for net in nets:
                graph = build_reachability_graph(net, budget)
                if not (graph.complete or open_too):
                    continue
                obs = marking_observer(graph, budget)
                ref = _fired_observer(net, budget)
                if ref.complete and graph.complete:
                    compared += 1
                    assert (obs.states, obs.succ, obs.parent, obs.depth, obs.complete) \
                        == (ref.states, ref.succ, ref.parent, ref.depth, ref.complete)
                for v, state in enumerate(obs.states):
                    est, complete = estimate(net, obs.path_to(v), exact)
                    if complete:
                        checked += 1
                        assert est == state
                verdicts = []
                for observer in (explore_observer, fired):
                    monkeypatch.setattr(analyze, "explore_observer", observer)
                    try:
                        weak = check_weak(net, budget)
                        weak = (weak.outcome, weak.witness)
                    except AssumptionError:
                        weak = None
                    opaque = check_opacity(net, [net.initial_marking], budget)
                    verdicts.append((weak, (opaque.outcome, opaque.witness)))
                for kind, ours, theirs in zip(("weak", "opacity"), *verdicts):
                    differ[kind] += ours != theirs
                    if ours and theirs and INCONCLUSIVE not in (ours[0], theirs[0]):
                        assert ours == theirs
        print(f"observers compared {compared}, estimates checked {checked}, "
              f"verdicts differing from the firing observer {dict(differ)}")
        assert compared >= 450 and checked >= 2000
        assert differ == Counter(weak=1, opacity=1)  # the ε-chain's, nothing else

    def test_eps_chain_is_one_linear_closure(self):
        # Every node's ε-closure is its tail of the chain; one estimate holds
        # all 3001 markings. Per-node closures would keep about n²/2 node ids.
        net, budget = _eps_chain(3000), Budget()
        graph = build_reachability_graph(net, budget)
        tracemalloc.start()
        try:
            obs = marking_observer(graph, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = _fired_observer(net, budget)
        assert obs.complete and len(obs.states[0]) == 3001
        assert (obs.states, obs.succ, obs.parent, obs.depth) \
            == (ref.states, ref.succ, ref.parent, ref.depth)
        assert peak < 10_000_000

    def test_cut_nodes_keep_estimates_exact(self, monkeypatch):
        # Under ε, t adds a token to c forever, so the graph is cut at its
        # deepest node; u never fires. The estimate of the empty word is
        # every (1, k), not a subset of the secret, so a stored estimate
        # {(1,0)..(1,3)} read off the cut graph would be a wrong fails.
        net = make_net(
            ["p", "c"],
            {"t": (None, {"p": 1}, {"p": 1, "c": 1}), "u": ("a", {"c": 5}, {"c": 5})},
            {"p": 1},
        )
        secret = [(1, k) for k in range(4)]
        for budget in (Budget(100, 3), Budget(4, 100)):
            with monkeypatch.context() as mp:
                _certificates_off(mp)
                assert marking_observer(build_reachability_graph(net, budget),
                                        budget).states == []
                assert check_opacity(net, secret, budget).outcome == INCONCLUSIVE
            # t keeps raising c, so every estimate holds (1, 4): certified.
            v = check_opacity(net, secret, budget)
            assert v.outcome == HOLDS and v.stats.states == 0

    def test_reads_the_gate_graph_and_fires_nothing(self, e2, budget, monkeypatch):
        graph = build_reachability_graph(e2, budget)
        fired = []

        def counting(*args):
            fired.append(args)
            return successors(*args)

        monkeypatch.setattr(explore, "successors", counting)  # analyze fires nothing
        assert marking_observer(graph, budget).complete
        assert fired == []
        built = []

        def building(net, *args, **kwargs):
            built.append(net)
            return build_reachability_graph(net, *args, **kwargs)

        for module in (analyze, explore):
            monkeypatch.setattr(module, "build_reachability_graph", building)
        assert check_weak(e2, budget).fails
        assert built == [e2]


class TestCheckWeak:
    def test_e1_holds(self, e1, budget):
        assert check_weak(e1, budget).outcome == HOLDS

    def test_e2_fails(self, e2, budget):
        v = check_weak(e2, budget)
        assert v.outcome == FAILS
        assert v.witness is None

    def test_inclusion_gadget_holds_when_not_included(self, budget):
        g1 = make_net(
            ["p"],
            {"t": ("s", {"p": 1}, {"p": 1}), "u": ("c", {"p": 1}, {"p": 1})},
            {"p": 1},
        )
        g2 = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
        gadget = inclusion_to_weak(g1, g2)
        assert check_weak(gadget.net, Budget(20000, 2000)).outcome == HOLDS

    def test_unbounded_inconclusive(self, e3):
        v = check_weak(e3, Budget(100, 50))
        assert v.outcome == INCONCLUSIVE


class TestCheckOpacity:
    def test_e1_initial_estimate_secret(self, e1, budget):
        v = check_opacity(e1, [(1,)], budget)
        assert v.outcome == FAILS
        assert v.witness.word == ()
        assert v.witness.estimate == frozenset({(1,)})

    def test_e2_opaque(self, e2, budget):
        assert check_opacity(e2, [(0, 1)], budget).outcome == HOLDS

    def test_single_marking_form(self, e1, budget):
        assert check_opacity(e1, (1,), budget).outcome == FAILS

    def test_wrong_dimension(self, e1, budget):
        with pytest.raises(InputError):
            check_opacity(e1, [(1, 0)], budget)

    def test_secret_entries_are_non_negative_integers(self, e2, budget):
        for bad in ([("x", 1)], [(-1, 0)], [(0, 1), (1, 0.5)], [(True, 0)]):
            with pytest.raises(InputError, match="non-negative integers"):
                check_opacity(e2, bad, budget)

    def test_a_secret_that_is_no_marking_is_an_input_error(self, e2, budget):
        # An entry that is neither a count nor a marking, or a secret that
        # is no sequence at all, is malformed input, not a TypeError.
        for bad in ([1, (0, 1)], 5, None):
            message = f"secret must be a marking or markings, not {bad!r}"
            with pytest.raises(InputError, match=re.escape(message)):
                check_opacity(e2, bad, budget)

    def test_exact_initial_estimate_of_a_truncated_observer(self):
        # After b the unobservable t1 pumps q forever, so the observer never
        # closes; the estimate of the empty word, {(0, 0)}, is still exact.
        net = make_net(
            ["p", "q"],
            {"t0": ("b", {}, {"p": 1}), "t1": (EPSILON, {"p": 1}, {"p": 1, "q": 1})},
            {},
        )
        for budget in (Budget(), Budget(50, 3)):
            v = check_opacity(net, [(0, 0)], budget)
            assert v.outcome == FAILS
            assert v.witness.word == ()
            assert v.witness.estimate == estimate(net, (), budget)[0] == {(0, 0)}

    def test_blown_initial_closure_stores_no_state(self, monkeypatch):
        net = make_net(
            ["p", "q"],
            {"t": (EPSILON, {"p": 1}, {"p": 1, "q": 1}), "u": ("a", {"p": 1}, {"p": 1})},
            {"p": 1},
        )
        budget = Budget(50, 5)
        with monkeypatch.context() as mp:
            _certificates_off(mp)
            obs = marking_observer(build_reachability_graph(net, budget), budget)
            assert obs.states == [] and obs.succ == [] and not obs.complete
            v = check_opacity(net, [(1, 0)], budget)
            assert v.outcome == INCONCLUSIVE
            assert (v.stats.states, v.stats.depth) == (0, 0)
        # t leads (1, 0) to (1, 1) unobservably: certified.
        v = check_opacity(net, [(1, 0)], budget)
        assert v.outcome == HOLDS and v.message.startswith("certificate: ")
        assert (v.stats.states, v.stats.depth) == (0, 0)

    def test_complement_of_weak_on_gadget(self, budget):
        g = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
        gadget = inclusion_to_weak(g, g)
        b = Budget(20000, 2000)
        weak = check_weak(gadget.net, b)
        opaque = check_opacity(gadget.net, [secret_marking(gadget)], b)
        assert weak.outcome == FAILS
        assert opaque.outcome == HOLDS


def _scanned_opacity(net, secret, budget):
    """check_opacity as it stood before its observer stopped at the first
    secret estimate: the whole observer, scanned in BFS order. Kept as the
    reference. Returns (outcome, witness, states, depth)."""
    obs = marking_observer(build_reachability_graph(net, budget), budget)
    size = (len(obs.states), max(obs.depth, default=0))
    for v, state in enumerate(obs.states):
        if state and state <= secret:
            return (FAILS, analyze.OpacityWitness(obs.path_to(v), state)) + size
    return (HOLDS if obs.complete else INCONCLUSIVE, None) + size


class TestOpacityStopsEarly:
    """check_opacity's observer stops at the first secret estimate."""

    def test_matches_the_whole_observer_scan(self, monkeypatch, no_certificates):
        # check_opacity's observer reads the graph grown on demand, the
        # reference the whole built graph. Both have the same node ids,
        # successors and cuts, closed or open, so outcome and witness agree
        # and so do the stats, as the observer stops early only at a
        # failure. On an open graph every estimate stored on demand must
        # also be exact: the closure of its parent's step fired on the net,
        # and on a sample, the estimate of its word.
        rng, pick = random.Random(73), random.Random(1)
        cases = []
        for k in (3, 4, 5, 6):
            for n in (1, 2, 3):
                for eps in (False, True):
                    cases += [(ring(k, n, eps), Budget(5000, 1000))] * 6
        for i in range(300):
            net = random_net(rng, eps_prob=0.3)
            cases += [(net, Budget(300, 30)), (net, Budget(50, 3))]
            if i < 40:
                cases.append((net, Budget(2000, 100)))
        real, seen = explore_observer, []

        def spy(graph, budget, goal=None):
            seen[:] = [graph, real(graph, budget, goal)]
            return seen[1]

        monkeypatch.setattr(analyze, "explore_observer", spy)
        outcomes, fewer, stepped, exact, open_graphs = Counter(), 0, 0, 0, 0
        for net, budget in cases:
            whole = build_reachability_graph(net, budget)
            secret = set(rng.sample(whole.markings, min(len(whole.markings),
                                                        rng.randint(1, 3))))
            outcome, witness, states, depth = _scanned_opacity(net, frozenset(secret), budget)
            ours = check_opacity(net, secret, budget)  # observed last
            assert (ours.outcome, ours.witness) == (outcome, witness)
            outcomes[outcome, whole.complete] += 1
            if outcome == FAILS:
                assert ours.stats.depth == len(witness.word)
            if outcome == FAILS:
                assert ours.stats.states <= states and ours.stats.depth <= depth
                fewer += ours.stats.states < states
            else:
                assert (ours.stats.states, ours.stats.depth) == (states, depth)
            if whole.complete:
                continue
            open_graphs += 1
            graph, obs = seen
            ests = [{graph.markings[u] for u in nodes} for nodes in obs.states]
            for v, est in enumerate(ests):  # the parent's step, fired and closed
                u, sym = obs.parent[v] or (None, None)
                step = {m2 for m in ests[u] for ti, m2 in successors(net, m)
                        if net.labels[ti] == sym} if v else {net.initial_marking}
                assert est == _eps_closure(net, step, _BudgetTracker(Budget()))
                stepped += 1
            # estimate, the independent reference, on a sample, the last among it
            for v in {len(ests) - 1, *pick.sample(range(len(ests)), min(4, len(ests)))} - {-1}:
                est, complete = estimate(net, obs.path_to(v), Budget(300, 200))
                if complete:
                    exact += 1
                    assert est == ests[v]
        print("records", len(cases), dict(outcomes), "fewer states", fewer, "open graphs",
              open_graphs, "estimates on open graphs stepped", stepped, "and estimated", exact)
        assert len(cases) == 784 and fewer >= 120 and stepped >= 4000 and exact >= 500
        assert open_graphs >= 280
        assert outcomes[FAILS, True] >= 400 and outcomes[HOLDS, True] >= 35
        assert outcomes[FAILS, False] >= 80 and outcomes[INCONCLUSIVE, False] >= 180

    def test_fires_only_what_its_estimates_need(self, monkeypatch, no_certificates):
        # The observer reads a graph grown as it asks: of ring(8, 4)'s 330
        # markings it expands those up to the last one that the estimates
        # up to b b b b hold or try, and no whole graph is built.
        net, budget = ring(8, 4), Budget(20000, 2000)
        grown, built, real = [], [], analyze._graph_on_demand
        monkeypatch.setattr(analyze, "_graph_on_demand",
                            lambda *args: grown.append(real(*args)) or grown[-1])
        for module in (analyze, explore):
            monkeypatch.setattr(module, "build_reachability_graph",
                                lambda *args: built.append(args))
        v = check_opacity(net, [(0, 4, 0, 0, 0, 0, 0, 0)], budget)
        assert v.outcome == FAILS and v.witness.word == ("b",) * 4 and built == []
        [graph] = grown
        assert len(graph.succ) < len(graph.markings) < 330
        print("expanded", len(graph.succ), "of", len(graph.markings))

    def test_a_long_first_run_cuts_no_closed_graph(self, monkeypatch):
        # One token; e1, e2 are unobservable. The initial closure reads y,
        # two firings deep, which first reaches x three deep, though b2
        # reaches it two deep: a graph fired in the order of reading would
        # cut y past max_depth 2, where the whole graph closes and cuts
        # nothing. The graph grown on demand is breadth first, so its cuts
        # are the whole graph's. At max_depth 1 it is open.
        net = make_net(["p", "q", "y", "u", "x"], {
            "e1": (EPSILON, {"p": 1}, {"q": 1}), "e2": (EPSILON, {"q": 1}, {"y": 1}),
            "a": ("a", {"p": 1}, {"u": 1}), "b1": ("b", {"y": 1}, {"x": 1}),
            "b2": ("b", {"u": 1}, {"x": 1}), "c": ("c", {"x": 1}, {"p": 1})}, {"p": 1})
        secret = {(0, 0, 0, 0, 1)}
        for budget, outcome in ((Budget(100, 2), FAILS), (Budget(100, 1), INCONCLUSIVE)):
            v = check_opacity(net, secret, budget)
            ref = _scanned_opacity(net, secret, budget)
            assert (v.outcome, v.witness, v.stats.states, v.stats.depth) == ref
            assert v.outcome == outcome
        assert v.witness is None and check_opacity(net, secret, Budget(100, 3)).fails

    def test_ring_stops_at_its_first_secret_estimate(self):
        # ring(8, 4) with all four tokens on p1: seen after b b b b.
        net, budget = ring(8, 4), Budget(20000, 2000)
        full = marking_observer(build_reachability_graph(net, budget), budget)
        assert len(full.states) == 1740
        v = check_opacity(net, [(0, 4, 0, 0, 0, 0, 0, 0)], budget)
        assert v.outcome == FAILS and v.witness.word == ("b",) * 4
        assert (v.stats.states, v.stats.depth) == (12, 4)


def _peeled_weak(net, budget):
    """check_weak as it stood before it stopped at the first singleton cycle:
    the whole observer, decided by the peel of its singleton estimates. Kept
    as the reference. Returns (outcome, states, depth), or None where the
    assumption gate raises."""
    report = check_assumptions(net, budget)
    if report.any_fails:
        return None
    graph = report.graph if report.graph is not None else build_reachability_graph(net, budget)
    obs = marking_observer(graph, budget)
    size = (len(obs.states), max(obs.depth, default=0))
    if not obs.complete:
        return (INCONCLUSIVE,) + size
    singles = {v for v, s in enumerate(obs.states) if len(s) == 1}
    steps = [[(sym, w) for sym, w in out if w in singles] if v in singles else []
             for v, out in enumerate(obs.succ)]
    return (HOLDS if explore._fed_by_cycle(steps) else FAILS,) + size


_CYCLE = re.compile(r"the estimate after the word (.*) is \{(.*)\}, and singleton "
                    r"estimates return to it under the word (.*)")


def _check_named_cycle(net, message):
    """The message's words replay: the prefix's estimate is {m}, and every
    prefix of the cycle's word keeps a singleton estimate, ending at {m}."""
    word, m, loop = _CYCLE.fullmatch(message).groups()
    word = () if word == "(empty)" else tuple(word.split())
    m, loop, exact = ast.literal_eval(m), tuple(loop.split()), Budget(20000, 2000)
    assert estimate(net, word, exact) == ({m}, True)
    for k in range(1, len(loop) + 1):
        est, complete = estimate(net, word + loop[:k], exact)
        assert complete and len(est) == 1
    assert est == {m}


def _incl2weak_drop():
    """inclusion_to_weak(ring(4, 2), ring(4, 2) without its last transition)."""
    g1 = ring(4, 2, labels=("s", "c"))
    g2 = replace(g1, transitions=g1.transitions[:-1], pre=g1.pre[:-1],
                 post=g1.post[:-1], labels=g1.labels[:-1])
    return inclusion_to_weak(g1, g2).net


class TestWeakStopsEarly:
    """check_weak's observer stops at the first singleton estimate from which
    singleton estimates reach a cycle."""

    def test_matches_the_whole_observer_peel(self, no_certificates):
        rng = random.Random(79)
        big = Budget(20000, 2000)
        cases = [(ring(k, n, eps), big) for k in range(3, 10) for n in range(1, 5)
                 for eps in (False, True)]
        included = Counter()  # language_inclusion(g1, g2) -> pairs taken
        while min(included[True], included[False]) < 12:
            g1, g2 = (bounded_observable_net(rng, max_places=3, max_trans=3, max_weight=1,
                                             symbols=("s", "c")) for _ in range(2))
            included[language_inclusion(g1, g2)] += 1
            cases.append((inclusion_to_weak(g1, g2).net, big))
        for eps_prob in (0.1, 0.3):
            for _ in range(300):
                net = random_net(rng, eps_prob=eps_prob)
                cases += [(net, Budget(300, 30)), (net, Budget(50, 3))]
        outcomes, early, fewer = Counter(), 0, 0
        for net, budget in cases:
            ref = _peeled_weak(net, budget)
            try:
                ours = check_weak(net, budget)
            except AssumptionError:
                assert ref is None
                outcomes["raises"] += 1
                continue
            outcome, states, depth = ref
            if outcome == INCONCLUSIVE and ours.holds:  # the goal, met on an open graph
                outcomes["inconclusive to holds"] += 1
                assert ours.stats.states <= states and ours.stats.depth <= depth
                _check_named_cycle(net, ours.message)
                continue
            assert ours.outcome == outcome
            outcomes[outcome] += 1
            if outcome == HOLDS:  # only the stop proves it
                early += 1
                assert ours.stats.states <= states and ours.stats.depth <= depth
                fewer += ours.stats.states < states
                _check_named_cycle(net, ours.message)
            else:
                assert (ours.stats.states, ours.stats.depth) == (states, depth)
        print("records", len(cases), dict(outcomes), "early stops", early,
              "fewer states", fewer)
        assert len(cases) == 1286 and early >= 120 and fewer >= 40 and outcomes[FAILS] >= 60
        assert outcomes["inconclusive to holds"] >= 40

    def test_ring_stops_at_its_root(self):
        # ring(8, 4): {4 tokens on p0} is singleton and returns to itself.
        net, budget = ring(8, 4), Budget(20000, 2000)
        full = marking_observer(build_reachability_graph(net, budget), budget)
        assert len(full.states) == 1740
        v = check_weak(net, budget)
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (1, 0)
        assert v.message == (
            "the estimate after the word (empty) is {(4, 0, 0, 0, 0, 0, 0, 0)}, and "
            "singleton estimates return to it under the word " + " ".join("bbbbaaaa" * 4))
        _check_named_cycle(net, v.message)

    def test_root_not_a_singleton(self, budget):
        # The root estimate is {p, q, r}; after a it is {s}, which b keeps.
        net = make_net(
            ["p", "q", "r", "s"],
            {"e1": (EPSILON, {"p": 1}, {"q": 1}), "e2": (EPSILON, {"p": 1}, {"r": 1}),
             "u1": ("a", {"q": 1}, {"s": 1}), "u2": ("a", {"r": 1}, {"s": 1}),
             "b": ("b", {"s": 1}, {"s": 1})},
            {"p": 1},
        )
        v = check_weak(net, budget)
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (2, 1)
        assert v.message == ("the estimate after the word a is {(0, 0, 0, 1)}, and "
                             "singleton estimates return to it under the word b")

    def test_later_singleton_after_a_search_without_cycle(self, monkeypatch,
                                                          no_certificates):
        # The gadget's root estimate is a singleton from which singleton
        # steps reach no cycle: x makes three branches. The 47th stored
        # estimate is the first to reach one; the whole observer has 172
        # states. One peel covers the graph's 101 nodes, one more the 3
        # nodes of the cycle search at the stop.
        net, budget = _incl2weak_drop(), Budget(20000, 2000)
        searched = _spy_peels(monkeypatch)
        v = check_weak(net, budget)
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (47, 7)
        assert searched == [101, 3]
        assert _peeled_weak(net, budget) == (HOLDS, 172, 18)
        _check_named_cycle(net, v.message)

    def test_memo_skips_searched_nodes(self, budget, monkeypatch, no_certificates):
        # Root {p}: d leads to {s}, a to {q1, q2}; {s} leads only to
        # {q1, q2}. Singleton steps reach a cycle from r alone, so neither
        # {p} nor {s} stops the observer; {r} after a b does, and c keeps
        # it. The graph's 5 nodes are peeled once, and the search at {r}
        # does not enter s by d.
        net = make_net(
            ["p", "s", "q1", "q2", "r"],
            {"pa1": ("a", {"p": 1}, {"q1": 1}), "pa2": ("a", {"p": 1}, {"q2": 1}),
             "pd": ("d", {"p": 1}, {"s": 1}),
             "sa1": ("a", {"s": 1}, {"q1": 1}), "sa2": ("a", {"s": 1}, {"q2": 1}),
             "qb1": ("b", {"q1": 1}, {"r": 1}), "qb2": ("b", {"q2": 1}, {"r": 1}),
             "rc": ("c", {"r": 1}, {"r": 1}), "rd": ("d", {"r": 1}, {"s": 1})},
            {"p": 1},
        )
        searched = _spy_peels(monkeypatch)
        v = check_weak(net, budget)
        assert searched == [5, 1]  # the graph, then the search at {r}
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (4, 2)
        assert v.message == ("the estimate after the word a b is {(0, 0, 0, 0, 1)}, and "
                             "singleton estimates return to it under the word c")

    def test_a_step_with_an_eps_successor_is_no_singleton(self, budget, no_certificates):
        # The step from {p} by a is {q}, whose ε-closure is {q, r}: no
        # singleton follows {p}, although q alone would keep itself by b.
        net = make_net(
            ["p", "q", "r", "s"],
            {"a": ("a", {"p": 1}, {"q": 1}), "b": ("b", {"q": 1}, {"q": 1}),
             "e": (EPSILON, {"q": 1}, {"r": 1}), "c1": ("c", {"r": 1}, {"r": 1}),
             "c2": ("c", {"r": 1}, {"s": 1}), "c3": ("c", {"s": 1}, {"s": 1}),
             "c4": ("c", {"s": 1}, {"r": 1})},
            {"p": 1},
        )
        v = check_weak(net, budget)
        assert v.outcome == FAILS and v.stats.states == _peeled_weak(net, budget)[1] == 3

    def test_estimate_without_successor_raises_after_the_stop(self, monkeypatch):
        # The hard check covers the estimates expanded before the stop.
        real = explore_observer

        def lonely(graph, budget, goal=None):
            obs = real(graph, budget, goal)
            obs.succ[0] = ()
            return obs

        monkeypatch.setattr(analyze, "explore_observer", lonely)
        with pytest.raises(RuntimeError, match="has no successor"):
            check_weak(_incl2weak_drop(), Budget(20000, 2000))


class TestWeakRootTest:
    """Where certificates proved both assumptions, check_weak first asks
    whether the initial estimate is a singleton whose singleton steps reach
    a cycle, on a graph expanded on demand."""

    def test_live_on_a_tree_cut_by_max_states(self):
        # A tree that max_states cuts still expanded every node it stored,
        # so the peel in _live may number its nodes 0 to len(succ) - 1: it
        # agrees with networkx on the reversed steps, cycles and all.
        rng, hits = random.Random(61), Counter()
        for _ in range(400):
            net = random_net(rng, eps_prob=0.0, symbols=("a", "b", "c", "d"))
            tree, _ = analyze._root_cycle(net, Budget(rng.randint(2, 12), 100))
            if not tree.cut:
                continue
            assert len(tree.succ) == len(tree.states) >= 2
            reversed_steps = nx.DiGraph((w, u) for u, out in enumerate(tree.succ)
                                        for _, w in out)
            reversed_steps.add_nodes_from(range(len(tree.states)))
            expected = set()
            for comp in nx.strongly_connected_components(reversed_steps):
                v = next(iter(comp))
                if len(comp) > 1 or reversed_steps.has_edge(v, v):
                    expected |= comp | nx.descendants(reversed_steps, v)
            live = analyze._live(tree.succ)
            assert live == expected
            hits["cut"] += 1
            hits["live"] += bool(live)
            hits["live, not all"] += 0 < len(live) < len(tree.states)
        assert hits["cut"] >= 120 and hits["live"] >= 40 and hits["live, not all"] >= 5

    def test_matches_the_whole_graph_path(self, monkeypatch):
        # Against check_weak with the root test and the token-count
        # certificate off: every `holds` and `fails` keeps its outcome,
        # message and stats, and an `inconclusive` stays as it is or
        # becomes `holds`, on an open graph. Most open-graph `holds` are
        # found on both paths: the observer stops at the root there too.
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        try:
            from families import WORKLOADS, instances
        finally:
            sys.path.remove(str(SRC.parent / "perfbench"))
        cases = [(inst.net, WORKLOADS["observer_bounded"].budget) for seed in range(3)
                 for inst in instances("observer_bounded", seed) if inst.check == "weak"]
        rng = random.Random(7)
        nets = [random_net(rng, max_places=5, max_trans=6, eps_prob=0.3) for _ in range(200)]
        cases += [(net, budget) for budget in (Budget(50, 5), Budget(300, 30), Budget(2000, 100))
                  for net in nets]

        def fields(net, budget):
            try:
                v = check_weak(net, budget)
            except AssumptionError:
                return None
            return v.outcome, v.message, v.stats.states, v.stats.depth

        # A spy sees each whole graph built after the root test found a cycle.
        cycled, late = [], []
        root, build = analyze._root_cycle, analyze.build_reachability_graph
        with monkeypatch.context() as mp:
            mp.setattr(analyze, "_root_cycle",
                       lambda *args: cycled.append(root(*args)) or cycled[-1])
            mp.setattr(analyze, "build_reachability_graph", lambda *args: late.extend(
                args[0] for _, cycle in cycled if cycle) or build(*args))
            ours = []
            for net, budget in cases:
                cycled.clear()
                ours.append(fields(net, budget))
        assert late == []
        with monkeypatch.context() as mp:
            mp.setattr(analyze, "_token_live", lambda net: False)
            mp.setattr(analyze, "_root_cycle", lambda net, budget: (None, None))
            whole = [fields(net, budget) for net, budget in cases]
        hits = Counter()
        for (net, budget), v, ref in zip(cases, ours, whole):
            if ref is not None and ref[0] == INCONCLUSIVE and v[0] == HOLDS:
                hits["inconclusive to holds"] += 1
                assert not build_reachability_graph(net, budget).complete
                assert (v[2], v[3]) == (1, 0)
                _check_named_cycle(net, v[1])
                continue
            assert v == ref
            hits[ref and ref[0]] += 1
            hits["root holds"] += v is not None and v[:1] + v[2:] == (HOLDS, 1, 0)
            hits["open holds"] += v is not None and v[0] == HOLDS and \
                not build_reachability_graph(net, budget).complete
        print("records", len(cases), dict(hits))
        assert len(cases) == 621 and hits["open holds"] >= 10
        assert hits[HOLDS] >= 30 and hits[FAILS] >= 10 and hits[INCONCLUSIVE] >= 90
        assert hits["root holds"] >= 25

    def test_fires_only_what_its_steps_need(self, monkeypatch):
        # ring(8, 4): the gate certifies both assumptions, and the root
        # test fires the markings its singleton steps reach, each once:
        # 80, not the graph's 330; no whole graph is built.
        net, budget = ring(8, 4), Budget(20000, 2000)
        fired, built, real = [], [], analyze.successors
        monkeypatch.setattr(analyze, "successors", lambda g, m: fired.append(m) or real(g, m))
        for module in (analyze, explore):
            monkeypatch.setattr(module, "build_reachability_graph",
                                lambda *args: built.append(args))
        v = check_weak(net, budget)
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (1, 0)
        assert built == [] and len(fired) == len(set(fired)) == 80

    def test_unbounded_net_holds(self):
        # t grows q by a; b keeps p's token where it is. {(1, 0)} is the
        # initial estimate, and b returns it to itself: `holds`, though
        # the graph never closes and the observer would be inconclusive
        # (e3, without b, stays inconclusive: TestCheckWeak).
        net = make_net(["p", "q"], {"t": ("a", {"p": 1}, {"p": 1, "q": 1}),
                                    "u": ("b", {"p": 1}, {"p": 1})}, {"p": 1})
        for budget in (Budget(50, 5), Budget(2000, 100)):
            v = check_weak(net, budget)
            assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (1, 0)
            assert v.message == ("the estimate after the word (empty) is {(1, 0)}, and "
                                 "singleton estimates return to it under the word b")

    def test_names_the_whole_graphs_cycle(self, monkeypatch):
        # One token. From r, p leads to a and q to b; s moves it between b
        # and c, and t from c to a. a's two u steps lead to d1 and d2, so
        # no singleton step leaves a: the steps reach a cycle from r, b and
        # c, not from a, though the cycle reaches a. The root test lists
        # a's steps too, and must still name the cycle the whole graph's
        # peel names, through b.
        net = make_net(["r", "a", "b", "c", "d1", "d2"], {
            "rp": ("p", {"r": 1}, {"a": 1}), "rq": ("q", {"r": 1}, {"b": 1}),
            "bs": ("s", {"b": 1}, {"c": 1}), "cs": ("s", {"c": 1}, {"b": 1}),
            "ct": ("t", {"c": 1}, {"a": 1}),
            "u1": ("u", {"a": 1}, {"d1": 1}), "u2": ("u", {"a": 1}, {"d2": 1}),
            "v1": ("v", {"d1": 1}, {"d1": 1}), "v2": ("v", {"d2": 1}, {"d2": 1})},
            {"r": 1})
        budget = Budget(100, 10)
        v = check_weak(net, budget)
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (1, 0)
        assert v.message == ("the estimate after the word q is {(0, 0, 1, 0, 0, 0)}, and "
                             "singleton estimates return to it under the word s s")
        with monkeypatch.context() as mp:
            mp.setattr(analyze, "_root_cycle", lambda net, budget: (None, None))
            whole = check_weak(net, budget)
        assert (whole.message, whole.stats.states, whole.stats.depth) == (v.message, 1, 0)

    def test_names_the_nearest_cycle(self):
        # Net 126 of the weak corpus (tests/corpus.py). b adds a token to p
        # and a takes one; both ε transitions need two tokens on q, so each
        # (k, 1) is ε-closed and steps by b to (k + 1, 1) and, if k > 0, by a
        # to (k - 1, 1). The cycle named is the one nearest the root, not
        # one at the far end of the cut graph, 98 b deep.
        net = make_net(["p", "q"], {"t0": (EPSILON, {"p": 2, "q": 2}, {"p": 2}),
                                    "t1": ("b", {}, {"p": 1}), "t2": ("a", {"p": 1}, {}),
                                    "t3": (EPSILON, {"q": 2}, {})}, {"q": 1})
        v = check_weak(net, Budget(2000, 100))
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (1, 0)
        assert v.message == ("the estimate after the word (empty) is {(0, 1)}, and "
                             "singleton estimates return to it under the word b a")
        _check_named_cycle(net, v.message)

    def test_a_cycle_past_a_cut_can_be_the_closed_graphs(self, monkeypatch):
        # One token. x's a-loop, after a a, is the whole graph's first
        # cycle. The root test steps along singleton steps only, so it
        # reaches y from x, three deep, though z1 reaches it two deep: at
        # max_depth 2 it cuts x's step to y, though it keeps x's a-loop.
        # The cycle it finds stands, and here it is the one the observer
        # over the closed whole graph names, as with the root test off;
        # at max_depth 3 nothing is cut.
        net = make_net(["r", "p", "x", "q", "y", "z1", "z2"], {
            "ra": ("a", {"r": 1}, {"p": 1}),
            "rc1": ("c", {"r": 1}, {"z1": 1}), "rc2": ("c", {"r": 1}, {"z2": 1}),
            "pa": ("a", {"p": 1}, {"x": 1}), "pd": ("d", {"p": 1}, {"q": 1}),
            "xa": ("a", {"x": 1}, {"x": 1}), "xg": ("g", {"x": 1}, {"y": 1}),
            "qd": ("d", {"q": 1}, {"q": 1}), "yb": ("b", {"y": 1}, {"y": 1}),
            "z1e": ("e", {"z1": 1}, {"y": 1}), "z2e": ("e", {"z2": 1}, {"z2": 1})},
            {"r": 1})
        for budget in (Budget(100, 2), Budget(100, 3)):
            assert check_assumptions(net, budget).graph is None
            assert build_reachability_graph(net, budget).complete
            v = check_weak(net, budget)
            assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (1, 0)
            assert v.message == ("the estimate after the word a a is {(0, 0, 1, 0, 0, 0, 0)}, "
                                 "and singleton estimates return to it under the word a")
            with monkeypatch.context() as mp:
                mp.setattr(analyze, "_root_cycle", lambda net, budget: (None, None))
                assert check_weak(net, budget).message == v.message
        tree, cycle = analyze._root_cycle(net, Budget(100, 2))
        assert cycle[::2] == (("a", "a"), ["a"]) and tree.cut == {2}
        assert tree.states[2] == (0, 0, 1, 0, 0, 0, 0) and len(tree.states) < 100

    def test_a_cycle_past_a_cut_for_depth_stands(self, monkeypatch):
        # One token, on r. At max_depth 2 the root test cuts v's a step to
        # w, so it misses the a-cycle through u, v and w and finds y's
        # d-loop after c. The whole graph closes at that budget, and its
        # observer would name u's a a a cycle after a, but the root test's
        # cycle stands and no graph is built. At max_depth 3 nothing is
        # cut, and the root test names u's cycle itself.
        net = make_net(["r", "u", "v", "w", "y", "z"], {
            "ra": ("a", {"r": 1}, {"u": 1}), "rb1": ("b", {"r": 1}, {"w": 1}),
            "rb2": ("b", {"r": 1}, {"z": 1}), "rc": ("c", {"r": 1}, {"y": 1}),
            "ua": ("a", {"u": 1}, {"v": 1}), "va": ("a", {"v": 1}, {"w": 1}),
            "wa": ("a", {"w": 1}, {"u": 1}), "yd": ("d", {"y": 1}, {"y": 1}),
            "ze": ("e", {"z": 1}, {"z": 1})}, {"r": 1})
        built, real = [], analyze.build_reachability_graph
        monkeypatch.setattr(analyze, "build_reachability_graph",
                            lambda *args: built.append(args) or real(*args))
        expected = {
            2: "the estimate after the word c is {(0, 0, 0, 0, 1, 0)}, and singleton "
               "estimates return to it under the word d",
            3: "the estimate after the word a is {(0, 1, 0, 0, 0, 0)}, and singleton "
               "estimates return to it under the word a a a"}
        for depth, message in expected.items():
            budget = Budget(100, depth)
            assert check_assumptions(net, budget).graph is None
            assert build_reachability_graph(net, budget).complete
            v = check_weak(net, budget)
            assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (1, 0)
            assert v.message == message
        assert built == []
        tree, _ = analyze._root_cycle(net, Budget(100, 2))
        assert tree.cut == {3} and tree.states[3] == (0, 0, 1, 0, 0, 0)

    def test_root_with_an_eps_successor_is_no_singleton(self):
        # b never lowers s, and e removes q's token unobservably: both
        # assumptions are certified, but the initial estimate holds (1, 1, 1)
        # and (1, 0, 1). c then leaves {(1, 0, 1)}, which b keeps: the
        # observer, not the root test, stops there.
        net = make_net(["p", "q", "s"], {
            "b": ("b", {"s": 1}, {"s": 1}), "e": (EPSILON, {"q": 1}, {}),
            "x": ("c", {"q": 1}, {})}, {"p": 1, "q": 1, "s": 1})
        assert check_assumptions(net, Budget(100, 10)).graph is None
        v = check_weak(net, Budget(100, 10))
        assert v.outcome == HOLDS and (v.stats.states, v.stats.depth) == (2, 1)
        assert v.message == ("the estimate after the word c is {(1, 0, 1)}, and "
                             "singleton estimates return to it under the word b")

    def test_replay_budget_counts_the_fired_markings(self, monkeypatch):
        # The replay's budget is the word's length plus one, times the
        # markings the root test stored: 36 of ring(6, 3)'s 56.
        net, seen = ring(6, 3), []
        real = analyze._replayed
        monkeypatch.setattr(analyze, "_replayed",
                            lambda *args: seen.append(args[-1]) or real(*args))
        tree, cycle = analyze._root_cycle(net, Budget(20000, 2000))
        assert cycle is not None and not tree.cut
        assert check_weak(net, Budget(20000, 2000)).holds
        assert seen == [len(tree.states)] == [36]


class TestWeakOnOpenGraphs:
    """On a graph the budget cut, check_weak runs the observer only with its
    goal and only if singleton steps reach a cycle from some node: a goal
    met is a sound `holds`, and no such node leaves `inconclusive` at once."""

    def test_no_observer_that_cannot_answer(self, monkeypatch):
        # The weak corpus of tests/corpus.py at two budgets that cut most of
        # its graphs, and rings with a c-loop at their initial marking,
        # which the budgets cut and Budget(2000, 200) does not. A spy sees
        # every observer run: each has a goal and a node it can stop at. An
        # open graph's `holds` agrees with the verdict at Budget(2000, 200)
        # wherever that graph closes: on the rings, through the root
        # test without ε and through the observer's goal with it.
        from corpus import _nets

        def looped(k, n, eps):
            trans = {f"t{i}": (EPSILON if eps and i % 3 == 2 else "ba"[i % 2],
                               {f"p{i}": 1}, {f"p{(i + 1) % k}": 1}) for i in range(k)}
            trans["c"] = ("c", {"p0": n}, {"p0": n})
            return make_net([f"p{i}" for i in range(k)], trans, {"p0": n})

        corpus, big = _nets(7, 1500), Budget(2000, 200)
        rings = [looped(k, n, eps) for k in range(4, 9) for n in (2, 3) for eps in (False, True)]
        runs, real = [], explore_observer

        def spy(graph, budget, goal=None):
            live = analyze._live([analyze._steps(graph.symbols, graph[u], graph.rows.get(u), u)
                                  for u in range(len(graph.markings))])
            runs.append((goal is not None, bool(live)))
            return real(graph, budget, goal)

        monkeypatch.setattr(analyze, "explore_observer", spy)
        hits = Counter()
        for budget in (Budget(50, 5), Budget(300, 30)):
            for net in corpus + rings:
                runs.clear()
                try:
                    v = check_weak(net, budget)
                except AssumptionError:
                    continue
                assert all(goal and live for goal, live in runs)
                graph = build_reachability_graph(net, budget)
                if graph.complete:
                    continue
                if v.message.startswith("no singleton steps reach a cycle"):
                    hits["no live node", budget] += 1
                    assert v.outcome == INCONCLUSIVE and runs == []
                    assert (v.stats.states, v.stats.depth) == \
                        (len(graph.markings), max(graph.depth))
                elif v.holds:
                    hits["goal met", budget, net in rings] += bool(runs)
                    _check_named_cycle(net, v.message)
                    if build_reachability_graph(net, big).complete:
                        hits["agrees when closed", bool(runs)] += 1
                        assert check_weak(net, big).holds
        print(dict(hits))
        for budget in (Budget(50, 5), Budget(300, 30)):
            assert hits["no live node", budget] >= 285 and hits["goal met", budget, False] >= 3
        assert hits["agrees when closed", False] >= 10 and hits["agrees when closed", True] >= 10


class TestOneExplorer:
    """The reachability graph and the observer share one breadth-first
    search, and so one budget rule."""

    def test_one_budget_rule(self):
        # Both close at depth 1: the node at max_depth is expanded, and its
        # successors are already stored.
        net = make_net(
            ["p", "q"],
            {"ta": ("a", {"p": 1}, {"q": 1}), "tb": ("b", {"q": 1}, {"p": 1})},
            {"p": 1},
        )
        budget = Budget(100, 1)
        graph = build_reachability_graph(net, budget)
        assert graph.complete and graph.depth == [0, 1]
        obs = marking_observer(graph, budget)
        assert obs.complete and obs.depth == [0, 1]
        assert obs.succ == [(("a", 1),), (("b", 0),)]
        # check_weak stops at the root: {p} -a-> {q} -b-> {p} is its cycle.
        v = check_weak(net, budget)
        assert v.outcome == HOLDS
        assert (v.stats.states, v.stats.depth) == (1, 0)

    def test_paths_off_the_bfs_tree(self):
        # Deadlock witnesses and observer words are read off parent links;
        # they must be shortest paths, checked against networkx and estimate.
        rng = random.Random(61)
        budget = Budget(300, 30)
        deadlocks = observers = 0
        for _ in range(300):
            net = random_net(rng)
            rep = check_assumptions(net, budget)
            if rep.deadlock_free.fails:
                deadlocks += 1
                (path,), (dead,) = rep.deadlock_free.witness.segments, \
                    rep.deadlock_free.witness.markings
                assert fire_sequence(net, net.initial_marking, path) == dead
                assert not any(enabled(net, dead, t) for t in net.transitions)
                graph = build_reachability_graph(net, budget)
                g = nx.DiGraph([(v, w) for v, _, w in graph.edges])
                g.add_nodes_from(range(len(graph.markings)))
                assert len(path) == nx.shortest_path_length(g, 0, graph.markings.index(dead))
            obs = marking_observer(build_reachability_graph(net, budget), budget)
            if not obs.complete:
                continue
            observers += 1
            for v, state in enumerate(obs.states):
                word = obs.path_to(v)
                assert len(word) == obs.depth[v]
                assert estimate(net, word, budget) == (state, True)
        assert deadlocks >= 50 and observers >= 100


class TestWitnessPumping:
    def test_pumping_formula(self, e2, e4, budget):
        for net in (e2, e4):
            v = check_strong(net, Budget(500, 30))
            assert v.outcome == FAILS
            tw = build_twin(net)
            alpha, beta, gamma = v.witness.segments
            m1, m2, m3 = v.witness.markings
            half = tw.half
            for m in (0, 1, 2, 5):
                pumped = alpha + beta * (m + 1) + gamma
                s1, s2 = project(tw, pumped)
                assert observation(net, s1) == observation(net, s2)
                end1 = fire_sequence(net, net.initial_marking, s1)
                end2 = fire_sequence(net, net.initial_marking, s2)
                for i, end in ((0, end1), (1, end2)):
                    lo, hi = i * half, (i + 1) * half
                    expect = tuple(
                        m3[j] + m * (m2[j] - m1[j]) for j in range(lo, hi)
                    )
                    assert end == expect


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def e2_eps():
    # e2 with its branch made unobservable: bounded, no unobservable loop
    return make_net(
        ["p", "q"],
        {
            "t1": ("a", {"p": 1}, {"p": 1}),
            "u": (EPSILON, {"p": 1}, {"q": 1}),
            "t3": ("a", {"q": 1}, {"q": 1}),
        },
        {"p": 1},
    )


class TestCertificates:
    def test_certificates_agree_with_the_graphs(self):
        # Each certificate is sound: where it holds, no graph refutes it.
        rng = random.Random(7)
        budget = Budget(2000, 100)
        certified = Counter()
        for _ in range(600):
            net = random_net(rng, max_places=5, max_trans=6, eps_prob=0.3)
            live, ranked = analyze._forever_enabled(net), analyze._eps_ranked(net)
            token = analyze._token_live(net)
            has_eps = EPSILON in net.labels
            if live or token or (ranked and has_eps):
                graph = build_reachability_graph(net, budget)
            if live:
                certified["live"] += 1
                assert all(enabled(net, m, live) for m in graph.markings)
                assert all(out or v in graph.cut for v, out in enumerate(graph.succ))
            if token:
                certified["token"] += 1
                assert all(out or v in graph.cut for v, out in enumerate(graph.succ))
            if ranked and has_eps:
                certified["ranked"] += 1
                assert not explore.search_graph(graph, explore.EPS_PUMP, budget, 0.0).fails
            tw = build_twin(net)
            if analyze._twin_invariant(tw):
                certified["twin"] += 1
                v = explore.search_pattern(tw.net, explore.STRONG, budget)
                assert not v.fails
                if build_reachability_graph(tw.net, budget).complete:
                    assert v.holds
        print("certified", dict(certified))
        assert certified["live"] >= 200 and certified["token"] >= 5
        assert certified["ranked"] >= 50 and certified["twin"] >= 50

    def test_token_count_certificate_leaves_no_dead_node(self, e5):
        # Where the token-count certificate holds, no graph has a dead node:
        # on random nets (those at max_weight 1 meet its weight-1 arcs more
        # often) and on nets built to meet its arc conditions, where it
        # holds iff a token starts somewhere. e5's q is no transition's
        # input, so it stays uncertified, as its fixture says.
        assert not analyze._token_live(e5) and analyze._forever_enabled(e5) is None
        rng = random.Random(7)
        nets = [random_net(rng, max_weight=1) for _ in range(600)]
        rng = random.Random(5)
        built = [token_net(rng) for _ in range(300)]
        assert all(analyze._token_live(net) == any(net.initial_marking) for net in built)
        hits = Counter()
        for tag, net in [("random", net) for net in nets] + [("built", net) for net in built]:
            if not analyze._token_live(net):
                continue
            hits[tag] += 1
            hits["only this certificate"] += analyze._forever_enabled(net) is None
            graph = build_reachability_graph(net, Budget(300, 30))
            hits["closed"] += graph.complete
            assert all(out or v in graph.cut for v, out in enumerate(graph.succ))
        print(dict(hits))
        assert hits["random"] >= 20 and hits["built"] >= 180
        assert hits["only this certificate"] >= 50 and hits["closed"] >= 60


class TestObserverCertificates:
    """Weak `fails` from the graph's singleton steps and opacity `holds` from
    unobservable exits out of the secret set, decided before any observer."""

    def test_certified_verdicts_match_the_observer(self, monkeypatch):
        # Each check runs with the certificates and without them. A certified
        # verdict equals the observer's wherever the graph closes; on an open
        # graph, words of stored paths replay to no secret estimate. A weak
        # `holds` of the root test, where the observer's is inconclusive,
        # is on an open graph and names a cycle that replays. A weak check
        # whose open graph has no live node reports that graph's stats,
        # where the observer is inconclusive. Every other verdict is the
        # observer's, stats and message included.
        rng = random.Random(83)
        big = Budget(20000, 2000)
        cases = [(ring(k, n, eps), big) for k in range(3, 8) for n in range(1, 4)
                 for eps in (False, True)]
        for _ in range(12):
            g1, g2 = (bounded_observable_net(rng, max_places=3, max_trans=3, max_weight=1,
                                             symbols=("s", "c")) for _ in range(2))
            cases.append((inclusion_to_weak(g1, g2).net, big))
        cases += [(_eps_chain(50), big), (_eps_chain(50), Budget(300, 30))]
        for _ in range(100):
            net = random_net(rng, eps_prob=0.35)
            cases += [(net, Budget(300, 30)), (net, Budget(50, 3))]

        def both(check):
            """check() with the certificates, then without; None where the
            assumption gate raises."""
            out = []
            for off in (False, True):
                with monkeypatch.context() as mp:
                    if off:
                        _certificates_off(mp)
                    try:
                        out.append(check())
                    except AssumptionError:
                        out.append(None)
            return out

        def fields(v):
            return v and (v.outcome, v.witness, v.stats.states, v.stats.depth, v.message)

        hits = Counter()
        for net, budget in cases:
            graph = build_reachability_graph(net, budget)
            ours, observed = both(lambda: check_weak(net, budget))
            if ours is not None and ours.message.startswith("certificate: "):
                hits["weak"] += 1
                assert graph.complete and ours.universal
                assert (ours.outcome, ours.stats.states, ours.stats.depth) == (FAILS, 0, 0)
                assert observed.outcome == FAILS
            elif ours is not None and ours.holds and observed.outcome == INCONCLUSIVE:
                hits["weak, root"] += 1
                assert not graph.complete and (ours.stats.states, ours.stats.depth) == (1, 0)
                _check_named_cycle(net, ours.message)
            elif ours is not None and ours.message.startswith("no singleton steps"):
                hits["weak, no live node"] += 1
                assert not graph.complete and observed.outcome == ours.outcome == INCONCLUSIVE
                assert (ours.stats.states, ours.stats.depth) == \
                    (len(graph.markings), max(graph.depth))
            else:
                assert fields(ours) == fields(observed)
                hits["weak, open holds"] += bool(ours and ours.holds and not graph.complete)
            for secret in ([net.initial_marking],
                           *(rng.sample(graph.markings, min(len(graph.markings), k))
                             for k in (1, 3))):
                ours, observed = both(lambda: check_opacity(net, secret, budget))
                if not ours.message.startswith("certificate: "):
                    assert fields(ours) == fields(observed)
                    continue
                hits["opacity"] += 1
                assert (ours.outcome, ours.stats.states, ours.stats.depth) == (HOLDS, 0, 0)
                if graph.complete:
                    hits["opacity, closed"] += 1
                    assert observed.outcome == HOLDS
                    continue
                assert observed.outcome == INCONCLUSIVE
                for v in rng.sample(range(len(graph.markings)), min(5, len(graph.markings))):
                    est, complete = estimate(net, observation(net, graph.path_to(v)),
                                             Budget(2000, 200))
                    if complete:
                        hits["replayed"] += 1
                        assert not est or not est <= set(secret)
        print("records", len(cases), dict(hits))
        assert len(cases) == 244 and hits["weak"] >= 15 and hits["weak, open holds"] >= 3
        assert hits["weak, no live node"] >= 20
        assert hits["opacity"] >= 120 and hits["opacity, closed"] >= 15
        assert hits["replayed"] >= 90

    def test_certified_checks_build_no_observer(self, monkeypatch):
        # ring(6,2,eps): its 21 markings list 12 singleton steps and no cycle
        # among them, counting steps into markings that are not ε-closed;
        # t2 leads both tokens on p2 out of the secret unobservably.
        net, budget = ring(6, 2, eps=True), Budget(20000, 2000)
        built, observed = [], []
        monkeypatch.setattr(analyze, "build_reachability_graph",
                            lambda *args: built.append(args) or build_reachability_graph(*args))
        monkeypatch.setattr(analyze, "explore_observer",
                            lambda *args: observed.append(args) or explore_observer(*args))
        v = check_opacity(net, [(0, 0, 2, 0, 0, 0)], budget)
        assert v.outcome == HOLDS and built == [] and observed == []
        assert v.message == ("certificate: every secret marking reaches a non-secret "
                             "marking by unobservable transitions")
        peeled = _spy_peels(monkeypatch)
        v = check_weak(net, budget)
        assert v.outcome == FAILS and v.universal and observed == []
        assert (v.stats.states, v.stats.depth) == (0, 0) and peeled == [21]
        assert v.message == ("certificate: the graph's singleton steps form no cycle "
                             "(12 of them, over 21 markings)")


def test_wall_time_leaves_out_the_assumption_gate(monkeypatch):
    # A gate made slow by a sleep: neither checker's wall time counts it.
    real = analyze._gate_assumptions
    monkeypatch.setattr(analyze, "_gate_assumptions",
                        lambda net, budget: time.sleep(0.2) or real(net, budget))
    net, budget = ring(5, 2), Budget(20000, 2000)
    assert check_weak(net, budget).stats.wall_time < 0.2
    assert check_strong(net, budget).stats.wall_time < 0.2


def test_wall_time_counts_the_twin_build(monkeypatch, e2, e4):
    # A twin build made slow by a sleep: check_strong's wall time counts it,
    # on the twin read off the net's graph (e2) and on the fired one (e4).
    real = analyze.build_twin
    monkeypatch.setattr(analyze, "build_twin", lambda net: time.sleep(0.2) or real(net))
    for net in (e2, e4):
        v = check_strong(net, Budget(2000, 100))
        assert v.fails and v.stats.wall_time >= 0.2


class TestOneExploration:
    def test_each_graph_built_once(self, e1, e2, e2_eps, e4, budget, monkeypatch):
        built, bases, rounds = [], [], []
        real, real_grown = explore.build_reachability_graph, explore._graph_on_demand

        def counting(net, budget, base=None):
            built.append(net)
            bases.append(base)
            return real(net, budget, base)

        monkeypatch.setattr(explore, "build_reachability_graph", counting)
        monkeypatch.setattr(analyze, "build_reachability_graph", counting)
        monkeypatch.setattr(explore, "_graph_on_demand",
                            lambda net, b: rounds.append(net) or real_grown(net, b))
        # Certificates prove both of e1's assumptions and its strong
        # detectability: the gate builds no graph, and check_weak's root
        # test, which fires e1's one marking, none either.
        rep = check_assumptions(e1, budget)
        assert rep.deadlock_free.holds and rep.no_infinite_unobservable.holds
        assert rep.graph is None and built == []
        assert check_weak(e1, budget).holds
        assert built == []
        # e2's assumptions are certified too, but its root estimate has no
        # singleton step: check_weak builds its graph, once.
        assert check_weak(e2, budget).fails and built == [e2]
        # ring(8, 4)'s root test cuts the graph fired on demand past
        # max_depth 5 and finds no cycle: check_weak builds the whole
        # graph, open, once.
        built.clear()
        net = ring(8, 4)
        assert check_weak(net, Budget(20000, 5)).outcome == INCONCLUSIVE and built == [net]
        built.clear()
        rounds.clear()
        assert check_strong(e1, budget).holds
        assert built == [] and rounds == []
        rep = check_assumptions(e2_eps, budget)
        assert rep.deadlock_free.holds and rep.no_infinite_unobservable.holds
        assert built == [e2_eps]
        built.clear()
        assert check_strong(e2_eps, budget).fails
        assert built[0] is e2_eps
        assert len(built) == 2 and len(built[1].places) == 4  # the twin
        # The twin's graph is read off the gate's graph of e2_eps.
        assert bases[-1] is not None and bases[-1].net is e2_eps
        # Certificates prove both assumptions of this bounded net, and the
        # two b moves change its places unequally: check_strong builds its
        # graph once, and reads the twin's graph off it.
        net = make_net(["s", "p", "q"], {
            "tick": ("a", {"s": 1}, {"s": 1}),
            "go": ("b", {"p": 1}, {"q": 1}),
            "back": ("b", {"q": 1}, {"p": 1}),
        }, {"s": 1, "p": 1})
        built.clear()
        rounds.clear()
        v, tw, report = analyze._check_strong(net, budget)
        assert "certificate" in report.deadlock_free.message and report.graph is None
        assert not analyze._twin_invariant(tw)
        assert v.holds and v.stats.states == 2
        assert built == [net, tw.net] and rounds == [net] and bases[-1].net is net
        # e4's growing transition keeps its twin on the rounds, fired on its
        # halves: no net graph, and no twin net.
        built.clear()
        rounds.clear()
        v, tw, _ = analyze._check_strong(e4, budget)
        assert v.fails and built == [] and rounds == [tw] and "net" not in vars(tw)


def _graph_fields(graph):
    return (graph.states, graph.succ, graph.parent, graph.depth, graph.cut, graph.complete)


class TestTwinReadOffTheNetGraph:
    """The twin's graph read off the net's closed graph (firing nothing)
    against the fired twin graph."""

    @staticmethod
    def corpus(observer_seeds=(0, 1)):
        """(net, budget) cases: benchmark instances, random nets and rings."""
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        try:
            from families import WORKLOADS, instances
        finally:
            sys.path.remove(str(SRC.parent / "perfbench"))
        for w, seeds in (("twin_bounded", (0, 1)), ("observer_bounded", observer_seeds)):
            for seed in seeds:
                yield from ((inst.net, WORKLOADS[w].budget) for inst in instances(w, seed))
        rng = random.Random(11)
        nets = [random_net(rng, eps_prob=0.3) for _ in range(120)]
        for budget in (Budget(50, 3), Budget(300, 30), Budget(2000, 100)):
            yield from ((net, budget) for net in nets)
        # Rings under max_states from the net graph's size to just below the
        # twin graph's, so that the twin graph is cut where the net's is not.
        for k, n, eps in itertools.product(range(3, 8), range(1, 4), (False, True)):
            net = ring(k, n, eps)
            low = len(build_reachability_graph(net, Budget()).states)
            high = len(build_reachability_graph(build_twin(net).net, Budget()).states)
            for max_states in sorted({low, (low + high) // 2, high - 1}):
                yield net, Budget(max_states, 1000)

    def test_product_equals_fired_graph(self):
        # The product is the fired graph's quotient by the swap of halves:
        # its pairs are the canonical pairs of the fired markings, at their
        # depths, and its double cover (explore._Cover) has the fired edges.
        # The fired graph closes iff the product does and its orbits, two
        # per pair and one per pair (u, u), fit max_states.
        closed = cut = swapped = 0
        for net, budget in self.corpus():
            base = build_reachability_graph(net, budget)
            if not base.complete:
                continue
            closed += 1
            tw = build_twin(net).net
            product = build_reachability_graph(tw, budget, base)
            fired = build_reachability_graph(tw, budget)
            assert product.net is tw
            pairs, n = product.pairs, len(product.pairs)
            ordered = 2 * n - sum(u == v for u, v in pairs)
            assert fired.complete == (product.complete and ordered <= budget.max_states)
            cut += not fired.complete
            if not fired.complete:
                continue
            assert ordered == len(fired.markings) == 2 * n - len(base.markings)
            assert len(set(pairs)) == n
            assert all(u <= v for u, v in pairs)
            assert product.markings == [base.markings[u] + base.markings[v] for u, v in pairs]
            node, index = {m: i for i, m in enumerate(base.markings)}, dict(zip(pairs, range(n)))
            h = len(net.places)

            def cover_node(m):  # the product node of a fired marking, in its orientation
                u, v = node[m[:h]], node[m[h:]]
                return index[min(u, v), max(u, v)] + n * (u > v)

            cover = explore._Cover(product)
            for x, m in enumerate(fired.markings):
                i = cover_node(m)
                assert fired.depth[x] == product.depth[i % n] and cover.marking(i) == m
                assert sorted(cover[i]) == sorted(
                    (t, cover_node(fired.markings[y])) for t, y in fired.succ[x])
                swapped += i >= n
        print("closed", closed, "cut twins", cut, "swapped nodes", swapped)
        assert closed >= 280 and cut >= 60 and swapped >= 1000

    def test_check_strong_matches_the_fired_path(self, monkeypatch):
        def records():
            out = []
            # One seed of the large observer_bounded twins keeps this fast.
            for net, budget in self.corpus(observer_seeds=(0,)):
                try:
                    v = check_strong(net, budget)
                except AssumptionError:
                    continue
                out.append((net, v))
            return out

        real, read_off_bases = explore.search_pattern, []

        def read_off(net, pattern, budget, base=None, t0=None):
            read_off_bases.append(base is not None and base.complete)
            return real(net, pattern, budget, base, t0)

        monkeypatch.setattr(analyze, "search_pattern", read_off)
        read_off_records = records()
        # The fired path: the twin net, fired, without a net graph.
        monkeypatch.setattr(analyze, "search_pattern", lambda net, pattern, budget, base=None,
                            t0=None: real(getattr(net, "net", net), pattern, budget))
        fired_records = records()
        # Verdicts, messages and depths agree, and each witness replays; a
        # witness read off the quotient may be another of the same length.
        # The quotient and the period bound store no more.
        assert len(read_off_records) == len(fired_records)
        fewer = same = 0
        for (net, v), (_, f) in zip(read_off_records, fired_records):
            assert (v.outcome, v.stats.depth, v.message) == (f.outcome, f.stats.depth, f.message)
            assert v.stats.states <= f.stats.states
            assert v.witness is None or explore.replay_witness(
                build_twin(net).net, explore.STRONG, v.witness)
            fewer += v.stats.states < f.stats.states
            same += v.fails and v.witness == f.witness
        outcomes = Counter(v.outcome for _, v in read_off_records)
        print(outcomes, "read off", sum(read_off_bases), "fewer states", fewer,
              "same witness", same, "of", len(read_off_records))
        assert outcomes[FAILS] >= 75 and outcomes[HOLDS] >= 50
        assert sum(read_off_bases) >= 120 and fewer >= 20 and same >= 60

    def test_budget_boundary_of_the_quotient(self, monkeypatch):
        # The quotient decides only where the ordered twin graph, of
        # 2·|Q| - |{(u, u)}| markings, closes too. At max_states from |Q|
        # to one below that count the twin is fired on its halves, never as
        # its twin net, the read-off stops after (max_states + |{(u, u)}|)
        # // 2 pairs, and check_strong's answer is the fired path's in full;
        # at the count the quotient decides, with the fired path's outcome,
        # message and depth. Rings, the coverability gadgets of
        # twin_bounded and a net that holds.
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        try:
            from families import instances
        finally:
            sys.path.remove(str(SRC.parent / "perfbench"))
        nets = [ring(k, n, eps) for k, n, eps in
                itertools.product(range(3, 7), range(1, 4), (False, True))]
        nets += [inst.net for inst in instances("twin_bounded", 0)
                 if inst.name.startswith("cov2strong")]
        # a's two moves part the halves once, and b joins them before c loops.
        nets.append(make_net(["s", "p", "q", "r"], {
            "t1": ("a", {"s": 1}, {"p": 1}), "t2": ("a", {"s": 1}, {"q": 1}),
            "u1": ("b", {"p": 1}, {"r": 1}), "u2": ("b", {"q": 1}, {"r": 1}),
            "c": ("c", {"r": 1}, {"r": 1})}, {"s": 1}))
        handed, reads = [], []  # the nets fired on demand; the graphs read off pairs
        grow, read = explore._graph_on_demand, explore.build_reachability_graph
        monkeypatch.setattr(explore, "_graph_on_demand",
                            lambda net, budget: handed.append(net) or grow(net, budget))
        monkeypatch.setattr(explore, "build_reachability_graph", lambda net, budget, base=None:
                            reads.append(read(net, budget, base)) or reads[-1])
        fallback, decided = Counter(), Counter()
        for net in nets:
            tw = build_twin(net).net
            base = build_reachability_graph(net, Budget())
            pairs = build_reachability_graph(tw, Budget(), base).pairs
            ordered = 2 * len(pairs) - sum(u == v for u, v in pairs)
            if ordered == len(pairs):
                continue
            for max_states in sorted({len(pairs), (len(pairs) + ordered) // 2,
                                      ordered - 1, ordered}):
                budget = Budget(max_states, 1000)
                handed.clear()
                reads.clear()
                try:
                    v = check_strong(net, budget)
                except AssumptionError:
                    break
                fired = [n for n in handed if n is not net]
                ref = explore.search_pattern(tw, explore.STRONG, budget)
                if max_states < ordered:
                    assert fired and all(isinstance(n, TwinNet) for n in fired)
                    assert len(reads) == 1 and \
                        len(reads[0].pairs) <= (max_states + len(base.markings)) // 2
                    assert (v.outcome, v.witness, v.stats.states, v.stats.depth, v.message) == \
                        (ref.outcome, ref.witness, ref.stats.states, ref.stats.depth,
                         ref.message)
                    fallback[v.outcome] += 1
                else:
                    assert (v.outcome, v.stats.depth, v.message) == \
                        (ref.outcome, ref.stats.depth, ref.message) and v.outcome != INCONCLUSIVE
                    assert v.stats.states <= ref.stats.states
                    assert v.holds or explore.replay_witness(tw, explore.STRONG, v.witness)
                    decided[v.outcome] += 1
        print("fired", dict(fallback), "decided on the quotient", dict(decided))
        assert fallback[INCONCLUSIVE] >= 40 and decided[FAILS] >= 20 and decided[HOLDS] >= 1

    def test_period_against_networkx(self):
        # Each step moves a token one place on: every cycle of ring(k, n)'s
        # graph is a multiple of k long, and one token's round trip is k.
        for k, n in itertools.product(range(2, 6), range(1, 4)):
            assert explore._period(build_reachability_graph(ring(k, n), Budget()), ()) == k
        # p -a-> q and a loop on q: the loop is one step long.
        net = make_net(["p", "q"], {"s": ("a", {"p": 1}, {"q": 1}),
                                    "t": ("b", {"q": 1}, {"q": 1})}, {"p": 1})
        assert explore._period(build_reachability_graph(net, Budget()), ()) == 1
        # Closed net graphs, under the ε pump's barred labels and under none,
        # and quotients with their double covers: the period divides every
        # cycle of allowed edges, and is their gcd on a strongly connected
        # graph with no label barred.
        graphs, rng = [], random.Random(11)
        for net in (random_net(rng, max_places=5, max_trans=6, eps_prob=0.3) for _ in range(300)):
            graph = build_reachability_graph(net, Budget(60, 30))
            if graph.complete:
                graphs += [(graph, graph.succ, ()),
                           (graph, graph.succ, explore._barred(net, explore.EPS_PUMP))]
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        try:
            from families import instances
        finally:
            sys.path.remove(str(SRC.parent / "perfbench"))
        for inst in instances("twin_bounded", 0):
            base = build_reachability_graph(inst.net, Budget())
            quotient = build_reachability_graph(build_twin(inst.net).net, Budget(), base)
            if quotient.complete and len(quotient.pairs) <= 400:
                cover = explore._Cover(quotient)
                graphs += [(quotient, quotient.succ, ()),
                           (quotient, [cover[i] for i in range(2 * len(quotient.succ))], ())]
        hits = Counter()
        for graph, succ, barred in graphs:
            period = explore._period(graph, barred)
            g = nx.DiGraph((v, w) for v, out in enumerate(succ) for t, w in out
                           if t not in barred)
            g.add_nodes_from(range(len(succ)))
            small = len(succ) <= 12
            lengths = list(map(len, nx.simple_cycles(g, length_bound=len(succ) if small else 6)))
            assert all(c % period == 0 for c in lengths)
            if small and lengths and not barred and nx.is_strongly_connected(g):
                assert period == math.gcd(*lengths)
                hits["strongly connected", period > 1] += 1
            hits["cycles"] += len(lengths)
            hits["period > 1"] += period > 1
        print(len(graphs), "graphs", dict(hits))
        assert hits["cycles"] >= 10000 and hits["period > 1"] >= 20
        assert hits["strongly connected", True] >= 3 and hits["strongly connected", False] >= 20

    def test_period_bound_skips_cycle_searches(self, monkeypatch):
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        try:
            from families import WORKLOADS, instances
        finally:
            sys.path.remove(str(SRC.parent / "perfbench"))
        # Every cycle search is a pump search of _lasso's on a double cover:
        # none runs on a net graph.
        real, calls, key = explore._first_cycle, Counter(), [None]

        def first_cycle(succ, *args):
            assert sys._getframe(1).f_code.co_name == "_lasso"
            assert isinstance(succ, explore._Cover)
            calls[key[0]] += 1
            return real(succ, *args)

        monkeypatch.setattr(explore, "_first_cycle", first_cycle)
        budget = WORKLOADS["twin_bounded"].budget
        for inst in instances("twin_bounded", 0):
            key[0] = inst.name, "read off"
            try:
                v = check_strong(inst.net, budget)
            except AssumptionError:
                continue
            key[0] = inst.name, "fired"
            tw = build_twin(inst.net).net
            ref = explore.search_pattern(tw, explore.STRONG, budget)
            assert (v.outcome, v.stats.depth) == (ref.outcome, ref.stats.depth)
            assert v.holds or explore.replay_witness(tw, explore.STRONG, v.witness)
            assert v.stats.states <= ref.stats.states
            assert calls[inst.name, "read off"] <= calls[inst.name, "fired"]
        print(sorted(calls.items()))
        assert calls["ring(6,3,eps)", "fired"] == 5
        assert calls["ring(6,3,eps)", "read off"] == 4

    def test_fires_nothing_on_the_twin(self, e2_eps, e4, budget, monkeypatch):
        # e2_eps's twin graph is read off its net's graph; e4's twin is
        # fired on its halves. Neither fires a twin marking.
        fired_at = []
        real = explore.successors
        monkeypatch.setattr(explore, "successors",
                            lambda net, m: fired_at.append(m) or real(net, m))
        for net in (e2_eps, e4):
            fired_at.clear()
            v = check_strong(net, budget)
            assert v.fails and explore.replay_witness(
                build_twin(net).net, explore.STRONG, v.witness)
            assert fired_at and {len(m) for m in fired_at} == {len(net.places)}


class TestTwinFiredOnItsHalves:
    """check_strong, which fires an unbounded twin on its halves and builds
    no twin net, against the search of the twin net fired."""

    def test_check_strong_matches_the_fired_twin_net(self):
        sys.path.insert(0, str(SRC.parent / "perfbench"))
        try:
            from families import WORKLOADS, instances
        finally:
            sys.path.remove(str(SRC.parent / "perfbench"))
        cases = [(inst.net, WORKLOADS["twin_unbounded"].budget)
                 for seed in range(6) for inst in instances("twin_unbounded", seed)]
        rng = random.Random(11)
        nets = [random_net(rng) for _ in range(300)] + [
            random_net(rng, max_places=5, max_trans=6, eps_prob=0.3) for _ in range(300)]
        rng = random.Random(12)
        nets += [random_net(rng, max_places=6, max_trans=7, eps_prob=0.2) for _ in range(300)]
        cases += [(net, budget) for net in nets
                  for budget in (Budget(50, 3), Budget(300, 30), Budget(2000, 100))]
        outcomes, halves = Counter(), 0
        for net, budget in cases:
            try:
                v, tw, _ = analyze._check_strong(net, budget)
            except AssumptionError:
                continue
            if v.message.startswith("certificate"):
                continue
            fired = "net" not in vars(tw)
            halves += fired
            ref = explore.search_pattern(tw.net, explore.STRONG, budget)
            if fired:
                assert (v.outcome, v.witness, v.stats.states, v.stats.depth, v.message) == \
                    (ref.outcome, ref.witness, ref.stats.states, ref.stats.depth, ref.message)
            else:  # read off the net's graph, whose quotient may pick a tied witness
                assert (v.outcome, v.stats.depth, v.message) == \
                    (ref.outcome, ref.stats.depth, ref.message)
                assert v.stats.states <= ref.stats.states
                assert not v.fails or explore.replay_witness(tw, explore.STRONG, v.witness)
            outcomes[v.outcome] += 1
        print(dict(outcomes), "fired on halves", halves)
        assert outcomes[FAILS] >= 420 and outcomes[INCONCLUSIVE] >= 90
        assert halves >= 480


def test_no_twin_net_is_built_on_the_unbounded_path(e2, e4, monkeypatch):
    from lpndetect import twin

    built, real = [], twin.LabeledPetriNet
    monkeypatch.setattr(twin, "LabeledPetriNet", lambda **kw: built.append(kw) or real(**kw))
    consumer = make_net(["p", "q", "r", "s"], {
        "t": ("a", {"p": 1}, {"p": 1, "q": 2, "s": 1}),
        "u": ("a", {"p": 1}, {"p": 1, "r": 2, "s": 1}),
        "v": ("b", {"s": 1}, {}),
    }, {"p": 1})
    for net in (e4, consumer):
        assert check_strong(net, Budget(2000, 100)).fails and built == []
    # The twin read off a closed net graph is still built as a net.
    assert check_strong(e2, Budget(2000, 100)).fails and len(built) == 1


class TestHardChecks:
    def test_failed_replay_raises_under_optimize(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from lpndetect import Budget, check_strong, explore, make_net\n"
            "assert False, 'asserts are on'\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr  # -O really strips asserts
        code = code.replace("assert False, 'asserts are on'\n", (
            "explore.replay_witness = lambda *args: False\n"
            "e2 = make_net(['p', 'q'], {'t1': ('a', {'p': 1}, {'p': 1}),\n"
            "    't2': ('a', {'p': 1}, {'q': 1}), 't3': ('a', {'q': 1}, {'q': 1})},\n"
            "    {'p': 1})\n"
            "e4 = make_net(['p', 'q', 'r'], {'t': ('a', {'p': 1}, {'p': 1, 'q': 1}),\n"
            "    'u': ('a', {'p': 1}, {'p': 1, 'r': 1})}, {'p': 1})\n"
            "for net in (e2, e4):  # closed and open twin graphs\n"
            "    try:\n"
            "        print(check_strong(net, Budget(200, 20)).outcome)\n"
            "    except RuntimeError:\n"
            "        print('error')\n"
        ))
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert out.stdout.split() == ["error", "error"], out.stderr

    def test_halves_replay_rejects_tampering_under_optimize(self):
        # A net whose q is produced by t and consumed by v: the pump (v,v)
        # fires but does not cover its start. Each tampered witness is
        # rejected over the TwinNet and over its twin net alike.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from lpndetect import Witness, build_twin, make_net\n"
            "from lpndetect.explore import STRONG, replay_witness\n"
            "net = make_net(['p', 'q', 'r'], {'t': ('a', {'p': 1}, {'p': 1, 'q': 1}),\n"
            "    'u': ('a', {'p': 1}, {'p': 1, 'r': 1}), 'v': ('b', {'q': 1}, {})}, {'p': 1})\n"
            "tw = build_twin(net)\n"
            "ok = Witness(((), ('(t,u)',), ()), ((1, 0, 0, 1, 0, 0), (1, 1, 0, 1, 0, 1),\n"
            "    (1, 1, 0, 1, 0, 1)))\n"
            "cases = [ok, Witness(ok.segments[:2], ok.markings[:2]),\n"
            "    Witness(((), (), ('(t,u)',)), ok.markings),\n"
            "    Witness(ok.segments, ok.markings[:2] + ((1, 1, 0, 1, 1, 0),)),\n"
            "    Witness((('(t,t)',), ('(v,v)',), ('(t,u)',)), ((1, 1, 0, 1, 1, 0),\n"
            "        (1, 0, 0, 1, 0, 0), (1, 1, 0, 1, 0, 1))),\n"
            "    Witness(((), ('(t,t)',), ()), ((1, 0, 0, 1, 0, 0), (1, 1, 0, 1, 1, 0),\n"
            "        (1, 1, 0, 1, 1, 0))),\n"
            "    Witness(((), ('(t,x)',), ()), ok.markings)]\n"
            "print(*[replay_witness(tw, STRONG, w) for w in cases])\n"
            "print(*[replay_witness(tw.net, STRONG, w) for w in cases])\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        expected = " ".join(["True"] + ["False"] * 6)
        assert out.stdout.splitlines() == [expected, expected], out.stderr

    @pytest.mark.parametrize("moved", [False, True])
    def test_false_deadlock_raises(self, e2, budget, monkeypatch, moved):
        # e2's second node, (0, 1), is made to look dead, though t3 is
        # enabled there; moved also records (0, 0) there, where t2 does not
        # lead. The token-count certificate, which covers e2, is off.
        _certificates_off(monkeypatch)
        real = explore.build_reachability_graph

        def fake(net, budget):
            graph = real(net, budget)
            graph.succ[1] = ()
            if moved:
                graph.states[1] = (0, 0)
            return graph

        monkeypatch.setattr(analyze, "build_reachability_graph", fake)
        with pytest.raises(RuntimeError, match="deadlock witness"):
            check_assumptions(e2, budget)

    def test_false_deadlock_raises_under_optimize(self):
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from lpndetect import Budget, analyze, check_assumptions, explore, make_net\n"
            "real = explore.build_reachability_graph\n"
            "def fake(net, budget):\n"
            "    graph = real(net, budget)\n"
            "    graph.succ[1] = ()\n"
            "    return graph\n"
            "analyze.build_reachability_graph = fake\n"
            "analyze._token_live = lambda net: False\n"
            "e2 = make_net(['p', 'q'], {'t1': ('a', {'p': 1}, {'p': 1}),\n"
            "    't2': ('a', {'p': 1}, {'q': 1}), 't3': ('a', {'q': 1}, {'q': 1})},\n"
            "    {'p': 1})\n"
            "try:\n"
            "    print(check_assumptions(e2, Budget(200, 20)).deadlock_free.outcome)\n"
            "except RuntimeError:\n"
            "    print('error')\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert out.stdout.split() == ["error"], out.stderr

    def test_opacity_replay_rejects_tampering_under_optimize(self):
        # e moves p's token to q unobservably, so the estimate of the empty
        # word is {(1, 0), (0, 1)}: secret in full when the secret holds
        # both, and not when it holds (1, 0) alone. A closure that adds
        # nothing, or an estimate reported incomplete, must be caught.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from lpndetect import Budget, analyze, check_opacity, make_net\n"
            "net = make_net(['p', 'q'], {'e': (None, {'p': 1}, {'q': 1}),\n"
            "    'a': ('a', {'q': 1}, {'q': 1}), 'b': ('b', {'p': 1}, {'p': 1})}, {'p': 1})\n"
            "analyze._secret_escapes = lambda net, secret: False\n"
            "def run(secret):\n"
            "    try:\n"
            "        print(check_opacity(net, secret, Budget(200, 20)).outcome)\n"
            "    except RuntimeError:\n"
            "        print('error')\n"
            "run([(1, 0)])\n"
            "run([(1, 0), (0, 1)])\n"
            "real = analyze.estimates\n"
            "analyze.estimates = lambda *args: (real(*args)[0], False)\n"
            "run([(1, 0), (0, 1)])\n"
            "analyze.estimates = real\n"
            "analyze._eps_closure = lambda eps, nodes: frozenset(nodes)\n"
            "run([(1, 0)])\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert out.stdout.split() == ["holds", "fails", "error", "error"], out.stderr

    def test_weak_replay_rejects_tampering_under_optimize(self):
        # t moves p's token to q by b, u moves it back by a: the estimate of
        # the empty word is {(1, 0)}, and b a returns to it through {(0, 1)}.
        # A word that ends elsewhere (with a loop from there back to (1, 0)
        # or not), a loop through an empty estimate or short of its start,
        # an estimate reported incomplete, and a middle estimate of two
        # markings must be caught.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from lpndetect import Budget, analyze, check_weak, make_net\n"
            "net = make_net(['p', 'q'], {'t': ('b', {'p': 1}, {'q': 1}),\n"
            "    'u': ('a', {'q': 1}, {'p': 1})}, {'p': 1})\n"
            "def run():\n"
            "    try:\n"
            "        print(check_weak(net, Budget(200, 20)).outcome)\n"
            "    except RuntimeError:\n"
            "        print('error')\n"
            "run()\n"
            "cycle = analyze._singleton_cycle\n"
            "for tamper in (lambda w, m, u: (w + ('b',), m, u[1:]),\n"
            "               lambda w, m, u: (w + ('b',), m, u), lambda w, m, u: (w, m, u[::-1]),\n"
            "               lambda w, m, u: (w, m, u[:-1])):\n"
            "    analyze._singleton_cycle = lambda *args: tamper(*cycle(*args))\n"
            "    run()\n"
            "analyze._singleton_cycle = cycle\n"
            "real = analyze.estimates\n"
            "analyze.estimates = lambda *args: (real(*args)[0], False)\n"
            "run()\n"
            "def wider(*args):\n"
            "    ests, complete = real(*args)\n"
            "    return ests[:1] + [ests[1] | {(1, 1)}] + ests[2:], complete\n"
            "analyze.estimates = wider\n"
            "run()\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True)
        assert out.stdout.split() == ["holds"] + ["error"] * 6, out.stderr

    def test_estimate_without_successor_raises(self, e1, budget, monkeypatch):
        _certificates_off(monkeypatch)  # e1's root test would decide first
        lonely = Observer([frozenset({0})], succ=[()], parent=[None], depth=[0], cut=set())
        monkeypatch.setattr(analyze, "explore_observer",
                            lambda graph, budget, goal=None: lonely)
        with pytest.raises(RuntimeError):
            check_weak(e1, budget)


class TestVerdict:
    def test_witnessless_failure_is_universal(self, e2, budget):
        with pytest.raises(InputError):
            Verdict(FAILS)
        with pytest.raises(InputError):
            Verdict(HOLDS, universal=True)
        with pytest.raises(InputError):
            Verdict(FAILS, Witness(((),), ((1,),)), universal=True)
        v = check_weak(e2, budget)
        assert v.fails and v.universal and v.witness is None
