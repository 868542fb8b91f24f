import random
import subprocess
import sys
import tracemalloc
from collections import Counter, deque
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
from lpndetect.analyze import AssumptionError, Observer, explore_observer
from lpndetect.gadgets import inclusion_to_weak, secret_marking, selfloop_unobservable
from lpndetect.net import (
    EPSILON,
    InputError,
    enabled,
    fire_sequence,
    observation,
    successors,
)
from lpndetect.twin import project

from netgen import bounded_wellformed_net, random_net


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

    def test_deadlock_scan_reads_stored_successors(self, e2, e3, budget, monkeypatch):
        # The graph fires once per stored node and the scan fires nothing.
        calls = []
        real = explore.successors
        monkeypatch.setattr(explore, "successors",
                            lambda *args: calls.append(args) or real(*args))
        dead_end = make_net(["p"], {"t": ("a", {"p": 1}, {})}, {"p": 1})
        for net, outcome in ((e2, HOLDS), (dead_end, FAILS)):
            calls.clear()
            rep = check_assumptions(net, budget)
            assert rep.deadlock_free.outcome == outcome
            assert len(calls) == len(rep.graph.markings)
        # A node whose successors the budget cut is live, not a deadlock.
        for cutting in (Budget(100, 50), Budget(5, 100)):
            rep = check_assumptions(e3, cutting)
            last = len(rep.graph.markings) - 1
            assert not rep.graph.succ[last] and last in rep.graph.cut
            assert rep.deadlock_free.outcome == INCONCLUSIVE

    def test_unbounded_deadlock_free_inconclusive(self, e3):
        rep = check_assumptions(e3, Budget(100, 50))
        assert rep.deadlock_free.outcome == INCONCLUSIVE
        assert rep.no_infinite_unobservable.holds  # no unobservable transitions


class TestCheckStrong:
    def test_e1_holds(self, e1, budget):
        assert check_strong(e1, budget).outcome == HOLDS

    def test_e2_fails_with_pinned_witness(self, e2, budget):
        v = check_strong(e2, budget)
        assert v.outcome == FAILS
        # minimal total length is 2; both segments verified by replay in-library
        assert v.witness.segments == (("(t1,t2)",), ("(t1,t3)",), ())

    def test_e3_inconclusive(self, e3):
        assert check_strong(e3, Budget(200, 20)).outcome == INCONCLUSIVE

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

    def test_matches_firing_observer(self, monkeypatch):
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
            return _fired_observer(graph.net, budget, goal)

        compared = checked = 0
        differ = Counter()
        for budget, open_too in ((Budget(300, 30), True), (Budget(50, 3), True),
                                 (Budget(2000, 100), False)):
            for net in nets:
                graph = build_reachability_graph(net, budget)
                if not (graph.complete or open_too):
                    continue
                obs = explore_observer(graph, budget)
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
            obs = explore_observer(graph, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = _fired_observer(net, budget)
        assert obs.complete and len(obs.states[0]) == 3001
        assert (obs.states, obs.succ, obs.parent, obs.depth) \
            == (ref.states, ref.succ, ref.parent, ref.depth)
        assert peak < 10_000_000

    def test_cut_nodes_keep_estimates_exact(self):
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
            assert explore_observer(build_reachability_graph(net, budget), budget).states == []
            assert check_opacity(net, secret, budget).outcome == INCONCLUSIVE

    def test_reads_the_gate_graph_and_fires_nothing(self, e2, budget, monkeypatch):
        graph = build_reachability_graph(e2, budget)
        fired = []

        def counting(*args):
            fired.append(args)
            return successors(*args)

        monkeypatch.setattr(explore, "successors", counting)  # analyze fires nothing
        assert explore_observer(graph, budget).complete
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

    def test_blown_initial_closure_stores_no_state(self):
        net = make_net(
            ["p", "q"],
            {"t": (EPSILON, {"p": 1}, {"p": 1, "q": 1}), "u": ("a", {"p": 1}, {"p": 1})},
            {"p": 1},
        )
        budget = Budget(50, 5)
        obs = explore_observer(build_reachability_graph(net, budget), budget)
        assert obs.states == [] and obs.succ == [] and not obs.complete
        v = check_opacity(net, [(1, 0)], budget)
        assert v.outcome == INCONCLUSIVE
        assert (v.stats.states, v.stats.depth) == (0, 0)

    def test_complement_of_weak_on_gadget(self, budget):
        g = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
        gadget = inclusion_to_weak(g, g)
        b = Budget(20000, 2000)
        weak = check_weak(gadget.net, b)
        opaque = check_opacity(gadget.net, [secret_marking(gadget)], b)
        assert weak.outcome == FAILS
        assert opaque.outcome == HOLDS


def _ring(k, n, eps=False):
    """Places p0..p{k-1} in a cycle, t_i moving a token from p_i to p_{i+1},
    labelled b, a, b, ...; with eps t2, t5, ... are unobservable. n tokens
    start on p0."""
    trans = {
        f"t{i}": (EPSILON if eps and i % 3 == 2 else "ba"[i % 2],
                  {f"p{i}": 1}, {f"p{(i + 1) % k}": 1})
        for i in range(k)
    }
    return make_net([f"p{i}" for i in range(k)], trans, {"p0": n})


def _scanned_opacity(net, secret, budget):
    """check_opacity as it stood before its observer stopped at the first
    secret estimate: the whole observer, scanned in BFS order. Kept as the
    reference. Returns (outcome, witness, states, depth)."""
    obs = explore_observer(build_reachability_graph(net, budget), budget)
    size = (len(obs.states), max(obs.depth, default=0))
    for v, state in enumerate(obs.states):
        if state and state <= secret:
            return (FAILS, analyze.OpacityWitness(obs.path_to(v), state)) + size
    return (HOLDS if obs.complete else INCONCLUSIVE, None) + size


class TestOpacityStopsEarly:
    """check_opacity's observer stops at the first secret estimate."""

    def test_matches_the_whole_observer_scan(self):
        rng = random.Random(73)
        cases = []
        for k in (3, 4, 5, 6):
            for n in (1, 2, 3):
                for eps in (False, True):
                    cases += [(_ring(k, n, eps), Budget(5000, 1000))] * 6
        for _ in range(300):
            net = random_net(rng, eps_prob=0.3)
            cases += [(net, Budget(300, 30)), (net, Budget(50, 3))]
        outcomes, fewer = Counter(), 0
        for net, budget in cases:
            markings = build_reachability_graph(net, budget).markings
            secret = set(rng.sample(markings, min(len(markings), rng.randint(1, 3))))
            ours = check_opacity(net, secret, budget)
            outcome, witness, states, depth = _scanned_opacity(net, frozenset(secret), budget)
            assert (ours.outcome, ours.witness) == (outcome, witness)
            if outcome == FAILS:
                assert ours.stats.states <= states and ours.stats.depth <= depth
                assert ours.stats.depth == len(witness.word)
                fewer += ours.stats.states < states
            else:
                assert (ours.stats.states, ours.stats.depth) == (states, depth)
            outcomes[outcome] += 1
        print("records", len(cases), dict(outcomes), "fewer states", fewer)
        assert len(cases) == 744 and outcomes[FAILS] >= 400 and fewer >= 150

    def test_ring_stops_at_its_first_secret_estimate(self):
        # ring(8, 4) with all four tokens on p1: seen after b b b b.
        net, budget = _ring(8, 4), Budget(20000, 2000)
        full = explore_observer(build_reachability_graph(net, budget), budget)
        assert len(full.states) == 1740
        v = check_opacity(net, [(0, 4, 0, 0, 0, 0, 0, 0)], budget)
        assert v.outcome == FAILS and v.witness.word == ("b",) * 4
        assert (v.stats.states, v.stats.depth) == (12, 4)


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
        obs = explore_observer(graph, budget)
        assert obs.complete and obs.depth == [0, 1]
        assert obs.succ == [(("a", 1),), (("b", 0),)]
        v = check_weak(net, budget)
        assert v.outcome == HOLDS
        assert (v.stats.states, v.stats.depth) == (2, 1)

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
            obs = explore_observer(build_reachability_graph(net, budget), budget)
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


class TestOneExploration:
    def test_each_graph_built_once(self, e2_eps, budget, monkeypatch):
        built = []
        real = explore.build_reachability_graph

        def counting(net, *args, **kwargs):
            built.append(net)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(explore, "build_reachability_graph", counting)
        monkeypatch.setattr(analyze, "build_reachability_graph", counting)
        rep = check_assumptions(e2_eps, budget)
        assert rep.deadlock_free.holds and rep.no_infinite_unobservable.holds
        assert built == [e2_eps]
        built.clear()
        assert check_strong(e2_eps, budget).fails
        assert built[0] is e2_eps
        assert len(built) == 2 and len(built[1].places) == 4  # the twin


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

    @pytest.mark.parametrize("moved", [False, True])
    def test_false_deadlock_raises(self, e2, budget, monkeypatch, moved):
        # e2's second node, (0, 1), is made to look dead, though t3 is
        # enabled there; moved also records (0, 0) there, where t2 does not
        # lead.
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

    def test_estimate_without_successor_raises(self, e1, budget, monkeypatch):
        init = frozenset({(1,)})
        lonely = Observer([init], succ=[()], parent=[None], depth=[0], cut=set())
        monkeypatch.setattr(analyze, "explore_observer", lambda net, budget: lonely)
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
