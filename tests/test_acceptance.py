"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import contextlib
import itertools
import json
import random
import time

import jsonschema
import networkx as nx

from lpndetect import (
    Budget,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    build_observer,
    build_twin,
    check_assumptions,
    check_opacity,
    check_strong,
    check_strong_oracle,
    check_weak,
    coverable,
    estimate,
    make_net,
    observation,
)
from lpndetect.cli import main
from lpndetect.explore import STRONG, build_reachability_graph, replay_witness
from lpndetect.gadgets import (
    coverability_to_strong,
    inclusion_to_weak,
    secret_marking,
    selfloop_unobservable,
)
from lpndetect.net import EPSILON, fire_sequence
from lpndetect.schema import VERDICT_REPORT_SCHEMA
from lpndetect.textio import parse_lpn, render_lpn
from lpndetect.twin import project

from netgen import (
    bounded_observable_net,
    bounded_wellformed_net,
    count_sequences,
    enumerate_sequences,
    language_inclusion,
    random_net,
    random_observable_net,
    twin_pair_realizable,
)


@contextlib.contextmanager
def report(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def assert_pumping(net, verdict):
    """Replayed twin witness pumps: repeating the middle segment m extra
    times lands each half on final + m * (middle-end - middle-start)."""
    tw = build_twin(net)
    assert replay_witness(tw.net, STRONG, verdict.witness)
    alpha, beta, gamma = verdict.witness.segments
    m1, m2, m3 = verdict.witness.markings
    half = tw.half
    for m in (0, 1, 2, 5):
        s1, s2 = project(tw, alpha + beta * (m + 1) + gamma)
        assert observation(net, s1) == observation(net, s2)
        ends = (
            fire_sequence(net, net.initial_marking, s1),
            fire_sequence(net, net.initial_marking, s2),
        )
        for i, end in enumerate(ends):
            lo = i * half
            assert end == tuple(
                m3[j] + m * (m2[j] - m1[j]) for j in range(lo, lo + half)
            )


def test_criterion_1_twin_soundness_completeness():
    with report(1, "twin soundness/completeness"):
        start = time.perf_counter()
        rng = random.Random(1001)
        checked = 0
        while checked < 100:
            net = random_net(rng)
            tw = build_twin(net)
            if count_sequences(tw.net, tw.net.initial_marking, 6, 5000) > 5000:
                continue
            checked += 1
            # soundness: every twin sequence up to length 6 projects to an
            # equal-observation pair whose halves replay to the twin marking
            for seq, m in enumerate_sequences(
                tw.net, tw.net.initial_marking, 6
            ):
                s1, s2 = project(tw, seq)
                assert observation(net, s1) == observation(net, s2)
                assert fire_sequence(net, net.initial_marking, s1) == tw.first(m)
                assert fire_sequence(net, net.initial_marking, s2) == tw.second(m)
            # completeness: every equal-observation pair up to length 4 is
            # realized by some twin sequence
            by_obs = {}
            for seq, _ in enumerate_sequences(net, net.initial_marking, 4):
                by_obs.setdefault(observation(net, seq), []).append(seq)
            for group in by_obs.values():
                for s1, s2 in itertools.product(group, repeat=2):
                    assert twin_pair_realizable(tw, s1, s2)
        assert time.perf_counter() - start < 60


def test_criterion_2_strong_agreement():
    with report(2, "strong-detectability checker vs observer oracle"):
        start = time.perf_counter()
        budget = Budget(20000, 2000)
        nets = []
        rng = random.Random(1002)
        for _ in range(100):
            net, _ = bounded_wellformed_net(rng)
            nets.append(net)
        e1 = make_net(["p"], {"t": ("a", {"p": 1}, {"p": 1})}, {"p": 1})
        e2 = make_net(
            ["p", "q"],
            {
                "t1": ("a", {"p": 1}, {"p": 1}),
                "t2": ("a", {"p": 1}, {"q": 1}),
                "t3": ("a", {"q": 1}, {"q": 1}),
            },
            {"p": 1},
        )
        for net in [e1, e2] + nets:
            verdict = check_strong(net, budget)
            assert verdict.outcome in (HOLDS, FAILS)
            assert (verdict.outcome == HOLDS) == check_strong_oracle(net, budget)
            if verdict.outcome == FAILS:
                assert_pumping(net, verdict)
        assert time.perf_counter() - start < 120


def test_criterion_3_coverability_metamorphic():
    with report(3, "coverability reduction to strong detectability"):
        rng = random.Random(1003)
        budget = Budget(5000, 300)
        seen_cov = seen_uncov = 0
        while seen_cov < 15 or seen_uncov < 15:
            net = random_observable_net(
                rng, max_places=2, max_trans=2, max_weight=1,
                symbols=("s", "c"), max_tokens=1,
            )
            target = [rng.randint(0, 2) for _ in net.places]
            if not any(target):
                target[rng.randrange(len(target))] = 1
            target = tuple(target)
            gadget = coverability_to_strong(net, target)
            cov = coverable(net, target)
            verdict = check_strong(gadget.net, budget)
            if cov:
                seen_cov += 1
                assert verdict.outcome == FAILS
            else:
                seen_uncov += 1
                tw = build_twin(gadget.net)
                bounded = build_reachability_graph(tw.net, budget).complete
                if bounded:
                    assert verdict.outcome == HOLDS
                else:
                    assert verdict.outcome != FAILS


INCLUSION_BUDGET = Budget(50000, 5000)


def inclusion_instances():
    rng = random.Random(1004)
    out = []
    seen_incl = seen_not = 0
    while seen_incl < 10 or seen_not < 10:
        g1 = bounded_observable_net(
            rng, max_places=3, max_trans=3, max_weight=1, symbols=("s", "c")
        )
        g2 = bounded_observable_net(
            rng, max_places=3, max_trans=3, max_weight=1, symbols=("s", "c")
        )
        incl = language_inclusion(g1, g2)
        if incl:
            seen_incl += 1
        else:
            seen_not += 1
        out.append((g1, g2, incl))
    return out


def test_criterion_4_and_5_inclusion_and_opacity():
    instances = inclusion_instances()
    with report(4, "language-inclusion reduction to weak detectability"):
        for g1, g2, incl in instances:
            gadget = inclusion_to_weak(g1, g2)
            weak = check_weak(gadget.net, INCLUSION_BUDGET)
            assert weak.outcome == (FAILS if incl else HOLDS)
    with report(5, "opacity complements weak detectability on the gadget"):
        for g1, g2, incl in instances:
            gadget = inclusion_to_weak(g1, g2)
            opaque = check_opacity(
                gadget.net, [secret_marking(gadget)], INCLUSION_BUDGET
            )
            assert opaque.outcome == (HOLDS if incl else FAILS)


def unbounded_undetectable_family():
    """Unbounded nets with two equally-labeled producers whose side places
    diverge, so no observation ever pins down the marking."""
    nets = []
    for w1, w2 in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
        nets.append(make_net(
            ["p", "q", "r"],
            {
                "t": ("a", {"p": 1}, {"p": 1, "q": w1}),
                "u": ("a", {"p": 1}, {"p": 1, "r": w2}),
            },
            {"p": 1},
        ))
    for w in (1, 2, 3, 4, 5):
        nets.append(make_net(
            ["p", "q", "r", "s"],
            {
                "t": ("a", {"p": 1}, {"p": 1, "q": w, "s": 1}),
                "u": ("a", {"p": 1}, {"p": 1, "r": w, "s": 1}),
                "v": ("b", {"s": 1}, {}),
            },
            {"p": 1},
        ))
    return nets


def test_criterion_6_unbounded_witness_search():
    with report(6, "witness search on unbounded non-detectable nets"):
        e4 = make_net(
            ["p", "q", "r"],
            {
                "t": ("a", {"p": 1}, {"p": 1, "q": 1}),
                "u": ("a", {"p": 1}, {"p": 1, "r": 1}),
            },
            {"p": 1},
        )
        budget = Budget(100000, 20)
        for net in [e4] + unbounded_undetectable_family():
            start = time.perf_counter()
            verdict = check_strong(net, budget)
            elapsed = time.perf_counter() - start
            assert verdict.outcome == FAILS
            assert elapsed < 1.0
            assert_pumping(net, verdict)
        e3 = make_net(
            ["p", "q"], {"t": ("a", {"p": 1}, {"p": 1, "q": 1})}, {"p": 1}
        )
        # e3 has the twin invariant; no certificate proves e5
        e5 = make_net(
            ["s", "x", "y", "z", "q"],
            {
                "t1": ("a", {"s": 1}, {"x": 1}),
                "t2": ("a", {"s": 1}, {"y": 1}),
                "u1": ("b", {"x": 1}, {"z": 1}),
                "u2": ("b", {"y": 1}, {"z": 1}),
                "w": ("c", {"z": 1}, {"z": 1, "q": 1}),
            },
            {"s": 1},
        )
        for b in (Budget(50, 10), Budget(1000, 50), Budget(20000, 500)):
            assert check_strong(e3, b).outcome == HOLDS
            assert check_strong(e5, b).outcome == INCONCLUSIVE


def eps_cycle_brute(net, budget):
    """True iff some reachable marking starts an infinite unobservable run.

    Bounded-only oracle: a cycle in the unobservable-edge subgraph of the
    full reachability graph.
    """
    graph = build_reachability_graph(net, budget)
    assert graph.complete
    g = nx.DiGraph()
    g.add_nodes_from(range(len(graph.markings)))
    for v, t, w in graph.edges:
        if net.label(t) is EPSILON:
            g.add_edge(v, w)
    return any(
        len(c) > 1 or g.has_edge(next(iter(c)), next(iter(c)))
        for c in nx.strongly_connected_components(g)
    )


def test_criterion_7_selfloop_gadget():
    with report(7, "unobservable-loop gadget vs coverability"):
        rng = random.Random(1007)
        budget = Budget(20000, 2000)
        seen_cov = seen_uncov = 0
        while seen_cov < 10 or seen_uncov < 10:
            net = random_observable_net(
                rng, max_places=3, max_trans=3, max_weight=1, symbols=("s", "c")
            )
            target = tuple(rng.randint(0, 2) for _ in net.places)
            gadget = selfloop_unobservable(net, target)
            cov = coverable(net, target)
            rep = check_assumptions(gadget.net, budget)
            outcome = rep.no_infinite_unobservable.outcome
            if cov:
                seen_cov += 1
            else:
                seen_uncov += 1
            if outcome == HOLDS:
                assert not cov
            elif outcome == FAILS:
                assert cov
            else:
                # inconclusive only allowed when the graph does not close
                assert not build_reachability_graph(gadget.net, budget).complete
        # unobservable-cycle detection agrees with a graph-level oracle on
        # bounded nets containing unobservable transitions
        checked = 0
        rng2 = random.Random(1008)
        while checked < 20:
            net = random_net(rng2, eps_prob=0.4)
            graph = build_reachability_graph(net, budget)
            if not graph.complete:
                continue
            checked += 1
            rep = check_assumptions(net, budget)
            assert rep.no_infinite_unobservable.outcome in (HOLDS, FAILS)
            assert rep.no_infinite_unobservable.fails == eps_cycle_brute(net, budget)


def bounded_fixture_nets():
    e1 = make_net(["p"], {"t": ("a", {"p": 1}, {"p": 1})}, {"p": 1})
    e2 = make_net(
        ["p", "q"],
        {
            "t1": ("a", {"p": 1}, {"p": 1}),
            "t2": ("a", {"p": 1}, {"q": 1}),
            "t3": ("a", {"q": 1}, {"q": 1}),
        },
        {"p": 1},
    )
    base = make_net(["p"], {"v": ("v", {"p": 1}, {"p": 1})}, {"p": 1})
    gadget = coverability_to_strong(base, (1,)).net
    return [e1, e2, gadget]


def test_criterion_8_observer_vs_estimate():
    with report(8, "observer agrees with direct estimates"):
        budget = Budget(20000, 2000)
        for net in bounded_fixture_nets():
            obs = build_observer(net)
            symbols = sorted(net.alphabet)
            # walk all words up to length 5; missing observer edges must
            # correspond to empty estimates, pruning the whole subtree
            frontier = [((), obs.initial)]
            for _ in range(5):
                nxt = []
                for word, state in frontier:
                    for sym in symbols:
                        w2 = word + (sym,)
                        est, complete = estimate(net, w2, budget)
                        assert complete
                        dst = dict(obs.succ[state]).get(sym)
                        if dst is None:
                            assert est == frozenset()
                        else:
                            assert est == obs.states[dst]
                            nxt.append((w2, dst))
                frontier = nxt


def test_criterion_9_tooling(tmp_path, capsys):
    with report(9, "text round-trip, JSON schema, CLI exit codes"):
        e2 = bounded_fixture_nets()[1]
        g = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
        nets = bounded_fixture_nets() + [
            selfloop_unobservable(e2, (0, 1)).net,
            inclusion_to_weak(g, g).net,
        ]
        for net in nets:
            assert parse_lpn(render_lpn(net)).net == net

        def run(argv):
            code = main(argv)
            return code, capsys.readouterr().out

        p1 = tmp_path / "e1.lpn"
        p1.write_text(render_lpn(bounded_fixture_nets()[0]))
        p2 = tmp_path / "e2.lpn"
        p2.write_text(render_lpn(e2))
        p3 = tmp_path / "e3.lpn"
        p3.write_text(
            "places p q\ninitial p=1\ntrans t label a pre p:1 post p:1 q:1\n"
        )

        code, out = run(["check-strong", str(p1), "--json"])
        assert code == 0
        rep = json.loads(out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["outcome"] == "holds"

        code, out = run(["check-strong", str(p2), "--json"])
        assert code == 1
        rep = json.loads(out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["witness"] is not None

        p5 = tmp_path / "e5.lpn"
        p5.write_text(
            "places s x y z q\ninitial s=1\n"
            "trans t1 label a pre s:1 post x:1\ntrans t2 label a pre s:1 post y:1\n"
            "trans u1 label b pre x:1 post z:1\ntrans u2 label b pre y:1 post z:1\n"
            "trans w label c pre z:1 post z:1 q:1\n"
        )
        for path, expected in ((p3, 0), (p5, 2)):
            code, out = run([
                "check-strong", str(path), "--json",
                "--max-states", "100", "--max-depth", "20",
            ])
            assert code == expected
            jsonschema.validate(json.loads(out), VERDICT_REPORT_SCHEMA)

        secret = tmp_path / "secret.txt"
        secret.write_text("p=1\n")
        code, out = run([
            "check-opacity", str(p1), "--secret", str(secret), "--json",
        ])
        assert code == 1
        jsonschema.validate(json.loads(out), VERDICT_REPORT_SCHEMA)

        assert main(["validate", str(tmp_path / "missing.lpn")]) == 3
        capsys.readouterr()
