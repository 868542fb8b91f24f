import itertools
import random

from lpndetect import build_twin, make_net, observation
from lpndetect.net import EPSILON, fire_sequence
from lpndetect.twin import decode_pairs, mismatch, project

from netgen import enumerate_sequences, random_net, twin_pair_realizable


def test_build_twin_e1(e1):
    tw = build_twin(e1)
    assert len(tw.net.places) == 2
    assert tw.net.transitions == ("(t,t)",)
    assert tw.pair_of["(t,t)"] == ("t", "t")
    assert tw.net.initial_marking == (1, 1)


def test_build_twin_e2_count(e2):
    tw = build_twin(e2)
    assert len(tw.net.places) == 4
    assert len(tw.net.transitions) == 9  # three a-labeled transitions, 3^2 pairs


def test_build_twin_gadget_count(gadcov):
    tw = build_twin(gadcov.net)
    # 2 unobservable probes and 2 distinctly-labeled observable transitions
    assert len(tw.net.transitions) == 2 * 2 + 1 + 1


def test_transition_count_formula_random():
    rng = random.Random(11)
    for _ in range(30):
        net = random_net(rng)
        tw = build_twin(net)
        u = sum(1 for t in net.transitions if net.label(t) is EPSILON)
        per_symbol = {}
        for t in net.transitions:
            if net.label(t) is not EPSILON:
                lab = net.label(t)
                per_symbol[lab] = per_symbol.get(lab, 0) + 1
        expected = 2 * u + sum(k * k for k in per_symbol.values())
        assert len(tw.net.transitions) == expected
        assert len(tw.net.places) == 2 * len(net.places)
        assert set(tw.pair_of) == set(tw.net.transitions)
        assert all(pair != (None, None) for pair in tw.pair_of.values())


def test_project_single_pair(e1):
    tw = build_twin(e1)
    assert project(tw, ("(t,t)",)) == (("t",), ("t",))
    assert project(tw, ()) == ((), ())


def test_project_e4_pair(e4):
    tw = build_twin(e4)
    assert project(tw, ("(t,u)",)) == (("t",), ("u",))


def test_decode_pairs(e4):
    tw = build_twin(e4)
    assert decode_pairs(tw, ("(t,u)",)) == (("t", "u"),)


def test_mismatch(e2, e4):
    tw = build_twin(e2)
    assert mismatch(tw, (1, 0, 1, 0)) == (False, None)
    assert mismatch(tw, (1, 0, 0, 1)) == (True, "p")
    tw4 = build_twin(e4)
    m = fire_sequence(tw4.net, tw4.net.initial_marking, ("(t,u)",))
    assert m == (1, 1, 0, 1, 0, 1)
    assert mismatch(tw4, m) == (True, "q")


def test_soundness_exhaustive():
    # every twin sequence projects to two sequences with equal observations
    for seed in range(10):
        net = random_net(random.Random(100 + seed))
        tw = build_twin(net)
        for seq, m in enumerate_sequences(tw.net, tw.net.initial_marking, 5):
            s1, s2 = project(tw, seq)
            assert observation(net, s1) == observation(net, s2)
            # each half of the reached twin marking is reached by its projection
            assert fire_sequence(net, net.initial_marking, s1) == tw.first(m)
            assert fire_sequence(net, net.initial_marking, s2) == tw.second(m)


def test_completeness_exhaustive():
    # every equal-observation pair of net sequences is realized in the twin
    for seed in range(10):
        net = random_net(random.Random(200 + seed))
        tw = build_twin(net)
        seqs = enumerate_sequences(net, net.initial_marking, 3)
        by_obs = {}
        for seq, _ in seqs:
            by_obs.setdefault(observation(net, seq), []).append(seq)
        for group in by_obs.values():
            for s1, s2 in itertools.product(group, repeat=2):
                assert twin_pair_realizable(tw, s1, s2)


def _collision_nets():
    """(case, bounded net, unbounded net) whose default twin ids collide: a
    place and its mirror, a place and a pair id, two pair ids of
    comma-named transitions, and the two moves of an ε transition named ~."""
    def shapes(places, ts, eps=None):
        # e2's shape (bounded) and e4's (unbounded), both not strongly
        # detectable: four a-moves, from p onto p or q or among q, or
        # growing q or r. eps, if given, names an ε move from p to q.
        p, q, r = places
        t1, t2, t3, t4 = ts
        bounded = {t1: ("a", {p: 1}, {p: 1}), t2: ("a", {p: 1}, {q: 1}),
                   t3: ("a", {q: 1}, {q: 1}), t4: ("a", {q: 1}, {q: 1})}
        unbounded = {t1: ("a", {p: 1}, {p: 1, q: 1}), t2: ("a", {p: 1}, {p: 1, r: 1}),
                     t3: ("a", {p: 1}, {p: 1}), t4: ("a", {p: 1}, {p: 1, q: 1, r: 1})}
        if eps is not None:
            bounded = {t1: ("a", {p: 1}, {p: 1}), eps: (None, {p: 1}, {q: 1}),
                       t3: ("a", {q: 1}, {q: 1})}
            unbounded = {t1: ("a", {p: 1}, {p: 1, r: 1}), eps: (None, {p: 1}, {q: 1}),
                         t3: ("a", {q: 1}, {q: 1, r: 1})}
        return (make_net([p, q], bounded, {p: 1}),
                make_net([p, q, r], unbounded, {p: 1}))

    return [
        ("mirror", *shapes(("p", "p'", "r"), ("t", "u", "v", "w"))),
        ("place", *shapes(("p", "(t,t)", "r"), ("t", "u", "v", "w"))),
        ("commas", *shapes(("p", "q", "r"), ("x,y", "z", "x", "y,z"))),
        ("tilde", *shapes(("p", "q", "r"), ("t", None, "v", None), eps="~")),
    ]


def test_twin_ids_are_unique_on_every_valid_net():
    from lpndetect import Budget, check_strong, explore
    from lpndetect.textio import parse_lpn, render_lpn

    budget = Budget(2000, 100)
    for case, *nets in _collision_nets():
        for net in nets:
            tw = build_twin(net)
            ids = tw.net.places + tw.net.transitions
            assert len(set(ids)) == len(ids), case
            assert parse_lpn(render_lpn(tw.net)).net == tw.net
            assert set(tw.pair_of) == set(tw.net.transitions)
            v = check_strong(net, budget)
            assert v.fails, case
            ref = explore.search_pattern(tw.net, explore.STRONG, budget)
            assert (v.witness, v.stats.states, v.stats.depth) == \
                (ref.witness, ref.stats.states, ref.stats.depth)
            assert explore.replay_witness(tw.net, explore.STRONG, v.witness)
            assert explore.replay_witness(tw, explore.STRONG, v.witness)
    # Ids stay as they were wherever nothing collides, and only the
    # colliding ones are primed.
    _, bounded, _ = _collision_nets()[0]
    assert build_twin(bounded).places == ("p", "p'", "p''", "p'''")
    _, bounded, _ = _collision_nets()[1]
    tw = build_twin(bounded)
    assert tw.places == ("p", "(t,t)", "p'", "(t,t)'")
    assert tw.net.transitions[0] == "(t,t)''" and tw.pair_of["(t,t)''"] == ("t", "t")
    assert tw.net.transitions[1:] == tuple(f"({a},{b})" for a in "tuvw" for b in "tuvw")[1:]
    _, _, unbounded = _collision_nets()[2]
    tw = build_twin(unbounded)
    assert tw.pair_of["(x,y,z)"] == ("x,y", "z") and tw.pair_of["(x,y,z)'"] == ("x", "y,z")
    _, bounded, _ = _collision_nets()[3]
    tw = build_twin(bounded)
    assert tw.net.transitions == ("(~,~)", "(~,~)'", "(t,t)", "(t,v)", "(v,t)", "(v,v)")
    assert tw.pair_of["(~,~)"] == ("~", None) and tw.pair_of["(~,~)'"] == (None, "~")
