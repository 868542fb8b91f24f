import dataclasses
import random

import pytest

from lpndetect import make_net
from lpndetect.explore import Budget, build_km_tree, build_reachability_graph, km_nodes
from lpndetect.net import (
    EPSILON,
    FiringError,
    InputError,
    LabeledPetriNet,
    enabled,
    fire,
    fire_sequence,
    leq,
    observation,
    successors,
)

from netgen import random_net


def test_enabled_selfloop(e1):
    assert enabled(e1, (1,), "t")
    assert not enabled(e1, (0,), "t")


def test_enabled_table_lookup(e2):
    assert not enabled(e2, (0, 1), "t1")
    assert enabled(e2, (0, 1), "t3")


def test_enabled_unknown_transition(e1):
    with pytest.raises(InputError):
        enabled(e1, (1,), "nope")


def test_fire_selfloop_identity(e1):
    assert fire(e1, (1,), "t") == (1,)


def test_fire_moves_token(e2):
    assert fire(e2, (1, 0), "t2") == (0, 1)


def test_fire_producer(e3):
    assert fire(e3, (1, 0), "t") == (1, 1)


def test_fire_disabled_reports_place(e2):
    with pytest.raises(FiringError) as exc:
        fire(e2, (0, 1), "t1")
    assert exc.value.place == "p"


def test_fire_value_semantics(e2):
    m = (1, 0)
    fire(e2, m, "t2")
    assert m == (1, 0)


def test_fire_sequence_producer(e3):
    assert fire_sequence(e3, (1, 0), ("t", "t", "t")) == (1, 3)


def test_fire_sequence_empty(e2):
    assert fire_sequence(e2, (1, 0), ()) == (1, 0)


def test_fire_sequence_reports_index(e2):
    with pytest.raises(FiringError) as exc:
        fire_sequence(e2, (1, 0), ("t2", "t1"))
    assert exc.value.index == 1


def test_observation_all_observable(e1):
    assert observation(e1, ("t", "t")) == ("a", "a")


def test_observation_all_unobservable():
    net = make_net(["p"], {"u": (EPSILON, {}, {"p": 1})}, {})
    assert observation(net, ("u", "u")) == ()


def test_observation_gadget_erases_probe(gadcov):
    assert observation(gadcov.net, ("v", "t_probe1")) == ("v",)


def test_identifier_sets_disjoint():
    with pytest.raises(InputError):
        make_net(["x"], {"x": ("a", {}, {})}, {})


def test_labeling_total():
    with pytest.raises(InputError):
        LabeledPetriNet(
            places=("p",),
            transitions=("t",),
            pre=((0,),),
            post=((0,),),
            labels=(),
            alphabet=frozenset(),
            initial_marking=(0,),
        )


def test_initial_marking_dimension():
    with pytest.raises(InputError):
        make_net(["p"], {"t": ("a", {}, {})}, [1, 2])


def test_monotonicity_random():
    # t enabled at m and m <= m2 implies t enabled at m2, with the firing
    # difference preserved componentwise
    rng = random.Random(7)
    for _ in range(50):
        net = random_net(rng)
        m = tuple(rng.randint(0, 3) for _ in net.places)
        extra = tuple(rng.randint(0, 2) for _ in net.places)
        m2 = tuple(a + b for a, b in zip(m, extra))
        for t in net.transitions:
            if enabled(net, m, t):
                assert enabled(net, m2, t)
                assert fire(net, m2, t) == tuple(
                    a + b for a, b in zip(fire(net, m, t), extra)
                )


def test_fire_never_negative_and_composes():
    rng = random.Random(8)
    for _ in range(50):
        net = random_net(rng)
        m = tuple(rng.randint(0, 2) for _ in net.places)
        seq = []
        cur = m
        for _ in range(6):
            cand = [t for t in net.transitions if enabled(net, cur, t)]
            if not cand:
                break
            t = rng.choice(cand)
            seq.append(t)
            cur = fire(net, cur, t)
            assert all(x >= 0 for x in cur)
        cut = rng.randint(0, len(seq))
        via_split = fire_sequence(
            net, fire_sequence(net, m, seq[:cut]), seq[cut:]
        )
        assert via_split == fire_sequence(net, m, seq)
        # observation distributes over concatenation
        assert observation(net, seq) == observation(net, seq[:cut]) + observation(
            net, seq[cut:]
        )


def test_leq():
    assert leq((0, 1), (1, 1))
    assert not leq((2, 0), (1, 1))
    assert not leq((1,), (1, 1))


def reference_successors(net, m, transitions):
    return [
        (ti, fire(net, m, net.transitions[ti]))
        for ti in transitions
        if enabled(net, m, net.transitions[ti])
    ]


def assert_kernel_agrees(net, m):
    every = range(len(net.transitions))
    assert list(successors(net, m, every)) == reference_successors(net, m, every)
    for lab, tis in net.by_label.items():
        assert tis == tuple(ti for ti in every if net.labels[ti] == lab)
        assert list(successors(net, m, tis)) == reference_successors(net, m, tis)
    backwards = every[::-1]
    assert list(successors(net, m, backwards)) == reference_successors(net, m, backwards)


def test_kernel_matches_reference_random():
    # Every marking of each budgeted reachability graph, and every marking,
    # OMEGA entries included, of each Karp-Miller tree small enough to build.
    rng = random.Random(31)
    budget = Budget(max_states=200, max_depth=20)
    omega_markings = 0
    for _ in range(300):
        net = random_net(rng, max_trans=4)
        for m in build_reachability_graph(net, budget).markings:
            assert_kernel_agrees(net, m)
        if len(net.transitions) <= 3:
            for node in km_nodes(build_km_tree(net)):
                assert_kernel_agrees(net, node.marking)
                omega_markings += float("inf") in node.marking
    assert omega_markings >= 100


def test_kernel_recomputed_on_replace(e2):
    # t2 now needs two tokens on p and returns one to q.
    net = dataclasses.replace(e2, pre=((1, 0), (2, 0), (0, 1)))
    assert net.kernel[1] == (((0, 2),), (-2, 1))
    assert net.kernel[1] != e2.kernel[1]
    assert list(successors(net, (1, 0), range(3))) == [(0, (1, 0))]
    for m in ((1, 0), (2, 0), (2, 1), (0, 1)):
        assert_kernel_agrees(net, m)
