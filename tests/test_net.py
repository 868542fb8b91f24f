import dataclasses
import random

import pytest

from lpndetect import analyze, explore, make_net
from lpndetect.explore import Budget, build_km_tree, build_reachability_graph
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


def _net(**change):
    fields = dict(places=("p",), transitions=("t",), pre=((1,),), post=((0,),),
                  labels=("a",), alphabet=frozenset("a"), initial_marking=(1,))
    return LabeledPetriNet(**{**fields, **change})


_MALFORMED = [
    (lambda: _net(places=(), transitions=(), pre=(), post=(), labels=()),
     "at least one place or transition"),
    (lambda: _net(places=("p", "p"), pre=((1, 0),), post=((0, 0),),
                  initial_marking=(1, 0)), "duplicate place"),
    (lambda: _net(transitions=("t", "u", "t"), pre=((1,),) * 3, post=((0,),) * 3,
                  labels=("a",) * 3), "duplicate transition"),
    (lambda: _net(labels=("b",)), "label 'b' not in alphabet"),
    (lambda: _net(initial_marking=(-1,)), "must be non-negative"),
    (lambda: _net(post=()), "wrong transition dimension"),
    (lambda: _net(pre=((1, 0),)), "wrong place dimension"),
    (lambda: _net(post=((-1,),)), "weights must be non-negative"),
    (lambda: make_net(["p"], {"t": ("a", {}, {"q": 1})}), "unknown place 'q'"),
    (lambda: make_net(["p"], {"t": ("a", {"p": 1}, {"p": 1})}, {"q": 1}),
     "initial marking references unknown place 'q'"),
    # render_lpn would write these, and parse_lpn could not read them back.
    (lambda: _net(pre=((1.5,),)), "weights must be non-negative integers, not 1.5"),
    (lambda: _net(post=((True,),)), "weights must be non-negative integers, not True"),
    (lambda: _net(initial_marking=(1.5,)), "marking must be non-negative integers, not 1.5"),
    (lambda: _net(initial_marking=(True,)), "marking must be non-negative integers, not True"),
]


@pytest.mark.parametrize("build,message", _MALFORMED, ids=[m for _, m in _MALFORMED])
def test_malformed_net_is_rejected(build, message):
    with pytest.raises(InputError, match=message):
        build()


@pytest.mark.parametrize("bad", ["", "a b", "a#b", "a\tb", "a\nb", "#"])
def test_unreadable_identifiers_are_rejected(bad):
    # render_lpn would write them, and parse_lpn could not read them back.
    for build in (
        lambda: make_net([bad], {"t": ("a", {}, {})}),
        lambda: make_net(["p"], {bad: ("a", {}, {})}),
        lambda: make_net(["p"], {"t": (bad, {}, {})}),
        lambda: make_net(["p"], {"t": ("a", {}, {})}, alphabet=["a", bad]),
    ):
        with pytest.raises(InputError, match="without whitespace or '#'"):
            build()


def test_unobservable_mark_is_no_symbol():
    with pytest.raises(InputError, match="marks the unobservable label"):
        make_net(["p"], {"t": ("~", {}, {})})


def test_twin_and_gadget_identifiers_stay_legal():
    net = make_net(["p'", "(t,~)", "a=b:c"], {"(t,u)": ("a", {"p'": 1}, {"(t,~)": 1})},
                   {"p'": 1})
    assert net.places == ("p'", "(t,~)", "a=b:c") and net.transitions == ("(t,u)",)


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


def reference_successors(net, m):
    return [
        (ti, fire(net, m, t))
        for ti, t in enumerate(net.transitions)
        if enabled(net, m, t)
    ]


def assert_kernel_agrees(net, m):
    assert list(successors(net, m)) == reference_successors(net, m)


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
            for node in build_km_tree(net, Budget()).states:
                assert_kernel_agrees(net, node.marking)
                omega_markings += float("inf") in node.marking
    assert omega_markings >= 100


def test_kernel_recomputed_on_replace(e2):
    # t2 now needs two tokens on p and returns one to q.
    net = dataclasses.replace(e2, pre=((1, 0), (2, 0), (0, 1)))
    assert net.kernel[1] == (1, 0, 2, (), (-2, 1))
    assert net.kernel[1] != e2.kernel[1]
    assert list(successors(net, (1, 0))) == [(0, (1, 0))]
    for m in ((1, 0), (2, 0), (2, 1), (0, 1)):
        assert_kernel_agrees(net, m)


def test_kernel_transition_without_input_arc():
    # An arc-less transition is enabled everywhere, with or without places.
    net = make_net(["p"], {"t": ("a", {}, {"p": 1}), "u": ("b", {"p": 1}, {})}, {})
    assert net.kernel[0] == (0, None, 0, (), (1,))
    assert list(successors(net, (0,))) == [(0, (1,))]
    assert list(successors(net, (1,))) == [(0, (2,)), (1, (0,))]
    bare = make_net([], {"t": ("a", {}, {})}, {})
    assert bare.kernel == ((0, None, 0, (), ()),)
    assert list(successors(bare, ())) == [(0, ())]
    for m in ((0,), (1,), (3,)):
        assert_kernel_agrees(net, m)
    assert_kernel_agrees(bare, ())


def test_kernel_later_arc_fails_after_first_passes():
    net = make_net(["p", "q", "r"], {"t": ("a", {"p": 1, "q": 1, "r": 2}, {"p": 1})},
                   {"p": 1, "q": 1, "r": 1})
    assert net.kernel[0] == (0, 0, 1, ((1, 1), (2, 2)), (0, -1, -2))
    assert list(successors(net, (1, 1, 1))) == []
    assert list(successors(net, (1, 0, 2))) == []
    assert list(successors(net, (1, 1, 2))) == [(0, (1, 0, 0))]
    for m in ((1, 1, 1), (1, 0, 2), (1, 1, 2), (0, 1, 2)):
        assert_kernel_agrees(net, m)


def test_kernel_first_arc_of_weight_above_one():
    net = make_net(["p", "q"], {"t": ("a", {"p": 3}, {"q": 1}), "u": ("a", {"q": 1}, {})}, {})
    assert net.kernel[0] == (0, 0, 3, (), (-3, 1))
    assert list(successors(net, (2, 0))) == []
    assert list(successors(net, (3, 1))) == [(0, (0, 2)), (1, (3, 0))]
    for m in ((2, 0), (3, 0), (4, 1)):
        assert_kernel_agrees(net, m)


def test_kernel_omega_on_first_arc():
    omega = float("inf")
    net = make_net(["p", "q"], {"t": ("a", {"p": 2, "q": 1}, {"q": 2})}, {})
    assert list(successors(net, (omega, 0))) == []
    assert list(successors(net, (omega, 1))) == [(0, (omega, 2))]
    assert list(successors(net, (omega, omega))) == [(0, (omega, omega))]
    for m in ((omega, 0), (omega, 1), (1, omega), (omega, omega)):
        assert_kernel_agrees(net, m)


def test_explorers_fire_each_expanded_marking_once(monkeypatch):
    # build_reachability_graph and weak's root test each call successors
    # once per stored marking, on the markings in BFS order.
    net = make_net(["p", "q", "r"], {
        "t": ("a", {"p": 1}, {"q": 1}),
        "u": (None, {"q": 1}, {"r": 1}),
        "v": ("b", {"r": 1, "q": 1}, {"p": 2}),
        "w": ("a", {"r": 1}, {"p": 1}),
    }, {"p": 2})
    calls = {explore: [], analyze: []}
    for module, seen in calls.items():
        monkeypatch.setattr(module, "successors",
                            lambda g, m, seen=seen: seen.append(m) or successors(g, m))
    graph = explore.build_reachability_graph(net, Budget())
    assert graph.complete and len(graph.markings) > 5
    assert calls[explore] == graph.markings
    calls[explore].clear()
    tree, _ = analyze._root_cycle(net, Budget())
    assert calls[explore] == [] and len(tree.states) > 1
    assert calls[analyze] == tree.states


def test_index_maps_are_not_parameters(e2):
    # __post_init__ fills both maps, so the constructor takes neither.
    with pytest.raises(TypeError):
        LabeledPetriNet(e2.places, e2.transitions, e2.pre, e2.post, e2.labels,
                        e2.alphabet, e2.initial_marking, place_index={"zzz": 5})
    with pytest.raises(ValueError):
        dataclasses.replace(e2, transition_index={})
    net = dataclasses.replace(e2, places=("q", "p"), initial_marking=(0, 1))
    assert net.place_index == {"q": 0, "p": 1}
    assert net.transition_index == e2.transition_index == {"t1": 0, "t2": 1, "t3": 2}
