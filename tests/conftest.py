import pytest

from lpndetect import Budget, make_net
from lpndetect.gadgets import coverability_to_strong


@pytest.fixture
def e1():
    # one place, one observable self-loop: bounded, detectable
    return make_net(["p"], {"t": ("a", {"p": 1}, {"p": 1})}, {"p": 1})


@pytest.fixture
def e2():
    # bounded, neither strongly nor weakly detectable
    return make_net(
        ["p", "q"],
        {
            "t1": ("a", {"p": 1}, {"p": 1}),
            "t2": ("a", {"p": 1}, {"q": 1}),
            "t3": ("a", {"q": 1}, {"q": 1}),
        },
        {"p": 1},
    )


@pytest.fixture
def e3():
    # unbounded producer, deterministic, strongly detectable
    return make_net(["p", "q"], {"t": ("a", {"p": 1}, {"p": 1, "q": 1})}, {"p": 1})


@pytest.fixture
def e4():
    # unbounded, not strongly detectable
    return make_net(
        ["p", "q", "r"],
        {
            "t": ("a", {"p": 1}, {"p": 1, "q": 1}),
            "u": ("a", {"p": 1}, {"p": 1, "r": 1}),
        },
        {"p": 1},
    )


@pytest.fixture
def e5():
    # unbounded, strongly detectable, deadlock free, without ε; no
    # certificate proves deadlock freedom or strong detectability
    return make_net(
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


@pytest.fixture
def gadcov():
    # coverability gadget over a one-transition net; bounded, not strongly
    # detectable because the probes are firable
    base = make_net(["p"], {"v": ("v", {"p": 1}, {"p": 1})}, {"p": 1})
    return coverability_to_strong(base, (1,))


@pytest.fixture
def budget():
    return Budget(max_states=5000, max_depth=1000)
