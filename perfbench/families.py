"""Net families, the four workloads and the pinned table of known verdicts.

Every expected verdict below follows from how its instance is built: token
conservation, determinism, or the theorem of a reduction gadget. None is
taken from the checkers being measured. `expected` is the true answer; an
`inconclusive` report counts as undecided, never as matching or wrong.

The workload seed renames every place and transition and permutes the
place order, the transition order and the instance order. Verdicts and
state-space sizes are invariant under that, but search tie-breaks are not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from lpndetect import (
    EPSILON,
    FAILS,
    HOLDS,
    Budget,
    LabeledPetriNet,
    coverability_to_strong,
    inclusion_to_weak,
    make_net,
    secret_marking,
)

COVERABLE = "coverable"
UNCOVERABLE = "uncoverable"


@dataclass(frozen=True)
class Instance:
    name: str
    check: str  # "strong" | "weak" | "opacity" | "coverable"
    net: LabeledPetriNet
    expected: str  # HOLDS / FAILS, or COVERABLE / UNCOVERABLE for "coverable"
    reason: str
    secret: tuple = ()  # opacity: the secret markings
    target: tuple = ()  # coverable: the target marking
    origin: tuple = ()  # a gadget's input, for the oracle tests: (kind, *args)


@dataclass(frozen=True)
class Workload:
    name: str
    budget: Budget
    dominant: str  # span predicted to take most of the check time
    build: object  # () -> list[Instance], before seeding


# ---------------------------------------------------------------------------
# Net families
# ---------------------------------------------------------------------------


def ring(k, n, eps=False, labels=("b", "a")):
    """Places p0..p{k-1} in a cycle; t_i moves one token p_i -> p_{i+1}.

    Labels alternate labels[0], labels[1], ... from t0; with eps, every
    third transition (t2, t5, ...) is unobservable. n tokens start on p0.
    """
    places = [f"p{i}" for i in range(k)]
    trans = {}
    for i in range(k):
        lab = EPSILON if eps and i % 3 == 2 else labels[i % 2]
        trans[f"t{i}"] = (lab, {places[i]: 1}, {places[(i + 1) % k]: 1})
    return make_net(places, trans, {"p0": n})


def drop_last(net):
    """The net without its last transition."""
    return LabeledPetriNet(
        places=net.places,
        transitions=net.transitions[:-1],
        pre=net.pre[:-1],
        post=net.post[:-1],
        labels=net.labels[:-1],
        alphabet=net.alphabet,
        initial_marking=net.initial_marking,
    )


def producers(k):
    """k independent a-labelled producers: t_i keeps the token on p_i and
    adds one to q_i."""
    places, trans = [], {}
    for i in range(k):
        places += [f"p{i}", f"q{i}"]
        trans[f"t{i}"] = ("a", {f"p{i}": 1}, {f"p{i}": 1, f"q{i}": 1})
    return make_net(places, trans, {f"p{i}": 1 for i in range(k)})


def diverging_pair(w1, w2, consumer=False):
    """Two a-labelled producers on one place p adding w1 to q or w2 to r,
    optionally also a token to s that a b-labelled v consumes (the
    unbounded family of the acceptance gate's criterion 6)."""
    if not consumer:
        return make_net(
            ["p", "q", "r"],
            {
                "t": ("a", {"p": 1}, {"p": 1, "q": w1}),
                "u": ("a", {"p": 1}, {"p": 1, "r": w2}),
            },
            {"p": 1},
        )
    return make_net(
        ["p", "q", "r", "s"],
        {
            "t": ("a", {"p": 1}, {"p": 1, "q": w1, "s": 1}),
            "u": ("a", {"p": 1}, {"p": 1, "r": w2, "s": 1}),
            "v": ("b", {"s": 1}, {}),
        },
        {"p": 1},
    )


def tokens_on(net, counts):
    """Marking with counts[place] tokens, zero elsewhere."""
    return tuple(counts.get(p, 0) for p in net.places)


# ---------------------------------------------------------------------------
# Reasons, shared by the instances they justify
# ---------------------------------------------------------------------------

WHY_RING_FAILS = (
    "n>=2 tokens on a live bounded ring: every marking lies on a cycle, and "
    "from one with tokens on p0 and p2 the b-labelled t0 and t2 lead to "
    "different markings"
)
WHY_EPS_RING_FAILS = (
    "n>=2 tokens, k>=4: every marking lies on a cycle, and from one with "
    "tokens on p1 and p3 the a-labelled t1 and t3 lead to different markings"
)
WHY_ONE_TOKEN_HOLDS = (
    "one token and no silent step: each marking enables exactly one "
    "transition, so the word fixes the marking"
)
WHY_ONE_TOKEN_EPS_FAILS = (
    "one token circling forever: after each a of t1 the token may or may "
    "not have taken the silent t2"
)
WHY_COV_FAILS = (
    "the target is reachable (all tokens moved to the last place), so the "
    "probes fire and the two tags become indistinguishable"
)
WHY_UNCOV_HOLDS = (
    "the ring conserves its tokens, so a target with one token more is never "
    "covered; the derived net is finite and deterministic without the probes"
)
WHY_WEAK_BLOCK = (
    "even k: the word (b^n a^n)^(k/2) moves the tokens as a block through "
    "singleton estimates back to the initial marking"
)
WHY_WEAK_EPS_FAILS = (
    "every infinite run moves some token through p2 infinitely often, and "
    "right after t1 puts it there the estimate also holds the silent t2's "
    "successor"
)
WHY_OPACITY_BLOCK = (
    "the word b^n moves all tokens to p1 through singleton estimates, so "
    "that estimate is exactly the secret"
)
WHY_OPACITY_EPS = (
    "the secret has tokens on p2, so any estimate holding it also holds its "
    "silent t2 successor, which is not secret"
)
WHY_INCL_SAME = (
    "g2 = g1, so inclusion holds: the inclusion gadget is not weakly "
    "detectable and its secret marking is opaque"
)
WHY_INCL_DROP = (
    "g2 = g1 without its last transition fires at most n(k-1) times while g1 "
    "runs forever, so inclusion fails: the gadget is weakly detectable and "
    "its secret marking is not opaque"
)
WHY_DETERMINISTIC_HOLDS = (
    "a single transition: the word fixes the firing sequence and hence the "
    "marking (unbounded, so the checker may stay inconclusive)"
)
WHY_DIVERGE_FAILS = (
    "equally labelled producers: pump one on both sides, then fire it on one "
    "side and another on the other; their output places differ"
)
WHY_PRODUCER_COVERED = "each producer fires freely, so its output place grows without bound"
WHY_PRODUCER_CONSERVED = "each producer keeps exactly one token on its own place"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _twin_bounded():
    out = []
    for k, n in ((4, 2), (5, 3), (6, 3)):
        out.append(Instance(f"ring({k},{n})", "strong", ring(k, n), FAILS, WHY_RING_FAILS))
    for k, n in ((4, 2), (5, 2), (5, 3), (6, 3)):
        out.append(Instance(f"ring({k},{n},eps)", "strong", ring(k, n, eps=True),
                            FAILS, WHY_EPS_RING_FAILS))
    out.append(Instance("ring(8,1)", "strong", ring(8, 1), HOLDS, WHY_ONE_TOKEN_HOLDS))
    out.append(Instance("ring(6,1,eps)", "strong", ring(6, 1, eps=True), FAILS,
                        WHY_ONE_TOKEN_EPS_FAILS))
    for k, n in ((5, 2), (6, 3)):
        base = ring(k, n)
        cov_target = tokens_on(base, {f"p{k - 1}": n})
        uncov_target = tokens_on(base, {"p0": n + 1})
        cov = coverability_to_strong(base, cov_target)
        uncov = coverability_to_strong(base, uncov_target)
        out.append(Instance(f"cov2strong(ring({k},{n}),coverable)", "strong", cov.net,
                            FAILS, WHY_COV_FAILS, origin=("coverability", base, cov_target)))
        out.append(Instance(f"cov2strong(ring({k},{n}),uncoverable)", "strong",
                            uncov.net, HOLDS, WHY_UNCOV_HOLDS,
                            origin=("coverability", base, uncov_target)))
    return out


def _observer_bounded():
    out = []
    for k, n in ((6, 3), (8, 4)):
        g = ring(k, n)
        out.append(Instance(f"weak ring({k},{n})", "weak", g, HOLDS, WHY_WEAK_BLOCK))
        out.append(Instance(f"opacity ring({k},{n})", "opacity", g, FAILS,
                            WHY_OPACITY_BLOCK, secret=(tokens_on(g, {"p1": n}),)))
    for k, n in ((6, 2), (8, 3), (9, 3)):
        g = ring(k, n, eps=True)
        out.append(Instance(f"weak ring({k},{n},eps)", "weak", g, FAILS,
                            WHY_WEAK_EPS_FAILS))
    for k, n in ((8, 3), (9, 3)):
        g = ring(k, n, eps=True)
        out.append(Instance(f"opacity ring({k},{n},eps)", "opacity", g, HOLDS,
                            WHY_OPACITY_EPS, secret=(tokens_on(g, {"p2": n}),)))
    g1 = ring(4, 2, labels=("s", "c"))
    for tag, g2, weak, opaque, why in (
        ("same", g1, FAILS, HOLDS, WHY_INCL_SAME),
        ("drop", drop_last(g1), HOLDS, FAILS, WHY_INCL_DROP),
    ):
        gadget = inclusion_to_weak(g1, g2)
        origin = ("inclusion", g1, g2)
        out.append(Instance(f"incl2weak(ring(4,2),{tag})", "weak", gadget.net, weak, why,
                            origin=origin))
        out.append(Instance(f"incl2opacity(ring(4,2),{tag})", "opacity", gadget.net,
                            opaque, why, secret=(secret_marking(gadget),), origin=origin))
    return out


def _twin_unbounded():
    out = [
        Instance("e3", "strong", producers(1), HOLDS, WHY_DETERMINISTIC_HOLDS),
        Instance("e4", "strong", diverging_pair(1, 1), FAILS, WHY_DIVERGE_FAILS),
    ]
    for w1, w2 in ((1, 2), (2, 1), (2, 2), (1, 3)):
        out.append(Instance(f"diverge({w1},{w2})", "strong", diverging_pair(w1, w2),
                            FAILS, WHY_DIVERGE_FAILS))
    for w in (1, 2, 3, 4, 5):
        out.append(Instance(f"diverge({w},{w},consumer)", "strong",
                            diverging_pair(w, w, consumer=True), FAILS,
                            WHY_DIVERGE_FAILS))
    for k in (3, 4):
        out.append(Instance(f"producers({k})", "strong", producers(k), FAILS,
                            WHY_DIVERGE_FAILS))
    return out


def _coverability():
    out = []
    for k, tags in (
        (4, ("q0>=3", "all q>=1", "q1>=2", "p3>=2", "p0>=2,q0>=1", "p1>=3")),
        (5, ("q0>=3", "all q>=1", "q1>=2", "p4>=2", "p0>=2,q0>=1", "p1>=3")),
        (6, ("all q>=1", "q1>=2", "p5>=2")),
    ):
        net = producers(k)
        targets = {
            "q0>=3": (COVERABLE, {"q0": 3}),
            "q1>=2": (COVERABLE, {"q1": 2}),
            "all q>=1": (COVERABLE, {f"q{i}": 1 for i in range(k)}),
            f"p{k - 1}>=2": (UNCOVERABLE, {f"p{k - 1}": 2}),
            "p0>=2,q0>=1": (UNCOVERABLE, {"p0": 2, "q0": 1}),
            "p1>=3": (UNCOVERABLE, {"p1": 3}),
        }
        for tag in tags:
            expected, counts = targets[tag]
            why = WHY_PRODUCER_COVERED if expected == COVERABLE else WHY_PRODUCER_CONSERVED
            out.append(Instance(f"producers({k}) {tag}", "coverable", net, expected, why,
                                target=tokens_on(net, counts)))
    return out


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("twin_bounded", Budget(20000, 2000), "explore.witness", _twin_bounded),
        Workload("observer_bounded", Budget(20000, 2000), "analyze.observer",
                 _observer_bounded),
        Workload("twin_unbounded", Budget(2000, 100), "explore.reach_graph", _twin_unbounded),
        Workload("coverability", Budget(20000, 2000), "explore.km", _coverability),
    )
}


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------


def _fresh_ids(rng, prefix, count, taken):
    out = []
    while len(out) < count:
        name = f"{prefix}{rng.randrange(16 ** 6):06x}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def reseed(inst: Instance, rng: random.Random) -> Instance:
    """An isomorphic copy: fresh identifiers, permuted places and transitions."""
    net = inst.net
    taken = set()
    place_ids = _fresh_ids(rng, "p", len(net.places), taken)
    trans_ids = _fresh_ids(rng, "t", len(net.transitions), taken)
    porder = list(range(len(net.places)))
    torder = list(range(len(net.transitions)))
    rng.shuffle(porder)
    rng.shuffle(torder)

    def perm(m):
        return tuple(m[i] for i in porder)

    seeded = LabeledPetriNet(
        places=tuple(place_ids[i] for i in porder),
        transitions=tuple(trans_ids[j] for j in torder),
        pre=tuple(perm(net.pre[j]) for j in torder),
        post=tuple(perm(net.post[j]) for j in torder),
        labels=tuple(net.labels[j] for j in torder),
        alphabet=net.alphabet,
        initial_marking=perm(net.initial_marking),
    )
    return Instance(
        inst.name, inst.check, seeded, inst.expected, inst.reason,
        secret=tuple(perm(m) for m in inst.secret),
        target=perm(inst.target) if inst.target else (),
        origin=inst.origin,
    )


def instances(workload: str, seed: int) -> list:
    """The workload's instances for seed, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    out = [reseed(inst, rng) for inst in WORKLOADS[workload].build()]
    rng.shuffle(out)
    return out
