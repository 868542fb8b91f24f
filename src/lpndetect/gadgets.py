"""Reduction constructions linking the checkers to independent problems.

Each constructor embeds a classical hard problem into a detectability or
assumption question on a derived net:

* coverability_to_strong: target coverable iff the derived net is NOT
  strongly detectable.
* inclusion_to_weak: language inclusion between two fully-observable nets
  holds iff the derived net is NOT weakly detectable; secret_marking gives
  the single marking tying the same instance to opacity.
* selfloop_unobservable: target coverable iff the derived net has an
  infinite unobservable sequence.

The derived nets let the test suite cross-validate the checkers against
coverability and automata-inclusion oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .net import EPSILON, InputError, LabeledPetriNet, Marking, make_net


@dataclass(frozen=True)
class GadgetOutput:
    net: LabeledPetriNet
    provenance: dict  # added-element id -> role
    secret: Optional[Marking] = None


def _check_fresh(ids, taken, what):
    for x in ids:
        if x in taken:
            raise InputError(f"{what} identifier {x!r} clashes with the input net")


def coverability_to_strong(net: LabeledPetriNet, target: Marking) -> GadgetOutput:
    """Embed a coverability instance into strong detectability.

    Requires every input transition to be observable. The output relabels
    each original transition by its own identifier, adds two unobservable
    probe transitions that each consume the target marking and drop a token
    into their own fresh tag place, and a self-looping run place that keeps
    the net deadlock free. The probes fire iff the target is coverable, and
    once fired the two tag places can never be told apart.
    """
    net._check_marking(target)
    if any(lab is EPSILON for lab in net.labels):
        raise InputError("input net must have observable transitions only")
    new_places = ("p_tag1", "p_tag2", "p_run")
    new_trans = ("t_probe1", "t_probe2", "t_run")
    taken = set(net.places) | set(net.transitions)
    _check_fresh(new_places + new_trans, taken, "reserved")

    def weights(row):  # place -> nonzero weight, as make_net takes them
        return {p: w for p, w in zip(net.places, row) if w}

    # Original transitions become self-labeled: distinct observable symbols.
    transitions = {t: (t, weights(net.pre[ti]), weights(net.post[ti]))
                   for ti, t in enumerate(net.transitions)}
    transitions["t_probe1"] = (EPSILON, weights(target), {"p_tag1": 1})
    transitions["t_probe2"] = (EPSILON, weights(target), {"p_tag2": 1})
    transitions["t_run"] = ("t_run", {"p_run": 1}, {"p_run": 1})
    out = make_net(tuple(net.places) + new_places, transitions,
                   tuple(net.initial_marking) + (0, 0, 1))
    provenance = {
        "p_tag1": "tag place filled by the first probe",
        "p_tag2": "tag place filled by the second probe",
        "p_run": "always-marked place keeping the net deadlock free",
        "t_probe1": "unobservable probe consuming the target marking",
        "t_probe2": "unobservable probe consuming the target marking",
        "t_run": "observable self-loop on the run place",
    }
    return GadgetOutput(net=out, provenance=provenance)


_RESERVED_SYMBOLS = ("x", "a", "b")


def inclusion_to_weak(g1: LabeledPetriNet, g2: LabeledPetriNet) -> GadgetOutput:
    """Embed a language-inclusion instance into weak detectability.

    Both inputs must be fully observable and must not use the control
    symbols x, a, b. The output runs one branch simulating g1 and two
    identical branches simulating g2, selected by an initial x. A second x
    freezes the simulation; the g1 branch may then drain its tokens one at a
    time under a-labeled transitions before switching to an everlasting b
    loop, while the g2 branches accept any number of a's. The derived net is
    weakly detectable iff some word of g1 is not a word of g2.
    """
    for g, name in ((g1, "first"), (g2, "second")):
        if any(lab is EPSILON for lab in g.labels):
            raise InputError(f"{name} net must have observable transitions only")
        if set(g.alphabet) & set(_RESERVED_SYMBOLS):
            raise InputError(
                f"{name} net's alphabet clashes with reserved symbols x, a, b"
            )

    control = tuple(f"p{i}" for i in range(10))
    g1p = tuple(f"g1_{p}" for p in g1.places)
    g2a = tuple(f"g2a_{p}" for p in g2.places)
    g2b = tuple(f"g2b_{p}" for p in g2.places)
    places = control + g1p + g2a + g2b

    transitions = {}  # id -> (label, pre map, post map), as make_net takes them
    provenance = {p: "control place" for p in control}
    for prefix, g, which in (("g1_", g1, "g1"), ("g2a_", g2, "first g2"),
                             ("g2b_", g2, "second g2")):
        for p in g.places:
            provenance[f"{prefix}{p}"] = f"copy of place {p!r} in the {which} branch"

    def add(tid, lab, pre_map, post_map, role):
        transitions[tid] = (lab, pre_map, post_map)
        provenance[tid] = role

    def seeded(prefix, g):
        return {f"{prefix}{p}": g.initial_marking[i] for i, p in enumerate(g.places)
                if g.initial_marking[i] > 0}

    # Branch starters: one x per branch, seeding the simulated net.
    add("t_start_g1", "x", {"p0": 1}, {"p1": 1, **seeded("g1_", g1)},
        "start of the g1 branch")
    add("t_start_g2a", "x", {"p0": 1}, {"p4": 1, **seeded("g2a_", g2)},
        "start of the first g2 branch")
    add("t_start_g2b", "x", {"p0": 1}, {"p7": 1, **seeded("g2b_", g2)},
        "start of the second g2 branch")

    # Embedded copies, each gated by a self-loop on its control place.
    def embed(prefix, g, gate, which):
        for ti, t in enumerate(g.transitions):
            pre_map = {gate: 1}
            post_map = {gate: 1}
            for i, p in enumerate(g.places):
                if g.pre[ti][i]:
                    pre_map[f"{prefix}{p}"] = g.pre[ti][i]
                if g.post[ti][i]:
                    post_map[f"{prefix}{p}"] = g.post[ti][i]
            add(f"{prefix}{t}", g.labels[ti], pre_map, post_map,
                f"copy of {t!r} in the {which} branch")

    embed("g1_", g1, "p1", "g1")
    embed("g2a_", g2, "p4", "first g2")
    embed("g2b_", g2, "p7", "second g2")

    # Freeze each branch with a second x.
    add("t_freeze_g1", "x", {"p1": 1}, {"p2": 1}, "freeze of the g1 branch")
    add("t_freeze_g2a", "x", {"p4": 1}, {"p5": 1}, "freeze of the first g2 branch")
    add("t_freeze_g2b", "x", {"p7": 1}, {"p8": 1}, "freeze of the second g2 branch")

    # Drain the g1 places one token at a time under a.
    for p in g1.places:
        add(f"t_drain_{p}", "a", {"p2": 1, f"g1_{p}": 1}, {"p2": 1},
            f"drain of one token from {p!r}")
    add("t_a_g2a", "a", {"p5": 1}, {"p5": 1}, "a loop of the first g2 branch")
    add("t_a_g2b", "a", {"p8": 1}, {"p8": 1}, "a loop of the second g2 branch")

    # Switch to, and stay in, the final b phase.
    add("t_b_g1", "b", {"p2": 1}, {"p3": 1}, "b switch of the g1 branch")
    add("t_b_g2a", "b", {"p5": 1}, {"p6": 1}, "b switch of the first g2 branch")
    add("t_b_g2b", "b", {"p8": 1}, {"p9": 1}, "b switch of the second g2 branch")
    add("t_bloop_g1", "b", {"p3": 1}, {"p3": 1}, "b loop of the g1 branch")
    add("t_bloop_g2a", "b", {"p6": 1}, {"p6": 1}, "b loop of the first g2 branch")
    add("t_bloop_g2b", "b", {"p9": 1}, {"p9": 1}, "b loop of the second g2 branch")

    out = make_net(places, transitions, {"p0": 1},
                   alphabet=g1.alphabet | g2.alphabet | set(_RESERVED_SYMBOLS))
    secret = tuple(int(p == "p3") for p in places)
    return GadgetOutput(net=out, provenance=provenance, secret=secret)


def secret_marking(gadget: GadgetOutput) -> Marking:
    """The single secret marking of an inclusion gadget: one token in the
    post-drain place of the g1 branch, nothing anywhere else."""
    if gadget.secret is None or "p3" not in gadget.net.place_index:
        raise InputError("gadget was not produced by inclusion_to_weak")
    return gadget.secret


def selfloop_unobservable(net: LabeledPetriNet, target: Marking) -> GadgetOutput:
    """Add an unobservable self-loop requiring exactly the target marking.

    The loop fires (forever) iff the target is coverable, so the derived net
    has an infinite unobservable sequence iff the target is coverable.
    """
    net._check_marking(target)
    tid = "t_cover_loop"
    _check_fresh([tid], set(net.places) | set(net.transitions), "reserved")
    out = LabeledPetriNet(
        places=net.places,
        transitions=tuple(net.transitions) + (tid,),
        pre=tuple(net.pre) + (tuple(target),),
        post=tuple(net.post) + (tuple(target),),
        labels=tuple(net.labels) + (EPSILON,),
        alphabet=net.alphabet,
        initial_marking=net.initial_marking,
    )
    return GadgetOutput(
        net=out,
        provenance={tid: "unobservable self-loop requiring the target marking"},
    )
