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

from .net import EPSILON, InputError, LabeledPetriNet, Marking, _check_naturals, make_net


@dataclass(frozen=True)
class GadgetOutput:
    net: LabeledPetriNet
    provenance: dict  # added-element id -> role
    secret: Optional[Marking] = None


def _weights(places, row, prefix=""):
    """The nonzero entries of row as {prefix + place: weight}, as make_net
    takes an arc map."""
    return {prefix + p: w for p, w in zip(places, row) if w}


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
    _check_naturals(tuple(target), "target")
    if any(lab is EPSILON for lab in net.labels):
        raise InputError("input net must have observable transitions only")
    new_places = ("p_tag1", "p_tag2", "p_run")
    new_trans = ("t_probe1", "t_probe2", "t_run")
    taken = set(net.places) | set(net.transitions)
    _check_fresh(new_places + new_trans, taken, "reserved")

    # Original transitions become self-labeled: distinct observable symbols.
    transitions = {t: (t, _weights(net.places, pre), _weights(net.places, post))
                   for t, pre, post in zip(net.transitions, net.pre, net.post)}
    probe = _weights(net.places, target)
    transitions["t_probe1"] = (EPSILON, probe, {"p_tag1": 1})
    transitions["t_probe2"] = (EPSILON, probe, {"p_tag2": 1})
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

    # Branch prefix, simulated net, first control place c and name: a branch
    # runs on p<c>, is frozen on p<c+1> and ends on p<c+2>.
    branches = (("g1", g1, 1, "g1"), ("g2a", g2, 4, "first g2"), ("g2b", g2, 7, "second g2"))
    control = tuple(f"p{i}" for i in range(10))
    places = control + tuple(f"{b}_{p}" for b, g, _, _ in branches for p in g.places)

    transitions = {}  # id -> (label, pre map, post map), as make_net takes them
    provenance = {p: "control place" for p in control}
    for b, g, _, which in branches:
        for p in g.places:
            provenance[f"{b}_{p}"] = f"copy of place {p!r} in the {which} branch"

    def add(tid, lab, pre_map, post_map, role):
        transitions[tid] = (lab, pre_map, post_map)
        provenance[tid] = role

    # Branch starters: one x per branch, seeding the simulated net.
    for b, g, c, which in branches:
        add(f"t_start_{b}", "x", {"p0": 1},
            {f"p{c}": 1, **_weights(g.places, g.initial_marking, f"{b}_")},
            f"start of the {which} branch")
    # Embedded copies, each gated by a self-loop on its control place.
    for b, g, c, which in branches:
        for ti, t in enumerate(g.transitions):
            add(f"{b}_{t}", g.labels[ti],
                {f"p{c}": 1, **_weights(g.places, g.pre[ti], f"{b}_")},
                {f"p{c}": 1, **_weights(g.places, g.post[ti], f"{b}_")},
                f"copy of {t!r} in the {which} branch")
    # Freeze each branch with a second x.
    for b, _, c, which in branches:
        add(f"t_freeze_{b}", "x", {f"p{c}": 1}, {f"p{c + 1}": 1},
            f"freeze of the {which} branch")
    # Drain the g1 places one token at a time under a; the g2 branches
    # accept any number of a's.
    for p in g1.places:
        add(f"t_drain_{p}", "a", {"p2": 1, f"g1_{p}": 1}, {"p2": 1},
            f"drain of one token from {p!r}")
    for b, _, c, which in branches[1:]:
        add(f"t_a_{b}", "a", {f"p{c + 1}": 1}, {f"p{c + 1}": 1},
            f"a loop of the {which} branch")
    # Switch to, and stay in, the final b phase.
    for b, _, c, which in branches:
        add(f"t_b_{b}", "b", {f"p{c + 1}": 1}, {f"p{c + 2}": 1},
            f"b switch of the {which} branch")
    for b, _, c, which in branches:
        add(f"t_bloop_{b}", "b", {f"p{c + 2}": 1}, {f"p{c + 2}": 1},
            f"b loop of the {which} branch")

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
    _check_naturals(tuple(target), "target")
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
