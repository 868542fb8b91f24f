"""Judge one check: its verdict against the pinned table, and its witness
replayed through the library's checked reference path.

The checks raise no assertion, so they hold under `python -O` as well.
"""

from __future__ import annotations

from lpndetect import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    NetError,
    build_twin,
    estimate,
    fire_sequence,
    leq,
    mismatch,
    observation,
    project,
)

from families import COVERABLE, UNCOVERABLE


def outcome_of(inst, result) -> str:
    """The verdict as a word comparable with inst.expected."""
    if inst.check == "coverable":
        return COVERABLE if result else UNCOVERABLE
    return result.outcome


def judge(inst, result, budget) -> str | None:
    """None when the check is right or undecided, else why it is wrong."""
    outcome = outcome_of(inst, result)
    if outcome == INCONCLUSIVE:
        return None
    if outcome != inst.expected:
        return f"verdict {outcome}, expected {inst.expected}"
    if inst.check == "strong" and outcome == FAILS:
        return strong_witness_error(inst.net, result.witness)
    if inst.check == "opacity" and outcome == FAILS:
        return opacity_witness_error(inst.net, inst.secret, result.witness, budget)
    if outcome == HOLDS and result.witness is not None:
        return "a holding verdict carries a witness"
    return None


def strong_witness_error(net, witness) -> str | None:
    """Replay a twin witness (alpha, beta, gamma) for strong detectability.

    It must fire in the twin with the recorded boundary markings, have a
    nonempty beta whose end covers its start, end in a marking whose halves
    disagree, and project to two firing sequences of net with equal
    observations that end in those two halves. Firing beta twice must add
    its effect once more.
    """
    tw = build_twin(net)
    try:
        alpha, beta, gamma = witness.segments
        m1, m2, m3 = witness.markings
    except (AttributeError, TypeError, ValueError):
        return "witness does not have three segments and three markings"
    if not beta:
        return "pumped segment is empty"
    m = tw.net.initial_marking
    try:
        for seg, recorded in zip((alpha, beta, gamma), (m1, m2, m3)):
            m = fire_sequence(tw.net, m, seg)
            if m != tuple(recorded):
                return "replayed boundary marking differs from the recorded one"
        pumped = fire_sequence(tw.net, tw.net.initial_marking, alpha + beta + beta + gamma)
        s1, s2 = project(tw, alpha + beta + gamma)
    except (NetError, KeyError) as e:
        return f"witness does not replay in the twin: {e}"
    if not leq(m1, m2):
        return "pumped segment does not cover its start"
    if not mismatch(tw, m3)[0]:
        return "final twin marking has equal halves"
    if pumped != tuple(c + b - a for a, b, c in zip(m1, m2, m3)):
        return "pumping the middle segment does not repeat its effect"
    if observation(net, s1) != observation(net, s2):
        return "the two projected runs have different observations"
    try:
        ends = (fire_sequence(net, net.initial_marking, s1),
                fire_sequence(net, net.initial_marking, s2))
    except NetError as e:
        return f"a projected run does not fire in the net: {e}"
    if ends != (tw.first(m3), tw.second(m3)):
        return "projected runs do not end in the twin's halves"
    return None


def opacity_witness_error(net, secret, witness, budget) -> str | None:
    """Recompute the witness word's estimate with `estimate` and require it
    to equal the reported one and to be a nonempty set of secret markings."""
    try:
        est, complete = estimate(net, witness.word, budget)
    except (AttributeError, NetError) as e:
        return f"witness word cannot be estimated: {e}"
    if not complete:
        return "estimate of the witness word did not close within budget"
    if est != witness.estimate:
        return "recomputed estimate differs from the reported one"
    if not est or not est <= frozenset(secret):
        return "estimate of the witness word is not a nonempty set of secrets"
    return None
