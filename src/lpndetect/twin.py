"""Twin construction: label-based synchronization of a net with itself.

The twin net runs two copies of the same net side by side and forces equal
observations: unobservable transitions move in one copy at a time, observable
transitions move in lock-step with any equally-labeled partner in the other
copy. A reachable twin marking whose two halves disagree exhibits two
firing sequences with the same observation and different current markings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .net import EPSILON, LabeledPetriNet, Marking

# Rendered in twin transition ids for "no move in this copy".
LAMBDA = "~"


def pair_id(a, b) -> str:
    return f"({a if a is not None else LAMBDA},{b if b is not None else LAMBDA})"


@dataclass(frozen=True)
class TwinNet:
    """The synchronized double net.

    net's places are the base places followed by their primed mirrors in the
    same order; pair_of maps each twin transition id to its (left, right)
    components, None standing for "no move".
    """

    net: LabeledPetriNet
    base: LabeledPetriNet
    pair_of: dict = field(compare=False)

    @property
    def half(self) -> int:
        return len(self.base.places)

    def first(self, m: Marking) -> Marking:
        return m[: self.half]

    def second(self, m: Marking) -> Marking:
        return m[self.half :]


def build_twin(g: LabeledPetriNet) -> TwinNet:
    """Construct the twin of g.

    Twin transitions, in enumeration order: (t,~) for each unobservable t in
    declared order, then (~,t) likewise, then (t1,t2) for every pair of
    equally-labeled observable transitions in declared-order lexicographic
    order. The twin transition count is 2*u + sum over symbols of k_x^2.
    """
    n = len(g.places)
    places = tuple(g.places) + tuple(f"{p}'" for p in g.places)
    zeros = (0,) * n

    tids, pre_rows, post_rows, labels = [], [], [], []
    pair_of = {}

    def add(tid, left, right, pre_row, post_row, lab):
        tids.append(tid)
        pre_rows.append(pre_row)
        post_rows.append(post_row)
        labels.append(lab)
        pair_of[tid] = (left, right)

    for ti, t in enumerate(g.transitions):
        if g.labels[ti] is EPSILON:
            add(pair_id(t, None), t, None, g.pre[ti] + zeros, g.post[ti] + zeros, EPSILON)
    for ti, t in enumerate(g.transitions):
        if g.labels[ti] is EPSILON:
            add(pair_id(None, t), None, t, zeros + g.pre[ti], zeros + g.post[ti], EPSILON)
    for i1, t1 in enumerate(g.transitions):
        if g.labels[i1] is EPSILON:
            continue
        for i2, t2 in enumerate(g.transitions):
            if g.labels[i2] != g.labels[i1]:
                continue
            add(
                pair_id(t1, t2),
                t1,
                t2,
                g.pre[i1] + g.pre[i2],
                g.post[i1] + g.post[i2],
                g.labels[i1],
            )

    twin = LabeledPetriNet(
        places=places,
        transitions=tuple(tids),
        pre=tuple(pre_rows),
        post=tuple(post_rows),
        labels=tuple(labels),
        alphabet=g.alphabet,
        initial_marking=tuple(g.initial_marking) * 2,
    )
    return TwinNet(net=twin, base=g, pair_of=pair_of)


def project(tw: TwinNet, seq) -> tuple:
    """Split a twin firing sequence into its left and right components."""
    left, right = [], []
    for tid in seq:
        a, b = tw.pair_of[tid]
        if a is not None:
            left.append(a)
        if b is not None:
            right.append(b)
    return tuple(left), tuple(right)


def mismatch(tw: TwinNet, m: Marking):
    """Whether the two halves of a twin marking disagree.

    Returns (True, place-id) for the least-index disagreeing base place,
    or (False, None).
    """
    tw.net._check_marking(m)
    n = tw.half
    for i in range(n):
        if m[i] != m[i + n]:
            return True, tw.base.places[i]
    return False, None


def decode_pairs(tw: TwinNet, seq) -> tuple:
    """Render a twin sequence as (left, right) id pairs with LAMBDA for gaps."""
    return tuple(
        (a if a is not None else LAMBDA, b if b is not None else LAMBDA)
        for a, b in (tw.pair_of[tid] for tid in seq)
    )
