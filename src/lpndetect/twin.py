"""Twin construction: label-based synchronization of a net with itself.

The twin net runs two copies of the same net side by side and forces equal
observations: unobservable transitions move in one copy at a time, observable
transitions move in lock-step with any equally-labeled partner in the other
copy. A reachable twin marking whose two halves disagree exhibits two
firing sequences with the same observation and different current markings.
twin_steps, over the moves that half_moves sorts, is that step rule: it
builds the twin net, reads the twin's graph off the net's, and steps a
twin marking from the moves of its halves, so that a search of the twin
need not build the twin net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .net import EPSILON, InputError, LabeledPetriNet, Marking

# Rendered in twin transition ids for "no move in this copy".
LAMBDA = "~"


def pair_id(a, b) -> str:
    return f"({a if a is not None else LAMBDA},{b if b is not None else LAMBDA})"


def half_moves(labels, moves) -> tuple:
    """The moves (transition index, x) of one half, in declared order, as
    twin_steps takes them: its unobservable moves, and its observable ones
    as (label, transition index, x); labels gives each transition's label."""
    eps, obs = [], []
    for t, x in moves:
        if labels[t] is EPSILON:
            eps.append((t, x))
        else:
            obs.append((labels[t], t, x))
    return eps, obs


def twin_steps(left, right, stay_left, stay_right):
    """The twin's step rule: its steps from the moves of its two halves
    (see half_moves).

    Yields ((t1, t2), x1, x2) in the twin's transition order: ((t, None),
    x, stay_right) for each unobservable left move, then ((None, t),
    stay_left, x) for each unobservable right move, then ((t1, t2), x1, x2)
    for each observable left move against each equally-labeled right move.
    """
    (eps1, obs1), (eps2, obs2) = left, right
    for t, x in eps1:
        yield (t, None), x, stay_right
    for t, x in eps2:
        yield (None, t), stay_left, x
    for sym, t1, x1 in obs1:
        for sym2, t2, x2 in obs2:
            if sym == sym2:
                yield (t1, t2), x1, x2


@dataclass(frozen=True)
class TwinNet:
    """The synchronized double net of base.

    places are the base places followed by their primed mirrors in the
    same order. ids maps each twin step (t1, t2) of twin_steps, over
    transition indices of base, to its twin transition id, in the twin's
    transition order; pair_of maps each id to its (left, right) base
    transition ids, None standing for "no move". net, the twin as a
    LabeledPetriNet, is built on its first read.
    """

    base: LabeledPetriNet
    places: tuple
    ids: dict = field(compare=False, repr=False)
    pair_of: dict = field(compare=False, repr=False)

    @property
    def half(self) -> int:
        return len(self.base.places)

    def first(self, m: Marking) -> Marking:
        return m[: self.half]

    def second(self, m: Marking) -> Marking:
        return m[self.half :]

    @cached_property
    def net(self) -> LabeledPetriNet:
        g = self.base
        zero = (0,) * len(g.places)
        arcs = half_moves(g.labels, enumerate(zip(g.pre, g.post)))
        pre_rows, post_rows, labels = [], [], []
        for (a, b), (pre1, post1), (pre2, post2) in twin_steps(
                arcs, arcs, (zero, zero), (zero, zero)):
            pre_rows.append(pre1 + pre2)
            post_rows.append(post1 + post2)
            labels.append(g.labels[a if a is not None else b])
        return LabeledPetriNet(
            places=self.places,
            transitions=tuple(self.ids.values()),
            pre=tuple(pre_rows),
            post=tuple(post_rows),
            labels=tuple(labels),
            alphabet=g.alphabet,
            initial_marking=tuple(g.initial_marking) * 2,
        )


def _fresh(name: str, taken: set) -> str:
    """name, primed until it is not in taken, which then holds it."""
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def build_twin(g: LabeledPetriNet) -> TwinNet:
    """Construct the twin of g, without its net (see TwinNet.net).

    Twin transitions, in enumeration order (see twin_steps): (t,~) for each
    unobservable t in declared order, then (~,t) likewise, then (t1,t2) for
    every pair of equally-labeled observable transitions in declared-order
    lexicographic order. The twin transition count is 2*u + sum over
    symbols of k_x^2. The mirror of place p is p' and the id of step
    (t1,t2) is "(t1,t2)"; a name already taken by a place, a mirror or an
    earlier step is primed until it is free, so every id is unique.
    """
    taken = set(g.places)
    places = tuple(g.places) + tuple(_fresh(f"{p}'", taken) for p in g.places)
    ids, pair_of = {}, {}
    moves = half_moves(g.labels, enumerate(g.transitions))
    for key, a, b in twin_steps(moves, moves, None, None):
        tid = ids[key] = _fresh(pair_id(a, b), taken)
        pair_of[tid] = (a, b)
    return TwinNet(base=g, places=places, ids=ids, pair_of=pair_of)


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
    n = tw.half
    if len(m) != 2 * n:
        raise InputError(f"marking has {len(m)} entries, the twin has {2 * n} places")
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
