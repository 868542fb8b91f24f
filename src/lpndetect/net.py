"""Labeled Petri net structures and firing semantics.

A net is a set of places and transitions with natural-valued pre/post arc
weights. Each transition carries a label: either a symbol of the alphabet
(observable) or None (unobservable). Markings are dense tuples of token
counts in declared place order; all values are immutable, so nets and
markings can be shared freely.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

# Label of an unobservable transition.
EPSILON = None

Marking = tuple  # tuple[int, ...], indexed by declared place order

# The unobservable label in the text format (see textio).
EPSILON_MARK = "~"

# What the text format cannot read back inside an identifier or a symbol.
_UNREADABLE = re.compile(r"[\s#]")


class NetError(Exception):
    """Base class for all net-level errors."""


class InputError(NetError):
    """Malformed input: unknown identifiers, bad dimensions, bad arguments."""


class FiringError(NetError):
    """A disabled transition was fired.

    Carries the transition, the first violating place, and (for sequences)
    the index of the offending step.
    """

    def __init__(self, message, transition=None, place=None, index=None):
        super().__init__(message)
        self.transition = transition
        self.place = place
        self.index = index


@dataclass(frozen=True)
class LabeledPetriNet:
    """A labeled Petri net with its initial marking.

    pre/post are arc-weight matrices indexed [transition][place] in declared
    order. labels maps each transition (by position) to a symbol or EPSILON.
    """

    places: tuple
    transitions: tuple
    pre: tuple  # tuple[tuple[int, ...], ...], shape |T| x |P|
    post: tuple  # same shape
    labels: tuple  # tuple[Optional[str], ...], one per transition
    alphabet: frozenset
    initial_marking: Marking

    # index maps, filled in __post_init__
    place_index: dict = field(init=False, compare=False, repr=False)
    transition_index: dict = field(init=False, compare=False, repr=False)
    # The firing kernel, filled in __post_init__: per transition, in declared
    # order, the entry (ti, i, w, rest, effect): its index ti, its first pre
    # arc of positive weight w on place i (i None and w 0 if it has none),
    # its other such arcs rest ((place, weight), ...), and its effect
    # post - pre (see successors).
    kernel: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (self.places or self.transitions):
            raise InputError("net must have at least one place or transition")
        if set(self.places) & set(self.transitions):
            raise InputError("place and transition identifiers must be disjoint")
        if len(set(self.places)) != len(self.places):
            raise InputError("duplicate place identifier")
        if len(set(self.transitions)) != len(self.transitions):
            raise InputError("duplicate transition identifier")
        for kind, names in (("place", self.places), ("transition", self.transitions),
                            ("symbol", self.alphabet)):
            for x in names:
                if not isinstance(x, str) or not x or _UNREADABLE.search(x):
                    raise InputError(
                        f"{kind} {x!r} must be a nonempty string without whitespace or '#'")
        if EPSILON_MARK in self.alphabet:
            raise InputError(f"{EPSILON_MARK!r} marks the unobservable label, not a symbol")
        if len(self.labels) != len(self.transitions):
            raise InputError("labeling must cover every transition")
        for lab in self.labels:
            if lab is not EPSILON and lab not in self.alphabet:
                raise InputError(f"label {lab!r} not in alphabet")
        if len(self.initial_marking) != len(self.places):
            raise InputError("initial marking has wrong dimension")
        _check_naturals(tuple(self.initial_marking), "initial marking")
        for mat in (self.pre, self.post):
            if len(mat) != len(self.transitions):
                raise InputError("arc table has wrong transition dimension")
            if not set(map(len, mat)) <= {len(self.places)}:
                raise InputError("arc table has wrong place dimension")
        _check_naturals(tuple(chain(*self.pre, *self.post)), "arc weights")
        object.__setattr__(
            self, "place_index", {p: i for i, p in enumerate(self.places)}
        )
        object.__setattr__(
            self, "transition_index", {t: i for i, t in enumerate(self.transitions)}
        )
        kernel = []
        for ti, (pre, post) in enumerate(zip(self.pre, self.post)):
            arcs = [(i, w) for i, w in enumerate(pre) if w]
            i, w = arcs.pop(0) if arcs else (None, 0)
            kernel.append((ti, i, w, tuple(arcs), tuple(map(operator.sub, post, pre))))
        object.__setattr__(self, "kernel", tuple(kernel))

    def label(self, t: str):
        return self.labels[self._tindex(t)]

    def is_observable(self, t: str) -> bool:
        return self.labels[self._tindex(t)] is not EPSILON

    def _tindex(self, t: str) -> int:
        try:
            return self.transition_index[t]
        except KeyError:
            raise InputError(f"unknown transition {t!r}") from None

    def _check_marking(self, m: Marking):
        if len(m) != len(self.places):
            raise InputError(
                f"marking has {len(m)} entries, net has {len(self.places)} places"
            )


def _check_naturals(values: tuple, what: str):
    """Raise InputError unless every value is an int (a bool is not) and
    none is negative; the test runs in two C-level passes over values."""
    if not (set(map(type, values)) <= {int} and min(values, default=0) >= 0):
        bad = next(x for x in values if type(x) is not int or x < 0)
        raise InputError(f"{what} must be non-negative integers, not {bad!r}")


def make_net(
    places: Sequence[str],
    transitions: Mapping[str, tuple],
    initial: Mapping[str, int] | Sequence[int] = (),
    alphabet: Optional[Iterable[str]] = None,
) -> LabeledPetriNet:
    """Convenience constructor.

    transitions maps id -> (label-or-None, {place: pre-weight}, {place: post-weight}).
    initial is either a place->count mapping (unlisted places default to 0)
    or a full vector in place order.
    """
    places = tuple(places)
    pidx = {p: i for i, p in enumerate(places)}
    tids = tuple(transitions)
    pre_rows, post_rows, labels = [], [], []
    for t, (lab, pre_map, post_map) in transitions.items():
        for q in list(pre_map) + list(post_map):
            if q not in pidx:
                raise InputError(f"transition {t!r} references unknown place {q!r}")
        pre_rows.append(tuple(pre_map.get(p, 0) for p in places))
        post_rows.append(tuple(post_map.get(p, 0) for p in places))
        labels.append(lab)
    if isinstance(initial, Mapping):
        for q in initial:
            if q not in pidx:
                raise InputError(f"initial marking references unknown place {q!r}")
        m0 = tuple(initial.get(p, 0) for p in places)
    else:
        m0 = tuple(initial)
    if alphabet is None:
        alphabet = {lab for lab in labels if lab is not EPSILON}
    return LabeledPetriNet(
        places=places,
        transitions=tids,
        pre=tuple(pre_rows),
        post=tuple(post_rows),
        labels=tuple(labels),
        alphabet=frozenset(alphabet),
        initial_marking=m0,
    )


def successors(net: LabeledPetriNet, m: Marking):
    """Yield (ti, m2) for each transition index ti, in declared order, that
    is enabled at m, where m2 is the marking ti leads to.

    The one firing rule of every explorer. Each kernel entry tests its first
    pre arc, and only a transition that passes it tests the rest, so a
    transition with one input place takes one comparison and no inner
    loop. m is not checked; OMEGA entries of coverability markings stay
    OMEGA. enabled and fire are the checked reference it agrees with.
    """
    for ti, i, w, rest, effect in net.kernel:
        if i is None or m[i] >= w:
            if rest:
                for j, v in rest:
                    if m[j] < v:
                        break
                else:
                    yield ti, tuple(map(operator.add, m, effect))
            else:
                yield ti, tuple(map(operator.add, m, effect))


def enabled(net: LabeledPetriNet, m: Marking, t: str) -> bool:
    """True iff every place holds at least the pre-weight of t."""
    net._check_marking(m)
    row = net.pre[net._tindex(t)]
    return all(m[i] >= row[i] for i in range(len(m)))


def fire(net: LabeledPetriNet, m: Marking, t: str) -> Marking:
    """Fire t at m, returning the successor marking. m is not modified."""
    net._check_marking(m)
    ti = net._tindex(t)
    pre_row, post_row = net.pre[ti], net.post[ti]
    if not all(map(operator.ge, m, pre_row)):
        i = next(i for i, (x, w) in enumerate(zip(m, pre_row)) if x < w)
        raise FiringError(
            f"transition {t!r} disabled: place {net.places[i]!r} holds "
            f"{m[i]} < {pre_row[i]}",
            transition=t,
            place=net.places[i],
        )
    return tuple(map(operator.add, map(operator.sub, m, pre_row), post_row))


def fire_sequence(net: LabeledPetriNet, m: Marking, seq: Sequence[str]) -> Marking:
    """Fire a sequence of transitions left to right; the empty sequence is m."""
    cur = tuple(m)
    for k, t in enumerate(seq):
        try:
            cur = fire(net, cur, t)
        except FiringError as e:
            raise FiringError(
                f"step {k} ({t!r}) disabled: {e}",
                transition=t,
                place=e.place,
                index=k,
            ) from None
    return cur


def observation(net: LabeledPetriNet, seq: Sequence[str]) -> tuple:
    """Project a firing sequence to its observation (unobservable steps drop)."""
    out = []
    for t in seq:
        lab = net.labels[net._tindex(t)]
        if lab is not EPSILON:
            out.append(lab)
    return tuple(out)


def leq(a: Marking, b: Marking) -> bool:
    """Componentwise partial order on markings."""
    return len(a) == len(b) and all(map(operator.le, a, b))
