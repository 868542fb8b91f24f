"""Line-oriented text format for labeled Petri nets.

Grammar (one directive per line, '#' starts a comment, '~' denotes the
unobservable label):

    places <id>+
    initial (<id>=<nat>)*          # optional; unlisted places hold 0
    alphabet <sym>+                # optional; widens the inferred alphabet
    trans <id> label (<sym>|~) [pre (<id>:<nat>)*] [post (<id>:<nat>)*]

A place is counted at most once in the initial directives and once in each
pre or post list. Rendering is canonical in declared order and
parse(render(net)) is the identity up to object equality; the net refuses
identifiers the grammar cannot read back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .net import EPSILON, EPSILON_MARK, InputError, LabeledPetriNet, make_net

_TOKEN = re.compile(r"\S+")


class ParseError(InputError):
    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class NetDocument:
    net: LabeledPetriNet


def _tokens(line: str):
    body = line.split("#", 1)[0]
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]


def _is_nat(text: str) -> bool:
    """A natural number in ASCII digits; str.isdigit also admits digits such
    as '²' that int() rejects."""
    return text.isascii() and text.isdigit()


def _nat(text, line, col, what):
    if not _is_nat(text):
        raise ParseError(f"expected a natural number for {what}, got {text!r}", line, col)
    return int(text)


def parse_lpn(text: str) -> NetDocument:
    places = {}  # id -> None, in declared order
    initial = {}
    alphabet_extra = []
    transitions = {}  # id -> (label, pre map, post map)

    def known_place(pid, line, col):
        if pid not in places:
            raise ParseError(f"unknown place {pid!r}", line, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        head, hcol = toks[0]
        rest = toks[1:]
        if head == "places":
            for pid, col in rest:
                if pid in places or pid in transitions:
                    raise ParseError(f"duplicate identifier {pid!r}", lineno, col)
                places[pid] = None
        elif head == "initial":
            for tok, col in rest:
                if "=" not in tok:
                    raise ParseError(f"expected <place>=<count>, got {tok!r}", lineno, col)
                pid, _, num = tok.rpartition("=")
                known_place(pid, lineno, col)
                if pid in initial:
                    raise ParseError(f"repeated initial count of {pid!r}", lineno, col)
                initial[pid] = _nat(num, lineno, col, f"initial count of {pid!r}")
        elif head == "alphabet":
            for sym, col in rest:
                if sym == EPSILON_MARK:
                    raise ParseError("the unobservable label cannot be an alphabet symbol",
                                     lineno, col)
                alphabet_extra.append(sym)
        elif head == "trans":
            if not rest:
                raise ParseError("missing transition identifier", lineno, hcol)
            tid, tcol = rest[0]
            if tid in places or tid in transitions:
                raise ParseError(f"duplicate identifier {tid!r}", lineno, tcol)
            body = rest[1:]
            if len(body) < 2 or body[0][0] != "label":
                raise ParseError(f"transition {tid!r} is missing a label", lineno, tcol)
            lab = body[1][0]
            label = EPSILON if lab == EPSILON_MARK else lab
            arcs = {"pre": {}, "post": {}}
            section = None
            for tok, col in body[2:]:
                if tok in arcs:
                    section = tok
                    continue
                if section is None:
                    raise ParseError(f"unexpected token {tok!r} before pre/post", lineno, col)
                if ":" not in tok:
                    raise ParseError(f"expected <place>:<weight>, got {tok!r}", lineno, col)
                pid, _, num = tok.rpartition(":")
                known_place(pid, lineno, col)
                if pid in arcs[section]:
                    raise ParseError(f"repeated {section} arc on {pid!r}", lineno, col)
                arcs[section][pid] = _nat(num, lineno, col, f"arc weight on {pid!r}")
            transitions[tid] = (label, arcs["pre"], arcs["post"])
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, hcol)

    used = {lab for (lab, _, _) in transitions.values() if lab is not EPSILON}
    net = make_net(places, transitions, initial, alphabet=used | set(alphabet_extra))
    return NetDocument(net=net)


def render_lpn(net: LabeledPetriNet, comments=()) -> str:
    """Canonical serialization; comments are emitted first, one per line."""
    lines = [f"# {c}" for c in comments]
    lines.append("places " + " ".join(net.places))
    pairs = [
        f"{p}={n}" for p, n in zip(net.places, net.initial_marking) if n > 0
    ]
    if pairs:
        lines.append("initial " + " ".join(pairs))
    used = {lab for lab in net.labels if lab is not EPSILON}
    if set(net.alphabet) != used:
        lines.append("alphabet " + " ".join(sorted(net.alphabet)))
    for ti, t in enumerate(net.transitions):
        lab = net.labels[ti]
        parts = ["trans", t, "label", EPSILON_MARK if lab is EPSILON else lab]
        for section, row in (("pre", net.pre[ti]), ("post", net.post[ti])):
            arcs = [f"{p}:{w}" for p, w in zip(net.places, row) if w > 0]
            if arcs:
                parts += [section, *arcs]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_marking(net: LabeledPetriNet, text: str, where="marking") -> tuple:
    """Parse one marking given as whitespace-separated <place>=<count> pairs."""
    counts = {}
    for match in _TOKEN.finditer(text):
        tok, col = match.group(0), match.start() + 1
        if "=" not in tok:
            raise InputError(f"{where}: expected <place>=<count>, got {tok!r}")
        pid, _, num = tok.rpartition("=")
        if pid not in net.place_index:
            raise InputError(f"{where}: unknown place {pid!r}")
        if pid in counts:
            raise InputError(f"{where}, column {col}: repeated count of {pid!r}")
        if not _is_nat(num):
            raise InputError(f"{where}: bad count {num!r} for {pid!r}")
        counts[pid] = int(num)
    return tuple(counts.get(p, 0) for p in net.places)


def parse_secret_file(net: LabeledPetriNet, text: str) -> list:
    """One marking per line, each a list of <place>=<count> pairs."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]  # unstripped, so that columns count from the line start
        if body.strip():
            out.append(parse_marking(net, body, where=f"secret line {lineno}"))
    if not out:
        raise InputError("secret file contains no markings")
    return out
