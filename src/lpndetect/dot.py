"""DOT (graphviz) export for nets, state graphs and observers. Output is
deterministic under declared orders."""

from __future__ import annotations

from .analyze import Observer
from .explore import Exploration, ReachabilityGraph
from .net import EPSILON, EPSILON_MARK, LabeledPetriNet


def _q(*lines) -> str:
    """A DOT string of lines, each escaped, joined by DOT's line break."""
    return '"' + r"\n".join(
        str(s).replace("\\", "\\\\").replace('"', '\\"') for s in lines
    ) + '"'


def _marking_caption(m) -> str:
    return "[" + ",".join(map(str, m)) + "]"


def net_to_dot(net: LabeledPetriNet) -> str:
    lines = ["digraph net {", "  rankdir=LR;"]
    for p, n in zip(net.places, net.initial_marking):
        lines.append(f"  {_q(p)} [shape=circle label={_q(p, n)}];")
    for ti, t in enumerate(net.transitions):
        lab = net.labels[ti]
        shown = EPSILON_MARK if lab is EPSILON else lab
        lines.append(f"  {_q(t)} [shape=box label={_q(f'{t} [{shown}]')}];")
        arcs = [(p, t, w) for p, w in zip(net.places, net.pre[ti]) if w]
        arcs += [(t, p, w) for p, w in zip(net.places, net.post[ti]) if w]
        for source, target, w in arcs:
            suffix = f" [label={_q(w)}]" if w > 1 else ""
            lines.append(f"  {_q(source)} -> {_q(target)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _exploration_to_dot(name: str, exp: Exploration, caption, shape: str) -> str:
    lines = [f"digraph {name} {{"]
    for v, state in enumerate(exp.states):
        double = "double" if v == exp.initial else ""
        lines.append(f"  n{v} [shape={double}{shape} label={_q(caption(state))}];")
    for v, label, w in exp.edges:
        lines.append(f"  n{v} -> n{w} [label={_q(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _estimate_caption(state) -> str:
    return "{" + ",".join(_marking_caption(m) for m in sorted(state)) + "}"


def graph_to_dot(graph: ReachabilityGraph) -> str:
    return _exploration_to_dot("reach", graph, _marking_caption, "circle")


def observer_to_dot(obs: Observer) -> str:
    return _exploration_to_dot("observer", obs, _estimate_caption, "octagon")
