"""Command-line surface.

Exit codes: 0 the property holds, 1 it fails, 2 the analysis was
inconclusive within budget, 3 input or assumption error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .analyze import (
    AssumptionError,
    _check_strong,
    check_assumptions,
    check_opacity,
    check_weak,
    explore_observer,
)
from .dot import graph_to_dot, km_to_dot, net_to_dot, observer_to_dot
from .explore import (
    Budget,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Verdict,
    Witness,
    build_km_tree,
    estimate,
    km_nodes,
)
from .gadgets import (
    coverability_to_strong,
    inclusion_to_weak,
    secret_marking,
    selfloop_unobservable,
)
from .net import InputError, NetError
from .textio import parse_lpn, parse_marking, parse_secret_file, render_lpn
from .twin import build_twin, decode_pairs

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_OUTCOME_EXIT = {HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS, INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="lpndetect",
        description="Detectability and opacity verification for labeled Petri nets",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, budget=True, jsonout=True, dot=False):
        p.add_argument("net", help="input net file")
        if budget:
            p.add_argument("--max-states", type=int, default=100_000)
            p.add_argument("--max-depth", type=int, default=10_000)
        if jsonout:
            p.add_argument("--json", action="store_true")
        if dot:
            p.add_argument("--dot", metavar="FILE", help="write DOT output to FILE")

    common(sub.add_parser("validate", help="parse and well-formedness check"),
           budget=False, jsonout=False)
    common(sub.add_parser("twin", help="print the twin net"),
           budget=False, jsonout=False, dot=True)
    common(sub.add_parser("observer", help="estimate automaton"),
           jsonout=False, dot=True)
    common(sub.add_parser("km", help="coverability tree"),
           budget=False, jsonout=False, dot=True)
    common(sub.add_parser("reach", help="reachability graph"),
           jsonout=False, dot=True)
    common(sub.add_parser("check-strong", help="strong detectability"))
    common(sub.add_parser("check-weak", help="weak detectability"))
    p = sub.add_parser("check-opacity", help="current-state opacity")
    common(p)
    p.add_argument("--secret", required=True, metavar="FILE",
                   help="file with one secret marking per line as <id>=<nat> pairs")
    common(sub.add_parser("check-assumptions", help="standing assumptions"))
    g = sub.add_parser("gadget", help="reduction constructions")
    gsub = g.add_subparsers(dest="kind", required=True)
    p = gsub.add_parser("cov2strong")
    p.add_argument("net")
    p.add_argument("--marking", required=True,
                   help="target marking as <id>=<nat> pairs in one argument")
    p = gsub.add_parser("selfloop")
    p.add_argument("net")
    p.add_argument("--marking", required=True)
    p = gsub.add_parser("incl2weak")
    p.add_argument("net")
    p.add_argument("net2")
    p = gsub.add_parser("secret")
    p.add_argument("net")
    p.add_argument("net2")
    p = sub.add_parser("estimate", help="markings consistent with a word")
    common(p, jsonout=False)
    p.add_argument("--word", required=True,
                   help="observation: comma-separated symbols, or one char each")
    return top


def _load(path: str):
    with open(path, "rb") as f:
        data = f.read()
    doc = parse_lpn(data.decode("utf-8"))
    return doc.net, hashlib.sha256(data).hexdigest()


def _budget(args) -> Budget:
    return Budget(max_states=args.max_states, max_depth=args.max_depth)


def _parse_word(s: str):
    if s == "":
        return ()
    if "," in s:
        return tuple(x for x in s.split(",") if x)
    return tuple(s)


def _witness_json(verdict: Verdict, tw=None):
    w = verdict.witness
    if w is None:
        return None
    if isinstance(w, Witness):
        out = {
            "segments": [list(seg) for seg in w.segments],
            "markings": [[int(x) for x in m] for m in w.markings],
        }
        if tw is not None:
            out["segment_pairs"] = [
                [list(pair) for pair in decode_pairs(tw, seg)] for seg in w.segments
            ]
        return out
    # opacity witness
    return {
        "word": list(w.word),
        "estimate": [[int(x) for x in m] for m in sorted(w.estimate)],
    }


def _report(prop, verdict: Verdict, digest, assumptions=None, tw=None):
    rep = {
        "tool": "lpndetect",
        "version": __version__,
        "property": prop,
        "outcome": verdict.outcome,
        "message": verdict.message,
        "witness": _witness_json(verdict, tw=tw),
        "assumptions": None,
        "stats": {
            "states": verdict.stats.states,
            "depth": verdict.stats.depth,
            "wall_time_s": verdict.stats.wall_time,
        },
        "input_sha256": digest,
    }
    if assumptions is not None:
        rep["assumptions"] = {
            "deadlock_free": assumptions.deadlock_free.outcome,
            "no_infinite_unobservable": assumptions.no_infinite_unobservable.outcome,
        }
    return rep


def _emit_verdict(args, prop, verdict, digest, assumptions=None, tw=None) -> int:
    if getattr(args, "json", False):
        print(json.dumps(_report(prop, verdict, digest, assumptions, tw), indent=2))
    else:
        print(f"{prop}: {verdict.outcome.upper()}")
        if verdict.message:
            print(f"  note: {verdict.message}")
        w = verdict.witness
        if isinstance(w, Witness):
            for i, seg in enumerate(w.segments, start=1):
                shown = " ".join(seg) if seg else "(empty)"
                print(f"  segment {i}: {shown}")
                print(f"  marking {i}: {list(w.markings[i - 1])}")
        elif w is not None:
            print(f"  word: {''.join(w.word) or '(empty)'}")
            for m in sorted(w.estimate):
                print(f"  estimate marking: {list(m)}")
        if assumptions is not None:
            print(f"  deadlock-free: {assumptions.deadlock_free.outcome}")
            print(
                "  no-infinite-unobservable: "
                f"{assumptions.no_infinite_unobservable.outcome}"
            )
    return _OUTCOME_EXIT[verdict.outcome]


def _write_dot(args, text) -> None:
    if getattr(args, "dot", None):
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(text)


def _run(args) -> int:
    cmd = args.command
    if cmd == "gadget":
        return _run_gadget(args)

    net, digest = _load(args.net)

    if cmd == "validate":
        print(
            f"ok: {len(net.places)} places, {len(net.transitions)} transitions, "
            f"{len(net.alphabet)} symbols"
        )
        return EXIT_HOLDS
    if cmd == "twin":
        tw = build_twin(net)
        _write_dot(args, net_to_dot(tw.net))
        print(render_lpn(tw.net), end="")
        return EXIT_HOLDS
    if cmd == "km":
        root = build_km_tree(net)
        _write_dot(args, km_to_dot(root))
        print(f"coverability tree: {sum(1 for _ in km_nodes(root))} nodes")
        return EXIT_HOLDS
    if cmd == "reach":
        from .explore import build_reachability_graph

        graph = build_reachability_graph(net, _budget(args))
        _write_dot(args, graph_to_dot(graph))
        status = "complete" if graph.complete else "truncated"
        print(f"reachability graph: {len(graph.markings)} nodes, "
              f"{len(graph.edges)} edges, {status}")
        return EXIT_HOLDS if graph.complete else EXIT_INCONCLUSIVE
    if cmd == "observer":
        obs = explore_observer(net, _budget(args))
        _write_dot(args, observer_to_dot(obs))
        status = "complete" if obs.complete else "truncated"
        print(f"observer: {len(obs.states)} states, {len(obs.edges)} edges, {status}")
        return EXIT_HOLDS if obs.complete else EXIT_INCONCLUSIVE
    if cmd == "estimate":
        word = _parse_word(args.word)
        markings, complete = estimate(net, word, _budget(args))
        caption = ",".join(
            "[" + ",".join(str(x) for x in m) + "]" for m in sorted(markings)
        )
        print("{" + caption + "}")
        if not complete:
            print("note: estimate truncated by budget", file=sys.stderr)
        return EXIT_HOLDS if complete else EXIT_INCONCLUSIVE
    if cmd == "check-assumptions":
        report = check_assumptions(net, _budget(args))
        outcomes = {report.deadlock_free.outcome, report.no_infinite_unobservable.outcome}
        if FAILS in outcomes:
            agg = report.deadlock_free if report.deadlock_free.fails \
                else report.no_infinite_unobservable
        elif outcomes == {HOLDS}:
            agg = report.deadlock_free
        else:
            agg = report.deadlock_free if report.deadlock_free.outcome == INCONCLUSIVE \
                else report.no_infinite_unobservable
        return _emit_verdict(args, "standing-assumptions", agg, digest, report)
    if cmd == "check-strong":
        verdict, tw = _check_strong(net, _budget(args))
        return _emit_verdict(args, "strong-detectability", verdict, digest, tw=tw)
    if cmd == "check-weak":
        verdict = check_weak(net, _budget(args))
        return _emit_verdict(args, "weak-detectability", verdict, digest)
    if cmd == "check-opacity":
        with open(args.secret, "r", encoding="utf-8") as f:
            secret = parse_secret_file(net, f.read())
        verdict = check_opacity(net, secret, _budget(args))
        return _emit_verdict(args, "current-state-opacity", verdict, digest)
    raise InputError(f"unknown command {cmd!r}")


def _run_gadget(args) -> int:
    net, _ = _load(args.net)
    if args.kind == "cov2strong":
        out = coverability_to_strong(net, parse_marking(net, args.marking))
    elif args.kind == "selfloop":
        out = selfloop_unobservable(net, parse_marking(net, args.marking))
    elif args.kind in ("incl2weak", "secret"):
        net2, _ = _load(args.net2)
        out = inclusion_to_weak(net, net2)
        if args.kind == "secret":
            ms = secret_marking(out)
            pairs = [
                f"{p}={n}" for p, n in zip(out.net.places, ms) if n > 0
            ]
            print(" ".join(pairs))
            return EXIT_HOLDS
    else:
        raise InputError(f"unknown gadget kind {args.kind!r}")
    comments = [f"provenance: {k} = {v}" for k, v in out.provenance.items()]
    print(render_lpn(out.net, comments=comments), end="")
    return EXIT_HOLDS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_HOLDS if e.code == 0 else EXIT_ERROR
    try:
        return _run(args)
    except AssumptionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except NetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
