"""Tests of the benchmark's own checks.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench

They check that a tampered witness counts as a failed check, also under
`python -O`; that the pinned verdict table agrees with independent oracles
on the shipped seed; that seeding keeps state-space sizes; that an absent
layer reads null; that the host-speed adjustment scales each check by the
calibration units around it; that BENCHMARK.json names exactly the metrics
the run prints; and that the benchmark refuses to run without the library
sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from lpndetect import (  # noqa: E402
    EPSILON,
    FAILS,
    HOLDS,
    Budget,
    Witness,
    build_reachability_graph,
    check_opacity,
    check_strong,
    check_strong_oracle,
    fire,
    enabled,
)
from lpndetect.analyze import OpacityWitness  # noqa: E402
import lpndetect.textio  # noqa: E402,F401  (a traced layer)
from netgen import language_inclusion  # noqa: E402

import families  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from families import COVERABLE, UNCOVERABLE, WORKLOADS, instances  # noqa: E402
from replay import judge  # noqa: E402

SHIPPED_SEED = 0
BUDGET = Budget(20000, 2000)


def all_instances(seed=SHIPPED_SEED):
    return [(w, inst) for w in WORKLOADS for inst in instances(w, seed)]


def first(workload, check, expected):
    return next(i for i in instances(workload, SHIPPED_SEED)
                if i.check == check and i.expected == expected)


# ---------------------------------------------------------------------------
# Tampered witnesses
# ---------------------------------------------------------------------------


def strong_case():
    inst = first("twin_bounded", "strong", FAILS)
    verdict = check_strong(inst.net, BUDGET)
    assert judge(inst, verdict, BUDGET) is None
    return inst, verdict


def tampered_strong(verdict):
    alpha, beta, gamma = verdict.witness.segments
    m1, m2, m3 = verdict.witness.markings
    return [
        Witness((alpha, beta[:-1], gamma), (m1, m2, m3)),  # replay no longer matches
        Witness((alpha, (), gamma), (m1, m1, m3)),  # nothing to pump
        Witness((alpha, beta, gamma), (m1, m2, tuple(x + 1 for x in m3))),  # wrong record
        Witness((alpha, beta, gamma + ("(nope,nope)",)), (m1, m2, m3)),  # unknown move
        Witness((alpha, beta), (m1, m2)),  # wrong shape
    ]


def test_strong_tampered_witness_is_rejected():
    inst, verdict = strong_case()
    for witness in tampered_strong(verdict):
        bad = dataclasses.replace(verdict, witness=witness)
        assert judge(inst, bad, BUDGET) is not None, witness


def test_opacity_tampered_witness_is_rejected():
    inst = first("observer_bounded", "opacity", FAILS)
    verdict = check_opacity(inst.net, inst.secret, BUDGET)
    assert judge(inst, verdict, BUDGET) is None
    word, est = verdict.witness.word, verdict.witness.estimate
    other = sorted(inst.net.alphabet)[0]
    for witness in (
        OpacityWitness(word + (other,), est),
        OpacityWitness(word, est | {inst.net.initial_marking}),
        OpacityWitness(word, frozenset()),
    ):
        assert judge(inst, dataclasses.replace(verdict, witness=witness), BUDGET) is not None


def test_tampered_witness_counts_as_failed_check():
    inst, verdict = strong_case()
    bad = dataclasses.replace(verdict, witness=tampered_strong(verdict)[0])

    class Library:
        @staticmethod
        def check_strong(net, budget):
            return bad

    tally = run.Tally()
    run.run_pass(Library, [inst], BUDGET, tally)
    assert (tally.attempted, tally.failed, tally.decided) == (1, 1, 1)


def test_wrong_verdict_and_exception_count_as_failed_checks():
    inst = first("twin_bounded", "strong", HOLDS)

    class Library:
        calls = 0

        @classmethod
        def check_strong(cls, net, budget):
            cls.calls += 1
            if cls.calls == 1:
                raise RuntimeError("boom")
            return check_strong(first("twin_bounded", "strong", FAILS).net, budget)

    tally = run.Tally()
    run.run_pass(Library, [inst, inst], BUDGET, tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_replay_rejects_tampering_under_optimize():
    """The replay checks are not asserts: they still reject under -O."""
    code = (
        "import dataclasses, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "from lpndetect import Budget, Witness, check_strong\n"
        "from families import instances\n"
        "from replay import judge\n"
        "assert False, 'asserts are on'\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr  # -O really strips asserts
    code = code.replace("assert False, 'asserts are on'\n", (
        "b = Budget(20000, 2000)\n"
        "inst = next(i for i in instances('twin_bounded', 0) if i.expected == 'fails')\n"
        "v = check_strong(inst.net, b)\n"
        "a, m, g = v.witness.segments\n"
        "bad = dataclasses.replace(v, witness=Witness((a, m[:-1], g), v.witness.markings))\n"
        "print(judge(inst, v, b) is None, judge(inst, bad, b) is not None)\n"
    ))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert out.stdout.split() == ["True", "True"], out.stderr


# ---------------------------------------------------------------------------
# The pinned table against independent oracles
# ---------------------------------------------------------------------------


def eps_closed(graph, nodes):
    out, queue = set(nodes), deque(nodes)
    while queue:
        v = queue.popleft()
        for t, w in graph.succ[v]:
            if graph.net.label(t) is EPSILON and w not in out:
                out.add(w)
                queue.append(w)
    return frozenset(out)


def estimate_automaton(net):
    """Subset construction over the closed reachability graph, written here
    independently of the library's observer."""
    graph = build_reachability_graph(net, BUDGET)
    assert graph.complete
    init = eps_closed(graph, [graph.initial])
    states, succ, queue = {init}, {}, deque([init])
    while queue:
        s = queue.popleft()
        by_sym = {}
        for v in s:
            for t, w in graph.succ[v]:
                lab = net.label(t)
                if lab is not EPSILON:
                    by_sym.setdefault(lab, set()).add(w)
        succ[s] = []
        for targets in by_sym.values():
            d = eps_closed(graph, targets)
            succ[s].append(d)
            if d not in states:
                states.add(d)
                queue.append(d)
    return graph, states, succ


def has_singleton_cycle(states, succ):
    """Some reachable estimate of one marking lies on a cycle of such."""
    single = {s for s in states if len(s) == 1}
    for s in single:
        seen, stack = set(), [d for d in succ[s] if d in single]
        while stack:
            d = stack.pop()
            if d == s:
                return True
            if d not in seen:
                seen.add(d)
                stack.extend(x for x in succ[d] if x in single)
    return False


def weak_oracle(net):
    _, states, succ = estimate_automaton(net)
    return has_singleton_cycle(states, succ)


def opacity_oracle(net, secret):
    graph, states, _ = estimate_automaton(net)
    return not any({graph.markings[v] for v in s} <= set(secret) for s in states)


def coverable_by_search(net, target, depth=12):
    """A covering marking within depth steps (a proof of coverability)."""
    frontier, seen = [net.initial_marking], {net.initial_marking}
    for _ in range(depth + 1):
        if any(all(a >= b for a, b in zip(m, target)) for m in frontier):
            return True
        nxt = []
        for m in frontier:
            for t in net.transitions:
                if enabled(net, m, t):
                    m2 = fire(net, m, t)
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append(m2)
        frontier = nxt
    return False


def uncoverable_by_invariant(net, target):
    """Some place no transition changes holds fewer tokens than the target
    asks for (a proof of uncoverability)."""
    return any(
        all(pre[i] == post[i] for pre, post in zip(net.pre, net.post))
        and net.initial_marking[i] < target[i]
        for i in range(len(net.places))
    )


def test_every_instance_has_a_reason_and_a_known_kind():
    for _, inst in all_instances():
        assert inst.reason
        assert inst.check in run.FUNCTIONS
        allowed = (COVERABLE, UNCOVERABLE) if inst.check == "coverable" else (HOLDS, FAILS)
        assert inst.expected in allowed


def test_table_agrees_with_gadget_oracles():
    seen = set()
    for _, inst in all_instances():
        if not inst.origin:
            continue
        kind, *args = inst.origin
        seen.add(kind)
        if kind == "inclusion":
            included = language_inclusion(*args)
            want = {"weak": FAILS if included else HOLDS,
                    "opacity": HOLDS if included else FAILS}[inst.check]
        else:
            base, target = args
            graph = build_reachability_graph(base, BUDGET)
            assert graph.complete
            covered = any(all(a >= b for a, b in zip(m, target)) for m in graph.markings)
            want = FAILS if covered else HOLDS
        assert inst.expected == want, inst.name
    assert seen == {"inclusion", "coverability"}


def test_table_agrees_with_observer_oracles_on_bounded_nets():
    for workload in ("twin_bounded", "observer_bounded"):
        for inst in instances(workload, SHIPPED_SEED):
            if inst.check == "strong":
                truth = check_strong_oracle(inst.net, BUDGET)
            elif inst.check == "weak":
                truth = weak_oracle(inst.net)
            else:
                truth = opacity_oracle(inst.net, inst.secret)
            assert inst.expected == (HOLDS if truth else FAILS), inst.name


def test_table_agrees_with_coverability_proofs():
    for inst in instances("coverability", SHIPPED_SEED):
        if inst.expected == COVERABLE:
            assert coverable_by_search(inst.net, inst.target), inst.name
        else:
            assert uncoverable_by_invariant(inst.net, inst.target), inst.name


def test_seed_keeps_answers_and_state_space_sizes():
    for workload in ("twin_bounded", "observer_bounded"):
        sizes = {}
        for seed in (SHIPPED_SEED, 7):
            insts = instances(workload, seed)
            sizes[seed] = {
                i.name: (i.expected, len(build_reachability_graph(i.net, BUDGET).markings))
                for i in insts
            }
        assert sizes[SHIPPED_SEED] == sizes[7]
    a = [i.name for i in instances("twin_bounded", SHIPPED_SEED)]
    b = [i.name for i in instances("twin_bounded", 7)]
    assert a != b and sorted(a) == sorted(b)
    net0 = instances("twin_bounded", SHIPPED_SEED)[0].net
    assert net0 == instances("twin_bounded", SHIPPED_SEED)[0].net
    assert not set(net0.places) & set(families.ring(5, 3).places)


# ---------------------------------------------------------------------------
# Tracing and the metric contract
# ---------------------------------------------------------------------------


def test_absent_layer_reads_null(monkeypatch):
    # as if a refactor had removed the witness-search helper
    monkeypatch.setattr(spans, "LAYERS", tuple(
        ("lpndetect.explore", "_no_such_helper", name) if name == "explore.witness"
        else (module, attr, name)
        for module, attr, name in spans.LAYERS
    ))
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == {"explore.witness"}
    stats = spans.PassStats()
    stats.check_s = 1.0
    metrics, _ = run.layer_metrics([stats], [stats], [1.0], {"check": 0.0, **{
        span: 0.0 for _, _, _, span, _ in run.PER_LAYER}}, tracer.absent, set())
    assert metrics["explore.witness.s"] is None
    assert metrics["explore.witness.states"] is None
    assert metrics["explore.witness.peak_mb"] is None
    assert metrics["explore.reach_graph.s"] == 0.0


def test_traced_spans_nest_and_count():
    inst = first("twin_bounded", "strong", FAILS)
    import lpndetect

    tracer = spans.Tracer()
    with tracer.installed(), tracer.check():
        lpndetect.check_strong(inst.net, BUDGET)
    stats = tracer.new_pass()
    for name in ("analyze.check_strong", "twin.build", "explore.search",
                 "explore.reach_graph", "explore.decide", "explore.witness"):
        assert stats.total_s[name] > 0, name
        assert stats.self_s[name] <= stats.total_s[name]
    assert stats.counts["twin.reach_markings"] > 0
    assert stats.counts["explore.witness.states"] > 0
    assert lpndetect.check_strong.__name__ == "check_strong"
    assert lpndetect.check_strong is lpndetect.analyze.check_strong
    assert not hasattr(lpndetect.check_strong, "__wrapped__")


def test_adjust_scales_by_nearby_units():
    ref = run.CALIBRATION_REF_S
    # a host twice as slow doubles both the checks and the units
    assert run.adjust([0.2, 0.4], [2 * ref] * 3) == [0.1, 0.2]
    # each check follows the units around it, not the run's median
    span = run.CALIBRATION_SPAN
    calib = [ref] * (span + 1) + [2 * ref] * (3 * span)
    times = [0.1] * (len(calib) - 1)
    adjusted = run.adjust(times, calib)
    assert adjusted[0] == 0.1
    assert adjusted[-1] == 0.05


def test_calibration_unit_runs_without_the_collector():
    import gc

    assert gc.isenabled()
    assert run.calibrate() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        run.calibrate()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in run.PER_LAYER]


def test_refuses_to_run_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coverability",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_readme_table_lists_every_instance():
    lines = (HERE / "README.md").read_text().splitlines()
    start = lines.index("| workload | instance | check | expected | reason |") + 2
    rows = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        workload, name, check, expected, reason = (
            cell.strip() for cell in line.strip("|").split("|"))
        rows.add((workload, name.strip("`"), check, expected, reason))
    assert rows == {(w, i.name, i.check, i.expected, i.reason)
                    for w, wl in WORKLOADS.items() for i in wl.build()}
