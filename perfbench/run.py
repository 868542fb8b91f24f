"""lpndetect benchmark: time to a verdict on four net families.

Usage, from the repository root:

    python3 perfbench/run.py --workload twin_bounded --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop: one caller in one process issues one check
at a time, passing over the workload's instances in seeded order. Every
verdict is compared with the pinned table in families.py and every witness
is replayed by replay.py; a wrong verdict, an exception or a witness that
does not replay counts as a failed check.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it has the per-layer metrics of a run
that alternates untraced and traced passes (see spans.py). Lines before it
repeat every metric by name and unit for a reader. The library is imported
from src/ next to this directory, never from an installed copy.

Every time metric is adjusted for the host's speed, which on a shared host
drifts by up to 2x within a run (see calibrate()).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("twin_bounded", "observer_bounded", "twin_unbounded", "coverability")

# The tail is the 90th percentile. A run keeps passing over its instances
# until it has MIN_SAMPLES checks, so at least ten lie beyond the tail; the
# percentile stays fixed so that a faster program, which fits more checks
# into a run, is compared on the same statistic.
MIN_SAMPLES = 110
MIN_PASSES = 4
SETUP_PROBES = 9  # fresh processes timing set-up, after one discarded warm-up
PARSE_ROUNDS = 5
MAX_RUN_S = 120  # stop passing over instances after this, whatever the counts

# Host-speed adjustment. A fixed unit of pure-Python work, written here and
# independent of lpndetect, is timed before every check and after the last
# one. A check's time is scaled by CALIBRATION_REF_S over the median of the
# units nearest to it, CALIBRATION_SPAN on each side, so every reported time
# is in seconds on a host where one unit takes CALIBRATION_REF_S. A change
# to lpndetect cannot change the unit, so it moves the adjusted times fully.
CALIBRATION_REF_S = 0.5e-3
CALIBRATION_SPAN = 5
SETUP_CALIBRATION_UNITS = 5  # before and after each set-up probe

FUNCTIONS = {
    "strong": "check_strong",
    "weak": "check_weak",
    "opacity": "check_opacity",
    "coverable": "coverable",
}

END_TO_END = (
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("decided_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

# name, unit, how it is computed from the traced passes, the span it reads
# (its metric is null when that span is absent) and the count it reads.
PER_LAYER = (
    ("explore.witness.s", "s", "self", "explore.witness", None),
    ("explore.witness.states", "count", "count", "explore.witness", "explore.witness.states"),
    ("explore.reach_graph.s", "s", "self", "explore.reach_graph", None),
    ("explore.reach_graph.markings", "count", "count", "explore.reach_graph",
     "explore.reach_graph.markings"),
    ("explore.reach_graph.edges_per_s", "1/s", "edges_per_s", "explore.reach_graph", None),
    ("explore.reach_graph.closed_ratio", "ratio", "closed_ratio", "explore.reach_graph", None),
    ("explore.decide.s", "s", "self", "explore.decide", None),
    ("explore.search.s", "s", "self", "explore.search", None),
    ("twin.build_s", "s", "self", "twin.build", None),
    ("twin.reach_markings", "count", "count", "explore.reach_graph", "twin.reach_markings"),
    ("analyze.assumptions.s", "s", "total", "analyze.assumptions", None),
    ("analyze.observer.s", "s", "self", "analyze.observer", None),
    ("analyze.observer.states", "count", "count", "analyze.observer",
     "analyze.observer.states"),
    ("analyze.eps_closure.s", "s", "self", "analyze.eps_closure", None),
    ("explore.km.s", "s", "self", "explore.km", None),
    ("explore.km.nodes", "count", "count", "explore.km", "explore.km.nodes"),
    ("textio.parse_s", "s", "parse", "textio.parse", None),
    ("check.residue_share", "ratio", "residue", None, None),
    ("trace.overhead_ratio", "ratio", "overhead", None, None),
    ("textio.parse.peak_mb", "MB", "peak", "textio.parse", None),
    ("twin.build.peak_mb", "MB", "peak", "twin.build", None),
    ("analyze.assumptions.peak_mb", "MB", "peak", "analyze.assumptions", None),
    ("explore.reach_graph.peak_mb", "MB", "peak", "explore.reach_graph", None),
    ("explore.decide.peak_mb", "MB", "peak", "explore.decide", None),
    ("explore.witness.peak_mb", "MB", "peak", "explore.witness", None),
    ("analyze.observer.peak_mb", "MB", "peak", "analyze.observer", None),
    ("explore.km.peak_mb", "MB", "peak", "explore.km", None),
    ("check.peak_mb", "MB", "peak", "check", None),
)


def _import_library():
    """Put this checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "lpndetect" / "__init__.py").is_file():
        raise SystemExit(f"error: no lpndetect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lpndetect
    import lpndetect.textio  # noqa: F401  (parse_lpn is one of the traced layers)

    if not Path(lpndetect.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: lpndetect was imported from {lpndetect.__file__}")
    return lpndetect


def _ring_states(k, n):
    """Markings of n tokens on a k-place ring, by depth-first search."""
    start = (n,) + (0,) * (k - 1)
    seen = {start: 0}
    todo = [start]
    edges = []
    while todo:
        m = todo.pop()
        for i in range(k):
            if m[i]:
                succ = list(m)
                succ[i] -= 1
                succ[(i + 1) % k] += 1
                succ = tuple(succ)
                if succ not in seen:
                    seen[succ] = len(seen)
                    todo.append(succ)
                edges.append((seen[m], i, seen[succ]))
    return len(seen), len(edges)


def calibrate():
    """Seconds taken by one calibration unit: four searches of a ring's 56
    markings, the tuple and dict work the library's explorers do. The
    collector is off meanwhile, so the library's live heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(4):
            if _ring_states(6, 3) != (56, 126):
                raise SystemExit("error: the calibration unit miscounted")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def adjust(times, calib):
    """Host-adjusted check times: times[i] ran between calib[i] and
    calib[i + 1], and is scaled by the median of the units around it."""
    out = []
    for i, t in enumerate(times):
        near = calib[max(0, i + 1 - CALIBRATION_SPAN):i + 1 + CALIBRATION_SPAN]
        out.append(t * CALIBRATION_REF_S / statistics.median(near))
    return out


def setup(workload, seed):
    """Import the library, build the instances, render each to .lpn text and
    parse it back. Returns (instances holding the parsed nets, texts, timings)."""
    t0 = time.perf_counter()
    _import_library()
    t1 = time.perf_counter()
    from lpndetect.textio import parse_lpn, render_lpn

    import families

    insts = families.instances(workload, seed)
    texts = [render_lpn(inst.net) for inst in insts]
    t2 = time.perf_counter()
    parsed = [parse_lpn(text).net for text in texts]
    t3 = time.perf_counter()
    for inst, net in zip(insts, parsed):
        if net != inst.net:
            raise SystemExit(f"error: {inst.name} does not survive render and parse")
    insts = [dataclasses.replace(inst, net=net) for inst, net in zip(insts, parsed)]
    return insts, texts, {"setup_s": t3 - t0, "import_s": t1 - t0, "parse_s": t3 - t2}


def probe_setup_once(workload, seed):
    """One set-up in this process, with its host-adjusted time."""
    calib = [calibrate() for _ in range(SETUP_CALIBRATION_UNITS)]
    times = setup(workload, seed)[2]
    calib += [calibrate() for _ in range(SETUP_CALIBRATION_UNITS)]
    factor = CALIBRATION_REF_S / statistics.median(calib)
    return {"setup_s": times["setup_s"] * factor, "wall_setup_s": times["setup_s"],
            "import_s": times["import_s"] * factor, "parse_s": times["parse_s"] * factor}


def probe_setup(workload, seed):
    """Median set-up time over fresh interpreter processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    runs = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    runs = runs[1:]  # the first one also writes the bytecode caches
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


class Tally:
    """Counts of checks attempted, failed and decided over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.errors = []

    def record(self, inst, outcome, error):
        self.attempted += 1
        if outcome in ("holds", "fails", "coverable", "uncoverable"):
            self.decided += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{inst.name}: {error}")


def run_pass(lib, insts, budget, tally, tracer=None, calib=None):
    """One check of every instance; returns each check's seconds. With a
    list for calib, a calibration unit is timed before every check and after
    the last one, and appended to it."""
    from replay import judge, outcome_of

    times = []
    for inst in insts:
        fn = getattr(lib, FUNCTIONS[inst.check])
        if inst.check == "opacity":
            args = (inst.net, inst.secret, budget)
        elif inst.check == "coverable":
            args = (inst.net, inst.target)
        else:
            args = (inst.net, budget)
        result = error = None
        if calib is not None:
            calib.append(calibrate())
        with tracer.check() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as e:  # a check that raises is a failed check
                error = f"raised {type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
        times.append(dt)
        if tracer:
            tracer.stats.check_s += dt
        if error is None:
            error = judge(inst, result, budget)
            outcome = outcome_of(inst, result)
        else:
            outcome = None
        tally.record(inst, outcome, error)
    if calib is not None:
        calib.append(calibrate())
    return times


def measure(lib, insts, budget, seconds, tally):
    """Untraced closed loop of whole passes over the instances, until the
    time, pass and sample floors are met. Returns each pass's host-adjusted
    check times, its wall-clock check times and the calibration units."""
    run_pass(lib, insts, budget, tally, calib=[])  # warm-up, verified but not timed
    start = time.perf_counter()
    passes, wall, units = [], [], []
    while True:
        calib = []
        times = run_pass(lib, insts, budget, tally, calib=calib)
        passes.append(adjust(times, calib))
        wall.append(times)
        units += calib
        elapsed = time.perf_counter() - start
        if elapsed > MAX_RUN_S or (len(passes) >= MIN_PASSES and elapsed >= seconds
                                   and len(passes) * len(insts) >= MIN_SAMPLES):
            return passes, wall, units


def end_to_end(lib, insts, budget, seconds, setup_times, tally):
    passes, wall, units = measure(lib, insts, budget, seconds, tally)
    pass_s = [sum(times) for times in passes]
    wall_samples = [t for times in wall for t in times]
    samples = [t for times in passes for t in times]
    tail = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(1 for s in samples if s > tail)
    metrics = {
        "setup_s": setup_times["setup_s"],
        "verdicts_per_s": len(insts) / statistics.median(pass_s),
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.tail": tail,
        "decided_share": tally.decided / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": (f"median of {SETUP_PROBES} fresh processes; import "
                    f"{setup_times['import_s']:.3f} s, parse {setup_times['parse_s']:.4f} s; "
                    f"wall clock {setup_times['wall_setup_s']:.3f} s"),
        "verdicts_per_s": (f"{len(insts)} checks per pass / median pass time, "
                           f"{len(passes)} passes; wall clock "
                           f"{len(insts) / statistics.median(sum(t) for t in wall):.4g}"),
        "verdict_s.p50": (f"{len(samples)} checks; wall clock "
                          f"{statistics.median(wall_samples):.4g}"),
        "verdict_s.tail": (f"p90 of {len(samples)} checks, {beyond} beyond it; wall "
                           f"clock {statistics.quantiles(wall_samples, n=10)[-1]:.4g}"),
        "decided_share": f"{tally.decided} of {tally.attempted} checks holds or fails",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"calibration unit: median {statistics.median(units) * 1e3:.3f} ms, "
          f"quartiles {' / '.join(f'{q * 1e3:.3f}' for q in statistics.quantiles(units, n=4))}"
          f" ms over {len(units)} units; times below are scaled to "
          f"{CALIBRATION_REF_S * 1e3:g} ms")
    return metrics, notes


def _scale(stats, factor):
    """Host-adjust the times of one traced pass (PassStats) in place."""
    for sums in (stats.self_s, stats.total_s):
        for name in sums:
            sums[name] *= factor
    stats.check_s *= factor
    return stats


def traced(lib, insts, texts, budget, seconds, tally):
    """Alternate untraced and traced passes, then one memory-traced pass."""
    from spans import ENTRIES, Tracer

    textio = sys.modules["lpndetect.textio"]  # looked up per call, so the wrapper is seen

    def factor(calib):
        return CALIBRATION_REF_S / statistics.median(calib)

    tracer = Tracer()
    run_pass(lib, insts, budget, tally)  # warm-up
    start = time.perf_counter()
    plain_s, passes = [], []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if passes and time.perf_counter() - start > MAX_RUN_S:
            break
        calib = []
        plain_s.append(sum(adjust(run_pass(lib, insts, budget, tally, calib=calib), calib)))
        calib = []
        with tracer.installed():
            run_pass(lib, insts, budget, tally, tracer, calib=calib)
        passes.append(_scale(tracer.new_pass(), factor(calib)))
    rounds = []
    with tracer.installed():
        for _ in range(PARSE_ROUNDS):
            calib = [calibrate()]
            for text in texts:
                with tracer.check():
                    textio.parse_lpn(text)
            calib.append(calibrate())
            rounds.append(_scale(tracer.new_pass(), factor(calib)))

    mem = Tracer(memory=True)
    tracemalloc.start()
    try:
        with mem.installed():
            run_pass(lib, insts, budget, tally, mem)
            for text in texts:
                with mem.check():
                    textio.parse_lpn(text)
    finally:
        tracemalloc.stop()
    peaks = mem.new_pass().peak_mb
    peaks["check"] = max((peaks[name] for name in ENTRIES), default=0.0)

    return layer_metrics(passes, rounds, plain_s, peaks, tracer.absent, tracer.uncounted)


def layer_metrics(passes, rounds, plain_s, peaks, absent, uncounted):
    """Per-layer metrics from the traced passes (PassStats), the traced parse
    rounds, the untraced pass times and the memory-traced peaks. A metric
    whose span is absent, or whose count could not be read, is None.

    Returns (metrics, self-time share of check time per span that ran).
    """
    from spans import ENTRIES

    def value(kind, span, key):
        if span in absent or (kind == "count" and span in uncounted):
            return None
        if kind == "self":
            return statistics.median(p.self_s[span] for p in passes)
        if kind == "total":
            return statistics.median(p.total_s[span] for p in passes)
        if kind == "count":
            return statistics.median(p.counts[key] for p in passes)
        if kind == "edges_per_s":
            return statistics.median(p.counts["explore.reach_graph.edges"] / p.self_s[span]
                           if p.self_s[span] else 0.0 for p in passes)
        if kind == "closed_ratio":
            return statistics.median(p.counts["explore.reach_graph.closed"]
                           / p.counts["explore.reach_graph.builds"]
                           if p.counts["explore.reach_graph.builds"] else 0.0
                           for p in passes)
        if kind == "parse":
            return statistics.median(r.self_s[span] for r in rounds)
        if kind == "residue":
            return statistics.median(sum(p.self_s[e] for e in ENTRIES) / p.check_s
                                     for p in passes)
        if kind == "overhead":
            traced_s = statistics.median(p.check_s for p in passes)
            return traced_s / statistics.median(plain_s) - 1
        return peaks[span]

    ran = sorted({name for p in passes for name, s in p.self_s.items() if s},
                 key=lambda name: -passes[0].self_s[name])
    shares = {name: statistics.median(p.self_s[name] / p.check_s for p in passes)
              for name in ran}
    metrics = {name: value(kind, span, key) for name, _, kind, span, key in PER_LAYER}
    return metrics, shares


def run_one(args):
    lib = _import_library()
    from families import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_times = None if args.trace else probe_setup(args.workload, args.seed)
    insts, texts, _ = setup(args.workload, args.seed)
    tally = Tally()
    print(f"workload {args.workload}  seed {args.seed}  {len(insts)} instances  "
          f"{workload.budget}  predicted dominant layer {workload.dominant}")
    if args.trace:
        metrics, shares = traced(lib, insts, texts, workload.budget, args.seconds, tally)
        units = {entry[0]: entry[1] for entry in PER_LAYER}
        print("self-time share of check time, median over traced passes:")
        for name, share in shares.items():
            print(f"  {name:32s} {share:7.1%}")
    else:
        metrics, notes = end_to_end(lib, insts, workload.budget, args.seconds,
                                    setup_times, tally)
        units = dict(END_TO_END)
    for name, val in metrics.items():
        shown = "absent" if val is None else f"{val:.6g}"
        note = "" if args.trace else f"  ({notes[name]})"
        print(f"  {args.workload} {name} = {shown} {units[name]}{note}")
    failed_share = tally.failed / tally.attempted
    print(f"  {args.workload} failed_share = {failed_share:.6g} ratio  "
          f"({tally.failed} of {tally.attempted} checks wrong, raised or unreplayable)")
    for line in tally.errors:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": val, "unit": units[name]}
                    for name, val in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so each has its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        print(json.dumps(probe_setup_once(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
