"""Differential corpora: one line per verdict, to compare two revisions.

Run from anywhere, with the repository's Python:

    python tests/corpus.py [--nets N]
    python tests/corpus.py --against REV [--nets N]

The first form prints one record per line: a key (corpus, net or instance,
budget) and, after a tab, what the check returned: its outcome, witness,
message, stats.states and stats.depth, or the error it raised. Wall times
are left out, so the records of one revision are the same on every run.

The corpora:

- strong: check_strong on 600 netgen.random_net nets (rng 11, 5 places, 6
  transitions, ε 0.3) at Budget(300, 30) and (2000, 100), and on the
  strong instances of perfbench's twin_bounded and twin_unbounded
  workloads at seeds 0-2, at their workloads' budgets;
- weak: check_weak on 1500 such nets (rng 7) at Budget(2000, 100),
  (300, 30) and (50, 5);
- opacity: check_opacity on the same nets and budgets, each with one
  secret marking drawn (rng 5) from the net's Budget(300, 30) graph;
- cli: the check-strong, check-weak, check-opacity and check-assumptions
  commands, text and --json, on the first 24 of those nets at
  --max-states 300 --max-depth 30 and 2000 100: exit code, standard
  output and standard error, with wall_time_s masked;
- surface: on 24 more such nets (rng 9), the twin --dot, reach --dot,
  observer --dot and estimate commands, the last three at --max-states 300
  --max-depth 30 and estimate on a word of one to three symbols; and, on
  24 pairs of fully observable nets over c and d (rng 13, up to 3 places
  and 3 transitions), the gadget cov2strong, selfloop, incl2weak and
  secret commands, with a target marking drawn from the same rng: exit
  code, standard output, standard error and the DOT file's text.

--nets N keeps the first N nets of each corpus and drops the benchmark
instances. --against REV extracts src/ of the git revision REV into a
temporary directory (git archive), runs the same corpora on it and on this
checkout, and prints each record that differs, the revision's line first
(-) and this checkout's second (+), then a tally of those records by
corpus, by outcome (the revision's, then this checkout's) and by the fields
that changed: witness, message and stats, or a command's output, and last
the line count of src/lpndetect/*.py on both sides, as
`cat src/lpndetect/*.py | wc -l` counts it; it exits 1 if any record
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPORA = ("strong", "weak", "opacity", "cli", "surface")


def _nets(seed, count):
    from netgen import random_net

    rng = random.Random(seed)
    return [random_net(rng, max_places=5, max_trans=6, eps_prob=0.3) for _ in range(count)]


def _secrets(nets):
    from lpndetect import Budget, build_reachability_graph

    rng = random.Random(5)
    return [rng.choice(build_reachability_graph(net, Budget(300, 30)).markings) for net in nets]


def _instances():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from families import WORKLOADS, instances
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for w in ("twin_bounded", "twin_unbounded"):
        for seed in range(3):
            for inst in instances(w, seed):
                if inst.check == "strong":
                    yield f"{w}:{seed}:{inst.name}", inst.net, WORKLOADS[w].budget


def _witness(w):
    if w is None or not hasattr(w, "word"):
        return repr(w)
    return f"word={w.word!r} estimate={sorted(w.estimate)!r}"


def _key(corpus, name, budget):
    return f"{corpus} {name} ({budget.max_states},{budget.max_depth})"


def _record(check, *args):
    from lpndetect import NetError

    try:
        v = check(*args)
    except NetError as e:
        return f"raises {type(e).__name__}: {e}"
    return (f"{v.outcome} | {_witness(v.witness)} | {v.message} | "
            f"{v.stats.states} {v.stats.depth}")


def _command(argv):
    """Run one lpndetect command in-process: its exit code, standard output
    and standard error."""
    from lpndetect import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _cli(nets, secrets, tmp):
    from lpndetect.textio import render_lpn

    for i, (net, secret) in enumerate(zip(nets, secrets)):
        path = _write(os.path.join(tmp, f"n{i}.lpn"), render_lpn(net))
        spath = _write(os.path.join(tmp, f"n{i}.secret"),
                       " ".join(f"{p}={n}" for p, n in zip(net.places, secret)) + "\n")
        for states, depth in ((300, 30), (2000, 100)):
            for cmd in ("check-strong", "check-weak", "check-opacity", "check-assumptions"):
                for js in ((), ("--json",)):
                    argv = [cmd, path, "--max-states", str(states), "--max-depth", str(depth),
                            *js, *(("--secret", spath) if cmd == "check-opacity" else ())]
                    code, out, err = _command(argv)
                    text = re.sub(r'"wall_time_s": [^,\n}]*', '"wall_time_s": _', out + err)
                    yield f"cli {i} {cmd}{''.join(js)} ({states},{depth})", \
                        f"exit {code} | {text!r}"


def _surface(count, tmp):
    """The gadget, DOT and estimate commands: exit code, standard output,
    standard error and the DOT file's text."""
    from netgen import random_observable_net
    from lpndetect.textio import render_lpn

    rng = random.Random(13)
    dot = Path(tmp) / "out.dot"
    budget = ["--max-states", "300", "--max-depth", "30"]
    for i, net in enumerate(_nets(9, count)):
        g1, g2 = (random_observable_net(rng, max_places=3, max_trans=3, symbols=("c", "d"))
                  for _ in range(2))
        target = " ".join(f"{p}={rng.randint(0, 2)}" for p in g1.places)
        word = ",".join(rng.choice(sorted(net.alphabet)) for _ in range(rng.randint(1, 3)))
        path = _write(os.path.join(tmp, f"s{i}.lpn"), render_lpn(net))
        gpaths = [_write(os.path.join(tmp, f"g{i}_{j}.lpn"), render_lpn(g))
                  for j, g in enumerate((g1, g2))]
        for name, argv in (
            ("gadget cov2strong", ["gadget", "cov2strong", gpaths[0], "--marking", target]),
            ("gadget selfloop", ["gadget", "selfloop", gpaths[0], "--marking", target]),
            ("gadget incl2weak", ["gadget", "incl2weak", *gpaths]),
            ("gadget secret", ["gadget", "secret", *gpaths]),
            ("twin --dot", ["twin", path, "--dot", str(dot)]),
            ("reach --dot", ["reach", path, *budget, "--dot", str(dot)]),
            ("observer --dot", ["observer", path, *budget, "--dot", str(dot)]),
            ("estimate", ["estimate", path, *budget, "--word", word]),
        ):
            dot.unlink(missing_ok=True)
            code, out, err = _command(argv)
            text = dot.read_text(encoding="utf-8") if dot.exists() else None
            yield f"surface {i} {name}", f"exit {code} | {(out, err, text)!r}"


def records(nets=None):
    """Yield (key, record) for each record of the corpora, with only the
    first nets nets of each and no benchmark instances if nets is given."""
    from lpndetect import Budget, check_opacity, check_strong, check_weak

    pool = _nets(11, 600)[:nets]
    for budget in (Budget(300, 30), Budget(2000, 100)):
        for i, net in enumerate(pool):
            yield _key("strong", i, budget), _record(check_strong, net, budget)
    for name, net, budget in (() if nets else _instances()):
        yield _key("strong", name, budget), _record(check_strong, net, budget)
    pool = _nets(7, 1500)[:nets]
    secrets = _secrets(pool)
    for budget in (Budget(2000, 100), Budget(300, 30), Budget(50, 5)):
        for i, net in enumerate(pool):
            yield _key("weak", i, budget), _record(check_weak, net, budget)
        for i, net in enumerate(pool):
            yield _key("opacity", i, budget), _record(check_opacity, net, [secrets[i]], budget)
    with tempfile.TemporaryDirectory() as tmp:
        yield from _cli(pool[:24], secrets, tmp)
        yield from _surface(nets or 24, tmp)


def _run(src, nets):
    """The records of the checkout whose src/ is src, from a subprocess."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--src", str(src)] + \
        (["--nets", str(nets)] if nets else [])
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)


def _lines(proc):
    out, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"corpus run failed with exit code {proc.returncode}")
    return dict(line.split("\t", 1) for line in out.splitlines())


def _fields(record):
    """A record's outcome, and its other fields by name."""
    head, _, rest = record.partition(" | ")
    if head.startswith("exit "):
        return head, {"output": rest}
    rest, _, stats = rest.rpartition(" | ")
    witness, _, message = rest.partition(" | ")
    return head.split(":", 1)[0], {"witness": witness, "message": message, "stats": stats}


def _tally(theirs, ours, differ):
    """Lines counting the records differ by corpus, outcome and field."""
    corpora, outcomes, fields = Counter(), Counter(), Counter()
    for key in differ:
        corpora[key.split(" ", 1)[0]] += 1
        (was, old), (now, new) = _fields(theirs[key]), _fields(ours[key])
        outcomes[f"{was} -> {now}"] += 1
        fields.update(name for name in old if old[name] != new.get(name))
    for title, counts in (("corpus", corpora), ("outcome", outcomes), ("field", fields)):
        yield f"by {title}: " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items()))


def _src_lines(src: Path) -> int:
    """The newlines in src/lpndetect/*.py, as `cat ... | wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (src / "lpndetect").glob("*.py"))


def against(rev, nets) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        theirs, ours = _run(Path(tmp) / "src", nets), _run(ROOT / "src", nets)
        theirs, ours = _lines(theirs), _lines(ours)
        sizes = _src_lines(Path(tmp) / "src"), _src_lines(ROOT / "src")
    if theirs.keys() != ours.keys():
        raise SystemExit("the two runs listed different records")
    differ = [key for key in ours if ours[key] != theirs[key]]
    for key in differ:
        print(f"- {key}\t{theirs[key]}\n+ {key}\t{ours[key]}")
    counts = {c: sum(key.split(" ", 1)[0] == c for key in ours) for c in CORPORA}
    print(f"{len(differ)} of {len(ours)} records differ from {rev}; records per corpus: {counts}")
    print("\n".join(_tally(theirs, ours, differ)))
    print(f"src/lpndetect/*.py lines: {sizes[0]} at {rev}, {sizes[1]} in this checkout")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--nets", type=int, help="only the first N nets of each corpus")
    parser.add_argument("--against", metavar="REV", help="compare with git revision REV")
    parser.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against, args.nets)
    sys.path[:0] = [args.src, str(HERE)]
    for key, record in records(args.nets):
        print(f"{key}\t{record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
