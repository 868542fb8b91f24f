"""The differential corpora of tests/corpus.py are deterministic."""

import os
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus.py"


def test_a_slice_prints_the_same_records_twice():
    # A slice of every corpus, run twice under different hash seeds: the
    # records are the same, one line per check or command.
    procs = [
        subprocess.run([sys.executable, str(CORPUS), "--nets", "6"], capture_output=True,
                       text=True, timeout=120, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed))
        for seed in ("0", "1")
    ]
    runs = [proc.stdout for proc in procs]
    assert runs[0] == runs[1]
    # The wall time of each corpus goes to standard error, one line each.
    walls = [line.split() for line in procs[0].stderr.splitlines()]
    assert [(w[0], w[1]) for w in walls] == \
        [("wall", c) for c in ("strong", "weak", "opacity", "cli", "surface")]
    assert all(float(w[2]) > 0 for w in walls)
    lines = runs[0].splitlines()
    corpora = [line.split(" ", 1)[0] for line in lines]
    assert [corpora.count(c) for c in ("strong", "weak", "opacity", "cli", "surface")] == \
        [6 * 2, 6 * 3, 6 * 3, 6 * 16, 6 * 8]
    assert all("\t" in line for line in lines)
    # The JSON reports' wall times are masked.
    assert sum('"wall_time_s": _' in line for line in lines) >= 10
    assert not any('"wall_time_s": 0' in line for line in lines)
