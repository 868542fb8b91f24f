import json
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lpndetect import analyze, build_observer, build_twin, cli, make_net
from lpndetect.cli import main
from lpndetect.dot import graph_to_dot, km_to_dot, net_to_dot, observer_to_dot
from lpndetect.explore import Budget, build_km_tree, build_reachability_graph
from lpndetect.gadgets import coverability_to_strong, inclusion_to_weak
from lpndetect.net import EPSILON
from lpndetect.schema import VERDICT_REPORT_SCHEMA
from lpndetect.textio import (
    ParseError,
    parse_lpn,
    parse_marking,
    parse_secret_file,
    render_lpn,
)

from netgen import random_net

E2_TEXT = """\
# two a-labeled branches
places p q
initial p=1
trans t1 label a pre p:1 post p:1
trans t2 label a pre p:1 post q:1
trans t3 label a pre q:1 post q:1
"""


class TestParse:
    def test_e2_text(self, e2):
        assert parse_lpn(E2_TEXT).net == e2

    def test_epsilon_label(self):
        doc = parse_lpn("places p\ntrans u label ~ post p:1\n")
        assert doc.net.label("u") is EPSILON

    def test_alphabet_widening(self):
        doc = parse_lpn("places p\nalphabet a b\ntrans t label a pre p:1\n")
        assert doc.net.alphabet == frozenset({"a", "b"})

    def test_colon_in_place_id(self):
        # rightmost colon separates the weight
        doc = parse_lpn("places a:b\ntrans t label s pre a:b:2\n")
        assert doc.net.pre[0] == (2,)

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("places p q\nwat p\n", 2, 1),
            ("places p p\n", 1, 10),
            ("places p\ninitial q=1\n", 2, 9),
            ("places p\ninitial p=x\n", 2, 9),
            ("places p\ntrans t label a pre q:1\n", 2, 21),
            ("places p\ntrans t\n", 2, 7),
            ("places p\ntrans t label ~ p:1\n", 2, 17),
            ("places p\nalphabet ~\n", 2, 10),
            # non-ASCII digits pass str.isdigit(); int() rejects '²'
            ("places p\ninitial p=²\n", 2, 9),
            ("places p\ntrans t label a pre p:٣\n", 2, 21),
            ("places p\ninitial p\n", 2, 9),
            ("places p\ntrans\n", 2, 1),
            ("places p\ntrans t label a\ntrans t label b\n", 3, 7),
            ("places p t\ntrans t label a\n", 2, 7),
            ("places p\ntrans t label a\nplaces t\n", 3, 8),
            ("places p\ntrans t label a pre p\n", 2, 21),
        ],
    )
    def test_errors_report_position(self, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse_lpn(text)
        assert (exc.value.line, exc.value.column) == (line, col)

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("places p\ninitial p=1 p=2\n", 2, 13),
            ("places p\ninitial p=1\ninitial p=2\n", 3, 9),
            ("places p\ntrans t label a pre p:1 p:3\n", 2, 25),
            ("places p q\ntrans t label a post p:1 q:1 pre q:1 post p:2\n", 2, 43),
        ],
    )
    def test_repeated_place_reports_position(self, text, line, col):
        with pytest.raises(ParseError, match="repeated") as exc:
            parse_lpn(text)
        assert (exc.value.line, exc.value.column) == (line, col)


class TestRender:
    def test_roundtrip_fixtures(self, e1, e2, e3, e4, gadcov):
        for net in (e1, e2, e3, e4, gadcov.net):
            assert parse_lpn(render_lpn(net)).net == net

    def test_roundtrip_random(self):
        rng = random.Random(71)
        for _ in range(30):
            net = random_net(rng)
            assert parse_lpn(render_lpn(net)).net == net

    def test_roundtrip_twin_and_gadgets(self, e2, e4):
        tw = build_twin(e4)
        assert parse_lpn(render_lpn(tw.net)).net == tw.net
        g = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
        gadget = inclusion_to_weak(g, g)
        assert parse_lpn(render_lpn(gadget.net)).net == gadget.net

    def test_equals_in_place_id(self):
        # rightmost '=' separates the count, as ':' does the weight
        net = make_net(["a=b"], {"t": ("s", {"a=b": 1}, {})}, {"a=b": 1})
        text = render_lpn(net)
        assert "initial a=b=1\n" in text
        assert parse_lpn(text).net == net

    def test_comments_ignored(self, e2):
        text = render_lpn(e2, comments=("hello", "world"))
        assert text.startswith("# hello\n# world\n")
        assert parse_lpn(text).net == e2


class TestMarkingParsing:
    def test_parse_marking(self, e2):
        assert parse_marking(e2, "q=2") == (0, 2)
        assert parse_marking(e2, "p=1 q=3") == (1, 3)

    def test_parse_marking_equals_in_place_id(self):
        net = make_net(["a=b", "c"], {}, {})
        assert parse_marking(net, "a=b=1 c=2") == (1, 2)

    def test_parse_marking_errors(self, e2):
        from lpndetect.net import InputError

        with pytest.raises(InputError):
            parse_marking(e2, "r=1")
        with pytest.raises(InputError):
            parse_marking(e2, "p")
        # '²' passes str.isdigit() but int() rejects it.
        with pytest.raises(InputError, match="bad count"):
            parse_marking(e2, "p=²")

    def test_parse_marking_repeated_place(self, e2):
        from lpndetect.net import InputError

        with pytest.raises(InputError, match="column 5: repeated count of 'p'"):
            parse_marking(e2, "p=1 p=5")
        with pytest.raises(InputError, match="secret line 2, column 7: repeated count of 'q'"):
            parse_secret_file(e2, "p=1\n  q=1 q=2  # twice\n")

    def test_parse_secret_file(self, e2):
        text = "# comment\np=1\n\nq=1  # trailing\n"
        assert parse_secret_file(e2, text) == [(1, 0), (0, 1)]

    def test_parse_secret_empty(self, e2):
        from lpndetect.net import InputError

        with pytest.raises(InputError):
            parse_secret_file(e2, "# nothing\n")


class TestDot:
    def test_net_to_dot(self, e2):
        text = net_to_dot(e2)
        assert text.startswith("digraph")
        for name in e2.places + e2.transitions:
            assert f'"{name}"' in text

    def test_names_are_escaped(self):
        # Backslashes are escaped before quotes; the caption's line break
        # is DOT's own \n, inserted between the escaped parts.
        net = make_net(["p\\", 'q"'], {"t": ("a", {"p\\": 1}, {'q"': 1})}, {"p\\": 1})
        lines = net_to_dot(net).splitlines()
        assert r'  "p\\" [shape=circle label="p\\\n1"];' in lines
        assert r'  "q\"" [shape=circle label="q\"\n0"];' in lines
        assert r'  "p\\" -> "t";' in lines and r'  "t" -> "q\"";' in lines

    def test_graph_observer_km(self, e2, e3):
        g = build_reachability_graph(e2, Budget(100, 100))
        assert "digraph" in graph_to_dot(g)
        obs = build_observer(e2)
        assert "digraph" in observer_to_dot(obs)
        km = build_km_tree(e3, Budget())
        text = km_to_dot(km)
        assert "digraph" in text and "ω" in text


def write_net(tmp_path, net, name="net.lpn"):
    path = tmp_path / name
    path.write_text(render_lpn(net))
    return str(path)


class TestCli:
    def test_validate(self, tmp_path, e2, capsys):
        assert main(["validate", write_net(tmp_path, e2)]) == 0
        assert "2 places, 3 transitions" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.lpn")]) == 3
        assert "error" in capsys.readouterr().err

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.lpn"
        path.write_text("places p\nwat\n")
        assert main(["validate", str(path)]) == 3

    def test_non_ascii_digit_exit(self, tmp_path, e1, capsys):
        path = tmp_path / "sup.lpn"
        path.write_text("places p\ninitial p=²\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 3
        p1 = write_net(tmp_path, e1)
        assert main(["gadget", "cov2strong", p1, "--marking", "p=²"]) == 3
        assert capsys.readouterr().err.count("error:") == 2

    def test_non_utf8_input_exit(self, tmp_path, e1, capsys):
        path = tmp_path / "bad.lpn"
        path.write_bytes(b"places p\xff\n")
        assert main(["check-strong", str(path)]) == 3
        secret = tmp_path / "secret.txt"
        secret.write_bytes(b"p=1 \xff\n")
        assert main(["check-opacity", write_net(tmp_path, e1),
                     "--secret", str(secret)]) == 3
        err = capsys.readouterr().err
        assert err.count("error:") == 2 and "Traceback" not in err

    def test_usage_error_exit(self, capsys):
        assert main(["no-such-command"]) == 3
        assert main([]) == 3

    def test_twin_roundtrip(self, tmp_path, e2, capsys):
        assert main(["twin", write_net(tmp_path, e2)]) == 0
        out = capsys.readouterr().out
        assert parse_lpn(out).net == build_twin(e2).net

    def test_check_strong_exit_codes(self, tmp_path, e1, e2, e3, capsys):
        assert main(["check-strong", write_net(tmp_path, e1)]) == 0
        assert main(["check-strong", write_net(tmp_path, e2)]) == 1
        assert main([
            "check-strong", write_net(tmp_path, e3),
            "--max-states", "100", "--max-depth", "20",
        ]) == 2
        capsys.readouterr()

    def test_check_strong_assumption_error(self, tmp_path, capsys):
        net = make_net(["p"], {"t": ("a", {"p": 1}, {})}, {"p": 1})
        assert main(["check-strong", write_net(tmp_path, net)]) == 3
        assert "error" in capsys.readouterr().err

    def test_json_report_schema(self, tmp_path, e2, e4, capsys):
        for net, prop in ((e2, "check-strong"), (e2, "check-weak")):
            main([prop, write_net(tmp_path, net), "--json"])
            rep = json.loads(capsys.readouterr().out)
            jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        main(["check-strong", write_net(tmp_path, e4), "--json",
              "--max-states", "500", "--max-depth", "30"])
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["outcome"] == "fails"
        assert rep["witness"]["segment_pairs"][1] == [["t", "u"]]

    def test_check_strong_builds_twin_once(self, tmp_path, e2, capsys, monkeypatch):
        calls = []

        def counting(net):
            calls.append(net)
            return build_twin(net)

        monkeypatch.setattr(analyze, "build_twin", counting)
        monkeypatch.setattr(cli, "build_twin", counting)
        assert main(["check-strong", write_net(tmp_path, e2), "--json"]) == 1
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["witness"] == {
            "segments": [["(t1,t2)"], ["(t1,t3)"], []],
            "markings": [[1, 0, 0, 1], [1, 0, 0, 1], [1, 0, 0, 1]],
            "segment_pairs": [[["t1", "t2"]], [["t1", "t3"]], []],
        }

    def test_check_opacity(self, tmp_path, e1, e2, capsys):
        secret = tmp_path / "secret.txt"
        secret.write_text("p=1\n")
        assert main([
            "check-opacity", write_net(tmp_path, e1), "--secret", str(secret), "--json",
        ]) == 1
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["witness"]["word"] == []
        assert main(["check-opacity", write_net(tmp_path, e1), "--secret", str(secret)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "current-state-opacity: FAILS", "  word: (empty)", "  estimate marking: [1]",
        ]
        secret2 = tmp_path / "secret2.txt"
        secret2.write_text("q=1\n")
        assert main([
            "check-opacity", write_net(tmp_path, e2), "--secret", str(secret2),
        ]) == 0
        capsys.readouterr()

    def test_observer_checks_report_depth(self, tmp_path, e2, capsys):
        # e2's observer: {(1,0)} -a-> {(1,0),(0,1)} -a-> itself
        assert main(["check-weak", write_net(tmp_path, e2), "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert (rep["stats"]["states"], rep["stats"]["depth"]) == (2, 1)
        secret = tmp_path / "secret.txt"
        secret.write_text("q=1\n")
        assert main([
            "check-opacity", write_net(tmp_path, e2), "--secret", str(secret), "--json",
        ]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert (rep["stats"]["states"], rep["stats"]["depth"]) == (2, 1)

    def test_checks_report_their_assumptions(self, tmp_path, e2, capsys):
        path = write_net(tmp_path, e2)
        for prop in ("check-strong", "check-weak"):
            assert main([prop, path, "--json"]) == 1
            rep = json.loads(capsys.readouterr().out)
            jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
            assert rep["assumptions"] == {
                "deadlock_free": "holds",
                "no_infinite_unobservable": "holds",
            }
            assert main([prop, path]) == 1
            assert "  deadlock-free: holds\n" in capsys.readouterr().out

    def test_check_assumptions_json(self, tmp_path, e1, capsys):
        assert main(["check-assumptions", write_net(tmp_path, e1), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["assumptions"] == {
            "deadlock_free": "holds",
            "no_infinite_unobservable": "holds",
        }

    def test_check_assumptions_reports_the_worse_verdict(self, tmp_path, e3, capsys):
        # FAILS < INCONCLUSIVE < HOLDS; a tie goes to deadlock freedom.
        small, mid = ["--max-states", "20", "--max-depth", "20"], \
            ["--max-states", "50", "--max-depth", "10"]
        eps_pump = make_net(["p", "q"], {"t": (EPSILON, {"p": 1}, {"p": 1, "q": 1}),
                                         "v": ("a", {"p": 1}, {"p": 1})}, {"p": 1})
        one_shot = make_net(["p"], {"t": ("a", {"p": 1}, {})}, {"p": 1})
        drained = make_net(["p", "q", "r"], {"t": ("a", {"p": 1}, {"p": 1, "q": 1}),
                                             "u": (EPSILON, {"q": 1}, {"r": 1})}, {"p": 1})
        for net, extra, code, shown in (
            (e3, small, 2, ["INCONCLUSIVE", "  note: no deadlock found within budget",
                            "  deadlock-free: inconclusive",
                            "  no-infinite-unobservable: holds"]),
            (eps_pump, mid, 1, ["FAILS", "  segment 1: (empty)", "  marking 1: [1, 0]",
                                "  segment 2: t", "  marking 2: [1, 1]",
                                "  deadlock-free: inconclusive",
                                "  no-infinite-unobservable: fails"]),
            (one_shot, [], 1, ["FAILS", "  segment 1: t", "  marking 1: [0]",
                               "  deadlock-free: fails",
                               "  no-infinite-unobservable: holds"]),
            (drained, mid, 2, ["INCONCLUSIVE", "  note: no deadlock found within budget",
                               "  deadlock-free: inconclusive",
                               "  no-infinite-unobservable: inconclusive"]),
        ):
            assert main(["check-assumptions", write_net(tmp_path, net), *extra]) == code
            out = capsys.readouterr().out.splitlines()
            assert out == ["standing-assumptions: " + shown[0], *shown[1:]]

    def test_km_reach_observer_estimate(self, tmp_path, e2, e3, capsys):
        p2 = write_net(tmp_path, e2)
        assert main(["km", p2]) == 0
        assert main(["reach", p2]) == 0
        assert main(["observer", p2]) == 0
        assert main(["estimate", p2, "--word", "a,a"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["reachability graph: 2 nodes, 3 edges, complete",
                           "observer: 2 states, 2 edges, complete",
                           "{[0,1],[1,0]}"]
        p3 = write_net(tmp_path, e3, "e3.lpn")
        small = ["--max-states", "20", "--max-depth", "20"]
        assert main(["reach", p3, *small]) == 2
        assert main(["observer", p3, *small]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "reachability graph: 20 nodes, 19 edges, truncated",
            "observer: 19 states, 18 edges, truncated",
        ]

    def test_estimate_output(self, tmp_path, e2, e3, capsys):
        p3 = write_net(tmp_path, e3, "e3.lpn")
        assert main(["estimate", p3, "--word", "aaa", "--max-states", "3"]) == 2
        assert capsys.readouterr() == ("{}\n", "note: estimate truncated by budget\n")
        p2 = write_net(tmp_path, e2)
        assert main(["estimate", p2, "--word", ""]) == 0
        assert capsys.readouterr().out == "{[1,0]}\n"
        # Without a comma, each character is one symbol.
        assert main(["estimate", p2, "--word", "aa"]) == 0
        assert capsys.readouterr().out == "{[0,1],[1,0]}\n"

    def test_km_truncated_by_budget(self, tmp_path, e3, capsys):
        p3 = write_net(tmp_path, e3)
        assert main(["km", p3]) == 0
        assert capsys.readouterr().out == "coverability tree: 3 nodes\n"
        dot = tmp_path / "km.dot"
        assert main(["km", p3, "--max-states", "2", "--dot", str(dot)]) == 2
        assert capsys.readouterr().out == "coverability tree: 2 nodes (truncated)\n"
        assert dot.read_text().count("->") == 1
        assert main(["km", p3, "--max-depth", "1"]) == 2
        assert capsys.readouterr().out == "coverability tree: 2 nodes (truncated)\n"

    def test_dot_export(self, tmp_path, e2, capsys):
        dot = tmp_path / "twin.dot"
        assert main(["twin", write_net(tmp_path, e2), "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("digraph")
        capsys.readouterr()

    def test_gadget_commands(self, tmp_path, e1, capsys):
        p1 = write_net(tmp_path, e1)
        assert main(["gadget", "selfloop", p1, "--marking", "p=1"]) == 0
        out = capsys.readouterr().out
        assert "t_cover_loop" in out and out.startswith("# provenance:")
        parsed = parse_lpn(out).net
        assert parsed.label("t_cover_loop") is EPSILON

        g = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
        pg = write_net(tmp_path, g, "g.lpn")
        assert main(["gadget", "incl2weak", pg, pg]) == 0
        gtxt = capsys.readouterr().out
        assert parse_lpn(gtxt).net == inclusion_to_weak(g, g).net
        assert main(["gadget", "secret", pg, pg]) == 0
        assert capsys.readouterr().out.strip() == "p3=1"

        obs = make_net(["p"], {"t": ("s", {"p": 1}, {"p": 1})}, {"p": 1})
        po = write_net(tmp_path, obs, "obs.lpn")
        assert main(["gadget", "cov2strong", po, "--marking", "p=1"]) == 0
        cov = parse_lpn(capsys.readouterr().out).net
        assert cov == coverability_to_strong(obs, (1,)).net


def test_import_needs_no_networkx():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import lpndetect, lpndetect.cli\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout.split() == ["False"], out.stderr
