import ast
import json
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lpndetect import analyze, build_observer, build_twin, cli, dot, make_net
from lpndetect.cli import main
from lpndetect.dot import graph_to_dot, net_to_dot, observer_to_dot
from lpndetect.explore import Budget, build_reachability_graph
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

    def test_graph_observer_km(self, e2):
        g = build_reachability_graph(e2, Budget(100, 100))
        assert "digraph" in graph_to_dot(g)
        obs = build_observer(e2)
        assert "digraph" in observer_to_dot(obs)
        # The coverability tree has no DOT export.
        assert not hasattr(dot, "km_to_dot")


# The notes of the assumption certificates; LIVE_T names transition t.
EPS_CERTIFICATE = "certificate: every unobservable transition removes a token"
LIVE_T = "certificate: t stays enabled, as no transition lowers its input places"
TOKEN_LIVE = ("certificate: every reachable marking marks a place that alone enables a "
              "transition, as no transition lowers the token count")


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

    def test_check_strong_exit_codes(self, tmp_path, e1, e2, e3, e5, capsys):
        assert main(["check-strong", write_net(tmp_path, e1)]) == 0
        assert main(["check-strong", write_net(tmp_path, e2)]) == 1
        for net, code in ((e3, 0), (e5, 2)):
            assert main([
                "check-strong", write_net(tmp_path, net),
                "--max-states", "100", "--max-depth", "20",
            ]) == code
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

    def test_opacity_word_separates_its_symbols(self, tmp_path, capsys):
        # The alphabet holds a, b and ab: the words (ab,) and (a, b) print
        # apart. A word with a separator reads back as printed; one without
        # reads as one symbol if the alphabet holds it, else one char each.
        net = make_net(["p", "q", "r", "s"], {
            "ta": ("a", {"p": 1}, {"q": 1}), "tb": ("b", {"q": 1}, {"r": 1}),
            "tab": ("ab", {"p": 1}, {"s": 1}), "tr": ("c", {"r": 1}, {"r": 1}),
            "ts": ("c", {"s": 1}, {"s": 1}),
        }, {"p": 1})
        path, secret = write_net(tmp_path, net), tmp_path / "secret.txt"
        for place, word, json_word in (("s", "ab", ["ab"]), ("r", "a b", ["a", "b"])):
            secret.write_text(f"{place}=1\n")
            assert main(["check-opacity", path, "--secret", str(secret)]) == 1
            out = capsys.readouterr().out.splitlines()
            assert f"  word: {word}" in out
            assert main(["check-opacity", path, "--secret", str(secret), "--json"]) == 1
            witness = json.loads(capsys.readouterr().out)["witness"]
            assert witness["word"] == json_word
            # The printed word reads back to the witness's estimate.
            assert main(["estimate", path, "--word", word]) == 0
            caption = "{" + ",".join("[" + ",".join(map(str, m)) + "]"
                                     for m in witness["estimate"]) + "}"
            assert capsys.readouterr().out == caption + "\n"
        for word, caption in (("a b", "{[0,0,1,0]}"), ("a,b", "{[0,0,1,0]}"),
                              ("ab", "{[0,0,0,1]}"), ("ab,", "{[0,0,0,1]}"),
                              ("ab c", "{[0,0,0,1]}"), ("abc", "{[0,0,1,0]}"),
                              ("ac", "{}")):
            assert main(["estimate", path, "--word", word]) == 0
            assert capsys.readouterr().out == caption + "\n"

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

    def test_weak_holds_names_its_cycle(self, tmp_path, e1, capsys):
        # e1's observer stops at its root {(1,)}, which a keeps.
        cycle = ("the estimate after the word (empty) is {(1,)}, and singleton "
                 "estimates return to it under the word a")
        path = write_net(tmp_path, e1)
        assert main(["check-weak", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["outcome"] == "holds" and rep["message"] == cycle
        assert (rep["stats"]["states"], rep["stats"]["depth"]) == (1, 0)
        assert main(["check-weak", path]) == 0
        assert capsys.readouterr().out.startswith(
            f"weak-detectability: HOLDS\n  note: {cycle}\n")

    def test_checks_report_their_assumptions(self, tmp_path, e2, capsys):
        path = write_net(tmp_path, e2)
        for prop in ("check-strong", "check-weak"):
            assert main([prop, path, "--json"]) == 1
            rep = json.loads(capsys.readouterr().out)
            jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
            assert rep["assumptions"] == {
                "deadlock_free": "holds",
                "no_infinite_unobservable": "holds",
                "deadlock_free_message": TOKEN_LIVE,
                "no_infinite_unobservable_message": EPS_CERTIFICATE,
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
            "deadlock_free_message": LIVE_T,
            "no_infinite_unobservable_message": EPS_CERTIFICATE,
        }

    def test_verdicts_name_their_certificate(self, tmp_path, e3, capsys):
        path = write_net(tmp_path, e3)
        assert main(["check-assumptions", path]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "  note: certificate: t stays enabled, as no transition lowers its input places")
        assert main(["check-strong", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["message"].startswith("certificate: twin invariant")
        assert (rep["stats"]["states"], rep["stats"]["depth"]) == (0, 0)

    def test_observer_certificates_report(self, tmp_path, capsys):
        # A ring p0 -b-> p1 -a-> p2 -ε-> p0 with one token: the ε step leads
        # the secret p2=1 out of the secret, and the two singleton steps
        # lie on no cycle: b from p0 to p1, and a from p1 to p2, which has
        # none, as its ε step leaves it.
        net = make_net(["p0", "p1", "p2"],
                       {"t0": ("b", {"p0": 1}, {"p1": 1}), "t1": ("a", {"p1": 1}, {"p2": 1}),
                        "t2": (EPSILON, {"p2": 1}, {"p0": 1})}, {"p0": 1})
        path, secret = write_net(tmp_path, net), tmp_path / "secret.txt"
        secret.write_text("p2=1\n")
        note = ("  note: certificate: every secret marking reaches a non-secret "
                "marking by unobservable transitions")
        assert main(["check-opacity", path, "--secret", str(secret)]) == 0
        assert capsys.readouterr().out.splitlines() == ["current-state-opacity: HOLDS", note]
        assert main(["check-opacity", path, "--secret", str(secret), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["outcome"] == "holds" and "  note: " + rep["message"] == note
        assert (rep["stats"]["states"], rep["stats"]["depth"]) == (0, 0)
        assert main(["check-weak", path]) == 1
        assert capsys.readouterr().out.splitlines()[:2] == [
            "weak-detectability: FAILS",
            "  note: certificate: the graph's singleton steps form no cycle (2 of them, "
            "over 3 markings)"]
        assert main(["check-weak", path, "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["witness"] is None and rep["stats"]["states"] == 0

    def test_check_assumptions_reports_each_message(self, tmp_path, e3, capsys):
        # Both assumptions of e3 are certified; each certificate is shown.
        path = write_net(tmp_path, e3)
        assert main(["check-assumptions", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2:] == ["  deadlock-free: holds", "    note: " + LIVE_T,
                           "  no-infinite-unobservable: holds", "    note: " + EPS_CERTIFICATE]
        assert main(["check-assumptions", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert rep["assumptions"]["deadlock_free_message"] == LIVE_T
        assert rep["assumptions"]["no_infinite_unobservable_message"] == EPS_CERTIFICATE
        old = dict(rep, assumptions={k: v for k, v in rep["assumptions"].items()
                                     if not k.endswith("_message")})
        jsonschema.validate(old, VERDICT_REPORT_SCHEMA)  # the fields are optional

    def test_token_count_certifies_an_unbounded_net(self, tmp_path, capsys):
        # t doubles p's token onto q and u returns one: the net is unbounded,
        # both places lose tokens, and each is the only input of one
        # transition. Without the token-count certificate deadlock freedom
        # is inconclusive (exit 2); with it, both assumptions hold.
        net = make_net(["p", "q"], {"t": ("a", {"p": 1}, {"q": 2}),
                                    "u": ("b", {"q": 1}, {"p": 1})}, {"p": 1})
        path = write_net(tmp_path, net)
        assert main(["check-assumptions", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "standing-assumptions: HOLDS", "  note: " + TOKEN_LIVE,
            "  deadlock-free: holds", "    note: " + TOKEN_LIVE,
            "  no-infinite-unobservable: holds", "    note: " + EPS_CERTIFICATE]
        assert main(["check-assumptions", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, VERDICT_REPORT_SCHEMA)
        assert (rep["stats"]["states"], rep["stats"]["depth"]) == (0, 0)
        assert rep["assumptions"]["deadlock_free_message"] == TOKEN_LIVE

    def test_check_assumptions_reports_the_worse_verdict(self, tmp_path, e5, capsys):
        # FAILS < INCONCLUSIVE < HOLDS; a tie goes to deadlock freedom.
        small, mid = ["--max-states", "20", "--max-depth", "20"], \
            ["--max-states", "50", "--max-depth", "10"]
        eps_pump = make_net(["p", "q"], {"t": (EPSILON, {"p": 1}, {"p": 1, "q": 1}),
                                         "v": ("a", {"p": 1}, {"p": 1})}, {"p": 1})
        one_shot = make_net(["p"], {"t": ("a", {"p": 1}, {})}, {"p": 1})
        drained = make_net(["p", "q", "r"], {"t": ("a", {"p": 1}, {"p": 1, "q": 1}),
                                             "u": (EPSILON, {"q": 1}, {"r": 1})}, {"p": 1})
        # drained with p's token shuttled to s and back: no certificate applies
        shuttle = make_net(["p", "q", "r", "s"],
                           {"t": ("a", {"p": 1}, {"p": 1, "q": 1}),
                            "u": (EPSILON, {"q": 1}, {"r": 1}),
                            "x": ("b", {"p": 1}, {"s": 1}),
                            "y": ("b", {"s": 1}, {"p": 1})}, {"p": 1})
        for net, extra, code, shown in (
            (e5, small, 2, ["INCONCLUSIVE", "  note: no deadlock found within budget",
                            "  deadlock-free: inconclusive",
                            "    note: no deadlock found within budget",
                            "  no-infinite-unobservable: holds",
                            "    note: " + EPS_CERTIFICATE]),
            (eps_pump, mid, 1, ["FAILS", "  segment 1: (empty)", "  marking 1: [1, 0]",
                                "  segment 2: t", "  marking 2: [1, 1]",
                                "  deadlock-free: holds",
                                "    note: " + LIVE_T,
                                "  no-infinite-unobservable: fails"]),
            (one_shot, [], 1, ["FAILS", "  segment 1: t", "  marking 1: [0]",
                               "  deadlock-free: fails",
                               "  no-infinite-unobservable: holds",
                               "    note: " + EPS_CERTIFICATE]),
            (drained, mid, 2, ["INCONCLUSIVE",
                               "  note: state space did not close within budget",
                               "  deadlock-free: holds",
                               "    note: " + LIVE_T,
                               "  no-infinite-unobservable: inconclusive",
                               "    note: state space did not close within budget"]),
            (shuttle, mid, 2, ["INCONCLUSIVE", "  note: no deadlock found within budget",
                               "  deadlock-free: inconclusive",
                               "    note: no deadlock found within budget",
                               "  no-infinite-unobservable: inconclusive",
                               "    note: state space did not close within budget"]),
        ):
            assert main(["check-assumptions", write_net(tmp_path, net), *extra]) == code
            out = capsys.readouterr().out.splitlines()
            assert out == ["standing-assumptions: " + shown[0], *shown[1:]]

    def test_km_reach_observer_estimate(self, tmp_path, e2, e3, capsys):
        p2 = write_net(tmp_path, e2)
        assert main(["km", p2]) == 3  # no such command
        assert main(["reach", p2]) == 0
        assert main(["observer", p2]) == 0
        assert main(["estimate", p2, "--word", "a,a"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["reachability graph: 2 nodes, 3 edges, complete",
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
        # The km command is gone; reach shows a truncated graph.
        p3 = write_net(tmp_path, e3)
        assert main(["km", p3]) == 3
        capsys.readouterr()
        dot = tmp_path / "reach.dot"
        assert main(["reach", p3, "--max-states", "2", "--dot", str(dot)]) == 2
        assert capsys.readouterr().out == "reachability graph: 2 nodes, 1 edges, truncated\n"
        assert dot.read_text().count("->") == 1
        assert main(["reach", p3, "--max-depth", "1"]) == 2
        assert capsys.readouterr().out == "reachability graph: 2 nodes, 1 edges, truncated\n"

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


def test_modules_use_every_name_they_import():
    # __init__.py is left out: its imports are the package's exports.
    src = Path(__file__).resolve().parent.parent / "src" / "lpndetect"
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert unused == []


def _adds_effect(node) -> bool:
    """Whether node adds two markings place by place: map(operator.add, ...),
    map(add, ...), or x + d over zip(...) in a comprehension."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map" and node.args:
        f = node.args[0]
        return getattr(f, "attr", getattr(f, "id", None)) == "add"
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)) and len(node.generators) == 1:
        gen, elt = node.generators[0], node.elt
        return (getattr(gen.iter, "func", None) is not None
                and getattr(gen.iter.func, "id", None) == "zip"
                and isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Add)
                and isinstance(elt.left, ast.Name) and isinstance(elt.right, ast.Name))
    return False


def _tests_kernel_arcs(node) -> bool:
    """Whether node is a loop over a .kernel that compares a subscript, as
    an enabledness test m[i] >= w does."""
    if isinstance(node, ast.For):
        iters = [node.iter]
    elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
        iters = [gen.iter for gen in node.generators]
    else:
        return False
    return (any(getattr(x, "attr", None) == "kernel" for i in iters for x in ast.walk(i))
            and any(isinstance(n, ast.Compare)
                    and any(isinstance(x, ast.Subscript) for x in (n.left, *n.comparators))
                    for n in ast.walk(node)))


def test_one_firing_kernel():
    # Every explorer fires through net.successors; net.fire is the checked
    # reference. No other function adds an effect to a marking or tests a
    # transition's arcs off net.kernel, so no inline copy of the kernel
    # comes back.
    src = Path(__file__).resolve().parent.parent / "src" / "lpndetect"
    firing = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    any(_adds_effect(n) or _tests_kernel_arcs(n) for n in ast.walk(fn))):
                firing.add(f"{path.stem}.{fn.name}")
    assert firing == {"net.successors", "net.fire"}


def test_explore_reads_growth_off_the_graph():
    # search_pattern stops growing its graph at a stored edge whose target
    # strictly covers its source, which proves the net unbounded, so no
    # function in explore reads a transition table's kernel to predict it.
    path = Path(__file__).resolve().parent.parent / "src" / "lpndetect" / "explore.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    readers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(n, ast.Attribute) and n.attr == "kernel"
                       for n in ast.walk(fn))}
    assert readers == set()


def test_peel_reads_stored_successor_lists():
    # _fed_by_cycle peels the successor lists its callers already hold, so
    # no caller builds an edge list or an adjacency list for it, or counts
    # nodes apart from the lists.
    src = Path(__file__).resolve().parent.parent / "src" / "lpndetect"
    callers, built = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_fed_by_cycle":
                    callers.add(fn.name)
                    built += [fn.name for arg in call.args + [k.value for k in call.keywords]
                              if isinstance(arg, (ast.ListComp, ast.GeneratorExp))
                              or isinstance(arg, ast.Call)
                              and getattr(arg.func, "id", None) == "len"]
    assert callers == {"_exact_exists", "check_strong_oracle", "_live", "_singleton_cycle"}
    assert built == []


def test_analyze_fires_in_two_places():
    # Weak's root test and the opacity certificate are analyze's only
    # callers of successors: every other question reads a graph that
    # explore built, so no second search loop comes back into analyze.
    path = Path(__file__).resolve().parent.parent / "src" / "lpndetect" / "analyze.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = set()
    for top in tree.body:
        for fn in ([top] if not isinstance(top, ast.ClassDef) else top.body):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", None) == "successors"
                    for n in ast.walk(fn)):
                callers.add(fn.name)
    assert callers == {"_root_cycle", "_secret_escapes"}


def test_benchmark_finds_every_layer_it_traces():
    # perfbench/spans.py wraps each layer function by its name; a function
    # renamed or removed here would read as null in the benchmark instead of
    # failing a test.
    import importlib.util

    import lpndetect.textio  # noqa: F401  every module spans.LAYERS names

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.absent == set()
