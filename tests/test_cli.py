import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pumpkit import BUILTINS, ExtractionMode, dumps, extract, is_star_form, loads
from pumpkit import cli
from pumpkit.cli import main
from pumpkit.pda import BOTTOM, GeneralPda, GeneralTransition, NormalizedPda, NormalizedTransition
from pumpkit.record import replace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def single_word_doc() -> str:
    pda = NormalizedPda(
        states=["q0", "qa"],
        input_alphabet=["a"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qa"],
        transitions=[NormalizedTransition("q0", "a", BOTTOM, None, "qa")],
    )
    return dumps(pda)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_pump_help_reads_its_default_counts_from_verify(self, monkeypatch):
        def counts_help():
            sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
            return next(a.help for a in sub.choices["pump"]._actions if "--n" in a.option_strings)

        assert counts_help() == "comma-separated pump counts (default 0,1,2,3,4)"
        monkeypatch.setattr(cli, "DEFAULT_N_SET", (0, 7))
        assert counts_help() == "comma-separated pump counts (default 0,7)"

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "params", "/nonexistent/machine.json")
        assert code == 2
        assert "no such file" in err

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "params", str(bad))
        assert code == 2
        assert "pumpkit:" in err

    def test_semantically_invalid_machine(self, capsys, tmp_path):
        doc = json.loads(dumps(loads(single_word_doc())))
        doc["initial_state"] = "nowhere"
        f = tmp_path / "invalid.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "params", str(f))
        assert code == 2
        assert "invalid machine" in err

    @pytest.mark.parametrize(
        "argv", [("params",), ("check", "ab"), ("pump", "abab", "--mode", "best-effort")]
    )
    def test_input_symbol_of_two_characters_is_refused_at_load(self, capsys, tmp_path, argv):
        pda = GeneralPda(
            states=["q"],
            input_alphabet=["ab", "c"],
            stack_alphabet=[BOTTOM],
            initial_state="q",
            initial_stack=[BOTTOM],
            accept_states=["q"],
            transitions=[GeneralTransition("q", a, BOTTOM, (BOTTOM,), "q") for a in ("ab", "c")],
        )
        f = tmp_path / "wide.json"
        f.write_text(dumps(pda), encoding="utf-8")
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (code, out) == (2, "")
        assert "bad-input-symbol" in err and "'ab'" in err

    def test_machine_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "params", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"pumpkit: {tmp_path}: Is a directory\n"

    def test_machine_file_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(single_word_doc().encode("utf-16"))
        code, out, err = run(capsys, "params", str(bad))
        assert (code, out) == (2, "")
        assert err == f"pumpkit: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


class TestParams:
    def test_dyck1_frozen(self, capsys):
        code, out, _ = run(capsys, "params", "DYCK1")
        assert code == 0
        assert out == (
            "p'=8 p=13122\n"
            "states=2 stack_symbols=2\n"
            "normalization: unchanged\n"
        )

    def test_reg_ab_frozen(self, capsys):
        code, out, _ = run(capsys, "params", "REG_AB")
        assert code == 0
        assert out.splitlines()[0] == "p'=4 p=32"

    def test_general_machine_reports_expansion(self, capsys):
        code, out, _ = run(capsys, "params", "GEN_PAL")
        assert code == 0
        assert "normalization: expanded the machine" in out

    def test_file_input(self, capsys, dyck1_file):
        code, out, _ = run(capsys, "params", str(dyck1_file))
        assert code == 0
        assert out.startswith("p'=8 p=13122")


class TestNormalize:
    def test_deterministic_star_form_output(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(capsys, "normalize", "GEN_PAL", str(out1))[0] == 0
        assert run(capsys, "normalize", "GEN_PAL", str(out2))[0] == 0
        text = out1.read_text(encoding="utf-8")
        assert text == out2.read_text(encoding="utf-8")
        doc = loads(text)
        assert is_star_form(doc.pda)

    def test_output_directory_missing(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, "normalize", "DYCK1", str(dest))
        assert (code, out) == (2, "")
        assert err == f"pumpkit: cannot write {dest}: No such file or directory\n"

    def test_stdout_dash(self, capsys):
        code, out, _ = run(capsys, "normalize", "REG_AB", "-")
        assert code == 0
        doc = loads(out)
        assert is_star_form(doc.pda)
        assert doc.name == "REG_AB"


class TestCheck:
    def test_missing_word_file(self, capsys, tmp_path):
        missing = tmp_path / "words.txt"
        code, out, err = run(capsys, "check", "DYCK1", "--word-file", str(missing))
        assert (code, out) == (2, "")
        assert err == f"pumpkit: no such file: {missing}\n"

    def test_word_file_not_utf8(self, capsys, tmp_path):
        wf = tmp_path / "words.txt"
        wf.write_bytes(b"()\n\xff\n")
        code, out, err = run(capsys, "check", "DYCK1", "--word-file", str(wf))
        assert (code, out) == (2, "")
        assert err == f"pumpkit: {wf}: not UTF-8 text (invalid start byte at byte 3)\n"

    def test_accepted(self, capsys):
        code, out, _ = run(capsys, "check", "DYCK1", "(())")
        assert code == 0
        assert out == "accepted\t(())\n"

    def test_rejected(self, capsys):
        code, out, _ = run(capsys, "check", "DYCK1", "(()")
        assert code == 1
        assert out == "not-accepted\t(()\n"

    def test_invalid_symbols(self, capsys):
        code, out, _ = run(capsys, "check", "DYCK1", "(x)")
        assert code == 2
        assert out == "invalid-symbols\t(x)\n"

    def test_limits(self, capsys):
        code, out, _ = run(capsys, "check", "DYCK1", "(())", "--max-steps", "1")
        assert code == 3
        assert out == "limit-exceeded\t(())\n"

    def test_word_file_worst_verdict_wins(self, capsys, tmp_path):
        wf = tmp_path / "words.txt"
        wf.write_text("()\n)(\n(())\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "DYCK1", "--word-file", str(wf))
        assert code == 1
        assert out.splitlines() == ["accepted\t()", "not-accepted\t)(", "accepted\t(())"]

    def test_word_file_invalid_symbol_dominates(self, capsys, tmp_path):
        wf = tmp_path / "words.txt"
        wf.write_text("()\nz\n", encoding="utf-8")
        code, out, _ = run(capsys, "check", "DYCK1", "--word-file", str(wf))
        assert code == 2
        assert out.splitlines()[1] == "invalid-symbols\tz"

    def test_empty_word_allowed(self, capsys):
        # GEN_PAL accepts the empty palindrome
        code, out, _ = run(capsys, "check", "GEN_PAL", "")
        assert code == 0
        assert out == "accepted\t\n"

    def test_neither_word_nor_file(self, capsys):
        code, _, err = run(capsys, "check", "DYCK1")
        assert code == 2
        assert "word or --word-file" in err

    def test_both_word_and_file(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("()\n", encoding="utf-8")
        code, _, err = run(capsys, "check", "DYCK1", "()", "--word-file", str(wf))
        assert code == 2


class TestPump:
    def test_best_effort_pass(self, capsys):
        code, out, _ = run(capsys, "pump", "DYCK1", "(((())))", "--mode", "best-effort")
        assert code == 0
        assert "case2" in out
        assert "verdict: PASS" in out

    def test_not_accepted(self, capsys):
        code, _, err = run(capsys, "pump", "DYCK1", "(()")
        assert code == 1
        assert "pumpkit:" in err

    def test_strict_word_too_short(self, capsys):
        code, _, err = run(capsys, "pump", "DYCK1", "(())", "--mode", "strict")
        assert code == 2
        assert "|word| > p" in err

    def test_bad_n_flag(self, capsys):
        code, _, err = run(capsys, "pump", "DYCK1", "(())", "--mode", "best-effort", "--n", "1,x")
        assert code == 2
        code, _, err = run(capsys, "pump", "DYCK1", "(())", "--mode", "best-effort", "--n=-1")
        assert code == 2

    @pytest.mark.parametrize("n", ["", ","])
    def test_n_without_counts(self, capsys, n):
        # an explicit empty --n is not the default pump counts
        code, out, err = run(capsys, "pump", "DYCK1", "(())", "--mode", "best-effort", "--n", n)
        assert (code, out) == (2, "")
        assert err == "pumpkit: --n needs at least one nonnegative integer\n"

    @pytest.mark.parametrize("n", ["1,,2", "1,2,", ",1"])
    def test_n_with_an_empty_count(self, capsys, n):
        # an empty part is refused, not skipped
        code, out, err = run(capsys, "pump", "DYCK1", "(())", "--mode", "best-effort", "--n", n)
        assert (code, out) == (2, "")
        assert err == "pumpkit: --n needs at least one nonnegative integer\n"

    def test_a_count_past_the_step_cap_is_refused_before_any_pump(self, capsys, monkeypatch):
        # 10**12 pumps of "(" and ")" give a word of 2·10**12 + 2 letters,
        # whose run no search within the step cap can accept: the count is
        # refused from the decomposition's lengths, before verify builds a
        # pumped word.
        def built(*args):
            raise AssertionError("verify was called")

        monkeypatch.setattr(cli, "verify", built)
        code, out, err = run(capsys, "pump", "DYCK1", "(())", "--mode", "best-effort", "--n", "1000000000000")
        assert (code, out) == (2, "")
        assert err == (
            "pumpkit: --n 1000000000000: the pumped word would have 2000000000002 letters"
            " and a run of at least 2000000000003 steps, more than the search's step cap of 1000000\n"
        )

    def test_the_step_cap_counts_the_epsilon_accept_after_the_last_letter(self):
        # No letter move of DYCK1 enters its accept state, so a run of a
        # nonempty word takes one step per letter and one more. At n = 499999
        # "(())" pumps to 1000000 letters, a run of at least 1000001 steps.
        d = extract(BUILTINS["DYCK1"].pda, "(())", mode=ExtractionMode.BEST_EFFORT).decomposition
        assert (len(d.u) + len(d.x) + len(d.z), len(d.v) + len(d.y)) == (2, 2)
        cli._check_pumped_lengths(BUILTINS["DYCK1"].pda, d, (0, 499998))
        with pytest.raises(cli.CliError) as refused:
            cli._check_pumped_lengths(BUILTINS["DYCK1"].pda, d, (0, 499999))
        assert refused.value.code == 2
        assert str(refused.value) == (
            "--n 499999: the pumped word would have 1000000 letters"
            " and a run of at least 1000001 steps, more than the search's step cap of 1000000"
        )
        # REG_AB accepts on a letter move: its bound is the letter count.
        ab = extract(BUILTINS["REG_AB"].pda, "abab", mode=ExtractionMode.BEST_EFFORT).decomposition
        rest, pumped = len(ab.u) + len(ab.x) + len(ab.z), len(ab.v) + len(ab.y)
        n = (1_000_000 - rest) // pumped
        assert rest + n * pumped == 1_000_000
        cli._check_pumped_lengths(BUILTINS["REG_AB"].pda, ab, (n,))

    def test_repeated_counts_keep_their_lines_and_share_one_search(self, capsys, monkeypatch):
        verify = importlib.import_module("pumpkit.verify")  # the package exports the function
        batches = []
        search = verify.accepts_each

        def recorded(pda, words, limits=None):
            batches.append(list(words))
            return search(pda, words, limits)

        monkeypatch.setattr(verify, "accepts_each", recorded)
        code, out, _ = run(capsys, "pump", "DYCK1", "(())", "--mode", "best-effort", "--n", "2,2,2")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("  n=")] == [
            "  n=2: replay=ok search=accepted"
        ] * 3
        # one batch; its three equal words are one distinct word, searched once
        assert batches == [["((()))"] * 3]

    def test_limits_exceeded(self, capsys):
        code, _, err = run(
            capsys, "pump", "DYCK1", "(())", "--mode", "best-effort", "--max-steps", "1"
        )
        assert code == 3

    def test_no_witness(self, capsys, tmp_path):
        f = tmp_path / "single.json"
        f.write_text(single_word_doc(), encoding="utf-8")
        code, _, err = run(capsys, "pump", str(f), "a", "--mode", "best-effort")
        assert code == 4
        assert "config pairs: 0" in err
        assert "full-state pairs: 0" in err

    def test_invalid_word_symbols(self, capsys):
        code, _, _ = run(capsys, "pump", "DYCK1", "(q)", "--mode", "best-effort")
        assert code == 2

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "pump", "DYCK1", "(((())))", "--mode", "best-effort", "--report", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert (payload["u"], payload["v"], payload["x"], payload["y"], payload["z"]) == (
            "(", "(", "(())", ")", ")",
        )
        assert payload["caseTag"] == "case2"
        assert payload["witnesses"]["case2"]["g"] == 2
        assert payload["params"]["p"] == 13122
        assert {v["n"] for v in payload["perN"]} == {0, 1, 2, 3, 4}
        assert all(v["replay"] and v["search"] == "accepted" for v in payload["perN"])
        assert payload["verdict"] == {"pumpingOk": True, "overall": True, "consistent": True}
        assert payload["diagnostics"]["mode"] == "best-effort"

    def test_custom_n_set(self, capsys):
        code, out, _ = run(
            capsys, "pump", "DYCK1", "(((())))", "--mode", "best-effort",
            "--n", "0,7", "--report", "json",
        )
        assert code == 0
        assert [v["n"] for v in json.loads(out)["perN"]] == [0, 7]

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "pump", "DYCK1", "(((())))", "--mode", "best-effort",
            "--report", "json", "-o", str(dest),
        )
        assert code == 0
        assert out == ""
        json.loads(dest.read_text(encoding="utf-8"))

    def test_output_directory_missing(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "report.json"
        code, out, err = run(
            capsys, "pump", "DYCK1", "(((())))", "--mode", "best-effort", "-o", str(dest),
        )
        assert (code, out) == (2, "")
        assert err == f"pumpkit: cannot write {dest}: No such file or directory\n"

    def test_strict_case1_reports_bound_overrun(self, capsys):
        # the tail factorization pumps correctly but |vxy| misses the bound;
        # the report must say so while the pumping verdict stays green
        code, out, _ = run(
            capsys, "pump", "REG_AB", "ab" * 17, "--mode", "strict", "--report", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["caseTag"] == "case1"
        assert payload["checks"]["lengthBound"] == {"ok": False, "limit": 32, "actual": 34}
        assert payload["verdict"]["pumpingOk"] is True
        assert payload["verdict"]["overall"] is False


DATA = Path(cli.__file__).resolve().parent / "data"
GENERATORS = {name: entry.generate for name, entry in BUILTINS.items()}
GENERATORS["ANBN_GENERAL"] = BUILTINS["ANBN"].generate
# Strict words need |w| > p; the other machines' p is beyond any word a
# test can pump, and their strict pumps stop before writing a report.
STRICT_SIZES = {"DYCK1": 6601, "REG_AB": 17}
# Every letter that means something in JSON, a space and a non-ASCII letter.
QUOTED_LETTERS = ('"', "\\", "[", "]", ":", ",", " ", "é", *"profile")


def quoted_doc() -> str:
    """(Σ*) over QUOTED_LETTERS: each letter pushes, an epsilon move pops."""
    transitions = [
        {"from": "q0", "input": letter, "pop": BOTTOM, "push": [BOTTOM, BOTTOM], "to": "q1"}
        for letter in QUOTED_LETTERS
    ]
    transitions.append({"from": "q1", "input": None, "pop": BOTTOM, "push": [], "to": "q0"})
    doc = {
        "format": "pumpkit/1",
        "name": "QUOTED",
        "states": ["q0", "q1"],
        "input_alphabet": sorted(QUOTED_LETTERS),
        "stack_alphabet": [BOTTOM],
        "initial_state": "q0",
        "initial_stack": [BOTTOM],
        "accept_states": ["q0"],
        "transitions": transitions,
    }
    return json.dumps(doc, ensure_ascii=False)


def _report_cases():
    machines = [(name, name) for name in BUILTINS]
    machines += [(f.stem, str(f)) for f in sorted(DATA.glob("*.json"))]
    for name, machine in machines:
        label = machine if name == machine else f"{name}.json"
        yield pytest.param(machine, GENERATORS[name](8), "best-effort", id=f"{label}-best-effort")
        if name in STRICT_SIZES:
            word = GENERATORS[name](STRICT_SIZES[name])
            yield pytest.param(machine, word, "strict", id=f"{label}-strict")


class TestJsonReportBytes:
    """The json report is exactly json.dumps of its payload, although the
    diagnostics profile is rendered apart from the rest."""

    def check(self, capsys, monkeypatch, machine, word, mode):
        payloads = []
        original = cli._report_json

        def recording(result, report):
            payloads.append(original(result, report))
            return payloads[-1]

        monkeypatch.setattr(cli, "_report_json", recording)
        code, out, err = run(capsys, "pump", machine, word, "--mode", mode, "--report", "json")
        assert (code, err) == (0, "")
        (payload,) = payloads
        assert out == json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        return payload

    def test_covers_every_machine(self):
        cases = [case.values for case in _report_cases()]
        files = {f.name for f in DATA.glob("*.json")}
        assert {Path(machine).name for machine, _, _ in cases} == set(BUILTINS) | files
        assert sum(mode == "strict" for _, _, mode in cases) == 4

    @pytest.mark.parametrize("machine, word, mode", _report_cases())
    def test_corpus(self, capsys, monkeypatch, machine, word, mode):
        payload = self.check(capsys, monkeypatch, machine, word, mode)
        assert len(payload["diagnostics"]["profile"]) == payload["diagnostics"]["pathLength"] + 1

    @pytest.mark.parametrize(
        "word, mode",
        [('"profile": [] é\\,', "best-effort"), ('"profile": [] é\\,' * 3, "strict")],
        ids=["best-effort", "strict"],
    )
    def test_json_punctuation_in_the_word(self, capsys, monkeypatch, tmp_path, word, mode):
        machine = tmp_path / "quoted.json"
        machine.write_text(quoted_doc(), encoding="utf-8")
        payload = self.check(capsys, monkeypatch, str(machine), word, mode)
        assert payload["word"] == word and set(word) == set(QUOTED_LETTERS)


@pytest.mark.parametrize(
    "profile, runs, window_end",
    [
        (list(range(1, 42)), ((1, 39, 1),), 40),
        # the found run of (^40 )^40, a climb and a descent, each one run
        # from its second step
        ([*range(1, 42), *range(40, -1, -1)], ((1, 39, 1), (41, 38, 2)), 60),
        ([*range(21), *range(19, -1, -1), *range(1, 21)], ((0, 20, 0), (20, 20, 1), (40, 20, 2)), 60),
        ([1, 2] * 20 + [1], (), 40),
    ],
    ids=["climb", "climb-descent-window-inside", "back-to-back", "bounce"],
)
def test_dumps_report_takes_spans_whole_and_writes_json_dumps_bytes(profile, runs, window_end):
    # A climb only; a found run's climb and descent with the window ending
    # inside the descent; a climb, a descent to 0 and a climb, back to back;
    # and REG_AB's 1,2,1,2 bounce with no spans.
    payload = {"word": '"profile": [] é', "diagnostics": {"profile": profile, "windowEnd": window_end}}
    expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert cli._dumps_report(payload, runs) == expected
    assert cli._dumps_report(payload) == expected
    assert payload["diagnostics"]["profile"] is profile


# sha256 of the whole stdout of strict and best-effort pumps, text and json,
# and of annotated ASCII and SVG charts: a speed-up must leave every byte
# where it was.
REPORT_DIGESTS = [
    pytest.param(
        ("pump", "DYCK1", "(" * 6601 + ")" * 6601, "--mode", "strict", "--report", "json"),
        "8db1b3ec1eea26324e0e5f896fe096a7c631fde4114c0454a50bdd53f3ff310f",
        id="strict-DYCK1-json",
    ),
    pytest.param(
        ("pump", "REG_AB", "ab" * 3300, "--mode", "strict", "--report", "json"),
        "ffc89e1b945cbedbf006866fb1d0b72b06db9e037abbdb6d7f31732bc9624577",
        id="strict-REG_AB-json",
    ),
    pytest.param(
        ("pump", str(DATA / "ANBN_GENERAL.json"), "a" * 400 + "b" * 400, "--mode", "best-effort"),
        "3add3fa2959229abdc026430d367d2499c0f815dd01f1a14a8fbbe2d3e5fca8f",
        id="best-effort-ANBN_GENERAL-text",
    ),
    pytest.param(
        ("profile", "DYCK1", "(" * 800 + ")" * 800, "--annotate", "--render", "ascii"),
        "f5bab4e1b1fa6244dcf38da0e139a625b89000e7f47c0b7536721e45e56cfc27",
        id="profile-DYCK1-ascii",
    ),
    pytest.param(
        ("pump", "GEN_PAL", "01" * 100 + "10" * 100, "--mode", "best-effort", "--report", "json"),
        "4f11d26f7548d401391abe148b2280016c86e1f3e9f88201e39b25eb19377775",
        id="best-effort-GEN_PAL-json",
    ),
    pytest.param(
        ("profile", "ANBN", "a" * 400 + "b" * 400, "--annotate", "--render", "svg"),
        "9385b25f49d50ff6695e67f5c0611940993dcec6768604e55fcf270c7d1ddbd1",
        id="profile-ANBN-svg",
    ),
    # The JSON profile's span shapes: no runs, a window ending 122 steps
    # into the bulk descent, a climb and a descent, and gaps only.
    pytest.param(
        ("pump", "REG_AB", "ab" * 3300, "--mode", "best-effort", "--report", "json"),
        "c7d50ad754a11940af58ae8ca4428f6700369dd7f1a50dab48bbf2d8a0f11711",
        id="best-effort-REG_AB-json",
    ),
    pytest.param(
        ("pump", "DYCK1", "(" * 13000 + ")" * 13000, "--mode", "strict", "--report", "json"),
        "c1460947fea3711f7df5787060b4f5f138d817871c369d505ecc6833fd76af95",
        id="strict-DYCK1-13000-json",
    ),
    pytest.param(
        ("pump", "ANBN", "a" * 1600 + "b" * 1600, "--mode", "best-effort", "--report", "json"),
        "44b7ff2814c373e01c609a4e6fc46f9e32a458ef6890de3a6e30fc0505ad20ae",
        id="best-effort-ANBN-1600-json",
    ),
    pytest.param(
        ("pump", "DYCK1", "(())" * 400, "--mode", "best-effort", "--report", "json"),
        "76f298254713322e6cc3055c10570db04ee58e521d655f3e9884ce8d40818869",
        id="best-effort-DYCK1-nested-json",
    ),
    # Runs of a bounce: REG_AB's strict window ends inside its one run, and
    # DYCK1's () nested under one bracket take case 1 in strict mode.
    pytest.param(
        ("pump", "REG_AB", "ab" * 6600, "--mode", "strict", "--report", "json"),
        "4167b2a2ebd10077f733d1e8bdc11a6ab35ebe2fa3e1ada54152a9efefe5c448",
        id="strict-REG_AB-13200-json",
    ),
    pytest.param(
        ("pump", "DYCK1", "(" + "()" * 6600 + ")", "--mode", "strict", "--report", "json"),
        "1abbbc0e053ca0ffb31eb7e09bdca03a4303ba93673b23b7a2d91f51f86910f4",
        id="strict-DYCK1-bounces-json",
    ),
    pytest.param(
        ("pump", "DYCK1", "(" + "()" * 3000 + ")", "--mode", "best-effort", "--report", "json"),
        "47028e57a3e886a4900bada55922d2fd0aadf05e304324740374fb57798164b7",
        id="best-effort-DYCK1-bounces-json",
    ),
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS)
def test_report_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _mixed_words(language: str) -> list[str]:
    """Generator words and near misses of a corpus language, a repeat, an
    empty line and a letter outside the alphabet at the end and inside."""
    entry = BUILTINS[language]
    words = []
    for m in (1, 2, 5, 12, 40):
        words += [entry.generate(m), entry.generate_near_miss(m)]
    inside = entry.generate(3)
    return [*words[:4], "", *words[4:], words[2], inside + "#", inside[:2] + "#" + inside[2:]]


def _long_palindromes() -> list[str]:
    """GEN_PAL words of the benchmark's shape at three sizes, each with its
    near miss (last letter flipped) and with its middle letter flipped; a
    palindrome with one more letter, whose true midpoint guess ends one
    letter before the end; and runs of zeros, where every position's guess
    lives long."""
    entry = BUILTINS["GEN_PAL"]
    words = []
    for m in (50, 200, 500):
        word = entry.generate(m)
        flipped = "1" if word[m] == "0" else "0"
        words += [word, entry.generate_near_miss(m), word[:m] + flipped + word[m + 1 :]]
    word = entry.generate(200)
    return [*words, word + "0", word + "1", "0" * 400, "0" * 399 + "1"]


# Word lists that are not _mixed_words of a corpus language.
WORD_LISTS = {"GEN_PAL-long": _long_palindromes}

# (machine, language, extra flags, exit code, sha256 of the whole stdout).
# GEN_PAL is also checked as loaded from its file and, on the long words, as
# its normalized file; the step budget of five cuts the longer DYCK1 words
# short.
WORD_FILE_CHECKS = [
    pytest.param(
        "DYCK1", "DYCK1", (), 2, "25f4fe989847ea46d520758fa5adc36b9608caceb08654a0e9cd7b31c80af506", id="DYCK1"
    ),
    pytest.param(
        "REG_AB", "REG_AB", (), 2, "38670528f5d37bb4bc189edbaa8fe7516cc2e9ba95004b4ba3f2f765401ed654", id="REG_AB"
    ),
    pytest.param(
        "ANBN", "ANBN", (), 2, "3f917824abd266e50b822d0663e01284514867ec359bf2b59a8e373c83e0aaad", id="ANBN"
    ),
    pytest.param(
        "GEN_PAL", "GEN_PAL", (), 2, "fa55dba4f13d198ea79e3d978b5661938c01443e4f3eb0c3856e27656f8f653f", id="GEN_PAL"
    ),
    pytest.param(
        str(DATA / "GEN_PAL.json"),
        "GEN_PAL",
        (),
        2,
        "fa55dba4f13d198ea79e3d978b5661938c01443e4f3eb0c3856e27656f8f653f",
        id="GEN_PAL.json",
    ),
    pytest.param(
        "GEN_PAL", "GEN_PAL-long", (), 1, "654295efd3bf88506faa4c85af6c3ae4b1c62fe75f8910f77b8d3a57d98cb3af", id="GEN_PAL-long"
    ),
    pytest.param(
        str(DATA / "GEN_PAL.json"), "GEN_PAL-long", (), 1, "654295efd3bf88506faa4c85af6c3ae4b1c62fe75f8910f77b8d3a57d98cb3af", id="GEN_PAL.json-long"
    ),
    pytest.param(
        "normalize(GEN_PAL.json)", "GEN_PAL-long", (), 1, "654295efd3bf88506faa4c85af6c3ae4b1c62fe75f8910f77b8d3a57d98cb3af", id="normalized-GEN_PAL-long"
    ),
    pytest.param(
        "DYCK1",
        "DYCK1",
        ("--max-steps", "5"),
        2,
        "d15d67e54572ffe1e29fb1fc46aa07dec4f1dd085e401d921c32276e65df5145",
        id="DYCK1-max-steps-5",
    ),
]


class TestCheckWordFile:
    @pytest.mark.parametrize("machine, language, flags, code, digest", WORD_FILE_CHECKS)
    def test_matches_one_check_per_word(self, capsys, tmp_path, machine, language, flags, code, digest):
        words = WORD_LISTS[language]() if language in WORD_LISTS else _mixed_words(language)
        if machine.startswith("normalize("):
            normalized = tmp_path / "normalized.json"
            assert run(capsys, "normalize", str(DATA / machine[len("normalize(") : -1]), str(normalized))[0] == 0
            machine = str(normalized)
        wf = tmp_path / "words.txt"
        wf.write_text("".join(w + "\n" for w in words), encoding="utf-8")
        got_code, out, err = run(capsys, "check", machine, "--word-file", str(wf), *flags)
        singles = [run(capsys, "check", machine, w, *flags) for w in words]
        rank = [0, 1, 3, 2]  # exit codes from best to worst verdict
        assert err == "" and all(e == "" for _, _, e in singles)
        assert out == "".join(o for _, o, _ in singles)
        assert got_code == max((c for c, _, _ in singles), key=rank.index) == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_builds_the_membership_tables_once(self, capsys, tmp_path, monkeypatch):
        # Every build is counted, also one the search would make for itself.
        search_module = importlib.import_module("pumpkit.search")
        original = search_module.membership_tables
        built = []

        def counting(pda):
            built.append(pda)
            return original(pda)

        monkeypatch.setattr(search_module, "membership_tables", counting)
        monkeypatch.setattr(cli, "membership_tables", counting)
        entry = BUILTINS["DYCK1"]
        words = [w for m in range(1, 26) for w in (entry.generate(m), entry.generate_near_miss(m))]
        wf = tmp_path / "words.txt"
        wf.write_text("".join(w + "\n" for w in words), encoding="utf-8")
        code, out, _ = run(capsys, "check", "DYCK1", "--word-file", str(wf))
        assert (code, len(out.splitlines()), len(built)) == (1, 50, 1)


class TestProfile:
    def test_plain_ascii(self, capsys):
        code, out, _ = run(capsys, "profile", "DYCK1", "(())")
        assert code == 0
        assert out == (
            "stack profile: 6 positions, height 0..3\n"
            "3 |  █   \n"
            "2 | ███  \n"
            "1 |█████ \n"
            "0 +------\n"
        )

    def test_annotated_ascii(self, capsys):
        code, out, _ = run(capsys, "profile", "DYCK1", "(((())))", "--annotate")
        assert code == 0
        assert out.splitlines()[-3:] == ["   i   j   k", "    gh   hg", "   uvxxxxyzzz"]

    def test_svg(self, capsys):
        import xml.etree.ElementTree as ET

        code, out, _ = run(capsys, "profile", "DYCK1", "(())", "--render", "svg")
        assert code == 0
        ET.fromstring(out)

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "chart.txt"
        code, out, _ = run(capsys, "profile", "DYCK1", "(())", "-o", str(dest))
        assert code == 0
        assert out == ""
        assert "stack profile" in dest.read_text(encoding="utf-8")

    def test_rejected_word(self, capsys):
        code, _, err = run(capsys, "profile", "DYCK1", ")(")
        assert code == 1

    def test_limits(self, capsys):
        code, _, _ = run(capsys, "profile", "DYCK1", "(())", "--max-steps", "1")
        assert code == 3

    def test_annotate_strict_short_word(self, capsys):
        code, _, err = run(capsys, "profile", "DYCK1", "(())", "--annotate", "--mode", "strict")
        assert code == 2
        assert "|word| > p" in err

    def test_no_witness_keeps_the_short_message(self, capsys):
        code, _, err = run(capsys, "profile", "ANBN", "ab", "--annotate")
        assert code == 4
        assert err == "pumpkit: no usable repeated configuration or full state in the run\n"
        code, _, err = run(capsys, "pump", "ANBN", "ab", "--mode", "best-effort")
        assert code == 4
        assert err == (
            "pumpkit: no usable repeated configuration or full state in the run"
            " (config pairs: 0, full-state pairs: 0, candidates tried: 0)\n"
        )


class TestParserReuse:
    """main builds its parser once per process; each call parses afresh."""

    def test_parsers_are_built_during_the_first_call_only(self, capsys, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._parser.cache_clear()
        per_call = []
        for argv in (("params", "DYCK1"), ("check", "DYCK1", "(())"), ("profile", "DYCK1", "(())")):
            built.clear()
            assert run(capsys, *argv)[0] == 0
            per_call.append(len(built))
        assert per_call[0] > 0
        assert per_call[1:] == [0, 0]

    def test_n_does_not_carry_over(self, capsys):
        argv = ("pump", "DYCK1", "(((())))", "--mode", "best-effort", "--report", "json")
        code, out, _ = run(capsys, *argv, "--n", "1")
        assert [v["n"] for v in json.loads(out)["perN"]] == [1]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [v["n"] for v in json.loads(out)["perN"]] == [0, 1, 2, 3, 4]

    def test_budget_does_not_carry_over(self, capsys):
        assert run(capsys, "check", "DYCK1", "(())", "--max-steps", "0") == (3, "limit-exceeded\t(())\n", "")
        assert run(capsys, "check", "DYCK1", "(())") == (0, "accepted\t(())\n", "")

    def test_annotate_does_not_carry_over(self, capsys):
        plain = run(capsys, "profile", "DYCK1", "(((())))")
        annotated = run(capsys, "profile", "DYCK1", "(((())))", "--annotate")
        assert annotated[1].splitlines()[-3:] == ["   i   j   k", "    gh   hg", "   uvxxxxyzzz"]
        again = run(capsys, "profile", "DYCK1", "(((())))")
        assert again == plain
        assert "uvxxxxyzzz" not in again[1]

    def test_usage_error_between_good_calls(self, capsys):
        argv = ("pump", "REG_AB", "abab", "--mode", "best-effort", "--report", "json", "--n", "0,3")
        first = run(capsys, *argv)
        code, out, err = run(capsys, "pump", "REG_AB", "--n", "5", "--bogus")
        assert (code, out) == (2, "")
        assert err.startswith("usage: pumpkit pump")
        assert run(capsys, *argv) == first
        assert first[0] == 0


BUDGET_COMMANDS = (
    ("check", "DYCK1", "(())"),
    ("pump", "DYCK1", "(())", "--mode", "best-effort"),
    ("profile", "DYCK1", "(())", "--annotate"),
)


class TestBudgets:
    @pytest.mark.parametrize("command", BUDGET_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("flag", ["--max-steps", "--max-stack-height"])
    def test_negative_budget_is_rejected(self, capsys, command, flag):
        code, out, err = run(capsys, *command, flag, "-1")
        assert (code, out) == (2, "")
        assert err == f"pumpkit: {flag} must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("command", BUDGET_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("flag", ["--max-steps", "--max-stack-height"])
    def test_zero_budget_is_a_budget(self, capsys, command, flag):
        # nothing fits in it, so the search stops at its limit
        assert run(capsys, *command, flag, "0")[0] == 3


class TestOutputCheckedFirst:
    @pytest.mark.parametrize(
        "argv",
        [
            ("pump", "DYCK1", "(((())))", "--mode", "best-effort"),
            ("profile", "DYCK1", "(((())))", "--annotate"),
            ("profile", "DYCK1", "(((())))"),
        ],
        ids=["pump", "profile-annotate", "profile"],
    )
    def test_missing_directory_fails_before_the_search(self, capsys, tmp_path, monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("searched before checking the output path")

        monkeypatch.setattr("pumpkit.cli.extract", never)
        monkeypatch.setattr("pumpkit.cli.minimal_accepting_path", never)
        dest = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "-o", str(dest))
        assert (code, out) == (2, "")
        assert err == f"pumpkit: cannot write {dest}: No such file or directory\n"

    def test_failed_run_leaves_a_new_target_uncreated(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        assert run(capsys, "pump", "DYCK1", "(()", "-o", str(dest))[0] == 1
        assert run(capsys, "profile", "DYCK1", "(()", "-o", str(dest))[0] == 1
        assert not dest.exists()

    def test_failed_run_leaves_an_existing_target_untouched(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        dest.write_text("earlier report\n", encoding="utf-8")
        assert run(capsys, "pump", "DYCK1", "(()", "-o", str(dest))[0] == 1
        assert run(capsys, "pump", "DYCK1", "(())", "--max-steps", "1", "-o", str(dest))[0] == 3
        assert run(capsys, "profile", "DYCK1", ")(", "--annotate", "-o", str(dest))[0] == 1
        assert dest.read_text(encoding="utf-8") == "earlier report\n"

    def test_directory_target(self, capsys, tmp_path):
        code, out, err = run(capsys, "pump", "DYCK1", "(((())))", "--mode", "best-effort", "-o", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"pumpkit: cannot write {tmp_path}: Is a directory\n"


def dyck1_with_unused_states(tmp_path, extra: int) -> str:
    """DYCK1 plus `extra` unreachable states: the same language, but p grows
    as (extra + 2) * 3**(2 * (extra + 2)**2)."""
    dyck1 = BUILTINS["DYCK1"].pda
    big = replace(dyck1, states=dyck1.states | {f"u{i}" for i in range(extra)})
    path = tmp_path / f"dyck1_plus{extra}.json"
    path.write_text(dumps(big), encoding="utf-8")
    return str(path)


class TestUnprintablePumpingLength:
    """p past 4300 decimal digits cannot be printed. With 400 extra states p
    has about 154k digits and passes the 1M-bit guard of pumping_params;
    with 700 it fails that guard too. Every command that shows p exits 3
    with the overflow reason; the others still work."""

    @pytest.fixture(params=[400, 700])
    def machine(self, request, tmp_path):
        return dyck1_with_unused_states(tmp_path, request.param)

    @pytest.mark.parametrize(
        "argv",
        [
            ("params",),
            ("pump", "(())"),
            ("pump", "(())", "--report", "json"),
            ("pump", "(())", "--mode", "best-effort"),
            ("pump", "(())", "--mode", "best-effort", "--report", "json"),
            ("profile", "(())", "--annotate", "--mode", "strict"),
        ],
        ids=" ".join,
    )
    def test_commands_that_show_p_exit_3(self, capsys, machine, argv):
        code, out, err = run(capsys, argv[0], machine, *argv[1:])
        assert code == 3
        assert out == ""
        assert err.startswith("pumpkit: pumping length 3^")
        assert "scaled by the state count exceeds" in err

    def test_check_and_plain_profile_still_work(self, capsys, machine):
        code, out, _ = run(capsys, "check", machine, "(())")
        assert (code, out) == (0, "accepted\t(())\n")
        code, out, _ = run(capsys, "profile", machine, "(())")
        assert code == 0
        assert out.startswith("stack profile: 6 positions")

    def test_best_effort_chart_needs_p_under_the_guard(self, capsys, tmp_path):
        under, over = (dyck1_with_unused_states(tmp_path, extra) for extra in (400, 700))
        code, out, _ = run(capsys, "profile", under, "(())", "--annotate")
        assert code == 0
        assert out.startswith("stack profile: 6 positions")
        code, out, err = run(capsys, "profile", over, "(())", "--annotate")
        assert (code, out) == (3, "")
        assert "exceeds 1000000 bits" in err



def bottom_loss_file(tmp_path) -> str:
    """q0 -a,⊥/(⊥)-> q0 and q0 -b,⊥/(⊥,⊥)-> q0, q0 accepting: the first
    transition pops ⊥ outside star shape, so normalize renames the machine's
    ⊥ and puts a new one under it; the machine accepts every word."""
    pda = GeneralPda(
        states=["q0"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["q0"],
        transitions=[
            GeneralTransition("q0", "a", BOTTOM, (BOTTOM,), "q0"),
            GeneralTransition("q0", "b", BOTTOM, (BOTTOM, BOTTOM), "q0"),
        ],
    )
    path = tmp_path / "bottom_loss.json"
    path.write_text(dumps(pda), encoding="utf-8")
    return str(path)


class TestBottomLoss:
    """A machine whose transitions pop ⊥ outside star shape: pump and
    profile search its normalized machine and agree with check, which
    searches it as loaded, and no command prints a warning."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("pump", "aaaa", "--mode", "best-effort"),
            ("pump", "ab" * 20, "--mode", "best-effort", "--report", "json"),
            ("profile", "ab"),
            ("profile", "ab", "--annotate"),
        ],
        ids=" ".join,
    )
    def test_searches_of_the_normalized_machine_agree_with_check(self, capsys, tmp_path, argv):
        machine = bottom_loss_file(tmp_path)
        assert run(capsys, "check", machine, argv[1]) == (0, f"accepted\t{argv[1]}\n", "")
        dest = tmp_path / "out.txt"
        code, out, err = run(capsys, argv[0], machine, *argv[1:], "-o", str(dest))
        assert (code, out, err) == (0, "", "")
        text = dest.read_text(encoding="utf-8")
        if argv[0] == "profile":
            assert text.startswith("stack profile: 4 positions")
        elif "json" in argv:
            assert json.loads(text)["verdict"]["overall"] is True
        else:
            assert "verdict: PASS" in text

    def test_pump_agrees_with_check_on_a_finite_language(self, capsys, tmp_path):
        # q0 -a,⊥/(Y)-> q1 -b,Y/()-> qf accepts "ab" alone; before the new
        # bottom its normalized machine accepted nothing
        pda = GeneralPda(
            states=["q0", "q1", "qf"],
            input_alphabet=["a", "b"],
            stack_alphabet=[BOTTOM, "Y"],
            initial_state="q0",
            initial_stack=[BOTTOM],
            accept_states=["qf"],
            transitions=[
                GeneralTransition("q0", "a", BOTTOM, ("Y",), "q1"),
                GeneralTransition("q1", "b", "Y", (), "qf"),
            ],
        )
        path = tmp_path / "ab.json"
        path.write_text(dumps(pda), encoding="utf-8")
        machine = str(path)
        assert run(capsys, "check", machine, "ab") == (0, "accepted\tab\n", "")
        # "ab" is accepted, and a finite language has no pump of it
        assert run(capsys, "pump", machine, "ab", "--mode", "best-effort")[0] == 4
        assert run(capsys, "check", machine, "abb")[:2] == (1, "not-accepted\tabb\n")
        code, out, err = run(capsys, "pump", machine, "abb", "--mode", "best-effort")
        assert (code, out) == (1, "")
        assert "not accepted" in err

    def test_params_and_normalize_count_the_new_bottom(self, capsys, tmp_path):
        machine = bottom_loss_file(tmp_path)
        code, out, err = run(capsys, "params", machine)
        assert (code, out, err) == (
            0,
            "p'=8 p=13122\nstates=2 stack_symbols=2\nnormalization: expanded the machine\n",
            "",
        )
        code, out, err = run(capsys, "normalize", machine, "-")
        assert (code, err) == (0, "")
        assert is_star_form(loads(out).pda)

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "(())"),
            ("params",),
            ("normalize", "-"),
            ("pump", "(((())))", "--mode", "best-effort"),
            ("profile", "(())"),
        ],
        ids=" ".join,
    )
    def test_unflagged_files_print_no_warning(self, capsys, dyck1_file, argv):
        code, _, err = run(capsys, argv[0], dyck1_file, *argv[1:])
        assert (code, err) == (0, "")

def test_cli_import_leaves_numpy_unloaded():
    """The runtime is stdlib-only; numpy serves the brute-force test oracle.
    SVG escaping is done by hand, so xml.sax and what it pulls in stay out."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, pumpkit.cli; "
        "print([m for m in ('numpy', 'xml.sax', 'urllib.request') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
