import importlib.resources
import json

import pytest

from pumpkit import (
    BUILTINS,
    FORMAT_VERSION,
    FormatError,
    PdaDocument,
    dumps,
    load_document,
    load_path,
    loads,
    normalize,
    to_document,
    validate,
)


def doc_dict(name="DYCK1"):
    entry = BUILTINS[name]
    return to_document(entry.pda, entry.name, entry.description)


class TestRoundTrip:
    def test_dump_load_identity(self):
        for name in BUILTINS:
            text = dumps(PdaDocument(BUILTINS[name].pda, name))
            doc = loads(text)
            assert doc.name == name
            assert dumps(doc) == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dumps(PdaDocument(BUILTINS["GEN_PAL"].pda, "GEN_PAL")), encoding="utf-8")
        doc = load_path(path)
        assert doc.pda.initial_stack == BUILTINS["GEN_PAL"].pda.initial_stack
        assert len(doc.pda.transitions) == len(BUILTINS["GEN_PAL"].pda.transitions)
        assert validate(doc.pda).ok

    def test_canonical_bytes_are_stable(self):
        a = dumps(doc_dict())
        b = dumps(doc_dict())
        assert a == b
        assert a.endswith("\n")

    def test_normalized_machine_serializes(self, anbn_general):
        npda = normalize(anbn_general)
        text = dumps(npda)
        doc = loads(text)
        # round-trips as a general machine in the two-symbol push shape
        from pumpkit import is_star_form

        assert is_star_form(doc.pda)


class TestFormatErrors:
    def test_bad_json(self):
        with pytest.raises(FormatError):
            loads("{not json")

    def test_wrong_top_level(self):
        with pytest.raises(FormatError):
            load_document(["not", "an", "object"])

    def test_missing_format(self):
        d = doc_dict()
        del d["format"]
        with pytest.raises(FormatError):
            load_document(d)

    def test_wrong_version(self):
        d = doc_dict()
        d["format"] = "pumpkit/999"
        with pytest.raises(FormatError):
            load_document(d)

    def test_missing_required_key(self):
        for key in ("states", "input_alphabet", "stack_alphabet", "initial_state",
                    "initial_stack", "accept_states", "transitions"):
            d = doc_dict()
            del d[key]
            with pytest.raises(FormatError):
                load_document(d)

    def test_bad_field_types(self):
        d = doc_dict()
        d["states"] = "q0"
        with pytest.raises(FormatError):
            load_document(d)
        d = doc_dict()
        d["states"] = ["q0", 3]
        with pytest.raises(FormatError):
            load_document(d)
        d = doc_dict()
        d["name"] = 7
        with pytest.raises(FormatError):
            load_document(d)

    def test_bad_transitions(self):
        d = doc_dict()
        d["transitions"] = [{}]
        with pytest.raises(FormatError):
            load_document(d)
        d = doc_dict()
        d["transitions"] = [
            {"from": "q0", "input": 3, "pop": "X", "push": [], "to": "q0"}
        ]
        with pytest.raises(FormatError):
            load_document(d)
        d = doc_dict()
        d["transitions"] = [
            {"from": "q0", "pop": "X", "push": [], "to": "q0"}
        ]
        with pytest.raises(FormatError):
            load_document(d)

    def test_epsilon_is_null(self):
        d = doc_dict()
        eps = [t for t in d["transitions"] if t["input"] is None]
        assert eps, "corpus machine should carry an epsilon transition"
        doc = load_document(d)
        assert any(t.letter is None for t in doc.pda.transitions)


class TestShippedData:
    def test_data_files_match_builtins(self):
        data_dir = importlib.resources.files("pumpkit") / "data"
        for name, entry in BUILTINS.items():
            text = (data_dir / f"{name}.json").read_text(encoding="utf-8")
            doc = loads(text)
            assert doc.name == name
            assert dumps(PdaDocument(entry.pda, entry.name, entry.description)) == text

    def test_general_variant_file(self, anbn_general):
        data_dir = importlib.resources.files("pumpkit") / "data"
        text = (data_dir / "ANBN_GENERAL.json").read_text(encoding="utf-8")
        doc = loads(text)
        assert doc.pda == anbn_general
        assert dumps(doc) == text

    def test_format_field_present(self):
        data_dir = importlib.resources.files("pumpkit") / "data"
        for name in BUILTINS:
            raw = json.loads((data_dir / f"{name}.json").read_text(encoding="utf-8"))
            assert raw["format"] == FORMAT_VERSION
