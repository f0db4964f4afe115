import importlib.resources

import pytest

from pumpkit import BOTTOM, BUILTINS, GeneralTransition, PdaDocument, RunPath, dumps, load_path


@pytest.fixture
def dyck1():
    return BUILTINS["DYCK1"].pda


@pytest.fixture
def reg_ab():
    return BUILTINS["REG_AB"].pda


@pytest.fixture
def anbn():
    return BUILTINS["ANBN"].pda


@pytest.fixture
def gen_pal():
    return BUILTINS["GEN_PAL"].pda


@pytest.fixture
def anbn_general():
    """ANBN's language as a general-form machine, read from the shipped file
    the way the CLI reads any machine file."""
    return load_path(importlib.resources.files("pumpkit") / "data" / "ANBN_GENERAL.json").pda


@pytest.fixture
def dyck1_file(tmp_path):
    path = tmp_path / "dyck1.json"
    entry = BUILTINS["DYCK1"]
    path.write_text(dumps(PdaDocument(entry.pda, entry.name)), encoding="utf-8")
    return str(path)


@pytest.fixture
def mismatched_tops_path():
    """A hand-built non-unit-push run where the symbol at height 2 differs
    between the last push (X) and the first pop back (Y)."""
    steps = (
        GeneralTransition("q", "a", BOTTOM, (BOTTOM, "X"), "q"),
        GeneralTransition("q", "a", "X", ("Y", "Z"), "q"),
        GeneralTransition("q", "a", "Z", (), "q"),
        GeneralTransition("q", "a", "Y", (), "q"),
    )
    return RunPath(
        word="aaaa",
        steps=steps,
        profile=(1, 2, 3, 2, 1),
        initial_state="q",
        initial_stack=(BOTTOM,),
    )
