import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pumpkit
from pumpkit import BUILTINS, ExtractionMode, LevelTriple, NormalizedTransition, extract, normalize
from pumpkit.record import replace

# Every record class of the package, found in its modules as the classes
# other than exceptions that refuse assignment; GeneralPda and NormalizedPda
# are subclasses of one record.
RECORDS = sorted(
    (
        value
        for info in pkgutil.iter_modules(pumpkit.__path__)
        for module in [importlib.import_module(f"pumpkit.{info.name}")]
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and not issubclass(value, BaseException)
        and value.__setattr__ is not object.__setattr__
    ),
    key=lambda cls: cls.__qualname__,
)

# Fields set in __init__ and left out of ==.
NOT_COMPARED = {("ExtractionResult", "checkpoints"), ("RunPath", "runs")}

EXTRACTION_RESULT_REPR = (
    "ExtractionResult(decomposition=Decomposition(u='(', v='(', x='', y=')', z=')', cuts=(1, 2, 2, 3),"
    " case='case2', witness=Case2Witness(triple=LevelTriple(i=0, j=2, k=4, n=2), g=2, h=3),"
    " params=PumpingParams(p_prime=8, p=13122, state_count=2, stack_symbol_count=2)),"
    " diagnostics=Diagnostics(mode='best-effort', path_length=5, profile=(1, 2, 3, 2, 1, 0), level=2,"
    " level_witness=LevelTriple(i=0, j=2, k=4, n=2), window_end=5, whole_path_level=2, p_prime=8,"
    " case='case2', candidates_tried=1, config_pairs_available=0, full_state_pairs_available=1,"
    " fallbacks=()), path=RunPath(word='(())', steps=("
    "NormalizedTransition(source='q0', letter='(', pop='⊥', extra='X', target='q0'),"
    " NormalizedTransition(source='q0', letter='(', pop='X', extra='X', target='q0'),"
    " NormalizedTransition(source='q0', letter=')', pop='X', extra=None, target='q0'),"
    " NormalizedTransition(source='q0', letter=')', pop='X', extra=None, target='q0'),"
    " NormalizedTransition(source='q0', letter=None, pop='⊥', extra=None, target='qf')),"
    " profile=(1, 2, 3, 2, 1, 0), initial_state='q0',"
    " initial_stack=('⊥',)))"
)


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    """Each command pays for importing the package; dataclasses and the
    inspect module it pulls in would make that import about three times
    as slow."""
    src = Path(pumpkit.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import pumpkit.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_every_module_with_records_is_searched():
    assert len(RECORDS) >= 28
    assert {cls.__name__ for cls in RECORDS} >= {"GeneralPda", "NormalizedPda", "_Checkpoints", "ExtractionResult"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_contract(cls):
    names = list(inspect.signature(cls).parameters)
    fields = {name: (name, 0) for name in names}
    first, again = cls(**fields), cls(**fields)

    class Twin(cls):
        pass

    # equal fields: equal within a class, unequal across two
    assert first == again and not first != again
    assert first != Twin(**fields) and Twin(**fields) != first
    assert first.__eq__(object()) is NotImplemented
    # hash agrees with equality
    assert hash(first) == hash(again)
    for name in names:
        other = cls(**{**fields, name: (name, 1)})
        assert (other == first) == ((cls.__name__, name) in NOT_COMPARED), name
        if other == first:
            assert hash(other) == hash(first)
        assert replace(first, **{name: (name, 1)}) == other
    # setting or deleting a field raises and leaves it as it was
    for name in names:
        with pytest.raises(AttributeError):
            setattr(first, name, (name, 1))
        with pytest.raises(AttributeError):
            delattr(first, name)
        assert getattr(first, name) == getattr(again, name)
    with pytest.raises(AttributeError):
        first.unknown = 1


def test_repr_goldens():
    assert repr(LevelTriple(0, 2, 4, 2)) == "LevelTriple(i=0, j=2, k=4, n=2)"
    t = NormalizedTransition("q", "(", "⊥", "X", "q")
    assert t.push == ("⊥", "X")
    assert repr(t) == "NormalizedTransition(source='q', letter='(', pop='⊥', extra='X', target='q')"
    res = extract(normalize(BUILTINS["DYCK1"].pda), "(())", ExtractionMode.BEST_EFFORT)
    assert res.checkpoints is not None
    assert repr(res) == EXTRACTION_RESULT_REPR
    assert replace(res, checkpoints=None) == res
