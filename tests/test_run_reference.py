"""The move-table searches in run.py against the loops they replaced.

reference_accepts and reference_minimal_path are the earlier membership and
minimal-run searches, kept here verbatim in behaviour: they scan every
transition of the current state and intern stack cells through a small
pool. The searches under test must give the same verdict, including the
LimitExceeded flags, and the same minimal run on every corpus machine, in
general and normalized form, and on hypothesis-generated machines.

reference_default_limits is the earlier default_limits, which sized p under
the 1M-bit guard and fell back to the word-length bound past it: the
current one must agree with it on the corpus and stay monotone in p.
"""

from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpkit import (
    BOTTOM,
    BUILTINS,
    Accepted,
    GeneralPda,
    GeneralTransition,
    LimitExceeded,
    NormalizedPda,
    NormalizedTransition,
    NotAccepted,
    PumpingLengthOverflowError,
    RunPath,
    SearchLimits,
    accepts,
    accepts_each,
    default_limits,
    load_path,
    minimal_accepting_path,
    normalize,
    pumping_params,
)
from pumpkit.run import STEP_CAP

DATA = Path(__file__).resolve().parents[1] / "src" / "pumpkit" / "data"
LIMIT_GRID = (None, SearchLimits(2, 100), SearchLimits(5, 5), SearchLimits(40, 3))


class _Cell:
    __slots__ = ("sym", "below", "size")

    def __init__(self, sym, below, size):
        self.sym = sym
        self.below = below
        self.size = size


class _Pool:
    def __init__(self):
        self._table = {}

    def push(self, below, sym):
        key = (sym, id(below))
        node = self._table.get(key)
        if node is None:
            node = _Cell(sym, below, 1 if below is None else below.size + 1)
            self._table[key] = node
        return node

    def build(self, symbols):
        node = None
        for sym in symbols:
            node = self.push(node, sym)
        return node


def _by_source(pda):
    adj = {}
    for t in pda.transitions:
        adj.setdefault(t.source, []).append(t)
    return adj


def reference_accepts(pda, word, limits=None):
    if limits is None:
        limits = default_limits(pda, word)
    pool = _Pool()
    adj = _by_source(pda)
    n = len(word)
    root = pool.build(pda.initial_stack)
    visited = {(pda.initial_state, 0, root)}
    queue = deque([(pda.initial_state, 0, root, 0)])
    cut_steps = cut_height = False
    while queue:
        state, pos, node, depth = queue.popleft()
        if state in pda.accept_states and pos == n:
            return Accepted()
        if node is None:
            continue
        for t in adj.get(state, ()):
            if t.pop != node.sym:
                continue
            npos = pos
            if t.letter is not None:
                if pos >= n or word[pos] != t.letter:
                    continue
                npos = pos + 1
            child = node.below
            for sym in t.push:
                child = pool.push(child, sym)
            key = (t.target, npos, child)
            if key in visited:
                continue
            if depth + 1 > limits.max_steps:
                cut_steps = True
                continue
            if child is not None and child.size > limits.max_stack_height:
                cut_height = True
                continue
            visited.add(key)
            queue.append((t.target, npos, child, depth + 1))
    if cut_steps or cut_height:
        return LimitExceeded(by_steps=cut_steps, by_height=cut_height)
    return NotAccepted()


def reference_minimal_path(pda, word, limits=None):
    """(steps, profile) of the minimal run, or the verdict when there is none."""
    if limits is None:
        limits = default_limits(pda, word)
    pool = _Pool()
    adj = _by_source(pda)
    n = len(word)
    start = (pda.initial_state, 0, pool.build(pda.initial_stack), 0, None, None)
    visited = {start[:3]}
    queue = deque([start])
    cut_steps = cut_height = False
    while queue:
        entry = queue.popleft()
        state, pos, node, depth, _, _ = entry
        if state in pda.accept_states and pos == n:
            steps, profile = [], []
            while entry is not None:
                profile.append(0 if entry[2] is None else entry[2].size)
                if entry[5] is not None:
                    steps.append(entry[5])
                entry = entry[4]
            return tuple(reversed(steps)), tuple(reversed(profile))
        if node is None:
            continue
        for t in adj.get(state, ()):
            if t.pop != node.sym:
                continue
            npos = pos
            if t.letter is not None:
                if pos >= n or word[pos] != t.letter:
                    continue
                npos = pos + 1
            child = node.below if t.extra is None else pool.push(node, t.extra)
            key = (t.target, npos, child)
            if key in visited:
                continue
            if depth + 1 > limits.max_steps:
                cut_steps = True
                continue
            if child is not None and child.size > limits.max_stack_height:
                cut_height = True
                continue
            visited.add(key)
            queue.append((t.target, npos, child, depth + 1, entry, t))
    if cut_steps or cut_height:
        return LimitExceeded(by_steps=cut_steps, by_height=cut_height)
    return NotAccepted()


def _minimal_path_summary(pda, word, limits):
    out = minimal_accepting_path(pda, word, limits)
    if isinstance(out, RunPath):
        return out.steps, out.profile
    return out


def _corpus_machines():
    """(label, machine, language entry): builtins and data files as they
    come, plus the normalized form of every general one."""
    found = [(name, entry.pda, entry) for name, entry in BUILTINS.items()]
    for path in sorted(DATA.glob("*.json")):
        language = "ANBN" if path.stem == "ANBN_GENERAL" else path.stem
        found.append((path.name, load_path(path).pda, BUILTINS[language]))
    found += [
        (f"normalize({label})", normalize(pda), entry)
        for label, pda, entry in list(found)
        if isinstance(pda, GeneralPda)
    ]
    return found


def _words(entry, top=40):
    """In-language words and near misses at m = 0..top, where defined."""
    words = []
    for m in range(top + 1):
        for make in (entry.generate, entry.generate_near_miss):
            try:
                words.append(make(m))
            except ValueError:
                pass  # no word of this kind at this m
    return words


CORPUS = _corpus_machines()


def test_corpus_covers_general_and_normalized_forms():
    kinds = {type(pda) for _, pda, _ in CORPUS}
    assert kinds == {GeneralPda, NormalizedPda}
    assert len(CORPUS) == 4 + 5 + 6


@pytest.mark.parametrize("label, pda, entry", CORPUS, ids=[label for label, _, _ in CORPUS])
def test_accepts_matches_reference_on_corpus(label, pda, entry):
    verdicts = set()
    words = _words(entry)
    for limits in LIMIT_GRID:
        expected = [reference_accepts(pda, word, limits) for word in words]
        for word, want in zip(words, expected):
            got = accepts(pda, word, limits)
            assert got == want, (label, word, limits)
            verdicts.add(got)
        # the whole word list in one batch, each word under the same limits
        # (None: each under its own default limits)
        batch_limits = None if limits is None else [limits] * len(words)
        assert list(accepts_each(pda, words, batch_limits)) == expected, (label, limits)
    # every verdict kind actually occurs
    assert {Accepted(), NotAccepted()} <= verdicts
    assert any(isinstance(v, LimitExceeded) for v in verdicts)


def test_limit_grid_cuts_by_steps_and_by_height():
    dyck1 = BUILTINS["DYCK1"]
    verdicts = {
        accepts(dyck1.pda, word, limits) for word in _words(dyck1) for limits in LIMIT_GRID
    }
    assert LimitExceeded(by_steps=True, by_height=False) in verdicts
    assert LimitExceeded(by_steps=False, by_height=True) in verdicts


NORMALIZED = [c for c in CORPUS if isinstance(c[1], NormalizedPda)]


@pytest.mark.parametrize("label, pda, entry", NORMALIZED, ids=[label for label, _, _ in NORMALIZED])
def test_minimal_path_matches_reference_on_corpus(label, pda, entry):
    for word in _words(entry):
        for limits in LIMIT_GRID:
            expected = reference_minimal_path(pda, word, limits)
            assert _minimal_path_summary(pda, word, limits) == expected, (label, word, limits)


@st.composite
def machines(draw):
    """Small general machines: pushes of length 0-3, some starting with the
    popped symbol, epsilon moves, several initial symbols."""
    states = [f"q{i}" for i in range(draw(st.integers(1, 2)))]
    symbols = [BOTTOM] + [f"S{i}" for i in range(draw(st.integers(0, 2)))]
    transitions = [
        GeneralTransition(
            source=draw(st.sampled_from(states)),
            letter=draw(st.one_of(st.none(), st.sampled_from(["a", "b"]))),
            pop=draw(st.sampled_from(symbols)),
            push=tuple(draw(st.lists(st.sampled_from(symbols), max_size=3))),
            target=draw(st.sampled_from(states)),
        )
        for _ in range(draw(st.integers(0, 10)))
    ]
    return GeneralPda(
        states=states,
        input_alphabet=["a", "b"],
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=[BOTTOM] + draw(st.lists(st.sampled_from(symbols), max_size=2)),
        accept_states=draw(st.sets(st.sampled_from(states), max_size=len(states))),
        transitions=transitions,
    )


# Explicit limits only: on epsilon-push loops the defaults (10 * (|word| + 1)
# for a general machine, up to a million steps for a normalized one) let the
# search fill every stack up to that height. The corpus tests cover them.
small_limits = st.builds(SearchLimits, st.integers(0, 12), st.integers(0, 6))


@given(machines(), st.text("ab", max_size=6), small_limits)
@settings(max_examples=200, deadline=None)
def test_accepts_matches_reference_on_generated_machines(pda, word, limits):
    assert accepts(pda, word, limits) == reference_accepts(pda, word, limits)
    npda = normalize(pda)
    assert accepts(npda, word, limits) == reference_accepts(npda, word, limits)


@given(machines(), st.text("ab", max_size=6), small_limits)
@settings(max_examples=150, deadline=None)
def test_minimal_path_matches_reference_on_generated_machines(pda, word, limits):
    npda = normalize(pda)
    assert _minimal_path_summary(npda, word, limits) == reference_minimal_path(npda, word, limits)


def _assert_both_match(pda, words, limits_grid=LIMIT_GRID):
    """accepts and, on a normalized machine, minimal_accepting_path give the
    reference verdict and run on every word under every limit."""
    for word in words:
        for limits in limits_grid:
            assert accepts(pda, word, limits) == reference_accepts(pda, word, limits), (word, limits)
            if isinstance(pda, NormalizedPda):
                expected = reference_minimal_path(pda, word, limits)
                assert _minimal_path_summary(pda, word, limits) == expected, (word, limits)


@pytest.mark.parametrize("initial_stack", [(BOTTOM,), (BOTTOM, "A"), ()])
def test_accepting_initial_state_without_transitions(initial_stack):
    pda = NormalizedPda(
        states=["q0"],
        input_alphabet=["a"],
        stack_alphabet=[BOTTOM, "A"],
        initial_state="q0",
        initial_stack=initial_stack,
        accept_states=["q0"],
        transitions=[],
    )
    _assert_both_match(pda, ["", "a"])
    assert accepts(pda, "") == Accepted()
    assert _minimal_path_summary(pda, "", None) == ((), (len(initial_stack),))


@pytest.mark.parametrize("label, pda, entry", CORPUS, ids=[label for label, _, _ in CORPUS])
def test_initial_stack_symbols_no_transition_pops(label, pda, entry):
    # Z on top strands every run at once; Z under the bottom marker is
    # reached only by machines that pop the marker.
    words = _words(entry, top=6)
    for stack in ((*pda.initial_stack, "Z"), ("Z", *pda.initial_stack), ("Z", "Y", "Z")):
        _assert_both_match(replace(pda, initial_stack=stack), words)


@pytest.mark.parametrize("label, pda, entry", CORPUS, ids=[label for label, _, _ in CORPUS])
def test_letters_outside_the_input_alphabet(label, pda, entry):
    words = ["#", "#" * 3]
    for word in _words(entry, top=6):
        if word:
            middle = len(word) // 2
            words += [word[:middle] + "#" + word[middle:], word + "#", "#" + word]
    assert all(set(w) - pda.input_alphabet for w in words)
    _assert_both_match(pda, words)


def test_states_that_appear_only_as_targets():
    # qf (accepting) and dead are only ever targets; dead is not even
    # declared, and q1 is declared but unreachable.
    pda = NormalizedPda(
        states=["q0", "q1", "qf"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM, "A"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qf", "q1"],
        transitions=[
            NormalizedTransition("q0", "a", BOTTOM, "A", "q0"),
            NormalizedTransition("q0", "a", "A", "A", "q0"),
            NormalizedTransition("q0", "b", "A", None, "qf"),
            NormalizedTransition("q0", "b", BOTTOM, None, "dead"),
            NormalizedTransition("q0", None, "A", None, "dead"),
        ],
    )
    words = ["", "a", "b", "ab", "aab", "aabb", "ba", "abb"]
    _assert_both_match(pda, words)
    assert [accepts(pda, w) == Accepted() for w in words] == [
        False, False, False, True, True, False, False, False,
    ]


def test_emptied_stack_fires_nothing():
    # Cell 0, the empty stack, has no top symbol: q1's pop of the bottom
    # marker must not fire once q0 has popped it.
    pda = NormalizedPda(
        states=["q0", "q1", "qf"],
        input_alphabet=["a"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qf"],
        transitions=[
            NormalizedTransition("q0", None, BOTTOM, None, "q1"),
            NormalizedTransition("q1", None, BOTTOM, None, "qf"),
        ],
    )
    _assert_both_match(pda, ["", "a"])
    assert accepts(pda, "") == NotAccepted()


@pytest.mark.parametrize("label, pda, entry", CORPUS, ids=[label for label, _, _ in CORPUS])
def test_zero_limits(label, pda, entry):
    _assert_both_match(pda, _words(entry, top=6), [SearchLimits(0, 0)])


def reference_default_limits(pda, word):
    bound = 10 * (len(word) + 1)
    if isinstance(pda, NormalizedPda):
        try:
            bound = max(bound, 4 * pumping_params(pda).p)
        except PumpingLengthOverflowError:
            pass
    bound = min(bound, STEP_CAP)
    return SearchLimits(max_steps=bound, max_stack_height=bound)


@pytest.mark.parametrize("label, pda, entry", CORPUS, ids=[label for label, _, _ in CORPUS])
def test_default_limits_match_reference_on_corpus(label, pda, entry):
    # m = 2000 and 3000 straddle 4p = 52488 for DYCK1; 60000 passes the cap.
    for word in _words(entry) + [entry.generate(m) for m in (2000, 3000, 60000)]:
        assert default_limits(pda, word) == reference_default_limits(pda, word), (label, len(word))


def test_default_limits_grow_with_unused_states():
    dyck1 = BUILTINS["DYCK1"].pda
    padded = (
        replace(dyck1, states=dyck1.states | {f"u{i}" for i in range(extra)})
        for extra in (0, 1, 400, 700)
    )
    bounds = [default_limits(pda, "(())").max_steps for pda in padded]
    # p: 13122, about 2**30, 154k digits, past the 1M-bit guard.
    assert bounds == [4 * 13122, STEP_CAP, STEP_CAP, STEP_CAP]


@st.composite
def word_batches(draw):
    """Words that share prefixes, with a duplicate, a proper prefix, the
    empty word and a letter outside the input alphabet, each under its own
    limits."""
    base = draw(st.text("ab", min_size=1, max_size=6))
    cut = draw(st.integers(0, len(base) - 1))
    words = [
        base,
        base,
        base[:cut],
        base[:cut] + draw(st.text("ab", max_size=4)),
        base + draw(st.text("ab", min_size=1, max_size=3)),
        "",
        base[:cut] + "#" + base[cut:],
    ]
    words += draw(st.lists(st.text("ab#", max_size=6), max_size=3))
    order = draw(st.permutations(range(len(words))))
    words = [words[i] for i in order]
    return words, draw(st.lists(small_limits, min_size=len(words), max_size=len(words)))


@given(machines(), word_batches())
@settings(max_examples=200, deadline=None)
def test_accepts_each_matches_reference_on_generated_machines(pda, batch):
    words, limits = batch
    for machine in (pda, normalize(pda)):
        expected = [reference_accepts(machine, w, own) for w, own in zip(words, limits)]
        assert list(accepts_each(machine, words, limits)) == expected


def test_accepts_each_reruns_a_word_whose_own_limits_a_shared_search_passes(monkeypatch):
    # Under the larger limits "(())" is accepted; its own two steps cut it
    # short, so the batch must search it again alone.
    from pumpkit import run

    dyck1 = BUILTINS["DYCK1"].pda
    calls = []
    batch_search = run.accepts_each

    def counted(pda, words, limits=None):
        calls.append(tuple(words))
        return batch_search(pda, words, limits)

    monkeypatch.setattr(run, "accepts_each", counted)
    words = ["(())", "(((())))", "(())"]
    limits = [SearchLimits(2, 100), SearchLimits(100, 100), SearchLimits(100, 100)]
    got = counted(dyck1, words, limits)
    assert got == tuple(reference_accepts(dyck1, w, own) for w, own in zip(words, limits))
    assert got[0] == LimitExceeded(by_steps=True, by_height=False) and got[2] == Accepted()
    assert calls == [tuple(words), ("(())",)]
