"""The move-table searches in run.py against the loops they replaced.

reference_accepts and reference_minimal_path are the earlier membership and
minimal-run searches, kept here verbatim in behaviour: they scan every
transition of the current state and intern stack cells through a small
pool. The searches under test must give the same verdict, including the
LimitExceeded flags, and the same minimal run on every corpus machine, in
general and normalized form, and on hypothesis-generated machines. The
one-run walk of minimal_accepting_path is held to the same reference on
machines that are deterministic up to move-less targets, and its coverage
of the corpus is pinned. So are the walks of the membership search: on
generated machines that allow them, each chain search must return exactly
what it returns with the walks turned off.

reference_default_limits is the earlier default_limits, which sized p under
the 1M-bit guard and fell back to the word-length bound past it: the
current one must agree with it on the corpus and stay monotone in p.
"""

import importlib
from collections import deque
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
from pumpkit.record import replace
from pumpkit.run import STEP_CAP

# pumpkit.search as a module: the package re-exports functions under the
# same names.
search_module = importlib.import_module("pumpkit.search")
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
        # the whole word list in one batch under the same limits (None: the
        # longest word's default limits)
        if limits is None:
            expected = [reference_accepts(pda, word, default_limits(pda, max(words, key=len))) for word in words]
        assert list(accepts_each(pda, words, limits)) == expected, (label, limits)
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


UNDER = "under"  # a batch's limits, set just under one word's accepting depth on each machine


def accepting_depth(pda, word, height=6, top=40):
    """The fewest steps in which reference_accepts accepts word under the
    given height, or None when it does not within top steps."""
    if reference_accepts(pda, word, SearchLimits(top, height)) != Accepted():
        return None
    lo, hi = -1, top  # rejected or cut at lo steps, accepted at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reference_accepts(pda, word, SearchLimits(mid, height)) == Accepted():
            hi = mid
        else:
            lo = mid
    return hi


def batch_limits(pda, words, choice):
    """choice, or for (UNDER, i) one step less than the accepting depth of
    words[i], so that the batch's search of it is cut short where a wider
    one accepts it."""
    if isinstance(choice, SearchLimits):
        return choice
    depth = accepting_depth(pda, words[choice[1]])
    return SearchLimits(40, 6) if depth is None else SearchLimits(max(depth - 1, 0), 6)


@st.composite
def pumped_words(draw):
    """u·vⁿ·x·yⁿ·z for n = 0..4, in a drawn order: divergent middles before a
    common suffix. A piece may hold # outside the input alphabet."""
    u, v, x, y, z = (draw(st.text("ab#" if i == 2 else "ab", max_size=2)) for i in range(5))
    return [u + v * n + x + y * n + z for n in draw(st.permutations(range(5)))]


@st.composite
def word_batches(draw):
    """Words that share prefixes, with a duplicate, a proper prefix, the
    empty word and a letter outside the input alphabet, or the five pumped
    words of a drawn decomposition; all under one set of limits, small, wide
    or just under one word's accepting depth."""
    if draw(st.booleans()):
        words = draw(pumped_words())
    else:
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
    under = st.tuples(st.just(UNDER), st.integers(0, len(words) - 1))
    return words, draw(st.one_of(small_limits, st.just(SearchLimits(40, 6)), under))


@st.composite
def letter_machines(draw):
    """Machines whose letter moves push a symbol named after the letter, pop,
    or keep the stack: words that diverge build different stacks, so leaves
    park on cells made under their own branches."""
    states = ["q0", "q1"]
    symbols = [BOTTOM, "A", "B"]
    transitions = []
    for source in states:
        for letter in "ab":
            for top in symbols:
                push = draw(st.sampled_from([None, (top, letter.upper()), (), (top,)]))
                if push is not None:
                    target = draw(st.sampled_from(states))
                    transitions.append(GeneralTransition(source, letter, top, push, target))
    for _ in range(draw(st.integers(0, 2))):
        transitions.append(
            GeneralTransition(
                source=draw(st.sampled_from(states)),
                letter=None,
                pop=draw(st.sampled_from(symbols)),
                push=tuple(draw(st.lists(st.sampled_from(symbols), max_size=2))),
                target=draw(st.sampled_from(states)),
            )
        )
    return GeneralPda(
        states=states,
        input_alphabet=["a", "b"],
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=draw(st.sets(st.sampled_from(states))),
        transitions=transitions,
    )


@given(st.one_of(machines(), letter_machines()), word_batches())
@settings(max_examples=300, deadline=None)
def test_accepts_each_matches_reference_on_generated_machines(pda, batch):
    words, choice = batch
    for machine in (pda, normalize(pda)):
        limits = batch_limits(machine, words, choice)
        expected = [reference_accepts(machine, w, limits) for w in words]
        assert list(accepts_each(machine, words, limits)) == expected


def _letter_pushes():
    """The first letter pushes A (on a) or B (on b), the second keeps the
    stack, and c pops A into the accepting state. In "aac" and "abc" the
    leaves fork at 1 and join at 2 on the cell A made under branch a; under
    branch b, after the arena drops that cell, "bac" and "bbc" intern B
    under the same number."""
    states = ["q0", "q1", "q2", "qf"]
    transitions = [
        GeneralTransition("q0", "a", BOTTOM, (BOTTOM, "A"), "q1"),
        GeneralTransition("q0", "b", BOTTOM, (BOTTOM, "B"), "q1"),
        GeneralTransition("q2", "c", "A", (), "qf"),
    ]
    transitions += [
        GeneralTransition("q1", letter, top, (top,), "q2") for letter in "ab" for top in "AB"
    ]
    return GeneralPda(
        states=states,
        input_alphabet=["a", "b", "c"],
        stack_alphabet=[BOTTOM, "A", "B"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qf"],
        transitions=transitions,
    )


@pytest.mark.parametrize(
    "words",
    [["aac", "abc", "bac", "bbc"], ["bac", "bbc", "aac", "abc"], ["abc", "bbc", "aac", "bac"]],
)
def test_a_stored_suffix_dies_with_the_cells_it_names(words):
    # The suffix stored under one first-letter branch names a cell that the
    # arena drops before the other branch starts.
    pda = _letter_pushes()
    expected = tuple(reference_accepts(pda, w, default_limits(pda, max(words, key=len))) for w in words)
    assert {Accepted(), NotAccepted()} == set(expected)
    assert accepts_each(pda, words) == expected


def _cycle_machine():
    """a enters an epsilon cycle C0 -> C1 -> ... -> C4 -> C0 at C0 and b at
    C2, so "ac" and "bc" park the same five (cell, state) pairs at the join,
    at levels in another order. Only C0 reads c, and the accept lies three
    epsilon steps further: "bc" needs 8 steps, "ac" 5."""
    cycle = [f"C{k}" for k in range(5)]
    keep = (BOTTOM,)
    transitions = [
        GeneralTransition("q0", "a", BOTTOM, keep, "C0"),
        GeneralTransition("q0", "b", BOTTOM, keep, "C2"),
    ]
    transitions += [
        GeneralTransition(cycle[k], None, BOTTOM, keep, cycle[(k + 1) % 5]) for k in range(5)
    ]
    transitions += [
        GeneralTransition("C0", "c", BOTTOM, keep, "F1"),
        GeneralTransition("F1", None, BOTTOM, keep, "F2"),
        GeneralTransition("F2", None, BOTTOM, keep, "F3"),
        GeneralTransition("F3", None, BOTTOM, keep, "F4"),
    ]
    return GeneralPda(
        states=["q0", *cycle, "F1", "F2", "F3", "F4"],
        input_alphabet=["a", "b", "c"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["F4"],
        transitions=transitions,
    )


@pytest.mark.parametrize("first", ["ac", "bc"])
def test_seeds_at_other_levels_are_another_suffix(first):
    # With "ac" searched first, its suffix ends 5 levels above its lowest
    # seed. "bc" parks the same pairs, but its accept lies 7 above its
    # lowest seed, past the batch's 7 steps: it must not reuse "ac"'s verdict.
    pda = _cycle_machine()
    limits = SearchLimits(7, 5)
    words = [first, "bc" if first == "ac" else "ac"]
    expected = tuple(reference_accepts(pda, w, limits) for w in words)
    assert accepts_each(pda, words, limits) == expected
    assert dict(zip(words, expected)) == {
        "ac": Accepted(),
        "bc": LimitExceeded(by_steps=True, by_height=False),
    }
    assert reference_accepts(pda, "bc", SearchLimits(8, 5)) == Accepted()


def _dyck_pumps(k, order):
    """The DYCK1 pumps (^(k+n) )^(k+n) for n in order: they fork one letter
    apart and join on the same cell, each join two levels above the last."""
    return ["(" * (k + n) + ")" * (k + n) for n in order]


@pytest.mark.parametrize(
    "words, limits",
    [
        # Within 11 steps, the suffix stored for word 0 fits word 1's levels
        # but not those of words 2 to 4, whose joins lie deeper.
        (_dyck_pumps(3, range(5)), SearchLimits(11, 100)),
        # Searched from the deepest join first, the stored suffix is cut at
        # 12 steps; at their lower levels words 0..3 must search it again.
        (_dyck_pumps(3, range(4, -1, -1)), SearchLimits(12, 100)),
        # Both join on one cell, and the suffix ((())) fits a stack of 4; the
        # stretch (((()))) before the second word's join does not.
        (["()((()))", "(((())))((()))"], SearchLimits(100, 4)),
    ],
    ids=["level-offset", "cut", "height"],
)
def test_a_stored_suffix_is_reused_only_within_each_word_s_limits(words, limits):
    dyck1 = BUILTINS["DYCK1"].pda
    expected = tuple(reference_accepts(dyck1, w, limits) for w in words)
    assert Accepted() in expected and any(isinstance(v, LimitExceeded) for v in expected)
    assert accepts_each(dyck1, words, limits) == expected


def _push_loop():
    """Reads of a and b that keep the stack, an epsilon push loop on the
    bottom marker and on A, and an epsilon accept on the bottom marker: a
    search that no accept stops fills every stack up to its limits."""
    transitions = [
        GeneralTransition("q0", letter, top, (top,), "q0")
        for letter in "ab"
        for top in (BOTTOM, "A")
    ]
    transitions += [
        GeneralTransition("q0", None, BOTTOM, (BOTTOM, "A"), "q0"),
        GeneralTransition("q0", None, "A", ("A", "A"), "q0"),
        GeneralTransition("q0", None, BOTTOM, (BOTTOM,), "qf"),
    ]
    return GeneralPda(
        states=["q0", "qf"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM, "A"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qf"],
        transitions=transitions,
    )


def test_a_cut_stretch_gives_its_join_up(monkeypatch):
    # On an epsilon push loop a stretch that ends at a join, where no word
    # ends, runs into the limits. Its word is then searched whole from the
    # fork, and so is every other: no suffix is seeded from a parked set
    # that the limits cut.
    pda = _push_loop()
    words = ["a" * (3 + n) + "b" * (1 + n) + "a" * 12 for n in range(5)]
    calls = []
    search = search_module._search_chain

    def recorded(word, start, end, leaf, *rest):
        calls.append((len(word), start, end, leaf))
        return search(word, start, end, leaf, *rest)

    monkeypatch.setattr(search_module, "_search_chain", recorded)
    for limits in (None, SearchLimits(60, 60), SearchLimits(40, 30)):
        calls.clear()
        batch = limits or default_limits(pda, max(words, key=len))
        assert accepts_each(pda, words, limits) == tuple(reference_accepts(pda, w, batch) for w in words)
        # one leaf per word, each from the end of the common prefix a^3
        leaves = [(length, start) for length, start, end, leaf in calls if leaf]
        assert leaves == [(len(w), 3) for w in words]


def test_a_push_loop_batch_searches_no_chain_from_the_start_after_its_prefix(monkeypatch):
    # The common prefix a^30 is the one chain from position 0; every word is
    # settled from there under the batch's one set of limits.
    pda = _push_loop()
    words = ["a" * (30 + n) + "b" * (1 + n) + "a" * 100 for n in range(5)]
    starts = []
    search = search_module._search_chain

    def recorded(word, start, *rest):
        starts.append(start)
        return search(word, start, *rest)

    monkeypatch.setattr(search_module, "_search_chain", recorded)
    assert accepts_each(pda, words) == (Accepted(),) * 5
    assert starts[0] == 0 and 0 not in starts[1:]


# The one-run walk. minimal_accepting_path follows the single run of a
# machine whose slots each hold at most one move into a state with moves per
# letter (none beside such an epsilon move), and hands the word to the
# breadth-first search when that run passes a limit or loops on epsilon
# moves. Either way the answer must be the reference search's.

run_module = importlib.import_module("pumpkit.run")


@pytest.fixture
def walked(monkeypatch):
    """What each call of the walk returned: None where it handed the word
    to the breadth-first search."""
    outcomes = []
    walk = run_module._follow_run

    def recorded(*args):
        outcomes.append(walk(*args))
        return outcomes[-1]

    monkeypatch.setattr(run_module, "_follow_run", recorded)
    return outcomes


def _walk_normalized(label):
    """The normalized machine of a builtin name or a data file name."""
    entry = BUILTINS.get(label)
    pda = entry.pda if entry else load_path(DATA / label).pda
    return normalize(pda), BUILTINS["ANBN" if label == "ANBN_GENERAL.json" else label.split(".")[0]]


@pytest.mark.parametrize(
    "label",
    ["DYCK1", "REG_AB", "ANBN", "DYCK1.json", "REG_AB.json", "ANBN.json", "ANBN_GENERAL.json"],
)
def test_the_walk_answers_for_the_deterministic_corpus_machines(walked, label):
    pda, entry = _walk_normalized(label)
    calls = 0
    for m in range(13):
        for make, member in ((entry.generate, True), (entry.generate_near_miss, False)):
            try:
                word = make(m)
            except ValueError:
                continue  # no word of this kind at this m
            out = minimal_accepting_path(pda, word)
            calls += 1
            assert len(walked) == calls and out is walked[-1], word  # the walk's answer
            assert isinstance(out, RunPath if member else NotAccepted), word
    assert calls >= 24


@pytest.mark.parametrize("label", ["GEN_PAL", "GEN_PAL.json"])
def test_gen_pal_keeps_the_breadth_first_search(walked, label):
    # Its epsilon guess of the midpoint sits beside letter moves.
    pda, entry = _walk_normalized(label)
    for word in _words(entry, top=8):
        minimal_accepting_path(pda, word)
    assert walked == []


def _machine(transitions, accept, initial_stack=(BOTTOM,)):
    states = {t.source for t in transitions} | {t.target for t in transitions} | {"q0"}
    symbols = {BOTTOM, *initial_stack} | {t.pop for t in transitions}
    symbols |= {t.extra for t in transitions if t.extra is not None}
    return NormalizedPda(
        states=states,
        input_alphabet=["a", "b"],
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=initial_stack,
        accept_states=accept,
        transitions=transitions,
    )


def _walk_case(walked, pda, word, limits, answered):
    """minimal_accepting_path equals the reference search, and the walk
    answered (True), handed the word over (False) or never ran (None)."""
    walked.clear()
    got = _minimal_path_summary(pda, word, limits)
    assert got == reference_minimal_path(pda, word, limits)
    assert (walked[0] is not None if walked else None) == answered
    return got


T = NormalizedTransition
WIDE = SearchLimits(100, 100)


def test_an_epsilon_cycle_is_handed_to_the_search(walked):
    # q1 pushes B and q2 pops it again: q1 sees the same stack forever.
    cycle = [T("q0", "a", BOTTOM, "A", "q1"), T("q1", None, "A", "B", "q2"), T("q2", None, "B", None, "q1")]
    assert _walk_case(walked, _machine(cycle, ["q0"]), "a", WIDE, False) == NotAccepted()
    # An accepting move-less exit inside the cycle is found on its first turn.
    exit_ = cycle + [T("q2", None, "B", None, "qf")]
    steps, profile = _walk_case(walked, _machine(exit_, ["qf"]), "a", WIDE, True)
    assert steps == (exit_[0], exit_[1], exit_[3]) and profile == (1, 2, 3, 2)


def test_a_pushing_epsilon_loop_is_handed_to_the_search(walked):
    loop = [T("q0", "a", BOTTOM, "A", "q1"), T("q1", None, "A", "A", "q1")]
    pda = _machine(loop, ["qf"])
    assert _walk_case(walked, pda, "a", SearchLimits(100, 8), False) == LimitExceeded(False, True)
    assert _walk_case(walked, pda, "a", SearchLimits(6, 100), False) == LimitExceeded(True, False)
    # Past |Q|·|Γ| epsilon moves in a row the walk stops before any limit.
    assert _walk_case(walked, pda, "a", SearchLimits(10_000, 10_000), False) == LimitExceeded(False, True)


def test_declared_order_breaks_a_tie_at_one_depth(walked):
    first = [T("q0", "a", BOTTOM, None, "f1"), T("q0", "a", BOTTOM, "A", "f2")]
    for transitions in (first, first[::-1]):
        steps, _ = _walk_case(walked, _machine(transitions, ["f1", "f2"]), "a", WIDE, True)
        assert steps == (transitions[0],)
    # A live accepting successor declared after a move-less one loses too.
    live_second = [T("q0", "a", BOTTOM, None, "f1"), T("q0", "a", BOTTOM, "A", "q1"), T("q1", "b", "A", None, "q1")]
    steps, _ = _walk_case(walked, _machine(live_second, ["f1", "q1"]), "a", WIDE, True)
    assert steps == (live_second[0],)


def test_an_accepting_move_into_a_move_less_state_beside_a_live_one(walked):
    # Balanced a…b words; the epsilon move to qf needs no letter and sits
    # beside the live letter moves of its slot.
    moves = [
        T("q0", "a", BOTTOM, "A", "q0"),
        T("q0", "a", "A", "A", "q0"),
        T("q0", "b", "A", None, "q0"),
        T("q0", None, BOTTOM, None, "qf"),
    ]
    pda = _machine(moves, ["qf"])
    for word in ("", "ab", "aabb", "abab", "aab", "ba", "abb"):
        _walk_case(walked, pda, word, WIDE, True)
    steps, _ = _walk_case(walked, pda, "aabb", WIDE, True)
    assert steps[-1] == moves[3] and len(steps) == 5


def test_step_and_height_limits_at_the_run_s_edge(walked):
    pda = normalize(BUILTINS["DYCK1"].pda)
    word = "(()(()))"
    steps, profile = _walk_case(walked, pda, word, WIDE, True)
    run_length, peak = len(steps), max(profile)
    _walk_case(walked, pda, word, SearchLimits(run_length, peak), True)
    assert _walk_case(walked, pda, word, SearchLimits(run_length - 1, peak), False) == LimitExceeded(True, False)
    assert _walk_case(walked, pda, word, SearchLimits(run_length, peak - 1), False) == LimitExceeded(False, True)
    # A tall initial stack is over the height limit before the first step.
    tall = replace(pda, initial_stack=(BOTTOM, "(", "("))
    _walk_case(walked, tall, "))", SearchLimits(run_length, 2), False)


@st.composite
def one_run_machines(draw):
    """Normalized machines deterministic up to move-less targets: in every
    slot of q0..q2, one epsilon move or at most one move per letter into
    q0..q2, and a few moves into the move-less d0 and d1 anywhere. Some get
    one more move into q0..q2, which may break that."""
    live = ["q0", "q1", "q2"][: draw(st.integers(1, 3))]
    symbols = [BOTTOM, "A", "B"]
    extras = st.sampled_from([None, *symbols])
    transitions = []
    for q in live:
        for top in symbols:
            for letter in draw(st.sampled_from([(), (None,), ("a",), ("b",), ("a", "b")])):
                transitions.append(T(q, letter, top, draw(extras), draw(st.sampled_from(live))))
    for targets in [["d0", "d1"]] * draw(st.integers(0, 3)) + [live] * draw(st.integers(0, 1)):
        move = T(
            draw(st.sampled_from(live)),
            draw(st.sampled_from([None, "a", "b"])),
            draw(st.sampled_from(symbols)),
            draw(extras),
            draw(st.sampled_from(targets)),
        )
        transitions.insert(draw(st.integers(0, len(transitions))), move)
    states = live + ["d0", "d1"]
    return NormalizedPda(
        states=states,
        input_alphabet=["a", "b"],
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=[BOTTOM] + draw(st.sampled_from([[], ["A"], ["B", "A"]])),
        accept_states=draw(st.sets(st.sampled_from(states))),
        transitions=transitions,
    )


@given(one_run_machines(), st.text("ab", max_size=7), st.builds(SearchLimits, st.integers(0, 25), st.integers(0, 9)))
@settings(max_examples=300, deadline=None)
def test_minimal_path_matches_reference_on_one_run_machines(pda, word, limits):
    assert _minimal_path_summary(pda, word, limits) == reference_minimal_path(pda, word, limits)


@st.composite
def long_runs(draw):
    """A machine of one_run_machines, a word of 8 to 40 letters and limits
    near the length and peak of the run that reads it.

    The word is read off the machine: from the initial description each step
    takes a drawn move into a state with moves, and each letter move adds its
    letter; once no such move is left, drawn letters fill the word up. So
    the walk's letter stretches run long, and limits drawn within a few steps
    of the run's length and peak cut them by steps and by height.
    """
    pda = draw(one_run_machines())
    size = draw(st.integers(8, 40))
    live = {t.source for t in pda.transitions}
    state, stack, letters = pda.initial_state, list(pda.initial_stack), []
    steps, peak = 0, len(stack)
    while stack and len(letters) < size and steps < 4 * size:
        moves = [t for t in pda.transitions if (t.source, t.pop) == (state, stack[-1]) and t.target in live]
        if not moves:
            break
        t = draw(st.sampled_from(moves))
        stack.pop()
        stack.extend(t.push)
        state = t.target
        steps += 1
        peak = max(peak, len(stack))
        if t.letter is not None:
            letters.append(t.letter)
    letters += draw(st.lists(st.sampled_from("ab"), min_size=size - len(letters), max_size=size - len(letters)))
    limits = SearchLimits(draw(st.integers(max(0, steps - 3), steps + 3)), draw(st.integers(max(0, peak - 2), peak + 2)))
    return pda, "".join(letters), limits


@given(long_runs())
@settings(max_examples=300, deadline=None)
def test_minimal_path_matches_reference_on_long_runs(case):
    pda, word, limits = case
    assert _minimal_path_summary(pda, word, limits) == reference_minimal_path(pda, word, limits)


@pytest.mark.parametrize("letter", ["a", None], ids=["on-a", "epsilon"])
def test_a_dead_push_beside_a_live_pop_at_the_height_limit(walked, letter):
    # In the slot (q0, A), the live move on a pops and a move on a (or an
    # epsilon move) into the move-less d0 pushes. At the height limit that
    # push is cut, so the walk hands the word to the search, which flags it.
    moves = [
        T("q0", "b", BOTTOM, "A", "q0"),
        T("q0", "b", "A", "A", "q0"),
        T("q0", "a", "A", None, "q0"),
        T("q0", letter, "A", "B", "d0"),
        T("q0", None, BOTTOM, None, "qf"),
    ]
    pda = _machine(moves, ["qf"])
    steps, profile = _walk_case(walked, pda, "bbbbaaaa", WIDE, True)
    assert len(steps) == 9 and max(profile) == 5
    assert _walk_case(walked, pda, "bbbbaaaa", SearchLimits(100, 6), True) == (steps, profile)
    assert _walk_case(walked, pda, "bbbbaaaa", SearchLimits(100, 5), False) == (steps, profile)
    assert _walk_case(walked, pda, "bbbbaaa", SearchLimits(100, 6), True) == NotAccepted()
    assert _walk_case(walked, pda, "bbbbaaa", SearchLimits(100, 5), False) == LimitExceeded(False, True)


def _stretch_popper():
    """Pushes A per a, pops one A on b, then pops every other A and the
    bottom marker by epsilon moves into qf: a long epsilon stretch that is
    no loop."""
    return _machine(
        [
            T("q0", "a", BOTTOM, "A", "q0"),
            T("q0", "a", "A", "A", "q0"),
            T("q0", "b", "A", None, "q1"),
            T("q1", None, "A", None, "q1"),
            T("q1", None, BOTTOM, None, "qf"),
        ],
        ["qf"],
    )


def test_an_epsilon_stretch_that_keeps_falling_is_walked(walked):
    # 49 epsilon pops in a row, far past |Q|·|Γ| = 6: each one reaches a
    # lower stack than any description since the b, so none repeats.
    steps, profile = _walk_case(walked, _stretch_popper(), "a" * 50 + "b", SearchLimits(500, 500), True)
    assert len(steps) == 101 and profile[-1] == 0
    assert _walk_case(walked, _stretch_popper(), "a" * 50 + "bb", SearchLimits(500, 500), True) == NotAccepted()


# The search walk. Where a breadth-first level of _search_chain holds one
# description, the search walks it letter by letter on interned cells while
# the search would hold one; its verdicts must stay the reference's.


@pytest.fixture
def search_walks(monkeypatch):
    """(position, position reached) of each walk of _search_chain."""
    walks = []
    walk = search_module._walk

    def recorded(word, end, state, pos, *rest):
        reached = walk(word, end, state, pos, *rest)
        walks.append((pos, reached[1]))
        return reached

    monkeypatch.setattr(search_module, "_walk", recorded)
    return walks


def _check(capsys, tmp_path, machine, words):
    """The lines `pumpkit check machine --word-file` prints for words."""
    from pumpkit.cli import main

    path = tmp_path / "words.txt"
    path.write_text("".join(w + "\n" for w in words), encoding="utf-8")
    capsys.readouterr()
    main(["check", machine, "--word-file", str(path)])
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("label", ["DYCK1", "REG_AB", "ANBN", "ANBN_GENERAL.json"])
@pytest.mark.parametrize("member", [True, False], ids=["in-language", "near-miss"])
def test_check_walks_the_deterministic_corpus_machines(search_walks, capsys, tmp_path, label, member):
    entry = BUILTINS["ANBN" if label == "ANBN_GENERAL.json" else label]
    words = [(entry.generate if member else entry.generate_near_miss)(m) for m in range(3, 30)]
    machine = str(DATA / label) if label.endswith(".json") else label
    verdict = "accepted" if member else "not-accepted"
    assert _check(capsys, tmp_path, machine, words) == [f"{verdict}\t{w}" for w in words]
    assert sum(reached > pos for pos, reached in search_walks) >= len(words)


@pytest.mark.parametrize("label", ["GEN_PAL", "GEN_PAL.json", "normalize(GEN_PAL)"])
def test_gen_pal_searches_walk_their_push_phase(search_walks, capsys, tmp_path, label):
    # Its epsilon guess of the midpoint only changes the state, into the pop
    # phase, which reads the letter that pushed the top symbol: where the
    # next letter is the other one, the guess dies at once, and the search
    # walks the push phase letter by letter. On the generator's words of
    # 2m letters it walks from the first letter to the middle, where the
    # true guess is run ahead, and a near miss on to its last letter. The
    # normalized machine's guess pops and pushes back, through an
    # intermediate state, so its search never walks.
    entry = BUILTINS["GEN_PAL"]
    words = _words(entry, top=12)
    middles = [len(w) // 2 for w in words if len(w) >= 4]
    expected = [(1, m) for m in middles] + [(m + 1, 2 * m - 1) for m in middles[1::2] if m > 2]
    if label == "GEN_PAL.json":
        assert _check(capsys, tmp_path, str(DATA / label), words)
    else:
        pda = normalize(entry.pda) if label.startswith("normalize") else entry.pda
        limits = default_limits(pda, max(words, key=len))
        assert list(accepts_each(pda, words)) == [reference_accepts(pda, w, limits) for w in words]
        search_walks.clear()
        for word in words:
            accepts(pda, word)
    if label.startswith("normalize"):
        assert search_walks == []
    else:
        walked = [(pos, reached) for pos, reached in search_walks if reached > pos]
        assert sorted(walked) == sorted(expected)


@st.composite
def walk_machines(draw):
    """General machines whose searches can walk: in each slot of q0 and q1
    at most one move per letter, pushing a symbol named after the letter,
    popping or keeping the stack. Some also get a state e with only epsilon
    moves that a letter move enters, an epsilon move into the move-less d
    beside letter moves, or a second move on one letter."""
    states = ["q0", "q1"]
    symbols = [BOTTOM, "A", "B"]

    def pushes(top, letter):
        return st.sampled_from([(top, letter.upper()), (), (top,)])

    transitions = []
    for source in states:
        for letter in "ab":
            for top in symbols:
                if draw(st.integers(0, 5)):
                    push = draw(pushes(top, letter))
                    transitions.append(GeneralTransition(source, letter, top, push, draw(st.sampled_from(states))))
    for extra in draw(st.lists(st.sampled_from(["e", "d", "second"]), max_size=2)):
        source = draw(st.sampled_from(states))
        letter = draw(st.sampled_from("ab"))
        top = draw(st.sampled_from(symbols))
        if extra == "e":
            transitions.append(GeneralTransition(source, letter, top, (top,), "e"))
            transitions += [
                GeneralTransition("e", None, below, draw(pushes(below, "b")), draw(st.sampled_from(states)))
                for below in symbols
            ]
        elif extra == "d":
            transitions.append(GeneralTransition(source, None, top, (), "d"))
        else:
            push = draw(pushes(top, letter))
            transitions.append(GeneralTransition(source, letter, top, push, draw(st.sampled_from(states))))
    all_states = states + ["e", "d"]
    return GeneralPda(
        states=all_states,
        input_alphabet=["a", "b"],
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=draw(st.sets(st.sampled_from(all_states))),
        transitions=transitions,
    )


@st.composite
def walk_batches(draw):
    """Two to five words of up to 16 letters around a drawn base: its
    prefixes and suffixes with a piece added, or the base with a piece put
    in; all under one set of limits, wide, narrower or just under one
    word's accepting depth."""
    base = draw(st.text("ab", min_size=4, max_size=12))
    words = [base]
    for _ in range(draw(st.integers(1, 4))):
        cut = draw(st.integers(0, len(base)))
        piece = draw(st.text("ab", max_size=4))
        words.append(draw(st.sampled_from([base[:cut] + piece, piece + base[cut:], base[:cut] + piece + base[cut:]])))
    under = st.tuples(st.just(UNDER), st.integers(0, len(words) - 1))
    choices = st.one_of(st.sampled_from([SearchLimits(60, 12), SearchLimits(40, 8), SearchLimits(25, 5)]), under)
    return words, draw(choices)


@pytest.fixture
def chain_searches(monkeypatch):
    """searched(pda, words, limits, walks): the verdicts of accepts_each and
    what each of its chain searches returned (acceptance, deepest level,
    parked descriptions, cut flags), with the walks on or turned off."""
    chains = []
    search = search_module._search_chain

    def recorded(*args):
        chains.append(search(*args))
        return chains[-1]

    def searched(pda, words, limits, walks=True):
        chains.clear()
        walk = search_module._walk
        if not walks:
            monkeypatch.setattr(search_module, "_walk", lambda word, end, *at: at[:4])
        try:
            return accepts_each(pda, words, limits), list(chains)
        finally:
            monkeypatch.setattr(search_module, "_walk", walk)

    monkeypatch.setattr(search_module, "_search_chain", recorded)
    return searched


def test_search_walks_match_reference_on_walk_machines(search_walks, chain_searches):
    # Beyond the verdicts, every chain search returns what it returns
    # without walks.
    walked_examples = []

    @given(walk_machines(), walk_batches())
    @settings(max_examples=300, deadline=None, database=None)
    def matches(pda, batch):
        words, choice = batch
        search_walks.clear()
        for machine in (pda, normalize(pda)):
            limits = batch_limits(machine, words, choice)
            expected = [reference_accepts(machine, w, limits) for w in words]
            verdicts, chains = chain_searches(machine, words, limits)
            assert list(verdicts) == expected
            assert chains == chain_searches(machine, words, limits, walks=False)[1]
        walked_examples.append(any(reached > pos for pos, reached in search_walks))

    matches()
    # About a third of the examples walk; a fifth leaves room for the draw.
    assert sum(walked_examples) >= 0.2 * len(walked_examples)


def _keeping(*moves, accept=()):
    """A general machine of moves (source, letter, target) that keep the
    bottom marker."""
    transitions = [GeneralTransition(a, letter, BOTTOM, (BOTTOM,), b) for a, letter, b in moves]
    return GeneralPda(
        states={"q0"} | {t.source for t in transitions} | {t.target for t in transitions},
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=accept,
        transitions=transitions,
    )


def test_a_batch_without_limits_takes_its_longest_word_s_defaults():
    # Twelve epsilon moves lead to the accept: past the ten steps of the
    # empty word's own defaults, within the thirty of "aa".
    chain = ["q0", *(f"e{k}" for k in range(11)), "f"]
    pda = _keeping(("q0", "a", "q0"), *((a, None, b) for a, b in zip(chain, chain[1:])), accept=["f"])
    assert accepts(pda, "") == reference_accepts(pda, "") == LimitExceeded(by_steps=True, by_height=False)
    assert accepts_each(pda, ["", "aa"]) == (Accepted(), Accepted())
    assert accepts_each(pda, ["", "aa"], default_limits(pda, "")) == (LimitExceeded(by_steps=True, by_height=False),) * 2


def test_no_walk_behind_a_visited_description(search_walks, chain_searches):
    # On a, f runs ahead through g and h and stops; e follows three epsilon
    # moves later and reaches g again. When e3 is the only description of
    # its level, g is visited already: the search drops it, and e3 must not
    # be walked on through g and h.
    pda = _keeping(
        ("q0", "a", "f"), ("q0", "a", "e"), ("f", "b", "g"), ("g", "b", "h"),
        ("e", None, "e1"), ("e1", None, "e2"), ("e2", None, "e3"), ("e3", "b", "g"),
    )
    for limits in (WIDE, SearchLimits(5, 5)):
        verdicts, chains = chain_searches(pda, ["abbb"], limits)
        assert verdicts == (reference_accepts(pda, "abbb", limits),)
        assert chains == chain_searches(pda, ["abbb"], limits, walks=False)[1]
    assert search_walks == []


def test_no_walk_behind_a_visited_description_on_a_pushing_epsilon_chain(search_walks, chain_searches):
    # The same, with an epsilon chain that pushes A twice and pops one, so
    # that no run-ahead could follow it even from a slot with letter moves:
    # e3 pops the other A on b, onto g on the bottom marker, which f's path
    # visited first.
    keep = (BOTTOM,)
    pda = GeneralPda(
        states=["q0", "f", "g", "h", "e", "e1", "e2", "e3"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM, "A"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=[],
        transitions=[
            GeneralTransition("q0", "a", BOTTOM, keep, "f"),
            GeneralTransition("q0", "a", BOTTOM, keep, "e"),
            GeneralTransition("f", "b", BOTTOM, keep, "g"),
            GeneralTransition("g", "b", BOTTOM, keep, "h"),
            GeneralTransition("e", None, BOTTOM, (BOTTOM, "A"), "e1"),
            GeneralTransition("e1", None, "A", ("A", "A"), "e2"),
            GeneralTransition("e2", None, "A", (), "e3"),
            GeneralTransition("e3", "b", "A", (), "g"),
        ],
    )
    for limits in (WIDE, SearchLimits(5, 5)):
        verdicts, chains = chain_searches(pda, ["abbb"], limits)
        assert verdicts == (reference_accepts(pda, "abbb", limits),)
        assert chains == chain_searches(pda, ["abbb"], limits, walks=False)[1]
    assert search_walks == []


def test_the_description_a_walk_hands_back_is_visited(search_walks, chain_searches):
    # After the walk reads b into h, h and h2 pass the stack back and forth
    # by epsilon moves: the search must find h visited when h2 returns to it.
    pda = _keeping(("q0", "a", "q0"), ("q0", "b", "h"), ("h", None, "h2"), ("h2", None, "h"))
    for word in ("aaaaba", "aaaab"):
        verdicts, chains = chain_searches(pda, [word], WIDE)
        assert verdicts == (reference_accepts(pda, word, WIDE),)
        assert chains == chain_searches(pda, [word], WIDE, walks=False)[1]
    assert (1, 5) in search_walks


def test_a_walk_stops_at_the_limits_and_the_word_reads_limit_exceeded(search_walks):
    # The walk stops where the limits end, and the search is cut there.
    dyck1 = BUILTINS["DYCK1"].pda
    word = "(" * 8 + ")" * 8
    for limits, cut in ((SearchLimits(5, 100), LimitExceeded(True, False)), (SearchLimits(100, 4), LimitExceeded(False, True))):
        search_walks.clear()
        assert accepts(dyck1, word, limits) == reference_accepts(dyck1, word, limits) == cut
        # (q0, ⊥XX) at position 2 is the first level of one description.
        assert search_walks[0] == (2, 5 if limits.max_steps == 5 else 3)


def test_a_suffix_that_starts_in_the_prefix_is_searched_once_from_the_fork(search_walks, monkeypatch):
    # The words share their first letter, the fork, and end in the same 14
    # letters, the whole first word. The common suffix is clamped to the 13
    # letters after the fork, so the first word's remainder is the suffix
    # chain, seeded by the prefix's (q0, ⊥X) and walked from position 2.
    # "(())" and "()" search only up to their joins, 5 and 3, park
    # (q0, ⊥X) there and reuse that search.
    chains = []
    search = search_module._search_chain

    def recorded(word, start, end, *rest):
        chains.append((len(word), start, end))
        return search(word, start, end, *rest)

    monkeypatch.setattr(search_module, "_search_chain", recorded)
    dyck1 = BUILTINS["DYCK1"].pda
    suffix = "(" * 7 + ")" * 7
    words = [suffix, "(())" + suffix, "()" + suffix]
    assert accepts_each(dyck1, words) == (Accepted(),) * 3
    assert chains == [(14, 0, 1), (14, 1, 14), (18, 1, 5), (16, 1, 3)]
    assert search_walks == [(2, 13), (2, 4)]
    misses = [w + ")" for w in words]
    limits = default_limits(dyck1, max(misses, key=len))
    assert accepts_each(dyck1, misses) == tuple(reference_accepts(dyck1, w, limits) for w in misses)


def _late_seed():
    """Two moves on x: p reads y at once, v only after five epsilon moves,
    so the words that fork after "xy" get the seed p2 at level 2 and r at
    level 7. The run of p2 through s reaches (s, 4) at level 4; r reaches it
    through t at level 9, where the search finds it visited."""
    keep = (BOTTOM,)
    chain = ["v", "v1", "v2", "v3", "v4", "v5"]
    transitions = [
        GeneralTransition("q0", "x", BOTTOM, keep, "p"),
        GeneralTransition("q0", "x", BOTTOM, keep, "v"),
        GeneralTransition("p", "y", BOTTOM, keep, "p2"),
        *(GeneralTransition(a, None, BOTTOM, keep, b) for a, b in zip(chain, chain[1:])),
        GeneralTransition("v5", "y", BOTTOM, keep, "r"),
        GeneralTransition("p2", "a", BOTTOM, keep, "s"),
        GeneralTransition("s", "a", BOTTOM, keep, "s"),
        GeneralTransition("r", "a", BOTTOM, keep, "t"),
        GeneralTransition("t", "a", BOTTOM, keep, "s"),
    ]
    return GeneralPda(
        states=["q0", "p", "p2", "s", "r", "t", *chain],
        input_alphabet=["x", "y", "a", "b"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=[],
        transitions=transitions,
    )


@pytest.mark.parametrize("steps", [8, 9, 20])
def test_no_walk_before_the_last_seed_joins(search_walks, steps):
    # Had p2's run been walked before r joined, (s, 4) would be missing
    # from the visited set, and at 8 steps r's path to it would read as cut.
    pda = _late_seed()
    words = ["xyaaaa", "xyb"]
    limits = SearchLimits(steps, 10)
    expected = tuple(reference_accepts(pda, w, limits) for w in words)
    assert expected == (NotAccepted(), NotAccepted())
    assert accepts_each(pda, words, limits) == expected


def test_a_pop_onto_the_empty_stack_is_left_to_the_search(search_walks):
    # c pops the bottom marker by a letter move into qf: the walk hands the
    # description back before that step, and the search takes it.
    pda = GeneralPda(
        states=["q0", "qf"],
        input_alphabet=["a", "b", "c"],
        stack_alphabet=[BOTTOM, "A"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qf"],
        transitions=[
            GeneralTransition("q0", "a", BOTTOM, (BOTTOM, "A"), "q0"),
            GeneralTransition("q0", "a", "A", ("A", "A"), "q0"),
            GeneralTransition("q0", "b", "A", (), "q0"),
            GeneralTransition("q0", "c", BOTTOM, (), "qf"),
        ],
    )
    words = ["aaabbbc", "aaabbbcc", "aaabbb"]
    assert [accepts(pda, w) for w in words] == [reference_accepts(pda, w) for w in words]
    assert [accepts(pda, w) for w in words] == [Accepted(), NotAccepted(), NotAccepted()]
    assert search_walks and all(reached <= 6 for _, reached in search_walks)
    assert (1, 6) in search_walks


def test_every_return_to_the_bottom_marker_hands_the_walk_back(search_walks):
    # The bottom marker's slot holds the epsilon accept beside '(', so the
    # search takes each step from (q0, ⊥) and walks from the level after.
    dyck1 = BUILTINS["DYCK1"].pda
    assert accepts(dyck1, "()" * 50) == Accepted() and search_walks == []
    assert accepts(dyck1, "(())" * 50) == Accepted()
    assert search_walks == [(4 * k + 2, 4 * k + 4) for k in range(49)] + [(198, 199)]
