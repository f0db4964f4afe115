import hashlib
import importlib.resources
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pumpkit import (
    BOTTOM,
    Accepted,
    BUILTINS,
    GeneralPda,
    GeneralTransition,
    LimitExceeded,
    PumpingLengthOverflowError,
    SearchLimits,
    accepts,
    accepts_each,
    dumps,
    is_star_form,
    load_path,
    loads,
    normalize,
    pumping_params,
    validate,
)
from pumpkit.pda import is_star_transition
from pumpkit.record import replace
from test_run_reference import machines, small_limits


# sha256 of dumps(normalize(...)) for each data file
NORMALIZED_DIGESTS = {
    "ANBN.json": "5d156a8d83ebcc563ff2e685e511e05bcd0f7c3f9afdd0aad7e562b4327254e3",
    "ANBN_GENERAL.json": "497c9c42eff9ff7f0714ffe156eb0b0801e09763e572185b82015c364410c956",
    "DYCK1.json": "a2f205d9c21f09ddaa12a865e8f00375f488bd3473b5963f5b5fe3a10f2a3cf5",
    "GEN_PAL.json": "817b3424987fc78094b5914be873e4ce2becaf1d315854a1f1b3a58088d5c4e3",
    "REG_AB.json": "43c01f20dfc8886a3bd3a9b27fdce681cbefc10c83364f7b0e1fa381828f0546",
}


class TestNormalize:
    def test_star_machine_maps_one_to_one(self, dyck1):
        out = normalize(dyck1)
        assert is_star_form(out)
        assert len(out.transitions) == len(dyck1.transitions)
        assert out.states == dyck1.states
        for a, b in zip(dyck1.transitions, out.transitions):
            assert (a.source, a.letter, a.pop, a.push, a.target) == (
                b.source,
                b.letter,
                b.pop,
                b.push,
                b.target,
            )

    def test_expansion_structure(self, anbn_general):
        gp = anbn_general
        out = normalize(gp)
        assert is_star_form(out)
        assert validate(out).ok
        # exactly one transition needs expanding: push (S, A) with pop Z
        fresh = sorted(out.states - gp.states)
        assert len(fresh) == 2  # one chain state per pushed symbol
        assert all(s.startswith("@") for s in fresh)
        # the chain pushes are defined for every stack symbol
        eps_pushes = [t for t in out.transitions if t.source in fresh]
        assert len(eps_pushes) == 2 * len(gp.stack_alphabet)
        assert all(t.letter is None for t in eps_pushes)

    def test_deterministic_output(self):
        gp = BUILTINS["GEN_PAL"].pda
        a = normalize(gp)
        b = normalize(gp)
        assert dumps(a) == dumps(b)

    def test_fresh_prefix_avoids_collisions(self):
        gp = GeneralPda(
            states=["q0", "@0.0", "qf"],
            input_alphabet=["a"],
            stack_alphabet=[BOTTOM, "A", "B"],
            initial_state="q0",
            initial_stack=[BOTTOM],
            accept_states=["qf"],
            transitions=[GeneralTransition("q0", "a", BOTTOM, (BOTTOM, "A", "B"), "qf")],
        )
        out = normalize(gp)
        fresh = out.states - gp.states
        assert fresh
        assert all(s.startswith("@@") for s in fresh)
        assert is_star_form(out)

    def test_equivalence_exhaustive_small_words(self, anbn_general):
        gp = anbn_general
        out = normalize(gp)
        for length in range(0, 7):
            for tup in itertools.product("ab", repeat=length):
                w = "".join(tup)
                assert isinstance(accepts(gp, w), Accepted) == isinstance(
                    accepts(out, w), Accepted
                ), w


    @pytest.mark.parametrize("name", sorted(NORMALIZED_DIGESTS))
    def test_data_files_normalize_to_pinned_bytes(self, name):
        # none pops the bottom marker outside star shape, so none gets a new
        # bottom, and the reports and charts built on them keep their bytes
        path = importlib.resources.files("pumpkit") / "data" / name
        text = dumps(normalize(load_path(path).pda))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NORMALIZED_DIGESTS[name]

    def test_new_bottom_goes_under_the_renamed_one(self):
        # ROADMAP item 8's machine accepts "ab" alone; its "a" pops the
        # only symbol and pushes Y, which needs a top to push onto
        gp = _bottom_to_y()
        out = normalize(gp)
        assert out.initial_stack == (BOTTOM, "@" + BOTTOM)
        assert out.stack_alphabet == {BOTTOM, "@" + BOTTOM, "Y"}
        # only the chain's push pops the new bottom, and it puts it back
        assert [(t.source, t.letter, t.push) for t in out.transitions if t.pop == BOTTOM] == [
            ("@0.0", None, (BOTTOM, "Y"))
        ]
        assert validate(out).issues == ()


def _bottom_to_y() -> GeneralPda:
    """q0 -a,⊥/(Y)-> q1 -b,Y/()-> qf: it accepts "ab" alone."""
    return GeneralPda(
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


def _bottom_loop() -> GeneralPda:
    """q0 -a,⊥/(⊥)-> q0 with q0 accepting: it accepts every a^n."""
    return GeneralPda(
        states=["q0"],
        input_alphabet=["a", "b"],
        stack_alphabet=[BOTTOM],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["q0"],
        transitions=[GeneralTransition("q0", "a", BOTTOM, (BOTTOM,), "q0")],
    )


class TestPumpingParams:
    def test_known_sizes(self, dyck1, reg_ab):
        p = pumping_params(dyck1)
        assert (p.p_prime, p.p) == (8, 13122)
        assert (p.state_count, p.stack_symbol_count) == (2, 2)

        p = pumping_params(reg_ab)
        assert (p.p_prime, p.p) == (4, 32)

    def test_single_state_single_symbol(self):
        from pumpkit import NormalizedPda, NormalizedTransition

        pda = NormalizedPda(
            states=["q"],
            input_alphabet=["a"],
            stack_alphabet=[BOTTOM],
            initial_state="q",
            initial_stack=[BOTTOM],
            accept_states=["q"],
            transitions=[NormalizedTransition("q", "a", BOTTOM, None, "q")],
        )
        p = pumping_params(pda)
        assert (p.p_prime, p.p) == (1, 2)

    def test_three_states_two_symbols(self):
        from pumpkit import NormalizedPda

        pda = NormalizedPda(
            states=["q0", "q1", "q2"],
            input_alphabet=["a"],
            stack_alphabet=[BOTTOM, "A"],
            initial_state="q0",
            initial_stack=[BOTTOM],
            accept_states=["q0"],
            transitions=[],
        )
        p = pumping_params(pda)
        assert p.p_prime == 18
        assert p.p == 3 * 3**18  # 1162261467

    def test_overflow_guard(self):
        from pumpkit import NormalizedPda

        pda = NormalizedPda(
            states=[f"q{i}" for i in range(40)],
            input_alphabet=["a"],
            stack_alphabet=[BOTTOM] + [f"S{i}" for i in range(39)],
            initial_state="q0",
            initial_stack=[BOTTOM],
            accept_states=["q0"],
            transitions=[],
        )
        # p' = 1600 * 40 = 64000; p needs ~ 64000 * log2(41) bits >> 10000
        with pytest.raises(PumpingLengthOverflowError):
            pumping_params(pda, bit_limit=10_000)
        # and the default limit admits it
        assert pumping_params(pda).p > 0


@st.composite
def small_general_pdas(draw):
    n_states = draw(st.integers(1, 3))
    states = [f"q{i}" for i in range(n_states)]
    symbols = [BOTTOM] + [f"S{i}" for i in range(draw(st.integers(0, 2)))]
    letters = ["a", "b"]
    n_trans = draw(st.integers(0, 5))
    transitions = []
    for _ in range(n_trans):
        push_len = draw(st.integers(0, 3))
        transitions.append(
            GeneralTransition(
                source=draw(st.sampled_from(states)),
                letter=draw(st.one_of(st.none(), st.sampled_from(letters))),
                pop=draw(st.sampled_from(symbols)),
                push=tuple(draw(st.sampled_from(symbols)) for _ in range(push_len)),
                target=draw(st.sampled_from(states)),
            )
        )
    return GeneralPda(
        states=states,
        input_alphabet=letters,
        stack_alphabet=symbols,
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=draw(st.sets(st.sampled_from(states), min_size=0, max_size=n_states)),
        transitions=transitions,
    )


@given(small_general_pdas())
@settings(max_examples=60, deadline=None)
def test_normalize_always_yields_star_form(pda):
    out = normalize(pda)
    assert is_star_form(out)
    assert validate(out).ok or not validate(pda).ok


@st.composite
def bottom_popping_pdas(draw):
    """small_general_pdas with up to two more initial symbols, and in half
    of the examples one more transition that pops the bottom marker outside
    star shape."""
    pda = draw(small_general_pdas())
    symbols = sorted(pda.stack_alphabet)
    states = sorted(pda.states)
    pda = replace(pda, initial_stack=[BOTTOM] + draw(st.lists(st.sampled_from(symbols), max_size=2)))
    if not draw(st.booleans()):
        return pda
    push = draw(
        st.lists(st.sampled_from(symbols), min_size=1, max_size=3).filter(
            lambda push: not (len(push) == 2 and push[0] == BOTTOM)
        )
    )
    t = GeneralTransition(
        source=draw(st.sampled_from(states)),
        letter=draw(st.one_of(st.none(), st.sampled_from(["a", "b"]))),
        pop=BOTTOM,
        push=push,
        target=draw(st.sampled_from(states)),
    )
    assert not is_star_transition(t)
    return replace(pda, transitions=[*pda.transitions, t])


# Explicit limits: the normalized machine's defaults grow with its pumping
# length, and on epsilon-push loops the search would fill every stack up to
# them. A cut search says LimitExceeded and is skipped; the other verdicts
# are exact under any limits.
EQUIVALENCE_LIMITS = SearchLimits(max_steps=60, max_stack_height=12)


@given(bottom_popping_pdas())
@example(_bottom_loop())
@example(_bottom_to_y())
@settings(max_examples=100, deadline=None)
def test_normalize_keeps_the_language(pda):
    out = normalize(pda)
    assert validate(loads(dumps(out)).pda).ok
    for length in range(5):
        for letters in itertools.product("ab", repeat=length):
            word = "".join(letters)
            before = accepts(pda, word, EQUIVALENCE_LIMITS)
            after = accepts(out, word, EQUIVALENCE_LIMITS)
            if not isinstance(before, LimitExceeded) and not isinstance(after, LimitExceeded):
                assert before == after, word


@given(
    st.one_of(machines(), bottom_popping_pdas()),
    st.lists(st.text("ab", max_size=5), min_size=1, max_size=4),
    small_limits,
)
@settings(max_examples=300, deadline=None)
def test_the_source_decides_what_its_normalization_decides(pda, words, limits):
    """Each general step is one or more normalized steps, and no normalized
    stack is lower than the one it stands for, so under equal limits every
    verdict the normalized search decides is the source's verdict too:
    verify's search route may search the machine as written."""
    normalized = accepts_each(normalize(pda), words, limits)
    source = accepts_each(pda, words, limits)
    for word, before, after in zip(words, normalized, source):
        if not isinstance(before, LimitExceeded):
            assert after == before, word
