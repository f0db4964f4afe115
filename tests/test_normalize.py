import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpkit import (
    BOTTOM,
    Accepted,
    BUILTINS,
    GeneralPda,
    GeneralTransition,
    PumpingLengthOverflowError,
    accepts,
    dumps,
    is_star_form,
    normalize,
    pumping_params,
    validate,
)


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
