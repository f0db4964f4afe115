from pumpkit import (
    BLANK,
    BOTTOM,
    GeneralPda,
    GeneralTransition,
    NormalizedPda,
    NormalizedTransition,
    ReplayError,
    RunPath,
    is_star_form,
    normalize,
    replay,
    validate,
)
from pumpkit.record import replace


def make_general(**overrides):
    base = dict(
        states=["q0", "qf"],
        input_alphabet=["a"],
        stack_alphabet=[BOTTOM, "A"],
        initial_state="q0",
        initial_stack=[BOTTOM],
        accept_states=["qf"],
        transitions=[GeneralTransition("q0", "a", BOTTOM, (BOTTOM, "A"), "qf")],
    )
    base.update(overrides)
    return GeneralPda(**base)


class TestTransitions:
    def test_normalized_push_shapes(self):
        pop_only = NormalizedTransition("q", "a", "X", None, "q")
        assert pop_only.push == ()

        push_one = NormalizedTransition("q", "a", "X", "Y", "q")
        assert push_one.push == ("X", "Y")

    def test_normalized_push_is_stored_and_stays_out_of_identity(self):
        t = NormalizedTransition("q", "a", "X", "Y", "q")
        assert t.push is t.push
        assert replace(t, extra=None).push == ()
        # equality, hash and repr see the five declared fields only
        assert t == NormalizedTransition("q", "a", "X", "Y", "q")
        assert hash(t) == hash(("q", "a", "X", "Y", "q"))
        assert repr(t) == "NormalizedTransition(source='q', letter='a', pop='X', extra='Y', target='q')"

    def test_push_coerced_to_tuple(self):
        t = GeneralTransition("q", None, "X", ["A", "B"], "q")
        assert t.push == ("A", "B")


class TestStep:
    """Single-step semantics, through replay of one- and two-step runs."""

    def test_step_applies_push_deepest_first(self):
        pda = make_general()
        run = replay(pda, pda.transitions, "a")
        assert isinstance(run, RunPath)
        assert run.state_at(1) == "qf"
        assert run.stack_at(1) == (BOTTOM, "A")
        assert replay(pda, pda.transitions, "aa") == ReplayError(1, "input-remaining")

    # Each refused step below is a transition of the machine, so only the
    # state, the stack or the letter can refuse it.
    def test_step_rejects_wrong_source(self):
        bad = GeneralTransition("qf", "a", BOTTOM, (), "q0")
        pda = make_general(transitions=[*make_general().transitions, bad])
        assert replay(pda, [bad], "a") == ReplayError(0, "inapplicable")

    def test_step_rejects_wrong_top(self):
        bad = GeneralTransition("q0", "a", "A", (), "qf")
        pda = make_general(transitions=[*make_general().transitions, bad])
        assert replay(pda, [bad], "a") == ReplayError(0, "inapplicable")

    def test_step_rejects_empty_stack(self):
        pop_bottom = GeneralTransition("q0", None, BOTTOM, (), "q0")
        pda = make_general(transitions=[*make_general().transitions, pop_bottom])
        assert replay(pda, [pop_bottom, pda.transitions[0]], "a") == ReplayError(1, "inapplicable")

    def test_step_outside_the_machine_is_refused(self):
        pda = make_general()
        stranger = GeneralTransition("q0", "a", BOTTOM, (BOTTOM,), "qf")
        assert replay(pda, [stranger], "a") == ReplayError(0, "inapplicable")
        assert isinstance(replay(pda, [GeneralTransition("q0", "a", BOTTOM, [BOTTOM, "A"], "qf")], "a"), RunPath)

    def test_step_checks_word_letter(self):
        pda = make_general()
        assert replay(pda, pda.transitions, "b") == ReplayError(0, "input-mismatch")
        assert replay(pda, pda.transitions, "") == ReplayError(0, "input-mismatch")


RECORD_FIELDS = dict(
    states=["q"],
    input_alphabet=["a"],
    stack_alphabet=[BOTTOM],
    initial_state="q",
    initial_stack=[BOTTOM],
    accept_states=["q"],
    transitions=[],
)


class TestMachineRecord:
    def test_kinds_differ_on_equal_fields(self):
        general, normalized = GeneralPda(**RECORD_FIELDS), NormalizedPda(**RECORD_FIELDS)
        assert general != normalized and normalized != general
        assert general == GeneralPda(**RECORD_FIELDS)
        assert normalized == NormalizedPda(**RECORD_FIELDS)
        assert len({general, normalized}) == 2

    def test_hash_is_the_field_tuple(self):
        for kind in (GeneralPda, NormalizedPda):
            m = kind(**RECORD_FIELDS)
            fields = (
                m.states,
                m.input_alphabet,
                m.stack_alphabet,
                m.initial_state,
                m.initial_stack,
                m.accept_states,
                m.transitions,
            )
            assert hash(m) == hash(fields)

    def test_repr_names_the_kind(self):
        body = (
            "(states=frozenset({'q'}), input_alphabet=frozenset({'a'}),"
            " stack_alphabet=frozenset({'⊥'}), initial_state='q', initial_stack=('⊥',),"
            " accept_states=frozenset({'q'}), transitions=())"
        )
        assert repr(GeneralPda(**RECORD_FIELDS)) == "GeneralPda" + body
        assert repr(NormalizedPda(**RECORD_FIELDS)) == "NormalizedPda" + body


class TestStarForm:
    def test_star_form_accepts_both_shapes(self):
        pda = NormalizedPda(
            states=["q"],
            input_alphabet=["a"],
            stack_alphabet=[BOTTOM, "A"],
            initial_state="q",
            initial_stack=[BOTTOM],
            accept_states=["q"],
            transitions=[
                NormalizedTransition("q", "a", BOTTOM, "A", "q"),
                NormalizedTransition("q", "a", "A", None, "q"),
            ],
        )
        assert is_star_form(pda)

    def test_star_form_rejects_wide_and_replacing_pushes(self):
        assert not is_star_form(
            make_general(transitions=[GeneralTransition("q0", "a", BOTTOM, ("A", "A"), "qf")])
        )
        assert not is_star_form(
            make_general(
                stack_alphabet=[BOTTOM, "A", "B", "C"],
                transitions=[GeneralTransition("q0", "a", BOTTOM, (BOTTOM, "A", "B"), "qf")],
            )
        )

    def test_net_zero_push_is_not_star(self):
        assert not is_star_form(
            make_general(transitions=[GeneralTransition("q0", "a", BOTTOM, (BOTTOM,), "qf")])
        )


class TestValidate:
    def test_clean_machine(self):
        report = validate(make_general())
        assert report.ok
        assert report.issues == ()

    def test_blank_in_alphabet(self):
        report = validate(make_general(stack_alphabet=[BOTTOM, "A", BLANK]))
        assert not report.ok
        assert any(i.code == "blank-in-alphabet" for i in report.issues)

    def test_input_symbols_are_one_character(self):
        for symbol in ("ab", ""):
            report = validate(make_general(input_alphabet=["a", symbol]))
            assert [i.code for i in report.issues] == ["bad-input-symbol"]
            assert repr(symbol) in report.issues[0].message

    def test_undeclared_states(self):
        report = validate(make_general(initial_state="nope"))
        assert any(i.code == "undeclared-state" for i in report.issues)
        report = validate(make_general(accept_states=["ghost"]))
        assert any(i.code == "undeclared-state" for i in report.issues)
        report = validate(
            make_general(transitions=[GeneralTransition("q0", "a", BOTTOM, (), "ghost")])
        )
        assert any(i.code == "undeclared-state" for i in report.issues)

    def test_bad_initial_stack(self):
        report = validate(make_general(initial_stack=[]))
        assert any(i.code == "bad-initial-stack" for i in report.issues)
        report = validate(make_general(initial_stack=["A"]))
        assert any(i.code == "bad-initial-stack" for i in report.issues)

    def test_undeclared_symbols(self):
        report = validate(
            make_general(transitions=[GeneralTransition("q0", "z", BOTTOM, (), "qf")])
        )
        assert any(i.code == "undeclared-input-symbol" for i in report.issues)
        report = validate(
            make_general(transitions=[GeneralTransition("q0", "a", "Z", (), "qf")])
        )
        assert any(i.code == "undeclared-stack-symbol" for i in report.issues)
        report = validate(
            make_general(transitions=[GeneralTransition("q0", "a", BOTTOM, ("Z",), "qf")])
        )
        assert any(i.code == "undeclared-stack-symbol" for i in report.issues)

    def test_star_violation_on_normalized_machine(self):
        # NormalizedTransition cannot express a bad shape, but a doctored
        # machine type mix can; simulate with a general transition object.
        pda = NormalizedPda(
            states=["q"],
            input_alphabet=["a"],
            stack_alphabet=[BOTTOM, "A"],
            initial_state="q",
            initial_stack=[BOTTOM],
            accept_states=["q"],
            transitions=[],
        )
        doctored = object.__new__(NormalizedPda)
        for f in ("states", "input_alphabet", "stack_alphabet", "initial_state", "initial_stack", "accept_states"):
            object.__setattr__(doctored, f, getattr(pda, f))
        object.__setattr__(
            doctored, "transitions", (GeneralTransition("q", "a", BOTTOM, ("A", "A"), "q"),)
        )
        report = validate(doctored)
        assert any(i.code == "star-violation" for i in report.issues)

    def test_pushes_rooted_in_the_bottom_marker_are_well_formed(self):
        # normalize gives such a machine a new bottom marker, so it keeps
        # its language and validate has nothing to say about it
        for machine in (
            make_general(transitions=[GeneralTransition("q0", "a", BOTTOM, ("A",), "qf")]),
            make_general(
                states=["q0"],
                input_alphabet=["a", "b"],
                stack_alphabet=[BOTTOM],
                accept_states=["q0"],
                transitions=[
                    GeneralTransition("q0", "a", BOTTOM, (BOTTOM,), "q0"),
                    GeneralTransition("q0", "b", BOTTOM, (BOTTOM, BOTTOM), "q0"),
                ],
            ),
        ):
            report = validate(machine)
            assert report.issues == ()
            assert validate(normalize(machine)).issues == ()

    def test_bottom_pop_without_push_is_not_flagged(self):
        report = validate(
            make_general(transitions=[GeneralTransition("q0", "a", BOTTOM, (), "qf")])
        )
        assert report.issues == ()

    def test_corpus_machines_validate(self, anbn_general):
        from pumpkit import BUILTINS

        for entry in BUILTINS.values():
            report = validate(entry.pda)
            assert report.issues == (), (entry.name, report.issues)
        report = validate(anbn_general)
        assert report.issues == (), report.issues
