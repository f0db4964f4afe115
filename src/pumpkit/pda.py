"""Pushdown automaton core: machine types, the star-shape test, validation.

Conventions used throughout the toolkit:

- Stacks are written deepest-first; the top of the stack is the LAST element.
- Every transition pops exactly one symbol. General transitions may push any
  sequence (deepest-first, so push[0] lands deepest); normalized transitions
  either push nothing (net -1) or restore the popped symbol and add one more
  (net +1).
- A reserved bottom marker sits deepest in the initial stack. It is an
  ordinary member of the stack alphabet and may be popped; machines that need
  an emptiness check pop it explicitly on the way to an accept state.
- A reserved blank symbol exists outside the stack alphabet. It never appears
  on stacks; level analysis uses it to pad shallow configurations.
- Acceptance is by final state with the entire input consumed. Leftover stack
  is fine.
"""

from __future__ import annotations

from .record import field, record

BOTTOM = "⊥"  # bottom-of-stack marker
BLANK = "␣"   # padding symbol, never a member of the stack alphabet


@record
class GeneralTransition:
    """Pop one symbol, push any sequence. letter=None means an epsilon move."""

    source: str
    letter: str | None
    pop: str
    push: tuple[str, ...]
    target: str

    def __post_init__(self):
        object.__setattr__(self, "push", tuple(self.push))


@record
class NormalizedTransition:
    """Pop one symbol and either push nothing or restore it plus one extra.

    extra=None encodes the pop-only shape. Otherwise the pushed sequence is
    (pop, extra): the popped symbol goes back and extra lands on top.
    """

    source: str
    letter: str | None
    pop: str
    extra: str | None
    target: str
    # The pushed sequence, set once by __post_init__ for the search and
    # replay loops; outside ==, hash and repr, which extra already determines.
    push: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "push", () if self.extra is None else (self.pop, self.extra))


Transition = GeneralTransition | NormalizedTransition


@record
class _MachineRecord:
    """The fields shared by both machine kinds, coerced to immutable
    containers. == tells the kinds apart: record equality needs one class."""

    states: frozenset[str]
    input_alphabet: frozenset[str]
    stack_alphabet: frozenset[str]
    initial_state: str
    initial_stack: tuple[str, ...]
    accept_states: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "input_alphabet", frozenset(self.input_alphabet))
        object.__setattr__(self, "stack_alphabet", frozenset(self.stack_alphabet))
        object.__setattr__(self, "initial_stack", tuple(self.initial_stack))
        object.__setattr__(self, "accept_states", frozenset(self.accept_states))
        object.__setattr__(self, "transitions", tuple(self.transitions))


class GeneralPda(_MachineRecord):
    """A machine whose transitions may push any sequence (GeneralTransition)."""


class NormalizedPda(_MachineRecord):
    """A machine whose transitions all have the pop-only or push-one shape.

    Consecutive stack sizes along any run differ by exactly 1, which is what
    the level analysis relies on. The shape is checked by validate(), not
    enforced by construction.
    """


Pda = GeneralPda | NormalizedPda


def is_star_transition(t: Transition) -> bool:
    """True iff t pushes either nothing or exactly [popped, extra]."""
    push = t.push
    return len(push) == 0 or (len(push) == 2 and push[0] == t.pop)


def is_star_form(pda: Pda) -> bool:
    """True iff every transition pops one symbol and pushes either nothing
    or exactly [popped, extra]."""
    return all(is_star_transition(t) for t in pda.transitions)


@record
class Issue:
    code: str
    message: str


@record
class ValidationReport:
    issues: tuple[Issue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(pda: Pda) -> ValidationReport:
    """Check the structural invariants of a machine.

    Every issue is an error; an empty issue list means well-formed.
    """
    issues: list[Issue] = []

    def err(code: str, message: str):
        issues.append(Issue(code, message))

    if BLANK in pda.stack_alphabet:
        err("blank-in-alphabet", f"the padding symbol {BLANK!r} must stay outside the stack alphabet")
    if BLANK in pda.input_alphabet:
        err("blank-in-alphabet", f"the padding symbol {BLANK!r} must stay outside the input alphabet")
    for a in sorted(pda.input_alphabet):
        if len(a) != 1:
            err("bad-input-symbol", f"input symbol {a!r} must be one character: words are read one at a time")
    if pda.initial_state not in pda.states:
        err("undeclared-state", f"initial state {pda.initial_state!r} is not declared")
    for q in sorted(pda.accept_states):
        if q not in pda.states:
            err("undeclared-state", f"accept state {q!r} is not declared")
    if not pda.initial_stack:
        err("bad-initial-stack", "initial stack must not be empty")
    elif pda.initial_stack[0] != BOTTOM:
        err("bad-initial-stack", f"the deepest initial symbol must be the bottom marker {BOTTOM!r}")
    for sym in pda.initial_stack:
        if sym not in pda.stack_alphabet:
            err("undeclared-stack-symbol", f"initial stack symbol {sym!r} is not declared")

    normalized = isinstance(pda, NormalizedPda)
    for n, t in enumerate(pda.transitions):
        where = f"transition #{n}"
        if t.source not in pda.states:
            err("undeclared-state", f"{where}: source {t.source!r} is not declared")
        if t.target not in pda.states:
            err("undeclared-state", f"{where}: target {t.target!r} is not declared")
        if t.letter is not None and t.letter not in pda.input_alphabet:
            err("undeclared-input-symbol", f"{where}: letter {t.letter!r} is not declared")
        if t.pop not in pda.stack_alphabet:
            err("undeclared-stack-symbol", f"{where}: pop symbol {t.pop!r} is not declared")
        push = t.push
        for sym in push:
            if sym not in pda.stack_alphabet:
                err("undeclared-stack-symbol", f"{where}: push symbol {sym!r} is not declared")
        if normalized and not is_star_transition(t):
            err(
                "star-violation",
                f"{where}: normalized transitions must push nothing or [popped, extra], got {list(push)}",
            )

    return ValidationReport(tuple(issues))
