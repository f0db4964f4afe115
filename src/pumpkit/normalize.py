"""Rewrite a general machine into the pop-or-push-one shape and size its pumping length.

The rewrite replaces each long push with a pop step followed by a chain of
epsilon pushes through fresh intermediate states. Fresh state names are a
deterministic function of the transition's declared index and the number of
symbols already pushed, so normalizing the same machine twice yields
byte-identical output.
"""

from __future__ import annotations

from .errors import PumpingLengthOverflowError
from .pda import BOTTOM, GeneralPda, GeneralTransition, NormalizedPda, NormalizedTransition, is_star_transition
from .record import record

# Generous ceiling on the bit length of the pumping length. Machines beyond
# this are not usable at desk scale anyway.
DEFAULT_P_BIT_LIMIT = 1_000_000


def _fresh_prefix(names: frozenset[str]) -> str:
    prefix = "@"
    while any(s.startswith(prefix) for s in names):
        prefix += "@"
    return prefix


def _under_new_bottom(pda: GeneralPda) -> GeneralPda:
    """The same machine with its bottom marker renamed to a fresh symbol,
    and a new bottom marker under its initial stack."""
    renamed = _fresh_prefix(pda.stack_alphabet) + BOTTOM

    def rename(symbol: str) -> str:
        return renamed if symbol == BOTTOM else symbol

    return GeneralPda(
        states=pda.states,
        input_alphabet=pda.input_alphabet,
        stack_alphabet=pda.stack_alphabet | {renamed},
        initial_state=pda.initial_state,
        initial_stack=(BOTTOM, *map(rename, pda.initial_stack)),
        accept_states=pda.accept_states,
        transitions=[
            GeneralTransition(t.source, t.letter, rename(t.pop), tuple(map(rename, t.push)), t.target)
            for t in pda.transitions
        ],
    )


def normalize(pda: GeneralPda) -> NormalizedPda:
    """Convert to the pop-only / push-one transition shape.

    Transitions already in shape map one-to-one (no intermediate states).
    A push of k symbols becomes: one transition that consumes the original
    letter and pops without pushing, then k epsilon pushes, each defined for
    every possible current top symbol. The chain needs a top to push onto,
    so when some transition outside that shape pops the bottom marker, which
    may be the only symbol, the machine's own marker is renamed to a fresh
    symbol everywhere and a new marker goes under it.
    Only the chain pushes pop the new marker, and they put it back, so the
    language is kept; every other machine keeps its stack alphabet.
    """
    if any(t.pop == BOTTOM and not is_star_transition(t) for t in pda.transitions):
        pda = _under_new_bottom(pda)
    prefix = _fresh_prefix(pda.states)
    symbols = sorted(pda.stack_alphabet)
    out: list[NormalizedTransition] = []
    fresh: list[str] = []

    for idx, t in enumerate(pda.transitions):
        push = t.push
        if is_star_transition(t):
            extra = push[1] if push else None
            out.append(NormalizedTransition(t.source, t.letter, t.pop, extra, t.target))
            continue
        # Expansion: the original letter rides on the initial pop.
        chain = [f"{prefix}{idx}.{i}" for i in range(len(push))]
        fresh.extend(chain)
        out.append(NormalizedTransition(t.source, t.letter, t.pop, None, chain[0]))
        hops = chain[1:] + [t.target]
        for sym, hop_from, hop_to in zip(push, chain, hops):
            for z in symbols:
                out.append(NormalizedTransition(hop_from, None, z, sym, hop_to))

    return NormalizedPda(
        states=pda.states | frozenset(fresh),
        input_alphabet=pda.input_alphabet,
        stack_alphabet=pda.stack_alphabet,
        initial_state=pda.initial_state,
        initial_stack=pda.initial_stack,
        accept_states=pda.accept_states,
        transitions=tuple(out),
    )


@record
class PumpingParams:
    """Derived pumping sizes for a normalized machine.

    p_prime = |states|^2 * |stack alphabet|
    p       = |states| * (|stack alphabet| + 1)^p_prime

    The padding symbol is not a stack-alphabet member and is not counted;
    the +1 in the base accounts for it in configuration counting.
    """

    p_prime: int
    p: int
    state_count: int
    stack_symbol_count: int


def pumping_params(pda: NormalizedPda, bit_limit: int = DEFAULT_P_BIT_LIMIT) -> PumpingParams:
    """Compute (p', p) for a normalized machine.

    Raises PumpingLengthOverflowError when p would exceed bit_limit bits;
    p grows doubly exponentially in the machine size, so the guard estimates
    the bit length before materializing the power.
    """
    a = len(pda.states)
    g = len(pda.stack_alphabet)
    if a < 1 or g < 1:
        raise ValueError("machine must have at least one state and one stack symbol")
    p_prime = a * a * g
    base = g + 1
    estimated_bits = p_prime * base.bit_length() + a.bit_length()
    if estimated_bits > bit_limit:
        raise PumpingLengthOverflowError(p_prime, base, p_prime, bit_limit)
    p = a * base**p_prime
    return PumpingParams(p_prime=p_prime, p=p, state_count=a, stack_symbol_count=g)
