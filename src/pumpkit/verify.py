"""Decomposition verification along two independent routes.

verify_by_replay splices the original run's transitions according to the
decomposition's witness positions and replays the spliced sequence against
the pumped word. verify_by_search ignores the run entirely and asks the
membership search. The two routes share no splicing or decomposition logic,
so a bug in the construction cannot silently confirm itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .run import Accepted, LimitExceeded, RunPath, SearchLimits, accepts, replay


def pumped_word(decomposition, n: int):
    d = decomposition
    return d.u + d.v * n + d.x + d.y * n + d.z


def spliced_steps(path: RunPath, decomposition, n: int) -> tuple:
    """Transition sequence that should accept the n-pumped word.

    Case 1 repeats the loop between the two repeated configurations; Case 2
    repeats the push segment and the pop segment the same number of times.
    """
    steps = path.steps
    w = decomposition.witness
    if decomposition.case == "case1":
        return steps[: w.i] + steps[w.i : w.j] * n + steps[w.j :]
    return (
        steps[: w.lp_g]
        + steps[w.lp_g : w.lp_h] * n
        + steps[w.lp_h : w.fp_h]
        + steps[w.fp_h : w.fp_g] * n
        + steps[w.fp_g :]
    )


def verify_by_replay(pda, path: RunPath, decomposition, n: int) -> bool:
    """Replay the spliced run against the pumped word."""
    outcome = replay(pda, spliced_steps(path, decomposition, n), pumped_word(decomposition, n))
    return isinstance(outcome, RunPath)


def verify_by_search(pda, decomposition, n: int, limits: SearchLimits | None = None) -> str:
    """Membership verdict for the pumped word: accepted / rejected / limit."""
    word = pumped_word(decomposition, n)
    outcome = accepts(pda, word, limits)
    if isinstance(outcome, Accepted):
        return "accepted"
    if isinstance(outcome, LimitExceeded):
        return "limit"
    return "rejected"


@dataclass(frozen=True)
class ConstraintReport:
    concatenation_ok: bool
    length_bound_ok: bool
    vxy_length: int
    bound: int
    nontrivial_ok: bool


def check_constraints(decomposition, params, word) -> ConstraintReport:
    """Structural pumping constraints: concatenation, |vxy| against p, |vy| >= 1.

    The achieved |vxy| is always reported; callers decide how hard to lean on
    the bound (the tail-heavy Case 1 factorization can exceed it even when
    the pumping itself is sound).
    """
    d = decomposition
    vxy = len(d.v) + len(d.x) + len(d.y)
    return ConstraintReport(
        concatenation_ok=(d.u + d.v + d.x + d.y + d.z) == word,
        length_bound_ok=vxy <= params.p,
        vxy_length=vxy,
        bound=params.p,
        nontrivial_ok=len(d.v) + len(d.y) >= 1,
    )


@dataclass(frozen=True)
class PumpVerdict:
    n: int
    replay_ok: bool
    search: str  # accepted / rejected / limit

    @property
    def consistent(self) -> bool:
        # The two routes may only disagree when the search was truncated.
        return self.search == "limit" or self.replay_ok == (self.search == "accepted")

    @property
    def ok(self) -> bool:
        return self.replay_ok and self.search == "accepted"


@dataclass(frozen=True)
class VerificationReport:
    word: object
    constraints: ConstraintReport
    verdicts: tuple[PumpVerdict, ...]

    @property
    def consistent(self) -> bool:
        return all(v.consistent for v in self.verdicts)

    @property
    def overall(self) -> bool:
        return (
            self.constraints.concatenation_ok
            and self.constraints.length_bound_ok
            and self.constraints.nontrivial_ok
            and all(v.ok for v in self.verdicts)
        )

    @property
    def pumping_ok(self) -> bool:
        """Everything except the length bound: the gate for exit codes."""
        return (
            self.constraints.concatenation_ok
            and self.constraints.nontrivial_ok
            and all(v.ok for v in self.verdicts)
        )


DEFAULT_N_SET = (0, 1, 2, 3, 4)


def verify(pda, path: RunPath, decomposition, params, word, n_set=DEFAULT_N_SET) -> VerificationReport:
    """Run both verification routes for each n and collect the report."""
    verdicts = tuple(
        PumpVerdict(
            n=n,
            replay_ok=verify_by_replay(pda, path, decomposition, n),
            search=verify_by_search(pda, decomposition, n),
        )
        for n in n_set
    )
    return VerificationReport(
        word=word,
        constraints=check_constraints(decomposition, params, word),
        verdicts=verdicts,
    )
