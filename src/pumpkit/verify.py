"""Decomposition verification along two independent routes.

A decomposition carries four run cuts a <= b <= c <= e, the step positions
of the found run where v, x, y and z start. The pumped run u·v^n·x·y^n·z is
the found run with the steps a..b and the steps c..e each repeated n times.
The replay route splices the run's transitions at those cuts and replays
the spliced sequence against the pumped word. The search route ignores the
run entirely and asks the membership search: verify hands the pumped words
of every n to one accepts_each call, which searches their common prefix
once, then each word's remainder, and their common suffix once wherever
the words reach it with equal descriptions (it finds the prefix and the
suffix from the words, not from u and z). The two
routes share no splicing or decomposition logic, so a bug in the
construction cannot silently confirm itself.

replay_pumps checks several pump counts against one walk of the found run.
Everything that repeats lies between the first cut a and the last cut that
still has a repeated stretch before it: e is the fourth cut, or the second
when the third and fourth coincide and nothing repeats after the second.
The walk keeps the configuration (state, stack, input position) at a and at
e, and whether the steps after e end accepting with all input read. These
checkpoints depend on the run and the cuts alone, not on n, so one walk
serves every caller that checks the same cuts: extract walks the found run
once per candidate and keeps the checkpoints of the one it returns on its
result, and verify, handed them with that result's run and decomposition,
uses them instead of walking the run again. Checkpoints of another run or
of other cuts are ignored and the run is walked. For each n the steps
between a and e are always walked. The part before a is
taken from the first checkpoint only when the pumped word starts with the
letters the found run read up to a; the part after e is taken from the
found run's verdict only when the walk reaches e's state with an equal
stack and the input left equals the found run's. Replay is deterministic
and a step reads nothing but the state, the stack top and the next letter,
so an equal configuration before equal steps and equal input gives an
equal outcome: the reuse is exact, and everything else is walked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .run import Accepted, LimitExceeded, ReplayError, RunPath, accepts_each, walk


def pumped_word(decomposition, n: int):
    d = decomposition
    return d.u + d.v * n + d.x + d.y * n + d.z


def spliced_steps(path: RunPath, decomposition, n: int) -> tuple:
    """Transition sequence that should accept the n-pumped word: the found
    run with the steps between the first two cuts and between the last two
    each repeated n times."""
    steps = path.steps
    a, b, c, e = decomposition.cuts
    return steps[:a] + steps[a:b] * n + steps[b:c] + steps[c:e] * n + steps[e:]


def _accepting(pda, reached, word) -> bool:
    """Whether a walk's outcome is an accept state with all of word read."""
    if isinstance(reached, ReplayError):
        return False
    state, pos = reached
    return state in pda.accept_states and pos == len(word)


@dataclass(frozen=True)
class _Checkpoints:
    """What one walk of the found run `path` keeps for the decomposition
    cuts `cuts`: the configuration (state, stack, input position) at a and
    at e, each None when a step before it cannot fire, and whether the
    steps after e end accepting with all input read."""

    path: RunPath
    cuts: tuple
    start: tuple | None
    end: tuple | None
    suffix_ok: bool


def _repeated_stretch(path: RunPath, cuts) -> tuple[int, int]:
    """The step positions a and e that enclose everything pumping repeats;
    the whole run when the cuts fall outside it."""
    a, b, c, e = cuts
    if c == e:
        e = b  # nothing repeats after the second cut
    if not 0 <= a <= e <= len(path.steps):
        a, e = 0, len(path.steps)  # cuts outside the run: walk each spliced run whole
    return a, e


def _walk_found_run(pda, path: RunPath, cuts) -> _Checkpoints:
    """Walk the found run once, keeping the checkpoints for `cuts`."""
    steps, word = path.steps, path.word
    a, e = _repeated_stretch(path, cuts)
    start = end = None
    suffix_ok = False
    stack = list(pda.initial_stack)
    reached = walk(steps[:a], word, pda.initial_state, stack, 0)
    if not isinstance(reached, ReplayError):
        start = (reached[0], stack.copy(), reached[1])
        reached = walk(steps[a:e], word, reached[0], stack, reached[1])
        if not isinstance(reached, ReplayError):
            end = (reached[0], stack.copy(), reached[1])
            suffix_ok = _accepting(pda, walk(steps[e:], word, reached[0], stack, reached[1]), word)
    return _Checkpoints(path, cuts, start, end, suffix_ok)


def replay_pumps(pda, path: RunPath, decomposition, n_set, checkpoints=None) -> tuple[bool, ...]:
    """For each n in n_set, whether the spliced run accepts the n-pumped word.

    Equal to replaying spliced_steps against pumped_word for each n, from
    one walk of the found run; see the module docstring. `checkpoints`,
    from an earlier walk of the same run for the same cuts, stand in for
    that walk; any others are ignored.
    """
    d = decomposition
    if checkpoints is None or checkpoints.path is not path or checkpoints.cuts != d.cuts:
        checkpoints = _walk_found_run(pda, path, d.cuts)
    word = path.word
    a, e = _repeated_stretch(path, d.cuts)
    tail = len(path.steps) - e
    start, end, suffix_ok = checkpoints.start, checkpoints.end, checkpoints.suffix_ok

    def pumped_run_accepts(n: int) -> bool:
        wn = pumped_word(d, n)
        spliced = spliced_steps(path, d, n)
        if start is not None and wn[: start[2]] == word[: start[2]]:
            state, stack, pos = start[0], start[1].copy(), start[2]
        else:
            stack = list(pda.initial_stack)
            reached = walk(spliced[:a], wn, pda.initial_state, stack, 0)
            if isinstance(reached, ReplayError):
                return False
            state, pos = reached
        middle_end = len(spliced) - tail
        reached = walk(spliced[a:middle_end], wn, state, stack, pos)
        if isinstance(reached, ReplayError):
            return False
        state, pos = reached
        if end is not None and state == end[0] and stack == end[1] and wn[pos:] == word[end[2] :]:
            return suffix_ok
        return _accepting(pda, walk(spliced[middle_end:], wn, state, stack, pos), wn)

    return tuple(pumped_run_accepts(n) for n in n_set)


def _search_verdict(outcome) -> str:
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


def check_constraints(decomposition, word) -> ConstraintReport:
    """Structural pumping constraints: concatenation, |vxy| against p, |vy| >= 1.

    The achieved |vxy| is always reported; callers decide how hard to lean on
    the bound (the tail-heavy Case 1 factorization can exceed it even when
    the pumping itself is sound).
    """
    d = decomposition
    p = d.params.p
    vxy = len(d.v) + len(d.x) + len(d.y)
    return ConstraintReport(
        concatenation_ok=(d.u + d.v + d.x + d.y + d.z) == word,
        length_bound_ok=vxy <= p,
        vxy_length=vxy,
        bound=p,
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


def verify(pda, path: RunPath, decomposition, n_set=DEFAULT_N_SET, checkpoints=None) -> VerificationReport:
    """Run both verification routes for each n and collect the report on
    the found run's word. `checkpoints` are the ones extract keeps on its
    result; the replay route uses them as replay_pumps does."""
    n_set = tuple(n_set)
    replayed = replay_pumps(pda, path, decomposition, n_set, checkpoints)
    searched = accepts_each(pda, [pumped_word(decomposition, n) for n in n_set])
    verdicts = tuple(
        PumpVerdict(n=n, replay_ok=ok, search=_search_verdict(outcome))
        for n, ok, outcome in zip(n_set, replayed, searched)
    )
    return VerificationReport(
        word=path.word,
        constraints=check_constraints(decomposition, path.word),
        verdicts=verdicts,
    )
