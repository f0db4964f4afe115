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

The search route searches `source`, the machine the found run's machine
was normalized from, under one set of limits for all pumped words: those
default_limits gives the normalized machine for the longest one, which are
at least each word's own. Larger limits never change a decided verdict;
they can only turn a `limit` into an answer. Each step of the source is
one or more normalized steps, and no normalized stack is lower than the
source stack it stands for. So under equal limits a cut of the source
search implies a cut of the normalized one, and an accepting normalized
run within the limits projects onto an accepting source run within them:
every verdict the normalized search decides is the source's too, and only
a normalized `limit` may turn into an answer. The source's search is the
cheaper one wherever normalization adds chain states, as on GEN_PAL, and
the search route then shares neither machine nor code with the replay
route.

replay_pumps checks several pump counts against one walk of the found run,
which keeps the five pieces between its start, the four cuts and its end
as the reuse rule below reads them: for each, the states it starts and
ends in, its letters, the top r symbols of the stack before it and the
symbols that replace them after it, and no more of the stack. These
checkpoints depend on the run and the cuts alone, not on n or on the
machine's accept states, so one walk serves every caller that checks the
same cuts: extract walks the found run once per candidate and keeps the
checkpoints of the one it returns on its result, and verify, handed them
with that result's run and decomposition, uses them instead of walking the
run and reading its pieces again. Checkpoints of another run, of other
cuts or of a machine with other transitions are ignored and the run is
walked; cuts out of order or outside the run keep no checkpoints, and each
spliced run is walked whole. A run that replay_pumps walks itself may be
any caller's, so it first checks that each piece's steps are among the
machine's transitions, as replay does: a pumped run that takes a copy of a
piece holding any other step fails, as its replay would. extract's run
holds its machine's transitions by construction, and with its checkpoints,
under that machine's transitions, the check is skipped.

Each pumped run goes through five pieces of the found run in turn: u
(steps 0..a), v (a..b) n times, x (b..c), y (c..e) n times and the tail
(e to the end), and takes every copy by one rule. A step reads the stack
top and writes above the symbol it pops, so a stretch s..t reads and
writes only the top r = profile[s] - min(profile[s..t]) + 1 symbols of the
stack it starts on. Replay is deterministic and a step reads nothing but
the state, the stack top and the next letter, so a pumped run that enters
a copy in the found run's state at s, with the found run's top r symbols
there and the letters the piece reads ahead, ends it as the found run
ended the piece, with the stack below the top r untouched: the copy is
taken from the piece's stretch. Any other copy is walked, as is a
piece the found run's walk did not get through. The reuse is exact.
Acceptance is judged once, at the end of each pumped run: its state must
be an accept state of the machine passed in, with all of the pumped word
read, the test a full replay makes. A piece's letters are compared, not
the input left, and the checkpoints keep no verdict, so a taken tail says
nothing of acceptance, and checkpoints walked under one machine give the
right answer under another with the same transitions. On every corpus decomposition each copy of
each piece is taken for n = 0..8, so checking them walks the found run and
nothing else. Taking a copy of v or y where the pumped run enters it as
the found run did is the induction step of the paper's argument, but it is
checked only at the counts sampled, and is no proof for all n.
"""

from __future__ import annotations

from .record import record
from .run import Accepted, LimitExceeded, ReplayError, RunPath, default_limits, profile_extreme, walk
from .search import accepts_each


def pumped_word(decomposition, n: int):
    """u v^n x y^n z; a negative n raises ValueError, as there is no such word."""
    if n < 0:
        raise ValueError(f"pump count must be >= 0, got {n}")
    d = decomposition
    return d.u + d.v * n + d.x + d.y * n + d.z


@record
class _Checkpoints:
    """What one walk of the found run `path`, under a machine with the
    transitions `transitions`, keeps for the decomposition cuts `cuts`: the
    five pieces u, v, x, y and the tail as stretches of the run. The stretch
    of a piece with a step that cannot fire is None, as are those of the
    pieces after it, and all are None when the cuts are out of order or
    outside the run."""

    path: RunPath
    transitions: tuple
    cuts: tuple
    stretches: tuple


@record
class _Stretch:
    """A stretch s..t of the found run as the reuse rule reads it (see the
    module docstring): the state it starts in, r, the top r symbols of the
    stack it starts on (all of it when that holds fewer), the letters it
    reads, the symbols it leaves in place of that top, and the state it
    ends in."""

    state: str
    r: int
    top: list
    letters: object
    top_after: list
    state_after: str


def _walk_found_run(pda, path: RunPath, cuts) -> _Checkpoints:
    """Walk the found run once, piece by piece, keeping the stretch of each
    piece between `cuts`. Only the top r symbols of the stack before a piece
    and the symbols that replace them after it are copied."""
    steps, word, profile = path.steps, path.word, path.profile
    bounds, stretches = (0, *cuts, len(steps)), []
    if 0 <= cuts[0] and list(cuts) == sorted(cuts) and cuts[-1] <= len(steps):
        state, stack, pos = pda.initial_state, list(pda.initial_stack), 0
        for s, t in zip(bounds, bounds[1:]):
            r = profile[s] - profile_extreme(min, profile, path.runs, s, t) + 1
            below = max(len(stack) - r, 0)
            top = stack[below:]
            reached = walk(steps[s:t], word, state, stack, pos)
            if isinstance(reached, ReplayError):
                break
            state_after, pos_after = reached
            stretches.append(_Stretch(state, r, top, word[pos:pos_after], stack[below:], state_after))
            state, pos = reached
    stretches += [None] * (len(bounds) - 1 - len(stretches))
    return _Checkpoints(path, pda.transitions, cuts, tuple(stretches))


def _enters(stretch: _Stretch, state, stack, ahead) -> bool:
    """Whether a walk in `state` on `stack`, with the letters `ahead` of
    it, starts the stretch as the found run did. stack[-r:] is the whole
    stack when it holds fewer than r symbols, so a short top matches only
    a stack that equals it."""
    return state == stretch.state and stack[-stretch.r :] == stretch.top and ahead == stretch.letters


def replay_pumps(pda, path: RunPath, decomposition, n_set, checkpoints=None) -> tuple[bool, ...]:
    """For each n in n_set, whether the spliced run accepts the n-pumped word.

    Equal to replaying the spliced run against pumped_word for each n,
    from one walk of the found run: each pumped run goes through the pieces
    u, v n times, x, y n times and the tail, taking each copy from that walk
    when it enters the copy as the found run entered the piece and walking
    it otherwise, and is judged accepting once, at its end, by `pda`; see
    the module docstring. `checkpoints`, from an earlier walk of the same
    run for the same cuts under a machine with the same transitions, stand
    in for that walk; any others are ignored, and then a step of the run
    that is not a transition of `pda` never fires, as in replay.
    """
    d = decomposition
    steps = path.steps
    bounds = (0, *d.cuts, len(steps))
    spans = tuple(zip(bounds, bounds[1:]))
    fires = (True,) * len(spans)
    if (
        checkpoints is None
        or checkpoints.path is not path
        or checkpoints.transitions is not pda.transitions
        or checkpoints.cuts != d.cuts
    ):
        checkpoints = _walk_found_run(pda, path, d.cuts)
        # A caller's run may hold a step that is not a transition of pda,
        # which replay refuses: no copy of a piece that holds one fires.
        known = set(pda.transitions)
        fires = tuple(known.issuperset(steps[s:t]) for s, t in spans)
    pieces = tuple(zip(spans, checkpoints.stretches, fires))

    def pumped_run_accepts(n: int) -> bool:
        wn = pumped_word(d, n)
        state, stack, pos = pda.initial_state, list(pda.initial_stack), 0
        for ((s, t), found, piece_fires), copies in zip(pieces, (1, n, 1, n, 1)):
            if copies and not piece_fires:
                return False
            for _ in range(copies):
                if found is not None and _enters(found, state, stack, wn[pos : pos + len(found.letters)]):
                    del stack[len(stack) - len(found.top) :]
                    stack.extend(found.top_after)
                    state, pos = found.state_after, pos + len(found.letters)
                    continue
                reached = walk(steps[s:t], wn, state, stack, pos)
                if isinstance(reached, ReplayError):
                    return False
                state, pos = reached
        return state in pda.accept_states and pos == len(wn)

    return tuple(pumped_run_accepts(n) for n in n_set)


def _search_verdict(outcome) -> str:
    if isinstance(outcome, Accepted):
        return "accepted"
    if isinstance(outcome, LimitExceeded):
        return "limit"
    return "rejected"


@record
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


@record
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


@record
class VerificationReport:
    word: object
    constraints: ConstraintReport
    verdicts: tuple[PumpVerdict, ...]

    @property
    def consistent(self) -> bool:
        return all(v.consistent for v in self.verdicts)

    @property
    def pumping_ok(self) -> bool:
        """Everything except the length bound: the gate for exit codes."""
        return (
            self.constraints.concatenation_ok
            and self.constraints.nontrivial_ok
            and all(v.ok for v in self.verdicts)
        )

    @property
    def overall(self) -> bool:
        return self.pumping_ok and self.constraints.length_bound_ok


DEFAULT_N_SET = (0, 1, 2, 3, 4)


def verify(
    pda, path: RunPath, decomposition, n_set=DEFAULT_N_SET, checkpoints=None, source=None
) -> VerificationReport:
    """Run both verification routes for each n and collect the report on
    the found run's word.

    The replay route walks `path`, a run of `pda`, once. Each pumped run
    takes every copy of u, v, x, y and the tail from that walk wherever it
    enters the copy with the found run's state, top symbols and letters,
    walks the others, and is judged by `pda`'s accept states at its end;
    `checkpoints` are the ones extract keeps on its result, used as
    replay_pumps does. The
    search route searches `source`, the machine `pda` was normalized from
    (default: `pda` itself), in one batch under default_limits of `pda` for
    the longest pumped word: every word that the search of `pda` under its
    own default limits would decide gets the same verdict (see the module
    docstring). An empty n_set raises ValueError: with no pumped word
    there is no verdict to report.
    """
    n_set = tuple(n_set)
    if not n_set:
        raise ValueError("n_set must hold at least one pump count")
    replayed = replay_pumps(pda, path, decomposition, n_set, checkpoints)
    words = [pumped_word(decomposition, n) for n in n_set]
    limits = default_limits(pda, max(words, key=len))
    searched = accepts_each(pda if source is None else source, words, limits)
    verdicts = tuple(
        PumpVerdict(n=n, replay_ok=ok, search=_search_verdict(outcome))
        for n, ok, outcome in zip(n_set, replayed, searched)
    )
    return VerificationReport(
        word=path.word,
        constraints=check_constraints(decomposition, path.word),
        verdicts=verdicts,
    )
