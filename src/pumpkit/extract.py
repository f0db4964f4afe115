"""Constructive pumping decompositions from minimal accepting runs.

The dispatch mirrors the construction the toolkit mechanizes: find a minimal
accepting run, measure its level l within the mode's window, then

- l >= p': read the last push and first pop of the level witness's top
  p' + 1 heights once (levels.flank_cuts); the lowest pair shrinks the
  witness to a p'-level, and the word is cut at the pairs of two of those
  heights with equal full states (case 2);
- l < p': find two path positions with equal depth-l configurations and pump
  the letters between them (case 1).

Both repeat scans are linear in the scanned run: positions (case 1) or
heights (case 2) are grouped in one pass by the plain tuples of
levels.configuration_keys or levels.full_state_keys, the number of candidate
pairs is computed from the group sizes, and the pairs themselves are drawn
lazily in (i, j) or (g, h) order, so a scan that stops at its first usable
pair never lists the rest. Case 1 still builds its depth-l configuration
per position, O(n*l). Case 2 makes one flank_cuts call per triple, and
that list gives the shrunk triple, the heights' full states and the cuts:
each candidate (g, h) looks its four positions up in it.

Each candidate cuts the run at four step positions, kept on the
decomposition: case 2 at (lp_g, lp_h, fp_h, fp_g), case 1 at (i, j, end,
end), so its x runs to the end of the word and y and z come out empty.
The pumped run repeats the steps between the first two cuts and between
the last two. The candidate's one walk of the found run, piece by piece,
gives the pieces, the empty-pump test and the checkpoints: it keeps the
five pieces between its start, the four cuts and its end as stretches of
the run (the states each starts and ends in, its letters, and only the
top symbols of the stack it reads and writes), and u, v, x, y and z are
the letters of those five stretches.

Every candidate with a nonempty pump is defensively replay-verified for a
small set of pump counts before being returned; empty-pump and failing
candidates are skipped and recorded, because a repeat observed through a
depth-limited window is not always a sound pump site. Each pump count
takes every copy of u, v, x, y and the tail from the candidate's walk
wherever the pumped run enters it as the found run did, walks the
others, and judges acceptance at the end (see the verify module
docstring); on the corpus decompositions nothing is walked after the
found run. The result keeps the checkpoints for the candidate returned,
so verify can replay its pump counts without walking the run or reading
its stretches again.
"""

from __future__ import annotations

import enum

from .errors import (
    ConstructionFalsifiedError,
    NotAcceptedError,
    NoWitnessError,
    SearchLimitError,
    StrictPreconditionError,
)
from .levels import (
    LevelTriple,
    configuration_keys,
    flank_cuts,
    full_state_keys,
    max_levels,
)
from .normalize import DEFAULT_P_BIT_LIMIT, PumpingParams, pumping_params
from .pda import NormalizedPda
from .record import field, record
from .run import LimitExceeded, NotAccepted, RunPath, SearchLimits, minimal_accepting_path
from .verify import _walk_found_run, replay_pumps

# Pump counts each candidate is replayed for before extract returns it.
PUMPS_CHECKED = (0, 2)


class ExtractionMode(enum.Enum):
    STRICT = "strict"
    BEST_EFFORT = "best-effort"


@record
class Case1Witness:
    """The repeated configuration's depth; its two positions are the
    decomposition's first two cuts."""

    depth: int


@record
class Case2Witness:
    triple: LevelTriple
    g: int
    h: int


@record
class Decomposition:
    u: object
    v: object
    x: object
    y: object
    z: object
    cuts: tuple[int, int, int, int]  # step positions where v, x, y and z start
    case: str  # "case1" | "case2"
    witness: object
    params: PumpingParams


@record
class Fallback:
    case: str
    candidate: tuple
    reason: str


@record
class Diagnostics:
    mode: str
    path_length: int
    profile: tuple[int, ...]
    level: int
    level_witness: LevelTriple | None
    window_end: int
    whole_path_level: int
    p_prime: int
    case: str | None
    candidates_tried: int
    config_pairs_available: int
    full_state_pairs_available: int
    fallbacks: tuple[Fallback, ...] = ()


@record
class ExtractionResult:
    decomposition: Decomposition
    diagnostics: Diagnostics
    path: RunPath
    # The candidate check's walk of path for the decomposition's cuts; pass
    # it to verify with path and decomposition.
    checkpoints: object = field(default=None, compare=False, repr=False)


def _equal_key_pairs(keys, base: int = 0):
    """Index pairs (a, b), a < b, whose keys are equal, offset by `base`.

    Returns the number of such pairs, Σ C(k, 2) over the groups of equal
    keys, and a lazy iterator over them with a ascending, then b ascending.
    Grouping costs O(len(keys)); each pair costs O(1) when it is drawn.
    """
    groups: dict = {}
    slots = []  # per index: its key's group and its rank in that group
    for index, key in enumerate(keys):
        group = groups.setdefault(key, [])
        slots.append((group, len(group)))
        group.append(index + base)
    available = sum(len(g) * (len(g) - 1) // 2 for g in groups.values())

    def pairs():
        for a, (group, rank) in enumerate(slots, base):
            for r in range(rank + 1, len(group)):
                yield a, group[r]

    return available, pairs()


def extract(
    pda: NormalizedPda,
    word,
    mode: ExtractionMode | str = ExtractionMode.STRICT,
    limits: SearchLimits | None = None,
    p_bit_limit: int = DEFAULT_P_BIT_LIMIT,
) -> ExtractionResult:
    """Decompose an accepted word into u, v, x, y, z ready for pumping.

    Strict mode requires |word| > p and scans repeats only inside the first
    p+1 path positions (level window k <= p); best-effort scans the whole
    run and falls back from case 2 to case 1 before giving up. Candidates
    that fail the internal replay check for PUMPS_CHECKED are skipped and
    the skip recorded in the diagnostics. p_bit_limit bounds p as in
    pumping_params, which raises PumpingLengthOverflowError past it. mode is
    an ExtractionMode or its value ("strict" or "best-effort"); anything else
    raises ValueError before the search.
    """
    mode = ExtractionMode(mode)
    params = pumping_params(pda, bit_limit=p_bit_limit)
    outcome = minimal_accepting_path(pda, word, limits)
    if isinstance(outcome, NotAccepted):
        raise NotAcceptedError(f"word of length {len(word)} is not accepted")
    if isinstance(outcome, LimitExceeded):
        raise SearchLimitError(outcome.by_steps, outcome.by_height)
    path = outcome

    strict = mode is ExtractionMode.STRICT
    if strict and len(word) <= params.p:
        raise StrictPreconditionError(len(word), params.p)

    steps_total = len(path.steps)
    window_end = min(params.p, steps_total) if strict else steps_total
    (level, witness), (whole_level, _) = max_levels(path.profile, window_end, path.runs)

    fallbacks: list[Fallback] = []
    tried = 0
    config_pairs = 0
    fs_pairs = 0

    def attempt(case: str, candidate: tuple, cuts: tuple, found) -> ExtractionResult | None:
        nonlocal tried
        tried += 1
        checkpoints = _walk_found_run(pda, path, cuts)
        # u, v, x, y and z are the letters of the walk's five stretches.
        d = Decomposition(*(s.letters for s in checkpoints.stretches), cuts=cuts, case=case, witness=found, params=params)
        if not d.v and not d.y:
            fallbacks.append(Fallback(case, candidate, "empty-pump"))
            return None
        for n, ok in zip(PUMPS_CHECKED, replay_pumps(pda, path, d, PUMPS_CHECKED, checkpoints)):
            if not ok:
                fallbacks.append(Fallback(case, candidate, f"replay-failed-n{n}"))
                return None
        return ExtractionResult(d, diag(case), path, checkpoints)

    def diag(case: str | None) -> Diagnostics:
        return Diagnostics(
            mode=mode.value,
            path_length=steps_total,
            profile=path.profile,
            level=level,
            level_witness=witness,
            window_end=window_end,
            whole_path_level=whole_level,
            p_prime=params.p_prime,
            case=case,
            candidates_tried=tried,
            config_pairs_available=config_pairs,
            full_state_pairs_available=fs_pairs,
            fallbacks=tuple(fallbacks),
        )

    # Case 2 first when the level is rich enough (or on any best-effort
    # triple at all); case 1 otherwise, over the mode's window. One flank
    # read gives the p'-level's bounds, the heights' full states and the cuts.
    triple = None
    if witness is not None:
        if level >= params.p_prime:
            cuts = flank_cuts(path.profile, witness, path.profile[witness.j] - params.p_prime)
            triple = LevelTriple(cuts[0][0], witness.j, cuts[0][1], params.p_prime)
        elif not strict:
            triple = witness
            cuts = flank_cuts(path.profile, witness)

    if triple is not None:
        base = path.profile[triple.i]
        fs_pairs, pairs = _equal_key_pairs(full_state_keys(path, cuts), base)
        for g, h in pairs:
            (lp_g, fp_g), (lp_h, fp_h) = cuts[g - base], cuts[h - base]
            result = attempt("case2", (g, h), (lp_g, lp_h, fp_h, fp_g), Case2Witness(triple, g, h))
            if result is not None:
                return result

    if level < params.p_prime or not strict:
        config_pairs, pairs = _equal_key_pairs(configuration_keys(path, window_end, level))
        for i, j in pairs:
            result = attempt("case1", (i, j), (i, j, steps_total, steps_total), Case1Witness(level))
            if result is not None:
                return result

    if strict:
        # The construction guarantees a usable repeat in strict mode; running
        # out of candidates falsifies it rather than merely failing.
        raise ConstructionFalsifiedError(
            f"strict extraction exhausted {tried} candidates (level {level}, p'={params.p_prime})"
        )
    raise NoWitnessError(
        "no usable repeated configuration or full state in the run",
        diagnostics=diag(None),
    )
