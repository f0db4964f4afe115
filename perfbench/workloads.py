"""Seeded op lists for the three workloads.

An op is one call of the public CLI entry point. A round holds the op
kinds of a workload at every rung of their size ladders, in a seeded
order; the loop runs whole rounds so that each run sees the same op mix.
All words and word files are made here, before any timing starts.

Why these workloads:

- pump_strict_long: the paper's headline guarantee. Strict pumps of Dyck
  words just above p = 13122 letters spend their time in the BFS over a
  deep interned stack and in the two verification routes; the strict
  witness window is only p'+1 heights, so the quadratic scans stay idle.
  REG_AB strict pumps (p = 32) add a case-1 path of similar length.
- pump_besteffort_ladder: best-effort pumps over every corpus machine at
  doubling sizes, some machines loaded from their data files (so
  serialize, validate and an expanding normalize run), plus annotated
  profile charts. The case-1/case-2 witness scans dominate here and set
  the memory peak and the size slope.
- check_batch: word-file membership batches, half in the language and
  half near misses. Only the membership search runs, on both its
  early-accept and its exhaust-and-reject ends, and GEN_PAL is searched
  in general form without normalization. Nothing of extract, verify or
  charts runs, so changes there should leave this workload unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import oracle

WORKLOADS = ("pump_strict_long", "pump_besteffort_ladder", "check_batch")

# Distinct seeded rounds made per run; longer runs reuse them in turn.
ROUND_VARIANTS = 8

# Whole rounds per untraced run at the least, so that the tail rank
# (summary.TAIL_BEYOND ops from the top) falls among the ops of the slowest
# kinds and does not jump between op kinds from run to run: strict rounds
# hold six Dyck pumps, ladder rounds two heavy pumps (REG_AB and GEN_PAL at
# the top rung), check rounds two heavy batches (GEN_PAL at m = 400).
MIN_ROUNDS = {"pump_strict_long": 6, "pump_besteffort_ladder": 6, "check_batch": 11}

# Strict Dyck pumps at the headline size: 2m just above p = 13122.
STRICT_DYCK_M = 6562
STRICT_DYCK_JITTER = 80
# Two thirds of a round, so the median op falls inside the Dyck group and
# not on the boundary between two op kinds.
STRICT_DYCK_PER_ROUND = 6
# REG_AB has p = 32, so strict mode runs at any length; three rungs give
# the workload a size slope.
STRICT_REG_AB_SIZES = (1650, 3300, 6600)

LADDER_SIZES = {
    "REG_AB": (200, 400, 800, 1600),
    "DYCK1": (200, 400, 800, 1600),
    "ANBN": (200, 400, 800, 1600),
    "GEN_PAL": (50, 100, 200, 400),
}
# (data file, language, sizes): loading from file puts serialize, validate
# and an expanding normalize on the path.
FILE_LADDER = (
    ("ANBN_GENERAL.json", "ANBN", (200, 400, 800, 1600)),
    ("GEN_PAL.json", "GEN_PAL", (50, 100, 200)),
)
# (render, machine, sizes) for `profile --annotate`.
PROFILE_LADDER = (
    ("ascii", "DYCK1", (200, 400, 800, 1600)),
    ("svg", "ANBN", (200, 400, 800, 1600)),
)

CHECK_MACHINES = ("DYCK1", "REG_AB", "ANBN", "GEN_PAL")
CHECK_SIZES = (50, 100, 200, 400)
BATCH_WORDS = 100
# GEN_PAL's search guesses the midpoint and is by far the slowest; two
# batches of it at the top rung give the tail rank a group of ops to fall
# in rather than the edge of one.
CHECK_TOP_BATCHES = {"GEN_PAL": 2}


@dataclass(frozen=True)
class Op:
    kind: str  # pump | check | profile
    series: str  # ops of one series share a machine and a size ladder
    level: int  # rung on the series' size ladder
    argv: tuple
    language: str
    letters: int
    word: str = ""
    words: tuple = ()
    labels: tuple = ()
    render: str = ""

    def check(self, rc: int, out: str) -> str | None:
        if self.kind == "pump":
            return oracle.check_pump(self.language, self.word, rc, out)
        if self.kind == "check":
            return oracle.check_batch(self.language, self.words, self.labels, rc, out)
        return oracle.check_profile(self.render, rc, out)


def _pump(machine: str, label: str, language: str, level: int, word: str, mode: str) -> Op:
    return Op(
        kind="pump",
        series=f"pump {label}",
        level=level,
        argv=("pump", machine, word, "--mode", mode, "--report", "json"),
        language=language,
        letters=len(word),
        word=word,
    )


def _strict_round(rng, generators) -> list[Op]:
    dyck, reg_ab = generators["DYCK1"][0], generators["REG_AB"][0]
    ops = [
        _pump("DYCK1", "DYCK1", "DYCK1", 0, dyck(STRICT_DYCK_M + rng.randrange(STRICT_DYCK_JITTER)), "strict")
        for _ in range(STRICT_DYCK_PER_ROUND)
    ]
    for level, base in enumerate(STRICT_REG_AB_SIZES):
        ops.append(_pump("REG_AB", "REG_AB", "REG_AB", level, reg_ab(_jitter(rng, base)), "strict"))
    return ops


def _jitter(rng, base: int) -> int:
    return base + rng.randrange(base // 50 + 1)


def _ladder_round(rng, generators, data_dir: Path) -> list[Op]:
    ops = []
    for name, sizes in LADDER_SIZES.items():
        for level, base in enumerate(sizes):
            word = generators[name][0](_jitter(rng, base))
            ops.append(_pump(name, name, name, level, word, "best-effort"))
    for filename, language, sizes in FILE_LADDER:
        for level, base in enumerate(sizes):
            word = generators[language][0](_jitter(rng, base))
            ops.append(_pump(str(data_dir / filename), filename, language, level, word, "best-effort"))
    for render, name, sizes in PROFILE_LADDER:
        for level, base in enumerate(sizes):
            word = generators[name][0](_jitter(rng, base))
            ops.append(
                Op(
                    kind="profile",
                    series=f"profile-{render} {name}",
                    level=level,
                    argv=("profile", name, word, "--annotate", "--render", render),
                    language=name,
                    letters=len(word),
                    word=word,
                    render=render,
                )
            )
    return ops


def _check_round(rng, generators, word_dir: Path, variant: int) -> list[Op]:
    ops = []
    for name in CHECK_MACHINES:
        generate, near_miss = generators[name]
        rungs = list(enumerate(CHECK_SIZES))
        rungs += rungs[-1:] * (CHECK_TOP_BATCHES.get(name, 1) - 1)
        for batch, (level, base) in enumerate(rungs):
            labels = [True] * (BATCH_WORDS // 2) + [False] * (BATCH_WORDS - BATCH_WORDS // 2)
            rng.shuffle(labels)
            words = []
            for label in labels:
                m = base + rng.randrange(base // 4 + 1)
                words.append(generate(m) if label else near_miss(m))
            path = word_dir / f"{variant}-{name}-{batch}.txt"
            path.write_text("\n".join(words) + "\n", encoding="utf-8")
            ops.append(
                Op(
                    kind="check",
                    series=f"check {name}",
                    level=level,
                    argv=("check", name, "--word-file", str(path)),
                    language=name,
                    letters=sum(map(len, words)),
                    words=tuple(words),
                    labels=tuple(labels),
                )
            )
    return ops


def build(workload: str, seed: int, generators, data_dir: Path, word_dir: Path) -> list[list[Op]]:
    """ROUND_VARIANTS seeded rounds of ops for one workload.

    generators maps a language name to its (generate, near_miss) pair;
    data_dir holds the machine files and word_dir receives word files.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for variant in range(ROUND_VARIANTS):
        if workload == "pump_strict_long":
            ops = _strict_round(rng, generators)
        elif workload == "pump_besteffort_ladder":
            ops = _ladder_round(rng, generators, data_dir)
        else:
            ops = _check_round(rng, generators, word_dir, variant)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds
