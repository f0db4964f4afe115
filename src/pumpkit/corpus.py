"""Built-in example machines and word generators for them.

Each machine is read from its pumpkit/1 file in the package's data/
directory, the same files the CLI accepts by path. A machine already in
star form comes back as a NormalizedPda (normalize maps it one-to-one);
any other stays general. Each entry pairs the machine with a generator for
in-language words and one for near-miss words (off by one boundary
letter), so tests and demos can sweep sizes without hand-writing words.

data/ also holds ANBN_GENERAL.json, a general-form machine for ANBN's
language whose long push starts with a symbol other than the popped one.
It is no builtin and is read by path, like any machine file.
"""

from __future__ import annotations

import os
from typing import Callable

from .normalize import normalize
from .pda import Pda, is_star_form
from .record import record
from .serialize import PdaDocument, load_path

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@record
class CorpusEntry:
    name: str
    description: str
    pda: Pda
    generate: Callable[[int], str]
    generate_near_miss: Callable[[int], str]


def _dyck1_gen(m: int) -> str:
    return "(" * m + ")" * m


def _dyck1_near(m: int) -> str:
    if m < 1:
        raise ValueError("near-miss needs m >= 1")
    return "(" * m + ")" * (m - 1)


def _reg_ab_gen(m: int) -> str:
    return "ab" * m


def _reg_ab_near(m: int) -> str:
    if m < 1:
        raise ValueError("near-miss needs m >= 1")
    return "ab" * (m - 1) + "a"


def _anbn_gen(m: int) -> str:
    if m < 1:
        raise ValueError("language has no word for m = 0")
    return "a" * m + "b" * m


def _anbn_near(m: int) -> str:
    if m < 1:
        raise ValueError("near-miss needs m >= 1")
    return "a" * m + "b" * (m - 1)


def _pal_half(m: int) -> str:
    return ("01" * (m // 2 + 1))[:m]


def _gen_pal_gen(m: int) -> str:
    half = _pal_half(m)
    return half + half[::-1]


def _gen_pal_near(m: int) -> str:
    if m < 1:
        raise ValueError("near-miss needs m >= 1")
    half = _pal_half(m)
    w = half + half[::-1]
    flipped = "1" if w[-1] == "0" else "0"
    return w[:-1] + flipped


def _load(file_stem: str) -> PdaDocument:
    return load_path(os.path.join(_DATA_DIR, f"{file_stem}.json"))


def _entry(name: str, generate, generate_near_miss) -> CorpusEntry:
    doc = _load(name)
    pda = normalize(doc.pda) if is_star_form(doc.pda) else doc.pda
    return CorpusEntry(doc.name, doc.description, pda, generate, generate_near_miss)


BUILTINS: dict[str, CorpusEntry] = {
    # one bracket kind; the stack counts open depth
    "DYCK1": _entry("DYCK1", _dyck1_gen, _dyck1_near),
    # driven through the stack bottom, so runs bounce between heights 1 and 2
    "REG_AB": _entry("REG_AB", _reg_ab_gen, _reg_ab_near),
    "ANBN": _entry("ANBN", _anbn_gen, _anbn_near),
    # guesses the midpoint; letters push doubled markers, so pushes have
    # width 1, 2 and 3
    "GEN_PAL": _entry("GEN_PAL", _gen_pal_gen, _gen_pal_near),
}


def get(name: str) -> CorpusEntry:
    try:
        return BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTINS))
        raise KeyError(f"unknown corpus entry {name!r} (known: {known})") from None

