"""Reference membership predicates and per-op output checks.

The predicates are written from the language definitions alone and import
nothing from pumpkit, so a defect in the toolkit cannot make its own output
look right. Each op check returns None when the output is correct and a
short reason otherwise.
"""

from __future__ import annotations

import json


def dyck1(word: str) -> bool:
    """Balanced parentheses over one bracket pair."""
    depth = 0
    for ch in word:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def reg_ab(word: str) -> bool:
    """The regular language (ab)*."""
    return len(word) % 2 == 0 and word == "ab" * (len(word) // 2)


def anbn(word: str) -> bool:
    """a^n b^n with n >= 1."""
    n = len(word) // 2
    return n >= 1 and word == "a" * n + "b" * n


def even_binary_palindrome(word: str) -> bool:
    """Even-length palindromes over {0, 1}, the empty word included."""
    return len(word) % 2 == 0 and set(word) <= {"0", "1"} and word == word[::-1]


LANGUAGES = {
    "DYCK1": dyck1,
    "REG_AB": reg_ab,
    "ANBN": anbn,
    "GEN_PAL": even_binary_palindrome,
}


def check_pump(language: str, word: str, rc: int, out: str) -> str | None:
    """The op exited 0, u+v+x+y+z is the word, and every reported pump is in the language."""
    if rc != 0:
        return f"exit {rc}"
    try:
        report = json.loads(out)
        u, v, x, y, z = (report[k] for k in "uvxyz")
        pumps = [entry["n"] for entry in report["perN"]]
    except (ValueError, KeyError, TypeError):
        return "malformed report"
    if u + v + x + y + z != word or report.get("word") != word:
        return "split does not concatenate to the word"
    if not pumps:
        return "no pump counts reported"
    member = LANGUAGES[language]
    for n in pumps:
        if not member(u + v * n + x + y * n + z):
            return f"pumped word for n={n} is not in the language"
    return None


def check_batch(language: str, words, labels, rc: int, out: str) -> str | None:
    """Every verdict matches the generator's label, and the predicate agrees with the label."""
    member = LANGUAGES[language]
    lines = out.splitlines()
    if len(lines) != len(words):
        return f"{len(lines)} verdicts for {len(words)} words"
    for line, word, label in zip(lines, words, labels):
        if member(word) != label:
            return f"reference disagrees with the generator on {word[:20]!r}"
        if line != ("accepted" if label else "not-accepted") + "\t" + word:
            return f"wrong verdict line {line[:40]!r}"
    expected_rc = 0 if all(labels) else 1
    if rc != expected_rc:
        return f"exit {rc}, expected {expected_rc}"
    return None


def check_profile(render: str, rc: int, out: str) -> str | None:
    """The chart rendered: exit 0 and a well-formed ASCII header or SVG document."""
    if rc != 0:
        return f"exit {rc}"
    if render == "svg":
        ok = out.startswith("<svg") and out.rstrip().endswith("</svg>")
    else:
        ok = out.startswith("stack profile: ") and out.count("\n") >= 2
    return None if ok else f"malformed {render} chart"
