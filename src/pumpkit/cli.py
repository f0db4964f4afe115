"""Command-line front end.

Subcommands: params, normalize, check, pump, profile. Exit codes are part
of the interface: 0 success/accepted, 1 not accepted or pumping
verification failed, 2 usage/parse/validation, 3 search limits exceeded,
4 no witness found (best-effort extraction came up empty).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .charts import ascii_chart, decomposition_annotations, svg_chart
from .corpus import BUILTINS
from .errors import (
    PRINTABLE_P_BIT_LIMIT,
    FormatError,
    NotAcceptedError,
    NoWitnessError,
    PumpingLengthOverflowError,
    SearchLimitError,
    StrictPreconditionError,
)
from .extract import Case1Witness, ExtractionMode, extract
from .normalize import DEFAULT_P_BIT_LIMIT, normalize, pumping_params
from .pda import validate
from .run import (
    Accepted,
    LimitExceeded,
    STEP_CAP,
    NotAccepted,
    SearchLimits,
    default_limits,
    minimal_accepting_path,
    profile_extreme,
    profile_spans,
)
from .search import accepts, membership_tables
from .serialize import PdaDocument, dumps, load_path
from .verify import DEFAULT_N_SET, verify

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_LIMITS = 3
EXIT_NO_WITNESS = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _unreadable(path, exc: Exception) -> CliError:
    """Exit 2 with the reason a file could not be read as UTF-8 text."""
    if isinstance(exc, FileNotFoundError):
        return CliError(EXIT_USAGE, f"no such file: {path}")
    if isinstance(exc, UnicodeDecodeError):
        return CliError(EXIT_USAGE, f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return CliError(EXIT_USAGE, f"{path}: {exc.strerror or exc}")


def _load(path) -> PdaDocument:
    """The machine named by a builtin name or a file path, validated: a
    file with errors exits 2."""
    if path in BUILTINS:
        entry = BUILTINS[path]
        return PdaDocument(pda=entry.pda, name=entry.name, description=entry.description)
    try:
        doc = load_path(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from None
    except FormatError as exc:
        raise CliError(EXIT_USAGE, f"{path}: {exc}") from None
    report = validate(doc.pda)
    if not report.ok:
        details = "; ".join(f"{i.code}: {i.message}" for i in report.issues)
        raise CliError(EXIT_USAGE, f"{path}: invalid machine ({details})")
    return doc


def _check_word(pda, word: str) -> None:
    bad = sorted(set(word) - set(pda.input_alphabet))
    if bad:
        raise CliError(EXIT_USAGE, f"word contains symbols outside the input alphabet: {bad}")


def _limits(pda, word, args) -> SearchLimits | None:
    if args.max_steps is None and args.max_stack_height is None:
        return None
    base = default_limits(pda, word)
    return SearchLimits(
        max_steps=args.max_steps if args.max_steps is not None else base.max_steps,
        max_stack_height=args.max_stack_height if args.max_stack_height is not None else base.max_stack_height,
    )


def _to_file(args) -> bool:
    return bool(getattr(args, "output", None)) and args.output != "-"


def _unwritable(path, exc: OSError) -> CliError:
    return CliError(EXIT_USAGE, f"cannot write {path}: {exc.strerror or exc}")


def _check_writable(args) -> None:
    """Fail before a long run when the output file cannot be opened for
    writing. An existing file is opened for append, so it is not truncated;
    a missing one is created and removed again, so a run that fails later
    leaves nothing behind."""
    if not _to_file(args):
        return
    existed = os.path.lexists(args.output)
    try:
        with open(args.output, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _unwritable(args.output, exc) from None
    if not existed:
        os.remove(args.output)


def _write_out(args, text: str) -> None:
    if _to_file(args):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _unwritable(args.output, exc) from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- commands


def cmd_params(args) -> int:
    doc = _load(args.pda)
    npda = normalize(doc.pda)
    try:
        params = pumping_params(npda, bit_limit=PRINTABLE_P_BIT_LIMIT)
    except PumpingLengthOverflowError as exc:
        raise CliError(EXIT_LIMITS, str(exc)) from None
    changed = len(npda.states) != len(doc.pda.states) or len(npda.transitions) != len(
        doc.pda.transitions
    )
    print(f"p'={params.p_prime} p={params.p}")
    print(f"states={params.state_count} stack_symbols={params.stack_symbol_count}")
    print(f"normalization: {'expanded the machine' if changed else 'unchanged'}")
    return EXIT_OK


def cmd_normalize(args) -> int:
    doc = _load(args.input)
    npda = normalize(doc.pda)
    _write_out(args, dumps(PdaDocument(pda=npda, name=doc.name, description=doc.description)))
    return EXIT_OK


_VERDICT_RANK = {EXIT_OK: 0, EXIT_REJECTED: 1, EXIT_LIMITS: 2, EXIT_USAGE: 3}


def cmd_check(args) -> int:
    doc = _load(args.pda)
    if args.word_file is not None:
        try:
            with open(args.word_file, encoding="utf-8") as fh:
                words = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise _unreadable(args.word_file, exc) from None
    else:
        words = [args.word]

    # Built once per command: the machine's move tables, and its input
    # symbols, which strip a word to nothing exactly when every letter of the
    # word is in the input alphabet.
    tables = membership_tables(doc.pda)
    letters = "".join(doc.pda.input_alphabet)
    worst = EXIT_OK
    for word in words:
        if word.strip(letters):
            verdict, code = "invalid-symbols", EXIT_USAGE
        else:
            outcome = accepts(doc.pda, word, _limits(doc.pda, word, args), tables=tables)
            if isinstance(outcome, Accepted):
                verdict, code = "accepted", EXIT_OK
            elif isinstance(outcome, NotAccepted):
                verdict, code = "not-accepted", EXIT_REJECTED
            else:
                verdict, code = "limit-exceeded", EXIT_LIMITS
        print(f"{verdict}\t{word}")
        if _VERDICT_RANK[code] > _VERDICT_RANK[worst]:
            worst = code
    return worst


def _witnesses_json(result) -> dict:
    d = result.decomposition
    diag = result.diagnostics
    out: dict = {}
    if diag.level_witness is not None:
        t = diag.level_witness
        out["levelTriple"] = {"i": t.i, "j": t.j, "k": t.k, "n": t.n}
    else:
        out["levelTriple"] = None
    w = d.witness
    if isinstance(w, Case1Witness):
        out["case1"] = {"i": d.cuts[0], "j": d.cuts[1], "depth": w.depth}
    else:
        lp_g, lp_h, fp_h, fp_g = d.cuts
        out["case2"] = {
            "triple": {"i": w.triple.i, "j": w.triple.j, "k": w.triple.k, "n": w.triple.n},
            "g": w.g,
            "h": w.h,
            "lpG": lp_g,
            "lpH": lp_h,
            "fpH": fp_h,
            "fpG": fp_g,
        }
    return out


def _report_json(result, report) -> dict:
    d = result.decomposition
    params = d.params
    diag = result.diagnostics
    return {
        "word": report.word,
        "u": d.u,
        "v": d.v,
        "x": d.x,
        "y": d.y,
        "z": d.z,
        "caseTag": d.case,
        "witnesses": _witnesses_json(result),
        "params": {
            "pPrime": params.p_prime,
            "p": params.p,
            "states": params.state_count,
            "stackSymbols": params.stack_symbol_count,
        },
        "checks": {
            "concatenation": report.constraints.concatenation_ok,
            "lengthBound": {
                "ok": report.constraints.length_bound_ok,
                "limit": report.constraints.bound,
                "actual": report.constraints.vxy_length,
            },
            "nonTrivial": report.constraints.nontrivial_ok,
        },
        "perN": [
            {"n": v.n, "replay": v.replay_ok, "search": v.search} for v in report.verdicts
        ],
        "verdict": {
            "pumpingOk": report.pumping_ok,
            "overall": report.overall,
            "consistent": report.consistent,
        },
        "diagnostics": {
            "mode": diag.mode,
            "pathLength": diag.path_length,
            "level": diag.level,
            "windowEnd": diag.window_end,
            "wholePathLevel": diag.whole_path_level,
            "pPrime": diag.p_prime,
            "candidatesTried": diag.candidates_tried,
            "configPairsAvailable": diag.config_pairs_available,
            "fullStatePairsAvailable": diag.full_state_pairs_available,
            "fallbacks": [
                {"case": f.case, "candidate": list(f.candidate), "reason": f.reason}
                for f in diag.fallbacks
            ],
            "profile": list(diag.profile),
        },
    }


def _dumps_report(payload: dict, runs=()) -> str:
    """json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    plus a newline, byte for byte.

    With an indent, json.dumps always runs the pure-Python encoder, at
    about half a microsecond per list element, and the diagnostics profile
    holds one int per run position. So that list is dumped emptied, and its
    items, joined at their fixed indent, are spliced in for the
    `"profile": []` this leaves. Only the key can spell that text: every `"`
    inside a JSON string value is escaped.

    runs, the found run's RunPath.runs, are read through run.profile_spans
    (see the run module docstring): a run is one join over a slice of the
    height strings, and the positions between runs are formatted one by
    one.
    """
    diagnostics = payload["diagnostics"]
    profile = diagnostics["profile"]
    diagnostics["profile"] = []
    text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
    diagnostics["profile"] = profile
    if profile:
        last = len(profile) - 1
        # each height formatted once
        heights = [str(h) for h in range(profile_extreme(max, profile, runs, 0, last) + 1)]
        join = ",\n      ".join
        parts = []
        for a, b, index in profile_spans(runs, 0, last):
            if index is None:
                parts.append(join(map(heights.__getitem__, profile[a : b + 1] if a or b < last else profile)))
            else:
                x, y = profile[a], profile[b]
                parts.append(join(heights[x : y + 1] if x <= y else heights[y : x + 1][::-1]))
        text = text.replace('"profile": []', f'"profile": [\n      {join(parts)}\n    ]', 1)
    return text + "\n"


def _preview(s: str, keep: int = 17) -> str:
    if len(s) <= 2 * keep + 6:
        return repr(s)
    return f"{s[:keep]!r}...{s[-keep:]!r} (len {len(s)})"


def _report_text(result, report) -> str:
    d = result.decomposition
    params = d.params
    c = report.constraints
    lines = [
        f"word of length {len(report.word)}: {d.case}",
        f"  u = {_preview(d.u)}",
        f"  v = {_preview(d.v)}",
        f"  x = {_preview(d.x)}",
        f"  y = {_preview(d.y)}",
        f"  z = {_preview(d.z)}",
        f"  params: p'={params.p_prime} p={params.p}",
        f"  checks: concatenation={'ok' if c.concatenation_ok else 'FAIL'}"
        f" |vxy|={c.vxy_length} (bound {c.bound}, {'ok' if c.length_bound_ok else 'exceeded'})"
        f" |vy|>=1={'ok' if c.nontrivial_ok else 'FAIL'}",
    ]
    for v in report.verdicts:
        lines.append(f"  n={v.n}: replay={'ok' if v.replay_ok else 'FAIL'} search={v.search}")
    lines.append(f"  verdict: {'PASS' if report.pumping_ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _parse_n_set(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    try:
        values = tuple(int(part) for part in parts if part != "")
    except ValueError:
        raise CliError(EXIT_USAGE, f"--n expects comma-separated integers, got {text!r}") from None
    if len(values) < len(parts) or any(n < 0 for n in values):
        raise CliError(EXIT_USAGE, "--n needs at least one nonnegative integer")
    return values


def _check_pumped_lengths(pda, decomposition, n_set) -> None:
    """Refuse a count whose pumped word's runs on `pda`, the searched
    machine, would pass STEP_CAP steps, so the search route could never
    confirm it. A run takes one step per letter, and when no letter move
    enters an accept state, a run of a nonempty word also ends with an
    epsilon move. Only lengths are computed; no pumped word is built."""
    d = decomposition
    letter_accepts = any(t.letter is not None and t.target in pda.accept_states for t in pda.transitions)
    for n in n_set:
        length = len(d.u) + len(d.x) + len(d.z) + n * (len(d.v) + len(d.y))
        steps = length if letter_accepts or length == 0 else length + 1
        if steps > STEP_CAP:
            raise CliError(
                EXIT_USAGE,
                f"--n {n}: the pumped word would have {length} letters and a run of at least {steps} steps,"
                f" more than the search's step cap of {STEP_CAP}",
            )


def _extract(npda, args, limits, p_bit_limit: int, witness_detail: bool):
    """extract() with the exception -> exit mapping that pump and profile share.

    witness_detail appends the pair and candidate counts to the no-witness
    message (pump does, profile keeps the bare message).
    """
    mode = ExtractionMode.STRICT if args.mode == "strict" else ExtractionMode.BEST_EFFORT
    try:
        return extract(npda, args.word, mode=mode, limits=limits, p_bit_limit=p_bit_limit)
    except PumpingLengthOverflowError as exc:
        raise CliError(EXIT_LIMITS, str(exc)) from None
    except NotAcceptedError as exc:
        raise CliError(EXIT_REJECTED, str(exc)) from None
    except SearchLimitError as exc:
        raise CliError(EXIT_LIMITS, str(exc)) from None
    except StrictPreconditionError as exc:
        raise CliError(
            EXIT_USAGE,
            f"strict mode needs |word| > p: {exc.word_length} <= {exc.p}",
        ) from None
    except NoWitnessError as exc:
        diag = exc.diagnostics
        detail = ""
        if witness_detail and diag is not None:
            detail = (
                f" (config pairs: {diag.config_pairs_available},"
                f" full-state pairs: {diag.full_state_pairs_available},"
                f" candidates tried: {diag.candidates_tried})"
            )
        raise CliError(EXIT_NO_WITNESS, f"{exc}{detail}") from None


def cmd_pump(args) -> int:
    doc = _load(args.pda)
    _check_word(doc.pda, args.word)
    npda = normalize(doc.pda)
    n_set = _parse_n_set(args.n) if args.n is not None else DEFAULT_N_SET
    limits = _limits(npda, args.word, args)
    _check_writable(args)
    # Both report formats print p.
    result = _extract(npda, args, limits, PRINTABLE_P_BIT_LIMIT, witness_detail=True)
    _check_pumped_lengths(doc.pda, result.decomposition, n_set)

    report = verify(npda, result.path, result.decomposition, n_set, result.checkpoints, source=doc.pda)
    if args.report == "json":
        # The profile list is rendered apart from json.dumps; see _dumps_report.
        _write_out(args, _dumps_report(_report_json(result, report), result.path.runs))
    else:
        _write_out(args, _report_text(result, report))
    return EXIT_OK if report.pumping_ok else EXIT_REJECTED


def cmd_profile(args) -> int:
    doc = _load(args.pda)
    _check_word(doc.pda, args.word)
    npda = normalize(doc.pda)
    limits = _limits(npda, args.word, args)
    _check_writable(args)

    markers: tuple = ()
    spans: tuple = ()
    if args.annotate:
        # Charts never show p; only the strict |word| > p message does.
        p_bit_limit = PRINTABLE_P_BIT_LIMIT if args.mode == "strict" else DEFAULT_P_BIT_LIMIT
        result = _extract(npda, args, limits, p_bit_limit, witness_detail=False)
        path = result.path
        markers, spans = decomposition_annotations(result.decomposition, path)
    else:
        outcome = minimal_accepting_path(npda, args.word, limits)
        if isinstance(outcome, NotAccepted):
            raise CliError(EXIT_REJECTED, "word is not accepted")
        if isinstance(outcome, LimitExceeded):
            raise CliError(EXIT_LIMITS, "search limits exceeded before a verdict")
        path = outcome

    if args.render == "svg":
        title = f"stack profile: {doc.name or args.pda}, |w|={len(args.word)}"
        _write_out(args, svg_chart(path.profile, markers, spans, title=title))
    else:
        _write_out(args, ascii_chart(path.profile, markers, spans))
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _check_budgets(args) -> None:
    """Reject a negative search budget before any work is done."""
    for flag in ("--max-steps", "--max-stack-height"):
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < 0:
            raise CliError(EXIT_USAGE, f"{flag} must be a nonnegative integer, got {value}")


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-steps", type=int, default=None, help="search step budget")
    p.add_argument("--max-stack-height", type=int, default=None, help="search stack-height budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pumpkit",
        description="Pushdown machine toolkit: simulate, normalize, and pump accepted words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print pumping sizes for a machine")
    p.add_argument("pda", help="machine file (pumpkit/1 JSON) or builtin name")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("normalize", help="rewrite a machine into pop-or-push-one form")
    p.add_argument("input", help="machine file or builtin name")
    p.add_argument("output", help="destination file, or - for stdout")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("check", help="membership check for words")
    p.add_argument("pda", help="machine file or builtin name")
    p.add_argument("word", nargs="?", default=None, help="word to check")
    p.add_argument("--word-file", default=None, help="file with one word per line")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pump", help="decompose an accepted word and verify pumping")
    p.add_argument("pda", help="machine file or builtin name")
    p.add_argument("word", help="accepted word to decompose")
    p.add_argument("--mode", choices=["strict", "best-effort"], default="strict")
    counts = ",".join(map(str, DEFAULT_N_SET))
    p.add_argument("--n", default=None, help=f"comma-separated pump counts (default {counts})")
    p.add_argument("--report", choices=["json", "text"], default="text")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_pump)

    p = sub.add_parser("profile", help="render the stack profile of an accepting run")
    p.add_argument("pda", help="machine file or builtin name")
    p.add_argument("word", help="accepted word to run")
    p.add_argument("--render", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--annotate", action="store_true", help="mark the pumping decomposition")
    p.add_argument("--mode", choices=["strict", "best-effort"], default="best-effort")
    p.add_argument("-o", "--output", default=None, help="write the chart here instead of stdout")
    _add_limit_flags(p)
    p.set_defaults(func=cmd_profile)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and reused for the rest of
    the process: building it costs about twenty times as much as a parse,
    and parse_args reads each call into a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes.
        return EXIT_USAGE if exc.code not in (0,) else 0
    if args.func is cmd_check and args.word is None and args.word_file is None:
        print("check: give a word or --word-file", file=sys.stderr)
        return EXIT_USAGE
    if args.func is cmd_check and args.word is not None and args.word_file is not None:
        print("check: give a word or --word-file, not both", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_budgets(args)
        return args.func(args)
    except CliError as exc:
        print(f"pumpkit: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
