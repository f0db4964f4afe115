"""JSON interchange for machines: the "pumpkit/1" document format.

A document looks like:

    {
      "format": "pumpkit/1",
      "name": "DYCK1",                      // optional
      "description": "...",                 // optional
      "states": ["q0", "qf"],
      "input_alphabet": ["(", ")"],
      "stack_alphabet": ["X", "⊥"],
      "initial_state": "q0",
      "initial_stack": ["⊥"],          // bottom first
      "accept_states": ["qf"],
      "transitions": [
        {"from": "q0", "input": "(", "pop": "⊥", "push": ["⊥", "X"], "to": "q0"}
      ]
    }

"input": null means an epsilon move; "push" lists symbols deepest-first.
Set-valued fields are sorted on output and transition order is preserved, so
dumps() is canonical: equal machines serialize to identical bytes.
"""

from __future__ import annotations

import json

from .errors import FormatError
from .pda import GeneralPda, GeneralTransition, Pda, _MachineRecord
from .record import record

FORMAT_VERSION = "pumpkit/1"


@record
class PdaDocument:
    pda: GeneralPda
    name: str | None = None
    description: str | None = None


def _require(data: dict, key: str, kind, where: str = "document"):
    if key not in data:
        raise FormatError(f"{where} is missing required key {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise FormatError(f"{where} key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _str_list(data: dict, key: str, where: str = "document") -> list[str]:
    value = _require(data, key, list, where)
    for item in value:
        if not isinstance(item, str):
            raise FormatError(f"{where} key {key!r} must contain only strings")
    return value


def load_document(data: dict) -> PdaDocument:
    """Build a PdaDocument from parsed JSON, checking structure only.

    Semantic problems (undeclared states, alphabet violations, ...) are the
    job of validate(); this raises FormatError for shape problems.
    """
    if not isinstance(data, dict):
        raise FormatError(f"document must be a JSON object, got {type(data).__name__}")
    fmt = _require(data, "format", str)
    if fmt != FORMAT_VERSION:
        raise FormatError(f"unsupported format {fmt!r} (expected {FORMAT_VERSION!r})")

    name = data.get("name")
    description = data.get("description")
    for label, value in (("name", name), ("description", description)):
        if value is not None and not isinstance(value, str):
            raise FormatError(f"document key {label!r} must be a string when present")

    raw_ts = _require(data, "transitions", list)
    transitions = []
    for i, entry in enumerate(raw_ts):
        where = f"transitions[{i}]"
        if not isinstance(entry, dict):
            raise FormatError(f"{where} must be an object")
        source = _require(entry, "from", str, where)
        target = _require(entry, "to", str, where)
        pop = _require(entry, "pop", str, where)
        letter = entry.get("input")
        if "input" not in entry:
            raise FormatError(f"{where} is missing required key 'input'")
        if letter is not None and not isinstance(letter, str):
            raise FormatError(f"{where} key 'input' must be a string or null")
        push = _str_list(entry, "push", where)
        transitions.append(GeneralTransition(source, letter, pop, tuple(push), target))

    pda = GeneralPda(
        states=_str_list(data, "states"),
        input_alphabet=_str_list(data, "input_alphabet"),
        stack_alphabet=_str_list(data, "stack_alphabet"),
        initial_state=_require(data, "initial_state", str),
        initial_stack=_str_list(data, "initial_stack"),
        accept_states=_str_list(data, "accept_states"),
        transitions=transitions,
    )
    return PdaDocument(pda=pda, name=name, description=description)


def loads(text: str) -> PdaDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return load_document(data)


def load_path(path) -> PdaDocument:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def to_document(pda: Pda, name: str | None = None, description: str | None = None) -> dict:
    """Plain-dict form of a machine (normalized machines export their push pairs)."""
    doc: dict = {"format": FORMAT_VERSION}
    if name is not None:
        doc["name"] = name
    if description is not None:
        doc["description"] = description
    doc.update(
        states=sorted(pda.states),
        input_alphabet=sorted(pda.input_alphabet),
        stack_alphabet=sorted(pda.stack_alphabet),
        initial_state=pda.initial_state,
        initial_stack=list(pda.initial_stack),
        accept_states=sorted(pda.accept_states),
        transitions=[
            {
                "from": t.source,
                "input": t.letter,
                "pop": t.pop,
                "push": list(t.push),
                "to": t.target,
            }
            for t in pda.transitions
        ],
    )
    return doc


def dumps(doc: dict | PdaDocument | Pda) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline."""
    if isinstance(doc, _MachineRecord):
        doc = to_document(doc)
    elif isinstance(doc, PdaDocument):
        doc = to_document(doc.pda, doc.name, doc.description)
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
