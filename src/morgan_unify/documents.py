"""JSON documents for posets, involutive posets, and algebras.

Canonical form: fixed field order, cover pairs sorted by element index,
maps keyed in element order.  Parsing accepts a full relation under
"le" or a Hasse diagram under "covers"; serialization always emits
covers, so parse-then-serialize is idempotent.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring as _encode_str
from typing import Any, Union

from .algebra import FiniteAlgebra, validate_algebra
from .errors import ValidationError
from .involutive import InvPoset, validate_involutive
from .order import Poset, validate_poset

Structure = Union[Poset, InvPoset, FiniteAlgebra]

KINDS = ("poset", "invposet", "algebra")


def _is_string_map(value: Any) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    )


def parse_document(data: dict[str, Any]) -> Structure:
    if not isinstance(data, dict):
        raise ValidationError("document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown document kind {kind!r}")
    elements = data.get("elements")
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise ValidationError("'elements' must be a list of strings")
    if "covers" in data and "le" in data:
        raise ValidationError("give either 'covers' or 'le', not both")
    if "covers" in data:
        pairs, mode = data["covers"], "covers"
    elif "le" in data:
        pairs, mode = data["le"], "le"
    else:
        pairs, mode = [], "covers"
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in pairs
    ):
        raise ValidationError("relation must be a list of [a, b] string pairs")
    base = validate_poset(elements, [tuple(p) for p in pairs], mode=mode)

    if kind == "poset":
        return base
    if kind == "invposet":
        inv = data.get("inv")
        if not _is_string_map(inv):
            raise ValidationError("invposet document needs an 'inv' map of strings")
        return validate_involutive(base, inv)
    neg = data.get("neg")
    if neg is not None and not _is_string_map(neg):
        raise ValidationError("'neg' must be a map of strings when present")
    return validate_algebra(base, neg)


def _sorted_covers(p: Poset) -> list[list[str]]:
    return [[a, b] for a, b in p.covers()]


def structure_document(s: Structure) -> dict[str, Any]:
    if isinstance(s, InvPoset):
        return {
            "kind": "invposet",
            "elements": list(s.elements),
            "covers": _sorted_covers(s),
            "inv": {x: s.i(x) for x in s.elements},
        }
    if isinstance(s, Poset):
        return {
            "kind": "poset",
            "elements": list(s.elements),
            "covers": _sorted_covers(s),
        }
    doc = {
        "kind": "algebra",
        "elements": list(s.elements),
        "covers": _sorted_covers(s.carrier),
    }
    if s.neg is not None:
        doc["neg"] = {x: s.neg[x] for x in s.elements}
    return doc


def jsonable(value):
    """A witness in JSON form: sets sorted into lists, tuples as lists."""
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def dumps(data: dict[str, Any]) -> str:
    """`data` as JSON text indented by two spaces, non-ASCII text kept,
    with a final newline: the text of `json.dumps(data, indent=2,
    ensure_ascii=False) + "\\n"`.

    The stdlib takes its pure-Python encoder whenever it indents, and
    that encoder's nested closures form a reference cycle per call; this
    writer indents by hand, escapes strings with the C escaper and
    leaves no cycle.
    """
    parts: list[str] = []
    _write(data, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _write(value: Any, parts: list[str], newline: str) -> None:
    """Append the JSON text of `value` to `parts`; `newline` is a line
    break followed by the indent of the line `value` starts on."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                key = json.dumps(key)
            parts.append(opening)
            parts.append(_encode_str(key))
            parts.append(": ")
            _write(item, parts, inner)
            opening = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opening = "[" + inner
        for item in value:
            parts.append(opening)
            _write(item, parts, inner)
            opening = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(value))


def loads(text: str) -> Structure:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return parse_document(data)
