"""File formats: one JSON envelope, one payload shape per object kind.

Envelope: {"schema": "qc/1", "kind": ..., "payload": ...}.  Quantales are
either the name of a built-in ("ext_rational", "Q1", "Q2", "Q3", "chain4")
or a finite table object, which must pass `validate_value_quantale` (a
table equal to a built-in's passes without the check);
elements serialize as element names for finite quantales and as "p/q",
"n", or "inf" for the extended rationals.  Every emitted object re-parses
to an equal value.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .completion import CompletionSpace, filter_point_name
from .errors import StructureError
from .filters import Filter
from .quantale import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    ExtendedRationalQuantale,
    FiniteQuantale,
    ValueQuantale,
    validate_value_quantale,
)
from .vspace import VSpace, _EntryClasses, _entry_classes

SCHEMA = "qc/1"


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def envelope(kind: str, payload) -> dict:
    return {"schema": SCHEMA, "kind": kind, "payload": payload}


def parse_envelope(obj, expected_kind: str | None = None) -> tuple[str, dict]:
    if not isinstance(obj, dict):
        raise StructureError("expected a JSON object envelope")
    if obj.get("schema") != SCHEMA:
        raise StructureError(f"unknown schema tag {obj.get('schema')!r}; expected {SCHEMA!r}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise StructureError("envelope is missing its kind")
    if expected_kind is not None and kind != expected_kind:
        raise StructureError(f"expected a {expected_kind!r} file, found {kind!r}")
    if "payload" not in obj:
        raise StructureError("envelope is missing its payload")
    return kind, obj["payload"]


def loads_envelope(text: str, expected_kind: str | None = None) -> tuple[str, dict]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"bad JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:
        # an integer literal longer than sys.get_int_max_str_digits()
        raise StructureError(f"bad JSON: {exc}") from None
    except RecursionError:
        raise StructureError("bad JSON: arrays or objects nested too deeply") from None
    return parse_envelope(obj, expected_kind)


# --- quantales --------------------------------------------------------------


def quantale_to_payload(q: ValueQuantale):
    if isinstance(q, ExtendedRationalQuantale):
        return "ext_rational"
    if isinstance(q, FiniteQuantale):
        return {
            "kind": "finite",
            "elements": list(q.names),
            "leq": [[bool(v) for v in row] for row in q._leq],
            "add": [[int(v) for v in row] for row in q._add],
        }
    raise StructureError(f"cannot serialize quantale {q!r}")


_BUILTIN_TABLES = frozenset(q for q in BUILTIN_QUANTALES.values() if q.is_finite)


def _finite_tables(payload) -> tuple[list, list, list]:
    """The element names and the order and addition tables of a finite payload.

    Only their JSON shapes are checked here: names a list of strings, each
    table a list of rows, each a list.  The table sizes and entries are
    checked where the tables are read.
    """
    for field in ("elements", "leq", "add"):
        if field not in payload:
            raise StructureError(f"finite quantale payload is missing {field!r}")
    names, leq, add = payload["elements"], payload["leq"], payload["add"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise StructureError("finite quantale elements must be a list of strings")
    for field, table in (("leq", leq), ("add", add)):
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise StructureError(
                f"finite quantale {field} table must be a list of rows, each a list"
            )
    return names, leq, add


def parse_quantale(payload) -> ValueQuantale:
    if isinstance(payload, str):
        if payload in BUILTIN_QUANTALES:
            return BUILTIN_QUANTALES[payload]
        raise StructureError(
            f"unknown quantale name {payload!r}; known: {sorted(BUILTIN_QUANTALES)}"
        )
    if not isinstance(payload, dict):
        raise StructureError("quantale payload must be a name or an object")
    kind = payload.get("kind")
    if kind == "ext_rational":
        return EXT_RATIONAL
    if kind == "finite":
        q = FiniteQuantale(*_finite_tables(payload))
        # the zero-mask forms of the quantified predicates rest on the axioms;
        # `space_to_payload` writes a built-in as its tables, which hold them
        if q in _BUILTIN_TABLES:
            return q
        report = validate_value_quantale(q.names, q._leq, q._add)
        if not report.ok:
            first = report.failures[0]
            raise StructureError(
                f"tables are not a value quantale: failed axiom {first.check} "
                f"{json.dumps(first.witness, sort_keys=True)}"
            )
        return q
    raise StructureError(f"unknown quantale kind {kind!r}")


# --- spaces -----------------------------------------------------------------


def space_to_payload(space: VSpace) -> dict:
    q = space.quantale
    names = [q.format(v) for v in space._ranks.values]
    return {
        "quantale": quantale_to_payload(q),
        "points": list(space.points),
        "d": [[names[r] for r in row] for row in space._ranks.rank],
    }


def parse_space(payload) -> VSpace:
    if not isinstance(payload, dict):
        raise StructureError("space payload must be an object")
    for field in ("quantale", "points", "d"):
        if field not in payload:
            raise StructureError(f"space payload is missing {field!r}")
    q = parse_quantale(payload["quantale"])
    points = payload["points"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise StructureError("space points must be a list of strings")
    rows = payload["d"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise StructureError("space distances must be a list of rows, each a list")
    # each distinct literal is parsed once, and `parse` returns what `check`
    # would, so the values are marked checked; VSpace merges literals that
    # denote the same element
    entries = _entry_classes(rows, q.parse)
    return VSpace(q, points, _EntryClasses(entries.values, entries.classes, True))


# --- filters ----------------------------------------------------------------


def filter_to_payload(f: Filter) -> dict:
    return {"space": space_to_payload(f.space), "core": list(f.core)}


def _parse_core(core) -> tuple[str, ...]:
    if not isinstance(core, list) or not all(isinstance(p, str) for p in core):
        raise StructureError(f"a core must be a list of point names, got {core!r}")
    return tuple(core)


def parse_filter(payload) -> Filter:
    if not isinstance(payload, dict) or "space" not in payload or "core" not in payload:
        raise StructureError("filter payload needs 'space' and 'core'")
    space = parse_space(payload["space"])
    return Filter(space, space.mask(_parse_core(payload["core"])))


# --- completions ------------------------------------------------------------


class CompletionDoc(NamedTuple):
    """Serializable view of a completion: the filter space, the cores of
    its points, and the base-point embedding."""

    space: VSpace
    cores: tuple
    embedding: dict


def completion_to_payload(doc: CompletionDoc) -> dict:
    """Payload of a completion; `completion_space_doc` converts a computed one."""
    return {
        "space": space_to_payload(doc.space),
        "points": [{"core": list(core)} for core in doc.cores],
        "embedding": {p: int(i) for p, i in sorted(doc.embedding.items())},
    }


def parse_completion(payload) -> CompletionDoc:
    if not isinstance(payload, dict):
        raise StructureError("completion payload must be an object")
    for field in ("space", "points", "embedding"):
        if field not in payload:
            raise StructureError(f"completion payload is missing {field!r}")
    space = parse_space(payload["space"])
    points = payload["points"]
    if not isinstance(points, list) or not all(
        isinstance(entry, dict) and "core" in entry for entry in points
    ):
        raise StructureError("completion points must be a list of objects with a 'core'")
    cores = tuple(_parse_core(entry["core"]) for entry in points)
    embedding = payload["embedding"]
    if not isinstance(embedding, dict):
        raise StructureError("completion embedding must be an object")
    base = {p for core in cores for p in core}
    for p, i in embedding.items():
        if p not in base:
            raise StructureError(f"embedding names {p!r}, which is in no core")
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(cores):
            raise StructureError(f"embedding index {i!r} for {p!r} out of range")
    return CompletionDoc(space, cores, dict(embedding))


def completion_space_doc(comp: CompletionSpace) -> CompletionDoc:
    return CompletionDoc(
        comp.space,
        tuple(f.core for f in comp.filters),
        dict(comp.embedding),
    )


__all__ = [
    "SCHEMA",
    "CompletionDoc",
    "completion_space_doc",
    "completion_to_payload",
    "dumps_canonical",
    "envelope",
    "filter_point_name",
    "filter_to_payload",
    "loads_envelope",
    "parse_completion",
    "parse_envelope",
    "parse_filter",
    "parse_quantale",
    "parse_space",
    "quantale_to_payload",
    "space_to_payload",
]
