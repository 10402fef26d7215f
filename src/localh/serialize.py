"""JSON interchange for complexes, subdivisions, posets, and op words.

Every standalone file carries a top-level ``"format": "localh/1"`` key;
unknown keys are rejected so typos in hand-written fixtures fail loudly.
Carrier keys are comma-joined sorted vertex labels, which is why labels may
not contain commas.
"""

from __future__ import annotations

import json
from typing import Any

from .complexes import Face, SimplicialComplex, canonical_face
from .constructions import OpStep, OpWord
from .posets import FacePoset
from .subdivisions import Subdivision

FORMAT = "localh/1"


class SchemaError(ValueError):
    """Raised on malformed interchange files, naming the offending path."""


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    keys = set(obj)
    unknown = keys - required - optional - {"format"}
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    if "format" in obj and obj["format"] != FORMAT:
        raise SchemaError(f"{where}: unsupported format {obj['format']!r}")


def _check_label(label: Any, where: str) -> str:
    if not isinstance(label, str) or not label:
        raise SchemaError(f"{where}: labels must be nonempty strings")
    if "," in label:
        raise SchemaError(f"{where}: label {label!r} contains a comma")
    return label


# -- complexes -----------------------------------------------------------------


def complex_to_obj(k: SimplicialComplex) -> dict:
    return {
        "vertices": list(k.vertices),
        "facets": [list(f) for f in sorted(k.facets)],
    }


def complex_from_obj(obj: Any, where: str = "complex") -> SimplicialComplex:
    _require_keys(obj, {"vertices", "facets"}, set(), where)
    vertices = obj["vertices"]
    facets = obj["facets"]
    if not isinstance(vertices, list) or not isinstance(facets, list):
        raise SchemaError(f"{where}: vertices and facets must be arrays")
    labels = [_check_label(v, f"{where}.vertices") for v in vertices]
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{where}.vertices: duplicate labels")
    parsed = []
    for i, f in enumerate(facets):
        if not isinstance(f, list):
            raise SchemaError(f"{where}.facets[{i}]: expected an array")
        entries = [_check_label(v, f"{where}.facets[{i}]") for v in f]
        if len(set(entries)) != len(entries):
            raise SchemaError(f"{where}.facets[{i}]: repeated vertex label")
        parsed.append(entries)
    try:
        k = SimplicialComplex(parsed)
    except ValueError as exc:
        raise SchemaError(f"{where}.facets: {exc}") from exc
    used = set(k.vertices)
    if used != set(labels):
        missing = sorted(set(labels) - used)
        raise SchemaError(
            f"{where}: vertices {missing} appear in no facet"
            if missing
            else f"{where}: facets use labels missing from vertices"
        )
    return k


# -- subdivisions ----------------------------------------------------------------


def subdivision_to_obj(s: Subdivision) -> dict:
    return {
        "format": FORMAT,
        "base": complex_to_obj(s.base),
        "total": complex_to_obj(s.total),
        "carrier": {
            ",".join(g): list(f) for g, f in sorted(s.carrier.items())
        },
    }


def subdivision_from_obj(obj: Any) -> Subdivision:
    _require_keys(obj, {"base", "total", "carrier"}, set(), "subdivision")
    base = complex_from_obj(obj["base"], "subdivision.base")
    total = complex_from_obj(obj["total"], "subdivision.total")
    raw = obj["carrier"]
    if not isinstance(raw, dict):
        raise SchemaError("subdivision.carrier: expected an object")
    carrier: dict[Face, Face] = {}
    for key, value in raw.items():
        face = canonical_face(key.split(","))
        if not isinstance(value, list):
            raise SchemaError(f"subdivision.carrier[{key}]: expected an array")
        carrier[face] = canonical_face(
            _check_label(v, f"subdivision.carrier[{key}]") for v in value
        )
    needed = total.nonempty_faces()
    missing = needed - carrier.keys()
    if missing:
        vertex_keys = {f for f in carrier if len(f) == 1}
        if carrier and vertex_keys == set(carrier):
            raise SchemaError(
                "subdivision.carrier: only vertices are listed; carriers are "
                "required on all faces because pushed faces carry strictly "
                "more than the span of their vertex carriers"
            )
        raise SchemaError(
            f"subdivision.carrier: missing {len(missing)} faces, "
            f"e.g. {','.join(sorted(missing)[0])}"
        )
    try:
        return Subdivision(base, total, carrier)
    except ValueError as exc:
        raise SchemaError(f"subdivision: {exc}") from exc


# -- posets -----------------------------------------------------------------------


def poset_to_obj(p: FacePoset) -> dict:
    out: dict[str, Any] = {
        "format": FORMAT,
        "elements": [{"id": e, "dim": d} for e, d in p.elements],
        "covers": [[lo, up] for lo, up in p.covers],
    }
    if p.carrier is not None:
        out["carrier"] = {e: list(f) for e, f in sorted(p.carrier.items())}
    if p.base is not None:
        out["base"] = complex_to_obj(p.base)
    return out


def poset_from_obj(obj: Any) -> FacePoset:
    _require_keys(obj, {"elements", "covers"}, {"carrier", "base"}, "poset")
    if not isinstance(obj["elements"], list) or not isinstance(obj["covers"], list):
        raise SchemaError("poset: elements and covers must be arrays")
    elements = []
    for i, e in enumerate(obj["elements"]):
        _require_keys(e, {"id", "dim"}, set(), f"poset.elements[{i}]")
        if not isinstance(e["id"], str) or not isinstance(e["dim"], int):
            raise SchemaError(f"poset.elements[{i}]: id must be a string, dim an integer")
        elements.append((e["id"], e["dim"]))
    covers = []
    for i, c in enumerate(obj["covers"]):
        if not isinstance(c, list) or len(c) != 2:
            raise SchemaError(f"poset.covers[{i}]: expected a pair")
        if not all(isinstance(x, str) for x in c):
            raise SchemaError(f"poset.covers[{i}]: element ids must be strings")
        covers.append((c[0], c[1]))
    carrier = None
    if "carrier" in obj:
        if not isinstance(obj["carrier"], dict):
            raise SchemaError("poset.carrier: expected an object")
        carrier = {}
        for e, f in obj["carrier"].items():
            if not isinstance(f, list):
                raise SchemaError(f"poset.carrier[{e}]: expected an array")
            carrier[e] = canonical_face(
                _check_label(v, f"poset.carrier[{e}]") for v in f
            )
    base = complex_from_obj(obj["base"], "poset.base") if "base" in obj else None
    try:
        return FacePoset(tuple(elements), tuple(covers), carrier, base)
    except ValueError as exc:
        raise SchemaError(f"poset: {exc}") from exc


# -- op words ----------------------------------------------------------------------


def opword_to_obj(word: OpWord) -> dict:
    steps = []
    for step in word.steps:
        entry: dict[str, Any] = {"op": step.op}
        if step.face is not None:
            entry["face"] = step.face
        steps.append(entry)
    return {"format": FORMAT, "seed_vertices": word.seed_vertices, "steps": steps}


def opword_from_obj(obj: Any) -> OpWord:
    _require_keys(obj, {"seed_vertices", "steps"}, set(), "opword")
    if not isinstance(obj["seed_vertices"], int) or obj["seed_vertices"] < 1:
        raise SchemaError("opword.seed_vertices: expected a positive integer")
    if not isinstance(obj["steps"], list):
        raise SchemaError("opword.steps: expected an array")
    steps = []
    for i, raw in enumerate(obj["steps"]):
        _require_keys(raw, {"op"}, {"face"}, f"opword.steps[{i}]")
        op = raw["op"]
        if op not in {"o1", "o2", "o3", "l32", "sd"}:
            raise SchemaError(f"opword.steps[{i}]: unknown op {op!r}")
        face = raw.get("face")
        if face is not None and not isinstance(face, str):
            raise SchemaError(f"opword.steps[{i}].face: expected a string")
        if op in {"o1", "o2", "l32"} and face is None:
            face = "auto"
        steps.append(OpStep(op, face))
    return OpWord(obj["seed_vertices"], tuple(steps))


# -- file helpers ------------------------------------------------------------------


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def dump_json(obj: Any, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def detect_kind(obj: Any) -> str:
    """Classify a loaded file as subdivision, poset, or opword by its keys."""
    if isinstance(obj, dict):
        if "carrier" in obj and "total" in obj:
            return "subdivision"
        if "elements" in obj:
            return "poset"
        if "steps" in obj:
            return "opword"
    raise SchemaError("file is not a recognized subdivision, poset, or opword")
