"""JSON interchange for complexes, subdivisions, posets, and op words.

Every standalone file carries a top-level ``"format": "localh/1"`` key;
unknown keys are rejected so typos in hand-written fixtures fail loudly.
Carrier keys are comma-joined sorted vertex labels, which is why labels may
not contain commas. Loading checks each distinct label list once, keys the
carrier map by the total's own face tuples, and refuses two keys for one face.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Iterator

from .complexes import SimplicialComplex, canonical_face
from .constructions import MAX_BASE_VERTICES, OPS, OpStep, OpWord
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


def _label_lists(raw: dict, where: str) -> Iterator[tuple[Any, tuple[str, ...]]]:
    """Yield each key of ``raw`` with the canonical face of its label list.

    Each distinct list is checked once, at its first key; ``seen`` holds only
    lists that passed, so a lookup accepts no non-string.
    """
    seen: dict[tuple, tuple[str, ...]] = {}
    for key, value in raw.items():
        if not isinstance(value, list):
            raise SchemaError(f"{where}[{key}]: expected an array")
        try:
            face = seen.get(tuple(value))
        except TypeError:  # an entry that cannot be hashed is not a label
            face = None
        if face is None:
            checked = (_check_label(v, f"{where}[{key}]") for v in value)
            face = seen[tuple(value)] = canonical_face(checked)
        yield key, face


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
    labels = {_check_label(v, f"{where}.vertices") for v in vertices}
    if len(labels) != len(vertices):
        raise SchemaError(f"{where}.vertices: duplicate labels")
    parsed = []
    for i, f in enumerate(facets):
        if not isinstance(f, list):
            raise SchemaError(f"{where}.facets[{i}]: expected an array")
        try:  # a facet of labels checked in ``vertices`` is not checked again
            distinct = set(f)
        except TypeError:  # an entry that cannot be hashed is not a label
            distinct = None
        if distinct is None or not labels.issuperset(distinct):
            f = [_check_label(v, f"{where}.facets[{i}]") for v in f]
            distinct = set(f)
        if len(distinct) != len(f):
            raise SchemaError(f"{where}.facets[{i}]: repeated vertex label")
        parsed.append(f)
    try:
        k = SimplicialComplex(parsed)
    except ValueError as exc:
        raise SchemaError(f"{where}.facets: {exc}") from exc
    used = set(k.vertices)
    if used != labels:
        missing = sorted(labels - used)
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
    # faces enter the program here; a key is stored as the total's own tuple
    faces = {f: f for fs in total.faces_by_dim().values() for f in fs}
    carrier: dict[tuple[str, ...], tuple[str, ...]] = {}
    for key, value in _label_lists(raw, "subdivision.carrier"):
        face = faces.get(tuple(key.split(",")))
        if face is None:  # a reversed or repeated-label key
            face = canonical_face(key.split(","))
            face = faces.get(face, face)
        if face in carrier:
            raise SchemaError(
                f"subdivision.carrier[{key}]: names the face {','.join(face)} of an earlier key"
            )
        carrier[face] = value
    del faces  # freed before the constructor copies the carrier map
    try:
        return Subdivision(base, total, carrier)
    except ValueError as exc:
        missing = total.nonempty_faces() - carrier.keys()
        if not missing:
            raise SchemaError(f"subdivision: {exc}") from exc
        if carrier and all(len(g) == 1 for g in carrier):
            raise SchemaError(
                "subdivision.carrier: only vertices are listed; carriers are "
                "required on all faces because pushed faces carry strictly "
                "more than the span of their vertex carriers"
            ) from exc
        raise SchemaError(
            f"subdivision.carrier: missing {len(missing)} faces, "
            f"e.g. {','.join(sorted(missing)[0])}"
        ) from exc


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
        if not isinstance(e["id"], str) or type(e["dim"]) is not int:  # bool is an int
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
        carrier = dict(_label_lists(obj["carrier"], "poset.carrier"))
    base = complex_from_obj(obj["base"], "poset.base") if "base" in obj else None
    try:
        p = FacePoset(tuple(elements), tuple(covers), carrier, base)
    except ValueError as exc:
        raise SchemaError(f"poset: {exc}") from exc
    _check_thin(p)
    return p


def _check_thin(p: FacePoset) -> None:
    """Refuse a poset that cannot be the face poset of a regular CW complex.

    Three necessary conditions: every length-2 interval [x, y] has exactly two
    middle elements (thinness), every edge covers exactly two vertices (the
    same rule for the interval from the empty cell to the edge), and in rank
    d >= 2 every (d-2)-cell lies under one or two top cells (a pseudomanifold,
    possibly with boundary).
    """
    up: dict[str, set[str]] = {e: set() for e, _ in p.elements}
    for lo, hi in p.covers:
        up[lo].add(hi)
    for x, _ in p.elements:
        middles = Counter(y for z in up[x] for y in up[z])
        for y, n in sorted(middles.items()):
            if n != 2:
                raise SchemaError(
                    f"poset: interval [{x}, {y}] has {n} middle "
                    f"element{'' if n == 1 else 's'}, expected 2"
                )
    ends = Counter(e for v, d in p.elements if d == 0 for e in up[v])
    rank = p.rank
    for e, d in p.elements:
        if d == 1 and ends[e] != 2:
            n = ends[e]
            raise SchemaError(
                f"poset: edge {e} covers {n} vert{'ex' if n == 1 else 'ices'}, expected 2"
            )
        if d == rank - 2 >= 0 and len(up[e]) not in (1, 2):
            n = len(up[e])
            raise SchemaError(
                f"poset: element {e} lies under {n} top cell{'' if n == 1 else 's'}, "
                "expected 1 or 2"
            )


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
    if type(obj["seed_vertices"]) is not int or obj["seed_vertices"] < 1:  # bool is an int
        raise SchemaError("opword.seed_vertices: expected a positive integer")
    if obj["seed_vertices"] > MAX_BASE_VERTICES:
        raise SchemaError(
            f"opword.seed_vertices: {obj['seed_vertices']} exceeds the budget "
            f"of {MAX_BASE_VERTICES} base vertices"
        )
    if not isinstance(obj["steps"], list):
        raise SchemaError("opword.steps: expected an array")
    steps, vertices = [], obj["seed_vertices"]
    for i, raw in enumerate(obj["steps"]):
        _require_keys(raw, {"op"}, {"face"}, f"opword.steps[{i}]")
        code = raw["op"]
        if not isinstance(code, str) or code not in OPS:
            raise SchemaError(f"opword.steps[{i}]: unknown op {code!r}")
        op = OPS[code]
        vertices += op.base_growth
        if vertices > MAX_BASE_VERTICES:
            raise SchemaError(
                f"opword.steps[{i}]: the join grows the base to {vertices} vertices, "
                f"past the budget of {MAX_BASE_VERTICES} base vertices"
            )
        face = raw.get("face")
        if face is not None and not isinstance(face, str):
            raise SchemaError(f"opword.steps[{i}].face: expected a string")
        if op.face == "none" and face is not None:
            raise SchemaError(f"opword.steps[{i}].face: op {code!r} takes no face")
        if op.face == "required" and face in (None, "auto"):
            raise SchemaError(f"opword.steps[{i}].face: op {code!r} needs an explicit face")
        steps.append(OpStep(code, "auto" if face is None and op.face == "auto" else face))
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
