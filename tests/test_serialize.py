import importlib.util
import json
import pathlib
import random

import pytest
from conftest import mutate_json

from localh import serialize
from localh.complexes import SimplicialComplex, canonical_face, simplex
from localh.constructions import (
    OPS,
    Op,
    OpStep,
    OpWord,
    join_subdivided_edge,
    push_ridge,
    push_then_stellar,
    random_subdivision,
    replay,
    stellar_facet,
    trivial_on,
)
from localh.posets import face_poset, sd_subdivision
from localh.serialize import SchemaError
from localh.subdivisions import Subdivision

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_complex_round_trip():
    k = SimplicialComplex([("1", "2", "3"), ("3", "4")])
    obj = serialize.complex_to_obj(k)
    assert serialize.complex_from_obj(obj) == k


def test_complex_rejects_unknown_keys():
    with pytest.raises(SchemaError):
        serialize.complex_from_obj({"vertices": [], "facets": [], "extra": 1})


def test_complex_rejects_isolated_vertices():
    with pytest.raises(SchemaError):
        serialize.complex_from_obj({"vertices": ["1", "2"], "facets": [["1"]]})


def test_complex_rejects_comma_labels():
    with pytest.raises(SchemaError):
        serialize.complex_from_obj({"vertices": ["a,b"], "facets": [["a,b"]]})


def test_complex_rejects_repeated_label_in_facet():
    with pytest.raises(SchemaError, match="repeated"):
        serialize.complex_from_obj({"vertices": ["a", "b"], "facets": [["a", "a", "b"]]})


def test_subdivision_round_trip():
    s = push_then_stellar(trivial_on(4))
    obj = serialize.subdivision_to_obj(s)
    text = json.dumps(obj)
    assert serialize.subdivision_from_obj(json.loads(text)) == s


def test_subdivision_vertex_only_carrier_message():
    s = trivial_on(2)
    obj = serialize.subdivision_to_obj(s)
    obj["carrier"] = {k: v for k, v in obj["carrier"].items() if "," not in k}
    with pytest.raises(SchemaError, match="required on all faces"):
        serialize.subdivision_from_obj(obj)


def test_subdivision_missing_face_rejected():
    s = push_then_stellar(trivial_on(4))
    obj = serialize.subdivision_to_obj(s)
    key = next(iter(obj["carrier"]))
    del obj["carrier"][key]
    with pytest.raises(SchemaError, match="missing"):
        serialize.subdivision_from_obj(obj)


def test_subdivision_format_checked():
    s = trivial_on(2)
    obj = serialize.subdivision_to_obj(s)
    obj["format"] = "localh/99"
    with pytest.raises(SchemaError, match="format"):
        serialize.subdivision_from_obj(obj)


def test_poset_round_trip():
    p = face_poset(push_then_stellar(trivial_on(4)))
    obj = serialize.poset_to_obj(p)
    back = serialize.poset_from_obj(json.loads(json.dumps(obj)))
    assert back.elements == p.elements
    assert back.covers == p.covers
    assert back.carrier == p.carrier
    assert back.base == p.base


def test_poset_supports_sd_round_trip():
    p = face_poset(trivial_on(3))
    back = serialize.poset_from_obj(serialize.poset_to_obj(p))
    assert sd_subdivision(back) == sd_subdivision(trivial_on(3))


def test_opword_round_trip():
    word = OpWord(3, (OpStep("o1", "auto"), OpStep("o3"), OpStep("l32", "v1,v2,p2")))
    back = serialize.opword_from_obj(serialize.opword_to_obj(word))
    assert back == word


def test_opword_rejects_unknown_op():
    with pytest.raises(SchemaError):
        serialize.opword_from_obj(
            {"seed_vertices": 2, "steps": [{"op": "nope"}]}
        )


# Each op code applied by its own builder to the simplex on v1..v4, with the
# face a step of that code carries in a word; a code added to ``OPS`` needs
# an entry here.
DIRECT = {
    "o1": ("auto", stellar_facet),
    "o2": ("v1,v2,v3", lambda s: push_ridge(s, ("v1", "v2", "v3"))),
    "o3": (None, join_subdivided_edge),
    "l32": ("auto", push_then_stellar),
    "sd": (None, sd_subdivision),
}


@pytest.mark.parametrize("code", sorted(OPS))
def test_every_op_code_round_trips_through_the_loader_and_replays(code):
    face, build = DIRECT[code]
    word = OpWord(4, (OpStep(code, face),))
    obj = json.loads(json.dumps(serialize.opword_to_obj(word)))
    assert serialize.opword_from_obj(obj) == word
    assert replay(serialize.opword_from_obj(obj)) == build(trivial_on(4))
    if OPS[code].face == "auto":  # an omitted face loads as "auto"
        del obj["steps"][0]["face"]
        assert serialize.opword_from_obj(obj) == word


def test_loader_accepts_exactly_the_table_codes(monkeypatch):
    def load(code):
        return serialize.opword_from_obj({"seed_vertices": 7, "steps": [{"op": code}]})

    for code in ("o9", "O1", "", "sd ", "e1", ["o1"], 1, None):
        with pytest.raises(SchemaError, match=r"^opword\.steps\[0\]: unknown op "):
            load(code)
    monkeypatch.setitem(OPS, "x1", Op(lambda s, face: s, "none", base_growth=4))
    monkeypatch.delitem(OPS, "o1")
    assert load("x1") == OpWord(7, (OpStep("x1"),))
    with pytest.raises(SchemaError, match=r"^opword\.steps\[0\]: unknown op 'o1'$"):
        load("o1")
    with pytest.raises(SchemaError, match=r"^opword\.steps\[1\]: the join grows the base to 15"):
        serialize.opword_from_obj({"seed_vertices": 7, "steps": [{"op": "x1"}] * 2})


@pytest.mark.parametrize(
    "steps, message",
    [
        ([{"op": "o1"}, {"op": "o3", "face": "v1,v2"}], r"steps\[1\]\.face: op 'o3' takes no face"),
        ([{"op": "sd", "face": "auto"}], r"steps\[0\]\.face: op 'sd' takes no face"),
        ([{"op": "o2"}], r"steps\[0\]\.face: op 'o2' needs an explicit face"),
        ([{"op": "o2", "face": "auto"}], r"steps\[0\]\.face: op 'o2' needs an explicit face"),
    ],
)
def test_opword_refuses_a_face_against_the_op_rule(steps, message):
    with pytest.raises(SchemaError, match="^opword\\." + message + "$"):
        serialize.opword_from_obj({"seed_vertices": 4, "steps": steps})


@pytest.mark.parametrize("seed_vertices", [True, False])
def test_opword_refuses_a_boolean_seed_size(seed_vertices):
    with pytest.raises(SchemaError, match=r"^opword\.seed_vertices: expected a positive integer$"):
        serialize.opword_from_obj({"seed_vertices": seed_vertices, "steps": []})


@pytest.mark.parametrize("i, dim", [(1, False), (2, True)])
def test_poset_refuses_a_boolean_dim(i, dim):
    elements = [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}, {"id": "e", "dim": 1}]
    obj = {"elements": elements, "covers": [["a", "e"], ["b", "e"]]}
    serialize.poset_from_obj(obj)
    elements[i]["dim"] = dim  # equal to the integer it replaces
    with pytest.raises(SchemaError, match=rf"^poset\.elements\[{i}\]: id must be a string, dim an integer$"):
        serialize.poset_from_obj(obj)


@pytest.mark.parametrize("d_max", [5, 6, 7])
def test_random_words_replay_through_the_loader(d_max):
    for seed in range(200):
        s, word = random_subdivision(seed, d_max, 6)
        obj = json.loads(json.dumps(serialize.opword_to_obj(word)))
        assert replay(serialize.opword_from_obj(obj)) == s


def test_fixture_files_load():
    for name in [
        "trivial_d2.json",
        "trivial_d5.json",
        "stellar_triangle.json",
        "bary_stellar_triangle.json",
        "nonunimodal_quasigeometric.json",
    ]:
        s = serialize.subdivision_from_obj(serialize.load_json(str(FIXTURES / name)))
        assert s.validate().valid
    for name in ["hexagon_poset.json", "square_poset.json", "stellar_triangle_poset.json"]:
        serialize.poset_from_obj(serialize.load_json(str(FIXTURES / name)))


def test_detect_kind():
    s = serialize.subdivision_to_obj(trivial_on(2))
    assert serialize.detect_kind(s) == "subdivision"
    p = serialize.poset_to_obj(face_poset(simplex("12")))
    assert serialize.detect_kind(p) == "poset"
    w = serialize.opword_to_obj(OpWord(2, ()))
    assert serialize.detect_kind(w) == "opword"
    with pytest.raises(SchemaError):
        serialize.detect_kind({"x": 1})


MONOGON = {
    "elements": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}, {"id": "f", "dim": 2}],
    "covers": [["v", "e"], ["e", "f"]],
}


def test_poset_monogon_is_not_thin():
    with pytest.raises(SchemaError, match=r"interval \[v, f\] has 1 middle element, expected 2"):
        serialize.poset_from_obj(MONOGON)


def test_poset_edge_with_one_vertex_is_not_thin():
    obj = {
        "elements": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}],
        "covers": [["v", "e"]],
    }
    with pytest.raises(SchemaError, match="edge e covers 1 vertex, expected 2"):
        serialize.poset_from_obj(obj)


def bigons_on_an_edge(n):
    """n 2-cells glued along the edge e, each a bigon with a second edge."""
    cells = range(1, n + 1)
    elements = [{"id": i, "dim": 0} for i in ("a", "b")] + [
        {"id": i, "dim": 1} for i in ["e"] + [f"e{i}" for i in cells]
    ] + [{"id": f"c{i}", "dim": 2} for i in cells]
    covers = [[v, e["id"]] for v in ("a", "b") for e in elements if e["dim"] == 1]
    covers += [["e", f"c{i}"] for i in cells] + [[f"e{i}", f"c{i}"] for i in cells]
    return elements, covers


def test_poset_extra_cover_breaks_thinness():
    elements, covers = bigons_on_an_edge(2)
    serialize.poset_from_obj({"elements": elements, "covers": covers})
    covers.append(["e1", "c2"])
    with pytest.raises(SchemaError, match=r"interval \[a, c2\] has 3 middle elements"):
        serialize.poset_from_obj({"elements": elements, "covers": covers})


def test_poset_ridge_under_three_top_cells_is_refused():
    elements, covers = bigons_on_an_edge(3)
    with pytest.raises(SchemaError, match="element e lies under 3 top cells, expected 1 or 2"):
        serialize.poset_from_obj({"elements": elements, "covers": covers})
    # a rank-2 poset: a vertex in three edges
    obj = {
        "elements": [{"id": i, "dim": 0} for i in "abcd"]
        + [{"id": i, "dim": 1} for i in ("ab", "ac", "ad")],
        "covers": [[v, e] for e in ("ab", "ac", "ad") for v in e],
    }
    with pytest.raises(SchemaError, match="element a lies under 3 top cells"):
        serialize.poset_from_obj(obj)


def test_face_posets_of_corpus_members_are_thin():
    for seed in range(20):
        s, _ = random_subdivision(seed, 5, 4)
        for face in [s.base.vertices, s.base.vertices[:3]]:
            restriction = s.restriction_complex(face)
            serialize.poset_from_obj(serialize.poset_to_obj(face_poset(restriction)))
        serialize.poset_from_obj(serialize.poset_to_obj(face_poset(s)))


def test_make_fixtures_regenerates_the_shipped_files(tmp_path, monkeypatch):
    path = FIXTURES.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    shipped = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert len(shipped) == 15
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


# -- the per-face loader, kept as the oracle of the one-pass loader ------------


def _old_complex_from_obj(obj, where="complex"):
    serialize._require_keys(obj, {"vertices", "facets"}, set(), where)
    vertices = obj["vertices"]
    facets = obj["facets"]
    if not isinstance(vertices, list) or not isinstance(facets, list):
        raise SchemaError(f"{where}: vertices and facets must be arrays")
    labels = [serialize._check_label(v, f"{where}.vertices") for v in vertices]
    if len(set(labels)) != len(labels):
        raise SchemaError(f"{where}.vertices: duplicate labels")
    parsed = []
    for i, f in enumerate(facets):
        if not isinstance(f, list):
            raise SchemaError(f"{where}.facets[{i}]: expected an array")
        entries = [serialize._check_label(v, f"{where}.facets[{i}]") for v in f]
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


def _old_subdivision_from_obj(obj):
    serialize._require_keys(obj, {"base", "total", "carrier"}, set(), "subdivision")
    base = _old_complex_from_obj(obj["base"], "subdivision.base")
    total = _old_complex_from_obj(obj["total"], "subdivision.total")
    raw = obj["carrier"]
    if not isinstance(raw, dict):
        raise SchemaError("subdivision.carrier: expected an object")
    carrier = {}
    for key, value in raw.items():
        if not isinstance(value, list):
            raise SchemaError(f"subdivision.carrier[{key}]: expected an array")
        value = canonical_face(
            serialize._check_label(v, f"subdivision.carrier[{key}]") for v in value
        )
        face = canonical_face(key.split(","))
        if face in carrier:  # two keys for one face are refused at the later one
            raise SchemaError(
                f"subdivision.carrier[{key}]: names the face {','.join(face)} of an earlier key"
            )
        carrier[face] = value
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


def _outcome(load, obj):
    """The loaded base, total and carrier (in order), or the error's type and
    message."""
    try:
        s = load(json.loads(json.dumps(obj)))
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)
    return s.base, s.total, list(s.carrier.items())


def _assert_same_as_oracle(obj):
    new = _outcome(serialize.subdivision_from_obj, obj)
    assert new == _outcome(_old_subdivision_from_obj, obj)
    return new


SUBDIVISION_FIXTURES = [
    p for p in sorted(FIXTURES.glob("*.json"))
    if serialize.detect_kind(serialize.load_json(str(p))) == "subdivision"
]


def _targeted_mutations(obj, rng):
    """Edits of a subdivision file aimed at the loader's shortcuts: carrier
    keys and values that are not canonical, bad entries in a value list, a
    facet label missing from ``vertices`` and two keys for one face."""
    keys = list(obj["carrier"])
    key = rng.choice(keys)
    labels = key.split(",")
    value = obj["carrier"][key]
    other = rng.choice(keys)

    def edit(fn):
        out = json.loads(json.dumps(obj))
        fn(out)
        return out

    def move_key(o, new_key):
        o["carrier"] = {(new_key if k == key else k): v for k, v in o["carrier"].items()}

    yield edit(lambda o: move_key(o, ",".join(reversed(labels))))
    yield edit(lambda o: move_key(o, ",".join(labels + labels[:1])))
    yield edit(lambda o: o["carrier"].__setitem__(key, list(reversed(value))))
    yield edit(lambda o: o["carrier"].__setitem__(key, value + value[:1]))
    for bad in (["x"], 1, "", None, {"x": 1}, "a,b"):
        at = rng.randrange(len(value) + 1)
        yield edit(lambda o, bad=bad: o["carrier"][key].insert(at, bad))
        yield edit(lambda o, bad=bad: o["carrier"][other].insert(at, bad))
    for part in ("base", "total"):
        facets = obj[part]["facets"]
        i = rng.randrange(len(facets))
        j = rng.randrange(len(facets[i]))
        yield edit(lambda o: o[part]["facets"][i].__setitem__(j, "zz"))
        yield edit(lambda o: o[part]["facets"][i].append("zz"))
        yield edit(lambda o: o[part]["facets"][i].append(o[part]["facets"][i][0]))
        yield edit(lambda o: o[part]["facets"][i].__setitem__(j, [facets[i][j]]))
        yield edit(lambda o: o[part]["vertices"].append("zz"))
    # two keys for one face, the second with the value of another key
    yield edit(lambda o: o["carrier"].__setitem__(",".join(reversed(labels)), obj["carrier"][other]))
    yield edit(lambda o: o["carrier"].__setitem__(",".join(labels + labels), value))
    yield edit(lambda o: o["carrier"].pop(key))


def test_one_pass_loader_matches_oracle_on_fixtures_and_corpus():
    for path in SUBDIVISION_FIXTURES:
        out = _assert_same_as_oracle(serialize.load_json(str(path)))
        assert isinstance(out[0], SimplicialComplex), out
    for seed in range(20):
        member, _ = random_subdivision(seed, 5, seed % 7)
        out = _assert_same_as_oracle(serialize.subdivision_to_obj(member))
        assert out[:2] == (member.base, member.total) and dict(out[2]) == member.carrier


def _assert_keys_are_the_totals_tuples(obj):
    s = serialize.subdivision_from_obj(json.loads(json.dumps(obj)))
    own = {f: f for fs in s.total.faces_by_dim().values() for f in fs}
    assert s.carrier and all(g is own[g] for g in s.carrier)
    return s


def test_loaded_carrier_keys_are_the_totals_own_tuples():
    for path in SUBDIVISION_FIXTURES:
        obj = serialize.load_json(str(path))
        _assert_keys_are_the_totals_tuples(obj)
        reversed_keys = {",".join(reversed(k.split(","))): v for k, v in obj["carrier"].items()}
        _assert_keys_are_the_totals_tuples({**obj, "carrier": reversed_keys})
    for seed in range(20):
        member, _ = random_subdivision(seed, 5, seed % 7)
        s = _assert_keys_are_the_totals_tuples(serialize.subdivision_to_obj(member))
        assert s.carrier == member.carrier and list(s.carrier) == sorted(member.carrier)
    sd = sd_subdivision(random_subdivision(3, 4, 4)[0])
    assert _assert_keys_are_the_totals_tuples(serialize.subdivision_to_obj(sd)).carrier == sd.carrier


def test_one_pass_loader_matches_oracle_on_mutations():
    rng = random.Random(13)
    outcomes = []
    for path in SUBDIVISION_FIXTURES:
        obj = serialize.load_json(str(path))
        for _ in range(4):
            outcomes += map(_assert_same_as_oracle, _targeted_mutations(obj, rng))
        for _ in range(60):
            mutated = obj
            for _ in range(rng.randint(1, 2)):
                mutated = mutate_json(mutated, rng)
            outcomes.append(_assert_same_as_oracle(mutated))
    errors = [out[1] for out in outcomes if isinstance(out[0], type)]
    # the mutations reach every check the shortcuts pass by
    for message in (
        "labels must be nonempty strings",
        "facets use labels missing from vertices",
        "repeated vertex label",
        "contains a comma",
        "expected an array",
        "carrier map has non-faces",
        "missing 1 faces",
        "of an earlier key",
    ):
        assert any(message in e for e in errors), message
