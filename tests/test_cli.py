import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest
from conftest import carrier_mutants, mutate_json

from localh import cli, constructions, posets, serialize
from localh.cli import build_parser, main
from localh.complexes import simplex
from localh.constructions import (
    MAX_BASE_VERTICES,
    InvalidTargetError,
    stellar_facet,
    trivial_on,
)
from localh.permstats import derangement_enum
from localh.posets import face_poset
from localh.subdivisions import Subdivision

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of stdout and the exit code of each command, recorded before the
# search thread pool, the duplicate subset/f->h/gamma-basis loops and the
# sweep script were removed.  The entries for double_push (a quasi-geometric
# witness), the two-triangle base and the two broken carrier maps were
# recorded before carrier queries moved to base-vertex bitmasks.  The cdindex
# entries for the simplex on 5, 6 and 7 vertices were recorded before the
# cd-form moved to the c/e transform and the chain counts to a DP.  The bary
# entries, the d = 6 search and the derangement table were recorded before
# the order complex moved to the chain DP and permutations to itertools.  The
# table-mode identities entries, which render skip and error notes, were
# recorded before the simplex-only records were named once.  The compute
# entry for broken_stellar_triangle moved when is_vertex_induced stopped
# failing a face whose carrier lies inside the union of its vertex carriers.
# The 40-seed search stream and the chord triangle entries were recorded
# before the sd search records moved to chain counts.
# A refactor must keep every one byte-identical.
GOLDEN = [
    (("compute", "bary_stellar_triangle.json"), 0,
     "83f57cd08d765919311696242697cceae19cf76cc8adc3ad3e61efde3f849ccb"),
    (("identities", "bary_stellar_triangle.json", "--json"), 0,
     "625bad0c41e5c2a2b2effc92c71d84017c7a3678fecdf5e128f6536a644a139e"),
    (("compute", "nonunimodal_quasigeometric.json"), 0,
     "e37fcc4a86d5d7cec4b1f7654a0205c0925957f5c1f4a6875dbc643abd9b40b0"),
    (("identities", "nonunimodal_quasigeometric.json", "--json"), 0,
     "e385e0d4776ca40fdeb86a4b6b583abe2deaf682b024f442ddf1179575344536"),
    (("compute", "stellar_triangle.json"), 0,
     "fad9f4bc35572cba68a1e7511f4a6cbd6596f98e50893fd11ecf84acb4bd9175"),
    (("identities", "stellar_triangle.json", "--json"), 0,
     "ff8ea43497e0adfc8bb2e59167018c8838f46a07a8c3e502d021aae8d367bb48"),
    (("compute", "trivial_d2.json"), 0,
     "1cf241feee0cd745faa8490c28c3206acfc64099aeff81d0956e28260734d49a"),
    (("identities", "trivial_d2.json", "--json"), 0,
     "fffcc82762d848d837ee45870eb348d9fff60d7439bfcbf6d35397cecb4dac13"),
    (("compute", "trivial_d3.json"), 0,
     "92c804886b3df7a6b7861cce7a64d4f71e52e68c2ad0a103c917e125511a47fb"),
    (("identities", "trivial_d3.json", "--json"), 0,
     "66f28ab21bd3fe30cd4141bf49ae479e8b4bc64af60ebd1645d825b91d304501"),
    (("compute", "trivial_d4.json"), 0,
     "145e83656a2af34d7eb79f425e20e5986f21b3a377ee76fa6e8a524e761f7dc4"),
    (("identities", "trivial_d4.json", "--json"), 0,
     "39cee0cd6b3b311edafd1e1e00209666e6e448bbdc4b49fbe3278bc1683a493e"),
    (("compute", "trivial_d5.json"), 0,
     "dbb0b0d5c43d4d34f39ca91bad885173efcda205e0c8c000f10a0455374bbc60"),
    (("identities", "trivial_d5.json", "--json"), 0,
     "990cb8536af1489993ea4d4a452c926556412a31f98fa46974ca5e58683eaf62"),
    (("cdindex", "hexagon_poset.json"), 0,
     "cf4af7a355c57ab8ebddbc3025cc4c5c6debb9df6944fa90fe187c59034cb17a"),
    (("cdindex", "square_poset.json"), 0,
     "6f9e5c769ec71d25acd7a4324442f8611f88580ba3dffcc29d11ff2465e92567"),
    (("cdindex", "stellar_triangle_poset.json"), 0,
     "64f72c160bc52262c53442f5ef4a156d1ef3f1f2c53b9ff2fa017ae9949a20cf"),
    (("compute", "double_push.json"), 0,
     "2ddd6decb1b65715328b55452a38eefcf2fdbefaee0e28937381b5370d53db76"),
    (("identities", "double_push.json", "--json"), 0,
     "fa1489cc4573c746c1785c743ec00b3fec6eda186f14527fd5befb18b5d49cdc"),
    (("compute", "stellar_two_triangles.json"), 0,
     "56d129bee1bb11b56b5031607e679693071d936c20a0b1636ddc76f3b8421b6c"),
    (("identities", "stellar_two_triangles.json", "--json"), 0,
     "2cc21ea099101a8fbf11eb1987af1bba878791923195408e07f7d025c22967d6"),
    (("identities", "stellar_two_triangles.json"), 0,
     "4f47bc6fbf5541f607b75811c60892b2fa355910ff140258323c55980ee888d1"),
    (("compute", "broken_stellar_triangle.json"), 1,
     "c0a178e08a863ab10ceffa4da1934ef43cf406bebe9e4115dee4537aff0c91fb"),
    (("identities", "broken_stellar_triangle.json"), 1,
     "36457db868019a52071a4e42e1b6d14392b1685806843b9a700ee84a44bcd4bb"),
    (("identities", "broken_stellar_triangle.json", "--json"), 1,
     "5522fc738b9b4a31c9480e08aa387038f7e2383a0cf83d4b7baed01b0e28912b"),
    (("compute", "broken_two_triangles.json"), 1,
     "5f47fce5674b44723bdef93159ea4929733d65c02bb159ea399a02a9ad1255cd"),
    (("identities", "broken_two_triangles.json", "--json"), 1,
     "2ac8ebec684ddef642b454a5ed6b5cabe6a8fbb08a258b2b9cf0d434391fc16c"),
    (("identities", "broken_two_triangles.json"), 1,
     "3e3a563173be545f4caa1dc4a6cef35e34bcb5ab50966a9e11d9232fdb9dd179"),
    (("search", "--seed", "0", "--count", "12", "--max-d", "5", "--steps", "6",
      "--include-sd"), 0,
     "8f626a02d679bda082d0b297a49cb70b0c20de73379d12f284860a11b4bf2dbc"),
    (("cdindex", "simplex5_poset.json"), 0,
     "5e2502d7f234b2b5802b10067ce2f949f48909801b11ea39ab5872726ec4e2b3"),
    (("cdindex", "simplex6_poset.json"), 0,
     "e6ec8471ef3b81f32cc0202f8432934457ed8accd3cc5564d48ea02a1d677cc2"),
    (("cdindex", "simplex7_poset.json"), 0,
     "039640cfe87619cdf8ceb5622d640e90a0ac0089a19c077c2d6c8c8c1e8d42cb"),
    (("bary", "bary_stellar_triangle.json"), 0,
     "34db95f4035a91d8bdfd4f4e888c78de63aea83679d3c40c25c63e31a6d07d51"),
    (("bary", "broken_stellar_triangle.json"), 0,
     "80d0f83c82a2218ef95206b38a2b9842cb1e84af04d3073f40c073a818d9caad"),
    (("bary", "broken_two_triangles.json"), 0,
     "89320dbc2fde28ea1815e60da4a94d3ffa5a6bdd7e93b47533ade0c3c1f8f88d"),
    (("bary", "double_push.json"), 0,
     "1d6153bac058b5adc7809ff4f3e95631e9a40a870df243d3ad3ebfffc1f390ad"),
    (("bary", "hexagon_poset.json"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("bary", "nonunimodal_quasigeometric.json"), 0,
     "32d7276b004f6da2e90cd70b59582794d21ce6c608e004584b3c3f5dc7063738"),
    (("bary", "square_poset.json"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("bary", "stellar_triangle.json"), 0,
     "ea0888d12421549f3db49b7357291838eda249fbf582eff41d4d4ebcd9887afc"),
    (("bary", "stellar_triangle_poset.json"), 0,
     "ea0888d12421549f3db49b7357291838eda249fbf582eff41d4d4ebcd9887afc"),
    (("bary", "stellar_two_triangles.json"), 0,
     "8ea688d78726c67beebffbf2d569857030d2ee13af77658073782324ad745c23"),
    (("bary", "trivial_d2.json"), 0,
     "6232d97fe7c577b02f2d7bd6d6c5bc72da8c7c6281f4960cf2485f4077e03c55"),
    (("bary", "trivial_d3.json"), 0,
     "2c647fa6f97b531c098ccfb9901fee0464e6b3a1dcb5f9ee193465945a4cf29c"),
    (("bary", "trivial_d4.json"), 0,
     "64ee95bd3564cddf1bcc7f86605297fe6fbaa632d98a5ae96b95705d13909766"),
    (("bary", "trivial_d5.json"), 0,
     "dcada6ba698c65f9b725433848859cb0f2947c93bc8a50701727fc599d2f96eb"),
    (("search", "--seed", "5", "--count", "3", "--max-d", "6", "--steps", "6",
      "--include-sd"), 0,
     "ffb3b95e6548077e8d020ad2b3a8b85405a1f43b50420baf471f6c7718419673"),
    (("derangement", "--max-d", "8", "--json"), 0,
     "a2c8270c713b66a840d00c24668b43aa7fd622072e321d9b572939dd701bc7b4"),
    (("search", "--seed", "0", "--count", "40", "--max-d", "6", "--steps", "6",
      "--include-sd"), 0,
     "6afd47367274e049d7190cbf55d29d77f93f3b99f2887ece1dbced4be9bc70d4"),
    (("bary", "chord_triangle_poset.json"), 0,
     "82575f1853ac0646f654c0a4972007eeedad2d9a9e47b4f2899f35f43f378a4a"),
    (("cdindex", "chord_triangle_poset.json"), 0,
     "813383da3fc9eef17138f805f138f44556a2f64d015b0ae1690a587ad45e58ea"),
]

# Inputs the golden table names that are not shipped: the face poset of the
# simplex on n vertices, written to the test's temporary directory.
SIMPLEX_POSETS = {f"simplex{n}_poset.json": n for n in (5, 6, 7)}


def golden_path(name, tmp_path):
    if name not in SIMPLEX_POSETS:
        return str(FIXTURES / name)
    p = face_poset(simplex(f"v{i}" for i in range(1, SIMPLEX_POSETS[name] + 1)))
    path = tmp_path / name
    path.write_text(json.dumps(serialize.poset_to_obj(p)))
    return str(path)


@pytest.mark.parametrize(
    "argv, want_code, want_digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_golden_output(tmp_path, capsys, argv, want_code, want_digest):
    argv = [golden_path(a, tmp_path) if a.endswith(".json") else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


# SHA-256 of `compute` stdout on seeded invalid carrier mutants of corpus
# members (``conftest.carrier_mutants``), three that keep the carriers
# monotone and three that do not, recorded before the weak-ball check moved
# to one face-incidence pass per subdivision.  Every one exits 1.
MUTANT_GOLDEN = {
    "corpus2-monotone0": "0de98ddb9f192860fc3274d04a4f737fe0545ce2b235ad673700f879a0b10c70",
    "corpus5-monotone0": "a66bee37bc6f51e1a6d428ffb5eb555e8007e6696137f13b2de779e1ee84e6a7",
    "corpus7-monotone0": "1db8422f877c95df3c1d0408512e761f951e390c452633e710f8d1f613a03bc7",
    "corpus2-broken0": "579fc8626e145fe40ea1d404eb9d0b9299179d9d596172f711b828429895c207",
    "corpus3-broken0": "076c3731d71a2c5e6a35e956d6204abfb99c61a61d517ef39db1e2feaed1ed02",
    "corpus5-broken0": "0467913babc57d9ae2d67b4e2ccd72c43ef94de506fadd9bdb72ee800e118b56",
}


def test_compute_on_carrier_mutants_matches_golden(tmp_path, capsys):
    mutants = dict(carrier_mutants(range(8), 1))
    for name, want_digest in MUTANT_GOLDEN.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serialize.subdivision_to_obj(mutants[name])))
        code, out, _ = run(capsys, "compute", str(path))
        assert code == 1, name
        assert hashlib.sha256(out.encode()).hexdigest() == want_digest, name


def test_compute_nonunimodal_fixture(capsys):
    code, out, _ = run(
        capsys, "compute", str(FIXTURES / "nonunimodal_quasigeometric.json")
    )
    assert code == 0
    data = json.loads(out)
    assert data["local_h"] == [0, 1, 0, 1, 0]
    assert data["local_gamma"] == [0, 1, -2]
    assert data["quasi_geometric"]["holds"] is True
    assert data["vertex_induced"]["holds"] is False
    assert data["unimodal"] is False
    assert data["validity"] == "valid-weak"


def test_compute_trivial(capsys):
    code, out, _ = run(capsys, "compute", str(FIXTURES / "trivial_d3.json"))
    assert code == 0
    data = json.loads(out)
    assert data["local_h"] == [0, 0, 0, 0]
    assert data["vertex_induced"]["holds"] is True


def test_realize_round_trip(tmp_path, capsys):
    out_file = tmp_path / "realized.json"
    code, _, err = run(
        capsys, "realize", "--target", "0,2,3,2,0", "-o", str(out_file)
    )
    assert code == 0
    assert "self-check" in err
    s = serialize.subdivision_from_obj(serialize.load_json(str(out_file)))
    assert s.local_h().padded(4) == (0, 2, 3, 2, 0)


def test_realize_trivial_target(capsys):
    code, out, err = run(capsys, "realize", "--target", "0,0")
    assert code == 0
    data = json.loads(out)
    assert data["total"]["vertices"] == ["v1"]


def test_realize_invalid_target(capsys):
    code, _, err = run(capsys, "realize", "--target", "0,1,2,0")
    assert code == 2
    assert "invalid target" in err


def test_realize_target_entry_not_an_integer(capsys):
    code, _, err = run(capsys, "realize", "--target", "0,x")
    assert code == 2
    assert "realize --target: 'x' is not an integer" in err
    assert "invalid literal" not in err


def test_realize_refuses_a_target_over_the_base_vertex_budget(monkeypatch, capsys):
    started = []

    def stub(target):
        started.append(len(target))
        raise InvalidTargetError("stub")

    monkeypatch.setattr("localh.constructions.realize_local_h", stub)
    target = ",".join(["0"] + ["1"] * MAX_BASE_VERTICES + ["0"])
    code, out, err = run(capsys, "realize", "--target", target)
    assert code == 2
    assert out == ""
    assert (
        f"realize --target: {MAX_BASE_VERTICES + 2} entries exceed the budget of "
        f"{MAX_BASE_VERTICES + 1}" in err
    )
    assert started == []
    # the 12-entry all-ones target (a base of 11 vertices) is within budget
    code, _, err = run(capsys, "realize", "--target", "0" + ",1" * 10 + ",0")
    assert started == [12]
    assert "invalid target: stub" in err


def test_replay_refuses_seed_vertices_over_the_base_vertex_budget(tmp_path, monkeypatch, capsys):
    def refuse(word):
        raise AssertionError("construction started")

    monkeypatch.setattr("localh.constructions.replay", refuse)
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps({
        "format": "localh/1",
        "seed_vertices": MAX_BASE_VERTICES + 1,
        "steps": [],
    }))
    code, out, err = run(capsys, "replay", str(word_file))
    assert code == 2
    assert out == ""
    assert (
        f"opword.seed_vertices: {MAX_BASE_VERTICES + 1} exceeds the budget of "
        f"{MAX_BASE_VERTICES} base vertices" in err
    )


def test_replay_refuses_joins_past_the_base_vertex_budget(tmp_path, monkeypatch, capsys):
    started = []

    def stub(word):
        started.append(word)
        raise ValueError("stub")

    monkeypatch.setattr("localh.constructions.replay", stub)
    word_file = tmp_path / "word.json"
    # six joins on 3 vertices would make a base of 15; the fifth makes 13
    word_file.write_text(json.dumps({"seed_vertices": 3, "steps": [{"op": "o3"}] * 6}))
    code, out, err = run(capsys, "replay", str(word_file))
    assert (code, out) == (2, "")
    assert err == (
        "input error: opword.steps[4]: the join grows the base to 13 vertices, "
        f"past the budget of {MAX_BASE_VERTICES} base vertices\n"
    )
    assert started == []
    # four joins make a base of 11 vertices, within budget; other ops add none
    steps = [{"op": "o1"}, {"op": "o3"}] * 4 + [{"op": "sd"}]
    word_file.write_text(json.dumps({"seed_vertices": 3, "steps": steps}))
    code, _, err = run(capsys, "replay", str(word_file))
    assert len(started) == 1
    assert err == "input error: stub\n"


def test_search_refuses_a_negative_count_before_any_member(monkeypatch, capsys):
    started = []
    monkeypatch.setattr(
        "localh.constructions.random_subdivision", lambda *a: started.append(a)
    )
    code, out, err = run(capsys, "search", "--count", "-1")
    assert (code, out, err) == (2, "", "input error: search --count: -1 is negative\n")
    assert started == []


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-d", "1", "search --max-d: 1 is below 2, the smallest base"),
        ("--steps", "-1", "search --steps: -1 is negative"),
    ],
)
@pytest.mark.parametrize("count", ["0", "2"])
def test_search_refuses_a_bad_option_before_any_member(
    monkeypatch, capsys, option, value, message, count
):
    started = []
    monkeypatch.setattr(
        "localh.constructions.random_subdivision", lambda *a: started.append(a)
    )
    code, out, err = run(capsys, "search", "--count", count, option, value)
    assert (code, out, err) == (2, "", f"input error: {message}\n")
    assert started == []


def test_search_refuses_max_d_over_the_base_vertex_budget(monkeypatch, capsys):
    started = []

    def stub(seed, d_max, steps):
        started.append(d_max)
        raise ValueError("stub")

    monkeypatch.setattr("localh.constructions.random_subdivision", stub)
    code, out, err = run(capsys, "search", "--count", "3", "--max-d", str(MAX_BASE_VERTICES + 1))
    assert code == 2
    assert out == ""
    assert err == (
        f"input error: search --max-d: {MAX_BASE_VERTICES + 1} exceeds the budget of "
        f"{MAX_BASE_VERTICES} base vertices\n"
    )
    assert started == []
    # a base of 11 vertices is within budget
    code, _, err = run(capsys, "search", "--count", "1", "--max-d", str(MAX_BASE_VERTICES))
    assert started == [MAX_BASE_VERTICES]
    assert err == "input error: stub\n"


def test_cdindex_refuses_a_monogon(tmp_path, capsys):
    f = tmp_path / "monogon.json"
    f.write_text(json.dumps({
        "format": "localh/1",
        "elements": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}, {"id": "f", "dim": 2}],
        "covers": [["v", "e"], ["e", "f"]],
    }))
    code, out, err = run(capsys, "cdindex", str(f))
    assert code == 2
    assert out == ""
    assert "poset: interval [v, f] has 1 middle element, expected 2" in err


def triangles_on_an_edge():
    """Three triangles sharing the edge a-b, as a poset with carriers."""
    apexes = ("c1", "c2", "c3")
    edges = [("a", "b")] + [(v, c) for c in apexes for v in ("a", "b")]
    carrier = {"a": ["x"], "b": ["y"]} | {c: ["z"] for c in apexes}
    elements = [{"id": v, "dim": 0} for v in carrier]
    elements += [{"id": f"{u}-{v}", "dim": 1} for u, v in edges]
    elements += [{"id": f"t{c}", "dim": 2} for c in apexes]
    covers = [[v, f"{u}-{w}"] for u, w in edges for v in (u, w)]
    covers += [[e, f"t{c}"] for c in apexes for e in ("a-b", f"a-{c}", f"b-{c}")]
    for u, v in edges:
        carrier[f"{u}-{v}"] = sorted(carrier[u] + carrier[v])
    for c in apexes:
        carrier[f"t{c}"] = ["x", "y", "z"]
    return {"format": "localh/1", "elements": elements, "covers": covers, "carrier": carrier}


@pytest.mark.parametrize("command", ["cdindex", "bary"])
def test_poset_with_an_edge_under_three_triangles_is_refused(tmp_path, capsys, command):
    f = tmp_path / "three_triangles.json"
    f.write_text(json.dumps(triangles_on_an_edge()))
    code, out, err = run(capsys, command, str(f))
    assert code == 2
    assert out == ""
    assert "poset: element a-b lies under 3 top cells, expected 1 or 2" in err


@pytest.mark.parametrize(
    "name", [g[0][1] for g in GOLDEN if g[0][0] == "compute"]
)
def test_compute_on_reversed_carrier_labels_matches_golden(tmp_path, capsys, name):
    original = serialize.load_json(str(FIXTURES / name))
    obj = dict(original)
    obj["carrier"] = {
        ",".join(reversed(k.split(","))): list(reversed(v)) for k, v in obj["carrier"].items()
    }
    assert serialize.subdivision_from_obj(obj) == serialize.subdivision_from_obj(original)
    f = tmp_path / name
    f.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "compute", str(f))
    want_code, want_digest = next(g[1:] for g in GOLDEN if g[0] == ("compute", name))
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


def test_bary_pipeline_through_files(tmp_path, capsys):
    bary_file = tmp_path / "bary.json"
    code, _, _ = run(
        capsys, "bary", str(FIXTURES / "stellar_triangle.json"), "-o", str(bary_file)
    )
    assert code == 0
    code, out, _ = run(capsys, "compute", str(bary_file))
    assert code == 0
    data = json.loads(out)
    assert data["local_h"] == [0, 7, 7, 0]
    assert data["h"] == [1, 10, 7]


def test_bary_of_poset(tmp_path, capsys):
    code, out, err = run(capsys, "bary", str(FIXTURES / "stellar_triangle_poset.json"))
    assert code == 0
    assert "poset input" in err
    data = json.loads(out)
    s = serialize.subdivision_from_obj(data)
    assert s.local_h().coeffs == (0, 7, 7)


def test_identities_fixture(capsys):
    code, out, _ = run(
        capsys, "identities", str(FIXTURES / "bary_stellar_triangle.json"), "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] is True


def test_identities_table(capsys):
    code, out, err = run(capsys, "identities", str(FIXTURES / "trivial_d4.json"))
    assert code == 0
    assert "all identities hold" in out
    assert "weak-ball" not in err


@pytest.mark.parametrize("name", ["broken_stellar_triangle", "broken_two_triangles"])
def test_identities_notes_an_invalid_input(capsys, name):
    code, out, err = run(capsys, "identities", str(FIXTURES / f"{name}.json"))
    assert code == 1
    assert "MISMATCH" in out
    note = "note: input fails the weak-ball check: invalid(carrier-not-inclusion-preserving)"
    assert note + "\n" in err


def test_derangement_table(capsys):
    code, out, _ = run(capsys, "derangement", "--max-d", "6", "--json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["match"] for row in rows)
    assert rows[4] == {"d": 4, "enum": [0, 1, 7, 1], "recurrence": [0, 1, 7, 1],
                       "match": True}


def test_cdindex_hexagon(capsys):
    code, out, _ = run(capsys, "cdindex", str(FIXTURES / "hexagon_poset.json"))
    assert code == 0
    data = json.loads(out)
    assert data["ab_index"] == {"aa": 1, "ab": 5, "ba": 5, "bb": 1}
    assert data["cd_index"] == {"cc": 1, "d": 4}
    assert data["closed"] is True


def test_cdindex_square(capsys):
    code, out, _ = run(capsys, "cdindex", str(FIXTURES / "square_poset.json"))
    assert code == 0
    data = json.loads(out)
    assert data["closed"] is False
    assert data["difference"] == []


def test_search_deterministic(capsys):
    code, out1, _ = run(capsys, "search", "--seed", "3", "--count", "4",
                        "--max-d", "4", "--steps", "3")
    assert code == 0
    code, out2, _ = run(capsys, "search", "--seed", "3", "--count", "4",
                        "--max-d", "4", "--steps", "3")
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert len(records) == 4
    for rec in records:
        assert rec["quasi_geometric"] is True
        assert not rec["conjecture_relevant"]


def test_search_require_vertex_induced(capsys):
    code, out, _ = run(
        capsys, "search", "--seed", "0", "--count", "6", "--max-d", "4",
        "--steps", "3", "--require", "vertex-induced", "--include-sd",
    )
    assert code == 0
    for line in out.splitlines():
        assert json.loads(line)["vertex_induced"] is True


def test_replay_round_trip(tmp_path, capsys):
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps({
        "format": "localh/1",
        "seed_vertices": 4,
        "steps": [{"op": "l32", "face": "auto"}],
    }))
    code, out, _ = run(capsys, "replay", str(word_file))
    assert code == 0
    data = json.loads(out)
    assert data["validity"] == "valid-weak"
    assert data["local_h"] == [0, 1, 0, 1, 0]


def test_replay_warns_on_bare_push(tmp_path, capsys):
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps({
        "seed_vertices": 4,
        "steps": [{"op": "o2", "face": "v1,v2,v3"}],
    }))
    code, out, err = run(capsys, "replay", str(word_file))
    assert "warning" in err
    data = json.loads(out)
    assert data["local_h"] == [0, 0, -1, 0, 0]


def test_input_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "compute", str(missing))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2
    assert "input error" in err


def test_schema_error_names_path(tmp_path, capsys):
    f = tmp_path / "typo.json"
    obj = serialize.subdivision_to_obj(trivial_on(2))
    obj["totol"] = obj.pop("total")
    f.write_text(json.dumps(obj))
    code, _, err = run(capsys, "compute", str(f))
    assert code == 2
    assert "totol" in err


def test_search_tally_counts_every_generated_record(capsys):
    code, out, err = run(
        capsys, "search", "--seed", "0", "--count", "5", "--max-d", "4",
        "--steps", "3", "--require", "vertex-induced", "--include-sd",
    )
    assert code == 0
    tally = json.loads(err.splitlines()[-1])["tally"]
    assert sum(row["count"] for row in tally) == 10
    printed = [json.loads(line) for line in out.splitlines()]
    induced = [row for row in tally if row["vertex_induced"]]
    assert sum(row["count"] for row in induced) == len(printed)


def test_sd_search_record_from_chain_counts_matches_the_built_sd(corpus_summaries):
    pairs = [m.sd_records for m in corpus_summaries if m.bary]
    assert len(pairs) == 100
    assert [chain["seed"] for chain, built in pairs if chain != built] == []


def _stellar_with_carriers(changes):
    """The stellar triangle with some carriers replaced."""
    s = stellar_facet(trivial_on(3))
    return Subdivision(s.base, s.total, {**s.carrier, **changes})


# broken_stellar_triangle and the moved edge are not monotone, so their sd
# fields come from the built sd; the hand-made maps fail the record built
# without that fallback, or without the carrier-size condition
SD_RECORD_INPUTS = {
    **{
        name: serialize.subdivision_from_obj(serialize.load_json(str(FIXTURES / f"{name}.json")))
        for name in (
            "broken_stellar_triangle", "stellar_triangle", "double_push",
            "nonunimodal_quasigeometric",
        )
    },
    # the edge v1z1 is carried by a vertex, yet every chain of sd carries
    # its vertex carriers into a base face big enough for it
    "edge_moved_off_its_carrier": _stellar_with_carriers({("v1", "z1"): ("v2",)}),
    # monotone, but z1 and v1z1 are carried by v1, so the chain v1 < v1z1
    # of sd has both vertex carriers inside a smaller base face
    "interior_vertex_collapsed": _stellar_with_carriers({
        ("z1",): ("v1",), ("v1", "z1"): ("v1",),
        ("v2", "z1"): ("v1", "v2"), ("v3", "z1"): ("v1", "v3"),
    }),
}


@pytest.mark.parametrize("name", SD_RECORD_INPUTS)
def test_sd_search_fields_from_chain_counts_match_the_built_sd(name):
    s = SD_RECORD_INPUTS[name]
    built = posets.sd_subdivision(s)
    chain, want = cli._invariants(s, sd=True), cli._invariants(built)
    assert chain[:3] == want[:3]
    assert chain[3]() == built
    d = len(s.base.vertices)
    if want[0].is_symmetric(d):  # else gamma, and so the record, is undefined
        word = constructions.OpWord(d, ())
        assert cli._record(0, word, d, *chain) == cli._record(0, word, d, *want)


def test_sd_search_fields_are_read_off_the_member_when_carriers_are_monotone(monkeypatch):
    s, _ = constructions.random_subdivision(3, 5, 4)
    want = cli._invariants(posets.sd_subdivision(s))

    def refuse(source):
        raise AssertionError("sd was built")

    monkeypatch.setattr(posets, "sd_subdivision", refuse)
    monkeypatch.setattr(posets, "face_poset", refuse)
    assert cli._invariants(s, sd=True)[:3] == want[:3]


def test_search_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--workers", "2"])
    assert exc.value.code == 2


def test_poset_cover_with_list_entry_is_an_input_error(tmp_path, capsys):
    obj = serialize.load_json(str(FIXTURES / "square_poset.json"))
    lo, up = obj["covers"][3]
    obj["covers"][3] = [[lo], up]
    f = tmp_path / "bad_cover.json"
    f.write_text(json.dumps(obj))
    code, _, err = run(capsys, "cdindex", str(f))
    assert code == 2
    assert "poset.covers[3]" in err
    assert "Traceback" not in err


def test_poset_carrier_given_as_string_is_an_input_error(tmp_path, capsys):
    obj = serialize.load_json(str(FIXTURES / "stellar_triangle_poset.json"))
    obj["carrier"]["v1-v2"] = "".join(obj["carrier"]["v1-v2"])
    f = tmp_path / "bad_carrier.json"
    f.write_text(json.dumps(obj))
    code, _, err = run(capsys, "bary", str(f))
    assert code == 2
    assert "poset.carrier[v1-v2]" in err
    assert "Traceback" not in err


def test_derangement_beyond_the_enumeration_bound_is_an_input_error(monkeypatch, capsys):
    orders = []

    def counted(d):
        orders.append(d)
        return derangement_enum(d)

    monkeypatch.setattr(cli, "derangement_enum", counted)
    code, out, err = run(capsys, "derangement", "--max-d", "10")
    assert code == 2
    assert out == ""
    assert err == "input error: enumeration over S_10 exceeds the bound 9\n"
    assert orders == [10]  # refused before S_0..S_9 are enumerated

    code, out, err = run(capsys, "derangement", "--max-d", "-1")
    assert code == 2
    assert out == ""
    assert err == "input error: order must be nonnegative\n"


def fresh_process(*argv):
    """Exit code and stdout of the command run in a new interpreter."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "localh.cli", *argv], capture_output=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("first, second", [
    (("derangement", "--max-d", "3", "--json"), ("derangement", "--max-d", "3")),
    (("search", "--count", "1", "--include-sd"), ("search", "--count", "1")),
])
def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys, first, second):
    assert build_parser() is build_parser()
    outputs = [run(capsys, *first)[:2], run(capsys, *second)[:2]]
    for argv, (code, out) in zip((first, second), outputs):
        assert (code, out.encode()) == fresh_process(*argv)
    if first[0] == "derangement":
        assert outputs[1][1].startswith("d=0: enum [1] recurrence [1] match=true\n")
    else:
        assert len(outputs[0][1].splitlines()) == 2
        assert len(outputs[1][1].splitlines()) == 1


def test_unexpected_exception_exits_3_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("stub failure")

    monkeypatch.setattr("localh.cli.cmd_compute", broken)
    code, out, err = run(capsys, "compute", str(FIXTURES / "trivial_d2.json"))
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: stub failure\n"


FUZZ_COMMANDS = {"subdivision": ("compute", "identities", "bary"), "poset": ("cdindex", "bary")}


def test_mutated_fixtures_exit_0_1_or_2_without_traceback(tmp_path, capsys):
    """Seeded mutations of every fixture (one JSON node replaced, dropped or
    duplicated) through each command that reads its kind of file."""
    rng = random.Random(7)
    codes = Counter()
    for path in sorted(FIXTURES.glob("*.json")):
        obj = serialize.load_json(str(path))
        for command in FUZZ_COMMANDS[serialize.detect_kind(obj)]:
            for i in range(25):
                mutated = tmp_path / f"{path.stem}-{command}-{i}.json"
                mutated.write_text(json.dumps(mutate_json(obj, rng)))
                code, _, err = run(capsys, command, str(mutated))
                assert code in (0, 1, 2) and "Traceback" not in err, (mutated.read_text(), err)
                codes[code] += 1
    assert codes[0] and codes[2]
