import hashlib
import json
import pathlib

import pytest

from localh import serialize
from localh.cli import main
from localh.constructions import trivial_on
from localh.permstats import derangement_enum

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of stdout and the exit code of each command, recorded before the
# search thread pool, the duplicate subset/f->h/gamma-basis loops and the
# sweep script were removed.  A refactor must keep every one byte-identical.
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
    (("search", "--seed", "0", "--count", "12", "--max-d", "5", "--steps", "6",
      "--include-sd"), 0,
     "8f626a02d679bda082d0b297a49cb70b0c20de73379d12f284860a11b4bf2dbc"),
]


@pytest.mark.parametrize(
    "argv, want_code, want_digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_golden_output(capsys, argv, want_code, want_digest):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


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
    code, out, _ = run(capsys, "identities", str(FIXTURES / "trivial_d4.json"))
    assert code == 0
    assert "all identities hold" in out


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


def test_enumeration_bound_not_an_integer(monkeypatch, capsys):
    derangement_enum.cache_clear()
    monkeypatch.setenv("LOCALH_MAX_ENUM", "abc")
    code, out, err = run(capsys, "derangement", "--max-d", "3")
    assert code == 2
    assert "LOCALH_MAX_ENUM='abc'" in err
    assert out == ""
