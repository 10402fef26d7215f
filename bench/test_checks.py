"""The reference checks accept real outputs and reject corrupted ones.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from localh import cli, serialize  # noqa: E402
from localh.complexes import simplex  # noqa: E402
from localh.constructions import trivial_on  # noqa: E402
from localh.posets import face_poset, sd_subdivision  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


class ReferencePolynomials(unittest.TestCase):
    def test_permutation_statistics(self):
        self.assertEqual(checks.eulerian(4), (1, 11, 11, 1, 0))
        self.assertEqual(checks.derangement(4), (0, 1, 7, 1, 0))
        self.assertEqual(checks.derangement(0), (1,))
        self.assertEqual(checks.descent_set_words(3), {"aaa": 1, "baa": 2, "aba": 2, "bba": 1})

    def test_transforms(self):
        self.assertEqual(checks.gamma_to_h([0, 4, -5], 4), [0, 4, 3, 4, 0])
        self.assertEqual(checks.h_from_f([1, 4, 6, 3]), [1, 1, 1, 0])
        self.assertEqual(checks.expand_cd({"cd": 1}), {"aab": 1, "aba": 1, "bab": 1, "bba": 1})
        self.assertEqual(checks.evaluate_cd({"cd": 2, "dc": 1}), [0, 6, 6])


class CheckCase(unittest.TestCase):
    check = None

    def assertAccepts(self, stdout, meta):
        self.assertEqual(type(self).check(stdout, meta), [])

    def assertRejects(self, obj, meta, mutate):
        bad = copy.deepcopy(obj)
        mutate(bad)
        self.assertNotEqual(type(self).check(json.dumps(bad), meta), [])


class SearchCheck(CheckCase):
    check = staticmethod(checks.check_search)

    def setUp(self):
        self.stdout = run_cli(["search", "--seed", "3", "--count", "1", "--max-d", "5",
                               "--steps", "6", "--include-sd"])
        self.records = [json.loads(line) for line in self.stdout.splitlines()]
        self.meta = {"seed": 3, "d": self.records[0]["d"]}

    def rejects(self, mutate):
        bad = copy.deepcopy(self.records)
        mutate(bad)
        text = "\n".join(json.dumps(r) for r in bad)
        self.assertNotEqual(checks.check_search(text, self.meta), [])

    def test_real_output_passes(self):
        self.assertAccepts(self.stdout, self.meta)

    def test_flipped_local_h_entry(self):
        self.rejects(lambda r: r[0]["local_h"].__setitem__(1, r[0]["local_h"][1] + 1))

    def test_gamma_not_matching(self):
        self.rejects(lambda r: r[1]["gamma"].__setitem__(1, r[1]["gamma"][1] + 1))

    def test_sd_not_vertex_induced(self):
        self.rejects(lambda r: r[1].__setitem__("vertex_induced", False))

    def test_not_quasi_geometric(self):
        self.rejects(lambda r: r[0].__setitem__("quasi_geometric", False))

    def test_dropped_record(self):
        self.rejects(lambda r: r.pop())


class ComputeCheck(CheckCase):
    check = staticmethod(checks.check_compute)

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        path = os.path.join(self.tmp.name, "sd4.json")
        serialize.dump_json(serialize.subdivision_to_obj(sd_subdivision(trivial_on(4))), path)
        self.stdout = run_cli(["compute", path])
        self.obj = json.loads(self.stdout)
        self.meta = {"kind": "sd-simplex", "d": 4}

    def tearDown(self):
        self.tmp.cleanup()

    def test_real_output_passes(self):
        self.assertAccepts(self.stdout, self.meta)
        member = run_cli(["compute", os.path.join(FIXTURES, "stellar_triangle.json")])
        self.assertAccepts(member, {"kind": "member", "d": 3})

    def test_flipped_h_entry(self):
        self.assertRejects(self.obj, self.meta, lambda o: o["h"].__setitem__(1, o["h"][1] + 1))

    def test_f_vector_with_wrong_euler_characteristic(self):
        self.assertRejects(self.obj, self.meta,
                           lambda o: o["f_vector"].__setitem__(1, o["f_vector"][1] + 1))

    def test_invalid_verdict(self):
        self.assertRejects(self.obj, self.meta, lambda o: o.__setitem__("validity", "invalid(x)"))

    def test_flipped_local_h_entry(self):
        def flip(o):
            o["local_h"][1] += 1
            o["local_h"][3] += 1
        self.assertRejects(self.obj, self.meta, flip)

    def test_negative_local_gamma(self):
        self.assertRejects(self.obj, self.meta, lambda o: o["local_gamma"].__setitem__(1, -1))


class IdentitiesCheck(CheckCase):
    check = staticmethod(checks.check_identities)

    def setUp(self):
        self.stdout = run_cli(["identities", os.path.join(FIXTURES, "bary_stellar_triangle.json"),
                               "--json"])
        self.obj = json.loads(self.stdout)
        self.meta = {"kind": "bary", "d": 3}

    def record(self, o, name):
        return next(r for r in o["identities"] if r["name"] == name)

    def test_real_output_passes(self):
        self.assertAccepts(self.stdout, self.meta)

    def test_all_match_false(self):
        self.assertRejects(self.obj, self.meta, lambda o: o.__setitem__("all_match", False))

    def test_one_identity_fails(self):
        self.assertRejects(self.obj, self.meta,
                           lambda o: self.record(o, "locality").__setitem__("match", False))

    def test_flipped_bary_local_h_entry(self):
        def flip(o):
            lhs = self.record(o, "bary-local-h")["lhs"]
            lhs[1] += 1
        self.assertRejects(self.obj, self.meta, flip)

    def test_negative_gamma_on_bary(self):
        self.assertRejects(self.obj, self.meta,
                           lambda o: self.record(o, "gamma")["lhs"].__setitem__(1, -1))


class CdindexCheck(CheckCase):
    check = staticmethod(checks.check_cdindex)

    def setUp(self):
        self.stdout = run_cli(["cdindex", os.path.join(FIXTURES, "stellar_triangle_poset.json")])
        self.obj = json.loads(self.stdout)
        self.meta = {"kind": "fixture", "rank": 3}
        self.tmp = tempfile.TemporaryDirectory()
        path = os.path.join(self.tmp.name, "simplex4.json")
        serialize.dump_json(serialize.poset_to_obj(face_poset(simplex(["a", "b", "c", "d"]))), path)
        self.simplex_stdout = run_cli(["cdindex", path])
        self.simplex = json.loads(self.simplex_stdout)
        self.simplex_meta = {"kind": "simplex", "rank": 4}

    def tearDown(self):
        self.tmp.cleanup()

    def test_real_output_passes(self):
        self.assertAccepts(self.stdout, self.meta)
        self.assertAccepts(self.simplex_stdout, self.simplex_meta)

    def test_dropped_cd_word(self):
        self.assertRejects(self.obj, self.meta, lambda o: o["cd_index"].pop("dc"))

    def test_changed_difference(self):
        self.assertRejects(self.obj, self.meta,
                           lambda o: o["difference"].__setitem__(1, o["difference"][1] + 1))

    def test_negative_cd_coefficient(self):
        def negate(o):
            o["cd_index"]["cd"] = -o["cd_index"]["cd"]
            o["ab_difference"] = checks.expand_cd(o["cd_index"])
            o["difference"] = checks.evaluate_cd(o["cd_index"])
        self.assertRejects(self.obj, self.meta, negate)

    def test_simplex_ab_index_entry(self):
        self.assertRejects(self.simplex, self.simplex_meta,
                           lambda o: o["ab_index"].__setitem__("aaaa", 2))

    def test_simplex_nonzero_difference(self):
        def shift(o):
            o["cd_index"] = {"cccc": 1}
            o["ab_difference"] = checks.expand_cd(o["cd_index"])
            o["difference"] = checks.evaluate_cd(o["cd_index"])
        self.assertRejects(self.simplex, self.simplex_meta, shift)


if __name__ == "__main__":
    unittest.main()
