"""Command-line surface.

Exit codes: 0 ok, 1 identity or predicate failure, 2 input error,
3 internal self-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import constructions, identities, posets, serialize
from .complexes import NotPureError, RidgeInThreeFacetsError
from .permstats import (
    EnumerationBoundError,
    derangement_enum,
    derangement_recurrence,
)
from .polynomials import NotSymmetricError, gamma_extract, is_unimodal
from .serialize import SchemaError
from .subdivisions import Subdivision

OK, CHECK_FAILED, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3


def _load_subdivision(path: str) -> Subdivision:
    return serialize.subdivision_from_obj(serialize.load_json(path))


def _predicate_obj(result) -> dict:
    out = {"holds": result.holds}
    if result.witness is not None:
        e, f = result.witness
        out["witness"] = {"face": list(e), "base_face": list(f)}
    return out


def cmd_compute(args) -> int:
    s = _load_subdivision(args.file)
    report = s.validate()
    out = {
        "f_vector": list(s.total.f_vector()),
        "h": list(s.total.h_polynomial().coeffs),
        "validity": report.verdict,
    }
    if not report.valid:
        out["validity_failures"] = [
            {"face": list(c.face), "failed": list(c.failures)}
            for c in report.failures()
        ]
    if s.base_is_simplex:
        d = len(s.base.vertices)
        local = s.local_h()
        out["local_h"] = list(local.padded(d))
        try:
            out["local_gamma"] = list(gamma_extract(local, d).gammas)
        except NotSymmetricError:
            out["local_gamma"] = None
        out["unimodal"] = is_unimodal(local.padded(d))
    qg = s.is_quasi_geometric()
    vi = s.is_vertex_induced()
    out["quasi_geometric"] = _predicate_obj(qg)
    out["vertex_induced"] = _predicate_obj(vi)
    print(serialize.dump_json(out, None))
    return OK if report.valid else CHECK_FAILED


def cmd_realize(args) -> int:
    target = [int(t) for t in args.target.split(",")]
    try:
        s = constructions.realize_local_h(target)
    except constructions.InvalidTargetError as exc:
        print(f"invalid target: {exc}", file=sys.stderr)
        return INPUT_ERROR
    got = list(s.local_h().padded(len(target) - 1))
    obj = serialize.subdivision_to_obj(s)
    if args.output:
        serialize.dump_json(obj, args.output)
    else:
        print(serialize.dump_json(obj, None))
    print(f"self-check: local h {got} matches target, validity "
          f"{s.validate().verdict}", file=sys.stderr)
    return OK


def cmd_bary(args) -> int:
    obj = serialize.load_json(args.file)
    kind = serialize.detect_kind(obj)
    if kind == "subdivision":
        source = serialize.subdivision_from_obj(obj)
    elif kind == "poset":
        source = serialize.poset_from_obj(obj)
        print(
            "note: poset input is trusted to be a regular cell complex; "
            "its boundary follows the covered-once convention",
            file=sys.stderr,
        )
    else:
        raise SchemaError("bary expects a subdivision or poset file")
    s = posets.sd_subdivision(source)
    text = serialize.dump_json(serialize.subdivision_to_obj(s), args.output)
    if not args.output:
        print(text)
    return OK


def cmd_identities(args) -> int:
    s = _load_subdivision(args.file)
    report = identities.verify_all(s)
    if args.json:
        print(serialize.dump_json(report.to_json(), None))
    else:
        print(report.to_table())
    return OK if report.all_match else CHECK_FAILED


def cmd_derangement(args) -> int:
    rows = []
    ok = True
    for d in range(args.max_d + 1):
        enum = derangement_enum(d)
        rec = derangement_recurrence(d)
        match = enum == rec
        ok = ok and match
        rows.append(
            {
                "d": d,
                "enum": list(enum.coeffs),
                "recurrence": list(rec.coeffs),
                "match": match,
            }
        )
    if args.json:
        print(serialize.dump_json(rows, None))
    else:
        for row in rows:
            print(
                f"d={row['d']}: enum {row['enum']} recurrence {row['recurrence']} "
                f"match={str(row['match']).lower()}"
            )
    return OK if ok else CHECK_FAILED


def cmd_cdindex(args) -> int:
    p = serialize.poset_from_obj(serialize.load_json(args.file))
    result = posets.ek_difference(p)
    d = result.degree
    out: dict = {
        "rank": d,
        "ab_index": dict(result.ab_index.coeffs),
        "ab_difference": dict(result.ab.coeffs),
        "closed": result.closed,
        "difference": list(result.difference.coeffs),
    }
    expressible = isinstance(result.cd, posets.CdPolynomial)
    if expressible:
        out["cd_index"] = dict(result.cd.coeffs)
        out["cd_nonnegative"] = result.cd.is_nonnegative
    else:
        out["cd_index"] = None
        out["not_expressible_residual"] = result.cd.residual
    try:
        out["gamma"] = list(gamma_extract(result.difference, d).gammas)
    except NotSymmetricError:
        out["gamma"] = None
    print(serialize.dump_json(out, None))
    if not expressible or out["gamma"] is None:
        return CHECK_FAILED
    return OK


def _search_record(seed: int, args) -> dict:
    s, word = constructions.random_subdivision(seed, args.max_d, args.steps)
    records = [(s, word)]
    if args.include_sd:
        sd_word = constructions.OpWord(
            word.seed_vertices, word.steps + (constructions.OpStep("sd"),)
        )
        records.append((posets.sd_subdivision(s), sd_word))
    out = []
    for sub, w in records:
        d = len(sub.base.vertices)
        local = sub.local_h()
        padded = local.padded(d)
        qg = sub.is_quasi_geometric()
        vi = sub.is_vertex_induced()
        unimodal = is_unimodal(padded)
        rec = {
            "seed": seed,
            "d": d,
            "opword": serialize.opword_to_obj(w),
            "local_h": list(padded),
            "gamma": list(gamma_extract(local, d).gammas),
            "quasi_geometric": qg.holds,
            "vertex_induced": vi.holds,
            "unimodal": unimodal,
            "conjecture_relevant": vi.holds and not unimodal,
        }
        if rec["conjecture_relevant"]:
            rec["instance"] = serialize.subdivision_to_obj(sub)
        out.append(rec)
    return out


def cmd_search(args) -> int:
    tally: Counter = Counter()
    for seed in range(args.seed, args.seed + args.count):
        for rec in _search_record(seed, args):
            tally[(rec["vertex_induced"], rec["unimodal"])] += 1
            if args.require == "vertex-induced" and not rec["vertex_induced"]:
                continue
            if rec["conjecture_relevant"]:
                print(
                    f"CONJECTURE-RELEVANT: seed {rec['seed']} is vertex-induced "
                    f"with non-unimodal local h {rec['local_h']}",
                    file=sys.stderr,
                )
            print(json.dumps(rec, sort_keys=False))
    rows = [
        {"vertex_induced": vi, "unimodal": uni, "count": n}
        for (vi, uni), n in sorted(tally.items())
    ]
    print(json.dumps({"tally": rows}), file=sys.stderr)
    return OK


def cmd_replay(args) -> int:
    word = serialize.opword_from_obj(serialize.load_json(args.file))
    if any(step.op == "o2" for step in word.steps):
        print(
            "warning: word contains a push without repair; the result may "
            "not be quasi-geometric",
            file=sys.stderr,
        )
    s = constructions.replay(word)
    report = s.validate()
    identity = identities.verify_all(s)
    out = {
        "validity": report.verdict,
        "identities_ok": identity.all_match,
    }
    if s.base_is_simplex:
        out["local_h"] = list(s.local_h().padded(len(s.base.vertices)))
    print(serialize.dump_json(out, None))
    if not report.valid or not identity.all_match:
        return CHECK_FAILED
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localh",
        description="Exact local h-vector computations for subdivisions of simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants and predicates of a subdivision file")
    p.add_argument("file")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("realize", help="build a subdivision with a prescribed local h")
    p.add_argument("--target", required=True, help="comma-separated integers")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("bary", help="barycentric subdivision with induced carriers")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bary)

    p = sub.add_parser("identities", help="run every identity check on a subdivision")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("derangement", help="enumeration vs recurrence table")
    p.add_argument("--max-d", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_derangement)

    p = sub.add_parser("cdindex", help="ab-index, cd-form, and ball difference of a poset")
    p.add_argument("file")
    p.set_defaults(func=cmd_cdindex)

    p = sub.add_parser("search", help="stream random quasi-geometric instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-d", type=int, default=5)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--require", choices=["vertex-induced"])
    p.add_argument("--include-sd", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("replay", help="rebuild an op word and re-verify it")
    p.add_argument("file")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except constructions.InternalMismatchError as exc:
        print(f"internal self-check failure: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except (EnumerationBoundError, NotPureError, RidgeInThreeFacetsError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
