"""Command-line surface.

Exit codes: 0 ok, 1 identity or predicate failure, 2 input error,
3 internal self-check failure or any other unexpected exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter

from . import constructions, identities, posets, serialize
from .permstats import derangement_enum, derangement_recurrence
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
    entries = args.target.split(",")
    if len(entries) > constructions.MAX_BASE_VERTICES + 1:
        raise ValueError(
            f"realize --target: {len(entries)} entries exceed the budget of "
            f"{constructions.MAX_BASE_VERTICES + 1} (a base of "
            f"{constructions.MAX_BASE_VERTICES} vertices)"
        )
    target = []
    for entry in entries:
        try:
            target.append(int(entry))
        except ValueError:
            raise ValueError(f"realize --target: {entry!r} is not an integer") from None
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
            "note: poset input is checked to be thin (two vertices per edge, "
            "two middle elements per length-2 interval) but otherwise trusted "
            "to be a regular cell complex; its boundary follows the "
            "covered-once convention",
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
    if report.all_match:
        return OK
    validity = s.validate()
    if not validity.valid:
        print(f"note: input fails the weak-ball check: {validity.verdict}", file=sys.stderr)
    return CHECK_FAILED


def cmd_derangement(args) -> int:
    derangement_enum(args.max_d)  # refuses a negative or unenumerable order first
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


def _search_record(seed: int, args) -> list[dict]:
    s, word = constructions.random_subdivision(seed, args.max_d, args.steps)
    d = len(s.base.vertices)
    out = [_record(seed, word, d, *_invariants(s))]
    if args.include_sd:
        sd_word = constructions.OpWord(
            word.seed_vertices, word.steps + (constructions.OpStep("sd"),)
        )
        out.append(_record(seed, sd_word, d, *_invariants(s, sd=True)))
    return out


def _invariants(s: Subdivision, sd: bool = False) -> tuple:
    """Local h, quasi-geometric and vertex-induced verdicts and an instance
    thunk, of s or of sd(s); those of sd(s) are read off s's face counts and
    carriers if they are monotone.  A chain's carrier is its top's, so sd(s)
    is vertex-induced and the union of a chain's vertex carriers is the top's
    carrier; a chain of k cells fits under a top of k or more vertices, so
    sd(s) is quasi-geometric exactly when no face of s has a smaller carrier."""
    if sd and s.is_monotone():
        qg = all(len(f) >= len(g) for g, f in s.carrier.items())
        return s.bary_local_h(), qg, True, lambda: posets.sd_subdivision(s)
    sub = posets.sd_subdivision(s) if sd else s
    qg, vi = sub.is_quasi_geometric().holds, sub.is_vertex_induced().holds
    return sub.local_h(), qg, vi, lambda: sub


def _record(seed: int, word, d: int, local, qg: bool, vi: bool, instance) -> dict:
    padded = local.padded(d)
    unimodal = is_unimodal(padded)
    rec = {
        "seed": seed,
        "d": d,
        "opword": serialize.opword_to_obj(word),
        "local_h": list(padded),
        "gamma": list(gamma_extract(local, d).gammas),
        "quasi_geometric": qg,
        "vertex_induced": vi,
        "unimodal": unimodal,
        "conjecture_relevant": vi and not unimodal,
    }
    if rec["conjecture_relevant"]:
        rec["instance"] = serialize.subdivision_to_obj(instance())
    return rec


def cmd_search(args) -> int:
    if args.max_d > constructions.MAX_BASE_VERTICES:
        raise ValueError(
            f"search --max-d: {args.max_d} exceeds the budget of "
            f"{constructions.MAX_BASE_VERTICES} base vertices"
        )
    if args.max_d < 2:
        raise ValueError(f"search --max-d: {args.max_d} is below 2, the smallest base")
    if args.steps < 0:
        raise ValueError(f"search --steps: {args.steps} is negative")
    if args.count < 0:
        raise ValueError(f"search --count: {args.count} is negative")
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


@functools.cache  # one parser per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localh",
        description="Exact local h-vector computations for subdivisions of simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariants and predicates of a subdivision file")
    p.add_argument("file")

    p = sub.add_parser("realize", help="build a subdivision with a prescribed local h")
    p.add_argument("--target", required=True, help="comma-separated integers")
    p.add_argument("-o", "--output")

    p = sub.add_parser("bary", help="barycentric subdivision with induced carriers")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("identities", help="run every identity check on a subdivision")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derangement", help="enumeration vs recurrence table")
    p.add_argument("--max-d", type=int, default=8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cdindex", help="ab-index, cd-form, and ball difference of a poset")
    p.add_argument("file")

    p = sub.add_parser("search", help="stream random quasi-geometric instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-d", type=int, default=5)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--require", choices=["vertex-induced"])
    p.add_argument("--include-sd", action="store_true")

    p = sub.add_parser("replay", help="rebuild an op word and re-verify it")
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except constructions.InternalMismatchError as exc:
        print(f"internal self-check failure: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except ValueError as exc:  # SchemaError and every other input error
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
