"""Seeded inputs of the benchmark workloads.

    python3 bench/inputs.py --workload NAME --seed N --out DIR

writes the input files of one workload into DIR together with
`manifest.json`, which lists the CLI calls ("items") the run makes.  The
items come in blocks of one fixed make-up, so every run does the same mix
of work whatever the seed; the seed only picks which members fill each
block.  A `head` block holds the seed-independent items.

Members are `random_subdivision(k, 5, 6)` for seeded k, the generator the
`search` command uses, kept only when their size lies in a fixed band per
dimension: the cost of an item grows with the number of facets (times d!
once it is barycentrically subdivided), so the band keeps the cost of a
block nearly the same across seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from localh import serialize  # noqa: E402
from localh.complexes import simplex  # noqa: E402
from localh.constructions import random_subdivision, trivial_on  # noqa: E402
from localh.posets import face_poset, sd_subdivision  # noqa: E402

MAX_D, STEPS = 5, 6
# Facet-count bands holding about three quarters of the members of each
# dimension that random_subdivision(k, 5, 6) produces.
BANDS = {4: range(17, 21), 5: range(23, 26)}
DRAWS_PER_MEMBER = 50

# Blocks per setup; a run cycles through them until its time is up.
BLOCKS = {"search": 4, "validate": 6, "identities": 5, "cdindex": 5}
# Make-up of one block.  The shares place the median and the 90th
# percentile inside a class of items, away from the jump in cost between
# classes, so that neither flips with the seed.
SEARCH_BLOCK = (["m4"] * 4 + ["m5"]) * 3
VALIDATE_BLOCK = ["m4", "m5", "m5", "m5", "b4", "m5", "m4", "m5", "m5", "m5", "b4", "m5"]
IDENTITIES_BLOCK = ["m4", "m5", "b4", "m4", "m5", "m5", "m4", "m5", "b4", "m5"]
CDINDEX_QUOTA = {2: 4, 3: 7, 4: 5, 5: 3}
CDINDEX_FIXTURES = ("square", "hexagon", "stellar_triangle")


def draw_members(rng: random.Random, want: dict[int, int]) -> dict[int, list]:
    """Seeded members until each dimension has its quota, in draw order."""
    got: dict[int, list] = {d: [] for d in want}
    budget = DRAWS_PER_MEMBER * sum(want.values())
    draws = 0
    while any(len(got[d]) < n for d, n in want.items()):
        draws += 1
        if draws > budget:
            raise RuntimeError(f"no members for the quota {want} within {budget} draws")
        k = rng.randrange(10**9)
        s, _ = random_subdivision(k, MAX_D, STEPS)
        d = len(s.base.vertices)
        if d in got and len(got[d]) < want[d] and len(s.total.facets) in BANDS[d]:
            got[d].append((k, s))
    return got


class Writer:
    def __init__(self, out: str):
        self.out = out
        self.count = 0

    def subdivision(self, s) -> str:
        return self._dump(serialize.subdivision_to_obj(s))

    def poset(self, p) -> str:
        return self._dump(serialize.poset_to_obj(p))

    def _dump(self, obj) -> str:
        self.count += 1
        path = os.path.join(self.out, f"in{self.count:04d}.json")
        serialize.dump_json(obj, path)
        return path


def _fill(pattern: list[str], blocks: int, make: dict) -> list[list[dict]]:
    """Blocks of the pattern, each class taking its next item from make[cls]()."""
    return [[make[cls]() for cls in pattern] for _ in range(blocks)]


def search_items(rng, writer, blocks):
    want = {d: blocks * SEARCH_BLOCK.count(f"m{d}") for d in (4, 5)}
    members = {d: iter(ms) for d, ms in draw_members(rng, want).items()}

    def item(d):
        k, _ = next(members[d])
        argv = ["search", "--seed", str(k), "--count", "1", "--max-d", str(MAX_D),
                "--steps", str(STEPS), "--include-sd"]
        return {"argv": argv, "check": "search", "seed": k, "d": d}

    return [], _fill(SEARCH_BLOCK, blocks, {"m4": lambda: item(4), "m5": lambda: item(5)})


def _member_items(rng, writer, blocks, pattern, command, extra_argv, head_bary5):
    want = {4: blocks * pattern.count("m4"), 5: blocks * pattern.count("m5")}
    members = draw_members(rng, want)
    bary_sources = iter(s for _, s in members[4])
    queues = {d: iter(s for _, s in ms) for d, ms in members.items()}

    def item(s, kind):
        d = len(s.base.vertices)
        path = writer.subdivision(s)
        return {"argv": [command, path, *extra_argv], "check": command, "kind": kind, "d": d}

    head = []
    if head_bary5:
        # The largest item sets the peak RSS, so it does not depend on the seed.
        ((_, s),) = draw_members(random.Random("head"), {5: 1})[5]
        head.append(item(sd_subdivision(s), "bary"))
    make = {
        "m4": lambda: item(next(queues[4]), "member"),
        "m5": lambda: item(next(queues[5]), "member"),
        "b4": lambda: item(sd_subdivision(next(bary_sources)), "bary"),
    }
    return head, _fill(pattern, blocks, make)


def validate_items(rng, writer, blocks):
    head, body = _member_items(rng, writer, blocks, VALIDATE_BLOCK, "compute", [], False)
    for n in (3, 4, 5):
        path = writer.subdivision(sd_subdivision(trivial_on(n)))
        head.append({"argv": ["compute", path], "check": "compute", "kind": "sd-simplex", "d": n})
    return head, body


def identities_items(rng, writer, blocks):
    return _member_items(rng, writer, blocks, IDENTITIES_BLOCK, "identities", ["--json"], True)


def cdindex_items(rng, writer, blocks):
    """Distinct ball restrictions of rank 2..5 of seeded 5-dimensional members."""
    want = {r: blocks * n for r, n in CDINDEX_QUOTA.items()}
    found: dict[int, list[dict]] = {r: [] for r in want}
    seen: set = set()
    members = 0
    while any(len(found[r]) < n for r, n in want.items()):
        members += 1
        if members > sum(want.values()):
            raise RuntimeError(f"no restrictions for the quota {want} within {members} members")
        ((_, s),) = draw_members(rng, {5: 1})[5]
        faces = sorted(f for f in s.base.nonempty_faces() if len(f) >= 2)
        rng.shuffle(faces)
        for face in faces:
            rank = len(face)
            restriction = s.restriction_complex(face)
            key = tuple(sorted(restriction.facets))
            if len(found[rank]) >= want[rank] or key in seen:
                continue
            seen.add(key)
            path = writer.poset(face_poset(restriction))
            found[rank].append(
                {"argv": ["cdindex", path], "check": "cdindex", "kind": "restriction", "rank": rank}
            )
    head = []
    for n in (5, 6, 7):
        path = writer.poset(face_poset(simplex(f"v{i}" for i in range(1, n + 1))))
        head.append({"argv": ["cdindex", path], "check": "cdindex", "kind": "simplex", "rank": n})
    for name in CDINDEX_FIXTURES:
        path = os.path.join(ROOT, "fixtures", f"{name}_poset.json")
        rank = 1 + max(e["dim"] for e in serialize.load_json(path)["elements"])
        head.append({"argv": ["cdindex", path], "check": "cdindex", "kind": "fixture", "rank": rank})
    queues = {r: iter(items) for r, items in found.items()}
    pattern = [r for r, n in CDINDEX_QUOTA.items() for _ in range(n)]
    return head, [[next(queues[r]) for r in pattern] for _ in range(blocks)]


WORKLOADS = {
    "search": search_items,
    "validate": validate_items,
    "identities": identities_items,
    "cdindex": cdindex_items,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    writer = Writer(args.out)
    head, blocks = WORKLOADS[args.workload](rng, writer, BLOCKS[args.workload])
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"head": head, "blocks": blocks}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
