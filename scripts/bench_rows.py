#!/usr/bin/env python3
"""Time the library's tracked rows and record them in a JSON file.

Run from the repository root:

    python3 scripts/bench_rows.py --out rows.json --label after

Each row is the median CPU time (user plus system of this process) of
``RUNS`` runs.  A run builds its input afresh, untimed, so no cache of an
earlier run is reused, then times one call.  The rows are:

* ``validate()`` on the barycentric subdivision sd(Δ) of the simplex on
  d = 5, 6, 7 vertices and on ``realize_local_h`` of the all-ones target
  (0, 1, ..., 1, 0) for d = 7, 9, 11;
* the construction of ``random_subdivision(k, 5, 6)`` for k = 0..199, and of
  ``realize_local_h`` of the all-ones target for d = 7, 9, 11 (its own
  local-h self-check included);
* the op word loader and ``replay`` on the words of those 200 members, given
  as JSON objects;
* the streams ``localh search --seed 0 --count 40 --max-d 6 --steps 6
  --include-sd`` and ``localh search --seed 100 --count 60 --max-d 7
  --steps 8`` (no sd records, more ``l32`` steps at d >= 4), run in this
  process with their output discarded;
* ``verify_all`` on each ``random_subdivision(k, 5, 6)`` for k = 0..199 and
  on the barycentric subdivision of each of them for k = 0..19;
* ``localh identities --json`` on every subdivision fixture, run in this
  process with its output discarded;
* ``load_json`` plus ``subdivision_from_obj`` on the file of sd(Δ) for d = 7
  (94,585 faces), written once, untimed, to a temporary directory.

A second section, ``peak_mb``, holds memory rows: the ``tracemalloc`` peak of
one call above what was allocated before it, in MB, median of ``RUNS`` runs,
each on an input built afresh and untraced.  It has the load of sd(Δ_7)'s
file and ``validate()`` on sd(Δ_7).

The result, with the CPU count and the Python version, is stored under
``--label`` in the ``--out`` file; runs under other labels already there are
kept, so one file can hold the rows before and after a change.  Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from localh import cli, serialize  # noqa: E402
from localh.constructions import random_subdivision, realize_local_h, replay, trivial_on  # noqa: E402
from localh.identities import verify_all  # noqa: E402
from localh.posets import sd_subdivision  # noqa: E402
from localh.subdivisions import Subdivision  # noqa: E402

RUNS = 3
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SEARCH = "search --seed 0 --count 40 --max-d 6 --steps 6 --include-sd".split()
SEARCH_D7 = "search --seed 100 --count 60 --max-d 7 --steps 8".split()


def all_ones(d: int) -> list[int]:
    return [0] + [1] * (d - 1) + [0]


def random_members(seeds) -> list:
    return [random_subdivision(k, 5, 6) for k in seeds]


def word_objects(seeds) -> list[dict]:
    return [serialize.opword_to_obj(word) for _, word in random_members(seeds)]


def replay_each(objs) -> None:
    for obj in objs:
        replay(serialize.opword_from_obj(obj))


def run_cli(argv, codes=(0,)) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code not in codes:
        raise RuntimeError(f"localh {' '.join(argv)} exited {code}")


def verify_each(subdivisions) -> None:
    for s in subdivisions:
        verify_all(s)


def subdivision_fixtures() -> list[str]:
    paths = map(str, sorted(FIXTURES.glob("*.json")))
    return [p for p in paths if serialize.detect_kind(serialize.load_json(p)) == "subdivision"]


def identities_on_fixtures(paths) -> None:
    for path in paths:
        run_cli(["identities", path, "--json"], codes=(0, 1))  # 1 on the broken fixtures


@functools.cache
def sd_simplex_file(directory: str, d: int) -> str:
    """The path of sd(Δ) of the simplex on ``d`` vertices, written once."""
    path = os.path.join(directory, f"sd_simplex_d{d}.json")
    serialize.dump_json(serialize.subdivision_to_obj(sd_subdivision(trivial_on(d))), path)
    return path


def load_subdivision(path: str) -> Subdivision:
    return serialize.subdivision_from_obj(serialize.load_json(path))


def rows(tmp: str):
    """(row name, untimed function making the input, timed call on it) triples;
    input files go to the directory ``tmp``."""
    validate = Subdivision.validate
    for d in (5, 6, 7):
        yield f"validate.sd_simplex.d{d}", lambda d=d: sd_subdivision(trivial_on(d)), validate
    for d in (7, 9, 11):
        yield f"validate.realize_all_ones.d{d}", lambda d=d: realize_local_h(all_ones(d)), validate
    yield "build.random_subdivision.k0-199_d5_steps6", lambda: range(200), random_members
    yield "build.replay.k0-199_d5_steps6", lambda: word_objects(range(200)), replay_each
    for d in (7, 9, 11):
        yield f"build.realize_all_ones.d{d}", lambda d=d: all_ones(d), realize_local_h
    yield "search.seed0_count40_d6_steps6_include_sd", lambda: SEARCH, run_cli
    yield "search.seed100_count60_d7_steps8", lambda: SEARCH_D7, run_cli
    yield (
        "identities.verify_all.random_subdivision.k0-199_d5_steps6",
        lambda: [s for s, _ in random_members(range(200))],
        verify_each,
    )
    yield (
        "identities.verify_all.sd_random_subdivision.k0-19_d5_steps6",
        lambda: [sd_subdivision(s) for s, _ in random_members(range(20))],
        verify_each,
    )
    yield "identities.cli_json.fixtures", subdivision_fixtures, identities_on_fixtures
    yield "load.sd_simplex.d7", lambda: sd_simplex_file(tmp, 7), load_subdivision


def peak_rows(tmp: str):
    """(row name, untraced function making the input, traced call on it) triples."""
    yield "load.sd_simplex.d7", lambda: sd_simplex_file(tmp, 7), load_subdivision
    yield "validate.sd_simplex.d7", lambda: sd_subdivision(trivial_on(7)), Subdivision.validate


def time_row(build, call) -> float:
    times = []
    for _ in range(RUNS):
        subject = build()
        start = time.process_time()
        call(subject)
        times.append(time.process_time() - start)
    return statistics.median(times)


def peak_row(build, call) -> float:
    peaks = []
    for _ in range(RUNS):
        subject = build()
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        call(subject)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        tracemalloc.stop()
    return statistics.median(peaks) / 2**20


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to add the rows to")
    parser.add_argument("--label", required=True, help="name of this run in the file")
    args = parser.parse_args(argv)
    result = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "runs": RUNS,
        "unit": "s CPU, median",
        "rows": {},
        "peak_mb": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, build, call in rows(tmp):
            result["rows"][name] = round(time_row(build, call), 4)
            print(f"{name}: {result['rows'][name]} s", file=sys.stderr)
        for name, build, call in peak_rows(tmp):
            result["peak_mb"][name] = round(peak_row(build, call), 2)
            print(f"{name}: {result['peak_mb'][name]} MB peak", file=sys.stderr)
    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
