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
* the stream ``localh search --seed 0 --count 40 --max-d 6 --steps 6
  --include-sd``, run in this process with its output discarded;
* ``verify_all`` on each ``random_subdivision(k, 5, 6)`` for k = 0..199 and
  on the barycentric subdivision of each of them for k = 0..19;
* ``localh identities --json`` on every subdivision fixture, run in this
  process with its output discarded.

The result, with the CPU count and the Python version, is stored under
``--label`` in the ``--out`` file; runs under other labels already there are
kept, so one file can hold the rows before and after a change.  Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from localh import cli, serialize  # noqa: E402
from localh.constructions import random_subdivision, realize_local_h, trivial_on  # noqa: E402
from localh.identities import verify_all  # noqa: E402
from localh.posets import sd_subdivision  # noqa: E402
from localh.subdivisions import Subdivision  # noqa: E402

RUNS = 3
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SEARCH = "search --seed 0 --count 40 --max-d 6 --steps 6 --include-sd".split()


def all_ones(d: int) -> list[int]:
    return [0] + [1] * (d - 1) + [0]


def random_members(seeds) -> list:
    return [random_subdivision(k, 5, 6) for k in seeds]


def run_cli(argv, codes=(0,)) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code not in codes:
        raise RuntimeError(f"localh {' '.join(argv)} exited {code}")


def search_stream(_) -> None:
    run_cli(SEARCH)


def verify_each(subdivisions) -> None:
    for s in subdivisions:
        verify_all(s)


def subdivision_fixtures() -> list[str]:
    paths = map(str, sorted(FIXTURES.glob("*.json")))
    return [p for p in paths if serialize.detect_kind(serialize.load_json(p)) == "subdivision"]


def identities_on_fixtures(paths) -> None:
    for path in paths:
        run_cli(["identities", path, "--json"], codes=(0, 1))  # 1 on the broken fixtures


def rows():
    """(row name, untimed function making the input, timed call on it) triples."""
    validate = Subdivision.validate
    for d in (5, 6, 7):
        yield f"validate.sd_simplex.d{d}", lambda d=d: sd_subdivision(trivial_on(d)), validate
    for d in (7, 9, 11):
        yield f"validate.realize_all_ones.d{d}", lambda d=d: realize_local_h(all_ones(d)), validate
    yield "build.random_subdivision.k0-199_d5_steps6", lambda: range(200), random_members
    for d in (7, 9, 11):
        yield f"build.realize_all_ones.d{d}", lambda d=d: all_ones(d), realize_local_h
    yield "search.seed0_count40_d6_steps6_include_sd", lambda: None, search_stream
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


def time_row(build, call) -> float:
    times = []
    for _ in range(RUNS):
        subject = build()
        start = time.process_time()
        call(subject)
        times.append(time.process_time() - start)
    return statistics.median(times)


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
    }
    for name, build, call in rows():
        result["rows"][name] = round(time_row(build, call), 4)
        print(f"{name}: {result['rows'][name]} s", file=sys.stderr)
    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
