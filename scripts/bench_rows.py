#!/usr/bin/env python3
"""Time the library's tracked rows and record them in a JSON file.

Run from the repository root:

    python3 scripts/bench_rows.py --out rows.json --label after

Each row is the median CPU time (user plus system of this process) of
``RUNS`` runs.  A run builds its input afresh, untimed, so no cache of an
earlier run is reused, then times one call.  The rows are ``validate()`` on
the barycentric subdivision sd(Δ) of the simplex on d = 5, 6, 7 vertices and
on ``realize_local_h`` of the all-ones target (0, 1, ..., 1, 0) for d = 7, 9,
11.  The result, with the CPU count and the Python version, is stored under
``--label`` in the ``--out`` file; runs under other labels already there are
kept, so one file can hold the rows before and after a change.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from localh.constructions import realize_local_h, trivial_on  # noqa: E402
from localh.posets import sd_subdivision  # noqa: E402

RUNS = 3


def rows():
    """(row name, function making the subdivision to validate) pairs."""
    for d in (5, 6, 7):
        yield f"validate.sd_simplex.d{d}", lambda d=d: sd_subdivision(trivial_on(d))
    for d in (7, 9, 11):
        target = [0] + [1] * (d - 1) + [0]
        yield f"validate.realize_all_ones.d{d}", lambda t=target: realize_local_h(t)


def time_validate(build) -> float:
    times = []
    for _ in range(RUNS):
        subject = build()
        start = time.process_time()
        subject.validate()
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
    for name, build in rows():
        result["rows"][name] = round(time_validate(build), 4)
        print(f"{name}: {result['rows'][name]} s", file=sys.stderr)
    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
