#!/usr/bin/env python3
"""Regenerate the shipped fixture files under fixtures/.

Run from the repository root:  python3 scripts/make_fixtures.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from localh import serialize  # noqa: E402
from localh.complexes import SimplicialComplex, simplex  # noqa: E402
from localh.constructions import (  # noqa: E402
    push_ridge,
    push_then_stellar,
    stellar_facet,
    trivial_on,
)
from localh.posets import FacePoset, face_poset, sd_subdivision  # noqa: E402
from localh.subdivisions import Subdivision  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)

    for n in range(2, 6):
        serialize.dump_json(
            serialize.subdivision_to_obj(trivial_on(n)),
            str(FIXTURES / f"trivial_d{n}.json"),
        )

    stellar = stellar_facet(trivial_on(3))
    serialize.dump_json(
        serialize.subdivision_to_obj(stellar),
        str(FIXTURES / "stellar_triangle.json"),
    )
    serialize.dump_json(
        serialize.subdivision_to_obj(sd_subdivision(stellar)),
        str(FIXTURES / "bary_stellar_triangle.json"),
    )

    # the classic quasi-geometric subdivision with non-unimodal local h:
    # push a ridge of the 3-simplex, then stellarly subdivide the new facet
    serialize.dump_json(
        serialize.subdivision_to_obj(push_then_stellar(trivial_on(4))),
        str(FIXTURES / "nonunimodal_quasigeometric.json"),
    )

    # two pushes in a row: the second pushed facet has all its vertex
    # carriers inside the ridge v1v2v3, so quasi-geometricity fails
    pushed = push_ridge(trivial_on(4), ("v1", "v2", "v3"))
    w = next(v for v in pushed.total.vertices if v.startswith("w"))
    serialize.dump_json(
        serialize.subdivision_to_obj(push_ridge(pushed, ("v1", "v2", w))),
        str(FIXTURES / "double_push.json"),
    )

    # a non-simplex base: two triangles glued along the edge v2v3, with the
    # first one stellarly subdivided
    two_triangles = SimplicialComplex([("v1", "v2", "v3"), ("v2", "v3", "v4")])
    glued = stellar_facet(Subdivision.trivial(two_triangles))
    serialize.dump_json(
        serialize.subdivision_to_obj(glued),
        str(FIXTURES / "stellar_two_triangles.json"),
    )

    # the same with the glued edge carried onto the second triangle: the
    # restriction to v2v3 loses its edge and vertex-inducedness fails there
    carrier = dict(glued.carrier)
    carrier[("v2", "v3")] = ("v2", "v3", "v4")
    serialize.dump_json(
        serialize.subdivision_to_obj(Subdivision(glued.base, glued.total, carrier)),
        str(FIXTURES / "broken_two_triangles.json"),
    )

    # an invalid carrier map: one interior edge of the stellar triangle is
    # sent onto a base vertex, which breaks monotonicity and the interiors
    carrier = dict(stellar.carrier)
    carrier[("v1", "z1")] = ("v1",)
    serialize.dump_json(
        serialize.subdivision_to_obj(Subdivision(stellar.base, stellar.total, carrier)),
        str(FIXTURES / "broken_stellar_triangle.json"),
    )

    hexagon = FacePoset(
        elements=tuple((f"v{i}", 0) for i in range(1, 7))
        + tuple((f"e{i}", 1) for i in range(1, 7)),
        covers=tuple(
            c
            for i in range(1, 7)
            for c in ((f"v{i}", f"e{i}"), (f"v{i % 6 + 1}", f"e{i}"))
        ),
    )
    serialize.dump_json(serialize.poset_to_obj(hexagon), str(FIXTURES / "hexagon_poset.json"))

    square = FacePoset(
        elements=(
            ("v1", 0), ("v2", 0), ("v3", 0), ("v4", 0),
            ("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1),
            ("c", 2),
        ),
        covers=(
            ("v1", "e1"), ("v2", "e1"),
            ("v2", "e2"), ("v3", "e2"),
            ("v3", "e3"), ("v4", "e3"),
            ("v4", "e4"), ("v1", "e4"),
            ("e1", "c"), ("e2", "c"), ("e3", "c"), ("e4", "c"),
        ),
    )
    serialize.dump_json(serialize.poset_to_obj(square), str(FIXTURES / "square_poset.json"))

    # a carrier-equipped poset: the stellar triangle viewed as a cell complex
    serialize.dump_json(
        serialize.poset_to_obj(face_poset(stellar)),
        str(FIXTURES / "stellar_triangle_poset.json"),
    )

    # a non-simplicial carrier-equipped poset: the triangle abc with m on ab
    # and n on ac, cut by the chord mn into the triangle amn and the
    # quadrilateral mbcn
    cells = {
        "a": "a", "b": "b", "c": "c", "m": "ab", "n": "ac",
        "a-m": "ab", "b-m": "ab", "b-c": "bc", "c-n": "ac", "a-n": "ac",
        "m-n": "abc", "a-m-n": "abc", "b-c-m-n": "abc",
    }
    chord = FacePoset(
        elements=tuple((e, min(e.count("-"), 2)) for e in cells),
        covers=(
            ("a", "a-m"), ("m", "a-m"), ("b", "b-m"), ("m", "b-m"),
            ("b", "b-c"), ("c", "b-c"), ("c", "c-n"), ("n", "c-n"),
            ("a", "a-n"), ("n", "a-n"), ("m", "m-n"), ("n", "m-n"),
            ("a-m", "a-m-n"), ("a-n", "a-m-n"), ("m-n", "a-m-n"),
            ("b-m", "b-c-m-n"), ("b-c", "b-c-m-n"), ("c-n", "b-c-m-n"),
            ("m-n", "b-c-m-n"),
        ),
        carrier={e: tuple(f) for e, f in cells.items()},
        base=simplex(("a", "b", "c")),
    )
    serialize.dump_json(serialize.poset_to_obj(chord), str(FIXTURES / "chord_triangle_poset.json"))

    print(f"wrote fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
