"""Subdivision-building operations and the prescribed local h realization.

``OPS`` is the one table of op codes, read by ``apply_step``, the op word
loader, ``replay``'s warning and ``random_subdivision``; each entry holds the
op's builder ``(s, face) -> Subdivision`` and its rules:

* ``o1`` ``stellar_facet`` subdivides a facet of the total complex; the
  local h-vector gains 1 in every interior position.
* ``o2`` ``push_ridge`` cones a fresh vertex over a codimension-one face with
  codimension-one carrier; positions 2..d-2 of the local h-vector each drop
  by 1.  Its face is required; ``replay`` warns, as the result can fail to
  be quasi-geometric.
* ``o3`` ``join_subdivided_edge`` joins with an edge split in two, adding two
  base vertices; the local h-vector shifts one step inward.
* ``l32`` ``push_then_stellar`` pushes, then subdivides the fresh facet,
  which repairs quasi-geometricity; positions 1 and d-1 gain 1.
* ``sd`` is the barycentric subdivision.  It and ``o3`` take no face; the
  face of ``o1`` or ``l32`` may be omitted for ``"auto"``, the lex smallest.

``realize_local_h`` drives these center-outward to hit any symmetric
nonnegative target with zero ends, and re-checks the result against the
direct definition before returning it.

Each op builds its result from the faces it changes, without closing the
total complex again: a stellar on T drops T and adds z + sigma for each proper
face sigma of T, a push adds w + sigma for each face sigma of the ridge, and
a join's faces are the keys of its carrier map.  Every new face and facet is
sorted.  The input passed ``Subdivision``'s checks and each new face gets its
carrier as it is made, so the result goes through ``Subdivision._built``,
which skips them.

Generated vertices are labelled z<n> (stellar apexes), w<n> (pushed
vertices), and p<n>/q<n>/m<n> (join endpoints and midpoint) where n is a
per-subdivision counter recovered by scanning the vertices; base vertices of
seed subdivisions are v1..vd.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable

from .complexes import Face, SimplicialComplex, canonical_face, simplex, subsets
from .posets import sd_subdivision
from .subdivisions import Subdivision

_FRESH_RE = re.compile(r"^[wzmpq](\d+)$")

# Size budget on the base simplex of an op word's seed, of the base its joins
# grow it to, and of a realize target, checked before any construction,
# because validating the result visits every subset of the base vertices.
MAX_BASE_VERTICES = 11


class InvalidTargetError(ValueError):
    """Raised when a target vector cannot be a local h-vector."""


class InternalMismatchError(RuntimeError):
    """Raised when a construction fails its own local-h self-check."""


@dataclass(frozen=True)
class OpStep:
    op: str
    face: str | None = None


@dataclass(frozen=True)
class OpWord:
    """Replayable construction recipe: a seed simplex size plus op steps."""

    seed_vertices: int
    steps: tuple[OpStep, ...]


def trivial_on(n: int) -> Subdivision:
    """Identity subdivision of the simplex on v1..vn."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return Subdivision.trivial(simplex(f"v{i}" for i in range(1, n + 1)))


def _fresh_index(total: SimplicialComplex) -> int:
    found = (_FRESH_RE.match(v) for (v,) in total.faces(0))
    return 1 + max((int(m.group(1)) for m in found if m), default=0)


def _parse_face(face) -> Face | None:
    if face is None or face == "auto":
        return None
    if isinstance(face, str):
        return canonical_face(face.split(","))
    return canonical_face(face)


def stellar_facet(s: Subdivision, facet=None) -> Subdivision:
    """Stellar subdivision of a facet of the total complex (auto: lex smallest)."""
    target = _parse_face(facet)
    if target is None:
        target = min(s.total.facets)
    if target not in s.total.facets:
        raise ValueError(f"{target} is not a facet of the total complex")
    if len(target) < 2:
        raise ValueError("cannot stellarly subdivide a vertex")
    z = f"z{_fresh_index(s.total)}"
    carrier = dict(s.carrier)
    top_carrier = carrier.pop(target)
    added = [tuple(sorted(sub + (z,))) for sub in subsets(target) if len(sub) < len(target)]
    carrier.update(zip(added, repeat(top_carrier)))
    facets = s.total.facets - {target} | set(added[-len(target) :])  # the cones on T's facets
    return Subdivision._built(s.base, _edited(s.total, facets, added, target), carrier)


def _edited(total: SimplicialComplex, facets, added: list[Face], dropped=None) -> SimplicialComplex:
    """The complex with the given facets whose faces are those of ``total``
    with ``added`` put in and the face ``dropped`` taken out, level by level;
    a level that does not change is shared, not copied."""
    by_dim, new = dict(total.faces_by_dim()), {}
    for f in added:
        new.setdefault(len(f) - 1, []).append(f)
    for k, faces in new.items():
        by_dim[k] = by_dim[k].union(faces)
    if dropped:
        by_dim[len(dropped) - 1] = by_dim[len(dropped) - 1] - {dropped}
    return SimplicialComplex._generated_by(facets, by_dim)


def pushable_ridges(s: Subdivision) -> list[Face]:
    """Codimension-one faces whose carrier also has codimension one; on one
    base vertex that face is the empty face, which has no carrier."""
    d = len(s.base.vertices)
    return sorted(g for g in s.total.faces(d - 2) if g and len(s.carrier[g]) == d - 1)


def push_ridge(s: Subdivision, ridge) -> Subdivision:
    """Push a ridge into the interior by coning a fresh vertex over it."""
    if not s.base_is_simplex:
        raise ValueError("push requires a simplex base")
    v_all = s.base.vertices
    d = len(v_all)
    if d < 4:
        raise ValueError("push requires a base simplex on at least 4 vertices")
    g = _parse_face(ridge)
    if g is None:
        raise ValueError("push needs an explicit ridge")
    if g not in s.carrier:
        raise ValueError(f"{g} is not a face of the total complex")
    if len(g) != d - 1:
        raise ValueError(f"{g} does not have codimension one")
    old_carrier = s.carrier[g]
    if len(old_carrier) != d - 1:
        raise ValueError(f"carrier of {g} does not have codimension one")
    if g in s.total.facets:
        raise ValueError(f"{g} is a facet of the total complex, not a ridge")
    w = f"w{_fresh_index(s.total)}"
    added = [tuple(sorted(sub + (w,))) for sub in subsets(g)]
    new_facet = added[-1]
    carrier = dict(s.carrier)
    carrier[g] = carrier[new_facet] = v_all
    carrier.update(zip(added[:-1], repeat(old_carrier)))
    total = _edited(s.total, s.total.facets | {new_facet}, added)
    return Subdivision._built(s.base, total, carrier)


def join_subdivided_edge(s: Subdivision) -> Subdivision:
    """Join with an edge subdivided at a midpoint; adds two base vertices."""
    if not s.base_is_simplex:
        raise ValueError("join requires a simplex base")
    n = _fresh_index(s.total)
    p, q, m = f"p{n}", f"q{n}", f"m{n}"
    new_base = simplex(s.base.vertices + (p, q))
    omega = {(p,): (p,), (q,): (q,), (m,): (p, q), (m, p): (p, q), (m, q): (p, q)}
    carrier: dict[Face, Face] = {}
    for e in sorted(s.total.all_faces()):
        ce = s.carrier[e] if e else ()
        if e:
            carrier[e] = ce
        for wf, cw in omega.items():
            carrier[tuple(sorted(e + wf))] = tuple(sorted(set(ce) | set(cw)))
    # the faces of the join are the carrier's keys and the empty face
    facets = {tuple(sorted(a + b)) for a in s.total.facets for b in ((m, p), (m, q))}
    by_dim: dict[int, set[Face]] = {}
    for f in chain(s.total.faces(-1), carrier):
        by_dim.setdefault(len(f) - 1, set()).add(f)
    total = SimplicialComplex._generated_by(facets, by_dim)
    return Subdivision._built(new_base, total, carrier)


def push_then_stellar(s: Subdivision, ridge=None) -> Subdivision:
    """Push a ridge, then stellarly subdivide the fresh facet (auto: lex smallest)."""
    g = _parse_face(ridge)
    if g is None:
        candidates = pushable_ridges(s)
        if not candidates:
            raise ValueError("no ridge with codimension-one carrier exists")
        g = candidates[0]
    w = f"w{_fresh_index(s.total)}"  # the vertex the push mints
    return stellar_facet(push_ridge(s, g), tuple(sorted(g + (w,))))


@dataclass(frozen=True)
class Op:
    """An op code's builder and rules.  ``face`` is ``"auto"`` if a step's
    face may be omitted (it then reads ``"auto"``), ``"required"`` if it must
    name a face, and ``"none"`` if the op takes none."""

    build: Callable[[Subdivision, str | None], Subdivision]
    face: str
    base_growth: int = 0  # base vertices the op adds
    warns: bool = False  # the result may not be quasi-geometric


OPS = {
    "o1": Op(stellar_facet, "auto"),
    "o2": Op(push_ridge, "required", warns=True),
    "o3": Op(lambda s, face: join_subdivided_edge(s), "none", base_growth=2),
    "l32": Op(push_then_stellar, "auto"),
    "sd": Op(lambda s, face: sd_subdivision(s), "none"),
}


def apply_step(s: Subdivision, step: OpStep) -> Subdivision:
    if step.op not in OPS:
        raise ValueError(f"unknown op code {step.op!r}")
    return OPS[step.op].build(s, step.face)


def replay(word: OpWord) -> Subdivision:
    """Rebuild an op word; an op that fails on its input is named by its path."""
    s = trivial_on(word.seed_vertices)
    for i, step in enumerate(word.steps):
        try:
            s = apply_step(s, step)
        except ValueError as exc:
            raise ValueError(f"opword.steps[{i}]: {exc}") from None
    return s


def realize_local_h(target) -> Subdivision:
    """Build a quasi-geometric subdivision whose local h-vector is the target.

    The target must be symmetric and nonnegative with zero first and last
    entries.  Construction runs center-outward: seed with an edge (even
    length) or triangle (odd length) simplex, stellar the center entry in,
    then alternate edge joins with push-then-stellar repetitions for each
    outer coefficient.  The result is re-checked against the direct
    definition; a mismatch is an internal error, never silent.
    """
    target = [int(t) for t in target]
    d = len(target) - 1
    if d < 1:
        raise InvalidTargetError("target needs at least two entries")
    if target[0] != 0 or target[d] != 0:
        raise InvalidTargetError("first and last entries must be zero")
    if any(t < 0 for t in target):
        raise InvalidTargetError("entries must be nonnegative")
    if any(target[i] != target[d - i] for i in range(d + 1)):
        raise InvalidTargetError("target must be symmetric")

    if d == 1:
        result = trivial_on(1)
    else:
        c = d // 2
        s = trivial_on(2 if d % 2 == 0 else 3)
        for _ in range(target[c]):
            s = stellar_facet(s)
        for k in range(c - 1, 0, -1):
            p = f"p{_fresh_index(s.total)}"  # the endpoint the join mints
            g = tuple(sorted(min(s.total.facets) + (p,)))
            s = join_subdivided_edge(s)
            for _ in range(target[k]):
                w = f"w{_fresh_index(s.total)}"  # the vertex the push mints
                s = push_then_stellar(s, g)
                g = tuple(sorted((set(g) - {max(g)}) | {w}))
        result = s

    got = result.local_h().padded(d)
    if got != tuple(target):
        raise InternalMismatchError(
            f"realized local h {list(got)} does not match target {target}"
        )
    return result


def random_subdivision(seed: int, d_max: int, steps: int) -> tuple[Subdivision, OpWord]:
    """Deterministic pseudo-random op word over the quasi-geometric operations.

    Restricted to the stellar, join, and push-then-stellar ops so every
    instance stays quasi-geometric.  Chosen faces are recorded explicitly,
    making the word replayable bit-exactly.
    """
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = random.Random(seed)
    n0 = 2 if d_max < 3 else rng.choice([2, 3])
    s = trivial_on(n0)
    word: list[OpStep] = []
    for _ in range(steps):
        d = len(s.base.vertices)
        ops = ["o1"]
        if d + 2 <= d_max:
            ops.append("o3")
        ridges = pushable_ridges(s) if d >= 4 else []
        if ridges:
            ops.append("l32")
        op = rng.choice(ops)
        faces = sorted(s.total.facets) if op == "o1" else ridges if op == "l32" else None
        step = OpStep(op, ",".join(rng.choice(faces)) if faces else None)
        s = apply_step(s, step)
        word.append(step)
    return s, OpWord(n0, tuple(word))
