"""Subdivision-building operations and the prescribed local h realization.

Four operations transform a subdivision of a simplex into another one:

* ``stellar_facet`` (op code ``o1``) stellarly subdivides a facet of the
  total complex; the local h-vector gains 1 in every interior position.
* ``push_ridge`` (op code ``o2``) pushes a codimension-one face with
  codimension-one carrier into the interior by coning a fresh vertex over
  it; positions 2..d-2 of the local h-vector each drop by 1.  The result
  can fail to be quasi-geometric, so the CLI warns when replaying it.
* ``join_subdivided_edge`` (op code ``o3``) joins with an edge split in two;
  the local h-vector is shifted one step inward, padded with zeros.
* ``push_then_stellar`` (op code ``l32``) composes a push with a stellar
  subdivision of the fresh facet, which repairs quasi-geometricity; the
  local h-vector gains 1 in positions 1 and d-1.

``realize_local_h`` drives these center-outward to hit any symmetric
nonnegative target with zero ends, and re-checks the result against the
direct definition before returning it.

Generated vertices are labelled z<n> (stellar apexes), w<n> (pushed
vertices), and p<n>/q<n>/m<n> (join endpoints and midpoint) where n is a
per-subdivision counter recovered by scanning existing labels; base
vertices of seed subdivisions are v1..vd.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .complexes import Face, SimplicialComplex, canonical_face, simplex, subsets
from .subdivisions import Subdivision

_FRESH_RE = re.compile(r"^[wzmpq](\d+)$")


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
    best = 0
    for v in total.vertices:
        m = _FRESH_RE.match(v)
        if m:
            best = max(best, int(m.group(1)))
    return best + 1


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
    new_facets = [f for f in s.total.facets if f != target]
    new_facets += [
        tuple(sorted(set(target) - {v}) + [z]) for v in target
    ]
    carrier = dict(s.carrier)
    top_carrier = carrier.pop(target)
    for sub in subsets(target):
        if len(sub) < len(target):
            carrier[tuple(sorted(sub + (z,)))] = top_carrier
    return Subdivision(s.base, SimplicialComplex(new_facets), carrier)


def pushable_ridges(s: Subdivision) -> list[Face]:
    """Codimension-one faces whose carrier also has codimension one."""
    d = len(s.base.vertices)
    return sorted(
        g for g, c in s.carrier.items() if len(g) == d - 1 and len(c) == d - 1
    )


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
    w = f"w{_fresh_index(s.total)}"
    new_facet = tuple(sorted(g + (w,)))
    carrier = dict(s.carrier)
    carrier[g] = v_all
    carrier[new_facet] = v_all
    carrier[(w,)] = old_carrier
    for sub in subsets(g):
        if 0 < len(sub) < len(g):
            carrier[tuple(sorted(sub + (w,)))] = old_carrier
    total = SimplicialComplex(list(s.total.facets) + [new_facet])
    return Subdivision(s.base, total, carrier)


def join_subdivided_edge(s: Subdivision) -> Subdivision:
    """Join with an edge subdivided at a midpoint; adds two base vertices."""
    if not s.base_is_simplex:
        raise ValueError("join requires a simplex base")
    n = _fresh_index(s.total)
    p, q, m = f"p{n}", f"q{n}", f"m{n}"
    new_base = simplex(s.base.vertices + (p, q))
    omega = {(p,): (p,), (q,): (q,), (m,): (p, q), (m, p): (p, q), (m, q): (p, q)}
    carrier: dict[Face, Face] = {}
    for e in [()] + sorted(s.total.nonempty_faces()):
        ce = s.carrier[e] if e else ()
        if e:
            carrier[e] = ce
        for wf, cw in omega.items():
            carrier[tuple(sorted(e + wf))] = tuple(sorted(set(ce) | set(cw)))
    edge = SimplicialComplex([(m, p), (m, q)])
    total = s.total.join(edge)
    return Subdivision(new_base, total, carrier)


def push_then_stellar(s: Subdivision, ridge=None) -> Subdivision:
    """Push a ridge, then stellarly subdivide the fresh facet (auto: lex smallest)."""
    g = _parse_face(ridge)
    if g is None:
        candidates = pushable_ridges(s)
        if not candidates:
            raise ValueError("no ridge with codimension-one carrier exists")
        g = candidates[0]
    pushed = push_ridge(s, g)
    (w,) = set(pushed.total.vertices) - set(s.total.vertices)
    return stellar_facet(pushed, tuple(sorted(g + (w,))))


OPS = {
    "o1": stellar_facet,
    "o2": push_ridge,
    "o3": lambda s, face=None: join_subdivided_edge(s),
    "l32": push_then_stellar,
}


def apply_step(s: Subdivision, step: OpStep) -> Subdivision:
    if step.op == "sd":
        from .posets import sd_subdivision

        return sd_subdivision(s)
    if step.op not in OPS:
        raise ValueError(f"unknown op code {step.op!r}")
    return OPS[step.op](s, step.face)


def replay(word: OpWord) -> Subdivision:
    s = trivial_on(word.seed_vertices)
    for step in word.steps:
        s = apply_step(s, step)
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
            g = min(s.total.facets)
            before_base = set(s.base.vertices)
            s = join_subdivided_edge(s)
            (p_label,) = [
                v for v in set(s.base.vertices) - before_base if v.startswith("p")
            ]
            g = tuple(sorted(g + (p_label,)))
            for _ in range(target[k]):
                before = set(s.total.vertices)
                s = push_then_stellar(s, g)
                (w,) = [
                    v for v in set(s.total.vertices) - before if v.startswith("w")
                ]
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
        if op == "o1":
            facet = rng.choice(sorted(s.total.facets))
            s = stellar_facet(s, facet)
            word.append(OpStep("o1", ",".join(facet)))
        elif op == "o3":
            s = join_subdivided_edge(s)
            word.append(OpStep("o3"))
        else:
            g = rng.choice(ridges)
            s = push_then_stellar(s, g)
            word.append(OpStep("l32", ",".join(g)))
    return s, OpWord(n0, tuple(word))
