"""Reference checks on the outputs of `localh` CLI calls.

Every check recomputes what it compares against from first principles with
the standard library (`math.comb`, `itertools.permutations`) or tests a
property the paper proves; nothing here imports `localh` or compares with a
stored copy of an earlier output.  Each check returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import permutations


# -- integer polynomials as coefficient lists ---------------------------------


def trim(coeffs) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def pad(coeffs, length: int) -> list[int]:
    out = trim(coeffs)
    return out + [0] * (length - len(out)) if len(out) <= length else out


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def is_palindrome(coeffs, d: int) -> bool:
    padded = pad(coeffs, d + 1)
    return len(padded) == d + 1 and padded == padded[::-1]


# -- permutation statistics by brute force --------------------------------------


@lru_cache(maxsize=None)
def eulerian(n: int) -> tuple[int, ...]:
    """Descent counts over all permutations of n letters, length n + 1."""
    counts = [0] * (n + 1)
    for perm in permutations(range(n)):
        counts[sum(perm[i] > perm[i + 1] for i in range(n - 1))] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def derangement(n: int) -> tuple[int, ...]:
    """Excedance counts over fixed-point-free permutations, length n + 1."""
    counts = [0] * (n + 1)
    for perm in permutations(range(n)):
        if any(perm[i] == i for i in range(n)):
            continue
        counts[sum(perm[i] > i for i in range(n))] += 1
    if n == 0:
        counts[0] = 1
    return tuple(counts)


@lru_cache(maxsize=None)
def descent_set_words(n: int) -> dict[str, int]:
    """ab-index of the face poset of the simplex on n vertices.

    The word of a permutation has b exactly at its descent positions and
    ends in a, since every maximal chain contains the top cell.
    """
    words: dict[str, int] = {}
    for perm in permutations(range(n)):
        word = "".join(
            "b" if i < n - 1 and perm[i] > perm[i + 1] else "a" for i in range(n)
        )
        words[word] = words.get(word, 0) + 1
    return words


# -- shared facts ------------------------------------------------------------------


def local_h_problems(ell, d: int) -> list[str]:
    """Local h of a quasi-geometric subdivision: symmetric, nonnegative, l_0 = 0."""
    out = []
    if len(ell) != d + 1:
        out.append(f"local h {ell} does not have {d + 1} entries")
        return out
    if ell[0] != 0:
        out.append(f"local h {ell} has l_0 != 0")
    if ell != ell[::-1]:
        out.append(f"local h {ell} is not symmetric")
    if any(c < 0 for c in ell):
        out.append(f"local h {ell} has a negative entry")
    return out


def gamma_to_h(gamma, d: int) -> list[int]:
    """Sum of gamma_k x^k (1+x)^(d-2k), with binomials from math.comb."""
    out = [0] * (d + 1)
    for k, g in enumerate(gamma):
        for j in range(d - 2 * k + 1):
            out[k + j] += g * math.comb(d - 2 * k, j)
    return out


def h_from_f(f) -> list[int]:
    """h-vector of a (d-1)-complex from its f-vector (f_-1, ..., f_(d-1))."""
    d = len(f) - 1
    return [
        sum((-1) ** (i - j) * math.comb(d - j, i - j) * f[j] for j in range(i + 1))
        for i in range(d + 1)
    ]


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON ({exc})"


# -- per-command checks ----------------------------------------------------------------


def check_search(stdout: str, meta: dict) -> list[str]:
    """Two records per seed: the member, then its barycentric subdivision."""
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return [f"output is not JSON lines ({exc})"]
    if len(records) != 2:
        return [f"expected 2 records, got {len(records)}"]
    out = []
    for rec, is_sd in zip(records, (False, True)):
        tag = "sd record" if is_sd else "record"
        d = rec["d"]
        if rec["seed"] != meta["seed"] or d != meta["d"]:
            out.append(f"{tag}: seed/d {rec['seed']}/{d}, expected {meta['seed']}/{meta['d']}")
        ell = rec["local_h"]
        out += [f"{tag}: {p}" for p in local_h_problems(ell, d)]
        if gamma_to_h(rec["gamma"], d) != ell:
            out.append(f"{tag}: gamma {rec['gamma']} does not give back local h {ell}")
        if not rec["quasi_geometric"]:
            out.append(f"{tag}: not quasi-geometric")
        steps = rec["opword"]["steps"]
        if is_sd != bool(steps and steps[-1]["op"] == "sd"):
            out.append(f"{tag}: op word does not match the record kind")
        if is_sd:
            if not rec["vertex_induced"]:
                out.append("sd record: not vertex-induced")
            if any(g < 0 for g in rec["gamma"]):
                out.append(f"sd record: gamma {rec['gamma']} has a negative entry")
    return out


def check_compute(stdout: str, meta: dict) -> list[str]:
    """Weak-ball verdict, f/h consistency, and the paper's facts per input kind."""
    out_obj, err = _parse(stdout)
    if err:
        return [err]
    out = []
    if out_obj["validity"] != "valid-weak":
        out.append(f"verdict {out_obj['validity']!r}, expected 'valid-weak'")
    f = out_obj["f_vector"]
    d = len(f) - 1
    if d != meta["d"]:
        out.append(f"f-vector {f} has dimension {d - 1}, expected {meta['d'] - 1}")
    chi = sum((-1) ** i * f[i] for i in range(len(f)))
    if chi != 0:
        out.append(f"reduced Euler characteristic of {f} is {-chi}, expected 0")
    h = h_from_f(f)
    if pad(out_obj["h"], d + 1) != h:
        out.append(f"h {out_obj['h']} does not match h {h} recomputed from f")
    if h[d] != 0:
        out.append(f"h_d = {h[d]}, expected 0 for a ball")
    ell = out_obj["local_h"]
    out += local_h_problems(ell, d)
    if not out_obj["quasi_geometric"]["holds"]:
        out.append("not quasi-geometric")
    kind = meta["kind"]
    if kind == "sd-simplex":
        if h != list(eulerian(d)):
            out.append(f"h {h} is not the Eulerian polynomial {list(eulerian(d))}")
        if ell != list(derangement(d)):
            out.append(f"local h {ell} is not the derangement polynomial {list(derangement(d))}")
    if kind in ("sd-simplex", "bary"):
        if not out_obj["vertex_induced"]["holds"]:
            out.append("barycentric subdivision is not vertex-induced")
        if any(g < 0 for g in out_obj["local_gamma"]):
            out.append(f"local gamma {out_obj['local_gamma']} has a negative entry")
    return out


def check_identities(stdout: str, meta: dict) -> list[str]:
    """Every identity holds, and the barycentric records match brute force."""
    out_obj, err = _parse(stdout)
    if err:
        return [err]
    out = []
    records = {r["name"]: r for r in out_obj["identities"]}
    if not out_obj["all_match"]:
        out.append("all_match is false")
    failed = [r["name"] for r in out_obj["identities"] if r["match"] is False]
    if failed:
        out.append(f"identities fail: {failed}")
    d = meta["d"]
    want = list(derangement(d))
    bary = records.get("bary-local-h")
    if bary is None or bary["lhs"] != want or bary["rhs"] != want:
        out.append(f"bary-local-h record {bary} does not give the derangement polynomial {want}")
    symmetry = records.get("local-h-symmetry")
    if symmetry is None:
        out.append("local-h-symmetry record missing")
    else:
        out += local_h_problems(symmetry["lhs"], d)
    if meta["kind"] == "bary":
        gamma = records.get("gamma")
        if gamma is None or gamma["lhs"] is None or any(g < 0 for g in gamma["lhs"]):
            out.append(f"gamma record {gamma} is not nonnegative on a barycentric subdivision")
    return out


def expand_cd(cd: dict[str, int]) -> dict[str, int]:
    """Substitute c -> a + b and d -> ab + ba."""
    ab: dict[str, int] = {}
    for word, coeff in cd.items():
        words = [""]
        for letter in word:
            parts = ("a", "b") if letter == "c" else ("ab", "ba")
            words = [w + p for w in words for p in parts]
        for w in words:
            ab[w] = ab.get(w, 0) + coeff
    return {w: c for w, c in ab.items() if c}


def evaluate_cd(cd: dict[str, int]) -> list[int]:
    """Substitute the commuting values c = 1 + x and d = 2x."""
    total: list[int] = []
    for word, coeff in cd.items():
        term = [coeff]
        for letter in word:
            term = poly_mul(term, [1, 1] if letter == "c" else [0, 2])
        total = [
            (total[i] if i < len(total) else 0) + (term[i] if i < len(term) else 0)
            for i in range(max(len(total), len(term)))
        ]
    return trim(total)


def check_cdindex(stdout: str, meta: dict) -> list[str]:
    """The cd-index expands to the ab-difference and evaluates to the h difference."""
    out_obj, err = _parse(stdout)
    if err:
        return [err]
    out = []
    rank = out_obj["rank"]
    if rank != meta["rank"]:
        out.append(f"rank {rank}, expected {meta['rank']}")
    cd = out_obj["cd_index"]
    if cd is None:
        return out + ["no cd-index"]
    ab_difference = {w: c for w, c in out_obj["ab_difference"].items() if c}
    if expand_cd(cd) != ab_difference:
        out.append(f"cd-index {cd} does not expand to the ab-difference {ab_difference}")
    difference = out_obj["difference"]
    if evaluate_cd(cd) != trim(difference):
        out.append(f"cd-index {cd} at c=1+x, d=2x is not the difference {difference}")
    if any(c < 0 for c in cd.values()):
        out.append(f"cd-index {cd} has a negative coefficient")
    if not is_palindrome(difference, rank):
        out.append(f"difference {difference} is not symmetric in degree {rank}")
    if meta["kind"] == "simplex":
        ab_index = {w: c for w, c in out_obj["ab_index"].items() if c}
        if ab_index != descent_set_words(rank):
            out.append("ab-index of the simplex is not the descent-set count of permutations")
        if trim(difference):
            out.append(f"difference {difference} of a simplex is not 0")
    return out


CHECKS = {
    "search": check_search,
    "compute": check_compute,
    "identities": check_identities,
    "cdindex": check_cdindex,
}
