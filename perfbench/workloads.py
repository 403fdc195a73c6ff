"""The inputs of each workload, made from the seed alone.

Nothing here imports ghw: the inputs of a run must not depend on the
program under test, so two versions of ghw are always measured on the
same requests.

- cli-cold: a fixed list of CLI requests, one fresh process each; the
  seed only shuffles their order.
- spec-sweep: a stratified draw of normalized specs on small grids.  The
  strata follow the hypotheses of the closed-form tables (T1-T7 and
  A-Table8-11) plus specs that no table claims, and every stratum gets
  the same number of specs in each of its (q, m) cells, so the cost of a
  sweep hardly depends on the seed.
- oracle-check: five mid-size codes crossed three ways, in a fixed order
  (their cost and peak memory depend on the order, so the seed does not
  touch it).
"""

from __future__ import annotations

import random
from itertools import combinations

# (id, argv after "python -m ghw", why)
CLI_REQUESTS = (
    (
        "both-q2m9",
        ["hierarchy", "--q", "2", "--m", "9", "--sets", "1,2,3,4,5;5,6,7,8,9", "--format", "json"],
        "candidate generation dominates: 8.3M bases built, GB-scale peak RSS",
    ),
    (
        "both-q3m7",
        ["hierarchy", "--q", "3", "--m", "7", "--sets", "1,2,3;3,4,5;5,6,7", "--format", "json"],
        "scoring dominates (odd prime, large union side)",
    ),
    (
        "both-gf4m6",
        ["hierarchy", "--q", "4", "--m", "6", "--sets", "1,2,3;4,5,6", "--format", "json"],
        "extension field: op-table scoring and kernel mask",
    ),
    (
        "both-q3m7-compl",
        ["hierarchy", "--q", "3", "--m", "7", "--sets", "1,2,3;4,5,6", "--complement", "--format", "json"],
        "complement spec: the search scans the union side and minimizes",
    ),
    (
        "brute-q2m8",
        ["hierarchy", "--method", "brute", "--q", "2", "--m", "8", "--sets", "1,2,3;3,4,5", "--format", "json"],
        "kernel of dimension 3: no early exit, every candidate scored and masked",
    ),
    (
        "brute-q2m8-t2",
        ["hierarchy", "--method", "brute", "--q", "2", "--m", "8", "--sets", "1,2,3;3,4,5", "--threads", "2", "--format", "json"],
        "same search on two threads, which must give the same hierarchy",
    ),
    (
        "verbose-q2m7",
        ["hierarchy", "--q", "2", "--m", "7", "--sets", "1,2,3;1,2,4,5;3,4,6,7", "--verbose"],
        "--verbose reruns one full search per rank for its witnesses",
    ),
    (
        "params-formula",
        ["params", "--q", "3", "--m", "7", "--sets", "1,2,3;3,4,5;5,6,7", "--format", "json"],
        "params answered by a closed form: start-up cost only",
    ),
    (
        "params-search",
        ["params", "--q", "2", "--m", "8", "--sets", "1,2,3;3,4,5;5,6,7;1,7,8", "--format", "json"],
        "no table claims four overlapping generators, so params falls back to the search",
    ),
    (
        "verify-paper",
        ["verify-paper"],
        "the 13-case reference suite, all three methods on each case",
    ),
)

# (id, q, m, sets, complement, why); run in this order, since candidate
# caches carry over from one code to the next inside the process
ORACLE_CODES = (
    ("q3m6-compl", 3, 6, ((2, 3, 4),), True, "n=702, T5: the oracle's largest supports"),
    ("gf4m5-compl", 4, 5, ((1, 2), (3, 4, 5)), True, "n=945 over GF(4): extension-field oracle matmul"),
    ("q2m8", 2, 8, ((1, 2, 3, 4), (4, 5, 6, 7, 8)), False, "q=2, k=8: the most message subspaces"),
    ("q3m6-t3", 3, 6, ((1, 2), (1, 3, 4), (2, 3, 4, 5, 6)), False, "three generators, T3:Table2"),
    ("q2m8-a9", 2, 8, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 5, 7, 8)), False, "appendix table A-Table9 at k=8"),
)

# spec-sweep grid: the (q, m) cells a stratum may draw from
SWEEP_GRID = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3), (5, 4))
SPECS_PER_CELL = 2
_TRIES = 20000  # proposals per cell before a listed cell counts as empty

# stratum -> (complement flag or None for either, generator counts, shape)
# where shape says how generators are drawn: independent random subsets,
# subsets of one common random size, or blocks of a random partition
_PROPOSALS = {
    "T1": (False, (1,), "full"),
    "T2:Table1": (False, (2,), "random"),
    "T3:Table2": (False, (3,), "random"),
    "T3:Table3": (False, (3,), "random"),
    "A-Table8": (False, (3,), "equal"),
    "A-Table9": (False, (3,), "equal"),
    "A-Table10": (False, (3,), "equal"),
    "A-Table11": (False, (3,), "equal"),
    "T4:Table4": (False, (4, 5), "partition"),
    "T5:Table5": (True, (1,), "random"),
    "T6:Table6": (True, (2,), "random"),
    "T7:Table7": (True, (3, 4), "partition"),
    "none": (None, (1, 2, 3, 4), "random"),
}
STRATA = tuple(_PROPOSALS)


def normalize_sets(sets):
    """Dedupe, drop generators inside another, sort by (size, lex)."""
    kept = []
    for s in sorted({tuple(sorted(set(s))) for s in sets}, key=lambda t: (-len(t), t)):
        if not any(set(s) <= set(t) for t in kept):
            kept.append(s)
    return tuple(sorted(kept, key=lambda t: (len(t), t)))


def _three_set_tables(sets):
    a = [len(s) for s in sets]
    t12, t13, t23 = (len(set(sets[i]) & set(sets[j])) for i, j in ((0, 1), (0, 2), (1, 2)))
    if a[1] < a[2]:
        return (["T3:Table2"] if t13 <= t23 else []) + (["T3:Table3"] if t13 >= t23 else [])
    equal = a[0] == a[1]
    picks = []
    if t12 <= t13 <= t23:
        picks.append("T3:Table2")
    if t13 <= t12 <= t23:
        picks.append("A-Table8")
    if t12 <= t23 <= t13:
        picks.append("T3:Table3")
    if t23 <= t12 <= t13:
        picks.append("A-Table10" if equal else "T3:Table3")
    if t13 <= t23 <= t12:
        picks.append("A-Table9")
    if t23 <= t13 <= t12:
        picks.append("A-Table11" if equal else "A-Table9")
    return picks


def claimants(q: int, m: int, sets, complement: bool):
    """Closed-form tables whose hypotheses a normalized spec meets, in the
    order the paper's dispatch tries them.  Used only to stratify."""
    l = len(sets)
    disjoint = all(not set(a) & set(b) for a, b in combinations(sets, 2))
    picks = []
    if not complement:
        if set().union(*map(set, sets)) != set(range(1, m + 1)):
            return []
        if l == 1:
            picks = ["T1"]
        elif l == 2:
            picks = ["T2:Table1"]
        elif l == 3:
            picks = _three_set_tables(sets)
        elif not disjoint:
            return []
        if disjoint and l >= 2:
            picks.append("T4:Table4")
    else:
        sizes = [len(s) for s in sets]
        if max(sizes) == m or (q == 2 and sizes.count(m - 1) >= 2):
            return []
        if l == 1:
            picks = ["T5:Table5"]
        elif l == 2:
            picks = ["T6:Table6"]
        elif not disjoint:
            return []
        if disjoint and l >= 2:
            picks.append("T7:Table7")
    return list(dict.fromkeys(picks))


def stratum_of(q: int, m: int, sets, complement: bool) -> str:
    picks = claimants(q, m, sets, complement)
    return picks[0] if picks else "none"


def _propose(rng: random.Random, m: int, stratum: str):
    complement, counts, shape = _PROPOSALS[stratum]
    if complement is None:
        complement = rng.random() < 0.5
    l = min(rng.choice(counts), m)
    if shape == "full":
        sets = [range(1, m + 1)]
    elif shape == "partition":
        coords = rng.sample(range(1, m + 1), rng.randint(l, m))
        cuts = sorted(rng.sample(range(1, len(coords)), l - 1))
        sets = [coords[i:j] for i, j in zip([0] + cuts, cuts + [len(coords)])]
    elif shape == "equal":
        size = rng.randint(1, m)
        sets = [rng.sample(range(1, m + 1), size) for _ in range(l)]
    else:
        sets = [rng.sample(range(1, m + 1), rng.randint(1, m)) for _ in range(l)]
    return normalize_sets(sets), complement


def _usable(m: int, sets, complement: bool) -> bool:
    """The defining set is nonempty (a generator spanning everything
    empties the complement)."""
    return not complement or max(len(s) for s in sets) < m


def draw_cell(seed: int, stratum: str, q: int, m: int, count: int):
    """`count` specs of one stratum in one (q, m) cell."""
    rng = random.Random(f"{seed}/{stratum}/{q}/{m}")
    out = []
    for _ in range(_TRIES):
        sets, complement = _propose(rng, m, stratum)
        if _usable(m, sets, complement) and stratum_of(q, m, sets, complement) == stratum:
            out.append((q, m, sets, complement))
            if len(out) == count:
                return out
    raise ValueError(f"no {stratum} spec found in cell q={q} m={m}")


# stratum -> the (q, m) cells it draws from: every cell of the grid that
# holds specs of the stratum (the checker tests draw each cell for many
# seeds, so a listed cell never comes up empty)
_WIDE = SWEEP_GRID
_NO_M3 = tuple(c for c in SWEEP_GRID if c[1] > 3)
_LARGE_M = ((2, 5), (2, 6), (2, 7), (3, 5))
SWEEP_PLAN = {
    "T1": _WIDE,
    "T2:Table1": _WIDE,
    "T3:Table2": _WIDE,
    "T3:Table3": _LARGE_M,
    "A-Table8": _NO_M3,
    "A-Table9": _LARGE_M,
    "A-Table10": _NO_M3,
    "A-Table11": ((2, 6), (2, 7)),
    "T4:Table4": _NO_M3,
    "T5:Table5": _WIDE,
    "T6:Table6": _WIDE,
    "T7:Table7": _WIDE,
    "none": _WIDE,
}


# the first spec of every sweep, the same for every seed: its scoring
# buffers (4096 candidates x r x 64 points at q=2, m=7) are as large as
# any in the sweep.  Without it the worker's peak RSS followed the order
# in which the seed's draw first asked the allocator for large buffers
# (53.4-60.0 MB over seeds 2000-2039); opening with it, 53.5-53.8 MB
# over seeds 2000-2011.
SWEEP_OPENER = ("T5:Table5", 2, 7, ((1, 2, 3, 4, 5, 6),), True)


def sweep_specs(seed: int):
    """The spec-sweep inputs: (stratum, q, m, sets, complement) tuples.
    SWEEP_OPENER comes first; the drawn specs follow, grouped by (q, m) so
    candidate caches serve a whole group, shuffled within each group by
    the seed."""
    specs = []
    for stratum, cells in SWEEP_PLAN.items():
        for q, m in cells:
            for spec in draw_cell(seed, stratum, q, m, SPECS_PER_CELL):
                specs.append((stratum,) + spec)
    random.Random(f"{seed}/order").shuffle(specs)
    specs.sort(key=lambda s: (s[1], s[2]))
    return [SWEEP_OPENER] + specs


# requests under a few seconds run three times per round and report their
# median, so that one noisy sample does not move the geometric mean
CLI_REPEATS = {"both-q2m9": 1, "both-q3m7": 1, "both-gf4m6": 1}
DEFAULT_REPEATS = 3


def cli_round_requests(seed: int):
    """One cli-cold round: every request as often as it repeats, in an
    order shuffled by the seed."""
    round_ = [req for req in CLI_REQUESTS for _ in range(CLI_REPEATS.get(req[0], DEFAULT_REPEATS))]
    random.Random(f"{seed}/cli-cold").shuffle(round_)
    return round_


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^m."""
    if not 0 <= r <= m:
        return 0
    count = 1
    for i in range(r):
        count = count * (q ** (m - i) - 1) // (q ** (i + 1) - 1)
    return count


def prime_power(q: int):
    """(p, e) with p^e = q, or None."""
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return None

