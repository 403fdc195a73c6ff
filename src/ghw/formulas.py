"""Closed-form weight hierarchies, applicability dispatch, and the
subspace-avoidance bound used to certify them.

Every closed form here assumes a normalized specification (generators
sorted by size then lexicographically) and a full-dimension code, and is
organized as a small table: per rank ranges, one integer expression per
range.  Adjacent ranges in some tables share an endpoint on purpose; the
expressions agree there, and the evaluator checks that instead of trusting
it.  When several tables claim the same specification (size ties make more
than one row arrangement legitimate, and disjoint generators are covered
both by their own table and by the overlap tables), every claimant is
evaluated and any disagreement downgrades the answer to "not applicable"
with the conflict spelled out, so a formula result is always corroborated.

The appendix tables A-Table8-11 cover three generators whose two largest
sizes tie.  They are T3's Table 2 and Table 3 evaluated with the generator
roles permuted, new role i played by old role pi[i] (t123 never moves):
A-Table8 is Table 2 and A-Table9 is Table 3 under pi = (0, 2, 1),
A-Table10 is Table 2 under (1, 2, 0) and A-Table11 Table 2 under
(2, 1, 0).  Only the labels differ, except that A-Table9 keeps its own
boundary rule: its second and third ranges exclude their upper ends.

Range conventions follow the tables: lo/hi bounds, the lower one always
inclusive, the upper one strict where a table says so.  Bounds may fall
outside 1..m or order themselves into an empty range; both simply mean
the row covers no rank, never an error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .code import WeightHierarchy, check_hierarchy_bounds
from .field import Field
from .linalg import Subspace, intersection, subspace_from_vectors
from .simplicial import ComplexSpec, cardinality


class NotApplicable(Exception):
    """No closed form covers the specification; the reason says which
    hypothesis failed or which candidate forms conflicted."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


@dataclass(frozen=True)
class _Row:
    prov: str
    lo: int
    hi: int
    value: object  # callable r -> int
    hi_strict: bool = False

    def covers(self, r: int) -> bool:
        return self.lo <= r and (r < self.hi if self.hi_strict else r <= self.hi)

    def at(self, r: int) -> int:
        return self.value(r)


# ----------------------------------------------------------------------
# table builders: pure integer arithmetic, one function per table


def rows_full_space(q, m):
    return [_Row("T1:formula", 1, m, lambda r: q**m - q ** (m - r))]


def rows_two_overlapping(q, m, a1, a2, t12):
    return [
        _Row("T2:Table1:row1", 1, m - a2, lambda r: q**a1 - q ** (t12 + m - r - a2)),
        _Row(
            "T2:Table1:row2",
            m - a2,
            m,
            lambda r: q**a1 + q**a2 - q**t12 - q ** (m - r),
        ),
    ]


def _triple_n(q, a, t):
    (a1, a2, a3), (t12, t13, t23, t123) = a, t
    return q**a1 + q**a2 + q**a3 - q**t12 - q**t13 - q**t23 + q**t123


def rows_three_low_cross(q, m, a, t, prefix="T3:Table2"):
    """Covers t13 <= t23; four ranges with inclusive shared endpoints."""
    (a1, a2, a3), (t12, t13, t23, t123) = a, t
    n = _triple_n(q, a, t)
    return [
        _Row(
            f"{prefix}:row1",
            1,
            m - a2 - a3 + t23,
            lambda r: q**a1 - q ** (m - r - a2 - a3 + t12 + t13 + t23 - t123),
        ),
        _Row(
            f"{prefix}:row2",
            m - a2 - a3 + t23,
            m - a3 - t12 + t123,
            lambda r: q**a1
            + q**a2
            - q ** (m - r - a3 + t23)
            - q ** (t12 + t13 - t123),
        ),
        _Row(
            f"{prefix}:row3",
            m - a3 - t12 + t123,
            m - a3,
            lambda r: q**a1
            + q**a2
            - q**t12
            - q ** (m - r - a3 + t13)
            - q ** (m - r - a3 + t23)
            + q ** (m - r - a3 + t123),
        ),
        _Row(f"{prefix}:row4", m - a3, m, lambda r: n - q ** (m - r)),
    ]


def rows_three_high_cross(q, m, a, t, prefix="T3:Table3"):
    """Covers t13 >= t23; six ranges with inclusive shared endpoints.
    Rows 1, 2, 5 and 6 are Table 2's four rows, row 2 ending earlier."""
    (a1, a2, a3), (t12, t13, t23, t123) = a, t
    row1, row2, row5, row6 = rows_three_low_cross(q, m, a, t, prefix)
    return [
        row1,
        replace(row2, hi=m - a1 - a3 + t23),
        _Row(
            f"{prefix}:row3",
            m - a1 - a3 + t23,
            m - a1 - a3 + t13,
            lambda r: q**a2 - q ** (m - r - a1 - a3 + t12 + t13 + t23 - t123),
        ),
        _Row(
            f"{prefix}:row4",
            m - a1 - a3 + t13,
            m - a3 - t12 + t123,
            lambda r: q**a1
            + q**a2
            - q ** (t12 + t23 - t123)
            - q ** (m - r - a3 + t13),
        ),
        replace(row5, prov=f"{prefix}:row5"),
        replace(row6, prov=f"{prefix}:row6"),
    ]


def rows_disjoint(q, m, sizes):
    """Pairwise disjoint generators covering all coordinates."""
    l = len(sizes)
    tails = [sum(sizes[j:]) for j in range(l)] + [0]  # tails[j-1] = U_j
    rows = []
    for j in range(1, l + 1):
        head = sum(q ** sizes[i] for i in range(j))
        tail = tails[j]
        rows.append(
            _Row(
                f"T4:Table4:row{j}",
                m - tails[j - 1],
                m - tail,
                lambda r, head=head, tail=tail, j=j: head - q ** (m - r - tail) - j + 1,
            )
        )
    return rows


def rows_complement_single(q, m, s):
    return [
        _Row(
            "T5:Table5:row1",
            1,
            s,
            lambda r: q**m - q**s - q ** (m - r) + q ** (s - r),
        ),
        _Row("T5:Table5:row2", s, m, lambda r: q**m - q**s - q ** (m - r) + 1),
    ]


def rows_complement_two(q, m, a1, a2, t12):
    return [
        _Row(
            "T6:Table6:row1",
            1,
            a1 - t12,
            lambda r: q**m
            - q**a1
            - q**a2
            - q ** (m - r)
            + q ** (a1 - r)
            + q ** (a2 - r),
            hi_strict=True,
        ),
        _Row(
            "T6:Table6:row2",
            a1 - t12,
            a2,
            lambda r: q**m - q**a1 - q**a2 + q**t12 - q ** (m - r) + q ** (a2 - r),
            hi_strict=True,
        ),
        _Row(
            "T6:Table6:row3",
            a2,
            m,
            lambda r: q**m - q**a1 - q**a2 + q**t12 - q ** (m - r) + 1,
        ),
    ]


def rows_complement_disjoint(q, m, sizes):
    l = len(sizes)
    drop = sum(q**a for a in sizes)
    rows = []
    for j in range(1, l + 1):
        lo = 1 if j == 1 else sizes[j - 2]
        rows.append(
            _Row(
                f"T7:Table7:row{j}",
                lo,
                sizes[j - 1],
                lambda r, j=j: q**m
                - drop
                - q ** (m - r)
                + sum(q ** (a - r) for a in sizes[j - 1 :])
                + j
                - 1,
                hi_strict=True,
            )
        )
    rows.append(
        _Row(
            f"T7:Table7:row{l + 1}",
            sizes[-1],
            m,
            lambda r: q**m - drop - q ** (m - r) + l,
        )
    )
    return rows


# ----------------------------------------------------------------------
# dispatch


# When the two largest generators tie, either of them can play the last
# role, so the appendix tables are T3's two tables with the roles permuted
# (see the module docstring).  In claimant order:
# label -> (table, perm, rows whose upper bound is strict).
_TIED_ARRANGEMENTS = {
    "T3:Table2": (rows_three_low_cross, (0, 1, 2), ()),
    "A-Table8": (rows_three_low_cross, (0, 2, 1), ()),
    "T3:Table3": (rows_three_high_cross, (0, 1, 2), ()),
    "A-Table10": (rows_three_low_cross, (1, 2, 0), ()),
    "A-Table9": (rows_three_high_cross, (0, 2, 1), (2, 3)),
    "A-Table11": (rows_three_low_cross, (2, 1, 0), ()),
}
# the last two move the smallest generator out of the first role, which
# needs all three sizes equal; otherwise their orderings go to these
_UNEQUAL_STAND_INS = {"A-Table10": "T3:Table3", "A-Table11": "A-Table9"}


def _permuted(a, t, perm):
    """Sizes and intersection sizes with new role i played by old role perm[i]."""
    i, j, k = perm
    cross = ((0, t[0], t[1]), (t[0], 0, t[2]), (t[1], t[2], 0))
    return (a[i], a[j], a[k]), (cross[i][j], cross[i][k], cross[j][k], t[3])


def _three_set_candidates(q, m, sets):
    s1, s2, s3 = (set(s) for s in sets)
    a = (len(s1), len(s2), len(s3))
    t = (len(s1 & s2), len(s1 & s3), len(s2 & s3), len(s1 & s2 & s3))
    if a[1] < a[2]:
        picks = []
        if t[1] <= t[2]:
            picks.append(("T3:Table2", rows_three_low_cross(q, m, a, t)))
        if t[1] >= t[2]:
            picks.append(("T3:Table3", rows_three_high_cross(q, m, a, t)))
        return picks
    # an arrangement claims the specification when its permuted
    # intersection sizes rise along its table's chain: t12 <= t13 <= t23
    # for Table 2, t12 <= t23 <= t13 for Table 3
    picks = {}
    for label, (table, perm, _) in _TIED_ARRANGEMENTS.items():
        t12, t13, t23 = _permuted(a, t, perm)[1][:3]
        if table is rows_three_low_cross:
            claims = t12 <= t13 <= t23
        else:
            claims = t12 <= t23 <= t13
        if not claims:
            continue
        if a[0] < a[1]:
            label = _UNEQUAL_STAND_INS.get(label, label)
        if label not in picks:
            table, perm, strict = _TIED_ARRANGEMENTS[label]
            rows = table(q, m, *_permuted(a, t, perm), prefix=label)
            picks[label] = [
                replace(row, hi_strict=True) if i in strict else row
                for i, row in enumerate(rows, start=1)
            ]
    return list(picks.items())


def _select_tables(q: int, spec: ComplexSpec):
    """All closed-form tables claiming this specification, most specific
    first.  Raises NotApplicable when none does."""
    sets = spec.sets
    m = spec.m
    l = len(sets)
    sizes = tuple(len(s) for s in sets)
    disjoint = all(
        not (set(sets[i]) & set(sets[j])) for i, j in combinations(range(l), 2)
    )
    if not spec.complement:
        union = set().union(*(set(s) for s in sets))
        if union != set(range(1, m + 1)):
            raise NotApplicable(
                "the closed forms need the generators to cover all coordinates; "
                f"positions {sorted(set(range(1, m + 1)) - union)} are missing"
            )
        picks = []
        if l == 1:
            picks.append(("T1", rows_full_space(q, m)))
        elif l == 2:
            t12 = len(set(sets[0]) & set(sets[1]))
            picks.append(("T2:Table1", rows_two_overlapping(q, m, *sizes, t12)))
        elif l == 3:
            picks.extend(_three_set_candidates(q, m, sets))
        elif not disjoint:
            raise NotApplicable(
                "no closed form handles four or more overlapping generators"
            )
        if disjoint and l >= 2:
            picks.append(("T4:Table4", rows_disjoint(q, m, sizes)))
        return picks

    if spec.empty:
        raise NotApplicable("a generator spans every coordinate, so the complement is empty")
    if q == 2 and sum(1 for a in sizes if a == m - 1) >= 2:
        raise NotApplicable(
            "over GF(2), two generators of size m-1 force every complement vector "
            "to share two fixed coordinates, dropping the code dimension below m; "
            "the closed forms assume full dimension"
        )
    picks = []
    if l == 1:
        picks.append(("T5:Table5", rows_complement_single(q, m, sizes[0])))
    elif l == 2:
        t12 = len(set(sets[0]) & set(sets[1]))
        picks.append(("T6:Table6", rows_complement_two(q, m, *sizes, t12)))
    elif not disjoint:
        raise NotApplicable(
            "no closed form handles three or more overlapping generators "
            "under the complement flag"
        )
    if disjoint and l >= 2:
        picks.append(("T7:Table7", rows_complement_disjoint(q, m, sizes)))
    return picks


def _evaluate_rows(key, rows, k):
    """One value per rank; overlapping rows must agree or the table is broken."""
    values = []
    prov = []
    for r in range(1, k + 1):
        hits = [(row.prov, row.at(r)) for row in rows if row.covers(r)]
        if not hits:
            raise RuntimeError(f"{key}: no range covers r={r}")
        distinct = {v for _, v in hits}
        if len(distinct) != 1:
            raise RuntimeError(f"{key}: ranges disagree at r={r}: {hits}")
        values.append(hits[0][1])
        prov.append(hits[0][0])
    return tuple(values), tuple(prov)


def hierarchy_formula(q: int, spec: ComplexSpec) -> WeightHierarchy:
    """Full weight hierarchy by closed form.

    Every table claiming the specification is evaluated; the first one
    names the provenance and the rest corroborate.  Raises NotApplicable
    when no table claims it or the claimants disagree.
    """
    tables = _select_tables(q, spec)
    if not tables:
        raise NotApplicable("no closed form claims this specification")
    k = spec.m
    # a closed form enumerates nothing for a cap to bound: l generators
    # give at most 2^l - 1 terms (the tables allow 7 for three, l + 1 for
    # disjoint ones), so a cap of 2^l never refuses
    n = cardinality(spec, q, 2 ** len(spec.sets))
    evaluated = [(key, *_evaluate_rows(key, rows, k)) for key, rows in tables]
    base_key, base_values, base_prov = evaluated[0]
    for key, values, _ in evaluated[1:]:
        if values != base_values:
            diffs = [
                (r + 1, base_values[r], values[r])
                for r in range(k)
                if base_values[r] != values[r]
            ]
            raise NotApplicable(
                f"candidate closed forms {base_key} and {key} disagree: "
                + ", ".join(f"r={r}: {x} vs {y}" for r, x, y in diffs)
            )
    return WeightHierarchy(
        spec=spec,
        n=n,
        k=k,
        values=check_hierarchy_bounds(q, n, k, base_values),
        provenance=base_prov,
        method="formula",
    )


def code_params_formula(q: int, spec: ComplexSpec):
    """(length, dimension, minimum distance) by closed form."""
    h = hierarchy_formula(q, spec)
    return h.n, h.k, h.values[0]


# ----------------------------------------------------------------------
# largest subspace avoiding two subspaces inside their sum


def lemma1_dim(u: int, v: int, d: int) -> int:
    """Dimension of the largest subspace of U + V meeting U and V only in 0,
    for dim U = u, dim V = v, dim(U meet V) = d."""
    if d < 0 or d > min(u, v):
        raise ValueError(f"impossible intersection dimension {d} for dims {u}, {v}")
    return min(u - d, v - d)


def _extend_past(field: Field, anchored: list, candidates, count: int, m: int):
    """Greedily pick `count` candidate vectors that stay independent of the
    anchored list and of each other."""
    picked = []
    for vec in candidates:
        if len(picked) == count:
            break
        trial = subspace_from_vectors(
            field, anchored + picked + [tuple(vec)], m
        )
        if trial.dim == len(anchored) + len(picked) + 1:
            picked.append(tuple(vec))
    if len(picked) != count:
        raise RuntimeError("basis extension fell short; inputs were not subspaces")
    return picked


def lemma1_witness(field: Field, u_space: Subspace, v_space: Subspace) -> Subspace:
    """A subspace of maximal dimension inside U + V avoiding U and V.

    Extend a basis of the intersection separately into U and into V and
    pair the extensions; each sum vector leaves both U and V, and the
    pairs stay independent.
    """
    if u_space.ambient != v_space.ambient:
        raise ValueError("subspaces live in different ambient spaces")
    m = u_space.ambient
    inter = intersection(field, u_space, v_space)
    target = lemma1_dim(u_space.dim, v_space.dim, inter.dim)
    if target == 0:
        return subspace_from_vectors(field, [], m)
    anchored = [tuple(row) for row in inter.basis]
    alphas = _extend_past(field, anchored, u_space.basis, target, m)
    betas = _extend_past(field, anchored, v_space.basis, target, m)
    rows = [tuple(map(field.add, a, b)) for a, b in zip(alphas, betas)]
    out = subspace_from_vectors(field, rows, m)
    if out.dim != target:
        raise RuntimeError("paired extension collapsed; inputs were not subspaces")
    return out
