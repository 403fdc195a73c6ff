"""Built-in reference suite: thirteen pinned cases with expected results.

One case exercises membership and cardinality; the other twelve pin a
full weight hierarchy.  The runner computes every hierarchy three ways
(closed form, subspace search, subcode enumeration) and a case passes
only when all three agree with the pinned values, so a regression in any
one path surfaces as a named failure with all computed hierarchies shown.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from . import formulas
from .code import build_code, hierarchy_prop1
from .field import field_new
from .oracle import hierarchy_definitional
from .simplicial import cardinality, member, normalize


@dataclass(frozen=True)
class ReferenceCase:
    case_id: str
    q: int
    m: int
    sets: tuple
    complement: bool
    n: int = None
    k: int = None
    hierarchy: tuple = None
    memberships: tuple = ()
    size: int = None


REFERENCE_CASES = (
    ReferenceCase(
        "ex1", 2, 4, ((1, 2), (2, 3)), False,
        memberships=(
            ((0, 0, 0, 0), True),
            ((1, 1, 0, 0), True),
            ((0, 1, 1, 0), True),
            ((1, 0, 1, 0), False),
        ),
        size=6,
    ),
    ReferenceCase(
        "thm1", 2, 4, ((1, 2, 3, 4),), False,
        n=16, k=4, hierarchy=(8, 12, 14, 15),
    ),
    ReferenceCase(
        "thm2", 2, 5, ((1, 2, 3), (3, 4, 5)), False,
        n=14, k=5, hierarchy=(4, 6, 10, 12, 13),
    ),
    ReferenceCase(
        "thm3a", 2, 6, ((1, 2), (1, 3, 4), (2, 3, 5, 6)), False,
        n=23, k=6, hierarchy=(4, 7, 15, 19, 21, 22),
    ),
    ReferenceCase(
        "thm3b", 3, 5, ((1, 2), (1, 3, 4), (2, 3, 4, 5)), False,
        n=103, k=5, hierarchy=(22, 76, 94, 100, 102),
    ),
    ReferenceCase(
        "thm4", 3, 6, ((1,), (2,), (3, 4), (5, 6)), False,
        n=21, k=6, hierarchy=(2, 4, 10, 12, 18, 20),
    ),
    ReferenceCase(
        "thm5", 2, 5, ((2, 3, 4),), True,
        n=24, k=5, hierarchy=(12, 18, 21, 23, 24),
    ),
    ReferenceCase(
        "thm6", 2, 6, ((1, 2), (2, 3, 4)), True,
        n=54, k=6, hierarchy=(26, 40, 47, 51, 53, 54),
    ),
    ReferenceCase(
        "thm7", 3, 5, ((1,), (2,), (3,), (4, 5)), True,
        n=228, k=5, hierarchy=(150, 202, 220, 226, 228),
    ),
    ReferenceCase(
        "app-t8", 2, 6, ((1, 2), (2, 3, 4, 5), (1, 3, 4, 6)), False,
        n=29, k=6, hierarchy=(8, 13, 21, 25, 27, 28),
    ),
    ReferenceCase(
        "app-t9", 2, 7, ((1, 2, 3), (1, 2, 4, 5), (3, 4, 6, 7)), False,
        n=33, k=7, hierarchy=(8, 12, 17, 25, 29, 31, 32),
    ),
    ReferenceCase(
        "app-t10", 2, 5, ((1, 2, 3), (3, 4, 5), (1, 2, 4)), False,
        n=17, k=5, hierarchy=(4, 9, 13, 15, 16),
    ),
    ReferenceCase(
        "app-t11", 2, 6, ((1, 2, 3, 5), (1, 2, 4, 5), (3, 4, 5, 6)), False,
        n=34, k=6, hierarchy=(8, 18, 26, 30, 32, 33),
    ),
)


def _check_membership(case: ReferenceCase, max_enum) -> dict:
    spec = normalize(case.m, case.sets, case.complement)
    problems = []
    for vec, want in case.memberships:
        got = member(spec, vec)
        if got != want:
            problems.append(f"member({vec}) = {got}, expected {want}")
    got_size = cardinality(spec, case.q, max_enum)
    if got_size != case.size:
        problems.append(f"cardinality = {got_size}, expected {case.size}")
    return {
        "ok": not problems,
        "expected": {"size": case.size},
        "formula": None,
        "prop1": None,
        "definitional": None,
        "detail": "; ".join(problems),
    }


def _check_hierarchy(case: ReferenceCase, max_enum) -> dict:
    spec = normalize(case.m, case.sets, case.complement)
    field = field_new(case.q)
    result = {
        "expected": case.hierarchy,
        "formula": None,
        "prop1": None,
        "definitional": None,
    }
    problems = []
    try:
        closed = formulas.hierarchy_formula(case.q, spec)
        result["formula"] = closed.values
        if (closed.n, closed.k) != (case.n, case.k):
            problems.append(
                f"closed form gives [{closed.n}, {closed.k}], "
                f"expected [{case.n}, {case.k}]"
            )
        if closed.values != case.hierarchy:
            problems.append("closed form disagrees with the pinned hierarchy")
    except Exception as exc:  # a broken table must fail the case, not the run
        problems.append(f"closed form failed: {exc}")
    searched = hierarchy_prop1(field, spec, max_enum=max_enum)
    result["prop1"] = searched.values
    if searched.values != case.hierarchy:
        problems.append("subspace search disagrees with the pinned hierarchy")
    code = build_code(field, spec, max_enum=max_enum)
    if (code.n, code.k) != (case.n, case.k):
        problems.append(
            f"built code is [{code.n}, {code.k}], expected [{case.n}, {case.k}]"
        )
    brute = hierarchy_definitional(code, max_enum=max_enum)
    result["definitional"] = brute.values
    if brute.values != case.hierarchy:
        problems.append("subcode enumeration disagrees with the pinned hierarchy")
    result["ok"] = not problems
    result["detail"] = "; ".join(problems)
    return result


_ROW_KEYS = (
    "id", "ok", "q", "m", "expected", "formula", "prop1", "definitional", "elapsed_ms", "detail",
)


def run_reference_checks(only: str = None, *, max_enum=None):
    """Run the pinned cases, optionally filtered by id substring.

    Returns one dict per executed case with the pinned and computed
    hierarchies, a pass flag, and timing, its keys in the order the CLI
    writes them.
    """
    results = []
    for case in REFERENCE_CASES:
        if only and only not in case.case_id:
            continue
        row = dict.fromkeys(_ROW_KEYS)
        row.update(id=case.case_id, q=case.q, m=case.m)
        start = perf_counter()
        if case.hierarchy is None:
            row.update(_check_membership(case, max_enum))
        else:
            row.update(_check_hierarchy(case, max_enum))
        row["elapsed_ms"] = int(round((perf_counter() - start) * 1000))
        results.append(row)
    return results
